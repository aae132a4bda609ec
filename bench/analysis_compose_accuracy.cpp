// Cross-validation of compositional campaigns against the monolithic
// audit: the section decomposition partitions the dynamic FI site
// stream, each section is campaigned in isolation, and the composition
// rule folds the per-section summaries into whole-program counts. For
// the exhaustive frame (every site x probe bit) the composed counts must
// agree with fault::audit_program EXACTLY — agreement 1.000 on every
// workload x technique cell, asserted in-artifact and re-checked by
// bench_smoke. Anything below 1.0 means the decomposition dropped or
// double-counted a site, or a per-section trial diverged from the
// monolithic engine semantics.
//
// The experiment also measures the incremental payoff (EXPERIMENTS.md
// A9): a sampled compositional campaign run cold into a summary cache,
// then re-run warm — the warm pass must execute zero engine trials and
// compose byte-identical counts from the cached summaries alone.
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/sections.h"
#include "fault/audit.h"
#include "fault/compose.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int scale = benchutil::env_scale();
  const int trials = benchutil::env_trials();
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("analysis_compose_accuracy");
  report.metrics()["scale"] = scale;

  // The exhaustive frame is quadratic (sites x steps), so the smoke
  // scale probes one mid-word bit over a strided site subsample (both
  // sweeps stride identically, so exact agreement stays meaningful);
  // larger scales add sign and low bits (the analysis_static_coverage
  // convention) and widen toward the full frame. Strides are prime so a
  // loop body's site periodicity cannot phase-lock the sample.
  const std::vector<int> probe_bits =
      scale <= 1 ? std::vector<int>{17} : std::vector<int>{0, 17, 63};
  const int site_stride = scale <= 1 ? 61 : scale == 2 ? 7 : 1;
  report.metrics()["site_stride"] = site_stride;

  std::printf("Compositional-campaign cross-validation — composed section "
              "summaries vs monolithic audit (scale %d, %d worker(s))\n\n",
              scale, jobs);
  std::printf("%-12s %-10s | %5s %8s | %8s %8s %8s %8s | %5s\n", "workload",
              "technique", "sects", "inject", "detected", "benign", "crashed",
              "sdc", "match");
  benchutil::print_rule(92);

  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  std::uint64_t cells = 0;
  std::uint64_t matched = 0;
  std::uint64_t total_injections = 0;
  bool warm_zero_trials = true;
  bool warm_matches_cold = true;
  telemetry::Json speedups = telemetry::Json::object();
  for (const auto& workload : workloads::all()) {
    telemetry::Json workload_json = telemetry::Json::object();
    for (Technique technique : techniques) {
      const auto build = pipeline::build(workload.source, technique);
      const check::sections::SectionMap map =
          check::sections::build_sections(build.program);

      fault::AuditOptions audit_options;
      audit_options.probe_bits = probe_bits;
      audit_options.jobs = jobs;
      audit_options.site_stride = site_stride;
      const fault::AuditReport audit =
          fault::audit_program(build.program, audit_options);

      fault::ComposeOptions compose_options;
      compose_options.probe_bits = probe_bits;
      compose_options.jobs = jobs;
      compose_options.site_stride = site_stride;
      const fault::ComposeReport composed =
          fault::compose_audit(build.program, map, compose_options);

      // The audit reports SDCs as its escape list; everything else is a
      // named counter. Exact agreement on all five numbers is the bar.
      const std::uint64_t audit_sdc = audit.escapes.size();
      const bool match = composed.injections == audit.injections &&
                         composed.detected == audit.detected &&
                         composed.benign == audit.benign &&
                         composed.crashed == audit.crashed &&
                         composed.sdc == audit_sdc;
      ++cells;
      matched += match ? 1 : 0;
      total_injections += audit.injections;
      if (!match) {
        std::fprintf(stderr,
                     "compose MISMATCH: %s/%s audit(det=%llu ben=%llu "
                     "crash=%llu sdc=%llu) composed(det=%llu ben=%llu "
                     "crash=%llu sdc=%llu)\n",
                     workload.name.c_str(),
                     pipeline::technique_name(technique),
                     static_cast<unsigned long long>(audit.detected),
                     static_cast<unsigned long long>(audit.benign),
                     static_cast<unsigned long long>(audit.crashed),
                     static_cast<unsigned long long>(audit_sdc),
                     static_cast<unsigned long long>(composed.detected),
                     static_cast<unsigned long long>(composed.benign),
                     static_cast<unsigned long long>(composed.crashed),
                     static_cast<unsigned long long>(composed.sdc));
      }
      std::printf("%-12s %-10s | %5zu %8llu | %8llu %8llu %8llu %8llu | "
                  "%5s\n",
                  workload.name.c_str(), pipeline::technique_name(technique),
                  composed.sections.size(),
                  static_cast<unsigned long long>(composed.injections),
                  static_cast<unsigned long long>(composed.detected),
                  static_cast<unsigned long long>(composed.benign),
                  static_cast<unsigned long long>(composed.crashed),
                  static_cast<unsigned long long>(composed.sdc),
                  match ? "yes" : "NO");

      telemetry::Json cell = telemetry::Json::object();
      cell["audit"] = telemetry::to_json(audit);
      cell["compose"] = telemetry::to_json(composed);
      cell["match"] = match;
      workload_json[pipeline::technique_name(technique)] = cell;
    }

    // Incremental payoff on the FERRUM configuration: a sampled
    // compositional campaign cold into an in-memory summary cache, then
    // warm from it. The warm pass must execute zero engine trials and
    // export byte-identical deterministic counts.
    {
      const auto build = pipeline::build(workload.source, Technique::kFerrum);
      const check::sections::SectionMap map =
          check::sections::build_sections(build.program);
      std::map<std::string, std::string> cache;
      fault::ComposeOptions campaign_options;
      campaign_options.trials = static_cast<std::uint64_t>(trials);
      campaign_options.jobs = jobs;
      campaign_options.lookup =
          [&cache](const std::string& key) -> std::optional<std::string> {
        const auto it = cache.find(key);
        if (it == cache.end()) return std::nullopt;
        return it->second;
      };
      campaign_options.store = [&cache](const std::string& key,
                                        const std::string& bytes) {
        cache[key] = bytes;  // replace semantics, like the CLI wiring
      };
      const fault::ComposeReport cold =
          fault::compose_campaign(build.program, map, campaign_options);
      const fault::ComposeReport warm =
          fault::compose_campaign(build.program, map, campaign_options);
      if (warm.trials_executed != 0) warm_zero_trials = false;
      if (telemetry::to_json(warm).dump() != telemetry::to_json(cold).dump()) {
        warm_matches_cold = false;
      }
      telemetry::Json row = telemetry::Json::object();
      row["cold_seconds"] = cold.wall_seconds;
      row["warm_seconds"] = warm.wall_seconds;
      row["speedup"] = warm.wall_seconds > 0.0
                           ? cold.wall_seconds / warm.wall_seconds
                           : 0.0;
      row["cold_trials_executed"] = cold.trials_executed;
      row["warm_trials_executed"] = warm.trials_executed;
      speedups[workload.name] = row;
    }
    report.metrics()["workloads"][workload.name] = workload_json;
  }
  benchutil::print_rule(92);

  const double agreement =
      cells == 0 ? 0.0
                 : static_cast<double>(matched) / static_cast<double>(cells);
  std::printf("\nOverall agreement: %llu/%llu cells composed exactly "
              "(%.3f). Anything below 1.0 is a decomposition or "
              "composition soundness bug.\n",
              static_cast<unsigned long long>(matched),
              static_cast<unsigned long long>(cells), agreement);
  std::printf("Warm re-composition: zero_trials=%s byte_identical=%s\n",
              warm_zero_trials ? "yes" : "NO",
              warm_matches_cold ? "yes" : "NO");
  report.metrics()["cells"] = cells;
  report.metrics()["matched_cells"] = matched;
  report.metrics()["agreement"] = agreement;
  report.metrics()["total_injections"] = total_injections;
  report.metrics()["warm_zero_trials"] = warm_zero_trials;
  report.metrics()["warm_matches_cold"] = warm_matches_cold;
  report.wallclock()["incremental"] = speedups;
  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.write();
  return agreement == 1.0 && warm_zero_trials && warm_matches_cold ? 0 : 1;
}
