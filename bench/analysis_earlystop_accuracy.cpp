// Cross-validation of adaptive early stopping (EXPERIMENTS.md A10): on
// every workload x technique cell the stop rule must (a) cut the mean
// trial count by at least 5x at the default target half-width, and
// (b) remain statistically honest — the Wilson interval reported at the
// stop boundary must cover the full-budget estimate of the same outcome
// rate at least as often as the nominal 95% level promises.
//
// The comparison leans on the canonical-prefix property: an adaptive
// campaign at seed s executes exactly the first `executed` trials of the
// full-budget campaign at the same seed, so the full-budget counts are
// the natural ground truth and per-outcome prefix containment
// (adaptive_count <= full_count) is a hard invariant, asserted here
// alongside the coverage and reduction numbers.
//
// Smoke scales (tiny FERRUM_TRIALS) cannot stop early — the planned
// budget sits below the rule's first boundary — so the 5x floor is only
// enforced once the budget is realistic (>= 2048 planned trials); the
// artifact records whether the floor was armed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int scale = benchutil::env_scale();
  const int trials = benchutil::env_trials(4096);
  const int jobs = benchutil::env_jobs();
  // FERRUM_CI_TARGET overrides the default 0.05 target; 0 would disable
  // the rule and make the experiment vacuous, so clamp to the default.
  double target = env_ci_target(0.05);
  if (target <= 0.0) target = 0.05;
  // The 5x floor is the paper-level claim and needs a budget the rule
  // can actually shrink; tiny smoke budgets never cross a boundary.
  const bool enforce_reduction = trials >= 2048;
  // Below that budget the run is a pure smoke pass (boundary ladder never
  // fires), so a minimal matrix suffices — under TSan the full one blows
  // the bench_smoke budget without buying extra coverage.
  const int replicates = !enforce_reduction ? 1 : scale <= 1 ? 2 : 5;

  benchutil::BenchReport report("analysis_earlystop_accuracy");
  report.metrics()["scale"] = scale;
  report.metrics()["planned_trials"] = trials;
  report.metrics()["target_half_width"] = target;
  report.metrics()["replicates"] = replicates;
  report.metrics()["reduction_floor_enforced"] = enforce_reduction;

  std::printf("Adaptive early-stopping cross-validation — stopped-prefix "
              "intervals vs full-budget estimates (target %.3f, %d planned "
              "trial(s), %d replicate(s), %d worker(s))\n\n",
              target, trials, replicates, jobs);
  std::printf("%-12s %-10s | %8s %8s %8s | %8s | %8s\n", "workload",
              "technique", "planned", "stopped", "reduce", "maxhw", "covered");
  benchutil::print_rule(78);

  std::vector<Technique> techniques = {Technique::kNone, Technique::kIrEddi,
                                       Technique::kHybrid, Technique::kFerrum};
  if (!enforce_reduction)
    techniques = {Technique::kNone, Technique::kFerrum};
  std::uint64_t cells = 0;
  std::uint64_t intervals_total = 0;
  std::uint64_t intervals_covered = 0;
  double reduction_sum = 0.0;
  std::uint64_t reduction_samples = 0;
  bool prefix_contained = true;
  for (const auto& workload : workloads::all()) {
    telemetry::Json workload_json = telemetry::Json::object();
    for (Technique technique : techniques) {
      const auto build = pipeline::build(workload.source, technique);
      std::uint64_t cell_covered = 0;
      std::uint64_t cell_intervals = 0;
      double cell_reduction = 0.0;
      double cell_max_hw = 0.0;
      int cell_executed = 0;
      for (int r = 0; r < replicates; ++r) {
        fault::CampaignOptions options;
        options.trials = trials;
        options.seed = 0xa5e0u + 977u * static_cast<unsigned>(r);
        options.jobs = jobs;
        const fault::CampaignResult full =
            fault::run_campaign(build.program, options);
        options.max_half_width = target;
        const fault::CampaignResult adaptive =
            fault::run_campaign(build.program, options);
        cell_reduction += adaptive.adaptive.reduction();
        reduction_sum += adaptive.adaptive.reduction();
        ++reduction_samples;
        cell_executed = adaptive.adaptive.executed_trials;
        for (int o = 0; o < 4; ++o) {
          if (adaptive.counts[o] > full.counts[o]) prefix_contained = false;
          const double truth =
              full.trials() > 0
                  ? static_cast<double>(full.counts[o]) / full.trials()
                  : 0.0;
          const auto [lo, hi] = fault::wilson_interval(
              adaptive.counts[o], adaptive.adaptive.executed_trials);
          cell_max_hw = std::max(cell_max_hw, (hi - lo) / 2.0);
          ++cell_intervals;
          ++intervals_total;
          if (lo <= truth && truth <= hi) {
            ++cell_covered;
            ++intervals_covered;
          }
        }
      }
      cell_reduction /= replicates;
      ++cells;
      std::printf("%-12s %-10s | %8d %8d %7.1fx | %8.4f | %llu/%llu\n",
                  workload.name.c_str(), pipeline::technique_name(technique),
                  trials, cell_executed, cell_reduction, cell_max_hw,
                  static_cast<unsigned long long>(cell_covered),
                  static_cast<unsigned long long>(cell_intervals));

      telemetry::Json cell = telemetry::Json::object();
      cell["mean_reduction"] = cell_reduction;
      cell["executed_trials"] = static_cast<std::uint64_t>(cell_executed);
      cell["intervals"] = cell_intervals;
      cell["covered"] = cell_covered;
      workload_json[pipeline::technique_name(technique)] = cell;
    }
    report.metrics()["workloads"][workload.name] = workload_json;
  }
  benchutil::print_rule(78);

  const double mean_reduction =
      reduction_samples > 0 ? reduction_sum / reduction_samples : 0.0;
  const double coverage =
      intervals_total > 0
          ? static_cast<double>(intervals_covered) / intervals_total
          : 0.0;
  const bool reduction_ok = !enforce_reduction || mean_reduction >= 5.0;
  const bool coverage_ok = coverage >= 0.95;
  std::printf("\nMean trial reduction: %.1fx over %llu cells (floor 5.0x %s)\n",
              mean_reduction, static_cast<unsigned long long>(cells),
              enforce_reduction ? (reduction_ok ? "met" : "MISSED")
                                : "not armed at this budget");
  std::printf("Interval coverage: %llu/%llu = %.4f vs nominal 0.95 (%s); "
              "prefix containment %s\n",
              static_cast<unsigned long long>(intervals_covered),
              static_cast<unsigned long long>(intervals_total), coverage,
              coverage_ok ? "ok" : "BELOW NOMINAL",
              prefix_contained ? "holds" : "VIOLATED");
  report.metrics()["cells"] = cells;
  report.metrics()["mean_reduction"] = mean_reduction;
  report.metrics()["intervals_total"] = intervals_total;
  report.metrics()["intervals_covered"] = intervals_covered;
  report.metrics()["coverage"] = coverage;
  report.metrics()["coverage_nominal"] = 0.95;
  report.metrics()["prefix_containment"] = prefix_contained;
  report.metrics()["reduction_ok"] = reduction_ok;
  report.metrics()["coverage_ok"] = coverage_ok;
  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.write();
  return reduction_ok && coverage_ok && prefix_contained ? 0 : 1;
}
