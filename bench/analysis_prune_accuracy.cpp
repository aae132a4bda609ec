// Cross-validation of ferrum-prune against the exhaustive dynamic audit,
// over all eight Table II workloads x four protection techniques. Three
// claims are checked per cell:
//
//  1. Dead-bit soundness (ZERO tolerance): every (site, bit) probe the
//     analysis marks dead is re-injected and the run must be
//     bit-identical to the golden run — same status, output, return
//     value, step count and site count. A single divergence is a
//     liveness-analysis soundness bug and fails the bench.
//
//  2. Pilot fidelity (ZERO tolerance): every pilot the pruned audit
//     executed is re-injected independently and must reproduce the same
//     outcome category — the prune path must observe exactly what the
//     exhaustive audit observes at that (site, bit).
//
//  3. Extrapolation accuracy (statistical tolerance): the pruned audit's
//     class-extrapolated SDC rate must track the exhaustive audit's true
//     rate. Equivalence classing is a heuristic — members of a class can
//     behave differently on data-dependent paths — so this is a bounded
//     estimate, not an identity: |pruned - exhaustive| must stay within
//     max(kSdcAbsTol, kSdcRelTol * exhaustive).
//
// The artifact additionally records the injection-reduction factor per
// cell and overall; the overall reduction must clear kMinReduction, and
// the three assertions land in the artifact as `equivalence_ok`.
//
// The exhaustive audit is quadratic (sites x steps), so the smoke scale
// (FERRUM_SCALE=1) probes one mid-word bit; larger scales add the sign
// and low bits. Expect minutes of wall-clock per protected cell on the
// larger workloads at scale >= 2.
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "check/prune.h"
#include "fault/audit.h"
#include "fault/executor.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "vm/engine.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

namespace {

constexpr double kSdcAbsTol = 0.05;  // absolute SDC-rate tolerance
constexpr double kSdcRelTol = 0.15;  // relative SDC-rate tolerance
constexpr double kMinReduction = 3.0;

int failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++failures;
}

/// Full architectural equality against the golden run — stronger than the
/// audit's benign test (output only): a dead flip may not even change the
/// step count or the dynamic site count.
bool identical_to_golden(const vm::VmResult& run, const vm::VmResult& golden) {
  return run.status == golden.status && run.output == golden.output &&
         run.return_value == golden.return_value && run.steps == golden.steps &&
         run.fi_sites == golden.fi_sites;
}

struct CellValidation {
  std::uint64_t dead_checked = 0;
  std::uint64_t dead_divergent = 0;
  std::uint64_t pilots_checked = 0;
  std::uint64_t pilot_mismatches = 0;
};

/// Re-injects (a) every statically-dead probe and (b) every pilot, with
/// independent engines, and compares against the golden run / the pilot's
/// recorded outcome. Runs on the pool; tallies merge in probe order.
CellValidation validate_cell(const masm::AsmProgram& program,
                             const fault::AuditOptions& options,
                             const check::prune::PruneReport& prune,
                             const fault::AuditReport& pruned) {
  CellValidation v;
  const fault::Golden golden(program, options.vm,
                             fault::GoldenRecord::kSiteMap);

  // Map each dynamic site to its static record exactly as the audit does.
  const auto& code = golden.decoded.code();
  std::vector<std::int32_t> pc_site(code.size(), -1);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    if (code[pc].inst == nullptr) continue;
    pc_site[pc] = prune.site_index(code[pc].fidx, code[pc].bidx, code[pc].iidx);
  }

  // Work list: every statically-dead (site, probe-bit), then every pilot.
  struct Probe {
    std::uint64_t site = 0;
    int bit = 0;
    int pilot = -1;  // >= 0: index into pruned.prune.pilots
  };
  std::vector<Probe> probes;
  for (std::uint64_t id = 0; id < golden.result.fi_sites; ++id) {
    const std::int32_t s = pc_site[static_cast<std::size_t>(
        golden.site_pcs[static_cast<std::size_t>(id)])];
    if (s < 0) continue;
    const check::prune::PruneSite& site =
        prune.sites[static_cast<std::size_t>(s)];
    for (int bit : options.probe_bits) {
      if (site.bit_dead(bit)) probes.push_back({id, bit, -1});
    }
  }
  v.dead_checked = probes.size();
  for (std::size_t p = 0; p < pruned.prune.pilots.size(); ++p) {
    probes.push_back({pruned.prune.pilots[p].site, pruned.prune.pilots[p].bit,
                      static_cast<int>(p)});
  }
  v.pilots_checked = pruned.prune.pilots.size();

  std::vector<vm::FaultSpec> plan(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    plan[i].site = probes[i].site;
    plan[i].bit = probes[i].bit;
  }
  std::vector<std::uint8_t> bad(probes.size(), 0);
  fault::TrialExecutor executor(golden, golden.faulty(options.vm),
                                options.jobs);
  executor.run(plan, [&](std::size_t i, const vm::VmResult& run) {
    if (probes[i].pilot < 0) {
      bad[i] = identical_to_golden(run, golden.result) ? 0 : 1;
    } else {
      const auto pilot = static_cast<std::size_t>(probes[i].pilot);
      bad[i] = fault::probe_outcome(run, golden.result.output) ==
                       pruned.prune.pilots[pilot].outcome
                   ? 0
                   : 1;
    }
  });
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (bad[i] == 0) continue;
    if (probes[i].pilot < 0) {
      ++v.dead_divergent;
      std::fprintf(stderr,
                   "dead divergence: site=%llu bit=%d changed the "
                   "architectural outcome\n",
                   static_cast<unsigned long long>(probes[i].site),
                   probes[i].bit);
    } else {
      ++v.pilot_mismatches;
      std::fprintf(stderr, "pilot mismatch: site=%llu bit=%d\n",
                   static_cast<unsigned long long>(probes[i].site),
                   probes[i].bit);
    }
  }
  return v;
}

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int scale = benchutil::env_scale();
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("analysis_prune_accuracy");
  report.metrics()["scale"] = scale;

  std::printf("Prune accuracy cross-validation — pruned vs exhaustive "
              "audit (scale %d, %d worker(s))\n\n", scale, jobs);
  std::printf("%-15s %-8s | %9s %7s | %8s %8s | %5s %5s | %7s\n", "workload",
              "tech", "inject", "pilots", "sdc_ex", "sdc_pr", "dead%",
              "redux", "checks");
  benchutil::print_rule(100);

  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  std::uint64_t total_injections = 0;
  std::uint64_t total_pilots = 0;
  std::uint64_t total_dead_checked = 0;
  std::uint64_t total_pilots_checked = 0;
  for (const workloads::Workload& workload : workloads::all()) {
    telemetry::Json workload_json = telemetry::Json::object();
    for (Technique technique : techniques) {
      const auto build = pipeline::build(workload.source, technique);

      fault::AuditOptions options;
      options.probe_bits =
          scale <= 1 ? std::vector<int>{17} : std::vector<int>{0, 17, 63};
      options.jobs = jobs;

      const auto exhaustive = fault::audit_program(build.program, options);

      const check::prune::PruneReport prune =
          check::prune::prune_program(build.program);
      options.prune = &prune;
      const auto pruned = fault::audit_program(build.program, options);

      const char* tech = pipeline::technique_name(technique);
      const std::string cell_name =
          workload.name + "/" + tech;
      if (pruned.injections != exhaustive.injections ||
          pruned.sites != exhaustive.sites) {
        fail(cell_name + ": pruned audit frame differs from exhaustive");
      }

      // Statistical tolerance on the extrapolated SDC rate.
      const double sdc_ex =
          exhaustive.injections == 0
              ? 0.0
              : static_cast<double>(exhaustive.escapes.size()) /
                    static_cast<double>(exhaustive.injections);
      const double sdc_pr =
          pruned.injections == 0
              ? 0.0
              : static_cast<double>(pruned.escapes.size()) /
                    static_cast<double>(pruned.injections);
      const double tolerance =
          kSdcAbsTol > kSdcRelTol * sdc_ex ? kSdcAbsTol : kSdcRelTol * sdc_ex;
      const double sdc_error = sdc_pr > sdc_ex ? sdc_pr - sdc_ex
                                               : sdc_ex - sdc_pr;
      if (sdc_error > tolerance) {
        fail(cell_name + ": extrapolated SDC rate off by " +
             std::to_string(sdc_error) + " (tolerance " +
             std::to_string(tolerance) + ")");
      }
      // Escape containment: the pruned audit must never invent an escape
      // at a statically-dead probe.
      std::set<std::pair<std::uint64_t, int>> exhaustive_escapes;
      for (const fault::AuditEscape& escape : exhaustive.escapes) {
        exhaustive_escapes.insert({escape.site, escape.bit});
      }
      std::uint64_t escape_hits = 0;
      for (const fault::AuditEscape& escape : pruned.escapes) {
        if (exhaustive_escapes.count({escape.site, escape.bit}) != 0) {
          ++escape_hits;
        }
      }

      // Zero-tolerance checks: dead probes and pilot fidelity.
      const CellValidation v =
          validate_cell(build.program, options, prune, pruned);
      if (v.dead_divergent != 0) {
        fail(cell_name + ": " + std::to_string(v.dead_divergent) +
             " statically-dead probes diverged from the golden run");
      }
      if (v.pilot_mismatches != 0) {
        fail(cell_name + ": " + std::to_string(v.pilot_mismatches) +
             " pilots did not reproduce their recorded outcome");
      }

      total_injections += pruned.injections;
      total_pilots += pruned.prune.pilot_injections;
      total_dead_checked += v.dead_checked;
      total_pilots_checked += v.pilots_checked;

      std::printf("%-15s %-8s | %9llu %7llu | %8.4f %8.4f | %5.1f %5.1f | "
                  "%7s\n",
                  workload.name.c_str(), tech,
                  static_cast<unsigned long long>(pruned.injections),
                  static_cast<unsigned long long>(
                      pruned.prune.pilot_injections),
                  sdc_ex, sdc_pr,
                  100.0 * pruned.prune.dead_fraction_static,
                  pruned.prune.reduction,
                  v.dead_divergent == 0 && v.pilot_mismatches == 0 ? "ok"
                                                                   : "FAIL");

      telemetry::Json cell = telemetry::Json::object();
      cell["exhaustive"] = telemetry::to_json(exhaustive);
      cell["pruned"] = telemetry::to_json(pruned);
      cell["sdc_rate_exhaustive"] = sdc_ex;
      cell["sdc_rate_pruned"] = sdc_pr;
      cell["sdc_rate_error"] = sdc_error;
      cell["sdc_rate_tolerance"] = tolerance;
      cell["escape_overlap"] = escape_hits;
      cell["dead_probes_checked"] = v.dead_checked;
      cell["dead_probes_divergent"] = v.dead_divergent;
      cell["pilots_checked"] = v.pilots_checked;
      cell["pilot_mismatches"] = v.pilot_mismatches;
      cell["reduction"] = pruned.prune.reduction;
      workload_json[tech] = cell;
    }
    report.metrics()["workloads"][workload.name] = workload_json;
  }
  benchutil::print_rule(100);

  const double overall_reduction =
      total_pilots == 0 ? 0.0
                        : static_cast<double>(total_injections) /
                              static_cast<double>(total_pilots);
  if (overall_reduction < kMinReduction) {
    fail("overall injection reduction " + std::to_string(overall_reduction) +
         "x below the " + std::to_string(kMinReduction) + "x floor");
  }
  std::printf("\nOverall: %llu exhaustive-frame injections answered by %llu "
              "pilots (%.1fx reduction); %llu dead probes and %llu pilots "
              "re-validated, %d failure(s).\n",
              static_cast<unsigned long long>(total_injections),
              static_cast<unsigned long long>(total_pilots),
              overall_reduction,
              static_cast<unsigned long long>(total_dead_checked),
              static_cast<unsigned long long>(total_pilots_checked),
              failures);
  report.metrics()["total_injections"] = total_injections;
  report.metrics()["total_pilots"] = total_pilots;
  report.metrics()["overall_reduction"] = overall_reduction;
  report.metrics()["dead_probes_checked"] = total_dead_checked;
  report.metrics()["pilots_checked"] = total_pilots_checked;
  report.metrics()["equivalence_ok"] = failures == 0;
  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.write();
  return failures == 0 ? 0 : 1;
}
