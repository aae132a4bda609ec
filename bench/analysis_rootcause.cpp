// Reproduces the paper's Sec IV-B1 root-cause analysis: *why* IR-level
// EDDI loses coverage at the assembly level. Two views:
//  1. static: how much of each protected program the backend generated
//     beyond the IR ("the additional unprotected footprint", also the
//     paper's explanation for HYBRID's overhead);
//  2. dynamic: where IR-LEVEL-EDDI's escaped SDCs actually landed,
//     bucketed by fault class and instruction origin (Figs 8/9 predict
//     flag materialisation and backend glue).
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "fault/campaign.h"
#include "masm/masm.h"
#include "pipeline/pipeline.h"
#include "telemetry/json.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int trials = benchutil::env_trials();
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("analysis_rootcause");
  report.metrics()["trials"] = trials;

  std::printf("Sec IV-B1 — root causes of IR-LEVEL-EDDI's coverage gap\n\n");
  std::printf("1. Static backend footprint of the protected programs\n\n");
  std::printf("%-15s %10s %10s %10s %12s\n", "benchmark", "from-IR",
              "glue", "total", "glue share");
  benchutil::print_rule(62);
  for (const auto& w : workloads::all()) {
    auto build = pipeline::build(w.source, Technique::kIrEddi);
    std::size_t from_ir = 0;
    std::size_t glue = 0;
    for (const auto& fn : build.program.functions) {
      for (const auto& block : fn.blocks) {
        for (const auto& inst : block.insts) {
          if (inst.origin == masm::InstOrigin::kFromIR) ++from_ir;
          if (inst.origin == masm::InstOrigin::kBackendGlue) ++glue;
        }
      }
    }
    std::printf("%-15s %10zu %10zu %10zu %11.1f%%\n", w.name.c_str(),
                from_ir, glue, from_ir + glue,
                100.0 * glue / (from_ir + glue));
    telemetry::Json row = telemetry::Json::object();
    row["from_ir"] = static_cast<std::uint64_t>(from_ir);
    row["backend_glue"] = static_cast<std::uint64_t>(glue);
    row["glue_share"] = static_cast<double>(glue) /
                        static_cast<double>(from_ir + glue);
    report.metrics()["static_footprint"][w.name] = row;
  }
  std::printf("\nEvery 'glue' instruction (setcc materialisation, spills, "
              "moves, flag re-tests) is an assembly-level fault site that "
              "IR-level protection cannot see (paper Figs 8/9).\n\n");

  std::printf("2. Where IR-LEVEL-EDDI's escaped SDCs landed "
              "(%d faults per benchmark)\n\n", trials);
  std::map<std::string, int> totals;
  int total_sdcs = 0;
  for (const auto& w : workloads::all()) {
    auto build = pipeline::build(w.source, Technique::kIrEddi);
    fault::CampaignOptions options;
    options.trials = trials;
    options.jobs = jobs;
    const auto result = fault::run_campaign(build.program, options);
    for (const auto& [key, count] : result.sdc_breakdown) {
      totals[key] += count;
      total_sdcs += count;
    }
  }
  std::printf("%-40s %8s %8s\n", "fault class / instruction origin",
              "SDCs", "share");
  benchutil::print_rule(58);
  for (const auto& [key, count] : totals) {
    std::printf("%-40s %8d %7.1f%%\n", key.c_str(), count,
                100.0 * count / total_sdcs);
  }
  benchutil::print_rule(58);
  std::printf("%-40s %8d\n", "total escaped SDCs (8 benchmarks)",
              total_sdcs);
  std::printf("\npaper root causes: (a) instructions that only exist at "
              "assembly level (branch materialisation, backend glue) and "
              "(b) IR-level protection made ineffective by lowering — "
              "both visible above; FERRUM closes every row to zero "
              "(Fig 10).\n");
  telemetry::Json breakdown = telemetry::Json::object();
  for (const auto& [key, count] : totals) breakdown[key] = count;
  report.metrics()["sdc_breakdown"] = breakdown;
  report.metrics()["total_escaped_sdcs"] = total_sdcs;
  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.write();
  return 0;
}
