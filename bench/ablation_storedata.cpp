// Ablation: the fault-model boundary. The paper injects into instruction
// *destination registers* only — stores have none, so corrupted store
// data is outside its model. This experiment turns store-data faults on
// (extended model) and measures (a) how much coverage FERRUM loses when
// configured per the paper, and (b) what the load-back store verification
// that closes the hole costs.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int trials = benchutil::env_trials(400);
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("ablation_storedata");
  report.metrics()["trials"] = trials;
  std::printf("Ablation — extended fault model (store-data faults), "
              "%d samples per cell, %d worker(s)\n\n", trials, jobs);
  std::printf("%-15s | %16s %16s | %12s\n", "benchmark",
              "ferrum (paper)", "ferrum+storechk", "extra insts");
  benchutil::print_rule(70);

  for (const auto& w : workloads::all()) {
    fault::CampaignOptions campaign;
    campaign.trials = trials;
    campaign.jobs = jobs;
    campaign.vm.fault_store_data = true;  // extended model for everyone

    auto raw_build = pipeline::build(w.source, Technique::kNone);
    const auto raw = fault::run_campaign(raw_build.program, campaign);

    // FERRUM as configured in the paper's fault model.
    auto paper_build = pipeline::build(w.source, Technique::kFerrum);
    const auto paper = fault::run_campaign(paper_build.program, campaign);

    // FERRUM with load-back store verification.
    pipeline::BuildOptions options;
    options.ferrum.protect_store_data = true;
    auto hardened_build =
        pipeline::build(w.source, Technique::kFerrum, options);
    const auto hardened =
        fault::run_campaign(hardened_build.program, campaign);

    std::printf("%-15s | %9.1f%% cov  %9.1f%% cov  | %12zu\n",
                w.name.c_str(),
                fault::sdc_coverage(raw.sdc_rate(), paper.sdc_rate()) * 100.0,
                fault::sdc_coverage(raw.sdc_rate(), hardened.sdc_rate()) *
                    100.0,
                hardened_build.program.inst_count() -
                    paper_build.program.inst_count());
    telemetry::Json row = telemetry::Json::object();
    row["raw"] = telemetry::to_json(raw);
    row["ferrum-paper"] = telemetry::to_json(paper);
    row["ferrum-paper"]["coverage"] =
        fault::sdc_coverage(raw.sdc_rate(), paper.sdc_rate());
    row["ferrum-storecheck"] = telemetry::to_json(hardened);
    row["ferrum-storecheck"]["coverage"] =
        fault::sdc_coverage(raw.sdc_rate(), hardened.sdc_rate());
    row["extra_static_instructions"] = static_cast<std::uint64_t>(
        hardened_build.program.inst_count() -
        paper_build.program.inst_count());
    report.metrics()["workloads"][w.name] = row;
  }
  benchutil::print_rule(70);
  std::printf("\nExpected shape: under store-data faults the paper "
              "configuration leaks some SDCs; load-back verification "
              "restores full coverage at extra static cost.\n");
  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.write();
  return 0;
}
