// Reproduces Fig 10: SDC coverage per benchmark for IR-LEVEL-EDDI,
// HYBRID-ASSEMBLY-LEVEL-EDDI and FERRUM, from assembly-level single-bit
// fault-injection campaigns (default 1000 sampled faults per measurement,
// as in the paper; override with FERRUM_TRIALS).
//
// Paper reference points: IR-LEVEL-EDDI averages 72% coverage (kNN 50%,
// Needle 54%, kmeans 100%); HYBRID and FERRUM reach 100% everywhere.
#include <chrono>
#include <cstdio>
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
  const int trials = benchutil::env_trials();
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("fig10_sdc_coverage");
  report.metrics()["trials"] = trials;
  std::printf("Fig 10 — SDC coverage after protection "
              "(%d sampled faults per cell across %d worker(s); raw column "
              "shows the 95%% Wilson interval)\n\n", trials, jobs);
  std::printf("%-15s %19s | %12s %12s %12s\n", "benchmark", "raw SDC",
              "ir-eddi", "hybrid", "ferrum");
  benchutil::print_rule(80);

  const Technique protected_techniques[] = {
      Technique::kIrEddi, Technique::kHybrid, Technique::kFerrum};
  double coverage_sum[3] = {0, 0, 0};
  int rows = 0;

  for (const auto& w : workloads::all()) {
    fault::CampaignOptions options;
    options.trials = trials;
    options.jobs = jobs;

    auto raw_build = pipeline::build(w.source, Technique::kNone);
    const auto raw = fault::run_campaign(raw_build.program, options);
    const auto [raw_lo, raw_hi] = raw.sdc_rate_ci();
    std::printf("%-15s %5.1f%% [%4.1f,%4.1f] |", w.name.c_str(),
                raw.sdc_rate() * 100.0, raw_lo * 100.0, raw_hi * 100.0);

    telemetry::Json workload = telemetry::Json::object();
    workload["raw"] = telemetry::to_json(raw);
    telemetry::Json wall = telemetry::Json::object();
    wall["raw"] = telemetry::wallclock_json(raw);
    for (int t = 0; t < 3; ++t) {
      auto build = pipeline::build(w.source, protected_techniques[t]);
      const auto result = fault::run_campaign(build.program, options);
      const double coverage =
          fault::sdc_coverage(raw.sdc_rate(), result.sdc_rate());
      coverage_sum[t] += coverage;
      std::printf(" %11.1f%%", coverage * 100.0);
      const char* tech = pipeline::technique_name(protected_techniques[t]);
      workload[tech] = telemetry::to_json(result);
      workload[tech]["coverage"] = coverage;
      wall[tech] = telemetry::wallclock_json(result);
    }
    report.metrics()["workloads"][w.name] = workload;
    report.wallclock()["workloads"][w.name] = wall;
    std::printf("\n");
    ++rows;
  }
  benchutil::print_rule(80);
  std::printf("%-15s %19s |", "AVERAGE", "");
  for (double sum : coverage_sum) {
    std::printf(" %11.1f%%", sum / rows * 100.0);
  }
  std::printf("\n\npaper:  ir-eddi avg 72%% (min 50%%), hybrid 100%%, "
              "ferrum 100%%\n");

  telemetry::Json average = telemetry::Json::object();
  const char* names[] = {"ir-level-eddi", "hybrid-assembly-level-eddi",
                         "ferrum"};
  for (int t = 0; t < 3; ++t) average[names[t]] = coverage_sum[t] / rows;
  report.metrics()["average_coverage"] = average;
  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.write();
  return 0;
}
