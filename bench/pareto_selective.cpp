// Beyond the paper: the coverage/overhead trade-off of *selective*
// FERRUM. Protecting a fraction of the protectable sites sweeps out a
// Pareto curve between the unprotected program and full FERRUM — the
// knob techniques like SDCTune (paper Sec V) tune with vulnerability
// models. This bench compares three ways of spending the same budget:
//
//   uniform   error-diffusion over the site ordinals (the pre-flow
//             coverage_ratio knob) — site positions, no analysis
//   random    seeded uniform draw over the protectable-site universe
//             (SelectiveOptions::kRandom)
//   analysis  ferrum-flow ranking: protect the sites predicted
//             sdc-vulnerable first, then crash-prone, then the rest
//             (SelectiveOptions::kAnalysis)
//
// The claim under test: at every sub-1.0 budget, spending the budget on
// the predicted-vulnerable sites buys at least as much measured SDC
// coverage as spending it at random. Asserted on the per-budget mean
// across the Table II workloads (non-zero exit on violation) — armed
// only at a statistically meaningful campaign size, since at smoke
// trial counts the coverage estimate is too noisy to order strategies.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "telemetry/json.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::SelectiveOptions;
using pipeline::Technique;

namespace {

constexpr int kBudgetCount = 4;
constexpr double kBudgets[kBudgetCount] = {0.25, 0.5, 0.75, 1.0};
constexpr int kStrategyCount = 3;
const char* const kStrategies[kStrategyCount] = {"uniform", "random",
                                                 "analysis"};
/// Minimum campaign size for the dominance assertion: below this the
/// Wilson half-width of an SDC rate swamps the strategy gap.
constexpr int kDominanceTrialsFloor = 400;

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int trials = benchutil::env_trials(400);
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("pareto_selective");
  report.metrics()["trials"] = trials;
  std::printf("Extension — selective FERRUM: analysis-guided vs uniform vs "
              "random budgets (%d faults per cell, %d worker(s))\n\n",
              trials, jobs);
  std::printf("%-15s %6s | %9s %9s %9s | %9s\n", "benchmark", "budget",
              "uniform", "random", "analysis", "overhead*");
  benchutil::print_rule(70);

  double coverage_sum[kStrategyCount][kBudgetCount] = {};
  double overhead_sum[kStrategyCount][kBudgetCount] = {};
  int rows = 0;

  for (const auto& w : workloads::all()) {
    fault::CampaignOptions campaign;
    campaign.trials = trials;
    campaign.jobs = jobs;
    vm::VmOptions timed;
    timed.timing = true;

    auto raw_build = pipeline::build(w.source, Technique::kNone);
    const auto raw = fault::run_campaign(raw_build.program, campaign);
    const auto raw_timed = vm::run(raw_build.program, timed);

    for (int b = 0; b < kBudgetCount; ++b) {
      double coverage_row[kStrategyCount] = {};
      double overhead_row[kStrategyCount] = {};
      for (int s = 0; s < kStrategyCount; ++s) {
        pipeline::BuildOptions options;
        if (s == 0) {
          options.ferrum.coverage_ratio = kBudgets[b];
        } else {
          options.selective.strategy =
              s == 1 ? SelectiveOptions::Strategy::kRandom
                     : SelectiveOptions::Strategy::kAnalysis;
          options.selective.budget = kBudgets[b];
        }
        auto build = pipeline::build(w.source, Technique::kFerrum, options);
        const auto result = fault::run_campaign(build.program, campaign);
        const auto timed_run = vm::run(build.program, timed);
        coverage_row[s] = fault::sdc_coverage(raw.sdc_rate(),
                                              result.sdc_rate());
        overhead_row[s] = 100.0 *
                          (static_cast<double>(timed_run.cycles) -
                           raw_timed.cycles) /
                          static_cast<double>(raw_timed.cycles);
        coverage_sum[s][b] += coverage_row[s];
        overhead_sum[s][b] += overhead_row[s];

        char budget_key[16];
        std::snprintf(budget_key, sizeof(budget_key), "budget-%.2f",
                      kBudgets[b]);
        telemetry::Json point = telemetry::Json::object();
        point["coverage"] = coverage_row[s];
        point["overhead_percent"] = overhead_row[s];
        point["cycles"] = timed_run.cycles;
        if (s != 0) {
          point["universe"] = build.selective_plan.universe.size();
          point["selected"] = build.selective_plan.selected.size();
        }
        report.metrics()["workloads"][w.name][budget_key][kStrategies[s]] =
            point;
      }
      std::printf("%-15s %5.0f%% | %8.1f%% %8.1f%% %8.1f%% | %8.1f%%\n",
                  w.name.c_str(), kBudgets[b] * 100.0,
                  coverage_row[0] * 100.0, coverage_row[1] * 100.0,
                  coverage_row[2] * 100.0, overhead_row[2]);
    }
    ++rows;
  }
  benchutil::print_rule(70);
  for (int b = 0; b < kBudgetCount; ++b) {
    std::printf("%-15s %5.0f%% | %8.1f%% %8.1f%% %8.1f%% | %8.1f%%\n",
                "AVERAGE", kBudgets[b] * 100.0,
                coverage_sum[0][b] / rows * 100.0,
                coverage_sum[1][b] / rows * 100.0,
                coverage_sum[2][b] / rows * 100.0,
                overhead_sum[2][b] / rows);
    char budget_key[16];
    std::snprintf(budget_key, sizeof(budget_key), "budget-%.2f",
                  kBudgets[b]);
    for (int s = 0; s < kStrategyCount; ++s) {
      telemetry::Json point = telemetry::Json::object();
      point["coverage"] = coverage_sum[s][b] / rows;
      point["overhead_percent"] = overhead_sum[s][b] / rows;
      report.metrics()["average"][budget_key][kStrategies[s]] = point;
    }
  }
  std::printf("\n* overhead column is the analysis strategy. Expected "
              "shape: coverage rises with the budget; at every sub-1.0 "
              "budget the analysis ranking matches or beats the random "
              "draw; budget 1.0 is full FERRUM for all three.\n");

  // Dominance check: mean analysis coverage >= mean random coverage at
  // every budget (a hair of slack for rate quantization at the trial
  // count). Only armed at >= kDominanceTrialsFloor trials — the smoke
  // run still exercises every cell, it just does not assert an ordering
  // the noise floor cannot support.
  bool dominated = true;
  const bool armed = trials >= kDominanceTrialsFloor;
  const double slack = 0.5 / trials;
  for (int b = 0; b < kBudgetCount; ++b) {
    const double analysis = coverage_sum[2][b] / rows;
    const double random = coverage_sum[1][b] / rows;
    if (armed && analysis + slack < random) {
      std::fprintf(stderr,
                   "DOMINANCE MISS at budget %.2f: analysis %.4f < random "
                   "%.4f\n",
                   kBudgets[b], analysis, random);
      dominated = false;
    }
  }
  report.metrics()["dominance_armed"] = armed;
  report.metrics()["analysis_dominates_random"] = dominated;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.wallclock()["wall_seconds"] = wall_seconds;
  // Throughput for the baselines tripwire (scripts/bench_diff.py): one
  // raw campaign plus strategies × budgets per workload, `trials` faults
  // each.
  const double total_trials =
      static_cast<double>(rows) *
      (1.0 + kStrategyCount * kBudgetCount) * trials;
  report.wallclock()["trials_per_second"] =
      wall_seconds > 0.0 ? total_trials / wall_seconds : 0.0;
  report.write();
  if (!dominated) {
    std::fprintf(stderr, "\nFAIL: analysis-guided selection lost to the "
                         "random baseline\n");
    return 1;
  }
  return 0;
}
