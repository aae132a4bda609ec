// Substrate microbenchmarks: VM interpretation throughput, the cost of
// enabling the timing model, campaign trial throughput cold vs
// checkpointed per technique, and the pruned FERRUM audit's probe rate —
// the dense plan the shared golden walk exists for. Not a paper
// experiment, but documents what one fault-injection trial costs and
// what the snapshot/fast-forward engine buys back.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.h"
#include "check/prune.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "vm/engine.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

namespace {

void BM_VmRun(benchmark::State& state, Technique technique, bool timing) {
  const auto& w = workloads::by_name("pathfinder");
  auto build = pipeline::build(w.source, technique);
  vm::VmOptions options;
  options.timing = timing;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto result = vm::run(build.program, options);
    if (!result.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    steps = result.steps;
    benchmark::DoNotOptimize(result.return_value);
  }
  state.counters["dyn_insts"] = static_cast<double>(steps);
  state.SetItemsProcessed(static_cast<std::int64_t>(steps) *
                          state.iterations());
}

/// Median and largest of a set of samples (both 0 when empty).
struct Spread {
  double median = 0.0;
  double best = 0.0;
};

Spread spread_of(std::vector<double> samples) {
  Spread out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  out.median = n % 2 == 1 ? samples[n / 2]
                          : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  out.best = samples.back();
  return out;
}

/// Steady interpreter rate: `reps` cold golden runs (Engine::run) of
/// `program` on one PredecodedProgram and one Engine, after one untimed
/// warm-up run, so predecode and the arena mapping stay outside the timed
/// region. Returns the median and the best Minst/s, functional or (with
/// `timing`) under the timing model.
struct InterpreterRate {
  double median = 0.0;
  double best = 0.0;
  std::uint64_t steps = 0;
};

InterpreterRate minst_per_second(const masm::AsmProgram& program, int reps,
                                 bool timing) {
  const vm::PredecodedProgram decoded(program);
  vm::VmOptions options;
  options.timing = timing;
  vm::Engine engine(decoded, options);
  InterpreterRate rate;
  if (!engine.run(options, nullptr, 0).ok()) return rate;
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = engine.run(options, nullptr, 0);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (!result.ok() || seconds <= 0.0) continue;
    rate.steps = result.steps;
    rates.push_back(static_cast<double>(result.steps) / seconds / 1e6);
  }
  const Spread spread = spread_of(std::move(rates));
  rate.median = spread.median;
  rate.best = spread.best;
  return rate;
}

double trials_per_second(const fault::CampaignResult& result, int trials) {
  return result.wall_seconds > 0.0 ? trials / result.wall_seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // Telemetry artifact (written up front; google-benchmark's timing goes
  // to stdout): one profiled run per technique on the microbenchmark
  // workload — dynamic footprint and instruction mix under `metrics`.
  {
    benchutil::BenchReport report("bench_vm");
    const auto& w = workloads::by_name("pathfinder");
    const Technique techniques[] = {Technique::kNone, Technique::kHybrid,
                                    Technique::kFerrum};
    for (Technique technique : techniques) {
      auto build = pipeline::build(w.source, technique);
      vm::VmOptions options;
      options.profile = true;
      const auto result = vm::run(build.program, options);
      if (result.ok()) {
        telemetry::Json row = telemetry::Json::object();
        row["steps"] = result.steps;
        row["fi_sites"] = result.fi_sites;
        row["profile"] = telemetry::to_json(*result.profile);
        report.metrics()["techniques"]
            [pipeline::technique_name(technique)] = row;
      }
    }

    // Interpreter throughput: Minst/s per technique over a scale-4 golden
    // run on a reused engine, the median and the best of kRateReps runs,
    // functional and under the timing model. `none` and IR-EDDI are the
    // unprotected and the IR-level protected trial tails; the timing rate
    // is what a Fig 11 run costs. The hooked loop instance (here
    // profiling) must agree with the bare one on every result field —
    // asserted under `metrics`; the rates are wall-clock observability.
    constexpr int kRateReps = 10;
    const auto rate_workload = workloads::scaled("pathfinder", 4);
    const Technique rate_techniques[] = {Technique::kNone, Technique::kIrEddi,
                                         Technique::kHybrid,
                                         Technique::kFerrum};
    for (Technique technique : rate_techniques) {
      auto build = pipeline::build(rate_workload.source, technique);
      const auto bare = vm::run(build.program, vm::VmOptions{});
      vm::VmOptions hooked_options;
      hooked_options.profile = true;
      const auto hooked = vm::run(build.program, hooked_options);
      const char* name = pipeline::technique_name(technique);
      report.metrics()["hooks_equivalent"][name] =
          bare.ok() && hooked.status == bare.status &&
          hooked.output == bare.output && hooked.steps == bare.steps &&
          hooked.fi_sites == bare.fi_sites &&
          hooked.return_value == bare.return_value;
      const InterpreterRate rate =
          minst_per_second(build.program, kRateReps, false);
      const InterpreterRate timed =
          minst_per_second(build.program, kRateReps, true);
      telemetry::Json row = telemetry::Json::object();
      row["minst_per_second"] = rate.median;
      row["best_minst_per_second"] = rate.best;
      row["timing_minst_per_second"] = timed.median;
      row["best_timing_minst_per_second"] = timed.best;
      row["steps"] = rate.steps;
      row["reps"] = kRateReps;
      report.wallclock()["interpreter"][name] = row;
      std::printf("interpreter %-26s %7.1f Minst/s median  %7.1f best"
                  "  timing %6.1f / %6.1f  (%llu steps)\n",
                  name, rate.median, rate.best, timed.median, timed.best,
                  static_cast<unsigned long long>(rate.steps));
    }

    // Campaign throughput per technique, two engine configurations:
    //   cold     a stride-0 golden run: every chunk is one golden walk
    //            from the cold start, without golden rejoin
    //   default  checkpointed with golden rejoin — what run_campaign
    //            does out of the box
    // Outcome counts are deterministic and identical on both (asserted
    // into `metrics`); trials/sec and speedups are wall-clock.
    const int trials = benchutil::env_trials(256);
    const int jobs = benchutil::env_jobs();
    for (Technique technique : techniques) {
      auto build = pipeline::build(w.source, technique);
      fault::CampaignOptions campaign;
      campaign.trials = trials;
      campaign.jobs = jobs;
      campaign.vm.golden_rejoin = false;
      const fault::Golden stride0(build.program, campaign.vm,
                                  fault::GoldenRecord::kNothing,
                                  /*ckpt_stride=*/0);
      const auto cold = fault::run_campaign(stride0, campaign);
      campaign.vm.golden_rejoin = true;
      const auto fast = fault::run_campaign(build.program, campaign);

      const char* name = pipeline::technique_name(technique);
      report.metrics()["campaign"][name] = telemetry::to_json(cold);
      report.metrics()["campaign_equivalent"][name] =
          telemetry::to_json(cold).dump() == telemetry::to_json(fast).dump();

      telemetry::Json row = telemetry::Json::object();
      row["trials"] = trials;
      const double cold_tps = trials_per_second(cold, trials);
      const double fast_tps = trials_per_second(fast, trials);
      row["cold_trials_per_second"] = cold_tps;
      row["ckpt_trials_per_second"] = fast_tps;
      row["speedup"] = cold_tps > 0.0 ? fast_tps / cold_tps : 0.0;
      row["cold"] = telemetry::wallclock_json(cold);
      row["ckpt"] = telemetry::wallclock_json(fast);
      report.wallclock()["campaign_throughput"][name] = row;
      std::printf("campaign %-8s cold %9.1f trials/s   ckpt %9.1f trials/s"
                  "   speedup %5.2fx\n",
                  name, cold_tps, fast_tps,
                  cold_tps > 0.0 ? fast_tps / cold_tps : 0.0);
    }

    // The pruned FERRUM audit: one pilot probe per (class, bit, stratum)
    // key, in ascending site order — a dense plan whose probes share
    // most of their golden prefix, the case the walk's forks exist for.
    // One audit lasts a few tens of ms, so it runs kAuditReps times: the
    // probe rate of its trials (median and best), and the median seconds
    // of the whole audit_program call, golden run and pilot plan included.
    {
      constexpr int kAuditReps = 7;
      auto build = pipeline::build(w.source, Technique::kFerrum);
      const check::prune::PruneReport prune =
          check::prune::prune_program(build.program);
      fault::AuditOptions audit;
      audit.jobs = jobs;
      audit.prune = &prune;
      std::vector<double> rates;
      std::vector<double> call_seconds;
      fault::AuditReport result;
      for (int rep = 0; rep < kAuditReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        result = fault::audit_program(build.program, audit);
        call_seconds.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count());
        if (result.wall_seconds > 0.0) {
          rates.push_back(static_cast<double>(result.prune.pilot_injections) /
                          result.wall_seconds);
        }
      }
      const Spread rate = spread_of(std::move(rates));
      const double call_median = spread_of(std::move(call_seconds)).median;
      telemetry::Json row = telemetry::Json::object();
      row["probes"] = result.prune.pilot_injections;
      row["probes_per_second"] = rate.median;
      row["best_probes_per_second"] = rate.best;
      row["median_audit_seconds"] = call_median;
      row["reps"] = kAuditReps;
      row["ckpt"] = telemetry::wallclock_json(result);
      report.wallclock()["audit"]["ferrum"] = row;
      std::printf("audit    ferrum   %9.1f probes/s median  %9.1f best"
                  "  %.2f ms per audit (%llu pruned pilots)\n",
                  rate.median, rate.best, call_median * 1e3,
                  static_cast<unsigned long long>(
                      result.prune.pilot_injections));
    }
    report.write();
  }

  benchmark::RegisterBenchmark(
      "VmRun/raw", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kNone, false);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/raw_timing", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kNone, true);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/ferrum", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kFerrum, false);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/hybrid", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kHybrid, false);
      })->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
