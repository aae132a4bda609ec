// Trial-cost ledger: where a checkpointed campaign's trial time goes.
// For every kernel x technique it draws the campaign's fault plan (the
// seed and serial draw of fault::run_campaign), runs each trial alone
// through vm::Engine::run_from from the golden checkpoints, and times it.
// Trials are split by outcome — benign trials that rejoined the golden
// run, benign trials that ran to halt, SDC, detected, crash — and their
// interpreted steps are split at the first fault into prefix (restore or
// cold start up to the faulting instruction) and post-fault steps. The
// engine's FastForwardStats ledger keeps the same split, with the prefix
// divided at the fork point into walk_steps and prefix_steps (a trial run
// alone is a one-trial walk); it is cross-checked here.
// Each cell also times its golden run twice, plain and capturing the
// checkpoints, since capture is paid once per campaign before any trial;
// capture_steps_per_second is golden steps over capture seconds.
//
// The interpretation rate of the trial tails is the measure the engine's
// per-step cost shows in: each cell runs its trial plan kReps times on
// the same engine (the first repetition fills the outcome split and is
// cross-checked), and tail_steps_per_second is the interpreted steps of
// one repetition over the best repetition's trial seconds, summed over
// the cells; median_tail_steps_per_second uses each cell's median
// repetition. The process pins itself to the CPU it starts on, so a
// migration between cores does not land inside a repetition.
//
// Knobs: FERRUM_TRIALS (default 1000), FERRUM_SCALE (default 1). The
// golden run is captured at fault::Golden's default stride, 64. Outcome
// counts go to `metrics`; the rejoined/halted split and the step ledger
// depend on the stride, and times on the machine, so they go to
// `wallclock`.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "fault/campaign.h"
#include "fault/step_budget.h"
#include "pipeline/pipeline.h"
#include "support/rng.h"
#include "telemetry/json.h"
#include "vm/engine.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

namespace {

enum Bucket : int {
  kBenignRejoined,
  kBenignHalted,
  kSdc,
  kDetected,
  kCrash,
  kBucketCount,
};
constexpr const char* kBucketNames[kBucketCount] = {
    "benign_rejoined", "benign_halted", "sdc", "detected", "crash"};

Bucket bucket_of(const vm::VmResult& run,
                 const std::vector<std::uint64_t>& golden_output) {
  switch (run.status) {
    case vm::ExitStatus::kOk:
      if (run.output != golden_output) return kSdc;
      return run.rejoined ? kBenignRejoined : kBenignHalted;
    case vm::ExitStatus::kDetected:
      return kDetected;
    default:
      return kCrash;
  }
}

/// Repetitions of each cell's trial plan on one engine.
constexpr int kReps = 5;

struct Ledger {
  std::array<std::uint64_t, kBucketCount> trials{};
  std::array<double, kBucketCount> seconds{};
  std::array<std::uint64_t, kBucketCount> prefix_steps{};
  std::array<std::uint64_t, kBucketCount> post_fault_steps{};
  double golden_seconds = 0.0;
  double capture_seconds = 0.0;
  std::uint64_t golden_steps = 0;
  /// Trial seconds of the best and the median repetition of the plan.
  double best_seconds = 0.0;
  double median_seconds = 0.0;

  void add(const Ledger& other) {
    golden_seconds += other.golden_seconds;
    capture_seconds += other.capture_seconds;
    golden_steps += other.golden_steps;
    best_seconds += other.best_seconds;
    median_seconds += other.median_seconds;
    for (int b = 0; b < kBucketCount; ++b) {
      trials[b] += other.trials[b];
      seconds[b] += other.seconds[b];
      prefix_steps[b] += other.prefix_steps[b];
      post_fault_steps[b] += other.post_fault_steps[b];
    }
  }
  template <typename T>
  static T sum(const std::array<T, kBucketCount>& values) {
    T total{};
    for (const T& value : values) total += value;
    return total;
  }
};

/// One kernel x technique: a plain and a capturing golden run, then every
/// trial of the plan timed alone, kReps times over. Returns false when a
/// golden run fails or the engine's own ledger disagrees with the
/// per-trial split of the first repetition.
bool run_cell(const masm::AsmProgram& program, int trials, int stride,
              std::uint64_t seed, Ledger& ledger) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const vm::PredecodedProgram decoded(program);
  vm::VmOptions options;
  auto start = Clock::now();
  const vm::VmResult plain =
      vm::Engine(decoded, options).run(options, nullptr, 0);
  ledger.golden_seconds = seconds_since(start);
  vm::CheckpointSet ckpts;
  start = Clock::now();
  const vm::VmResult golden = vm::Engine(decoded, options).run_capturing(
      options, static_cast<std::uint64_t>(stride), ckpts);
  ledger.capture_seconds = seconds_since(start);
  if (!plain.ok() || !golden.ok()) return false;
  ledger.golden_steps = golden.steps;
  options.max_steps = fault::faulty_step_budget(golden.steps);
  vm::Engine engine(decoded, options);

  Rng rng(seed);
  std::vector<vm::FaultSpec> plan(static_cast<std::size_t>(trials));
  for (vm::FaultSpec& fault : plan) {
    fault.site = rng.next_below(golden.fi_sites);
    fault.bit = static_cast<int>(rng.next_below(64));
  }
  bool agrees = true;
  std::vector<double> rep_seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    double total = 0.0;
    for (const vm::FaultSpec& fault : plan) {
      start = Clock::now();
      const vm::VmResult run = engine.run_from(ckpts, options, &fault, 1);
      const double seconds = seconds_since(start);
      total += seconds;
      if (rep > 0) continue;
      // Steps interpreted: from the resume checkpoint (checkpoint 0 is the
      // cold start) to halt, trap, or the rejoin boundary.
      const std::uint64_t from = ckpts.nearest_at_or_before(fault.site).steps;
      const std::uint64_t to =
          run.rejoined ? ckpts.nearest_at_or_before(run.rejoin_site).steps
                       : run.steps;
      const std::uint64_t executed = to - from;
      const std::uint64_t prefix =
          run.fault_injected ? run.fault_step - from : executed;
      const Bucket b = bucket_of(run, golden.output);
      ++ledger.trials[b];
      ledger.seconds[b] += seconds;
      ledger.prefix_steps[b] += prefix;
      ledger.post_fault_steps[b] += executed - prefix;
    }
    rep_seconds.push_back(total);
    if (rep > 0) continue;
    const vm::FastForwardStats& ff = engine.stats();
    agrees = ff.walk_steps + ff.prefix_steps ==
                 Ledger::sum(ledger.prefix_steps) &&
             ff.post_fault_steps == Ledger::sum(ledger.post_fault_steps) &&
             ff.unrejoined_halts ==
                 ledger.trials[kBenignHalted] + ledger.trials[kSdc] &&
             ff.unrejoined_halt_steps ==
                 ledger.post_fault_steps[kBenignHalted] +
                     ledger.post_fault_steps[kSdc];
  }
  std::sort(rep_seconds.begin(), rep_seconds.end());
  ledger.best_seconds = rep_seconds.front();
  ledger.median_seconds = rep_seconds[rep_seconds.size() / 2];
  return agrees;
}

telemetry::Json ledger_json(const Ledger& ledger) {
  telemetry::Json json = telemetry::Json::object();
  const double total = Ledger::sum(ledger.seconds);
  for (int b = 0; b < kBucketCount; ++b) {
    telemetry::Json row = telemetry::Json::object();
    row["trials"] = ledger.trials[b];
    row["seconds"] = ledger.seconds[b];
    row["time_share"] = total > 0.0 ? ledger.seconds[b] / total : 0.0;
    row["prefix_steps"] = ledger.prefix_steps[b];
    row["post_fault_steps"] = ledger.post_fault_steps[b];
    json[kBucketNames[b]] = row;
  }
  json["seconds"] = total;
  json["golden_seconds"] = ledger.golden_seconds;
  json["capture_seconds"] = ledger.capture_seconds;
  json["capture_steps_per_second"] =
      ledger.capture_seconds > 0.0
          ? static_cast<double>(ledger.golden_steps) / ledger.capture_seconds
          : 0.0;
  const double tail_steps =
      static_cast<double>(Ledger::sum(ledger.prefix_steps) +
                          Ledger::sum(ledger.post_fault_steps));
  json["reps"] = kReps;
  json["best_seconds"] = ledger.best_seconds;
  json["median_seconds"] = ledger.median_seconds;
  json["tail_steps_per_second"] =
      ledger.best_seconds > 0.0 ? tail_steps / ledger.best_seconds : 0.0;
  json["median_tail_steps_per_second"] =
      ledger.median_seconds > 0.0 ? tail_steps / ledger.median_seconds : 0.0;
  return json;
}

/// Pins the process to the CPU it is running on; returns that CPU, or -1
/// when it cannot tell.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

}  // namespace

int main() {
  const int trials = benchutil::env_trials(1000);
  const int scale = benchutil::env_scale(1);
  const int stride = 64;
  const std::uint64_t seed = fault::CampaignOptions{}.seed;
  benchutil::BenchReport report("trial_ledger");
  report.metrics()["trials"] = trials;
  report.metrics()["scale"] = scale;
  report.wallclock()["stride"] = stride;
  report.wallclock()["pinned_cpu"] = pin_to_current_cpu();

  std::printf("Trial-cost ledger — %d trials per kernel, scale x%d, "
              "stride %d, trials run singly, plans run %d times\n\n",
              trials, scale, stride, kReps);
  std::printf("%-26s %9s | %8s %8s %8s %8s %8s | %11s %11s | %9s %9s |"
              " %15s\n",
              "technique", "trial ms", "rejoin", "halt", "sdc", "detected",
              "crash", "prefix st", "post st", "golden ms", "capture",
              "tail Mst/s");
  std::printf("%-26s %9s | %44s | %47s | %15s\n", "", "",
              "share of trial time (benign split by rejoin)", "",
              "best / median");
  benchutil::print_rule(161);
  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  int status = 0;
  for (Technique technique : techniques) {
    const char* name = pipeline::technique_name(technique);
    Ledger total;
    for (const auto& base : workloads::all()) {
      const auto w = workloads::scaled(base.name, scale);
      auto build = pipeline::build(w.source, technique);
      Ledger cell;
      if (!run_cell(build.program, trials, stride, seed, cell)) {
        std::fprintf(stderr, "trial_ledger: %s/%s golden run failed or the "
                     "engine ledger disagrees\n", w.name.c_str(), name);
        status = 1;
      }
      telemetry::Json counts = telemetry::Json::object();
      counts["benign"] = cell.trials[kBenignRejoined] +
                         cell.trials[kBenignHalted];
      counts["sdc"] = cell.trials[kSdc];
      counts["detected"] = cell.trials[kDetected];
      counts["crash"] = cell.trials[kCrash];
      report.metrics()["outcomes"][name][w.name] = counts;
      report.wallclock()["workloads"][name][w.name] = ledger_json(cell);
      total.add(cell);
    }
    report.wallclock()["techniques"][name] = ledger_json(total);
    const double seconds = Ledger::sum(total.seconds);
    std::printf("%-26s %9.1f |", name, seconds * 1e3);
    for (int b = 0; b < kBucketCount; ++b) {
      std::printf(" %7.1f%%",
                  seconds > 0.0 ? 100.0 * total.seconds[b] / seconds : 0.0);
    }
    const double tail_steps =
        static_cast<double>(Ledger::sum(total.prefix_steps) +
                            Ledger::sum(total.post_fault_steps));
    std::printf(" | %11llu %11llu | %9.1f %9.1f | %7.1f %7.1f\n",
                static_cast<unsigned long long>(Ledger::sum(total.prefix_steps)),
                static_cast<unsigned long long>(
                    Ledger::sum(total.post_fault_steps)),
                total.golden_seconds * 1e3, total.capture_seconds * 1e3,
                total.best_seconds > 0.0
                    ? tail_steps / total.best_seconds / 1e6 : 0.0,
                total.median_seconds > 0.0
                    ? tail_steps / total.median_seconds / 1e6 : 0.0);
  }
  report.write();
  return status;
}
