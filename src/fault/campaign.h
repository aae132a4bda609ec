// Fault-injection campaign runner (paper Sec IV-A2): samples single
// bit-flips uniformly over the dynamic fault-injection sites of a program
// and classifies each run against the fault-free golden output.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "fault/adaptive.h"
#include "fault/executor.h"
#include "masm/masm.h"
#include "vm/engine.h"
#include "vm/vm.h"

namespace ferrum::check::prune {
struct PruneReport;
}

namespace ferrum::fault {

enum class Outcome : std::uint8_t { kBenign, kSdc, kDetected, kCrash };
const char* outcome_name(Outcome outcome);

/// Live outcome counts for a campaign in flight, for streaming "so far"
/// status (the campaign service's partial results). Workers bump the
/// counters as each trial run finishes, so a snapshot taken mid-campaign
/// is scheduling-dependent — wall-clock-quarantined observability, never
/// part of the deterministic result. Once run_campaign returns, the
/// counters equal the runs the campaign actually executed (all trials;
/// in prune mode only the pilots — dead and replayed trials never run).
struct CampaignProgress {
  std::array<std::atomic<std::uint64_t>, 4> counts{};
  std::uint64_t count(Outcome outcome) const {
    return counts[static_cast<std::size_t>(outcome)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t executed() const {
    std::uint64_t total = 0;
    for (const auto& c : counts) total += c.load(std::memory_order_relaxed);
    return total;
  }
};

struct CampaignOptions {
  int trials = 1000;          // samples per measurement, as in the paper
  std::uint64_t seed = 0xfe44u;
  vm::VmOptions vm;
  /// Independent fault sites injected per run (1 = the paper's model;
  /// >1 probes the multi-fault regime named as future work).
  int faults_per_run = 1;
  /// Adjacent bits flipped per fault (burst upsets within one word).
  int burst = 1;
  /// Worker threads executing the trial runs (<= 0 selects hardware
  /// concurrency). The sampled fault set is drawn serially from `seed`
  /// before any run starts and results reduce in trial order, so the
  /// CampaignResult is bit-identical for every jobs value.
  int jobs = 1;
  /// Optional live observer: each finished trial run bumps one outcome
  /// counter (relaxed atomics, snapshot whenever). Must outlive the
  /// run_campaign call. Purely observational — attaching it never
  /// changes the CampaignResult.
  CampaignProgress* progress = nullptr;
  /// Prune mode: a static liveness/equivalence report for this program
  /// (check::prune::prune_program, computed with store_data_sites ==
  /// vm.fault_store_data). The fault set is drawn exactly as without
  /// pruning (same seed, same sequence); trials whose flip is statically
  /// dead are classified benign without running, and the remaining trials
  /// are answered by one *pilot* run per (equivalence class, effective
  /// bit, temporal stratum), its outcome/latency/landing replicated to
  /// every trial of the key. Deterministic and jobs-invariant. Requires
  /// faults_per_run == 1 (throws std::invalid_argument otherwise).
  const check::prune::PruneReport* prune = nullptr;
  /// Adaptive early stopping (--max-half-width / FERRUM_CI_TARGET): when
  /// > 0, the campaign evaluates the Wilson half-widths of all four
  /// outcome rates at power-of-two boundaries of the canonical trial
  /// order (see fault/adaptive.h) and stops at the first boundary where
  /// every half-width is <= this target. The stopped trial count is a
  /// pure function of (program, fault model, seed, target) — invariant
  /// to jobs and the checkpoint stride like the full result. Cannot be
  /// combined with prune (throws std::invalid_argument): pilot
  /// extrapolation answers trials out of canonical order, so a prefix
  /// stop rule has no meaning there.
  double max_half_width = 0.0;
};

/// Where the SDC-causing faults landed, for the root-cause analysis of
/// Sec IV-B1 (key: "<fault-kind>/<origin>").
using SdcBreakdown = std::map<std::string, int>;

/// What campaign prune mode actually executed vs. accounted.
struct CampaignPruneStats {
  bool enabled = false;
  std::uint64_t pilot_runs = 0;        // trial runs actually executed
  std::uint64_t replayed_trials = 0;   // trials answered by another pilot
  std::uint64_t dead_trials = 0;       // statically-dead flips, never run
  std::uint64_t unmatched_trials = 0;  // no static record: run directly
  double dead_fraction_static = 0.0;   // dead bits / total bits, static
  /// trials / pilot_runs (>= 1); 0 when nothing ran.
  double reduction = 0.0;
};

struct CampaignResult {
  std::array<int, 4> counts{};  // indexed by Outcome
  std::uint64_t total_sites = 0;
  std::uint64_t golden_steps = 0;
  SdcBreakdown sdc_breakdown;
  /// Detection latency (dynamic instructions from injection to the
  /// detector firing) over all Detected runs. Immediate checks (HYBRID)
  /// detect within a few instructions; FERRUM's deferred/batched checks
  /// pay a measurable window.
  ///
  /// Multi-fault runs (faults_per_run > 1): latency is measured from the
  /// FIRST fault actually injected — the dynamically earliest site that
  /// was reached, regardless of the order the specs were drawn in. Later
  /// injections only shorten the apparent window; treat multi-fault
  /// latency as a lower-bound-anchored statistic, not per-fault truth.
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_max = 0;
  int latency_samples = 0;
  /// Log2 latency histogram: bucket 0 counts latency 0, bucket i counts
  /// latencies in [2^(i-1), 2^i). Filled in trial order during the
  /// reduction, so it is deterministic like the rest of the result.
  static constexpr int kLatencyBuckets = 65;
  std::array<std::uint64_t, kLatencyBuckets> latency_histogram{};
  /// Prune-mode accounting (enabled == false for unpruned campaigns).
  /// When enabled, counts/latency/breakdown are class-extrapolated
  /// estimates of the unpruned campaign over the same drawn fault set;
  /// prune.pilot_runs counts the runs that actually happened.
  CampaignPruneStats prune;
  /// Adaptive early-stopping accounting (enabled == false when no target
  /// half-width was set). When enabled, counts/latency/breakdown cover
  /// exactly the executed canonical prefix — trials() ==
  /// adaptive.executed_trials — and every field is deterministic.
  AdaptiveStats adaptive;

  // --- Observability only (scheduling-dependent, NOT deterministic) ---
  /// Trials executed by each pool worker (index 0 = the calling thread).
  /// Which worker claims which chunk depends on scheduling; only the sum
  /// (== trials()) is stable.
  std::vector<std::uint64_t> trials_per_worker;
  /// Wall-clock seconds spent executing the trial runs.
  double wall_seconds = 0.0;
  /// Checkpoint/fast-forward accounting for the trial runs. Deterministic
  /// for a fixed stride, but stride-dependent — exported only in the
  /// wallclock section of BENCH artifacts.
  vm::CheckpointTelemetry ckpt;

  double mean_detection_latency() const {
    return latency_samples == 0
               ? 0.0
               : static_cast<double>(latency_sum) / latency_samples;
  }

  int count(Outcome outcome) const {
    return counts[static_cast<int>(outcome)];
  }
  int trials() const {
    return counts[0] + counts[1] + counts[2] + counts[3];
  }
  /// P(SDC | one sampled fault).
  double sdc_rate() const;
  /// 95% Wilson confidence interval for the SDC rate.
  std::pair<double, double> sdc_rate_ci() const;
};

/// 95% Wilson score interval for a binomial proportion — how the paper's
/// "1000 faults for statistical significance" translates into error bars.
std::pair<double, double> wilson_interval(int successes, int trials);

/// Runs `options.trials` single-fault executions. The program must run
/// clean (golden run) first; throws std::runtime_error otherwise.
CampaignResult run_campaign(const masm::AsmProgram& program,
                            const CampaignOptions& options = {});

/// The same campaign over a golden run prepared by the caller, which may
/// share it across campaigns of its program (the service's cross-cell
/// reuse). Throws std::invalid_argument when `golden` ran under another
/// vm.fault_store_data, or when options.prune is set and `golden` holds
/// no site map.
CampaignResult run_campaign(const Golden& golden,
                            const CampaignOptions& options);

/// The paper's SDC-coverage metric: (SDC_raw - SDC_prot) / SDC_raw.
/// Returns 1.0 when the unprotected rate is zero (nothing to cover).
double sdc_coverage(double raw_sdc_rate, double protected_sdc_rate);

}  // namespace ferrum::fault
