// Exhaustive coverage audit: injects one fault into EVERY dynamic
// fault-injection site of a program (for a set of probe bits) and reports
// whether any injection escaped as a silent data corruption. This is the
// mechanical verification of the paper's 100%-coverage claim — stronger
// than a sampled campaign, feasible for small programs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/executor.h"
#include "masm/masm.h"
#include "vm/engine.h"
#include "vm/vm.h"

namespace ferrum::check::prune {
struct PruneReport;
}

namespace ferrum::fault {

struct AuditOptions {
  /// Bit positions probed at each site (a spread across the word).
  std::vector<int> probe_bits = {0, 1, 17, 63};
  vm::VmOptions vm;
  /// Worker threads sweeping the sites (<= 0 selects hardware
  /// concurrency). Each (site, bit) probe is independent and the report
  /// reduces in site order, so the AuditReport — including the order of
  /// `escapes` — is identical for every jobs value.
  int jobs = 1;
  /// Probe only every Nth dynamic site (ids congruent to 0 mod N) — a
  /// deterministic subsample that keeps the exhaustive frame's exactness
  /// on the sites it does probe, for cross-validation harnesses that
  /// compare two sweeps over the identical strided frame at a fraction
  /// of the quadratic cost (bench/analysis_compose_accuracy at smoke
  /// scale). 1 probes every site; incompatible with prune mode.
  int site_stride = 1;
  /// Prune mode: a static liveness/equivalence report for this program
  /// (check::prune::prune_program, computed with store_data_sites ==
  /// vm.fault_store_data). Statically-dead (site, bit) probes are counted
  /// benign without injection; live probes are answered by one *pilot*
  /// injection per (equivalence class, effective bit, temporal stratum)
  /// and extrapolated with exact cardinality accounting. The top-level
  /// counters and escape list then *estimate* the exhaustive audit (same
  /// totals frame); AuditReport::prune records what actually ran.
  /// Deterministic and jobs-invariant, like the exhaustive sweep.
  const check::prune::PruneReport* prune = nullptr;
  /// Aggregate per-static-site outcome tallies into
  /// AuditReport::site_outcomes (keyed by the fault-landing coordinates
  /// the engine records at injection time). Off by default — the tally
  /// costs a map merge per audit. bench/analysis_flow_accuracy uses it
  /// for the precision denominator of the flow predictions.
  bool site_outcomes = false;
};

struct AuditEscape {
  std::uint64_t site = 0;
  int bit = 0;
  vm::FaultKind kind = vm::FaultKind::kGprWrite;
  masm::InstOrigin origin = masm::InstOrigin::kFromIR;
  masm::Op op = masm::Op::kMov;
  std::string function;
  /// Static (block, inst) coordinates of the landing instruction — the
  /// key used by bench/analysis_static_coverage to test containment in
  /// the ferrum-check unprotected-site set.
  int block = 0;
  int inst = 0;
};

/// Outcome category of one audit probe (the audit's four-way
/// classification: detector fired / abnormal exit / output matches golden
/// / silent data corruption).
enum class ProbeOutcome : std::uint8_t { kDetected, kCrashed, kBenign, kSdc };
constexpr int kProbeOutcomeCount = 4;

/// Classifies one faulty run against the golden output: the detector
/// fired, the run ended abnormally, its output matches golden, or it is a
/// silent data corruption.
ProbeOutcome probe_outcome(const vm::VmResult& run,
                           const std::vector<std::uint64_t>& golden_output);

/// Probe-outcome tally of one *static* fault site across every dynamic
/// occurrence and probe bit the audit exercised. The coordinates match
/// AuditEscape (and check/prune/flow site records), so static analyses
/// can join on (function, block, inst, kind).
struct SiteOutcome {
  std::string function;
  int block = 0;
  int inst = 0;
  vm::FaultKind kind = vm::FaultKind::kGprWrite;
  /// Probe counts indexed by ProbeOutcome. In prune mode these are the
  /// class-extrapolated counts (the exhaustive-frame estimate), matching
  /// the report's top-level counters.
  std::array<std::uint64_t, kProbeOutcomeCount> count{};

  std::uint64_t total() const {
    return count[0] + count[1] + count[2] + count[3];
  }
  std::uint64_t of(ProbeOutcome outcome) const {
    return count[static_cast<std::size_t>(outcome)];
  }
};

/// One pilot injection executed by the prune mode: the (site, bit) probe
/// that represented its (equivalence class, effective bit, temporal
/// stratum) key, and the outcome every probe of that key inherited.
/// Deterministic — bench/analysis_prune_accuracy re-injects each pilot
/// and requires the identical outcome the exhaustive audit would see.
struct AuditPilot {
  std::uint64_t site = 0;
  int bit = 0;
  ProbeOutcome outcome = ProbeOutcome::kBenign;
};

/// What the prune mode actually executed vs. accounted. The temporal
/// stratum refines classes dynamically: occurrence n of a static site
/// falls in stratum floor(log2(n)), so a loop-resident site is piloted at
/// a logarithmic spread of iterations instead of once.
struct PruneAuditStats {
  bool enabled = false;
  std::uint64_t static_sites = 0;   // sites in the prune report
  std::uint64_t classes = 0;        // live static equivalence classes
  std::uint64_t pilot_keys = 0;     // (class, bit, stratum) pilots executed
  std::uint64_t pilot_injections = 0;  // injections actually run
  std::uint64_t dead_probes = 0;    // probes skipped as provably dead
  std::uint64_t extrapolated_probes = 0;  // probes answered by a pilot
  std::uint64_t unmatched_probes = 0;  // no static record: swept exhaustively
  double dead_fraction_static = 0.0;   // dead bits / total bits, static
  /// Exhaustive-equivalent injections / injections executed (>= 1).
  double reduction = 0.0;
  /// The pilots actually injected, in deterministic plan order (the JSON
  /// export carries only their count; the list is for cross-validation).
  std::vector<AuditPilot> pilots;
};

struct AuditReport {
  std::uint64_t sites = 0;
  std::uint64_t injections = 0;
  std::uint64_t detected = 0;
  std::uint64_t benign = 0;
  std::uint64_t crashed = 0;
  std::vector<AuditEscape> escapes;  // SDCs — empty means fully covered
  /// Prune-mode accounting (enabled == false for exhaustive audits).
  /// When enabled, the counters above are class-extrapolated estimates of
  /// the exhaustive audit; `injections` still counts every probe the
  /// exhaustive frame would perform, while prune.pilot_injections counts
  /// the runs that actually happened.
  PruneAuditStats prune;
  /// Per-static-site tallies (AuditOptions::site_outcomes; empty when
  /// off). Sorted by (function, block, inst, kind) — deterministic and
  /// jobs-invariant like the rest of the report.
  std::vector<SiteOutcome> site_outcomes;

  // --- Observability only (scheduling-dependent, NOT deterministic) ---
  /// Probes run by each pool worker (index 0 = the calling thread).
  std::vector<std::uint64_t> sites_per_worker;
  /// Wall-clock seconds spent running the probes.
  double wall_seconds = 0.0;
  /// Checkpoint/fast-forward accounting (stride-dependent, exported only
  /// in the wallclock section of BENCH artifacts).
  vm::CheckpointTelemetry ckpt;

  bool fully_covered() const { return escapes.empty(); }
};

/// Runs the audit. Throws std::runtime_error if the golden run fails.
AuditReport audit_program(const masm::AsmProgram& program,
                          const AuditOptions& options = {});

/// The same audit over a golden run prepared by the caller. Throws
/// std::invalid_argument when options.prune is set and `golden` holds no
/// site map.
AuditReport audit_program(const Golden& golden, const AuditOptions& options);

}  // namespace ferrum::fault
