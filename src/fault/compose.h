// Compositional campaigns (FastFlip-style): per-section error-
// propagation summaries composed along dataflow interfaces into whole-
// program outcome counts, with an incremental mode that re-injects only
// the sections whose code or entry states changed.
//
// Two modes over the same machinery:
//
//  * compose_audit — every dynamic FI site x probe bit, exactly the
//    frame fault::audit_program uses, but executed and accounted
//    section-by-section. The composition rule is a fold: sections
//    partition the dynamic site stream (checked, not assumed), each
//    probe's outcome is classified against the same golden run audit
//    uses, and the per-section counts sum to the whole-program counts —
//    so agreement with audit_program is 1.000 by construction, which
//    bench/analysis_compose_accuracy asserts on every workload x
//    technique.
//
//  * compose_campaign — sampled trials apportioned to sections by their
//    dynamic site counts (largest remainder), drawn from a per-section
//    seed over section-relative site indices, so a section's summary is
//    invariant under shifts of its absolute site ids — the property that
//    lets an unchanged section reuse its cached summary after an edit
//    moved it.
//
// Caching (incremental mode): when the lookup/store callbacks are set,
// each section's summary is stored under a `ferrum-section-v2` content
// key — section code SHA-256, a liveness-masked digest of the golden
// machine state at every one of the section's dynamic sites (see
// Engine::set_state_digest_sink), site/occurrence counts, the golden
// step budget, the probe/trial plan, and the adaptive stop rule. A warm hit is additionally
// validated against the summary's recorded dependencies — the SHA-256
// of every function the cached trials touched after their faults fired,
// and the golden state digest at every checkpoint boundary where a
// cached trial golden-rejoined, folded with the program's GPR read
// masks (vm::PredecodedProgram::gpr_read_mask) that decided the rejoin
// — and any mismatch is a miss (false misses only, so staleness cannot
// leak in; soundness is modulo 64-bit digest collisions, argued in
// DESIGN.md).
//
// Layering: like audit's prune hook, this consumes the section map as
// plain data (check::sections::SectionMap, built by ferrum_check) and
// reaches the cache through std::function callbacks, so ferrum_fault
// links neither ferrum_check nor ferrum_service. JSON export lives in
// telemetry/export.h with the other report converters.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/adaptive.h"
#include "masm/masm.h"
#include "vm/engine.h"
#include "vm/vm.h"

namespace ferrum::check::sections {
struct SectionMap;
}

namespace ferrum::fault {

struct ComposeOptions {
  /// Bit positions probed at each dynamic site (compose_audit; matches
  /// the fault::AuditOptions default).
  std::vector<int> probe_bits = {0, 1, 17, 63};
  /// Target sampled-trial total (compose_campaign). The per-section
  /// allocation quantizes the per-site rate to a power of two so each
  /// section's trial count depends only on its own dynamic site count
  /// (an incrementality requirement); the composed total tracks this
  /// value but is not exactly it.
  std::uint64_t trials = 1000;
  std::uint64_t seed = 0xfe44;
  int burst = 1;
  /// Adaptive stop rule (compose_campaign only; compose_audit rejects a
  /// non-zero target — the exhaustive frame has no sampling error to
  /// bound). Each section evaluates the rule over its OWN canonical trial
  /// order at power-of-two boundaries, so per-section budgets shrink
  /// independently and a section's stopped count stays a pure function of
  /// its key material — the invariant that keeps early-stopped summaries
  /// cacheable. Key material (ferrum-section-v2).
  double max_half_width = 0.0;
  vm::VmOptions vm;
  /// Worker threads — a result-invariant scheduling knob, excluded from
  /// cache keys by contract (the same contract cell_key documents for
  /// whole-program cells).
  int jobs = 1;
  /// Audit mode only: probe every Nth dynamic site (ids congruent to 0
  /// mod N), mirroring AuditOptions::site_stride so a strided compose
  /// and a strided audit sweep the identical frame and exact agreement
  /// stays meaningful at a fraction of the quadratic cost. 1 probes
  /// every site; > 1 is a validation-harness knob and rejects caching.
  int site_stride = 1;
  /// Content-addressed summary cache. Both must be set to enable
  /// caching; lookup returns the stored bytes or nullopt.
  std::function<std::optional<std::string>(const std::string& key)> lookup;
  std::function<void(const std::string& key, const std::string& bytes)> store;
};

/// One section's error-propagation summary: outcome counts over the
/// injections that land inside the section.
struct SectionSummary {
  int section = 0;
  std::string code_sha256;
  /// ferrum-section-v2 cache key (empty when caching is off).
  std::string key;
  std::uint64_t dynamic_sites = 0;
  std::uint64_t occurrences = 0;
  /// Trials the plan owed this section before adaptive stopping.
  std::uint64_t planned = 0;
  /// Injections this section accounts for (probes or sampled trials;
  /// == planned unless the stop rule fired). Deterministic: the stopped
  /// count is a function of the section's canonical trial order alone.
  std::uint64_t trials = 0;
  /// True when the stop rule fired strictly before `planned`.
  bool stopped_early = false;
  std::uint64_t detected = 0;
  std::uint64_t benign = 0;
  std::uint64_t crashed = 0;
  std::uint64_t sdc = 0;

  // --- Observability only (cache-state dependent, excluded from the
  // deterministic JSON so warm and cold runs export identical bytes) ---
  bool cached = false;
  std::uint64_t trials_executed = 0;
};

/// Whole-program composition of the per-section summaries.
struct ComposeReport {
  std::vector<SectionSummary> sections;  // section id order
  /// Golden-run dynamic site count (== sum of section dynamic_sites —
  /// the partition consistency check).
  std::uint64_t sites = 0;
  std::uint64_t golden_steps = 0;
  /// Composed whole-program counts: the fold over sections.
  std::uint64_t injections = 0;
  std::uint64_t detected = 0;
  std::uint64_t benign = 0;
  std::uint64_t crashed = 0;
  std::uint64_t sdc = 0;
  /// Composed adaptive accounting: planned/executed summed over sections,
  /// half-widths of the composed whole-program rates at the composed
  /// sample size. Deterministic (cache-state independent: a warm summary
  /// stores the same stopped count the cold run computed).
  AdaptiveStats adaptive;

  // --- Observability only ---
  std::uint64_t trials_executed = 0;  // engine trials actually run
  std::uint64_t warm_sections = 0;
  std::uint64_t cold_sections = 0;
  double wall_seconds = 0.0;
  vm::CheckpointTelemetry ckpt;
};

/// Inputs of one section's cache key. Exposed (with the material
/// renderer) so tests can pin the key format byte-for-byte.
struct SectionKeyInfo {
  std::string mode;  // "audit" | "campaign"
  std::string code_sha256;
  /// Hex fold of the golden state digests at the section's dynamic
  /// sites, in dynamic order.
  std::string state_digest;
  std::uint64_t dynamic_sites = 0;
  std::uint64_t occurrences = 0;
  /// Faulty trial step budget (faulty_step_budget(golden steps)) — ties
  /// the summary's timeout classification to the golden run length.
  std::uint64_t max_steps = 0;
  std::vector<int> probe_bits;  // audit mode
  std::uint64_t trials = 0;     // campaign mode: PLANNED budget (the
                                // stop rule consumes a prefix of it)
  std::uint64_t seed = 0;       // campaign mode
  int burst = 1;
  bool store_data = false;
  /// Adaptive stop rule target (campaign mode; 0 = full budget). Key
  /// material: a stopped summary covers a different trial prefix.
  double max_half_width = 0.0;
};

/// Versioned key material ("ferrum-section-v2\n...") and its SHA-256.
std::string section_key_material(const SectionKeyInfo& info);
std::string section_key(const SectionKeyInfo& info);

/// Exhaustive per-section audit + composition. Throws std::runtime_error
/// when the golden run fails or the sections do not partition the
/// dynamic site stream.
ComposeReport compose_audit(const masm::AsmProgram& program,
                            const check::sections::SectionMap& map,
                            const ComposeOptions& options = {});

/// Sampled per-section campaign + composition (the --incremental path).
ComposeReport compose_campaign(const masm::AsmProgram& program,
                               const check::sections::SectionMap& map,
                               const ComposeOptions& options = {});

}  // namespace ferrum::fault
