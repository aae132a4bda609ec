// Campaign *cells* — the unit of work the campaign service schedules and
// caches. A cell names a program (inline MiniC source or a Table II
// workload), a protection technique, a fault model and the worker count,
// i.e. everything run_campaign needs; this header also defines the
// canonical serialization the content-addressed result store hashes into
// a cache key.
//
// Cache-key contract (the load-bearing invariant of the service):
//   * every knob that can change a CampaignResult is key material —
//     technique (via the built program's printed text), trials, seed,
//     faults_per_run, burst, fault_store_data, prune, and the adaptive
//     stop rule (max_half_width): an early-stopped result covers a
//     different trial prefix, so it must never alias the full-budget one;
//   * jobs, the one result-invariant knob a cell carries, is EXCLUDED: it
//     only moves wall-clock (asserted down to byte-identical campaign
//     JSON by tests/test_engine.cpp), so a warm query with another jobs
//     value must still hit. The checkpoint stride is not a cell field:
//     the daemon prepares every golden run at fault::Golden's default.
// The material is versioned ("ferrum-cell-v2"): widening the fault model
// bumps the version instead of silently aliasing old entries (v1 -> v2
// added the max_half_width line).
#pragma once

#include <cstdint>
#include <string>

#include "fault/campaign.h"
#include "masm/masm.h"

namespace ferrum::fault {

/// A campaign cell as submitted to the service. Exactly one of `program`
/// (MiniC source text) and `workload` (Table II benchmark name) must be
/// non-empty; the service resolves `workload`/`scale` through
/// workloads::scaled and builds either through the pipeline under
/// `technique`.
struct CampaignCell {
  std::string program;             // inline MiniC source ("" = use workload)
  std::string workload;            // named workload ("" = use program)
  int scale = 1;                   // workloads::scaled factor (floor 1)
  std::string technique = "ferrum";  // none | ir-eddi | hybrid | ferrum

  // Fault model + sampling — all key material.
  int trials = 1000;
  std::uint64_t seed = 0xfe44u;
  int faults_per_run = 1;
  int burst = 1;
  bool store_data = false;  // VmOptions::fault_store_data
  bool prune = false;       // pilot-extrapolated campaign (ferrumc --prune)
  /// Adaptive stop rule (CampaignOptions::max_half_width): 0 = run the
  /// full budget; > 0 = stop when every outcome-rate Wilson half-width
  /// is pinned below the target. Key material — the rule changes which
  /// canonical prefix the result covers. Incompatible with prune.
  double max_half_width = 0.0;

  // Worker threads — result-invariant, never key material.
  int jobs = 1;
};

/// The campaign options a cell resolves to (vm knobs filled in; the
/// prune report, which needs the built program, stays with the caller).
CampaignOptions to_campaign_options(const CampaignCell& cell);

/// Stable content hash of the program as the fault model sees it: SHA-256
/// of the canonical printed MiniASM. Two sources that build to the same
/// assembly share golden runs, predecodes and finished cells.
std::string program_hash(const masm::AsmProgram& program);

/// Canonical, versioned key material for the result store: one
/// "key=value" line per result-affecting knob plus the program hash.
/// Human-readable on purpose — `ferrumc submit` prints it under -v and
/// the stability test pins its hash.
std::string cell_key_material(const CampaignCell& cell,
                              const std::string& program_sha256);

/// The cache key: sha256_hex(cell_key_material(...)).
std::string cell_key(const CampaignCell& cell,
                     const masm::AsmProgram& program);

/// Validates the parts of a cell that do not need a build: exactly one
/// program source, a known technique name, in-range counts.
/// Returns false with a description in `error`.
bool validate_cell(const CampaignCell& cell, std::string& error);

}  // namespace ferrum::fault
