// ferrum-prune: static fault-site liveness & equivalence analysis that
// collapses the injection space (FastFlip-style, see PAPERS.md).
//
// Two results per VM fault site:
//
//  1. A *dead-bit mask* from a backward, bit-granular register/flag
//     liveness analysis. Bit b of a site is dead when flipping it in the
//     value the instruction writes provably cannot change architectural
//     outcome (status, output, return value, steps, fi_sites). Dead
//     probes are counted as benign without ever being injected. The
//     soundness argument (DESIGN.md "prune") rests on three pillars:
//     every architectural observation (memory address, store value,
//     branch flag, print argument, main's %rax) is a *use*; stores
//     conservatively keep their full source live (memory round trips are
//     captured at the store, so kills by later loads are sound); and
//     interprocedural flow is summarised per callee (may-read gen set +
//     may-pass-through set) over a bottom-up fixpoint, with a top-down
//     return-liveness pass seeding main's exit with {%rax}. Liveness is
//     one domain on the backward dataflow driver flow shares
//     (check/dataflow.h), which owns the solves and both fixpoints.
//
//  2. An *equivalence class* for the remaining live sites: sites whose
//     corrupted value reaches the same consumer chain — same relative
//     dataflow slice up to the first sync point (store, branch, call,
//     ret, detect trap) — with the same kind, bit space and dead mask
//     share a class. fault::audit_program / run_campaign in prune mode
//     inject one *pilot* per (class, effective bit[, temporal stratum])
//     and extrapolate the rest with exact cardinality accounting;
//     bench/analysis_prune_accuracy cross-validates against the
//     exhaustive audit.
//
// Contract vs. the PR 3 verifier: check_program over-approximates
// *unprotectedness* (one-directional: every dynamic SDC lies in its
// kUnprotected set); prune over-approximates *liveness* — a bit it calls
// dead is dead, a bit it calls live may still be harmless. The two do not
// consume each other's results.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/check.h"
#include "masm/fault_site.h"
#include "masm/masm.h"
#include "telemetry/json.h"

namespace ferrum::check::prune {

/// class_id of a site whose every injectable bit is dead: it needs no
/// pilot at all.
constexpr std::uint32_t kDeadClass = 0xffff'ffffu;

struct PruneSite {
  /// Static coordinates (function / block / instruction index), matching
  /// vm::DecodedInst and check::SiteRecord.
  int function = 0;
  int block = 0;
  int inst = 0;
  masm::FaultSiteKind kind = masm::FaultSiteKind::kGprWrite;
  /// Distinct injectable bit positions (see masm::StaticSiteInfo); a
  /// sampled FaultSpec::bit lands on effective position bit % bit_space.
  int bit_space = 64;
  /// Bit b (over [0, bit_space)) set => flipping effective position b is
  /// provably outcome-neutral. 4 words cover the ymm maximum (256 bits).
  std::array<std::uint64_t, 4> dead_mask{};
  /// Live-site equivalence class, or kDeadClass when fully dead.
  std::uint32_t class_id = kDeadClass;

  bool bit_dead(int bit) const {
    const int eff = bit % bit_space;
    return (dead_mask[eff >> 6] >> (eff & 63)) & 1;
  }
  /// A burst flip is dead only when every covered position is dead
  /// (positions wrap within bit_space, mirroring vm burst_mask).
  bool flip_dead(int bit, int burst) const {
    for (int i = 0; i < burst; ++i) {
      if (!bit_dead(bit + i)) return false;
    }
    return true;
  }
  bool fully_dead() const { return class_id == kDeadClass; }
  int dead_bits() const {
    int count = 0;
    for (int b = 0; b < bit_space; ++b) count += bit_dead(b) ? 1 : 0;
    return count;
  }
};

struct PruneClass {
  std::uint32_t id = 0;
  /// Propagation signature the class was keyed on (kind, bit space, dead
  /// mask, relative consumer slice up to the sync point).
  std::string signature;
  /// Static sites in the class.
  std::uint32_t static_members = 0;
  /// Index into PruneReport::sites of the first member (program order).
  std::uint32_t representative = 0;
};

struct PruneReport {
  /// Program order: functions in order, blocks in order, instructions in
  /// order — exactly the order the VM would first meet them statically.
  std::vector<PruneSite> sites;
  std::vector<PruneClass> classes;  // indexed by class id

  bool store_data_sites = false;
  std::uint64_t fully_dead_sites = 0;
  std::uint64_t dead_bits = 0;   // summed over sites' bit spaces
  std::uint64_t total_bits = 0;  // summed bit spaces

  /// sites index for static coordinates, -1 when that instruction
  /// registers no fault site. Indexed [function][block][inst]; inline so
  /// fault::audit/campaign can consume the report without linking
  /// ferrum_check (the telemetry layer links fault back into check).
  int site_index(int function, int block, int inst) const {
    const auto& blocks = site_at_[static_cast<std::size_t>(function)];
    return blocks[static_cast<std::size_t>(block)]
                 [static_cast<std::size_t>(inst)];
  }
  const PruneSite* find(int function, int block, int inst) const {
    const int index = site_index(function, block, inst);
    return index < 0 ? nullptr : &sites[static_cast<std::size_t>(index)];
  }

  double dead_fraction() const {
    return total_bits == 0
               ? 0.0
               : static_cast<double>(dead_bits) / static_cast<double>(total_bits);
  }

  std::vector<std::vector<std::vector<std::int32_t>>> site_at_;
};

/// Runs the liveness + equivalence analysis over every site
/// masm::static_site_of enumerates. Deterministic: depends only on the
/// program and options.
PruneReport prune_program(const masm::AsmProgram& program,
                          const AnalysisOptions& options = {});

/// Deterministic JSON view: summary counters, class table, and the full
/// site table (function/block/inst, kind, bit space, dead mask, class).
telemetry::Json to_json(const PruneReport& report,
                        const masm::AsmProgram& program);

}  // namespace ferrum::check::prune
