// The fault-injection site taxonomy shared by every layer that talks
// about sites: the VM's dynamic enumeration (vm::FaultKind), the static
// protection verifier (check::SiteKind), and the liveness/equivalence
// pruner (check::prune). Historically vm and check each declared a
// hand-mirrored copy of this enum ("Mirrors vm::FaultKind"); one header
// means a new classification cannot drift between layers.
//
// `static_site_of` is the static mirror of Engine::exec's fault hooks: it
// answers, for one MiniASM instruction, which site (if any) one executed
// instance registers and how many bit positions are injectable there.
// tests/test_prune.cpp cross-validates it against the VM's dynamic
// enumeration on every workload.
#pragma once

#include <cstdint>

#include "masm/masm.h"

namespace ferrum::masm {

/// What a fault-injection site writes (paper Sec II-A / IV-A2). The
/// integer values are pinned: dense tables (vm::VmProfile::site_counts)
/// and serialized artifacts index by them.
enum class FaultSiteKind : std::uint8_t {
  kGprWrite,        // destination general-purpose register
  kXmmWrite,        // destination SIMD register (written lane bits)
  kFlagsWrite,      // RFLAGS producers (cmp / test / ucomisd / vptest)
  kStoreData,       // value written to memory (enabled by fault_store_data)
  kBranchDecision,  // conditional-jump resolution (the taken bit)
};
constexpr int kFaultSiteKindCount = 5;

static_assert(static_cast<int>(FaultSiteKind::kGprWrite) == 0 &&
                  static_cast<int>(FaultSiteKind::kXmmWrite) == 1 &&
                  static_cast<int>(FaultSiteKind::kFlagsWrite) == 2 &&
                  static_cast<int>(FaultSiteKind::kStoreData) == 3 &&
                  static_cast<int>(FaultSiteKind::kBranchDecision) == 4,
              "FaultSiteKind values are pinned: profile tables and bench "
              "artifacts index by them");

/// Stable names ("gpr-write", ...) used identically by static and dynamic
/// artifacts so their keys match by construction.
const char* fault_site_kind_name(FaultSiteKind kind);

/// Static description of the site one executed instance of an instruction
/// registers. `bit_space` is the number of distinct injectable bit
/// positions: a sampled FaultSpec::bit lands on effective position
/// `bit % bit_space` (the VM's burst_mask / lane arithmetic), so two
/// probe bits congruent mod bit_space are the same physical flip.
struct StaticSiteInfo {
  bool has_site = false;
  FaultSiteKind kind = FaultSiteKind::kGprWrite;
  /// 64 for GPR, 4 for flags (zf/sf/of/cf), 64*lane_count for XMM,
  /// 8*store width for store-data, 1 for branch decisions (the VM flips
  /// the taken bit whatever the sampled bit is).
  int bit_space = 64;
  /// kGprWrite: the destination register (the flip applies to the full
  /// merged 64-bit value, even for 1- and 4-byte writes).
  Gpr reg = Gpr::kNone;
  /// kXmmWrite: destination register and the written 64-bit lane span.
  int xmm = -1;
  int lane_base = 0;
  int lane_count = 0;
  /// kStoreData: store width in bytes.
  int store_width = 8;
};

/// Mirrors Engine::exec exactly. `store_data` mirrors
/// VmOptions::fault_store_data. `call_pushes_ret` matters only for kCall:
/// the return-address push is a store site unless the callee is a print
/// builtin (handled before the push) or unresolved (traps before it).
StaticSiteInfo static_site_of(const AsmInst& inst, bool store_data,
                              bool call_pushes_ret = true);

/// The `call_pushes_ret` argument for an instruction of `program`, with
/// the callee resolved as the decoder does (builtins first).
bool call_pushes_ret(const AsmProgram& program, const AsmInst& inst);

}  // namespace ferrum::masm
