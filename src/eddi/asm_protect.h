// Assembly-level EDDI engine. This is the paper's contribution (FERRUM)
// plus, with SIMD and branch protection disabled, the plain
// HYBRID-ASSEMBLY-LEVEL-EDDI baseline's assembly stage.
//
// Protection mechanisms (paper Sec III-B):
//  * GENERAL-INSTRUCTIONS (read-modify-write ALU ops, FP ops): seed a
//    scratch register with the old destination, re-execute, xor-compare,
//    jne detect (Fig 4).
//  * SIMD-ENABLED-INSTRUCTIONS (non-RMW register writes: loads, moves,
//    movsx/movzx, lea, setcc, cvttsd2si, pop): capture original and
//    duplicate results into XMM lanes; every 4 sites, shift into YMM and
//    compare with one vpxor+vptest+jne (Fig 6). Disabled -> immediate
//    xor-compare per site.
//  * Comparison/branch clusters (cmp/test/ucomisd + jcc): duplicate the
//    flag producer, capture both conditions with setcc (deferred
//    detection, Fig 5), split both outgoing edges and assert the captured
//    conditions against the statically known edge value.
//  * Stores: load-back compare against the (already protected) source.
//  * Pops and register restores: compare against the stack copy that is
//    still in memory.
//  * Register scarcity: spare registers are discovered by a whole-function
//    usage scan (Fig 3 step 1); when none are spare, registers are
//    requisitioned around each protection site with verified push/pop
//    (Fig 7), and condition captures fall back to protection frame slots.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "masm/masm.h"

namespace ferrum::eddi {

/// One protectable site as offered to the selection machinery: ordinal is
/// a program-wide counter advanced in deterministic program order
/// (functions, blocks, instructions), so it is stable across runs and
/// identical between enumerate_protectable_sites and the protecting run.
/// `inst` is the site's first original instruction (the flag producer for
/// materialised-compare and branch clusters).
struct ProtectSiteRef {
  int ordinal = 0;
  int function = 0;
  int block = 0;
  int inst = 0;
  /// Materialised-compare or terminator branch cluster (two+ original
  /// instructions guarded by one selection decision).
  bool cluster = false;
};

/// Per-site selection callback: return true to protect the site. Called
/// exactly once per protectable site, in ordinal order.
using ProtectSelector = std::function<bool(const ProtectSiteRef&)>;

struct AsmProtectOptions {
  /// Batch duplicate/original results in XMM/YMM registers (FERRUM).
  /// Off = immediate xor+jne per site (HYBRID's AS_1 style).
  bool use_simd = true;
  /// Protect compare+branch clusters at assembly level (FERRUM). HYBRID
  /// turns this off because its IR stage already protects them.
  bool protect_branches = true;
  /// Sites accumulated per SIMD check flush (1, 2 or 4). 4 uses the
  /// YMM-combining sequence of the paper's Fig 6.
  int simd_batch = 4;
  /// Fraction of protectable sites actually protected, in [0, 1].
  /// 1.0 = full FERRUM; lower values trade coverage for overhead
  /// (selective-protection literature, e.g. SDCTune). Sites are selected
  /// deterministically by an error-diffusion counter, so the choice is
  /// stable across runs.
  double coverage_ratio = 1.0;
  /// Ignore the whole-function spare-register scan and force the
  /// scarce-register fallbacks everywhere: condition captures go to
  /// protection-frame slots and duplicates use dead/requisitioned
  /// registers (paper Sec III-B4). For the ablation of that design.
  bool force_stack_redundancy = false;
  /// Verify stored data by load-back comparison. The paper's fault model
  /// never corrupts store data (stores have no destination register), so
  /// this is off by default; pair with VmOptions::fault_store_data for
  /// the extended-model ablation.
  bool protect_store_data = false;
  /// When set, overrides coverage_ratio: consulted once per protectable
  /// site in ordinal order. Drives analysis-guided selective protection
  /// (pipeline::plan_selective); must be deterministic for reproducible
  /// builds.
  ProtectSelector selector;
};

struct AsmProtectStats {
  std::uint64_t skipped_sites = 0;    // left unprotected by coverage_ratio
  std::uint64_t simd_sites = 0;       // sites captured into XMM lanes
  std::uint64_t general_sites = 0;    // immediate xor-checked sites
  std::uint64_t store_checks = 0;
  std::uint64_t compare_clusters = 0; // protected cmp/jcc clusters
  std::uint64_t edge_blocks = 0;
  std::uint64_t flushes = 0;
  std::uint64_t requisitions = 0;     // push/pop register borrowings
  std::uint64_t functions_with_spare_gprs = 0;
  std::uint64_t functions_with_spare_xmms = 0;
  std::uint64_t functions_total = 0;
  std::uint64_t unprotected_sites = 0;  // should stay 0; audited by tests
};

/// Applies the protection in place. The program must follow the backend's
/// structural conventions (explicit terminator clusters, flags never live
/// across blocks).
AsmProtectStats protect_asm(masm::AsmProgram& program,
                            const AsmProtectOptions& options = {});

/// Enumerates the protectable sites protect_asm would offer to the
/// selector under `options`, in ordinal order, without modifying
/// `program` (runs the pass on a scratch copy with a recording selector;
/// ordinal assignment is independent of selection outcomes).
std::vector<ProtectSiteRef> enumerate_protectable_sites(
    const masm::AsmProgram& program, const AsmProtectOptions& options = {});

}  // namespace ferrum::eddi
