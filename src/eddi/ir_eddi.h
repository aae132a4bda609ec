// IR-level instruction duplication (the paper's IR-LEVEL-EDDI baseline)
// and the signature/edge-assertion variant the HYBRID baseline uses for
// comparisons and branches.
#pragma once

#include <cstdint>

#include "ir/ir.h"

namespace ferrum::eddi {

enum class IrEddiMode : std::uint8_t {
  /// Classic EDDI (Oh et al. / SWIFT-style): duplicate every duplicable
  /// instruction into a shadow dataflow; before each synchronisation point
  /// (store, conditional branch, call, return) compare the shadowed
  /// operands and branch to the detector on mismatch. Branch *direction*
  /// and backend-materialised instructions remain unprotected — this is
  /// the coverage gap the paper measures (Fig 10).
  kClassic,
  /// Signature-style protection of comparisons and branches only [13]:
  /// every icmp/fcmp is duplicated; compares feeding a conditional branch
  /// get per-edge assertion blocks (the duplicated condition is checked
  /// against the statically known edge value on both outgoing edges);
  /// standalone compares get an immediate value check. Used as the IR
  /// stage of HYBRID-ASSEMBLY-LEVEL-EDDI.
  kSignatureOnly,
};

struct IrEddiStats {
  std::uint64_t duplicated = 0;
  std::uint64_t checks = 0;
  std::uint64_t edge_assertions = 0;
};

/// Applies the pass in place. The module stays verifier-clean and
/// semantics-preserving (checks never fire without a fault).
IrEddiStats apply_ir_eddi(ir::Module& module, IrEddiMode mode);

}  // namespace ferrum::eddi
