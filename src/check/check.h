// ferrum-check: a static dataflow verifier for the protection invariants
// that asm_protect / ir_eddi promise and the fault-injection audit probes
// dynamically.
//
// The checker runs a forward abstract interpretation over each function
// (worklist to fixpoint, per-block join) whose abstract state tracks, per
// location (GPR, XMM lane, flags, frame slot, global cell):
//   - a value number (width-sensitive: 64-bit, low-32 and low-8 views),
//     which encodes the master <-> duplicate shadow binding: a duplicate
//     is "fresh" exactly when it still carries the same value number as
//     its master;
//   - the static instruction that last wrote it (provenance for the
//     shared-producer and deferred-flags rules);
//   - the symbolic stack offset, when the value is rsp/rbp-derived
//     (requisition discipline, frame-slot tracking);
//   - the set of open *obligations* — one per VM fault-injection site —
//     whose corruption may still reside in the location.
//
// On top of the fixpoint it lints the protection structure (violations)
// and classifies every fault site the VM would enumerate (coverage):
//
//   violations — a malformed protection idiom that can never detect what
//     it claims to (stale check operands, an unguarded detect branch, an
//     unbalanced requisition, a trampoline assert contradicted by the
//     edge facts, ...). A well-formed protected program has none.
//
//   coverage — each (instruction, operand) fault site is kProtected
//     (a full-width check observes the written value on the straight-line
//     path), kBenign (the value provably dies unobserved), or
//     kUnprotected (corruption can reach a store, a call, a branch
//     decision, or escape the block unchecked). kUnprotected
//     over-approximates: every dynamically observed SDC site must lie
//     inside it (cross-validated by bench/analysis_static_coverage).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "masm/fault_site.h"
#include "masm/masm.h"
#include "telemetry/json.h"

namespace ferrum::check {

enum class ViolationKind {
  kStaleCheck,            // check compares values not provably master/dup
  kUnguardedDetect,       // detect branch not preceded by a valid check
  kDanglingCheck,         // check producer whose result is never consumed
  kInvalidEdgeAssert,     // trampoline assert unsupported by edge facts
  kSharedProducer,        // both branch captures derive from one producer
  kRequisitionImbalance,  // pop without matching requisition push
  kRequisitionClobber,    // original code touches a parked victim
  kRequisitionAcrossCall, // requisition window left open across a call
  kStackImbalance,        // rsp depth mismatch at a join or at ret
  kUninitSlotRead,        // protection load from a never-written slot
  kStrayProtectionJump,   // protection jcc not targeting the detect block
  kTrampolineFallthrough, // protection-only block falls off its end
};
const char* violation_kind_name(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  std::string function;
  int block = 0;  // block index within the function
  int inst = 0;   // instruction index within the block
  std::string message;
};

std::string to_string(const Violation& violation);

/// Same type as vm::FaultKind (masm/fault_site.h), so static and dynamic
/// artifacts key identically by construction; site_kind_name returns the
/// shared strings.
using SiteKind = masm::FaultSiteKind;
const char* site_kind_name(SiteKind kind);

enum class SiteStatus { kProtected, kBenign, kUnprotected };
const char* site_status_name(SiteStatus status);

struct SiteRecord {
  std::string function;
  int block = 0;
  int inst = 0;
  SiteKind kind = SiteKind::kGprWrite;
  masm::Op op = masm::Op::kMov;
  masm::InstOrigin origin = masm::InstOrigin::kFromIR;
  SiteStatus status = SiteStatus::kUnprotected;
  std::string operand;  // "%rax", "%xmm3", "flags", "mem", "branch"
  std::string reason;   // why the status was assigned
};

/// The options of check, prune, sections and flow alike.
struct AnalysisOptions {
  /// Enumerate kStoreData sites. Must mirror VmOptions::fault_store_data
  /// of the audit being cross-validated, or containment keys will drift.
  bool store_data_sites = false;
};

struct CheckReport {
  std::vector<Violation> violations;
  /// Block/inst order per function. A site in a block the fixpoint never
  /// reaches (it never enters a detect block) has no record.
  std::vector<SiteRecord> sites;
  bool store_data_sites = false;  // the options the report was built under
  std::uint64_t protected_sites = 0;
  std::uint64_t benign_sites = 0;
  std::uint64_t unprotected_sites = 0;

  bool clean() const { return violations.empty(); }
  std::uint64_t total_sites() const {
    return protected_sites + benign_sites + unprotected_sites;
  }
};

/// Throws std::runtime_error, naming the function, if a function's
/// fixpoint needs more than 1000 block walks per block to converge.
CheckReport check_program(const masm::AsmProgram& program,
                          const AnalysisOptions& options = {});

/// Deterministic JSON view: violation list, per-status counters, and the
/// full site table (unprotected sites always listed; protected/benign
/// summarised per kind).
telemetry::Json to_json(const CheckReport& report);

}  // namespace ferrum::check
