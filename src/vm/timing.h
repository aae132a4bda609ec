// Port-and-dependency timing model.
//
// The paper measures wall-clock overhead on a Xeon; we substitute a small
// in-order-issue, out-of-order-completion model that captures the two
// microarchitectural effects FERRUM's design exploits:
//   1. *check amortisation* — hybrid EDDI pays one flag-writing xor and
//      one conditional branch per protected instruction, FERRUM pays one
//      vpxor+vptest+jne per four protected instructions;
//   2. *idle vector ports* — FERRUM's duplicate captures (movq/pinsrq to
//      XMM) issue on vector ports that scalar Rodinia-style code leaves
//      mostly idle, so they rarely compete with program instructions.
//
// Mechanics: each dynamic instruction becomes ready when its input
// registers/flags/memory cell are ready, issues at the first cycle with a
// free slot (issue width) and a free unit of its port class, and completes
// after a class latency. Absolute cycle counts are not comparable to real
// hardware; relative overheads are the experiment's output.
#pragma once

#include <cstdint>

#include "masm/cfg.h"
#include "masm/masm.h"

namespace ferrum::vm {

/// Execution port classes.
enum class PortClass : std::uint8_t {
  kAlu,     // scalar integer ALU / lea / setcc / moves
  kLoad,
  kStore,
  kBranch,  // taken and not-taken jumps, call/ret
  kVec,     // SIMD integer (movq/pinsr/vinsert/vpxor/vptest)
  kFp,      // scalar double add/sub/mul/cvt
  kDiv,     // integer & fp division, sqrt
};

constexpr int kPortClassCount = 7;

/// Stable lower-case name ("alu", "load", ...), used by telemetry.
const char* port_class_name(PortClass port);

/// Hard capacity of the per-class unit arrays below. TimingParams unit
/// counts are clamped into [1, kMaxUnitsPerClass] at TimingModel
/// construction — a params struct with e.g. alu_units = 9 must not index
/// past port_free_[.][8].
constexpr int kMaxUnitsPerClass = 8;

struct TimingParams {
  int issue_width = 4;
  // Units per port class (Skylake-like proportions).
  int alu_units = 4;
  int load_units = 2;
  int store_units = 1;
  int branch_units = 1;
  int vec_units = 2;
  int fp_units = 2;
  int div_units = 1;
  // Latencies in cycles.
  int lat_alu = 1;
  int lat_load = 4;
  int lat_store = 1;       // commit; forwarding latency applies to readers
  int lat_store_forward = 4;
  int lat_branch = 1;
  int lat_imul = 3;
  int lat_idiv = 24;
  int lat_fp = 4;
  int lat_fpdiv = 14;
  int lat_sqrt = 16;
  int lat_cvt = 4;
  int lat_vec_mov = 2;   // gpr<->xmm transfers, pinsrq
  int lat_vec_alu = 1;   // vpxor
  int lat_vptest = 3;
  int lat_call = 2;
};

/// Microarchitectural telemetry accumulated by the timing model: where
/// cycles went (per port class, split by instruction provenance) and why
/// instructions waited. This is what makes the paper's Sec IV mechanism
/// — FERRUM's checks riding idle vector ports while hybrid's scalar
/// checks contend for ALU/branch — measurable instead of asserted.
struct TimingStats {
  /// Dynamic instructions issued, by [port class][InstOrigin].
  std::uint64_t issues[kPortClassCount][masm::kInstOriginCount] = {};
  /// Execution latency cycles attributed, by [port class][InstOrigin].
  std::uint64_t latency_cycles[kPortClassCount][masm::kInstOriginCount] = {};
  /// Unit-busy cycles per class (1 per issue at unit throughput 1/cycle);
  /// divide by cycles() * units for average occupancy.
  std::uint64_t busy_cycles[kPortClassCount] = {};
  /// Stall attribution: cycles an instruction's issue slipped past its
  /// in-order fetch cycle, split by the binding constraint. Dependence
  /// waits are charged first; any further slip is a port wait. Issue-width
  /// waits count cycles the frontend (not the backend) was the limiter.
  std::uint64_t stall_dependence = 0;
  std::uint64_t stall_port = 0;
  std::uint64_t stall_issue_width = 0;
  /// Total instructions accounted (sum of issues).
  std::uint64_t instructions = 0;
};

/// What the timing model needs of one static instruction: its port
/// class and latency under the model's params, the registers and flags
/// it reads and writes (masm::use_def_of, as LiveSet bits 0-32), whether
/// it reads or writes memory, and its origin. A timing run computes one
/// per static instruction before it starts, so stepping an executed
/// instruction decodes nothing.
struct TimingRecord {
  masm::LiveSet use = 0;
  masm::LiveSet def = 0;
  std::int32_t latency = 0;
  PortClass port = PortClass::kAlu;
  masm::InstOrigin origin = masm::InstOrigin::kFromIR;
  bool reads_mem = false;
  bool writes_mem = false;
};

/// Incremental cycle estimator fed one executed instruction at a time by
/// the VM (as its record, with the memory cell it touched).
class TimingModel {
 public:
  /// Unit counts are clamped into [1, kMaxUnitsPerClass] and issue_width
  /// to >= 1; params() reports the values actually used.
  explicit TimingModel(const TimingParams& params);

  /// The record of `inst` under this model's params.
  TimingRecord record(const masm::AsmInst& inst) const;

  /// Accounts one dynamic instruction, given its record. `addr` is the
  /// 8-byte-aligned address of a memory access (0 when none).
  void step(const TimingRecord& rec, std::uint64_t addr);
  void step(const masm::AsmInst& inst, std::uint64_t addr) {
    step(record(inst), addr);
  }

  std::uint64_t cycles() const { return last_completion_; }
  const TimingStats& stats() const { return stats_; }
  const TimingParams& params() const { return params_; }

 private:
  PortClass classify(const masm::AsmInst& inst) const;
  int latency(const masm::AsmInst& inst) const;

  /// Register file of the dependence tracking: one ready cycle per
  /// LiveSet bit (GPRs 0-15, XMMs 16-31, FLAGS 32).
  static constexpr int kReadyBits = 33;

  TimingParams params_;
  // Units per port class, from params_.
  int units_[kPortClassCount] = {};
  // Ready cycle per architectural register and the flags, by LiveSet bit.
  std::uint64_t ready_[kReadyBits] = {};
  // Frontend fetch position (program order, issue_width per cycle): the
  // cycle the next instruction is fetched in and its slot in that cycle.
  std::uint64_t fetch_cycle_ = 0;
  int fetch_slot_ = 0;
  // Next-free cycle per execution unit, per port class.
  std::uint64_t port_free_[kPortClassCount][kMaxUnitsPerClass] = {};
  std::uint64_t last_completion_ = 0;
  TimingStats stats_;
  // Store-to-load forwarding: completion cycle per 8-byte cell (small
  // direct-mapped table to bound memory).
  static constexpr int kMemTableSize = 4096;
  std::uint64_t mem_ready_[kMemTableSize] = {};
  std::uint64_t mem_tag_[kMemTableSize] = {};
};

}  // namespace ferrum::vm
