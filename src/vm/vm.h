// MiniASM virtual machine: functional emulator + fault-injection hooks +
// a port/dependency timing model (see timing.h).
//
// Fault model (paper Sec II-A / IV-A2): a single bit flip in the
// destination of one dynamically sampled instruction. Each executed
// instruction contributes at most one fault-injection *site*, classified
// by what it writes:
//   kGprWrite        destination general-purpose register
//   kXmmWrite        destination SIMD register (written lane bits)
//   kFlagsWrite      RFLAGS producers (cmp / test / ucomisd / vptest)
//   kStoreData       value written to memory (mov-to-mem, push, call's
//                    return address)
//   kBranchDecision  conditional-jump resolution (the taken bit)
// A campaign first profiles the site count, then samples (site, bit)
// uniformly — one fault per run, exactly as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "masm/fault_site.h"
#include "masm/masm.h"
#include "vm/profile.h"
#include "vm/timing.h"

namespace ferrum::vm {

enum class ExitStatus : std::uint8_t {
  kOk,
  kDetected,      // a protection checker fired (DetectTrap)
  kTrapMemory,    // out-of-bounds access or stack overflow
  kTrapDivide,    // integer divide by zero / overflow
  kTrapSteps,     // step budget exhausted (livelock)
  kTrapInvalid,   // invalid jump target / return address / opcode use
};
constexpr int kExitStatusCount = static_cast<int>(ExitStatus::kTrapInvalid) + 1;

const char* exit_status_name(ExitStatus status);

/// The site taxonomy is shared with the static layers (check::SiteKind,
/// check::prune) via masm/fault_site.h so it cannot drift.
using FaultKind = masm::FaultSiteKind;

const char* fault_kind_name(FaultKind kind);

/// One planned fault: flip `burst` adjacent bits starting at `bit` of
/// dynamic FI site number `site`. burst=1 is the paper's single-bit
/// model; burst>1 models multi-bit upsets in one word (the paper's
/// stated future work).
struct FaultSpec {
  std::uint64_t site = 0;
  int bit = 0;
  int burst = 1;
};

/// Description of the site a fault actually landed on (for analysis).
struct FaultLanding {
  FaultKind kind = FaultKind::kGprWrite;
  masm::InstOrigin origin = masm::InstOrigin::kFromIR;
  masm::Op op = masm::Op::kMov;
  std::string function;
  /// Static coordinates of the instruction the fault landed on, so a
  /// dynamic escape can be keyed against the static coverage table
  /// (check::SiteRecord uses the same block/inst indices).
  int block = 0;
  int inst = 0;
};

struct VmOptions {
  std::uint64_t max_steps = 50'000'000;
  /// Arena size. Below 0x1000 (the unmapped first page) every run traps
  /// kTrapMemory before its first instruction.
  std::size_t memory_bytes = 1u << 24;
  /// Enumerate kStoreData fault sites. The paper's fault model injects
  /// into the *destination register* of instructions, and stores have
  /// none — so this is off by default; turning it on gives the extended
  /// fault model evaluated by bench/ablation_storedata.
  bool fault_store_data = false;
  /// Run the timing model alongside execution (adds ~2x cost).
  bool timing = false;
  TimingParams timing_params;
  /// Collect a VmProfile (instruction mix, site tallies, hot blocks)
  /// alongside execution — a few array increments per step.
  bool profile = false;
  /// Record the first `trace_limit` executed instructions (rendered text
  /// plus the value each wrote) into VmResult::trace — a debugging aid.
  std::size_t trace_limit = 0;
  /// Golden rejoin: a checkpointed faulty trial that, after its last
  /// fault has fired, reaches a golden checkpoint boundary in the golden
  /// state has a provably golden tail — the engine adopts the golden
  /// final result instead of re-executing it. The match is exact on pc,
  /// counters, flags, xmm, output and memory; GPRs are compared only on
  /// the bytes some instruction of the program can read
  /// (PredecodedProgram::gpr_read_mask). That is still result-exact: a
  /// byte no instruction reads cannot reach any later value, address,
  /// branch, output or return value, and later writes either overwrite
  /// it or (8-bit merges) leave it in place. Asserted byte-identical by
  /// tests; off only for engine-cost baselines. Ignored when no
  /// checkpoints are in play.
  bool golden_rejoin = true;
  /// Record which functions a trial's *post-fault* execution entered
  /// (VmResult::touched_functions) — the code a cached per-section
  /// summary depends on beyond the section itself. Off by default: the
  /// accounting costs a couple of branches on call/ret.
  bool track_touched_functions = false;

  /// Timing, profile or trace is on. Their state accumulates from the
  /// cold start and no checkpoint holds it, so a hooked run never
  /// restores a checkpoint or forks, and a hooked golden run captures
  /// none.
  bool hooked() const { return timing || profile || trace_limit != 0; }
};

struct VmResult {
  ExitStatus status = ExitStatus::kOk;
  std::vector<std::uint64_t> output;
  std::int64_t return_value = 0;
  /// Dynamic instructions executed.
  std::uint64_t steps = 0;
  /// Dynamic fault-injection sites encountered.
  std::uint64_t fi_sites = 0;
  /// Estimated cycles (only when VmOptions::timing).
  std::uint64_t cycles = 0;
  /// Per-port/per-origin cycle attribution and stall breakdown (only
  /// when VmOptions::timing).
  std::optional<TimingStats> timing_stats;
  /// Dynamic profile (only when VmOptions::profile).
  std::optional<VmProfile> profile;
  /// Set when a FaultSpec was supplied and its site was reached.
  bool fault_injected = false;
  std::optional<FaultLanding> fault_landing;
  /// Dynamic instruction index at which the (first) fault was injected;
  /// with `steps` at detection this gives the detection latency.
  std::uint64_t fault_step = 0;
  /// Execution trace (when VmOptions::trace_limit > 0): one line per
  /// executed instruction, "function/block: rendered-instruction".
  std::vector<std::string> trace;
  /// Bitmask of functions entered after the (first) fault fired, plus
  /// the function the fault landed in (when
  /// VmOptions::track_touched_functions). Bit i = function index i;
  /// bit 63 is an overflow bucket meaning "function 63 or beyond" —
  /// consumers must treat it as "possibly every function".
  std::uint64_t touched_functions = 0;
  /// Golden rejoin outcome of this trial (engine runs only): whether the
  /// tail was adopted from the golden summary, and the fi_sites count of
  /// the checkpoint boundary where the state matched.
  bool rejoined = false;
  std::uint64_t rejoin_site = 0;

  bool ok() const { return status == ExitStatus::kOk; }
};

/// Executes `main` of the program. If `fault` is given, injects that
/// single fault when its site is reached.
VmResult run(const masm::AsmProgram& program, const VmOptions& options = {},
             const FaultSpec* fault = nullptr);

/// Multi-fault execution: every spec fires at its own dynamic site
/// (independent-site double/triple faults — beyond the paper's model).
/// `fault_injected` reports whether at least one site was reached;
/// `fault_landing` describes the first.
VmResult run_multi(const masm::AsmProgram& program, const VmOptions& options,
                   const std::vector<FaultSpec>& faults);

/// Span-style overload: reads `fault_count` specs starting at `faults`
/// without copying them — campaign trials point into the pre-drawn spec
/// pool instead of materialising a fresh vector per trial.
VmResult run_multi(const masm::AsmProgram& program, const VmOptions& options,
                   const FaultSpec* faults, std::size_t fault_count);

}  // namespace ferrum::vm
