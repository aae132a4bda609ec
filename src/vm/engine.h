// Snapshot/fast-forward execution engine.
//
// Two pieces, both shared across every trial of a fault-injection
// campaign:
//
//  * PredecodedProgram — a flat, dense decoding of an AsmProgram with
//    pre-resolved branch/call targets and operand forms, so the
//    interpreter's inner loop does zero hash lookups (`labels.find` per
//    jump in the old VM), its bare instance reads no Operand, and the
//    decode work is paid once per campaign instead of per run.
//
//  * CheckpointSet — VM snapshots captured during the golden profiling
//    run every `stride` dynamic fault-injection sites: registers, flags,
//    control position, steps/site counters, output prefix, and memory as
//    a sparse table of copy-on-write 4 KiB pages (one entry per page
//    written since the cold start; only pages dirtied since the previous
//    checkpoint are copied). The engine keeps the pages dirtied since
//    its last restore or capture and the pages with provenance as lists,
//    so capture, restore and the rejoin compare walk those lists and the
//    target's entries, never the whole arena.
//
// Every faulty trial runs on the golden walk (Engine::walk): a worker's
// trials in fault-site order share one fault-free walk through the
// golden stream, restored from the nearest checkpoint at-or-before a
// trial's first fault site whenever the walk is not already there, and
// each trial executes only its suffix from its fork point.
//
// Determinism contract (asserted by tests/test_engine.cpp, not just
// claimed): a fast-forwarded trial is bit-identical to cold execution —
// status, output, return_value, steps, fi_sites, fault_step and
// fault_landing all match, for every stride and worker count. The
// argument: the VM is deterministic and a fault at site F leaves the
// prefix before F untouched, so the golden-run state at any site S <= F
// equals the cold trial's state at S; restoring it and running the
// suffix replays exactly the cold instruction stream.
//
// Thread-safety: PredecodedProgram and CheckpointSet are immutable after
// construction/capture and may be shared read-only across ThreadPool
// workers. Engine holds the mutable scratch (arena, registers, dirty
// tracking) and must be per-worker.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "masm/masm.h"
#include "vm/vm.h"

namespace ferrum::vm {

/// Dispatch tag of one predecoded instruction. Values below
/// masm::kOpCount are the instruction's own Op, executed singly; the
/// remaining tags mark the end-of-function sentinel, decode-rejected
/// operands, and the fused superinstruction pairs of the interpreter
/// loop. Tags are part of the decode, so the fusion decision is paid
/// once per campaign, never per trial.
enum : std::uint8_t {
  kTagSentinel = static_cast<std::uint8_t>(masm::kOpCount),
  /// An operand the VM does not define: a width other than 1, 4 or 8
  /// bytes on a reg/mem operand (notably the 2-byte width the decoder
  /// rejects loudly instead of silently reading the full 64-bit
  /// register), or a non-register operand where the instruction reads or
  /// writes a general-purpose register (masm::gpr_operands_ok; such an
  /// operand's register field is one past the register file). Executing
  /// it traps kTrapInvalid after counting the step, like any other
  /// invalid opcode use.
  kTagInvalid,
  /// Fused cmp+jcc: the dominant decode pair (flags producer feeding the
  /// conditional jump one instruction later). One dispatch executes
  /// both; FI-site numbering, step counting and trap order are exactly
  /// those of the unfused pair.
  kTagCmpJcc,
  /// Fused mov+alu (the profiler's load+op pair): a mov whose successor
  /// is a two-address integer ALU op. Same exactness contract.
  kTagMovAlu,
  kTagCount,
};

/// Operand-form tags: DecodedInst::form values from kFormFirst up name
/// the bare loop's specialised handlers, one per opcode and operand form
/// (register, immediate, memory or XMM operands at a fixed width), so the
/// bare loop reads no Operand. operand_form_count() of them follow
/// kFormFirst; operand_form_name() names one for diagnostics.
constexpr int kFormFirst = kTagCount;
int operand_form_count();
const char* operand_form_name(int form);

/// One predecoded instruction. `inst` points into the source AsmProgram,
/// which must outlive the PredecodedProgram.
struct DecodedInst {
  /// Null marks the end-of-function sentinel: control falling past the
  /// last block of a function traps (kTrapInvalid) without counting a
  /// step, exactly like the old per-block interpreter.
  const masm::AsmInst* inst = nullptr;
  /// Operands resolved for the operand form: the immediate, and the
  /// memory operand's displacement with its global's address folded in.
  std::int64_t imm = 0;
  std::int64_t disp = 0;
  /// kJmp/kJcc: flat index of the target block's first instruction;
  /// -1 when the label does not resolve (traps at execution).
  std::int32_t target_pc = -1;
  /// kCall: callee function index, kCalleePrintInt/kCalleePrintF64 for
  /// the output builtins, or -1 for an unknown callee (traps).
  std::int32_t callee = -1;
  /// Static coordinates (function / block / instruction-in-block), used
  /// for fault landings, trace rendering and return-address encoding.
  std::int32_t fidx = 0;
  std::int32_t bidx = 0;
  std::int32_t iidx = 0;
  /// Per-opcode dispatch tag (see the enum above): the hooked loop
  /// dispatches on it, to the generic handlers.
  std::uint8_t tag = kTagSentinel;
  /// The bare loop's dispatch tag: an operand-form tag (kFormFirst and
  /// up) when predecode resolved the instruction's operand form, else
  /// `tag` (shapes no compiler pass emits run the generic handler).
  std::uint8_t form = kTagSentinel;
  /// Operand form fields: the GPR or XMM number of each register operand
  /// by operand position; the memory operand's base register (counted
  /// only when base_on is 1), index register and scale (0 without an
  /// index); and the condition of a jcc or setcc.
  std::uint8_t reg[3] = {0, 0, 0};
  std::uint8_t base = 0;
  std::uint8_t base_on = 0;
  std::uint8_t index = 0;
  std::uint8_t scale = 0;
  std::uint8_t cc = 0;
};

constexpr std::int32_t kCalleePrintInt = -2;
constexpr std::int32_t kCalleePrintF64 = -3;

class PredecodedProgram {
 public:
  explicit PredecodedProgram(const masm::AsmProgram& program);

  const masm::AsmProgram& source() const { return *program_; }
  const std::vector<DecodedInst>& code() const { return code_; }
  /// Flat pc of function `f`'s entry (its first block, or its sentinel
  /// when the function has no blocks).
  std::int32_t entry_pc(int f) const { return func_entry_pc_[static_cast<std::size_t>(f)]; }
  /// Flat pc of block `b`'s first instruction in function `f`. Index
  /// `blocks.size()` is valid and names the function's sentinel.
  std::int32_t block_pc(int f, int b) const {
    return block_base_pc_[static_cast<std::size_t>(f)][static_cast<std::size_t>(b)];
  }
  int function_count() const { return static_cast<int>(func_entry_pc_.size()); }
  int block_count(int f) const {
    return static_cast<int>(block_base_pc_[static_cast<std::size_t>(f)].size()) - 1;
  }
  /// Index of `main`, -1 when absent (running such a program traps).
  int main_index() const { return main_index_; }
  /// The bytes of `reg` that some instruction of the program can read,
  /// as a mask over the 64-bit register value: the union, over every
  /// instruction masm::effects_of lists as reading `reg`, of the register
  /// operand widths (0xff for a byte read, 0xffffffff for a 32-bit one),
  /// or the full register for address registers and implicit reads (the
  /// stack pointer of push/pop/call/ret, a call's argument registers,
  /// ret's return and callee-saved registers). %rax is always full: the
  /// exit reads it as the return value. A merging narrow write (setcc
  /// %r10b) reads nothing. Golden rejoin compares GPRs under this mask.
  std::uint64_t gpr_read_mask(masm::Gpr reg) const {
    return gpr_read_mask_[static_cast<std::size_t>(reg)];
  }
  /// Arena address of each global: from 0x1000, each 16-byte aligned and
  /// laid out in declaration order. An Engine whose arena cannot hold
  /// them in its lower half traps at the cold start.
  const std::vector<std::uint64_t>& global_addrs() const {
    return global_addr_;
  }

 private:
  const masm::AsmProgram* program_;
  std::vector<DecodedInst> code_;
  std::vector<std::uint64_t> global_addr_;
  std::vector<std::int32_t> func_entry_pc_;
  /// Per function: block start pcs plus one trailing entry for the
  /// end-of-function sentinel.
  std::vector<std::vector<std::int32_t>> block_base_pc_;
  int main_index_ = -1;
  std::array<std::uint64_t, masm::kGprCount> gpr_read_mask_{};
};

// ---------------------------------------------------------------- pages --

/// Copy-on-write page granularity: 4 KiB, the size the arena is mapped
/// in. Page tables are sparse, so their size follows the pages a program
/// wrote rather than memory_bytes / page size, and a smaller page makes
/// every copy, zero and compare of a touched page move fewer bytes.
constexpr int kCkptPageBits = 12;
constexpr std::size_t kCkptPageSize = std::size_t{1} << kCkptPageBits;

struct PageImage {
  std::uint8_t bytes[kCkptPageSize];
};

/// One entry of a checkpoint's sparse page table.
struct PageEntry {
  std::size_t page = 0;
  std::shared_ptr<const PageImage> image;
};

/// One golden-run snapshot. Everything the VM needs to resume from an
/// instruction boundary: architectural state, control position, counters
/// and the output prefix. Memory is a sparse page table, ascending by
/// page index, holding the content at capture time of every page that
/// has been written since the cold start; a page it does not hold is
/// all-zero. Pages not dirtied between checkpoints share the same
/// PageImage.
struct Checkpoint {
  std::int32_t pc = 0;
  std::uint64_t steps = 0;
  std::uint64_t fi_sites = 0;
  std::uint64_t gpr[masm::kGprCount] = {};
  std::uint64_t xmm[masm::kXmmCount][4] = {};
  bool zf = false, sf = false, of = false, cf = false;
  std::vector<std::uint64_t> output;
  std::vector<PageEntry> pages;
};

/// Final state of the golden (fault-free) run, recorded by
/// run_capturing alongside the checkpoints. Lets a faulty trial whose
/// state re-converges to a golden checkpoint skip the provably-identical
/// tail and adopt this result directly (see Engine's golden rejoin).
struct GoldenSummary {
  bool valid = false;
  std::uint64_t steps = 0;
  std::uint64_t fi_sites = 0;
  std::int64_t return_value = 0;
  std::vector<std::uint64_t> output;
};

class CheckpointSet {
 public:
  /// Live checkpoints are capped: when the count exceeds this, every
  /// other checkpoint is dropped and the stride doubles (deterministic —
  /// the decision depends only on the golden instruction stream).
  static constexpr std::size_t kMaxLiveCheckpoints = 512;
  /// Page-copy budget; crossing it also triggers thinning.
  static constexpr std::uint64_t kPageBudgetBytes = 48ull << 20;

  CheckpointSet();

  bool empty() const { return checkpoints_.empty(); }
  std::size_t size() const { return checkpoints_.size(); }
  /// Effective stride after thinning (>= the requested stride).
  std::uint64_t stride() const { return stride_; }
  /// Bytes held by live page copies.
  std::uint64_t page_bytes() const;
  /// Bytes held by the live checkpoints' page tables.
  std::uint64_t table_bytes() const;
  /// page_bytes() + table_bytes().
  std::uint64_t snapshot_bytes() const { return page_bytes() + table_bytes(); }
  /// The latest checkpoint with fi_sites <= site (always defined once
  /// capture ran: checkpoint 0 sits at site 0).
  const Checkpoint& nearest_at_or_before(std::uint64_t site) const;
  /// The earliest checkpoint with fi_sites > site, or null when none —
  /// the next golden boundary ahead of a running trial, where the rejoin
  /// comparison happens.
  const Checkpoint* next_after(std::uint64_t site) const;
  /// Golden final state (valid only after a clean run_capturing).
  const GoldenSummary& summary() const { return summary_; }

  // Capture-side interface (Engine::run_capturing only).
  void begin(std::uint64_t stride);
  void add(Checkpoint checkpoint);
  void set_summary(GoldenSummary summary) { summary_ = std::move(summary); }
  std::shared_ptr<const PageImage> make_page(const std::uint8_t* bytes,
                                             std::size_t size);

 private:
  void thin();

  std::vector<Checkpoint> checkpoints_;
  GoldenSummary summary_;
  std::uint64_t stride_ = 0;
  std::size_t table_entries_ = 0;
  /// Owned by page deleters so frees during thinning are accounted even
  /// after this set is gone.
  std::shared_ptr<std::atomic<std::uint64_t>> live_page_bytes_;
};

/// Fast-forward accounting, summed across a campaign's worker engines.
/// Deterministic for a fixed program/seed/stride (which checkpoint each
/// trial restores does not depend on scheduling), but stride-dependent —
/// so it is reported under the wallclock/observability section of the
/// bench artifacts, keeping the metrics sections byte-identical across
/// the strides the tests cross (fault::Golden's argument).
struct FastForwardStats {
  // The ledger of the golden walk (Engine::walk). The walk interprets
  // the fault-free golden stream from a restored checkpoint or the cold
  // start up to each run's fork point, the instruction boundary where
  // fi_sites reaches the run's first fault site; walk_steps counts those
  // steps once, shared by every run that forks off them. A run then
  // interprets its own steps from its fork point: steps_executed ==
  // prefix_steps + post_fault_steps, split at its first fault. Its steps
  // before the fork point and the golden tail it adopted by rejoining
  // count under steps_skipped, so steps_skipped + steps_executed sums the
  // runs' steps.
  std::uint64_t trials = 0;         // runs finished by this engine
  std::uint64_t restores = 0;       // checkpoints the walk restored
  std::uint64_t forks = 0;          // runs forked off the walk
  std::uint64_t walk_steps = 0;     // golden-walk steps to fork points
  std::uint64_t steps_skipped = 0;  // run steps not interpreted by the run
  std::uint64_t steps_executed = 0; // run steps interpreted from the fork
  // Trials whose state re-converged to a golden checkpoint after the
  // last fault fired, so the remaining tail was adopted from the golden
  // summary instead of re-executed. Those elided steps count under
  // steps_skipped.
  std::uint64_t rejoins = 0;
  // prefix_steps run from the fork point up to and including the
  // faulting instruction; a run whose fault never fired is all prefix.
  // unrejoined_halts counts the faulted runs that reached halt without
  // rejoining — they interpreted their whole suffix — and
  // unrejoined_halt_steps is their share of post_fault_steps.
  std::uint64_t prefix_steps = 0;
  std::uint64_t post_fault_steps = 0;
  std::uint64_t unrejoined_halts = 0;
  std::uint64_t unrejoined_halt_steps = 0;
  // Checkpoint traffic: page bytes copied or zeroed by checkpoint
  // restores and cold starts, rejoin comparisons run, and the page bytes
  // those comparisons checked byte by byte (pages whose provenance
  // already equals the golden page are not read).
  std::uint64_t restore_bytes = 0;
  std::uint64_t compares = 0;
  std::uint64_t compare_bytes = 0;
  // Exit-kind ledger: finished runs per ExitStatus, so they sum to
  // trials (count_exit bumps both).
  std::array<std::uint64_t, kExitStatusCount> exits{};

  /// Records one finished run and how it ended.
  void count_exit(ExitStatus status) {
    trials += 1;
    exits[static_cast<std::size_t>(status)] += 1;
  }

  void merge(const FastForwardStats& other) {
    trials += other.trials;
    restores += other.restores;
    forks += other.forks;
    walk_steps += other.walk_steps;
    steps_skipped += other.steps_skipped;
    steps_executed += other.steps_executed;
    rejoins += other.rejoins;
    prefix_steps += other.prefix_steps;
    post_fault_steps += other.post_fault_steps;
    unrejoined_halts += other.unrejoined_halts;
    unrejoined_halt_steps += other.unrejoined_halt_steps;
    restore_bytes += other.restore_bytes;
    compares += other.compares;
    compare_bytes += other.compare_bytes;
    for (std::size_t i = 0; i < exits.size(); ++i) exits[i] += other.exits[i];
  }
  /// Fraction of would-be-cold work skipped: skipped / (skipped + executed).
  double ratio() const {
    const double total =
        static_cast<double>(steps_skipped) + static_cast<double>(steps_executed);
    return total > 0.0 ? static_cast<double>(steps_skipped) / total : 0.0;
  }
};

/// Checkpoint telemetry surfaced by campaigns/audits in the BENCH
/// artifacts' wallclock (observability) section.
struct CheckpointTelemetry {
  /// Effective capture stride after thinning; 0 = cold execution (no
  /// checkpoints captured, or hooked trials that need the full prefix).
  int stride = 0;
  std::uint64_t checkpoints = 0;
  /// CheckpointSet::page_bytes / table_bytes / snapshot_bytes (their sum).
  std::uint64_t page_bytes = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  FastForwardStats ff;

  /// Records `ckpts`' stride (0 unless `fast_forward`), size and bytes.
  void describe(const CheckpointSet& ckpts, bool fast_forward) {
    stride = fast_forward ? static_cast<int>(ckpts.stride()) : 0;
    checkpoints = ckpts.size();
    page_bytes = ckpts.page_bytes();
    table_bytes = ckpts.table_bytes();
    snapshot_bytes = ckpts.snapshot_bytes();
  }
};

/// Reusable interpreter scratch: one arena + register file, reset between
/// runs by dirty-page restore instead of a fresh 16 MB allocation per
/// trial. One Engine per thread; the decoded program and checkpoint set
/// it reads are shared.
class Engine {
 public:
  /// `options.memory_bytes` fixes the arena size for the Engine's whole
  /// lifetime; later run calls reuse it (their memory_bytes is ignored).
  Engine(const PredecodedProgram& program, const VmOptions& options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Cold run from the initial state (equivalent to vm::run_multi): a
  /// one-run walk without checkpoints.
  VmResult run(const VmOptions& options, const FaultSpec* faults,
               std::size_t fault_count);

  /// Golden run that captures a checkpoint every `stride` dynamic FI
  /// sites (plus one at site 0), pausing at each capture boundary. Trials
  /// that resume from the set must agree with the capture on
  /// fault_store_data.
  VmResult run_capturing(const VmOptions& options, std::uint64_t stride,
                         CheckpointSet& out);

  /// One faulty trial: a one-run walk from the nearest checkpoint
  /// at-or-before its first fault site. `checkpoints` must come from a
  /// run_capturing on the same program with the same fault_store_data
  /// setting.
  VmResult run_from(const CheckpointSet& checkpoints, const VmOptions& options,
                    const FaultSpec* faults, std::size_t fault_count);

  /// The fault set of one run of a walk.
  struct Trial {
    const FaultSpec* faults = nullptr;
    std::size_t fault_count = 0;
  };
  /// Receives each finished run: its index in the walk's trial array and
  /// its result, which the sink may move from.
  using TrialSink = std::function<void(std::size_t, VmResult&)>;

  /// The golden walk, the one way a trial runs: all `count` runs share
  /// one fault-free walk through the golden instruction stream. Runs go
  /// in ascending first fault site (ties in input order). The walk
  /// starts at the first run's resume point — the nearest checkpoint
  /// at-or-before its site, or the cold start — and advances fault-free
  /// to the run's fork point, the first boundary where fi_sites reaches
  /// its site; the run executes its faults from there to the end. A run
  /// forks (registers saved, memory writes journalled copy-on-first-
  /// write, undone afterwards) only when the next run continues the walk
  /// from this fork point, because its own resume point is not ahead of
  /// it; otherwise it runs in place and the next run restores its
  /// checkpoint. Each result is bit-identical to a cold run of the same
  /// fault set: the walk state at site S is the cold run's state at S.
  /// `checkpoints` may be null or empty (a cold walk). Runs with profile,
  /// timing or trace on run the hooked loop; their hook state starts cold
  /// and cannot fork, so each of them runs in place from the cold start.
  void walk(const CheckpointSet* checkpoints, const VmOptions& options,
            const Trial* trials, std::size_t count, const TrialSink& sink);

  /// While `sink` is non-null, every dynamic FI site registered by
  /// subsequent runs appends the flat pc of its instruction — the
  /// golden-run site map that lets the prune mode resolve dynamic site
  /// ids to static instructions (code()[pc]). Pass nullptr to stop.
  void set_site_pc_sink(std::vector<std::int32_t>* sink);

  /// While `sink` is non-null, every dynamic FI site additionally appends
  /// a 64-bit digest of the machine state at that site: the *live*
  /// registers/flags (per `live_masks`, indexed by flat pc in
  /// masm::LiveSet encoding — bits 0-15 GPRs, 16-31 XMMs, bit 32 FLAGS;
  /// null or out-of-range folds everything), the step counter, and
  /// running hashes of the store stream (every store() since the cold
  /// start, globals included) and the output log. Liveness masking makes
  /// the digest insensitive to dead register/stack noise, so an upstream
  /// edit that preserves behaviour keeps downstream digests — the
  /// foundation of compose's incremental cache keys. A run with this
  /// sink never golden-rejoins (site observers need the real stream);
  /// intended for one cold golden run per program. Pass nullptr to stop.
  void set_state_digest_sink(std::vector<std::uint64_t>* sink,
                             const std::vector<std::uint64_t>* live_masks);

  const FastForwardStats& stats() const { return stats_; }

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
  FastForwardStats stats_;
};

}  // namespace ferrum::vm
