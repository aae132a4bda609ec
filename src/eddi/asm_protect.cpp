#include "eddi/asm_protect.h"

#include <stdexcept>
#include <vector>

#include "masm/cfg.h"

namespace ferrum::eddi {

namespace {

using masm::AsmBlock;
using masm::AsmFunction;
using masm::AsmInst;
using masm::AsmProgram;
using masm::Cond;
using masm::Gpr;
using masm::InstOrigin;
using masm::LiveSet;
using masm::MemRef;
using masm::Op;
using masm::Operand;

constexpr const char* kDetectLabel = "ferrum.detect";

bool is_flag_producer(Op op) {
  return op == Op::kCmp || op == Op::kTest || op == Op::kUcomisd;
}

class FunctionProtector {
 public:
  FunctionProtector(AsmFunction& fn, int fidx,
                    const AsmProtectOptions& options, AsmProtectStats& stats,
                    int& ordinal)
      : fn_(fn), fidx_(fidx), options_(options), stats_(stats),
        ordinal_(ordinal) {}

  void run() {
    ++stats_.functions_total;
    analyze();
    const std::size_t original_blocks = fn_.blocks.size();
    for (std::size_t b = 0; b < original_blocks; ++b) rewrite_block(b);
    // Detector block + edge trampolines are appended by the rewrites; add
    // the detector last if any check referenced it.
    if (needs_detect_) {
      AsmBlock detect;
      detect.label = kDetectLabel;
      detect.insts.push_back(prot({Op::kDetectTrap, {}}));
      fn_.blocks.push_back(std::move(detect));
    }
    patch_frame();
  }

 private:
  [[noreturn]] static void bug(const std::string& message) {
    throw std::runtime_error("asm_protect: " + message);
  }

  static AsmInst prot(AsmInst inst) {
    inst.origin = InstOrigin::kProtection;
    return inst;
  }

  // ------------------------------------------------------------ analysis --

  void analyze() {
    // Per-instruction live-after sets, computed on the unmodified code.
    masm::Liveness liveness(fn_);
    lives_.resize(fn_.blocks.size());
    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      const AsmBlock& block = fn_.blocks[b];
      lives_[b].resize(block.insts.size());
      LiveSet live = liveness.live_out(static_cast<int>(b));
      for (int i = static_cast<int>(block.insts.size()) - 1; i >= 0; --i) {
        lives_[b][static_cast<std::size_t>(i)] = live;
        const masm::UseDef ud = masm::use_def_of(block.insts[i]);
        live = (live & ~ud.def) | ud.use;
      }
    }

    // Whole-function register scan (paper Fig 3, step 1). ABI clobber
    // effects of `call` are excluded: a register only a call clobbers is
    // still spare for protection values that never live across a call
    // (condition captures stay within one terminator cluster; SIMD
    // batches are flushed before every call).
    LiveSet used = 0;
    for (const AsmBlock& block : fn_.blocks) {
      for (const AsmInst& inst : block.insts) {
        if (inst.op == Op::kCall) continue;
        const masm::UseDef ud = masm::use_def_of(inst);
        used |= ud.use | ud.def;
      }
    }
    // Note: `ret` reads the callee-saved registers and the return value,
    // so callee-saved registers this function does not itself save can
    // never be spare — exactly the guarantee the protection needs.
    std::vector<Gpr> spare_gprs;
    for (int i = masm::kGprCount - 1; i >= 0; --i) {
      const Gpr reg = static_cast<Gpr>(i);
      if (reg == Gpr::kRsp || reg == Gpr::kRbp) continue;
      if (!masm::has_gpr(used, reg)) spare_gprs.push_back(reg);
    }
    std::vector<int> spare_xmms;
    for (int i = masm::kXmmCount - 1; i >= 0; --i) {
      if (!masm::has_xmm(used, i)) spare_xmms.push_back(i);
    }

    if (options_.force_stack_redundancy) {
      spare_gprs.clear();
      spare_xmms.clear();
    }
    // Condition-capture locations: two spare byte registers, else two
    // protection-frame slots.
    if (spare_gprs.size() >= 2) {
      flag_regs_spare_ = true;
      flag_reg_[0] = spare_gprs[0];
      flag_reg_[1] = spare_gprs[1];
      ++stats_.functions_with_spare_gprs;
    } else {
      flag_regs_spare_ = false;
      flag_slot_[0] = alloc_prot_slot();
      flag_slot_[1] = alloc_prot_slot();
    }
    // Scratch register for duplicates, when a third spare exists; sites
    // fall back to liveness-dead registers, then to requisition.
    dup_reg_ = spare_gprs.size() >= 3 ? spare_gprs[2] : Gpr::kNone;

    // SIMD batch registers (4 spare XMMs, paper Sec III-B1).
    simd_on_ = options_.use_simd && spare_xmms.size() >= 4;
    if (simd_on_) {
      for (int i = 0; i < 4; ++i) batch_xmm_[i] = spare_xmms[i];
      ++stats_.functions_with_spare_xmms;
    }
    // Optional 5th spare XMM for FP duplication.
    fp_dup_xmm_ = spare_xmms.size() >= 5 ? spare_xmms[4]
                  : (!simd_on_ && !spare_xmms.empty() ? spare_xmms[0] : -1);
  }

  /// Allocates one 8-byte protection-frame slot (rbp-relative), extending
  /// the function frame; the prologue's `sub` is patched in patch_frame().
  std::int64_t alloc_prot_slot() {
    if (!frame_found_) {
      // Find the prologue frame sub: `sub $imm, %rsp` in block 0.
      for (AsmInst& inst : fn_.blocks[0].insts) {
        if (inst.op == Op::kSub && inst.ops[1].is_reg() &&
            inst.ops[1].reg == Gpr::kRsp && inst.ops[0].is_imm()) {
          orig_frame_ = inst.ops[0].imm;
          frame_found_ = true;
          break;
        }
      }
      if (!frame_found_) bug("prologue frame sub not found");
    }
    prot_slots_ += 1;
    return -(orig_frame_ + 8 * prot_slots_);
  }

  void patch_frame() {
    if (prot_slots_ == 0) return;
    // Patch every frame sub in the prologue: the protection pass itself
    // duplicates the original `sub $imm, %rsp` (it is an RMW ALU site),
    // and both copies must agree on the extended frame size.
    bool patched = false;
    for (AsmInst& inst : fn_.blocks[0].insts) {
      // The duplicate of the frame sub targets the scratch register, so
      // match on the opcode + original immediate rather than on %rsp.
      if (inst.op == Op::kSub && inst.ops[0].is_imm() &&
          inst.ops[0].imm == orig_frame_ && inst.ops[1].is_reg()) {
        const std::int64_t total = orig_frame_ + 8 * prot_slots_;
        inst.ops[0].imm = (total + 15) & ~std::int64_t{15};
        patched = true;
      }
    }
    if (!patched) bug("prologue frame sub disappeared");
  }

  Operand rbp_slot(std::int64_t disp, int width) const {
    MemRef mem;
    mem.base = Gpr::kRbp;
    mem.disp = disp;
    return Operand::make_mem(mem, width);
  }

  // --------------------------------------------------- scratch registers --

  /// A GPR that is architecturally dead around original instruction
  /// (block, index) and disjoint from that instruction's operands, the
  /// frame registers, the condition-capture registers and `exclude`.
  Gpr pick_dead_gpr(std::size_t block, std::size_t index,
                    LiveSet exclude) const {
    LiveSet busy = lives_[block][index] | exclude;
    busy |= masm::gpr_bit(Gpr::kRsp) | masm::gpr_bit(Gpr::kRbp);
    if (flag_regs_spare_) {
      busy |= masm::gpr_bit(flag_reg_[0]) | masm::gpr_bit(flag_reg_[1]);
    }
    // Prefer high registers, matching the paper's examples (r10, r11, ...).
    static constexpr Gpr kOrder[] = {
        Gpr::kR15, Gpr::kR14, Gpr::kR13, Gpr::kR12, Gpr::kR11, Gpr::kR10,
        Gpr::kR9,  Gpr::kR8,  Gpr::kRbx, Gpr::kRdi, Gpr::kRsi, Gpr::kRdx,
        Gpr::kRcx, Gpr::kRax};
    for (Gpr reg : kOrder) {
      if (!masm::has_gpr(busy, reg)) return reg;
    }
    return Gpr::kNone;
  }

  int pick_dead_xmm(std::size_t block, std::size_t index,
                    LiveSet exclude) const {
    LiveSet busy = lives_[block][index] | exclude;
    if (simd_on_) {
      for (int reg : batch_xmm_) busy |= masm::xmm_bit(reg);
    }
    for (int reg = masm::kXmmCount - 1; reg >= 0; --reg) {
      if (!masm::has_xmm(busy, reg)) return reg;
    }
    return -1;
  }

  static LiveSet operand_regs(const AsmInst& inst) {
    const masm::UseDef ud = masm::use_def_of(inst);
    return ud.use | ud.def;
  }

  // ------------------------------------------------------------- helpers --

  void emit(std::vector<AsmInst>& out, AsmInst inst) {
    out.push_back(prot(std::move(inst)));
  }

  /// Per-site protection decision, consulted once per protectable site in
  /// program order. The ordinal advances unconditionally, so site
  /// identities are independent of what any selector decides. Without a
  /// selector, deterministic error-diffusion on coverage_ratio protects
  /// the requested fraction of sites, spread evenly.
  bool select_site(std::size_t bidx, std::size_t i, bool cluster) {
    ProtectSiteRef ref;
    ref.ordinal = ordinal_++;
    ref.function = fidx_;
    ref.block = static_cast<int>(bidx);
    ref.inst = static_cast<int>(i);
    ref.cluster = cluster;
    bool keep = true;
    if (options_.selector) {
      keep = options_.selector(ref);
    } else if (options_.coverage_ratio < 1.0) {
      selection_accum_ += options_.coverage_ratio;
      keep = selection_accum_ >= 1.0;
      if (keep) selection_accum_ -= 1.0;
    }
    if (!keep) ++stats_.skipped_sites;
    return keep;
  }

  void emit_jne_detect(std::vector<AsmInst>& out) {
    needs_detect_ = true;
    emit(out, {AsmInst(Op::kJcc, Cond::kNe,
                       {Operand::make_label(kDetectLabel)})});
  }

  /// Requisitions `victim` around a protection window: push with verified
  /// store (paper Fig 7, hardened so the push/pop themselves are covered).
  void requisition_begin(std::vector<AsmInst>& out, Gpr victim) {
    emit(out, {Op::kPush, {Operand::make_reg(victim)}});
    if (options_.protect_store_data) {
      MemRef top;
      top.base = Gpr::kRsp;
      emit(out, {Op::kCmp, {Operand::make_reg(victim),
                            Operand::make_mem(top, 8)}});
      emit_jne_detect(out);
    }
    ++stats_.requisitions;
  }

  void requisition_end(std::vector<AsmInst>& out, Gpr victim) {
    emit(out, {Op::kPop, {Operand::make_reg(victim)}});
    MemRef below;
    below.base = Gpr::kRsp;
    below.disp = -8;
    emit(out, {Op::kCmp, {Operand::make_reg(victim),
                          Operand::make_mem(below, 8)}});
    emit_jne_detect(out);
  }

  struct Scratch {
    Gpr reg = Gpr::kNone;
    bool requisitioned = false;
  };

  /// Obtains a scratch GPR at a site: function-spare, else liveness-dead,
  /// else requisitioned (caller must call release_scratch).
  Scratch acquire_scratch(std::vector<AsmInst>& out, std::size_t block,
                          std::size_t index, LiveSet exclude) {
    if (dup_reg_ != Gpr::kNone && !masm::has_gpr(exclude, dup_reg_)) {
      return {dup_reg_, false};
    }
    const Gpr dead = pick_dead_gpr(block, index, exclude);
    if (dead != Gpr::kNone) return {dead, false};
    // Requisition a victim not touched by the instruction.
    for (Gpr victim : {Gpr::kR15, Gpr::kR14, Gpr::kR13, Gpr::kR12,
                       Gpr::kRbx, Gpr::kRax}) {
      if (!masm::has_gpr(exclude, victim)) {
        requisition_begin(out, victim);
        return {victim, true};
      }
    }
    bug("no requisitionable register");
  }

  void release_scratch(std::vector<AsmInst>& out, const Scratch& scratch) {
    if (scratch.requisitioned) requisition_end(out, scratch.reg);
  }

  // ------------------------------------------------------- SIMD batching --

  /// Captures (original value, duplicate value) as the next batch lane.
  /// `orig` and `dup` must be 64-bit-readable GPR operands.
  void capture_pair(std::vector<AsmInst>& out, const Operand& orig,
                    const Operand& dup) {
    const int pair = batch_count_ < 2 ? 0 : 2;  // A1/B1 vs A2/B2
    const int lane = batch_count_ % 2;
    const int xa = batch_xmm_[pair];
    const int xb = batch_xmm_[pair + 1];
    if (lane == 0) {
      emit(out, {Op::kMovq, {orig, Operand::make_xmm(xa)}});
      emit(out, {Op::kMovq, {dup, Operand::make_xmm(xb)}});
    } else {
      emit(out, {Op::kPinsrq, {Operand::make_imm(1, 1), orig,
                               Operand::make_xmm(xa)}});
      emit(out, {Op::kPinsrq, {Operand::make_imm(1, 1), dup,
                               Operand::make_xmm(xb)}});
    }
    ++batch_count_;
    ++stats_.simd_sites;
    if (batch_count_ >= options_.simd_batch || batch_count_ >= 4) {
      flush_batch(out);
    }
  }

  /// Emits the batched comparison (paper Fig 6) and resets the batch.
  void flush_batch(std::vector<AsmInst>& out) {
    if (batch_count_ == 0) return;
    const int xa1 = batch_xmm_[0], xb1 = batch_xmm_[1];
    const int xa2 = batch_xmm_[2], xb2 = batch_xmm_[3];
    if (batch_count_ > 2) {
      emit(out, {Op::kVinserti128, {Operand::make_imm(1, 1),
                                    Operand::make_xmm(xa2),
                                    Operand::make_ymm(xa1)}});
      emit(out, {Op::kVinserti128, {Operand::make_imm(1, 1),
                                    Operand::make_xmm(xb2),
                                    Operand::make_ymm(xb1)}});
      emit(out, {Op::kVpxor, {Operand::make_ymm(xa1), Operand::make_ymm(xb1),
                              Operand::make_ymm(xb1)}});
      emit(out, {Op::kVptest, {Operand::make_ymm(xb1),
                               Operand::make_ymm(xb1)}});
    } else {
      emit(out, {Op::kVpxor, {Operand::make_xmm(xa1), Operand::make_xmm(xb1),
                              Operand::make_xmm(xb1)}});
      emit(out, {Op::kVptest, {Operand::make_xmm(xb1),
                               Operand::make_xmm(xb1)}});
    }
    emit_jne_detect(out);
    batch_count_ = 0;
    ++stats_.flushes;
  }

  // ------------------------------------------------------------ rewrites --

  void rewrite_block(std::size_t bidx) {
    // Build into a local vector: protection may append trampoline blocks,
    // which reallocates fn_.blocks and would invalidate references into it.
    std::vector<AsmInst> orig = std::move(fn_.blocks[bidx].insts);
    std::vector<AsmInst> out;
    out.reserve(orig.size() * 3);
    batch_count_ = 0;

    // Locate the terminator cluster: trailing jmp/ret/jcc run, plus the
    // flag producer feeding a jcc.
    std::size_t cluster = orig.size();
    while (cluster > 0) {
      const Op op = orig[cluster - 1].op;
      if (op == Op::kJmp || op == Op::kRet || op == Op::kJcc) {
        --cluster;
      } else {
        break;
      }
    }
    if (cluster < orig.size() && orig[cluster].op == Op::kJcc &&
        cluster > 0 && is_flag_producer(orig[cluster - 1].op)) {
      --cluster;
    }

    for (std::size_t i = 0; i < cluster; ++i) {
      // Materialised comparison: flag producer + setcc pair.
      if (is_flag_producer(orig[i].op) && i + 1 < cluster &&
          orig[i + 1].op == Op::kSetcc) {
        if (select_site(bidx, i, /*cluster=*/true)) {
          protect_materialized_compare(out, orig, bidx, i);
        } else {
          out.push_back(orig[i]);
          out.push_back(orig[i + 1]);
        }
        ++i;  // consumed the setcc as well
        continue;
      }
      if (protectable_body_site(orig[i]) &&
          !select_site(bidx, i, /*cluster=*/false)) {
        out.push_back(orig[i]);
        continue;
      }
      protect_body_inst(out, orig, bidx, i);
    }
    flush_batch(out);

    // Terminator cluster.
    if (cluster < orig.size() && is_flag_producer(orig[cluster].op) &&
        cluster + 1 < orig.size() && orig[cluster + 1].op == Op::kJcc &&
        options_.protect_branches &&
        select_site(bidx, cluster, /*cluster=*/true)) {
      protect_branch_cluster(out, orig, bidx, cluster);
    } else {
      for (std::size_t i = cluster; i < orig.size(); ++i) {
        out.push_back(orig[i]);
      }
    }
    fn_.blocks[bidx].insts = std::move(out);
  }

  /// cmp/test/ucomisd + setcc: duplicate both, compare the two captured
  /// bytes (flags are dead immediately after a materialised compare).
  void protect_materialized_compare(std::vector<AsmInst>& out,
                                    const std::vector<AsmInst>& orig,
                                    std::size_t bidx, std::size_t i) {
    const AsmInst& producer = orig[i];
    const AsmInst& setcc = orig[i + 1];
    out.push_back(producer);
    out.push_back(setcc);
    if (!options_.protect_branches) {
      // HYBRID: the IR stage already duplicated this comparison.
      return;
    }
    const LiveSet exclude =
        operand_regs(producer) | operand_regs(setcc);
    Scratch scratch = acquire_scratch(out, bidx, i + 1, exclude);
    emit(out, producer);  // duplicate flag computation
    emit(out, {AsmInst(Op::kSetcc, setcc.cc,
                       {Operand::make_reg(scratch.reg, 1)})});
    // scratch ^= original captured byte; mismatch -> detect.
    emit(out, {Op::kXor, {Operand::make_reg(setcc.ops[0].reg, 1),
                          Operand::make_reg(scratch.reg, 1)}});
    emit_jne_detect(out);
    release_scratch(out, scratch);
    ++stats_.general_sites;
  }

  void protect_body_inst(std::vector<AsmInst>& out,
                         const std::vector<AsmInst>& orig, std::size_t bidx,
                         std::size_t i) {
    const AsmInst& inst = orig[i];
    switch (inst.op) {
      case Op::kCall:
      case Op::kDetectTrap:
        flush_batch(out);  // spare XMM batch registers are caller-saved
        out.push_back(inst);
        return;
      case Op::kJmp:
      case Op::kRet:
      case Op::kJcc:
        // Stray control flow in the body (should not happen).
        out.push_back(inst);
        ++stats_.unprotected_sites;
        return;
      case Op::kPush:
        out.push_back(inst);
        if (options_.protect_store_data) {
          protect_store_check(out, inst.ops[0], rsp_mem(0, 8));
        }
        return;
      case Op::kPop: {
        out.push_back(inst);
        // The popped value still sits below the stack pointer: verify the
        // register write against that copy (a GPR-write site, so this is
        // active regardless of the store-data option).
        emit(out, {Op::kCmp, {inst.ops[0], rsp_mem(-8, 8)}});
        emit_jne_detect(out);
        ++stats_.general_sites;
        return;
      }
      case Op::kMov:
      case Op::kMovsx:
      case Op::kMovzx:
      case Op::kLea:
        if (inst.ops[1].is_mem()) {
          out.push_back(inst);
          if (options_.protect_store_data) {
            protect_store_check(out, inst.ops[0],
                                Operand::make_mem(inst.ops[1].mem,
                                                  inst.ops[1].width));
          }
          return;
        }
        protect_gpr_write(out, orig, bidx, i);
        return;
      case Op::kCvttsd2si:
        protect_gpr_write(out, orig, bidx, i);
        return;
      case Op::kAdd: case Op::kSub: case Op::kImul: case Op::kAnd:
      case Op::kOr: case Op::kXor: case Op::kShl: case Op::kSar:
      case Op::kIdiv: case Op::kIrem:
        protect_rmw_alu(out, orig, bidx, i);
        return;
      case Op::kMovsd:
      case Op::kMovq:
        protect_sse_move(out, orig, bidx, i);
        return;
      case Op::kAddsd: case Op::kSubsd: case Op::kMulsd: case Op::kDivsd:
        protect_fp_rmw(out, orig, bidx, i);
        return;
      case Op::kSqrtsd:
      case Op::kCvtsi2sd:
        protect_fp_nonrmw(out, orig, bidx, i);
        return;
      case Op::kCmp:
      case Op::kTest:
      case Op::kUcomisd:
        // Flag producer not followed by setcc or jcc: flags are dead, the
        // instruction has no architectural effect worth protecting.
        out.push_back(inst);
        return;
      case Op::kSetcc:
        // setcc without its producer immediately before it (not emitted by
        // our backend); leave unprotected but visible in the audit.
        out.push_back(inst);
        ++stats_.unprotected_sites;
        return;
      default:
        out.push_back(inst);
        ++stats_.unprotected_sites;
        return;
    }
  }

  /// True for body instructions protect_body_inst would wrap with checks
  /// (the sites coverage_ratio selection applies to).
  static bool protectable_body_site(const AsmInst& inst) {
    switch (inst.op) {
      case Op::kCall:
      case Op::kDetectTrap:
      case Op::kJmp:
      case Op::kRet:
      case Op::kJcc:
      case Op::kCmp:
      case Op::kTest:
      case Op::kUcomisd:
        return false;  // handled structurally, not per-site
      default:
        return true;
    }
  }

  static Operand rsp_mem(std::int64_t disp, int width) {
    MemRef mem;
    mem.base = Gpr::kRsp;
    mem.disp = disp;
    return Operand::make_mem(mem, width);
  }

  /// Store verification: compare the written cell against the source.
  void protect_store_check(std::vector<AsmInst>& out, const Operand& src,
                           const Operand& cell) {
    emit(out, {Op::kCmp, {src, cell}});
    emit_jne_detect(out);
    ++stats_.store_checks;
  }

  /// Non-RMW GPR write: duplicate into a scratch (loads duplicate straight
  /// from memory), then SIMD-capture or xor-check.
  void protect_gpr_write(std::vector<AsmInst>& out,
                         const std::vector<AsmInst>& orig, std::size_t bidx,
                         std::size_t i) {
    const AsmInst& inst = orig[i];
    const Operand& dst = inst.ops[1];
    const int dst_width = dst.width;

    // Fast path (paper Fig 6): a 64-bit load whose duplicate can execute
    // directly into the XMM lane.
    if (simd_on_ && inst.op == Op::kMov && inst.ops[0].is_mem() &&
        inst.ops[0].width == 8) {
      out.push_back(inst);
      capture_load_direct(out, inst.ops[0], dst);
      return;
    }

    out.push_back(inst);
    const LiveSet exclude = operand_regs(inst);
    Scratch scratch = acquire_scratch(out, bidx, i, exclude);
    // Re-execute with the scratch register as destination.
    AsmInst dup = inst;
    dup.ops[1].reg = scratch.reg;
    emit(out, dup);
    finish_value_check(out, Operand::make_reg(dst.reg, 8),
                       Operand::make_reg(scratch.reg, 8), dst_width);
    release_scratch(out, scratch);
  }

  /// Fig 6 pattern: duplicate load goes straight into the duplicate lane;
  /// the original result is captured from its register.
  void capture_load_direct(std::vector<AsmInst>& out, const Operand& mem,
                           const Operand& dst) {
    const int pair = batch_count_ < 2 ? 0 : 2;
    const int lane = batch_count_ % 2;
    const int xa = batch_xmm_[pair];
    const int xb = batch_xmm_[pair + 1];
    const Operand orig_reg = Operand::make_reg(dst.reg, 8);
    if (lane == 0) {
      emit(out, {Op::kMovq, {mem, Operand::make_xmm(xb)}});
      emit(out, {Op::kMovq, {orig_reg, Operand::make_xmm(xa)}});
    } else {
      emit(out, {Op::kPinsrq, {Operand::make_imm(1, 1), mem,
                               Operand::make_xmm(xb)}});
      emit(out, {Op::kPinsrq, {Operand::make_imm(1, 1), orig_reg,
                               Operand::make_xmm(xa)}});
    }
    ++batch_count_;
    ++stats_.simd_sites;
    if (batch_count_ >= options_.simd_batch || batch_count_ >= 4) {
      flush_batch(out);
    }
  }

  /// Compares a duplicated 64-bit value with the original: SIMD capture in
  /// FERRUM mode, immediate xor+jne otherwise. Sub-64-bit results are
  /// compared at full width — 32-bit writes zero-extend and 8-bit
  /// duplicates merge into scratch just like the original merged, so the
  /// comparison widths line up only for 4/8-byte results; byte results are
  /// xor-checked at byte width.
  void finish_value_check(std::vector<AsmInst>& out, const Operand& orig_reg,
                          const Operand& dup_reg, int width) {
    if (width == 1) {
      // Byte result (setcc-like): immediate byte xor.
      emit(out, {Op::kXor, {Operand::make_reg(orig_reg.reg, 1),
                            Operand::make_reg(dup_reg.reg, 1)}});
      emit_jne_detect(out);
      ++stats_.general_sites;
      return;
    }
    // 32/64-bit results compare at full width (32-bit writes zero-extend
    // identically in the original and the duplicate).
    if (simd_on_) {
      capture_pair(out, orig_reg, dup_reg);
    } else {
      emit(out, {Op::kXor, {orig_reg, dup_reg}});
      emit_jne_detect(out);
      ++stats_.general_sites;
    }
  }

  /// RMW integer op (Fig 4 flavour): seed scratch with the old
  /// destination, re-execute onto the scratch, immediate xor check.
  void protect_rmw_alu(std::vector<AsmInst>& out,
                       const std::vector<AsmInst>& orig, std::size_t bidx,
                       std::size_t i) {
    const AsmInst& inst = orig[i];
    const Operand& dst = inst.ops[1];
    if (!dst.is_reg()) {  // ALU to memory is never emitted by the backend
      out.push_back(inst);
      ++stats_.unprotected_sites;
      return;
    }
    const LiveSet exclude = operand_regs(inst);
    Scratch scratch = acquire_scratch(out, bidx, i, exclude);
    const int width = dst.width;
    // Seed with the pre-instruction destination value.
    emit(out, {Op::kMov, {Operand::make_reg(dst.reg, width),
                          Operand::make_reg(scratch.reg, width)}});
    out.push_back(inst);
    AsmInst dup = inst;
    dup.ops[1].reg = scratch.reg;
    emit(out, dup);
    emit(out, {Op::kXor, {Operand::make_reg(dst.reg, width),
                          Operand::make_reg(scratch.reg, width)}});
    emit_jne_detect(out);
    release_scratch(out, scratch);
    ++stats_.general_sites;
  }

  /// movsd / movq with at least one XMM side.
  void protect_sse_move(std::vector<AsmInst>& out,
                        const std::vector<AsmInst>& orig, std::size_t bidx,
                        std::size_t i) {
    const AsmInst& inst = orig[i];
    const Operand& src = inst.ops[0];
    const Operand& dst = inst.ops[1];

    if (dst.is_mem()) {
      // FP store: load-back compare through a scratch GPR.
      out.push_back(inst);
      if (options_.protect_store_data) {
        const LiveSet exclude = operand_regs(inst);
        Scratch scratch = acquire_scratch(out, bidx, i, exclude);
        emit(out, {Op::kMovq, {Operand::make_xmm(src.xmm),
                               Operand::make_reg(scratch.reg, 8)}});
        protect_store_check(out, Operand::make_reg(scratch.reg, 8),
                            Operand::make_mem(dst.mem, 8));
        release_scratch(out, scratch);
      }
      return;
    }
    if (dst.is_reg()) {
      // movq xmm -> gpr: plain non-RMW GPR write.
      protect_gpr_write(out, orig, bidx, i);
      return;
    }
    // Destination is XMM: duplicate bits through scratch GPRs.
    out.push_back(inst);
    const LiveSet exclude = operand_regs(inst);
    Scratch s1 = acquire_scratch(out, bidx, i, exclude);
    Scratch s2 = acquire_scratch(out, bidx, i,
                                 exclude | masm::gpr_bit(s1.reg));
    // Duplicate of the source value.
    if (src.is_mem()) {
      emit(out, {Op::kMov, {Operand::make_mem(src.mem, 8),
                            Operand::make_reg(s1.reg, 8)}});
    } else if (src.is_xmm()) {
      emit(out, {Op::kMovq, {Operand::make_xmm(src.xmm),
                             Operand::make_reg(s1.reg, 8)}});
    } else {
      emit(out, {Op::kMov, {src, Operand::make_reg(s1.reg, 8)}});
    }
    // Original result bits.
    emit(out, {Op::kMovq, {Operand::make_xmm(dst.xmm),
                           Operand::make_reg(s2.reg, 8)}});
    emit(out, {Op::kXor, {Operand::make_reg(s1.reg, 8),
                          Operand::make_reg(s2.reg, 8)}});
    emit_jne_detect(out);
    release_scratch(out, s2);
    release_scratch(out, s1);
    ++stats_.general_sites;
  }

  /// addsd-family: seed an XMM scratch with the old destination,
  /// re-execute, compare bit patterns through GPRs.
  void protect_fp_rmw(std::vector<AsmInst>& out,
                      const std::vector<AsmInst>& orig, std::size_t bidx,
                      std::size_t i) {
    const AsmInst& inst = orig[i];
    const Operand& dst = inst.ops[1];
    const LiveSet exclude = operand_regs(inst);

    int fp_scratch = fp_dup_xmm_;
    std::int64_t save_slot = 0;
    bool saved = false;
    if (fp_scratch < 0 || masm::has_xmm(exclude, fp_scratch)) {
      fp_scratch = pick_dead_xmm(bidx, i, exclude);
    }
    if (fp_scratch < 0) {
      // Requisition an XMM: save lane 0 to a protection slot.
      fp_scratch = dst.xmm == 15 ? 14 : 15;
      save_slot = alloc_prot_slot();
      emit(out, {Op::kMovsd, {Operand::make_xmm(fp_scratch),
                              rbp_slot(save_slot, 8)}});
      saved = true;
      ++stats_.requisitions;
    }

    emit(out, {Op::kMovsd, {Operand::make_xmm(dst.xmm),
                            Operand::make_xmm(fp_scratch)}});  // seed
    out.push_back(inst);
    AsmInst dup = inst;
    dup.ops[1] = Operand::make_xmm(fp_scratch);
    emit(out, dup);
    compare_xmm_bits(out, bidx, i, dst.xmm, fp_scratch,
                     exclude | masm::xmm_bit(fp_scratch));

    if (saved) {
      emit(out, {Op::kMovsd, {rbp_slot(save_slot, 8),
                              Operand::make_xmm(fp_scratch)}});
      // Verify the restore against the memory copy.
      Scratch s = acquire_scratch(out, bidx, i, exclude);
      emit(out, {Op::kMovq, {Operand::make_xmm(fp_scratch),
                             Operand::make_reg(s.reg, 8)}});
      protect_store_check(out, Operand::make_reg(s.reg, 8),
                          rbp_slot(save_slot, 8));
      release_scratch(out, s);
    }
    ++stats_.general_sites;
  }

  /// sqrtsd / cvtsi2sd: duplicate into an XMM scratch, bit compare.
  void protect_fp_nonrmw(std::vector<AsmInst>& out,
                         const std::vector<AsmInst>& orig, std::size_t bidx,
                         std::size_t i) {
    const AsmInst& inst = orig[i];
    const Operand& dst = inst.ops[1];
    const LiveSet exclude = operand_regs(inst);
    out.push_back(inst);

    int fp_scratch = fp_dup_xmm_;
    if (fp_scratch < 0 || masm::has_xmm(exclude, fp_scratch)) {
      fp_scratch = pick_dead_xmm(bidx, i, exclude);
    }
    if (fp_scratch < 0) {
      // No XMM available: fall back to comparing against a re-execution
      // through the destination is impossible; requisition like FP RMW.
      protect_fp_rmw_style_requisitioned(out, orig, bidx, i);
      return;
    }
    AsmInst dup = inst;
    dup.ops[1] = Operand::make_xmm(fp_scratch);
    emit(out, dup);
    compare_xmm_bits(out, bidx, i, dst.xmm, fp_scratch,
                     exclude | masm::xmm_bit(fp_scratch));
    ++stats_.general_sites;
  }

  void protect_fp_rmw_style_requisitioned(std::vector<AsmInst>& out,
                                          const std::vector<AsmInst>& orig,
                                          std::size_t bidx, std::size_t i) {
    const AsmInst& inst = orig[i];
    const Operand& dst = inst.ops[1];
    const LiveSet exclude = operand_regs(inst);
    const int fp_scratch = dst.xmm == 15 ? 14 : 15;
    const std::int64_t save_slot = alloc_prot_slot();
    emit(out, {Op::kMovsd, {Operand::make_xmm(fp_scratch),
                            rbp_slot(save_slot, 8)}});
    ++stats_.requisitions;
    AsmInst dup = inst;
    dup.ops[1] = Operand::make_xmm(fp_scratch);
    emit(out, dup);
    compare_xmm_bits(out, bidx, i, dst.xmm, fp_scratch,
                     exclude | masm::xmm_bit(fp_scratch));
    emit(out, {Op::kMovsd, {rbp_slot(save_slot, 8),
                            Operand::make_xmm(fp_scratch)}});
    Scratch s = acquire_scratch(out, bidx, i, exclude);
    emit(out, {Op::kMovq, {Operand::make_xmm(fp_scratch),
                           Operand::make_reg(s.reg, 8)}});
    protect_store_check(out, Operand::make_reg(s.reg, 8),
                        rbp_slot(save_slot, 8));
    release_scratch(out, s);
    ++stats_.general_sites;
  }

  /// Compares lane 0 of two XMM registers bit-exactly through GPR
  /// scratches with an immediate xor+jne check.
  void compare_xmm_bits(std::vector<AsmInst>& out, std::size_t bidx,
                        std::size_t i, int xmm_a, int xmm_b,
                        LiveSet exclude) {
    Scratch s1 = acquire_scratch(out, bidx, i, exclude);
    Scratch s2 =
        acquire_scratch(out, bidx, i, exclude | masm::gpr_bit(s1.reg));
    emit(out, {Op::kMovq, {Operand::make_xmm(xmm_a),
                           Operand::make_reg(s1.reg, 8)}});
    emit(out, {Op::kMovq, {Operand::make_xmm(xmm_b),
                           Operand::make_reg(s2.reg, 8)}});
    // Measured: batching FP pairs through the SIMD path costs more than
    // it saves (the gpr->xmm transfer traffic saturates the vector
    // ports), so FP sites keep the immediate check.
    emit(out, {Op::kXor, {Operand::make_reg(s1.reg, 8),
                          Operand::make_reg(s2.reg, 8)}});
    emit_jne_detect(out);
    release_scratch(out, s2);
    release_scratch(out, s1);
  }

  // ----------------------------------------------------- branch clusters --

  /// Protects [flag-producer, jcc T, (jmp F)]: duplicated producer,
  /// deferred condition captures (Fig 5) and per-edge assertions.
  void protect_branch_cluster(std::vector<AsmInst>& out,
                              const std::vector<AsmInst>& orig,
                              std::size_t bidx, std::size_t cluster) {
    (void)bidx;
    const AsmInst& producer = orig[cluster];
    const AsmInst& jcc = orig[cluster + 1];
    const bool has_jmp =
        cluster + 2 < orig.size() && orig[cluster + 2].op == Op::kJmp;

    out.push_back(producer);
    emit_flag_capture(out, jcc.cc, 0);
    emit(out, producer);  // duplicated comparison
    emit_flag_capture(out, jcc.cc, 1);

    // Split both edges through assertion trampolines.
    const std::string taken_tramp = make_edge_block(jcc.ops[0].label, true);
    AsmInst new_jcc = jcc;
    new_jcc.ops[0] = Operand::make_label(taken_tramp);
    out.push_back(new_jcc);
    if (has_jmp) {
      const std::string fall_tramp =
          make_edge_block(orig[cluster + 2].ops[0].label, false);
      AsmInst new_jmp = orig[cluster + 2];
      new_jmp.ops[0] = Operand::make_label(fall_tramp);
      out.push_back(new_jmp);
      // Copy anything after the jmp (should not exist).
      for (std::size_t i = cluster + 3; i < orig.size(); ++i) {
        out.push_back(orig[i]);
      }
    } else {
      // jcc with fall-through: not emitted by the backend; keep the
      // fall-through unsplit but assert on the taken edge only.
      for (std::size_t i = cluster + 2; i < orig.size(); ++i) {
        out.push_back(orig[i]);
      }
    }
    ++stats_.compare_clusters;
  }

  void emit_flag_capture(std::vector<AsmInst>& out, Cond cc, int which) {
    if (flag_regs_spare_) {
      emit(out, {AsmInst(Op::kSetcc, cc,
                         {Operand::make_reg(flag_reg_[which], 1)})});
    } else {
      emit(out, {AsmInst(Op::kSetcc, cc, {rbp_slot(flag_slot_[which], 1)})});
    }
  }

  /// Builds the assertion trampoline for one edge and returns its label.
  std::string make_edge_block(const std::string& target, bool expected) {
    AsmBlock tramp;
    tramp.label = "edge." + std::to_string(edge_counter_++);
    std::vector<AsmInst>& out = tramp.insts;
    const std::int64_t want = expected ? 1 : 0;
    if (flag_regs_spare_) {
      for (int which = 0; which < 2; ++which) {
        emit(out, {Op::kCmp, {Operand::make_imm(want, 1),
                              Operand::make_reg(flag_reg_[which], 1)}});
        emit_jne_detect(out);
      }
    } else {
      // Captures live in protection slots: requisition RAX to read them.
      requisition_begin(out, Gpr::kRax);
      for (int which = 0; which < 2; ++which) {
        emit(out, {Op::kMov, {rbp_slot(flag_slot_[which], 1),
                              Operand::make_reg(Gpr::kRax, 1)}});
        emit(out, {Op::kCmp, {Operand::make_imm(want, 1),
                              Operand::make_reg(Gpr::kRax, 1)}});
        emit_jne_detect(out);
      }
      requisition_end(out, Gpr::kRax);
    }
    emit(out, {Op::kJmp, {Operand::make_label(target)}});
    ++stats_.edge_blocks;
    fn_.blocks.push_back(std::move(tramp));
    return fn_.blocks.back().label;
  }

  AsmFunction& fn_;
  int fidx_ = 0;
  const AsmProtectOptions& options_;
  AsmProtectStats& stats_;
  /// Program-wide protectable-site counter, shared across functions.
  int& ordinal_;

  std::vector<std::vector<LiveSet>> lives_;
  bool flag_regs_spare_ = false;
  Gpr flag_reg_[2] = {Gpr::kNone, Gpr::kNone};
  std::int64_t flag_slot_[2] = {0, 0};
  Gpr dup_reg_ = Gpr::kNone;
  bool simd_on_ = false;
  int batch_xmm_[4] = {-1, -1, -1, -1};
  int fp_dup_xmm_ = -1;
  int batch_count_ = 0;
  std::int64_t orig_frame_ = 0;
  bool frame_found_ = false;
  int prot_slots_ = 0;
  int edge_counter_ = 0;
  bool needs_detect_ = false;
  double selection_accum_ = 0.0;
};

}  // namespace

AsmProtectStats protect_asm(masm::AsmProgram& program,
                            const AsmProtectOptions& options) {
  AsmProtectStats stats;
  int ordinal = 0;
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    FunctionProtector protector(program.functions[f], static_cast<int>(f),
                                options, stats, ordinal);
    protector.run();
  }
  return stats;
}

std::vector<ProtectSiteRef> enumerate_protectable_sites(
    const masm::AsmProgram& program, const AsmProtectOptions& options) {
  // The call sequence to the selector depends only on the input program
  // shape and options, never on selection outcomes, so a skip-everything
  // recording run over a scratch copy yields the exact site universe.
  masm::AsmProgram scratch = program;
  std::vector<ProtectSiteRef> sites;
  AsmProtectOptions probe = options;
  probe.selector = [&sites](const ProtectSiteRef& ref) {
    sites.push_back(ref);
    return false;
  };
  protect_asm(scratch, probe);
  return sites;
}

}  // namespace ferrum::eddi
