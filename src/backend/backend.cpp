#include "backend/backend.h"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace ferrum::backend {

namespace {

using ir::Opcode;
using ir::TypeKind;
using masm::AsmBlock;
using masm::AsmFunction;
using masm::AsmInst;
using masm::AsmProgram;
using masm::Cond;
using masm::Gpr;
using masm::InstOrigin;
using masm::MemRef;
using masm::Op;
using masm::Operand;

[[noreturn]] void unsupported(const std::string& message) {
  throw std::runtime_error("backend: " + message);
}

int width_of(const ir::Type& type) {
  if (type.is_ptr()) return 8;
  switch (type.kind) {
    case TypeKind::kI1:
    case TypeKind::kI8:
      return 1;
    case TypeKind::kI32:
      return 4;
    default:
      return 8;
  }
}

/// Integer-argument registers, System V order.
constexpr Gpr kIntArgRegs[] = {Gpr::kRdi, Gpr::kRsi, Gpr::kRdx,
                               Gpr::kRcx, Gpr::kR8,  Gpr::kR9};
constexpr int kMaxIntArgs = 6;
constexpr int kMaxFpArgs = 8;

/// Scratch allocation order. Caller-saved first so small functions leave
/// callee-saved registers untouched; the deep end is reached only under
/// pressure, which is what makes spare registers scarce in hot functions.
constexpr Gpr kScratchOrder[] = {
    Gpr::kRax, Gpr::kRcx, Gpr::kRdx, Gpr::kRsi, Gpr::kRdi,
    Gpr::kR8,  Gpr::kR9,  Gpr::kR10, Gpr::kR11, Gpr::kRbx,
    Gpr::kR12, Gpr::kR13, Gpr::kR14, Gpr::kR15};

bool is_callee_saved(Gpr reg) {
  switch (reg) {
    case Gpr::kRbx:
    case Gpr::kR12:
    case Gpr::kR13:
    case Gpr::kR14:
    case Gpr::kR15:
      return true;
    default:
      return false;
  }
}

bool is_caller_saved_gpr(Gpr reg) {
  return !is_callee_saved(reg) && reg != Gpr::kRsp && reg != Gpr::kRbp;
}

Cond cond_of_icmp(ir::CmpPred pred) {
  switch (pred) {
    case ir::CmpPred::kEq: return Cond::kE;
    case ir::CmpPred::kNe: return Cond::kNe;
    case ir::CmpPred::kLt: return Cond::kL;
    case ir::CmpPred::kLe: return Cond::kLe;
    case ir::CmpPred::kGt: return Cond::kG;
    case ir::CmpPred::kGe: return Cond::kGe;
  }
  return Cond::kE;
}

/// ucomisd sets CF/ZF like an unsigned compare.
Cond cond_of_fcmp(ir::CmpPred pred) {
  switch (pred) {
    case ir::CmpPred::kEq: return Cond::kE;
    case ir::CmpPred::kNe: return Cond::kNe;
    case ir::CmpPred::kLt: return Cond::kB;
    case ir::CmpPred::kLe: return Cond::kBe;
    case ir::CmpPred::kGt: return Cond::kA;
    case ir::CmpPred::kGe: return Cond::kAe;
  }
  return Cond::kE;
}

/// Where a value currently lives.
struct Loc {
  enum class Kind : std::uint8_t { kNone, kGpr, kXmm, kSlot } kind = Kind::kNone;
  Gpr gpr = Gpr::kNone;
  int xmm = -1;
  std::int64_t slot = 0;  // rbp-relative displacement (negative)
  int width = 8;
};

class FunctionLowering {
 public:
  FunctionLowering(const ir::Function& fn, AsmProgram& program,
                   const ir::Module& module, const BackendOptions& options)
      : fn_(fn), program_(program), module_(module), options_(options) {}

  void run() {
    AsmFunction out;
    out.name = fn_.name();
    for (const auto& arg : fn_.args()) {
      if (arg->type().is_float()) {
        ++out.fp_args;
      } else {
        ++out.int_args;
      }
    }
    asm_fn_ = &out;

    analyze();
    emit_prologue();
    for (const auto& block : fn_.blocks()) {
      start_asm_block("L" + block->name());
      reset_block_state();
      lower_block(*block);
    }
    emit_epilogue_block();
    patch_frame_size();
    program_.functions.push_back(std::move(out));
  }

 private:
  // ------------------------------------------------------------ analysis --

  void analyze() {
    int next_id = 0;
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : block->instructions()) {
        inst_block_[inst.get()] = block.get();
        inst_index_[inst.get()] = next_id++;
      }
    }
    // Use counts and escaping values.
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : block->instructions()) {
        for (const ir::Value* operand : inst->operands) {
          if (operand->kind() != ir::ValueKind::kInstruction) continue;
          const auto* def = static_cast<const ir::Instruction*>(operand);
          use_count_[def]++;
          if (inst_block_[def] != block.get() &&
              def->op() != Opcode::kAlloca) {
            escaping_.insert(def);
          }
        }
      }
    }
    // Frame layout: allocas first, then hidden argument slots, then slots
    // for escaping values. Spill slots are appended on demand.
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : block->instructions()) {
        if (inst->op() == Opcode::kAlloca) {
          const std::int64_t bytes =
              inst->alloca_count * ir::scalar_size(inst->alloca_elem);
          alloca_offset_[inst.get()] = allocate_frame(bytes);
        }
      }
    }
    for (const auto& arg : fn_.args()) {
      arg_slot_[arg.get()] = allocate_frame(8);
    }
    // Instruction order, not escaping_'s hash order: that set is keyed by
    // pointer, so its iteration order would follow heap addresses.
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : block->instructions()) {
        if (escaping_.count(inst.get()) != 0) {
          escape_slot_[inst.get()] = allocate_frame(8);
        }
      }
    }
  }

  std::int64_t allocate_frame(std::int64_t bytes) {
    bytes = (bytes + 7) & ~std::int64_t{7};
    frame_size_ += bytes;
    return -frame_size_;
  }

  // ------------------------------------------------------------ emission --

  void start_asm_block(std::string label) {
    asm_fn_->blocks.push_back({std::move(label), {}});
    cur_ = &asm_fn_->blocks.back();
  }

  AsmInst& emit(AsmInst inst, InstOrigin origin) {
    inst.origin = origin;
    cur_->insts.push_back(inst);
    return cur_->insts.back();
  }
  AsmInst& emit_ir(AsmInst inst) { return emit(inst, InstOrigin::kFromIR); }
  AsmInst& emit_glue(AsmInst inst) {
    return emit(inst, InstOrigin::kBackendGlue);
  }

  void emit_prologue() {
    start_asm_block("prologue");
    emit_glue({Op::kPush, {Operand::make_reg(Gpr::kRbp)}});
    emit_glue({Op::kMov, {Operand::make_reg(Gpr::kRsp),
                          Operand::make_reg(Gpr::kRbp)}});
    frame_sub_block_ = static_cast<int>(asm_fn_->blocks.size() - 1);
    frame_sub_index_ = static_cast<int>(cur_->insts.size());
    emit_glue({Op::kSub, {Operand::make_imm(0, 8),
                          Operand::make_reg(Gpr::kRsp)}});
    // Callee-saved homes are patched in at the end (we only know the used
    // set after lowering); reserve the instruction positions now by
    // remembering where to insert.
    callee_save_block_ = frame_sub_block_;
    // Spill incoming arguments to their hidden slots.
    int int_seen = 0;
    int fp_seen = 0;
    for (const auto& arg : fn_.args()) {
      const std::int64_t slot = arg_slot_[arg.get()];
      if (arg->type().is_float()) {
        if (fp_seen >= kMaxFpArgs) unsupported("too many fp args");
        emit_glue({Op::kMovsd, {Operand::make_xmm(fp_seen++),
                                frame_mem(slot, 8)}});
      } else {
        if (int_seen >= kMaxIntArgs) unsupported("too many int args");
        emit_glue({Op::kMov, {Operand::make_reg(kIntArgRegs[int_seen++]),
                              frame_mem(slot, 8)}});
      }
    }
  }

  void emit_epilogue_block() {
    start_asm_block("epilogue");
    // Restore callee-saved registers from their frame homes.
    for (Gpr reg : used_callee_saved_in_order()) {
      emit_glue({Op::kMov, {frame_mem(callee_home_[reg], 8),
                            Operand::make_reg(reg)}});
    }
    emit_glue({Op::kMov, {Operand::make_reg(Gpr::kRbp),
                          Operand::make_reg(Gpr::kRsp)}});
    emit_glue({Op::kPop, {Operand::make_reg(Gpr::kRbp)}});
    emit_glue({Op::kRet, {}});
  }

  std::vector<Gpr> used_callee_saved_in_order() {
    std::vector<Gpr> result;
    for (Gpr reg : {Gpr::kRbx, Gpr::kR12, Gpr::kR13, Gpr::kR14, Gpr::kR15}) {
      if (callee_home_.count(reg) != 0) result.push_back(reg);
    }
    return result;
  }

  void patch_frame_size() {
    // Insert callee-saved saves right after the frame sub.
    std::vector<AsmInst> saves;
    for (Gpr reg : used_callee_saved_in_order()) {
      AsmInst save(Op::kMov,
                   {Operand::make_reg(reg), frame_mem(callee_home_[reg], 8)});
      save.origin = InstOrigin::kBackendGlue;
      saves.push_back(save);
    }
    auto& prologue = asm_fn_->blocks[frame_sub_block_].insts;
    prologue.insert(prologue.begin() + frame_sub_index_ + 1, saves.begin(),
                    saves.end());
    const std::int64_t frame = (frame_size_ + 15) & ~std::int64_t{15};
    prologue[frame_sub_index_].ops[0].imm = frame;
  }

  Operand frame_mem(std::int64_t disp, int width) {
    MemRef mem;
    mem.base = Gpr::kRbp;
    mem.disp = disp;
    return Operand::make_mem(mem, width);
  }

  // -------------------------------------------------- register allocator --

  void reset_block_state() {
    loc_.clear();
    gpr_holder_.clear();
    xmm_holder_.clear();
  }

  /// Marks callee-saved registers the first time they are touched so the
  /// prologue/epilogue can preserve them.
  void note_gpr_use(Gpr reg) {
    if (is_callee_saved(reg) && callee_home_.count(reg) == 0) {
      callee_home_[reg] = allocate_frame(8);
    }
  }

  /// Returns a free register and RESERVES it (sentinel entry) so that a
  /// second allocation before bind_gpr cannot hand the same register out.
  /// bind_gpr replaces the sentinel; a caller that never binds must erase
  /// the entry itself.
  Gpr alloc_gpr() {
    const int budget = options_.max_scratch_gprs;
    int considered = 0;
    for (Gpr reg : kScratchOrder) {
      if (considered++ >= budget) break;
      if (gpr_holder_.count(reg) == 0) {
        note_gpr_use(reg);
        gpr_holder_[reg] = nullptr;
        return reg;
      }
    }
    // All scratch registers busy: spill the least-recently-assigned one.
    evict_gpr(oldest_gpr_holder());
    return alloc_gpr();
  }

  Gpr oldest_gpr_holder() {
    const ir::Value* oldest = nullptr;
    Gpr reg = Gpr::kNone;
    for (const auto& [r, value] : gpr_holder_) {
      if (value == nullptr) continue;  // reserved, not evictable
      if (oldest == nullptr || loc_order_[value] < loc_order_[oldest]) {
        oldest = value;
        reg = r;
      }
    }
    if (reg == Gpr::kNone) unsupported("register allocator deadlock");
    return reg;
  }

  void evict_gpr(Gpr reg) {
    auto it = gpr_holder_.find(reg);
    if (it == gpr_holder_.end()) return;
    const ir::Value* value = it->second;
    if (value == nullptr) unsupported("evicting a reserved register");
    Loc& loc = loc_[value];
    const std::int64_t slot = allocate_frame(8);
    emit_glue({Op::kMov, {Operand::make_reg(reg, 8), frame_mem(slot, 8)}});
    loc.kind = Loc::Kind::kSlot;
    loc.slot = slot;
    gpr_holder_.erase(it);
  }

  int alloc_xmm() {
    const int budget = options_.max_scratch_xmms;
    for (int i = 0; i < budget && i < masm::kXmmCount; ++i) {
      if (xmm_holder_.count(i) == 0) {
        xmm_holder_[i] = nullptr;  // reserve until bind_xmm
        return i;
      }
    }
    // Spill the least-recently-assigned xmm value.
    const ir::Value* oldest = nullptr;
    int reg = -1;
    for (const auto& [r, value] : xmm_holder_) {
      if (value == nullptr) continue;  // reserved, not evictable
      if (oldest == nullptr || loc_order_[value] < loc_order_[oldest]) {
        oldest = value;
        reg = r;
      }
    }
    if (reg < 0) unsupported("xmm allocator deadlock");
    evict_xmm(reg);
    return alloc_xmm();
  }

  void evict_xmm(int reg) {
    auto it = xmm_holder_.find(reg);
    if (it == xmm_holder_.end()) return;
    const ir::Value* value = it->second;
    if (value == nullptr) unsupported("evicting a reserved xmm register");
    Loc& loc = loc_[value];
    const std::int64_t slot = allocate_frame(8);
    emit_glue({Op::kMovsd, {Operand::make_xmm(reg), frame_mem(slot, 8)}});
    loc.kind = Loc::Kind::kSlot;
    loc.slot = slot;
    xmm_holder_.erase(it);
  }

  void bind_gpr(const ir::Value* value, Gpr reg, int width) {
    Loc loc;
    loc.kind = Loc::Kind::kGpr;
    loc.gpr = reg;
    loc.width = width;
    loc_[value] = loc;
    loc_order_[value] = order_counter_++;
    gpr_holder_[reg] = value;
  }

  void bind_xmm(const ir::Value* value, int reg) {
    Loc loc;
    loc.kind = Loc::Kind::kXmm;
    loc.xmm = reg;
    loc.width = 8;
    loc_[value] = loc;
    loc_order_[value] = order_counter_++;
    xmm_holder_[reg] = value;
  }

  void release(const ir::Value* value) {
    auto it = loc_.find(value);
    if (it == loc_.end()) return;
    if (it->second.kind == Loc::Kind::kGpr) gpr_holder_.erase(it->second.gpr);
    if (it->second.kind == Loc::Kind::kXmm) xmm_holder_.erase(it->second.xmm);
    loc_.erase(it);
  }

  /// Releases operand values whose last use is the given instruction.
  void release_dead_operands(const ir::Instruction& inst) {
    for (const ir::Value* operand : inst.operands) {
      if (operand->kind() != ir::ValueKind::kInstruction) continue;
      auto it = remaining_uses_.find(operand);
      if (it != remaining_uses_.end() && --it->second == 0) {
        release(operand);
      }
    }
  }

  // ------------------------------------------------------ value access --

  /// Current register of a value if it already sits in a GPR.
  std::optional<Gpr> lookup_gpr(const ir::Value* value) const {
    auto it = loc_.find(value);
    if (it != loc_.end() && it->second.kind == Loc::Kind::kGpr) {
      return it->second.gpr;
    }
    return std::nullopt;
  }

  /// Puts an integer/pointer value into a GPR and returns it. Every
  /// materialised temporary is bound to its value so that subsequent
  /// allocations cannot hand the same register out again while the value
  /// is still needed.
  Gpr value_to_gpr(const ir::Value* value) {
    switch (value->kind()) {
      case ir::ValueKind::kConstant: {
        const auto* c = static_cast<const ir::Constant*>(value);
        if (auto existing = lookup_gpr(value)) return *existing;
        const Gpr reg = alloc_gpr();
        std::int64_t imm = c->i;
        if (c->type().is_float()) std::memcpy(&imm, &c->f, sizeof(imm));
        emit_glue({Op::kMov, {Operand::make_imm(imm, 8),
                              Operand::make_reg(reg, 8)}});
        bind_gpr(value, reg, 8);
        return reg;
      }
      case ir::ValueKind::kArgument: {
        const auto* arg = static_cast<const ir::Argument*>(value);
        if (auto existing = lookup_gpr(value)) return *existing;
        const Gpr reg = alloc_gpr();
        emit_glue({Op::kMov, {frame_mem(arg_slot_[arg], 8),
                              Operand::make_reg(reg, 8)}});
        bind_gpr(value, reg, 8);
        return reg;
      }
      case ir::ValueKind::kGlobal: {
        const auto* global = static_cast<const ir::GlobalVar*>(value);
        if (auto existing = lookup_gpr(value)) return *existing;
        const Gpr reg = alloc_gpr();
        MemRef mem;
        mem.global_id = program_.global_index(global->name());
        emit_glue({Op::kLea, {Operand::make_mem(mem, 8),
                              Operand::make_reg(reg, 8)}});
        bind_gpr(value, reg, 8);
        return reg;
      }
      case ir::ValueKind::kInstruction: {
        const auto* inst = static_cast<const ir::Instruction*>(value);
        if (inst->op() == Opcode::kAlloca) {
          if (auto existing = lookup_gpr(value)) return *existing;
          const Gpr reg = alloc_gpr();
          emit_glue({Op::kLea, {frame_mem(alloca_offset_[inst], 8),
                                Operand::make_reg(reg, 8)}});
          bind_gpr(value, reg, 8);
          return reg;
        }
        auto it = loc_.find(value);
        if (it == loc_.end()) {
          // Escaping value defined in another block: reload from its slot.
          auto slot_it = escape_slot_.find(inst);
          if (slot_it == escape_slot_.end()) {
            unsupported("value has no location");
          }
          const Gpr reg = alloc_gpr();
          emit_glue({Op::kMov, {frame_mem(slot_it->second, 8),
                                Operand::make_reg(reg, 8)}});
          bind_gpr(value, reg, 8);
          return reg;
        }
        Loc& loc = it->second;
        if (loc.kind == Loc::Kind::kGpr) return loc.gpr;
        if (loc.kind == Loc::Kind::kSlot) {
          const Gpr reg = alloc_gpr();
          emit_glue({Op::kMov, {frame_mem(loc.slot, 8),
                                Operand::make_reg(reg, 8)}});
          loc.kind = Loc::Kind::kGpr;
          loc.gpr = reg;
          gpr_holder_[reg] = value;
          loc_order_[value] = order_counter_++;
          return reg;
        }
        unsupported("integer value in xmm");
      }
    }
    unsupported("unreachable value kind");
  }

  /// Puts an f64 value into an XMM register and returns its index.
  int value_to_xmm(const ir::Value* value) {
    switch (value->kind()) {
      case ir::ValueKind::kConstant: {
        const auto* c = static_cast<const ir::Constant*>(value);
        std::int64_t bits = 0;
        std::memcpy(&bits, &c->f, sizeof(bits));
        const Gpr tmp = alloc_gpr();
        emit_glue({Op::kMov, {Operand::make_imm(bits, 8),
                              Operand::make_reg(tmp, 8)}});
        const int reg = alloc_xmm();
        emit_glue({Op::kMovq, {Operand::make_reg(tmp, 8),
                               Operand::make_xmm(reg)}});
        gpr_holder_.erase(tmp);  // tmp was reserved by alloc, never bound
        bind_xmm(value, reg);
        return reg;
      }
      case ir::ValueKind::kArgument: {
        const auto* arg = static_cast<const ir::Argument*>(value);
        const int reg = alloc_xmm();
        emit_glue({Op::kMovsd, {frame_mem(arg_slot_[arg], 8),
                                Operand::make_xmm(reg)}});
        bind_xmm(value, reg);
        return reg;
      }
      case ir::ValueKind::kInstruction: {
        auto it = loc_.find(value);
        if (it == loc_.end()) {
          const auto* inst = static_cast<const ir::Instruction*>(value);
          auto slot_it = escape_slot_.find(inst);
          if (slot_it == escape_slot_.end()) {
            unsupported("fp value has no location");
          }
          const int reg = alloc_xmm();
          emit_glue({Op::kMovsd, {frame_mem(slot_it->second, 8),
                                  Operand::make_xmm(reg)}});
          bind_xmm(value, reg);
          return reg;
        }
        Loc& loc = it->second;
        if (loc.kind == Loc::Kind::kXmm) return loc.xmm;
        if (loc.kind == Loc::Kind::kSlot) {
          const int reg = alloc_xmm();
          emit_glue({Op::kMovsd, {frame_mem(loc.slot, 8),
                                  Operand::make_xmm(reg)}});
          loc.kind = Loc::Kind::kXmm;
          loc.xmm = reg;
          xmm_holder_[reg] = value;
          loc_order_[value] = order_counter_++;
          return reg;
        }
        unsupported("fp value in gpr");
      }
      default:
        unsupported("bad fp value kind");
    }
  }

  /// Operand for an integer value: an immediate when possible, else a GPR.
  Operand value_operand(const ir::Value* value, int width) {
    if (value->kind() == ir::ValueKind::kConstant &&
        !value->type().is_float()) {
      const auto* c = static_cast<const ir::Constant*>(value);
      if (c->i >= INT32_MIN && c->i <= INT32_MAX) {
        return Operand::make_imm(c->i, width);
      }
    }
    return Operand::make_reg(value_to_gpr(value), width);
  }

  /// Memory operand addressing the pointee of an IR pointer value.
  Operand pointer_mem(const ir::Value* ptr, int width) {
    if (ptr->kind() == ir::ValueKind::kInstruction) {
      const auto* inst = static_cast<const ir::Instruction*>(ptr);
      if (inst->op() == Opcode::kAlloca) {
        return frame_mem(alloca_offset_[inst], width);
      }
    }
    if (ptr->kind() == ir::ValueKind::kGlobal) {
      const auto* global = static_cast<const ir::GlobalVar*>(ptr);
      MemRef mem;
      mem.global_id = program_.global_index(global->name());
      return Operand::make_mem(mem, width);
    }
    MemRef mem;
    mem.base = value_to_gpr(ptr);
    return Operand::make_mem(mem, width);
  }

  /// Stores a freshly defined value to its escape slot if it crosses
  /// blocks.
  void store_if_escaping(const ir::Instruction* inst) {
    auto it = escape_slot_.find(inst);
    if (it == escape_slot_.end()) return;
    if (inst->type().is_float()) {
      const int reg = value_to_xmm(inst);
      emit_glue({Op::kMovsd, {Operand::make_xmm(reg),
                              frame_mem(it->second, 8)}});
    } else {
      const Gpr reg = value_to_gpr(inst);
      emit_glue({Op::kMov, {Operand::make_reg(reg, 8),
                            frame_mem(it->second, 8)}});
    }
  }

  // ------------------------------------------------------------ lowering --

  void lower_block(const ir::BasicBlock& block) {
    // Count uses of each locally defined value so registers free up at the
    // last use (escaping values keep their slot regardless).
    remaining_uses_.clear();
    for (const auto& inst : block.instructions()) {
      for (const ir::Value* operand : inst->operands) {
        if (operand->kind() == ir::ValueKind::kInstruction) {
          remaining_uses_[operand]++;
        }
      }
    }

    const std::size_t count = block.size();
    for (std::size_t i = 0; i < count; ++i) {
      const ir::Instruction* inst = block.at(i);
      // cmp+jcc fusion: an icmp/fcmp immediately followed by the condbr
      // that is its only use lowers as part of the branch.
      if ((inst->op() == Opcode::kICmp || inst->op() == Opcode::kFCmp) &&
          i + 1 < count) {
        const ir::Instruction* next = block.at(i + 1);
        if (next->op() == Opcode::kCondBr && next->operands[0] == inst &&
            use_count_[inst] == 1) {
          lower_fused_branch(*inst, *next);
          return;
        }
      }
      lower_inst(*inst);
      if (!inst->type().is_void()) store_if_escaping(inst);
      release_dead_operands(*inst);
    }
  }

  void lower_fused_branch(const ir::Instruction& cmp,
                          const ir::Instruction& br) {
    Cond cc;
    if (cmp.op() == Opcode::kICmp) {
      const int width = width_of(cmp.operands[0]->type());
      const Gpr lhs = value_to_gpr(cmp.operands[0]);
      const Operand rhs = value_operand(cmp.operands[1], width);
      emit_ir({Op::kCmp, {rhs, Operand::make_reg(lhs, width)}});
      cc = cond_of_icmp(cmp.pred);
    } else {
      const int lhs = value_to_xmm(cmp.operands[0]);
      const int rhs = value_to_xmm(cmp.operands[1]);
      emit_ir({Op::kUcomisd, {Operand::make_xmm(rhs),
                              Operand::make_xmm(lhs)}});
      cc = cond_of_fcmp(cmp.pred);
    }
    release_dead_operands(cmp);
    emit_ir({Op::kJcc, cc,
             {Operand::make_label("L" + br.targets[0]->name())}});
    emit_ir({Op::kJmp, {Operand::make_label("L" + br.targets[1]->name())}});
  }

  void lower_inst(const ir::Instruction& inst) {
    switch (inst.op()) {
      case Opcode::kAlloca:
        break;  // frame slot assigned during analysis
      case Opcode::kLoad: lower_load(inst); break;
      case Opcode::kStore: lower_store(inst); break;
      case Opcode::kGep: lower_gep(inst); break;
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
      case Opcode::kSDiv: case Opcode::kSRem: case Opcode::kAnd:
      case Opcode::kOr: case Opcode::kXor:
        lower_int_binary(inst);
        break;
      case Opcode::kShl: case Opcode::kAShr:
        lower_shift(inst);
        break;
      case Opcode::kFAdd: case Opcode::kFSub: case Opcode::kFMul:
      case Opcode::kFDiv:
        lower_fp_binary(inst);
        break;
      case Opcode::kICmp: lower_icmp(inst); break;
      case Opcode::kFCmp: lower_fcmp(inst); break;
      case Opcode::kSext: case Opcode::kZext: case Opcode::kTrunc:
        lower_int_cast(inst);
        break;
      case Opcode::kSiToFp: {
        const Gpr src = value_to_gpr(inst.operands[0]);
        const int dst = alloc_xmm();
        emit_ir({Op::kCvtsi2sd,
                 {Operand::make_reg(src, width_of(inst.operands[0]->type()) == 4
                                             ? 4 : 8),
                  Operand::make_xmm(dst)}});
        bind_xmm(&inst, dst);
        break;
      }
      case Opcode::kFpToSi: {
        const int src = value_to_xmm(inst.operands[0]);
        const Gpr dst = alloc_gpr();
        const int width = width_of(inst.type()) == 4 ? 4 : 8;
        emit_ir({Op::kCvttsd2si, {Operand::make_xmm(src),
                                  Operand::make_reg(dst, width)}});
        bind_gpr(&inst, dst, width);
        break;
      }
      case Opcode::kCall: lower_call(inst); break;
      case Opcode::kBr:
        emit_ir({Op::kJmp,
                 {Operand::make_label("L" + inst.targets[0]->name())}});
        break;
      case Opcode::kCondBr: lower_condbr(inst); break;
      case Opcode::kRet: lower_ret(inst); break;

    }
  }

  void lower_load(const ir::Instruction& inst) {
    const int width = width_of(inst.type());
    if (inst.type().is_float()) {
      const Operand src = pointer_mem(inst.operands[0], 8);
      const int dst = alloc_xmm();
      emit_ir({Op::kMovsd, {src, Operand::make_xmm(dst)}});
      bind_xmm(&inst, dst);
      return;
    }
    const Operand src = pointer_mem(inst.operands[0], width);
    const Gpr dst = alloc_gpr();
    if (width == 1) {
      emit_ir({Op::kMovzx, {src, Operand::make_reg(dst, 4)}});
      bind_gpr(&inst, dst, 1);
    } else {
      emit_ir({Op::kMov, {src, Operand::make_reg(dst, width)}});
      bind_gpr(&inst, dst, width);
    }
  }

  void lower_store(const ir::Instruction& inst) {
    const ir::Value* value = inst.operands[0];
    const int width = width_of(value->type());
    if (value->type().is_float()) {
      const int src = value_to_xmm(value);
      const Operand dst = pointer_mem(inst.operands[1], 8);
      emit_ir({Op::kMovsd, {Operand::make_xmm(src), dst}});
      return;
    }
    const Operand src = value_operand(value, width);
    const Operand dst = pointer_mem(inst.operands[1], width);
    emit_ir({Op::kMov, {src, dst}});
  }

  void lower_gep(const ir::Instruction& inst) {
    const int scale = ir::scalar_size(inst.type().elem);
    const Gpr index = value_to_gpr(inst.operands[1]);
    const ir::Value* base = inst.operands[0];
    const Gpr dst = alloc_gpr();
    MemRef mem;
    if (base->kind() == ir::ValueKind::kInstruction &&
        static_cast<const ir::Instruction*>(base)->op() == Opcode::kAlloca) {
      mem.base = Gpr::kRbp;
      mem.disp =
          alloca_offset_[static_cast<const ir::Instruction*>(base)];
    } else if (base->kind() == ir::ValueKind::kGlobal) {
      mem.global_id = program_.global_index(
          static_cast<const ir::GlobalVar*>(base)->name());
    } else {
      mem.base = value_to_gpr(base);
    }
    mem.index = index;
    mem.scale = scale;
    emit_ir({Op::kLea, {Operand::make_mem(mem, 8),
                        Operand::make_reg(dst, 8)}});
    bind_gpr(&inst, dst, 8);
  }

  void lower_int_binary(const ir::Instruction& inst) {
    const int width = width_of(inst.type()) == 8 ? 8 : 4;
    const Gpr lhs = value_to_gpr(inst.operands[0]);
    const Gpr dst = alloc_gpr();
    emit_glue({Op::kMov, {Operand::make_reg(lhs, width),
                          Operand::make_reg(dst, width)}});
    bind_gpr(&inst, dst, width);
    const Operand rhs = value_operand(inst.operands[1], width);
    Op op;
    switch (inst.op()) {
      case Opcode::kAdd: op = Op::kAdd; break;
      case Opcode::kSub: op = Op::kSub; break;
      case Opcode::kMul: op = Op::kImul; break;
      case Opcode::kSDiv: op = Op::kIdiv; break;
      case Opcode::kSRem: op = Op::kIrem; break;
      case Opcode::kAnd: op = Op::kAnd; break;
      case Opcode::kOr: op = Op::kOr; break;
      default: op = Op::kXor; break;
    }
    emit_ir({op, {rhs, Operand::make_reg(dst, width)}});
  }

  void lower_shift(const ir::Instruction& inst) {
    const int width = width_of(inst.type()) == 8 ? 8 : 4;
    const Op op = inst.op() == Opcode::kShl ? Op::kShl : Op::kSar;
    if (inst.operands[1]->kind() == ir::ValueKind::kConstant) {
      const auto* c = static_cast<const ir::Constant*>(inst.operands[1]);
      const Gpr lhs = value_to_gpr(inst.operands[0]);
      const Gpr dst = alloc_gpr();
      emit_glue({Op::kMov, {Operand::make_reg(lhs, width),
                            Operand::make_reg(dst, width)}});
      emit_ir({op, {Operand::make_imm(c->i & 63, 1),
                    Operand::make_reg(dst, width)}});
      bind_gpr(&inst, dst, width);
      return;
    }
    // Variable shift count goes through %cl. Evict and reserve rcx first:
    // materialising the other operands must not be handed rcx, and the
    // lhs register fetched above may itself have been evicted.
    evict_gpr(Gpr::kRcx);
    gpr_holder_[Gpr::kRcx] = nullptr;  // reserve rcx while shifting
    const Gpr count = value_to_gpr(inst.operands[1]);
    if (count != Gpr::kRcx) {
      emit_glue({Op::kMov, {Operand::make_reg(count, 8),
                            Operand::make_reg(Gpr::kRcx, 8)}});
    }
    const Gpr dst = alloc_gpr();
    const Gpr lhs_now = value_to_gpr(inst.operands[0]);
    emit_glue({Op::kMov, {Operand::make_reg(lhs_now, width),
                          Operand::make_reg(dst, width)}});
    emit_ir({op, {Operand::make_reg(Gpr::kRcx, 1),
                  Operand::make_reg(dst, width)}});
    gpr_holder_.erase(Gpr::kRcx);
    bind_gpr(&inst, dst, width);
  }

  void lower_fp_binary(const ir::Instruction& inst) {
    const int lhs = value_to_xmm(inst.operands[0]);
    const int dst = alloc_xmm();
    emit_glue({Op::kMovsd, {Operand::make_xmm(lhs), Operand::make_xmm(dst)}});
    bind_xmm(&inst, dst);
    const int rhs = value_to_xmm(inst.operands[1]);
    Op op;
    switch (inst.op()) {
      case Opcode::kFAdd: op = Op::kAddsd; break;
      case Opcode::kFSub: op = Op::kSubsd; break;
      case Opcode::kFMul: op = Op::kMulsd; break;
      default: op = Op::kDivsd; break;
    }
    emit_ir({op, {Operand::make_xmm(rhs), Operand::make_xmm(dst)}});
  }

  void lower_icmp(const ir::Instruction& inst) {
    const int width = width_of(inst.operands[0]->type());
    const Gpr lhs = value_to_gpr(inst.operands[0]);
    const Operand rhs = value_operand(inst.operands[1], width);
    emit_ir({Op::kCmp, {rhs, Operand::make_reg(lhs, width)}});
    const Gpr dst = alloc_gpr();
    // Materialised comparison result: the setcc itself is invisible at IR
    // level — a key coverage-gap site (paper Sec IV-B1).
    emit_glue({AsmInst(Op::kSetcc, cond_of_icmp(inst.pred),
                       {Operand::make_reg(dst, 1)})});
    bind_gpr(&inst, dst, 1);
  }

  void lower_fcmp(const ir::Instruction& inst) {
    const int lhs = value_to_xmm(inst.operands[0]);
    const int rhs = value_to_xmm(inst.operands[1]);
    emit_ir({Op::kUcomisd, {Operand::make_xmm(rhs), Operand::make_xmm(lhs)}});
    const Gpr dst = alloc_gpr();
    emit_glue({AsmInst(Op::kSetcc, cond_of_fcmp(inst.pred),
                       {Operand::make_reg(dst, 1)})});
    bind_gpr(&inst, dst, 1);
  }

  void lower_int_cast(const ir::Instruction& inst) {
    const int from = width_of(inst.operands[0]->type());
    const int to = width_of(inst.type());
    const Gpr src = value_to_gpr(inst.operands[0]);
    const Gpr dst = alloc_gpr();
    if (inst.op() == Opcode::kSext && from < to) {
      emit_ir({Op::kMovsx, {Operand::make_reg(src, from),
                            Operand::make_reg(dst, to)}});
    } else if (inst.op() == Opcode::kZext && from < to) {
      if (from == 1) {
        emit_ir({Op::kMovzx, {Operand::make_reg(src, 1),
                              Operand::make_reg(dst, to == 8 ? 8 : 4)}});
      } else {
        // 32 -> 64 zero extension is an implicit property of 32-bit moves.
        emit_ir({Op::kMov, {Operand::make_reg(src, 4),
                            Operand::make_reg(dst, 4)}});
      }
    } else {
      // Truncation or same-width rename: a plain move at target width.
      emit_ir({Op::kMov, {Operand::make_reg(src, to),
                          Operand::make_reg(dst, to)}});
    }
    bind_gpr(&inst, dst, to);
  }

  void lower_condbr(const ir::Instruction& inst) {
    // Unfused path: re-test the materialised i1 — the `testb` writes flags
    // and is exactly the unprotected site of the paper's Fig 9.
    const Gpr cond = value_to_gpr(inst.operands[0]);
    emit_glue({Op::kTest, {Operand::make_imm(1, 1),
                           Operand::make_reg(cond, 1)}});
    emit_ir({AsmInst(Op::kJcc, Cond::kNe,
                     {Operand::make_label("L" + inst.targets[0]->name())})});
    emit_ir({Op::kJmp, {Operand::make_label("L" + inst.targets[1]->name())}});
  }

  void lower_ret(const ir::Instruction& inst) {
    if (!inst.operands.empty()) {
      const ir::Value* value = inst.operands[0];
      if (value->type().is_float()) {
        const int src = value_to_xmm(value);
        if (src != 0) {
          evict_xmm(0);
          emit_glue({Op::kMovsd, {Operand::make_xmm(src),
                                  Operand::make_xmm(0)}});
        }
      } else {
        const Gpr src = value_to_gpr(value);
        if (src != Gpr::kRax) {
          evict_gpr(Gpr::kRax);
          emit_glue({Op::kMov, {Operand::make_reg(src, 8),
                                Operand::make_reg(Gpr::kRax, 8)}});
        }
      }
    }
    emit_ir({Op::kJmp, {Operand::make_label("epilogue")}});
  }

  void lower_call(const ir::Instruction& inst) {
    // The EDDI detector entry point lowers to the VM's detect trap.
    if (inst.callee->is_builtin && inst.callee->name() == "__eddi_detect") {
      emit_ir({Op::kDetectTrap, {}});
      return;
    }
    // sqrt lowers to the SSE instruction directly.
    if (inst.callee->is_builtin && inst.callee->name() == "sqrt") {
      const int src = value_to_xmm(inst.operands[0]);
      const int dst = alloc_xmm();
      emit_ir({Op::kSqrtsd, {Operand::make_xmm(src), Operand::make_xmm(dst)}});
      bind_xmm(&inst, dst);
      return;
    }

    // Spill every live value held in a caller-saved register.
    std::vector<Gpr> to_spill_gpr;
    for (const auto& [reg, value] : gpr_holder_) {
      if (value != nullptr && is_caller_saved_gpr(reg)) {
        to_spill_gpr.push_back(reg);
      }
    }
    for (Gpr reg : to_spill_gpr) evict_gpr(reg);
    std::vector<int> to_spill_xmm;
    for (const auto& [reg, value] : xmm_holder_) {
      if (value != nullptr) to_spill_xmm.push_back(reg);
    }
    for (int reg : to_spill_xmm) evict_xmm(reg);

    // Marshal arguments.
    int int_seen = 0;
    int fp_seen = 0;
    for (const ir::Value* arg : inst.operands) {
      if (arg->type().is_float()) {
        if (fp_seen >= kMaxFpArgs) unsupported("too many fp args");
        const int src = value_to_xmm(arg);
        if (src != fp_seen) {
          emit_glue({Op::kMovsd, {Operand::make_xmm(src),
                                  Operand::make_xmm(fp_seen)}});
        }
        ++fp_seen;
      } else {
        if (int_seen >= kMaxIntArgs) unsupported("too many int args");
        const Gpr target = kIntArgRegs[int_seen];
        const Gpr src = value_to_gpr(arg);
        if (src != target) {
          evict_gpr(target);
          emit_glue({Op::kMov, {Operand::make_reg(src, 8),
                                Operand::make_reg(target, 8)}});
        }
        // Reserve the marshalled register: materialising later arguments
        // must not be handed an ABI register that already carries one.
        if (gpr_holder_.count(target) == 0) gpr_holder_[target] = nullptr;
        ++int_seen;
      }
    }
    // Argument registers may still be "held" by the marshalled values
    // themselves; the call clobbers caller-saved state, so clear them.
    for (Gpr reg : {Gpr::kRax, Gpr::kRcx, Gpr::kRdx, Gpr::kRsi, Gpr::kRdi,
                    Gpr::kR8, Gpr::kR9, Gpr::kR10, Gpr::kR11}) {
      auto it = gpr_holder_.find(reg);
      if (it != gpr_holder_.end()) {
        if (it->second != nullptr) loc_[it->second].kind = Loc::Kind::kNone;
        gpr_holder_.erase(it);
      }
    }
    for (int reg = 0; reg < masm::kXmmCount; ++reg) {
      auto it = xmm_holder_.find(reg);
      if (it != xmm_holder_.end()) {
        if (it->second != nullptr) loc_[it->second].kind = Loc::Kind::kNone;
        xmm_holder_.erase(it);
      }
    }

    emit_ir({Op::kCall, {Operand::make_func(inst.callee->name())}});

    if (inst.type().is_void()) return;
    if (inst.type().is_float()) {
      const int dst = alloc_xmm();
      if (dst != 0) {
        emit_glue({Op::kMovsd, {Operand::make_xmm(0),
                                Operand::make_xmm(dst)}});
      }
      bind_xmm(&inst, dst);
    } else {
      const Gpr dst = alloc_gpr();
      if (dst != Gpr::kRax) {
        emit_glue({Op::kMov, {Operand::make_reg(Gpr::kRax, 8),
                              Operand::make_reg(dst, 8)}});
      }
      bind_gpr(&inst, dst, width_of(inst.type()));
    }
  }

  const ir::Function& fn_;
  AsmProgram& program_;
  const ir::Module& module_;
  const BackendOptions& options_;
  AsmFunction* asm_fn_ = nullptr;
  AsmBlock* cur_ = nullptr;

  std::unordered_map<const ir::Instruction*, const ir::BasicBlock*>
      inst_block_;
  std::unordered_map<const ir::Instruction*, int> inst_index_;
  std::unordered_map<const ir::Value*, int> use_count_;
  std::unordered_set<const ir::Instruction*> escaping_;
  std::unordered_map<const ir::Instruction*, std::int64_t> alloca_offset_;
  std::unordered_map<const ir::Argument*, std::int64_t> arg_slot_;
  std::unordered_map<const ir::Instruction*, std::int64_t> escape_slot_;
  std::unordered_map<Gpr, std::int64_t> callee_home_;

  std::int64_t frame_size_ = 0;
  int frame_sub_block_ = 0;
  int frame_sub_index_ = 0;
  int callee_save_block_ = 0;

  // Per-block allocator state.
  std::unordered_map<const ir::Value*, Loc> loc_;
  std::unordered_map<const ir::Value*, std::uint64_t> loc_order_;
  std::unordered_map<Gpr, const ir::Value*> gpr_holder_;
  std::unordered_map<int, const ir::Value*> xmm_holder_;
  std::unordered_map<const ir::Value*, int> remaining_uses_;
  std::uint64_t order_counter_ = 0;
};

}  // namespace

masm::AsmProgram lower(const ir::Module& module,
                       const BackendOptions& options) {
  AsmProgram program;
  // Globals first so symbol ids are stable for the whole lowering.
  for (const auto& global : module.globals()) {
    masm::AsmGlobal out;
    out.name = global->name();
    const int elem = ir::scalar_size(global->element());
    out.size_bytes = global->count() * elem;
    for (std::size_t i = 0; i < global->init.size(); ++i) {
      std::uint8_t bytes[8];
      std::memcpy(bytes, &global->init[i], 8);
      for (int b = 0; b < elem; ++b) out.init.push_back(bytes[b]);
    }
    program.globals.push_back(std::move(out));
  }
  for (const auto& fn : module.functions()) {
    if (fn->is_declaration()) continue;
    FunctionLowering lowering(*fn, program, module, options);
    lowering.run();
  }
  return program;
}

}  // namespace ferrum::backend
