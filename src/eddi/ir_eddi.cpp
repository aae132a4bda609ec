#include "eddi/ir_eddi.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace ferrum::eddi {

namespace {

using ir::BasicBlock;
using ir::CmpPred;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Type;
using ir::Value;

bool is_sync_point(Opcode op) {
  return op == Opcode::kStore || op == Opcode::kCall ||
         op == Opcode::kCondBr || op == Opcode::kRet;
}

class IrEddiPass {
 public:
  IrEddiPass(Module& module, IrEddiMode mode) : module_(module), mode_(mode) {}

  IrEddiStats run() {
    // Declare the detector up front: creating it lazily while iterating
    // would invalidate the function list.
    module_.builtin_detect();
    std::vector<Function*> functions;
    for (const auto& fn : module_.functions()) {
      if (!fn->is_declaration()) functions.push_back(fn.get());
    }
    for (Function* fn : functions) protect_function(*fn);
    return stats_;
  }

 private:
  void protect_function(Function& fn) {
    shadow_.clear();
    detect_block_ = nullptr;
    fn_ = &fn;

    // Snapshot the block list: the pass appends continuation blocks.
    std::vector<BasicBlock*> original_blocks;
    for (const auto& block : fn.blocks()) original_blocks.push_back(block.get());

    for (BasicBlock* block : original_blocks) {
      if (mode_ == IrEddiMode::kClassic) {
        protect_block_classic(block);
      } else {
        protect_block_signature(block);
      }
    }
  }

  BasicBlock* detect_block() {
    if (detect_block_ == nullptr) {
      detect_block_ = fn_->add_block("eddi.detect");
      auto call =
          std::make_unique<Instruction>(Opcode::kCall, Type::void_type());
      call->callee = module_.builtin_detect();
      detect_block_->append(std::move(call));
      emit_default_return(detect_block_);
    }
    return detect_block_;
  }

  void emit_default_return(BasicBlock* block) {
    auto ret = std::make_unique<Instruction>(Opcode::kRet, Type::void_type());
    if (!fn_->return_type().is_void()) {
      if (fn_->return_type().is_float()) {
        ret->operands = {module_.const_f64(0.0)};
      } else {
        ret->operands = {module_.const_int(fn_->return_type(), 0)};
      }
    }
    block->append(std::move(ret));
  }

  /// Clones a duplicable instruction, routing operands through the shadow
  /// dataflow where a shadow exists.
  std::unique_ptr<Instruction> clone_with_shadows(const Instruction& inst) {
    auto dup = std::make_unique<Instruction>(inst.op(), inst.type());
    dup->pred = inst.pred;
    dup->alloca_elem = inst.alloca_elem;
    dup->alloca_count = inst.alloca_count;
    dup->callee = inst.callee;
    for (Value* operand : inst.operands) {
      auto it = shadow_.find(operand);
      dup->operands.push_back(it != shadow_.end() ? it->second : operand);
    }
    return dup;
  }

  /// Emits `ok = (a == b); condbr ok, cont, detect` at the end of `block`
  /// and returns the continuation block.
  BasicBlock* emit_check(BasicBlock* block, Value* a, Value* b) {
    auto cmp = std::make_unique<Instruction>(
        a->type().is_float() ? Opcode::kFCmp : Opcode::kICmp, Type::i1());
    cmp->pred = CmpPred::kEq;
    cmp->operands = {a, b};
    Instruction* ok = block->append(std::move(cmp));

    BasicBlock* cont = fn_->add_block(block->name() + ".cont");
    auto br = std::make_unique<Instruction>(Opcode::kCondBr, Type::void_type());
    br->operands = {ok};
    br->targets[0] = cont;
    br->targets[1] = detect_block();
    block->append(std::move(br));
    ++stats_.checks;
    return cont;
  }

  void protect_block_classic(BasicBlock* block) {
    std::vector<std::unique_ptr<Instruction>> originals =
        block->take_instructions();
    BasicBlock* cur = block;
    for (auto& inst_ptr : originals) {
      Instruction* inst = inst_ptr.get();
      if (is_sync_point(inst->op())) {
        // Check every shadowed operand before the value escapes.
        for (Value* operand : inst->operands) {
          auto it = shadow_.find(operand);
          if (it == shadow_.end()) continue;
          cur = emit_check(cur, operand, it->second);
        }
        cur->append(std::move(inst_ptr));
        continue;
      }
      cur->append(std::move(inst_ptr));
      if (ir::is_duplicable(inst->op())) {
        Instruction* dup = cur->append(clone_with_shadows(*inst));
        shadow_[inst] = dup;
        ++stats_.duplicated;
      }
    }
  }

  void protect_block_signature(BasicBlock* block) {
    std::vector<std::unique_ptr<Instruction>> originals =
        block->take_instructions();

    // Does the block end with [icmp/fcmp, condbr-on-it]? Then the compare
    // is branch-feeding and gets edge assertions instead of a value check.
    const std::size_t count = originals.size();
    bool fused_tail = false;
    Instruction* tail_cmp = nullptr;
    if (count >= 2) {
      Instruction* last = originals[count - 1].get();
      Instruction* prev = originals[count - 2].get();
      if (last->op() == Opcode::kCondBr && !last->operands.empty() &&
          last->operands[0] == prev &&
          (prev->op() == Opcode::kICmp || prev->op() == Opcode::kFCmp)) {
        fused_tail = true;
        tail_cmp = prev;
      }
    }

    BasicBlock* cur = block;
    for (std::size_t i = 0; i < count; ++i) {
      Instruction* inst = originals[i].get();
      const bool is_tail_cmp = fused_tail && i == count - 2;
      const bool is_tail_br = fused_tail && i == count - 1;

      if (is_tail_br) {
        // Rewrite the branch through per-edge assertion blocks.
        Value* shadow = shadow_[tail_cmp];
        BasicBlock* true_tramp =
            make_edge_assertion(shadow, true, inst->targets[0]);
        BasicBlock* false_tramp =
            make_edge_assertion(shadow, false, inst->targets[1]);
        inst->targets[0] = true_tramp;
        inst->targets[1] = false_tramp;
        cur->append(std::move(originals[i]));
        continue;
      }

      cur->append(std::move(originals[i]));
      if (inst->op() == Opcode::kICmp || inst->op() == Opcode::kFCmp) {
        Instruction* dup = cur->append(clone_with_shadows(*inst));
        shadow_[inst] = dup;
        ++stats_.duplicated;
        if (!is_tail_cmp) {
          // Standalone (materialised) comparison: immediate value check.
          cur = emit_check(cur, inst, dup);
        }
      }
    }
  }

  /// Builds `tramp: ok = (shadow == expected); condbr ok, target, detect`.
  BasicBlock* make_edge_assertion(Value* shadow, bool expected,
                                  BasicBlock* target) {
    BasicBlock* tramp = fn_->add_block("edge.assert");
    auto cmp = std::make_unique<Instruction>(Opcode::kICmp, Type::i1());
    cmp->pred = CmpPred::kEq;
    cmp->operands = {shadow, module_.const_i1(expected)};
    Instruction* ok = tramp->append(std::move(cmp));
    auto br = std::make_unique<Instruction>(Opcode::kCondBr, Type::void_type());
    br->operands = {ok};
    br->targets[0] = target;
    br->targets[1] = detect_block();
    tramp->append(std::move(br));
    ++stats_.edge_assertions;
    return tramp;
  }

  Module& module_;
  IrEddiMode mode_;
  Function* fn_ = nullptr;
  BasicBlock* detect_block_ = nullptr;
  std::unordered_map<Value*, Value*> shadow_;
  IrEddiStats stats_;
};

}  // namespace

IrEddiStats apply_ir_eddi(ir::Module& module, IrEddiMode mode) {
  return IrEddiPass(module, mode).run();
}

}  // namespace ferrum::eddi
