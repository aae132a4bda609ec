#include "masm/verifier.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "masm/cfg.h"

namespace ferrum::masm {

namespace {

bool is_terminatorish(Op op) {
  return op == Op::kJmp || op == Op::kJcc || op == Op::kRet;
}

/// Known intrinsics and their (int, fp) argument counts.
const std::unordered_map<std::string, std::pair<int, int>>& intrinsics() {
  static const std::unordered_map<std::string, std::pair<int, int>> names = {
      {"print_int", {1, 0}}, {"print_f64", {0, 1}}};
  return names;
}

/// Integer-argument registers, System V order (mirrors the backend).
constexpr Gpr kIntArgRegs[] = {Gpr::kRdi, Gpr::kRsi, Gpr::kRdx,
                               Gpr::kRcx, Gpr::kR8,  Gpr::kR9};

/// Register set a callee expects to find populated.
LiveSet arg_regs_mask(int int_args, int fp_args) {
  LiveSet mask = 0;
  for (int i = 0; i < int_args && i < 6; ++i) mask |= gpr_bit(kIntArgRegs[i]);
  for (int i = 0; i < fp_args && i < 8; ++i) mask |= xmm_bit(i);
  return mask;
}

/// Caller-saved state a call clobbers (the callee may trash these).
LiveSet call_clobber_mask() {
  LiveSet mask = 0;
  for (Gpr reg : {Gpr::kRax, Gpr::kRcx, Gpr::kRdx, Gpr::kRsi, Gpr::kRdi,
                  Gpr::kR8, Gpr::kR9, Gpr::kR10, Gpr::kR11}) {
    mask |= gpr_bit(reg);
  }
  for (int i = 0; i < kXmmCount; ++i) mask |= xmm_bit(i);
  return mask;
}

class Verifier {
 public:
  Verifier(const AsmProgram& program, bool require_main)
      : program_(program), require_main_(require_main) {}

  std::vector<std::string> run() {
    if (require_main_ && program_.find_function("main") == nullptr) {
      problems_.push_back("program has no main function");
    }
    for (const AsmFunction& fn : program_.functions) check_function(fn);
    return std::move(problems_);
  }

 private:
  void problem(const AsmFunction& fn, const std::string& message) {
    problems_.push_back(fn.name + ": " + message);
  }

  void check_function(const AsmFunction& fn) {
    if (fn.blocks.empty()) {
      problem(fn, "function has no blocks");
      return;
    }
    std::unordered_set<std::string> labels;
    for (const AsmBlock& block : fn.blocks) {
      if (!labels.insert(block.label).second) {
        problem(fn, "duplicate block label ." + block.label);
      }
    }
    for (const AsmBlock& block : fn.blocks) {
      // jcc may appear anywhere (it falls through), but unconditional
      // jmp/ret make everything after them unreachable: they are only
      // legal in the block's trailing terminator cluster.
      std::size_t cluster = block.insts.size();
      while (cluster > 0 && is_terminatorish(block.insts[cluster - 1].op)) {
        --cluster;
      }
      for (std::size_t i = 0; i < block.insts.size(); ++i) {
        const AsmInst& inst = block.insts[i];
        if ((inst.op == Op::kJmp || inst.op == Op::kRet) && i < cluster) {
          problem(fn, "." + block.label +
                          ": unreachable code after " + inst.to_string());
        }
        check_inst(fn, block, inst, labels);
      }
    }
    check_call_discipline(fn);
  }

  /// Register set a call's callee expects populated, or 0 if unknowable
  /// (unknown callee, or parsed assembly whose arg counts default to 0).
  LiveSet required_args(const AsmInst& inst) const {
    if (inst.nops != 1 || inst.ops[0].kind != Operand::Kind::kFunc) return 0;
    const std::string& callee = inst.ops[0].label;
    if (const AsmFunction* f = program_.find_function(callee)) {
      return arg_regs_mask(f->int_args, f->fp_args);
    }
    auto it = intrinsics().find(callee);
    return it == intrinsics().end() ? 0
                                    : arg_regs_mask(it->second.first,
                                                    it->second.second);
  }

  /// Forward must-analysis of definitely-assigned registers: at every
  /// call, the callee's argument registers must be assigned on all paths
  /// from function entry. Catches protection or backend rewrites that
  /// clobber a marshalled argument (a call clobbers caller-saved state,
  /// so an argument surviving one call does not satisfy the next).
  void check_call_discipline(const AsmFunction& fn) {
    const int block_count = static_cast<int>(fn.blocks.size());
    const LiveSet top = ~LiveSet{0};
    // Entry state: the function's own incoming arguments plus the stack
    // registers, which the ABI guarantees are valid on entry.
    const LiveSet entry = arg_regs_mask(fn.int_args, fn.fp_args) |
                          gpr_bit(Gpr::kRsp) | gpr_bit(Gpr::kRbp);

    // Walks one block from `state`, meeting each outgoing edge's state
    // into `edge_in`. Protection checks put jcc mid-block, so the state
    // exported to a branch target is the state at that jcc, not the
    // block's final state (build_cfg's block-granular edges would both
    // miss those branches and be less precise).
    auto transfer = [&](int b, LiveSet state, std::vector<LiveSet>* edge_in,
                        std::vector<std::string>* missing) {
      const AsmBlock& block = fn.blocks[b];
      for (const AsmInst& inst : block.insts) {
        if (inst.op == Op::kCall) {
          const LiveSet required = required_args(inst);
          if (missing != nullptr && (state & required) != required) {
            std::ostringstream os;
            os << "." << block.label << ": " << inst.to_string()
               << " argument register(s) not definitely assigned:";
            for (int i = 0; i < 6; ++i) {
              if ((required & ~state & gpr_bit(kIntArgRegs[i])) != 0) {
                os << " %" << gpr_name(kIntArgRegs[i], 8);
              }
            }
            for (int i = 0; i < 8; ++i) {
              if ((required & ~state & xmm_bit(i)) != 0) os << " %xmm" << i;
            }
            missing->push_back(os.str());
          }
          // The callee clobbers caller-saved state and hands back its
          // return registers.
          state = (state & ~call_clobber_mask()) | gpr_bit(Gpr::kRax) |
                  xmm_bit(0);
        } else if (inst.op == Op::kJcc || inst.op == Op::kJmp) {
          const int target = fn.block_index(inst.ops[0].label);
          if (target >= 0 && edge_in != nullptr) {
            (*edge_in)[target] &= state;
          }
          if (inst.op == Op::kJmp) return;  // nothing below executes
        } else if (inst.op == Op::kRet || inst.op == Op::kDetectTrap) {
          return;
        } else {
          state |= use_def_of(inst).def;
        }
      }
      // Implicit fall-through to the next block in layout order.
      if (b + 1 < block_count && edge_in != nullptr) {
        (*edge_in)[b + 1] &= state;
      }
    };

    // Round-robin must-fixpoint. Blocks never reached stay at top and are
    // skipped when reporting (dead blocks would flag phantom problems).
    std::vector<LiveSet> in(block_count, top);
    in[0] = entry;
    bool changed = true;
    while (changed) {
      std::vector<LiveSet> next(block_count, top);
      next[0] = entry;
      for (int b = 0; b < block_count; ++b) {
        if (in[b] == top && b != 0) continue;  // not yet reached
        transfer(b, in[b], &next, nullptr);
      }
      changed = next != in;
      in = std::move(next);
    }
    for (int b = 0; b < block_count; ++b) {
      if (in[b] == top && b != 0) continue;  // unreachable
      std::vector<std::string> missing;
      transfer(b, in[b], nullptr, &missing);
      for (const std::string& message : missing) problem(fn, message);
    }
  }

  void check_operand(const AsmFunction& fn, const AsmBlock& block,
                     const AsmInst& inst, const Operand& op) {
    switch (op.kind) {
      case Operand::Kind::kReg:
        if (op.reg == Gpr::kNone) {
          problem(fn, "." + block.label + ": null register in " +
                          inst.to_string());
        }
        if (op.width != 1 && op.width != 4 && op.width != 8) {
          problem(fn, "." + block.label + ": bad register width in " +
                          inst.to_string());
        }
        break;
      case Operand::Kind::kXmm:
        if (op.xmm < 0 || op.xmm >= kXmmCount) {
          problem(fn, "." + block.label + ": xmm index out of range in " +
                          inst.to_string());
        }
        break;
      case Operand::Kind::kMem:
        if (op.mem.global_id >= 0 &&
            op.mem.global_id >= static_cast<int>(program_.globals.size())) {
          problem(fn, "." + block.label + ": global id out of range in " +
                          inst.to_string());
        }
        if (op.mem.scale != 1 && op.mem.scale != 2 && op.mem.scale != 4 &&
            op.mem.scale != 8) {
          problem(fn, "." + block.label + ": illegal scale in " +
                          inst.to_string());
        }
        break;
      default:
        break;
    }
  }

  void check_inst(const AsmFunction& fn, const AsmBlock& block,
                  const AsmInst& inst,
                  const std::unordered_set<std::string>& labels) {
    for (int i = 0; i < inst.nops; ++i) {
      check_operand(fn, block, inst, inst.ops[i]);
    }
    if (!gpr_operands_ok(inst)) {
      problem(fn, "." + block.label + ": non-register operand where " +
                      inst.to_string() + " uses a register");
    }
    auto expect_ops = [&](int count) {
      if (inst.nops != count) {
        std::ostringstream os;
        os << "." << block.label << ": " << op_mnemonic(inst.op)
           << " expects " << count << " operands, has " << inst.nops;
        problem(fn, os.str());
        return false;
      }
      return true;
    };
    switch (inst.op) {
      case Op::kJmp:
      case Op::kJcc:
        if (expect_ops(1)) {
          if (inst.ops[0].kind != Operand::Kind::kLabel ||
              labels.count(inst.ops[0].label) == 0) {
            problem(fn, "." + block.label + ": unresolved jump target in " +
                            inst.to_string());
          }
        }
        break;
      case Op::kCall:
        if (expect_ops(1)) {
          const std::string& callee = inst.ops[0].label;
          if (program_.find_function(callee) == nullptr &&
              intrinsics().count(callee) == 0) {
            problem(fn, "." + block.label + ": call to unknown function " +
                            callee);
          }
        }
        break;
      case Op::kRet:
      case Op::kDetectTrap:
        if (inst.nops != 0) {
          problem(fn, "." + block.label + ": operands on " +
                          op_mnemonic(inst.op));
        }
        break;
      case Op::kLea:
        if (expect_ops(2) && !inst.ops[0].is_mem()) {
          problem(fn, "." + block.label + ": lea needs a memory source");
        }
        break;
      case Op::kSetcc:
        if (expect_ops(1) && inst.ops[0].is_reg() && inst.ops[0].width != 1) {
          problem(fn, "." + block.label + ": setcc writes a byte");
        }
        break;
      case Op::kPush:
      case Op::kPop:
        if (expect_ops(1)) {
          if (!inst.ops[0].is_reg() || inst.ops[0].width != 8) {
            problem(fn, "." + block.label + ": push/pop needs a 64-bit reg");
          }
        }
        break;
      case Op::kPinsrq:
        if (expect_ops(3)) {
          if (!inst.ops[0].is_imm() || (inst.ops[0].imm & ~1) != 0) {
            problem(fn, "." + block.label + ": pinsrq lane must be 0 or 1");
          }
          if (!inst.ops[2].is_xmm()) {
            problem(fn, "." + block.label + ": pinsrq destination is xmm");
          }
        }
        break;
      case Op::kVinserti128:
        if (expect_ops(3)) {
          if (!inst.ops[1].is_xmm() || !inst.ops[2].is_xmm()) {
            problem(fn, "." + block.label + ": vinserti128 operands");
          }
        }
        break;
      case Op::kVpxor:
        expect_ops(3);
        break;
      case Op::kVptest:
      case Op::kCmp:
      case Op::kTest:
      case Op::kUcomisd:
        expect_ops(2);
        break;
      case Op::kMov:
        if (expect_ops(2)) {
          if (inst.ops[0].is_mem() && inst.ops[1].is_mem()) {
            problem(fn, "." + block.label + ": mov mem -> mem is illegal");
          }
          if (inst.ops[0].is_xmm() || inst.ops[1].is_xmm()) {
            problem(fn, "." + block.label +
                            ": mov with xmm operand (use movq/movsd)");
          }
        }
        break;
      default:
        break;
    }
  }

  const AsmProgram& program_;
  bool require_main_;
  std::vector<std::string> problems_;
};

}  // namespace

std::vector<std::string> verify_program(const AsmProgram& program,
                                        bool require_main) {
  return Verifier(program, require_main).run();
}

std::string verify_program_to_string(const AsmProgram& program,
                                     bool require_main) {
  std::ostringstream os;
  for (const std::string& problem : verify_program(program, require_main)) {
    os << problem << "\n";
  }
  return os.str();
}

}  // namespace ferrum::masm
