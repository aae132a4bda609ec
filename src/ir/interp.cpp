#include "ir/interp.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "support/str.h"

namespace ferrum::ir {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kTrapMemory: return "trap:memory";
    case RunStatus::kTrapDivide: return "trap:divide";
    case RunStatus::kTrapSteps: return "trap:steps";
    case RunStatus::kTrapCallDepth: return "trap:call-depth";
    case RunStatus::kTrapInvalid: return "trap:invalid";
  }
  return "?";
}

std::string RunResult::output_to_string() const {
  std::ostringstream os;
  for (std::uint64_t raw : output) os << raw << "\n";
  return os.str();
}

namespace {

struct Trap {
  RunStatus status;
};

std::int64_t sext_to_i64(std::uint64_t raw, TypeKind kind) {
  switch (kind) {
    case TypeKind::kI1:
      return static_cast<std::int64_t>(raw & 1);
    case TypeKind::kI8:
      return static_cast<std::int8_t>(raw & 0xff);
    case TypeKind::kI32:
      return static_cast<std::int32_t>(raw & 0xffffffffu);
    default:
      return static_cast<std::int64_t>(raw);
  }
}

class Interp {
 public:
  Interp(const Module& module, const InterpOptions& options)
      : module_(module), options_(options), memory_(options.memory_bytes) {}

  RunResult run() {
    RunResult result;
    try {
      layout_globals();
      stack_top_ = memory_.size();
      const Function* main = module_.find_function("main");
      if (main == nullptr || main->is_declaration()) {
        result.status = RunStatus::kTrapInvalid;
        return result;
      }
      std::uint64_t ret = call(*main, {});
      result.return_value = static_cast<std::int64_t>(ret);
    } catch (const Trap& trap) {
      result.status = trap.status;
    }
    result.output = std::move(output_);
    result.steps = steps_;
    return result;
  }

 private:
  void layout_globals() {
    // check_range subtracts the access size from the arena size, so the
    // arena must hold at least the unmapped first page.
    if (memory_.size() < 0x1000) throw Trap{RunStatus::kTrapMemory};
    std::size_t cursor = 0x1000;  // keep address 0 unmapped
    for (const auto& global : module_.globals()) {
      const int elem = scalar_size(global->element());
      cursor = (cursor + 15) & ~std::size_t{15};
      global_addr_[global.get()] = cursor;
      const std::size_t bytes =
          static_cast<std::size_t>(global->count()) *
          static_cast<std::size_t>(elem);
      if (cursor + bytes > memory_.size() / 2) throw Trap{RunStatus::kTrapMemory};
      for (std::size_t i = 0; i < global->init.size() &&
                              i < static_cast<std::size_t>(global->count());
           ++i) {
        store_raw(cursor + i * static_cast<std::size_t>(elem), elem,
                  global->init[i]);
      }
      cursor += bytes;
    }
    heap_end_ = cursor;
  }

  std::uint64_t load_raw(std::uint64_t addr, int size) {
    check_range(addr, size);
    std::uint64_t raw = 0;
    std::memcpy(&raw, memory_.data() + addr, static_cast<std::size_t>(size));
    return raw;
  }

  void store_raw(std::uint64_t addr, int size, std::uint64_t raw) {
    check_range(addr, size);
    std::memcpy(memory_.data() + addr, &raw, static_cast<std::size_t>(size));
  }

  /// `addr + size` would wrap for the last `size` addresses below 2^64.
  void check_range(std::uint64_t addr, int size) {
    if (addr < 0x1000 ||
        addr > memory_.size() - static_cast<std::uint64_t>(size)) {
      throw Trap{RunStatus::kTrapMemory};
    }
  }

  std::uint64_t call(const Function& fn,
                     const std::vector<std::uint64_t>& args) {
    if (++depth_ > options_.max_call_depth) throw Trap{RunStatus::kTrapCallDepth};
    std::unordered_map<const Value*, std::uint64_t> env;
    for (std::size_t i = 0; i < fn.args().size(); ++i) {
      env[fn.args()[i].get()] = args[i];
    }
    const std::uint64_t saved_stack = stack_top_;

    const BasicBlock* block = fn.entry();
    std::uint64_t ret = 0;
    bool returning = false;
    while (!returning) {
      const BasicBlock* next = nullptr;
      for (std::size_t i = 0; i < block->size(); ++i) {
        const Instruction* inst = block->at(i);
        if (++steps_ > options_.max_steps) throw Trap{RunStatus::kTrapSteps};
        switch (inst->op()) {
          case Opcode::kRet:
            ret = inst->operands.empty() ? 0 : value_of(env, inst->operands[0]);
            returning = true;
            break;
          case Opcode::kBr:
            next = inst->targets[0];
            break;
          case Opcode::kCondBr:
            next = (value_of(env, inst->operands[0]) & 1) != 0
                       ? inst->targets[0]
                       : inst->targets[1];
            break;
          default:
            exec(env, *inst);
            break;
        }
        if (returning || next != nullptr) break;
      }
      if (returning) break;
      if (next == nullptr) throw Trap{RunStatus::kTrapInvalid};
      block = next;
    }
    stack_top_ = saved_stack;
    --depth_;
    return ret;
  }

  std::uint64_t value_of(
      const std::unordered_map<const Value*, std::uint64_t>& env,
      const Value* value) {
    switch (value->kind()) {
      case ValueKind::kConstant: {
        const auto* c = static_cast<const Constant*>(value);
        if (c->type().is_float()) {
          std::uint64_t raw = 0;
          std::memcpy(&raw, &c->f, sizeof(raw));
          return raw;
        }
        return static_cast<std::uint64_t>(c->i);
      }
      case ValueKind::kGlobal: {
        auto it = global_addr_.find(static_cast<const GlobalVar*>(value));
        if (it == global_addr_.end()) throw Trap{RunStatus::kTrapInvalid};
        return it->second;
      }
      default: {
        auto it = env.find(value);
        if (it == env.end()) throw Trap{RunStatus::kTrapInvalid};
        return it->second;
      }
    }
  }

  double as_f64(std::uint64_t raw) {
    double value = 0.0;
    std::memcpy(&value, &raw, sizeof(value));
    return value;
  }

  std::uint64_t from_f64(double value) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(raw));
    return raw;
  }

  void exec(std::unordered_map<const Value*, std::uint64_t>& env,
            const Instruction& inst) {
    switch (inst.op()) {
      case Opcode::kAlloca: {
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(inst.alloca_count) *
            static_cast<std::uint64_t>(scalar_size(inst.alloca_elem));
        // 16-byte aligned downward bump allocation.
        std::uint64_t top = stack_top_ - bytes;
        top &= ~std::uint64_t{15};
        if (top <= heap_end_) throw Trap{RunStatus::kTrapMemory};
        stack_top_ = top;
        env[&inst] = top;
        break;
      }
      case Opcode::kLoad: {
        const std::uint64_t addr = value_of(env, inst.operands[0]);
        const int size = type_size(inst.type());
        std::uint64_t raw = load_raw(addr, size);
        if (inst.type().is_int()) {
          raw = static_cast<std::uint64_t>(sext_to_i64(raw, inst.type().kind));
        }
        env[&inst] = raw;
        break;
      }
      case Opcode::kStore: {
        const std::uint64_t value = value_of(env, inst.operands[0]);
        const std::uint64_t addr = value_of(env, inst.operands[1]);
        store_raw(addr, type_size(inst.operands[0]->type()), value);
        break;
      }
      case Opcode::kGep: {
        const std::uint64_t base = value_of(env, inst.operands[0]);
        const std::int64_t index =
            static_cast<std::int64_t>(value_of(env, inst.operands[1]));
        const int elem = scalar_size(inst.type().elem);
        env[&inst] = base + static_cast<std::uint64_t>(index * elem);
        break;
      }
      case Opcode::kICmp: {
        const std::int64_t l = sext_to_i64(value_of(env, inst.operands[0]),
                                           inst.operands[0]->type().kind);
        const std::int64_t r = sext_to_i64(value_of(env, inst.operands[1]),
                                           inst.operands[1]->type().kind);
        env[&inst] = eval_pred(inst.pred, l, r) ? 1 : 0;
        break;
      }
      case Opcode::kFCmp: {
        const double l = as_f64(value_of(env, inst.operands[0]));
        const double r = as_f64(value_of(env, inst.operands[1]));
        bool result = false;
        switch (inst.pred) {
          case CmpPred::kEq: result = l == r; break;
          case CmpPred::kNe: result = l != r; break;
          case CmpPred::kLt: result = l < r; break;
          case CmpPred::kLe: result = l <= r; break;
          case CmpPred::kGt: result = l > r; break;
          case CmpPred::kGe: result = l >= r; break;
        }
        env[&inst] = result ? 1 : 0;
        break;
      }
      case Opcode::kSext:
      case Opcode::kTrunc: {
        const std::int64_t value = sext_to_i64(
            value_of(env, inst.operands[0]), inst.operands[0]->type().kind);
        env[&inst] = static_cast<std::uint64_t>(
            sext_to_i64(static_cast<std::uint64_t>(value), inst.type().kind));
        break;
      }
      case Opcode::kZext: {
        std::uint64_t raw = value_of(env, inst.operands[0]);
        switch (inst.operands[0]->type().kind) {
          case TypeKind::kI1: raw &= 1; break;
          case TypeKind::kI8: raw &= 0xff; break;
          case TypeKind::kI32: raw &= 0xffffffffu; break;
          default: break;
        }
        env[&inst] = raw;
        break;
      }
      case Opcode::kSiToFp: {
        const std::int64_t value = sext_to_i64(
            value_of(env, inst.operands[0]), inst.operands[0]->type().kind);
        env[&inst] = from_f64(static_cast<double>(value));
        break;
      }
      case Opcode::kFpToSi: {
        const double value = as_f64(value_of(env, inst.operands[0]));
        if (!(value >= -9.3e18 && value <= 9.3e18)) {
          throw Trap{RunStatus::kTrapDivide};
        }
        const std::int64_t as_int = static_cast<std::int64_t>(value);
        env[&inst] = static_cast<std::uint64_t>(
            sext_to_i64(static_cast<std::uint64_t>(as_int), inst.type().kind));
        break;
      }
      case Opcode::kCall: {
        std::vector<std::uint64_t> args;
        args.reserve(inst.operands.size());
        for (const Value* operand : inst.operands) {
          args.push_back(value_of(env, operand));
        }
        std::uint64_t result = 0;
        if (inst.callee->is_builtin) {
          result = run_builtin(*inst.callee, args);
        } else if (inst.callee->is_declaration()) {
          throw Trap{RunStatus::kTrapInvalid};
        } else {
          result = call(*inst.callee, args);
        }
        if (!inst.type().is_void()) env[&inst] = result;
        break;
      }
      default:
        env[&inst] = eval_binary(env, inst);
        break;
    }
  }

  static bool eval_pred(CmpPred pred, std::int64_t l, std::int64_t r) {
    switch (pred) {
      case CmpPred::kEq: return l == r;
      case CmpPred::kNe: return l != r;
      case CmpPred::kLt: return l < r;
      case CmpPred::kLe: return l <= r;
      case CmpPred::kGt: return l > r;
      case CmpPred::kGe: return l >= r;
    }
    return false;
  }

  std::uint64_t eval_binary(
      std::unordered_map<const Value*, std::uint64_t>& env,
      const Instruction& inst) {
    const TypeKind kind = inst.type().kind;
    if (inst.type().is_float()) {
      const double l = as_f64(value_of(env, inst.operands[0]));
      const double r = as_f64(value_of(env, inst.operands[1]));
      switch (inst.op()) {
        case Opcode::kFAdd: return from_f64(l + r);
        case Opcode::kFSub: return from_f64(l - r);
        case Opcode::kFMul: return from_f64(l * r);
        case Opcode::kFDiv: return from_f64(l / r);
        default: throw Trap{RunStatus::kTrapInvalid};
      }
    }
    const std::int64_t l =
        sext_to_i64(value_of(env, inst.operands[0]), kind);
    const std::int64_t r =
        sext_to_i64(value_of(env, inst.operands[1]), kind);
    std::int64_t result = 0;
    switch (inst.op()) {
      case Opcode::kAdd:
        result = static_cast<std::int64_t>(static_cast<std::uint64_t>(l) +
                                           static_cast<std::uint64_t>(r));
        break;
      case Opcode::kSub:
        result = static_cast<std::int64_t>(static_cast<std::uint64_t>(l) -
                                           static_cast<std::uint64_t>(r));
        break;
      case Opcode::kMul:
        result = static_cast<std::int64_t>(static_cast<std::uint64_t>(l) *
                                           static_cast<std::uint64_t>(r));
        break;
      case Opcode::kSDiv:
        if (r == 0 || (l == INT64_MIN && r == -1)) {
          throw Trap{RunStatus::kTrapDivide};
        }
        result = l / r;
        break;
      case Opcode::kSRem:
        if (r == 0 || (l == INT64_MIN && r == -1)) {
          throw Trap{RunStatus::kTrapDivide};
        }
        result = l % r;
        break;
      case Opcode::kAnd: result = l & r; break;
      case Opcode::kOr: result = l | r; break;
      case Opcode::kXor: result = l ^ r; break;
      case Opcode::kShl:
        result = static_cast<std::int64_t>(static_cast<std::uint64_t>(l)
                                           << (r & 63));
        break;
      case Opcode::kAShr: result = l >> (r & 63); break;
      default: throw Trap{RunStatus::kTrapInvalid};
    }
    return static_cast<std::uint64_t>(
        sext_to_i64(static_cast<std::uint64_t>(result), kind));
  }

  std::uint64_t run_builtin(const Function& fn,
                            const std::vector<std::uint64_t>& args) {
    if (fn.name() == "print_int" || fn.name() == "print_f64") {
      output_.push_back(args[0]);
      return 0;
    }
    if (fn.name() == "sqrt") {
      return from_f64(std::sqrt(as_f64(args[0])));
    }
    throw Trap{RunStatus::kTrapInvalid};
  }

  const Module& module_;
  const InterpOptions& options_;
  std::vector<std::uint8_t> memory_;
  std::unordered_map<const GlobalVar*, std::uint64_t> global_addr_;
  std::uint64_t stack_top_ = 0;
  std::uint64_t heap_end_ = 0;
  std::uint64_t steps_ = 0;
  int depth_ = 0;
  std::vector<std::uint64_t> output_;
};

}  // namespace

RunResult interpret(const Module& module, const InterpOptions& options) {
  return Interp(module, options).run();
}

}  // namespace ferrum::ir
