#include "vm/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <new>
#include <unordered_map>

#include <sys/mman.h>
#include <unistd.h>

/// Forces a helper of the interpreter step into its caller, so that the
/// loop runs a step without a function call; slow paths stay out of line.
#define FERRUM_INLINE [[gnu::always_inline]] inline

namespace ferrum::vm {

using masm::AsmFunction;
using masm::AsmInst;
using masm::AsmProgram;
using masm::Cond;
using masm::Gpr;
using masm::MemRef;
using masm::Op;
using masm::Operand;

namespace {

struct Trap {
  ExitStatus status;
};

/// Raises a trap from inside a step. Cold and out of line, so the
/// handlers the interpreter loop inlines carry one call here instead of
/// the exception set-up of a throw.
[[noreturn, gnu::cold, gnu::noinline]] void raise_trap(ExitStatus status) {
  throw Trap{status};
}

/// Return addresses are tagged so that corrupted data popped by `ret` is
/// recognisably invalid (-> crash, like a wild jump on real hardware).
/// The encoding is part of the fault model (return addresses live in
/// memory and are flippable), so it must match the historical VM exactly.
constexpr std::uint64_t kRetTag = 0x7e00'0000'0000'0000ULL;
constexpr std::uint64_t kExitSentinel = kRetTag | 0xffff'ffffULL;

struct Flags {
  bool zf = false, sf = false, of = false, cf = false;
};

/// Reg/mem operand widths the VM defines. Anything else — notably the
/// 2-byte width no masm producer emits but hand-built programs could —
/// used to fall through width switches to a silent 64-bit access; the
/// decoder now rejects it (kTagInvalid -> kTrapInvalid at execution).
bool operand_widths_ok(const AsmInst& inst) {
  for (int i = 0; i < inst.nops; ++i) {
    const Operand& op = inst.ops[i];
    if (op.kind != Operand::Kind::kReg && op.kind != Operand::Kind::kMem) {
      continue;
    }
    if (op.width != 1 && op.width != 4 && op.width != 8) return false;
  }
  return true;
}

/// Value mask of a `width`-byte register read; decode-rejected widths
/// count as the full register (conservative — they trap anyway).
std::uint64_t width_mask(int width) {
  switch (width) {
    case 1: return 0xff;
    case 4: return 0xffff'ffffULL;
    default: return ~std::uint64_t{0};
  }
}

/// Bytes of `reg` that `inst` reads, given that masm::effects_of lists
/// `reg` among its reads: the widths of the register operands naming it,
/// or the full register when it forms an address or is read implicitly
/// (push/pop/call/ret). A destination operand naming the same register
/// can only widen the result, which is conservative.
std::uint64_t read_bytes(const AsmInst& inst, Gpr reg) {
  if (inst.op == Op::kPush || inst.op == Op::kPop || inst.op == Op::kCall ||
      inst.op == Op::kRet) {
    return ~std::uint64_t{0};
  }
  std::uint64_t bytes = 0;
  for (const Operand& op : inst.ops) {
    if (op.kind == Operand::Kind::kMem &&
        (op.mem.base == reg || op.mem.index == reg)) {
      return ~std::uint64_t{0};
    }
    if (op.kind == Operand::Kind::kReg && op.reg == reg) {
      bytes |= width_mask(op.width);
    }
  }
  return bytes != 0 ? bytes : ~std::uint64_t{0};
}

/// The VM's memory arena: anonymous zero pages mapped once per Engine, so
/// building an Engine costs a mapping instead of a 16 MiB memset, and
/// pages a program never touches never count toward RSS. PROT_NONE guard
/// pages on both sides make an access past either end fault; the arena is
/// not heap memory, so ASan's redzones do not cover it.
class Arena {
 public:
  explicit Arena(std::size_t bytes)
      : size_(bytes), guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    const std::size_t body = (bytes + guard_ - 1) / guard_ * guard_;
    mapped_ = body + 2 * guard_;
    void* base = mmap(nullptr, mapped_, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<std::uint8_t*>(base);
    if (body != 0 &&
        mprotect(base_ + guard_, body, PROT_READ | PROT_WRITE) != 0) {
      munmap(base_, mapped_);
      throw std::bad_alloc();
    }
  }
  ~Arena() { munmap(base_, mapped_); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = delete;
  Arena& operator=(Arena&&) = delete;

  std::uint8_t* data() { return base_ + guard_; }
  const std::uint8_t* data() const { return base_ + guard_; }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_;
  std::size_t guard_;
  std::size_t mapped_ = 0;
  std::uint8_t* base_ = nullptr;
};

bool is_fusable_alu(Op op) {
  switch (op) {
    case Op::kAdd: case Op::kSub: case Op::kImul: case Op::kAnd:
    case Op::kOr: case Op::kXor: case Op::kShl: case Op::kSar:
    case Op::kIdiv: case Op::kIrem:
      return true;
    default:
      return false;
  }
}

/// Where an operand of an operand form lives: a GPR, the immediate, the
/// memory operand, or an XMM register's low lane.
enum class At : std::uint8_t { kR, kI, kM, kX };

// The operand forms (see kFormFirst), as X(name, handler<arguments>).
// Width variants are listed 1, 4, 8 bytes (or 4, 8), the order decode
// relies on. The jcc form is listed as J(name, handler): its handler also
// takes the loop's next pc. The fused list repeats the cmp forms for a
// cmp whose next instruction is a jcc.
#define FERRUM_W148(X, name, handler, ...) \
  X(name##1, handler<__VA_ARGS__, 1>)      \
  X(name##4, handler<__VA_ARGS__, 4>)      \
  X(name##8, handler<__VA_ARGS__, 8>)
#define FERRUM_W48(X, name, handler, ...) \
  X(name##4, handler<__VA_ARGS__, 4>)     \
  X(name##8, handler<__VA_ARGS__, 8>)
#define FERRUM_ALU_FORMS(X, name, op)           \
  FERRUM_W148(X, name##RR, form_alu, op, At::kR) \
  FERRUM_W148(X, name##IR, form_alu, op, At::kI)
#define FERRUM_CMP_FORMS(X, name)                      \
  FERRUM_W148(X, name##RR, form_cmp, At::kR, At::kR) \
  FERRUM_W148(X, name##IR, form_cmp, At::kI, At::kR) \
  FERRUM_W148(X, name##RM, form_cmp, At::kR, At::kM) \
  FERRUM_W148(X, name##IM, form_cmp, At::kI, At::kM) \
  FERRUM_W148(X, name##MR, form_cmp, At::kM, At::kR)
#define FERRUM_SINGLE_FORMS(X, J)                              \
  FERRUM_W148(X, MovRR, form_mov, At::kR, At::kR)              \
  FERRUM_W148(X, MovIR, form_mov, At::kI, At::kR)              \
  FERRUM_W148(X, MovMR, form_mov, At::kM, At::kR)              \
  FERRUM_W148(X, MovRM, form_mov, At::kR, At::kM)              \
  FERRUM_W148(X, MovIM, form_mov, At::kI, At::kM)              \
  X(MovsxR14, form_movsx<At::kR, 1, 4>)                        \
  X(MovsxR18, form_movsx<At::kR, 1, 8>)                        \
  X(MovsxR48, form_movsx<At::kR, 4, 8>)                        \
  X(MovsxM14, form_movsx<At::kM, 1, 4>)                        \
  X(MovsxM18, form_movsx<At::kM, 1, 8>)                        \
  X(MovsxM48, form_movsx<At::kM, 4, 8>)                        \
  X(MovzxR14, form_movzx<At::kR, 1, 4>)                        \
  X(MovzxR18, form_movzx<At::kR, 1, 8>)                        \
  X(MovzxM14, form_movzx<At::kM, 1, 4>)                        \
  X(MovzxM18, form_movzx<At::kM, 1, 8>)                        \
  X(Lea, form_lea)                                             \
  X(Push, form_push)                                           \
  X(Pop, form_pop)                                             \
  FERRUM_ALU_FORMS(X, Add, Op::kAdd)                           \
  FERRUM_ALU_FORMS(X, Sub, Op::kSub)                           \
  FERRUM_ALU_FORMS(X, Imul, Op::kImul)                         \
  FERRUM_ALU_FORMS(X, And, Op::kAnd)                           \
  FERRUM_ALU_FORMS(X, Or, Op::kOr)                             \
  FERRUM_ALU_FORMS(X, Xor, Op::kXor)                           \
  FERRUM_ALU_FORMS(X, Shl, Op::kShl)                           \
  FERRUM_ALU_FORMS(X, Sar, Op::kSar)                           \
  FERRUM_ALU_FORMS(X, Idiv, Op::kIdiv)                         \
  FERRUM_ALU_FORMS(X, Irem, Op::kIrem)                         \
  FERRUM_CMP_FORMS(X, Cmp)                                     \
  FERRUM_W148(X, TestRR, form_test, At::kR)                    \
  FERRUM_W148(X, TestIR, form_test, At::kI)                    \
  J(Jcc, form_jcc)                                             \
  X(SetccR, form_setcc<At::kR>)                                \
  X(SetccM, form_setcc<At::kM>)                                \
  X(MovsdXX, form_movsd<At::kX, At::kX>)                       \
  X(MovsdMX, form_movsd<At::kM, At::kX>)                       \
  X(MovsdXM, form_movsd<At::kX, At::kM>)                       \
  X(AddsdX, form_sse<Op::kAddsd, At::kX>)                      \
  X(AddsdM, form_sse<Op::kAddsd, At::kM>)                      \
  X(SubsdX, form_sse<Op::kSubsd, At::kX>)                      \
  X(SubsdM, form_sse<Op::kSubsd, At::kM>)                      \
  X(MulsdX, form_sse<Op::kMulsd, At::kX>)                      \
  X(MulsdM, form_sse<Op::kMulsd, At::kM>)                      \
  X(DivsdX, form_sse<Op::kDivsd, At::kX>)                      \
  X(DivsdM, form_sse<Op::kDivsd, At::kM>)                      \
  X(SqrtsdX, form_sqrtsd<At::kX>)                              \
  X(SqrtsdM, form_sqrtsd<At::kM>)                              \
  X(UcomisdX, form_ucomisd<At::kX>)                            \
  X(UcomisdM, form_ucomisd<At::kM>)                            \
  FERRUM_W48(X, Cvtsi2sdR, form_cvtsi2sd, At::kR)              \
  FERRUM_W48(X, Cvtsi2sdM, form_cvtsi2sd, At::kM)              \
  FERRUM_W48(X, Cvttsd2si, form_cvttsd2si, At::kR)             \
  FERRUM_W48(X, MovqRX, form_movq_to_xmm, At::kR)              \
  FERRUM_W48(X, MovqMX, form_movq_to_xmm, At::kM)              \
  FERRUM_W48(X, MovqXR, form_movq_from_xmm, At::kR)            \
  FERRUM_W48(X, MovqXM, form_movq_from_xmm, At::kM)            \
  FERRUM_W48(X, PinsrqR, form_pinsrq, At::kR)                  \
  FERRUM_W48(X, PinsrqM, form_pinsrq, At::kM)                  \
  X(Vinserti128, form_vinserti128)                             \
  X(VpxorX, form_vpxor<2>)                                     \
  X(VpxorY, form_vpxor<4>)                                     \
  X(VptestX, form_vptest<2>)                                   \
  X(VptestY, form_vptest<4>)
#define FERRUM_FUSED_FORMS(X) FERRUM_CMP_FORMS(X, CmpJcc)

enum : int {
  kFormBefore = kFormFirst - 1,
#define FERRUM_FORM_ENUM(name, ...) kForm##name,
  FERRUM_SINGLE_FORMS(FERRUM_FORM_ENUM, FERRUM_FORM_ENUM)
  FERRUM_FUSED_FORMS(FERRUM_FORM_ENUM)
#undef FERRUM_FORM_ENUM
  kFormEnd,
};
static_assert(kFormEnd <= 256, "dispatch tags are one byte");
static_assert(kFormSubRR1 == kFormAddRR1 + 6 &&
                  kFormIremRR1 == kFormAddRR1 + 54,
              "ALU forms are laid out op by op, six per op");
static_assert(kFormCmpJccRR1 - kFormCmpRR1 == kFormCmpJccMR8 - kFormCmpMR8,
              "fused cmp forms mirror the single ones");

constexpr const char* kFormNames[] = {
#define FERRUM_FORM_NAME(name, ...) #name,
    FERRUM_SINGLE_FORMS(FERRUM_FORM_NAME, FERRUM_FORM_NAME)
    FERRUM_FUSED_FORMS(FERRUM_FORM_NAME)
#undef FERRUM_FORM_NAME
};

/// Offset of a width among a form's 1/4/8-byte variants.
int width_slot(int width) { return width == 1 ? 0 : width == 4 ? 1 : 2; }

/// Fills `d`'s operand fields from its instruction and returns its
/// operand form, or d.tag when no form covers the instruction's shape:
/// operands of kinds, widths or registers the form does not take, a
/// second memory operand, an unknown global, or a scale other than 1, 2,
/// 4 or 8. A register operand's width must equal the width its form
/// reads, and a form's memory operand is the instruction's only one.
int decode_form(DecodedInst& d,
                const std::vector<std::uint64_t>& global_addr) {
  if (d.tag >= kTagSentinel && d.tag != kTagCmpJcc && d.tag != kTagMovAlu) {
    return d.tag;
  }
  const AsmInst& inst = *d.inst;
  constexpr int kNoForm = -1;
  int at[3] = {kNoForm, kNoForm, kNoForm};
  int mems = 0;
  for (int i = 0; i < inst.nops && i < 3; ++i) {
    const Operand& op = inst.ops[i];
    switch (op.kind) {
      case Operand::Kind::kReg:
        if (op.reg >= Gpr::kNone) break;
        at[i] = static_cast<int>(At::kR);
        d.reg[i] = static_cast<std::uint8_t>(op.reg);
        break;
      case Operand::Kind::kXmm:
        if (op.xmm < 0 || op.xmm >= masm::kXmmCount) break;
        at[i] = static_cast<int>(At::kX);
        d.reg[i] = static_cast<std::uint8_t>(op.xmm);
        break;
      case Operand::Kind::kImm:
        at[i] = static_cast<int>(At::kI);
        d.imm = op.imm;
        break;
      case Operand::Kind::kMem: {
        const MemRef& mem = op.mem;
        if (++mems > 1) return d.tag;
        if (mem.global_id >= static_cast<int>(global_addr.size())) break;
        std::uint64_t disp = static_cast<std::uint64_t>(mem.disp);
        if (mem.global_id >= 0) {
          disp += global_addr[static_cast<std::size_t>(mem.global_id)];
        } else if (mem.base != Gpr::kNone) {
          d.base = static_cast<std::uint8_t>(mem.base);
          d.base_on = 1;
        }
        if (mem.index != Gpr::kNone) {
          if (mem.scale != 1 && mem.scale != 2 && mem.scale != 4 &&
              mem.scale != 8) {
            break;
          }
          d.index = static_cast<std::uint8_t>(mem.index);
          d.scale = static_cast<std::uint8_t>(mem.scale);
        }
        d.disp = static_cast<std::int64_t>(disp);
        at[i] = static_cast<int>(At::kM);
        break;
      }
      default:
        break;
    }
  }
  const auto is = [&](int i, At where) {
    return i < inst.nops && at[i] == static_cast<int>(where);
  };
  const auto width = [&](int i) { return inst.ops[i].width; };
  // Whether operand i is read at `w` bytes: immediates at any width.
  const auto reads_at = [&](int i, int w) {
    return is(i, At::kI) || width(i) == w;
  };
  const auto w48 = [&](int w) { return w == 4 || w == 8; };
  const bool two = inst.nops == 2;
  switch (inst.op) {
    case Op::kMov: {
      if (!two || !reads_at(0, width(1))) break;
      const int w = width_slot(width(1));
      if (is(1, At::kR)) {
        if (is(0, At::kR)) return kFormMovRR1 + w;
        if (is(0, At::kI)) return kFormMovIR1 + w;
        if (is(0, At::kM)) return kFormMovMR1 + w;
      } else if (is(1, At::kM)) {
        if (is(0, At::kR)) return kFormMovRM1 + w;
        if (is(0, At::kI)) return kFormMovIM1 + w;
      }
      break;
    }
    case Op::kMovsx:
    case Op::kMovzx: {
      if (!two || !is(1, At::kR) || !(is(0, At::kR) || is(0, At::kM))) break;
      const bool reg = is(0, At::kR);
      const int from = width(0);
      const int to = width(1);
      if (inst.op == Op::kMovsx) {
        if (from == 1 && to == 4) return reg ? kFormMovsxR14 : kFormMovsxM14;
        if (from == 1 && to == 8) return reg ? kFormMovsxR18 : kFormMovsxM18;
        if (from == 4 && to == 8) return reg ? kFormMovsxR48 : kFormMovsxM48;
      } else {
        if (from == 1 && to == 4) return reg ? kFormMovzxR14 : kFormMovzxM14;
        if (from == 1 && to == 8) return reg ? kFormMovzxR18 : kFormMovzxM18;
      }
      break;
    }
    case Op::kLea:
      if (two && is(0, At::kM) && is(1, At::kR)) return kFormLea;
      break;
    case Op::kPush:
      if (inst.nops == 1 && is(0, At::kR) && width(0) == 8) return kFormPush;
      break;
    case Op::kPop:
      if (inst.nops == 1 && is(0, At::kR)) return kFormPop;
      break;
    case Op::kAdd: case Op::kSub: case Op::kImul: case Op::kAnd:
    case Op::kOr: case Op::kXor: case Op::kShl: case Op::kSar:
    case Op::kIdiv: case Op::kIrem: {
      if (!two || !is(1, At::kR) || !reads_at(0, width(1))) break;
      const int first = kFormAddRR1 + 6 * (static_cast<int>(inst.op) -
                                           static_cast<int>(Op::kAdd));
      if (is(0, At::kR)) return first + width_slot(width(1));
      if (is(0, At::kI)) return first + 3 + width_slot(width(1));
      break;
    }
    case Op::kCmp: {
      if (!two || !reads_at(0, width(1))) break;
      const int w = width_slot(width(1));
      if (is(1, At::kR)) {
        if (is(0, At::kR)) return kFormCmpRR1 + w;
        if (is(0, At::kI)) return kFormCmpIR1 + w;
        if (is(0, At::kM)) return kFormCmpMR1 + w;
      } else if (is(1, At::kM)) {
        if (is(0, At::kR)) return kFormCmpRM1 + w;
        if (is(0, At::kI)) return kFormCmpIM1 + w;
      }
      break;
    }
    case Op::kTest: {
      if (!two || !is(1, At::kR) || !reads_at(0, width(1))) break;
      const int w = width_slot(width(1));
      if (is(0, At::kR)) return kFormTestRR1 + w;
      if (is(0, At::kI)) return kFormTestIR1 + w;
      break;
    }
    case Op::kJcc:
    case Op::kSetcc:
      if (static_cast<int>(inst.cc) > static_cast<int>(Cond::kBe)) break;
      d.cc = static_cast<std::uint8_t>(inst.cc);
      if (inst.op == Op::kJcc) return kFormJcc;
      if (inst.nops == 1 && is(0, At::kR)) return kFormSetccR;
      if (inst.nops == 1 && is(0, At::kM)) return kFormSetccM;
      break;
    case Op::kMovsd:
      if (!two) break;
      if (is(0, At::kX) && is(1, At::kX)) return kFormMovsdXX;
      if (is(0, At::kM) && width(0) == 8 && is(1, At::kX)) return kFormMovsdMX;
      if (is(0, At::kX) && is(1, At::kM)) return kFormMovsdXM;
      break;
    case Op::kAddsd: case Op::kSubsd: case Op::kMulsd: case Op::kDivsd:
    case Op::kSqrtsd: case Op::kUcomisd: {
      if (!two || !is(1, At::kX)) break;
      int first = kFormSqrtsdX;
      if (inst.op == Op::kUcomisd) first = kFormUcomisdX;
      if (inst.op == Op::kAddsd) first = kFormAddsdX;
      if (inst.op == Op::kSubsd) first = kFormSubsdX;
      if (inst.op == Op::kMulsd) first = kFormMulsdX;
      if (inst.op == Op::kDivsd) first = kFormDivsdX;
      if (is(0, At::kX)) return first;
      if (is(0, At::kM) && width(0) == 8) return first + 1;
      break;
    }
    case Op::kCvtsi2sd:
      if (!two || !is(1, At::kX) || !w48(width(0))) break;
      if (is(0, At::kR)) return kFormCvtsi2sdR4 + width_slot(width(0)) - 1;
      if (is(0, At::kM)) return kFormCvtsi2sdM4 + width_slot(width(0)) - 1;
      break;
    case Op::kCvttsd2si:
      if (two && is(0, At::kX) && is(1, At::kR) && w48(width(1))) {
        return kFormCvttsd2si4 + width_slot(width(1)) - 1;
      }
      break;
    case Op::kMovq:
      if (!two) break;
      if (is(1, At::kX) && w48(width(0))) {
        if (is(0, At::kR)) return kFormMovqRX4 + width_slot(width(0)) - 1;
        if (is(0, At::kM)) return kFormMovqMX4 + width_slot(width(0)) - 1;
      } else if (is(0, At::kX) && w48(width(1))) {
        if (is(1, At::kR)) return kFormMovqXR4 + width_slot(width(1)) - 1;
        if (is(1, At::kM)) return kFormMovqXM4 + width_slot(width(1)) - 1;
      }
      break;
    case Op::kPinsrq:
      if (inst.nops != 3 || !is(0, At::kI) || !is(2, At::kX) ||
          !w48(width(1))) {
        break;
      }
      if (is(1, At::kR)) return kFormPinsrqR4 + width_slot(width(1)) - 1;
      if (is(1, At::kM)) return kFormPinsrqM4 + width_slot(width(1)) - 1;
      break;
    case Op::kVinserti128:
      if (inst.nops == 3 && is(0, At::kI) && is(1, At::kX) && is(2, At::kX)) {
        return kFormVinserti128;
      }
      break;
    case Op::kVpxor:
      if (inst.nops == 3 && is(0, At::kX) && is(1, At::kX) && is(2, At::kX)) {
        return inst.ops[0].ymm ? kFormVpxorY : kFormVpxorX;
      }
      break;
    case Op::kVptest:
      if (two && is(0, At::kX) && is(1, At::kX)) {
        return inst.ops[0].ymm ? kFormVptestY : kFormVptestX;
      }
      break;
    default:
      break;
  }
  return d.tag;
}

}  // namespace

int operand_form_count() { return kFormEnd - kFormFirst; }

const char* operand_form_name(int form) {
  return form >= kFormFirst && form < kFormEnd ? kFormNames[form - kFormFirst]
                                               : "?";
}

// ----------------------------------------------------------- predecode --

PredecodedProgram::PredecodedProgram(const AsmProgram& program)
    : program_(&program) {
  std::unordered_map<std::string, int> function_by_name;
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    // operator[] (not emplace): duplicate names resolve to the last
    // definition, as in the historical resolve().
    function_by_name[program.functions[f].name] = static_cast<int>(f);
  }
  auto main_it = function_by_name.find("main");
  main_index_ = main_it == function_by_name.end() ? -1 : main_it->second;

  code_.reserve(program.inst_count() + program.functions.size());
  func_entry_pc_.reserve(program.functions.size());
  block_base_pc_.reserve(program.functions.size());
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    const AsmFunction& fn = program.functions[f];
    std::unordered_map<std::string, int> labels;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      labels[fn.blocks[b].label] = static_cast<int>(b);
    }
    auto& bases = block_base_pc_.emplace_back();
    bases.reserve(fn.blocks.size() + 1);
    // First pass: lay out block start pcs (blocks are contiguous, so the
    // old interpreter's fall-through-to-next-block is just pc + 1).
    std::int32_t pc = static_cast<std::int32_t>(code_.size());
    for (const auto& block : fn.blocks) {
      bases.push_back(pc);
      pc += static_cast<std::int32_t>(block.insts.size());
    }
    bases.push_back(pc);  // sentinel position
    func_entry_pc_.push_back(bases.front());
    // Second pass: emit decoded instructions with resolved targets.
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const auto& block = fn.blocks[b];
      for (std::size_t i = 0; i < block.insts.size(); ++i) {
        const AsmInst& inst = block.insts[i];
        DecodedInst d;
        d.inst = &inst;
        d.fidx = static_cast<std::int32_t>(f);
        d.bidx = static_cast<std::int32_t>(b);
        d.iidx = static_cast<std::int32_t>(i);
        if (inst.op == Op::kJmp || inst.op == Op::kJcc) {
          auto it = labels.find(inst.ops[0].label);
          d.target_pc = it == labels.end()
                            ? -1
                            : bases[static_cast<std::size_t>(it->second)];
        } else if (inst.op == Op::kCall) {
          const std::string& callee = inst.ops[0].label;
          // Builtin check precedes function lookup, matching exec_call's
          // historical order (a user function named print_int is
          // unreachable, exactly as before).
          if (callee == "print_int") {
            d.callee = kCalleePrintInt;
          } else if (callee == "print_f64") {
            d.callee = kCalleePrintF64;
          } else {
            auto it = function_by_name.find(callee);
            d.callee = it == function_by_name.end() ? -1 : it->second;
          }
        }
        code_.push_back(d);
      }
    }
    // End-of-function sentinel: executing it means control fell past the
    // function's last block -> kTrapInvalid without counting a step.
    DecodedInst sentinel;
    sentinel.fidx = static_cast<std::int32_t>(f);
    sentinel.bidx = static_cast<std::int32_t>(fn.blocks.size());
    code_.push_back(sentinel);
  }
  if (code_.empty()) {
    // Degenerate programs (no functions) still need a pc to sit on.
    code_.push_back(DecodedInst{});
    func_entry_pc_.push_back(0);
    block_base_pc_.push_back({0});
  }
  // Dispatch tags. First every instruction individually: its own Op, or
  // kTagInvalid when an operand carries a width the VM does not define or
  // is not a register where the handler uses a general-purpose register.
  for (DecodedInst& d : code_) {
    if (d.inst == nullptr) {
      d.tag = kTagSentinel;
    } else {
      d.tag = operand_widths_ok(*d.inst) && masm::gpr_operands_ok(*d.inst)
                  ? static_cast<std::uint8_t>(d.inst->op)
                  : static_cast<std::uint8_t>(kTagInvalid);
    }
  }
  // Superinstruction fusion for the dominant adjacent pairs (the PR 2
  // profiler's cmp+jcc and load+op). Only the *first* instruction of a
  // pair changes tag; the second keeps its own, so a branch targeting it
  // still dispatches it singly. Neither half may be a sentinel or a
  // rejected-width instruction, and since every function ends in a
  // sentinel a pair can never straddle a function boundary. The fused
  // handlers execute both halves with full per-instruction bookkeeping
  // (step counting, FI-site numbering, trap order), so fusion is
  // invisible to everything but the dispatch count.
  for (std::size_t i = 0; i + 1 < code_.size(); ++i) {
    DecodedInst& a = code_[i];
    const DecodedInst& b = code_[i + 1];
    if (a.tag >= kTagSentinel || b.tag >= kTagSentinel) continue;
    const Op first = a.inst->op;
    const Op second = b.inst->op;
    if (first == Op::kCmp && second == Op::kJcc) {
      a.tag = kTagCmpJcc;
    } else if (first == Op::kMov && is_fusable_alu(second)) {
      a.tag = kTagMovAlu;
    }
  }
  // Operand forms for the bare loop. Global addresses first: a memory
  // operand naming a global gets its address folded into the
  // displacement.
  std::uint64_t cursor = 0x1000;
  for (const auto& global : program.globals) {
    cursor = (cursor + 15) & ~std::uint64_t{15};
    global_addr_.push_back(cursor);
    cursor += static_cast<std::uint64_t>(global.size_bytes);
  }
  for (DecodedInst& d : code_) {
    d.form = static_cast<std::uint8_t>(decode_form(d, global_addr_));
  }
  // A fused cmp+jcc pair takes its cmp's fused form when both halves
  // have a form; with only the cmp's, the jcc dispatches singly.
  for (std::size_t i = 0; i + 1 < code_.size(); ++i) {
    DecodedInst& cmp = code_[i];
    if (cmp.tag != kTagCmpJcc || cmp.form < kFormCmpRR1 ||
        cmp.form > kFormCmpMR8 || code_[i + 1].form != kFormJcc) {
      continue;
    }
    cmp.form =
        static_cast<std::uint8_t>(cmp.form - kFormCmpRR1 + kFormCmpJccRR1);
  }
  // Golden-rejoin read masks (see gpr_read_mask).
  for (const DecodedInst& d : code_) {
    if (d.inst == nullptr) continue;
    for (Gpr reg : masm::effects_of(*d.inst).gpr_reads) {
      const auto r = static_cast<std::size_t>(reg);
      if (r < gpr_read_mask_.size()) {
        gpr_read_mask_[r] |= read_bytes(*d.inst, reg);
      }
    }
  }
  gpr_read_mask_[static_cast<std::size_t>(Gpr::kRax)] = ~std::uint64_t{0};
}

// --------------------------------------------------------- checkpoints --

CheckpointSet::CheckpointSet()
    : live_page_bytes_(std::make_shared<std::atomic<std::uint64_t>>(0)) {}

void CheckpointSet::begin(std::uint64_t stride) {
  checkpoints_.clear();
  table_entries_ = 0;
  stride_ = stride == 0 ? 1 : stride;
}

std::shared_ptr<const PageImage> CheckpointSet::make_page(
    const std::uint8_t* bytes, std::size_t size) {
  auto* image = new PageImage;
  std::memcpy(image->bytes, bytes, size);
  if (size < kCkptPageSize) {
    std::memset(image->bytes + size, 0, kCkptPageSize - size);
  }
  auto counter = live_page_bytes_;
  counter->fetch_add(kCkptPageSize, std::memory_order_relaxed);
  return std::shared_ptr<const PageImage>(
      image, [counter](const PageImage* p) {
        counter->fetch_sub(kCkptPageSize, std::memory_order_relaxed);
        delete p;
      });
}

void CheckpointSet::add(Checkpoint checkpoint) {
  table_entries_ += checkpoint.pages.size();
  checkpoints_.push_back(std::move(checkpoint));
  // Adaptive thinning: drop every other checkpoint and double the stride
  // when the set grows past the count cap or the page budget. The
  // trigger depends only on the golden instruction stream, so the
  // surviving set — and therefore which checkpoint any trial restores —
  // is deterministic.
  while (checkpoints_.size() > 2 &&
         (checkpoints_.size() > kMaxLiveCheckpoints ||
          live_page_bytes_->load(std::memory_order_relaxed) >
              kPageBudgetBytes)) {
    thin();
  }
}

void CheckpointSet::thin() {
  std::vector<Checkpoint> kept;
  kept.reserve(checkpoints_.size() / 2 + 1);
  table_entries_ = 0;
  for (std::size_t i = 0; i < checkpoints_.size(); i += 2) {
    table_entries_ += checkpoints_[i].pages.size();
    kept.push_back(std::move(checkpoints_[i]));
  }
  checkpoints_ = std::move(kept);
  stride_ *= 2;
}

std::uint64_t CheckpointSet::page_bytes() const {
  return live_page_bytes_->load(std::memory_order_relaxed);
}

std::uint64_t CheckpointSet::table_bytes() const {
  return static_cast<std::uint64_t>(table_entries_) * sizeof(PageEntry);
}

const Checkpoint& CheckpointSet::nearest_at_or_before(
    std::uint64_t site) const {
  // First checkpoint with fi_sites > site, then step back one. Capture
  // always records a checkpoint at site 0, so the predecessor exists.
  auto it = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), site,
      [](std::uint64_t s, const Checkpoint& c) { return s < c.fi_sites; });
  return *(it - 1);
}

const Checkpoint* CheckpointSet::next_after(std::uint64_t site) const {
  auto it = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), site,
      [](std::uint64_t s, const Checkpoint& c) { return s < c.fi_sites; });
  return it == checkpoints_.end() ? nullptr : &*it;
}

// -------------------------------------------------------------- engine --

class Engine::Impl {
 public:
  Impl(const PredecodedProgram& program, const VmOptions& options)
      : program_(program),
        code_(program.code().data()),
        memory_(options.memory_bytes),
        current_page_((options.memory_bytes + kCkptPageSize - 1) /
                      kCkptPageSize),
        dirty_(current_page_.size(), 0),
        journaled_(current_page_.size(), 0) {
    compute_layout();
  }

  VmResult run_capturing(const VmOptions& options, std::uint64_t stride,
                         CheckpointSet& out, FastForwardStats& stats) {
    out.begin(stride);
    capture_ = &out;
    VmResult result = run_one(nullptr, options, nullptr, 0, stats);
    capture_ = nullptr;
    // A clean golden run also defines the golden final state; faulty
    // trials that re-converge to a checkpoint adopt it (golden rejoin).
    if (result.ok()) {
      GoldenSummary summary;
      summary.valid = true;
      summary.steps = result.steps;
      summary.fi_sites = result.fi_sites;
      summary.return_value = result.return_value;
      summary.output = result.output;
      out.set_summary(std::move(summary));
    }
    return result;
  }

  VmResult run_one(const CheckpointSet* checkpoints, const VmOptions& options,
                   const FaultSpec* faults, std::size_t fault_count,
                   FastForwardStats& stats) {
    const Engine::Trial trial{faults, fault_count};
    VmResult result;
    walk(checkpoints, options, &trial, 1,
         [&](std::size_t, VmResult& run) { result = std::move(run); }, stats);
    return result;
  }

  /// Whether `c` is checkpoint 0, the snapshot taken at site 0 / step 0
  /// immediately after start_cold — restoring it is equivalent to a cold
  /// start.
  static bool is_start_state(const Checkpoint& c) {
    return c.fi_sites == 0 && c.steps == 0;
  }

  /// The golden walk (see Engine::walk). Lanes run in ascending first
  /// fault site; the walk is positioned at a lane's resume point, runs
  /// fault-free to its site, and the lane runs its faults from there —
  /// forked when the next lane continues the walk from this point,
  /// otherwise in place.
  void walk(const CheckpointSet* checkpoints, const VmOptions& options,
            const Engine::Trial* trials, std::size_t count,
            const Engine::TrialSink& sink, FastForwardStats& stats) {
    if (count == 0) return;
    lanes_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t site = trials[i].fault_count == 0 ? 0 : ~std::uint64_t{0};
      for (std::size_t k = 0; k < trials[i].fault_count; ++k) {
        site = std::min(site, trials[i].faults[k].site);
      }
      lanes_[i] = Lane{site, i};
    }
    std::stable_sort(lanes_.begin(), lanes_.end(),
                     [](const Lane& a, const Lane& b) { return a.site < b.site; });

    options_ = &options;
    hooked_ = options.hooked();
    site_observers_ = options.profile || site_pc_sink_ != nullptr ||
                      state_digest_sink_ != nullptr;
    touch_track_ = options.track_touched_functions;
    // Hook state (timing, profile, trace) runs from the cold start and
    // cannot be forked, so hooked runs ignore checkpoints and every lane
    // starts cold.
    ckpts_ = checkpoints != nullptr && !checkpoints->empty() && !hooked_
                 ? checkpoints
                 : nullptr;

    bool positioned = false;  // the engine holds the walk's state
    std::optional<ExitStatus> walk_end;  // the walk halted or trapped
    for (std::size_t k = 0; k < count; ++k) {
      const Lane& lane = lanes_[k];
      fault_injected_ = false;
      fault_landing_.reset();
      fault_step_ = 0;
      rejoined_ = false;
      rejoin_skipped_ = 0;
      rejoin_site_ = 0;
      touched_fns_ = 0;
      if (!positioned) {
        walk_end = reposition(resume_for(lane.site), stats);
        positioned = true;
      }
      if (!walk_end.has_value()) {
        const std::uint64_t start = steps_;
        walk_end = advance(lane.site);
        stats.walk_steps += steps_ - start;
      }
      if (walk_end.has_value()) {
        // The walk ended before the lane's site: its fault never fires
        // and its result is the walk's end state.
        VmResult result = collect(*walk_end);
        stats.count_exit(*walk_end);
        stats.steps_skipped += steps_;
        positioned = !hooked_;
        sink(lane.idx, result);
        continue;
      }
      const bool fork = !hooked_ && k + 1 < count &&
                        continues_walk(lanes_[k + 1].site);
      VmResult result = run_lane(trials[lane.idx], fork, stats);
      positioned = fork;
      sink(lane.idx, result);
    }
    options_ = nullptr;
    ckpts_ = nullptr;
  }

  void set_site_pc_sink(std::vector<std::int32_t>* sink) {
    site_pc_sink_ = sink;
  }

  void set_state_digest_sink(std::vector<std::uint64_t>* sink,
                             const std::vector<std::uint64_t>* live_masks) {
    state_digest_sink_ = sink;
    digest_live_masks_ = sink != nullptr ? live_masks : nullptr;
  }

 private:
  // ----------------------------------------------------------- layout --

  /// Whether the program's globals (placed by PredecodedProgram) fit the
  /// arena, and the heap bound, are computed once per Engine. The
  /// historical kTrapMemory for oversized globals is deferred to run
  /// time, and so is the one for an arena smaller than the unmapped
  /// first page: the bounds check subtracts the access size from the
  /// arena size, so the arena must hold at least one access.
  void compute_layout() {
    if (memory_.size() < 0x1000) {
      layout_ok_ = false;
      return;
    }
    const auto& globals = program_.source().globals;
    std::size_t cursor = 0x1000;
    for (std::size_t g = 0; g < globals.size(); ++g) {
      cursor = static_cast<std::size_t>(program_.global_addrs()[g]);
      if (cursor + static_cast<std::size_t>(globals[g].size_bytes) >
          memory_.size() / 2) {
        layout_ok_ = false;
        return;
      }
      cursor += static_cast<std::size_t>(globals[g].size_bytes);
    }
    heap_end_ = cursor;
  }

  /// Writes global initialisers into the (all-zero) arena, marking the
  /// touched pages dirty so the next prepare can undo them.
  void write_globals() {
    const auto& globals = program_.source().globals;
    for (std::size_t g = 0; g < globals.size(); ++g) {
      const auto& global = globals[g];
      const std::size_t size =
          std::min<std::size_t>(global.init.size(),
                                static_cast<std::size_t>(global.size_bytes));
      if (size == 0) continue;
      const std::size_t addr =
          static_cast<std::size_t>(program_.global_addrs()[g]);
      std::memcpy(memory_.data() + addr, global.init.data(), size);
      mark_dirty_range(addr, size);
      if (state_digest_sink_ != nullptr) {
        // Globals bypass store(); fold their placement and initial bytes
        // into the store chain so state digests see them.
        store_chain_ = mix64(store_chain_ ^ addr ^
                             (static_cast<std::uint64_t>(size) << 32));
        for (std::size_t i = 0; i < size; i += 8) {
          std::uint64_t word = 0;
          std::memcpy(&word, global.init.data() + i, std::min<std::size_t>(8, size - i));
          store_chain_ = mix64(store_chain_ ^ word);
        }
      }
    }
  }

  // --------------------------------------------------- page bookkeeping --

  /// Marks page `p` dirty, listing it on its first dirtying.
  FERRUM_INLINE void mark_dirty(std::size_t p) {
    if (!dirty_[p]) list_dirty(p);
  }

  [[gnu::noinline]] void list_dirty(std::size_t p) {
    dirty_[p] = 1;
    dirty_pages_.push_back(p);
  }

  void mark_dirty_range(std::size_t addr, std::size_t size) {
    const std::size_t first = addr >> kCkptPageBits;
    const std::size_t last = (addr + size - 1) >> kCkptPageBits;
    for (std::size_t p = first; p <= last; ++p) mark_dirty(p);
  }

  std::size_t page_bytes(std::size_t page) const {
    const std::size_t start = page << kCkptPageBits;
    return std::min(kCkptPageSize, memory_.size() - start);
  }

  std::uint8_t* page_data(std::size_t page) {
    return memory_.data() + (page << kCkptPageBits);
  }
  const std::uint8_t* page_data(std::size_t page) const {
    return memory_.data() + (page << kCkptPageBits);
  }

  /// Whether checkpoint `c`'s sparse table holds page `p`.
  static bool holds_page(const Checkpoint& c, std::size_t p) {
    const auto it = std::lower_bound(
        c.pages.begin(), c.pages.end(), p,
        [](const PageEntry& e, std::size_t q) { return e.page < q; });
    return it != c.pages.end() && it->page == p;
  }

  /// Zeroes every dirty page and clears the dirty list; returns the bytes
  /// written.
  std::uint64_t zero_dirty_pages() {
    std::uint64_t bytes = 0;
    for (std::size_t p : dirty_pages_) {
      if (!dirty_[p]) continue;
      std::memset(page_data(p), 0, page_bytes(p));
      bytes += page_bytes(p);
      dirty_[p] = 0;
    }
    dirty_pages_.clear();
    return bytes;
  }

  /// Resets the arena to all-zero by undoing only pages known to differ:
  /// the dirty pages and the pages with provenance.
  void prepare_cold(FastForwardStats& stats) {
    for (std::size_t p : provenance_pages_) {
      current_page_[p].reset();
      mark_dirty(p);
    }
    provenance_pages_.clear();
    stats.restore_bytes += zero_dirty_pages();
  }

  /// Resets the arena to a checkpoint's memory image. Only the dirty
  /// pages, the pages with provenance and the checkpoint's own entries
  /// can differ from it; of those, pages whose current content provably
  /// equals the target (same PageImage, not dirtied) are skipped, so the
  /// per-trial cost is the *diff*, not the arena size.
  void prepare_from(const Checkpoint& checkpoint, FastForwardStats& stats) {
    // A page with provenance that the target does not hold must end
    // all-zero: drop its provenance and let the dirty walk zero it.
    for (std::size_t p : provenance_pages_) {
      if (holds_page(checkpoint, p)) continue;
      current_page_[p].reset();
      mark_dirty(p);
    }
    provenance_pages_.clear();
    for (const PageEntry& entry : checkpoint.pages) {
      const std::size_t p = entry.page;
      provenance_pages_.push_back(p);
      if (!dirty_[p] && current_page_[p] == entry.image) continue;
      std::memcpy(page_data(p), entry.image->bytes, page_bytes(p));
      stats.restore_bytes += page_bytes(p);
      current_page_[p] = entry.image;
      dirty_[p] = 0;
    }
    // Dirty pages the target does not hold.
    stats.restore_bytes += zero_dirty_pages();
  }

  void do_capture(CheckpointSet& out) {
    for (std::size_t p : dirty_pages_) {
      if (current_page_[p] == nullptr) {
        provenance_pages_.insert(std::upper_bound(provenance_pages_.begin(),
                                                  provenance_pages_.end(), p),
                                 p);
      }
      current_page_[p] = out.make_page(page_data(p), page_bytes(p));
      dirty_[p] = 0;
    }
    dirty_pages_.clear();
    Checkpoint ck;
    ck.pc = pc_;
    ck.steps = steps_;
    ck.fi_sites = fi_sites_;
    std::memcpy(ck.gpr, gpr_, sizeof(gpr_));
    std::memcpy(ck.xmm, xmm_, sizeof(xmm_));
    ck.zf = flags_.zf;
    ck.sf = flags_.sf;
    ck.of = flags_.of;
    ck.cf = flags_.cf;
    ck.output = output_;
    ck.pages.reserve(provenance_pages_.size());
    for (std::size_t p : provenance_pages_) {
      ck.pages.push_back(PageEntry{p, current_page_[p]});
    }
    out.add(std::move(ck));
    // Thinning inside add() may have doubled the stride and dropped the
    // freshly added checkpoint; follow whatever survived.
    next_capture_at_ = last_site(out) + out.stride();
    while (next_capture_at_ <= fi_sites_) next_capture_at_ += out.stride();
  }

  static std::uint64_t last_site(const CheckpointSet& out) {
    return out.nearest_at_or_before(~std::uint64_t{0}).fi_sites;
  }

  // ------------------------------------------------------ walk lanes --

  /// Walk state saved at a lane's fork point. Memory is not copied:
  /// suffix writes are journalled copy-on-first-write (see store()) and
  /// undone page-by-page on unfork. The output log is append-only, so
  /// its length suffices to restore it, and so is the dirty list until
  /// the next restore or capture.
  struct ForkPoint {
    std::int32_t pc = 0;
    std::uint64_t steps = 0;
    std::uint64_t fi_sites = 0;
    std::uint64_t gpr[masm::kGprCount];
    std::uint64_t xmm[masm::kXmmCount][4];
    Flags flags;
    std::size_t output_size = 0;
    std::size_t dirty_count = 0;
  };

  void save_fork(ForkPoint& fork) const {
    fork.pc = pc_;
    fork.steps = steps_;
    fork.fi_sites = fi_sites_;
    std::memcpy(fork.gpr, gpr_, sizeof(gpr_));
    std::memcpy(fork.xmm, xmm_, sizeof(xmm_));
    fork.flags = flags_;
    fork.output_size = output_.size();
    fork.dirty_count = dirty_pages_.size();
  }

  void restore_fork(const ForkPoint& fork) {
    pc_ = fork.pc;
    steps_ = fork.steps;
    fi_sites_ = fork.fi_sites;
    std::memcpy(gpr_, fork.gpr, sizeof(gpr_));
    std::memcpy(xmm_, fork.xmm, sizeof(xmm_));
    flags_ = fork.flags;
    output_.resize(fork.output_size);
    halted_ = false;
    // The pages the lane dirtied first were clean at the fork point and
    // the journal has restored them, so they are clean again: a long
    // walk's dirty list, which every restore and rejoin compare walks,
    // stays that of the walk itself.
    for (std::size_t i = fork.dirty_count; i < dirty_pages_.size(); ++i) {
      dirty_[dirty_pages_[i]] = 0;
    }
    dirty_pages_.resize(fork.dirty_count);
  }

  /// Saves page `p`'s pre-image on its first write in a forked lane.
  /// Buffers are pooled so a steady-state walk allocates nothing.
  FERRUM_INLINE void journal_page(std::size_t p) {
    if (!journaled_[p]) journal_copy(p);
  }

  [[gnu::noinline]] void journal_copy(std::size_t p) {
    journaled_[p] = 1;
    std::unique_ptr<PageImage> image;
    if (!journal_pool_.empty()) {
      image = std::move(journal_pool_.back());
      journal_pool_.pop_back();
    } else {
      image = std::make_unique<PageImage>();
    }
    std::memcpy(image->bytes, page_data(p), page_bytes(p));
    journal_.emplace_back(p, std::move(image));
  }

  /// Undoes every journalled page, returning memory to the fork point.
  void journal_restore() {
    for (auto& entry : journal_) {
      std::memcpy(page_data(entry.first), entry.second->bytes,
                  page_bytes(entry.first));
      journaled_[entry.first] = 0;
      journal_pool_.push_back(std::move(entry.second));
    }
    journal_.clear();
  }

  /// The checkpoint a lane whose first fault is at `site` resumes from,
  /// or null for the cold start.
  const Checkpoint* resume_for(std::uint64_t site) const {
    return ckpts_ != nullptr ? &ckpts_->nearest_at_or_before(site) : nullptr;
  }

  /// Whether a lane whose first fault is at `site` continues the walk
  /// from its current position rather than from a checkpoint ahead of it.
  bool continues_walk(std::uint64_t site) const {
    const Checkpoint* resume = resume_for(site);
    return resume == nullptr || resume->fi_sites <= fi_sites_;
  }

  /// Puts the walk at `resume` (null: the cold start) with fresh hook
  /// state. Returns the trap status when the cold start itself traps.
  std::optional<ExitStatus> reposition(const Checkpoint* resume,
                                       FastForwardStats& stats) {
    trace_.clear();
    store_chain_ = 0;
    output_chain_ = 0;
    halted_ = false;
    timing_.reset();
    if (options_->timing) {
      timing_.emplace(options_->timing_params);
      const std::vector<DecodedInst>& code = program_.code();
      timing_records_.resize(code.size());
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        if (code[pc].inst != nullptr && code[pc].tag != kTagInvalid) {
          timing_records_[pc] = timing_->record(*code[pc].inst);
        }
      }
    }
    profile_ = VmProfile{};
    if (options_->profile) {
      block_hits_.assign(program_.source().functions.size(), {});
      for (std::size_t f = 0; f < block_hits_.size(); ++f) {
        block_hits_[f].assign(program_.source().functions[f].blocks.size(), 0);
      }
    }
    try {
      if (resume != nullptr && !is_start_state(*resume)) {
        restore_checkpoint(*resume, stats);
      } else {
        // Checkpoint 0 holds the cold start state, so starting cold
        // undoes only the previous run's dirty pages instead of a full
        // register, flags, output and page-table restore.
        start_cold(stats);
        if (capture_ != nullptr) {
          next_capture_at_ = 0;  // checkpoint 0 right at the start
          do_capture(*capture_);
        }
      }
    } catch (const Trap& trap) {
      return trap.status;
    }
    return std::nullopt;
  }

  /// Runs the walk fault-free to the first instruction boundary where
  /// fi_sites_ reaches `site`. Returns the status when it ends first.
  std::optional<ExitStatus> advance(std::uint64_t site) {
    try {
      const LoopExit exit = run_loop(site);
      if (exit.kind != LoopExit::kPaused) return exit.status;
    } catch (const Trap& trap) {
      return trap.status;
    }
    return std::nullopt;
  }

  /// Runs one lane's faults from the walk's current position to the end.
  /// A forked lane saves the registers and journals its stores, and the
  /// walk returns to the fork point afterwards; otherwise the lane runs
  /// in place and the walk's state is spent.
  VmResult run_lane(const Engine::Trial& trial, bool fork,
                    FastForwardStats& stats) {
    faults_ = trial.faults;
    fault_count_ = trial.fault_count;
    const std::uint64_t fork_steps = steps_;
    if (fork) {
      save_fork(fork_);
      journaling_ = true;
      stats.forks += 1;
    }
    ExitStatus status;
    try {
      status = run_to_end(stats);
    } catch (const Trap& trap) {
      status = trap.status;
    }
    VmResult result = collect(status);
    if (fork) {
      journaling_ = false;
      journal_restore();
      restore_fork(fork_);
    }
    faults_ = nullptr;
    fault_count_ = 0;
    stats.count_exit(status);
    account_steps(result, fork_steps, stats);
    return result;
  }

  /// The result of a run that ended with `status` in the current state.
  VmResult collect(ExitStatus status) {
    VmResult result;
    result.status = status;
    if (result.ok()) {
      result.return_value =
          static_cast<std::int64_t>(gpr_[static_cast<int>(Gpr::kRax)]);
    }
    result.output = output_;
    result.trace = std::move(trace_);
    result.steps = steps_;
    result.fi_sites = fi_sites_;
    result.fault_injected = fault_injected_;
    result.fault_landing = fault_landing_;
    result.fault_step = fault_step_;
    result.touched_functions = touched_fns_;
    result.rejoined = rejoined_;
    result.rejoin_site = rejoin_site_;
    if (timing_.has_value()) {
      result.cycles = timing_->cycles();
      result.timing_stats = timing_->stats();
    }
    if (options_->profile) {
      finalize_hot_blocks();
      result.profile = std::move(profile_);
    }
    return result;
  }

  /// Step accounting of one lane that began interpreting at step `start`,
  /// its fork point: skipped and executed steps, the rejoin, and the
  /// prefix/post-fault ledger.
  void account_steps(const VmResult& result, std::uint64_t start,
                     FastForwardStats& stats) const {
    const std::uint64_t executed = result.steps - start - rejoin_skipped_;
    const std::uint64_t prefix =
        fault_injected_ ? fault_step_ - start : executed;
    stats.steps_skipped += start + rejoin_skipped_;
    stats.steps_executed += executed;
    stats.prefix_steps += prefix;
    stats.post_fault_steps += executed - prefix;
    if (rejoined_) stats.rejoins += 1;
    if (fault_injected_ && !rejoined_ && result.ok()) {
      stats.unrejoined_halts += 1;
      stats.unrejoined_halt_steps += executed - prefix;
    }
  }

  // ------------------------------------------------------------- run --

  /// Restores architectural state, counters and memory to a checkpoint.
  void restore_checkpoint(const Checkpoint& resume, FastForwardStats& stats) {
    stats.restores += 1;
    prepare_from(resume, stats);
    std::memcpy(gpr_, resume.gpr, sizeof(gpr_));
    std::memcpy(xmm_, resume.xmm, sizeof(xmm_));
    flags_.zf = resume.zf;
    flags_.sf = resume.sf;
    flags_.of = resume.of;
    flags_.cf = resume.cf;
    output_ = resume.output;
    steps_ = resume.steps;
    fi_sites_ = resume.fi_sites;
    pc_ = resume.pc;
  }

  /// Cold start: zeroed arena/registers, globals written, stack + exit
  /// sentinel set up, pc at main's entry. Throws the historical traps
  /// for oversized globals and missing main.
  void start_cold(FastForwardStats& stats) {
    prepare_cold(stats);
    output_.clear();
    steps_ = 0;
    fi_sites_ = 0;
    std::memset(gpr_, 0, sizeof(gpr_));
    std::memset(xmm_, 0, sizeof(xmm_));
    flags_ = Flags{};
    if (!layout_ok_) raise_trap(ExitStatus::kTrapMemory);
    write_globals();
    if (program_.main_index() < 0) raise_trap(ExitStatus::kTrapInvalid);
    gpr_[static_cast<int>(Gpr::kRsp)] = memory_.size() - 64;
    push64(kExitSentinel);
    pc_ = program_.entry_pc(program_.main_index());
  }

  static constexpr std::uint64_t kNoPause = ~std::uint64_t{0};

  /// How one inner-loop run ended. The traps a dispatch loop raises
  /// itself — a detection, the step budget, the end-of-function
  /// sentinel and an undefined operand width — come back as kTrapped
  /// with their status rather than as a thrown Trap: most faulty runs of
  /// protected code end in a detection, and unwinding costs about 5 us
  /// per run. Traps raised inside the per-opcode helpers (bounds,
  /// divide, invalid target/return/callee/operand) still throw: they are
  /// rare, and returning them would put a check after every helper call
  /// on the hot path.
  struct LoopExit {
    enum Kind : std::uint8_t { kHalted, kPaused, kTrapped };
    Kind kind = kHalted;
    /// kOk unless kind == kTrapped.
    ExitStatus status = ExitStatus::kOk;
  };
  static constexpr LoopExit trapped(ExitStatus status) {
    return LoopExit{LoopExit::kTrapped, status};
  }

  /// Whether this run can attempt golden rejoin: checkpoints with a
  /// clean golden summary are in play (never in a hooked run), no site
  /// observer wants the real instruction stream, and the golden run fits the
  /// trial's step budget (so the adopted tail provably contains no
  /// kTrapSteps the trial would have hit).
  bool can_rejoin() const {
    return ckpts_ != nullptr && options_->golden_rejoin &&
           ckpts_->summary().valid && !site_observers_ &&
           ckpts_->summary().steps <= options_->max_steps;
  }

  /// State comparison against a golden checkpoint, taken at the same
  /// inter-instruction position capture used: exact for everything but
  /// the GPR bytes no instruction can read. Memory is compared as a
  /// diff over the only pages that can differ — the golden entries, the
  /// pages with provenance and the dirty pages. Pages whose provenance
  /// pointer already equals the golden page (and were not dirtied
  /// since) are skipped without touching their bytes — consecutive
  /// checkpoints share unchanged PageImages, so the byte-compared set is
  /// roughly the trial's write footprint.
  bool state_matches(const Checkpoint& b, FastForwardStats& stats) const {
    stats.compares += 1;
    if (pc_ != b.pc || steps_ != b.steps || fi_sites_ != b.fi_sites) {
      return false;
    }
    if (flags_.zf != b.zf || flags_.sf != b.sf || flags_.of != b.of ||
        flags_.cf != b.cf) {
      return false;
    }
    // GPRs compare only under the program's read masks: a byte that no
    // instruction reads cannot reach a later value, address, branch,
    // output or return value, so it cannot make the tail differ.
    for (int r = 0; r < masm::kGprCount; ++r) {
      const std::uint64_t read = program_.gpr_read_mask(static_cast<Gpr>(r));
      if (((gpr_[r] ^ b.gpr[r]) & read) != 0) return false;
    }
    if (std::memcmp(xmm_, b.xmm, sizeof(xmm_)) != 0) return false;
    if (output_ != b.output) return false;
    const auto same_bytes = [&](std::size_t p, const PageImage& want) {
      stats.compare_bytes += page_bytes(p);
      return std::memcmp(page_data(p), want.bytes, page_bytes(p)) == 0;
    };
    for (const PageEntry& entry : b.pages) {
      const std::size_t p = entry.page;
      if (!dirty_[p] && current_page_[p] == entry.image) continue;
      if (!same_bytes(p, *entry.image)) return false;
    }
    // Pages the golden table does not hold are all-zero there.
    static const PageImage kZeroPage = {};
    for (std::size_t p : provenance_pages_) {
      if (!holds_page(b, p) && !same_bytes(p, kZeroPage)) return false;
    }
    for (std::size_t p : dirty_pages_) {
      if (current_page_[p] == nullptr && !holds_page(b, p) &&
          !same_bytes(p, kZeroPage)) {
        return false;
      }
    }
    return true;
  }

  /// The tail from a matched boundary is the golden tail; skip straight
  /// to the golden final state. Only rax (the return value), the output
  /// log and the counters are observable past this point — memory and
  /// the other registers are dead on halt.
  void adopt_golden_tail(const GoldenSummary& summary) {
    rejoin_skipped_ = summary.steps - steps_;
    rejoined_ = true;
    steps_ = summary.steps;
    fi_sites_ = summary.fi_sites;
    output_ = summary.output;
    gpr_[static_cast<int>(Gpr::kRax)] =
        static_cast<std::uint64_t>(summary.return_value);
    halted_ = true;
  }

  /// One inner-loop run on the instance the run's hooks select.
  LoopExit run_loop(std::uint64_t stop_at_sites) {
    return hooked_ ? loop<true>(stop_at_sites) : loop<false>(stop_at_sites);
  }

  /// Runs the current run to its end and returns its status: kOk on halt
  /// (or an adopted golden tail), otherwise the trap the loop raised.
  /// Traps raised inside helpers propagate as Trap. A capturing run
  /// pauses at each capture boundary to take the checkpoint.
  ExitStatus run_to_end(FastForwardStats& stats) {
    if (capture_ != nullptr) {
      for (;;) {
        const LoopExit exit = run_loop(next_capture_at_);
        if (exit.kind != LoopExit::kPaused) return exit.status;
        do_capture(*capture_);
      }
    }
    if (can_rejoin()) {
      // Once every sampled fault has fired (fi_sites_ has passed the
      // largest spec site) the trial is deterministic again; pause at
      // each golden checkpoint boundary ahead and compare. An exact
      // match proves the remaining tail golden — adopt it. A mismatch
      // (fault still propagating) just moves on to the next boundary.
      std::uint64_t last_site = 0;
      for (std::size_t i = 0; i < fault_count_; ++i) {
        last_site = std::max(last_site, faults_[i].site);
      }
      for (;;) {
        const Checkpoint* b =
            ckpts_->next_after(std::max(fi_sites_, last_site));
        if (b == nullptr) break;  // past the last boundary — run it out
        const LoopExit exit = run_loop(b->fi_sites);
        if (exit.kind != LoopExit::kPaused) return exit.status;
        if (state_matches(*b, stats)) {
          rejoin_site_ = b->fi_sites;
          adopt_golden_tail(ckpts_->summary());
          return ExitStatus::kOk;
        }
      }
    }
    return run_loop(kNoPause).status;
  }

  // ------------------------------------------------------------ memory --

  /// Compared against `memory size - size` rather than `addr + size`
  /// against the size: the sum wraps for the last `size` addresses below
  /// 2^64, which would let an access there reach past the arena.
  FERRUM_INLINE void check_range(std::uint64_t addr, int size) {
    if (addr < 0x1000 ||
        addr > memory_.size() - static_cast<std::uint64_t>(size)) {
      raise_trap(ExitStatus::kTrapMemory);
    }
  }

  /// Loads and stores move 1, 4 or 8 bytes, the widths predecode admits,
  /// each as one fixed-width access.
  FERRUM_INLINE std::uint64_t load(std::uint64_t addr, int size) {
    check_range(addr, size);
    const std::uint8_t* at = memory_.data() + addr;
    switch (size) {
      case 1:
        return *at;
      case 4: {
        std::uint32_t value;
        std::memcpy(&value, at, 4);
        return value;
      }
      case 8: {
        std::uint64_t value;
        std::memcpy(&value, at, 8);
        return value;
      }
      default:
        raise_trap(ExitStatus::kTrapInvalid);
    }
  }

  FERRUM_INLINE void store(std::uint64_t addr, int size, std::uint64_t value) {
    check_range(addr, size);
    // Single choke point for all program writes: record which pages have
    // diverged from the provenance table (writes can straddle a page),
    // and — inside a forked lane — save each page's pre-image before its
    // first modification so the walk can return to the fork point.
    const std::size_t first = static_cast<std::size_t>(addr) >> kCkptPageBits;
    const std::size_t last =
        (static_cast<std::size_t>(addr) + static_cast<std::size_t>(size) - 1) >>
        kCkptPageBits;
    if (journaling_) [[unlikely]] {
      journal_page(first);
      if (last != first) journal_page(last);
    }
    if (state_digest_sink_ != nullptr) [[unlikely]] {
      chain_store(addr, size, value);
    }
    std::uint8_t* at = memory_.data() + addr;
    switch (size) {
      case 1:
        *at = static_cast<std::uint8_t>(value);
        break;
      case 4: {
        const auto narrow = static_cast<std::uint32_t>(value);
        std::memcpy(at, &narrow, 4);
        break;
      }
      case 8:
        std::memcpy(at, &value, 8);
        break;
      default:
        raise_trap(ExitStatus::kTrapInvalid);
    }
    mark_dirty(first);
    if (last != first) mark_dirty(last);
  }

  /// Folds one store into the state digests' store chain.
  [[gnu::noinline]] void chain_store(std::uint64_t addr, int size,
                                     std::uint64_t value) {
    store_chain_ = mix64(store_chain_ ^ addr);
    store_chain_ = mix64(store_chain_ ^
                         (static_cast<std::uint64_t>(size) << 56) ^ value);
  }

  FERRUM_INLINE void push64(std::uint64_t value) {
    std::uint64_t& rsp = gpr_[static_cast<int>(Gpr::kRsp)];
    rsp -= 8;
    if (rsp <= heap_end_) raise_trap(ExitStatus::kTrapMemory);
    store(rsp, 8, value);
  }

  FERRUM_INLINE std::uint64_t pop64() {
    std::uint64_t& rsp = gpr_[static_cast<int>(Gpr::kRsp)];
    const std::uint64_t value = load(rsp, 8);
    rsp += 8;
    return value;
  }

  // ----------------------------------------------------------- operands --

  FERRUM_INLINE std::uint64_t effective_address(const MemRef& mem) {
    std::uint64_t addr = 0;
    if (mem.global_id >= 0) {
      const std::vector<std::uint64_t>& global_addrs = program_.global_addrs();
      if (mem.global_id >= static_cast<int>(global_addrs.size())) {
        raise_trap(ExitStatus::kTrapInvalid);
      }
      addr = global_addrs[static_cast<std::size_t>(mem.global_id)];
    } else if (mem.base != Gpr::kNone) {
      addr = gpr_[static_cast<int>(mem.base)];
    }
    addr += static_cast<std::uint64_t>(mem.disp);
    if (mem.index != Gpr::kNone) {
      addr += gpr_[static_cast<int>(mem.index)] *
              static_cast<std::uint64_t>(mem.scale);
    }
    return addr;
  }

  // Width switches below enumerate the supported widths explicitly and
  // trap on anything else; the decoder already rejects unsupported
  // widths (kTagInvalid), so the default arms are belt-and-braces
  // against a width the decode pass missed — never a silent 64-bit
  // access.

  FERRUM_INLINE std::uint64_t read_gpr(Gpr reg, int width) {
    const std::uint64_t raw = gpr_[static_cast<int>(reg)];
    switch (width) {
      case 1: return raw & 0xff;
      case 4: return raw & 0xffff'ffffULL;
      case 8: return raw;
      default: raise_trap(ExitStatus::kTrapInvalid);
    }
  }

  /// x86 merge semantics: 32-bit writes zero-extend, 8-bit writes merge.
  FERRUM_INLINE std::uint64_t merged_gpr_value(Gpr reg, int width,
                                               std::uint64_t value) {
    switch (width) {
      case 1:
        return (gpr_[static_cast<int>(reg)] & ~0xffULL) | (value & 0xff);
      case 4:
        return value & 0xffff'ffffULL;
      case 8:
        return value;
      default:
        raise_trap(ExitStatus::kTrapInvalid);
    }
  }

  FERRUM_INLINE std::uint64_t read_operand(const Operand& op) {
    switch (op.kind) {
      case Operand::Kind::kReg:
        return read_gpr(op.reg, op.width);
      case Operand::Kind::kImm:
        return static_cast<std::uint64_t>(op.imm);
      case Operand::Kind::kMem: {
        const std::uint64_t addr = effective_address(op.mem);
        touched_addr_ = addr;
        return load(addr, op.width);
      }
      case Operand::Kind::kXmm:
        return xmm_[op.xmm][0];
      default:
        raise_trap(ExitStatus::kTrapInvalid);
    }
  }

  FERRUM_INLINE std::int64_t read_signed(const Operand& op) {
    const std::uint64_t raw = read_operand(op);
    switch (op.width) {
      case 1: return static_cast<std::int8_t>(raw & 0xff);
      case 4: return static_cast<std::int32_t>(raw & 0xffff'ffffULL);
      case 8: return static_cast<std::int64_t>(raw);
      default: raise_trap(ExitStatus::kTrapInvalid);
    }
  }

  // ----------------------------------------------- fault machinery --

  /// Off-hot-path site observers: the prune mode's pc sink and the
  /// profiler's per-kind tallies. Both sit behind the single
  /// site_observers_ flag so the common case (neither active) pays one
  /// predictable branch per site instead of two.
  [[gnu::noinline]] void observe_site(FaultKind kind) {
    if (site_pc_sink_ != nullptr) site_pc_sink_->push_back(pc_);
    if (state_digest_sink_ != nullptr) {
      state_digest_sink_->push_back(state_digest());
    }
    if (options_->profile) ++profile_.site_counts[static_cast<int>(kind)];
  }

  /// splitmix64 finaliser — the same avalanche the prune layer's
  /// detail::mix64 uses, duplicated here to keep vm free of fault
  /// headers.
  FERRUM_INLINE static std::uint64_t mix64(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  /// Digest of the machine state at the current FI site, masked down to
  /// the registers/flags *live* before the instruction at pc_ (see
  /// Engine::set_state_digest_sink). Memory and output enter through the
  /// running store/output chains rather than a full-arena hash: the
  /// chains cover every byte that can differ from the zeroed cold-start
  /// state (globals folded at start_cold, every later write passes
  /// store()), and dead stack noise cannot arise because *stores* are
  /// architecturally visible effects, not dead register garbage.
  std::uint64_t state_digest() const {
    std::uint64_t mask = ~std::uint64_t{0};
    if (digest_live_masks_ != nullptr &&
        static_cast<std::size_t>(pc_) < digest_live_masks_->size()) {
      mask = (*digest_live_masks_)[static_cast<std::size_t>(pc_)];
    }
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int r = 0; r < masm::kGprCount; ++r) {
      if ((mask >> r) & 1) h = mix64(h ^ gpr_[r]);
    }
    for (int x = 0; x < masm::kXmmCount; ++x) {
      if ((mask >> (16 + x)) & 1) {
        for (int lane = 0; lane < 4; ++lane) {
          h = mix64(h ^ xmm_[x][lane]);
        }
      }
    }
    if ((mask >> 32) & 1) {
      h = mix64(h ^ (static_cast<std::uint64_t>(flags_.zf) |
                     (static_cast<std::uint64_t>(flags_.sf) << 1) |
                     (static_cast<std::uint64_t>(flags_.of) << 2) |
                     (static_cast<std::uint64_t>(flags_.cf) << 3)));
    }
    h = mix64(h ^ steps_);
    h = mix64(h ^ store_chain_);
    h = mix64(h ^ output_chain_);
    return h;
  }

  /// Function bit for VmResult::touched_functions; indexes >= 63 share
  /// the overflow bucket (bit 63).
  static std::uint64_t fn_bit(std::int32_t fidx) {
    return std::uint64_t{1} << (fidx < 63 ? fidx : 63);
  }

  /// Registers one FI site; returns the matching fault spec when this
  /// site is one of the sampled ones, or nullptr.
  FERRUM_INLINE const FaultSpec* fi_site(FaultKind kind, const AsmInst& inst,
                                         const DecodedInst& d) {
    const std::uint64_t id = fi_sites_++;
    if (site_observers_) [[unlikely]] observe_site(kind);
    for (std::size_t i = 0; i < fault_count_; ++i) {
      const FaultSpec& spec = faults_[i];
      if (id != spec.site) continue;
      if (!fault_injected_) land_fault(kind, inst, d);
      return &spec;
    }
    return nullptr;
  }

  /// Records where the run's first fault landed.
  [[gnu::noinline]] void land_fault(FaultKind kind, const AsmInst& inst,
                                    const DecodedInst& d) {
    FaultLanding landing;
    landing.kind = kind;
    landing.origin = inst.origin;
    landing.op = inst.op;
    landing.function = program_.source().functions[d.fidx].name;
    landing.block = d.bidx;
    landing.inst = d.iidx;
    fault_landing_ = landing;
    fault_step_ = steps_;
    if (touch_track_) touched_fns_ |= fn_bit(d.fidx);
    fault_injected_ = true;
  }

  /// Mask of `burst` adjacent bits, wrapping within `width` bits.
  FERRUM_INLINE static std::uint64_t burst_mask(const FaultSpec& spec,
                                                 int width) {
    std::uint64_t mask = 0;
    for (int i = 0; i < spec.burst; ++i) {
      mask |= std::uint64_t{1} << ((spec.bit + i) % width);
    }
    return mask;
  }

  /// Writes a GPR (with merge semantics), applying a fault if sampled.
  FERRUM_INLINE void write_gpr_faultable(Gpr reg, int width,
                                         std::uint64_t value,
                                         const AsmInst& inst,
                                         const DecodedInst& d) {
    std::uint64_t merged = merged_gpr_value(reg, width, value);
    if (const FaultSpec* spec = fi_site(FaultKind::kGprWrite, inst, d)) {
      merged ^= burst_mask(*spec, 64);
    }
    gpr_[static_cast<int>(reg)] = merged;
  }

  FERRUM_INLINE void write_flags_faultable(Flags flags, const AsmInst& inst,
                                           const DecodedInst& d) {
    if (const FaultSpec* spec = fi_site(FaultKind::kFlagsWrite, inst, d)) {
      const std::uint64_t mask = burst_mask(*spec, 4);
      if (mask & 1) flags.zf = !flags.zf;
      if (mask & 2) flags.sf = !flags.sf;
      if (mask & 4) flags.of = !flags.of;
      if (mask & 8) flags.cf = !flags.cf;
    }
    flags_ = flags;
  }

  FERRUM_INLINE void store_faultable(std::uint64_t addr, int size,
                                     std::uint64_t value, const AsmInst& inst,
                                     const DecodedInst& d) {
    if (options_->fault_store_data) {
      if (const FaultSpec* spec = fi_site(FaultKind::kStoreData, inst, d)) {
        value ^= burst_mask(*spec, size * 8);
      }
    }
    touched_addr_ = addr;
    store(addr, size, value);
  }

  /// Writes xmm lane(s); `lane_count` 64-bit lanes starting at `lane`.
  FERRUM_INLINE void write_xmm_faultable(int reg, int lane, int lane_count,
                                         const std::uint64_t* values,
                                         const AsmInst& inst,
                                         const DecodedInst& d) {
    std::uint64_t lanes[4];
    std::memcpy(lanes, values,
                static_cast<std::size_t>(lane_count) * sizeof(std::uint64_t));
    if (const FaultSpec* spec = fi_site(FaultKind::kXmmWrite, inst, d)) {
      const int total_bits = lane_count * 64;
      for (int i = 0; i < spec->burst; ++i) {
        const int target = (spec->bit + i) % total_bits;
        lanes[target / 64] ^= std::uint64_t{1} << (target % 64);
      }
    }
    for (int i = 0; i < lane_count; ++i) xmm_[reg][lane + i] = lanes[i];
  }

  // ---------------------------------------------------------- execution --

  FERRUM_INLINE bool eval_cond(Cond cc) const {
    switch (cc) {
      case Cond::kE: return flags_.zf;
      case Cond::kNe: return !flags_.zf;
      case Cond::kL: return flags_.sf != flags_.of;
      case Cond::kLe: return flags_.zf || flags_.sf != flags_.of;
      case Cond::kG: return !flags_.zf && flags_.sf == flags_.of;
      case Cond::kGe: return flags_.sf == flags_.of;
      case Cond::kA: return !flags_.cf && !flags_.zf;
      case Cond::kAe: return !flags_.cf;
      case Cond::kB: return flags_.cf;
      case Cond::kBe: return flags_.cf || flags_.zf;
    }
    return false;
  }

  FERRUM_INLINE static std::int64_t sign_at(std::uint64_t value, int width) {
    switch (width) {
      case 1: return static_cast<std::int8_t>(value & 0xff);
      case 4: return static_cast<std::int32_t>(value & 0xffff'ffffULL);
      case 8: return static_cast<std::int64_t>(value);
      default: raise_trap(ExitStatus::kTrapInvalid);
    }
  }

  /// Value mask of a `width`-byte access.
  static constexpr std::uint64_t mask_of(int width) {
    return width == 8 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (width * 8)) - 1;
  }

  FERRUM_INLINE Flags flags_of_sub(std::uint64_t a, std::uint64_t b,
                                   int width) {
    // a - b at the given width.
    const std::uint64_t mask = mask_of(width);
    const std::uint64_t result = (a - b) & mask;
    Flags flags;
    flags.zf = result == 0;
    flags.sf = sign_at(result, width) < 0;
    flags.cf = (a & mask) < (b & mask);
    const std::int64_t sa = sign_at(a, width);
    const std::int64_t sb = sign_at(b, width);
    const std::int64_t sr = sign_at(result, width);
    flags.of = ((sa < 0) != (sb < 0)) && ((sr < 0) != (sa < 0));
    return flags;
  }

  FERRUM_INLINE Flags flags_of_result(std::uint64_t result, int width) {
    Flags flags;
    const std::uint64_t mask = mask_of(width);
    flags.zf = (result & mask) == 0;
    flags.sf = sign_at(result, width) < 0;
    return flags;
  }

  FERRUM_INLINE double as_f64(std::uint64_t raw) const {
    double value;
    std::memcpy(&value, &raw, sizeof(value));
    return value;
  }
  FERRUM_INLINE std::uint64_t from_f64(double value) const {
    std::uint64_t raw;
    std::memcpy(&raw, &value, sizeof(raw));
    return raw;
  }

  // Per-opcode bodies, reached from the loop's handlers. Control
  // transfers set the loop's next_pc; its default, pc + 1, covers both
  // straight-line flow and the old interpreter's free fall-through into
  // the next block.

  FERRUM_INLINE void exec_mov(const AsmInst& inst, const DecodedInst& d) {
    const std::uint64_t value = read_operand(inst.ops[0]);
    if (inst.ops[1].is_mem()) {
      store_faultable(effective_address(inst.ops[1].mem), inst.ops[1].width,
                      value, inst, d);
    } else {
      write_gpr_faultable(inst.ops[1].reg, inst.ops[1].width, value, inst, d);
    }
  }

  FERRUM_INLINE void exec_movsx(const AsmInst& inst, const DecodedInst& d) {
    const std::int64_t value = read_signed(inst.ops[0]);
    write_gpr_faultable(inst.ops[1].reg, inst.ops[1].width,
                        static_cast<std::uint64_t>(value), inst, d);
  }

  FERRUM_INLINE void exec_movzx(const AsmInst& inst, const DecodedInst& d) {
    const std::uint64_t value = read_operand(inst.ops[0]);
    write_gpr_faultable(inst.ops[1].reg, inst.ops[1].width, value, inst, d);
  }

  FERRUM_INLINE void exec_lea(const AsmInst& inst, const DecodedInst& d) {
    const std::uint64_t addr = effective_address(inst.ops[0].mem);
    write_gpr_faultable(inst.ops[1].reg, 8, addr, inst, d);
  }

  FERRUM_INLINE void exec_push(const AsmInst& inst, const DecodedInst& d) {
    std::uint64_t& rsp = gpr_[static_cast<int>(Gpr::kRsp)];
    rsp -= 8;
    if (rsp <= heap_end_) raise_trap(ExitStatus::kTrapMemory);
    store_faultable(rsp, 8, read_operand(inst.ops[0]), inst, d);
  }

  FERRUM_INLINE void exec_pop(const AsmInst& inst, const DecodedInst& d) {
    const std::uint64_t value = pop64();
    write_gpr_faultable(inst.ops[0].reg, 8, value, inst, d);
  }

  FERRUM_INLINE void exec_cmp(const AsmInst& inst, const DecodedInst& d) {
    const std::uint64_t b = read_operand(inst.ops[0]);
    const std::uint64_t a = read_operand(inst.ops[1]);
    write_flags_faultable(flags_of_sub(a, b, inst.ops[1].width), inst, d);
  }

  FERRUM_INLINE void exec_test(const AsmInst& inst, const DecodedInst& d) {
    const std::uint64_t b = read_operand(inst.ops[0]);
    const std::uint64_t a = read_operand(inst.ops[1]);
    Flags flags = flags_of_result(a & b, inst.ops[1].width);
    write_flags_faultable(flags, inst, d);
  }

  FERRUM_INLINE void exec_setcc(const AsmInst& inst, const DecodedInst& d) {
    const std::uint64_t value = eval_cond(inst.cc) ? 1 : 0;
    if (inst.ops[0].is_mem()) {
      store_faultable(effective_address(inst.ops[0].mem), 1, value, inst, d);
    } else {
      write_gpr_faultable(inst.ops[0].reg, 1, value, inst, d);
    }
  }

  FERRUM_INLINE void exec_jcc(const AsmInst& inst, const DecodedInst& d,
                              std::int32_t& next_pc) {
    bool taken = eval_cond(inst.cc);
    if (fi_site(FaultKind::kBranchDecision, inst, d) != nullptr) {
      taken = !taken;
    }
    if (taken) {
      if (d.target_pc < 0) raise_trap(ExitStatus::kTrapInvalid);
      next_pc = d.target_pc;
    }
  }

  FERRUM_INLINE void exec_jmp(const AsmInst&, const DecodedInst& d,
                              std::int32_t& next_pc) {
    if (d.target_pc < 0) raise_trap(ExitStatus::kTrapInvalid);
    next_pc = d.target_pc;
  }

  FERRUM_INLINE void exec_ret(const AsmInst&, const DecodedInst&,
                              std::int32_t& next_pc) {
    const std::uint64_t addr = pop64();
    if (addr == kExitSentinel) {
      halted_ = true;
      return;
    }
    if ((addr & 0xff00'0000'0000'0000ULL) != kRetTag) {
      raise_trap(ExitStatus::kTrapInvalid);
    }
    const int fidx = static_cast<int>((addr >> 40) & 0xffff);
    const int bidx = static_cast<int>((addr >> 20) & 0xfffff);
    const int iidx = static_cast<int>(addr & 0xfffff);
    if (fidx >= program_.function_count() ||
        bidx >= program_.block_count(fidx)) {
      raise_trap(ExitStatus::kTrapInvalid);
    }
    if (touch_track_ && fault_injected_) touched_fns_ |= fn_bit(fidx);
    // An iidx past the block's end fell through to the next block in
    // the old interpreter; the clamp to the next block's base pc (the
    // sentinel when bidx is the last block) reproduces that exactly.
    next_pc = std::min(program_.block_pc(fidx, bidx) + iidx,
                       program_.block_pc(fidx, bidx + 1));
  }

  FERRUM_INLINE void exec_movsd(const AsmInst& inst, const DecodedInst& d) {
    if (inst.ops[0].is_xmm() && inst.ops[1].is_xmm()) {
      std::uint64_t lane = xmm_[inst.ops[0].xmm][0];
      write_xmm_faultable(inst.ops[1].xmm, 0, 1, &lane, inst, d);
    } else if (inst.ops[1].is_xmm()) {
      std::uint64_t lane = read_operand(inst.ops[0]);
      write_xmm_faultable(inst.ops[1].xmm, 0, 1, &lane, inst, d);
    } else {
      store_faultable(effective_address(inst.ops[1].mem), 8,
                      xmm_[inst.ops[0].xmm][0], inst, d);
    }
  }

  FERRUM_INLINE static double sse_result(Op op, double a, double b) {
    switch (op) {
      case Op::kAddsd: return a + b;
      case Op::kSubsd: return a - b;
      case Op::kMulsd: return a * b;
      default: return a / b;
    }
  }

  FERRUM_INLINE void exec_sse_arith(const AsmInst& inst, const DecodedInst& d) {
    const double b = as_f64(inst.ops[0].is_xmm() ? xmm_[inst.ops[0].xmm][0]
                                                 : read_operand(inst.ops[0]));
    const double a = as_f64(xmm_[inst.ops[1].xmm][0]);
    std::uint64_t lane = from_f64(sse_result(inst.op, a, b));
    write_xmm_faultable(inst.ops[1].xmm, 0, 1, &lane, inst, d);
  }

  FERRUM_INLINE void exec_sqrtsd(const AsmInst& inst, const DecodedInst& d) {
    const double a = as_f64(inst.ops[0].is_xmm() ? xmm_[inst.ops[0].xmm][0]
                                                 : read_operand(inst.ops[0]));
    std::uint64_t lane = from_f64(std::sqrt(a));
    write_xmm_faultable(inst.ops[1].xmm, 0, 1, &lane, inst, d);
  }

  FERRUM_INLINE void exec_ucomisd(const AsmInst& inst, const DecodedInst& d) {
    const double b = as_f64(inst.ops[0].is_xmm() ? xmm_[inst.ops[0].xmm][0]
                                                 : read_operand(inst.ops[0]));
    const double a = as_f64(xmm_[inst.ops[1].xmm][0]);
    write_flags_faultable(ucomisd_flags(a, b), inst, d);
  }

  FERRUM_INLINE static Flags ucomisd_flags(double a, double b) {
    Flags flags;
    if (a != a || b != b) {
      flags.zf = flags.cf = true;  // unordered
    } else {
      flags.zf = a == b;
      flags.cf = a < b;
    }
    return flags;
  }

  FERRUM_INLINE void exec_cvtsi2sd(const AsmInst& inst, const DecodedInst& d) {
    const std::int64_t value = read_signed(inst.ops[0]);
    std::uint64_t lane = from_f64(static_cast<double>(value));
    write_xmm_faultable(inst.ops[1].xmm, 0, 1, &lane, inst, d);
  }

  FERRUM_INLINE void exec_cvttsd2si(const AsmInst& inst, const DecodedInst& d) {
    write_gpr_faultable(inst.ops[1].reg, inst.ops[1].width,
                        truncate_f64(xmm_[inst.ops[0].xmm][0]), inst, d);
  }

  FERRUM_INLINE std::uint64_t truncate_f64(std::uint64_t raw) const {
    const double value = as_f64(raw);
    std::int64_t result;
    if (value != value || value < -9.3e18 || value > 9.3e18) {
      result = INT64_MIN;  // x86 integer-indefinite
    } else {
      result = static_cast<std::int64_t>(value);
    }
    return static_cast<std::uint64_t>(result);
  }

  FERRUM_INLINE void exec_movq(const AsmInst& inst, const DecodedInst& d) {
    if (inst.ops[1].is_xmm()) {
      // gpr/mem -> xmm low lane; lane1 zeroed (SSE movq semantics).
      std::uint64_t lanes[2] = {read_operand(inst.ops[0]), 0};
      write_xmm_faultable(inst.ops[1].xmm, 0, 2, lanes, inst, d);
    } else {
      const std::uint64_t value = xmm_[inst.ops[0].xmm][0];
      if (inst.ops[1].is_mem()) {
        store_faultable(effective_address(inst.ops[1].mem), inst.ops[1].width,
                        value, inst, d);
      } else {
        write_gpr_faultable(inst.ops[1].reg, inst.ops[1].width, value, inst,
                            d);
      }
    }
  }

  FERRUM_INLINE void exec_pinsrq(const AsmInst& inst, const DecodedInst& d) {
    const int lane = static_cast<int>(inst.ops[0].imm) & 1;
    std::uint64_t value = read_operand(inst.ops[1]);
    write_xmm_faultable(inst.ops[2].xmm, lane, 1, &value, inst, d);
  }

  FERRUM_INLINE void exec_vinserti128(const AsmInst& inst,
                                      const DecodedInst& d) {
    const int lane = static_cast<int>(inst.ops[0].imm) & 1;
    std::uint64_t lanes[2] = {xmm_[inst.ops[1].xmm][0],
                              xmm_[inst.ops[1].xmm][1]};
    write_xmm_faultable(inst.ops[2].xmm, lane * 2, 2, lanes, inst, d);
  }

  FERRUM_INLINE void exec_vpxor(const AsmInst& inst, const DecodedInst& d) {
    // XMM form (VEX semantics): lanes 0-1 computed, upper lanes zeroed.
    const int active = inst.ops[0].ymm ? 4 : 2;
    std::uint64_t lanes[4] = {0, 0, 0, 0};
    for (int i = 0; i < active; ++i) {
      lanes[i] = xmm_[inst.ops[0].xmm][i] ^ xmm_[inst.ops[1].xmm][i];
    }
    write_xmm_faultable(inst.ops[2].xmm, 0, 4, lanes, inst, d);
  }

  FERRUM_INLINE void exec_vptest(const AsmInst& inst, const DecodedInst& d) {
    const int active = inst.ops[0].ymm ? 4 : 2;
    std::uint64_t accum = 0;
    for (int i = 0; i < active; ++i) {
      accum |= xmm_[inst.ops[0].xmm][i] & xmm_[inst.ops[1].xmm][i];
    }
    Flags flags;
    flags.zf = accum == 0;
    write_flags_faultable(flags, inst, d);
  }

  /// The one interpreter loop: one computed goto per decoded tag, so
  /// every handler ends in its own indirect jump. Fused tags (cmp+jcc,
  /// mov+alu) execute both halves under one dispatch with full
  /// per-instruction bookkeeping: the step counter is bumped and checked
  /// per half, and the pc is advanced between halves so FI-site pc sinks
  /// and fault landings see exactly the unfused stream. `stop_at_sites`
  /// pauses at the first instruction boundary where fi_sites_ reaches
  /// that count, including between the halves of a fused pair (resuming
  /// there dispatches the second half singly via its own tag): the walk's
  /// fork points, checkpoint capture and golden-rejoin comparisons all
  /// pause here. kNoPause runs to halt or trap.
  ///
  /// The pc, the next pc and the step count live in locals for the whole
  /// run, the only copy the loop reads: as members, every store to gpr_
  /// or the arena might alias them, so each step would reload them
  /// through `this`. pc_ and steps_ are written where code off the hot
  /// path reads them: both at the start of each step (for the site
  /// observers, a fault's landing and the traps helpers throw, after
  /// which collect() reads steps_), pc_ at a pause and at the halt.
  ///
  /// The kHooks instance carries the per-step introspection: each step
  /// (each fused half) is profiled and traced once it is counted, and
  /// timed once it executed, so a trapping step is profiled and traced
  /// but never timed. The bare instance has no hook on its path.
  template <bool kHooks>
  LoopExit loop(std::uint64_t stop_at_sites) {
    static const void* const kJump[kFormEnd] = {
        &&lbl_mov,         // kMov
        &&lbl_movsx,       // kMovsx
        &&lbl_movzx,       // kMovzx
        &&lbl_lea,         // kLea
        &&lbl_push,        // kPush
        &&lbl_pop,         // kPop
        &&lbl_alu,         // kAdd
        &&lbl_alu,         // kSub
        &&lbl_alu,         // kImul
        &&lbl_alu,         // kAnd
        &&lbl_alu,         // kOr
        &&lbl_alu,         // kXor
        &&lbl_alu,         // kShl
        &&lbl_alu,         // kSar
        &&lbl_alu,         // kIdiv
        &&lbl_alu,         // kIrem
        &&lbl_cmp,         // kCmp
        &&lbl_test,        // kTest
        &&lbl_setcc,       // kSetcc
        &&lbl_jcc,         // kJcc
        &&lbl_jmp,         // kJmp
        &&lbl_call,        // kCall
        &&lbl_ret,         // kRet
        &&lbl_movsd,       // kMovsd
        &&lbl_sse_arith,   // kAddsd
        &&lbl_sse_arith,   // kSubsd
        &&lbl_sse_arith,   // kMulsd
        &&lbl_sse_arith,   // kDivsd
        &&lbl_sqrtsd,      // kSqrtsd
        &&lbl_ucomisd,     // kUcomisd
        &&lbl_cvtsi2sd,    // kCvtsi2sd
        &&lbl_cvttsd2si,   // kCvttsd2si
        &&lbl_movq,        // kMovq
        &&lbl_pinsrq,      // kPinsrq
        &&lbl_vinserti128, // kVinserti128
        &&lbl_vpxor,       // kVpxor
        &&lbl_vptest,      // kVptest
        &&lbl_detect,      // kDetectTrap
        &&lbl_sentinel,    // kTagSentinel
        &&lbl_invalid,     // kTagInvalid
        &&lbl_cmp_jcc,     // kTagCmpJcc
        &&lbl_mov_alu,     // kTagMovAlu
#define FERRUM_FORM_ADDRESS(name, ...) &&lbl_form_##name,
        FERRUM_SINGLE_FORMS(FERRUM_FORM_ADDRESS, FERRUM_FORM_ADDRESS)
        FERRUM_FUSED_FORMS(FERRUM_FORM_ADDRESS)
#undef FERRUM_FORM_ADDRESS
    };
    const DecodedInst* const code = code_;
    const std::uint64_t max_steps = options_->max_steps;
    std::int32_t pc = pc_;
    std::int32_t next_pc = pc;
    std::uint64_t steps = steps_;
    const DecodedInst* d;

// Fetch + per-instruction bookkeeping. The sentinel tag dispatches to a
// handler without FERRUM_STEP, so a sentinel traps without counting a
// step. FERRUM_STEP stores pc_ and steps_ for the code the step may
// reach off the hot path; they are stores only, so no step waits on
// one. FERRUM_PAUSE is the instruction-boundary pause check — one
// predictable compare per instruction (stop_at_sites is kNoPause on
// runs that neither fork, capture nor rejoin, so it never fires there).
#define FERRUM_PAUSE()                  \
  if (fi_sites_ >= stop_at_sites) {     \
    pc_ = pc;                           \
    return LoopExit{LoopExit::kPaused}; \
  }
#define FERRUM_STEP()                                               \
  d = code + pc;                                                    \
  pc_ = pc;                                                         \
  steps_ = ++steps;                                                 \
  if (steps > max_steps) return trapped(ExitStatus::kTrapSteps);    \
  if constexpr (kHooks) hook_step(*d);                              \
  next_pc = pc + 1
#define FERRUM_TIME() \
  if constexpr (kHooks) time_step(*d)
// The hooked instance dispatches on the per-opcode tag, the bare one on
// the operand form.
#define FERRUM_DISPATCH() goto* kJump[kHooks ? code[pc].tag : code[pc].form]
#define FERRUM_JUMP() \
  pc = next_pc;       \
  FERRUM_PAUSE();     \
  FERRUM_DISPATCH()
#define FERRUM_NEXT() \
  FERRUM_TIME();      \
  FERRUM_JUMP()

    FERRUM_PAUSE();
    FERRUM_DISPATCH();

  lbl_mov:
    FERRUM_STEP();
    exec_mov(*d->inst, *d);
    FERRUM_NEXT();
  lbl_movsx:
    FERRUM_STEP();
    exec_movsx(*d->inst, *d);
    FERRUM_NEXT();
  lbl_movzx:
    FERRUM_STEP();
    exec_movzx(*d->inst, *d);
    FERRUM_NEXT();
  lbl_lea:
    FERRUM_STEP();
    exec_lea(*d->inst, *d);
    FERRUM_NEXT();
  lbl_push:
    FERRUM_STEP();
    exec_push(*d->inst, *d);
    FERRUM_NEXT();
  lbl_pop:
    FERRUM_STEP();
    exec_pop(*d->inst, *d);
    FERRUM_NEXT();
  lbl_alu:
    FERRUM_STEP();
    exec_alu(*d->inst, *d);
    FERRUM_NEXT();
  lbl_cmp:
    FERRUM_STEP();
    exec_cmp(*d->inst, *d);
    FERRUM_NEXT();
  lbl_test:
    FERRUM_STEP();
    exec_test(*d->inst, *d);
    FERRUM_NEXT();
  lbl_setcc:
    FERRUM_STEP();
    exec_setcc(*d->inst, *d);
    FERRUM_NEXT();
  lbl_jcc:
    FERRUM_STEP();
    exec_jcc(*d->inst, *d, next_pc);
    FERRUM_NEXT();
  lbl_jmp:
    FERRUM_STEP();
    exec_jmp(*d->inst, *d, next_pc);
    FERRUM_NEXT();
  lbl_call:
    FERRUM_STEP();
    exec_call(*d->inst, *d, next_pc);
    FERRUM_NEXT();
  lbl_ret:
    FERRUM_STEP();
    exec_ret(*d->inst, *d, next_pc);
    FERRUM_TIME();
    if (halted_) {
      pc_ = next_pc;
      return LoopExit{LoopExit::kHalted};
    }
    FERRUM_JUMP();
  lbl_movsd:
    FERRUM_STEP();
    exec_movsd(*d->inst, *d);
    FERRUM_NEXT();
  lbl_sse_arith:
    FERRUM_STEP();
    exec_sse_arith(*d->inst, *d);
    FERRUM_NEXT();
  lbl_sqrtsd:
    FERRUM_STEP();
    exec_sqrtsd(*d->inst, *d);
    FERRUM_NEXT();
  lbl_ucomisd:
    FERRUM_STEP();
    exec_ucomisd(*d->inst, *d);
    FERRUM_NEXT();
  lbl_cvtsi2sd:
    FERRUM_STEP();
    exec_cvtsi2sd(*d->inst, *d);
    FERRUM_NEXT();
  lbl_cvttsd2si:
    FERRUM_STEP();
    exec_cvttsd2si(*d->inst, *d);
    FERRUM_NEXT();
  lbl_movq:
    FERRUM_STEP();
    exec_movq(*d->inst, *d);
    FERRUM_NEXT();
  lbl_pinsrq:
    FERRUM_STEP();
    exec_pinsrq(*d->inst, *d);
    FERRUM_NEXT();
  lbl_vinserti128:
    FERRUM_STEP();
    exec_vinserti128(*d->inst, *d);
    FERRUM_NEXT();
  lbl_vpxor:
    FERRUM_STEP();
    exec_vpxor(*d->inst, *d);
    FERRUM_NEXT();
  lbl_vptest:
    FERRUM_STEP();
    exec_vptest(*d->inst, *d);
    FERRUM_NEXT();
  lbl_detect:
    FERRUM_STEP();
    return trapped(ExitStatus::kDetected);
  lbl_sentinel:
    // End-of-function sentinel: trap without counting a step.
    pc_ = pc;
    return trapped(ExitStatus::kTrapInvalid);
  lbl_invalid:
    FERRUM_STEP();
    return trapped(ExitStatus::kTrapInvalid);
  lbl_cmp_jcc:
    // Fused pair: both halves with full bookkeeping, one dispatch. The
    // mid-pair pause check keeps pause positions those of the unfused
    // stream (the first half may register the FI site that reaches the
    // stop count).
    FERRUM_STEP();
    exec_cmp(*d->inst, *d);
    FERRUM_TIME();
    pc = next_pc;
    FERRUM_PAUSE();
    FERRUM_STEP();
    exec_jcc(*d->inst, *d, next_pc);
    FERRUM_NEXT();
  lbl_mov_alu:
    FERRUM_STEP();
    exec_mov(*d->inst, *d);
    FERRUM_TIME();
    pc = next_pc;
    FERRUM_PAUSE();
    FERRUM_STEP();
    exec_alu(*d->inst, *d);
    FERRUM_NEXT();

    // Operand-form handlers: only the bare instance dispatches to them.
    // The fused ones run a cmp form and its jcc half like lbl_cmp_jcc.
#define FERRUM_FORM_STEP(name, ...)   \
  lbl_form_##name:                    \
    if constexpr (kHooks) {           \
      __builtin_unreachable();        \
    } else {                          \
      FERRUM_STEP();                  \
      __VA_ARGS__;                    \
      FERRUM_NEXT();                  \
    }
#define FERRUM_FORM_LABEL(name, ...) FERRUM_FORM_STEP(name, __VA_ARGS__(*d))
#define FERRUM_JUMP_LABEL(name, ...) \
  FERRUM_FORM_STEP(name, __VA_ARGS__(*d, next_pc))
#define FERRUM_FUSED_LABEL(name, ...) \
  lbl_form_##name:                    \
    if constexpr (kHooks) {           \
      __builtin_unreachable();        \
    } else {                          \
      FERRUM_STEP();                  \
      __VA_ARGS__(*d);                \
      pc = next_pc;                   \
      FERRUM_PAUSE();                 \
      FERRUM_STEP();                  \
      form_jcc(*d, next_pc);          \
      FERRUM_NEXT();                  \
    }
    FERRUM_SINGLE_FORMS(FERRUM_FORM_LABEL, FERRUM_JUMP_LABEL)
    FERRUM_FUSED_FORMS(FERRUM_FUSED_LABEL)
#undef FERRUM_FORM_STEP
#undef FERRUM_FORM_LABEL
#undef FERRUM_JUMP_LABEL
#undef FERRUM_FUSED_LABEL

#undef FERRUM_PAUSE
#undef FERRUM_STEP
#undef FERRUM_TIME
#undef FERRUM_DISPATCH
#undef FERRUM_JUMP
#undef FERRUM_NEXT
  }

  /// Profiles and traces one counted step (hooked loop only), and clears
  /// the address the timing model reads.
  void hook_step(const DecodedInst& d) {
    const AsmInst& inst = *d.inst;
    if (options_->profile) {
      ++profile_.op_counts[static_cast<int>(inst.op)];
      ++profile_.origin_counts[static_cast<int>(inst.origin)];
      ++block_hits_[static_cast<std::size_t>(d.fidx)]
                   [static_cast<std::size_t>(d.bidx)];
    }
    if (trace_.size() < options_->trace_limit) {
      const auto& fn = program_.source().functions[d.fidx];
      trace_.push_back(fn.name + "/" + fn.blocks[d.bidx].label + ": " +
                       inst.to_string());
    }
    touched_addr_ = 0;
  }

  /// Times one executed step (hooked loop only).
  void time_step(const DecodedInst& d) {
    if (timing_.has_value()) {
      timing_->step(timing_records_[static_cast<std::size_t>(&d - code_)],
                    touched_addr_);
    }
  }

  FERRUM_INLINE void exec_alu(const AsmInst& inst, const DecodedInst& d) {
    const int width = inst.ops[1].width;
    const std::uint64_t mask = mask_of(width);
    const std::uint64_t b = read_operand(inst.ops[0]) & mask;
    const bool to_mem = inst.ops[1].is_mem();
    const std::uint64_t a =
        (to_mem ? load(effective_address(inst.ops[1].mem), width)
                : read_gpr(inst.ops[1].reg, width)) & mask;
    Flags flags;
    const std::uint64_t result = alu_result(inst.op, a, b, width, flags);
    // Order matters: flags site first, then the destination write site —
    // each ALU instruction still registers only the destination-register
    // (or store) site; flags changes ride along un-sampled to keep one
    // site per instruction, as in the paper's injector.
    flags_ = flags;
    if (to_mem) {
      store_faultable(effective_address(inst.ops[1].mem), width, result, inst,
                      d);
    } else {
      write_gpr_faultable(inst.ops[1].reg, width, result, inst, d);
    }
  }

  /// The result of two-address ALU op `op` on the width-masked
  /// destination `a` and source `b`, and its flags.
  FERRUM_INLINE std::uint64_t alu_result(Op op, std::uint64_t a,
                                         std::uint64_t b, int width,
                                         Flags& flags) {
    const std::uint64_t mask = mask_of(width);
    std::uint64_t result = 0;
    switch (op) {
      case Op::kAdd: {
        result = (a + b) & mask;
        flags = flags_of_result(result, width);
        flags.cf = result < a;
        const std::int64_t sa = sign_at(a, width), sb = sign_at(b, width),
                           sr = sign_at(result, width);
        flags.of = ((sa < 0) == (sb < 0)) && ((sr < 0) != (sa < 0));
        break;
      }
      case Op::kSub: {
        flags = flags_of_sub(a, b, width);
        result = (a - b) & mask;
        break;
      }
      case Op::kImul: {
        // The low 64 bits of a product do not depend on signedness, so
        // multiplying unsigned wraps like the hardware instead of
        // overflowing a signed multiply.
        const std::uint64_t product =
            static_cast<std::uint64_t>(sign_at(a, width)) *
            static_cast<std::uint64_t>(sign_at(b, width));
        result = product & mask;
        flags = flags_of_result(result, width);
        break;
      }
      case Op::kAnd: result = a & b; flags = flags_of_result(result, width); break;
      case Op::kOr: result = a | b; flags = flags_of_result(result, width); break;
      case Op::kXor: result = a ^ b; flags = flags_of_result(result, width); break;
      case Op::kShl: {
        const int count = static_cast<int>(b) & (width == 8 ? 63 : 31);
        result = (a << count) & mask;
        flags = flags_of_result(result, width);
        break;
      }
      case Op::kSar: {
        const int count = static_cast<int>(b) & (width == 8 ? 63 : 31);
        result = static_cast<std::uint64_t>(sign_at(a, width) >> count) & mask;
        flags = flags_of_result(result, width);
        break;
      }
      case Op::kIdiv:
      case Op::kIrem: {
        const std::int64_t sa = sign_at(a, width);
        const std::int64_t sb = sign_at(b, width);
        if (sb == 0 || (sa == INT64_MIN && sb == -1)) {
          raise_trap(ExitStatus::kTrapDivide);
        }
        const std::int64_t value = op == Op::kIdiv ? sa / sb : sa % sb;
        result = static_cast<std::uint64_t>(value) & mask;
        flags = flags_of_result(result, width);
        break;
      }
      default:
        raise_trap(ExitStatus::kTrapInvalid);
    }
    return result;
  }

  FERRUM_INLINE void exec_call(const AsmInst& inst, const DecodedInst& d,
                               std::int32_t& next_pc) {
    if (d.callee == kCalleePrintInt) {
      emit_output(gpr_[static_cast<int>(Gpr::kRdi)]);
      return;
    }
    if (d.callee == kCalleePrintF64) {
      emit_output(xmm_[0][0]);
      return;
    }
    if (d.callee < 0) raise_trap(ExitStatus::kTrapInvalid);
    const std::uint64_t ret_addr =
        kRetTag | (static_cast<std::uint64_t>(d.fidx) << 40) |
        (static_cast<std::uint64_t>(d.bidx) << 20) |
        static_cast<std::uint64_t>(d.iidx + 1);
    std::uint64_t& rsp = gpr_[static_cast<int>(Gpr::kRsp)];
    rsp -= 8;
    if (rsp <= heap_end_) raise_trap(ExitStatus::kTrapMemory);
    store_faultable(rsp, 8, ret_addr, inst, d);
    if (touch_track_ && fault_injected_) touched_fns_ |= fn_bit(d.callee);
    next_pc = program_.entry_pc(d.callee);
  }

  // ---------------------------------------------------- operand forms --
  //
  // The bare loop's handlers, one per opcode and operand form (see
  // decode_form). Each reads its operands from the DecodedInst fields
  // rather than the Operand, and runs the same helpers as its generic
  // exec_* counterpart with the width, the opcode and the operand places
  // as compile-time constants, so their Kind, width and opcode switches
  // fold away. The generic handlers stay the reference: the hooked loop
  // runs them, and the equivalence tests compare the two instances.

  /// The memory operand's address: base (when present) + displacement
  /// (a global's address folded in) + index * scale (0 without index).
  FERRUM_INLINE std::uint64_t form_address(const DecodedInst& d) const {
    return (gpr_[d.base] & (std::uint64_t{0} - d.base_on)) +
           static_cast<std::uint64_t>(d.disp) + gpr_[d.index] * d.scale;
  }

  /// Reads operand `kOperand` at `kWidth` bytes from where it lives.
  template <At kAt, int kWidth, int kOperand>
  FERRUM_INLINE std::uint64_t form_read(const DecodedInst& d) {
    if constexpr (kAt == At::kR) {
      return gpr_[d.reg[kOperand]] & mask_of(kWidth);
    } else if constexpr (kAt == At::kI) {
      return static_cast<std::uint64_t>(d.imm);
    } else if constexpr (kAt == At::kM) {
      return load(form_address(d), kWidth);
    } else {
      return xmm_[d.reg[kOperand]][0];
    }
  }

  /// Writes destination operand `kOperand` (a GPR or the memory operand)
  /// at `kWidth` bytes, through its FI site.
  template <At kAt, int kWidth, int kOperand>
  FERRUM_INLINE void form_write(const DecodedInst& d, std::uint64_t value) {
    if constexpr (kAt == At::kR) {
      write_gpr_faultable(static_cast<Gpr>(d.reg[kOperand]), kWidth, value,
                          *d.inst, d);
    } else {
      store_faultable(form_address(d), kWidth, value, *d.inst, d);
    }
  }

  /// Truth table of each condition over the flags: bit i holds the
  /// condition for zf | sf << 1 | of << 2 | cf << 3 == i (eval_cond's
  /// rules).
  static constexpr std::array<std::uint16_t, 10> kCondTable = [] {
    std::array<std::uint16_t, 10> table{};
    for (unsigned i = 0; i < 16; ++i) {
      const bool zf = i & 1, sf = i & 2, of = i & 4, cf = i & 8;
      const bool holds[10] = {zf,         !zf,
                              sf != of,   zf || sf != of,
                              !zf && sf == of, sf == of,
                              !cf && !zf, !cf,
                              cf,         cf || zf};
      for (int c = 0; c < 10; ++c) {
        if (holds[c]) table[static_cast<std::size_t>(c)] |= 1u << i;
      }
    }
    return table;
  }();

  FERRUM_INLINE bool form_cond(const DecodedInst& d) const {
    const unsigned flags = static_cast<unsigned>(flags_.zf) |
                           static_cast<unsigned>(flags_.sf) << 1 |
                           static_cast<unsigned>(flags_.of) << 2 |
                           static_cast<unsigned>(flags_.cf) << 3;
    return (kCondTable[d.cc] >> flags) & 1;
  }

  template <At kSrc, At kDst, int kWidth>
  FERRUM_INLINE void form_mov(const DecodedInst& d) {
    form_write<kDst, kWidth, 1>(d, form_read<kSrc, kWidth, 0>(d));
  }

  template <At kSrc, int kFrom, int kTo>
  FERRUM_INLINE void form_movsx(const DecodedInst& d) {
    const std::int64_t value = sign_at(form_read<kSrc, kFrom, 0>(d), kFrom);
    form_write<At::kR, kTo, 1>(d, static_cast<std::uint64_t>(value));
  }

  template <At kSrc, int kFrom, int kTo>
  FERRUM_INLINE void form_movzx(const DecodedInst& d) {
    form_write<At::kR, kTo, 1>(d, form_read<kSrc, kFrom, 0>(d));
  }

  FERRUM_INLINE void form_lea(const DecodedInst& d) {
    form_write<At::kR, 8, 1>(d, form_address(d));
  }

  FERRUM_INLINE void form_push(const DecodedInst& d) {
    std::uint64_t& rsp = gpr_[static_cast<int>(Gpr::kRsp)];
    rsp -= 8;
    if (rsp <= heap_end_) raise_trap(ExitStatus::kTrapMemory);
    store_faultable(rsp, 8, gpr_[d.reg[0]], *d.inst, d);
  }

  FERRUM_INLINE void form_pop(const DecodedInst& d) {
    const std::uint64_t value = pop64();
    form_write<At::kR, 8, 0>(d, value);
  }

  template <Op kOp, At kSrc, int kWidth>
  FERRUM_INLINE void form_alu(const DecodedInst& d) {
    const std::uint64_t b = form_read<kSrc, kWidth, 0>(d) & mask_of(kWidth);
    const std::uint64_t a = form_read<At::kR, kWidth, 1>(d);
    Flags flags;
    const std::uint64_t result = alu_result(kOp, a, b, kWidth, flags);
    flags_ = flags;
    form_write<At::kR, kWidth, 1>(d, result);
  }

  template <At kSrc, At kDst, int kWidth>
  FERRUM_INLINE void form_cmp(const DecodedInst& d) {
    const std::uint64_t b = form_read<kSrc, kWidth, 0>(d);
    const std::uint64_t a = form_read<kDst, kWidth, 1>(d);
    write_flags_faultable(flags_of_sub(a, b, kWidth), *d.inst, d);
  }

  template <At kSrc, int kWidth>
  FERRUM_INLINE void form_test(const DecodedInst& d) {
    const std::uint64_t b = form_read<kSrc, kWidth, 0>(d);
    const std::uint64_t a = form_read<At::kR, kWidth, 1>(d);
    write_flags_faultable(flags_of_result(a & b, kWidth), *d.inst, d);
  }

  FERRUM_INLINE void form_jcc(const DecodedInst& d, std::int32_t& next_pc) {
    bool taken = form_cond(d);
    if (fi_site(FaultKind::kBranchDecision, *d.inst, d) != nullptr) {
      taken = !taken;
    }
    if (taken) {
      if (d.target_pc < 0) raise_trap(ExitStatus::kTrapInvalid);
      next_pc = d.target_pc;
    }
  }

  template <At kDst>
  FERRUM_INLINE void form_setcc(const DecodedInst& d) {
    form_write<kDst, 1, 0>(d, form_cond(d) ? 1 : 0);
  }

  template <At kSrc, At kDst>
  FERRUM_INLINE void form_movsd(const DecodedInst& d) {
    if constexpr (kDst == At::kM) {
      store_faultable(form_address(d), 8, xmm_[d.reg[0]][0], *d.inst, d);
    } else {
      std::uint64_t lane = form_read<kSrc, 8, 0>(d);
      write_xmm_faultable(d.reg[1], 0, 1, &lane, *d.inst, d);
    }
  }

  template <Op kOp, At kSrc>
  FERRUM_INLINE void form_sse(const DecodedInst& d) {
    const double b = as_f64(form_read<kSrc, 8, 0>(d));
    const double a = as_f64(xmm_[d.reg[1]][0]);
    std::uint64_t lane = from_f64(sse_result(kOp, a, b));
    write_xmm_faultable(d.reg[1], 0, 1, &lane, *d.inst, d);
  }

  template <At kSrc>
  FERRUM_INLINE void form_sqrtsd(const DecodedInst& d) {
    std::uint64_t lane =
        from_f64(std::sqrt(as_f64(form_read<kSrc, 8, 0>(d))));
    write_xmm_faultable(d.reg[1], 0, 1, &lane, *d.inst, d);
  }

  template <At kSrc>
  FERRUM_INLINE void form_ucomisd(const DecodedInst& d) {
    const double b = as_f64(form_read<kSrc, 8, 0>(d));
    const double a = as_f64(xmm_[d.reg[1]][0]);
    write_flags_faultable(ucomisd_flags(a, b), *d.inst, d);
  }

  template <At kSrc, int kWidth>
  FERRUM_INLINE void form_cvtsi2sd(const DecodedInst& d) {
    const std::int64_t value = sign_at(form_read<kSrc, kWidth, 0>(d), kWidth);
    std::uint64_t lane = from_f64(static_cast<double>(value));
    write_xmm_faultable(d.reg[1], 0, 1, &lane, *d.inst, d);
  }

  template <At kDst, int kWidth>
  FERRUM_INLINE void form_cvttsd2si(const DecodedInst& d) {
    form_write<kDst, kWidth, 1>(d, truncate_f64(xmm_[d.reg[0]][0]));
  }

  template <At kSrc, int kWidth>
  FERRUM_INLINE void form_movq_to_xmm(const DecodedInst& d) {
    std::uint64_t lanes[2] = {form_read<kSrc, kWidth, 0>(d), 0};
    write_xmm_faultable(d.reg[1], 0, 2, lanes, *d.inst, d);
  }

  template <At kDst, int kWidth>
  FERRUM_INLINE void form_movq_from_xmm(const DecodedInst& d) {
    form_write<kDst, kWidth, 1>(d, xmm_[d.reg[0]][0]);
  }

  template <At kSrc, int kWidth>
  FERRUM_INLINE void form_pinsrq(const DecodedInst& d) {
    const int lane = static_cast<int>(d.imm) & 1;
    std::uint64_t value = form_read<kSrc, kWidth, 1>(d);
    write_xmm_faultable(d.reg[2], lane, 1, &value, *d.inst, d);
  }

  FERRUM_INLINE void form_vinserti128(const DecodedInst& d) {
    const int lane = static_cast<int>(d.imm) & 1;
    std::uint64_t lanes[2] = {xmm_[d.reg[1]][0], xmm_[d.reg[1]][1]};
    write_xmm_faultable(d.reg[2], lane * 2, 2, lanes, *d.inst, d);
  }

  template <int kActive>
  FERRUM_INLINE void form_vpxor(const DecodedInst& d) {
    std::uint64_t lanes[4] = {0, 0, 0, 0};
    for (int i = 0; i < kActive; ++i) {
      lanes[i] = xmm_[d.reg[0]][i] ^ xmm_[d.reg[1]][i];
    }
    write_xmm_faultable(d.reg[2], 0, 4, lanes, *d.inst, d);
  }

  template <int kActive>
  FERRUM_INLINE void form_vptest(const DecodedInst& d) {
    std::uint64_t accum = 0;
    for (int i = 0; i < kActive; ++i) {
      accum |= xmm_[d.reg[0]][i] & xmm_[d.reg[1]][i];
    }
    Flags flags;
    flags.zf = accum == 0;
    write_flags_faultable(flags, *d.inst, d);
  }

  /// Appends one value of the output builtins to the output log.
  [[gnu::noinline]] void emit_output(std::uint64_t value) {
    output_.push_back(value);
    if (state_digest_sink_ != nullptr) {
      output_chain_ = mix64(output_chain_ ^ value);
    }
  }

  /// Converts the raw per-block instruction tallies into the profile's
  /// sorted, capped hot-block list (deterministic tie-break by name).
  void finalize_hot_blocks() {
    std::vector<VmProfile::BlockCount> blocks;
    for (std::size_t f = 0; f < block_hits_.size(); ++f) {
      for (std::size_t b = 0; b < block_hits_[f].size(); ++b) {
        if (block_hits_[f][b] == 0) continue;
        VmProfile::BlockCount entry;
        entry.function = program_.source().functions[f].name;
        entry.label = program_.source().functions[f].blocks[b].label;
        entry.instructions = block_hits_[f][b];
        blocks.push_back(std::move(entry));
      }
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const VmProfile::BlockCount& a,
                 const VmProfile::BlockCount& b) {
                if (a.instructions != b.instructions) {
                  return a.instructions > b.instructions;
                }
                if (a.function != b.function) return a.function < b.function;
                return a.label < b.label;
              });
    if (blocks.size() > VmProfile::kMaxHotBlocks) {
      blocks.resize(VmProfile::kMaxHotBlocks);
    }
    profile_.hot_blocks = std::move(blocks);
  }

  // ------------------------------------------------------------- state --

  const PredecodedProgram& program_;
  const DecodedInst* code_;

  Arena memory_;
  /// Provenance per page: the checkpoint PageImage the page's content
  /// last equalled (null = all-zero), valid when dirty_ is clear. Held
  /// as shared_ptr so thinned-away checkpoints cannot dangle it, and so
  /// a freed image's address cannot be reused and falsely match.
  std::vector<std::shared_ptr<const PageImage>> current_page_;
  /// The pages with non-null provenance, ascending.
  std::vector<std::size_t> provenance_pages_;
  /// Per-page dirty flag, and the dirty pages in order of first dirtying
  /// since the last restore or capture (exactly the flagged pages).
  std::vector<std::uint8_t> dirty_;
  std::vector<std::size_t> dirty_pages_;
  /// Copy-on-first-write journal of a forked lane (see run_lane):
  /// per-page saved flag, saved pre-images, and a buffer pool so a
  /// steady-state walk allocates nothing.
  bool journaling_ = false;
  std::vector<std::uint8_t> journaled_;
  std::vector<std::pair<std::size_t, std::unique_ptr<PageImage>>> journal_;
  std::vector<std::unique_ptr<PageImage>> journal_pool_;

  std::uint64_t gpr_[masm::kGprCount] = {};
  std::uint64_t xmm_[masm::kXmmCount][4] = {};
  Flags flags_;
  std::uint64_t heap_end_ = 0;
  bool layout_ok_ = true;

  /// The pc for code outside the loop; the loop runs on a local copy
  /// and stores it here where that code reads it (see loop()).
  std::int32_t pc_ = 0;
  bool halted_ = false;
  /// The set a golden run is capturing into (run_capturing only).
  CheckpointSet* capture_ = nullptr;
  std::uint64_t next_capture_at_ = 0;

  /// The current walk's lanes in walk order, and the fork point of the
  /// lane running forked.
  struct Lane {
    std::uint64_t site;
    std::size_t idx;
  };
  std::vector<Lane> lanes_;
  ForkPoint fork_;
  /// Profile, timing or trace is on: the hooked loop instance runs and
  /// the walk neither forks nor resumes from checkpoints.
  bool hooked_ = false;

  const VmOptions* options_ = nullptr;
  const FaultSpec* faults_ = nullptr;
  std::size_t fault_count_ = 0;
  /// The current walk's checkpoints, for resume points and golden-rejoin
  /// boundaries (null = cold walk, no rejoin), plus this lane's rejoin
  /// outcome: whether the tail was adopted, and how many golden-tail
  /// steps were elided.
  const CheckpointSet* ckpts_ = nullptr;
  bool rejoined_ = false;
  std::uint64_t rejoin_skipped_ = 0;
  std::uint64_t rejoin_site_ = 0;

  std::vector<std::int32_t>* site_pc_sink_ = nullptr;
  /// State-digest observer (see Engine::set_state_digest_sink): per-site
  /// digests land in the sink; the masks select the live registers per
  /// flat pc; the chains accumulate the store stream and output log.
  std::vector<std::uint64_t>* state_digest_sink_ = nullptr;
  const std::vector<std::uint64_t>* digest_live_masks_ = nullptr;
  std::uint64_t store_chain_ = 0;
  std::uint64_t output_chain_ = 0;
  /// Post-fault touched-function accounting (VmOptions::
  /// track_touched_functions).
  bool touch_track_ = false;
  std::uint64_t touched_fns_ = 0;
  /// True when any per-site observer (pc sink, digest sink, profiler
  /// tallies) is active this run; recomputed at every run entry.
  bool site_observers_ = false;

  /// The step count for code outside the loop, stored like pc_.
  std::uint64_t steps_ = 0;
  std::uint64_t fi_sites_ = 0;
  std::uint64_t fault_step_ = 0;
  bool fault_injected_ = false;
  std::optional<FaultLanding> fault_landing_;
  std::vector<std::uint64_t> output_;
  std::vector<std::string> trace_;
  std::uint64_t touched_addr_ = 0;
  std::optional<TimingModel> timing_;
  /// The timing model's record of each instruction, by flat pc; filled
  /// when a timed run starts (sentinels and kTagInvalid instructions
  /// trap untimed, so they get none).
  std::vector<TimingRecord> timing_records_;
  VmProfile profile_;
  // Dynamic instructions per [function][block] (profiling only).
  std::vector<std::vector<std::uint64_t>> block_hits_;
};

Engine::Engine(const PredecodedProgram& program, const VmOptions& options)
    : impl_(std::make_unique<Impl>(program, options)) {}

Engine::~Engine() = default;

VmResult Engine::run(const VmOptions& options, const FaultSpec* faults,
                     std::size_t fault_count) {
  return impl_->run_one(nullptr, options, faults, fault_count, stats_);
}

VmResult Engine::run_capturing(const VmOptions& options, std::uint64_t stride,
                               CheckpointSet& out) {
  return impl_->run_capturing(options, stride, out, stats_);
}

VmResult Engine::run_from(const CheckpointSet& checkpoints,
                          const VmOptions& options, const FaultSpec* faults,
                          std::size_t fault_count) {
  return impl_->run_one(&checkpoints, options, faults, fault_count, stats_);
}

void Engine::walk(const CheckpointSet* checkpoints, const VmOptions& options,
                  const Trial* trials, std::size_t count,
                  const TrialSink& sink) {
  impl_->walk(checkpoints, options, trials, count, sink, stats_);
}

void Engine::set_site_pc_sink(std::vector<std::int32_t>* sink) {
  impl_->set_site_pc_sink(sink);
}

void Engine::set_state_digest_sink(std::vector<std::uint64_t>* sink,
                                   const std::vector<std::uint64_t>* live_masks) {
  impl_->set_state_digest_sink(sink, live_masks);
}

}  // namespace ferrum::vm
