// MiniASM: the x86-64 subset that the backend emits, the protection passes
// rewrite, and the VM executes. Instructions use AT&T operand order
// (source first, destination last), matching the paper's listings.
//
// Deviations from real x86-64, documented here and in DESIGN.md:
//  * signed division/remainder are two-address (`idivq %src, %dst`)
//    instead of the rax/rdx idiom — the paper's mechanisms do not depend
//    on idiv's register constraints and this keeps every ALU op uniform;
//  * addresses are flat within the VM's memory image; globals are symbols
//    resolved at load time.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ferrum::masm {

/// General-purpose registers, standard x86 encoding order.
enum class Gpr : std::uint8_t {
  kRax, kRcx, kRdx, kRbx, kRsp, kRbp, kRsi, kRdi,
  kR8, kR9, kR10, kR11, kR12, kR13, kR14, kR15,
  kNone,  // sentinel: "no register" in memory operands
};
constexpr int kGprCount = 16;

/// SIMD registers. We model the full 256-bit YMM backing store; XMM names
/// refer to the low 128 bits.
constexpr int kXmmCount = 16;

/// Condition codes used by jcc / setcc.
enum class Cond : std::uint8_t {
  kE, kNe, kL, kLe, kG, kGe,  // signed
  kA, kAe, kB, kBe,           // unsigned (ucomisd results)
};

/// Name of a 64-bit register ("rax") or its narrower aliases.
std::string gpr_name(Gpr reg, int width);
const char* cond_name(Cond cc);
/// Inverse condition (e <-> ne, l <-> ge, ...).
Cond invert(Cond cc);

enum class Op : std::uint8_t {
  // Data movement.
  kMov,    // mov src, dst : reg/imm/mem -> reg, or reg/imm -> mem
  kMovsx,  // sign-extending move (movslq etc.)
  kMovzx,  // zero-extending move (movzbl etc.)
  kLea,    // lea mem, reg64
  kPush,   // push reg64
  kPop,    // pop reg64
  // Integer ALU, two-address RMW: dst = dst OP src.
  kAdd, kSub, kImul, kAnd, kOr, kXor,
  kShl, kSar,          // src is imm or %cl
  kIdiv, kIrem,        // two-address pseudo (see header comment)
  // Flags producers.
  kCmp,   // cmp src2, src1 : flags from src1 - src2 (AT&T)
  kTest,  // test src2, src1 : flags from src1 & src2
  // Flags consumers.
  kSetcc,  // setcc %r8b
  kJcc,    // conditional jump to label
  kJmp,
  kCall,
  kRet,
  // Scalar double-precision SSE.
  kMovsd,      // mem<->xmm, xmm<->xmm
  kAddsd, kSubsd, kMulsd, kDivsd,  // xmm src, xmm dst RMW
  kSqrtsd,     // dst = sqrt(src)
  kUcomisd,    // flags from compare
  kCvtsi2sd,   // gpr -> xmm
  kCvttsd2si,  // xmm -> gpr
  // Data shuffling used by FERRUM's SIMD checks.
  kMovq,         // gpr<->xmm low lane, or mem -> xmm low lane (width 4/8)
  kPinsrq,       // pinsrq/pinsrd $lane, gpr/mem, xmm
  kVinserti128,  // vinserti128 $lane, xmm, ymm, ymm
  kVpxor,        // vpxor src2, src1, dst (256-bit)
  kVptest,       // vptest src1, src2 -> ZF = ((src1 & src2) == 0)
  // Pseudo: error detector fired; VM halts with Detected status.
  kDetectTrap,
};

/// Number of opcodes, for dense per-opcode tables (profilers, timing).
constexpr int kOpCount = static_cast<int>(Op::kDetectTrap) + 1;

const char* op_mnemonic(Op op);
bool is_asm_terminator(Op op);

/// Memory operand: disp(base, index, scale) or symbol+disp for globals.
struct MemRef {
  Gpr base = Gpr::kNone;
  Gpr index = Gpr::kNone;
  int scale = 1;
  std::int64_t disp = 0;
  /// When >= 0, address = global_base(global_id) + disp (+ index*scale).
  int global_id = -1;
};

struct Operand {
  enum class Kind : std::uint8_t {
    kNone, kReg, kXmm, kImm, kMem, kLabel, kFunc,
  };
  Kind kind = Kind::kNone;
  /// Access width in bytes (1, 4, or 8) for reg/mem/imm operands.
  int width = 8;
  Gpr reg = Gpr::kNone;
  int xmm = 0;
  /// True when an xmm operand names the full 256-bit ymm register.
  bool ymm = false;
  std::int64_t imm = 0;
  MemRef mem;
  std::string label;  // jump target (block label) or callee (kFunc)

  static Operand make_reg(Gpr r, int w = 8);
  static Operand make_xmm(int index);
  static Operand make_ymm(int index);
  static Operand make_imm(std::int64_t value, int w = 8);
  static Operand make_mem(MemRef ref, int w);
  static Operand make_label(std::string name);
  static Operand make_func(std::string name);

  bool is_reg() const { return kind == Kind::kReg; }
  bool is_xmm() const { return kind == Kind::kXmm; }
  bool is_imm() const { return kind == Kind::kImm; }
  bool is_mem() const { return kind == Kind::kMem; }
};

/// Provenance of an instruction, used by coverage audits and reports.
enum class InstOrigin : std::uint8_t {
  kFromIR,       // direct lowering of an IR instruction
  kBackendGlue,  // backend-introduced: spills, flag materialisation,
                 // prologue/epilogue, address arithmetic, moves
  kProtection,   // inserted by an EDDI pass (duplicate / check / bookkeep)
};

/// Number of InstOrigin values, for dense per-origin tables.
constexpr int kInstOriginCount = 3;

/// Stable lower-case name ("from-ir", "backend-glue", "protection") used
/// by analyses and telemetry exports.
const char* origin_name(InstOrigin origin);

/// One MiniASM instruction. Operand order is AT&T: operands[0] is the
/// source, the last operand is the destination (cmp/test/vptest read-only).
struct AsmInst {
  Op op = Op::kMov;
  Cond cc = Cond::kE;
  std::array<Operand, 3> ops;
  int nops = 0;
  InstOrigin origin = InstOrigin::kFromIR;

  AsmInst() = default;
  AsmInst(Op o, std::initializer_list<Operand> operands);
  AsmInst(Op o, Cond c, std::initializer_list<Operand> operands);

  const Operand& src() const { return ops[0]; }
  const Operand& dst() const { return ops[nops > 0 ? nops - 1 : 0]; }

  std::string to_string() const;
};

struct AsmBlock {
  std::string label;
  std::vector<AsmInst> insts;
};

struct AsmFunction {
  std::string name;
  std::vector<AsmBlock> blocks;

  /// ABI metadata: how many integer / floating-point arguments the
  /// function receives (System V order: %rdi..%r9, %xmm0..%xmm7). Filled
  /// by the backend; parsed assembly leaves both at 0, which disables the
  /// verifier's call argument-register discipline for that callee. Not
  /// part of the printed form.
  int int_args = 0;
  int fp_args = 0;

  /// Index of a block by label, -1 if absent.
  int block_index(const std::string& label) const;
  std::size_t inst_count() const;
};

/// The block each jcc/jmp of fn jumps to, by [block][inst]: the first
/// block with its label, as block_index finds, or -1 for an unknown label
/// and for every other instruction. Each label is looked up once.
std::vector<std::vector<int>> jump_targets(const AsmFunction& fn);

struct AsmGlobal {
  std::string name;
  std::int64_t size_bytes = 0;
  /// Leading initialised bytes (zero-filled beyond).
  std::vector<std::uint8_t> init;
};

/// A whole program: functions (main must exist to run) + global data.
struct AsmProgram {
  std::vector<AsmFunction> functions;
  std::vector<AsmGlobal> globals;

  const AsmFunction* find_function(const std::string& name) const;
  AsmFunction* find_function(const std::string& name);
  int global_index(const std::string& name) const;
  std::size_t inst_count() const;
};

/// AT&T-style rendering of a function / program.
std::string print(const AsmFunction& fn);
std::string print(const AsmProgram& program);

// --------------------------------------------------------------------------
// Register read/write sets, shared by liveness analysis, the protection
// passes and the VM's fault-site enumeration.

/// Fixed-capacity list backing RegEffects. effects_of runs once per
/// static instruction at predecode and when a timing run builds its
/// records, and at every instruction the liveness analyses and the
/// protection passes visit, so it must not touch the heap. 16 entries
/// cover the widest instruction (a call clobbers all 16 xmm registers).
template <typename T>
class EffectList {
 public:
  static constexpr std::size_t kCapacity = 16;
  void push_back(T value) { items_[size_++] = value; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  std::array<T, kCapacity> items_{};
  std::size_t size_ = 0;
};

struct RegEffects {
  EffectList<Gpr> gpr_reads;
  EffectList<Gpr> gpr_writes;
  EffectList<int> xmm_reads;
  EffectList<int> xmm_writes;
  bool reads_flags = false;
  bool writes_flags = false;
  bool reads_mem = false;
  bool writes_mem = false;
};

/// Architectural effects of one instruction (calls report ABI clobbers).
RegEffects effects_of(const AsmInst& inst);

/// Whether every operand that `inst` reads or writes as a general-purpose
/// register names one: every register operand names one of the 16, and
/// the destination of lea, movsx, movzx, cvttsd2si and pop is a register,
/// that of mov, setcc and the two-address integer ALU ops a register or
/// memory, and that of movq a register, memory or an xmm register. The
/// parser checks only operand counts; the verifier reports a violation,
/// and the VM traps on it.
bool gpr_operands_ok(const AsmInst& inst);

}  // namespace ferrum::masm
