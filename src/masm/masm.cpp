#include "masm/masm.h"

#include <cassert>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace ferrum::masm {

namespace {

constexpr const char* kGpr64[] = {
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
constexpr const char* kGpr32[] = {
    "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
    "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"};
constexpr const char* kGpr8[] = {
    "al",  "cl",  "dl",  "bl",  "spl", "bpl", "sil", "dil",
    "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b"};

}  // namespace

std::string gpr_name(Gpr reg, int width) {
  if (reg == Gpr::kNone) return "none";
  const int index = static_cast<int>(reg);
  switch (width) {
    case 1: return kGpr8[index];
    case 4: return kGpr32[index];
    default: return kGpr64[index];
  }
}

const char* cond_name(Cond cc) {
  switch (cc) {
    case Cond::kE: return "e";
    case Cond::kNe: return "ne";
    case Cond::kL: return "l";
    case Cond::kLe: return "le";
    case Cond::kG: return "g";
    case Cond::kGe: return "ge";
    case Cond::kA: return "a";
    case Cond::kAe: return "ae";
    case Cond::kB: return "b";
    case Cond::kBe: return "be";
  }
  return "?";
}

Cond invert(Cond cc) {
  switch (cc) {
    case Cond::kE: return Cond::kNe;
    case Cond::kNe: return Cond::kE;
    case Cond::kL: return Cond::kGe;
    case Cond::kLe: return Cond::kG;
    case Cond::kG: return Cond::kLe;
    case Cond::kGe: return Cond::kL;
    case Cond::kA: return Cond::kBe;
    case Cond::kAe: return Cond::kB;
    case Cond::kB: return Cond::kAe;
    case Cond::kBe: return Cond::kA;
  }
  return Cond::kE;
}

const char* op_mnemonic(Op op) {
  switch (op) {
    case Op::kMov: return "mov";
    case Op::kMovsx: return "movs";
    case Op::kMovzx: return "movz";
    case Op::kLea: return "lea";
    case Op::kPush: return "push";
    case Op::kPop: return "pop";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kImul: return "imul";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kSar: return "sar";
    case Op::kIdiv: return "idiv";
    case Op::kIrem: return "irem";
    case Op::kCmp: return "cmp";
    case Op::kTest: return "test";
    case Op::kSetcc: return "set";
    case Op::kJcc: return "j";
    case Op::kJmp: return "jmp";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
    case Op::kMovsd: return "movsd";
    case Op::kAddsd: return "addsd";
    case Op::kSubsd: return "subsd";
    case Op::kMulsd: return "mulsd";
    case Op::kDivsd: return "divsd";
    case Op::kSqrtsd: return "sqrtsd";
    case Op::kUcomisd: return "ucomisd";
    case Op::kCvtsi2sd: return "cvtsi2sd";
    case Op::kCvttsd2si: return "cvttsd2si";
    case Op::kMovq: return "movq";
    case Op::kPinsrq: return "pinsr";
    case Op::kVinserti128: return "vinserti128";
    case Op::kVpxor: return "vpxor";
    case Op::kVptest: return "vptest";
    case Op::kDetectTrap: return "call\t__ferrum_detect";
  }
  return "?";
}

bool is_asm_terminator(Op op) {
  return op == Op::kJmp || op == Op::kRet;
}

const char* origin_name(InstOrigin origin) {
  switch (origin) {
    case InstOrigin::kFromIR: return "from-ir";
    case InstOrigin::kBackendGlue: return "backend-glue";
    case InstOrigin::kProtection: return "protection";
  }
  return "?";
}

Operand Operand::make_reg(Gpr r, int w) {
  Operand op;
  op.kind = Kind::kReg;
  op.reg = r;
  op.width = w;
  return op;
}

Operand Operand::make_xmm(int index) {
  Operand op;
  op.kind = Kind::kXmm;
  op.xmm = index;
  op.width = 16;
  return op;
}

Operand Operand::make_ymm(int index) {
  Operand op = make_xmm(index);
  op.ymm = true;
  op.width = 32;
  return op;
}

Operand Operand::make_imm(std::int64_t value, int w) {
  Operand op;
  op.kind = Kind::kImm;
  op.imm = value;
  op.width = w;
  return op;
}

Operand Operand::make_mem(MemRef ref, int w) {
  Operand op;
  op.kind = Kind::kMem;
  op.mem = ref;
  op.width = w;
  return op;
}

Operand Operand::make_label(std::string name) {
  Operand op;
  op.kind = Kind::kLabel;
  op.label = std::move(name);
  return op;
}

Operand Operand::make_func(std::string name) {
  Operand op;
  op.kind = Kind::kFunc;
  op.label = std::move(name);
  return op;
}

AsmInst::AsmInst(Op o, std::initializer_list<Operand> operands) : op(o) {
  assert(operands.size() <= 3);
  for (const Operand& operand : operands) ops[nops++] = operand;
}

AsmInst::AsmInst(Op o, Cond c, std::initializer_list<Operand> operands)
    : AsmInst(o, operands) {
  cc = c;
}

namespace {

char width_suffix(int width) {
  switch (width) {
    case 1: return 'b';
    case 4: return 'l';
    case 8: return 'q';
    default: return ' ';
  }
}

std::string operand_to_string(const Operand& op,
                              const AsmProgram* program) {
  std::ostringstream os;
  switch (op.kind) {
    case Operand::Kind::kNone:
      break;
    case Operand::Kind::kReg:
      os << "%" << gpr_name(op.reg, op.width);
      break;
    case Operand::Kind::kXmm:
      os << "%" << (op.ymm ? "ymm" : "xmm") << op.xmm;
      break;
    case Operand::Kind::kImm:
      os << "$" << op.imm;
      break;
    case Operand::Kind::kMem: {
      const MemRef& mem = op.mem;
      if (mem.global_id >= 0) {
        if (program != nullptr &&
            mem.global_id < static_cast<int>(program->globals.size())) {
          os << program->globals[mem.global_id].name;
        } else {
          os << "g" << mem.global_id;
        }
        if (mem.disp != 0) os << "+" << mem.disp;
        os << "(%rip";
        if (mem.index != Gpr::kNone) {
          // Symbol-relative indexed form (not real x86 encoding; the VM
          // resolves it directly).
          os << ",%" << gpr_name(mem.index, 8) << "," << mem.scale;
        }
        os << ")";
        break;
      }
      if (mem.disp != 0) os << mem.disp;
      os << "(";
      if (mem.base != Gpr::kNone) os << "%" << gpr_name(mem.base, 8);
      if (mem.index != Gpr::kNone) {
        os << ",%" << gpr_name(mem.index, 8) << "," << mem.scale;
      }
      os << ")";
      break;
    }
    case Operand::Kind::kLabel:
      os << "." << op.label;
      break;
    case Operand::Kind::kFunc:
      os << op.label;
      break;
  }
  return os.str();
}

std::string mnemonic_of(const AsmInst& inst) {
  std::ostringstream os;
  switch (inst.op) {
    case Op::kJcc:
      os << "j" << cond_name(inst.cc);
      break;
    case Op::kSetcc:
      os << "set" << cond_name(inst.cc);
      break;
    case Op::kMovsx:
      // movslq / movsbq style: suffix from src and dst widths.
      os << "movs" << width_suffix(inst.ops[0].width)
         << width_suffix(inst.ops[1].width);
      break;
    case Op::kMovzx:
      os << "movz" << width_suffix(inst.ops[0].width)
         << width_suffix(inst.ops[1].width);
      break;
    case Op::kMovq:
      os << (inst.ops[0].width == 4 || inst.ops[1].width == 4 ? "movd"
                                                              : "movq");
      break;
    case Op::kPinsrq:
      os << (inst.ops[1].width == 4 ? "pinsrd" : "pinsrq");
      break;
    case Op::kMov:
    case Op::kAdd:
    case Op::kSub:
    case Op::kImul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kSar:
    case Op::kIdiv:
    case Op::kIrem:
    case Op::kCmp:
    case Op::kTest:
    case Op::kLea:
    case Op::kPush:
    case Op::kPop: {
      // Width suffix from the widest register/mem operand involved.
      int width = 8;
      for (int i = 0; i < inst.nops; ++i) {
        if (inst.ops[i].kind == Operand::Kind::kReg ||
            inst.ops[i].kind == Operand::Kind::kMem) {
          width = inst.ops[i].width;
        }
      }
      os << op_mnemonic(inst.op) << width_suffix(width);
      break;
    }
    default:
      os << op_mnemonic(inst.op);
      break;
  }
  return os.str();
}

std::string inst_to_string(const AsmInst& inst, const AsmProgram* program) {
  if (inst.op == Op::kDetectTrap) return "call\t__ferrum_detect";
  std::ostringstream os;
  os << mnemonic_of(inst);
  for (int i = 0; i < inst.nops; ++i) {
    os << (i == 0 ? "\t" : ", ") << operand_to_string(inst.ops[i], program);
  }
  return os.str();
}

}  // namespace

std::string AsmInst::to_string() const { return inst_to_string(*this, nullptr); }

int AsmFunction::block_index(const std::string& label) const {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].label == label) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::vector<int>> jump_targets(const AsmFunction& fn) {
  std::unordered_map<std::string_view, int> by_label;  // the first one wins
  for (std::size_t b = 0; b < fn.blocks.size(); ++b)
    by_label.emplace(fn.blocks[b].label, static_cast<int>(b));
  std::vector<std::vector<int>> target(fn.blocks.size());
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    for (const AsmInst& inst : fn.blocks[b].insts) {
      const auto it = inst.op == Op::kJmp || inst.op == Op::kJcc
                          ? by_label.find(inst.ops[0].label)
                          : by_label.end();
      target[b].push_back(it == by_label.end() ? -1 : it->second);
    }
  }
  return target;
}

std::size_t AsmFunction::inst_count() const {
  std::size_t count = 0;
  for (const AsmBlock& block : blocks) count += block.insts.size();
  return count;
}

const AsmFunction* AsmProgram::find_function(const std::string& name) const {
  for (const AsmFunction& fn : functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

AsmFunction* AsmProgram::find_function(const std::string& name) {
  for (AsmFunction& fn : functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

int AsmProgram::global_index(const std::string& name) const {
  for (std::size_t i = 0; i < globals.size(); ++i) {
    if (globals[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::size_t AsmProgram::inst_count() const {
  std::size_t count = 0;
  for (const AsmFunction& fn : functions) count += fn.inst_count();
  return count;
}

namespace {
std::string print_function(const AsmFunction& fn, const AsmProgram* program) {
  std::ostringstream os;
  os << fn.name << ":\n";
  for (const AsmBlock& block : fn.blocks) {
    os << "." << block.label << ":\n";
    for (const AsmInst& inst : block.insts) {
      os << "\t" << inst_to_string(inst, program) << "\n";
    }
  }
  return os.str();
}
}  // namespace

std::string print(const AsmFunction& fn) { return print_function(fn, nullptr); }

std::string print(const AsmProgram& program) {
  std::ostringstream os;
  for (const AsmGlobal& global : program.globals) {
    os << global.name << ":\t.space " << global.size_bytes << "\n";
  }
  if (!program.globals.empty()) os << "\n";
  for (const AsmFunction& fn : program.functions) {
    os << print_function(fn, &program) << "\n";
  }
  return os.str();
}

RegEffects effects_of(const AsmInst& inst) {
  RegEffects fx;
  auto read_operand = [&fx](const Operand& op) {
    switch (op.kind) {
      case Operand::Kind::kReg:
        fx.gpr_reads.push_back(op.reg);
        break;
      case Operand::Kind::kXmm:
        fx.xmm_reads.push_back(op.xmm);
        break;
      case Operand::Kind::kMem:
        if (op.mem.base != Gpr::kNone) fx.gpr_reads.push_back(op.mem.base);
        if (op.mem.index != Gpr::kNone) fx.gpr_reads.push_back(op.mem.index);
        fx.reads_mem = true;
        break;
      default:
        break;
    }
  };
  auto write_operand = [&fx, &read_operand](const Operand& op) {
    switch (op.kind) {
      case Operand::Kind::kReg:
        fx.gpr_writes.push_back(op.reg);
        break;
      case Operand::Kind::kXmm:
        fx.xmm_writes.push_back(op.xmm);
        break;
      case Operand::Kind::kMem:
        // Address registers are read even when the access is a write.
        read_operand(op);
        fx.reads_mem = false;  // undo the read flag; this is a store
        fx.writes_mem = true;
        break;
      default:
        break;
    }
  };

  switch (inst.op) {
    case Op::kMov:
    case Op::kMovsx:
    case Op::kMovzx:
    case Op::kMovsd:
    case Op::kMovq:
    case Op::kCvtsi2sd:
    case Op::kCvttsd2si:
      read_operand(inst.ops[0]);
      write_operand(inst.ops[1]);
      break;
    case Op::kSqrtsd:
      read_operand(inst.ops[0]);
      write_operand(inst.ops[1]);
      break;
    case Op::kLea:
      if (inst.ops[0].mem.base != Gpr::kNone) {
        fx.gpr_reads.push_back(inst.ops[0].mem.base);
      }
      if (inst.ops[0].mem.index != Gpr::kNone) {
        fx.gpr_reads.push_back(inst.ops[0].mem.index);
      }
      write_operand(inst.ops[1]);
      break;
    case Op::kPush:
      read_operand(inst.ops[0]);
      fx.gpr_reads.push_back(Gpr::kRsp);
      fx.gpr_writes.push_back(Gpr::kRsp);
      fx.writes_mem = true;
      break;
    case Op::kPop:
      write_operand(inst.ops[0]);
      fx.gpr_reads.push_back(Gpr::kRsp);
      fx.gpr_writes.push_back(Gpr::kRsp);
      fx.reads_mem = true;
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kImul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kSar:
    case Op::kIdiv:
    case Op::kIrem:
      read_operand(inst.ops[0]);
      read_operand(inst.ops[1]);
      write_operand(inst.ops[1]);
      fx.writes_flags = true;
      break;
    case Op::kAddsd:
    case Op::kSubsd:
    case Op::kMulsd:
    case Op::kDivsd:
      read_operand(inst.ops[0]);
      read_operand(inst.ops[1]);
      write_operand(inst.ops[1]);
      break;
    case Op::kCmp:
    case Op::kTest:
    case Op::kUcomisd:
      read_operand(inst.ops[0]);
      read_operand(inst.ops[1]);
      fx.writes_flags = true;
      break;
    case Op::kSetcc:
      fx.reads_flags = true;
      write_operand(inst.ops[0]);
      break;
    case Op::kJcc:
      fx.reads_flags = true;
      break;
    case Op::kJmp:
    case Op::kDetectTrap:
      break;
    case Op::kRet:
      // Return value and callee-saved registers matter to the caller.
      for (Gpr reg : {Gpr::kRax, Gpr::kRbx, Gpr::kRsp, Gpr::kRbp, Gpr::kR12,
                      Gpr::kR13, Gpr::kR14, Gpr::kR15}) {
        fx.gpr_reads.push_back(reg);
      }
      fx.xmm_reads.push_back(0);
      fx.reads_mem = true;
      break;
    case Op::kCall:
      // ABI: caller-saved registers are clobbered; argument registers are
      // (conservatively) read.
      for (Gpr reg : {Gpr::kRdi, Gpr::kRsi, Gpr::kRdx, Gpr::kRcx, Gpr::kR8,
                      Gpr::kR9, Gpr::kRsp}) {
        fx.gpr_reads.push_back(reg);
      }
      for (Gpr reg : {Gpr::kRax, Gpr::kRcx, Gpr::kRdx, Gpr::kRsi, Gpr::kRdi,
                      Gpr::kR8, Gpr::kR9, Gpr::kR10, Gpr::kR11}) {
        fx.gpr_writes.push_back(reg);
      }
      for (int i = 0; i < 16; ++i) {
        if (i < 8) fx.xmm_reads.push_back(i);
        fx.xmm_writes.push_back(i);
      }
      fx.writes_flags = true;
      break;
    case Op::kPinsrq:
      // ops: $lane, src(gpr/mem), xmm — read-modify-write of the xmm.
      read_operand(inst.ops[1]);
      fx.xmm_reads.push_back(inst.ops[2].xmm);
      write_operand(inst.ops[2]);
      break;
    case Op::kVinserti128:
      read_operand(inst.ops[1]);
      fx.xmm_reads.push_back(inst.ops[2].xmm);
      write_operand(inst.ops[2]);
      break;
    case Op::kVpxor:
      read_operand(inst.ops[0]);
      read_operand(inst.ops[1]);
      write_operand(inst.ops[2]);
      break;
    case Op::kVptest:
      read_operand(inst.ops[0]);
      read_operand(inst.ops[1]);
      fx.writes_flags = true;
      break;
  }
  return fx;
}

bool gpr_operands_ok(const AsmInst& inst) {
  for (const Operand& op : inst.ops) {
    if (op.is_reg() && op.reg >= Gpr::kNone) return false;
  }
  const Operand& dst = inst.ops[inst.op == Op::kPop || inst.op == Op::kSetcc
                                   ? 0
                                   : 1];
  switch (inst.op) {
    case Op::kLea:
    case Op::kMovsx:
    case Op::kMovzx:
    case Op::kCvttsd2si:
    case Op::kPop:
      return dst.is_reg();
    case Op::kMov:
    case Op::kSetcc:
    case Op::kAdd:
    case Op::kSub:
    case Op::kImul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kSar:
    case Op::kIdiv:
    case Op::kIrem:
      return dst.is_reg() || dst.is_mem();
    case Op::kMovq:
      return dst.is_reg() || dst.is_mem() || dst.is_xmm();
    default:
      return true;
  }
}

}  // namespace ferrum::masm
