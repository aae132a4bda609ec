#include "masm/fault_site.h"

namespace ferrum::masm {

const char* fault_site_kind_name(FaultSiteKind kind) {
  switch (kind) {
    case FaultSiteKind::kGprWrite: return "gpr-write";
    case FaultSiteKind::kXmmWrite: return "xmm-write";
    case FaultSiteKind::kFlagsWrite: return "flags-write";
    case FaultSiteKind::kStoreData: return "store-data";
    case FaultSiteKind::kBranchDecision: return "branch-decision";
  }
  return "unknown";
}

namespace {

StaticSiteInfo none() { return StaticSiteInfo{}; }

StaticSiteInfo gpr_site(const Operand& dst) {
  StaticSiteInfo info;
  info.has_site = true;
  info.kind = FaultSiteKind::kGprWrite;
  // The VM XORs burst_mask(spec, 64) into the merged 64-bit value, so
  // every bit position is injectable regardless of the write width.
  info.bit_space = 64;
  info.reg = dst.reg;
  return info;
}

StaticSiteInfo flags_site() {
  StaticSiteInfo info;
  info.has_site = true;
  info.kind = FaultSiteKind::kFlagsWrite;
  info.bit_space = 4;  // zf / sf / of / cf
  return info;
}

StaticSiteInfo store_site(bool store_data, int width) {
  if (!store_data) return none();  // store_faultable registers no site
  StaticSiteInfo info;
  info.has_site = true;
  info.kind = FaultSiteKind::kStoreData;
  info.bit_space = width * 8;
  info.store_width = width;
  return info;
}

StaticSiteInfo xmm_site(int xmm, int lane_base, int lane_count) {
  StaticSiteInfo info;
  info.has_site = true;
  info.kind = FaultSiteKind::kXmmWrite;
  info.bit_space = lane_count * 64;
  info.xmm = xmm;
  info.lane_base = lane_base;
  info.lane_count = lane_count;
  return info;
}

StaticSiteInfo branch_site() {
  StaticSiteInfo info;
  info.has_site = true;
  info.kind = FaultSiteKind::kBranchDecision;
  info.bit_space = 1;  // the taken bit flips whatever spec.bit was drawn
  return info;
}

}  // namespace

StaticSiteInfo static_site_of(const AsmInst& inst, bool store_data,
                              bool call_pushes_ret) {
  switch (inst.op) {
    case Op::kMov:
      return inst.ops[1].is_mem() ? store_site(store_data, inst.ops[1].width)
                                  : gpr_site(inst.ops[1]);
    case Op::kMovsx:
    case Op::kMovzx:
    case Op::kLea:
    case Op::kCvttsd2si:
      return gpr_site(inst.ops[1]);
    case Op::kPush:
      return store_site(store_data, 8);
    case Op::kPop:
      return gpr_site(inst.ops[0]);
    case Op::kAdd: case Op::kSub: case Op::kImul: case Op::kAnd:
    case Op::kOr: case Op::kXor: case Op::kShl: case Op::kSar:
    case Op::kIdiv: case Op::kIrem:
      return inst.ops[1].is_mem() ? store_site(store_data, inst.ops[1].width)
                                  : gpr_site(inst.ops[1]);
    case Op::kCmp:
    case Op::kTest:
    case Op::kUcomisd:
    case Op::kVptest:
      return flags_site();
    case Op::kSetcc:
      return inst.ops[0].is_mem() ? store_site(store_data, 1)
                                  : gpr_site(inst.ops[0]);
    case Op::kJcc:
      return branch_site();
    case Op::kJmp:
    case Op::kRet:
    case Op::kDetectTrap:
      return none();
    case Op::kCall:
      // Builtins return before the push; unresolved callees trap before
      // it. Only a resolved user-function call stores the return address.
      return call_pushes_ret ? store_site(store_data, 8) : none();
    case Op::kMovsd:
      if (inst.ops[1].is_xmm()) return xmm_site(inst.ops[1].xmm, 0, 1);
      return store_site(store_data, 8);
    case Op::kAddsd: case Op::kSubsd: case Op::kMulsd: case Op::kDivsd:
    case Op::kSqrtsd:
    case Op::kCvtsi2sd:
      return xmm_site(inst.ops[1].xmm, 0, 1);
    case Op::kMovq:
      if (inst.ops[1].is_xmm()) {
        return xmm_site(inst.ops[1].xmm, 0, 2);  // lane1 zeroed by movq
      }
      return inst.ops[1].is_mem() ? store_site(store_data, inst.ops[1].width)
                                  : gpr_site(inst.ops[1]);
    case Op::kPinsrq:
      return xmm_site(inst.ops[2].xmm, static_cast<int>(inst.ops[0].imm) & 1,
                      1);
    case Op::kVinserti128:
      return xmm_site(inst.ops[2].xmm,
                      (static_cast<int>(inst.ops[0].imm) & 1) * 2, 2);
    case Op::kVpxor:
      return xmm_site(inst.ops[2].xmm, 0, 4);
  }
  return none();
}

bool call_pushes_ret(const AsmProgram& program, const AsmInst& inst) {
  if (inst.op != Op::kCall) return true;
  const std::string& callee = inst.ops[0].label;
  if (callee == "print_int" || callee == "print_f64") return false;
  return program.find_function(callee) != nullptr;
}

}  // namespace ferrum::masm
