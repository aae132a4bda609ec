#include "vm/timing.h"

#include <algorithm>
#include <bit>

namespace ferrum::vm {

using masm::AsmInst;
using masm::Op;

const char* port_class_name(PortClass port) {
  switch (port) {
    case PortClass::kAlu: return "alu";
    case PortClass::kLoad: return "load";
    case PortClass::kStore: return "store";
    case PortClass::kBranch: return "branch";
    case PortClass::kVec: return "vec";
    case PortClass::kFp: return "fp";
    case PortClass::kDiv: return "div";
  }
  return "?";
}

namespace {

int clamp_units(int units) {
  if (units < 1) return 1;
  if (units > kMaxUnitsPerClass) return kMaxUnitsPerClass;
  return units;
}

}  // namespace

TimingModel::TimingModel(const TimingParams& params) : params_(params) {
  // The unit arrays are fixed at kMaxUnitsPerClass entries; out-of-range
  // params would otherwise index past them (see timing.h).
  params_.issue_width = params_.issue_width < 1 ? 1 : params_.issue_width;
  params_.alu_units = clamp_units(params_.alu_units);
  params_.load_units = clamp_units(params_.load_units);
  params_.store_units = clamp_units(params_.store_units);
  params_.branch_units = clamp_units(params_.branch_units);
  params_.vec_units = clamp_units(params_.vec_units);
  params_.fp_units = clamp_units(params_.fp_units);
  params_.div_units = clamp_units(params_.div_units);
  units_[static_cast<int>(PortClass::kAlu)] = params_.alu_units;
  units_[static_cast<int>(PortClass::kLoad)] = params_.load_units;
  units_[static_cast<int>(PortClass::kStore)] = params_.store_units;
  units_[static_cast<int>(PortClass::kBranch)] = params_.branch_units;
  units_[static_cast<int>(PortClass::kVec)] = params_.vec_units;
  units_[static_cast<int>(PortClass::kFp)] = params_.fp_units;
  units_[static_cast<int>(PortClass::kDiv)] = params_.div_units;
}

PortClass TimingModel::classify(const AsmInst& inst) const {
  switch (inst.op) {
    case Op::kMov:
    case Op::kMovsx:
    case Op::kMovzx:
      if (inst.nops >= 1 && inst.ops[0].is_mem()) return PortClass::kLoad;
      if (inst.nops >= 2 && inst.ops[1].is_mem()) return PortClass::kStore;
      return PortClass::kAlu;
    case Op::kLea:
    case Op::kAdd:
    case Op::kSub:
    case Op::kImul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kSar:
    case Op::kCmp:
    case Op::kTest:
    case Op::kSetcc:
      if (inst.nops >= 1 && inst.ops[0].is_mem()) return PortClass::kLoad;
      if (inst.nops >= 2 && inst.ops[1].is_mem()) return PortClass::kLoad;
      return PortClass::kAlu;
    case Op::kIdiv:
    case Op::kIrem:
    case Op::kDivsd:
    case Op::kSqrtsd:
      return PortClass::kDiv;
    case Op::kPush:
      return PortClass::kStore;
    case Op::kPop:
      return PortClass::kLoad;
    case Op::kJcc:
    case Op::kJmp:
    case Op::kCall:
    case Op::kRet:
    case Op::kDetectTrap:
      return PortClass::kBranch;
    case Op::kMovsd:
      if (inst.ops[0].is_mem()) return PortClass::kLoad;
      if (inst.ops[1].is_mem()) return PortClass::kStore;
      return PortClass::kFp;
    case Op::kAddsd:
    case Op::kSubsd:
    case Op::kMulsd:
    case Op::kUcomisd:
    case Op::kCvtsi2sd:
    case Op::kCvttsd2si:
      return PortClass::kFp;
    case Op::kMovq:
      if (inst.nops >= 1 && inst.ops[0].is_mem()) return PortClass::kLoad;
      return PortClass::kVec;
    case Op::kPinsrq:
      if (inst.nops >= 2 && inst.ops[1].is_mem()) return PortClass::kLoad;
      return PortClass::kVec;
    case Op::kVinserti128:
    case Op::kVpxor:
    case Op::kVptest:
      return PortClass::kVec;
  }
  return PortClass::kAlu;
}

int TimingModel::latency(const AsmInst& inst) const {
  switch (inst.op) {
    case Op::kMov:
    case Op::kMovsx:
    case Op::kMovzx:
      if (inst.nops >= 1 && inst.ops[0].is_mem()) return params_.lat_load;
      if (inst.nops >= 2 && inst.ops[1].is_mem()) return params_.lat_store;
      return params_.lat_alu;
    case Op::kPop:
    case Op::kPush:
      return params_.lat_load;
    case Op::kImul:
      return params_.lat_imul;
    case Op::kIdiv:
    case Op::kIrem:
      return params_.lat_idiv;
    case Op::kJcc:
    case Op::kJmp:
    case Op::kRet:
    case Op::kDetectTrap:
      return params_.lat_branch;
    case Op::kCall:
      return params_.lat_call;
    case Op::kMovsd:
      if (inst.ops[0].is_mem()) return params_.lat_load;
      if (inst.ops[1].is_mem()) return params_.lat_store;
      return params_.lat_alu;
    case Op::kAddsd:
    case Op::kSubsd:
    case Op::kMulsd:
    case Op::kUcomisd:
      return params_.lat_fp;
    case Op::kDivsd:
      return params_.lat_fpdiv;
    case Op::kSqrtsd:
      return params_.lat_sqrt;
    case Op::kCvtsi2sd:
    case Op::kCvttsd2si:
      return params_.lat_cvt;
    case Op::kMovq:
    case Op::kPinsrq:
    case Op::kVinserti128:
      return params_.lat_vec_mov;
    case Op::kVpxor:
      return params_.lat_vec_alu;
    case Op::kVptest:
      return params_.lat_vptest;
    default:
      return params_.lat_alu;
  }
}

TimingRecord TimingModel::record(const AsmInst& inst) const {
  // Bits past FLAGS name no register the model tracks.
  constexpr masm::LiveSet kTracked = (masm::LiveSet{1} << kReadyBits) - 1;
  const masm::UseDef ud = masm::use_def_of(inst);
  const masm::RegEffects fx = masm::effects_of(inst);
  TimingRecord rec;
  rec.use = ud.use & kTracked;
  rec.def = ud.def & kTracked;
  rec.latency = latency(inst);
  rec.port = classify(inst);
  rec.origin = inst.origin;
  rec.reads_mem = fx.reads_mem;
  rec.writes_mem = fx.writes_mem;
  return rec;
}

void TimingModel::step(const TimingRecord& rec, std::uint64_t addr) {
  // Data dependences: ready when every read register/flag is ready.
  std::uint64_t ready = 0;
  for (masm::LiveSet use = rec.use; use != 0; use &= use - 1) {
    ready = std::max(ready, ready_[std::countr_zero(use)]);
  }

  const int mem_slot = static_cast<int>((addr >> 3) % kMemTableSize);
  if (rec.reads_mem && addr != 0 && mem_tag_[mem_slot] == (addr >> 3)) {
    // Store-to-load forwarding from the last store to the same cell.
    ready = std::max(ready,
                     mem_ready_[mem_slot] + params_.lat_store_forward - 1);
  }

  // Frontend: instructions are fetched in program order at issue_width per
  // cycle; execution is out of order beyond that (dependences and port
  // throughput decide), approximating the paper's OoO Xeon.
  const std::uint64_t fetch_cycle = fetch_cycle_;
  if (++fetch_slot_ == params_.issue_width) {
    fetch_slot_ = 0;
    ++fetch_cycle_;
  }

  const int p = static_cast<int>(rec.port);
  // Pick the earliest-free unit of this port class.
  std::uint64_t* unit_free = &port_free_[p][0];
  int best_unit = 0;
  for (int u = 1; u < units_[p]; ++u) {
    if (unit_free[u] < unit_free[best_unit]) best_unit = u;
  }
  const std::uint64_t port_ready = unit_free[best_unit];
  const std::uint64_t cycle = std::max({ready, fetch_cycle, port_ready});
  unit_free[best_unit] = cycle + 1;  // throughput: 1 op/unit/cycle

  const std::uint64_t lat = static_cast<std::uint64_t>(rec.latency);
  const std::uint64_t completion = cycle + lat;
  last_completion_ = std::max(last_completion_, completion);

  // Telemetry: cycle attribution and stall breakdown.
  {
    const int origin = static_cast<int>(rec.origin);
    ++stats_.issues[p][origin];
    stats_.latency_cycles[p][origin] += lat;
    ++stats_.busy_cycles[p];
    ++stats_.instructions;
    // The instruction slipped `cycle - fetch_cycle` past its in-order
    // fetch slot. Dependences are charged first (they gate execution
    // fundamentally); any further slip means every unit of the port class
    // was still busy. When fetch itself was the binding maximum, the
    // frontend's issue width held the instruction back.
    const std::uint64_t slipped = cycle - fetch_cycle;
    const std::uint64_t dep_wait =
        ready > fetch_cycle ? ready - fetch_cycle : 0;
    const std::uint64_t dep_part = dep_wait < slipped ? dep_wait : slipped;
    stats_.stall_dependence += dep_part;
    stats_.stall_port += slipped - dep_part;
    const std::uint64_t backend_ready = std::max(ready, port_ready);
    if (fetch_cycle > backend_ready) {
      stats_.stall_issue_width += fetch_cycle - backend_ready;
    }
  }

  for (masm::LiveSet def = rec.def; def != 0; def &= def - 1) {
    ready_[std::countr_zero(def)] = completion;
  }
  if (rec.writes_mem && addr != 0) {
    mem_tag_[mem_slot] = addr >> 3;
    mem_ready_[mem_slot] = completion;
  }
}

}  // namespace ferrum::vm
