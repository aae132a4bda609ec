#include "check/flow.h"

#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "check/dataflow.h"

namespace ferrum::check::flow {
namespace {

using masm::AsmFunction;
using masm::AsmInst;
using masm::AsmProgram;
using masm::FaultSiteKind;
using masm::Gpr;
using masm::MemRef;
using masm::Op;
using masm::Operand;

// ---------------------------------------------------------- flow state --

// Tracked locations: 16 GPRs, 16 XMM registers x 4 64-bit lanes (the
// full YMM backing store, matching prune's granularity), RFLAGS.
constexpr int kGprLocBase = 0;
constexpr int kXmmLocBase = masm::kGprCount;                      // 16
constexpr int kFlagsLoc = kXmmLocBase + masm::kXmmCount * 4;      // 80
constexpr int kLocCount = kFlagsLoc + 1;                          // 81

constexpr int gpr_loc(Gpr reg) {
  return kGprLocBase + static_cast<int>(reg);
}
constexpr int xmm_loc(int xmm, int lane) {
  return kXmmLocBase + xmm * 4 + lane;
}

/// One location's flow fact: the sinks its current value can still reach,
/// plus the exit locations it can flow into by function return (the exit
/// mask is populated only during summary construction — concrete passes
/// seed rets with sink-only contexts, so it stays empty there).
struct Cell {
  std::uint64_t exit_lo = 0;  // exit locations 0..63
  std::uint32_t exit_hi = 0;  // exit locations 64..80
  std::uint16_t sinks = 0;

  bool operator==(const Cell& o) const {
    return exit_lo == o.exit_lo && exit_hi == o.exit_hi && sinks == o.sinks;
  }
  bool empty() const { return exit_lo == 0 && exit_hi == 0 && sinks == 0; }
  void merge(const Cell& o) {
    exit_lo |= o.exit_lo;
    exit_hi |= o.exit_hi;
    sinks |= o.sinks;
  }
  static Cell sink(std::uint16_t mask) {
    Cell c;
    c.sinks = mask;
    return c;
  }
  static Cell exit_of(int loc) {
    Cell c;
    if (loc < 64) {
      c.exit_lo = std::uint64_t{1} << loc;
    } else {
      c.exit_hi = std::uint32_t{1} << (loc - 64);
    }
    return c;
  }
};

/// Per-program-point state: loc -> where its current value can flow.
struct FlowState {
  std::array<Cell, kLocCount> loc{};

  bool operator==(const FlowState& o) const { return loc == o.loc; }
  void join(const FlowState& o) {
    for (int l = 0; l < kLocCount; ++l) loc[l].merge(o.loc[l]);
  }
};

/// Expands a summary cell against the caller's after-call state: the
/// callee's intrinsic sinks plus, for every exit location the value can
/// reach, whatever the caller lets flow from there.
Cell expand(const Cell& summary, const FlowState& after) {
  Cell out = Cell::sink(summary.sinks);
  std::uint64_t lo = summary.exit_lo;
  while (lo != 0) {
    const int e = __builtin_ctzll(lo);
    lo &= lo - 1;
    out.merge(after.loc[e]);
  }
  std::uint32_t hi = summary.exit_hi;
  while (hi != 0) {
    const int e = 64 + __builtin_ctz(hi);
    hi &= hi - 1;
    out.merge(after.loc[e]);
  }
  return out;
}

// ----------------------------------------------------- transfer helpers --

void read_gpr(FlowState& s, Gpr reg, const Cell& gen) {
  if (reg != Gpr::kNone) s.loc[gpr_loc(reg)].merge(gen);
}

void read_xmm_lane(FlowState& s, int xmm, int lane, const Cell& gen) {
  s.loc[xmm_loc(xmm, lane)].merge(gen);
}

/// Memory address registers: the address value both selects the accessed
/// cell (gen flows through a load's result / a store's destination) and
/// can trap — callers fold kSinkAddress into gen.
void read_mem(FlowState& s, const MemRef& mem, const Cell& gen) {
  read_gpr(s, mem.base, gen);
  read_gpr(s, mem.index, gen);
}

/// Generic operand read (GPR at any width — a corrupted narrow value
/// still flows — memory addresses with the address sink, XMM operands
/// whole-register). Immediates and labels read nothing.
void read_operand(FlowState& s, const Operand& op, const Cell& gen) {
  switch (op.kind) {
    case Operand::Kind::kReg:
      read_gpr(s, op.reg, gen);
      return;
    case Operand::Kind::kMem: {
      Cell addr = gen;
      addr.sinks |= kSinkAddress;
      read_mem(s, op.mem, addr);
      return;
    }
    case Operand::Kind::kXmm:
      for (int l = 0; l < 4; ++l) read_xmm_lane(s, op.xmm, l, gen);
      return;
    default:
      return;
  }
}

/// Scalar-double source: xmm low lane or a memory/GPR operand.
void read_scalar_src(FlowState& s, const Operand& op, const Cell& gen) {
  if (op.is_xmm()) {
    read_xmm_lane(s, op.xmm, 0, gen);
  } else {
    read_operand(s, op, gen);
  }
}

/// Mirrors merged_gpr_value: 32/64-bit writes replace the whole register
/// (a kill), 8-bit writes merge (the old upper bits survive — no kill).
void kill_gpr(FlowState& s, Gpr reg, int width) {
  if (reg == Gpr::kNone || width == 1) return;
  s.loc[gpr_loc(reg)] = Cell{};
}

/// The destination-flow generator of a GPR write: whatever the post-state
/// lets the written value reach, plus the stack-pointer sink when the
/// destination steers the frame.
Cell gpr_write_gen(const FlowState& s, Gpr reg) {
  Cell gen = s.loc[gpr_loc(reg)];
  if (reg == Gpr::kRsp || reg == Gpr::kRbp) gen.sinks |= kSinkStackPtr;
  return gen;
}

// ------------------------------------------------------------- analyzer --

/// Flow's domain on the shared driver (check/dataflow.h). A summary is
/// the entry state under identity exits: per location, the sinks the
/// callee itself exposes and the exit locations the value survives into.
/// main's exit feeds %rax to the return value, an output sink.
struct Reach {
  using State = FlowState;
  using Summary = FlowState;

  const AsmProgram& program;
  /// Whether block `target` (-1 when unresolved) of function f starts
  /// with the detect trap: a jcc into one is a detector firing, not an
  /// outcome-steering branch.
  bool detects(int f, int target) const {
    if (target < 0) return false;
    const auto& insts = program.functions[static_cast<std::size_t>(f)]
                            .blocks[static_cast<std::size_t>(target)].insts;
    return !insts.empty() && insts.front().op == Op::kDetectTrap;
  }

  std::vector<FlowState> summary_seeds() const {
    FlowState identity;  // every location flows to itself at ret
    for (int l = 0; l < kLocCount; ++l) identity.loc[l] = Cell::exit_of(l);
    return {identity};
  }
  FlowState summarize(const std::vector<FlowState>& entries) const {
    return entries[0];
  }
  FlowState main_exit() const {
    FlowState s;
    s.loc[gpr_loc(Gpr::kRax)] = Cell::sink(kSinkOutput);
    return s;
  }

  /// Backward transfer of one instruction: s holds the flow state *after*
  /// the instruction on entry and *before* it on exit. Destination flow
  /// is read off the post-state first, full overwrites are killed, then
  /// every read location absorbs the generated flow plus the
  /// instruction's intrinsic sinks.
  void transfer(const AsmInst& inst, FlowState& s,
                const dataflow::Edges<FlowState, FlowState>& e) const {
    switch (inst.op) {
      case Op::kMov:
        if (inst.ops[1].is_mem()) {
          // Store: the data enters the (untracked) store stream; the
          // address selects which cell is corrupted.
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[1].mem, addr);
          read_operand(s, inst.ops[0], Cell::sink(kSinkStore));
        } else {
          const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
          read_operand(s, inst.ops[0], gen);
        }
        return;
      case Op::kMovsx:
      case Op::kMovzx: {
        const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
        kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        read_operand(s, inst.ops[0], gen);
        return;
      }
      case Op::kLea: {
        // Pure address arithmetic: the inputs flow into the destination
        // but nothing is dereferenced here — any address sink attaches at
        // the eventual access.
        const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
        kill_gpr(s, inst.ops[1].reg, 8);
        read_mem(s, inst.ops[0].mem, gen);
        return;
      }
      case Op::kPush: {
        // Store of the source at [rsp-8]; rsp is read (address + bump)
        // and rewritten from its old value.
        Cell rsp = gpr_write_gen(s, Gpr::kRsp);
        rsp.sinks |= kSinkStore | kSinkAddress;
        read_gpr(s, Gpr::kRsp, rsp);
        read_operand(s, inst.ops[0], Cell::sink(kSinkStore));
        return;
      }
      case Op::kPop: {
        // Load from [rsp]: the stack address selects the value landing in
        // the destination; rsp is also rewritten from its old value.
        const Cell gen = gpr_write_gen(s, inst.ops[0].reg);
        kill_gpr(s, inst.ops[0].reg, 8);
        Cell rsp = gpr_write_gen(s, Gpr::kRsp);
        rsp.merge(gen);
        rsp.sinks |= kSinkAddress;
        read_gpr(s, Gpr::kRsp, rsp);
        return;
      }
      case Op::kAdd: case Op::kSub: case Op::kImul: case Op::kAnd:
      case Op::kOr: case Op::kXor: case Op::kShl: case Op::kSar:
      case Op::kIdiv: case Op::kIrem: {
        const bool traps = inst.op == Op::kIdiv || inst.op == Op::kIrem;
        Cell gen = s.loc[kFlagsLoc];  // the computed flags flow from inputs
        s.loc[kFlagsLoc] = Cell{};    // every ALU op replaces the flag set
        if (inst.ops[1].is_mem()) {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          addr.merge(gen);
          read_mem(s, inst.ops[1].mem, addr);
          gen.sinks |= kSinkStore;  // RMW store of the result
        } else {
          gen.merge(gpr_write_gen(s, inst.ops[1].reg));
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        }
        if (traps) gen.sinks |= kSinkTrap;  // #DE on a corrupted divisor
        if (!inst.ops[1].is_mem()) {
          read_gpr(s, inst.ops[1].reg, gen);  // RMW read
        }
        read_operand(s, inst.ops[0], gen);
        return;
      }
      case Op::kCmp:
      case Op::kTest: {
        const Cell gen = s.loc[kFlagsLoc];
        s.loc[kFlagsLoc] = Cell{};
        read_operand(s, inst.ops[0], gen);
        read_operand(s, inst.ops[1], gen);
        return;
      }
      case Op::kSetcc:
        if (inst.ops[0].is_mem()) {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[0].mem, addr);
          s.loc[kFlagsLoc].merge(Cell::sink(kSinkStore));
        } else {
          // 1-byte merge: no kill; the captured condition flows wherever
          // the destination byte flows.
          s.loc[kFlagsLoc].merge(gpr_write_gen(s, inst.ops[0].reg));
        }
        return;
      case Op::kJcc:
        // s currently holds the fall-through state; join the taken edge.
        // A branch into the detect block is the detector firing; any
        // other resolution steers control flow.
        if (e.target_in != nullptr) s.join(*e.target_in);
        s.loc[kFlagsLoc].merge(Cell::sink(
            detects(e.function, e.target) ? kSinkDetect : kSinkBranch));
        return;
      case Op::kJmp:
        s = e.target_in != nullptr ? *e.target_in : FlowState{};
        return;
      case Op::kCall: {
        if (e.callee == dataflow::kCalleePrintInt) {
          read_gpr(s, Gpr::kRdi, Cell::sink(kSinkOutput));
          return;
        }
        if (e.callee == dataflow::kCalleePrintF64) {
          read_xmm_lane(s, 0, 0, Cell::sink(kSinkOutput));
          return;
        }
        if (e.callee < 0) {
          s = FlowState{};  // unknown callee traps before any effect
          return;
        }
        // Compose the callee summary with the caller's after-call state.
        // Locations the callee overwrites on every path have no exit
        // entry for their own value, so clobbers fall out for free.
        const FlowState& sum = *e.summary;
        FlowState before;
        for (int l = 0; l < kLocCount; ++l) {
          before.loc[l] = expand(sum.loc[l], s);
        }
        s = before;
        Cell rsp = Cell::sink(kSinkStore | kSinkAddress);  // ret-addr push
        rsp.merge(s.loc[gpr_loc(Gpr::kRsp)]);
        s.loc[gpr_loc(Gpr::kRsp)] = rsp;
        return;
      }
      case Op::kRet:
        s = *e.exit;
        s.loc[gpr_loc(Gpr::kRsp)].merge(Cell::sink(kSinkAddress));  // the pop
        return;
      case Op::kDetectTrap:
        s = FlowState{};  // never returns
        return;
      case Op::kMovsd:
        if (inst.ops[1].is_xmm()) {
          const Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
          s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
          read_scalar_src(s, inst.ops[0], gen);
        } else {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[1].mem, addr);
          read_xmm_lane(s, inst.ops[0].xmm, 0, Cell::sink(kSinkStore));
        }
        return;
      case Op::kAddsd: case Op::kSubsd: case Op::kMulsd: case Op::kDivsd: {
        Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
        s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
        read_xmm_lane(s, inst.ops[1].xmm, 0, gen);  // RMW read
        read_scalar_src(s, inst.ops[0], gen);
        return;
      }
      case Op::kSqrtsd: {
        const Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
        s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
        read_scalar_src(s, inst.ops[0], gen);
        return;
      }
      case Op::kUcomisd: {
        const Cell gen = s.loc[kFlagsLoc];
        s.loc[kFlagsLoc] = Cell{};
        read_scalar_src(s, inst.ops[0], gen);
        read_xmm_lane(s, inst.ops[1].xmm, 0, gen);
        return;
      }
      case Op::kCvtsi2sd: {
        const Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
        s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
        read_operand(s, inst.ops[0], gen);
        return;
      }
      case Op::kCvttsd2si: {
        const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
        kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        read_xmm_lane(s, inst.ops[0].xmm, 0, gen);
        return;
      }
      case Op::kMovq:
        if (inst.ops[1].is_xmm()) {
          Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
          s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
          s.loc[xmm_loc(inst.ops[1].xmm, 1)] = Cell{};  // movq zeroes lane 1
          read_operand(s, inst.ops[0], gen);
        } else if (inst.ops[1].is_mem()) {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[1].mem, addr);
          read_xmm_lane(s, inst.ops[0].xmm, 0, Cell::sink(kSinkStore));
        } else {
          const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
          read_xmm_lane(s, inst.ops[0].xmm, 0, gen);
        }
        return;
      case Op::kPinsrq: {
        const int lane = static_cast<int>(inst.ops[0].imm) & 1;
        const Cell gen = s.loc[xmm_loc(inst.ops[2].xmm, lane)];
        s.loc[xmm_loc(inst.ops[2].xmm, lane)] = Cell{};
        read_operand(s, inst.ops[1], gen);
        return;
      }
      case Op::kVinserti128: {
        const int base = (static_cast<int>(inst.ops[0].imm) & 1) * 2;
        Cell gen = s.loc[xmm_loc(inst.ops[2].xmm, base)];
        gen.merge(s.loc[xmm_loc(inst.ops[2].xmm, base + 1)]);
        s.loc[xmm_loc(inst.ops[2].xmm, base)] = Cell{};
        s.loc[xmm_loc(inst.ops[2].xmm, base + 1)] = Cell{};
        read_xmm_lane(s, inst.ops[1].xmm, 0, gen);
        read_xmm_lane(s, inst.ops[1].xmm, 1, gen);
        return;
      }
      case Op::kVpxor: {
        const int active = inst.ops[0].ymm ? 4 : 2;
        Cell gen;
        for (int l = 0; l < 4; ++l) {
          gen.merge(s.loc[xmm_loc(inst.ops[2].xmm, l)]);
          s.loc[xmm_loc(inst.ops[2].xmm, l)] = Cell{};
        }
        for (int l = 0; l < active; ++l) {
          read_xmm_lane(s, inst.ops[0].xmm, l, gen);
          read_xmm_lane(s, inst.ops[1].xmm, l, gen);
        }
        return;
      }
      case Op::kVptest: {
        const Cell gen = s.loc[kFlagsLoc];
        s.loc[kFlagsLoc] = Cell{};
        const int active = inst.ops[0].ymm ? 4 : 2;
        for (int l = 0; l < active; ++l) {
          read_xmm_lane(s, inst.ops[0].xmm, l, gen);
          read_xmm_lane(s, inst.ops[1].xmm, l, gen);
        }
        return;
      }
    }
  }
};

// ------------------------------------------------ report construction --

class Analyzer {
 public:
  Analyzer(const AsmProgram& program, const AnalysisOptions& options)
      : prog_(program), opts_(options), df_(program, Reach{program}) {}

  /// The sink mask of the location(s) a site writes, read off the
  /// after-state of its instruction — exactly where the flipped value
  /// resides when the fault fires.
  std::uint16_t site_sinks(const FlowState& after, int f, std::size_t b,
                           std::size_t i,
                           const masm::StaticSiteInfo& info) const {
    switch (info.kind) {
      case FaultSiteKind::kGprWrite:
        return after.loc[gpr_loc(info.reg)].sinks;
      case FaultSiteKind::kXmmWrite: {
        std::uint16_t sinks = 0;
        for (int l = 0; l < info.lane_count; ++l) {
          sinks |= after.loc[xmm_loc(info.xmm, info.lane_base + l)].sinks;
        }
        return sinks;
      }
      case FaultSiteKind::kFlagsWrite:
        return after.loc[kFlagsLoc].sinks;
      case FaultSiteKind::kStoreData:
        // The corrupted value is already in the store stream.
        return kSinkStore;
      case FaultSiteKind::kBranchDecision:
        return df_.domain().detects(f, df_.target(f, b, i)) ? kSinkDetect
                                                            : kSinkBranch;
    }
    return 0;
  }

  static Prediction predict_from_sinks(std::uint16_t sinks) {
    if ((sinks & (kSinkStore | kSinkOutput)) != 0) {
      return Prediction::kSdcVulnerable;
    }
    if ((sinks & (kSinkAddress | kSinkStackPtr | kSinkBranch | kSinkTrap)) !=
        0) {
      return Prediction::kCrashProne;
    }
    if ((sinks & kSinkDetect) != 0) return Prediction::kDetected;
    return Prediction::kMasked;
  }

  /// The report, folding in the companion analyses: prune's dead-bit
  /// proof, check's protected/benign classification, and the section
  /// decomposition for the per-section profile. All three were built
  /// under opts_, so site enumerations line up.
  FlowReport build_report(const CheckReport& checked,
                          const prune::PruneReport& pruned,
                          const sections::SectionMap& section_map) const {
    FlowReport report;
    report.store_data_sites = opts_.store_data_sites;
    const int nfuncs = static_cast<int>(prog_.functions.size());

    // check::SiteRecord keys by function *name*; index for O(1) joins.
    std::map<std::tuple<std::string, int, int, int>, SiteStatus> check_status;
    for (const SiteRecord& site : checked.sites) {
      check_status.emplace(
          std::make_tuple(site.function, site.block, site.inst,
                          static_cast<int>(site.kind)),
          site.status);
    }

    report.by_function.resize(static_cast<std::size_t>(nfuncs));
    report.by_section.resize(section_map.sections.size());
    // The walk below meets prune's sites, in prune's order.
    report.site_at_ = pruned.site_at_;

    for (int f = 0; f < nfuncs; ++f) {
      const AsmFunction& fn = prog_.functions[static_cast<std::size_t>(f)];
      const auto after = df_.after_states(f);
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        const auto& insts = fn.blocks[b].insts;
        for (std::size_t i = 0; i < insts.size(); ++i) {
          const AsmInst& inst = insts[i];
          const masm::StaticSiteInfo info = masm::static_site_of(
              inst, opts_.store_data_sites, masm::call_pushes_ret(prog_, inst));
          if (!info.has_site) continue;

          FlowSite site;
          site.function = f;
          site.block = static_cast<int>(b);
          site.inst = static_cast<int>(i);
          site.kind = info.kind;
          site.sinks = site_sinks(after[b][i], f, b, i, info);
          site.section = section_map.section_of(f, static_cast<int>(b),
                                                static_cast<int>(i));

          // Prediction priority: a full static deadness proof beats
          // everything; then check's validated protected fact; then the
          // sink mask (worst sink wins inside predict_from_sinks).
          // Check's kBenign verdict is NOT allowed to override the sink
          // evidence: its observation model is scoped to protection
          // invariants and under-observes some value chains the flow
          // domain does track (e.g. scalar-double arithmetic feeding a
          // store in an unprotected build), so "never observed" there is
          // not a masking proof. It only corroborates — the basis is
          // recorded when flow independently found no sinks at all.
          const prune::PruneSite& dead = pruned.sites[report.sites.size()];
          const auto status_it = check_status.find(std::make_tuple(
              fn.name, static_cast<int>(b), static_cast<int>(i),
              static_cast<int>(info.kind)));
          if (dead.fully_dead()) {
            site.prediction = Prediction::kMasked;
            site.basis = PredictionBasis::kPruneDead;
          } else if (status_it != check_status.end() &&
                     status_it->second == SiteStatus::kProtected) {
            site.prediction = Prediction::kDetected;
            site.basis = PredictionBasis::kCheckProtected;
          } else if (status_it != check_status.end() &&
                     status_it->second == SiteStatus::kBenign &&
                     site.sinks == 0) {
            site.prediction = Prediction::kMasked;
            site.basis = PredictionBasis::kCheckBenign;
          } else {
            site.prediction = predict_from_sinks(site.sinks);
            site.basis = PredictionBasis::kFlow;
          }

          report.profile.add(site.prediction);
          report.by_function[static_cast<std::size_t>(f)].add(site.prediction);
          if (site.section >= 0) {
            report.by_section[static_cast<std::size_t>(site.section)].add(
                site.prediction);
          }
          report.sites.push_back(site);
        }
      }
    }
    return report;
  }

 private:
  const AsmProgram& prog_;
  AnalysisOptions opts_;
  const dataflow::BackwardDataflow<Reach> df_;
};

}  // namespace

std::string sink_mask_name(std::uint16_t sinks) {
  static constexpr std::pair<std::uint16_t, const char*> kNames[] = {
      {kSinkStore, "store"},     {kSinkOutput, "output"},
      {kSinkAddress, "address"}, {kSinkStackPtr, "stackptr"},
      {kSinkBranch, "branch"},   {kSinkTrap, "trap"},
      {kSinkDetect, "detect"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((sinks & bit) == 0) continue;
    if (!out.empty()) out += "|";
    out += name;
  }
  return out.empty() ? "none" : out;
}

const char* prediction_name(Prediction prediction) {
  switch (prediction) {
    case Prediction::kMasked: return "masked";
    case Prediction::kDetected: return "detected";
    case Prediction::kCrashProne: return "crash-prone";
    case Prediction::kSdcVulnerable: return "sdc-vulnerable";
  }
  return "?";
}

const char* prediction_basis_name(PredictionBasis basis) {
  switch (basis) {
    case PredictionBasis::kPruneDead: return "prune-dead";
    case PredictionBasis::kCheckProtected: return "check-protected";
    case PredictionBasis::kCheckBenign: return "check-benign";
    case PredictionBasis::kFlow: return "flow";
  }
  return "?";
}

AnalysisSet analyze(const AsmProgram& program, const AnalysisOptions& options,
                    const CheckReport* check) {
  if (check != nullptr && check->store_data_sites != options.store_data_sites) {
    throw std::invalid_argument(
        "analyze: the check report's store_data_sites differs from the "
        "options'");
  }
  AnalysisSet set;
  set.check = check != nullptr ? *check : check_program(program, options);
  set.prune = prune::prune_program(program, options);
  set.sections = sections::build_sections(program, options);
  set.flow = Analyzer(program, options)
                 .build_report(set.check, set.prune, set.sections);
  return set;
}

FlowReport flow_program(const AsmProgram& program,
                        const AnalysisOptions& options) {
  return analyze(program, options).flow;
}

namespace {

telemetry::Json profile_json(const FlowProfile& profile) {
  telemetry::Json out = telemetry::Json::object();
  for (int p = 0; p < kPredictionCount; ++p) {
    out[prediction_name(static_cast<Prediction>(p))] = profile.count
        [static_cast<std::size_t>(p)];
  }
  out["total"] = profile.total();
  return out;
}

}  // namespace

telemetry::Json to_json(const FlowReport& report,
                        const AsmProgram& program) {
  telemetry::Json root = telemetry::Json::object();
  root["schema"] = "ferrum.flow.v1";
  root["store_data_sites"] = report.store_data_sites;
  root["profile"] = profile_json(report.profile);

  telemetry::Json by_function = telemetry::Json::object();
  for (std::size_t f = 0; f < report.by_function.size(); ++f) {
    if (report.by_function[f].total() == 0) continue;
    by_function[program.functions[f].name] =
        profile_json(report.by_function[f]);
  }
  root["by_function"] = std::move(by_function);

  telemetry::Json by_section = telemetry::Json::array();
  by_section.reserve(report.by_section.size());
  for (std::size_t sec = 0; sec < report.by_section.size(); ++sec) {
    if (report.by_section[sec].total() == 0) continue;
    telemetry::Json entry = profile_json(report.by_section[sec]);
    entry["section"] = static_cast<std::uint64_t>(sec);
    by_section.push_back(std::move(entry));
  }
  root["by_section"] = std::move(by_section);

  telemetry::Json sites = telemetry::Json::array();
  sites.reserve(report.sites.size());
  for (const FlowSite& site : report.sites) {
    // Rows insert their keys in sorted order, so each insert appends.
    telemetry::Json entry = telemetry::Json::object();
    entry.reserve(8);
    entry["basis"] = prediction_basis_name(site.basis);
    entry["block"] = static_cast<std::int64_t>(site.block);
    entry["function"] =
        program.functions[static_cast<std::size_t>(site.function)].name;
    entry["inst"] = static_cast<std::int64_t>(site.inst);
    entry["kind"] = masm::fault_site_kind_name(site.kind);
    entry["prediction"] = prediction_name(site.prediction);
    entry["section"] = static_cast<std::int64_t>(site.section);
    entry["sinks"] = sink_mask_name(site.sinks);
    sites.push_back(std::move(entry));
  }
  root["sites"] = std::move(sites);
  return root;
}

}  // namespace ferrum::check::flow
