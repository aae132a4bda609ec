#include "check/prune.h"

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/dataflow.h"

namespace ferrum::check::prune {
namespace {

using masm::AsmFunction;
using masm::AsmInst;
using masm::AsmProgram;
using masm::Cond;
using masm::FaultSiteKind;
using masm::Gpr;
using masm::MemRef;
using masm::Op;
using masm::Operand;

// ------------------------------------------------------------ bit state --

// Flag bit numbering matches the VM's burst_mask(spec, 4) decode:
// bit 0 = zf, 1 = sf, 2 = of, 3 = cf.
constexpr std::uint8_t kZf = 1, kSf = 2, kOf = 4, kCf = 8;
constexpr std::uint8_t kAllFlags = kZf | kSf | kOf | kCf;

/// Per-program-point live-bit set: 64 bits per GPR, 64 per XMM lane
/// (full 256-bit YMM backing store), 4 flag bits. Memory is deliberately
/// absent — every store keeps its full source live instead (see the
/// soundness argument in prune.h).
struct BitState {
  std::array<std::uint64_t, masm::kGprCount> gpr{};
  std::array<std::array<std::uint64_t, 4>, masm::kXmmCount> xmm{};
  std::uint8_t flags = 0;

  bool operator==(const BitState& o) const {
    return gpr == o.gpr && xmm == o.xmm && flags == o.flags;
  }
  void join(const BitState& o) {
    for (int r = 0; r < masm::kGprCount; ++r) gpr[r] |= o.gpr[r];
    for (int x = 0; x < masm::kXmmCount; ++x) {
      for (int l = 0; l < 4; ++l) xmm[x][l] |= o.xmm[x][l];
    }
    flags |= o.flags;
  }
  static BitState all() {
    BitState s;
    s.gpr.fill(~std::uint64_t{0});
    for (auto& x : s.xmm) x.fill(~std::uint64_t{0});
    s.flags = kAllFlags;
    return s;
  }
};

std::uint64_t width_mask(int width) {
  switch (width) {
    case 1: return 0xffULL;
    case 4: return 0xffff'ffffULL;
    default: return ~std::uint64_t{0};
  }
}

void use_gpr(BitState& s, Gpr reg, std::uint64_t mask) {
  if (reg != Gpr::kNone) s.gpr[static_cast<int>(reg)] |= mask;
}

/// Mirrors merged_gpr_value: an 8-bit write merges (upper bits pass
/// through), 32/64-bit writes replace the whole register.
void kill_gpr(BitState& s, Gpr reg, int width) {
  if (reg == Gpr::kNone) return;
  if (width == 1) {
    s.gpr[static_cast<int>(reg)] &= ~0xffULL;
  } else {
    s.gpr[static_cast<int>(reg)] = 0;
  }
}

/// Address registers are fully observed: a flipped base/index bit moves
/// the access (different outcome or a memory trap).
void use_mem(BitState& s, const MemRef& mem) {
  use_gpr(s, mem.base, ~std::uint64_t{0});
  use_gpr(s, mem.index, ~std::uint64_t{0});
}

void use_xmm_lane(BitState& s, int xmm, int lane) {
  s.xmm[xmm][lane] = ~std::uint64_t{0};
}

/// Generic operand read (GPR at access width, memory address registers,
/// immediates nothing). XMM operands read by the scalar/shuffle ops are
/// handled per-opcode at lane granularity; hitting one here falls back to
/// the conservative whole-register read.
void use_operand(BitState& s, const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kReg:
      use_gpr(s, op.reg, width_mask(op.width));
      return;
    case Operand::Kind::kMem:
      use_mem(s, op.mem);
      return;
    case Operand::Kind::kXmm:
      for (int l = 0; l < 4; ++l) use_xmm_lane(s, op.xmm, l);
      return;
    default:
      return;
  }
}

/// Scalar-double source: xmm low lane or a memory/GPR operand.
void use_scalar_src(BitState& s, const Operand& op) {
  if (op.is_xmm()) {
    use_xmm_lane(s, op.xmm, 0);
  } else {
    use_operand(s, op);
  }
}

/// Flag bits eval_cond reads for each condition.
std::uint8_t cond_flags(Cond cc) {
  switch (cc) {
    case Cond::kE: case Cond::kNe: return kZf;
    case Cond::kL: case Cond::kGe: return kSf | kOf;
    case Cond::kLe: case Cond::kG: return kZf | kSf | kOf;
    case Cond::kA: case Cond::kBe: return kCf | kZf;
    case Cond::kAe: case Cond::kB: return kCf;
  }
  return kAllFlags;
}

// ------------------------------------------------------------- analyzer --

/// Callee behaviour summary for the interprocedural transfer at calls:
/// live_before = {rsp} ∪ l0 ∪ (live_after ∩ la).
///   l0 — live-in with exit liveness ∅   (bits the callee may read);
///   la — live-in with exit liveness ALL (l0 plus bits not surely killed
///        on every path, i.e. an upper bound on pass-through).
struct Summary {
  BitState l0;
  BitState la;
  bool operator==(const Summary&) const = default;
};

/// Prune's domain on the shared driver (check/dataflow.h): summaries
/// solve under the exit seeds ∅ and ALL, and main's exit observes %rax
/// (VmResult::return_value).
struct Liveness {
  using State = BitState;
  using Summary = prune::Summary;

  std::vector<BitState> summary_seeds() const {
    return {BitState{}, BitState::all()};
  }
  Summary summarize(const std::vector<BitState>& entries) const {
    return {entries[0], entries[1]};
  }
  BitState main_exit() const {
    BitState s;
    use_gpr(s, Gpr::kRax, ~std::uint64_t{0});
    return s;
  }

  /// Backward transfer of one instruction: s holds liveness *after* the
  /// instruction on entry and *before* it on exit. Kills first, uses
  /// second (live_before = use ∪ (after \ kill)).
  void transfer(const AsmInst& inst, BitState& s,
                const dataflow::Edges<BitState, Summary>& e) const {
    switch (inst.op) {
      case Op::kMov:
        if (inst.ops[1].is_mem()) {
          use_mem(s, inst.ops[1].mem);
          use_operand(s, inst.ops[0]);
        } else {
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
          use_operand(s, inst.ops[0]);
        }
        return;
      case Op::kMovsx:
      case Op::kMovzx:
        kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        use_operand(s, inst.ops[0]);
        return;
      case Op::kLea:
        kill_gpr(s, inst.ops[1].reg, 8);
        use_mem(s, inst.ops[0].mem);
        return;
      case Op::kPush:
        // rsp is read (bump + address) and written; the pushed source is
        // fully observed by the store — this is the edge that keeps
        // spill/requisition round trips live.
        use_gpr(s, Gpr::kRsp, ~std::uint64_t{0});
        use_operand(s, inst.ops[0]);
        return;
      case Op::kPop:
        kill_gpr(s, inst.ops[0].reg, 8);
        use_gpr(s, Gpr::kRsp, ~std::uint64_t{0});
        return;
      case Op::kAdd: case Op::kSub: case Op::kImul: case Op::kAnd:
      case Op::kOr: case Op::kXor: case Op::kShl: case Op::kSar:
      case Op::kIdiv: case Op::kIrem: {
        const int width = inst.ops[1].width;
        s.flags = 0;  // every ALU op replaces the whole flag set
        if (inst.ops[1].is_mem()) {
          use_mem(s, inst.ops[1].mem);
        } else {
          kill_gpr(s, inst.ops[1].reg, width);
          use_gpr(s, inst.ops[1].reg, width_mask(width));  // RMW read
        }
        use_operand(s, inst.ops[0]);
        return;
      }
      case Op::kCmp:
      case Op::kTest:
        s.flags = 0;
        use_operand(s, inst.ops[0]);
        use_operand(s, inst.ops[1]);
        return;
      case Op::kSetcc:
        if (inst.ops[0].is_mem()) {
          use_mem(s, inst.ops[0].mem);
        } else {
          kill_gpr(s, inst.ops[0].reg, 1);
        }
        s.flags |= cond_flags(inst.cc);
        return;
      case Op::kJcc:
        // s currently holds the fall-through liveness; join the taken
        // edge (an unresolved label traps: nothing live on that edge).
        if (e.target_in != nullptr) s.join(*e.target_in);
        s.flags |= cond_flags(inst.cc);
        return;
      case Op::kJmp:
        s = e.target_in != nullptr ? *e.target_in : BitState{};
        return;
      case Op::kCall: {
        if (e.callee == dataflow::kCalleePrintInt) {
          use_gpr(s, Gpr::kRdi, ~std::uint64_t{0});  // the full printed word
          return;
        }
        if (e.callee == dataflow::kCalleePrintF64) {
          use_xmm_lane(s, 0, 0);
          return;
        }
        if (e.callee < 0) {
          s = BitState{};  // unknown callee traps before any effect
          return;
        }
        const Summary& sum = *e.summary;
        BitState before = sum.l0;
        BitState pass = s;
        for (int r = 0; r < masm::kGprCount; ++r) {
          pass.gpr[r] &= sum.la.gpr[r];
          before.gpr[r] |= pass.gpr[r];
        }
        for (int x = 0; x < masm::kXmmCount; ++x) {
          for (int l = 0; l < 4; ++l) {
            pass.xmm[x][l] &= sum.la.xmm[x][l];
            before.xmm[x][l] |= pass.xmm[x][l];
          }
        }
        before.flags |= static_cast<std::uint8_t>(s.flags & sum.la.flags);
        use_gpr(before, Gpr::kRsp, ~std::uint64_t{0});  // return-address push
        s = before;
        return;
      }
      case Op::kRet:
        s = *e.exit;
        use_gpr(s, Gpr::kRsp, ~std::uint64_t{0});  // the pop
        return;
      case Op::kDetectTrap:
        s = BitState{};  // never returns
        return;
      case Op::kMovsd:
        if (inst.ops[1].is_xmm()) {
          s.xmm[inst.ops[1].xmm][0] = 0;
          use_scalar_src(s, inst.ops[0]);
        } else {
          use_mem(s, inst.ops[1].mem);
          use_xmm_lane(s, inst.ops[0].xmm, 0);
        }
        return;
      case Op::kAddsd: case Op::kSubsd: case Op::kMulsd: case Op::kDivsd:
        s.xmm[inst.ops[1].xmm][0] = 0;
        use_xmm_lane(s, inst.ops[1].xmm, 0);  // RMW read of the low lane
        use_scalar_src(s, inst.ops[0]);
        return;
      case Op::kSqrtsd:
        s.xmm[inst.ops[1].xmm][0] = 0;
        use_scalar_src(s, inst.ops[0]);
        return;
      case Op::kUcomisd:
        s.flags = 0;
        use_scalar_src(s, inst.ops[0]);
        use_xmm_lane(s, inst.ops[1].xmm, 0);
        return;
      case Op::kCvtsi2sd:
        s.xmm[inst.ops[1].xmm][0] = 0;
        use_operand(s, inst.ops[0]);
        return;
      case Op::kCvttsd2si:
        kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        use_xmm_lane(s, inst.ops[0].xmm, 0);
        return;
      case Op::kMovq:
        if (inst.ops[1].is_xmm()) {
          s.xmm[inst.ops[1].xmm][0] = 0;
          s.xmm[inst.ops[1].xmm][1] = 0;  // movq zeroes lane 1
          use_operand(s, inst.ops[0]);
        } else if (inst.ops[1].is_mem()) {
          use_mem(s, inst.ops[1].mem);
          use_xmm_lane(s, inst.ops[0].xmm, 0);
        } else {
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
          use_xmm_lane(s, inst.ops[0].xmm, 0);
        }
        return;
      case Op::kPinsrq: {
        const int lane = static_cast<int>(inst.ops[0].imm) & 1;
        s.xmm[inst.ops[2].xmm][lane] = 0;  // other lanes pass through
        use_operand(s, inst.ops[1]);
        return;
      }
      case Op::kVinserti128: {
        const int base = (static_cast<int>(inst.ops[0].imm) & 1) * 2;
        s.xmm[inst.ops[2].xmm][base] = 0;
        s.xmm[inst.ops[2].xmm][base + 1] = 0;
        use_xmm_lane(s, inst.ops[1].xmm, 0);
        use_xmm_lane(s, inst.ops[1].xmm, 1);
        return;
      }
      case Op::kVpxor: {
        const int active = inst.ops[0].ymm ? 4 : 2;
        for (int l = 0; l < 4; ++l) s.xmm[inst.ops[2].xmm][l] = 0;
        for (int l = 0; l < active; ++l) {
          use_xmm_lane(s, inst.ops[0].xmm, l);
          use_xmm_lane(s, inst.ops[1].xmm, l);
        }
        return;
      }
      case Op::kVptest: {
        const int active = inst.ops[0].ymm ? 4 : 2;
        s.flags = 0;
        for (int l = 0; l < active; ++l) {
          use_xmm_lane(s, inst.ops[0].xmm, l);
          use_xmm_lane(s, inst.ops[1].xmm, l);
        }
        return;
      }
    }
  }
};

// ------------------------------------------------- report construction --

class Analyzer {
 public:
  Analyzer(const AsmProgram& program, const AnalysisOptions& options)
      : prog_(program), opts_(options), df_(program, Liveness{}) {}

  /// Register-granular taint footprint used by the propagation-slice
  /// signatures (equivalence only — never feeds the dead masks).
  struct TaintSet {
    std::uint32_t gprs = 0;
    std::uint32_t xmms = 0;
    bool flags = false;
    bool empty() const { return gprs == 0 && xmms == 0 && !flags; }
  };

  /// What an instruction reads and what it writes.
  static std::pair<TaintSet, TaintSet> taint_of(const AsmInst& inst) {
    const masm::RegEffects eff = masm::effects_of(inst);
    TaintSet reads, writes;
    for (Gpr r : eff.gpr_reads) reads.gprs |= 1u << static_cast<int>(r);
    for (int x : eff.xmm_reads) reads.xmms |= 1u << x;
    reads.flags = eff.reads_flags;
    for (Gpr r : eff.gpr_writes) writes.gprs |= 1u << static_cast<int>(r);
    for (int x : eff.xmm_writes) writes.xmms |= 1u << x;
    writes.flags = eff.writes_flags;
    return {reads, writes};
  }

  /// Relative dataflow slice from the site to its first sync point
  /// (store / tainted branch / call / ret / detect), FastFlip-style. Two
  /// sites with the same slice corrupt the program through the same
  /// consumer chain and land in one class. Scoped to the block: a slice
  /// that survives to the block boundary is keyed on the residual taint.
  std::string slice_signature(int f, int b, int i,
                              const masm::StaticSiteInfo& info) const {
    const auto& insts = prog_.functions[static_cast<std::size_t>(f)]
                            .blocks[static_cast<std::size_t>(b)].insts;
    TaintSet taint;
    switch (info.kind) {
      case FaultSiteKind::kGprWrite:
        taint.gprs = 1u << static_cast<int>(info.reg);
        break;
      case FaultSiteKind::kXmmWrite:
        taint.xmms = 1u << info.xmm;
        break;
      case FaultSiteKind::kFlagsWrite:
        taint.flags = true;
        break;
      default:
        return "";  // store/branch sites are keyed per static site
    }
    std::ostringstream sig;
    constexpr int kMaxWalk = 48;
    constexpr int kMaxEvents = 12;
    int events = 0;
    int walked = 0;
    for (std::size_t j = static_cast<std::size_t>(i) + 1;
         j < insts.size() && walked < kMaxWalk && events < kMaxEvents;
         ++j, ++walked) {
      const AsmInst& inst = insts[j];
      const auto [reads, writes] = taint_of(inst);
      const bool tainted_read = (reads.gprs & taint.gprs) != 0 ||
                                (reads.xmms & taint.xmms) != 0 ||
                                (reads.flags && taint.flags);
      if (tainted_read) {
        sig << "+" << (j - static_cast<std::size_t>(i)) << ":"
            << masm::op_mnemonic(inst.op);
        ++events;
        const bool sync = inst.op == Op::kJcc || inst.op == Op::kCall ||
                          inst.op == Op::kRet ||
                          (inst.nops > 0 && inst.dst().is_mem()) ||
                          inst.op == Op::kPush;
        if (sync) {
          sig << "!";
          return sig.str();
        }
        taint.gprs |= writes.gprs;
        taint.xmms |= writes.xmms;
        taint.flags = taint.flags || writes.flags;
        sig << ";";
      } else {
        taint.gprs &= ~writes.gprs;
        taint.xmms &= ~writes.xmms;
        if (writes.flags) taint.flags = false;
        if (taint.empty()) {
          sig << "dies+" << (j - static_cast<std::size_t>(i));
          return sig.str();
        }
        if (inst.op == Op::kJmp || inst.op == Op::kRet ||
            inst.op == Op::kDetectTrap) {
          // Control leaves the block with live taint.
          sig << "leave+" << (j - static_cast<std::size_t>(i));
          return sig.str();
        }
      }
    }
    sig << "end:g" << std::hex << taint.gprs << ":x" << taint.xmms
        << (taint.flags ? ":F" : "");
    return sig.str();
  }

  PruneReport build_report() const {
    PruneReport report;
    report.store_data_sites = opts_.store_data_sites;
    const int nfuncs = static_cast<int>(prog_.functions.size());
    report.site_at_.resize(static_cast<std::size_t>(nfuncs));
    std::map<std::string, std::uint32_t> class_by_signature;

    for (int f = 0; f < nfuncs; ++f) {
      const AsmFunction& fn = prog_.functions[static_cast<std::size_t>(f)];
      const auto after = df_.after_states(f);
      auto& fn_index = report.site_at_[static_cast<std::size_t>(f)];
      fn_index.resize(fn.blocks.size());
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        const auto& insts = fn.blocks[b].insts;
        fn_index[b].assign(insts.size(), -1);
        for (std::size_t i = 0; i < insts.size(); ++i) {
          const AsmInst& inst = insts[i];
          const masm::StaticSiteInfo info = masm::static_site_of(
              inst, opts_.store_data_sites, masm::call_pushes_ret(prog_, inst));
          if (!info.has_site) continue;

          PruneSite site;
          site.function = f;
          site.block = static_cast<int>(b);
          site.inst = static_cast<int>(i);
          site.kind = info.kind;
          site.bit_space = info.bit_space;

          const BitState& live = after[b][i];
          switch (info.kind) {
            case FaultSiteKind::kGprWrite:
              // The flip lands on the merged 64-bit value, so deadness
              // is over all 64 bits of the destination — including the
              // preserved upper bits of a narrow write.
              site.dead_mask[0] = ~live.gpr[static_cast<int>(info.reg)];
              break;
            case FaultSiteKind::kXmmWrite:
              for (int l = 0; l < info.lane_count; ++l) {
                site.dead_mask[static_cast<std::size_t>(l)] =
                    ~live.xmm[info.xmm][info.lane_base + l];
              }
              break;
            case FaultSiteKind::kFlagsWrite:
              site.dead_mask[0] =
                  static_cast<std::uint64_t>(~live.flags & kAllFlags);
              break;
            case FaultSiteKind::kStoreData:
              // Memory is untracked: no store bit is ever claimed dead.
              break;
            case FaultSiteKind::kBranchDecision:
              // Flipping `taken` is invisible exactly when the taken
              // edge and the fall-through resolve to the same next pc:
              // the jcc ends its block and targets the next block.
              if (i + 1 == insts.size() &&
                  df_.target(f, b, i) == static_cast<int>(b) + 1) {
                site.dead_mask[0] = 1;
              }
              break;
          }

          int dead = site.dead_bits();
          report.dead_bits += static_cast<std::uint64_t>(dead);
          report.total_bits += static_cast<std::uint64_t>(site.bit_space);
          if (dead == site.bit_space) {
            site.class_id = kDeadClass;
            ++report.fully_dead_sites;
          } else {
            std::ostringstream key;
            key << masm::fault_site_kind_name(info.kind) << ":bs"
                << site.bit_space << ":dm" << std::hex << site.dead_mask[0]
                << "," << site.dead_mask[1] << "," << site.dead_mask[2]
                << "," << site.dead_mask[3] << std::dec << ":f" << f << ":b"
                << b;
            const std::string slice = slice_signature(
                f, static_cast<int>(b), static_cast<int>(i), info);
            if (slice.empty()) {
              key << ":i" << i;  // store/branch: one class per static site
            } else {
              key << ":" << slice;
            }
            auto [it, inserted] = class_by_signature.emplace(
                key.str(), static_cast<std::uint32_t>(report.classes.size()));
            site.class_id = it->second;
            if (inserted) {
              PruneClass cls;
              cls.id = it->second;
              cls.signature = it->first;
              cls.representative =
                  static_cast<std::uint32_t>(report.sites.size());
              report.classes.push_back(std::move(cls));
            }
            ++report.classes[it->second].static_members;
          }
          fn_index[b][i] = static_cast<std::int32_t>(report.sites.size());
          report.sites.push_back(site);
        }
      }
    }
    return report;
  }

 private:
  const AsmProgram& prog_;
  AnalysisOptions opts_;
  const dataflow::BackwardDataflow<Liveness> df_;
};

}  // namespace

PruneReport prune_program(const AsmProgram& program,
                          const AnalysisOptions& options) {
  return Analyzer(program, options).build_report();
}

telemetry::Json to_json(const PruneReport& report,
                        const AsmProgram& program) {
  telemetry::Json summary = telemetry::Json::object();
  summary["sites"] = static_cast<std::uint64_t>(report.sites.size());
  summary["classes"] = static_cast<std::uint64_t>(report.classes.size());
  summary["fully_dead_sites"] = report.fully_dead_sites;
  summary["dead_bits"] = report.dead_bits;
  summary["total_bits"] = report.total_bits;
  summary["dead_fraction"] = report.dead_fraction();
  summary["store_data_sites"] = report.store_data_sites;
  telemetry::Json root = telemetry::Json::object();
  root["summary"] = std::move(summary);

  telemetry::Json classes = telemetry::Json::array();
  classes.reserve(report.classes.size());
  for (const PruneClass& cls : report.classes) {
    // Rows insert their keys in sorted order, so each insert appends.
    telemetry::Json entry = telemetry::Json::object();
    entry.reserve(4);
    entry["id"] = static_cast<std::uint64_t>(cls.id);
    entry["representative"] = static_cast<std::uint64_t>(cls.representative);
    entry["signature"] = cls.signature;
    entry["static_members"] = static_cast<std::uint64_t>(cls.static_members);
    classes.push_back(std::move(entry));
  }
  root["classes"] = std::move(classes);

  telemetry::Json sites = telemetry::Json::array();
  sites.reserve(report.sites.size());
  for (const PruneSite& site : report.sites) {
    telemetry::Json entry = telemetry::Json::object();
    entry.reserve(8);
    entry["bit_space"] = static_cast<std::int64_t>(site.bit_space);
    entry["block"] = static_cast<std::int64_t>(site.block);
    if (site.fully_dead()) {
      entry["class"] = "dead";
    } else {
      entry["class"] = static_cast<std::uint64_t>(site.class_id);
    }
    entry["dead_bits"] = static_cast<std::int64_t>(site.dead_bits());
    telemetry::Json mask = telemetry::Json::array();
    const int words = (site.bit_space + 63) / 64;
    mask.reserve(static_cast<std::size_t>(words));
    for (int w = 0; w < words; ++w) {
      mask.push_back(site.dead_mask[static_cast<std::size_t>(w)]);
    }
    entry["dead_mask"] = std::move(mask);
    entry["function"] =
        program.functions[static_cast<std::size_t>(site.function)].name;
    entry["inst"] = static_cast<std::int64_t>(site.inst);
    entry["kind"] = masm::fault_site_kind_name(site.kind);
    sites.push_back(std::move(entry));
  }
  root["sites"] = std::move(sites);
  return root;
}

}  // namespace ferrum::check::prune
