#include "check/check.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "masm/cfg.h"

namespace ferrum::check {

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kStaleCheck: return "stale-check";
    case ViolationKind::kUnguardedDetect: return "unguarded-detect";
    case ViolationKind::kDanglingCheck: return "dangling-check";
    case ViolationKind::kInvalidEdgeAssert: return "invalid-edge-assert";
    case ViolationKind::kSharedProducer: return "shared-producer";
    case ViolationKind::kRequisitionImbalance:
      return "requisition-imbalance";
    case ViolationKind::kRequisitionClobber: return "requisition-clobber";
    case ViolationKind::kRequisitionAcrossCall:
      return "requisition-across-call";
    case ViolationKind::kStackImbalance: return "stack-imbalance";
    case ViolationKind::kUninitSlotRead: return "uninit-slot-read";
    case ViolationKind::kStrayProtectionJump:
      return "stray-protection-jump";
    case ViolationKind::kTrampolineFallthrough:
      return "trampoline-fallthrough";
  }
  return "?";
}

std::string to_string(const Violation& violation) {
  std::ostringstream os;
  os << violation.function << "/b" << violation.block << "#"
     << violation.inst << ": " << violation_kind_name(violation.kind)
     << ": " << violation.message;
  return os.str();
}

const char* site_kind_name(SiteKind kind) {
  return masm::fault_site_kind_name(kind);
}

const char* site_status_name(SiteStatus status) {
  switch (status) {
    case SiteStatus::kProtected: return "protected";
    case SiteStatus::kBenign: return "benign";
    case SiteStatus::kUnprotected: return "unprotected";
  }
  return "?";
}

namespace {

using masm::AsmBlock;
using masm::AsmFunction;
using masm::AsmInst;
using masm::AsmProgram;
using masm::Cond;
using masm::Gpr;
using masm::InstOrigin;
using masm::LiveSet;
using masm::MemRef;
using masm::Op;
using masm::Operand;

// ------------------------------------------------------- value numbering --

using Vn = std::uint64_t;

// Structural tags for interned value numbers. Two abstract values are
// "provably equal on every fault-free execution" exactly when they intern
// to the same Vn.
enum Tag : std::uint64_t {
  kTagConst = 1,   // (value)
  kTagEntryGpr,    // (reg)
  kTagEntryXmm,    // (xmm, lane)
  kTagEntryFlags,  // ()
  kTagStackAddr,   // (offset from entry rsp)
  kTagAddr,        // (base vn, index vn, scale, disp)
  kTagGlobalAddr,  // (global id, disp)
  kTagOp,          // (op, a, b, width)
  kTagFlagsCmp,    // (op, a, b, width)
  kTagFlagsAlu,    // (result vn)
  kTagSetcc,       // (cc, flags vn)
  kTagLoad,        // (addr vn, width, epoch)
  kTagCallRet,     // (inst id, loc)
  kTagPhi,         // (block, loc, sub)
  kTagMerge,       // (old vn, byte vn)
  kTagView,        // (width, vn)
  kTagZext,        // (vn) -- 32->64 implicit zero extension
};

/// Interns 5-word keys. Ids are handed out in first-make order from
/// kFirstVn, so a key's id is kFirstVn + its index in keys_; the phi ids
/// and the vn order of `facts` and `cells` depend on that numbering.
class VnTable {
 public:
  using Key = std::array<std::uint64_t, 5>;

  Vn make(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
          std::uint64_t d = 0, std::uint64_t e = 0) {
    const Key key{a, b, c, d, e};
    if (2 * (keys_.size() + 1) > index_.size()) rehash(2 * index_.size());
    std::uint32_t& slot = slot_of(key);
    if (slot == 0) {
      keys_.push_back(key);
      slot = static_cast<std::uint32_t>(keys_.size());
    }
    return kFirstVn + slot - 1;
  }

  Vn const_vn(std::uint64_t value) { return make(kTagConst, value); }

  bool const_of(Vn vn, std::uint64_t* value) const {
    const Key* key = key_of(vn);
    if (key == nullptr || (*key)[0] != kTagConst) return false;
    *value = (*key)[1];
    return true;
  }

  Vn const0() { return const_vn(0); }

  /// Low-`width` view of `vn` (folds constants). Views are canonical:
  /// they see through value-preserving wrappers so the same value keeps
  /// the same narrow vn whether it was held in a register or round-
  /// tripped through a wider spill slot. `view(zext32(s), 4) == s`
  /// mirrors written_val's 32-bit-write encoding (vn4 = s verbatim),
  /// `view(merge(old, b), 1) == b` mirrors its byte-write encoding
  /// (vn1 = b verbatim), and a narrower view of a view unwraps — an
  /// EDDI master spilled at width 8 then reread at width 4 would
  /// otherwise stop matching its never-spilled duplicate.
  Vn view(Vn vn, int width) {
    if (width >= 8) return vn;
    std::uint64_t c = 0;
    if (const_of(vn, &c)) {
      const std::uint64_t mask =
          width == 4 ? 0xffff'ffffULL : 0xffULL;
      return const_vn(c & mask);
    }
    if (const Key* found = key_of(vn)) {
      const Key& key = *found;
      if (key[0] == kTagZext) {
        return width == 4 ? static_cast<Vn>(key[1])
                          : view(static_cast<Vn>(key[1]), width);
      }
      if (key[0] == kTagView && width <= static_cast<int>(key[1])) {
        return width == static_cast<int>(key[1])
                   ? vn
                   : view(static_cast<Vn>(key[2]), width);
      }
      if (key[0] == kTagMerge && width == 1) return static_cast<Vn>(key[2]);
    }
    return make(kTagView, static_cast<std::uint64_t>(width), vn);
  }

  Vn zext32(Vn vn) {
    std::uint64_t c = 0;
    if (const_of(vn, &c)) return const_vn(c & 0xffff'ffffULL);
    return make(kTagZext, vn);
  }

 private:
  static constexpr Vn kFirstVn = 16;

  const Key* key_of(Vn vn) const {
    return vn >= kFirstVn && vn - kFirstVn < keys_.size()
               ? &keys_[vn - kFirstVn]
               : nullptr;
  }

  static std::size_t hash(const Key& key) {
    std::uint64_t h = 0;
    for (const std::uint64_t word : key)
      h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ h >> 31);
  }

  // Open addressing with linear probing; a slot holds 1 + a keys_ index,
  // or 0 where no key is. The slot holding key, or the free one it takes.
  std::uint32_t& slot_of(const Key& key) {
    const std::size_t mask = index_.size() - 1;
    std::size_t s = hash(key) & mask;
    while (index_[s] != 0 && keys_[index_[s] - 1] != key) s = (s + 1) & mask;
    return index_[s];
  }

  void rehash(std::size_t size) {
    index_.assign(std::max<std::size_t>(size, 64), 0);
    for (std::size_t k = 0; k < keys_.size(); ++k)
      slot_of(keys_[k]) = static_cast<std::uint32_t>(k + 1);
  }

  std::vector<Key> keys_;
  std::vector<std::uint32_t> index_;
};

// ------------------------------------------------------------- obligations --

// Exactness of a taint: how faithfully a location mirrors the fault site's
// written value. 1/4/8 = that many low bytes are a bit-exact copy; 0 =
// derived (corruption maps unpredictably); kExactCc = the location is the
// 0/1 materialisation of a flags site under one condition code; kExactFlags
// = the flags location itself still holds the site's flags.
constexpr std::uint8_t kExactCc = 9;
constexpr std::uint8_t kExactFlags = 10;

struct Taint {
  int ob = -1;
  std::uint8_t exact = 0;
  std::uint8_t lane = 0;  // xmm: site-local lane; cc-exact: the Cond code
};
using Taints = std::vector<Taint>;

/// Adds t, or lowers the exactness of the taint with t's ob and lane.
void add_taint(Taints& ts, Taint t) {
  if (t.ob < 0) return;
  for (Taint& u : ts) {
    if (u.ob == t.ob && u.lane == t.lane) {
      u.exact = std::min(u.exact, t.exact);
      return;
    }
  }
  ts.push_back(t);
}

enum class ObKind { kGpr, kXmm, kFlags, kStore, kBranch };

struct Ob {
  int block = 0;
  int inst = 0;
  ObKind kind = ObKind::kGpr;
  Op op = Op::kMov;
  InstOrigin origin = InstOrigin::kFromIR;
  std::string operand;
  SiteKind site = SiteKind::kGprWrite;
  int store_size = 8;
  int checked = 0;  // low bytes of the written value observed by a check
  std::uint8_t lanes_written = 0;
  std::uint8_t lanes_checked = 0;
  bool escaped = false;
  std::string note;
  bool control_read = false;
  bool live_out = false;
  bool pending_cluster = false;
  bool protected_override = false;
  std::string override_note;
  std::set<int> reader_ccs;
  int discharge_cc = -1;
  bool cc_conflict = false;
};

struct Discharge {
  int ob = -1;
  std::uint8_t exact = 0;
  std::uint8_t lane = 0;
};

// ---------------------------------------------------------- abstract state --

constexpr int kNoWriter = -1;
constexpr int kJoinWriter = -2;

struct Val {
  Vn vn = 0;   // 64-bit view
  Vn vn4 = 0;  // low-32 view
  Vn vn1 = 0;  // low-8 view
  int writer = kNoWriter;
  int flags_writer = kNoWriter;  // producer of flags at setcc time
  bool has_off = false;          // rsp/rbp-derived stack address
  std::int64_t off = 0;          // offset from entry rsp
  Taints taints;
};

struct SlotVal {
  Val val;
  int width = 8;
};

struct ReqEntry {
  Gpr victim = Gpr::kNone;
  std::int64_t slot_off = 0;
  bool operator==(const ReqEntry&) const = default;
};

/// A map kept as a vector sorted by key. Key order fixes the order in
/// which joins and escapes visit entries; a copy allocates once, not per
/// entry.
template <typename K, typename V>
struct FlatMap : std::vector<std::pair<K, V>> {
  auto find(const K& key) const {
    const auto it = std::lower_bound(this->begin(), this->end(), key, before);
    return it != this->end() && it->first == key ? it : this->end();
  }
  V& operator[](const K& key) {
    auto it = std::lower_bound(this->begin(), this->end(), key, before);
    if (it == this->end() || it->first != key)
      it = this->insert(it, {key, V{}});
    return it->second;
  }
  /// Drops the entries `keep` rejects, asking about each in key order;
  /// returns whether any was dropped.
  template <typename Keep>
  bool retain(Keep keep) {
    auto out = this->begin();
    for (auto it = this->begin(); it != this->end(); ++it)
      if (keep(*it) && out++ != it) out[-1] = std::move(*it);
    const bool dropped = out != this->end();
    this->erase(out, this->end());
    return dropped;
  }
  static bool before(const std::pair<K, V>& entry, const K& key) {
    return entry.first < key;
  }
};

struct AbsState {
  bool reachable = false;
  std::array<Val, masm::kGprCount> gpr;
  std::array<std::array<Val, 4>, masm::kXmmCount> xmm;
  Val flags;
  FlatMap<std::int64_t, SlotVal> slots;        // entry-rsp-relative
  FlatMap<std::pair<int, Vn>, SlotVal> cells;  // (global id, addr vn)
  FlatMap<std::pair<int, Vn>, int> facts;      // (cc, vn) -> 0/1
  std::vector<ReqEntry> req;
  std::int64_t rsp_off = 0;
  bool rsp_known = true;
};

bool same_val(const Val& a, const Val& b) {
  return a.vn == b.vn && a.vn4 == b.vn4 && a.vn1 == b.vn1 &&
         a.writer == b.writer && a.flags_writer == b.flags_writer &&
         a.has_off == b.has_off && a.off == b.off;
}

/// Structural equality of the pieces the fixpoint tracks (taints are
/// record-pass-only and deliberately excluded).
bool same_state(const AbsState& a, const AbsState& b) {
  if (a.reachable != b.reachable) return false;
  for (int r = 0; r < masm::kGprCount; ++r)
    if (!same_val(a.gpr[r], b.gpr[r])) return false;
  for (int x = 0; x < masm::kXmmCount; ++x)
    for (int l = 0; l < 4; ++l)
      if (!same_val(a.xmm[x][l], b.xmm[x][l])) return false;
  if (!same_val(a.flags, b.flags)) return false;
  const auto same_entry = [](const auto& x, const auto& y) {
    return x.first == y.first && x.second.width == y.second.width &&
           same_val(x.second.val, y.second.val);
  };
  if (!std::equal(a.slots.begin(), a.slots.end(), b.slots.begin(),
                  b.slots.end(), same_entry) ||
      !std::equal(a.cells.begin(), a.cells.end(), b.cells.begin(),
                  b.cells.end(), same_entry) ||
      a.facts != b.facts)
    return false;
  return a.req == b.req && a.rsp_off == b.rsp_off &&
         a.rsp_known == b.rsp_known;
}

int gi(Gpr reg) { return static_cast<int>(reg); }

const char* kGprNames[] = {"rax", "rcx", "rdx", "rbx", "rsp", "rbp",
                           "rsi", "rdi", "r8",  "r9",  "r10", "r11",
                           "r12", "r13", "r14", "r15"};

constexpr int kByteFactCc = 100;  // pseudo condition: "this i1 byte is 1"

// --------------------------------------------------------------- checker --

// A pending check candidate: the flag-producing (or xor) instruction whose
// verdict the next `jne detect` consumes. Stale candidates expire because
// application requires `id == jcc_id - 1`.
struct Candidate {
  int id = -3;
  bool valid = false;
  bool shared_producer = false;
  bool edge_assert = false;
  Vn assert_vn1 = 0;
  std::vector<Discharge> dis;
  int own_flags_ob = -1;
  std::string fail;
};

// One captured branch-condition byte at a protected branch: the setcc
// materialisation parked in a spare flag register or a frame slot.
struct Cap {
  Vn vn1 = 0;
  int flags_writer = kNoWriter;
  bool prot = false;  // capture written by a kProtection instruction
  std::vector<Discharge> obs;
};

struct Cluster {
  int block = 0;
  int inst = 0;
  int jcc_ob = -1;
  int cc = 0;
  int taken = -1;
  int fall = -1;
  std::vector<Cap> caps;
};

class FunctionChecker {
 public:
  FunctionChecker(const masm::AsmProgram& program, const AsmFunction& fn,
                  const AnalysisOptions& options, CheckReport* report)
      : prog_(program), fn_(fn), opts_(options), report_(report), live_(fn) {}

  void run();

 private:
  // ---- value / taint plumbing ----

  Vn vn_at(const Val& v, int w) const {
    return w >= 8 ? v.vn : (w == 4 ? v.vn4 : v.vn1);
  }

  Val written_val(const Val& old, Vn s, int w, int writer) {
    Val v;
    v.writer = writer;
    if (w >= 8) {
      v.vn = s;
      v.vn4 = vt_.view(s, 4);
      v.vn1 = vt_.view(s, 1);
    } else if (w == 4) {
      v.vn = vt_.zext32(s);  // 32-bit writes zero-extend
      v.vn4 = s;
      v.vn1 = vt_.view(s, 1);
    } else {
      v.vn1 = s;
      if (old.vn1 == s && old.vn != 0) {  // byte rewrite with same value
        v.vn = old.vn;
        v.vn4 = old.vn4;
      } else {
        v.vn = vt_.make(kTagMerge, old.vn, s);
        v.vn4 = vt_.make(kTagMerge, old.vn4, s);
      }
    }
    return v;
  }

  static std::uint8_t clamp_exact(std::uint8_t exact, int w) {
    if (exact == 0 || exact == kExactCc) return exact;
    if (exact == kExactFlags) return 0;  // flags never copied as a value
    return static_cast<std::uint8_t>(std::min<int>(exact, w));
  }

  bool uncovered(const Taint& t, int w) const {
    const Ob& ob = obs_[t.ob];
    if (ob.kind == ObKind::kXmm)
      return (ob.lanes_checked >> t.lane & 1) == 0;
    if (t.exact >= kExactCc) return ob.checked < 8;
    const int need = t.exact == 0 ? 8 : std::min<int>(t.exact, w);
    return ob.checked < need;
  }

  /// Taints visible to a `w`-byte read: covered ones dropped, exactness
  /// clamped to the read width. A non-xmm taint with `lane != 0` is a
  /// *merge remnant*: the VM flips the merged 64-bit register value, so a
  /// narrow write can corrupt the preserved bytes above it — visible only
  /// to reads wider than the written width and never discharged by a
  /// same-width check.
  Taints reach(const Taints& ts, int w) const {
    Taints out;
    for (const Taint& t : ts) {
      if (t.exact == 0 && t.lane != 0 && obs_[t.ob].kind != ObKind::kXmm &&
          w <= t.lane)
        continue;
      if (!uncovered(t, w)) continue;
      add_taint(out, Taint{t.ob, clamp_exact(t.exact, w), t.lane});
    }
    return out;
  }

  Taints derived(std::initializer_list<const Taints*> sources) const {
    Taints out;
    for (const Taints* ts : sources)
      for (const Taint& t : *ts)
        add_taint(out, Taint{t.ob, 0,
                             obs_[t.ob].kind == ObKind::kXmm
                                 ? t.lane
                                 : std::uint8_t{0}});
    return out;
  }

  // ---- obligations ----

  int new_ob(int b, int i, const AsmInst& inst, ObKind kind, SiteKind site,
             std::string operand, int store_size = 8,
             std::uint8_t lanes_written = 1) {
    if (!record_) return -1;
    Ob ob;
    ob.block = b;
    ob.inst = i;
    ob.kind = kind;
    ob.op = inst.op;
    ob.origin = inst.origin;
    ob.operand = std::move(operand);
    ob.site = site;
    ob.store_size = store_size;
    ob.lanes_written = lanes_written;
    obs_.push_back(std::move(ob));
    return static_cast<int>(obs_.size()) - 1;
  }

  void escape(const Taints& ts, int w, const char* note) {
    for (const Taint& t : ts) {
      if (!uncovered(t, w)) continue;
      Ob& ob = obs_[t.ob];
      if (ob.pending_cluster || ob.escaped) continue;
      ob.escaped = true;
      ob.note = note;
    }
  }

  void violate(ViolationKind kind, int b, int i, std::string msg) {
    if (!violation_seen_
             .emplace(static_cast<int>(kind), b * 10000 + i)
             .second)
      return;
    Violation v;
    v.kind = kind;
    v.function = fn_.name;
    v.block = b;
    v.inst = i;
    v.message = std::move(msg);
    report_->violations.push_back(std::move(v));
  }

  // ---- register / memory access ----

  /// A write of rsp: its offset from entry rsp, when known.
  static void set_rsp_off(AbsState& st, bool known, std::int64_t off) {
    st.rsp_known = known;
    if (known) st.rsp_off = off;
  }

  struct RV {
    Vn vn = 0;
    // Low-byte view of the value carried alongside a wide (w >= 4) read.
    // A setcc result spilled and reloaded at word width would otherwise
    // lose its byte identity (the reload's view vn differs from the
    // original setcc vn), breaking edge-assert validation of trampolines
    // that test the reloaded condition byte. 0 = no byte view known.
    Vn vn1 = 0;
    Taints taints;
    int writer = kNoWriter;
    int flags_writer = kNoWriter;
    bool has_off = false;
    std::int64_t off = 0;
  };

  RV read_gpr(const AbsState& st, Gpr reg, int w) const {
    const Val& v = st.gpr[gi(reg)];
    RV r;
    r.vn = vn_at(v, w);
    if (w >= 4) r.vn1 = v.vn1;
    r.taints = reach(v.taints, w);
    r.writer = v.writer;
    r.flags_writer = v.flags_writer;
    r.has_off = v.has_off && w == 8;
    r.off = v.off;
    return r;
  }

  void write_gpr(AbsState& st, Gpr reg, int w, Vn s, Taints ts, int writer,
                 int flags_writer = kNoWriter, bool has_off = false,
                 std::int64_t off = 0) {
    Val& old = st.gpr[gi(reg)];
    Val v = written_val(old, s, w, writer);
    v.flags_writer = w == 1 ? flags_writer : kNoWriter;
    v.has_off = has_off;
    v.off = off;
    if (w == 1) {
      // Byte writes merge: bits 8..63 of the old value survive.
      v.taints = reach(old.taints, 8);
      for (const Taint& t : ts) add_taint(v.taints, t);
    } else {
      v.taints = std::move(ts);
    }
    old = std::move(v);
  }

  RV read_xmm_lane(const AbsState& st, int x, int lane) const {
    const Val& v = st.xmm[x][lane];
    RV r;
    r.vn = v.vn;
    r.taints = reach(v.taints, 8);
    r.writer = v.writer;
    return r;
  }

  void write_xmm_lane(AbsState& st, int x, int lane, Vn s, Taints ts,
                      int writer) {
    Val v = written_val(Val{}, s, 8, writer);
    v.taints = std::move(ts);
    st.xmm[x][lane] = std::move(v);
  }

  struct Addr {
    bool is_slot = false;
    std::int64_t off = 0;
    int gid = -1;
    Vn vn = 0;
    Taints taints;  // derived taints of the address registers
  };

  Addr resolve_addr(const AbsState& st, const MemRef& m) {
    Addr a;
    RV base, index;
    Vn base_vn = 0, index_vn = 0;
    if (m.base != Gpr::kNone) {
      base = read_gpr(st, m.base, 8);
      base_vn = base.vn;
    }
    if (m.index != Gpr::kNone) {
      index = read_gpr(st, m.index, 8);
      index_vn = index.vn;
    }
    a.taints = derived({&base.taints, &index.taints});
    a.gid = m.global_id;
    if (m.global_id >= 0) {
      a.vn = vt_.make(kTagGlobalAddr, static_cast<std::uint64_t>(m.global_id),
                      static_cast<std::uint64_t>(m.disp), base_vn, index_vn);
      return a;
    }
    if (base.has_off && m.index == Gpr::kNone) {
      a.is_slot = true;
      a.off = base.off + m.disp;
      a.vn = vt_.make(kTagStackAddr, static_cast<std::uint64_t>(a.off));
      return a;
    }
    a.vn = vt_.make(kTagAddr, base_vn, index_vn,
                    static_cast<std::uint64_t>(m.scale),
                    static_cast<std::uint64_t>(m.disp));
    return a;
  }

  RV load_mem(AbsState& st, const MemRef& m, int w, int b, int i,
              const AsmInst& inst) {
    Addr a = resolve_addr(st, m);
    RV r;
    if (a.is_slot) {
      auto it = st.slots.find(a.off);
      if (it != st.slots.end() && it->second.width >= w) {
        const Val& v = it->second.val;
        r.vn = vn_at(v, w);
        if (w >= 4) r.vn1 = v.vn1;
        r.taints = reach(v.taints, w);
        r.writer = v.writer;
        r.flags_writer = v.flags_writer;
      } else {
        if (it == st.slots.end() && record_ &&
            inst.origin == InstOrigin::kProtection) {
          violate(ViolationKind::kUninitSlotRead, b, i,
                  "protection load from slot never written on this path");
        }
        r.vn = fresh_load(b, a.vn, w);
        r.writer = kNoWriter;
        if (it != st.slots.end()) r.taints = reach(it->second.val.taints, 8);
      }
    } else {
      auto it = st.cells.find({a.gid, a.vn});
      if (it != st.cells.end() && it->second.width >= w) {
        const Val& v = it->second.val;
        r.vn = vn_at(v, w);
        if (w >= 4) r.vn1 = v.vn1;
        r.taints = reach(v.taints, w);
        r.writer = v.writer;
        r.flags_writer = v.flags_writer;
      } else {
        r.vn = fresh_load(b, a.vn, w);
      }
    }
    for (const Taint& t : a.taints) add_taint(r.taints, t);
    return r;
  }

  Vn fresh_load(int b, Vn addr_vn, int w) {
    // Epoch is block-local so duplicate loads inside one block VN-match
    // (EDDI load duplication, the SIMD direct-load fast path) while loads
    // in different blocks never unify across unseen stores.
    return vt_.make(kTagLoad, addr_vn, static_cast<std::uint64_t>(w),
                    static_cast<std::uint64_t>(b) << 16 | epoch_);
  }

  /// Writes a w-byte frame slot, dropping the slots it overlaps.
  static void put_slot(AbsState& st, std::int64_t lo, int w, Val v) {
    std::erase_if(st.slots, [&](const auto& slot) {
      return slot.first != lo && slot.first < lo + w &&
             slot.first + slot.second.width > lo;
    });
    st.slots[lo] = SlotVal{std::move(v), w};
  }

  void store_mem(AbsState& st, const MemRef& m, int w, Val v) {
    Addr a = resolve_addr(st, m);
    escape(a.taints, 8, "computes a store address");
    if (a.is_slot) {
      put_slot(st, a.off, w, std::move(v));
      return;
    }
    if (a.gid >= 0) {
      // Distinct globals never alias; same-global cells with a different
      // address vn and unknown-address cells (gid -1, which may point into
      // this global) may.
      std::erase_if(st.cells, [&](const auto& cell) {
        const auto [gid, vn] = cell.first;
        return (gid == a.gid && vn != a.vn) || gid == -1;
      });
      st.cells[{a.gid, a.vn}] = SlotVal{std::move(v), w};
      return;
    }
    // Untracked address: clear every cell it may alias, then remember this
    // one exact-vn cell so an immediate load-back verification (the
    // protect_store_data re-check) still sees the stored value. Frame
    // slots are deliberately kept — the backend only addresses the frame
    // through rsp/rbp, which resolve_addr always classifies as slots.
    st.cells.clear();
    ++epoch_;
    st.cells[{-1, a.vn}] = SlotVal{std::move(v), w};
  }

  // ---- flags ----

  void write_flags(AbsState& st, Vn vnf, int writer, Taints ts, int b,
                   int /*i*/) {
    if (pending_check_ >= 0 && record_) {
      violate(ViolationKind::kDanglingCheck, b, pending_check_,
              "check result overwritten before any detect branch reads it");
    }
    pending_check_ = -1;
    Val v;
    v.vn = v.vn4 = v.vn1 = vnf;
    v.writer = writer;
    v.taints = std::move(ts);
    st.flags = std::move(v);
  }

  /// Bookkeeping for a flags read under condition `cc` (jcc or setcc).
  /// Returns the cc-exact taints a setcc materialisation inherits.
  Taints mark_flags_read(AbsState& st, int cc, bool suppress_control,
                         bool pending_ok) {
    Taints cc_taints;
    for (const Taint& t : st.flags.taints) {
      if (t.ob < 0) continue;
      Ob& ob = obs_[t.ob];
      if (t.exact == kExactFlags) {
        ob.reader_ccs.insert(cc);
        if (!uncovered(t, 8)) {
          if (ob.discharge_cc >= 0 && ob.discharge_cc != cc)
            ob.cc_conflict = true;
          continue;
        }
        add_taint(cc_taints, Taint{t.ob, kExactCc,
                                   static_cast<std::uint8_t>(cc)});
        if (!suppress_control && !(pending_ok && ob.pending_cluster))
          ob.control_read = true;
      } else {
        if (!uncovered(t, 8)) continue;
        add_taint(cc_taints, Taint{t.ob, 0, t.lane});
        if (!suppress_control && !(pending_ok && ob.pending_cluster))
          ob.control_read = true;
      }
    }
    pending_check_ = -1;
    return cc_taints;
  }

  /// Whether branch `cc` on flags `flags_vn` was taken, and so whether a
  /// byte that `test $1` read for those flags is 1.
  void set_branch_facts(AbsState& st, int cc, Vn flags_vn, int taken) const {
    st.facts[{cc, flags_vn}] = taken;
    if (const auto tb = test_byte_.find(flags_vn); tb != test_byte_.end())
      st.facts[{kByteFactCc, tb->second}] = taken;
  }

  // ---- joins ----

  Vn phi(int block, int loc, int sub) {
    return vt_.make(kTagPhi, static_cast<std::uint64_t>(block),
                    static_cast<std::uint64_t>(loc),
                    static_cast<std::uint64_t>(sub));
  }

  bool join_val(Val& d, const Val& s, int block, int loc) {
    if (same_val(d, s)) return false;
    Val j;
    j.vn = d.vn == s.vn ? d.vn : phi(block, loc, 0);
    j.vn4 = d.vn4 == s.vn4 ? d.vn4 : phi(block, loc, 1);
    j.vn1 = d.vn1 == s.vn1 ? d.vn1 : phi(block, loc, 2);
    j.writer = d.writer == s.writer ? d.writer : kJoinWriter;
    j.flags_writer =
        d.flags_writer == s.flags_writer ? d.flags_writer : kJoinWriter;
    if (d.has_off && s.has_off && d.off == s.off) {
      j.has_off = true;
      j.off = d.off;
      j.vn = d.vn;  // stack addresses join to themselves
    }
    const bool changed = !same_val(j, d);
    j.taints = d.taints;
    d = std::move(j);
    return changed;
  }

  bool join_into(AbsState& dst, const AbsState& src, int block) {
    if (!dst.reachable) {
      dst = src;
      return true;
    }
    bool changed = false;
    for (int r = 0; r < masm::kGprCount; ++r)
      changed |= join_val(dst.gpr[r], src.gpr[r], block, r);
    for (int x = 0; x < masm::kXmmCount; ++x)
      for (int l = 0; l < 4; ++l)
        changed |= join_val(dst.xmm[x][l], src.xmm[x][l], block,
                            100 + x * 4 + l);
    changed |= join_val(dst.flags, src.flags, block, 99);
    // Slots: keep keys present in both with matching width.
    const bool slots_dropped = dst.slots.retain([&](auto& slot) {
      const auto sit = src.slots.find(slot.first);
      if (sit == src.slots.end() || sit->second.width != slot.second.width)
        return false;
      changed |= join_val(slot.second.val, sit->second.val, block,
                          200 + static_cast<int>(slot.first & 0xffff));
      return true;
    });
    const bool cells_dropped = dst.cells.retain([&](const auto& cell) {
      const auto sit = src.cells.find(cell.first);
      return sit != src.cells.end() &&
             same_val(sit->second.val, cell.second.val);
    });
    const bool facts_dropped = dst.facts.retain([&](const auto& fact) {
      const auto sit = src.facts.find(fact.first);
      return sit != src.facts.end() && sit->second == fact.second;
    });
    changed |= slots_dropped || cells_dropped || facts_dropped;
    if (dst.req != src.req)
      violate(ViolationKind::kStackImbalance, block, 0,
              "requisition stacks disagree between joined paths");
    if (dst.rsp_known && src.rsp_known && dst.rsp_off != src.rsp_off) {
      violate(ViolationKind::kStackImbalance, block, 0,
              "stack depth disagrees between joined paths");
      dst.rsp_known = false;
      changed = true;
    }
    return changed;
  }

  AbsState entry_state() {
    AbsState st;
    st.reachable = true;
    for (int r = 0; r < masm::kGprCount; ++r) {
      st.gpr[r] = written_val(
          Val{}, vt_.make(kTagEntryGpr, static_cast<std::uint64_t>(r)), 8,
          kNoWriter);
    }
    st.gpr[gi(Gpr::kRsp)].has_off = true;
    st.gpr[gi(Gpr::kRsp)].off = 0;
    st.gpr[gi(Gpr::kRsp)].vn = vt_.make(kTagStackAddr, 0);
    for (int x = 0; x < masm::kXmmCount; ++x)
      for (int l = 0; l < 4; ++l)
        st.xmm[x][l] = written_val(
            Val{},
            vt_.make(kTagEntryXmm, static_cast<std::uint64_t>(x),
                     static_cast<std::uint64_t>(l)),
            8, kNoWriter);
    st.flags.vn = st.flags.vn4 = st.flags.vn1 = vt_.make(kTagEntryFlags);
    return st;
  }

  // ---- members ----

  const masm::AsmProgram& prog_;
  const AsmFunction& fn_;
  const AnalysisOptions& opts_;
  CheckReport* report_;
  masm::Liveness live_;
  VnTable vt_;

  std::vector<Ob> obs_;
  std::vector<int> block_first_id_;
  std::vector<std::vector<int>> target_;  // [block][inst] jcc/jmp target
  std::vector<char> is_detect_;
  // Fixpoint: per successor block, the out-state of each incoming edge
  // keyed by predecessor (the entry edge's is -1).
  std::vector<std::map<int, AbsState>> incoming_;
  std::set<int> dirty_;
  std::set<int> touched_;  // successors already sent to by this block walk
  std::set<std::pair<int, int>> violation_seen_;
  std::map<Vn, std::pair<int, Vn>> setcc_info_;  // setcc vn -> (cc, flags vn)
  std::map<Vn, Vn> test_byte_;   // `test $1, byte` flags vn -> byte vn
  std::map<int, std::vector<Discharge>> vpxor_info_;  // inst id -> lane diffs
  std::map<int, std::set<Vn>> asserts_;  // block -> edge-asserted byte vns
  std::vector<Cluster> clusters_;

  bool record_ = false;
  std::uint64_t epoch_ = 0;
  int pending_check_ = -1;  // inst index of an unconsumed check producer
  Candidate cand_;

  AbsState in_state(int b);
  void exec_block(int b, AbsState& st);
  void propagate(int from, int succ, AbsState&& out);
  void transfer(int b, int i, const AsmInst& inst, AbsState& st,
                bool& terminated, bool& skip_next_jmp);
  void exec_alu(int b, int i, const AsmInst& inst, AbsState& st);
  void exec_call(int b, int i, const AsmInst& inst, AbsState& st);
  Val stored_val(Taints ts, Vn vn, int w, int b, int i, const AsmInst& inst);
  void do_jcc(int b, int i, const AsmInst& inst, AbsState& st,
              bool& skip_next_jmp);
  Candidate pair_candidate(int id, const RV& a, const RV& bb, int w,
                           bool is_xor) const;
  void apply_discharge(const std::vector<Discharge>& dis, bool allow_cc);
  void end_of_block(int b, AbsState& st, bool fell_through, bool all_prot,
                    int last_i);
  void resolve_clusters();
  void finalize();

  RV read_operand(AbsState& st, const Operand& op, int w, int b, int i,
                  const AsmInst& inst) {
    switch (op.kind) {
      case Operand::Kind::kReg:
        return read_gpr(st, op.reg, w);
      case Operand::Kind::kImm: {
        RV r;
        std::uint64_t v = static_cast<std::uint64_t>(op.imm);
        if (w == 4) v &= 0xffff'ffffULL;
        if (w == 1) v &= 0xffULL;
        r.vn = vt_.const_vn(v);
        return r;
      }
      case Operand::Kind::kMem:
        return load_mem(st, op.mem, w, b, i, inst);
      case Operand::Kind::kXmm:
        return read_xmm_lane(st, op.xmm, 0);
      default:
        return RV{};
    }
  }

  std::string operand_str(const Operand& op) const {
    if (op.kind == Operand::Kind::kReg)
      return std::string("%") + kGprNames[gi(op.reg)];
    if (op.kind == Operand::Kind::kXmm)
      return std::string("%xmm") + std::to_string(op.xmm);
    if (op.kind == Operand::Kind::kMem) return "mem";
    return "?";
  }
};

void FunctionChecker::run() {
  const int nblocks = static_cast<int>(fn_.blocks.size());
  if (nblocks == 0) return;
  block_first_id_.resize(nblocks);
  is_detect_.resize(nblocks);
  target_ = masm::jump_targets(fn_);
  for (int b = 0, id = 0; b < nblocks; ++b) {
    block_first_id_[b] = id;
    id += static_cast<int>(fn_.blocks[b].insts.size());
    is_detect_[b] = !fn_.blocks[b].insts.empty() &&
                    fn_.blocks[b].insts[0].op == Op::kDetectTrap;
  }

  record_ = false;
  incoming_.resize(nblocks);
  incoming_[0][-1] = entry_state();
  dirty_ = {0};
  // No known function averages more than 4.7 walks per block
  // (EXPERIMENTS.md). One that has not converged by the cap would report
  // from arbitrary states, so reaching it is an error and gets no report.
  const std::int64_t cap = std::int64_t{1000} * nblocks;
  for (std::int64_t pops = 1; !dirty_.empty(); ++pops) {
    if (pops > cap)
      throw std::runtime_error("check: the fixpoint of " + fn_.name +
                               " did not converge in " +
                               std::to_string(cap) + " block walks");
    const int b = *dirty_.begin();
    dirty_.erase(dirty_.begin());
    AbsState st = in_state(b);
    touched_.clear();
    exec_block(b, st);
  }

  // Every edge into a block last changed before the block's last walk, so
  // joining them again rebuilds the in-state that walk started from.
  record_ = true;
  for (int b = 0; b < nblocks; ++b) {
    AbsState st = in_state(b);
    if (st.reachable && !is_detect_[b]) exec_block(b, st);
  }
  resolve_clusters();
  finalize();
}

/// The join of b's incoming edges, in ascending predecessor order.
AbsState FunctionChecker::in_state(int b) {
  AbsState st;
  for (const auto& [pred, es] : incoming_[b]) join_into(st, es, b);
  return st;
}

/// Sends `out` along the edge from -> succ. Re-executing a block *replaces*
/// its previous contribution along each edge (incremental joins would keep
/// stale facts/value-numbers from earlier fixpoint rounds alive forever).
/// The record pass sends nothing.
void FunctionChecker::propagate(int from, int succ, AbsState&& out) {
  if (record_ || succ < 0 || succ >= static_cast<int>(incoming_.size()) ||
      is_detect_[succ])
    return;
  auto& edges = incoming_[succ];
  const auto it = edges.find(from);
  if (touched_.count(succ) != 0) {
    join_into(it->second, out, succ);
  } else if (it != edges.end() && same_state(it->second, out)) {
    return;  // edge contribution unchanged: no re-propagation
  } else {
    edges.insert_or_assign(from, std::move(out));
  }
  touched_.insert(succ);
  dirty_.insert(succ);
}

/// Walks block b from `st`. The fixpoint moves the state along the edges
/// out of the block, so it reads nothing of `st` after the terminator.
void FunctionChecker::exec_block(int b, AbsState& st) {
  const AsmBlock& block = fn_.blocks[b];
  epoch_ = 0;
  pending_check_ = -1;
  cand_ = Candidate{};
  bool all_prot = !block.insts.empty();
  bool terminated = false;
  bool skip_next_jmp = false;
  int last_i = 0;
  const int n = static_cast<int>(block.insts.size());
  for (int i = 0; i < n && !terminated; ++i) {
    const AsmInst& inst = block.insts[i];
    last_i = i;
    if (inst.origin != InstOrigin::kProtection) {
      all_prot = false;
      if (record_ && !st.req.empty()) {
        const masm::UseDef ud = masm::use_def_of(inst);
        for (const ReqEntry& re : st.req) {
          if (((ud.use | ud.def) & masm::gpr_bit(re.victim)) != 0) {
            violate(ViolationKind::kRequisitionClobber, b, i,
                    std::string("instruction touches requisitioned %") +
                        kGprNames[gi(re.victim)]);
            break;
          }
        }
      }
    }
    if (skip_next_jmp && inst.op == Op::kJmp) {
      // the detect leg of a `jcc cont; jmp detect` check pair
      terminated = true;
      break;
    }
    skip_next_jmp = false;
    transfer(b, i, inst, st, terminated, skip_next_jmp);
  }
  end_of_block(b, st, !terminated, !terminated && all_prot ? 1 : 0,
               last_i);
  if (!terminated) propagate(b, b + 1, std::move(st));
}

void FunctionChecker::end_of_block(int b, AbsState& st, bool fell_through,
                                   bool all_prot, int last_i) {
  if (record_) {
    if (pending_check_ >= 0)
      violate(ViolationKind::kDanglingCheck, b, pending_check_,
              "check result never consumed before the block ends");
    if (!st.req.empty())
      violate(ViolationKind::kRequisitionImbalance, b, last_i,
              "requisition window crosses a block boundary");
    if (fell_through && all_prot)
      violate(ViolationKind::kTrampolineFallthrough, b, last_i,
              "protection-only block falls off its end");
    const LiveSet lv = live_.live_out(b);
    auto mark_live = [&](const Taints& ts, int w) {
      for (const Taint& t : ts) {
        if (!uncovered(t, w)) continue;
        Ob& ob = obs_[t.ob];
        if (!ob.pending_cluster) ob.live_out = true;
      }
    };
    for (int r = 0; r < masm::kGprCount; ++r)
      if (masm::has_gpr(lv, static_cast<Gpr>(r)))
        mark_live(st.gpr[r].taints, 8);
    for (int x = 0; x < masm::kXmmCount; ++x)
      if (masm::has_xmm(lv, x))
        for (int l = 0; l < 4; ++l) mark_live(st.xmm[x][l].taints, 8);
    if (masm::has_flags(lv)) mark_live(st.flags.taints, 8);
    for (const auto& [off, slot] : st.slots)
      if (off >= st.rsp_off) mark_live(slot.val.taints, 8);
    for (const auto& [key, cell] : st.cells) mark_live(cell.val.taints, 8);
  }
  pending_check_ = -1;
}

void FunctionChecker::exec_call(int b, int i, const AsmInst& inst,
                                AbsState& st) {
  const int id = block_first_id_[b] + i;
  const std::string& callee = inst.ops[0].label;
  if (callee == "print_int") {
    escape(read_gpr(st, Gpr::kRdi, 8).taints, 8, "reaches program output");
    return;
  }
  if (callee == "print_f64") {
    escape(read_xmm_lane(st, 0, 0).taints, 8, "reaches program output");
    return;
  }
  if (record_ && !st.req.empty())
    violate(ViolationKind::kRequisitionAcrossCall, b, i,
            "requisition window left open across a call");
  if (record_) {
    if (opts_.store_data_sites && masm::call_pushes_ret(prog_, inst)) {
      const int sob = new_ob(b, i, inst, ObKind::kStore,
                             SiteKind::kStoreData, "mem", 8);
      if (sob >= 0) {
        obs_[sob].escaped = true;
        obs_[sob].note = "return-address push is unverifiable";
      }
    }
    static const Gpr kArgRegs[] = {Gpr::kRdi, Gpr::kRsi, Gpr::kRdx,
                                   Gpr::kRcx, Gpr::kR8,  Gpr::kR9};
    for (Gpr r : kArgRegs)
      escape(read_gpr(st, r, 8).taints, 8, "passed to a callee");
    for (int x = 0; x < 8; ++x)
      escape(read_xmm_lane(st, x, 0).taints, 8, "passed to a callee");
    for (const auto& [key, cell] : st.cells)
      escape(cell.val.taints, 8, "global memory visible to a callee");
  }
  static const Gpr kClobbered[] = {Gpr::kRax, Gpr::kRcx, Gpr::kRdx,
                                   Gpr::kRsi, Gpr::kRdi, Gpr::kR8,
                                   Gpr::kR9,  Gpr::kR10, Gpr::kR11};
  for (Gpr r : kClobbered) {
    st.gpr[gi(r)] = written_val(
        Val{},
        vt_.make(kTagCallRet, static_cast<std::uint64_t>(id),
                 static_cast<std::uint64_t>(gi(r))),
        8, id);
  }
  for (int x = 0; x < masm::kXmmCount; ++x)
    for (int l = 0; l < 4; ++l)
      st.xmm[x][l] = written_val(
          Val{},
          vt_.make(kTagCallRet, static_cast<std::uint64_t>(id),
                   static_cast<std::uint64_t>(100 + x * 4 + l)),
          8, id);
  write_flags(st,
              vt_.make(kTagCallRet, static_cast<std::uint64_t>(id), 99),
              id, {}, b, i);
  st.cells.clear();
  ++epoch_;
  std::erase_if(st.slots,
                [&](const auto& slot) { return slot.first < st.rsp_off; });
}

void FunctionChecker::apply_discharge(const std::vector<Discharge>& dis,
                                      bool allow_cc) {
  for (const Discharge& d : dis) {
    if (d.ob < 0) continue;
    Ob& ob = obs_[d.ob];
    if (ob.kind == ObKind::kXmm) {
      ob.lanes_checked |= static_cast<std::uint8_t>(1u << d.lane);
      continue;
    }
    if (d.exact == kExactCc) {
      if (!allow_cc) continue;  // a lone byte assert can't prove the flags
      const int cc = d.lane;
      bool only_cc = true;
      for (int reader : ob.reader_ccs)
        if (reader != cc) only_cc = false;
      if (only_cc) {
        ob.checked = 8;
        ob.discharge_cc = cc;
      } else {
        ob.cc_conflict = true;
      }
      continue;
    }
    ob.checked = std::max<int>(ob.checked, d.exact);
  }
}

void FunctionChecker::resolve_clusters() {
  for (const Cluster& cl : clusters_) {
    std::vector<const Cap*> qualified;
    for (const Cap& cap : cl.caps) {
      const bool taken_ok =
          cl.taken >= 0 && asserts_[cl.taken].count(cap.vn1) != 0;
      const bool fall_ok =
          cl.fall >= 0 && asserts_[cl.fall].count(cap.vn1) != 0;
      if (taken_ok && fall_ok) qualified.push_back(&cap);
    }
    std::set<int> writers;
    for (const Cap* cap : qualified) writers.insert(cap->flags_writer);
    if (qualified.size() >= 2 && writers.size() >= 2) {
      for (const Cap* cap : qualified) apply_discharge(cap->obs, true);
      if (cl.jcc_ob >= 0) {
        obs_[cl.jcc_ob].protected_override = true;
        obs_[cl.jcc_ob].override_note = "edge-asserted branch";
        obs_[cl.jcc_ob].pending_cluster = false;
      }
      continue;
    }
    std::set<int> all_writers;
    bool any_prot = false;
    for (const Cap& cap : cl.caps) {
      all_writers.insert(cap.flags_writer);
      any_prot |= cap.prot;
    }
    if (cl.caps.size() >= 2 && all_writers.size() == 1 &&
        *all_writers.begin() >= 0 && any_prot) {
      violate(ViolationKind::kSharedProducer, cl.block, cl.inst,
              "both branch captures derive from one flags producer");
    }
    if (cl.jcc_ob >= 0 && !obs_[cl.jcc_ob].note.empty()) continue;
    if (cl.jcc_ob >= 0) obs_[cl.jcc_ob].note = "cluster unverified";
  }
}

void FunctionChecker::finalize() {
  for (const Ob& ob : obs_) {
    SiteRecord rec;
    rec.function = fn_.name;
    rec.block = ob.block;
    rec.inst = ob.inst;
    rec.kind = ob.site;
    rec.op = ob.op;
    rec.origin = ob.origin;
    rec.operand = ob.operand;
    const bool full =
        ob.kind == ObKind::kXmm
            ? (ob.lanes_written & ~ob.lanes_checked) == 0
            : (ob.kind != ObKind::kBranch &&
               ob.checked >= std::min(ob.store_size, 8));
    if (ob.protected_override) {
      rec.status = SiteStatus::kProtected;
      rec.reason = ob.override_note;
    } else if (ob.cc_conflict) {
      rec.status = SiteStatus::kUnprotected;
      rec.reason = "flags consumed under a condition the check never covers";
    } else if (full) {
      rec.status = SiteStatus::kProtected;
      rec.reason = "written value checked before any observable use";
    } else if (ob.escaped) {
      rec.status = SiteStatus::kUnprotected;
      rec.reason = ob.note;
    } else if (ob.control_read) {
      rec.status = SiteStatus::kUnprotected;
      rec.reason = "feeds a branch decision";
    } else if (ob.live_out) {
      rec.status = SiteStatus::kUnprotected;
      rec.reason = "live across a block boundary";
    } else if (ob.pending_cluster) {
      rec.status = SiteStatus::kUnprotected;
      rec.reason = "branch capture never verified";
    } else if (ob.checked > 0 || ob.lanes_checked != 0) {
      rec.status = SiteStatus::kProtected;
      rec.reason = "partially checked; remainder provably unobserved";
    } else if (ob.kind == ObKind::kBranch) {
      rec.status = SiteStatus::kUnprotected;
      rec.reason = ob.note.empty() ? "unchecked branch" : ob.note;
    } else {
      rec.status = SiteStatus::kBenign;
      rec.reason = "written value never observed";
    }
    switch (rec.status) {
      case SiteStatus::kProtected: ++report_->protected_sites; break;
      case SiteStatus::kBenign: ++report_->benign_sites; break;
      case SiteStatus::kUnprotected: ++report_->unprotected_sites; break;
    }
    report_->sites.push_back(std::move(rec));
  }
}

// ---- free taint helpers (used by the transfer rules) ----

void push_taint(Taints& ts, int ob, std::uint8_t exact, std::uint8_t lane) {
  add_taint(ts, Taint{ob, exact, lane});
}

/// Self-taints of a w-byte GPR site: the low bytes are a bit-exact copy,
/// and for w<8 a merge remnant covers flips landing in the preserved bytes.
void gpr_site_taints(Taints& ts, int ob, int w) {
  if (ob < 0) return;
  push_taint(ts, ob, static_cast<std::uint8_t>(std::min(w, 8)), 0);
  if (w < 8) push_taint(ts, ob, 0, static_cast<std::uint8_t>(w));
}

/// The value a w-byte store of `vn` writes, tainted by `ts` and, when the
/// options enumerate kStoreData sites, by the store's own site.
Val FunctionChecker::stored_val(Taints ts, Vn vn, int w, int b, int i,
                                const AsmInst& inst) {
  if (opts_.store_data_sites)
    push_taint(ts,
               new_ob(b, i, inst, ObKind::kStore, SiteKind::kStoreData, "mem",
                      w),
               static_cast<std::uint8_t>(std::min(w, 8)), 0);
  Val v = written_val(Val{}, vn, w, block_first_id_[b] + i);
  v.taints = std::move(ts);
  return v;
}

/// Value-exact taints present in exactly one of the two compared values.
/// Common-mode taints (present in both) stay: a fault corrupting master
/// and duplicate identically is invisible to the comparison.
std::vector<Discharge> symdiff(const Taints& x, const Taints& y) {
  auto has = [](const Taints& ts, int ob, std::uint8_t lane) {
    for (const Taint& t : ts)
      if (t.ob == ob && t.lane == lane) return true;
    return false;
  };
  std::vector<Discharge> out;
  for (const Taint& t : x)
    if (t.exact >= 1 && t.exact <= kExactCc && !has(y, t.ob, t.lane))
      out.push_back(Discharge{t.ob, t.exact, t.lane});
  for (const Taint& t : y)
    if (t.exact >= 1 && t.exact <= kExactCc && !has(x, t.ob, t.lane))
      out.push_back(Discharge{t.ob, t.exact, t.lane});
  return out;
}

/// The candidate of a check that compares master `a` with duplicate `bb`
/// (a cmp, a ucomisd, or an xor when `is_xor`).
Candidate FunctionChecker::pair_candidate(int id, const RV& a, const RV& bb,
                                          int w, bool is_xor) const {
  Candidate cand;
  cand.id = id;
  if (a.vn != bb.vn) {
    cand.fail = is_xor ? "xor operands are not provably master and duplicate"
                       : "compared values are not provably master and "
                         "duplicate";
  } else if (a.writer >= 0 && a.writer == bb.writer) {
    cand.shared_producer = true;
    cand.fail = is_xor ? "both xor operands come from one instruction"
                       : "both compare operands come from one instruction";
  } else if (w == 1 && a.flags_writer >= 0 &&
             a.flags_writer == bb.flags_writer &&
             setcc_info_.count(a.vn) != 0) {
    cand.shared_producer = true;
    cand.fail = "compared materialisations share a flags producer";
  } else {
    cand.valid = true;
  }
  cand.dis = symdiff(a.taints, bb.taints);
  return cand;
}

// ------------------------------------------------------- transfer rules --

void FunctionChecker::transfer(int b, int i, const AsmInst& inst,
                               AbsState& st, bool& terminated,
                               bool& skip_next_jmp) {
  const int id = block_first_id_[b] + i;
  auto set_rsp = [&](std::int64_t off) {
    st.rsp_off = off;
    st.rsp_known = true;
    Val v = written_val(
        Val{}, vt_.make(kTagStackAddr, static_cast<std::uint64_t>(off)), 8,
        id);
    v.has_off = true;
    v.off = off;
    st.gpr[gi(Gpr::kRsp)] = std::move(v);
  };
  switch (inst.op) {
    case Op::kMov: {
      const Operand& src = inst.ops[0];
      const Operand& dst = inst.ops[1];
      const int w = dst.width;
      RV r = read_operand(st, src, w, b, i, inst);
      if (dst.kind == Operand::Kind::kReg) {
        Taints ts = r.taints;
        const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                              operand_str(dst));
        gpr_site_taints(ts, ob, w);
        write_gpr(st, dst.reg, w, r.vn, std::move(ts), id, r.flags_writer,
                  r.has_off && w == 8, r.off);
        // A wide mov copies the low byte verbatim: keep the source's byte
        // view (e.g. a setcc identity) instead of the derived view vn.
        if (w >= 4 && r.vn1 != 0) st.gpr[gi(dst.reg)].vn1 = r.vn1;
        if (dst.reg == Gpr::kRsp && w == 8) set_rsp_off(st, r.has_off, r.off);
      } else {
        Val v = stored_val(r.taints, r.vn, w, b, i, inst);
        v.flags_writer = w == 1 ? r.flags_writer : kNoWriter;
        v.has_off = r.has_off && w == 8;
        v.off = r.off;
        if (w >= 4 && r.vn1 != 0) v.vn1 = r.vn1;
        store_mem(st, dst.mem, w, std::move(v));
      }
      break;
    }
    case Op::kMovsx:
    case Op::kMovzx: {
      const int sw = inst.ops[0].width;
      const int dw = inst.ops[1].width;
      RV r = read_operand(st, inst.ops[0], sw, b, i, inst);
      const Vn vn =
          vt_.make(kTagOp, static_cast<std::uint64_t>(inst.op), r.vn,
                   static_cast<std::uint64_t>(sw * 16 + dw));
      Taints ts = r.taints;
      const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                            operand_str(inst.ops[1]));
      gpr_site_taints(ts, ob, dw);
      write_gpr(st, inst.ops[1].reg, dw, vn, std::move(ts), id);
      if (sw == 1) {
        // The low byte is a verbatim copy: keep the setcc shape visible
        // so byte facts and captures survive an extension.
        Val& v = st.gpr[gi(inst.ops[1].reg)];
        v.vn1 = r.vn;
        v.flags_writer = r.flags_writer;
      }
      break;
    }
    case Op::kLea: {
      Addr a = resolve_addr(st, inst.ops[0].mem);
      Taints ts = a.taints;
      const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                            operand_str(inst.ops[1]));
      gpr_site_taints(ts, ob, 8);
      write_gpr(st, inst.ops[1].reg, 8, a.vn, std::move(ts), id, kNoWriter,
                a.is_slot, a.off);
      if (inst.ops[1].reg == Gpr::kRsp) set_rsp_off(st, a.is_slot, a.off);
      break;
    }
    case Op::kPush: {
      RV r = read_gpr(st, inst.ops[0].reg, 8);
      set_rsp(st.rsp_off - 8);
      Val v = stored_val(r.taints, r.vn, 8, b, i, inst);
      v.flags_writer = r.flags_writer;
      v.has_off = r.has_off;
      v.off = r.off;
      put_slot(st, st.rsp_off, 8, std::move(v));
      if (inst.origin == InstOrigin::kProtection)
        st.req.push_back(ReqEntry{inst.ops[0].reg, st.rsp_off});
      break;
    }
    case Op::kPop: {
      const Gpr reg = inst.ops[0].reg;
      if (inst.origin == InstOrigin::kProtection) {
        if (st.req.empty() || st.req.back().victim != reg ||
            st.req.back().slot_off != st.rsp_off) {
          if (record_)
            violate(ViolationKind::kRequisitionImbalance, b, i,
                    "pop does not close the innermost requisition window");
        }
        if (!st.req.empty()) st.req.pop_back();
      }
      RV r;
      auto it = st.slots.find(st.rsp_off);
      if (it != st.slots.end() && it->second.width == 8) {
        const Val& v = it->second.val;
        r.vn = v.vn;
        r.taints = reach(v.taints, 8);
        r.flags_writer = v.flags_writer;
        r.has_off = v.has_off;
        r.off = v.off;
      } else {
        r.vn = fresh_load(
            b, vt_.make(kTagStackAddr, static_cast<std::uint64_t>(st.rsp_off)),
            8);
      }
      // The slot entry survives: requisition_end rechecks -8(%rsp).
      Taints ts = r.taints;
      const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                            operand_str(inst.ops[0]));
      gpr_site_taints(ts, ob, 8);
      write_gpr(st, reg, 8, r.vn, std::move(ts), id, r.flags_writer,
                r.has_off, r.off);
      set_rsp(st.rsp_off + 8);
      break;
    }
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
      exec_alu(b, i, inst, st);
      break;
    case Op::kCmp:
    case Op::kTest: {
      const int w = inst.ops[1].width;
      RV a = read_operand(st, inst.ops[1], w, b, i, inst);
      RV bb = read_operand(st, inst.ops[0],
                           inst.ops[0].kind == Operand::Kind::kReg
                               ? inst.ops[0].width
                               : w,
                           b, i, inst);
      const Vn f =
          vt_.make(kTagFlagsCmp, static_cast<std::uint64_t>(inst.op), a.vn,
                   bb.vn, static_cast<std::uint64_t>(w));
      const int fob = new_ob(b, i, inst, ObKind::kFlags,
                             SiteKind::kFlagsWrite, "flags");
      Taints fts = derived({&a.taints, &bb.taints});
      push_taint(fts, fob, kExactFlags, 0);
      if (inst.op == Op::kTest &&
          inst.ops[0].kind == Operand::Kind::kImm && inst.ops[0].imm == 1 &&
          w == 1)
        test_byte_[f] = a.vn;
      // Candidate must be built before write_flags trips any previously
      // pending check, but published after.
      Candidate cand;
      bool have_cand = false;
      if (inst.op == Op::kCmp) {
        have_cand = true;
        cand.id = id;
        cand.own_flags_ob = fob;
        if (inst.ops[0].kind == Operand::Kind::kImm && w == 1) {
          cand.edge_assert = true;
          const std::uint64_t want =
              static_cast<std::uint64_t>(inst.ops[0].imm) & 0xff;
          cand.assert_vn1 = a.vn;
          bool valid = a.vn == vt_.const_vn(want);
          if (!valid) {
            auto bf = st.facts.find({kByteFactCc, a.vn});
            if (bf != st.facts.end() &&
                static_cast<std::uint64_t>(bf->second) == want)
              valid = true;
          }
          if (!valid) {
            auto si = setcc_info_.find(a.vn);
            if (si != setcc_info_.end()) {
              auto ff = st.facts.find({si->second.first, si->second.second});
              if (ff != st.facts.end() &&
                  static_cast<std::uint64_t>(ff->second) == want)
                valid = true;
            }
          }
          cand.valid = valid;
          if (!valid) cand.fail = "assert not implied by the edge facts";
          for (const Taint& t : a.taints)
            if (t.exact >= 1 && t.exact <= 8)
              cand.dis.push_back(Discharge{t.ob, t.exact, t.lane});
        } else {
          cand = pair_candidate(id, a, bb, w, false);
          cand.own_flags_ob = fob;
        }
      }
      write_flags(st, f, id, std::move(fts), b, i);
      if (have_cand) {
        cand_ = std::move(cand);
        if (inst.origin == InstOrigin::kProtection) pending_check_ = i;
      }
      break;
    }
    case Op::kSetcc: {
      const Operand& dst = inst.ops[0];
      const int cc = static_cast<int>(inst.cc);
      const Vn s =
          vt_.make(kTagSetcc, static_cast<std::uint64_t>(cc), st.flags.vn);
      setcc_info_[s] = {cc, st.flags.vn};
      const int fw = st.flags.writer;
      Taints ts = mark_flags_read(st, cc, true, false);
      if (dst.kind == Operand::Kind::kReg) {
        const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                              operand_str(dst));
        gpr_site_taints(ts, ob, 1);
        write_gpr(st, dst.reg, 1, s, std::move(ts), id, fw);
      } else {
        Val v = stored_val(std::move(ts), s, 1, b, i, inst);
        v.flags_writer = fw;
        store_mem(st, dst.mem, 1, std::move(v));
      }
      break;
    }
    case Op::kMovsd: {
      const Operand& src = inst.ops[0];
      const Operand& dst = inst.ops[1];
      if (dst.kind == Operand::Kind::kXmm) {
        RV r = src.kind == Operand::Kind::kXmm
                   ? read_xmm_lane(st, src.xmm, 0)
                   : load_mem(st, src.mem, 8, b, i, inst);
        Taints ts = r.taints;
        const int ob = new_ob(b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
                              operand_str(dst), 8, 1);
        push_taint(ts, ob, 8, 0);
        write_xmm_lane(st, dst.xmm, 0, r.vn, std::move(ts), id);
      } else {
        RV r = read_xmm_lane(st, src.xmm, 0);
        store_mem(st, dst.mem, 8, stored_val(r.taints, r.vn, 8, b, i, inst));
      }
      break;
    }
    case Op::kMovq: {
      const Operand& src = inst.ops[0];
      const Operand& dst = inst.ops[1];
      if (dst.kind == Operand::Kind::kXmm) {
        const int sw = src.width != 0 ? src.width : 8;
        RV r = src.kind == Operand::Kind::kReg
                   ? read_gpr(st, src.reg, sw)
                   : load_mem(st, src.mem, sw, b, i, inst);
        const Vn v0 = sw == 4 ? vt_.zext32(r.vn) : r.vn;
        const int ob = new_ob(b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
                              operand_str(dst), 8, 0b11);
        Taints t0 = r.taints;
        push_taint(t0, ob, 8, 0);
        write_xmm_lane(st, dst.xmm, 0, v0, std::move(t0), id);
        Taints t1;
        push_taint(t1, ob, 8, 1);
        write_xmm_lane(st, dst.xmm, 1, vt_.const0(), std::move(t1), id);
      } else if (dst.kind == Operand::Kind::kReg) {
        RV r = read_xmm_lane(st, src.xmm, 0);
        const int w = dst.width != 0 ? dst.width : 8;
        Taints ts = r.taints;
        const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                              operand_str(dst));
        gpr_site_taints(ts, ob, w);
        write_gpr(st, dst.reg, w, w == 4 ? vt_.view(r.vn, 4) : r.vn,
                  std::move(ts), id);
      } else {
        RV r = read_xmm_lane(st, src.xmm, 0);
        const int w = dst.width != 0 ? dst.width : 8;
        const Vn vn = w == 4 ? vt_.view(r.vn, 4) : r.vn;
        store_mem(st, dst.mem, w, stored_val(r.taints, vn, w, b, i, inst));
      }
      break;
    }
    case Op::kPinsrq: {
      const int lane = static_cast<int>(inst.ops[0].imm & 1);
      const Operand& src = inst.ops[1];
      const int sw = src.width != 0 ? src.width : 8;
      RV r = src.kind == Operand::Kind::kReg
                 ? read_gpr(st, src.reg, sw)
                 : load_mem(st, src.mem, sw, b, i, inst);
      Taints ts = r.taints;
      const int ob = new_ob(b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
                            operand_str(inst.ops[2]), 8, 1);
      push_taint(ts, ob, 8, 0);
      write_xmm_lane(st, inst.ops[2].xmm, lane,
                     sw == 4 ? vt_.zext32(r.vn) : r.vn, std::move(ts), id);
      break;
    }
    case Op::kVinserti128: {
      const int sel = static_cast<int>(inst.ops[0].imm & 1);
      RV r0 = read_xmm_lane(st, inst.ops[1].xmm, 0);
      RV r1 = read_xmm_lane(st, inst.ops[1].xmm, 1);
      const int ob = new_ob(b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
                            operand_str(inst.ops[2]), 8, 0b11);
      Taints t0 = r0.taints;
      push_taint(t0, ob, 8, 0);
      write_xmm_lane(st, inst.ops[2].xmm, sel * 2, r0.vn, std::move(t0),
                     id);
      Taints t1 = r1.taints;
      push_taint(t1, ob, 8, 1);
      write_xmm_lane(st, inst.ops[2].xmm, sel * 2 + 1, r1.vn, std::move(t1),
                     id);
      break;
    }
    case Op::kVpxor: {
      const int s2 = inst.ops[0].xmm;
      const int s1 = inst.ops[1].xmm;
      const int dx = inst.ops[2].xmm;
      const int active = inst.ops[2].ymm ? 4 : 2;
      const int ob = new_ob(
          b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
          operand_str(inst.ops[2]), 8,
          static_cast<std::uint8_t>((1u << active) - 1u));
      std::vector<Discharge> diffs;
      std::array<Val, 4> out;
      for (int l = 0; l < 4; ++l) {
        if (l >= active) {
          Taints ts;
          push_taint(ts, ob, 8, static_cast<std::uint8_t>(l));
          out[l] = written_val(Val{}, vt_.const0(), 8, id);
          out[l].taints = std::move(ts);
          continue;
        }
        RV a = read_xmm_lane(st, s1, l);
        RV bb = read_xmm_lane(st, s2, l);
        const Vn vn = a.vn == bb.vn
                          ? vt_.const0()
                          : vt_.make(kTagOp,
                                     static_cast<std::uint64_t>(Op::kVpxor),
                                     a.vn, bb.vn,
                                     static_cast<std::uint64_t>(l));
        for (const Discharge& d : symdiff(a.taints, bb.taints))
          diffs.push_back(d);
        Taints ts = derived({&a.taints, &bb.taints});
        push_taint(ts, ob, 8, static_cast<std::uint8_t>(l));
        out[l] = written_val(Val{}, vn, 8, id);
        out[l].taints = std::move(ts);
      }
      for (int l = 0; l < 4; ++l) st.xmm[dx][l] = std::move(out[l]);
      vpxor_info_[id] = std::move(diffs);
      break;
    }
    case Op::kVptest: {
      const int x1 = inst.ops[0].xmm;
      const int x2 = inst.ops[1].xmm;
      const int active = inst.ops[0].ymm || inst.ops[1].ymm ? 4 : 2;
      Candidate cand;
      cand.id = id;
      bool all_zero = x1 == x2;
      Taints fts;
      Vn agg = vt_.const0();
      for (int l = 0; l < active && x1 == x2; ++l) {
        RV r = read_xmm_lane(st, x1, l);
        if (r.vn != vt_.const0()) all_zero = false;
        Taints d = derived({&r.taints});
        for (const Taint& t : d) add_taint(fts, t);
        if (r.writer >= 0 && vpxor_info_.count(r.writer) != 0)
          for (const Discharge& dd : vpxor_info_[r.writer])
            cand.dis.push_back(dd);
        agg = vt_.make(kTagOp, static_cast<std::uint64_t>(Op::kVptest), agg,
                       r.vn, static_cast<std::uint64_t>(l));
      }
      if (all_zero) {
        cand.valid = true;
      } else {
        cand.fail = "stale SIMD batch: vptest operand is not a fresh "
                    "master^dup xor";
        cand.dis.clear();
      }
      const int fob = new_ob(b, i, inst, ObKind::kFlags,
                             SiteKind::kFlagsWrite, "flags");
      push_taint(fts, fob, kExactFlags, 0);
      cand.own_flags_ob = fob;
      write_flags(st, vt_.make(kTagFlagsCmp,
                               static_cast<std::uint64_t>(Op::kVptest), agg,
                               0, static_cast<std::uint64_t>(active)),
                  id, std::move(fts), b, i);
      cand_ = std::move(cand);
      if (inst.origin == InstOrigin::kProtection) pending_check_ = i;
      break;
    }
    case Op::kAddsd:
    case Op::kSubsd:
    case Op::kMulsd:
    case Op::kDivsd: {
      RV a = read_xmm_lane(st, inst.ops[1].xmm, 0);
      RV bb = inst.ops[0].kind == Operand::Kind::kXmm
                  ? read_xmm_lane(st, inst.ops[0].xmm, 0)
                  : load_mem(st, inst.ops[0].mem, 8, b, i, inst);
      const Vn res = vt_.make(kTagOp, static_cast<std::uint64_t>(inst.op),
                              a.vn, bb.vn, 8);
      Taints ts = derived({&a.taints, &bb.taints});
      const int ob = new_ob(b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
                            operand_str(inst.ops[1]), 8, 1);
      push_taint(ts, ob, 8, 0);
      write_xmm_lane(st, inst.ops[1].xmm, 0, res, std::move(ts), id);
      break;
    }
    case Op::kSqrtsd: {
      RV r = inst.ops[0].kind == Operand::Kind::kXmm
                 ? read_xmm_lane(st, inst.ops[0].xmm, 0)
                 : load_mem(st, inst.ops[0].mem, 8, b, i, inst);
      const Vn res = vt_.make(kTagOp, static_cast<std::uint64_t>(inst.op),
                              r.vn, 0, 8);
      Taints ts = derived({&r.taints});
      const int ob = new_ob(b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
                            operand_str(inst.ops[1]), 8, 1);
      push_taint(ts, ob, 8, 0);
      write_xmm_lane(st, inst.ops[1].xmm, 0, res, std::move(ts), id);
      break;
    }
    case Op::kCvtsi2sd: {
      const int sw = inst.ops[0].width != 0 ? inst.ops[0].width : 8;
      RV r = read_operand(st, inst.ops[0], sw, b, i, inst);
      const Vn res = vt_.make(kTagOp, static_cast<std::uint64_t>(inst.op),
                              r.vn, static_cast<std::uint64_t>(sw), 8);
      Taints ts = derived({&r.taints});
      const int ob = new_ob(b, i, inst, ObKind::kXmm, SiteKind::kXmmWrite,
                            operand_str(inst.ops[1]), 8, 1);
      push_taint(ts, ob, 8, 0);
      write_xmm_lane(st, inst.ops[1].xmm, 0, res, std::move(ts), id);
      break;
    }
    case Op::kCvttsd2si: {
      RV r = read_xmm_lane(st, inst.ops[0].xmm, 0);
      const int w = inst.ops[1].width != 0 ? inst.ops[1].width : 8;
      const Vn res = vt_.make(kTagOp, static_cast<std::uint64_t>(inst.op),
                              r.vn, 0, static_cast<std::uint64_t>(w));
      Taints ts = derived({&r.taints});
      const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                            operand_str(inst.ops[1]));
      gpr_site_taints(ts, ob, w);
      write_gpr(st, inst.ops[1].reg, w, res, std::move(ts), id);
      break;
    }
    case Op::kUcomisd: {
      RV a = read_xmm_lane(st, inst.ops[1].xmm, 0);
      RV bb = inst.ops[0].kind == Operand::Kind::kXmm
                  ? read_xmm_lane(st, inst.ops[0].xmm, 0)
                  : load_mem(st, inst.ops[0].mem, 8, b, i, inst);
      const Vn f = vt_.make(kTagFlagsCmp,
                            static_cast<std::uint64_t>(inst.op), a.vn, bb.vn,
                            8);
      const int fob = new_ob(b, i, inst, ObKind::kFlags,
                             SiteKind::kFlagsWrite, "flags");
      Taints fts = derived({&a.taints, &bb.taints});
      push_taint(fts, fob, kExactFlags, 0);
      // ir-eddi emits its double-precision checks as
      // `ucomisd dup, master; je cont; jmp detect` — the same value-pair
      // candidate shape as an integer cmp.
      Candidate cand = pair_candidate(id, a, bb, 8, false);
      cand.own_flags_ob = fob;
      write_flags(st, f, id, std::move(fts), b, i);
      cand_ = std::move(cand);
      if (inst.origin == InstOrigin::kProtection) pending_check_ = i;
      break;
    }
    case Op::kJmp: {
      const int target = target_[b][i];
      terminated = true;
      propagate(b, target, std::move(st));
      break;
    }
    case Op::kJcc:
      do_jcc(b, i, inst, st, skip_next_jmp);
      break;
    case Op::kCall:
      exec_call(b, i, inst, st);
      break;
    case Op::kRet: {
      if (record_) {
        if (!st.req.empty())
          violate(ViolationKind::kRequisitionImbalance, b, i,
                  "requisition window still open at ret");
        if (st.rsp_known && st.rsp_off != 0)
          violate(ViolationKind::kStackImbalance, b, i,
                  "stack depth nonzero at ret");
        escape(read_gpr(st, Gpr::kRax, 8).taints, 8,
               "returned to the caller");
        escape(read_xmm_lane(st, 0, 0).taints, 8, "returned to the caller");
        static const Gpr kCalleeSaved[] = {Gpr::kRbx, Gpr::kRbp, Gpr::kR12,
                                           Gpr::kR13, Gpr::kR14, Gpr::kR15};
        for (Gpr r : kCalleeSaved)
          escape(read_gpr(st, r, 8).taints, 8,
                 "callee-saved register returned corrupted");
        for (const auto& [key, cell] : st.cells)
          escape(cell.val.taints, 8, "left in global memory");
      }
      st.req.clear();
      terminated = true;
      break;
    }
    case Op::kDetectTrap:
      terminated = true;
      break;
    default:
      break;
  }
}

void FunctionChecker::exec_alu(int b, int i, const AsmInst& inst,
                               AbsState& st) {
  const int id = block_first_id_[b] + i;
  const Operand& srcop = inst.ops[0];
  const Operand& dstop = inst.ops[1];
  const int w = dstop.width;
  const int sw =
      srcop.kind == Operand::Kind::kReg && srcop.width != 0 ? srcop.width
                                                            : w;
  RV bb = read_operand(st, srcop, sw, b, i, inst);
  RV a = dstop.kind == Operand::Kind::kReg
             ? read_gpr(st, dstop.reg, w)
             : load_mem(st, dstop.mem, w, b, i, inst);
  Vn res;
  bool has_off = false;
  std::int64_t off = 0;
  if (inst.op == Op::kXor && a.vn == bb.vn) {
    res = vt_.const0();
  } else if (w == 8 && a.has_off && srcop.kind == Operand::Kind::kImm &&
             (inst.op == Op::kAdd || inst.op == Op::kSub)) {
    has_off = true;
    off = inst.op == Op::kAdd ? a.off + srcop.imm : a.off - srcop.imm;
    res = vt_.make(kTagStackAddr, static_cast<std::uint64_t>(off));
  } else {
    res = vt_.make(kTagOp, static_cast<std::uint64_t>(inst.op), a.vn, bb.vn,
                   static_cast<std::uint64_t>(w));
  }
  Taints fts = derived({&a.taints, &bb.taints});
  write_flags(st, vt_.make(kTagFlagsAlu, res), id, std::move(fts), b, i);
  if (inst.op == Op::kXor && dstop.kind == Operand::Kind::kReg) {
    cand_ = pair_candidate(id, a, bb, w, true);
    if (inst.origin == InstOrigin::kProtection && cand_.valid)
      pending_check_ = i;
  }
  Taints ts = derived({&a.taints, &bb.taints});
  if (dstop.kind == Operand::Kind::kReg) {
    const int ob = new_ob(b, i, inst, ObKind::kGpr, SiteKind::kGprWrite,
                          operand_str(dstop));
    gpr_site_taints(ts, ob, w);
    write_gpr(st, dstop.reg, w, res, std::move(ts), id, kNoWriter, has_off,
              off);
    if (dstop.reg == Gpr::kRsp && w == 8) set_rsp_off(st, has_off, off);
  } else {
    store_mem(st, dstop.mem, w, stored_val(std::move(ts), res, w, b, i, inst));
  }
}

void FunctionChecker::do_jcc(int b, int i, const AsmInst& inst,
                             AbsState& st, bool& skip_next_jmp) {
  const int id = block_first_id_[b] + i;
  const int cc = static_cast<int>(inst.cc);
  const int target = target_[b][i];
  const AsmBlock& block = fn_.blocks[b];
  const bool tgt_detect = target >= 0 && is_detect_[target];
  int jmp_target = -1;
  if (i + 1 < static_cast<int>(block.insts.size()) &&
      block.insts[i + 1].op == Op::kJmp)
    jmp_target = target_[b][i + 1];
  const bool shape_b = !tgt_detect && jmp_target >= 0 &&
                       is_detect_[jmp_target];

  const int bob =
      new_ob(b, i, inst, ObKind::kBranch, SiteKind::kBranchDecision,
             "branch");
  const Vn flags_vn = st.flags.vn;

  if (tgt_detect || shape_b) {
    // A check consumption: shape A (`jne detect`, fall = clean) or shape B
    // (`jcc cont; jmp detect`, taken = clean).
    const bool have_cand = cand_.id == id - 1;
    const bool valid = have_cand && cand_.valid;
    mark_flags_read(st, cc, valid, false);
    if (record_) {
      if (valid) {
        apply_discharge(cand_.dis, !cand_.edge_assert);
        if (cand_.own_flags_ob >= 0) {
          obs_[cand_.own_flags_ob].protected_override = true;
          obs_[cand_.own_flags_ob].override_note =
              "flags produced and consumed by the check itself";
        }
        if (bob >= 0) {
          obs_[bob].protected_override = true;
          obs_[bob].override_note = "detect branch of a valid check";
        }
        if (cand_.edge_assert) asserts_[b].insert(cand_.assert_vn1);
      } else {
        // Branching into the detect machinery claims to be a check, so
        // an invalid candidate is a violation regardless of the recorded
        // origin — parsed assembly carries no origin annotations.
        if (!have_cand)
          violate(ViolationKind::kUnguardedDetect, b, i,
                  "detect branch without an immediately preceding check");
        else if (cand_.shared_producer)
          violate(ViolationKind::kSharedProducer, b, i, cand_.fail);
        else if (cand_.edge_assert)
          violate(ViolationKind::kInvalidEdgeAssert, b, i, cand_.fail);
        else
          violate(ViolationKind::kStaleCheck, b, i, cand_.fail);
        if (bob >= 0)
          obs_[bob].note = "detect branch guarded by an invalid check";
      }
    }
    if (tgt_detect) {
      st.facts[{cc, flags_vn}] = 0;  // continue past the untaken detect leg
    } else {
      // The taken edge is the only way on: the detect `jmp` ends the block.
      skip_next_jmp = true;
      if (record_) return;
      set_branch_facts(st, cc, flags_vn, 1);
      propagate(b, target, std::move(st));
    }
    return;
  }

  if (record_ && inst.origin == InstOrigin::kProtection)
    violate(ViolationKind::kStrayProtectionJump, b, i,
            "protection branch does not guard the detect block");

  // Normal branch: collect the capture cluster (setcc materialisations of
  // this condition parked in registers or slots) for edge verification.
  bool have_caps = false;
  if (record_) {
    std::vector<Cap> caps;
    auto consider = [&](const Val& v) {
      if (v.writer < block_first_id_[b]) return;
      auto si = setcc_info_.find(v.vn1);
      if (si == setcc_info_.end() || si->second.first != cc) return;
      Cap cap;
      cap.vn1 = v.vn1;
      cap.flags_writer = v.flags_writer;
      const int wi = v.writer - block_first_id_[b];
      cap.prot = wi >= 0 && wi < static_cast<int>(block.insts.size()) &&
                 block.insts[wi].origin == InstOrigin::kProtection;
      for (const Taint& t : v.taints) {
        if (t.exact < 1 || t.exact > kExactCc) continue;
        if (!uncovered(t, t.exact == kExactCc ? 8 : 1)) continue;
        cap.obs.push_back(Discharge{t.ob, t.exact, t.lane});
      }
      caps.push_back(std::move(cap));
    };
    for (int r = 0; r < masm::kGprCount; ++r) consider(st.gpr[r]);
    for (const auto& [off, slot] : st.slots)
      if (slot.width == 1) consider(slot.val);
    if (!caps.empty()) {
      have_caps = true;
      for (const Cap& cap : caps)
        for (const Discharge& d : cap.obs)
          obs_[d.ob].pending_cluster = true;
      if (bob >= 0) obs_[bob].pending_cluster = true;
      Cluster cl;
      cl.block = b;
      cl.inst = i;
      cl.jcc_ob = bob;
      cl.cc = cc;
      cl.taken = target;
      cl.fall = jmp_target;
      cl.caps = std::move(caps);
      clusters_.push_back(std::move(cl));
    }
  }
  mark_flags_read(st, cc, false, have_caps);
  if (!record_) {  // the taken edge's copy of the state
    AbsState out = st;
    set_branch_facts(out, cc, flags_vn, 1);
    propagate(b, target, std::move(out));
  }
  set_branch_facts(st, cc, flags_vn, 0);
}

}  // namespace

CheckReport check_program(const masm::AsmProgram& program,
                          const AnalysisOptions& options) {
  CheckReport report;
  report.store_data_sites = options.store_data_sites;
  for (const auto& fn : program.functions) {
    FunctionChecker checker(program, fn, options, &report);
    checker.run();
  }
  return report;
}

telemetry::Json to_json(const CheckReport& report) {
  using telemetry::Json;
  Json root = Json::object();
  root["schema"] = Json("ferrum.check.v1");
  Json violations = Json::array();
  violations.reserve(report.violations.size());
  for (const Violation& v : report.violations) {
    Json jv = Json::object();
    jv["kind"] = Json(violation_kind_name(v.kind));
    jv["function"] = Json(v.function);
    jv["block"] = Json(static_cast<std::int64_t>(v.block));
    jv["inst"] = Json(static_cast<std::int64_t>(v.inst));
    jv["message"] = Json(v.message);
    violations.push_back(std::move(jv));
  }
  root["violations"] = std::move(violations);
  Json counts = Json::object();
  counts["protected"] =
      Json(static_cast<std::int64_t>(report.protected_sites));
  counts["benign"] = Json(static_cast<std::int64_t>(report.benign_sites));
  counts["unprotected"] =
      Json(static_cast<std::int64_t>(report.unprotected_sites));
  counts["total"] = Json(static_cast<std::int64_t>(report.total_sites()));
  root["site_counts"] = std::move(counts);

  // Unprotected sites are listed exhaustively (the containment contract of
  // the audit cross-validation); protected/benign only as per-kind tallies.
  Json unprot = Json::array();
  unprot.reserve(report.unprotected_sites);
  std::map<std::string, std::int64_t> kind_protected, kind_benign;
  for (const SiteRecord& s : report.sites) {
    if (s.status == SiteStatus::kProtected) {
      ++kind_protected[site_kind_name(s.kind)];
      continue;
    }
    if (s.status == SiteStatus::kBenign) {
      ++kind_benign[site_kind_name(s.kind)];
      continue;
    }
    // Rows insert their keys in sorted order, so each insert appends.
    Json js = Json::object();
    js.reserve(7);
    js["block"] = Json(static_cast<std::int64_t>(s.block));
    js["function"] = Json(s.function);
    js["inst"] = Json(static_cast<std::int64_t>(s.inst));
    js["kind"] = Json(site_kind_name(s.kind));
    js["op"] = Json(masm::op_mnemonic(s.op));
    js["operand"] = Json(s.operand);
    js["reason"] = Json(s.reason);
    unprot.push_back(std::move(js));
  }
  root["unprotected_sites"] = std::move(unprot);
  Json prot = Json::object();
  for (const auto& [k, n] : kind_protected) prot[k] = Json(n);
  root["protected_by_kind"] = std::move(prot);
  Json ben = Json::object();
  for (const auto& [k, n] : kind_benign) ben[k] = Json(n);
  root["benign_by_kind"] = std::move(ben);
  return root;
}

}  // namespace ferrum::check
