// ferrum-flow: static error-propagation analysis with per-site outcome
// prediction (the FastFlip direction taken one step further — see
// PAPERS.md). Where ferrum-check classifies *protectedness* and
// ferrum-prune classifies *liveness*, ferrum-flow predicts the dynamic
// audit's four-way outcome for every fault site before a single
// injection runs:
//
//   kMasked         the flipped value is absorbed before any sync point
//                   (prune proves every injectable bit dead, check proves
//                   the site benign, or no sink is flow-reachable);
//   kDetected       the corruption provably runs into a detector — the
//                   site is check-kProtected, or its only flow-reachable
//                   sink is a detect branch;
//   kCrashProne     the corruption can reach an address operand, a branch
//                   decision, the stack/frame pointer or a trapping
//                   divisor — outcomes dominated by crashes, but control-
//                   flow divergence can still corrupt output;
//   kSdcVulnerable  the corruption can reach the store stream or a print
//                   argument / main's return value — the silent-data-
//                   corruption surface.
//
// The engine is a backward sink-reachability dataflow over the same
// per-location domain prune walks (16 GPRs, 16 XMM registers at 64-bit
// lane granularity, RFLAGS): each location carries the set of *sinks* the
// value residing there can still reach, plus (during summary
// construction) the set of *exit locations* it can flow into by function
// return. It is the second domain on prune's backward dataflow driver
// (check/dataflow.h): bottom-up per-callee summaries to a least
// fixpoint, then a top-down caller-context pass seeding main's %rax with
// the output sink.
//
// Soundness contract (one-directional, DESIGN.md "flow"): the two
// predicted-safe buckets must never produce a dynamic SDC. Every SDC
// escape the audit observes must land on a site predicted kSdcVulnerable
// or kCrashProne (kCrashProne stays in the containment union because a
// corrupted branch decision or address can silently alter output as well
// as crash). The converse gap — predicted-vulnerable sites that never
// corrupt — is the reported *precision* and is expected to be < 1:
// memory is deliberately untracked (every store is a potential output
// path; the store choke-point argument of the sections analysis), and
// reachability ignores values. bench/analysis_flow_accuracy
// cross-validates containment at 1.000 on the Table II workloads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/prune.h"
#include "check/sections.h"
#include "masm/fault_site.h"
#include "masm/masm.h"
#include "telemetry/json.h"

namespace ferrum::check::flow {

// ------------------------------------------------------------- sinks ----

/// What a corrupted value can reach (bitmask). The four predictions fold
/// these down; the raw mask is kept per site so the JSON export stays
/// inspectable.
enum Sink : std::uint16_t {
  kSinkStore = 1u << 0,     // reaches a memory write (store choke point)
  kSinkOutput = 1u << 1,    // reaches print_int/print_f64 or main's %rax
  kSinkAddress = 1u << 2,   // reaches a memory address operand
  kSinkStackPtr = 1u << 3,  // reaches %rsp / %rbp
  kSinkBranch = 1u << 4,    // reaches a conditional-branch decision
  kSinkTrap = 1u << 5,      // reaches a trapping divisor (idiv/irem)
  kSinkDetect = 1u << 6,    // reaches a detect branch (jcc -> detect trap)
};

/// Renders a sink mask as "store|output|..." ("none" for 0).
std::string sink_mask_name(std::uint16_t sinks);

// -------------------------------------------------------- predictions ---

enum class Prediction : std::uint8_t {
  kMasked,
  kDetected,
  kCrashProne,
  kSdcVulnerable,
};
constexpr int kPredictionCount = 4;
const char* prediction_name(Prediction prediction);

/// Which rule assigned the prediction, in priority order: prune's
/// fully-dead proof, ferrum-check's protected/benign classification, or
/// the flow sink mask itself.
enum class PredictionBasis : std::uint8_t {
  kPruneDead,       // every injectable bit statically dead
  kCheckProtected,  // check proved a current check pair observes the site
  kCheckBenign,     // check proved the value dies unobserved
  kFlow,            // decided by the reachable-sink mask
};
const char* prediction_basis_name(PredictionBasis basis);

struct FlowSite {
  /// Static coordinates, matching check::SiteRecord / prune::PruneSite.
  int function = 0;
  int block = 0;
  int inst = 0;
  masm::FaultSiteKind kind = masm::FaultSiteKind::kGprWrite;
  /// Sink-reachability mask of the written location(s) just after the
  /// instruction (union over written XMM lanes for kXmmWrite).
  std::uint16_t sinks = 0;
  Prediction prediction = Prediction::kMasked;
  PredictionBasis basis = PredictionBasis::kFlow;
  /// Sync-section containing the instruction (check::sections id), for
  /// the per-section vulnerability profile.
  int section = -1;
};

/// Prediction counts — the whole-program static vulnerability profile
/// (also computed per function and per section).
struct FlowProfile {
  std::array<std::uint64_t, kPredictionCount> count{};

  std::uint64_t total() const {
    return count[0] + count[1] + count[2] + count[3];
  }
  std::uint64_t of(Prediction p) const {
    return count[static_cast<std::size_t>(p)];
  }
  void add(Prediction p) { ++count[static_cast<std::size_t>(p)]; }
};

struct FlowReport {
  /// Program order: functions in order, blocks in order, instructions in
  /// order — the same enumeration prune and the VM use.
  std::vector<FlowSite> sites;
  FlowProfile profile;                     // whole program
  std::vector<FlowProfile> by_function;    // indexed by function
  std::vector<FlowProfile> by_section;     // indexed by section id
  bool store_data_sites = false;

  /// sites index for static coordinates, -1 when that instruction
  /// registers no fault site (same layout as PruneReport::site_at_).
  int site_index(int function, int block, int inst) const {
    return site_at_[static_cast<std::size_t>(function)]
                   [static_cast<std::size_t>(block)]
                   [static_cast<std::size_t>(inst)];
  }
  const FlowSite* find(int function, int block, int inst) const {
    const int index = site_index(function, block, inst);
    return index < 0 ? nullptr : &sites[static_cast<std::size_t>(index)];
  }

  std::vector<std::vector<std::vector<std::int32_t>>> site_at_;
};

/// The four static analyses of one program under one store-data setting,
/// each run once; flow's predictions read the other three.
struct AnalysisSet {
  CheckReport check;
  prune::PruneReport prune;
  sections::SectionMap sections;
  FlowReport flow;
};

/// Runs the four analyses. A caller holding the program's check report
/// (a protected pipeline::Build's protect-check report) passes it as
/// `check`, and the set copies it instead of running check. Throws
/// std::invalid_argument if that report's store-data setting differs.
AnalysisSet analyze(const masm::AsmProgram& program,
                    const AnalysisOptions& options = {},
                    const CheckReport* check = nullptr);

/// analyze(program, options).flow: the propagation analysis, after the
/// check, prune and section runs its predictions fold in. Deterministic:
/// depends only on the program and options.
FlowReport flow_program(const masm::AsmProgram& program,
                        const AnalysisOptions& options = {});

/// Deterministic JSON view: profile counters (whole-program / per
/// function / per section) and the full site table.
telemetry::Json to_json(const FlowReport& report,
                        const masm::AsmProgram& program);

}  // namespace ferrum::check::flow
