// ferrum-prune self-test: the backward liveness analysis may only call a
// bit dead when flipping it provably cannot change the architectural
// outcome. Two layers of evidence:
//
//   - transfer-function unit tests on hand-written MiniASM fragments pin
//     the per-opcode semantics (partial-width GPR writes, setcc low-byte
//     kills, flags consumption by one condition, jcc-to-fallthrough
//     branch sites, movq upper-lane zeroing, caller-saved clobbers
//     across calls);
//   - a dynamic cross-check injects a deterministic sample of
//     statically-dead (dynamic site, bit) pairs on every Table II
//     workload and requires each run to be architecturally identical to
//     the golden run (status, output, return value, step count, site
//     count). bench/prune_smoke does the same sweep exhaustively on
//     compact kernels; this test covers real workload code shapes.
//
// Plus the guard rails: prune mode refuses multi-fault campaigns and
// store-data configuration mismatches with std::invalid_argument.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/prune.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/executor.h"
#include "masm/fault_site.h"
#include "masm/parser.h"
#include "pipeline/pipeline.h"
#include "vm/engine.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using check::prune::kDeadClass;
using check::prune::PruneReport;
using check::prune::PruneSite;
using pipeline::Technique;

PruneReport prune_text(const char* text) {
  DiagEngine diags;
  const masm::AsmProgram program = masm::parse_program(text, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return check::prune::prune_program(program);
}

// ------------------------------------------------ transfer functions --

// A 64-bit immediate load whose value is only ever observed through %al:
// the merged-write flip space keeps bits 0-7 live and bits 8-63 dead.
TEST(PruneTransfer, PartialWidthReadKillsUpperBits) {
  const PruneReport prune = prune_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$12345, %rax\n"
      "\tmovzbq\t%al, %rdi\n"
      "\tcall\tprint_int\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const PruneSite* mov = prune.find(0, 0, 0);
  ASSERT_NE(mov, nullptr);
  EXPECT_EQ(mov->kind, masm::FaultSiteKind::kGprWrite);
  EXPECT_EQ(mov->bit_space, 64);
  EXPECT_EQ(mov->dead_bits(), 56);
  for (int bit = 0; bit < 8; ++bit) EXPECT_FALSE(mov->bit_dead(bit));
  for (int bit = 8; bit < 64; ++bit) EXPECT_TRUE(mov->bit_dead(bit));

  // The zero-extended %rdi is fully consumed by print_int: nothing dead.
  const PruneSite* movz = prune.find(0, 0, 1);
  ASSERT_NE(movz, nullptr);
  EXPECT_EQ(movz->dead_bits(), 0);
}

// setcc writes one byte; the upper 56 bits of the merged destination
// pass through and die when nothing downstream reads them. The cmp's
// flags site keeps only the zero flag alive (je/sete read kZf), so
// sf/of/cf are dead.
TEST(PruneTransfer, SetccAndSingleConditionFlags) {
  const PruneReport prune = prune_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$3, %rdi\n"
      "\tcmpq\t$3, %rdi\n"
      "\tsete\t%al\n"
      "\tmovzbq\t%al, %rdi\n"
      "\tcall\tprint_int\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const PruneSite* flags = prune.find(0, 0, 1);
  ASSERT_NE(flags, nullptr);
  EXPECT_EQ(flags->kind, masm::FaultSiteKind::kFlagsWrite);
  EXPECT_EQ(flags->bit_space, 4);
  EXPECT_EQ(flags->dead_bits(), 3);
  EXPECT_FALSE(flags->bit_dead(0));  // zf feeds sete
  EXPECT_TRUE(flags->bit_dead(1));   // sf
  EXPECT_TRUE(flags->bit_dead(2));   // of
  EXPECT_TRUE(flags->bit_dead(3));   // cf

  const PruneSite* setcc = prune.find(0, 0, 2);
  ASSERT_NE(setcc, nullptr);
  EXPECT_EQ(setcc->kind, masm::FaultSiteKind::kGprWrite);
  EXPECT_EQ(setcc->dead_bits(), 56);
  EXPECT_FALSE(setcc->bit_dead(0));
  EXPECT_TRUE(setcc->bit_dead(8));
}

// A jcc whose taken edge resolves to its own fall-through block: the
// branch-decision flip cannot change the next pc, so the site is fully
// dead. The same jcc aimed past an intervening block stays live.
TEST(PruneTransfer, BranchToFallthroughIsDead) {
  const PruneReport degenerate = prune_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$5, %rdi\n"
      "\tcmpq\t$0, %rdi\n"
      "\tje\t.join\n"
      ".join:\n"
      "\tcall\tprint_int\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const PruneSite* branch = degenerate.find(0, 0, 2);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->kind, masm::FaultSiteKind::kBranchDecision);
  EXPECT_EQ(branch->bit_space, 1);
  EXPECT_TRUE(branch->fully_dead());
  EXPECT_EQ(branch->class_id, kDeadClass);

  const PruneReport real = prune_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$5, %rdi\n"
      "\tcmpq\t$0, %rdi\n"
      "\tje\t.skip\n"
      ".body:\n"
      "\tcall\tprint_int\n"
      ".skip:\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const PruneSite* taken = real.find(0, 0, 2);
  ASSERT_NE(taken, nullptr);
  EXPECT_FALSE(taken->fully_dead());
  EXPECT_EQ(taken->dead_bits(), 0);
}

// movq to an xmm register zeroes lane 1, so its site spans two lanes;
// when only the low double is ever read (movsd + print_f64), the whole
// upper lane of the flip space is dead.
TEST(PruneTransfer, MovqUpperLaneDead) {
  const PruneReport prune = prune_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$4, %rax\n"
      "\tmovq\t%rax, %xmm1\n"
      "\tmovsd\t%xmm1, %xmm0\n"
      "\tcall\tprint_f64\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const PruneSite* movq = prune.find(0, 0, 1);
  ASSERT_NE(movq, nullptr);
  EXPECT_EQ(movq->kind, masm::FaultSiteKind::kXmmWrite);
  EXPECT_EQ(movq->bit_space, 128);
  EXPECT_EQ(movq->dead_bits(), 64);
  EXPECT_FALSE(movq->bit_dead(0));
  EXPECT_FALSE(movq->bit_dead(63));
  for (int bit = 64; bit < 128; ++bit) EXPECT_TRUE(movq->bit_dead(bit));
}

// Interprocedural caller-saved clobber: a value written before a call
// whose callee surely overwrites it is fully dead, while a register the
// callee never touches stays live across the call.
TEST(PruneTransfer, CallClobberVersusPassThrough) {
  const PruneReport clobbered = prune_text(
      "clob:\n"
      ".entry:\n"
      "\tmovq\t$1, %rax\n"
      "\tret\n"
      "main:\n"
      ".entry:\n"
      "\tmovq\t$7, %rax\n"
      "\tcall\tclob\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const PruneSite* dead = clobbered.find(1, 0, 0);
  ASSERT_NE(dead, nullptr);
  EXPECT_TRUE(dead->fully_dead());
  EXPECT_EQ(dead->class_id, kDeadClass);

  const PruneReport preserved = prune_text(
      "keep:\n"
      ".entry:\n"
      "\tmovq\t$1, %rax\n"
      "\tret\n"
      "main:\n"
      ".entry:\n"
      "\tmovq\t$7, %rbx\n"
      "\tcall\tkeep\n"
      "\tmovq\t%rbx, %rdi\n"
      "\tcall\tprint_int\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const PruneSite* live = preserved.find(1, 0, 0);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->dead_bits(), 0);
}

// ---------------------------------------------- dynamic cross-check --

/// Injects a deterministic sample of statically-dead (dynamic site, bit)
/// pairs and requires bit-identical architectural state vs. golden.
/// Also cross-validates the static site table against the VM's dynamic
/// enumeration: every registered dynamic site must map to a prune site.
void expect_dead_bits_invisible(const std::string& label,
                                const masm::AsmProgram& program,
                                std::uint64_t sample_cap) {
  const PruneReport prune = check::prune::prune_program(program);
  const vm::VmOptions options;
  const fault::Golden prepared(program, options, fault::GoldenRecord::kSiteMap);
  const vm::VmResult& golden = prepared.result;
  const std::vector<std::int32_t>& site_pcs = prepared.site_pcs;
  const auto& code = prepared.decoded.code();

  // Pass 1: count dead pairs (and check the dynamic->static mapping).
  std::uint64_t dead_pairs = 0;
  for (std::uint64_t id = 0; id < golden.fi_sites; ++id) {
    const vm::DecodedInst& d =
        code[static_cast<std::size_t>(site_pcs[static_cast<std::size_t>(id)])];
    const int s = prune.site_index(d.fidx, d.bidx, d.iidx);
    ASSERT_GE(s, 0) << label << ": dynamic site " << id
                    << " has no static prune record";
    dead_pairs += static_cast<std::uint64_t>(
        prune.sites[static_cast<std::size_t>(s)].dead_bits());
  }
  ASSERT_GT(dead_pairs, 0u) << label << ": no dead bits — check is vacuous";
  const std::uint64_t stride = std::max<std::uint64_t>(1, dead_pairs / sample_cap);

  // Pass 2: inject every stride-th dead pair.
  const vm::VmOptions faulty = prepared.faulty(options);
  vm::Engine engine(prepared.decoded, faulty);
  std::uint64_t index = 0;
  std::uint64_t checked = 0;
  for (std::uint64_t id = 0; id < golden.fi_sites; ++id) {
    const vm::DecodedInst& d =
        code[static_cast<std::size_t>(site_pcs[static_cast<std::size_t>(id)])];
    const int s = prune.site_index(d.fidx, d.bidx, d.iidx);
    const PruneSite& site = prune.sites[static_cast<std::size_t>(s)];
    for (int bit = 0; bit < site.bit_space; ++bit) {
      if (!site.bit_dead(bit)) continue;
      if (index++ % stride != 0) continue;
      vm::FaultSpec spec;
      spec.site = id;
      spec.bit = bit;
      const vm::VmResult run =
          engine.run_from(prepared.ckpts, faulty, &spec, 1);
      ++checked;
      ASSERT_EQ(run.status, golden.status) << label << " site " << id
                                           << " bit " << bit;
      ASSERT_EQ(run.output, golden.output) << label << " site " << id
                                           << " bit " << bit;
      ASSERT_EQ(run.return_value, golden.return_value)
          << label << " site " << id << " bit " << bit;
      ASSERT_EQ(run.steps, golden.steps) << label << " site " << id
                                         << " bit " << bit;
      ASSERT_EQ(run.fi_sites, golden.fi_sites)
          << label << " site " << id << " bit " << bit;
    }
  }
  ASSERT_GT(checked, 0u) << label;
}

TEST(PruneDynamic, DeadBitsInvisibleOnAllWorkloads) {
  for (const auto& workload : workloads::all()) {
    const auto build = pipeline::build(workload.source, Technique::kNone);
    expect_dead_bits_invisible(workload.name + "/none", build.program,
                               /*sample_cap=*/600);
  }
}

TEST(PruneDynamic, DeadBitsInvisibleUnderFerrumProtection) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kFerrum);
  expect_dead_bits_invisible("bfs/ferrum", build.program,
                             /*sample_cap=*/600);
}

/// One pruned-audit pin: what the pilot plan chose and what the
/// extrapolated audit reported.
struct AuditPin {
  const char* name;
  std::uint64_t pilot_keys;
  std::uint64_t pilot_injections;
  std::uint64_t extrapolated_probes;
  std::uint64_t dead_probes;
  /// injections, detected, crashed, benign.
  std::uint64_t outcomes[4];
  std::size_t escapes;
};

TEST(PruneDynamic, PrunedAuditsPinnedOnFerrumWorkloads) {
  // The pilot plan picks one pilot per (class, effective bit, stratum)
  // in probe order. How the plan finds a probe's pilot may change; which
  // pilots it picks, and so every count below, may not.
  const AuditPin pins[] = {
      {"backprop", 60521, 60521, 1045836, 217667,
       {1324024, 1101111, 3427, 219486}, 0},
      {"bfs", 7832, 7832, 114786, 19002,
       {141620, 122180, 339, 19101}, 0},
      {"pathfinder", 34367, 34367, 566595, 97126,
       {698088, 599239, 1585, 97264}, 0},
      {"lud", 13129, 13129, 203666, 38301,
       {255096, 216174, 511, 38411}, 0},
      {"needle", 27464, 27464, 429439, 68269,
       {525172, 453980, 1131, 70061}, 0},
      {"knn", 20520, 20520, 350302, 80018,
       {450840, 369206, 1266, 80368}, 0},
      {"kmeans", 78213, 78213, 1322261, 237150,
       {1637624, 1393143, 5169, 239312}, 0},
      {"particlefilter", 90568, 90568, 1568956, 312348,
       {1971872, 1652583, 5585, 313704}, 0},
  };
  for (const AuditPin& pin : pins) {
    const auto build = pipeline::build(workloads::by_name(pin.name).source,
                                       Technique::kFerrum);
    const PruneReport prune = check::prune::prune_program(build.program);
    fault::AuditOptions options;
    options.prune = &prune;
    const fault::AuditReport report =
        fault::audit_program(build.program, options);
    EXPECT_EQ(report.prune.pilot_keys, pin.pilot_keys) << pin.name;
    EXPECT_EQ(report.prune.pilot_injections, pin.pilot_injections)
        << pin.name;
    EXPECT_EQ(report.prune.extrapolated_probes, pin.extrapolated_probes)
        << pin.name;
    EXPECT_EQ(report.prune.dead_probes, pin.dead_probes) << pin.name;
    EXPECT_EQ(report.injections, pin.outcomes[0]) << pin.name;
    EXPECT_EQ(report.detected, pin.outcomes[1]) << pin.name;
    EXPECT_EQ(report.crashed, pin.outcomes[2]) << pin.name;
    EXPECT_EQ(report.benign, pin.outcomes[3]) << pin.name;
    EXPECT_EQ(report.escapes.size(), pin.escapes) << pin.name;
  }
}

// --------------------------------------------------------- guard rails --

TEST(PruneGuards, RejectsMultiFaultCampaigns) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kNone);
  const PruneReport prune = check::prune::prune_program(build.program);
  fault::CampaignOptions options;
  options.trials = 4;
  options.faults_per_run = 2;
  options.prune = &prune;
  EXPECT_THROW(fault::run_campaign(build.program, options),
               std::invalid_argument);
}

TEST(PruneGuards, RejectsStoreDataMismatch) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kNone);
  // Report computed without store-data sites, campaign/audit with them:
  // the site spaces disagree, so prune mode must refuse to extrapolate.
  const PruneReport prune = check::prune::prune_program(build.program);

  fault::CampaignOptions campaign;
  campaign.trials = 4;
  campaign.vm.fault_store_data = true;
  campaign.prune = &prune;
  EXPECT_THROW(fault::run_campaign(build.program, campaign),
               std::invalid_argument);

  fault::AuditOptions audit;
  audit.probe_bits = {17};
  audit.vm.fault_store_data = true;
  audit.prune = &prune;
  EXPECT_THROW(fault::audit_program(build.program, audit),
               std::invalid_argument);
}

}  // namespace
}  // namespace ferrum
