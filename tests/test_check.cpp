// ferrum-check self-test: the verifier must accept every unmutated
// protected build (no false positives) and flag protection programs that
// were mutated by deleting or reordering a single protection instruction.
//
// Mutation classes:
//   - structural mutants (deleting a cmp/test/vptest/jcc/push/pop/setcc/
//     detect-trap/ALU-dup, or swapping a protection jcc with its flags
//     producer) break a protection idiom and MUST all be flagged;
//   - value-preserving mutants (deleting a redundant duplicate copy whose
//     destination already holds the same value number, a `sub $0` frame
//     dup, a re-capture of an identical SIMD lane, or a vpxor over
//     constant-zero masters) leave the residual program equivalent — the
//     checker is RIGHT not to flag them, and they are exempt below.
//
// "Flagged" means the mutant either produces a violation or strictly
// grows the unprotected-site set relative to the unmutated baseline —
// both surface through `ferrumc --lint` and the static coverage bench.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "pipeline/pipeline.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using pipeline::Technique;

// Blocks reachable from the entry following jumps, conditional jumps and
// fallthrough. Mutants in unreachable padding (e.g. dead trampolines the
// record pass never visits) cannot change observable coverage.
std::set<int> reachable_blocks(const masm::AsmFunction& fn) {
  std::set<int> seen{0};
  std::vector<int> work{0};
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    bool fall = true;
    for (const masm::AsmInst& inst : fn.blocks[static_cast<std::size_t>(b)]
                                         .insts) {
      if (inst.op == masm::Op::kJmp || inst.op == masm::Op::kJcc) {
        const int target = fn.block_index(inst.ops[0].label);
        if (target >= 0 && seen.insert(target).second) work.push_back(target);
        if (inst.op == masm::Op::kJmp) {
          fall = false;
          break;
        }
      } else if (inst.op == masm::Op::kRet ||
                 inst.op == masm::Op::kDetectTrap) {
        fall = false;
        break;
      }
    }
    if (fall && b + 1 < static_cast<int>(fn.blocks.size()) &&
        seen.insert(b + 1).second) {
      work.push_back(b + 1);
    }
  }
  return seen;
}

bool flagged(const check::CheckReport& mutant, const check::CheckReport& base) {
  return !mutant.violations.empty() ||
         mutant.unprotected_sites > base.unprotected_sites;
}

// Deleting these protection ops can leave a value-equivalent program
// (redundant copy, re-captured lane, zero-effect ALU) — exempt from the
// must-flag requirement.
bool value_preserving(masm::Op op) {
  switch (op) {
    case masm::Op::kMov:
    case masm::Op::kMovsd:
    case masm::Op::kMovq:
    case masm::Op::kPinsrq:
    case masm::Op::kVinserti128:
    case masm::Op::kVpxor:
    case masm::Op::kSub:  // frame adjustments duplicate `sub $0, %rsp`
      return true;
    default:
      return false;
  }
}

TEST(Check, CleanOnUnmutatedProtectedBuilds) {
  for (const auto& workload : workloads::all()) {
    for (Technique technique : {Technique::kNone, Technique::kIrEddi,
                                Technique::kHybrid, Technique::kFerrum}) {
      // pipeline::build runs the protect-check pass itself and throws on
      // violations; calling check_program again asserts cleanliness
      // independently of that wiring.
      const auto build = pipeline::build(workload.source, technique);
      const auto report = check::check_program(build.program);
      EXPECT_TRUE(report.clean())
          << workload.name << "/" << pipeline::technique_name(technique)
          << ": " << check::to_string(report.violations.front());
      EXPECT_GT(report.total_sites(), 0u) << workload.name;
      if (technique != Technique::kNone) {
        EXPECT_TRUE(build.check_report.clean()) << workload.name;
      }
    }
  }
}

TEST(Check, CleanAcrossFerrumAblations) {
  for (const auto& workload : workloads::all()) {
    for (int cfg = 0; cfg < 5; ++cfg) {
      pipeline::BuildOptions options;
      check::AnalysisOptions check_options;
      switch (cfg) {
        case 0: options.ferrum.use_simd = false; break;
        case 1: options.ferrum.simd_batch = 1; break;
        case 2: options.ferrum.force_stack_redundancy = true; break;
        case 3: options.ferrum.coverage_ratio = 0.5; break;
        case 4:
          options.ferrum.protect_store_data = true;
          check_options.store_data_sites = true;
          break;
      }
      const auto build =
          pipeline::build(workload.source, Technique::kFerrum, options);
      const auto report = check::check_program(build.program, check_options);
      EXPECT_TRUE(report.clean())
          << workload.name << " cfg" << cfg << ": "
          << check::to_string(report.violations.front());
    }
  }
}

TEST(Check, DeletionMutantsFlagged) {
  // Deterministic stride keeps the sweep inside a tier-1 budget while
  // still sampling every workload and op class; structural mutants in
  // the sample must be flagged without exception. Every second deletion
  // samples 4,450 mutants, 2,167 of them structural.
  constexpr int kStride = 2;
  int sampled = 0;
  int structural = 0;
  int flagged_total = 0;
  std::map<std::string, std::pair<int, int>> by_op;  // op -> {flagged, total}
  int counter = 0;
  for (const auto& workload : workloads::all()) {
    const auto build = pipeline::build(workload.source, Technique::kFerrum);
    const auto base = check::check_program(build.program);
    ASSERT_TRUE(base.clean()) << workload.name;
    for (std::size_t f = 0; f < build.program.functions.size(); ++f) {
      const masm::AsmFunction& fn = build.program.functions[f];
      const std::set<int> reach = reachable_blocks(fn);
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        if (reach.count(static_cast<int>(b)) == 0) continue;
        for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
          const masm::AsmInst& victim = fn.blocks[b].insts[i];
          if (victim.origin != masm::InstOrigin::kProtection) continue;
          if (counter++ % kStride != 0) continue;
          masm::AsmProgram mutant = build.program;
          auto& insts = mutant.functions[f].blocks[b].insts;
          insts.erase(insts.begin() + static_cast<std::ptrdiff_t>(i));
          const auto report = check::check_program(mutant);
          const bool hit = flagged(report, base);
          ++sampled;
          flagged_total += hit ? 1 : 0;
          auto& tally = by_op[masm::op_mnemonic(victim.op)];
          tally.first += hit ? 1 : 0;
          ++tally.second;
          if (!value_preserving(victim.op)) {
            ++structural;
            EXPECT_TRUE(hit)
                << workload.name << " " << fn.name << "/b" << b << "#" << i
                << ": deleting `" << victim.to_string()
                << "` was not flagged";
          }
        }
      }
    }
  }
  // Sanity on the sweep itself: a broad sample with plenty of
  // structural mutants (duplicate copies dominate by count, so the
  // structural share is well under half but still large).
  EXPECT_GT(sampled, 500);
  EXPECT_GT(structural, sampled / 3);
  // Value-preserving deletions are a small minority of all mutants, so
  // the overall detection rate stays high even with the exemption.
  EXPECT_GE(flagged_total * 10, sampled * 9)
      << "flagged " << flagged_total << "/" << sampled;
  // The sweep must have exercised the core check shapes.
  for (const char* op : {"cmp", "j", "vptest"}) {
    EXPECT_GT(by_op[op].second, 0) << "no " << op << " mutants sampled";
  }
}

TEST(Check, ReorderMutantsFlagged) {
  // Swapping a protection jcc with the flags producer it consumes
  // detaches the detect branch from its check; every such reorder must
  // be flagged.
  constexpr int kStride = 3;
  int sampled = 0;
  int counter = 0;
  for (const auto& workload : workloads::all()) {
    const auto build = pipeline::build(workload.source, Technique::kFerrum);
    const auto base = check::check_program(build.program);
    ASSERT_TRUE(base.clean()) << workload.name;
    for (std::size_t f = 0; f < build.program.functions.size(); ++f) {
      const masm::AsmFunction& fn = build.program.functions[f];
      const std::set<int> reach = reachable_blocks(fn);
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        if (reach.count(static_cast<int>(b)) == 0) continue;
        for (std::size_t i = 1; i < fn.blocks[b].insts.size(); ++i) {
          const masm::AsmInst& jcc = fn.blocks[b].insts[i];
          if (jcc.origin != masm::InstOrigin::kProtection) continue;
          if (jcc.op != masm::Op::kJcc) continue;
          const masm::Op producer = fn.blocks[b].insts[i - 1].op;
          if (producer != masm::Op::kCmp && producer != masm::Op::kTest &&
              producer != masm::Op::kVptest) {
            continue;
          }
          if (counter++ % kStride != 0) continue;
          masm::AsmProgram mutant = build.program;
          auto& insts = mutant.functions[f].blocks[b].insts;
          std::swap(insts[i - 1], insts[i]);
          const auto report = check::check_program(mutant);
          ++sampled;
          EXPECT_TRUE(flagged(report, base))
              << workload.name << " " << fn.name << "/b" << b << "#" << i
              << ": swapping `" << fn.blocks[b].insts[i - 1].to_string()
              << "` with `" << jcc.to_string() << "` was not flagged";
        }
      }
    }
  }
  EXPECT_GT(sampled, 100);
}

TEST(Check, ViolationsRenderAndExportOnMutant) {
  // Delete the first protection cmp of a ferrum build and confirm the
  // violation surfaces through to_string and the JSON artifact.
  const auto& workload = workloads::by_name("bfs");
  auto build = pipeline::build(workload.source, Technique::kFerrum);
  bool mutated = false;
  for (auto& fn : build.program.functions) {
    for (auto& block : fn.blocks) {
      for (std::size_t i = 0; i < block.insts.size() && !mutated; ++i) {
        if (block.insts[i].origin == masm::InstOrigin::kProtection &&
            block.insts[i].op == masm::Op::kCmp) {
          block.insts.erase(block.insts.begin() +
                            static_cast<std::ptrdiff_t>(i));
          mutated = true;
        }
      }
      if (mutated) break;
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated);
  const auto report = check::check_program(build.program);
  ASSERT_FALSE(report.clean());
  const std::string rendered = check::to_string(report.violations.front());
  EXPECT_NE(rendered.find(check::violation_kind_name(
                report.violations.front().kind)),
            std::string::npos);

  telemetry::Json json = check::to_json(report);
  EXPECT_EQ(json["schema"].as_string(), "ferrum.check.v1");
  EXPECT_EQ(json["violations"].size(), report.violations.size());
  EXPECT_EQ(json["site_counts"]["unprotected"].as_uint(),
            report.unprotected_sites);
  // Deterministic: dumping twice gives byte-identical artifacts.
  EXPECT_EQ(json.dump(), check::to_json(report).dump());
}

}  // namespace
}  // namespace ferrum
