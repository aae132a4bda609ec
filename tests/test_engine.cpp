// Equivalence suite for the snapshot/fast-forward execution engine
// (src/vm/engine.h). The engine's contract is that checkpointing is pure
// observability: for any stride and any worker count, a campaign or audit
// produces the byte-identical deterministic result that cold execution
// does. These tests assert that contract — over every workload, every
// technique, multi-fault/burst/store-data configurations, and down at the
// single-run level where each VmResult field is compared directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/prune.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/step_budget.h"
#include "fuzz_program.h"
#include "masm/masm.h"
#include "masm/parser.h"
#include "masm/verifier.h"
#include "pipeline/pipeline.h"
#include "support/rng.h"
#include "support/source_location.h"
#include "telemetry/export.h"
#include "vm/engine.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using pipeline::Technique;

constexpr Technique kAllTechniques[] = {Technique::kNone, Technique::kIrEddi,
                                        Technique::kHybrid,
                                        Technique::kFerrum};

// A stride far past any workload's dynamic site count: only the site-0
// checkpoint exists, so every trial restores the initial state (the
// degenerate fast-forward that must still match cold execution).
constexpr int kHugeStride = 1 << 30;

constexpr const char* kSmallProgram = R"(
  int main() {
    int s = 0;
    for (int i = 0; i < 12; i++) s += i * i;
    print_int(s);
    return 0;
  })";

/// The deterministic section of a campaign over a golden run captured at
/// `stride`, as the BENCH artifacts serialise it. Byte-equality of these
/// strings is the "byte-identical campaign JSON" contract.
std::string campaign_json(const masm::AsmProgram& program,
                          fault::CampaignOptions options, int stride,
                          int jobs) {
  const fault::Golden golden(program, options.vm,
                             fault::GoldenRecord::kNothing, stride);
  options.jobs = jobs;
  return telemetry::to_json(fault::run_campaign(golden, options)).dump();
}

std::string audit_json(const masm::AsmProgram& program,
                       fault::AuditOptions options, int stride, int jobs) {
  const fault::Golden golden(program, options.vm,
                             fault::GoldenRecord::kNothing, stride);
  options.jobs = jobs;
  return telemetry::to_json(fault::audit_program(golden, options)).dump();
}

/// Field-by-field VmResult comparison — every deterministic field,
/// including the landing record. Trace/profile/timing are excluded: only
/// hooked runs carry them.
void expect_same_result(const vm::VmResult& want, const vm::VmResult& got,
                        const std::string& context) {
  EXPECT_EQ(want.status, got.status) << context;
  EXPECT_EQ(want.output, got.output) << context;
  EXPECT_EQ(want.return_value, got.return_value) << context;
  EXPECT_EQ(want.steps, got.steps) << context;
  EXPECT_EQ(want.fi_sites, got.fi_sites) << context;
  EXPECT_EQ(want.fault_injected, got.fault_injected) << context;
  EXPECT_EQ(want.fault_step, got.fault_step) << context;
  ASSERT_EQ(want.fault_landing.has_value(), got.fault_landing.has_value())
      << context;
  if (want.fault_landing.has_value()) {
    EXPECT_EQ(want.fault_landing->kind, got.fault_landing->kind) << context;
    EXPECT_EQ(want.fault_landing->origin, got.fault_landing->origin)
        << context;
    EXPECT_EQ(want.fault_landing->op, got.fault_landing->op) << context;
    EXPECT_EQ(want.fault_landing->function, got.fault_landing->function)
        << context;
    EXPECT_EQ(want.fault_landing->block, got.fault_landing->block) << context;
    EXPECT_EQ(want.fault_landing->inst, got.fault_landing->inst) << context;
  }
}

/// FastForwardStats::exits, indexed by ExitStatus.
using ExitCounts = std::array<std::uint64_t, vm::kExitStatusCount>;

std::uint64_t sum_of(const ExitCounts& counts) {
  std::uint64_t total = 0;
  for (std::uint64_t count : counts) total += count;
  return total;
}

TEST(EngineEquivalence, CampaignAllWorkloadsAllTechniques) {
  // The broad sweep: every workload x every technique, cold (stride 0)
  // vs stride 1 (maximum checkpoint density, exercises thinning on the
  // larger workloads) vs the default 64 vs a degenerate huge stride.
  for (const auto& w : workloads::all()) {
    for (Technique technique : kAllTechniques) {
      auto build = pipeline::build(w.source, technique);
      fault::CampaignOptions options;
      options.trials = 10;
      options.seed = 0xc0ffee;
      const std::string cold = campaign_json(build.program, options, 0, 2);
      for (int stride : {1, 64, kHugeStride}) {
        EXPECT_EQ(cold, campaign_json(build.program, options, stride, 2))
            << w.name << " / " << pipeline::technique_name(technique)
            << " stride=" << stride;
      }
    }
  }
}

TEST(EngineEquivalence, CampaignStrideJobsCross) {
  // The full stride x jobs cross on one cell: the serial cold result is
  // the single source of truth for every (stride, jobs) combination.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 48;
  options.seed = 0xdecaf;
  const std::string truth = campaign_json(build.program, options, 0, 1);
  for (int stride : {0, 1, 64, kHugeStride}) {
    for (int jobs : {1, 2, 8}) {
      EXPECT_EQ(truth, campaign_json(build.program, options, stride, jobs))
          << "stride=" << stride << " jobs=" << jobs;
    }
  }
}

TEST(EngineEquivalence, CampaignMultiFaultBurstStoreData) {
  // The extended fault model rides through checkpoints too: several
  // faults per run (fast-forward anchors on the dynamically first site),
  // burst flips, and store-data sites (which change the site numbering
  // the checkpoints are indexed by).
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 64;
  options.faults_per_run = 2;
  options.burst = 2;
  options.vm.fault_store_data = true;
  const std::string truth = campaign_json(build.program, options, 0, 1);
  for (int stride : {1, 64, kHugeStride}) {
    for (int jobs : {1, 8}) {
      EXPECT_EQ(truth, campaign_json(build.program, options, stride, jobs))
          << "stride=" << stride << " jobs=" << jobs;
    }
  }
}

TEST(EngineEquivalence, CampaignColdFallbackWhenTimingNeedsPrefix) {
  // Timing (like profiling and tracing) accumulates over the whole
  // execution, so a fast-forwarded trial cannot reproduce it — the
  // campaign must fall back to cold trials and say so in the telemetry.
  auto build = pipeline::build(kSmallProgram, Technique::kHybrid);
  fault::CampaignOptions options;
  options.trials = 32;
  options.vm.timing = true;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_EQ(result.ckpt.stride, 0);  // cold: stride ignored, not misapplied
  EXPECT_EQ(result.ckpt.ff.restores, 0u);
  const auto cold = fault::run_campaign(
      fault::Golden(build.program, options.vm, fault::GoldenRecord::kNothing,
                    /*ckpt_stride=*/0),
      options);
  EXPECT_EQ(telemetry::to_json(result).dump(),
            telemetry::to_json(cold).dump());
}

TEST(EngineEquivalence, AuditAllTechniquesStrideJobsCross) {
  // The audit probes EVERY dynamic site, so equivalence here covers each
  // checkpoint interval end-to-end — including the escape list, whose
  // site order must survive any stride x jobs combination. kNone keeps
  // the escape list non-empty; the protected techniques keep it empty.
  for (Technique technique : kAllTechniques) {
    auto build = pipeline::build(kSmallProgram, technique);
    fault::AuditOptions options;
    options.probe_bits = {0, 17, 63};
    const std::string truth = audit_json(build.program, options, 0, 1);
    if (technique == Technique::kNone) {
      ASSERT_NE(truth.find("\"escapes\""), std::string::npos);
    }
    for (int stride : {1, 64, kHugeStride}) {
      for (int jobs : {1, 2, 8}) {
        EXPECT_EQ(truth, audit_json(build.program, options, stride, jobs))
            << pipeline::technique_name(technique) << " stride=" << stride
            << " jobs=" << jobs;
      }
    }
  }
}

TEST(EngineEquivalence, AuditRealWorkload) {
  // One real workload audited cold vs checkpointed. Cold audits are
  // quadratic (sites x steps), so this uses the smallest workload and a
  // single probe bit; the checkpointed path is the one that makes the
  // bigger audits in bench/ feasible at all.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kNone);
  fault::AuditOptions options;
  options.probe_bits = {17};
  const std::string cold = audit_json(build.program, options, 0, 8);
  EXPECT_EQ(cold, audit_json(build.program, options, 64, 8));
}

TEST(Engine, SingleRunMatchesColdVmRun) {
  // Field-by-field equivalence at the single-trial level, where a
  // mismatch is still attributable: status, output, return value, step
  // and site counters, injection bookkeeping and the landing record.
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  const vm::VmResult golden = vm::run(build.program);
  ASSERT_TRUE(golden.ok());
  ASSERT_GT(golden.fi_sites, 60u);

  vm::VmOptions options;
  options.max_steps = fault::faulty_step_budget(golden.steps);
  const vm::PredecodedProgram decoded(build.program);
  vm::CheckpointSet ckpts;
  vm::Engine engine(decoded, options);
  ASSERT_TRUE(engine.run_capturing(options, 8, ckpts).ok());

  vm::FaultSpec early{/*site=*/5, /*bit=*/3};
  vm::FaultSpec late{/*site=*/60, /*bit=*/63};
  vm::FaultSpec burst{/*site=*/33, /*bit=*/12, /*burst=*/3};
  const std::vector<std::vector<vm::FaultSpec>> cases = {
      {early}, {late}, {burst}, {late, early}};
  for (const auto& faults : cases) {
    const vm::VmResult cold = vm::run_multi(build.program, options, faults);
    const vm::VmResult warm =
        engine.run_from(ckpts, options, faults.data(), faults.size());
    expect_same_result(cold, warm, "warm vs cold");
  }
}

TEST(Engine, StartStateFallThroughMatchesColdRuns) {
  // The restore-bound `none` path: when the dynamically first fault site
  // precedes the first post-start checkpoint, the nearest snapshot is
  // checkpoint 0, whose state IS the cold start. The engine skips the
  // full restore and replays the golden prefix directly — the result
  // must stay byte-identical to a cold run, and the restore counter must
  // not move for any of these trials.
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  const vm::VmResult golden = vm::run(build.program);
  ASSERT_TRUE(golden.ok());

  vm::VmOptions options;
  options.max_steps = fault::faulty_step_budget(golden.steps);
  const vm::PredecodedProgram decoded(build.program);
  vm::CheckpointSet ckpts;
  vm::Engine engine(decoded, options);
  ASSERT_TRUE(engine.run_capturing(options, 16, ckpts).ok());
  ASSERT_GT(ckpts.size(), 1u);

  for (std::uint64_t site : {0u, 1u, 7u, 15u}) {
    const vm::Checkpoint& resume = ckpts.nearest_at_or_before(site);
    ASSERT_EQ(resume.fi_sites, 0u);  // these sites precede checkpoint 1
    ASSERT_EQ(resume.steps, 0u);
    for (int bit : {0, 31, 63}) {
      vm::FaultSpec fault;
      fault.site = site;
      fault.bit = bit;
      const vm::VmResult cold = vm::run_multi(build.program, options, {fault});
      const vm::VmResult warm = engine.run_from(ckpts, options, &fault, 1);
      expect_same_result(cold, warm,
                         "site=" + std::to_string(site) +
                             " bit=" + std::to_string(bit));
    }
  }
  EXPECT_EQ(engine.stats().restores, 0u);  // every trial fell through
  EXPECT_GT(engine.stats().trials, 0u);
}

TEST(Engine, FastForwardStatsAccounting) {
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  const vm::VmResult golden = vm::run(build.program);
  ASSERT_TRUE(golden.ok());

  vm::VmOptions options;
  options.max_steps = fault::faulty_step_budget(golden.steps);
  const vm::PredecodedProgram decoded(build.program);
  vm::CheckpointSet ckpts;
  vm::Engine engine(decoded, options);
  ASSERT_TRUE(engine.run_capturing(options, 8, ckpts).ok());
  ASSERT_GT(ckpts.size(), 1u);
  EXPECT_GT(ckpts.snapshot_bytes(), 0u);

  const int n = 24;
  std::uint64_t expected_restores = 0;
  // The capturing run is a one-run walk that never faults: all of its
  // steps are prefix.
  std::uint64_t expected_prefix = golden.steps;
  ExitCounts expected_exits{};
  expected_exits[static_cast<std::size_t>(vm::ExitStatus::kOk)] = 1;  // golden
  for (int i = 0; i < n; ++i) {
    vm::FaultSpec fault;
    fault.site = static_cast<std::uint64_t>(i * 3);
    fault.bit = i % 64;
    // Trials whose nearest checkpoint is checkpoint 0 (the start state)
    // fall through to a cold start instead of a full restore, so only
    // trials anchored on a later checkpoint move the restore counter.
    const vm::Checkpoint& resume = ckpts.nearest_at_or_before(fault.site);
    if (resume.fi_sites != 0 || resume.steps != 0) ++expected_restores;
    const vm::VmResult result = engine.run_from(ckpts, options, &fault, 1);
    ++expected_exits[static_cast<std::size_t>(result.status)];
    ASSERT_TRUE(result.fault_injected);
    // A one-trial walk: the walk runs from the checkpoint to the fork
    // point, the trial from there through its fault.
    expected_prefix += result.fault_step - resume.steps;
  }
  const vm::FastForwardStats& stats = engine.stats();
  // The capturing run counts as a trial too (no restore).
  EXPECT_EQ(stats.trials, static_cast<std::uint64_t>(n) + 1);
  // Exit-kind ledger: one count per finished run, under its status.
  EXPECT_EQ(stats.exits, expected_exits);
  EXPECT_EQ(sum_of(stats.exits), stats.trials);
  EXPECT_GT(stats.exits[static_cast<std::size_t>(vm::ExitStatus::kDetected)],
            0u);
  EXPECT_EQ(stats.restores, expected_restores);
  EXPECT_GT(expected_restores, 0u);  // late sites genuinely restored
  EXPECT_LT(expected_restores, static_cast<std::uint64_t>(n));  // ckpt-0 fell through
  EXPECT_GT(stats.steps_skipped, 0u);  // late sites skip golden prefix
  EXPECT_GT(stats.steps_executed, 0u);
  EXPECT_GE(stats.ratio(), 0.0);
  EXPECT_LE(stats.ratio(), 1.0);

  // Trial-cost ledger: executed steps split at each run's first fault,
  // and the walk's steps to the fork points before them. A lone trial
  // never forks.
  EXPECT_EQ(stats.prefix_steps + stats.post_fault_steps, stats.steps_executed);
  EXPECT_EQ(stats.walk_steps + stats.prefix_steps, expected_prefix);
  EXPECT_EQ(stats.forks, 0u);
  EXPECT_GT(stats.prefix_steps, 0u);
  EXPECT_GT(stats.post_fault_steps, 0u);
  EXPECT_LE(stats.unrejoined_halts, static_cast<std::uint64_t>(n));
  EXPECT_LE(stats.unrejoined_halt_steps, stats.post_fault_steps);

  // Checkpoint traffic: every rejoin follows a comparison, and with the
  // default arena every restore and compare moves whole pages.
  EXPECT_GE(stats.compares, stats.rejoins);
  EXPECT_GT(stats.compares, 0u);
  EXPECT_GT(stats.restore_bytes, 0u);
  EXPECT_EQ(stats.restore_bytes % vm::kCkptPageSize, 0u);
  EXPECT_EQ(stats.compare_bytes % vm::kCkptPageSize, 0u);

  // The same trials as one walk keep the same identity, and their
  // post-fault work is the lone trials': runs differ only in where the
  // prefix is paid (the shared walk lands in walk_steps).
  std::vector<vm::FaultSpec> faults(n);
  std::vector<vm::Engine::Trial> lanes(n);
  for (int i = 0; i < n; ++i) {
    faults[i].site = static_cast<std::uint64_t>(i * 3);
    faults[i].bit = i % 64;
    lanes[i] = {&faults[i], 1};
  }
  vm::Engine walk_engine(decoded, options);
  walk_engine.walk(&ckpts, options, lanes.data(), lanes.size(),
                    [](std::size_t, vm::VmResult&) {});
  const vm::FastForwardStats& walked = walk_engine.stats();
  EXPECT_EQ(walked.prefix_steps + walked.post_fault_steps,
            walked.steps_executed);
  EXPECT_EQ(walked.post_fault_steps, stats.post_fault_steps);
  EXPECT_EQ(walked.unrejoined_halts, stats.unrejoined_halts);
  EXPECT_EQ(walked.unrejoined_halt_steps, stats.unrejoined_halt_steps);
  EXPECT_GE(walked.compares, walked.rejoins);
  EXPECT_EQ(walked.restore_bytes % vm::kCkptPageSize, 0u);
  EXPECT_EQ(walked.compare_bytes % vm::kCkptPageSize, 0u);
  // Every lane counts one exit: the scalar trials' exits, less the
  // golden run's.
  EXPECT_EQ(sum_of(walked.exits), walked.trials);
  expected_exits[static_cast<std::size_t>(vm::ExitStatus::kOk)] -= 1;
  EXPECT_EQ(walked.exits, expected_exits);
}

TEST(Engine, TrialCostLedgerLandsInWallclockOnly) {
  // The ledger reaches the campaign's wallclock ckpt section (and through
  // it ferrumc --stats, audit and compose); the metrics section, which
  // must stay byte-comparable, does not carry it.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 48;
  const auto result = fault::run_campaign(build.program, options);
  const telemetry::Json wallclock = telemetry::wallclock_json(result);
  const telemetry::Json* ckpt = wallclock.find("ckpt");
  ASSERT_NE(ckpt, nullptr);
  const auto field = [ckpt](const char* key) -> std::uint64_t {
    const telemetry::Json* value = ckpt->find(key);
    EXPECT_NE(value, nullptr) << key;
    return value != nullptr ? value->as_uint() : 0;
  };
  EXPECT_EQ(field("prefix_steps") + field("post_fault_steps"),
            field("steps_executed"));
  EXPECT_LE(field("unrejoined_halt_steps"), field("post_fault_steps"));
  EXPECT_LE(field("unrejoined_halts"), field("trials"));
  EXPECT_EQ(telemetry::to_json(result).dump().find("prefix_steps"),
            std::string::npos);

  // Checkpoint traffic and the snapshot's byte split.
  EXPECT_GE(field("compares"), field("rejoins"));
  EXPECT_GT(field("rejoins"), 0u);
  EXPECT_GT(field("restore_bytes"), 0u);
  EXPECT_EQ(field("restore_bytes") % vm::kCkptPageSize, 0u);
  EXPECT_EQ(field("compare_bytes") % vm::kCkptPageSize, 0u);
  EXPECT_EQ(field("page_bytes") + field("table_bytes"),
            field("snapshot_bytes"));
  EXPECT_GT(field("table_bytes"), 0u);
  for (const char* key : {"restore_bytes", "compares", "compare_bytes",
                          "page_bytes", "table_bytes"}) {
    EXPECT_EQ(telemetry::to_json(result).dump().find(key), std::string::npos)
        << key;
  }

  // The exit-kind ledger: every status present, summing to the trials,
  // and its detections are the campaign's detected outcomes (the worker
  // engines run only the trials; the golden run is not merged).
  const telemetry::Json* exits = ckpt->find("exits");
  ASSERT_NE(exits, nullptr);
  std::uint64_t exit_total = 0;
  for (int s = 0; s < vm::kExitStatusCount; ++s) {
    const telemetry::Json* count =
        exits->find(vm::exit_status_name(static_cast<vm::ExitStatus>(s)));
    ASSERT_NE(count, nullptr) << s;
    exit_total += count->as_uint();
  }
  EXPECT_EQ(exit_total, field("trials"));
  EXPECT_EQ(exits->find("detected")->as_uint(),
            static_cast<std::uint64_t>(result.count(fault::Outcome::kDetected)));
  EXPECT_GT(exits->find("detected")->as_uint(), 0u);
  EXPECT_EQ(telemetry::to_json(result).dump().find("\"exits\""),
            std::string::npos);
}

TEST(Engine, ThinningBoundsLiveCheckpointsDeterministically) {
  // Stride 1 on a real workload requests one checkpoint per dynamic
  // site; the set must thin itself to the documented cap by doubling the
  // stride, and do so identically on every capture (the decision depends
  // only on the golden instruction stream).
  const auto& w = workloads::by_name("pathfinder");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  const vm::PredecodedProgram decoded(build.program);
  vm::VmOptions options;
  vm::Engine engine(decoded, options);

  vm::CheckpointSet a;
  ASSERT_TRUE(engine.run_capturing(options, 1, a).ok());
  EXPECT_LE(a.size(), vm::CheckpointSet::kMaxLiveCheckpoints);
  EXPECT_GT(a.stride(), 1u);  // thinning actually happened

  vm::CheckpointSet b;
  ASSERT_TRUE(engine.run_capturing(options, 1, b).ok());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.stride(), b.stride());
  EXPECT_EQ(a.snapshot_bytes(), b.snapshot_bytes());

  // Every surviving page table is sparse and well formed: strictly
  // ascending page indices, no null image.
  std::size_t seen = 0;
  for (const vm::Checkpoint* c = &a.nearest_at_or_before(0); c != nullptr;
       c = a.next_after(c->fi_sites)) {
    ++seen;
    for (std::size_t i = 0; i < c->pages.size(); ++i) {
      EXPECT_NE(c->pages[i].image, nullptr) << "site " << c->fi_sites;
      if (i > 0) {
        EXPECT_LT(c->pages[i - 1].page, c->pages[i].page)
            << "site " << c->fi_sites;
      }
    }
  }
  EXPECT_EQ(seen, a.size());
}

TEST(Engine, PredecodeResolvesEveryTargetUpFront) {
  // The flat decoding's no-hash-lookups claim: after construction every
  // jump target and call callee is a resolved index, and each function
  // ends in the null-inst sentinel that reproduces the fall-off-the-end
  // trap of the per-block interpreter.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  const vm::PredecodedProgram decoded(build.program);
  ASSERT_FALSE(decoded.code().empty());
  ASSERT_GE(decoded.main_index(), 0);
  for (const vm::DecodedInst& d : decoded.code()) {
    if (d.inst == nullptr) continue;  // end-of-function sentinel
    if (d.inst->op == masm::Op::kJmp || d.inst->op == masm::Op::kJcc) {
      EXPECT_GE(d.target_pc, 0) << "unresolved branch target";
    }
    if (d.inst->op == masm::Op::kCall) {
      EXPECT_NE(d.callee, -1) << "unresolved callee";
    }
  }
  for (int f = 0; f < decoded.function_count(); ++f) {
    const std::int32_t sentinel_pc = decoded.block_pc(f, decoded.block_count(f));
    ASSERT_LT(static_cast<std::size_t>(sentinel_pc), decoded.code().size());
    EXPECT_EQ(decoded.code()[static_cast<std::size_t>(sentinel_pc)].inst,
              nullptr);
  }
}

// ---------------------------------------------------------------- hooks --
//
// The interpreter loop's two instances: the hooked one (profile, timing,
// trace) and the bare one are byte-equivalent down to every VmResult
// field.

/// `options` with every hook on: profiling, timing and a trace.
vm::VmOptions hooked(vm::VmOptions options) {
  options.profile = true;
  options.timing = true;
  options.trace_limit = 64;
  return options;
}

TEST(LoopEquivalence, GoldenRunsAgreeOnAllWorkloads) {
  for (const auto& w : workloads::all()) {
    for (Technique technique : kAllTechniques) {
      auto build = pipeline::build(w.source, technique);
      const vm::VmResult bare = vm::run(build.program);
      ASSERT_TRUE(bare.ok()) << w.name;
      expect_same_result(bare, vm::run(build.program, hooked({})),
                         std::string(w.name) + " / " +
                             pipeline::technique_name(technique));
    }
  }
}

TEST(BuildDeterminism, PrintedProgramsDoNotFollowHeapAddresses) {
  // Every workload x technique plus fuzz programs, built twice in one
  // process with live heap allocations of assorted sizes in between, so
  // the second build's IR objects sit at different addresses. Any
  // container iterated in pointer order shows up as a printed difference.
  std::vector<std::string> sources;
  for (const auto& w : workloads::all()) sources.push_back(w.source);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sources.push_back(fuzz_program(seed * 0x9e3779b97f4a7c15ull));
  }
  std::vector<std::string> first;
  for (const std::string& source : sources) {
    for (Technique technique : kAllTechniques) {
      first.push_back(masm::print(pipeline::build(source, technique).program));
    }
  }
  std::vector<std::unique_ptr<char[]>> perturbation;
  for (std::size_t i = 0; i < 257; ++i) {
    perturbation.push_back(std::make_unique<char[]>(16 + (i * 37) % 500));
  }
  std::size_t next = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (Technique technique : kAllTechniques) {
      EXPECT_EQ(first[next++],
                masm::print(pipeline::build(sources[s], technique).program))
          << "program " << s << " / " << pipeline::technique_name(technique);
    }
  }
}

/// Runs `trials` as one walk and returns the results in trial order.
std::vector<vm::VmResult> walk_all(vm::Engine& engine,
                                   const vm::CheckpointSet* ckpts,
                                   const vm::VmOptions& options,
                                   const std::vector<vm::Engine::Trial>& trials) {
  std::vector<vm::VmResult> results(trials.size());
  engine.walk(ckpts, options, trials.data(), trials.size(),
              [&](std::size_t i, vm::VmResult& result) {
                results[i] = std::move(result);
              });
  return results;
}

TEST(LoopEquivalence, DifferentialFuzzAcrossWalks) {
  // Random programs x random fault plans, each plan executed four ways:
  // a cold run with rejoin off (truth), a lone fast-forwarded trial with
  // golden rejoin, one walk over the whole plan set from the
  // checkpoints, and one cold walk. Any divergence in any VmResult field
  // fails with the program source attached.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string source = fuzz_program(seed * 0x9e3779b97f4a7c15ull);
    for (Technique technique : kAllTechniques) {
      auto build = pipeline::build(source, technique);
      const vm::VmResult golden = vm::run(build.program);
      ASSERT_TRUE(golden.ok()) << source;

      // Random fault plans: sites across (and a little past) the dynamic
      // range, random bits, occasional double faults and bursts.
      Rng rng(seed * 31337);
      std::vector<std::vector<vm::FaultSpec>> plans;
      for (int i = 0; i < 14; ++i) {
        std::vector<vm::FaultSpec> plan;
        const int nfaults = rng.next_bool(0.25) ? 2 : 1;
        for (int f = 0; f < nfaults; ++f) {
          vm::FaultSpec spec;
          spec.site = rng.next_below(golden.fi_sites + golden.fi_sites / 8 + 1);
          spec.bit = static_cast<int>(rng.next_below(64));
          spec.burst = rng.next_bool(0.2) ? 2 : 1;
          plan.push_back(spec);
        }
        plans.push_back(plan);
      }

      vm::VmOptions faulty;  // golden rejoin on
      faulty.max_steps = fault::faulty_step_budget(golden.steps);
      vm::VmOptions faulty_cold = faulty;
      faulty_cold.golden_rejoin = false;

      const vm::PredecodedProgram decoded(build.program);
      vm::CheckpointSet ckpts;
      vm::Engine engine(decoded, faulty);
      ASSERT_TRUE(engine.run_capturing(faulty, 16, ckpts).ok()) << source;

      std::vector<vm::VmResult> cold(plans.size());
      for (std::size_t i = 0; i < plans.size(); ++i) {
        cold[i] = vm::run_multi(build.program, faulty_cold, plans[i].data(),
                                plans[i].size());
      }
      for (std::size_t i = 0; i < plans.size(); ++i) {
        expect_same_result(
            cold[i],
            engine.run_from(ckpts, faulty, plans[i].data(), plans[i].size()),
            "warm trial " + std::to_string(i) + "\n" + source);
      }
      std::vector<vm::Engine::Trial> lanes(plans.size());
      for (std::size_t i = 0; i < plans.size(); ++i) {
        lanes[i] = {plans[i].data(), plans[i].size()};
      }
      const std::vector<vm::VmResult> walked =
          walk_all(engine, &ckpts, faulty, lanes);
      for (std::size_t i = 0; i < plans.size(); ++i) {
        expect_same_result(cold[i], walked[i],
                           "walked trial " + std::to_string(i) + "\n" + source);
      }
      const std::vector<vm::VmResult> cold_walked =
          walk_all(engine, nullptr, faulty_cold, lanes);
      for (std::size_t i = 0; i < plans.size(); ++i) {
        expect_same_result(
            cold[i], cold_walked[i],
            "cold walked trial " + std::to_string(i) + "\n" + source);
      }
    }
  }
}

/// Hand-built program carrying a register operand of byte width `width`
/// on its second instruction (the parser never emits undefined widths,
/// so the regression must construct the AsmProgram directly).
masm::AsmProgram width_program(int width) {
  masm::AsmProgram program;
  masm::AsmFunction fn;
  fn.name = "main";
  masm::AsmBlock block;
  block.label = ".entry";
  block.insts.push_back(masm::AsmInst(
      masm::Op::kMov,
      {masm::Operand::make_imm(7), masm::Operand::make_reg(masm::Gpr::kRax)}));
  block.insts.push_back(
      masm::AsmInst(masm::Op::kMov,
                    {masm::Operand::make_reg(masm::Gpr::kRax, width),
                     masm::Operand::make_reg(masm::Gpr::kRcx, width)}));
  block.insts.push_back(masm::AsmInst(masm::Op::kRet, {}));
  fn.blocks.push_back(std::move(block));
  program.functions.push_back(std::move(fn));
  return program;
}

TEST(Engine, UndefinedOperandWidthsTrapLoudlyInBothLoopInstances) {
  // The width-2 bugfix: a 16-bit (or any other undefined-width) operand
  // used to fall through mov's default case and silently move the full
  // 64-bit register. The decoder now tags the instruction at predecode
  // time and executing it traps kTrapInvalid — identically in the bare
  // and the hooked loop, after counting the step.
  for (int width : {2, 3, 5, 16}) {
    const masm::AsmProgram program = width_program(width);
    const vm::PredecodedProgram decoded(program);
    int bad_tags = 0;
    for (const vm::DecodedInst& d : decoded.code()) {
      if (d.tag == vm::kTagInvalid) ++bad_tags;
    }
    EXPECT_EQ(bad_tags, 1) << "width " << width;
    for (const vm::VmOptions& options : {vm::VmOptions{}, hooked({})}) {
      const vm::VmResult result = vm::run(program, options);
      EXPECT_EQ(result.status, vm::ExitStatus::kTrapInvalid)
          << "width " << width;
      EXPECT_EQ(result.steps, 2u) << "width " << width;
    }
  }
  // Control: the same shape at a defined width runs clean.
  const vm::VmResult ok = vm::run(width_program(4));
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.return_value, 7);
}

/// A program that sets %xmm0 to 7, runs `inst`, and returns %xmm0. Each
/// `inst` below names a memory or immediate operand where its generic
/// handler reads or writes a general-purpose register; such an operand
/// carries Gpr::kNone, one past the 16-entry register file, so before
/// predecode rejected these shapes the write landed in %xmm0.
std::string gpr_shape_program(const std::string& inst) {
  return "main:\n.entry:\n\tmovq\t$7, %rax\n\tmovq\t%rax, %xmm0\n\t" +
         inst + "\n\tmovq\t%xmm0, %rax\n\tret\n";
}

TEST(Engine, NonRegisterOperandsWhereAGprIsNeededTrapInBothLoopInstances) {
  for (const char* inst :
       {"leaq\t8(%rsp), 8(%rsp)", "movslq\t%ecx, 8(%rsp)",
        "movzbl\t%cl, 8(%rsp)", "cvttsd2si\t%xmm1, 8(%rsp)",
        "addq\t%rax, $5", "sete\t$5", "popq\t8(%rsp)"}) {
    DiagEngine diags;
    const masm::AsmProgram program =
        masm::parse_program(gpr_shape_program(inst), diags);
    ASSERT_FALSE(diags.has_errors()) << inst << "\n" << diags.render();
    EXPECT_FALSE(masm::verify_program(program).empty()) << inst;
    const vm::PredecodedProgram decoded(program);
    EXPECT_EQ(decoded.code()[2].tag, vm::kTagInvalid) << inst;
    for (const vm::VmOptions& options : {vm::VmOptions{}, hooked({})}) {
      const vm::VmResult result = vm::run(program, options);
      EXPECT_EQ(result.status, vm::ExitStatus::kTrapInvalid) << inst;
      EXPECT_EQ(result.steps, 3u) << inst;
    }
  }
  // Control: the same program around a well-formed instruction returns
  // %xmm0 untouched.
  DiagEngine diags;
  const masm::AsmProgram program =
      masm::parse_program(gpr_shape_program("leaq\t8(%rsp), %rcx"), diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  EXPECT_TRUE(masm::verify_program(program).empty());
  for (const vm::VmOptions& options : {vm::VmOptions{}, hooked({})}) {
    const vm::VmResult result = vm::run(program, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.return_value, 7);
  }
}

constexpr const char* kFusedBranchTargetAsm = R"(
main:
.entry:
	movq	$6, %rcx
	movq	$0, %rax
	cmpq	$0, %rcx
.check:
	jne	.body
	jmp	.done
.body:
	addq	%rcx, %rax
	subq	$1, %rcx
	cmpq	$0, %rcx
	jmp	.check
.done:
	ret
)";

TEST(Engine, BranchIntoFusedPairSecondHalfDispatchesSingly) {
  // The fusion edge case: .entry's trailing cmp fuses with .check's
  // leading jne (pairs may span block boundaries), but .check is also a
  // jump target — the back-edge from .body lands directly on the jcc
  // second half. The second half must keep its own dispatch tag so that
  // entering the pair mid-way executes it singly.
  DiagEngine diags;
  const masm::AsmProgram program =
      masm::parse_program(kFusedBranchTargetAsm, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  const vm::PredecodedProgram decoded(program);
  bool saw_fused = false;
  for (std::size_t i = 0; i + 1 < decoded.code().size(); ++i) {
    if (decoded.code()[i].tag != vm::kTagCmpJcc) continue;
    saw_fused = true;
    // Only the first instruction of the pair changes tag.
    EXPECT_EQ(decoded.code()[i + 1].tag,
              static_cast<std::uint8_t>(masm::Op::kJcc));
  }
  ASSERT_TRUE(saw_fused);

  const vm::VmResult a = vm::run(program);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.return_value, 21);  // 6+5+4+3+2+1
  expect_same_result(a, vm::run(program, hooked({})), "fused branch target");
}

/// Six instructions — both fused pairs among them, the cmp+jcc with its
/// branch not taken — then a detection: a run ends kDetected after 7
/// steps and 6 FI sites. A fault that takes the branch halts cleanly
/// with %rax as the return value instead.
constexpr const char* kDetectAfterSixAsm = R"(
main:
.entry:
	movq	$3, %rax
	movq	$4, %rcx
	addq	%rcx, %rax
	cmpq	$7, %rax
	jne	.escape
	movq	$1, %rdx
	call	__ferrum_detect
	ret
.escape:
	ret
)";
constexpr std::uint64_t kStepsBeforeDetect = 6;

TEST(Engine, StepBudgetSweepAgreesAcrossLoopInstances) {
  // Exhaust max_steps at every possible position — including between the
  // halves of a fused pair — and require the bare and the hooked loop to
  // trap at the same step with the same partial state. A fused
  // implementation that checks the budget once per pair instead of once
  // per instruction traps at the wrong step here.
  // The detecting program puts the budget on the detect step itself: a
  // budget that does not cover it traps kTrapSteps, one that does ends
  // in the detection.
  struct Input {
    const char* text;
    vm::ExitStatus end;
  };
  for (const Input& input :
       {Input{kFusedBranchTargetAsm, vm::ExitStatus::kOk},
        Input{kDetectAfterSixAsm, vm::ExitStatus::kDetected}}) {
    DiagEngine diags;
    const masm::AsmProgram program = masm::parse_program(input.text, diags);
    ASSERT_FALSE(diags.has_errors()) << diags.render();
    const vm::VmResult golden = vm::run(program);
    ASSERT_EQ(golden.status, input.end);
    for (std::uint64_t budget = 1; budget <= golden.steps + 1; ++budget) {
      vm::VmOptions bare;
      bare.max_steps = budget;
      const vm::VmResult a = vm::run(program, bare);
      const vm::VmResult b = vm::run(program, hooked(bare));
      EXPECT_EQ(a.status, b.status) << "budget " << budget;
      EXPECT_EQ(a.steps, b.steps) << "budget " << budget;
      EXPECT_EQ(a.fi_sites, b.fi_sites) << "budget " << budget;
      EXPECT_EQ(budget >= golden.steps ? input.end
                                       : vm::ExitStatus::kTrapSteps,
                a.status)
          << "budget " << budget;
    }
  }
}

TEST(Engine, DetectionEndsTheRunWithCountsTracesAndProfileIntact) {
  // A detection ends the run with the step counted, profiled and traced
  // but never timed, and no return value — in the bare and the hooked
  // loop alike.
  DiagEngine diags;
  const masm::AsmProgram program =
      masm::parse_program(kDetectAfterSixAsm, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  constexpr std::uint64_t k = kStepsBeforeDetect;
  const vm::VmResult bare = vm::run(program);
  EXPECT_EQ(bare.status, vm::ExitStatus::kDetected);
  EXPECT_EQ(bare.steps, k + 1);
  EXPECT_EQ(bare.fi_sites, k);
  EXPECT_EQ(bare.return_value, 0);

  const vm::VmResult seen = vm::run(program, hooked({}));
  expect_same_result(bare, seen, "hooked");
  ASSERT_TRUE(seen.profile.has_value());
  EXPECT_EQ(seen.profile->op_counts[static_cast<std::size_t>(
                masm::Op::kDetectTrap)],
            1u);
  EXPECT_EQ(seen.profile->total(), k + 1);
  ASSERT_TRUE(seen.timing_stats.has_value());
  EXPECT_EQ(seen.timing_stats->instructions, k);
  ASSERT_EQ(seen.trace.size(), k + 1);
  EXPECT_NE(seen.trace.back().find("__ferrum_detect"), std::string::npos);
}

// ------------------------------------------------------- operand forms --
//
// The bare loop runs predecoded operand forms; the hooked loop runs the
// generic handlers on the same instructions. MiniASM programs built below
// reach every form, each under a fault at every dynamic site.

using masm::AsmInst;
using masm::Gpr;
using masm::MemRef;
using masm::Op;
using masm::Operand;

Operand reg(Gpr r, int width = 8) { return Operand::make_reg(r, width); }
Operand imm(std::int64_t value) { return Operand::make_imm(value); }
Operand xmm(int index) { return Operand::make_xmm(index); }

/// A memory operand in one of the three address shapes decode folds:
/// global + displacement, base + displacement, and base + index * scale
/// + displacement (%rbx holds the global's address, %rdi is 2).
Operand mem(int shape, int width) {
  MemRef ref;
  if (shape % 3 == 0) {
    ref.global_id = 0;
    ref.disp = 8;
  } else if (shape % 3 == 1) {
    ref.base = Gpr::kRbx;
    ref.disp = 16;
  } else {
    ref.base = Gpr::kRbx;
    ref.index = Gpr::kRdi;
    ref.scale = 4;
    ref.disp = 8;
  }
  return Operand::make_mem(ref, width);
}

/// `body` after a set-up that gives the GPRs, XMMs and a 64-byte global
/// values every width reads differently (the divisor %rcx is non-zero at
/// 1, 4 and 8 bytes), then a block, ".done" (where jumps go), that
/// prints the final state, so that any difference in a register, an XMM
/// low lane, the global or the flags shows in the output.
masm::AsmProgram form_program(const std::vector<AsmInst>& body) {
  masm::AsmProgram program;
  masm::AsmGlobal global;
  global.name = "g";
  global.size_bytes = 64;
  for (int i = 0; i < 64; ++i) {
    global.init.push_back(static_cast<std::uint8_t>(0x9d * (i + 1)));
  }
  program.globals.push_back(global);
  masm::AsmFunction fn;
  fn.name = "main";
  masm::AsmBlock entry;
  entry.label = ".entry";
  MemRef g;
  g.global_id = 0;
  entry.insts = {
      AsmInst(Op::kMov, {imm(0x0123456789abcdef), reg(Gpr::kRax)}),
      AsmInst(Op::kMov, {imm(0x0000000500000083), reg(Gpr::kRcx)}),
      AsmInst(Op::kMov, {imm(0x4004000000000000), reg(Gpr::kRdx)}),
      AsmInst(Op::kMov, {imm(0x3ff4000000000000), reg(Gpr::kRsi)}),
      AsmInst(Op::kMov, {imm(2), reg(Gpr::kRdi)}),
      AsmInst(Op::kMov, {imm(-77), reg(Gpr::kR8)}),
      AsmInst(Op::kLea, {Operand::make_mem(g, 8), reg(Gpr::kRbx)}),
      AsmInst(Op::kMovq, {reg(Gpr::kRdx), xmm(0)}),
      AsmInst(Op::kMovq, {reg(Gpr::kRsi), xmm(1)}),
      AsmInst(Op::kMovq, {reg(Gpr::kRax), xmm(2)}),
      AsmInst(Op::kVinserti128,
              {imm(1), xmm(2), Operand::make_ymm(2)}),
  };
  for (const AsmInst& inst : body) entry.insts.push_back(inst);
  masm::AsmBlock done;
  done.label = ".done";
  const auto print = [&](const Operand& from) {
    done.insts.push_back(AsmInst(Op::kMov, {from, reg(Gpr::kRdi)}));
    done.insts.push_back(
        AsmInst(Op::kCall, {Operand::make_func("print_int")}));
  };
  const std::pair<masm::Cond, Gpr> flags[] = {{masm::Cond::kE, Gpr::kR12},
                                              {masm::Cond::kB, Gpr::kR13},
                                              {masm::Cond::kL, Gpr::kR14},
                                              {masm::Cond::kA, Gpr::kR15}};
  for (const auto& [cc, to] : flags) {
    done.insts.push_back(AsmInst(Op::kSetcc, cc, {reg(to, 1)}));
  }
  print(reg(Gpr::kRdi));
  for (Gpr r : {Gpr::kRax, Gpr::kRcx, Gpr::kRdx, Gpr::kRbx, Gpr::kRsi,
                Gpr::kR8, Gpr::kR9, Gpr::kR12, Gpr::kR13, Gpr::kR14,
                Gpr::kR15}) {
    print(reg(r));
  }
  for (int x = 0; x < 6; ++x) {
    done.insts.push_back(AsmInst(Op::kMovq, {xmm(x), reg(Gpr::kRdi)}));
    done.insts.push_back(
        AsmInst(Op::kCall, {Operand::make_func("print_int")}));
  }
  for (int word = 0; word < 8; ++word) {
    MemRef at;
    at.global_id = 0;
    at.disp = 8 * word;
    print(Operand::make_mem(at, 8));
  }
  done.insts.push_back(AsmInst(Op::kRet, {}));
  fn.blocks = {entry, done};
  program.functions.push_back(fn);
  return program;
}

/// One program per operand shape the forms cover, plus shapes no form
/// covers (the bare loop's generic fallback).
std::vector<masm::AsmProgram> operand_form_programs() {
  std::vector<std::vector<AsmInst>> bodies;
  const Operand done = Operand::make_label(".done");
  int shape = 0;  // rotates memory address shapes and conditions
  const auto cond = [&] { return static_cast<masm::Cond>(shape++ % 10); };
  for (int w : {1, 4, 8}) {
    const Operand src = reg(Gpr::kRcx, w);
    const Operand dst = reg(Gpr::kR8, w);
    bodies.push_back({AsmInst(Op::kMov, {src, dst})});
    bodies.push_back({AsmInst(Op::kMov, {imm(-5), dst})});
    bodies.push_back({AsmInst(Op::kMov, {mem(shape++, w), dst})});
    bodies.push_back({AsmInst(Op::kMov, {src, mem(shape++, w)})});
    bodies.push_back({AsmInst(Op::kMov, {imm(-5), mem(shape++, w)})});
    for (Op op : {Op::kAdd, Op::kSub, Op::kImul, Op::kAnd, Op::kOr, Op::kXor,
                  Op::kShl, Op::kSar, Op::kIdiv, Op::kIrem}) {
      bodies.push_back({AsmInst(op, {src, dst})});
      bodies.push_back({AsmInst(op, {imm(7), dst})});
    }
    const Operand cmp_forms[][2] = {{src, dst},
                                    {imm(-3), dst},
                                    {src, mem(shape++, w)},
                                    {imm(-3), mem(shape++, w)},
                                    {mem(shape++, w), dst}};
    for (const auto& ops : cmp_forms) {
      // Single, then fused with the jcc that follows.
      bodies.push_back({AsmInst(Op::kCmp, {ops[0], ops[1]}),
                        AsmInst(Op::kSetcc, cond(), {reg(Gpr::kR9, 1)})});
      bodies.push_back({AsmInst(Op::kCmp, {ops[0], ops[1]}),
                        AsmInst(Op::kJcc, cond(), {done}),
                        AsmInst(Op::kMov, {imm(1), reg(Gpr::kRax)})});
    }
    bodies.push_back({AsmInst(Op::kTest, {src, dst}),
                      AsmInst(Op::kJcc, cond(), {done}),
                      AsmInst(Op::kMov, {imm(1), reg(Gpr::kRax)})});
    bodies.push_back({AsmInst(Op::kTest, {imm(0x41), dst}),
                      AsmInst(Op::kSetcc, cond(), {mem(shape++, 1)})});
  }
  for (const auto& [from, to] : {std::pair{1, 4}, {1, 8}, {4, 8}}) {
    for (Op op : {Op::kMovsx, Op::kMovzx}) {
      bodies.push_back(
          {AsmInst(op, {reg(Gpr::kRcx, from), reg(Gpr::kR8, to)})});
      bodies.push_back({AsmInst(op, {mem(shape++, from), reg(Gpr::kR8, to)})});
    }
  }
  bodies.push_back({AsmInst(Op::kLea, {mem(2, 8), reg(Gpr::kR8)}),
                    AsmInst(Op::kPush, {reg(Gpr::kR8)}),
                    AsmInst(Op::kPop, {reg(Gpr::kR9)})});
  bodies.push_back({AsmInst(Op::kMovsd, {xmm(0), xmm(3)}),
                    AsmInst(Op::kMovsd, {mem(shape++, 8), xmm(4)}),
                    AsmInst(Op::kMovsd, {xmm(1), mem(shape++, 8)})});
  for (Op op : {Op::kAddsd, Op::kSubsd, Op::kMulsd, Op::kDivsd, Op::kSqrtsd,
                Op::kUcomisd}) {
    bodies.push_back({AsmInst(op, {mem(shape++, 8), xmm(0)}),
                      AsmInst(op, {xmm(1), xmm(0)}),
                      AsmInst(Op::kJcc, cond(), {done}),
                      AsmInst(Op::kMov, {imm(1), reg(Gpr::kRax)})});
  }
  for (int w : {4, 8}) {
    bodies.push_back({AsmInst(Op::kCvtsi2sd, {reg(Gpr::kRcx, w), xmm(3)}),
                      AsmInst(Op::kCvtsi2sd, {mem(shape++, w), xmm(4)}),
                      AsmInst(Op::kCvttsd2si, {xmm(0), reg(Gpr::kR8, w)})});
    bodies.push_back({AsmInst(Op::kMovq, {reg(Gpr::kRcx, w), xmm(3)}),
                      AsmInst(Op::kMovq, {mem(shape++, w), xmm(4)}),
                      AsmInst(Op::kMovq, {xmm(2), reg(Gpr::kR8, w)}),
                      AsmInst(Op::kMovq, {xmm(2), mem(shape++, w)})});
    bodies.push_back(
        {AsmInst(Op::kPinsrq, {imm(1), reg(Gpr::kRcx, w), xmm(3)}),
         AsmInst(Op::kPinsrq, {imm(0), mem(shape++, w), xmm(3)})});
  }
  for (bool wide : {false, true}) {
    const auto vec = [&](int i) {
      return wide ? Operand::make_ymm(i) : xmm(i);
    };
    bodies.push_back({AsmInst(Op::kVpxor, {vec(2), vec(0), vec(5)}),
                      AsmInst(Op::kVptest, {vec(2), vec(1)}),
                      AsmInst(Op::kVptest, {vec(5), vec(5)}),
                      AsmInst(Op::kJcc, cond(), {done}),
                      AsmInst(Op::kMov, {imm(1), reg(Gpr::kRax)})});
  }
  // Shapes no form covers: an ALU op into memory, mixed operand widths,
  // shifts by %cl, a pushed immediate, a test against memory.
  bodies.push_back({AsmInst(Op::kAdd, {reg(Gpr::kRcx), mem(shape++, 8)}),
                    AsmInst(Op::kAdd, {reg(Gpr::kRcx, 4), reg(Gpr::kR8)}),
                    AsmInst(Op::kShl, {reg(Gpr::kRcx, 1), reg(Gpr::kR8)}),
                    AsmInst(Op::kSar, {reg(Gpr::kRcx, 1), reg(Gpr::kR8, 4)}),
                    AsmInst(Op::kPush, {imm(9)}),
                    AsmInst(Op::kPop, {reg(Gpr::kR9)}),
                    AsmInst(Op::kTest, {mem(shape++, 4), reg(Gpr::kR8, 4)})});
  std::vector<masm::AsmProgram> programs;
  for (const auto& body : bodies) programs.push_back(form_program(body));
  return programs;
}

/// Adds to `seen` the operand form of every instruction that registered
/// a fault-injection site in a fault-free run of `decoded` (with store
/// sites on, every form registers one).
void collect_forms(const vm::PredecodedProgram& decoded,
                   std::vector<bool>& seen) {
  vm::VmOptions options;
  options.fault_store_data = true;
  vm::Engine engine(decoded, options);
  std::vector<std::int32_t> pcs;
  engine.set_site_pc_sink(&pcs);
  ASSERT_TRUE(engine.run(options, nullptr, 0).ok());
  for (std::int32_t pc : pcs) {
    const int form = decoded.code()[static_cast<std::size_t>(pc)].form;
    if (form >= vm::kFormFirst) seen[form - vm::kFormFirst] = true;
  }
}

TEST(LoopEquivalence, EveryOperandFormUnderFaults) {
  // Every operand form executes at least once across the MiniASM
  // programs and the 8 workloads x 4 techniques. On the MiniASM
  // programs, a fault at every dynamic site, at bits 0, 7, 8, 31, 32 and
  // 63, single and burst 2, with and without store-data sites, must give
  // the bare loop (forms) the hooked loop's (generic handlers) result,
  // field by field; the programs print their final state, so a
  // difference anywhere in it shows.
  std::vector<bool> seen(static_cast<std::size_t>(vm::operand_form_count()));
  const std::vector<masm::AsmProgram> programs = operand_form_programs();
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const masm::AsmProgram& program = programs[p];
    const std::string name = "program " + std::to_string(p) + "\n" +
                             masm::print(program);
    const vm::PredecodedProgram decoded(program);
    collect_forms(decoded, seen);
    vm::Engine engine(decoded, vm::VmOptions{});
    for (bool store_data : {false, true}) {
      vm::VmOptions options;
      options.fault_store_data = store_data;
      const vm::VmResult golden = engine.run(options, nullptr, 0);
      ASSERT_TRUE(golden.ok()) << name;
      expect_same_result(golden, engine.run(hooked(options), nullptr, 0),
                         "golden " + name);
      // Profiling alone selects the hooked instance, at a fraction of
      // the timing model's cost.
      vm::VmOptions profiled = options;
      profiled.profile = true;
      for (std::uint64_t site = 0; site < golden.fi_sites; ++site) {
        for (int bit : {0, 7, 8, 31, 32, 63}) {
          for (int burst : {1, 2}) {
            const vm::FaultSpec fault{site, bit, burst};
            const vm::VmResult bare = engine.run(options, &fault, 1);
            ASSERT_TRUE(bare.fault_injected) << name;
            expect_same_result(bare, engine.run(profiled, &fault, 1),
                               "site " + std::to_string(site) + " bit " +
                                   std::to_string(bit) + " burst " +
                                   std::to_string(burst) + " store data " +
                                   std::to_string(store_data) + " " + name);
          }
        }
      }
    }
  }
  for (const auto& w : workloads::all()) {
    for (Technique technique : kAllTechniques) {
      const auto build = pipeline::build(w.source, technique);
      collect_forms(vm::PredecodedProgram(build.program), seen);
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "operand form "
                         << vm::operand_form_name(vm::kFormFirst +
                                                  static_cast<int>(i))
                         << " never executed";
  }
}

TEST(Engine, MultiFaultPlansMatchEverySpecInAnyOrder) {
  // A two-fault plan gives the same result in either order, cold and from
  // checkpoints, and two specs at one site act as the first alone.
  const auto build = pipeline::build(kSmallProgram, Technique::kIrEddi);
  const vm::VmResult golden = vm::run(build.program);
  ASSERT_TRUE(golden.ok());
  const std::uint64_t last = golden.fi_sites - 1;
  const vm::PredecodedProgram decoded(build.program);
  vm::VmOptions options;
  options.max_steps = fault::faulty_step_budget(golden.steps);
  vm::CheckpointSet ckpts;
  vm::Engine engine(decoded, options);
  ASSERT_TRUE(engine.run_capturing(options, 8, ckpts).ok());
  const std::pair<std::uint64_t, std::uint64_t> pairs[] = {
      {0, last}, {3, 4}, {last / 2, last / 2 + 9}, {5, last + 40}};
  for (const auto& [lo, hi] : pairs) {
    const std::vector<vm::FaultSpec> forward = {{lo, 3, 1}, {hi, 40, 1}};
    const std::vector<vm::FaultSpec> backward = {forward[1], forward[0]};
    const std::string context =
        "sites " + std::to_string(lo) + ", " + std::to_string(hi);
    const vm::VmResult cold = vm::run_multi(build.program, options, forward);
    EXPECT_TRUE(cold.fault_injected) << context;
    expect_same_result(cold, vm::run_multi(build.program, options, backward),
                       context);
    expect_same_result(
        cold, engine.run_from(ckpts, options, backward.data(), 2), context);

    const std::vector<vm::FaultSpec> twice = {{hi, 5, 1}, {hi, 60, 2}};
    const vm::VmResult first = vm::run_multi(build.program, options,
                                             twice.data(), 1);
    expect_same_result(first, vm::run_multi(build.program, options, twice),
                       context + " twice");
    expect_same_result(first, engine.run_from(ckpts, options, twice.data(), 2),
                       context + " twice");
  }
  // Every spec is matched, up to the plan's highest site. A spec that
  // flips no bit (burst 0) marks its site without changing the run, so a
  // marker at a low site plus a flip at a high one acts as the flip
  // alone — for high sites whose flip changes the outcome.
  const vm::FaultSpec marker{0, 0, 0};
  const vm::VmResult marked = vm::run_multi(build.program, options, &marker, 1);
  EXPECT_TRUE(marked.fault_injected);
  EXPECT_EQ(marked.status, golden.status);
  EXPECT_EQ(marked.output, golden.output);
  EXPECT_EQ(marked.steps, golden.steps);
  int changed = 0;
  for (std::uint64_t hi = 1; hi <= last && changed < 6; hi += last / 12 + 1) {
    const vm::FaultSpec flip{hi, 2, 1};
    const vm::VmResult alone = vm::run_multi(build.program, options, &flip, 1);
    if (alone.status == golden.status && alone.output == golden.output) {
      continue;
    }
    ++changed;
    const std::vector<vm::FaultSpec> plan = {marker, flip};
    const std::string context = "marker at 0, flip at " + std::to_string(hi);
    for (const vm::VmResult& run :
         {vm::run_multi(build.program, options, plan),
          engine.run_from(ckpts, options, plan.data(), plan.size())}) {
      EXPECT_EQ(run.status, alone.status) << context;
      EXPECT_EQ(run.output, alone.output) << context;
      EXPECT_EQ(run.steps, alone.steps) << context;
      EXPECT_EQ(run.fi_sites, alone.fi_sites) << context;
      EXPECT_EQ(run.fault_step, marked.fault_step) << context;
    }
  }
  EXPECT_GT(changed, 0);
}

TEST(Engine, WalkThatDetectsMatchesColdRuns) {
  // No checkpoints: the walk runs the golden stream cold, and the walk
  // itself detects before the lanes whose sites lie past the detection
  // (a campaign never gets here — it rejects a golden run that detects).
  // Lanes before it fork and run their own suffix; some escape through
  // the branch and halt. Every lane equals run() with the same faults.
  DiagEngine diags;
  const masm::AsmProgram program =
      masm::parse_program(kDetectAfterSixAsm, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  const vm::PredecodedProgram decoded(program);
  std::vector<vm::FaultSpec> faults;
  for (std::uint64_t site = 0; site < kStepsBeforeDetect + 3; ++site) {
    for (int bit : {0, 2, 40}) faults.push_back(vm::FaultSpec{site, bit});
  }
  std::vector<vm::Engine::Trial> lanes;
  for (const vm::FaultSpec& fault : faults) lanes.push_back({&fault, 1});
  const vm::VmOptions options;
  vm::Engine engine(decoded, options);
  const std::vector<vm::VmResult> walked =
      walk_all(engine, nullptr, options, lanes);
  bool escaped = false;
  ExitCounts exits{};
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const vm::VmResult cold = vm::run(program, options, &faults[i]);
    const std::string context = "site " + std::to_string(faults[i].site) +
                                " bit " + std::to_string(faults[i].bit);
    expect_same_result(cold, walked[i], context);
    EXPECT_EQ(cold.rejoined, walked[i].rejoined) << context;
    EXPECT_EQ(cold.touched_functions, walked[i].touched_functions)
        << context;
    escaped = escaped || cold.ok();
    if (faults[i].site >= kStepsBeforeDetect) {
      EXPECT_EQ(walked[i].status, vm::ExitStatus::kDetected) << context;
      EXPECT_FALSE(walked[i].fault_injected) << context;
    }
    ++exits[static_cast<std::size_t>(walked[i].status)];
  }
  EXPECT_TRUE(escaped);
  EXPECT_EQ(engine.stats().exits, exits);
}

/// The walk's fork rule, computed from the plan and the checkpoint set
/// alone: in site order, a lane forks when another lane follows it and
/// that lane's nearest checkpoint is not ahead of this lane's fork point
/// (the boundary where fi_sites reaches its site). A lane that does not
/// fork spends the walk, so the next lane restores its checkpoint —
/// unless that is checkpoint 0, the cold start.
struct ForkPlan {
  std::uint64_t forks = 0;
  std::uint64_t restores = 0;
};
ForkPlan fork_plan(std::vector<std::uint64_t> sites,
                   const vm::CheckpointSet& ckpts) {
  std::sort(sites.begin(), sites.end());
  ForkPlan plan;
  bool positioned = false;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (!positioned && ckpts.nearest_at_or_before(sites[i]).fi_sites > 0) {
      ++plan.restores;
    }
    positioned = i + 1 < sites.size() &&
                 ckpts.nearest_at_or_before(sites[i + 1]).fi_sites <= sites[i];
    if (positioned) ++plan.forks;
  }
  return plan;
}

TEST(Engine, WalkForksOnlyWhereTheNextLaneContinues) {
  // Two plans pin the fork decision. Dense: the pruned audit's pilots of
  // one workload, many per checkpoint interval, so most lanes fork and
  // the next lane continues from the fork point. Sparse: one lane per
  // checkpoint interval, so every next lane resumes from a checkpoint
  // ahead and no lane forks. Each lane equals a cold run on every field,
  // and the engine's fork and restore counts equal the rule computed
  // from the plan alone.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  const check::prune::PruneReport prune =
      check::prune::prune_program(build.program);
  fault::AuditOptions audit;
  audit.prune = &prune;
  const fault::AuditReport report = fault::audit_program(build.program, audit);
  ASSERT_GT(report.prune.pilots.size(), 100u);

  const vm::VmResult golden = vm::run(build.program);
  ASSERT_TRUE(golden.ok());
  vm::VmOptions options;
  options.max_steps = fault::faulty_step_budget(golden.steps);
  const vm::PredecodedProgram decoded(build.program);
  vm::CheckpointSet ckpts;
  ASSERT_TRUE(
      vm::Engine(decoded, options).run_capturing(options, 64, ckpts).ok());
  ASSERT_GT(ckpts.size(), 4u);

  std::vector<vm::FaultSpec> dense;
  for (const fault::AuditPilot& pilot : report.prune.pilots) {
    dense.push_back({pilot.site, pilot.bit});
  }
  std::vector<vm::FaultSpec> sparse;
  for (const vm::Checkpoint* c = &ckpts.nearest_at_or_before(0); c != nullptr;
       c = ckpts.next_after(c->fi_sites)) {
    const vm::Checkpoint* next = ckpts.next_after(c->fi_sites);
    const std::uint64_t end = next != nullptr ? next->fi_sites : golden.fi_sites;
    sparse.push_back({(c->fi_sites + end) / 2, 17});
  }
  for (const auto& [name, plan] :
       {std::pair<const char*, const std::vector<vm::FaultSpec>&>{"dense",
                                                                  dense},
        {"sparse", sparse}}) {
    std::vector<vm::Engine::Trial> lanes;
    std::vector<std::uint64_t> sites;
    for (const vm::FaultSpec& fault : plan) {
      lanes.push_back({&fault, 1});
      sites.push_back(fault.site);
    }
    vm::Engine engine(decoded, options);
    const std::vector<vm::VmResult> walked =
        walk_all(engine, &ckpts, options, lanes);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::string context = std::string(name) + " lane " +
                                  std::to_string(i) + " site " +
                                  std::to_string(plan[i].site);
      const vm::VmResult cold = vm::run_multi(build.program, options, {plan[i]});
      expect_same_result(cold, walked[i], context);
      EXPECT_EQ(cold.touched_functions, walked[i].touched_functions)
          << context;
    }
    const ForkPlan expected = fork_plan(sites, ckpts);
    EXPECT_EQ(engine.stats().forks, expected.forks) << name;
    EXPECT_EQ(engine.stats().restores, expected.restores) << name;
    EXPECT_EQ(engine.stats().trials, plan.size()) << name;
    if (std::string(name) == "dense") {
      EXPECT_GT(expected.forks, plan.size() / 2);
    } else {
      EXPECT_EQ(expected.forks, 0u);
      EXPECT_EQ(expected.restores, plan.size() - 1);
    }
  }
}

TEST(Engine, SitePcSinkRidesAlongWithoutPerturbingResults) {
  // The site-pc sink (prune mode's golden site map) is an observer: with
  // it attached, results and profiler tallies are unchanged, and it sees
  // exactly one pc per dynamic site — under whichever loop the engine
  // picks (the observer forces nothing; fi_site() feeds it on both).
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  const vm::PredecodedProgram decoded(build.program);
  vm::VmOptions options;
  vm::Engine engine(decoded, options);
  vm::VmOptions profiled = options;
  profiled.profile = true;

  const vm::VmResult plain = engine.run(profiled, nullptr, 0);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain.profile.has_value());

  std::vector<std::int32_t> sink;
  engine.set_site_pc_sink(&sink);
  const vm::VmResult observed = engine.run(profiled, nullptr, 0);
  engine.set_site_pc_sink(nullptr);
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(sink.size(), observed.fi_sites);
  expect_same_result(plain, observed, "sink attached");
  ASSERT_TRUE(observed.profile.has_value());
  std::uint64_t plain_sites = 0;
  std::uint64_t observed_sites = 0;
  for (std::size_t k = 0; k < plain.profile->site_counts.size(); ++k) {
    plain_sites += plain.profile->site_counts[k];
    observed_sites += observed.profile->site_counts[k];
  }
  EXPECT_EQ(plain_sites, plain.fi_sites);
  EXPECT_EQ(observed_sites, observed.fi_sites);

  // Without profiling (the bare loop), the sink still sees every site
  // and the result still matches.
  sink.clear();
  engine.set_site_pc_sink(&sink);
  const vm::VmResult bare = engine.run(options, nullptr, 0);
  engine.set_site_pc_sink(nullptr);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(sink.size(), bare.fi_sites);
  EXPECT_EQ(bare.fi_sites, plain.fi_sites);
}

TEST(Engine, GoldenRejoinIsResultExactAndAccounted) {
  // Trials whose state re-converges to a golden checkpoint boundary
  // adopt the golden tail. Exactness: every trial's result with rejoin
  // on equals the same trial with rejoin off, field by field. The
  // accounting must show actual rejoins, fewer interpreted steps, and an
  // unchanged executed+skipped total (elided tails count as skipped).
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kNone);
  const vm::VmResult golden = vm::run(build.program);
  ASSERT_TRUE(golden.ok());

  vm::VmOptions off;
  off.max_steps = fault::faulty_step_budget(golden.steps);
  off.golden_rejoin = false;
  vm::VmOptions on = off;
  on.golden_rejoin = true;

  const vm::PredecodedProgram decoded(build.program);
  vm::Engine reference(decoded, off);
  vm::Engine rejoining(decoded, on);
  vm::CheckpointSet ckpts;
  ASSERT_TRUE(reference.run_capturing(off, 32, ckpts).ok());
  vm::CheckpointSet mirror;  // keeps the two engines' trial counts equal
  ASSERT_TRUE(rejoining.run_capturing(on, 32, mirror).ok());
  ASSERT_TRUE(ckpts.summary().valid);

  const int n = 40;
  for (int i = 0; i < n; ++i) {
    vm::FaultSpec fault;
    fault.site = golden.fi_sites * static_cast<std::uint64_t>(i) / n;
    fault.bit = (i * 7) % 64;
    expect_same_result(reference.run_from(ckpts, off, &fault, 1),
                       rejoining.run_from(ckpts, on, &fault, 1),
                       "site " + std::to_string(fault.site));
  }
  EXPECT_EQ(reference.stats().rejoins, 0u);
  EXPECT_GT(rejoining.stats().rejoins, 0u);
  EXPECT_GT(reference.stats().steps_executed, rejoining.stats().steps_executed);
  EXPECT_EQ(reference.stats().steps_executed + reference.stats().steps_skipped,
            rejoining.stats().steps_executed +
                rejoining.stats().steps_skipped);
}

// ------------------------------------------------- pages no table holds --

/// Each iteration stores 7 through one leaq pointer, loads it back
/// through a second and prints it. A flip of bit 20 in the store
/// pointer sends that store 1 MiB below the stack, into a page the
/// golden run never writes and so no checkpoint table holds; the same
/// flip in the load pointer reads that page.
constexpr const char* kStrayPageAsm = R"(
main:
.entry:
	movq	$0, %r12
.loop:
	leaq	-64(%rsp), %rbx
	movq	$7, (%rbx)
	leaq	-64(%rsp), %rcx
	movq	(%rcx), %rdi
	call	print_int
	addq	$1, %r12
	cmpq	$6, %r12
	jne	.loop
	movq	$0, %rax
	ret
)";

/// The dynamic sites of the leaq instructions writing `reg`, in order.
std::vector<std::uint64_t> leaq_sites(const vm::PredecodedProgram& decoded,
                                      masm::Gpr reg) {
  vm::VmOptions options;
  vm::Engine engine(decoded, options);
  std::vector<std::int32_t> site_pcs;
  engine.set_site_pc_sink(&site_pcs);
  engine.run(options, nullptr, 0);
  engine.set_site_pc_sink(nullptr);
  std::vector<std::uint64_t> sites;
  for (std::size_t id = 0; id < site_pcs.size(); ++id) {
    const masm::AsmInst* inst =
        decoded.code()[static_cast<std::size_t>(site_pcs[id])].inst;
    if (inst->op == masm::Op::kLea && inst->ops[1].is_reg() &&
        inst->ops[1].reg == reg) {
      sites.push_back(id);
    }
  }
  return sites;
}

TEST(Engine, DirtyPagesNoCheckpointHoldsAreComparedAndRestored) {
  // Restore and the rejoin compare walk only the golden table's entries,
  // the pages with provenance and the dirty pages. A page that no table
  // holds is covered only by the dirty walk: a compare that skipped it
  // would rejoin trial A (a false rejoin over a page that is never read
  // again changes no result field, so the test asserts the flag), and a
  // restore that skipped it would hand A's stray store to trial B, which
  // reads that page and must see the zero a cold run sees.
  DiagEngine diags;
  const masm::AsmProgram program = masm::parse_program(kStrayPageAsm, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  const vm::PredecodedProgram decoded(program);
  const vm::VmResult golden = vm::run(program);
  ASSERT_TRUE(golden.ok());
  ASSERT_EQ(golden.output.size(), 6u);

  vm::VmOptions off;
  off.max_steps = fault::faulty_step_budget(golden.steps);
  off.golden_rejoin = false;
  vm::VmOptions on = off;
  on.golden_rejoin = true;
  vm::Engine engine(decoded, on);
  vm::CheckpointSet ckpts;
  ASSERT_TRUE(engine.run_capturing(on, 4, ckpts).ok());

  const std::vector<std::uint64_t> stores =
      leaq_sites(decoded, masm::Gpr::kRbx);
  const std::vector<std::uint64_t> loads =
      leaq_sites(decoded, masm::Gpr::kRcx);
  ASSERT_EQ(stores.size(), 6u);
  ASSERT_EQ(loads.size(), 6u);
  const vm::FaultSpec a{stores[1], 20};  // the second iteration's store
  const vm::FaultSpec b_cold{loads[0], 20};
  const vm::FaultSpec b_from{loads[3], 20};
  // The two B trials take the two restore paths: the first load precedes
  // the first post-start checkpoint (cold start), the fourth does not.
  ASSERT_EQ(ckpts.nearest_at_or_before(b_cold.site).fi_sites, 0u);
  ASSERT_GT(ckpts.nearest_at_or_before(b_from.site).fi_sites, 0u);
  ASSERT_GT(ckpts.nearest_at_or_before(a.site).fi_sites, 0u);

  // A: the stray store leaves the output golden but a page differs from
  // every later checkpoint, so A never rejoins.
  const vm::VmResult a_off = engine.run_from(ckpts, off, &a, 1);
  const vm::VmResult a_on = engine.run_from(ckpts, on, &a, 1);
  ASSERT_TRUE(a_off.ok());
  EXPECT_EQ(a_off.output, golden.output);
  expect_same_result(a_off, a_on, "trial A");
  EXPECT_FALSE(a_on.rejoined);

  // B after A on the same engine, on each restore path: it reads the
  // page A wrote, which must be zero again.
  std::vector<vm::VmResult> scalar = {a_on};
  for (const vm::FaultSpec& b : {b_cold, b_from}) {
    engine.run_from(ckpts, on, &a, 1);
    const vm::VmResult cold = vm::run_multi(program, on, {b});
    EXPECT_NE(cold.output, golden.output);  // B printed the zero
    scalar.push_back(engine.run_from(ckpts, on, &b, 1));
    expect_same_result(cold, scalar.back(),
                       "trial B at site " + std::to_string(b.site));
  }

  // The same trials as lanes of one walk equal their lone runs.
  const vm::FaultSpec lanes_faults[] = {a, b_cold, b_from};
  std::vector<vm::Engine::Trial> lanes;
  for (const vm::FaultSpec& fault : lanes_faults) lanes.push_back({&fault, 1});
  const std::vector<vm::VmResult> walked = walk_all(engine, &ckpts, on, lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::string context = "lane " + std::to_string(i);
    expect_same_result(scalar[i], walked[i], context);
    EXPECT_EQ(scalar[i].rejoined, walked[i].rejoined) << context;
  }
}

// ------------------------------------------------------ rejoin read masks --

/// Read mask of `reg` in a hand-written MiniASM program.
std::uint64_t read_mask_of(const char* text, masm::Gpr reg) {
  DiagEngine diags;
  const masm::AsmProgram program = masm::parse_program(text, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return vm::PredecodedProgram(program).gpr_read_mask(reg);
}

constexpr std::uint64_t kFullMask = ~std::uint64_t{0};

TEST(Engine, GprReadMaskCountsOperandWidths) {
  // FERRUM's flag-check shape: setcc writes the spare register, cmpb
  // reads its low byte. A merging narrow write reads nothing; a 32-bit
  // read widens the mask to four bytes; a register that is only written
  // is never compared at all. %rax is always full (the exit reads it).
  constexpr const char* kText = R"(
main:
.entry:
	setl	%r10b
	cmpb	$1, %r10b
	setg	%r11b
	cmpb	$0, %r11b
	movl	%r11d, %r8d
	sete	%r14b
	movq	$5, %r13
)";
  EXPECT_EQ(read_mask_of(kText, masm::Gpr::kR10), 0xffu);
  EXPECT_EQ(read_mask_of(kText, masm::Gpr::kR11), 0xffff'ffffu);
  EXPECT_EQ(read_mask_of(kText, masm::Gpr::kR8), 0u);
  EXPECT_EQ(read_mask_of(kText, masm::Gpr::kR13), 0u);
  EXPECT_EQ(read_mask_of(kText, masm::Gpr::kR14), 0u);
  EXPECT_EQ(read_mask_of(kText, masm::Gpr::kRsp), 0u);
  EXPECT_EQ(read_mask_of(kText, masm::Gpr::kRax), kFullMask);
}

TEST(Engine, GprReadMaskIsFullForAddressesAndImplicitReads) {
  // Address registers (base and index, of loads and stores alike), push
  // and its implicit stack pointer, a call's argument registers and ret's
  // return/callee-saved registers are read as whole registers.
  constexpr const char* kAddressAndPush = R"(
main:
.entry:
	movq	8(%rbx,%rdx,4), %r8
	movl	%r9d, 16(%rsi)
	pushq	%r12
)";
  EXPECT_EQ(read_mask_of(kAddressAndPush, masm::Gpr::kRbx), kFullMask);
  EXPECT_EQ(read_mask_of(kAddressAndPush, masm::Gpr::kRdx), kFullMask);
  EXPECT_EQ(read_mask_of(kAddressAndPush, masm::Gpr::kRsi), kFullMask);
  EXPECT_EQ(read_mask_of(kAddressAndPush, masm::Gpr::kR9), 0xffff'ffffu);
  EXPECT_EQ(read_mask_of(kAddressAndPush, masm::Gpr::kR12), kFullMask);
  EXPECT_EQ(read_mask_of(kAddressAndPush, masm::Gpr::kRsp), kFullMask);
  EXPECT_EQ(read_mask_of(kAddressAndPush, masm::Gpr::kR8), 0u);

  constexpr const char* kCall = R"(
main:
.entry:
	call	print_int
)";
  for (masm::Gpr reg : {masm::Gpr::kRdi, masm::Gpr::kRsi, masm::Gpr::kRdx,
                        masm::Gpr::kRcx, masm::Gpr::kR8, masm::Gpr::kR9,
                        masm::Gpr::kRsp}) {
    EXPECT_EQ(read_mask_of(kCall, reg), kFullMask) << static_cast<int>(reg);
  }
  EXPECT_EQ(read_mask_of(kCall, masm::Gpr::kR12), 0u);

  constexpr const char* kRet = R"(
main:
.entry:
	ret
)";
  for (masm::Gpr reg : {masm::Gpr::kRax, masm::Gpr::kRbx, masm::Gpr::kRsp,
                        masm::Gpr::kRbp, masm::Gpr::kR12, masm::Gpr::kR15}) {
    EXPECT_EQ(read_mask_of(kRet, reg), kFullMask) << static_cast<int>(reg);
  }
  EXPECT_EQ(read_mask_of(kRet, masm::Gpr::kR10), 0u);
}

/// A flip in bits 8-63 of %r10 just after a FERRUM flag check's setcc,
/// run with golden rejoin off (truth) and on, from the same checkpoints.
struct R10FlipRuns {
  std::uint64_t site = 0;
  /// fi_sites of the first checkpoint past `site`; 0 when there is none.
  std::uint64_t next_boundary = 0;
  std::vector<std::pair<vm::VmResult, vm::VmResult>> off_on;
};

R10FlipRuns run_r10_flips(const masm::AsmProgram& program) {
  const vm::PredecodedProgram decoded(program);
  const vm::VmResult golden = vm::run(program);
  EXPECT_TRUE(golden.ok());
  vm::VmOptions off;
  off.max_steps = fault::faulty_step_budget(golden.steps);
  off.golden_rejoin = false;
  vm::VmOptions on = off;
  on.golden_rejoin = true;

  // The golden site map locates every setcc that writes %r10b; take one
  // from the middle of the run so a checkpoint boundary follows it.
  vm::Engine engine(decoded, on);
  std::vector<std::int32_t> site_pcs;
  engine.set_site_pc_sink(&site_pcs);
  engine.run(on, nullptr, 0);
  engine.set_site_pc_sink(nullptr);
  std::vector<std::uint64_t> setcc_sites;
  for (std::size_t id = 0; id < site_pcs.size(); ++id) {
    const masm::AsmInst* inst =
        decoded.code()[static_cast<std::size_t>(site_pcs[id])].inst;
    if (inst->op == masm::Op::kSetcc && inst->ops[0].is_reg() &&
        inst->ops[0].reg == masm::Gpr::kR10) {
      setcc_sites.push_back(id);
    }
  }
  R10FlipRuns runs;
  if (setcc_sites.empty()) {
    ADD_FAILURE() << "no setcc writes %r10b";
    return runs;
  }
  runs.site = setcc_sites[setcc_sites.size() / 2];

  vm::CheckpointSet ckpts;
  EXPECT_TRUE(engine.run_capturing(on, 32, ckpts).ok());
  if (const vm::Checkpoint* next = ckpts.next_after(runs.site)) {
    runs.next_boundary = next->fi_sites;
  }
  for (int bit : {8, 31, 40, 63}) {
    vm::FaultSpec fault;
    fault.site = runs.site;
    fault.bit = bit;
    runs.off_on.emplace_back(engine.run_from(ckpts, off, &fault, 1),
                             engine.run_from(ckpts, on, &fault, 1));
  }
  return runs;
}

TEST(Engine, UnreadRegisterBytesRejoinAtTheNextBoundary) {
  // Every FERRUM kernel reads its spare flag registers only as bytes
  // (cmpb $k, %r10b), so a flip in bits 8-63 after the setcc is never
  // read and never overwritten. The exact comparison failed at every
  // boundary and such trials ran to halt; the masked comparison rejoins
  // at the first boundary past the fault, with a result equal to the
  // rejoin-off run on every field.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  ASSERT_EQ(vm::PredecodedProgram(build.program).gpr_read_mask(
                masm::Gpr::kR10),
            0xffu);
  const R10FlipRuns runs = run_r10_flips(build.program);
  ASSERT_NE(runs.next_boundary, 0u);
  ASSERT_FALSE(runs.off_on.empty());
  for (const auto& [off, on] : runs.off_on) {
    expect_same_result(off, on, "site " + std::to_string(runs.site));
    EXPECT_FALSE(off.rejoined);
    EXPECT_TRUE(on.rejoined);
    EXPECT_EQ(on.rejoin_site, runs.next_boundary);
  }
}

TEST(Engine, FullWidthReadOfTheFlippedRegisterBlocksRejoin) {
  // The negative case: the same program plus a never-called function
  // that reads %r10 whole. The mask is per program, so the flipped bytes
  // are now readable and the trial must not rejoin while they differ —
  // FERRUM never rewrites %r10's upper bytes, so it never rejoins.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  DiagEngine diags;
  masm::AsmProgram reader = masm::parse_program(R"(
reads_r10:
.entry:
	movq	%r10, %rax
	ret
)",
                                                diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  masm::AsmProgram program = build.program;
  program.functions.push_back(std::move(reader.functions.front()));
  ASSERT_EQ(vm::PredecodedProgram(program).gpr_read_mask(masm::Gpr::kR10),
            kFullMask);
  const R10FlipRuns runs = run_r10_flips(program);
  ASSERT_FALSE(runs.off_on.empty());
  for (const auto& [off, on] : runs.off_on) {
    expect_same_result(off, on, "site " + std::to_string(runs.site));
    EXPECT_FALSE(on.rejoined);
  }
}

TEST(EngineEquivalence, MaskedRejoinAtEveryBoundaryMatchesRejoinOff) {
  // The densest rejoin stress: stride-1 checkpoints put a boundary right
  // after every fault, so a trial is compared while its flipped register
  // still holds the flip. Flips in bits 8-63 are exactly the ones the
  // read masks may ignore; each rejoin must still equal the rejoin-off
  // run on every field, in every technique.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string source = fuzz_program(seed * 0x9e3779b97f4a7c15ull);
    for (Technique technique : kAllTechniques) {
      auto build = pipeline::build(source, technique);
      const vm::VmResult golden = vm::run(build.program);
      ASSERT_TRUE(golden.ok()) << source;
      vm::VmOptions off;
      off.max_steps = fault::faulty_step_budget(golden.steps);
      off.golden_rejoin = false;
      vm::VmOptions on = off;
      on.golden_rejoin = true;
      const vm::PredecodedProgram decoded(build.program);
      vm::Engine engine(decoded, on);
      vm::CheckpointSet ckpts;
      ASSERT_TRUE(engine.run_capturing(on, 1, ckpts).ok());
      const std::uint64_t step =
          std::max<std::uint64_t>(1, golden.fi_sites / 48);
      for (std::uint64_t site = 0; site < golden.fi_sites; site += step) {
        for (int bit : {9, 20, 33, 50}) {
          vm::FaultSpec fault;
          fault.site = site;
          fault.bit = bit;
          expect_same_result(engine.run_from(ckpts, off, &fault, 1),
                             engine.run_from(ckpts, on, &fault, 1),
                             "site " + std::to_string(site) + " bit " +
                                 std::to_string(bit) + "\n" + source);
        }
      }
      EXPECT_GT(engine.stats().rejoins, 0u);
    }
  }
}

TEST(EngineEquivalence, StrideRejoinJobsCross) {
  // Campaign-level closure over the engine knobs: stride and golden
  // rejoin must never change the deterministic campaign JSON. Truth is
  // the cold configuration with rejoin off.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 48;
  options.seed = 0xfeedbee5;
  options.vm.golden_rejoin = false;
  const std::string truth = campaign_json(build.program, options, 0, 1);
  options.vm.golden_rejoin = true;
  for (int stride : {0, 64}) {
    for (int jobs : {1, 2}) {
      EXPECT_EQ(truth, campaign_json(build.program, options, stride, jobs))
          << "stride=" << stride << " jobs=" << jobs;
    }
  }
  // Rejoin off with checkpoints: the remaining corner.
  options.vm.golden_rejoin = false;
  EXPECT_EQ(truth, campaign_json(build.program, options, 64, 2));
}

}  // namespace
}  // namespace ferrum
