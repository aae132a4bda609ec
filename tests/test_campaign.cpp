#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "check/prune.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/step_budget.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using fault::Outcome;
using pipeline::Technique;

constexpr const char* kSmallProgram = R"(
  int main() {
    int s = 0;
    for (int i = 0; i < 12; i++) s += i * i;
    print_int(s);
    return 0;
  })";

TEST(Campaign, CountsSumToTrials) {
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  fault::CampaignOptions options;
  options.trials = 64;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_EQ(result.trials(), 64);
  EXPECT_GT(result.total_sites, 0u);
  EXPECT_GT(result.golden_steps, 0u);
}

TEST(Campaign, DeterministicForFixedSeed) {
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  fault::CampaignOptions options;
  options.trials = 48;
  options.seed = 777;
  const auto a = fault::run_campaign(build.program, options);
  const auto b = fault::run_campaign(build.program, options);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.sdc_breakdown, b.sdc_breakdown);
}

TEST(Campaign, DifferentSeedsDiffer) {
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  fault::CampaignOptions a_options;
  a_options.trials = 64;
  a_options.seed = 1;
  fault::CampaignOptions b_options = a_options;
  b_options.seed = 2;
  const auto a = fault::run_campaign(build.program, a_options);
  const auto b = fault::run_campaign(build.program, b_options);
  // Extremely unlikely to tie exactly on all four counters.
  EXPECT_NE(a.counts, b.counts);
}

TEST(Campaign, UnprotectedProgramShowsSdcs) {
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  fault::CampaignOptions options;
  options.trials = 200;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_GT(result.count(Outcome::kSdc), 0);
  EXPECT_EQ(result.count(Outcome::kDetected), 0);  // nothing to detect with
  EXPECT_GT(result.sdc_rate(), 0.0);
}

TEST(Campaign, FerrumDetectsEverySampledFault) {
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 300;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_EQ(result.count(Outcome::kSdc), 0);
  EXPECT_GT(result.count(Outcome::kDetected), 0);
}

TEST(Campaign, HybridDetectsEverySampledFault) {
  auto build = pipeline::build(kSmallProgram, Technique::kHybrid);
  fault::CampaignOptions options;
  options.trials = 300;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_EQ(result.count(Outcome::kSdc), 0);
}

TEST(Campaign, IrEddiLeavesResidualSdcs) {
  // The cross-layer gap (paper Sec IV-B1): IR-level protection misses
  // backend-introduced fault sites on at least one workload.
  int residual = 0;
  for (const char* name : {"bfs", "lud", "backprop"}) {
    const auto& w = workloads::by_name(name);
    auto build = pipeline::build(w.source, Technique::kIrEddi);
    fault::CampaignOptions options;
    options.trials = 250;
    residual += fault::run_campaign(build.program, options)
                    .count(Outcome::kSdc);
  }
  EXPECT_GT(residual, 0);
}

TEST(Campaign, SdcBreakdownIdentifiesOrigins) {
  const auto& w = workloads::by_name("lud");
  auto build = pipeline::build(w.source, Technique::kIrEddi);
  fault::CampaignOptions options;
  options.trials = 400;
  const auto result = fault::run_campaign(build.program, options);
  int breakdown_total = 0;
  for (const auto& [key, count] : result.sdc_breakdown) {
    EXPECT_NE(key.find('/'), std::string::npos) << key;
    breakdown_total += count;
  }
  EXPECT_EQ(breakdown_total, result.count(Outcome::kSdc));
}

void expect_identical(const fault::CampaignResult& a,
                      const fault::CampaignResult& b) {
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.total_sites, b.total_sites);
  EXPECT_EQ(a.golden_steps, b.golden_steps);
  EXPECT_EQ(a.sdc_breakdown, b.sdc_breakdown);
  EXPECT_EQ(a.latency_sum, b.latency_sum);
  EXPECT_EQ(a.latency_max, b.latency_max);
  EXPECT_EQ(a.latency_samples, b.latency_samples);
}

TEST(Campaign, DeterministicAcrossJobCounts) {
  // The determinism guarantee: one seed, one sampled fault set, one
  // result — regardless of how many workers execute the trials.
  const auto& w = workloads::by_name("bfs");
  for (Technique technique : {Technique::kNone, Technique::kFerrum}) {
    auto build = pipeline::build(w.source, technique);
    fault::CampaignOptions options;
    options.trials = 120;
    options.seed = 0xdecaf;
    options.jobs = 1;
    const auto serial = fault::run_campaign(build.program, options);
    for (int jobs : {2, 8}) {
      options.jobs = jobs;
      const auto parallel = fault::run_campaign(build.program, options);
      expect_identical(serial, parallel);
    }
  }
}

TEST(Campaign, DeterministicAcrossJobCountsMultiFault) {
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 100;
  options.faults_per_run = 2;
  options.burst = 2;
  options.jobs = 1;
  const auto serial = fault::run_campaign(build.program, options);
  for (int jobs : {2, 8}) {
    options.jobs = jobs;
    expect_identical(serial, fault::run_campaign(build.program, options));
  }
}

TEST(Campaign, JobsZeroSelectsHardwareConcurrencyAndStaysDeterministic) {
  auto build = pipeline::build(kSmallProgram, Technique::kHybrid);
  fault::CampaignOptions options;
  options.trials = 80;
  options.jobs = 1;
  const auto serial = fault::run_campaign(build.program, options);
  options.jobs = 0;  // hardware concurrency
  expect_identical(serial, fault::run_campaign(build.program, options));
}

TEST(Audit, DeterministicAcrossJobCounts) {
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  fault::AuditOptions options;
  options.probe_bits = {0, 17, 63};
  options.jobs = 1;
  const auto serial = fault::audit_program(build.program, options);
  ASSERT_FALSE(serial.escapes.empty());  // unprotected: SDCs escape
  for (int jobs : {2, 8}) {
    options.jobs = jobs;
    const auto parallel = fault::audit_program(build.program, options);
    EXPECT_EQ(serial.sites, parallel.sites);
    EXPECT_EQ(serial.injections, parallel.injections);
    EXPECT_EQ(serial.detected, parallel.detected);
    EXPECT_EQ(serial.benign, parallel.benign);
    EXPECT_EQ(serial.crashed, parallel.crashed);
    // The escape list must come out in site order, byte-identical.
    ASSERT_EQ(serial.escapes.size(), parallel.escapes.size());
    for (std::size_t i = 0; i < serial.escapes.size(); ++i) {
      EXPECT_EQ(serial.escapes[i].site, parallel.escapes[i].site);
      EXPECT_EQ(serial.escapes[i].bit, parallel.escapes[i].bit);
      EXPECT_EQ(serial.escapes[i].kind, parallel.escapes[i].kind);
      EXPECT_EQ(serial.escapes[i].origin, parallel.escapes[i].origin);
      EXPECT_EQ(serial.escapes[i].function, parallel.escapes[i].function);
    }
  }
}

TEST(StepBudget, CampaignAndAuditShareOneHangBound) {
  // Regression: the campaign used golden*16 + 100'000 while the audit
  // used golden*16 + 10'000, so the same borderline livelock could be a
  // crash in one and a budget-exhaustion in the other.
  EXPECT_EQ(fault::faulty_step_budget(0), 100'000u);
  EXPECT_EQ(fault::faulty_step_budget(1000), 116'000u);
}

TEST(Campaign, MultiFaultLatencyAnchorsOnFirstInjection) {
  // VM-level contract behind the CampaignResult documentation: with
  // several faults per run, fault_step records the dynamically FIRST
  // injected fault no matter the order the specs were listed in.
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  const vm::VmResult golden = vm::run(build.program);
  ASSERT_GT(golden.fi_sites, 60u);

  vm::VmOptions faulty;
  faulty.max_steps = fault::faulty_step_budget(golden.steps);
  vm::FaultSpec early;
  early.site = 5;
  early.bit = 3;
  vm::FaultSpec late;
  late.site = 60;
  late.bit = 3;

  const vm::VmResult only_early = vm::run(build.program, faulty, &early);
  ASSERT_TRUE(only_early.fault_injected);
  // Spec order reversed (late listed first) must not move the anchor.
  const vm::VmResult both =
      vm::run_multi(build.program, faulty, {late, early});
  ASSERT_TRUE(both.fault_injected);
  EXPECT_EQ(both.fault_step, only_early.fault_step);
}

TEST(Campaign, MultiFaultLatencyIsWellDefined) {
  // ablation_multibit's double-fault cell: latency statistics must stay
  // internally consistent when two faults land per run.
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 200;
  options.faults_per_run = 2;
  const auto result = fault::run_campaign(build.program, options);
  ASSERT_GT(result.latency_samples, 0);
  EXPECT_LE(result.latency_samples, result.count(Outcome::kDetected));
  EXPECT_GE(result.mean_detection_latency(), 0.0);
  EXPECT_LE(result.mean_detection_latency(),
            static_cast<double>(result.latency_max));
  // Latency from the first injection can never exceed the step budget.
  EXPECT_LT(result.latency_max,
            fault::faulty_step_budget(result.golden_steps));
}

TEST(Campaign, GoldenFailureThrows) {
  // A program that traps cleanly cannot be a campaign target.
  auto build = pipeline::build(
      "int main() { int z = 0; print_int(1 / z); return 0; }",
      Technique::kNone);
  EXPECT_THROW(fault::run_campaign(build.program, {}), std::runtime_error);
}

TEST(Coverage, MetricMatchesPaperDefinition) {
  EXPECT_DOUBLE_EQ(fault::sdc_coverage(0.5, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fault::sdc_coverage(0.5, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(fault::sdc_coverage(0.5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fault::sdc_coverage(0.0, 0.0), 1.0);  // nothing to cover
}

TEST(Outcomes, Names) {
  EXPECT_STREQ(fault::outcome_name(Outcome::kBenign), "benign");
  EXPECT_STREQ(fault::outcome_name(Outcome::kSdc), "sdc");
  EXPECT_STREQ(fault::outcome_name(Outcome::kDetected), "detected");
  EXPECT_STREQ(fault::outcome_name(Outcome::kCrash), "crash");
}

// ---------------------------------------------------- adaptive stop --

TEST(Adaptive, BoundaryLadderDoublesFromMinTrials) {
  const fault::StopRule rule{0.05};
  EXPECT_EQ(fault::stop_boundaries(1000, rule),
            (std::vector<int>{64, 128, 256, 512, 1000}));
  // The planned budget is always the final boundary, even when the
  // ladder lands on it exactly.
  EXPECT_EQ(fault::stop_boundaries(256, rule),
            (std::vector<int>{64, 128, 256}));
  // Budgets at or below min_trials evaluate once, at the full budget.
  EXPECT_EQ(fault::stop_boundaries(64, rule), (std::vector<int>{64}));
  EXPECT_EQ(fault::stop_boundaries(10, rule), (std::vector<int>{10}));
  EXPECT_TRUE(fault::stop_boundaries(0, rule).empty());
}

TEST(Adaptive, WilsonHalfWidthShrinksWithSampleSize) {
  EXPECT_DOUBLE_EQ(fault::wilson_half_width(0, 0), 0.5);  // vacuous [0,1]
  const double at_64 = fault::wilson_half_width(32, 64);
  const double at_1024 = fault::wilson_half_width(512, 1024);
  EXPECT_GT(at_64, at_1024);
  EXPECT_GT(at_1024, 0.0);
  // Extreme rates are the narrowest — the stop rule keys on the WIDEST
  // of the four outcome rates, which is what max_outcome_half_width
  // returns.
  EXPECT_LT(fault::wilson_half_width(0, 64), at_64);
  const std::array<int, 4> counts{16, 16, 16, 16};
  EXPECT_DOUBLE_EQ(fault::max_outcome_half_width(counts, 64),
                   fault::wilson_half_width(16, 64));
}

TEST(Adaptive, StopsEarlyOnACanonicalPrefix) {
  // The load-bearing property: the adaptive result is EXACTLY the
  // full-budget campaign truncated to its first `executed` canonical
  // trials — asserted by re-running with trials=executed and no stop
  // rule and requiring byte-identical deterministic JSON.
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 4096;
  options.max_half_width = 0.05;
  const auto adaptive = fault::run_campaign(build.program, options);
  ASSERT_TRUE(adaptive.adaptive.enabled);
  ASSERT_TRUE(adaptive.adaptive.stopped_early);
  ASSERT_LT(adaptive.adaptive.executed_trials, 4096);
  EXPECT_EQ(adaptive.trials(), adaptive.adaptive.executed_trials);
  EXPECT_GE(adaptive.adaptive.reduction(), 2.0);
  // Every half-width at the stop boundary is pinned under the target.
  for (const double half_width : adaptive.adaptive.half_widths) {
    EXPECT_LE(half_width, 0.05);
  }

  fault::CampaignOptions prefix_options;
  prefix_options.trials = adaptive.adaptive.executed_trials;
  const auto prefix = fault::run_campaign(build.program, prefix_options);
  EXPECT_EQ(adaptive.counts, prefix.counts);
  EXPECT_EQ(adaptive.sdc_breakdown, prefix.sdc_breakdown);
  EXPECT_EQ(adaptive.latency_sum, prefix.latency_sum);
}

TEST(Adaptive, StoppedCountIsEngineKnobInvariant) {
  // The determinism clause: the stopped trial count and the full
  // deterministic JSON agree across jobs.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  std::string reference;
  int reference_executed = -1;
  for (const int jobs : {1, 2, 8}) {
    fault::CampaignOptions options;
    options.trials = 2048;
    options.max_half_width = 0.04;
    options.jobs = jobs;
    const auto result = fault::run_campaign(build.program, options);
    const std::string dump = telemetry::to_json(result).dump();
    if (reference.empty()) {
      reference = dump;
      reference_executed = result.adaptive.executed_trials;
    } else {
      EXPECT_EQ(result.adaptive.executed_trials, reference_executed)
          << "stopped count moved at jobs=" << jobs;
      EXPECT_EQ(dump, reference) << "adaptive JSON diverged at jobs=" << jobs;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(Adaptive, DisabledTargetRunsTheFullBudget) {
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  fault::CampaignOptions options;
  options.trials = 128;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_FALSE(result.adaptive.enabled);
  EXPECT_EQ(result.trials(), 128);
}

TEST(Adaptive, WideTargetNeverStopsBeforeTheBudget) {
  // A target no campaign can reach (tighter than 1/sqrt(planned) allows)
  // must degrade to the full budget with stopped_early = false.
  auto build = pipeline::build(kSmallProgram, Technique::kNone);
  fault::CampaignOptions options;
  options.trials = 128;
  options.max_half_width = 0.001;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_TRUE(result.adaptive.enabled);
  EXPECT_FALSE(result.adaptive.stopped_early);
  EXPECT_EQ(result.adaptive.executed_trials, 128);
  EXPECT_EQ(result.trials(), 128);
}

TEST(Adaptive, PruneModeRejectsTheStopRule) {
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  // The rejection fires before the plan is consulted, so an empty report
  // exercises it without linking the prune analysis into this binary.
  check::prune::PruneReport prune_report;
  fault::CampaignOptions options;
  options.trials = 64;
  options.max_half_width = 0.05;
  options.prune = &prune_report;
  EXPECT_THROW(fault::run_campaign(build.program, options),
               std::invalid_argument);
}

// ---------------------------------------------------- prepared state --

TEST(Prepared, SharedStateIsResultInvariant) {
  // fault::Golden is the service's cross-cell engine-state reuse: a
  // campaign run against a golden run prepared beforehand must be
  // byte-identical to one that prepares its own.
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 96;
  const auto owned = fault::run_campaign(build.program, options);

  const fault::Golden golden(build.program, options.vm);
  const auto shared = fault::run_campaign(golden, options);
  EXPECT_EQ(telemetry::to_json(owned).dump(),
            telemetry::to_json(shared).dump());

  // Different seeds/trials against ONE golden run (the service's
  // N-cells-one-program pattern) still match their owned-state twins.
  for (const std::uint64_t seed : {1u, 2u}) {
    fault::CampaignOptions cell;
    cell.trials = 64;
    cell.seed = seed;
    const auto cold = fault::run_campaign(build.program, cell);
    const auto warm = fault::run_campaign(golden, cell);
    EXPECT_EQ(telemetry::to_json(cold).dump(),
              telemetry::to_json(warm).dump());
  }
}

TEST(Prepared, StoreDataMismatchThrows) {
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  vm::VmOptions vm;
  vm.fault_store_data = false;
  const fault::Golden golden(build.program, vm);
  fault::CampaignOptions options;
  options.trials = 16;
  options.vm.fault_store_data = true;  // disagrees: different site space
  EXPECT_THROW(fault::run_campaign(golden, options), std::invalid_argument);
}

TEST(Prepared, PruneNeedsTheSiteMap) {
  // A pruned campaign or audit resolves dynamic sites through the golden
  // run's site map; a golden run that did not record it is refused.
  auto build = pipeline::build(kSmallProgram, Technique::kFerrum);
  const check::prune::PruneReport prune =
      check::prune::prune_program(build.program);
  const fault::Golden golden(build.program, vm::VmOptions{});
  fault::CampaignOptions campaign;
  campaign.trials = 16;
  campaign.prune = &prune;
  EXPECT_THROW(fault::run_campaign(golden, campaign), std::invalid_argument);
  fault::AuditOptions audit;
  audit.prune = &prune;
  EXPECT_THROW(fault::audit_program(golden, audit), std::invalid_argument);

  const fault::Golden mapped(build.program, vm::VmOptions{},
                             fault::GoldenRecord::kSiteMap);
  EXPECT_EQ(telemetry::to_json(fault::run_campaign(mapped, campaign)).dump(),
            telemetry::to_json(fault::run_campaign(build.program, campaign))
                .dump());
}

}  // namespace
}  // namespace ferrum
