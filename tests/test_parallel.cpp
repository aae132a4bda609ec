#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/prune.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "support/parallel.h"
#include "telemetry/export.h"

namespace ferrum {
namespace {

TEST(ThreadPoolTest, HardwareWorkersAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_workers(), 1);
}

TEST(ThreadPoolTest, DefaultsToHardwareWorkers) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), ThreadPool::hardware_workers());
  ThreadPool negative(-3);
  EXPECT_EQ(negative.workers(), ThreadPool::hardware_workers());
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1337;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, MoreChunksThanWorkers) {
  // grain 1 over 100 indices with 3 workers: 100 chunks for 3 claimants.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(
      100,
      [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(end, begin + 1);
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.parallel_for(64, [&](std::size_t, std::size_t) {
    seen.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(
          1000,
          [&](std::size_t begin, std::size_t) {
            if (begin >= 500) throw std::runtime_error("boom");
          },
          /*grain=*/10),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromSingleWorker) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t, std::size_t) {
                                   throw std::runtime_error("inline boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, UsableAgainAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t, std::size_t) {
                                   throw std::runtime_error("first");
                                 }),
               std::runtime_error);
  std::atomic<int> total{0};
  pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, ManySequentialJobsOnOnePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.parallel_for(round, [&](std::size_t begin, std::size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(total.load(), round);
  }
}

TEST(ThreadPoolTest, CheckpointedCampaignSharesSnapshotsAcrossWorkers) {
  // TSan-preset coverage for the fast-forward engine: the CheckpointSet
  // is captured once on the calling thread and then read concurrently by
  // every worker's Engine; a missing happens-before edge or a hidden
  // write to the shared snapshots shows up here under
  // -DFERRUM_SANITIZE=thread. A tight stride maximises concurrent
  // restores from the same pages.
  auto build = pipeline::build(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 12; i++) s += i * i;
      print_int(s);
      return 0;
    })", pipeline::Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 96;
  options.jobs = 1;
  const fault::Golden golden(build.program, options.vm,
                             fault::GoldenRecord::kNothing, /*ckpt_stride=*/4);
  const auto serial = fault::run_campaign(golden, options);
  options.jobs = 8;
  const auto parallel = fault::run_campaign(golden, options);
  EXPECT_EQ(serial.counts, parallel.counts);
  EXPECT_EQ(serial.sdc_breakdown, parallel.sdc_breakdown);
  EXPECT_GT(parallel.ckpt.ff.restores, 0u);
}

TEST(ThreadPoolTest, GoldenWalksAreJobsInvariant) {
  // TSan-preset coverage for the golden walk: each worker's Engine walks
  // its chunk while reading the shared CheckpointSet (including its
  // GoldenSummary for rejoin comparisons) concurrently with every other
  // worker. A pruned audit is a dense plan whose walks fork; a sampled
  // campaign is a sparse one whose lanes mostly restore. Each must be
  // byte-identical at jobs 1 and 4.
  auto build = pipeline::build(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 12; i++) s += i * i;
      print_int(s);
      return 0;
    })", pipeline::Technique::kFerrum);
  const check::prune::PruneReport prune =
      check::prune::prune_program(build.program);
  fault::AuditOptions audit;
  audit.prune = &prune;
  fault::CampaignOptions campaign;
  campaign.trials = 96;
  const fault::Golden golden(build.program, audit.vm,
                             fault::GoldenRecord::kSiteMap, /*ckpt_stride=*/4);
  std::string audit_truth;
  std::string campaign_truth;
  for (const int jobs : {1, 4}) {
    audit.jobs = jobs;
    const auto audited = fault::audit_program(golden, audit);
    campaign.jobs = jobs;
    const auto sampled = fault::run_campaign(golden, campaign);
    if (jobs == 1) {
      audit_truth = telemetry::to_json(audited).dump();
      campaign_truth = telemetry::to_json(sampled).dump();
      EXPECT_GT(audited.ckpt.ff.forks, 0u);
      continue;
    }
    EXPECT_EQ(audit_truth, telemetry::to_json(audited).dump());
    EXPECT_EQ(campaign_truth, telemetry::to_json(sampled).dump());
    EXPECT_GT(sampled.ckpt.ff.restores, 0u);
  }
}

TEST(ThreadPoolTest, PrunedCampaignIsJobsInvariant) {
  // TSan-preset coverage for prune mode: the shared PruneReport and the
  // golden-run CheckpointSet are read concurrently by every worker while
  // pilot runs execute; the serial pre-draw plus trial-order reduction
  // must keep the extrapolated result bit-identical to the single-worker
  // run (counts, breakdown, latency, and the prune accounting itself).
  auto build = pipeline::build(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 12; i++) s += i * i;
      print_int(s);
      return 0;
    })", pipeline::Technique::kFerrum);
  const check::prune::PruneReport prune =
      check::prune::prune_program(build.program);
  fault::CampaignOptions options;
  options.trials = 96;
  options.prune = &prune;
  options.jobs = 1;
  const fault::Golden golden(build.program, options.vm,
                             fault::GoldenRecord::kSiteMap, /*ckpt_stride=*/4);
  const auto serial = fault::run_campaign(golden, options);
  options.jobs = 8;
  const auto parallel = fault::run_campaign(golden, options);
  EXPECT_EQ(serial.counts, parallel.counts);
  EXPECT_EQ(serial.sdc_breakdown, parallel.sdc_breakdown);
  EXPECT_EQ(serial.latency_sum, parallel.latency_sum);
  EXPECT_EQ(serial.prune.pilot_runs, parallel.prune.pilot_runs);
  EXPECT_EQ(serial.prune.dead_trials, parallel.prune.dead_trials);
  EXPECT_EQ(serial.prune.replayed_trials, parallel.prune.replayed_trials);
  EXPECT_TRUE(parallel.prune.enabled);
  EXPECT_LT(parallel.prune.pilot_runs, 96u);  // pruning actually pruned
}

TEST(ThreadPoolTest, AdaptiveCampaignIsJobsInvariant) {
  // TSan-preset coverage for the adaptive stop rule: the boundary loop
  // joins the pool after every block, then reads each trial's outcome
  // slot from the calling thread — the determinism contract (and the
  // happens-before edge behind it) is that the stopped count and every
  // counter agree across workers. One shared
  // fault::Golden serves every run, read concurrently by all workers, to
  // mirror the service's cross-cell reuse under the race detector.
  auto build = pipeline::build(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 12; i++) s += i * i;
      print_int(s);
      return 0;
    })", pipeline::Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 2048;
  options.max_half_width = 0.05;
  options.jobs = 1;
  const fault::Golden golden(build.program, options.vm,
                             fault::GoldenRecord::kNothing, /*ckpt_stride=*/4);
  const auto serial = fault::run_campaign(golden, options);
  ASSERT_TRUE(serial.adaptive.stopped_early);
  for (const int jobs : {2, 8}) {
    options.jobs = jobs;
    const auto parallel = fault::run_campaign(golden, options);
    EXPECT_EQ(serial.adaptive.executed_trials,
              parallel.adaptive.executed_trials);
    EXPECT_EQ(serial.counts, parallel.counts);
    EXPECT_EQ(serial.sdc_breakdown, parallel.sdc_breakdown);
    EXPECT_EQ(serial.latency_sum, parallel.latency_sum);
  }
}

TEST(ThreadPoolTest, FreeFunctionCoversRange) {
  std::vector<std::atomic<int>> hits(256);
  parallel_for(4, 256, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace ferrum
