// Campaign-service throughput: cold (every cell executes) vs warm (every
// cell answered by the content-addressed store). The cold pass runs
// kColdReps times, each on a fresh daemon, and its row is the median: one
// pass of 12 small cells swings more than bench_diff's tolerance. The warm
// pass resubmits the same cell set to the first daemon with another jobs
// value — jobs is not key material, so the store must still answer — and
// the artifact asserts the service contract in-place:
// every cold repetition returns the first one's bytes, warm bytes are
// byte-identical to cold, and zero engine trials execute while warm.
//
// Knobs: FERRUM_TRIALS (per cell), FERRUM_SVC_WORKERS (service workers).
// Artifact: BENCH_bench_service.json (schema in DESIGN.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/cell.h"
#include "service/service.h"
#include "support/env.h"
#include "support/hash.h"
#include "telemetry/json.h"

using namespace ferrum;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct PassResult {
  double seconds = 0.0;
  std::uint64_t trials_executed = 0;
  std::vector<const service::CellOutcome*> outcomes;
};

PassResult run_pass(service::Daemon& daemon,
                    std::vector<fault::CampaignCell> cells) {
  const std::uint64_t executed_before =
      daemon.metrics().counter("service/trials_executed").value();
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t job = daemon.submit(std::move(cells));
  PassResult pass;
  for (std::size_t i = 0; i < daemon.job_cells(job); ++i) {
    const service::CellOutcome* outcome = daemon.wait_cell(job, i);
    if (outcome == nullptr || !outcome->error.empty()) {
      std::fprintf(stderr, "cell %zu failed: %s\n", i,
                   outcome == nullptr ? "missing" : outcome->error.c_str());
      std::exit(1);
    }
    pass.outcomes.push_back(outcome);
  }
  pass.seconds = seconds_since(start);
  pass.trials_executed =
      daemon.metrics().counter("service/trials_executed").value() -
      executed_before;
  return pass;
}

}  // namespace

int main() {
  const int trials = benchutil::env_trials(400);
  service::ServiceOptions options;
  options.workers = env_svc_workers(/*fallback=*/4);
  service::Daemon daemon(options);

  const char* kWorkloads[] = {"bfs", "kmeans", "pathfinder"};
  const char* kTechniques[] = {"none", "ferrum"};
  std::vector<fault::CampaignCell> cells;
  for (const char* workload : kWorkloads) {
    for (const char* technique : kTechniques) {
      fault::CampaignCell cell;
      cell.workload = workload;
      cell.technique = technique;
      cell.trials = trials;
      cell.jobs = 1;  // per-cell engine stays scalar; the pool is the service
      cells.push_back(cell);
      // A reseeded sibling: a different cache key (seed is key material)
      // over the SAME program, so its golden run + checkpoints must come
      // from the shared program state, not a second golden walk.
      cell.seed = cell.seed + 1;
      cells.push_back(cell);
    }
  }
  const std::uint64_t kDistinctPrograms = 6;  // 3 workloads x 2 techniques

  const std::uint64_t built_before =
      daemon.metrics().counter("service/golden/built").value();
  const std::uint64_t reused_before =
      daemon.metrics().counter("service/golden/reused").value();
  const PassResult cold = run_pass(daemon, cells);
  const std::uint64_t golden_built =
      daemon.metrics().counter("service/golden/built").value() - built_before;
  const std::uint64_t golden_reused =
      daemon.metrics().counter("service/golden/reused").value() -
      reused_before;

  constexpr int kColdReps = 5;
  std::vector<double> cold_seconds{cold.seconds};
  bool cold_repeatable = true;
  for (int rep = 1; rep < kColdReps; ++rep) {
    service::Daemon fresh(options);
    const PassResult again = run_pass(fresh, cells);
    cold_seconds.push_back(again.seconds);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (again.outcomes[i]->result_json != cold.outcomes[i]->result_json) {
        cold_repeatable = false;
      }
    }
  }
  std::sort(cold_seconds.begin(), cold_seconds.end());
  const double median_cold_seconds = cold_seconds[kColdReps / 2];

  // Warm resubmission under another jobs value: the key excludes it, so
  // every cell must come back from the store.
  std::vector<fault::CampaignCell> retuned = cells;
  for (fault::CampaignCell& cell : retuned) cell.jobs = 2;
  const PassResult warm = run_pass(daemon, retuned);

  bool byte_identical = true;
  std::uint64_t cache_hits = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (warm.outcomes[i]->result_json != cold.outcomes[i]->result_json ||
        warm.outcomes[i]->key != cold.outcomes[i]->key) {
      byte_identical = false;
    }
    if (warm.outcomes[i]->cached) ++cache_hits;
  }

  std::printf("campaign service: %zu cells x %d trials, %d workers\n",
              cells.size(), trials, options.workers);
  benchutil::print_rule(64);
  std::printf("%-28s %12s %16s\n", "pass", "seconds", "trials executed");
  std::printf("%-28s %12.3f %16llu\n", "cold (median pass)",
              median_cold_seconds,
              static_cast<unsigned long long>(cold.trials_executed));
  std::printf("%-28s %12.3f %16llu\n", "warm (store answers)", warm.seconds,
              static_cast<unsigned long long>(warm.trials_executed));
  benchutil::print_rule(64);
  // Each pass's throughput on its own: a ratio of the two would fall
  // whenever cold cells get faster.
  const auto cells_per_second = [&](double seconds) {
    return seconds > 0.0 ? static_cast<double>(cells.size()) / seconds : 0.0;
  };
  const double cold_rate = cells_per_second(median_cold_seconds);
  const double best_cold_rate = cells_per_second(cold_seconds.front());
  const double warm_rate = cells_per_second(warm.seconds);
  std::printf("cells/s: cold %.1f (best %.1f, bytes %s), warm %.1f; cache "
              "hits: %llu/%zu, bytes %s\n",
              cold_rate, best_cold_rate,
              cold_repeatable ? "repeat" : "DIVERGED", warm_rate,
              static_cast<unsigned long long>(cache_hits), cells.size(),
              byte_identical ? "identical" : "DIVERGED");
  // Cross-cell golden sharing: each distinct program walks its golden
  // run exactly once; every reseeded sibling reuses it.
  const bool golden_shared =
      golden_built == kDistinctPrograms &&
      golden_reused == cells.size() - kDistinctPrograms;
  std::printf("golden runs: built %llu, reused %llu (%s)\n",
              static_cast<unsigned long long>(golden_built),
              static_cast<unsigned long long>(golden_reused),
              golden_shared ? "shared" : "NOT SHARED");

  benchutil::BenchReport report("bench_service");
  telemetry::Json& metrics = report.metrics();
  metrics["cells"] = static_cast<std::uint64_t>(cells.size());
  metrics["trials_per_cell"] = trials;
  // The contract, asserted in-artifact: a warm pass returns the cold
  // bytes verbatim and runs zero engine trials.
  metrics["cold_reps_match"] = cold_repeatable;
  metrics["warm_matches_cold"] = byte_identical;
  metrics["warm_trials_executed"] = warm.trials_executed;
  metrics["cold_trials_executed"] = cold.trials_executed;
  metrics["golden_built"] = golden_built;
  metrics["golden_reused"] = golden_reused;
  metrics["golden_shared"] = golden_shared;
  telemetry::Json per_cell = telemetry::Json::array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    telemetry::Json entry = telemetry::Json::object();
    entry["workload"] = cells[i].workload;
    entry["technique"] = cells[i].technique;
    entry["key"] = cold.outcomes[i]->key;
    entry["result_sha256"] = sha256_hex(cold.outcomes[i]->result_json);
    per_cell.push_back(entry);
  }
  metrics["cells_detail"] = per_cell;
  telemetry::Json& wallclock = report.wallclock();
  wallclock["cold_seconds"] = median_cold_seconds;
  wallclock["warm_seconds"] = warm.seconds;
  wallclock["cold_cells_per_second"] = cold_rate;
  wallclock["best_cold_cells_per_second"] = best_cold_rate;
  wallclock["reps"] = kColdReps;
  wallclock["warm_cells_per_second"] = warm_rate;
  wallclock["workers"] = options.workers;
  wallclock["cache_hits"] = cache_hits;
  report.write();

  if (!cold_repeatable) {
    std::fprintf(stderr, "cold repetitions returned different bytes\n");
    return 1;
  }
  if (!byte_identical || warm.trials_executed != 0) {
    std::fprintf(stderr,
                 "service contract violated: warm pass %s, %llu trials\n",
                 byte_identical ? "matched" : "diverged",
                 static_cast<unsigned long long>(warm.trials_executed));
    return 1;
  }
  if (!golden_shared) {
    std::fprintf(stderr,
                 "golden sharing violated: built %llu (want %llu), reused "
                 "%llu (want %llu)\n",
                 static_cast<unsigned long long>(golden_built),
                 static_cast<unsigned long long>(kDistinctPrograms),
                 static_cast<unsigned long long>(golden_reused),
                 static_cast<unsigned long long>(cells.size() -
                                                 kDistinctPrograms));
    return 1;
  }
  return 0;
}
