// ferrumd — fault-injection-as-a-service. A long-running daemon that
// accepts *jobs* (lists of campaign cells, see fault/cell.h), executes
// them on a work-stealing pool of service workers (each cell reusing the
// predecode + checkpoint + golden-walk campaign machinery underneath), and
// fronts everything with the content-addressed result cache: a cell
// whose key was already computed — by this job, an earlier job, or a
// daemon that shared the cache directory — is answered from the store
// byte-identically, without executing a single trial.
//
// Determinism contract: a cell's result bytes are a pure function of its
// spec. Worker count, submission order, stealing, cache state and the
// cold/warm distinction can never change them — only whether the bytes
// were recomputed or copied. tests/test_service.cpp and the
// service_smoke ctest assert this across worker counts and submission
// orders, and the TSan preset vets the pool.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/cell.h"
#include "masm/masm.h"
#include "service/cache.h"
#include "support/transport.h"
#include "telemetry/metrics.h"

namespace ferrum::service {

struct ServiceOptions {
  /// Service worker threads = campaign cells in flight at once. Each
  /// cell still fans out over its own inner `jobs` pool. Result-
  /// invariant by contract.
  int workers = 2;
  /// Content-addressed store directory; empty = in-memory only.
  std::string cache_dir;
};

/// Per-program engine state shared across cells: the golden run
/// (fault::Golden: predecode, result and checkpoints) plus shared
/// ownership of the program the predecode points into. Built once per
/// (program hash, store_data) under a program-hash lock and handed
/// read-only to every campaign of that program — N cells over different
/// seeds/trials/techniques-that-built-the-same-assembly no longer each
/// redo the golden walk. Refcounted: a cell holds its shared_ptr for the
/// duration of its run, so the state can never die under a campaign.
struct SharedProgramState {
  SharedProgramState(std::shared_ptr<const masm::AsmProgram> prog,
                     const vm::VmOptions& vm)
      : program(std::move(prog)), golden(*program, vm) {}

  std::shared_ptr<const masm::AsmProgram> program;  // keeps decode alive
  fault::Golden golden;
};

/// The finished state of one cell. `result_json` holds the deterministic
/// CampaignResult bytes (empty iff `error` is set); `wallclock_json` the
/// scheduling-dependent observability of the execution that produced
/// them (empty for cache hits — nothing ran).
struct CellOutcome {
  std::string key;             // content-address ("" until resolved)
  std::string result_json;
  std::string wallclock_json;
  std::string error;           // build/validation/engine failure
  std::array<std::uint64_t, 4> counts{};  // result outcome counters
  bool cached = false;         // answered by the store, zero trials run
  bool done = false;
};

/// A mid-flight snapshot of a job (wall-clock-quarantined: the completed
/// subset depends on scheduling, the per-cell bytes do not).
struct JobStatus {
  bool known = false;
  std::uint64_t job = 0;
  std::size_t cells = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  /// Outcome counts summed over completed cells plus the live
  /// CampaignProgress of cells still executing.
  std::array<std::uint64_t, 4> outcomes_so_far{};
  bool done() const { return completed == cells; }
};

class Daemon {
 public:
  explicit Daemon(ServiceOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Enqueues a job; cells are dealt round-robin to the worker deques
  /// (idle workers steal, so distribution only shapes wall-clock).
  /// Returns the job id (dense, starting at 1).
  std::uint64_t submit(std::vector<fault::CampaignCell> cells);

  /// Snapshot of a job in flight. `known == false` for unknown ids.
  JobStatus status(std::uint64_t job) const;

  /// Blocks until cell `index` of `job` completes; nullptr for unknown
  /// coordinates. The returned outcome stays valid for the daemon's
  /// lifetime.
  const CellOutcome* wait_cell(std::uint64_t job, std::size_t index);

  std::size_t job_cells(std::uint64_t job) const;

  /// Service counters (cache hits/misses/coalesced, cells executed,
  /// trials executed, steals, ...) under "service/...".
  telemetry::Registry& metrics() { return metrics_; }

  /// Serves the framing protocol on `listener` until a client sends
  /// kShutdown (or the listener is shut down externally). Blocks; run it
  /// on a dedicated thread to keep using the in-process API.
  void serve(Listener& listener);

  const ServiceOptions& options() const { return options_; }

 private:
  struct Job;
  struct Task {
    fault::CampaignCell cell;
    fault::CampaignProgress progress;
    CellOutcome outcome;
    Job* job = nullptr;
    std::size_t index = 0;
    bool running = false;
  };
  struct Job {
    std::uint64_t id = 0;
    std::vector<std::unique_ptr<Task>> tasks;
    std::size_t completed = 0;
    std::size_t failed = 0;
  };

  void worker_loop(int worker);
  Task* claim_task(int worker);  // under mutex_; nullptr = nothing queued
  void execute(Task& task);
  void finish(Task& task, CellOutcome outcome);
  void handle_connection(Conn conn);

  /// The built program for (technique, source), memoised so warm cells
  /// skip the pipeline too, not just the engine.
  std::shared_ptr<const masm::AsmProgram> build_program(
      const fault::CampaignCell& cell, const std::string& source);

  /// The shared golden state for (program hash, store_data). One caller
  /// builds it (counter "service/golden/built", its checkpoint bytes
  /// summed in "service/golden/snapshot_bytes"); concurrent requests for
  /// the same key wait on the build instead of redoing the golden walk,
  /// and later cells reuse it ("service/golden/reused").
  std::shared_ptr<const SharedProgramState> program_state(
      const std::shared_ptr<const masm::AsmProgram>& program,
      const std::string& program_sha256, bool store_data);

  ServiceOptions options_;
  ResultCache cache_;
  telemetry::Registry metrics_;

  mutable std::mutex mutex_;            // jobs_, queues_, stop_workers_
  std::condition_variable work_cv_;     // workers: new task / shutdown
  std::condition_variable done_cv_;     // waiters: a task completed
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::vector<std::deque<Task*>> queues_;  // one per worker
  std::uint64_t next_job_ = 1;
  std::uint64_t next_spread_ = 0;       // round-robin cursor for submit
  bool stop_workers_ = false;
  std::vector<std::thread> workers_;

  std::mutex programs_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const masm::AsmProgram>>
      programs_;

  // Cross-cell golden-state sharing (see SharedProgramState). The
  // building set plays the same role in_flight_ plays for results:
  // exactly one golden walk per key, ever.
  std::mutex prepared_mutex_;
  std::condition_variable prepared_cv_;
  std::unordered_map<std::string, std::shared_ptr<const SharedProgramState>>
      prepared_;
  std::unordered_set<std::string> preparing_;

  // In-flight coalescing: identical cells submitted concurrently execute
  // once; the second waits and is answered from the store.
  std::mutex flight_mutex_;
  std::condition_variable flight_cv_;
  std::unordered_set<std::string> in_flight_;

  std::mutex serve_mutex_;              // stop_serving_ + listener handle
  Listener* serving_ = nullptr;
  bool stop_serving_ = false;
};

}  // namespace ferrum::service
