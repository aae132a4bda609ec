#include "service/service.h"

#include <exception>
#include <utility>

#include "check/prune.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "service/proto.h"
#include "support/hash.h"
#include "telemetry/export.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum::service {

namespace {

/// Outcome counters of a stored result, re-read from its bytes (cache
/// hits never re-run the campaign, but status streaming still wants the
/// counts).
std::array<std::uint64_t, 4> counts_from_result(const std::string& bytes) {
  std::array<std::uint64_t, 4> counts{};
  const std::optional<telemetry::Json> json = telemetry::Json::parse(bytes);
  if (!json.has_value()) return counts;
  const telemetry::Json* outcomes = json->find("outcomes");
  if (outcomes == nullptr) return counts;
  static constexpr const char* kNames[] = {"benign", "sdc", "detected",
                                           "crash"};
  for (int i = 0; i < 4; ++i) {
    const telemetry::Json* value = outcomes->find(kNames[i]);
    if (value != nullptr && value->is_number()) {
      counts[static_cast<std::size_t>(i)] = value->as_uint();
    }
  }
  return counts;
}

telemetry::Json status_to_json(const JobStatus& status) {
  telemetry::Json json = telemetry::Json::object();
  json["job"] = status.job;
  json["cells"] = static_cast<std::uint64_t>(status.cells);
  json["completed"] = static_cast<std::uint64_t>(status.completed);
  json["failed"] = static_cast<std::uint64_t>(status.failed);
  json["done"] = status.done();
  telemetry::Json outcomes = telemetry::Json::object();
  outcomes["benign"] = status.outcomes_so_far[0];
  outcomes["sdc"] = status.outcomes_so_far[1];
  outcomes["detected"] = status.outcomes_so_far[2];
  outcomes["crash"] = status.outcomes_so_far[3];
  json["outcomes_so_far"] = outcomes;
  // Live interval half-widths over the same snapshot — wall-clock-
  // quarantined like every "so far" field (the deterministic intervals
  // ship in the result's adaptive section).
  json["half_widths"] =
      telemetry::outcome_half_widths_json(status.outcomes_so_far);
  return json;
}

}  // namespace

Daemon::Daemon(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache_dir) {
  if (options_.workers < 1) options_.workers = 1;
  queues_.resize(static_cast<std::size_t>(options_.workers));
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back(&Daemon::worker_loop, this, w);
  }
}

Daemon::~Daemon() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::uint64_t Daemon::submit(std::vector<fault::CampaignCell> cells) {
  auto job = std::make_unique<Job>();
  job->tasks.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto task = std::make_unique<Task>();
    task->cell = std::move(cells[i]);
    task->job = job.get();
    task->index = i;
    job->tasks.push_back(std::move(task));
  }
  metrics_.counter("service/jobs").add(1);
  metrics_.counter("service/cells/submitted").add(job->tasks.size());
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_job_++;
    job->id = id;
    for (const auto& task : job->tasks) {
      const std::size_t q =
          static_cast<std::size_t>(next_spread_++ % queues_.size());
      queues_[q].push_back(task.get());
    }
    const bool empty = job->tasks.empty();
    jobs_.emplace(id, std::move(job));
    if (empty) done_cv_.notify_all();  // an empty job is born done
  }
  work_cv_.notify_all();
  return id;
}

JobStatus Daemon::status(std::uint64_t job_id) const {
  JobStatus status;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return status;
  const Job& job = *it->second;
  status.known = true;
  status.job = job_id;
  status.cells = job.tasks.size();
  status.completed = job.completed;
  status.failed = job.failed;
  for (const auto& task : job.tasks) {
    if (task->outcome.done) {
      for (int i = 0; i < 4; ++i) {
        status.outcomes_so_far[static_cast<std::size_t>(i)] +=
            task->outcome.counts[static_cast<std::size_t>(i)];
      }
    } else {
      // Live counts of an executing cell (zero for still-queued ones).
      for (int i = 0; i < 4; ++i) {
        status.outcomes_so_far[static_cast<std::size_t>(i)] +=
            task->progress.count(static_cast<fault::Outcome>(i));
      }
    }
  }
  return status;
}

const CellOutcome* Daemon::wait_cell(std::uint64_t job_id,
                                     std::size_t index) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || index >= it->second->tasks.size()) return nullptr;
  Task& task = *it->second->tasks[index];
  done_cv_.wait(lock, [&] { return task.outcome.done; });
  return &task.outcome;
}

std::size_t Daemon::job_cells(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  return it == jobs_.end() ? 0 : it->second->tasks.size();
}

Daemon::Task* Daemon::claim_task(int worker) {
  const std::size_t own = static_cast<std::size_t>(worker);
  if (!queues_[own].empty()) {
    Task* task = queues_[own].front();
    queues_[own].pop_front();
    return task;
  }
  // Steal from the back of the busiest sibling — opposite end from the
  // owner's pops, classic deque discipline (here both ends are under the
  // same lock; the discipline just keeps stolen cells the freshest ones).
  std::size_t victim = own;
  std::size_t best = 0;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (q != own && queues_[q].size() > best) {
      best = queues_[q].size();
      victim = q;
    }
  }
  if (best == 0) return nullptr;
  Task* task = queues_[victim].back();
  queues_[victim].pop_back();
  metrics_.counter("service/steals").add(1);
  return task;
}

void Daemon::worker_loop(int worker) {
  while (true) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_workers_ || (task = claim_task(worker)) != nullptr;
      });
      if (task == nullptr) return;  // stop_workers_
      task->running = true;
    }
    execute(*task);
  }
}

void Daemon::finish(Task& task, CellOutcome outcome) {
  outcome.done = true;
  metrics_.counter("service/cells/completed").add(1);
  if (!outcome.error.empty()) {
    metrics_.counter("service/cells/failed").add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task.outcome = std::move(outcome);
    task.running = false;
    ++task.job->completed;
    if (!task.outcome.error.empty()) ++task.job->failed;
  }
  done_cv_.notify_all();
}

std::shared_ptr<const masm::AsmProgram> Daemon::build_program(
    const fault::CampaignCell& cell, const std::string& source) {
  const std::string memo_key =
      sha256_hex(cell.technique + "\n" + source);
  {
    std::lock_guard<std::mutex> lock(programs_mutex_);
    const auto it = programs_.find(memo_key);
    if (it != programs_.end()) {
      metrics_.counter("service/progcache/hits").add(1);
      return it->second;
    }
  }
  metrics_.counter("service/progcache/misses").add(1);
  pipeline::Technique technique = pipeline::Technique::kFerrum;
  if (cell.technique == "none") technique = pipeline::Technique::kNone;
  if (cell.technique == "ir-eddi") technique = pipeline::Technique::kIrEddi;
  if (cell.technique == "hybrid") technique = pipeline::Technique::kHybrid;
  // Built outside the lock: two racing builds of the same program both
  // succeed deterministically; the loser's copy is dropped.
  auto program = std::make_shared<masm::AsmProgram>(
      pipeline::build(source, technique).program);
  std::lock_guard<std::mutex> lock(programs_mutex_);
  return programs_.emplace(memo_key, std::move(program)).first->second;
}

std::shared_ptr<const SharedProgramState> Daemon::program_state(
    const std::shared_ptr<const masm::AsmProgram>& program,
    const std::string& program_sha256, bool store_data) {
  // The golden run depends on fault_store_data (it renumbers the dynamic
  // FI sites), so it shares only within the same setting.
  const std::string key = program_sha256 + (store_data ? "+sd" : "");
  {
    std::unique_lock<std::mutex> lock(prepared_mutex_);
    for (;;) {
      const auto it = prepared_.find(key);
      if (it != prepared_.end()) {
        metrics_.counter("service/golden/reused").add(1);
        return it->second;
      }
      if (preparing_.count(key) == 0) break;
      prepared_cv_.wait(lock);
    }
    preparing_.insert(key);
  }
  // The golden walk runs outside the lock; racing requests for the same
  // key wait on preparing_ above, so it still happens exactly once.
  std::shared_ptr<const SharedProgramState> state;
  try {
    vm::VmOptions vm;
    vm.fault_store_data = store_data;
    state = std::make_shared<const SharedProgramState>(program, vm);
  } catch (...) {
    std::lock_guard<std::mutex> lock(prepared_mutex_);
    preparing_.erase(key);
    prepared_cv_.notify_all();
    throw;
  }
  metrics_.counter("service/golden/built").add(1);
  // Golden states live as long as the daemon, so their checkpoint bytes
  // only accumulate.
  metrics_.counter("service/golden/snapshot_bytes")
      .add(state->golden.ckpts.snapshot_bytes());
  std::lock_guard<std::mutex> lock(prepared_mutex_);
  preparing_.erase(key);
  prepared_.emplace(key, state);
  prepared_cv_.notify_all();
  return state;
}

void Daemon::execute(Task& task) {
  CellOutcome outcome;
  try {
    const fault::CampaignCell& cell = task.cell;
    std::string validation_error;
    if (!fault::validate_cell(cell, validation_error)) {
      outcome.error = validation_error;
      finish(task, std::move(outcome));
      return;
    }
    const std::string source =
        cell.workload.empty()
            ? cell.program
            : workloads::scaled(cell.workload, cell.scale).source;
    const std::shared_ptr<const masm::AsmProgram> program =
        build_program(cell, source);
    const std::string program_sha = fault::program_hash(*program);
    const std::string key =
        sha256_hex(fault::cell_key_material(cell, program_sha));
    outcome.key = key;

    // Fast path, then in-flight coalescing, then execution. A second
    // identical cell arriving while the first executes waits on the
    // flight set and is answered from the store — never a duplicate run.
    std::optional<std::string> stored = cache_.lookup(key);
    bool coalesced = false;
    if (!stored.has_value()) {
      std::unique_lock<std::mutex> lock(flight_mutex_);
      while (in_flight_.count(key) != 0) {
        coalesced = true;
        flight_cv_.wait(lock);
      }
      stored = cache_.lookup(key);
      if (!stored.has_value()) in_flight_.insert(key);
    }
    if (stored.has_value()) {
      metrics_.counter("service/cache/hits").add(1);
      if (coalesced) metrics_.counter("service/cache/coalesced").add(1);
      outcome.result_json = std::move(*stored);
      outcome.counts = counts_from_result(outcome.result_json);
      outcome.cached = true;
      finish(task, std::move(outcome));
      return;
    }

    metrics_.counter("service/cache/misses").add(1);
    try {
      fault::CampaignOptions options = fault::to_campaign_options(cell);
      options.progress = &task.progress;
      check::prune::PruneReport prune_report;
      std::shared_ptr<const SharedProgramState> shared;
      if (cell.prune) {
        // A pruned cell records the site map in a golden run of its own
        // (the program overload's): a shared state would hold a per-site
        // map for as long as the daemon runs.
        prune_report = check::prune::prune_program(
            *program, {options.vm.fault_store_data});
        options.prune = &prune_report;
      } else {
        // Cross-cell reuse: the golden walk for this program happened at
        // most once, no matter how many cells of it are in flight.
        shared = program_state(program, program_sha, cell.store_data);
      }
      const fault::CampaignResult result =
          shared != nullptr ? fault::run_campaign(shared->golden, options)
                            : fault::run_campaign(*program, options);
      outcome.result_json = telemetry::to_json(result).dump();
      outcome.wallclock_json = telemetry::wallclock_json(result).dump();
      for (int i = 0; i < 4; ++i) {
        outcome.counts[static_cast<std::size_t>(i)] = static_cast<
            std::uint64_t>(result.count(static_cast<fault::Outcome>(i)));
      }
      cache_.store(key, outcome.result_json);
      metrics_.counter("service/cells/executed").add(1);
      metrics_.counter("service/trials_executed")
          .add(result.prune.enabled
                   ? result.prune.pilot_runs
                   : static_cast<std::uint64_t>(result.trials()));
    } catch (...) {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      in_flight_.erase(key);
      flight_cv_.notify_all();
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      in_flight_.erase(key);
    }
    flight_cv_.notify_all();
  } catch (const std::exception& error) {
    outcome.error = error.what();
  } catch (...) {
    outcome.error = "unknown execution failure";
  }
  finish(task, std::move(outcome));
}

void Daemon::serve(Listener& listener) {
  {
    std::lock_guard<std::mutex> lock(serve_mutex_);
    serving_ = &listener;
    stop_serving_ = false;
  }
  std::vector<std::thread> handlers;
  while (true) {
    Conn conn = listener.accept();
    if (!conn.valid()) break;
    handlers.emplace_back(&Daemon::handle_connection, this,
                          std::move(conn));
  }
  for (std::thread& handler : handlers) handler.join();
  std::lock_guard<std::mutex> lock(serve_mutex_);
  serving_ = nullptr;
}

void Daemon::handle_connection(Conn conn) {
  Frame frame;
  const auto reply_error = [&](const std::string& message) {
    telemetry::Json json = telemetry::Json::object();
    json["error"] = message;
    return write_frame(conn, MsgType::kError, json);
  };
  while (read_frame(conn, frame)) {
    std::optional<telemetry::Json> payload;
    if (!frame.payload.empty()) {
      payload = telemetry::Json::parse(frame.payload);
      if (!payload.has_value()) {
        if (!reply_error("malformed JSON payload")) break;
        continue;
      }
    }
    const auto payload_job = [&]() -> std::optional<std::uint64_t> {
      if (!payload.has_value()) return std::nullopt;
      const telemetry::Json* job = payload->find("job");
      if (job == nullptr || !job->is_number()) return std::nullopt;
      return job->as_uint();
    };
    bool ok = true;
    switch (frame.type) {
      case MsgType::kHello: {
        telemetry::Json json = telemetry::Json::object();
        json["proto"] = static_cast<std::uint64_t>(kProtoVersion);
        json["service"] = "ferrumd";
        json["workers"] = options_.workers;
        json["cache_dir"] = cache_.dir();
        ok = write_frame(conn, MsgType::kHelloReply, json);
        break;
      }
      case MsgType::kSubmit: {
        const telemetry::Json* cells_json =
            payload.has_value() ? payload->find("cells") : nullptr;
        if (cells_json == nullptr || !cells_json->is_array() ||
            cells_json->size() == 0) {
          ok = reply_error("submit needs a non-empty 'cells' array");
          break;
        }
        std::vector<fault::CampaignCell> cells;
        cells.reserve(cells_json->size());
        std::string cell_error;
        bool valid = true;
        for (const telemetry::Json& item : cells_json->items()) {
          fault::CampaignCell cell;
          if (!cell_from_json(item, cell, cell_error)) {
            ok = reply_error("cell " + std::to_string(cells.size()) +
                             ": " + cell_error);
            valid = false;
            break;
          }
          cells.push_back(std::move(cell));
        }
        if (!valid) break;
        const std::size_t count = cells.size();
        const std::uint64_t job = submit(std::move(cells));
        telemetry::Json json = telemetry::Json::object();
        json["job"] = job;
        json["cells"] = static_cast<std::uint64_t>(count);
        ok = write_frame(conn, MsgType::kJobAccepted, json);
        break;
      }
      case MsgType::kStatus: {
        const std::optional<std::uint64_t> job = payload_job();
        if (!job.has_value()) {
          ok = reply_error("status needs a 'job' id");
          break;
        }
        const JobStatus snapshot = status(*job);
        if (!snapshot.known) {
          ok = reply_error("unknown job " + std::to_string(*job));
          break;
        }
        ok = write_frame(conn, MsgType::kStatusReply,
                         status_to_json(snapshot));
        break;
      }
      case MsgType::kResults: {
        const std::optional<std::uint64_t> job = payload_job();
        if (!job.has_value() || !status(*job).known) {
          ok = reply_error("results needs a known 'job' id");
          break;
        }
        const std::size_t cells = job_cells(*job);
        for (std::size_t i = 0; ok && i < cells; ++i) {
          const CellOutcome* outcome = wait_cell(*job, i);
          telemetry::Json json = telemetry::Json::object();
          json["cell"] = static_cast<std::uint64_t>(i);
          json["key"] = outcome->key;
          json["cached"] = outcome->cached;
          if (!outcome->error.empty()) {
            json["error"] = outcome->error;
          } else {
            // Parse-then-embed keeps the bytes canonical: the stored
            // value came from the deterministic writer, so re-dumping it
            // inside this frame reproduces it byte-for-byte.
            json["result"] =
                *telemetry::Json::parse(outcome->result_json);
            if (!outcome->wallclock_json.empty()) {
              json["wallclock"] =
                  *telemetry::Json::parse(outcome->wallclock_json);
            }
          }
          ok = write_frame(conn, MsgType::kCellResult, json);
        }
        if (ok) {
          telemetry::Json json = telemetry::Json::object();
          json["job"] = *job;
          ok = write_frame(conn, MsgType::kResultsDone, json);
        }
        break;
      }
      case MsgType::kStats: {
        ok = write_frame(conn, MsgType::kStatsReply,
                         metrics_.to_json(/*include_timers=*/true));
        break;
      }
      case MsgType::kShutdown: {
        write_frame(conn, MsgType::kShutdownAck, telemetry::Json::object());
        {
          std::lock_guard<std::mutex> lock(serve_mutex_);
          stop_serving_ = true;
          if (serving_ != nullptr) serving_->shutdown();
        }
        // Hang up after the ack: serve() joins every handler on its way
        // out, so a shutdown client that lingers on an open connection
        // must not keep this handler (and therefore serve()) alive.
        return;
      }
      default:
        ok = reply_error(std::string("unexpected message type '") +
                         msg_type_name(frame.type) + "'");
        break;
    }
    if (!ok) break;
  }
}

}  // namespace ferrum::service
