// service-mix: a closed loop of two clients, each sending single-cell
// jobs to an in-process service::Daemon over a real unix socket and
// waiting for the result before sending the next.
//
// One unit of the timed phase is a round of two daemon lifetimes on the
// same cache directory. Each lifetime starts with an empty program cache
// and golden-state table; the second finds the first one's results only
// in the disk tier. Every round draws from its own campaign seeds and
// inline programs, so all rounds carry the same mix of hits and misses.
//
// The mix follows the repository's own service benchmarks where they
// record one (README.md lists which settings are assumptions).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "bench.h"
#include "fault/cell.h"
#include "ir/interp.h"
#include "service/client.h"
#include "service/service.h"
#include "support/rng.h"
#include "support/transport.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace fault = ferrum::fault;
namespace pipeline = ferrum::pipeline;
namespace service = ferrum::service;
using ferrum::telemetry::Json;

constexpr const char* kTechniques[] = {"none", "ir-eddi", "hybrid",
                                       "ferrum"};
constexpr int kClients = 2;
constexpr int kWorkers = 2;
// Campaign trials per cell: bench_service's default.
constexpr int kTrials = 400;
// Fresh inline MiniC sources per round, each under every technique
// (assumption).
constexpr int kInlineSources = 1;

/// Seed ranks each program asks for in the first and the second daemon
/// lifetime of a round. As in bench_service, every program is asked for
/// at a seed and at a reseeded sibling (golden-state reuse), first cold
/// and then again (memory hits); as in service_smoke's restart phase, a
/// daemon restarted on the same cache directory is asked for both once
/// more (disk hits). Every lifetime starts on first-seen programs. Every
/// program gets the same pattern, so each seed yields the same mix; the
/// seed orders the requests and picks the campaign seeds.
constexpr int kRanksFirst[] = {0, 1, 0, 1};
constexpr int kRanksSecond[] = {0, 1};
constexpr int kSeedRanks = 2;

/// A program of the mix: a Table II kernel or an inline MiniC source,
/// under one technique.
struct MixProgram {
  std::string kernel;  // "" for inline MiniC
  std::string source;  // MiniC text (also kept for kernels, for checks)
  std::string technique;
  bool requested = false;

  std::string label() const {
    return (kernel.empty() ? std::string("inline") : kernel) + "/" +
           technique;
  }
};

struct Request {
  int program = 0;
  int seed_rank = 0;
};

/// A small seeded MiniC program, different for every seed.
std::string inline_source(std::uint64_t seed) {
  ferrum::Rng rng(seed);
  const std::string a = std::to_string(rng.next_below(1000));
  const std::string b = std::to_string(3 + rng.next_below(50));
  const std::string c = std::to_string(rng.next_below(97));
  const std::string reps = std::to_string(8 + rng.next_below(8));
  return "int data[32];\n"
         "int main() {\n"
         "  int acc = " + a + ";\n"
         "  for (int i = 0; i < 32; i++) data[i] = (i * " + b + " + " + c +
         ") % 101;\n"
         "  for (int r = 0; r < " + reps + "; r++) {\n"
         "    for (int i = 1; i < 32; i++) {\n"
         "      acc = acc + data[i] * data[i - 1] + r;\n"
         "      if (acc > 1000000) acc = acc - 999983;\n"
         "    }\n"
         "  }\n"
         "  print_int(acc);\n"
         "  return 0;\n"
         "}\n";
}

bool full_coverage(const std::string& technique) {
  return technique == "hybrid" || technique == "ferrum";
}

double stat(const Json& stats, std::initializer_list<const char*> path) {
  const Json* node = &stats;
  for (const char* name : path) {
    node = node->find(name);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->as_double() : 0.0;
}

/// Rewrites a cache entry so it still parses but holds a different
/// result: the first number of the JSON object is bumped. An entry that
/// is not plain JSON gets one byte flipped instead.
std::string corrupt(const std::string& bytes) {
  std::optional<Json> json = Json::parse(bytes);
  if (json.has_value() && json->is_object()) {
    std::vector<std::string> keys;
    for (const auto& field : json->fields()) keys.push_back(field.first);
    for (const std::string& key : keys) {
      Json& value = (*json)[key];
      if (value.kind() == Json::Kind::kUint) {
        value = Json(value.as_uint() + 1);
      } else if (value.kind() == Json::Kind::kInt) {
        value = Json(value.as_int() + 1);
      } else if (value.kind() == Json::Kind::kDouble) {
        value = Json(value.as_double() + 1.0);
      } else {
        continue;
      }
      return json->dump();
    }
  }
  std::string flipped = bytes;
  if (!flipped.empty()) flipped[flipped.size() / 2] ^= 0x01;
  return flipped;
}

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Options& options)
      : options_(options), trials_(options.tiny ? 20 : kTrials) {
    // Spare set-ups (see main.cpp) run their own daemon in this process.
    static std::atomic<int> instances{0};
    const std::string tag =
        std::to_string(::getpid()) + "-" + std::to_string(instances++);
    socket_ = options_.out_dir + "/svc-" + tag + ".sock";
    cache_dir_ = options_.out_dir + "/svc-cache-" + tag;
  }

  ~ServiceMix() override {
    try {
      stop_daemon();
    } catch (...) {
      // Teardown failures cannot change the measured results.
    }
    std::error_code ignored;
    std::filesystem::remove_all(cache_dir_, ignored);
  }

  ServiceMix(const ServiceMix&) = delete;
  ServiceMix& operator=(const ServiceMix&) = delete;

  void setup(Run&) override {
    std::filesystem::remove_all(cache_dir_);
    for (const std::string& kernel : kernel_names(options_.tiny)) {
      const std::string source = ferrum::workloads::scaled(kernel, 1).source;
      for (const char* technique : kTechniques) {
        programs_.push_back(MixProgram{kernel, source, technique});
      }
    }
    kernel_programs_ = static_cast<int>(programs_.size());
    start_daemon();

    // Warm-up: a kernel at scale 2, which the mix (scale 1) never draws.
    fault::CampaignCell warmup;
    warmup.workload = options_.tiny ? "bfs" : "kmeans";
    warmup.scale = 2;
    warmup.technique = "ferrum";
    warmup.trials = options_.tiny ? trials_ : 1000;
    warmup.jobs = 1;
    std::string error;
    const std::optional<std::uint64_t> job =
        clients_[0].submit({warmup}, error);
    std::string cell_error = "no result";
    const bool streamed =
        job.has_value() &&
        clients_[0].results(
            *job,
            [&](const service::CellResult& result) {
              cell_error = result.error;
            },
            error);
    if (!streamed || !cell_error.empty()) {
      throw std::runtime_error("service warm-up cell failed: " +
                               (error.empty() ? cell_error : error));
    }
  }

  /// One round. The set-up's daemon serves round 0; every round stops its
  /// daemon at the end, so nothing is held between rounds.
  double run_unit(Run& run, int round) override {
    if (!daemon_) start_daemon();
    for (int s = 0; s < kInlineSources; ++s) {
      const std::string source =
          inline_source(mix_seed(options_.seed, 0x111e, round, s));
      for (const char* technique : kTechniques) {
        programs_.push_back(MixProgram{"", source, technique});
      }
    }

    double timed = 0.0;
    for (int lifetime = 0; lifetime < 2; ++lifetime) {
      if (lifetime == 1) restart(round == 0 &&
                                 options_.inject == "corrupt-cache");
      const std::vector<std::vector<Request>> streams =
          deal(round, lifetime, static_cast<int>(programs_.size()));
      const Json before = stats();
      std::vector<std::vector<std::string>> results(kClients);
      for (int c = 0; c < kClients; ++c) results[c].resize(streams[c].size());
      const Clock::time_point start = Clock::now();
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          try {
            client_loop(run, c, round, lifetime, streams[c], results[c]);
          } catch (const std::exception& error) {
            run.record(0.0, -1, false,
                       std::string("client stopped: ") + error.what());
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      timed += seconds_between(start, Clock::now());
      run.pause_for_probe();
      count_stats(run, before, stats());
      if (round == 0) {
        for (const auto& client : results) {
          for (const std::string& bytes : client) run.digest(bytes);
        }
      }
    }
    stop_daemon();
    return timed;
  }

  /// Golden output of every program the mix requested, against
  /// ir::interpret on its unprotected module.
  void check(Run& run) override {
    std::map<std::string, std::optional<std::vector<std::uint64_t>>> refs;
    for (std::size_t p = 0; p < programs_.size(); ++p) {
      const MixProgram& program = programs_[p];
      if (!program.requested) continue;
      auto it = refs.find(program.source);
      if (it == refs.end()) {
        const ferrum::ir::RunResult reference = ferrum::ir::interpret(
            *pipeline::build(program.source, pipeline::Technique::kNone)
                 .module);
        std::optional<std::vector<std::uint64_t>> output;
        if (reference.ok()) output = reference.output;
        if (output && options_.inject == "wrong-reference" && refs.empty()) {
          if (output->empty()) {
            output->push_back(1);
          } else {
            (*output)[0] ^= 1;
          }
        }
        it = refs.emplace(program.source, std::move(output)).first;
      }
      pipeline::Technique technique = pipeline::Technique::kNone;
      if (program.technique == "ir-eddi") {
        technique = pipeline::Technique::kIrEddi;
      } else if (program.technique == "hybrid") {
        technique = pipeline::Technique::kHybrid;
      } else if (program.technique == "ferrum") {
        technique = pipeline::Technique::kFerrum;
      }
      const ferrum::vm::VmResult golden = ferrum::vm::run(
          pipeline::build(program.source, technique).program);
      if (!it->second || !golden.ok() || golden.output != *it->second) {
        run.fail_program(static_cast<int>(p),
                         program.label() +
                             ": golden output differs from ir::interpret");
      }
    }
  }

  std::vector<Metric> info(const Run& run) const override {
    std::vector<double> hits;
    std::vector<double> misses;
    for (const Run::Cell& cell : run.cells()) {
      if (cell.kind == Run::Kind::kHit) hits.push_back(cell.ms);
      if (cell.kind == Run::Kind::kMiss) misses.push_back(cell.ms);
    }
    std::vector<Metric> out;
    const auto latency = [&out](const std::string& name,
                                std::vector<double> samples) {
      std::sort(samples.begin(), samples.end());
      const std::size_t n = samples.size();
      out.push_back({name + ".p50", median(samples), "ms",
                     "n=" + std::to_string(n)});
      // The highest percentile with at least ten samples beyond it: the
      // eleventh-largest sample (the largest when there are fewer).
      const double tail =
          n == 0 ? 0.0 : samples[n > 10 ? n - 11 : n - 1];
      char note[64];
      std::snprintf(note, sizeof(note), "p%.1f, n=%zu",
                    n > 10 ? 100.0 * static_cast<double>(n - 10) / n : 100.0,
                    n);
      out.push_back({name + ".tail", tail, "ms", note});
    };
    latency("hit_ms", std::move(hits));
    latency("miss_ms", std::move(misses));
    // The mix as measured over the timed phase; every round has the same.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto share = [&out](const char* name, std::uint64_t part,
                              std::uint64_t whole, const char* what) {
      out.push_back({name,
                     whole == 0 ? 0.0
                                : static_cast<double>(part) /
                                      static_cast<double>(whole),
                     "ratio",
                     std::to_string(part) + " of " + std::to_string(whole) +
                         " " + what});
    };
    share("mix.memory_hits", mix_.memory_hits, mix_.answered,
          "answered, bytes checked against the key's cold bytes");
    share("mix.disk_hits", mix_.disk_hits, mix_.answered,
          "answered, after a restart, bytes checked likewise");
    share("mix.golden_reuse", mix_.golden_reused,
          mix_.golden_reused + mix_.golden_built,
          "golden states needed (stats frame)");
    share("mix.pruned", mix_.pruned, mix_.answered, "answered");
    share("mix.adaptive", mix_.adaptive, mix_.answered, "answered");
    share("mix.inline", mix_.inline_minic, mix_.answered, "answered");
    if (options_.inject == "corrupt-cache") {
      out.push_back({"corrupted_entries",
                     static_cast<double>(corrupted_.size()), "count", ""});
      out.push_back({"corrupted_requests",
                     static_cast<double>(corrupted_requests_), "count", ""});
      out.push_back({"corrupted_hits", static_cast<double>(corrupted_hits_),
                     "count", ""});
    }
    return out;
  }

  const char* unit_name() const override { return "rounds"; }
  int threads() const override { return kWorkers; }

 private:
  /// The requests of one lifetime: every program of the round (the
  /// kernels and this round's inline programs) asks for its rank pattern;
  /// the seeded order is dealt alternately to the clients.
  std::vector<std::vector<Request>> deal(int round, int lifetime,
                                         int programs) const {
    std::vector<Request> all;
    const int first_inline =
        programs - kInlineSources * static_cast<int>(std::size(kTechniques));
    for (int p = 0; p < programs; ++p) {
      if (p >= kernel_programs_ && p < first_inline) continue;
      if (lifetime == 0) {
        for (const int rank : kRanksFirst) all.push_back(Request{p, rank});
      } else {
        for (const int rank : kRanksSecond) all.push_back(Request{p, rank});
      }
    }
    ferrum::Rng rng(mix_seed(options_.seed, 0xdea1, round, lifetime));
    for (std::size_t i = all.size(); i > 1; --i) {
      std::swap(all[i - 1], all[rng.next_below(i)]);
    }
    std::vector<std::vector<Request>> streams(kClients);
    for (std::size_t i = 0; i < all.size(); ++i) {
      streams[i % kClients].push_back(all[i]);
    }
    return streams;
  }

  fault::CampaignCell make_cell(const Request& request, int round) const {
    const MixProgram& program =
        programs_[static_cast<std::size_t>(request.program)];
    // The program's place in its round: kernels first, then the round's
    // inline programs.
    const int block =
        kInlineSources * static_cast<int>(std::size(kTechniques));
    const int slot = request.program < kernel_programs_
                         ? request.program
                         : kernel_programs_ +
                               (request.program - kernel_programs_) % block;
    fault::CampaignCell cell;
    if (program.kernel.empty()) {
      cell.program = program.source;
    } else {
      cell.workload = program.kernel;
    }
    cell.technique = program.technique;
    cell.trials = trials_;
    cell.seed = mix_seed(options_.seed, 0x5eed, round, request.seed_rank);
    // One key in ten is a pruned campaign and one an adaptive one
    // (assumption), the same keys in every round and for every seed.
    const int flavor = (slot * kSeedRanks + request.seed_rank) % 10;
    cell.prune = flavor == 3;
    if (flavor == 8) cell.max_half_width = 0.05;
    cell.jobs = 1;
    return cell;
  }

  void client_loop(Run& run, int client, int round, int lifetime,
                   const std::vector<Request>& requests,
                   std::vector<std::string>& results) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& request = requests[i];
      const std::int64_t id = run.next_cell_id();
      const fault::CampaignCell cell = make_cell(request, round);
      service::CellResult result;
      bool have = false;
      std::string error;
      const Clock::time_point begin = Clock::now();
      {
        Scope span(run.tracer, "bench.cell", id);
        std::optional<std::uint64_t> job;
        {
          Scope submit(run.tracer, "service.submit", id);
          job = clients_[static_cast<std::size_t>(client)].submit({cell},
                                                                  error);
        }
        if (job.has_value()) {
          Scope results_span(run.tracer, "service.results", id);
          clients_[static_cast<std::size_t>(client)].results(
              *job,
              [&](const service::CellResult& got) {
                result = got;
                have = true;
              },
              error);
        }
      }
      const double ms = seconds_between(begin, Clock::now()) * 1e3;
      std::string why;
      if (!have) {
        why = "no result: " + error;
      } else if (!result.error.empty()) {
        why = "kError: " + result.error;
      } else {
        why = verify(run, result, request, cell, lifetime);
      }
      results[i] = result.result_bytes;
      const std::string label =
          programs_[static_cast<std::size_t>(request.program)].label();
      run.record(ms, request.program, why.empty(), label + ": " + why,
                 result.cached ? Run::Kind::kHit : Run::Kind::kMiss);
    }
  }

  /// Checks one successful result; returns why it failed, or "".
  std::string verify(Run& run, const service::CellResult& result,
                     const Request& request, const fault::CampaignCell& cell,
                     int lifetime) {
    const MixProgram& program =
        programs_[static_cast<std::size_t>(request.program)];
    std::string why;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      programs_[static_cast<std::size_t>(request.program)].requested = true;
      const auto [it, first] =
          cold_.emplace(result.key, Cold{result.result_bytes, lifetime});
      const bool mismatch = !first && it->second.bytes != result.result_bytes;
      ++mix_.answered;
      if (!first && result.cached) {
        ++(it->second.lifetime == lifetime ? mix_.memory_hits
                                           : mix_.disk_hits);
      }
      if (cell.prune) ++mix_.pruned;
      if (cell.max_half_width > 0.0) ++mix_.adaptive;
      if (program.kernel.empty()) ++mix_.inline_minic;
      if (corrupted_.count(result.key) != 0 && lifetime == 1) {
        ++corrupted_requests_;
        if (result.cached) ++corrupted_hits_;
      }
      if (mismatch) why = "result bytes differ from the cold bytes of its key";
    }
    const Json* sdc = nullptr;
    if (const Json* outcomes = result.result.find("outcomes")) {
      sdc = outcomes->find("sdc");
    }
    if (why.empty() && full_coverage(program.technique) && sdc != nullptr &&
        sdc->as_uint() > 0) {
      why = std::to_string(sdc->as_uint()) + " SDCs";
    }
    // Layer counts the result already carries: checkpoint accounting of
    // executed campaigns and the pilot share of pruned ones.
    const Json* prune = result.result.find("prune");
    const Json* trials = result.result.find("trials");
    const Json& wallclock = result.wallclock;
    run.count([&](LayerCounts& counts) {
      counts.export_bytes += static_cast<double>(result.result_bytes.size());
      if (prune != nullptr && trials != nullptr) {
        counts.pilots += stat(*prune, {"pilot_runs"});
        counts.probes += trials->as_double();
      }
      if (!wallclock.is_object()) return;
      ferrum::vm::CheckpointTelemetry ckpt;
      ckpt.stride = static_cast<int>(stat(wallclock, {"ckpt", "stride"}));
      ckpt.snapshot_bytes = static_cast<std::uint64_t>(
          stat(wallclock, {"ckpt", "snapshot_bytes"}));
      ckpt.ff.trials =
          static_cast<std::uint64_t>(stat(wallclock, {"ckpt", "trials"}));
      ckpt.ff.restores =
          static_cast<std::uint64_t>(stat(wallclock, {"ckpt", "restores"}));
      ckpt.ff.steps_executed = static_cast<std::uint64_t>(
          stat(wallclock, {"ckpt", "steps_executed"}));
      ckpt.ff.rejoins =
          static_cast<std::uint64_t>(stat(wallclock, {"ckpt", "rejoins"}));
      std::vector<std::uint64_t> per_worker;
      if (const Json* workers = wallclock.find("trials_per_worker")) {
        for (const Json& n : workers->items()) {
          per_worker.push_back(n.as_uint());
        }
      }
      counts.add_ckpt(ckpt, stat(wallclock, {"wall_seconds"}), per_worker);
    });
    return why;
  }

  Json stats() {
    std::string error;
    const std::optional<Json> snapshot = clients_[0].stats(error);
    if (!snapshot.has_value()) {
      throw std::runtime_error("stats request failed: " + error);
    }
    return *snapshot;
  }

  void count_stats(Run& run, const Json& before, const Json& after) {
    const auto delta = [&](std::initializer_list<const char*> path) {
      return stat(after, path) - stat(before, path);
    };
    const double hits = delta({"service", "cache", "hits"});
    const double misses = delta({"service", "cache", "misses"});
    const double prog_hits = delta({"service", "progcache", "hits"});
    const double prog_misses = delta({"service", "progcache", "misses"});
    const double built = delta({"service", "golden", "built"});
    const double reused = delta({"service", "golden", "reused"});
    {
      std::lock_guard<std::mutex> lock(mutex_);
      mix_.golden_built += static_cast<std::uint64_t>(built);
      mix_.golden_reused += static_cast<std::uint64_t>(reused);
    }
    run.count([&](LayerCounts& counts) {
      counts.svc_hits += hits;
      counts.svc_lookups += hits + misses;
      counts.prog_hits += prog_hits;
      counts.prog_lookups += prog_hits + prog_misses;
      counts.golden_reused += reused;
      counts.golden_lookups += built + reused;
      counts.coalesced += delta({"service", "cache", "coalesced"});
      counts.steals += delta({"service", "steals"});
      counts.trials_executed += delta({"service", "trials_executed"});
    });
  }

  void start_daemon() {
    service::ServiceOptions options;
    options.workers = kWorkers;
    options.cache_dir = cache_dir_;
    daemon_ = std::make_unique<service::Daemon>(options);
    std::string error;
    listener_ = ferrum::Listener::bind_unix(socket_, &error);
    if (!listener_.valid()) {
      throw std::runtime_error("cannot listen on " + socket_ + ": " + error);
    }
    serve_thread_ = std::thread([this] { daemon_->serve(listener_); });
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(service::Client::connect(socket_, error));
      if (!clients_.back().valid()) {
        throw std::runtime_error("cannot connect to " + socket_ + ": " +
                                 error);
      }
    }
  }

  void stop_daemon() {
    clients_.clear();
    if (serve_thread_.joinable()) {
      std::string error;
      service::Client closer = service::Client::connect(socket_, error);
      if (!closer.valid() || !closer.shutdown_server(error)) {
        listener_.shutdown();
      }
      serve_thread_.join();
    }
    listener_.close();
    daemon_.reset();
    // A restarted ferrumd is a new process; hand the freed golden states
    // back to the system so the next lifetime starts from the same
    // resident size.
    malloc_trim(0);
  }

  /// Stops the daemon and starts a new one on the same cache directory;
  /// with `corrupt_entries`, rewrites every disk entry in between.
  void restart(bool corrupt_entries) {
    stop_daemon();
    if (corrupt_entries) {
      for (const auto& entry :
           std::filesystem::directory_iterator(cache_dir_)) {
        if (entry.path().extension() != ".json") continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        in.close();
        std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
            << corrupt(bytes.str());
        std::lock_guard<std::mutex> lock(mutex_);
        corrupted_.insert(entry.path().stem().string());
      }
    }
    start_daemon();
  }

  struct Cold {
    std::string bytes;
    int lifetime = 0;
  };

  /// Tallies of the answered requests, for the measured mix.
  struct Mix {
    std::uint64_t answered = 0;
    std::uint64_t memory_hits = 0;  // key first answered in this lifetime
    std::uint64_t disk_hits = 0;    // key first answered before a restart
    std::uint64_t pruned = 0;
    std::uint64_t adaptive = 0;
    std::uint64_t inline_minic = 0;
    std::uint64_t golden_built = 0;  // stats frame deltas
    std::uint64_t golden_reused = 0;
  };

  const Options options_;
  const int trials_;  // per cell
  std::string socket_;
  std::string cache_dir_;
  std::vector<MixProgram> programs_;
  int kernel_programs_ = 0;

  std::unique_ptr<service::Daemon> daemon_;
  ferrum::Listener listener_;
  std::thread serve_thread_;
  std::vector<service::Client> clients_;

  mutable std::mutex mutex_;  // everything below, and programs_[].requested
  std::map<std::string, Cold> cold_;  // first bytes seen per key
  Mix mix_;
  std::set<std::string> corrupted_;
  std::uint64_t corrupted_requests_ = 0;
  std::uint64_t corrupted_hits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_service_mix(const Options& options) {
  return std::make_unique<ServiceMix>(options);
}

}  // namespace perfbench
