// service_smoke — CI harness for the campaign service. Boots the daemon
// and the blocking client in one process over a real unix-domain socket
// (tiny knobs, TSan-preset friendly) and checks the full contract:
//
//   * multi-cell jobs stream back complete, in cell order, with outcome
//     counts that sum to the trials;
//   * per-key result bytes are identical across worker counts {1, 2, 4}
//     and across submission orders — scheduling shapes wall-clock only;
//   * a warm resubmission (with another jobs value) is answered from
//     the content-addressed store with zero new engine trials;
//   * after a daemon shutdown, a fresh daemon on the same cache
//     directory answers the identical submission from the disk tier —
//     zero trials, byte-identical result bytes (restart phase);
//   * malformed requests get error replies and the connection survives;
//   * the BENCH_service_smoke.json artifact follows the bench schema
//     (bench / schema_version / metrics / wallclock).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "fault/cell.h"
#include "service/client.h"
#include "service/service.h"
#include "support/hash.h"
#include "support/transport.h"
#include "telemetry/json.h"

using namespace ferrum;

namespace {

int failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++failures;
}

std::vector<fault::CampaignCell> smoke_cells() {
  std::vector<fault::CampaignCell> cells;
  fault::CampaignCell bfs;
  bfs.workload = "bfs";
  bfs.technique = "none";
  bfs.trials = 8;
  cells.push_back(bfs);

  fault::CampaignCell hardened = bfs;
  hardened.technique = "ferrum";
  cells.push_back(hardened);

  fault::CampaignCell inline_cell;
  inline_cell.program =
      "int main() {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 8; i++) s += i * i;\n"
      "  print_int(s);\n"
      "  return 0;\n"
      "}\n";
  inline_cell.technique = "ferrum";
  inline_cell.trials = 10;
  cells.push_back(inline_cell);

  fault::CampaignCell pruned = inline_cell;
  pruned.prune = true;
  cells.push_back(pruned);
  return cells;
}

/// One daemon instance serving one socket; results keyed by cache key.
/// A non-empty cache_dir persists the content-addressed store across
/// daemon lifetimes; trials_executed (when non-null) receives the
/// engine-trial count this instance actually ran.
std::map<std::string, std::string> run_config(
    int workers, const std::vector<fault::CampaignCell>& cells,
    double& seconds, const std::string& cache_dir = "",
    std::uint64_t* trials_executed = nullptr) {
  static int instance = 0;
  const std::string socket_path = "service_smoke-" +
                                  std::to_string(::getpid()) + "-w" +
                                  std::to_string(workers) + "-i" +
                                  std::to_string(instance++) + ".sock";
  std::string error;
  Listener listener = Listener::bind_unix(socket_path, &error);
  std::map<std::string, std::string> by_key;
  if (!listener.valid()) {
    fail("cannot listen on " + socket_path + ": " + error);
    return by_key;
  }
  service::Daemon daemon({workers, cache_dir});
  std::thread server([&] { daemon.serve(listener); });

  const auto start = std::chrono::steady_clock::now();
  {
    service::Client client = service::Client::connect(socket_path, error);
    if (!client.valid()) {
      fail("connect to " + socket_path + ": " + error);
    } else {
      const auto job = client.submit(cells, error);
      if (!job.has_value()) {
        fail("submit: " + error);
      } else {
        std::size_t index = 0;
        const bool streamed = client.results(
            *job,
            [&](const service::CellResult& result) {
              if (result.cell != index) {
                fail("results out of order: got cell " +
                     std::to_string(result.cell) + ", want " +
                     std::to_string(index));
              }
              ++index;
              if (!result.error.empty()) {
                fail("cell failed: " + result.error);
                return;
              }
              if (result.key.size() != 64 || result.result_bytes.empty()) {
                fail("cell result missing key or bytes");
                return;
              }
              by_key[result.key] = result.result_bytes;
            },
            error);
        if (!streamed) fail("results stream: " + error);
        if (index != cells.size()) {
          fail("streamed " + std::to_string(index) + " cells, want " +
               std::to_string(cells.size()));
        }
        const auto status = client.status(*job, error);
        if (!status.has_value()) {
          fail("status: " + error);
        } else if (const telemetry::Json* completed =
                       status->find("completed");
                   completed == nullptr ||
                   completed->as_uint() != cells.size()) {
          fail("status does not report the job complete");
        }
      }
      client.shutdown_server(error);
    }
  }
  server.join();
  if (trials_executed != nullptr) {
    *trials_executed =
        daemon.metrics().counter("service/trials_executed").value();
  }
  seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
  return by_key;
}

}  // namespace

int main() {
  const std::vector<fault::CampaignCell> cells = smoke_cells();

  // Worker counts x submission orders; every config must produce the
  // same key -> bytes mapping.
  const int worker_counts[] = {1, 2, 4};
  std::map<std::string, std::string> reference;
  telemetry::Json config_seconds = telemetry::Json::object();
  for (std::size_t config = 0; config < 3; ++config) {
    const int workers = worker_counts[config];
    std::vector<fault::CampaignCell> order = cells;
    std::rotate(order.begin(), order.begin() + config, order.end());
    double seconds = 0.0;
    const auto by_key = run_config(workers, order, seconds);
    config_seconds["workers_" + std::to_string(workers)] = seconds;
    if (by_key.size() != cells.size()) {
      fail("config workers=" + std::to_string(workers) + " produced " +
           std::to_string(by_key.size()) + " distinct keys, want " +
           std::to_string(cells.size()));
    }
    if (reference.empty()) {
      reference = by_key;
    } else if (by_key != reference) {
      fail("results diverge at workers=" + std::to_string(workers) +
           " (per-key bytes must be scheduling-invariant)");
    }
  }

  // Warm store + error paths against one long-lived daemon.
  std::uint64_t warm_trials = 1;  // pessimistic until measured
  {
    const std::string socket_path =
        "service_smoke-" + std::to_string(::getpid()) + "-warm.sock";
    std::string error;
    Listener listener = Listener::bind_unix(socket_path, &error);
    if (!listener.valid()) {
      fail("cannot listen on " + socket_path + ": " + error);
    } else {
      service::Daemon daemon({2, ""});
      std::thread server([&] { daemon.serve(listener); });
      {
        service::Client client =
            service::Client::connect(socket_path, error);
        if (!client.valid()) {
          fail("connect: " + error);
        } else {
          const auto cold_job = client.submit(cells, error);
          if (!cold_job.has_value()) fail("cold submit: " + error);
          std::map<std::string, std::string> cold;
          client.results(
              *cold_job,
              [&](const service::CellResult& r) {
                if (r.error.empty()) cold[r.key] = r.result_bytes;
              },
              error);

          // Error paths: an invalid cell and an unknown job id must be
          // rejected without killing the connection.
          fault::CampaignCell invalid;  // neither program nor workload
          if (client.submit({invalid}, error).has_value()) {
            fail("invalid cell was accepted");
          }
          if (client.results(
                  998877, [](const service::CellResult&) {}, error)) {
            fail("unknown job id streamed results");
          }

          const std::uint64_t executed_before =
              daemon.metrics().counter("service/trials_executed").value();
          std::vector<fault::CampaignCell> retuned = cells;
          for (fault::CampaignCell& cell : retuned) cell.jobs = 4;
          const auto warm_job = client.submit(retuned, error);
          if (!warm_job.has_value()) {
            fail("warm submit: " + error);
          } else {
            client.results(
                *warm_job,
                [&](const service::CellResult& r) {
                  if (!r.cached) {
                    fail("warm cell missed the store");
                  } else if (cold[r.key] != r.result_bytes) {
                    fail("warm bytes differ from cold for " + r.key);
                  }
                },
                error);
          }
          warm_trials =
              daemon.metrics().counter("service/trials_executed").value() -
              executed_before;
          if (warm_trials != 0) {
            fail("warm pass executed " + std::to_string(warm_trials) +
                 " engine trials, want 0");
          }
          client.shutdown_server(error);
        }
      }
      server.join();
    }
  }

  // Restart phase: the disk tier must survive a daemon death. A first
  // daemon campaigns cold into FERRUM_SVC_CACHE, is shut down and
  // destroyed, and a brand-new daemon on the same directory must answer
  // the identical submission warm — zero engine trials, byte-identical
  // result bytes per key.
  std::uint64_t restart_warm_trials = 1;  // pessimistic until measured
  {
    const std::string cache_dir =
        "service_smoke-cache-" + std::to_string(::getpid());
    std::filesystem::remove_all(cache_dir);
    double cold_seconds = 0.0;
    double warm_seconds = 0.0;
    std::uint64_t cold_trials = 0;
    const auto cold =
        run_config(2, cells, cold_seconds, cache_dir, &cold_trials);
    const auto warm =
        run_config(2, cells, warm_seconds, cache_dir, &restart_warm_trials);
    if (cold_trials == 0) {
      fail("restart cold pass executed no trials (vacuous)");
    }
    if (restart_warm_trials != 0) {
      fail("restarted daemon executed " +
           std::to_string(restart_warm_trials) +
           " engine trials, want 0 (disk store should answer everything)");
    }
    if (warm != cold) {
      fail("restarted daemon's results differ from the pre-restart bytes");
    }
    config_seconds["restart_cold"] = cold_seconds;
    config_seconds["restart_warm"] = warm_seconds;
    std::filesystem::remove_all(cache_dir);
  }

  // Artifact, following the bench schema conventions.
  benchutil::BenchReport report("service_smoke");
  telemetry::Json& metrics = report.metrics();
  metrics["cells"] = static_cast<std::uint64_t>(cells.size());
  metrics["determinism_ok"] = failures == 0;
  metrics["warm_trials_executed"] = warm_trials;
  metrics["restart_warm_trials_executed"] = restart_warm_trials;
  telemetry::Json keys = telemetry::Json::object();
  for (const auto& [key, bytes] : reference) {
    keys[key] = sha256_hex(bytes);
  }
  metrics["result_sha256_by_key"] = keys;
  report.wallclock()["config_seconds"] = config_seconds;
  const std::string path = report.write();
  if (path.empty()) fail("artifact write failed");

  // Validate what we just wrote the way bench_smoke would.
  if (!path.empty()) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    std::string text;
    if (file != nullptr) {
      char buffer[4096];
      std::size_t got;
      while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
        text.append(buffer, got);
      }
      std::fclose(file);
    }
    const auto artifact = telemetry::Json::parse(text);
    if (!artifact.has_value()) {
      fail("artifact does not parse");
    } else {
      for (const char* key :
           {"bench", "schema_version", "metrics", "wallclock"}) {
        if (artifact->find(key) == nullptr) {
          fail(std::string("artifact lacks '") + key + "'");
        }
      }
    }
  }

  if (failures == 0) std::printf("service_smoke: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
