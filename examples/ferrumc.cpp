// ferrumc — command-line driver for the whole pipeline. Compile a MiniC
// file, optionally protect it, then run it, dump its IR/assembly, audit
// its coverage exhaustively, or campaign against it.
//
//   ferrumc run prog.c                     # compile + execute
//   ferrumc run prog.c --tech=ferrum       # protected execution
//   ferrumc asm prog.c --tech=hybrid       # dump protected assembly
//   ferrumc ir prog.c --tech=ir-eddi       # dump protected IR
//   ferrumc audit prog.c                   # exhaustive FERRUM audit
//   ferrumc audit prog.c --prune           # class-extrapolated audit
//   ferrumc campaign prog.c --tech=ferrum --trials=1000
//   ferrumc campaign prog.c --prune        # pilot-extrapolated campaign
//   ferrumc sites prog.c --tech=ferrum     # fault-site liveness/classes
//   ferrumc run prog.c --tech=ferrum --timing --stats=out.json
//   ferrumc lint prog.c --tech=ferrum      # static protection verifier
//   ferrumc lint prog.c --tech=ferrum --summary   # per-function table
//   ferrumc lint prog.s --lint=json        # lint assembly, JSON report
//   ferrumc plan prog.c                    # flow predictions + top-k plan
//   ferrumc plan prog.c --budget=0.25 --strategy=analysis
//   ferrumc serve                          # run the campaign daemon
//   ferrumc submit prog.c --tech=ferrum    # campaign via the daemon
//   ferrumc submit bfs --trials=2000       # a named Table II workload
//   ferrumc submit --shutdown              # stop the daemon
//
// `serve` runs the campaign service in-process (identical to the
// standalone ferrumd binary); `submit` sends one campaign cell to a
// running daemon and prints the same summary line as `campaign`, plus
// whether the content-addressed store answered it without executing.
// Service knobs come from FERRUM_SVC_SOCKET / FERRUM_SVC_CACHE /
// FERRUM_SVC_WORKERS (strict support/env parsing), overridable with
// --socket / --cache-dir / --workers.
//
// `lint` (equivalently: any command with --lint) runs ferrum-check over
// the built assembly and exits non-zero when a protection invariant is
// violated. A `.s` input is parsed as MiniASM directly, so mutated or
// handwritten protection idioms can be linted without the pipeline.
// `--lint=json` also embeds the ferrum-prune site table (per-site
// dead-bit mask + equivalence class) next to the check report.
//
// `sites` dumps the ferrum-prune analysis itself as JSON; `--prune` on
// audit/campaign collapses the injection space with it (statically-dead
// flips are benign without running, live flips are answered by one pilot
// per equivalence class; see src/check/prune.h).
//
// `plan` runs the ferrum-flow error-propagation analysis over the
// *unprotected* program (the exact assembly the FERRUM protect pass
// would see), prints the four-way outcome-prediction profile and plans
// an analysis-guided selective-protection site set for the given
// --budget (see src/check/flow.h and src/pipeline/selective.h).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "check/check.h"
#include "check/flow.h"
#include "check/prune.h"
#include "check/sections.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/cell.h"
#include "fault/compose.h"
#include "ir/printer.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/service.h"
#include "masm/masm.h"
#include "masm/parser.h"
#include "masm/verifier.h"
#include "pipeline/pipeline.h"
#include "support/env.h"
#include "telemetry/export.h"
#include "vm/vm.h"

using namespace ferrum;
using pipeline::Technique;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <run|asm|ir|audit|campaign|lint|sites|plan> "
               "<file.c|file.s>\n"
               "       [--tech=none|ir-eddi|hybrid|ferrum]\n"
               "       [--trials=N] [--jobs=N] [--timing]\n"
               "       [--max-half-width=X]\n"
               "       [--lint[=json]] [--summary] [--prune] "
               "[--stats=<file.json>]\n"
               "       [--budget=X] [--strategy=analysis|random]\n"
               "       [--compose] [--incremental] [--cache-dir=DIR]\n"
               "       %s serve [--socket=PATH] [--cache-dir=DIR] "
               "[--workers=N]\n"
               "       %s submit <file.c|workload> [--socket=PATH] "
               "[--seed=N] [--burst=N]\n"
               "       [--store-data] [campaign flags]  |  submit "
               "--shutdown\n"
               "(serve runs the campaign daemon on a unix socket; submit "
               "sends one campaign cell to it and streams the result — "
               "repeated submissions are answered byte-identically from "
               "the content-addressed store without executing; service "
               "knobs default to FERRUM_SVC_SOCKET / FERRUM_SVC_CACHE / "
               "FERRUM_SVC_WORKERS)\n"
               "(sites dumps the ferrum-prune fault-site liveness/"
               "equivalence analysis as JSON; --prune makes audit/campaign "
               "inject one pilot per equivalence class and skip "
               "statically-dead flips, extrapolating the full result)\n"
               "(lint runs the ferrum-check static protection verifier. "
               "Exit contract: 0 = every protection invariant holds, "
               "1 = at least one violation (listed on stderr) or a build "
               "failure, 2 = usage/IO error. --lint=json dumps the full "
               "report with the prune/section/flow tables; --summary adds "
               "a per-function table of site counts per class "
               "(protected/benign/unprotected);\n"
               " a .s input is linted directly, without the pipeline)\n"
               "(plan runs the ferrum-flow outcome-prediction analysis on "
               "the pre-protection assembly and plans selective "
               "protection: --budget=X protects the top fraction X of "
               "protectable sites, ranked by predicted SDC risk with "
               "--strategy=analysis (default) or a seeded shuffle with "
               "--strategy=random; predictions land in --lint=json and "
               "sites output as the 'flow' table)\n"
               "(campaign --compose runs the sectioned campaign: the "
               "program is decomposed into sync-point-delimited sections, "
               "each campaigned in isolation, and the per-section summaries "
               "are composed into the whole-program counts; --incremental "
               "additionally caches per-section summaries under "
               "--cache-dir (default FERRUM_SVC_CACHE), so re-running "
               "after an edit re-injects only the changed sections)\n"
               "(--jobs defaults to FERRUM_JOBS, then hardware "
               "concurrency; results are identical for any value;\n"
               " --max-half-width (default FERRUM_CI_TARGET, then 0 = "
               "off) stops a campaign at the first power-of-two trial "
               "boundary where every outcome-rate 95%% Wilson half-width "
               "is <= the target — deterministic (the stopped count is a "
               "pure function of the cell, never of jobs) "
               "and cache-key material; incompatible with --prune;\n"
               " --stats writes run/campaign/audit telemetry as JSON — "
               "the 'metrics' section is deterministic, 'wallclock' is "
               "not)\n",
               argv0, argv0, argv0);
  return 2;
}

/// Writes the --stats artifact: {"metrics": ..., "wallclock": ...}.
bool write_stats(const std::string& path, const telemetry::Json& metrics,
                 const telemetry::Json& wallclock) {
  telemetry::Json root = telemetry::Json::object();
  root["schema_version"] = 1;
  root["metrics"] = metrics;
  root["wallclock"] = wallclock;
  const std::string text = root.dump();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  std::fclose(file);
  return ok;
}

/// Adds the section table and the flow predictions of `analysis` next to
/// a check or prune table: per static site its section id, reachable-sink
/// mask and predicted dynamic outcome; per section its dataflow interface
/// (live-in/live-out sets, sync boundary kind, memory footprint).
void add_sections_and_flow(telemetry::Json& out,
                           const check::flow::AnalysisSet& analysis,
                           const masm::AsmProgram& program) {
  out["sections"] =
      check::sections::to_json(analysis.sections, program, analysis.check);
  out["flow"] = check::flow::to_json(analysis.flow, program);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Technique parse_technique(const std::string& name) {
  if (name == "none") return Technique::kNone;
  if (name == "ir-eddi") return Technique::kIrEddi;
  if (name == "hybrid") return Technique::kHybrid;
  if (name == "ferrum") return Technique::kFerrum;
  std::fprintf(stderr, "unknown technique '%s'\n", name.c_str());
  std::exit(2);
}

/// `ferrumc serve`: the campaign daemon, in-process. Same loop as the
/// standalone ferrumd binary; flags override the FERRUM_SVC_* env knobs.
int serve_main(int argc, char** argv) {
  std::string socket_path = env_svc_socket();
  service::ServiceOptions options;
  options.cache_dir = env_svc_cache_dir();
  options.workers = env_svc_workers();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
      if (socket_path.empty()) {
        std::fprintf(stderr, "bad --socket value (empty path)\n");
        return 2;
      }
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      options.cache_dir = arg.substr(12);
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!parse_int(arg.c_str() + 10, options.workers) ||
          options.workers < 1) {
        std::fprintf(stderr, "bad --workers value '%s'\n", arg.c_str() + 10);
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }
  std::string error;
  Listener listener = Listener::bind_unix(socket_path, &error);
  if (!listener.valid()) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", socket_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::fprintf(stderr, "serving on %s (workers=%d, cache=%s)\n",
               socket_path.c_str(), options.workers,
               options.cache_dir.empty() ? "<memory>"
                                         : options.cache_dir.c_str());
  service::Daemon daemon(std::move(options));
  daemon.serve(listener);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  if (command == "serve") return serve_main(argc, argv);
  if (argc < 3) return usage(argv[0]);
  const std::string path = argv[2];
  // `plan` analyses the unprotected program (what the protect pass would
  // see), so its default stays kNone.
  Technique technique =
      command == "audit" || command == "lint" || command == "sites"
          ? Technique::kFerrum
          : Technique::kNone;
  int trials = env_trials();
  int jobs = env_jobs();
  double max_half_width = env_ci_target();
  bool timing = false;
  bool lint = command == "lint";
  bool lint_json = false;
  bool lint_summary = false;
  double budget = 1.0;
  pipeline::SelectiveOptions::Strategy strategy =
      pipeline::SelectiveOptions::Strategy::kAnalysis;
  bool prune = false;
  bool compose = false;
  bool incremental = false;
  std::string cache_dir = env_svc_cache_dir();
  std::string stats_path;
  // submit-only knobs; -1 means "leave the cell's documented default".
  std::string socket_path = env_svc_socket();
  int seed = -1;
  int burst = -1;
  bool store_data = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tech=", 0) == 0) {
      technique = parse_technique(arg.substr(7));
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--lint=json") {
      lint = true;
      lint_json = true;
    } else if (arg == "--summary") {
      lint = true;
      lint_summary = true;
    } else if (arg.rfind("--budget=", 0) == 0) {
      if (!parse_double(arg.c_str() + 9, budget) || budget < 0.0 ||
          budget > 1.0) {
        std::fprintf(stderr, "bad --budget value '%s' (range [0, 1])\n",
                     arg.c_str() + 9);
        return 2;
      }
    } else if (arg == "--strategy=analysis") {
      strategy = pipeline::SelectiveOptions::Strategy::kAnalysis;
    } else if (arg == "--strategy=random") {
      strategy = pipeline::SelectiveOptions::Strategy::kRandom;
    } else if (arg.rfind("--strategy=", 0) == 0) {
      std::fprintf(stderr, "bad --strategy value '%s'\n", arg.c_str() + 11);
      return 2;
    } else if (arg.rfind("--stats=", 0) == 0) {
      stats_path = arg.substr(8);
      if (stats_path.empty()) {
        std::fprintf(stderr, "bad --stats value (empty path)\n");
        return 2;
      }
    } else if (arg.rfind("--trials=", 0) == 0) {
      if (!parse_int(arg.c_str() + 9, trials) || trials < 1) {
        std::fprintf(stderr, "bad --trials value '%s'\n", arg.c_str() + 9);
        return 2;
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_int(arg.c_str() + 7, jobs) || jobs < 1) {
        std::fprintf(stderr, "bad --jobs value '%s'\n", arg.c_str() + 7);
        return 2;
      }
    } else if (arg.rfind("--max-half-width=", 0) == 0) {
      if (!parse_double(arg.c_str() + 17, max_half_width) ||
          max_half_width < 0.0 || max_half_width >= 0.5) {
        std::fprintf(stderr,
                     "bad --max-half-width value '%s' (range [0, 0.5))\n",
                     arg.c_str() + 17);
        return 2;
      }
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--prune") {
      prune = true;
    } else if (arg == "--compose") {
      compose = true;
    } else if (arg == "--incremental") {
      compose = true;
      incremental = true;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cache_dir = arg.substr(12);
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
      if (socket_path.empty()) {
        std::fprintf(stderr, "bad --socket value (empty path)\n");
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_int(arg.c_str() + 7, seed) || seed < 0) {
        std::fprintf(stderr, "bad --seed value '%s'\n", arg.c_str() + 7);
        return 2;
      }
    } else if (arg.rfind("--burst=", 0) == 0) {
      if (!parse_int(arg.c_str() + 8, burst) || burst < 1) {
        std::fprintf(stderr, "bad --burst value '%s'\n", arg.c_str() + 8);
        return 2;
      }
    } else if (arg == "--store-data") {
      store_data = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (command == "submit") {
    std::string error;
    if (path == "--shutdown") {
      service::Client client = service::Client::connect(socket_path, error);
      if (!client.valid() || !client.shutdown_server(error)) {
        std::fprintf(stderr, "cannot shut down daemon at %s: %s\n",
                     socket_path.c_str(), error.c_str());
        return 1;
      }
      return 0;
    }
    fault::CampaignCell cell;
    // A `.c` path is compiled daemon-side from its source text; anything
    // else names a built-in Table II workload.
    if (path.size() > 2 && path.compare(path.size() - 2, 2, ".c") == 0) {
      cell.program = read_file(path);
    } else {
      cell.workload = path;
    }
    cell.technique = pipeline::technique_name(technique);
    cell.trials = trials;
    if (seed >= 0) cell.seed = static_cast<std::uint32_t>(seed);
    if (burst >= 1) cell.burst = burst;
    cell.store_data = store_data;
    cell.prune = prune;
    cell.max_half_width = max_half_width;
    // jobs rides along but is excluded from the cache key — the daemon
    // returns the same stored bytes for every value of it.
    cell.jobs = jobs;
    service::Client client = service::Client::connect(socket_path, error);
    if (!client.valid()) {
      std::fprintf(stderr, "cannot reach daemon at %s: %s\n",
                   socket_path.c_str(), error.c_str());
      return 1;
    }
    const std::optional<std::uint64_t> job = client.submit({cell}, error);
    if (!job.has_value()) {
      std::fprintf(stderr, "submit rejected: %s\n", error.c_str());
      return 1;
    }
    // Live progress: watch the status stream on a second connection and
    // print the running outcome-interval half-widths while the cell
    // executes. Wall-clock-quarantined by construction — stderr only,
    // and only what the scheduler happened to have finished when each
    // snapshot was taken; the result bytes printed below are the
    // deterministic ones. A cache hit completes before the first poll,
    // so warm submissions print nothing here.
    std::thread watcher([&socket_path, job] {
      std::string watch_error;
      service::Client watch =
          service::Client::connect(socket_path, watch_error);
      while (watch.valid()) {
        const std::optional<telemetry::Json> snap =
            watch.status(*job, watch_error);
        if (!snap.has_value()) break;
        const telemetry::Json* done = snap->find("done");
        if (done == nullptr || done->as_bool()) break;
        if (const telemetry::Json* widths = snap->find("half_widths")) {
          const auto width = [&](const char* name) {
            const telemetry::Json* value = widths->find(name);
            return value != nullptr ? value->as_double() : 0.5;
          };
          std::fprintf(stderr,
                       "[live] half-widths: benign=%.4f sdc=%.4f "
                       "detected=%.4f crash=%.4f\n",
                       width("benign"), width("sdc"), width("detected"),
                       width("crash"));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    });
    int exit_code = 1;
    const bool streamed = client.results(
        *job,
        [&](const service::CellResult& result) {
          if (!result.error.empty()) {
            std::fprintf(stderr, "cell failed: %s\n", result.error.c_str());
            return;
          }
          const telemetry::Json* outcomes = result.result.find("outcomes");
          const telemetry::Json* trials_json = result.result.find("trials");
          const telemetry::Json* sdc_rate = result.result.find("sdc_rate");
          if (outcomes != nullptr && trials_json != nullptr &&
              sdc_rate != nullptr) {
            auto count = [&](const char* name) -> long long {
              const telemetry::Json* value = outcomes->find(name);
              return value != nullptr
                         ? static_cast<long long>(value->as_int())
                         : 0;
            };
            std::printf("trials=%lld benign=%lld sdc=%lld detected=%lld "
                        "crash=%lld sdc_rate=%.4f\n",
                        static_cast<long long>(trials_json->as_int()),
                        count("benign"), count("sdc"), count("detected"),
                        count("crash"), sdc_rate->as_double());
          }
          if (const telemetry::Json* adaptive =
                  result.result.find("adaptive")) {
            const auto field = [&](const char* name) -> long long {
              const telemetry::Json* value = adaptive->find(name);
              return value != nullptr
                         ? static_cast<long long>(value->as_int())
                         : 0;
            };
            const telemetry::Json* reduction = adaptive->find("reduction");
            std::printf("adaptive: executed=%lld/%lld reduction=%.1fx\n",
                        field("executed_trials"), field("planned_trials"),
                        reduction != nullptr ? reduction->as_double() : 0.0);
          }
          std::printf("cache=%s key=%s\n", result.cached ? "hit" : "miss",
                      result.key.c_str());
          if (!stats_path.empty()) {
            telemetry::Json metrics = telemetry::Json::object();
            metrics["command"] = "submit";
            metrics["technique"] = pipeline::technique_name(technique);
            metrics["key"] = result.key;
            metrics["campaign"] = result.result;
            telemetry::Json wallclock = telemetry::Json::object();
            // Whether the store answered is a property of daemon history,
            // not of the cell — wallclock data by the repo convention.
            wallclock["cached"] = result.cached;
            wallclock["campaign"] = result.wallclock;
            if (!write_stats(stats_path, metrics, wallclock)) return;
          }
          exit_code = 0;
        },
        error);
    watcher.join();
    if (!streamed) {
      std::fprintf(stderr, "result stream failed: %s\n", error.c_str());
      return 1;
    }
    return exit_code;
  }

  const std::string source = read_file(path);
  const bool asm_input =
      path.size() > 2 && path.compare(path.size() - 2, 2, ".s") == 0;
  if (asm_input && !lint) {
    std::fprintf(stderr, "a .s input is only supported by lint\n");
    return 2;
  }
  pipeline::Build build;
  if (asm_input) {
    DiagEngine diags;
    build.program = masm::parse_program(source, diags);
    if (diags.has_errors()) {
      std::fprintf(stderr, "%s", diags.render().c_str());
      return 1;
    }
    for (const std::string& problem :
         masm::verify_program(build.program, /*require_main=*/false)) {
      std::fprintf(stderr, "asm-verify: %s\n", problem.c_str());
    }
  } else {
    try {
      build = pipeline::build(source, technique);
    } catch (const std::exception& error) {
      // For a protected build this includes protect-check violations —
      // the pipeline refuses to hand over a program that fails its own
      // static lint, so the non-zero exit covers --lint as well.
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
  }
  // Pipeline pass timing is wall-clock, hence wallclock-section data.
  telemetry::Json pass_seconds = telemetry::Json::array();
  for (const auto& [pass, seconds] : build.pass_seconds) {
    telemetry::Json entry = telemetry::Json::object();
    entry[pass] = seconds;
    pass_seconds.push_back(entry);
  }
  // A protected build carries protect-check's report, made under the
  // default options lint and sites use: they reuse it, not check again.
  const check::CheckReport* protect_check =
      asm_input || technique == Technique::kNone ? nullptr
                                                 : &build.check_report;

  if (lint) {
    check::flow::AnalysisSet analysis;
    if (lint_json) {
      analysis = check::flow::analyze(build.program, {}, protect_check);
    } else {
      analysis.check = protect_check != nullptr
                           ? *protect_check
                           : check::check_program(build.program);
    }
    const check::CheckReport& report = analysis.check;
    for (const check::Violation& violation : report.violations) {
      std::fprintf(stderr, "%s\n", check::to_string(violation).c_str());
    }
    if (lint_json) {
      // The JSON view carries the prune analysis next to the check
      // report, so one artifact holds the full static fault-site table:
      // protection status (check) + dead-bit mask and equivalence class
      // (prune) per site.
      telemetry::Json out = check::to_json(report);
      out["prune"] = check::prune::to_json(analysis.prune, build.program);
      add_sections_and_flow(out, analysis, build.program);
      std::fputs(out.dump().c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::printf("violations=%zu protected=%llu benign=%llu "
                  "unprotected=%llu\n",
                  report.violations.size(),
                  static_cast<unsigned long long>(report.protected_sites),
                  static_cast<unsigned long long>(report.benign_sites),
                  static_cast<unsigned long long>(report.unprotected_sites));
    }
    if (lint_summary) {
      // Per-function class counts. Sites arrive in program order, so one
      // function's records are contiguous and a new name opens a row.
      std::vector<std::pair<std::string, std::array<std::uint64_t, 3>>> rows;
      for (const check::SiteRecord& site : report.sites) {
        if (rows.empty() || rows.back().first != site.function) {
          rows.push_back({site.function, {0, 0, 0}});
        }
        switch (site.status) {
          case check::SiteStatus::kProtected: ++rows.back().second[0]; break;
          case check::SiteStatus::kBenign: ++rows.back().second[1]; break;
          case check::SiteStatus::kUnprotected:
            ++rows.back().second[2];
            break;
        }
      }
      std::printf("%-24s %10s %10s %12s\n", "function", "protected",
                  "benign", "unprotected");
      for (const auto& [function, counts] : rows) {
        std::printf("%-24s %10llu %10llu %12llu\n", function.c_str(),
                    static_cast<unsigned long long>(counts[0]),
                    static_cast<unsigned long long>(counts[1]),
                    static_cast<unsigned long long>(counts[2]));
      }
    }
    if (!stats_path.empty()) {
      telemetry::Json metrics = telemetry::Json::object();
      metrics["command"] = "lint";
      metrics["technique"] =
          asm_input ? "asm-input" : pipeline::technique_name(technique);
      metrics["lint"] = check::to_json(report);
      telemetry::Json wallclock = telemetry::Json::object();
      wallclock["pass_seconds"] = pass_seconds;
      if (!write_stats(stats_path, metrics, wallclock)) return 1;
    }
    return report.clean() ? 0 : 1;
  }

  if (command == "ir") {
    std::fputs(ir::print(*build.module).c_str(), stdout);
    return 0;
  }
  if (command == "asm") {
    std::fputs(masm::print(build.program).c_str(), stdout);
    return 0;
  }

  if (command == "sites") {
    const check::flow::AnalysisSet analysis =
        check::flow::analyze(build.program, {}, protect_check);
    telemetry::Json out = check::prune::to_json(analysis.prune, build.program);
    add_sections_and_flow(out, analysis, build.program);
    std::fputs(out.dump().c_str(), stdout);
    std::fputc('\n', stdout);
    if (!stats_path.empty()) {
      telemetry::Json metrics = telemetry::Json::object();
      metrics["command"] = "sites";
      metrics["technique"] = pipeline::technique_name(technique);
      metrics["prune"] = out;
      telemetry::Json wallclock = telemetry::Json::object();
      wallclock["pass_seconds"] = pass_seconds;
      if (!write_stats(stats_path, metrics, wallclock)) return 1;
    }
    return 0;
  }
  if (command == "plan") {
    pipeline::SelectiveOptions selective;
    selective.strategy = strategy;
    selective.budget = budget;
    if (seed >= 0) selective.seed = static_cast<std::uint64_t>(seed);
    eddi::AsmProtectOptions protect_options;
    protect_options.protect_store_data = store_data;
    const pipeline::SelectivePlan plan =
        pipeline::plan_selective(build.program, selective, protect_options);
    const check::flow::FlowProfile& profile = plan.flow.profile;
    std::printf("sites=%llu masked=%llu detected=%llu crash_prone=%llu "
                "sdc_vulnerable=%llu\n",
                static_cast<unsigned long long>(profile.total()),
                static_cast<unsigned long long>(
                    profile.of(check::flow::Prediction::kMasked)),
                static_cast<unsigned long long>(
                    profile.of(check::flow::Prediction::kDetected)),
                static_cast<unsigned long long>(
                    profile.of(check::flow::Prediction::kCrashProne)),
                static_cast<unsigned long long>(
                    profile.of(check::flow::Prediction::kSdcVulnerable)));
    std::printf("plan: strategy=%s budget=%.2f universe=%zu selected=%zu\n",
                pipeline::selective_strategy_name(selective.strategy),
                selective.budget, plan.universe.size(),
                plan.selected.size());
    if (!stats_path.empty()) {
      telemetry::Json metrics = telemetry::Json::object();
      metrics["command"] = "plan";
      metrics["strategy"] =
          pipeline::selective_strategy_name(selective.strategy);
      metrics["budget"] = selective.budget;
      metrics["universe"] = static_cast<std::uint64_t>(plan.universe.size());
      telemetry::Json selected = telemetry::Json::array();
      for (const int ordinal : plan.selected) {
        selected.push_back(static_cast<std::int64_t>(ordinal));
      }
      metrics["selected"] = std::move(selected);
      metrics["flow"] = check::flow::to_json(plan.flow, build.program);
      telemetry::Json wallclock = telemetry::Json::object();
      wallclock["pass_seconds"] = pass_seconds;
      if (!write_stats(stats_path, metrics, wallclock)) return 1;
    }
    return 0;
  }
  if (command == "run") {
    vm::VmOptions options;
    options.timing = timing;
    options.profile = !stats_path.empty();
    const vm::VmResult result = vm::run(build.program, options);
    for (std::uint64_t value : result.output) {
      std::printf("%lld\n", static_cast<long long>(value));
    }
    std::fprintf(stderr, "[%s: %llu insts%s%s]\n",
                 vm::exit_status_name(result.status),
                 static_cast<unsigned long long>(result.steps),
                 timing ? ", cycles=" : "",
                 timing ? std::to_string(result.cycles).c_str() : "");
    if (!stats_path.empty()) {
      telemetry::Json metrics = telemetry::Json::object();
      metrics["command"] = "run";
      metrics["technique"] = pipeline::technique_name(technique);
      metrics["status"] = vm::exit_status_name(result.status);
      metrics["steps"] = result.steps;
      metrics["fi_sites"] = result.fi_sites;
      metrics["profile"] = telemetry::to_json(*result.profile);
      if (result.timing_stats.has_value()) {
        metrics["cycles"] = result.cycles;
        metrics["timing"] = telemetry::to_json(*result.timing_stats);
      }
      telemetry::Json wallclock = telemetry::Json::object();
      wallclock["pass_seconds"] = pass_seconds;
      if (!write_stats(stats_path, metrics, wallclock)) return 1;
    }
    return result.ok() ? static_cast<int>(result.return_value & 0xff) : 1;
  }
  if (command == "audit") {
    fault::AuditOptions audit_options;
    audit_options.jobs = jobs;
    check::prune::PruneReport prune_report;
    if (prune) {
      prune_report = check::prune::prune_program(
          build.program, {audit_options.vm.fault_store_data});
      audit_options.prune = &prune_report;
    }
    const fault::AuditReport report =
        fault::audit_program(build.program, audit_options);
    std::printf("sites=%llu injections=%llu detected=%llu benign=%llu "
                "crashed=%llu escapes=%zu\n",
                static_cast<unsigned long long>(report.sites),
                static_cast<unsigned long long>(report.injections),
                static_cast<unsigned long long>(report.detected),
                static_cast<unsigned long long>(report.benign),
                static_cast<unsigned long long>(report.crashed),
                report.escapes.size());
    if (report.prune.enabled) {
      std::printf("prune: classes=%llu pilots=%llu dead=%llu "
                  "extrapolated=%llu reduction=%.1fx\n",
                  static_cast<unsigned long long>(report.prune.classes),
                  static_cast<unsigned long long>(
                      report.prune.pilot_injections),
                  static_cast<unsigned long long>(report.prune.dead_probes),
                  static_cast<unsigned long long>(
                      report.prune.extrapolated_probes),
                  report.prune.reduction);
    }
    for (const auto& escape : report.escapes) {
      std::printf("ESCAPE site=%llu bit=%d kind=%s op=%s fn=%s b%d#%d\n",
                  static_cast<unsigned long long>(escape.site), escape.bit,
                  vm::fault_kind_name(escape.kind),
                  masm::op_mnemonic(escape.op), escape.function.c_str(),
                  escape.block, escape.inst);
    }
    if (!stats_path.empty()) {
      telemetry::Json metrics = telemetry::Json::object();
      metrics["command"] = "audit";
      metrics["technique"] = pipeline::technique_name(technique);
      metrics["audit"] = telemetry::to_json(report);
      telemetry::Json wallclock = telemetry::Json::object();
      wallclock["pass_seconds"] = pass_seconds;
      wallclock["audit"] = telemetry::wallclock_json(report);
      if (!write_stats(stats_path, metrics, wallclock)) return 1;
    }
    return report.fully_covered() ? 0 : 1;
  }
  if (command == "campaign" && compose) {
    // Sectioned campaign: decompose, campaign each section from its
    // checkpointed entry state, compose the summaries. --incremental
    // routes per-section summaries through the content-addressed store,
    // so only sections whose code or entry states changed re-inject.
    fault::ComposeOptions options;
    options.trials = static_cast<std::uint64_t>(trials);
    options.jobs = jobs;
    options.vm.fault_store_data = store_data;
    options.max_half_width = max_half_width;
    if (seed >= 0) options.seed = static_cast<std::uint64_t>(seed);
    if (burst >= 1) options.burst = burst;
    std::unique_ptr<service::ResultCache> cache;
    if (incremental) {
      if (cache_dir.empty()) {
        std::fprintf(stderr,
                     "--incremental needs a summary cache: pass "
                     "--cache-dir=DIR or set FERRUM_SVC_CACHE\n");
        return 2;
      }
      cache = std::make_unique<service::ResultCache>(cache_dir);
      options.lookup = [&cache](const std::string& key) {
        return cache->lookup(key);
      };
      options.store = [&cache](const std::string& key,
                               const std::string& bytes) {
        // Replace mode: a summary whose validation certificate went
        // stale (edited program, same section key) must be superseded
        // by the freshly re-campaigned one.
        cache->store(key, bytes, /*replace=*/true);
      };
    }
    const check::sections::SectionMap map =
        check::sections::build_sections(build.program, {store_data});
    fault::ComposeReport report;
    try {
      report = fault::compose_campaign(build.program, map, options);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
    std::printf("sections=%zu sites=%llu trials=%llu benign=%llu sdc=%llu "
                "detected=%llu crash=%llu sdc_rate=%.4f\n",
                report.sections.size(),
                static_cast<unsigned long long>(report.sites),
                static_cast<unsigned long long>(report.injections),
                static_cast<unsigned long long>(report.benign),
                static_cast<unsigned long long>(report.sdc),
                static_cast<unsigned long long>(report.detected),
                static_cast<unsigned long long>(report.crashed),
                report.injections > 0
                    ? static_cast<double>(report.sdc) /
                          static_cast<double>(report.injections)
                    : 0.0);
    if (report.adaptive.enabled) {
      std::printf("adaptive: target=%.4f executed=%d/%d reduction=%.1fx\n",
                  report.adaptive.target_half_width,
                  report.adaptive.executed_trials,
                  report.adaptive.planned_trials,
                  report.adaptive.reduction());
    }
    if (incremental) {
      std::printf("incremental: warm=%llu cold=%llu trials_executed=%llu\n",
                  static_cast<unsigned long long>(report.warm_sections),
                  static_cast<unsigned long long>(report.cold_sections),
                  static_cast<unsigned long long>(report.trials_executed));
    }
    if (!stats_path.empty()) {
      telemetry::Json metrics = telemetry::Json::object();
      metrics["command"] = "campaign";
      metrics["technique"] = pipeline::technique_name(technique);
      metrics["compose"] = telemetry::to_json(report);
      telemetry::Json wallclock = telemetry::Json::object();
      wallclock["pass_seconds"] = pass_seconds;
      wallclock["compose"] = telemetry::wallclock_json(report);
      if (!write_stats(stats_path, metrics, wallclock)) return 1;
    }
    return 0;
  }
  if (command == "campaign") {
    fault::CampaignOptions options;
    options.trials = trials;
    options.jobs = jobs;
    options.max_half_width = max_half_width;
    if (prune && max_half_width > 0.0) {
      std::fprintf(stderr,
                   "--max-half-width cannot be combined with --prune "
                   "(the pilot plan answers trials out of canonical "
                   "order)\n");
      return 2;
    }
    check::prune::PruneReport prune_report;
    if (prune) {
      prune_report = check::prune::prune_program(
          build.program, {options.vm.fault_store_data});
      options.prune = &prune_report;
    }
    const auto result = fault::run_campaign(build.program, options);
    std::printf("trials=%d benign=%d sdc=%d detected=%d crash=%d "
                "sdc_rate=%.4f\n",
                result.trials(), result.count(fault::Outcome::kBenign),
                result.count(fault::Outcome::kSdc),
                result.count(fault::Outcome::kDetected),
                result.count(fault::Outcome::kCrash), result.sdc_rate());
    if (result.adaptive.enabled) {
      std::printf("adaptive: target=%.4f executed=%d/%d reduction=%.1fx\n",
                  result.adaptive.target_half_width,
                  result.adaptive.executed_trials,
                  result.adaptive.planned_trials,
                  result.adaptive.reduction());
    }
    if (result.prune.enabled) {
      std::printf("prune: pilots=%llu dead=%llu replayed=%llu "
                  "reduction=%.1fx\n",
                  static_cast<unsigned long long>(result.prune.pilot_runs),
                  static_cast<unsigned long long>(result.prune.dead_trials),
                  static_cast<unsigned long long>(
                      result.prune.replayed_trials),
                  result.prune.reduction);
    }
    if (!stats_path.empty()) {
      telemetry::Json metrics = telemetry::Json::object();
      metrics["command"] = "campaign";
      metrics["technique"] = pipeline::technique_name(technique);
      metrics["campaign"] = telemetry::to_json(result);
      telemetry::Json wallclock = telemetry::Json::object();
      wallclock["pass_seconds"] = pass_seconds;
      wallclock["campaign"] = telemetry::wallclock_json(result);
      if (!write_stats(stats_path, metrics, wallclock)) return 1;
    }
    return 0;
  }
  return usage(argv[0]);
}
