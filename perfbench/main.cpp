// perfbench: runs one benchmark workload from a seed, checks its
// outputs and writes the metrics as JSON. run.py builds this binary and
// turns its result file into the benchmark's result line; README.md in
// this directory describes the workloads and every metric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --result <file> [--out-dir <dir>] [--tiny] [--inject <defect>]
#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>

#include "support/rng.h"
#include "telemetry/json.h"
#include "workloads/workloads.h"

namespace perfbench {

using ferrum::telemetry::Json;

// --- Run -------------------------------------------------------------------

void Run::record(double ms, int program, bool ok, const std::string& why,
                 Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.push_back(Cell{ms, program, ok, kind});
  if (!ok) note_failure(why);
}

void Run::fail_program(int program, const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  failed_programs_.insert(program);
  note_failure(why);
}

void Run::note_failure(const std::string& why) {
  if (failure_notes_++ < 10) {
    std::fprintf(stderr, "perfbench: failed cell: %s\n", why.c_str());
  }
}

void Run::digest(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string length = std::to_string(bytes.size()) + "\n";
  digest_.update(length);
  digest_.update(bytes);
}

std::string Run::digest_hex() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (digest_hex_.empty()) digest_hex_ = digest_.hex_digest();
  return digest_hex_;
}

void Run::set_phase(int phase) {
  tracer.set_phase(phase);
  std::lock_guard<std::mutex> lock(mutex_);
  phase_ = phase;
}

LayerCounts Run::counts(int phase) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_[phase];
}

std::vector<Run::Cell> Run::cells() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_;
}

std::size_t Run::cell_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.size();
}

std::uint64_t Run::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t failed = 0;
  for (const Cell& cell : cells_) {
    if (!cell.ok || failed_programs_.count(cell.program) != 0) ++failed;
  }
  return failed;
}

// --- LayerCounts -----------------------------------------------------------

void LayerCounts::add_ckpt(const ferrum::vm::CheckpointTelemetry& ckpt,
                           double wall_seconds,
                           const std::vector<std::uint64_t>& per_worker) {
  if (ckpt.stride > 0) {
    ckpt_calls += 1;
    stride_sum += ckpt.stride;
  }
  snapshot_max_bytes =
      std::max(snapshot_max_bytes, static_cast<double>(ckpt.snapshot_bytes));
  restores += static_cast<double>(ckpt.ff.restores);
  ff_trials += static_cast<double>(ckpt.ff.trials);
  steps_executed += static_cast<double>(ckpt.ff.steps_executed);
  rejoins += static_cast<double>(ckpt.ff.rejoins);
  trial_seconds += wall_seconds;
  std::uint64_t total = 0;
  std::uint64_t most = 0;
  for (const std::uint64_t n : per_worker) {
    total += n;
    most = std::max(most, n);
  }
  if (total > 0) {
    imbalance_sum += static_cast<double>(most) * per_worker.size() /
                     static_cast<double>(total);
    imbalance_calls += 1;
  }
}

void LayerCounts::add_scaled(const LayerCounts& o, double f) {
  static_insts += o.static_insts * f;
  check_sites += o.check_sites * f;
  ckpt_calls += o.ckpt_calls * f;
  stride_sum += o.stride_sum * f;
  snapshot_max_bytes = std::max(snapshot_max_bytes, o.snapshot_max_bytes);
  restores += o.restores * f;
  ff_trials += o.ff_trials * f;
  steps_executed += o.steps_executed * f;
  rejoins += o.rejoins * f;
  trial_seconds += o.trial_seconds * f;
  modelled_cycles += o.modelled_cycles * f;
  pilots += o.pilots * f;
  probes += o.probes * f;
  imbalance_sum += o.imbalance_sum * f;
  imbalance_calls += o.imbalance_calls * f;
  export_bytes += o.export_bytes * f;
  svc_hits += o.svc_hits * f;
  svc_lookups += o.svc_lookups * f;
  prog_hits += o.prog_hits * f;
  prog_lookups += o.prog_lookups * f;
  golden_reused += o.golden_reused * f;
  golden_lookups += o.golden_lookups * f;
  coalesced += o.coalesced * f;
  steals += o.steals * f;
  trials_executed += o.trials_executed * f;
}

// --- shared helpers --------------------------------------------------------

namespace {

/// Span name for a pipeline pass (Build::pass_seconds); nullptr leaves
/// the pass inside pipeline.build's self time.
const char* pass_span_name(const std::string& pass) {
  static const std::map<std::string, const char*> kNames = {
      {"frontend", "frontend.compile"},
      {"ir-protect", "eddi.ir_protect"},
      {"ir-verify", "ir.verify"},
      {"lower", "backend.lower"},
      {"asm-verify", "masm.verify"},
      {"flow-plan", "pipeline.flow_plan"},
      {"protect", "eddi.protect"},
      {"protect-verify", "masm.protect_verify"},
      {"protect-check", "check.protect_check"},
  };
  const auto it = kNames.find(pass);
  return it == kNames.end() ? nullptr : it->second;
}

}  // namespace

ferrum::pipeline::Build traced_build(Run& run, std::int64_t cell,
                                     std::string_view source,
                                     ferrum::pipeline::Technique technique) {
  Scope span(run.tracer, "pipeline.build", cell);
  ferrum::pipeline::Build build = ferrum::pipeline::build(source, technique);
  span.close();
  double offset = 0.0;
  for (const auto& [pass, seconds] : build.pass_seconds) {
    if (const char* name = pass_span_name(pass)) {
      run.tracer.add_child(span.index(), name, offset, seconds);
    }
    offset += seconds;
  }
  const double insts = static_cast<double>(instruction_count(build.program));
  const double sites = static_cast<double>(build.check_report.total_sites());
  run.count([&](LayerCounts& counts) {
    counts.static_insts += insts;
    counts.check_sites += sites;
  });
  return build;
}

std::uint64_t instruction_count(const ferrum::masm::AsmProgram& program) {
  std::uint64_t count = 0;
  for (const auto& function : program.functions) {
    for (const auto& block : function.blocks) count += block.insts.size();
  }
  return count;
}

std::vector<std::string> kernel_names(bool tiny) {
  if (tiny) return {"bfs", "lud"};
  std::vector<std::string> names;
  for (const ferrum::workloads::Workload& kernel : ferrum::workloads::all()) {
    names.push_back(kernel.name);
  }
  return names;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) {
  std::uint64_t state = seed;
  std::uint64_t out = ferrum::splitmix64(state);
  for (const std::uint64_t v : {a, b, c}) {
    state ^= out + v;
    out = ferrum::splitmix64(state);
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::unique_ptr<Workload> make_workload(const Options& options);

/// Wall seconds between two samples of the machine's reference speed.
constexpr double kProbeInterval = 0.25;

struct Phase {
  int units = 0;
  double seconds = 0.0;
  std::size_t cells = 0;
};

/// Runs whole units until the measured time reaches `budget`: another
/// unit starts only while the elapsed time plus half a mean unit is below
/// it, so a run lasts about `budget` seconds and always ends on a unit
/// boundary (every unit carries the same mix of cells). `between` runs
/// after each unit, untimed. With `traced`, a first unit warms the
/// process up untimed, then units alternate between untraced and traced,
/// so both see the same drift of the machine; each phase then gets about
/// half of `budget`.
void timed_phase(Workload& workload, Run& run, Tracer& tracer, double budget,
                 bool traced, const std::function<void()>& between,
                 Phase& plain, Phase& spans) {
  int unit = 0;
  const auto run_unit = [&](Phase& phase, bool on) {
    tracer.set_enabled(on);
    const std::size_t before = run.cell_count();
    phase.seconds += workload.run_unit(run, unit++);
    phase.cells += run.cell_count() - before;
    ++phase.units;
    tracer.set_enabled(false);
    between();
  };
  if (traced) {
    Phase warmup;
    run_unit(warmup, false);
    budget /= 2;
  }
  do {
    run_unit(plain, false);
    if (traced) run_unit(spans, true);
  } while (plain.seconds + 0.5 * plain.seconds / plain.units < budget);
}

/// Sets up a fresh, untraced instance of the workload, returns the
/// seconds that took and discards the instance.
double spare_setup(const Options& options, Run& run) {
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<Workload> spare = make_workload(options);
  spare->setup(run);
  return seconds_between(start, Clock::now());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> per_layer(const Run& run, const Tracer& tracer,
                              const Phase& untraced, const Phase& traced) {
  const std::map<std::string, double> setup = tracer.self_ms(0);
  const std::map<std::string, double> timed = tracer.self_ms(1);
  const double per_unit = 1.0 / traced.units;
  const auto ms = [&](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      if (const auto it = setup.find(name); it != setup.end()) {
        total += it->second;
      }
      if (const auto it = timed.find(name); it != timed.end()) {
        total += it->second * per_unit;
      }
    }
    return total;
  };
  LayerCounts c = run.counts(0);
  c.add_scaled(run.counts(1), per_unit);
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto base = [](const char* num_name, double num, const char* den_name,
                       double den) {
    char text[160];
    std::snprintf(text, sizeof(text), "%s %.6g / %s %.6g", num_name, num,
                  den_name, den);
    return std::string(text);
  };
  const double untraced_unit = untraced.seconds / untraced.units;
  const double traced_unit = traced.seconds / traced.units;
  return {
      {"frontend.ms", ms({"frontend.compile"}), "ms", ""},
      {"ir.verify_ms", ms({"ir.verify"}), "ms", ""},
      {"backend.lower_ms", ms({"backend.lower"}), "ms", ""},
      {"masm.verify_ms", ms({"masm.verify", "masm.protect_verify"}), "ms",
       ""},
      {"eddi.protect_ms", ms({"eddi.ir_protect", "eddi.protect"}), "ms", ""},
      {"eddi.static_insts", c.static_insts, "insts", ""},
      {"check.protect_check_ms", ms({"check.protect_check"}), "ms", ""},
      {"check.check_ms", ms({"check.check_program"}), "ms", ""},
      {"check.prune_ms", ms({"check.prune_program"}), "ms", ""},
      {"check.sections_ms", ms({"check.build_sections"}), "ms", ""},
      {"check.flow_ms", ms({"check.flow_program"}), "ms", ""},
      {"check.sites", c.check_sites, "sites", ""},
      {"pipeline.build_ms", ms({"pipeline.build", "pipeline.flow_plan"}),
       "ms", ""},
      {"pipeline.plan_ms", ms({"pipeline.plan_selective"}), "ms", ""},
      {"vm.prepare_ms", ms({"vm.prepare"}), "ms", ""},
      {"vm.snapshot_mb", c.snapshot_max_bytes / (1024.0 * 1024.0), "MB",
       "largest checkpoint set of one call"},
      {"vm.ckpt_stride", ratio(c.stride_sum, c.ckpt_calls), "sites",
       base("stride sum", c.stride_sum, "calls", c.ckpt_calls)},
      {"vm.restores", c.restores, "count", ""},
      {"vm.steps_per_trial", ratio(c.steps_executed, c.ff_trials), "steps",
       base("steps", c.steps_executed, "trials", c.ff_trials)},
      {"vm.rejoin_ratio", ratio(c.rejoins, c.ff_trials), "ratio",
       base("rejoins", c.rejoins, "trials", c.ff_trials)},
      {"vm.timing_ms", ms({"vm.run"}), "ms", ""},
      {"vm.modelled_cycles", c.modelled_cycles, "cycles", ""},
      {"fault.campaign_ms", ms({"fault.run_campaign"}), "ms", ""},
      {"fault.compose_ms", ms({"fault.compose_campaign"}), "ms", ""},
      {"fault.audit_ms", ms({"fault.audit_program"}), "ms", ""},
      {"fault.trials_per_s", ratio(c.ff_trials, c.trial_seconds), "1/s",
       base("trials", c.ff_trials, "trial seconds", c.trial_seconds)},
      {"fault.pilot_ratio", ratio(c.pilots, c.probes), "ratio",
       base("pilots", c.pilots, "probes", c.probes)},
      {"fault.worker_imbalance", ratio(c.imbalance_sum, c.imbalance_calls),
       "ratio",
       base("max/mean summed", c.imbalance_sum, "calls", c.imbalance_calls)},
      {"service.submit_ms", ms({"service.submit"}), "ms", ""},
      {"service.result_ms", ms({"service.results"}), "ms", ""},
      {"service.hit_ratio", ratio(c.svc_hits, c.svc_lookups), "ratio",
       base("hits", c.svc_hits, "lookups", c.svc_lookups)},
      {"service.progcache_hit_ratio", ratio(c.prog_hits, c.prog_lookups),
       "ratio", base("hits", c.prog_hits, "lookups", c.prog_lookups)},
      {"service.golden_reuse_ratio", ratio(c.golden_reused, c.golden_lookups),
       "ratio",
       base("reused", c.golden_reused, "lookups", c.golden_lookups)},
      {"service.coalesced", c.coalesced, "count", ""},
      {"service.steals", c.steals, "count", ""},
      {"service.trials_executed", c.trials_executed, "count", ""},
      {"telemetry.export_ms", ms({"telemetry.export"}), "ms", ""},
      {"telemetry.export_kb", c.export_bytes / 1024.0, "KB", ""},
      {"trace.overhead_pct", (traced_unit / untraced_unit - 1.0) * 100.0, "%",
       base("traced s/unit", traced_unit, "untraced s/unit", untraced_unit)},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper-suite|campaign-large|"
               "analyze|service-mix> --seed <n> --seconds <s> --trace <0|1> "
               "--result <file> [--out-dir <dir>] [--tiny] "
               "[--inject <wrong-reference|corrupt-cache>]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& options,
                std::string& result_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (arg == "--result") {
      result_path = argv[++i];
    } else if (arg == "--out-dir") {
      options.out_dir = argv[++i];
    } else if (arg == "--inject") {
      options.inject = argv[++i];
    } else {
      return false;
    }
  }
  return !result_path.empty() && options.seconds > 0.0 &&
         (options.inject.empty() || options.inject == "wrong-reference" ||
          options.inject == "corrupt-cache");
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "paper-suite") return make_paper_suite(options);
  if (options.workload == "campaign-large") {
    return make_campaign_large(options);
  }
  if (options.workload == "analyze") return make_analyze(options);
  if (options.workload == "service-mix") return make_service_mix(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json json = Json::object();
  for (const Metric& metric : metrics) {
    Json entry = Json::object();
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    if (!metric.note.empty()) entry["note"] = metric.note;
    json[metric.name] = std::move(entry);
  }
  return json;
}

void print_metrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%s %-28s %14.6g %-6s %s\n", tag, metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Options options;
  std::string result_path;
  if (!parse_args(argc, argv, options, result_path)) return usage();
  try {
    const std::unique_ptr<Workload> workload = make_workload(options);
    // Untraced runs measure the machine's reference speed in child
    // processes, forked here before any thread starts (machine.h).
    std::unique_ptr<MachineProbe> probe;
    if (!options.trace) {
      probe = std::make_unique<MachineProbe>(workload->threads());
    }
    Tracer tracer(options.trace);
    Run run(tracer);

    // The first set-up, timed from process start, prepares the workload
    // the timed phase runs (and is the traced one). Untraced runs then set
    // up spare instances after the units, in step with the measured time,
    // so that setup_s, the median of all set-ups, samples the machine over
    // the whole run as the timed phase does.
    const int setups = options.trace ? 1 : options.tiny ? 3 : 9;
    std::vector<double> setup_seconds;
    workload->setup(run);
    setup_seconds.push_back(seconds_between(process_start, Clock::now()));
    if (probe) {
      probe->start(kProbeInterval);
      probe->take_due();
      run.probe = probe.get();
    }
    Phase untraced;
    Phase traced;
    const auto spares_until = [&](double share) {
      while (static_cast<double>(setup_seconds.size()) <
             1.0 + (setups - 1) * std::min(share, 1.0)) {
        setup_seconds.push_back(spare_setup(options, run));
      }
    };

    run.set_phase(1);
    timed_phase(*workload, run, tracer, options.seconds, options.trace,
                [&] {
                  spares_until(untraced.seconds / options.seconds);
                  run.pause_for_probe();
                },
                untraced, traced);
    const double rss_mb = peak_rss_mb();
    spares_until(1.0);
    if (probe) {
      probe->take_due();
      probe->ensure(5);
    }
    workload->check(run);

    std::vector<double> cell_ms;
    for (const Run::Cell& cell : run.cells()) cell_ms.push_back(cell.ms);
    const std::uint64_t attempted = run.cell_count();
    const std::uint64_t failed = run.failed();
    const std::string digest = run.digest_hex();

    std::vector<Metric> metrics;
    std::vector<Metric> measured;  // the gated metrics before scaling
    if (options.trace) {
      metrics = per_layer(run, tracer, untraced, traced);
    } else {
      // Times at the reference speed: measured time over the factor by
      // which the reference kernel ran slower than kReferenceMs.
      const double factor = probe->factor();
      const double setup = median(setup_seconds);
      const double rate =
          static_cast<double>(untraced.cells) / untraced.seconds;
      char note[128];
      std::snprintf(note, sizeof(note),
                    "median of %d set-ups over the run, at reference speed",
                    static_cast<int>(setup_seconds.size()));
      metrics.push_back({"setup_s", setup / factor, "s", note});
      std::snprintf(note, sizeof(note),
                    "%zu cells in %d %s, at reference speed", untraced.cells,
                    untraced.units, workload->unit_name());
      metrics.push_back({"cells_per_s", rate * factor, "1/s", note});
      metrics.push_back({"peak_rss_mb", rss_mb, "MB", "ru_maxrss"});
      std::snprintf(note, sizeof(note), "%s %.3f + %s %.3f, n=%zu",
                    MachineProbe::kPartNames[0], probe->part_ms(0),
                    MachineProbe::kPartNames[1], probe->part_ms(1),
                    probe->samples());
      measured = {
          {"setup_s.measured", setup, "s", "as measured"},
          {"cells_per_s.measured", rate, "1/s", "as measured"},
          {"machine.ref_ms", probe->reference_ms(), "ms", note},
          {"machine.factor", factor, "ratio",
           "machine.ref_ms / " + std::to_string(MachineProbe::kReferenceMs)},
      };
    }
    // The median cell latency is printed, not gated: per-cell times carry
    // the seed's fault sets as well as the machine's drift.
    std::vector<Metric> info = workload->info(run);
    info.insert(info.begin(),
                {{"setup_s.first", setup_seconds.front(), "s",
                  "first set-up, from process start"},
                 {"cell_ms.p50", median(cell_ms), "ms",
                  "n=" + std::to_string(cell_ms.size())}});
    info.insert(info.begin(), measured.begin(), measured.end());

    std::printf("perfbench %s seed=%llu trace=%d%s: %d %s in %.3f s",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0, options.tiny ? " tiny" : "",
                untraced.units, workload->unit_name(), untraced.seconds);
    if (options.trace) {
      std::printf(", then %d traced in %.3f s", traced.units, traced.seconds);
    }
    std::printf("\n");
    print_metrics(options.trace ? "layer " : "metric", metrics);
    print_metrics("metric", info);
    std::printf("cells attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("result digest %s\n", digest.c_str());

    Json result = Json::object();
    result["workload"] = options.workload;
    result["seed"] = options.seed;
    result["trace"] = options.trace;
    result["correct"] = failed == 0;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["digest"] = digest;
    result["metrics"] = metrics_json(metrics);
    result["info"] = metrics_json(info);
    Json setups_json = Json::array();
    for (const double s : setup_seconds) setups_json.push_back(s);
    result["setup_seconds"] = std::move(setups_json);
    std::ofstream out(result_path);
    out << result.dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   result_path.c_str());
      return 1;
    }
    if (options.trace) {
      const std::string spans_path = options.out_dir + "/spans-" +
                                     options.workload + "-" +
                                     std::to_string(options.seed) + ".json";
      std::ofstream spans(spans_path);
      spans << tracer.to_json().dump() << "\n";
      std::printf("spans written to %s\n", spans_path.c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
    return 1;
  }
}
