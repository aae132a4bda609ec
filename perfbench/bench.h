// Shared pieces of the perfbench program: options, the per-run recorder
// every workload writes into, and the traced wrappers around layer calls
// that more than one workload makes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "machine.h"
#include "pipeline/pipeline.h"
#include "support/hash.h"
#include "telemetry/json.h"
#include "trace.h"
#include "vm/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: fewer kernels, few trials.
  bool tiny = false;
  /// Deliberate defect for the self-test: "wrong-reference" corrupts one
  /// reference output, "corrupt-cache" rewrites every disk cache entry
  /// between two daemon lifetimes.
  std::string inject;
  /// Directory for spans, the daemon socket and its cache.
  std::string out_dir = ".";
};

/// Counts the layer calls return, summed over one phase.
struct LayerCounts {
  double static_insts = 0;      // instructions of the programs built
  double check_sites = 0;       // sites classified by check
  double ckpt_calls = 0;        // campaign/audit calls that used checkpoints
  double stride_sum = 0;        // effective checkpoint stride, summed
  double snapshot_max_bytes = 0;
  double restores = 0;
  double ff_trials = 0;         // engine trial runs
  double steps_executed = 0;
  double rejoins = 0;
  double trial_seconds = 0;     // time in trial execution
  double modelled_cycles = 0;   // timing-model cycles of timing runs
  double pilots = 0;            // pruned runs actually executed ...
  double probes = 0;            // ... for this many probes/trials
  double imbalance_sum = 0;     // max/mean trials per worker, summed
  double imbalance_calls = 0;
  double export_bytes = 0;      // deterministic result JSON produced
  // Service counters (daemon stats frame deltas).
  double svc_hits = 0, svc_lookups = 0;
  double prog_hits = 0, prog_lookups = 0;
  double golden_reused = 0, golden_lookups = 0;
  double coalesced = 0, steals = 0, trials_executed = 0;

  void add_ckpt(const ferrum::vm::CheckpointTelemetry& ckpt,
                double wall_seconds,
                const std::vector<std::uint64_t>& per_worker);
  void add_scaled(const LayerCounts& other, double factor);
};

/// Everything a run measures. Workloads record cells and counts here;
/// main() turns it into metrics. Thread-safe: service-mix clients record
/// from their own threads.
class Run {
 public:
  enum class Kind : std::uint8_t { kPlain, kHit, kMiss };
  struct Cell {
    double ms = 0.0;
    int program = -1;  // index into the workload's program table
    bool ok = true;
    Kind kind = Kind::kPlain;
  };

  explicit Run(Tracer& tracer) : tracer(tracer) {}
  Tracer& tracer;
  /// Set in untraced runs. Workloads call pause_for_probe() where no cell
  /// is running (main thread only) and leave the seconds it returns out
  /// of their measured time.
  MachineProbe* probe = nullptr;
  double pause_for_probe() { return probe ? probe->take_due() : 0.0; }

  std::int64_t next_cell_id() {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
  }
  /// Records one finished cell (cells run only in the timed phase). A
  /// failed cell prints its reason (first few only).
  void record(double ms, int program, bool ok, const std::string& why,
              Kind kind = Kind::kPlain);
  /// Marks every cell of `program` failed (checks made after the timed
  /// phase, e.g. golden output against the reference interpreter).
  void fail_program(int program, const std::string& why);
  /// Feeds the result digest (deterministic result JSON, in cell order).
  void digest(std::string_view bytes);

  /// Adds to the layer counts of the current phase. Counts are kept
  /// only while tracing, like spans.
  template <typename F>
  void count(F&& update) {
    if (!tracer.enabled()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    update(counts_[phase_]);
  }

  /// 0 = set-up, 1 = timed phase; the tracer follows.
  void set_phase(int phase);
  LayerCounts counts(int phase) const;
  std::vector<Cell> cells() const;
  std::size_t cell_count() const;
  std::uint64_t failed() const;
  std::string digest_hex();

 private:
  void note_failure(const std::string& why);

  mutable std::mutex mutex_;
  int phase_ = 0;
  std::int64_t next_id_ = 0;
  LayerCounts counts_[2];
  std::vector<Cell> cells_;
  std::set<int> failed_programs_;
  int failure_notes_ = 0;
  ferrum::Sha256 digest_;
  std::string digest_hex_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed after the value, e.g. a sample count
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds what several cells share and completes one warm-up cell
  /// from outside the mix.
  virtual void setup(Run& run) = 0;
  /// Runs one whole unit of the mix (a pass over the cell list, or one
  /// service round) and returns the seconds it timed.
  virtual double run_unit(Run& run, int unit) = 0;
  /// Output checks made outside the timed phase.
  virtual void check(Run& run) = 0;
  /// Metrics printed with the report but kept out of the result line,
  /// which carries the same metrics for every workload.
  virtual std::vector<Metric> info(const Run&) const { return {}; }
  /// "passes" or "rounds", for the report.
  virtual const char* unit_name() const = 0;
  /// Threads of the program that run cells at once (machine.h).
  virtual int threads() const = 0;
};

std::unique_ptr<Workload> make_paper_suite(const Options& options);
std::unique_ptr<Workload> make_campaign_large(const Options& options);
std::unique_ptr<Workload> make_analyze(const Options& options);
std::unique_ptr<Workload> make_service_mix(const Options& options);

/// pipeline::build inside a "pipeline.build" span whose passes
/// (Build::pass_seconds) become child spans; counts the program size.
ferrum::pipeline::Build traced_build(Run& run, std::int64_t cell,
                                     std::string_view source,
                                     ferrum::pipeline::Technique technique);

/// Converts and serialises a deterministic result (`make` returns its
/// JSON view) inside a "telemetry.export" span.
template <typename MakeJson>
std::string traced_export(Run& run, std::int64_t cell, MakeJson&& make) {
  Scope span(run.tracer, "telemetry.export", cell);
  std::string bytes = make().dump();
  run.count([&](LayerCounts& counts) {
    counts.export_bytes += static_cast<double>(bytes.size());
  });
  return bytes;
}

std::uint64_t instruction_count(const ferrum::masm::AsmProgram& program);

/// The Table II kernels a workload uses: all eight, or two with --tiny.
std::vector<std::string> kernel_names(bool tiny);

/// Deterministic 64-bit mix of a seed with small integers (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b = 0, std::uint64_t c = 0);

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> values);

}  // namespace perfbench
