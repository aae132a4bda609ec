// Shared helpers for the experiment binaries: environment-variable knobs,
// small table-printing utilities, and the BENCH_<name>.json telemetry
// artifact every bench binary emits.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/env.h"
#include "telemetry/json.h"

namespace ferrum::benchutil {

/// Reads an integer knob from the environment (e.g. FERRUM_TRIALS=2000).
/// Strict parsing with a stderr warning + fallback on garbage or
/// non-positive values (see support/env.h).
inline int env_int(const char* name, int fallback, int min_value = 1) {
  return ferrum::env_int(name, fallback, min_value);
}

/// FERRUM_TRIALS (see support/env.h — the knob definition lives there).
inline int env_trials(int fallback = 1000) {
  return ferrum::env_trials(fallback);
}

/// FERRUM_SCALE (see support/env.h).
inline int env_scale(int fallback = 2) { return ferrum::env_scale(fallback); }

/// FERRUM_JOBS (see support/env.h). Results are deterministic for any
/// value — the knob only changes wall-clock time.
inline int env_jobs() { return ferrum::env_jobs(); }

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// The telemetry artifact every bench binary writes next to its stdout
/// table. Layout (schema in DESIGN.md):
///
///   {
///     "bench": "<name>",
///     "schema_version": 1,
///     "metrics":   { ...deterministic results... },
///     "wallclock": { ...timers / per-worker counts... }
///   }
///
/// `metrics` must be a pure function of program + seed — byte-identical
/// for repeated runs and any FERRUM_JOBS. Anything scheduling-dependent
/// goes under `wallclock`, which comparisons exclude.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    root_ = telemetry::Json::object();
    root_["bench"] = name_;
    root_["schema_version"] = 1;
    root_["metrics"] = telemetry::Json::object();
    root_["wallclock"] = telemetry::Json::object();
  }

  /// Deterministic section. `metrics()["coverage/fft"] = ...` style.
  telemetry::Json& metrics() { return root_["metrics"]; }
  /// Scheduling-dependent section (timers, per-worker counts).
  telemetry::Json& wallclock() { return root_["wallclock"]; }

  /// Serialises to `$FERRUM_BENCH_DIR/BENCH_<name>.json` (cwd when the
  /// variable is unset). Returns the path written, empty on I/O failure
  /// (reported on stderr; benches keep their stdout tables regardless).
  std::string write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (const char* dir = std::getenv("FERRUM_BENCH_DIR");
        dir != nullptr && *dir != '\0') {
      path = std::string(dir) + "/" + path;
    }
    const std::string text = root_.dump();
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return std::string();
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    std::fclose(file);
    if (!ok) {
      std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
      return std::string();
    }
    return path;
  }

 private:
  std::string name_;
  telemetry::Json root_;
};

}  // namespace ferrum::benchutil
