// Environment-variable knobs shared by the experiment binaries and the
// examples (FERRUM_TRIALS, FERRUM_JOBS, FERRUM_SCALE, ...). Parsing is
// strict: a value that is not a whole, in-range integer falls back to the
// default with a warning on stderr instead of being silently truncated
// (atoi would read "10O0" as 10 and "abc" as 0).
#pragma once

#include <string>

namespace ferrum {

/// Parses `text` as a whole base-10 integer. Returns false (leaving
/// `out` untouched) on empty input, trailing garbage, or overflow.
bool parse_int(const char* text, int& out) noexcept;

/// Parses `text` as a finite double. Returns false (leaving `out`
/// untouched) on empty input, trailing garbage, overflow, or non-finite
/// values ("nan"/"inf" are rejected — no knob here wants them).
bool parse_double(const char* text, double& out) noexcept;

/// Reads a double knob from the environment. Unset -> `fallback`.
/// Malformed values, or values outside [min_value, max_value), warn on
/// stderr and fall back.
double env_double(const char* name, double fallback, double min_value,
                  double max_value);

/// Reads an integer knob from the environment. Unset -> `fallback`.
/// Malformed values, or values below `min_value`, warn on stderr and
/// fall back. Count-like knobs keep the default `min_value = 1`; pass a
/// different floor for knobs where 0 or negatives are meaningful.
int env_int(const char* name, int fallback, int min_value = 1);

// ---------------------------------------------------------------------
// The shared experiment knobs. Name, floor and default live HERE only;
// the bench binaries (bench/bench_util.h) and examples/ferrumc all go
// through these helpers, so a knob rename or floor change is one edit.

/// FERRUM_TRIALS — sampled faults per campaign measurement. Floor 1.
/// Benches pass their experiment-specific default (the paper's 1000 for
/// coverage figures, less for expensive sweeps).
int env_trials(int fallback = 1000);

/// FERRUM_SCALE — workload scaling factor for the timing experiments
/// (workloads::scaled). Floor 1.
int env_scale(int fallback = 2);

/// FERRUM_JOBS — worker threads for campaign/audit execution, defaulting
/// to hardware concurrency. Floor 1. Results are deterministic for any
/// value; the knob only changes wall-clock time.
int env_jobs();

/// FERRUM_CI_TARGET — adaptive stop-rule target: the campaign stops at
/// the first power-of-two boundary where every outcome-rate Wilson
/// half-width is <= this value (fault/adaptive.h). Range [0, 0.5); 0
/// (the default) disables early stopping. UNLIKE FERRUM_JOBS above
/// this one changes results — it is cell/section cache-key material.
double env_ci_target(double fallback = 0.0);

/// Reads a string knob from the environment. Unset or empty -> fallback
/// (pass "" when empty is a meaningful value for the knob).
std::string env_str(const char* name, const char* fallback);

// --- Campaign-service knobs (ferrumd / ferrumc serve|submit) ----------

/// FERRUM_SVC_SOCKET — unix-domain socket path the daemon listens on and
/// clients connect to. Keep it short (sockaddr_un caps paths at ~107
/// bytes); a relative path is resolved against the daemon's cwd.
std::string env_svc_socket(const char* fallback = "ferrumd.sock");

/// FERRUM_SVC_CACHE — directory for the content-addressed result store.
/// Empty (the default) keeps the cache in memory only: results survive
/// resubmission within one daemon lifetime but not a restart.
std::string env_svc_cache_dir(const char* fallback = "");

/// FERRUM_SVC_WORKERS — service worker threads (campaign cells in
/// flight; each cell still fans out over its own FERRUM_JOBS-style inner
/// pool). Floor 1. Like every engine knob, the value never changes
/// results — cells are deterministic functions of their spec.
int env_svc_workers(int fallback = 2);

}  // namespace ferrum
