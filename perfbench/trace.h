// Span recorder for the traced benchmark run. The benchmark wraps each
// call into a program layer in a span named "<module>.<call>"; spans are
// kept in memory and written as JSON when the run ends. A span's self
// time is its duration minus the durations of its direct children.
//
// Durations a call already reports (Build::pass_seconds, the trial time
// inside a campaign) become child spans of known length via add_child,
// placed at an offset from their parent's start.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // since the tracer was created
    std::int64_t end_ns = 0;
    int parent = -1;            // index of the enclosing span, -1 = root
    std::int64_t cell = -1;     // cell the span belongs to
    int phase = 0;              // 0 = set-up, 1 = timed phase
  };

  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switches recording on or off between phases (the traced run times
  /// one untraced phase first, for the tracing overhead).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  void set_phase(int phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    phase_ = phase;
  }

  /// Opens a span under the calling thread's innermost open span.
  /// Returns its index, or -1 when tracing is off.
  int open(const char* name, std::int64_t cell) {
    if (!enabled()) return -1;
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.start_ns = now;
    span.end_ns = now;
    span.parent = stack().empty() ? -1 : stack().back();
    span.cell = cell;
    span.phase = phase_;
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack().push_back(index);
    return index;
  }

  /// Closes span `index` (which must be the thread's innermost open one)
  /// and returns its duration in seconds.
  double close(int index) {
    if (index < 0) return 0.0;
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now;
    if (!stack().empty()) stack().pop_back();
    return static_cast<double>(now - span.start_ns) * 1e-9;
  }

  /// Records a finished child of span `parent` whose duration the traced
  /// call reported itself.
  void add_child(int parent, const char* name, double offset_seconds,
                 double seconds) {
    if (parent < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    const Span& up = spans_[static_cast<std::size_t>(parent)];
    Span span;
    span.name = name;
    span.start_ns =
        up.start_ns + static_cast<std::int64_t>(offset_seconds * 1e9);
    span.end_ns = span.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    span.parent = parent;
    span.cell = up.cell;
    span.phase = up.phase;
    spans_.push_back(std::move(span));
  }

  /// Sum of self times in milliseconds per span name, for one phase.
  std::map<std::string, double> self_ms(int phase) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      const int parent = spans_[i].parent;
      if (parent >= 0) {
        self[static_cast<std::size_t>(parent)] -=
            spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> sums;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].phase != phase) continue;
      sums[spans_[i].name] += static_cast<double>(self[i]) * 1e-6;
    }
    return sums;
  }

  ferrum::telemetry::Json to_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ferrum::telemetry::Json out = ferrum::telemetry::Json::array();
    for (const Span& span : spans_) {
      ferrum::telemetry::Json entry = ferrum::telemetry::Json::object();
      entry["name"] = span.name;
      entry["start_us"] = static_cast<double>(span.start_ns) * 1e-3;
      entry["end_us"] = static_cast<double>(span.end_ns) * 1e-3;
      entry["parent"] = span.parent;
      entry["cell"] = static_cast<std::int64_t>(span.cell);
      entry["phase"] = span.phase == 0 ? "setup" : "timed";
      out.push_back(std::move(entry));
    }
    return out;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  // Open spans of the calling thread (clients of service-mix trace from
  // their own threads).
  static std::vector<int>& stack() {
    thread_local std::vector<int> open;
    return open;
  }

  std::atomic<bool> enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // phase_, spans_
  int phase_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around one layer call.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t cell)
      : tracer_(tracer), index_(tracer.open(name, cell)) {}
  ~Scope() {
    if (!closed_) tracer_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span early; returns its duration in seconds.
  double close() {
    closed_ = true;
    return tracer_.close(index_);
  }
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  const int index_;
  bool closed_ = false;
};

}  // namespace perfbench
