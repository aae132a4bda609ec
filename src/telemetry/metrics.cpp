#include "telemetry/metrics.h"

#include <bit>
#include <stdexcept>

#include "support/str.h"

namespace ferrum::telemetry {

void Histogram::observe(std::uint64_t value) noexcept {
  const int bucket = value == 0 ? 0 : std::bit_width(value);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // CAS loops for min/max: contended only when a new extreme arrives.
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const noexcept {
  const std::uint64_t value = min_.load(std::memory_order_relaxed);
  return value == UINT64_MAX && count() == 0 ? 0 : value;
}

Json Histogram::to_json() const {
  Json out = Json::object();
  out["count"] = Json(count());
  out["sum"] = Json(sum());
  out["min"] = Json(min());
  out["max"] = Json(max());
  out["mean"] = Json(mean());
  Json buckets = Json::array();
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = bucket(i);
    if (n == 0) continue;
    // Upper bound of the bucket: 0 for bucket 0, 2^i - 1 otherwise.
    const std::uint64_t bound =
        i == 0 ? 0
               : (i == 64 ? UINT64_MAX : (std::uint64_t{1} << i) - 1);
    Json pair = Json::array();
    pair.push_back(Json(bound));
    pair.push_back(Json(n));
    buckets.push_back(std::move(pair));
  }
  out["buckets"] = std::move(buckets);
  return out;
}

Registry::Metric& Registry::find_or_create(const std::string& name,
                                           MetricKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  Metric& metric = it->second;
  if (inserted) {
    metric.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        metric.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        metric.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        metric.histogram = std::make_unique<Histogram>();
        break;
      case MetricKind::kTimer:
        metric.timer = std::make_unique<Timer>();
        break;
    }
  } else if (metric.kind != kind) {
    throw std::logic_error("telemetry metric '" + name +
                           "' requested as two different kinds");
  }
  return metric;
}

Counter& Registry::counter(const std::string& name) {
  return *find_or_create(name, MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return *find_or_create(name, MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return *find_or_create(name, MetricKind::kHistogram).histogram;
}

Timer& Registry::timer(const std::string& name) {
  return *find_or_create(name, MetricKind::kTimer).timer;
}

Json Registry::to_json(bool include_timers) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json root = Json::object();
  for (const auto& [name, metric] : metrics_) {
    if (metric.kind == MetricKind::kTimer && !include_timers) continue;
    // Walk the '/'-separated path, creating nested objects.
    Json* node = &root;
    std::string_view rest = name;
    for (std::string_view piece : split(rest, '/')) {
      node = &(*node)[piece];
    }
    switch (metric.kind) {
      case MetricKind::kCounter:
        *node = Json(metric.counter->value());
        break;
      case MetricKind::kGauge:
        *node = Json(metric.gauge->value());
        break;
      case MetricKind::kHistogram:
        *node = metric.histogram->to_json();
        break;
      case MetricKind::kTimer: {
        Json entry = Json::object();
        entry["seconds"] = Json(metric.timer->seconds());
        entry["count"] = Json(metric.timer->count());
        *node = std::move(entry);
        break;
      }
    }
  }
  return root;
}

}  // namespace ferrum::telemetry
