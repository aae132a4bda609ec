#include "support/env.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <climits>

#include "support/parallel.h"

namespace ferrum {

bool parse_int(const char* text, int& out) noexcept {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;      // no digits / trailing junk
  if (errno == ERANGE || value < INT_MIN || value > INT_MAX) return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_double(const char* text, double& out) noexcept {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;  // no digits / trailing junk
  if (errno == ERANGE || !std::isfinite(value)) return false;
  out = value;
  return true;
}

double env_double(const char* name, double fallback, double min_value,
                  double max_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  double parsed = 0.0;
  if (!parse_double(value, parsed)) {
    std::fprintf(stderr,
                 "warning: %s='%s' is not a number; using default %g\n",
                 name, value, fallback);
    return fallback;
  }
  if (parsed < min_value || parsed >= max_value) {
    std::fprintf(stderr,
                 "warning: %s=%g is outside [%g, %g); using default %g\n",
                 name, parsed, min_value, max_value, fallback);
    return fallback;
  }
  return parsed;
}

int env_int(const char* name, int fallback, int min_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  int parsed = 0;
  if (!parse_int(value, parsed)) {
    std::fprintf(stderr,
                 "warning: %s='%s' is not an integer; using default %d\n",
                 name, value, fallback);
    return fallback;
  }
  if (parsed < min_value) {
    std::fprintf(stderr,
                 "warning: %s=%d is below the minimum %d; using default %d\n",
                 name, parsed, min_value, fallback);
    return fallback;
  }
  return parsed;
}

int env_trials(int fallback) { return env_int("FERRUM_TRIALS", fallback); }

int env_scale(int fallback) { return env_int("FERRUM_SCALE", fallback); }

int env_jobs() {
  return env_int("FERRUM_JOBS", ThreadPool::hardware_workers());
}

double env_ci_target(double fallback) {
  return env_double("FERRUM_CI_TARGET", fallback, /*min_value=*/0.0,
                    /*max_value=*/0.5);
}

std::string env_str(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

std::string env_svc_socket(const char* fallback) {
  return env_str("FERRUM_SVC_SOCKET", fallback);
}

std::string env_svc_cache_dir(const char* fallback) {
  return env_str("FERRUM_SVC_CACHE", fallback);
}

int env_svc_workers(int fallback) {
  return env_int("FERRUM_SVC_WORKERS", fallback, /*min_value=*/1);
}

}  // namespace ferrum
