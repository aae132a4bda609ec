// check_smoke — tier-1 harness for the static protection verifier. Runs
// ferrum-check over every workload × protection configuration (the same
// sweep `ferrumc lint` exposes), writes the coverage artifact through the
// bench telemetry layer, then re-reads and validates it against the bench
// JSON schema bench_smoke enforces:
//
//   1. cleanliness — zero violations on every unmutated protected build
//      (a violation here is a protection-pass bug, not a lint finding);
//   2. coverage — every cell classifies at least one site, and protected
//      techniques leave strictly fewer unprotected sites than baseline;
//   3. schema — the artifact carries bench/schema_version/metrics/
//      wallclock and each cell's static report is a ferrum.check.v1 doc.
//
// Usage: check_smoke   (registered as a ctest; artifact lands in
// $FERRUM_BENCH_DIR or the working directory)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "check/check.h"
#include "pipeline/pipeline.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;
using telemetry::Json;

namespace {

int failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++failures;
}

struct Config {
  const char* name;
  Technique technique;
  pipeline::BuildOptions options;
  check::AnalysisOptions check_options;
};

std::vector<Config> configs() {
  std::vector<Config> out;
  out.push_back({"ir-eddi", Technique::kIrEddi, {}, {}});
  out.push_back({"hybrid", Technique::kHybrid, {}, {}});
  out.push_back({"ferrum", Technique::kFerrum, {}, {}});
  {
    Config c{"ferrum-nosimd", Technique::kFerrum, {}, {}};
    c.options.ferrum.use_simd = false;
    out.push_back(c);
  }
  {
    Config c{"ferrum-batch1", Technique::kFerrum, {}, {}};
    c.options.ferrum.simd_batch = 1;
    out.push_back(c);
  }
  {
    Config c{"ferrum-stack", Technique::kFerrum, {}, {}};
    c.options.ferrum.force_stack_redundancy = true;
    out.push_back(c);
  }
  {
    Config c{"ferrum-stores", Technique::kFerrum, {}, {}};
    c.options.ferrum.protect_store_data = true;
    c.check_options.store_data_sites = true;
    out.push_back(c);
  }
  return out;
}

/// Validates the written artifact the way bench_smoke validates bench
/// outputs: parseable, schema keys present, and every cell clean.
void validate_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::parse(buffer.str());
  if (!parsed.has_value()) {
    fail(path + " does not parse as JSON");
    return;
  }
  for (const char* key : {"bench", "schema_version", "metrics", "wallclock"}) {
    if (parsed->find(key) == nullptr) {
      fail(path + " lacks required key '" + key + "'");
      return;
    }
  }
  if (parsed->find("bench")->as_string() != "check_smoke") {
    fail(path + " 'bench' key is not 'check_smoke'");
  }
  Json& workloads = (*parsed)["metrics"]["workloads"];
  if (workloads.size() == 0) {
    fail(path + " metrics carry no workloads");
    return;
  }
  for (const auto& [workload, cells] : workloads.fields()) {
    for (const auto& [config, cell] : cells.fields()) {
      const Json* static_report = cell.find("static");
      const Json* schema =
          static_report == nullptr ? nullptr : static_report->find("schema");
      if (schema == nullptr || schema->as_string() != "ferrum.check.v1") {
        fail(workload + "/" + config +
             ": static report is not a ferrum.check.v1 document");
        continue;
      }
      const Json* violations = static_report->find("violations");
      if (violations == nullptr || violations->size() != 0) {
        fail(workload + "/" + config + ": artifact records violations");
      }
    }
  }
}

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  benchutil::BenchReport report("check_smoke");

  std::printf("ferrum-check lint sweep — workloads x protection configs\n\n");
  std::printf("%-15s %-14s | %5s %6s %6s %6s\n", "workload", "config", "viol",
              "prot", "benign", "unprot");
  benchutil::print_rule(72);

  for (const auto& workload : workloads::all()) {
    Json row = Json::object();
    // Baseline unprotected fraction: protection grows the program (so
    // absolute site counts rise), but the unprotected share must drop.
    double baseline_fraction = 1.0;
    {
      const auto build = pipeline::build(workload.source, Technique::kNone);
      const auto base = check::check_program(build.program);
      baseline_fraction = static_cast<double>(base.unprotected_sites) /
                          static_cast<double>(base.total_sites());
    }
    for (const Config& config : configs()) {
      check::CheckReport result;
      try {
        const auto build = pipeline::build(workload.source, config.technique,
                                           config.options);
        result = check::check_program(build.program, config.check_options);
      } catch (const std::exception& e) {
        fail(std::string(workload.name) + "/" + config.name +
             ": build failed: " + e.what());
        continue;
      }
      std::printf("%-15s %-14s | %5zu %6llu %6llu %6llu\n",
                  workload.name.c_str(), config.name, result.violations.size(),
                  static_cast<unsigned long long>(result.protected_sites),
                  static_cast<unsigned long long>(result.benign_sites),
                  static_cast<unsigned long long>(result.unprotected_sites));
      if (!result.clean()) {
        fail(std::string(workload.name) + "/" + config.name + ": " +
             check::to_string(result.violations.front()));
      }
      if (result.total_sites() == 0) {
        fail(std::string(workload.name) + "/" + config.name +
             ": classified no fault sites");
      }
      const double fraction =
          static_cast<double>(result.unprotected_sites) /
          static_cast<double>(result.total_sites());
      if (result.protected_sites == 0 || fraction >= baseline_fraction) {
        fail(std::string(workload.name) + "/" + config.name +
             ": protection did not shrink the unprotected fraction");
      }
      Json cell = Json::object();
      cell["static"] = check::to_json(result);
      row[config.name] = cell;
    }
    report.metrics()["workloads"][workload.name] = row;
  }
  benchutil::print_rule(72);

  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const std::string path = report.write();
  if (path.empty()) {
    fail("artifact write failed");
  } else {
    validate_artifact(path);
  }

  if (failures == 0) std::printf("check_smoke: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
