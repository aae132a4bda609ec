// flow_smoke — tier-1 harness for the ferrum-flow outcome-prediction
// analysis and the selective-protection planner built on it. Runs
// flow_program over every workload × technique × store-data knob and
// checks the invariants that must hold for ANY input:
//
//   1. totality — every static fault site gets a prediction, and the
//      profile/per-function/per-section tallies account for exactly the
//      site list;
//   2. determinism — two independent flow_program runs serialize to
//      byte-identical ferrum.flow.v1 documents (the analysis has no
//      hidden state; FERRUM_JOBS and the engine knobs never enter it);
//   3. shape — an unprotected build has no reachable detector, so zero
//      predicted-detected sites; a ferrum build detects most sites; the
//      store-data knob strictly grows the site list with kStoreData
//      sites predicted sdc-vulnerable (store sink by definition);
//   4. planner — for every budget the selective plan picks exactly
//      round(budget × universe) distinct in-range ordinals, the analysis
//      ranking never prefers a lower-scored site over a higher-scored
//      one, plans are deterministic, and the random strategy is a
//      permutation-prefix of the same universe;
//   5. schema — the artifact passes the bench JSON validation that
//      bench_smoke applies, with each cell a ferrum.flow.v1 doc.
//
// Usage: flow_smoke   (registered as a ctest; artifact lands in
// $FERRUM_BENCH_DIR or the working directory)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/flow.h"
#include "pipeline/pipeline.h"
#include "pipeline/selective.h"
#include "workloads/workloads.h"

using namespace ferrum;
using check::flow::FlowReport;
using check::flow::Prediction;
using pipeline::SelectiveOptions;
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
  bool store_data;
};

const Config kConfigs[] = {
    {"none", Technique::kNone, false},
    {"ir-eddi", Technique::kIrEddi, false},
    {"hybrid", Technique::kHybrid, false},
    {"ferrum", Technique::kFerrum, false},
    {"ferrum-stores", Technique::kFerrum, true},
};

std::uint64_t profile_total(const FlowReport& report) {
  return report.profile.of(Prediction::kMasked) +
         report.profile.of(Prediction::kDetected) +
         report.profile.of(Prediction::kCrashProne) +
         report.profile.of(Prediction::kSdcVulnerable);
}

void check_report(const std::string& label, const masm::AsmProgram& program,
                  const FlowReport& report,
                  const check::AnalysisOptions& options) {
  if (report.sites.empty()) {
    fail(label + ": flow produced no sites");
    return;
  }
  if (profile_total(report) != report.sites.size()) {
    fail(label + ": profile total does not match the site list");
  }
  std::uint64_t by_function_total = 0;
  for (const auto& profile : report.by_function) {
    by_function_total += profile.of(Prediction::kMasked) +
                         profile.of(Prediction::kDetected) +
                         profile.of(Prediction::kCrashProne) +
                         profile.of(Prediction::kSdcVulnerable);
  }
  if (by_function_total != report.sites.size()) {
    fail(label + ": per-function profiles do not account for every site");
  }
  for (const check::flow::FlowSite& site : report.sites) {
    const check::flow::FlowSite* found =
        report.find(site.function, site.block, site.inst);
    if (found == nullptr) {
      fail(label + ": site_index lookup lost a site");
      break;
    }
  }
  // Determinism: a fresh analysis of the same program serializes
  // byte-identically. flow_program reads nothing but the program and
  // options, so this also certifies jobs and engine-knob invariance —
  // those knobs have no channel into the analysis.
  const FlowReport again = check::flow::flow_program(program, options);
  if (check::flow::to_json(report, program).dump() !=
      check::flow::to_json(again, program).dump()) {
    fail(label + ": two flow runs serialize differently");
  }
}

void check_plan(const std::string& label, const masm::AsmProgram& program) {
  eddi::AsmProtectOptions protect_options;
  const double budgets[] = {0.0, 0.25, 0.5, 1.0};
  for (const double budget : budgets) {
    for (const auto strategy : {SelectiveOptions::Strategy::kAnalysis,
                                SelectiveOptions::Strategy::kRandom}) {
      SelectiveOptions options;
      options.strategy = strategy;
      options.budget = budget;
      const auto plan =
          pipeline::plan_selective(program, options, protect_options);
      const auto n = plan.universe.size();
      const auto want = static_cast<std::size_t>(
          std::lround(budget * static_cast<double>(n)));
      char tag[64];
      std::snprintf(tag, sizeof(tag), "%s budget=%.2f",
                    pipeline::selective_strategy_name(strategy), budget);
      if (plan.selected.size() != want) {
        fail(label + " " + tag + ": selected " +
             std::to_string(plan.selected.size()) + " sites, expected " +
             std::to_string(want));
      }
      const std::set<int> unique(plan.selected.begin(), plan.selected.end());
      if (unique.size() != plan.selected.size() ||
          (!plan.selected.empty() &&
           (*unique.begin() < 0 ||
            *unique.rbegin() >= static_cast<int>(n)))) {
        fail(label + " " + tag + ": selection is not a distinct in-range "
                                 "ordinal set");
      }
      // Same options → same plan (the planner owns all of its entropy).
      const auto replay =
          pipeline::plan_selective(program, options, protect_options);
      if (replay.selected != plan.selected) {
        fail(label + " " + tag + ": plan is not deterministic");
      }
      // Ranking monotonicity: an analysis plan never leaves a
      // higher-scored site unprotected while selecting a lower-scored
      // one (the score mirrors the planner's prediction tiers).
      if (strategy == SelectiveOptions::Strategy::kAnalysis &&
          !plan.selected.empty() && plan.selected.size() < n) {
        const auto score = [&plan](int ordinal) {
          const auto& ref = plan.universe[static_cast<std::size_t>(ordinal)];
          int best = 0;
          const int span = ref.cluster ? 2 : 1;
          for (int d = 0; d < span; ++d) {
            const check::flow::FlowSite* site =
                plan.flow.find(ref.function, ref.block, ref.inst + d);
            if (site == nullptr) continue;
            switch (site->prediction) {
              case Prediction::kSdcVulnerable: best = std::max(best, 3); break;
              case Prediction::kCrashProne: best = std::max(best, 2); break;
              case Prediction::kDetected: best = std::max(best, 1); break;
              case Prediction::kMasked: break;
            }
          }
          return best;
        };
        int min_selected = 3;
        for (const int ordinal : plan.selected) {
          min_selected = std::min(min_selected, score(ordinal));
        }
        int max_skipped = 0;
        for (int ordinal = 0; ordinal < static_cast<int>(n); ++ordinal) {
          if (unique.count(ordinal) == 0) {
            max_skipped = std::max(max_skipped, score(ordinal));
          }
        }
        if (min_selected < max_skipped) {
          fail(label + " " + tag + ": analysis plan skipped a site scored "
                                   "above one it selected");
        }
      }
    }
  }
}

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
  if (parsed->find("bench")->as_string() != "flow_smoke") {
    fail(path + " 'bench' key is not 'flow_smoke'");
  }
  Json& workloads = (*parsed)["metrics"]["workloads"];
  if (workloads.size() == 0) {
    fail(path + " metrics carry no workloads");
    return;
  }
  for (const auto& [workload, cells] : workloads.fields()) {
    for (const auto& [config, cell] : cells.fields()) {
      const Json* flow = cell.find("flow");
      const Json* schema = flow == nullptr ? nullptr : flow->find("schema");
      if (schema == nullptr || schema->as_string() != "ferrum.flow.v1") {
        fail(workload + "/" + config +
             ": flow report is not a ferrum.flow.v1 document");
      }
    }
  }
}

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  benchutil::BenchReport report("flow_smoke");

  std::printf("ferrum-flow smoke — workloads x techniques x knobs\n\n");
  std::printf("%-15s %-14s | %6s %6s %6s %6s\n", "workload", "config",
              "mask", "det", "crash", "vuln");
  benchutil::print_rule(72);

  for (const auto& workload : workloads::all()) {
    Json row = Json::object();
    std::uint64_t none_sites = 0;
    std::uint64_t stores_sites = 0;
    for (const Config& config : kConfigs) {
      const std::string label =
          std::string(workload.name) + "/" + config.name;
      FlowReport result;
      pipeline::Build build;
      try {
        pipeline::BuildOptions options;
        options.ferrum.protect_store_data = config.store_data;
        build = pipeline::build(workload.source, config.technique, options);
        const check::AnalysisOptions flow_options{config.store_data};
        result = check::flow::flow_program(build.program, flow_options);
        check_report(label, build.program, result, flow_options);
      } catch (const std::exception& e) {
        fail(label + ": " + e.what());
        continue;
      }
      std::printf("%-15s %-14s | %6llu %6llu %6llu %6llu\n",
                  workload.name.c_str(),
                  config.name,
                  static_cast<unsigned long long>(
                      result.profile.of(Prediction::kMasked)),
                  static_cast<unsigned long long>(
                      result.profile.of(Prediction::kDetected)),
                  static_cast<unsigned long long>(
                      result.profile.of(Prediction::kCrashProne)),
                  static_cast<unsigned long long>(
                      result.profile.of(Prediction::kSdcVulnerable)));

      if (config.technique == Technique::kNone) {
        none_sites = result.sites.size();
        // No detector blocks exist, so nothing can be predicted detected.
        if (result.profile.of(Prediction::kDetected) != 0) {
          fail(label + ": unprotected build predicts detected sites");
        }
        // The planner runs on the pre-protection program; exercise every
        // budget/strategy knob against this cell.
        check_plan(label, build.program);
      }
      if (config.technique == Technique::kFerrum) {
        if (result.profile.of(Prediction::kDetected) == 0) {
          fail(label + ": ferrum build predicts no detected sites");
        }
        if (config.store_data) stores_sites = result.sites.size();
      }
      // Store-data kStoreData sites carry the store sink by definition —
      // any predicted masked/detected among them must come from a prune
      // deadness proof or a check protected fact, never from flow alone.
      for (const check::flow::FlowSite& site : result.sites) {
        if (site.kind == masm::FaultSiteKind::kStoreData &&
            site.basis == check::flow::PredictionBasis::kFlow &&
            (site.prediction == Prediction::kMasked ||
             site.prediction == Prediction::kDetected)) {
          fail(label + ": store-data site predicted safe on flow evidence");
          break;
        }
      }
      Json cell = Json::object();
      cell["flow"] = check::flow::to_json(result, build.program);
      row[config.name] = cell;
    }
    if (stores_sites != 0 && stores_sites <= none_sites) {
      fail(std::string(workload.name) +
           ": store-data knob did not grow the site list");
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

  if (failures == 0) std::printf("flow_smoke: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
