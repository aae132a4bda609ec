// bench_smoke — CI harness for the experiment binaries. Runs every bench
// with tiny knobs (FERRUM_TRIALS/FERRUM_SCALE) into a scratch directory,
// then validates that each BENCH_<name>.json artifact parses, carries the
// required schema keys, and that the telemetry honours its two core
// promises:
//   1. determinism — the "metrics" section is byte-identical across
//      FERRUM_JOBS values (the "wallclock" section is exempt);
//   2. mechanism — fig11's per-port attribution shows FERRUM's
//      protection-origin instructions peaking on the vector port class
//      while hybrid's land on the ALU/branch classes.
//
// Usage: bench_smoke <bench-binary-dir>   (registered as a ctest)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.h"

using ferrum::telemetry::Json;

namespace {

int failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++failures;
}

std::optional<Json> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto json = Json::parse(buffer.str());
  if (!json.has_value()) fail(path + " does not parse as JSON");
  return json;
}

/// Runs `binary` with the smoke-test knobs, artifacts into `out_dir`.
bool run_bench(const std::string& binary, const std::string& out_dir,
               int jobs, const std::string& extra_args = "") {
  const std::string command =
      "env FERRUM_TRIALS=4 FERRUM_SCALE=1 FERRUM_JOBS=" +
      std::to_string(jobs) + " FERRUM_BENCH_DIR=" + out_dir + " " + binary +
      (extra_args.empty() ? "" : " " + extra_args) + " > /dev/null";
  if (std::system(command.c_str()) != 0) {
    fail(binary + " exited non-zero");
    return false;
  }
  return true;
}

/// Parses the artifact and checks the required schema keys.
std::optional<Json> check_artifact(const std::string& out_dir,
                                   const std::string& name) {
  const std::string path = out_dir + "/BENCH_" + name + ".json";
  auto json = load_json(path);
  if (!json.has_value()) return std::nullopt;
  for (const char* key : {"bench", "schema_version", "metrics", "wallclock"}) {
    if (json->find(key) == nullptr) {
      fail(path + " lacks required key '" + key + "'");
      return std::nullopt;
    }
  }
  if (const Json* bench = json->find("bench");
      bench != nullptr && bench->as_string() != name) {
    fail(path + " 'bench' key is '" + bench->as_string() + "', want '" +
         name + "'");
  }
  return json;
}

std::uint64_t protection_issues(const Json& tech_json, const char* port) {
  const Json* timing = tech_json.find("timing");
  if (timing == nullptr) return 0;
  const Json* ports = timing->find("ports");
  if (ports == nullptr) return 0;
  const Json* entry = ports->find(port);
  if (entry == nullptr) return 0;
  const Json* issues = entry->find("issues");
  if (issues == nullptr) return 0;
  const Json* count = issues->find("protection");
  return count == nullptr ? 0 : count->as_uint();
}

/// Acceptance check on fig11: FERRUM's check instructions predominantly
/// occupy the vector port class; hybrid's land on ALU/branch.
void check_fig11_mechanism(const Json& fig11) {
  const Json* workloads = fig11.find("metrics");
  workloads = workloads == nullptr ? nullptr : workloads->find("workloads");
  if (workloads == nullptr) {
    fail("fig11_overhead metrics lack 'workloads'");
    return;
  }
  std::uint64_t ferrum_vec = 0, ferrum_alu = 0, ferrum_branch = 0;
  std::uint64_t hybrid_vec = 0, hybrid_alu = 0, hybrid_branch = 0;
  for (const auto& [name, workload] : workloads->fields()) {
    const Json* ferrum = workload.find("ferrum");
    const Json* hybrid = workload.find("hybrid-assembly-level-eddi");
    if (ferrum == nullptr || hybrid == nullptr) {
      fail("fig11_overhead workload '" + name + "' lacks technique data");
      return;
    }
    ferrum_vec += protection_issues(*ferrum, "vec");
    ferrum_alu += protection_issues(*ferrum, "alu");
    ferrum_branch += protection_issues(*ferrum, "branch");
    hybrid_vec += protection_issues(*hybrid, "vec");
    hybrid_alu += protection_issues(*hybrid, "alu");
    hybrid_branch += protection_issues(*hybrid, "branch");
  }
  if (!(ferrum_vec > ferrum_alu && ferrum_vec > ferrum_branch)) {
    fail("fig11: FERRUM protection issues do not peak on the vector port");
  }
  if (!(hybrid_alu > hybrid_vec && hybrid_branch > hybrid_vec)) {
    fail("fig11: hybrid protection issues do not land on ALU/branch");
  }
  if (ferrum_vec == 0) fail("fig11: FERRUM vector-port attribution is empty");
}

/// Acceptance check on the static-coverage cross-validation: every
/// dynamically observed SDC escape must have landed on a statically
/// unprotected site (agreement == 1.0), and the unprotected audit must
/// actually have produced escapes (otherwise containment is vacuous).
void check_static_coverage(Json& artifact) {
  Json& metrics = artifact["metrics"];
  const Json* agreement = metrics.find("agreement");
  if (agreement == nullptr) {
    fail("analysis_static_coverage metrics lack 'agreement'");
    return;
  }
  if (agreement->as_double() != 1.0) {
    fail("analysis_static_coverage agreement below 1.0: a dynamic SDC "
         "escaped outside the statically-unprotected set");
  }
  const Json* escapes = metrics.find("total_escapes");
  if (escapes == nullptr || escapes->as_uint() == 0) {
    fail("analysis_static_coverage observed no escapes — containment "
         "check is vacuous");
  }
  const Json* dead = metrics.find("dead_escape_misses");
  if (dead == nullptr) {
    fail("analysis_static_coverage metrics lack 'dead_escape_misses'");
  } else if (dead->as_uint() != 0) {
    fail("analysis_static_coverage found escapes on statically-dead bits — "
         "a ferrum-prune liveness soundness bug");
  }
}

/// Acceptance check on the flow-prediction cross-validation: every
/// dynamic SDC escape must have landed on a site ferrum-flow predicted
/// sdc-vulnerable or crash-prone (containment == 1.0), no predicted-safe
/// site may have produced an SDC, and the sweep must have observed
/// escapes (otherwise containment is vacuous). Precision is reported,
/// not asserted — the flow contract is one-directional.
void check_flow_accuracy(Json& artifact) {
  Json& metrics = artifact["metrics"];
  const Json* containment = metrics.find("containment");
  if (containment == nullptr) {
    fail("analysis_flow_accuracy metrics lack 'containment'");
    return;
  }
  if (containment->as_double() != 1.0) {
    fail("analysis_flow_accuracy containment below 1.0: a dynamic SDC "
         "escaped outside the predicted-vulnerable set");
  }
  const Json* escapes = metrics.find("total_escapes");
  if (escapes == nullptr || escapes->as_uint() == 0) {
    fail("analysis_flow_accuracy observed no escapes — containment check "
         "is vacuous");
  }
  const Json* safe = metrics.find("safe_sdc_sites");
  if (safe == nullptr) {
    fail("analysis_flow_accuracy metrics lack 'safe_sdc_sites'");
  } else if (safe->as_uint() != 0) {
    fail("analysis_flow_accuracy found an SDC on a predicted-safe site — "
         "a ferrum-flow soundness bug");
  }
  if (metrics.find("precision") == nullptr) {
    fail("analysis_flow_accuracy metrics lack 'precision'");
  }
}

/// Schema + invariant check on bench_vm's telemetry: the wallclock
/// section must carry the per-technique interpreter rates (functional and
/// timed, median and best, with `none`, IR-EDDI and FERRUM rows), the
/// campaign rates and the pruned audit's probe rates and seconds per
/// audit, and the metrics section must assert that the hooked and bare
/// loop instances and the cold and checkpointed campaigns agree exactly.
void check_bench_vm(const Json& artifact) {
  const Json* metrics = artifact.find("metrics");
  const Json* wallclock = artifact.find("wallclock");
  if (metrics == nullptr || wallclock == nullptr) return;  // already failed
  for (const char* section : {"hooks_equivalent", "campaign_equivalent"}) {
    const Json* flags = metrics->find(section);
    if (flags == nullptr) {
      fail(std::string("bench_vm metrics lack '") + section + "'");
      continue;
    }
    if (flags->fields().empty()) {
      fail(std::string("bench_vm '") + section + "' has no techniques");
    }
    for (const auto& [technique, flag] : flags->fields()) {
      if (!flag.as_bool()) {
        fail("bench_vm " + std::string(section) + "['" + technique +
             "'] is false — two engine paths diverged");
      }
    }
  }
  const Json* interpreter = wallclock->find("interpreter");
  if (interpreter == nullptr || interpreter->fields().empty()) {
    fail("bench_vm wallclock lacks a populated 'interpreter' section");
  } else {
    for (const char* technique : {"none", "ir-level-eddi", "ferrum"}) {
      if (interpreter->find(technique) == nullptr) {
        fail(std::string("bench_vm interpreter lacks a '") + technique +
             "' row");
      }
    }
    for (const auto& [technique, row] : interpreter->fields()) {
      for (const char* key :
           {"minst_per_second", "best_minst_per_second",
            "timing_minst_per_second", "best_timing_minst_per_second"}) {
        if (row.find(key) == nullptr) {
          fail("bench_vm interpreter['" + technique + "'] lacks '" + key +
               "'");
        }
      }
    }
  }
  const Json* campaign = wallclock->find("campaign_throughput");
  if (campaign == nullptr || campaign->fields().empty()) {
    fail("bench_vm wallclock lacks a populated 'campaign_throughput'");
  } else {
    for (const auto& [technique, row] : campaign->fields()) {
      for (const char* key : {"cold_trials_per_second",
                              "ckpt_trials_per_second", "speedup"}) {
        if (row.find(key) == nullptr) {
          fail("bench_vm campaign_throughput['" + technique + "'] lacks '" +
               key + "'");
        }
      }
      // The rejoin counter must ride with the checkpoint accounting.
      const Json* ckpt = row.find("ckpt");
      const Json* ff = ckpt != nullptr ? ckpt->find("ckpt") : nullptr;
      if (ff == nullptr || ff->find("rejoins") == nullptr) {
        fail("bench_vm campaign_throughput['" + technique +
             "'] lacks ckpt.rejoins");
      }
    }
  }
  const Json* audit = wallclock->find("audit");
  const Json* ferrum = audit != nullptr ? audit->find("ferrum") : nullptr;
  for (const char* key :
       {"probes_per_second", "best_probes_per_second",
        "median_audit_seconds"}) {
    if (ferrum == nullptr || ferrum->find(key) == nullptr) {
      fail(std::string("bench_vm wallclock lacks audit.ferrum.") + key);
    }
  }
}

/// Schema check on bench_pass_time's check_program and lint_json rows:
/// the median and fastest of their passes and their count.
void check_pass_time(const Json& artifact) {
  const Json* wallclock = artifact.find("wallclock");
  for (const char* name : {"check_program", "lint_json"}) {
    const Json* row = wallclock != nullptr ? wallclock->find(name) : nullptr;
    for (const char* key : {"median_seconds", "best_seconds", "reps"}) {
      if (row == nullptr || row->find(key) == nullptr) {
        fail(std::string("bench_pass_time wallclock lacks ") + name + "." +
             key);
      }
    }
  }
}

/// Schema check on trial_ledger's tail rates: the `none` and IR-EDDI
/// technique rows carry the best-repetition and median tail rates.
void check_trial_ledger(const Json& artifact) {
  const Json* wallclock = artifact.find("wallclock");
  const Json* techniques =
      wallclock != nullptr ? wallclock->find("techniques") : nullptr;
  if (techniques == nullptr) {
    fail("trial_ledger wallclock lacks 'techniques'");
    return;
  }
  for (const char* technique : {"none", "ir-level-eddi"}) {
    const Json* row = techniques->find(technique);
    for (const char* key :
         {"tail_steps_per_second", "median_tail_steps_per_second"}) {
      if (row == nullptr || row->find(key) == nullptr) {
        fail(std::string("trial_ledger techniques['") + technique +
             "'] lacks '" + key + "'");
      }
    }
  }
}

/// Acceptance check on the compose cross-validation: every workload x
/// technique cell must have composed exactly (agreement == 1.0 over a
/// non-empty frame), and the warm re-composition must have executed zero
/// engine trials while exporting byte-identical counts.
void check_compose_accuracy(Json& artifact) {
  Json& metrics = artifact["metrics"];
  const Json* agreement = metrics.find("agreement");
  if (agreement == nullptr) {
    fail("analysis_compose_accuracy metrics lack 'agreement'");
    return;
  }
  if (agreement->as_double() != 1.0) {
    fail("analysis_compose_accuracy agreement below 1.0: composed section "
         "summaries diverged from the monolithic audit");
  }
  const Json* injections = metrics.find("total_injections");
  if (injections == nullptr || injections->as_uint() == 0) {
    fail("analysis_compose_accuracy composed no injections — the "
         "agreement check is vacuous");
  }
  const Json* zero = metrics.find("warm_zero_trials");
  if (zero == nullptr || !zero->as_bool()) {
    fail("analysis_compose_accuracy warm re-composition executed engine "
         "trials");
  }
  const Json* identical = metrics.find("warm_matches_cold");
  if (identical == nullptr || !identical->as_bool()) {
    fail("analysis_compose_accuracy warm re-composition not byte-identical "
         "to cold");
  }
}

/// Acceptance check on the early-stop cross-validation: interval
/// coverage at or above nominal, canonical-prefix containment, and the
/// bench's own verdicts (the 5x reduction floor arms itself only at
/// realistic budgets — smoke budgets cannot cross a stop boundary).
void check_earlystop_accuracy(Json& artifact) {
  Json& metrics = artifact["metrics"];
  const Json* coverage = metrics.find("coverage_ok");
  if (coverage == nullptr || !coverage->as_bool()) {
    fail("analysis_earlystop_accuracy interval coverage below nominal");
  }
  const Json* prefix = metrics.find("prefix_containment");
  if (prefix == nullptr || !prefix->as_bool()) {
    fail("analysis_earlystop_accuracy adaptive counts exceeded the "
         "full-budget counts — canonical-prefix property violated");
  }
  const Json* reduction = metrics.find("reduction_ok");
  if (reduction == nullptr || !reduction->as_bool()) {
    fail("analysis_earlystop_accuracy mean reduction below the 5x floor");
  }
  const Json* intervals = metrics.find("intervals_total");
  if (intervals == nullptr || intervals->as_uint() == 0) {
    fail("analysis_earlystop_accuracy checked no intervals — the coverage "
         "check is vacuous");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <bench-binary-dir>\n", argv[0]);
    return 2;
  }
  const std::string bin_dir = argv[1];
  const std::string out_dir = "bench_smoke_out";
  std::system(("rm -rf " + out_dir + " && mkdir -p " + out_dir).c_str());

  // Google-benchmark binaries write their telemetry before the benchmark
  // loop; --benchmark_list_tests skips the (slow) measured iterations.
  struct Bench {
    const char* name;
    const char* extra_args;
  };
  const Bench benches[] = {
      {"table1_matrix", ""},
      {"table2_benchmarks", ""},
      {"fig10_sdc_coverage", ""},
      {"fig11_overhead", ""},
      {"ablation_batch", ""},
      {"ablation_spare", ""},
      {"ablation_storedata", ""},
      {"ablation_multibit", ""},
      {"pareto_selective", ""},
      {"detection_latency", ""},
      {"analysis_rootcause", ""},
      {"analysis_static_coverage", ""},
      {"analysis_flow_accuracy", ""},
      {"analysis_compose_accuracy", ""},
      {"analysis_earlystop_accuracy", ""},
      {"trial_ledger", ""},
      {"bench_pass_time", "--benchmark_list_tests=true"},
      {"bench_vm", "--benchmark_list_tests=true"},
      {"bench_service", ""},
  };
  for (const Bench& bench : benches) {
    std::printf("smoke: %s\n", bench.name);
    std::fflush(stdout);
    if (!run_bench(bin_dir + "/" + bench.name, out_dir, /*jobs=*/2,
                   bench.extra_args)) {
      continue;
    }
    check_artifact(out_dir, bench.name);
  }

  // Determinism: the metrics section must be byte-identical across
  // FERRUM_JOBS values. fig10 exercises the full campaign path.
  std::printf("smoke: fig10 determinism across FERRUM_JOBS\n");
  std::fflush(stdout);
  const std::string jobs1_dir = out_dir + "/jobs1";
  std::system(("mkdir -p " + jobs1_dir).c_str());
  if (run_bench(bin_dir + "/fig10_sdc_coverage", jobs1_dir, /*jobs=*/1)) {
    const auto jobs1 = load_json(jobs1_dir + "/BENCH_fig10_sdc_coverage.json");
    const auto jobs2 = load_json(out_dir + "/BENCH_fig10_sdc_coverage.json");
    if (jobs1.has_value() && jobs2.has_value()) {
      const Json* m1 = jobs1->find("metrics");
      const Json* m2 = jobs2->find("metrics");
      if (m1 == nullptr || m2 == nullptr) {
        fail("fig10 artifacts lack a metrics section");
      } else if (m1->dump() != m2->dump()) {
        fail("fig10 metrics differ between FERRUM_JOBS=1 and FERRUM_JOBS=2");
      }
    }
  }

  if (const auto fig11 = check_artifact(out_dir, "fig11_overhead");
      fig11.has_value()) {
    check_fig11_mechanism(*fig11);
  }

  if (auto coverage = check_artifact(out_dir, "analysis_static_coverage");
      coverage.has_value()) {
    check_static_coverage(*coverage);
  }

  if (const auto vm = check_artifact(out_dir, "bench_vm"); vm.has_value()) {
    check_bench_vm(*vm);
  }

  if (const auto pass_time = check_artifact(out_dir, "bench_pass_time");
      pass_time.has_value()) {
    check_pass_time(*pass_time);
  }

  if (const auto ledger = check_artifact(out_dir, "trial_ledger");
      ledger.has_value()) {
    check_trial_ledger(*ledger);
  }

  if (auto flow = check_artifact(out_dir, "analysis_flow_accuracy");
      flow.has_value()) {
    check_flow_accuracy(*flow);
  }

  if (auto compose = check_artifact(out_dir, "analysis_compose_accuracy");
      compose.has_value()) {
    check_compose_accuracy(*compose);
  }

  if (auto earlystop = check_artifact(out_dir, "analysis_earlystop_accuracy");
      earlystop.has_value()) {
    check_earlystop_accuracy(*earlystop);
  }

  // The service bench asserts its own cold/warm contract and exits
  // non-zero on violation; re-check the recorded verdict here so a
  // future edit that stops asserting is still caught.
  if (const auto service = check_artifact(out_dir, "bench_service");
      service.has_value()) {
    const Json* metrics = service->find("metrics");
    const Json* matches =
        metrics != nullptr ? metrics->find("warm_matches_cold") : nullptr;
    const Json* warm_trials =
        metrics != nullptr ? metrics->find("warm_trials_executed") : nullptr;
    if (matches == nullptr || !matches->as_bool()) {
      fail("bench_service warm pass not byte-identical to cold");
    }
    if (warm_trials == nullptr || warm_trials->as_uint() != 0) {
      fail("bench_service warm pass executed engine trials");
    }
    const Json* shared =
        metrics != nullptr ? metrics->find("golden_shared") : nullptr;
    if (shared == nullptr || !shared->as_bool()) {
      fail("bench_service did not share golden runs across same-program "
           "cells");
    }
    const Json* repeat =
        metrics != nullptr ? metrics->find("cold_reps_match") : nullptr;
    if (repeat == nullptr || !repeat->as_bool()) {
      fail("bench_service cold repetitions returned different bytes");
    }
    const Json* wallclock = service->find("wallclock");
    for (const char* key :
         {"cold_cells_per_second", "best_cold_cells_per_second", "reps"}) {
      if (wallclock == nullptr || wallclock->find(key) == nullptr) {
        fail(std::string("bench_service wallclock lacks ") + key);
      }
    }
  }

  if (failures == 0) std::printf("bench_smoke: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
