// Cross-validation of ferrum-flow against the exhaustive dynamic audit:
// the flow analysis predicts a four-way outcome for every static fault
// site (masked / detected / crash-prone / sdc-vulnerable), and its
// one-directional soundness contract (DESIGN.md "flow") says the two
// predicted-safe buckets must never produce a dynamic SDC. Concretely:
//
//   containment = escapes landing on predicted sdc-vulnerable or
//                 crash-prone sites / total escapes   (1.0 when none)
//
// asserted at exactly 1.000 over 8 kernels x 4 techniques — the process
// exits non-zero on any miss, so the ctest/CI wiring turns a flow
// soundness bug into a red run. Crash-prone stays inside the containment
// union because a corrupted branch decision or address can silently
// alter output as well as crash.
//
// The converse direction is *reported*, not asserted: precision is the
// fraction of predicted-sdc-vulnerable sites the audit actually
// corrupted at least once, over the predicted-vulnerable sites it
// exercised at all (AuditOptions::site_outcomes supplies the per-site
// outcome tallies). Precision < 1 is expected — memory is untracked, so
// every store is treated as a potential output path — but reporting it
// keeps the prediction falsifiable instead of vacuous.
//
// Like analysis_static_coverage, the audit is exhaustive (sites x probe
// bits), so the workloads are compact kernels: integer ALU, division,
// doubles, arrays, branches and calls are all represented.
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "check/flow.h"
#include "fault/audit.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "vm/vm.h"

using namespace ferrum;
using check::flow::Prediction;
using pipeline::Technique;

namespace {

struct Kernel {
  const char* name;
  std::string source;
};

std::string with_reps(const char* text, int reps) {
  std::string source(text);
  const std::string token = "%REPS%";
  const std::size_t pos = source.find(token);
  if (pos != std::string::npos) {
    source.replace(pos, token.size(), std::to_string(reps));
  }
  return source;
}

std::vector<Kernel> kernels(int scale) {
  return {
      {"mixsum", with_reps(R"MINIC(
        int seed = 7;
        int main() {
          int acc = 0;
          for (int r = 0; r < %REPS%; r++) {
            for (int i = 0; i < 10; i++) {
              seed = (seed * 1103515245 + 12345) % 65536;
              if (seed < 0) seed = -seed;
              if (seed % 3 == 0) acc = acc + seed;
              else acc = acc - seed / 2;
            }
            print_int(acc);
          }
          return 0;
        })MINIC", scale)},
      {"gcdchain", with_reps(R"MINIC(
        int gcd(int a, int b) {
          while (b != 0) {
            int t = a % b;
            a = b;
            b = t;
          }
          return a;
        }
        int main() {
          int acc = 0;
          for (int r = 0; r < %REPS%; r++) {
            for (int i = 1; i < 7; i++) {
              acc = acc + gcd(90 + i * 7, 36 + i);
            }
          }
          print_int(acc);
          return 0;
        })MINIC", scale)},
      {"newton", with_reps(R"MINIC(
        int main() {
          double x = 7.0;
          for (int r = 0; r < %REPS%; r++) {
            double guess = x / 2.0;
            for (int i = 0; i < 4; i++) {
              guess = (guess + x / guess) / 2.0;
            }
            print_f64(guess);
            x = x + 3.0;
          }
          return 0;
        })MINIC", scale)},
      {"argmax", with_reps(R"MINIC(
        int data[8];
        int main() {
          int seed = 3;
          for (int r = 0; r < %REPS%; r++) {
            for (int i = 0; i < 8; i++) {
              seed = (seed * 75 + 74) % 65537;
              data[i] = seed % 100;
            }
            int best = 0;
            for (int i = 1; i < 8; i++) {
              if (data[i] > data[best]) best = i;
            }
            print_int(best);
            print_int(data[best]);
          }
          return 0;
        })MINIC", scale)},
      {"dotprod", with_reps(R"MINIC(
        double a[6];
        double b[6];
        int main() {
          for (int r = 0; r < %REPS%; r++) {
            for (int i = 0; i < 6; i++) {
              a[i] = (double)(i + r + 1) / 3.0;
              b[i] = (double)(i * 2 + 1) / 5.0;
            }
            double dot = 0.0;
            for (int i = 0; i < 6; i++) {
              dot = dot + a[i] * b[i];
            }
            print_f64(dot);
          }
          return 0;
        })MINIC", scale)},
      {"histogram", with_reps(R"MINIC(
        int bins[5];
        int main() {
          int seed = 11;
          for (int i = 0; i < 5; i++) bins[i] = 0;
          for (int r = 0; r < %REPS%; r++) {
            for (int i = 0; i < 12; i++) {
              seed = (seed * 137 + 29) % 10007;
              bins[seed % 5] = bins[seed % 5] + 1;
            }
          }
          for (int i = 0; i < 5; i++) print_int(bins[i]);
          return 0;
        })MINIC", scale)},
      {"collatz", with_reps(R"MINIC(
        int steps(int n) {
          int count = 0;
          while (n != 1) {
            if (n % 2 == 0) n = n / 2;
            else n = 3 * n + 1;
            count = count + 1;
          }
          return count;
        }
        int main() {
          int longest = 0;
          for (int r = 0; r < %REPS%; r++) {
            for (int n = 2; n < 12; n++) {
              int c = steps(n + r);
              if (c > longest) longest = c;
            }
          }
          print_int(longest);
          return longest;
        })MINIC", scale)},
      {"matvec", with_reps(R"MINIC(
        int m[12];
        int v[4];
        int out[3];
        int main() {
          int seed = 5;
          for (int r = 0; r < %REPS%; r++) {
            for (int i = 0; i < 12; i++) {
              seed = (seed * 61 + 17) % 1009;
              m[i] = seed % 9 - 4;
            }
            for (int i = 0; i < 4; i++) v[i] = i + r;
            for (int i = 0; i < 3; i++) {
              int acc = 0;
              for (int j = 0; j < 4; j++) {
                acc = acc + m[i * 4 + j] * v[j];
              }
              out[i] = acc;
            }
            for (int i = 0; i < 3; i++) print_int(out[i]);
          }
          return 0;
        })MINIC", scale)},
  };
}

using SiteKey = std::tuple<std::string, int, int, std::string>;

const char* short_prediction(Prediction p) {
  switch (p) {
    case Prediction::kMasked: return "mask";
    case Prediction::kDetected: return "det";
    case Prediction::kCrashProne: return "crash";
    case Prediction::kSdcVulnerable: return "vuln";
  }
  return "?";
}

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int scale = benchutil::env_scale();
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("analysis_flow_accuracy");
  report.metrics()["scale"] = scale;

  std::printf("Flow-prediction cross-validation — exhaustive audit vs "
              "ferrum-flow (scale %d, %d worker(s))\n\n", scale, jobs);
  std::printf("%-10s %-10s | %5s %5s %5s %5s | %7s %7s | %11s %9s\n",
              "kernel", "technique", "mask", "det", "crash", "vuln",
              "inject", "escape", "containment", "precision");
  benchutil::print_rule(98);

  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  std::uint64_t total_injections = 0;
  std::uint64_t total_escapes = 0;
  std::uint64_t total_contained = 0;
  std::uint64_t total_vuln_hit = 0;
  std::uint64_t total_vuln_exercised = 0;
  std::uint64_t total_safe_sdc_sites = 0;
  for (const Kernel& kernel : kernels(scale)) {
    telemetry::Json kernel_json = telemetry::Json::object();
    for (Technique technique : techniques) {
      const auto build = pipeline::build(kernel.source, technique);
      const check::flow::FlowReport flow =
          check::flow::flow_program(build.program);

      fault::AuditOptions audit_options;
      // Same quadratic-cost gating as analysis_static_coverage: the
      // smoke scale probes one mid-word bit, larger scales spread.
      audit_options.probe_bits =
          scale <= 1 ? std::vector<int>{17} : std::vector<int>{0, 17, 63};
      audit_options.jobs = jobs;
      audit_options.site_outcomes = true;
      const auto audit = fault::audit_program(build.program, audit_options);

      // Index the predictions by the coordinates the audit reports
      // (function name, block, inst, kind string — identical strings by
      // construction, all three tables share fault_site_kind_name).
      std::map<SiteKey, Prediction> predicted;
      for (const check::flow::FlowSite& site : flow.sites) {
        predicted.emplace(
            SiteKey{build.program.functions[
                        static_cast<std::size_t>(site.function)].name,
                    site.block, site.inst,
                    masm::fault_site_kind_name(site.kind)},
            site.prediction);
      }

      // Containment: every dynamic SDC escape must land on a site
      // predicted sdc-vulnerable or crash-prone. An escape on a
      // predicted-safe site (or on no flow site at all) is a flow
      // soundness bug and fails the bench.
      std::uint64_t contained = 0;
      for (const fault::AuditEscape& escape : audit.escapes) {
        const SiteKey key{escape.function, escape.block, escape.inst,
                          vm::fault_kind_name(escape.kind)};
        const auto it = predicted.find(key);
        if (it != predicted.end() &&
            (it->second == Prediction::kSdcVulnerable ||
             it->second == Prediction::kCrashProne)) {
          ++contained;
        } else {
          std::fprintf(stderr,
                       "containment MISS: %s/%s escape at %s b%d#%d (%s) "
                       "predicted %s\n",
                       kernel.name, pipeline::technique_name(technique),
                       escape.function.c_str(), escape.block, escape.inst,
                       vm::fault_kind_name(escape.kind),
                       it == predicted.end()
                           ? "<no site>"
                           : check::flow::prediction_name(it->second));
        }
      }

      // Precision over the sites the audit exercised: of the
      // predicted-sdc-vulnerable sites with at least one probe, how many
      // produced at least one SDC? Also re-check the safe buckets from
      // the tally side — a masked/detected site with an SDC probe is the
      // same soundness bug as a containment miss, caught even when the
      // escape list was truncated upstream.
      std::uint64_t vuln_exercised = 0;
      std::uint64_t vuln_hit = 0;
      std::uint64_t safe_sdc_sites = 0;
      for (const fault::SiteOutcome& site : audit.site_outcomes) {
        const SiteKey key{site.function, site.block, site.inst,
                          vm::fault_kind_name(site.kind)};
        const auto it = predicted.find(key);
        if (it == predicted.end()) continue;
        const bool saw_sdc = site.of(fault::ProbeOutcome::kSdc) > 0;
        if (it->second == Prediction::kSdcVulnerable) {
          ++vuln_exercised;
          if (saw_sdc) ++vuln_hit;
        } else if (saw_sdc && (it->second == Prediction::kMasked ||
                               it->second == Prediction::kDetected)) {
          ++safe_sdc_sites;
          std::fprintf(stderr,
                       "safe-bucket MISS: %s/%s site %s b%d#%d (%s) "
                       "predicted %s but produced an SDC\n",
                       kernel.name, pipeline::technique_name(technique),
                       site.function.c_str(), site.block, site.inst,
                       vm::fault_kind_name(site.kind),
                       check::flow::prediction_name(it->second));
        }
      }

      total_injections += audit.injections;
      total_escapes += audit.escapes.size();
      total_contained += contained;
      total_vuln_hit += vuln_hit;
      total_vuln_exercised += vuln_exercised;
      total_safe_sdc_sites += safe_sdc_sites;
      const double containment =
          audit.escapes.empty()
              ? 1.0
              : static_cast<double>(contained) /
                    static_cast<double>(audit.escapes.size());
      const double precision =
          vuln_exercised == 0 ? 1.0
                              : static_cast<double>(vuln_hit) /
                                    static_cast<double>(vuln_exercised);

      std::printf(
          "%-10s %-10s | %5llu %5llu %5llu %5llu | %7llu %7zu | %11.3f "
          "%9.3f\n",
          kernel.name, pipeline::technique_name(technique),
          static_cast<unsigned long long>(flow.profile.of(
              Prediction::kMasked)),
          static_cast<unsigned long long>(flow.profile.of(
              Prediction::kDetected)),
          static_cast<unsigned long long>(flow.profile.of(
              Prediction::kCrashProne)),
          static_cast<unsigned long long>(flow.profile.of(
              Prediction::kSdcVulnerable)),
          static_cast<unsigned long long>(audit.injections),
          audit.escapes.size(), containment, precision);

      telemetry::Json cell = telemetry::Json::object();
      cell["flow"] = check::flow::to_json(flow, build.program);
      cell["audit"] = telemetry::to_json(audit);
      cell["contained_escapes"] = contained;
      cell["containment"] = containment;
      cell["vulnerable_exercised"] = vuln_exercised;
      cell["vulnerable_hit"] = vuln_hit;
      cell["precision"] = precision;
      cell["safe_sdc_sites"] = safe_sdc_sites;
      kernel_json[pipeline::technique_name(technique)] = cell;
      (void)short_prediction;
    }
    report.metrics()["kernels"][kernel.name] = kernel_json;
  }
  benchutil::print_rule(98);
  const double containment =
      total_escapes == 0 ? 1.0
                         : static_cast<double>(total_contained) /
                               static_cast<double>(total_escapes);
  const double precision =
      total_vuln_exercised == 0
          ? 1.0
          : static_cast<double>(total_vuln_hit) /
                static_cast<double>(total_vuln_exercised);
  std::printf("\nOverall containment: %llu/%llu escapes predicted "
              "vulnerable-or-crash-prone (%.3f). Anything below 1.000 is "
              "a ferrum-flow soundness bug.\n",
              static_cast<unsigned long long>(total_contained),
              static_cast<unsigned long long>(total_escapes), containment);
  std::printf("Overall precision: %llu/%llu exercised predicted-vulnerable "
              "sites produced an SDC (%.3f) — expected < 1, reported so "
              "the prediction stays falsifiable.\n",
              static_cast<unsigned long long>(total_vuln_hit),
              static_cast<unsigned long long>(total_vuln_exercised),
              precision);
  report.metrics()["total_escapes"] = total_escapes;
  report.metrics()["contained_escapes"] = total_contained;
  report.metrics()["containment"] = containment;
  report.metrics()["vulnerable_exercised"] = total_vuln_exercised;
  report.metrics()["vulnerable_hit"] = total_vuln_hit;
  report.metrics()["precision"] = precision;
  report.metrics()["safe_sdc_sites"] = total_safe_sdc_sites;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.wallclock()["wall_seconds"] = wall_seconds;
  // Throughput for the baselines tripwire (scripts/bench_diff.py):
  // includes every audit probe across the 32 cells.
  report.wallclock()["injections_per_second"] =
      wall_seconds > 0.0 ? static_cast<double>(total_injections) /
                               wall_seconds
                         : 0.0;
  report.write();
  const bool sound =
      total_contained == total_escapes && total_safe_sdc_sites == 0;
  if (!sound) {
    std::fprintf(stderr, "\nFAIL: flow containment below 1.000\n");
  }
  return sound ? 0 : 1;
}
