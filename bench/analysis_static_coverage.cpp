// Cross-validation of ferrum-check against the exhaustive dynamic audit:
// the checker promises that its kUnprotected classification
// over-approximates the dynamically reachable SDC surface, i.e. every
// fault the audit observes escaping as a silent data corruption landed on
// an (instruction, operand) site the checker reported unprotected.
//
// The audit is exhaustive (every dynamic FI site x probe bit), so this
// experiment runs on compact kernels rather than the full Table II
// workloads — small enough that sites x steps stays tractable, varied
// enough to exercise integer ALU, division, doubles, branches and calls.
//
// Per (kernel, technique) cell the table shows the static classification,
// the audit outcome, and the containment ratio:
//
//   containment = escapes landing on statically-unprotected sites
//                 / total escapes            (1.0 when no escapes)
//
// Anything below 1.0 is a checker soundness bug. The converse gap
// (unprotected sites that never produce an SDC) is expected — static
// over-approximation plus untoggled bits — and reported as `tightness`.
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "check/check.h"
#include "check/prune.h"
#include "fault/audit.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "vm/vm.h"

using namespace ferrum;
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
  };
}

using SiteKey = std::tuple<std::string, int, int, std::string>;

}  // namespace

int main() {
  const auto wall_start = std::chrono::steady_clock::now();
  const int scale = benchutil::env_scale();
  const int jobs = benchutil::env_jobs();
  benchutil::BenchReport report("analysis_static_coverage");
  report.metrics()["scale"] = scale;

  std::printf("Static coverage cross-validation — exhaustive audit vs "
              "ferrum-check (scale %d, %d worker(s))\n\n", scale, jobs);
  std::printf("%-10s %-10s | %6s %6s %6s | %8s %7s | %11s %9s\n", "kernel",
              "technique", "prot", "benign", "unprot", "inject", "escape",
              "containment", "tightness");
  benchutil::print_rule(96);

  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  std::uint64_t total_escapes = 0;
  std::uint64_t total_contained = 0;
  std::uint64_t total_dead_escapes = 0;
  for (const Kernel& kernel : kernels(scale)) {
    telemetry::Json kernel_json = telemetry::Json::object();
    for (Technique technique : techniques) {
      const auto build = pipeline::build(kernel.source, technique);
      const auto static_report = check::check_program(build.program);

      fault::AuditOptions audit_options;
      // The audit is quadratic (sites x steps), so the smoke scale
      // probes one mid-word bit; larger scales add sign and low bits.
      audit_options.probe_bits =
          scale <= 1 ? std::vector<int>{17} : std::vector<int>{0, 17, 63};
      audit_options.jobs = jobs;
      const auto audit = fault::audit_program(build.program, audit_options);

      // Containment: every dynamic SDC escape must land on a site the
      // checker classified unprotected (keyed by function, block, inst
      // and fault kind — the strings match by construction).
      std::set<SiteKey> unprotected;
      for (const check::SiteRecord& site : static_report.sites) {
        if (site.status == check::SiteStatus::kUnprotected) {
          unprotected.insert({site.function, site.block, site.inst,
                              check::site_kind_name(site.kind)});
        }
      }
      // Dead-escape containment (ferrum-prune soundness from the other
      // side): a bit the liveness analysis proves dead must never show up
      // as a dynamic SDC escape.
      const check::prune::PruneReport prune =
          check::prune::prune_program(build.program);
      std::uint64_t dead_escapes = 0;
      for (const fault::AuditEscape& escape : audit.escapes) {
        for (std::size_t f = 0; f < build.program.functions.size(); ++f) {
          if (build.program.functions[f].name != escape.function) continue;
          const check::prune::PruneSite* site = prune.find(
              static_cast<int>(f), escape.block, escape.inst);
          if (site != nullptr && site->bit_dead(escape.bit)) {
            ++dead_escapes;
            std::fprintf(stderr,
                         "dead-escape MISS: %s/%s escape at %s b%d#%d bit %d "
                         "is statically dead\n",
                         kernel.name, pipeline::technique_name(technique),
                         escape.function.c_str(), escape.block, escape.inst,
                         escape.bit);
          }
          break;
        }
      }
      std::uint64_t contained = 0;
      std::set<SiteKey> escaped_keys;
      for (const fault::AuditEscape& escape : audit.escapes) {
        const SiteKey key{escape.function, escape.block, escape.inst,
                          vm::fault_kind_name(escape.kind)};
        escaped_keys.insert(key);
        if (unprotected.count(key) != 0) {
          ++contained;
        } else {
          std::fprintf(stderr,
                       "containment MISS: %s/%s escape at %s b%d#%d (%s) "
                       "not statically unprotected\n",
                       kernel.name, pipeline::technique_name(technique),
                       escape.function.c_str(), escape.block, escape.inst,
                       vm::fault_kind_name(escape.kind));
        }
      }
      total_escapes += audit.escapes.size();
      total_contained += contained;
      total_dead_escapes += dead_escapes;
      const double containment =
          audit.escapes.empty()
              ? 1.0
              : static_cast<double>(contained) /
                    static_cast<double>(audit.escapes.size());
      // Tightness: what fraction of statically-unprotected sites did the
      // audit actually corrupt? Low values are expected for protected
      // techniques (the residue is crash- or benign-dominated).
      const double tightness =
          static_report.unprotected_sites == 0
              ? 1.0
              : static_cast<double>(escaped_keys.size()) /
                    static_cast<double>(static_report.unprotected_sites);

      std::printf("%-10s %-10s | %6llu %6llu %6llu | %8llu %7zu | %11.3f "
                  "%9.3f\n",
                  kernel.name, pipeline::technique_name(technique),
                  static_cast<unsigned long long>(
                      static_report.protected_sites),
                  static_cast<unsigned long long>(static_report.benign_sites),
                  static_cast<unsigned long long>(
                      static_report.unprotected_sites),
                  static_cast<unsigned long long>(audit.injections),
                  audit.escapes.size(), containment, tightness);

      telemetry::Json cell = telemetry::Json::object();
      cell["static"] = check::to_json(static_report);
      cell["audit"] = telemetry::to_json(audit);
      cell["contained_escapes"] = contained;
      cell["containment"] = containment;
      cell["tightness"] = tightness;
      cell["dead_escapes"] = dead_escapes;
      kernel_json[pipeline::technique_name(technique)] = cell;
    }
    report.metrics()["kernels"][kernel.name] = kernel_json;
  }
  benchutil::print_rule(96);
  const double agreement =
      total_escapes == 0 ? 1.0
                         : static_cast<double>(total_contained) /
                               static_cast<double>(total_escapes);
  std::printf("\nOverall agreement: %llu/%llu escapes statically "
              "unprotected (%.3f). Anything below 1.0 is a ferrum-check "
              "soundness bug.\n",
              static_cast<unsigned long long>(total_contained),
              static_cast<unsigned long long>(total_escapes), agreement);
  std::printf("Dead-escape containment: %llu escapes on statically-dead "
              "bits (anything above 0 is a ferrum-prune soundness bug).\n",
              static_cast<unsigned long long>(total_dead_escapes));
  report.metrics()["total_escapes"] = total_escapes;
  report.metrics()["contained_escapes"] = total_contained;
  report.metrics()["agreement"] = agreement;
  report.metrics()["dead_escape_misses"] = total_dead_escapes;
  report.wallclock()["wall_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.write();
  return 0;
}
