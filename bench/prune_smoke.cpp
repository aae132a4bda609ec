// prune_smoke — CI harness for the ferrum-prune injection-space pruning.
// Small enough for every ctest run (compact kernels, tiny campaigns), it
// checks the properties the big analysis_prune_accuracy bench measures at
// workload scale:
//
//   1. soundness  — every statically-dead (site, probe-bit) injection is
//      bit-identical to the golden run, and the pruned audit never
//      reports an escape the exhaustive audit does not;
//   2. determinism — pruned campaign and audit metrics are byte-identical
//      across FERRUM-style jobs values {1, 2, 8};
//   3. accounting — the pruned audit's exhaustive frame matches the
//      exhaustive audit (sites, injections), the prune counters add up,
//      and the reduction clears 3x on the unprotected kernel;
//   4. artifact   — BENCH_prune_smoke.json parses back with the required
//      schema keys and a prune section per cell.
//
// Registered as the `prune_smoke` ctest (also in the TSan preset suite).
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "check/prune.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/executor.h"
#include "pipeline/pipeline.h"
#include "support/parallel.h"
#include "telemetry/export.h"
#include "vm/engine.h"
#include "vm/vm.h"

using namespace ferrum;
using pipeline::Technique;

namespace {

int failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++failures;
}

const char* kKernels[][2] = {
    {"mixsum", R"MINIC(
      int seed = 7;
      int main() {
        int acc = 0;
        for (int r = 0; r < 2; r++) {
          for (int i = 0; i < 10; i++) {
            seed = (seed * 1103515245 + 12345) % 65536;
            if (seed < 0) seed = -seed;
            if (seed % 3 == 0) acc = acc + seed;
            else acc = acc - seed / 2;
          }
          print_int(acc);
        }
        return 0;
      })MINIC"},
    {"gcdchain", R"MINIC(
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
        for (int r = 0; r < 2; r++) {
          for (int i = 1; i < 7; i++) {
            acc = acc + gcd(90 + i * 7, 36 + i);
          }
        }
        print_int(acc);
        return 0;
      })MINIC"},
    {"newton", R"MINIC(
      int main() {
        double x = 7.0;
        for (int r = 0; r < 2; r++) {
          double guess = x / 2.0;
          for (int i = 0; i < 4; i++) {
            guess = (guess + x / guess) / 2.0;
          }
          print_f64(guess);
          x = x + 3.0;
        }
        return 0;
      })MINIC"},
};

/// Statically-dead probes must leave the run bit-identical to golden.
void check_dead_soundness(const std::string& name,
                          const masm::AsmProgram& program,
                          const check::prune::PruneReport& prune) {
  const vm::VmOptions vm_options;
  const fault::Golden golden(program, vm_options,
                             fault::GoldenRecord::kSiteMap);
  const vm::VmResult& want = golden.result;
  const auto& code = golden.decoded.code();
  const vm::VmOptions faulty = golden.faulty(vm_options);
  vm::Engine engine(golden.decoded, faulty);
  std::uint64_t checked = 0;
  for (std::uint64_t id = 0; id < want.fi_sites; ++id) {
    const vm::DecodedInst& d = code[static_cast<std::size_t>(
        golden.site_pcs[static_cast<std::size_t>(id)])];
    const int s = prune.site_index(d.fidx, d.bidx, d.iidx);
    if (s < 0) continue;
    const check::prune::PruneSite& site =
        prune.sites[static_cast<std::size_t>(s)];
    // Every dead bit of the site's bit space, not just the audit's probe
    // spread — this is the full dynamic liveness cross-check in miniature.
    for (int bit = 0; bit < site.bit_space; ++bit) {
      if (!site.bit_dead(bit)) continue;
      vm::FaultSpec spec;
      spec.site = id;
      spec.bit = bit;
      const vm::VmResult run = engine.run_from(golden.ckpts, faulty, &spec, 1);
      ++checked;
      if (run.status != want.status || run.output != want.output ||
          run.return_value != want.return_value ||
          run.steps != want.steps || run.fi_sites != want.fi_sites) {
        fail(name + ": dead bit diverged (site=" + std::to_string(id) +
             " bit=" + std::to_string(bit) + ")");
        return;
      }
    }
  }
  if (checked == 0) {
    fail(name + ": no statically-dead bits found — soundness check vacuous");
  }
}

std::string metrics_fingerprint(const telemetry::Json& audit_json,
                                const telemetry::Json& campaign_json) {
  return audit_json.dump() + "\n" + campaign_json.dump();
}

}  // namespace

int main() {
  benchutil::BenchReport report("prune_smoke");
  const Technique techniques[] = {Technique::kNone, Technique::kFerrum};
  double none_reduction = 0.0;

  for (const auto& kernel : kKernels) {
    const std::string name = kernel[0];
    for (Technique technique : techniques) {
      const std::string cell_name =
          name + "/" + pipeline::technique_name(technique);
      const auto build = pipeline::build(kernel[1], technique);
      const check::prune::PruneReport prune =
          check::prune::prune_program(build.program);

      // Prune counters must add up.
      std::uint64_t dead_bits = 0, total_bits = 0;
      for (const check::prune::PruneSite& site : prune.sites) {
        dead_bits += static_cast<std::uint64_t>(site.dead_bits());
        total_bits += static_cast<std::uint64_t>(site.bit_space);
      }
      if (dead_bits != prune.dead_bits || total_bits != prune.total_bits) {
        fail(cell_name + ": prune report counters disagree with site table");
      }

      check_dead_soundness(cell_name, build.program, prune);

      // Exhaustive vs pruned audit: identical frame, escape containment.
      fault::AuditOptions audit_options;
      audit_options.probe_bits = {0, 17, 63};
      audit_options.jobs = 2;
      const auto exhaustive =
          fault::audit_program(build.program, audit_options);
      audit_options.prune = &prune;
      const auto pruned = fault::audit_program(build.program, audit_options);
      if (pruned.sites != exhaustive.sites ||
          pruned.injections != exhaustive.injections) {
        fail(cell_name + ": pruned audit frame differs from exhaustive");
      }
      if (!pruned.prune.enabled || pruned.prune.pilot_injections == 0) {
        fail(cell_name + ": pruned audit ran no pilots");
      }
      if (pruned.prune.pilot_injections + pruned.prune.dead_probes +
              pruned.prune.extrapolated_probes !=
          pruned.injections) {
        fail(cell_name + ": prune probe accounting does not sum to the frame");
      }
      std::set<std::pair<std::uint64_t, int>> exhaustive_escapes;
      for (const fault::AuditEscape& escape : exhaustive.escapes) {
        exhaustive_escapes.insert({escape.site, escape.bit});
      }
      std::uint64_t invented = 0;
      for (const fault::AuditEscape& escape : pruned.escapes) {
        // Extrapolated escapes may over- or under-shoot within a class,
        // but a pilot's own (site, bit) must agree with the exhaustive
        // audit exactly.
        for (const fault::AuditPilot& pilot : pruned.prune.pilots) {
          if (pilot.site == escape.site && pilot.bit == escape.bit &&
              exhaustive_escapes.count({escape.site, escape.bit}) == 0) {
            ++invented;
          }
        }
      }
      if (invented != 0) {
        fail(cell_name + ": pilot escapes absent from the exhaustive audit");
      }
      if (technique == Technique::kNone && name == "mixsum") {
        none_reduction = pruned.prune.reduction;
      }

      // Jobs-invariance: pruned audit + campaign metrics byte-identical
      // across {1, 2, 8} workers.
      fault::CampaignOptions campaign_options;
      campaign_options.trials = 200;
      campaign_options.prune = &prune;
      std::string fingerprint;
      for (int jobs : {1, 2, 8}) {
        fault::AuditOptions jobs_audit = audit_options;
        jobs_audit.jobs = jobs;
        campaign_options.jobs = jobs;
        const auto audit_run =
            fault::audit_program(build.program, jobs_audit);
        const auto campaign_run =
            fault::run_campaign(build.program, campaign_options);
        const std::string fp = metrics_fingerprint(
            telemetry::to_json(audit_run), telemetry::to_json(campaign_run));
        if (fingerprint.empty()) {
          fingerprint = fp;
        } else if (fp != fingerprint) {
          fail(cell_name + ": pruned metrics differ at jobs=" +
               std::to_string(jobs));
        }
        if (jobs == 1) {
          if (!campaign_run.prune.enabled) {
            fail(cell_name + ": campaign prune stats missing");
          }
          if (campaign_run.trials() != campaign_options.trials) {
            fail(cell_name + ": pruned campaign lost trials");
          }
          telemetry::Json cell = telemetry::Json::object();
          cell["audit"] = telemetry::to_json(pruned);
          cell["campaign"] = telemetry::to_json(campaign_run);
          cell["sites"] = check::prune::to_json(prune, build.program);
          report.metrics()[name]
                          [pipeline::technique_name(technique)] = cell;
        }
      }
    }
  }

  if (none_reduction < 3.0) {
    fail("unprotected mixsum reduction " + std::to_string(none_reduction) +
         "x below the 3x floor");
  }
  report.metrics()["reduction_none_mixsum"] = none_reduction;
  report.metrics()["equivalence_ok"] = failures == 0;

  // Artifact round-trip: required schema keys and a prune section.
  const std::string path = report.write();
  if (path.empty()) {
    fail("artifact write failed");
  } else {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto json = telemetry::Json::parse(buffer.str());
    if (!json.has_value()) {
      fail("artifact does not parse back as JSON");
    } else {
      for (const char* key :
           {"bench", "schema_version", "metrics", "wallclock"}) {
        if (json->find(key) == nullptr) {
          fail("artifact lacks required key '" + std::string(key) + "'");
        }
      }
      const telemetry::Json* metrics = json->find("metrics");
      const telemetry::Json* mixsum =
          metrics == nullptr ? nullptr : metrics->find("mixsum");
      const telemetry::Json* cell =
          mixsum == nullptr ? nullptr : mixsum->find("none");
      const telemetry::Json* audit =
          cell == nullptr ? nullptr : cell->find("audit");
      if (audit == nullptr || audit->find("prune") == nullptr) {
        fail("artifact audit cell lacks a prune section");
      }
    }
  }

  if (failures == 0) std::printf("prune_smoke: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
