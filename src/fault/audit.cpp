#include "fault/audit.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>

// Types and inline lookups only — the prune analysis itself runs in
// ferrum_check and reaches this layer as a const pointer, so ferrum_fault
// takes no link dependency on it (telemetry links fault back into check).
#include "check/prune.h"
#include "fault/executor.h"
#include "fault/prune_map.h"
#include "vm/engine.h"

namespace ferrum::fault {

ProbeOutcome probe_outcome(const vm::VmResult& run,
                           const std::vector<std::uint64_t>& golden_output) {
  if (run.status == vm::ExitStatus::kDetected) return ProbeOutcome::kDetected;
  if (!run.ok()) return ProbeOutcome::kCrashed;
  return run.output == golden_output ? ProbeOutcome::kBenign
                                     : ProbeOutcome::kSdc;
}

namespace {

/// Deterministically-ordered accumulator for AuditOptions::site_outcomes:
/// static coordinates -> per-outcome probe counts.
class SiteOutcomeTally {
 public:
  void add(const std::string& function, int block, int inst,
           vm::FaultKind kind, ProbeOutcome outcome, std::uint64_t n = 1) {
    SiteOutcome& entry = map_[std::make_tuple(function, block, inst,
                                              static_cast<int>(kind))];
    if (entry.function.empty()) {
      entry.function = function;
      entry.block = block;
      entry.inst = inst;
      entry.kind = kind;
    }
    entry.count[static_cast<std::size_t>(outcome)] += n;
  }

  std::vector<SiteOutcome> take() {
    std::vector<SiteOutcome> out;
    out.reserve(map_.size());
    for (auto& [key, entry] : map_) out.push_back(std::move(entry));
    map_.clear();
    return out;
  }

 private:
  std::map<std::tuple<std::string, int, int, int>, SiteOutcome> map_;
};

/// Class-extrapolated audit: one pilot injection per (class, effective
/// bit, stratum); every other live probe inherits its pilot's outcome,
/// dead probes are benign by the liveness proof. The report keeps the
/// exhaustive frame (injections/detected/... count every probe) so it is
/// directly comparable with audit_program without prune.
AuditReport audit_pruned(const Golden& golden, const vm::VmOptions& faulty,
                         const AuditOptions& options) {
  const check::prune::PruneReport& prune = *options.prune;
  if (prune.store_data_sites != options.vm.fault_store_data) {
    throw std::invalid_argument(
        "prune report store_data_sites must match vm.fault_store_data");
  }
  if (options.site_stride > 1) {
    throw std::invalid_argument(
        "site_stride is a subsampling knob for exhaustive sweeps; the "
        "pruned audit extrapolates from pilots and cannot stride");
  }
  const masm::AsmProgram& program = golden.decoded.source();
  const vm::VmResult& golden_run = golden.result;

  AuditReport report;
  report.sites = golden_run.fi_sites;
  report.prune.enabled = true;
  report.prune.static_sites = prune.sites.size();
  report.prune.classes = prune.classes.size();
  report.prune.dead_fraction_static = prune.dead_fraction();

  // Dynamic site -> (static record, temporal stratum). The golden site
  // map makes this exact: site_pcs[id] is the pc that registered dynamic
  // site id.
  const std::size_t nsites = static_cast<std::size_t>(golden_run.fi_sites);
  const std::size_t nbits = options.probe_bits.size();
  const detail::DynSiteMap dyn = detail::map_dynamic_sites(
      golden.decoded, golden.site_pcs, prune, golden_run.fi_sites);
  const std::vector<std::int32_t>& dyn_static = dyn.static_site;
  const std::vector<std::uint32_t>& dyn_stratum = dyn.stratum;

  // Serial pilot plan: walk probes in (site, probe-bit) order; the first
  // probe of each (class, effective bit, stratum) key becomes the pilot.
  // Deterministic and jobs-invariant by construction. A class's strata
  // never decrease along the site order (StratumCounter), so the probes
  // of one key come one after another among its (class, bit)'s probes:
  // a table entry per (class, effective bit) holding the last stratum
  // seen and its pilot finds every key's pilot.
  struct PilotSlot {
    std::uint32_t stratum = 0;
    std::int32_t pilot = -1;
  };
  // An effective bit is at most its probe bit and below bit_space, which
  // is at most 256 (a ymm site).
  int max_bit = 0;
  for (const int bit : options.probe_bits) max_bit = std::max(max_bit, bit);
  const std::size_t bit_slots =
      static_cast<std::size_t>(std::min(max_bit + 1, 256));
  std::vector<PilotSlot> pilot_slots(prune.classes.size() * bit_slots);
  std::vector<vm::FaultSpec> pilots;
  std::vector<std::int32_t> probe_pilot(nsites * nbits, -1);
  for (std::size_t id = 0; id < nsites; ++id) {
    const std::int32_t s = dyn_static[id];
    for (std::size_t k = 0; k < nbits; ++k) {
      const int bit = options.probe_bits[k];
      const std::size_t probe = id * nbits + k;
      if (s < 0) {
        // No static record: sound fallback, inject this probe itself.
        probe_pilot[probe] = static_cast<std::int32_t>(pilots.size());
        pilots.push_back({id, bit});
        ++report.prune.unmatched_probes;
        continue;
      }
      const check::prune::PruneSite& site =
          prune.sites[static_cast<std::size_t>(s)];
      if (site.bit_dead(bit)) continue;  // stays -1: provably benign
      PilotSlot& slot =
          pilot_slots[site.class_id * bit_slots +
                      static_cast<std::size_t>(bit % site.bit_space)];
      if (slot.pilot < 0 || slot.stratum != dyn_stratum[id]) {
        slot.stratum = dyn_stratum[id];
        slot.pilot = static_cast<std::int32_t>(pilots.size());
        pilots.push_back({id, bit});
      }
      probe_pilot[probe] = slot.pilot;
    }
  }

  // Execute the pilots across the pool; per-pilot slots merge in pilot
  // order, so the report is identical for every jobs value.
  std::vector<ProbeOutcome> outcomes(pilots.size(), ProbeOutcome::kBenign);
  std::vector<vm::FaultLanding> landings(pilots.size());
  TrialExecutor executor(golden, faulty, options.jobs);
  executor.run(pilots, [&](std::size_t p, const vm::VmResult& run) {
    outcomes[p] = probe_outcome(run, golden_run.output);
    // Landing coordinates are kept for every outcome: the site_outcomes
    // tally needs them for unmatched pilots, not just the SDC escapes.
    if (run.fault_landing.has_value()) landings[p] = *run.fault_landing;
  });
  report.sites_per_worker = executor.trials_per_worker();
  report.wall_seconds = executor.wall_seconds();
  report.ckpt = executor.telemetry();

  // Extrapolate in probe order. Escape coordinates are exact — each
  // probe's own static record, not the pilot's — only the outcome is
  // inherited from the pilot.
  SiteOutcomeTally tally;
  for (std::size_t id = 0; id < nsites; ++id) {
    const std::int32_t s = dyn_static[id];
    for (std::size_t k = 0; k < nbits; ++k) {
      const int bit = options.probe_bits[k];
      const std::int32_t p = probe_pilot[id * nbits + k];
      const auto tally_probe = [&](ProbeOutcome outcome) {
        if (!options.site_outcomes) return;
        if (s >= 0) {
          const check::prune::PruneSite& site =
              prune.sites[static_cast<std::size_t>(s)];
          tally.add(
              program.functions[static_cast<std::size_t>(site.function)].name,
              site.block, site.inst, site.kind, outcome);
        } else if (p >= 0 &&
                   !landings[static_cast<std::size_t>(p)].function.empty()) {
          const vm::FaultLanding& landing =
              landings[static_cast<std::size_t>(p)];
          tally.add(landing.function, landing.block, landing.inst,
                    landing.kind, outcome);
        }
      };
      ++report.injections;
      if (p < 0) {
        ++report.benign;
        ++report.prune.dead_probes;
        tally_probe(ProbeOutcome::kBenign);
        continue;
      }
      tally_probe(outcomes[static_cast<std::size_t>(p)]);
      const bool is_pilot = pilots[static_cast<std::size_t>(p)].site == id &&
                            pilots[static_cast<std::size_t>(p)].bit == bit;
      if (!is_pilot) ++report.prune.extrapolated_probes;
      switch (outcomes[static_cast<std::size_t>(p)]) {
        case ProbeOutcome::kDetected:
          ++report.detected;
          break;
        case ProbeOutcome::kCrashed:
          ++report.crashed;
          break;
        case ProbeOutcome::kBenign:
          ++report.benign;
          break;
        case ProbeOutcome::kSdc: {
          AuditEscape escape;
          escape.site = id;
          escape.bit = bit;
          if (s >= 0) {
            const check::prune::PruneSite& site =
                prune.sites[static_cast<std::size_t>(s)];
            const auto& fn =
                program.functions[static_cast<std::size_t>(site.function)];
            const masm::AsmInst& inst =
                fn.blocks[static_cast<std::size_t>(site.block)]
                    .insts[static_cast<std::size_t>(site.inst)];
            escape.kind = site.kind;
            escape.origin = inst.origin;
            escape.op = inst.op;
            escape.function = fn.name;
            escape.block = site.block;
            escape.inst = site.inst;
          } else {
            const vm::FaultLanding& landing =
                landings[static_cast<std::size_t>(p)];
            escape.kind = landing.kind;
            escape.origin = landing.origin;
            escape.op = landing.op;
            escape.function = landing.function;
            escape.block = landing.block;
            escape.inst = landing.inst;
          }
          report.escapes.push_back(std::move(escape));
          break;
        }
      }
    }
  }
  report.prune.pilot_keys = pilots.size();
  report.prune.pilot_injections = pilots.size();
  report.prune.reduction =
      pilots.empty() ? 1.0
                     : static_cast<double>(report.injections) /
                           static_cast<double>(pilots.size());
  report.prune.pilots.reserve(pilots.size());
  for (std::size_t p = 0; p < pilots.size(); ++p) {
    report.prune.pilots.push_back({pilots[p].site, pilots[p].bit, outcomes[p]});
  }
  if (options.site_outcomes) report.site_outcomes = tally.take();
  return report;
}

}  // namespace

AuditReport audit_program(const masm::AsmProgram& program,
                          const AuditOptions& options) {
  return audit_program(Golden(program, options.vm,
                              options.prune != nullptr
                                  ? GoldenRecord::kSiteMap
                                  : GoldenRecord::kNothing),
                       options);
}

AuditReport audit_program(const Golden& golden, const AuditOptions& options) {
  const vm::VmOptions faulty = golden.faulty(options.vm);
  if (options.prune != nullptr) {
    if (golden.record == GoldenRecord::kNothing) {
      throw std::invalid_argument(
          "audit prune mode needs a golden run with the site map");
    }
    return audit_pruned(golden, faulty, options);
  }
  const vm::VmResult& golden_run = golden.result;
  AuditReport report;
  report.sites = golden_run.fi_sites;

  // Strided site selection: slot i probes site i * stride. Stride 1 is
  // the exhaustive audit; larger strides keep the same per-probe
  // semantics over a deterministic subset of the site stream.
  const std::uint64_t stride =
      options.site_stride > 1 ? static_cast<std::uint64_t>(options.site_stride)
                              : 1;
  const std::size_t slots = static_cast<std::size_t>(
      golden_run.fi_sites == 0 ? 0
                               : (golden_run.fi_sites + stride - 1) / stride);

  // Every (site, bit) probe is independent: run them across the pool,
  // each writing only its own outcome slot, then merge in site order so
  // the escape list comes out exactly as a serial sweep would produce it.
  // Every probe of one dynamic site lands on the same instruction (the
  // prefix before the site is golden), so the first probe of each site
  // records the landing for all of them.
  const std::size_t nbits = options.probe_bits.size();
  std::vector<vm::FaultSpec> probes(slots * nbits);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i].site = i / nbits * stride;
    probes[i].bit = options.probe_bits[i % nbits];
  }
  std::vector<ProbeOutcome> outcomes(probes.size(), ProbeOutcome::kBenign);
  std::vector<std::optional<vm::FaultLanding>> landings(slots);
  TrialExecutor executor(golden, faulty, options.jobs);
  executor.run(probes, [&](std::size_t i, const vm::VmResult& run) {
    outcomes[i] = probe_outcome(run, golden_run.output);
    if (i % nbits == 0) landings[i / nbits] = run.fault_landing;
  });
  report.sites_per_worker = executor.trials_per_worker();
  report.wall_seconds = executor.wall_seconds();
  report.ckpt = executor.telemetry();

  SiteOutcomeTally tally;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::optional<vm::FaultLanding>& landing = landings[i / nbits];
    ++report.injections;
    switch (outcomes[i]) {
      case ProbeOutcome::kDetected:
        ++report.detected;
        break;
      case ProbeOutcome::kCrashed:
        ++report.crashed;
        break;
      case ProbeOutcome::kBenign:
        ++report.benign;
        break;
      case ProbeOutcome::kSdc: {
        AuditEscape escape;
        escape.site = probes[i].site;
        escape.bit = probes[i].bit;
        if (landing.has_value()) {
          escape.kind = landing->kind;
          escape.origin = landing->origin;
          escape.op = landing->op;
          escape.function = landing->function;
          escape.block = landing->block;
          escape.inst = landing->inst;
        }
        report.escapes.push_back(std::move(escape));
        break;
      }
    }
    if (options.site_outcomes && landing.has_value()) {
      tally.add(landing->function, landing->block, landing->inst,
                landing->kind, outcomes[i]);
    }
  }
  if (options.site_outcomes) report.site_outcomes = tally.take();
  return report;
}

}  // namespace ferrum::fault
