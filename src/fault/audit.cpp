#include "fault/audit.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

// Types and inline lookups only — the prune analysis itself runs in
// ferrum_check and reaches this layer as a const pointer, so ferrum_fault
// takes no link dependency on it (telemetry links fault back into check).
#include "check/prune.h"
#include "fault/prune_map.h"
#include "fault/step_budget.h"
#include "support/parallel.h"
#include "vm/engine.h"

namespace ferrum::fault {

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

/// Effective lockstep width for Engine::run_batch (mirrors the campaign
/// gate): timing/profile/trace audits stay scalar.
std::size_t batch_width(int batch, const vm::VmOptions& vm) {
  if (batch <= 1) return 1;
  if (vm.timing || vm.profile || vm.trace_limit != 0) return 1;
  return static_cast<std::size_t>(batch);
}

/// Class-extrapolated audit: one pilot injection per (class, effective
/// bit, stratum); every other live probe inherits its pilot's outcome,
/// dead probes are benign by the liveness proof. The report keeps the
/// exhaustive frame (injections/detected/... count every probe) so it is
/// directly comparable with audit_program without prune.
AuditReport audit_pruned(const masm::AsmProgram& program,
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
  const vm::PredecodedProgram decoded(program);
  const bool fast_forward = options.ckpt_stride > 0 && !options.vm.timing &&
                            !options.vm.profile &&
                            options.vm.trace_limit == 0;
  vm::CheckpointSet ckpts;
  vm::Engine golden_engine(decoded, options.vm);
  std::vector<std::int32_t> site_pcs;
  golden_engine.set_site_pc_sink(&site_pcs);
  const vm::VmResult golden =
      fast_forward
          ? golden_engine.run_capturing(
                options.vm,
                static_cast<std::uint64_t>(options.ckpt_stride), ckpts)
          : golden_engine.run(options.vm, nullptr, 0);
  golden_engine.set_site_pc_sink(nullptr);
  if (!golden.ok()) {
    throw std::runtime_error(std::string("audit golden run failed: ") +
                             vm::exit_status_name(golden.status));
  }

  AuditReport report;
  report.sites = golden.fi_sites;
  report.prune.enabled = true;
  report.prune.static_sites = prune.sites.size();
  report.prune.classes = prune.classes.size();
  report.prune.dead_fraction_static = prune.dead_fraction();

  // Dynamic site -> (static record, temporal stratum). The golden site
  // map makes this exact: site_pcs[id] is the pc that registered dynamic
  // site id.
  const std::size_t nsites = static_cast<std::size_t>(golden.fi_sites);
  const std::size_t nbits = options.probe_bits.size();
  const detail::DynSiteMap dyn =
      detail::map_dynamic_sites(decoded, site_pcs, prune, golden.fi_sites);
  const std::vector<std::int32_t>& dyn_static = dyn.static_site;
  const std::vector<std::uint32_t>& dyn_stratum = dyn.stratum;

  // Serial pilot plan: walk probes in (site, probe-bit) order; the first
  // probe of each pilot key becomes the pilot. Deterministic and
  // jobs-invariant by construction.
  struct Pilot {
    std::uint64_t site = 0;
    int bit = 0;
  };
  std::vector<Pilot> pilots;
  std::unordered_map<std::uint64_t, std::uint32_t> pilot_by_key;
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
      const std::uint64_t key = detail::pilot_key(
          site.class_id, bit % site.bit_space, dyn_stratum[id]);
      auto [it, inserted] = pilot_by_key.emplace(
          key, static_cast<std::uint32_t>(pilots.size()));
      if (inserted) pilots.push_back({id, bit});
      probe_pilot[probe] = static_cast<std::int32_t>(it->second);
    }
  }

  // Execute the pilots across the pool; per-pilot slots merge in pilot
  // order, so the report is identical for every jobs value.
  vm::VmOptions faulty = options.vm;
  faulty.max_steps = faulty_step_budget(golden.steps);
  std::vector<ProbeOutcome> outcomes(pilots.size(), ProbeOutcome::kBenign);
  std::vector<vm::FaultLanding> landings(pilots.size());
  ThreadPool pool(options.jobs);
  report.sites_per_worker.assign(static_cast<std::size_t>(pool.workers()), 0);
  std::vector<std::unique_ptr<vm::Engine>> engines(
      static_cast<std::size_t>(pool.workers()));
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t width = batch_width(options.batch, options.vm);
  pool.parallel_for_indexed(
      pilots.size(), [&](int worker, std::size_t begin, std::size_t end) {
        report.sites_per_worker[static_cast<std::size_t>(worker)] +=
            end - begin;
        auto& engine = engines[static_cast<std::size_t>(worker)];
        if (engine == nullptr) {
          engine = std::make_unique<vm::Engine>(decoded, faulty);
        }
        const auto record = [&](std::size_t p, const vm::VmResult& run) {
          if (run.status == vm::ExitStatus::kDetected) {
            outcomes[p] = ProbeOutcome::kDetected;
          } else if (!run.ok()) {
            outcomes[p] = ProbeOutcome::kCrashed;
          } else if (run.output == golden.output) {
            outcomes[p] = ProbeOutcome::kBenign;
          } else {
            outcomes[p] = ProbeOutcome::kSdc;
          }
          // Landing coordinates are kept for every outcome: the
          // site_outcomes tally needs them for unmatched pilots, not
          // just the SDC escapes.
          if (run.fault_landing.has_value()) {
            landings[p] = *run.fault_landing;
          }
        };
        if (width <= 1) {
          for (std::size_t p = begin; p < end; ++p) {
            vm::FaultSpec fault;
            fault.site = pilots[p].site;
            fault.bit = pilots[p].bit;
            const vm::VmResult run =
                fast_forward ? engine->run_from(ckpts, faulty, &fault, 1)
                             : engine->run(faulty, &fault, 1);
            record(p, run);
          }
          return;
        }
        // Lockstep over the pilot plan. The plan walks dynamic sites in
        // ascending order, so consecutive pilots already share a prefix
        // window — no per-chunk sort is needed here.
        std::vector<vm::FaultSpec> group(width);
        std::vector<vm::Engine::BatchTrial> lanes(width);
        std::vector<vm::VmResult> runs(width);
        for (std::size_t base = begin; base < end; base += width) {
          const std::size_t n = std::min(width, end - base);
          for (std::size_t lane = 0; lane < n; ++lane) {
            group[lane].site = pilots[base + lane].site;
            group[lane].bit = pilots[base + lane].bit;
            lanes[lane].faults = &group[lane];
            lanes[lane].fault_count = 1;
          }
          engine->run_batch(fast_forward ? &ckpts : nullptr, faulty,
                            lanes.data(), n, runs.data());
          for (std::size_t lane = 0; lane < n; ++lane) {
            record(base + lane, runs[lane]);
          }
        }
      });
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.ckpt.describe(ckpts, fast_forward);
  for (const auto& engine : engines) {
    if (engine != nullptr) report.ckpt.ff.merge(engine->stats());
  }

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
  if (options.prune != nullptr) return audit_pruned(program, options);
  const vm::PredecodedProgram decoded(program);

  const bool fast_forward = options.ckpt_stride > 0 && !options.vm.timing &&
                            !options.vm.profile &&
                            options.vm.trace_limit == 0;
  vm::CheckpointSet ckpts;

  vm::Engine golden_engine(decoded, options.vm);
  const vm::VmResult golden =
      fast_forward
          ? golden_engine.run_capturing(
                options.vm,
                static_cast<std::uint64_t>(options.ckpt_stride), ckpts)
          : golden_engine.run(options.vm, nullptr, 0);
  if (!golden.ok()) {
    throw std::runtime_error(std::string("audit golden run failed: ") +
                             vm::exit_status_name(golden.status));
  }
  AuditReport report;
  report.sites = golden.fi_sites;

  vm::VmOptions faulty = options.vm;
  faulty.max_steps = faulty_step_budget(golden.steps);

  // Strided site selection: slot i probes site i * stride. Stride 1 is
  // the exhaustive audit; larger strides keep the same per-probe
  // semantics over a deterministic subset of the site stream.
  const std::uint64_t stride =
      options.site_stride > 1 ? static_cast<std::uint64_t>(options.site_stride)
                              : 1;
  const std::size_t slots = static_cast<std::size_t>(
      golden.fi_sites == 0 ? 0 : (golden.fi_sites + stride - 1) / stride);

  // Every (site, bit) probe is independent: sweep the sites across the
  // pool into per-site partial reports, then merge them in site order so
  // the escape list comes out exactly as a serial sweep would produce it.
  struct SitePartial {
    std::uint64_t injections = 0;
    std::uint64_t detected = 0;
    std::uint64_t benign = 0;
    std::uint64_t crashed = 0;
    std::vector<AuditEscape> escapes;
    /// Every probe of a slot lands on the same static instruction (one
    /// dynamic site, one landing pc), so the slot carries one landing
    /// plus per-outcome counts for the site_outcomes tally.
    vm::FaultLanding landing;
    bool has_landing = false;
    std::array<std::uint64_t, kProbeOutcomeCount> outcome{};
  };
  std::vector<SitePartial> partials(slots);
  ThreadPool pool(options.jobs);
  report.sites_per_worker.assign(static_cast<std::size_t>(pool.workers()), 0);
  std::vector<std::unique_ptr<vm::Engine>> engines(
      static_cast<std::size_t>(pool.workers()));
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t width = batch_width(options.batch, options.vm);
  pool.parallel_for_indexed(
      slots, [&](int worker, std::size_t begin, std::size_t end) {
        report.sites_per_worker[static_cast<std::size_t>(worker)] +=
            end - begin;
        auto& engine = engines[static_cast<std::size_t>(worker)];
        if (engine == nullptr) {
          engine = std::make_unique<vm::Engine>(decoded, faulty);
        }
        const auto record = [&](std::size_t slot, std::uint64_t site, int bit,
                                const vm::VmResult& run) {
          SitePartial& partial = partials[slot];
          ++partial.injections;
          ProbeOutcome outcome;
          if (run.status == vm::ExitStatus::kDetected) {
            outcome = ProbeOutcome::kDetected;
            ++partial.detected;
          } else if (!run.ok()) {
            outcome = ProbeOutcome::kCrashed;
            ++partial.crashed;
          } else if (run.output == golden.output) {
            outcome = ProbeOutcome::kBenign;
            ++partial.benign;
          } else {
            outcome = ProbeOutcome::kSdc;
            AuditEscape escape;
            escape.site = site;
            escape.bit = bit;
            if (run.fault_landing.has_value()) {
              escape.kind = run.fault_landing->kind;
              escape.origin = run.fault_landing->origin;
              escape.op = run.fault_landing->op;
              escape.function = run.fault_landing->function;
              escape.block = run.fault_landing->block;
              escape.inst = run.fault_landing->inst;
            }
            partial.escapes.push_back(std::move(escape));
          }
          if (options.site_outcomes && run.fault_landing.has_value()) {
            if (!partial.has_landing) {
              partial.landing = *run.fault_landing;
              partial.has_landing = true;
            }
            ++partial.outcome[static_cast<std::size_t>(outcome)];
          }
        };
        if (width <= 1) {
          for (std::size_t slot = begin; slot < end; ++slot) {
            const std::uint64_t site = slot * stride;
            for (int bit : options.probe_bits) {
              vm::FaultSpec fault;
              fault.site = site;
              fault.bit = bit;
              const vm::VmResult run =
                  fast_forward ? engine->run_from(ckpts, faulty, &fault, 1)
                               : engine->run(faulty, &fault, 1);
              record(slot, site, bit, run);
            }
          }
          return;
        }
        // Lockstep over the chunk's flattened (site, bit) probes. The
        // flattening walks sites in ascending order, so one batch's
        // lanes cluster on neighbouring sites and share most of the
        // fault-free prefix walk. Probes still record into their own
        // site's partial — the site-order merge below is unchanged.
        const std::size_t nbits = options.probe_bits.size();
        const std::size_t nprobes = (end - begin) * nbits;
        std::vector<vm::FaultSpec> group(width);
        std::vector<vm::Engine::BatchTrial> lanes(width);
        std::vector<vm::VmResult> runs(width);
        for (std::size_t base = 0; base < nprobes; base += width) {
          const std::size_t n = std::min(width, nprobes - base);
          for (std::size_t lane = 0; lane < n; ++lane) {
            const std::size_t probe = base + lane;
            group[lane].site = (begin + probe / nbits) * stride;
            group[lane].bit = options.probe_bits[probe % nbits];
            lanes[lane].faults = &group[lane];
            lanes[lane].fault_count = 1;
          }
          engine->run_batch(fast_forward ? &ckpts : nullptr, faulty,
                            lanes.data(), n, runs.data());
          for (std::size_t lane = 0; lane < n; ++lane) {
            const std::size_t probe = base + lane;
            const std::size_t slot = begin + probe / nbits;
            record(slot, slot * stride, options.probe_bits[probe % nbits],
                   runs[lane]);
          }
        }
      });
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.ckpt.describe(ckpts, fast_forward);
  for (const auto& engine : engines) {
    if (engine != nullptr) report.ckpt.ff.merge(engine->stats());
  }

  // Merge in site order with one up-front reservation; the escape lists
  // splice over with bulk moves instead of element-by-element growth.
  std::size_t total_escapes = 0;
  for (const SitePartial& partial : partials) {
    total_escapes += partial.escapes.size();
  }
  report.escapes.reserve(total_escapes);
  for (SitePartial& partial : partials) {
    report.injections += partial.injections;
    report.detected += partial.detected;
    report.benign += partial.benign;
    report.crashed += partial.crashed;
    report.escapes.insert(report.escapes.end(),
                          std::make_move_iterator(partial.escapes.begin()),
                          std::make_move_iterator(partial.escapes.end()));
  }
  if (options.site_outcomes) {
    SiteOutcomeTally tally;
    for (const SitePartial& partial : partials) {
      if (!partial.has_landing) continue;
      for (int o = 0; o < kProbeOutcomeCount; ++o) {
        const std::uint64_t n = partial.outcome[static_cast<std::size_t>(o)];
        if (n == 0) continue;
        tally.add(partial.landing.function, partial.landing.block,
                  partial.landing.inst, partial.landing.kind,
                  static_cast<ProbeOutcome>(o), n);
      }
    }
    report.site_outcomes = tally.take();
  }
  return report;
}

}  // namespace ferrum::fault
