#include "fault/campaign.h"

#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>

// Types and inline lookups only — see fault/prune_map.h for why this adds
// no link dependency on ferrum_check.
#include "check/prune.h"
#include "fault/audit.h"
#include "fault/executor.h"
#include "fault/prune_map.h"
#include "support/rng.h"
#include "vm/engine.h"

namespace ferrum::fault {

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kBenign: return "benign";
    case Outcome::kSdc: return "sdc";
    case Outcome::kDetected: return "detected";
    case Outcome::kCrash: return "crash";
  }
  return "?";
}

double CampaignResult::sdc_rate() const {
  const int total = trials();
  if (total == 0) return 0.0;
  return static_cast<double>(count(Outcome::kSdc)) / total;
}

std::pair<double, double> wilson_interval(int successes, int trials) {
  if (trials <= 0) return {0.0, 1.0};
  const double z = 1.959963985;  // 97.5th normal percentile
  const double n = trials;
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  const double lo = centre - margin;
  const double hi = centre + margin;
  return {lo < 0.0 ? 0.0 : lo, hi > 1.0 ? 1.0 : hi};
}

std::pair<double, double> CampaignResult::sdc_rate_ci() const {
  return wilson_interval(count(Outcome::kSdc), trials());
}

namespace {

Outcome campaign_outcome(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kDetected: return Outcome::kDetected;
    case ProbeOutcome::kCrashed: return Outcome::kCrash;
    case ProbeOutcome::kBenign: return Outcome::kBenign;
    case ProbeOutcome::kSdc: return Outcome::kSdc;
  }
  return Outcome::kCrash;
}

struct TrialSlot {
  Outcome outcome = Outcome::kBenign;
  std::optional<std::uint64_t> latency;
  std::optional<vm::FaultLanding> sdc_landing;
};

void record_trial(TrialSlot& slot, const vm::VmResult& run,
                  const std::vector<std::uint64_t>& golden_output,
                  CampaignProgress* progress) {
  slot.outcome = campaign_outcome(probe_outcome(run, golden_output));
  if (progress != nullptr) {
    progress->counts[static_cast<std::size_t>(slot.outcome)].fetch_add(
        1, std::memory_order_relaxed);
  }
  if (slot.outcome == Outcome::kDetected && run.fault_injected) {
    // Latency anchors on the FIRST injected fault (see CampaignResult).
    slot.latency = run.steps - run.fault_step;
  }
  if (slot.outcome == Outcome::kSdc && run.fault_landing.has_value()) {
    slot.sdc_landing = run.fault_landing;
  }
}

/// Class-extrapolated campaign: the fault set is drawn exactly like the
/// unpruned campaign; statically-dead flips are benign without running,
/// every other trial is answered by one pilot run per (class, effective
/// bit, stratum). The result keeps the unpruned frame — counts sum to
/// options.trials — so sdc_rate() estimates the unpruned campaign.
CampaignResult run_campaign_pruned(const Golden& golden,
                                   const vm::VmOptions& faulty,
                                   const CampaignOptions& options) {
  const check::prune::PruneReport& prune = *options.prune;
  if (options.faults_per_run > 1) {
    throw std::invalid_argument(
        "campaign prune mode requires faults_per_run == 1");
  }
  if (prune.store_data_sites != options.vm.fault_store_data) {
    throw std::invalid_argument(
        "prune report store_data_sites must match vm.fault_store_data");
  }
  const masm::AsmProgram& program = golden.decoded.source();
  const vm::VmResult& golden_run = golden.result;

  CampaignResult result;
  result.total_sites = golden_run.fi_sites;
  result.golden_steps = golden_run.steps;
  result.prune.enabled = true;
  result.prune.dead_fraction_static = prune.dead_fraction();

  // Identical serial draw to the unpruned campaign (per_run == 1), so a
  // pruned and an unpruned campaign over the same seed judge the same
  // sampled fault set.
  const std::size_t trials =
      options.trials < 0 ? 0 : static_cast<std::size_t>(options.trials);
  std::vector<vm::FaultSpec> specs(trials);
  Rng rng(options.seed);
  for (vm::FaultSpec& fault : specs) {
    fault.site = rng.next_below(golden_run.fi_sites);
    fault.bit = static_cast<int>(rng.next_below(64));
    fault.burst = options.burst < 1 ? 1 : options.burst;
  }

  const detail::DynSiteMap dyn = detail::map_dynamic_sites(
      golden.decoded, golden.site_pcs, prune, golden_run.fi_sites);

  // Serial pilot plan in trial order: deterministic and jobs-invariant.
  std::vector<std::size_t> pilots;  // trial index of each pilot run
  std::unordered_map<std::uint64_t, std::uint32_t> pilot_by_key;
  std::vector<std::int32_t> trial_pilot(trials, -1);  // -1 = dead flip
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const vm::FaultSpec& spec = specs[trial];
    const std::int32_t s =
        dyn.static_site[static_cast<std::size_t>(spec.site)];
    if (s < 0) {
      // No static record: sound fallback, run this trial directly.
      trial_pilot[trial] = static_cast<std::int32_t>(pilots.size());
      pilots.push_back(trial);
      ++result.prune.unmatched_trials;
      continue;
    }
    const check::prune::PruneSite& site =
        prune.sites[static_cast<std::size_t>(s)];
    if (site.flip_dead(spec.bit, spec.burst)) continue;  // provably benign
    const std::uint64_t key = detail::pilot_key(
        site.class_id, spec.bit % site.bit_space,
        dyn.stratum[static_cast<std::size_t>(spec.site)]);
    auto [it, inserted] =
        pilot_by_key.emplace(key, static_cast<std::uint32_t>(pilots.size()));
    if (inserted) pilots.push_back(trial);
    trial_pilot[trial] = static_cast<std::int32_t>(it->second);
  }

  // Execute only the pilots across the pool; per-pilot slots merge in
  // trial order below.
  std::vector<vm::FaultSpec> pilot_plan(pilots.size());
  for (std::size_t p = 0; p < pilots.size(); ++p) {
    pilot_plan[p] = specs[pilots[p]];
  }
  std::vector<TrialSlot> slots(pilots.size());
  TrialExecutor executor(golden, faulty, options.jobs);
  executor.run(pilot_plan, [&](std::size_t p, const vm::VmResult& run) {
    record_trial(slots[p], run, golden_run.output, options.progress);
  });
  result.trials_per_worker = executor.trials_per_worker();
  result.wall_seconds = executor.wall_seconds();
  result.ckpt = executor.telemetry();

  // Trial-order reduction with extrapolation: every drawn trial is
  // counted; outcome/latency come from its pilot, SDC-breakdown
  // coordinates from the trial's OWN static record (only the outcome is
  // inherited).
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::int32_t p = trial_pilot[trial];
    if (p < 0) {
      ++result.counts[static_cast<int>(Outcome::kBenign)];
      ++result.prune.dead_trials;
      continue;
    }
    const TrialSlot& slot = slots[static_cast<std::size_t>(p)];
    if (pilots[static_cast<std::size_t>(p)] != trial) {
      ++result.prune.replayed_trials;
    }
    ++result.counts[static_cast<int>(slot.outcome)];
    if (slot.latency.has_value()) {
      result.latency_sum += *slot.latency;
      if (*slot.latency > result.latency_max) result.latency_max = *slot.latency;
      ++result.latency_samples;
      ++result.latency_histogram[std::bit_width(*slot.latency)];
    }
    if (slot.outcome == Outcome::kSdc) {
      const std::int32_t s =
          dyn.static_site[static_cast<std::size_t>(specs[trial].site)];
      std::string key;
      if (s >= 0) {
        const check::prune::PruneSite& site =
            prune.sites[static_cast<std::size_t>(s)];
        const masm::AsmInst& inst =
            program.functions[static_cast<std::size_t>(site.function)]
                .blocks[static_cast<std::size_t>(site.block)]
                .insts[static_cast<std::size_t>(site.inst)];
        key = std::string(masm::fault_site_kind_name(site.kind)) + "/" +
              masm::origin_name(inst.origin);
      } else if (slot.sdc_landing.has_value()) {
        key = std::string(vm::fault_kind_name(slot.sdc_landing->kind)) + "/" +
              masm::origin_name(slot.sdc_landing->origin);
      }
      if (!key.empty()) ++result.sdc_breakdown[key];
    }
  }
  result.prune.pilot_runs = pilots.size();
  result.prune.reduction =
      pilots.empty() ? 0.0
                     : static_cast<double>(trials) /
                           static_cast<double>(pilots.size());
  return result;
}

}  // namespace

CampaignResult run_campaign(const masm::AsmProgram& program,
                            const CampaignOptions& options) {
  return run_campaign(Golden(program, options.vm,
                             options.prune != nullptr
                                 ? GoldenRecord::kSiteMap
                                 : GoldenRecord::kNothing),
                      options);
}

CampaignResult run_campaign(const Golden& golden,
                            const CampaignOptions& options) {
  const vm::VmOptions faulty = golden.faulty(options.vm);
  if (golden.result.fi_sites == 0) {
    throw std::runtime_error("program has no fault-injection sites");
  }
  if (options.prune != nullptr) {
    if (options.max_half_width > 0.0) {
      // Pilot extrapolation answers trials out of canonical order, so a
      // canonical-prefix stop rule has no meaning under prune.
      throw std::invalid_argument(
          "adaptive early stopping cannot be combined with prune mode");
    }
    if (golden.record == GoldenRecord::kNothing) {
      throw std::invalid_argument(
          "campaign prune mode needs a golden run with the site map");
    }
    return run_campaign_pruned(golden, faulty, options);
  }
  const vm::VmResult& golden_run = golden.result;

  CampaignResult result;
  result.total_sites = golden_run.fi_sites;
  result.golden_steps = golden_run.steps;

  const std::size_t trials =
      options.trials < 0 ? 0 : static_cast<std::size_t>(options.trials);
  const std::size_t per_run = static_cast<std::size_t>(
      options.faults_per_run < 1 ? 1 : options.faults_per_run);

  // Pre-draw every trial's fault set serially from the seed. This is
  // what makes the campaign deterministic under parallel execution: the
  // sampled set is fixed before any worker runs, bit-identical to the
  // historical serial draw order (per trial: site, then bit, per fault).
  std::vector<vm::FaultSpec> specs(trials * per_run);
  Rng rng(options.seed);
  for (vm::FaultSpec& fault : specs) {
    fault.site = rng.next_below(golden_run.fi_sites);
    fault.bit = static_cast<int>(rng.next_below(64));
    fault.burst = options.burst < 1 ? 1 : options.burst;
  }

  // Execute the trials across the pool; each trial writes only its own
  // slot, and the reduction below walks the slots in trial order, so the
  // result does not depend on scheduling. Adaptive campaigns run one
  // power-of-two block at a time; a trial's execution does not depend on
  // which block ran it, so the block structure is result-invariant.
  std::vector<TrialSlot> slots(trials);
  TrialExecutor executor(golden, faulty, options.jobs);
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    executor.run(specs, per_run, begin, end,
                 [&](std::size_t trial, const vm::VmResult& run) {
                   record_trial(slots[trial], run, golden_run.output,
                                options.progress);
                 });
  };

  const StopRule rule{options.max_half_width};
  result.adaptive.enabled = rule.enabled();
  result.adaptive.target_half_width = rule.enabled() ? rule.max_half_width : 0.0;
  result.adaptive.planned_trials = static_cast<int>(trials);

  std::size_t executed = trials;
  if (!rule.enabled()) {
    run_range(0, trials);
  } else {
    // Block-boundary evaluation (fault/adaptive.h): run the canonical
    // order in power-of-two blocks and quit at the first boundary where
    // every outcome rate is pinned. The boundary sequence and the counts
    // at each boundary depend only on the pre-drawn specs, so the stop
    // decision is identical for every jobs and stride.
    std::array<int, 4> running{};
    std::size_t done = 0;
    executed = 0;
    for (const int boundary : stop_boundaries(static_cast<int>(trials), rule)) {
      const std::size_t upto = static_cast<std::size_t>(boundary);
      run_range(done, upto);
      for (std::size_t trial = done; trial < upto; ++trial) {
        ++running[static_cast<int>(slots[trial].outcome)];
      }
      done = executed = upto;
      if (max_outcome_half_width(running, boundary) <= rule.max_half_width) {
        result.adaptive.stopped_early = upto < trials;
        break;
      }
    }
    for (int i = 0; i < 4; ++i) {
      result.adaptive.half_widths[static_cast<std::size_t>(i)] =
          wilson_half_width(running[static_cast<std::size_t>(i)],
                            static_cast<int>(executed));
    }
  }
  result.adaptive.executed_trials = static_cast<int>(executed);
  result.trials_per_worker = executor.trials_per_worker();
  result.wall_seconds = executor.wall_seconds();
  result.ckpt = executor.telemetry();

  // Trial-order reduction over the executed canonical prefix (the whole
  // plan unless the stop rule fired).
  for (std::size_t trial = 0; trial < executed; ++trial) {
    const TrialSlot& slot = slots[trial];
    ++result.counts[static_cast<int>(slot.outcome)];
    if (slot.latency.has_value()) {
      result.latency_sum += *slot.latency;
      if (*slot.latency > result.latency_max) result.latency_max = *slot.latency;
      ++result.latency_samples;
      ++result.latency_histogram[std::bit_width(*slot.latency)];
    }
    if (slot.sdc_landing.has_value()) {
      const vm::FaultLanding& landing = *slot.sdc_landing;
      std::string key = std::string(vm::fault_kind_name(landing.kind)) + "/" +
                        masm::origin_name(landing.origin);
      ++result.sdc_breakdown[key];
    }
  }
  return result;
}

double sdc_coverage(double raw_sdc_rate, double protected_sdc_rate) {
  if (raw_sdc_rate <= 0.0) return 1.0;
  return (raw_sdc_rate - protected_sdc_rate) / raw_sdc_rate;
}

}  // namespace ferrum::fault
