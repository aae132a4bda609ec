// Deterministic confidence-interval early stopping for fault-injection
// campaigns. A campaign's outcome rates usually converge long before the
// planned trial budget is spent; this header defines the *stop rule* that
// lets a campaign quit early without giving up the repo's determinism
// contract.
//
// The rule: walk the canonical (pre-drawn) trial order and evaluate the
// 95% Wilson-score half-width of all four outcome rates (benign / SDC /
// detected / crash) only at power-of-two block boundaries of that order —
// min_trials, 2*min_trials, 4*min_trials, ... capped at the planned
// budget. The campaign stops at the first boundary where every half-width
// is <= the target. Because the trial order is fixed by the seed before
// any worker runs and boundaries depend only on (planned, rule), the
// stopped trial count is a pure function of (program, fault model, seed,
// target half-width): jobs and the checkpoint stride cannot move it, so
// early-stopped results stay byte-identical across both — the same
// invariant the rest of the stack already holds.
#pragma once

#include <array>
#include <vector>

namespace ferrum::fault {

/// The stop rule an adaptive campaign evaluates at block boundaries.
/// Only `max_half_width` is caller-visible key material (it changes the
/// result, so cells record it in their cache key); `min_trials` and the
/// confidence level are constants of the rule version — changing them
/// means bumping the cell/section key version, not a new knob.
struct StopRule {
  /// Target half-width for every outcome-rate interval; <= 0 disables
  /// early stopping (the campaign runs its full planned budget).
  double max_half_width = 0.0;
  /// First evaluation boundary. Small enough that cheap cells stop
  /// quickly, large enough that the normal approximation behind the
  /// Wilson interval is respectable.
  int min_trials = 64;

  bool enabled() const { return max_half_width > 0.0; }
};

/// Half-width of the 95% Wilson score interval, after clamping the
/// interval to [0, 1] (matching wilson_interval in campaign.h).
/// Returns 0.5 for trials <= 0 (the vacuous [0, 1] interval).
double wilson_half_width(int successes, int trials);

/// Largest Wilson half-width over the four outcome rates given the
/// outcome counts of the first `trials` canonical trials.
double max_outcome_half_width(const std::array<int, 4>& counts, int trials);

/// The boundaries at which the stop rule is evaluated, in canonical trial
/// order: min_trials, 2*min_trials, ... doubled until the planned budget,
/// which is always the final boundary. Empty for planned <= 0.
std::vector<int> stop_boundaries(int planned, const StopRule& rule);

/// What adaptive stopping actually did, carried in CampaignResult.
/// Deterministic: every field is a function of the canonical trial
/// prefix, never of scheduling.
struct AdaptiveStats {
  bool enabled = false;
  double target_half_width = 0.0;
  int planned_trials = 0;
  /// Trials actually executed and reduced (== CampaignResult::trials()).
  int executed_trials = 0;
  /// True when the rule fired strictly before the planned budget.
  bool stopped_early = false;
  /// Wilson half-widths of the four outcome rates at the stop boundary,
  /// indexed by Outcome.
  std::array<double, 4> half_widths{};

  /// planned / executed (>= 1 when anything ran; 0 otherwise).
  double reduction() const {
    return executed_trials > 0
               ? static_cast<double>(planned_trials) / executed_trials
               : 0.0;
  }
};

}  // namespace ferrum::fault
