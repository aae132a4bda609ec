#include "pipeline/selective.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <utility>

namespace ferrum::pipeline {

namespace {

using check::flow::FlowReport;
using check::flow::FlowSite;
using check::flow::Prediction;
using eddi::ProtectSiteRef;

/// splitmix64: tiny, platform-stable generator for the kRandom shuffle.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Ranking score of one protection site: the worst flow prediction among
/// the fault sites its original instructions register. A cluster guards
/// the flag producer and the following setcc/jcc, so both instructions
/// contribute.
int analysis_score(const FlowReport& flow, const ProtectSiteRef& ref) {
  int score = 0;
  const int span = ref.cluster ? 2 : 1;
  for (int d = 0; d < span; ++d) {
    const FlowSite* site = flow.find(ref.function, ref.block, ref.inst + d);
    if (site == nullptr) continue;
    switch (site->prediction) {
      case Prediction::kSdcVulnerable: score = std::max(score, 3); break;
      case Prediction::kCrashProne: score = std::max(score, 2); break;
      case Prediction::kDetected: score = std::max(score, 1); break;
      case Prediction::kMasked: break;
    }
  }
  return score;
}

}  // namespace

const char* selective_strategy_name(SelectiveOptions::Strategy strategy) {
  switch (strategy) {
    case SelectiveOptions::Strategy::kOff: return "off";
    case SelectiveOptions::Strategy::kAnalysis: return "analysis";
    case SelectiveOptions::Strategy::kRandom: return "random";
  }
  return "?";
}

SelectivePlan plan_selective(const masm::AsmProgram& program,
                             const SelectiveOptions& options,
                             const eddi::AsmProtectOptions& protect_options) {
  SelectivePlan plan;
  eddi::AsmProtectOptions shape = protect_options;
  shape.selector = nullptr;
  shape.coverage_ratio = 1.0;
  plan.universe = eddi::enumerate_protectable_sites(program, shape);

  plan.flow = check::flow::flow_program(
      program, {protect_options.protect_store_data});

  const int n = static_cast<int>(plan.universe.size());
  const double budget = std::clamp(options.budget, 0.0, 1.0);
  plan.budget_sites = static_cast<int>(std::lround(budget * n));

  std::vector<int> order(plan.universe.size());
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;

  switch (options.strategy) {
    case SelectiveOptions::Strategy::kOff:
      plan.budget_sites = n;
      break;
    case SelectiveOptions::Strategy::kAnalysis: {
      // Highest-scoring tier first. Inside a tier, order by bit-reversed
      // ordinal (a van der Corput sequence): any budget prefix of a tier
      // then spreads near-uniformly across the whole program instead of
      // clustering in the earliest blocks — a small budget still reaches
      // the compute loops, not just the setup code. Deterministic, no
      // seed involved.
      std::vector<std::pair<std::uint64_t, int>> keyed;
      keyed.reserve(plan.universe.size());
      for (int i = 0; i < n; ++i) {
        const int score = analysis_score(
            plan.flow, plan.universe[static_cast<std::size_t>(i)]);
        std::uint64_t rev = 0;
        for (int bit = 0; bit < 32; ++bit) {
          rev = (rev << 1) | ((static_cast<std::uint64_t>(i) >> bit) & 1);
        }
        // Key: higher score first, then bit-reversed position, then the
        // ordinal itself as the final total-order tie-break.
        keyed.emplace_back((static_cast<std::uint64_t>(3 - score) << 60) |
                               (rev << 28) |
                               static_cast<std::uint64_t>(i),
                           i);
      }
      std::sort(keyed.begin(), keyed.end());
      for (int i = 0; i < n; ++i) {
        order[static_cast<std::size_t>(i)] = keyed[static_cast<std::size_t>(i)].second;
      }
      break;
    }
    case SelectiveOptions::Strategy::kRandom: {
      std::uint64_t state = options.seed;
      for (int i = n - 1; i > 0; --i) {
        const int j = static_cast<int>(
            splitmix64(state) % static_cast<std::uint64_t>(i + 1));
        std::swap(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>(j)]);
      }
      break;
    }
  }

  plan.selected.assign(
      order.begin(),
      order.begin() + static_cast<std::ptrdiff_t>(plan.budget_sites));
  std::sort(plan.selected.begin(), plan.selected.end());
  return plan;
}

eddi::ProtectSelector plan_selector(const SelectivePlan& plan) {
  auto chosen = std::make_shared<std::unordered_set<int>>(
      plan.selected.begin(), plan.selected.end());
  return [chosen](const ProtectSiteRef& ref) {
    return chosen->count(ref.ordinal) != 0;
  };
}

}  // namespace ferrum::pipeline
