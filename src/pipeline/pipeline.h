// End-to-end pipeline: MiniC source -> MiniIR -> (protection) -> MiniASM.
// This is the single entry point the examples, tests, benches and the
// fault-injection campaign all share.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "check/check.h"
#include "eddi/asm_protect.h"
#include "eddi/ir_eddi.h"
#include "ir/ir.h"
#include "masm/masm.h"
#include "pipeline/selective.h"

namespace ferrum::pipeline {

/// The protection configurations of the paper's Table I.
enum class Technique : std::uint8_t {
  kNone,     // unprotected baseline (SDC_raw)
  kIrEddi,   // IR-LEVEL-EDDI
  kHybrid,   // HYBRID-ASSEMBLY-LEVEL-EDDI (IR signatures + plain asm dup)
  kFerrum,   // FERRUM
};

const char* technique_name(Technique technique);

struct BuildOptions {
  backend::BackendOptions backend;
  /// FERRUM configuration knobs (used only for kFerrum), for ablations.
  eddi::AsmProtectOptions ferrum;
  /// Analysis-guided selective protection (kFerrum only). When the
  /// strategy is not kOff, a "flow-plan" pass plans the protection-site
  /// selection on the pre-protect program and overrides ferrum.selector.
  SelectiveOptions selective;
};

struct Build {
  std::unique_ptr<ir::Module> module;  // after any IR-level protection
  masm::AsmProgram program;
  eddi::IrEddiStats ir_stats;
  eddi::AsmProtectStats asm_stats;
  /// ferrum-check report from the protect-check pass (runs for every
  /// protected technique; empty/default for kNone). A violation here is
  /// a pipeline bug and build() throws, so a returned Build always
  /// carries a clean report — its value is the coverage classification.
  check::CheckReport check_report;
  /// Wall-clock seconds per pipeline pass, in execution order (stages
  /// that did not run for this technique are absent). Stage names:
  /// "frontend", "ir-protect", "ir-verify", "lower", "asm-verify",
  /// "flow-plan", "protect", "protect-verify", "protect-check".
  std::vector<std::pair<std::string, double>> pass_seconds;
  /// The selective-protection plan (populated only when
  /// BuildOptions::selective.strategy != kOff): site universe, chosen
  /// ordinals and the flow report the ranking came from.
  SelectivePlan selective_plan;
};

/// Compiles MiniC source under the chosen technique. Throws
/// std::runtime_error with rendered diagnostics on frontend errors.
Build build(std::string_view source, Technique technique,
            const BuildOptions& options = {});

}  // namespace ferrum::pipeline
