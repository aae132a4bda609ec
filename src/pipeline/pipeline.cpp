#include "pipeline/pipeline.h"

#include <chrono>

#include "check/check.h"
#include "frontend/codegen.h"
#include "ir/verifier.h"
#include "masm/verifier.h"
#include "support/source_location.h"

namespace ferrum::pipeline {

namespace {

/// Appends ("name", elapsed) to Build::pass_seconds when destroyed — the
/// pipeline's per-pass timing scope.
class PassScope {
 public:
  PassScope(Build& build, const char* name)
      : build_(build), name_(name),
        start_(std::chrono::steady_clock::now()) {}
  ~PassScope() {
    build_.pass_seconds.emplace_back(
        name_, std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count());
  }
  PassScope(const PassScope&) = delete;
  PassScope& operator=(const PassScope&) = delete;

 private:
  Build& build_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

const char* technique_name(Technique technique) {
  switch (technique) {
    case Technique::kNone: return "none";
    case Technique::kIrEddi: return "ir-level-eddi";
    case Technique::kHybrid: return "hybrid-assembly-level-eddi";
    case Technique::kFerrum: return "ferrum";
  }
  return "?";
}

Build build(std::string_view source, Technique technique,
            const BuildOptions& options) {
  DiagEngine diags;
  Build result;
  {
    PassScope scope(result, "frontend");
    result.module = minic::compile(source, diags);
  }
  if (result.module == nullptr) {
    throw std::runtime_error("frontend:\n" + diags.render());
  }

  if (technique == Technique::kIrEddi) {
    PassScope scope(result, "ir-protect");
    result.ir_stats =
        eddi::apply_ir_eddi(*result.module, eddi::IrEddiMode::kClassic);
  } else if (technique == Technique::kHybrid) {
    PassScope scope(result, "ir-protect");
    result.ir_stats =
        eddi::apply_ir_eddi(*result.module, eddi::IrEddiMode::kSignatureOnly);
  }
  if (technique == Technique::kIrEddi || technique == Technique::kHybrid) {
    PassScope scope(result, "ir-verify");
    const std::string problems = ir::verify_to_string(*result.module);
    if (!problems.empty()) {
      throw std::runtime_error("IR protection broke the module:\n" + problems);
    }
  }

  {
    PassScope scope(result, "lower");
    result.program = backend::lower(*result.module, options.backend);
  }
  {
    PassScope scope(result, "asm-verify");
    const std::string problems = masm::verify_program_to_string(result.program);
    if (!problems.empty()) {
      throw std::runtime_error("backend produced malformed assembly:\n" +
                               problems);
    }
  }

  if (technique == Technique::kHybrid) {
    eddi::AsmProtectOptions asm_options;
    asm_options.use_simd = false;          // AS_1: plain duplication
    asm_options.protect_branches = false;  // comparisons/branches at IR
    // Extended-fault-model experiments toggle store verification for both
    // assembly-level techniques through the same knob.
    asm_options.protect_store_data = options.ferrum.protect_store_data;
    PassScope scope(result, "protect");
    result.asm_stats = eddi::protect_asm(result.program, asm_options);
  } else if (technique == Technique::kFerrum) {
    eddi::AsmProtectOptions ferrum_options = options.ferrum;
    if (options.selective.strategy != SelectiveOptions::Strategy::kOff) {
      // Plan on the pre-protect program (what the protect pass is about
      // to see); the plan's selector replaces any coverage_ratio.
      PassScope scope(result, "flow-plan");
      result.selective_plan =
          plan_selective(result.program, options.selective, options.ferrum);
      ferrum_options.selector = plan_selector(result.selective_plan);
      ferrum_options.coverage_ratio = 1.0;
    }
    PassScope scope(result, "protect");
    result.asm_stats = eddi::protect_asm(result.program, ferrum_options);
  }
  if (technique == Technique::kHybrid || technique == Technique::kFerrum) {
    PassScope scope(result, "protect-verify");
    const std::string problems = masm::verify_program_to_string(result.program);
    if (!problems.empty()) {
      throw std::runtime_error("protection produced malformed assembly:\n" +
                               problems);
    }
  }
  if (technique != Technique::kNone) {
    // Static protection lint: prove the emitted protection idioms are
    // well-formed (fresh check operands, guarded detects, balanced
    // requisitions, ...). Any violation means the protection pass
    // emitted a check that cannot detect what it claims to.
    PassScope scope(result, "protect-check");
    result.check_report = check::check_program(
        result.program, {options.ferrum.protect_store_data});
    if (!result.check_report.clean()) {
      std::string problems;
      for (const check::Violation& violation : result.check_report.violations) {
        problems += "  " + check::to_string(violation) + "\n";
      }
      throw std::runtime_error("protect-check found invariant violations:\n" +
                               problems);
    }
  }
  return result;
}

}  // namespace ferrum::pipeline
