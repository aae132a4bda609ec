#include <gtest/gtest.h>

#include "backend/backend.h"
#include "eddi/asm_protect.h"
#include "frontend/codegen.h"
#include "masm/masm.h"
#include "support/source_location.h"
#include "vm/vm.h"

namespace ferrum {
namespace {

masm::AsmProgram lower_source(const std::string& source,
                              const backend::BackendOptions& options = {}) {
  DiagEngine diags;
  auto module = minic::compile(source, diags);
  EXPECT_NE(module, nullptr) << diags.render();
  return backend::lower(*module, options);
}

/// Protects and verifies semantics are unchanged against the unprotected
/// program.
eddi::AsmProtectStats protect_and_check(masm::AsmProgram& program,
                                        const eddi::AsmProtectOptions& options
                                        = {}) {
  const vm::VmResult before = vm::run(program);
  EXPECT_TRUE(before.ok()) << vm::exit_status_name(before.status);
  const auto stats = eddi::protect_asm(program, options);
  const vm::VmResult after = vm::run(program);
  EXPECT_TRUE(after.ok()) << vm::exit_status_name(after.status) << "\n"
                          << masm::print(program);
  EXPECT_EQ(after.output, before.output);
  EXPECT_EQ(after.return_value, before.return_value);
  return stats;
}

constexpr const char* kMixedProgram = R"(
  int helper(int a, int b) { return a * b + a - b; }
  double gd[4] = {1.0, 2.5, -3.0, 4.25};
  int gi[8];
  int main() {
    for (int i = 0; i < 8; i++) gi[i] = helper(i, i + 2);
    long s = 0L;
    for (int i = 0; i < 8; i++) s += gi[i];
    print_int(s);
    double acc = 0.0;
    for (int i = 0; i < 4; i++) acc += gd[i] * gd[i];
    print_f64(sqrt(acc));
    int shift = 3;
    print_int((s << shift) >> 2);
    print_int(s / 7L);
    print_int(s % 7L);
    return 0;
  })";

TEST(AsmProtect, FerrumPreservesSemantics) {
  auto program = lower_source(kMixedProgram);
  const auto stats = protect_and_check(program);
  EXPECT_GT(stats.simd_sites, 0u);
  EXPECT_GT(stats.general_sites, 0u);
  EXPECT_GT(stats.compare_clusters, 0u);
  EXPECT_GT(stats.edge_blocks, 0u);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_EQ(stats.unprotected_sites, 0u);
}

TEST(AsmProtect, HybridConfigPreservesSemantics) {
  auto program = lower_source(kMixedProgram);
  eddi::AsmProtectOptions options;
  options.use_simd = false;
  options.protect_branches = false;
  const auto stats = protect_and_check(program, options);
  EXPECT_EQ(stats.simd_sites, 0u);
  EXPECT_GT(stats.general_sites, 0u);
  EXPECT_EQ(stats.compare_clusters, 0u);
  EXPECT_EQ(stats.edge_blocks, 0u);
}

TEST(AsmProtect, BatchWidthsAllWork) {
  for (int batch : {1, 2, 4}) {
    auto program = lower_source(kMixedProgram);
    eddi::AsmProtectOptions options;
    options.simd_batch = batch;
    const auto stats = protect_and_check(program, options);
    EXPECT_GT(stats.flushes, 0u) << "batch=" << batch;
  }
}

TEST(AsmProtect, WiderBatchesMeanFewerFlushes) {
  auto narrow_program = lower_source(kMixedProgram);
  auto wide_program = lower_source(kMixedProgram);
  eddi::AsmProtectOptions narrow;
  narrow.simd_batch = 1;
  eddi::AsmProtectOptions wide;
  wide.simd_batch = 4;
  const auto narrow_stats = eddi::protect_asm(narrow_program, narrow);
  const auto wide_stats = eddi::protect_asm(wide_program, wide);
  EXPECT_GT(narrow_stats.flushes, wide_stats.flushes);
}

TEST(AsmProtect, StoreDataOptionAddsChecks) {
  auto plain = lower_source(kMixedProgram);
  auto checked = lower_source(kMixedProgram);
  eddi::AsmProtectOptions with_stores;
  with_stores.protect_store_data = true;
  const auto plain_stats = eddi::protect_asm(plain, {});
  const auto store_stats = eddi::protect_asm(checked, with_stores);
  EXPECT_EQ(plain_stats.store_checks, 0u);
  EXPECT_GT(store_stats.store_checks, plain_stats.store_checks);
  // Still semantics-preserving.
  const auto result = vm::run(checked);
  EXPECT_TRUE(result.ok());
}

TEST(AsmProtect, ScarceRegistersFallBackToRequisition) {
  backend::BackendOptions tight;
  tight.max_scratch_gprs = 14;  // use the whole file, including r10-r15
  auto program = lower_source(R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4;
      int e = 5; int f = 6; int g = 7; int h = 8;
      int r = (a + b) * (c + d) + (e + f) * (g + h) +
              (a ^ b) * (c | d) + (e & f) * (g - h) +
              (a + c) * (e + g) * (b + d) * (f + h);
      print_int(r);
      return 0;
    })", tight);
  const auto stats = protect_and_check(program);
  EXPECT_EQ(stats.unprotected_sites, 0u);
}

TEST(AsmProtect, SimdDisabledWhenNoSpareXmms) {
  auto program = lower_source(kMixedProgram);
  eddi::AsmProtectOptions no_simd;
  no_simd.use_simd = false;
  const auto stats = eddi::protect_asm(program, no_simd);
  EXPECT_EQ(stats.simd_sites, 0u);
  EXPECT_EQ(stats.functions_with_spare_xmms, 0u);
}

TEST(AsmProtect, EveryFunctionGetsDetector) {
  auto program = lower_source(kMixedProgram);
  eddi::protect_asm(program, {});
  for (const auto& fn : program.functions) {
    bool has_detect = false;
    for (const auto& block : fn.blocks) {
      for (const auto& inst : block.insts) {
        has_detect |= inst.op == masm::Op::kDetectTrap;
      }
    }
    EXPECT_TRUE(has_detect) << fn.name;
  }
}

TEST(AsmProtect, EdgeTrampolinesSplitBranches) {
  auto program = lower_source(
      "int main() { int x = 3; if (x < 5) print_int(1); return 0; }");
  eddi::protect_asm(program, {});
  const masm::AsmFunction* main_fn = program.find_function("main");
  int edge_blocks = 0;
  for (const auto& block : main_fn->blocks) {
    if (block.label.rfind("edge.", 0) == 0) ++edge_blocks;
  }
  EXPECT_EQ(edge_blocks, 2);  // taken + fallthrough edges
}

TEST(AsmProtect, ProtectionInstructionsAreTagged) {
  auto program = lower_source(
      "int main() { int x = 3; print_int(x + 1); return 0; }");
  const std::size_t before = program.inst_count();
  eddi::protect_asm(program, {});
  std::size_t protection = 0;
  for (const auto& fn : program.functions) {
    for (const auto& block : fn.blocks) {
      for (const auto& inst : block.insts) {
        protection += inst.origin == masm::InstOrigin::kProtection;
      }
    }
  }
  EXPECT_EQ(program.inst_count() - before, protection);
}

// ---------------------------------------------------------------------------
// Fault-coverage audit: exhaustively inject one fault into EVERY dynamic
// site of a protected program and require that no injection produces an
// SDC. This is the mechanical core of the paper's 100%-coverage claim.

void exhaustive_audit(const std::string& source,
                      const eddi::AsmProtectOptions& options,
                      const vm::VmOptions& vm_options = {}) {
  auto program = lower_source(source);
  eddi::protect_asm(program, options);
  const vm::VmResult golden = vm::run(program, vm_options);
  ASSERT_TRUE(golden.ok());
  vm::VmOptions faulty_options = vm_options;
  faulty_options.max_steps = golden.steps * 16 + 10'000;
  int detected = 0;
  for (std::uint64_t site = 0; site < golden.fi_sites; ++site) {
    for (int bit : {0, 1, 17, 63}) {
      vm::FaultSpec fault;
      fault.site = site;
      fault.bit = bit;
      const vm::VmResult run = vm::run(program, faulty_options, &fault);
      if (run.ok()) {
        EXPECT_EQ(run.output, golden.output)
            << "SDC at site " << site << " bit " << bit << " ("
            << (run.fault_landing
                    ? vm::fault_kind_name(run.fault_landing->kind)
                    : "?")
            << ")";
      } else if (run.status == vm::ExitStatus::kDetected) {
        ++detected;
      }
      // Crashes are acceptable (not silent corruptions).
    }
  }
  EXPECT_GT(detected, 0);
}

TEST(AsmProtectAudit, FerrumArithmeticProgram) {
  exhaustive_audit(R"(
    int main() {
      int a = 12;
      int b = 34;
      print_int(a * b + a - b);
      print_int(a % 5 + b / 3);
      return 0;
    })", {});
}

TEST(AsmProtectAudit, FerrumBranchyProgram) {
  exhaustive_audit(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 6; i++) {
        if (i % 2 == 0) s += i; else s -= 1;
      }
      print_int(s);
      return 0;
    })", {});
}

TEST(AsmProtectAudit, FerrumFloatingProgram) {
  exhaustive_audit(R"(
    int main() {
      double a = 1.5;
      double b = 2.25;
      double c = a * b + sqrt(a + b);
      if (c > 3.0) print_f64(c); else print_f64(-c);
      print_int((int)(c * 100.0));
      return 0;
    })", {});
}

TEST(AsmProtectAudit, FerrumCallProgram) {
  exhaustive_audit(R"(
    int twice(int x) { return x + x; }
    int main() {
      print_int(twice(twice(5)) + twice(3));
      return 0;
    })", {});
}

TEST(AsmProtectAudit, ExtendedStoreFaultModel) {
  eddi::AsmProtectOptions options;
  options.protect_store_data = true;
  vm::VmOptions vm_options;
  vm_options.fault_store_data = true;
  exhaustive_audit(R"(
    int g[4];
    int main() {
      for (int i = 0; i < 4; i++) g[i] = i * 7;
      print_int(g[0] + g[1] + g[2] + g[3]);
      return 0;
    })", options, vm_options);
}

}  // namespace
}  // namespace ferrum
