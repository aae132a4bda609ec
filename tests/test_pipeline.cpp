#include <gtest/gtest.h>

#include <algorithm>

#include "pipeline/pipeline.h"
#include "vm/vm.h"

namespace ferrum {
namespace {

using pipeline::Technique;

constexpr Technique kAll[] = {Technique::kNone, Technique::kIrEddi,
                              Technique::kHybrid, Technique::kFerrum};

constexpr const char* kPrograms[] = {
    "int main() { print_int(123); return 0; }",
    R"(int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
       int main() { print_int(fib(11)); return 0; })",
    R"(int g[12];
       int main() {
         for (int i = 0; i < 12; i++) g[i] = (i * 37 + 11) % 19;
         int best = -1;
         for (int i = 0; i < 12; i++) if (g[i] > best) best = g[i];
         print_int(best);
         return 0;
       })",
    R"(double m[9] = {4.0, 1.0, 0.0, 1.0, 5.0, 2.0, 0.0, 2.0, 6.0};
       int main() {
         double trace = 0.0;
         for (int i = 0; i < 3; i++) trace += m[i * 3 + i];
         print_f64(trace);
         double norm = 0.0;
         for (int i = 0; i < 9; i++) norm += m[i] * m[i];
         print_f64(sqrt(norm));
         return 0;
       })",
    R"(int main() {
         long acc = 1L;
         for (int i = 1; i <= 15; i++) {
           acc = acc * (long)i % 1000003L;
           if (acc % 2L == 0L && i % 3 == 0) acc += 7L;
         }
         print_int(acc);
         return 0;
       })",
};

class PipelineTechniqueTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(PipelineTechniqueTest, OutputMatchesUnprotected) {
  const char* source = std::get<0>(GetParam());
  const Technique technique = kAll[std::get<1>(GetParam())];

  auto baseline = pipeline::build(source, Technique::kNone);
  const vm::VmResult golden = vm::run(baseline.program);
  ASSERT_TRUE(golden.ok());

  auto build = pipeline::build(source, technique);
  const vm::VmResult result = vm::run(build.program);
  ASSERT_TRUE(result.ok()) << vm::exit_status_name(result.status);
  EXPECT_EQ(result.output, golden.output);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, PipelineTechniqueTest,
    ::testing::Combine(::testing::ValuesIn(kPrograms),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Pipeline, TechniqueNames) {
  EXPECT_STREQ(pipeline::technique_name(Technique::kNone), "none");
  EXPECT_STREQ(pipeline::technique_name(Technique::kIrEddi), "ir-level-eddi");
  EXPECT_STREQ(pipeline::technique_name(Technique::kHybrid),
               "hybrid-assembly-level-eddi");
  EXPECT_STREQ(pipeline::technique_name(Technique::kFerrum), "ferrum");
}

TEST(Pipeline, StatsReflectTechnique) {
  const char* source = kPrograms[1];
  auto none = pipeline::build(source, Technique::kNone);
  EXPECT_EQ(none.ir_stats.duplicated, 0u);
  EXPECT_EQ(none.asm_stats.general_sites + none.asm_stats.simd_sites, 0u);

  auto ir_eddi = pipeline::build(source, Technique::kIrEddi);
  EXPECT_GT(ir_eddi.ir_stats.duplicated, 0u);
  EXPECT_EQ(ir_eddi.asm_stats.general_sites + ir_eddi.asm_stats.simd_sites,
            0u);

  auto hybrid = pipeline::build(source, Technique::kHybrid);
  EXPECT_GT(hybrid.ir_stats.duplicated, 0u);  // signature stage
  EXPECT_GT(hybrid.asm_stats.general_sites, 0u);
  EXPECT_EQ(hybrid.asm_stats.simd_sites, 0u);

  auto ferrum = pipeline::build(source, Technique::kFerrum);
  EXPECT_EQ(ferrum.ir_stats.duplicated, 0u);  // pure assembly level
  EXPECT_GT(ferrum.asm_stats.simd_sites, 0u);
  const auto protect = std::find_if(
      ferrum.pass_seconds.begin(), ferrum.pass_seconds.end(),
      [](const auto& pass) { return pass.first == "protect"; });
  ASSERT_NE(protect, ferrum.pass_seconds.end());
  EXPECT_GT(protect->second, 0.0);
}

TEST(Pipeline, ProtectedProgramsAreLarger) {
  const char* source = kPrograms[2];
  const std::size_t raw =
      pipeline::build(source, Technique::kNone).program.inst_count();
  for (Technique technique :
       {Technique::kIrEddi, Technique::kHybrid, Technique::kFerrum}) {
    const std::size_t protected_size =
        pipeline::build(source, technique).program.inst_count();
    EXPECT_GT(protected_size, raw)
        << pipeline::technique_name(technique);
  }
}

TEST(Pipeline, FrontendErrorsThrow) {
  EXPECT_THROW(pipeline::build("int main( { return 0; }", Technique::kNone),
               std::runtime_error);
  EXPECT_THROW(pipeline::build("int main() { return missing; }",
                               Technique::kFerrum),
               std::runtime_error);
}

TEST(Pipeline, BackendOptionsArePlumbedThrough) {
  pipeline::BuildOptions options;
  options.backend.max_scratch_gprs = 5;
  auto tight = pipeline::build(kPrograms[4], Technique::kFerrum, options);
  auto result = vm::run(tight.program);
  EXPECT_TRUE(result.ok());
}

TEST(Pipeline, FerrumOptionsArePlumbedThrough) {
  pipeline::BuildOptions options;
  options.ferrum.simd_batch = 2;
  auto build = pipeline::build(kPrograms[2], Technique::kFerrum, options);
  auto result = vm::run(build.program);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(build.asm_stats.flushes, 0u);
}

}  // namespace
}  // namespace ferrum
