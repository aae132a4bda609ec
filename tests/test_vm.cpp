#include <gtest/gtest.h>

#include <cstring>

#include "masm/parser.h"
#include "pipeline/pipeline.h"
#include "support/source_location.h"
#include "vm/vm.h"

namespace ferrum {
namespace {

using masm::AsmProgram;

AsmProgram parse_ok(const std::string& text) {
  DiagEngine diags;
  AsmProgram program = masm::parse_program(text, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return program;
}

/// Runs a `main` body given as instruction lines; the program returns rax.
vm::VmResult run_body(const std::string& body,
                      const vm::VmOptions& options = {},
                      const vm::FaultSpec* fault = nullptr) {
  AsmProgram program = parse_ok("main:\n.entry:\n" + body + "\tret\n");
  return vm::run(program, options, fault);
}

TEST(Vm, MovAndReturn) {
  auto result = run_body("\tmovq\t$41, %rax\n\taddq\t$1, %rax\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 42);
}

TEST(Vm, ThirtyTwoBitWritesZeroExtend) {
  auto result = run_body(
      "\tmovq\t$-1, %rax\n"    // all ones
      "\tmovl\t$5, %eax\n");   // must clear the upper half
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 5);
}

TEST(Vm, ByteWritesMerge) {
  auto result = run_body(
      "\tmovq\t$511, %rax\n"   // 0x1ff
      "\tmovb\t$0, %al\n");    // only the low byte clears -> 0x100
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 0x100);
}

TEST(Vm, SignExtendingMoves) {
  auto result = run_body(
      "\tmovq\t$-2, %rcx\n"
      "\tmovslq\t%ecx, %rax\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, -2);
}

TEST(Vm, ZeroExtendingMoves) {
  auto result = run_body(
      "\tmovq\t$-1, %rcx\n"
      "\tmovzbl\t%cl, %eax\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 255);
}

TEST(Vm, StackPushPop) {
  auto result = run_body(
      "\tmovq\t$123, %rcx\n"
      "\tpushq\t%rcx\n"
      "\tmovq\t$0, %rcx\n"
      "\tpopq\t%rax\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 123);
}

TEST(Vm, MemoryThroughFrame) {
  auto result = run_body(
      "\tpushq\t%rbp\n"
      "\tmovq\t%rsp, %rbp\n"
      "\tsubq\t$16, %rsp\n"
      "\tmovl\t$77, -8(%rbp)\n"
      "\tmovl\t-8(%rbp), %eax\n"
      "\tmovq\t%rbp, %rsp\n"
      "\tpopq\t%rbp\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 77);
}

TEST(Vm, IndexedAddressing) {
  auto result = run_body(
      "\tpushq\t%rbp\n"
      "\tmovq\t%rsp, %rbp\n"
      "\tsubq\t$32, %rsp\n"
      "\tmovq\t$2, %rcx\n"
      "\tmovl\t$55, -32(%rbp,%rcx,4)\n"
      "\tleaq\t-32(%rbp,%rcx,4), %rdx\n"
      "\tmovl\t(%rdx), %eax\n"
      "\tmovq\t%rbp, %rsp\n"
      "\tpopq\t%rbp\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 55);
}

struct CondCase {
  const char* cmp;   // cmp line setting flags
  const char* cc;    // condition that must hold
  bool expected;
};

class VmCondTest : public ::testing::TestWithParam<CondCase> {};

TEST_P(VmCondTest, SetccMatchesSemantics) {
  const CondCase& cs = GetParam();
  auto result = run_body(std::string("\tmovq\t$0, %rax\n") + cs.cmp +
                         "\tset" + cs.cc + "\t%al\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, cs.expected ? 1 : 0)
      << cs.cmp << " set" << cs.cc;
}

INSTANTIATE_TEST_SUITE_P(
    SignedConditions, VmCondTest,
    ::testing::Values(
        // AT&T: cmp b, a sets flags of a - b.
        CondCase{"\tmovq\t$5, %rcx\n\tcmpq\t$5, %rcx\n", "e", true},
        CondCase{"\tmovq\t$5, %rcx\n\tcmpq\t$6, %rcx\n", "e", false},
        CondCase{"\tmovq\t$5, %rcx\n\tcmpq\t$6, %rcx\n", "ne", true},
        CondCase{"\tmovq\t$5, %rcx\n\tcmpq\t$6, %rcx\n", "l", true},
        CondCase{"\tmovq\t$-5, %rcx\n\tcmpq\t$3, %rcx\n", "l", true},
        CondCase{"\tmovq\t$5, %rcx\n\tcmpq\t$5, %rcx\n", "le", true},
        CondCase{"\tmovq\t$7, %rcx\n\tcmpq\t$5, %rcx\n", "g", true},
        CondCase{"\tmovq\t$-7, %rcx\n\tcmpq\t$-9, %rcx\n", "g", true},
        CondCase{"\tmovq\t$5, %rcx\n\tcmpq\t$5, %rcx\n", "ge", true},
        CondCase{"\tmovq\t$5, %rcx\n\tcmpq\t$7, %rcx\n", "ge", false}));

TEST(Vm, SignedOverflowFlagInComparison) {
  // INT64_MIN < 1 must hold despite wraparound (OF/SF logic).
  auto result = run_body(
      "\tmovq\t$0, %rax\n"
      "\tmovq\t$1, %rcx\n"
      "\tshlq\t$63, %rcx\n"  // rcx = INT64_MIN
      "\tcmpq\t$1, %rcx\n"
      "\tsetl\t%al\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 1);
}

TEST(Vm, JccControlFlow) {
  AsmProgram program = parse_ok(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$10, %rcx\n"
      "\tmovq\t$0, %rax\n"
      ".loop:\n"
      "\taddq\t%rcx, %rax\n"
      "\tsubq\t$1, %rcx\n"
      "\tcmpq\t$0, %rcx\n"
      "\tjg\t.loop\n"
      "\tret\n");
  auto result = vm::run(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 55);
}

TEST(Vm, CallAndIntrinsics) {
  AsmProgram program = parse_ok(
      "helper:\n"
      ".entry:\n"
      "\tmovq\t%rdi, %rax\n"
      "\taddq\t%rdi, %rax\n"
      "\tret\n"
      "main:\n"
      ".entry:\n"
      "\tmovq\t$21, %rdi\n"
      "\tcall\thelper\n"
      "\tmovq\t%rax, %rdi\n"
      "\tcall\tprint_int\n"
      "\tret\n");
  auto result = vm::run(program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.output.size(), 1u);
  EXPECT_EQ(static_cast<std::int64_t>(result.output[0]), 42);
}

TEST(Vm, TwoAddressDivide) {
  auto result = run_body(
      "\tmovq\t$-17, %rax\n"
      "\tmovq\t$5, %rcx\n"
      "\tidivq\t%rcx, %rax\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, -3);
  auto rem = run_body(
      "\tmovq\t$-17, %rax\n"
      "\tmovq\t$5, %rcx\n"
      "\tiremq\t%rcx, %rax\n");
  ASSERT_TRUE(rem.ok());
  EXPECT_EQ(rem.return_value, -2);
}

TEST(Vm, DivideByZeroTraps) {
  auto result = run_body(
      "\tmovq\t$1, %rax\n"
      "\tmovq\t$0, %rcx\n"
      "\tidivq\t%rcx, %rax\n");
  EXPECT_EQ(result.status, vm::ExitStatus::kTrapDivide);
}

TEST(Vm, WildAddressTraps) {
  auto result = run_body(
      "\tmovq\t$1, %rcx\n"
      "\tmovq\t(%rcx), %rax\n");  // address 1 is unmapped
  EXPECT_EQ(result.status, vm::ExitStatus::kTrapMemory);
}

/// The MiniC program whose a[-1025] addresses 2^64 - 4: four bytes
/// whose `addr + size` wraps to 0.
constexpr const char* kWrappingIndexProgram =
    "int a[4]; int main() { int i = -1025; print_int(a[i]); return 0; }";

/// `options` with every hook on, so the hooked loop instance runs.
vm::VmOptions with_hooks(vm::VmOptions options) {
  options.profile = true;
  options.timing = true;
  options.trace_limit = 16;
  return options;
}

TEST(Vm, AccessesInTheLastBytesBelowTwoToTheSixtyFourTrap) {
  // For these addresses `addr + size` wraps past 2^64 to a small value,
  // which a bounds check written as `addr + size > memory size` lets
  // through to the host. Loads and stores of each width at -1, -4 and -8
  // must trap, in the bare and the hooked loop instance alike.
  struct Access {
    const char* addr;
    const char* load;
    const char* store;
  };
  const Access accesses[] = {
      {"-1", "\tmovb\t(%rcx), %al\n", "\tmovb\t%al, (%rcx)\n"},
      {"-4", "\tmovl\t(%rcx), %eax\n", "\tmovl\t%eax, (%rcx)\n"},
      {"-8", "\tmovq\t(%rcx), %rax\n", "\tmovq\t%rax, (%rcx)\n"},
  };
  for (const Access& access : accesses) {
    for (const char* body : {access.load, access.store}) {
      const AsmProgram program = parse_ok(
          std::string("main:\n.entry:\n\tmovq\t$") + access.addr +
          ", %rcx\n" + body + "\tret\n");
      for (const vm::VmOptions& options : {vm::VmOptions{}, with_hooks({})}) {
        const vm::VmResult result = vm::run(program, options);
        EXPECT_EQ(result.status, vm::ExitStatus::kTrapMemory)
            << access.addr << ": " << body;
        EXPECT_EQ(result.steps, 2u) << access.addr << ": " << body;
      }
    }
  }
  const auto build =
      pipeline::build(kWrappingIndexProgram, pipeline::Technique::kNone);
  for (const vm::VmOptions& options : {vm::VmOptions{}, with_hooks({})}) {
    const vm::VmResult result = vm::run(build.program, options);
    EXPECT_EQ(result.status, vm::ExitStatus::kTrapMemory);
    EXPECT_TRUE(result.output.empty());
  }
}

TEST(Vm, ArenasSmallerThanTheFirstPageTrapBeforeTheFirstStep) {
  // The bounds check subtracts the access size from the arena size, which
  // would wrap for an arena of fewer than 8 bytes; such an arena, like
  // any below the unmapped first page, fails the layout and traps at the
  // cold start instead of pushing the exit sentinel below the arena.
  const auto build =
      pipeline::build(kWrappingIndexProgram, pipeline::Technique::kNone);
  const AsmProgram bare = parse_ok("main:\n.entry:\n\tret\n");
  for (std::size_t bytes : {0u, 1u, 4u, 7u, 8u, 64u, 0xfffu}) {
    vm::VmOptions options;
    options.memory_bytes = bytes;
    for (const vm::VmOptions& run_options : {options, with_hooks(options)}) {
      for (const AsmProgram* program : {&bare, &build.program}) {
        const vm::VmResult result = vm::run(*program, run_options);
        EXPECT_EQ(result.status, vm::ExitStatus::kTrapMemory) << bytes;
        EXPECT_EQ(result.steps, 0u) << bytes;
      }
    }
  }
  vm::VmOptions options;
  options.memory_bytes = 1u << 16;
  EXPECT_EQ(vm::run(bare, options).status, vm::ExitStatus::kOk);
}

TEST(Vm, StepBudgetTraps) {
  vm::VmOptions options;
  options.max_steps = 500;
  AsmProgram program = parse_ok(
      "main:\n.entry:\n.loop:\n\tjmp\t.loop\n\tret\n");
  auto result = vm::run(program, options);
  EXPECT_EQ(result.status, vm::ExitStatus::kTrapSteps);
}

TEST(Vm, CorruptedReturnAddressTraps) {
  auto result = run_body(
      "\tpushq\t%rbp\n"
      "\tmovq\t%rsp, %rbp\n"
      "\tmovq\t$12345, 8(%rbp)\n"  // smash the pushed return address
      "\tpopq\t%rbp\n");
  EXPECT_EQ(result.status, vm::ExitStatus::kTrapInvalid);
}

TEST(Vm, DetectTrapReportsDetected) {
  auto result = run_body("\tcall\t__ferrum_detect\n");
  EXPECT_EQ(result.status, vm::ExitStatus::kDetected);
}

TEST(Vm, ScalarSseArithmetic) {
  // 2.0 * 3.0 + 1.0 == 7.0; bits of 7.0 land in rax via movq.
  auto result = run_body(
      "\tmovq\t$4611686018427387904, %rax\n"  // bits of 2.0
      "\tmovq\t%rax, %xmm0\n"
      "\tmovq\t$4613937818241073152, %rcx\n"  // bits of 3.0
      "\tmovq\t%rcx, %xmm1\n"
      "\tmulsd\t%xmm1, %xmm0\n"
      "\tmovq\t$4607182418800017408, %rdx\n"  // bits of 1.0
      "\tmovq\t%rdx, %xmm2\n"
      "\taddsd\t%xmm2, %xmm0\n"
      "\tmovq\t%xmm0, %rax\n");
  ASSERT_TRUE(result.ok());
  double value;
  std::memcpy(&value, &result.return_value, sizeof(value));
  EXPECT_DOUBLE_EQ(value, 7.0);
}

TEST(Vm, UcomisdSetsCarryForLess) {
  auto result = run_body(
      "\tmovq\t$0, %rax\n"
      "\tmovq\t$4607182418800017408, %rcx\n"  // 1.0
      "\tmovq\t%rcx, %xmm0\n"
      "\tmovq\t$4611686018427387904, %rdx\n"  // 2.0
      "\tmovq\t%rdx, %xmm1\n"
      "\tucomisd\t%xmm1, %xmm0\n"  // flags of 1.0 ? 2.0
      "\tsetb\t%al\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 1);
}

TEST(Vm, SimdCheckSequenceMatchesWhenEqual) {
  // The FERRUM Fig 6 machinery: identical lane pairs xor to zero.
  auto result = run_body(
      "\tmovq\t$111, %rax\n"
      "\tmovq\t$222, %rcx\n"
      "\tmovq\t%rax, %xmm0\n"
      "\tpinsrq\t$1, %rcx, %xmm0\n"
      "\tmovq\t%rax, %xmm1\n"
      "\tpinsrq\t$1, %rcx, %xmm1\n"
      "\tmovq\t$333, %rdx\n"
      "\tmovq\t%rdx, %xmm2\n"
      "\tmovq\t%rdx, %xmm3\n"
      "\tvinserti128\t$1, %xmm2, %ymm0\n"
      "\tvinserti128\t$1, %xmm3, %ymm1\n"
      "\tvpxor\t%ymm1, %ymm0, %ymm0\n"
      "\tvptest\t%ymm0, %ymm0\n"
      "\tmovq\t$0, %rax\n"
      "\tsete\t%al\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 1);  // ZF: all lanes matched
}

TEST(Vm, SimdCheckSequenceCatchesMismatch) {
  auto result = run_body(
      "\tmovq\t$111, %rax\n"
      "\tmovq\t%rax, %xmm0\n"
      "\tmovq\t$112, %rcx\n"        // mismatching duplicate
      "\tmovq\t%rcx, %xmm1\n"
      "\tvpxor\t%xmm1, %xmm0, %xmm0\n"
      "\tvptest\t%xmm0, %xmm0\n"
      "\tmovq\t$0, %rax\n"
      "\tsetne\t%al\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 1);  // mismatch detected
}

TEST(Vm, XmmFormVpxorIgnoresStaleUpperLanes) {
  // Garbage in lanes 2-3 must not affect a 128-bit comparison.
  auto result = run_body(
      "\tmovq\t$99, %rax\n"
      "\tmovq\t%rax, %xmm2\n"
      "\tvinserti128\t$1, %xmm2, %ymm0\n"  // pollute ymm0 upper lanes
      "\tmovq\t$7, %rcx\n"
      "\tmovq\t%rcx, %xmm0\n"              // low lane only
      "\tmovq\t%rcx, %xmm1\n"
      "\tvpxor\t%xmm1, %xmm0, %xmm0\n"
      "\tvptest\t%xmm0, %xmm0\n"
      "\tmovq\t$0, %rax\n"
      "\tsete\t%al\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 1);
}

TEST(VmFault, GprBitFlipLands) {
  // One instruction writes rax; flipping bit 3 of its site changes 42->34.
  vm::FaultSpec fault;
  fault.site = 0;
  fault.bit = 3;
  auto result = run_body("\tmovq\t$42, %rax\n", {}, &fault);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.fault_injected);
  EXPECT_EQ(result.return_value, 42 ^ 8);
  ASSERT_TRUE(result.fault_landing.has_value());
  EXPECT_EQ(result.fault_landing->kind, vm::FaultKind::kGprWrite);
}

TEST(VmFault, BranchDecisionFlip) {
  const std::string body =
      "\tmovq\t$1, %rcx\n"
      "\tmovq\t$7, %rax\n"
      "\tcmpq\t$0, %rcx\n"
      "\tje\t.skip\n"        // not taken normally
      "\tmovq\t$9, %rax\n"
      ".skip:\n";
  AsmProgram program =
      parse_ok("main:\n.entry:\n" + body + "\tret\n");
  // Unfaulted: rax = 9.
  auto clean = vm::run(program);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.return_value, 9);
  // The je is site index 3 (two movq writes + cmp flags before it).
  vm::FaultSpec fault;
  fault.site = 3;
  fault.bit = 0;
  auto faulted = vm::run(program, {}, &fault);
  ASSERT_TRUE(faulted.ok());
  ASSERT_TRUE(faulted.fault_landing.has_value());
  EXPECT_EQ(faulted.fault_landing->kind, vm::FaultKind::kBranchDecision);
  EXPECT_EQ(faulted.return_value, 7);  // branch inverted, skip taken
}

TEST(VmFault, FlagsFlipChangesComparison) {
  const std::string body =
      "\tmovq\t$5, %rcx\n"
      "\tmovq\t$0, %rax\n"
      "\tcmpq\t$5, %rcx\n"
      "\tsete\t%al\n";
  AsmProgram program = parse_ok("main:\n.entry:\n" + body + "\tret\n");
  auto clean = vm::run(program);
  EXPECT_EQ(clean.return_value, 1);
  vm::FaultSpec fault;
  fault.site = 2;  // the cmp's flags write
  fault.bit = 0;   // ZF
  auto faulted = vm::run(program, {}, &fault);
  ASSERT_TRUE(faulted.fault_landing.has_value());
  EXPECT_EQ(faulted.fault_landing->kind, vm::FaultKind::kFlagsWrite);
  EXPECT_EQ(faulted.return_value, 0);
}

TEST(VmFault, SiteCountIsDeterministic) {
  AsmProgram program = parse_ok(
      "main:\n.entry:\n"
      "\tmovq\t$10, %rcx\n"
      "\tmovq\t$0, %rax\n"
      ".loop:\n"
      "\taddq\t%rcx, %rax\n"
      "\tsubq\t$1, %rcx\n"
      "\tcmpq\t$0, %rcx\n"
      "\tjg\t.loop\n"
      "\tret\n");
  auto a = vm::run(program);
  auto b = vm::run(program);
  EXPECT_EQ(a.fi_sites, b.fi_sites);
  EXPECT_GT(a.fi_sites, 0u);
}

TEST(VmFault, StoreSitesOnlyWithExtendedModel) {
  const std::string body =
      "\tpushq\t%rbp\n"
      "\tmovq\t%rsp, %rbp\n"
      "\tsubq\t$16, %rsp\n"
      "\tmovq\t$7, -8(%rbp)\n"
      "\tmovq\t-8(%rbp), %rax\n"
      "\tmovq\t%rbp, %rsp\n"
      "\tpopq\t%rbp\n";
  auto basic = run_body(body);
  vm::VmOptions extended;
  extended.fault_store_data = true;
  auto with_stores = run_body(body, extended);
  EXPECT_GT(with_stores.fi_sites, basic.fi_sites);
}

}  // namespace
}  // namespace ferrum
