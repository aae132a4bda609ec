#include <gtest/gtest.h>

#include <cstring>

#include "frontend/codegen.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "support/source_location.h"

namespace ferrum {
namespace {

/// Compiles MiniC and interprets it; fails the test on frontend errors.
ir::RunResult run_source(const std::string& source,
                         const ir::InterpOptions& options = {}) {
  DiagEngine diags;
  auto module = minic::compile(source, diags);
  EXPECT_TRUE(module != nullptr) << diags.render();
  if (module == nullptr) return {};
  return ir::interpret(*module, options);
}

std::int64_t as_i64(std::uint64_t raw) { return static_cast<std::int64_t>(raw); }

double as_f64(std::uint64_t raw) {
  double value;
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

TEST(Interp, ReturnsValue) {
  auto result = run_source("int main() { return 42; }");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.return_value, 42);
}

TEST(Interp, IntegerArithmetic) {
  auto result = run_source(R"(
    int main() {
      print_int(7 + 3);
      print_int(7 - 10);
      print_int(6 * 7);
      print_int(17 / 5);
      print_int(17 % 5);
      print_int(-17 / 5);
      print_int(-17 % 5);
      print_int(1 << 10);
      print_int(-64 >> 3);
      print_int(12 & 10);
      print_int(12 | 10);
      print_int(12 ^ 10);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.output.size(), 12u);
  EXPECT_EQ(as_i64(result.output[0]), 10);
  EXPECT_EQ(as_i64(result.output[1]), -3);
  EXPECT_EQ(as_i64(result.output[2]), 42);
  EXPECT_EQ(as_i64(result.output[3]), 3);
  EXPECT_EQ(as_i64(result.output[4]), 2);
  EXPECT_EQ(as_i64(result.output[5]), -3);  // C truncation toward zero
  EXPECT_EQ(as_i64(result.output[6]), -2);
  EXPECT_EQ(as_i64(result.output[7]), 1024);
  EXPECT_EQ(as_i64(result.output[8]), -8);
  EXPECT_EQ(as_i64(result.output[9]), 8);
  EXPECT_EQ(as_i64(result.output[10]), 14);
  EXPECT_EQ(as_i64(result.output[11]), 6);
}

TEST(Interp, Int32Wraparound) {
  auto result = run_source(R"(
    int main() {
      int big = 2147483647;
      big = big + 1;
      print_int(big);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), -2147483648LL);
}

TEST(Interp, LongArithmetic) {
  auto result = run_source(R"(
    int main() {
      long x = 4000000000L;
      print_int(x * 2L);
      print_int((long)2147483647 + 1L);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), 8000000000LL);
  EXPECT_EQ(as_i64(result.output[1]), 2147483648LL);
}

TEST(Interp, FloatingPoint) {
  auto result = run_source(R"(
    int main() {
      double a = 1.5;
      double b = 2.25;
      print_f64(a + b);
      print_f64(a * b);
      print_f64(a / b);
      print_f64(sqrt(16.0));
      print_f64((double)7);
      print_int((int)(3.99));
      print_int((int)(-3.99));
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(as_f64(result.output[0]), 3.75);
  EXPECT_DOUBLE_EQ(as_f64(result.output[1]), 3.375);
  EXPECT_DOUBLE_EQ(as_f64(result.output[2]), 1.5 / 2.25);
  EXPECT_DOUBLE_EQ(as_f64(result.output[3]), 4.0);
  EXPECT_DOUBLE_EQ(as_f64(result.output[4]), 7.0);
  EXPECT_EQ(as_i64(result.output[5]), 3);   // truncation toward zero
  EXPECT_EQ(as_i64(result.output[6]), -3);
}

TEST(Interp, GlobalInitialisers) {
  auto result = run_source(R"(
    int table[4] = {10, 20, 30, 40};
    double w[2] = {0.5, -0.5};
    int n = 3;
    int main() {
      print_int(table[0] + table[3]);
      print_f64(w[0] + w[1]);
      print_int(n);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), 50);
  EXPECT_DOUBLE_EQ(as_f64(result.output[1]), 0.0);
  EXPECT_EQ(as_i64(result.output[2]), 3);
}

TEST(Interp, GlobalsAreZeroInitialised) {
  auto result = run_source(R"(
    int z[8];
    int main() {
      int s = 0;
      for (int i = 0; i < 8; i++) s += z[i];
      print_int(s);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), 0);
}

TEST(Interp, RecursionAndCalls) {
  auto result = run_source(R"(
    int ack(int m, int n) {
      if (m == 0) return n + 1;
      if (n == 0) return ack(m - 1, 1);
      return ack(m - 1, ack(m, n - 1));
    }
    int main() { print_int(ack(2, 3)); return 0; })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), 9);
}

TEST(Interp, PointerParameters) {
  auto result = run_source(R"(
    void fill(int* p, int n) {
      for (int i = 0; i < n; i++) p[i] = i * 3;
    }
    int total(int* p, int n) {
      int s = 0;
      for (int i = 0; i < n; i++) s += p[i];
      return s;
    }
    int main() {
      int buf[10];
      fill(buf, 10);
      print_int(total(buf, 10));
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), 135);
}

TEST(Interp, ShortCircuitSkipsSideEffects) {
  auto result = run_source(R"(
    int counter = 0;
    int bump() { counter++; return 1; }
    int main() {
      if (0 && bump()) print_int(999);
      if (1 || bump()) print_int(counter);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.output.size(), 1u);
  EXPECT_EQ(as_i64(result.output[0]), 0);  // bump never ran
}

TEST(Interp, DivideByZeroTraps) {
  auto result = run_source(R"(
    int main() {
      int z = 0;
      print_int(5 / z);
      return 0;
    })");
  EXPECT_EQ(result.status, ir::RunStatus::kTrapDivide);
}

TEST(Interp, OutOfBoundsTraps) {
  auto result = run_source(R"(
    int g[4];
    int main() {
      long big = 99999999L;
      g[big] = 1;
      return 0;
    })");
  EXPECT_EQ(result.status, ir::RunStatus::kTrapMemory);
}

TEST(Interp, AccessesInTheLastBytesBelowTwoToTheSixtyFourTrap) {
  // a[-1025] addresses 2^64 - 4, where `addr + size` wraps to 0: the
  // interpreter used to read four bytes before its buffer and succeed.
  auto result = run_source(
      "int a[4]; int main() { int i = -1025; print_int(a[i]); return 0; }");
  EXPECT_EQ(result.status, ir::RunStatus::kTrapMemory);
  EXPECT_TRUE(result.output.empty());
  // Loads and stores of 1, 4 and 8 bytes at -1, -4 and -8: the global
  // sits at 0x1000, so these element indexes land there.
  struct Access {
    const char* type;
    int index;
  };
  for (const Access& access :
       {Access{"i8", -4097}, Access{"i32", -1025}, Access{"i64", -513}}) {
    const std::string type = access.type;
    const std::string head = "@g = global " + type + " x 4\n"
                             "define i32 @main() {\n"
                             "entry:\n"
                             "  %0 = gep " + type + "* @g, " +
                             std::to_string(access.index) + "\n";
    for (const std::string& body :
         {"  %1 = load " + type + ", %0\n",
          "  store " + type + " 1, %0\n"}) {
      DiagEngine diags;
      auto module =
          ir::parse_module(head + body + "  ret i32 0\n}\n", diags);
      ASSERT_NE(module, nullptr) << diags.render();
      EXPECT_EQ(ir::interpret(*module).status, ir::RunStatus::kTrapMemory)
          << type << ": " << body;
    }
  }
}

TEST(Interp, ArenasSmallerThanTheFirstPageTrap) {
  // The bounds check subtracts the access size from the arena size, which
  // would wrap for an arena of fewer than 8 bytes; any arena below the
  // unmapped first page traps before main runs.
  for (std::size_t bytes : {0u, 1u, 4u, 7u, 8u, 64u, 0xfffu}) {
    ir::InterpOptions options;
    options.memory_bytes = bytes;
    EXPECT_EQ(run_source("int main() { return 0; }", options).status,
              ir::RunStatus::kTrapMemory)
        << bytes;
  }
  ir::InterpOptions options;
  options.memory_bytes = 1u << 16;
  EXPECT_TRUE(run_source("int main() { return 0; }", options).ok());
}

TEST(Interp, StepBudgetTraps) {
  ir::InterpOptions options;
  options.max_steps = 1000;
  auto result = run_source("int main() { while (1) { } return 0; }", options);
  EXPECT_EQ(result.status, ir::RunStatus::kTrapSteps);
}

TEST(Interp, DeepRecursionTraps) {
  auto result = run_source(R"(
    int f(int n) { return f(n + 1); }
    int main() { return f(0); })");
  EXPECT_EQ(result.status, ir::RunStatus::kTrapCallDepth);
}

TEST(Interp, IncrementDecrementSemantics) {
  auto result = run_source(R"(
    int main() {
      int x = 5;
      print_int(x++);
      print_int(x);
      print_int(++x);
      print_int(x--);
      print_int(--x);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), 5);
  EXPECT_EQ(as_i64(result.output[1]), 6);
  EXPECT_EQ(as_i64(result.output[2]), 7);
  EXPECT_EQ(as_i64(result.output[3]), 7);
  EXPECT_EQ(as_i64(result.output[4]), 5);
}

TEST(Interp, BreakAndContinue) {
  auto result = run_source(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 100; i++) {
        if (i % 2 == 0) continue;
        if (i > 10) break;
        s += i;
      }
      print_int(s);
      return 0;
    })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(as_i64(result.output[0]), 1 + 3 + 5 + 7 + 9);
}

}  // namespace
}  // namespace ferrum
