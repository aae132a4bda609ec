#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/env.h"
#include "support/rng.h"
#include "support/source_location.h"
#include "support/str.h"

namespace ferrum {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, KnownSplitmixSequence) {
  // Reference values from the splitmix64 paper implementation.
  std::uint64_t state = 1234567;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  std::uint64_t state2 = 1234567;
  EXPECT_EQ(first, splitmix64(state2));
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroBoundIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t value = rng.next_in_range(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    if (value == -3) saw_lo = true;
    if (value == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, FullInt64RangeIsNotDegenerate) {
  // Regression: [INT64_MIN, INT64_MAX] wraps the span computation to 0,
  // which used to collapse every draw to lo.
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kHi = std::numeric_limits<std::int64_t>::max();
  Rng rng(123);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(rng.next_in_range(kLo, kHi));
  EXPECT_GT(seen.size(), 60u);  // 64 draws over 2^64 values: all distinct
  EXPECT_NE(*seen.begin(), *seen.rbegin());
}

TEST(Rng, FullInt64RangeMatchesRawStream) {
  // The wrapped span consumes exactly one raw draw per value.
  Rng a(5);
  Rng b(5);
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kHi = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next_in_range(kLo, kHi),
              static_cast<std::int64_t>(b.next_u64()));
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, SplitIsIndependent) {
  Rng a(5);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Env, ParseIntAcceptsWholeIntegers) {
  int out = 0;
  EXPECT_TRUE(parse_int("123", out));
  EXPECT_EQ(out, 123);
  EXPECT_TRUE(parse_int("-45", out));
  EXPECT_EQ(out, -45);
  EXPECT_TRUE(parse_int("0", out));
  EXPECT_EQ(out, 0);
}

TEST(Env, ParseIntRejectsGarbage) {
  int out = 77;
  EXPECT_FALSE(parse_int(nullptr, out));
  EXPECT_FALSE(parse_int("", out));
  EXPECT_FALSE(parse_int("abc", out));
  EXPECT_FALSE(parse_int("10O0", out));   // the motivating typo
  EXPECT_FALSE(parse_int("12x", out));
  EXPECT_FALSE(parse_int("1 2", out));
  EXPECT_FALSE(parse_int("99999999999999999999", out));  // overflow
  EXPECT_EQ(out, 77);  // untouched on failure
}

TEST(Env, EnvIntFallsBackOnGarbage) {
  // Regression: atoi silently read FERRUM_TRIALS=10O0 as 10 and
  // FERRUM_TRIALS=abc as 0 trials.
  ::setenv("FERRUM_TEST_KNOB", "10O0", 1);
  EXPECT_EQ(env_int("FERRUM_TEST_KNOB", 400), 400);
  ::setenv("FERRUM_TEST_KNOB", "abc", 1);
  EXPECT_EQ(env_int("FERRUM_TEST_KNOB", 400), 400);
  ::unsetenv("FERRUM_TEST_KNOB");
}

TEST(Env, EnvIntRejectsNonPositiveWhereCountRequired) {
  ::setenv("FERRUM_TEST_KNOB", "0", 1);
  EXPECT_EQ(env_int("FERRUM_TEST_KNOB", 400), 400);
  ::setenv("FERRUM_TEST_KNOB", "-8", 1);
  EXPECT_EQ(env_int("FERRUM_TEST_KNOB", 400), 400);
  // ... but a relaxed floor admits them.
  EXPECT_EQ(env_int("FERRUM_TEST_KNOB", 400, -100), -8);
  ::unsetenv("FERRUM_TEST_KNOB");
}

TEST(Env, EnvIntReadsValidValues) {
  ::setenv("FERRUM_TEST_KNOB", "2500", 1);
  EXPECT_EQ(env_int("FERRUM_TEST_KNOB", 400), 2500);
  ::unsetenv("FERRUM_TEST_KNOB");
  EXPECT_EQ(env_int("FERRUM_TEST_KNOB", 400), 400);  // unset -> fallback
}

// The shared experiment knobs (FERRUM_TRIALS / FERRUM_SCALE / FERRUM_JOBS)
// are defined once in support/env and reused by benches and ferrumc.
TEST(Env, SharedKnobTrials) {
  ::unsetenv("FERRUM_TRIALS");
  EXPECT_EQ(env_trials(), 1000);
  EXPECT_EQ(env_trials(250), 250);
  ::setenv("FERRUM_TRIALS", "64", 1);
  EXPECT_EQ(env_trials(), 64);
  ::setenv("FERRUM_TRIALS", "0", 1);  // below the floor of 1
  EXPECT_EQ(env_trials(), 1000);
  ::unsetenv("FERRUM_TRIALS");
}

TEST(Env, SharedKnobScale) {
  ::unsetenv("FERRUM_SCALE");
  EXPECT_EQ(env_scale(), 2);
  EXPECT_EQ(env_scale(5), 5);
  ::setenv("FERRUM_SCALE", "3", 1);
  EXPECT_EQ(env_scale(), 3);
  ::setenv("FERRUM_SCALE", "junk", 1);
  EXPECT_EQ(env_scale(), 2);
  ::unsetenv("FERRUM_SCALE");
}

TEST(Env, SharedKnobJobs) {
  ::setenv("FERRUM_JOBS", "3", 1);
  EXPECT_EQ(env_jobs(), 3);
  ::unsetenv("FERRUM_JOBS");
  EXPECT_GE(env_jobs(), 1);  // hardware concurrency, at least 1
}

TEST(Str, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Str, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(starts_with("ferrum", "fer"));
  EXPECT_FALSE(starts_with("fe", "fer"));
  EXPECT_TRUE(ends_with("ferrum", "rum"));
  EXPECT_FALSE(ends_with("um", "rum"));
}

TEST(Str, FormatDoubleRoundTrips) {
  for (double value : {0.0, 1.5, -2.25, 3.141592653589793, 1e-12, 1e300}) {
    const std::string text = format_double(value);
    EXPECT_EQ(std::stod(text), value) << text;
  }
}

TEST(Support, FormatDoublePinned) {
  // format_double feeds printed IR, every JSON artifact and cache-key
  // material, so its bytes are pinned: the shortest "%.*g" precision
  // that reads back, exponents with at least two digits, and the
  // printf spellings of the non-finite values.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, const char*> cases[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {0.1, "0.1"},
      {0.5, "0.5"},
      {1.0, "1"},
      {2.0, "2"},
      {-2.5, "-2.5"},
      {100.0, "1e+02"},
      {1e15, "1e+15"},
      {1e16, "1e+16"},
      {1e17, "1e+17"},
      {1e21, "1e+21"},
      {1e22, "1e+22"},
      {1e100, "1e+100"},
      {123456789.0, "123456789"},
      {1.0 / 3.0, "0.3333333333333333"},
      {2.0 / 3.0, "0.6666666666666666"},
      {0.1 + 0.2, "0.30000000000000004"},
      {3.141592653589793, "3.141592653589793"},
      {1e-5, "1e-05"},
      {1e-7, "1e-07"},
      {0.0001, "0.0001"},
      {1.5e-300, "1.5e-300"},
      {5e-324, "5e-324"},
      {2.2250738585072014e-308, "2.2250738585072014e-308"},
      {1.7976931348623157e308, "1.7976931348623157e+308"},
      {-1.7976931348623157e308, "-1.7976931348623157e+308"},
      {9007199254740992.0, "9007199254740992"},
      {9007199254740994.0, "9007199254740994"},
      {123456789012345678.0, "1.2345678901234568e+17"},
      {0.000123456789, "0.000123456789"},
      {kInf, "inf"},
      {-kInf, "-inf"},
      {kNan, "nan"},
      {-kNan, "-nan"},
  };
  for (const auto& [value, text] : cases) {
    EXPECT_EQ(format_double(value), text);
  }
}

TEST(Str, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Diag, CollectsAndRenders) {
  DiagEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.error({3, 7}, "bad thing");
  diags.warning({1, 1}, "iffy thing");
  diags.note({}, "context");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1);
  const std::string rendered = diags.render();
  EXPECT_NE(rendered.find("3:7: error: bad thing"), std::string::npos);
  EXPECT_NE(rendered.find("warning: iffy thing"), std::string::npos);
  EXPECT_NE(rendered.find("note: context"), std::string::npos);
}

}  // namespace
}  // namespace ferrum
