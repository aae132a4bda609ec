#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "support/parallel.h"
#include "telemetry/export.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using pipeline::Technique;
using telemetry::Json;

// ----------------------------------------------------------------- JSON

TEST(Json, DumpIsSortedAndDeterministic) {
  Json a = Json::object();
  a["zulu"] = 1;
  a["alpha"] = 2;
  a["mike"] = Json::array();
  a["mike"].push_back("x");
  Json b = Json::object();
  b["mike"] = Json::array();
  b["mike"].push_back("x");
  b["alpha"] = 2;
  b["zulu"] = 1;
  EXPECT_EQ(a.dump(), b.dump());
  // Sorted keys: alpha before mike before zulu.
  const std::string text = a.dump();
  EXPECT_LT(text.find("alpha"), text.find("mike"));
  EXPECT_LT(text.find("mike"), text.find("zulu"));
}

TEST(Json, RoundTripsThroughParse) {
  Json json = Json::object();
  json["int"] = -42;
  json["uint"] = std::uint64_t{18446744073709551615ull};
  json["double"] = 0.1;
  json["whole_double"] = 2.0;
  json["string"] = "line\nbreak \"quoted\"";
  json["flag"] = true;
  json["nothing"] = Json();
  json["nested"]["list"] = Json::array();
  json["nested"]["list"].push_back(1);
  json["nested"]["list"].push_back(2);

  const std::string text = json.dump();
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  // Byte-exact round trip: parse(dump(x)).dump() == dump(x).
  EXPECT_EQ(parsed->dump(), text);
  EXPECT_EQ(parsed->find("int")->as_int(), -42);
  EXPECT_EQ(parsed->find("uint")->as_uint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parsed->find("double")->as_double(), 0.1);
  // Whole doubles keep their ".0" so the kind survives the round trip.
  EXPECT_EQ(parsed->find("whole_double")->kind(), Json::Kind::kDouble);
  EXPECT_EQ(parsed->find("string")->as_string(), "line\nbreak \"quoted\"");
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1, 2,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_TRUE(Json::parse("{\"a\": [1, 2.5, \"s\", null, true]}")
                  .has_value());
  // Numbers follow RFC 8259: no plus sign, no bare or trailing point, no
  // leading zero, an exponent needs digits.
  for (const char* number :
       {"+1", ".5", "1.", "01", "-01", "-", "1e", "1e+", "1.e5", "-.5",
        "0x10", "1E+-2", "--1", "[1.]", "[+1]", "{\"a\": 01}"}) {
    EXPECT_FALSE(Json::parse(number).has_value()) << number;
  }
  for (const char* number : {"0", "-0", "0.5", "-0.5", "1e5", "1E-5",
                             "1.5e+300", "10", "-10", "0e0"}) {
    EXPECT_TRUE(Json::parse(number).has_value()) << number;
  }
  // Past double's range a number does not parse; past int64/uint64 an
  // integer reads as a double.
  EXPECT_FALSE(Json::parse("1e400").has_value());
  EXPECT_FALSE(Json::parse("-1e-400").has_value());
  const auto wide = Json::parse("18446744073709551616");
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->kind(), Json::Kind::kDouble);
  EXPECT_EQ(wide->as_double(), 18446744073709551616.0);
  const auto low = Json::parse("-9223372036854775809");
  ASSERT_TRUE(low.has_value());
  EXPECT_EQ(low->kind(), Json::Kind::kDouble);
  // Strings hold no raw control bytes; their escapes still parse.
  EXPECT_FALSE(Json::parse("\"tab\there\"").has_value());
  EXPECT_FALSE(Json::parse("\"line\nbreak\"").has_value());
  EXPECT_FALSE(Json::parse(std::string("\"nul\0\"", 6)).has_value());
  EXPECT_FALSE(Json::parse("{\"k\x1f\": 1}").has_value());
  const auto escaped = Json::parse("\"tab\\t \\u001f \x7f\"");
  ASSERT_TRUE(escaped.has_value());
  EXPECT_EQ(escaped->as_string(), "tab\t \x1f \x7f");
  // A \u escape is one UTF-8 character, at each width's edges; a
  // surrogate pair is one 4-byte character, and a lone or reversed
  // surrogate names none.
  const std::pair<const char*, const char*> characters[] = {
      {"\"\\u007f\"", "\x7f"},
      {"\"\\u0080\"", "\xc2\x80"},
      {"\"\\u07ff\"", "\xdf\xbf"},
      {"\"\\u0800\"", "\xe0\xa0\x80"},
      {"\"\\uffff\"", "\xef\xbf\xbf"},
      {"\"\\ud83d\\ude00\"", "\xf0\x9f\x98\x80"},
      {"\"\\uD800\\uDC00\"", "\xf0\x90\x80\x80"},
      {"\"\\udbff\\udfff\"", "\xf4\x8f\xbf\xbf"},
  };
  for (const auto& [text, bytes] : characters) {
    const auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->as_string(), bytes) << text;
  }
  for (const char* text :
       {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ude00\\ud83d\"",
        "\"\\ud83d\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\n\"",
        "\"\\ud83d\\u0041\"", "\"\\ud83d\\ude0\"", "\"\\ud83d\\"}) {
    EXPECT_FALSE(Json::parse(text).has_value()) << text;
  }
}

/// `depth` arrays nested in one another, innermost holding `leaf`.
std::string nested_arrays(int depth, const std::string& leaf = "") {
  return std::string(static_cast<std::size_t>(depth), '[') + leaf +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, NestingIsBoundedAtMaxDepth) {
  // The parser recurses once per level, so nesting is capped: the limit
  // parses, one more level fails cleanly, and a 200 KB frame of nested
  // brackets (which overflowed the stack before the cap) fails the same
  // way instead of crashing.
  const auto at_limit = Json::parse(nested_arrays(Json::kMaxDepth, "7"));
  ASSERT_TRUE(at_limit.has_value());
  const Json* leaf = &*at_limit;
  for (int level = 0; level < Json::kMaxDepth; ++level) {
    ASSERT_EQ(leaf->kind(), Json::Kind::kArray);
    ASSERT_EQ(leaf->size(), 1u);
    leaf = &leaf->items().front();
  }
  EXPECT_EQ(leaf->as_int(), 7);
  EXPECT_FALSE(Json::parse(nested_arrays(Json::kMaxDepth + 1)).has_value());
  EXPECT_FALSE(Json::parse(nested_arrays(100'000)).has_value());

  // Objects and arrays count alike: each {"k":[...]} pair is two levels.
  const auto object_pairs = [](int pairs) {
    std::string text;
    for (int i = 0; i < pairs; ++i) text += "{\"k\":[";
    for (int i = 0; i < pairs; ++i) text += "]}";
    return text;
  };
  static_assert(Json::kMaxDepth % 2 == 0);
  EXPECT_TRUE(Json::parse(object_pairs(Json::kMaxDepth / 2)).has_value());
  EXPECT_FALSE(
      Json::parse("[" + object_pairs(Json::kMaxDepth / 2) + "]").has_value());
}

/// Holds every kind, an empty array and object, nesting three deep and
/// keys inserted out of order, including ones that need escaping and one
/// past ASCII.
Json pinned_document() {
  Json scalars = Json::array();
  scalars.push_back(Json());
  scalars.push_back(true);
  scalars.push_back(false);
  scalars.push_back(0);
  scalars.push_back(std::numeric_limits<std::int64_t>::min());
  scalars.push_back(std::numeric_limits<std::int64_t>::max());
  scalars.push_back(std::numeric_limits<std::uint64_t>::max());
  Json doubles = Json::array();
  for (const double value :
       {0.1, 2.0, -0.0, 1.0 / 3.0, 1e21, 1e-7, 5e-324, DBL_MAX,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    doubles.push_back(value);
  }
  Json doc = Json::object();
  doc["\xc3\xa9"] = "e-acute key";
  doc["a"] = std::move(scalars);
  doc["Z"] = std::move(doubles);
  doc["\"quoted\"\tkey"] = 1;
  doc["string"] = std::string(
      "quote \" backslash \\ newline \n tab \t cr \r ctl \x01 ctl \x1f"
      " del \x7f utf-8 \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
  doc["empty_array"] = Json::array();
  doc["empty_object"] = Json::object();
  Json deep = Json::array();
  deep.push_back(3);
  deep.push_back(Json::array());
  deep.push_back(Json::object());
  doc["nested"]["one"]["two"] = std::move(deep);
  doc["nested"]["one"]["b"] = "sibling";
  return doc;
}

TEST(Json, WriterBytesPinned) {
  // Every artifact goes through dump(), so its exact bytes are pinned:
  // keys sorted as unsigned bytes, 2-space indentation, shortest
  // round-trip doubles with ".0" on whole ones, non-finite doubles as
  // null, and "\u00XX" only for control bytes (0x7f and UTF-8 pass
  // through).
  const std::string expected =
      "{\n"
      "  \"\\\"quoted\\\"\\tkey\": 1,\n"
      "  \"Z\": [\n"
      "    0.1,\n"
      "    2.0,\n"
      "    -0.0,\n"
      "    0.3333333333333333,\n"
      "    1e+21,\n"
      "    1e-07,\n"
      "    5e-324,\n"
      "    1.7976931348623157e+308,\n"
      "    null,\n"
      "    null,\n"
      "    null\n"
      "  ],\n"
      "  \"a\": [\n"
      "    null,\n"
      "    true,\n"
      "    false,\n"
      "    0,\n"
      "    -9223372036854775808,\n"
      "    9223372036854775807,\n"
      "    18446744073709551615\n"
      "  ],\n"
      "  \"empty_array\": [],\n"
      "  \"empty_object\": {},\n"
      "  \"nested\": {\n"
      "    \"one\": {\n"
      "      \"b\": \"sibling\",\n"
      "      \"two\": [\n"
      "        3,\n"
      "        [],\n"
      "        {}\n"
      "      ]\n"
      "    }\n"
      "  },\n"
      "  \"string\": \"quote \\\" backslash \\\\ newline \\n tab \\t cr \\r"
      " ctl \\u0001 ctl \\u001f del \x7f utf-8 \xc3\xa9 \xe2\x82\xac"
      " \xf0\x9f\x98\x80\",\n"
      "  \"\xc3\xa9\": \"e-acute key\"\n"
      "}\n";
  EXPECT_EQ(pinned_document().dump(), expected);
  // The parser reads the text back to the same bytes (the non-finite
  // doubles are nulls by then).
  const auto parsed = Json::parse(expected);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), expected);
}

TEST(Json, ParseKeepsTheLastDuplicateKey) {
  const auto parsed =
      Json::parse(R"({"b": 1, "a": 2, "b": 3, "c": 4, "a": 5})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->find("a")->as_int(), 5);
  EXPECT_EQ(parsed->find("b")->as_int(), 3);
  EXPECT_EQ(parsed->find("c")->as_int(), 4);
  EXPECT_EQ(parsed->dump(), "{\n  \"a\": 5,\n  \"b\": 3,\n  \"c\": 4\n}\n");
  // Duplicates in otherwise ascending order collapse the same way.
  const auto ascending = Json::parse(R"({"a": 1, "a": 2, "b": 3})");
  ASSERT_TRUE(ascending.has_value());
  EXPECT_EQ(ascending->size(), 2u);
  EXPECT_EQ(ascending->find("a")->as_int(), 2);
}

TEST(Json, AccessorsOnOtherKinds) {
  // Readers of another kind return an empty or zero value.
  const Json number(7);
  EXPECT_FALSE(number.as_bool());
  EXPECT_EQ(number.as_string(), "");
  EXPECT_TRUE(number.items().empty());
  EXPECT_TRUE(number.fields().empty());
  EXPECT_EQ(number.find("x"), nullptr);
  EXPECT_EQ(number.size(), 0u);
  EXPECT_EQ(Json("7").as_int(), 0);
  EXPECT_TRUE(Json::array().fields().empty());
  EXPECT_TRUE(Json::object().items().empty());
  // Null becomes the container its first mutator asks for.
  Json object;
  object["k"] = 1;
  EXPECT_TRUE(object.is_object());
  Json array;
  array.push_back(1);
  EXPECT_TRUE(array.is_array());
  // Mutators of another kind throw instead of keeping data that dump()
  // would never print.
  Json scalar(1);
  EXPECT_THROW(scalar["k"], std::logic_error);
  EXPECT_THROW(scalar.push_back(2), std::logic_error);
  EXPECT_THROW(scalar.reserve(2), std::logic_error);
  EXPECT_THROW(object.push_back(2), std::logic_error);
  EXPECT_THROW(array["k"], std::logic_error);
  EXPECT_THROW(Json().reserve(2), std::logic_error);
  EXPECT_EQ(scalar.dump(), "1\n");
  EXPECT_EQ(object.dump(), "{\n  \"k\": 1\n}\n");
  EXPECT_EQ(array.dump(), "[\n  1\n]\n");
}

/// One object of `keys` members "k000000".."k<keys-1>", in ascending or
/// descending key order.
std::string object_text(int keys, bool descending) {
  std::string text = "{";
  char member[32];
  for (int i = 0; i < keys; ++i) {
    const int k = descending ? keys - 1 - i : i;
    std::snprintf(member, sizeof(member), "%s\"k%06d\": %d",
                  i == 0 ? "" : ", ", k, k);
    text += member;
  }
  return text + "}";
}

TEST(Json, ParsesKeysInAnyOrderInLinearithmicTime) {
  // A service frame may hold one large object whose keys arrive in any
  // order; inserting them one at a time into sorted storage would be
  // quadratic. The descending parse must match the ascending one and
  // stay within 10x of its time, measured in this process (best of 3).
  constexpr int kKeys = 200'000;
  const std::string ascending_text = object_text(kKeys, false);
  const std::string descending_text = object_text(kKeys, true);
  double ascending_s = 1e9;
  double descending_s = 1e9;
  std::optional<Json> ascending;
  std::optional<Json> descending;
  for (int round = 0; round < 3; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    ascending = Json::parse(ascending_text);
    const auto t1 = std::chrono::steady_clock::now();
    descending = Json::parse(descending_text);
    const auto t2 = std::chrono::steady_clock::now();
    ascending_s = std::min(
        ascending_s, std::chrono::duration<double>(t1 - t0).count());
    descending_s = std::min(
        descending_s, std::chrono::duration<double>(t2 - t1).count());
  }
  ASSERT_TRUE(ascending.has_value());
  ASSERT_TRUE(descending.has_value());
  EXPECT_EQ(ascending->size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(descending->dump(), ascending->dump());
  EXPECT_EQ(descending->find("k000000")->as_int(), 0);
  EXPECT_EQ(descending->find("k199999")->as_int(), kKeys - 1);
  EXPECT_LT(descending_s, 10.0 * ascending_s)
      << "ascending " << ascending_s << " s, descending " << descending_s
      << " s";
}

// -------------------------------------------------------------- metrics

TEST(Metrics, HistogramBucketsByBitWidth) {
  telemetry::Histogram histogram;
  histogram.observe(0);
  histogram.observe(1);
  histogram.observe(2);
  histogram.observe(3);
  histogram.observe(1024);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 1030u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 1024u);
  EXPECT_EQ(histogram.bucket(0), 1u);  // value 0
  EXPECT_EQ(histogram.bucket(1), 1u);  // value 1
  EXPECT_EQ(histogram.bucket(2), 2u);  // values 2..3
  EXPECT_EQ(histogram.bucket(11), 1u); // values 1024..2047
  EXPECT_DOUBLE_EQ(histogram.mean(), 1030.0 / 5.0);
}

TEST(Metrics, RegistryNestsPathsInSnapshot) {
  telemetry::Registry registry;
  registry.counter("vm/inst/alu").add(7);
  registry.counter("vm/inst/vec").add(3);
  registry.gauge("campaign/sdc_rate").set(0.25);
  registry.histogram("campaign/latency").observe(16);
  { auto scope = registry.scope("wall/total"); }

  const Json snapshot = registry.to_json();
  ASSERT_NE(snapshot.find("vm"), nullptr);
  const Json* inst = snapshot.find("vm")->find("inst");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->find("alu")->as_uint(), 7u);
  EXPECT_EQ(inst->find("vec")->as_uint(), 3u);
  EXPECT_DOUBLE_EQ(
      snapshot.find("campaign")->find("sdc_rate")->as_double(), 0.25);
  EXPECT_NE(snapshot.find("wall"), nullptr);

  // The deterministic view drops timers (and only timers).
  const Json no_timers = registry.to_json(/*include_timers=*/false);
  EXPECT_EQ(no_timers.find("wall"), nullptr);
  EXPECT_NE(no_timers.find("vm"), nullptr);
}

TEST(Metrics, RegistryRejectsKindConflicts) {
  telemetry::Registry registry;
  registry.counter("a/b");
  EXPECT_THROW(registry.gauge("a/b"), std::logic_error);
  EXPECT_THROW(registry.histogram("a/b"), std::logic_error);
  // Same kind re-request returns the same handle.
  telemetry::Counter& first = registry.counter("a/b");
  telemetry::Counter& second = registry.counter("a/b");
  EXPECT_EQ(&first, &second);
}

// Hammer shared metrics from many threads; exact totals prove atomicity
// and the run doubles as the TSan target for the metrics layer.
TEST(Metrics, ThreadSafeUnderConcurrentMutation) {
  telemetry::Registry registry;
  telemetry::Counter& counter = registry.counter("hammer/count");
  telemetry::Histogram& histogram = registry.histogram("hammer/hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  ThreadPool pool(kThreads);
  pool.parallel_for_indexed(
      kThreads,
      [&](int, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          for (int i = 0; i < kPerThread; ++i) {
            counter.add(1);
            histogram.observe(static_cast<std::uint64_t>(i));
            // Concurrent lookups must also be safe.
            registry.counter("hammer/count");
          }
        }
      },
      /*grain=*/1);
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), kPerThread - 1);
}

// --------------------------------------------------------- VM profiler

// Differential test: the profiler's total dynamic instruction count must
// equal the VM's step count, origin counts must partition it, and site
// counts must partition fi_sites — on every workload.
TEST(VmProfile, TotalsMatchVmCountersOnAllWorkloads) {
  for (const auto& w : workloads::all()) {
    for (Technique technique : {Technique::kNone, Technique::kFerrum}) {
      auto build = pipeline::build(w.source, technique);
      vm::VmOptions options;
      options.profile = true;
      const vm::VmResult result = vm::run(build.program, options);
      ASSERT_TRUE(result.ok()) << w.name;
      ASSERT_TRUE(result.profile.has_value()) << w.name;
      const vm::VmProfile& profile = *result.profile;

      EXPECT_EQ(profile.total(), result.steps)
          << w.name << "/" << pipeline::technique_name(technique);
      std::uint64_t origin_total = 0;
      for (std::uint64_t count : profile.origin_counts) origin_total += count;
      EXPECT_EQ(origin_total, result.steps) << w.name;
      std::uint64_t site_total = 0;
      for (std::uint64_t count : profile.site_counts) site_total += count;
      EXPECT_EQ(site_total, result.fi_sites) << w.name;
    }
  }
}

TEST(VmProfile, HotBlocksSortedAndBounded) {
  const auto& w = workloads::by_name("pathfinder");
  auto build = pipeline::build(w.source, Technique::kNone);
  vm::VmOptions options;
  options.profile = true;
  const vm::VmResult result = vm::run(build.program, options);
  ASSERT_TRUE(result.ok());
  const auto& hot = result.profile->hot_blocks;
  ASSERT_FALSE(hot.empty());
  EXPECT_LE(hot.size(),
            static_cast<std::size_t>(vm::VmProfile::kMaxHotBlocks));
  for (std::size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].instructions, hot[i].instructions);
  }
}

TEST(VmProfile, AbsentUnlessRequested) {
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kNone);
  const vm::VmResult result = vm::run(build.program);
  EXPECT_FALSE(result.profile.has_value());
  EXPECT_FALSE(result.timing_stats.has_value());
}

// ---------------------------------------------------------- TimingStats

TEST(TimingStats, AttributionSumsToInstructionsAndCycles) {
  const auto& w = workloads::by_name("kmeans");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  vm::VmOptions options;
  options.timing = true;
  const vm::VmResult result = vm::run(build.program, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.timing_stats.has_value());
  const vm::TimingStats& stats = *result.timing_stats;

  EXPECT_EQ(stats.instructions, result.steps);
  std::uint64_t issue_total = 0;
  std::uint64_t busy_total = 0;
  for (int p = 0; p < vm::kPortClassCount; ++p) {
    busy_total += stats.busy_cycles[p];
    for (int o = 0; o < masm::kInstOriginCount; ++o) {
      issue_total += stats.issues[p][o];
    }
  }
  EXPECT_EQ(issue_total, result.steps);
  EXPECT_EQ(busy_total, result.steps);  // one busy-cycle tick per issue
}

// The paper's mechanism, measured: FERRUM's protection instructions
// (checks batched through XMM/YMM) peak on the vector port class, while
// hybrid's scalar xor+jne checks land on the ALU and branch classes.
TEST(TimingStats, FerrumChecksUseVectorPortHybridUsesAluBranch) {
  std::uint64_t ferrum_vec = 0, ferrum_alu = 0, ferrum_branch = 0;
  std::uint64_t hybrid_vec = 0, hybrid_alu = 0, hybrid_branch = 0;
  for (const char* name : {"kmeans", "pathfinder", "lud"}) {
    const auto& w = workloads::by_name(name);
    for (Technique technique : {Technique::kFerrum, Technique::kHybrid}) {
      auto build = pipeline::build(w.source, technique);
      vm::VmOptions options;
      options.timing = true;
      const vm::VmResult result = vm::run(build.program, options);
      ASSERT_TRUE(result.ok()) << name;
      const vm::TimingStats& stats = *result.timing_stats;
      const int prot = static_cast<int>(masm::InstOrigin::kProtection);
      const auto issues = [&](vm::PortClass port) {
        return stats.issues[static_cast<int>(port)][prot];
      };
      if (technique == Technique::kFerrum) {
        ferrum_vec += issues(vm::PortClass::kVec);
        ferrum_alu += issues(vm::PortClass::kAlu);
        ferrum_branch += issues(vm::PortClass::kBranch);
      } else {
        hybrid_vec += issues(vm::PortClass::kVec);
        hybrid_alu += issues(vm::PortClass::kAlu);
        hybrid_branch += issues(vm::PortClass::kBranch);
      }
    }
  }
  EXPECT_GT(ferrum_vec, ferrum_alu);
  EXPECT_GT(ferrum_vec, ferrum_branch);
  EXPECT_GT(hybrid_alu, hybrid_vec);
  EXPECT_GT(hybrid_branch, hybrid_vec);
}

TEST(TimingStats, StallsAreBounded) {
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kNone);
  vm::VmOptions options;
  options.timing = true;
  const vm::VmResult result = vm::run(build.program, options);
  ASSERT_TRUE(result.ok());
  const vm::TimingStats& stats = *result.timing_stats;
  // Total attributed slip can never exceed instructions * cycles; a loose
  // sanity bound that still catches wildly wrong accounting.
  EXPECT_LE(stats.stall_dependence + stats.stall_port,
            result.cycles * result.steps);
}

// ------------------------------------------------------------- campaign

// Campaign telemetry must be part of the determinism contract: the
// deterministic JSON view is byte-identical for FERRUM_JOBS = 1/2/8.
TEST(CampaignTelemetry, MetricsJsonIdenticalAcrossJobCounts) {
  const auto& w = workloads::by_name("backprop");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  std::string baseline;
  for (int jobs : {1, 2, 8}) {
    fault::CampaignOptions options;
    options.trials = 96;
    options.seed = 0xbeef;
    options.jobs = jobs;
    const auto result = fault::run_campaign(build.program, options);
    const std::string text = telemetry::to_json(result).dump();
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "jobs=" << jobs;
    }
    // Observability fields exist without harming determinism.
    EXPECT_EQ(result.trials_per_worker.size(),
              static_cast<std::size_t>(jobs == 1 ? 1 : jobs));
    std::uint64_t worker_total = 0;
    for (std::uint64_t n : result.trials_per_worker) worker_total += n;
    EXPECT_EQ(worker_total, static_cast<std::uint64_t>(result.trials()));
    EXPECT_GE(result.wall_seconds, 0.0);
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(CampaignTelemetry, LatencyHistogramMatchesSummary) {
  const auto& w = workloads::by_name("backprop");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 128;
  options.jobs = 2;
  const auto result = fault::run_campaign(build.program, options);
  std::uint64_t histogram_total = 0;
  for (std::uint64_t bucket : result.latency_histogram) {
    histogram_total += bucket;
  }
  EXPECT_EQ(histogram_total,
            static_cast<std::uint64_t>(result.latency_samples));
  // FERRUM detects faults, so a protected campaign should have samples.
  EXPECT_GT(result.latency_samples, 0);
}

// A telemetry-instrumented campaign under worker threads: shared Registry
// metrics fed from the ordered reduction plus per-worker counters. Runs
// under -DFERRUM_SANITIZE=thread in the sanitizer job.
TEST(CampaignTelemetry, InstrumentedCampaignUnderThreads) {
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  telemetry::Registry registry;
  fault::CampaignOptions options;
  options.trials = 64;
  options.jobs = 4;
  const auto result = fault::run_campaign(build.program, options);

  registry.counter("campaign/trials").add(
      static_cast<std::uint64_t>(result.trials()));
  for (int i = 0; i < 4; ++i) {
    registry
        .counter(std::string("campaign/outcome/") +
                 fault::outcome_name(static_cast<fault::Outcome>(i)))
        .add(static_cast<std::uint64_t>(result.counts[i]));
  }
  registry.gauge("campaign/sdc_rate").set(result.sdc_rate());
  const Json snapshot = registry.to_json(/*include_timers=*/false);
  const Json* campaign = snapshot.find("campaign");
  ASSERT_NE(campaign, nullptr);
  EXPECT_EQ(campaign->find("trials")->as_uint(), 64u);
  std::uint64_t outcome_total = 0;
  for (const auto& [name, value] : campaign->find("outcome")->fields()) {
    (void)name;
    outcome_total += value.as_uint();
  }
  EXPECT_EQ(outcome_total, 64u);
}

// ------------------------------------------------------------ exporters

TEST(Export, CampaignJsonCarriesSchemaFields) {
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  fault::CampaignOptions options;
  options.trials = 32;
  options.jobs = 2;
  const auto result = fault::run_campaign(build.program, options);

  const Json metrics = telemetry::to_json(result);
  for (const char* key : {"trials", "outcomes", "total_sites",
                          "golden_steps", "sdc_rate", "latency",
                          "sdc_breakdown"}) {
    EXPECT_NE(metrics.find(key), nullptr) << key;
  }
  EXPECT_EQ(metrics.find("trials")->as_int(), 32);
  const Json wall = telemetry::wallclock_json(result);
  EXPECT_NE(wall.find("trials_per_worker"), nullptr);
  EXPECT_NE(wall.find("wall_seconds"), nullptr);
  // The artifact round-trips through the parser.
  const auto parsed = Json::parse(metrics.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), metrics.dump());
}

TEST(Export, ProfileJsonMatchesProfile) {
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  vm::VmOptions options;
  options.profile = true;
  const vm::VmResult result = vm::run(build.program, options);
  ASSERT_TRUE(result.ok());
  const Json json = telemetry::to_json(*result.profile);
  EXPECT_EQ(json.find("total")->as_uint(), result.steps);
  std::uint64_t by_op_total = 0;
  for (const auto& [op, count] : json.find("by_op")->fields()) {
    (void)op;
    by_op_total += count.as_uint();
  }
  EXPECT_EQ(by_op_total, result.steps);
}

// ---------------------------------------------------------- pass timing

TEST(PassTiming, PipelineRecordsStagesInOrder) {
  const auto& w = workloads::by_name("bfs");
  auto build = pipeline::build(w.source, Technique::kFerrum);
  std::vector<std::string> stages;
  for (const auto& [stage, seconds] : build.pass_seconds) {
    stages.push_back(stage);
    EXPECT_GE(seconds, 0.0) << stage;
  }
  const std::vector<std::string> want = {"frontend",       "lower",
                                         "asm-verify",     "protect",
                                         "protect-verify", "protect-check"};
  EXPECT_EQ(stages, want);
  EXPECT_TRUE(build.check_report.clean());
  EXPECT_GT(build.check_report.total_sites(), 0u);

  auto ir_build = pipeline::build(w.source, Technique::kIrEddi);
  std::vector<std::string> ir_stages;
  for (const auto& [stage, seconds] : ir_build.pass_seconds) {
    ir_stages.push_back(stage);
  }
  const std::vector<std::string> ir_want = {"frontend",   "ir-protect",
                                            "ir-verify",  "lower",
                                            "asm-verify", "protect-check"};
  EXPECT_EQ(ir_stages, ir_want);
}

}  // namespace
}  // namespace ferrum
