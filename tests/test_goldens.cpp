// Golden-output regression pins. The workloads are the measurement
// instruments of every experiment: if a frontend/backend/VM change shifts
// any of their outputs, the campaigns silently measure a different
// program. These tests pin the exact output streams (raw 64-bit images)
// so such a shift fails loudly instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.h"
#include "check/flow.h"
#include "check/prune.h"
#include "check/sections.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/compose.h"
#include "fuzz_program.h"
#include "masm/fault_site.h"
#include "masm/parser.h"
#include "pipeline/pipeline.h"
#include "pipeline/selective.h"
#include "support/hash.h"
#include "support/source_location.h"
#include "telemetry/export.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using pipeline::Technique;

std::vector<std::uint64_t> output_of(const std::string& name) {
  const auto& w = workloads::by_name(name);
  auto build = pipeline::build(w.source, Technique::kNone);
  const vm::VmResult result = vm::run(build.program);
  EXPECT_TRUE(result.ok()) << name;
  return result.output;
}

std::uint64_t bits_of(double value) {
  std::uint64_t raw;
  std::memcpy(&raw, &value, sizeof(raw));
  return raw;
}

TEST(Goldens, Bfs) {
  EXPECT_EQ(output_of("bfs"), (std::vector<std::uint64_t>{6224}));
}

TEST(Goldens, Pathfinder) {
  EXPECT_EQ(output_of("pathfinder"), (std::vector<std::uint64_t>{5136}));
}

TEST(Goldens, Needle) {
  const auto output = output_of("needle");
  ASSERT_EQ(output.size(), 1u);
  // Negative checksum: stored as a two's-complement image.
  EXPECT_EQ(static_cast<std::int64_t>(output[0]), -270);
}

TEST(Goldens, ExactPins) {
  EXPECT_EQ(output_of("backprop"),
            (std::vector<std::uint64_t>{13850228365716951309ULL}));
  EXPECT_EQ(output_of("lud"),
            (std::vector<std::uint64_t>{4660044027968576203ULL}));
  EXPECT_EQ(output_of("knn"),
            (std::vector<std::uint64_t>{4637023936443716826ULL, 407}));
  EXPECT_EQ(output_of("kmeans"),
            (std::vector<std::uint64_t>{4648289880018799224ULL, 83}));
  EXPECT_EQ(output_of("particlefilter"),
            (std::vector<std::uint64_t>{35317}));
}

TEST(Goldens, Backprop) {
  const auto output = output_of("backprop");
  ASSERT_EQ(output.size(), 1u);
  // A finite double; pin its exact bit pattern.
  double value;
  std::memcpy(&value, &output[0], sizeof(value));
  EXPECT_TRUE(value == value);  // not NaN
  EXPECT_EQ(output[0], bits_of(value));
  // Pin against drift: recompute must match exactly.
  EXPECT_EQ(output_of("backprop"), output);
}

TEST(Goldens, AllWorkloadsStablePinned) {
  // Full pin: record the exact stream of every workload. If an intended
  // change shifts these, re-run `ferrumc run` and update deliberately.
  struct Pin {
    const char* name;
    std::size_t outputs;
  };
  const Pin pins[] = {
      {"backprop", 1}, {"bfs", 1},    {"pathfinder", 1},
      {"lud", 1},      {"needle", 1}, {"knn", 2},
      {"kmeans", 2},   {"particlefilter", 1},
  };
  for (const Pin& pin : pins) {
    const auto output = output_of(pin.name);
    EXPECT_EQ(output.size(), pin.outputs) << pin.name;
    // Deterministic across repeated builds and runs.
    EXPECT_EQ(output_of(pin.name), output) << pin.name;
  }
}

TEST(Goldens, FloatOutputsAreFinite) {
  for (const char* name : {"backprop", "lud", "knn", "kmeans"}) {
    const auto output = output_of(name);
    ASSERT_FALSE(output.empty()) << name;
    double value;
    std::memcpy(&value, &output[0], sizeof(value));
    EXPECT_TRUE(value == value) << name << " produced NaN";
    EXPECT_LT(value, 1e15) << name;
    EXPECT_GT(value, -1e15) << name;
  }
}

/// One timing-model pin: modelled cycles, instructions, the three stall
/// counters (dependence, port, issue width) and per-port busy cycles.
struct CyclePin {
  const char* name;
  Technique technique;
  int scale;
  std::uint64_t cycles;
  std::uint64_t instructions;
  std::uint64_t stalls[3];
  std::uint64_t busy[vm::kPortClassCount];
};

TEST(Goldens, ModelledCyclesPinned) {
  // The paper's Fig 11 reads these counts. A change to the timing model's
  // mechanics (how it decodes, orders or stores what an instruction
  // needs) must not move a single cycle; a deliberate change to the
  // model updates this table.
  const CyclePin pins[] = {
      {"backprop", Technique::kNone, 1, 103955, 66394,
       {2689578630, 267864629, 1},
       {20276, 21373, 6024, 8514, 689, 8668, 850}},
      {"backprop", Technique::kIrEddi, 1, 172772, 162023,
       {10468065593, 440950737, 1},
       {53340, 52750, 16048, 17327, 1265, 19593, 1700}},
      {"backprop", Technique::kHybrid, 1, 218011, 322796,
       {22012849718, 480617562, 0},
       {110500, 71922, 20612, 75182, 25656, 17224, 1700}},
      {"backprop", Technique::kFerrum, 1, 186413, 357395,
       {17250402571, 461763774, 0},
       {80846, 66448, 17875, 62886, 110416, 17224, 1700}},
      {"bfs", Technique::kNone, 1, 11794, 8364,
       {39266431, 5438217, 3},
       {3469, 2797, 828, 1173, 0, 0, 97}},
      {"bfs", Technique::kIrEddi, 1, 25264, 22397,
       {219009039, 10822972, 1},
       {9551, 7517, 2514, 2621, 0, 0, 194}},
      {"bfs", Technique::kHybrid, 1, 22718, 32111,
       {253864041, 9801975, 0},
       {16207, 6470, 1266, 7974, 0, 0, 194}},
      {"bfs", Technique::kFerrum, 1, 16061, 37406,
       {142990041, 9926712, 0},
       {11000, 5594, 828, 5286, 14504, 0, 194}},
      {"pathfinder", Technique::kNone, 1, 62512, 41352,
       {1132548843, 121644755, 1},
       {15362, 14666, 3656, 7028, 0, 0, 640}},
      {"pathfinder", Technique::kIrEddi, 1, 121720, 107647,
       {5520026449, 210386777, 1},
       {43901, 37011, 11673, 13782, 0, 0, 1280}},
      {"pathfinder", Technique::kHybrid, 1, 115307, 158343,
       {6409095430, 166628742, 0},
       {76295, 34374, 6177, 40217, 0, 0, 1280}},
      {"pathfinder", Technique::kFerrum, 1, 86058, 185206,
       {4398342403, 218066935, 0},
       {51088, 29332, 3656, 28888, 70962, 0, 1280}},
      {"lud", Technique::kNone, 1, 21078, 12983,
       {114959704, 8160601, 3},
       {4878, 4415, 893, 1388, 73, 1052, 284}},
      {"lud", Technique::kIrEddi, 1, 33121, 31189,
       {408277667, 12146887, 3},
       {11945, 10587, 2671, 2864, 145, 2409, 568}},
      {"lud", Technique::kHybrid, 1, 42616, 59694,
       {869690727, 12679922, 0},
       {24069, 12876, 2916, 14113, 3048, 2104, 568}},
      {"lud", Technique::kFerrum, 1, 35895, 67660,
       {696508693, 13323268, 0},
       {17196, 12040, 2498, 10338, 22916, 2104, 568}},
      {"needle", Technique::kNone, 1, 34632, 29283,
       {393963153, 26848799, 1},
       {13641, 10455, 2286, 2836, 0, 0, 65}},
      {"needle", Technique::kIrEddi, 1, 66418, 72204,
       {1768848545, 47305974, 1},
       {34116, 25131, 6315, 6512, 0, 0, 130}},
      {"needle", Technique::kHybrid, 1, 79363, 116453,
       {2927299836, 54618170, 0},
       {61414, 23268, 3465, 28176, 0, 0, 130}},
      {"needle", Technique::kFerrum, 1, 59014, 136415,
       {1741318006, 43165921, 0},
       {42574, 20910, 2286, 17027, 53488, 0, 130}},
      {"knn", Technique::kNone, 1, 37397, 22389,
       {363122976, 43060778, 1},
       {4501, 7882, 2205, 3293, 134, 3678, 696}},
      {"knn", Technique::kIrEddi, 1, 70368, 55590,
       {1574060472, 92747544, 1},
       {14440, 18974, 5738, 6636, 262, 8458, 1082}},
      {"knn", Technique::kHybrid, 1, 83978, 116372,
       {3246415063, 93342108, 0},
       {31967, 29002, 8824, 26803, 11028, 7356, 1392}},
      {"knn", Technique::kFerrum, 1, 72296, 123606,
       {2603033325, 100407150, 0},
       {23478, 26560, 7603, 23702, 33515, 7356, 1392}},
      {"kmeans", Technique::kNone, 1, 121618, 93007,
       {4484730709, 372875638, 1},
       {16781, 39195, 10133, 10253, 489, 15724, 432}},
      {"kmeans", Technique::kIrEddi, 1, 242774, 237625,
       {21842982526, 678081199, 1},
       {53313, 95387, 26061, 24599, 617, 36784, 864}},
      {"kmeans", Technique::kHybrid, 1, 294941, 472071,
       {42122049190, 674741050, 0},
       {124995, 127564, 34720, 107461, 45019, 31448, 864}},
      {"kmeans", Technique::kFerrum, 1, 160955, 430313,
       {12829122840, 353361910, 0},
       {85389, 79432, 10654, 68080, 154446, 31448, 864}},
      {"particlefilter", Technique::kNone, 1, 178543, 107699,
       {7510956704, 809787871, 3},
       {28530, 35177, 12022, 14381, 2109, 12866, 2614}},
      {"particlefilter", Technique::kIrEddi, 1, 305243, 270710,
       {31139204515, 1479543760, 3},
       {78730, 89727, 32469, 30715, 4199, 29642, 5228}},
      {"particlefilter", Technique::kHybrid, 1, 300435, 484018,
       {42432722833, 1134174289, 0},
       {164155, 106008, 29849, 112750, 40756, 25272, 5228}},
      {"particlefilter", Technique::kFerrum, 1, 247683, 531658,
       {30566043097, 1025596818, 2},
       {116408, 94928, 24309, 91189, 174324, 25272, 5228}},
      {"backprop", Technique::kNone, 2, 198711, 128781,
       {9854736493, 981344468, 1},
       {39105, 41849, 11631, 16416, 1320, 16970, 1490}},
      {"backprop", Technique::kIrEddi, 2, 331788, 314512,
       {38568808467, 1625224972, 1},
       {103123, 103186, 30995, 33465, 2415, 38348, 2980}},
      {"backprop", Technique::kHybrid, 2, 423381, 628094,
       {82504396002, 1808724439, 0},
       {213894, 140862, 40213, 146180, 50249, 33716, 2980}},
      {"backprop", Technique::kFerrum, 2, 361468, 695031,
       {64242996614, 1721909484, 0},
       {156361, 130248, 34906, 122293, 214527, 33716, 2980}},
      {"bfs", Technique::kNone, 2, 20012, 14828,
       {113041477, 16100358, 3},
       {5971, 5060, 1506, 2193, 0, 0, 98}},
      {"bfs", Technique::kIrEddi, 2, 43810, 39704,
       {659031154, 32838788, 1},
       {16732, 13486, 4492, 4798, 0, 0, 196}},
      {"bfs", Technique::kHybrid, 2, 38418, 56699,
       {714560810, 28340812, 0},
       {28251, 11772, 2332, 14148, 0, 0, 196}},
      {"bfs", Technique::kFerrum, 2, 26551, 65933,
       {349437406, 27847097, 0},
       {19000, 10120, 1506, 9493, 25618, 0, 196}},
      {"pathfinder", Technique::kNone, 2, 94944, 68357,
       {2720370313, 291495335, 1},
       {25070, 25630, 5530, 11487, 0, 0, 640}},
      {"pathfinder", Technique::kIrEddi, 2, 192094, 180177,
       {13975174009, 527201600, 1},
       {73290, 64523, 18507, 22577, 0, 0, 1280}},
      {"pathfinder", Technique::kHybrid, 2, 185766, 265119,
       {16579410200, 422582658, 0},
       {126622, 60060, 9930, 67227, 0, 0, 1280}},
      {"pathfinder", Technique::kFerrum, 2, 132723, 309636,
       {9668407600, 569484075, 0},
       {83466, 51260, 5530, 47482, 120618, 0, 1280}},
      {"lud", Technique::kNone, 2, 42090, 25919,
       {443238078, 32979813, 3},
       {9735, 8821, 1776, 2770, 145, 2104, 568}},
      {"lud", Technique::kIrEddi, 2, 66125, 62284,
       {1575629620, 49751095, 3},
       {23849, 21152, 5326, 5715, 289, 4817, 1136}},
      {"lud", Technique::kHybrid, 2, 85140, 119228,
       {3356265161, 54037466, 0},
       {48055, 25730, 5820, 28187, 6092, 4208, 1136}},
      {"lud", Technique::kFerrum, 2, 71701, 135123,
       {2643230910, 54214246, 0},
       {34330, 24060, 4985, 20646, 45758, 4208, 1136}},
      {"needle", Technique::kNone, 2, 66164, 57153,
       {1426876702, 97397348, 1},
       {26763, 20549, 4371, 5404, 0, 0, 66}},
      {"needle", Technique::kIrEddi, 2, 127538, 140900,
       {6476598817, 173008717, 1},
       {66854, 49314, 12105, 12495, 0, 0, 132}},
      {"needle", Technique::kHybrid, 2, 154522, 227944,
       {11025538024, 205674665, 0},
       {120397, 45680, 6662, 55073, 0, 0, 132}},
      {"needle", Technique::kFerrum, 2, 114250, 266947,
       {6356063466, 157420098, 0},
       {83414, 41098, 4371, 33010, 104922, 0, 132}},
      {"knn", Technique::kNone, 2, 61299, 39336,
       {1001836484, 110933478, 1},
       {7068, 14592, 3685, 5744, 139, 7100, 1008}},
      {"knn", Technique::kIrEddi, 2, 121068, 98289,
       {4698794867, 237364108, 1},
       {24172, 34889, 9713, 11582, 267, 16270, 1396}},
      {"knn", Technique::kHybrid, 2, 150563, 212299,
       {10392744898, 247413344, 0},
       {54644, 55132, 16659, 48625, 21023, 14200, 2016}},
      {"knn", Technique::kFerrum, 2, 127803, 223399,
       {8051487940, 276408806, 0},
       {40121, 50636, 14411, 43388, 58627, 14200, 2016}},
      {"kmeans", Technique::kNone, 2, 229728, 180510,
       {15896035769, 1331105249, 1},
       {31623, 77195, 19550, 19649, 849, 31164, 480}},
      {"kmeans", Technique::kIrEddi, 2, 465799, 462238,
       {79927756432, 2487482784, 1},
       {101889, 187674, 50373, 47498, 977, 72867, 960}},
      {"kmeans", Technique::kHybrid, 2, 572202, 923256,
       {157131430823, 2534013050, 0},
       {240614, 252146, 68428, 209838, 88942, 62328, 960}},
      {"kmeans", Technique::kFerrum, 2, 304930, 836375,
       {42307086863, 1164459670, 0},
       {163878, 156280, 20495, 132048, 300386, 62328, 960}},
      {"particlefilter", Technique::kNone, 2, 348021, 210697,
       {28374963402, 3051306998, 3},
       {55530, 69288, 23488, 28045, 4089, 25285, 4972}},
      {"particlefilter", Technique::kIrEddi, 2, 596240, 530475,
       {118244831470, 5654320825, 3},
       {153942, 176644, 63446, 60032, 8141, 58326, 9944}},
      {"particlefilter", Technique::kHybrid, 2, 587856, 948956,
       {162298751604, 4345650271, 0},
       {320742, 208984, 58692, 220904, 79976, 49714, 9944}},
      {"particlefilter", Technique::kFerrum, 2, 483340, 1041474,
       {114439832594, 3824963596, 2},
       {227165, 187086, 47743, 178558, 341264, 49714, 9944}},
  };
  for (const CyclePin& pin : pins) {
    const std::string label = std::string(pin.name) + " / " +
                              pipeline::technique_name(pin.technique) +
                              " x" + std::to_string(pin.scale);
    const auto build = pipeline::build(
        workloads::scaled(pin.name, pin.scale).source, pin.technique);
    vm::VmOptions options;
    options.timing = true;
    const vm::VmResult result = vm::run(build.program, options);
    ASSERT_TRUE(result.ok()) << label;
    ASSERT_TRUE(result.timing_stats.has_value()) << label;
    const vm::TimingStats& stats = *result.timing_stats;
    EXPECT_EQ(result.cycles, pin.cycles) << label;
    EXPECT_EQ(stats.instructions, pin.instructions) << label;
    EXPECT_EQ(stats.stall_dependence, pin.stalls[0]) << label;
    EXPECT_EQ(stats.stall_port, pin.stalls[1]) << label;
    EXPECT_EQ(stats.stall_issue_width, pin.stalls[2]) << label;
    for (int p = 0; p < vm::kPortClassCount; ++p) {
      EXPECT_EQ(stats.busy_cycles[p], pin.busy[p])
          << label << " port "
          << vm::port_class_name(static_cast<vm::PortClass>(p));
    }
  }
}

/// SHA-256 digests of the three static reports of one source, each over
/// every program the source yields with store-data sites off and on.
struct ReportPin {
  const char* name;
  const char* prune;
  const char* sections;
  const char* flow;
};

struct ReportDigests {
  std::string prune;
  std::string sections;
  std::string flow;
};

/// One program of the pinned corpus and, for a protected build, the
/// report its protect-check pass made (store-data sites off).
struct CorpusProgram {
  masm::AsmProgram program;
  std::optional<check::CheckReport> protect_check;
};

ReportDigests digest_reports(const std::vector<CorpusProgram>& programs) {
  Sha256 prune;
  Sha256 sections;
  Sha256 flow;
  for (const auto& [program, protect_check] : programs) {
    for (const bool store_data : {false, true}) {
      prune.update(check::prune::to_json(
                       check::prune::prune_program(program, {store_data}),
                       program)
                       .dump() +
                   "\n");
      sections.update(check::sections::to_json(
                          check::sections::build_sections(program,
                                                           {store_data}),
                          program)
                          .dump() +
                      "\n");
      flow.update(check::flow::to_json(
                      check::flow::flow_program(program, {store_data}),
                      program)
                      .dump() +
                  "\n");
    }
  }
  return {prune.hex_digest(), sections.hex_digest(), flow.hex_digest()};
}

std::vector<CorpusProgram> all_techniques(const std::string& source) {
  std::vector<CorpusProgram> programs;
  for (const Technique technique :
       {Technique::kNone, Technique::kIrEddi, Technique::kHybrid,
        Technique::kFerrum}) {
    pipeline::Build build = pipeline::build(source, technique);
    programs.push_back({std::move(build.program), std::nullopt});
    if (technique != Technique::kNone) {
      programs.back().protect_check = std::move(build.check_report);
    }
  }
  return programs;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(FERRUM_FIXTURES) + "/" + name);
  if (!in) throw std::runtime_error("cannot read fixture " + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The programs the static-report pins cover, by source: the 8
/// workloads, a self-recursive `fib` and a mutually recursive
/// `is_even`/`is_odd` MiniC program and 8 `fuzz_program` programs, each
/// under all four techniques, and edge_case.s: two functions, with an
/// unreachable block, a jmp to a label that does not resolve, a call to
/// an unknown function and a jcc in mid-block whose target is not a
/// detect block. Built once per test binary.
using Corpus =
    std::vector<std::pair<std::string, std::vector<CorpusProgram>>>;

const Corpus& pinned_corpus() {
  static const Corpus corpus = [] {
    Corpus sources;
    for (const auto& w : workloads::all()) {
      sources.emplace_back(w.name, all_techniques(w.source));
    }
    sources.emplace_back("fib", all_techniques(read_fixture("fib.c")));
    sources.emplace_back(
        "even-odd",
        all_techniques("int is_even(int n) {\n"
                       "  if (n == 0) { return 1; }\n"
                       "  return is_odd(n - 1);\n"
                       "}\n"
                       "int is_odd(int n) {\n"
                       "  if (n == 0) { return 0; }\n"
                       "  return is_even(n - 1);\n"
                       "}\n"
                       "int main() {\n"
                       "  print_int(is_even(10));\n"
                       "  print_int(is_odd(7));\n"
                       "  return 0;\n"
                       "}\n"));
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      sources.emplace_back(
          "fuzz-" + std::to_string(seed),
          all_techniques(fuzz_program(seed * 0x9e3779b97f4a7c15ull)));
    }
    DiagEngine diags;
    std::vector<CorpusProgram> edge;
    edge.push_back({masm::parse_program(read_fixture("edge_case.s"), diags),
                    std::nullopt});
    sources.emplace_back("edge-asm", std::move(edge));
    if (diags.has_errors()) {
      throw std::runtime_error("edge_case.s: " + diags.render());
    }
    return sources;
  }();
  return corpus;
}

TEST(Goldens, StaticReportsPinned) {
  // prune, sections and flow feed the pruned audits, the sectioned
  // campaigns and the selective planner. A change to how the analyses
  // are computed (driver, iteration order, shared tables) must not move
  // one byte of their reports; a deliberate change to an analysis
  // updates this table.
  const ReportPin pins[] = {
      {"backprop",
       "ebad8636dbcb41dbb951b5adc99ae5cb1d2c05124dc80a8b93d46620967770c2",
       "332437bbf1a0affb9364a533f4031afe488501f4ba14330c36fd63d5e469b333",
       "f473af55a7f4e0ebb7f4083dc8e802b015b3724209401b13976550b6f2bf8c26"},
      {"bfs",
       "e3c439a99ed1ecefcee14e373faa8ba364370d396a284900c77928e2e733eb7b",
       "06c689820849398a5367a28806248bc08ff28a5decfe14fc1b3dd781470dd4b8",
       "f9b5483037c5624ecc9c793c3ee0b99faac05ec55507e8387435a76d94512379"},
      {"pathfinder",
       "4984bb30c306dfe9e13f02c0b899cce7c0e99d698d2590f8a7dcedd3d5eb2336",
       "5fdf3c03507b7014c5d64053a50217035dd075158e754513887a4805793e6918",
       "71860c661c4ffa4c9ddb2f2d3300988249103a5bcea6faf2fb94c7f83f1ef4bf"},
      {"lud",
       "95771fb70a635c8f8e10024f2ccb45f3f5f29083cf98696ff58eba82cd8483f3",
       "7aa013eaeef2fe32608b68f13d0fb4e0b04bdcdbdaa046d873c27048df8784b9",
       "adddd99d8bfcf4b0cbef4db3c9cbca11a5788bb849deef874405be926b3c2503"},
      {"needle",
       "b33ce40c914048234ace39a42464e7ec2ac20af97a8db523b33ef55e36d18d33",
       "d834a208b8be75f29ead13bc844f1f288a4425eb589719179016be20eabe7c6c",
       "8c28fcc8f30766514b296b58ba82fc242aceb1c6f00683c5b3aa3252ceabcf7f"},
      {"knn",
       "c0c11edea28eb61af5b1afbe63f2d50beddbb519f61e76ba02a246a51848da40",
       "fdaa8b1301d843130ea41fd22ff2cd941d4b122e64f178e5c191a8bd1d96e9f5",
       "d0aa461411d683c2b41fc4d9b5b5b4c3edf0303f6ddacaba3f6ef7bb76fc5475"},
      {"kmeans",
       "211eadd8906d06b3b89573371022106543a690fb612e7f2778f04bcbb02a82eb",
       "614916d81be5e13316fa3d6a609493c4424e0c30346994ca12dfaeb73b8af541",
       "c3939bb838b62aa0d507a2abbd96a8e53036d84788f7e95c07266c232da3a702"},
      {"particlefilter",
       "61f7a291fc3e03848e521aa195673355ff05565846d41fbb9e46df61e9c20699",
       "e140e77b99dfa9038e5d4318aa51b301613831e2fc298c6e05840083ba5df547",
       "4bfff025238423fa74b67605140edbec3bd5ac84e602f85b6c7cab997260b512"},
      {"fib",
       "a15ae435bd2278bdd0b2da6305478e765638d0eeee6ec2f06c4c01dc191bdf8c",
       "6cbd0aad1b3b8e618973e7bdb8d145361927b7e4d9a0e41963529261c5d84cf5",
       "db0f767c22865fd8d09d23c3200ea958836317fc60e897851f8fe00e7ece779e"},
      {"even-odd",
       "1ea27e344bdfe76baef52b7a933631a77524899e9a46fc33f3605d9b9d71c4ac",
       "3d15dd183dddf34c5ffa31192cb421d34f40e6879af369c457e5924c272abebf",
       "2f20c76fa4b1ca05d58e3bec42a79b8e2bd7eb2590bc85ceae74935461749726"},
      {"fuzz-1",
       "7fc7452e8235d64759ac010655377d52c42346a09971e3a28624d4519f878f79",
       "c0493201b696567451ae29095169afce0e113baf04ca909599b3a13878cf2821",
       "7ed8ca487afbaef0d1c15fdc8aac6ea12ab1e49e5e48ecc3ba5d59f8d345505d"},
      {"fuzz-2",
       "b9c94fe5e83411f62b6a588f8ab44b6553cdf67e819e859e3fb081fa5bb2edfd",
       "9b0da7f31165f444283a6d495df01e69bf8e7091182b95cf95d70b0ea3cccf44",
       "4a0c0bd3f4487b355ffedf64b4b55bd9a48219c84d4d3834c65c229e19008ea5"},
      {"fuzz-3",
       "8c09ea28ac026a6686c8197a1c184a0257c4902b315912053d568f71fab0fb81",
       "f242d48ad50025541e2b7668d9faf71dafa33b45b258113f980378d2ab5ef967",
       "f04d62d15f80511a62e312cd41e7cb9ec8128eb916376071f0a28413591b7cbf"},
      {"fuzz-4",
       "fc39757c334e2d0c76b83da58931709671990e03dc3e9c6d0a368cd633e27bbb",
       "f910834f9e1ca198046dddbc2350bbe40c7390d69d7a3f86370e813c93b86747",
       "efe6905547060c68fc1b455ff0f8dc6ec24c8264faac40bf5e5d6d903aa3ead3"},
      {"fuzz-5",
       "18f7e131dba701b3e2273c13306b6e42bda06179f3a3e7253eaafe5e99e8bb0c",
       "b61df8b2e9e95e1277d4183cb7f79630bef99975a82e5486493004af31ed781e",
       "28927193b9ed7d21fc48e516a37a3e84b313e40755c85038e549fe35c6dad24b"},
      {"fuzz-6",
       "7af697482511d880dbd99eb7ad8403f72b21d0acc39703e1933ced1b958603b1",
       "5481e16151e5c07d5fc62e3640c61c69068658b01836c49550222902f0c85e32",
       "a5fb56fcac4a94f340ee45c5d75e03a91cc8773009e28d09c947fc6f8484b108"},
      {"fuzz-7",
       "9dbef7ff139d73c75379eb1eca1dbf353d443566020bef0e0a091fe91327afba",
       "6e395d0ff188f07564600d17f5a0ce36b9ed54aee48449270992bc9b717c0799",
       "9d5a88f9423951684689653d853dd882937eb13ffb11d5f5d8e6fe10247f30f1"},
      {"fuzz-8",
       "e7ddfcaddd65daccc4ec1895adb93f2e9f38f2b8673eb982bcae9dcb416d2d4a",
       "b3bc4a19a46a0aac0a26adb63020e166463cd70df1e7a29e598eb81cc5b7cf78",
       "55a911c6570278fd03d4c55ad6822f8d4d0bc96ca8690af1f82affa517dade15"},
      {"edge-asm",
       "6916f4a18c64877d246da84ddf99576de0dd69fd149863fe8e3e1b7a0eba2f2a",
       "b8ce31815653e7313c8777b8bb31dd4382dafa951f020a344b2b5280cb24d4dc",
       "02a67c4dffdef90ea20134c7ba7cc00f17e365b6c3c1b07baf6c80cb5302a5e2"},
  };
  const Corpus& sources = pinned_corpus();
  ASSERT_EQ(sources.size(), std::size(pins));
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const ReportPin& pin = pins[s];
    ASSERT_EQ(sources[s].first, pin.name);
    const ReportDigests got = digest_reports(sources[s].second);
    EXPECT_EQ(got.prune, pin.prune) << pin.name << " prune";
    EXPECT_EQ(got.sections, pin.sections) << pin.name << " sections";
    EXPECT_EQ(got.flow, pin.flow) << pin.name << " flow";
  }
}

/// Every byte of a check report: its JSON view, which lists only the
/// unprotected sites, then each site record and each violation.
std::string check_bytes(const check::CheckReport& report) {
  std::string out = check::to_json(report).dump() + "\n";
  for (const check::SiteRecord& site : report.sites) {
    out += site.function + " " + std::to_string(site.block) + " " +
           std::to_string(site.inst) + " " + check::site_kind_name(site.kind) +
           " " + check::site_status_name(site.status) + " " + site.reason +
           "\n";
  }
  for (const check::Violation& violation : report.violations) {
    out += check::to_string(violation) + "\n";
  }
  return out;
}

TEST(Goldens, CheckReportsPinned) {
  // The checker's report feeds the lint output, the section JSON's
  // per-section counts and flow's predictions. Pinned over the static
  // corpus with store-data sites off and on, and over a fixed sample of
  // test_check's deletion and reorder mutants of the FERRUM workloads,
  // so that violation reports are pinned too.
  const std::pair<const char*, const char*> pins[] = {
      {"backprop",
       "052a7f82fbd07d983a154747f87b3effddf9914556b2b7af0b14e2ab3d66a0a9"},
      {"bfs",
       "4a422782a2ea46512362acd27c3b76d4241ed104c7e1d3fd9c4dbbb83e54dd82"},
      {"pathfinder",
       "5e6f58aea5ae9bdd98a0a2c26a93e31d573cad3d2828bec451375927991a688a"},
      {"lud",
       "961bcaa0bb9d36f1309a911828df2246febe83a7d87ff6fddf990a89d089dbcd"},
      {"needle",
       "e6ad9bc21b9447e728fbc903d5361d859df8d945be478ad79fb0ba2b93285259"},
      {"knn",
       "f4f99a09f70e9b16d5a971285f6f1734a0e8a945c251da9e1f54aef300ba3478"},
      {"kmeans",
       "4cc341d18ee47bb2d35935d27ab58f17e769b98ff6df4486f0dd5b5759f036ef"},
      {"particlefilter",
       "3826b05fbbf91eee1d0c61ae4813884d1d7ab8258fdc0b9f339dceae0044fb0a"},
      {"fib",
       "eb5767c9db4a78d870794ab85b4a42abbb2f1c440e4fe1081de9a166262564bb"},
      {"even-odd",
       "d5ef5af8530cf82042c7e05c31ac649b127fb58ef9aab0654efa8b10ae17617c"},
      {"fuzz-1",
       "1572bfd5188659fa905e66acce2c7173b2521ce4828c45dd878259fe5d5c8fa9"},
      {"fuzz-2",
       "ea75bdf28815e7939b3c30109b00389907078f6fb3c9ae04807f1e00548d3d1c"},
      {"fuzz-3",
       "a742f687b14b3ef3d999945351eb0f366e8494ab3ea3ca1c6cbb865ed6a4b5a5"},
      {"fuzz-4",
       "84a069f76ef1bc68d4f12a58d2b7b67a09f02ff45f09b975ca4cff89911b9dda"},
      {"fuzz-5",
       "fdb5f8d44566b9a005098e3916985931b79d41847bf0a3fde21ba2c38dafe9b2"},
      {"fuzz-6",
       "a119721d6f094c36938b83663379840a767e47cb16197c2f7b8bc13e381ac542"},
      {"fuzz-7",
       "efad52e1356bfea967441ab52cffb009cac206a0f2b9fb44d82c9a3a31dc6124"},
      {"fuzz-8",
       "06a2d0c96bd086d9dd334c84024e1a8b6e5caa03bfce90909528878a49e5445c"},
      {"edge-asm",
       "ab8b213b70028cd943390d01a20637aec86b10ee3f4aade4ec5cfd60b4eb0310"},
      {"deletion-mutants",
       "60ab3e053a7712ffe5ecff29508225b9761b34611580d042501dc70beca021ee"},
      {"reorder-mutants",
       "21798248b3a07caadd5e10838adc4457eb55c04351174db879ed78aa783057b7"},
  };
  const Corpus& sources = pinned_corpus();
  std::vector<std::pair<std::string, std::string>> got;
  for (const auto& [name, programs] : sources) {
    Sha256 sha;
    for (const auto& [program, protect_check] : programs) {
      for (const bool store_data : {false, true}) {
        sha.update(check_bytes(check::check_program(program, {store_data})));
      }
    }
    got.emplace_back(name, sha.hex_digest());
  }

  // Every 101st protection instruction deleted, and every 29th
  // protection jcc swapped with the flags producer before it.
  Sha256 deletions;
  Sha256 reorders;
  int deletion_count = 0;
  int reorder_count = 0;
  std::size_t violations = 0;
  int protection = 0;
  int guarded = 0;
  for (const auto& w : workloads::all()) {
    const auto source = std::find_if(
        sources.begin(), sources.end(),
        [&](const auto& entry) { return entry.first == w.name; });
    ASSERT_NE(source, sources.end()) << w.name;
    const masm::AsmProgram& ferrum = source->second[3].program;  // kFerrum
    for (std::size_t f = 0; f < ferrum.functions.size(); ++f) {
      const auto& blocks = ferrum.functions[f].blocks;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        for (std::size_t i = 0; i < blocks[b].insts.size(); ++i) {
          const masm::AsmInst& inst = blocks[b].insts[i];
          if (inst.origin != masm::InstOrigin::kProtection) continue;
          if (protection++ % 101 == 0) {
            masm::AsmProgram mutant = ferrum;
            auto& insts = mutant.functions[f].blocks[b].insts;
            insts.erase(insts.begin() + static_cast<std::ptrdiff_t>(i));
            const check::CheckReport report = check::check_program(mutant);
            violations += report.violations.size();
            deletions.update(check_bytes(report));
            ++deletion_count;
          }
          if (i == 0 || inst.op != masm::Op::kJcc) continue;
          const masm::Op producer = blocks[b].insts[i - 1].op;
          if (producer != masm::Op::kCmp && producer != masm::Op::kTest &&
              producer != masm::Op::kVptest) {
            continue;
          }
          if (guarded++ % 29 != 0) continue;
          masm::AsmProgram mutant = ferrum;
          auto& insts = mutant.functions[f].blocks[b].insts;
          std::swap(insts[i - 1], insts[i]);
          const check::CheckReport report = check::check_program(mutant);
          violations += report.violations.size();
          reorders.update(check_bytes(report));
          ++reorder_count;
        }
      }
    }
  }
  got.emplace_back("deletion-mutants", deletions.hex_digest());
  got.emplace_back("reorder-mutants", reorders.hex_digest());
  // 90 deletion and 34 reorder mutants, 159 violations among them.
  EXPECT_GT(deletion_count, 0);
  EXPECT_GT(reorder_count, 0);
  EXPECT_GT(violations, 0u);

  ASSERT_EQ(got.size(), std::size(pins));
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].first, pins[k].first);
    EXPECT_EQ(got[k].second, pins[k].second) << got[k].first;
  }
}

/// Blocks check's fixpoint reaches: forward from the entry along
/// fall-through, jcc and jmp edges, never entering a detect block.
std::vector<char> check_reach(const masm::AsmFunction& fn) {
  const int nblocks = static_cast<int>(fn.blocks.size());
  std::vector<char> reached(fn.blocks.size(), 0);
  std::vector<int> work;
  const auto enter = [&](int b) {
    if (b < 0 || b >= nblocks || reached[static_cast<std::size_t>(b)]) return;
    const auto& insts = fn.blocks[static_cast<std::size_t>(b)].insts;
    if (!insts.empty() && insts[0].op == masm::Op::kDetectTrap) return;
    reached[static_cast<std::size_t>(b)] = 1;
    work.push_back(b);
  };
  enter(0);
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    bool falls = true;
    for (const masm::AsmInst& inst :
         fn.blocks[static_cast<std::size_t>(b)].insts) {
      if (inst.op == masm::Op::kJmp || inst.op == masm::Op::kJcc) {
        enter(fn.block_index(inst.ops[0].label));
      }
      if (inst.op == masm::Op::kJmp || inst.op == masm::Op::kRet ||
          inst.op == masm::Op::kDetectTrap) {
        falls = false;
        break;
      }
    }
    if (falls) enter(b + 1);
  }
  return reached;
}

/// (function, block, inst, kind) of a site, as the reports name them.
using SiteKey =
    std::tuple<std::string, std::int64_t, std::int64_t, std::string>;

/// Every byte of an analysis set.
std::string set_bytes(const check::flow::AnalysisSet& set,
                      const masm::AsmProgram& program) {
  return check_bytes(set.check) +
         check::prune::to_json(set.prune, program).dump() + "\n" +
         check::sections::to_json(set.sections, program, set.check).dump() +
         "\n" + check::flow::to_json(set.flow, program).dump() + "\n";
}

TEST(Goldens, AnalysesAgreeOnSiteKeys) {
  // Over the static corpus, store-data sites off and on: prune, flow and
  // the section JSON list exactly masm::static_site_of's sites in program
  // order, and check records those of them in blocks its fixpoint
  // reaches. A set that reuses protect-check's report is the set built
  // from scratch, byte for byte, and one built under other options is
  // refused.
  std::size_t static_sites = 0;
  std::size_t check_sites = 0;
  std::size_t reused_sets = 0;
  for (const auto& [name, programs] : pinned_corpus()) {
    for (const auto& [program, protect_check] : programs) {
      for (const bool store_data : {false, true}) {
        const check::flow::AnalysisSet set =
            check::flow::analyze(program, {store_data});
        std::vector<SiteKey> all;
        std::vector<SiteKey> reached;
        for (const masm::AsmFunction& fn : program.functions) {
          const std::vector<char> reach = check_reach(fn);
          for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
              const masm::AsmInst& inst = fn.blocks[b].insts[i];
              const masm::StaticSiteInfo info = masm::static_site_of(
                  inst, store_data, masm::call_pushes_ret(program, inst));
              if (!info.has_site) continue;
              all.emplace_back(fn.name, b, i,
                               masm::fault_site_kind_name(info.kind));
              if (reach[b]) reached.push_back(all.back());
            }
          }
        }
        const auto key = [&](int f, int b, int i, masm::FaultSiteKind kind) {
          return SiteKey(program.functions[static_cast<std::size_t>(f)].name,
                         b, i, masm::fault_site_kind_name(kind));
        };
        std::vector<SiteKey> prune;
        for (const auto& site : set.prune.sites) {
          prune.push_back(key(site.function, site.block, site.inst, site.kind));
        }
        std::vector<SiteKey> flow;
        for (const auto& site : set.flow.sites) {
          flow.push_back(key(site.function, site.block, site.inst, site.kind));
        }
        std::vector<SiteKey> sections;
        const telemetry::Json json =
            check::sections::to_json(set.sections, program, set.check);
        for (const telemetry::Json& row : json.find("sites")->items()) {
          sections.emplace_back(row.find("function")->as_string(),
                                row.find("block")->as_int(),
                                row.find("inst")->as_int(),
                                row.find("kind")->as_string());
        }
        std::vector<SiteKey> checked;
        for (const check::SiteRecord& site : set.check.sites) {
          checked.emplace_back(site.function, site.block, site.inst,
                               check::site_kind_name(site.kind));
        }
        const std::string label = name + (store_data ? " store-data" : "");
        EXPECT_EQ(prune, all) << label;
        EXPECT_EQ(flow, all) << label;
        EXPECT_EQ(sections, all) << label;
        EXPECT_EQ(checked, reached) << label;
        static_sites += all.size();
        check_sites += checked.size();

        if (protect_check.has_value() && !store_data) {
          const check::flow::AnalysisSet reused =
              check::flow::analyze(program, {}, &*protect_check);
          EXPECT_EQ(set_bytes(reused, program), set_bytes(set, program))
              << label;
          EXPECT_THROW(check::flow::analyze(program, {true}, &*protect_check),
                       std::invalid_argument);
          ++reused_sets;
        }
      }
    }
  }
  // At the pins, 1,346 of the static sites have no check record: 1,040
  // in unreachable blocks and 306 in blocks reached only through a
  // detect block.
  EXPECT_EQ(static_sites, 82276u);
  EXPECT_EQ(check_sites, 80930u);
  EXPECT_EQ(reused_sets, 54u);  // 18 MiniC sources x 3 protected techniques
}

TEST(Goldens, SelectivePlansPinned) {
  // The analysis-ranked plan reads the flow report: its selection and
  // the profile it was ranked from, at three budgets.
  const std::pair<const char*, const char*> pins[] = {
      {"backprop",
       "eafb7c106049efc313d4c8c0b074ca16e80a926fbfb9d21f1719af387eb8971d"},
      {"bfs",
       "f9a9612755723204109ce24ebcd5432f49971216c48e033a26e2b8fdb8dcd04e"},
      {"pathfinder",
       "43e489d36d132740db799f1e4e492de968d6db11b86110524de217ad42b8763c"},
      {"lud",
       "a5b1fe1fcc84903f5764ccfc96a9bccf163d4938b15ea8e786a859760ea0d990"},
      {"needle",
       "f73f8313b90e93191a8d4fb03a56822436d877492a3fd2c9f0eb3237ec710ab5"},
      {"knn",
       "94a610a76bfe74def92acc8b31323cc6e97637139e171d5377e216a4392a0884"},
      {"kmeans",
       "9a5ecbd68175ce91b9d5f9196d90a338e4ebbe5633595402a99d79a187271641"},
      {"particlefilter",
       "5cb4e68bde68af2794e21f24afed1972a1ad5dae36e3b78c370c98b1859069c0"},
  };
  for (const auto& [name, digest] : pins) {
    const auto build =
        pipeline::build(workloads::by_name(name).source, Technique::kNone);
    Sha256 sha;
    for (const double budget : {0.1, 0.5, 0.9}) {
      pipeline::SelectiveOptions options;
      options.strategy = pipeline::SelectiveOptions::Strategy::kAnalysis;
      options.budget = budget;
      const pipeline::SelectivePlan plan = pipeline::plan_selective(
          build.program, options, eddi::AsmProtectOptions{});
      std::string text = "budget " + std::to_string(budget) + ":";
      for (const int ordinal : plan.selected) {
        text += " " + std::to_string(ordinal);
      }
      text += "; profile";
      for (const std::uint64_t count : plan.flow.profile.count) {
        text += " " + std::to_string(count);
      }
      sha.update(text + "\n");
    }
    EXPECT_EQ(sha.hex_digest(), digest) << name;
  }
}

/// SHA-256 of a fault-layer result's deterministic JSON.
template <typename Result>
std::string result_sha(const Result& result) {
  return sha256_hex(telemetry::to_json(result).dump());
}

TEST(Goldens, FaultResultsPinned) {
  // Every campaign, audit and compose result the evaluation reports runs
  // its trials from one golden run's checkpoints. A change to how that
  // run is prepared, recorded or handed to the trials must not move one
  // byte of these results; a deliberate change to the fault model
  // updates this table. bfs at small trial counts keeps it cheap.
  struct Pin {
    Technique technique;
    const char* campaign;
    const char* multi_fault;
    const char* adaptive;
    const char* pruned_campaign;
    const char* audit;
    const char* pruned_audit;
    const char* compose_audit;
    const char* compose_campaign;
  };
  const Pin pins[] = {
      {Technique::kNone,
       "2b4401746edd0250fed1861b32bc674ae43fa3b09fa94f28320cf8b7a08d2731",
       "2e65d84abc2e68b66bd80d6dac1d45ddbd8682cb25aa0f65d82061e61a5b710e",
       "f499fa7fac3466b765bdb567f3b89ced94b08e2038b42ad1905fcc4873c0ff60",
       "4c320de5cf2baccc7f34077aff64ce3f06eb82e7fea88e7c35d9c7f252839323",
       "19fc07e21f5605faa2d4d3e9b0260c205a5d26ac969ebacb305c4f9a94fb4b9c",
       "dfd5e57916d886fe947be810f494a51cf887465b3c08d70ad8b268a8257c190c",
       "ec470d3e966e96650c77b8b63c5999d9f4a449945fed492d538b0ce98b106336",
       "b65682291cac9d2a43d897c7da10c37fe5aebc5fd2cbd32a86d5eb154a994697"},
      {Technique::kFerrum,
       "78eae11a8ddd192d48346c4e4da8857795de2e138013780a200de94291e44f94",
       "3318f891421d19cc555741c940db04013de9c5e8f4a58e5ca5e2de623a87032c",
       "687d5994148de0c5aae69aa6a6912b2e71f2d1cbb86eb45c29f62051a5e31532",
       "68505c2b91186ea385d8fb77e9b03a4a66c7ec87e75444139f6f323c486f1794",
       "822d9837ffd4ecd243b0394ac2c51ed137b8a586044a037746566493139d3364",
       "7053c0ddb0d4b698f86ac16081c3636a37206a941f75b426cd68ded5f56f078e",
       "a25646d942a3ebbf2947e5aa92d06302334d105c2930a747070befca1d76e65a",
       "0fd3bd3a7a52b8dbe2c2338fc85e245eb431ecb27957189dcd6f845b6d11df17"},
  };
  const std::string& source = workloads::by_name("bfs").source;
  for (const Pin& pin : pins) {
    const std::string name = pipeline::technique_name(pin.technique);
    const auto build = pipeline::build(source, pin.technique);
    const masm::AsmProgram& program = build.program;

    fault::CampaignOptions campaign;
    campaign.trials = 64;
    campaign.seed = 0x901de2;
    EXPECT_EQ(result_sha(fault::run_campaign(program, campaign)),
              pin.campaign) << name << " campaign";

    fault::CampaignOptions multi = campaign;
    multi.faults_per_run = 2;
    multi.burst = 3;
    multi.vm.fault_store_data = true;
    EXPECT_EQ(result_sha(fault::run_campaign(program, multi)),
              pin.multi_fault) << name << " multi-fault";

    fault::CampaignOptions adaptive = campaign;
    adaptive.trials = 512;
    adaptive.max_half_width = 0.1;
    const fault::CampaignResult stopped =
        fault::run_campaign(program, adaptive);
    EXPECT_TRUE(stopped.adaptive.stopped_early) << name;
    EXPECT_EQ(result_sha(stopped), pin.adaptive) << name << " adaptive";

    const check::prune::PruneReport prune =
        check::prune::prune_program(program);
    fault::CampaignOptions pruned = campaign;
    pruned.prune = &prune;
    const fault::CampaignResult piloted = fault::run_campaign(program, pruned);
    EXPECT_LT(piloted.prune.pilot_runs, 64u) << name;
    EXPECT_EQ(result_sha(piloted), pin.pruned_campaign)
        << name << " pruned campaign";

    fault::AuditOptions audit;
    audit.probe_bits = {5, 40};
    EXPECT_EQ(result_sha(fault::audit_program(program, audit)), pin.audit)
        << name << " audit";
    audit.prune = &prune;
    EXPECT_EQ(result_sha(fault::audit_program(program, audit)),
              pin.pruned_audit) << name << " pruned audit";

    const check::sections::SectionMap map =
        check::sections::build_sections(program);
    fault::ComposeOptions compose;
    compose.probe_bits = {5, 40};
    EXPECT_EQ(result_sha(fault::compose_audit(program, map, compose)),
              pin.compose_audit) << name << " compose audit";

    // Cold, then warm from the summaries the cold run stored: the
    // deterministic JSON does not depend on the cache state.
    std::map<std::string, std::string> cache;
    compose.trials = 96;
    compose.lookup = [&cache](const std::string& key)
        -> std::optional<std::string> {
      const auto it = cache.find(key);
      if (it == cache.end()) return std::nullopt;
      return it->second;
    };
    compose.store = [&cache](const std::string& key,
                             const std::string& bytes) { cache[key] = bytes; };
    const fault::ComposeReport cold =
        fault::compose_campaign(program, map, compose);
    EXPECT_EQ(cold.warm_sections, 0u) << name;
    EXPECT_EQ(result_sha(cold), pin.compose_campaign)
        << name << " compose campaign (cold)";
    const fault::ComposeReport warm =
        fault::compose_campaign(program, map, compose);
    EXPECT_EQ(warm.cold_sections, 0u) << name;
    EXPECT_EQ(warm.trials_executed, 0u) << name;
    EXPECT_EQ(result_sha(warm), pin.compose_campaign)
        << name << " compose campaign (warm)";
  }
}

TEST(Trace, RecordsExecutedInstructions) {
  auto build = pipeline::build(
      "int main() { print_int(7); return 0; }", Technique::kNone);
  vm::VmOptions options;
  options.trace_limit = 16;
  const vm::VmResult result = vm::run(build.program, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.trace.empty());
  EXPECT_LE(result.trace.size(), 16u);
  // First executed instruction is main's prologue push.
  EXPECT_NE(result.trace[0].find("main/prologue: pushq"), std::string::npos)
      << result.trace[0];
}

TEST(Trace, OffByDefault) {
  auto build = pipeline::build(
      "int main() { return 0; }", Technique::kNone);
  const vm::VmResult result = vm::run(build.program);
  EXPECT_TRUE(result.trace.empty());
}

}  // namespace
}  // namespace ferrum
