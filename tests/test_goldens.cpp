// Golden-output regression pins. The workloads are the measurement
// instruments of every experiment: if a frontend/backend/VM change shifts
// any of their outputs, the campaigns silently measure a different
// program. These tests pin the exact output streams (raw 64-bit images)
// so such a shift fails loudly instead.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "pipeline/pipeline.h"
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
