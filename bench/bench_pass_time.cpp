// Reproduces Sec IV-B3: wall-clock execution time of the FERRUM pass
// itself, per benchmark, via google-benchmark. The paper reports 0.117 s
// on average (min 0.089 s for BFS at 406 static instructions, max 0.196 s
// for Particlefilter at 2230) and observes the time is linear in the
// static instruction count — the final benchmark checks that scaling
// directly on synthetic program sizes. The artifact also times the
// protect-check verifier (check_program) and the lint=json export (the
// four static-analysis converters and dump) over the 32 scale-1 builds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "backend/backend.h"
#include "bench_util.h"
#include "check/check.h"
#include "check/flow.h"
#include "check/prune.h"
#include "check/sections.h"
#include "eddi/asm_protect.h"
#include "frontend/codegen.h"
#include "pipeline/pipeline.h"
#include "support/source_location.h"
#include "telemetry/json.h"
#include "workloads/workloads.h"

using namespace ferrum;

namespace {

masm::AsmProgram lower_workload(const std::string& name) {
  const auto& w = workloads::by_name(name);
  DiagEngine diags;
  auto module = minic::compile(w.source, diags);
  if (module == nullptr) throw std::runtime_error(diags.render());
  return backend::lower(*module);
}

void BM_FerrumPass(benchmark::State& state, const std::string& name) {
  const masm::AsmProgram original = lower_workload(name);
  std::size_t static_instructions = original.inst_count();
  for (auto _ : state) {
    state.PauseTiming();
    masm::AsmProgram copy = original;  // protect a fresh copy each round
    state.ResumeTiming();
    const auto stats = eddi::protect_asm(copy);
    benchmark::DoNotOptimize(stats.simd_sites);
  }
  state.counters["static_insts"] =
      static_cast<double>(static_instructions);
}

/// Linearity probe: a synthetic straight-line program of N statements.
std::string synthetic_program(int statements) {
  std::string source = "int main() {\n  int a = 1;\n  int b = 2;\n";
  for (int i = 0; i < statements; ++i) {
    source += "  a = a + b * " + std::to_string(i % 7 + 1) + ";\n";
  }
  source += "  print_int(a);\n  return 0;\n}\n";
  return source;
}

void BM_FerrumPassScaling(benchmark::State& state) {
  DiagEngine diags;
  auto module = minic::compile(synthetic_program(
                                   static_cast<int>(state.range(0))),
                               diags);
  if (module == nullptr) {
    state.SkipWithError("frontend error");
    return;
  }
  const masm::AsmProgram original = backend::lower(*module);
  for (auto _ : state) {
    state.PauseTiming();
    masm::AsmProgram copy = original;
    state.ResumeTiming();
    eddi::protect_asm(copy);
    benchmark::DoNotOptimize(copy.inst_count());
  }
  state.counters["static_insts"] =
      static_cast<double>(original.inst_count());
  state.SetComplexityN(static_cast<std::int64_t>(original.inst_count()));
}

/// The 8 workloads x 4 techniques at scale 1.
std::vector<masm::AsmProgram> scale1_programs() {
  std::vector<masm::AsmProgram> programs;
  for (const auto& w : workloads::all()) {
    for (const auto technique :
         {pipeline::Technique::kNone, pipeline::Technique::kIrEddi,
          pipeline::Technique::kHybrid, pipeline::Technique::kFerrum}) {
      programs.push_back(pipeline::build(w.source, technique).program);
    }
  }
  return programs;
}

/// One-thread passes of `pass` over `programs` programs: the median and
/// the fastest pass, in seconds, printed and returned as a wallclock row.
template <typename Pass>
telemetry::Json time_passes(const char* name, std::size_t programs,
                            Pass&& pass) {
  constexpr int kReps = 5;
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t result = pass();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    benchmark::DoNotOptimize(result);
  }
  std::sort(seconds.begin(), seconds.end());
  telemetry::Json row = telemetry::Json::object();
  row["median_seconds"] = seconds[kReps / 2];
  row["best_seconds"] = seconds.front();
  row["reps"] = kReps;
  row["programs"] = static_cast<std::uint64_t>(programs);
  std::printf("%s over %zu programs: %.1f ms median, %.1f ms best of %d "
              "passes\n",
              name, programs, seconds[kReps / 2] * 1e3,
              seconds.front() * 1e3, kReps);
  return row;
}

telemetry::Json check_program_seconds(
    const std::vector<masm::AsmProgram>& programs) {
  return time_passes("check_program", programs.size(), [&] {
    std::uint64_t sites = 0;
    for (const auto& program : programs) {
      sites += check::check_program(program).total_sites();
    }
    return sites;
  });
}

/// The `ferrumc lint --lint=json` export alone: the four converters and
/// dump(), with check, prune, sections and flow run once outside the
/// timer.
telemetry::Json lint_json_seconds(
    const std::vector<masm::AsmProgram>& programs) {
  struct Analyses {
    check::CheckReport check;
    check::prune::PruneReport prune;
    check::sections::SectionMap sections;
    check::flow::FlowReport flow;
  };
  std::vector<Analyses> analyses;
  for (const auto& program : programs) {
    analyses.push_back({check::check_program(program),
                        check::prune::prune_program(program),
                        check::sections::build_sections(program),
                        check::flow::flow_program(program)});
  }
  return time_passes("lint=json export", programs.size(), [&] {
    std::uint64_t bytes = 0;
    for (std::size_t p = 0; p < programs.size(); ++p) {
      const Analyses& a = analyses[p];
      telemetry::Json json = check::to_json(a.check);
      json["prune"] = check::prune::to_json(a.prune, programs[p]);
      json["sections"] =
          check::sections::to_json(a.sections, programs[p], a.check);
      json["flow"] = check::flow::to_json(a.flow, programs[p]);
      bytes += json.dump().size();
    }
    return bytes;
  });
}

}  // namespace

int main(int argc, char** argv) {
  // The telemetry artifact is written up front (google-benchmark's own
  // timing output stays on stdout): one FERRUM pass per workload, static
  // footprint + pass stats under `metrics`, pass wall time and the
  // check_program and lint_json passes under `wallclock`.
  {
    benchutil::BenchReport report("bench_pass_time");
    for (const auto& w : workloads::all()) {
      masm::AsmProgram program = lower_workload(w.name);
      const std::size_t before = program.inst_count();
      const auto start = std::chrono::steady_clock::now();
      const eddi::AsmProtectStats stats = eddi::protect_asm(program);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      telemetry::Json row = telemetry::Json::object();
      row["static_instructions_before"] = static_cast<std::uint64_t>(before);
      row["static_instructions_after"] =
          static_cast<std::uint64_t>(program.inst_count());
      row["simd_sites"] = stats.simd_sites;
      row["general_sites"] = stats.general_sites;
      row["flushes"] = stats.flushes;
      row["requisitions"] = stats.requisitions;
      report.metrics()["workloads"][w.name] = row;
      report.wallclock()["pass_seconds"][w.name] = seconds;
    }
    const std::vector<masm::AsmProgram> programs = scale1_programs();
    report.wallclock()["check_program"] = check_program_seconds(programs);
    report.wallclock()["lint_json"] = lint_json_seconds(programs);
    report.write();
  }

  for (const auto& w : workloads::all()) {
    benchmark::RegisterBenchmark(("FerrumPass/" + w.name).c_str(),
                                 [name = w.name](benchmark::State& state) {
                                   BM_FerrumPass(state, name);
                                 })
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RegisterBenchmark("FerrumPassScaling", BM_FerrumPassScaling)
      ->RangeMultiplier(4)
      ->Range(16, 4096)
      ->Unit(benchmark::kMicrosecond)
      ->Complexity(benchmark::oN);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
