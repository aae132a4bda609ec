// Reproduces Sec IV-B3: wall-clock execution time of the FERRUM pass
// itself, per benchmark, via google-benchmark. The paper reports 0.117 s
// on average (min 0.089 s for BFS at 406 static instructions, max 0.196 s
// for Particlefilter at 2230) and observes the time is linear in the
// static instruction count — the final benchmark checks that scaling
// directly on synthetic program sizes. The artifact also times the
// protect-check verifier (check_program) over the protected builds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "backend/backend.h"
#include "bench_util.h"
#include "check/check.h"
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

/// One-thread passes of check_program over the 8 workloads x 4 techniques
/// at scale 1: the median and the fastest pass, in seconds.
telemetry::Json check_program_seconds() {
  constexpr int kReps = 5;
  std::vector<masm::AsmProgram> programs;
  for (const auto& w : workloads::all()) {
    for (const auto technique :
         {pipeline::Technique::kNone, pipeline::Technique::kIrEddi,
          pipeline::Technique::kHybrid, pipeline::Technique::kFerrum}) {
      programs.push_back(pipeline::build(w.source, technique).program);
    }
  }
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t sites = 0;
    for (const auto& program : programs) {
      sites += check::check_program(program).total_sites();
    }
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    benchmark::DoNotOptimize(sites);
  }
  std::sort(seconds.begin(), seconds.end());
  telemetry::Json row = telemetry::Json::object();
  row["median_seconds"] = seconds[kReps / 2];
  row["best_seconds"] = seconds.front();
  row["reps"] = kReps;
  row["programs"] = static_cast<std::uint64_t>(programs.size());
  std::printf("check_program over %zu programs: %.1f ms median, %.1f ms "
              "best of %d passes\n",
              programs.size(), seconds[kReps / 2] * 1e3,
              seconds.front() * 1e3, kReps);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // The telemetry artifact is written up front (google-benchmark's own
  // timing output stays on stdout): one FERRUM pass per workload, static
  // footprint + pass stats under `metrics`, pass wall time and the
  // check_program passes under `wallclock`.
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
    report.wallclock()["check_program"] = check_program_seconds();
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
