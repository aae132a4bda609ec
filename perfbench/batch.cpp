// The three batch workloads: paper-suite, campaign-large and analyze.
// Each runs whole passes over a fixed, seeded list of cells on the main
// thread; a cell is one request a ferrumc user makes (a campaign, an
// audit, a timing run, a lint or a plan).
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "check/flow.h"
#include "check/prune.h"
#include "check/sections.h"
#include "bench.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/compose.h"
#include "ir/interp.h"
#include "pipeline/selective.h"
#include "support/rng.h"
#include "telemetry/export.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace check = ferrum::check;
namespace fault = ferrum::fault;
namespace pipeline = ferrum::pipeline;
namespace telemetry = ferrum::telemetry;
namespace vm = ferrum::vm;
using pipeline::Technique;
using telemetry::Json;

constexpr Technique kTechniques[] = {Technique::kNone, Technique::kIrEddi,
                                     Technique::kHybrid, Technique::kFerrum};

/// HYBRID and FERRUM claim full coverage (Fig 10), so any SDC they let
/// through fails the cell.
bool full_coverage(Technique technique) {
  return technique == Technique::kHybrid || technique == Technique::kFerrum;
}

struct Program {
  std::string kernel;
  int scale = 1;
  Technique technique = Technique::kNone;
  std::string source;
  std::unique_ptr<pipeline::Build> build;  // in set-up, or by a lint cell
  std::vector<std::uint64_t> golden;       // output of a fault-free vm run
  bool have_golden = false;
  std::uint64_t cycles = 0;                // modelled cycles (timing cell)

  std::string label() const {
    return kernel + "@" + std::to_string(scale) + "/" +
           pipeline::technique_name(technique);
  }
};

Program make_program(const std::string& kernel, int scale,
                     Technique technique) {
  Program program;
  program.kernel = kernel;
  program.scale = scale;
  program.technique = technique;
  program.source = ferrum::workloads::scaled(kernel, scale).source;
  return program;
}

struct CellResult {
  std::string bytes;  // deterministic result JSON
  bool ok = true;
  std::string why;
};

using CellFn = std::function<CellResult(Run&, std::int64_t)>;

struct Cell {
  std::string name;
  int program = -1;
  CellFn run;
};

// --- cells -----------------------------------------------------------------

/// `ferrumc campaign`: a sampled single-bit campaign that prepares and
/// frees its own golden state.
CellResult campaign_cell(Run& run, std::int64_t id, const Program& program,
                         std::uint64_t seed, int trials, int jobs) {
  fault::CampaignOptions options;
  options.trials = trials;
  options.seed = seed;
  options.jobs = jobs;
  Scope span(run.tracer, "fault.run_campaign", id);
  const fault::CampaignResult result =
      fault::run_campaign(program.build->program, options);
  const double seconds = span.close();
  run.tracer.add_child(span.index(), "vm.prepare", 0.0,
                       std::max(0.0, seconds - result.wall_seconds));
  run.count([&](LayerCounts& counts) {
    counts.add_ckpt(result.ckpt, result.wall_seconds,
                    result.trials_per_worker);
  });
  CellResult out;
  out.bytes =
      traced_export(run, id, [&] { return telemetry::to_json(result); });
  const int sdc = result.count(fault::Outcome::kSdc);
  if (full_coverage(program.technique) && sdc > 0) {
    out.ok = false;
    out.why = std::to_string(sdc) + " SDCs";
  }
  return out;
}

/// `ferrumc campaign --compose`: sections, then the sectioned campaign.
CellResult compose_cell(Run& run, std::int64_t id, const Program& program,
                        std::uint64_t seed, int trials, int jobs) {
  const check::sections::SectionMap map = [&] {
    Scope span(run.tracer, "check.build_sections", id);
    return check::sections::build_sections(program.build->program);
  }();
  fault::ComposeOptions options;
  options.trials = static_cast<std::uint64_t>(trials);
  options.seed = seed;
  options.jobs = jobs;
  Scope span(run.tracer, "fault.compose_campaign", id);
  const fault::ComposeReport report =
      fault::compose_campaign(program.build->program, map, options);
  const double seconds = span.close();
  run.tracer.add_child(span.index(), "vm.prepare", 0.0,
                       std::max(0.0, seconds - report.wall_seconds));
  run.count([&](LayerCounts& counts) {
    counts.add_ckpt(report.ckpt, report.wall_seconds, {});
  });
  CellResult out;
  out.bytes =
      traced_export(run, id, [&] { return telemetry::to_json(report); });
  if (full_coverage(program.technique) && report.sdc > 0) {
    out.ok = false;
    out.why = std::to_string(report.sdc) + " SDCs";
  }
  return out;
}

/// `ferrumc run --timing`: one fault-free run under the timing model. Its
/// output is the program's golden output for the reference check.
CellResult timing_cell(Run& run, std::int64_t id, Program& program) {
  vm::VmOptions options;
  options.timing = true;
  const vm::VmResult result = [&] {
    Scope span(run.tracer, "vm.run", id);
    return vm::run(program.build->program, options);
  }();
  run.count([&](LayerCounts& counts) {
    counts.modelled_cycles += static_cast<double>(result.cycles);
  });
  if (!program.have_golden) {
    program.golden = result.output;
    program.have_golden = true;
    program.cycles = result.cycles;
  }
  CellResult out;
  out.bytes = traced_export(run, id, [&] {
    Json json = Json::object();
    json["status"] = vm::exit_status_name(result.status);
    json["steps"] = result.steps;
    json["fi_sites"] = result.fi_sites;
    json["cycles"] = result.cycles;
    Json output = Json::array();
    for (const std::uint64_t value : result.output) output.push_back(value);
    json["output"] = std::move(output);
    if (result.timing_stats.has_value()) {
      json["timing"] = telemetry::to_json(*result.timing_stats);
    }
    return json;
  });
  if (!result.ok()) {
    out.ok = false;
    out.why = std::string("exit ") + vm::exit_status_name(result.status);
  }
  return out;
}

/// `ferrumc audit --prune`: the exhaustive coverage audit, answered by
/// pilot injections per equivalence class.
CellResult audit_cell(Run& run, std::int64_t id, const Program& program) {
  const check::prune::PruneReport prune = [&] {
    Scope span(run.tracer, "check.prune_program", id);
    return check::prune::prune_program(program.build->program);
  }();
  fault::AuditOptions options;
  options.prune = &prune;
  Scope span(run.tracer, "fault.audit_program", id);
  const fault::AuditReport report =
      fault::audit_program(program.build->program, options);
  const double seconds = span.close();
  run.tracer.add_child(span.index(), "vm.prepare", 0.0,
                       std::max(0.0, seconds - report.wall_seconds));
  run.count([&](LayerCounts& counts) {
    counts.add_ckpt(report.ckpt, report.wall_seconds,
                    report.sites_per_worker);
    counts.pilots += static_cast<double>(report.prune.pilot_injections);
    counts.probes += static_cast<double>(report.injections);
  });
  CellResult out;
  out.bytes =
      traced_export(run, id, [&] { return telemetry::to_json(report); });
  if (!report.fully_covered()) {
    out.ok = false;
    out.why = std::to_string(report.escapes.size()) + " audit escapes";
  }
  return out;
}

/// `ferrumc lint --lint=json`: build, check, prune, sections, flow and
/// the combined JSON report. The first pass keeps the built program for
/// the reference check.
CellResult lint_cell(Run& run, std::int64_t id, Program& program) {
  pipeline::Build build =
      traced_build(run, id, program.source, program.technique);
  const check::CheckReport report = [&] {
    Scope span(run.tracer, "check.check_program", id);
    return check::check_program(build.program);
  }();
  const check::prune::PruneReport prune = [&] {
    Scope span(run.tracer, "check.prune_program", id);
    return check::prune::prune_program(build.program);
  }();
  const check::sections::SectionMap sections = [&] {
    Scope span(run.tracer, "check.build_sections", id);
    return check::sections::build_sections(build.program);
  }();
  const check::flow::FlowReport flow = [&] {
    Scope span(run.tracer, "check.flow_program", id);
    return check::flow::flow_program(build.program);
  }();
  run.count([&](LayerCounts& counts) {
    counts.check_sites += static_cast<double>(report.total_sites());
  });
  CellResult out;
  out.bytes = traced_export(run, id, [&] {
    Json json = check::to_json(report);
    json["prune"] = check::prune::to_json(prune, build.program);
    json["sections"] = check::sections::to_json(sections, build.program);
    json["flow"] = check::flow::to_json(flow, build.program);
    return json;
  });
  if (!report.clean()) {
    out.ok = false;
    out.why = std::to_string(report.violations.size()) + " check violations";
  }
  if (!program.build) {
    program.build = std::make_unique<pipeline::Build>(std::move(build));
  }
  return out;
}

/// `ferrumc plan --budget=B`: flow-ranked selective-protection plan on
/// the unprotected program.
CellResult plan_cell(Run& run, std::int64_t id, const pipeline::Build& build,
                     double budget) {
  pipeline::SelectiveOptions options;
  options.strategy = pipeline::SelectiveOptions::Strategy::kAnalysis;
  options.budget = budget;
  const pipeline::SelectivePlan plan = [&] {
    Scope span(run.tracer, "pipeline.plan_selective", id);
    return pipeline::plan_selective(build.program, options,
                                    ferrum::eddi::AsmProtectOptions{});
  }();
  CellResult out;
  out.bytes = traced_export(run, id, [&] {
    Json json = Json::object();
    json["strategy"] = pipeline::selective_strategy_name(options.strategy);
    json["budget"] = budget;
    json["universe"] = static_cast<std::uint64_t>(plan.universe.size());
    Json selected = Json::array();
    for (const int ordinal : plan.selected) {
      selected.push_back(static_cast<std::int64_t>(ordinal));
    }
    json["selected"] = std::move(selected);
    json["flow"] = check::flow::to_json(plan.flow, build.program);
    return json;
  });
  bool valid = static_cast<int>(plan.selected.size()) == plan.budget_sites;
  for (std::size_t i = 0; valid && i < plan.selected.size(); ++i) {
    valid = plan.selected[i] >= 0 &&
            static_cast<std::size_t>(plan.selected[i]) < plan.universe.size() &&
            (i == 0 || plan.selected[i - 1] < plan.selected[i]);
  }
  if (!valid) {
    out.ok = false;
    out.why = "plan selection inconsistent with its budget";
  }
  return out;
}

// --- the pass loop ---------------------------------------------------------

class BatchWorkload : public Workload {
 public:
  explicit BatchWorkload(const Options& options) : options_(options) {}

  double run_unit(Run& run, int unit) override {
    const Clock::time_point start = Clock::now();
    double probed = 0.0;
    for (const std::size_t index : order_) {
      const Cell& cell = cells_[index];
      const std::int64_t id = run.next_cell_id();
      const Clock::time_point begin = Clock::now();
      CellResult result;
      {
        Scope span(run.tracer, "bench.cell", id);
        try {
          result = cell.run(run, id);
        } catch (const std::exception& error) {
          result.ok = false;
          result.why = error.what();
        }
      }
      const double ms = seconds_between(begin, Clock::now()) * 1e3;
      if (unit == 0) run.digest(result.bytes);
      run.record(ms, cell.program, result.ok, cell.name + ": " + result.why);
      probed += run.pause_for_probe();
    }
    return seconds_between(start, Clock::now()) - probed;
  }

  /// Every program's golden output must equal ir::interpret on the
  /// unprotected module of the same source.
  void check(Run& run) override {
    std::map<std::string, std::optional<std::vector<std::uint64_t>>> refs;
    for (std::size_t p = 0; p < programs_.size(); ++p) {
      Program& program = programs_[p];
      const int index = static_cast<int>(p);
      const std::string key =
          program.kernel + "@" + std::to_string(program.scale);
      auto it = refs.find(key);
      if (it == refs.end()) {
        const pipeline::Build unprotected =
            pipeline::build(program.source, Technique::kNone);
        const ferrum::ir::RunResult reference =
            ferrum::ir::interpret(*unprotected.module);
        std::optional<std::vector<std::uint64_t>> output;
        if (reference.ok()) output = reference.output;
        if (output && options_.inject == "wrong-reference" && refs.empty()) {
          if (output->empty()) {
            output->push_back(1);
          } else {
            (*output)[0] ^= 1;
          }
        }
        it = refs.emplace(key, std::move(output)).first;
      }
      if (!it->second) {
        run.fail_program(index, program.label() + ": reference interpreter "
                                                  "did not finish");
        continue;
      }
      if (!program.have_golden) {
        if (!program.build) {
          run.fail_program(index, program.label() + ": never built");
          continue;
        }
        const vm::VmResult golden = vm::run(program.build->program);
        program.golden = golden.output;
        program.have_golden = golden.ok();
      }
      if (!program.have_golden || program.golden != *it->second) {
        run.fail_program(index, program.label() +
                                    ": golden output differs from "
                                    "ir::interpret");
      }
    }
  }

  const char* unit_name() const override { return "passes"; }
  int threads() const override { return 1; }

 protected:
  int add_program(Run& run, const std::string& kernel, int scale,
                  Technique technique, bool build) {
    programs_.push_back(make_program(kernel, scale, technique));
    Program& program = programs_.back();
    if (build) {
      program.build = std::make_unique<pipeline::Build>(traced_build(
          run, run.next_cell_id(), program.source, program.technique));
    }
    return static_cast<int>(programs_.size()) - 1;
  }

  void add_cell(const std::string& kind, int program, CellFn run) {
    cells_.push_back(Cell{kind + " " + programs_[static_cast<std::size_t>(
                                               program)].label(),
                          program, std::move(run)});
  }

  /// Fixes the seeded cell order, then completes the warm-up cell on a
  /// program outside the mix (built first when `build`).
  void finish_setup(Run& run, const std::string& kernel, int scale,
                    Technique technique, bool build,
                    const std::function<CellResult(Run&, std::int64_t,
                                                   Program&)>& warmup) {
    order_.resize(cells_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    ferrum::Rng rng(mix_seed(options_.seed, 0x0de5));
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }

    Program program = make_program(kernel, scale, technique);
    const std::int64_t id = run.next_cell_id();
    if (build) {
      program.build = std::make_unique<pipeline::Build>(
          traced_build(run, id, program.source, program.technique));
    }
    const CellResult result = warmup(run, id, program);
    if (!result.ok) {
      throw std::runtime_error("warm-up cell " + program.label() +
                               " failed: " + result.why);
    }
  }

  const Options options_;
  std::vector<Program> programs_;
  std::vector<Cell> cells_;
  std::vector<std::size_t> order_;  // cell index per pass slot
};

// --- workloads -------------------------------------------------------------

/// The paper's evaluation: every kernel under every technique at scale 1,
/// a 1000-trial campaign and a timing run per program, plus the pruned
/// coverage audit per FERRUM program.
class PaperSuite final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  void setup(Run& run) override {
    const int trials = options_.tiny ? 40 : 1000;
    for (const std::string& kernel : kernel_names(options_.tiny)) {
      for (const Technique technique : kTechniques) {
        const int p = add_program(run, kernel, 1, technique, true);
        const std::uint64_t seed = mix_seed(options_.seed, 1, p);
        add_cell("campaign", p, [this, p, seed, trials](Run& r, auto id) {
          return campaign_cell(r, id, programs_[p], seed, trials, 1);
        });
        add_cell("timing", p, [this, p](Run& r, auto id) {
          return timing_cell(r, id, programs_[p]);
        });
        if (technique == Technique::kFerrum) {
          add_cell("audit", p, [this, p](Run& r, auto id) {
            return audit_cell(r, id, programs_[p]);
          });
        }
      }
    }
    finish_setup(run, "bfs", 2, Technique::kFerrum, true,
                 [&](Run& r, std::int64_t id, Program& program) {
                   return campaign_cell(r, id, program,
                                        mix_seed(options_.seed, 2), trials,
                                        1);
                 });
  }

  /// Fig 11's headline: modelled cycles of FERRUM over the unprotected
  /// build, as a geometric mean over the kernels.
  std::vector<Metric> info(const Run&) const override {
    std::map<std::string, std::uint64_t> none;
    std::map<std::string, std::uint64_t> ferrum;
    for (const Program& program : programs_) {
      if (program.technique == Technique::kNone) {
        none[program.kernel] = program.cycles;
      }
      if (program.technique == Technique::kFerrum) {
        ferrum[program.kernel] = program.cycles;
      }
    }
    double log_sum = 0.0;
    int kernels = 0;
    for (const auto& [kernel, cycles] : ferrum) {
      const std::uint64_t base = none[kernel];
      if (base == 0 || cycles == 0) continue;
      log_sum += std::log(static_cast<double>(cycles) /
                          static_cast<double>(base));
      ++kernels;
    }
    const double overhead =
        kernels == 0 ? 0.0 : (std::exp(log_sum / kernels) - 1.0) * 100.0;
    return {{"ferrum_overhead_pct", overhead, "%",
             "modelled cycles, geomean over " + std::to_string(kernels) +
                 " kernels"}};
  }
};

/// Larger kernels on two pool workers: plain and sectioned campaigns
/// where golden runs are long and the checkpoint stride thins out.
class CampaignLarge final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  int threads() const override { return kJobs; }

  void setup(Run& run) override {
    const int scale = options_.tiny ? 1 : 4;
    const int trials = options_.tiny ? 40 : 1000;
    for (const char* kernel : {"kmeans", "particlefilter"}) {
      for (const Technique technique : {Technique::kNone, Technique::kFerrum}) {
        const int p = add_program(run, kernel, scale, technique, true);
        const std::uint64_t seed = mix_seed(options_.seed, 3, p);
        add_cell("campaign", p, [this, p, seed, trials](Run& r, auto id) {
          return campaign_cell(r, id, programs_[p], seed, trials, kJobs);
        });
        add_cell("compose", p, [this, p, seed, trials](Run& r, auto id) {
          return compose_cell(r, id, programs_[p], seed, trials, kJobs);
        });
      }
    }
    finish_setup(run, "bfs", scale + 1, Technique::kFerrum, true,
                 [&](Run& r, std::int64_t id, Program& program) {
                   return campaign_cell(r, id, program,
                                        mix_seed(options_.seed, 4), trials,
                                        kJobs);
                 });
  }

 private:
  static constexpr int kJobs = 2;  // pool workers per campaign
};

/// The static-analysis path: `ferrumc lint --lint=json` on every program
/// and `ferrumc plan` on every unprotected kernel.
class Analyze final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  void setup(Run& run) override {
    const std::vector<std::string> kernels = kernel_names(options_.tiny);
    ferrum::Rng rng(mix_seed(options_.seed, 5));
    for (const std::string& kernel : kernels) {
      int unprotected = -1;
      for (const Technique technique : kTechniques) {
        const int p = add_program(run, kernel, 1, technique, false);
        if (technique == Technique::kNone) unprotected = p;
        add_cell("lint", p, [this, p](Run& r, auto id) {
          return lint_cell(r, id, programs_[p]);
        });
      }
      // The plan cells share one unprotected build per kernel.
      plan_builds_.push_back(std::make_unique<pipeline::Build>(
          traced_build(run, run.next_cell_id(),
                       programs_[static_cast<std::size_t>(unprotected)].source,
                       Technique::kNone)));
      const pipeline::Build* build = plan_builds_.back().get();
      const double budget =
          static_cast<double>(1 + rng.next_below(9)) / 10.0;
      add_cell("plan", unprotected, [build, budget](Run& r, auto id) {
        return plan_cell(r, id, *build, budget);
      });
    }
    finish_setup(run, options_.tiny ? "bfs" : "backprop", 2,
                 Technique::kFerrum, false,
                 [](Run& r, std::int64_t id, Program& program) {
                   return lint_cell(r, id, program);
                 });
  }

 private:
  std::vector<std::unique_ptr<pipeline::Build>> plan_builds_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_suite(const Options& options) {
  return std::make_unique<PaperSuite>(options);
}

std::unique_ptr<Workload> make_campaign_large(const Options& options) {
  return std::make_unique<CampaignLarge>(options);
}

std::unique_ptr<Workload> make_analyze(const Options& options) {
  return std::make_unique<Analyze>(options);
}

}  // namespace perfbench
