// Sectioned-campaign tests: the static decomposition (sections must
// partition every instruction, end exactly at sync points, and carry a
// dataflow interface consistent with liveness), the ferrum-section-v1
// key contract (pinned material bytes), the composition rule (composed
// counts must equal the monolithic audit's exactly, strided or not),
// scheduling invariance (byte-equal JSON across jobs), and the
// incremental mode end to end: editing one MiniC function re-campaigns
// only the sections whose code or dependency certificates changed,
// answers the rest warm with zero engine trials, and composes a result
// byte-identical to a from-scratch campaign.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "check/sections.h"
#include "fault/audit.h"
#include "fault/compose.h"
#include "masm/masm.h"
#include "masm/parser.h"
#include "pipeline/pipeline.h"
#include "service/cache.h"
#include "support/hash.h"
#include "telemetry/export.h"
#include "telemetry/json.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using check::sections::Boundary;
using check::sections::SectionMap;
using pipeline::Technique;

SectionMap sections_of_text(const char* text, masm::AsmProgram& program) {
  DiagEngine diags;
  program = masm::parse_program(text, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return check::sections::build_sections(program);
}

// ------------------------------------------------------ decomposition --

constexpr const char* kStraightLine =
    "main:\n"
    ".entry:\n"
    "\tmovq\t$7, %rax\n"
    "\taddq\t$3, %rax\n"
    "\tmovq\t%rax, %rdi\n"
    "\tcall\tprint_int\n"
    "\tmovq\t$0, %rax\n"
    "\tret\n";

TEST(Sections, CallAndRetEndSections) {
  masm::AsmProgram program;
  const SectionMap map = sections_of_text(kStraightLine, program);
  ASSERT_EQ(map.sections.size(), 2u);
  EXPECT_EQ(map.sections[0].first_inst, 0);
  EXPECT_EQ(map.sections[0].last_inst, 3);  // the call is its own last inst
  EXPECT_EQ(map.sections[0].boundary, Boundary::kCall);
  EXPECT_EQ(map.sections[1].first_inst, 4);
  EXPECT_EQ(map.sections[1].last_inst, 5);
  EXPECT_EQ(map.sections[1].boundary, Boundary::kRet);
}

TEST(Sections, EveryInstructionBelongsToExactlyOneSection) {
  for (const auto& workload : workloads::all()) {
    for (Technique technique : {Technique::kNone, Technique::kFerrum}) {
      const auto build = pipeline::build(workload.source, technique);
      const SectionMap map = check::sections::build_sections(build.program);
      for (std::size_t f = 0; f < build.program.functions.size(); ++f) {
        const masm::AsmFunction& fn = build.program.functions[f];
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
          int previous = -1;
          for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
            const int id = map.section_of(static_cast<int>(f),
                                          static_cast<int>(b),
                                          static_cast<int>(i));
            ASSERT_GE(id, 0);
            ASSERT_LT(id, static_cast<int>(map.sections.size()));
            const check::sections::Section& section =
                map.sections[static_cast<std::size_t>(id)];
            // Membership is consistent with the section's span...
            EXPECT_EQ(section.function, static_cast<int>(f));
            EXPECT_EQ(section.block, static_cast<int>(b));
            EXPECT_GE(static_cast<int>(i), section.first_inst);
            EXPECT_LE(static_cast<int>(i), section.last_inst);
            // ...and sections tile the block in order without gaps.
            if (previous != id) {
              EXPECT_EQ(static_cast<int>(i), section.first_inst);
              if (previous >= 0) {
                EXPECT_EQ(map.sections[static_cast<std::size_t>(previous)]
                              .last_inst,
                          static_cast<int>(i) - 1);
              }
            }
            previous = id;
          }
        }
      }
    }
  }
}

TEST(Sections, SyncPointsOnlyEverEndSections) {
  for (const auto& workload : workloads::all()) {
    const auto build = pipeline::build(workload.source, Technique::kFerrum);
    const SectionMap map = check::sections::build_sections(build.program);
    for (const check::sections::Section& section : map.sections) {
      const masm::AsmFunction& fn =
          build.program.functions[static_cast<std::size_t>(section.function)];
      const auto& insts =
          fn.blocks[static_cast<std::size_t>(section.block)].insts;
      for (int i = section.first_inst; i <= section.last_inst; ++i) {
        const masm::AsmInst& inst = insts[static_cast<std::size_t>(i)];
        const bool is_sync =
            inst.op == masm::Op::kJcc || inst.op == masm::Op::kJmp ||
            inst.op == masm::Op::kCall || inst.op == masm::Op::kRet ||
            inst.op == masm::Op::kDetectTrap ||
            masm::effects_of(inst).writes_mem;
        if (i < section.last_inst) {
          EXPECT_FALSE(is_sync)
              << workload.name << ": interior sync point at " << fn.name
              << " block " << section.block << " inst " << i;
        } else if (section.boundary != Boundary::kBlockEnd) {
          EXPECT_TRUE(is_sync);
        }
      }
    }
  }
}

TEST(Sections, InterfaceLivenessIsConsistentAcrossTheBoundary) {
  masm::AsmProgram program;
  const SectionMap map = sections_of_text(kStraightLine, program);
  ASSERT_EQ(map.sections.size(), 2u);
  // %rdi carries the print_int argument into the call: live on the
  // interface into the first section's final stretch, and %rax is
  // rebuilt inside section 1, dead on entry to it.
  const masm::Liveness liveness(program.functions[0]);
  EXPECT_EQ(map.sections[0].interface.live_in, liveness.live_after(0, -1));
  EXPECT_EQ(map.sections[0].interface.live_out, liveness.live_after(0, 3));
  EXPECT_EQ(map.sections[1].interface.live_in, liveness.live_after(0, 3));
}

TEST(Sections, JsonIsDeterministic) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kFerrum);
  const SectionMap first = check::sections::build_sections(build.program);
  const SectionMap second = check::sections::build_sections(build.program);
  EXPECT_EQ(
      check::sections::to_json(first, build.program).dump(),
      check::sections::to_json(second, build.program).dump());
}

// ---------------------------------------------------- key contract --

TEST(SectionKey, PinnedGoldenMaterial) {
  fault::SectionKeyInfo info;
  info.mode = "audit";
  info.code_sha256 = "aa11";
  info.state_digest = "0123456789abcdef";
  info.dynamic_sites = 12;
  info.occurrences = 3;
  info.max_steps = 4096;
  info.probe_bits = {0, 17, 63};
  info.burst = 2;
  info.store_data = true;
  const std::string material = fault::section_key_material(info);
  EXPECT_EQ(material,
            "ferrum-section-v2\n"
            "mode=audit\n"
            "code_sha256=aa11\n"
            "state_digest=0123456789abcdef\n"
            "dynamic_sites=12\n"
            "occurrences=3\n"
            "max_steps=4096\n"
            "probe_bits=0,17,63\n"
            "trials=0\n"
            "seed=0\n"
            "burst=2\n"
            "store_data=1\n"
            "max_half_width=0\n");
  EXPECT_EQ(fault::section_key(info), sha256_hex(material));
}

TEST(SectionKey, EveryDeclaredInputMovesTheKey) {
  fault::SectionKeyInfo info;
  info.mode = "campaign";
  info.code_sha256 = "aa11";
  info.state_digest = "0123456789abcdef";
  info.dynamic_sites = 12;
  info.occurrences = 3;
  info.max_steps = 4096;
  info.trials = 64;
  info.seed = 7;
  const std::string base = fault::section_key(info);
  fault::SectionKeyInfo moved = info;
  moved.code_sha256 = "aa12";
  EXPECT_NE(fault::section_key(moved), base);
  moved = info;
  moved.state_digest = "0123456789abcdee";
  EXPECT_NE(fault::section_key(moved), base);
  moved = info;
  moved.trials = 65;
  EXPECT_NE(fault::section_key(moved), base);
  moved = info;
  moved.seed = 8;
  EXPECT_NE(fault::section_key(moved), base);
  moved = info;
  moved.max_steps = 8192;
  EXPECT_NE(fault::section_key(moved), base);
  moved = info;
  moved.max_half_width = 0.02;
  EXPECT_NE(fault::section_key(moved), base);
}

// ---------------------------------------------------- composition --

TEST(Compose, AuditAgreementIsExact) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kFerrum);
  const SectionMap map = check::sections::build_sections(build.program);

  fault::AuditOptions audit_options;
  audit_options.probe_bits = {17};
  const fault::AuditReport audit =
      fault::audit_program(build.program, audit_options);

  fault::ComposeOptions compose_options;
  compose_options.probe_bits = {17};
  const fault::ComposeReport composed =
      fault::compose_audit(build.program, map, compose_options);

  EXPECT_EQ(composed.sites, audit.sites);
  EXPECT_EQ(composed.injections, audit.injections);
  EXPECT_EQ(composed.detected, audit.detected);
  EXPECT_EQ(composed.benign, audit.benign);
  EXPECT_EQ(composed.crashed, audit.crashed);
  EXPECT_EQ(composed.sdc, audit.escapes.size());
  // The fold really decomposed the program (not one catch-all section).
  EXPECT_GT(composed.sections.size(), 1u);
}

TEST(Compose, StridedSweepsAgreeOnTheStridedFrame) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kHybrid);
  const SectionMap map = check::sections::build_sections(build.program);

  fault::AuditOptions audit_options;
  audit_options.probe_bits = {17};
  audit_options.site_stride = 7;
  const fault::AuditReport audit =
      fault::audit_program(build.program, audit_options);

  fault::ComposeOptions compose_options;
  compose_options.probe_bits = {17};
  compose_options.site_stride = 7;
  const fault::ComposeReport composed =
      fault::compose_audit(build.program, map, compose_options);

  EXPECT_EQ(composed.injections, audit.injections);
  EXPECT_EQ(composed.detected, audit.detected);
  EXPECT_EQ(composed.benign, audit.benign);
  EXPECT_EQ(composed.crashed, audit.crashed);
  EXPECT_EQ(composed.sdc, audit.escapes.size());
  // A seventh of the exhaustive frame, give or take the remainder.
  EXPECT_EQ(audit.injections, (audit.sites + 6) / 7);
}

TEST(Compose, StrideRejectsCachingAndPrunedAudit) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kNone);
  const SectionMap map = check::sections::build_sections(build.program);
  fault::ComposeOptions options;
  options.site_stride = 7;
  std::map<std::string, std::string> cache;
  options.lookup = [&cache](const std::string& key)
      -> std::optional<std::string> {
    const auto it = cache.find(key);
    if (it == cache.end()) return std::nullopt;
    return it->second;
  };
  options.store = [&cache](const std::string& key, const std::string& bytes) {
    cache[key] = bytes;
  };
  EXPECT_THROW(fault::compose_audit(build.program, map, options),
               std::invalid_argument);
}

TEST(Compose, SummariesAreSchedulingInvariant) {
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kFerrum);
  const SectionMap map = check::sections::build_sections(build.program);
  std::string reference;
  for (const int jobs : {1, 2, 8}) {
    fault::ComposeOptions options;
    options.trials = 96;
    options.jobs = jobs;
    const fault::ComposeReport report =
        fault::compose_campaign(build.program, map, options);
    const std::string dump = telemetry::to_json(report).dump();
    if (reference.empty()) {
      reference = dump;
    } else {
      EXPECT_EQ(dump, reference) << "compose diverged at jobs=" << jobs;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(Compose, AdaptiveStopsPerSectionDeterministically) {
  // The stop rule shrinks each section's budget independently, and every
  // stopped count is a pure function of the section key (which includes
  // max_half_width): jobs must not move a single byte of the
  // composed JSON, and a warm pass over early-stopped summaries must
  // reproduce the composed result without re-running anything.
  const auto build =
      pipeline::build(workloads::by_name("bfs").source, Technique::kFerrum);
  const SectionMap map = check::sections::build_sections(build.program);
  service::ResultCache cache("");  // memory-only
  fault::ComposeOptions options;
  options.trials = 8192;
  options.max_half_width = 0.05;
  options.lookup = [&cache](const std::string& key) {
    return cache.lookup(key);
  };
  options.store = [&cache](const std::string& key, const std::string& bytes) {
    cache.store(key, bytes, /*replace=*/true);
  };
  const fault::ComposeReport first =
      fault::compose_campaign(build.program, map, options);
  ASSERT_TRUE(first.adaptive.enabled);
  EXPECT_TRUE(first.adaptive.stopped_early);
  EXPECT_LT(first.adaptive.executed_trials, first.adaptive.planned_trials);
  bool any_section_stopped = false;
  for (const fault::SectionSummary& summary : first.sections) {
    if (summary.trials == 0) continue;
    EXPECT_LE(summary.trials, summary.planned);
    if (summary.stopped_early) any_section_stopped = true;
  }
  EXPECT_TRUE(any_section_stopped);
  const std::string reference = telemetry::to_json(first).dump();

  for (const int jobs : {2, 8}) {
    // A fresh memory-only cache per run: cold execution, but the same
    // summary shape (the `key` field rides with caching).
    service::ResultCache fresh("");
    fault::ComposeOptions knobs;
    knobs.trials = options.trials;
    knobs.max_half_width = options.max_half_width;
    knobs.jobs = jobs;
    knobs.lookup = [&fresh](const std::string& key) {
      return fresh.lookup(key);
    };
    knobs.store = [&fresh](const std::string& key, const std::string& bytes) {
      fresh.store(key, bytes, /*replace=*/true);
    };
    const fault::ComposeReport report =
        fault::compose_campaign(build.program, map, knobs);
    EXPECT_EQ(telemetry::to_json(report).dump(), reference)
        << "jobs=" << jobs;
  }

  // Warm: the early-stopped summaries answer from the cache (planned
  // matches, trials <= planned) and compose to the identical report.
  const fault::ComposeReport warm =
      fault::compose_campaign(build.program, map, options);
  EXPECT_EQ(warm.trials_executed, 0u);
  EXPECT_EQ(warm.cold_sections, 0u);
  EXPECT_EQ(telemetry::to_json(warm).dump(), reference);
}

// ---------------------------------------------------- incremental --

constexpr const char* kProgramV1 = R"(
  int f(int x) { int s = 0; for (int i = 0; i < x; i++) s += i * 3 + x; return s + x * 2; }
  int g(int x) { int t = 1; for (int i = 0; i < 10; i++) t = (t + x + i) % 97; return t; }
  int main() { int a = f(6); int b = g(a); print_int(a); print_int(b); return 0; }
)";

// The edit: a commutative swap inside f — semantically identical, but a
// different instruction stream, so every section of f re-keys while the
// machine states flowing into g and main's tail are unchanged.
constexpr const char* kProgramV2 = R"(
  int f(int x) { int s = 0; for (int i = 0; i < x; i++) s += x + i * 3; return s + x * 2; }
  int g(int x) { int t = 1; for (int i = 0; i < 10; i++) t = (t + x + i) % 97; return t; }
  int main() { int a = f(6); int b = g(a); print_int(a); print_int(b); return 0; }
)";

fault::ComposeReport compose_cached(const masm::AsmProgram& program,
                                    service::ResultCache& cache) {
  const SectionMap map = check::sections::build_sections(program);
  fault::ComposeOptions options;
  options.trials = 64;
  options.lookup = [&cache](const std::string& key) {
    return cache.lookup(key);
  };
  options.store = [&cache](const std::string& key, const std::string& bytes) {
    cache.store(key, bytes, /*replace=*/true);
  };
  return fault::compose_campaign(program, map, options);
}

fault::ComposeReport run_incremental(const char* source,
                                     service::ResultCache& cache) {
  return compose_cached(pipeline::build(source, Technique::kFerrum).program,
                        cache);
}

TEST(Incremental, EditingOneFunctionRecampaignsOnlyItsSections) {
  const std::string dir_a = "tsec-cache-a-" + std::to_string(::getpid());
  const std::string dir_b = "tsec-cache-b-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  service::ResultCache cache_a(dir_a);
  service::ResultCache cache_b(dir_b);

  // Cold baseline of v1 into cache A.
  const fault::ComposeReport v1 = run_incremental(kProgramV1, cache_a);
  EXPECT_EQ(v1.warm_sections, 0u);
  EXPECT_GT(v1.trials_executed, 0u);

  // Edit f, recompose against the v1 cache: only f's sections (new code
  // hash) and the sections whose cached trials ran into f after their
  // fault (stale dependency certificate) may re-campaign.
  const fault::ComposeReport v2 = run_incremental(kProgramV2, cache_a);
  EXPECT_GT(v2.warm_sections, 0u);
  EXPECT_GT(v2.cold_sections, 0u);
  EXPECT_LT(v2.trials_executed, v1.trials_executed);

  const auto build = pipeline::build(kProgramV2, Technique::kFerrum);
  const SectionMap map = check::sections::build_sections(build.program);
  int g_index = -1;
  for (std::size_t f = 0; f < build.program.functions.size(); ++f) {
    if (build.program.functions[f].name == "g") g_index = static_cast<int>(f);
  }
  ASSERT_GE(g_index, 0);
  // g is unchanged and control never re-enters f once g runs, so every
  // campaigned section of g must answer warm with zero engine trials.
  std::size_t g_sections = 0;
  for (const fault::SectionSummary& summary : v2.sections) {
    if (summary.trials == 0) continue;
    const check::sections::Section& section =
        map.sections[static_cast<std::size_t>(summary.section)];
    if (section.function != g_index) continue;
    ++g_sections;
    EXPECT_TRUE(summary.cached) << "section " << summary.section;
    EXPECT_EQ(summary.trials_executed, 0u);
  }
  EXPECT_GT(g_sections, 0u);

  // The composed result must be byte-identical to a from-scratch
  // campaign of v2 into a fresh cache.
  const fault::ComposeReport scratch = run_incremental(kProgramV2, cache_b);
  EXPECT_EQ(telemetry::to_json(v2).dump(), telemetry::to_json(scratch).dump());

  // And a second pass over the now-updated cache is fully warm: the
  // stale-certificate entries were replaced, not wedged (the replace
  // contract on ResultCache::store).
  const fault::ComposeReport warm = run_incremental(kProgramV2, cache_a);
  EXPECT_EQ(warm.trials_executed, 0u);
  EXPECT_EQ(warm.cold_sections, 0u);
  EXPECT_EQ(telemetry::to_json(warm).dump(), telemetry::to_json(v2).dump());

  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(Incremental, RejoinCertificatesPinTheReadMasks) {
  // A cached FERRUM trial may rejoin while differing from golden in
  // register bytes its program never reads (%r10's upper bytes). The
  // same program plus a never-called function that reads %r10 whole has
  // identical section keys and golden states, but those rejoins no
  // longer prove anything: their sections must re-campaign, and the
  // composition must still equal a from-scratch run.
  const auto build = pipeline::build(kProgramV1, Technique::kFerrum);
  DiagEngine diags;
  masm::AsmProgram reader = masm::parse_program(R"(
reads_r10:
.entry:
	movq	%r10, %rax
	ret
)",
                                                diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  masm::AsmProgram widened = build.program;
  widened.functions.push_back(std::move(reader.functions.front()));

  service::ResultCache cache("");
  const fault::ComposeReport cold = compose_cached(build.program, cache);
  EXPECT_GT(cold.ckpt.ff.rejoins, 0u);
  EXPECT_EQ(compose_cached(build.program, cache).cold_sections, 0u);

  const fault::ComposeReport rerun = compose_cached(widened, cache);
  EXPECT_GT(rerun.cold_sections, 0u);
  service::ResultCache fresh("");
  EXPECT_EQ(telemetry::to_json(rerun).dump(),
            telemetry::to_json(compose_cached(widened, fresh)).dump());
}

TEST(Incremental, CacheValueSurvivesDiskRoundTrip) {
  const std::string dir = "tsec-cache-disk-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    service::ResultCache cache(dir);
    const fault::ComposeReport cold = run_incremental(kProgramV1, cache);
    EXPECT_GT(cold.trials_executed, 0u);
  }
  // A fresh instance over the same directory (a restart) must answer
  // every section from the disk tier.
  service::ResultCache reopened(dir);
  const fault::ComposeReport warm = run_incremental(kProgramV1, reopened);
  EXPECT_EQ(warm.trials_executed, 0u);
  EXPECT_EQ(warm.cold_sections, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ferrum
