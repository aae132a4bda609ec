#include "fault/compose.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>

// Plain data + inline lookups only, like audit's check/prune.h include:
// the decomposition itself runs in ferrum_check and reaches this layer
// as a built SectionMap, so ferrum_fault takes no link dependency on it.
#include "check/sections.h"
#include "fault/adaptive.h"
#include "fault/audit.h"
#include "fault/executor.h"
#include "fault/prune_map.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/str.h"
#include "vm/engine.h"

namespace ferrum::fault {

namespace {

using detail::mix64;

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// First 16 hex digits of a SHA-256 as a salt word (0 on malformed).
std::uint64_t sha_prefix64(const std::string& sha) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 16 && i < sha.size(); ++i) {
    const char c = sha[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return 0;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

/// Per-section golden-run facts gathered from the site pc/digest sinks.
struct SectionRuntime {
  std::vector<std::uint64_t> sites;  // absolute dynamic site ids, ascending
  std::uint64_t occurrences = 0;
  std::uint64_t digest_fold = 0;  // fold of per-site digests (caching only)
};

/// What a stored summary carries besides the counts: the validation
/// dependencies that gate its reuse.
struct StoredSummary {
  std::uint64_t detected = 0;
  std::uint64_t benign = 0;
  std::uint64_t crashed = 0;
  std::uint64_t sdc = 0;
  /// Trials the counts cover (== planned unless the stop rule fired).
  std::uint64_t trials = 0;
  /// The plan the summary was computed under. The warm gate compares
  /// THIS against today's plan, not `trials`: an early-stopped summary
  /// legitimately covers fewer trials than it was planned for, and the
  /// stopped count is already a pure function of the key material.
  std::uint64_t planned = 0;
  bool touched_all = false;
  std::vector<std::pair<std::string, std::string>> touched;  // fn -> sha
  std::vector<std::pair<std::uint64_t, std::uint64_t>> deps;  // site -> digest
};

std::string serialize_summary(const StoredSummary& summary) {
  std::string out = "ferrum-section-summary-v2\n";
  const auto num = [&out](const char* key, std::uint64_t value) {
    out += key;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  num("detected", summary.detected);
  num("benign", summary.benign);
  num("crashed", summary.crashed);
  num("sdc", summary.sdc);
  num("trials", summary.trials);
  num("planned", summary.planned);
  num("touched_all", summary.touched_all ? 1 : 0);
  for (const auto& [name, sha] : summary.touched) {
    out += "touched " + name + " " + sha + "\n";
  }
  for (const auto& [site, digest] : summary.deps) {
    out += "dep " + std::to_string(site) + " " + hex16(digest) + "\n";
  }
  return out;
}

std::optional<StoredSummary> parse_summary(const std::string& bytes) {
  StoredSummary summary;
  std::size_t pos = 0;
  const auto next_line = [&]() -> std::optional<std::string> {
    if (pos >= bytes.size()) return std::nullopt;
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) return std::nullopt;  // strict: must end \n
    std::string line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  const auto parse_u64 = [](const std::string& text,
                            std::uint64_t& out) -> bool {
    if (text.empty()) return false;
    out = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') return false;
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
  };
  auto header = next_line();
  if (!header.has_value() || *header != "ferrum-section-summary-v2") {
    return std::nullopt;
  }
  for (auto line = next_line(); line.has_value(); line = next_line()) {
    const std::size_t space = line->find(' ');
    if (space == std::string::npos) return std::nullopt;
    const std::string key = line->substr(0, space);
    const std::string rest = line->substr(space + 1);
    std::uint64_t value = 0;
    if (key == "detected" && parse_u64(rest, summary.detected)) continue;
    if (key == "benign" && parse_u64(rest, summary.benign)) continue;
    if (key == "crashed" && parse_u64(rest, summary.crashed)) continue;
    if (key == "sdc" && parse_u64(rest, summary.sdc)) continue;
    if (key == "trials" && parse_u64(rest, summary.trials)) continue;
    if (key == "planned" && parse_u64(rest, summary.planned)) continue;
    if (key == "touched_all" && parse_u64(rest, value)) {
      summary.touched_all = value != 0;
      continue;
    }
    if (key == "touched") {
      const std::size_t sep = rest.rfind(' ');
      if (sep == std::string::npos) return std::nullopt;
      summary.touched.emplace_back(rest.substr(0, sep), rest.substr(sep + 1));
      continue;
    }
    if (key == "dep") {
      const std::size_t sep = rest.find(' ');
      if (sep == std::string::npos) return std::nullopt;
      std::uint64_t site = 0;
      if (!parse_u64(rest.substr(0, sep), site)) return std::nullopt;
      const std::string hex = rest.substr(sep + 1);
      if (hex.size() != 16) return std::nullopt;
      std::uint64_t digest = 0;
      for (const char c : hex) {
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else {
          return std::nullopt;
        }
        digest = (digest << 4) | static_cast<std::uint64_t>(digit);
      }
      summary.deps.emplace_back(site, digest);
      continue;
    }
    return std::nullopt;  // unknown or malformed line
  }
  return summary;
}

/// Campaign-mode trial budget: faulty_step_budget rounded up to the next
/// power of two. The quantized budget is still an exact key input (every
/// trial runs under it, so a summary is only reused at the identical
/// budget), but small golden-step drifts from an edit land in the same
/// quantum instead of re-keying every section in the program. Audit mode
/// keeps the exact audit budget so agreement with fault::audit_program
/// stays structural.
std::uint64_t quantize_budget(std::uint64_t budget) {
  std::uint64_t quantum = 1;
  while (quantum < budget) quantum <<= 1;
  return quantum;
}

/// One planned injection.
struct WorkItem {
  std::uint64_t site = 0;
  int bit = 0;
  std::int32_t section = 0;
};

}  // namespace

std::string section_key_material(const SectionKeyInfo& info) {
  std::string material = "ferrum-section-v2\n";
  material += "mode=" + info.mode + "\n";
  material += "code_sha256=" + info.code_sha256 + "\n";
  material += "state_digest=" + info.state_digest + "\n";
  material += "dynamic_sites=" + std::to_string(info.dynamic_sites) + "\n";
  material += "occurrences=" + std::to_string(info.occurrences) + "\n";
  material += "max_steps=" + std::to_string(info.max_steps) + "\n";
  material += "probe_bits=";
  for (std::size_t i = 0; i < info.probe_bits.size(); ++i) {
    if (i != 0) material += ',';
    material += std::to_string(info.probe_bits[i]);
  }
  material += "\n";
  material += "trials=" + std::to_string(info.trials) + "\n";
  material += "seed=" + std::to_string(info.seed) + "\n";
  material += "burst=" + std::to_string(info.burst) + "\n";
  material += "store_data=" + std::string(info.store_data ? "1" : "0") + "\n";
  // Canonical round-trip formatter: the same double always prints the
  // same line (0 for the disabled default), matching cell_key_material.
  material += "max_half_width=" + format_double(info.max_half_width) + "\n";
  return material;
}

std::string section_key(const SectionKeyInfo& info) {
  return sha256_hex(section_key_material(info));
}

namespace {

ComposeReport compose_impl(const masm::AsmProgram& program,
                           const check::sections::SectionMap& map,
                           const ComposeOptions& options,
                           const bool audit_mode) {
  const bool caching = options.lookup != nullptr && options.store != nullptr;
  const std::uint64_t stride =
      audit_mode && options.site_stride > 1
          ? static_cast<std::uint64_t>(options.site_stride)
          : 1;
  if (stride > 1 && caching) {
    throw std::invalid_argument(
        "site_stride is a validation-harness subsample; cached summaries "
        "must cover every site");
  }
  if (audit_mode && options.max_half_width > 0.0) {
    throw std::invalid_argument(
        "adaptive early stopping applies to compose_campaign only "
        "(compose_audit is exhaustive)");
  }
  // NaN fails the first comparison, so it is rejected too — the same
  // range validate_cell enforces for whole-program cells.
  if (!audit_mode &&
      (!(options.max_half_width >= 0.0) || options.max_half_width >= 0.5)) {
    throw std::invalid_argument("max_half_width must be in [0, 0.5)");
  }
  const StopRule rule{options.max_half_width};
  // Golden run: checkpoints, the site pc map and (when caching) the
  // per-site liveness-masked state digests.
  const Golden golden(program, options.vm,
                      caching ? GoldenRecord::kSiteDigests
                              : GoldenRecord::kSiteMap);
  const vm::PredecodedProgram& decoded = golden.decoded;
  const vm::VmResult& golden_run = golden.result;
  const std::vector<std::uint64_t>& site_digests = golden.site_digests;

  // Dynamic site -> section, via the decoded instruction each site's pc
  // names. Sections are straight-line, so one traversal's sites are
  // consecutive in the stream; a new occurrence starts when the section
  // changes or the pc does not advance (loop re-entry).
  const std::size_t nsites = static_cast<std::size_t>(golden_run.fi_sites);
  std::vector<std::int32_t> site_section(nsites, -1);
  std::vector<SectionRuntime> runtime(map.sections.size());
  std::int32_t prev_section = -1;
  std::int32_t prev_pc = -1;
  for (std::size_t id = 0; id < nsites; ++id) {
    const std::int32_t pc = golden.site_pcs[id];
    const vm::DecodedInst& d = decoded.code()[static_cast<std::size_t>(pc)];
    const int section = map.section_of(d.fidx, d.bidx, d.iidx);
    if (section < 0 ||
        static_cast<std::size_t>(section) >= runtime.size()) {
      throw std::runtime_error(
          "compose: dynamic site outside the section partition");
    }
    site_section[id] = section;
    SectionRuntime& rt = runtime[static_cast<std::size_t>(section)];
    if (section != prev_section || pc <= prev_pc) ++rt.occurrences;
    rt.sites.push_back(id);
    if (caching) rt.digest_fold = mix64(rt.digest_fold ^ site_digests[id]);
    prev_section = section;
    prev_pc = pc;
  }
  std::uint64_t mapped = 0;
  for (const SectionRuntime& rt : runtime) mapped += rt.sites.size();
  if (mapped != golden_run.fi_sites) {
    throw std::runtime_error(
        "compose: sections do not partition the dynamic site stream");
  }

  // Golden-rejoin certificate digests. A trial rejoins where its state
  // matches golden under this program's GPR read masks, so the digest of
  // each rejoin boundary also folds the masks: an edit that makes more
  // register bytes readable invalidates the certificate (false miss).
  std::uint64_t read_mask_fold = 0;
  for (int r = 0; r < masm::kGprCount; ++r) {
    read_mask_fold = mix64(read_mask_fold ^
                           decoded.gpr_read_mask(static_cast<masm::Gpr>(r)));
  }
  const auto rejoin_digest = [&](std::uint64_t site) {
    return mix64(site_digests[site] ^ read_mask_fold);
  };

  vm::VmOptions faulty = golden.faulty(options.vm);
  if (!audit_mode) faulty.max_steps = quantize_budget(faulty.max_steps);
  faulty.track_touched_functions = caching;
  const std::uint64_t max_steps = faulty.max_steps;

  ComposeReport report;
  report.sites = golden_run.fi_sites;
  report.golden_steps = golden_run.steps;
  report.sections.resize(map.sections.size());

  // Per-section plan: trials each section owes. Audit mode probes every
  // site x bit. Campaign mode samples at a per-site rate derived from
  // options.trials, quantized to a power of two, so a section's
  // allocation (and hence its cache key) depends only on its own site
  // count — a global apportionment would re-key every section whenever
  // an edit changed the program's total site count. The composed total
  // tracks options.trials but is not exactly it.
  std::vector<std::uint64_t> plan_trials(map.sections.size(), 0);
  if (audit_mode) {
    for (std::size_t s = 0; s < runtime.size(); ++s) {
      std::uint64_t selected = 0;
      for (const std::uint64_t site : runtime[s].sites) {
        if (site % stride == 0) ++selected;
      }
      plan_trials[s] = selected * options.probe_bits.size();
    }
  } else if (golden_run.fi_sites > 0 && options.trials > 0) {
    const double rate = static_cast<double>(options.trials) /
                        static_cast<double>(golden_run.fi_sites);
    const double rate_q = std::exp2(std::round(std::log2(rate)));
    for (std::size_t s = 0; s < runtime.size(); ++s) {
      if (runtime[s].sites.empty()) continue;
      const double sites = static_cast<double>(runtime[s].sites.size());
      plan_trials[s] = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(rate_q * sites)));
    }
  }

  // Keys + warm lookups, in section id order.
  std::vector<StoredSummary> warm(map.sections.size());
  std::vector<bool> is_warm(map.sections.size(), false);
  std::unordered_map<std::string, std::string> fn_sha;
  if (caching) {
    for (const masm::AsmFunction& fn : program.functions) {
      fn_sha[fn.name] = sha256_hex(masm::print(fn));
    }
  }
  for (std::size_t s = 0; s < map.sections.size(); ++s) {
    SectionSummary& summary = report.sections[s];
    summary.section = static_cast<int>(s);
    summary.code_sha256 = map.sections[s].code_sha256;
    summary.dynamic_sites = runtime[s].sites.size();
    summary.occurrences = runtime[s].occurrences;
    summary.planned = plan_trials[s];
    if (!caching || plan_trials[s] == 0) continue;
    SectionKeyInfo info;
    info.mode = audit_mode ? "audit" : "campaign";
    info.code_sha256 = map.sections[s].code_sha256;
    info.state_digest = hex16(runtime[s].digest_fold);
    info.dynamic_sites = runtime[s].sites.size();
    info.occurrences = runtime[s].occurrences;
    info.max_steps = max_steps;
    if (audit_mode) {
      info.probe_bits = options.probe_bits;
    } else {
      info.trials = plan_trials[s];
      info.seed = options.seed;
    }
    info.burst = options.burst;
    info.store_data = options.vm.fault_store_data;
    info.max_half_width = rule.max_half_width;
    summary.key = section_key(info);
    const std::optional<std::string> hit = options.lookup(summary.key);
    if (!hit.has_value()) continue;
    std::optional<StoredSummary> parsed = parse_summary(*hit);
    if (!parsed.has_value()) continue;
    // Reuse gate, false-miss-only: the summary must have been computed
    // under today's PLAN (not today's stopped count — an early-stopped
    // summary legitimately covers a prefix of the plan, and that prefix
    // length is already determined by the key material), every function
    // the cached trials touched post-fault must still print to the same
    // SHA-256, and every golden-rejoin boundary the cached trials used
    // must carry the same golden state digest today.
    if (parsed->planned != plan_trials[s]) continue;
    if (parsed->trials == 0 || parsed->trials > parsed->planned) continue;
    if (parsed->touched_all &&
        parsed->touched.size() != program.functions.size()) {
      continue;
    }
    bool valid = true;
    for (const auto& [name, sha] : parsed->touched) {
      const auto it = fn_sha.find(name);
      if (it == fn_sha.end() || it->second != sha) {
        valid = false;
        break;
      }
    }
    if (valid) {
      for (const auto& [site, digest] : parsed->deps) {
        if (site >= site_digests.size() || rejoin_digest(site) != digest) {
          valid = false;
          break;
        }
      }
    }
    if (!valid) continue;
    warm[s] = std::move(*parsed);
    is_warm[s] = true;
  }

  // Per-section cold plans, each in its section's canonical trial order
  // — exactly the order the stop rule consumes a prefix of. Drawing the
  // FULL plan up front (even when the rule will stop early) is what
  // keeps a section's trial stream independent of the stopping decision.
  std::vector<std::vector<WorkItem>> plan(map.sections.size());
  for (std::size_t s = 0; s < map.sections.size(); ++s) {
    if (is_warm[s] || plan_trials[s] == 0) continue;
    const SectionRuntime& rt = runtime[s];
    std::vector<WorkItem>& items = plan[s];
    if (audit_mode) {
      for (const std::uint64_t site : rt.sites) {
        if (site % stride != 0) continue;
        for (const int bit : options.probe_bits) {
          items.push_back({site, bit, static_cast<std::int32_t>(s)});
        }
      }
    } else {
      std::uint64_t seed = mix64(options.seed ^
                                 sha_prefix64(map.sections[s].code_sha256));
      seed = mix64(seed ^ rt.sites.size());
      seed = mix64(seed ^ rt.occurrences);
      Rng rng(seed);
      for (std::uint64_t t = 0; t < plan_trials[s]; ++t) {
        const std::uint64_t rel = rng.next_below(rt.sites.size());
        const int bit = static_cast<int>(rng.next_below(64));
        items.push_back(
            {rt.sites[static_cast<std::size_t>(rel)], bit,
             static_cast<std::int32_t>(s)});
      }
    }
  }

  // Per-section stop-rule state. Each cold section walks its OWN
  // power-of-two boundary ladder; a global round executes every active
  // section's next block on the pool at once (flattened, site-ascending
  // within the round), then evaluates each section's rule at the
  // boundary it just reached. Budgets shrink independently: a pinned
  // section drops out while its neighbours keep running.
  struct SectionStop {
    std::vector<std::uint64_t> boundaries;
    std::size_t next = 0;
    std::array<int, 4> counts{};  // indexed by ProbeOutcome value
    std::uint64_t executed = 0;
    bool active = false;
  };
  constexpr std::uint64_t kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  std::vector<SectionStop> stops(map.sections.size());
  for (std::size_t s = 0; s < map.sections.size(); ++s) {
    if (plan[s].empty()) continue;
    SectionStop& st = stops[s];
    st.active = true;
    if (rule.enabled() && plan[s].size() <= kIntMax) {
      for (const int b :
           stop_boundaries(static_cast<int>(plan[s].size()), rule)) {
        st.boundaries.push_back(static_cast<std::uint64_t>(b));
      }
    } else {
      st.boundaries.push_back(plan[s].size());
    }
  }

  // Execute the cold work across the pool, one boundary round at a time.
  // Each item records into its own slot, so the per-section reduction
  // below (commutative count sums) is identical for every jobs and
  // stride — and so is the stop decision, which only reads those slots
  // at boundaries fixed before anything ran.
  std::vector<WorkItem> work;
  std::vector<vm::FaultSpec> faults;  // work[w]'s fault, index-aligned
  std::vector<std::uint8_t> outcomes;
  std::vector<std::uint64_t> touched;
  std::vector<std::uint64_t> rejoin_sites;
  std::vector<std::uint8_t> rejoined;
  TrialExecutor executor(golden, faulty, options.jobs);
  const auto record = [&](std::size_t w, const vm::VmResult& run) {
    outcomes[w] =
        static_cast<std::uint8_t>(probe_outcome(run, golden_run.output));
    if (caching) {
      touched[w] = run.touched_functions;
      rejoined[w] = run.rejoined ? 1 : 0;
      rejoin_sites[w] = run.rejoin_site;
    }
  };
  while (true) {
    // Collect every active section's next block into one flat round.
    const std::size_t round_begin = work.size();
    for (std::size_t s = 0; s < map.sections.size(); ++s) {
      const SectionStop& st = stops[s];
      if (!st.active) continue;
      const std::uint64_t upto = st.boundaries[st.next];
      for (std::uint64_t t = st.executed; t < upto; ++t) {
        work.push_back(plan[s][static_cast<std::size_t>(t)]);
      }
    }
    if (work.size() == round_begin) break;
    // Site-ascending within the round so each worker's chunk covers a
    // narrow stretch of the golden walk.
    std::stable_sort(work.begin() + static_cast<std::ptrdiff_t>(round_begin),
                     work.end(),
                     [](const WorkItem& a, const WorkItem& b) {
                       return a.site < b.site;
                     });
    faults.resize(work.size());
    for (std::size_t w = round_begin; w < work.size(); ++w) {
      faults[w].site = work[w].site;
      faults[w].bit = work[w].bit;
      faults[w].burst = options.burst;
    }
    outcomes.resize(work.size(), 0);
    if (caching) {
      touched.resize(work.size(), 0);
      rejoin_sites.resize(work.size(), 0);
      rejoined.resize(work.size(), 0);
    }
    executor.run(faults, 1, round_begin, work.size(), record);
    // Tally the round into each section's running counts, then evaluate
    // each active section's rule at the boundary it just reached.
    for (std::size_t w = round_begin; w < work.size(); ++w) {
      ++stops[static_cast<std::size_t>(work[w].section)]
            .counts[outcomes[w]];
    }
    for (std::size_t s = 0; s < map.sections.size(); ++s) {
      SectionStop& st = stops[s];
      if (!st.active) continue;
      st.executed = st.boundaries[st.next];
      ++st.next;
      const bool budget_done = st.next == st.boundaries.size();
      const bool pinned =
          rule.enabled() &&
          max_outcome_half_width(st.counts,
                                 static_cast<int>(st.executed)) <=
              rule.max_half_width;
      if (budget_done || pinned) st.active = false;
    }
  }
  report.wall_seconds = executor.wall_seconds();
  report.ckpt = executor.telemetry();
  report.trials_executed = work.size();

  // Per-section reduction of the cold work, then the composition fold.
  std::vector<StoredSummary> cold(map.sections.size());
  std::vector<std::uint64_t> cold_touched(map.sections.size(), 0);
  std::vector<std::map<std::uint64_t, std::uint64_t>> cold_deps(
      caching ? map.sections.size() : 0);
  for (std::size_t w = 0; w < work.size(); ++w) {
    StoredSummary& acc = cold[static_cast<std::size_t>(work[w].section)];
    switch (static_cast<ProbeOutcome>(outcomes[w])) {
      case ProbeOutcome::kDetected: ++acc.detected; break;
      case ProbeOutcome::kCrashed: ++acc.crashed; break;
      case ProbeOutcome::kBenign: ++acc.benign; break;
      case ProbeOutcome::kSdc: ++acc.sdc; break;
    }
    ++acc.trials;
    if (caching) {
      cold_touched[static_cast<std::size_t>(work[w].section)] |= touched[w];
      if (rejoined[w] != 0 && !site_digests.empty()) {
        const std::uint64_t dep =
            std::min<std::uint64_t>(rejoin_sites[w], site_digests.size() - 1);
        cold_deps[static_cast<std::size_t>(work[w].section)].emplace(
            dep, rejoin_digest(dep));
      }
    }
  }

  for (std::size_t s = 0; s < map.sections.size(); ++s) {
    SectionSummary& summary = report.sections[s];
    if (is_warm[s]) {
      summary.cached = true;
      summary.trials = warm[s].trials;
      summary.detected = warm[s].detected;
      summary.benign = warm[s].benign;
      summary.crashed = warm[s].crashed;
      summary.sdc = warm[s].sdc;
      ++report.warm_sections;
    } else if (plan_trials[s] != 0) {
      summary.trials = cold[s].trials;
      summary.detected = cold[s].detected;
      summary.benign = cold[s].benign;
      summary.crashed = cold[s].crashed;
      summary.sdc = cold[s].sdc;
      summary.trials_executed = cold[s].trials;
      ++report.cold_sections;
      if (caching) {
        StoredSummary& stored = cold[s];
        stored.planned = plan_trials[s];
        const std::uint64_t mask = cold_touched[s];
        stored.touched_all = (mask >> 63) & 1;
        for (std::size_t f = 0; f < program.functions.size(); ++f) {
          const bool hit = stored.touched_all || ((f < 63) && ((mask >> f) & 1));
          if (!hit) continue;
          stored.touched.emplace_back(program.functions[f].name,
                                      fn_sha[program.functions[f].name]);
        }
        std::sort(stored.touched.begin(), stored.touched.end());
        for (const auto& [site, digest] : cold_deps[s]) {
          stored.deps.emplace_back(site, digest);
        }
        options.store(summary.key, serialize_summary(stored));
      }
    }
    summary.stopped_early = summary.trials < summary.planned;
    report.injections += summary.trials;
    report.detected += summary.detected;
    report.benign += summary.benign;
    report.crashed += summary.crashed;
    report.sdc += summary.sdc;
  }

  // Composed adaptive accounting: the fold's sample size is the sum of
  // the (possibly stopped) per-section counts, so the whole-program
  // half-widths are computed at that composed size. Deterministic and
  // cache-state independent — a warm summary stores the same stopped
  // count the cold run computed.
  report.adaptive.enabled = rule.enabled();
  report.adaptive.target_half_width = rule.max_half_width;
  std::uint64_t planned_total = 0;
  for (const SectionSummary& summary : report.sections) {
    planned_total += summary.planned;
  }
  report.adaptive.planned_trials =
      static_cast<int>(std::min(planned_total, kIntMax));
  report.adaptive.executed_trials =
      static_cast<int>(std::min(report.injections, kIntMax));
  report.adaptive.stopped_early = report.injections < planned_total;
  const int composed_n = report.adaptive.executed_trials;
  report.adaptive.half_widths = {
      wilson_half_width(static_cast<int>(std::min(report.benign, kIntMax)),
                        composed_n),
      wilson_half_width(static_cast<int>(std::min(report.sdc, kIntMax)),
                        composed_n),
      wilson_half_width(static_cast<int>(std::min(report.detected, kIntMax)),
                        composed_n),
      wilson_half_width(static_cast<int>(std::min(report.crashed, kIntMax)),
                        composed_n)};
  return report;
}

}  // namespace

ComposeReport compose_audit(const masm::AsmProgram& program,
                            const check::sections::SectionMap& map,
                            const ComposeOptions& options) {
  return compose_impl(program, map, options, /*audit_mode=*/true);
}

ComposeReport compose_campaign(const masm::AsmProgram& program,
                               const check::sections::SectionMap& map,
                               const ComposeOptions& options) {
  return compose_impl(program, map, options, /*audit_mode=*/false);
}

}  // namespace ferrum::fault
