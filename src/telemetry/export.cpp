#include "telemetry/export.h"

#include <cstdint>
#include <limits>

namespace ferrum::telemetry {

namespace {

// Upper bound of log2 bucket `i` (the convention of metrics.h Histogram
// and fault::CampaignResult::latency_histogram): bucket 0 holds value 0,
// bucket i holds [2^(i-1), 2^i).
std::uint64_t log2_bucket_upper(int i) {
  if (i == 0) return 0;
  if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << i) - 1;
}

// Checkpoint/fast-forward accounting shared by the campaign and audit
// wallclock views. Deterministic for a fixed checkpoint stride
// (fault::Golden's argument) but not across strides, so it lives with the
// observability data to keep the metrics sections byte-identical for
// every stride.
Json ckpt_json(const vm::CheckpointTelemetry& ckpt) {
  Json json = Json::object();
  json["stride"] = ckpt.stride;
  json["checkpoints"] = ckpt.checkpoints;
  json["snapshot_bytes"] = ckpt.snapshot_bytes;
  json["page_bytes"] = ckpt.page_bytes;
  json["table_bytes"] = ckpt.table_bytes;
  json["trials"] = ckpt.ff.trials;
  json["restores"] = ckpt.ff.restores;
  json["steps_skipped"] = ckpt.ff.steps_skipped;
  json["steps_executed"] = ckpt.ff.steps_executed;
  json["fast_forward_ratio"] = ckpt.ff.ratio();
  // The golden walk: runs forked off it, and the fault-free steps it
  // interpreted to reach the runs' fork points.
  json["forks"] = ckpt.ff.forks;
  json["walk_steps"] = ckpt.ff.walk_steps;
  // Trials whose golden-identical tail was elided by the rejoin
  // comparison (the elided steps count under steps_skipped).
  json["rejoins"] = ckpt.ff.rejoins;
  // Trial-cost ledger: steps_executed split at each trial's first fault,
  // and the faulted trials that ran to halt without rejoining.
  json["prefix_steps"] = ckpt.ff.prefix_steps;
  json["post_fault_steps"] = ckpt.ff.post_fault_steps;
  json["unrejoined_halts"] = ckpt.ff.unrejoined_halts;
  json["unrejoined_halt_steps"] = ckpt.ff.unrejoined_halt_steps;
  // Checkpoint traffic: bytes restores copied or zeroed, and the rejoin
  // comparisons with the page bytes they checked.
  json["restore_bytes"] = ckpt.ff.restore_bytes;
  json["compares"] = ckpt.ff.compares;
  json["compare_bytes"] = ckpt.ff.compare_bytes;
  // Exit-kind ledger: finished runs by how they ended (sums to trials).
  Json exits = Json::object();
  for (int s = 0; s < vm::kExitStatusCount; ++s) {
    exits[vm::exit_status_name(static_cast<vm::ExitStatus>(s))] =
        ckpt.ff.exits[static_cast<std::size_t>(s)];
  }
  json["exits"] = exits;
  return json;
}

}  // namespace

Json to_json(const vm::VmProfile& profile) {
  Json json = Json::object();
  json["total"] = profile.total();

  Json by_op = Json::object();
  for (int i = 0; i < masm::kOpCount; ++i) {
    if (profile.op_counts[static_cast<std::size_t>(i)] == 0) continue;
    by_op[masm::op_mnemonic(static_cast<masm::Op>(i))] =
        profile.op_counts[static_cast<std::size_t>(i)];
  }
  json["by_op"] = by_op;

  Json by_origin = Json::object();
  for (int i = 0; i < masm::kInstOriginCount; ++i) {
    by_origin[masm::origin_name(static_cast<masm::InstOrigin>(i))] =
        profile.origin_counts[static_cast<std::size_t>(i)];
  }
  json["by_origin"] = by_origin;

  Json sites = Json::object();
  for (std::size_t i = 0; i < profile.site_counts.size(); ++i) {
    sites[vm::fault_kind_name(static_cast<vm::FaultKind>(i))] =
        profile.site_counts[i];
  }
  json["fi_sites_by_kind"] = sites;

  Json hot = Json::array();
  for (const vm::VmProfile::BlockCount& block : profile.hot_blocks) {
    Json entry = Json::object();
    entry["function"] = block.function;
    entry["label"] = block.label;
    entry["instructions"] = block.instructions;
    hot.push_back(entry);
  }
  json["hot_blocks"] = hot;
  return json;
}

Json to_json(const vm::TimingStats& stats) {
  Json json = Json::object();
  json["instructions"] = stats.instructions;

  Json ports = Json::object();
  for (int p = 0; p < vm::kPortClassCount; ++p) {
    Json port = Json::object();
    Json issues = Json::object();
    Json latency = Json::object();
    std::uint64_t port_issues = 0;
    for (int o = 0; o < masm::kInstOriginCount; ++o) {
      const char* origin = masm::origin_name(static_cast<masm::InstOrigin>(o));
      issues[origin] = stats.issues[p][o];
      latency[origin] = stats.latency_cycles[p][o];
      port_issues += stats.issues[p][o];
    }
    port["issues"] = issues;
    port["latency_cycles"] = latency;
    port["total_issues"] = port_issues;
    port["busy_cycles"] = stats.busy_cycles[p];
    ports[vm::port_class_name(static_cast<vm::PortClass>(p))] = port;
  }
  json["ports"] = ports;

  Json stalls = Json::object();
  stalls["dependence"] = stats.stall_dependence;
  stalls["port"] = stats.stall_port;
  stalls["issue_width"] = stats.stall_issue_width;
  json["stalls"] = stalls;
  return json;
}

Json to_json(const fault::CampaignResult& result) {
  Json json = Json::object();
  json["trials"] = result.trials();
  json["total_sites"] = result.total_sites;
  json["golden_steps"] = result.golden_steps;

  Json outcomes = Json::object();
  outcomes["benign"] = result.count(fault::Outcome::kBenign);
  outcomes["sdc"] = result.count(fault::Outcome::kSdc);
  outcomes["detected"] = result.count(fault::Outcome::kDetected);
  outcomes["crash"] = result.count(fault::Outcome::kCrash);
  json["outcomes"] = outcomes;
  json["sdc_rate"] = result.sdc_rate();

  Json latency = Json::object();
  latency["samples"] = result.latency_samples;
  latency["sum"] = result.latency_sum;
  latency["max"] = result.latency_max;
  latency["mean"] = result.mean_detection_latency();
  Json histogram = Json::array();
  for (int i = 0; i < fault::CampaignResult::kLatencyBuckets; ++i) {
    const std::uint64_t count =
        result.latency_histogram[static_cast<std::size_t>(i)];
    if (count == 0) continue;
    Json bucket = Json::array();
    bucket.push_back(log2_bucket_upper(i));
    bucket.push_back(count);
    histogram.push_back(bucket);
  }
  latency["histogram"] = histogram;
  json["latency"] = latency;

  Json breakdown = Json::object();
  for (const auto& [key, count] : result.sdc_breakdown) breakdown[key] = count;
  json["sdc_breakdown"] = breakdown;

  if (result.prune.enabled) {
    Json prune = Json::object();
    prune["pilot_runs"] = result.prune.pilot_runs;
    prune["replayed_trials"] = result.prune.replayed_trials;
    prune["dead_trials"] = result.prune.dead_trials;
    prune["unmatched_trials"] = result.prune.unmatched_trials;
    prune["dead_fraction_static"] = result.prune.dead_fraction_static;
    prune["reduction"] = result.prune.reduction;
    json["prune"] = prune;
  }

  if (result.adaptive.enabled) {
    // Deterministic like the rest of the metrics section: the stop
    // boundary and the half-widths at it are functions of the canonical
    // trial prefix, never of scheduling.
    Json adaptive = Json::object();
    adaptive["target_half_width"] = result.adaptive.target_half_width;
    adaptive["planned_trials"] = result.adaptive.planned_trials;
    adaptive["executed_trials"] = result.adaptive.executed_trials;
    adaptive["stopped_early"] = result.adaptive.stopped_early;
    Json half_widths = Json::object();
    half_widths["benign"] = result.adaptive.half_widths[0];
    half_widths["sdc"] = result.adaptive.half_widths[1];
    half_widths["detected"] = result.adaptive.half_widths[2];
    half_widths["crash"] = result.adaptive.half_widths[3];
    adaptive["half_widths"] = half_widths;
    adaptive["reduction"] = result.adaptive.reduction();
    json["adaptive"] = adaptive;
  }
  return json;
}

Json wallclock_json(const fault::CampaignResult& result) {
  Json json = Json::object();
  Json per_worker = Json::array();
  for (std::uint64_t count : result.trials_per_worker)
    per_worker.push_back(count);
  json["trials_per_worker"] = per_worker;
  json["wall_seconds"] = result.wall_seconds;
  const int trials = result.trials();
  json["trials_per_second"] =
      result.wall_seconds > 0.0 ? trials / result.wall_seconds : 0.0;
  json["ckpt"] = ckpt_json(result.ckpt);
  return json;
}

Json progress_json(const fault::CampaignProgress& progress) {
  Json json = Json::object();
  Json outcomes = Json::object();
  std::array<std::uint64_t, 4> counts{};
  counts[0] = progress.count(fault::Outcome::kBenign);
  counts[1] = progress.count(fault::Outcome::kSdc);
  counts[2] = progress.count(fault::Outcome::kDetected);
  counts[3] = progress.count(fault::Outcome::kCrash);
  outcomes["benign"] = counts[0];
  outcomes["sdc"] = counts[1];
  outcomes["detected"] = counts[2];
  outcomes["crash"] = counts[3];
  json["outcomes_so_far"] = outcomes;
  json["runs_executed"] = progress.executed();
  json["half_widths"] = outcome_half_widths_json(counts);
  return json;
}

Json outcome_half_widths_json(const std::array<std::uint64_t, 4>& counts) {
  // Live Wilson half-widths over a mid-flight outcome snapshot. The
  // snapshot itself is scheduling-dependent (wall-clock-quarantined,
  // like every "so far" field), so these are for progress displays only
  // — the deterministic intervals live in the result's adaptive section.
  const std::uint64_t total = counts[0] + counts[1] + counts[2] + counts[3];
  const int trials = static_cast<int>(total);
  Json json = Json::object();
  static constexpr const char* kNames[] = {"benign", "sdc", "detected",
                                           "crash"};
  for (int i = 0; i < 4; ++i) {
    json[kNames[i]] = fault::wilson_half_width(
        static_cast<int>(counts[static_cast<std::size_t>(i)]), trials);
  }
  return json;
}

Json to_json(const fault::AuditReport& report) {
  Json json = Json::object();
  json["sites"] = report.sites;
  json["injections"] = report.injections;
  json["detected"] = report.detected;
  json["benign"] = report.benign;
  json["crashed"] = report.crashed;
  json["fully_covered"] = report.fully_covered();
  Json escapes = Json::array();
  for (const fault::AuditEscape& escape : report.escapes) {
    Json entry = Json::object();
    entry["site"] = escape.site;
    entry["bit"] = escape.bit;
    entry["kind"] = vm::fault_kind_name(escape.kind);
    entry["origin"] = masm::origin_name(escape.origin);
    entry["op"] = masm::op_mnemonic(escape.op);
    entry["function"] = escape.function;
    entry["block"] = escape.block;
    entry["inst"] = escape.inst;
    escapes.push_back(entry);
  }
  json["escapes"] = escapes;

  if (report.prune.enabled) {
    Json prune = Json::object();
    prune["static_sites"] = report.prune.static_sites;
    prune["classes"] = report.prune.classes;
    prune["pilot_keys"] = report.prune.pilot_keys;
    prune["pilot_injections"] = report.prune.pilot_injections;
    prune["dead_probes"] = report.prune.dead_probes;
    prune["extrapolated_probes"] = report.prune.extrapolated_probes;
    prune["unmatched_probes"] = report.prune.unmatched_probes;
    prune["dead_fraction_static"] = report.prune.dead_fraction_static;
    prune["reduction"] = report.prune.reduction;
    json["prune"] = prune;
  }
  return json;
}

Json to_json(const fault::ComposeReport& report) {
  Json json = Json::object();
  json["sites"] = report.sites;
  json["golden_steps"] = report.golden_steps;
  json["injections"] = report.injections;
  json["detected"] = report.detected;
  json["benign"] = report.benign;
  json["crashed"] = report.crashed;
  json["sdc"] = report.sdc;
  Json sections = Json::array();
  for (const fault::SectionSummary& summary : report.sections) {
    Json entry = Json::object();
    entry["section"] = summary.section;
    entry["sha256"] = summary.code_sha256;
    if (!summary.key.empty()) entry["key"] = summary.key;
    entry["dynamic_sites"] = summary.dynamic_sites;
    entry["occurrences"] = summary.occurrences;
    entry["trials"] = summary.trials;
    // Gated on the stop rule so the (pinned) non-adaptive compose JSON
    // stays byte-identical to what it was before adaptive stopping.
    if (report.adaptive.enabled) {
      entry["planned"] = summary.planned;
      entry["stopped_early"] = summary.stopped_early;
    }
    Json outcomes = Json::object();
    outcomes["detected"] = summary.detected;
    outcomes["benign"] = summary.benign;
    outcomes["crashed"] = summary.crashed;
    outcomes["sdc"] = summary.sdc;
    entry["outcomes"] = outcomes;
    sections.push_back(entry);
  }
  json["sections"] = sections;
  if (report.adaptive.enabled) {
    Json adaptive = Json::object();
    adaptive["target_half_width"] = report.adaptive.target_half_width;
    adaptive["planned_trials"] = report.adaptive.planned_trials;
    adaptive["executed_trials"] = report.adaptive.executed_trials;
    adaptive["stopped_early"] = report.adaptive.stopped_early;
    Json half_widths = Json::object();
    half_widths["benign"] = report.adaptive.half_widths[0];
    half_widths["sdc"] = report.adaptive.half_widths[1];
    half_widths["detected"] = report.adaptive.half_widths[2];
    half_widths["crash"] = report.adaptive.half_widths[3];
    adaptive["half_widths"] = half_widths;
    adaptive["reduction"] = report.adaptive.reduction();
    json["adaptive"] = adaptive;
  }
  return json;
}

Json wallclock_json(const fault::ComposeReport& report) {
  Json json = Json::object();
  json["trials_executed"] = report.trials_executed;
  json["warm_sections"] = report.warm_sections;
  json["cold_sections"] = report.cold_sections;
  json["wall_seconds"] = report.wall_seconds;
  json["ckpt"] = ckpt_json(report.ckpt);
  return json;
}

Json wallclock_json(const fault::AuditReport& report) {
  Json json = Json::object();
  Json per_worker = Json::array();
  for (std::uint64_t count : report.sites_per_worker)
    per_worker.push_back(count);
  json["sites_per_worker"] = per_worker;
  json["wall_seconds"] = report.wall_seconds;
  json["ckpt"] = ckpt_json(report.ckpt);
  return json;
}

}  // namespace ferrum::telemetry
