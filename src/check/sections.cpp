#include "check/sections.h"

#include <array>
#include <unordered_map>

#include "masm/fault_site.h"
#include "support/hash.h"

namespace ferrum::check::sections {

namespace {

using masm::AsmInst;
using masm::Op;

/// Sync-point classification of one instruction, kBlockEnd meaning "not
/// a sync point". Control-flow kinds win over the store check so a call
/// (which also pushes its return address) reads as kCall.
Boundary sync_kind(const AsmInst& inst) {
  switch (inst.op) {
    case Op::kJcc: return Boundary::kBranch;
    case Op::kJmp: return Boundary::kJump;
    case Op::kCall: return Boundary::kCall;
    case Op::kRet: return Boundary::kRet;
    case Op::kDetectTrap: return Boundary::kDetect;
    default: break;
  }
  return masm::effects_of(inst).writes_mem ? Boundary::kStore
                                           : Boundary::kBlockEnd;
}

std::string live_name(int bit) {
  if (bit < 16) return masm::gpr_name(static_cast<masm::Gpr>(bit), 8);
  if (bit < 32) return "xmm" + std::to_string(bit - 16);
  return "flags";
}

telemetry::Json live_set_json(masm::LiveSet set) {
  telemetry::Json list = telemetry::Json::array();
  for (int bit = 0; bit <= 32; ++bit) {
    if ((set >> bit) & 1) list.push_back(telemetry::Json(live_name(bit)));
  }
  return list;
}

}  // namespace

const char* boundary_name(Boundary boundary) {
  switch (boundary) {
    case Boundary::kStore: return "store";
    case Boundary::kBranch: return "branch";
    case Boundary::kJump: return "jump";
    case Boundary::kCall: return "call";
    case Boundary::kRet: return "ret";
    case Boundary::kDetect: return "detect";
    case Boundary::kBlockEnd: return "block-end";
  }
  return "?";
}

SectionMap build_sections(const masm::AsmProgram& program,
                          const AnalysisOptions& options) {
  SectionMap map;
  map.store_data_sites = options.store_data_sites;
  map.section_at.resize(program.functions.size());
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    const masm::AsmFunction& fn = program.functions[f];
    const masm::Liveness liveness(fn);
    map.section_at[f].resize(fn.blocks.size());
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const auto& insts = fn.blocks[b].insts;
      map.section_at[f][b].assign(insts.size(), -1);
      std::size_t start = 0;
      while (start < insts.size()) {
        // Extend to the first sync point at-or-after `start` (inclusive),
        // or to the end of the block.
        std::size_t end = start;
        Boundary boundary = Boundary::kBlockEnd;
        for (; end < insts.size(); ++end) {
          boundary = sync_kind(insts[end]);
          if (boundary != Boundary::kBlockEnd) break;
        }
        if (end == insts.size()) --end;  // fell off the block

        Section section;
        section.id = static_cast<int>(map.sections.size());
        section.function = static_cast<int>(f);
        section.block = static_cast<int>(b);
        section.first_inst = static_cast<int>(start);
        section.last_inst = static_cast<int>(end);
        section.boundary = boundary;
        Sha256 sha;
        for (std::size_t i = start; i <= end; ++i) {
          const std::string text = insts[i].to_string() + "\n";
          sha.update(text.data(), text.size());
          map.section_at[f][b][i] = section.id;
          const masm::StaticSiteInfo site = masm::static_site_of(
              insts[i], options.store_data_sites,
              masm::call_pushes_ret(program, insts[i]));
          if (site.has_site) ++section.static_sites;
        }
        section.code_sha256 = sha.hex_digest();
        section.interface.live_in =
            liveness.live_after(static_cast<int>(b),
                                static_cast<int>(start) - 1);
        section.interface.live_out =
            liveness.live_after(static_cast<int>(b), static_cast<int>(end));
        for (std::size_t i = start; i <= end; ++i) {
          const masm::RegEffects effects = masm::effects_of(insts[i]);
          if (effects.writes_mem) ++section.interface.stores;
          if (effects.reads_mem) ++section.interface.loads;
        }
        map.sections.push_back(std::move(section));
        start = end + 1;
      }
    }
  }
  return map;
}

telemetry::Json to_json(const SectionMap& map,
                        const masm::AsmProgram& program,
                        const CheckReport& check) {
  // Fold the checker's master/duplicate classification onto the owning
  // sections: per section, its protected, benign and unprotected sites.
  // SiteRecords carry function names; resolve them once.
  std::unordered_map<std::string, int> fn_index;
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    fn_index.emplace(program.functions[f].name, static_cast<int>(f));
  }
  std::vector<std::array<std::int64_t, 3>> status_count(map.sections.size());
  for (const SiteRecord& site : check.sites) {
    const auto it = fn_index.find(site.function);
    if (it == fn_index.end()) continue;
    const int id = map.section_of(it->second, site.block, site.inst);
    if (id < 0) continue;
    ++status_count[static_cast<std::size_t>(id)]
                  [static_cast<std::size_t>(site.status)];
  }

  telemetry::Json out = telemetry::Json::object();
  telemetry::Json list = telemetry::Json::array();
  list.reserve(map.sections.size());
  std::size_t site_count = 0;  // sections cover every instruction
  for (const Section& section : map.sections) {
    site_count += static_cast<std::size_t>(section.static_sites);
    const masm::AsmFunction& fn =
        program.functions[static_cast<std::size_t>(section.function)];
    // Rows insert their keys in sorted order, so each insert appends.
    telemetry::Json entry = telemetry::Json::object();
    entry.reserve(10);
    entry["block"] = static_cast<std::int64_t>(section.block);
    entry["boundary"] = boundary_name(section.boundary);
    entry["first_inst"] = static_cast<std::int64_t>(section.first_inst);
    entry["function"] = fn.name;
    entry["id"] = static_cast<std::int64_t>(section.id);
    telemetry::Json interface = telemetry::Json::object();
    interface.reserve(5);
    interface["live_in"] = live_set_json(section.interface.live_in);
    interface["live_out"] = live_set_json(section.interface.live_out);
    interface["loads"] = static_cast<std::int64_t>(section.interface.loads);
    const auto& counts = status_count[static_cast<std::size_t>(section.id)];
    telemetry::Json sites = telemetry::Json::object();
    sites.reserve(3);
    sites["benign"] = counts[static_cast<int>(SiteStatus::kBenign)];
    sites["protected"] = counts[static_cast<int>(SiteStatus::kProtected)];
    sites["unprotected"] = counts[static_cast<int>(SiteStatus::kUnprotected)];
    interface["sites"] = std::move(sites);
    interface["stores"] =
        static_cast<std::int64_t>(section.interface.stores);
    entry["interface"] = std::move(interface);
    entry["label"] = fn.blocks[static_cast<std::size_t>(section.block)].label;
    entry["last_inst"] = static_cast<std::int64_t>(section.last_inst);
    entry["sha256"] = section.code_sha256;
    entry["static_sites"] = static_cast<std::int64_t>(section.static_sites);
    list.push_back(std::move(entry));
  }
  out["sections"] = std::move(list);

  // One row per static fault site, in program order, naming its section
  // — the per-site membership `ferrumc sites` / lint=json expose.
  telemetry::Json site_rows = telemetry::Json::array();
  site_rows.reserve(site_count);
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    const masm::AsmFunction& fn = program.functions[f];
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
        const AsmInst& inst = fn.blocks[b].insts[i];
        const masm::StaticSiteInfo site = masm::static_site_of(
            inst, map.store_data_sites, masm::call_pushes_ret(program, inst));
        if (!site.has_site) continue;
        telemetry::Json row = telemetry::Json::object();
        row.reserve(5);
        row["block"] = static_cast<std::int64_t>(b);
        row["function"] = fn.name;
        row["inst"] = static_cast<std::int64_t>(i);
        row["kind"] = masm::fault_site_kind_name(site.kind);
        row["section"] = static_cast<std::int64_t>(
            map.section_of(static_cast<int>(f), static_cast<int>(b),
                           static_cast<int>(i)));
        site_rows.push_back(std::move(row));
      }
    }
  }
  out["sites"] = std::move(site_rows);
  return out;
}

telemetry::Json to_json(const SectionMap& map,
                        const masm::AsmProgram& program) {
  return to_json(map, program,
                 check_program(program, {map.store_data_sites}));
}

}  // namespace ferrum::check::sections
