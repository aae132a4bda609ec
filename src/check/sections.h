// Static section decomposition of MiniASM programs (the FastFlip-style
// unit of compositional campaigning). A *section* is a maximal
// straight-line run of instructions inside one block that contains no
// sync point except possibly as its final instruction. Sync points are
// the places where a section's effects become architecturally visible
// to the rest of the program — memory writes (the store choke point),
// control transfers (jcc/jmp/call/ret) and protection traps — so a
// fault injected inside a section can only reach other sections through
// the section's *interface*: its live-out registers/flags and the store
// stream. Sections partition every instruction of the program: each
// instruction belongs to exactly one section, and control enters a
// section only at its first instruction (branch targets are block
// starts, and block starts always start a section).
//
// The interface attached to each section is computed from the same
// analyses the rest of the static stack uses: live-in/live-out from
// masm::Liveness (prune's liveness domain) and the memory footprint from
// masm::effects_of (the store choke point's static mirror), so
// build_sections needs nothing but masm. The master/duplicate pairing
// from ferrum-check's abstract domain (per-section counts of protected /
// benign / unprotected sites) is joined only by to_json, its one reader,
// from a check report its caller hands in.
//
// Layering: this analysis lives in ferrum_check, but SectionMap is plain
// data with inline lookups only, so ferrum_fault's composition layer
// (src/fault/compose) can consume a built map by const reference without
// a link dependency — the same pattern as check::prune::PruneReport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.h"
#include "masm/cfg.h"
#include "masm/masm.h"
#include "telemetry/json.h"

namespace ferrum::check::sections {

/// Why a section ends where it does. Every kind except kBlockEnd names a
/// sync-point instruction that is the section's own last instruction.
enum class Boundary : std::uint8_t {
  kStore,     // memory-writing instruction (store choke point)
  kBranch,    // conditional jump
  kJump,      // unconditional jump
  kCall,      // call (activation frame push + control transfer)
  kRet,       // return
  kDetect,    // protection detector trap
  kBlockEnd,  // plain fall-through into the next block
};

const char* boundary_name(Boundary boundary);

/// The dataflow surface through which a section talks to its neighbours.
struct SectionInterface {
  /// Registers + flags live immediately before the first instruction /
  /// immediately after the last (masm::LiveSet encoding: bits 0-15 GPRs,
  /// 16-31 XMMs, bit 32 FLAGS).
  masm::LiveSet live_in = 0;
  masm::LiveSet live_out = 0;
  /// Memory footprint: instructions that write / read memory.
  int stores = 0;
  int loads = 0;
};

struct Section {
  int id = 0;  // program-order index
  int function = 0;
  int block = 0;
  int first_inst = 0;
  int last_inst = 0;  // inclusive
  Boundary boundary = Boundary::kBlockEnd;
  /// SHA-256 of the printed instructions — the content address used by
  /// the ferrum-section-v1 summary keys and the incremental diff.
  std::string code_sha256;
  /// Fault-injection sites one pass through the section registers
  /// (masm::static_site_of, the engine's static mirror).
  int static_sites = 0;
  SectionInterface interface;
};

struct SectionMap {
  std::vector<Section> sections;  // program order
  /// The options' store-data setting, which static_sites and to_json
  /// enumerate under. Must mirror VmOptions::fault_store_data of any
  /// campaign composed over this map.
  bool store_data_sites = false;
  /// section_at[function][block][inst] -> section id. Inline data so
  /// ferrum_fault can resolve dynamic sites without linking this lib.
  std::vector<std::vector<std::vector<std::int32_t>>> section_at;

  int section_of(int function, int block, int inst) const {
    return section_at[static_cast<std::size_t>(function)]
                     [static_cast<std::size_t>(block)]
                     [static_cast<std::size_t>(inst)];
  }
};

/// Decomposes the program. Deterministic: depends only on the program
/// text and options.
SectionMap build_sections(const masm::AsmProgram& program,
                          const AnalysisOptions& options = {});

/// Deterministic JSON: the section table (with interfaces, each with its
/// sites' ferrum-check classification counts, read from `check`) plus a
/// per-fault-site membership table ("sites": every static fault site with
/// its section id), so section membership is inspectable from `ferrumc
/// sites` / `ferrumc lint=json` without running a campaign. `check` must
/// have been built under the map's store-data setting.
telemetry::Json to_json(const SectionMap& map,
                        const masm::AsmProgram& program,
                        const CheckReport& check);

/// The same JSON, running check_program for `check`.
telemetry::Json to_json(const SectionMap& map,
                        const masm::AsmProgram& program);

}  // namespace ferrum::check::sections
