#include "fault/cell.h"

#include "support/hash.h"
#include "support/str.h"

namespace ferrum::fault {

CampaignOptions to_campaign_options(const CampaignCell& cell) {
  CampaignOptions options;
  options.trials = cell.trials;
  options.seed = cell.seed;
  options.faults_per_run = cell.faults_per_run < 1 ? 1 : cell.faults_per_run;
  options.burst = cell.burst < 1 ? 1 : cell.burst;
  options.vm.fault_store_data = cell.store_data;
  options.max_half_width = cell.max_half_width;
  options.jobs = cell.jobs;
  return options;
}

std::string program_hash(const masm::AsmProgram& program) {
  return sha256_hex(masm::print(program));
}

std::string cell_key_material(const CampaignCell& cell,
                              const std::string& program_sha256) {
  // The technique is implicit in the program hash (the protected assembly
  // differs per technique), but it is kept explicit so two techniques
  // that happened to build identical assembly still read distinctly in
  // `ferrumc submit -v` output; it costs nothing because the mapping
  // technique -> program is a function.
  std::string material;
  material.reserve(256);
  material += "ferrum-cell-v2\n";
  material += "program_sha256=" + program_sha256 + "\n";
  material += "technique=" + cell.technique + "\n";
  material += "trials=" + std::to_string(cell.trials) + "\n";
  material += "seed=" + std::to_string(cell.seed) + "\n";
  material +=
      "faults_per_run=" +
      std::to_string(cell.faults_per_run < 1 ? 1 : cell.faults_per_run) +
      "\n";
  material += "burst=" + std::to_string(cell.burst < 1 ? 1 : cell.burst) +
              "\n";
  material += std::string("store_data=") + (cell.store_data ? "1" : "0") +
              "\n";
  material += std::string("prune=") + (cell.prune ? "1" : "0") + "\n";
  // Rendered via the canonical round-trip formatter so the same double
  // always prints the same line (0 for the disabled default).
  material += "max_half_width=" + format_double(cell.max_half_width) + "\n";
  return material;
}

std::string cell_key(const CampaignCell& cell,
                     const masm::AsmProgram& program) {
  return sha256_hex(cell_key_material(cell, program_hash(program)));
}

bool validate_cell(const CampaignCell& cell, std::string& error) {
  if (cell.program.empty() == cell.workload.empty()) {
    error = "cell needs exactly one of 'program' and 'workload'";
    return false;
  }
  if (cell.technique != "none" && cell.technique != "ir-eddi" &&
      cell.technique != "hybrid" && cell.technique != "ferrum") {
    error = "unknown technique '" + cell.technique + "'";
    return false;
  }
  if (cell.trials < 1) {
    error = "trials must be >= 1";
    return false;
  }
  if (cell.scale < 1) {
    error = "scale must be >= 1";
    return false;
  }
  if (cell.prune && cell.faults_per_run > 1) {
    error = "prune mode requires faults_per_run == 1";
    return false;
  }
  // NaN fails both comparisons below, so it is rejected too.
  if (!(cell.max_half_width >= 0.0) || cell.max_half_width >= 0.5) {
    error = "max_half_width must be in [0, 0.5)";
    return false;
  }
  if (cell.prune && cell.max_half_width > 0.0) {
    error = "max_half_width cannot be combined with prune";
    return false;
  }
  if (cell.jobs < 1 || cell.faults_per_run < 1 || cell.burst < 1) {
    error = "engine knobs out of range";
    return false;
  }
  return true;
}

}  // namespace ferrum::fault
