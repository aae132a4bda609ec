#include "service/proto.h"

#include <cstdint>
#include <cstring>
#include <limits>

namespace ferrum::service {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kSubmit: return "submit";
    case MsgType::kStatus: return "status";
    case MsgType::kResults: return "results";
    case MsgType::kStats: return "stats";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kHelloReply: return "hello-reply";
    case MsgType::kJobAccepted: return "job-accepted";
    case MsgType::kStatusReply: return "status-reply";
    case MsgType::kCellResult: return "cell-result";
    case MsgType::kResultsDone: return "results-done";
    case MsgType::kStatsReply: return "stats-reply";
    case MsgType::kShutdownAck: return "shutdown-ack";
    case MsgType::kError: return "error";
  }
  return "?";
}

namespace {

bool known_type(std::uint8_t byte) {
  switch (static_cast<MsgType>(byte)) {
    case MsgType::kHello:
    case MsgType::kSubmit:
    case MsgType::kStatus:
    case MsgType::kResults:
    case MsgType::kStats:
    case MsgType::kShutdown:
    case MsgType::kHelloReply:
    case MsgType::kJobAccepted:
    case MsgType::kStatusReply:
    case MsgType::kCellResult:
    case MsgType::kResultsDone:
    case MsgType::kStatsReply:
    case MsgType::kShutdownAck:
    case MsgType::kError:
      return true;
  }
  return false;
}

}  // namespace

bool write_frame(Conn& conn, MsgType type, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  std::uint8_t header[5];
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<std::uint8_t>(length);
  header[1] = static_cast<std::uint8_t>(length >> 8);
  header[2] = static_cast<std::uint8_t>(length >> 16);
  header[3] = static_cast<std::uint8_t>(length >> 24);
  header[4] = static_cast<std::uint8_t>(type);
  if (!conn.write_all(header, sizeof(header))) return false;
  return payload.empty() || conn.write_all(payload.data(), payload.size());
}

bool write_frame(Conn& conn, MsgType type, const telemetry::Json& json) {
  return write_frame(conn, type, std::string_view(json.dump()));
}

bool read_frame(Conn& conn, Frame& frame) {
  std::uint8_t header[5];
  if (!conn.read_exact(header, sizeof(header))) return false;
  const std::uint32_t length =
      static_cast<std::uint32_t>(header[0]) |
      static_cast<std::uint32_t>(header[1]) << 8 |
      static_cast<std::uint32_t>(header[2]) << 16 |
      static_cast<std::uint32_t>(header[3]) << 24;
  if (length > kMaxFrameBytes || !known_type(header[4])) return false;
  frame.type = static_cast<MsgType>(header[4]);
  frame.payload.resize(length);
  return length == 0 || conn.read_exact(frame.payload.data(), length);
}

telemetry::Json cell_to_json(const fault::CampaignCell& cell) {
  telemetry::Json json = telemetry::Json::object();
  if (!cell.program.empty()) json["program"] = cell.program;
  if (!cell.workload.empty()) json["workload"] = cell.workload;
  if (cell.scale != 1) json["scale"] = cell.scale;
  json["technique"] = cell.technique;
  json["trials"] = cell.trials;
  json["seed"] = cell.seed;
  if (cell.faults_per_run != 1) json["faults_per_run"] = cell.faults_per_run;
  if (cell.burst != 1) json["burst"] = cell.burst;
  if (cell.store_data) json["store_data"] = true;
  if (cell.prune) json["prune"] = true;
  if (cell.max_half_width != 0.0) json["max_half_width"] = cell.max_half_width;
  if (cell.jobs != 1) json["jobs"] = cell.jobs;
  return json;
}

namespace {

bool take_string(const telemetry::Json& json, const char* key,
                 std::string& out, std::string& error) {
  const telemetry::Json* value = json.find(key);
  if (value == nullptr) return true;
  if (!value->is_string()) {
    error = std::string("cell field '") + key + "' must be a string";
    return false;
  }
  out = value->as_string();
  return true;
}

bool take_int(const telemetry::Json& json, const char* key, int& out,
              std::string& error) {
  const telemetry::Json* value = json.find(key);
  if (value == nullptr) return true;
  if (!value->is_number() ||
      value->kind() == telemetry::Json::Kind::kDouble) {
    error = std::string("cell field '") + key + "' must be an integer";
    return false;
  }
  // No silent coercion: a value outside int range would truncate in the
  // cast below, so the cell would execute (and cache) under a different
  // knob than the client wrote.
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  constexpr std::int64_t kMin = std::numeric_limits<int>::min();
  const bool in_range =
      value->kind() == telemetry::Json::Kind::kUint
          ? value->as_uint() <= static_cast<std::uint64_t>(kMax)
          : value->as_int() >= kMin && value->as_int() <= kMax;
  if (!in_range) {
    error = std::string("cell field '") + key + "' is out of int range";
    return false;
  }
  out = static_cast<int>(value->as_int());
  return true;
}

bool take_double(const telemetry::Json& json, const char* key, double& out,
                 std::string& error) {
  const telemetry::Json* value = json.find(key);
  if (value == nullptr) return true;
  if (!value->is_number()) {
    error = std::string("cell field '") + key + "' must be a number";
    return false;
  }
  out = value->as_double();
  return true;
}

bool take_bool(const telemetry::Json& json, const char* key, bool& out,
               std::string& error) {
  const telemetry::Json* value = json.find(key);
  if (value == nullptr) return true;
  if (value->kind() != telemetry::Json::Kind::kBool) {
    error = std::string("cell field '") + key + "' must be a boolean";
    return false;
  }
  out = value->as_bool();
  return true;
}

}  // namespace

bool cell_from_json(const telemetry::Json& json, fault::CampaignCell& cell,
                    std::string& error) {
  if (!json.is_object()) {
    error = "cell must be a JSON object";
    return false;
  }
  cell = fault::CampaignCell{};  // absent keys mean the documented default
  static constexpr const char* kKnown[] = {
      "program", "workload",       "scale", "technique",  "trials",
      "seed",    "faults_per_run", "burst", "store_data", "prune",
      "jobs",    "max_half_width"};
  for (const auto& [key, value] : json.fields()) {
    (void)value;
    bool known = false;
    for (const char* name : kKnown) known |= key == name;
    if (!known) {
      // Unknown knobs are rejected, not ignored: a typo'd field that
      // silently meant "default" would alias distinct cells in the cache.
      error = "unknown cell field '" + key + "'";
      return false;
    }
  }
  if (!take_string(json, "program", cell.program, error)) return false;
  if (!take_string(json, "workload", cell.workload, error)) return false;
  if (!take_int(json, "scale", cell.scale, error)) return false;
  if (!take_string(json, "technique", cell.technique, error)) return false;
  if (!take_int(json, "trials", cell.trials, error)) return false;
  if (const telemetry::Json* seed = json.find("seed"); seed != nullptr) {
    if (!seed->is_number() ||
        seed->kind() == telemetry::Json::Kind::kDouble) {
      error = "cell field 'seed' must be an integer";
      return false;
    }
    // as_uint would wrap a negative seed to a huge value — a silently
    // different cell than the client wrote.
    if (seed->kind() == telemetry::Json::Kind::kInt && seed->as_int() < 0) {
      error = "cell field 'seed' must be non-negative";
      return false;
    }
    cell.seed = seed->as_uint();
  }
  if (!take_int(json, "faults_per_run", cell.faults_per_run, error)) {
    return false;
  }
  if (!take_int(json, "burst", cell.burst, error)) return false;
  if (!take_bool(json, "store_data", cell.store_data, error)) return false;
  if (!take_bool(json, "prune", cell.prune, error)) return false;
  if (!take_double(json, "max_half_width", cell.max_half_width, error)) {
    return false;
  }
  if (!take_int(json, "jobs", cell.jobs, error)) return false;
  return fault::validate_cell(cell, error);
}

}  // namespace ferrum::service
