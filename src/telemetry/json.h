// Dependency-free JSON value tree with a *deterministic* writer: object
// keys are stored sorted (std::map), doubles use the shortest
// round-trippable form (support/str.h format_double), and the layout is
// fixed — so two runs that compute the same values emit byte-identical
// text. Every experiment artifact (BENCH_<name>.json, ferrumc --stats)
// goes through this writer, which is what makes telemetry diffable across
// PRs and byte-comparable across FERRUM_JOBS values.
//
// A minimal strict parser is included so artifacts can be validated
// (bench_smoke) and round-tripped in tests.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ferrum::telemetry {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject,
  };

  Json() = default;  // null
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}
  Json(int value) : kind_(Kind::kInt), int_(value) {}
  Json(long long value) : kind_(Kind::kInt), int_(value) {}
  Json(unsigned long long value) : kind_(Kind::kUint), uint_(value) {}
  Json(std::int64_t value) : kind_(Kind::kInt), int_(value) {}
  Json(std::uint64_t value) : kind_(Kind::kUint), uint_(value) {}
  Json(double value) : kind_(Kind::kDouble), double_(value) {}
  Json(const char* value) : kind_(Kind::kString), str_(value) {}
  Json(std::string value) : kind_(Kind::kString), str_(std::move(value)) {}

  static Json array() { Json v; v.kind_ = Kind::kArray; return v; }
  static Json object() { Json v; v.kind_ = Kind::kObject; return v; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const { return str_; }

  /// Object field access; creates the field (and coerces a null value to
  /// an object) like a std::map. Use find() for non-mutating lookup.
  Json& operator[](const std::string& key);
  const Json* find(const std::string& key) const;

  /// Array append; coerces a null value to an array.
  void push_back(Json value);

  std::size_t size() const;
  const std::vector<Json>& items() const { return items_; }
  const std::map<std::string, Json>& fields() const { return fields_; }

  /// Deterministic serialisation: sorted keys, 2-space indentation,
  /// shortest round-trippable doubles, "\uXXXX" escapes for control
  /// characters. Non-finite doubles (not representable in JSON) render
  /// as null.
  std::string dump() const;

  /// Arrays and objects nested deeper than this do not parse. The limit
  /// bounds the parser's recursion, so untrusted input (a service frame)
  /// cannot exhaust the stack; no document the repo writes comes close.
  static constexpr int kMaxDepth = 256;

  /// Strict parser for the subset dump() emits plus ordinary JSON
  /// (arbitrary whitespace, any key order). Returns nullopt on any
  /// syntax error, trailing garbage or nesting past kMaxDepth. Integers
  /// that fit int64/uint64 parse as kInt/kUint, everything else numeric
  /// as kDouble.
  static std::optional<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::map<std::string, Json> fields_;
};

}  // namespace ferrum::telemetry
