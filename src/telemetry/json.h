// Dependency-free JSON value tree with a *deterministic* writer: object
// keys are kept sorted, doubles use the shortest round-trippable form
// (support/str.h format_double), and the layout is fixed — so two runs
// that compute the same values emit byte-identical text. Every
// experiment artifact (BENCH_<name>.json, ferrumc --stats and lint=json,
// the daemon's result bytes and frames) goes through this writer, which
// is what makes telemetry diffable across PRs and byte-comparable across
// FERRUM_JOBS values.
//
// A value is one 40-byte std::variant. An array is a std::vector<Json>;
// an object is a std::vector<Member> sorted by key as unsigned bytes, so
// a key greater than the last one is an append and a lookup is a binary
// search.
//
// Reference rule: a reference from operator[], or a pointer from find(),
// into an object stays valid only until a new key is inserted into that
// same object, as with std::vector (the same holds for items() and
// push_back on an array). Inserting into a child never moves its
// parent's members, so `root["a"]["b"] = x` chains are safe; holding
// `Json& a = root["a"]` across `root["z"] = y` is not.
//
// A strict RFC 8259 parser is included so artifacts can be validated
// (bench_smoke), service frames read and values round-tripped in tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ferrum::telemetry {

class Json {
 public:
  /// One object member. fields() holds them in key order.
  using Member = std::pair<std::string, Json>;

  /// The variant's alternatives, in order: kind() is its index.
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject,
  };

  Json() = default;  // null
  Json(bool value) : value_(std::in_place_type<bool>, value) {}
  Json(int value) : value_(std::in_place_type<std::int64_t>, value) {}
  Json(long long value) : value_(std::in_place_type<std::int64_t>, value) {}
  Json(unsigned long long value)
      : value_(std::in_place_type<std::uint64_t>, value) {}
  Json(std::int64_t value) : value_(std::in_place_type<std::int64_t>, value) {}
  Json(std::uint64_t value)
      : value_(std::in_place_type<std::uint64_t>, value) {}
  Json(double value) : value_(std::in_place_type<double>, value) {}
  Json(const char* value) : value_(std::in_place_type<std::string>, value) {}
  Json(std::string value)
      : value_(std::in_place_type<std::string>, std::move(value)) {}

  static Json array() {
    Json v;
    v.value_.emplace<std::vector<Json>>();
    return v;
  }
  static Json object() {
    Json v;
    v.value_.emplace<std::vector<Member>>();
    return v;
  }

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_object() const { return kind() == Kind::kObject; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_number() const {
    return kind() == Kind::kInt || kind() == Kind::kUint ||
           kind() == Kind::kDouble;
  }
  bool is_string() const { return kind() == Kind::kString; }

  /// Scalar readers. as_bool is false for any non-bool and as_string
  /// empty for any non-string; the numeric readers convert between the
  /// three number kinds and read 0 for anything else.
  bool as_bool() const {
    const bool* value = std::get_if<bool>(&value_);
    return value != nullptr && *value;
  }
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Object member access: inserts a null member, in key order, when the
  /// key is absent, and makes a null value an empty object first. Any
  /// other kind throws std::logic_error (there is no member to return,
  /// and dump() could never print one). See the reference rule above.
  /// Use find() for non-mutating lookup.
  Json& operator[](std::string_view key);
  /// The member named `key`, or nullptr if there is none or this is not
  /// an object.
  const Json* find(std::string_view key) const;

  /// Array append; makes a null value an empty array first. Any other
  /// kind but an array throws std::logic_error.
  void push_back(Json value);

  /// Room for `count` items of an array or members of an object, so a
  /// converter that knows its row count allocates once. Any other kind
  /// throws std::logic_error.
  void reserve(std::size_t count);

  /// Items of an array, members of an object; 0 for any other kind.
  std::size_t size() const;
  /// An array's items; empty for any other kind.
  const std::vector<Json>& items() const;
  /// An object's members in key order; empty for any other kind.
  const std::vector<Member>& fields() const;

  /// Deterministic serialisation: sorted keys, 2-space indentation,
  /// shortest round-trippable doubles, "\uXXXX" escapes for control
  /// characters. Non-finite doubles (not representable in JSON) render
  /// as null.
  std::string dump() const;

  /// Arrays and objects nested deeper than this do not parse. The limit
  /// bounds the parser's recursion, so untrusted input (a service frame)
  /// cannot exhaust the stack; no document the repo writes comes close.
  static constexpr int kMaxDepth = 256;

  /// Strict RFC 8259 parser: what dump() emits plus ordinary JSON
  /// (arbitrary whitespace, any key order; of equal keys the last one
  /// wins). Returns nullopt on any syntax error (a number outside
  /// RFC 8259's grammar, such as "+1", ".5", "1." or "01"; a raw byte
  /// below 0x20 inside a string), trailing garbage or nesting past
  /// kMaxDepth. Integers that fit int64/uint64 parse as kInt/kUint,
  /// everything else numeric as kDouble; a number past double's range,
  /// or one that underflows to zero, does not parse. An object's members
  /// are sorted once, not inserted one at a time, so keys out of order
  /// cost one sort.
  static std::optional<Json> parse(std::string_view text);

 private:
  friend class JsonParser;
  friend class JsonWriter;

  std::variant<std::monostate, bool, std::int64_t, std::uint64_t, double,
               std::string, std::vector<Json>, std::vector<Member>>
      value_;
};

static_assert(sizeof(Json) <= 40, "a Json value is one 40-byte variant");

}  // namespace ferrum::telemetry
