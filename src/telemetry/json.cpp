#include "telemetry/json.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "support/str.h"

namespace ferrum::telemetry {

namespace {

using Items = std::vector<Json>;
using Members = std::vector<Json::Member>;

const char* kind_name(Json::Kind kind) {
  static constexpr const char* kNames[] = {
      "null", "bool", "int", "uint", "double", "string", "array", "object",
  };
  return kNames[static_cast<std::size_t>(kind)];
}

[[noreturn]] void wrong_kind(const char* operation, Json::Kind kind) {
  throw std::logic_error(std::string("Json::") + operation + " on " +
                         kind_name(kind) + " value");
}

/// The first member whose key is not less than `key`.
template <typename It>
It key_lower_bound(It first, It last, std::string_view key) {
  return std::lower_bound(first, last, key,
                          [](const Json::Member& member, std::string_view k) {
                            return std::string_view(member.first) < k;
                          });
}

}  // namespace

std::int64_t Json::as_int() const {
  switch (kind()) {
    case Kind::kInt: return std::get<std::int64_t>(value_);
    case Kind::kUint:
      return static_cast<std::int64_t>(std::get<std::uint64_t>(value_));
    case Kind::kDouble:
      return static_cast<std::int64_t>(std::get<double>(value_));
    default: return 0;
  }
}

std::uint64_t Json::as_uint() const {
  switch (kind()) {
    case Kind::kInt:
      return static_cast<std::uint64_t>(std::get<std::int64_t>(value_));
    case Kind::kUint: return std::get<std::uint64_t>(value_);
    case Kind::kDouble:
      return static_cast<std::uint64_t>(std::get<double>(value_));
    default: return 0;
  }
}

double Json::as_double() const {
  switch (kind()) {
    case Kind::kInt:
      return static_cast<double>(std::get<std::int64_t>(value_));
    case Kind::kUint:
      return static_cast<double>(std::get<std::uint64_t>(value_));
    case Kind::kDouble: return std::get<double>(value_);
    default: return 0.0;
  }
}

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  const std::string* value = std::get_if<std::string>(&value_);
  return value != nullptr ? *value : kEmpty;
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) value_.emplace<Members>();
  Members* members = std::get_if<Members>(&value_);
  if (members == nullptr) wrong_kind("operator[]", kind());
  // Writers mostly insert keys in ascending order: append.
  if (members->empty() || std::string_view(members->back().first) < key) {
    return members->emplace_back(std::string(key), Json()).second;
  }
  const auto it = key_lower_bound(members->begin(), members->end(), key);
  if (it != members->end() && it->first == key) return it->second;
  return members->emplace(it, std::string(key), Json())->second;
}

const Json* Json::find(std::string_view key) const {
  const Members* members = std::get_if<Members>(&value_);
  if (members == nullptr) return nullptr;
  const auto it = key_lower_bound(members->begin(), members->end(), key);
  return it != members->end() && it->first == key ? &it->second : nullptr;
}

void Json::push_back(Json value) {
  if (is_null()) value_.emplace<Items>();
  Items* items = std::get_if<Items>(&value_);
  if (items == nullptr) wrong_kind("push_back", kind());
  items->push_back(std::move(value));
}

void Json::reserve(std::size_t count) {
  if (Items* items = std::get_if<Items>(&value_)) {
    items->reserve(count);
  } else if (Members* members = std::get_if<Members>(&value_)) {
    members->reserve(count);
  } else {
    wrong_kind("reserve", kind());
  }
}

std::size_t Json::size() const {
  switch (kind()) {
    case Kind::kArray: return std::get<Items>(value_).size();
    case Kind::kObject: return std::get<Members>(value_).size();
    default: return 0;
  }
}

const std::vector<Json>& Json::items() const {
  static const Items kEmpty;
  const Items* items = std::get_if<Items>(&value_);
  return items != nullptr ? *items : kEmpty;
}

const std::vector<Json::Member>& Json::fields() const {
  static const Members kEmpty;
  const Members* members = std::get_if<Members>(&value_);
  return members != nullptr ? *members : kEmpty;
}

// ------------------------------------------------------------- writer --

/// Writes one value tree into a single buffer. Each piece reserves its
/// worst-case size once (`room`), then writes through a raw pointer; the
/// buffer doubles ahead of need, so a dump reallocates O(log size) times.
class JsonWriter {
 public:
  std::string finish() {
    out_.resize(size_);
    return std::move(out_);
  }

  void value(const Json& json, int depth) {
    switch (json.kind()) {
      case Json::Kind::kNull:
        literal("null");
        return;
      case Json::Kind::kBool:
        literal(std::get<bool>(json.value_) ? "true" : "false");
        return;
      case Json::Kind::kInt:
        integer(std::get<std::int64_t>(json.value_));
        return;
      case Json::Kind::kUint:
        integer(std::get<std::uint64_t>(json.value_));
        return;
      case Json::Kind::kDouble:
        number(std::get<double>(json.value_));
        return;
      case Json::Kind::kString:
        string(std::get<std::string>(json.value_));
        return;
      case Json::Kind::kArray: {
        const Items& items = std::get<Items>(json.value_);
        if (items.empty()) {
          literal("[]");
          return;
        }
        literal("[");
        for (std::size_t i = 0; i < items.size(); ++i) {
          separator(i != 0, depth + 1);
          value(items[i], depth + 1);
        }
        close(']', depth);
        return;
      }
      case Json::Kind::kObject: {
        const Members& members = std::get<Members>(json.value_);
        if (members.empty()) {
          literal("{}");
          return;
        }
        literal("{");
        for (std::size_t i = 0; i < members.size(); ++i) {
          separator(i != 0, depth + 1);
          string(members[i].first);
          literal(": ");
          value(members[i].second, depth + 1);
        }
        close('}', depth);
        return;
      }
    }
  }

  void literal(std::string_view text) {
    char* out = room(text.size());
    std::memcpy(out, text.data(), text.size());
    commit(out + text.size());
  }

 private:
  /// A write position with at least `bytes` free behind it.
  char* room(std::size_t bytes) {
    if (out_.size() - size_ < bytes) {
      out_.resize(std::max({out_.size() * 2, size_ + bytes,
                            std::size_t{4096}}));
    }
    return out_.data() + size_;
  }

  void commit(const char* end) {
    size_ = static_cast<std::size_t>(end - out_.data());
  }

  static char* indent(char* out, int depth) {
    const std::size_t spaces = static_cast<std::size_t>(depth) * 2;
    std::memset(out, ' ', spaces);
    return out + spaces;
  }

  /// ",\n" (or "\n" before the first element) and the element's indent.
  void separator(bool comma, int depth) {
    char* out = room(2 + static_cast<std::size_t>(depth) * 2);
    if (comma) *out++ = ',';
    *out++ = '\n';
    commit(indent(out, depth));
  }

  /// "\n", the container's indent and its closing bracket.
  void close(char bracket, int depth) {
    char* out = room(2 + static_cast<std::size_t>(depth) * 2);
    *out++ = '\n';
    out = indent(out, depth);
    *out++ = bracket;
    commit(out);
  }

  template <typename Int>
  void integer(Int value) {
    constexpr std::size_t kDigits = 20;  // "-9223372036854775808"
    char* out = room(kDigits);
    commit(std::to_chars(out, out + kDigits, value).ptr);
  }

  /// format_double, made JSON-safe: a rendering with no '.', 'e' gets a
  /// trailing ".0" so the value reads back as a double, not an integer.
  /// JSON has no inf/nan, so non-finite values render as null.
  void number(double value) {
    if (!std::isfinite(value)) {
      literal("null");
      return;
    }
    char* out = room(kMaxDoubleChars + 2);
    char* end = format_double(out, value);
    if (std::find_if(out, end, [](char c) {
          return c == '.' || c == 'e' || c == 'E';
        }) == end) {
      *end++ = '.';
      *end++ = '0';
    }
    commit(end);
  }

  /// The second byte of a byte's escape ('u' for "\u00XX"), or 0 for a
  /// byte copied as is.
  static constexpr std::array<char, 256> kEscape = [] {
    std::array<char, 256> table{};
    for (int c = 0; c < 0x20; ++c) table[static_cast<std::size_t>(c)] = 'u';
    table['"'] = '"';
    table['\\'] = '\\';
    table['\n'] = 'n';
    table['\t'] = 't';
    table['\r'] = 'r';
    return table;
  }();

  /// A quoted string, copied in runs between the bytes that need escaping.
  void string(std::string_view text) {
    char* out = room(text.size() + 2);
    *out++ = '"';
    std::size_t run = 0;  // first byte not yet copied
    for (std::size_t i = 0; i < text.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(text[i]);
      const char escape = kEscape[c];
      if (escape == 0) continue;
      std::memcpy(out, text.data() + run, i - run);
      out += i - run;
      run = i + 1;
      // The reservation counted this byte once; its escape takes up to 6.
      commit(out);
      out = room(text.size() - i + 6);
      *out++ = '\\';
      *out++ = escape;
      if (escape == 'u') {
        static constexpr char kHex[] = "0123456789abcdef";
        *out++ = '0';
        *out++ = '0';
        *out++ = kHex[c >> 4];
        *out++ = kHex[c & 0xf];
      }
    }
    std::memcpy(out, text.data() + run, text.size() - run);
    out += text.size() - run;
    *out++ = '"';
    commit(out);
  }

  std::string out_;
  std::size_t size_ = 0;  // bytes written; out_ beyond them is spare room
};

std::string Json::dump() const {
  JsonWriter writer;
  writer.value(*this, 0);
  writer.literal("\n");
  return writer.finish();
}

// ------------------------------------------------------------- parser --

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    std::optional<Json> value = parse_value(0);
    if (!value.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// `depth` counts the arrays and objects enclosing the value.
  std::optional<Json> parse_value(int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n': return consume_word("null") ? std::optional<Json>(Json())
                                            : std::nullopt;
      case 't': return consume_word("true") ? std::optional<Json>(Json(true))
                                            : std::nullopt;
      case 'f': return consume_word("false") ? std::optional<Json>(Json(false))
                                             : std::nullopt;
      case '"': {
        std::string text;
        if (!parse_string(text)) return std::nullopt;
        return Json(std::move(text));
      }
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  /// A quoted string into `out`, copied in runs between escapes.
  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    for (;;) {
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return false;  // unterminated
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return false;  // a raw control byte
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Only the escapes the writer emits (< 0x20) are mapped back
          // exactly; other code points are UTF-8 encoded.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: return false;
      }
    }
  }

  /// One digit run; false if there is none.
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ != start;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return std::nullopt;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return std::nullopt;
      is_double = true;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return std::nullopt;
      is_double = true;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (!is_double) {
      if (*first == '-') {
        std::int64_t value = 0;
        if (std::from_chars(first, last, value).ec == std::errc()) {
          return Json(value);
        }
      } else {
        std::uint64_t value = 0;
        if (std::from_chars(first, last, value).ec == std::errc()) {
          if (value <= static_cast<std::uint64_t>(INT64_MAX)) {
            return Json(static_cast<std::int64_t>(value));
          }
          return Json(value);
        }
      }
      // Past int64/uint64: read as a double below.
    }
    double value = 0.0;
    if (std::from_chars(first, last, value).ec != std::errc()) {
      return std::nullopt;  // overflows, or underflows to zero
    }
    return Json(value);
  }

  std::optional<Json> parse_array(int depth) {
    if (!consume('[') || depth >= Json::kMaxDepth) return std::nullopt;
    Json out = Json::array();
    Items& items = std::get<Items>(out.value_);
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      std::optional<Json> item = parse_value(depth + 1);
      if (!item.has_value()) return std::nullopt;
      items.push_back(std::move(*item));
      if (consume(',')) continue;
      if (consume(']')) return out;
      return std::nullopt;
    }
  }

  /// Members are collected in input order and sorted once: inserting
  /// them one at a time would be quadratic in keys that arrive out of
  /// order.
  std::optional<Json> parse_object(int depth) {
    if (!consume('{') || depth >= Json::kMaxDepth) return std::nullopt;
    Json out = Json::object();
    Members& members = std::get<Members>(out.value_);
    skip_ws();
    if (consume('}')) return out;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      std::optional<Json> value = parse_value(depth + 1);
      if (!value.has_value()) return std::nullopt;
      members.emplace_back(std::move(key), std::move(*value));
      if (consume(',')) continue;
      if (consume('}')) break;
      return std::nullopt;
    }
    sort_members(members);
    return out;
  }

  /// Puts members into key order, keeping the last of equal keys. The
  /// writer emits keys ascending, so its output skips the sort.
  static void sort_members(Members& members) {
    const auto less = [](const Json::Member& a, const Json::Member& b) {
      return a.first < b.first;
    };
    const auto not_less = [&](const Json::Member& a, const Json::Member& b) {
      return !less(a, b);
    };
    if (std::adjacent_find(members.begin(), members.end(), not_less) ==
        members.end()) {
      return;
    }
    std::stable_sort(members.begin(), members.end(), less);
    auto kept = members.begin();
    for (auto it = members.begin(); it != members.end(); ++it) {
      const auto next = std::next(it);
      if (next != members.end() && next->first == it->first) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    members.erase(kept, members.end());
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<Json> Json::parse(std::string_view text) {
  return JsonParser(text).run();
}

}  // namespace ferrum::telemetry
