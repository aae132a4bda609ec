#include "telemetry/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/str.h"

namespace ferrum::telemetry {

std::int64_t Json::as_int() const {
  switch (kind_) {
    case Kind::kInt: return int_;
    case Kind::kUint: return static_cast<std::int64_t>(uint_);
    case Kind::kDouble: return static_cast<std::int64_t>(double_);
    default: return 0;
  }
}

std::uint64_t Json::as_uint() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<std::uint64_t>(int_);
    case Kind::kUint: return uint_;
    case Kind::kDouble: return static_cast<std::uint64_t>(double_);
    default: return 0;
  }
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return double_;
    default: return 0.0;
  }
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  return fields_[key];
}

const Json* Json::find(const std::string& key) const {
  auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : &it->second;
}

void Json::push_back(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  items_.push_back(std::move(value));
}

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::kArray: return items_.size();
    case Kind::kObject: return fields_.size();
    default: return 0;
  }
}

namespace {

void append_escaped(std::string& out, const std::string& text) {
  out.push_back('"');
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void append_indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

/// format_double, made JSON-safe: a rendering with no '.', 'e' gets a
/// trailing ".0" so the value reads back as a double, not an integer.
std::string json_double(double value) {
  std::string text = format_double(value);
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

}  // namespace

void Json::dump_to(std::string& out, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kInt:
      out += std::to_string(int_);
      return;
    case Kind::kUint:
      out += std::to_string(uint_);
      return;
    case Kind::kDouble:
      if (!std::isfinite(double_)) {
        out += "null";  // JSON has no inf/nan
      } else {
        out += json_double(double_);
      }
      return;
    case Kind::kString:
      append_escaped(out, str_);
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out.push_back(',');
        first = false;
        out.push_back('\n');
        append_indent(out, depth + 1);
        item.dump_to(out, depth + 1);
      }
      out.push_back('\n');
      append_indent(out, depth);
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      if (fields_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : fields_) {
        if (!first) out.push_back(',');
        first = false;
        out.push_back('\n');
        append_indent(out, depth + 1);
        append_escaped(out, key);
        out += ": ";
        value.dump_to(out, depth + 1);
      }
      out.push_back('\n');
      append_indent(out, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out.push_back('\n');
  return out;
}

// ------------------------------------------------------------- parser --

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

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
      case '"': return parse_string();
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  std::optional<Json> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Json(std::move(out));
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
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
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
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
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    if (!is_double) {
      if (token[0] == '-') {
        const long long value = std::strtoll(token.c_str(), &end, 10);
        if (end != token.c_str() + token.size()) return std::nullopt;
        return Json(static_cast<std::int64_t>(value));
      }
      const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size()) return std::nullopt;
      if (value <= static_cast<unsigned long long>(INT64_MAX)) {
        return Json(static_cast<std::int64_t>(value));
      }
      return Json(static_cast<std::uint64_t>(value));
    }
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return Json(value);
  }

  std::optional<Json> parse_array(int depth) {
    if (!consume('[') || depth >= Json::kMaxDepth) return std::nullopt;
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      std::optional<Json> item = parse_value(depth + 1);
      if (!item.has_value()) return std::nullopt;
      out.push_back(std::move(*item));
      if (consume(',')) continue;
      if (consume(']')) return out;
      return std::nullopt;
    }
  }

  std::optional<Json> parse_object(int depth) {
    if (!consume('{') || depth >= Json::kMaxDepth) return std::nullopt;
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    for (;;) {
      skip_ws();
      std::optional<Json> key = parse_string();
      if (!key.has_value()) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      std::optional<Json> value = parse_value(depth + 1);
      if (!value.has_value()) return std::nullopt;
      out[key->as_string()] = std::move(*value);
      if (consume(',')) continue;
      if (consume('}')) return out;
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace ferrum::telemetry
