#include "support/str.h"

#include <cctype>
#include <charconv>

namespace ferrum {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

char* format_double(char* out, double value) {
  // Find the shortest precision that round-trips, so printed IR/traces stay
  // readable without losing determinism. to_chars with a precision prints
  // as "%.*g" does in the C locale, and from_chars reads as strtod does,
  // so neither depends on LC_NUMERIC.
  char* end = out;
  for (int precision = 1; precision <= 17; ++precision) {
    end = std::to_chars(out, out + kMaxDoubleChars, value,
                        std::chars_format::general, precision)
              .ptr;
    double parsed = 0.0;
    std::from_chars(out, end, parsed);
    if (parsed == value) break;
  }
  return end;
}

std::string format_double(double value) {
  char buffer[kMaxDoubleChars];
  return std::string(buffer, format_double(buffer, value));
}

std::string with_commas(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

}  // namespace ferrum
