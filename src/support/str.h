// Small string utilities used across the project.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ferrum {

/// Splits on a single character; keeps empty fields.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Renders a double compactly but round-trippably: the shortest "%.*g"
/// precision that reads back to the same value, as in the C locale.
std::string format_double(double value);

/// The longest text format_double produces: a sign, 17 digits, the
/// point and a 5-character exponent ("-2.2250738585072014e-308").
inline constexpr std::size_t kMaxDoubleChars = 24;

/// format_double's text written to `out`, which has room for
/// kMaxDoubleChars bytes; returns the end of the text.
char* format_double(char* out, double value);

/// "12,345,678" style thousands grouping, for report tables.
std::string with_commas(std::uint64_t value);

}  // namespace ferrum
