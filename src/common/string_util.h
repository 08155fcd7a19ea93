// Small string helpers shared by the CSV layer and report formatting.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace neat {

/// Concatenates the streamable arguments into one string.
template <class... Args>
[[nodiscard]] std::string str_cat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

/// Splits `s` on `sep`; keeps empty fields ("a,,b" -> {"a", "", "b"}).
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// True when `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a double; throws neat::ParseError on malformed input.
[[nodiscard]] double parse_double(std::string_view s);

/// Parses a 64-bit integer; throws neat::ParseError on malformed input.
[[nodiscard]] std::int64_t parse_int(std::string_view s);

/// Formats a double with `precision` digits after the decimal point.
[[nodiscard]] std::string format_fixed(double value, int precision);

}  // namespace neat
