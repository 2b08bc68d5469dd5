// Small string utilities for hierarchical service names and report output.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace funnel {

/// Split on a single-character delimiter; empty tokens preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Join with a delimiter string.
std::string join(const std::vector<std::string>& parts, std::string_view delim);

/// True when `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Format a double with fixed precision (helper for table output).
std::string format_fixed(double value, int precision);

/// Format a ratio as a percentage string like "99.88%".
std::string format_percent(double ratio, int precision = 2);

/// Parse all of `text` as a T with std::from_chars: no whitespace, no '+',
/// and no sign at all for an unsigned T. False on junk, trailing bytes or
/// overflow — how the tools reject a malformed numeric flag instead of
/// reading it as 0 or wrapping it. `out` is unspecified after a false.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// parse_number() for a count kept in a signed T (a MinuteTime, say): no
/// sign at all, as for an unsigned T.
template <typename T>
bool parse_count(std::string_view text, T& out) {
  return !text.empty() && text.front() != '-' && parse_number(text, out);
}

}  // namespace funnel
