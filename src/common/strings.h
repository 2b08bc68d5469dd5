// Small string utilities: hierarchical service names, report output and
// number parsing.
#pragma once

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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

namespace detail {

/// std::strtod over all of `text`: false when it converts nothing, stops
/// before the end or reports ERANGE.
inline bool strtod_whole(std::string_view text, double& out) {
  // strtod needs a terminated string: a stack copy for any real number, a
  // heap one only for the rare longer text, so both accept the same text.
  char stack[64];
  std::string heap;
  char* buf = stack;
  if (text.size() < sizeof(stack)) {
    if (!text.empty()) std::memcpy(stack, text.data(), text.size());
    stack[text.size()] = '\0';
  } else {
    heap.assign(text);
    buf = heap.data();
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (end == buf || end != buf + text.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

}  // namespace detail

/// Parse all of `text` as a double, accepting, rejecting and returning
/// exactly what std::strtod does in the C locale: leading blanks, a '+',
/// exponents, hexadecimal, inf and nan are accepted; empty text, trailing
/// bytes and out-of-range values (ERANGE, subnormals included) are not.
/// Header-only, so funnel_obs can use it without linking funnel_common.
///
/// Text of the form `-?digits[.digits]` with at most 15 significant and 22
/// fraction digits skips strtod (Clinger's fast path): its digits form an
/// integer below 2^53 and its scale is a power of ten up to 1e22, both
/// exact doubles, so one IEEE division rounds the quotient correctly, as
/// strtod does. Every other text goes to strtod. `out` is unchanged after
/// a false.
inline bool parse_decimal(std::string_view text, double& out) {
  static constexpr double kPow10[] = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  constexpr int kMaxDigits = 15;
  constexpr int kMaxFraction = 22;
  // A wider evaluation format would round the division twice.
  if constexpr (FLT_EVAL_METHOD != 0) return detail::strtod_whole(text, out);

  const char* p = text.data();
  const char* const end = p + text.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  std::uint64_t mantissa = 0;
  int digits = 0;    // significant: from the first non-zero digit on
  int fraction = 0;  // digits after the point
  bool point = false;
  bool any_digit = false;
  for (; p != end; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d <= 9) {
      mantissa = mantissa * 10 + d;
      digits += mantissa != 0 ? 1 : 0;
      fraction += point ? 1 : 0;
      any_digit = true;
      if (digits > kMaxDigits || fraction > kMaxFraction) {
        return detail::strtod_whole(text, out);
      }
    } else if (*p == '.' && !point) {
      point = true;
    } else {
      return detail::strtod_whole(text, out);
    }
  }
  if (!any_digit) return detail::strtod_whole(text, out);
  double v = static_cast<double>(mantissa);
  if (negative) v = -v;
  out = v / kPow10[fraction];
  return true;
}

}  // namespace funnel
