// The one JSON string escaper behind every hand-rendered JSON payload: the
// verdict journal, the Chrome trace export, the report and triage
// renderers and the service's /v1 bodies.
//
// Dialect: `"` `\` newline, carriage return and tab get their short
// escapes, every other byte below 0x20 becomes \u00xx, and all other bytes
// (UTF-8 included) pass through verbatim. The journal's byte-identity
// suites pin these bytes, so the dialect is part of the on-disk format.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace funnel {

/// Append `s`, escaped for the inside of a JSON string literal, to `out`.
/// The quotes are the caller's.
inline void json_escape_to(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n";  break;
      case '\r': out += "\\r";  break;
      case '\t': out += "\\t";  break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace funnel
