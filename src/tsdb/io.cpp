#include "tsdb/io.h"

#include <cmath>
#include <fstream>
#include <limits>

#include "common/error.h"
#include "common/strings.h"

namespace funnel::tsdb {

bool parse_sample_value(std::string_view text, double& out) {
  if (text.empty() || text == "nan" || text == "NaN") {
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  return parse_decimal(text, out);
}

void write_series_csv(std::ostream& out, const TimeSeries& series) {
  out << "minute,value\n";
  MinuteTime t = series.start_time();
  for (double v : series.values()) {
    out << t << ',';
    if (std::isfinite(v)) {
      out << v;
    }  // gaps serialize as an empty field
    out << '\n';
    ++t;
  }
}

TimeSeries read_series_csv(std::istream& in) {
  TimeSeries series(0);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::vector<std::string> fields = split(line, ',');
    FUNNEL_REQUIRE(fields.size() == 2,
                   "CSV line " + std::to_string(lineno) +
                       ": expected 'minute,value'");
    if (lineno == 1 && fields[0] == "minute") continue;  // header
    MinuteTime minute = 0;
    if (!parse_number(fields[0], minute)) {
      throw InvalidArgument("CSV line " + std::to_string(lineno) +
                            ": bad minute '" + fields[0] + "'");
    }
    double value = 0.0;
    FUNNEL_REQUIRE(parse_sample_value(fields[1], value),
                   "CSV line " + std::to_string(lineno) + ": bad value '" +
                       fields[1] + "'");
    if (!series.empty() && minute < series.end_time()) {
      // A CSV is a serialized series, not a live feed: re-visited minutes
      // mean the file itself is corrupt, so reject with the exact line and
      // failure mode instead of silently misaligning everything after it.
      const char* what = minute == series.end_time() - 1
                             ? ": duplicate minute "
                             : ": minute went backwards to ";
      throw InvalidArgument("CSV line " + std::to_string(lineno) + what +
                            std::to_string(minute) + " (last was " +
                            std::to_string(series.end_time() - 1) + ")");
    }
    // The first row defines the start; a later one NaN-fills skipped
    // minutes.
    series.upsert_at(minute, value);
  }
  return series;
}

void save_series_csv(const std::string& path, const TimeSeries& series) {
  std::ofstream out(path);
  if (!out) throw NotFound("cannot open for writing: " + path);
  write_series_csv(out, series);
}

TimeSeries load_series_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw NotFound("cannot open: " + path);
  return read_series_csv(in);
}

}  // namespace funnel::tsdb
