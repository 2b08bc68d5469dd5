#include "tsdb/io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

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

namespace {

EntityKind parse_kind(const std::string& s) {
  if (s == "server") return EntityKind::kServer;
  if (s == "instance") return EntityKind::kInstance;
  if (s == "service") return EntityKind::kService;
  throw InvalidArgument("unknown entity kind: " + s);
}

}  // namespace

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
  bool first_sample = true;
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
    try {
      minute = std::stoll(fields[0]);
    } catch (const std::exception&) {
      throw InvalidArgument("CSV line " + std::to_string(lineno) +
                            ": bad minute '" + fields[0] + "'");
    }
    double value = 0.0;
    FUNNEL_REQUIRE(parse_sample_value(fields[1], value),
                   "CSV line " + std::to_string(lineno) + ": bad value '" +
                       fields[1] + "'");
    if (first_sample) {
      series = TimeSeries(minute);
      series.append(value);
      first_sample = false;
    } else if (minute < series.end_time()) {
      // A CSV is a serialized series, not a live feed: re-visited minutes
      // mean the file itself is corrupt, so reject with the exact line and
      // failure mode instead of silently misaligning everything after it.
      const char* what = minute == series.end_time() - 1
                             ? ": duplicate minute "
                             : ": minute went backwards to ";
      throw InvalidArgument("CSV line " + std::to_string(lineno) + what +
                            std::to_string(minute) + " (last was " +
                            std::to_string(series.end_time() - 1) + ")");
    } else {
      series.append_at(minute, value);
    }
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

void write_store(std::ostream& out, const MetricStore& store) {
  out << "# funnel-store-v1\n";
  for (const MetricId& id : store.metrics()) {
    const TimeSeries& s = store.series(id);
    out << "# metric " << to_string(id.kind) << ' ' << id.entity << ' '
        << id.kpi << ' ' << s.start_time() << ' ' << s.size() << '\n';
    for (double v : s.values()) {
      if (std::isfinite(v)) {
        out << v << '\n';
      } else {
        out << "nan\n";
      }
    }
  }
}

void read_store(std::istream& in, MetricStore& store) {
  std::string line;
  std::getline(in, line);
  FUNNEL_REQUIRE(starts_with(line, "# funnel-store-v1"),
                 "not a funnel store snapshot");
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    FUNNEL_REQUIRE(starts_with(line, "# metric "),
                   "expected '# metric' header, got: " + line);
    std::istringstream header(line.substr(9));
    std::string kind, entity, kpi;
    MinuteTime start = 0;
    std::size_t n = 0;
    header >> kind >> entity >> kpi >> start >> n;
    FUNNEL_REQUIRE(!header.fail(), "malformed metric header: " + line);
    TimeSeries series(start);
    for (std::size_t i = 0; i < n; ++i) {
      FUNNEL_REQUIRE(static_cast<bool>(std::getline(in, line)),
                     "truncated snapshot: " + entity + "/" + kpi);
      double v = 0.0;
      FUNNEL_REQUIRE(parse_sample_value(line, v), "bad sample: " + line);
      series.append(v);
    }
    store.insert({parse_kind(kind), entity, kpi}, std::move(series));
  }
}

void save_store(const std::string& path, const MetricStore& store) {
  std::ofstream out(path);
  if (!out) throw NotFound("cannot open for writing: " + path);
  write_store(out, store);
}

void load_store(const std::string& path, MetricStore& store) {
  std::ifstream in(path);
  if (!in) throw NotFound("cannot open: " + path);
  read_store(in, store);
}

}  // namespace funnel::tsdb
