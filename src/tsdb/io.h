// Plain-text import/export for KPI series and whole metric stores.
//
// Two formats:
//   * CSV series: `minute,value` rows (header optional; NaN/empty value =
//     collection gap). This is the interchange format of the command-line
//     tools — export a KPI from any monitoring system and run FUNNEL's
//     detectors on it.
//   * Store snapshot: a line-oriented text format bundling many metrics
//     ("# metric <kind> <entity> <kpi> <start> <n>" followed by n sample
//     lines), used to persist or ship synthetic scenarios.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "tsdb/series.h"
#include "tsdb/store.h"

namespace funnel::tsdb {

/// Parse one sample value as the CSV reader and `/v1/ingest` read it:
/// empty text and the literals nan/NaN are a collection gap (NaN); any other
/// text must parse whole as funnel::parse_decimal() reads it, which is
/// std::strtod's grammar without its ERANGE values. False on anything else.
bool parse_sample_value(std::string_view text, double& out);

/// Write `series` as CSV (`minute,value` with a header row).
void write_series_csv(std::ostream& out, const TimeSeries& series);

/// Parse a CSV series. Accepts an optional header row, blank lines and
/// `#` comments; minutes must be strictly increasing (skipped minutes
/// become NaN gaps; duplicate or backwards timestamps are rejected with a
/// line-numbered diagnostic). Empty value fields and the literals nan/NaN
/// parse as gaps. Throws InvalidArgument on malformed rows.
TimeSeries read_series_csv(std::istream& in);

/// Convenience file wrappers (throw NotFound when the file cannot be
/// opened).
void save_series_csv(const std::string& path, const TimeSeries& series);
TimeSeries load_series_csv(const std::string& path);

/// Write every metric of the store in the snapshot format.
void write_store(std::ostream& out, const MetricStore& store);

/// Read a snapshot into a store (which must not already contain any of the
/// snapshot's metrics). Throws InvalidArgument on malformed input.
void read_store(std::istream& in, MetricStore& store);

void save_store(const std::string& path, const MetricStore& store);
void load_store(const std::string& path, MetricStore& store);

}  // namespace funnel::tsdb
