// Exporters for telemetry snapshots (obs/registry.h).
//
// Both formats render a merged Snapshot: a live registry's
// (`snapshot_json(reg.snapshot())`) or a default-constructed one when no
// registry is attached (empty, with `"enabled":false`).
#pragma once

#include <string>

#include "obs/registry.h"

namespace funnel::obs {

/// Machine-readable dump: one JSON object with "enabled", "counters",
/// "gauges" and "histograms" members. Histograms carry count/sum/min/max/
/// mean plus per-bucket counts with their upper bounds ("+Inf" for the
/// overflow bucket). Keys are sorted (std::map order), so two dumps of the
/// same snapshot are byte-identical.
std::string snapshot_json(const Snapshot& snap);

/// Prometheus-style text exposition: counters and gauges as single series,
/// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
/// `_count`. Stat names are sanitized to the Prometheus grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*: dots, dashes and any other non-conforming
/// byte (unicode included) become underscores, and a leading digit gains a
/// '_' prefix — the exposition always parses, whatever the stat was named.
std::string prometheus_text(const Snapshot& snap);

}  // namespace funnel::obs
