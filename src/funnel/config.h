// FUNNEL configuration.
//
// Defaults follow the paper's evaluation settings (§4.1): omega = 9 (so
// W = 34), eta = 3, the 7-minute persistence rule, a 1-hour assessment
// horizon ("operators think 1 hour is enough"), and a 30-day historical
// baseline for the seasonality-exclusion path.
#pragma once

#include "common/minute_time.h"
#include "detect/cascade.h"
#include "detect/sliding.h"
#include "detect/sst_common.h"
#include "did/did.h"

namespace funnel::obs {
class Journal;
class Registry;
class Tracer;
}  // namespace funnel::obs

namespace funnel::core {

struct FunnelConfig {
  /// SST window geometry: omega = 5 for fast mitigation, 9 for the paper's
  /// evaluation setting, 15 for more precise assessment (§3.2.3).
  detect::SstGeometry geometry{.omega = 9, .eta = 3};

  /// Detection alarm policy. The threshold applies to the IKA-SST score
  /// (robust-sigma units, slightly below the exact improved-SST threshold
  /// because the Krylov approximation is mildly conservative); persistence
  /// is the 7-minute rule, counted within a 10-window patience.
  /// The detection stage is deliberately permissive (lower threshold than a
  /// stand-alone detector would use): DiD rejects the false candidates, so
  /// FUNNEL buys recall on small KPI changes at no precision cost — the
  /// paper's FUNNEL shows the same profile (Table 1: near-total recall,
  /// with precision carried by the DiD stage).
  detect::AlarmPolicy alarm{
      .threshold = 0.22, .persistence = 7, .patience = 10};

  /// SST hot path (DESIGN.md §5e). Every window runs the warm-started IKA
  /// scorer's future sweep; with `sst_cascade` (the default) a window whose
  /// Eq. 11 factor already bounds the score under the alarm threshold
  /// scores 0 without the past side. The cascade is exact: reports,
  /// journals and verdicts are byte-identical with it off, which is kept
  /// only as the reference path tests compare against.
  /// `cascade.sst_threshold` is overwritten with `alarm.threshold` by the
  /// assessor so the gate always respects the live policy.
  bool sst_cascade = true;
  detect::CascadeConfig cascade{};

  /// Causality determination (§3.2.4-§3.2.5).
  did::DiDConfig did{};

  /// Days of history building the seasonality-exclusion control group.
  int baseline_days = 30;

  /// Telemetry-quality thresholds gating the graceful-degradation chain
  /// (docs/ROBUSTNESS.md). When a KPI's assessed window violates them and
  /// no alarm fired, the verdict degrades to Cause::kInconclusive instead
  /// of a silent "no change" — a gap can hide exactly the shift FUNNEL is
  /// looking for. A fired alarm always proceeds to DiD: real evidence of a
  /// change outranks missing evidence of quiet.
  struct QualityThresholds {
    /// Minimum finite-sample fraction of the assessed window.
    double min_coverage = 0.5;
    /// Longest tolerated run of consecutive missing minutes.
    std::size_t max_gap_run = 15;
    /// Longest tolerated run of *identical* finite values (stuck-at
    /// collector signature). 0 (the default) disables the flatline gate —
    /// a genuinely constant KPI is legal.
    std::size_t max_flat_run = 0;
    /// Clean baseline days the §3.2.5 historical DiD must find. 1 keeps
    /// the paper's behavior (any clean day suffices); production deploys
    /// should raise it so a verdict never rests on a single day's mood.
    int historical_quorum = 1;
  };
  QualityThresholds quality{};

  /// Online mode: extra minutes past a watch's deadline before expire()
  /// force-finalizes it. A gap-starved watch (feed died, so no sample ever
  /// crosses the deadline) would otherwise hang forever; its undetermined
  /// alarms finalize as kInconclusive / kWatchTimedOut.
  MinuteTime watch_timeout = 0;

  /// Length of the DiD pre/post comparison periods in minutes. The paper's
  /// evaluation builds the groups from 1 h before/after the change (§4.1).
  MinuteTime did_window = 60;

  /// Online mode: the shortest post-change period DiD may run on — enables
  /// verdicts minutes after the change (the §5.2 incident was confirmed
  /// ~10 minutes in) instead of waiting the full did_window.
  MinuteTime min_did_window = 9;

  /// Assessment window around the change: KPI data in
  /// [change - lookback, change + horizon] is examined and only alarms at or
  /// after the change minute count.
  MinuteTime lookback = 60;
  MinuteTime horizon = 60;

  /// Self-telemetry sink (see obs/registry.h): stage-duration histograms,
  /// pipeline counters and — online — time-to-verdict are recorded here.
  /// Null (the default) disables telemetry at zero cost. Telemetry is a
  /// side channel only: assessment reports are byte-identical with it on or
  /// off. The registry must outlive every Funnel/FunnelOnline using it.
  const obs::Registry* stats = nullptr;

  /// Decision-provenance tracer (see obs/trace.h): every assessment emits a
  /// causally-linked span tree — per-KPI SST scores (raw and damped), DiD
  /// alpha/t-stat, thresholds, control-group kind — exportable as Chrome
  /// trace-event JSON or an "explain" report section. Null (the default)
  /// disables tracing at zero cost; like `stats`, it is a side channel only
  /// and reports stay byte-identical either way. The tracer must outlive
  /// every Funnel/FunnelOnline using it.
  const obs::Tracer* tracer = nullptr;

  /// Verdict-event journal (see obs/journal.h): every determination —
  /// batch or online — is appended as one schema-versioned JSONL event
  /// carrying its full decision provenance, for the triage layer
  /// (src/triage, docs/TRIAGE.md) to score, blame and mine. Null (the
  /// default) disables journaling at zero cost; like `stats` and `tracer`
  /// it is a side channel only — reports stay byte-identical either way.
  /// The journal must outlive every Funnel/FunnelOnline using it.
  const obs::Journal* journal = nullptr;

  /// Worker threads for the batch fan-outs (per-KPI scoring in assess, and
  /// per-change distribution in assess_window). 0 = hardware concurrency,
  /// 1 = strictly serial (no pool). Reports are byte-identical for every
  /// value: tasks write into pre-sized slots indexed by KPI/change order
  /// and each KPI is scored by a freshly reset()-ed scorer, so scheduling
  /// never shows in the output.
  std::size_t num_threads = 0;
};

/// Scorer parameters for a config. The config carries no scorer knobs:
/// the assessor, the online watches and the tools all run the default
/// warm IkaSst.
inline detect::IkaParams sst_params(const FunnelConfig& /*config*/) {
  return {};
}

}  // namespace funnel::core
