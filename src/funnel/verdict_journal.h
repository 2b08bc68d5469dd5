// ItemVerdict → JournalEvent: the bridge between the assessment pipeline
// and the verdict-event journal (obs/journal.h).
//
// obs is dependency-free, so it cannot see changes::SoftwareChange or
// core::ItemVerdict; this translation lives in core instead. One builder
// serves both emitters — Funnel::assess (source "batch") and
// FunnelOnline::finalize (source "online") — so the event schema cannot
// drift between the two paths. Fields only one path can know (the batch
// damp factor, the online determined_at) are left for the caller to fill
// in on the returned event.
#pragma once

#include <string_view>

#include "changes/change.h"
#include "funnel/report.h"
#include "obs/journal.h"

namespace funnel::core {

/// Build the journal event for one determination. Copies everything the
/// verdict itself carries: change metadata, KPI identity, cause +
/// inconclusive reason, alarm evidence, DiD fit + control kind, quality,
/// and — when the verdict has a determined_at stamp — time-to-verdict.
obs::JournalEvent journal_event(const changes::SoftwareChange& change,
                                const ItemVerdict& verdict,
                                std::string_view source);

}  // namespace funnel::core
