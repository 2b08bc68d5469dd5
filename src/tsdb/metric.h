// Metric identity.
//
// The paper monitors three kinds of KPIs (§2.2): server KPIs (CPU context
// switch count, memory utilization, NIC throughput...), instance KPIs (page
// view count, response delay...) and service KPIs (aggregations of instance
// KPIs). A MetricId names one KPI of one entity; the MetricStore interns
// each name into a dense SeriesRef the first time it sees it and keys its
// series, WAL entries and subscriptions by that ref.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace funnel::tsdb {

/// The kind of entity a KPI belongs to.
enum class EntityKind { kServer, kInstance, kService };

const char* to_string(EntityKind kind);

/// Statistical class of a KPI (§4.2.1 splits all evaluation items into
/// these three types).
enum class KpiClass { kSeasonal, kStationary, kVariable };

const char* to_string(KpiClass c);

/// Identity of one KPI time series: (entity kind, entity name, KPI name).
struct MetricId {
  EntityKind kind = EntityKind::kServer;
  std::string entity;
  std::string kpi;

  auto operator<=>(const MetricId&) const = default;

  /// "server:web-042/cpu_context_switch" style rendering.
  std::string to_string() const;
};

/// Dense handle of an interned MetricId, issued by one MetricStore: 0, 1,
/// 2, ... in first-sight order, valid for that store's lifetime and
/// meaningless to any other store.
using SeriesRef = std::uint32_t;

/// Convenience constructors.
MetricId server_metric(std::string server, std::string kpi);
MetricId instance_metric(std::string instance, std::string kpi);
MetricId service_metric(std::string service, std::string kpi);

}  // namespace funnel::tsdb
