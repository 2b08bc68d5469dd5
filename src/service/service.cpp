#include "service/service.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace funnel::service {
namespace {

obs::HttpResponse json_response(int status, std::string body) {
  obs::HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

obs::HttpResponse error_response(int status, std::string_view error,
                                 std::string_view detail = {}) {
  std::string body = "{\"error\":\"";
  json_escape_to(body, error);
  body += '"';
  if (!detail.empty()) {
    body += ",\"detail\":\"";
    json_escape_to(body, detail);
    body += '"';
  }
  body += '}';
  return json_response(status, std::move(body));
}

/// Retry-After is an integral number of seconds; round up so the client
/// never retries early.
std::string retry_after_header(double seconds) {
  const double ceiled = std::ceil(seconds);
  const long long s = ceiled < 1.0 ? 1 : static_cast<long long>(ceiled);
  return std::to_string(s);
}

/// "/v1/ingest/acme" with prefix "/v1/ingest/" -> "acme".
std::string tail_of(const std::string& path, std::string_view prefix) {
  return path.size() > prefix.size() ? path.substr(prefix.size())
                                     : std::string();
}

bool parse_query_minute(const std::string& query, std::string_view key,
                        MinuteTime* out) {
  std::size_t start = 0;
  while (start <= query.size()) {
    const std::size_t end = query.find('&', start);
    const std::string_view pair =
        end == std::string::npos
            ? std::string_view(query).substr(start)
            : std::string_view(query).substr(start, end - start);
    start = end == std::string::npos ? query.size() + 1 : end + 1;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || pair.substr(0, eq) != key) continue;
    return parse_number(pair.substr(eq + 1), *out);
  }
  return false;
}

}  // namespace

FunnelService::FunnelService(ServiceOptions options)
    : options_(std::move(options)),
      plane_(options_.stats, options_.plane),
      epoch_(std::chrono::steady_clock::now()) {
  const auto route = [this](const obs::HttpRequest& req) {
    return dispatch(req);
  };
  plane_.handle_prefix("/v1/ingest/", route, /*post=*/true);
  plane_.handle_prefix("/v1/changes/", route, /*post=*/true);
  plane_.handle_prefix("/v1/checkpoint/", route, /*post=*/true);
  plane_.handle_prefix("/v1/maintenance/", route, /*post=*/true);
  plane_.handle_prefix("/v1/quarantine/", route, /*post=*/true);
  plane_.handle_prefix("/v1/report/", route);
  plane_.handle_prefix("/v1/status/", route);
  plane_.handle_prefix("/v1/seq/", route);
  plane_.handle("/v1/tenants", route);
  plane_.add_health([this] {
    std::vector<obs::HealthCheck> checks;
    std::lock_guard<std::mutex> guard(tenants_mutex_);
    checks.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) {
      obs::HealthCheck check;
      check.name = "tenant:" + name;
      check.ok = !tenant->quarantined();
      check.detail = tenant->quarantined() ? tenant->quarantine_reason()
                                           : "serving";
      checks.push_back(std::move(check));
    }
    return checks;
  });
}

FunnelService::~FunnelService() { stop(); }

TenantOptions FunnelService::options_for(const std::string& name) const {
  TenantOptions topts = options_.tenant_defaults;
  topts.name = name;
  if (!options_.data_root.empty()) {
    topts.data_dir = options_.data_root + "/" + name;
  }
  return topts;
}

Tenant& FunnelService::add_tenant(const std::string& name) {
  return add_tenant(options_for(name));
}

bool valid_tenant_name(std::string_view name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string_view::npos;
}

Tenant& FunnelService::add_tenant(TenantOptions topts) {
  if (!valid_tenant_name(topts.name)) {
    throw InvalidArgument("tenant name must be a non-empty path component: '" +
                          topts.name + "'");
  }
  // Construct (and possibly crash-recover) outside the registry lock so a
  // slow recovery never blocks lookups for serving tenants.
  auto tenant = std::make_unique<Tenant>(std::move(topts), options_.stats);
  std::lock_guard<std::mutex> guard(tenants_mutex_);
  auto [it, inserted] =
      tenants_.emplace(tenant->name(), std::move(tenant));
  if (!inserted) {
    throw InvalidArgument("duplicate tenant: " + it->first);
  }
  return *it->second;
}

Tenant* FunnelService::find_tenant(const std::string& name) {
  std::lock_guard<std::mutex> guard(tenants_mutex_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Tenant* FunnelService::resolve(const std::string& name,
                               bool create_if_dynamic) {
  if (Tenant* t = find_tenant(name)) return t;
  if (!create_if_dynamic || !options_.allow_dynamic_tenants ||
      !valid_tenant_name(name)) {
    return nullptr;
  }
  try {
    return &add_tenant(name);
  } catch (const InvalidArgument&) {
    return find_tenant(name);  // lost a creation race: use the winner
  }
}

bool FunnelService::start(std::string* error) {
  if (plane_.start()) {
    plane_.set_ready(true);
    return true;
  }
  if (error != nullptr) *error = plane_.error();
  return false;
}

void FunnelService::stop() { plane_.stop(); }

void FunnelService::checkpoint_all() {
  std::vector<Tenant*> all;
  {
    std::lock_guard<std::mutex> guard(tenants_mutex_);
    all.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) all.push_back(tenant.get());
  }
  for (Tenant* tenant : all) {
    std::lock_guard<std::mutex> guard(tenant->mutex());
    try {
      tenant->checkpoint();
    } catch (const tsdb::persist::StorageError&) {
      // Shutdown best-effort: a failing disk must not abort the sweep.
    }
  }
}

void FunnelService::reload_quotas(const QuotaConfig& quota) {
  std::vector<Tenant*> all;
  {
    std::lock_guard<std::mutex> guard(tenants_mutex_);
    all.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) all.push_back(tenant.get());
  }
  for (Tenant* tenant : all) {
    std::lock_guard<std::mutex> guard(tenant->mutex());
    tenant->update_quota(quota);
  }
}

int FunnelService::port() const { return plane_.port(); }

std::size_t FunnelService::tenant_count() {
  std::lock_guard<std::mutex> guard(tenants_mutex_);
  return tenants_.size();
}

double FunnelService::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

obs::HttpResponse FunnelService::dispatch(const obs::HttpRequest& req) {
  // /v1/tenants: registry-wide status, no tenant resolution.
  if (req.path == "/v1/tenants") {
    std::vector<Tenant*> all;
    {
      std::lock_guard<std::mutex> guard(tenants_mutex_);
      all.reserve(tenants_.size());
      for (const auto& [name, tenant] : tenants_) all.push_back(tenant.get());
    }
    std::string body = "[";
    bool first = true;
    for (Tenant* tenant : all) {
      if (!first) body += ',';
      first = false;
      body += "{\"tenant\":\"";
      json_escape_to(body, tenant->name());
      body += "\",\"quarantined\":";
      body += tenant->quarantined() ? "true" : "false";
      body += '}';
    }
    body += ']';
    return json_response(200, std::move(body));
  }

  static constexpr std::string_view kPrefixes[] = {
      "/v1/ingest/",     "/v1/changes/",     "/v1/report/",
      "/v1/status/",     "/v1/seq/",         "/v1/checkpoint/",
      "/v1/maintenance/", "/v1/quarantine/",
  };
  std::string_view verb;
  std::string name;
  for (const std::string_view prefix : kPrefixes) {
    if (req.path.rfind(prefix, 0) == 0) {
      verb = prefix.substr(4, prefix.size() - 5);  // "/v1/X/" -> "X"
      name = tail_of(req.path, prefix);
      break;
    }
  }
  if (verb.empty() || name.empty()) {
    return error_response(404, "not-found", req.path);
  }

  const bool is_post = req.method == "POST";
  Tenant* tenant = resolve(name, /*create_if_dynamic=*/is_post &&
                                     (verb == "ingest" || verb == "changes"));
  if (tenant == nullptr) {
    return error_response(404, "unknown-tenant", name);
  }

  // Reads of immutable-per-tenant flags (quarantine is sticky) are safe
  // pre-lock and let quarantined tenants answer without contending.
  if ((verb == "ingest" || verb == "changes") && tenant->quarantined()) {
    return error_response(503, "quarantined", tenant->quarantine_reason());
  }

  std::unique_lock<std::mutex> lock(tenant->mutex(), std::try_to_lock);
  if (!lock.owns_lock()) {
    tenant->count_busy_rejection();
    obs::HttpResponse resp =
        error_response(429, "busy", "tenant mutex contended");
    resp.headers.emplace_back("Retry-After", "1");
    return resp;
  }

  if (verb == "ingest") {
    if (tenant->quarantined()) {
      return error_response(503, "quarantined", tenant->quarantine_reason());
    }
    const std::size_t lines =
        static_cast<std::size_t>(
            std::count(req.body.begin(), req.body.end(), '\n')) +
        (!req.body.empty() && req.body.back() != '\n' ? 1 : 0);
    double retry_after = 1.0;
    if (!tenant->admit(lines, now_s(), &retry_after)) {
      tenant->count_quota_rejection();
      obs::HttpResponse resp = error_response(429, "over-quota");
      resp.headers.emplace_back("Retry-After", retry_after_header(retry_after));
      return resp;
    }
    const IngestResult res = tenant->ingest(req.body);
    std::ostringstream body;
    body << "{\"accepted\":" << res.accepted
         << ",\"malformed\":" << res.malformed
         << ",\"quarantined\":" << (res.quarantined ? "true" : "false")
         << ",\"applied_seq\":" << tenant->applied_seq() << "}";
    return json_response(res.quarantined ? 503 : 200, body.str());
  }
  if (verb == "changes") {
    if (tenant->quarantined()) {
      return error_response(503, "quarantined", tenant->quarantine_reason());
    }
    std::size_t malformed = 0;
    const std::vector<changes::ChangeId> ids =
        tenant->register_changes(req.body, &malformed);
    // A journal or meta.log failure quarantines inside the call, and the
    // lines from there on were not registered.
    if (tenant->quarantined()) {
      return error_response(503, "quarantined", tenant->quarantine_reason());
    }
    std::ostringstream body;
    body << "{\"registered\":[";
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) body << ',';
      body << ids[i];
    }
    body << "],\"malformed\":" << malformed
         << ",\"applied_seq\":" << tenant->applied_seq() << "}";
    return json_response(200, body.str());
  }
  if (verb == "report") {
    return json_response(200, tenant->report_json());
  }
  if (verb == "status") {
    return json_response(200, tenant->status_json());
  }
  if (verb == "seq") {
    std::ostringstream body;
    body << "{\"recovered_seq\":" << tenant->recovered_seq()
         << ",\"applied_seq\":" << tenant->applied_seq()
         << ",\"quarantined\":" << (tenant->quarantined() ? "true" : "false")
         << "}";
    return json_response(200, body.str());
  }
  if (verb == "checkpoint") {
    try {
      tenant->checkpoint();
    } catch (const tsdb::persist::StorageError& e) {
      return error_response(503, "checkpoint-failed", e.what());
    }
    return json_response(200, "{\"checkpointed\":true}");
  }
  if (verb == "maintenance") {
    MinuteTime now = 0;
    if (!parse_query_minute(req.query, "now", &now)) {
      return error_response(400, "bad-request",
                            "missing or malformed ?now=<minute>");
    }
    std::size_t expired = 0;
    try {
      expired = tenant->maintenance(now);
    } catch (const tsdb::persist::StorageError& e) {
      return error_response(503, "checkpoint-failed", e.what());
    }
    std::ostringstream body;
    body << "{\"expired\":" << expired << "}";
    return json_response(200, body.str());
  }
  if (verb == "quarantine") {
    std::string reason = req.body.empty() ? "operator-request" : req.body;
    while (!reason.empty() &&
           (reason.back() == '\n' || reason.back() == '\r')) {
      reason.pop_back();
    }
    tenant->quarantine(std::move(reason));
    return json_response(200, "{\"quarantined\":true}");
  }
  return error_response(404, "not-found", req.path);
}

}  // namespace funnel::service
