#include "service/tenant.h"

#include <algorithm>
#include <array>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "funnel/report_json.h"
#include "tsdb/io.h"
#include "tsdb/persist/format.h"
#include "tsdb/persist/wal.h"

namespace funnel::service {
namespace {

namespace fs = std::filesystem;

/// Split into at most `max_fields` pieces; the last piece keeps any further
/// separators verbatim (change descriptions may contain commas).
std::vector<std::string_view> splitn(std::string_view s, char sep,
                                     std::size_t max_fields) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (out.size() + 1 < max_fields) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) break;
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  out.push_back(s.substr(start));
  return out;
}

/// An optional '-' and decimal digits, inside MinuteTime's range.
bool parse_minute(std::string_view s, MinuteTime* out) {
  return parse_number(s, *out);
}

/// Split an ingest line into exactly five comma-separated fields (empty
/// fields kept); false when it has more or fewer.
bool split5(std::string_view s, std::array<std::string_view, 5>& fields) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t pos = s.find(',', start);
    if (pos == std::string_view::npos) return false;
    fields[i] = s.substr(start, pos - start);
    start = pos + 1;
  }
  fields[4] = s.substr(start);
  return fields[4].find(',') == std::string_view::npos;
}

std::string_view trim_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// The fields /v1/report and /v1/status open with, up to the closing quote
/// of quarantine_reason.
std::string tenant_json_head(const std::string& name, bool quarantined,
                             const std::string& reason) {
  std::string out = "{\"tenant\":\"";
  json_escape_to(out, name);
  out += "\",\"quarantined\":";
  out += quarantined ? "true" : "false";
  out += ",\"quarantine_reason\":\"";
  json_escape_to(out, reason);
  out += '"';
  return out;
}

}  // namespace

Tenant::Tenant(TenantOptions options, const obs::Registry* stats)
    : options_(std::move(options)), stats_(stats) {
  bucket_.configure(options_.quota.rate_per_sec, options_.quota.burst);
  queue_share_ = std::clamp(options_.quota.queue_share, 0.0, 1.0);
  if (!options_.journal_path.empty()) {
    journal_path_ = options_.journal_path;
  } else if (!options_.data_dir.empty()) {
    journal_path_ = (fs::path(options_.data_dir) / "journal.jsonl").string();
  }
  if (options_.data_dir.empty()) {
    open_fresh();
    return;
  }
  try {
    recover();
  } catch (const tsdb::persist::StorageError& e) {
    // Degrade, don't die: the daemon's other tenants keep serving. This
    // tenant comes up fully in-memory and quarantined with the error as its
    // machine-readable reason; its on-disk state is left untouched for
    // offline forensics.
    online_.reset();
    store_.reset();
    journal_.reset();
    if (meta_ != nullptr) {
      std::fclose(meta_);
      meta_ = nullptr;
    }
    topo_ = topology::ServiceTopology{};
    server_known_.clear();
    log_ = changes::ChangeLog{};
    change_index_.clear();
    watched_.clear();
    recovered_seq_ = 0;
    applied_seq_ = 0;
    options_.data_dir.clear();
    journal_path_.clear();
    open_fresh();
    quarantined_ = true;
    quarantine_reason_ = std::string("recovery-failed: ") + e.what();
  }
}

Tenant::~Tenant() {
  // FunnelOnline references topo_/log_/store_/journal_: it must go first.
  online_.reset();
  store_.reset();
  journal_.reset();
  if (meta_ != nullptr) std::fclose(meta_);
}

void Tenant::open_fresh() {
  tsdb::StoreOptions sopts;
  sopts.num_shards = options_.num_shards;
  sopts.ingest_queue_capacity = options_.ingest_queue_capacity;
  sopts.backpressure = options_.backpressure;
  store_ = std::make_unique<tsdb::MetricStore>(sopts);
  if (!journal_path_.empty()) {
    journal_ = std::make_unique<obs::Journal>(journal_path_);
  }
  wire_online();
}

std::string Tenant::meta_path() const {
  return (fs::path(options_.data_dir) / "meta.log").string();
}

void Tenant::recover() {
  tsdb::StoreOptions sopts;
  sopts.num_shards = options_.num_shards;
  sopts.ingest_queue_capacity = options_.ingest_queue_capacity;
  sopts.backpressure = options_.backpressure;
  sopts.data_dir = options_.data_dir;
  sopts.hand_off_tail = true;
  // Creates data_dir; may throw.
  store_ = std::make_unique<tsdb::MetricStore>(sopts);

  // Topology + change registrations replay first, in original arrival
  // order, so every ChangeId comes out exactly as it was assigned live —
  // the WAL watch markers and journal events below reference them.
  replay_meta();

  if (!journal_path_.empty()) {
    // Rewind the journal to the checkpoint's event count; replaying the WAL
    // tail re-emits everything after it, byte for byte (the
    // funnel_persist_replay_test protocol).
    journal_base_ = obs::repair_journal(journal_path_,
                                        store_->recovered_journal_events());
    for (const obs::JournalEvent& ev : obs::read_journal(journal_path_)) {
      if (ev.source == "online") watched_.insert(ev.change_id);
    }
    obs::JournalOptions jopts;
    jopts.truncate = false;
    journal_ = std::make_unique<obs::Journal>(journal_path_, jopts);
  }

  wire_online();
  online_->restore_state(store_->recovered_watch_state());
  for (const changes::ChangeId id : online_->active_watch_ids()) {
    watched_.insert(id);
  }
  for (const tsdb::persist::WalRecord& rec : store_->recovered_tail()) {
    if (rec.type == tsdb::persist::WalRecordType::kWatch) {
      // A marker's change line always precedes it in meta.log (appended,
      // fflush-ed, *then* watched), so an id past the log means a torn
      // meta tail — skip rather than crash the whole tenant.
      if (rec.change_id < log_.size()) {
        online_->replay_watch(rec.change_id);
        watched_.insert(rec.change_id);
      }
    } else {
      store_->replay(rec);
    }
  }
  recovered_seq_ = store_->recovered_seq();
  applied_seq_ = recovered_seq_;
  meta_ = std::fopen(meta_path().c_str(), "ab");
  if (meta_ == nullptr) {
    throw tsdb::persist::StorageError("cannot open " + meta_path());
  }
}

void Tenant::wire_online() {
  core::FunnelConfig cfg = options_.funnel;
  cfg.stats = stats_;
  cfg.journal = journal_.get();
  online_ = std::make_unique<core::FunnelOnline>(cfg, topo_, log_, *store_);
  online_->on_report([this](const core::AssessmentReport& r) {
    const std::string json = core::to_json(r);
    std::lock_guard<std::mutex> guard(report_mutex_);
    reports_[r.change_id] = json;
  });
}

bool Tenant::meta_append(const std::string& line) {
  if (meta_ == nullptr) return true;
  // fflush before the action that depends on this line (add_server /
  // watch): once in the kernel page cache the line survives SIGKILL, so
  // anything later in the WAL can rely on it being replayable.
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), meta_) == line.size() &&
      std::fputc('\n', meta_) != EOF && std::fflush(meta_) == 0;
  if (!ok) quarantine("meta-error: cannot write " + meta_path());
  return ok;
}

void Tenant::replay_meta() {
  std::ifstream in(meta_path());
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view sv = trim_cr(line);
    if (sv.empty()) continue;
    try {
      if (sv.rfind("server,", 0) == 0) {
        const auto f = split(sv, ',');
        if (f.size() == 3) {
          topo_.add_server(std::string(f[1]), std::string(f[2]));
        }
      } else if (sv.rfind("change,", 0) == 0) {
        const auto f = splitn(sv, ',', 6);
        if (f.size() != 6) continue;
        MinuteTime time = 0;
        if (!parse_minute(f[1], &time)) continue;
        changes::SoftwareChange change;
        change.service = std::string(f[2]);
        change.mode = f[3] == "full" ? changes::LaunchMode::kFull
                                     : changes::LaunchMode::kDark;
        for (const std::string_view srv : split(f[4], ';')) {
          if (!srv.empty()) change.servers.emplace_back(srv);
        }
        change.time = time;
        change.description = std::string(f[5]);
        const changes::ChangeId id = log_.record(change, topo_);
        change_index_[{change.service, time, change.description}] = id;
      }
    } catch (const std::exception&) {
      // A torn trailing line (crash mid-append) or a registration whose
      // prerequisites were lost: skip it. Watch markers referencing it are
      // skipped too (recover() bounds-checks against log_.size()).
    }
  }
}

bool Tenant::admit(std::size_t n, double now_s, double* retry_after_s) {
  if (!bucket_.try_acquire(static_cast<double>(n), now_s, retry_after_s)) {
    return false;
  }
  // Queue-share cap: an admitted batch must fit into this tenant's share of
  // its own ingest queue on top of what is already backed up, bounding how
  // long an HTTP worker can sit in kBlock submit(). share == 1.0 (default)
  // disables the cap — kBlock drains batches larger than the queue fine.
  if (queue_share_ < 1.0) {
    const std::size_t cap = store_->queue_capacity();
    if (cap > 0 &&
        static_cast<double>(store_->queue_depth() + n) >
            queue_share_ * static_cast<double>(cap)) {
      if (retry_after_s != nullptr) *retry_after_s = 1.0;
      return false;
    }
  }
  return true;
}

void Tenant::update_quota(const QuotaConfig& quota) {
  options_.quota = quota;
  bucket_.configure(quota.rate_per_sec, quota.burst);
  queue_share_ = std::clamp(quota.queue_share, 0.0, 1.0);
}

void Tenant::quiesce_for_mutation(bool* done) {
  if (*done) return;
  *done = true;
  // Dispatcher callbacks (FunnelOnline::handle_sample -> finalize ->
  // identify_impact_set) read topo_/log_; drain them before mutating.
  store_->flush();
}

bool Tenant::journal_failed() {
  if (journal_ == nullptr || journal_->ok()) return false;
  quarantine("journal-error: cannot write " + journal_->path());
  return true;
}

IngestResult Tenant::ingest(std::string_view body) {
  IngestResult res;
  if (quarantined_ || journal_failed()) {
    res.quarantined = true;
    return res;
  }
  bool quiesced = false;
  // Malformed lines seen before the pending batch's first sample: a batch
  // the WAL refuses is refused at that sample, so the lines after it were
  // never reached, exactly as when each line was appended on its own.
  std::size_t malformed_before_batch = 0;
  MinuteTime batch_max_minute = max_minute_;
  std::vector<tsdb::Sample>& batch = ingest_batch_;
  batch.clear();
  // One store submit per batch; false once a StorageError quarantined.
  const auto submit = [&]() {
    if (batch.empty()) return true;
    try {
      store_->append(batch);
    } catch (const tsdb::persist::StorageError& e) {
      res.malformed = malformed_before_batch;
      malformed_lines_ += res.malformed;
      quarantine(std::string("store-error: ") + e.what());
      res.quarantined = true;
      return false;
    }
    res.accepted += batch.size();
    applied_seq_ += batch.size();
    accepted_samples_ += batch.size();
    max_minute_ = batch_max_minute;
    batch.clear();
    return true;
  };

  std::array<std::string_view, 5> f;
  std::size_t start = 0;
  while (start <= body.size()) {
    const std::size_t end = body.find('\n', start);
    const std::string_view raw =
        end == std::string_view::npos ? body.substr(start)
                                      : body.substr(start, end - start);
    start = end == std::string_view::npos ? body.size() + 1 : end + 1;
    const std::string_view line = trim_cr(raw);
    if (line.empty() || line[0] == '#') continue;

    MinuteTime minute = 0;
    double value = 0.0;
    if (!split5(line, f) || f[0].empty() || f[1].empty() || f[2].empty() ||
        !parse_minute(f[3], &minute) ||
        !tsdb::parse_sample_value(f[4], value)) {
      ++res.malformed;
      continue;
    }
    const tsdb::SeriesRef ref =
        store_->intern(tsdb::EntityKind::kServer, f[1], f[2]);
    if (ref >= server_known_.size()) server_known_.resize(ref + 1, 0);
    if (server_known_[ref] == 0) {
      const std::string server(f[1]);
      if (!topo_.has_server(server)) {
        // Cut the batch here: the lines before reach the store before the
        // dispatcher quiesces and the topology changes.
        if (!submit()) return res;
        quiesce_for_mutation(&quiesced);
        const std::string service(f[0]);
        try {
          topo_.add_server(service, server);
        } catch (const std::exception&) {
          ++res.malformed;  // e.g. server claimed by another service
          continue;
        }
        if (!meta_append("server," + service + "," + server)) {
          malformed_lines_ += res.malformed;
          res.quarantined = true;
          return res;
        }
      }
      server_known_[ref] = 1;
    }

    if (batch.empty()) malformed_before_batch = res.malformed;
    batch.push_back(tsdb::Sample{ref, minute, value, {}, {}});
    batch_max_minute = std::max(batch_max_minute, minute);
  }
  if (!submit()) return res;

  malformed_lines_ += res.malformed;
  if (res.malformed > options_.max_malformed_per_batch) {
    std::ostringstream reason;
    reason << "dirty-feed: " << res.malformed
           << " malformed lines in one batch (limit "
           << options_.max_malformed_per_batch << ")";
    quarantine(reason.str());
    res.quarantined = true;
  }
  return res;
}

std::vector<changes::ChangeId> Tenant::register_changes(
    std::string_view body, std::size_t* malformed) {
  std::vector<changes::ChangeId> ids;
  if (quarantined_ || journal_failed()) return ids;
  bool quiesced = false;
  std::size_t start = 0;
  while (start <= body.size()) {
    const std::size_t end = body.find('\n', start);
    const std::string_view raw =
        end == std::string_view::npos ? body.substr(start)
                                      : body.substr(start, end - start);
    start = end == std::string_view::npos ? body.size() + 1 : end + 1;
    const std::string_view line = trim_cr(raw);
    if (line.empty() || line[0] == '#') continue;

    const auto f = splitn(line, ',', 5);
    MinuteTime time = 0;
    if (f.size() != 5 || !parse_minute(f[0], &time) || f[1].empty() ||
        (f[2] != "dark" && f[2] != "full")) {
      if (malformed != nullptr) ++*malformed;
      ++malformed_lines_;
      continue;
    }
    const std::string service(f[1]);
    const std::string description(f[4]);

    changes::ChangeId id = 0;
    const auto key = std::make_tuple(service, time, description);
    const auto it = change_index_.find(key);
    if (it != change_index_.end()) {
      id = it->second;
    } else {
      changes::SoftwareChange change;
      change.service = service;
      change.time = time;
      change.mode = f[2] == "full" ? changes::LaunchMode::kFull
                                   : changes::LaunchMode::kDark;
      change.description = description;
      if (f[3] == "*") {
        if (topo_.has_service(service)) {
          change.servers = topo_.servers_of(service);
        }
      } else {
        for (const std::string_view srv : split(f[3], ';')) {
          if (!srv.empty()) change.servers.emplace_back(srv);
        }
      }
      quiesce_for_mutation(&quiesced);
      try {
        id = log_.record(change, topo_);
      } catch (const std::exception&) {
        if (malformed != nullptr) ++*malformed;
        ++malformed_lines_;
        continue;
      }
      change_index_[key] = id;
      // The change line must be durable (meta fflush) before the watch
      // marker can reference its id from the WAL.
      std::ostringstream meta;
      meta << "change," << time << ',' << service << ',' << f[2] << ','
           << join(change.servers, ";") << ',' << description;
      if (!meta_append(meta.str())) return ids;
    }

    if (!watched_.contains(id)) {
      quiesce_for_mutation(&quiesced);
      try {
        online_->watch(id);  // logs the WAL watch marker when persistent
      } catch (const tsdb::persist::StorageError& e) {
        // The marker is not in the WAL, so the watch was not registered.
        quarantine(std::string("store-error: ") + e.what());
        return ids;
      }
      watched_.insert(id);
      ++applied_seq_;
    }
    ids.push_back(id);
  }
  return ids;
}

std::string Tenant::report_json() {
  store_->flush();
  std::ostringstream out;
  out << tenant_json_head(options_.name, quarantined_, quarantine_reason_)
      << ",\"active_watches\":" << online_->active_watches()
      << ",\"reports\":[";
  {
    std::lock_guard<std::mutex> guard(report_mutex_);
    bool first = true;
    for (const auto& [id, json] : reports_) {
      if (!first) out << ',';
      first = false;
      out << json;
    }
  }
  out << "]}";
  return out.str();
}

std::string Tenant::status_json() {
  std::ostringstream out;
  out << tenant_json_head(options_.name, quarantined_, quarantine_reason_)
      << ",\"persistent\":" << (store_->persistent() ? "true" : "false")
      << ",\"recovered_seq\":" << recovered_seq_
      << ",\"applied_seq\":" << applied_seq_
      << ",\"accepted_samples\":" << accepted_samples_
      << ",\"malformed_lines\":" << malformed_lines_
      << ",\"quota_rejections\":" << quota_rejections_
      << ",\"busy_rejections\":" << busy_rejections_
      << ",\"queue_depth\":" << store_->queue_depth() << "}";
  return out.str();
}

void Tenant::checkpoint() {
  if (!store_->persistent()) return;
  store_->flush();
  // A recovered journal is opened in append mode, so written() counts only
  // this incarnation's events; the checkpoint needs the count from the file
  // START or the next recovery's repair_journal() would truncate the
  // pre-crash prefix away (it keeps the first N events of the file).
  store_->checkpoint(online_->snapshot_state(),
                     journal_ != nullptr ? journal_base_ + journal_->written()
                                         : 0);
}

std::size_t Tenant::maintenance(MinuteTime now) {
  store_->flush();
  const std::size_t expired = online_->expire(now);
  // No WAL record carries an expiry, and recovery rewinds the journal to
  // the last checkpoint: only a checkpoint makes one survive a restart.
  if (expired > 0) checkpoint();
  return expired;
}

void Tenant::quarantine(std::string reason) {
  if (quarantined_) return;
  quarantined_ = true;
  quarantine_reason_ = std::move(reason);
  // Force-finalize every watch: undetermined alarms become kInconclusive
  // with machine-readable reasons instead of hanging until the horizon.
  store_->flush();
  online_->expire(std::numeric_limits<MinuteTime>::max() / 2);
  try {
    checkpoint();
  } catch (const tsdb::persist::StorageError&) {
    // Quarantine must not throw; the durable state simply stays older.
  }
}

std::size_t Tenant::active_watches() {
  store_->flush();
  return online_->active_watches();
}

}  // namespace funnel::service
