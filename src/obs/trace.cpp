#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "common/json.h"

namespace funnel::obs {
namespace {

void escape_to(std::ostringstream& os, std::string_view s) {
  std::string quoted = "\"";
  json_escape_to(quoted, s);
  quoted += '"';
  os << quoted;
}

void json_number_to(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void attr_value_to(std::ostringstream& os, const SpanAttr& a) {
  switch (a.kind) {
    case SpanAttr::Kind::kDouble:
      json_number_to(os, a.num);
      break;
    case SpanAttr::Kind::kInt:
      os << a.inum;
      break;
    case SpanAttr::Kind::kString:
      escape_to(os, a.str);
      break;
  }
}

}  // namespace

std::string chrome_trace_json(const TraceDump& dump) {
  std::ostringstream os;
  // Rebase to the earliest span so Perfetto's timeline starts near zero.
  std::uint64_t base = 0;
  if (!dump.spans.empty()) {
    base = dump.spans.front().start_ns;
    for (const SpanRecord& s : dump.spans) base = std::min(base, s.start_ns);
  }
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":"
     << dump.recorded << ",\"dropped\":" << dump.dropped
     << ",\"threads\":" << dump.threads << "},\"traceEvents\":[";
  bool first = true;
  for (std::uint64_t tid = 0; tid < dump.threads; ++tid) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"funnel-thread-"
       << tid << "\"}}";
  }
  for (const SpanRecord& s : dump.spans) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":";
    escape_to(os, s.name);
    os << ",\"ts\":";
    json_number_to(os, static_cast<double>(s.start_ns - base) / 1000.0);
    os << ",\"dur\":";
    json_number_to(os,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    os << ",\"args\":{\"trace_id\":" << s.trace_id
       << ",\"span_id\":" << s.span_id << ",\"parent_id\":" << s.parent_id;
    for (const SpanAttr& a : s.attrs) {
      os << ',';
      escape_to(os, a.key);
      os << ':';
      attr_value_to(os, a);
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The ambient causal position of this thread. Carries the tracer pointer,
// so there is no per-tracer keying: at most one context is ambient at a
// time (the innermost open Span / installed ScopedContext).
thread_local SpanContext tls_current{};

// Tracer uid -> ring cache, keyed by a never-reused uid so a dead tracer's
// entry can never be confused with a later tracer reusing the address.
thread_local std::unordered_map<std::uint64_t, Tracer::Ring*> tls_rings;

std::atomic<std::uint64_t> g_next_uid{1};

}  // namespace

/// One thread's private span ring. Only the owning thread writes (slot
/// assignment + head bump); collect() reads at quiesce points, where the
/// pool-join / dispatcher-flush barrier the caller waited on already orders
/// every write before the read.
struct Tracer::Ring {
  explicit Ring(std::size_t cap) : slots(cap) {}
  std::vector<SpanRecord> slots;
  std::uint64_t head = 0;  ///< spans ever recorded by the owner
};

SpanContext current_context() { return tls_current; }

ScopedContext::ScopedContext(const SpanContext& ctx) : saved_(tls_current) {
  tls_current = ctx;
}

ScopedContext::~ScopedContext() { tls_current = saved_; }

Tracer::Tracer(std::size_t ring_capacity)
    : uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)),
      capacity_(std::max<std::size_t>(1, ring_capacity)) {}

Tracer::~Tracer() = default;

Tracer::Ring& Tracer::local_ring() const {
  const auto it = tls_rings.find(uid_);
  if (it != tls_rings.end()) return *it->second;
  const std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  Ring* ring = rings_.back().get();
  tls_rings.emplace(uid_, ring);
  return *ring;
}

void Tracer::record(SpanRecord&& rec) const {
  Ring& ring = local_ring();
  ring.slots[ring.head % capacity_] = std::move(rec);
  ++ring.head;
}

std::uint64_t Tracer::new_trace_id() const {
  return next_trace_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Tracer::new_span_id() const {
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

TraceDump Tracer::collect() const {
  TraceDump dump;
  const std::lock_guard<std::mutex> lock(mutex_);
  dump.threads = rings_.size();
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const Ring& ring = *rings_[i];
    const std::uint64_t kept =
        std::min<std::uint64_t>(ring.head, capacity_);
    for (std::uint64_t k = ring.head - kept; k < ring.head; ++k) {
      SpanRecord rec = ring.slots[k % capacity_];
      rec.thread = static_cast<std::uint32_t>(i);
      dump.spans.push_back(std::move(rec));
    }
    dump.recorded += ring.head;
    dump.dropped += ring.head - kept;
  }
  std::sort(dump.spans.begin(), dump.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.span_id < b.span_id;
            });
  return dump;
}

namespace internal {

void SpanState::open(const SpanContext& parent, const char* name) {
  if (!parent.active()) return;
  tracer = parent.tracer;
  rec.trace_id = parent.trace_id;
  rec.parent_id = parent.span_id;
  rec.span_id = tracer->new_span_id();
  rec.name = name;
  rec.start_ns = now_ns();
}

void SpanState::open_on(const Tracer* t, const char* name) {
  if (t == nullptr) return;
  const SpanContext ambient = tls_current;
  if (ambient.tracer == t) {
    open(ambient, name);
    return;
  }
  tracer = t;
  rec.trace_id = t->new_trace_id();
  rec.parent_id = 0;
  rec.span_id = t->new_span_id();
  rec.name = name;
  rec.start_ns = now_ns();
}

void SpanState::close() {
  if (tracer == nullptr) return;
  rec.end_ns = now_ns();
  tracer->record(std::move(rec));
  tracer = nullptr;
}

void SpanState::push(const char* key, SpanAttr&& a) {
  a.key = key;
  rec.attrs.push_back(std::move(a));
}

}  // namespace internal

Span::Span(const Tracer* tracer, const char* name) {
  state_.open_on(tracer, name);
  install();
}

Span::Span(const SpanContext& parent, const char* name) {
  state_.open(parent, name);
  install();
}

void Span::install() {
  if (!active()) return;
  saved_ = tls_current;
  tls_current = state_.context();
}

Span::~Span() {
  if (!active()) return;
  tls_current = saved_;
  state_.close();
}

void Span::attr(const char* key, double v) {
  if (!active()) return;
  SpanAttr a;
  a.kind = SpanAttr::Kind::kDouble;
  a.num = v;
  state_.push(key, std::move(a));
}

void Span::attr_int(const char* key, std::int64_t v) {
  if (!active()) return;
  SpanAttr a;
  a.kind = SpanAttr::Kind::kInt;
  a.inum = v;
  state_.push(key, std::move(a));
}

void Span::attr(const char* key, std::string_view v) {
  if (!active()) return;
  SpanAttr a;
  a.kind = SpanAttr::Kind::kString;
  a.str = std::string(v);
  state_.push(key, std::move(a));
}

DetachedSpan::DetachedSpan(const Tracer* tracer, const char* name) {
  state_.open_on(tracer, name);
}

DetachedSpan::DetachedSpan(const SpanContext& parent, const char* name) {
  state_.open(parent, name);
}

DetachedSpan::DetachedSpan(DetachedSpan&& other) noexcept
    : state_(std::move(other.state_)) {
  other.state_.tracer = nullptr;
}

DetachedSpan& DetachedSpan::operator=(DetachedSpan&& other) noexcept {
  if (this != &other) {
    end();
    state_ = std::move(other.state_);
    other.state_.tracer = nullptr;
  }
  return *this;
}

DetachedSpan::~DetachedSpan() { end(); }

void DetachedSpan::end() { state_.close(); }

void DetachedSpan::attr(const char* key, double v) {
  if (!active()) return;
  SpanAttr a;
  a.kind = SpanAttr::Kind::kDouble;
  a.num = v;
  state_.push(key, std::move(a));
}

void DetachedSpan::attr_int(const char* key, std::int64_t v) {
  if (!active()) return;
  SpanAttr a;
  a.kind = SpanAttr::Kind::kInt;
  a.inum = v;
  state_.push(key, std::move(a));
}

void DetachedSpan::attr(const char* key, std::string_view v) {
  if (!active()) return;
  SpanAttr a;
  a.kind = SpanAttr::Kind::kString;
  a.str = std::string(v);
  state_.push(key, std::move(a));
}

}  // namespace funnel::obs
