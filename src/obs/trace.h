// End-to-end tracing with decision provenance — FUNNEL explaining FUNNEL.
//
// The paper's operators trust a verdict because it is traceable to concrete
// evidence: which tservers were in the impact set, what the SST change-score
// was, what DiD's α said against the per-service threshold (§3.2). The
// metrics registry (obs/registry.h) measures how *fast* the pipeline is;
// this subsystem records *what happened and why* for one assessment as it
// fans out across the ThreadPool and the ingest dispatcher: a Dapper-style
// tree of timed spans, each carrying typed attributes (SST raw and damped
// scores, chosen η / Krylov k, DiD α vs. threshold, control-group kind), so
// one assessment yields a single causally-linked span tree even at
// num_threads=8.
//
// Design:
//   * The hot path is lock-free. Each thread gets a bounded ring buffer on
//     first touch (same shard model as the registry); finishing a span is a
//     slot write plus a head increment that only the owning thread performs.
//     When a ring wraps, the oldest span is overwritten and counted —
//     collect() reports exact drop accounting, never silent loss.
//   * Causality propagates through an ambient thread-local SpanContext.
//     Span installs itself as the ambient context for its scope;
//     ThreadPool::parallel_for captures the initiator's context and
//     re-installs it around every task, and an async tsdb::MetricStore
//     stamps the producer's context onto each queued sample and its
//     dispatcher re-installs it around the subscriber callbacks. Deep layers (did/groups) can open
//     child spans without any plumbing. Cross-thread parents can also be
//     passed explicitly (the online assessor parents determination spans
//     under the watch's root span this way).
//   * collect() is the cold path: call it only at quiesce points — after
//     parallel_for returned and/or store.flush() — where the pool's batch
//     completion / the dispatcher's settled barrier already order every
//     record before the read. Recording is never blocked.
//   * A null Tracer* disables everything at the cost of one pointer test
//     per span (no clock reads). Tracing is a side channel: assessment
//     reports are byte-identical with it on, off, or absent.
//
// Span-naming convention mirrors the stat keys (docs/OBSERVABILITY.md):
//   <subsystem>.<object>[.<stage>]   e.g. funnel.assess, funnel.assess.kpi,
//   funnel.assess.determine, funnel.watch. Attribute keys are dotted too:
//   sst.peak_score, did.alpha, did.control_kind.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace funnel::obs {

/// One typed span attribute. Keys are string literals (never freed);
/// string values are owned copies.
struct SpanAttr {
  enum class Kind { kDouble, kInt, kString };
  const char* key = "";
  Kind kind = Kind::kDouble;
  double num = 0.0;
  std::int64_t inum = 0;
  std::string str;
};

/// A finished span as stored in the ring buffers and returned by collect().
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< steady clock
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< recording thread's ring ordinal (collect())
  std::vector<SpanAttr> attrs;

  const SpanAttr* find_attr(std::string_view key) const {
    for (const SpanAttr& a : attrs) {
      if (key == a.key) return &a;
    }
    return nullptr;
  }
};

/// Point-in-time copy of every ring, oldest surviving span first per ring.
struct TraceDump {
  std::vector<SpanRecord> spans;  ///< sorted by (start_ns, span_id)
  std::uint64_t recorded = 0;     ///< spans ever finished, incl. overwritten
  std::uint64_t dropped = 0;      ///< overwritten by ring wrap (oldest first)
  std::uint64_t threads = 0;      ///< rings (threads that recorded spans)
};

/// Chrome trace-event JSON (loads in chrome://tracing and Perfetto): one
/// complete ("ph":"X") event per span on its recording thread's track, span
/// attributes under "args", drop accounting under "otherData". Timestamps
/// are microseconds rebased to the earliest span. Deterministic for a given
/// dump (events sorted like TraceDump::spans).
std::string chrome_trace_json(const TraceDump& dump);

class Tracer;

/// The causal position a span (or task) runs under: which tracer, which
/// trace, and which span new children should attach to. Trivially copyable
/// — this is what crosses thread boundaries.
struct SpanContext {
  const Tracer* tracer = nullptr;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< parent for children; 0 = trace root level

  bool active() const { return tracer != nullptr; }
  const Tracer* owner() const { return tracer; }
};

/// The calling thread's ambient context (empty when no span is open here).
SpanContext current_context();

/// Install `ctx` as the ambient context for the current scope; restores the
/// previous one on destruction. Used by the task-crossing seams (thread
/// pool, ingest dispatcher) — span-producing code should open a Span
/// instead.
class ScopedContext {
 public:
  explicit ScopedContext(const SpanContext& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  SpanContext saved_;
};

/// Owner of the per-thread span rings and the id counters. Recording is
/// done through a `const Tracer*` (a tracer is a sink, like the registry);
/// the tracer must outlive every span and every component holding it.
class Tracer {
 public:
  /// `ring_capacity` spans are retained per recording thread; older spans
  /// are overwritten (and counted as dropped). Clamped to >= 1.
  explicit Tracer(std::size_t ring_capacity = 4096);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t ring_capacity() const { return capacity_; }

  /// Merge every thread's ring into one dump, sorted by (start_ns,
  /// span_id). Cold path; call at quiesce points only (see file comment) —
  /// a collect racing an actively recording thread is undefined.
  TraceDump collect() const;

  /// One thread's private ring (defined in trace.cpp; public only so
  /// file-local helpers there can name it).
  struct Ring;

  /// Internal (Span/DetachedSpan): append a finished span to the calling
  /// thread's ring.
  void record(SpanRecord&& rec) const;

  /// Internal: allocate ids. Ids are unique per tracer but not dense or
  /// deterministic across thread counts — tests compare span *counts* and
  /// tree shapes, never raw ids.
  std::uint64_t new_trace_id() const;
  std::uint64_t new_span_id() const;

 private:
  Ring& local_ring() const;

  const std::uint64_t uid_;  ///< never reused; keys the thread-local cache
  const std::size_t capacity_;
  mutable std::atomic<std::uint64_t> next_trace_{1};
  mutable std::atomic<std::uint64_t> next_span_{1};
  mutable std::mutex mutex_;  ///< guards rings_ (creation + collect)
  mutable std::vector<std::unique_ptr<Ring>> rings_;
};

namespace internal {

/// Shared open/attr/close machinery of Span and DetachedSpan.
struct SpanState {
  const Tracer* tracer = nullptr;
  SpanRecord rec;

  /// Start under `parent` (inactive parent -> inactive span).
  void open(const SpanContext& parent, const char* name);
  /// Start under the ambient context when it belongs to `tracer`, else as
  /// a new trace root on `tracer` (null -> inactive).
  void open_on(const Tracer* tracer, const char* name);
  void close();  ///< stamp end_ns and record; no-op when inactive

  SpanContext context() const {
    return {tracer, rec.trace_id, rec.span_id};
  }
  void push(const char* key, SpanAttr&& a);
};

}  // namespace internal

/// RAII scoped span. Installs itself as the ambient context so children —
/// including spans opened on pool workers via parallel_for, in subscriber
/// callbacks via the ingest dispatcher, or in deeper layers with no tracer
/// plumbing — attach underneath it. Must be destroyed on the constructing
/// thread, in scope order (plain block scoping guarantees both).
class Span {
 public:
  /// Child of the ambient context; inactive when no span is open here.
  explicit Span(const char* name) : Span(current_context(), name) {}

  /// Child of the ambient context when it belongs to `tracer`, otherwise
  /// the root of a new trace. Null tracer = inactive (no clock read).
  Span(const Tracer* tracer, const char* name);

  /// Child of an explicit parent (cross-thread propagation by hand).
  Span(const SpanContext& parent, const char* name);

  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return state_.tracer != nullptr; }
  SpanContext context() const { return state_.context(); }

  /// Typed attributes. Keys must be string literals; all no-ops when
  /// inactive.
  void attr(const char* key, double v);
  template <typename T>
    requires std::is_integral_v<T>
  void attr(const char* key, T v) {
    attr_int(key, static_cast<std::int64_t>(v));
  }
  void attr(const char* key, std::string_view v);
  void attr(const char* key, const char* v) { attr(key, std::string_view(v)); }

 private:
  void attr_int(const char* key, std::int64_t v);
  void install();

  internal::SpanState state_;
  SpanContext saved_;
};

/// A span that is not tied to a scope: movable, never installs itself as
/// the ambient context, and may be end()-ed on a different thread than it
/// was opened on (the record lands in the ending thread's ring). The online
/// assessor keeps one per watch: opened at watch(), finished at finalize()
/// on the dispatcher thread, with determination spans parented under its
/// context in between.
class DetachedSpan {
 public:
  DetachedSpan() = default;
  DetachedSpan(const Tracer* tracer, const char* name);
  DetachedSpan(const SpanContext& parent, const char* name);

  DetachedSpan(DetachedSpan&& other) noexcept;
  DetachedSpan& operator=(DetachedSpan&& other) noexcept;
  ~DetachedSpan();

  DetachedSpan(const DetachedSpan&) = delete;
  DetachedSpan& operator=(const DetachedSpan&) = delete;

  void end();
  bool active() const { return state_.tracer != nullptr; }
  SpanContext context() const { return state_.context(); }

  void attr(const char* key, double v);
  template <typename T>
    requires std::is_integral_v<T>
  void attr(const char* key, T v) {
    attr_int(key, static_cast<std::int64_t>(v));
  }
  void attr(const char* key, std::string_view v);
  void attr(const char* key, const char* v) { attr(key, std::string_view(v)); }

 private:
  void attr_int(const char* key, std::int64_t v);

  internal::SpanState state_;
};

}  // namespace funnel::obs
