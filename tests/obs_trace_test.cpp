// Unit tests for the tracing subsystem (obs/trace.h): span-tree
// well-formedness, ambient-context nesting, cross-thread propagation
// through ThreadPool::parallel_for and an async tsdb::MetricStore, ring-buffer
// drop accounting under overflow, DetachedSpan move/cross-thread-end
// semantics, and the Chrome trace-event JSON shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tsdb/store.h"

namespace funnel::obs {
namespace {

// Parents must exist (or be 0 = root) and following parent links must
// terminate — the tree property every exporter relies on.
void expect_well_formed(const TraceDump& dump) {
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : dump.spans) {
    EXPECT_NE(s.span_id, 0u);
    EXPECT_TRUE(by_id.emplace(s.span_id, &s).second)
        << "duplicate span id " << s.span_id;
  }
  for (const SpanRecord& s : dump.spans) {
    if (s.parent_id != 0) {
      const auto it = by_id.find(s.parent_id);
      ASSERT_NE(it, by_id.end())
          << s.name << " has dangling parent " << s.parent_id;
      EXPECT_EQ(it->second->trace_id, s.trace_id)
          << s.name << " crosses traces";
    }
    // Walk to the root; a cycle would loop longer than the span count.
    std::uint64_t cur = s.parent_id;
    std::size_t hops = 0;
    while (cur != 0) {
      ASSERT_LE(++hops, dump.spans.size()) << "parent cycle at " << s.name;
      cur = by_id.at(cur)->parent_id;
    }
  }
}

TEST(ObsTrace, SpanTreeWellFormedWithAttrs) {
  Tracer tracer;
  {
    Span root(&tracer, "root");
    root.attr("k.double", 1.5);
    root.attr("k.int", 42);
    root.attr("k.size", std::size_t{7});
    root.attr("k.str", "value");
    {
      Span child("child");  // ambient nesting, no tracer plumbed
      child.attr("c", 1);
      Span grandchild("grandchild");
      EXPECT_TRUE(grandchild.active());
    }
  }
  const TraceDump dump = tracer.collect();
  ASSERT_EQ(dump.spans.size(), 3u);
  expect_well_formed(dump);
  EXPECT_EQ(dump.recorded, 3u);
  EXPECT_EQ(dump.dropped, 0u);

  // Closed innermost-first, but the dump is sorted by start time.
  EXPECT_STREQ(dump.spans[0].name, "root");
  EXPECT_STREQ(dump.spans[1].name, "child");
  EXPECT_STREQ(dump.spans[2].name, "grandchild");
  EXPECT_EQ(dump.spans[0].parent_id, 0u);
  EXPECT_EQ(dump.spans[1].parent_id, dump.spans[0].span_id);
  EXPECT_EQ(dump.spans[2].parent_id, dump.spans[1].span_id);
  for (const SpanRecord& s : dump.spans) {
    EXPECT_LE(s.start_ns, s.end_ns) << s.name;
  }

  const SpanRecord& root = dump.spans[0];
  ASSERT_NE(root.find_attr("k.double"), nullptr);
  EXPECT_DOUBLE_EQ(root.find_attr("k.double")->num, 1.5);
  ASSERT_NE(root.find_attr("k.int"), nullptr);
  EXPECT_EQ(root.find_attr("k.int")->inum, 42);
  ASSERT_NE(root.find_attr("k.size"), nullptr);
  EXPECT_EQ(root.find_attr("k.size")->inum, 7);
  ASSERT_NE(root.find_attr("k.str"), nullptr);
  EXPECT_EQ(root.find_attr("k.str")->str, "value");
  EXPECT_EQ(root.find_attr("missing"), nullptr);
}

TEST(ObsTrace, NullTracerAndNoAmbientAreInert) {
  {
    Span null_span(static_cast<const Tracer*>(nullptr), "nothing");
    EXPECT_FALSE(null_span.active());
    null_span.attr("k", 1.0);  // must be a harmless no-op

    Span orphan("orphan");  // no ambient context open -> inactive
    EXPECT_FALSE(orphan.active());
    EXPECT_FALSE(current_context().active());
  }
  Tracer tracer;
  EXPECT_TRUE(tracer.collect().spans.empty());
}

TEST(ObsTrace, SeparateRootsSeparateTraces) {
  Tracer tracer;
  { Span a(&tracer, "a"); }
  { Span b(&tracer, "b"); }
  const TraceDump dump = tracer.collect();
  ASSERT_EQ(dump.spans.size(), 2u);
  EXPECT_EQ(dump.spans[0].parent_id, 0u);
  EXPECT_EQ(dump.spans[1].parent_id, 0u);
  EXPECT_NE(dump.spans[0].trace_id, dump.spans[1].trace_id);
}

TEST(ObsTrace, RingOverflowDropsOldestWithExactAccounting) {
  Tracer tracer(8);
  EXPECT_EQ(tracer.ring_capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    Span s(&tracer, "s");
    s.attr("i", i);
  }
  const TraceDump dump = tracer.collect();
  ASSERT_EQ(dump.spans.size(), 8u);
  EXPECT_EQ(dump.recorded, 20u);
  EXPECT_EQ(dump.dropped, 12u);
  EXPECT_EQ(dump.threads, 1u);
  // The survivors are exactly the 8 newest, still in order.
  for (int k = 0; k < 8; ++k) {
    ASSERT_NE(dump.spans[k].find_attr("i"), nullptr);
    EXPECT_EQ(dump.spans[k].find_attr("i")->inum, 12 + k);
  }
}

TEST(ObsTrace, ScopedContextInstallsAndRestores) {
  Tracer tracer;
  Span root(&tracer, "root");
  const SpanContext ctx = root.context();
  {
    const ScopedContext clear(SpanContext{});
    EXPECT_FALSE(current_context().active());
    {
      const ScopedContext reinstate(ctx);
      EXPECT_EQ(current_context().span_id, ctx.span_id);
    }
    EXPECT_FALSE(current_context().active());
  }
  EXPECT_EQ(current_context().span_id, ctx.span_id);
}

TEST(ObsTrace, ParallelForPropagatesContextAcrossWorkers) {
  Tracer tracer;
  constexpr std::size_t kTasks = 64;
  std::uint64_t root_id = 0;
  std::uint64_t trace_id = 0;
  {
    ThreadPool pool(4);
    Span root(&tracer, "root");
    root_id = root.context().span_id;
    trace_id = root.context().trace_id;
    pool.parallel_for(0, kTasks, [&](std::size_t i, std::size_t) {
      Span task("task");
      task.attr("index", i);
    });
  }
  const TraceDump dump = tracer.collect();
  ASSERT_EQ(dump.spans.size(), kTasks + 1);
  expect_well_formed(dump);
  std::set<std::int64_t> indices;
  for (const SpanRecord& s : dump.spans) {
    if (std::string_view(s.name) != "task") continue;
    EXPECT_EQ(s.parent_id, root_id);
    EXPECT_EQ(s.trace_id, trace_id);
    indices.insert(s.find_attr("index")->inum);
  }
  EXPECT_EQ(indices.size(), kTasks);  // every index ran exactly once
}

TEST(ObsTrace, IngestDispatcherPropagatesProducerContext) {
  Tracer tracer;
  std::uint64_t root_id = 0;
  constexpr int kSamples = 16;
  {
    tsdb::MetricStore store({.ingest_queue_capacity = 64,
                             .backpressure = common::Backpressure::kBlock});
    store.subscribe({}, [](const tsdb::MetricId&, MinuteTime t, double) {
      Span cb("callback");
      cb.attr("minute", t);
    });
    Span root(&tracer, "producer");
    root_id = root.context().span_id;
    for (int i = 0; i < kSamples; ++i) {
      store.append(tsdb::server_metric("s1", "kpi"), i, 1.0);
    }
    store.flush();  // happens-before for the dispatcher ring's writes
  }
  const TraceDump dump = tracer.collect();
  ASSERT_EQ(dump.spans.size(), kSamples + 1u);
  expect_well_formed(dump);
  EXPECT_EQ(dump.threads, 2u);  // producer ring + dispatcher ring
  for (const SpanRecord& s : dump.spans) {
    if (std::string_view(s.name) != "callback") continue;
    EXPECT_EQ(s.parent_id, root_id);
  }
}

TEST(ObsTrace, DetachedSpanEndsOnAnotherThread) {
  Tracer tracer;
  DetachedSpan watch(&tracer, "watch");
  EXPECT_TRUE(watch.active());
  // The root never installs itself: the opening thread's ambient context
  // stays empty, children must parent under it explicitly.
  EXPECT_FALSE(current_context().active());
  { Span child(watch.context(), "child"); }

  std::thread ender([w = std::move(watch)]() mutable {
    w.attr("ended.on", "other-thread");
    w.end();
  });
  ender.join();

  const TraceDump dump = tracer.collect();
  ASSERT_EQ(dump.spans.size(), 2u);
  expect_well_formed(dump);
  EXPECT_EQ(dump.threads, 2u);  // child on main, root in the ender's ring
  const auto root_it =
      std::find_if(dump.spans.begin(), dump.spans.end(),
                   [](const SpanRecord& s) {
                     return std::string_view(s.name) == "watch";
                   });
  ASSERT_NE(root_it, dump.spans.end());
  EXPECT_NE(root_it->find_attr("ended.on"), nullptr);
}

TEST(ObsTrace, DetachedSpanMoveDoesNotDoubleRecord) {
  Tracer tracer;
  {
    DetachedSpan a(&tracer, "a");
    DetachedSpan b(std::move(a));
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): by design
    EXPECT_TRUE(b.active());
    DetachedSpan c;
    c = std::move(b);
    EXPECT_TRUE(c.active());
    // a, b, c all destruct here; only c should record.
  }
  EXPECT_EQ(tracer.collect().spans.size(), 1u);
}

TEST(ObsTrace, ChromeTraceJsonShape) {
  TraceDump dump;
  SpanRecord s;
  s.trace_id = 1;
  s.span_id = 2;
  s.parent_id = 0;
  s.name = "funnel.assess";
  s.start_ns = 5000;
  s.end_ns = 12000;
  s.thread = 0;
  SpanAttr str_attr;
  str_attr.key = "kpi.metric";
  str_attr.kind = SpanAttr::Kind::kString;
  str_attr.str = "server:\"h\"/kpi";  // must be escaped
  s.attrs.push_back(str_attr);
  SpanAttr num_attr;
  num_attr.key = "sst.peak_score";
  num_attr.kind = SpanAttr::Kind::kDouble;
  num_attr.num = 0.75;
  s.attrs.push_back(num_attr);
  dump.spans.push_back(s);
  dump.recorded = 3;
  dump.dropped = 2;
  dump.threads = 1;

  const std::string json = chrome_trace_json(dump);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread name
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"funnel.assess\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kpi.metric\":\"server:\\\"h\\\"/kpi\""),
            std::string::npos);
  EXPECT_NE(json.find("\"sst.peak_score\":0.75"), std::string::npos);
  // Timestamps rebased to the earliest span, ns -> us.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":7"), std::string::npos);

  // Deterministic render.
  EXPECT_EQ(json, chrome_trace_json(dump));
}

TEST(ObsTrace, ChromeTraceJsonEmptyDump) {
  const std::string json = chrome_trace_json(TraceDump{});
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":0"), std::string::npos);
}

}  // namespace
}  // namespace funnel::obs
