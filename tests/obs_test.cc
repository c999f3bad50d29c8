#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/event_engine.h"
#include "sched/jitter.h"
#include "sched/stream_stats.h"
#include "storage/block_device.h"
#include "storage/media_store.h"

namespace avdb {
namespace obs {
namespace {

TEST(MetricName, Convention) {
  EXPECT_TRUE(ValidMetricName("avdb_sched_stream_elements_presented_total"));
  EXPECT_TRUE(ValidMetricName("avdb_net_transfers_total"));
  EXPECT_TRUE(ValidMetricName("avdb_storage_backoff_ns_total"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("avdb_sched"));        // two segments only
  EXPECT_FALSE(ValidMetricName("sched_foo_total"));   // missing avdb_ prefix
  EXPECT_FALSE(ValidMetricName("avdb_Sched_foo"));    // uppercase
  EXPECT_FALSE(ValidMetricName("avdb_sched_foo-bar")); // bad character
  EXPECT_FALSE(ValidMetricName("avdb__sched_foo"));   // empty segment
  EXPECT_FALSE(ValidMetricName("avdb_sched_foo_"));   // trailing segment
}

constexpr int64_t kTestBounds[] = {10, 20};

/// Minimal owner of one instrument of each kind: a count, a level and a
/// histogram, each exported under its own name.
struct Owner {
  int64_t hits = 0;
  int64_t depth = 0;
  HistogramFields<kTestBounds> latency;
  CounterBinding counters;
  void Bind(MetricsRegistry* registry) {
    counters.Bind(registry, {{"avdb_test_hits_total", "hits", &hits},
                             {"avdb_test_depth_level", "queue depth",
                              [this] { return depth; }},
                             {"avdb_test_lat_ns", "latency", latency}});
  }
};

TEST(Counter, IncrementAndValue) {
  MetricsRegistry registry;
  Owner owner;
  owner.Bind(&registry);
  const Counter* c = registry.GetCounter("avdb_test_hits_total");
  EXPECT_EQ(c->Value(), 0);
  ++owner.hits;
  owner.hits += 41;
  EXPECT_EQ(c->Value(), 42);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry registry;
  Owner a, b;
  a.Bind(&registry);
  b.Bind(&registry);
  const Gauge* g = registry.GetGauge("avdb_test_depth_level");
  a.depth = 7;
  a.depth += -3;
  EXPECT_EQ(g->Value(), 4);
  // A gauge reads the sum of its bound owners' levels; an unbound owner's
  // level leaves it.
  b.depth = 5;
  EXPECT_EQ(g->Value(), 9);
  b.Bind(nullptr);
  EXPECT_EQ(g->Value(), 4);
}

TEST(Histogram, BucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  Owner owner;
  owner.Bind(&registry);
  owner.latency.Observe(0);    // <= 10
  owner.latency.Observe(10);   // == bound -> same bucket (inclusive)
  owner.latency.Observe(11);   // <= 20
  owner.latency.Observe(20);   // == bound
  owner.latency.Observe(21);   // +Inf
  const Histogram* h = registry.GetHistogram("avdb_test_lat_ns", {});
  EXPECT_EQ(h->BucketCount(0), 2);
  EXPECT_EQ(h->BucketCount(1), 2);
  EXPECT_EQ(h->BucketCount(2), 1);
  EXPECT_EQ(h->Count(), 5);
  EXPECT_EQ(h->Sum(), 62);
}

TEST(Histogram, NegativeValuesLandInFirstBucket) {
  MetricsRegistry registry;
  Owner owner;
  owner.Bind(&registry);
  owner.latency.Observe(-5);
  const Histogram* h = registry.GetHistogram("avdb_test_lat_ns", {});
  EXPECT_EQ(h->BucketCount(0), 1);
  EXPECT_EQ(h->Sum(), -5);
}

TEST(MetricsRegistry, GetOrCreateReturnsStablePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("avdb_test_hits_total", "hits");
  Counter* b = registry.GetCounter("avdb_test_hits_total");
  EXPECT_EQ(a, b);
  Owner owner;
  owner.Bind(&registry);  // attaches to the instrument already there
  ++owner.hits;
  EXPECT_EQ(b->Value(), 1);

  Histogram* h1 = registry.GetHistogram("avdb_test_other_ns", {1, 2, 3});
  Histogram* h2 = registry.GetHistogram("avdb_test_other_ns", {9});  // ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 3u);
}

TEST(MetricsRegistry, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  // Each thread counts in its own owner, bound before the threads start
  // and read once they are joined: an owner is driven by one thread.
  std::vector<Owner> owners(kThreads);
  for (Owner& owner : owners) owner.Bind(&registry);
  std::vector<const Counter*> resolved(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry, &owner = owners[i], &resolved, i] {
      for (int j = 0; j < kPerThread; ++j) {
        // Get-or-create must be safe under contention, for a name no
        // thread has yet and for the bound ones.
        resolved[i] = registry.GetCounter("avdb_test_contended_total");
        registry.GetGauge("avdb_test_depth_level");
        registry.GetHistogram("avdb_test_lat_ns", {});
        ++owner.hits;
        owner.latency.Observe(j % 200);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Counter* c : resolved) EXPECT_EQ(c, resolved[0]);
  EXPECT_EQ(registry.GetCounter("avdb_test_hits_total")->Value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.GetHistogram("avdb_test_lat_ns", {})->Count(),
            kThreads * kPerThread);
}

/// A registry with one bound owner: 3 hits, depth -2, latencies 5, 15, 99.
struct FixedExport {
  MetricsRegistry registry;
  Owner owner;
  FixedExport() {
    owner.Bind(&registry);
    owner.hits = 3;
    owner.depth = -2;
    for (int64_t v : {5, 15, 99}) owner.latency.Observe(v);
  }
};

TEST(MetricsRegistry, ExportsAreByteStable) {
  const FixedExport a;
  const FixedExport b;
  EXPECT_EQ(a.registry.Json(), b.registry.Json());
  EXPECT_EQ(a.registry.PrometheusText(), b.registry.PrometheusText());

  const std::string json = a.registry.Json();
  EXPECT_NE(json.find("\"avdb_test_hits_total\":3"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"avdb_test_depth_level\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":119"), std::string::npos);

  const std::string prom = a.registry.PrometheusText();
  EXPECT_NE(prom.find("# TYPE avdb_test_hits_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("avdb_test_hits_total 3"), std::string::npos);
  // Prometheus histogram buckets are cumulative.
  EXPECT_NE(prom.find("avdb_test_lat_ns_bucket{le=\"20\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("avdb_test_lat_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("avdb_test_lat_ns_count 3"), std::string::npos);
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny"), "x\\ny");
}

TEST(TracerTest, SpanPairingSharesId) {
  Tracer tracer;
  const int64_t span = tracer.BeginSpanAt(100, "activity", "bind", "video1");
  tracer.EndSpanAt(span, 250, "ok");
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].t_ns, 100);
  EXPECT_EQ(events[0].name, "bind");
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(events[1].t_ns, 250);
  EXPECT_EQ(events[1].detail, "ok");
  EXPECT_EQ(events[0].span_id, events[1].span_id);
  EXPECT_NE(events[0].span_id, 0);
  // The end half inherits the begin half's identity.
  EXPECT_EQ(events[1].category, "activity");
  EXPECT_EQ(events[1].name, "bind");
  EXPECT_EQ(events[1].actor, "video1");
}

TEST(TracerTest, UnknownSpanEndIsIgnored) {
  Tracer tracer;
  tracer.EndSpan(12345);
  EXPECT_TRUE(tracer.Events().empty());
  EXPECT_EQ(tracer.stats().recorded, 0);
}

TEST(TracerTest, ClockStampsClocklessOverloads) {
  Tracer tracer;
  int64_t now = 0;
  tracer.SetClock([&now] { return now; });
  now = 42;
  tracer.Event("sched", "resync", "audio");
  now = 99;
  tracer.Event("sched", "resync", "audio");
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t_ns, 42);
  EXPECT_EQ(events[1].t_ns, 99);
}

TEST(TracerTest, ClockCallbackMayReenterTracer) {
  // The installed clock is caller code — the event engine's clock can
  // consult the tracer itself — so recording must invoke it with mu_
  // released. Before the fix every clockless overload ran the callback
  // under the lock, and this test deadlocked on the first Event.
  Tracer tracer;
  int64_t now = 7;
  tracer.SetClock([&tracer, &now] {
    (void)tracer.stats();  // re-enters Tracer::mu_
    return now;
  });
  tracer.Event("sched", "tick", "probe");
  now = 9;
  const int64_t id = tracer.BeginSpan("sched", "span", "probe");
  tracer.EndSpan(id);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t_ns, 7);
  EXPECT_EQ(events[1].t_ns, 9);
  EXPECT_EQ(events[2].t_ns, 9);
}

TEST(TracerTest, RingWrapsAndCountsDropped) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.EventAt(i, "test", "tick", "t" + std::to_string(i));
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(events[0].t_ns, 6);
  EXPECT_EQ(events[3].t_ns, 9);
  EXPECT_EQ(tracer.stats().recorded, 10);
  EXPECT_EQ(tracer.stats().dropped, 6);
  // Sequence numbers survive eviction (monotone, never reused).
  EXPECT_EQ(events[0].seq + 3, events[3].seq);
}

TEST(TracerTest, CaptureDeliveriesDefaultsOff) {
  Tracer tracer;
  EXPECT_FALSE(tracer.capture_deliveries());
  tracer.set_capture_deliveries(true);
  EXPECT_TRUE(tracer.capture_deliveries());
}

TEST(TracerTest, DumpJsonIsByteStable) {
  auto build = [] {
    auto tracer = std::make_unique<Tracer>(8);
    const int64_t span = tracer->BeginSpanAt(0, "activity", "start", "v");
    tracer->EventAt(10, "sched", "degrade", "v", "drop_frame");
    tracer->EndSpanAt(span, 20);
    return tracer;
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a->DumpJson(), b->DumpJson());
  const std::string json = a->DumpJson();
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"I\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"drop_frame\""), std::string::npos);
}

TEST(TracerTest, ConcurrentAppendsKeepExactCounts) {
  Tracer tracer(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer, i] {
      for (int j = 0; j < kPerThread; ++j) {
        tracer.EventAt(j, "test", "tick", "thread" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.stats().recorded, kThreads * kPerThread);
  EXPECT_EQ(tracer.stats().dropped, kThreads * kPerThread - 64);
  EXPECT_EQ(tracer.Events().size(), 64u);
}

// --------------------------------------------------------- CounterBinding --
// A bound counter is "count since bind, summed over every owner ever bound
// to it"; these pin the lifetime rules that meaning needs.

int64_t CounterValue(MetricsRegistry& registry, const char* name) {
  return registry.GetCounter(name)->Value();
}

TEST(CounterBindingTest, SumsOwnersAndReadsFieldsAtExport) {
  MetricsRegistry registry;
  Owner a, b;
  a.Bind(&registry);
  b.Bind(&registry);
  a.hits += 3;
  b.hits += 4;
  EXPECT_EQ(CounterValue(registry, "avdb_test_hits_total"), 7);
  EXPECT_NE(registry.Json().find("\"avdb_test_hits_total\":7"),
            std::string::npos);
}

TEST(CounterBindingTest, CountsBeforeBindAreNotReplayed) {
  MetricsRegistry registry;
  Owner owner;
  owner.hits = 10;
  owner.Bind(&registry);
  EXPECT_EQ(CounterValue(registry, "avdb_test_hits_total"), 0);
  ++owner.hits;
  EXPECT_EQ(CounterValue(registry, "avdb_test_hits_total"), 1);
  // Rebinding folds what was counted and re-bases at the current value.
  owner.Bind(&registry);
  ++owner.hits;
  EXPECT_EQ(CounterValue(registry, "avdb_test_hits_total"), 2);
}

TEST(CounterBindingTest, DestroyedOwnerCountsStayExported) {
  MetricsRegistry registry;
  {
    Owner owner;
    owner.Bind(&registry);
    owner.hits = 5;
  }
  EXPECT_EQ(CounterValue(registry, "avdb_test_hits_total"), 5);
  StreamStats* stats = new StreamStats;
  stats->BindTo(&registry);
  stats->Record(0, 0, 100);
  delete stats;
  EXPECT_EQ(
      CounterValue(registry, "avdb_sched_stream_bytes_delivered_total"), 100);
  EXPECT_EQ(registry.GetHistogram("avdb_sched_stream_lateness_ns", {})->Count(),
            1);
}

TEST(CounterBindingTest, UnbindFreezesTheCounter) {
  MetricsRegistry registry;
  Owner owner;
  owner.Bind(&registry);
  owner.hits = 2;
  owner.Bind(nullptr);
  EXPECT_FALSE(owner.counters.bound());
  owner.hits = 50;
  EXPECT_EQ(CounterValue(registry, "avdb_test_hits_total"), 2);
}

TEST(CounterBindingTest, ResetsNeverLowerTheExport) {
  MetricsRegistry registry;
  MediaStore store(
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk()),
      nullptr);
  store.BindObservability(&registry, nullptr);
  Buffer blob;
  blob.AppendU8(1);
  ASSERT_TRUE(store.Put("b", blob).ok());
  ASSERT_TRUE(store.Get("b").ok());
  ASSERT_TRUE(store.Get("b").ok());
  store.ResetStats();
  EXPECT_EQ(store.stats().reads, 0);
  EXPECT_EQ(CounterValue(registry, "avdb_storage_reads_total"), 2);
  ASSERT_TRUE(store.Get("b").ok());
  EXPECT_EQ(CounterValue(registry, "avdb_storage_reads_total"), 3);

  JitterModel jitter = JitterModel::Workstation(3);
  jitter.BindTo(&registry);
  for (int i = 0; i < 10; ++i) jitter.Sample();
  jitter.Reset();
  jitter.Sample();
  EXPECT_EQ(jitter.stats().samples, 1);
  EXPECT_EQ(CounterValue(registry, "avdb_sched_jitter_samples_total"), 11);
  EXPECT_EQ(registry.GetHistogram("avdb_sched_jitter_delay_ns", {})->Count(),
            11);
}

TEST(CounterBindingTest, CopiesOfABoundOwnerStartUnbound) {
  MetricsRegistry registry;
  StreamStats stats;
  stats.BindTo(&registry);
  stats.Record(0, 0, 10);
  StreamStats copy = stats;
  EXPECT_EQ(copy.elements_presented, 1);
  copy.Record(1, 0, 10);
  StreamStats moved = std::move(copy);
  moved.Record(2, 0, 10);
  EXPECT_EQ(
      CounterValue(registry, "avdb_sched_stream_elements_presented_total"), 1);
  EXPECT_EQ(registry.GetHistogram("avdb_sched_stream_lateness_ns", {})->Count(),
            1);
}

TEST(CounterBindingTest, OwnerMayOutliveItsRegistry) {
  Owner owner;
  StreamStats stats;
  JitterModel jitter = JitterModel::Workstation(1);
  EventEngine engine;
  {
    MetricsRegistry registry;
    owner.Bind(&registry);
    stats.BindTo(&registry);
    jitter.BindTo(&registry);
    engine.BindObservability(&registry);
    owner.hits = 1;
  }
  owner.hits = 2;
  // Still bound, each hot path below touches only its owner's fields: a
  // histogram observe or a gauge update that reached the destroyed
  // registry's instruments would be a use after free (ASan).
  stats.Record(0, 5, 100);
  jitter.Sample();
  engine.ScheduleAt(int64_t{10}, [] {});
  engine.RunUntilIdle();
  // Destructors fold into instruments the bindings still own.
}

}  // namespace
}  // namespace obs
}  // namespace avdb
