#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/admission.h"
#include "sched/degradation.h"
#include "sched/event_engine.h"
#include "sched/jitter.h"
#include "sched/service_queue.h"
#include "sched/stream_stats.h"
#include "sched/sync_controller.h"

namespace avdb {
namespace {

// ------------------------------------------------------------ EventEngine --

TEST(EventEngineTest, RunsInTimeOrder) {
  EventEngine engine;
  std::vector<int> order;
  engine.ScheduleAt(int64_t{300}, [&] { order.push_back(3); });
  engine.ScheduleAt(int64_t{100}, [&] { order.push_back(1); });
  engine.ScheduleAt(int64_t{200}, [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now_ns(), 300);
}

TEST(EventEngineTest, TiesBreakByInsertionOrder) {
  EventEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.ScheduleAt(int64_t{100}, [&order, i] { order.push_back(i); });
  }
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventEngineTest, PastEventsClampToNow) {
  EventEngine engine;
  engine.clock().AdvanceTo(1000);
  bool ran = false;
  engine.ScheduleAt(int64_t{500}, [&] { ran = true; });
  engine.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.now_ns(), 1000);  // never moved backwards
}

TEST(EventEngineTest, EventsCanScheduleEvents) {
  EventEngine engine;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 10) engine.ScheduleAfter(int64_t{100}, tick);
  };
  engine.ScheduleAt(int64_t{0}, tick);
  engine.RunUntilIdle();
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(engine.now_ns(), 900);
}

TEST(EventEngineTest, RunUntilStopsAtDeadline) {
  EventEngine engine;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.ScheduleAt(int64_t{i * 100}, [&] { ++count; });
  }
  engine.RunUntil(int64_t{500});
  EXPECT_EQ(count, 5);
  EXPECT_EQ(engine.now_ns(), 500);
  EXPECT_EQ(engine.PendingEvents(), 5u);
}

TEST(EventEngineTest, CancelBeforeFireRemovesEventAndClosure) {
  EventEngine engine;
  auto token = std::make_shared<int>(7);
  std::vector<int> order;
  engine.ScheduleAt(int64_t{100}, [&] { order.push_back(1); });
  TimerHandle doomed =
      engine.ScheduleAt(int64_t{200}, [&order, token] { order.push_back(2); });
  engine.ScheduleAt(int64_t{300}, [&] { order.push_back(3); });
  EXPECT_EQ(engine.PendingEvents(), 3u);
  EXPECT_TRUE(engine.IsPending(doomed));
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(engine.Cancel(doomed));
  // The capture died at Cancel time, not at the deadline: no tombstone
  // keeps session state alive.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(engine.PendingEvents(), 2u);
  EXPECT_FALSE(engine.IsPending(doomed));
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(engine.EventsCancelled(), 1);
  EXPECT_EQ(engine.EventsRun(), 2);
}

TEST(EventEngineTest, CancelAfterFireIsIdempotentNoOp) {
  EventEngine engine;
  int runs = 0;
  TimerHandle h = engine.ScheduleAt(int64_t{100}, [&] { ++runs; });
  engine.RunUntilIdle();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(engine.IsPending(h));
  EXPECT_FALSE(engine.Cancel(h));  // already fired: nothing to cancel
  EXPECT_EQ(engine.EventsCancelled(), 0);
}

TEST(EventEngineTest, DoubleCancelCountsOnce) {
  EventEngine engine;
  TimerHandle h = engine.ScheduleAt(int64_t{100}, [] {});
  EXPECT_TRUE(engine.Cancel(h));
  EXPECT_FALSE(engine.Cancel(h));
  EXPECT_EQ(engine.EventsCancelled(), 1);
  EXPECT_FALSE(engine.Cancel(TimerHandle()));  // invalid handle: no-op
  EXPECT_FALSE(engine.IsPending(TimerHandle()));
}

TEST(EventEngineTest, RecycledSlotDoesNotMatchStaleHandle) {
  EventEngine engine;
  TimerHandle first = engine.ScheduleAt(int64_t{100}, [] {});
  engine.RunUntilIdle();
  // The slot recycles for a new scheduling; the stale handle's generation
  // no longer matches and must not cancel the newcomer.
  bool ran = false;
  TimerHandle second = engine.ScheduleAt(int64_t{200}, [&] { ran = true; });
  EXPECT_FALSE(engine.Cancel(first));
  EXPECT_TRUE(engine.IsPending(second));
  engine.RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST(EventEngineTest, ScheduleAfterSaturatesSentinelDeadline) {
  EventEngine engine;
  engine.clock().AdvanceTo(1000);
  bool fired = false;
  TimerHandle h = engine.ScheduleAfter(std::numeric_limits<int64_t>::max(),
                                       [&] { fired = true; });
  // Regression: now + INT64_MAX wrapped negative, the clamp-to-now kicked
  // in, and a "never" sentinel deadline fired immediately.
  engine.RunUntil(int64_t{1} << 40);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.IsPending(h));
  EXPECT_EQ(engine.PendingEvents(), 1u);
  EXPECT_TRUE(engine.Cancel(h));  // and a sentinel can still be withdrawn
  EXPECT_EQ(engine.RunUntilIdle(), 0);
  EXPECT_FALSE(fired);
}

TEST(EventEngineTest, CompactionPreservesTieBreakDeterminism) {
  EventEngine engine;
  // Interleave survivors and victims at a single timestamp so the sweep has
  // to rebuild the heap without disturbing the insertion-order tie-break.
  std::vector<int> order;
  std::vector<TimerHandle> victims;
  std::vector<int> expected;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 0) {
      expected.push_back(i);
      engine.ScheduleAt(int64_t{1000}, [&order, i] { order.push_back(i); });
    } else {
      victims.push_back(engine.ScheduleAt(int64_t{1000}, [] {}));
    }
  }
  for (TimerHandle h : victims) EXPECT_TRUE(engine.Cancel(h));
  EXPECT_GT(engine.Compactions(), 0);
  EXPECT_EQ(engine.PendingEvents(), expected.size());
  // Tombstone debt is bounded by the compaction threshold, not by the
  // number of cancellations.
  EXPECT_LT(engine.HeapEntries() - engine.PendingEvents(), 100u);
  engine.RunUntilIdle();
  EXPECT_EQ(order, expected);
}

TEST(EventEngineTest, PendingCountsLiveEventsOnly) {
  EventEngine engine;
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(engine.ScheduleAt(int64_t{100 + i}, [] {}));
  }
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(engine.Cancel(handles[i]));
  EXPECT_EQ(engine.PendingEvents(), 5u);
  EXPECT_EQ(engine.HeapEntries(), 10u);  // tombstones await lazy purge
  EXPECT_EQ(engine.RunUntilIdle(), 5);
  EXPECT_EQ(engine.PendingEvents(), 0u);
  EXPECT_EQ(engine.HeapEntries(), 0u);
}

TEST(EventEngineTest, OversizedClosuresStillRun) {
  EventEngine engine;
  // 512 B of captured state: beyond EventCallback's inline buffer, so this
  // exercises the heap-holder fallback.
  std::array<int64_t, 64> big{};
  big[0] = 41;
  int64_t got = 0;
  engine.ScheduleAt(int64_t{10}, [big, &got] { got = big[0] + 1; });
  engine.RunUntilIdle();
  EXPECT_EQ(got, 42);
}

TEST(EventEngineTest, ExportsEngineMetrics) {
  EventEngine engine;
  obs::MetricsRegistry registry;
  engine.BindObservability(&registry);
  auto* pending = registry.GetGauge("avdb_sched_engine_pending");
  auto* cancelled = registry.GetCounter("avdb_sched_engine_cancelled_total");
  auto* compactions =
      registry.GetCounter("avdb_sched_engine_compactions_total");
  TimerHandle a = engine.ScheduleAt(int64_t{100}, [] {});
  engine.ScheduleAt(int64_t{200}, [] {});
  EXPECT_EQ(pending->Value(), 2);
  EXPECT_TRUE(engine.Cancel(a));
  EXPECT_EQ(pending->Value(), 1);
  EXPECT_EQ(cancelled->Value(), 1);
  engine.RunUntilIdle();
  EXPECT_EQ(pending->Value(), 0);
  EXPECT_EQ(compactions->Value(), engine.Compactions());
}

// ----------------------------------------------------------- ServiceQueue --

TEST(ServiceQueueTest, IdleServerServesImmediately) {
  ServiceQueue q("disk");
  EXPECT_EQ(q.Submit(1000, 500), 1500);
  EXPECT_EQ(q.free_at_ns(), 1500);
}

TEST(ServiceQueueTest, ContentionQueues) {
  ServiceQueue q("disk");
  EXPECT_EQ(q.Submit(0, 1000), 1000);
  EXPECT_EQ(q.Submit(100, 1000), 2000);  // waits 900
  EXPECT_EQ(q.Submit(5000, 100), 5100);  // server idle again
  EXPECT_EQ(q.stats().queued_ns, 900);
  EXPECT_EQ(q.stats().max_queue_ns, 900);
  EXPECT_EQ(q.stats().busy_ns, 2100);
}

TEST(ServiceQueueTest, PeekDoesNotAdvance) {
  ServiceQueue q("x");
  EXPECT_EQ(q.PeekCompletion(0, 100), 100);
  EXPECT_EQ(q.PeekCompletion(0, 100), 100);
  EXPECT_EQ(q.stats().requests, 0);
}

// -------------------------------------------------------------- Admission --

TEST(AdmissionTest, AllOrNothing) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("disk.bw", 100).ok());
  ASSERT_TRUE(ac.RegisterPool("net.bw", 50).ok());
  // First request fits.
  auto t1 = ac.Admit({{"disk.bw", 60}, {"net.bw", 30}});
  ASSERT_TRUE(t1.ok());
  // Second would fit on disk but not net: nothing must be taken.
  auto t2 = ac.Admit({{"disk.bw", 10}, {"net.bw", 30}});
  EXPECT_EQ(t2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(ac.Available("disk.bw").value(), 40.0);
  EXPECT_DOUBLE_EQ(ac.Available("net.bw").value(), 20.0);
  // Releasing the first admits the second.
  ac.Release(&t1.value());
  EXPECT_FALSE(t1.value().IsActive());
  auto t3 = ac.Admit({{"disk.bw", 10}, {"net.bw", 30}});
  EXPECT_TRUE(t3.ok());
  EXPECT_EQ(ac.stats().over_releases, 0);
}

TEST(AdmissionTest, DuplicatePoolDemandsSum) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("buf", 100).ok());
  EXPECT_FALSE(ac.Admit({{"buf", 60}, {"buf", 60}}).ok());
  EXPECT_TRUE(ac.Admit({{"buf", 60}, {"buf", 40}}).ok());
}

TEST(AdmissionTest, ReleaseIsIdempotent) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("p", 10).ok());
  auto t = ac.Admit({{"p", 10}});
  ASSERT_TRUE(t.ok());
  ac.Release(&t.value());
  ac.Release(&t.value());
  EXPECT_DOUBLE_EQ(ac.Available("p").value(), 10.0);
  // Idempotent release on the same ticket is not an over-release: the
  // second call sees an inactive ticket and touches no pool.
  EXPECT_EQ(ac.stats().over_releases, 0);
}

TEST(AdmissionTest, UnknownPoolAndBadDemand) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("p", 10).ok());
  EXPECT_EQ(ac.Admit({{"q", 1}}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ac.Admit({{"p", -1}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ac.RegisterPool("p", 5).code(), StatusCode::kAlreadyExists);
}

TEST(AdmissionTest, ExclusiveDeviceAsUnitPool) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("jukebox.arm", 1).ok());
  auto t1 = ac.Admit({{"jukebox.arm", 1}});
  ASSERT_TRUE(t1.ok());
  EXPECT_FALSE(ac.Admit({{"jukebox.arm", 1}}).ok());
  ac.Release(&t1.value());
  EXPECT_TRUE(ac.Admit({{"jukebox.arm", 1}}).ok());
  EXPECT_EQ(ac.stats().over_releases, 0);
}

TEST(AdmissionTest, StatsCountOutcomes) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("p", 1).ok());
  auto t = ac.Admit({{"p", 1}});
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(ac.Admit({{"p", 1}}).ok());
  EXPECT_EQ(ac.stats().admitted, 1);
  EXPECT_EQ(ac.stats().rejected, 1);
  EXPECT_EQ(ac.stats().over_releases, 0);
}

TEST(AdmissionTest, OverReleaseIsCountedNotMasked) {
  AdmissionController ac;
  obs::MetricsRegistry registry;
  ac.BindObservability(&registry, nullptr);
  ASSERT_TRUE(ac.RegisterPool("p", 10).ok());
  auto t = ac.Admit({{"p", 10}});
  ASSERT_TRUE(t.ok());
  // Simulate the double-release accounting bug the silent clamp used to
  // mask: a stray copy of the ticket returns the same reservation twice.
  AdmissionTicket stray = t.value();
  ac.Release(&t.value());
  EXPECT_EQ(ac.stats().over_releases, 0);
  ac.Release(&stray);
  EXPECT_EQ(ac.stats().over_releases, 1);
  // The pool still clamps sane — the bug is surfaced, not propagated.
  EXPECT_DOUBLE_EQ(ac.Available("p").value(), 10.0);
  EXPECT_EQ(
      registry.GetCounter("avdb_sched_admission_over_releases_total")->Value(),
      1);
}

TEST(AdmissionTest, InternedIdsDriveTheFastPath) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("disk.bw", 100).ok());
  ASSERT_TRUE(ac.RegisterPool("net.bw", 50).ok());
  const PoolId disk = ac.FindPool("disk.bw");
  const PoolId net = ac.FindPool("net.bw");
  ASSERT_NE(disk, kInvalidPoolId);
  ASSERT_NE(net, kInvalidPoolId);
  EXPECT_EQ(ac.PoolName(disk), "disk.bw");
  EXPECT_EQ(ac.FindPool("nope"), kInvalidPoolId);
  EXPECT_EQ(ac.PoolCount(), 2u);
  // Duplicate ids sum, all-or-nothing still holds, release restores.
  auto t = ac.Admit(
      std::vector<PooledDemand>{{disk, 60}, {net, 30}, {disk, 10}});
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(ac.Available("disk.bw").value(), 30.0);
  EXPECT_EQ(ac.Admit(std::vector<PooledDemand>{{net, 30}}).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(
      ac.Admit(std::vector<PooledDemand>{{kInvalidPoolId, 1}}).status().code(),
      StatusCode::kNotFound);
  ac.Release(&t.value());
  EXPECT_DOUBLE_EQ(ac.Available("disk.bw").value(), 100.0);
  EXPECT_DOUBLE_EQ(ac.Available("net.bw").value(), 50.0);
  EXPECT_EQ(ac.stats().over_releases, 0);
}

TEST(AdmissionTest, ShardedPoolsSurviveGrowth) {
  // More pools than one 64-entry shard: registration must not invalidate
  // earlier ids, and lookups must keep resolving across shard boundaries.
  AdmissionController ac;
  std::vector<PoolId> ids;
  for (int i = 0; i < 200; ++i) {
    const std::string name = "pool" + std::to_string(i);
    ASSERT_TRUE(ac.RegisterPool(name, 10 + i).ok());
    ids.push_back(ac.FindPool(name));
  }
  EXPECT_EQ(ac.PoolCount(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ac.PoolName(ids[i]), "pool" + std::to_string(i));
    EXPECT_DOUBLE_EQ(ac.Capacity("pool" + std::to_string(i)).value(), 10 + i);
  }
  auto t = ac.Admit(std::vector<PooledDemand>{{ids[0], 1}, {ids[199], 2}});
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(ac.Available("pool199").value(), 207.0);
  ac.Release(&t.value());
  EXPECT_DOUBLE_EQ(ac.Available("pool199").value(), 209.0);
}

// ----------------------------------------------------------------- Jitter --

TEST(JitterTest, NoJitterIsZero) {
  JitterModel none;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(none.Sample(), 0);
}

TEST(JitterTest, SamplesAreNonNegativeAndDeterministic) {
  JitterModel a = JitterModel::Workstation(42);
  JitterModel b = JitterModel::Workstation(42);
  for (int i = 0; i < 1000; ++i) {
    const int64_t sa = a.Sample();
    EXPECT_GE(sa, 0);
    EXPECT_EQ(sa, b.Sample());
  }
}

TEST(JitterTest, SpikesHappenAtConfiguredRate) {
  JitterModel::Params p;
  p.spike_probability = 0.5;
  p.spike_ns = 1000000;
  JitterModel jm(p, 7);
  int spikes = 0;
  for (int i = 0; i < 2000; ++i) {
    if (jm.Sample() >= 1000000) ++spikes;
  }
  EXPECT_GT(spikes, 800);
  EXPECT_LT(spikes, 1200);
}

TEST(JitterTest, ResetClearsStatsOnly) {
  JitterModel jm = JitterModel::Workstation(42);
  for (int i = 0; i < 100; ++i) jm.Sample();
  ASSERT_EQ(jm.stats().samples, 100);
  jm.Reset();
  EXPECT_EQ(jm.stats().samples, 0);
  EXPECT_EQ(jm.stats().spikes, 0);
  // The RNG stream continues — Reset zeroes accounting, not determinism:
  // a fresh model fast-forwarded past the same prefix produces the same
  // continuation.
  JitterModel fresh = JitterModel::Workstation(42);
  for (int i = 0; i < 100; ++i) fresh.Sample();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(jm.Sample(), fresh.Sample());
  EXPECT_EQ(jm.stats().samples, 50);
}

// --------------------------------------------------------- SyncController --

TEST(SyncControllerTest, FirstTrackBecomesMaster) {
  SyncController sync;
  ASSERT_TRUE(sync.AddTrack("audio").ok());
  ASSERT_TRUE(sync.AddTrack("video").ok());
  // Master never skips.
  ASSERT_TRUE(sync.Report("audio", 0, 100000000).ok());
  ASSERT_TRUE(sync.Report("video", 0, 0).ok());
  EXPECT_EQ(sync.RecommendSkip("audio", 33000000).value(), 0);
}

TEST(SyncControllerTest, LaggingTrackToldToSkip) {
  SyncController::Params params;
  params.skew_threshold_ns = 40 * 1000 * 1000;
  params.drift_alpha = 1.0;  // no smoothing: deterministic test
  SyncController sync(params);
  ASSERT_TRUE(sync.AddTrack("audio", /*master=*/true).ok());
  ASSERT_TRUE(sync.AddTrack("video").ok());
  // Audio on time, video 100 ms late.
  ASSERT_TRUE(sync.Report("audio", 0, 0).ok());
  ASSERT_TRUE(sync.Report("video", 0, 100 * 1000 * 1000).ok());
  const int64_t period = 33 * 1000 * 1000;
  auto skip = sync.RecommendSkip("video", period);
  ASSERT_TRUE(skip.ok());
  EXPECT_GE(skip.value(), 3);  // ceil(100ms / 33ms)
  EXPECT_EQ(sync.stats().resyncs, 1);
  // After the (virtual) skip the drift is discounted: no repeat skip.
  EXPECT_EQ(sync.RecommendSkip("video", period).value(), 0);
}

TEST(SyncControllerTest, InSyncTracksNotSkipped) {
  SyncController sync;
  ASSERT_TRUE(sync.AddTrack("audio", true).ok());
  ASSERT_TRUE(sync.AddTrack("video").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sync.Report("audio", i * 1000000, i * 1000000 + 500).ok());
    ASSERT_TRUE(sync.Report("video", i * 1000000, i * 1000000 + 900).ok());
  }
  EXPECT_EQ(sync.RecommendSkip("video", 1000000).value(), 0);
  EXPECT_LT(sync.CurrentMaxSkewNs(), 1000);
}

TEST(SyncControllerTest, SkewTracksDriftDifference) {
  SyncController::Params params;
  params.drift_alpha = 1.0;
  SyncController sync(params);
  ASSERT_TRUE(sync.AddTrack("a", true).ok());
  ASSERT_TRUE(sync.AddTrack("b").ok());
  ASSERT_TRUE(sync.Report("a", 0, 1000).ok());
  ASSERT_TRUE(sync.Report("b", 0, 9000).ok());
  EXPECT_EQ(sync.CurrentMaxSkewNs(), 8000);
  EXPECT_EQ(sync.stats().max_observed_skew_ns, 8000);
  EXPECT_EQ(sync.DriftNs("b").value(), 9000);
}

TEST(SyncControllerTest, ManyTrackSkewMatchesPairwiseDefinition) {
  // Regression for the O(n²) pairwise scan: the linear max-min pass must
  // produce exactly the max pairwise |drift_i - drift_j| it replaced.
  SyncController::Params params;
  params.drift_alpha = 1.0;
  SyncController sync(params);
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<double> drifts;
  for (int i = 0; i < 64; ++i) {
    const std::string track = "t" + std::to_string(i);
    ASSERT_TRUE(sync.AddTrack(track, i == 0).ok());
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t drift =
        static_cast<int64_t>(rng >> 40) - (int64_t{1} << 23);
    ASSERT_TRUE(sync.Report(track, 0, drift).ok());
    drifts.push_back(static_cast<double>(drift));
  }
  // A track that never reported must not participate in the extrema.
  ASSERT_TRUE(sync.AddTrack("silent").ok());
  int64_t brute = 0;
  for (size_t i = 0; i < drifts.size(); ++i) {
    for (size_t j = i + 1; j < drifts.size(); ++j) {
      brute = std::max(
          brute, static_cast<int64_t>(std::abs(drifts[i] - drifts[j])));
    }
  }
  EXPECT_EQ(sync.CurrentMaxSkewNs(), brute);
}

TEST(SyncControllerTest, ReportSafeAcrossBindAndUnbind) {
  SyncController sync;
  ASSERT_TRUE(sync.AddTrack("a").ok());
  obs::MetricsRegistry registry;
  sync.BindObservability(&registry, nullptr);
  ASSERT_TRUE(sync.Report("a", 0, 5).ok());
  EXPECT_EQ(registry.GetCounter("avdb_sched_sync_reports_total")->Value(), 1);
  EXPECT_EQ(registry.GetGauge("avdb_sched_sync_max_skew_ns")->Value(),
            sync.stats().max_observed_skew_ns);
  sync.BindObservability(nullptr, nullptr);
  // With instruments unbound each pointer is guarded on its own; reporting
  // must not dereference any of them.
  ASSERT_TRUE(sync.Report("a", 0, 5).ok());
}

TEST(SyncControllerTest, ErrorsOnUnknownTrack) {
  SyncController sync;
  EXPECT_EQ(sync.Report("x", 0, 0).code(), StatusCode::kNotFound);
  EXPECT_FALSE(sync.RecommendSkip("x", 100).ok());
  EXPECT_FALSE(sync.DriftNs("x").ok());
  ASSERT_TRUE(sync.AddTrack("x").ok());
  EXPECT_EQ(sync.AddTrack("x").code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(sync.RecommendSkip("x", 0).ok());  // bad period
}

// ------------------------------------------------------------ StreamStats --

TEST(StreamStatsTest, RecordsLatenessBuckets) {
  StreamStats stats;
  stats.Record(1000, -5, 10);                 // on time
  stats.Record(2000, 10 * 1000 * 1000, 10);   // late but under threshold
  stats.Record(3000, 80 * 1000 * 1000, 10);   // deadline miss
  EXPECT_EQ(stats.elements_presented, 3);
  EXPECT_EQ(stats.late_elements, 2);
  EXPECT_EQ(stats.deadline_misses, 1);
  EXPECT_EQ(stats.max_lateness_ns, 80 * 1000 * 1000);
  EXPECT_EQ(stats.bytes_delivered, 30);
  EXPECT_EQ(stats.first_element_ns, 1000);
  EXPECT_NEAR(stats.MissRate(), 1.0 / 3, 1e-9);
}

TEST(StreamStatsTest, ShedElementsCountAsMisses) {
  // Regression: a stream shedding half its frames used to report a miss
  // rate near zero — the skipped elements never entered the quotient — so
  // the degradation ladder read a collapsing stream as healthy.
  StreamStats stats;
  for (int i = 0; i < 50; ++i) {
    stats.Record(i * 1000, /*lateness_ns=*/0, /*bytes=*/1);  // on time
    stats.RecordSkipped();                                   // shed
  }
  EXPECT_EQ(stats.elements_presented, 50);
  EXPECT_EQ(stats.elements_skipped, 50);
  EXPECT_EQ(stats.deadline_misses, 0);
  EXPECT_NEAR(stats.MissRate(), 0.5, 1e-9);
}

TEST(StreamStatsTest, MissAtExactThresholdCounts) {
  // Regression: the threshold compare was `>`, so an element exactly 50 ms
  // late — the documented miss boundary — was not counted as a miss.
  StreamStats stats;
  stats.Record(0, StreamStats::kMissThresholdNs, 1);
  EXPECT_EQ(stats.late_elements, 1);
  EXPECT_EQ(stats.deadline_misses, 1);
  stats.Record(1, StreamStats::kMissThresholdNs - 1, 1);
  EXPECT_EQ(stats.deadline_misses, 1);
}

TEST(StreamStatsTest, BindForwardsIntoRegistry) {
  obs::MetricsRegistry registry;
  StreamStats stats;
  stats.BindTo(&registry);
  stats.Record(0, StreamStats::kMissThresholdNs, 100);
  stats.RecordSkipped(3);
  EXPECT_EQ(
      registry.GetCounter("avdb_sched_stream_elements_presented_total")
          ->Value(),
      1);
  EXPECT_EQ(
      registry.GetCounter("avdb_sched_stream_elements_skipped_total")->Value(),
      3);
  EXPECT_EQ(
      registry.GetCounter("avdb_sched_stream_deadline_misses_total")->Value(),
      1);
  EXPECT_EQ(
      registry.GetCounter("avdb_sched_stream_bytes_delivered_total")->Value(),
      100);
  // Local fields stay authoritative alongside the shared instruments.
  EXPECT_EQ(stats.elements_presented, 1);
  stats.BindTo(nullptr);
  stats.Record(1, 0, 1);  // detached: registry must not move
  EXPECT_EQ(
      registry.GetCounter("avdb_sched_stream_elements_presented_total")
          ->Value(),
      1);
}

TEST(StreamStatsTest, AchievedRate) {
  StreamStats stats;
  // 31 elements, one every 33 1/3 ms -> 30/s.
  for (int i = 0; i <= 30; ++i) {
    stats.Record(i * 1000000000LL / 30, 0, 1);
  }
  EXPECT_NEAR(stats.AchievedRate(), 30.0, 0.1);
}

// ---------------------------------------------------------------- Channel --

TEST(ChannelTest, TransferSerializesOnLink) {
  Channel ch("net", Channel::Profile::Ethernet10());
  const int64_t bytes = 125000;  // 0.1 s at 1.25 MB/s
  const int64_t d1 = ch.Transfer(0, bytes);
  EXPECT_EQ(d1, 100 * 1000 * 1000 + ch.profile().propagation_delay_ns);
  // Second transfer queues behind the first.
  const int64_t d2 = ch.Transfer(0, bytes);
  EXPECT_EQ(d2, 200 * 1000 * 1000 + ch.profile().propagation_delay_ns);
}

TEST(ChannelTest, BandwidthReservation) {
  Channel ch("net", Channel::Profile::T1());
  const int64_t cap = ch.profile().bandwidth_bytes_per_sec;
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 2).ok());
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 2).ok());
  EXPECT_EQ(ch.ReserveBandwidth(1).status().code(),
            StatusCode::kResourceExhausted);
  ch.ReleaseBandwidth(cap / 2);
  EXPECT_TRUE(ch.ReserveBandwidth(cap / 4).ok());
  EXPECT_FALSE(ch.ReserveBandwidth(0).ok());
}

TEST(ChannelTest, ProfilesAreOrdered) {
  EXPECT_GT(Channel::Profile::Atm155().bandwidth_bytes_per_sec,
            Channel::Profile::Ethernet10().bandwidth_bytes_per_sec);
  EXPECT_GT(Channel::Profile::Ethernet10().bandwidth_bytes_per_sec,
            Channel::Profile::T1().bandwidth_bytes_per_sec);
}

TEST(ChannelTest, OverReleaseClampsAtZeroAndCounts) {
  Channel ch("net", Channel::Profile::T1());
  const int64_t cap = ch.profile().bandwidth_bytes_per_sec;
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 4).ok());
  // Releasing more than is reserved is a caller bug the accounting must
  // survive: total clamps at zero, the incident is counted, and the full
  // line rate is available again.
  ch.ReleaseBandwidth(cap);
  EXPECT_EQ(ch.ReservedBandwidth(), 0);
  EXPECT_EQ(ch.AvailableBandwidth(), cap);
  EXPECT_EQ(ch.stats().over_releases, 1);
  // A sane release after the clamp stays sane.
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 2).ok());
  ch.ReleaseBandwidth(cap / 2);
  EXPECT_EQ(ch.ReservedBandwidth(), 0);
  EXPECT_EQ(ch.stats().over_releases, 1);
}

TEST(ChannelTest, RevocationKeepsAvailabilityNonNegative) {
  Channel ch("net", Channel::Profile::Ethernet10());
  const int64_t cap = ch.profile().bandwidth_bytes_per_sec;
  ASSERT_TRUE(ch.ReserveBandwidth(3 * cap / 4).ok());
  // The link loses half its rate mid-stream: reservations now exceed the
  // line. Availability must clamp at zero — a negative value would admit a
  // new stream through a signed compare — and the shortfall must be visible.
  const int64_t excess = ch.SetLineRate(cap / 2);
  EXPECT_EQ(excess, 3 * cap / 4 - cap / 2);
  EXPECT_EQ(ch.AvailableBandwidth(), 0);
  EXPECT_EQ(ch.OversubscribedBandwidth(), excess);
  EXPECT_EQ(ch.ReservedBandwidth(), 3 * cap / 4);
  // Reduced-demand readmission resolves the oversubscription.
  ch.ReleaseBandwidth(3 * cap / 4);
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 4).ok());
  EXPECT_EQ(ch.OversubscribedBandwidth(), 0);
  EXPECT_EQ(ch.AvailableBandwidth(), cap / 2 - cap / 4);
  // Restoring the line rate restores availability.
  EXPECT_EQ(ch.SetLineRate(cap), 0);
  EXPECT_EQ(ch.AvailableBandwidth(), cap - cap / 4);
}

TEST(ChannelTest, LineRateCollapseToZeroClampsInsteadOfDividing) {
  Channel ch("net", Channel::Profile::Ethernet10());
  const int64_t cap = ch.profile().bandwidth_bytes_per_sec;
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 2).ok());
  // The link goes completely dark mid-stream. The rate clamps to 1 B/s —
  // serialization math stays finite — and every reservation reads as
  // oversubscription so callers re-admit.
  const int64_t excess = ch.SetLineRate(0);
  EXPECT_EQ(ch.LineRate(), 1);
  EXPECT_EQ(ch.stats().rate_clamps, 1);
  EXPECT_EQ(excess, cap / 2 - 1);
  EXPECT_EQ(ch.AvailableBandwidth(), 0);
  EXPECT_EQ(ch.OversubscribedBandwidth(), cap / 2 - 1);
  // A transfer still completes (in a very long modeled time), rather than
  // dividing by zero or asserting.
  EXPECT_EQ(ch.SerializationNs(3), 3 * 1000000000LL);
  // Negative rates clamp identically.
  ch.SetLineRate(-100);
  EXPECT_EQ(ch.LineRate(), 1);
  EXPECT_EQ(ch.stats().rate_clamps, 2);
}

TEST(ChannelTest, CollapseThenRestoreResumesNormalService) {
  Channel ch("net", Channel::Profile::Ethernet10());
  const int64_t cap = ch.profile().bandwidth_bytes_per_sec;
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 4).ok());
  ch.SetLineRate(0);
  // Mid-collapse transfer: effectively stalled (seconds per byte) but
  // accounted; it occupies the link far into the future.
  const int64_t stalled_done = ch.Transfer(0, 100);
  EXPECT_GE(stalled_done, 100 * 1000000000LL);
  // Restore: availability and serialization come back; the queued backlog
  // from the stalled transfer drains before new work.
  EXPECT_EQ(ch.SetLineRate(cap), 0);
  EXPECT_EQ(ch.AvailableBandwidth(), cap - cap / 4);
  EXPECT_EQ(ch.SerializationNs(cap), 1000000000LL);
  const int64_t after = ch.Transfer(stalled_done, 1000);
  EXPECT_EQ(after, stalled_done + ch.SerializationNs(1000) +
                       ch.profile().propagation_delay_ns);
}

TEST(ChannelTest, OverReleaseDuringInFlightHedgedReadsStaysSane) {
  Channel ch("net", Channel::Profile::Ethernet10());
  const int64_t cap = ch.profile().bandwidth_bytes_per_sec;
  ASSERT_TRUE(ch.ReserveBandwidth(cap / 2).ok());
  // Two in-flight reads race on the link (a hedged pair: same bytes, the
  // second launched while the first still serializes).
  auto first = ch.TransferWithDeadline(0, 65536, DeadlineBudget::Unlimited());
  auto hedge = ch.TransferWithDeadline(1000, 65536,
                                       DeadlineBudget::Unlimited());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(hedge.ok());
  EXPECT_GT(hedge.value(), first.value());  // serialized behind the first
  // Mid-flight, a confused caller releases more than it reserved (e.g.
  // tearing down both arms of the hedge twice). Accounting clamps at zero
  // and counts the incident; the in-flight transfers are unaffected.
  ch.ReleaseBandwidth(cap);
  EXPECT_EQ(ch.ReservedBandwidth(), 0);
  EXPECT_EQ(ch.stats().over_releases, 1);
  EXPECT_EQ(ch.AvailableBandwidth(), cap);
  // The link keeps serving: a third transfer queues behind the hedge pair.
  auto third = ch.TransferWithDeadline(2000, 1024,
                                       DeadlineBudget::Unlimited());
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third.value(), hedge.value() - ch.profile().propagation_delay_ns);
  EXPECT_EQ(ch.stats().transfers, 3);
}

TEST(ChannelTest, TransferWithDeadlineFastFailsAndCancels) {
  Channel ch("net", Channel::Profile::T1());
  // Spent budget: refused before the injector or queue is touched.
  auto spent = ch.TransferWithDeadline(0, 1024, DeadlineBudget::FromNs(0));
  EXPECT_EQ(spent.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ch.stats().deadline_cancelled, 1);
  EXPECT_EQ(ch.stats().transfers, 0);
  EXPECT_EQ(ch.queue().free_at_ns(), 0);

  // Unfittable transfer: 64 KiB over a T1 needs ~340 ms; a 10 ms budget
  // cancels it *before* it serializes — the link stays free for work that
  // can still meet its deadline.
  auto doomed =
      ch.TransferWithDeadline(0, 65536, DeadlineBudget::FromNs(10 * 1000000));
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ch.stats().deadline_cancelled, 2);
  EXPECT_EQ(ch.queue().free_at_ns(), 0);

  // A transfer that fits behaves exactly like the plain path.
  auto fits =
      ch.TransferWithDeadline(0, 1024, DeadlineBudget::FromNs(1000000000));
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits.value(),
            ch.SerializationNs(1024) + ch.profile().propagation_delay_ns);
  EXPECT_EQ(ch.stats().transfers, 1);
}

TEST(AdmissionTest, RevocationSurfacesOversubscription) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("net.bw", 1000).ok());
  auto ticket = ac.Admit({{"net.bw", 800}});
  ASSERT_TRUE(ticket.ok());
  // Capacity revoked below the reserved amount: availability reads zero
  // (never negative) and the shortfall is reported.
  auto over = ac.SetPoolCapacity("net.bw", 500);
  ASSERT_TRUE(over.ok());
  EXPECT_DOUBLE_EQ(over.value(), 300);
  EXPECT_DOUBLE_EQ(ac.Available("net.bw").value(), 0);
  EXPECT_DOUBLE_EQ(ac.Oversubscription("net.bw").value(), 300);
  EXPECT_EQ(ac.stats().revocations, 1);
  // Growing capacity is not a revocation.
  ASSERT_TRUE(ac.SetPoolCapacity("net.bw", 900).ok());
  EXPECT_EQ(ac.stats().revocations, 1);
  EXPECT_DOUBLE_EQ(ac.Available("net.bw").value(), 100);
  ac.Release(&ticket.value());
  EXPECT_EQ(ac.SetPoolCapacity("nope", 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ac.SetPoolCapacity("net.bw", -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdmissionTest, ReadmitTradesTicketAtReducedDemand) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("net.bw", 1000).ok());
  auto ticket = ac.Admit({{"net.bw", 800}});
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(ac.SetPoolCapacity("net.bw", 400).ok());
  auto traded = ac.Readmit(&ticket.value(), {{"net.bw", 300}});
  ASSERT_TRUE(traded.ok());
  EXPECT_FALSE(ticket.value().IsActive());
  EXPECT_TRUE(traded.value().IsActive());
  EXPECT_DOUBLE_EQ(ac.Available("net.bw").value(), 100);
  EXPECT_DOUBLE_EQ(ac.Oversubscription("net.bw").value(), 0);
  EXPECT_EQ(ac.stats().readmitted, 1);
  ac.Release(&traded.value());
  EXPECT_DOUBLE_EQ(ac.Available("net.bw").value(), 400);
}

TEST(AdmissionTest, ReadmitFailureReleasesOldTicket) {
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("net.bw", 1000).ok());
  auto ticket = ac.Admit({{"net.bw", 800}});
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(ac.SetPoolCapacity("net.bw", 400).ok());
  // Asking for more than the shrunken pool can hold fails — and per the
  // contract the old (already-invalid) reservation stays released: the
  // caller must stop the stream, not keep squatting on revoked capacity.
  auto traded = ac.Readmit(&ticket.value(), {{"net.bw", 500}});
  ASSERT_FALSE(traded.ok());
  EXPECT_EQ(traded.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(ticket.value().IsActive());
  EXPECT_DOUBLE_EQ(ac.Available("net.bw").value(), 400);
  EXPECT_EQ(ac.stats().readmitted, 0);
}

// ------------------------------------------------------------ Degradation --

constexpr int64_t kMs = 1000 * 1000;

TEST(DegradationTest, QuietStreamRecommendsNothing) {
  DegradationController dc;
  EXPECT_EQ(dc.Recommend(0), DegradeAction::kNone);
  for (int i = 0; i < 10; ++i) dc.ReportLateness(0);
  EXPECT_EQ(dc.Recommend(1000 * kMs), DegradeAction::kNone);
  EXPECT_EQ(dc.SmoothedLatenessNs(), 0);
}

TEST(DegradationTest, LadderEscalatesWithSmoothedLateness) {
  DegradationController dc;
  // One 100 ms spike smooths to 100 ms (first sample seeds the EWMA):
  // above the 60 ms lower-quality threshold, below the 250 ms pause one.
  dc.ReportLateness(100 * kMs);
  EXPECT_EQ(dc.Recommend(0), DegradeAction::kLowerQuality);
  dc.AcknowledgeAction(DegradeAction::kLowerQuality, 0);
  EXPECT_EQ(dc.StepsBelowNominal(), 1);
  // Pressure between drop and lower thresholds, dwell still armed: shed
  // frames (cheap, reversible, no dwell).
  dc.ReportLateness(30 * kMs);
  dc.ReportLateness(30 * kMs);
  EXPECT_EQ(dc.Recommend(3), DegradeAction::kDropFrame);
  // Sustained heavy pressure past the dwell: pause and re-anchor.
  for (int i = 0; i < 10; ++i) dc.ReportLateness(400 * kMs);
  EXPECT_EQ(dc.Recommend(600 * kMs), DegradeAction::kPause);
}

TEST(DegradationTest, DwellBlocksImmediateSecondSwitch) {
  DegradationController dc;
  dc.ReportLateness(100 * kMs);
  ASSERT_EQ(dc.Recommend(0), DegradeAction::kLowerQuality);
  dc.AcknowledgeAction(DegradeAction::kLowerQuality, 0);
  // Still above the lower threshold, but inside the dwell window the ladder
  // may only shed frames, not switch quality again.
  dc.ReportLateness(100 * kMs);
  EXPECT_EQ(dc.Recommend(100 * kMs), DegradeAction::kDropFrame);
  // After the dwell elapses the second step down is allowed...
  dc.ReportLateness(100 * kMs);
  EXPECT_EQ(dc.Recommend(600 * kMs), DegradeAction::kLowerQuality);
  dc.AcknowledgeAction(DegradeAction::kLowerQuality, 600 * kMs);
  EXPECT_EQ(dc.StepsBelowNominal(), 2);
  // ...but never below the floor (kMaxLowerSteps = 2).
  dc.ReportLateness(100 * kMs);
  EXPECT_EQ(dc.Recommend(2000 * kMs), DegradeAction::kDropFrame);
}

TEST(DegradationTest, AcknowledgedDropDecaysPressure) {
  DegradationController dc;
  dc.ReportLateness(50 * kMs);
  ASSERT_EQ(dc.Recommend(0), DegradeAction::kDropFrame);
  // A dropped frame is never presented, so the sink will not report it.
  // The acknowledgement itself must decay the EWMA or the ladder would shed
  // every remaining frame of the stream.
  int drops = 0;
  while (dc.Recommend(0) == DegradeAction::kDropFrame) {
    dc.AcknowledgeAction(DegradeAction::kDropFrame, 0);
    ++drops;
    ASSERT_LT(drops, 100);
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(dc.SmoothedLatenessNs(), 20 * kMs);
  EXPECT_EQ(dc.stats().drops_taken, drops);
}

TEST(DegradationTest, PauseResetsPressure) {
  DegradationController dc;
  for (int i = 0; i < 10; ++i) dc.ReportLateness(400 * kMs);
  ASSERT_EQ(dc.Recommend(0), DegradeAction::kPause);
  dc.AcknowledgeAction(DegradeAction::kPause, 0);
  // The pause re-anchored the epoch: pre-pause lateness no longer describes
  // the stream, and no second pause fires without fresh evidence.
  EXPECT_EQ(dc.SmoothedLatenessNs(), 0);
  EXPECT_EQ(dc.Recommend(1000 * kMs), DegradeAction::kNone);
  EXPECT_EQ(dc.stats().pauses_taken, 1);
}

TEST(DegradationTest, ConsecutiveFaultsRecommendAbort) {
  DegradationPolicy policy;
  policy.max_consecutive_faults = 3;
  DegradationController dc(policy);
  dc.ReportFault(0);
  dc.ReportFault(1);
  EXPECT_NE(dc.Recommend(2), DegradeAction::kAbort);
  // A recovery resets the strike count...
  dc.ReportFaultRecovered();
  dc.ReportFault(3);
  dc.ReportFault(4);
  EXPECT_NE(dc.Recommend(5), DegradeAction::kAbort);
  // ...but three unbroken strikes abandon the stream.
  dc.ReportFault(6);
  EXPECT_EQ(dc.Recommend(7), DegradeAction::kAbort);
  EXPECT_EQ(dc.ConsecutiveFaults(), 3);
}

TEST(DegradationTest, ShedCorrectedMissRateAbortsStream) {
  // Regression companion to StreamStatsTest.ShedElementsCountAsMisses: the
  // ladder must read the *corrected* signal. A stream presenting a trickle
  // of on-time frames while shedding the rest is dead, not healthy.
  DegradationPolicy policy;
  policy.miss_rate_min_elements = 20;
  DegradationController dc(policy);
  StreamStats stats;
  dc.AttachStreamStats(&stats);
  // 1 presented on time, 18 shed: 19 accounted, below the warm-up floor.
  stats.Record(0, 0, 1);
  stats.RecordSkipped(18);
  EXPECT_NE(dc.Recommend(0), DegradeAction::kAbort);
  // One more shed element crosses the floor with MissRate 19/20 >= 0.95.
  stats.RecordSkipped();
  EXPECT_EQ(dc.Recommend(0), DegradeAction::kAbort);
  // A destroyed sink detaches its stats; the rung disarms.
  dc.DetachStreamStats(&stats);
  EXPECT_NE(dc.Recommend(0), DegradeAction::kAbort);
}

TEST(DegradationTest, DropAckFeedsAttachedStreamStats) {
  DegradationController dc;
  StreamStats stats;
  dc.AttachStreamStats(&stats);
  dc.ReportLateness(30 * kMs);
  ASSERT_EQ(dc.Recommend(0), DegradeAction::kDropFrame);
  dc.AcknowledgeAction(DegradeAction::kDropFrame, 0);
  EXPECT_EQ(stats.elements_skipped, 1);
  EXPECT_EQ(dc.stats().drops_taken, 1);
}

TEST(DegradationTest, BindObservabilityCountsActionsAndFaults) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  DegradationController dc;
  dc.BindObservability(&registry, &tracer, "video1");
  dc.ReportFault(5);
  dc.AcknowledgeAction(DegradeAction::kDropFrame, 10);
  EXPECT_EQ(registry.GetCounter("avdb_sched_degrade_faults_total")->Value(),
            1);
  EXPECT_EQ(registry.GetCounter("avdb_sched_degrade_drops_total")->Value(), 1);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "fault");
  EXPECT_EQ(events[0].t_ns, 5);
  EXPECT_EQ(events[1].name, "degrade");
  EXPECT_EQ(events[1].actor, "video1");
  EXPECT_EQ(events[1].detail, "drop-frame");
}

TEST(DegradationTest, RecoveryRaisesQualityTowardNominal) {
  DegradationController dc;
  dc.ReportLateness(100 * kMs);
  ASSERT_EQ(dc.Recommend(0), DegradeAction::kLowerQuality);
  dc.AcknowledgeAction(DegradeAction::kLowerQuality, 0);
  // Pressure subsides below the recovery threshold; once the dwell opens,
  // quality steps back up, and only as far as nominal.
  for (int i = 0; i < 30; ++i) dc.ReportLateness(0);
  ASSERT_LE(dc.SmoothedLatenessNs(), 5 * kMs);
  EXPECT_EQ(dc.Recommend(100 * kMs), DegradeAction::kNone);  // dwell armed
  EXPECT_EQ(dc.Recommend(600 * kMs), DegradeAction::kRaiseQuality);
  dc.AcknowledgeAction(DegradeAction::kRaiseQuality, 600 * kMs);
  EXPECT_EQ(dc.StepsBelowNominal(), 0);
  EXPECT_EQ(dc.Recommend(1200 * kMs), DegradeAction::kNone);
  EXPECT_EQ(dc.stats().lowers_taken, 1);
  EXPECT_EQ(dc.stats().raises_taken, 1);
}

TEST(SyncControllerTest, RemoveTrackPromotesNewMaster) {
  SyncController sync;
  ASSERT_TRUE(sync.AddTrack("audio", /*master=*/true).ok());
  ASSERT_TRUE(sync.AddTrack("video").ok());
  EXPECT_EQ(sync.RemoveTrack("nope").code(), StatusCode::kNotFound);
  // The master's stream aborted under persistent faults: the survivor is
  // promoted so RecommendSkip keeps a reference point.
  ASSERT_TRUE(sync.RemoveTrack("audio").ok());
  EXPECT_FALSE(sync.HasTrack("audio"));
  ASSERT_TRUE(sync.Report("video", 0, 0).ok());
  EXPECT_EQ(sync.RecommendSkip("video", 33 * kMs).value(), 0);  // master now
  ASSERT_TRUE(sync.RemoveTrack("video").ok());
  EXPECT_EQ(sync.Report("video", 0, 0).code(), StatusCode::kNotFound);
}

TEST(JitterTest, StatsTrackSamplesAndSpikes) {
  JitterModel::Params p;
  p.spike_probability = 1.0;
  p.spike_ns = 5 * kMs;
  JitterModel jm(p, 3);
  for (int i = 0; i < 10; ++i) jm.Sample();
  EXPECT_EQ(jm.stats().samples, 10);
  EXPECT_EQ(jm.stats().spikes, 10);
  EXPECT_GE(jm.stats().max_ns, 5 * kMs);
  EXPECT_GE(jm.stats().total_ns, 50 * kMs);
}

}  // namespace
}  // namespace avdb
