#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/fault_injector.h"
#include "base/rng.h"
#include "cluster/node.h"
#include "cluster/replica_set.h"
#include "cluster/replicated_store.h"
#include "cluster/stream_router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/block_device.h"
#include "storage/buffer_cache.h"
#include "storage/media_store.h"
#include "time/virtual_clock.h"

namespace avdb {
namespace {

constexpr int64_t kMs = 1000 * 1000;
constexpr int64_t kSecond = 1000 * kMs;
constexpr int64_t kBlobBytes = 100 * 1000;

Buffer MakeBlob(size_t size, uint8_t seed = 7) {
  Buffer b;
  for (size_t i = 0; i < size; ++i) {
    b.AppendU8(static_cast<uint8_t>(seed + i * 31));
  }
  return b;
}

ServerNodePtr MakeReplica(const std::string& name,
                          DeviceProfile profile = DeviceProfile::MagneticDisk(),
                          size_t blob_bytes = kBlobBytes) {
  auto dev = std::make_shared<BlockDevice>(name + ".dev", profile);
  auto store = std::make_shared<MediaStore>(dev, nullptr);
  EXPECT_TRUE(store->Put("clip", MakeBlob(blob_bytes)).ok());
  return std::make_shared<ServerNode>(name, store);
}

/// Manually advanced virtual clock for router tests: stepping far between
/// fetches keeps every replica's device arm idle, so latencies are pure
/// service time.
struct ManualClock {
  int64_t now_ns = 0;
  std::function<int64_t()> fn() {
    return [this] { return now_ns; };
  }
  void Step(int64_t ns = kSecond) { now_ns += ns; }
};

// ---------------------------------------------------------- ReplicaHealth --

TEST(ReplicaHealthTest, OpensAfterConsecutiveFailuresAndCoolsDown) {
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_cooldown_ns = 100 * kMs;
  ReplicaHealth health(policy);

  EXPECT_EQ(health.State(0), ReplicaHealth::BreakerState::kClosed);
  EXPECT_FALSE(health.RecordFailure(0));
  EXPECT_FALSE(health.RecordFailure(0));
  EXPECT_EQ(health.State(0), ReplicaHealth::BreakerState::kClosed);
  // Third consecutive failure opens the breaker (reported exactly once).
  EXPECT_TRUE(health.RecordFailure(0));
  EXPECT_EQ(health.State(0), ReplicaHealth::BreakerState::kOpen);
  EXPECT_FALSE(health.CanAdmit(50 * kMs));
  // Cooldown elapsed: half-open, one probe admitted.
  EXPECT_EQ(health.State(100 * kMs), ReplicaHealth::BreakerState::kHalfOpen);
  EXPECT_TRUE(health.CanAdmit(100 * kMs));
}

TEST(ReplicaHealthTest, HalfOpenProbeSuccessClosesFailureReopens) {
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_cooldown_ns = 100 * kMs;

  {
    ReplicaHealth health(policy);
    ASSERT_TRUE(health.RecordFailure(0));
    health.Admit(100 * kMs);  // half-open probe goes out
    // The probe slot is taken: a concurrent request is refused.
    EXPECT_FALSE(health.CanAdmit(101 * kMs));
    health.RecordSuccess(5 * kMs);
    EXPECT_EQ(health.State(101 * kMs), ReplicaHealth::BreakerState::kClosed);
    EXPECT_EQ(health.consecutive_failures(), 0);
  }
  {
    ReplicaHealth health(policy);
    ASSERT_TRUE(health.RecordFailure(0));
    health.Admit(100 * kMs);
    // Failed probe re-opens for a full cooldown (a fresh open transition).
    EXPECT_TRUE(health.RecordFailure(105 * kMs));
    EXPECT_EQ(health.State(150 * kMs), ReplicaHealth::BreakerState::kOpen);
    EXPECT_FALSE(health.CanAdmit(204 * kMs));
    EXPECT_TRUE(health.CanAdmit(205 * kMs + 1));
  }
}

TEST(ReplicaHealthTest, EwmaTracksLatency) {
  BreakerPolicy policy;
  policy.ewma_alpha = 0.5;
  policy.initial_latency_ns = 10 * kMs;
  ReplicaHealth health(policy);
  health.RecordSuccess(20 * kMs);
  EXPECT_EQ(health.ewma_latency_ns(), 15 * kMs);
  health.RecordSuccess(5 * kMs);
  EXPECT_EQ(health.ewma_latency_ns(), 10 * kMs);
}

TEST(ReplicaSetTest, PicksLowestEwmaAmongAdmissible) {
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  ReplicaSet set(policy);
  set.Add(MakeReplica("a"), nullptr);
  set.Add(MakeReplica("b"), nullptr);
  set.Add(MakeReplica("c"), nullptr);

  set.at(0).health.RecordSuccess(30 * kMs);
  set.at(1).health.RecordSuccess(2 * kMs);
  set.at(2).health.RecordSuccess(10 * kMs);
  EXPECT_EQ(set.Pick(0, 0), 1);
  // Excluding the best falls back to the next-best.
  EXPECT_EQ(set.Pick(0, 1u << 1), 2);
  // An open breaker removes a replica from selection.
  ASSERT_TRUE(set.at(1).health.RecordFailure(0));
  EXPECT_EQ(set.Pick(0, 0), 2);
  EXPECT_EQ(set.HealthyCount(0), 2);
}

// ------------------------------------------------------------- ServerNode --

TEST(ServerNodeTest, CrashRefusesFastPartitionBurnsBudget) {
  auto crash_node = MakeReplica("crash");
  FaultInjector crash_injector(FaultSpec::NodeCrash(1), 11);
  crash_node->set_fault_injector(&crash_injector);

  DeadlineBudget budget = DeadlineBudget::FromNs(500 * kMs);
  int64_t latency = 0;
  auto read = crash_node->ServeRead("clip", 0, 1000, 0, &budget, &latency);
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(latency, ServerNode::kRefusalNs);
  // A refusal is cheap: nearly the whole budget survives for failover.
  EXPECT_EQ(budget.remaining_ns(), 500 * kMs - ServerNode::kRefusalNs);
  EXPECT_TRUE(crash_node->down());

  FaultSpec partition;
  partition.node_partition_rate = 1.0;
  partition.node_partition_ops = 100;
  auto part_node = MakeReplica("part");
  FaultInjector part_injector(partition, 11);
  part_node->set_fault_injector(&part_injector);

  DeadlineBudget part_budget = DeadlineBudget::FromNs(500 * kMs);
  auto timed_out =
      part_node->ServeRead("clip", 0, 1000, 0, &part_budget, &latency);
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  // A partition is the expensive failure: the entire budget is gone.
  EXPECT_EQ(latency, 500 * kMs);
  EXPECT_TRUE(part_budget.expired());

  // With no deadline the stall is the default timeout, not forever.
  DeadlineBudget unlimited;
  auto stalled =
      part_node->ServeRead("clip", 0, 1000, 0, &unlimited, &latency);
  EXPECT_EQ(stalled.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(latency, ServerNode::kDefaultPartitionStallNs);
}

TEST(ServerNodeTest, ReviveRestoresService) {
  auto node = MakeReplica("n");
  FaultInjector injector(FaultSpec::NodeCrash(1), 3);
  node->set_fault_injector(&injector);
  DeadlineBudget budget;
  int64_t latency = 0;
  EXPECT_FALSE(node->ServeRead("clip", 0, 1000, 0, &budget, &latency).ok());
  EXPECT_TRUE(node->down());
  EXPECT_TRUE(node->Revive().ok());
  EXPECT_TRUE(node->ServeRead("clip", 0, 1000, 0, &budget, &latency).ok());
  EXPECT_GT(latency, 0);
}

TEST(ServerNodeTest, RevivedStoreRefillsOnceThenServesUnhashedHits) {
  // Revive builds a fresh store over the same device and cache. Recovery
  // drops every cached page (it may predate the crash), so the first read
  // of a page the old store filled goes back to the device and is hashed;
  // after that the revived store's own fill is trusted like any other.
  auto dev =
      std::make_shared<BlockDevice>("n.dev", DeviceProfile::MagneticDisk());
  auto cache = std::make_shared<BufferCache>(8 * 1024 * 1024);
  auto store = std::make_shared<MediaStore>(dev, cache);
  ASSERT_TRUE(store->Mount().ok());
  ASSERT_TRUE(store->Put("clip", MakeBlob(kBlobBytes)).ok());
  auto node = std::make_shared<ServerNode>("n", store);
  auto before = node->store().ReadRange("clip", 100, 512);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before.value().duration, WorldTime());
  ASSERT_TRUE(node->Revive().ok());
  ASSERT_NE(&node->store(), store.get());
  EXPECT_EQ(node->store().buffer_cache(), cache);
  EXPECT_EQ(cache->used_bytes(), 0);
  for (int i = 0; i < 3; ++i) {
    auto read = node->store().ReadRange("clip", 100, 512);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, before.value().data);
    EXPECT_EQ(read.value().duration == WorldTime(), i > 0) << "read " << i;
    EXPECT_EQ(node->store().stats().pages_verified, 1) << "read " << i;
  }
}

// ------------------------------------------------------------ StreamRouter --

RouterPolicy TestPolicy() {
  RouterPolicy policy;
  policy.max_attempts = 3;
  return policy;
}

/// An empty replica set whose breakers open after 3 consecutive failures
/// and cool down for 200 ms.
std::shared_ptr<ReplicaSet> TestSet() {
  BreakerPolicy breaker;
  breaker.failure_threshold = 3;
  breaker.open_cooldown_ns = 200 * kMs;
  return std::make_shared<ReplicaSet>(breaker);
}

/// TestSet() holding `servers`, all co-located.
std::shared_ptr<ReplicaSet> CoLocated(
    std::initializer_list<ServerNodePtr> servers) {
  auto set = TestSet();
  for (const ServerNodePtr& server : servers) set->Add(server, nullptr);
  return set;
}

TEST(StreamRouterTest, SingleCoLocatedReplicaMatchesDirectStoreReads) {
  // Two byte-identical replicas: one read directly, one through the
  // router with no link. Routed reads must cost and return exactly what
  // direct reads do — the "replication off changes nothing" guarantee.
  auto direct = MakeReplica("direct");
  auto routed = MakeReplica("routed");
  ManualClock clock;
  StreamRouter router("router", TestPolicy(), clock.fn(), CoLocated({routed}));

  for (int64_t offset : {int64_t{0}, int64_t{4096}, int64_t{65536}}) {
    clock.Step();
    auto want = direct->store().ReadRange("clip", offset, 4096);
    auto got = router.Fetch("clip", offset, 4096, kSecond);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    // Durations must agree at engine granularity (the pipeline consumes
    // them via ToNs); the exact rationals may differ in representation.
    EXPECT_EQ(VirtualClock::ToNs(got.value().duration),
              VirtualClock::ToNs(want.value().duration));
    EXPECT_EQ(got.value().retries, want.value().retries);
    ASSERT_EQ(got.value().data.size(), want.value().data.size());
    EXPECT_EQ(0, std::memcmp(got.value().data.data(),
                             want.value().data.data(),
                             want.value().data.size()));
  }
  EXPECT_EQ(router.stats().fetches, 3);
  EXPECT_EQ(router.stats().failovers, 0);
  EXPECT_EQ(router.stats().hedges, 0);
}

TEST(StreamRouterTest, FailsOverOnNodeCrashAndOpensBreaker) {
  auto a = MakeReplica("a");
  auto b = MakeReplica("b");
  FaultInjector crash(FaultSpec::NodeCrash(1), 17);
  a->set_fault_injector(&crash);

  ManualClock clock;
  StreamRouter router("router", TestPolicy(), clock.fn(), CoLocated({a, b}));

  // Every fetch succeeds despite the dead node: the router fails over to
  // the healthy replica each time until a's breaker opens, then routes to
  // b directly.
  for (int i = 0; i < 6; ++i) {
    clock.Step();
    auto read = router.Fetch("clip", 0, 4096, kSecond);
    ASSERT_TRUE(read.ok()) << "fetch " << i;
  }
  EXPECT_GE(router.stats().failovers, 3);
  EXPECT_GE(router.stats().breaker_opens, 1);
  EXPECT_EQ(router.stats().exhausted, 0);
  EXPECT_GT(a->stats().refused, 0);
  EXPECT_EQ(b->stats().served, 6);
}

TEST(StreamRouterTest, HedgesSlowPrimaryAndCountsWins) {
  // Replica a is much faster (RAM disk) so it wins selection; replica b is
  // the hedge target. After the latency window arms, a struggling a (slow
  // factor applied node-side) pushes the primary latency past the p95
  // hedge delay, and b's clean read wins the race.
  auto a = MakeReplica("a", DeviceProfile::RamDisk());
  auto b = MakeReplica("b");
  ManualClock clock;
  RouterPolicy policy = TestPolicy();
  policy.min_hedge_samples = 4;
  StreamRouter router("router", policy, clock.fn(), CoLocated({a, b}));

  for (int i = 0; i < 8; ++i) {
    clock.Step();
    ASSERT_TRUE(router.Fetch("clip", 0, 65536, kSecond).ok());
  }
  ASSERT_EQ(router.stats().hedges, 0);
  ASSERT_GT(router.HedgeDelayNs(), 0);

  FaultSpec slow;
  slow.node_slow_rate = 1.0;
  slow.node_slow_factor = 1000.0;
  FaultInjector slow_injector(slow, 23);
  a->set_fault_injector(&slow_injector);

  clock.Step();
  auto read = router.Fetch("clip", 0, 65536, 10 * kSecond);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(router.stats().hedges, 1);
  EXPECT_EQ(router.stats().hedge_wins, 1);
  EXPECT_EQ(b->stats().served, 1);
  // The winner's latency (hedge delay + b's read), not a's slow read, is
  // what the client pays.
  EXPECT_LT(VirtualClock::ToNs(read.value().duration),
            a->stats().busy_ns);
}

TEST(StreamRouterTest, HedgeDelayIsP95OfTheLast128AttemptLatencies) {
  // One co-located replica, so each fetch's duration is the one attempt
  // latency the router records and no hedge is ever possible. The cache
  // holds a quarter of the blob: a read misses (device time) or hits (0 ns,
  // unless it queues behind a miss on the device arm), so the window holds
  // many ties. While the reads stay on two pages the p95 falls to 0 and the
  // 1 ms floor applies; 320 fetches wrap the ring twice.
  constexpr int64_t kPage = MediaStore::kCachePageBytes;
  constexpr int64_t kPages = 16;
  constexpr size_t kWindow = 128;
  auto dev =
      std::make_shared<BlockDevice>("n.dev", DeviceProfile::MagneticDisk());
  auto cache = std::make_shared<BufferCache>(4 * kPage);
  auto store = std::make_shared<MediaStore>(dev, cache);
  ASSERT_TRUE(store->Put("clip", MakeBlob(kPages * kPage)).ok());
  auto node = std::make_shared<ServerNode>("n", store);
  ManualClock clock;
  const RouterPolicy policy = TestPolicy();
  StreamRouter router("router", policy, clock.fn(), CoLocated({node}));

  Rng rng(5);
  std::vector<int64_t> latencies;
  int zeros = 0;
  int floored = 0;
  for (int i = 0; i < 320; ++i) {
    int64_t want = 0;
    if (latencies.size() >= static_cast<size_t>(policy.min_hedge_samples)) {
      std::vector<int64_t> window(
          latencies.end() -
              static_cast<int64_t>(std::min(latencies.size(), kWindow)),
          latencies.end());
      std::sort(window.begin(), window.end());
      const int64_t p95 =
          window[std::min(window.size() * 95 / 100, window.size() - 1)];
      if (p95 < kMs) ++floored;
      want = std::max(p95, kMs);
    }
    ASSERT_EQ(router.HedgeDelayNs(), want) << "before fetch " << i;
    const int64_t span = (i < 100 ? 2 : kPages) * kPage - 4096;
    const int64_t offset =
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(span)));
    clock.Step(rng.NextInRange(1, 50) * kMs);
    auto read = router.Fetch("clip", offset, 4096, 10 * kSecond);
    ASSERT_TRUE(read.ok()) << "fetch " << i;
    latencies.push_back(VirtualClock::ToNs(read.value().duration));
    if (latencies.back() == 0) ++zeros;
  }
  EXPECT_GT(zeros, 50);
  EXPECT_LT(zeros, 250);
  EXPECT_GT(floored, 0);
  EXPECT_EQ(router.stats().hedges, 0);
}

TEST(StreamRouterTest, SpentBudgetFailsFastWithoutTouchingReplicas) {
  auto a = MakeReplica("a");
  ManualClock clock;
  StreamRouter router("router", TestPolicy(), clock.fn(), CoLocated({a}));

  auto read = router.Fetch("clip", 0, 4096, 0);
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(router.stats().deadline_fast_fails, 1);
  EXPECT_EQ(a->stats().requests, 0);
}

TEST(StreamRouterTest, PartitionBurnsBudgetBeforeFailoverCanHappen) {
  // A partitioned primary eats the whole budget, so the router must give
  // up mid-failover — the failure mode that motivates deadline
  // propagation. A crashed primary (fast refusal) leaves enough budget to
  // fail over and succeed with the *same* deadline.
  FaultSpec partition;
  partition.node_partition_rate = 1.0;
  partition.node_partition_ops = 100;

  {
    auto a = MakeReplica("a", DeviceProfile::RamDisk());
    auto b = MakeReplica("b");
    FaultInjector part_injector(partition, 29);
    a->set_fault_injector(&part_injector);
    ManualClock clock;
    StreamRouter router("router", TestPolicy(), clock.fn(), CoLocated({a, b}));
    clock.Step();
    auto read = router.Fetch("clip", 0, 4096, 200 * kMs);
    EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(router.stats().deadline_give_ups, 1);
    EXPECT_EQ(b->stats().requests, 0);
  }
  {
    auto a = MakeReplica("a", DeviceProfile::RamDisk());
    auto b = MakeReplica("b");
    FaultInjector crash_injector(FaultSpec::NodeCrash(1), 29);
    a->set_fault_injector(&crash_injector);
    ManualClock clock;
    StreamRouter router("router", TestPolicy(), clock.fn(), CoLocated({a, b}));
    clock.Step();
    auto read = router.Fetch("clip", 0, 4096, 200 * kMs);
    EXPECT_TRUE(read.ok());
    EXPECT_EQ(router.stats().failovers, 1);
  }
}

TEST(StreamRouterTest, AllBreakersOpenIsNamedAsTheCause) {
  // Both replicas are down and each breaker opens at its first failure, so
  // the second and third fetch find no replica admitting traffic. The error
  // names that cause instead of claiming the set is empty.
  BreakerPolicy breaker;
  breaker.failure_threshold = 1;
  auto set = std::make_shared<ReplicaSet>(breaker);
  auto a = MakeReplica("a");
  auto b = MakeReplica("b");
  FaultInjector crash_a(FaultSpec::NodeCrash(1), 3);
  FaultInjector crash_b(FaultSpec::NodeCrash(1), 4);
  a->set_fault_injector(&crash_a);
  b->set_fault_injector(&crash_b);
  set->Add(a, nullptr);
  set->Add(b, nullptr);
  ManualClock clock;
  StreamRouter router("router", TestPolicy(), clock.fn(), set);

  auto first = router.Fetch("clip", 0, 4096, kSecond);
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  for (int fetch = 2; fetch <= 3; ++fetch) {
    clock.Step(kMs);
    auto refused = router.Fetch("clip", 0, 4096, kSecond);
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(refused.status().message().find("no replicas configured"),
              std::string::npos)
        << "fetch " << fetch;
    EXPECT_NE(refused.status().message().find("breakers open"),
              std::string::npos)
        << "fetch " << fetch << ": " << refused.status().message();
  }
  EXPECT_EQ(a->stats().requests + b->stats().requests, 2);

  // An empty set still says so.
  StreamRouter empty("empty", TestPolicy(), clock.fn(),
                     std::make_shared<ReplicaSet>(breaker));
  EXPECT_EQ(empty.Fetch("clip", 0, 4096, kSecond).status().message(),
            "no replicas configured");
}

TEST(StreamRouterTest, LinkedFetchPaysTransferCostAndHonorsDeadline) {
  auto a = MakeReplica("a");
  auto direct = MakeReplica("direct");
  auto link = std::make_shared<Channel>("client-a", Channel::Profile::T1());

  ManualClock clock;
  auto replicas = TestSet();
  replicas->Add(a, link);
  StreamRouter router("router", TestPolicy(), clock.fn(), replicas);

  // Generous budget: the fetch succeeds but costs strictly more than the
  // bare store read — the link's serialization and propagation are real.
  clock.Step();
  auto routed = router.Fetch("clip", 0, 65536, 10 * kSecond);
  auto bare = direct->store().ReadRange("clip", 0, 65536);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(bare.ok());
  EXPECT_GT(VirtualClock::ToNs(routed.value().duration),
            VirtualClock::ToNs(bare.value().duration));

  // Tight budget: 64 KiB over a T1 needs ~340 ms; a 50 ms budget cannot
  // fit, so the response transfer is cancelled before serializing and the
  // doomed bytes never occupy the link.
  clock.Step();
  const int64_t transfers_before = link->stats().transfers;
  auto doomed = router.Fetch("clip", 0, 65536, 50 * kMs);
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(link->stats().deadline_cancelled, 1);
  // Only the small request message went out; the 64 KiB response did not.
  EXPECT_EQ(link->stats().transfers, transfers_before + 1);
}

TEST(StreamRouterTest, FaultTraceIsDeterministic) {
  // Two runs of the same fault-heavy scenario with equal seeds must agree
  // on every outcome and every stat — the replay property all robustness
  // tooling rests on.
  auto run = [](std::vector<std::pair<bool, int64_t>>* outcomes,
                StreamRouter::Stats* stats) {
    FaultSpec faulty;
    faulty.node_partition_rate = 0.15;
    faulty.node_partition_ops = 2;
    faulty.node_slow_rate = 0.2;
    faulty.node_slow_factor = 4.0;

    auto a = MakeReplica("a");
    auto b = MakeReplica("b");
    FaultInjector ia(faulty, 101);
    FaultInjector ib(faulty, 202);
    a->set_fault_injector(&ia);
    b->set_fault_injector(&ib);
    ManualClock clock;
    StreamRouter router("router", TestPolicy(), clock.fn(), CoLocated({a, b}));
    for (int i = 0; i < 40; ++i) {
      clock.Step();
      auto read = router.Fetch("clip", (i % 20) * 4096, 4096, 300 * kMs);
      outcomes->emplace_back(
          read.ok(),
          read.ok() ? VirtualClock::ToNs(read.value().duration) : 0);
    }
    *stats = router.stats();
  };

  std::vector<std::pair<bool, int64_t>> first, second;
  StreamRouter::Stats s1, s2;
  run(&first, &s1);
  run(&second, &s2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(s1.fetches, s2.fetches);
  EXPECT_EQ(s1.failovers, s2.failovers);
  EXPECT_EQ(s1.hedges, s2.hedges);
  EXPECT_EQ(s1.hedge_wins, s2.hedge_wins);
  EXPECT_EQ(s1.breaker_opens, s2.breaker_opens);
  EXPECT_EQ(s1.deadline_give_ups, s2.deadline_give_ups);
}

TEST(StreamRouterTest, BindsClusterMetrics) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer(256);
  auto a = MakeReplica("a");
  auto b = MakeReplica("b");
  FaultInjector crash(FaultSpec::NodeCrash(1), 7);
  a->set_fault_injector(&crash);
  ManualClock clock;
  StreamRouter router("router", TestPolicy(), clock.fn(), CoLocated({a, b}));
  router.BindObservability(&registry, &tracer);

  clock.Step();
  ASSERT_TRUE(router.Fetch("clip", 0, 4096, kSecond).ok());
  EXPECT_EQ(registry.GetCounter("avdb_cluster_fetches_total")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("avdb_cluster_failovers_total")->Value(), 1);
  bool saw_failover_event = false;
  for (const auto& event : tracer.Events()) {
    if (event.name == "failover") saw_failover_event = true;
  }
  EXPECT_TRUE(saw_failover_event);
}

// --------------------------------------------------------- ReplicatedStore --

/// Replication policy for the quorum/repair tests: tight retries so a dead
/// replica is given up on quickly, jittered so concurrent writers
/// desynchronize.
ReplicationPolicy ReplPolicy() {
  ReplicationPolicy policy;
  policy.retry.max_attempts = 2;
  policy.retry.initial_backoff_ns = kMs;
  policy.retry.jitter_seed = 17;
  policy.router.max_attempts = 4;
  return policy;
}

/// N co-located replicas over mounted (journaled) stores, one shared
/// ReplicaSet, and the quorum front-end — the self-healing cluster in a
/// box. Injectors attach per node via Inject().
struct TestCluster {
  ManualClock clock;
  std::shared_ptr<ReplicaSet> set;
  std::vector<ServerNodePtr> nodes;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::unique_ptr<ReplicatedStore> store;

  explicit TestCluster(int n, ReplicationPolicy policy = ReplPolicy()) {
    BreakerPolicy breaker;
    breaker.failure_threshold = 2;
    breaker.open_cooldown_ns = 200 * kMs;
    set = std::make_shared<ReplicaSet>(breaker);
    for (int i = 0; i < n; ++i) {
      auto dev = std::make_shared<BlockDevice>(
          "n" + std::to_string(i) + ".dev", DeviceProfile::MagneticDisk());
      auto media = std::make_shared<MediaStore>(dev, nullptr);
      EXPECT_TRUE(media->Mount().ok());
      auto node =
          std::make_shared<ServerNode>("n" + std::to_string(i), media);
      set->Add(node, nullptr);
      nodes.push_back(std::move(node));
    }
    store = std::make_unique<ReplicatedStore>("rs", policy, clock.fn(), set);
  }

  FaultInjector* Inject(int idx, const FaultSpec& spec, uint64_t seed) {
    injectors.push_back(std::make_unique<FaultInjector>(spec, seed));
    nodes[static_cast<size_t>(idx)]->set_fault_injector(
        injectors.back().get());
    return injectors.back().get();
  }
};

/// Flips one media byte inside `page` of `blob` directly on the device,
/// bypassing the store — simulated bit rot.
void CorruptPage(MediaStore& store, const std::string& blob, int64_t page) {
  auto entry = store.Lookup(blob);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(entry.value()->extents.size(), 1u);
  const Extent& extent = entry.value()->extents[0];
  const int64_t at = extent.offset + page * MediaStore::kCachePageBytes + 10;
  Buffer current;
  ASSERT_TRUE(store.device_ptr()->Read(extent.disc, at, 1, &current).ok());
  Buffer flipped(1, static_cast<uint8_t>(~current.data()[0]));
  ASSERT_TRUE(store.device_ptr()->Write(extent.disc, at, flipped).ok());
}

TEST(ReplicaSetTest, HalfOpenProbeIsSingleFlightAcrossSessions) {
  // Thundering-herd regression: two sessions share one ReplicaSet. While
  // session A's half-open probe is still in flight, session B must not be
  // admitted to the recovering node — even after a second full cooldown
  // elapses (a partition-stalled probe can outlive many cooldowns).
  BreakerPolicy breaker;
  breaker.failure_threshold = 3;
  breaker.open_cooldown_ns = 200 * kMs;
  auto set = std::make_shared<ReplicaSet>(breaker);
  auto sick = MakeReplica("sick");
  auto healthy = MakeReplica("healthy");
  set->Add(sick, nullptr);
  set->Add(healthy, nullptr);
  ManualClock clock;
  StreamRouter session_a("a", TestPolicy(), clock.fn(), set);
  StreamRouter session_b("b", TestPolicy(), clock.fn(), set);

  ReplicaHealth& health = set->at(0).health;
  for (int i = 0; i < 3; ++i) (void)health.RecordFailure(clock.now_ns);
  EXPECT_EQ(health.State(clock.now_ns), ReplicaHealth::BreakerState::kOpen);

  // Cooldown elapses; session A dispatches the single half-open probe.
  clock.Step(250 * kMs);
  ASSERT_TRUE(health.CanAdmit(clock.now_ns));
  health.Admit(clock.now_ns);
  EXPECT_TRUE(health.probe_in_flight());

  // Another full cooldown passes with A's probe still out. B must be
  // refused at the sick node and served entirely by the healthy one.
  clock.Step(250 * kMs);
  EXPECT_FALSE(health.CanAdmit(clock.now_ns));
  EXPECT_EQ(set->Pick(clock.now_ns, 0), 1);
  const int64_t sick_requests = sick->stats().requests;
  auto read = session_b.Fetch("clip", 0, 1000, kSecond);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(sick->stats().requests, sick_requests);

  // A's probe finally fails: the breaker re-opens (reported once) and the
  // probe slot frees for the next cooldown.
  EXPECT_TRUE(health.RecordFailure(clock.now_ns));
  EXPECT_FALSE(health.probe_in_flight());
  EXPECT_EQ(health.State(clock.now_ns), ReplicaHealth::BreakerState::kOpen);
  EXPECT_EQ(session_a.stats().fetches, 0);  // A never completed a fetch
}

TEST(ReplicatedStoreTest, QuorumPutReplicatesToAllAndReadsBack) {
  TestCluster c(3);
  const Buffer data = MakeBlob(20000);
  auto put = c.store->Put("clip", data, kSecond);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().acks, 3);
  EXPECT_EQ(put.value().hinted, 0);
  EXPECT_GT(VirtualClock::ToNs(put.value().duration), 0);
  for (const auto& node : c.nodes) {
    EXPECT_TRUE(node->store().Contains("clip"));
    EXPECT_EQ(node->stats().writes_served, 1);
  }
  c.clock.Step();
  auto read =
      c.store->Read("clip", 0, static_cast<int64_t>(data.size()), kSecond);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, QuorumDeleteTreatsAbsenceAsAck) {
  TestCluster c(3);
  ASSERT_TRUE(c.store->Put("clip", MakeBlob(9000), kSecond).ok());
  c.clock.Step();
  auto del = c.store->Delete("clip", kSecond);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().acks, 3);
  for (const auto& node : c.nodes) {
    EXPECT_FALSE(node->store().Contains("clip"));
  }
  // Deleting an absent blob: the desired end state already holds
  // everywhere, so the quorum still acks.
  c.clock.Step();
  auto again = c.store->Delete("clip", kSecond);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().acks, 3);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, CrashedReplicaGetsHintAndCatchesUpOnRevive) {
  TestCluster c(3);
  c.Inject(0, FaultSpec::NodeCrash(1), 5);
  const Buffer data = MakeBlob(16000);
  auto put = c.store->Put("clip", data, kSecond);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().acks, 2);
  EXPECT_EQ(put.value().hinted, 1);
  EXPECT_TRUE(c.nodes[0]->down());
  EXPECT_EQ(c.store->HintCount(0), 1);
  EXPECT_FALSE(c.store->Converged());

  // Reads keep working off the survivors while node0 is dead.
  c.clock.Step();
  auto read = c.store->Read("clip", 0, 16000, kSecond);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, data);

  c.clock.Step();
  ASSERT_TRUE(c.store->ReviveReplica(0).ok());
  EXPECT_EQ(c.store->HintCount(0), 0);
  EXPECT_EQ(c.store->stats().hints_replayed, 1);
  EXPECT_EQ(c.nodes[0]->stats().revives, 1);
  EXPECT_EQ(c.nodes[0]->store().Get("clip").value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, QuorumFailureLeavesAckedCopiesForResync) {
  TestCluster c(3);
  c.Inject(1, FaultSpec::NodeCrash(1), 6);
  c.Inject(2, FaultSpec::NodeCrash(1), 7);
  const Buffer data = MakeBlob(12000);
  auto put = c.store->Put("clip", data, kSecond);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(c.store->stats().quorum_failures, 1);
  // No rollback: the lone acked copy stays, the dead replicas carry hints,
  // and revival converges everyone onto the write.
  EXPECT_TRUE(c.nodes[0]->store().Contains("clip"));
  EXPECT_EQ(c.store->HintCount(1), 1);
  EXPECT_EQ(c.store->HintCount(2), 1);

  ASSERT_TRUE(c.store->ReviveReplica(1).ok());
  ASSERT_TRUE(c.store->ReviveReplica(2).ok());
  EXPECT_EQ(c.nodes[2]->store().Get("clip").value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, RoutedReadRepairsCorruptPageInLine) {
  TestCluster c(3);
  const int64_t kPage = MediaStore::kCachePageBytes;
  const Buffer data = MakeBlob(static_cast<size_t>(3 * kPage));
  ASSERT_TRUE(c.store->Put("clip", data, 10 * kSecond).ok());
  CorruptPage(c.nodes[0]->store(), "clip", 1);

  // The routed read hits the rotted replica first (EWMA tie breaks to the
  // lowest index), detects the DataLoss, streams the one bad page from a
  // healthy peer, rewrites through the journaled repair path, and retries
  // the healed replica in-line — the caller never sees the fault.
  c.clock.Step();
  auto read = c.store->Read("clip", 0, 3 * kPage, 10 * kSecond);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, data);
  EXPECT_EQ(c.store->router().stats().read_repairs, 1);
  EXPECT_EQ(c.store->stats().repairs, 1);
  EXPECT_EQ(c.store->stats().repair_pages_streamed, 1);  // 2 of 3 salvaged
  EXPECT_EQ(c.nodes[0]->stats().repairs_applied, 1);
  EXPECT_EQ(c.nodes[0]->store().Get("clip").value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, ScrubQuarantineIsTransient) {
  TestCluster c(3);
  const int64_t kPage = MediaStore::kCachePageBytes;
  const Buffer data = MakeBlob(static_cast<size_t>(2 * kPage));
  ASSERT_TRUE(c.store->Put("clip", data, 10 * kSecond).ok());
  CorruptPage(c.nodes[0]->store(), "clip", 0);

  c.clock.Step();
  auto healed = c.store->RepairQuarantined(0);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value(), 1);
  auto entry = c.nodes[0]->store().Lookup("clip");
  ASSERT_TRUE(entry.ok());
  EXPECT_FALSE(entry.value()->quarantined);
  EXPECT_EQ(c.nodes[0]->store().Get("clip").value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, AntiEntropyConvergesRevivedNodeWithoutHints) {
  // Hint cap 0 drops every hint, so convergence must come purely from the
  // digest-diff resync — the path a long-dead node with an overflowed
  // hint queue exercises.
  ReplicationPolicy policy = ReplPolicy();
  policy.max_hints_per_replica = 0;
  TestCluster c(3, policy);
  c.Inject(0, FaultSpec::NodeCrash(1), 9);

  Buffer blobs[3];
  for (int i = 0; i < 3; ++i) {
    blobs[i] = MakeBlob(static_cast<size_t>(14000 + 100 * i),
                        static_cast<uint8_t>(i + 1));
    c.clock.Step();
    ASSERT_TRUE(
        c.store->Put("b" + std::to_string(i), blobs[i], kSecond).ok());
  }
  c.clock.Step();
  ASSERT_TRUE(c.store->Put("gone", MakeBlob(5000), kSecond).ok());
  c.clock.Step();
  ASSERT_TRUE(c.store->Delete("gone", kSecond).ok());
  EXPECT_EQ(c.store->HintCount(0), 0);
  EXPECT_GT(c.store->stats().hint_overflow, 0);

  ASSERT_TRUE(c.nodes[0]->Revive().ok());
  // A stray blob only node0 holds (say, half of a torn repair): the
  // majority-absent vote must remove it.
  int64_t latency = 0;
  ASSERT_TRUE(
      c.nodes[0]->ApplyRepair("stray", MakeBlob(3000), c.clock.now_ns,
                              &latency).ok());

  c.clock.Step();
  auto round = c.store->RunAntiEntropy();
  EXPECT_EQ(round.blobs_compared, 4);  // b0 b1 b2 stray; "gone" is gone
  EXPECT_EQ(round.blobs_streamed, 3);
  EXPECT_GT(round.pages_streamed, 0);
  EXPECT_EQ(round.deletes_applied, 1);
  EXPECT_EQ(round.unrepairable, 0);
  EXPECT_TRUE(round.converged);
  EXPECT_FALSE(c.nodes[0]->store().Contains("stray"));
  EXPECT_FALSE(c.nodes[0]->store().Contains("gone"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.nodes[0]->store().Get("b" + std::to_string(i)).value().data,
              blobs[i]);
  }

  // Idempotent: a second round over the converged cluster streams nothing
  // and the directory summaries are byte-identical.
  c.clock.Step();
  auto second = c.store->RunAntiEntropy();
  EXPECT_EQ(second.blobs_streamed, 0);
  EXPECT_EQ(second.deletes_applied, 0);
  EXPECT_TRUE(second.converged);
  auto s0 = c.store->ReplicaSummary(0);
  ASSERT_TRUE(s0.ok());
  EXPECT_TRUE(s0.value() == c.store->ReplicaSummary(1).value());
  EXPECT_TRUE(s0.value() == c.store->ReplicaSummary(2).value());
}

TEST(ReplicatedStoreTest, AntiEntropyTieKeepsData) {
  // One holder vs one absentee is a tie, and ties must keep data: an
  // acked W=1 write that reached half the live set survives and spreads.
  ReplicationPolicy policy = ReplPolicy();
  policy.write_quorum = 1;
  policy.max_hints_per_replica = 0;
  TestCluster c(2, policy);
  c.Inject(1, FaultSpec::NodeCrash(1), 4);
  const Buffer data = MakeBlob(8000);
  ASSERT_TRUE(c.store->Put("half", data, kSecond).ok());
  ASSERT_TRUE(c.nodes[1]->Revive().ok());

  c.clock.Step();
  auto round = c.store->RunAntiEntropy();
  EXPECT_EQ(round.deletes_applied, 0);
  EXPECT_EQ(round.blobs_streamed, 1);
  EXPECT_TRUE(round.converged);
  EXPECT_EQ(c.nodes[1]->store().Get("half").value().data, data);
}

TEST(ReplicatedStoreTest, CrashDuringRepairIsHealedNextRound) {
  TestCluster c(3);
  const int64_t kPage = MediaStore::kCachePageBytes;
  const Buffer data = MakeBlob(static_cast<size_t>(2 * kPage));
  ASSERT_TRUE(c.store->Put("clip", data, 10 * kSecond).ok());
  CorruptPage(c.nodes[0]->store(), "clip", 0);
  FaultSpec spec;
  spec.repair_crash_rate = 1.0;  // the next repair apply kills the machine
  FaultInjector* faults = c.Inject(0, spec, 11);

  c.clock.Step();
  EXPECT_FALSE(c.store->RepairBlob(0, "clip").ok());
  EXPECT_EQ(faults->stats().repair_crashes, 1);
  EXPECT_TRUE(c.nodes[0]->down());
  EXPECT_EQ(c.store->stats().repair_failures, 1);
  EXPECT_EQ(c.store->stats().repairs, 0);

  // Crash-restart: recover the directory from the journal, detach the
  // fault, and let the next repair round finish the interrupted heal.
  ASSERT_TRUE(c.nodes[0]->Revive().ok());
  c.nodes[0]->set_fault_injector(nullptr);
  c.clock.Step();
  auto healed = c.store->RepairQuarantined(0);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value(), 1);
  EXPECT_EQ(c.nodes[0]->store().Get("clip").value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

// The four tests below pin the content-identity decisions of the repair
// machinery — hint skip, majority vote and donor choice — on versions that
// share a name and a size but not their bytes.

TEST(ReplicatedStoreTest, HintWhoseBytesLandedReplaysWithoutRewrite) {
  // A write that persists past its deadline leaves a hint although its
  // bytes are on the replica; replay must recognise them and not rewrite.
  TestCluster c(3);
  FaultSpec slow;
  slow.node_slow_rate = 1.0;
  slow.node_slow_factor = 1000.0;
  c.Inject(0, slow, 3);
  const Buffer data = MakeBlob(16000);
  auto put = c.store->Put("clip", data, kSecond);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().acks, 2);
  ASSERT_EQ(c.store->HintCount(0), 1);
  ASSERT_TRUE(c.nodes[0]->store().Contains("clip"));
  c.nodes[0]->set_fault_injector(nullptr);

  c.clock.Step();
  auto replay = c.store->ReplayHints(0);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().replayed, 1);
  EXPECT_EQ(c.nodes[0]->stats().repairs_applied, 0);
  EXPECT_EQ(c.nodes[0]->store().Get("clip").value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, HintOverSameSizeOtherVersionIsApplied) {
  // The revived replica holds another version of the same size (one byte
  // differs); replay must tell the versions apart and rewrite.
  TestCluster c(3);
  c.Inject(0, FaultSpec::NodeCrash(1), 5);
  const Buffer data = MakeBlob(16000);
  ASSERT_TRUE(c.store->Put("clip", data, kSecond).ok());
  ASSERT_EQ(c.store->HintCount(0), 1);
  ASSERT_TRUE(c.nodes[0]->Revive().ok());
  Buffer stale = data;
  stale[15000] ^= 0x01;
  int64_t latency = 0;
  ASSERT_TRUE(
      c.nodes[0]->ApplyRepair("clip", stale, c.clock.now_ns, &latency).ok());
  ASSERT_EQ(c.nodes[0]->stats().repairs_applied, 1);

  c.clock.Step();
  auto replay = c.store->ReplayHints(0);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().replayed, 1);
  EXPECT_EQ(c.nodes[0]->stats().repairs_applied, 2);
  EXPECT_EQ(c.nodes[0]->store().Get("clip").value().data, data);
  EXPECT_TRUE(c.store->Converged());
}

TEST(ReplicatedStoreTest, AntiEntropyRewritesOddSameSizeVersionToMajority) {
  // Replica 0 — the one a lowest-index tie-break would favour — holds an
  // odd version of the same size. The vote must side with replicas 1 and 2.
  TestCluster c(3);
  const int64_t kPage = MediaStore::kCachePageBytes;
  const Buffer data = MakeBlob(static_cast<size_t>(2 * kPage + 100));
  ASSERT_TRUE(c.store->Put("clip", data, 10 * kSecond).ok());
  Buffer odd = data;
  odd[static_cast<size_t>(kPage + 7)] ^= 0x5A;
  int64_t latency = 0;
  ASSERT_TRUE(
      c.nodes[0]->ApplyRepair("clip", odd, c.clock.now_ns, &latency).ok());
  EXPECT_FALSE(c.store->Converged());

  c.clock.Step();
  auto round = c.store->RunAntiEntropy();
  EXPECT_EQ(round.blobs_streamed, 1);
  EXPECT_EQ(round.pages_streamed, 1);  // pages 0 and 2 salvaged in place
  EXPECT_TRUE(round.converged);
  EXPECT_EQ(c.nodes[0]->store().Get("clip").value().data, data);
  EXPECT_EQ(c.nodes[1]->stats().repairs_applied, 0);
  EXPECT_EQ(c.nodes[2]->stats().repairs_applied, 0);
}

TEST(ReplicatedStoreTest, RepairWithNoPeerAtDamagedVersionIsDataLoss) {
  // Replica 0 holds another same-size version (page 0 differs) and its
  // page 1 rots. The peers' page 1 would pass the digest check, but they
  // hold a different version, so no donor qualifies.
  TestCluster c(3);
  const int64_t kPage = MediaStore::kCachePageBytes;
  const Buffer data = MakeBlob(static_cast<size_t>(2 * kPage));
  ASSERT_TRUE(c.store->Put("clip", data, 10 * kSecond).ok());
  Buffer other = data;
  other[10] ^= 0x01;
  int64_t latency = 0;
  ASSERT_TRUE(
      c.nodes[0]->ApplyRepair("clip", other, c.clock.now_ns, &latency).ok());
  CorruptPage(c.nodes[0]->store(), "clip", 1);

  c.clock.Step();
  const Status repaired = c.store->RepairBlob(0, "clip");
  EXPECT_EQ(repaired.code(), StatusCode::kDataLoss);
  EXPECT_EQ(c.store->stats().data_loss_events, 1);
  EXPECT_EQ(c.store->stats().repair_failures, 1);
  EXPECT_EQ(c.store->stats().repairs, 0);
  EXPECT_EQ(c.nodes[0]->stats().repairs_applied, 1);  // the planted version
}

TEST(ReplicatedStoreTest, QuorumWritesAreDeterministic) {
  // Same seeds, same spec => byte-identical outcome, ack counts, and
  // modeled quorum latencies — the property the chaos sweep leans on.
  auto run = [] {
    TestCluster c(3);
    FaultSpec spec = FaultSpec::NodeCrash(3);
    spec.node_slow_rate = 0.3;
    spec.node_slow_factor = 4.0;
    c.Inject(0, spec, 21);
    std::vector<int64_t> trace;
    for (int op = 0; op < 6; ++op) {
      c.clock.Step();
      auto put = c.store->Put("b" + std::to_string(op),
                              MakeBlob(9000, static_cast<uint8_t>(op + 1)),
                              kSecond);
      trace.push_back(put.ok() ? VirtualClock::ToNs(put.value().duration)
                               : -1);
      trace.push_back(put.ok() ? put.value().acks : 0);
    }
    trace.push_back(c.store->stats().hints_recorded);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(ReplicatedStoreObservabilityTest, MetricsAndTracesAgreeWithStats) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer(256);
  TestCluster c(3);
  c.store->BindObservability(&registry, &tracer);
  c.Inject(0, FaultSpec::NodeCrash(1), 5);
  const int64_t kPage = MediaStore::kCachePageBytes;
  const Buffer data = MakeBlob(static_cast<size_t>(2 * kPage));
  ASSERT_TRUE(c.store->Put("clip", data, 10 * kSecond).ok());  // hint
  c.clock.Step();
  ASSERT_TRUE(c.store->ReviveReplica(0).ok());                 // replay
  CorruptPage(c.nodes[1]->store(), "clip", 1);
  c.clock.Step();
  ASSERT_TRUE(c.store->RepairBlob(1, "clip").ok());            // repair
  c.clock.Step();
  (void)c.store->RunAntiEntropy();                             // resync

  const ReplicatedStore::Stats& stats = c.store->stats();
  EXPECT_GE(stats.hints_recorded, 1);
  EXPECT_GE(stats.hints_replayed, 1);
  EXPECT_GE(stats.repairs, 1);
  EXPECT_GE(stats.repair_pages_streamed, 1);
  auto counter = [&registry](const char* name) {
    return registry.GetCounter(name, "")->Value();
  };
  EXPECT_EQ(counter("avdb_cluster_quorum_puts_total"), stats.quorum_puts);
  EXPECT_EQ(counter("avdb_cluster_quorum_acks_total"), stats.write_acks);
  EXPECT_EQ(counter("avdb_cluster_handoff_hints_total"),
            stats.hints_recorded);
  EXPECT_EQ(counter("avdb_cluster_handoff_replays_total"),
            stats.hints_replayed);
  EXPECT_EQ(counter("avdb_cluster_repair_attempts_total"),
            stats.repair_attempts);
  EXPECT_EQ(counter("avdb_cluster_repair_successes_total"), stats.repairs);
  EXPECT_EQ(counter("avdb_cluster_repair_pages_streamed_total"),
            stats.repair_pages_streamed);
  EXPECT_EQ(counter("avdb_cluster_repair_bytes_streamed_total"),
            stats.repair_bytes_streamed);
  EXPECT_EQ(counter("avdb_cluster_resync_rounds_total"), stats.resync_rounds);
  EXPECT_EQ(counter("avdb_cluster_data_loss_events_total"), 0);
  EXPECT_EQ(registry.GetGauge("avdb_cluster_pending_hints", "")->Value(), 0);

  int64_t read_repair_events = 0;
  int64_t handoff_events = 0;
  int64_t resync_events = 0;
  for (const auto& event : tracer.Events()) {
    if (event.name == "read_repair") ++read_repair_events;
    if (event.name == "handoff_replay") ++handoff_events;
    if (event.name == "anti_entropy") ++resync_events;
  }
  EXPECT_GE(read_repair_events, 1);
  EXPECT_GE(handoff_events, 1);
  EXPECT_EQ(resync_events, 1);
}

TEST(ReplicatedStoreChaosTest, CrashSweepQuorumNeverLiesAndResyncConverges) {
  // The satellite gate: node0's crash is injected at every request index
  // and the whole schedule is swept across 25 seeds (the survivors run
  // seed-dependent slow-node jitter so schedules genuinely differ).
  // Invariants, for every (seed, crash index):
  //   1. a quorum-acked write is always readable back from the survivors;
  //   2. after revive + resync the cluster is byte-identical, and a second
  //      resync round is a no-op (idempotence);
  //   3. no data-loss event is ever recorded.
  constexpr int kSeeds = 25;
  constexpr int kOps = 8;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (int64_t crash_at = 1; crash_at <= kOps + 1; ++crash_at) {
      TestCluster c(3);
      FaultSpec crash = FaultSpec::NodeCrash(crash_at);
      crash.node_slow_rate = 0.2;
      crash.node_slow_factor = 3.0;
      c.Inject(0, crash, seed);
      FaultSpec wobble;
      wobble.node_slow_rate = 0.2;
      wobble.node_slow_factor = 3.0;
      c.Inject(1, wobble, seed * 7 + 1);
      c.Inject(2, wobble, seed * 13 + 2);

      std::map<std::string, Buffer> acked;
      for (int op = 0; op < kOps; ++op) {
        c.clock.Step();
        if (op == 5) {
          if (c.store->Delete("blob3", kSecond).ok()) acked.erase("blob3");
          continue;
        }
        const std::string name = "blob" + std::to_string(op);
        Buffer data = MakeBlob(static_cast<size_t>(12000 + op * 1000),
                               static_cast<uint8_t>(seed + op));
        auto put = c.store->Put(name, data, kSecond);
        if (put.ok()) {
          EXPECT_GE(put.value().acks, 2);
          acked[name] = std::move(data);
        }
      }

      for (const auto& [name, data] : acked) {
        c.clock.Step();
        auto read = c.store->Read(name, 0,
                                  static_cast<int64_t>(data.size()),
                                  10 * kSecond);
        ASSERT_TRUE(read.ok())
            << "seed " << seed << " crash@" << crash_at
            << ": acked blob '" << name << "' unreadable after the crash";
        EXPECT_EQ(read.value().data, data);
      }

      if (c.nodes[0]->down()) {
        ASSERT_TRUE(c.store->ReviveReplica(0).ok());
      }
      c.clock.Step();
      (void)c.store->RunAntiEntropy();
      c.clock.Step();
      const auto second = c.store->RunAntiEntropy();
      EXPECT_TRUE(second.converged)
          << "seed " << seed << " crash@" << crash_at;
      EXPECT_EQ(second.blobs_streamed, 0);
      EXPECT_EQ(second.hints_replayed, 0);
      EXPECT_EQ(c.store->stats().data_loss_events, 0);
      auto s0 = c.store->ReplicaSummary(0);
      ASSERT_TRUE(s0.ok());
      EXPECT_TRUE(s0.value() == c.store->ReplicaSummary(1).value());
      EXPECT_TRUE(s0.value() == c.store->ReplicaSummary(2).value());
    }
  }
}

// ------------------------------------------------------- linked requests --

/// What one replica's link and node counted, sampled around an operation.
struct HopCounters {
  int64_t transfers = 0;
  int64_t cancelled = 0;
  int64_t requests = 0;
  int64_t served = 0;
  int64_t busy_ns = 0;
};

/// Legs of linked round trips, told apart by counter arithmetic: a request
/// reaches its node only over a delivered request leg, and a reply leg
/// starts only after a successful serve.
struct LegTally {
  int64_t request_cancels = 0;  ///< request legs cancelled on the link
  int64_t serve_failures = 0;   ///< requests the node failed or acked late
  int64_t reply_cancels = 0;    ///< reply legs cancelled on the link
  int64_t replies = 0;          ///< reply legs delivered
  int64_t late_acks = 0;        ///< writes persisted past their budget
};

TEST(LinkedRequestPinTest, EveryLegOfALinkedRequestIsPinned) {
  // Three replicas over ATM links, one of which collapses; a slow, a
  // partitioning and a crashing node; device read errors; a quorum store
  // and a session router over one shared set. Every operation's status,
  // latency, retries and acks, and the final stats of every channel, node,
  // store and front-end, fold into one FastHash64, so any change to what a
  // hop costs or counts moves it.
  ManualClock clock;
  BreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.open_cooldown_ns = 200 * kMs;
  auto set = std::make_shared<ReplicaSet>(breaker);
  std::vector<ServerNodePtr> nodes;
  std::vector<ChannelPtr> links;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "n" + std::to_string(i);
    // Node 0 is a cached RAM disk, the fastest replica; the others read
    // straight off magnetic disks.
    auto dev = std::make_shared<BlockDevice>(
        name + ".dev",
        i == 0 ? DeviceProfile::RamDisk() : DeviceProfile::MagneticDisk());
    auto cache = i == 0 ? std::make_shared<BufferCache>(1 << 20) : nullptr;
    auto media = std::make_shared<MediaStore>(dev, cache);
    ASSERT_TRUE(media->Mount().ok());
    nodes.push_back(std::make_shared<ServerNode>(name, media));
    links.push_back(
        std::make_shared<Channel>("to-" + name, Channel::Profile::Atm155()));
    set->Add(nodes.back(), links.back());
  }
  FaultSpec collapse;
  collapse.bandwidth_collapse_rate = 0.3;
  collapse.bandwidth_collapse_factor = 0.02;
  FaultInjector link_faults(collapse, 31);
  links[1]->set_fault_injector(&link_faults);
  FaultSpec slow;
  slow.node_slow_rate = 0.3;
  slow.node_slow_factor = 6.0;
  FaultInjector slow_faults(slow, 41);
  nodes[0]->set_fault_injector(&slow_faults);
  FaultSpec partition;
  partition.node_partition_rate = 0.1;
  partition.node_partition_ops = 1;
  FaultInjector partition_faults(partition, 43);
  nodes[1]->set_fault_injector(&partition_faults);
  FaultInjector crash_faults(FaultSpec::NodeCrash(10), 47);
  nodes[2]->set_fault_injector(&crash_faults);
  FaultInjector device_faults(FaultSpec::TransientReads(0.2), 53);
  nodes[2]->store().device_ptr()->set_fault_injector(&device_faults);

  ReplicationPolicy policy;
  policy.write_quorum = 2;
  policy.retry.max_attempts = 2;
  policy.retry.initial_backoff_ns = kMs;
  policy.retry.jitter_seed = 17;
  policy.router.max_attempts = 3;
  ReplicatedStore store("rs", policy, clock.fn(), set);
  RouterPolicy session_policy;
  session_policy.min_hedge_samples = 4;
  StreamRouter session("session", session_policy, clock.fn(), set);

  std::vector<int64_t> trace;
  LegTally fetch_legs, write_legs;
  const auto sample = [&] {
    std::vector<HopCounters> counters;
    for (size_t i = 0; i < nodes.size(); ++i) {
      counters.push_back({links[i]->stats().transfers,
                          links[i]->stats().deadline_cancelled,
                          nodes[i]->stats().requests, nodes[i]->stats().served,
                          nodes[i]->stats().busy_ns});
    }
    return counters;
  };
  const auto tally = [&](const std::vector<HopCounters>& before,
                         bool write, LegTally* legs) {
    const std::vector<HopCounters> after = sample();
    for (size_t i = 0; i < after.size(); ++i) {
      const int64_t transfers = after[i].transfers - before[i].transfers;
      const int64_t cancelled = after[i].cancelled - before[i].cancelled;
      const int64_t requests = after[i].requests - before[i].requests;
      const int64_t served = after[i].served - before[i].served;
      const int64_t replies = transfers - requests;
      legs->replies += replies;
      legs->reply_cancels += served - replies;
      legs->request_cancels += cancelled - (served - replies);
      legs->serve_failures += requests - served;
      if (write && served == 0 && after[i].busy_ns > before[i].busy_ns) {
        ++legs->late_acks;
      }
    }
  };
  const auto put = [&](const std::string& blob, size_t size,
                       int64_t budget_ns) {
    clock.Step();
    const auto before = sample();
    auto result = store.Put(blob, MakeBlob(size, static_cast<uint8_t>(size)),
                            budget_ns);
    tally(before, true, &write_legs);
    trace.push_back(static_cast<int64_t>(result.status().code()));
    trace.push_back(
        result.ok() ? VirtualClock::ToNs(result.value().duration) : -1);
    trace.push_back(result.ok() ? result.value().acks : -1);
    trace.push_back(result.ok() ? result.value().hinted : -1);
  };
  const auto remove = [&](const std::string& blob, int64_t budget_ns) {
    clock.Step();
    const auto before = sample();
    auto result = store.Delete(blob, budget_ns);
    tally(before, true, &write_legs);
    trace.push_back(static_cast<int64_t>(result.status().code()));
    trace.push_back(
        result.ok() ? VirtualClock::ToNs(result.value().duration) : -1);
    trace.push_back(result.ok() ? result.value().acks : -1);
  };
  const auto fetch = [&](StreamRouter& router, const std::string& blob,
                         int64_t offset, int64_t length, int64_t budget_ns) {
    clock.Step();
    const auto before = sample();
    auto result = router.Fetch(blob, offset, length, budget_ns);
    tally(before, false, &fetch_legs);
    trace.push_back(static_cast<int64_t>(result.status().code()));
    trace.push_back(
        result.ok() ? VirtualClock::ToNs(result.value().duration) : -1);
    trace.push_back(result.ok() ? result.value().retries : -1);
    trace.push_back(result.ok()
                        ? static_cast<int64_t>(
                              FastHash64(result.value().data.data(),
                                         result.value().data.size()))
                        : -1);
  };

  const int64_t kPage = MediaStore::kCachePageBytes;
  // Puts: three under a loose budget; one too tight for any request leg;
  // two that persist past their budget on a disk replica; and one whose
  // ack leg no longer fits there (the 20 kB put's request leg and disk
  // write take 43.66 ms, its ack 1.01 ms more).
  put("a", 20000, kSecond);
  put("b", static_cast<size_t>(2 * kPage), kSecond);
  put("c", static_cast<size_t>(3 * kPage), kSecond);
  put("tight", 20000, 500 * 1000);
  put("late", 30000, 60 * kMs);
  put("later", 40000, 45 * kMs);
  put("snug", 20000, 44 * kMs);
  // Fetches: loose ones arm the hedge window, and the first uncached reads
  // of b, a and later run past it. 3 ms leaves a RAM-disk read no time for
  // its reply leg, 500 us no time for any request leg.
  for (int i = 0; i < 12; ++i) {
    fetch(session, "c", (i % 5) * 20000, 4096 + i * 5000, kSecond);
  }
  fetch(session, "b", 0, 2 * kPage, kSecond);
  fetch(session, "a", 0, 20000, kSecond);
  fetch(session, "later", 0, 40000, kSecond);
  for (int64_t budget_ms : {3, 40, 45, 50}) {
    fetch(session, "c", kPage, kPage, budget_ms * kMs);
  }
  fetch(session, "b", 0, 4096, 500 * 1000);
  fetch(store.router(), "b", 1000, 30000, kSecond);
  // Deletes: one that lands, one of a blob no replica holds.
  remove("a", kSecond);
  remove("never-stored", kSecond);
  // A put while replica 2 is down: refused, retried, hinted.
  put("after", 25000, kSecond);
  // Rot a page on replica 1 and heal it from a donor over its link.
  clock.Step();
  CorruptPage(nodes[1]->store(), "c", 1);
  const Status repaired = store.RepairBlob(1, "c");
  trace.push_back(static_cast<int64_t>(repaired.code()));
  // Revive the crashed node, then one anti-entropy round.
  clock.Step();
  trace.push_back(static_cast<int64_t>(store.ReviveReplica(2).code()));
  clock.Step();
  const ReplicatedStore::ResyncReport round = store.RunAntiEntropy();
  for (int64_t v : {round.blobs_compared, round.blobs_streamed,
                    round.pages_streamed, round.bytes_streamed,
                    round.deletes_applied, round.hints_replayed,
                    round.unrepairable, int64_t{round.converged}}) {
    trace.push_back(v);
  }

  for (size_t i = 0; i < nodes.size(); ++i) {
    const Channel::Stats& c = links[i]->stats();
    for (int64_t v : {c.transfers, c.bytes, c.collapsed_transfers,
                      c.deadline_cancelled, links[i]->queue().stats().busy_ns,
                      links[i]->queue().stats().queued_ns}) {
      trace.push_back(v);
    }
    const ServerNode::Stats& n = nodes[i]->stats();
    for (int64_t v : {n.requests, n.served, n.refused, n.partition_stalls,
                      n.slow_serves, n.busy_ns, n.writes_served,
                      n.deletes_served, n.repairs_applied, n.revives}) {
      trace.push_back(v);
    }
    const MediaStore::Stats& m = nodes[i]->store().stats();
    for (int64_t v : {m.retries, m.exhausted, m.backoff_ns,
                      m.deadline_fast_fails, m.deadline_timeouts,
                      m.pages_verified, m.page_mismatches, m.journal_records,
                      m.journal_compactions, m.reads, m.scrub_pages,
                      m.quarantines}) {
      trace.push_back(v);
    }
  }
  for (const StreamRouter* router : {&session, &store.router()}) {
    const StreamRouter::Stats& r = router->stats();
    for (int64_t v : {r.fetches, r.failovers, r.hedges, r.hedge_wins,
                      r.breaker_opens, r.deadline_fast_fails,
                      r.deadline_give_ups, r.exhausted, r.read_repairs}) {
      trace.push_back(v);
    }
  }
  const ReplicatedStore::Stats& s = store.stats();
  for (int64_t v :
       {s.quorum_puts, s.quorum_deletes, s.quorum_failures, s.write_acks,
        s.breaker_opens, s.hints_recorded, s.hint_overflow, s.hints_replayed,
        s.hint_replay_failures, s.repair_attempts, s.repairs,
        s.repair_failures, s.repair_pages_streamed, s.repair_bytes_streamed,
        s.resync_rounds, s.resync_blobs_streamed, s.resync_deletes,
        s.data_loss_events}) {
    trace.push_back(v);
  }

  // Every leg of a linked round trip was exercised, on reads and writes.
  EXPECT_GT(fetch_legs.request_cancels, 0);
  EXPECT_GT(fetch_legs.serve_failures, 0);
  EXPECT_GT(fetch_legs.reply_cancels, 0);
  EXPECT_GT(fetch_legs.replies, 0);
  EXPECT_GT(write_legs.request_cancels, 0);
  EXPECT_GT(write_legs.serve_failures, 0);
  EXPECT_GT(write_legs.reply_cancels, 0);
  EXPECT_GT(write_legs.late_acks, 0);
  EXPECT_GT(write_legs.replies, 0);
  EXPECT_GT(session.stats().failovers, 0);
  EXPECT_GT(session.stats().hedges, 0);
  EXPECT_TRUE(repaired.ok());
  EXPECT_GT(s.repair_pages_streamed, 0);
  EXPECT_GT(nodes[2]->stats().refused, 0);
  EXPECT_GT(nodes[1]->stats().partition_stalls, 0);
  EXPECT_GT(nodes[0]->stats().slow_serves, 0);
  EXPECT_GT(links[1]->stats().collapsed_transfers, 0);

  const uint64_t pin = FastHash64(
      reinterpret_cast<const uint8_t*>(trace.data()),
      trace.size() * sizeof(int64_t));
  EXPECT_EQ(trace.size(), 252u);
  EXPECT_EQ(pin, 0xd91fb3e82c05252bULL);
}

}  // namespace
}  // namespace avdb
