// Replicated multi-node serving: node-level fault injection, failover,
// hedged reads, and deadline propagation.
//
// Three client sessions stream a stored scalable clip through per-session
// StreamRouters over three ServerNode replicas (per-link ATM channels).
// Replica node0 is deterministically killed mid-stream (FaultSpec node
// crash) while every replica's device also degrades under the standard
// transient-error / latency-spike / stuck-head mix at the sweep's fault
// rate. The routers' health tracking (EWMA + circuit breaker) fails the
// sessions over, p95-hedged reads race slow primaries, and the
// presentation-deadline budget propagates through router -> channel ->
// server -> store so doomed work is cancelled instead of executed.
//
// Part 1 is the parity gate: a single co-located replica behind the router
// must stream *exactly* like a direct MediaStore — replication off changes
// nothing.
//
// Everything runs in virtual time: same seed, same spec, same numbers.
//
// Output: BENCH_replication.json. Exit code is non-zero when the ISSUE
// acceptance gates fail (at the 5% sweep point with node0 killed: every
// session completes, zero aborted streams, bounded rebuffer, and the
// cluster metrics show at least one failover, one hedge win, and one
// breaker open).

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "base/fault_injector.h"
#include "base/logging.h"
#include "cluster/node.h"
#include "cluster/replica_set.h"
#include "cluster/replicated_store.h"
#include "cluster/stream_router.h"
#include "codec/encoded_value.h"
#include "codec/scalable_codec.h"
#include "harness.h"
#include "media/synthetic.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/degradation.h"
#include "sched/event_engine.h"
#include "storage/media_store.h"
#include "storage/value_serializer.h"

using namespace avdb;

namespace {

const MediaDataType kType = MediaDataType::RawVideo(176, 144, 8, Rational(10));
constexpr int kFrames = 300;  // 30 s of video
constexpr uint64_t kSeed = 42;
constexpr int kSessions = 3;
constexpr int kReplicas = 3;
// node0 dies at its Nth served operation: with three sessions spreading
// ~900 fetches over three replicas this lands mid-stream.
constexpr int64_t kKillAtOp = 150;

/// Device-level fault mix (identical to bench_fault_degradation's sweep):
/// transient read errors, 30 ms bus spikes, rare 400 ms stuck heads.
FaultSpec DeviceSpec(double p) {
  FaultSpec spec;
  spec.read_error_rate = p;
  spec.latency_spike_rate = p;
  spec.latency_spike_ns = 30 * 1000 * 1000;
  spec.stuck_head_rate = p / 2;
  spec.stuck_head_stall_ns = 400 * 1000 * 1000;
  return spec;
}

std::shared_ptr<EncodedVideoValue> MakeClip() {
  auto raw = synthetic::GenerateVideo(kType, kFrames,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto codec = std::make_shared<ScalableCodec>();
  auto encoded = codec->Encode(*raw, params).value();
  return EncodedVideoValue::Create(codec, std::move(encoded)).value();
}

/// One replica machine: device (+ optional device-fault injector), store
/// with the clip, the serving node (+ optional node-fault injector).
struct Replica {
  std::shared_ptr<BlockDevice> device;
  ServerNodePtr node;
  std::unique_ptr<FaultInjector> device_faults;
  std::unique_ptr<FaultInjector> node_faults;
};

Replica MakeReplicaMachine(const std::string& name, const Buffer& blob) {
  Replica r;
  r.device = std::make_shared<BlockDevice>(name + ".dev",
                                           DeviceProfile::MagneticDisk());
  auto store = std::make_shared<MediaStore>(r.device, nullptr);
  AVDB_MUST(store->Put("clip", Buffer(blob)));
  r.node = std::make_shared<ServerNode>(name, store);
  return r;
}

struct SessionReport {
  bool completed = false;
  int64_t presented = 0;
  int64_t dropped = 0;
  double stall_max_ms = 0;
  int64_t aborts = 0;
};

struct ClusterReport {
  double fault_rate = 0;
  SessionReport sessions[kSessions];
  // Aggregates across the three session routers.
  int64_t failovers = 0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;
  int64_t breaker_opens = 0;
  int64_t deadline_fast_fails = 0;
  int64_t deadline_give_ups = 0;
  int64_t exhausted = 0;
  // node0 (the killed machine) and the survivors.
  int64_t node0_refused = 0;
  int64_t node0_served = 0;
  int64_t survivor_served = 0;
  // The same failover/hedge facts read back from the metrics registry —
  // the gate checks observability agrees with the router's own counters.
  int64_t metric_failovers = 0;
  int64_t metric_hedge_wins = 0;
  int64_t metric_breaker_opens = 0;
  int64_t trace_failover_events = 0;
  int64_t trace_hedge_events = 0;
};

ClusterReport RunCluster(const std::shared_ptr<EncodedVideoValue>& clip,
                         double fault_rate) {
  ClusterReport report;
  report.fault_rate = fault_rate;

  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  // Declared before the graph: a sink detaches its stats from its
  // controller when the graph destroys it.
  std::vector<std::unique_ptr<DegradationController>> degraders;
  ActivityGraph graph(env);
  obs::MetricsRegistry registry;
  obs::Tracer tracer(8192);

  const Buffer blob = value_serializer::Serialize(*clip).value();
  std::vector<Replica> replicas;
  for (int i = 0; i < kReplicas; ++i) {
    replicas.push_back(MakeReplicaMachine("node" + std::to_string(i), blob));
    Replica& r = replicas.back();
    if (fault_rate > 0) {
      r.device_faults = std::make_unique<FaultInjector>(
          DeviceSpec(fault_rate), kSeed + static_cast<uint64_t>(i));
      r.device->set_fault_injector(r.device_faults.get());
    }
  }
  // The mid-stream node loss: node0's kKillAtOp-th served operation finds
  // the machine dead, and it stays dead for the rest of the run.
  replicas[0].node_faults =
      std::make_unique<FaultInjector>(FaultSpec::NodeCrash(kKillAtOp), kSeed);
  replicas[0].node->set_fault_injector(replicas[0].node_faults.get());

  std::vector<std::unique_ptr<StreamRouter>> routers;
  std::vector<std::shared_ptr<VideoSource>> sources;
  std::vector<std::shared_ptr<VideoWindow>> windows;

  for (int s = 0; s < kSessions; ++s) {
    // Each session routes over its own set: a private health view.
    auto session_set = std::make_shared<ReplicaSet>(BreakerPolicy{});
    for (int i = 0; i < kReplicas; ++i) {
      // Per-(session, server) ATM link: transfer cost and link faults are
      // private to the pair, like a switched fabric.
      auto channel = std::make_shared<Channel>(
          "lan." + std::to_string(s) + "." + std::to_string(i),
          Channel::Profile::Atm155());
      session_set->Add(replicas[static_cast<size_t>(i)].node, channel);
    }
    RouterPolicy policy;  // defaults: 3 attempts, hedging armed at 8 samples
    routers.push_back(std::make_unique<StreamRouter>(
        "client" + std::to_string(s), policy,
        [&engine] { return engine.now_ns(); }, session_set));
    StreamRouter* router = routers.back().get();
    router->BindObservability(&registry, &tracer);

    degraders.push_back(std::make_unique<DegradationController>());
    SourceOptions source_options;
    source_options.blob_name = "clip";
    source_options.degrade = degraders.back().get();
    source_options.fetcher = [router](const std::string& blob_name,
                                      int64_t offset, int64_t length,
                                      int64_t budget_ns) {
      return router->Fetch(blob_name, offset, length, budget_ns);
    };
    auto source =
        VideoSource::Create("src" + std::to_string(s),
                            ActivityLocation::kDatabase, env, source_options);
    AVDB_MUST(source->Bind(clip, VideoSource::kPortOut));

    SinkOptions sink_options;
    sink_options.degrade = degraders.back().get();
    auto window = VideoWindow::Create(
        "win" + std::to_string(s), ActivityLocation::kClient, env,
        VideoQuality(176, 144, 8, Rational(10)), sink_options);

    SessionReport* session = &report.sessions[s];
    AVDB_MUST(source->Catch(VideoSource::kFrameDropped,
                            [session](const ActivityEvent&) {
                              ++session->dropped;
                            }));
    AVDB_MUST(window->Catch(VideoWindow::kLastFrame,
                            [session](const ActivityEvent&) {
                              session->completed = true;
                            }));

    AVDB_MUST(graph.Add(source));
    AVDB_MUST(graph.Add(window));
    AVDB_MUST(graph.Connect(source.get(), VideoSource::kPortOut, window.get(),
                            VideoWindow::kPortIn));
    sources.push_back(std::move(source));
    windows.push_back(std::move(window));
  }

  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();

  for (int s = 0; s < kSessions; ++s) {
    SessionReport& session = report.sessions[s];
    const StreamStats& stats = windows[static_cast<size_t>(s)]->stats();
    session.presented = stats.elements_presented;
    session.stall_max_ms = stats.max_lateness_ns / 1e6;
    session.aborts = degraders[static_cast<size_t>(s)]->stats().aborts_taken;
    const StreamRouter::Stats& router =
        routers[static_cast<size_t>(s)]->stats();
    report.failovers += router.failovers;
    report.hedges += router.hedges;
    report.hedge_wins += router.hedge_wins;
    report.breaker_opens += router.breaker_opens;
    report.deadline_fast_fails += router.deadline_fast_fails;
    report.deadline_give_ups += router.deadline_give_ups;
    report.exhausted += router.exhausted;
  }
  report.node0_refused = replicas[0].node->stats().refused;
  report.node0_served = replicas[0].node->stats().served;
  for (int i = 1; i < kReplicas; ++i) {
    report.survivor_served += replicas[static_cast<size_t>(i)].node->stats().served;
  }
  report.metric_failovers =
      registry.GetCounter("avdb_cluster_failovers_total", "")->Value();
  report.metric_hedge_wins =
      registry.GetCounter("avdb_cluster_hedge_wins_total", "")->Value();
  report.metric_breaker_opens =
      registry.GetCounter("avdb_cluster_breaker_opens_total", "")->Value();
  for (const auto& event : tracer.Events()) {
    if (event.name == "failover") ++report.trace_failover_events;
    if (event.name == "hedge_win") ++report.trace_hedge_events;
  }
  return report;
}

/// Streams the clip once through a plain MediaStore + device queue (the
/// pre-cluster pipeline) or through a router with one co-located replica,
/// and returns the window's stream stats. The two must be identical.
StreamStats RunSingleNode(const std::shared_ptr<EncodedVideoValue>& clip,
                          bool routed) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);

  const Buffer blob = value_serializer::Serialize(*clip).value();
  Replica machine = MakeReplicaMachine("solo", blob);
  std::unique_ptr<StreamRouter> router;

  SourceOptions source_options;
  source_options.blob_name = "clip";
  if (routed) {
    auto solo = std::make_shared<ReplicaSet>(BreakerPolicy{});
    solo->Add(machine.node, nullptr);  // co-located: no link
    router = std::make_unique<StreamRouter>(
        "solo-client", RouterPolicy{}, [&engine] { return engine.now_ns(); },
        solo);
    StreamRouter* raw = router.get();
    source_options.fetcher = [raw](const std::string& blob_name,
                                   int64_t offset, int64_t length,
                                   int64_t budget_ns) {
      return raw->Fetch(blob_name, offset, length, budget_ns);
    };
  } else {
    source_options.fetcher = FetchFrom(&machine.node->store());
    source_options.device_queue = &machine.node->device_queue();
  }

  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env,
                                    source_options);
  AVDB_MUST(source->Bind(clip, VideoSource::kPortOut));
  auto window =
      VideoWindow::Create("win", ActivityLocation::kClient, env,
                          VideoQuality(176, 144, 8, Rational(10)),
                          SinkOptions{});
  AVDB_MUST(graph.Add(source));
  AVDB_MUST(graph.Add(window));
  AVDB_MUST(graph.Connect(source.get(), VideoSource::kPortOut, window.get(),
                          VideoWindow::kPortIn));
  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();
  return window->stats();
}


// ------------------------------------------------------------- self-heal --

// Part 3 — the ISSUE's write+kill+revive scenario: a quorum-write workload
// (W=2/N=3) over journaled replica stores at the 5% device-fault point,
// node0 crashed mid-workload, a survivor's media deterministically rotted.
// The gates demand that every put still acks within budget, that at least
// one read-repair and one hinted-handoff replay are observed, that the
// revived node converges to a byte-identical directory (digest
// comparison), that zero data-loss events occur across the seed sweep,
// and that the avdb_cluster_* metrics agree with the store's own stats.

constexpr int kSelfHealPuts = 40;
constexpr int64_t kSelfHealKillAtOp = 15;  // node0's Nth served write
constexpr int64_t kSelfHealPutBudgetNs = 2'000'000'000;  // 2 s per put
constexpr uint64_t kSelfHealSeeds = 10;
constexpr size_t kSelfHealBlobBytes = 64 * 1024;  // one checksum page

Buffer PatternBlob(size_t size, uint64_t seed) {
  Buffer b;
  for (size_t i = 0; i < size; ++i) {
    b.AppendU8(static_cast<uint8_t>((seed * 131 + i * 31) & 0xFF));
  }
  return b;
}

/// Flips one media byte of `blob` directly on the device — simulated bit
/// rot behind the store's back. Retried because the device's own fault
/// injector may transiently refuse the poke.
bool CorruptOneByte(MediaStore& store, BlockDevice& device,
                    const std::string& blob) {
  auto entry = store.Lookup(blob);
  if (!entry.ok() || entry.value()->extents.size() != 1) return false;
  const Extent& extent = entry.value()->extents[0];
  for (int attempt = 0; attempt < 5; ++attempt) {
    Buffer current;
    if (!device.Read(extent.disc, extent.offset + 10, 1, &current).ok()) {
      continue;
    }
    Buffer flipped(1, static_cast<uint8_t>(~current.data()[0]));
    if (device.Write(extent.disc, extent.offset + 10, flipped).ok()) {
      return true;
    }
  }
  return false;
}

struct SelfHealReport {
  uint64_t seed = 0;
  double fault_rate = 0;
  int64_t puts = 0;
  int64_t put_failures = 0;
  int64_t deletes = 0;
  int64_t read_failures = 0;       ///< acked blobs unreadable afterwards
  int64_t hints_recorded = 0;
  int64_t hints_replayed = 0;
  int64_t repairs = 0;
  int64_t repair_pages_streamed = 0;
  int64_t resync_rounds = 0;
  int64_t resync_blobs_streamed = 0;
  int64_t data_loss_events = 0;
  bool node0_crashed = false;
  bool revived = false;
  bool resync_paced = false;       ///< MaybeRunAntiEntropy honors interval
  bool converged = false;
  bool summaries_identical = false;
  bool metrics_agree = false;
  int64_t trace_read_repair = 0;
  int64_t trace_handoff = 0;
  int64_t trace_resync = 0;
};

SelfHealReport RunSelfHeal(double fault_rate, uint64_t seed) {
  SelfHealReport report;
  report.seed = seed;
  report.fault_rate = fault_rate;

  obs::MetricsRegistry registry;
  obs::Tracer tracer(4096);
  int64_t now_ns = 0;

  auto set = std::make_shared<ReplicaSet>(BreakerPolicy{});
  std::vector<Replica> machines;
  for (int i = 0; i < kReplicas; ++i) {
    Replica r;
    r.device = std::make_shared<BlockDevice>(
        "heal" + std::to_string(i) + ".dev", DeviceProfile::MagneticDisk());
    auto store = std::make_shared<MediaStore>(r.device, nullptr);
    AVDB_MUST(store->Mount());
    r.node = std::make_shared<ServerNode>("heal" + std::to_string(i), store);
    if (fault_rate > 0) {
      r.device_faults = std::make_unique<FaultInjector>(
          DeviceSpec(fault_rate), seed * 3 + static_cast<uint64_t>(i));
      r.device->set_fault_injector(r.device_faults.get());
    }
    auto channel = std::make_shared<Channel>("heal.lan." + std::to_string(i),
                                             Channel::Profile::Atm155());
    set->Add(r.node, channel);
    machines.push_back(std::move(r));
  }
  machines[0].node_faults = std::make_unique<FaultInjector>(
      FaultSpec::NodeCrash(kSelfHealKillAtOp), seed);
  machines[0].node->set_fault_injector(machines[0].node_faults.get());

  ReplicationPolicy policy;  // W=2 of N=3
  policy.retry.jitter_seed = seed;
  // Small hint cap: the dead node misses ~25 writes but only 8 hints are
  // retained, so revival alone cannot converge — the digest-diff
  // anti-entropy stream has to carry the rest (both repair paths gate).
  policy.max_hints_per_replica = 8;
  ReplicatedStore store("heal", policy, [&now_ns] { return now_ns; }, set);
  store.BindObservability(&registry, &tracer);

  // The workload: unique-content puts, one quorum delete mixed in. node0
  // dies at its kSelfHealKillAtOp-th served write, so the tail of the
  // workload runs on a 2-of-3 cluster and accumulates hinted handoff.
  std::vector<std::pair<std::string, Buffer>> written;
  for (int i = 0; i < kSelfHealPuts; ++i) {
    const std::string name = "blob" + std::to_string(i);
    Buffer data = PatternBlob(kSelfHealBlobBytes, seed * 1000 + i);
    auto put = store.Put(name, data, kSelfHealPutBudgetNs);
    ++report.puts;
    if (put.ok()) {
      written.emplace_back(name, std::move(data));
    } else {
      ++report.put_failures;
    }
    now_ns += 250 * 1000 * 1000;  // 4 puts/s pacing
    if (i == 25) {
      ++report.deletes;
      if (store.Delete("blob2", kSelfHealPutBudgetNs).ok()) {
        written.erase(written.begin() + 2);
      }
      now_ns += 250 * 1000 * 1000;
    }
  }
  report.node0_crashed = machines[0].node->stats().refused > 0;

  // Media rot on a survivor: a routed read of the rotted blob either heals
  // it in-line (the router's DataLoss hook) or the explicit scrub+repair
  // sweep does — either way the heal must be observed.
  CorruptOneByte(machines[1].node->store(), *machines[1].device,
                 written.front().first);
  auto rotted = store.Read(written.front().first, 0,
                           static_cast<int64_t>(kSelfHealBlobBytes),
                           kSelfHealPutBudgetNs);
  if (!rotted.ok() || rotted.value().data != written.front().second) {
    ++report.read_failures;
  }
  if (store.stats().repairs == 0) {
    AVDB_IGNORE_STATUS(store.RepairQuarantined(1).status(),
                       "the gate below demands repairs >= 1 either way");
  }

  // Crash-restart of node0. A reboot clears the transient device
  // condition, so the fault injector detaches for the remount+recover and
  // reattaches after.
  machines[0].device->set_fault_injector(nullptr);
  report.revived = store.ReviveReplica(0).ok();
  if (machines[0].device_faults != nullptr) {
    machines[0].device->set_fault_injector(machines[0].device_faults.get());
  }

  // Anti-entropy on its virtual-time cadence until byte-identical
  // convergence (a few rounds may be needed when device faults interrupt
  // a stream). A second poll at the same instant must be interval-gated.
  report.resync_paced = true;
  for (int round = 0; round < 8; ++round) {
    now_ns += ReplicatedStore::kResyncIntervalNs;
    if (store.MaybeRunAntiEntropy() && store.MaybeRunAntiEntropy()) {
      report.resync_paced = false;  // ran twice at one instant: pacing broke
    }
    if (store.Converged()) break;  // always at least one verification round
  }
  report.converged = store.Converged();

  // Every blob the quorum ever acked must read back byte-identical.
  for (const auto& [name, data] : written) {
    now_ns += 50 * 1000 * 1000;
    auto read = store.Read(name, 0, static_cast<int64_t>(data.size()),
                           kSelfHealPutBudgetNs);
    if (!read.ok() || read.value().data != data) ++report.read_failures;
  }

  // Byte-identical directory: the digest comparison the ISSUE gates on.
  report.summaries_identical = true;
  auto s0 = store.ReplicaSummary(0);
  for (int i = 1; i < kReplicas; ++i) {
    auto si = store.ReplicaSummary(i);
    if (!s0.ok() || !si.ok() || !(s0.value() == si.value())) {
      report.summaries_identical = false;
    }
  }

  const ReplicatedStore::Stats& stats = store.stats();
  report.hints_recorded = stats.hints_recorded;
  report.hints_replayed = stats.hints_replayed;
  report.repairs = stats.repairs;
  report.repair_pages_streamed = stats.repair_pages_streamed;
  report.resync_rounds = stats.resync_rounds;
  report.resync_blobs_streamed = stats.resync_blobs_streamed;
  report.data_loss_events = stats.data_loss_events;

  auto counter = [&registry](const char* name) {
    return registry.GetCounter(name, "")->Value();
  };
  report.metrics_agree =
      counter("avdb_cluster_quorum_puts_total") == stats.quorum_puts &&
      counter("avdb_cluster_quorum_acks_total") == stats.write_acks &&
      counter("avdb_cluster_handoff_hints_total") == stats.hints_recorded &&
      counter("avdb_cluster_handoff_replays_total") == stats.hints_replayed &&
      counter("avdb_cluster_repair_successes_total") == stats.repairs &&
      counter("avdb_cluster_repair_pages_streamed_total") ==
          stats.repair_pages_streamed &&
      counter("avdb_cluster_resync_rounds_total") == stats.resync_rounds &&
      counter("avdb_cluster_data_loss_events_total") ==
          stats.data_loss_events &&
      registry.GetGauge("avdb_cluster_pending_hints", "")->Value() == 0;
  for (const auto& event : tracer.Events()) {
    if (event.name == "read_repair") ++report.trace_read_repair;
    if (event.name == "handoff_replay") ++report.trace_handoff;
    if (event.name == "anti_entropy") ++report.trace_resync;
  }
  return report;
}

}  // namespace

int main() {
  std::cout
      << "==============================================================\n"
         "Replicated serving: 3 sessions x 3 replicas, node0 killed\n"
         "mid-stream, device faults swept; failover + hedged reads +\n"
         "deadline propagation keep every stream alive\n"
         "==============================================================\n\n";

  auto clip = MakeClip();

  // Part 1 — parity: the router with one co-located replica is the direct
  // store in disguise.
  const StreamStats direct = RunSingleNode(clip, /*routed=*/false);
  const StreamStats routed = RunSingleNode(clip, /*routed=*/true);

  // Part 2 — the replicated sweep.
  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.10};
  std::vector<ClusterReport> runs;
  for (double rate : rates) runs.push_back(RunCluster(clip, rate));

  // Part 3 — self-heal: write+kill+revive at the 5% point, seed-swept.
  std::vector<SelfHealReport> heals;
  for (uint64_t seed = 1; seed <= kSelfHealSeeds; ++seed) {
    heals.push_back(RunSelfHeal(0.05, seed));
  }

  // ---------------------------------------------------------------- JSON --
  auto parity_row = [](const StreamStats& st) {
    return bench::Object{{"presented", st.elements_presented},
                         {"late", st.late_elements},
                         {"misses", st.deadline_misses},
                         {"lateness_ns", st.total_lateness_ns}};
  };
  std::vector<bench::Object> sweep;
  for (const ClusterReport& r : runs) {
    int64_t presented = 0, dropped = 0, aborts = 0;
    double stall_max = 0;
    bool all_completed = true;
    for (const SessionReport& s : r.sessions) {
      presented += s.presented;
      dropped += s.dropped;
      aborts += s.aborts;
      if (s.stall_max_ms > stall_max) stall_max = s.stall_max_ms;
      all_completed = all_completed && s.completed;
    }
    sweep.push_back(
        {{"fault_rate", bench::Fixed(r.fault_rate, 2)},
         {"all_completed", all_completed}, {"frames_presented", presented},
         {"frames_dropped", dropped}, {"stream_aborts", aborts},
         {"stall_max_ms", bench::Fixed(stall_max, 3)},
         {"failovers", r.failovers}, {"hedges", r.hedges},
         {"hedge_wins", r.hedge_wins}, {"breaker_opens", r.breaker_opens},
         {"deadline_fast_fails", r.deadline_fast_fails},
         {"deadline_give_ups", r.deadline_give_ups},
         {"exhausted", r.exhausted}, {"node0_served", r.node0_served},
         {"node0_refused", r.node0_refused},
         {"survivor_served", r.survivor_served},
         {"metric_failovers", r.metric_failovers},
         {"metric_hedge_wins", r.metric_hedge_wins},
         {"metric_breaker_opens", r.metric_breaker_opens},
         {"trace_failover_events", r.trace_failover_events},
         {"trace_hedge_win_events", r.trace_hedge_events}});
  }
  std::vector<bench::Object> self_heal;
  for (const SelfHealReport& h : heals) {
    self_heal.push_back(
        {{"seed", h.seed}, {"fault_rate", bench::Fixed(h.fault_rate, 2)},
         {"puts", h.puts}, {"put_failures", h.put_failures},
         {"read_failures", h.read_failures},
         {"hints_recorded", h.hints_recorded},
         {"hints_replayed", h.hints_replayed}, {"repairs", h.repairs},
         {"repair_pages_streamed", h.repair_pages_streamed},
         {"resync_rounds", h.resync_rounds},
         {"resync_blobs_streamed", h.resync_blobs_streamed},
         {"data_loss_events", h.data_loss_events},
         {"node0_crashed", h.node0_crashed}, {"revived", h.revived},
         {"resync_paced", h.resync_paced}, {"converged", h.converged},
         {"summaries_identical", h.summaries_identical},
         {"metrics_agree", h.metrics_agree},
         {"trace_read_repair", h.trace_read_repair},
         {"trace_handoff", h.trace_handoff},
         {"trace_anti_entropy", h.trace_resync}});
  }
  const bench::Object doc = {
      {"bench", "replication"},
      {"config", bench::Object{{"frames", kFrames}, {"sessions", kSessions},
                               {"replicas", kReplicas},
                               {"kill_at_op", kKillAtOp}, {"seed", kSeed}}},
      {"parity", bench::Object{{"direct", parity_row(direct)},
                               {"routed", parity_row(routed)}}},
      {"sweep", sweep},
      {"self_heal", self_heal}};

  // ----------------------------------------------------- acceptance gates --
  bench::Gates gates;
  gates.Check(bench::WriteReport("BENCH_replication.json", doc, {}),
              "BENCH_replication.json written");

  // Gate 1 — parity: replication off changes nothing about the stream.
  gates.Check(routed.elements_presented == direct.elements_presented &&
                  routed.late_elements == direct.late_elements &&
                  routed.deadline_misses == direct.deadline_misses &&
                  routed.total_lateness_ns == direct.total_lateness_ns &&
                  routed.max_lateness_ns == direct.max_lateness_ns,
              "parity: single co-located replica streams identically to the "
              "direct store");
  gates.Check(direct.elements_presented == kFrames,
              "parity: clean run presents every frame");

  // Gate 2 — every sweep point survives the node kill: all sessions
  // complete, nothing aborts, every frame is presented or deliberately
  // shed, and the kill actually happened.
  for (const ClusterReport& r : runs) {
    for (int s = 0; s < kSessions; ++s) {
      const SessionReport& session = r.sessions[s];
      gates.Check(session.completed,
                  "sweep: session completes despite node kill");
      gates.Check(session.aborts == 0, "sweep: zero aborted streams");
      gates.Check(session.presented + session.dropped == kFrames,
                  "sweep: every frame accounted for");
    }
    gates.Check(r.node0_refused > 0, "sweep: the node kill fired");
    gates.Check(r.failovers >= 1, "sweep: at least one failover");
  }

  // Gate 3 — the ISSUE's 5% point: bounded rebuffer and the full
  // failover/hedge/breaker story visible in stats, metrics, and traces.
  const ClusterReport* at5 = nullptr;
  for (const ClusterReport& r : runs) {
    if (r.fault_rate == 0.05) at5 = &r;
  }
  gates.Check(at5 != nullptr, "5% sweep point present");
  if (at5 != nullptr) {
    for (int s = 0; s < kSessions; ++s) {
      gates.Check(at5->sessions[s].stall_max_ms < 2000,
                  "5%: rebuffer bounded (max stall < 2000 ms)");
    }
    gates.Check(at5->hedge_wins >= 1, "5%: at least one hedged read won");
    gates.Check(at5->breaker_opens >= 1, "5%: node0's breaker opened");
    gates.Check(at5->metric_failovers == at5->failovers &&
                    at5->metric_hedge_wins == at5->hedge_wins &&
                    at5->metric_breaker_opens == at5->breaker_opens,
                "5%: avdb_cluster_* metrics agree with router stats");
    gates.Check(at5->trace_failover_events > 0 && at5->trace_hedge_events > 0,
                "5%: failover and hedge-win trace events recorded");
  }

  // Gate 4 — self-heal, every seed: all quorum puts ack within budget
  // despite the mid-workload node kill, every acked blob reads back, at
  // least one read-repair and one handoff replay are observed, the revived
  // node converges to a byte-identical directory, zero data-loss events,
  // and the repair/handoff metrics agree with the store's stats.
  for (const SelfHealReport& h : heals) {
    gates.Check(h.put_failures == 0,
                "self-heal: every W=2/N=3 put acks within budget");
    gates.Check(h.node0_crashed, "self-heal: the mid-workload node kill fired");
    gates.Check(h.read_failures == 0,
                "self-heal: every acked blob reads back byte-identical");
    gates.Check(h.hints_recorded >= 1 && h.hints_replayed >= 1,
                "self-heal: at least one hinted handoff recorded and replayed");
    gates.Check(h.repairs >= 1 && h.trace_read_repair >= 1,
                "self-heal: at least one read-repair observed");
    gates.Check(h.revived, "self-heal: crash-restart revive succeeded");
    gates.Check(h.resync_paced,
                "self-heal: MaybeRunAntiEntropy honors the resync interval");
    gates.Check(
        h.converged && h.summaries_identical,
        "self-heal: revived node converges to a byte-identical directory");
    gates.Check(h.data_loss_events == 0, "self-heal: zero data-loss events");
    gates.Check(h.metrics_agree,
                "self-heal: avdb_cluster_* metrics agree with store stats");
    gates.Check(
        h.trace_handoff >= 1 && h.trace_resync >= 1,
        "self-heal: handoff_replay and anti_entropy trace events recorded");
  }

  return gates.ExitCode();
}
