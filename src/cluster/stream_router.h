#ifndef AVDB_CLUSTER_STREAM_ROUTER_H_
#define AVDB_CLUSTER_STREAM_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/deadline.h"
#include "base/result.h"
#include "cluster/replica_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/media_store.h"

namespace avdb {

/// Routing knobs of one StreamRouter.
struct RouterPolicy {
  /// Distinct replicas tried per fetch before the error surfaces.
  int max_attempts = 3;
  /// Hedged reads: when the primary attempt's latency exceeds the hedge
  /// delay (p95 of recent attempt latencies), a second copy of the request
  /// is sent to the next-best replica and the faster answer wins. Hedging
  /// arms once this many attempt latencies are in the window (the p95 of a
  /// near-empty window is noise).
  int min_hedge_samples = 8;
};

/// Health-tracked replica selection + mid-stream failover + hedged reads +
/// deadline propagation: the client-side routing brain of the replicated
/// deployment.
///
/// Synchronous discrete-event form: every attempt returns its modeled
/// latency immediately, so "hedge after the p95 delay" becomes "issue the
/// hedge iff the primary's latency exceeded the delay, and let the faster
/// of (primary latency) vs (delay + hedge latency) win". The outcome — and
/// therefore every stat and trace — is identical to a real concurrent
/// hedge, and fully deterministic.
///
/// The fetch deadline budget decrements across every hop (request
/// transfer, server device time, response transfer, failed attempts), so a
/// retry or hedge that can no longer present on time is cancelled instead
/// of executed.
class StreamRouter {
 public:
  /// Modeled size of a request message sent up a link (reads here, write
  /// envelopes in ReplicatedStore).
  static constexpr int64_t kRequestBytes = 256;

  /// Routes over `replicas`, which may be shared: several session routers
  /// (and the ReplicatedStore write path) then see one health view, so a
  /// breaker opened by one session shields the node from all of them — and
  /// the half-open probe slot is single across sessions. A co-located
  /// replica (nullptr channel) costs no transfer: routed reads through a
  /// single one are byte-identical to direct MediaStore reads. `now_fn`
  /// supplies virtual time (the event engine's now); the router
  /// deliberately does not depend on the activity layer.
  StreamRouter(std::string name, RouterPolicy policy,
               std::function<int64_t()> now_fn,
               std::shared_ptr<ReplicaSet> replicas);

  const std::string& name() const { return name_; }

  /// Hooks the self-healing read path in: when an attempt fails with
  /// DataLoss (corrupt page, quarantined blob), the router calls
  /// `repair(replica_idx, blob)` and — on a true return — clears the
  /// replica from this fetch's tried mask so it can serve the retry.
  /// Typically ReplicatedStore::RepairBlob. nullptr detaches.
  void SetReadRepair(std::function<bool(int64_t, const std::string&)> repair) {
    read_repair_ = std::move(repair);
  }

  /// Routed ranged read under a deadline budget of `budget_ns` (<= 0 means
  /// already doomed: fail fast without touching any replica). On success
  /// the result's `duration` is the full client-visible fetch latency —
  /// failed attempts and the hedge delay included — so callers charge
  /// modeled time exactly as they would for a direct store read.
  Result<MediaStore::ReadResult> Fetch(const std::string& blob,
                                       int64_t offset, int64_t length,
                                       int64_t budget_ns);

  /// Current hedge delay: p95 of the recent attempt-latency window,
  /// floored at 1 ms. 0 while the window is too small (hedging unarmed).
  int64_t HedgeDelayNs() const;

  struct Stats {
    int64_t fetches = 0;
    int64_t failovers = 0;        ///< replacement attempts after a failure
    int64_t hedges = 0;           ///< hedge requests issued
    int64_t hedge_wins = 0;       ///< hedges that beat the primary
    int64_t breaker_opens = 0;    ///< closed→open (or re-open) transitions
    int64_t deadline_fast_fails = 0;  ///< fetches refused: budget spent
    int64_t deadline_give_ups = 0;    ///< fetches abandoned mid-failover
    int64_t exhausted = 0;        ///< fetches that ran out of replicas
    int64_t read_repairs = 0;     ///< DataLoss attempts healed in-line
  };
  const Stats& stats() const { return stats_; }

  /// Binds `avdb_cluster_*` instruments and failover/hedge trace spans
  /// (actor = router name); the counters read the stats
  /// (obs::CounterBinding). nullptr detaches.
  void BindObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer);

 private:
  struct AttemptOutcome {
    Result<MediaStore::ReadResult> result;
    int64_t latency_ns = 0;
  };

  /// One attempt against replica `idx` starting at `start_ns`: the
  /// replica's round trip with a server-side read. The budget copy
  /// decrements per hop so downstream layers fast-fail.
  AttemptOutcome Attempt(int64_t idx, const std::string& blob, int64_t offset,
                         int64_t length, DeadlineBudget budget,
                         int64_t start_ns);

  void ObserveAttemptLatency(int64_t latency_ns);
  void NoteBreakerOpen(int64_t idx, int64_t now_ns);

  std::string name_;
  RouterPolicy policy_;
  std::function<int64_t()> now_fn_;
  std::shared_ptr<ReplicaSet> replicas_;
  std::function<bool(int64_t, const std::string&)> read_repair_;
  Stats stats_;

  /// Ring of recent attempt latencies feeding the p95 hedge delay, and the
  /// same values in ascending order, kept in step by ObserveAttemptLatency
  /// so the delay is one indexed read.
  static constexpr int64_t kLatencyWindow = 128;
  std::vector<int64_t> latency_window_;
  std::vector<int64_t> latency_sorted_;
  int64_t latency_next_ = 0;

  /// Inclusive upper bounds of the exported fetch-latency histogram.
  static constexpr int64_t kFetchLatencyBoundsNs[] = {
      1'000'000,  5'000'000,   10'000'000,  25'000'000,   50'000'000,
      100'000'000, 250'000'000, 500'000'000, 1'000'000'000};
  obs::HistogramFields<kFetchLatencyBoundsNs> fetch_latency_;  // while bound
  obs::CounterBinding counters_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace avdb

#endif  // AVDB_CLUSTER_STREAM_ROUTER_H_
