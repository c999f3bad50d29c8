#ifndef AVDB_CLUSTER_REPLICA_SET_H_
#define AVDB_CLUSTER_REPLICA_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/deadline.h"
#include "cluster/node.h"
#include "net/channel.h"

namespace avdb {

/// Circuit-breaker + latency-estimate policy for one replica.
struct BreakerPolicy {
  /// Consecutive failures that open the breaker.
  int failure_threshold = 3;
  /// How long an open breaker refuses traffic before admitting one
  /// half-open probe.
  int64_t open_cooldown_ns = 500 * 1000 * 1000;  // 500 ms
  /// EWMA smoothing factor for the latency estimate, in (0, 1].
  double ewma_alpha = 0.3;
  /// Latency prior for a replica that has never served (so a fresh replica
  /// competes on equal terms instead of looking infinitely fast or slow).
  int64_t initial_latency_ns = 5 * 1000 * 1000;  // 5 ms
};

/// Health of one replica as the router sees it: an EWMA of served-request
/// latency plus a consecutive-failure circuit breaker.
///
/// Breaker states:
///   kClosed   — serving normally. `failure_threshold` consecutive failures
///               open it.
///   kOpen     — refusing traffic until `open_cooldown_ns` elapses.
///   kHalfOpen — cooldown elapsed; exactly one probe request is admitted.
///               Success closes the breaker (counter reset), failure
///               re-opens it for another full cooldown. While the probe is
///               in flight every other caller is refused — even if a second
///               cooldown elapses before the probe reports back — so a
///               recovering node is never hit by a thundering herd of
///               "probes" from concurrent sessions sharing the set.
class ReplicaHealth {
 public:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  explicit ReplicaHealth(BreakerPolicy policy)
      : policy_(policy), ewma_latency_ns_(policy.initial_latency_ns) {}

  /// Current state at virtual time `now_ns` (pure; the open→half-open
  /// transition is observed here and committed by Admit).
  BreakerState State(int64_t now_ns) const {
    if (!open_) return BreakerState::kClosed;
    return now_ns >= open_until_ns_ ? BreakerState::kHalfOpen
                                    : BreakerState::kOpen;
  }

  /// Whether a request may be sent now (closed, or half-open with the
  /// probe slot free). Half-open with a probe already in flight refuses:
  /// only one probe may test a recovering replica at a time.
  bool CanAdmit(int64_t now_ns) const {
    const BreakerState state = State(now_ns);
    if (state == BreakerState::kOpen) return false;
    if (state == BreakerState::kHalfOpen && probe_in_flight_) return false;
    return true;
  }

  /// Commits the admission decided via CanAdmit. A half-open admission
  /// consumes the probe slot: the breaker re-arms so a concurrent second
  /// request is refused until the probe reports back.
  void Admit(int64_t now_ns);

  void RecordSuccess(int64_t latency_ns);
  /// Returns true when this failure *opened* the breaker (closed→open or a
  /// failed half-open probe re-opening), so the caller can count/trace the
  /// transition exactly once.
  [[nodiscard]] bool RecordFailure(int64_t now_ns);

  int64_t ewma_latency_ns() const { return ewma_latency_ns_; }
  int consecutive_failures() const { return consecutive_failures_; }
  bool probe_in_flight() const { return probe_in_flight_; }

 private:
  BreakerPolicy policy_;
  int64_t ewma_latency_ns_;
  int consecutive_failures_ = 0;
  bool open_ = false;
  bool probe_in_flight_ = false;
  int64_t open_until_ns_ = 0;
};

/// The set of replicas a router chooses from: (server, link) pairs with
/// per-replica health. Selection = lowest EWMA latency among replicas whose
/// breaker admits traffic, skipping an exclusion mask (replicas already
/// tried this fetch).
class ReplicaSet {
 public:
  struct Replica {
    ServerNodePtr server;
    /// Link from the client; nullptr = co-located (no transfer cost).
    ChannelPtr channel;
    ReplicaHealth health;

    /// One request to this replica at `at_ns`: `up_bytes` over the channel,
    /// then `serve(arrive_ns, &serve_ns)` on the node, then `down_bytes`
    /// back. Both link legs are charged to `budget`; `serve` charges the
    /// node's own time. `*latency_ns` is 0 when the request never left, the
    /// request leg plus the serve time when the serve or the reply leg
    /// fails, and the reply's arrival less `at_ns` otherwise. Returns what
    /// `serve` returns (a Status or a Result), or the failed leg's status.
    template <typename Serve>
    auto RoundTrip(int64_t at_ns, int64_t up_bytes, int64_t down_bytes,
                   DeadlineBudget* budget, int64_t* latency_ns, Serve serve)
        -> decltype(serve(at_ns, latency_ns)) {
      Channel* link = channel.get();
      int64_t elapsed = 0;
      *latency_ns = 0;
      if (link != nullptr) {
        auto up = link->TransferWithDeadline(at_ns, up_bytes, *budget);
        if (!up.ok()) return up.status();
        elapsed = up.value() - at_ns;
        budget->Charge(elapsed);
      }
      int64_t serve_ns = 0;
      auto reply = serve(at_ns + elapsed, &serve_ns);
      elapsed += serve_ns;
      *latency_ns = elapsed;
      if (!reply.ok() || link == nullptr) return reply;
      const int64_t reply_ns = at_ns + elapsed;
      auto down = link->TransferWithDeadline(reply_ns, down_bytes, *budget);
      if (!down.ok()) return down.status();
      budget->Charge(down.value() - reply_ns);
      *latency_ns = down.value() - at_ns;
      return reply;
    }
  };

  explicit ReplicaSet(BreakerPolicy policy) : policy_(policy) {}

  /// Adds a replica; nullptr channel = co-located. At most 64 replicas:
  /// routers and donor picks track them in a 64-bit mask.
  void Add(ServerNodePtr server, ChannelPtr channel);

  int64_t size() const { return static_cast<int64_t>(replicas_.size()); }
  Replica& at(int64_t i) { return replicas_[static_cast<size_t>(i)]; }
  const Replica& at(int64_t i) const {
    return replicas_[static_cast<size_t>(i)];
  }

  /// Best admissible replica at `now_ns` whose bit in `exclude_mask` is
  /// clear; -1 when none qualifies. Ties on EWMA break toward the lower
  /// index, so selection is deterministic.
  int64_t Pick(int64_t now_ns, uint64_t exclude_mask) const;

  /// Count of replicas currently admitting traffic (for gauges/tests).
  int64_t HealthyCount(int64_t now_ns) const;

 private:
  BreakerPolicy policy_;
  std::vector<Replica> replicas_;
};

}  // namespace avdb

#endif  // AVDB_CLUSTER_REPLICA_SET_H_
