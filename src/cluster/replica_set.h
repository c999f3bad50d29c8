#ifndef AVDB_CLUSTER_REPLICA_SET_H_
#define AVDB_CLUSTER_REPLICA_SET_H_

#include <cstdint>
#include <string>
#include <vector>

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
  };

  explicit ReplicaSet(BreakerPolicy policy) : policy_(policy) {}

  void Add(ServerNodePtr server, ChannelPtr channel) {
    replicas_.push_back(
        Replica{std::move(server), std::move(channel), ReplicaHealth(policy_)});
  }

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
