#include "cluster/replica_set.h"

#include <utility>

#include "base/logging.h"

namespace avdb {

void ReplicaHealth::Admit(int64_t now_ns) {
  if (open_ && !probe_in_flight_ && now_ns >= open_until_ns_) {
    // Half-open probe: claim the single probe slot and push the cooldown
    // forward. The `!probe_in_flight_` guard keeps the slot claimed even
    // when the probe outlives a whole cooldown (a partition stall can run
    // seconds) — without it a second cooldown expiry would admit a second
    // "probe" and every waiting session would pile onto the recovering
    // node at once.
    probe_in_flight_ = true;
    open_until_ns_ = now_ns + policy_.open_cooldown_ns;
  }
}

void ReplicaHealth::RecordSuccess(int64_t latency_ns) {
  consecutive_failures_ = 0;
  open_ = false;
  probe_in_flight_ = false;
  const double alpha = policy_.ewma_alpha;
  ewma_latency_ns_ = static_cast<int64_t>(
      alpha * static_cast<double>(latency_ns) +
      (1.0 - alpha) * static_cast<double>(ewma_latency_ns_));
}

bool ReplicaHealth::RecordFailure(int64_t now_ns) {
  ++consecutive_failures_;
  if (open_) {
    // A failed half-open probe re-opens for a full cooldown. Count it as a
    // fresh opening only if it was the probe (the breaker had let traffic
    // through again).
    const bool was_probe = probe_in_flight_;
    probe_in_flight_ = false;
    open_until_ns_ = now_ns + policy_.open_cooldown_ns;
    return was_probe;
  }
  if (consecutive_failures_ >= policy_.failure_threshold) {
    open_ = true;
    probe_in_flight_ = false;
    open_until_ns_ = now_ns + policy_.open_cooldown_ns;
    return true;
  }
  return false;
}

void ReplicaSet::Add(ServerNodePtr server, ChannelPtr channel) {
  AVDB_CHECK(size() < 64) << "replica mask is 64 bits wide";
  replicas_.push_back(
      Replica{std::move(server), std::move(channel), ReplicaHealth(policy_)});
}

int64_t ReplicaSet::Pick(int64_t now_ns, uint64_t exclude_mask) const {
  int64_t best = -1;
  int64_t best_latency = 0;
  for (int64_t i = 0; i < size(); ++i) {
    if ((exclude_mask >> i) & 1u) continue;
    const Replica& r = replicas_[static_cast<size_t>(i)];
    if (!r.health.CanAdmit(now_ns)) continue;
    const int64_t latency = r.health.ewma_latency_ns();
    if (best < 0 || latency < best_latency) {
      best = i;
      best_latency = latency;
    }
  }
  return best;
}

int64_t ReplicaSet::HealthyCount(int64_t now_ns) const {
  int64_t n = 0;
  for (const Replica& r : replicas_) {
    if (r.health.CanAdmit(now_ns)) ++n;
  }
  return n;
}

}  // namespace avdb
