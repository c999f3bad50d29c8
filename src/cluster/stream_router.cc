#include "cluster/stream_router.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "time/virtual_clock.h"

namespace avdb {

namespace {

// Lower bound on the hedge delay: never hedge earlier than this even if the
// p95 estimate collapses.
constexpr int64_t kHedgeFloorNs = 1000 * 1000;  // 1 ms

}  // namespace

StreamRouter::StreamRouter(std::string name, RouterPolicy policy,
                           std::function<int64_t()> now_fn,
                           std::shared_ptr<ReplicaSet> replicas)
    : name_(std::move(name)),
      policy_(policy),
      now_fn_(std::move(now_fn)),
      replicas_(std::move(replicas)) {
  AVDB_CHECK(now_fn_ != nullptr) << "router needs a virtual-time source";
  AVDB_CHECK(policy_.max_attempts > 0) << "router needs at least one attempt";
  AVDB_CHECK(replicas_ != nullptr) << "router needs a replica set";
  latency_window_.reserve(static_cast<size_t>(kLatencyWindow));
  latency_sorted_.reserve(static_cast<size_t>(kLatencyWindow));
}

void StreamRouter::ObserveAttemptLatency(int64_t latency_ns) {
  if (latency_window_.size() < static_cast<size_t>(kLatencyWindow)) {
    latency_window_.push_back(latency_ns);
  } else {
    int64_t& oldest = latency_window_[static_cast<size_t>(latency_next_)];
    latency_sorted_.erase(std::lower_bound(latency_sorted_.begin(),
                                           latency_sorted_.end(), oldest));
    oldest = latency_ns;
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  }
  latency_sorted_.insert(std::upper_bound(latency_sorted_.begin(),
                                          latency_sorted_.end(), latency_ns),
                         latency_ns);
}

int64_t StreamRouter::HedgeDelayNs() const {
  const size_t n = latency_sorted_.size();
  if (n < static_cast<size_t>(policy_.min_hedge_samples)) return 0;
  const int64_t p95 = latency_sorted_[std::min((n * 95) / 100, n - 1)];
  return std::max(p95, kHedgeFloorNs);
}

void StreamRouter::NoteBreakerOpen(int64_t idx, int64_t now_ns) {
  ++stats_.breaker_opens;
  if (tracer_ != nullptr) {
    tracer_->EventAt(now_ns, "cluster", "breaker_open", name_,
                     replicas_->at(idx).server->name() + " after " +
                         std::to_string(
                             replicas_->at(idx).health.consecutive_failures()) +
                         " consecutive failures");
  }
}

StreamRouter::AttemptOutcome StreamRouter::Attempt(
    int64_t idx, const std::string& blob, int64_t offset, int64_t length,
    DeadlineBudget budget, int64_t start_ns) {
  ReplicaSet::Replica& replica = replicas_->at(idx);
  int64_t latency_ns = 0;
  auto result = replica.RoundTrip(
      start_ns, kRequestBytes, length, &budget, &latency_ns,
      [&](int64_t arrive_ns, int64_t* serve_ns) {
        return replica.server->ServeRead(blob, offset, length, arrive_ns,
                                         &budget, serve_ns);
      });
  if (result.ok()) result.value().duration = WorldTime::FromNanos(latency_ns);
  return {std::move(result), latency_ns};
}

Result<MediaStore::ReadResult> StreamRouter::Fetch(const std::string& blob,
                                                   int64_t offset,
                                                   int64_t length,
                                                   int64_t budget_ns) {
  ++stats_.fetches;

  if (budget_ns <= 0) {
    // Already doomed on arrival: no replica, channel, or rng is touched.
    ++stats_.deadline_fast_fails;
    return Status::DeadlineExceeded("fetch of '" + blob +
                                    "' arrived with its budget spent");
  }

  DeadlineBudget budget = DeadlineBudget::FromNs(budget_ns);
  const int64_t start_ns = now_fn_();
  int64_t elapsed = 0;
  uint64_t tried = 0;
  int attempts = 0;
  int failed_attempts = 0;
  bool hedged = false;
  Status last_error;  // of the latest failed attempt

  while (attempts < policy_.max_attempts) {
    const int64_t now = start_ns + elapsed;
    const int64_t idx = replicas_->Pick(now, tried);
    if (idx < 0) break;
    replicas_->at(idx).health.Admit(now);
    tried |= uint64_t{1} << idx;
    if (attempts > 0) {
      // A replacement attempt after a failure: the failover itself.
      ++stats_.failovers;
      if (tracer_ != nullptr) {
        tracer_->EventAt(now, "cluster", "failover", name_,
                         "-> " + replicas_->at(idx).server->name() + " for '" +
                             blob + "' (" + last_error.message() + ")");
      }
    }
    ++attempts;

    AttemptOutcome primary = Attempt(idx, blob, offset, length, budget, now);
    if (primary.result.ok()) {
      const int64_t d1 = primary.latency_ns;
      // The hedge decision uses the latency window as it stood when the
      // request was issued: observing d1 first would let a slow primary
      // raise the p95 past itself and veto its own hedge.
      const int64_t hedge_delay = HedgeDelayNs();
      ObserveAttemptLatency(d1);
      replicas_->at(idx).health.RecordSuccess(d1);

      MediaStore::ReadResult winner = std::move(primary.result).value();
      int64_t winner_latency = d1;

      // Hedge: the primary ran past the p95 delay, so (in real time) a
      // second copy went to the next-best replica at start + delay.
      if (hedge_delay > 0 && d1 > hedge_delay &&
          !budget.CannotAfford(hedge_delay)) {
        const int64_t hidx = replicas_->Pick(now + hedge_delay, tried);
        if (hidx >= 0) {
          replicas_->at(hidx).health.Admit(now + hedge_delay);
          tried |= uint64_t{1} << hidx;
          hedged = true;
          ++stats_.hedges;
          DeadlineBudget hedge_budget = budget;
          hedge_budget.Charge(hedge_delay);
          AttemptOutcome hedge = Attempt(hidx, blob, offset, length,
                                         hedge_budget, now + hedge_delay);
          if (hedge.result.ok()) {
            ObserveAttemptLatency(hedge.latency_ns);
            replicas_->at(hidx).health.RecordSuccess(hedge.latency_ns);
            const int64_t hedge_total = hedge_delay + hedge.latency_ns;
            if (hedge_total < d1) {
              ++stats_.hedge_wins;
              if (tracer_ != nullptr) {
                tracer_->EventAt(now + hedge_total, "cluster", "hedge_win",
                                 name_,
                                 replicas_->at(hidx).server->name() + " beat " +
                                     replicas_->at(idx).server->name() +
                                     " by " +
                                     std::to_string((d1 - hedge_total) /
                                                    1000000) +
                                     " ms");
              }
              winner = std::move(hedge.result).value();
              winner_latency = hedge_total;
            }
          } else if (replicas_->at(hidx).health.RecordFailure(
                         now + hedge_delay + hedge.latency_ns)) {
            NoteBreakerOpen(hidx, now + hedge_delay + hedge.latency_ns);
          }
        }
      }

      elapsed += winner_latency;
      winner.duration = WorldTime::FromNanos(elapsed);
      if (counters_.bound()) fetch_latency_.Observe(elapsed);
      if (tracer_ != nullptr && (failed_attempts > 0 || hedged)) {
        const int64_t span = tracer_->BeginSpanAt(start_ns, "cluster",
                                                  "routed_fetch", name_);
        tracer_->EndSpanAt(span, start_ns + elapsed,
                           std::to_string(failed_attempts) + " failovers, " +
                               (hedged ? "hedged" : "unhedged"));
      }
      return winner;
    }

    // Attempt failed: record, charge what the failure cost, fail over.
    ++failed_attempts;
    last_error = primary.result.status();
    if (last_error.code() == StatusCode::kDataLoss && read_repair_ != nullptr &&
        read_repair_(idx, blob)) {
      // The replica held corrupt/quarantined bytes and the repairer healed
      // it in place. The node itself is fine — no breaker strike — and it
      // may serve the retry, so clear it from the tried mask.
      ++stats_.read_repairs;
      tried &= ~(uint64_t{1} << idx);
    } else if (replicas_->at(idx).health.RecordFailure(now +
                                                       primary.latency_ns)) {
      NoteBreakerOpen(idx, now + primary.latency_ns);
    }
    budget.Charge(primary.latency_ns);
    elapsed += primary.latency_ns;
    if (budget.expired()) {
      ++stats_.deadline_give_ups;
      return Status::DeadlineExceeded(
          "fetch of '" + blob + "' abandoned after " +
          std::to_string(attempts) + " attempts; budget spent (" +
          last_error.message() + ")");
    }
  }

  ++stats_.exhausted;
  if (!last_error.ok()) return last_error;
  // No attempt ran: the set is empty, or every breaker refuses traffic.
  if (replicas_->size() == 0) {
    return Status::Unavailable("no replicas configured");
  }
  return Status::Unavailable("fetch of '" + blob + "' found all " +
                             std::to_string(replicas_->size()) +
                             " replicas refusing traffic (breakers open)");
}

void StreamRouter::BindObservability(obs::MetricsRegistry* registry,
                                     obs::Tracer* tracer) {
  tracer_ = tracer;
  counters_.Bind(
      registry,
      {{"avdb_cluster_fetches_total", "routed fetches issued",
        &stats_.fetches},
       {"avdb_cluster_failovers_total",
        "replacement attempts after a replica failure", &stats_.failovers},
       {"avdb_cluster_hedges_total", "hedge requests issued", &stats_.hedges},
       {"avdb_cluster_hedge_wins_total", "hedges that beat the primary",
        &stats_.hedge_wins},
       {"avdb_cluster_breaker_opens_total",
        "circuit-breaker open transitions", &stats_.breaker_opens},
       {"avdb_cluster_deadline_fast_fails_total",
        "fetches refused because the budget arrived spent",
        &stats_.deadline_fast_fails},
       {"avdb_cluster_deadline_give_ups_total",
        "fetches abandoned mid-failover when the budget ran out",
        &stats_.deadline_give_ups},
       {"avdb_cluster_exhausted_total",
        "fetches that ran out of admissible replicas", &stats_.exhausted},
       {"avdb_cluster_fetch_latency_ns", "client-visible routed fetch latency",
        fetch_latency_},
       {"avdb_cluster_healthy_replicas",
        "replicas whose breaker currently admits traffic",
        [this] { return replicas_->HealthyCount(now_fn_()); }}});
}

}  // namespace avdb
