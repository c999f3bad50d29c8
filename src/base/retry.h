#ifndef AVDB_BASE_RETRY_H_
#define AVDB_BASE_RETRY_H_

#include <cstdint>

#include "base/status.h"

namespace avdb {

/// Retry discipline for operations against faulty simulated hardware:
/// exponential backoff with a hard per-operation deadline. All waits are
/// charged in *virtual* nanoseconds — the caller adds the backoff to the
/// operation's modeled duration, so retries cost stream time (and show up
/// as lateness) without ever touching the host clock.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retry).
  int max_attempts = 4;
  /// Backoff before the first retry.
  int64_t initial_backoff_ns = 2 * 1000 * 1000;  // 2 ms
  /// Backoff growth per retry.
  static constexpr double kBackoffMultiplier = 2.0;
  /// Cap on a single backoff wait.
  static constexpr int64_t kMaxBackoffNs = 50 * 1000 * 1000;  // 50 ms
  /// Hard budget for one logical operation, attempts + backoffs included.
  /// Exceeding it fails the operation with DeadlineExceeded even if
  /// attempts remain — a stalled stream must be told, not kept waiting.
  int64_t deadline_ns = 200 * 1000 * 1000;  // 200 ms
  /// Decorrelated jitter. 0 keeps the deterministic exponential schedule
  /// (byte-identical to pre-jitter traces). Non-zero spreads each backoff
  /// uniformly over [initial, min(cap, 3 * previous backoff)] — the
  /// decorrelated-jitter discipline — so sessions that hit the same failed
  /// replica retry at different times instead of re-converging on it in
  /// lockstep (a retry storm). The whole schedule is a pure function of
  /// (jitter_seed, retry number): traces still replay exactly; give each
  /// session its own seed to desynchronize them.
  uint64_t jitter_seed = 0;

  /// Single-attempt policy (retries disabled).
  static RetryPolicy None() {
    RetryPolicy p;
    p.max_attempts = 1;
    return p;
  }

  /// Backoff before retry number `retry` (1-based). Exponential, capped.
  int64_t BackoffNs(int retry) const;
};

/// Per-operation retry ledger. Usage:
///
///   RetryState state(policy);
///   for (;;) {
///     auto r = op();
///     if (r.ok()) break;                     // charged_ns() owed to caller
///     AVDB_RETURN_IF_ERROR(state.BeforeRetry(r.status()));
///   }
///
/// `BeforeRetry` decides whether one more attempt is allowed: the failure
/// must be retryable (Unavailable — transient by contract), attempts must
/// remain, and the accumulated virtual-time charge plus the next backoff
/// must fit the deadline. On approval it charges the backoff; otherwise it
/// returns the terminal status (the original error, or DeadlineExceeded
/// when the budget ran out).
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy) : policy_(policy) {}

  /// OK (and charges backoff) when another attempt may run; terminal
  /// status otherwise.
  Status BeforeRetry(const Status& failure);

  /// Attempts begun so far (first attempt counts once `BeforeRetry` has
  /// been consulted; starts at 1 conceptually).
  int retries() const { return retries_; }
  /// Total virtual time charged to backoff waits.
  int64_t charged_ns() const { return charged_ns_; }

  /// True for status codes a retry can plausibly cure.
  [[nodiscard]] static bool IsRetryable(const Status& status) {
    return status.code() == StatusCode::kUnavailable;
  }

 private:
  RetryPolicy policy_;
  int retries_ = 0;
  int64_t charged_ns_ = 0;
};

}  // namespace avdb

#endif  // AVDB_BASE_RETRY_H_
