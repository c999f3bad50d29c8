#include "base/retry.h"

#include <algorithm>
#include <string>

#include "base/rng.h"

namespace avdb {

int64_t RetryPolicy::BackoffNs(int retry) const {
  if (retry <= 0) return 0;
  if (jitter_seed != 0) {
    // Decorrelated jitter: backoff(r) is uniform over
    // [initial, min(cap, 3 * backoff(r-1))]. Re-deriving the chain from a
    // fresh Rng each call keeps the value a pure function of
    // (jitter_seed, retry) — RetryState may probe BackoffNs(r+1) for its
    // deadline check without perturbing the schedule.
    Rng rng(jitter_seed);
    int64_t backoff = initial_backoff_ns;
    for (int i = 1; i <= retry; ++i) {
      const int64_t upper =
          std::min(kMaxBackoffNs,
                   backoff > kMaxBackoffNs ? kMaxBackoffNs : 3 * backoff);
      backoff = upper <= initial_backoff_ns
                    ? initial_backoff_ns
                    : rng.NextInRange(initial_backoff_ns, upper);
    }
    return backoff;
  }
  double backoff = static_cast<double>(initial_backoff_ns);
  for (int i = 1; i < retry; ++i) backoff *= kBackoffMultiplier;
  const double cap = static_cast<double>(kMaxBackoffNs);
  if (backoff > cap) backoff = cap;
  return static_cast<int64_t>(backoff);
}

Status RetryState::BeforeRetry(const Status& failure) {
  if (failure.ok()) {
    return Status::Internal("BeforeRetry called with OK status");
  }
  if (!IsRetryable(failure)) return failure;
  if (retries_ + 1 >= policy_.max_attempts) {
    return Status(failure.code(),
                  failure.message() + " (after " +
                      std::to_string(policy_.max_attempts) + " attempts)");
  }
  const int64_t backoff = policy_.BackoffNs(retries_ + 1);
  if (charged_ns_ + backoff > policy_.deadline_ns) {
    return Status::DeadlineExceeded(
        "retry budget of " + std::to_string(policy_.deadline_ns) +
        "ns exhausted after " + std::to_string(retries_ + 1) +
        " attempts: " + failure.message());
  }
  ++retries_;
  charged_ns_ += backoff;
  return Status::OK();
}

}  // namespace avdb
