// analyze-fixture-as: src/storage/good_retry.cc
// Fixture: the sanctioned shapes. A retry loop driven by RetryState (each
// attempt charges virtual time and honors backoff/jitter/deadline), and a
// parsing loop over a buffer whose ReadU32-style helpers are not retries.
#include "base/retry.h"
#include "base/status.h"

namespace avdb {

Result<int64_t> ReadWithPolicy(BlockDevice* device, Buffer* out) {
  RetryState state(RetryPolicy{});
  for (;;) {
    auto cost = device->Read(0, 0, 4096, out);
    if (cost.ok()) return cost.value();
    const Status verdict = state.BeforeRetry(cost.status());
    if (!verdict.ok()) return verdict;
  }
}

Result<int64_t> SumHeader(BufferReader* r, int64_t count) {
  int64_t total = 0;
  for (int64_t i = 0; i < count; ++i) {
    auto word = r->ReadU32();
    if (!word.ok()) return word.status();
    total += word.value();
  }
  return total;
}

}  // namespace avdb
