// analyze-fixture-as: src/cluster/bad_retry.cc
// analyze-expect: naked-retry
// Fixture: a hand-rolled retry loop around a channel transfer. Retries
// charge no virtual time and ignore the deadline budget and jitter policy.
#include "base/status.h"

namespace avdb {

Status SendWithHomegrownRetry(Channel* link, int64_t bytes) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto done = link->Transfer(0, bytes);
    if (done.ok()) return Status::OK();
  }
  return Status::Unavailable("gave up");
}

}  // namespace avdb
