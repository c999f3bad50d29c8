// analyze-fixture-as: src/storage/bad_retry.cc
// analyze-expect: naked-retry
// Fixture: an unbounded while-loop around a device read — retries forever,
// for free, with no backoff. Must go through RetryState.
#include "base/status.h"

namespace avdb {

Status ReadUntilItWorks(BlockDevice* device, Buffer* out) {
  while (true) {
    auto cost = device->Read(0, 0, 4096, out);
    if (cost.ok()) return Status::OK();
  }
}

}  // namespace avdb
