// analyze-fixture-as: src/storage/bad_discard.cc
// analyze-expect: void-cast-call
// Fixture: a void-cast call is an invisible status drop; deliberate
// discards must go through AVDB_IGNORE_STATUS with a justification.
#include "base/status.h"

namespace avdb {

Status Flush();

void Shutdown() {
  (void)Flush();
}

}  // namespace avdb
