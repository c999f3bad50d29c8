// analyze-fixture-as: src/cluster/rogue_writer.cc
// analyze-expect: direct-replica-write
// Fixture: a cluster-layer component mutating a replica's MediaStore
// directly. The write skips ServeWrite's fault model, virtual-time
// pricing, and the quorum accounting — replicas silently diverge.
#include "base/status.h"

namespace avdb {

Status RogueWriter::Flush(const Buffer& data) {
  AVDB_RETURN_IF_ERROR(replica_.server->store().Put("blob", data).status());
  return store_->Delete("stale");
}

}  // namespace avdb
