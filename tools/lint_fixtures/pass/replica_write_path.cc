// analyze-fixture-as: src/cluster/quorum_writer.cc
// Fixture: the sanctioned shapes. Replica mutations ride the serving arms
// (ServeWrite / ServeDelete / ApplyRepair) so they are fault-injected and
// priced; directory reads through store() are not mutations and are fine.
#include "base/status.h"

namespace avdb {

Status QuorumWriter::WriteTo(Replica& replica, const Buffer& data) {
  auto existing = replica.server->store().Lookup("blob");
  if (existing.ok()) return Status::OK();
  int64_t latency_ns = 0;
  return replica.server->ServeWrite("blob", data, now_ns_, &budget_,
                                    &latency_ns);
}

Status QuorumWriter::RemoveFrom(Replica& replica) {
  int64_t latency_ns = 0;
  return replica.server->ServeDelete("blob", now_ns_, &budget_, &latency_ns);
}

}  // namespace avdb
