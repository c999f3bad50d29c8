#include "cluster/node.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "time/virtual_clock.h"

namespace avdb {

ServerNode::ServerNode(std::string name, std::shared_ptr<MediaStore> store)
    : name_(std::move(name)),
      store_(std::move(store)),
      device_queue_(name_ + ".device") {
  AVDB_CHECK(store_ != nullptr) << "server node needs a store replica";
}

Status ServerNode::AdmitRequest(DeadlineBudget* budget, int64_t* latency_ns,
                                double* slow_factor) {
  *latency_ns = 0;
  *slow_factor = 1.0;
  if (injector_ == nullptr) return Status::OK();
  const NodeFaultDecision decision = injector_->OnNodeOp();
  if (decision.fail && decision.unresponsive) {
    // Partition: the node is alive but unreachable. Nothing comes back
    // until the caller's deadline gives up on it — the whole remaining
    // budget is lost (or a fixed stall when the request carries none).
    const int64_t stall = budget->unlimited() ? kDefaultPartitionStallNs
                                              : budget->remaining_ns();
    *latency_ns = stall > 0 ? stall : 0;
    budget->Charge(*latency_ns);
    ++stats_.partition_stalls;
    return Status::DeadlineExceeded("node " + name_ +
                                    " partitioned; request timed out");
  }
  if (decision.fail) {
    // Crash / node-down: connection refused. Cheap to discover.
    *latency_ns = kRefusalNs;
    budget->Charge(*latency_ns);
    ++stats_.refused;
    return Status::Unavailable("node " + name_ + " is down (" +
                               decision.kind + ")");
  }
  if (decision.slow_factor > 1.0) {
    *slow_factor = decision.slow_factor;
    ++stats_.slow_serves;
  }
  return Status::OK();
}

template <typename Op>
Status ServerNode::Serve(int64_t request_ns, DeadlineBudget* budget,
                         int64_t* latency_ns, Op op) {
  ++stats_.requests;
  double slow_factor = 1.0;
  AVDB_RETURN_IF_ERROR(AdmitRequest(budget, latency_ns, &slow_factor));

  const Result<int64_t> service = op();
  if (!service.ok()) {
    // A read works on a budget *copy*, a write or delete on none; reflect
    // what the failure burned here. A deadline failure means the read ran
    // the budget dry (Put and Delete never return one); any other error
    // (quarantine, retry exhaustion surfacing fast, a refused write) costs
    // a refusal's worth, so failover is cheap but never free.
    int64_t spent = kRefusalNs;
    if (!budget->unlimited()) {
      spent = service.status().code() == StatusCode::kDeadlineExceeded
                  ? budget->remaining_ns()
                  : std::min(budget->remaining_ns(), kRefusalNs);
    }
    *latency_ns = spent > 0 ? spent : 0;
    budget->Charge(*latency_ns);
    return service.status();
  }

  int64_t service_ns = service.value();
  if (slow_factor > 1.0) {
    service_ns =
        static_cast<int64_t>(static_cast<double>(service_ns) * slow_factor);
  }
  // Requests serialize on this replica's device arm: a second stream
  // arriving mid-service waits, exactly like the single-store path.
  const int64_t done = device_queue_.Submit(request_ns, service_ns);
  *latency_ns = done - request_ns;
  budget->Charge(*latency_ns);
  stats_.busy_ns += *latency_ns;
  return Status::OK();
}

Result<MediaStore::ReadResult> ServerNode::ServeRead(const std::string& blob,
                                                     int64_t offset,
                                                     int64_t length,
                                                     int64_t request_ns,
                                                     DeadlineBudget* budget,
                                                     int64_t* latency_ns) {
  MediaStore::ReadResult read;
  AVDB_RETURN_IF_ERROR(
      Serve(request_ns, budget, latency_ns, [&]() -> Result<int64_t> {
        auto got = store_->ReadRange(blob, offset, length, *budget);
        if (!got.ok()) return got.status();
        read = std::move(got).value();
        return VirtualClock::ToNs(read.duration);
      }));
  ++stats_.served;
  read.duration = WorldTime::FromNanos(*latency_ns);
  return read;
}

Status ServerNode::ServeWrite(const std::string& blob, const Buffer& data,
                              int64_t request_ns, DeadlineBudget* budget,
                              int64_t* latency_ns) {
  AVDB_RETURN_IF_ERROR(
      Serve(request_ns, budget, latency_ns, [&]() -> Result<int64_t> {
        auto put = store_->Put(blob, data);
        if (!put.ok()) return put.status();
        return VirtualClock::ToNs(put.value());
      }));
  if (budget->expired()) {
    // The bytes persisted but the ack is late: the client must not count
    // this replica toward its quorum. Anti-entropy reconciles the copy.
    return Status::DeadlineExceeded("write of '" + blob + "' on " + name_ +
                                    " persisted past its deadline");
  }
  ++stats_.served;
  ++stats_.writes_served;
  return Status::OK();
}

Status ServerNode::ServeDelete(const std::string& blob, int64_t request_ns,
                               DeadlineBudget* budget, int64_t* latency_ns) {
  AVDB_RETURN_IF_ERROR(
      Serve(request_ns, budget, latency_ns, [&]() -> Result<int64_t> {
        const Status deleted = store_->Delete(blob);
        if (!deleted.ok() && deleted.code() != StatusCode::kNotFound) {
          return deleted;
        }
        // A delete is a directory/journal mutation with no payload;
        // NotFound (already gone — the outcome the caller wanted) costs the
        // same lookup.
        return kMetadataOpNs;
      }));
  if (budget->expired()) {
    return Status::DeadlineExceeded("delete of '" + blob + "' on " + name_ +
                                    " persisted past its deadline");
  }
  ++stats_.served;
  ++stats_.deletes_served;
  return Status::OK();
}

Status ServerNode::ApplyRepair(const std::string& blob, const Buffer& data,
                               int64_t request_ns, int64_t* latency_ns) {
  *latency_ns = 0;
  if (injector_ != nullptr) {
    const NodeFaultDecision before = injector_->OnRepairOp();
    if (before.fail) {
      *latency_ns = kRefusalNs;
      return Status::Unavailable("node " + name_ + " lost before repair (" +
                                 before.kind + ")");
    }
  }
  if (store_->Contains(blob)) {
    AVDB_RETURN_IF_ERROR(store_->Delete(blob));
  }
  if (injector_ != nullptr) {
    // Second draw between the halves: a firing here leaves the blob absent
    // — a torn repair the next anti-entropy round detects and finishes.
    const NodeFaultDecision mid = injector_->OnRepairOp();
    if (mid.fail) {
      *latency_ns = kRefusalNs;
      return Status::Unavailable("node " + name_ + " crashed mid-repair (" +
                                 mid.kind + ")");
    }
  }
  auto put = store_->Put(blob, data);
  if (!put.ok()) return put.status();
  const int64_t done =
      device_queue_.Submit(request_ns, VirtualClock::ToNs(put.value()));
  *latency_ns = done - request_ns;
  stats_.busy_ns += *latency_ns;
  ++stats_.repairs_applied;
  return Status::OK();
}

Status ServerNode::Revive() {
  if (injector_ != nullptr) injector_->Revive();
  if (store_->mounted()) {
    // Crash-restart: the RAM directory died with the process; rebuild a
    // fresh store over the same media and recover from superblock +
    // journal.
    auto fresh = std::make_shared<MediaStore>(store_->device_ptr(),
                                              store_->buffer_cache());
    auto recovered = fresh->Recover();
    if (!recovered.ok()) return recovered.status();
    store_ = std::move(fresh);
  }
  ++stats_.revives;
  return Status::OK();
}

}  // namespace avdb
