#ifndef AVDB_CLUSTER_NODE_H_
#define AVDB_CLUSTER_NODE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "base/deadline.h"
#include "base/fault_injector.h"
#include "base/result.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/service_queue.h"
#include "storage/media_store.h"

namespace avdb {

/// One serving machine of a replicated deployment: a MediaStore replica
/// plus the device arm requests serialize on. Node-granularity faults
/// (crash, partition, slow node — FaultSpec's node classes) are consulted
/// once per served request, *before* the store's own device faults, so a
/// whole machine failing layers on top of per-device failure modes.
///
/// Timing semantics per fault class:
///  - crash / node-down: fast refusal. The machine rejects the connection;
///    the caller loses only `kRefusalNs` before it can fail over.
///  - partition: unreachable-but-alive. The request burns its *entire*
///    remaining deadline budget (or `partition_stall_ns` when unlimited)
///    before surfacing DeadlineExceeded — the expensive failure mode that
///    motivates deadline propagation.
///  - slow node: the request is served correctly but its device time is
///    multiplied by the spec's slow factor before queueing on the arm.
class ServerNode {
 public:
  /// What a crash refusal costs the caller in modeled time (connection
  /// reset, not a timeout).
  static constexpr int64_t kRefusalNs = 200 * 1000;  // 200 us
  /// Budget burned by a partitioned node when the request carries no
  /// deadline — the "default TCP timeout" of the simulation.
  static constexpr int64_t kDefaultPartitionStallNs = 2'000'000'000;

  ServerNode(std::string name, std::shared_ptr<MediaStore> store);

  const std::string& name() const { return name_; }
  MediaStore& store() { return *store_; }
  const MediaStore& store() const { return *store_; }
  ServiceQueue& device_queue() { return device_queue_; }

  /// Attaches the node-granularity fault injector (non-owning; nullptr
  /// detaches). Distinct from the store's device injector: this one models
  /// the machine, that one the platter.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Serves one ranged read arriving at `request_ns` under `budget`.
  /// On success `*latency_ns` is the full server-side latency (queue wait +
  /// device time, slow-node factor applied) and the budget has been charged
  /// with it. On failure `*latency_ns` is what the failure cost the caller
  /// (see class comment) and the budget is charged likewise.
  Result<MediaStore::ReadResult> ServeRead(const std::string& blob,
                                           int64_t offset, int64_t length,
                                           int64_t request_ns,
                                           DeadlineBudget* budget,
                                           int64_t* latency_ns);

  /// Modeled cost of a directory-only mutation (a Delete: journal records,
  /// no payload) on the device arm.
  static constexpr int64_t kMetadataOpNs = 500 * 1000;  // 500 us

  /// Serves one replica write arriving at `request_ns` under `budget`: node
  /// faults consulted first (same taxonomy as ServeRead), then the store's
  /// journaled Put, then the device arm. On success the budget has been
  /// charged with `*latency_ns`; a write whose device time overruns the
  /// budget returns DeadlineExceeded even though the bytes persisted — the
  /// client must not count an ack it never saw in time (anti-entropy
  /// reconciles the extra copy).
  Status ServeWrite(const std::string& blob, const Buffer& data,
                    int64_t request_ns, DeadlineBudget* budget,
                    int64_t* latency_ns);

  /// Serves one replica delete. NotFound passes through un-retried (the
  /// blob is already gone — the outcome the caller wanted).
  Status ServeDelete(const std::string& blob, int64_t request_ns,
                     DeadlineBudget* budget, int64_t* latency_ns);

  /// Repair/resync write arm: replaces `blob` with `data` through the
  /// journaled path (delete-if-present + put), consulting the injector's
  /// crash-during-repair draw before each half — a firing between them
  /// leaves a torn repair for the next anti-entropy round. Runs without a
  /// deadline (repair is background work); `*latency_ns` reports the
  /// modeled device-arm time. This is the ONLY sanctioned direct
  /// MediaStore mutation in the cluster layer (see avdb-analyze
  /// `direct-replica-write`).
  Status ApplyRepair(const std::string& blob, const Buffer& data,
                     int64_t request_ns, int64_t* latency_ns);

  /// True once a deterministic node crash has fired (requests fail fast
  /// until Revive()).
  bool down() const { return injector_ != nullptr && injector_->node_down(); }

  /// Reboots a crashed node with crash-restart semantics: the injector is
  /// revived and, when the store is mounted, a *fresh* MediaStore is built
  /// over the same device and recovered from the on-device superblock +
  /// journal — the pre-crash in-memory directory is deliberately lost, as
  /// it would be on real hardware. An unmounted store has no durable
  /// metadata to recover, so it resumes with its RAM directory (the
  /// legacy pre-durability behavior).
  Status Revive();

  struct Stats {
    int64_t requests = 0;
    int64_t served = 0;
    int64_t refused = 0;        ///< crash / node-down fast refusals
    int64_t partition_stalls = 0;
    int64_t slow_serves = 0;
    int64_t busy_ns = 0;        ///< server-side latency of served requests
    int64_t writes_served = 0;  ///< replica Puts applied
    int64_t deletes_served = 0; ///< replica Deletes applied
    int64_t repairs_applied = 0;///< repair/resync rewrites landed
    int64_t revives = 0;        ///< crash-restarts completed
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Node-fault preamble of Serve: consults the injector once, charges the
  /// budget for a partition stall or crash refusal, and reports the
  /// slow-node factor for served requests.
  Status AdmitRequest(DeadlineBudget* budget, int64_t* latency_ns,
                      double* slow_factor);

  /// The serving arm of ServeRead, ServeWrite and ServeDelete: counts the
  /// request, admits it past the node faults, runs `op` (the store call,
  /// returning its modeled service time in ns or an error), prices a
  /// failure (a limited DeadlineExceeded costs the whole remaining budget,
  /// any other limited error the smaller of that and kRefusalNs, an
  /// unlimited one kRefusalNs), applies the slow-node factor, queues the
  /// service on the device arm, and charges the budget with `*latency_ns`.
  template <typename Op>
  Status Serve(int64_t request_ns, DeadlineBudget* budget, int64_t* latency_ns,
               Op op);

  std::string name_;
  std::shared_ptr<MediaStore> store_;
  ServiceQueue device_queue_;
  FaultInjector* injector_ = nullptr;
  Stats stats_;
};

using ServerNodePtr = std::shared_ptr<ServerNode>;

}  // namespace avdb

#endif  // AVDB_CLUSTER_NODE_H_
