#ifndef AVDB_CLUSTER_REPLICATED_STORE_H_
#define AVDB_CLUSTER_REPLICATED_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/deadline.h"
#include "base/result.h"
#include "base/retry.h"
#include "cluster/replica_set.h"
#include "cluster/stream_router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/media_store.h"

namespace avdb {

/// Replication knobs of one ReplicatedStore.
struct ReplicationPolicy {
  /// W: replicas that must ack before a write reports success. The write
  /// still fans out to all N replicas; W bounds what the client waits for.
  int write_quorum = 2;
  /// Per-replica write retry discipline. Give it a non-zero jitter seed so
  /// concurrent writers hitting the same struggling replica desynchronize
  /// (the PR 7 decorrelated-jitter schedule).
  RetryPolicy retry;
  /// Routing policy of the embedded self-healing read router (the shared
  /// replica set owns the breaker policy).
  RouterPolicy router;
  /// Hinted-handoff queue cap per replica; overflow drops the hint (the
  /// write is NOT lost — it acked elsewhere — anti-entropy re-converges).
  int64_t max_hints_per_replica = 4096;
};

/// Quorum-replicated client front-end over a ReplicaSet: the write-path
/// mirror of StreamRouter, plus the machinery that makes the cluster
/// self-healing — hinted handoff for replicas that miss writes, read-repair
/// for replicas whose media rots, and anti-entropy resync that drives a
/// revived node back to byte-identical convergence.
///
/// Consistency model (DESIGN.md §14): writes are Dynamo-style W-of-N with
/// no rollback — a failed quorum leaves the acked copies in place and
/// anti-entropy reconciles them by majority vote. Durability of each copy
/// still rides the PR 3 journaled MediaStore path; this layer adds
/// *redundancy*, not a new durability mechanism.
///
/// All mutations of replica stores go through ServerNode's serving arms
/// (ServeWrite / ServeDelete / ApplyRepair) — avdb-analyze's
/// `direct-replica-write` rule bans any other MediaStore::Put/Delete call
/// in the cluster layer, so every write is journaled, fault-injected, and
/// device-arm priced exactly once.
class ReplicatedStore {
 public:
  /// `now_fn` supplies virtual time; `replicas` is the shared health view —
  /// hand the same set to the session StreamRouters so read and write paths
  /// agree on who is sick.
  ReplicatedStore(std::string name, ReplicationPolicy policy,
                  std::function<int64_t()> now_fn,
                  std::shared_ptr<ReplicaSet> replicas);

  const std::string& name() const { return name_; }

  struct WriteResult {
    /// Client-visible quorum latency: the W-th fastest replica ack.
    WorldTime duration;
    int acks = 0;    ///< replicas that acked within their budget
    int hinted = 0;  ///< replicas that missed the write (hint recorded)
  };

  /// Quorum write: fans `data` to every replica in parallel (each attempt
  /// carries its own copy of the `budget_ns` deadline, retried per policy),
  /// succeeds once `write_quorum` acks land. Replicas that refuse, fail, or
  /// overrun their budget get a hinted-handoff entry instead. Unavailable
  /// when fewer than W ack — the acked copies stay (no rollback).
  Result<WriteResult> Put(const std::string& blob, const Buffer& data,
                          int64_t budget_ns);

  /// Quorum delete, same fan-out/ack/hint discipline. A replica that never
  /// had the blob counts as an ack (the desired end state holds there).
  Result<WriteResult> Delete(const std::string& blob, int64_t budget_ns);

  /// Self-healing routed read: delegates to the embedded StreamRouter,
  /// whose DataLoss path calls RepairBlob and retries the healed replica —
  /// quarantine is a transient state, not a tombstone.
  Result<MediaStore::ReadResult> Read(const std::string& blob, int64_t offset,
                                      int64_t length, int64_t budget_ns);

  /// Read access to the embedded router (stats, hedging knobs, tests).
  StreamRouter& router() { return *router_; }

  /// Read-repair of one damaged blob on replica `replica_idx`: the
  /// replica's own directory entry is the intent (its page digests were
  /// computed at Put time and outlive media rot), a healthy peer holding
  /// the same version is chosen by EWMA, only pages whose local bytes fail
  /// their digest are streamed, and the rebuilt blob is rewritten through
  /// the journaled ApplyRepair path.
  Status RepairBlob(int64_t replica_idx, const std::string& blob);

  /// Scrub replica `replica_idx` and repair every blob the scrub
  /// quarantined. Returns how many were healed.
  Result<int64_t> RepairQuarantined(int64_t replica_idx);

  struct ReplayReport {
    int64_t replayed = 0;  ///< hints applied and dequeued
    int64_t failed = 0;    ///< apply failures (remaining hints stay queued)
  };

  /// Replays replica `replica_idx`'s hinted-handoff queue in order,
  /// idempotently (a hint whose write already landed is dequeued without
  /// rewriting). Stops at the first failure, leaving the tail queued for
  /// the next round.
  Result<ReplayReport> ReplayHints(int64_t replica_idx);

  /// Crash-restart revive of replica `replica_idx` (ServerNode::Revive:
  /// remount + Recover) followed by hint replay.
  Status ReviveReplica(int64_t replica_idx);

  struct ResyncReport {
    int64_t blobs_compared = 0;
    int64_t blobs_streamed = 0;   ///< divergent copies rebuilt
    int64_t pages_streamed = 0;   ///< pages fetched over the network
    int64_t bytes_streamed = 0;
    int64_t deletes_applied = 0;  ///< copies removed by majority-absent vote
    int64_t hints_replayed = 0;
    int64_t unrepairable = 0;     ///< names with no healthy copy anywhere
    bool converged = false;       ///< all live replicas byte-identical after
  };

  /// One anti-entropy round: replay pending hints, compare per-replica
  /// directory + page-digest summaries (the digests already sit in the
  /// directory entries — no blob bytes are hashed), vote per name
  /// (majority page digest wins; majority-absent deletes), and stream only
  /// divergent extents to the losers. Down replicas are skipped (and the
  /// round reports non-convergence). Idempotent: a second round over a
  /// converged cluster streams nothing.
  ResyncReport RunAntiEntropy();

  /// Virtual-time cadence of the background anti-entropy activity.
  static constexpr int64_t kResyncIntervalNs = 10LL * 1000 * 1000 * 1000;

  /// Background-activity driver: runs a round iff kResyncIntervalNs of
  /// virtual time elapsed since the last round. Returns whether it ran.
  bool MaybeRunAntiEntropy();

  /// Directory-level fingerprint of one blob on one replica, comparable
  /// across replicas without touching blob bytes.
  struct BlobSummary {
    int64_t size_bytes = 0;
    /// FastHash64 over the entry's page-digest list: the content identity
    /// the vote compares.
    uint64_t pages_digest = 0;
    bool quarantined = false;

    friend bool operator==(const BlobSummary& a, const BlobSummary& b) {
      return a.size_bytes == b.size_bytes &&
             a.pages_digest == b.pages_digest &&
             a.quarantined == b.quarantined;
    }
    friend bool operator!=(const BlobSummary& a, const BlobSummary& b) {
      return !(a == b);
    }
  };

  /// Full directory summary of replica `replica_idx` (Unavailable while
  /// it is down).
  Result<std::map<std::string, BlobSummary>> ReplicaSummary(
      int64_t replica_idx) const;

  /// True when every replica is up, hint queues are empty, and all
  /// directory summaries are byte-identical — the convergence the bench's
  /// digest comparison gates on.
  bool Converged() const;

  /// Hints currently queued for replica `replica_idx`.
  int64_t HintCount(int64_t replica_idx) const;

  struct Stats {
    int64_t quorum_puts = 0;
    int64_t quorum_deletes = 0;
    int64_t quorum_failures = 0;     ///< writes that missed W acks
    int64_t write_acks = 0;          ///< per-replica acks across all writes
    int64_t breaker_opens = 0;       ///< opens recorded by the write path
    int64_t hints_recorded = 0;
    int64_t hint_overflow = 0;       ///< hints dropped at the queue cap
    int64_t hints_replayed = 0;
    int64_t hint_replay_failures = 0;
    int64_t repair_attempts = 0;
    int64_t repairs = 0;             ///< blobs healed (read-repair + resync)
    int64_t repair_failures = 0;
    int64_t repair_pages_streamed = 0;
    int64_t repair_bytes_streamed = 0;
    int64_t resync_rounds = 0;
    int64_t resync_blobs_streamed = 0;
    int64_t resync_deletes = 0;
    int64_t data_loss_events = 0;    ///< names with no healthy copy left
  };
  const Stats& stats() const { return stats_; }

  /// Binds `avdb_cluster_repair_*` / `avdb_cluster_handoff_*` / quorum
  /// instruments and the `read_repair` / `anti_entropy` / `handoff_replay`
  /// trace events (actor = store name); also binds the embedded read
  /// router. nullptr detaches.
  void BindObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer);

 private:
  struct Hint {
    bool is_delete = false;
    std::string blob;
    Buffer data;
  };

  /// One deadline-budgeted, retried write (or delete) against replica
  /// `idx`, starting at `start_ns`: each attempt is one round trip of the
  /// replica. `*latency_ns` is the full modeled cost including transfers,
  /// refusals, and backoff.
  Status WriteToReplica(int64_t idx, const Hint& op, DeadlineBudget* budget,
                        int64_t start_ns, int64_t* latency_ns);

  /// Shared fan-out body of Put/Delete.
  Result<WriteResult> QuorumWrite(const Hint& op, int64_t budget_ns);

  /// Records a hinted-handoff entry for replica `idx`, superseding any
  /// earlier hint for the same blob.
  void RecordHint(int64_t idx, const Hint& op);
  /// Applies one hint to a live replica (idempotent: a replica whose entry
  /// already has the page digests of `hint.data` is left alone).
  Status ApplyHint(int64_t idx, const Hint& hint);

  /// Rebuilds `blob` on replica `target_idx` to match `winner` (a copied
  /// directory entry): pages whose local unverified bytes already hash to
  /// the winner digest are salvaged, the rest are fetched from `donor_idx`
  /// and verified, and the result lands via ApplyRepair.
  Status StreamBlobTo(int64_t target_idx, const std::string& blob,
                      const StoredBlob& winner, int64_t donor_idx,
                      int64_t* pages_streamed);

  /// One page fetched from a donor replica: a round trip with no deadline.
  Result<Buffer> FetchFromDonor(int64_t donor_idx, const std::string& blob,
                                int64_t offset, int64_t length);

  /// Lowest-EWMA live replica holding a non-quarantined copy of `blob` at
  /// `version` (same size and page digests), excluding `exclude_idx`; -1
  /// when none.
  int64_t PickDonor(const std::string& blob, const StoredBlob& version,
                    int64_t exclude_idx) const;

  std::map<std::string, BlobSummary> BuildSummary(int64_t replica_idx) const;
  void EnsureHintSlots();
  void NoteBreakerOpen(int64_t idx, int64_t now_ns);

  std::string name_;
  ReplicationPolicy policy_;
  std::function<int64_t()> now_fn_;
  std::shared_ptr<ReplicaSet> replicas_;
  std::unique_ptr<StreamRouter> router_;
  std::vector<std::deque<Hint>> hints_;
  Stats stats_;
  int64_t op_seq_ = 0;          ///< writes issued; decorrelates retry jitter
  int64_t last_resync_ns_ = -1;

  obs::CounterBinding counters_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace avdb

#endif  // AVDB_CLUSTER_REPLICATED_STORE_H_
