#include "cluster/replicated_store.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/logging.h"
#include "time/virtual_clock.h"

namespace avdb {

ReplicatedStore::ReplicatedStore(std::string name, ReplicationPolicy policy,
                                 std::function<int64_t()> now_fn,
                                 std::shared_ptr<ReplicaSet> replicas)
    : name_(std::move(name)),
      policy_(policy),
      now_fn_(std::move(now_fn)),
      replicas_(std::move(replicas)) {
  AVDB_CHECK(now_fn_ != nullptr) << "replicated store needs a time source";
  AVDB_CHECK(replicas_ != nullptr) << "replicated store needs a replica set";
  AVDB_CHECK(policy_.write_quorum >= 1) << "write quorum must be positive";
  router_ = std::make_unique<StreamRouter>(name_ + ".read", policy_.router,
                                           now_fn_, replicas_);
  router_->SetReadRepair([this](int64_t idx, const std::string& blob) {
    return RepairBlob(idx, blob).ok();
  });
}

void ReplicatedStore::EnsureHintSlots() {
  if (static_cast<int64_t>(hints_.size()) < replicas_->size()) {
    hints_.resize(static_cast<size_t>(replicas_->size()));
  }
}

void ReplicatedStore::NoteBreakerOpen(int64_t idx, int64_t now_ns) {
  ++stats_.breaker_opens;
  if (tracer_ != nullptr) {
    tracer_->EventAt(now_ns, "cluster", "breaker_open", name_,
                     replicas_->at(idx).server->name() + " opened by a write");
  }
}

void ReplicatedStore::RecordHint(int64_t idx, const Hint& op) {
  EnsureHintSlots();
  std::deque<Hint>& queue = hints_[static_cast<size_t>(idx)];
  // Newer intent supersedes older for the same blob: replaying both would
  // be correct (last write wins) but pointless work for the revived node.
  for (auto it = queue.begin(); it != queue.end();) {
    if (it->blob == op.blob) {
      it = queue.erase(it);
    } else {
      ++it;
    }
  }
  if (static_cast<int64_t>(queue.size()) >= policy_.max_hints_per_replica) {
    // The write itself is safe on its acked replicas; dropping the hint
    // only defers this replica's catch-up to anti-entropy.
    ++stats_.hint_overflow;
    return;
  }
  queue.push_back(op);
  ++stats_.hints_recorded;
}

Status ReplicatedStore::WriteToReplica(int64_t idx, const Hint& op,
                                       DeadlineBudget* budget,
                                       int64_t start_ns,
                                       int64_t* latency_ns) {
  RetryPolicy retry = policy_.retry;
  if (retry.jitter_seed != 0) {
    // Decorrelate per (replica, write): two replicas — or two writes —
    // retrying the same struggling node must not re-converge in lockstep.
    retry.jitter_seed += static_cast<uint64_t>(idx) * 0x9E3779B97F4A7C15ULL +
                         static_cast<uint64_t>(op_seq_) * 0x2545F4914F6CDD1DULL;
  }
  // One attempt: the write (or delete) envelope up the replica's link, the
  // node's serving arm, a request-sized ack back.
  ReplicaSet::Replica& replica = replicas_->at(idx);
  const int64_t up_bytes =
      StreamRouter::kRequestBytes +
      (op.is_delete ? 0 : static_cast<int64_t>(op.data.size()));
  const auto serve = [&](int64_t arrive_ns, int64_t* serve_ns) {
    return op.is_delete ? replica.server->ServeDelete(op.blob, arrive_ns,
                                                      budget, serve_ns)
                        : replica.server->ServeWrite(op.blob, op.data,
                                                     arrive_ns, budget,
                                                     serve_ns);
  };
  RetryState state(retry);
  int64_t elapsed = 0;
  for (;;) {
    int64_t attempt_latency = 0;
    const Status attempt =
        replica.RoundTrip(start_ns + elapsed, up_bytes,
                          StreamRouter::kRequestBytes, budget,
                          &attempt_latency, serve);
    elapsed += attempt_latency;
    if (attempt.ok()) {
      *latency_ns = elapsed;
      return Status::OK();
    }
    const int64_t charged_before = state.charged_ns();
    const Status verdict = state.BeforeRetry(attempt);
    if (!verdict.ok()) {
      *latency_ns = elapsed;
      return verdict;
    }
    const int64_t backoff = state.charged_ns() - charged_before;
    budget->Charge(backoff);
    elapsed += backoff;
    if (budget->expired()) {
      *latency_ns = elapsed;
      return Status::DeadlineExceeded("write of '" + op.blob +
                                      "' ran out of budget between retries");
    }
  }
}

Result<ReplicatedStore::WriteResult> ReplicatedStore::QuorumWrite(
    const Hint& op, int64_t budget_ns) {
  ++op_seq_;
  if (budget_ns <= 0) {
    return Status::DeadlineExceeded("quorum write of '" + op.blob +
                                    "' arrived with its budget spent");
  }
  EnsureHintSlots();
  const int64_t n = replicas_->size();
  if (n == 0) return Status::Unavailable("no replicas configured");
  const int64_t start_ns = now_fn_();

  // The fan-out is parallel in the model: every replica attempt starts at
  // `start_ns` with its own copy of the budget, and the client-visible
  // quorum latency is the W-th fastest ack.
  std::vector<int64_t> ack_latencies;
  int hinted = 0;
  for (int64_t i = 0; i < n; ++i) {
    ReplicaSet::Replica& replica = replicas_->at(i);
    if (!replica.health.CanAdmit(start_ns)) {
      // Breaker open (or probe slot taken): don't hammer a sick node with
      // a quorum write — hint it and let replay/resync catch it up.
      RecordHint(i, op);
      ++hinted;
      continue;
    }
    replica.health.Admit(start_ns);
    DeadlineBudget budget = DeadlineBudget::FromNs(budget_ns);
    int64_t latency = 0;
    const Status wrote = WriteToReplica(i, op, &budget, start_ns, &latency);
    if (wrote.ok()) {
      ack_latencies.push_back(latency);
      replica.health.RecordSuccess(latency);
      ++stats_.write_acks;
    } else {
      if (replica.health.RecordFailure(start_ns + latency)) {
        NoteBreakerOpen(i, start_ns + latency);
      }
      RecordHint(i, op);
      ++hinted;
    }
  }

  const int acks = static_cast<int>(ack_latencies.size());
  if (acks < policy_.write_quorum) {
    ++stats_.quorum_failures;
    // No rollback: the acked copies stay and anti-entropy reconciles them.
    // The client must treat the write's fate as unknown, not as undone.
    return Status::Unavailable(
        "quorum not reached for '" + op.blob + "': " + std::to_string(acks) +
        "/" + std::to_string(n) + " acks, need " +
        std::to_string(policy_.write_quorum));
  }

  std::sort(ack_latencies.begin(), ack_latencies.end());
  WriteResult result;
  result.acks = acks;
  result.hinted = hinted;
  result.duration = WorldTime::FromNanos(
      ack_latencies[static_cast<size_t>(policy_.write_quorum - 1)]);
  return result;
}

Result<ReplicatedStore::WriteResult> ReplicatedStore::Put(
    const std::string& blob, const Buffer& data, int64_t budget_ns) {
  ++stats_.quorum_puts;
  Hint op;
  op.blob = blob;
  op.data = data;
  return QuorumWrite(op, budget_ns);
}

Result<ReplicatedStore::WriteResult> ReplicatedStore::Delete(
    const std::string& blob, int64_t budget_ns) {
  ++stats_.quorum_deletes;
  Hint op;
  op.is_delete = true;
  op.blob = blob;
  return QuorumWrite(op, budget_ns);
}

Result<MediaStore::ReadResult> ReplicatedStore::Read(const std::string& blob,
                                                     int64_t offset,
                                                     int64_t length,
                                                     int64_t budget_ns) {
  return router_->Fetch(blob, offset, length, budget_ns);
}

int64_t ReplicatedStore::PickDonor(const std::string& blob,
                                   const StoredBlob& version,
                                   int64_t exclude_idx) const {
  uint64_t mask = 0;
  for (int64_t i = 0; i < replicas_->size(); ++i) {
    const ReplicaSet::Replica& replica = replicas_->at(i);
    bool eligible = i != exclude_idx && !replica.server->down();
    if (eligible) {
      auto entry = replica.server->store().Lookup(blob);
      eligible = entry.ok() && !entry.value()->quarantined &&
                 entry.value()->size_bytes == version.size_bytes &&
                 entry.value()->page_checksums == version.page_checksums;
    }
    if (!eligible) mask |= uint64_t{1} << i;
  }
  return replicas_->Pick(now_fn_(), mask);
}

Result<Buffer> ReplicatedStore::FetchFromDonor(int64_t donor_idx,
                                               const std::string& blob,
                                               int64_t offset,
                                               int64_t length) {
  ReplicaSet::Replica& donor = replicas_->at(donor_idx);
  DeadlineBudget budget = DeadlineBudget::Unlimited();
  int64_t latency_ns = 0;
  auto read = donor.RoundTrip(
      now_fn_(), StreamRouter::kRequestBytes, length, &budget, &latency_ns,
      [&](int64_t arrive_ns, int64_t* serve_ns) {
        return donor.server->ServeRead(blob, offset, length, arrive_ns,
                                       &budget, serve_ns);
      });
  if (!read.ok()) return read.status();
  return std::move(read).value().data;
}

Status ReplicatedStore::StreamBlobTo(int64_t target_idx,
                                     const std::string& blob,
                                     const StoredBlob& winner,
                                     int64_t donor_idx,
                                     int64_t* pages_streamed) {
  ReplicaSet::Replica& target = replicas_->at(target_idx);
  MediaStore& target_store = target.server->store();

  // Salvage what survives locally: a page whose raw bytes still hash to the
  // winner digest needs no network. Only same-sized local entries can be
  // salvaged — different size means different version, stream it whole.
  bool local_usable = false;
  {
    auto local = target_store.Lookup(blob);
    local_usable =
        local.ok() && local.value()->size_bytes == winner.size_bytes;
  }

  Buffer rebuilt;
  const int64_t page_bytes = MediaStore::kCachePageBytes;
  const int64_t pages =
      (winner.size_bytes + page_bytes - 1) / page_bytes;
  for (int64_t p = 0; p < pages; ++p) {
    const int64_t page_start = p * page_bytes;
    const int64_t page_len =
        std::min(page_bytes, winner.size_bytes - page_start);
    const uint64_t want = winner.page_checksums[static_cast<size_t>(p)];

    if (local_usable) {
      auto salvage =
          target_store.ReadRangeUnverified(blob, page_start, page_len);
      if (salvage.ok() &&
          FastHash64(salvage.value().data.data(),
                     salvage.value().data.size()) == want) {
        rebuilt.AppendBuffer(salvage.value().data);
        continue;
      }
    }

    auto fetched = FetchFromDonor(donor_idx, blob, page_start, page_len);
    if (!fetched.ok()) return fetched.status();
    if (FastHash64(fetched.value().data(), fetched.value().size()) != want) {
      return Status::DataLoss("donor page " + std::to_string(p) + " of '" +
                              blob + "' does not match the winner digest");
    }
    rebuilt.AppendBuffer(fetched.value());
    ++*pages_streamed;
    ++stats_.repair_pages_streamed;
    stats_.repair_bytes_streamed += page_len;
  }

  int64_t apply_latency = 0;
  return target.server->ApplyRepair(blob, rebuilt, now_fn_(), &apply_latency);
}

Status ReplicatedStore::RepairBlob(int64_t replica_idx,
                                   const std::string& blob) {
  ++stats_.repair_attempts;
  const auto fail = [this](Status status) {
    ++stats_.repair_failures;
    return status;
  };

  if (replica_idx < 0 || replica_idx >= replicas_->size()) {
    return fail(Status::InvalidArgument("repair of unknown replica index"));
  }
  ReplicaSet::Replica& target = replicas_->at(replica_idx);
  if (target.server->down()) {
    return fail(Status::Unavailable("repair target " + target.server->name() +
                                    " is down"));
  }
  // The damaged replica's own directory entry is the intent: its digests
  // were computed at Put time, so they identify good bytes even when the
  // media under them rotted. Copied — ApplyRepair replaces the entry.
  auto entry = target.server->store().Lookup(blob);
  if (!entry.ok()) return fail(entry.status());
  const StoredBlob winner = *entry.value();

  const int64_t donor_idx = PickDonor(blob, winner, replica_idx);
  if (donor_idx < 0) {
    ++stats_.data_loss_events;
    return fail(Status::DataLoss("no healthy peer holds '" + blob +
                                 "' at the damaged replica's version"));
  }

  int64_t pages_streamed = 0;
  const int64_t start_ns = now_fn_();
  const Status streamed =
      StreamBlobTo(replica_idx, blob, winner, donor_idx, &pages_streamed);
  if (!streamed.ok()) return fail(streamed);

  ++stats_.repairs;
  if (tracer_ != nullptr) {
    tracer_->EventAt(start_ns, "cluster", "read_repair", name_,
                     "'" + blob + "' on " + target.server->name() + " from " +
                         replicas_->at(donor_idx).server->name() + ", " +
                         std::to_string(pages_streamed) + " pages streamed");
  }
  return Status::OK();
}

Result<int64_t> ReplicatedStore::RepairQuarantined(int64_t replica_idx) {
  if (replica_idx < 0 || replica_idx >= replicas_->size()) {
    return Status::InvalidArgument("scrub of unknown replica index");
  }
  ReplicaSet::Replica& target = replicas_->at(replica_idx);
  if (target.server->down()) {
    return Status::Unavailable("scrub target is down");
  }
  auto scrub = target.server->store().Scrub();
  if (!scrub.ok()) return scrub.status();
  int64_t repaired = 0;
  for (const std::string& blob : scrub.value().quarantined) {
    if (RepairBlob(replica_idx, blob).ok()) ++repaired;
  }
  return repaired;
}

Status ReplicatedStore::ApplyHint(int64_t idx, const Hint& hint) {
  ReplicaSet::Replica& replica = replicas_->at(idx);
  if (hint.is_delete) {
    DeadlineBudget budget = DeadlineBudget::Unlimited();
    int64_t latency = 0;
    // ServeDelete treats NotFound as the desired end state already holding.
    return replica.server->ServeDelete(hint.blob, now_fn_(), &budget,
                                       &latency);
  }
  auto existing = replica.server->store().Lookup(hint.blob);
  if (existing.ok() && !existing.value()->quarantined &&
      existing.value()->size_bytes ==
          static_cast<int64_t>(hint.data.size()) &&
      existing.value()->page_checksums ==
          MediaStore::PageChecksums(hint.data)) {
    return Status::OK();  // already landed (e.g. a late write after the ack)
  }
  int64_t latency = 0;
  return replica.server->ApplyRepair(hint.blob, hint.data, now_fn_(),
                                     &latency);
}

Result<ReplicatedStore::ReplayReport> ReplicatedStore::ReplayHints(
    int64_t replica_idx) {
  if (replica_idx < 0 || replica_idx >= replicas_->size()) {
    return Status::InvalidArgument("hint replay for unknown replica index");
  }
  EnsureHintSlots();
  ReplicaSet::Replica& replica = replicas_->at(replica_idx);
  if (replica.server->down()) {
    return Status::Unavailable("hint replay target " +
                               replica.server->name() + " is down");
  }
  ReplayReport report;
  std::deque<Hint>& queue = hints_[static_cast<size_t>(replica_idx)];
  while (!queue.empty()) {
    const Status applied = ApplyHint(replica_idx, queue.front());
    if (!applied.ok()) {
      // Leave this hint and the tail queued for the next round — the
      // replica may have just crashed again mid-replay.
      ++report.failed;
      ++stats_.hint_replay_failures;
      break;
    }
    queue.pop_front();
    ++report.replayed;
    ++stats_.hints_replayed;
  }
  if (tracer_ != nullptr && (report.replayed > 0 || report.failed > 0)) {
    tracer_->EventAt(now_fn_(), "cluster", "handoff_replay", name_,
                     replica.server->name() + ": " +
                         std::to_string(report.replayed) + " hints applied, " +
                         std::to_string(report.failed) + " failed");
  }
  return report;
}

Status ReplicatedStore::ReviveReplica(int64_t replica_idx) {
  if (replica_idx < 0 || replica_idx >= replicas_->size()) {
    return Status::InvalidArgument("revive of unknown replica index");
  }
  AVDB_RETURN_IF_ERROR(replicas_->at(replica_idx).server->Revive());
  auto replay = ReplayHints(replica_idx);
  if (!replay.ok()) return replay.status();
  return Status::OK();
}

std::map<std::string, ReplicatedStore::BlobSummary>
ReplicatedStore::BuildSummary(int64_t replica_idx) const {
  std::map<std::string, BlobSummary> summary;
  const MediaStore& store = replicas_->at(replica_idx).server->store();
  for (const std::string& name : store.List()) {
    auto entry = store.Lookup(name);
    if (!entry.ok()) continue;
    BlobSummary s;
    s.size_bytes = entry.value()->size_bytes;
    s.pages_digest = FastHash64(
        reinterpret_cast<const uint8_t*>(entry.value()->page_checksums.data()),
        entry.value()->page_checksums.size() * sizeof(uint64_t));
    s.quarantined = entry.value()->quarantined;
    summary.emplace(name, s);
  }
  return summary;
}

Result<std::map<std::string, ReplicatedStore::BlobSummary>>
ReplicatedStore::ReplicaSummary(int64_t replica_idx) const {
  if (replica_idx < 0 || replica_idx >= replicas_->size()) {
    return Status::InvalidArgument("summary of unknown replica index");
  }
  if (replicas_->at(replica_idx).server->down()) {
    return Status::Unavailable("replica is down; no summary");
  }
  return BuildSummary(replica_idx);
}

bool ReplicatedStore::Converged() const {
  const int64_t n = replicas_->size();
  if (n == 0) return true;
  for (int64_t i = 0; i < n; ++i) {
    if (replicas_->at(i).server->down()) return false;
  }
  for (const auto& queue : hints_) {
    if (!queue.empty()) return false;
  }
  const std::map<std::string, BlobSummary> first = BuildSummary(0);
  for (int64_t i = 1; i < n; ++i) {
    if (BuildSummary(i) != first) return false;
  }
  return true;
}

int64_t ReplicatedStore::HintCount(int64_t replica_idx) const {
  if (replica_idx < 0 ||
      replica_idx >= static_cast<int64_t>(hints_.size())) {
    return 0;
  }
  return static_cast<int64_t>(hints_[static_cast<size_t>(replica_idx)].size());
}

ReplicatedStore::ResyncReport ReplicatedStore::RunAntiEntropy() {
  const int64_t start_ns = now_fn_();
  last_resync_ns_ = start_ns;
  ++stats_.resync_rounds;
  EnsureHintSlots();

  ResyncReport report;
  const int64_t n = replicas_->size();
  if (n == 0) {
    report.converged = true;
    return report;
  }

  // Hints first: they carry the bytes already, so draining them is the
  // cheapest convergence step and shrinks the digest diff below.
  std::vector<int64_t> live;
  for (int64_t i = 0; i < n; ++i) {
    if (replicas_->at(i).server->down()) continue;
    live.push_back(i);
    auto replay = ReplayHints(i);
    if (replay.ok()) report.hints_replayed += replay.value().replayed;
  }

  std::vector<std::map<std::string, BlobSummary>> summaries(
      static_cast<size_t>(n));
  std::set<std::string> names;
  for (int64_t i : live) {
    summaries[static_cast<size_t>(i)] = BuildSummary(i);
    for (const auto& [name, summary] : summaries[static_cast<size_t>(i)]) {
      names.insert(name);
    }
  }

  for (const std::string& blob : names) {
    ++report.blobs_compared;
    std::vector<int64_t> holders;         // any directory entry
    std::vector<int64_t> healthy_holders; // entry and not quarantined
    for (int64_t i : live) {
      auto it = summaries[static_cast<size_t>(i)].find(blob);
      if (it == summaries[static_cast<size_t>(i)].end()) continue;
      holders.push_back(i);
      if (!it->second.quarantined) healthy_holders.push_back(i);
    }
    const int64_t absent =
        static_cast<int64_t>(live.size()) -
        static_cast<int64_t>(holders.size());

    if (absent > static_cast<int64_t>(holders.size())) {
      // Majority never saw the blob (or saw its delete): remove the
      // minority copies. Ties keep the data — an acked write that reached
      // half the live set must survive.
      for (int64_t holder : holders) {
        DeadlineBudget budget = DeadlineBudget::Unlimited();
        int64_t latency = 0;
        const Status deleted = replicas_->at(holder).server->ServeDelete(
            blob, start_ns, &budget, &latency);
        if (deleted.ok()) {
          ++report.deletes_applied;
          ++stats_.resync_deletes;
        }
      }
      continue;
    }

    if (healthy_holders.empty()) {
      // Every surviving copy is quarantined: nothing to repair from. Loud
      // counter — this is the event the bench gates to zero.
      ++report.unrepairable;
      ++stats_.data_loss_events;
      continue;
    }

    // Majority vote among healthy holders' page digests; ties break toward
    // the lowest holder index so every round picks the same winner.
    uint64_t winner_digest = 0;
    int64_t winner_votes = -1;
    for (int64_t holder : healthy_holders) {
      const uint64_t digest =
          summaries[static_cast<size_t>(holder)].at(blob).pages_digest;
      int64_t votes = 0;
      for (int64_t other : healthy_holders) {
        if (summaries[static_cast<size_t>(other)].at(blob).pages_digest ==
            digest) {
          ++votes;
        }
      }
      if (votes > winner_votes) {
        winner_votes = votes;
        winner_digest = digest;
      }
    }
    int64_t donor_idx = -1;
    for (int64_t holder : healthy_holders) {
      if (summaries[static_cast<size_t>(holder)].at(blob).pages_digest ==
          winner_digest) {
        donor_idx = holder;
        break;
      }
    }
    const BlobSummary& winner_summary =
        summaries[static_cast<size_t>(donor_idx)].at(blob);

    for (int64_t i : live) {
      auto it = summaries[static_cast<size_t>(i)].find(blob);
      const bool divergent =
          it == summaries[static_cast<size_t>(i)].end() ||
          it->second != winner_summary;
      if (!divergent) continue;
      auto winner_entry =
          replicas_->at(donor_idx).server->store().Lookup(blob);
      if (!winner_entry.ok()) continue;
      const StoredBlob winner = *winner_entry.value();
      int64_t pages_streamed = 0;
      const Status streamed =
          StreamBlobTo(i, blob, winner, donor_idx, &pages_streamed);
      if (streamed.ok()) {
        ++report.blobs_streamed;
        report.pages_streamed += pages_streamed;
        report.bytes_streamed += pages_streamed * MediaStore::kCachePageBytes;
        ++stats_.resync_blobs_streamed;
      } else {
        ++stats_.repair_failures;
      }
    }
  }

  report.converged = static_cast<int64_t>(live.size()) == n &&
                     report.unrepairable == 0 && Converged();
  if (tracer_ != nullptr) {
    tracer_->EventAt(
        start_ns, "cluster", "anti_entropy", name_,
        "compared " + std::to_string(report.blobs_compared) + ", streamed " +
            std::to_string(report.blobs_streamed) + " blobs / " +
            std::to_string(report.pages_streamed) + " pages, " +
            std::to_string(report.deletes_applied) + " deletes, " +
            std::to_string(report.hints_replayed) + " hints" +
            (report.converged ? ", converged" : ", NOT converged"));
  }
  return report;
}

bool ReplicatedStore::MaybeRunAntiEntropy() {
  const int64_t now = now_fn_();
  if (last_resync_ns_ >= 0 &&
      now - last_resync_ns_ < kResyncIntervalNs) {
    return false;
  }
  const ResyncReport round = RunAntiEntropy();
  (void)round;  // outcome lives in stats_/metrics; the driver only paces
  return true;
}

void ReplicatedStore::BindObservability(obs::MetricsRegistry* registry,
                                        obs::Tracer* tracer) {
  tracer_ = tracer;
  router_->BindObservability(registry, tracer);
  counters_.Bind(
      registry,
      {{"avdb_cluster_quorum_puts_total", "quorum puts issued",
        &stats_.quorum_puts},
       {"avdb_cluster_quorum_deletes_total", "quorum deletes issued",
        &stats_.quorum_deletes},
       {"avdb_cluster_quorum_failures_total",
        "writes that missed their W-of-N ack quorum",
        &stats_.quorum_failures},
       {"avdb_cluster_quorum_acks_total", "per-replica write acks",
        &stats_.write_acks},
       {"avdb_cluster_breaker_opens_total",
        "circuit-breaker open transitions", &stats_.breaker_opens},
       {"avdb_cluster_handoff_hints_total",
        "hinted-handoff entries recorded for missed writes",
        &stats_.hints_recorded},
       {"avdb_cluster_handoff_replays_total",
        "hinted-handoff entries replayed to revived replicas",
        &stats_.hints_replayed},
       {"avdb_cluster_handoff_replay_failures_total",
        "hint replays that failed and stayed queued",
        &stats_.hint_replay_failures},
       {"avdb_cluster_repair_attempts_total", "read-repair attempts",
        &stats_.repair_attempts},
       {"avdb_cluster_repair_successes_total",
        "blobs healed by read-repair or resync streaming", &stats_.repairs},
       {"avdb_cluster_repair_failures_total",
        "repairs that could not complete", &stats_.repair_failures},
       {"avdb_cluster_repair_pages_streamed_total",
        "pages streamed from donors during repair",
        &stats_.repair_pages_streamed},
       {"avdb_cluster_repair_bytes_streamed_total",
        "bytes streamed from donors during repair",
        &stats_.repair_bytes_streamed},
       {"avdb_cluster_resync_rounds_total", "anti-entropy rounds run",
        &stats_.resync_rounds},
       {"avdb_cluster_resync_blobs_streamed_total",
        "divergent blob copies rebuilt by anti-entropy",
        &stats_.resync_blobs_streamed},
       {"avdb_cluster_resync_deletes_total",
        "minority copies deleted by the majority-absent vote",
        &stats_.resync_deletes},
       {"avdb_cluster_data_loss_events_total",
        "blobs with no healthy copy left on any replica",
        &stats_.data_loss_events},
       {"avdb_cluster_pending_hints", "hinted-handoff entries queued",
        [this] {
          int64_t pending = 0;
          for (const auto& queue : hints_) {
            pending += static_cast<int64_t>(queue.size());
          }
          return pending;
        }}});
}

}  // namespace avdb
