#ifndef AVDB_STORAGE_MEDIA_STORE_H_
#define AVDB_STORAGE_MEDIA_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/buffer.h"
#include "base/deadline.h"
#include "base/result.h"
#include "base/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/block_device.h"
#include "storage/buffer_cache.h"
#include "storage/extent_allocator.h"

namespace avdb {

/// Directory entry of one stored blob (a serialized media value or any
/// other byte object) on a device.
struct StoredBlob {
  std::string name;
  int64_t size_bytes = 0;
  /// FastHash64 of each kCachePageBytes-sized page of the blob's byte
  /// space (final page may be short; see MediaStore::PageChecksums). Reads
  /// verify exactly the pages they touch, and the list is the blob's only
  /// content identity: equal lists mean equal bytes.
  std::vector<uint64_t> page_checksums;
  /// Set when Scrub found corrupt pages: reads fail fast with DataLoss
  /// while the rest of the store stays serviceable.
  bool quarantined = false;
  std::vector<Extent> extents;
};

/// Blob store over one BlockDevice: extent allocation, a write/read path
/// that charges modeled device time, optional read caching, and page
/// checksum verification on every serving read. One MediaStore per device;
/// cross-device placement lives in DeviceManager.
///
/// Durability is opt-in via Mount(): a mounted store keeps a checksummed
/// dual-slot superblock and a begin/commit write-ahead journal on disc 0,
/// so a new MediaStore over the same (crashed) device can Recover() the
/// directory. An unmounted store keeps the directory in RAM only and its
/// on-device byte stream is byte-identical to the pre-journal code.
class MediaStore {
 public:
  /// `cache` may be nullptr (no caching). The cache is shared with the
  /// caller so multiple stores can draw on one buffer-memory budget.
  MediaStore(BlockDevicePtr device, std::shared_ptr<BufferCache> cache);

  const BlockDevice& device() const { return *device_; }
  BlockDevice& device() { return *device_; }

  /// Shares the underlying device / cache — what a crash-restart needs to
  /// construct a fresh store over the same media (cluster Revive loses the
  /// in-memory directory, the platters keep their bytes).
  BlockDevicePtr device_ptr() const { return device_; }
  std::shared_ptr<BufferCache> buffer_cache() const { return cache_; }

  /// Stores `data` under `name` (AlreadyExists if taken). Returns the
  /// modeled write duration (journal records included when mounted). A
  /// failed Put is atomic: no directory entry, no allocated extents, no
  /// reserved capacity survive it.
  Result<WorldTime> Put(const std::string& name, const Buffer& data);

  /// FastHash64 of each kCachePageBytes-sized page of `data` (the last one
  /// may be short): the page list Put stores for `data`, so callers can
  /// compare content against a directory entry without reading the blob.
  static std::vector<uint64_t> PageChecksums(const Buffer& data);

  /// Reads the whole blob, verifying every page against its checksum
  /// (DataLoss naming the first bad page on mismatch). Returns the data
  /// and the modeled read duration.
  struct ReadResult {
    Buffer data;
    WorldTime duration;
    /// Transient device faults absorbed by the retry policy while
    /// producing this result (their backoff is part of `duration`).
    int64_t retries = 0;
  };
  Result<ReadResult> Get(const std::string& name);

  /// Reads `[offset, offset+length)` of the blob — the streaming fetch path.
  /// Cached ranges cost zero device time. On the cached path every page the
  /// range touches is verified against its stored checksum: hashed once when
  /// fetched from the device, then cached tagged with that digest. A hit
  /// whose tag equals the directory's digest is served without hashing;
  /// any other hit is hashed again. A corrupt page surfaces as DataLoss.
  /// Runs the budgeted overload under DeadlineBudget::Unlimited().
  Result<ReadResult> ReadRange(const std::string& name, int64_t offset,
                               int64_t length);

  /// ReadRange under a propagated per-request deadline. A spent budget
  /// fails fast with DeadlineExceeded before any device work (or rng draw)
  /// happens; otherwise every device read runs with its retry deadline
  /// clamped to what remains, the modeled duration is charged against the
  /// budget as it accrues, and a read whose device time overruns the budget
  /// fails with DeadlineExceeded instead of delivering bytes nobody can
  /// present on time. An Unlimited budget never expires and clamps nothing,
  /// so it reads and costs exactly what a deadline-free read would.
  Result<ReadResult> ReadRange(const std::string& name, int64_t offset,
                               int64_t length, DeadlineBudget budget);

  /// Repair-path read of `[offset, offset+length)`: no quarantine
  /// fail-fast, no page verification, no caching — raw surviving bytes of a
  /// possibly-damaged blob, for a repairer that verifies each page against
  /// the directory digests itself and keeps the good ones. Never used to
  /// serve data.
  Result<ReadResult> ReadRangeUnverified(const std::string& name,
                                         int64_t offset, int64_t length);

  /// Removes the blob and frees its extents.
  Status Delete(const std::string& name);

  bool Contains(const std::string& name) const;
  Result<const StoredBlob*> Lookup(const std::string& name) const;
  std::vector<std::string> List() const;

  int64_t TotalStoredBytes() const;
  /// Bytes still allocatable for blob data (metadata region excluded).
  int64_t FreeDataBytes() const;
  /// On-device bytes withheld for superblock + journal (0 until mounted).
  int64_t metadata_bytes() const;

  /// Granularity of cached streaming reads; also the fetch granularity the
  /// admission controller assumes when costing seeks.
  static constexpr int64_t kCachePageBytes = 64 * 1024;

  // --- durability ----------------------------------------------------------

  /// Default size of the on-device journal region (two halves; metadata
  /// compaction flips between them).
  static constexpr int64_t kDefaultJournalBytes = 256 * 1024;

  /// What Mount()/Recover() did, for operators and tests.
  struct RecoveryReport {
    bool formatted = false;         ///< fresh device: superblock written
    int64_t records_replayed = 0;   ///< valid journal records applied
    int64_t puts_rolled_back = 0;   ///< BeginPut without CommitPut
    int64_t deletes_rolled_back = 0;///< BeginDelete without CommitDelete
    int64_t blobs = 0;              ///< directory entries after recovery
    int64_t journal_bytes_scanned = 0;
  };

  /// Enables durability. A fresh device (no valid superblock) is formatted
  /// with a `journal_bytes`-sized journal; a previously mounted device is
  /// recovered (see Recover). Must be called before the first Put — a
  /// store that already holds unmounted blobs refuses to mount.
  Result<RecoveryReport> Mount(int64_t journal_bytes = kDefaultJournalBytes);

  /// Rebuilds the directory from the on-device superblock + journal:
  /// replays committed records, rolls back torn (begun, uncommitted) ones,
  /// frees orphaned extents and re-reserves referenced ones. Idempotent —
  /// recovering a recovered store is a no-op and reports the same state.
  /// Writes nothing to the device. DataLoss when no superblock slot is
  /// valid or the journal names a double-referenced extent.
  Result<RecoveryReport> Recover();

  bool mounted() const { return mounted_; }

  /// Findings of one Scrub() pass.
  struct ScrubReport {
    int64_t blobs_scanned = 0;
    int64_t pages_scanned = 0;
    /// (blob name, page index) of every checksum mismatch found.
    std::vector<std::pair<std::string, int64_t>> corrupt_pages;
    /// Blobs quarantined by this pass (had at least one corrupt page).
    std::vector<std::string> quarantined;
    int64_t read_failures = 0;  ///< pages unreadable even after retries
    WorldTime duration;         ///< modeled device time spent scanning
  };

  /// Walks every blob page by page, verifies checksums, and quarantines
  /// blobs with corrupt pages (journaled when mounted, so quarantine
  /// survives recovery). The store stays serviceable: healthy blobs keep
  /// reading, quarantined ones fail fast with DataLoss.
  Result<ScrubReport> Scrub();

  struct Stats {
    int64_t retries = 0;          ///< transient faults absorbed
    int64_t exhausted = 0;        ///< reads failed after all attempts
    int64_t backoff_ns = 0;       ///< modeled time charged to backoff
    int64_t deadline_fast_fails = 0;  ///< reads refused: budget already spent
    int64_t deadline_timeouts = 0;    ///< reads cut off mid-op by the budget
    int64_t pages_verified = 0;   ///< page checksums checked on reads
                                  ///< (trusted cache hits are not checked)
    int64_t page_mismatches = 0;  ///< page checks that failed (DataLoss)
    int64_t journal_records = 0;  ///< records appended since mount
    int64_t journal_compactions = 0;
    int64_t reads = 0;            ///< Get/ReadRange requests served
    int64_t scrub_pages = 0;      ///< pages scanned by Scrub
    int64_t quarantines = 0;      ///< blobs quarantined on corrupt pages
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() {
    counters_.FoldBeforeReset();
    stats_ = Stats();
  }

  /// Exports the stats as `avdb_storage_*` counters (obs::CounterBinding)
  /// and, when `tracer` is set, records recover/scrub/quarantine/
  /// retry-exhausted milestones as trace events (actor = device name).
  /// nullptr detaches.
  void BindObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer);

 private:
  /// The cache key of page `page` of blob `name`, "device/name#page",
  /// written into page_key_ (whose capacity every later key reuses).
  const std::string& PageKey(const std::string& name, int64_t page);

  /// Uncached read of a blob byte range straight from the device.
  /// `budget`, when non-null, is charged per device read and cuts the
  /// operation off once spent.
  Result<ReadResult> ReadRangeUncached(const StoredBlob& blob, int64_t offset,
                                       int64_t length,
                                       DeadlineBudget* budget = nullptr);

  /// One device read under the retry policy. On success the returned
  /// duration includes backoff waits; `retries` is incremented per absorbed
  /// fault. A non-null `budget` clamps the retry deadline to what remains
  /// and is charged with the read's full modeled duration.
  Result<WorldTime> DeviceReadWithRetry(int disc, int64_t offset,
                                        int64_t length, Buffer* out,
                                        int64_t* retries,
                                        DeadlineBudget* budget = nullptr);

  /// Verifies `data` (= blob bytes [offset, offset+len)) against the
  /// entry's page checksums for every page fully contained in the range.
  Status VerifyCoveredPages(const StoredBlob& blob, int64_t offset,
                            const Buffer& data);
  /// Verifies one whole page (index `page`) of the blob, read in place
  /// from `size` bytes at `data`.
  Status VerifyPage(const StoredBlob& blob, int64_t page, const uint8_t* data,
                    size_t size);

  /// Undoes a Put in flight: frees the blob's extents and releases its
  /// reserved capacity.
  void RollbackAllocation(const StoredBlob& blob);

  // --- journal machinery (all no-ops until mounted) ------------------------

  /// First byte of the metadata region's end == first allocatable data byte
  /// on disc 0.
  int64_t MetaBytes() const;
  int64_t JournalHalfStart(int half) const;

  Result<RecoveryReport> Format(int64_t journal_bytes);
  /// Reads both superblock slots and returns the one with the highest valid
  /// sequence. `*found` is false when neither slot parses (fresh device).
  /// Errors only when the device itself is failing (so Mount never formats
  /// over a device that is merely unreadable right now).
  Status ReadBestSuperblock(uint64_t* sequence, int* active_half,
                            int64_t* half_bytes, bool* found);
  /// Appends one checksummed record; `cost` accumulates modeled time.
  Status AppendJournal(const Buffer& payload, WorldTime* cost);
  /// Guarantees `payload_bytes` of record payload (plus headers) fit in
  /// the active half, compacting (checkpoint + superblock flip) if needed.
  Status EnsureJournalSpace(int64_t payload_bytes, WorldTime* cost);
  Status WriteSuperblock(uint64_t sequence, int active_half, WorldTime* cost);
  /// Marks `name` quarantined in the journal (mounted stores only).
  Status JournalQuarantine(const std::string& name, WorldTime* cost);

  BlockDevicePtr device_;
  std::shared_ptr<BufferCache> cache_;
  std::vector<std::unique_ptr<ExtentAllocator>> allocators_;  // per disc
  std::map<std::string, StoredBlob> directory_;
  /// Retry discipline applied to every device read: transient
  /// (Unavailable) failures are retried with exponential backoff charged in
  /// modeled time, and the per-operation deadline bounds how long a stream
  /// can be held up before the error surfaces. With a fault-free device it
  /// never engages, so the read path is byte-identical to a no-retry one.
  RetryPolicy retry_policy_;
  Stats stats_;
  obs::CounterBinding counters_;
  obs::Tracer* tracer_ = nullptr;
  std::string page_key_;  ///< PageKey's output

  bool mounted_ = false;
  uint64_t generation_ = 0;      ///< superblock sequence == record generation
  int active_half_ = 0;
  int64_t journal_half_bytes_ = 0;
  int64_t journal_append_ = 0;   ///< absolute disc-0 offset of next record
};

}  // namespace avdb

#endif  // AVDB_STORAGE_MEDIA_STORE_H_
