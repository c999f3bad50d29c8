#include "storage/media_store.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <utility>

#include "base/logging.h"
#include "time/virtual_clock.h"

namespace avdb {
namespace {

// --- on-device metadata layout (disc 0) ------------------------------------
//
//   [0, 512)        superblock slot 0
//   [512, 1024)     superblock slot 1
//   [1024, 1024+J)  journal half 0
//   [1024+J, 1024+2J) journal half 1
//   [MetaBytes, ..) data region
//
// The active superblock is the slot with the highest valid sequence; slot
// index is sequence % 2, so a torn superblock write can only damage the slot
// being replaced, never the one currently trusted. See DESIGN.md §9.

constexpr int64_t kSuperblockSlotBytes = 512;
constexpr int64_t kJournalOffset = 2 * kSuperblockSlotBytes;
constexpr uint64_t kSuperblockMagic = 0x3130425344425641ULL;  // "AVDBSB01" LE
constexpr uint32_t kSuperblockVersion = 2;
constexpr uint32_t kRecordMagic = 0x4C4E524AU;  // "JRNL" LE
/// magic u32 + payload_len u32 + generation u64 + payload checksum u64.
constexpr int64_t kRecordHeaderBytes = 24;
constexpr int64_t kMinJournalBytes = 16 * 1024;

/// Journal record payload types (first payload byte).
enum RecordType : uint8_t {
  kBeginPut = 1,     ///< blob metadata; extents allocated, data in flight
  kCommitPut = 2,    ///< name; the blob's data writes all completed
  kBeginDelete = 3,  ///< name; extents about to be freed
  kCommitDelete = 4, ///< name; the delete completed
  kCheckpoint = 5,   ///< full directory snapshot (written at compaction)
  kQuarantine = 6,   ///< name; Scrub found corrupt pages
};

struct Superblock {
  uint64_t sequence = 0;
  int active_half = 0;
  int64_t journal_half_bytes = 0;
};

Buffer EncodeSuperblock(const Superblock& sb) {
  Buffer out;
  out.AppendU64(kSuperblockMagic);
  out.AppendU32(kSuperblockVersion);
  out.AppendU64(sb.sequence);
  out.AppendU8(static_cast<uint8_t>(sb.active_half));
  out.AppendI64(sb.journal_half_bytes);
  out.AppendU64(FastHash64(out.data(), out.size()));
  return out;
}

Result<Superblock> ParseSuperblock(const Buffer& raw) {
  BufferReader reader(raw);
  auto magic64 = reader.ReadU64();
  if (!magic64.ok() || magic64.value() != kSuperblockMagic) {
    return Status::DataLoss("bad superblock magic");
  }
  auto version = reader.ReadU32();
  if (!version.ok() || version.value() != kSuperblockVersion) {
    return Status::DataLoss("unknown superblock version");
  }
  auto sequence = reader.ReadU64();
  auto half = reader.ReadU8();
  auto half_bytes = reader.ReadI64();
  if (!sequence.ok() || !half.ok() || !half_bytes.ok()) {
    return Status::DataLoss("short superblock");
  }
  const size_t checked = reader.position();
  auto checksum = reader.ReadU64();
  if (!checksum.ok() ||
      checksum.value() != FastHash64(raw.data(), checked)) {
    return Status::DataLoss("superblock checksum mismatch");
  }
  if (sequence.value() == 0 || half.value() > 1 ||
      half_bytes.value() < kMinJournalBytes / 2) {
    return Status::DataLoss("superblock fields out of range");
  }
  Superblock sb;
  sb.sequence = sequence.value();
  sb.active_half = half.value();
  sb.journal_half_bytes = half_bytes.value();
  return sb;
}

void AppendBlobMeta(Buffer* out, const StoredBlob& blob) {
  out->AppendString(blob.name);
  out->AppendI64(blob.size_bytes);
  out->AppendU8(blob.quarantined ? 1 : 0);
  out->AppendU32(static_cast<uint32_t>(blob.page_checksums.size()));
  for (uint64_t sum : blob.page_checksums) out->AppendU64(sum);
  out->AppendU32(static_cast<uint32_t>(blob.extents.size()));
  for (const Extent& e : blob.extents) {
    out->AppendI32(e.disc);
    out->AppendI64(e.offset);
    out->AppendI64(e.length);
  }
}

Result<StoredBlob> ReadBlobMeta(BufferReader* r) {
  StoredBlob blob;
  auto name = r->ReadString();
  auto size = r->ReadI64();
  auto quarantined = r->ReadU8();
  if (!name.ok() || !size.ok() || !quarantined.ok()) {
    return Status::DataLoss("short blob metadata in journal");
  }
  blob.name = std::move(name.value());
  blob.size_bytes = size.value();
  blob.quarantined = quarantined.value() != 0;
  auto page_count = r->ReadU32();
  if (!page_count.ok()) return Status::DataLoss("short blob metadata");
  blob.page_checksums.reserve(page_count.value());
  for (uint32_t i = 0; i < page_count.value(); ++i) {
    auto sum = r->ReadU64();
    if (!sum.ok()) return Status::DataLoss("short page-checksum list");
    blob.page_checksums.push_back(sum.value());
  }
  auto extent_count = r->ReadU32();
  if (!extent_count.ok()) return Status::DataLoss("short blob metadata");
  int64_t extent_bytes = 0;
  for (uint32_t i = 0; i < extent_count.value(); ++i) {
    auto disc = r->ReadI32();
    auto offset = r->ReadI64();
    auto length = r->ReadI64();
    if (!disc.ok() || !offset.ok() || !length.ok()) {
      return Status::DataLoss("short extent list");
    }
    blob.extents.push_back({disc.value(), offset.value(), length.value()});
    extent_bytes += length.value();
  }
  const int64_t expected_pages =
      (blob.size_bytes + MediaStore::kCachePageBytes - 1) /
      MediaStore::kCachePageBytes;
  if (blob.size_bytes <= 0 || extent_bytes != blob.size_bytes ||
      static_cast<int64_t>(blob.page_checksums.size()) != expected_pages) {
    return Status::DataLoss("inconsistent blob metadata for: " + blob.name);
  }
  return blob;
}

/// Frames a record: header (magic, length, generation, payload checksum)
/// followed by the payload.
Buffer FrameRecord(uint64_t generation, const Buffer& payload) {
  Buffer rec;
  rec.Reserve(static_cast<size_t>(kRecordHeaderBytes) + payload.size());
  rec.AppendU32(kRecordMagic);
  rec.AppendU32(static_cast<uint32_t>(payload.size()));
  rec.AppendU64(generation);
  rec.AppendU64(FastHash64(payload.data(), payload.size()));
  rec.AppendBuffer(payload);
  return rec;
}

Buffer NamePayload(RecordType type, const std::string& name) {
  Buffer payload;
  payload.AppendU8(type);
  payload.AppendString(name);
  return payload;
}

}  // namespace

MediaStore::MediaStore(BlockDevicePtr device,
                       std::shared_ptr<BufferCache> cache)
    : device_(std::move(device)), cache_(std::move(cache)) {
  for (int d = 0; d < device_->profile().disc_count; ++d) {
    allocators_.push_back(
        std::make_unique<ExtentAllocator>(d, device_->capacity()));
  }
}

int64_t MediaStore::MetaBytes() const {
  return kJournalOffset + 2 * journal_half_bytes_;
}

int64_t MediaStore::metadata_bytes() const {
  return mounted_ ? MetaBytes() : 0;
}

int64_t MediaStore::JournalHalfStart(int half) const {
  return kJournalOffset + static_cast<int64_t>(half) * journal_half_bytes_;
}

Status MediaStore::ReadBestSuperblock(uint64_t* sequence, int* active_half,
                                      int64_t* half_bytes, bool* found) {
  *found = false;
  for (int slot = 0; slot < 2; ++slot) {
    Buffer raw;
    int64_t retries = 0;
    auto read = DeviceReadWithRetry(0, slot * kSuperblockSlotBytes,
                                    kSuperblockSlotBytes, &raw, &retries);
    if (!read.ok()) {
      // Never-written slot (fresh device) reads fail InvalidArgument — that
      // is "no superblock here". Anything else means the device itself is
      // failing; surface it rather than risk formatting over real data.
      if (read.status().code() == StatusCode::kInvalidArgument) continue;
      return read.status();
    }
    auto sb = ParseSuperblock(raw);
    if (!sb.ok()) continue;  // torn or garbage slot: the other one decides
    if (!*found || sb.value().sequence > *sequence) {
      *found = true;
      *sequence = sb.value().sequence;
      *active_half = sb.value().active_half;
      *half_bytes = sb.value().journal_half_bytes;
    }
  }
  return Status::OK();
}

Status MediaStore::WriteSuperblock(uint64_t sequence, int active_half,
                                   WorldTime* cost) {
  Superblock sb;
  sb.sequence = sequence;
  sb.active_half = active_half;
  sb.journal_half_bytes = journal_half_bytes_;
  Buffer encoded = EncodeSuperblock(sb);
  // Pad to the slot stride so the write never leaves stale bytes of an
  // older, longer encoding behind the new one.
  encoded.Resize(static_cast<size_t>(kSuperblockSlotBytes), 0);
  auto written = device_->Write(
      0, static_cast<int64_t>(sequence % 2) * kSuperblockSlotBytes, encoded);
  if (!written.ok()) return written.status();
  *cost += written.value();
  return Status::OK();
}

Result<MediaStore::RecoveryReport> MediaStore::Format(int64_t journal_bytes) {
  if (!directory_.empty()) {
    return Status::FailedPrecondition(
        "cannot format: store already holds unmounted blobs");
  }
  if (journal_bytes < kMinJournalBytes || journal_bytes % 2 != 0) {
    return Status::InvalidArgument("journal must be >= " +
                                   std::to_string(kMinJournalBytes) +
                                   " bytes and even");
  }
  const int64_t meta = kJournalOffset + journal_bytes;
  if (meta > device_->capacity() / 2) {
    return Status::InvalidArgument("journal too large for device " +
                                   device_->name());
  }
  journal_half_bytes_ = journal_bytes / 2;

  // Zero the journal region so recovery scans always find readable bytes
  // and stop at the first non-record. This also makes superblock slot reads
  // addressable (the device zero-fills everything below the write's end).
  WorldTime cost;
  Buffer zeros(static_cast<size_t>(journal_bytes), 0);
  auto zeroed = device_->Write(0, kJournalOffset, zeros);
  if (!zeroed.ok()) {
    journal_half_bytes_ = 0;
    return zeroed.status();
  }
  cost += zeroed.value();
  Status sb = WriteSuperblock(/*sequence=*/1, /*active_half=*/0, &cost);
  if (!sb.ok()) {
    journal_half_bytes_ = 0;
    return sb;
  }

  generation_ = 1;
  active_half_ = 0;
  journal_append_ = JournalHalfStart(0);
  mounted_ = true;
  // The metadata region is never allocatable for blob data.
  Status reserved = allocators_[0]->Reserve({0, 0, MetaBytes()});
  AVDB_CHECK(reserved.ok()) << "fresh allocator rejected metadata reserve: "
                            << reserved.message();
  RecoveryReport report;
  report.formatted = true;
  return report;
}

Result<MediaStore::RecoveryReport> MediaStore::Mount(int64_t journal_bytes) {
  uint64_t sequence = 0;
  int active_half = 0;
  int64_t half_bytes = 0;
  bool found = false;
  AVDB_RETURN_IF_ERROR(
      ReadBestSuperblock(&sequence, &active_half, &half_bytes, &found));
  if (found) return Recover();
  return Format(journal_bytes);
}

Result<MediaStore::RecoveryReport> MediaStore::Recover() {
  uint64_t sequence = 0;
  int active_half = 0;
  int64_t half_bytes = 0;
  bool found = false;
  AVDB_RETURN_IF_ERROR(
      ReadBestSuperblock(&sequence, &active_half, &half_bytes, &found));
  if (!found) {
    return Status::DataLoss("no valid superblock on " + device_->name());
  }
  journal_half_bytes_ = half_bytes;
  if (MetaBytes() > device_->capacity()) {
    return Status::DataLoss("superblock journal size exceeds capacity");
  }

  // Scan the active half. The scan stops at the first record whose magic,
  // length, generation, or checksum does not hold — everything past a torn
  // append is by construction unreadable as a record.
  Buffer half;
  int64_t retries = 0;
  auto scan = DeviceReadWithRetry(0, JournalHalfStart(active_half),
                                  journal_half_bytes_, &half, &retries);
  if (!scan.ok()) {
    return Status::DataLoss("journal unreadable on " + device_->name() +
                            ": " + scan.status().message());
  }

  RecoveryReport report;
  std::map<std::string, StoredBlob> dir;
  std::map<std::string, StoredBlob> pending_puts;
  std::map<std::string, bool> pending_deletes;
  int64_t pos = 0;
  while (pos + kRecordHeaderBytes <= static_cast<int64_t>(half.size())) {
    BufferReader header(half.data() + pos,
                        static_cast<size_t>(kRecordHeaderBytes));
    const uint32_t magic = header.ReadU32().value();
    const uint32_t payload_len = header.ReadU32().value();
    const uint64_t generation = header.ReadU64().value();
    const uint64_t checksum = header.ReadU64().value();
    if (magic != kRecordMagic || generation != sequence) break;
    const int64_t payload_end =
        pos + kRecordHeaderBytes + static_cast<int64_t>(payload_len);
    if (payload_end > static_cast<int64_t>(half.size())) break;
    const uint8_t* payload = half.data() + pos + kRecordHeaderBytes;
    if (FastHash64(payload, payload_len) != checksum) break;

    BufferReader body(payload, payload_len);
    auto type = body.ReadU8();
    if (!type.ok()) break;
    switch (type.value()) {
      case kBeginPut: {
        auto meta = ReadBlobMeta(&body);
        if (!meta.ok()) return meta.status();
        pending_puts[meta.value().name] = std::move(meta.value());
        break;
      }
      case kCommitPut: {
        auto name = body.ReadString();
        if (!name.ok()) return name.status();
        auto it = pending_puts.find(name.value());
        if (it == pending_puts.end()) {
          return Status::DataLoss("journal commit without begin for: " +
                                  name.value());
        }
        dir[name.value()] = std::move(it->second);
        pending_puts.erase(it);
        break;
      }
      case kBeginDelete: {
        auto name = body.ReadString();
        if (!name.ok()) return name.status();
        pending_deletes[name.value()] = true;
        break;
      }
      case kCommitDelete: {
        auto name = body.ReadString();
        if (!name.ok()) return name.status();
        pending_deletes.erase(name.value());
        dir.erase(name.value());
        break;
      }
      case kCheckpoint: {
        auto count = body.ReadU32();
        if (!count.ok()) return count.status();
        dir.clear();
        pending_puts.clear();
        pending_deletes.clear();
        for (uint32_t i = 0; i < count.value(); ++i) {
          auto meta = ReadBlobMeta(&body);
          if (!meta.ok()) return meta.status();
          dir[meta.value().name] = std::move(meta.value());
        }
        break;
      }
      case kQuarantine: {
        auto name = body.ReadString();
        if (!name.ok()) return name.status();
        auto it = dir.find(name.value());
        if (it != dir.end()) it->second.quarantined = true;
        break;
      }
      default:
        return Status::DataLoss("unknown journal record type " +
                                std::to_string(type.value()));
    }
    ++report.records_replayed;
    pos = payload_end;
  }
  report.puts_rolled_back = static_cast<int64_t>(pending_puts.size());
  // A BeginDelete without CommitDelete rolls back: the blob's extents were
  // never guaranteed freed, so the entry stays and keeps its space.
  report.deletes_rolled_back = static_cast<int64_t>(pending_deletes.size());

  // Rebuild allocators from scratch: reserve the metadata region plus every
  // committed blob's extents. Anything else (orphans from rolled-back puts)
  // is implicitly free again.
  std::vector<std::unique_ptr<ExtentAllocator>> fresh;
  for (int d = 0; d < device_->profile().disc_count; ++d) {
    fresh.push_back(std::make_unique<ExtentAllocator>(d, device_->capacity()));
  }
  Status meta_reserved = fresh[0]->Reserve({0, 0, MetaBytes()});
  AVDB_CHECK(meta_reserved.ok()) << meta_reserved.message();
  int64_t stored = 0;
  for (const auto& [name, blob] : dir) {
    stored += blob.size_bytes;
    for (const Extent& e : blob.extents) {
      if (e.disc < 0 || e.disc >= device_->profile().disc_count) {
        return Status::DataLoss("journal names bad disc for: " + name);
      }
      Status reserved = fresh[static_cast<size_t>(e.disc)]->Reserve(e);
      if (!reserved.ok()) {
        return Status::DataLoss("journal names a double-referenced extent (" +
                                name + "): " + reserved.message());
      }
    }
  }

  // Point of no return: install the recovered state.
  device_->ReleaseCapacity(device_->used_bytes());
  Status capacity = device_->ReserveCapacity(stored);
  AVDB_CHECK(capacity.ok()) << "recovered directory exceeds capacity";
  allocators_ = std::move(fresh);
  directory_ = std::move(dir);
  generation_ = sequence;
  active_half_ = active_half;
  journal_append_ = JournalHalfStart(active_half) + pos;
  mounted_ = true;
  // Cached pages may predate the crash; drop them rather than trust them.
  if (cache_ != nullptr) cache_->Clear();

  report.blobs = static_cast<int64_t>(directory_.size());
  report.journal_bytes_scanned = pos;
  if (tracer_ != nullptr) {
    tracer_->Event("storage", "recover", device_->name(),
                   std::to_string(report.records_replayed) +
                       " records replayed, " + std::to_string(report.blobs) +
                       " blobs");
  }
  return report;
}

Status MediaStore::AppendJournal(const Buffer& payload, WorldTime* cost) {
  Buffer record = FrameRecord(generation_, payload);
  const int64_t half_end = JournalHalfStart(active_half_) + journal_half_bytes_;
  if (journal_append_ + static_cast<int64_t>(record.size()) > half_end) {
    return Status::Internal("journal append without reserved space");
  }
  auto written = device_->Write(0, journal_append_, record);
  if (!written.ok()) return written.status();
  *cost += written.value();
  journal_append_ += static_cast<int64_t>(record.size());
  ++stats_.journal_records;
  return Status::OK();
}

Status MediaStore::EnsureJournalSpace(int64_t payload_bytes, WorldTime* cost) {
  // Callers reserve every record of one logical operation at once (begin +
  // commit), so an operation's records never straddle a compaction.
  const int64_t framed = payload_bytes + 2 * kRecordHeaderBytes;
  const int64_t half_end = JournalHalfStart(active_half_) + journal_half_bytes_;
  if (journal_append_ + framed <= half_end) return Status::OK();

  // Compact: write a checkpoint of the whole directory — stamped with the
  // *next* generation — into the other half, then flip the superblock.
  // Until the superblock write completes, recovery still reads the old half;
  // a crash anywhere in between loses nothing.
  Buffer payload;
  payload.AppendU8(kCheckpoint);
  payload.AppendU32(static_cast<uint32_t>(directory_.size()));
  for (const auto& [name, blob] : directory_) AppendBlobMeta(&payload, blob);
  Buffer record = FrameRecord(generation_ + 1, payload);
  if (static_cast<int64_t>(record.size()) + framed > journal_half_bytes_) {
    return Status::ResourceExhausted(
        "directory checkpoint does not fit the journal half; mount with a "
        "larger journal");
  }
  const int other = 1 - active_half_;
  auto written = device_->Write(0, JournalHalfStart(other), record);
  if (!written.ok()) return written.status();
  *cost += written.value();
  AVDB_RETURN_IF_ERROR(WriteSuperblock(generation_ + 1, other, cost));
  generation_ += 1;
  active_half_ = other;
  journal_append_ = JournalHalfStart(other) + static_cast<int64_t>(record.size());
  ++stats_.journal_records;
  ++stats_.journal_compactions;
  if (tracer_ != nullptr) {
    tracer_->Event("storage", "journal_compaction", device_->name(),
                   "generation " + std::to_string(generation_));
  }
  return Status::OK();
}

Status MediaStore::JournalQuarantine(const std::string& name, WorldTime* cost) {
  Buffer payload = NamePayload(kQuarantine, name);
  AVDB_RETURN_IF_ERROR(
      EnsureJournalSpace(static_cast<int64_t>(payload.size()), cost));
  return AppendJournal(payload, cost);
}

std::vector<uint64_t> MediaStore::PageChecksums(const Buffer& data) {
  std::vector<uint64_t> sums;
  sums.reserve((data.size() + kCachePageBytes - 1) / kCachePageBytes);
  for (size_t off = 0; off < data.size(); off += kCachePageBytes) {
    const size_t len =
        std::min(static_cast<size_t>(kCachePageBytes), data.size() - off);
    sums.push_back(FastHash64(data.data() + off, len));
  }
  return sums;
}

void MediaStore::RollbackAllocation(const StoredBlob& blob) {
  for (const Extent& e : blob.extents) {
    Status freed = allocators_[static_cast<size_t>(e.disc)]->Free(e);
    AVDB_CHECK(freed.ok()) << "rollback free failed: " << freed.message();
  }
  device_->ReleaseCapacity(blob.size_bytes);
}

Result<WorldTime> MediaStore::Put(const std::string& name,
                                  const Buffer& data) {
  if (directory_.count(name) > 0) {
    return Status::AlreadyExists("blob exists: " + name);
  }
  if (data.empty()) return Status::InvalidArgument("empty blob: " + name);
  AVDB_RETURN_IF_ERROR(
      device_->ReserveCapacity(static_cast<int64_t>(data.size())));

  // Place on the disc with the largest contiguous hole.
  int best_disc = -1;
  int64_t best_hole = -1;
  for (size_t d = 0; d < allocators_.size(); ++d) {
    const int64_t hole = allocators_[d]->LargestFreeExtent();
    if (hole > best_hole) {
      best_hole = hole;
      best_disc = static_cast<int>(d);
    }
  }
  auto extents =
      allocators_[static_cast<size_t>(best_disc)]->Allocate(
          static_cast<int64_t>(data.size()));
  if (!extents.ok()) {
    device_->ReleaseCapacity(static_cast<int64_t>(data.size()));
    return extents.status();
  }

  StoredBlob blob;
  blob.name = name;
  blob.size_bytes = static_cast<int64_t>(data.size());
  blob.extents = extents.value();
  blob.page_checksums = PageChecksums(data);

  WorldTime total;
  Buffer commit_payload;
  if (mounted_) {
    Buffer begin_payload;
    begin_payload.AppendU8(kBeginPut);
    AppendBlobMeta(&begin_payload, blob);
    commit_payload = NamePayload(kCommitPut, name);
    Status journaled = EnsureJournalSpace(
        static_cast<int64_t>(begin_payload.size() + commit_payload.size()),
        &total);
    if (journaled.ok()) journaled = AppendJournal(begin_payload, &total);
    if (!journaled.ok()) {
      RollbackAllocation(blob);
      return journaled;
    }
  }

  int64_t written = 0;
  for (const Extent& e : blob.extents) {
    Buffer piece;
    piece.AppendBytes(data.data() + written, static_cast<size_t>(e.length));
    auto cost = device_->Write(e.disc, e.offset, piece);
    if (!cost.ok()) {
      // Failed Put stays atomic: extents back to the free list, capacity
      // released, name never installed. A dangling BeginPut record (when
      // mounted) is rolled back by the next Recover.
      RollbackAllocation(blob);
      return cost.status();
    }
    total += cost.value();
    written += e.length;
  }

  if (mounted_) {
    Status journaled = AppendJournal(commit_payload, &total);
    if (!journaled.ok()) {
      RollbackAllocation(blob);
      return journaled;
    }
  }
  directory_[name] = std::move(blob);
  return total;
}

Status MediaStore::VerifyPage(const StoredBlob& blob, int64_t page,
                              const uint8_t* data, size_t size) {
  if (page >= static_cast<int64_t>(blob.page_checksums.size())) {
    return Status::OK();
  }
  ++stats_.pages_verified;
  if (FastHash64(data, size) !=
      blob.page_checksums[static_cast<size_t>(page)]) {
    ++stats_.page_mismatches;
    if (tracer_ != nullptr) {
      tracer_->Event("storage", "page_mismatch", device_->name(),
                     blob.name + " page " + std::to_string(page));
    }
    return Status::DataLoss("page " + std::to_string(page) +
                            " checksum mismatch in blob: " + blob.name);
  }
  return Status::OK();
}

Status MediaStore::VerifyCoveredPages(const StoredBlob& blob, int64_t offset,
                                      const Buffer& data) {
  if (data.empty()) return Status::OK();
  const int64_t end = offset + static_cast<int64_t>(data.size());
  const int64_t first_page = offset / kCachePageBytes;
  const int64_t last_page = (end - 1) / kCachePageBytes;
  for (int64_t page = first_page; page <= last_page; ++page) {
    const int64_t page_start = page * kCachePageBytes;
    const int64_t page_end =
        std::min(page_start + kCachePageBytes, blob.size_bytes);
    if (page_start < offset || page_end > end) continue;  // partial coverage
    AVDB_RETURN_IF_ERROR(
        VerifyPage(blob, page, data.data() + (page_start - offset),
                   static_cast<size_t>(page_end - page_start)));
  }
  return Status::OK();
}

Result<MediaStore::ReadResult> MediaStore::Get(const std::string& name) {
  ++stats_.reads;
  auto blob = Lookup(name);
  if (!blob.ok()) return blob.status();
  if (blob.value()->quarantined) {
    return Status::DataLoss("blob quarantined by scrub: " + name);
  }
  // Whole-blob fetches are bulk operations (loads, copies); they bypass the
  // page cache so they neither pollute it nor pre-warm streaming reads.
  auto result =
      ReadRangeUncached(*blob.value(), 0, blob.value()->size_bytes);
  if (!result.ok()) return result.status();
  AVDB_RETURN_IF_ERROR(
      VerifyCoveredPages(*blob.value(), 0, result.value().data));
  return result;
}

Result<WorldTime> MediaStore::DeviceReadWithRetry(int disc, int64_t offset,
                                                  int64_t length, Buffer* out,
                                                  int64_t* retries,
                                                  DeadlineBudget* budget) {
  RetryPolicy policy = retry_policy_;
  if (budget != nullptr) {
    if (budget->expired()) {
      ++stats_.deadline_timeouts;
      return Status::DeadlineExceeded(
          "deadline budget spent before device read");
    }
    policy.deadline_ns = budget->CapNs(policy.deadline_ns);
  }
  RetryState state(policy);
  for (;;) {
    auto cost = device_->Read(disc, offset, length, out);
    if (cost.ok()) {
      const WorldTime total =
          cost.value() + WorldTime::FromNanos(state.charged_ns());
      if (budget != nullptr) {
        budget->Charge(VirtualClock::ToNs(total));
        if (budget->expired()) {
          // The device did the work, but past the point anyone can use it:
          // a timed-out read, reported as such instead of delivered late.
          ++stats_.deadline_timeouts;
          return Status::DeadlineExceeded(
              "device read overran its deadline budget");
        }
      }
      return total;
    }
    const int64_t charged_before = state.charged_ns();
    const Status verdict = state.BeforeRetry(cost.status());
    if (!verdict.ok()) {
      ++stats_.exhausted;
      if (tracer_ != nullptr) {
        tracer_->Event("storage", "retry_exhausted", device_->name(),
                       "disc " + std::to_string(disc) + " offset " +
                           std::to_string(offset));
      }
      return verdict;
    }
    ++stats_.retries;
    stats_.backoff_ns += state.charged_ns() - charged_before;
    if (retries != nullptr) ++*retries;
  }
}

Result<MediaStore::ReadResult> MediaStore::ReadRangeUncached(
    const StoredBlob& blob, int64_t offset, int64_t length,
    DeadlineBudget* budget) {
  ReadResult out;
  int64_t skipped = 0;   // bytes of blob before the current extent
  int64_t remaining = length;
  for (const Extent& e : blob.extents) {
    if (remaining <= 0) break;
    const int64_t ext_start = skipped;
    const int64_t ext_end = skipped + e.length;
    skipped = ext_end;
    const int64_t want_start = std::max(offset, ext_start);
    const int64_t want_end = std::min(offset + length, ext_end);
    if (want_start >= want_end) continue;
    Buffer piece;
    auto cost = DeviceReadWithRetry(e.disc,
                                    e.offset + (want_start - ext_start),
                                    want_end - want_start, &piece,
                                    &out.retries, budget);
    if (!cost.ok()) return cost.status();
    out.duration += cost.value();
    out.data.AppendBuffer(piece);
    remaining -= want_end - want_start;
  }
  return out;
}

Result<MediaStore::ReadResult> MediaStore::ReadRange(const std::string& name,
                                                     int64_t offset,
                                                     int64_t length) {
  return ReadRange(name, offset, length, DeadlineBudget::Unlimited());
}

Result<MediaStore::ReadResult> MediaStore::ReadRangeUnverified(
    const std::string& name, int64_t offset, int64_t length) {
  auto blob = Lookup(name);
  if (!blob.ok()) return blob.status();
  if (offset < 0 || length < 0 ||
      offset + length > blob.value()->size_bytes) {
    return Status::InvalidArgument("read range out of blob bounds: " + name);
  }
  if (length == 0) return ReadResult{};
  // Deliberately skips the quarantine fail-fast and page verification: the
  // repairer wants whatever bytes survive so it can salvage the pages whose
  // digests still match. Bypasses the cache both ways — unverified bytes
  // must never be served from it.
  return ReadRangeUncached(*blob.value(), offset, length, nullptr);
}

Result<MediaStore::ReadResult> MediaStore::ReadRange(const std::string& name,
                                                     int64_t offset,
                                                     int64_t length,
                                                     DeadlineBudget budget) {
  if (budget.expired()) {
    // Fast-fail before any directory or device work — the caller's budget
    // was spent upstream (failover hops, backoff), so even a cache hit
    // would deliver bytes past their deadline.
    ++stats_.deadline_fast_fails;
    return Status::DeadlineExceeded(
        "deadline budget already spent; read of '" + name +
        "' not attempted");
  }
  ++stats_.reads;
  auto blob = Lookup(name);
  if (!blob.ok()) return blob.status();
  if (offset < 0 || length < 0 ||
      offset + length > blob.value()->size_bytes) {
    return Status::InvalidArgument("read range out of blob bounds: " + name);
  }
  if (length == 0) return ReadResult{};
  if (blob.value()->quarantined) {
    return Status::DataLoss("blob quarantined by scrub: " + name);
  }
  if (cache_ == nullptr) {
    auto result = ReadRangeUncached(*blob.value(), offset, length, &budget);
    if (!result.ok()) return result.status();
    // The uncached path reads exactly the requested bytes (its I/O pattern
    // is part of the admission model), so only pages the range fully covers
    // can be verified here.
    AVDB_RETURN_IF_ERROR(VerifyCoveredPages(*blob.value(), offset,
                                            result.value().data));
    return result;
  }
  // Page-granular caching: assemble the range from cache pages, fetching
  // missing pages from the device. Every page this range touches is whole
  // in hand. A fetched page is hashed once, before it enters the cache
  // tagged with the digest it matched. A hit whose tag equals the
  // directory's digest for the page is the very bytes that matched, so it
  // is served without hashing; any other hit (a page put from outside the
  // store, or one whose digest has since changed) is hashed again.
  const StoredBlob& entry = *blob.value();
  ReadResult out;
  // One allocation, however many pages the range spans.
  out.data.Reserve(static_cast<size_t>(length));
  const int64_t first_page = offset / kCachePageBytes;
  const int64_t last_page = (offset + length - 1) / kCachePageBytes;
  for (int64_t page = first_page; page <= last_page; ++page) {
    const std::string& key = PageKey(name, page);
    std::optional<uint64_t> digest;  // what a fill verifies and tags with
    if (page < static_cast<int64_t>(entry.page_checksums.size())) {
      digest = entry.page_checksums[static_cast<size_t>(page)];
    }
    std::optional<uint64_t> tag;
    const Buffer* cached = cache_->Get(key, &tag);
    Buffer fetched_data;
    const Buffer* page_data = nullptr;  // no page copy on either path
    if (cached != nullptr) {
      if (!tag.has_value() || tag != digest) {
        AVDB_RETURN_IF_ERROR(
            VerifyPage(entry, page, cached->data(), cached->size()));
      }
      page_data = cached;
    } else {
      const int64_t page_start = page * kCachePageBytes;
      const int64_t page_len =
          std::min(kCachePageBytes, entry.size_bytes - page_start);
      auto fetched = ReadRangeUncached(entry, page_start, page_len, &budget);
      if (!fetched.ok()) return fetched.status();
      out.duration += fetched.value().duration;
      out.retries += fetched.value().retries;
      fetched_data = std::move(fetched.value().data);
      AVDB_RETURN_IF_ERROR(VerifyPage(entry, page, fetched_data.data(),
                                      fetched_data.size()));
      cache_->Put(key, fetched_data, digest);
      page_data = &fetched_data;
    }
    // Copy the requested slice of this page.
    const int64_t page_start = page * kCachePageBytes;
    const int64_t slice_start = std::max(offset, page_start);
    const int64_t slice_end =
        std::min(offset + length,
                 page_start + static_cast<int64_t>(page_data->size()));
    out.data.AppendBytes(page_data->data() + (slice_start - page_start),
                         static_cast<size_t>(slice_end - slice_start));
  }
  return out;
}

const std::string& MediaStore::PageKey(const std::string& name,
                                      int64_t page) {
  page_key_.assign(device_->name());
  page_key_ += '/';
  page_key_ += name;
  page_key_ += '#';
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof(digits), page).ptr;
  page_key_.append(digits, static_cast<size_t>(end - digits));
  return page_key_;
}

Status MediaStore::Delete(const std::string& name) {
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::NotFound("blob: " + name);
  if (mounted_) {
    WorldTime cost;
    Buffer begin_payload = NamePayload(kBeginDelete, name);
    Buffer commit_payload = NamePayload(kCommitDelete, name);
    AVDB_RETURN_IF_ERROR(EnsureJournalSpace(
        static_cast<int64_t>(begin_payload.size() + commit_payload.size()),
        &cost));
    AVDB_RETURN_IF_ERROR(AppendJournal(begin_payload, &cost));
    AVDB_RETURN_IF_ERROR(AppendJournal(commit_payload, &cost));
  }
  for (const Extent& e : it->second.extents) {
    AVDB_RETURN_IF_ERROR(
        allocators_[static_cast<size_t>(e.disc)]->Free(e));
  }
  device_->ReleaseCapacity(it->second.size_bytes);
  if (cache_ != nullptr) {
    const int64_t pages =
        (it->second.size_bytes + kCachePageBytes - 1) / kCachePageBytes;
    for (int64_t p = 0; p < pages; ++p) cache_->Erase(PageKey(name, p));
  }
  directory_.erase(it);
  return Status::OK();
}

Result<MediaStore::ScrubReport> MediaStore::Scrub() {
  ScrubReport report;
  for (auto& [name, blob] : directory_) {
    if (blob.quarantined) continue;
    ++report.blobs_scanned;
    bool corrupt = false;
    for (int64_t page = 0; page * kCachePageBytes < blob.size_bytes; ++page) {
      const int64_t page_start = page * kCachePageBytes;
      const int64_t page_len =
          std::min(kCachePageBytes, blob.size_bytes - page_start);
      auto read = ReadRangeUncached(blob, page_start, page_len);
      if (!read.ok()) {
        ++report.read_failures;
        corrupt = true;
        continue;
      }
      report.duration += read.value().duration;
      ++report.pages_scanned;
      ++stats_.scrub_pages;
      if (page < static_cast<int64_t>(blob.page_checksums.size()) &&
          FastHash64(read.value().data.data(), read.value().data.size()) !=
              blob.page_checksums[static_cast<size_t>(page)]) {
        report.corrupt_pages.emplace_back(name, page);
        corrupt = true;
      }
    }
    if (corrupt) {
      blob.quarantined = true;
      report.quarantined.push_back(name);
      ++stats_.quarantines;
      if (tracer_ != nullptr) {
        tracer_->Event("storage", "quarantine", device_->name(), name);
      }
      if (mounted_) {
        WorldTime cost;
        AVDB_RETURN_IF_ERROR(JournalQuarantine(name, &cost));
        report.duration += cost;
      }
    }
  }
  if (tracer_ != nullptr) {
    tracer_->Event("storage", "scrub", device_->name(),
                   std::to_string(report.pages_scanned) + " pages, " +
                       std::to_string(report.corrupt_pages.size()) +
                       " corrupt");
  }
  return report;
}

void MediaStore::BindObservability(obs::MetricsRegistry* registry,
                                   obs::Tracer* tracer) {
  tracer_ = tracer;
  counters_.Bind(
      registry,
      {{"avdb_storage_reads_total", "Get/ReadRange requests served",
        &stats_.reads},
       {"avdb_storage_deadline_fast_fails_total",
        "reads refused because the budget was spent",
        &stats_.deadline_fast_fails},
       {"avdb_storage_deadline_timeouts_total",
        "reads cut off mid-operation by the budget",
        &stats_.deadline_timeouts},
       {"avdb_storage_retries_total", "transient device faults absorbed",
        &stats_.retries},
       {"avdb_storage_retry_exhausted_total",
        "reads failed after every retry attempt", &stats_.exhausted},
       {"avdb_storage_backoff_ns_total",
        "modeled time charged to retry backoff", &stats_.backoff_ns},
       {"avdb_storage_pages_verified_total",
        "page checksums checked on reads", &stats_.pages_verified},
       {"avdb_storage_page_mismatches_total",
        "page checks that failed (DataLoss)", &stats_.page_mismatches},
       {"avdb_storage_journal_records_total", "journal records appended",
        &stats_.journal_records},
       {"avdb_storage_journal_compactions_total",
        "journal checkpoint + superblock flips",
        &stats_.journal_compactions},
       {"avdb_storage_scrub_pages_total", "pages scanned by Scrub",
        &stats_.scrub_pages},
       {"avdb_storage_quarantines_total",
        "blobs quarantined on corrupt pages", &stats_.quarantines}});
}

bool MediaStore::Contains(const std::string& name) const {
  return directory_.count(name) > 0;
}

Result<const StoredBlob*> MediaStore::Lookup(const std::string& name) const {
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::NotFound("blob: " + name);
  return &it->second;
}

std::vector<std::string> MediaStore::List() const {
  std::vector<std::string> names;
  names.reserve(directory_.size());
  for (const auto& [name, blob] : directory_) names.push_back(name);
  return names;
}

int64_t MediaStore::TotalStoredBytes() const {
  int64_t total = 0;
  for (const auto& [name, blob] : directory_) total += blob.size_bytes;
  return total;
}

int64_t MediaStore::FreeDataBytes() const {
  int64_t total = 0;
  for (const auto& alloc : allocators_) total += alloc->FreeBytes();
  return total;
}

}  // namespace avdb
