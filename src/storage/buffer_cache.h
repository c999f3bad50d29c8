#ifndef AVDB_STORAGE_BUFFER_CACHE_H_
#define AVDB_STORAGE_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "base/buffer.h"

namespace avdb {

/// Byte-budgeted LRU cache of named pages. The media store consults it
/// before touching the device model, so hot pages cost no simulated device
/// time — buffer memory is one of the limited resources §3.3 says clients
/// contend for, and the admission bench charges against its capacity.
///
/// A page may carry a *verified digest* tag: the page digest its bytes were
/// checked against when MediaStore filled the page from the device. Only
/// that fill sets a tag; every other Put leaves the page untagged, and the
/// store re-hashes an untagged page on every hit.
class BufferCache {
 public:
  /// Cache holding at most `capacity_bytes` of page payload.
  explicit BufferCache(int64_t capacity_bytes);

  int64_t used_bytes() const { return used_bytes_; }

  /// Looks up a page; returns nullptr on miss. Hits refresh LRU position.
  /// On a hit, a non-null `verified_digest` receives the page's tag
  /// (nullopt when the page was put untagged).
  const Buffer* Get(const std::string& key,
                    std::optional<uint64_t>* verified_digest = nullptr);

  /// Inserts (or replaces) a page, evicting LRU pages to fit. Pages larger
  /// than the whole cache are not cached. `verified_digest` is for
  /// MediaStore's fill path alone, which passes the digest the bytes were
  /// just verified against; a replacement drops any earlier tag.
  void Put(const std::string& key, Buffer page,
           std::optional<uint64_t> verified_digest = std::nullopt);

  /// Drops a page if present.
  void Erase(const std::string& key);

  /// Drops everything.
  void Clear();

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  double HitRate() const {
    const int64_t total = stats_.hits + stats_.misses;
    return total == 0 ? 0.0 : static_cast<double>(stats_.hits) / total;
  }

 private:
  struct Entry {
    std::string key;
    Buffer page;
    std::optional<uint64_t> verified_digest;
  };

  void EvictToFit(int64_t incoming);

  int64_t capacity_bytes_;
  int64_t used_bytes_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace avdb

#endif  // AVDB_STORAGE_BUFFER_CACHE_H_
