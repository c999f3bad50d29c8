#include "storage/buffer_cache.h"

namespace avdb {

BufferCache::BufferCache(int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes < 0 ? 0 : capacity_bytes) {}

const Buffer* BufferCache::Get(const std::string& key,
                               std::optional<uint64_t>* verified_digest) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  if (verified_digest != nullptr) {
    *verified_digest = it->second->verified_digest;
  }
  return &it->second->page;
}

void BufferCache::Put(const std::string& key, Buffer page,
                      std::optional<uint64_t> verified_digest) {
  const int64_t size = static_cast<int64_t>(page.size());
  if (size > capacity_bytes_) return;
  Erase(key);
  EvictToFit(size);
  lru_.push_front({key, std::move(page), verified_digest});
  index_[key] = lru_.begin();
  used_bytes_ += size;
}

void BufferCache::Erase(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  used_bytes_ -= static_cast<int64_t>(it->second->page.size());
  lru_.erase(it->second);
  index_.erase(it);
}

void BufferCache::Clear() {
  lru_.clear();
  index_.clear();
  used_bytes_ = 0;
}

void BufferCache::EvictToFit(int64_t incoming) {
  while (!lru_.empty() && used_bytes_ + incoming > capacity_bytes_) {
    const Entry& victim = lru_.back();
    used_bytes_ -= static_cast<int64_t>(victim.page.size());
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace avdb
