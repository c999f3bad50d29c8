#ifndef AVDB_BASE_BUFFER_POOL_H_
#define AVDB_BASE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/buffer.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace avdb {

/// Thread-safe free-list of the backing stores the codec inner loops churn
/// through: byte planes (`std::vector<uint8_t>`, also the store behind
/// `Buffer` and `VideoFrame`) and centered-sample planes
/// (`std::vector<int16_t>`). Per-frame encode/decode used to heap-allocate
/// several planes per frame; recycling them through this pool makes the
/// steady-state hot path allocation-free.
///
/// Acquire returns a block resized to the requested length with
/// *unspecified contents* — callers overwrite every element (all current
/// call sites fill the full plane). Release hands the capacity back;
/// blocks beyond `max_free_per_class` are dropped to bound idle footprint.
class BufferPool {
 public:
  explicit BufferPool(size_t max_free_per_class = 32)
      : max_free_(max_free_per_class) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Process-wide pool used by the codec kernels. Never destroyed.
  static BufferPool& Shared();

  std::vector<uint8_t> AcquireBytes(size_t size) { return bytes_.Acquire(size); }
  void Release(std::vector<uint8_t>&& block) {
    bytes_.Release(std::move(block), max_free_);
  }

  std::vector<int16_t> AcquireI16(size_t size) { return i16_.Acquire(size); }
  void Release(std::vector<int16_t>&& block) {
    i16_.Release(std::move(block), max_free_);
  }

  /// Buffer built over a pooled byte block (empty, with `reserve` bytes of
  /// capacity ready to append into).
  Buffer AcquireBuffer(size_t reserve) {
    std::vector<uint8_t> block = AcquireBytes(reserve);
    block.clear();
    return Buffer(std::move(block));
  }
  void Release(Buffer&& buffer) { Release(std::move(buffer.bytes())); }

  /// Drops every cached free block.
  void Trim() {
    bytes_.Trim();
    i16_.Trim();
  }

  struct Stats {
    int64_t acquires = 0;     ///< total Acquire* calls
    int64_t reuses = 0;       ///< acquires served without a heap allocation
    int64_t allocations = 0;  ///< acquires that had to touch the heap
    int64_t releases = 0;     ///< blocks handed back
    int64_t drops = 0;        ///< releases discarded because the list was full
  };
  Stats stats() const {
    Stats s;
    s.acquires = bytes_.acquires + i16_.acquires;
    s.reuses = bytes_.reuses + i16_.reuses;
    s.allocations = bytes_.allocations + i16_.allocations;
    s.releases = bytes_.releases + i16_.releases;
    s.drops = bytes_.drops + i16_.drops;
    return s;
  }
  void ResetStats() {
    bytes_.ResetStats();
    i16_.ResetStats();
  }

  /// RAII lease of a byte plane: acquires on construction, releases on
  /// destruction. Keeps codec kernels exception/early-return safe.
  class BytesLease {
   public:
    BytesLease(BufferPool* pool, size_t size)
        : pool_(pool), block_(pool->AcquireBytes(size)) {}
    ~BytesLease() { pool_->Release(std::move(block_)); }
    BytesLease(const BytesLease&) = delete;
    BytesLease& operator=(const BytesLease&) = delete;
    std::vector<uint8_t>& operator*() { return block_; }
    std::vector<uint8_t>* operator->() { return &block_; }

   private:
    BufferPool* pool_;
    std::vector<uint8_t> block_;
  };

  /// RAII lease of a centered-sample plane.
  class I16Lease {
   public:
    I16Lease(BufferPool* pool, size_t size)
        : pool_(pool), block_(pool->AcquireI16(size)) {}
    ~I16Lease() { pool_->Release(std::move(block_)); }
    I16Lease(const I16Lease&) = delete;
    I16Lease& operator=(const I16Lease&) = delete;
    std::vector<int16_t>& operator*() { return block_; }
    std::vector<int16_t>* operator->() { return &block_; }

   private:
    BufferPool* pool_;
    std::vector<int16_t> block_;
  };

 private:
  template <typename T>
  struct FreeList {
    Mutex mu;
    std::vector<std::vector<T>> free AVDB_GUARDED_BY(mu);
    std::atomic<int64_t> acquires{0};
    std::atomic<int64_t> reuses{0};
    std::atomic<int64_t> allocations{0};
    std::atomic<int64_t> releases{0};
    std::atomic<int64_t> drops{0};

    std::vector<T> Acquire(size_t size) AVDB_EXCLUDES(mu) {
      acquires.fetch_add(1, std::memory_order_relaxed);
      std::vector<T> block;
      {
        // Best fit: the smallest cached block that already holds `size`.
        // The codec working set mixes capacity classes (whole frames,
        // single planes, bitstream scratch); taking blocks LIFO would hand
        // a plane-sized block to a frame-sized request and force a heap
        // miss every cycle. The list is bounded (max_free), so the scan is
        // a few dozen capacity reads at worst.
        MutexLock lock(mu);
        size_t best = free.size();
        for (size_t i = 0; i < free.size(); ++i) {
          if (free[i].capacity() < size) continue;
          if (best == free.size() ||
              free[i].capacity() < free[best].capacity()) {
            best = i;
          }
        }
        if (size > 0 && best < free.size()) {
          block = std::move(free[best]);
          free[best] = std::move(free.back());
          free.pop_back();
        }
        // No fit (or zero-size request): leave the cache alone and allocate
        // fresh, so existing capacity classes survive for the requests they
        // do fit.
      }
      if (size > 0) {
        // A recycled capacity >= size means resize() cannot allocate; the
        // steady-state zero-allocation guarantee hangs off this counter.
        if (block.capacity() >= size) {
          reuses.fetch_add(1, std::memory_order_relaxed);
        } else {
          allocations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      block.resize(size);
      return block;
    }

    void Release(std::vector<T>&& block, size_t max_free) AVDB_EXCLUDES(mu) {
      releases.fetch_add(1, std::memory_order_relaxed);
      if (block.capacity() == 0) return;
      MutexLock lock(mu);
      if (free.size() >= max_free) {
        drops.fetch_add(1, std::memory_order_relaxed);
        return;  // block freed on scope exit
      }
      free.push_back(std::move(block));
    }

    void Trim() AVDB_EXCLUDES(mu) {
      MutexLock lock(mu);
      free.clear();
    }

    void ResetStats() {
      acquires = 0;
      reuses = 0;
      allocations = 0;
      releases = 0;
      drops = 0;
    }
  };

  size_t max_free_;
  FreeList<uint8_t> bytes_;
  FreeList<int16_t> i16_;
};

}  // namespace avdb

#endif  // AVDB_BASE_BUFFER_POOL_H_
