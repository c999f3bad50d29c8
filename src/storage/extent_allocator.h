#ifndef AVDB_STORAGE_EXTENT_ALLOCATOR_H_
#define AVDB_STORAGE_EXTENT_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "base/result.h"

namespace avdb {

/// A contiguous byte range on one disc of a device.
struct Extent {
  int disc = 0;
  int64_t offset = 0;
  int64_t length = 0;

  friend bool operator==(const Extent& a, const Extent& b) {
    return a.disc == b.disc && a.offset == b.offset && a.length == b.length;
  }
};

/// First-fit extent allocator over one disc's byte space. Media values are
/// stored contiguously whenever possible (sequential transfer is the whole
/// point of stream storage), so the allocator prefers a single extent and
/// only splits across free fragments when no hole is large enough.
class ExtentAllocator {
 public:
  /// Manages [0, capacity) on disc `disc`.
  ExtentAllocator(int disc, int64_t capacity);

  int64_t capacity() const { return capacity_; }
  int64_t FreeBytes() const;
  /// Size of the largest free hole (what a contiguous allocation can get).
  int64_t LargestFreeExtent() const;
  size_t FragmentCount() const { return free_list_.size(); }

  /// Allocates `bytes` contiguously; ResourceExhausted when no hole fits.
  Result<Extent> AllocateContiguous(int64_t bytes);

  /// Allocates `bytes` across as few extents as possible (contiguous first,
  /// then first-fit over fragments). ResourceExhausted when total free
  /// space is insufficient.
  Result<std::vector<Extent>> Allocate(int64_t bytes);

  /// Returns an extent to the free list, coalescing neighbours.
  /// InvalidArgument when the range is out of bounds or double-freed.
  Status Free(const Extent& extent);

  /// Carves a *specific* range out of the free list — the recovery path
  /// re-marking a journaled extent as allocated, and the mount path
  /// withholding the metadata region. FailedPrecondition when any part of
  /// the range is already allocated (a double-referenced extent).
  Status Reserve(const Extent& extent);

 private:
  struct Hole {
    int64_t offset;
    int64_t length;
  };

  int disc_;
  int64_t capacity_;
  std::vector<Hole> free_list_;  // sorted by offset, coalesced
};

}  // namespace avdb

#endif  // AVDB_STORAGE_EXTENT_ALLOCATOR_H_
