#ifndef AVDB_CODEC_VARINT_H_
#define AVDB_CODEC_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "base/buffer.h"
#include "base/status.h"

namespace avdb {

/// Longest varint of a 64-bit value: ten 7-bit groups.
inline constexpr size_t kMaxVarintBytes = 10;

/// The entropy-coding layer of every video codec in `src/codec/`. Every
/// symbol is a byte-aligned unsigned LEB128 varint (7 bits per byte, low
/// group first, high bit set on all but the last byte) or a zigzag-mapped
/// signed one.
class VarintWriter {
 public:
  VarintWriter() = default;

  /// Writer over a caller-supplied backing store (typically leased from
  /// BufferPool::AcquireBuffer): contents are discarded, capacity is
  /// reused, and Finish() hands the same storage back — so warm encode
  /// paths append without touching the heap.
  explicit VarintWriter(Buffer backing) : out_(std::move(backing)) {
    out_.Clear();
  }

  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      out_.AppendU8(static_cast<uint8_t>(0x80 | (v & 0x7F)));
      v >>= 7;
    }
    out_.AppendU8(static_cast<uint8_t>(v));
  }

  void WriteSignedVarint(int64_t v) {
    WriteVarint((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  Buffer Finish() { return std::move(out_); }

 private:
  Buffer out_;
};

/// Reads VarintWriter's symbols. A read past the end or a varint longer
/// than kMaxVarintBytes sets a sticky error: that read and every later one
/// return 0 and status() is DataLoss, so a decoder checks once after a run
/// of reads and a corrupt stored chunk surfaces as a Status, never as UB.
class VarintReader {
 public:
  explicit VarintReader(const Buffer& buffer)
      : VarintReader(buffer.data(), buffer.size()) {}
  VarintReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint64_t ReadVarint() {
    // One bounds check per varint: with kMaxVarintBytes left, no varint
    // the loop accepts can run past the end.
    if (size_ - pos_ < kMaxVarintBytes) return ReadVarintNearEnd();
    const uint8_t* p = data_ + pos_;
    uint64_t v = 0;
    for (size_t i = 0; i < kMaxVarintBytes; ++i) {
      v |= static_cast<uint64_t>(p[i] & 0x7F) << (7 * i);
      if (p[i] < 0x80) {
        pos_ += i + 1;
        return v;
      }
    }
    return Fail("varint too long");
  }

  int64_t ReadSignedVarint() {
    const uint64_t v = ReadVarint();
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  bool ok() const { return error_ == nullptr; }
  Status status() const {
    return ok() ? Status::OK() : Status::DataLoss(error_);
  }

 private:
  uint64_t ReadVarintNearEnd();
  // Keeps the first error and moves to the end, where every read fails.
  uint64_t Fail(const char* error);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  const char* error_ = nullptr;  // null while every read has succeeded
};

}  // namespace avdb

#endif  // AVDB_CODEC_VARINT_H_
