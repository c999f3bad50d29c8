#ifndef AVDB_BASE_BUFFER_H_
#define AVDB_BASE_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace avdb {

/// Owned, growable byte buffer with little-endian primitive append/read
/// helpers. All on-disk and on-wire encodings in the library go through
/// Buffer so layout is explicit and platform-independent.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}
  explicit Buffer(size_t size, uint8_t fill = 0) : bytes_(size, fill) {}

  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;
  Buffer(Buffer&&) = default;
  Buffer& operator=(Buffer&&) = default;

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* data() { return bytes_.data(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t>& bytes() { return bytes_; }

  uint8_t operator[](size_t i) const { return bytes_[i]; }
  uint8_t& operator[](size_t i) { return bytes_[i]; }

  void Clear() { bytes_.clear(); }
  void Resize(size_t n, uint8_t fill = 0) { bytes_.resize(n, fill); }
  void Reserve(size_t n) { bytes_.reserve(n); }

  void AppendU8(uint8_t v) { bytes_.push_back(v); }
  void AppendU16(uint16_t v);
  void AppendU32(uint32_t v);
  void AppendU64(uint64_t v);
  void AppendI32(int32_t v) { AppendU32(static_cast<uint32_t>(v)); }
  void AppendI64(int64_t v) { AppendU64(static_cast<uint64_t>(v)); }
  void AppendF64(double v);
  /// Appends a u32 length prefix followed by the raw characters.
  void AppendString(const std::string& s);
  void AppendBytes(const uint8_t* p, size_t n);
  void AppendBuffer(const Buffer& other) {
    AppendBytes(other.data(), other.size());
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.bytes_ == b.bytes_;
  }

 private:
  std::vector<uint8_t> bytes_;
};

/// Fast 64-bit hash over a byte span: four interleaved FNV-style lanes of
/// 8 bytes, a lane and byte-wise tail, and a final avalanche. It is the
/// library's only content hash: storage page digests, which every read
/// verifies and replicas compare, and journal and superblock checksums.
/// Its values are persisted, so they are part of the on-device format;
/// deterministic across platforms (lanes are assembled little-endian).
uint64_t FastHash64(const uint8_t* data, size_t size);

/// Sequential reader over a Buffer (or any byte span). Each Read* returns
/// DataLoss when the remaining bytes are too short — decoding stored or
/// transmitted data must never walk off the end.
class BufferReader {
 public:
  explicit BufferReader(const Buffer& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  /// Reads a u32 length prefix then that many characters.
  Result<std::string> ReadString();
  Status ReadBytes(uint8_t* out, size_t n);
  /// Skips `n` bytes.
  Status Skip(size_t n);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace avdb

#endif  // AVDB_BASE_BUFFER_H_
