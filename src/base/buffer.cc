#include "base/buffer.h"

#include <cstring>

namespace avdb {

void Buffer::AppendU16(uint16_t v) {
  AppendU8(static_cast<uint8_t>(v & 0xFF));
  AppendU8(static_cast<uint8_t>((v >> 8) & 0xFF));
}

void Buffer::AppendU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) AppendU8(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
}

void Buffer::AppendU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) AppendU8(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
}

void Buffer::AppendF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(bits);
}

void Buffer::AppendString(const std::string& s) {
  AppendU32(static_cast<uint32_t>(s.size()));
  AppendBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Buffer::AppendBytes(const uint8_t* p, size_t n) {
  bytes_.insert(bytes_.end(), p, p + n);
}

namespace {

inline uint64_t LoadLaneLE(const uint8_t* p) {
  uint64_t lane = 0;
  std::memcpy(&lane, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  lane = __builtin_bswap64(lane);
#endif
  return lane;
}

}  // namespace

uint64_t FastHash64(const uint8_t* data, size_t size) {
  constexpr uint64_t kPrime = 0x100000001B3ULL;
  // Four independent FNV accumulators over interleaved 8-byte lanes: the
  // multiply chains run in parallel, so throughput is bounded by multiplier
  // ports rather than one chain's latency (~4x a single accumulator).
  uint64_t h0 = 0xCBF29CE484222325ULL ^ (size * kPrime);
  uint64_t h1 = 0x9E3779B97F4A7C15ULL;
  uint64_t h2 = 0xC2B2AE3D27D4EB4FULL;
  uint64_t h3 = 0x165667B19E3779F9ULL;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    h0 = (h0 ^ LoadLaneLE(data + i)) * kPrime;
    h1 = (h1 ^ LoadLaneLE(data + i + 8)) * kPrime;
    h2 = (h2 ^ LoadLaneLE(data + i + 16)) * kPrime;
    h3 = (h3 ^ LoadLaneLE(data + i + 24)) * kPrime;
  }
  uint64_t h = (((((h0 ^ h1) * kPrime) ^ h2) * kPrime) ^ h3) * kPrime;
  for (; i + 8 <= size; i += 8) {
    h = (h ^ LoadLaneLE(data + i)) * kPrime;
  }
  for (; i < size; ++i) {
    h = (h ^ data[i]) * kPrime;
  }
  // Final avalanche so short inputs still spread across all 64 bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

Result<uint8_t> BufferReader::ReadU8() {
  if (remaining() < 1) return Status::DataLoss("buffer underrun reading u8");
  return data_[pos_++];
}

Result<uint16_t> BufferReader::ReadU16() {
  if (remaining() < 2) return Status::DataLoss("buffer underrun reading u16");
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> BufferReader::ReadU32() {
  if (remaining() < 4) return Status::DataLoss("buffer underrun reading u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> BufferReader::ReadU64() {
  if (remaining() < 8) return Status::DataLoss("buffer underrun reading u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int32_t> BufferReader::ReadI32() {
  auto r = ReadU32();
  if (!r.ok()) return r.status();
  return static_cast<int32_t>(r.value());
}

Result<int64_t> BufferReader::ReadI64() {
  auto r = ReadU64();
  if (!r.ok()) return r.status();
  return static_cast<int64_t>(r.value());
}

Result<double> BufferReader::ReadF64() {
  auto r = ReadU64();
  if (!r.ok()) return r.status();
  double v;
  uint64_t bits = r.value();
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BufferReader::ReadString() {
  auto len = ReadU32();
  if (!len.ok()) return len.status();
  if (remaining() < len.value()) {
    return Status::DataLoss("buffer underrun reading string body");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len.value());
  pos_ += len.value();
  return s;
}

Status BufferReader::ReadBytes(uint8_t* out, size_t n) {
  if (remaining() < n) return Status::DataLoss("buffer underrun reading bytes");
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status BufferReader::Skip(size_t n) {
  if (remaining() < n) return Status::DataLoss("buffer underrun skipping bytes");
  pos_ += n;
  return Status::OK();
}

}  // namespace avdb
