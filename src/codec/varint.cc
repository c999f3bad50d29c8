#include "codec/varint.h"

namespace avdb {

uint64_t VarintReader::ReadVarintNearEnd() {
  uint64_t v = 0;
  for (size_t i = 0; pos_ + i < size_; ++i) {
    const uint8_t byte = data_[pos_ + i];
    v |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if (byte < 0x80) {
      pos_ += i + 1;
      return v;
    }
  }
  return Fail("varint underrun");
}

uint64_t VarintReader::Fail(const char* error) {
  if (error_ == nullptr) error_ = error;
  pos_ = size_;
  return 0;
}

}  // namespace avdb
