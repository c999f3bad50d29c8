// analyze-fixture-as: src/codec/plane_ok.cc
// Fixture: the sanctioned zero-copy idioms stay accepted in the codec hot
// path — borrowing plane views, leasing pooled scratch, and passing byte
// planes by reference.
#include <cstdint>
#include <vector>

#include "base/buffer_pool.h"
#include "media/frame.h"

namespace avdb {

void EncodeOnePlane(VideoFrame* frame, const std::vector<uint8_t>& table) {
  const PlaneView src = frame->plane(0);
  const PlaneSpan dst = frame->plane_span(0);
  BufferPool::BytesLease scratch(&BufferPool::Shared(), src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    (*scratch)[i] = static_cast<uint8_t>(src.data()[i] + table[i % 2]);
  }
  for (size_t i = 0; i < src.size(); ++i) dst.data()[i] = (*scratch)[i];
}

}  // namespace avdb
