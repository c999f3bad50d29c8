// analyze-fixture-as: src/codec/bad_plane_copy.cc
// analyze-expect: plane-copy
// Fixture: the copy-per-frame idioms the zero-copy pipeline removed — a
// by-value copy of a frame plane and a by-value byte-plane temporary in a
// codec hot path. Borrow PlaneView/PlaneSpan or lease from BufferPool
// instead.
#include <cstdint>
#include <vector>

#include "media/frame.h"

namespace avdb {

void EncodeOnePlane(const VideoFrame& frame) {
  const PlaneView view = frame.plane(0);
  std::vector<uint8_t> plane(view.data(), view.data() + view.size());
  std::vector<uint8_t> scratch(plane.size());  // one more
  (void)scratch;
}

}  // namespace avdb
