// analyze-fixture-as: src/codec/bad_plane_copy.cc
// analyze-expect: plane-copy
// Fixture: the copy-per-frame idioms the zero-copy pipeline removed — a
// copying frame accessor and a by-value byte-plane temporary in a codec
// hot path. Borrow PlaneView/PlaneSpan or lease from BufferPool instead.
#include <cstdint>
#include <vector>

#include "media/frame.h"

namespace avdb {

void EncodeOnePlane(const VideoFrame& frame) {
  std::vector<uint8_t> plane = frame.ExtractPlane(0);  // two violations
  std::vector<uint8_t> scratch(plane.size());          // one more
  (void)scratch;
}

}  // namespace avdb
