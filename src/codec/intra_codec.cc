#include "codec/intra_codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "base/buffer_pool.h"
#include "base/work_pool.h"
#include "codec/block_transform.h"
#include "codec/simd/kernels.h"
#include "codec/varint.h"

namespace avdb {

namespace {

/// Decoder over independently coded frames. Sequential random access needs
/// no inter-frame state, so a single frame spreads its planes over the
/// stream's concurrency and a range spreads its frames.
class IntraDecoderSession final : public VideoDecoderSession {
 public:
  explicit IntraDecoderSession(const EncodedVideo& video) : video_(video) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    ++decoded_;
    return DecodeAt(index, video_.params.concurrency);
  }

  Result<std::vector<VideoFrame>> DecodeRange(int64_t first,
                                              int64_t count) override {
    return DecodeEach(video_, first, count, &decoded_, [this](int64_t i) {
      return DecodeAt(i, /*plane_concurrency=*/1);
    });
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  Result<VideoFrame> DecodeAt(int64_t index, int plane_concurrency) const {
    const auto& t = video_.raw_type;
    const Buffer& data = video_.frames[static_cast<size_t>(index)].data;
    return IntraCodec::DecodeFrame(data, t.width(), t.height(),
                                   t.depth_bits(), video_.params.quality,
                                   plane_concurrency);
  }

  const EncodedVideo& video_;
  int64_t decoded_ = 0;
};

/// Entropy-codes one colour plane into its own byte-aligned buffer. The
/// plane is read in place through a zero-copy view; the centered scratch
/// and the output backing store are pooled, so a warm encode allocates
/// nothing. A non-null `recon` receives the decoded plane `p`.
Buffer EncodePlaneBits(const VideoFrame& frame, int p, int quality,
                       VideoFrame* recon) {
  BufferPool& pool = BufferPool::Shared();
  const simd::CodecKernels& k = simd::ActiveKernels();
  const PlaneView plane = frame.plane(p);
  BufferPool::I16Lease centered(&pool, plane.size());
  k.u8_to_i16_center(plane.data(), centered->data(), plane.size());
  VarintWriter writer(pool.AcquireBuffer(plane.size() / 2));
  if (recon == nullptr) {
    block_transform::EncodePlane(centered->data(), frame.width(),
                                 frame.height(), quality, &writer);
    return writer.Finish();
  }
  BufferPool::I16Lease recon_centered(&pool, plane.size());
  block_transform::EncodePlane(centered->data(), frame.width(),
                               frame.height(), quality, &writer,
                               recon_centered->data());
  const PlaneSpan out = recon->plane_span(p);
  k.i16_center_to_u8(recon_centered->data(), out.data(), out.size());
  return writer.Finish();
}

/// Decodes one plane sub-stream straight into `frame`'s plane `p` (planes
/// are disjoint storage, so concurrent plane tasks never alias). The
/// plane starts at the centered samples' zero, 128, and each coded block
/// is added onto it: adding with saturation onto 128 is i16_center_to_u8.
Status DecodePlaneBits(const uint8_t* bits, size_t size, int p, int quality,
                       VideoFrame* frame) {
  VarintReader reader(bits, size);
  const PlaneSpan out = frame->plane_span(p);
  std::memset(out.data(), 128, out.size());
  return block_transform::DecodePlaneOnto(frame->width(), frame->height(),
                                          quality, &reader, out.data());
}

}  // namespace

Buffer IntraCodec::EncodeFrame(const VideoFrame& frame, int quality,
                               int concurrency, VideoFrame* recon) {
  const int planes = frame.plane_count();
  if (recon != nullptr) {
    *recon = VideoFrame(frame.width(), frame.height(), frame.depth_bits());
  }
  std::vector<Buffer> plane_bits = WorkPool::Shared().ParallelMap<Buffer>(
      std::min(concurrency, planes), planes, [&](int64_t p) {
        return EncodePlaneBits(frame, static_cast<int>(p), quality, recon);
      });
  Buffer out;
  size_t total = 0;
  for (const Buffer& b : plane_bits) total += b.size() + 4;
  out.Reserve(total);
  for (Buffer& b : plane_bits) {
    out.AppendU32(static_cast<uint32_t>(b.size()));
    out.AppendBuffer(b);
    BufferPool::Shared().Release(std::move(b));  // pooled by EncodePlaneBits
  }
  return out;
}

Result<VideoFrame> IntraCodec::DecodeFrame(const Buffer& data, int width,
                                           int height, int depth_bits,
                                           int quality, int concurrency) {
  VideoFrame frame(width, height, depth_bits);
  const int planes = frame.plane_count();
  // Slice the per-plane sub-streams up front (cheap, sequential), then
  // decode each independently. Fixed arrays, so a frame allocates nothing
  // beyond its own pooled storage.
  BufferReader reader(data);
  // Each plane's offset and size.
  std::array<std::pair<size_t, size_t>, VideoFrame::kMaxPlanes> spans;
  for (int p = 0; p < planes; ++p) {
    auto size = reader.ReadU32();
    if (!size.ok()) return size.status();
    const size_t offset = reader.position();
    AVDB_RETURN_IF_ERROR(reader.Skip(size.value()));
    spans[static_cast<size_t>(p)] = {offset, size.value()};
  }
  std::array<Status, VideoFrame::kMaxPlanes> statuses;
  WorkPool::Shared().ParallelFor(
      std::min(concurrency, planes), planes, [&](int64_t p) {
        const auto& span = spans[static_cast<size_t>(p)];
        statuses[static_cast<size_t>(p)] =
            DecodePlaneBits(data.data() + span.first, span.second,
                            static_cast<int>(p), quality, &frame);
      });
  for (int p = 0; p < planes; ++p) {
    if (!statuses[static_cast<size_t>(p)].ok()) {
      return statuses[static_cast<size_t>(p)];
    }
  }
  return frame;
}

Result<EncodedVideo> IntraCodec::Encode(const VideoValue& value,
                                        const VideoCodecParams& params) const {
  if (value.type().IsCompressed()) {
    return Status::InvalidArgument("encoder input must be raw video");
  }
  EncodedVideo out;
  out.raw_type = value.type();
  out.family = family();
  out.params = params;
  AVDB_RETURN_IF_ERROR(EncodeEach(
      value, params.concurrency,
      [&](const VideoFrame& frame) {
        EncodedFrame ef;
        ef.is_intra = true;
        ef.data = EncodeFrame(frame, params.quality);
        return ef;
      },
      &out.frames));
  return out;
}

Result<std::unique_ptr<VideoDecoderSession>> IntraCodec::NewDecoder(
    const EncodedVideo& video) const {
  if (video.family != EncodingFamily::kIntra) {
    return Status::InvalidArgument("stream is not intra-coded");
  }
  return std::unique_ptr<VideoDecoderSession>(
      new IntraDecoderSession(video));
}

}  // namespace avdb
