#include "codec/intra_codec.h"

#include <algorithm>

#include "base/buffer_pool.h"
#include "base/work_pool.h"
#include "codec/bitio.h"
#include "codec/block_transform.h"
#include "codec/simd/kernels.h"

namespace avdb {

namespace {

/// Decoder over independently coded frames. Sequential random access needs
/// no inter-frame state; bulk ranges fan out across the work pool when the
/// stream was opened with concurrency > 1.
class IntraDecoderSession final : public VideoDecoderSession {
 public:
  explicit IntraDecoderSession(const EncodedVideo& video) : video_(video) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    ++decoded_;
    const auto& t = video_.raw_type;
    return IntraCodec::DecodeFrame(video_.frames[index].data, t.width(),
                                   t.height(), t.depth_bits(),
                                   video_.params.quality,
                                   video_.params.concurrency);
  }

  Result<std::vector<VideoFrame>> DecodeRange(int64_t first,
                                              int64_t count) override {
    if (first < 0 || count < 0 ||
        first + count > static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("decode range out of bounds");
    }
    const int width = video_.params.concurrency;
    if (width <= 1 || count <= 1) {
      return VideoDecoderSession::DecodeRange(first, count);
    }
    const auto& t = video_.raw_type;
    std::vector<Result<VideoFrame>> frames =
        WorkPool::Shared().ParallelMap<Result<VideoFrame>>(
            width, count, [&](int64_t i) {
              return IntraCodec::DecodeFrame(
                  video_.frames[static_cast<size_t>(first + i)].data,
                  t.width(), t.height(), t.depth_bits(),
                  video_.params.quality, /*concurrency=*/1);
            });
    std::vector<VideoFrame> out;
    out.reserve(static_cast<size_t>(count));
    for (auto& f : frames) {
      if (!f.ok()) return f.status();
      out.push_back(std::move(f).value());
    }
    decoded_ += count;
    return out;
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  const EncodedVideo& video_;
  int64_t decoded_ = 0;
};

/// Entropy-codes one colour plane into its own byte-aligned buffer. The
/// plane is read in place through a zero-copy view; the centered scratch
/// and the output backing store are pooled, so a warm encode allocates
/// nothing.
Buffer EncodePlaneBits(const VideoFrame& frame, int p, int quality) {
  BufferPool& pool = BufferPool::Shared();
  const PlaneView plane = frame.plane(p);
  BufferPool::I16Lease centered(&pool, plane.size());
  simd::ActiveKernels().u8_to_i16_center(plane.data(), centered->data(),
                                         plane.size());
  BitWriter writer(pool.AcquireBuffer(plane.size() / 2));
  block_transform::EncodePlane(centered->data(), frame.width(),
                               frame.height(), quality, &writer);
  return writer.Finish();
}

/// Decodes one plane sub-stream straight into `frame`'s plane `p` (planes
/// are disjoint storage, so concurrent plane tasks never alias).
Status DecodePlaneBits(const uint8_t* bits, size_t size, int p, int quality,
                       VideoFrame* frame) {
  BitReader reader(bits, size);
  BufferPool& pool = BufferPool::Shared();
  BufferPool::I16Lease centered(&pool, frame->plane_size());
  AVDB_RETURN_IF_ERROR(block_transform::DecodePlaneInto(
      frame->width(), frame->height(), quality, &reader, centered->data()));
  const PlaneSpan out = frame->plane_span(p);
  simd::ActiveKernels().i16_center_to_u8(centered->data(), out.data(),
                                         out.size());
  return Status::OK();
}

}  // namespace

Buffer IntraCodec::EncodeFrame(const VideoFrame& frame, int quality,
                               int concurrency) {
  const int planes = frame.plane_count();
  std::vector<Buffer> plane_bits = WorkPool::Shared().ParallelMap<Buffer>(
      std::min(concurrency, planes), planes,
      [&](int64_t p) {
        return EncodePlaneBits(frame, static_cast<int>(p), quality);
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
  // decode each independently.
  BufferReader reader(data);
  std::vector<std::pair<size_t, size_t>> spans;  // offset, size
  spans.reserve(static_cast<size_t>(planes));
  for (int p = 0; p < planes; ++p) {
    auto size = reader.ReadU32();
    if (!size.ok()) return size.status();
    const size_t offset = reader.position();
    AVDB_RETURN_IF_ERROR(reader.Skip(size.value()));
    spans.emplace_back(offset, size.value());
  }
  if (concurrency > 1 && planes > 1) {
    std::vector<Status> statuses = WorkPool::Shared().ParallelMap<Status>(
        std::min(concurrency, planes), planes, [&](int64_t p) {
          const auto& span = spans[static_cast<size_t>(p)];
          return DecodePlaneBits(data.data() + span.first, span.second,
                                 static_cast<int>(p), quality, &frame);
        });
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
  } else {
    for (int p = 0; p < planes; ++p) {
      const auto& span = spans[static_cast<size_t>(p)];
      AVDB_RETURN_IF_ERROR(DecodePlaneBits(data.data() + span.first,
                                           span.second, p, quality, &frame));
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
  const int64_t n = value.FrameCount();
  out.frames.reserve(static_cast<size_t>(n));
  if (params.concurrency <= 1) {
    for (int64_t i = 0; i < n; ++i) {
      auto frame = value.Frame(i);
      if (!frame.ok()) return frame.status();
      EncodedFrame ef;
      ef.is_intra = true;
      ef.data = EncodeFrame(frame.value(), params.quality);
      out.frames.push_back(std::move(ef));
    }
    return out;
  }
  // Parallel path: frames are fetched serially (VideoValue::Frame may keep
  // per-value decode state and is not required to be thread-safe), in
  // batches to bound raw-frame memory, then encoded across the pool.
  // Ordered join keeps the output byte-identical to the serial loop.
  const int64_t batch =
      std::max<int64_t>(static_cast<int64_t>(params.concurrency) * 4, 16);
  for (int64_t start = 0; start < n; start += batch) {
    const int64_t count = std::min(batch, n - start);
    std::vector<VideoFrame> raw;
    raw.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      auto frame = value.Frame(start + i);
      if (!frame.ok()) return frame.status();
      raw.push_back(std::move(frame).value());
    }
    std::vector<Buffer> encoded = WorkPool::Shared().ParallelMap<Buffer>(
        params.concurrency, count, [&](int64_t i) {
          return EncodeFrame(raw[static_cast<size_t>(i)], params.quality);
        });
    for (Buffer& bits : encoded) {
      EncodedFrame ef;
      ef.is_intra = true;
      ef.data = std::move(bits);
      out.frames.push_back(std::move(ef));
    }
  }
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
