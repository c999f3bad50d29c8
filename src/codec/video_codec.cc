#include "codec/video_codec.h"

#include <algorithm>

#include "base/work_pool.h"

namespace avdb {

Result<std::vector<VideoFrame>> VideoDecoderSession::DecodeRange(
    int64_t first, int64_t count) {
  if (first < 0 || count < 0) {
    return Status::InvalidArgument("bad decode range");
  }
  std::vector<VideoFrame> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    auto frame = DecodeFrame(first + i);
    if (!frame.ok()) return frame.status();
    out.push_back(std::move(frame).value());
  }
  return out;
}

Result<std::vector<VideoFrame>> VideoDecoderSession::DecodeEach(
    const EncodedVideo& video, int64_t first, int64_t count,
    int64_t* decoded,
    const std::function<Result<VideoFrame>(int64_t)>& decode_one) {
  const int64_t size = static_cast<int64_t>(video.frames.size());
  if (first < 0 || count < 0 || first > size || count > size - first) {
    return Status::InvalidArgument("decode range out of bounds");
  }
  std::vector<Result<VideoFrame>> frames =
      WorkPool::Shared().ParallelMap<Result<VideoFrame>>(
          video.params.concurrency, count,
          [&](int64_t i) { return decode_one(first + i); });
  std::vector<VideoFrame> out;
  out.reserve(static_cast<size_t>(count));
  for (Result<VideoFrame>& frame : frames) {
    if (!frame.ok()) return frame.status();
    out.push_back(std::move(frame).value());
  }
  *decoded += count;
  return out;
}

Status VideoCodec::EncodeEach(
    const VideoValue& value, int concurrency,
    const std::function<EncodedFrame(const VideoFrame&)>& encode_one,
    std::vector<EncodedFrame>* out) {
  const int64_t n = value.FrameCount();
  const int64_t batch =
      concurrency <= 1
          ? 1
          : std::max<int64_t>(static_cast<int64_t>(concurrency) * 4, 16);
  out->reserve(out->size() + static_cast<size_t>(n));
  std::vector<VideoFrame> raw;
  for (int64_t start = 0; start < n; start += batch) {
    const int64_t count = std::min(batch, n - start);
    raw.clear();
    for (int64_t i = 0; i < count; ++i) {
      AVDB_ASSIGN_OR_RETURN(VideoFrame frame, value.Frame(start + i));
      raw.push_back(std::move(frame));
    }
    std::vector<EncodedFrame> encoded =
        WorkPool::Shared().ParallelMap<EncodedFrame>(
            concurrency, count, [&](int64_t i) {
              return encode_one(raw[static_cast<size_t>(i)]);
            });
    for (EncodedFrame& ef : encoded) out->push_back(std::move(ef));
  }
  return Status::OK();
}

int64_t EncodedFrame::SizeBytes() const {
  int64_t total = static_cast<int64_t>(data.size());
  for (const auto& l : layers) total += static_cast<int64_t>(l.size());
  return total + 2;  // is_intra flag + layer count
}

int64_t EncodedVideo::TotalBytes() const {
  int64_t total = 0;
  for (const auto& f : frames) total += f.SizeBytes();
  return total;
}

Result<int64_t> EncodedVideo::AccessPointBefore(int64_t index) const {
  if (index < 0 || index >= static_cast<int64_t>(frames.size())) {
    return Status::InvalidArgument("frame index out of range");
  }
  for (int64_t i = index; i >= 0; --i) {
    if (frames[static_cast<size_t>(i)].is_intra) return i;
  }
  return Status::DataLoss("no access point precedes frame " +
                          std::to_string(index));
}

Buffer EncodedVideo::Serialize() const {
  Buffer out;
  out.AppendU32(0x41564456);  // 'AVDV'
  out.AppendU8(static_cast<uint8_t>(family));
  out.AppendI32(raw_type.width());
  out.AppendI32(raw_type.height());
  out.AppendI32(raw_type.depth_bits());
  out.AppendI64(raw_type.element_rate().num());
  out.AppendI64(raw_type.element_rate().den());
  out.AppendI32(params.quality);
  out.AppendI32(params.gop_size);
  out.AppendI32(params.search_range);
  out.AppendI32(params.layer_count);
  out.AppendU32(static_cast<uint32_t>(frames.size()));
  for (const auto& f : frames) {
    out.AppendU8(f.is_intra ? 1 : 0);
    out.AppendU32(static_cast<uint32_t>(f.data.size()));
    out.AppendBuffer(f.data);
    out.AppendU8(static_cast<uint8_t>(f.layers.size()));
    for (const auto& l : f.layers) {
      out.AppendU32(static_cast<uint32_t>(l.size()));
      out.AppendBuffer(l);
    }
  }
  return out;
}

Result<EncodedVideo> EncodedVideo::Deserialize(const Buffer& buffer) {
  BufferReader r(buffer);
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != 0x41564456) {
    return Status::DataLoss("bad encoded-video magic");
  }
  EncodedVideo v;
  auto family = r.ReadU8();
  if (!family.ok()) return family.status();
  v.family = static_cast<EncodingFamily>(family.value());

  auto width = r.ReadI32();
  if (!width.ok()) return width.status();
  auto height = r.ReadI32();
  if (!height.ok()) return height.status();
  auto depth = r.ReadI32();
  if (!depth.ok()) return depth.status();
  auto rate_num = r.ReadI64();
  if (!rate_num.ok()) return rate_num.status();
  auto rate_den = r.ReadI64();
  if (!rate_den.ok()) return rate_den.status();
  if (rate_den.value() == 0) return Status::DataLoss("zero rate denominator");
  if (depth.value() != 8 && depth.value() != 24) {
    return Status::DataLoss("bad stored depth");
  }
  if (width.value() <= 0 || height.value() <= 0) {
    return Status::DataLoss("bad stored video geometry");
  }
  // Decoders allocate width*height planes before reading a single payload
  // byte, so implausible (corrupt) geometry must be rejected here rather
  // than surfacing as an allocation failure downstream.
  if (static_cast<int64_t>(width.value()) * height.value() >
      (int64_t{1} << 26)) {
    return Status::DataLoss("implausible stored video geometry");
  }
  v.raw_type =
      MediaDataType::RawVideo(width.value(), height.value(), depth.value(),
                              Rational(rate_num.value(), rate_den.value()));

  auto quality = r.ReadI32();
  if (!quality.ok()) return quality.status();
  v.params.quality = quality.value();
  auto gop = r.ReadI32();
  if (!gop.ok()) return gop.status();
  v.params.gop_size = gop.value();
  auto range = r.ReadI32();
  if (!range.ok()) return range.status();
  v.params.search_range = range.value();
  auto layers = r.ReadI32();
  if (!layers.ok()) return layers.status();
  v.params.layer_count = layers.value();

  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  // Every stored frame needs at least its is_intra byte, so a count beyond
  // the remaining payload is corrupt — reject before reserving, and size
  // every buffer only after checking the bytes are actually present, so a
  // corrupt length field surfaces as DataLoss instead of a huge alloc.
  if (count.value() > r.remaining()) {
    return Status::DataLoss("frame count exceeds payload");
  }
  v.frames.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    EncodedFrame f;
    auto intra = r.ReadU8();
    if (!intra.ok()) return intra.status();
    f.is_intra = intra.value() != 0;
    auto size = r.ReadU32();
    if (!size.ok()) return size.status();
    if (size.value() > r.remaining()) {
      return Status::DataLoss("frame size exceeds payload");
    }
    f.data.Resize(size.value());
    AVDB_RETURN_IF_ERROR(r.ReadBytes(f.data.data(), size.value()));
    auto layer_count = r.ReadU8();
    if (!layer_count.ok()) return layer_count.status();
    for (uint8_t l = 0; l < layer_count.value(); ++l) {
      auto lsize = r.ReadU32();
      if (!lsize.ok()) return lsize.status();
      if (lsize.value() > r.remaining()) {
        return Status::DataLoss("layer size exceeds payload");
      }
      Buffer layer;
      layer.Resize(lsize.value());
      AVDB_RETURN_IF_ERROR(r.ReadBytes(layer.data(), lsize.value()));
      f.layers.push_back(std::move(layer));
    }
    v.frames.push_back(std::move(f));
  }
  return v;
}

}  // namespace avdb
