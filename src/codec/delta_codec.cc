#include "codec/delta_codec.h"

#include "codec/varint.h"

namespace avdb {

namespace {

// Encodes one frame's deltas against `ref` (all planes interleaved order),
// returning the reconstructed frame via `recon_out`.
Buffer EncodeDeltaFrame(const VideoFrame& cur, const VideoFrame& ref,
                        int step, VideoFrame* recon_out) {
  VarintWriter writer;
  *recon_out = VideoFrame(cur.width(), cur.height(), cur.depth_bits());
  const auto& cur_data = cur.data();
  const auto& ref_data = ref.data();
  auto& recon = recon_out->data();
  // (zero-run, quantized-delta) pairs over the whole byte array.
  uint64_t run = 0;
  for (size_t i = 0; i < cur_data.size(); ++i) {
    const int delta = static_cast<int>(cur_data[i]) - ref_data[i];
    int q = delta >= 0 ? (delta + step / 2) / step : -((-delta + step / 2) / step);
    if (q == 0) {
      ++run;
      recon[i] = ref_data[i];
      continue;
    }
    writer.WriteVarint(run);
    writer.WriteSignedVarint(q);
    run = 0;
    int v = ref_data[i] + q * step;
    if (v < 0) v = 0;
    if (v > 255) v = 255;
    recon[i] = static_cast<uint8_t>(v);
  }
  // Trailing run terminator: run value with a zero delta sentinel.
  writer.WriteVarint(run);
  writer.WriteSignedVarint(0);
  return writer.Finish();
}

Result<VideoFrame> DecodeDeltaFrame(const Buffer& data, const VideoFrame& ref,
                                    int step) {
  VideoFrame out(ref.width(), ref.height(), ref.depth_bits());
  const auto& ref_data = ref.data();
  auto& out_data = out.data();
  VarintReader reader(data);
  size_t i = 0;
  const size_t n = out_data.size();
  while (i < n) {
    const uint64_t run = reader.ReadVarint();
    const int64_t q = reader.ReadSignedVarint();
    if (!reader.ok()) return reader.status();
    if (run > n - i) return Status::DataLoss("delta run overflow");
    for (uint64_t r = 0; r < run; ++r, ++i) out_data[i] = ref_data[i];
    if (q == 0) {
      // Sentinel: remaining pixels (if any) are unchanged.
      for (; i < n; ++i) out_data[i] = ref_data[i];
      break;
    }
    if (i >= n) return Status::DataLoss("delta value past frame end");
    // A level is a delta of 8-bit samples over a step of at least 1.
    if (q < -255 || q > 255) return Status::DataLoss("delta level too large");
    int v = ref_data[i] + static_cast<int>(q) * step;
    if (v < 0) v = 0;
    if (v > 255) v = 255;
    out_data[i] = static_cast<uint8_t>(v);
    ++i;
  }
  return out;
}

VideoFrame GreyReference(int width, int height, int depth_bits) {
  VideoFrame f(width, height, depth_bits);
  for (auto& b : f.data()) b = 128;
  return f;
}

class DeltaDecoderSession final : public VideoDecoderSession {
 public:
  explicit DeltaDecoderSession(const EncodedVideo& video) : video_(video) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    const int step = DeltaCodec::StepForQuality(video_.params.quality);
    const auto& t = video_.raw_type;
    if (index < next_index_ || !have_ref_) {
      ref_ = GreyReference(t.width(), t.height(), t.depth_bits());
      have_ref_ = true;
      next_index_ = 0;
    }
    VideoFrame frame;
    while (next_index_ <= index) {
      auto decoded = DecodeDeltaFrame(
          video_.frames[static_cast<size_t>(next_index_)].data, ref_, step);
      if (!decoded.ok()) return decoded.status();
      frame = std::move(decoded).value();
      ref_ = frame;
      ++next_index_;
      ++decoded_;
    }
    return frame;
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  const EncodedVideo& video_;
  VideoFrame ref_;
  bool have_ref_ = false;
  int64_t next_index_ = 0;
  int64_t decoded_ = 0;
};

}  // namespace

int DeltaCodec::StepForQuality(int quality) {
  if (quality < 1) quality = 1;
  if (quality > 100) quality = 100;
  // quality 100 -> step 1 (lossless deltas), quality 1 -> step 16.
  return 1 + (100 - quality) * 15 / 99;
}

Result<EncodedVideo> DeltaCodec::Encode(const VideoValue& value,
                                        const VideoCodecParams& params) const {
  if (value.type().IsCompressed()) {
    return Status::InvalidArgument("encoder input must be raw video");
  }
  EncodedVideo out;
  out.raw_type = value.type();
  out.family = family();
  out.params = params;
  const int step = StepForQuality(params.quality);

  VideoFrame ref = GreyReference(value.width(), value.height(),
                                 value.depth_bits());
  for (int64_t i = 0; i < value.FrameCount(); ++i) {
    auto frame = value.Frame(i);
    if (!frame.ok()) return frame.status();
    EncodedFrame ef;
    // Only frame 0 is a (conventional) access point; every later frame
    // depends on its predecessor.
    ef.is_intra = i == 0;
    VideoFrame recon;
    ef.data = EncodeDeltaFrame(frame.value(), ref, step, &recon);
    ref = std::move(recon);
    out.frames.push_back(std::move(ef));
  }
  return out;
}

Result<std::unique_ptr<VideoDecoderSession>> DeltaCodec::NewDecoder(
    const EncodedVideo& video) const {
  if (video.family != EncodingFamily::kDelta) {
    return Status::InvalidArgument("stream is not delta-coded");
  }
  return std::unique_ptr<VideoDecoderSession>(new DeltaDecoderSession(video));
}

}  // namespace avdb
