#include "codec/scalable_codec.h"

#include <algorithm>

#include "base/work_pool.h"
#include "codec/block_transform.h"
#include "codec/simd/kernels.h"
#include "codec/varint.h"

namespace avdb {

namespace {

struct PlaneI16 {
  int width = 0;
  int height = 0;
  std::vector<int16_t> data;
};

// Centered copy of one component plane, read zero-copy from the frame.
PlaneI16 ToI16(const PlaneView& plane) {
  PlaneI16 out{plane.width(), plane.height(),
               std::vector<int16_t>(plane.size())};
  simd::ActiveKernels().u8_to_i16_center(plane.data(), out.data.data(),
                                         plane.size());
  return out;
}

// Box-filter downsample by 2 (ceil geometry).
PlaneI16 Downsample2(const PlaneI16& src) {
  PlaneI16 out;
  out.width = (src.width + 1) / 2;
  out.height = (src.height + 1) / 2;
  out.data.resize(static_cast<size_t>(out.width) * out.height);
  for (int y = 0; y < out.height; ++y) {
    for (int x = 0; x < out.width; ++x) {
      int sum = 0;
      int count = 0;
      for (int dy = 0; dy < 2; ++dy) {
        const int sy = 2 * y + dy;
        if (sy >= src.height) continue;
        for (int dx = 0; dx < 2; ++dx) {
          const int sx = 2 * x + dx;
          if (sx >= src.width) continue;
          sum += src.data[static_cast<size_t>(sy) * src.width + sx];
          ++count;
        }
      }
      out.data[static_cast<size_t>(y) * out.width + x] =
          static_cast<int16_t>(sum / (count == 0 ? 1 : count));
    }
  }
  return out;
}

// Bilinear upsample to an exact target geometry. A sample's taps (the two
// source samples it lies between, the second clamped to the edge, and
// their weights) depend only on the geometry, so the column taps are
// computed once per call and the row taps once per row. Each sample still
// evaluates the same double expression, in the same order.
PlaneI16 UpsampleTo(const PlaneI16& src, int width, int height) {
  struct Tap {
    int i0, i1;
    double w0, w1;  // w0 = 1 - w1
  };
  const auto tap_at = [](int i, int n, int src_n) {
    const double f =
        n > 1 ? static_cast<double>(i) * (src_n - 1) / (n - 1) : 0.0;
    const int i0 = static_cast<int>(f);
    return Tap{i0, i0 + 1 < src_n ? i0 + 1 : i0, 1 - (f - i0), f - i0};
  };
  PlaneI16 out{width, height,
               std::vector<int16_t>(static_cast<size_t>(width) * height)};
  if (src.width == 0 || src.height == 0) return out;
  std::vector<Tap> cols(static_cast<size_t>(width));
  for (int x = 0; x < width; ++x) cols[x] = tap_at(x, width, src.width);
  for (int y = 0; y < height; ++y) {
    const Tap row = tap_at(y, height, src.height);
    const int16_t* r0 = &src.data[static_cast<size_t>(row.i0) * src.width];
    const int16_t* r1 = &src.data[static_cast<size_t>(row.i1) * src.width];
    int16_t* dst = &out.data[static_cast<size_t>(y) * width];
    for (int x = 0; x < width; ++x) {
      const Tap& col = cols[x];
      const double v00 = r0[col.i0];
      const double v01 = r0[col.i1];
      const double v10 = r1[col.i0];
      const double v11 = r1[col.i1];
      const double v = v00 * col.w0 * row.w0 + v01 * col.w1 * row.w0 +
                       v10 * col.w0 * row.w1 + v11 * col.w1 * row.w1;
      dst[x] = static_cast<int16_t>(v >= 0 ? v + 0.5 : v - 0.5);
    }
  }
  return out;
}

// Bytes a decode of `layers` layers reads from one stored frame: the base
// layers and the first (layers - 1) * planes enhancement layers.
int64_t FrameBytesAtLayers(const EncodedFrame& ef, int planes, int layers) {
  int64_t bytes = static_cast<int64_t>(ef.data.size());
  const size_t n = std::min(ef.layers.size(),
                            static_cast<size_t>((layers - 1) * planes));
  for (size_t i = 0; i < n; ++i) {
    bytes += static_cast<int64_t>(ef.layers[i].size());
  }
  return bytes;
}

// Geometry of layer `L` (0-based) for a full size `full`: full >> (2-L).
int LayerDim(int full, int layer) {
  int shift = ScalableCodec::kMaxLayers - 1 - layer;
  int v = full;
  for (int i = 0; i < shift; ++i) v = (v + 1) / 2;
  return v;
}

// Encodes one plane into `layer_count` layers and returns their bits, base
// layer first. Each enhancement layer codes its residual against the
// upsampled reconstruction of the layers below it.
std::vector<Buffer> EncodePlaneLayers(const PlaneI16& full, int layer_count,
                                      int quality) {
  std::vector<Buffer> layers;
  // Build the pyramid: pyramid[0] = base (smallest), up to full size.
  std::vector<PlaneI16> pyramid(static_cast<size_t>(layer_count));
  pyramid[static_cast<size_t>(layer_count - 1)] = full;
  for (int l = layer_count - 2; l >= 0; --l) {
    pyramid[static_cast<size_t>(l)] =
        Downsample2(pyramid[static_cast<size_t>(l + 1)]);
  }
  const simd::CodecKernels& k = simd::ActiveKernels();
  PlaneI16 recon;  // reconstruction so far, at pyramid[l] geometry
  for (int l = 0; l < layer_count; ++l) {
    const PlaneI16& target = pyramid[static_cast<size_t>(l)];
    const size_t n = target.data.size();
    VarintWriter writer;
    PlaneI16 new_recon{target.width, target.height, std::vector<int16_t>(n)};
    if (l == 0) {
      // EncodePlane hands back the decoder-exact reconstruction, so no
      // layer is ever re-parsed to maintain the prediction chain.
      block_transform::EncodePlane(target.data.data(), target.width,
                                   target.height, quality, &writer,
                                   new_recon.data.data());
    } else {
      const PlaneI16 pred = UpsampleTo(recon, target.width, target.height);
      PlaneI16 residual{target.width, target.height,
                        std::vector<int16_t>(n)};
      k.sub_i16(target.data.data(), pred.data.data(), residual.data.data(),
                n);
      block_transform::EncodePlane(residual.data.data(), target.width,
                                   target.height, quality, &writer,
                                   new_recon.data.data());
      k.add_i16(pred.data.data(), new_recon.data.data(),
                new_recon.data.data(), n);
    }
    recon = std::move(new_recon);
    layers.push_back(writer.Finish());
  }
  return layers;
}

// Encodes one full frame into layer_count layers per plane. Enhancement
// layers chain on the layer below; planes are independent. A pure function
// of the frame, so whole frames run on any pool thread (EncodeEach).
// Packing: layer 0 of all planes goes into `data` (u32-size-prefixed),
// enhancement layer L plane p lands at layers[(L-1)*planes + p].
EncodedFrame EncodeScalableFrame(const VideoFrame& frame,
                                 const VideoCodecParams& params) {
  const int planes = frame.plane_count();
  EncodedFrame ef;
  ef.is_intra = true;
  ef.layers.resize(static_cast<size_t>(params.layer_count - 1) * planes);
  Buffer base;
  for (int p = 0; p < planes; ++p) {
    std::vector<Buffer> layer_bits = EncodePlaneLayers(
        ToI16(frame.plane(p)), params.layer_count, params.quality);
    base.AppendU32(static_cast<uint32_t>(layer_bits[0].size()));
    base.AppendBuffer(layer_bits[0]);
    for (int l = 1; l < params.layer_count; ++l) {
      ef.layers[static_cast<size_t>(l - 1) * planes + p] =
          std::move(layer_bits[static_cast<size_t>(l)]);
    }
  }
  ef.data = std::move(base);
  return ef;
}

// One layer's entropy-coded bits, read in place from the stored frame.
struct LayerBits {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

// Decodes layers [0, bits.size()) of one plane and upsamples to full
// geometry.
Result<PlaneI16> DecodePlaneLayers(const std::vector<LayerBits>& bits,
                                   int full_width, int full_height,
                                   int quality, int stored_layers) {
  PlaneI16 recon;
  for (size_t l = 0; l < bits.size(); ++l) {
    const int layer = static_cast<int>(l) + ScalableCodec::kMaxLayers -
                      stored_layers;
    const int w = LayerDim(full_width, layer);
    const int h = LayerDim(full_height, layer);
    VarintReader reader(bits[l].data, bits[l].size);
    PlaneI16 decoded{w, h, std::vector<int16_t>(static_cast<size_t>(w) * h)};
    AVDB_RETURN_IF_ERROR(block_transform::DecodePlaneInto(
        w, h, quality, &reader, decoded.data.data()));
    if (l > 0) {
      const PlaneI16 pred = UpsampleTo(recon, w, h);
      simd::ActiveKernels().add_i16(pred.data.data(), decoded.data.data(),
                                    decoded.data.data(), decoded.data.size());
    }
    recon = std::move(decoded);
  }
  // At full size every tap weight is exactly 0, so the upsample would
  // copy `recon` sample for sample.
  if (recon.width == full_width && recon.height == full_height) return recon;
  return UpsampleTo(recon, full_width, full_height);
}

class ScalableDecoderSession final : public VideoDecoderSession {
 public:
  ScalableDecoderSession(const EncodedVideo& video, int layers)
      : video_(video), layers_(layers) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    AVDB_ASSIGN_OR_RETURN(VideoFrame frame,
                          DecodeOne(index, video_.params.concurrency));
    ++decoded_;
    return frame;
  }

  Result<std::vector<VideoFrame>> DecodeRange(int64_t first,
                                              int64_t count) override {
    // Every frame is intra-coded, so frames are the parallel grain here
    // (planes stay serial inside each task).
    return DecodeEach(video_, first, count, &decoded_, [this](int64_t i) {
      return DecodeOne(i, /*plane_concurrency=*/1);
    });
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  Result<VideoFrame> DecodeOne(int64_t index, int plane_concurrency) const {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    const auto& ef = video_.frames[static_cast<size_t>(index)];
    const auto& t = video_.raw_type;
    const int stored = video_.params.layer_count;
    const int use = layers_ < stored ? layers_ : stored;
    const int planes = t.depth_bits() / 8;

    VideoFrame frame(t.width(), t.height(), t.depth_bits());
    // Layer 0 of every plane is packed in ef.data, plane after plane, each
    // behind a u32 byte size; enhancement layer L >= 1 of plane p is
    // ef.layers[(L-1)*planes + p]. Every layer is read in place.
    BufferReader base_reader(ef.data);
    std::vector<LayerBits> base(static_cast<size_t>(planes));
    for (LayerBits& bits : base) {
      auto size = base_reader.ReadU32();
      if (!size.ok()) return size.status();
      bits = {ef.data.data() + base_reader.position(), size.value()};
      AVDB_RETURN_IF_ERROR(base_reader.Skip(size.value()));
    }
    // Planes chain layers internally but are independent of each other;
    // storage is planar, so concurrent plane tasks write disjoint
    // contiguous runs and never touch the same byte.
    std::vector<Status> statuses = WorkPool::Shared().ParallelMap<Status>(
        std::min(plane_concurrency, planes), planes, [&](int64_t p64) {
          const int p = static_cast<int>(p64);
          std::vector<LayerBits> bits = {base[static_cast<size_t>(p)]};
          for (int l = 1; l < use; ++l) {
            const size_t li = static_cast<size_t>(l - 1) * planes + p;
            if (li >= ef.layers.size()) {
              return Status::DataLoss("missing enhancement layer");
            }
            bits.push_back({ef.layers[li].data(), ef.layers[li].size()});
          }
          auto plane = DecodePlaneLayers(bits, t.width(), t.height(),
                                         video_.params.quality, stored);
          if (!plane.ok()) return plane.status();
          const PlaneSpan out = frame.plane_span(p);
          simd::ActiveKernels().i16_center_to_u8(plane.value().data.data(),
                                                 out.data(), out.size());
          return Status::OK();
        });
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return frame;
  }

  const EncodedVideo& video_;
  const int layers_;
  int64_t decoded_ = 0;
};

}  // namespace

Result<EncodedVideo> ScalableCodec::Encode(
    const VideoValue& value, const VideoCodecParams& params) const {
  if (value.type().IsCompressed()) {
    return Status::InvalidArgument("encoder input must be raw video");
  }
  if (params.layer_count < 1 || params.layer_count > kMaxLayers) {
    return Status::InvalidArgument("layer_count must be in [1, 3]");
  }
  EncodedVideo out;
  out.raw_type = value.type();
  out.family = family();
  out.params = params;
  AVDB_RETURN_IF_ERROR(EncodeEach(
      value, params.concurrency,
      [&](const VideoFrame& frame) {
        return EncodeScalableFrame(frame, params);
      },
      &out.frames));
  return out;
}

Result<std::unique_ptr<VideoDecoderSession>> ScalableCodec::NewDecoder(
    const EncodedVideo& video) const {
  return NewDecoderWithLayers(video, video.params.layer_count);
}

Result<std::unique_ptr<VideoDecoderSession>> ScalableCodec::NewDecoderWithLayers(
    const EncodedVideo& video, int layers) const {
  if (video.family != EncodingFamily::kScalable) {
    return Status::InvalidArgument("stream is not scalable-coded");
  }
  if (layers < 1 || layers > video.params.layer_count) {
    return Status::InvalidArgument("requested layer count not stored");
  }
  return std::unique_ptr<VideoDecoderSession>(
      new ScalableDecoderSession(video, layers));
}

Result<int64_t> ScalableCodec::BytesPerFrameAtLayers(const EncodedVideo& video,
                                                     int layers) {
  if (video.frames.empty()) return Status::InvalidArgument("empty stream");
  if (layers < 1 || layers > video.params.layer_count) {
    return Status::InvalidArgument("requested layer count not stored");
  }
  int64_t total = 0;
  for (const auto& ef : video.frames) {
    total += FrameBytesAtLayers(ef, video.raw_type.depth_bits() / 8, layers);
  }
  return total / static_cast<int64_t>(video.frames.size());
}

Result<std::shared_ptr<ScalableVideoView>> ScalableVideoView::Create(
    std::shared_ptr<const EncodedVideoValue> value, int layers) {
  if (value == nullptr ||
      value->encoded().family != EncodingFamily::kScalable) {
    return Status::InvalidArgument("view requires a scalable stream");
  }
  if (layers < 1 || layers > value->encoded().params.layer_count) {
    return Status::InvalidArgument("requested layer count not stored");
  }
  return std::shared_ptr<ScalableVideoView>(
      new ScalableVideoView(std::move(value), layers));
}

Result<VideoDecoderSession*> ScalableVideoView::Session() const {
  if (session_ == nullptr) {
    AVDB_ASSIGN_OR_RETURN(session_,
                          ScalableCodec().NewDecoderWithLayers(video_, layers_));
  }
  return session_.get();
}

Result<VideoFrame> ScalableVideoView::Frame(int64_t index) const {
  AVDB_ASSIGN_OR_RETURN(VideoDecoderSession * session, Session());
  return session->DecodeFrame(index);
}

Result<std::vector<VideoFrame>> ScalableVideoView::Frames(
    int64_t first, int64_t count) const {
  AVDB_ASSIGN_OR_RETURN(VideoDecoderSession * session, Session());
  return session->DecodeRange(first, count);
}

int64_t ScalableVideoView::StoredBytes() const {
  int64_t total = 0;
  for (int64_t i = 0; i < ElementCount(); ++i) total += StoredFrameBytes(i);
  return total;
}

int64_t ScalableVideoView::StoredFrameBytes(int64_t index) const {
  if (index < 0 || index >= ElementCount()) return 0;
  return FrameBytesAtLayers(video_.frames[static_cast<size_t>(index)],
                            video_.raw_type.depth_bits() / 8, layers_);
}

std::string ScalableVideoView::Describe() const {
  return MediaValue::Describe() + " (scalable view, " +
         std::to_string(layers_) + "/" +
         std::to_string(video_.params.layer_count) + " layers)";
}

int ScalableCodec::LayersForResolution(const MediaDataType& stored,
                                       int req_width, int req_height) {
  for (int layers = 1; layers <= kMaxLayers; ++layers) {
    if (LayerDim(stored.width(), layers - 1) >= req_width &&
        LayerDim(stored.height(), layers - 1) >= req_height) {
      return layers;
    }
  }
  return kMaxLayers;
}

}  // namespace avdb
