#include "codec/scalable_codec.h"

#include <algorithm>
#include <array>

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
      const LayerUpsampler up(recon.width, recon.height, target.width,
                              target.height);
      std::vector<double> window(up.window_size());
      std::vector<int16_t> residual(n);  // the prediction, then the residual
      up.AddOnto(recon.data.data(), window.data(), residual.data());
      k.sub_i16(target.data.data(), residual.data(), residual.data(), n);
      block_transform::EncodePlane(residual.data(), target.width,
                                   target.height, quality, &writer,
                                   new_recon.data.data());
      // new_recon holds the decoded residual; the decoder's own step adds
      // the prediction onto it.
      up.AddOnto(recon.data.data(), window.data(), new_recon.data.data());
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

// Where one plane's layer chain works: the two int16 planes it alternates
// between, each a full plane, and the upsample's product window. Sized at
// the first frame that uses it.
struct LayerScratch {
  std::array<std::vector<int16_t>, 2> planes;
  std::vector<double> window;
};

class ScalableDecoderSession final : public VideoDecoderSession {
 public:
  ScalableDecoderSession(const EncodedVideo& video, int layers)
      : video_(video), layers_(layers) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    Prepare();
    AVDB_ASSIGN_OR_RETURN(
        VideoFrame frame,
        DecodeOne(index, video_.params.concurrency, scratch_.data()));
    ++decoded_;
    return frame;
  }

  Result<std::vector<VideoFrame>> DecodeRange(int64_t first,
                                              int64_t count) override {
    Prepare();
    // Every frame is intra-coded, so frames are the parallel grain here
    // (planes stay serial inside each task), and each task works in its
    // own scratch.
    return DecodeEach(video_, first, count, &decoded_, [this](int64_t i) {
      LayerScratch scratch;
      return DecodeOne(i, /*plane_concurrency=*/1, &scratch);
    });
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  // Builds, once, what the stream fixes: the geometry of each decoded
  // layer and the upsample taps between them. Decoding the first layers_
  // of `stored` layers puts layer l at pyramid level
  // l + kMaxLayers - stored; steps_[l - 1] upsamples layer l - 1 onto
  // layer l, and a chain that ends short of full size gets one more step
  // to it.
  void Prepare() {
    if (prepared_) return;
    prepared_ = true;
    const int width = video_.raw_type.width();
    const int height = video_.raw_type.height();
    const int base = ScalableCodec::kMaxLayers - video_.params.layer_count;
    for (int l = 0; l < layers_; ++l) {
      dims_[static_cast<size_t>(l)] = {LayerDim(width, base + l),
                                       LayerDim(height, base + l)};
    }
    steps_.reserve(static_cast<size_t>(layers_));
    for (int l = 1; l < layers_; ++l) {
      const Dims& from = dims_[static_cast<size_t>(l - 1)];
      const Dims& to = dims_[static_cast<size_t>(l)];
      steps_.emplace_back(from.width, from.height, to.width, to.height);
    }
    // At full size every tap weight is exactly 0: no step to take.
    const Dims& last = dims_[static_cast<size_t>(layers_ - 1)];
    if (last.width != width || last.height != height) {
      steps_.emplace_back(last.width, last.height, width, height);
    }
    for (const LayerUpsampler& step : steps_) {
      window_size_ = std::max(window_size_, step.window_size());
    }
  }

  // Decodes frame `index` with its planes over `plane_concurrency` lanes.
  // Plane p works in scratch[p] when planes run concurrently, else all
  // share scratch[0].
  Result<VideoFrame> DecodeOne(int64_t index, int plane_concurrency,
                               LayerScratch* scratch) const {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    const auto& ef = video_.frames[static_cast<size_t>(index)];
    const auto& t = video_.raw_type;
    const int planes = t.depth_bits() / 8;
    // Layer 0 of every plane is packed in ef.data, plane after plane, each
    // behind a u32 byte size; enhancement layer L >= 1 of plane p is
    // ef.layers[(L-1)*planes + p]. Every layer is read in place.
    std::array<std::array<LayerBits, ScalableCodec::kMaxLayers>,
               VideoFrame::kMaxPlanes>
        bits;
    BufferReader base_reader(ef.data);
    for (int p = 0; p < planes; ++p) {
      auto size = base_reader.ReadU32();
      if (!size.ok()) return size.status();
      LayerBits* plane_bits = bits[static_cast<size_t>(p)].data();
      plane_bits[0] = {ef.data.data() + base_reader.position(), size.value()};
      AVDB_RETURN_IF_ERROR(base_reader.Skip(size.value()));
      for (int l = 1; l < layers_; ++l) {
        const size_t li = static_cast<size_t>(l - 1) * planes + p;
        if (li >= ef.layers.size()) {
          return Status::DataLoss("missing enhancement layer");
        }
        plane_bits[l] = {ef.layers[li].data(), ef.layers[li].size()};
      }
    }
    VideoFrame frame(t.width(), t.height(), t.depth_bits());
    // Planes chain layers internally but are independent of each other;
    // storage is planar, so concurrent plane tasks write disjoint
    // contiguous runs and never touch the same byte.
    const int lanes = std::min(plane_concurrency, planes);
    std::array<Status, VideoFrame::kMaxPlanes> statuses;
    WorkPool::Shared().ParallelFor(lanes, planes, [&](int64_t p) {
      const size_t i = static_cast<size_t>(p);
      statuses[i] = DecodePlane(bits[i].data(), &scratch[lanes > 1 ? i : 0],
                                frame.plane_span(static_cast<int>(p)));
    });
    for (int p = 0; p < planes; ++p) {
      if (!statuses[static_cast<size_t>(p)].ok()) {
        return statuses[static_cast<size_t>(p)];
      }
    }
    return frame;
  }

  // Decodes the session's layers of one plane into `out`. Each layer is
  // decoded into one scratch plane and the layer below, upsampled, is
  // added onto it there; a chain that ends short of full size is
  // upsampled onto zeros in the other.
  Status DecodePlane(const LayerBits* bits, LayerScratch* scratch,
                     const PlaneSpan& out) const {
    for (std::vector<int16_t>& plane : scratch->planes) {
      plane.resize(out.size());
    }
    scratch->window.resize(window_size_);
    const int16_t* below = nullptr;
    for (int l = 0; l < layers_; ++l) {
      int16_t* layer = scratch->planes[static_cast<size_t>(l % 2)].data();
      const Dims& dims = dims_[static_cast<size_t>(l)];
      VarintReader reader(bits[l].data, bits[l].size);
      AVDB_RETURN_IF_ERROR(block_transform::DecodePlaneInto(
          dims.width, dims.height, video_.params.quality, &reader, layer));
      if (l > 0) {
        steps_[static_cast<size_t>(l - 1)].AddOnto(
            below, scratch->window.data(), layer);
      }
      below = layer;
    }
    if (steps_.size() == static_cast<size_t>(layers_)) {
      int16_t* full = scratch->planes[static_cast<size_t>(layers_ % 2)].data();
      std::fill_n(full, out.size(), int16_t{0});
      steps_.back().AddOnto(below, scratch->window.data(), full);
      below = full;
    }
    simd::ActiveKernels().i16_center_to_u8(below, out.data(), out.size());
    return Status::OK();
  }

  struct Dims {
    int width = 0;
    int height = 0;
  };

  const EncodedVideo& video_;
  const int layers_;
  int64_t decoded_ = 0;
  bool prepared_ = false;
  std::array<Dims, ScalableCodec::kMaxLayers> dims_;
  std::vector<LayerUpsampler> steps_;
  size_t window_size_ = 0;
  std::array<LayerScratch, VideoFrame::kMaxPlanes> scratch_;
};

}  // namespace

LayerUpsampler::LayerUpsampler(int src_width, int src_height, int width,
                               int height)
    : src_width_(src_width) {
  cols_.reserve(static_cast<size_t>(width));
  for (int x = 0; x < width; ++x) cols_.push_back(TapAt(x, width, src_width));
  rows_.reserve(static_cast<size_t>(height));
  for (int y = 0; y < height; ++y) {
    rows_.push_back(TapAt(y, height, src_height));
  }
}

LayerUpsampler::Tap LayerUpsampler::TapAt(int i, int n, int src_n) {
  const double f =
      n > 1 ? static_cast<double>(i) * (src_n - 1) / (n - 1) : 0.0;
  const int i0 = static_cast<int>(f);
  return Tap{i0, i0 + 1 < src_n ? i0 + 1 : i0, 1 - (f - i0), f - i0};
}

void LayerUpsampler::AddOnto(const int16_t* src, double* window,
                             int16_t* dst) const {
  const simd::CodecKernels& k = simd::ActiveKernels();
  const size_t width = cols_.size();
  // Source row r's products sit in slot r % 2 of the window: [0, width)
  // each column's left tap times its weight, [width, 2 width) its right
  // tap's. An output row reads rows i0 and i1 <= i0 + 1, which never
  // share a slot, and i0 never decreases down the plane, so each source
  // row's products are computed once. The row's samples are converted to
  // double once, into the window's tail.
  double* samples = window + 4 * width;
  int held[2] = {-1, -1};
  const auto products = [&](int r) {
    double* slot = window + static_cast<size_t>(r % 2) * 2 * width;
    if (held[r % 2] != r) {
      held[r % 2] = r;
      std::copy_n(src + static_cast<size_t>(r) * src_width_, src_width_,
                  samples);
      for (size_t x = 0; x < width; ++x) {
        slot[x] = samples[cols_[x].i0] * cols_[x].w0;
        slot[width + x] = samples[cols_[x].i1] * cols_[x].w1;
      }
    }
    return slot;
  };
  for (size_t y = 0; y < rows_.size(); ++y) {
    const Tap& row = rows_[y];
    const double* top = products(row.i0);
    const double* bottom = products(row.i1);
    k.upsample_add_row(top, top + width, bottom, bottom + width, row.w0,
                       row.w1, dst + y * width, width);
  }
}

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
  if (video.params.layer_count < 1 || video.params.layer_count > kMaxLayers) {
    return Status::DataLoss("stored layer count out of range");
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
