#ifndef AVDB_CODEC_SCALABLE_CODEC_H_
#define AVDB_CODEC_SCALABLE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "codec/encoded_value.h"
#include "codec/video_codec.h"

namespace avdb {

/// The bilinear upsample that predicts each scalable enhancement layer
/// from the layer below, from `src_width`×`src_height` to
/// `width`×`height`. An output sample lies between two source samples in
/// each direction, the second clamped to the edge; those taps and their
/// weights depend only on the two geometries, so they are computed once,
/// here. The encoder and the decoder both predict through AddOnto, so a
/// stored stream decodes to the encoder's reconstruction.
class LayerUpsampler {
 public:
  LayerUpsampler(int src_width, int src_height, int width, int height);

  /// Doubles of working storage AddOnto needs: two source rows' column
  /// products and one source row.
  size_t window_size() const {
    return 4 * cols_.size() + static_cast<size_t>(src_width_);
  }

  /// Adds the upsample of `src` onto the `width`×`height` plane `dst`,
  /// sample by sample with int16 wrap, through the dispatched
  /// `upsample_add_row`. Each source row's column products are computed
  /// once, into `window`. The sample between source rows r0, r1 and
  /// columns c0, c1 is, in double and in this order,
  ///   r0[c0]·cw0·rw0 + r0[c1]·cw1·rw0 + r1[c0]·cw0·rw1 + r1[c1]·cw1·rw1
  /// rounded half away from zero.
  void AddOnto(const int16_t* src, double* window, int16_t* dst) const;

 private:
  struct Tap {
    int i0, i1;     ///< the source samples; i1 is clamped to the edge
    double w0, w1;  ///< their weights, w0 = 1 - w1
  };
  static Tap TapAt(int i, int n, int src_n);

  int src_width_;
  std::vector<Tap> cols_;  ///< one per output column
  std::vector<Tap> rows_;  ///< one per output row
};

/// Layered intra codec implementing §4.1's *scalable video* ([14] in the
/// paper): "a video value encoded at one quality can be viewed at a lower
/// quality by ignoring some of the encoded data."
///
/// Each frame carries up to three spatial layers:
///   layer 0 (base)   — 1/4-resolution intra-coded image,
///   layer 1          — 1/2-resolution residual against upsampled layer 0,
///   layer 2          — full-resolution residual against upsampled layer 1.
/// Decoding with fewer layers reads proportionally fewer bytes and yields a
/// softer full-size picture; the quality-factor machinery in `src/db/`
/// picks the cheapest layer set satisfying the requested VideoQuality.
class ScalableCodec final : public VideoCodec {
 public:
  static constexpr int kMaxLayers = 3;

  std::string name() const override { return "avdb-scalable"; }
  EncodingFamily family() const override { return EncodingFamily::kScalable; }

  Result<EncodedVideo> Encode(const VideoValue& value,
                              const VideoCodecParams& params) const override;

  /// Full-quality decoder (all stored layers).
  Result<std::unique_ptr<VideoDecoderSession>> NewDecoder(
      const EncodedVideo& video) const override;

  /// Decoder that reads only the first `layers` layers (1..stored count).
  /// The returned frames are always full geometry; fewer layers = less
  /// detail and fewer bytes touched. DataLoss when the stream's stored
  /// layer count is outside [1, kMaxLayers].
  Result<std::unique_ptr<VideoDecoderSession>> NewDecoderWithLayers(
      const EncodedVideo& video, int layers) const;

  /// Bytes that must be read per frame when decoding `layers` layers.
  static Result<int64_t> BytesPerFrameAtLayers(const EncodedVideo& video,
                                               int layers);

  /// Smallest layer count whose decoded detail resolution is >= the
  /// requested width/height (1 layer = 1/4 res, 2 = 1/2, 3 = full).
  static int LayersForResolution(const MediaDataType& stored, int req_width,
                                 int req_height);
};

/// A `VideoValue` view over a scalable stream restricted to its first
/// `layers` layers — what the database binds to a source when a client's
/// quality factor asks for less than the stored quality (§4.1: viewing "at
/// a lower quality by ignoring some of the encoded data"). StoredBytes
/// reports only the bytes the restricted decode touches, so placement and
/// admission cost the reduced stream, not the full one.
class ScalableVideoView final : public VideoValue {
 public:
  /// Views `value`'s stream (must be scalable) at `layers` (1..stored
  /// count). The view shares the value's stored frames instead of copying
  /// them, keeps the value alive, and decodes through its own session.
  static Result<std::shared_ptr<ScalableVideoView>> Create(
      std::shared_ptr<const EncodedVideoValue> value, int layers);

  int64_t ElementCount() const override {
    return static_cast<int64_t>(video_.frames.size());
  }
  Result<VideoFrame> Frame(int64_t index) const override;
  /// Bulk decode via the restricted session's DecodeRange (parallel when
  /// the stream's params.concurrency > 1).
  Result<std::vector<VideoFrame>> Frames(int64_t first,
                                         int64_t count) const override;
  int64_t StoredBytes() const override;
  int64_t StoredFrameBytes(int64_t index) const override;

  int layers() const { return layers_; }
  const EncodedVideo& encoded() const { return video_; }
  /// The full-quality value whose stream this view restricts.
  const std::shared_ptr<const EncodedVideoValue>& full_value() const {
    return value_;
  }

  std::string Describe() const override;

 private:
  ScalableVideoView(std::shared_ptr<const EncodedVideoValue> value,
                    int layers)
      : VideoValue(value->type()),
        value_(std::move(value)),
        video_(value_->encoded()),
        layers_(layers) {}

  /// The restricted session behind Frame/Frames, opened on first use.
  Result<VideoDecoderSession*> Session() const;

  std::shared_ptr<const EncodedVideoValue> value_;
  const EncodedVideo& video_;  ///< value_'s stream
  int layers_;
  mutable std::unique_ptr<VideoDecoderSession> session_;
};

}  // namespace avdb

#endif  // AVDB_CODEC_SCALABLE_CODEC_H_
