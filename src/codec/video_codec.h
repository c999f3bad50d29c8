#ifndef AVDB_CODEC_VIDEO_CODEC_H_
#define AVDB_CODEC_VIDEO_CODEC_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/result.h"
#include "media/frame.h"
#include "media/media_type.h"
#include "media/video_value.h"

namespace avdb {

/// Encoder knobs shared by all video codecs. Defaults give visually decent
/// mid-range compression.
struct VideoCodecParams {
  /// Transform quality 1..100 (JPEG-style; 50 = base table, 100 near
  /// lossless).
  int quality = 75;
  /// I-frame period for the inter codec (1 = all-intra).
  int gop_size = 12;
  /// Motion search range in pixels for the inter codec.
  int search_range = 8;
  /// Resolution/detail layers for the scalable codec (1..3).
  int layer_count = 3;
  /// Codec execution width: how many work-pool lanes encode/decode may use.
  /// Every width runs the same loops; at the default of 1 they run on the
  /// calling thread alone. This is an *execution policy*, not part of the
  /// stream format: it is never serialized, and the output is
  /// byte-identical at every width (frames, GOPs and planes are
  /// independent coding units). See DESIGN.md, "Concurrency model".
  int concurrency = 1;
};

/// One encoded frame. `is_intra` marks random-access points (the decoder
/// can start here without history). For the scalable codec `layers` holds
/// enhancement layers beyond the base in `data`.
struct EncodedFrame {
  bool is_intra = true;
  Buffer data;
  std::vector<Buffer> layers;

  int64_t SizeBytes() const;
};

/// A complete encoded video stream: the stored representation behind the
/// paper's JPEG-VideoValue / MPEG-VideoValue / DVI-VideoValue subclasses.
/// Self-describing and serializable for the media store.
struct EncodedVideo {
  MediaDataType raw_type;  ///< Geometry/rate of the decoded frames.
  EncodingFamily family = EncodingFamily::kIntra;
  VideoCodecParams params;
  std::vector<EncodedFrame> frames;

  int64_t TotalBytes() const;

  /// Index of the latest random-access frame at or before `index`
  /// (InvalidArgument when out of range).
  Result<int64_t> AccessPointBefore(int64_t index) const;

  /// Serializes stream header + all frames.
  Buffer Serialize() const;
  static Result<EncodedVideo> Deserialize(const Buffer& buffer);
};

/// Decode session over one EncodedVideo. Sessions hold reference-frame
/// state so sequential decoding of predictive streams is O(1) per frame;
/// random access re-enters at the nearest preceding access point (the GOP
/// cost that makes inter-coded video expensive to seek — a property the
/// storage and scheduling layers must respect, per §3.1).
class VideoDecoderSession {
 public:
  virtual ~VideoDecoderSession() = default;

  /// Decodes frame `index`. Sequential calls are cheap; backward or far
  /// forward jumps pay GOP re-entry.
  virtual Result<VideoFrame> DecodeFrame(int64_t index) = 0;

  /// Bulk decode of frames [first, first+count), returned in order. The
  /// base implementation is a DecodeFrame loop, which predictive streams
  /// need because their frames chain. Sessions over independently coded
  /// frames (intra, scalable) override it with DecodeEach.
  virtual Result<std::vector<VideoFrame>> DecodeRange(int64_t first,
                                                      int64_t count);

  /// Frames decoded internally since construction (measures seek overhead).
  virtual int64_t FramesDecodedInternally() const = 0;

 protected:
  /// DecodeRange over independently coded frames: runs `decode_one(i)` for
  /// every i in [first, first+count) across `video.params.concurrency`
  /// pool lanes and joins the frames in order, so every width returns the
  /// same frames. InvalidArgument when the range leaves the stream, else
  /// the first failing frame's status; on success adds `count` to
  /// `*decoded`.
  static Result<std::vector<VideoFrame>> DecodeEach(
      const EncodedVideo& video, int64_t first, int64_t count,
      int64_t* decoded,
      const std::function<Result<VideoFrame>(int64_t)>& decode_one);
};

/// A video compression scheme. Implementations are stateless; per-stream
/// state lives in the session. This is the "video encoder"/"video decoder"
/// activity substrate of Table 1.
class VideoCodec {
 public:
  virtual ~VideoCodec() = default;

  virtual std::string name() const = 0;
  virtual EncodingFamily family() const = 0;

  /// Encodes all frames of `value`.
  virtual Result<EncodedVideo> Encode(const VideoValue& value,
                                      const VideoCodecParams& params) const = 0;

  /// Opens a decode session over a stream this codec produced. The session
  /// reads `video` in place rather than copying it, so the stream must
  /// outlive the session.
  virtual Result<std::unique_ptr<VideoDecoderSession>> NewDecoder(
      const EncodedVideo& video) const = 0;

 protected:
  /// Encode loop over independently coded frames (intra, scalable): appends
  /// `encode_one(frame)` for every frame of `value` to `out`. Raw frames
  /// are fetched serially, since VideoValue::Frame need not be
  /// thread-safe, in batches that bound raw-frame memory: one frame at
  /// concurrency 1, else max(4 * concurrency, 16). Each batch is encoded
  /// across `concurrency` pool lanes and joined in order, so every width
  /// appends the same frames.
  static Status EncodeEach(
      const VideoValue& value, int concurrency,
      const std::function<EncodedFrame(const VideoFrame&)>& encode_one,
      std::vector<EncodedFrame>* out);
};

}  // namespace avdb

#endif  // AVDB_CODEC_VIDEO_CODEC_H_
