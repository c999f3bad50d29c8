#ifndef AVDB_CODEC_INTRA_CODEC_H_
#define AVDB_CODEC_INTRA_CODEC_H_

#include "codec/video_codec.h"

namespace avdb {

/// JPEG-class intra-frame codec: every frame is independently transform-
/// coded (8×8 DCT + quantization + run-length entropy coding, one pass per
/// colour plane). Every frame is a random-access point, which is why the
/// paper's editing scenarios favour intra representations. Structural
/// stand-in for the paper's `JPEG_VideoValue` encoding (see DESIGN.md §5).
///
/// Frame layout: each colour plane is entropy-coded into its own
/// byte-aligned sub-stream prefixed with a u32 byte size. The prefixes
/// make planes independently addressable, so both encode and decode of a
/// single frame can spread plane work across the work pool with output
/// byte-identical at every width.
class IntraCodec final : public VideoCodec {
 public:
  std::string name() const override { return "avdb-intra"; }
  EncodingFamily family() const override { return EncodingFamily::kIntra; }

  /// Frames are independent coding units, so they spread across
  /// params.concurrency pool lanes (VideoCodec::EncodeEach).
  Result<EncodedVideo> Encode(const VideoValue& value,
                              const VideoCodecParams& params) const override;
  Result<std::unique_ptr<VideoDecoderSession>> NewDecoder(
      const EncodedVideo& video) const override;

  /// Encodes one frame independently (shared with the inter codec's
  /// I-frames and the streaming encoder activity), its colour planes
  /// spread across `concurrency` pool lanes. A non-null `recon` receives
  /// the frame exactly as DecodeFrame will return it, without decoding.
  static Buffer EncodeFrame(const VideoFrame& frame, int quality,
                            int concurrency = 1, VideoFrame* recon = nullptr);

  /// Decodes one independently coded frame of the given geometry, its
  /// colour planes spread across `concurrency` pool lanes. The first
  /// failing plane's status is returned.
  static Result<VideoFrame> DecodeFrame(const Buffer& data, int width,
                                        int height, int depth_bits,
                                        int quality, int concurrency = 1);
};

}  // namespace avdb

#endif  // AVDB_CODEC_INTRA_CODEC_H_
