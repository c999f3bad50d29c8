#ifndef AVDB_CODEC_AUDIO_CODEC_H_
#define AVDB_CODEC_AUDIO_CODEC_H_

#include <memory>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/result.h"
#include "media/audio_value.h"
#include "media/frame.h"
#include "media/media_type.h"

namespace avdb {

/// A complete encoded audio stream, chunked so the media store and stream
/// scheduler can fetch it incrementally. Each chunk decodes independently
/// (per-chunk predictor reset), so chunks are the audio random-access unit.
struct EncodedAudio {
  MediaDataType raw_type;  ///< Channels/rate of the decoded PCM.
  EncodingFamily family = EncodingFamily::kMulaw;
  /// Sample frames per chunk (last chunk may be short).
  int chunk_frames = 0;
  int64_t total_frames = 0;
  std::vector<Buffer> chunks;

  int64_t TotalBytes() const;

  /// Whether the header fits `chunk_count` chunks: at least one channel and
  /// one frame per chunk, no negative length, and ceil(total_frames /
  /// chunk_frames) chunks. Readers divide by the chunk length and step by
  /// the channel count, so no stream that fails this may be read.
  bool ShapeMatches(int64_t chunk_count) const;

  Buffer Serialize() const;
  static Result<EncodedAudio> Deserialize(const Buffer& buffer);
};

/// An audio compression scheme; all implementations chunk at
/// `kDefaultChunkFrames` sample frames.
class AudioCodec {
 public:
  static constexpr int kDefaultChunkFrames = 1024;

  virtual ~AudioCodec() = default;

  virtual std::string name() const = 0;
  virtual EncodingFamily family() const = 0;

  /// Encodes all samples of `value`.
  virtual Result<EncodedAudio> Encode(const AudioValue& value) const = 0;

  /// Decodes chunk `index` back to PCM.
  virtual Result<AudioBlock> DecodeChunk(const EncodedAudio& audio,
                                         int64_t index) const = 0;
};

/// ITU G.711 µ-law companding: 16-bit PCM -> 8 bits/sample (2:1), the
/// classic voice-grade codec of early workstation audio.
class MulawCodec final : public AudioCodec {
 public:
  std::string name() const override { return "avdb-mulaw"; }
  EncodingFamily family() const override { return EncodingFamily::kMulaw; }
  Result<EncodedAudio> Encode(const AudioValue& value) const override;
  Result<AudioBlock> DecodeChunk(const EncodedAudio& audio,
                                 int64_t index) const override;

  /// Scalar companding helpers (exposed for tests).
  static uint8_t CompandSample(int16_t pcm);
  static int16_t ExpandSample(uint8_t mulaw);
};

/// IMA ADPCM: 4 bits/sample (4:1) with an adaptive step size; per-chunk
/// predictor header so chunks decode independently.
class AdpcmCodec final : public AudioCodec {
 public:
  std::string name() const override { return "avdb-adpcm"; }
  EncodingFamily family() const override { return EncodingFamily::kAdpcm; }
  Result<EncodedAudio> Encode(const AudioValue& value) const override;
  Result<AudioBlock> DecodeChunk(const EncodedAudio& audio,
                                 int64_t index) const override;
};

}  // namespace avdb

#endif  // AVDB_CODEC_AUDIO_CODEC_H_
