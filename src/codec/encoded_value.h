#ifndef AVDB_CODEC_ENCODED_VALUE_H_
#define AVDB_CODEC_ENCODED_VALUE_H_

#include <atomic>
#include <memory>

#include "codec/audio_codec.h"
#include "codec/video_codec.h"
#include "media/audio_value.h"
#include "media/video_value.h"

namespace avdb {

/// A `VideoValue` whose representation is an encoded stream — the concrete
/// analogue of the paper's `JPEG_VideoValue` / `MPEG_VideoValue` /
/// `DVI_VideoValue` subclasses (§4.1). Applications use it through the
/// generic `VideoValue` interface and stay "screened from underlying
/// differences in representation".
///
/// The stored stream is immutable; decode state belongs to the reader.
/// `Frame(i)` decodes on demand through one cached session, which suits a
/// single sequential reader (sequential access is cheap even for
/// predictive streams). Concurrent readers — several streams playing one
/// title — must each take their own session from `NewReader()`: taking
/// turns on the shared one would re-enter a GOP on every frame.
class EncodedVideoValue final
    : public VideoValue,
      public std::enable_shared_from_this<EncodedVideoValue> {
 public:
  /// Wraps an encoded stream; the codec must match the stream family.
  static Result<std::shared_ptr<EncodedVideoValue>> Create(
      std::shared_ptr<const VideoCodec> codec, EncodedVideo video);

  /// Opens a private decode session over this value's stream through the
  /// value's codec (so decorator codecs still wrap it). The session shares
  /// the stored frames, keeps the value alive, and counts every frame it
  /// decodes in FramesDecodedInternally().
  Result<std::unique_ptr<VideoDecoderSession>> NewReader() const;

  int64_t ElementCount() const override {
    return static_cast<int64_t>(video_.frames.size());
  }
  Result<VideoFrame> Frame(int64_t index) const override;
  /// Bulk decode through the session's DecodeRange — parallel across the
  /// work pool when the stream's params.concurrency > 1.
  Result<std::vector<VideoFrame>> Frames(int64_t first,
                                         int64_t count) const override;
  int64_t StoredBytes() const override { return video_.TotalBytes(); }
  int64_t StoredFrameBytes(int64_t index) const override {
    if (index < 0 || index >= ElementCount()) return 0;
    return video_.frames[static_cast<size_t>(index)].SizeBytes();
  }

  const EncodedVideo& encoded() const { return video_; }
  const VideoCodec& codec() const { return *codec_; }

  /// Frames decoded by the shared session and every reader, including GOP
  /// re-entry work (exposes seek cost).
  int64_t FramesDecodedInternally() const;

  std::string Describe() const override;

 private:
  class Reader;

  EncodedVideoValue(MediaDataType decoded_type,
                    std::shared_ptr<const VideoCodec> codec,
                    EncodedVideo video)
      : VideoValue(std::move(decoded_type)),
        codec_(std::move(codec)),
        video_(std::move(video)) {}

  /// The cached session behind Frame/Frames, opened on first use.
  Result<VideoDecoderSession*> SharedSession() const;

  std::shared_ptr<const VideoCodec> codec_;
  const EncodedVideo video_;
  mutable std::unique_ptr<VideoDecoderSession> session_;
  mutable std::atomic<int64_t> reader_decodes_{0};
};

/// An `AudioValue` stored as an encoded stream; decodes chunks on demand.
class EncodedAudioValue final : public AudioValue {
 public:
  static Result<std::shared_ptr<EncodedAudioValue>> Create(
      std::shared_ptr<const AudioCodec> codec, EncodedAudio audio);

  int64_t ElementCount() const override { return audio_.total_frames; }
  Result<AudioBlock> Samples(int64_t first, int64_t count) const override;
  int64_t StoredBytes() const override { return audio_.TotalBytes(); }

  const EncodedAudio& encoded() const { return audio_; }

  std::string Describe() const override;

 private:
  EncodedAudioValue(MediaDataType decoded_type,
                    std::shared_ptr<const AudioCodec> codec,
                    EncodedAudio audio)
      : AudioValue(std::move(decoded_type)),
        codec_(std::move(codec)),
        audio_(std::move(audio)) {}

  std::shared_ptr<const AudioCodec> codec_;
  EncodedAudio audio_;
};

}  // namespace avdb

#endif  // AVDB_CODEC_ENCODED_VALUE_H_
