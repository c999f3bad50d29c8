#include "codec/encoded_value.h"

#include <algorithm>

namespace avdb {

namespace {

MediaDataType DecodedTypeFor(const EncodedVideo& video) {
  // The value presents compressed type information (so activities can type
  // ports as "compressed video"), but geometry/rate follow the raw type.
  return MediaDataType::CompressedVideo(
      video.family, video.raw_type.width(), video.raw_type.height(),
      video.raw_type.depth_bits(), video.raw_type.element_rate());
}

}  // namespace

Result<std::shared_ptr<EncodedVideoValue>> EncodedVideoValue::Create(
    std::shared_ptr<const VideoCodec> codec, EncodedVideo video) {
  if (codec == nullptr) return Status::InvalidArgument("null codec");
  if (codec->family() != video.family) {
    return Status::InvalidArgument("codec family does not match stream");
  }
  return std::shared_ptr<EncodedVideoValue>(new EncodedVideoValue(
      DecodedTypeFor(video), std::move(codec), std::move(video)));
}

/// A reader's session: the codec's own session over the value's stream,
/// holding the value alive and forwarding each frame it decodes to the
/// value's count.
class EncodedVideoValue::Reader final : public VideoDecoderSession {
 public:
  Reader(std::shared_ptr<const EncodedVideoValue> owner,
         std::unique_ptr<VideoDecoderSession> inner)
      : owner_(std::move(owner)), inner_(std::move(inner)) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    Result<VideoFrame> frame = inner_->DecodeFrame(index);
    Count();
    return frame;
  }

  Result<std::vector<VideoFrame>> DecodeRange(int64_t first,
                                              int64_t count) override {
    Result<std::vector<VideoFrame>> frames = inner_->DecodeRange(first, count);
    Count();
    return frames;
  }

  int64_t FramesDecodedInternally() const override {
    return inner_->FramesDecodedInternally();
  }

 private:
  void Count() {
    const int64_t decoded = inner_->FramesDecodedInternally();
    owner_->reader_decodes_.fetch_add(decoded - counted_,
                                      std::memory_order_relaxed);
    counted_ = decoded;
  }

  std::shared_ptr<const EncodedVideoValue> owner_;
  std::unique_ptr<VideoDecoderSession> inner_;
  int64_t counted_ = 0;
};

Result<std::unique_ptr<VideoDecoderSession>> EncodedVideoValue::NewReader()
    const {
  AVDB_ASSIGN_OR_RETURN(std::unique_ptr<VideoDecoderSession> inner,
                        codec_->NewDecoder(video_));
  return std::unique_ptr<VideoDecoderSession>(
      new Reader(shared_from_this(), std::move(inner)));
}

Result<VideoDecoderSession*> EncodedVideoValue::SharedSession() const {
  if (session_ == nullptr) {
    AVDB_ASSIGN_OR_RETURN(session_, codec_->NewDecoder(video_));
  }
  return session_.get();
}

Result<VideoFrame> EncodedVideoValue::Frame(int64_t index) const {
  AVDB_ASSIGN_OR_RETURN(VideoDecoderSession * session, SharedSession());
  return session->DecodeFrame(index);
}

Result<std::vector<VideoFrame>> EncodedVideoValue::Frames(
    int64_t first, int64_t count) const {
  AVDB_ASSIGN_OR_RETURN(VideoDecoderSession * session, SharedSession());
  return session->DecodeRange(first, count);
}

int64_t EncodedVideoValue::FramesDecodedInternally() const {
  return (session_ == nullptr ? 0 : session_->FramesDecodedInternally()) +
         reader_decodes_.load(std::memory_order_relaxed);
}

std::string EncodedVideoValue::Describe() const {
  return MediaValue::Describe() + " (" + codec_->name() + ", " +
         std::to_string(StoredBytes()) + " bytes)";
}

Result<std::shared_ptr<EncodedAudioValue>> EncodedAudioValue::Create(
    std::shared_ptr<const AudioCodec> codec, EncodedAudio audio) {
  if (codec == nullptr) return Status::InvalidArgument("null codec");
  if (codec->family() != audio.family) {
    return Status::InvalidArgument("codec family does not match stream");
  }
  if (!audio.ShapeMatches(static_cast<int64_t>(audio.chunks.size()))) {
    return Status::InvalidArgument(
        "encoded-audio shape does not match its chunks");
  }
  MediaDataType decoded_type = MediaDataType::CompressedAudio(
      audio.family, audio.raw_type.channels(), audio.raw_type.element_rate());
  return std::shared_ptr<EncodedAudioValue>(new EncodedAudioValue(
      std::move(decoded_type), std::move(codec), std::move(audio)));
}

Result<AudioBlock> EncodedAudioValue::Samples(int64_t first,
                                              int64_t count) const {
  if (first < 0 || count < 0 || first + count > ElementCount()) {
    return Status::InvalidArgument("sample range out of bounds");
  }
  if (first % audio_.chunk_frames == 0 && count > 0 &&
      count == std::min<int64_t>(audio_.chunk_frames,
                                 audio_.total_frames - first)) {
    // The range is one whole chunk: its decode is the answer, uncopied.
    return codec_->DecodeChunk(audio_, first / audio_.chunk_frames);
  }
  const int channels = audio_.raw_type.channels();
  AudioBlock out(channels, static_cast<int>(count));
  int64_t written = 0;
  while (written < count) {
    const int64_t frame = first + written;
    const int64_t chunk_index = frame / audio_.chunk_frames;
    const int64_t offset = frame % audio_.chunk_frames;
    auto chunk = codec_->DecodeChunk(audio_, chunk_index);
    if (!chunk.ok()) return chunk.status();
    const int64_t available = chunk.value().frame_count() - offset;
    const int64_t take = std::min(available, count - written);
    // Frames are channel-interleaved and contiguous on both sides.
    std::copy_n(chunk.value().samples().begin() + offset * channels,
                take * channels, out.samples().begin() + written * channels);
    written += take;
  }
  return out;
}

std::string EncodedAudioValue::Describe() const {
  return MediaValue::Describe() + " (" +
         std::string(EncodingFamilyName(audio_.family)) + ", " +
         std::to_string(StoredBytes()) + " bytes)";
}

}  // namespace avdb
