// Decorator codecs: the benchmark's spans around the codec layer's public
// interfaces (VideoDecoderSession::DecodeFrame, AudioCodec::DecodeChunk,
// VideoCodec::Encode). They are installed through the ordinary
// EncodedVideoValue / EncodedAudioValue factories, so the program under
// test runs unmodified.

#include <chrono>
#include <ctime>
#include <utility>

#include "e2e.h"

namespace avdb::e2e {

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  // std::clock() is the process's CPU time summed over its threads.
  return static_cast<int64_t>(static_cast<double>(std::clock()) * 1e9 /
                              CLOCKS_PER_SEC);
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFetch:
      return "StreamRouter::Fetch";
    case SpanKind::kDecode:
      return "decode";
    case SpanKind::kEncode:
      return "VideoCodec::Encode";
    case SpanKind::kPut:
      return "ReplicatedStore::Put";
  }
  return "?";
}

namespace {

/// The request id a decode of `element` belongs to: the fetcher that ran
/// just before it on the engine thread set it.
int32_t SessionFor(const CodecProbe& probe, int64_t element) {
  if (probe.context == nullptr || probe.context->element != element) return -1;
  return probe.context->session;
}

class TracingDecoderSession final : public VideoDecoderSession {
 public:
  TracingDecoderSession(std::unique_ptr<VideoDecoderSession> inner,
                        CodecProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    ++probe_->video_decodes;
    if (probe_->recorder == nullptr) return inner_->DecodeFrame(index);
    const int64_t start = HostNowNs();
    Result<VideoFrame> frame = inner_->DecodeFrame(index);
    probe_->recorder->Add(SpanKind::kDecode, SessionFor(*probe_, index), index,
                          start, HostNowNs(), probe_->context->virtual_ns);
    return frame;
  }

  Result<std::vector<VideoFrame>> DecodeRange(int64_t first,
                                              int64_t count) override {
    return inner_->DecodeRange(first, count);
  }

  int64_t FramesDecodedInternally() const override {
    return inner_->FramesDecodedInternally();
  }

 private:
  std::unique_ptr<VideoDecoderSession> inner_;
  CodecProbe* probe_;
};

class TracingVideoCodec final : public VideoCodec {
 public:
  TracingVideoCodec(std::shared_ptr<const VideoCodec> inner, CodecProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  EncodingFamily family() const override { return inner_->family(); }

  Result<EncodedVideo> Encode(const VideoValue& value,
                              const VideoCodecParams& params) const override {
    if (probe_->recorder == nullptr) return inner_->Encode(value, params);
    const int64_t start = HostNowNs();
    Result<EncodedVideo> encoded = inner_->Encode(value, params);
    probe_->recorder->Add(SpanKind::kEncode, probe_->context->session,
                          probe_->context->element, start, HostNowNs(),
                          probe_->context->virtual_ns);
    return encoded;
  }

  Result<std::unique_ptr<VideoDecoderSession>> NewDecoder(
      const EncodedVideo& video) const override {
    auto session = inner_->NewDecoder(video);
    if (!session.ok()) return session.status();
    return std::unique_ptr<VideoDecoderSession>(
        new TracingDecoderSession(std::move(session).value(), probe_));
  }

 private:
  std::shared_ptr<const VideoCodec> inner_;
  CodecProbe* probe_;
};

class TracingAudioCodec final : public AudioCodec {
 public:
  TracingAudioCodec(std::shared_ptr<const AudioCodec> inner, CodecProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  EncodingFamily family() const override { return inner_->family(); }

  Result<EncodedAudio> Encode(const AudioValue& value) const override {
    return inner_->Encode(value);
  }

  /// AudioSource decodes a block before fetching it, so the session is not
  /// known yet: the span is recorded with session -1 and the fetcher that
  /// follows on the engine thread fills it in.
  Result<AudioBlock> DecodeChunk(const EncodedAudio& audio,
                                 int64_t index) const override {
    ++probe_->audio_decodes;
    if (probe_->recorder == nullptr) return inner_->DecodeChunk(audio, index);
    const int64_t start = HostNowNs();
    Result<AudioBlock> block = inner_->DecodeChunk(audio, index);
    probe_->recorder->Add(SpanKind::kDecode, -1, index, start, HostNowNs(),
                          probe_->context->virtual_ns);
    return block;
  }

 private:
  std::shared_ptr<const AudioCodec> inner_;
  CodecProbe* probe_;
};

}  // namespace

std::shared_ptr<const VideoCodec> TracedVideoCodec(
    std::shared_ptr<const VideoCodec> inner, CodecProbe* probe) {
  return std::make_shared<TracingVideoCodec>(std::move(inner), probe);
}

std::shared_ptr<const AudioCodec> TracedAudioCodec(
    std::shared_ptr<const AudioCodec> inner, CodecProbe* probe) {
  return std::make_shared<TracingAudioCodec>(std::move(inner), probe);
}

}  // namespace avdb::e2e
