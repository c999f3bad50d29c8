#include "storage/value_serializer.h"

#include <algorithm>

#include "codec/encoded_value.h"
#include "codec/registry.h"

namespace avdb {
namespace value_serializer {

namespace {

enum class BlobKind : uint8_t {
  kRawVideo = 1,
  kEncodedVideo = 2,
  kRawAudio = 3,
  kEncodedAudio = 4,
  kTextStream = 5,
};

Buffer SerializeRawVideo(const VideoValue& video) {
  Buffer out;
  out.AppendU8(static_cast<uint8_t>(BlobKind::kRawVideo));
  out.AppendI32(video.width());
  out.AppendI32(video.height());
  out.AppendI32(video.depth_bits());
  out.AppendI64(video.frame_rate().num());
  out.AppendI64(video.frame_rate().den());
  out.AppendI64(video.FrameCount());
  // Batched bulk fetch: encoded sources decode each range in one pass
  // (parallel when their params ask for it) instead of frame-at-a-time.
  constexpr int64_t kBatch = 64;
  for (int64_t start = 0; start < video.FrameCount(); start += kBatch) {
    const int64_t take = std::min(kBatch, video.FrameCount() - start);
    std::vector<VideoFrame> frames = video.Frames(start, take).value();
    for (const VideoFrame& frame : frames) {
      out.AppendBytes(frame.data().data(), frame.data().size());
    }
  }
  return out;
}

Result<MediaValuePtr> DeserializeRawVideo(BufferReader* r) {
  auto width = r->ReadI32();
  if (!width.ok()) return width.status();
  auto height = r->ReadI32();
  if (!height.ok()) return height.status();
  auto depth = r->ReadI32();
  if (!depth.ok()) return depth.status();
  auto num = r->ReadI64();
  if (!num.ok()) return num.status();
  auto den = r->ReadI64();
  if (!den.ok()) return den.status();
  auto count = r->ReadI64();
  if (!count.ok()) return count.status();
  if (den.value() == 0) return Status::DataLoss("zero frame-rate denominator");
  if (depth.value() != 8 && depth.value() != 24) {
    return Status::DataLoss("bad stored depth");
  }
  if (width.value() <= 0 || height.value() <= 0 || count.value() < 0) {
    return Status::DataLoss("bad stored video geometry");
  }
  auto value = RawVideoValue::Create(
      MediaDataType::RawVideo(width.value(), height.value(), depth.value(),
                              Rational(num.value(), den.value())));
  if (!value.ok()) return value.status();
  const size_t frame_bytes = static_cast<size_t>(width.value()) *
                             height.value() * (depth.value() / 8);
  for (int64_t i = 0; i < count.value(); ++i) {
    VideoFrame frame(width.value(), height.value(), depth.value());
    AVDB_RETURN_IF_ERROR(r->ReadBytes(frame.data().data(), frame_bytes));
    AVDB_RETURN_IF_ERROR(value.value()->AppendFrame(std::move(frame)));
  }
  return MediaValuePtr(value.value());
}

Buffer SerializeRawAudio(const AudioValue& audio) {
  Buffer out;
  out.AppendU8(static_cast<uint8_t>(BlobKind::kRawAudio));
  out.AppendI32(audio.channels());
  out.AppendI64(audio.sample_rate().num());
  out.AppendI64(audio.sample_rate().den());
  out.AppendI64(audio.SampleCount());
  const AudioBlock block =
      audio.Samples(0, audio.SampleCount()).value();
  for (int16_t s : block.samples()) {
    out.AppendU16(static_cast<uint16_t>(s));
  }
  return out;
}

Result<MediaValuePtr> DeserializeRawAudio(BufferReader* r) {
  auto channels = r->ReadI32();
  if (!channels.ok()) return channels.status();
  auto num = r->ReadI64();
  if (!num.ok()) return num.status();
  auto den = r->ReadI64();
  if (!den.ok()) return den.status();
  auto count = r->ReadI64();
  if (!count.ok()) return count.status();
  if (den.value() == 0) return Status::DataLoss("zero sample-rate denominator");
  if (channels.value() <= 0 || count.value() < 0) {
    return Status::DataLoss("bad stored audio geometry");
  }
  auto value = RawAudioValue::Create(MediaDataType::RawAudio(
      channels.value(), Rational(num.value(), den.value())));
  if (!value.ok()) return value.status();
  AudioBlock block(channels.value(), static_cast<int>(count.value()));
  for (auto& s : block.samples()) {
    auto v = r->ReadU16();
    if (!v.ok()) return v.status();
    s = static_cast<int16_t>(v.value());
  }
  AVDB_RETURN_IF_ERROR(value.value()->Append(block));
  return MediaValuePtr(value.value());
}

Buffer SerializeTextStream(const TextStreamValue& text) {
  Buffer out;
  out.AppendU8(static_cast<uint8_t>(BlobKind::kTextStream));
  out.AppendI64(text.type().element_rate().num());
  out.AppendI64(text.type().element_rate().den());
  out.AppendU32(static_cast<uint32_t>(text.spans().size()));
  for (const auto& s : text.spans()) {
    out.AppendI64(s.first_element);
    out.AppendI64(s.element_count);
    out.AppendString(s.text);
  }
  return out;
}

Result<MediaValuePtr> DeserializeTextStream(BufferReader* r) {
  auto num = r->ReadI64();
  if (!num.ok()) return num.status();
  auto den = r->ReadI64();
  if (!den.ok()) return den.status();
  if (den.value() == 0) return Status::DataLoss("zero text-rate denominator");
  auto value = TextStreamValue::Create(
      MediaDataType::Text(Rational(num.value(), den.value())));
  if (!value.ok()) return value.status();
  auto count = r->ReadU32();
  if (!count.ok()) return count.status();
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto first = r->ReadI64();
    if (!first.ok()) return first.status();
    auto len = r->ReadI64();
    if (!len.ok()) return len.status();
    auto text = r->ReadString();
    if (!text.ok()) return text.status();
    AVDB_RETURN_IF_ERROR(value.value()->AppendSpan(
        first.value(), len.value(), std::move(text).value()));
  }
  return MediaValuePtr(value.value());
}

}  // namespace

Result<Buffer> Serialize(const MediaValue& value) {
  // Encoded representations first (they are also VideoValue/AudioValue).
  if (const auto* ev = dynamic_cast<const EncodedVideoValue*>(&value)) {
    Buffer out;
    out.AppendU8(static_cast<uint8_t>(BlobKind::kEncodedVideo));
    out.AppendBuffer(ev->encoded().Serialize());
    return out;
  }
  if (const auto* ea = dynamic_cast<const EncodedAudioValue*>(&value)) {
    Buffer out;
    out.AppendU8(static_cast<uint8_t>(BlobKind::kEncodedAudio));
    out.AppendBuffer(ea->encoded().Serialize());
    return out;
  }
  if (const auto* v = dynamic_cast<const VideoValue*>(&value)) {
    return SerializeRawVideo(*v);
  }
  if (const auto* a = dynamic_cast<const AudioValue*>(&value)) {
    return SerializeRawAudio(*a);
  }
  if (const auto* t = dynamic_cast<const TextStreamValue*>(&value)) {
    return SerializeTextStream(*t);
  }
  return Status::Unimplemented("unsupported media value kind: " +
                               value.Describe());
}

Result<MediaValuePtr> Deserialize(const Buffer& blob) {
  BufferReader r(blob);
  auto kind = r.ReadU8();
  if (!kind.ok()) return kind.status();
  switch (static_cast<BlobKind>(kind.value())) {
    case BlobKind::kRawVideo:
      return DeserializeRawVideo(&r);
    case BlobKind::kRawAudio:
      return DeserializeRawAudio(&r);
    case BlobKind::kTextStream:
      return DeserializeTextStream(&r);
    case BlobKind::kEncodedVideo: {
      Buffer rest;
      rest.Resize(r.remaining());
      AVDB_RETURN_IF_ERROR(r.ReadBytes(rest.data(), rest.size()));
      auto encoded = EncodedVideo::Deserialize(rest);
      if (!encoded.ok()) return encoded.status();
      auto codec =
          CodecRegistry::Default().VideoCodecFor(encoded.value().family);
      if (!codec.ok()) return codec.status();
      auto value = EncodedVideoValue::Create(codec.value(),
                                             std::move(encoded).value());
      if (!value.ok()) return value.status();
      return MediaValuePtr(value.value());
    }
    case BlobKind::kEncodedAudio: {
      Buffer rest;
      rest.Resize(r.remaining());
      AVDB_RETURN_IF_ERROR(r.ReadBytes(rest.data(), rest.size()));
      auto encoded = EncodedAudio::Deserialize(rest);
      if (!encoded.ok()) return encoded.status();
      auto codec =
          CodecRegistry::Default().AudioCodecFor(encoded.value().family);
      if (!codec.ok()) return codec.status();
      auto value = EncodedAudioValue::Create(codec.value(),
                                             std::move(encoded).value());
      if (!value.ok()) return value.status();
      return MediaValuePtr(value.value());
    }
  }
  return Status::DataLoss("unknown blob kind tag");
}

Result<VideoValuePtr> DeserializeVideo(const Buffer& blob) {
  auto value = Deserialize(blob);
  if (!value.ok()) return value.status();
  auto video = std::dynamic_pointer_cast<VideoValue>(value.value());
  if (video == nullptr) {
    return Status::InvalidArgument("stored blob is not video");
  }
  return video;
}

Result<AudioValuePtr> DeserializeAudio(const Buffer& blob) {
  auto value = Deserialize(blob);
  if (!value.ok()) return value.status();
  auto audio = std::dynamic_pointer_cast<AudioValue>(value.value());
  if (audio == nullptr) {
    return Status::InvalidArgument("stored blob is not audio");
  }
  return audio;
}

Result<TextStreamValuePtr> DeserializeText(const Buffer& blob) {
  auto value = Deserialize(blob);
  if (!value.ok()) return value.status();
  auto text = std::dynamic_pointer_cast<TextStreamValue>(value.value());
  if (text == nullptr) {
    return Status::InvalidArgument("stored blob is not a text stream");
  }
  return text;
}

Result<LoadResult> Load(MediaStore& store, const std::string& name) {
  auto read = store.Get(name);
  if (!read.ok()) return read.status();
  auto value = Deserialize(read.value().data);
  if (!value.ok()) return value.status();
  LoadResult out;
  out.value = std::move(value.value());
  out.duration = read.value().duration;
  out.retries = read.value().retries;
  return out;
}

Result<WorldTime> Store(MediaStore& store, const std::string& name,
                        const MediaValue& value) {
  auto blob = Serialize(value);
  if (!blob.ok()) return blob.status();
  return store.Put(name, blob.value());
}

}  // namespace value_serializer
}  // namespace avdb
