#include "codec/registry.h"

#include "codec/delta_codec.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/scalable_codec.h"

namespace avdb {

const CodecRegistry& CodecRegistry::Default() {
  static const CodecRegistry* registry = new CodecRegistry();
  return *registry;
}

CodecRegistry::CodecRegistry() {
  video_codecs_.push_back(std::make_shared<IntraCodec>());
  video_codecs_.push_back(std::make_shared<InterCodec>());
  video_codecs_.push_back(std::make_shared<DeltaCodec>());
  video_codecs_.push_back(std::make_shared<ScalableCodec>());
  audio_codecs_.push_back(std::make_shared<MulawCodec>());
  audio_codecs_.push_back(std::make_shared<AdpcmCodec>());
}

Result<std::shared_ptr<const VideoCodec>> CodecRegistry::VideoCodecFor(
    EncodingFamily family) const {
  for (const auto& c : video_codecs_) {
    if (c->family() == family) return c;
  }
  return Status::NotFound("no video codec for family " +
                          std::string(EncodingFamilyName(family)));
}

Result<std::shared_ptr<const AudioCodec>> CodecRegistry::AudioCodecFor(
    EncodingFamily family) const {
  for (const auto& c : audio_codecs_) {
    if (c->family() == family) return c;
  }
  return Status::NotFound("no audio codec for family " +
                          std::string(EncodingFamilyName(family)));
}

}  // namespace avdb
