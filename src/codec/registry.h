#ifndef AVDB_CODEC_REGISTRY_H_
#define AVDB_CODEC_REGISTRY_H_

#include <memory>
#include <vector>

#include "base/result.h"
#include "codec/audio_codec.h"
#include "codec/video_codec.h"

namespace avdb {

/// Lookup of codecs by encoding family — the §4.1 machinery that lets the
/// database pick a representation for a quality factor and lets generic
/// activities decode "whatever the bound value's class is" (the dynamic
/// configuration of `dbSource` in §4.3).
class CodecRegistry {
 public:
  /// Registry pre-populated with every built-in codec.
  static const CodecRegistry& Default();

  CodecRegistry();

  Result<std::shared_ptr<const VideoCodec>> VideoCodecFor(
      EncodingFamily family) const;
  Result<std::shared_ptr<const AudioCodec>> AudioCodecFor(
      EncodingFamily family) const;

  const std::vector<std::shared_ptr<const VideoCodec>>& video_codecs() const {
    return video_codecs_;
  }

 private:
  std::vector<std::shared_ptr<const VideoCodec>> video_codecs_;
  std::vector<std::shared_ptr<const AudioCodec>> audio_codecs_;
};

}  // namespace avdb

#endif  // AVDB_CODEC_REGISTRY_H_
