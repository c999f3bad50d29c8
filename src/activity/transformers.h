#ifndef AVDB_ACTIVITY_TRANSFORMERS_H_
#define AVDB_ACTIVITY_TRANSFORMERS_H_

#include <map>
#include <memory>
#include <string>

#include "activity/cost_model.h"
#include "activity/media_activity.h"
#include "codec/encoded_value.h"
#include "codec/intra_codec.h"
#include "sched/service_queue.h"

namespace avdb {

/// Table 1's "video decoder": transformer with a compressed "compressed_in"
/// port and a raw "video_out" port. Decoding consumes the incoming encoded
/// chunk stream; predictive families need the stream's decode state, so the
/// activity is bound to the same EncodedVideoValue the upstream reader
/// produces chunks from (its session keeps the reference frames). Each
/// frame pays modeled decode time on the activity's decode unit.
class VideoDecoderActivity : public MediaActivity {
 public:
  static constexpr const char* kPortIn = "compressed_in";
  static constexpr const char* kPortOut = "video_out";

  static std::shared_ptr<VideoDecoderActivity> Create(
      const std::string& name, ActivityLocation location, ActivityEnv env,
      CostModel costs = {});

  /// Binds the encoded value whose chunk stream will arrive; re-types both
  /// ports to match.
  Status DoBind(MediaValuePtr value, const std::string& port_name) override;

  void OnElement(Port* in, const StreamElement& element) override;

  int64_t frames_decoded() const { return frames_decoded_; }

 protected:
  Status OnStop() override;

 private:
  VideoDecoderActivity(const std::string& name, ActivityLocation location,
                       ActivityEnv env, CostModel costs);

  Port* in_;
  Port* out_;
  CostModel costs_;
  ServiceQueue decode_unit_;
  std::shared_ptr<EncodedVideoValue> value_;
  /// This decoder's own position in `value_`: opened on the first chunk,
  /// dropped when the stream stops.
  std::unique_ptr<VideoDecoderSession> reader_;
  int64_t frames_decoded_ = 0;
};

/// Table 1's "video encoder": raw "video_in" -> intra-coded
/// "compressed_out". Streaming encode is intra-only (each frame coded
/// independently), matching the real-time-encode hardware of the era.
class VideoEncoderActivity : public MediaActivity {
 public:
  static constexpr const char* kPortIn = "video_in";
  static constexpr const char* kPortOut = "compressed_out";

  /// Ports typed for `input_type` (must be raw video); output is the intra
  /// compressed counterpart.
  static std::shared_ptr<VideoEncoderActivity> Create(
      const std::string& name, ActivityLocation location, ActivityEnv env,
      MediaDataType input_type, int quality = 75, CostModel costs = {});

  void OnElement(Port* in, const StreamElement& element) override;

  int64_t frames_encoded() const { return frames_encoded_; }
  int64_t bytes_out() const { return bytes_out_; }

 private:
  VideoEncoderActivity(const std::string& name, ActivityLocation location,
                       ActivityEnv env, MediaDataType input_type, int quality,
                       CostModel costs);

  Port* in_;
  Port* out_;
  int quality_;
  CostModel costs_;
  ServiceQueue encode_unit_;
  int64_t frames_encoded_ = 0;
  int64_t bytes_out_ = 0;
};

/// The pair-by-index join of the two mixers: elements arriving on "in_a"
/// and "in_b" pair by index and go through the kind's `Mix` kernel,
/// paying its modeled cost on the mix unit. When one input ends, the
/// other passes through; end of stream follows once both have ended.
class PairMixer : public MediaActivity {
 public:
  static constexpr const char* kPortInA = "in_a";
  static constexpr const char* kPortInB = "in_b";

  void OnElement(Port* in, const StreamElement& element) final;

  /// Elements emitted: mixed pairs and passed-through singles.
  int64_t elements_mixed() const { return elements_mixed_; }

 protected:
  PairMixer(const std::string& name, ActivityLocation location,
            ActivityEnv env, const MediaDataType& type, const char* port_out,
            CostModel costs);

  /// The output payload (and its size) for the pair `a`, `b` at one index.
  virtual StreamElement Mix(const StreamElement& a,
                            const StreamElement& b) const = 0;
  /// Modeled time to produce `out` (a mixed pair or a passed-through
  /// single).
  virtual int64_t CostNs(const StreamElement& out) const = 0;

  CostModel costs_;

 private:
  void TryEmit(int64_t index);

  Port* in_a_;
  Port* in_b_;
  Port* out_;
  ServiceQueue mix_unit_;
  std::map<int64_t, StreamElement> pending_a_;
  std::map<int64_t, StreamElement> pending_b_;
  bool a_done_ = false;
  bool b_done_ = false;
  bool eos_sent_ = false;
  int64_t elements_mixed_ = 0;
};

/// Table 1's "video mixer": two raw inputs ("in_a", "in_b") -> one raw
/// output ("video_out"). The §3.3 data-placement example operation ("video
/// mixing is commonly used during video editing"). The output frame is a
/// blend.
class VideoMixer : public PairMixer {
 public:
  static constexpr const char* kPortOut = "video_out";

  /// Blend weight of input A in [0,1]; 0.5 is an equal dissolve.
  static std::shared_ptr<VideoMixer> Create(const std::string& name,
                                            ActivityLocation location,
                                            ActivityEnv env,
                                            MediaDataType video_type,
                                            double mix = 0.5,
                                            CostModel costs = {});

 protected:
  StreamElement Mix(const StreamElement& a,
                    const StreamElement& b) const override;
  int64_t CostNs(const StreamElement& out) const override;

 private:
  VideoMixer(const std::string& name, ActivityLocation location,
             ActivityEnv env, const MediaDataType& video_type, double mix,
             CostModel costs);

  double mix_;
};

/// Table 1's "video tee": one raw input fanned out to `fanout` raw outputs
/// "out_0".."out_{n-1}" without copying frame data.
class VideoTee : public MediaActivity {
 public:
  static constexpr const char* kPortIn = "video_in";

  static std::shared_ptr<VideoTee> Create(const std::string& name,
                                          ActivityLocation location,
                                          ActivityEnv env,
                                          MediaDataType video_type,
                                          int fanout = 2);

  void OnElement(Port* in, const StreamElement& element) override;

 private:
  VideoTee(const std::string& name, ActivityLocation location,
           ActivityEnv env, MediaDataType video_type, int fanout);

  Port* in_;
  std::vector<Port*> outs_;
};

/// Audio counterpart of the video mixer: two PCM inputs ("in_a", "in_b")
/// -> one summed PCM output ("audio_out") with saturating addition — the
/// dubbing/voice-over operation of the corporate editing scenario.
class AudioMixerActivity : public PairMixer {
 public:
  static constexpr const char* kPortOut = "audio_out";

  static std::shared_ptr<AudioMixerActivity> Create(
      const std::string& name, ActivityLocation location, ActivityEnv env,
      MediaDataType audio_type, double gain_a = 0.5, double gain_b = 0.5,
      CostModel costs = {});

 protected:
  StreamElement Mix(const StreamElement& a,
                    const StreamElement& b) const override;
  int64_t CostNs(const StreamElement& out) const override;

 private:
  AudioMixerActivity(const std::string& name, ActivityLocation location,
                     ActivityEnv env, const MediaDataType& audio_type,
                     double gain_a, double gain_b, CostModel costs);

  double gain_a_;
  double gain_b_;
};

/// Format conversion (§3.3 lists it among AV processing): raw video in one
/// geometry -> raw video in another (nearest-neighbour resample plus depth
/// conversion). Used to serve a lower quality factor than stored.
class FormatConverter : public MediaActivity {
 public:
  static constexpr const char* kPortIn = "video_in";
  static constexpr const char* kPortOut = "video_out";

  static std::shared_ptr<FormatConverter> Create(const std::string& name,
                                                 ActivityLocation location,
                                                 ActivityEnv env,
                                                 MediaDataType from,
                                                 MediaDataType to,
                                                 CostModel costs = {});

  void OnElement(Port* in, const StreamElement& element) override;

  /// The resampling kernel (exposed for tests).
  static VideoFrame Convert(const VideoFrame& src, int width, int height,
                            int depth_bits);

 private:
  FormatConverter(const std::string& name, ActivityLocation location,
                  ActivityEnv env, MediaDataType from, MediaDataType to,
                  CostModel costs);

  Port* in_;
  Port* out_;
  MediaDataType to_;
  CostModel costs_;
  ServiceQueue convert_unit_;
};

}  // namespace avdb

#endif  // AVDB_ACTIVITY_TRANSFORMERS_H_
