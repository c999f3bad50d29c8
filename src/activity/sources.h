#ifndef AVDB_ACTIVITY_SOURCES_H_
#define AVDB_ACTIVITY_SOURCES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "activity/cost_model.h"
#include "activity/media_activity.h"
#include "codec/encoded_value.h"
#include "codec/scalable_codec.h"
#include "media/audio_value.h"
#include "media/synthetic.h"
#include "media/text_stream_value.h"
#include "media/video_value.h"
#include "sched/degradation.h"
#include "sched/service_queue.h"
#include "sched/sync_controller.h"
#include "storage/media_store.h"

namespace avdb {

/// Pluggable range-fetch hook: (blob, offset, length, deadline_budget_ns)
/// → the same ReadResult a MediaStore read produces. The indirection lets a
/// layer *above* activity (the cluster router, with replica selection,
/// failover and hedged reads) serve fetches without the activity layer
/// depending on it. `deadline_budget_ns` is the element's remaining
/// presentation budget at fetch time; non-positive means the element is
/// already doomed and the fetcher should fail fast.
using RangeFetcher = std::function<Result<MediaStore::ReadResult>(
    const std::string& blob, int64_t offset, int64_t length,
    int64_t deadline_budget_ns)>;

/// Shared knobs of rate-based source activities.
struct SourceOptions {
  /// Elements are fetched this far ahead of their ideal presentation time,
  /// absorbing pipeline and transfer delays.
  WorldTime preroll = WorldTime::FromMillis(80);
  /// Extra delay before element 0's ideal time (track offset from a
  /// temporal composite's timeline, Fig. 1).
  WorldTime start_offset;
  /// When set, every fetch charges modeled device time: the source reads
  /// the value's bytes from this store (blob `blob_name`) through
  /// `device_queue`, so concurrent streams on one device contend.
  MediaStore* store = nullptr;
  std::string blob_name;
  ServiceQueue* device_queue = nullptr;
  /// When set, fetches go through this hook instead of `store` (which is
  /// then ignored). Each call carries the element's deadline budget:
  /// ideal presentation time + 100 ms of tolerated lateness − now, so
  /// every hop below (router, channel, replica device) can cancel work that
  /// can no longer present on time.
  RangeFetcher fetcher;
  /// When set with `sync_track`, the source consults the controller before
  /// each element and skips elements a lagging track is told to drop.
  SyncController* sync = nullptr;
  std::string sync_track;
  /// Processing-cost model for any internal decode.
  CostModel costs;
  /// When set, the source degrades instead of stalling: it consults the
  /// controller's ladder each tick (drop frame / lower quality / pause /
  /// abort), tolerates post-retry fetch failures as dropped elements, and
  /// surfaces every step as a typed event. When null (the default) fetch
  /// failures stop the stream exactly as before.
  DegradationController* degrade = nullptr;
};

/// The paper's `VideoSource` (§4.2/§4.3): a source activity producing the
/// frames of a bound `VideoValue` through port "video_out" at the value's
/// frame rate.
///
///   events = {EACH_FRAME, LAST_FRAME}
///
/// The output port type adapts to the bound value on Bind (§4.3: "dynamic
/// configuration of dbSource is necessary"): binding an encoded value with
/// `emit_encoded` produces compressed chunks for a downstream decoder
/// (Table 1's "video reader"); otherwise the source decodes internally
/// (paying modeled decode time) and produces raw frames.
class VideoSource : public MediaActivity {
 public:
  static constexpr const char* kEachFrame = "EACH_FRAME";
  static constexpr const char* kLastFrame = "LAST_FRAME";
  static constexpr const char* kPortOut = "video_out";
  // Robustness events (raised only when options.degrade is set, except
  // FAULT_RETRY which reports any absorbed storage retries).
  static constexpr const char* kFaultRetry = "FAULT_RETRY";
  static constexpr const char* kFrameDropped = "FRAME_DROPPED";
  static constexpr const char* kQualityChanged = "QUALITY_CHANGED";
  static constexpr const char* kStreamPaused = "STREAM_PAUSED";
  static constexpr const char* kStreamAborted = "STREAM_ABORTED";

  /// `emit_encoded` selects chunk output for encoded bound values.
  static std::shared_ptr<VideoSource> Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env,
                                             SourceOptions options = {},
                                             bool emit_encoded = false);

  /// Binds a VideoValue to "video_out" and re-types the port.
  Status DoBind(MediaValuePtr value, const std::string& port_name) override;

  /// Positions so the next produced frame is the one at local time `t` of
  /// the bound value.
  Status DoCue(WorldTime t) override;

  const VideoValuePtr& bound_value() const { return value_; }
  int64_t next_index() const { return next_index_; }

  /// Scalable layers currently decoded / at bind time. Equal unless the
  /// degradation ladder stepped quality down; 0 when the bound value is not
  /// layer-scalable.
  int active_layers() const { return active_layers_; }
  int nominal_layers() const { return nominal_layers_; }

  /// True while the source holds a private decode session over its bound
  /// encoded value: from the first decode until the stream stops.
  bool holds_decoder() const { return reader_ != nullptr; }

  Status ConfigureSync(SyncController* sync,
                       const std::string& track) override;

 protected:
  Status OnStart() override;
  Status OnStop() override;

 private:
  VideoSource(const std::string& name, ActivityLocation location,
              ActivityEnv env, SourceOptions options, bool emit_encoded);

  void ScheduleTick(int64_t index, int64_t stream_start_ns);
  void Tick(int64_t index, int64_t stream_start_ns, int64_t gen);
  int64_t PeriodNs() const;
  /// Byte size of frame `i` in the *active* representation (a degraded view
  /// reads fewer bytes than the stored frame occupies).
  int64_t FrameBytes(int64_t i) const;
  /// Byte offset of frame `i` within the stored blob (approximate layout:
  /// frames in sequence, at the *bound* value's full frame sizes — quality
  /// steps change how many bytes are read, never where frames live).
  int64_t FrameOffset(int64_t i) const {
    return frame_offsets_[static_cast<size_t>(i)];
  }
  /// Decodes frame `index` of the active representation. While playing the
  /// bound encoded value this goes through the source's own reader, opened
  /// on first use; other representations decode through the value.
  Result<VideoFrame> DecodeFrame(int64_t index);
  /// Stops the stream from inside and releases the reader.
  void EndStream();
  /// Steps the active scalable view by `delta` layers (-1 lower, +1 raise).
  /// Returns false when the value is not scalable or already at the bound.
  [[nodiscard]] bool ApplyQualityStep(int delta);
  /// Drops element `index` (ladder decision or tolerated fetch failure) and
  /// schedules the next tick.
  void DropElement(int64_t index, int64_t stream_start_ns,
                   const std::string& why);

  SourceOptions options_;
  bool emit_encoded_;
  Port* out_;
  VideoValuePtr value_;
  /// The originally bound value — owns the blob layout (FrameOffset) and
  /// the nominal quality the ladder recovers toward.
  VideoValuePtr layout_value_;
  std::shared_ptr<EncodedVideoValue> encoded_;  // set when value is encoded
  /// This stream's decode position in `encoded_` (see DecodeFrame).
  std::unique_ptr<VideoDecoderSession> reader_;
  /// Prefix sums of layout_value_'s frame sizes, computed at bind.
  std::vector<int64_t> frame_offsets_;
  /// Full-quality value whose stream backs quality steps (nullptr when not
  /// scalable).
  std::shared_ptr<const EncodedVideoValue> scalable_value_;
  int nominal_layers_ = 0;
  int active_layers_ = 0;
  ServiceQueue decode_unit_;
  int64_t next_index_ = 0;
};

/// Audio counterpart of VideoSource: produces PCM blocks of
/// `kBlockFrames` sample frames through "audio_out".
///
///   events = {EACH_BLOCK, LAST_BLOCK}
class AudioSource : public MediaActivity {
 public:
  static constexpr const char* kEachBlock = "EACH_BLOCK";
  static constexpr const char* kLastBlock = "LAST_BLOCK";
  static constexpr const char* kPortOut = "audio_out";
  static constexpr const char* kFaultRetry = "FAULT_RETRY";
  static constexpr const char* kBlockDropped = "BLOCK_DROPPED";
  static constexpr const char* kStreamAborted = "STREAM_ABORTED";
  static constexpr int kBlockFrames = 1024;

  static std::shared_ptr<AudioSource> Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env,
                                             SourceOptions options = {});

  Status DoBind(MediaValuePtr value, const std::string& port_name) override;
  Status DoCue(WorldTime t) override;

  const AudioValuePtr& bound_value() const { return value_; }

  Status ConfigureSync(SyncController* sync,
                       const std::string& track) override;

 protected:
  Status OnStart() override;

 private:
  AudioSource(const std::string& name, ActivityLocation location,
              ActivityEnv env, SourceOptions options);

  void Tick(int64_t block_index, int64_t stream_start_ns, int64_t gen);
  int64_t BlockCount() const;
  int64_t PeriodNs() const;

  SourceOptions options_;
  Port* out_;
  AudioValuePtr value_;
  /// Stored bytes fetched per block, computed at bind.
  int64_t stored_bytes_per_block_ = 0;
  ServiceQueue decode_unit_;
  int64_t next_block_ = 0;
};

/// Produces caption elements of a bound TextStreamValue through
/// "text_out": one element per span, at the span's start time.
class TextSource : public MediaActivity {
 public:
  static constexpr const char* kPortOut = "text_out";

  static std::shared_ptr<TextSource> Create(const std::string& name,
                                            ActivityLocation location,
                                            ActivityEnv env,
                                            SourceOptions options = {});

  Status DoBind(MediaValuePtr value, const std::string& port_name) override;
  Status DoCue(WorldTime t) override;

  /// Captions are sparse; the track joins the domain but never skips.
  Status ConfigureSync(SyncController* sync,
                       const std::string& track) override;

 protected:
  Status OnStart() override;

 private:
  TextSource(const std::string& name, ActivityLocation location,
             ActivityEnv env, SourceOptions options);

  SourceOptions options_;
  Port* out_;
  TextStreamValuePtr value_;
  size_t next_span_ = 0;
};

/// Table 1's "video digitizer": a live source producing synthetic camera
/// frames at rate through "video_out" until stopped — the paper's example
/// of a value that "is impossible to compress prior to exchange" because it
/// does not exist in advance.
class VideoDigitizer : public MediaActivity {
 public:
  static constexpr const char* kPortOut = "video_out";
  static constexpr const char* kEachFrame = "EACH_FRAME";

  /// Digitizes at the geometry/rate of `type` (must be raw video) with the
  /// given synthetic pattern. `frame_limit` < 0 runs until Stop().
  static std::shared_ptr<VideoDigitizer> Create(
      const std::string& name, ActivityLocation location, ActivityEnv env,
      MediaDataType type, synthetic::VideoPattern pattern,
      int64_t frame_limit = -1, uint64_t seed = 1);

 protected:
  Status OnStart() override;

 private:
  VideoDigitizer(const std::string& name, ActivityLocation location,
                 ActivityEnv env, MediaDataType type,
                 synthetic::VideoPattern pattern, int64_t frame_limit,
                 uint64_t seed);

  void Tick(int64_t index, int64_t stream_start_ns, int64_t gen);

  Port* out_;
  MediaDataType type_;
  synthetic::VideoPattern pattern_;
  int64_t frame_limit_;
  uint64_t seed_;
};

/// Live audio source (microphone / line-in simulator): produces synthetic
/// PCM blocks at rate until stopped or `sample_limit` is reached — the
/// audio analogue of VideoDigitizer and the other half of the paper's
/// "live sources" footnote (values that cannot be compressed in advance).
class AudioCapture : public MediaActivity {
 public:
  static constexpr const char* kPortOut = "audio_out";
  static constexpr const char* kEachBlock = "EACH_BLOCK";
  static constexpr int kBlockFrames = 1024;

  /// Captures at the channel count/rate of `type` (must be raw audio).
  /// `sample_limit` < 0 runs until Stop().
  static std::shared_ptr<AudioCapture> Create(
      const std::string& name, ActivityLocation location, ActivityEnv env,
      MediaDataType type, synthetic::AudioPattern pattern,
      int64_t sample_limit = -1, uint64_t seed = 1);

 protected:
  Status OnStart() override;

 private:
  AudioCapture(const std::string& name, ActivityLocation location,
               ActivityEnv env, MediaDataType type,
               synthetic::AudioPattern pattern, int64_t sample_limit,
               uint64_t seed);

  void Tick(int64_t block_index, int64_t stream_start_ns, int64_t gen);

  Port* out_;
  MediaDataType type_;
  synthetic::AudioPattern pattern_;
  int64_t sample_limit_;
  uint64_t seed_;
  std::shared_ptr<RawAudioValue> generated_;  // lazily generated signal
};

}  // namespace avdb

#endif  // AVDB_ACTIVITY_SOURCES_H_
