#ifndef AVDB_ACTIVITY_SOURCES_H_
#define AVDB_ACTIVITY_SOURCES_H_

#include <functional>
#include <memory>
#include <optional>
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

/// A fetcher that reads straight from `store` through `ReadRange`,
/// ignoring the deadline budget: a source on a database-local device.
RangeFetcher FetchFrom(MediaStore* store);

/// Shared knobs of rate-based source activities.
struct SourceOptions {
  /// Extra delay before element 0's ideal time (track offset from a
  /// temporal composite's timeline, Fig. 1).
  WorldTime start_offset;
  /// Blob the fetcher reads the value's bytes from.
  std::string blob_name;
  /// When set, each fetch's modeled device time is served through this
  /// queue, so concurrent streams on one device contend.
  ServiceQueue* device_queue = nullptr;
  /// When set, every element's stored bytes are fetched through this hook
  /// (`FetchFrom(store)` for a local store, the cluster router for
  /// replicas). Each call carries the element's deadline budget: ideal
  /// presentation time + 100 ms of tolerated lateness − now, so every hop
  /// below (router, channel, replica device) can cancel work that can no
  /// longer present on time. Unset, the value is served from memory.
  RangeFetcher fetcher;
  /// Processing-cost model for any internal decode.
  CostModel costs;
  /// When set, the source degrades instead of stalling: it tolerates
  /// post-retry fetch failures as dropped elements (VideoSource also
  /// consults the controller's ladder each tick: drop frame / lower quality
  /// / pause / abort) and surfaces every step as a typed event. When null
  /// (the default) a fetch failure stops the stream.
  DegradationController* degrade = nullptr;
};

/// The source role of §4.2 for a stored value: one paced fetch loop under
/// VideoSource and AudioSource. Element i is fetched one preroll before its
/// ideal presentation time (stream epoch + i periods), its bytes paid for
/// through the fetcher and device queue, and emitted when ready. The base
/// owns the epoch and tick schedule, the sync skip, end of stream, abort,
/// drop-and-continue, the fetch and the deferred emit; a kind supplies its
/// element count, period and `Produce` step.
class StreamSource : public MediaActivity {
 public:
  /// Elements are fetched this far ahead of their ideal presentation time,
  /// absorbing pipeline and transfer delays.
  static constexpr int64_t kPrerollNs = 80 * 1000 * 1000;
  // Robustness events. FAULT_RETRY reports any absorbed storage retries;
  // STREAM_ABORTED is raised only when options.degrade is set.
  static constexpr const char* kFaultRetry = "FAULT_RETRY";
  static constexpr const char* kStreamAborted = "STREAM_ABORTED";

  /// Joins the sync domain: before each element the source consults the
  /// controller and skips what a lagging track is told to drop.
  Status ConfigureSync(SyncController* sync,
                       const std::string& track) override;

 protected:
  /// The kind's event names: one per delivered element, one at end of
  /// stream, one per dropped element.
  struct Events {
    const char* each;
    const char* last;
    const char* dropped;
  };

  StreamSource(const std::string& name, ActivityLocation location,
               ActivityEnv env, SourceOptions options, const char* port,
               MediaDataType port_type, Events events);

  Status OnStart() override;
  Status OnStop() override;

  /// The kind's bound value: whether there is one, its element count and
  /// the virtual time between two elements.
  virtual bool bound() const = 0;
  virtual int64_t ElementCount() const = 0;
  virtual int64_t PeriodNs() const = 0;
  /// Produces element `index` (inside the stream): fetches, decodes and
  /// delivers it, or drops it, or ends the stream.
  virtual void Produce(int64_t index, int64_t stream_start_ns) = 0;
  /// Sheds element `index` after a failure the degradation controller was
  /// told about. Default: drop it and carry on.
  virtual void ShedAfterFault(int64_t index, int64_t stream_start_ns,
                              const std::string& why);
  /// Releases what a run holds, on Stop() and on every end from inside.
  virtual void ReleaseStream() {}

  int64_t IdealNs(int64_t index, int64_t stream_start_ns) const {
    return stream_start_ns + index * PeriodNs();
  }
  /// Fetches `length` stored bytes at `offset` for element `index`; returns
  /// when they are ready, or nullopt after the failure was handled.
  std::optional<int64_t> Fetch(int64_t index, int64_t stream_start_ns,
                               int64_t offset, int64_t length);
  /// Emits `element` at `ready_ns`, raising the per-element event, and
  /// schedules the next tick.
  void Deliver(StreamElement element, int64_t ready_ns,
               int64_t stream_start_ns);
  /// A failure terminal for element `index`: without degradation it stops
  /// the stream; with it, one fault strike and ShedAfterFault.
  void Fault(int64_t index, int64_t stream_start_ns, const std::string& why);
  /// Drops element `index` (ladder decision or tolerated failure) and
  /// schedules the next tick. Only under degradation.
  void DropElement(int64_t index, int64_t stream_start_ns,
                   const std::string& why);
  /// Abandons the stream at element `index` (the ladder's last rung).
  void Abort(int64_t index, int64_t stream_start_ns);
  void ScheduleTick(int64_t index, int64_t stream_start_ns);
  /// Stops the stream from inside and releases what it holds.
  void EndStream();

  SourceOptions options_;
  Port* out_;
  ServiceQueue decode_unit_;
  /// The element a start produces first: set by bind and cue, advanced as
  /// the stream runs, so a restart resumes where a stop left off.
  int64_t next_index_ = 0;

 private:
  void Tick(int64_t index, int64_t stream_start_ns, int64_t gen);
  /// The element to produce instead of `index` once the sync domain's skip
  /// recommendation is applied (§3.3's resynchronization).
  int64_t Resync(int64_t index);

  Events events_;
  SyncController* sync_ = nullptr;
  std::string sync_track_;
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
class VideoSource : public StreamSource {
 public:
  static constexpr const char* kEachFrame = "EACH_FRAME";
  static constexpr const char* kLastFrame = "LAST_FRAME";
  static constexpr const char* kPortOut = "video_out";
  // Degradation-ladder events (raised only when options.degrade is set).
  static constexpr const char* kFrameDropped = "FRAME_DROPPED";
  static constexpr const char* kQualityChanged = "QUALITY_CHANGED";
  static constexpr const char* kStreamPaused = "STREAM_PAUSED";

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

  /// Scalable layers currently decoded: the bound value's count unless the
  /// degradation ladder stepped quality down; 0 when the bound value is not
  /// layer-scalable.
  int active_layers() const { return active_layers_; }

  /// True while the source holds a private decode session over its bound
  /// encoded value: from the first decode until the stream stops.
  bool holds_decoder() const { return reader_ != nullptr; }

 protected:
  bool bound() const override { return value_ != nullptr; }
  int64_t ElementCount() const override { return value_->FrameCount(); }
  int64_t PeriodNs() const override;
  void Produce(int64_t index, int64_t stream_start_ns) override;
  void ReleaseStream() override { reader_.reset(); }

 private:
  VideoSource(const std::string& name, ActivityLocation location,
              ActivityEnv env, SourceOptions options, bool emit_encoded);

  /// Acts on the degradation ladder's recommendation before any fetch cost
  /// is paid. Returns false when the rung consumed this tick (drop, pause
  /// or abort).
  [[nodiscard]] bool Degrade(int64_t index, int64_t stream_start_ns);
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
  /// Steps the active scalable view by `delta` layers (-1 lower, +1 raise).
  /// Returns false when the value is not scalable or already at the bound.
  [[nodiscard]] bool ApplyQualityStep(int delta);

  bool emit_encoded_;
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
};

/// Audio counterpart of VideoSource: produces PCM blocks of
/// `kBlockFrames` sample frames through "audio_out". It has no pre-fetch
/// ladder: only a failed fetch consults the degradation controller, which
/// then either drops the block or aborts the stream.
///
///   events = {EACH_BLOCK, LAST_BLOCK}
class AudioSource : public StreamSource {
 public:
  static constexpr const char* kEachBlock = "EACH_BLOCK";
  static constexpr const char* kLastBlock = "LAST_BLOCK";
  static constexpr const char* kPortOut = "audio_out";
  static constexpr const char* kBlockDropped = "BLOCK_DROPPED";
  static constexpr int kBlockFrames = 1024;

  static std::shared_ptr<AudioSource> Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env,
                                             SourceOptions options = {});

  Status DoBind(MediaValuePtr value, const std::string& port_name) override;
  Status DoCue(WorldTime t) override;

  const AudioValuePtr& bound_value() const { return value_; }

 protected:
  bool bound() const override { return value_ != nullptr; }
  int64_t ElementCount() const override;
  int64_t PeriodNs() const override { return period_ns_; }
  void Produce(int64_t index, int64_t stream_start_ns) override;
  void ShedAfterFault(int64_t index, int64_t stream_start_ns,
                      const std::string& why) override;

 private:
  AudioSource(const std::string& name, ActivityLocation location,
              ActivityEnv env, SourceOptions options);

  AudioValuePtr value_;
  /// Stored bytes fetched per block, computed at bind.
  int64_t stored_bytes_per_block_ = 0;
  /// Presentation period of one block, computed at bind.
  int64_t period_ns_ = 0;
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
  Status ConfigureSync(SyncController* /*sync*/,
                       const std::string& /*track*/) override {
    return Status::OK();
  }

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

/// The live-source role: elements that do not exist in advance, made at
/// rate from the start through one output port until stopped or until
/// `element_limit` elements (< 0: no limit). The base owns the start, the
/// generation check, the end at the limit, the emit, the each-element event
/// and the next tick; a kind checks its type and makes each element. A
/// failure to make one is logged and stops the source.
class LiveSource : public MediaActivity {
 protected:
  LiveSource(const std::string& name, ActivityLocation location,
             ActivityEnv env, MediaDataType type, const char* port,
             const char* each_event, int64_t element_limit);

  Status OnStart() override;

  /// Checks the type and readies a run; returns the virtual time between
  /// two elements.
  virtual Result<int64_t> Prepare() = 0;
  /// Fills element `index`'s media and size.
  virtual Status Generate(int64_t index, StreamElement* element) = 0;

  MediaDataType type_;

 private:
  void Tick(int64_t index, int64_t stream_start_ns, int64_t gen);

  Port* out_;
  const char* each_event_;
  int64_t element_limit_;
  int64_t period_ns_ = 0;
};

/// Table 1's "video digitizer": a live source producing synthetic camera
/// frames at rate through "video_out" until stopped — the paper's example
/// of a value that "is impossible to compress prior to exchange" because it
/// does not exist in advance.
class VideoDigitizer : public LiveSource {
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
  Result<int64_t> Prepare() override;
  Status Generate(int64_t index, StreamElement* element) override;

 private:
  VideoDigitizer(const std::string& name, ActivityLocation location,
                 ActivityEnv env, MediaDataType type,
                 synthetic::VideoPattern pattern, int64_t frame_limit,
                 uint64_t seed);

  synthetic::VideoPattern pattern_;
  uint64_t seed_;
};

/// Live audio source (microphone / line-in simulator): produces synthetic
/// PCM blocks at rate until stopped or `sample_limit` is reached — the
/// audio analogue of VideoDigitizer and the other half of the paper's
/// "live sources" footnote (values that cannot be compressed in advance).
class AudioCapture : public LiveSource {
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
  Result<int64_t> Prepare() override;
  Status Generate(int64_t index, StreamElement* element) override;

 private:
  AudioCapture(const std::string& name, ActivityLocation location,
               ActivityEnv env, MediaDataType type,
               synthetic::AudioPattern pattern, int64_t sample_limit,
               uint64_t seed);

  synthetic::AudioPattern pattern_;
  int64_t sample_limit_;
  uint64_t seed_;
  std::shared_ptr<RawAudioValue> generated_;  // lazily generated signal
};

}  // namespace avdb

#endif  // AVDB_ACTIVITY_SOURCES_H_
