#ifndef AVDB_ACTIVITY_SINKS_H_
#define AVDB_ACTIVITY_SINKS_H_

#include <memory>
#include <string>

#include "activity/media_activity.h"
#include "media/audio_value.h"
#include "media/quality.h"
#include "media/video_value.h"
#include "sched/degradation.h"
#include "sched/stream_stats.h"
#include "sched/sync_controller.h"
#include "storage/media_store.h"

namespace avdb {

/// Common sink wiring.
struct SinkOptions {
  /// When set, each element's lateness feeds the shared degradation
  /// controller — the sink is the ladder's deadline-pressure sensor, the
  /// source its actuator.
  DegradationController* degrade = nullptr;
};

/// The presenting role of §4.2's sinks, shared by VideoWindow, AudioSink
/// and TextSink. Presentation happens at max(arrival, ideal) and every
/// element's lateness is recorded in StreamStats — our measuring substitute
/// for the paper's workstation window (DESIGN.md §5) — and reported to the
/// degradation controller and the sync domain. A kind supplies `Show`,
/// which takes the element's payload.
class PresentingSink : public MediaActivity {
 public:
  ~PresentingSink() override;

  const StreamStats& stats() const { return stats_; }

  void OnElement(Port* in, const StreamElement& element) final;
  /// Joins the sync domain: each presentation is reported to the
  /// controller so lagging tracks can be resynchronized.
  Status ConfigureSync(SyncController* sync,
                       const std::string& track) override;

 protected:
  /// `each_event` and `last_event` may be null: the kind raises none.
  PresentingSink(const std::string& name, ActivityLocation location,
                 ActivityEnv env, SinkOptions options, const char* port,
                 MediaDataType port_type, const char* each_event,
                 const char* last_event);

  /// Presents the element's payload; false when it carries none.
  virtual bool Show(const StreamElement& element) = 0;

 private:
  /// Reports one presentation to the sync controller. A failed report
  /// means the track was revoked mid-stream (SyncController::RemoveTrack);
  /// the sink detaches from sync — presentation itself continues untouched
  /// — rather than paying a dead lookup and swallowing the error per
  /// element.
  void ReportSyncOrDetach(int64_t ideal_ns, int64_t actual_ns);

  Port* in_;
  SinkOptions options_;
  const char* each_event_;
  const char* last_event_;
  SyncController* sync_ = nullptr;
  std::string sync_track_;
  StreamStats stats_;
};

/// Table 1's "video window": a sink presenting raw frames on a (virtual)
/// display. Carries the §4.3 quality factor ("new activity VideoWindow
/// quality 320x240x8@30"); its input port is typed to exactly that quality.
class VideoWindow : public PresentingSink {
 public:
  static constexpr const char* kPortIn = "video_in";
  static constexpr const char* kEachFrame = "EACH_FRAME";
  static constexpr const char* kLastFrame = "LAST_FRAME";

  static std::shared_ptr<VideoWindow> Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env,
                                             VideoQuality quality,
                                             SinkOptions options = {});

  const VideoQuality& quality() const { return quality_; }

  /// Last frame presented (empty before the first arrival) — lets tests and
  /// examples inspect what "the screen" shows.
  const VideoFrame& last_frame() const { return last_frame_; }

 protected:
  bool Show(const StreamElement& element) override;

 private:
  VideoWindow(const std::string& name, ActivityLocation location,
              ActivityEnv env, VideoQuality quality, SinkOptions options);

  VideoQuality quality_;
  VideoFrame last_frame_;
};

/// Audio sink (virtual DAC) with a named §4.1 audio quality ("quality
/// voice").
class AudioSink : public PresentingSink {
 public:
  static constexpr const char* kPortIn = "audio_in";
  static constexpr const char* kEachBlock = "EACH_BLOCK";
  static constexpr const char* kLastBlock = "LAST_BLOCK";

  static std::shared_ptr<AudioSink> Create(const std::string& name,
                                           ActivityLocation location,
                                           ActivityEnv env,
                                           AudioQuality quality,
                                           SinkOptions options = {});

  AudioQuality quality() const { return quality_; }

 protected:
  bool Show(const StreamElement& element) override {
    return element.audio != nullptr;
  }

 private:
  AudioSink(const std::string& name, ActivityLocation location,
            ActivityEnv env, AudioQuality quality, SinkOptions options);

  AudioQuality quality_;
};

/// Caption sink: records presented captions (subtitle display). Raises no
/// events.
class TextSink : public PresentingSink {
 public:
  static constexpr const char* kPortIn = "text_in";

  static std::shared_ptr<TextSink> Create(const std::string& name,
                                          ActivityLocation location,
                                          ActivityEnv env,
                                          SinkOptions options = {});

  const std::vector<std::string>& presented() const { return presented_; }

 protected:
  bool Show(const StreamElement& element) override;

 private:
  TextSink(const std::string& name, ActivityLocation location,
           ActivityEnv env, SinkOptions options);

  std::vector<std::string> presented_;
};

/// Table 1's "video writer": a sink accumulating raw frames into a
/// RawVideoValue — recording (§4.2's active-state *recording* operation).
/// Optionally persists the result to a media store on end of stream.
class VideoWriter : public MediaActivity {
 public:
  static constexpr const char* kPortIn = "video_in";
  static constexpr const char* kDone = "DONE";

  /// `store`/`blob_name` optional; when set the captured value is written
  /// out (serialized) at end of stream.
  static std::shared_ptr<VideoWriter> Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env,
                                             MediaDataType video_type,
                                             MediaStore* store = nullptr,
                                             std::string blob_name = "");

  void OnElement(Port* in, const StreamElement& element) override;

  /// The captured value (valid after end of stream or Stop()).
  const std::shared_ptr<RawVideoValue>& captured() const { return captured_; }
  int64_t frames_written() const { return frames_written_; }

 private:
  VideoWriter(const std::string& name, ActivityLocation location,
              ActivityEnv env, MediaDataType video_type, MediaStore* store,
              std::string blob_name);

  Port* in_;
  std::shared_ptr<RawVideoValue> captured_;
  MediaStore* store_;
  std::string blob_name_;
  int64_t frames_written_ = 0;
};

/// Audio recorder: accumulates PCM blocks into a RawAudioValue, optionally
/// persisting at end of stream — the audio half of Table 1's "writer" row
/// and the capture path of §4.2's *recording* operation.
class AudioWriter : public MediaActivity {
 public:
  static constexpr const char* kPortIn = "audio_in";
  static constexpr const char* kDone = "DONE";

  static std::shared_ptr<AudioWriter> Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env,
                                             MediaDataType audio_type,
                                             MediaStore* store = nullptr,
                                             std::string blob_name = "");

  void OnElement(Port* in, const StreamElement& element) override;

  const std::shared_ptr<RawAudioValue>& captured() const { return captured_; }
  int64_t blocks_written() const { return blocks_written_; }

 private:
  AudioWriter(const std::string& name, ActivityLocation location,
              ActivityEnv env, MediaDataType audio_type, MediaStore* store,
              std::string blob_name);

  Port* in_;
  std::shared_ptr<RawAudioValue> captured_;
  MediaStore* store_;
  std::string blob_name_;
  int64_t blocks_written_ = 0;
};

}  // namespace avdb

#endif  // AVDB_ACTIVITY_SINKS_H_
