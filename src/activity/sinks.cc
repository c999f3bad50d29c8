#include "activity/sinks.h"

#include "base/logging.h"
#include "storage/value_serializer.h"

namespace avdb {

namespace {

/// Serializes a writer's captured value into `store` as `blob_name` at end
/// of stream; a writer without a store keeps it in memory only.
void Persist(const MediaValue& captured, MediaStore* store,
             const std::string& blob_name, const std::string& writer) {
  if (store == nullptr || blob_name.empty()) return;
  auto blob = value_serializer::Serialize(captured);
  if (!blob.ok()) {
    AVDB_LOG(Error) << writer << ": serialize failed: " << blob.status();
    return;
  }
  auto put = store->Put(blob_name, blob.value());
  if (!put.ok()) {
    AVDB_LOG(Error) << writer << ": persist failed: " << put.status();
  }
}

}  // namespace

// ----------------------------------------------------------- PresentingSink --

PresentingSink::PresentingSink(const std::string& name,
                               ActivityLocation location, ActivityEnv env,
                               SinkOptions options, const char* port,
                               MediaDataType port_type,
                               const char* each_event, const char* last_event)
    : MediaActivity(name, location, env),
      options_(options),
      each_event_(each_event),
      last_event_(last_event) {
  in_ = DeclarePort(port, PortDirection::kIn, std::move(port_type));
  if (each_event_ != nullptr) DeclareEvent(each_event_);
  if (last_event_ != nullptr) DeclareEvent(last_event_);
  stats_.BindTo(env.metrics);
  if (options_.degrade != nullptr) {
    options_.degrade->AttachStreamStats(&stats_);
  }
}

PresentingSink::~PresentingSink() {
  if (options_.degrade != nullptr) {
    options_.degrade->DetachStreamStats(&stats_);
  }
}

Status PresentingSink::ConfigureSync(SyncController* sync,
                                     const std::string& track) {
  sync_ = sync;
  sync_track_ = track;
  return Status::OK();
}

void PresentingSink::OnElement(Port* in, const StreamElement& element) {
  AVDB_DCHECK(in == in_);
  if (element.end_of_stream) {
    if (last_event_ != nullptr) Raise(last_event_, element.index);
    SelfStop();
    return;
  }
  if (!Show(element)) {
    AVDB_LOG(Error) << name() << ": element without payload";
    return;
  }
  // Early elements wait for their slot, late ones show immediately.
  const int64_t now_ns = engine()->now_ns();
  const int64_t lateness_ns = now_ns - element.ideal_time_ns;
  const int64_t presented_ns = std::max(now_ns, element.ideal_time_ns);
  stats_.Record(presented_ns, lateness_ns, element.size_bytes);
  if (options_.degrade != nullptr) {
    options_.degrade->ReportLateness(lateness_ns);
  }
  ReportSyncOrDetach(element.ideal_time_ns, presented_ns);
  if (each_event_ != nullptr) Raise(each_event_, element.index);
}

void PresentingSink::ReportSyncOrDetach(int64_t ideal_ns, int64_t actual_ns) {
  if (sync_ == nullptr || sync_track_.empty()) return;
  const Status reported = sync_->Report(sync_track_, ideal_ns, actual_ns);
  if (!reported.ok()) {
    AVDB_LOG(Warning) << "sink " << name()
                      << " detaching from revoked sync track: " << reported;
    sync_ = nullptr;
  }
}

// -------------------------------------------------------------- VideoWindow --

VideoWindow::VideoWindow(const std::string& name, ActivityLocation location,
                         ActivityEnv env, VideoQuality quality,
                         SinkOptions options)
    : PresentingSink(name, location, env, options, kPortIn,
                     MediaDataType::RawVideo(quality.width(), quality.height(),
                                             quality.depth_bits(),
                                             quality.rate()),
                     kEachFrame, kLastFrame),
      quality_(quality) {}

std::shared_ptr<VideoWindow> VideoWindow::Create(const std::string& name,
                                                 ActivityLocation location,
                                                 ActivityEnv env,
                                                 VideoQuality quality,
                                                 SinkOptions options) {
  return std::shared_ptr<VideoWindow>(
      new VideoWindow(name, location, env, quality, options));
}

bool VideoWindow::Show(const StreamElement& element) {
  if (element.frame == nullptr) return false;
  last_frame_ = *element.frame;
  return true;
}

// ---------------------------------------------------------------- AudioSink --

AudioSink::AudioSink(const std::string& name, ActivityLocation location,
                     ActivityEnv env, AudioQuality quality,
                     SinkOptions options)
    : PresentingSink(name, location, env, options, kPortIn,
                     MediaDataType::RawAudio(AudioQualityChannels(quality),
                                             AudioQualitySampleRate(quality)),
                     kEachBlock, kLastBlock),
      quality_(quality) {}

std::shared_ptr<AudioSink> AudioSink::Create(const std::string& name,
                                             ActivityLocation location,
                                             ActivityEnv env,
                                             AudioQuality quality,
                                             SinkOptions options) {
  return std::shared_ptr<AudioSink>(
      new AudioSink(name, location, env, quality, options));
}

// ----------------------------------------------------------------- TextSink --

TextSink::TextSink(const std::string& name, ActivityLocation location,
                   ActivityEnv env, SinkOptions options)
    : PresentingSink(name, location, env, options, kPortIn,
                     MediaDataType::Text(Rational(30)), nullptr, nullptr) {}

std::shared_ptr<TextSink> TextSink::Create(const std::string& name,
                                           ActivityLocation location,
                                           ActivityEnv env,
                                           SinkOptions options) {
  return std::shared_ptr<TextSink>(
      new TextSink(name, location, env, options));
}

bool TextSink::Show(const StreamElement& element) {
  if (element.text == nullptr) return false;
  presented_.push_back(*element.text);
  return true;
}

// -------------------------------------------------------------- VideoWriter --

VideoWriter::VideoWriter(const std::string& name, ActivityLocation location,
                         ActivityEnv env, MediaDataType video_type,
                         MediaStore* store, std::string blob_name)
    : MediaActivity(name, location, env),
      store_(store),
      blob_name_(std::move(blob_name)) {
  in_ = DeclarePort(kPortIn, PortDirection::kIn, video_type);
  DeclareEvent(kDone);
  auto captured = RawVideoValue::Create(video_type);
  AVDB_CHECK(captured.ok()) << "VideoWriter needs a raw video type: "
                            << captured.status();
  captured_ = std::move(captured).value();
}

std::shared_ptr<VideoWriter> VideoWriter::Create(const std::string& name,
                                                 ActivityLocation location,
                                                 ActivityEnv env,
                                                 MediaDataType video_type,
                                                 MediaStore* store,
                                                 std::string blob_name) {
  return std::shared_ptr<VideoWriter>(new VideoWriter(
      name, location, env, std::move(video_type), store,
      std::move(blob_name)));
}

void VideoWriter::OnElement(Port* in, const StreamElement& element) {
  AVDB_DCHECK(in == in_);
  if (element.end_of_stream) {
    Persist(*captured_, store_, blob_name_, name());
    Raise(kDone, frames_written_);
    SelfStop();
    return;
  }
  if (element.frame == nullptr) {
    AVDB_LOG(Error) << name() << ": element without frame payload";
    return;
  }
  const Status status = captured_->AppendFrame(*element.frame);
  if (!status.ok()) {
    AVDB_LOG(Error) << name() << ": append failed: " << status;
    return;
  }
  ++frames_written_;
}

// -------------------------------------------------------------- AudioWriter --

AudioWriter::AudioWriter(const std::string& name, ActivityLocation location,
                         ActivityEnv env, MediaDataType audio_type,
                         MediaStore* store, std::string blob_name)
    : MediaActivity(name, location, env),
      store_(store),
      blob_name_(std::move(blob_name)) {
  in_ = DeclarePort(kPortIn, PortDirection::kIn, audio_type);
  DeclareEvent(kDone);
  auto captured = RawAudioValue::Create(audio_type);
  AVDB_CHECK(captured.ok()) << "AudioWriter needs a raw audio type: "
                            << captured.status();
  captured_ = std::move(captured).value();
}

std::shared_ptr<AudioWriter> AudioWriter::Create(const std::string& name,
                                                 ActivityLocation location,
                                                 ActivityEnv env,
                                                 MediaDataType audio_type,
                                                 MediaStore* store,
                                                 std::string blob_name) {
  return std::shared_ptr<AudioWriter>(new AudioWriter(
      name, location, env, std::move(audio_type), store,
      std::move(blob_name)));
}

void AudioWriter::OnElement(Port* in, const StreamElement& element) {
  AVDB_DCHECK(in == in_);
  if (element.end_of_stream) {
    Persist(*captured_, store_, blob_name_, name());
    Raise(kDone, blocks_written_);
    SelfStop();
    return;
  }
  if (element.audio == nullptr) {
    AVDB_LOG(Error) << name() << ": element without audio payload";
    return;
  }
  const Status status = captured_->Append(*element.audio);
  if (!status.ok()) {
    AVDB_LOG(Error) << name() << ": append failed: " << status;
    return;
  }
  ++blocks_written_;
}

}  // namespace avdb
