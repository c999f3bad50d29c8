#include "activity/sources.h"

#include "base/logging.h"

namespace avdb {

namespace {

// Tolerated presentation lateness behind a routed fetch's deadline budget.
// An element this late is still worth producing; beyond it the fetch is
// doomed work.
constexpr int64_t kDeadlineSlackNs = 100 * 1000 * 1000;  // 100 ms

int64_t RateToPeriodNs(Rational rate) {
  AVDB_CHECK(rate > Rational(0)) << "element rate must be positive";
  return (Rational(1000000000) / rate).Rounded();
}

}  // namespace

RangeFetcher FetchFrom(MediaStore* store) {
  return [store](const std::string& blob, int64_t offset, int64_t length,
                 int64_t /*deadline_budget_ns*/) {
    return store->ReadRange(blob, offset, length);
  };
}

// ----------------------------------------------------------- StreamSource --

StreamSource::StreamSource(const std::string& name, ActivityLocation location,
                           ActivityEnv env, SourceOptions options,
                           const char* port, MediaDataType port_type,
                           Events events)
    : MediaActivity(name, location, env),
      options_(std::move(options)),
      decode_unit_(name + ".decoder"),
      events_(events) {
  out_ = DeclarePort(port, PortDirection::kOut, std::move(port_type));
  DeclareEvent(events_.each);
  DeclareEvent(events_.last);
  DeclareEvent(kFaultRetry);
  DeclareEvent(events_.dropped);
  DeclareEvent(kStreamAborted);
}

Status StreamSource::ConfigureSync(SyncController* sync,
                                   const std::string& track) {
  sync_ = sync;
  sync_track_ = track;
  return Status::OK();
}

Status StreamSource::OnStart() {
  if (!bound()) {
    return Status::FailedPrecondition("start before bind on " + name());
  }
  if (ElementCount() == 0) {
    return Status::FailedPrecondition("bound value of " + name() +
                                      " is empty");
  }
  // Stream epoch: element `next_index_` presents after preroll+offset.
  const int64_t stream_start_ns =
      engine()->now_ns() + kPrerollNs +
      VirtualClock::ToNs(options_.start_offset) - next_index_ * PeriodNs();
  ScheduleTick(next_index_, stream_start_ns);
  return Status::OK();
}

Status StreamSource::OnStop() {
  ReleaseStream();
  return Status::OK();
}

void StreamSource::EndStream() {
  ReleaseStream();
  SelfStop();
}

void StreamSource::ScheduleTick(int64_t index, int64_t stream_start_ns) {
  const int64_t gen = generation();
  ScheduleOwned(IdealNs(index, stream_start_ns) - kPrerollNs,
                [this, index, stream_start_ns, gen] {
                  Tick(index, stream_start_ns, gen);
                });
}

int64_t StreamSource::Resync(int64_t index) {
  if (sync_ == nullptr || sync_track_.empty()) return index;
  auto skip = sync_->RecommendSkip(sync_track_, PeriodNs());
  return skip.ok() && skip.value() > 0 ? index + skip.value() : index;
}

void StreamSource::Tick(int64_t index, int64_t stream_start_ns, int64_t gen) {
  if (state() != State::kRunning || gen != generation()) return;
  index = Resync(index);
  if (index >= ElementCount()) {
    Emit(out_, StreamElement::EndOfStream(index,
                                          IdealNs(index, stream_start_ns)));
    Raise(events_.last, ElementCount() - 1);
    EndStream();
    return;
  }
  Produce(index, stream_start_ns);
}

std::optional<int64_t> StreamSource::Fetch(int64_t index,
                                           int64_t stream_start_ns,
                                           int64_t offset, int64_t length) {
  const int64_t now_ns = engine()->now_ns();
  if (!options_.fetcher) return now_ns;
  const int64_t budget_ns =
      IdealNs(index, stream_start_ns) + kDeadlineSlackNs - now_ns;
  auto read = options_.fetcher(options_.blob_name, offset, length, budget_ns);
  if (!read.ok()) {
    // The store's retry policy already absorbed what it could; this failure
    // is terminal for the *element*.
    Fault(index, stream_start_ns, "fetch failed: " + read.status().message());
    return std::nullopt;
  }
  if (read.value().retries > 0) {
    Raise(kFaultRetry, index,
          std::to_string(read.value().retries) + " retries absorbed");
  }
  if (options_.degrade != nullptr) {
    options_.degrade->ReportFaultRecovered();
  }
  // Pay modeled device time, serialized on the device arm when queued.
  const int64_t service_ns = VirtualClock::ToNs(read.value().duration);
  return options_.device_queue != nullptr
             ? options_.device_queue->Submit(now_ns, service_ns)
             : now_ns + service_ns;
}

void StreamSource::Deliver(StreamElement element, int64_t ready_ns,
                           int64_t stream_start_ns) {
  next_index_ = element.index + 1;
  const int64_t gen = generation();
  ScheduleOwned(ready_ns, [this, element = std::move(element), gen] {
    if (state() != State::kRunning || gen != generation()) return;
    Emit(out_, element);
    Raise(events_.each, element.index);
  });
  ScheduleTick(next_index_, stream_start_ns);
}

void StreamSource::Fault(int64_t index, int64_t stream_start_ns,
                         const std::string& why) {
  if (options_.degrade == nullptr) {
    AVDB_LOG(Error) << name() << ": " << why;
    EndStream();
    return;
  }
  options_.degrade->ReportFault(engine()->now_ns());
  ShedAfterFault(index, stream_start_ns, why);
}

void StreamSource::ShedAfterFault(int64_t index, int64_t stream_start_ns,
                                  const std::string& why) {
  DropElement(index, stream_start_ns, why);
}

void StreamSource::DropElement(int64_t index, int64_t stream_start_ns,
                               const std::string& why) {
  options_.degrade->AcknowledgeAction(DegradeAction::kDropFrame,
                                      engine()->now_ns());
  Raise(events_.dropped, index, why);
  next_index_ = index + 1;
  ScheduleTick(next_index_, stream_start_ns);
}

void StreamSource::Abort(int64_t index, int64_t stream_start_ns) {
  options_.degrade->AcknowledgeAction(DegradeAction::kAbort,
                                      engine()->now_ns());
  Raise(kStreamAborted, index,
        std::to_string(options_.degrade->ConsecutiveFaults()) +
            " consecutive faults");
  Emit(out_,
       StreamElement::EndOfStream(index, IdealNs(index, stream_start_ns)));
  EndStream();
}

// ------------------------------------------------------------ VideoSource --

VideoSource::VideoSource(const std::string& name, ActivityLocation location,
                         ActivityEnv env, SourceOptions options,
                         bool emit_encoded)
    : StreamSource(name, location, env, std::move(options), kPortOut,
                   MediaDataType::RawVideo(0, 0, 8, Rational(1)),
                   {kEachFrame, kLastFrame, kFrameDropped}),
      emit_encoded_(emit_encoded) {
  DeclareEvent(kQualityChanged);
  DeclareEvent(kStreamPaused);
}

std::shared_ptr<VideoSource> VideoSource::Create(const std::string& name,
                                                 ActivityLocation location,
                                                 ActivityEnv env,
                                                 SourceOptions options,
                                                 bool emit_encoded) {
  return std::shared_ptr<VideoSource>(
      new VideoSource(name, location, env, std::move(options), emit_encoded));
}

Status VideoSource::DoBind(MediaValuePtr value, const std::string& port_name) {
  if (port_name != kPortOut) {
    return Status::NotFound("port " + name() + "." + port_name);
  }
  if (state() == State::kRunning) {
    return Status::FailedPrecondition("cannot bind while running");
  }
  auto video = std::dynamic_pointer_cast<VideoValue>(value);
  if (video == nullptr) {
    return Status::InvalidArgument("VideoSource requires a VideoValue");
  }
  value_ = video;
  layout_value_ = video;
  encoded_ = std::dynamic_pointer_cast<EncodedVideoValue>(video);
  if (emit_encoded_ && encoded_ == nullptr) {
    return Status::InvalidArgument(
        "encoded-chunk output requires an encoded value");
  }
  frame_offsets_.assign(static_cast<size_t>(video->FrameCount()) + 1, 0);
  for (int64_t f = 0; f < video->FrameCount(); ++f) {
    frame_offsets_[static_cast<size_t>(f) + 1] =
        frame_offsets_[static_cast<size_t>(f)] + video->StoredFrameBytes(f);
  }
  // Quality fallback needs a layer-scalable representation decoded
  // internally; chunk passthrough must forward the stored bytes verbatim.
  scalable_value_ = nullptr;
  nominal_layers_ = 0;
  active_layers_ = 0;
  if (!emit_encoded_) {
    if (auto view = std::dynamic_pointer_cast<ScalableVideoView>(video)) {
      scalable_value_ = view->full_value();
      nominal_layers_ = active_layers_ = view->layers();
    } else if (encoded_ != nullptr &&
               encoded_->encoded().family == EncodingFamily::kScalable) {
      scalable_value_ = encoded_;
      nominal_layers_ = active_layers_ =
          encoded_->encoded().params.layer_count;
    }
  }
  // §4.3: configure the port type from the bound representation.
  if (emit_encoded_) {
    out_->set_data_type(encoded_->type());
  } else {
    out_->set_data_type(MediaDataType::RawVideo(
        video->width(), video->height(), video->depth_bits(),
        video->frame_rate()));
  }
  next_index_ = 0;
  return Status::OK();
}

Status VideoSource::DoCue(WorldTime t) {
  if (state() == State::kRunning) {
    return Status::FailedPrecondition("cannot cue while running");
  }
  if (value_ == nullptr) {
    return Status::FailedPrecondition("cue before bind on " + name());
  }
  const int64_t index = (t.seconds() * value_->frame_rate()).Floor();
  if (index < 0 || index >= value_->FrameCount()) {
    return Status::InvalidArgument("cue time outside bound value");
  }
  next_index_ = index;
  return Status::OK();
}

int64_t VideoSource::PeriodNs() const {
  return RateToPeriodNs(value_->frame_rate());
}

int64_t VideoSource::FrameBytes(int64_t i) const {
  // Representation-aware: encoded values report their chunk sizes, layer
  // views their restricted subset, raw values their frame size.
  return value_->StoredFrameBytes(i);
}

Result<VideoFrame> VideoSource::DecodeFrame(int64_t index) {
  if (encoded_ == nullptr || value_ != layout_value_) {
    return value_->Frame(index);
  }
  if (reader_ == nullptr) {
    AVDB_ASSIGN_OR_RETURN(reader_, encoded_->NewReader());
  }
  return reader_->DecodeFrame(index);
}

bool VideoSource::ApplyQualityStep(int delta) {
  if (scalable_value_ == nullptr || nominal_layers_ == 0) return false;
  const int target = active_layers_ + delta;
  if (target < 1 || target > nominal_layers_) return false;
  if (target == nominal_layers_) {
    // Fully recovered: the bound value is exactly the nominal view.
    value_ = layout_value_;
    active_layers_ = target;
    return true;
  }
  auto view = ScalableVideoView::Create(scalable_value_, target);
  if (!view.ok()) return false;
  value_ = std::move(view).value();
  active_layers_ = target;
  return true;
}

bool VideoSource::Degrade(int64_t index, int64_t stream_start_ns) {
  const int64_t now_ns = engine()->now_ns();
  const DegradeAction action = options_.degrade->Recommend(now_ns);
  switch (action) {
    case DegradeAction::kAbort:
      Abort(index, stream_start_ns);
      return false;
    case DegradeAction::kPause: {
      // Re-anchor the stream epoch so this frame presents one preroll from
      // now: downstream lateness restarts from zero instead of compounding
      // frame after frame.
      const int64_t new_start = now_ns + kPrerollNs - index * PeriodNs();
      options_.degrade->AcknowledgeAction(action, now_ns);
      Raise(kStreamPaused, index,
            "epoch shifted " +
                std::to_string((new_start - stream_start_ns) / 1000000) +
                " ms");
      ScheduleTick(index, new_start);
      return false;
    }
    case DegradeAction::kLowerQuality:
      if (!ApplyQualityStep(-1)) {
        // Nothing left to shed but the frame itself.
        DropElement(index, stream_start_ns, "no lower quality available");
        return false;
      }
      options_.degrade->AcknowledgeAction(action, now_ns);
      Raise(kQualityChanged, index,
            "layers " + std::to_string(active_layers_ + 1) + "->" +
                std::to_string(active_layers_));
      break;
    case DegradeAction::kRaiseQuality:
      if (ApplyQualityStep(+1)) {
        options_.degrade->AcknowledgeAction(action, now_ns);
        Raise(kQualityChanged, index,
              "layers " + std::to_string(active_layers_ - 1) + "->" +
                  std::to_string(active_layers_));
      }
      break;
    case DegradeAction::kDropFrame:
      DropElement(index, stream_start_ns, "deadline pressure");
      return false;
    case DegradeAction::kNone:
      break;
  }
  // Proactive shedding: a fetch that would queue behind this much device
  // backlog cannot present on time, so skip it without paying the cost.
  if (options_.device_queue != nullptr) {
    const int64_t backlog = options_.device_queue->BacklogNs(now_ns);
    if (backlog > DegradationController::kPauseThresholdNs) {
      DropElement(index, stream_start_ns,
                  "device backlog " + std::to_string(backlog / 1000000) +
                      " ms");
      return false;
    }
  }
  return true;
}

void VideoSource::Produce(int64_t index, int64_t stream_start_ns) {
  // Graceful-degradation ladder: act on deadline pressure *before* paying
  // any fetch cost for this frame.
  if (options_.degrade != nullptr && !Degrade(index, stream_start_ns)) {
    return;
  }
  const std::optional<int64_t> fetched =
      Fetch(index, stream_start_ns, FrameOffset(index), FrameBytes(index));
  if (!fetched.has_value()) return;
  int64_t ready_ns = *fetched;

  StreamElement element;
  element.index = index;
  element.ideal_time_ns = IdealNs(index, stream_start_ns);
  element.size_bytes = FrameBytes(index);
  if (emit_encoded_) {
    const auto& ef = encoded_->encoded().frames[static_cast<size_t>(index)];
    element.encoded = std::make_shared<Buffer>(ef.data);
    element.encoded_is_intra = ef.is_intra;
  } else {
    auto frame = DecodeFrame(index);
    if (!frame.ok()) {
      Fault(index, stream_start_ns,
            "decode failed: " + frame.status().message());
      return;
    }
    if (value_->type().IsCompressed()) {
      // Internal decode of a compressed representation costs time on this
      // source's decode unit.
      const int64_t pixels =
          static_cast<int64_t>(value_->width()) * value_->height();
      ready_ns = decode_unit_.Submit(ready_ns,
                                     options_.costs.VideoDecodeNs(pixels));
    }
    element.frame =
        std::make_shared<const VideoFrame>(std::move(frame).value());
    element.size_bytes = static_cast<int64_t>(element.frame->SizeBytes());
  }
  Deliver(std::move(element), ready_ns, stream_start_ns);
}

// ------------------------------------------------------------ AudioSource --

AudioSource::AudioSource(const std::string& name, ActivityLocation location,
                         ActivityEnv env, SourceOptions options)
    : StreamSource(name, location, env, std::move(options), kPortOut,
                   MediaDataType::RawAudio(1, Rational(8000)),
                   {kEachBlock, kLastBlock, kBlockDropped}) {}

std::shared_ptr<AudioSource> AudioSource::Create(const std::string& name,
                                                 ActivityLocation location,
                                                 ActivityEnv env,
                                                 SourceOptions options) {
  return std::shared_ptr<AudioSource>(
      new AudioSource(name, location, env, std::move(options)));
}

Status AudioSource::DoBind(MediaValuePtr value, const std::string& port_name) {
  if (port_name != kPortOut) {
    return Status::NotFound("port " + name() + "." + port_name);
  }
  if (state() == State::kRunning) {
    return Status::FailedPrecondition("cannot bind while running");
  }
  auto audio = std::dynamic_pointer_cast<AudioValue>(value);
  if (audio == nullptr) {
    return Status::InvalidArgument("AudioSource requires an AudioValue");
  }
  if (audio->sample_rate().num() <= 0) {
    return Status::InvalidArgument("AudioSource requires a positive rate");
  }
  value_ = audio;
  // Approximate layout: fixed-rate bytes at the value's stored rate.
  stored_bytes_per_block_ =
      audio->StoredBytes() / std::max<int64_t>(1, ElementCount());
  period_ns_ = (Rational(kBlockFrames) / audio->sample_rate() *
                Rational(1000000000))
                   .Rounded();
  out_->set_data_type(
      MediaDataType::RawAudio(audio->channels(), audio->sample_rate()));
  next_index_ = 0;
  return Status::OK();
}

Status AudioSource::DoCue(WorldTime t) {
  if (state() == State::kRunning) {
    return Status::FailedPrecondition("cannot cue while running");
  }
  if (value_ == nullptr) {
    return Status::FailedPrecondition("cue before bind on " + name());
  }
  const int64_t sample = (t.seconds() * value_->sample_rate()).Floor();
  if (sample < 0 || sample >= value_->SampleCount()) {
    return Status::InvalidArgument("cue time outside bound value");
  }
  next_index_ = sample / kBlockFrames;
  return Status::OK();
}

int64_t AudioSource::ElementCount() const {
  return (value_->SampleCount() + kBlockFrames - 1) / kBlockFrames;
}

void AudioSource::Produce(int64_t index, int64_t stream_start_ns) {
  // The block is decoded before its bytes are fetched.
  const int64_t first = index * kBlockFrames;
  const int64_t count =
      std::min<int64_t>(kBlockFrames, value_->SampleCount() - first);
  auto block = value_->Samples(first, count);
  if (!block.ok()) {
    AVDB_LOG(Error) << name() << ": sample read failed: " << block.status();
    EndStream();
    return;
  }
  const std::optional<int64_t> fetched =
      Fetch(index, stream_start_ns, index * stored_bytes_per_block_,
            stored_bytes_per_block_);
  if (!fetched.has_value()) return;
  int64_t ready_ns = *fetched;
  if (value_->type().IsCompressed()) {
    ready_ns = decode_unit_.Submit(
        ready_ns, options_.costs.AudioDecodeNs(count * value_->channels()));
  }

  StreamElement element;
  element.index = index;
  element.ideal_time_ns = IdealNs(index, stream_start_ns);
  element.size_bytes = static_cast<int64_t>(block.value().SizeBytes());
  element.audio =
      std::make_shared<const AudioBlock>(std::move(block).value());
  Deliver(std::move(element), ready_ns, stream_start_ns);
}

void AudioSource::ShedAfterFault(int64_t index, int64_t stream_start_ns,
                                 const std::string& why) {
  // No ladder runs before the fetch, so the fault count decides here: one
  // block of silence beats a stalled stream, until the controller gives up.
  if (options_.degrade->Recommend(engine()->now_ns()) ==
      DegradeAction::kAbort) {
    Abort(index, stream_start_ns);
    return;
  }
  DropElement(index, stream_start_ns, why);
}

// ------------------------------------------------------------- TextSource --

TextSource::TextSource(const std::string& name, ActivityLocation location,
                       ActivityEnv env, SourceOptions options)
    : MediaActivity(name, location, env), options_(std::move(options)) {
  out_ = DeclarePort(kPortOut, PortDirection::kOut,
                     MediaDataType::Text(Rational(30)));
}

std::shared_ptr<TextSource> TextSource::Create(const std::string& name,
                                               ActivityLocation location,
                                               ActivityEnv env,
                                               SourceOptions options) {
  return std::shared_ptr<TextSource>(
      new TextSource(name, location, env, std::move(options)));
}

Status TextSource::DoBind(MediaValuePtr value, const std::string& port_name) {
  if (port_name != kPortOut) {
    return Status::NotFound("port " + name() + "." + port_name);
  }
  auto text = std::dynamic_pointer_cast<TextStreamValue>(value);
  if (text == nullptr) {
    return Status::InvalidArgument("TextSource requires a TextStreamValue");
  }
  value_ = text;
  out_->set_data_type(text->type());
  next_span_ = 0;
  return Status::OK();
}

Status TextSource::DoCue(WorldTime t) {
  if (value_ == nullptr) {
    return Status::FailedPrecondition("cue before bind on " + name());
  }
  const int64_t element = (t.seconds() * value_->ElementRate()).Floor();
  next_span_ = 0;
  while (next_span_ < value_->spans().size() &&
         value_->spans()[next_span_].first_element +
                 value_->spans()[next_span_].element_count <=
             element) {
    ++next_span_;
  }
  return Status::OK();
}

Status TextSource::OnStart() {
  if (value_ == nullptr) {
    return Status::FailedPrecondition("start before bind on " + name());
  }
  const int64_t stream_start_ns = engine()->now_ns() +
                                  StreamSource::kPrerollNs +
                                  VirtualClock::ToNs(options_.start_offset);
  const int64_t period_ns = RateToPeriodNs(value_->ElementRate());
  const int64_t gen = generation();
  // Schedule every remaining span up front (captions are sparse).
  for (size_t s = next_span_; s < value_->spans().size(); ++s) {
    const TextSpan& span = value_->spans()[s];
    const int64_t ideal = stream_start_ns + span.first_element * period_ns;
    StreamElement element;
    element.index = static_cast<int64_t>(s);
    element.ideal_time_ns = ideal;
    element.text = std::make_shared<const std::string>(span.text);
    element.size_bytes = static_cast<int64_t>(span.text.size());
    ScheduleOwned(ideal - StreamSource::kPrerollNs,
                         [this, element = std::move(element), gen] {
                           if (state() != State::kRunning ||
                               gen != generation()) {
                             return;
                           }
                           Emit(out_, element);
                         });
  }
  // End of stream after the last span expires.
  const int64_t end_ideal =
      stream_start_ns + value_->ElementCount() * period_ns;
  ScheduleOwned(end_ideal, [this, gen, end_ideal] {
    if (state() != State::kRunning || gen != generation()) return;
    Emit(out_, StreamElement::EndOfStream(
                   static_cast<int64_t>(value_->spans().size()), end_ideal));
    SelfStop();
  });
  return Status::OK();
}

// ------------------------------------------------------------- LiveSource --

LiveSource::LiveSource(const std::string& name, ActivityLocation location,
                       ActivityEnv env, MediaDataType type, const char* port,
                       const char* each_event, int64_t element_limit)
    : MediaActivity(name, location, env),
      type_(std::move(type)),
      each_event_(each_event),
      element_limit_(element_limit) {
  out_ = DeclarePort(port, PortDirection::kOut, type_);
  DeclareEvent(each_event_);
}

Status LiveSource::OnStart() {
  auto period_ns = Prepare();
  if (!period_ns.ok()) return period_ns.status();
  period_ns_ = period_ns.value();
  const int64_t stream_start_ns = engine()->now_ns();
  const int64_t gen = generation();
  ScheduleOwned(stream_start_ns, [this, stream_start_ns, gen] {
    Tick(0, stream_start_ns, gen);
  });
  return Status::OK();
}

void LiveSource::Tick(int64_t index, int64_t stream_start_ns, int64_t gen) {
  if (state() != State::kRunning || gen != generation()) return;
  const int64_t ideal = stream_start_ns + index * period_ns_;
  if (element_limit_ >= 0 && index >= element_limit_) {
    Emit(out_, StreamElement::EndOfStream(index, ideal));
    SelfStop();
    return;
  }
  StreamElement element;
  element.index = index;
  element.ideal_time_ns = ideal;
  const Status made = Generate(index, &element);
  if (!made.ok()) {
    AVDB_LOG(Error) << name() << ": capture failed: " << made;
    SelfStop();
    return;
  }
  Emit(out_, std::move(element));
  Raise(each_event_, index);
  ScheduleOwned(ideal + period_ns_,
                [this, next = index + 1, stream_start_ns, gen] {
                  Tick(next, stream_start_ns, gen);
                });
}

// --------------------------------------------------------- VideoDigitizer --

VideoDigitizer::VideoDigitizer(const std::string& name,
                               ActivityLocation location, ActivityEnv env,
                               MediaDataType type,
                               synthetic::VideoPattern pattern,
                               int64_t frame_limit, uint64_t seed)
    : LiveSource(name, location, env, std::move(type), kPortOut, kEachFrame,
                 frame_limit),
      pattern_(pattern),
      seed_(seed) {}

std::shared_ptr<VideoDigitizer> VideoDigitizer::Create(
    const std::string& name, ActivityLocation location, ActivityEnv env,
    MediaDataType type, synthetic::VideoPattern pattern, int64_t frame_limit,
    uint64_t seed) {
  return std::shared_ptr<VideoDigitizer>(new VideoDigitizer(
      name, location, env, std::move(type), pattern, frame_limit, seed));
}

Result<int64_t> VideoDigitizer::Prepare() {
  if (type_.kind() != MediaKind::kVideo || type_.IsCompressed()) {
    return Status::FailedPrecondition("digitizer needs a raw video type");
  }
  return RateToPeriodNs(type_.element_rate());
}

Status VideoDigitizer::Generate(int64_t index, StreamElement* element) {
  element->frame = std::make_shared<const VideoFrame>(
      synthetic::GeneratePatternFrame(type_.width(), type_.height(),
                                      type_.depth_bits(), index, pattern_,
                                      seed_));
  element->size_bytes = static_cast<int64_t>(element->frame->SizeBytes());
  return Status::OK();
}

// ----------------------------------------------------------- AudioCapture --

AudioCapture::AudioCapture(const std::string& name, ActivityLocation location,
                           ActivityEnv env, MediaDataType type,
                           synthetic::AudioPattern pattern,
                           int64_t sample_limit, uint64_t seed)
    : LiveSource(name, location, env, std::move(type), kPortOut, kEachBlock,
                 sample_limit < 0
                     ? -1
                     : (sample_limit + kBlockFrames - 1) / kBlockFrames),
      pattern_(pattern),
      sample_limit_(sample_limit),
      seed_(seed) {}

std::shared_ptr<AudioCapture> AudioCapture::Create(
    const std::string& name, ActivityLocation location, ActivityEnv env,
    MediaDataType type, synthetic::AudioPattern pattern, int64_t sample_limit,
    uint64_t seed) {
  return std::shared_ptr<AudioCapture>(new AudioCapture(
      name, location, env, std::move(type), pattern, sample_limit, seed));
}

Result<int64_t> AudioCapture::Prepare() {
  if (type_.kind() != MediaKind::kAudio || type_.IsCompressed()) {
    return Status::FailedPrecondition("capture needs a raw audio type");
  }
  // Pre-generate the signal for the bounded case; unbounded capture
  // extends lazily per block.
  if (sample_limit_ >= 0) {
    auto generated =
        synthetic::GenerateAudio(type_, sample_limit_, pattern_, seed_);
    if (!generated.ok()) return generated.status();
    generated_ = std::move(generated).value();
  }
  return (Rational(kBlockFrames) / type_.element_rate() *
          Rational(1000000000))
      .Rounded();
}

Status AudioCapture::Generate(int64_t index, StreamElement* element) {
  const int64_t first = index * kBlockFrames;
  int64_t count = kBlockFrames;
  if (sample_limit_ >= 0) {
    count = std::min<int64_t>(count, sample_limit_ - first);
  }
  std::shared_ptr<RawAudioValue> signal = generated_;
  int64_t from = first;
  if (signal == nullptr) {
    // Unbounded capture: generate this block standalone (deterministic by
    // block index).
    auto value = synthetic::GenerateAudio(
        type_, count, pattern_,
        seed_ * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index));
    if (!value.ok()) return value.status();
    signal = std::move(value).value();
    from = 0;
  }
  auto block = signal->Samples(from, count);
  if (!block.ok()) return block.status();
  element->audio = std::make_shared<const AudioBlock>(std::move(block).value());
  element->size_bytes = static_cast<int64_t>(element->audio->SizeBytes());
  return Status::OK();
}

}  // namespace avdb
