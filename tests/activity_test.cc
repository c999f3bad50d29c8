#include <gtest/gtest.h>

#include <algorithm>

#include "activity/composite.h"
#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "activity/transformers.h"
#include "codec/registry.h"
#include "media/synthetic.h"
#include "storage/value_serializer.h"

namespace avdb {
namespace {

using synthetic::GenerateAudio;
using synthetic::GenerateSubtitles;
using synthetic::GenerateVideo;
using synthetic::VideoPattern;

MediaDataType SmallVideoType() {
  return MediaDataType::RawVideo(32, 24, 8, Rational(10));
}

VideoQuality MatchingQuality(const MediaDataType& t) {
  return VideoQuality(t.width(), t.height(), t.depth_bits(),
                      t.element_rate());
}

std::shared_ptr<RawVideoValue> SmallVideo(int frames = 10) {
  return GenerateVideo(SmallVideoType(), frames, VideoPattern::kMovingBox)
      .value();
}

// ------------------------------------------------------------------- Ports --

TEST(MediaActivityTest, KindFollowsPorts) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  EXPECT_EQ(source->Kind(), ActivityKind::kSource);
  auto window = VideoWindow::Create("win", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));
  EXPECT_EQ(window->Kind(), ActivityKind::kSink);
  auto mixer = VideoMixer::Create("mix", ActivityLocation::kDatabase, env,
                                  SmallVideoType());
  EXPECT_EQ(mixer->Kind(), ActivityKind::kTransformer);
}

TEST(MediaActivityTest, CatchRequiresDeclaredEvent) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  EXPECT_TRUE(source->Catch(VideoSource::kEachFrame, [](auto&) {}).ok());
  EXPECT_EQ(source->Catch("NO_SUCH_EVENT", [](auto&) {}).code(),
            StatusCode::kNotFound);
}

TEST(MediaActivityTest, BindValidation) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  auto audio = GenerateAudio(MediaDataType::VoiceAudio(), 100,
                             synthetic::AudioPattern::kTone)
                   .value();
  EXPECT_EQ(source->Bind(audio, VideoSource::kPortOut).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(source->Bind(SmallVideo(), "bogus_port").code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(source->Bind(SmallVideo(), VideoSource::kPortOut).ok());
}

// ------------------------------------------------------------------- Graph --

TEST(ActivityGraphTest, ConnectEnforcesTypeRule) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(SmallVideo(), VideoSource::kPortOut).ok());
  // A window with a mismatched quality factor -> mismatched port type.
  auto wrong = VideoWindow::Create(
      "wrong", ActivityLocation::kClient, env,
      VideoQuality(64, 64, 8, Rational(10)));
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(wrong).ok());
  EXPECT_EQ(graph.Connect(source.get(), VideoSource::kPortOut, wrong.get(),
                          VideoWindow::kPortIn)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Matching quality connects.
  auto right = VideoWindow::Create("right", ActivityLocation::kClient, env,
                                   MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(graph.Add(right).ok());
  EXPECT_TRUE(graph.Connect(source.get(), VideoSource::kPortOut, right.get(),
                            VideoWindow::kPortIn)
                  .ok());
  // Ports connect at most once.
  auto second = VideoWindow::Create("second", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(graph.Add(second).ok());
  EXPECT_EQ(graph.Connect(source.get(), VideoSource::kPortOut, second.get(),
                          VideoWindow::kPortIn)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ActivityGraphTest, DisconnectFreesBothPortsForReconnect) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(SmallVideo(), VideoSource::kPortOut).ok());
  auto window = VideoWindow::Create("win", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(window).ok());
  auto first = graph.Connect(source.get(), VideoSource::kPortOut,
                             window.get(), VideoWindow::kPortIn);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(graph.Disconnect(first.value()).ok());

  // Both ends must be free again: rewiring the same pair succeeds and the
  // rebuilt graph validates and plays.
  auto second = graph.Connect(source.get(), VideoSource::kPortOut,
                              window.get(), VideoWindow::kPortIn);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(graph.Validate().ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(window->stats().elements_presented, 10);
}

TEST(ActivityGraphTest, DisconnectRejectsUnknownAndNull) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  EXPECT_EQ(graph.Disconnect(nullptr).code(), StatusCode::kNotFound);

  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(SmallVideo(), VideoSource::kPortOut).ok());
  auto window = VideoWindow::Create("win", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(window).ok());
  auto conn = graph.Connect(source.get(), VideoSource::kPortOut,
                            window.get(), VideoWindow::kPortIn);
  ASSERT_TRUE(conn.ok());
  Connection* dangling = conn.value();
  ASSERT_TRUE(graph.Disconnect(dangling).ok());
  // A second disconnect of the same (now destroyed) connection is NotFound,
  // not a crash or silent success.
  EXPECT_EQ(graph.Disconnect(dangling).code(), StatusCode::kNotFound);
}

TEST(ActivityGraphTest, ValidateFindsDanglingInputs) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto window = VideoWindow::Create("win", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(graph.Add(window).ok());
  EXPECT_EQ(graph.Validate().code(), StatusCode::kFailedPrecondition);
}

// ----------------------------------------------------- End-to-end playback --

struct Playback {
  EventEngine engine;
  ActivityGraph graph{ActivityEnv{&engine, nullptr}};
  std::shared_ptr<VideoSource> source;
  std::shared_ptr<VideoWindow> window;
};

std::unique_ptr<Playback> MakePlayback(VideoValuePtr value,
                                       ChannelPtr channel = nullptr,
                                       SourceOptions options = {}) {
  auto p = std::make_unique<Playback>();
  ActivityEnv env{&p->engine, nullptr};
  p->source = VideoSource::Create("src", ActivityLocation::kDatabase, env,
                                  std::move(options));
  EXPECT_TRUE(p->source->Bind(value, VideoSource::kPortOut).ok());
  const auto& t = p->source->FindPort(VideoSource::kPortOut).value()->data_type();
  p->window = VideoWindow::Create(
      "win", ActivityLocation::kClient, env,
      VideoQuality(t.width(), t.height(), t.depth_bits(), t.element_rate()));
  EXPECT_TRUE(p->graph.Add(p->source).ok());
  EXPECT_TRUE(p->graph.Add(p->window).ok());
  EXPECT_TRUE(p->graph
                  .Connect(p->source.get(), VideoSource::kPortOut,
                           p->window.get(), VideoWindow::kPortIn, channel)
                  .ok());
  return p;
}

TEST(PlaybackTest, AllFramesPresentedOnTime) {
  auto p = MakePlayback(SmallVideo(20));
  ASSERT_TRUE(p->graph.StartAll().ok());
  p->graph.RunUntilIdle();
  EXPECT_EQ(p->window->stats().elements_presented, 20);
  EXPECT_EQ(p->window->stats().late_elements, 0);
  // Stream spans 2 s of virtual time at 10 fps.
  EXPECT_NEAR(p->window->stats().AchievedRate(), 10.0, 0.01);
  EXPECT_EQ(p->window->state(), MediaActivity::State::kStopped);
  EXPECT_EQ(p->source->state(), MediaActivity::State::kStopped);
}

TEST(PlaybackTest, PresentedFramesMatchValue) {
  auto value = SmallVideo(5);
  auto p = MakePlayback(value);
  std::vector<int64_t> seen;
  ASSERT_TRUE(p->window
                  ->Catch(VideoWindow::kEachFrame,
                          [&](const ActivityEvent& e) {
                            seen.push_back(e.element_index);
                          })
                  .ok());
  ASSERT_TRUE(p->graph.StartAll().ok());
  p->graph.RunUntilIdle();
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(p->window->last_frame(), value->Frame(4).value());
}

TEST(PlaybackTest, CuePositionsMidValue) {
  auto p = MakePlayback(SmallVideo(20));
  ASSERT_TRUE(p->source->Cue(WorldTime::FromSeconds(1)).ok());  // frame 10
  ASSERT_TRUE(p->graph.StartAll().ok());
  p->graph.RunUntilIdle();
  EXPECT_EQ(p->window->stats().elements_presented, 10);
}

TEST(PlaybackTest, StopIsAsynchronousAndIdempotent) {
  auto p = MakePlayback(SmallVideo(50));
  ASSERT_TRUE(p->graph.StartAll().ok());
  // Run 1 second of the 5-second stream, then stop.
  p->graph.RunUntil(WorldTime::FromSeconds(1));
  ASSERT_TRUE(p->graph.StopAll().ok());
  ASSERT_TRUE(p->graph.StopAll().ok());
  p->graph.RunUntilIdle();
  EXPECT_LT(p->window->stats().elements_presented, 15);
  EXPECT_GT(p->window->stats().elements_presented, 5);
}

TEST(PlaybackTest, AbortMidRunCancelsPendingEvents) {
  auto p = MakePlayback(SmallVideo(50));
  ASSERT_TRUE(p->graph.StartAll().ok());
  // Run 1 second of the 5-second stream, then abort the session.
  p->graph.RunUntil(WorldTime::FromSeconds(1));
  EXPECT_GT(p->engine.PendingEvents(), 0u);
  ASSERT_TRUE(p->graph.StopAll().ok());
  // A torn-down session removes its scheduled work: no closures linger in
  // the heap waiting to fire as generation-guarded no-ops at their
  // deadlines (the tombstone leak that made idle sessions cost memory).
  EXPECT_EQ(p->engine.PendingEvents(), 0u);
  EXPECT_GT(p->engine.EventsCancelled(), 0);
  EXPECT_EQ(p->engine.RunUntilIdle(), 0);
  EXPECT_LT(p->window->stats().elements_presented, 15);
}

TEST(PlaybackTest, SlowChannelMakesFramesLate) {
  // Raw 192x144x8@10 needs 276 KB/s but a T1 carries only ~193 KB/s: the
  // link saturates, queueing grows, and lateness accumulates beyond what
  // the source's preroll can absorb.
  auto type = MediaDataType::RawVideo(192, 144, 8, Rational(10));
  auto value =
      GenerateVideo(type, 10, VideoPattern::kMovingGradient).value();
  auto channel =
      std::make_shared<Channel>("t1", Channel::Profile::T1());
  auto p = MakePlayback(value, channel);
  ASSERT_TRUE(p->graph.StartAll().ok());
  p->graph.RunUntilIdle();
  EXPECT_EQ(p->window->stats().elements_presented, 10);
  EXPECT_GT(p->window->stats().late_elements, 0);
  EXPECT_GT(p->window->stats().max_lateness_ns, 10 * 1000 * 1000);
}

TEST(PlaybackTest, EncodedValuePlaysThroughGenericSource) {
  auto raw = SmallVideo(10);
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kInter).value();
  VideoCodecParams params;
  params.gop_size = 5;
  auto encoded =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  auto p = MakePlayback(encoded);
  ASSERT_TRUE(p->graph.StartAll().ok());
  p->graph.RunUntilIdle();
  EXPECT_EQ(p->window->stats().elements_presented, 10);
  // Internal decode keeps geometry: presented frame approximates original.
  const double mae =
      p->window->last_frame().MeanAbsoluteError(raw->Frame(9).value()).value();
  EXPECT_LT(mae, 12.0);
}

// ------------------------------------------------------- Per-stream readers --

std::shared_ptr<EncodedVideoValue> InterTitle(int frames, int gop_size = 12) {
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kInter).value();
  VideoCodecParams params;
  params.gop_size = gop_size;
  return EncodedVideoValue::Create(
             codec, codec->Encode(*SmallVideo(frames), params).value())
      .value();
}

std::vector<VideoFrame> ReferenceDecode(const EncodedVideoValue& value) {
  auto session = value.codec().NewDecoder(value.encoded()).value();
  std::vector<VideoFrame> frames;
  for (int64_t i = 0; i < value.FrameCount(); ++i) {
    frames.push_back(session->DecodeFrame(i).value());
  }
  return frames;
}

TEST(VideoSourceReaderTest, StaggeredStreamsOnOneTitleDecodeEachFrameOnce) {
  // Four streams on one inter title (GOP 12), started out of phase so their
  // ticks interleave mid-GOP. Each decodes through its own reader: frames
  // match a fresh decode and the title pays one decode per presented frame.
  auto title = InterTitle(30);
  const std::vector<VideoFrame> reference = ReferenceDecode(*title);
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  std::vector<std::shared_ptr<VideoSource>> sources;
  int64_t presented = 0;
  int64_t mismatches = 0;
  for (int64_t offset_ms : {0, 130, 470, 1250}) {
    SourceOptions options;
    options.start_offset = WorldTime::FromMillis(offset_ms);
    auto source = VideoSource::Create("src" + std::to_string(offset_ms),
                                      ActivityLocation::kDatabase, env,
                                      options);
    ASSERT_TRUE(source->Bind(title, VideoSource::kPortOut).ok());
    auto window = VideoWindow::Create("win" + std::to_string(offset_ms),
                                      ActivityLocation::kClient, env,
                                      MatchingQuality(SmallVideoType()));
    ASSERT_TRUE(window
                    ->Catch(VideoWindow::kEachFrame,
                            [&, w = window.get()](const ActivityEvent& e) {
                              ++presented;
                              if (!(w->last_frame() ==
                                    reference[static_cast<size_t>(
                                        e.element_index)])) {
                                ++mismatches;
                              }
                            })
                    .ok());
    ASSERT_TRUE(graph.Add(source).ok());
    ASSERT_TRUE(graph.Add(window).ok());
    ASSERT_TRUE(graph
                    .Connect(source.get(), VideoSource::kPortOut,
                             window.get(), VideoWindow::kPortIn)
                    .ok());
    sources.push_back(source);
  }
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(presented, 4 * 30);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(title->FramesDecodedInternally(), presented);
  for (const auto& source : sources) {
    EXPECT_EQ(source->state(), MediaActivity::State::kStopped);
    EXPECT_FALSE(source->holds_decoder()) << source->name();
  }
}

TEST(VideoSourceReaderTest, ReaderIsReleasedOnEveryStop) {
  auto title = InterTitle(20);
  // Opened lazily: binding alone holds no decoder.
  {
    auto p = MakePlayback(title);
    EXPECT_FALSE(p->source->holds_decoder());
    // Stop mid-stream.
    ASSERT_TRUE(p->graph.StartAll().ok());
    p->graph.RunUntil(WorldTime::FromMillis(500));
    EXPECT_TRUE(p->source->holds_decoder());
    ASSERT_TRUE(p->source->Stop().ok());
    EXPECT_FALSE(p->source->holds_decoder());
  }
  // Abort: every fetch after the third fails and one fault is fatal.
  {
    int fetches = 0;
    auto failing_fetcher = [&fetches](const std::string&, int64_t,
                                      int64_t length, int64_t)
        -> Result<MediaStore::ReadResult> {
      if (++fetches > 3) return Status::Unavailable("replica down");
      return MediaStore::ReadResult{Buffer(static_cast<size_t>(length)),
                                    WorldTime::FromMillis(1), 0};
    };
    DegradationPolicy policy;
    policy.max_consecutive_faults = 1;
    DegradationController degrade(policy);
    SourceOptions options;
    options.fetcher = failing_fetcher;
    options.degrade = &degrade;
    auto p = MakePlayback(title, nullptr, options);
    bool aborted = false;
    ASSERT_TRUE(p->source
                    ->Catch(VideoSource::kStreamAborted,
                            [&](const ActivityEvent&) { aborted = true; })
                    .ok());
    ASSERT_TRUE(p->graph.StartAll().ok());
    p->graph.RunUntilIdle();
    EXPECT_TRUE(aborted);
    EXPECT_EQ(p->source->state(), MediaActivity::State::kStopped);
    EXPECT_FALSE(p->source->holds_decoder());

    // A terminal fetch failure without the ladder stops the stream too.
    fetches = 0;
    SourceOptions plain;
    plain.fetcher = failing_fetcher;
    auto q = MakePlayback(title, nullptr, plain);
    ASSERT_TRUE(q->graph.StartAll().ok());
    q->graph.RunUntilIdle();
    EXPECT_EQ(q->window->stats().elements_presented, 3);
    EXPECT_FALSE(q->source->holds_decoder());
  }
  // A decode failure (a truncated P-frame) stops the stream.
  {
    EncodedVideo damaged = title->encoded();
    damaged.frames[5].data = Buffer(std::vector<uint8_t>{0x80});
    auto value = EncodedVideoValue::Create(
                     CodecRegistry::Default()
                         .VideoCodecFor(EncodingFamily::kInter)
                         .value(),
                     std::move(damaged))
                     .value();
    auto p = MakePlayback(value);
    ASSERT_TRUE(p->graph.StartAll().ok());
    p->graph.RunUntilIdle();
    EXPECT_EQ(p->window->stats().elements_presented, 5);
    EXPECT_FALSE(p->source->holds_decoder());
  }
  // End of stream.
  {
    auto p = MakePlayback(title);
    ASSERT_TRUE(p->graph.StartAll().ok());
    p->graph.RunUntilIdle();
    EXPECT_EQ(p->window->stats().elements_presented, 20);
    EXPECT_FALSE(p->source->holds_decoder());
  }
}

TEST(VideoSourceReaderTest, DecoderActivitiesOnOneTitleDecodeEachFrameOnce) {
  // Two read -> decode -> display chains on one inter title, out of phase:
  // each decoder activity keeps its own position in the title.
  auto title = InterTitle(24);
  const std::vector<VideoFrame> reference = ReferenceDecode(*title);
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  std::vector<std::shared_ptr<VideoWindow>> windows;
  for (int64_t offset_ms : {0, 250}) {
    const std::string id = std::to_string(offset_ms);
    SourceOptions options;
    options.start_offset = WorldTime::FromMillis(offset_ms);
    auto reader = VideoSource::Create("read" + id, ActivityLocation::kDatabase,
                                      env, options, /*emit_encoded=*/true);
    ASSERT_TRUE(reader->Bind(title, VideoSource::kPortOut).ok());
    auto decoder = VideoDecoderActivity::Create(
        "decode" + id, ActivityLocation::kDatabase, env);
    ASSERT_TRUE(decoder->Bind(title, VideoDecoderActivity::kPortIn).ok());
    auto window = VideoWindow::Create("display" + id, ActivityLocation::kClient,
                                      env, MatchingQuality(SmallVideoType()));
    ASSERT_TRUE(graph.Add(reader).ok());
    ASSERT_TRUE(graph.Add(decoder).ok());
    ASSERT_TRUE(graph.Add(window).ok());
    ASSERT_TRUE(graph
                    .Connect(reader.get(), VideoSource::kPortOut,
                             decoder.get(), VideoDecoderActivity::kPortIn)
                    .ok());
    ASSERT_TRUE(graph
                    .Connect(decoder.get(), VideoDecoderActivity::kPortOut,
                             window.get(), VideoWindow::kPortIn)
                    .ok());
    windows.push_back(window);
  }
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  for (const auto& window : windows) {
    EXPECT_EQ(window->stats().elements_presented, 24);
    EXPECT_TRUE(window->last_frame() == reference.back());
  }
  EXPECT_EQ(title->FramesDecodedInternally(), 2 * 24);
}

// Every fetch names the frame's byte offset in the stored blob: the sum of
// the stored sizes of the frames before it.
std::vector<int64_t> NaiveOffsets(const VideoValue& value) {
  std::vector<int64_t> offsets;
  int64_t offset = 0;
  for (int64_t f = 0; f < value.FrameCount(); ++f) {
    offsets.push_back(offset);
    offset += value.StoredFrameBytes(f);
  }
  return offsets;
}

struct Fetch {
  int64_t offset;
  int64_t length;
};

RangeFetcher RecordingFetcher(std::vector<Fetch>* fetches) {
  return [fetches](const std::string&, int64_t offset, int64_t length,
                   int64_t) -> Result<MediaStore::ReadResult> {
    fetches->push_back({offset, length});
    return MediaStore::ReadResult{Buffer(static_cast<size_t>(length)),
                                  WorldTime::FromMillis(1), 0};
  };
}

TEST(VideoSourceReaderTest, FetchOffsetsArePrefixSumsOfStoredFrames) {
  auto title = InterTitle(30);
  std::vector<Fetch> fetches;
  SourceOptions options;
  options.fetcher = RecordingFetcher(&fetches);
  auto p = MakePlayback(title, nullptr, options);
  ASSERT_TRUE(p->graph.StartAll().ok());
  p->graph.RunUntilIdle();
  const std::vector<int64_t> naive = NaiveOffsets(*title);
  ASSERT_EQ(fetches.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(fetches[i].offset, naive[i]) << "frame " << i;
    EXPECT_EQ(fetches[i].length,
              title->StoredFrameBytes(static_cast<int64_t>(i)));
  }
}

TEST(VideoSourceReaderTest, FetchOffsetsKeepTheStoredLayoutAcrossAQualityStep) {
  auto codec = std::make_shared<ScalableCodec>();
  VideoCodecParams params;
  params.layer_count = 3;
  auto title = EncodedVideoValue::Create(
                   codec, codec->Encode(*SmallVideo(20), params).value())
                   .value();
  std::vector<Fetch> fetches;
  DegradationController degrade;
  degrade.ReportLateness(100 * 1000 * 1000);  // lower quality at once
  SourceOptions options;
  options.fetcher = RecordingFetcher(&fetches);
  options.degrade = &degrade;
  auto p = MakePlayback(title, nullptr, options);
  ASSERT_TRUE(p->graph.StartAll().ok());
  p->graph.RunUntilIdle();

  // Stepped-down fetches read a prefix of each stored frame, at the offset
  // the full-quality layout gives it.
  const std::vector<int64_t> naive = NaiveOffsets(*title);
  ASSERT_FALSE(fetches.empty());
  int64_t reduced = 0;
  for (const Fetch& f : fetches) {
    auto it = std::find(naive.begin(), naive.end(), f.offset);
    ASSERT_NE(it, naive.end()) << "offset " << f.offset << " starts no frame";
    const int64_t frame = it - naive.begin();
    EXPECT_LE(f.length, title->StoredFrameBytes(frame));
    if (f.length < title->StoredFrameBytes(frame)) ++reduced;
  }
  EXPECT_GT(reduced, 0);
}

// ------------------------------------------------------ AudioSource faults --

// AudioSource consults the degradation ladder only after a failed fetch: a
// failure drops its block (the sink counts it as shed) until the
// controller's fault patience runs out, and then the stream aborts with an
// end of stream the sink honours. Absorbed retries surface as FAULT_RETRY.
TEST(AudioSourceFaultTest, DropsFailedBlocksThenAbortsAfterEightFaults) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto clip = GenerateAudio(MediaDataType::VoiceAudio(),
                            20 * AudioSource::kBlockFrames,
                            synthetic::AudioPattern::kSpeechLike)
                  .value();
  DegradationController degrade;
  int fetches = 0;
  SourceOptions source_options;
  source_options.degrade = &degrade;
  source_options.fetcher = [&fetches](const std::string&, int64_t,
                                      int64_t length, int64_t)
      -> Result<MediaStore::ReadResult> {
    ++fetches;
    if (fetches >= 4) return Status::Unavailable("device gone");
    return MediaStore::ReadResult{Buffer(static_cast<size_t>(length)),
                                  WorldTime::FromMillis(1),
                                  fetches == 1 ? 2 : 0};
  };
  auto source = AudioSource::Create("src", ActivityLocation::kDatabase, env,
                                    source_options);
  ASSERT_TRUE(source->Bind(clip, AudioSource::kPortOut).ok());
  SinkOptions sink_options;
  sink_options.degrade = &degrade;
  auto sink = AudioSink::Create("sink", ActivityLocation::kClient, env,
                                AudioQuality::kVoice, sink_options);
  std::vector<std::string> events;
  for (const char* kind :
       {AudioSource::kEachBlock, AudioSource::kLastBlock,
        AudioSource::kFaultRetry, AudioSource::kBlockDropped,
        AudioSource::kStreamAborted}) {
    ASSERT_TRUE(source
                    ->Catch(kind,
                            [&events](const ActivityEvent& e) {
                              events.push_back(
                                  std::to_string(e.time_ns) + " " + e.kind +
                                  "@" + std::to_string(e.element_index) +
                                  (e.detail.empty() ? "" : " " + e.detail));
                            })
                    .ok());
  }
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(sink).ok());
  ASSERT_TRUE(graph
                  .Connect(source.get(), AudioSource::kPortOut, sink.get(),
                           AudioSink::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();

  // Block i is fetched at i * 128 ms (its ideal time less the 80 ms
  // preroll) and presents 1 ms of fetch later.
  std::vector<std::string> expected = {
      "0 FAULT_RETRY@0 2 retries absorbed", "1000000 EACH_BLOCK@0",
      "129000000 EACH_BLOCK@1", "257000000 EACH_BLOCK@2"};
  for (int64_t block = 3; block <= 9; ++block) {
    expected.push_back(std::to_string(block * 128000000) +
                       " BLOCK_DROPPED@" + std::to_string(block) +
                       " fetch failed: device gone");
  }
  expected.push_back("1280000000 STREAM_ABORTED@10 8 consecutive faults");
  EXPECT_EQ(events, expected);
  EXPECT_EQ(fetches, 11);
  EXPECT_EQ(sink->stats().elements_presented, 3);
  EXPECT_EQ(sink->stats().elements_skipped, 7);
  EXPECT_EQ(source->state(), MediaActivity::State::kStopped);
  EXPECT_EQ(sink->state(), MediaActivity::State::kStopped);
}

// --------------------------------------------------------- Reader->decoder --

TEST(Fig2ChainTest, ReadDecodeDisplay) {
  // The paper's Fig. 2 top: read -> decode -> display as separate
  // activities with a compressed connection between the first two.
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);

  auto raw = SmallVideo(12);
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  auto encoded =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, {}).value())
          .value();

  auto reader = VideoSource::Create("read", ActivityLocation::kDatabase, env,
                                    {}, /*emit_encoded=*/true);
  ASSERT_TRUE(reader->Bind(encoded, VideoSource::kPortOut).ok());
  auto decoder =
      VideoDecoderActivity::Create("decode", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(decoder->Bind(encoded, VideoDecoderActivity::kPortIn).ok());
  auto window = VideoWindow::Create("display", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));

  ASSERT_TRUE(graph.Add(reader).ok());
  ASSERT_TRUE(graph.Add(decoder).ok());
  ASSERT_TRUE(graph.Add(window).ok());
  ASSERT_TRUE(graph
                  .Connect(reader.get(), VideoSource::kPortOut, decoder.get(),
                           VideoDecoderActivity::kPortIn)
                  .ok());
  ASSERT_TRUE(graph
                  .Connect(decoder.get(), VideoDecoderActivity::kPortOut,
                           window.get(), VideoWindow::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.Validate().ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(decoder->frames_decoded(), 12);
  EXPECT_EQ(window->stats().elements_presented, 12);
  // The compressed connection moved fewer bytes than the raw one.
  EXPECT_LT(graph.connections()[0]->stats().bytes,
            graph.connections()[1]->stats().bytes);
}

// -------------------------------------------------------------- Composite --

TEST(CompositeTest, EncapsulatedSourceBehavesLikeFlat) {
  // Fig. 2 bottom: composite {read, decode} exposed as one source.
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);

  auto raw = SmallVideo(12);
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  auto encoded =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, {}).value())
          .value();

  auto composite =
      CompositeActivity::Create("source", ActivityLocation::kDatabase, env);
  auto reader = VideoSource::Create("read", ActivityLocation::kDatabase, env,
                                    {}, /*emit_encoded=*/true);
  ASSERT_TRUE(reader->Bind(encoded, VideoSource::kPortOut).ok());
  auto decoder =
      VideoDecoderActivity::Create("decode", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(decoder->Bind(encoded, VideoDecoderActivity::kPortIn).ok());
  ASSERT_TRUE(composite->Install(reader).ok());
  ASSERT_TRUE(composite->Install(decoder).ok());
  ASSERT_TRUE(composite
                  ->ConnectChildren("read", VideoSource::kPortOut, "decode",
                                    VideoDecoderActivity::kPortIn)
                  .ok());
  ASSERT_TRUE(
      composite->ExposePort("decode", VideoDecoderActivity::kPortOut, "out")
          .ok());
  EXPECT_EQ(composite->Kind(), ActivityKind::kSource);

  auto window = VideoWindow::Create("display", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(graph.Add(composite).ok());
  ASSERT_TRUE(graph.Add(window).ok());
  ASSERT_TRUE(graph
                  .Connect(composite.get(), "out", window.get(),
                           VideoWindow::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(window->stats().elements_presented, 12);
}

TEST(CompositeTest, LocationMismatchRejected) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  auto composite =
      CompositeActivity::Create("c", ActivityLocation::kDatabase, env);
  auto client_side =
      VideoSource::Create("s", ActivityLocation::kClient, env);
  EXPECT_EQ(composite->Install(client_side).code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------------- Tee --

TEST(TeeTest, FanOutDeliversToAllBranches) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto value = SmallVideo(8);
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(value, VideoSource::kPortOut).ok());
  auto tee = VideoTee::Create("tee", ActivityLocation::kDatabase, env,
                              SmallVideoType(), 2);
  auto win_a = VideoWindow::Create("a", ActivityLocation::kClient, env,
                                   MatchingQuality(SmallVideoType()));
  auto win_b = VideoWindow::Create("b", ActivityLocation::kClient, env,
                                   MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(tee).ok());
  ASSERT_TRUE(graph.Add(win_a).ok());
  ASSERT_TRUE(graph.Add(win_b).ok());
  ASSERT_TRUE(graph.Connect(source.get(), VideoSource::kPortOut, tee.get(),
                            VideoTee::kPortIn)
                  .ok());
  ASSERT_TRUE(
      graph.Connect(tee.get(), "out_0", win_a.get(), VideoWindow::kPortIn)
          .ok());
  ASSERT_TRUE(
      graph.Connect(tee.get(), "out_1", win_b.get(), VideoWindow::kPortIn)
          .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(win_a->stats().elements_presented, 8);
  EXPECT_EQ(win_b->stats().elements_presented, 8);
  EXPECT_EQ(win_a->last_frame(), win_b->last_frame());
}

// ------------------------------------------------------------------ Mixer --

TEST(MixerTest, BlendsPairedFrames) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto va = GenerateVideo(SmallVideoType(), 6, VideoPattern::kCheckerboard)
                .value();
  auto vb = GenerateVideo(SmallVideoType(), 6, VideoPattern::kMovingGradient)
                .value();
  auto sa = VideoSource::Create("sa", ActivityLocation::kDatabase, env);
  auto sb = VideoSource::Create("sb", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(sa->Bind(va, VideoSource::kPortOut).ok());
  ASSERT_TRUE(sb->Bind(vb, VideoSource::kPortOut).ok());
  auto mixer = VideoMixer::Create("mix", ActivityLocation::kDatabase, env,
                                  SmallVideoType(), 0.5);
  auto writer = VideoWriter::Create("rec", ActivityLocation::kDatabase, env,
                                    SmallVideoType());
  ASSERT_TRUE(graph.Add(sa).ok());
  ASSERT_TRUE(graph.Add(sb).ok());
  ASSERT_TRUE(graph.Add(mixer).ok());
  ASSERT_TRUE(graph.Add(writer).ok());
  ASSERT_TRUE(graph.Connect(sa.get(), VideoSource::kPortOut, mixer.get(),
                            VideoMixer::kPortInA)
                  .ok());
  ASSERT_TRUE(graph.Connect(sb.get(), VideoSource::kPortOut, mixer.get(),
                            VideoMixer::kPortInB)
                  .ok());
  ASSERT_TRUE(graph.Connect(mixer.get(), VideoMixer::kPortOut, writer.get(),
                            VideoWriter::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(writer->frames_written(), 6);
  // Mixed pixel = average of the two inputs.
  const VideoFrame mixed = writer->captured()->Frame(0).value();
  const VideoFrame fa = va->Frame(0).value();
  const VideoFrame fb = vb->Frame(0).value();
  for (int i = 0; i < 10; ++i) {
    const int expect = (fa.data()[i] + fb.data()[i]) / 2;
    EXPECT_NEAR(mixed.data()[i], expect, 1);
  }
}

// -------------------------------------------------------- Encoder pipeline --

TEST(EncoderTest, DigitizeEncodeWrite) {
  // Recording pipeline: camera -> encoder -> (compressed) ... here we just
  // check encoder output properties via a counting sink.
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  const auto type = SmallVideoType();
  auto camera = VideoDigitizer::Create("cam", ActivityLocation::kDatabase,
                                       env, type,
                                       VideoPattern::kMovingBox, 15);
  auto encoder = VideoEncoderActivity::Create(
      "enc", ActivityLocation::kDatabase, env, type, 80);
  ASSERT_TRUE(graph.Add(camera).ok());
  ASSERT_TRUE(graph.Add(encoder).ok());
  ASSERT_TRUE(graph.Connect(camera.get(), VideoDigitizer::kPortOut,
                            encoder.get(), VideoEncoderActivity::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(encoder->frames_encoded(), 15);
  // Compression actually compresses.
  EXPECT_LT(encoder->bytes_out(),
            15 * type.ElementSizeBytes());
}

// ------------------------------------------------------- FormatConverter ----

TEST(FormatConverterTest, ConvertKernelGeometry) {
  VideoFrame src(8, 8, 24);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      src.Set(x, y, static_cast<uint8_t>(x * 30), 0);
      src.Set(x, y, static_cast<uint8_t>(y * 30), 1);
      src.Set(x, y, 7, 2);
    }
  }
  const VideoFrame down = FormatConverter::Convert(src, 4, 4, 24);
  EXPECT_EQ(down.width(), 4);
  EXPECT_EQ(down.At(0, 0, 2), 7);
  const VideoFrame grey = FormatConverter::Convert(src, 8, 8, 8);
  EXPECT_EQ(grey.depth_bits(), 8);
  // Luma of (30x, 30y, 7).
  const int expected = (299 * 30 + 587 * 0 + 114 * 7) / 1000;
  EXPECT_EQ(grey.At(1, 0, 0), expected);
}

// ---------------------------------------------------- Synchronized multi ----

TEST(MultiTrackTest, SyncSkipsKeepTracksCorrelated) {
  // Audio master on a clean path; video delayed by a slow channel. With
  // the shared sync domain the video track skips frames and bounded skew
  // results; the run also exercises MultiSource/MultiSink wiring.
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);

  const auto vtype = MediaDataType::RawVideo(128, 96, 8, Rational(10));
  auto video = GenerateVideo(vtype, 40, VideoPattern::kMovingBox).value();
  auto audio = GenerateAudio(MediaDataType::VoiceAudio(), 4 * 8000,
                             synthetic::AudioPattern::kSpeechLike)
                   .value();

  auto sink = MultiSink::Create("appSink", ActivityLocation::kClient, env);
  auto awin = AudioSink::Create("audioOut", ActivityLocation::kClient, env,
                                AudioQuality::kVoice);
  auto vwin = VideoWindow::Create(
      "videoOut", ActivityLocation::kClient, env,
      VideoQuality(128, 96, 8, Rational(10)));
  ASSERT_TRUE(sink->InstallSynced(awin, "audio", /*master=*/true).ok());
  ASSERT_TRUE(sink->InstallSynced(vwin, "video").ok());

  auto source = MultiSource::Create("dbSource", ActivityLocation::kDatabase,
                                    env);
  auto asrc = AudioSource::Create("audioSrc", ActivityLocation::kDatabase,
                                  env);
  ASSERT_TRUE(asrc->Bind(audio, AudioSource::kPortOut).ok());
  auto vsrc = VideoSource::Create("videoSrc", ActivityLocation::kDatabase,
                                  env);
  ASSERT_TRUE(vsrc->Bind(video, VideoSource::kPortOut).ok());
  ASSERT_TRUE(source->InstallSynced(asrc, "audio", /*master=*/true).ok());
  ASSERT_TRUE(source->InstallSynced(vsrc, "video").ok());
  ASSERT_TRUE(source->UseSyncDomain(sink->sync()).ok());

  // Video squeezed through a T1 that cannot carry it (123 KB/s > 193 KB/s?
  // 128*96*1*10 = 123 KB/s fits, so use 2 streams worth: make it late by
  // pre-loading the channel).
  auto slow = std::make_shared<Channel>("t1", Channel::Profile::T1());
  slow->Transfer(0, 400 * 1000);  // preexisting backlog ~2 s

  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(sink).ok());
  ASSERT_TRUE(
      graph.Connect(source.get(), "video_out", sink.get(), "video_in", slow)
          .ok());
  ASSERT_TRUE(
      graph.Connect(source.get(), "audio_out", sink.get(), "audio_in").ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();

  // The video track was resynchronized by skipping.
  EXPECT_GT(sink->sync()->stats().resyncs, 0);
  EXPECT_GT(sink->sync()->stats().elements_skipped, 0);
  // Some frames were dropped, so fewer than 40 presentations.
  EXPECT_LT(vwin->stats().elements_presented, 40);
  EXPECT_GT(awin->stats().elements_presented, 0);
}

// -------------------------------------------------- Repoint determinism ----

std::vector<std::string>* g_sync_log = nullptr;

// Minimal synced source child that records every ConfigureSync call, so a
// test can observe the order in which a composite re-points its tracks.
class SyncProbe final : public MediaActivity {
 public:
  static std::shared_ptr<SyncProbe> Create(const std::string& name,
                                           ActivityEnv env) {
    return std::shared_ptr<SyncProbe>(
        new SyncProbe(name, ActivityLocation::kDatabase, env));
  }

  Status ConfigureSync(SyncController* /*sync*/,
                       const std::string& /*track*/) override {
    if (g_sync_log != nullptr) g_sync_log->push_back(name());
    return Status::OK();
  }

 private:
  SyncProbe(const std::string& name, ActivityLocation location,
            ActivityEnv env)
      : MediaActivity(name, location, env) {
    DeclarePort("out", PortDirection::kOut, SmallVideoType());
  }
};

TEST(MultiTrackTest, RepointSyncFollowsInstallOrder) {
  // Track repointing configures caller-visible SyncController state, so
  // its order must be a function of the program, not of the allocator:
  // children are allocated in one order and installed in the reverse
  // order. A pointer-keyed container would repoint in allocation order;
  // the contract is install order.
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  auto source =
      MultiSource::Create("dbSource", ActivityLocation::kDatabase, env);

  std::vector<std::shared_ptr<SyncProbe>> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back(SyncProbe::Create("track" + std::to_string(i), env));
  }
  std::vector<std::string> install_order;
  std::vector<std::string> log;
  g_sync_log = &log;
  for (int i = 7; i >= 0; --i) {
    ASSERT_TRUE(
        source->InstallSynced(probes[i], probes[i]->name(), /*master=*/i == 7)
            .ok());
    install_order.push_back(probes[i]->name());
  }
  log.clear();  // drop the ConfigureSync calls made during install

  SyncController domain;
  ASSERT_TRUE(source->UseSyncDomain(&domain).ok());
  g_sync_log = nullptr;
  EXPECT_EQ(log, install_order);
}

// ----------------------------------------------------------- Text pipeline --

TEST(TextPipelineTest, SubtitlesArriveInOrder) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto subs = GenerateSubtitles(MediaDataType::Text(Rational(10)), 3, 10, 5,
                                "Sub")
                  .value();
  auto src = TextSource::Create("subSrc", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(src->Bind(subs, TextSource::kPortOut).ok());
  auto sink = TextSink::Create("subSink", ActivityLocation::kClient, env);
  // Type the sink's port to the source's.
  sink->FindPort(TextSink::kPortIn).value()->set_data_type(
      src->FindPort(TextSource::kPortOut).value()->data_type());
  ASSERT_TRUE(graph.Add(src).ok());
  ASSERT_TRUE(graph.Add(sink).ok());
  ASSERT_TRUE(graph.Connect(src.get(), TextSource::kPortOut, sink.get(),
                            TextSink::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(sink->presented(),
            (std::vector<std::string>{"Sub 1", "Sub 2", "Sub 3"}));
}

// ------------------------------------------------------------ VideoWriter ----

TEST(VideoWriterTest, PersistsToStoreOnEos) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto dev =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(dev, nullptr);

  auto value = SmallVideo(5);
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(value, VideoSource::kPortOut).ok());
  auto writer = VideoWriter::Create("rec", ActivityLocation::kDatabase, env,
                                    SmallVideoType(), &store, "captured");
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(writer).ok());
  ASSERT_TRUE(graph.Connect(source.get(), VideoSource::kPortOut, writer.get(),
                            VideoWriter::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  ASSERT_TRUE(store.Contains("captured"));
  auto blob = store.Get("captured");
  ASSERT_TRUE(blob.ok());
  auto restored = value_serializer::DeserializeVideo(blob.value().data);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->FrameCount(), 5);
  EXPECT_EQ(restored.value()->Frame(3).value(), value->Frame(3).value());
}

// ------------------------------------------------- Stored-value streaming --

TEST(StoredStreamingTest, DeviceContentionDelaysSecondStream) {
  // Two concurrent playbacks from one disk vs from two disks — the §3.3
  // placement experiment in miniature.
  // 320x240x8@15 needs ~21 ms transfer + ~18 ms seek per frame when two
  // streams interleave on one spindle: 2×39 ms per 66.7 ms period
  // oversubscribes the shared disk but not two separate disks.
  const auto type = MediaDataType::RawVideo(320, 240, 8, Rational(15));
  auto value = GenerateVideo(type, 30, VideoPattern::kMovingGradient).value();
  auto blob = value_serializer::Serialize(*value).value();

  auto run = [&](bool two_devices) {
    EventEngine engine;
    ActivityEnv env{&engine, nullptr};
    ActivityGraph graph(env);
    auto dev0 = std::make_shared<BlockDevice>("d0",
                                              DeviceProfile::MagneticDisk());
    auto dev1 = two_devices ? std::make_shared<BlockDevice>(
                                  "d1", DeviceProfile::MagneticDisk())
                            : dev0;
    MediaStore store0(dev0, nullptr);
    MediaStore store1(dev1, nullptr);
    MediaStore* s1 = two_devices ? &store1 : &store0;
    EXPECT_TRUE(store0.Put("a", blob).ok());
    EXPECT_TRUE(s1->Put("b", blob).ok());
    ServiceQueue q0("d0");
    ServiceQueue q1("d1");
    ServiceQueue* queue1 = two_devices ? &q1 : &q0;

    double total_lateness = 0;
    for (int s = 0; s < 2; ++s) {
      SourceOptions options;
      options.fetcher = FetchFrom(s == 0 ? &store0 : s1);
      options.blob_name = s == 0 ? "a" : "b";
      options.device_queue = s == 0 ? &q0 : queue1;
      auto src = VideoSource::Create("src" + std::to_string(s),
                                     ActivityLocation::kDatabase, env,
                                     options);
      EXPECT_TRUE(src->Bind(value, VideoSource::kPortOut).ok());
      auto win = VideoWindow::Create(
          "win" + std::to_string(s), ActivityLocation::kClient, env,
          VideoQuality(320, 240, 8, Rational(15)));
      EXPECT_TRUE(graph.Add(src).ok());
      EXPECT_TRUE(graph.Add(win).ok());
      EXPECT_TRUE(graph.Connect(src.get(), VideoSource::kPortOut, win.get(),
                                VideoWindow::kPortIn)
                      .ok());
    }
    EXPECT_TRUE(graph.StartAll().ok());
    graph.RunUntilIdle();
    for (const auto& a : graph.activities()) {
      if (auto* win = dynamic_cast<VideoWindow*>(a.get())) {
        total_lateness += win->stats().MeanLatenessMs();
      }
    }
    return total_lateness;
  };

  const double shared_lateness = run(false);
  const double split_lateness = run(true);
  EXPECT_GT(shared_lateness, split_lateness);
}

// ----------------------------------------------- Sync revocation in sinks --

// Regression for the [[nodiscard]] sweep (PR 4): sinks used to swallow the
// SyncController::Report status with a bare `.ok()`, so a track revoked
// mid-stream (RemoveTrack, the PR 2 revocation path) kept charging a dead
// map lookup on every element with the NotFound error vanishing. A failed
// report must now detach the sink from sync while playback continues.
TEST(VideoWindowTest, DetachesFromSyncWhenTrackRevokedMidStream) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  SyncController sync;
  ASSERT_TRUE(sync.AddTrack("video", /*master=*/true).ok());

  constexpr int kFrames = 10;
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(SmallVideo(kFrames), VideoSource::kPortOut).ok());
  auto window = VideoWindow::Create("win", ActivityLocation::kClient, env,
                                    MatchingQuality(SmallVideoType()));
  ASSERT_TRUE(window->ConfigureSync(&sync, "video").ok());
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(window).ok());
  ASSERT_TRUE(graph.Connect(source.get(), VideoSource::kPortOut,
                            window.get(), VideoWindow::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());

  // Let a few frames present, then revoke the track mid-stream.
  graph.RunUntil(WorldTime::FromMillis(350));
  const int64_t reports_at_revoke = sync.stats().reports;
  EXPECT_GT(reports_at_revoke, 0);
  ASSERT_TRUE(sync.RemoveTrack("video").ok());

  // The stream must still run to completion, with no further reports
  // landing on the dead track (the sink detached on the first failure).
  graph.RunUntilIdle();
  EXPECT_EQ(window->stats().elements_presented, kFrames);
  EXPECT_EQ(sync.stats().reports, reports_at_revoke);
  ASSERT_TRUE(graph.StopAll().ok());
}

// ------------------------------------------------- StartAll failure paths --

// Instrumented activity whose Start/Stop hooks can be made to fail —
// regression coverage for the [[nodiscard]] sweep's StartAll fix (PR 4):
// a mid-StartAll failure must roll back the already-started activities,
// and a failure *during that rollback* must not mask the start error.
class ProbeActivity : public MediaActivity {
 public:
  ProbeActivity(std::string name, ActivityEnv env, Status start_status,
                Status stop_status = Status::OK())
      : MediaActivity(std::move(name), ActivityLocation::kDatabase, env),
        start_status_(std::move(start_status)),
        stop_status_(std::move(stop_status)) {}

  int starts = 0;
  int stops = 0;

 protected:
  Status OnStart() override {
    ++starts;
    return start_status_;
  }
  Status OnStop() override {
    ++stops;
    return stop_status_;
  }

 private:
  Status start_status_;
  Status stop_status_;
};

TEST(ActivityGraphTest, StartAllRollsBackStartedActivitiesOnFailure) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto first = std::make_shared<ProbeActivity>("first", env, Status::OK());
  auto failing = std::make_shared<ProbeActivity>(
      "failing", env, Status::ResourceExhausted("no bandwidth"));
  auto never = std::make_shared<ProbeActivity>("never", env, Status::OK());
  ASSERT_TRUE(graph.Add(first).ok());
  ASSERT_TRUE(graph.Add(failing).ok());
  ASSERT_TRUE(graph.Add(never).ok());

  const Status status = graph.StartAll();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // `first` started and was rolled back; `never` was never reached.
  EXPECT_EQ(first->starts, 1);
  EXPECT_EQ(first->stops, 1);
  EXPECT_EQ(never->starts, 0);
  EXPECT_EQ(first->state(), MediaActivity::State::kStopped);
}

TEST(ActivityGraphTest, StartAllRollbackFailureDoesNotMaskStartError) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  // The first activity starts fine but its rollback Stop fails; the start
  // failure of the second must still be what StartAll reports.
  auto bad_stop = std::make_shared<ProbeActivity>(
      "bad_stop", env, Status::OK(), Status::Internal("stop exploded"));
  auto failing = std::make_shared<ProbeActivity>(
      "failing", env, Status::Unavailable("device gone"));
  ASSERT_TRUE(graph.Add(bad_stop).ok());
  ASSERT_TRUE(graph.Add(failing).ok());

  const Status status = graph.StartAll();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "device gone");
  // The rollback still ran even though its status was only logged.
  EXPECT_EQ(bad_stop->stops, 1);
}

}  // namespace
}  // namespace avdb
