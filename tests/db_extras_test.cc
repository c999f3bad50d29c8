#include <gtest/gtest.h>

#include "activity/sinks.h"
#include "activity/sources.h"
#include "activity/transformers.h"
#include "codec/scalable_codec.h"
#include "db/database.h"
#include "media/synthetic.h"

namespace avdb {
namespace {

using synthetic::AudioPattern;
using synthetic::GenerateAudio;
using synthetic::GenerateVideo;
using synthetic::VideoPattern;

std::unique_ptr<AvDatabase> MakeDb() {
  auto db = std::make_unique<AvDatabase>();
  EXPECT_TRUE(db->AddDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  EXPECT_TRUE(db->AddDevice("disk1", DeviceProfile::MagneticDisk()).ok());
  ClassDef clip_class("Clip");
  EXPECT_TRUE(clip_class.AddAttribute({"title", AttrType::kString, {}, {}}).ok());
  EXPECT_TRUE(
      clip_class.AddAttribute({"footage", AttrType::kVideo, {}, {}}).ok());
  EXPECT_TRUE(clip_class.AddAttribute({"narration", AttrType::kAudio, {}, {}})
                  .ok());
  EXPECT_TRUE(db->DefineClass(clip_class).ok());
  return db;
}

std::shared_ptr<RawVideoValue> Clip(int frames, uint64_t seed = 1) {
  return GenerateVideo(MediaDataType::RawVideo(48, 32, 8, Rational(10)),
                       frames, VideoPattern::kMovingBox, seed)
      .value();
}

// ------------------------------------------------------------ pause/resume --

TEST(PauseResumeTest, StreamResumesWhereItStopped) {
  auto db = MakeDb();
  auto oid = db->NewObject("Clip").value();
  ASSERT_TRUE(db->SetMediaAttribute(oid, "footage", *Clip(30), "disk0").ok());

  auto stream = db->NewSourceFor("app", oid, "footage").value();
  auto window = VideoWindow::Create("win", ActivityLocation::kClient,
                                    db->env(),
                                    VideoQuality(48, 32, 8, Rational(10)));
  ASSERT_TRUE(db->graph().Add(window).ok());
  ASSERT_TRUE(db->NewConnection(stream.source, VideoSource::kPortOut,
                                window.get(), VideoWindow::kPortIn)
                  .ok());
  ASSERT_TRUE(db->StartStream(stream).ok());

  // Play ~1 s of the 3 s stream, then pause.
  db->RunUntil(WorldTime::FromSeconds(1));
  ASSERT_TRUE(db->PauseStream(stream).ok());
  db->RunUntilIdle();
  const int64_t at_pause = window->stats().elements_presented;
  EXPECT_GT(at_pause, 5);
  EXPECT_LT(at_pause, 15);

  // While paused: nothing advances, resources stay held.
  db->RunUntil(WorldTime::FromSeconds(5));
  EXPECT_EQ(window->stats().elements_presented, at_pause);
  EXPECT_LT(db->admission().Available("db.buffers").value(),
            db->admission().Capacity("db.buffers").value());

  // Resume: the remainder plays on a fresh schedule, on time.
  ASSERT_TRUE(db->ResumeStream(stream).ok());
  db->RunUntilIdle();
  EXPECT_EQ(window->stats().elements_presented, 30);
  EXPECT_EQ(window->stats().deadline_misses, 0);
  ASSERT_TRUE(db->StopStream(stream).ok());
}

TEST(PauseResumeTest, UnknownStreamRejected) {
  auto db = MakeDb();
  StreamHandle bogus;
  bogus.id = 999;
  EXPECT_EQ(db->PauseStream(bogus).code(), StatusCode::kNotFound);
  EXPECT_EQ(db->ResumeStream(bogus).code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- AudioMixer --

TEST(AudioMixerActivityTest, MixesTwoStreams) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  const auto atype = MediaDataType::VoiceAudio();
  auto narration = GenerateAudio(atype, 4096, AudioPattern::kSpeechLike, 1)
                       .value();
  auto music = GenerateAudio(atype, 4096, AudioPattern::kTone, 2).value();

  auto src_a = AudioSource::Create("voice", ActivityLocation::kDatabase, env);
  auto src_b = AudioSource::Create("music", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(src_a->Bind(narration, AudioSource::kPortOut).ok());
  ASSERT_TRUE(src_b->Bind(music, AudioSource::kPortOut).ok());
  auto mixer = AudioMixerActivity::Create(
      "dub", ActivityLocation::kDatabase, env,
      MediaDataType::RawAudio(1, Rational(8000)), 0.7, 0.3);
  auto sink = AudioSink::Create("out", ActivityLocation::kClient, env,
                                AudioQuality::kVoice);
  ASSERT_TRUE(graph.Add(src_a).ok());
  ASSERT_TRUE(graph.Add(src_b).ok());
  ASSERT_TRUE(graph.Add(mixer).ok());
  ASSERT_TRUE(graph.Add(sink).ok());
  ASSERT_TRUE(graph.Connect(src_a.get(), AudioSource::kPortOut, mixer.get(),
                            AudioMixerActivity::kPortInA)
                  .ok());
  ASSERT_TRUE(graph.Connect(src_b.get(), AudioSource::kPortOut, mixer.get(),
                            AudioMixerActivity::kPortInB)
                  .ok());
  ASSERT_TRUE(graph.Connect(mixer.get(), AudioMixerActivity::kPortOut,
                            sink.get(), AudioSink::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(mixer->elements_mixed(), 4);  // 4096 samples = 4 blocks
  EXPECT_EQ(sink->stats().elements_presented, 4);
}

// ---------------------------------------------------------- backup/restore --

TEST(BackupTest, FullRoundTrip) {
  auto db = MakeDb();
  // A populated database: scalars, media versions on two devices, a query
  // index, plus an audio attribute.
  auto oid1 = db->NewObject("Clip").value();
  ASSERT_TRUE(db->SetScalar(oid1, "title", std::string("first")).ok());
  ASSERT_TRUE(db->SetMediaAttribute(oid1, "footage", *Clip(8, 1), "disk0").ok());
  ASSERT_TRUE(db->SetMediaAttribute(oid1, "footage", *Clip(6, 2), "disk1").ok());
  auto narration = GenerateAudio(MediaDataType::VoiceAudio(), 500,
                                 AudioPattern::kSpeechLike)
                       .value();
  ASSERT_TRUE(
      db->SetMediaAttribute(oid1, "narration", *narration, "disk0").ok());
  auto oid2 = db->NewObject("Clip").value();
  ASSERT_TRUE(db->SetScalar(oid2, "title", std::string("second")).ok());

  auto image = db->SaveBackup();
  ASSERT_TRUE(image.ok());

  // Restore into a fresh database with the same devices.
  auto restored = std::make_unique<AvDatabase>();
  ASSERT_TRUE(restored->AddDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  ASSERT_TRUE(restored->AddDevice("disk1", DeviceProfile::MagneticDisk()).ok());
  ASSERT_TRUE(restored->RestoreBackup(image.value()).ok());

  // Schema and objects are back.
  EXPECT_TRUE(restored->GetClass("Clip").ok());
  EXPECT_EQ(std::get<std::string>(
                restored->GetScalar(oid1, "title").value()),
            "first");
  // The query index was rebuilt.
  EXPECT_EQ(restored->Select("Clip", "title = 'second'").value().size(), 1u);
  // Media versions and bytes are back, including history.
  auto history = restored->MediaHistory(oid1, "footage").value();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].device, "disk1");
  auto current = restored->LoadMediaAttribute(oid1, "footage").value();
  EXPECT_EQ(current->ElementCount(), 6);
  auto old = restored->LoadMediaAttribute(oid1, "footage", 1).value();
  EXPECT_EQ(old->ElementCount(), 8);
  // Restored content is bit-identical.
  auto original = db->LoadMediaAttribute(oid1, "footage", 1).value();
  auto restored_video = std::dynamic_pointer_cast<VideoValue>(old);
  auto original_video = std::dynamic_pointer_cast<VideoValue>(original);
  ASSERT_NE(restored_video, nullptr);
  EXPECT_EQ(restored_video->Frame(3).value(), original_video->Frame(3).value());
  // New objects allocate past the restored oid space.
  auto oid3 = restored->NewObject("Clip").value();
  EXPECT_GT(oid3.value(), oid2.value());
}

TEST(BackupTest, TcompSurvivesRoundTrip) {
  auto db = std::make_unique<AvDatabase>();
  ASSERT_TRUE(db->AddDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  ClassDef newscast("Newscast");
  TcompDef clip;
  clip.name = "clip";
  clip.tracks.push_back({"videoTrack", AttrType::kVideo, {}, {}});
  clip.tracks.push_back({"subtitleTrack", AttrType::kText, {}, {}});
  ASSERT_TRUE(newscast.AddTcomp(clip).ok());
  ASSERT_TRUE(db->DefineClass(newscast).ok());
  auto oid = db->NewObject("Newscast").value();
  ASSERT_TRUE(db->SetTcompTrack(oid, "clip", "videoTrack", *Clip(10), "disk0",
                                WorldTime(), WorldTime::FromSeconds(1))
                  .ok());
  auto subs = synthetic::GenerateSubtitles(MediaDataType::Text(Rational(10)),
                                           2, 3, 1, "S")
                  .value();
  ASSERT_TRUE(db->SetTcompTrack(oid, "clip", "subtitleTrack", *subs, "disk0",
                                WorldTime::FromMillis(200),
                                WorldTime::FromMillis(800))
                  .ok());

  auto image = db->SaveBackup().value();
  auto restored = std::make_unique<AvDatabase>();
  ASSERT_TRUE(restored->AddDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  ASSERT_TRUE(restored->RestoreBackup(image).ok());

  auto tcomp = restored->GetTcomp(oid, "clip");
  ASSERT_TRUE(tcomp.ok());
  EXPECT_EQ(tcomp.value()->timeline.TrackCount(), 2u);
  EXPECT_EQ(tcomp.value()->timeline.TrackInterval("subtitleTrack").value(),
            Interval(WorldTime::FromMillis(200), WorldTime::FromMillis(800)));
  // A restored track still plays.
  auto stream = restored->NewSourceFor("app", oid, "clip.videoTrack");
  EXPECT_TRUE(stream.ok());
}

TEST(BackupTest, RestoreRequiresEmptyDatabaseAndValidImage) {
  auto db = MakeDb();
  auto image = db->SaveBackup().value();
  EXPECT_EQ(db->RestoreBackup(image).code(), StatusCode::kFailedPrecondition);

  auto fresh = std::make_unique<AvDatabase>();
  EXPECT_EQ(fresh->RestoreBackup(Buffer()).code(), StatusCode::kDataLoss);
  Buffer junk;
  junk.AppendU32(123);
  EXPECT_EQ(fresh->RestoreBackup(junk).code(), StatusCode::kDataLoss);
}

TEST(BackupTest, RestoreFailsCleanlyWithoutDevices) {
  auto db = MakeDb();
  auto oid = db->NewObject("Clip").value();
  ASSERT_TRUE(db->SetMediaAttribute(oid, "footage", *Clip(3), "disk0").ok());
  auto image = db->SaveBackup().value();
  auto fresh = std::make_unique<AvDatabase>();  // no devices registered
  EXPECT_FALSE(fresh->RestoreBackup(image).ok());
}

// ------------------------------------------------- quality-negotiated play --

TEST(QualityNegotiationTest, ScalableValueServedAtRequestedQuality) {
  auto db = MakeDb();
  // Store a scalable-coded value once.
  auto raw = GenerateVideo(MediaDataType::RawVideo(320, 240, 8, Rational(10)),
                           10, VideoPattern::kMovingBox)
                 .value();
  ScalableCodec codec;
  VideoCodecParams params;
  params.layer_count = 3;
  auto encoded = EncodedVideoValue::Create(
                     std::make_shared<ScalableCodec>(),
                     codec.Encode(*raw, params).value())
                     .value();
  ClassDef asset("Asset");
  ASSERT_TRUE(asset.AddAttribute({"footage", AttrType::kVideo, {}, {}}).ok());
  ASSERT_TRUE(db->DefineClass(asset).ok());
  auto oid = db->NewObject("Asset").value();
  ASSERT_TRUE(db->SetMediaAttribute(oid, "footage", *encoded, "disk0").ok());

  // Low quality request -> base layer only, far smaller admission demand.
  const auto low = VideoQuality::Parse("80x60x8@10").value();
  auto low_stream = db->NewSourceFor("a", oid, "footage", low);
  ASSERT_TRUE(low_stream.ok());
  auto* low_source = dynamic_cast<VideoSource*>(low_stream.value().source);
  ASSERT_NE(low_source, nullptr);
  auto low_view = std::dynamic_pointer_cast<ScalableVideoView>(
      low_source->bound_value());
  ASSERT_NE(low_view, nullptr);
  EXPECT_EQ(low_view->layers(), 1);
  const double available_after_low =
      db->admission().Available("disk0.bandwidth").value();

  // Full quality request -> all layers, bigger demand.
  const auto full = VideoQuality::Parse("320x240x8@10").value();
  auto full_stream = db->NewSourceFor("b", oid, "footage", full);
  ASSERT_TRUE(full_stream.ok());
  auto* full_source = dynamic_cast<VideoSource*>(full_stream.value().source);
  auto full_view = std::dynamic_pointer_cast<ScalableVideoView>(
      full_source->bound_value());
  ASSERT_NE(full_view, nullptr);
  EXPECT_EQ(full_view->layers(), 3);
  const double available_after_full =
      db->admission().Available("disk0.bandwidth").value();
  // The full-quality stream reserved much more than the base-layer one.
  const double low_demand =
      db->admission().Capacity("disk0.bandwidth").value() -
      available_after_low;
  const double full_demand = available_after_low - available_after_full;
  EXPECT_GT(full_demand, 3 * low_demand);

  // Unsatisfiable quality is refused.
  const auto huge = VideoQuality::Parse("640x480x8@10").value();
  EXPECT_EQ(db->NewSourceFor("c", oid, "footage", huge).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QualityNegotiationTest, PlaybackAtReducedQualityStillDelivers) {
  auto db = MakeDb();
  auto raw = GenerateVideo(MediaDataType::RawVideo(128, 96, 8, Rational(10)),
                           10, VideoPattern::kMovingGradient)
                 .value();
  ScalableCodec codec;
  VideoCodecParams params;
  params.layer_count = 3;
  auto encoded = EncodedVideoValue::Create(
                     std::make_shared<ScalableCodec>(),
                     codec.Encode(*raw, params).value())
                     .value();
  auto oid = db->NewObject("Clip").value();
  ASSERT_TRUE(db->SetMediaAttribute(oid, "footage", *encoded, "disk0").ok());
  const auto low = VideoQuality::Parse("32x24x8@10").value();
  auto stream = db->NewSourceFor("app", oid, "footage", low);
  ASSERT_TRUE(stream.ok());
  // The view decodes at full geometry (upsampled base layer).
  auto window = VideoWindow::Create("win", ActivityLocation::kClient,
                                    db->env(),
                                    VideoQuality(128, 96, 8, Rational(10)));
  ASSERT_TRUE(db->graph().Add(window).ok());
  ASSERT_TRUE(db->NewConnection(stream.value().source, VideoSource::kPortOut,
                                window.get(), VideoWindow::kPortIn)
                  .ok());
  ASSERT_TRUE(db->StartStream(stream.value()).ok());
  db->RunUntilIdle();
  EXPECT_EQ(window->stats().elements_presented, 10);
  // Softer than the full decode, but recognizably the content.
  const double mae = window->last_frame()
                         .MeanAbsoluteError(raw->Frame(9).value())
                         .value();
  EXPECT_LT(mae, 40.0);
  EXPECT_GT(mae, 0.0);
}

// ------------------------------------------------------------- recording --

TEST(RecorderTest, CapturedStreamBecomesNewVersion) {
  auto db = MakeDb();
  auto oid = db->NewObject("Clip").value();
  ASSERT_TRUE(db->SetMediaAttribute(oid, "footage", *Clip(5, 1), "disk0").ok());

  const auto type = MediaDataType::RawVideo(48, 32, 8, Rational(10));
  auto recorder = db->NewRecorderFor("studio", oid, "footage", "disk1", type);
  ASSERT_TRUE(recorder.ok());
  // The recorder's session holds the object exclusively.
  EXPECT_EQ(db->locks().Acquire(oid, LockMode::kShared, "viewer").code(),
            StatusCode::kUnavailable);

  // Live capture: camera -> recorder.
  auto camera = VideoDigitizer::Create("cam", ActivityLocation::kDatabase,
                                       db->env(), type,
                                       VideoPattern::kCheckerboard, 12);
  ASSERT_TRUE(db->graph().Add(camera).ok());
  ASSERT_TRUE(db->graph()
                  .Connect(camera.get(), VideoDigitizer::kPortOut,
                           recorder.value().get(), VideoWriter::kPortIn)
                  .ok());
  ASSERT_TRUE(recorder.value()->Start().ok());
  ASSERT_TRUE(camera->Start().ok());
  db->RunUntilIdle();

  // A second version now exists, holding the captured frames.
  auto history = db->MediaHistory(oid, "footage").value();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].device, "disk1");
  auto value = db->LoadMediaAttribute(oid, "footage").value();
  EXPECT_EQ(value->ElementCount(), 12);
  ASSERT_TRUE(db->CloseSession("studio").ok());
  EXPECT_TRUE(db->locks().Acquire(oid, LockMode::kShared, "viewer").ok());
}

TEST(RecorderTest, ValidatesAttributeAndDevice) {
  auto db = MakeDb();
  auto oid = db->NewObject("Clip").value();
  const auto type = MediaDataType::RawVideo(48, 32, 8, Rational(10));
  EXPECT_FALSE(db->NewRecorderFor("s", oid, "title", "disk0", type).ok());
  EXPECT_FALSE(db->NewRecorderFor("s", oid, "narration", "disk0", type).ok());
  EXPECT_FALSE(db->NewRecorderFor("s", oid, "footage", "nodev", type).ok());
}

// -------------------------------------------------------- audio capture --

TEST(AudioCaptureTest, CaptureDubAndRecord) {
  // Live microphone -> mixer (with stored music) -> audio writer: the full
  // audio production path.
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  const auto atype = MediaDataType::VoiceAudio();

  auto microphone = AudioCapture::Create(
      "mic", ActivityLocation::kDatabase, env, atype,
      AudioPattern::kSpeechLike, 3 * AudioCapture::kBlockFrames);
  auto music = GenerateAudio(atype, 3 * AudioCapture::kBlockFrames,
                             AudioPattern::kTone)
                   .value();
  auto music_src =
      AudioSource::Create("music", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(music_src->Bind(music, AudioSource::kPortOut).ok());
  auto mixer = AudioMixerActivity::Create(
      "dub", ActivityLocation::kDatabase, env,
      MediaDataType::RawAudio(1, Rational(8000)), 0.8, 0.2);
  auto writer = AudioWriter::Create("rec", ActivityLocation::kDatabase, env,
                                    MediaDataType::RawAudio(1, Rational(8000)));
  ASSERT_TRUE(graph.Add(microphone).ok());
  ASSERT_TRUE(graph.Add(music_src).ok());
  ASSERT_TRUE(graph.Add(mixer).ok());
  ASSERT_TRUE(graph.Add(writer).ok());
  ASSERT_TRUE(graph.Connect(microphone.get(), AudioCapture::kPortOut,
                            mixer.get(), AudioMixerActivity::kPortInA)
                  .ok());
  ASSERT_TRUE(graph.Connect(music_src.get(), AudioSource::kPortOut,
                            mixer.get(), AudioMixerActivity::kPortInB)
                  .ok());
  ASSERT_TRUE(graph.Connect(mixer.get(), AudioMixerActivity::kPortOut,
                            writer.get(), AudioWriter::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(writer->blocks_written(), 3);
  EXPECT_EQ(writer->captured()->SampleCount(),
            3 * AudioCapture::kBlockFrames);
}

// --------------------------------------------------------- DescribePlatform --

TEST(DescribePlatformTest, ListsDevicesChannelsAndCounts) {
  auto db = MakeDb();
  ASSERT_TRUE(db->AddChannel("net", Channel::Profile::Ethernet10()).ok());
  db->NewObject("Clip").value();
  const std::string text = db->DescribePlatform();
  EXPECT_NE(text.find("disk0"), std::string::npos);
  EXPECT_NE(text.find("magnetic-disk-1993"), std::string::npos);
  EXPECT_NE(text.find("net"), std::string::npos);
  EXPECT_NE(text.find("objects: 1"), std::string::npos);
}

}  // namespace
}  // namespace avdb
