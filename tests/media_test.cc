#include <gtest/gtest.h>

#include "media/audio_value.h"
#include "media/frame.h"
#include "media/image_value.h"
#include "media/media_type.h"
#include "media/media_value.h"
#include "media/quality.h"
#include "media/synthetic.h"
#include "media/text_stream_value.h"
#include "media/video_value.h"

namespace avdb {
namespace {

// ------------------------------------------------------------ VideoFrame --

TEST(VideoFrameTest, GeometryAndAccess) {
  VideoFrame f(4, 3, 8);
  EXPECT_EQ(f.SizeBytes(), 12u);
  f.Set(2, 1, 200);
  EXPECT_EQ(f.At(2, 1), 200);
  EXPECT_EQ(f.At(0, 0), 0);
}

TEST(VideoFrameTest, RgbPlanes) {
  VideoFrame f(2, 2, 24);
  EXPECT_EQ(f.plane_count(), 3);
  f.Set(1, 0, 10, 0);
  f.Set(1, 0, 20, 1);
  f.Set(1, 0, 30, 2);
  const PlaneView r = f.plane(0);
  const PlaneView g = f.plane(1);
  const PlaneView b = f.plane(2);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.at(1, 0), 10);
  EXPECT_EQ(g.at(1, 0), 20);
  EXPECT_EQ(b.at(1, 0), 30);
  EXPECT_EQ(b.at(0, 0), 0);
}

TEST(VideoFrameTest, MeanAbsoluteError) {
  VideoFrame a(2, 2, 8), b(2, 2, 8);
  b.Set(0, 0, 4);
  EXPECT_DOUBLE_EQ(a.MeanAbsoluteError(b).value(), 1.0);
  VideoFrame c(3, 3, 8);
  EXPECT_FALSE(a.MeanAbsoluteError(c).ok());
}

TEST(AudioBlockTest, InterleavedAccess) {
  AudioBlock block(2, 3);
  EXPECT_EQ(block.frame_count(), 3);
  block.Set(1, 0, -100);
  block.Set(1, 1, 100);
  EXPECT_EQ(block.At(1, 0), -100);
  EXPECT_EQ(block.At(1, 1), 100);
  EXPECT_EQ(block.SizeBytes(), 12u);
}

// ---------------------------------------------------------- MediaDataType --

TEST(MediaDataTypeTest, PaperWellKnownTypes) {
  const auto cd = MediaDataType::CdAudio();
  EXPECT_EQ(cd.kind(), MediaKind::kAudio);
  EXPECT_EQ(cd.channels(), 2);
  EXPECT_EQ(cd.element_rate(), Rational(44100));
  // CD audio: 2ch x 2 bytes x 44100 = 176400 B/s.
  EXPECT_DOUBLE_EQ(cd.NominalBytesPerSecond(), 176400.0);

  const auto ccir = MediaDataType::Ccir601();
  EXPECT_EQ(ccir.width(), 720);
  EXPECT_EQ(ccir.height(), 486);
  EXPECT_EQ(ccir.element_rate(), Rational(30000, 1001));
}

TEST(MediaDataTypeTest, CompressionReducesNominalRate) {
  const auto raw = MediaDataType::Cif();
  const auto mpeg = MediaDataType::CompressedVideo(
      EncodingFamily::kInter, 352, 288, 24, Rational(30));
  EXPECT_LT(mpeg.NominalBytesPerSecond(), raw.NominalBytesPerSecond() / 10);
}

TEST(MediaDataTypeTest, EqualityIsStructural) {
  EXPECT_EQ(MediaDataType::Cif(), MediaDataType::Cif());
  EXPECT_NE(MediaDataType::Cif(), MediaDataType::Qcif());
  EXPECT_NE(MediaDataType::RawVideo(100, 100, 8, Rational(30)),
            MediaDataType::CompressedVideo(EncodingFamily::kIntra, 100, 100, 8,
                                           Rational(30)));
}

TEST(MediaDataTypeTest, ToStringIsInformative) {
  EXPECT_EQ(MediaDataType::Cif().ToString(), "video/raw 352x288x24@30.00");
  EXPECT_EQ(MediaDataType::CdAudio().ToString(), "audio/raw 2ch@44100Hz");
}

// ---------------------------------------------------------- VideoQuality --

TEST(VideoQualityTest, ParsesPaperSyntax) {
  // The paper's §4.1 example: "quality 640 x 480 x 8 @ 30".
  auto q = VideoQuality::Parse("640 x 480 x 8 @ 30");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().width(), 640);
  EXPECT_EQ(q.value().height(), 480);
  EXPECT_EQ(q.value().depth_bits(), 8);
  EXPECT_EQ(q.value().rate(), Rational(30));
}

TEST(VideoQualityTest, ParsesCompactAndNtsc) {
  auto q = VideoQuality::Parse("320x240x8@29.97");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().rate(), Rational(30000, 1001));
}

TEST(VideoQualityTest, RejectsMalformed) {
  EXPECT_FALSE(VideoQuality::Parse("640x480@30").ok());
  EXPECT_FALSE(VideoQuality::Parse("640x480x8").ok());
  EXPECT_FALSE(VideoQuality::Parse("0x480x8@30").ok());
  EXPECT_FALSE(VideoQuality::Parse("640x480x12@30").ok());
  EXPECT_FALSE(VideoQuality::Parse("640x480x8@0").ok());
  EXPECT_FALSE(VideoQuality::Parse("").ok());
}

TEST(VideoQualityTest, SatisfiabilityIsDimensionwise) {
  const auto q = VideoQuality::Parse("320x240x8@30").value();
  EXPECT_TRUE(q.SatisfiableBy(MediaDataType::Cif()));       // 352x288x24@30
  EXPECT_FALSE(q.SatisfiableBy(MediaDataType::Qcif()));     // too small/slow
  EXPECT_FALSE(q.SatisfiableBy(MediaDataType::CdAudio()));  // wrong medium
}

TEST(VideoQualityTest, WeakerOrEqualPartialOrder) {
  const auto lo = VideoQuality::Parse("160x120x8@15").value();
  const auto hi = VideoQuality::Parse("320x240x8@30").value();
  EXPECT_TRUE(lo.WeakerOrEqual(hi));
  EXPECT_FALSE(hi.WeakerOrEqual(lo));
  EXPECT_TRUE(lo.WeakerOrEqual(lo));
}

TEST(VideoQualityTest, RawBytesPerSecond) {
  const auto q = VideoQuality::Parse("320x240x8@30").value();
  EXPECT_DOUBLE_EQ(q.RawBytesPerSecond(), 320.0 * 240 * 1 * 30);
}

TEST(AudioQualityTest, ParseNamesAndSuffix) {
  EXPECT_EQ(ParseAudioQuality("voice").value(), AudioQuality::kVoice);
  EXPECT_EQ(ParseAudioQuality("CD-quality").value(), AudioQuality::kCd);
  EXPECT_EQ(ParseAudioQuality(" FM ").value(), AudioQuality::kFm);
  EXPECT_FALSE(ParseAudioQuality("ultra").ok());
}

TEST(AudioQualityTest, PresetsMatchDefinitions) {
  EXPECT_EQ(AudioQualityChannels(AudioQuality::kVoice), 1);
  EXPECT_EQ(AudioQualitySampleRate(AudioQuality::kCd), Rational(44100));
  EXPECT_TRUE(AudioQualitySatisfiableBy(AudioQuality::kVoice,
                                        MediaDataType::CdAudio()));
  EXPECT_FALSE(AudioQualitySatisfiableBy(AudioQuality::kCd,
                                         MediaDataType::VoiceAudio()));
  EXPECT_DOUBLE_EQ(AudioQualityBytesPerSecond(AudioQuality::kCd), 176400.0);
}

// ------------------------------------------------------------ MediaValue --

TEST(MediaValueTest, PlacementAndDuration) {
  auto video = synthetic::GenerateVideo(
      MediaDataType::RawVideo(16, 16, 8, Rational(10)), 30,
      synthetic::VideoPattern::kMovingGradient);
  ASSERT_TRUE(video.ok());
  MediaValue& v = *video.value();
  EXPECT_EQ(v.ElementCount(), 30);
  EXPECT_EQ(v.NaturalDuration(), WorldTime::FromSeconds(3));
  EXPECT_EQ(v.duration(), WorldTime::FromSeconds(3));
  EXPECT_EQ(v.start(), WorldTime());

  v.Translate(WorldTime::FromSeconds(5));
  EXPECT_EQ(v.start(), WorldTime::FromSeconds(5));
  v.Scale(Rational(2));  // double speed -> half duration
  EXPECT_EQ(v.duration(), WorldTime(Rational(3, 2)));
}

TEST(MediaValueTest, WorldObjectMappingWithPlacement) {
  auto video = synthetic::GenerateVideo(
      MediaDataType::RawVideo(8, 8, 8, Rational(10)), 20,
      synthetic::VideoPattern::kCheckerboard);
  ASSERT_TRUE(video.ok());
  MediaValue& v = *video.value();
  v.Translate(WorldTime::FromSeconds(2));
  // At world 2.0s -> element 0; world 3.0s -> element 10.
  EXPECT_EQ(v.WorldToObject(WorldTime::FromSeconds(2)).value().ticks(), 0);
  EXPECT_EQ(v.WorldToObject(WorldTime::FromSeconds(3)).value().ticks(), 10);
  EXPECT_EQ(v.ObjectToWorld(ObjectTime(10)).value(),
            WorldTime::FromSeconds(3));
  // Outside the extent is an error.
  EXPECT_FALSE(v.WorldToObject(WorldTime::FromSeconds(1)).ok());
  EXPECT_FALSE(v.WorldToObject(WorldTime::FromSeconds(4)).ok());
  EXPECT_FALSE(v.ObjectToWorld(ObjectTime(20)).ok());
}

// ------------------------------------------------------------ VideoValue --

TEST(RawVideoValueTest, TypeChecksOnCreate) {
  EXPECT_FALSE(RawVideoValue::Create(MediaDataType::CdAudio()).ok());
  EXPECT_FALSE(RawVideoValue::Create(
                   MediaDataType::CompressedVideo(EncodingFamily::kIntra, 10,
                                                  10, 8, Rational(10)))
                   .ok());
  EXPECT_TRUE(RawVideoValue::Create(MediaDataType::Qcif()).ok());
}

TEST(RawVideoValueTest, FrameGeometryEnforced) {
  auto v = RawVideoValue::Create(
               MediaDataType::RawVideo(8, 8, 8, Rational(10)))
               .value();
  EXPECT_TRUE(v->AppendFrame(VideoFrame(8, 8, 8)).ok());
  EXPECT_FALSE(v->AppendFrame(VideoFrame(9, 8, 8)).ok());
  EXPECT_FALSE(v->AppendFrame(VideoFrame(8, 8, 24)).ok());
}

TEST(RawVideoValueTest, EditOperations) {
  auto v = synthetic::GenerateVideo(
               MediaDataType::RawVideo(8, 8, 8, Rational(10)), 10,
               synthetic::VideoPattern::kMovingGradient)
               .value();
  // Replace frame 3 with a black frame.
  ASSERT_TRUE(v->ReplaceFrame(3, VideoFrame(8, 8, 8)).ok());
  EXPECT_EQ(v->Frame(3).value(), VideoFrame(8, 8, 8));
  // Delete frames [2, 5).
  ASSERT_TRUE(v->DeleteFrames(2, 3).ok());
  EXPECT_EQ(v->FrameCount(), 7);
  // Insert two black frames at the front.
  ASSERT_TRUE(v->InsertFrames(0, {VideoFrame(8, 8, 8), VideoFrame(8, 8, 8)})
                  .ok());
  EXPECT_EQ(v->FrameCount(), 9);
  EXPECT_EQ(v->Frame(0).value(), VideoFrame(8, 8, 8));
  // Bounds checks.
  EXPECT_FALSE(v->ReplaceFrame(99, VideoFrame(8, 8, 8)).ok());
  EXPECT_FALSE(v->DeleteFrames(8, 5).ok());
  EXPECT_FALSE(v->InsertFrames(99, {}).ok());
}

TEST(RawVideoValueTest, FrameAtUsesTransform) {
  auto v = synthetic::GenerateVideo(
               MediaDataType::RawVideo(8, 8, 8, Rational(10)), 10,
               synthetic::VideoPattern::kMovingBox)
               .value();
  v->Translate(WorldTime::FromSeconds(1));
  auto direct = v->Frame(5);
  auto timed = v->FrameAt(WorldTime::FromMillis(1500));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(timed.ok());
  EXPECT_EQ(direct.value(), timed.value());
}

// ------------------------------------------------------------ AudioValue --

TEST(RawAudioValueTest, SampleAccess) {
  auto a = synthetic::GenerateAudio(MediaDataType::VoiceAudio(), 100,
                                    synthetic::AudioPattern::kTone);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value()->SampleCount(), 100);
  auto block = a.value()->Samples(10, 20);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value().frame_count(), 20);
  EXPECT_FALSE(a.value()->Samples(90, 20).ok());
  EXPECT_FALSE(a.value()->Samples(-1, 5).ok());
}

TEST(RawAudioValueTest, ChannelMismatchRejected) {
  auto a = RawAudioValue::Create(MediaDataType::CdAudio()).value();
  EXPECT_FALSE(a->Append(AudioBlock(1, 10)).ok());
  EXPECT_TRUE(a->Append(AudioBlock(2, 10)).ok());
  EXPECT_EQ(a->SampleCount(), 10);
}

TEST(RawAudioValueTest, SilenceIsSilent) {
  auto a = synthetic::GenerateAudio(MediaDataType::VoiceAudio(), 50,
                                    synthetic::AudioPattern::kSilence)
               .value();
  auto block = a->Samples(0, 50).value();
  for (int f = 0; f < 50; ++f) EXPECT_EQ(block.At(f, 0), 0);
}

// -------------------------------------------------------- TextStreamValue --

TEST(TextStreamValueTest, SpansInOrder) {
  auto t = TextStreamValue::Create(MediaDataType::Text(Rational(30))).value();
  ASSERT_TRUE(t->AppendSpan(0, 60, "first").ok());
  ASSERT_TRUE(t->AppendSpan(90, 60, "second").ok());
  EXPECT_EQ(t->ElementCount(), 150);
  EXPECT_EQ(t->TextAtElement(30), "first");
  EXPECT_EQ(t->TextAtElement(75), "");
  EXPECT_EQ(t->TextAtElement(100), "second");
}

TEST(TextStreamValueTest, OverlapRejected) {
  auto t = TextStreamValue::Create(MediaDataType::Text(Rational(30))).value();
  ASSERT_TRUE(t->AppendSpan(0, 60, "a").ok());
  EXPECT_FALSE(t->AppendSpan(30, 60, "b").ok());
  EXPECT_FALSE(t->AppendSpan(10, 0, "empty").ok());
}

TEST(TextStreamValueTest, TextAtWorldTime) {
  auto t = TextStreamValue::Create(MediaDataType::Text(Rational(30))).value();
  ASSERT_TRUE(t->AppendSpan(0, 30, "hello").ok());
  ASSERT_TRUE(t->AppendSpan(30, 30, "world").ok());
  EXPECT_EQ(t->TextAt(WorldTime::FromMillis(500)).value(), "hello");
  EXPECT_EQ(t->TextAt(WorldTime::FromMillis(1500)).value(), "world");
}

// ------------------------------------------------------------ ImageValue --

TEST(ImageValueTest, WrapsFrame) {
  VideoFrame f(10, 5, 24);
  f.Set(3, 2, 99, 1);
  auto img = ImageValue::FromFrame(f);
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img.value()->ElementCount(), 1);
  EXPECT_EQ(img.value()->frame().At(3, 2, 1), 99);
  EXPECT_EQ(img.value()->type().kind(), MediaKind::kImage);
  EXPECT_FALSE(ImageValue::FromFrame(VideoFrame()).ok());
}

// ------------------------------------------------------------- Synthetic --

TEST(SyntheticTest, VideoIsDeterministic) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto a = synthetic::GenerateVideo(type, 5,
                                    synthetic::VideoPattern::kNoise, 42)
               .value();
  auto b = synthetic::GenerateVideo(type, 5,
                                    synthetic::VideoPattern::kNoise, 42)
               .value();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a->Frame(i).value(), b->Frame(i).value());
  }
  auto c = synthetic::GenerateVideo(type, 5,
                                    synthetic::VideoPattern::kNoise, 43)
               .value();
  EXPECT_NE(a->Frame(0).value(), c->Frame(0).value());
}

TEST(SyntheticTest, MovingBoxActuallyMoves) {
  const auto type = MediaDataType::RawVideo(64, 64, 8, Rational(10));
  auto v = synthetic::GenerateVideo(type, 2,
                                    synthetic::VideoPattern::kMovingBox)
               .value();
  EXPECT_NE(v->Frame(0).value(), v->Frame(1).value());
  // But most pixels are static background (what delta codecs exploit).
  const double mae =
      v->Frame(0).value().MeanAbsoluteError(v->Frame(1).value()).value();
  EXPECT_LT(mae, 40.0);
  EXPECT_GT(mae, 0.0);
}

TEST(SyntheticTest, ToneHasExpectedAmplitude) {
  auto a = synthetic::GenerateAudio(MediaDataType::VoiceAudio(), 8000,
                                    synthetic::AudioPattern::kTone)
               .value();
  auto block = a->Samples(0, 8000).value();
  int16_t peak = 0;
  for (int f = 0; f < 8000; ++f) {
    peak = std::max<int16_t>(peak, std::abs(block.At(f, 0)));
  }
  EXPECT_GT(peak, 15000);
  EXPECT_LE(peak, 20000);
}

TEST(SyntheticTest, SubtitleLayout) {
  auto t = synthetic::GenerateSubtitles(MediaDataType::Text(Rational(30)), 3,
                                        45, 15, "Headline")
               .value();
  EXPECT_EQ(t->spans().size(), 3u);
  EXPECT_EQ(t->TextAtElement(0), "Headline 1");
  EXPECT_EQ(t->TextAtElement(60), "Headline 2");
  EXPECT_EQ(t->TextAtElement(46), "");  // in the gap
}

}  // namespace
}  // namespace avdb
