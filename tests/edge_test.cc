// Edge-path coverage: fragmented storage, jukebox disc placement, graph
// reconfiguration, scalable views, and timecode sweeps — paths the main
// suites touch only incidentally.

#include <gtest/gtest.h>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "media/synthetic.h"
#include "storage/media_store.h"
#include "time/timecode.h"

namespace avdb {
namespace {

using synthetic::GenerateVideo;
using synthetic::VideoPattern;

// ------------------------------------------------- fragmented blob storage --

TEST(FragmentationTest, BlobSplitAcrossExtentsReadsBack) {
  auto device = std::make_shared<BlockDevice>("r0", DeviceProfile::RamDisk());
  MediaStore store(device, nullptr);
  // Fill the disc with alternating blobs, delete every other one: free
  // space is fragmented.
  const int64_t piece = device->capacity() / 8;
  for (int i = 0; i < 8; ++i) {
    Buffer blob(static_cast<size_t>(piece) - 64, static_cast<uint8_t>(i));
    ASSERT_TRUE(store.Put("b" + std::to_string(i), blob).ok());
  }
  for (int i = 0; i < 8; i += 2) {
    ASSERT_TRUE(store.Delete("b" + std::to_string(i)).ok());
  }
  // A blob larger than any single hole must span extents.
  Buffer big(static_cast<size_t>(piece + piece / 2), 0xAB);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 131);
  }
  ASSERT_TRUE(store.Put("big", big).ok());
  auto entry = store.Lookup("big");
  ASSERT_TRUE(entry.ok());
  EXPECT_GT(entry.value()->extents.size(), 1u);
  // Whole-blob read passes the checksum.
  auto whole = store.Get("big");
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().data, big);
  // A range straddling the extent boundary is correct.
  const int64_t boundary = entry.value()->extents[0].length;
  auto range = store.ReadRange("big", boundary - 100, 200);
  ASSERT_TRUE(range.ok());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(range.value().data[static_cast<size_t>(i)],
              big[static_cast<size_t>(boundary - 100 + i)]);
  }
}

// ----------------------------------------------------- jukebox placement --

TEST(JukeboxTest, BlobsSpreadAcrossDiscsAndPayExchange) {
  auto jukebox = std::make_shared<BlockDevice>(
      "juke", DeviceProfile::VideodiscJukebox());
  MediaStore store(jukebox, nullptr);
  // Two large blobs: placement picks the disc with the largest hole, so
  // the second blob lands on a different disc than a mostly-full first.
  const int64_t disc_capacity = jukebox->capacity();
  (void)disc_capacity;
  Buffer a(1024 * 1024, 1);
  Buffer b(1024 * 1024, 2);
  ASSERT_TRUE(store.Put("a", a).ok());
  ASSERT_TRUE(store.Put("b", b).ok());
  const auto& extent_a = store.Lookup("a").value()->extents[0];
  const auto& extent_b = store.Lookup("b").value()->extents[0];
  // Both discs start equally empty; the allocator keeps them on the disc
  // with the largest hole — after blob a, disc 0 has a smaller hole, so b
  // goes to disc 1.
  EXPECT_NE(extent_a.disc, extent_b.disc);
  // The arm is parked on b's disc after the writes; reading a then b pays
  // two exchanges (over and back).
  jukebox->ResetStats();
  ASSERT_TRUE(store.ReadRange("a", 0, 1024).ok());
  ASSERT_TRUE(store.ReadRange("b", 0, 1024).ok());
  EXPECT_EQ(jukebox->stats().disc_exchanges, 2);
  // Re-reading the current disc costs none.
  ASSERT_TRUE(store.ReadRange("b", 2048, 1024).ok());
  EXPECT_EQ(jukebox->stats().disc_exchanges, 2);
}

// ------------------------------------------------------ graph reconfigure --

TEST(GraphReconfigureTest, DisconnectAndRewire) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto value = GenerateVideo(type, 5, VideoPattern::kMovingBox).value();
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(value, VideoSource::kPortOut).ok());
  auto win_a = VideoWindow::Create("a", ActivityLocation::kClient, env,
                                   VideoQuality(16, 16, 8, Rational(10)));
  auto win_b = VideoWindow::Create("b", ActivityLocation::kClient, env,
                                   VideoQuality(16, 16, 8, Rational(10)));
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(win_a).ok());
  ASSERT_TRUE(graph.Add(win_b).ok());
  auto connection = graph.Connect(source.get(), VideoSource::kPortOut,
                                  win_a.get(), VideoWindow::kPortIn);
  ASSERT_TRUE(connection.ok());
  // Reconfigure: disconnect and route to the other window.
  ASSERT_TRUE(graph.Disconnect(connection.value()).ok());
  EXPECT_FALSE(source->FindPort(VideoSource::kPortOut).value()->IsConnected());
  ASSERT_TRUE(graph.Connect(source.get(), VideoSource::kPortOut, win_b.get(),
                            VideoWindow::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();
  EXPECT_EQ(win_a->stats().elements_presented, 0);
  EXPECT_EQ(win_b->stats().elements_presented, 5);
  // Disconnecting an unknown connection fails.
  EXPECT_EQ(graph.Disconnect(nullptr).code(), StatusCode::kNotFound);
}

TEST(GraphReconfigureTest, EmissionToDisconnectedPortCountsDrops) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto value = GenerateVideo(type, 5, VideoPattern::kMovingBox).value();
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env);
  ASSERT_TRUE(source->Bind(value, VideoSource::kPortOut).ok());
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();  // all frames dropped silently, no crash
  EXPECT_EQ(source->state(), MediaActivity::State::kStopped);
}

// ------------------------------------------------------ scalable views ----

TEST(ScalableViewTest, ViewDecodesAndReportsReducedBytes) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto raw = GenerateVideo(type, 6, VideoPattern::kMovingGradient).value();
  auto codec = std::make_shared<ScalableCodec>();
  VideoCodecParams params;
  params.layer_count = 3;
  auto encoded =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();

  auto base = ScalableVideoView::Create(encoded, 1).value();
  auto full = ScalableVideoView::Create(encoded, 3).value();
  EXPECT_LT(base->StoredBytes(), full->StoredBytes() / 4);
  EXPECT_LT(base->StoredFrameBytes(0), full->StoredFrameBytes(0));
  // Both decode at full geometry; full view is closer to the original.
  const double base_err =
      base->Frame(2).value().MeanAbsoluteError(raw->Frame(2).value()).value();
  const double full_err =
      full->Frame(2).value().MeanAbsoluteError(raw->Frame(2).value()).value();
  EXPECT_EQ(base->Frame(2).value().width(), 64);
  EXPECT_LT(full_err, base_err);
  // Invalid layer counts rejected.
  EXPECT_FALSE(ScalableVideoView::Create(encoded, 0).ok());
  EXPECT_FALSE(ScalableVideoView::Create(encoded, 4).ok());
  // Non-scalable stream rejected.
  auto intra = CodecRegistry::Default()
                   .VideoCodecFor(EncodingFamily::kIntra)
                   .value();
  auto bogus =
      EncodedVideoValue::Create(intra, intra->Encode(*raw, params).value())
          .value();
  EXPECT_FALSE(ScalableVideoView::Create(bogus, 1).ok());
  EXPECT_FALSE(ScalableVideoView::Create(nullptr, 1).ok());
}

// ------------------------------------------------------- timecode sweep ----

class TimecodeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TimecodeSweepTest, NonDropFormatsParseBackExactly) {
  const int fps = GetParam();
  for (int64_t frame = 0; frame < 3 * 3600LL * fps;
       frame += 7919) {  // prime stride over 3 hours
    const Timecode tc = Timecode::FromFrameNumber(frame, fps);
    auto parsed = Timecode::Parse(tc.ToString(), fps);
    ASSERT_TRUE(parsed.ok()) << tc.ToString();
    EXPECT_EQ(parsed.value().frame_number(), frame) << tc.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, TimecodeSweepTest,
                         ::testing::Values(24, 25, 30));

TEST(TimecodeSweepTest, DropFrameRoundTripsOverAnHour) {
  const Rational rate(30000, 1001);
  for (int64_t frame = 0; frame < (rate * Rational(3700)).Truncated();
       frame += 997) {
    const Timecode tc = Timecode::FromFrameNumber(frame, 30, true);
    auto parsed = Timecode::Parse(tc.ToString(), 30);
    ASSERT_TRUE(parsed.ok()) << tc.ToString() << " frame " << frame;
    EXPECT_EQ(parsed.value().frame_number(), frame) << tc.ToString();
    EXPECT_TRUE(parsed.value().drop_frame());
  }
}

TEST(TimecodeSweepTest, DropFrameStaysNearWallClock) {
  // Drop-frame exists to keep display time near wall time: across 90
  // minutes the error stays bounded (~1 s of display truncation), whereas
  // non-drop 30 fps numbering drifts ~3.6 s per hour.
  const Rational rate(30000, 1001);
  for (int minutes = 1; minutes <= 90; minutes += 7) {
    const int64_t frame = (rate * Rational(minutes * 60)).Rounded();
    const auto f = Timecode::FromFrameNumber(frame, 30, true).ToFields();
    const int64_t display_seconds =
        f.hours * 3600 + f.minutes * 60 + f.seconds;
    EXPECT_NEAR(static_cast<double>(display_seconds),
                static_cast<double>(minutes * 60), 1.2)
        << "at " << minutes << " minutes";
  }
  // Contrast: non-drop numbering of the same NTSC frames is >4 s off after
  // 90 minutes.
  const int64_t frame_90 = (rate * Rational(90 * 60)).Rounded();
  const auto nd = Timecode::FromFrameNumber(frame_90, 30, false).ToFields();
  const int64_t nd_seconds = nd.hours * 3600 + nd.minutes * 60 + nd.seconds;
  EXPECT_LT(nd_seconds, 90 * 60 - 4);
}

// ---------------------------------------------------- StoredFrameBytes ----

TEST(StoredFrameBytesTest, RepresentationsReportTheirFootprint) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto raw = GenerateVideo(type, 4, VideoPattern::kMovingBox).value();
  EXPECT_EQ(raw->StoredFrameBytes(0), 32 * 32);
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  auto encoded =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, {}).value())
          .value();
  EXPECT_GT(encoded->StoredFrameBytes(0), 0);
  EXPECT_LT(encoded->StoredFrameBytes(0), 32 * 32);
  EXPECT_EQ(encoded->StoredFrameBytes(99), 0);  // out of range
  // Sum of per-frame footprints ~= total stored bytes.
  int64_t total = 0;
  for (int64_t i = 0; i < 4; ++i) total += encoded->StoredFrameBytes(i);
  EXPECT_NEAR(static_cast<double>(total),
              static_cast<double>(encoded->StoredBytes()), 64);
}

}  // namespace
}  // namespace avdb
