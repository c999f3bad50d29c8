#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/rng.h"
#include "codec/audio_codec.h"
#include "codec/block_transform.h"
#include "codec/delta_codec.h"
#include "codec/encoded_value.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "codec/simd/kernels.h"
#include "codec/varint.h"
#include "media/synthetic.h"

namespace avdb {
namespace {

using synthetic::AudioPattern;
using synthetic::GenerateAudio;
using synthetic::GenerateVideo;
using synthetic::VideoPattern;

/// Restores runtime kernel dispatch however a test exits.
struct KernelGuard {
  ~KernelGuard() { simd::ResetKernelsForTest(); }
};

// ----------------------------------------------------------------- Varint --

// A read past the end fails with DataLoss and returns 0.
TEST(VarintReaderTest, UnderrunIsDataLoss) {
  VarintWriter w;
  w.WriteVarint(5);
  w.WriteVarint(300);  // two bytes
  const Buffer buf = w.Finish();
  VarintReader r(buf.data(), buf.size() - 1);
  EXPECT_EQ(r.ReadVarint(), 5u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.ReadVarint(), 0u);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// A varint longer than ten bytes fails, and the error sticks: the valid
// varints after it read as 0.
TEST(VarintReaderTest, OverlongVarintIsDataLossAndSticks) {
  Buffer buf;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) buf.AppendU8(0x80);
  for (size_t i = 0; i < kMaxVarintBytes + 2; ++i) buf.AppendU8(0x07);
  VarintReader r(buf);
  EXPECT_EQ(r.ReadVarint(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.ReadVarint(), 0u);
  EXPECT_EQ(r.ReadSignedVarint(), 0);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

class VarintPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintPropertyTest, SignedAndUnsignedRoundTrip) {
  Rng rng(GetParam());
  VarintWriter w;
  std::vector<uint64_t> unsigned_vals;
  std::vector<int64_t> signed_vals;
  for (int i = 0; i < 200; ++i) {
    const uint64_t u = rng.NextU64() >> (rng.NextBelow(64));
    const int64_t s = static_cast<int64_t>(rng.NextU64()) >>
                      rng.NextBelow(63);
    unsigned_vals.push_back(u);
    signed_vals.push_back(s);
    w.WriteVarint(u);
    w.WriteSignedVarint(s);
  }
  Buffer buf = w.Finish();
  VarintReader r(buf);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.ReadVarint(), unsigned_vals[i]);
    EXPECT_EQ(r.ReadSignedVarint(), signed_vals[i]);
  }
  EXPECT_TRUE(r.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintPropertyTest,
                         ::testing::Values(100, 200, 300));

// -------------------------------------------------------- BlockTransform --

TEST(BlockTransformTest, DctInverseRecoversSpatial) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    block_transform::Block block;
    for (auto& v : block) {
      v = static_cast<int16_t>(rng.NextInRange(-128, 127));
    }
    const auto coeffs = block_transform::ForwardDct(block);
    const auto back = block_transform::InverseDct(coeffs);
    for (int i = 0; i < block_transform::kBlockArea; ++i) {
      EXPECT_NEAR(back[i], block[i], 2) << "position " << i;
    }
  }
}

TEST(BlockTransformTest, QuantStepsDecreaseWithQuality) {
  for (int i = 0; i < block_transform::kBlockArea; ++i) {
    EXPECT_LE(block_transform::QuantStep(i, 90),
              block_transform::QuantStep(i, 30));
    EXPECT_GE(block_transform::QuantStep(i, 1), 1);
  }
  // Quality 100 is near-lossless: every step is 1 or 2.
  for (int i = 0; i < block_transform::kBlockArea; ++i) {
    EXPECT_LE(block_transform::QuantStep(i, 100), 2);
  }
}

TEST(BlockTransformTest, PlaneRoundTripAtHighQuality) {
  const int w = 20, h = 12;  // deliberately not multiples of 8
  std::vector<int16_t> plane(w * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) plane[y * w + x] = static_cast<int16_t>((x * 9 + y * 5) % 200 - 100);
  }
  VarintWriter writer;
  std::vector<int16_t> recon(w * h);
  block_transform::EncodePlane(plane.data(), w, h, 100, &writer,
                               recon.data());
  Buffer bits = writer.Finish();
  VarintReader reader(bits);
  std::vector<int16_t> decoded(w * h);
  ASSERT_TRUE(
      block_transform::DecodePlaneInto(w, h, 100, &reader, decoded.data())
          .ok());
  double err = 0;
  for (int i = 0; i < w * h; ++i) err += std::abs(decoded[i] - plane[i]);
  EXPECT_LT(err / (w * h), 3.0);
  // The encoder's reconstruction is the decoder's output, sample for sample.
  EXPECT_EQ(recon, decoded);
}

TEST(BlockTransformTest, TruncatedStreamFailsCleanly) {
  std::vector<int16_t> plane(64, 50);
  VarintWriter writer;
  block_transform::EncodePlane(plane.data(), 8, 8, 75, &writer);
  Buffer bits = writer.Finish();
  Buffer truncated;
  truncated.AppendBytes(bits.data(), bits.size() / 2);
  VarintReader reader(truncated);
  std::vector<int16_t> decoded(64);
  const Status status =
      block_transform::DecodePlaneInto(8, 8, 75, &reader, decoded.data());
  // A varint stream has no padding, so a cut one never decodes by luck.
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  VarintReader onto_reader(truncated);
  std::vector<uint8_t> predicted(64, 128);
  EXPECT_EQ(block_transform::DecodePlaneOnto(8, 8, 75, &onto_reader,
                                             predicted.data())
                .code(),
            StatusCode::kDataLoss);
}

// The in-place decoder against the scalar DecodePlaneInto + reconstruct_u8
// at every kernel level, on a hand-built stream no encoder writes: levels
// up to int32's ends (dequantize clamps them, the transforms saturate
// them), sparse blocks of every shape — one coefficient, two in one
// column, two in two columns — and dense ones, in a plane with edge
// blocks, onto a random prediction and onto the intra codec's 128.
TEST(BlockTransformTest, InPlaceDecodeEqualsDecodeThenReconstruct) {
  constexpr int kWidth = 36, kHeight = 20;  // 5×3 blocks, both edges cut
  constexpr int kQuality = 60;
  Rng rng(11);
  const auto hostile = [&rng] {
    return static_cast<int32_t>(rng.NextInRange(INT32_MIN + 1, INT32_MAX));
  };
  VarintWriter writer;
  int32_t dc_predictor = 0;
  for (int b = 0; b < 15; ++b) {
    block_transform::CoeffBlock coeffs{};
    switch (b % 8) {
      case 0:  // all zero: the prediction stands
        break;
      case 1:
        coeffs[0] = static_cast<int32_t>(rng.NextInRange(-4000, 4000));
        break;
      case 2:
        coeffs[63] = INT32_MAX;
        break;
      case 3:  // one column, two rows
        coeffs[9] = -5;
        coeffs[57] = 7;
        break;
      case 4:  // two columns
        coeffs[0] = -3;
        coeffs[18] = hostile();
        break;
      case 5:
        coeffs[1] = 2;
        coeffs[8] = -2;
        coeffs[27] = hostile();
        break;
      case 6:
        for (int i = 1; i < block_transform::kBlockArea; ++i) {
          coeffs[i] = hostile();
        }
        break;
      default:
        coeffs[static_cast<size_t>(rng.NextBelow(64))] =
            static_cast<int32_t>(rng.NextInRange(-40, 40)) | 1;
        break;
    }
    block_transform::EncodeBlock(coeffs, &dc_predictor, &writer);
  }
  const Buffer bits = writer.Finish();

  KernelGuard guard;
  ASSERT_TRUE(simd::ForceKernelsForTest(simd::KernelLevel::kScalar));
  VarintReader reader(bits);
  std::vector<int16_t> residual(kWidth * kHeight);
  ASSERT_TRUE(block_transform::DecodePlaneInto(kWidth, kHeight, kQuality,
                                               &reader, residual.data())
                  .ok());
  std::vector<uint8_t> random_pred(residual.size());
  for (auto& v : random_pred) v = static_cast<uint8_t>(rng.NextBelow(256));
  for (const std::vector<uint8_t>& pred :
       {random_pred, std::vector<uint8_t>(residual.size(), 128)}) {
    std::vector<uint8_t> want(residual.size());
    simd::ScalarKernels().reconstruct_u8(pred.data(), residual.data(),
                                         want.data(), want.size());
    for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
      ASSERT_TRUE(simd::ForceKernelsForTest(level));
      std::vector<uint8_t> got = pred;
      VarintReader onto_reader(bits);
      ASSERT_TRUE(block_transform::DecodePlaneOnto(kWidth, kHeight, kQuality,
                                                   &onto_reader, got.data())
                      .ok());
      EXPECT_EQ(want, got) << simd::KernelLevelName(level);
    }
  }
}

// ------------------------------------------------------------ Video codecs --

struct CodecCase {
  EncodingFamily family;
  VideoPattern pattern;
  int depth_bits;
};

class VideoCodecRoundTripTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(VideoCodecRoundTripTest, EncodeDecodeWithinTolerance) {
  const auto& c = GetParam();
  const auto type = MediaDataType::RawVideo(48, 32, c.depth_bits, Rational(10));
  auto video = GenerateVideo(type, 15, c.pattern).value();
  auto codec = CodecRegistry::Default().VideoCodecFor(c.family).value();
  VideoCodecParams params;
  params.quality = 85;
  params.gop_size = 5;
  auto encoded = codec->Encode(*video, params);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value().frames.size(), 15u);

  auto session = codec->NewDecoder(encoded.value());
  ASSERT_TRUE(session.ok());
  for (int64_t i = 0; i < 15; ++i) {
    auto decoded = session.value()->DecodeFrame(i);
    ASSERT_TRUE(decoded.ok()) << "frame " << i;
    const double mae =
        decoded.value().MeanAbsoluteError(video->Frame(i).value()).value();
    EXPECT_LT(mae, 14.0) << "frame " << i << " family "
                         << EncodingFamilyName(c.family);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPatterns, VideoCodecRoundTripTest,
    ::testing::Values(
        CodecCase{EncodingFamily::kIntra, VideoPattern::kMovingGradient, 8},
        CodecCase{EncodingFamily::kIntra, VideoPattern::kCheckerboard, 24},
        CodecCase{EncodingFamily::kInter, VideoPattern::kMovingBox, 8},
        CodecCase{EncodingFamily::kInter, VideoPattern::kMovingGradient, 24},
        CodecCase{EncodingFamily::kDelta, VideoPattern::kMovingBox, 8},
        CodecCase{EncodingFamily::kDelta, VideoPattern::kCheckerboard, 8},
        CodecCase{EncodingFamily::kScalable, VideoPattern::kMovingGradient,
                  8},
        CodecCase{EncodingFamily::kScalable, VideoPattern::kMovingBox, 24}));

// ----------------------------------------------------------- Known answers --

// FastHash64 of each video codec's serialized stream and of its decoded
// planes. The 50x38 clip leaves partial 8x8 and 16x16 blocks on both edges,
// and 26 frames at gop 6 end in a short GOP of two. Concurrency is an
// execution policy, so both widths must reproduce the same answers. The
// scalable codec resamples in double precision; the project builds with
// -ffp-contract=off, so no target fuses its multiply-adds and the answers
// hold wherever the IEEE operations do.
struct KnownAnswer {
  EncodingFamily family;
  uint64_t stream_hash;
  uint64_t frames_hash;
};

void PrintTo(const KnownAnswer& answer, std::ostream* os) {
  *os << EncodingFamilyName(answer.family);
}

class CodecKnownAnswerTest : public ::testing::TestWithParam<KnownAnswer> {};

TEST_P(CodecKnownAnswerTest, StreamAndFramesMatchAtEveryConcurrency) {
  const KnownAnswer& answer = GetParam();
  constexpr int64_t kFrames = 26;
  const auto type = MediaDataType::RawVideo(50, 38, 24, Rational(10));
  auto video = GenerateVideo(type, kFrames, VideoPattern::kMovingBox).value();
  auto codec = CodecRegistry::Default().VideoCodecFor(answer.family).value();
  for (int concurrency : {1, 4}) {
    VideoCodecParams params;
    params.quality = 70;
    params.gop_size = 6;
    params.layer_count = 3;
    params.concurrency = concurrency;
    auto encoded = codec->Encode(*video, params);
    ASSERT_TRUE(encoded.ok());
    const Buffer stream = encoded.value().Serialize();
    EXPECT_EQ(FastHash64(stream.data(), stream.size()), answer.stream_hash)
        << std::hex << "stream 0x" << FastHash64(stream.data(), stream.size())
        << std::dec << " at concurrency " << concurrency;

    auto range = codec->NewDecoder(encoded.value()).value()->DecodeRange(
        0, kFrames);
    ASSERT_TRUE(range.ok());
    std::vector<uint8_t> planes;
    for (const VideoFrame& frame : range.value()) {
      planes.insert(planes.end(), frame.data().begin(), frame.data().end());
    }
    EXPECT_EQ(FastHash64(planes.data(), planes.size()), answer.frames_hash)
        << std::hex << "frames 0x" << FastHash64(planes.data(), planes.size())
        << std::dec << " at concurrency " << concurrency;

    // One frame at a time, on a fresh session, decodes the same frames.
    auto session = codec->NewDecoder(encoded.value()).value();
    for (int64_t i = 0; i < kFrames; ++i) {
      auto frame = session->DecodeFrame(i);
      ASSERT_TRUE(frame.ok());
      EXPECT_TRUE(frame.value() == range.value()[static_cast<size_t>(i)])
          << "frame " << i << " at concurrency " << concurrency;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CodecKnownAnswerTest,
    ::testing::Values(
        KnownAnswer{EncodingFamily::kIntra, 0x69f0507f642e6c27,
                    0x26ef016e90628f9d},
        KnownAnswer{EncodingFamily::kInter, 0x2960ebc232ef9684,
                    0x2e98b82f7251ed11},
        KnownAnswer{EncodingFamily::kScalable, 0x1f1d392faef1101c,
                    0x7c89f4d63166b2db},
        KnownAnswer{EncodingFamily::kDelta, 0x4bed6ec5786cd2e7,
                    0x7e2f22e40622f447}),
    [](const ::testing::TestParamInfo<KnownAnswer>& info) {
      return std::string(EncodingFamilyName(info.param.family));
    });

// The scalable decoder at fewer layers than stored, on the same clip: the
// only decodes whose last layer is upsampled to full size.
TEST(ScalableKnownAnswerTest, FewerLayerFramesMatchAtEveryConcurrency) {
  constexpr int64_t kFrames = 26;
  const auto type = MediaDataType::RawVideo(50, 38, 24, Rational(10));
  auto video = GenerateVideo(type, kFrames, VideoPattern::kMovingBox).value();
  const struct {
    int layers;
    uint64_t frames_hash;
  } answers[] = {{1, 0xf0ab509e7a0ee412}, {2, 0xfd132ccf524c1511}};
  ScalableCodec codec;
  for (int concurrency : {1, 4}) {
    VideoCodecParams params;
    params.quality = 70;
    params.layer_count = 3;
    params.concurrency = concurrency;
    auto encoded = codec.Encode(*video, params);
    ASSERT_TRUE(encoded.ok());
    for (const auto& answer : answers) {
      auto range = codec.NewDecoderWithLayers(encoded.value(), answer.layers)
                       .value()
                       ->DecodeRange(0, kFrames);
      ASSERT_TRUE(range.ok());
      std::vector<uint8_t> planes;
      for (const VideoFrame& frame : range.value()) {
        planes.insert(planes.end(), frame.data().begin(), frame.data().end());
      }
      EXPECT_EQ(FastHash64(planes.data(), planes.size()), answer.frames_hash)
          << std::hex << "frames 0x"
          << FastHash64(planes.data(), planes.size()) << std::dec << " at "
          << answer.layers << " layers, concurrency " << concurrency;
    }
  }
}

TEST(IntraCodecTest, EveryFrameIsAccessPoint) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto video = GenerateVideo(type, 6, VideoPattern::kMovingGradient).value();
  auto encoded = IntraCodec().Encode(*video, {}).value();
  for (const auto& f : encoded.frames) EXPECT_TRUE(f.is_intra);
}

TEST(InterCodecTest, GopStructure) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto video = GenerateVideo(type, 10, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 4;
  auto encoded = InterCodec().Encode(*video, params).value();
  for (size_t i = 0; i < encoded.frames.size(); ++i) {
    EXPECT_EQ(encoded.frames[i].is_intra, i % 4 == 0) << "frame " << i;
  }
  EXPECT_EQ(encoded.AccessPointBefore(6).value(), 4);
  EXPECT_EQ(encoded.AccessPointBefore(3).value(), 0);
}

TEST(InterCodecTest, CompressesBetterThanIntraOnStaticContent) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 12, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.quality = 75;
  params.gop_size = 12;
  const int64_t inter_bytes =
      InterCodec().Encode(*video, params).value().TotalBytes();
  const int64_t intra_bytes =
      IntraCodec().Encode(*video, params).value().TotalBytes();
  EXPECT_LT(inter_bytes, intra_bytes);
}

TEST(InterCodecTest, SeekCostIsGopReentry) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto video = GenerateVideo(type, 20, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 10;
  auto encoded = InterCodec().Encode(*video, params).value();
  auto session = InterCodec().NewDecoder(encoded).value();
  // Jumping straight to frame 15 must decode 10..15 = 6 frames.
  ASSERT_TRUE(session->DecodeFrame(15).ok());
  EXPECT_EQ(session->FramesDecodedInternally(), 6);
  // Sequential next frame costs exactly one more.
  ASSERT_TRUE(session->DecodeFrame(16).ok());
  EXPECT_EQ(session->FramesDecodedInternally(), 7);
  // Backward seek within the same GOP re-enters at the I-frame.
  ASSERT_TRUE(session->DecodeFrame(12).ok());
  EXPECT_EQ(session->FramesDecodedInternally(), 10);
}

TEST(InterCodecTest, RejectsBadParams) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto video = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 0;
  EXPECT_FALSE(InterCodec().Encode(*video, params).ok());
  params.gop_size = 4;
  params.search_range = 0;
  EXPECT_FALSE(InterCodec().Encode(*video, params).ok());
}

TEST(DeltaCodecTest, LosslessAtQuality100OnSmallDeltas) {
  const auto type = MediaDataType::RawVideo(24, 24, 8, Rational(10));
  auto video = GenerateVideo(type, 8, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.quality = 100;  // step 1 -> exact deltas
  auto encoded = DeltaCodec().Encode(*video, params).value();
  auto session = DeltaCodec().NewDecoder(encoded).value();
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(session->DecodeFrame(i).value(), video->Frame(i).value());
  }
}

TEST(DeltaCodecTest, StepForQualityEndpoints) {
  EXPECT_EQ(DeltaCodec::StepForQuality(100), 1);
  EXPECT_EQ(DeltaCodec::StepForQuality(1), 16);
  EXPECT_GT(DeltaCodec::StepForQuality(30), DeltaCodec::StepForQuality(80));
}

TEST(ScalableCodecTest, FewerLayersFewerBytes) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 4, VideoPattern::kMovingGradient).value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto encoded = ScalableCodec().Encode(*video, params).value();
  const int64_t b1 = ScalableCodec::BytesPerFrameAtLayers(encoded, 1).value();
  const int64_t b2 = ScalableCodec::BytesPerFrameAtLayers(encoded, 2).value();
  const int64_t b3 = ScalableCodec::BytesPerFrameAtLayers(encoded, 3).value();
  EXPECT_LT(b1, b2);
  EXPECT_LT(b2, b3);
}

TEST(ScalableCodecTest, MoreLayersLessError) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 3, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.layer_count = 3;
  params.quality = 85;
  ScalableCodec codec;
  auto encoded = codec.Encode(*video, params).value();
  double prev_mae = 1e9;
  for (int layers = 1; layers <= 3; ++layers) {
    auto session = codec.NewDecoderWithLayers(encoded, layers).value();
    double mae = 0;
    for (int64_t i = 0; i < 3; ++i) {
      mae += session->DecodeFrame(i)
                 .value()
                 .MeanAbsoluteError(video->Frame(i).value())
                 .value();
    }
    mae /= 3;
    EXPECT_LT(mae, prev_mae) << layers << " layers";
    prev_mae = mae;
  }
  EXPECT_LT(prev_mae, 8.0);  // full-layer decode is close
}

TEST(ScalableCodecTest, LayersForResolution) {
  const auto stored = MediaDataType::RawVideo(640, 480, 8, Rational(30));
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 160, 120), 1);
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 320, 240), 2);
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 640, 480), 3);
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 161, 120), 2);
}

TEST(ScalableCodecTest, RejectsUnstoredLayerCount) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto video = GenerateVideo(type, 2, VideoPattern::kMovingGradient).value();
  VideoCodecParams params;
  params.layer_count = 2;
  auto encoded = ScalableCodec().Encode(*video, params).value();
  EXPECT_FALSE(ScalableCodec().NewDecoderWithLayers(encoded, 3).ok());
  EXPECT_FALSE(ScalableCodec().NewDecoderWithLayers(encoded, 0).ok());
  EXPECT_TRUE(ScalableCodec().NewDecoderWithLayers(encoded, 2).ok());
}

// -------------------------------------------------- EncodedVideo storage --

TEST(EncodedVideoTest, SerializeDeserializeRoundTrip) {
  const auto type = MediaDataType::RawVideo(32, 24, 24, Rational(30000, 1001));
  auto video = GenerateVideo(type, 5, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 3;
  auto encoded = InterCodec().Encode(*video, params).value();
  Buffer bytes = encoded.Serialize();
  auto restored = EncodedVideo::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().family, EncodingFamily::kInter);
  EXPECT_EQ(restored.value().raw_type, type);
  EXPECT_EQ(restored.value().params.gop_size, 3);
  ASSERT_EQ(restored.value().frames.size(), encoded.frames.size());
  for (size_t i = 0; i < encoded.frames.size(); ++i) {
    EXPECT_EQ(restored.value().frames[i].data, encoded.frames[i].data);
    EXPECT_EQ(restored.value().frames[i].is_intra, encoded.frames[i].is_intra);
  }
  // Restored stream decodes identically.
  auto session = InterCodec().NewDecoder(restored.value()).value();
  EXPECT_TRUE(session->DecodeFrame(4).ok());
}

TEST(EncodedVideoTest, DeserializeRejectsCorruption) {
  EXPECT_FALSE(EncodedVideo::Deserialize(Buffer()).ok());
  Buffer garbage;
  garbage.AppendU32(0x12345678);
  EXPECT_FALSE(EncodedVideo::Deserialize(garbage).ok());
}

// ----------------------------------------------------------- Audio codecs --

class AudioCodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<EncodingFamily, AudioPattern>> {};

TEST_P(AudioCodecRoundTripTest, SnrIsReasonable) {
  const auto [family, pattern] = GetParam();
  const auto type = MediaDataType::CdAudio();
  auto audio = GenerateAudio(type, 4096, pattern).value();
  auto codec = CodecRegistry::Default().AudioCodecFor(family).value();
  auto encoded = codec->Encode(*audio);
  ASSERT_TRUE(encoded.ok());

  // Wrap in a value and read back all samples.
  auto value = EncodedAudioValue::Create(codec, encoded.value()).value();
  ASSERT_EQ(value->SampleCount(), 4096);
  auto decoded = value->Samples(0, 4096).value();
  auto original = audio->Samples(0, 4096).value();

  double signal = 0, noise = 0;
  for (int f = 0; f < 4096; ++f) {
    for (int c = 0; c < 2; ++c) {
      const double s = original.At(f, c);
      const double e = s - decoded.At(f, c);
      signal += s * s;
      noise += e * e;
    }
  }
  if (signal == 0) {
    EXPECT_LT(noise, 1e6);  // silence should stay near-silent
  } else {
    const double snr_db = 10.0 * std::log10(signal / (noise + 1e-9));
    EXPECT_GT(snr_db, 12.0) << "family " << EncodingFamilyName(family);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPatterns, AudioCodecRoundTripTest,
    ::testing::Combine(::testing::Values(EncodingFamily::kMulaw,
                                         EncodingFamily::kAdpcm),
                       ::testing::Values(AudioPattern::kTone,
                                         AudioPattern::kChirp,
                                         AudioPattern::kSpeechLike)));

// A value whose header its readers would divide by, or loop on, is refused
// when it is made, not when Samples first reads it.
TEST(EncodedAudioValueTest, CreateRefusesAShapeItsReadersCannotUse) {
  const std::function<void(EncodedAudio*)> kShapes[] = {
      [](EncodedAudio* a) {
        a->raw_type = MediaDataType::RawAudio(0, Rational(8000));
      },
      [](EncodedAudio* a) { a->chunk_frames = 0; },
      [](EncodedAudio* a) { a->chunks.pop_back(); }};
  auto raw = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                           AudioPattern::kSpeechLike)
                 .value();
  for (EncodingFamily family :
       {EncodingFamily::kAdpcm, EncodingFamily::kMulaw}) {
    auto codec = CodecRegistry::Default().AudioCodecFor(family).value();
    for (size_t i = 0; i < std::size(kShapes); ++i) {
      EncodedAudio encoded = codec->Encode(*raw).value();
      kShapes[i](&encoded);
      auto value = EncodedAudioValue::Create(codec, std::move(encoded));
      ASSERT_FALSE(value.ok()) << EncodingFamilyName(family) << " shape " << i;
      EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument)
          << EncodingFamilyName(family) << " shape " << i;
    }
  }
}

TEST(MulawCodecTest, ScalarCompandingMonotone) {
  int16_t prev_decoded = -32768;
  for (int v = -32000; v <= 32000; v += 997) {
    const uint8_t m = MulawCodec::CompandSample(static_cast<int16_t>(v));
    const int16_t back = MulawCodec::ExpandSample(m);
    EXPECT_GE(back, prev_decoded);  // non-decreasing
    EXPECT_NEAR(back, v, 1100);     // within one segment step
    prev_decoded = back;
  }
}

TEST(MulawCodecTest, CompressionRatioIsTwo) {
  auto audio = GenerateAudio(MediaDataType::CdAudio(), 2048,
                             AudioPattern::kChirp)
                   .value();
  auto encoded = MulawCodec().Encode(*audio).value();
  EXPECT_EQ(encoded.TotalBytes(), audio->StoredBytes() / 2);
}

TEST(AdpcmCodecTest, CompressionRatioIsFour) {
  auto audio = GenerateAudio(MediaDataType::CdAudio(), 2048,
                             AudioPattern::kChirp)
                   .value();
  auto encoded = AdpcmCodec().Encode(*audio).value();
  // 4:1 on the body plus a small per-chunk header.
  EXPECT_LT(encoded.TotalBytes(), audio->StoredBytes() / 4 + 32);
}

// Integer-only PCM (no libm, so the known answers below hold on every
// platform): a random walk with occasional full-scale jumps, so the step
// index sweeps its whole range. 3000 frames make a short last chunk.
constexpr int64_t kKnownAnswerFrames = 3000;

std::shared_ptr<EncodedAudioValue> KnownAnswerAdpcm(int channels) {
  AudioBlock pcm(channels, static_cast<int>(kKnownAnswerFrames));
  Rng rng(2024 + static_cast<uint64_t>(channels));
  for (int c = 0; c < channels; ++c) {
    int64_t v = 0;
    for (int f = 0; f < kKnownAnswerFrames; ++f) {
      if (rng.NextBelow(64) == 0) {
        v = static_cast<int64_t>(rng.NextBelow(65536)) - 32768;
      } else {
        v += static_cast<int64_t>(rng.NextBelow(2049)) - 1024;
        v = std::min<int64_t>(32767, std::max<int64_t>(-32768, v));
      }
      pcm.Set(f, c, static_cast<int16_t>(v));
    }
  }
  auto raw = RawAudioValue::FromBlock(
                 MediaDataType::RawAudio(channels, Rational(8000)),
                 std::move(pcm))
                 .value();
  auto codec = std::make_shared<AdpcmCodec>();
  return EncodedAudioValue::Create(codec, codec->Encode(*raw).value())
      .value();
}

// FastHash64 over the samples as little-endian bytes.
uint64_t SampleDigest(const std::vector<int16_t>& samples) {
  Buffer bytes;
  for (int16_t s : samples) bytes.AppendU16(static_cast<uint16_t>(s));
  return FastHash64(bytes.data(), bytes.size());
}

TEST(AdpcmCodecTest, DecodeKnownAnswers) {
  // Pins decoded ADPCM output: every chunk, and Samples over chunk-aligned,
  // unaligned, chunk-straddling and short-last-chunk ranges. The answers
  // were taken from the earlier decoder that read each code byte through a
  // BufferReader and copied samples one at a time.
  struct Range {
    int64_t first;
    int64_t count;
  };
  const Range kRanges[] = {{1024, 1024}, {37, 500}, {1000, 1100}, {2990, 10}};
  struct Answers {
    int channels;
    uint64_t chunks;
    uint64_t ranges[4];
  };
  const Answers kAnswers[] = {
      {1, 0xFD150EC73C7D9A96ULL,
       {0x937FFC01C421E729ULL, 0x3CF4A3BFE3A39877ULL, 0xAC81267F9FB8F137ULL,
        0x3BDCB750AC43E245ULL}},
      {2, 0x7527152C2EE7D9B4ULL,
       {0x3EFBA48BFEBCC810ULL, 0x0AFF9937FD184CF2ULL, 0xA7DBAAA46AE73022ULL,
        0x6DD7AF5EB84DD57DULL}},
  };
  AdpcmCodec codec;
  for (const Answers& want : kAnswers) {
    auto value = KnownAnswerAdpcm(want.channels);
    const EncodedAudio& encoded = value->encoded();
    ASSERT_EQ(encoded.chunks.size(), 3u);
    std::vector<int16_t> all;
    for (size_t i = 0; i < encoded.chunks.size(); ++i) {
      auto chunk = codec.DecodeChunk(encoded, static_cast<int64_t>(i));
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      all.insert(all.end(), chunk.value().samples().begin(),
                 chunk.value().samples().end());
    }
    EXPECT_EQ(all.size(),
              static_cast<size_t>(kKnownAnswerFrames * want.channels));
    EXPECT_EQ(SampleDigest(all), want.chunks) << want.channels << " ch";
    for (size_t r = 0; r < 4; ++r) {
      auto block = value->Samples(kRanges[r].first, kRanges[r].count);
      ASSERT_TRUE(block.ok()) << block.status();
      EXPECT_EQ(block.value().frame_count(), kRanges[r].count);
      EXPECT_EQ(SampleDigest(block.value().samples()), want.ranges[r])
          << want.channels << " ch, range " << r;
    }
  }
}

TEST(AdpcmCodecTest, ShortChunkIsDataLossAndTrailingBytesAreIgnored) {
  for (int channels : {1, 2}) {
    EncodedAudio encoded = KnownAnswerAdpcm(channels)->encoded();
    AdpcmCodec codec;
    const AudioBlock whole = codec.DecodeChunk(encoded, 1).value();
    EncodedAudio longer = encoded;
    longer.chunks[1].AppendU8(0xAB);
    EXPECT_EQ(codec.DecodeChunk(longer, 1).value(), whole);
    // Cut short in the body, and in the header.
    for (size_t keep : {encoded.chunks[1].size() - 1, size_t{2}}) {
      EncodedAudio cut = encoded;
      cut.chunks[1].Resize(keep);
      EXPECT_EQ(codec.DecodeChunk(cut, 1).status().code(),
                StatusCode::kDataLoss)
          << channels << " ch, " << keep << " bytes";
    }
  }
}

TEST(AdpcmCodecTest, StepIndexOutOfRangeIsDataLoss) {
  // The header's step index selects one of 89 step sizes; a corrupt one
  // must be refused, not used to index past the table.
  for (int channels : {1, 2}) {
    EncodedAudio encoded = KnownAnswerAdpcm(channels)->encoded();
    AdpcmCodec codec;
    encoded.chunks[0][3 * static_cast<size_t>(channels) - 1] = 88;
    EXPECT_TRUE(codec.DecodeChunk(encoded, 0).ok());
    encoded.chunks[0][3 * static_cast<size_t>(channels) - 1] = 89;
    EXPECT_EQ(codec.DecodeChunk(encoded, 0).status().code(),
              StatusCode::kDataLoss)
        << channels << " ch";
  }
}

TEST(EncodedAudioTest, SerializeRoundTrip) {
  auto audio = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                             AudioPattern::kSpeechLike)
                   .value();
  auto encoded = AdpcmCodec().Encode(*audio).value();
  auto restored = EncodedAudio::Deserialize(encoded.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().total_frames, 3000);
  EXPECT_EQ(restored.value().chunks.size(), encoded.chunks.size());
  for (size_t i = 0; i < encoded.chunks.size(); ++i) {
    EXPECT_EQ(restored.value().chunks[i], encoded.chunks[i]);
  }
}

TEST(EncodedAudioTest, ChunkBoundarySpanningRead) {
  auto audio = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                             AudioPattern::kTone)
                   .value();
  auto codec = std::make_shared<MulawCodec>();
  auto value =
      EncodedAudioValue::Create(codec, codec->Encode(*audio).value()).value();
  // Read a range straddling the 1024-frame chunk boundary.
  auto block = value->Samples(1000, 100);
  ASSERT_TRUE(block.ok());
  auto reference = audio->Samples(1000, 100).value();
  for (int f = 0; f < 100; ++f) {
    EXPECT_NEAR(block.value().At(f, 0), reference.At(f, 0), 1100);
  }
}

// --------------------------------------------------------- EncodedValue ----

TEST(EncodedVideoValueTest, GenericVideoValueInterface) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto raw = GenerateVideo(type, 10, VideoPattern::kMovingBox).value();
  auto codec = CodecRegistry::Default()
                   .VideoCodecFor(EncodingFamily::kInter)
                   .value();
  VideoCodecParams params;
  params.gop_size = 5;
  auto value =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  // Presents as compressed video of matching geometry.
  EXPECT_EQ(value->type().family(), EncodingFamily::kInter);
  EXPECT_EQ(value->width(), 32);
  EXPECT_EQ(value->FrameCount(), 10);
  EXPECT_LT(value->StoredBytes(), raw->StoredBytes());
  // Frame access decodes on demand; sequential access is cheap.
  ASSERT_TRUE(value->Frame(0).ok());
  ASSERT_TRUE(value->Frame(1).ok());
  EXPECT_EQ(value->FramesDecodedInternally(), 2);
  // Temporal interface is inherited.
  EXPECT_EQ(value->duration(), WorldTime::FromSeconds(1));
}

TEST(EncodedVideoValueTest, CodecFamilyMismatchRejected) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto raw = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  auto intra = CodecRegistry::Default()
                   .VideoCodecFor(EncodingFamily::kIntra)
                   .value();
  auto encoded = intra->Encode(*raw, {}).value();
  auto inter = CodecRegistry::Default()
                   .VideoCodecFor(EncodingFamily::kInter)
                   .value();
  EXPECT_FALSE(EncodedVideoValue::Create(inter, encoded).ok());
}

/// Decorator codec counting the sessions opened through it.
class CountingCodec final : public VideoCodec {
 public:
  explicit CountingCodec(std::shared_ptr<const VideoCodec> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  EncodingFamily family() const override { return inner_->family(); }
  Result<EncodedVideo> Encode(const VideoValue& value,
                              const VideoCodecParams& params) const override {
    return inner_->Encode(value, params);
  }
  Result<std::unique_ptr<VideoDecoderSession>> NewDecoder(
      const EncodedVideo& video) const override {
    ++sessions_opened;
    return inner_->NewDecoder(video);
  }
  mutable int sessions_opened = 0;

 private:
  std::shared_ptr<const VideoCodec> inner_;
};

TEST(EncodedVideoValueTest, ReadersKeepTheirOwnPositionAndCountDecodes) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto raw = GenerateVideo(type, 24, VideoPattern::kMovingBox).value();
  auto codec = std::make_shared<CountingCodec>(
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kInter).value());
  VideoCodecParams params;
  params.gop_size = 12;
  auto value =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  std::vector<VideoFrame> reference;
  auto session = InterCodec().NewDecoder(value->encoded()).value();
  for (int64_t i = 0; i < 24; ++i) {
    reference.push_back(session->DecodeFrame(i).value());
  }

  auto a = value->NewReader().value();
  auto b = value->NewReader().value();
  EXPECT_EQ(codec->sessions_opened, 2);  // readers go through the decorator
  // Two interleaved sequential readers, one frame apart: each keeps its own
  // reference frame, so neither re-enters the GOP.
  for (int64_t i = 0; i < 24; ++i) {
    EXPECT_TRUE(a->DecodeFrame(i).value() == reference[static_cast<size_t>(i)])
        << "frame " << i;
    if (i > 0) {
      EXPECT_TRUE(b->DecodeFrame(i - 1).value() ==
                  reference[static_cast<size_t>(i - 1)])
          << "frame " << i - 1;
    }
  }
  EXPECT_EQ(a->FramesDecodedInternally(), 24);
  EXPECT_EQ(b->FramesDecodedInternally(), 23);
  EXPECT_EQ(value->FramesDecodedInternally(), 24 + 23);
  // A dropped reader's decodes stay counted; the shared session adds its own.
  a.reset();
  EXPECT_EQ(value->FramesDecodedInternally(), 24 + 23);
  ASSERT_TRUE(value->Frame(0).ok());
  EXPECT_EQ(value->FramesDecodedInternally(), 24 + 23 + 1);
}

// Sessions read their stream in place: each family must decode correctly
// when the only copy of the stream is the one its value owns (run under
// ASan, a session that outlived or copied-then-dangled its stream fails).
TEST(EncodedVideoValueTest, ReaderDecodesWhileOnlyItsValueHoldsTheStream) {
  const auto type = MediaDataType::RawVideo(32, 24, 8, Rational(10));
  auto raw = GenerateVideo(type, 8, VideoPattern::kMovingBox).value();
  for (auto family :
       {EncodingFamily::kIntra, EncodingFamily::kInter, EncodingFamily::kDelta,
        EncodingFamily::kScalable}) {
    auto codec = CodecRegistry::Default().VideoCodecFor(family).value();
    VideoCodecParams params;
    params.gop_size = 3;
    EncodedVideo encoded = codec->Encode(*raw, params).value();
    std::vector<VideoFrame> reference;
    {
      auto session = codec->NewDecoder(encoded).value();
      for (int64_t i = 0; i < 8; ++i) {
        reference.push_back(session->DecodeFrame(i).value());
      }
    }
    auto value = EncodedVideoValue::Create(codec, std::move(encoded)).value();
    auto reader = value->NewReader().value();
    value.reset();  // the reader now holds the only reference to the value
    for (int64_t i = 0; i < 8; ++i) {
      auto frame = reader->DecodeFrame(i);
      ASSERT_TRUE(frame.ok()) << EncodingFamilyName(family) << " frame " << i;
      EXPECT_TRUE(frame.value() == reference[static_cast<size_t>(i)])
          << EncodingFamilyName(family) << " frame " << i;
    }
  }
}

TEST(ScalableVideoViewTest, ViewSharesItsValuesStream) {
  const auto type = MediaDataType::RawVideo(48, 32, 8, Rational(10));
  auto raw = GenerateVideo(type, 6, VideoPattern::kMovingGradient).value();
  auto codec = std::make_shared<ScalableCodec>();
  VideoCodecParams params;
  params.layer_count = 3;
  auto value =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  auto view = ScalableVideoView::Create(value, 2).value();
  EXPECT_EQ(view->full_value(), value);
  // Same frame storage, not a copy of it.
  EXPECT_EQ(&view->encoded(), &value->encoded());
  EXPECT_EQ(view->encoded().frames.data(), value->encoded().frames.data());
  auto restricted = codec->NewDecoderWithLayers(value->encoded(), 2).value();
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(view->Frame(i).value() == restricted->DecodeFrame(i).value())
        << "frame " << i;
  }
}

// --------------------------------------------------------------- Registry --

TEST(CodecRegistryTest, AllFamiliesResolvable) {
  const auto& reg = CodecRegistry::Default();
  for (auto family :
       {EncodingFamily::kIntra, EncodingFamily::kInter, EncodingFamily::kDelta,
        EncodingFamily::kScalable}) {
    auto codec = reg.VideoCodecFor(family);
    ASSERT_TRUE(codec.ok());
    EXPECT_EQ(codec.value()->family(), family);
  }
  for (auto family : {EncodingFamily::kMulaw, EncodingFamily::kAdpcm}) {
    auto codec = reg.AudioCodecFor(family);
    ASSERT_TRUE(codec.ok());
    EXPECT_EQ(codec.value()->family(), family);
  }
  EXPECT_FALSE(reg.VideoCodecFor(EncodingFamily::kRaw).ok());
  EXPECT_FALSE(reg.AudioCodecFor(EncodingFamily::kIntra).ok());
}

// ------------------------------------------------- Rate/distortion sanity --

TEST(CodecComparisonTest, QualityKnobTradesRateForDistortion) {
  const auto type = MediaDataType::RawVideo(48, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 4, VideoPattern::kMovingGradient).value();
  IntraCodec codec;
  int64_t prev_bytes = 0;
  double prev_mae = 1e9;
  for (int quality : {30, 60, 95}) {
    VideoCodecParams params;
    params.quality = quality;
    auto encoded = codec.Encode(*video, params).value();
    auto session = codec.NewDecoder(encoded).value();
    double mae = 0;
    for (int64_t i = 0; i < 4; ++i) {
      mae += session->DecodeFrame(i)
                 .value()
                 .MeanAbsoluteError(video->Frame(i).value())
                 .value();
    }
    mae /= 4;
    EXPECT_GT(encoded.TotalBytes(), prev_bytes);  // more quality, more bytes
    EXPECT_LT(mae, prev_mae);                     // more quality, less error
    prev_bytes = encoded.TotalBytes();
    prev_mae = mae;
  }
}

TEST(CodecComparisonTest, AllVideoCodecsBeatRawStorage) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 8, VideoPattern::kMovingBox).value();
  const int64_t raw_bytes = video->StoredBytes();
  for (const auto& codec : CodecRegistry::Default().video_codecs()) {
    VideoCodecParams params;
    params.quality = 75;
    auto encoded = codec->Encode(*video, params);
    ASSERT_TRUE(encoded.ok()) << codec->name();
    EXPECT_LT(encoded.value().TotalBytes(), raw_bytes) << codec->name();
  }
}

}  // namespace
}  // namespace avdb
