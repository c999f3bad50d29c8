// Regression tests for the zero-copy plane pipeline: codec hot paths must
// read/write frames through PlaneView/PlaneSpan (never the counted copying
// accessors), steady-state encode/decode must be free of pool misses, and
// the SIMD kernel levels must produce byte-identical streams on the
// motion-compensated path.
#include <gtest/gtest.h>

#include <vector>

#include "base/buffer_pool.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/scalable_codec.h"
#include "codec/simd/kernels.h"
#include "media/frame.h"
#include "media/synthetic.h"

namespace avdb {
namespace {

using synthetic::GenerateVideo;
using synthetic::VideoPattern;

class KernelGuard {
 public:
  ~KernelGuard() { simd::ResetKernelsForTest(); }
};

std::shared_ptr<VideoValue> TestVideo(int width, int height, int depth_bits,
                                      int frames) {
  const auto type =
      MediaDataType::RawVideo(width, height, depth_bits, Rational(10));
  return GenerateVideo(type, frames, VideoPattern::kMovingBox).value();
}

// Once the shared pool is warm, a full inter encode + decode cycle must be
// served entirely from recycled blocks: zero pool misses. This is the
// steady-state zero-allocation guarantee the bench gates on, read from the
// pool's own stats, the one count of it.
TEST(ZeroCopyTest, SteadyStateEncodeDecodeHasZeroPoolMisses) {
  auto video = TestVideo(64, 48, 24, 6);
  VideoCodecParams params;
  params.gop_size = 3;
  BufferPool& pool = BufferPool::Shared();

  auto run_cycle = [&] {
    auto encoded = InterCodec().Encode(*video, params).value();
    auto session = InterCodec().NewDecoder(encoded).value();
    for (int64_t i = 0; i < 6; ++i) ASSERT_TRUE(session->DecodeFrame(i).ok());
  };

  run_cycle();  // warm the pool
  pool.ResetStats();
  run_cycle();

  const BufferPool::Stats stats = pool.stats();
  EXPECT_GT(stats.acquires, 0);
  EXPECT_EQ(stats.allocations, 0)
      << "warm encode/decode hit the heap " << stats.allocations << " times";
  EXPECT_EQ(stats.reuses, stats.acquires);
}

// Motion search, prediction, residual coding and reconstruction must not
// depend on which kernel level ran: every available SIMD level has to emit
// the exact bytes the scalar reference emits, and decode them identically.
TEST(ZeroCopyTest, InterStreamsAreByteIdenticalAcrossKernelLevels) {
  KernelGuard guard;
  auto video = TestVideo(40, 24, 8, 6);
  VideoCodecParams params;
  params.gop_size = 3;

  ASSERT_TRUE(simd::ForceKernelsForTest(simd::KernelLevel::kScalar));
  const auto reference = InterCodec().Encode(*video, params).value();
  auto ref_session = InterCodec().NewDecoder(reference).value();
  std::vector<VideoFrame> ref_frames;
  for (int64_t i = 0; i < 6; ++i) {
    ref_frames.push_back(ref_session->DecodeFrame(i).value());
  }

  for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
    if (level == simd::KernelLevel::kScalar) continue;
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    const auto encoded = InterCodec().Encode(*video, params).value();
    ASSERT_EQ(encoded.frames.size(), reference.frames.size());
    for (size_t i = 0; i < encoded.frames.size(); ++i) {
      EXPECT_EQ(encoded.frames[i].data, reference.frames[i].data)
          << "frame " << i << " differs under "
          << simd::KernelLevelName(level);
    }
    auto session = InterCodec().NewDecoder(encoded).value();
    for (int64_t i = 0; i < 6; ++i) {
      EXPECT_EQ(session->DecodeFrame(i).value(), ref_frames[static_cast<size_t>(i)])
          << "decoded frame " << i << " differs under "
          << simd::KernelLevelName(level);
    }
  }
}

// Same identity guarantee for the layered codec, whose enhancement chain
// runs through sub_i16, upsample_add_row and the encode-side
// reconstruction.
TEST(ZeroCopyTest, ScalableStreamsAreByteIdenticalAcrossKernelLevels) {
  KernelGuard guard;
  auto video = TestVideo(33, 17, 8, 3);
  VideoCodecParams params;
  params.layer_count = 3;

  ASSERT_TRUE(simd::ForceKernelsForTest(simd::KernelLevel::kScalar));
  const auto reference = ScalableCodec().Encode(*video, params).value();

  for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
    if (level == simd::KernelLevel::kScalar) continue;
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    const auto encoded = ScalableCodec().Encode(*video, params).value();
    ASSERT_EQ(encoded.frames.size(), reference.frames.size());
    for (size_t i = 0; i < encoded.frames.size(); ++i) {
      EXPECT_EQ(encoded.frames[i].data, reference.frames[i].data)
          << "base layer of frame " << i << " differs under "
          << simd::KernelLevelName(level);
      ASSERT_EQ(encoded.frames[i].layers.size(),
                reference.frames[i].layers.size());
      for (size_t l = 0; l < encoded.frames[i].layers.size(); ++l) {
        EXPECT_EQ(encoded.frames[i].layers[l], reference.frames[i].layers[l])
            << "layer " << l << " of frame " << i << " differs under "
            << simd::KernelLevelName(level);
      }
    }
  }
}

}  // namespace
}  // namespace avdb
