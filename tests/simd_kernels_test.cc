// Byte-identity fuzz of every SIMD kernel level against the scalar
// reference — the invariant that makes runtime dispatch safe: the encoded
// and decoded bits must not depend on which CPU ran the codec. Runs under
// the asan label (ASan+UBSan build) so lane-tail overreads and integer UB
// in the kernels surface here.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "codec/block_transform.h"
#include "codec/simd/kernels.h"
#include "codec/varint.h"

namespace avdb {
namespace {

using simd::CodecKernels;
using simd::kBlockArea;
using simd::KernelLevel;
using simd::KernelLevelName;

/// Restores runtime dispatch no matter how a test exits.
struct KernelGuard {
  ~KernelGuard() { simd::ResetKernelsForTest(); }
};

std::vector<KernelLevel> SimdLevels() {
  std::vector<KernelLevel> levels = simd::AvailableKernelLevels();
  levels.erase(std::remove(levels.begin(), levels.end(), KernelLevel::kScalar),
               levels.end());
  return levels;
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndForceable) {
  KernelGuard guard;
  ASSERT_TRUE(simd::ForceKernelsForTest(KernelLevel::kScalar));
  EXPECT_EQ(simd::ActiveKernels().level, KernelLevel::kScalar);
  simd::ResetKernelsForTest();
  // Whatever detection picked must be one of the advertised levels.
  const auto levels = simd::AvailableKernelLevels();
  EXPECT_NE(std::find(levels.begin(), levels.end(),
                      simd::ActiveKernels().level),
            levels.end());
}

TEST(SimdDispatch, ForcingUnavailableLevelFailsCleanly) {
  KernelGuard guard;
  const auto available = simd::AvailableKernelLevels();
  for (KernelLevel level :
       {KernelLevel::kSse2, KernelLevel::kAvx2, KernelLevel::kNeon}) {
    const bool advertised =
        std::find(available.begin(), available.end(), level) !=
        available.end();
    EXPECT_EQ(simd::ForceKernelsForTest(level), advertised)
        << KernelLevelName(level);
  }
}

TEST(SimdKernels, FdctMatchesScalarOnFullInt16Range) {
  Rng rng(7001);
  const CodecKernels& ref = simd::ScalarKernels();
  for (KernelLevel level : SimdLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    KernelGuard guard;
    const CodecKernels& k = simd::ActiveKernels();
    for (int iter = 0; iter < 500; ++iter) {
      int16_t in[kBlockArea];
      for (auto& v : in) {
        v = static_cast<int16_t>(rng.NextBelow(65536) - 32768);
      }
      int32_t want[kBlockArea], got[kBlockArea];
      ref.fdct8x8(in, want);
      k.fdct8x8(in, got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << "fdct mismatch at " << KernelLevelName(level) << " iter "
          << iter;
    }
  }
}

TEST(SimdKernels, IdctMatchesScalarOnHostileInt32Range) {
  Rng rng(7002);
  const CodecKernels& ref = simd::ScalarKernels();
  for (KernelLevel level : SimdLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    KernelGuard guard;
    const CodecKernels& k = simd::ActiveKernels();
    for (int iter = 0; iter < 500; ++iter) {
      int32_t in[kBlockArea];
      for (auto& v : in) {
        // Full-range hostile coefficients: the idct must saturate them
        // identically everywhere.
        v = static_cast<int32_t>(rng.NextBelow(0xFFFFFFFFu));
      }
      int16_t want[kBlockArea], got[kBlockArea];
      ref.idct8x8(in, want);
      k.idct8x8(in, got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << "idct mismatch at " << KernelLevelName(level) << " iter "
          << iter;
    }
  }
}

TEST(SimdKernels, ZeroBlockDequantizesAndTransformsToZero) {
  // DecodePlaneInto stores zeros for an all-zero block instead of running
  // dequantize and the IDCT; that is exact because both map zero to zero.
  KernelGuard guard;
  for (KernelLevel level : simd::AvailableKernelLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    const CodecKernels& k = simd::ActiveKernels();
    for (int quality : {1, 50, 100}) {
      int32_t coeffs[kBlockArea] = {};
      k.dequantize(coeffs, block_transform::QualityQuantTable(quality));
      int16_t out[kBlockArea];
      std::fill(std::begin(out), std::end(out), int16_t{0x55});
      k.idct8x8(coeffs, out);
      for (int i = 0; i < kBlockArea; ++i) {
        ASSERT_EQ(coeffs[i], 0) << KernelLevelName(level) << " q" << quality;
        ASSERT_EQ(out[i], 0) << KernelLevelName(level) << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, QuantRoundTripMatchesScalarAtEveryQuality) {
  Rng rng(7003);
  const CodecKernels& ref = simd::ScalarKernels();
  for (KernelLevel level : SimdLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    KernelGuard guard;
    const CodecKernels& k = simd::ActiveKernels();
    for (int quality : {1, 7, 42, 50, 77, 99, 100}) {
      const simd::QuantTable& qt =
          block_transform::QualityQuantTable(quality);
      for (int iter = 0; iter < 200; ++iter) {
        int32_t a[kBlockArea], b[kBlockArea];
        for (int i = 0; i < kBlockArea; ++i) {
          // Stay inside the documented quantizer domain (fdct outputs).
          a[i] = static_cast<int32_t>(rng.NextBelow(2 * ((1 << 21) - 1024))) -
                 ((1 << 21) - 1024);
          b[i] = a[i];
        }
        ref.quantize(a, qt);
        k.quantize(b, qt);
        ASSERT_EQ(0, std::memcmp(a, b, sizeof(a)))
            << "quantize mismatch at " << KernelLevelName(level)
            << " quality " << quality;
        // Dequantize takes hostile inputs; feed it fresh full-range data.
        for (int i = 0; i < kBlockArea; ++i) {
          a[i] = static_cast<int32_t>(rng.NextBelow(0xFFFFFFFFu));
          b[i] = a[i];
        }
        ref.dequantize(a, qt);
        k.dequantize(b, qt);
        ASSERT_EQ(0, std::memcmp(a, b, sizeof(a)))
            << "dequantize mismatch at " << KernelLevelName(level)
            << " quality " << quality;
      }
    }
  }
}

TEST(SimdKernels, QuantizeMatchesLegacyDivision) {
  // The reciprocal multiply must equal the old divide-and-round exactly.
  Rng rng(7004);
  for (int quality : {1, 25, 50, 75, 100}) {
    const simd::QuantTable& qt = block_transform::QualityQuantTable(quality);
    int32_t coeffs[kBlockArea];
    for (int iter = 0; iter < 200; ++iter) {
      for (auto& v : coeffs) {
        v = static_cast<int32_t>(rng.NextBelow(2 * ((1 << 21) - 1024))) -
            ((1 << 21) - 1024);
      }
      int32_t got[kBlockArea];
      std::memcpy(got, coeffs, sizeof(coeffs));
      simd::ScalarKernels().quantize(got, qt);
      for (int i = 0; i < kBlockArea; ++i) {
        const int step = block_transform::QuantStep(i, quality);
        const int32_t v = coeffs[i];
        const int32_t want =
            v >= 0 ? (v + step / 2) / step : -((-v + step / 2) / step);
        ASSERT_EQ(want, got[i]) << "i=" << i << " v=" << v << " step=" << step;
      }
    }
  }
}

TEST(SimdKernels, ElementwiseKernelsMatchScalarAcrossLaneTails) {
  Rng rng(7005);
  const CodecKernels& ref = simd::ScalarKernels();
  for (KernelLevel level : SimdLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    KernelGuard guard;
    const CodecKernels& k = simd::ActiveKernels();
    // Every length from empty through several vector widths plus ragged
    // tails: catches both the vector body and the scalar tail loop.
    for (size_t n = 0; n <= 131; ++n) {
      std::vector<uint8_t> u8a(n), u8b(n);
      std::vector<int16_t> i16a(n), i16b(n);
      for (size_t i = 0; i < n; ++i) {
        u8a[i] = static_cast<uint8_t>(rng.NextBelow(256));
        u8b[i] = static_cast<uint8_t>(rng.NextBelow(256));
        i16a[i] = static_cast<int16_t>(rng.NextBelow(65536) - 32768);
        i16b[i] = static_cast<int16_t>(rng.NextBelow(65536) - 32768);
      }
      std::vector<int16_t> w16(n), g16(n);
      std::vector<uint8_t> w8(n), g8(n);

      ref.u8_to_i16_center(u8a.data(), w16.data(), n);
      k.u8_to_i16_center(u8a.data(), g16.data(), n);
      EXPECT_EQ(w16, g16) << "u8_to_i16_center n=" << n;

      ref.i16_center_to_u8(i16a.data(), w8.data(), n);
      k.i16_center_to_u8(i16a.data(), g8.data(), n);
      EXPECT_EQ(w8, g8) << "i16_center_to_u8 n=" << n;

      ref.residual_u8(u8a.data(), u8b.data(), w16.data(), n);
      k.residual_u8(u8a.data(), u8b.data(), g16.data(), n);
      EXPECT_EQ(w16, g16) << "residual_u8 n=" << n;

      ref.reconstruct_u8(u8a.data(), i16a.data(), w8.data(), n);
      k.reconstruct_u8(u8a.data(), i16a.data(), g8.data(), n);
      EXPECT_EQ(w8, g8) << "reconstruct_u8 n=" << n;

      ref.sub_i16(i16a.data(), i16b.data(), w16.data(), n);
      k.sub_i16(i16a.data(), i16b.data(), g16.data(), n);
      EXPECT_EQ(w16, g16) << "sub_i16 n=" << n;

      ref.add_i16(i16a.data(), i16b.data(), w16.data(), n);
      k.add_i16(i16a.data(), i16b.data(), g16.data(), n);
      EXPECT_EQ(w16, g16) << "add_i16 n=" << n;

      EXPECT_EQ(ref.sad_u8(u8a.data(), u8b.data(), n),
                k.sad_u8(u8a.data(), u8b.data(), n))
          << "sad_u8 n=" << n;
    }
  }
}

TEST(SimdKernels, StridedSadMatchesScalar) {
  Rng rng(7006);
  const CodecKernels& ref = simd::ScalarKernels();
  constexpr int kStrideA = 37;  // deliberately unaligned, non-equal strides
  constexpr int kStrideB = 53;
  std::vector<uint8_t> a(kStrideA * 16), b(kStrideB * 16);
  for (auto& v : a) v = static_cast<uint8_t>(rng.NextBelow(256));
  for (auto& v : b) v = static_cast<uint8_t>(rng.NextBelow(256));
  for (KernelLevel level : SimdLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    KernelGuard guard;
    const CodecKernels& k = simd::ActiveKernels();
    for (int rows = 1; rows <= 16; ++rows) {
      EXPECT_EQ(ref.sad16xh_u8(a.data(), kStrideA, b.data(), kStrideB, rows),
                k.sad16xh_u8(a.data(), kStrideA, b.data(), kStrideB, rows))
          << KernelLevelName(level) << " rows=" << rows;
    }
  }
}

TEST(SimdKernels, PlaneStreamsAreByteIdenticalAcrossLevels) {
  // End-to-end: the full EncodePlane/DecodePlaneInto path (gather,
  // transform, quant, entropy) must emit identical bytes at every dispatch
  // level, for plane shapes exercising every edge-block geometry; the
  // encoder's reconstruction must equal the decoded plane.
  Rng rng(7007);
  KernelGuard guard;
  const struct {
    int width, height;
  } shapes[] = {{8, 8}, {16, 16}, {7, 5}, {9, 17}, {23, 8}, {64, 48},
                {1, 1}, {8, 3},  {3, 8}, {33, 31}};
  for (const auto& shape : shapes) {
    std::vector<int16_t> plane(static_cast<size_t>(shape.width) *
                               shape.height);
    for (auto& v : plane) {
      v = static_cast<int16_t>(rng.NextBelow(512) - 256);  // centered pixels
    }
    for (int quality : {25, 85}) {
      ASSERT_TRUE(simd::ForceKernelsForTest(KernelLevel::kScalar));
      VarintWriter ref_writer;
      block_transform::EncodePlane(plane.data(), shape.width, shape.height,
                                   quality, &ref_writer);
      const Buffer ref_bytes = ref_writer.Finish();
      VarintReader ref_reader(ref_bytes);
      std::vector<int16_t> ref_decoded(plane.size());
      ASSERT_TRUE(block_transform::DecodePlaneInto(shape.width, shape.height,
                                                   quality, &ref_reader,
                                                   ref_decoded.data())
                      .ok());

      for (KernelLevel level : SimdLevels()) {
        ASSERT_TRUE(simd::ForceKernelsForTest(level));
        VarintWriter writer;
        std::vector<int16_t> recon(plane.size());
        block_transform::EncodePlane(plane.data(), shape.width, shape.height,
                                     quality, &writer, recon.data());
        const Buffer bytes = writer.Finish();
        ASSERT_EQ(ref_bytes.size(), bytes.size())
            << KernelLevelName(level) << " " << shape.width << "x"
            << shape.height;
        ASSERT_EQ(0,
                  std::memcmp(ref_bytes.data(), bytes.data(), bytes.size()))
            << "encoded stream differs at " << KernelLevelName(level) << " "
            << shape.width << "x" << shape.height << " q" << quality;
        VarintReader reader(bytes);
        std::vector<int16_t> decoded(plane.size());
        ASSERT_TRUE(block_transform::DecodePlaneInto(
                        shape.width, shape.height, quality, &reader,
                        decoded.data())
                        .ok());
        ASSERT_EQ(ref_decoded, decoded)
            << "decoded plane differs at " << KernelLevelName(level);
        ASSERT_EQ(recon, decoded)
            << "reconstruction differs at " << KernelLevelName(level);
      }
    }
  }
}

TEST(SimdKernels, DctRoundTripStaysWithinIntegerTolerance) {
  // The fixed-point transform keeps the old float path's accuracy contract:
  // quantizer-free roundtrip error within ±2 per sample.
  Rng rng(7008);
  KernelGuard guard;
  for (KernelLevel level : simd::AvailableKernelLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    const CodecKernels& k = simd::ActiveKernels();
    for (int iter = 0; iter < 200; ++iter) {
      int16_t in[kBlockArea];
      for (auto& v : in) {
        v = static_cast<int16_t>(rng.NextBelow(512) - 256);
      }
      int32_t coeffs[kBlockArea];
      int16_t back[kBlockArea];
      k.fdct8x8(in, coeffs);
      k.idct8x8(coeffs, back);
      for (int i = 0; i < kBlockArea; ++i) {
        EXPECT_NEAR(back[i], in[i], 2)
            << KernelLevelName(level) << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace avdb
