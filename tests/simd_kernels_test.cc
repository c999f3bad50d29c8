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
#include "codec/scalable_codec.h"
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

/// Fills `order` with the 64 raster positions, the first `count` of them
/// a random choice of distinct ones (a partial Fisher-Yates shuffle).
void ShufflePositions(Rng* rng, int count, uint8_t order[kBlockArea]) {
  for (int i = 0; i < kBlockArea; ++i) order[i] = static_cast<uint8_t>(i);
  for (int i = 0; i < count; ++i) {
    std::swap(order[i],
              order[i + rng->NextBelow(static_cast<uint64_t>(kBlockArea - i))]);
  }
}

/// A residual-like width×height plane for EncodePlane at `quality`. Each
/// block is the inverse transform of `*next_count % 65` random levels of
/// ±1 to ±3 steps, the counter advancing per block, so over enough blocks
/// the coded counts sweep 0 to 64 and both in-place decode paths run.
std::vector<int16_t> ResidualLikePlane(int width, int height, int quality,
                                       Rng* rng, int* next_count) {
  const simd::QuantTable& qt = block_transform::QualityQuantTable(quality);
  std::vector<int16_t> plane(static_cast<size_t>(width) * height);
  for (int by = 0; by < height; by += 8) {
    for (int bx = 0; bx < width; bx += 8) {
      const int count = (*next_count)++ % (kBlockArea + 1);
      uint8_t order[kBlockArea];
      ShufflePositions(rng, count, order);
      int32_t coeffs[kBlockArea] = {};
      for (int i = 0; i < count; ++i) {
        const int32_t level = static_cast<int32_t>(rng->NextInRange(1, 3)) *
                              (rng->NextBool() ? 1 : -1);
        coeffs[order[i]] = simd::DequantizeLevel(level, qt.step[order[i]]);
      }
      int16_t block[kBlockArea];
      simd::ScalarKernels().idct8x8(coeffs, block);
      for (int y = 0; y < 8 && by + y < height; ++y) {
        for (int x = 0; x < 8 && bx + x < width; ++x) {
          plane[static_cast<size_t>(by + y) * width + bx + x] =
              block[y * 8 + x];
        }
      }
    }
  }
  return plane;
}

struct PlaneI16 {
  int width = 0;
  int height = 0;
  std::vector<int16_t> data;
};

/// The scalable codec's resampler before LayerUpsampler, verbatim: the
/// reference every level's upsample is held to.
PlaneI16 UpsampleTo(const PlaneI16& src, int width, int height) {
  struct Tap {
    int i0, i1;
    double w0, w1;  // w0 = 1 - w1
  };
  const auto tap_at = [](int i, int n, int src_n) {
    const double f =
        n > 1 ? static_cast<double>(i) * (src_n - 1) / (n - 1) : 0.0;
    const int i0 = static_cast<int>(f);
    return Tap{i0, i0 + 1 < src_n ? i0 + 1 : i0, 1 - (f - i0), f - i0};
  };
  PlaneI16 out{width, height,
               std::vector<int16_t>(static_cast<size_t>(width) * height)};
  if (src.width == 0 || src.height == 0) return out;
  std::vector<Tap> cols(static_cast<size_t>(width));
  for (int x = 0; x < width; ++x) cols[x] = tap_at(x, width, src.width);
  for (int y = 0; y < height; ++y) {
    const Tap row = tap_at(y, height, src.height);
    const int16_t* r0 = &src.data[static_cast<size_t>(row.i0) * src.width];
    const int16_t* r1 = &src.data[static_cast<size_t>(row.i1) * src.width];
    int16_t* dst = &out.data[static_cast<size_t>(y) * width];
    for (int x = 0; x < width; ++x) {
      const Tap& col = cols[x];
      const double v00 = r0[col.i0];
      const double v01 = r0[col.i1];
      const double v10 = r1[col.i0];
      const double v11 = r1[col.i1];
      const double v = v00 * col.w0 * row.w0 + v01 * col.w1 * row.w0 +
                       v10 * col.w0 * row.w1 + v11 * col.w1 * row.w1;
      dst[x] = static_cast<int16_t>(v >= 0 ? v + 0.5 : v - 0.5);
    }
  }
  return out;
}

/// A width x height plane of seeded samples: over the whole int16 range,
/// or residual-sized.
PlaneI16 RandomPlane(Rng* rng, int width, int height, bool full_range) {
  PlaneI16 plane{width, height,
                 std::vector<int16_t>(static_cast<size_t>(width) * height)};
  for (int16_t& v : plane.data) {
    v = static_cast<int16_t>(full_range ? rng->NextInRange(INT16_MIN, INT16_MAX)
                                        : rng->NextInRange(-300, 300));
  }
  return plane;
}

/// Upsamples `src` onto `dst` both ways, at every available level: the
/// reference resampler followed by the wrapping add the decoder ran after
/// it, and LayerUpsampler's fused add. True when every level matches.
bool UpsampleMatchesReference(const PlaneI16& src, const PlaneI16& dst) {
  const PlaneI16 pred = UpsampleTo(src, dst.width, dst.height);
  std::vector<int16_t> want = dst.data;
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = static_cast<int16_t>(want[i] + pred.data[i]);
  }
  const LayerUpsampler up(src.width, src.height, dst.width, dst.height);
  std::vector<double> window(up.window_size());
  for (KernelLevel level : simd::AvailableKernelLevels()) {
    EXPECT_TRUE(simd::ForceKernelsForTest(level));
    std::vector<int16_t> got = dst.data;
    up.AddOnto(src.data.data(), window.data(), got.data());
    if (got != want) {
      ADD_FAILURE() << KernelLevelName(level) << " " << src.width << "x"
                    << src.height << " onto " << dst.width << "x"
                    << dst.height;
      return false;
    }
  }
  return true;
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

// idct8x8_sparse stands in for idct8x8 on a block of at most
// kSparseIdctMaxCoeffs nonzero coefficients, so at each level it must give
// exactly that level's idct8x8 output. Returns whether it did; the caller
// fails the test with what it was comparing.
bool SparseEqualsDense(const CodecKernels& k, const int32_t in[kBlockArea],
                       const uint8_t* pos, int count) {
  int16_t want[kBlockArea], got[kBlockArea];
  k.idct8x8(in, want);
  k.idct8x8_sparse(in, pos, count, got);
  return std::memcmp(want, got, sizeof(want)) == 0;
}

TEST(SimdKernels, SparseIdctEqualsIdctAtEveryPositionAndValue) {
  // Every int16 value at every raster position, then values beyond int16:
  // dequantized levels reach ±2^30 (kDequantClamp times the largest step),
  // and both transforms saturate them to int16 first.
  Rng rng(7009);
  KernelGuard guard;
  std::vector<int32_t> values;
  for (int32_t v = INT16_MIN; v <= INT16_MAX; ++v) values.push_back(v);
  for (int bit = 15; bit <= 30; ++bit) {
    for (int32_t d : {-1, 0, 1}) {
      values.push_back((int32_t{1} << bit) + d);
      values.push_back(-(int32_t{1} << bit) + d);
    }
  }
  for (int i = 0; i < 64; ++i) {
    values.push_back(static_cast<int32_t>(
        rng.NextInRange(-(int64_t{1} << 30), int64_t{1} << 30)));
  }
  for (KernelLevel level : simd::AvailableKernelLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    const CodecKernels& k = simd::ActiveKernels();
    int32_t in[kBlockArea] = {};
    for (int p = 0; p < kBlockArea; ++p) {
      const uint8_t pos = static_cast<uint8_t>(p);
      for (int32_t v : values) {
        in[p] = v;
        if (!SparseEqualsDense(k, in, &pos, 1)) {
          FAIL() << KernelLevelName(level) << " position " << p << " value "
                 << v;
        }
      }
      in[p] = 0;
    }
  }
}

TEST(SimdKernels, SparseIdctEqualsIdctOnBlocksOfSeveralCoefficients) {
  // Every ordered pair of positions (two in one column share its pass 1),
  // then seeded random blocks of 2 up to kSparseIdctMaxCoeffs coefficients.
  // Values mix dequantized-size levels, the whole int16 range and beyond.
  Rng rng(7010);
  KernelGuard guard;
  auto value = [&rng] {
    switch (rng.NextBelow(3)) {
      case 0:
        return static_cast<int32_t>(rng.NextInRange(-2048, 2048));
      case 1:
        return static_cast<int32_t>(rng.NextInRange(INT16_MIN, INT16_MAX));
      default:
        return static_cast<int32_t>(
            rng.NextInRange(-(int64_t{1} << 30), int64_t{1} << 30));
    }
  };
  for (KernelLevel level : simd::AvailableKernelLevels()) {
    ASSERT_TRUE(simd::ForceKernelsForTest(level));
    const CodecKernels& k = simd::ActiveKernels();
    int32_t in[kBlockArea] = {};
    for (int a = 0; a < kBlockArea; ++a) {
      for (int b = 0; b < kBlockArea; ++b) {
        if (a == b) continue;
        const uint8_t pos[2] = {static_cast<uint8_t>(a),
                                static_cast<uint8_t>(b)};
        for (int iter = 0; iter < 4; ++iter) {
          in[a] = value();
          in[b] = value();
          ASSERT_TRUE(SparseEqualsDense(k, in, pos, 2))
              << KernelLevelName(level) << " positions " << a << ", " << b
              << " values " << in[a] << ", " << in[b];
        }
        in[a] = in[b] = 0;
      }
    }
    for (int count = 2; count <= simd::kSparseIdctMaxCoeffs; ++count) {
      for (int iter = 0; iter < 20000; ++iter) {
        uint8_t order[kBlockArea];
        ShufflePositions(&rng, count, order);
        for (int i = 0; i < count; ++i) in[order[i]] = value();
        ASSERT_TRUE(SparseEqualsDense(k, in, order, count))
            << KernelLevelName(level) << " count " << count << " iter "
            << iter;
        for (int i = 0; i < count; ++i) in[order[i]] = 0;
      }
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

      EXPECT_EQ(ref.sad_u8(u8a.data(), u8b.data(), n),
                k.sad_u8(u8a.data(), u8b.data(), n))
          << "sad_u8 n=" << n;

      // The block add at every cols × rows geometry (n = 0..63 covers all
      // 64), onto a plane whose stride leaves bytes past the block that
      // must stay as they are. Block values are residual-sized or any
      // int16, so both the clamp and the saturating add are exercised.
      const int cols = 1 + static_cast<int>(n % 8);
      const int rows = 1 + static_cast<int>(n / 8 % 8);
      const ptrdiff_t stride = cols + static_cast<ptrdiff_t>(n % 5);
      int16_t block[kBlockArea];
      for (auto& v : block) {
        v = static_cast<int16_t>(rng.NextBool() ? rng.NextInRange(-300, 300)
                                                : rng.NextBelow(65536) - 32768);
      }
      std::vector<uint8_t> want_plane(static_cast<size_t>(rows * stride + 8));
      for (auto& v : want_plane) v = static_cast<uint8_t>(rng.NextBelow(256));
      std::vector<uint8_t> got_plane = want_plane;
      ref.add_block_u8(block, cols, rows, want_plane.data(), stride);
      k.add_block_u8(block, cols, rows, got_plane.data(), stride);
      EXPECT_EQ(want_plane, got_plane) << "add_block_u8 " << cols << "x"
                                       << rows << " stride " << stride;
    }
  }
}

TEST(SimdKernels, UpsampleMatchesLegacyResamplerAtEveryLayerGeometry) {
  // Every source and target geometry a layer chain of a 1..80 x 1..80
  // frame upsamples: quarter onto half, half onto full, and quarter onto
  // full (one layer of three decoded). That covers 1-wide and 1-high
  // planes, clamped last taps and every lane tail. Destinations hold any
  // int16, so the fused add's wrap is checked too.
  Rng rng(7011);
  KernelGuard guard;
  const auto layer_dim = [](int full, int level) {
    for (int i = level; i < ScalableCodec::kMaxLayers - 1; ++i) {
      full = (full + 1) / 2;
    }
    return full;
  };
  const int chains[][2] = {{0, 1}, {1, 2}, {0, 2}};
  for (int width = 1; width <= 80; ++width) {
    for (int height = 1; height <= 80; ++height) {
      for (const auto& chain : chains) {
        const PlaneI16 src = RandomPlane(
            &rng, layer_dim(width, chain[0]), layer_dim(height, chain[0]),
            (width + height + chain[1]) % 2 == 0);
        const PlaneI16 dst =
            RandomPlane(&rng, layer_dim(width, chain[1]),
                        layer_dim(height, chain[1]), /*full_range=*/true);
        ASSERT_TRUE(UpsampleMatchesReference(src, dst));
      }
    }
  }
}

TEST(SimdKernels, UpsampleMatchesLegacyResamplerOnVodColdLayers) {
  // Many seeded planes of the two steps a 64x48 three-layer frame takes.
  Rng rng(7012);
  KernelGuard guard;
  for (int iter = 0; iter < 500; ++iter) {
    const bool full_range = iter % 2 == 0;
    ASSERT_TRUE(UpsampleMatchesReference(
        RandomPlane(&rng, 16, 12, full_range),
        RandomPlane(&rng, 32, 24, full_range)));
    ASSERT_TRUE(UpsampleMatchesReference(
        RandomPlane(&rng, 32, 24, full_range),
        RandomPlane(&rng, 64, 48, full_range)));
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
  // encoder's reconstruction must equal the decoded plane. Then the
  // in-place decoder, at every level scalar included, on residual-like
  // planes: onto a random prediction it must give what the scalar
  // DecodePlaneInto + reconstruct_u8 give.
  Rng rng(7007);
  int next_count = 0;
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

      const std::vector<int16_t> residual = ResidualLikePlane(
          shape.width, shape.height, quality, &rng, &next_count);
      ASSERT_TRUE(simd::ForceKernelsForTest(KernelLevel::kScalar));
      VarintWriter res_writer;
      block_transform::EncodePlane(residual.data(), shape.width, shape.height,
                                   quality, &res_writer);
      const Buffer res_bytes = res_writer.Finish();
      VarintReader res_reader(res_bytes);
      std::vector<int16_t> res_decoded(plane.size());
      ASSERT_TRUE(block_transform::DecodePlaneInto(shape.width, shape.height,
                                                   quality, &res_reader,
                                                   res_decoded.data())
                      .ok());
      std::vector<uint8_t> pred(plane.size());
      for (auto& v : pred) v = static_cast<uint8_t>(rng.NextBelow(256));
      std::vector<uint8_t> want(plane.size());
      simd::ScalarKernels().reconstruct_u8(pred.data(), res_decoded.data(),
                                           want.data(), want.size());
      for (KernelLevel level : simd::AvailableKernelLevels()) {
        ASSERT_TRUE(simd::ForceKernelsForTest(level));
        std::vector<uint8_t> got = pred;
        VarintReader reader(res_bytes);
        ASSERT_TRUE(block_transform::DecodePlaneOnto(shape.width,
                                                     shape.height, quality,
                                                     &reader, got.data())
                        .ok());
        ASSERT_EQ(want, got)
            << "in-place decode differs at " << KernelLevelName(level) << " "
            << shape.width << "x" << shape.height << " q" << quality;
      }
    }
  }
  // 86 blocks per quality: every count from 0 to 64 came up.
  EXPECT_GT(next_count, 2 * kBlockArea);
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
