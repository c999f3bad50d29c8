// AVX2 implementations of the codec kernels. This TU is compiled with
// -mavx2 (see src/codec/CMakeLists.txt) and is only entered after runtime
// CPU detection; it deliberately includes almost nothing so AVX2 codegen
// cannot leak into symbols shared with other TUs.
#if defined(AVDB_SIMD_X86)

#include <immintrin.h>

#include <cstdint>

#include "codec/simd/kernels.h"

namespace avdb {
namespace simd {

const CodecKernels& Sse2Kernels();  // kernels_sse2.cc

namespace {

inline __m128i Load128(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}
inline __m256i Load256(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}
inline void Store128(void* p, __m128i v) {
  _mm_storeu_si128(static_cast<__m128i*>(p), v);
}
inline void Store256(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

template <int S>
inline __m256i RoundShift32(__m256i v) {
  return _mm256_srai_epi32(_mm256_add_epi32(v, _mm256_set1_epi32(1 << (S - 1))),
                           S);
}

/// Narrow 8×i32 (one 256-bit register) to 8×i16 with saturation,
/// preserving lane order.
inline __m128i Packs256To128(__m256i v) {
  return _mm_packs_epi32(_mm256_castsi256_si128(v),
                         _mm256_extracti128_si256(v, 1));
}

/// Broadcast 16-bit pair k (i32 lane k) of an 8×i16 vector to all 8 i32
/// lanes of a 256-bit register.
template <int K>
inline __m256i BroadcastPair(__m128i row) {
  return _mm256_broadcastd_epi32(
      _mm_shuffle_epi32(row, _MM_SHUFFLE(K, K, K, K)));
}

void Fdct8x8Avx2(const int16_t in[kBlockArea], int32_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  // Pass 1 (rows): tmp[y][u] = sat16((Σ_x B[u][x]·in[y][x] + 2^9) >> 10).
  __m128i tmp[kBlockSize];  // tmp[y] = 8×i16 over u
  const __m256i p0 = Load256(t.fwd_pairs[0]);
  const __m256i p1 = Load256(t.fwd_pairs[1]);
  const __m256i p2 = Load256(t.fwd_pairs[2]);
  const __m256i p3 = Load256(t.fwd_pairs[3]);
  for (int y = 0; y < kBlockSize; ++y) {
    const __m128i row = Load128(in + y * kBlockSize);
    __m256i acc = _mm256_madd_epi16(BroadcastPair<0>(row), p0);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(BroadcastPair<1>(row), p1));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(BroadcastPair<2>(row), p2));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(BroadcastPair<3>(row), p3));
    tmp[y] = Packs256To128(RoundShift32<kFdctPass1Shift>(acc));
  }
  // Pass 2 (columns): out[v][u] = (Σ_y B[v][y]·tmp[y][u] + 2^15) >> 16.
  __m256i pairs[4];  // (tmp[2m][u], tmp[2m+1][u]) for u0..7
  for (int m = 0; m < 4; ++m) {
    pairs[m] = _mm256_set_m128i(
        _mm_unpackhi_epi16(tmp[2 * m], tmp[2 * m + 1]),
        _mm_unpacklo_epi16(tmp[2 * m], tmp[2 * m + 1]));
  }
  for (int v = 0; v < kBlockSize; ++v) {
    __m256i acc = _mm256_madd_epi16(pairs[0],
                                    _mm256_set1_epi32(t.fwd_bcast[0][v]));
    for (int m = 1; m < 4; ++m) {
      acc = _mm256_add_epi32(
          acc,
          _mm256_madd_epi16(pairs[m], _mm256_set1_epi32(t.fwd_bcast[m][v])));
    }
    Store256(out + v * kBlockSize, RoundShift32<kFdctPass2Shift>(acc));
  }
}

void Idct8x8Avx2(const int32_t in[kBlockArea], int16_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  __m128i rows[kBlockSize];  // saturated coeff rows, 8×i16 over u
  for (int v = 0; v < kBlockSize; ++v) {
    rows[v] = Packs256To128(Load256(in + v * kBlockSize));
  }
  __m256i pairs[4];  // (c[2m][u], c[2m+1][u]) for u0..7
  for (int m = 0; m < 4; ++m) {
    pairs[m] = _mm256_set_m128i(
        _mm_unpackhi_epi16(rows[2 * m], rows[2 * m + 1]),
        _mm_unpacklo_epi16(rows[2 * m], rows[2 * m + 1]));
  }
  // Pass 1 (columns): tmp[y][u] = sat16((Σ_v B[v][y]·c[v][u] + 2^10) >> 11).
  __m128i tmp[kBlockSize];
  for (int y = 0; y < kBlockSize; ++y) {
    __m256i acc = _mm256_madd_epi16(pairs[0],
                                    _mm256_set1_epi32(t.inv_bcast[0][y]));
    for (int m = 1; m < 4; ++m) {
      acc = _mm256_add_epi32(
          acc,
          _mm256_madd_epi16(pairs[m], _mm256_set1_epi32(t.inv_bcast[m][y])));
    }
    tmp[y] = Packs256To128(RoundShift32<kIdctPass1Shift>(acc));
  }
  // Pass 2 (rows): out[y][x] = sat16((Σ_u B[u][x]·tmp[y][u] + 2^14) >> 15).
  const __m256i q0 = Load256(t.inv_pairs[0]);
  const __m256i q1 = Load256(t.inv_pairs[1]);
  const __m256i q2 = Load256(t.inv_pairs[2]);
  const __m256i q3 = Load256(t.inv_pairs[3]);
  for (int y = 0; y < kBlockSize; ++y) {
    __m256i acc = _mm256_madd_epi16(BroadcastPair<0>(tmp[y]), q0);
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(BroadcastPair<1>(tmp[y]), q1));
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(BroadcastPair<2>(tmp[y]), q2));
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(BroadcastPair<3>(tmp[y]), q3));
    Store128(out + y * kBlockSize,
             Packs256To128(RoundShift32<kIdctPass2Shift>(acc)));
  }
}

/// Unsigned per-lane (n·m) >> 32 for 8×u32.
inline __m256i MulHiU32(__m256i n, __m256i m) {
  const __m256i prod_even = _mm256_mul_epu32(n, m);
  const __m256i prod_odd = _mm256_mul_epu32(_mm256_srli_epi64(n, 32),
                                            _mm256_srli_epi64(m, 32));
  const __m256i hi_even = _mm256_srli_epi64(prod_even, 32);
  const __m256i hi_odd = _mm256_and_si256(
      prod_odd,
      _mm256_set1_epi64x(static_cast<int64_t>(0xFFFFFFFF00000000)));
  return _mm256_or_si256(hi_even, hi_odd);
}

void QuantizeAvx2(int32_t coeffs[kBlockArea], const QuantTable& qt) {
  const __m256i one = _mm256_set1_epi32(1);
  for (int i = 0; i < kBlockArea; i += 8) {
    const __m256i v = Load256(coeffs + i);
    const __m256i sign = _mm256_srai_epi32(v, 31);
    const __m256i n = _mm256_add_epi32(_mm256_abs_epi32(v),
                                       Load256(qt.half + i));
    __m256i q = MulHiU32(n, Load256(qt.recip + i));
    const __m256i is_one = _mm256_cmpeq_epi32(Load256(qt.step + i), one);
    q = _mm256_blendv_epi8(q, n, is_one);
    q = _mm256_sub_epi32(_mm256_xor_si256(q, sign), sign);
    Store256(coeffs + i, q);
  }
}

void DequantizeAvx2(int32_t coeffs[kBlockArea], const QuantTable& qt) {
  const __m256i hi = _mm256_set1_epi32(kDequantClamp);
  const __m256i lo = _mm256_set1_epi32(-kDequantClamp);
  for (int i = 0; i < kBlockArea; i += 8) {
    const __m256i v = _mm256_max_epi32(
        lo, _mm256_min_epi32(hi, Load256(coeffs + i)));
    Store256(coeffs + i, _mm256_mullo_epi32(v, Load256(qt.step + i)));
  }
}

void U8ToI16CenterAvx2(const uint8_t* src, int16_t* dst, size_t n) {
  const __m256i c128 = _mm256_set1_epi16(128);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v = _mm256_cvtepu8_epi16(Load128(src + i));
    Store256(dst + i, _mm256_sub_epi16(v, c128));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<int16_t>(static_cast<int16_t>(src[i]) - 128);
  }
}

void I16CenterToU8Avx2(const int16_t* src, uint8_t* dst, size_t n) {
  const __m256i c128 = _mm256_set1_epi16(128);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i lo = _mm256_adds_epi16(Load256(src + i), c128);
    const __m256i hi = _mm256_adds_epi16(Load256(src + i + 16), c128);
    // packus interleaves 128-bit lanes; permute restores element order.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packus_epi16(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
    Store256(dst + i, packed);
  }
  for (; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(src[i]) + 128;
    dst[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

void ReconstructU8Avx2(const uint8_t* pred, const int16_t* res, uint8_t* out,
                       size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i p = _mm256_cvtepu8_epi16(Load128(pred + i));
    const __m256i sum = _mm256_adds_epi16(p, Load256(res + i));
    const __m128i packed = _mm_packus_epi16(
        _mm256_castsi256_si128(sum), _mm256_extracti128_si256(sum, 1));
    Store128(out + i, packed);
  }
  for (; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(pred[i]) + res[i];
    out[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

// Four output samples of upsample_add_row, one per double lane, through
// the scalar entry's multiplies and adds in its order (this TU has no FMA
// to fuse them), rounded to int32. Adding 0.5 carrying v's sign and
// truncating gives the scalar ternary's result for every v, -0 included:
// both round -0 to 0.
inline __m128i UpsampleFour(const double* t0, const double* t1,
                            const double* b0, const double* b1, __m256d wt,
                            __m256d wb) {
  __m256d v = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(t0), wt),
                            _mm256_mul_pd(_mm256_loadu_pd(t1), wt));
  v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_loadu_pd(b0), wb));
  v = _mm256_add_pd(v, _mm256_mul_pd(_mm256_loadu_pd(b1), wb));
  const __m256d half = _mm256_or_pd(_mm256_set1_pd(0.5),
                                    _mm256_and_pd(v, _mm256_set1_pd(-0.0)));
  return _mm256_cvttpd_epi32(_mm256_add_pd(v, half));
}

// Eight samples per step. They fit int16, so the signed pack is exact, and
// the int16 add wraps as the scalar one does. A tail of under eight
// samples takes the scalar entry.
void UpsampleAddRowAvx2(const double* t0, const double* t1, const double* b0,
                        const double* b1, double wt, double wb, int16_t* dst,
                        size_t n) {
  const __m256d top = _mm256_set1_pd(wt);
  const __m256d bottom = _mm256_set1_pd(wb);
  size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    const __m128i samples = _mm_packs_epi32(
        UpsampleFour(t0 + x, t1 + x, b0 + x, b1 + x, top, bottom),
        UpsampleFour(t0 + x + 4, t1 + x + 4, b0 + x + 4, b1 + x + 4, top,
                     bottom));
    Store128(dst + x, _mm_add_epi16(Load128(dst + x), samples));
  }
  if (x < n) {
    ScalarKernels().upsample_add_row(t0 + x, t1 + x, b0 + x, b1 + x, wt, wb,
                                     dst + x, n - x);
  }
}

inline uint32_t ReduceSad(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(sum)) +
         static_cast<uint32_t>(
             _mm_cvtsi128_si32(_mm_srli_si128(sum, 8)));
}

uint32_t SadU8Avx2(const uint8_t* a, const uint8_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(Load256(a + i), Load256(b + i)));
  }
  uint32_t sum = ReduceSad(acc);
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_sad_epu8(Load128(a + i), Load128(b + i));
    sum += static_cast<uint32_t>(_mm_cvtsi128_si32(s)) +
           static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(s, 8)));
  }
  for (; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += static_cast<uint32_t>(d < 0 ? -d : d);
  }
  return sum;
}

uint32_t Sad16xHU8Avx2(const uint8_t* a, ptrdiff_t a_stride, const uint8_t* b,
                       ptrdiff_t b_stride, int rows) {
  __m128i acc = _mm_setzero_si128();
  for (int r = 0; r < rows; ++r) {
    acc = _mm_add_epi64(acc, _mm_sad_epu8(Load128(a + r * a_stride),
                                          Load128(b + r * b_stride)));
  }
  return static_cast<uint32_t>(_mm_cvtsi128_si32(acc)) +
         static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(acc, 8)));
}

}  // namespace

const CodecKernels& Avx2Kernels() {
  static const CodecKernels kernels = [] {
    CodecKernels k;
    k.level = KernelLevel::kAvx2;
    k.fdct8x8 = Fdct8x8Avx2;
    k.idct8x8 = Idct8x8Avx2;
    k.quantize = QuantizeAvx2;
    k.dequantize = DequantizeAvx2;
    k.u8_to_i16_center = U8ToI16CenterAvx2;
    k.i16_center_to_u8 = I16CenterToU8Avx2;
    k.reconstruct_u8 = ReconstructU8Avx2;
    k.sad_u8 = SadU8Avx2;
    k.sad16xh_u8 = Sad16xHU8Avx2;
    k.upsample_add_row = UpsampleAddRowAvx2;
    // bench_codec_micro's medians for these kernels never beat the
    // compiler-vectorized scalar loops, so the table dispatches scalar.
    const CodecKernels& scalar = ScalarKernels();
    k.residual_u8 = scalar.residual_u8;
    k.sub_i16 = scalar.sub_i16;
    // These two work on one 8-sample row, or two, at a time: 128-bit
    // lanes hold them whole, so the SSE2 entries serve.
    const CodecKernels& sse2 = Sse2Kernels();
    k.idct8x8_sparse = sse2.idct8x8_sparse;
    k.add_block_u8 = sse2.add_block_u8;
    return k;
  }();
  return kernels;
}

}  // namespace simd
}  // namespace avdb

#endif  // AVDB_SIMD_X86
