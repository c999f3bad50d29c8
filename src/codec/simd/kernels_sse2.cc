// SSE2 implementations of the codec kernels. Compiled only when
// AVDB_SIMD_X86 is defined (x86-64 builds with AVDB_SIMD=ON); SSE2 is the
// x86-64 baseline, so no extra target flags are needed for this TU.
#if defined(AVDB_SIMD_X86)

#include <emmintrin.h>

#include <cstdint>

#include "codec/simd/kernels.h"

namespace avdb {
namespace simd {

namespace {

inline __m128i LoadU(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}
inline void StoreU(void* p, __m128i v) {
  _mm_storeu_si128(static_cast<__m128i*>(p), v);
}

/// Rounded arithmetic shift of 4×i32: (v + 2^(s-1)) >> s.
template <int S>
inline __m128i RoundShift32(__m128i v) {
  return _mm_srai_epi32(_mm_add_epi32(v, _mm_set1_epi32(1 << (S - 1))), S);
}

void Fdct8x8Sse2(const int16_t in[kBlockArea], int32_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  // Pass 1 (rows): tmp[y][u] = sat16((Σ_x B[u][x]·in[y][x] + 2^9) >> 10).
  __m128i tmp[kBlockSize];  // tmp[y] = 8×i16 over u
  for (int y = 0; y < kBlockSize; ++y) {
    const __m128i row = LoadU(in + y * kBlockSize);
    __m128i acc_lo = _mm_setzero_si128();  // u0..3
    __m128i acc_hi = _mm_setzero_si128();  // u4..7
    for (int k = 0; k < 4; ++k) {
      // Broadcast the (x=2k, x=2k+1) input pair to every i32 lane.
      __m128i d;
      switch (k) {
        case 0: d = _mm_shuffle_epi32(row, _MM_SHUFFLE(0, 0, 0, 0)); break;
        case 1: d = _mm_shuffle_epi32(row, _MM_SHUFFLE(1, 1, 1, 1)); break;
        case 2: d = _mm_shuffle_epi32(row, _MM_SHUFFLE(2, 2, 2, 2)); break;
        default: d = _mm_shuffle_epi32(row, _MM_SHUFFLE(3, 3, 3, 3)); break;
      }
      acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(d, LoadU(t.fwd_pairs[k])));
      acc_hi = _mm_add_epi32(
          acc_hi, _mm_madd_epi16(d, LoadU(t.fwd_pairs[k] + kBlockSize)));
    }
    tmp[y] = _mm_packs_epi32(RoundShift32<kFdctPass1Shift>(acc_lo),
                             RoundShift32<kFdctPass1Shift>(acc_hi));
  }
  // Pass 2 (columns): out[v][u] = (Σ_y B[v][y]·tmp[y][u] + 2^15) >> 16.
  __m128i pair_lo[4];  // (tmp[2m][u], tmp[2m+1][u]) for u0..3
  __m128i pair_hi[4];  // ... for u4..7
  for (int m = 0; m < 4; ++m) {
    pair_lo[m] = _mm_unpacklo_epi16(tmp[2 * m], tmp[2 * m + 1]);
    pair_hi[m] = _mm_unpackhi_epi16(tmp[2 * m], tmp[2 * m + 1]);
  }
  for (int v = 0; v < kBlockSize; ++v) {
    __m128i acc_lo = _mm_setzero_si128();
    __m128i acc_hi = _mm_setzero_si128();
    for (int m = 0; m < 4; ++m) {
      const __m128i b = _mm_set1_epi32(t.fwd_bcast[m][v]);
      acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(pair_lo[m], b));
      acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(pair_hi[m], b));
    }
    StoreU(out + v * kBlockSize, RoundShift32<kFdctPass2Shift>(acc_lo));
    StoreU(out + v * kBlockSize + 4, RoundShift32<kFdctPass2Shift>(acc_hi));
  }
}

void Idct8x8Sse2(const int32_t in[kBlockArea], int16_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  // Saturate coefficient rows to int16 (hostile levels collapse here).
  __m128i rows[kBlockSize];  // rows[v] = 8×i16 over u
  for (int v = 0; v < kBlockSize; ++v) {
    rows[v] = _mm_packs_epi32(LoadU(in + v * kBlockSize),
                              LoadU(in + v * kBlockSize + 4));
  }
  __m128i pair_lo[4];  // (c[2m][u], c[2m+1][u]) for u0..3
  __m128i pair_hi[4];
  for (int m = 0; m < 4; ++m) {
    pair_lo[m] = _mm_unpacklo_epi16(rows[2 * m], rows[2 * m + 1]);
    pair_hi[m] = _mm_unpackhi_epi16(rows[2 * m], rows[2 * m + 1]);
  }
  // Pass 1 (columns): tmp[y][u] = sat16((Σ_v B[v][y]·c[v][u] + 2^10) >> 11).
  __m128i tmp[kBlockSize];  // tmp[y] = 8×i16 over u
  for (int y = 0; y < kBlockSize; ++y) {
    __m128i acc_lo = _mm_setzero_si128();
    __m128i acc_hi = _mm_setzero_si128();
    for (int m = 0; m < 4; ++m) {
      const __m128i b = _mm_set1_epi32(t.inv_bcast[m][y]);
      acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(pair_lo[m], b));
      acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(pair_hi[m], b));
    }
    tmp[y] = _mm_packs_epi32(RoundShift32<kIdctPass1Shift>(acc_lo),
                             RoundShift32<kIdctPass1Shift>(acc_hi));
  }
  // Pass 2 (rows): out[y][x] = sat16((Σ_u B[u][x]·tmp[y][u] + 2^14) >> 15).
  for (int y = 0; y < kBlockSize; ++y) {
    __m128i acc_lo = _mm_setzero_si128();  // x0..3
    __m128i acc_hi = _mm_setzero_si128();  // x4..7
    for (int k = 0; k < 4; ++k) {
      __m128i d;
      switch (k) {
        case 0: d = _mm_shuffle_epi32(tmp[y], _MM_SHUFFLE(0, 0, 0, 0)); break;
        case 1: d = _mm_shuffle_epi32(tmp[y], _MM_SHUFFLE(1, 1, 1, 1)); break;
        case 2: d = _mm_shuffle_epi32(tmp[y], _MM_SHUFFLE(2, 2, 2, 2)); break;
        default: d = _mm_shuffle_epi32(tmp[y], _MM_SHUFFLE(3, 3, 3, 3)); break;
      }
      acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(d, LoadU(t.inv_pairs[k])));
      acc_hi = _mm_add_epi32(
          acc_hi, _mm_madd_epi16(d, LoadU(t.inv_pairs[k] + kBlockSize)));
    }
    StoreU(out + y * kBlockSize,
           _mm_packs_epi32(RoundShift32<kIdctPass2Shift>(acc_lo),
                           RoundShift32<kIdctPass2Shift>(acc_hi)));
  }
}

/// One coefficient saturated to int16, as idct8x8's `packs` saturates it.
inline int16_t Sat16(int32_t v) {
  return static_cast<int16_t>(v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
}

/// Two int16 in one i32 lane, `lo` in the low half: a `madd` operand.
inline int32_t PackPair(int16_t lo, int16_t hi) {
  return static_cast<int32_t>(
      (static_cast<uint32_t>(static_cast<uint16_t>(hi)) << 16) |
      static_cast<uint16_t>(lo));
}

/// Output row Y (of the four in `pairs`) of the sparse pass 2:
/// sat16((B[u0][x]·col0[y] + B[u1][x]·col1[y] + 2^14) >> 15) over x.
template <int Y>
inline void SparseRow(__m128i pairs, __m128i basis_lo, __m128i basis_hi,
                      int16_t* out) {
  const __m128i d = _mm_shuffle_epi32(pairs, _MM_SHUFFLE(Y, Y, Y, Y));
  StoreU(out, _mm_packs_epi32(
                  RoundShift32<kIdctPass2Shift>(_mm_madd_epi16(d, basis_lo)),
                  RoundShift32<kIdctPass2Shift>(_mm_madd_epi16(d, basis_hi))));
}

void Idct8x8SparseSse2(const int32_t in[kBlockArea], const uint8_t* pos,
                       int count, int16_t out[kBlockArea]) {
  static_assert(kSparseIdctMaxCoeffs == 2,
                "the two columns below hold at most two coefficients");
  const DctTables& t = GetDctTables();
  // Coefficient 0 sits at row v0, column u0; coefficient 1 at (v1, u1).
  // A lone coefficient is paired with a zero at its own position.
  const int p0 = pos[0];
  const int p1 = count > 1 ? pos[1] : p0;
  const int16_t c0 = Sat16(in[p0]);
  const int16_t c1 = count > 1 ? Sat16(in[p1]) : int16_t{0};
  const int u0 = p0 % kBlockSize;
  const int u1 = p1 % kBlockSize;
  const bool same_column = u0 == u1;
  // Pass 1, columns u0 and u1 of tmp as 8×i16 over y:
  // sat16((B[v0][y]·w0 + B[v1][y]·w1 + 2^10) >> 11). Coefficients that
  // share a column both feed col0, and col1 is then exactly zero.
  const __m128i b0 = LoadU(t.basis[p0 / kBlockSize]);
  const __m128i b1 = LoadU(t.basis[p1 / kBlockSize]);
  const __m128i rows_lo = _mm_unpacklo_epi16(b0, b1);  // y0..3
  const __m128i rows_hi = _mm_unpackhi_epi16(b0, b1);  // y4..7
  const __m128i w0 = _mm_set1_epi32(PackPair(c0, same_column ? c1 : 0));
  const __m128i w1 = _mm_set1_epi32(PackPair(0, same_column ? 0 : c1));
  const __m128i col0 = _mm_packs_epi32(
      RoundShift32<kIdctPass1Shift>(_mm_madd_epi16(rows_lo, w0)),
      RoundShift32<kIdctPass1Shift>(_mm_madd_epi16(rows_hi, w0)));
  const __m128i col1 = _mm_packs_epi32(
      RoundShift32<kIdctPass1Shift>(_mm_madd_epi16(rows_lo, w1)),
      RoundShift32<kIdctPass1Shift>(_mm_madd_epi16(rows_hi, w1)));
  // Pass 2 over the two columns; the other six are zero and add nothing.
  const __m128i a0 = LoadU(t.basis[u0]);
  const __m128i a1 = LoadU(t.basis[u1]);
  const __m128i basis_lo = _mm_unpacklo_epi16(a0, a1);  // x0..3
  const __m128i basis_hi = _mm_unpackhi_epi16(a0, a1);  // x4..7
  const __m128i pairs_lo = _mm_unpacklo_epi16(col0, col1);  // y0..3
  const __m128i pairs_hi = _mm_unpackhi_epi16(col0, col1);  // y4..7
  SparseRow<0>(pairs_lo, basis_lo, basis_hi, out + 0 * kBlockSize);
  SparseRow<1>(pairs_lo, basis_lo, basis_hi, out + 1 * kBlockSize);
  SparseRow<2>(pairs_lo, basis_lo, basis_hi, out + 2 * kBlockSize);
  SparseRow<3>(pairs_lo, basis_lo, basis_hi, out + 3 * kBlockSize);
  SparseRow<0>(pairs_hi, basis_lo, basis_hi, out + 4 * kBlockSize);
  SparseRow<1>(pairs_hi, basis_lo, basis_hi, out + 5 * kBlockSize);
  SparseRow<2>(pairs_hi, basis_lo, basis_hi, out + 6 * kBlockSize);
  SparseRow<3>(pairs_hi, basis_lo, basis_hi, out + 7 * kBlockSize);
}

/// Unsigned per-lane (n·m) >> 32 for 4×u32.
inline __m128i MulHiU32(__m128i n, __m128i m) {
  const __m128i prod_even = _mm_mul_epu32(n, m);  // lanes 0,2 → 64-bit
  const __m128i prod_odd = _mm_mul_epu32(_mm_srli_epi64(n, 32),
                                         _mm_srli_epi64(m, 32));  // lanes 1,3
  const __m128i hi_even = _mm_srli_epi64(prod_even, 32);
  const __m128i hi_odd =
      _mm_and_si128(prod_odd, _mm_set1_epi64x(
                                  static_cast<int64_t>(0xFFFFFFFF00000000)));
  return _mm_or_si128(hi_even, hi_odd);
}

void QuantizeSse2(int32_t coeffs[kBlockArea], const QuantTable& qt) {
  const __m128i one = _mm_set1_epi32(1);
  for (int i = 0; i < kBlockArea; i += 4) {
    const __m128i v = LoadU(coeffs + i);
    const __m128i sign = _mm_srai_epi32(v, 31);
    const __m128i n = _mm_add_epi32(
        _mm_sub_epi32(_mm_xor_si128(v, sign), sign), LoadU(qt.half + i));
    const __m128i step = LoadU(qt.step + i);
    __m128i q = MulHiU32(n, LoadU(qt.recip + i));
    const __m128i is_one = _mm_cmpeq_epi32(step, one);
    q = _mm_or_si128(_mm_and_si128(is_one, n), _mm_andnot_si128(is_one, q));
    q = _mm_sub_epi32(_mm_xor_si128(q, sign), sign);
    StoreU(coeffs + i, q);
  }
}

void I16CenterToU8Sse2(const int16_t* src, uint8_t* dst, size_t n) {
  const __m128i c128 = _mm_set1_epi16(128);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Saturating add + unsigned pack equals the scalar int-add-then-clamp:
    // they differ only above 32639, where both clamp to 255.
    const __m128i lo = _mm_adds_epi16(LoadU(src + i), c128);
    const __m128i hi = _mm_adds_epi16(LoadU(src + i + 8), c128);
    StoreU(dst + i, _mm_packus_epi16(lo, hi));
  }
  for (; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(src[i]) + 128;
    dst[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

void ReconstructU8Sse2(const uint8_t* pred, const int16_t* res, uint8_t* out,
                       size_t n) {
  const __m128i zero = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i p = LoadU(pred + i);
    const __m128i lo =
        _mm_adds_epi16(_mm_unpacklo_epi8(p, zero), LoadU(res + i));
    const __m128i hi =
        _mm_adds_epi16(_mm_unpackhi_epi8(p, zero), LoadU(res + i + 8));
    StoreU(out + i, _mm_packus_epi16(lo, hi));
  }
  for (; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(pred[i]) + res[i];
    out[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

/// Rows y and y + 1 of an 8-wide block added onto `dst`: two 8-byte rows
/// per register, and adds_epi16 + packus is add-then-clamp.
inline void AddRowPair(const int16_t* block, int y, uint8_t* dst,
                       ptrdiff_t stride) {
  auto* d0 = reinterpret_cast<__m128i*>(dst + y * stride);
  auto* d1 = reinterpret_cast<__m128i*>(dst + (y + 1) * stride);
  const __m128i zero = _mm_setzero_si128();
  const __m128i p = _mm_unpacklo_epi64(_mm_loadl_epi64(d0),
                                       _mm_loadl_epi64(d1));
  const __m128i lo = _mm_adds_epi16(_mm_unpacklo_epi8(p, zero),
                                    LoadU(block + y * kBlockSize));
  const __m128i hi = _mm_adds_epi16(_mm_unpackhi_epi8(p, zero),
                                    LoadU(block + (y + 1) * kBlockSize));
  const __m128i sum = _mm_packus_epi16(lo, hi);
  _mm_storel_epi64(d0, sum);
  _mm_storel_epi64(d1, _mm_unpackhi_epi64(sum, sum));
}

void AddBlockU8Sse2(const int16_t block[kBlockArea], int cols, int rows,
                    uint8_t* dst, ptrdiff_t stride) {
  if (cols == kBlockSize && rows == kBlockSize) {  // every interior block
    AddRowPair(block, 0, dst, stride);
    AddRowPair(block, 2, dst, stride);
    AddRowPair(block, 4, dst, stride);
    AddRowPair(block, 6, dst, stride);
    return;
  }
  // An edge block: the lanes would reach past the plane.
  ScalarKernels().add_block_u8(block, cols, rows, dst, stride);
}

inline uint32_t ReduceSad(__m128i acc) {
  return static_cast<uint32_t>(_mm_cvtsi128_si32(acc)) +
         static_cast<uint32_t>(
             _mm_cvtsi128_si32(_mm_srli_si128(acc, 8)));
}

uint32_t Sad16xHU8Sse2(const uint8_t* a, ptrdiff_t a_stride, const uint8_t* b,
                       ptrdiff_t b_stride, int rows) {
  __m128i acc = _mm_setzero_si128();
  for (int r = 0; r < rows; ++r) {
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(LoadU(a + r * a_stride), LoadU(b + r * b_stride)));
  }
  return ReduceSad(acc);
}

}  // namespace

const CodecKernels& Sse2Kernels() {
  static const CodecKernels kernels = [] {
    CodecKernels k;
    k.level = KernelLevel::kSse2;
    k.fdct8x8 = Fdct8x8Sse2;
    k.idct8x8 = Idct8x8Sse2;
    k.idct8x8_sparse = Idct8x8SparseSse2;
    k.quantize = QuantizeSse2;
    k.i16_center_to_u8 = I16CenterToU8Sse2;
    k.reconstruct_u8 = ReconstructU8Sse2;
    k.add_block_u8 = AddBlockU8Sse2;
    k.sad16xh_u8 = Sad16xHU8Sse2;
    // The compiler vectorizes these scalar loops as well as hand-written
    // SSE2 does: bench_codec_micro's medians never beat scalar, so the
    // table dispatches the scalar entries.
    const CodecKernels& scalar = ScalarKernels();
    k.dequantize = scalar.dequantize;
    k.u8_to_i16_center = scalar.u8_to_i16_center;
    k.residual_u8 = scalar.residual_u8;
    k.sub_i16 = scalar.sub_i16;
    k.upsample_add_row = scalar.upsample_add_row;
    k.sad_u8 = scalar.sad_u8;
    return k;
  }();
  return kernels;
}

}  // namespace simd
}  // namespace avdb

#endif  // AVDB_SIMD_X86
