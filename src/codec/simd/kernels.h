#ifndef AVDB_CODEC_SIMD_KERNELS_H_
#define AVDB_CODEC_SIMD_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace avdb {
namespace simd {

/// Vectorized inner loops for the transform codecs, behind a runtime
/// dispatch table. Every implementation (scalar reference, SSE2, AVX2,
/// NEON) computes the *same arithmetic* — fixed-point transforms,
/// saturating narrowings, reciprocal-multiply quantization — so dispatched
/// output is byte-identical to the always-built scalar path by
/// construction. One kernel, `upsample_add_row`, works in double: every
/// level runs the same IEEE multiplies and adds in the same order, which
/// the project-wide -ffp-contract=off keeps from being fused.
///
/// Fixed-point model (see DESIGN.md §12):
///  - DCT basis B[u][x] = round(2^13 · a(u) · cos((2x+1)uπ/16)), int16.
///  - Forward: pass 1 over rows keeps 3 fractional bits
///    (tmp = sat16((Σ B·s + 2^9) >> 10)), pass 2 over columns removes them
///    (out = (Σ B·tmp + 2^15) >> 16). All products are int16×int16→int32;
///    sums of 8 such products stay below 2^31, so scalar and
///    pmaddwd/vmlal orderings agree exactly.
///  - Inverse: inputs saturate to int16 first (hostile bitstreams can carry
///    huge levels); pass 1 keeps 2 fractional bits (shift 11), pass 2
///    shifts 15 and saturates to int16 — the old float path's clamp, made
///    deterministic.
///  - Rounding is uniformly `(acc + 2^(s-1)) >> s` with an arithmetic
///    shift, matching SRAI/VRSHR semantics.
inline constexpr int kBlockSize = 8;
inline constexpr int kBlockArea = kBlockSize * kBlockSize;

inline constexpr int kDctConstBits = 13;    ///< basis scale 2^13
inline constexpr int kFdctPass1Shift = 10;  ///< keep 3 fractional bits
inline constexpr int kFdctPass2Shift = 16;  ///< remove scale + fraction
inline constexpr int kIdctPass1Shift = 11;  ///< keep 2 fractional bits
inline constexpr int kIdctPass2Shift = 15;  ///< remove scale + fraction

/// Dequantized levels are clamped to ±2^20 before the multiply so a
/// hostile level can never overflow int32 (step ≤ 1024 ⇒ |q·step| < 2^31).
inline constexpr int32_t kDequantClamp = 1 << 20;

/// One coefficient of the `dequantize` kernel: the decoder scales the few
/// coefficients of a sparse block with it instead of running the kernel.
inline int32_t DequantizeLevel(int32_t level, int32_t step) {
  return std::clamp(level, -kDequantClamp, kDequantClamp) * step;
}

/// Most nonzero coefficients a block may hold to take `idct8x8_sparse`.
/// bench_codec_micro times the sparse transform against `idct8x8` at
/// each count up to this one.
inline constexpr int kSparseIdctMaxCoeffs = 2;

/// Precomputed fixed-point DCT basis, shared by every implementation. The
/// pair layouts feed PMADDWD-style multiply-accumulate directly: each i32
/// lane of a pair vector holds two adjacent i16 basis entries.
struct DctTables {
  /// basis[u][x] = round(2^13 · a(u) cos((2x+1)uπ/16)).
  alignas(32) int16_t basis[kBlockSize][kBlockSize];
  /// fwd_pairs[k][2u+j] = basis[u][2k+j] — x-pairs across u (fdct pass 1).
  alignas(32) int16_t fwd_pairs[kBlockSize / 2][2 * kBlockSize];
  /// inv_pairs[k][2x+j] = basis[2k+j][x] — u-pairs across x (idct pass 2).
  alignas(32) int16_t inv_pairs[kBlockSize / 2][2 * kBlockSize];
  /// fwd_bcast[m][v] = basis[v][2m] | basis[v][2m+1]<<16 (fdct pass 2).
  alignas(32) int32_t fwd_bcast[kBlockSize / 2][kBlockSize];
  /// inv_bcast[m][y] = basis[2m][y] | basis[2m+1][y]<<16 (idct pass 1).
  alignas(32) int32_t inv_bcast[kBlockSize / 2][kBlockSize];
};
const DctTables& GetDctTables();

/// Per-quality quantization table: steps (identical to
/// block_transform::QuantStep) plus the reciprocal magic for exact
/// division by multiplication. With n = |coeff| + step/2 < 2^21 and
/// recip = ceil(2^32/step), `(n · recip) >> 32 == n / step` exactly for
/// every step in [2, 1024]; step == 1 short-circuits to n.
struct QuantTable {
  alignas(32) int32_t step[kBlockArea];
  alignas(32) uint32_t recip[kBlockArea];  ///< unused where step == 1
  alignas(32) int32_t half[kBlockArea];    ///< step/2, the rounding bias
};

enum class KernelLevel {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

const char* KernelLevelName(KernelLevel level);

/// Dispatch table of the codec inner loops. All pointers are non-null in
/// every published table.
struct CodecKernels {
  KernelLevel level = KernelLevel::kScalar;

  /// Forward 8×8 fixed-point DCT-II (spatial int16 → coefficient int32).
  void (*fdct8x8)(const int16_t in[kBlockArea], int32_t out[kBlockArea]);
  /// Inverse 8×8 DCT (coefficient int32 → spatial int16, saturated).
  void (*idct8x8)(const int32_t in[kBlockArea], int16_t out[kBlockArea]);
  /// idct8x8 of a block whose only nonzero coefficients sit at the
  /// `count` (1..kSparseIdctMaxCoeffs) distinct raster positions `pos`.
  /// Only the columns they occupy are transformed: every other column of
  /// the intermediate is an exact zero, and the inputs saturate and both
  /// passes round as in idct8x8, so `out` equals idct8x8's.
  void (*idct8x8_sparse)(const int32_t in[kBlockArea], const uint8_t* pos,
                         int count, int16_t out[kBlockArea]);
  /// In-place divide-and-round by the per-position step. Inputs must be
  /// forward-transform outputs (|coeff| < 2^21 − 512), the exactness
  /// condition of the reciprocal multiply.
  void (*quantize)(int32_t coeffs[kBlockArea], const QuantTable& qt);
  /// In-place multiply by the per-position step (levels clamped to
  /// ±kDequantClamp first).
  void (*dequantize)(int32_t coeffs[kBlockArea], const QuantTable& qt);

  /// dst[i] = int16(src[i]) − 128 (pixel centering).
  void (*u8_to_i16_center)(const uint8_t* src, int16_t* dst, size_t n);
  /// dst[i] = clamp(src[i] + 128, 0, 255) (un-centering).
  void (*i16_center_to_u8)(const int16_t* src, uint8_t* dst, size_t n);
  /// out[i] = int16(cur[i]) − int16(pred[i]) (motion-compensated residual).
  void (*residual_u8)(const uint8_t* cur, const uint8_t* pred, int16_t* out,
                      size_t n);
  /// out[i] = clamp(pred[i] + res[i], 0, 255).
  void (*reconstruct_u8)(const uint8_t* pred, const int16_t* res,
                         uint8_t* out, size_t n);
  /// dst[y·stride + x] = clamp(dst[y·stride + x] + block[y·8 + x], 0, 255)
  /// for x < cols and y < rows, both in 1..8: adds a decoded block onto
  /// the prediction already in the plane.
  void (*add_block_u8)(const int16_t block[kBlockArea], int cols, int rows,
                       uint8_t* dst, ptrdiff_t stride);
  /// out[i] = int16(a[i] − b[i]) (two's-complement wrap, scalable-layer
  /// residuals).
  void (*sub_i16)(const int16_t* a, const int16_t* b, int16_t* out, size_t n);
  /// One output row of the scalable codec's bilinear upsample, added onto
  /// the decoded residual in `dst`. `t0`/`t1` hold the upper source row's
  /// column products (each column's left tap sample times its weight, and
  /// its right tap's), `b0`/`b1` the lower row's, and `wt`/`wb` are the
  /// two rows' weights. For x < n:
  ///   v = ((t0[x]·wt + t1[x]·wt) + b0[x]·wb) + b1[x]·wb
  ///   dst[x] = int16(dst[x] + int16(v >= 0 ? v + 0.5 : v − 0.5))
  /// in IEEE double, unfused and in this order, and the int16 add wraps.
  /// v must round into int16, as a blend of int16 samples whose weights
  /// sum to 1 always does.
  void (*upsample_add_row)(const double* t0, const double* t1,
                           const double* b0, const double* b1, double wt,
                           double wb, int16_t* dst, size_t n);

  /// Σ |a[i] − b[i]| over a contiguous run. n must stay below 2^24 so the
  /// sum fits uint32 (callers pass at most one plane row).
  uint32_t (*sad_u8)(const uint8_t* a, const uint8_t* b, size_t n);
  /// SAD of a 16-wide block: rows at the given byte strides. The motion
  /// search's fully-in-bounds fast path.
  uint32_t (*sad16xh_u8)(const uint8_t* a, ptrdiff_t a_stride,
                         const uint8_t* b, ptrdiff_t b_stride, int rows);
};

/// The always-built integer reference implementation.
const CodecKernels& ScalarKernels();

/// The widest implementation the CPU supports among those compiled in
/// (scalar when AVDB_SIMD is OFF). Stable for the life of the process
/// unless a test forces a level.
const CodecKernels& ActiveKernels();

/// Levels usable in this binary on this CPU (always includes kScalar).
std::vector<KernelLevel> AvailableKernelLevels();

/// Test hook: pins ActiveKernels() to `level`. Returns false (and changes
/// nothing) when the level is not compiled in or not supported by the CPU.
bool ForceKernelsForTest(KernelLevel level);
/// Test hook: reverts ActiveKernels() to runtime detection.
void ResetKernelsForTest();

}  // namespace simd
}  // namespace avdb

#endif  // AVDB_CODEC_SIMD_KERNELS_H_
