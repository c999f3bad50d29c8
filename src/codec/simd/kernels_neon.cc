// NEON implementations of the codec kernels for AArch64, where Advanced
// SIMD is architectural. Exact-match strategy: every multiply-accumulate
// uses int16×int16→int32 (vmlal), every rounding shift uses VRSHR (which
// computes (v + 2^(s-1)) >> s, the shared rounding rule), and every
// narrowing uses saturating VQMOVN — the same integer arithmetic as the
// scalar reference.
#if defined(AVDB_SIMD_NEON)

#include <arm_neon.h>

#include <cstdint>

#include "codec/simd/kernels.h"

namespace avdb {
namespace simd {

namespace {

/// One DCT pass: out16[i][j] = sat16((Σ_k B(i,k)·in16[k][j] + 2^(S-1)) >> S)
/// where the basis element is looked up by the caller-provided indexer.
template <int S, typename BasisAt>
inline void DctPass(const int16x8_t in[kBlockSize], int16x8_t out[kBlockSize],
                    BasisAt basis_at) {
  for (int i = 0; i < kBlockSize; ++i) {
    int32x4_t acc_lo = vdupq_n_s32(0);
    int32x4_t acc_hi = vdupq_n_s32(0);
    for (int k = 0; k < kBlockSize; ++k) {
      const int16x4_t b = vdup_n_s16(basis_at(i, k));
      acc_lo = vmlal_s16(acc_lo, vget_low_s16(in[k]), b);
      acc_hi = vmlal_s16(acc_hi, vget_high_s16(in[k]), b);
    }
    out[i] = vcombine_s16(vqmovn_s32(vrshrq_n_s32(acc_lo, S)),
                          vqmovn_s32(vrshrq_n_s32(acc_hi, S)));
  }
}

void Fdct8x8Neon(const int16_t in[kBlockArea], int32_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  // Pass 1 over rows needs columns of `in` as vectors; transpose via the
  // pass itself by treating rows as the vectorized axis:
  // tmp[u] (vector over y) = Σ_x B[u][x] · col_x where col_x is vector
  // over y — load columns by strided gathers is slow, so instead run the
  // pass on the transposed orientation: vectors are rows over x? The
  // simplest exact formulation: vector over u is produced per y in scalar
  // order; here we vectorize over y by first loading rows and transposing.
  int16x8_t rows[kBlockSize];
  for (int y = 0; y < kBlockSize; ++y) rows[y] = vld1q_s16(in + y * kBlockSize);
  // Transpose 8×8 i16 so cols[x] is the vector over y.
  int16x8_t cols[kBlockSize];
  {
    int16x8x2_t a0 = vtrnq_s16(rows[0], rows[1]);
    int16x8x2_t a1 = vtrnq_s16(rows[2], rows[3]);
    int16x8x2_t a2 = vtrnq_s16(rows[4], rows[5]);
    int16x8x2_t a3 = vtrnq_s16(rows[6], rows[7]);
    int32x4x2_t b0 = vtrnq_s32(vreinterpretq_s32_s16(a0.val[0]),
                               vreinterpretq_s32_s16(a1.val[0]));
    int32x4x2_t b1 = vtrnq_s32(vreinterpretq_s32_s16(a0.val[1]),
                               vreinterpretq_s32_s16(a1.val[1]));
    int32x4x2_t b2 = vtrnq_s32(vreinterpretq_s32_s16(a2.val[0]),
                               vreinterpretq_s32_s16(a3.val[0]));
    int32x4x2_t b3 = vtrnq_s32(vreinterpretq_s32_s16(a2.val[1]),
                               vreinterpretq_s32_s16(a3.val[1]));
    cols[0] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b0.val[0]), vget_low_s32(b2.val[0])));
    cols[1] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b1.val[0]), vget_low_s32(b3.val[0])));
    cols[2] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b0.val[1]), vget_low_s32(b2.val[1])));
    cols[3] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b1.val[1]), vget_low_s32(b3.val[1])));
    cols[4] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b0.val[0]), vget_high_s32(b2.val[0])));
    cols[5] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b1.val[0]), vget_high_s32(b3.val[0])));
    cols[6] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b0.val[1]), vget_high_s32(b2.val[1])));
    cols[7] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b1.val[1]), vget_high_s32(b3.val[1])));
  }
  // Pass 1: tmpT[u] (vector over y) = sat16(rshift(Σ_x B[u][x]·cols[x], 10)).
  int16x8_t tmp_t[kBlockSize];
  DctPass<kFdctPass1Shift>(cols, tmp_t,
                           [&t](int u, int x) { return t.basis[u][x]; });
  // Pass 2: outT[v] (vector over u)? out[v][u] = Σ_y B[v][y]·tmp[y][u];
  // tmp_t[u] is the vector over y, so compute per (v,u) dot products with
  // the vector axis over u: transpose tmp_t back so tmp_rows[y] is the
  // vector over u.
  int16x8_t tmp_rows[kBlockSize];
  {
    int16x8x2_t a0 = vtrnq_s16(tmp_t[0], tmp_t[1]);
    int16x8x2_t a1 = vtrnq_s16(tmp_t[2], tmp_t[3]);
    int16x8x2_t a2 = vtrnq_s16(tmp_t[4], tmp_t[5]);
    int16x8x2_t a3 = vtrnq_s16(tmp_t[6], tmp_t[7]);
    int32x4x2_t b0 = vtrnq_s32(vreinterpretq_s32_s16(a0.val[0]),
                               vreinterpretq_s32_s16(a1.val[0]));
    int32x4x2_t b1 = vtrnq_s32(vreinterpretq_s32_s16(a0.val[1]),
                               vreinterpretq_s32_s16(a1.val[1]));
    int32x4x2_t b2 = vtrnq_s32(vreinterpretq_s32_s16(a2.val[0]),
                               vreinterpretq_s32_s16(a3.val[0]));
    int32x4x2_t b3 = vtrnq_s32(vreinterpretq_s32_s16(a2.val[1]),
                               vreinterpretq_s32_s16(a3.val[1]));
    tmp_rows[0] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b0.val[0]), vget_low_s32(b2.val[0])));
    tmp_rows[1] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b1.val[0]), vget_low_s32(b3.val[0])));
    tmp_rows[2] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b0.val[1]), vget_low_s32(b2.val[1])));
    tmp_rows[3] = vreinterpretq_s16_s32(
        vcombine_s32(vget_low_s32(b1.val[1]), vget_low_s32(b3.val[1])));
    tmp_rows[4] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b0.val[0]), vget_high_s32(b2.val[0])));
    tmp_rows[5] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b1.val[0]), vget_high_s32(b3.val[0])));
    tmp_rows[6] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b0.val[1]), vget_high_s32(b2.val[1])));
    tmp_rows[7] = vreinterpretq_s16_s32(
        vcombine_s32(vget_high_s32(b1.val[1]), vget_high_s32(b3.val[1])));
  }
  // out[v] (vector over u) = rshift(Σ_y B[v][y]·tmp_rows[y], 16), no sat —
  // keep full int32.
  for (int v = 0; v < kBlockSize; ++v) {
    int32x4_t acc_lo = vdupq_n_s32(0);
    int32x4_t acc_hi = vdupq_n_s32(0);
    for (int y = 0; y < kBlockSize; ++y) {
      const int16x4_t b = vdup_n_s16(t.basis[v][y]);
      acc_lo = vmlal_s16(acc_lo, vget_low_s16(tmp_rows[y]), b);
      acc_hi = vmlal_s16(acc_hi, vget_high_s16(tmp_rows[y]), b);
    }
    vst1q_s32(out + v * kBlockSize, vrshrq_n_s32(acc_lo, kFdctPass2Shift));
    vst1q_s32(out + v * kBlockSize + 4, vrshrq_n_s32(acc_hi, kFdctPass2Shift));
  }
}

void Idct8x8Neon(const int32_t in[kBlockArea], int16_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  int16x8_t rows[kBlockSize];  // saturated coeff rows, vector over u
  for (int v = 0; v < kBlockSize; ++v) {
    rows[v] = vcombine_s16(vqmovn_s32(vld1q_s32(in + v * kBlockSize)),
                           vqmovn_s32(vld1q_s32(in + v * kBlockSize + 4)));
  }
  // Pass 1: tmp[y] (vector over u) = sat16(rshift(Σ_v B[v][y]·rows[v], 11)).
  int16x8_t tmp[kBlockSize];
  DctPass<kIdctPass1Shift>(rows, tmp,
                           [&t](int y, int v) { return t.basis[v][y]; });
  // Pass 2: out[y][x] = sat16(rshift(Σ_u B[u][x]·tmp[y][u], 15)). The
  // vector axis must be x, so transpose-free: for each y, accumulate
  // basis rows (vector over x) scaled by scalar tmp[y][u].
  int16_t tmp_s[kBlockArea];
  for (int y = 0; y < kBlockSize; ++y) vst1q_s16(tmp_s + y * kBlockSize, tmp[y]);
  for (int y = 0; y < kBlockSize; ++y) {
    int32x4_t acc_lo = vdupq_n_s32(0);
    int32x4_t acc_hi = vdupq_n_s32(0);
    for (int u = 0; u < kBlockSize; ++u) {
      const int16x8_t brow = vld1q_s16(t.basis[u]);
      const int16x4_t s = vdup_n_s16(tmp_s[y * kBlockSize + u]);
      acc_lo = vmlal_s16(acc_lo, vget_low_s16(brow), s);
      acc_hi = vmlal_s16(acc_hi, vget_high_s16(brow), s);
    }
    vst1q_s16(out + y * kBlockSize,
              vcombine_s16(vqmovn_s32(vrshrq_n_s32(acc_lo, kIdctPass2Shift)),
                           vqmovn_s32(vrshrq_n_s32(acc_hi, kIdctPass2Shift))));
  }
}

void QuantizeNeon(int32_t coeffs[kBlockArea], const QuantTable& qt) {
  for (int i = 0; i < kBlockArea; i += 4) {
    const int32x4_t v = vld1q_s32(coeffs + i);
    const uint32x4_t n = vaddq_u32(
        vreinterpretq_u32_s32(vabsq_s32(v)),
        vreinterpretq_u32_s32(vld1q_s32(qt.half + i)));
    const uint32x4_t recip = vld1q_u32(qt.recip + i);
    // (n · recip) >> 32 per lane.
    const uint64x2_t p_lo = vmull_u32(vget_low_u32(n), vget_low_u32(recip));
    const uint64x2_t p_hi = vmull_u32(vget_high_u32(n), vget_high_u32(recip));
    uint32x4_t q = vcombine_u32(vshrn_n_u64(p_lo, 32), vshrn_n_u64(p_hi, 32));
    const uint32x4_t is_one =
        vceqq_s32(vld1q_s32(qt.step + i), vdupq_n_s32(1));
    q = vbslq_u32(is_one, n, q);
    const int32x4_t qs = vreinterpretq_s32_u32(q);
    const uint32x4_t neg = vcltq_s32(v, vdupq_n_s32(0));
    vst1q_s32(coeffs + i, vbslq_s32(neg, vnegq_s32(qs), qs));
  }
}

void DequantizeNeon(int32_t coeffs[kBlockArea], const QuantTable& qt) {
  const int32x4_t hi = vdupq_n_s32(kDequantClamp);
  const int32x4_t lo = vdupq_n_s32(-kDequantClamp);
  for (int i = 0; i < kBlockArea; i += 4) {
    const int32x4_t v = vmaxq_s32(lo, vminq_s32(hi, vld1q_s32(coeffs + i)));
    vst1q_s32(coeffs + i, vmulq_s32(v, vld1q_s32(qt.step + i)));
  }
}

void U8ToI16CenterNeon(const uint8_t* src, int16_t* dst, size_t n) {
  const int16x8_t c128 = vdupq_n_s16(128);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(src + i);
    vst1q_s16(dst + i,
              vsubq_s16(vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(v))),
                        c128));
    vst1q_s16(dst + i + 8,
              vsubq_s16(vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(v))),
                        c128));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<int16_t>(static_cast<int16_t>(src[i]) - 128);
  }
}

void I16CenterToU8Neon(const int16_t* src, uint8_t* dst, size_t n) {
  const int16x8_t c128 = vdupq_n_s16(128);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int16x8_t lo = vqaddq_s16(vld1q_s16(src + i), c128);
    const int16x8_t hi = vqaddq_s16(vld1q_s16(src + i + 8), c128);
    vst1q_u8(dst + i, vcombine_u8(vqmovun_s16(lo), vqmovun_s16(hi)));
  }
  for (; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(src[i]) + 128;
    dst[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

void ResidualU8Neon(const uint8_t* cur, const uint8_t* pred, int16_t* out,
                    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t c = vmovl_u8(vld1_u8(cur + i));
    const uint16x8_t p = vmovl_u8(vld1_u8(pred + i));
    vst1q_s16(out + i, vsubq_s16(vreinterpretq_s16_u16(c),
                                 vreinterpretq_s16_u16(p)));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<int16_t>(static_cast<int32_t>(cur[i]) -
                                  static_cast<int32_t>(pred[i]));
  }
}

void ReconstructU8Neon(const uint8_t* pred, const int16_t* res, uint8_t* out,
                       size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t p =
        vreinterpretq_s16_u16(vmovl_u8(vld1_u8(pred + i)));
    const int16x8_t sum = vqaddq_s16(p, vld1q_s16(res + i));
    vst1_u8(out + i, vqmovun_s16(sum));
  }
  for (; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(pred[i]) + res[i];
    out[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

void SubI16Neon(const int16_t* a, const int16_t* b, int16_t* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vst1q_s16(out + i, vsubq_s16(vld1q_s16(a + i), vld1q_s16(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<int16_t>(static_cast<int32_t>(a[i]) - b[i]);
  }
}

uint32_t SadU8Neon(const uint8_t* a, const uint8_t* b, size_t n) {
  uint32x4_t acc = vdupq_n_u32(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t d = vabdq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    acc = vpadalq_u16(acc, vpaddlq_u8(d));
  }
  uint32_t sum = vaddvq_u32(acc);
  for (; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += static_cast<uint32_t>(d < 0 ? -d : d);
  }
  return sum;
}

uint32_t Sad16xHU8Neon(const uint8_t* a, ptrdiff_t a_stride, const uint8_t* b,
                       ptrdiff_t b_stride, int rows) {
  uint32x4_t acc = vdupq_n_u32(0);
  for (int r = 0; r < rows; ++r) {
    const uint8x16_t d =
        vabdq_u8(vld1q_u8(a + r * a_stride), vld1q_u8(b + r * b_stride));
    acc = vpadalq_u16(acc, vpaddlq_u8(d));
  }
  return vaddvq_u32(acc);
}

}  // namespace

const CodecKernels& NeonKernels() {
  static const CodecKernels kernels = [] {
    CodecKernels k;
    k.level = KernelLevel::kNeon;
    k.fdct8x8 = Fdct8x8Neon;
    k.idct8x8 = Idct8x8Neon;
    k.quantize = QuantizeNeon;
    k.dequantize = DequantizeNeon;
    k.u8_to_i16_center = U8ToI16CenterNeon;
    k.i16_center_to_u8 = I16CenterToU8Neon;
    k.residual_u8 = ResidualU8Neon;
    k.reconstruct_u8 = ReconstructU8Neon;
    k.sub_i16 = SubI16Neon;
    k.sad_u8 = SadU8Neon;
    k.sad16xh_u8 = Sad16xHU8Neon;
    // No NEON entry yet for the sparse transform, the block add and the
    // upsample row.
    const CodecKernels& scalar = ScalarKernels();
    k.idct8x8_sparse = scalar.idct8x8_sparse;
    k.add_block_u8 = scalar.add_block_u8;
    k.upsample_add_row = scalar.upsample_add_row;
    return k;
  }();
  return kernels;
}

}  // namespace simd
}  // namespace avdb

#endif  // AVDB_SIMD_NEON
