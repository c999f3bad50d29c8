#include <algorithm>
#include <cstdint>

#include "codec/simd/kernels.h"

namespace avdb {
namespace simd {

namespace {

inline int16_t Sat16(int32_t v) {
  return static_cast<int16_t>(std::clamp(v, -32768, 32767));
}

inline int32_t RoundShift(int32_t acc, int shift) {
  // Arithmetic right shift of a possibly-negative value; C++20 defines this
  // and it matches SRAI/VRSHR exactly.
  return (acc + (1 << (shift - 1))) >> shift;
}

void Fdct8x8Scalar(const int16_t in[kBlockArea], int32_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  int16_t tmp[kBlockArea];  // tmp[y][u], spatial scale ×8
  for (int y = 0; y < kBlockSize; ++y) {
    for (int u = 0; u < kBlockSize; ++u) {
      int32_t acc = 0;
      for (int x = 0; x < kBlockSize; ++x) {
        acc += static_cast<int32_t>(t.basis[u][x]) * in[y * kBlockSize + x];
      }
      tmp[y * kBlockSize + u] = Sat16(RoundShift(acc, kFdctPass1Shift));
    }
  }
  for (int v = 0; v < kBlockSize; ++v) {
    for (int u = 0; u < kBlockSize; ++u) {
      int32_t acc = 0;
      for (int y = 0; y < kBlockSize; ++y) {
        acc += static_cast<int32_t>(t.basis[v][y]) * tmp[y * kBlockSize + u];
      }
      out[v * kBlockSize + u] = RoundShift(acc, kFdctPass2Shift);
    }
  }
}

void Idct8x8Scalar(const int32_t in[kBlockArea], int16_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  int16_t c16[kBlockArea];
  for (int i = 0; i < kBlockArea; ++i) c16[i] = Sat16(in[i]);
  int16_t tmp[kBlockArea];  // tmp[y][u], spatial scale ×4
  for (int y = 0; y < kBlockSize; ++y) {
    for (int u = 0; u < kBlockSize; ++u) {
      int32_t acc = 0;
      for (int v = 0; v < kBlockSize; ++v) {
        acc += static_cast<int32_t>(t.basis[v][y]) * c16[v * kBlockSize + u];
      }
      tmp[y * kBlockSize + u] = Sat16(RoundShift(acc, kIdctPass1Shift));
    }
  }
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      int32_t acc = 0;
      for (int u = 0; u < kBlockSize; ++u) {
        acc += static_cast<int32_t>(t.basis[u][x]) * tmp[y * kBlockSize + u];
      }
      out[y * kBlockSize + x] = Sat16(RoundShift(acc, kIdctPass2Shift));
    }
  }
}

void Idct8x8SparseScalar(const int32_t in[kBlockArea], const uint8_t* pos,
                         int count, int16_t out[kBlockArea]) {
  const DctTables& t = GetDctTables();
  // The distinct columns the coefficients occupy.
  int cols[kSparseIdctMaxCoeffs] = {};
  int ncols = 0;
  for (int i = 0; i < count; ++i) {
    const int u = pos[i] % kBlockSize;
    int j = 0;
    while (j < ncols && cols[j] != u) ++j;
    if (j == ncols) cols[ncols++] = u;
  }
  // Pass 1 over those columns only: tmp[j][y] is idct8x8's tmp[y][cols[j]].
  int16_t tmp[kSparseIdctMaxCoeffs][kBlockSize];
  for (int j = 0; j < ncols; ++j) {
    for (int y = 0; y < kBlockSize; ++y) {
      int32_t acc = 0;
      for (int i = 0; i < count; ++i) {
        if (pos[i] % kBlockSize != cols[j]) continue;
        acc += static_cast<int32_t>(t.basis[pos[i] / kBlockSize][y]) *
               Sat16(in[pos[i]]);
      }
      tmp[j][y] = Sat16(RoundShift(acc, kIdctPass1Shift));
    }
  }
  // Pass 2 sums the occupied columns; the zero ones add nothing.
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      int32_t acc = 0;
      for (int j = 0; j < ncols; ++j) {
        acc += static_cast<int32_t>(t.basis[cols[j]][x]) * tmp[j][y];
      }
      out[y * kBlockSize + x] = Sat16(RoundShift(acc, kIdctPass2Shift));
    }
  }
}

void QuantizeScalar(int32_t coeffs[kBlockArea], const QuantTable& qt) {
  for (int i = 0; i < kBlockArea; ++i) {
    const int32_t v = coeffs[i];
    // Branch-free-safe |v|: wraps at INT32_MIN like the SIMD abs tricks do.
    const uint32_t n =
        (v < 0 ? 0u - static_cast<uint32_t>(v) : static_cast<uint32_t>(v)) +
        static_cast<uint32_t>(qt.half[i]);
    uint32_t q;
    if (qt.step[i] == 1) {
      q = n;
    } else {
      q = static_cast<uint32_t>(
          (static_cast<uint64_t>(n) * qt.recip[i]) >> 32);
    }
    coeffs[i] = v < 0 ? -static_cast<int32_t>(q) : static_cast<int32_t>(q);
  }
}

void DequantizeScalar(int32_t coeffs[kBlockArea], const QuantTable& qt) {
  for (int i = 0; i < kBlockArea; ++i) {
    coeffs[i] = DequantizeLevel(coeffs[i], qt.step[i]);
  }
}

void U8ToI16CenterScalar(const uint8_t* src, int16_t* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<int16_t>(static_cast<int16_t>(src[i]) - 128);
  }
}

void I16CenterToU8Scalar(const int16_t* src, uint8_t* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(src[i]) + 128;
    dst[i] = static_cast<uint8_t>(std::clamp(v, 0, 255));
  }
}

void ResidualU8Scalar(const uint8_t* cur, const uint8_t* pred, int16_t* out,
                      size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int16_t>(static_cast<int32_t>(cur[i]) -
                                  static_cast<int32_t>(pred[i]));
  }
}

void ReconstructU8Scalar(const uint8_t* pred, const int16_t* res, uint8_t* out,
                         size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int32_t v = static_cast<int32_t>(pred[i]) + res[i];
    out[i] = static_cast<uint8_t>(std::clamp(v, 0, 255));
  }
}

void AddBlockU8Scalar(const int16_t block[kBlockArea], int cols, int rows,
                      uint8_t* dst, ptrdiff_t stride) {
  for (int y = 0; y < rows; ++y) {
    uint8_t* row = dst + y * stride;
    for (int x = 0; x < cols; ++x) {
      const int32_t v =
          static_cast<int32_t>(row[x]) + block[y * kBlockSize + x];
      row[x] = static_cast<uint8_t>(std::clamp(v, 0, 255));
    }
  }
}

void SubI16Scalar(const int16_t* a, const int16_t* b, int16_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    // Wrapping difference: C++20 defines the narrowing conversion as modular,
    // matching PSUBW/VSUB exactly.
    out[i] = static_cast<int16_t>(static_cast<int32_t>(a[i]) - b[i]);
  }
}

void UpsampleAddRowScalar(const double* t0, const double* t1,
                          const double* b0, const double* b1, double wt,
                          double wb, int16_t* dst, size_t n) {
  for (size_t x = 0; x < n; ++x) {
    const double v = ((t0[x] * wt + t1[x] * wt) + b0[x] * wb) + b1[x] * wb;
    // v >= 0 ? v + 0.5 : v - 0.5, with the add taken out of the branches
    // (adding -0.5 is subtracting 0.5) so that GCC vectorizes the loop.
    const int32_t sample = static_cast<int32_t>(v + (v >= 0 ? 0.5 : -0.5));
    dst[x] = static_cast<int16_t>(dst[x] + sample);
  }
}

uint32_t SadU8Scalar(const uint8_t* a, const uint8_t* b, size_t n) {
  uint32_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += static_cast<uint32_t>(d < 0 ? -d : d);
  }
  return sum;
}

uint32_t Sad16xHU8Scalar(const uint8_t* a, ptrdiff_t a_stride,
                         const uint8_t* b, ptrdiff_t b_stride, int rows) {
  uint32_t sum = 0;
  for (int r = 0; r < rows; ++r) {
    sum += SadU8Scalar(a + r * a_stride, b + r * b_stride, 16);
  }
  return sum;
}

}  // namespace

const CodecKernels& ScalarKernels() {
  static const CodecKernels kernels = [] {
    CodecKernels k;
    k.level = KernelLevel::kScalar;
    k.fdct8x8 = Fdct8x8Scalar;
    k.idct8x8 = Idct8x8Scalar;
    k.idct8x8_sparse = Idct8x8SparseScalar;
    k.quantize = QuantizeScalar;
    k.dequantize = DequantizeScalar;
    k.u8_to_i16_center = U8ToI16CenterScalar;
    k.i16_center_to_u8 = I16CenterToU8Scalar;
    k.residual_u8 = ResidualU8Scalar;
    k.reconstruct_u8 = ReconstructU8Scalar;
    k.add_block_u8 = AddBlockU8Scalar;
    k.sub_i16 = SubI16Scalar;
    k.upsample_add_row = UpsampleAddRowScalar;
    k.sad_u8 = SadU8Scalar;
    k.sad16xh_u8 = Sad16xHU8Scalar;
    return k;
  }();
  return kernels;
}

}  // namespace simd
}  // namespace avdb
