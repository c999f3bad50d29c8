#include "codec/block_transform.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "base/logging.h"
#include "base/result.h"
#include "codec/simd/kernels.h"

namespace avdb {
namespace block_transform {

namespace {

// JPEG Annex K luminance quantization table, in raster order.
constexpr int kBaseQuant[kBlockArea] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

// Run value that ends a block's (run, level) pairs.
constexpr uint64_t kEndOfBlock = 0x3F;

// Zigzag scan order: zigzag index -> raster index.
constexpr int kZigzag[kBlockArea] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,   //
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,  //
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,  //
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

bool IsInterior(int width, int height, int bx, int by) {
  return by + kBlockSize <= height && bx + kBlockSize <= width;
}

// Copies the 8×8 block at (bx, by) out of a width×height plane. An edge
// block replicates the plane's last row and column. Both block helpers are
// marked inline so the per-block copies stay in the encode and decode loops.
inline void LoadBlock(const int16_t* plane, int width, int height, int bx,
                      int by, Block* block) {
  if (IsInterior(width, height, bx, by)) {
    for (int y = 0; y < kBlockSize; ++y) {
      std::memcpy(&(*block)[y * kBlockSize],
                  plane + static_cast<size_t>(by + y) * width + bx,
                  kBlockSize * sizeof(int16_t));
    }
    return;
  }
  for (int y = 0; y < kBlockSize; ++y) {
    const int sy = std::min(by + y, height - 1);
    for (int x = 0; x < kBlockSize; ++x) {
      const int sx = std::min(bx + x, width - 1);
      (*block)[y * kBlockSize + x] =
          plane[static_cast<size_t>(sy) * width + sx];
    }
  }
}

// Writes the part of an 8×8 block that lies inside the plane back to
// (bx, by).
inline void StoreBlock(const Block& block, int width, int height, int bx,
                       int by, int16_t* plane) {
  if (IsInterior(width, height, bx, by)) {
    for (int y = 0; y < kBlockSize; ++y) {
      std::memcpy(plane + static_cast<size_t>(by + y) * width + bx,
                  &block[y * kBlockSize], kBlockSize * sizeof(int16_t));
    }
    return;
  }
  for (int y = 0; y < kBlockSize && by + y < height; ++y) {
    for (int x = 0; x < kBlockSize && bx + x < width; ++x) {
      plane[static_cast<size_t>(by + y) * width + bx + x] =
          block[y * kBlockSize + x];
    }
  }
}

}  // namespace

const simd::QuantTable& QualityQuantTable(int quality) {
  static const std::array<simd::QuantTable, 100> tables = [] {
    std::array<simd::QuantTable, 100> t{};
    for (int q = 1; q <= 100; ++q) {
      simd::QuantTable& qt = t[q - 1];
      for (int i = 0; i < kBlockArea; ++i) {
        const int step = QuantStep(i, q);
        qt.step[i] = step;
        qt.half[i] = step / 2;
        // ceil(2^32/step); exact-division magic for step in [2, 1024].
        qt.recip[i] =
            step == 1 ? 0
                      : static_cast<uint32_t>(
                            ((uint64_t{1} << 32) + step - 1) /
                            static_cast<uint64_t>(step));
      }
    }
    return t;
  }();
  return tables[std::clamp(quality, 1, 100) - 1];
}

CoeffBlock ForwardDct(const Block& spatial) {
  CoeffBlock out;
  simd::ActiveKernels().fdct8x8(spatial.data(), out.data());
  return out;
}

Block InverseDct(const CoeffBlock& coeffs) {
  Block out;
  simd::ActiveKernels().idct8x8(coeffs.data(), out.data());
  return out;
}

int QuantStep(int index, int quality) {
  AVDB_CHECK(index >= 0 && index < kBlockArea);
  if (quality < 1) quality = 1;
  if (quality > 100) quality = 100;
  // libjpeg scaling: quality 50 -> base table, 100 -> all ones.
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  int step = (kBaseQuant[index] * scale + 50) / 100;
  if (step < 1) step = 1;
  if (step > 1024) step = 1024;
  return step;
}

void EncodeBlock(const CoeffBlock& coeffs, int32_t* dc_predictor,
                 VarintWriter* out) {
  // DC: delta against previous block's DC.
  const int32_t dc = coeffs[0];
  out->WriteSignedVarint(dc - *dc_predictor);
  *dc_predictor = dc;
  // AC: (zero-run, level) pairs in zigzag order; run==0x3F means EOB.
  int run = 0;
  for (int zi = 1; zi < kBlockArea; ++zi) {
    const int32_t level = coeffs[kZigzag[zi]];
    if (level == 0) {
      ++run;
      continue;
    }
    out->WriteVarint(static_cast<uint64_t>(run));
    out->WriteSignedVarint(level);
    run = 0;
  }
  out->WriteVarint(kEndOfBlock);
}

namespace {

// Reverses EncodeBlock into `*coeffs`, which must be all zero on entry,
// and returns how many coefficients it set nonzero: 0 means the block
// decodes to all-zero samples. With kReportPositions the raster positions
// of those coefficients land in `coded[0..count)`, in scan order. That is
// a store per coefficient, which made the dense-only DecodePlaneInto 1.07x
// slower on scalable layers; each instantiation has one caller, so it
// stays inlined in that loop.
template <bool kReportPositions>
Result<int> DecodeBlock(int32_t* dc_predictor, VarintReader* in,
                        CoeffBlock* coeffs, uint8_t* coded) {
  // A delta beyond ±2^32 takes the DC out of int32 anyway; clamping it
  // keeps the sum from overflowing int64.
  constexpr int64_t kMaxDcDelta = int64_t{1} << 32;
  const int64_t dc = *dc_predictor + std::clamp(in->ReadSignedVarint(),
                                                -kMaxDcDelta, kMaxDcDelta);
  if (dc < INT32_MIN || dc > INT32_MAX) {
    return Status::DataLoss("DC predictor out of range");
  }
  *dc_predictor = static_cast<int32_t>(dc);
  (*coeffs)[0] = *dc_predictor;
  if constexpr (kReportPositions) coded[0] = 0;
  int nonzero = *dc_predictor != 0;
  // After a failed read every read returns 0, which is never the
  // end-of-block marker, so a failed stream always ends in the run check.
  for (int zi = 1;; ++zi) {
    const uint64_t run = in->ReadVarint();
    if (run == kEndOfBlock) break;
    if (run >= static_cast<uint64_t>(kBlockArea - zi)) {
      if (!in->ok()) return in->status();
      return Status::DataLoss("AC run past block end");
    }
    zi += static_cast<int>(run);
    const int32_t level = static_cast<int32_t>(in->ReadSignedVarint());
    (*coeffs)[kZigzag[zi]] = level;
    if constexpr (kReportPositions) {
      // Written at every coefficient, kept only past a nonzero one.
      coded[nonzero] = static_cast<uint8_t>(kZigzag[zi]);
    }
    nonzero += level != 0;
  }
  return nonzero;
}

}  // namespace

void EncodePlane(const int16_t* plane, int width, int height, int quality,
                 VarintWriter* out, int16_t* recon) {
  const simd::CodecKernels& k = simd::ActiveKernels();
  const simd::QuantTable& qt = QualityQuantTable(quality);
  int32_t dc_predictor = 0;
  Block block;
  CoeffBlock coeffs;
  for (int by = 0; by < height; by += kBlockSize) {
    for (int bx = 0; bx < width; bx += kBlockSize) {
      LoadBlock(plane, width, height, bx, by, &block);
      k.fdct8x8(block.data(), coeffs.data());
      k.quantize(coeffs.data(), qt);
      EncodeBlock(coeffs, &dc_predictor, out);
      if (recon == nullptr) continue;
      // Replaying dequantize + IDCT on the coefficients just written is
      // exactly what the decoder does after the lossless entropy layer.
      k.dequantize(coeffs.data(), qt);
      k.idct8x8(coeffs.data(), block.data());
      StoreBlock(block, width, height, bx, by, recon);
    }
  }
}

Status DecodePlaneInto(int width, int height, int quality, VarintReader* in,
                       int16_t* out) {
  static constexpr Block kZeroBlock{};
  const simd::CodecKernels& k = simd::ActiveKernels();
  const simd::QuantTable& qt = QualityQuantTable(quality);
  int32_t dc_predictor = 0;
  Block block;
  CoeffBlock coeffs{};
  for (int by = 0; by < height; by += kBlockSize) {
    for (int bx = 0; bx < width; bx += kBlockSize) {
      AVDB_ASSIGN_OR_RETURN(
          const int nonzero,
          DecodeBlock<false>(&dc_predictor, in, &coeffs, nullptr));
      if (nonzero > 0) {  // else `coeffs` is still all zero
        k.dequantize(coeffs.data(), qt);
        k.idct8x8(coeffs.data(), block.data());
        coeffs.fill(0);
      }
      StoreBlock(nonzero > 0 ? block : kZeroBlock, width, height, bx, by, out);
    }
  }
  return Status::OK();
}

Status DecodePlaneOnto(int width, int height, int quality, VarintReader* in,
                       uint8_t* plane) {
  const simd::CodecKernels& k = simd::ActiveKernels();
  const simd::QuantTable& qt = QualityQuantTable(quality);
  int32_t dc_predictor = 0;
  Block block;
  CoeffBlock coeffs{};
  uint8_t coded[kBlockArea];
  for (int by = 0; by < height; by += kBlockSize) {
    const int rows = std::min(kBlockSize, height - by);
    for (int bx = 0; bx < width; bx += kBlockSize) {
      AVDB_ASSIGN_OR_RETURN(
          const int nonzero,
          DecodeBlock<true>(&dc_predictor, in, &coeffs, coded));
      if (nonzero == 0) continue;  // the prediction stands
      if (nonzero <= simd::kSparseIdctMaxCoeffs) {
        // Scale only the coded coefficients, then clear only them.
        for (int i = 0; i < nonzero; ++i) {
          int32_t& c = coeffs[coded[i]];
          c = simd::DequantizeLevel(c, qt.step[coded[i]]);
        }
        k.idct8x8_sparse(coeffs.data(), coded, nonzero, block.data());
        for (int i = 0; i < nonzero; ++i) coeffs[coded[i]] = 0;
      } else {
        k.dequantize(coeffs.data(), qt);
        k.idct8x8(coeffs.data(), block.data());
        coeffs.fill(0);
      }
      k.add_block_u8(block.data(), std::min(kBlockSize, width - bx), rows,
                     plane + static_cast<size_t>(by) * width + bx, width);
    }
  }
  return Status::OK();
}

}  // namespace block_transform
}  // namespace avdb
