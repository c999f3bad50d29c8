#ifndef AVDB_CODEC_BLOCK_TRANSFORM_H_
#define AVDB_CODEC_BLOCK_TRANSFORM_H_

#include <array>
#include <cstdint>

#include "codec/simd/kernels.h"
#include "codec/varint.h"

namespace avdb {

/// 8×8 transform-coding kernel shared by the intra, inter (residual) and
/// scalable codecs: DCT-II, quality-scaled quantization, zigzag scan and
/// run-length entropy coding. Works on int16 samples so it can code both
/// pixel blocks (0..255) and prediction residuals (-255..255).
///
/// The transform and quantizer run on the runtime-dispatched integer
/// kernels in codec/simd — fixed-point DCT, reciprocal-multiply
/// quantization — so every dispatch level produces byte-identical streams.
namespace block_transform {

inline constexpr int kBlockSize = 8;
inline constexpr int kBlockArea = kBlockSize * kBlockSize;

using Block = std::array<int16_t, kBlockArea>;
using CoeffBlock = std::array<int32_t, kBlockArea>;

/// Forward 8×8 DCT-II (fixed-point integer internals; see simd/kernels.h).
CoeffBlock ForwardDct(const Block& spatial);

/// Inverse 8×8 DCT-III (saturating int16 output).
Block InverseDct(const CoeffBlock& coeffs);

/// The precomputed step/reciprocal table for `quality` (clamped to
/// [1,100]); steps equal QuantStep(i, quality). Exposed for the kernel
/// identity tests and benchmarks.
const simd::QuantTable& QualityQuantTable(int quality);

/// Quantization step for coefficient position `index` (zigzag order) at
/// `quality` in [1,100]; JPEG-style luminance table scaled so quality 50 is
/// the base table, 100 is near-lossless.
int QuantStep(int index, int quality);

/// Entropy-codes a quantized block: zigzag scan, DC delta against
/// `*dc_predictor` (updated), then (run, level) pairs with an end-of-block
/// marker.
void EncodeBlock(const CoeffBlock& coeffs, int32_t* dc_predictor,
                 VarintWriter* out);

/// Splits a width×height int16 plane into 8×8 blocks (edge blocks padded by
/// replicating the last row/column), transforms, quantizes and entropy-codes
/// the whole plane. `plane` must hold width*height samples.
///
/// A non-null `recon` (width*height samples, caller-owned, may not alias
/// `plane`) also receives the plane's reconstruction. The transform and
/// quantizer kernels are pure integer code, so `recon` is bit for bit what
/// DecodePlaneInto produces from the bits just written: the intra, inter
/// and scalable coders keep their references without re-parsing a stream.
void EncodePlane(const int16_t* plane, int width, int height, int quality,
                 VarintWriter* out, int16_t* recon = nullptr);

/// Reverses EncodePlane into caller-owned storage of width*height samples.
/// An all-zero block skips dequantize and IDCT: both map zero to zero at
/// every kernel level, so the skip is exact.
[[nodiscard]] Status DecodePlaneInto(int width, int height, int quality,
                                     VarintReader* in, int16_t* out);

/// Reverses EncodePlane onto a width×height u8 `plane` that already holds
/// the prediction: each coded block is added onto it with saturation, and
/// an all-zero block leaves it as it is. The result equals DecodePlaneInto
/// followed by reconstruct_u8 of the prediction, at every kernel level. A
/// block with at most simd::kSparseIdctMaxCoeffs nonzero coefficients is
/// dequantized coefficient by coefficient and goes through
/// idct8x8_sparse, which equals idct8x8 on it.
[[nodiscard]] Status DecodePlaneOnto(int width, int height, int quality,
                                     VarintReader* in, uint8_t* plane);

}  // namespace block_transform
}  // namespace avdb

#endif  // AVDB_CODEC_BLOCK_TRANSFORM_H_
