// Codec kernel micro-bench + acceptance gates — DESIGN.md §12 "SIMD
// dispatch + zero-copy frame model".
//
// Seven measurements, on QCIF frames unless a row says otherwise:
//
//   1. Per-kernel ns/op: every entry of the simd::CodecKernels dispatch
//      table at every SIMD level this CPU runs, against the scalar
//      reference, in interleaved reps. An entry a table fills with the
//      scalar function is reported as scalar and not timed against
//      itself. Acceptance gate: every kernel with its own SIMD entry runs
//      at a median of at least 1.0x scalar (exit 1).
//   2. End-to-end single-thread encode fps vs the pre-SIMD baseline — the
//      double-precision DCT + divide quantizer + copy-per-plane pipeline
//      the kernels replaced, kept alive below as LegacyEncodeFrame so the
//      speedup is measured against the real thing, not a guess.
//      Acceptance gate: dispatched fps >= 2x legacy fps in the median
//      (exit 1).
//   3. Byte identity: every kernel level available in this binary must
//      encode the intra frame and an inter GOP to the exact bytes the
//      scalar reference emits (exit 1 on any diff).
//   4. Steady-state allocations/frame: after one warm-up cycle, a full
//      inter encode+decode cycle must be served entirely from the shared
//      BufferPool — zero pool misses (exit 1 otherwise).
//   5. Decode µs/frame of three clips in interleaved reps: intra and inter
//      QCIF, and the scalable codec's 64x48 q95 three-layer preview clip
//      (the e2e vod_cold titles). Each clip's decoded frames hash to a
//      pinned value, so a decode speed-up that changes a sample fails
//      (exit 1).
//   6. ADPCM decode µs per 1024-frame chunk of a seeded voice clip, mono
//      and stereo, through AdpcmCodec::DecodeChunk, interleaved with the
//      per-sample decoder it replaced (kept below as
//      LegacyAdpcmDecodeChunk). Acceptance gates: each clip's samples hash
//      to a pinned value, the legacy decoder yields the same samples, and
//      the current decoder's median runs at least 1.5x legacy on mono (the
//      voice workloads) and no slower than legacy on stereo, whose two
//      channels the legacy loop overlapped while the current one decodes
//      them one after the other (exit 1).
//   7. The sparse inverse transform against idct8x8, for each coefficient
//      count up to simd::kSparseIdctMaxCoeffs: both from the dispatched
//      table, on the same seeded blocks, interleaved. Acceptance gate: at
//      the AVX2 level the sparse transform's median runs at least
//      kSparseGateMinSpeedup times idct8x8's at every count (exit 1). The
//      ratio is taken inside one process, so it holds at either of a
//      host's speeds.
//   8. The scalable codec's resampler: both upsample steps of one vod_cold
//      frame (16x12 onto 32x24, 32x24 onto 64x48) through LayerUpsampler,
//      interleaved with the resampler it replaced (kept below as
//      LegacyUpsampleTo) and the wrapping add the decoder ran after it.
//      Acceptance gates: both add the same samples, and at the AVX2 level
//      the current median runs at least kResamplerGateMinSpeedup times
//      legacy (exit 1).
//
// Output: BENCH_codec_micro.json; timings, the SIMD levels and the gate
// verdicts that depend on them sit under its `host` member.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/buffer_pool.h"
#include "base/rng.h"
#include "codec/audio_codec.h"
#include "codec/block_transform.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "codec/simd/kernels.h"
#include "codec/varint.h"
#include "harness.h"
#include "media/frame.h"
#include "media/synthetic.h"

using namespace avdb;

namespace {

constexpr int kWidth = 176;
constexpr int kHeight = 144;
constexpr int kQuality = 75;
constexpr int kKernelReps = 41;    // interleaved scalar/SIMD reps per kernel
constexpr int kKernelIters = 200;  // kernel calls per timed rep
constexpr int kFpsReps = 21;       // interleaved legacy/current encodes
constexpr int kDecodeFrames = 12;  // frames per decode-row clip
constexpr int kDecodeReps = 15;    // interleaved whole-clip decodes
constexpr int kAdpcmChunks = 16;   // 1024-frame chunks per ADPCM clip
constexpr int kAdpcmReps = 41;     // interleaved whole-clip ADPCM decodes
constexpr int kSparseBlocks = 256;  // seeded blocks per sparse-IDCT count
constexpr int kResamplerReps = 41;   // interleaved legacy/current rounds
constexpr int kResamplerIters = 50;  // frames' upsample steps per round
constexpr double kKernelGateMinSpeedup = 1.0;
constexpr double kFpsGateMinSpeedup = 2.0;
// Eight runs on a 4-CPU AVX2 host read the sparse transform at a median
// 2.70x idct8x8 [q1 2.58, q3 2.71] on one coefficient and 2.54x
// [2.10, 2.57] on two, never below 1.93x; 1.5x keeps the branch worth
// taking at either host speed.
constexpr double kSparseGateMinSpeedup = 1.5;
// Five runs on a 4-CPU AVX2 host read the resampler at medians of 3.24x
// to 3.48x legacy, each run's quartiles within 0.1 of its median (4.2 to
// 4.8 us against 13.8 to 15.6 us per frame at the host's faster speed,
// 6.2 against 20.6 at its slower); 2.5x holds at either speed.
constexpr double kResamplerGateMinSpeedup = 2.5;

// Defeats dead-code elimination without fencing the timed region.
volatile uint32_t g_sink = 0;
void Sink(uint32_t v) { g_sink = g_sink + v; }

// ---------------------------------------------------------------------------
// Pre-PR baseline, verbatim from the old block_transform.cc: float DCT-II
// basis, naive triple-loop transform, divide-and-round quantizer, and a
// fresh heap copy of every plane (the pattern the zero-copy pipeline
// removed). The entropy coder (EncodeBlock) is shared with the
// current pipeline, so the comparison isolates transform + memory traffic.

using Block = block_transform::Block;
using CoeffBlock = block_transform::CoeffBlock;
constexpr int kBS = block_transform::kBlockSize;
constexpr int kBA = block_transform::kBlockArea;

struct LegacyDctTables {
  double basis[kBS][kBS];
  LegacyDctTables() {
    for (int u = 0; u < kBS; ++u) {
      const double a = u == 0 ? std::sqrt(1.0 / kBS) : std::sqrt(2.0 / kBS);
      for (int x = 0; x < kBS; ++x) {
        basis[u][x] = a * std::cos((2 * x + 1) * u * M_PI / (2 * kBS));
      }
    }
  }
};

const LegacyDctTables& LegacyTables() {
  static const LegacyDctTables tables;
  return tables;
}

CoeffBlock LegacyForwardDct(const Block& spatial) {
  const auto& t = LegacyTables();
  double tmp[kBS][kBS];
  for (int y = 0; y < kBS; ++y) {
    for (int u = 0; u < kBS; ++u) {
      double acc = 0;
      for (int x = 0; x < kBS; ++x) acc += t.basis[u][x] * spatial[y * kBS + x];
      tmp[y][u] = acc;
    }
  }
  CoeffBlock out;
  for (int v = 0; v < kBS; ++v) {
    for (int u = 0; u < kBS; ++u) {
      double acc = 0;
      for (int y = 0; y < kBS; ++y) acc += t.basis[v][y] * tmp[y][u];
      out[v * kBS + u] = static_cast<int32_t>(std::lround(acc));
    }
  }
  return out;
}

void LegacyQuantize(CoeffBlock* coeffs, int quality) {
  for (int i = 0; i < kBA; ++i) {
    const int step = block_transform::QuantStep(i, quality);
    const int32_t v = (*coeffs)[i];
    (*coeffs)[i] = v >= 0 ? (v + step / 2) / step : -((-v + step / 2) / step);
  }
}

void LegacyEncodePlane(const std::vector<int16_t>& plane, int width,
                       int height, int quality, VarintWriter* out) {
  int32_t dc_predictor = 0;
  for (int by = 0; by < height; by += kBS) {
    for (int bx = 0; bx < width; bx += kBS) {
      Block block;
      for (int y = 0; y < kBS; ++y) {
        const int sy = std::min(by + y, height - 1);
        for (int x = 0; x < kBS; ++x) {
          const int sx = std::min(bx + x, width - 1);
          block[y * kBS + x] = plane[static_cast<size_t>(sy) * width + sx];
        }
      }
      CoeffBlock coeffs = LegacyForwardDct(block);
      LegacyQuantize(&coeffs, quality);
      block_transform::EncodeBlock(coeffs, &dc_predictor, out);
    }
  }
}

Buffer LegacyEncodeFrame(const VideoFrame& frame, int quality) {
  VarintWriter writer;
  for (int p = 0; p < frame.plane_count(); ++p) {
    const PlaneView plane = frame.plane(p);
    const std::vector<uint8_t> bytes(plane.data(),
                                     plane.data() + plane.size());  // copy
    std::vector<int16_t> centered(bytes.size());  // heap alloc
    for (size_t i = 0; i < bytes.size(); ++i) {
      centered[i] = static_cast<int16_t>(static_cast<int>(bytes[i]) - 128);
    }
    LegacyEncodePlane(centered, frame.width(), frame.height(), quality,
                      &writer);
  }
  return writer.Finish();
}

// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// The ADPCM decoder AdpcmCodec used before its register-state loop,
// verbatim from the old audio_codec.cc: the delta recomputed from the step
// per sample, code bit by code bit, the clamps as branches, and each
// channel's state in a heap vector indexed per sample of the interleaved
// stream.

constexpr int kLegacyIndexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8,
                                       -1, -1, -1, -1, 2, 4, 6, 8};
constexpr int kLegacyStepTable[89] = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,
    19,    21,    23,    25,    28,    31,    34,    37,    41,    45,
    50,    55,    60,    66,    73,    80,    88,    97,    107,   118,
    130,   143,   157,   173,   190,   209,   230,   253,   279,   307,
    337,   371,   408,   449,   494,   544,   598,   658,   724,   796,
    876,   963,   1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,
    2272,  2499,  2749,  3024,  3327,  3660,  4026,  4428,  4871,  5358,
    5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

struct LegacyAdpcmState {
  int predictor = 0;
  int index = 0;
};

int16_t LegacyAdpcmDecodeSample(LegacyAdpcmState* state, uint8_t code) {
  const int step = kLegacyStepTable[state->index];
  int accum = step >> 3;
  if (code & 4) accum += step;
  if (code & 2) accum += step >> 1;
  if (code & 1) accum += step >> 2;
  if (code & 8) {
    state->predictor -= accum;
  } else {
    state->predictor += accum;
  }
  if (state->predictor > 32767) state->predictor = 32767;
  if (state->predictor < -32768) state->predictor = -32768;
  state->index += kLegacyIndexTable[code];
  if (state->index < 0) state->index = 0;
  if (state->index > 88) state->index = 88;
  return static_cast<int16_t>(state->predictor);
}

Result<AudioBlock> LegacyAdpcmDecodeChunk(const EncodedAudio& audio,
                                          int64_t index) {
  if (index < 0 || index >= static_cast<int64_t>(audio.chunks.size())) {
    return Status::InvalidArgument("chunk index out of range");
  }
  const int channels = audio.raw_type.channels();
  const int64_t start = index * audio.chunk_frames;
  const int frames = static_cast<int>(
      std::min<int64_t>(audio.chunk_frames, audio.total_frames - start));
  const Buffer& chunk = audio.chunks[static_cast<size_t>(index)];
  if (channels < 0 || frames < 0) {
    return Status::DataLoss("adpcm chunk shape is negative");
  }
  const int64_t samples = static_cast<int64_t>(frames) * channels;
  const int64_t header_bytes = 3 * static_cast<int64_t>(channels);
  if (static_cast<int64_t>(chunk.size()) < header_bytes + (samples + 1) / 2) {
    return Status::DataLoss("adpcm chunk too short");
  }
  const uint8_t* bytes = chunk.data();
  std::vector<LegacyAdpcmState> states(static_cast<size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    const uint8_t* h = bytes + 3 * c;
    if (h[2] > 88) return Status::DataLoss("adpcm step index out of range");
    states[static_cast<size_t>(c)].predictor =
        static_cast<int16_t>(h[0] | (h[1] << 8));
    states[static_cast<size_t>(c)].index = h[2];
  }
  AudioBlock block(channels, frames);
  const uint8_t* codes = bytes + header_bytes;
  int16_t* out = block.samples().data();
  int64_t i = 0;
  for (int f = 0; f < frames; ++f) {
    for (int c = 0; c < channels; ++c, ++i) {
      const uint8_t byte = codes[i >> 1];
      const uint8_t code = (i & 1) == 0 ? byte >> 4 : byte & 0x0F;
      out[i] = LegacyAdpcmDecodeSample(&states[static_cast<size_t>(c)], code);
    }
  }
  return block;
}

// ---------------------------------------------------------------------------
// The scalable codec's resampler before LayerUpsampler, verbatim from the
// old scalable_codec.cc: taps computed on every call, all four products
// of a sample computed for every output row, and a fresh output plane,
// which the decoder then added onto the decoded residual with the scalar
// add_i16 kernel (LegacyAddI16) that every table dispatched.

struct PlaneI16 {
  int width = 0;
  int height = 0;
  std::vector<int16_t> data;
};

PlaneI16 LegacyUpsampleTo(const PlaneI16& src, int width, int height) {
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

void LegacyAddI16(const int16_t* a, const int16_t* b, int16_t* out,
                  size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int16_t>(static_cast<int32_t>(a[i]) + b[i]);
  }
}

// ---------------------------------------------------------------------------

struct KernelPoint {
  const char* name;
  const char* level;        // the table's level
  bool own_entry = false;   // false: the table dispatches the scalar entry
  double scalar_ns = 0;     // medians
  double simd_ns = 0;
  double speedup() const { return simd_ns > 0 ? scalar_ns / simd_ns : 0; }
};

/// The dispatch table of every SIMD level this binary runs on this CPU,
/// widest (the dispatched one) first.
std::vector<const simd::CodecKernels*> SimdTables() {
  std::vector<const simd::CodecKernels*> tables;
  for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
    if (level == simd::KernelLevel::kScalar) continue;
    if (simd::ForceKernelsForTest(level)) {
      tables.insert(tables.begin(), &simd::ActiveKernels());
    }
  }
  simd::ResetKernelsForTest();
  return tables;
}

// Times every dispatch-table entry of each table against the scalar
// reference on realistic inputs: a pattern-frame luma plane for the
// element-wise kernels, a transformed block for quant/dequant/idct.
// Points come level by level, in the order of `tables`.
std::vector<KernelPoint> MeasureKernels(
    const simd::CodecKernels& scalar,
    const std::vector<const simd::CodecKernels*>& tables) {
  const VideoFrame frame = synthetic::GeneratePatternFrame(
      kWidth, kHeight, 8, 0, synthetic::VideoPattern::kMovingBox);
  const PlaneView luma = frame.plane(0);
  const size_t n = luma.size();
  const simd::QuantTable& qt = block_transform::QualityQuantTable(kQuality);

  // Shared scratch, written by every timed kernel.
  std::vector<int16_t> i16_a(n), i16_b(n), i16_out(n);
  std::vector<uint8_t> u8_out(n);
  scalar.u8_to_i16_center(luma.data(), i16_a.data(), n);
  for (size_t i = 0; i < n; ++i) {
    i16_b[i] = static_cast<int16_t>((static_cast<int>(i16_a[i]) * 3) / 4);
  }

  alignas(32) int16_t block[kBA];
  alignas(32) int32_t coeffs[kBA];
  std::memcpy(block, i16_a.data(), sizeof(block));
  scalar.fdct8x8(block, coeffs);  // valid quantize input by construction
  // Two of those coefficients alone: the first AC and row 2, column 2,
  // where most one-coefficient blocks of inter-coded video hold theirs.
  alignas(32) int32_t sparse[kBA] = {};
  const uint8_t sparse_pos[2] = {1, 18};
  for (uint8_t p : sparse_pos) sparse[p] = coeffs[p];
  // One luma-wide upsample row: the column products of luma rows 0 and 1,
  // each column's left and right tap weighted 1 - w and w.
  std::vector<double> products(4 * kWidth);
  for (int r = 0; r < 2; ++r) {
    const uint8_t* row = luma.row(r);
    for (int x = 0; x < kWidth; ++x) {
      const double w = (x % 8) / 8.0;
      const int right = std::min(x + 1, kWidth - 1);
      products[(2 * r) * kWidth + x] = (row[x] - 128) * (1 - w);
      products[(2 * r + 1) * kWidth + x] = (row[right] - 128) * w;
    }
  }

  using K = simd::CodecKernels;
  std::vector<std::vector<KernelPoint>> by_table(tables.size());
  auto measure = [&](const char* name, auto entry, auto&& make_call) {
    auto repeat = [](auto call) -> std::function<void()> {
      return [call] {
        for (int i = 0; i < kKernelIters; ++i) call();
      };
    };
    std::vector<std::function<void()>> variants = {repeat(make_call(scalar))};
    for (const K* k : tables) {
      if (k->*entry != scalar.*entry) variants.push_back(repeat(make_call(*k)));
    }
    const std::vector<bench::Summary> timings =
        bench::Measure(kKernelReps, variants);
    size_t next = 1;
    for (size_t t = 0; t < tables.size(); ++t) {
      KernelPoint p;
      p.name = name;
      p.level = simd::KernelLevelName(tables[t]->level);
      p.own_entry = tables[t]->*entry != scalar.*entry;
      p.scalar_ns = timings[0].median / kKernelIters;
      if (p.own_entry) p.simd_ns = timings[next++].median / kKernelIters;
      by_table[t].push_back(p);
    }
  };

  measure("fdct8x8", &K::fdct8x8, [&](const K& k) {
    return [&k, &block, &coeffs] {
      alignas(32) int32_t out[kBA];
      k.fdct8x8(block, out);
      Sink(static_cast<uint32_t>(out[0]));
      (void)coeffs;
    };
  });
  measure("idct8x8", &K::idct8x8, [&](const K& k) {
    return [&k, &coeffs] {
      alignas(32) int16_t out[kBA];
      k.idct8x8(coeffs, out);
      Sink(static_cast<uint32_t>(out[0]));
    };
  });
  measure("idct8x8_sparse", &K::idct8x8_sparse, [&](const K& k) {
    return [&k, &sparse, &sparse_pos] {
      alignas(32) int16_t out[kBA];
      k.idct8x8_sparse(sparse, sparse_pos, 2, out);
      Sink(static_cast<uint32_t>(out[0]));
    };
  });
  measure("quantize", &K::quantize, [&](const K& k) {
    return [&k, &coeffs, &qt] {
      alignas(32) int32_t work[kBA];
      std::memcpy(work, coeffs, sizeof(work));
      k.quantize(work, qt);
      Sink(static_cast<uint32_t>(work[0]));
    };
  });
  measure("dequantize", &K::dequantize, [&](const K& k) {
    return [&k, &coeffs, &qt] {
      alignas(32) int32_t work[kBA];
      std::memcpy(work, coeffs, sizeof(work));
      k.dequantize(work, qt);
      Sink(static_cast<uint32_t>(work[0]));
    };
  });
  measure("u8_to_i16_center", &K::u8_to_i16_center, [&](const K& k) {
    return [&k, &luma, &i16_out, n] {
      k.u8_to_i16_center(luma.data(), i16_out.data(), n);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  measure("i16_center_to_u8", &K::i16_center_to_u8, [&](const K& k) {
    return [&k, &i16_a, &u8_out, n] {
      k.i16_center_to_u8(i16_a.data(), u8_out.data(), n);
      Sink(u8_out[0]);
    };
  });
  measure("residual_u8", &K::residual_u8, [&](const K& k) {
    return [&k, &luma, &u8_out, &i16_out, n] {
      k.residual_u8(luma.data(), u8_out.data(), i16_out.data(), n);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  measure("reconstruct_u8", &K::reconstruct_u8, [&](const K& k) {
    return [&k, &luma, &i16_b, &u8_out, n] {
      k.reconstruct_u8(luma.data(), i16_b.data(), u8_out.data(), n);
      Sink(u8_out[0]);
    };
  });
  measure("add_block_u8", &K::add_block_u8, [&](const K& k) {
    uint8_t* dst = u8_out.data() + 8 * kWidth + 16;
    return [&k, &block, dst] {
      k.add_block_u8(block, kBS, kBS, dst, kWidth);
      Sink(dst[0]);
    };
  });
  measure("sub_i16", &K::sub_i16, [&](const K& k) {
    return [&k, &i16_a, &i16_b, &i16_out, n] {
      k.sub_i16(i16_a.data(), i16_b.data(), i16_out.data(), n);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  measure("upsample_add_row", &K::upsample_add_row, [&](const K& k) {
    return [&k, &products, &i16_out] {
      const double* p = products.data();
      k.upsample_add_row(p, p + kWidth, p + 2 * kWidth, p + 3 * kWidth,
                         0.625, 0.375, i16_out.data(), kWidth);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  measure("sad_u8", &K::sad_u8, [&](const K& k) {
    return [&k, &luma, &u8_out, n] {
      Sink(k.sad_u8(luma.data(), u8_out.data(), n));
    };
  });
  measure("sad16xh_u8", &K::sad16xh_u8, [&](const K& k) {
    const uint8_t* a = luma.row(8) + 16;
    const uint8_t* b = luma.row(24) + 40;
    return [&k, a, b] { Sink(k.sad16xh_u8(a, kWidth, b, kWidth, 16)); };
  });
  std::vector<KernelPoint> points;
  for (const auto& level_points : by_table) {
    points.insert(points.end(), level_points.begin(), level_points.end());
  }
  return points;
}

struct SparseIdctPoint {
  int count;                 // nonzero coefficients per block
  bench::Summary dense_ns;   // idct8x8, host ns per block
  bench::Summary sparse_ns;  // idct8x8_sparse on the same blocks
  double speedup() const { return dense_ns.median / sparse_ns.median; }
};

// For each count up to kSparseIdctMaxCoeffs, idct8x8 and idct8x8_sparse of
// table `k` on the same seeded blocks: `count` coefficients at distinct
// random positions, each a dequantized level of ±1 to ±8 steps.
std::vector<SparseIdctPoint> MeasureSparseIdct(const simd::CodecKernels& k) {
  using Positions = std::array<uint8_t, simd::kSparseIdctMaxCoeffs>;
  const simd::QuantTable& qt = block_transform::QualityQuantTable(kQuality);
  Rng rng(2801);
  std::vector<SparseIdctPoint> points;
  for (int count = 1; count <= simd::kSparseIdctMaxCoeffs; ++count) {
    std::vector<std::array<int32_t, kBA>> blocks(kSparseBlocks);
    std::vector<Positions> positions(kSparseBlocks);
    for (int b = 0; b < kSparseBlocks; ++b) {
      blocks[b].fill(0);
      for (int i = 0; i < count; ++i) {
        uint8_t p;
        do {
          p = static_cast<uint8_t>(rng.NextBelow(kBA));
        } while (blocks[b][p] != 0);
        const int32_t level = static_cast<int32_t>(rng.NextInRange(1, 8)) *
                              (rng.NextBool() ? 1 : -1);
        blocks[b][p] = simd::DequantizeLevel(level, qt.step[p]);
        positions[b][i] = p;
      }
    }
    const std::vector<bench::Summary> timings = bench::Measure(
        kKernelReps,
        {[&k, &blocks] {
           for (const auto& in : blocks) {
             alignas(32) int16_t out[kBA];
             k.idct8x8(in.data(), out);
             Sink(static_cast<uint32_t>(out[0]));
           }
         },
         [&k, &blocks, &positions, count] {
           for (int b = 0; b < kSparseBlocks; ++b) {
             alignas(32) int16_t out[kBA];
             k.idct8x8_sparse(blocks[b].data(), positions[b].data(), count,
                              out);
             Sink(static_cast<uint32_t>(out[0]));
           }
         }});
    const auto per_block = [](bench::Summary s) {
      return bench::Summary{s.median / kSparseBlocks, s.q1 / kSparseBlocks,
                            s.q3 / kSparseBlocks, s.min / kSparseBlocks};
    };
    points.push_back({count, per_block(timings[0]), per_block(timings[1])});
  }
  return points;
}

struct FpsPoint {
  double legacy_fps = 0;
  double current_fps = 0;
  double speedup = 0;
};

FpsPoint MeasureIntraFps() {
  const VideoFrame frame = synthetic::GeneratePatternFrame(
      kWidth, kHeight, 8, 0, synthetic::VideoPattern::kMovingBox);
  const std::vector<bench::Summary> timings = bench::Measure(
      kFpsReps,
      {[&frame] {
         Sink(static_cast<uint32_t>(
             LegacyEncodeFrame(frame, kQuality).size()));
       },
       [&frame] {
         Sink(static_cast<uint32_t>(
             IntraCodec::EncodeFrame(frame, kQuality).size()));
       }});
  FpsPoint p;
  p.legacy_fps = 1e9 / timings[0].median;
  p.current_fps = 1e9 / timings[1].median;
  p.speedup = p.current_fps / p.legacy_fps;
  return p;
}

struct IdentityPoint {
  std::vector<std::string> levels;
  bool pass = true;
};

// Encodes the intra frame and a 6-frame inter GOP at every available
// kernel level; all streams must match the scalar reference byte for byte.
IdentityPoint CheckByteIdentity() {
  IdentityPoint point;
  const VideoFrame frame = synthetic::GeneratePatternFrame(
      kWidth, kHeight, 8, 0, synthetic::VideoPattern::kMovingBox);
  const auto type = MediaDataType::RawVideo(64, 48, 24, Rational(10));
  auto video = synthetic::GenerateVideo(type, 6,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();
  VideoCodecParams params;
  params.gop_size = 3;

  if (!simd::ForceKernelsForTest(simd::KernelLevel::kScalar)) {
    std::printf("BYTE IDENTITY: cannot force scalar kernels\n");
    point.pass = false;
    return point;
  }
  const Buffer intra_ref = IntraCodec::EncodeFrame(frame, kQuality);
  const auto inter_ref = InterCodec().Encode(*video, params).value();

  for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
    if (level == simd::KernelLevel::kScalar) continue;
    if (!simd::ForceKernelsForTest(level)) continue;
    point.levels.push_back(simd::KernelLevelName(level));
    const Buffer intra = IntraCodec::EncodeFrame(frame, kQuality);
    if (!(intra == intra_ref)) {
      std::printf("BYTE IDENTITY: intra stream differs under %s\n",
                  simd::KernelLevelName(level));
      point.pass = false;
    }
    const auto inter = InterCodec().Encode(*video, params).value();
    for (size_t i = 0; i < inter.frames.size(); ++i) {
      if (!(inter.frames[i].data == inter_ref.frames[i].data)) {
        std::printf("BYTE IDENTITY: inter frame %zu differs under %s\n", i,
                    simd::KernelLevelName(level));
        point.pass = false;
      }
    }
  }
  simd::ResetKernelsForTest();
  return point;
}

struct SteadyStatePoint {
  int frames = 0;
  int64_t acquires = 0;
  int64_t reuses = 0;
  int64_t allocations = 0;
  double allocations_per_frame = 0;
};

// One warm-up inter encode+decode cycle, then a measured cycle: every
// Acquire must be served from the free list (see
// ZeroCopyTest.SteadyStateEncodeDecodeHasZeroPoolMisses for the same
// invariant as a unit test).
SteadyStatePoint MeasureSteadyState() {
  SteadyStatePoint point;
  point.frames = 6;
  const auto type = MediaDataType::RawVideo(64, 48, 24, Rational(10));
  auto video = synthetic::GenerateVideo(type, point.frames,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();
  VideoCodecParams params;
  params.gop_size = 3;
  BufferPool& pool = BufferPool::Shared();

  auto run_cycle = [&] {
    auto encoded = InterCodec().Encode(*video, params).value();
    auto session = InterCodec().NewDecoder(encoded).value();
    for (int64_t i = 0; i < point.frames; ++i) {
      Sink(session->DecodeFrame(i).value().At(0, 0));
    }
  };

  run_cycle();  // warm the pool
  pool.ResetStats();
  run_cycle();

  const BufferPool::Stats stats = pool.stats();
  point.acquires = stats.acquires;
  point.reuses = stats.reuses;
  point.allocations = stats.allocations;
  point.allocations_per_frame =
      static_cast<double>(stats.allocations) / point.frames;
  return point;
}

struct DecodePoint {
  const char* name;
  uint64_t frames_hash;  // FastHash64 of the decoded planes
  uint64_t pinned_hash;  // what frames_hash must be
  bench::Summary clip_ns;  // host ns per decode of the whole clip
};

std::string Hex(uint64_t v) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(v));
  return text;
}

// Decodes each clip front to back on a fresh session per timed call, the
// clips interleaved on bench::Measure. The frames hash comes from one
// more decode outside the timed rounds.
std::vector<DecodePoint> MeasureDecode() {
  struct Clip {
    const char* name;
    EncodingFamily family;
    int width, height, quality;
    uint64_t pinned_hash;
  };
  const Clip clips[] = {
      {"intra_qcif", EncodingFamily::kIntra, kWidth, kHeight, kQuality,
       0x68d06277aec60d48},
      {"inter_qcif", EncodingFamily::kInter, kWidth, kHeight, kQuality,
       0x1440b880c9866370},
      {"scalable_64x48_q95", EncodingFamily::kScalable, 64, 48, 95,
       0xd33141a2cf228230}};
  std::vector<std::shared_ptr<const VideoCodec>> codecs;
  std::vector<EncodedVideo> streams;
  for (const Clip& clip : clips) {
    const auto type =
        MediaDataType::RawVideo(clip.width, clip.height, 8, Rational(10));
    auto raw = synthetic::GenerateVideo(type, kDecodeFrames,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();
    VideoCodecParams params;
    params.quality = clip.quality;
    params.layer_count = 3;
    codecs.push_back(
        CodecRegistry::Default().VideoCodecFor(clip.family).value());
    streams.push_back(codecs.back()->Encode(*raw, params).value());
  }
  std::vector<std::function<void()>> variants;
  for (size_t c = 0; c < codecs.size(); ++c) {
    variants.push_back([&codecs, &streams, c] {
      auto session = codecs[c]->NewDecoder(streams[c]).value();
      for (int64_t i = 0; i < kDecodeFrames; ++i) {
        Sink(session->DecodeFrame(i).value().At(0, 0));
      }
    });
  }
  const std::vector<bench::Summary> timings =
      bench::Measure(kDecodeReps, variants);
  std::vector<DecodePoint> points;
  for (size_t c = 0; c < codecs.size(); ++c) {
    auto session = codecs[c]->NewDecoder(streams[c]).value();
    std::vector<uint8_t> planes;
    for (int64_t i = 0; i < kDecodeFrames; ++i) {
      const VideoFrame frame = session->DecodeFrame(i).value();
      planes.insert(planes.end(), frame.data().begin(), frame.data().end());
    }
    points.push_back({clips[c].name, FastHash64(planes.data(), planes.size()),
                      clips[c].pinned_hash, timings[c]});
  }
  return points;
}

struct AdpcmPoint {
  const char* name;
  uint64_t samples_hash;  // FastHash64 of every chunk's decoded samples
  uint64_t pinned_hash;   // what samples_hash must be
  double min_speedup;     // the gate on speedup()
  bool legacy_identical;  // LegacyAdpcmDecodeChunk decodes the same samples
  bench::Summary clip_ns;         // host ns per decode of the whole clip
  bench::Summary legacy_clip_ns;  // the same through the legacy decoder
  double speedup() const { return legacy_clip_ns.median / clip_ns.median; }
};

// FastHash64 of the samples `decode` yields for every chunk of `audio`, in
// chunk order.
template <typename Decode>
uint64_t AdpcmSamplesHash(const EncodedAudio& audio, Decode decode) {
  std::vector<int16_t> samples;
  for (int64_t c = 0; c < static_cast<int64_t>(audio.chunks.size()); ++c) {
    const AudioBlock block = decode(audio, c).value();
    samples.insert(samples.end(), block.samples().begin(),
                   block.samples().end());
  }
  return FastHash64(reinterpret_cast<const uint8_t*>(samples.data()),
                    samples.size() * sizeof(int16_t));
}

// Decodes each voice clip chunk by chunk, through the codec and through the
// legacy decoder, the four variants interleaved on bench::Measure.
std::vector<AdpcmPoint> MeasureAdpcm() {
  struct Clip {
    const char* name;
    int channels;
    uint64_t pinned_hash;
    double min_speedup;
  };
  const Clip clips[] = {{"voice_mono", 1, 0x8669fba8cfc55f96, 1.5},
                        {"voice_stereo", 2, 0x31a4784938323cf9, 1.0}};
  const AdpcmCodec codec;
  std::vector<EncodedAudio> streams;
  for (const Clip& clip : clips) {
    auto raw = synthetic::GenerateAudio(
                   MediaDataType::RawAudio(clip.channels, Rational(8000)),
                   int64_t{kAdpcmChunks} * AudioCodec::kDefaultChunkFrames,
                   synthetic::AudioPattern::kSpeechLike, 11)
                   .value();
    streams.push_back(codec.Encode(*raw).value());
  }
  const auto current = [&codec](const EncodedAudio& audio, int64_t c) {
    return codec.DecodeChunk(audio, c);
  };
  std::vector<std::function<void()>> variants;
  for (const EncodedAudio& stream : streams) {
    variants.push_back([&stream, &current] {
      for (int64_t c = 0; c < kAdpcmChunks; ++c) {
        Sink(static_cast<uint32_t>(current(stream, c).value().At(0, 0)));
      }
    });
    variants.push_back([&stream] {
      for (int64_t c = 0; c < kAdpcmChunks; ++c) {
        Sink(static_cast<uint32_t>(
            LegacyAdpcmDecodeChunk(stream, c).value().At(0, 0)));
      }
    });
  }
  const std::vector<bench::Summary> timings =
      bench::Measure(kAdpcmReps, variants);
  std::vector<AdpcmPoint> points;
  for (size_t c = 0; c < streams.size(); ++c) {
    const uint64_t hash = AdpcmSamplesHash(streams[c], current);
    points.push_back(
        {clips[c].name, hash, clips[c].pinned_hash, clips[c].min_speedup,
         hash == AdpcmSamplesHash(streams[c], LegacyAdpcmDecodeChunk),
         timings[2 * c], timings[2 * c + 1]});
  }
  return points;
}

struct ResamplerPoint {
  bool legacy_identical = true;   // both resamplers add the same samples
  bench::Summary frame_ns;        // LayerUpsampler, per frame's two steps
  bench::Summary legacy_frame_ns;  // LegacyUpsampleTo + LegacyAddI16
  double speedup() const { return legacy_frame_ns.median / frame_ns.median; }
};

// Both upsample steps of one vod_cold frame, from seeded centered-pixel
// source layers onto seeded residual-sized planes: through LayerUpsampler
// at the dispatched level, and through LegacyUpsampleTo plus the add,
// interleaved on bench::Measure. Each variant adds onto its own planes,
// round after round; the sums wrap, which is the arithmetic under test.
ResamplerPoint MeasureResampler() {
  struct Step {
    int src_width, src_height, width, height;
  };
  constexpr Step kSteps[] = {{16, 12, 32, 24}, {32, 24, 64, 48}};
  Rng rng(3001);
  std::vector<PlaneI16> sources;
  std::vector<std::vector<int16_t>> residuals;
  std::vector<LayerUpsampler> upsamplers;
  size_t window_size = 0;
  for (const Step& step : kSteps) {
    PlaneI16 src{step.src_width, step.src_height,
                 std::vector<int16_t>(static_cast<size_t>(step.src_width) *
                                      step.src_height)};
    for (int16_t& v : src.data) {
      v = static_cast<int16_t>(rng.NextInRange(-128, 127));
    }
    sources.push_back(std::move(src));
    std::vector<int16_t> residual(static_cast<size_t>(step.width) *
                                  step.height);
    for (int16_t& v : residual) {
      v = static_cast<int16_t>(rng.NextInRange(-40, 40));
    }
    residuals.push_back(std::move(residual));
    upsamplers.emplace_back(step.src_width, step.src_height, step.width,
                            step.height);
    window_size = std::max(window_size, upsamplers.back().window_size());
  }
  std::vector<double> window(window_size);
  const auto current = [&](std::vector<std::vector<int16_t>>* planes) {
    for (size_t s = 0; s < upsamplers.size(); ++s) {
      upsamplers[s].AddOnto(sources[s].data.data(), window.data(),
                            (*planes)[s].data());
    }
  };
  const auto legacy = [&](std::vector<std::vector<int16_t>>* planes) {
    for (size_t s = 0; s < upsamplers.size(); ++s) {
      const PlaneI16 pred =
          LegacyUpsampleTo(sources[s], kSteps[s].width, kSteps[s].height);
      LegacyAddI16(pred.data.data(), (*planes)[s].data(), (*planes)[s].data(),
                   pred.data.size());
    }
  };
  ResamplerPoint point;
  std::vector<std::vector<int16_t>> current_planes = residuals;
  std::vector<std::vector<int16_t>> legacy_planes = residuals;
  current(&current_planes);
  legacy(&legacy_planes);
  point.legacy_identical = current_planes == legacy_planes;
  const std::vector<bench::Summary> timings = bench::Measure(
      kResamplerReps,
      {[&] {
         for (int i = 0; i < kResamplerIters; ++i) current(&current_planes);
         Sink(static_cast<uint32_t>(current_planes.back()[0]));
       },
       [&] {
         for (int i = 0; i < kResamplerIters; ++i) legacy(&legacy_planes);
         Sink(static_cast<uint32_t>(legacy_planes.back()[0]));
       }});
  const auto per_frame = [](bench::Summary s) {
    return bench::Summary{s.median / kResamplerIters, s.q1 / kResamplerIters,
                          s.q3 / kResamplerIters, s.min / kResamplerIters};
  };
  point.frame_ns = per_frame(timings[0]);
  point.legacy_frame_ns = per_frame(timings[1]);
  return point;
}

}  // namespace

int main() {
  const std::vector<const simd::CodecKernels*> tables = SimdTables();
  const std::vector<KernelPoint> kernels =
      MeasureKernels(simd::ScalarKernels(), tables);
  const FpsPoint fps = MeasureIntraFps();
  const IdentityPoint identity = CheckByteIdentity();
  const SteadyStatePoint steady = MeasureSteadyState();
  const std::vector<DecodePoint> decode = MeasureDecode();
  const std::vector<AdpcmPoint> adpcm = MeasureAdpcm();
  // The widest table this CPU runs; the sparse gate holds at AVX2 only.
  const simd::CodecKernels& widest =
      tables.empty() ? simd::ScalarKernels() : *tables.front();
  const std::vector<SparseIdctPoint> sparse_idct = MeasureSparseIdct(widest);
  const bool sparse_gate_enforced = widest.level == simd::KernelLevel::kAvx2;
  const ResamplerPoint resampler = MeasureResampler();
  const bool resampler_gate_enforced =
      simd::ActiveKernels().level == simd::KernelLevel::kAvx2;

  // The 2x gate prices the *dispatched SIMD* pipeline; in a scalar-only
  // build (AVDB_SIMD=OFF or an unsupported CPU) the fps is reported but
  // not enforced — the identity and zero-allocation gates still are.
  const bool fps_gate_enforced =
      simd::ActiveKernels().level != simd::KernelLevel::kScalar;

  std::vector<bench::Object> kernel_rows;
  for (const KernelPoint& p : kernels) {
    bench::Object row = {{"name", p.name}, {"level", p.level}};
    if (p.own_entry) {
      row.insert(row.end(), {{"scalar_ns", bench::Fixed(p.scalar_ns, 1)},
                             {"simd_ns", bench::Fixed(p.simd_ns, 1)},
                             {"speedup", bench::Fixed(p.speedup(), 2)}});
    } else {
      row.insert(row.end(), {{"entry", "scalar"},
                             {"scalar_ns", bench::Fixed(p.scalar_ns, 1)}});
    }
    kernel_rows.push_back(std::move(row));
  }
  const auto us_per_frame = [](double clip_ns) {
    return bench::Fixed(clip_ns / kDecodeFrames / 1e3, 1);
  };
  std::vector<bench::Object> decode_rows;
  std::vector<bench::Object> decode_timing_rows;
  for (const DecodePoint& p : decode) {
    decode_rows.push_back({{"name", p.name},
                           {"frames", kDecodeFrames},
                           {"frames_hash", Hex(p.frames_hash)}});
    decode_timing_rows.push_back(
        {{"name", p.name},
         {"us_per_frame", us_per_frame(p.clip_ns.median)},
         {"q1", us_per_frame(p.clip_ns.q1)},
         {"q3", us_per_frame(p.clip_ns.q3)}});
  }
  const auto us_per_chunk = [](double clip_ns) {
    return bench::Fixed(clip_ns / kAdpcmChunks / 1e3, 2);
  };
  std::vector<bench::Object> adpcm_rows;
  std::vector<bench::Object> adpcm_timing_rows;
  for (const AdpcmPoint& p : adpcm) {
    adpcm_rows.push_back(
        {{"name", p.name},
         {"chunks", kAdpcmChunks},
         {"samples_hash", Hex(p.samples_hash)},
         {"legacy_identical", p.legacy_identical},
         {"gate_min_speedup", bench::Fixed(p.min_speedup, 1)}});
    adpcm_timing_rows.push_back(
        {{"name", p.name},
         {"us_per_chunk", us_per_chunk(p.clip_ns.median)},
         {"q1", us_per_chunk(p.clip_ns.q1)},
         {"q3", us_per_chunk(p.clip_ns.q3)},
         {"legacy_us_per_chunk", us_per_chunk(p.legacy_clip_ns.median)},
         {"legacy_q1", us_per_chunk(p.legacy_clip_ns.q1)},
         {"legacy_q3", us_per_chunk(p.legacy_clip_ns.q3)},
         {"speedup", bench::Fixed(p.speedup(), 2)}});
  }
  const auto ns = [](double v) { return bench::Fixed(v, 1); };
  std::vector<bench::Object> sparse_rows;
  for (const SparseIdctPoint& p : sparse_idct) {
    sparse_rows.push_back({{"count", p.count},
                           {"level", simd::KernelLevelName(widest.level)},
                           {"idct8x8_ns", ns(p.dense_ns.median)},
                           {"idct8x8_q1", ns(p.dense_ns.q1)},
                           {"idct8x8_q3", ns(p.dense_ns.q3)},
                           {"sparse_ns", ns(p.sparse_ns.median)},
                           {"sparse_q1", ns(p.sparse_ns.q1)},
                           {"sparse_q3", ns(p.sparse_ns.q3)},
                           {"speedup", bench::Fixed(p.speedup(), 2)},
                           {"gate_enforced", sparse_gate_enforced}});
  }
  const auto us = [](double ns) { return bench::Fixed(ns / 1e3, 2); };
  const bench::Object doc = {
      {"intra_fps", bench::Object{{"gate_min_speedup",
                                   bench::Fixed(kFpsGateMinSpeedup, 1)}}},
      {"sparse_idct",
       bench::Object{{"max_coeffs", simd::kSparseIdctMaxCoeffs},
                     {"gate_min_speedup",
                      bench::Fixed(kSparseGateMinSpeedup, 2)}}},
      {"resampler",
       bench::Object{{"steps", "16x12->32x24, 32x24->64x48"},
                     {"legacy_identical", resampler.legacy_identical},
                     {"gate_min_speedup",
                      bench::Fixed(kResamplerGateMinSpeedup, 1)}}},
      {"decode", decode_rows},
      {"adpcm_decode", adpcm_rows},
      {"byte_identity", bench::Object{{"identical", identity.pass}}},
      {"steady_state",
       bench::Object{{"frames", steady.frames},
                     {"acquires", steady.acquires},
                     {"reuses", steady.reuses},
                     {"allocations", steady.allocations},
                     {"allocations_per_frame",
                      bench::Fixed(steady.allocations_per_frame, 2)}}}};
  const bench::Object host = {
      {"kernels", kernel_rows},
      {"intra_fps",
       bench::Object{{"legacy_fps", bench::Fixed(fps.legacy_fps, 1)},
                     {"current_fps", bench::Fixed(fps.current_fps, 1)},
                     {"speedup", bench::Fixed(fps.speedup, 2)},
                     {"gate_enforced", fps_gate_enforced}}},
      {"byte_identity", bench::Object{{"levels", identity.levels}}},
      {"sparse_idct", sparse_rows},
      {"resampler",
       bench::Object{
           {"level", simd::KernelLevelName(simd::ActiveKernels().level)},
           {"us_per_frame", us(resampler.frame_ns.median)},
           {"q1", us(resampler.frame_ns.q1)},
           {"q3", us(resampler.frame_ns.q3)},
           {"legacy_us_per_frame", us(resampler.legacy_frame_ns.median)},
           {"legacy_q1", us(resampler.legacy_frame_ns.q1)},
           {"legacy_q3", us(resampler.legacy_frame_ns.q3)},
           {"speedup", bench::Fixed(resampler.speedup(), 2)},
           {"gate_enforced", resampler_gate_enforced}}},
      {"decode", decode_timing_rows},
      {"adpcm_decode", adpcm_timing_rows}};

  bench::Gates gates;
  gates.Check(bench::WriteReport("BENCH_codec_micro.json", doc, host),
              "BENCH_codec_micro.json written");
  for (const KernelPoint& p : kernels) {
    if (!p.own_entry) continue;
    gates.Check(p.speedup() >= kKernelGateMinSpeedup,
                std::string(p.name) + " (" + p.level +
                    ") median at least 1.0x scalar");
  }
  gates.Check(!fps_gate_enforced || fps.speedup >= kFpsGateMinSpeedup,
              "intra encode median at least 2.0x over legacy");
  for (const SparseIdctPoint& p : sparse_idct) {
    char gate[96];
    std::snprintf(gate, sizeof(gate),
                  "idct8x8_sparse (%d coefficient%s) median at least %.2fx "
                  "idct8x8",
                  p.count, p.count == 1 ? "" : "s", kSparseGateMinSpeedup);
    gates.Check(!sparse_gate_enforced ||
                    p.speedup() >= kSparseGateMinSpeedup,
                gate);
  }
  gates.Check(resampler.legacy_identical,
              "resampler adds the samples LegacyUpsampleTo does");
  char resampler_gate[64];
  std::snprintf(resampler_gate, sizeof(resampler_gate),
                "resampler median at least %.1fx legacy",
                kResamplerGateMinSpeedup);
  gates.Check(!resampler_gate_enforced ||
                  resampler.speedup() >= kResamplerGateMinSpeedup,
              resampler_gate);
  gates.Check(identity.pass, "kernel levels are byte-identical");
  gates.Check(steady.allocations == 0, "zero steady-state pool misses");
  for (const DecodePoint& p : decode) {
    gates.Check(p.frames_hash == p.pinned_hash,
                std::string(p.name) + " decoded frames hash " +
                    Hex(p.frames_hash) + " equals the pinned " +
                    Hex(p.pinned_hash));
  }
  for (const AdpcmPoint& p : adpcm) {
    gates.Check(p.samples_hash == p.pinned_hash,
                std::string(p.name) + " ADPCM samples hash " +
                    Hex(p.samples_hash) + " equals the pinned " +
                    Hex(p.pinned_hash));
    gates.Check(p.legacy_identical,
                std::string(p.name) + " legacy ADPCM decode is identical");
    char gate[64];
    std::snprintf(gate, sizeof(gate),
                  " ADPCM decode median at least %.1fx legacy", p.min_speedup);
    gates.Check(p.speedup() >= p.min_speedup, std::string(p.name) + gate);
  }
  return gates.ExitCode();
}
