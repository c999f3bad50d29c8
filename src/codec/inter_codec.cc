#include "codec/inter_codec.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "base/buffer_pool.h"
#include "base/logging.h"
#include "base/work_pool.h"
#include "codec/block_transform.h"
#include "codec/intra_codec.h"
#include "codec/simd/kernels.h"
#include "codec/varint.h"

namespace avdb {

namespace {

constexpr int kMacroblock = 16;
// Largest search_range Encode accepts, and so the largest vector component.
constexpr int kMaxSearchRange = 64;

struct MotionVector {
  int dx = 0;
  int dy = 0;
};

// Clamped sample fetch from a plane (replicating edges), so motion vectors
// may point partially outside the frame.
inline int SampleClamped(const PlaneView& plane, int x, int y) {
  if (x < 0) x = 0;
  if (x >= plane.width()) x = plane.width() - 1;
  if (y < 0) y = 0;
  if (y >= plane.height()) y = plane.height() - 1;
  return plane.at(x, y);
}

// Sum of absolute differences between the macroblock at (bx,by) in `cur`
// and the block displaced by (dx,dy) in `ref`. The common case — a full
// 16×16 block whose displaced twin lies entirely inside the frame — runs
// on the strided SAD kernel; partial/edge blocks fall back to the clamped
// scalar walk. Both paths compute the identical sum.
int64_t MacroblockSad(const PlaneView& cur, const PlaneView& ref, int bx,
                      int by, int dx, int dy) {
  const int width = cur.width();
  const int height = cur.height();
  if (bx + kMacroblock <= width && by + kMacroblock <= height &&
      bx + dx >= 0 && bx + dx + kMacroblock <= width && by + dy >= 0 &&
      by + dy + kMacroblock <= height) {
    return simd::ActiveKernels().sad16xh_u8(cur.row(by) + bx, width,
                                            ref.row(by + dy) + (bx + dx),
                                            width, kMacroblock);
  }
  int64_t sad = 0;
  for (int y = 0; y < kMacroblock; ++y) {
    const int cy = by + y;
    if (cy >= height) break;
    for (int x = 0; x < kMacroblock; ++x) {
      const int cx = bx + x;
      if (cx >= width) break;
      const int a = cur.at(cx, cy);
      const int b = SampleClamped(ref, cx + dx, cy + dy);
      sad += std::abs(a - b);
    }
  }
  return sad;
}

// Three-step search: classic logarithmic motion estimation. Returns the
// best vector within ±range.
MotionVector ThreeStepSearch(const PlaneView& cur, const PlaneView& ref,
                             int bx, int by, int range) {
  MotionVector best;
  int64_t best_sad = MacroblockSad(cur, ref, bx, by, 0, 0);
  int step = range / 2;
  if (step < 1) step = 1;
  while (step >= 1) {
    MotionVector round_best = best;
    int64_t round_sad = best_sad;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const int cx = best.dx + dx * step;
        const int cy = best.dy + dy * step;
        if (std::abs(cx) > range || std::abs(cy) > range) continue;
        const int64_t sad = MacroblockSad(cur, ref, bx, by, cx, cy);
        if (sad < round_sad) {
          round_sad = sad;
          round_best = {cx, cy};
        }
      }
    }
    best = round_best;
    best_sad = round_sad;
    step /= 2;
  }
  return best;
}

// Builds the motion-compensated prediction of a whole plane from `ref`
// given per-macroblock vectors, into width×height bytes of caller-owned
// storage. Macroblocks whose displaced source sits fully inside the frame
// copy row-wise, 16 bytes at a time when they are full width; edge
// macroblocks take the clamped per-sample path. Output matches the
// per-pixel definition exactly.
void PredictPlaneInto(const PlaneView& ref, const MotionVector* mvs,
                      int mb_cols, uint8_t* out) {
  const int width = ref.width();
  const int height = ref.height();
  const int mb_rows = (height + kMacroblock - 1) / kMacroblock;
  for (int my = 0; my < mb_rows; ++my) {
    const int by = my * kMacroblock;
    const int bh = std::min(kMacroblock, height - by);
    for (int mx = 0; mx < mb_cols; ++mx) {
      const int bx = mx * kMacroblock;
      const int bw = std::min(kMacroblock, width - bx);
      const MotionVector& mv = mvs[static_cast<size_t>(my) * mb_cols + mx];
      if (bx + mv.dx >= 0 && bx + mv.dx + bw <= width && by + mv.dy >= 0 &&
          by + mv.dy + bh <= height) {
        uint8_t* dst = out + static_cast<size_t>(by) * width + bx;
        const uint8_t* src = ref.row(by + mv.dy) + (bx + mv.dx);
        if (bw == kMacroblock) {
          for (int y = 0; y < bh; ++y, dst += width, src += width) {
            std::memcpy(dst, src, kMacroblock);
          }
        } else {
          for (int y = 0; y < bh; ++y, dst += width, src += width) {
            std::memcpy(dst, src, static_cast<size_t>(bw));
          }
        }
      } else {
        for (int y = 0; y < bh; ++y) {
          uint8_t* dst = out + static_cast<size_t>(by + y) * width + bx;
          for (int x = 0; x < bw; ++x) {
            dst[x] = static_cast<uint8_t>(
                SampleClamped(ref, bx + x + mv.dx, by + y + mv.dy));
          }
        }
      }
    }
  }
}

// Encodes a P-frame: motion vectors from plane 0, shared across planes;
// residuals transform-coded per plane. Returns the encoded bits and the
// reconstructed frame (which becomes the next reference). All plane data
// moves through zero-copy views and pooled scratch; the reference frame's
// reconstruction comes straight out of EncodePlane, so nothing is
// re-encoded or re-parsed.
Buffer EncodePFrame(const VideoFrame& cur, const VideoFrame& recon_ref,
                    int quality, int search_range, VideoFrame* recon_out) {
  const simd::CodecKernels& kernels = simd::ActiveKernels();
  BufferPool& pool = BufferPool::Shared();
  const int width = cur.width();
  const int height = cur.height();
  const size_t pixels = cur.plane_size();
  const int mb_cols = (width + kMacroblock - 1) / kMacroblock;
  const int mb_rows = (height + kMacroblock - 1) / kMacroblock;

  // Plane views are borrowed once per frame — motion search and every
  // per-plane pass below read the frames in place.
  const PlaneView cur_luma = cur.plane(0);
  const PlaneView ref_luma = recon_ref.plane(0);

  std::vector<MotionVector> mvs;
  mvs.reserve(static_cast<size_t>(mb_cols) * mb_rows);
  for (int my = 0; my < mb_rows; ++my) {
    for (int mx = 0; mx < mb_cols; ++mx) {
      mvs.push_back(ThreeStepSearch(cur_luma, ref_luma, mx * kMacroblock,
                                    my * kMacroblock, search_range));
    }
  }

  // Not pooled: the finished buffer escapes into the EncodedVideo result
  // and is owned by the caller, so its storage never comes back to the
  // pool. Leasing it would bleed pool capacity every frame.
  VarintWriter writer;
  for (const auto& mv : mvs) {
    writer.WriteSignedVarint(mv.dx);
    writer.WriteSignedVarint(mv.dy);
  }

  *recon_out = VideoFrame(width, height, cur.depth_bits());
  BufferPool::BytesLease pred(&pool, pixels);
  BufferPool::I16Lease residual(&pool, pixels);
  BufferPool::I16Lease recon_res(&pool, pixels);
  for (int p = 0; p < cur.plane_count(); ++p) {
    const PlaneView cur_plane = cur.plane(p);
    const PlaneView ref_plane = recon_ref.plane(p);
    PredictPlaneInto(ref_plane, mvs.data(), mb_cols, pred->data());
    kernels.residual_u8(cur_plane.data(), pred->data(), residual->data(),
                        pixels);
    block_transform::EncodePlane(residual->data(), width, height, quality,
                                 &writer, recon_res->data());
    const PlaneSpan recon_plane = recon_out->plane_span(p);
    kernels.reconstruct_u8(pred->data(), recon_res->data(),
                           recon_plane.data(), pixels);
  }
  return writer.Finish();
}

// Decodes a P-frame given the previously reconstructed reference. Each
// plane's prediction is written straight into the output frame and the
// coded residual blocks are added onto it. `mvs` is the caller's vector
// storage, reused from frame to frame.
Result<VideoFrame> DecodePFrame(const Buffer& data,
                                const VideoFrame& recon_ref, int quality,
                                std::vector<MotionVector>* mvs) {
  const int width = recon_ref.width();
  const int height = recon_ref.height();
  const int mb_cols = (width + kMacroblock - 1) / kMacroblock;
  const int mb_rows = (height + kMacroblock - 1) / kMacroblock;

  VarintReader reader(data);
  mvs->resize(static_cast<size_t>(mb_cols) * mb_rows);
  for (auto& mv : *mvs) {
    const int64_t dx = reader.ReadSignedVarint();
    const int64_t dy = reader.ReadSignedVarint();
    // The encoder's search never leaves ±kMaxSearchRange.
    if (dx < -kMaxSearchRange || dx > kMaxSearchRange ||
        dy < -kMaxSearchRange || dy > kMaxSearchRange) {
      return Status::DataLoss("motion vector out of range");
    }
    mv = {static_cast<int>(dx), static_cast<int>(dy)};
  }
  if (!reader.ok()) return reader.status();

  VideoFrame out(width, height, recon_ref.depth_bits());
  for (int p = 0; p < recon_ref.plane_count(); ++p) {
    const PlaneSpan out_plane = out.plane_span(p);
    PredictPlaneInto(recon_ref.plane(p), mvs->data(), mb_cols,
                     out_plane.data());
    AVDB_RETURN_IF_ERROR(block_transform::DecodePlaneOnto(
        width, height, quality, &reader, out_plane.data()));
  }
  return out;
}

/// Sequential decoder holding the reconstructed reference frame. Random
/// access re-enters at the nearest preceding I-frame and decodes forward.
class InterDecoderSession final : public VideoDecoderSession {
 public:
  explicit InterDecoderSession(const EncodedVideo& video) : video_(video) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    if (index != next_index_) {
      // Seek: if moving forward within the current GOP we can decode
      // through; otherwise re-enter at the access point.
      const bool can_roll_forward =
          next_index_ >= 0 && index > next_index_ - 1 && have_ref_;
      auto access = video_.AccessPointBefore(index);
      if (!access.ok()) return access.status();
      if (!can_roll_forward || access.value() >= next_index_) {
        next_index_ = access.value();
        have_ref_ = false;
      }
    }
    VideoFrame frame;
    while (next_index_ <= index) {
      auto decoded = DecodeNext();
      if (!decoded.ok()) return decoded.status();
      frame = std::move(decoded).value();
    }
    return frame;
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  Result<VideoFrame> DecodeNext() {
    const auto& ef = video_.frames[static_cast<size_t>(next_index_)];
    const auto& t = video_.raw_type;
    Result<VideoFrame> frame = Status::Internal("unreachable");
    if (ef.is_intra) {
      frame = IntraCodec::DecodeFrame(ef.data, t.width(), t.height(),
                                      t.depth_bits(), video_.params.quality);
    } else {
      if (!have_ref_) {
        return Status::DataLoss("P-frame without reference at frame " +
                                std::to_string(next_index_));
      }
      frame = DecodePFrame(ef.data, ref_, video_.params.quality, &mvs_);
    }
    if (!frame.ok()) return frame.status();
    ref_ = frame.value();
    have_ref_ = true;
    ++next_index_;
    ++decoded_;
    return frame;
  }

  const EncodedVideo& video_;
  VideoFrame ref_;
  std::vector<MotionVector> mvs_;  // the P-frame vectors, one per macroblock
  bool have_ref_ = false;
  int64_t next_index_ = 0;
  int64_t decoded_ = 0;
};

// Encodes one closed GOP: frames[0] becomes the I-frame (access point),
// the rest are P-chained off the running reconstruction, which the encoder
// writes as it goes. A pure function of the raw frames, so GOPs can encode
// on any thread in any order and still produce the same bytes.
std::vector<EncodedFrame> EncodeGop(const std::vector<VideoFrame>& frames,
                                    const VideoCodecParams& params) {
  std::vector<EncodedFrame> out;
  out.reserve(frames.size());
  VideoFrame recon;
  for (size_t k = 0; k < frames.size(); ++k) {
    const VideoFrame& frame = frames[k];
    EncodedFrame ef;
    if (k == 0) {
      ef.is_intra = true;
      ef.data = IntraCodec::EncodeFrame(frame, params.quality,
                                        /*concurrency=*/1, &recon);
    } else {
      ef.is_intra = false;
      VideoFrame new_recon;
      ef.data = EncodePFrame(frame, recon, params.quality,
                             params.search_range, &new_recon);
      recon = std::move(new_recon);
    }
    out.push_back(std::move(ef));
  }
  return out;
}

}  // namespace

Result<EncodedVideo> InterCodec::Encode(const VideoValue& value,
                                        const VideoCodecParams& params) const {
  if (value.type().IsCompressed()) {
    return Status::InvalidArgument("encoder input must be raw video");
  }
  if (params.gop_size < 1) {
    return Status::InvalidArgument("gop_size must be >= 1");
  }
  if (params.search_range < 1 || params.search_range > kMaxSearchRange) {
    return Status::InvalidArgument("search_range must be in [1, 64]");
  }
  EncodedVideo out;
  out.raw_type = value.type();
  out.family = family();
  out.params = params;
  const int64_t n = value.FrameCount();
  out.frames.reserve(static_cast<size_t>(n));

  // GOPs are closed units (every GOP starts with an I-frame, P-frames
  // never reference across the boundary), so they are the parallel grain:
  // intra-GOP frame dependencies stay serial inside EncodeGop, whole GOPs
  // fan out across the work pool. Raw frames are fetched serially
  // (VideoValue::Frame need not be thread-safe), a bounded batch of GOPs
  // at a time.
  const int64_t gop = params.gop_size;
  const int64_t gop_count = (n + gop - 1) / gop;
  const int64_t gop_batch =
      params.concurrency <= 1
          ? 1
          : std::max<int64_t>(static_cast<int64_t>(params.concurrency) * 2, 4);
  for (int64_t g0 = 0; g0 < gop_count; g0 += gop_batch) {
    const int64_t batch = std::min(gop_batch, gop_count - g0);
    std::vector<std::vector<VideoFrame>> raw(static_cast<size_t>(batch));
    for (int64_t g = 0; g < batch; ++g) {
      const int64_t first = (g0 + g) * gop;
      const int64_t count = std::min(gop, n - first);
      raw[static_cast<size_t>(g)].reserve(static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) {
        auto frame = value.Frame(first + i);
        if (!frame.ok()) return frame.status();
        raw[static_cast<size_t>(g)].push_back(std::move(frame).value());
      }
    }
    std::vector<std::vector<EncodedFrame>> encoded =
        WorkPool::Shared().ParallelMap<std::vector<EncodedFrame>>(
            params.concurrency, batch, [&](int64_t g) {
              return EncodeGop(raw[static_cast<size_t>(g)], params);
            });
    for (std::vector<EncodedFrame>& gop_frames : encoded) {
      for (EncodedFrame& ef : gop_frames) out.frames.push_back(std::move(ef));
    }
  }
  return out;
}

Result<std::unique_ptr<VideoDecoderSession>> InterCodec::NewDecoder(
    const EncodedVideo& video) const {
  if (video.family != EncodingFamily::kInter) {
    return Status::InvalidArgument("stream is not inter-coded");
  }
  return std::unique_ptr<VideoDecoderSession>(new InterDecoderSession(video));
}

}  // namespace avdb
