// Parallel codec throughput: sweeps the codec concurrency knob over the
// intra, inter and scalable codecs, verifies that every width's stream
// (and every width's intra DecodeRange output) equals the width-1 result,
// and writes BENCH_parallel_codec.json with throughput, speedup over width
// 1 and buffer-pool allocation stats. Exits 1 when any width differs. The
// speedup a given machine can show is bounded by its core count — the
// JSON's `host` member records hardware_concurrency and the pool size so
// numbers from single-core CI boxes are read in context. Pool counts sit
// there too: each row's 0.5 s window runs as many encodes as the host
// manages.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "base/buffer_pool.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/scalable_codec.h"
#include "harness.h"
#include "media/synthetic.h"

using namespace avdb;

namespace {

bool SameBytes(const EncodedVideo& a, const EncodedVideo& b) {
  if (a.frames.size() != b.frames.size()) return false;
  for (size_t i = 0; i < a.frames.size(); ++i) {
    if (!(a.frames[i].data == b.frames[i].data)) return false;
    if (a.frames[i].layers != b.frames[i].layers) return false;
  }
  return true;
}

constexpr double kWindowSeconds = 0.5;  // timed per row

}  // namespace

int main() {
  // Size the shared pool before its first use so the sweep has lanes to
  // fan out on even where hardware_concurrency is low.
  setenv("AVDB_POOL_WORKERS", "8", /*overwrite=*/0);

  const auto type = MediaDataType::RawVideo(176, 144, 24, Rational(15));
  const int kFrames = 48;
  auto video = synthetic::GenerateVideo(type, kFrames,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();

  const IntraCodec intra;
  const InterCodec inter;
  const ScalableCodec scalable;
  const std::vector<std::pair<std::string, const VideoCodec*>> codecs = {
      {"intra", &intra}, {"inter", &inter}, {"scalable", &scalable}};
  const std::vector<int> widths = {1, 2, 4, 8};
  std::printf("parallel codec sweep: %d frames of %s\n", kFrames,
              type.ToString().c_str());

  // One row per codec and width: does it reproduce width 1's output, and
  // at what throughput over one kWindowSeconds window.
  bool all_identical = true;
  double serial_fps = 0;
  std::vector<bench::Object> rows, host_rows;
  auto add_row = [&](const std::string& codec, int width, double fps,
                     bool identical, const BufferPool::Stats& pool) {
    if (width == 1) serial_fps = fps;
    all_identical = all_identical && identical;
    rows.push_back({{"codec", codec}, {"concurrency", width},
                    {"byte_identical", identical}});
    host_rows.push_back(
        {{"codec", codec}, {"concurrency", width},
         {"fps", bench::Fixed(fps, 1)},
         {"speedup_vs_serial", bench::Fixed(fps / serial_fps, 3)},
         {"pool_acquires", pool.acquires}, {"pool_reuses", pool.reuses}});
  };

  for (const auto& [name, codec] : codecs) {
    VideoCodecParams params;
    params.quality = 75;
    params.gop_size = 12;
    params.concurrency = 1;
    // Warm-up + serial reference (also fills the buffer pool free lists).
    EncodedVideo reference = codec->Encode(*video, params).value();
    for (int width : widths) {
      params.concurrency = width;
      BufferPool::Shared().ResetStats();
      const bench::Stopwatch watch;
      int reps = 0;
      EncodedVideo last;
      do {
        last = codec->Encode(*video, params).value();
        ++reps;
      } while (watch.ElapsedSeconds() < kWindowSeconds);
      add_row(name, width, reps * kFrames / watch.ElapsedSeconds(),
              SameBytes(last, reference), BufferPool::Shared().stats());
    }
  }

  // Decode sweep over the intra codec (DecodeRange fan-out).
  {
    VideoCodecParams params;
    params.quality = 75;
    EncodedVideo encoded = intra.Encode(*video, params).value();
    std::vector<VideoFrame> reference =
        intra.NewDecoder(encoded).value()->DecodeRange(0, kFrames).value();
    for (int width : widths) {
      encoded.params.concurrency = width;
      auto session = intra.NewDecoder(encoded).value();
      const bench::Stopwatch watch;
      int reps = 0;
      std::vector<VideoFrame> last;
      do {
        last = session->DecodeRange(0, kFrames).value();
        ++reps;
      } while (watch.ElapsedSeconds() < kWindowSeconds);
      add_row("intra-decode", width, reps * kFrames / watch.ElapsedSeconds(),
              last == reference, BufferPool::Stats{});
    }
  }

  const bench::Object doc = {{"bench", "parallel_codec"},
                             {"frames", kFrames},
                             {"geometry", "176x144x24"},
                             {"all_byte_identical", all_identical},
                             {"runs", rows}};
  bench::Gates gates;
  gates.Check(bench::WriteReport("BENCH_parallel_codec.json", doc,
                                 {{"runs", host_rows}}),
              "BENCH_parallel_codec.json written");
  gates.Check(all_identical,
              "every width's stream and intra DecodeRange frames equal "
              "width 1's");
  return gates.ExitCode();
}
