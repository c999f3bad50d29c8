// Parallel codec throughput: sweeps the codec concurrency knob over the
// intra, inter and scalable codecs, verifies that every width's stream
// (and every width's intra DecodeRange output) equals the width-1 result,
// and writes BENCH_parallel_codec.json with throughput, speedup over width
// 1 and buffer-pool allocation stats. Exits 1 when any width differs. The
// speedup a given machine can show is bounded by its core count — the
// JSON records hardware_concurrency and the pool size so numbers from
// single-core CI boxes are read in context.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/buffer_pool.h"
#include "base/work_pool.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/scalable_codec.h"
#include "media/synthetic.h"

using namespace avdb;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameBytes(const EncodedVideo& a, const EncodedVideo& b) {
  if (a.frames.size() != b.frames.size()) return false;
  for (size_t i = 0; i < a.frames.size(); ++i) {
    if (!(a.frames[i].data == b.frames[i].data)) return false;
    if (a.frames[i].layers != b.frames[i].layers) return false;
  }
  return true;
}

struct Run {
  std::string codec;
  int concurrency = 1;
  double fps = 0;
  double speedup = 1.0;
  bool byte_identical = true;
  int64_t pool_acquires = 0;
  int64_t pool_reuses = 0;
};

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
  std::printf("hardware_concurrency=%u pool_workers=%d\n\n",
              std::thread::hardware_concurrency(),
              WorkPool::Shared().worker_count());
  std::printf("%10s %6s %10s %9s %11s %10s %8s\n", "codec", "width", "fps",
              "speedup", "identical", "acquires", "reuses");

  std::vector<Run> runs;
  for (const auto& [name, codec] : codecs) {
    VideoCodecParams params;
    params.quality = 75;
    params.gop_size = 12;
    params.concurrency = 1;
    // Warm-up + serial reference (also fills the buffer pool free lists).
    EncodedVideo reference = codec->Encode(*video, params).value();
    double serial_fps = 0;
    for (int width : widths) {
      params.concurrency = width;
      BufferPool::Shared().ResetStats();
      const auto start = std::chrono::steady_clock::now();
      int reps = 0;
      EncodedVideo last;
      do {
        last = codec->Encode(*video, params).value();
        ++reps;
      } while (SecondsSince(start) < 0.5);
      const double fps = reps * kFrames / SecondsSince(start);
      const BufferPool::Stats stats = BufferPool::Shared().stats();

      Run run;
      run.codec = name;
      run.concurrency = width;
      run.fps = fps;
      if (width == 1) serial_fps = fps;
      run.speedup = serial_fps > 0 ? fps / serial_fps : 1.0;
      run.byte_identical = SameBytes(last, reference);
      run.pool_acquires = stats.acquires;
      run.pool_reuses = stats.reuses;
      runs.push_back(run);
      std::printf("%10s %6d %10.1f %8.2fx %11s %10lld %8lld\n", name.c_str(),
                  width, fps, run.speedup,
                  run.byte_identical ? "yes" : "NO",
                  static_cast<long long>(stats.acquires),
                  static_cast<long long>(stats.reuses));
    }
  }

  // Decode sweep over the intra codec (DecodeRange fan-out).
  std::printf("\n%10s %6s %10s %9s %11s\n", "decode", "width", "fps",
              "speedup", "identical");
  {
    VideoCodecParams params;
    params.quality = 75;
    EncodedVideo encoded = intra.Encode(*video, params).value();
    std::vector<VideoFrame> reference =
        intra.NewDecoder(encoded).value()->DecodeRange(0, kFrames).value();
    double serial_fps = 0;
    for (int width : widths) {
      encoded.params.concurrency = width;
      auto session = intra.NewDecoder(encoded).value();
      const auto start = std::chrono::steady_clock::now();
      int reps = 0;
      std::vector<VideoFrame> last;
      do {
        last = session->DecodeRange(0, kFrames).value();
        ++reps;
      } while (SecondsSince(start) < 0.5);
      const double fps = reps * kFrames / SecondsSince(start);
      if (width == 1) serial_fps = fps;

      Run run;
      run.codec = "intra-decode";
      run.concurrency = width;
      run.fps = fps;
      run.speedup = serial_fps > 0 ? fps / serial_fps : 1.0;
      run.byte_identical = last == reference;
      runs.push_back(run);
      std::printf("%10s %6d %10.1f %8.2fx %11s\n", "intra", width, fps,
                  run.speedup, run.byte_identical ? "yes" : "NO");
    }
  }

  bool all_identical = true;
  for (const Run& r : runs) all_identical = all_identical && r.byte_identical;

  FILE* out = std::fopen("BENCH_parallel_codec.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel_codec.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"parallel_codec\",\n");
  std::fprintf(out, "  \"frames\": %d,\n", kFrames);
  std::fprintf(out, "  \"geometry\": \"176x144x24\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"pool_workers\": %d,\n",
               WorkPool::Shared().worker_count());
  std::fprintf(out, "  \"all_byte_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::fprintf(out,
                 "    {\"codec\": \"%s\", \"concurrency\": %d, "
                 "\"fps\": %.1f, \"speedup_vs_serial\": %.3f, "
                 "\"byte_identical\": %s, \"pool_acquires\": %lld, "
                 "\"pool_reuses\": %lld}%s\n",
                 r.codec.c_str(), r.concurrency, r.fps, r.speedup,
                 r.byte_identical ? "true" : "false",
                 static_cast<long long>(r.pool_acquires),
                 static_cast<long long>(r.pool_reuses),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_parallel_codec.json (all byte-identical: %s)\n",
              all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
}
