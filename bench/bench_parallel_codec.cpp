// Parallel codec throughput: sweeps the codec concurrency knob over the
// intra, inter and scalable codecs, verifies that every width's stream
// (and every width's intra DecodeRange output) equals the width-1 result,
// and writes BENCH_parallel_codec.json with throughput, speedup over width
// 1 and buffer-pool counts. Exits 1 when any width differs. Each codec's
// widths are interleaved variants of bench::Measure, one encode (or one
// DecodeRange) per call, so every width meets the same host conditions;
// the host rows give median fps with its quartiles. The speedup a given
// machine can show is bounded by its core count — the JSON's `host`
// member records hardware_concurrency and the pool size so numbers from
// single-core CI boxes are read in context. The pool counts there are
// those of one call.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
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

constexpr int kReps = 15;  // timed calls per width

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
  std::printf("parallel codec sweep: %d frames of %s, %d reps per width\n",
              kFrames, type.ToString().c_str(), kReps);

  // One row per codec and width: does it reproduce width 1's output, and
  // at what throughput. `ns` holds each width's time per call.
  bool all_identical = true;
  std::vector<bench::Object> rows, host_rows;
  auto add_rows = [&](const std::string& codec,
                      const std::vector<bench::Summary>& ns,
                      const std::vector<bool>& identical,
                      const std::vector<BufferPool::Stats>& pool) {
    auto fps = [&](double ns_per_call) { return kFrames * 1e9 / ns_per_call; };
    for (size_t w = 0; w < widths.size(); ++w) {
      all_identical = all_identical && identical[w];
      rows.push_back({{"codec", codec}, {"concurrency", widths[w]},
                      {"byte_identical", identical[w]}});
      host_rows.push_back(
          {{"codec", codec}, {"concurrency", widths[w]},
           {"fps", bench::Fixed(fps(ns[w].median), 1)},
           {"fps_q1", bench::Fixed(fps(ns[w].q3), 1)},
           {"fps_q3", bench::Fixed(fps(ns[w].q1), 1)},
           {"speedup_vs_serial", bench::Fixed(ns[0].median / ns[w].median, 3)},
           {"pool_acquires", pool[w].acquires},
           {"pool_reuses", pool[w].reuses}});
    }
  };

  for (const auto& [name, codec_ptr] : codecs) {
    const VideoCodec* codec = codec_ptr;
    VideoCodecParams params;
    params.quality = 75;
    params.gop_size = 12;
    params.concurrency = 1;
    // Serial reference (also fills the buffer pool free lists).
    const EncodedVideo reference = codec->Encode(*video, params).value();
    std::vector<EncodedVideo> last(widths.size());
    std::vector<BufferPool::Stats> pool(widths.size());
    std::vector<std::function<void()>> variants;
    for (size_t w = 0; w < widths.size(); ++w) {
      variants.push_back([&, w] {
        VideoCodecParams width_params = params;
        width_params.concurrency = widths[w];
        BufferPool::Shared().ResetStats();
        last[w] = codec->Encode(*video, width_params).value();
        pool[w] = BufferPool::Shared().stats();
      });
    }
    const std::vector<bench::Summary> ns = bench::Measure(kReps, variants);
    std::vector<bool> identical;
    for (const EncodedVideo& encoded : last) {
      identical.push_back(SameBytes(encoded, reference));
    }
    add_rows(name, ns, identical, pool);
  }

  // Decode sweep over the intra codec (DecodeRange fan-out). A session
  // reads its stream in place, so each width keeps its own copy.
  {
    VideoCodecParams params;
    params.quality = 75;
    const EncodedVideo encoded = intra.Encode(*video, params).value();
    const std::vector<VideoFrame> reference =
        intra.NewDecoder(encoded).value()->DecodeRange(0, kFrames).value();
    std::vector<EncodedVideo> streams(widths.size(), encoded);
    std::vector<std::unique_ptr<VideoDecoderSession>> sessions;
    std::vector<std::vector<VideoFrame>> last(widths.size());
    std::vector<std::function<void()>> variants;
    for (size_t w = 0; w < widths.size(); ++w) {
      streams[w].params.concurrency = widths[w];
      sessions.push_back(intra.NewDecoder(streams[w]).value());
      variants.push_back([&, w] {
        last[w] = sessions[w]->DecodeRange(0, kFrames).value();
      });
    }
    const std::vector<bench::Summary> ns = bench::Measure(kReps, variants);
    std::vector<bool> identical;
    for (const auto& frames : last) identical.push_back(frames == reference);
    add_rows("intra-decode", ns, identical,
             std::vector<BufferPool::Stats>(widths.size()));
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
