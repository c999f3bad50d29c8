// Figure 2 — "Flow composition: simple activities (top) and a composite
// activity (bottom)."
//
// Regenerates both graphs — the flat chain read -> decode -> display and
// the composite source{read, decode} -> display — and verifies the paper's
// encapsulation claim: "the difference now being that an application
// working with a source activity need not be aware of its internal
// configuration." Dataflow results must be identical; the table reports
// frames, end-to-end latency, and per-connection bytes (the compressed hop
// carries far less than the raw hop).
//
// A third, traced run replays the flat flow from a faulted store with the
// observability stack attached and writes the Tracer timeline to
// BENCH_fig2_trace.json — the machine-readable bind -> cue -> start -> stop
// record, with the degradation ladder's actions interleaved at their
// virtual times. The exit code also gates on that timeline containing all
// four lifecycle spans and at least one degradation event.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "base/buffer.h"
#include "base/fault_injector.h"
#include "base/logging.h"

#include "activity/composite.h"
#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "activity/transformers.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "harness.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/degradation.h"
#include "storage/media_store.h"
#include "storage/value_serializer.h"

using namespace avdb;

namespace {

constexpr int kFrames = 60;

struct FlowReport {
  int64_t frames = 0;
  double mean_latency_ms = 0;  // arrival - ideal (can be <= 0 on time)
  double achieved_fps = 0;
  int64_t compressed_bytes = 0;
  int64_t raw_bytes = 0;
  uint64_t final_frame_hash = 0;
};

std::shared_ptr<EncodedVideoValue> MakeEncodedClip() {
  const auto type = MediaDataType::RawVideo(176, 144, 8, Rational(10));
  auto raw = synthetic::GenerateVideo(type, kFrames,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  VideoCodecParams params;
  params.quality = 80;
  return EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
      .value();
}

uint64_t HashFrame(const VideoFrame& frame) {
  return FastHash64(frame.data().data(), frame.data().size());
}

FlowReport RunFlat(bool print_topology) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto clip = MakeEncodedClip();

  auto reader = VideoSource::Create("read", ActivityLocation::kDatabase, env,
                                    {}, /*emit_encoded=*/true);
  AVDB_MUST(reader->Bind(clip, VideoSource::kPortOut));
  auto decoder =
      VideoDecoderActivity::Create("decode", ActivityLocation::kDatabase, env);
  AVDB_MUST(decoder->Bind(clip, VideoDecoderActivity::kPortIn));
  auto display =
      VideoWindow::Create("display", ActivityLocation::kClient, env,
                          VideoQuality(176, 144, 8, Rational(10)));
  AVDB_MUST(graph.Add(reader));
  AVDB_MUST(graph.Add(decoder));
  AVDB_MUST(graph.Add(display));
  AVDB_MUST(graph.Connect(reader.get(), VideoSource::kPortOut, decoder.get(),
                     VideoDecoderActivity::kPortIn));
  AVDB_MUST(graph.Connect(decoder.get(), VideoDecoderActivity::kPortOut,
                     display.get(), VideoWindow::kPortIn));
  if (print_topology) {
    std::cout << "Fig. 2 top — simple activities in a chain:\n"
              << graph.Describe() << "\n";
  }
  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();

  FlowReport report;
  report.frames = display->stats().elements_presented;
  report.mean_latency_ms = display->stats().MeanLatenessMs();
  report.achieved_fps = display->stats().AchievedRate();
  report.compressed_bytes = graph.connections()[0]->stats().bytes;
  report.raw_bytes = graph.connections()[1]->stats().bytes;
  report.final_frame_hash = HashFrame(display->last_frame());
  return report;
}

FlowReport RunComposite(bool print_topology) {
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto clip = MakeEncodedClip();

  auto source =
      CompositeActivity::Create("source", ActivityLocation::kDatabase, env);
  auto reader = VideoSource::Create("read", ActivityLocation::kDatabase, env,
                                    {}, /*emit_encoded=*/true);
  AVDB_MUST(reader->Bind(clip, VideoSource::kPortOut));
  auto decoder =
      VideoDecoderActivity::Create("decode", ActivityLocation::kDatabase, env);
  AVDB_MUST(decoder->Bind(clip, VideoDecoderActivity::kPortIn));
  AVDB_MUST(source->Install(reader));
  AVDB_MUST(source->Install(decoder));
  AVDB_MUST(source->ConnectChildren("read", VideoSource::kPortOut, "decode",
                               VideoDecoderActivity::kPortIn));
  AVDB_MUST(source->ExposePort("decode", VideoDecoderActivity::kPortOut, "out"));

  auto display =
      VideoWindow::Create("display", ActivityLocation::kClient, env,
                          VideoQuality(176, 144, 8, Rational(10)));
  AVDB_MUST(graph.Add(source));
  AVDB_MUST(graph.Add(display));
  AVDB_MUST(graph.Connect(source.get(), "out", display.get(),
                     VideoWindow::kPortIn));
  if (print_topology) {
    std::cout << "Fig. 2 bottom — read and decode grouped in a composite:\n"
              << graph.Describe() << "\n";
  }
  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();

  FlowReport report;
  report.frames = display->stats().elements_presented;
  report.mean_latency_ms = display->stats().MeanLatenessMs();
  report.achieved_fps = display->stats().AchievedRate();
  // The internal compressed hop lives inside the composite's child graph;
  // the external connection carries raw frames.
  report.raw_bytes = graph.connections()[0]->stats().bytes;
  report.compressed_bytes = static_cast<int64_t>(clip->StoredBytes());
  report.final_frame_hash = HashFrame(display->last_frame());
  return report;
}

struct TracedReport {
  int64_t frames = 0;
  int64_t degrade_events = 0;
  bool has_bind = false;
  bool has_cue = false;
  bool has_start = false;
  bool has_stop = false;
  int64_t trace_events = 0;
  bool trace_written = false;
};

/// The flat flow again, but from a faulted store with the observability
/// stack attached: every lifecycle verb lands in the tracer as a span, and
/// the degradation ladder's reactions to the injected faults interleave at
/// their virtual times. The dump is what a figure pipeline consumes.
TracedReport RunTraced() {
  EventEngine engine;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  tracer.SetClock([&engine] { return engine.now_ns(); });
  ActivityEnv env{&engine, nullptr, &metrics, &tracer};
  ActivityGraph graph(env);

  // A scalable clip through a faulted magnetic disk: latency spikes push
  // sink lateness over the drop threshold, so the ladder visibly acts.
  const auto type = MediaDataType::RawVideo(176, 144, 8, Rational(10));
  auto raw = synthetic::GenerateVideo(type, kFrames,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto codec = std::make_shared<ScalableCodec>();
  auto clip =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();

  auto device =
      std::make_shared<BlockDevice>("disk0", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  store.BindObservability(&metrics, &tracer);
  ServiceQueue queue("disk0");
  AVDB_MUST(store.Put("clip", value_serializer::Serialize(*clip).value()));

  FaultSpec spec;
  spec.read_error_rate = 0.05;
  spec.latency_spike_rate = 0.05;
  spec.latency_spike_ns = 30 * 1000 * 1000;
  spec.stuck_head_rate = 0.025;
  spec.stuck_head_stall_ns = 400 * 1000 * 1000;
  FaultInjector injector(spec, /*seed=*/42);
  device->set_fault_injector(&injector);

  DegradationController degrade;
  degrade.BindObservability(&metrics, &tracer, "read");

  SourceOptions source_options;
  source_options.store = &store;
  source_options.blob_name = "clip";
  source_options.device_queue = &queue;
  source_options.degrade = &degrade;
  auto source = VideoSource::Create("read", ActivityLocation::kDatabase, env,
                                    source_options);
  AVDB_MUST(source->Bind(clip, VideoSource::kPortOut));
  AVDB_MUST(source->Cue(WorldTime()));

  SinkOptions sink_options;
  sink_options.degrade = &degrade;
  auto display =
      VideoWindow::Create("display", ActivityLocation::kClient, env,
                          VideoQuality(176, 144, 8, Rational(10)),
                          sink_options);
  AVDB_MUST(graph.Add(source));
  AVDB_MUST(graph.Add(display));
  AVDB_MUST(graph.Connect(source.get(), VideoSource::kPortOut, display.get(),
                          VideoWindow::kPortIn));
  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();
  AVDB_MUST(source->Stop());
  AVDB_MUST(display->Stop());

  TracedReport report;
  report.frames = display->stats().elements_presented;
  for (const auto& event : tracer.Events()) {
    ++report.trace_events;
    if (event.phase == 'B') {
      if (event.name == "bind") report.has_bind = true;
      if (event.name == "cue") report.has_cue = true;
      if (event.name == "start") report.has_start = true;
      if (event.name == "stop") report.has_stop = true;
    }
    if (event.name == "degrade") ++report.degrade_events;
  }
  std::ofstream out("BENCH_fig2_trace.json");
  out << tracer.DumpJson() << "\n";
  out.close();
  report.trace_written = !out.fail();
  return report;
}

}  // namespace

int main() {
  std::cout << "==============================================================\n"
               "Figure 2 experiment: flow composition, flat vs composite\n"
               "==============================================================\n\n";

  const FlowReport flat = RunFlat(true);
  const FlowReport composite = RunComposite(true);

  std::printf("%-22s %10s %12s %12s %14s %14s\n", "configuration", "frames",
              "fps", "late(ms)", "bytes(comp)", "bytes(raw)");
  std::printf("%-22s %10lld %12.2f %12.2f %14lld %14lld\n", "flat chain",
              static_cast<long long>(flat.frames), flat.achieved_fps,
              flat.mean_latency_ms,
              static_cast<long long>(flat.compressed_bytes),
              static_cast<long long>(flat.raw_bytes));
  std::printf("%-22s %10lld %12.2f %12.2f %14lld %14lld\n", "composite source",
              static_cast<long long>(composite.frames),
              composite.achieved_fps, composite.mean_latency_ms,
              static_cast<long long>(composite.compressed_bytes),
              static_cast<long long>(composite.raw_bytes));

  bench::Gates gates;
  const bool same_output =
      flat.final_frame_hash == composite.final_frame_hash &&
      flat.frames == composite.frames;
  std::printf("\nencapsulation check: dataflow identical across the two "
              "configurations: %s\n",
              same_output ? "YES" : "NO");
  gates.Check(same_output,
              "encapsulation: flat and composite dataflow identical");
  std::printf("compression check: the compressed hop carried %.1fx fewer "
              "bytes than the raw hop\n",
              flat.compressed_bytes == 0
                  ? 0.0
                  : static_cast<double>(flat.raw_bytes) /
                        static_cast<double>(flat.compressed_bytes));

  const TracedReport traced = RunTraced();
  std::printf("\ntraced run (faulted store): %lld frames, %lld trace events "
              "-> BENCH_fig2_trace.json\n",
              static_cast<long long>(traced.frames),
              static_cast<long long>(traced.trace_events));
  std::printf("timeline check: bind=%s cue=%s start=%s stop=%s "
              "degradation events=%lld\n",
              traced.has_bind ? "YES" : "NO", traced.has_cue ? "YES" : "NO",
              traced.has_start ? "YES" : "NO", traced.has_stop ? "YES" : "NO",
              static_cast<long long>(traced.degrade_events));
  gates.Check(traced.trace_written, "BENCH_fig2_trace.json written");
  gates.Check(traced.has_bind && traced.has_cue && traced.has_start &&
                  traced.has_stop && traced.degrade_events > 0,
              "timeline: four lifecycle spans and a degradation event");
  return gates.ExitCode();
}
