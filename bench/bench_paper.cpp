// The paper's evaluation, measured: Figures 1-4, Table 1 and seven
// ablations of its design claims, one function each.
//
// The paper (Gibbs/Breiteneder/Tsichritzis, ICDE '93) has no quantitative
// evaluation: its figures and its table are the artifacts. Each function
// below rebuilds one of them from live objects, plays it on the
// deterministic virtual-time engine over the modeled 1993 devices, checks
// the shape the paper argues for as named gates and returns its members
// of BENCH_paper.json. Only two numbers are host time, Table 1's QCIF
// throughput and the scalable decode cost; they go under the JSON's `host`
// member. The `bench_output_paper` ctest compares everything above `host`
// with the committed file, and tools/render_experiments.py renders
// EXPERIMENTS.md's tables from it.
//
// Output: BENCH_paper.json, plus the Fig. 2 traced run's Tracer timeline
// in BENCH_fig2_trace.json. Exit code is non-zero when any gate fails.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "activity/composite.h"
#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "activity/transformers.h"
#include "base/buffer.h"
#include "base/fault_injector.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/strings.h"
#include "codec/inter_codec.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "db/database.h"
#include "harness.h"
#include "media/quality.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/degradation.h"
#include "storage/media_store.h"
#include "storage/value_serializer.h"
#include "vworld/activities.h"

using namespace avdb;

namespace {

/// Timed rounds per host-timed variant, after one untimed warm-up round.
constexpr int kHostReps = 9;

/// `text` split at newlines, without the empty piece after the last one.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

/// True when each of `values` stands in `order` to the one before it, e.g.
/// std::less<>() for strictly rising.
template <typename Order>
bool Ordered(const std::vector<double>& values, Order order) {
  return std::adjacent_find(values.begin(), values.end(),
                            [&](double a, double b) {
                              return !order(a, b);
                            }) == values.end();
}

/// The platform most scenarios share: magnetic disks disk0, disk1, ..., an
/// optional channel "net", and a class `Clip` whose one attribute,
/// `footage`, holds video.
std::unique_ptr<AvDatabase> ClipDatabase(
    int disks, std::optional<Channel::Profile> net = std::nullopt,
    AvDatabaseConfig config = {}) {
  auto db = std::make_unique<AvDatabase>(config);
  for (int i = 0; i < disks; ++i) {
    AVDB_MUST(db->AddDevice("disk" + std::to_string(i),
                            DeviceProfile::MagneticDisk()));
  }
  if (net) {
    AVDB_MUST(db->AddChannel("net", *net));
  }
  ClassDef clip("Clip");
  AVDB_MUST(clip.AddAttribute({"footage", AttrType::kVideo, {}, {}}));
  AVDB_MUST(db->DefineClass(clip));
  return db;
}

/// A new Clip whose footage is `value`, stored on `device`.
Oid AddClip(AvDatabase& db, const MediaValue& value,
            const std::string& device) {
  const Oid oid = db.NewObject("Clip").value();
  AVDB_MUST(db.SetMediaAttribute(oid, "footage", value, device));
  return oid;
}

/// A source of `oid`'s footage built by hand, past admission control: the
/// scenarios that use it measure what the device delivers, not what the
/// controller would allow.
VideoSource* UnadmittedSource(AvDatabase& db, const std::string& name,
                              Oid oid) {
  const MediaVersion version = db.MediaHistory(oid, "footage").value().back();
  SourceOptions options;
  options.fetcher = FetchFrom(db.devices().GetStore(version.device).value());
  options.blob_name = version.blob_name;
  options.device_queue = db.DeviceQueue(version.device).value();
  auto source = VideoSource::Create(name, ActivityLocation::kDatabase,
                                    db.env(), options);
  AVDB_MUST(source->Bind(db.LoadMediaAttribute(oid, "footage").value(),
                         VideoSource::kPortOut));
  AVDB_MUST(db.graph().Add(source));
  return source.get();
}

// ------------------------------------------------------------ Figure 1 ---
// "Timeline diagram for a Newscast.clip value." The stored instance's
// timeline is rendered, then the 4-track clip is played with the audio as
// master on a clean platform and on a stressed one (workstation jitter, a
// congested T1 under the video track), with resynchronization off and on.
// §3.3: "AV values tend to jitter and require regular resynchronization."

struct Fig1Run {
  std::string timeline;
  std::vector<bench::Object> tracks;
  double peak_skew_ms = 0;
  double end_skew_ms = 0;
  int64_t resyncs = 0;
  int64_t skipped = 0;  // elements resynchronization skipped, all tracks
};

Fig1Run PlayNewscast(bool resync, uint64_t jitter_seed, bool congested) {
  AvDatabaseConfig config;
  config.jitter_seed = jitter_seed;
  AvDatabase db(config);
  AVDB_MUST(db.AddDevice("disk0", DeviceProfile::MagneticDisk()));
  AVDB_MUST(db.AddDevice("disk1", DeviceProfile::MagneticDisk()));
  // Stressed, the video track crosses a T1 that barely carries its
  // 192 KB/s, pre-loaded with a burst, so it starts behind and stays behind
  // unless resynchronization skips it forward.
  AVDB_MUST(db.AddChannel("video-link", congested
                                            ? Channel::Profile::T1()
                                            : Channel::Profile::Ethernet10()));
  if (congested) {
    db.GetChannel("video-link").value()->Transfer(0, 150 * 1000);
  }

  ClassDef newscast("Newscast");
  AVDB_MUST(newscast.AddAttribute({"title", AttrType::kString, {}, {}}));
  TcompDef clip;
  clip.name = "clip";
  clip.tracks.push_back({"videoTrack", AttrType::kVideo, {}, {}});
  clip.tracks.push_back({"englishTrack", AttrType::kAudio, {}, {}});
  clip.tracks.push_back({"frenchTrack", AttrType::kAudio, {}, {}});
  clip.tracks.push_back({"subtitleTrack", AttrType::kText, {}, {}});
  AVDB_MUST(newscast.AddTcomp(clip));
  AVDB_MUST(db.DefineClass(newscast));

  const auto vtype = MediaDataType::RawVideo(160, 120, 8, Rational(10));
  auto video = synthetic::GenerateVideo(vtype, 60,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();
  auto english =
      synthetic::GenerateAudio(MediaDataType::VoiceAudio(), 4 * 8000,
                               synthetic::AudioPattern::kSpeechLike, 1)
          .value();
  auto french =
      synthetic::GenerateAudio(MediaDataType::VoiceAudio(), 4 * 8000,
                               synthetic::AudioPattern::kSpeechLike, 2)
          .value();
  auto subtitles =
      synthetic::GenerateSubtitles(MediaDataType::Text(Rational(10)), 5, 6, 2,
                                   "Sub")
          .value();

  Oid oid = db.NewObject("Newscast").value();
  AVDB_MUST(db.SetScalar(oid, "title", std::string("Fig1")));
  // The Fig. 1 shape: video spans the whole clip, other tracks [t1, t2).
  AVDB_MUST(db.SetTcompTrack(oid, "clip", "videoTrack", *video, "disk0",
                             WorldTime(), WorldTime::FromSeconds(6)));
  AVDB_MUST(db.SetTcompTrack(oid, "clip", "englishTrack", *english, "disk1",
                             WorldTime::FromSeconds(2),
                             WorldTime::FromSeconds(4)));
  AVDB_MUST(db.SetTcompTrack(oid, "clip", "frenchTrack", *french, "disk1",
                             WorldTime::FromSeconds(2),
                             WorldTime::FromSeconds(4)));
  AVDB_MUST(db.SetTcompTrack(oid, "clip", "subtitleTrack", *subtitles,
                             "disk1", WorldTime::FromSeconds(2),
                             WorldTime::FromSeconds(4)));

  Fig1Run run;
  run.timeline = db.GetTcomp(oid, "clip").value()->timeline.Render(52);

  auto sink = MultiSink::Create("sink", ActivityLocation::kClient, db.env());
  SyncController::Params params;
  if (!resync) params.skew_threshold_ns = int64_t{1} << 60;  // never skip
  sink->sync()->set_params(params);

  auto audio_en = AudioSink::Create("en", ActivityLocation::kClient, db.env(),
                                    AudioQuality::kVoice);
  auto audio_fr = AudioSink::Create("fr", ActivityLocation::kClient, db.env(),
                                    AudioQuality::kVoice);
  auto window = VideoWindow::Create("win", ActivityLocation::kClient,
                                    db.env(),
                                    VideoQuality(160, 120, 8, Rational(10)));
  auto subs = TextSink::Create("subs", ActivityLocation::kClient, db.env());
  AVDB_MUST(sink->InstallSynced(audio_en, "englishTrack", /*master=*/true));
  AVDB_MUST(sink->InstallSynced(audio_fr, "frenchTrack"));
  AVDB_MUST(sink->InstallSynced(window, "videoTrack"));
  AVDB_MUST(sink->InstallSynced(subs, "subtitleTrack"));
  AVDB_MUST(db.graph().Add(sink));

  auto stream = db.NewMultiSourceFor("bench", oid, "clip", sink->sync());
  auto* source = stream.value().source;
  subs->FindPort(TextSink::kPortIn)
      .value()
      ->set_data_type(
          source->FindPort("subtitleTrack_out").value()->data_type());
  AVDB_MUST(db.graph().Connect(
      source->FindPort("videoTrack_out").value()->owner(), "video_out",
      sink.get(), "videoTrack_in", db.GetChannel("video-link").value()));
  AVDB_MUST(db.NewConnection(source, "englishTrack_out", sink.get(),
                             "englishTrack_in"));
  AVDB_MUST(db.NewConnection(source, "frenchTrack_out", sink.get(),
                             "frenchTrack_in"));
  AVDB_MUST(db.NewConnection(source, "subtitleTrack_out", sink.get(),
                             "subtitleTrack_in"));
  AVDB_MUST(db.StartStream(stream.value()));
  db.RunUntilIdle();

  run.peak_skew_ms = sink->sync()->stats().max_observed_skew_ns / 1e6;
  run.end_skew_ms = sink->sync()->CurrentMaxSkewNs() / 1e6;
  run.resyncs = sink->sync()->stats().resyncs;
  run.skipped = sink->sync()->stats().elements_skipped;
  // Streams begin after the source preroll (80 ms); audio and subtitles
  // 2 s later still.
  auto add_track = [&](const char* track, const StreamStats& stats,
                       double expected_start_s) {
    run.tracks.push_back(
        {{"platform", congested ? "stressed" : "clean"},
         {"resync", resync},
         {"track", track},
         {"presented", stats.elements_presented},
         {"start_err_ms",
          bench::Fixed(stats.first_element_ns < 0
                           ? -1
                           : stats.first_element_ns / 1e6 -
                                 expected_start_s * 1000,
                       1)},
         {"mean_late_ms", bench::Fixed(stats.MeanLatenessMs(), 2)}});
  };
  add_track("videoTrack", window->stats(), 0.08);
  add_track("englishTrack", audio_en->stats(), 2.08);
  add_track("frenchTrack", audio_fr->stats(), 2.08);
  add_track("subtitleTrack", subs->stats(), 2.08);
  AVDB_MUST(db.StopStream(stream.value()));
  return run;
}

bench::Object Fig1Timeline(bench::Gates& gates) {
  const Fig1Run clean = PlayNewscast(true, 0, false);
  const Fig1Run stressed_off = PlayNewscast(false, 42, true);
  const Fig1Run stressed_on = PlayNewscast(true, 42, true);

  std::vector<bench::Object> runs, tracks;
  for (const Fig1Run* run : {&clean, &stressed_off, &stressed_on}) {
    runs.push_back({{"platform", run == &clean ? "clean" : "stressed"},
                    {"resync", run != &stressed_off},
                    {"peak_skew_ms", bench::Fixed(run->peak_skew_ms, 1)},
                    {"end_skew_ms", bench::Fixed(run->end_skew_ms, 1)},
                    {"resyncs", run->resyncs},
                    {"skipped", run->skipped}});
    tracks.insert(tracks.end(), run->tracks.begin(), run->tracks.end());
  }
  gates.Check(stressed_on.end_skew_ms <= 100,
              "Fig. 1: with resync the stressed clip ends within one frame "
              "period (100 ms) of the master");
  gates.Check(stressed_off.end_skew_ms >= 500,
              "Fig. 1: without resync the stressed clip ends at least 0.5 s "
              "off the master");
  return {{"fig1_timeline", Lines(clean.timeline)},
          {"fig1_runs", runs},
          {"fig1_tracks", tracks}};
}

// ------------------------------------------------------------ Figure 2 ---
// "Flow composition: simple activities (top) and a composite activity
// (bottom)." Both graphs run one intra-coded clip; "an application working
// with a source activity need not be aware of its internal configuration",
// so the dataflow must be identical. A third run replays the flat flow from
// a faulted store with the observability stack attached and writes the
// Tracer timeline, lifecycle spans and degradation events at their virtual
// times, to BENCH_fig2_trace.json.

constexpr int kFig2Frames = 60;

std::shared_ptr<EncodedVideoValue> Fig2Clip() {
  const auto type = MediaDataType::RawVideo(176, 144, 8, Rational(10));
  auto raw = synthetic::GenerateVideo(type, kFig2Frames,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  VideoCodecParams params;
  params.quality = 80;
  return EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
      .value();
}

struct FlowRun {
  std::vector<std::string> topology;
  const StreamStats* stats = nullptr;
  int64_t compressed_bytes = 0;
  int64_t raw_bytes = 0;
  uint64_t final_frame_hash = 0;
};

/// Runs `graph` and reads what `display` presented.
void RunFlow(ActivityGraph& graph, const VideoWindow& display,
             FlowRun& flow) {
  flow.topology = Lines(graph.Describe());
  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();
  flow.stats = &display.stats();
  flow.final_frame_hash = FastHash64(display.last_frame().data().data(),
                                     display.last_frame().data().size());
}

/// The flow's members of one Fig. 2 row.
bench::Object FlowRow(const char* configuration, const FlowRun& flow) {
  return {{"configuration", configuration},
          {"frames", flow.stats->elements_presented},
          {"fps", bench::Fixed(flow.stats->AchievedRate(), 2)},
          {"late_ms", bench::Fixed(flow.stats->MeanLatenessMs(), 2)},
          {"compressed_bytes", flow.compressed_bytes},
          {"raw_bytes", flow.raw_bytes}};
}

struct Fig2Trace {
  int64_t frames = 0;
  int64_t events = 0;
  int64_t degrade_events = 0;
  bool lifecycle = false;  // bind, cue, start and stop spans all present
  bool written = false;
  /// One line per event: `t_ns ph cat.name actor detail`.
  std::vector<std::string> timeline;
};

Fig2Trace TraceFaultedFlow() {
  EventEngine engine;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  tracer.SetClock([&engine] { return engine.now_ns(); });
  ActivityEnv env{&engine, nullptr, &metrics, &tracer};
  ActivityGraph graph(env);

  // A scalable clip through a faulted magnetic disk: latency spikes push
  // sink lateness over the drop threshold, so the ladder visibly acts.
  const auto type = MediaDataType::RawVideo(176, 144, 8, Rational(10));
  auto raw = synthetic::GenerateVideo(type, kFig2Frames,
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
  source_options.fetcher = FetchFrom(&store);
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

  Fig2Trace trace;
  trace.frames = display->stats().elements_presented;
  std::vector<std::string> spans;
  for (const auto& event : tracer.Events()) {
    ++trace.events;
    if (event.phase == 'B') spans.push_back(event.name);
    if (event.name == "degrade") ++trace.degrade_events;
    std::string line = std::to_string(event.t_ns) + " " + event.phase + " " +
                       event.category + "." + event.name + " " + event.actor;
    if (!event.detail.empty()) line += " " + event.detail;
    trace.timeline.push_back(std::move(line));
  }
  trace.lifecycle = true;
  for (const char* verb : {"bind", "cue", "start", "stop"}) {
    trace.lifecycle = trace.lifecycle &&
                      std::find(spans.begin(), spans.end(), verb) !=
                          spans.end();
  }
  std::ofstream out("BENCH_fig2_trace.json");
  out << tracer.DumpJson() << "\n";
  out.close();
  trace.written = !out.fail();
  return trace;
}

bench::Object Fig2Flow(bench::Gates& gates) {
  // Top: read -> decode -> display as three simple activities.
  EventEngine flat_engine;
  ActivityGraph flat_graph(ActivityEnv{&flat_engine, nullptr});
  const ActivityEnv flat_env = flat_graph.env();
  auto flat_clip = Fig2Clip();
  auto reader = VideoSource::Create("read", ActivityLocation::kDatabase,
                                    flat_env, {}, /*emit_encoded=*/true);
  AVDB_MUST(reader->Bind(flat_clip, VideoSource::kPortOut));
  auto decoder = VideoDecoderActivity::Create(
      "decode", ActivityLocation::kDatabase, flat_env);
  AVDB_MUST(decoder->Bind(flat_clip, VideoDecoderActivity::kPortIn));
  auto flat_display =
      VideoWindow::Create("display", ActivityLocation::kClient, flat_env,
                          VideoQuality(176, 144, 8, Rational(10)));
  AVDB_MUST(flat_graph.Add(reader));
  AVDB_MUST(flat_graph.Add(decoder));
  AVDB_MUST(flat_graph.Add(flat_display));
  AVDB_MUST(flat_graph.Connect(reader.get(), VideoSource::kPortOut,
                               decoder.get(), VideoDecoderActivity::kPortIn));
  AVDB_MUST(flat_graph.Connect(decoder.get(), VideoDecoderActivity::kPortOut,
                               flat_display.get(), VideoWindow::kPortIn));
  FlowRun flat;
  RunFlow(flat_graph, *flat_display, flat);
  flat.compressed_bytes = flat_graph.connections()[0]->stats().bytes;
  flat.raw_bytes = flat_graph.connections()[1]->stats().bytes;

  // Bottom: the same read and decode grouped in a composite source.
  EventEngine engine;
  ActivityGraph graph(ActivityEnv{&engine, nullptr});
  const ActivityEnv env = graph.env();
  auto clip = Fig2Clip();
  auto composite =
      CompositeActivity::Create("source", ActivityLocation::kDatabase, env);
  auto inner_reader = VideoSource::Create("read", ActivityLocation::kDatabase,
                                          env, {}, /*emit_encoded=*/true);
  AVDB_MUST(inner_reader->Bind(clip, VideoSource::kPortOut));
  auto inner_decoder =
      VideoDecoderActivity::Create("decode", ActivityLocation::kDatabase, env);
  AVDB_MUST(inner_decoder->Bind(clip, VideoDecoderActivity::kPortIn));
  AVDB_MUST(composite->Install(inner_reader));
  AVDB_MUST(composite->Install(inner_decoder));
  AVDB_MUST(composite->ConnectChildren("read", VideoSource::kPortOut,
                                       "decode",
                                       VideoDecoderActivity::kPortIn));
  AVDB_MUST(
      composite->ExposePort("decode", VideoDecoderActivity::kPortOut, "out"));
  auto display =
      VideoWindow::Create("display", ActivityLocation::kClient, env,
                          VideoQuality(176, 144, 8, Rational(10)));
  AVDB_MUST(graph.Add(composite));
  AVDB_MUST(graph.Add(display));
  AVDB_MUST(graph.Connect(composite.get(), "out", display.get(),
                          VideoWindow::kPortIn));
  FlowRun grouped;
  RunFlow(graph, *display, grouped);
  // The compressed hop lives inside the composite's child graph; the
  // external connection carries raw frames.
  grouped.compressed_bytes = static_cast<int64_t>(clip->StoredBytes());
  grouped.raw_bytes = graph.connections()[0]->stats().bytes;

  const Fig2Trace trace = TraceFaultedFlow();
  gates.Check(flat.final_frame_hash == grouped.final_frame_hash &&
                  flat.stats->elements_presented ==
                      grouped.stats->elements_presented,
              "Fig. 2: flat and composite dataflow identical");
  gates.Check(trace.written, "BENCH_fig2_trace.json written");
  gates.Check(trace.lifecycle && trace.degrade_events > 0,
              "Fig. 2: timeline has four lifecycle spans and a degradation "
              "event");
  return {{"fig2_flat_graph", flat.topology},
          {"fig2_composite_graph", grouped.topology},
          {"fig2", std::vector<bench::Object>{
                       FlowRow("flat chain", flat),
                       FlowRow("composite source", grouped)}},
          {"fig2_raw_per_compressed_byte",
           bench::Fixed(static_cast<double>(flat.raw_bytes) /
                            static_cast<double>(flat.compressed_bytes),
                        1)},
          {"fig2_trace", bench::Object{{"frames", trace.frames},
                                       {"events", trace.events},
                                       {"degrade_events",
                                        trace.degrade_events},
                                       {"timeline", trace.timeline}}}};
}

// ------------------------------------------------------------ Figure 3 ---
// "AV database system and applications." A 200-object catalog; the §4.3
// sequence (select, create and bind a source, connect, start) in virtual
// time, with the client issuing further queries while its stream plays
// (§3.3's asynchronous, stream-based interface) and the resource pools it
// can see during playback.

bench::Object Fig3DbApp(bench::Gates& gates) {
  constexpr int kCatalog = 200;
  auto db = ClipDatabase(2, Channel::Profile::Ethernet10());
  ClassDef newscast("SimpleNewscast");
  AVDB_MUST(newscast.AddAttribute({"title", AttrType::kString, {}, {}}));
  AVDB_MUST(newscast.AddAttribute({"whenBroadcast", AttrType::kDate, {}, {}}));
  AVDB_MUST(newscast.AddAttribute({"videoTrack", AttrType::kVideo, {}, {}}));
  AVDB_MUST(db->DefineClass(newscast));

  // One catalog entry carries real (encoded) footage.
  const auto vtype = MediaDataType::RawVideo(176, 144, 8, Rational(10));
  auto raw = synthetic::GenerateVideo(vtype, 50,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  VideoCodecParams cparams;
  cparams.quality = 80;
  auto footage =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, cparams).value())
          .value();
  for (int i = 0; i < kCatalog; ++i) {
    const Oid oid = db->NewObject("SimpleNewscast").value();
    AVDB_MUST(db->SetScalar(
        oid, "title",
        std::string(i == 137 ? "60 Minutes"
                             : "Broadcast #" + std::to_string(i))));
    AVDB_MUST(db->SetScalar(
        oid, "whenBroadcast",
        std::string("1992-11-" + std::to_string(1 + i % 28))));
    if (i == 137) {
      AVDB_MUST(db->SetMediaAttribute(oid, "videoTrack", *footage, "disk1"));
    }
  }

  // The query is CPU-side and instantaneous in virtual time; references,
  // not values, cross the interface.
  const std::vector<Oid> hits =
      db->Select("SimpleNewscast", "title = \"60 Minutes\"").value();
  const int64_t t0 = db->engine().now_ns();
  const StreamHandle stream =
      db->NewSourceFor("app", hits[0], "videoTrack").value();
  auto window = VideoWindow::Create("appSink", ActivityLocation::kClient,
                                    db->env(),
                                    VideoQuality(176, 144, 8, Rational(10)));
  AVDB_MUST(db->graph().Add(window));
  AVDB_MUST(db->NewConnection(stream.source, VideoSource::kPortOut,
                              window.get(), VideoWindow::kPortIn, "net"));
  AVDB_MUST(db->StartStream(stream));
  int64_t queries_during_playback = 0;
  for (int tick = 1; tick <= 4; ++tick) {
    db->RunUntil(WorldTime::FromMillis(tick * 1000));
    if (db->Select("SimpleNewscast",
                   "whenBroadcast >= '1992-11-2' and not title contains "
                   "'60'")
            .ok()) {
      ++queries_during_playback;
    }
  }
  db->RunUntilIdle();

  std::vector<bench::Object> pools;
  for (const char* pool :
       {"disk0.bandwidth", "disk1.bandwidth", "db.decoders", "db.buffers"}) {
    pools.push_back(
        {{"pool", pool},
         {"available",
          bench::Fixed(db->admission().Available(pool).value_or(-1), 0)},
         {"capacity",
          bench::Fixed(db->admission().Capacity(pool).value_or(-1), 0)}});
  }
  const ChannelPtr net = db->GetChannel("net").value();
  pools.push_back({{"pool", "net.bandwidth"},
                   {"available", net->AvailableBandwidth()},
                   {"capacity", net->profile().bandwidth_bytes_per_sec}});
  AVDB_MUST(db->StopStream(stream));

  const StreamStats& stats = window->stats();
  gates.Check(stats.elements_presented == 50 && stats.late_elements == 0,
              "Fig. 3: 50 of 50 frames presented, none late");
  return {{"fig3",
           bench::Object{
               {"catalog", kCatalog},
               {"hits", hits.size()},
               {"first_frame_ms",
                bench::Fixed(stats.first_element_ns < 0
                                 ? -1
                                 : (stats.first_element_ns - t0) / 1e6,
                             1)},
               {"frames", stats.elements_presented},
               {"stream_s",
                bench::Fixed(
                    (stats.last_element_ns - stats.first_element_ns) / 1e9,
                    2)},
               {"fps", bench::Fixed(stats.AchievedRate(), 2)},
               {"late", stats.late_elements},
               {"bytes", stats.bytes_delivered},
               {"queries_during_playback", queries_during_playback}}},
          {"fig3_pools", pools}};
}

// ------------------------------------------------------------ Figure 4 ---
// "Alternative activity graphs for a virtual world application." Both
// render placements run for every network and client render speed:
// "depending upon the capabilities and resources of the database system
// and the client, rendering may be done by the database or locally by the
// client." The placement with fewer deadline misses wins, then the one
// with fewer late frames, then the one with less mean lateness; a tie goes
// to the client. Frame rates are reported, not compared: a placement whose
// first frame lands late reads above the view rate (StreamStats::
// AchievedRate).

struct RenderOutcome {
  double fps = 0;
  int64_t misses = 0;
  int64_t late = 0;
  double mean_late_ms = 0;
};

RenderOutcome RenderWorld(const Scene& scene, bool render_at_db,
                          double client_speed,
                          const Channel::Profile& net_profile) {
  auto db = ClipDatabase(1, net_profile);
  const auto vtype = MediaDataType::RawVideo(64, 64, 8, Rational(10));
  auto wall = synthetic::GenerateVideo(vtype, 40,
                                       synthetic::VideoPattern::kMovingBox)
                  .value();
  const Oid oid = AddClip(*db, *wall, "disk0");

  Raycaster::Options ropts;
  ropts.width = 320;
  ropts.height = 240;
  // Client capability scales the software render cost.
  CostModel client_costs;
  client_costs.render_ns_per_pixel =
      CostModel().render_ns_per_pixel / client_speed;
  const ActivityLocation render_loc =
      render_at_db ? ActivityLocation::kDatabase : ActivityLocation::kClient;

  const StreamHandle stream = db->NewSourceFor("vr", oid, "footage").value();
  auto move = MoveSource::Create(
      "move", render_loc, db->env(), {{2.5, 6.0, 0.0}, {12.5, 5.5, 0.3}},
      WorldTime::FromSeconds(4), Rational(10));
  auto render = RenderActivity::Create(
      "render", render_loc, db->env(), &scene, ropts, vtype,
      render_at_db ? CostModel::Accelerated() : client_costs);
  render->FindPort(RenderActivity::kPortPose)
      .value()
      ->set_data_type(
          move->FindPort(MoveSource::kPortOut).value()->data_type());
  auto display = VideoWindow::Create(
      "display", ActivityLocation::kClient, db->env(),
      VideoQuality(ropts.width, ropts.height, 8, Rational(10)));
  AVDB_MUST(db->graph().Add(move));
  AVDB_MUST(db->graph().Add(render));
  AVDB_MUST(db->graph().Add(display));

  const ChannelPtr net = db->GetChannel("net").value();
  if (render_at_db) {
    AVDB_MUST(db->NewConnection(stream.source, VideoSource::kPortOut,
                                render.get(), RenderActivity::kPortVideo));
    AVDB_MUST(db->NewConnection(move.get(), MoveSource::kPortOut,
                                render.get(), RenderActivity::kPortPose));
    // Rendered rasters cross the network with no admission reservation:
    // the scenario observes saturation rather than a refusal.
    AVDB_MUST(db->graph().Connect(render.get(), RenderActivity::kPortOut,
                                  display.get(), VideoWindow::kPortIn, net));
  } else {
    AVDB_MUST(db->graph().Connect(stream.source, VideoSource::kPortOut,
                                  render.get(), RenderActivity::kPortVideo,
                                  net));
    AVDB_MUST(db->NewConnection(move.get(), MoveSource::kPortOut,
                                render.get(), RenderActivity::kPortPose));
    AVDB_MUST(db->NewConnection(render.get(), RenderActivity::kPortOut,
                                display.get(), VideoWindow::kPortIn));
  }
  AVDB_MUST(db->StartStream(stream));
  AVDB_MUST(move->Start());
  db->RunUntilIdle();

  const StreamStats& stats = display->stats();
  return {stats.AchievedRate(), stats.deadline_misses, stats.late_elements,
          stats.MeanLatenessMs()};
}

bench::Object Fig4VWorld(bench::Gates& gates) {
  // The rendered view: 320x240 one-byte pixels at 10 frames a second.
  constexpr int64_t kRasterBytesPerSec = 320 * 240 * 10;
  struct Network {
    const char* name;
    Channel::Profile profile;
  };
  const Network networks[] = {
      {"T1 (193 KB/s)", Channel::Profile::T1()},
      {"Ethernet (1.25 MB/s)", Channel::Profile::Ethernet10()},
      {"ATM (19 MB/s)", Channel::Profile::Atm155()},
  };
  const Scene scene = Scene::MuseumRoom();
  std::vector<bench::Object> rows;
  bool database_wins_where_expected = true;
  for (const Network& net : networks) {
    for (const double speed : {0.05, 0.5, 4.0}) {
      const RenderOutcome client =
          RenderWorld(scene, false, speed, net.profile);
      const RenderOutcome dbside = RenderWorld(scene, true, speed, net.profile);
      const bool client_wins =
          client.misses != dbside.misses ? client.misses < dbside.misses
          : client.late != dbside.late   ? client.late < dbside.late
                                         : client.mean_late_ms <=
                                               dbside.mean_late_ms;
      // The paper's crossover: the database renders for a thin client
      // whose link can carry the rasters.
      const bool expect_database =
          speed == 0.05 &&
          net.profile.bandwidth_bytes_per_sec >= kRasterBytesPerSec;
      database_wins_where_expected =
          database_wins_where_expected && client_wins != expect_database;
      rows.push_back(
          {{"network", net.name},
           {"client_speed", bench::Fixed(speed, 2)},
           {"client_fps", bench::Fixed(client.fps, 2)},
           {"client_misses", client.misses},
           {"client_late", client.late},
           {"client_mean_late_ms", bench::Fixed(client.mean_late_ms, 2)},
           {"db_fps", bench::Fixed(dbside.fps, 2)},
           {"db_misses", dbside.misses},
           {"db_late", dbside.late},
           {"db_mean_late_ms", bench::Fixed(dbside.mean_late_ms, 2)},
           {"winner", client_wins ? "client" : "database"}});
    }
  }
  gates.Check(database_wins_where_expected,
              "Fig. 4: the database wins exactly at 0.05x client speed over "
              "Ethernet and ATM");
  return {{"fig4", rows}};
}

// ------------------------------------------------------------- Table 1 ---
// "Examples of video activities." Every row is instantiated; kind and port
// types are read from the live objects (the kind is derived from port
// directions, §3.1) and must match the paper's kind column. Each
// activity's unit of work is then timed at QCIF on the host.

std::string PortFamilies(const std::vector<Port*>& ports) {
  std::vector<std::string> families;
  for (const Port* port : ports) {
    families.emplace_back(EncodingFamilyName(port->data_type().family()));
  }
  return families.empty() ? "-" : StrJoin(families, ", ");
}

bench::Object Table1Activities(bench::Gates& gates, bench::Object& host) {
  const MediaDataType qcif =
      MediaDataType::RawVideo(176, 144, 8, Rational(15));
  EventEngine engine;
  const ActivityEnv env{&engine, nullptr};

  auto raw = synthetic::GenerateVideo(qcif, 30,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  auto intra =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  VideoCodecParams params;
  params.quality = 75;
  const EncodedVideo encoded_stream = intra->Encode(*raw, params).value();
  auto encoded = EncodedVideoValue::Create(intra, encoded_stream).value();
  auto device =
      std::make_shared<BlockDevice>("disk", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  AVDB_MUST(store.Put("clip", encoded_stream.Serialize()));

  SourceOptions reader_options;
  reader_options.fetcher = FetchFrom(&store);
  reader_options.blob_name = "clip";
  auto reader = VideoSource::Create("reader", ActivityLocation::kDatabase,
                                    env, reader_options,
                                    /*emit_encoded=*/true);
  AVDB_MUST(reader->Bind(encoded, VideoSource::kPortOut));
  auto decoder = VideoDecoderActivity::Create(
      "decoder", ActivityLocation::kDatabase, env);
  AVDB_MUST(decoder->Bind(encoded, VideoDecoderActivity::kPortIn));

  const VideoFrame frame = raw->Frame(0).value();
  const VideoFrame frame2 = raw->Frame(1).value();
  auto session = intra->NewDecoder(encoded_stream).value();

  // Each row: the paper's name and kind, the live activity, and its unit
  // of work on one QCIF frame, timed in batches of `batch`.
  struct Row {
    const char* name;
    ActivityKind paper_kind;
    std::shared_ptr<MediaActivity> activity;
    int batch;
    std::function<void(int)> work;
  };
  const std::vector<Row> rows = {
      {"video digitizer", ActivityKind::kSource,
       VideoDigitizer::Create("digitizer", ActivityLocation::kDatabase, env,
                              qcif, synthetic::VideoPattern::kMovingBox),
       60,
       [](int i) {
         synthetic::GeneratePatternFrame(176, 144, 8, i,
                                         synthetic::VideoPattern::kMovingBox);
       }},
      {"video reader", ActivityKind::kSource, reader, 200,
       [&](int i) {
         const auto& ef = encoded_stream.frames[static_cast<size_t>(i) %
                                                encoded_stream.frames.size()];
         AVDB_MUST(store.ReadRange("clip", 0, ef.SizeBytes()));
       }},
      {"video encoder", ActivityKind::kTransformer,
       VideoEncoderActivity::Create("encoder", ActivityLocation::kDatabase,
                                    env, qcif, 75),
       40, [&](int) { IntraCodec::EncodeFrame(frame, 75); }},
      {"video decoder", ActivityKind::kTransformer, decoder, 60,
       [&](int i) { AVDB_MUST(session->DecodeFrame(i % 30)); }},
      {"video mixer", ActivityKind::kTransformer,
       VideoMixer::Create("mixer", ActivityLocation::kDatabase, env, qcif,
                          0.5),
       100,
       [&](int) {
         VideoFrame out(176, 144, 8);
         for (size_t i = 0; i < out.data().size(); ++i) {
           out.data()[i] =
               static_cast<uint8_t>((frame.data()[i] + frame2.data()[i]) / 2);
         }
       }},
      {"video tee", ActivityKind::kTransformer,
       VideoTee::Create("tee", ActivityLocation::kDatabase, env, qcif, 2),
       2000,
       [&](int) {
         // A tee shares payload pointers: two shared_ptr copies.
         auto a = std::make_shared<const VideoFrame>(frame);
         auto b = a;
         (void)b;
       }},
      {"video window", ActivityKind::kSink,
       VideoWindow::Create("window", ActivityLocation::kClient, env,
                           VideoQuality(176, 144, 8, Rational(15))),
       1000,
       [&](int) {
         volatile uint8_t sink_byte = frame.data()[0];
         (void)sink_byte;
       }},
      {"video writer", ActivityKind::kSink,
       VideoWriter::Create("writer", ActivityLocation::kDatabase, env, qcif),
       200,
       [&](int) {
         VideoFrame copy = frame;
         (void)copy;
       }},
  };

  std::vector<std::function<void()>> variants;
  for (const Row& row : rows) {
    variants.push_back([&row] {
      for (int i = 0; i < row.batch; ++i) row.work(i);
    });
  }
  const std::vector<bench::Summary> ns = bench::Measure(kHostReps, variants);

  std::vector<bench::Object> catalog, fps;
  bool kinds_match = true;
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    const ActivityKind kind = row.activity->Kind();
    kinds_match = kinds_match && kind == row.paper_kind;
    catalog.push_back(
        {{"activity", row.name},
         {"kind", std::string(ActivityKindName(kind))},
         {"in", PortFamilies(row.activity->InputPorts())},
         {"out", PortFamilies(row.activity->OutputPorts())}});
    auto per_second = [&](double batch_ns) {
      return row.batch * 1e9 / batch_ns;
    };
    fps.push_back({{"activity", row.name},
                   {"qcif_fps", bench::Fixed(per_second(ns[r].median), 0)},
                   {"qcif_fps_q1", bench::Fixed(per_second(ns[r].q3), 0)},
                   {"qcif_fps_q3", bench::Fixed(per_second(ns[r].q1), 0)}});
  }
  gates.Check(kinds_match,
              "Table 1: every derived activity kind matches the paper");
  host.push_back({"table1", fps});
  return {{"table1", catalog}};
}

// ------------------------------------------------- Ablation: placement ---
// §3.3 "data placement: should allow application involvement", with the
// paper's own example, an application mixing two video values: A puts both
// on one disk, B on two disks (placement visible to the application), C
// starts on one disk and has the database copy one value first, which
// "could be so time-consuming as to destroy any sense of interactivity".
// 320x240x8 @ 15 fps takes ~21 ms per frame off a 3.5 MB/s disk; two
// interleaved streams also pay an ~18 ms seek per frame.

bench::Object Placement(bench::Gates& gates) {
  const MediaDataType type =
      MediaDataType::RawVideo(320, 240, 8, Rational(15));
  constexpr int kFrames = 45;
  struct Config {
    const char* name;
    bool two_disks;
    bool copy_first;
  };
  const Config configs[] = {
      {"A: both values on one disk", false, false},
      {"B: placed on two disks (visible)", true, false},
      {"C: transparent copy, then play", false, true},
  };
  std::vector<bench::Object> rows;
  std::vector<int64_t> misses;
  for (const Config& config : configs) {
    auto db = ClipDatabase(2);
    auto value_a = synthetic::GenerateVideo(
                       type, kFrames, synthetic::VideoPattern::kMovingBox, 1)
                       .value();
    auto value_b =
        synthetic::GenerateVideo(
            type, kFrames, synthetic::VideoPattern::kMovingGradient, 2)
            .value();
    const Oid oid_a = AddClip(*db, *value_a, "disk0");
    const Oid oid_b =
        AddClip(*db, *value_b, config.two_disks ? "disk1" : "disk0");
    double copy_s = 0;
    if (config.copy_first) {
      copy_s = db->MoveAttribute(oid_b, "footage", "disk1").value()
                   .ToSecondsF();
    }

    // Admission control would refuse A outright (see the admission
    // ablation); this one measures what each placement delivers.
    VideoSource* source_a = UnadmittedSource(*db, "srcA", oid_a);
    VideoSource* source_b = UnadmittedSource(*db, "srcB", oid_b);
    auto mixer = VideoMixer::Create("mix", ActivityLocation::kDatabase,
                                    db->env(), type, 0.5);
    auto window = VideoWindow::Create("monitor", ActivityLocation::kClient,
                                      db->env(),
                                      VideoQuality(320, 240, 8, Rational(15)));
    AVDB_MUST(db->graph().Add(mixer));
    AVDB_MUST(db->graph().Add(window));
    AVDB_MUST(db->NewConnection(source_a, VideoSource::kPortOut, mixer.get(),
                                VideoMixer::kPortInA));
    AVDB_MUST(db->NewConnection(source_b, VideoSource::kPortOut, mixer.get(),
                                VideoMixer::kPortInB));
    AVDB_MUST(db->NewConnection(mixer.get(), VideoMixer::kPortOut,
                                window.get(), VideoWindow::kPortIn));
    // Sinks and transformers first, then the hand-built sources.
    for (const auto& a : db->graph().activities()) {
      if (a->state() == MediaActivity::State::kIdle &&
          a->Kind() != ActivityKind::kSource) {
        AVDB_MUST(a->Start());
      }
    }
    AVDB_MUST(source_a->Start());
    AVDB_MUST(source_b->Start());
    db->RunUntilIdle();

    const StreamStats& stats = window->stats();
    misses.push_back(stats.deadline_misses);
    bench::Object row = {{"configuration", config.name},
                         {"fps", bench::Fixed(stats.AchievedRate(), 2)},
                         {"misses", stats.deadline_misses},
                         {"late_ms", bench::Fixed(stats.MeanLatenessMs(), 2)}};
    if (config.copy_first) row.push_back({"copy_s", bench::Fixed(copy_s, 2)});
    rows.push_back(row);
  }
  gates.Check(misses[0] > 0 && misses[1] == 0 && misses[2] == 0,
              "Placement: A misses deadlines, B and C do not");
  return {{"placement", rows}};
}

// ------------------------------------------------- Ablation: admission ---
// §3.3 "concurrent access to AV data may require explicit scheduling (in
// particular, resource pre-allocation) by clients." N clients play their
// own raw clip from one disk (~1.15 MB/s plus seeks each: one fits). With
// admission control the database refuses what the device cannot carry;
// without it every stream starts and all of them degrade together.

struct AdmissionOutcome {
  int started = 0;
  double mean_fps = 0;
  int64_t misses = 0;
};

AdmissionOutcome PlayConcurrently(int clients, bool admission) {
  const MediaDataType type =
      MediaDataType::RawVideo(320, 240, 8, Rational(15));
  auto db = ClipDatabase(1);
  // Separate objects, so concurrent readers seek between extents.
  std::vector<Oid> oids;
  for (int i = 0; i < clients; ++i) {
    auto value = synthetic::GenerateVideo(
                     type, 30, synthetic::VideoPattern::kMovingBox,
                     static_cast<uint64_t>(i + 1))
                     .value();
    oids.push_back(AddClip(*db, *value, "disk0"));
  }

  AdmissionOutcome outcome;
  std::vector<std::shared_ptr<VideoWindow>> windows;
  for (int i = 0; i < clients; ++i) {
    MediaActivity* source = nullptr;
    if (admission) {
      auto stream =
          db->NewSourceFor("client" + std::to_string(i), oids[i], "footage");
      if (!stream.ok()) continue;  // refused up front
      source = stream.value().source;
    } else {
      source = UnadmittedSource(*db, "src" + std::to_string(i), oids[i]);
    }
    auto window = VideoWindow::Create("win" + std::to_string(i),
                                      ActivityLocation::kClient, db->env(),
                                      VideoQuality(320, 240, 8, Rational(15)));
    AVDB_MUST(db->graph().Add(window));
    AVDB_MUST(db->graph().Connect(source, VideoSource::kPortOut, window.get(),
                                  VideoWindow::kPortIn));
    windows.push_back(window);
    ++outcome.started;
  }
  for (const auto& a : db->graph().activities()) {
    if (a->state() == MediaActivity::State::kIdle) AVDB_MUST(a->Start());
  }
  db->RunUntilIdle();

  for (const auto& window : windows) {
    outcome.mean_fps += window->stats().AchievedRate();
    outcome.misses += window->stats().deadline_misses;
  }
  if (!windows.empty()) outcome.mean_fps /= static_cast<double>(windows.size());
  return outcome;
}

bench::Object Admission(bench::Gates& gates) {
  std::vector<bench::Object> rows;
  bool admitted_on_time = true;
  bool unadmitted_miss = true;
  for (const int clients : {1, 2, 3, 4, 6, 8}) {
    const AdmissionOutcome on = PlayConcurrently(clients, true);
    const AdmissionOutcome off = PlayConcurrently(clients, false);
    admitted_on_time = admitted_on_time && on.misses == 0;
    if (clients >= 2) unadmitted_miss = unadmitted_miss && off.misses > 0;
    rows.push_back({{"clients", clients},
                    {"on_started", on.started},
                    {"on_fps", bench::Fixed(on.mean_fps, 2)},
                    {"on_misses", on.misses},
                    {"off_started", off.started},
                    {"off_fps", bench::Fixed(off.mean_fps, 2)},
                    {"off_misses", off.misses}});
  }
  gates.Check(admitted_on_time,
              "Admission: with admission on, no admitted stream misses");
  gates.Check(unadmitted_miss,
              "Admission: with admission off, every run of 2 or more streams "
              "misses");
  return {{"admission", rows}};
}

// --------------------------------------------------- Ablation: quality ---
// §4.1 "applications should deal with quality factors": one value stored
// once with the scalable codec, requested at three quality factors; each
// maps to a layer subset of the same representation — "a video value
// encoded at one quality can be viewed at a lower quality by ignoring some
// of the encoded data". The decode cost per frame is host time.

bench::Object QualityFactors(bench::Gates& gates, bench::Object& host) {
  constexpr int kFrames = 12;
  const MediaDataType stored =
      MediaDataType::RawVideo(320, 240, 8, Rational(30));
  auto original = synthetic::GenerateVideo(
                      stored, kFrames, synthetic::VideoPattern::kMovingBox)
                      .value();
  ScalableCodec codec;
  VideoCodecParams params;
  params.quality = 85;
  params.layer_count = 3;
  const EncodedVideo encoded = codec.Encode(*original, params).value();

  std::vector<bench::Object> rows;
  std::vector<std::function<void()>> variants;
  std::vector<double> bytes_per_frame, errors;
  for (const char* requested : {"80x60x8@30", "160x120x8@30", "320x240x8@30"}) {
    const VideoQuality quality = VideoQuality::Parse(requested).value();
    const int layers = ScalableCodec::LayersForResolution(
        stored, quality.width(), quality.height());
    const int64_t bytes =
        ScalableCodec::BytesPerFrameAtLayers(encoded, layers).value();
    auto session = codec.NewDecoderWithLayers(encoded, layers).value();
    double err = 0;
    for (int64_t i = 0; i < kFrames; ++i) {
      err += session->DecodeFrame(i)
                 .value()
                 .MeanAbsoluteError(original->Frame(i).value())
                 .value();
    }
    err /= kFrames;
    bytes_per_frame.push_back(static_cast<double>(bytes));
    errors.push_back(err);
    rows.push_back({{"requested", requested},
                    {"layers", layers},
                    {"bytes_per_frame", bytes},
                    {"mean_err", bench::Fixed(err, 2)}});
    variants.push_back([&codec, &encoded, layers] {
      auto timed = codec.NewDecoderWithLayers(encoded, layers).value();
      for (int64_t i = 0; i < kFrames; ++i) {
        AVDB_MUST(timed->DecodeFrame(i));
      }
    });
  }
  const std::vector<bench::Summary> ns = bench::Measure(kHostReps, variants);
  std::vector<bench::Object> decode;
  for (size_t r = 0; r < rows.size(); ++r) {
    decode.push_back(
        {rows[r][0],
         {"decode_ms", bench::Fixed(ns[r].median / kFrames / 1e6, 2)},
         {"decode_ms_q1", bench::Fixed(ns[r].q1 / kFrames / 1e6, 2)},
         {"decode_ms_q3", bench::Fixed(ns[r].q3 / kFrames / 1e6, 2)}});
  }
  gates.Check(Ordered(bytes_per_frame, std::less<>()) &&
                  Ordered(errors, std::greater<>()),
              "Quality: bytes per frame rise and error falls with layers");
  host.push_back({"quality", decode});
  return {{"quality_stored",
           bench::Object{
               {"type", stored.ToString()},
               {"bytes", encoded.TotalBytes()},
               {"raw_per_stored_byte",
                bench::Fixed(static_cast<double>(original->StoredBytes()) /
                                 static_cast<double>(encoded.TotalBytes()),
                             1)}}},
          {"quality", rows}};
}

// ----------------------------------------- Ablation: async interface ---
// §3.3 "client interface: should be asynchronous, stream-based". The same
// 6 s 320x240x8@15 playback over 10 Mb/s Ethernet, served as one
// call-by-value reply (the client blocks until disk and network have moved
// the whole value) and by stream redirection (bind, connect, start).

bench::Object AsyncIface(bench::Gates& gates) {
  const MediaDataType type =
      MediaDataType::RawVideo(320, 240, 8, Rational(15));
  constexpr int kFrames = 90;
  auto value = synthetic::GenerateVideo(type, kFrames,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();

  // A: the reply holds all the data: read the whole blob, ship it in one
  // transfer, then play locally.
  double by_value_s = 0;
  {
    auto db = ClipDatabase(1, Channel::Profile::Ethernet10());
    const Oid oid = AddClip(*db, *value, "disk0");
    auto read = db->devices()
                    .Fetch(db->MediaHistory(oid, "footage")
                               .value()
                               .back()
                               .blob_name)
                    .value();
    by_value_s = db->GetChannel("net").value()->Transfer(
                     VirtualClock::ToNs(read.duration),
                     static_cast<int64_t>(read.data.size())) /
                 1e9;
  }

  // B: the paper's interface, which never blocks the client.
  double first_frame_s = 0;
  double last_frame_s = 0;
  {
    auto db = ClipDatabase(1, Channel::Profile::Ethernet10());
    const Oid oid = AddClip(*db, *value, "disk0");
    const StreamHandle stream =
        db->NewSourceFor("client", oid, "footage").value();
    auto window =
        VideoWindow::Create("win", ActivityLocation::kClient, db->env(),
                            VideoQuality(320, 240, 8, Rational(15)));
    AVDB_MUST(db->graph().Add(window));
    AVDB_MUST(db->NewConnection(stream.source, VideoSource::kPortOut,
                                window.get(), VideoWindow::kPortIn, "net"));
    AVDB_MUST(db->StartStream(stream));
    db->RunUntilIdle();
    first_frame_s = window->stats().first_element_ns / 1e9;
    last_frame_s = window->stats().last_element_ns / 1e9;
  }

  gates.Check(first_frame_s < by_value_s,
              "Async: the stream presents its first frame sooner and blocks "
              "the client for 0 s");
  return {{"async",
           std::vector<bench::Object>{
               {{"interface", "A: call-by-value reply"},
                {"first_frame_s", bench::Fixed(by_value_s, 2)},
                {"blocked_s", bench::Fixed(by_value_s, 2)},
                {"total_s", bench::Fixed(by_value_s + kFrames / 15.0, 2)}},
               {{"interface", "B: stream redirection (paper)"},
                {"first_frame_s", bench::Fixed(first_frame_s, 2)},
                {"blocked_s", bench::Fixed(0, 2)},
                {"total_s", bench::Fixed(last_frame_s, 2)}}}}};
}

// ----------------------------------------------- Ablation: compression ---
// §1: compressed video "has data rates comparable to bus and disk
// bandwidths and so opens the possibility of video recording and playback
// from conventional secondary storage devices." One 320x240x8@15 clip in
// every stored representation: its data rate against a 3.5 MB/s magnetic
// disk and a 300 KB/s CD-ROM, and the streams one disk admits.

/// Streams a fresh database admits from one disk holding one copy of
/// `value` per client, with decoders and buffers to spare.
int AdmittedStreams(const MediaValue& value) {
  AvDatabaseConfig config;
  config.decoder_units = 64;
  config.buffer_pool_bytes = 64LL * 1024 * 1024;
  auto db = ClipDatabase(1, std::nullopt, config);
  int admitted = 0;
  while (admitted < 64) {
    const Oid oid = AddClip(*db, value, "disk0");
    if (!db->NewSourceFor("c" + std::to_string(admitted), oid, "footage")
             .ok()) {
      break;
    }
    ++admitted;
  }
  return admitted;
}

bench::Object Compression(bench::Gates& gates) {
  const MediaDataType type =
      MediaDataType::RawVideo(320, 240, 8, Rational(15));
  auto raw = synthetic::GenerateVideo(type, 45,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  const double duration_s = raw->NaturalDuration().ToSecondsF();
  const int64_t disk_bw = DeviceProfile::MagneticDisk().transfer_bytes_per_sec;
  const int64_t cdrom_bw = DeviceProfile::CdRom().transfer_bytes_per_sec;

  std::vector<bench::Object> rows;
  int inter_streams = 0;
  int other_streams = 0;
  bool only_inter_fits_cdrom = true;
  auto add_row = [&](const std::string& name, const VideoValue& value) {
    const double rate = value.StoredBytes() / duration_s;
    const int streams = AdmittedStreams(value);
    const bool fits_cdrom = rate <= cdrom_bw;
    const bool inter = name == "inter";
    if (inter) {
      inter_streams = streams;
    } else {
      other_streams = std::max(other_streams, streams);
    }
    only_inter_fits_cdrom = only_inter_fits_cdrom && fits_cdrom == inter;
    rows.push_back({{"representation", name},
                    {"bytes", value.StoredBytes()},
                    {"rate_kb_s", bench::Fixed(rate / 1024, 0)},
                    {"fits_disk", rate <= disk_bw},
                    {"fits_cdrom", fits_cdrom},
                    {"streams_per_disk", streams}});
  };
  add_row("raw", *raw);
  for (const EncodingFamily family :
       {EncodingFamily::kIntra, EncodingFamily::kDelta, EncodingFamily::kInter,
        EncodingFamily::kScalable}) {
    auto codec = CodecRegistry::Default().VideoCodecFor(family).value();
    VideoCodecParams params;
    params.quality = 75;
    params.gop_size = 15;
    auto value =
        EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
            .value();
    add_row(std::string(EncodingFamilyName(family)), *value);
  }
  gates.Check(only_inter_fits_cdrom && inter_streams > other_streams,
              "Compression: inter alone fits CD-ROM and has the most streams "
              "per disk");
  return {{"compression", rows}};
}

// ----------------------------------------------------- Ablation: cache ---
// §3.3: buffers are among the "limited" system resources. Two clients
// watch one stored clip, the second joining 2 s in (popular content); the
// shared page cache lets the follower ride the leader's fetches. Swept
// over cache size: hit rate and total device busy time.

bench::Object Cache(bench::Gates& gates) {
  const MediaDataType type =
      MediaDataType::RawVideo(176, 144, 8, Rational(10));
  std::vector<bench::Object> rows;
  std::vector<double> hit_rates, busy;
  for (const int64_t kb : {0, 256, 1024, 4096}) {
    EventEngine engine;
    ActivityGraph graph(ActivityEnv{&engine, nullptr});
    auto device =
        std::make_shared<BlockDevice>("disk0", DeviceProfile::MagneticDisk());
    auto cache = kb > 0 ? std::make_shared<BufferCache>(kb * 1024) : nullptr;
    MediaStore store(device, cache);
    ServiceQueue queue("disk0");
    auto value = synthetic::GenerateVideo(type, 80,
                                          synthetic::VideoPattern::kMovingBox)
                     .value();
    AVDB_MUST(store.Put("clip", value_serializer::Serialize(*value).value()));

    std::vector<std::shared_ptr<VideoWindow>> windows;
    for (int client = 0; client < 2; ++client) {
      SourceOptions options;
      options.fetcher = FetchFrom(&store);
      options.blob_name = "clip";
      options.device_queue = &queue;
      options.start_offset = WorldTime::FromSeconds(client * 2);
      auto source = VideoSource::Create("src" + std::to_string(client),
                                        ActivityLocation::kDatabase,
                                        graph.env(), options);
      AVDB_MUST(source->Bind(value, VideoSource::kPortOut));
      auto window = VideoWindow::Create(
          "win" + std::to_string(client), ActivityLocation::kClient,
          graph.env(), VideoQuality(176, 144, 8, Rational(10)));
      AVDB_MUST(graph.Add(source));
      AVDB_MUST(graph.Add(window));
      AVDB_MUST(graph.Connect(source.get(), VideoSource::kPortOut,
                              window.get(), VideoWindow::kPortIn));
      windows.push_back(window);
    }
    AVDB_MUST(graph.StartAll());
    graph.RunUntilIdle();

    const double hit_rate = cache != nullptr ? cache->HitRate() : 0.0;
    const double busy_s = device->stats().busy_time.ToSecondsF();
    int64_t late = 0;
    for (const auto& window : windows) late += window->stats().late_elements;
    hit_rates.push_back(hit_rate);
    busy.push_back(busy_s);
    rows.push_back({{"cache_kb", kb},
                    {"hit_rate", bench::Fixed(hit_rate, 2)},
                    {"device_busy_s", bench::Fixed(busy_s, 2)},
                    {"late_frames", late}});
  }
  gates.Check(Ordered(hit_rates, std::less_equal<>()) &&
                  Ordered(busy, std::greater_equal<>()),
              "Cache: the hit rate never falls and device busy time never "
              "rises as the cache grows");
  return {{"cache", rows}};
}

// ------------------------------------------------------- Ablation: GOP ---
// §3.1: a media data type "governs the encoding and interpretation of its
// elements", and the inter codec's GOP size shows what that costs: longer
// GOPs compress better but make random access (cueing, §4.2) decode more.
// 40 seeded random cues per GOP size.

bench::Object Gop(bench::Gates& gates) {
  constexpr int kFrames = 60;
  const MediaDataType type =
      MediaDataType::RawVideo(176, 144, 8, Rational(15));
  auto video = synthetic::GenerateVideo(type, kFrames,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();
  const int64_t raw_bytes = video->StoredBytes();
  InterCodec codec;
  std::vector<bench::Object> rows;
  std::vector<double> ratios, costs;
  for (const int gop : {1, 5, 15, 30, 60}) {
    VideoCodecParams params;
    params.quality = 75;
    params.gop_size = gop;
    const EncodedVideo encoded = codec.Encode(*video, params).value();
    Rng rng(42);
    auto session = codec.NewDecoder(encoded).value();
    int64_t decoded_before = 0;
    double total_cost = 0;
    double total_err = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const int64_t target = rng.NextInRange(0, kFrames - 1);
      auto frame = session->DecodeFrame(target).value();
      total_cost += static_cast<double>(session->FramesDecodedInternally() -
                                        decoded_before);
      decoded_before = session->FramesDecodedInternally();
      total_err +=
          frame.MeanAbsoluteError(video->Frame(target).value()).value();
    }
    const double ratio = static_cast<double>(raw_bytes) /
                         static_cast<double>(encoded.TotalBytes());
    const double cost = total_cost / 40.0;
    ratios.push_back(ratio);
    costs.push_back(cost);
    rows.push_back({{"gop", gop},
                    {"stored_bytes", encoded.TotalBytes()},
                    {"ratio", bench::Fixed(ratio, 1)},
                    {"decodes_per_cue", bench::Fixed(cost, 1)},
                    {"mean_err", bench::Fixed(total_err / 40.0, 2)}});
  }
  gates.Check(Ordered(ratios, std::less_equal<>()) &&
                  Ordered(costs, std::less<>()),
              "GOP: the compression ratio never falls and decodes per cue "
              "rise as the GOP grows");
  return {{"gop_raw_bytes", raw_bytes}, {"gop", rows}};
}

}  // namespace

int main() {
  bench::Gates gates;
  bench::Object host;
  // Braced initializers run in order, so the artifacts run top to bottom.
  const std::vector<bench::Object> artifacts = {
      Fig1Timeline(gates),     Fig2Flow(gates),
      Fig3DbApp(gates),        Fig4VWorld(gates),
      Table1Activities(gates, host), Placement(gates),
      Admission(gates),        QualityFactors(gates, host),
      AsyncIface(gates),       Compression(gates),
      Cache(gates),            Gop(gates)};
  bench::Object doc;
  for (const bench::Object& members : artifacts) {
    doc.insert(doc.end(), members.begin(), members.end());
  }
  gates.Check(bench::WriteReport("BENCH_paper.json", doc, host),
              "BENCH_paper.json written");
  return gates.ExitCode();
}
