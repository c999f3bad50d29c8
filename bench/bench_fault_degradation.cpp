// Robustness — degrade, don't stall (§3.3: continuous delivery must
// survive the resource faults 1993 hardware takes for granted).
//
// A stored scalable clip (3 layers) is streamed to a video window while a
// deterministic fault injector perturbs the device: transient read errors
// (retried with backoff charged in virtual time), 30 ms latency spikes, and
// 400 ms stuck-head stalls. The shared DegradationController turns sink
// lateness into ladder actions at the source — drop frame, lower quality,
// pause/re-anchor, abort — so playback finishes late-but-complete instead
// of stopping at the first fault.
//
// Part 2 revokes network bandwidth mid-stream (Channel::SetLineRate to 1/8
// of nominal at t=10 s), re-admits the stream at reduced demand through
// AdmissionController::Readmit, and checks the accounting invariants:
// availability clamps at zero and the shortfall reads as oversubscription
// until the readmission resolves it.
//
// Everything is virtual-time deterministic: same seed, same spec, same
// numbers — the robustness tests pin exactly that.
//
// Output: BENCH_fault_degradation.json. Exit code is non-zero when the
// ISSUE acceptance gates fail (5% fault rate must complete with zero
// unhandled errors, bounded stall, and at least one quality-degradation
// event; fault injection off must look exactly like the fault-free path).

#include <iostream>
#include <string>
#include <vector>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "base/fault_injector.h"
#include "base/logging.h"
#include "codec/encoded_value.h"
#include "codec/scalable_codec.h"
#include "harness.h"
#include "media/synthetic.h"
#include "net/channel.h"
#include "sched/admission.h"
#include "sched/degradation.h"
#include "sched/event_engine.h"
#include "storage/media_store.h"
#include "storage/value_serializer.h"

using namespace avdb;

namespace {

const MediaDataType kType = MediaDataType::RawVideo(176, 144, 8, Rational(10));
constexpr int kFrames = 300;  // 30 s of video
constexpr uint64_t kSeed = 42;

/// The sweep's fault profile: transient errors at `p`, bus spikes at `p`,
/// and rarer-but-long head recalibrations — the mix that exercises every
/// rung of the ladder without making completion impossible.
FaultSpec SweepSpec(double p) {
  FaultSpec spec;
  spec.read_error_rate = p;
  spec.latency_spike_rate = p;
  spec.latency_spike_ns = 30 * 1000 * 1000;  // 30 ms
  spec.stuck_head_rate = p / 2;
  spec.stuck_head_stall_ns = 400 * 1000 * 1000;  // 400 ms recalibration
  return spec;
}

/// Builds the scalable clip once (host-side); every run re-serializes it
/// into a fresh store so device state never leaks between sweep points.
std::shared_ptr<EncodedVideoValue> MakeClip() {
  auto raw = synthetic::GenerateVideo(kType, kFrames,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto codec = std::make_shared<ScalableCodec>();
  auto encoded = codec->Encode(*raw, params).value();
  return EncodedVideoValue::Create(codec, std::move(encoded)).value();
}

struct RunReport {
  double fault_rate = 0;
  bool completed = false;       // window saw end of stream
  int64_t presented = 0;
  int64_t dropped = 0;          // FRAME_DROPPED events
  int64_t late = 0;
  int64_t deadline_misses = 0;
  double stall_total_ms = 0;    // summed positive lateness at the window
  double stall_max_ms = 0;
  int64_t retries = 0;          // transient faults absorbed by the store
  int64_t exhausted = 0;        // reads that failed even after retries
  double backoff_ms = 0;        // virtual time charged to retry backoff
  int64_t injected_faults = 0;  // device-level injected read failures
  double injected_latency_ms = 0;
  int64_t fault_retry_events = 0;
  int64_t quality_lowers = 0;
  int64_t quality_raises = 0;
  int64_t pauses = 0;
  int64_t aborts = 0;
  int min_layers = 3;           // lowest active layer count seen
};

RunReport RunSweepPoint(const std::shared_ptr<EncodedVideoValue>& clip,
                        double fault_rate) {
  RunReport report;
  report.fault_rate = fault_rate;

  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto device =
      std::make_shared<BlockDevice>("disk0", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  ServiceQueue queue("disk0");
  AVDB_MUST(store.Put("clip", value_serializer::Serialize(*clip).value()));

  FaultInjector injector(SweepSpec(fault_rate), kSeed);
  if (fault_rate > 0) device->set_fault_injector(&injector);

  DegradationController degrade;

  SourceOptions source_options;
  source_options.fetcher = FetchFrom(&store);
  source_options.blob_name = "clip";
  source_options.device_queue = &queue;
  source_options.degrade = &degrade;
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env,
                                    source_options);
  AVDB_MUST(source->Bind(clip, VideoSource::kPortOut));

  SinkOptions sink_options;
  sink_options.degrade = &degrade;
  auto window =
      VideoWindow::Create("win", ActivityLocation::kClient, env,
                          VideoQuality(176, 144, 8, Rational(10)),
                          sink_options);

  AVDB_MUST(source->Catch(VideoSource::kFaultRetry, [&](const ActivityEvent&) {
    ++report.fault_retry_events;
  }));
  AVDB_MUST(source->Catch(VideoSource::kFrameDropped, [&](const ActivityEvent&) {
    ++report.dropped;
  }));
  VideoSource* source_raw = source.get();
  AVDB_MUST(source->Catch(VideoSource::kQualityChanged, [&](const ActivityEvent&) {
    if (source_raw->active_layers() < report.min_layers) {
      report.min_layers = source_raw->active_layers();
    }
  }));
  AVDB_MUST(window->Catch(VideoWindow::kLastFrame, [&](const ActivityEvent&) {
    report.completed = true;
  }));

  AVDB_MUST(graph.Add(source));
  AVDB_MUST(graph.Add(window));
  AVDB_MUST(graph.Connect(source.get(), VideoSource::kPortOut, window.get(),
                VideoWindow::kPortIn));
  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();

  const StreamStats& stats = window->stats();
  report.presented = stats.elements_presented;
  report.late = stats.late_elements;
  report.deadline_misses = stats.deadline_misses;
  report.stall_total_ms = stats.total_lateness_ns / 1e6;
  report.stall_max_ms = stats.max_lateness_ns / 1e6;
  report.retries = store.stats().retries;
  report.exhausted = store.stats().exhausted;
  report.backoff_ms = store.stats().backoff_ns / 1e6;
  report.injected_faults = device->stats().injected_faults;
  report.injected_latency_ms = device->stats().injected_latency.ToSecondsF() * 1e3;
  report.quality_lowers = degrade.stats().lowers_taken;
  report.quality_raises = degrade.stats().raises_taken;
  report.pauses = degrade.stats().pauses_taken;
  report.aborts = degrade.stats().aborts_taken;
  return report;
}

struct RevocationReport {
  int64_t line_rate_before = 0;
  int64_t line_rate_after = 0;
  int64_t excess_on_revoke = 0;     // reserved B/s beyond the new line rate
  double pool_over_on_revoke = 0;   // admission-pool oversubscription
  int64_t available_floor = 0;      // min AvailableBandwidth observed (>= 0)
  int64_t oversub_after_readmit = 0;
  bool readmitted = false;
  double demand_before = 0;
  double demand_after = 0;
  bool completed = false;
  int64_t presented = 0;
  int64_t dropped = 0;
  int64_t pauses = 0;
  int64_t aborts = 0;
  double stall_max_ms = 0;
};

RevocationReport RunRevocation(const std::shared_ptr<EncodedVideoValue>& clip) {
  RevocationReport report;

  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto device =
      std::make_shared<BlockDevice>("disk0", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  ServiceQueue queue("disk0");
  AVDB_MUST(store.Put("clip", value_serializer::Serialize(*clip).value()));

  // A light background fault load keeps the retry path warm; the main event
  // is the deterministic revocation below.
  FaultInjector device_faults(SweepSpec(0.02), kSeed);
  device->set_fault_injector(&device_faults);

  auto channel =
      std::make_shared<Channel>("lan", Channel::Profile::Ethernet10());
  FaultSpec collapse;
  collapse.bandwidth_collapse_rate = 0.05;
  collapse.bandwidth_collapse_factor = 0.25;
  FaultInjector channel_faults(collapse, kSeed + 1);
  channel->set_fault_injector(&channel_faults);

  DegradationController degrade;

  SourceOptions source_options;
  source_options.fetcher = FetchFrom(&store);
  source_options.blob_name = "clip";
  source_options.device_queue = &queue;
  source_options.degrade = &degrade;
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env,
                                    source_options);
  AVDB_MUST(source->Bind(clip, VideoSource::kPortOut));

  SinkOptions sink_options;
  sink_options.degrade = &degrade;
  auto window =
      VideoWindow::Create("win", ActivityLocation::kClient, env,
                          VideoQuality(176, 144, 8, Rational(10)),
                          sink_options);
  AVDB_MUST(source->Catch(VideoSource::kFrameDropped, [&](const ActivityEvent&) {
    ++report.dropped;
  }));
  AVDB_MUST(window->Catch(VideoWindow::kLastFrame, [&](const ActivityEvent&) {
    report.completed = true;
  }));

  // Admission: the stream's raw-frame rate on the wire.
  const double frame_bytes = 176.0 * 144.0;  // raw 8-bit frames on the wire
  const double demand = frame_bytes * 10.0;  // bytes/sec at 10 fps
  report.demand_before = demand;
  report.line_rate_before = channel->LineRate();
  AdmissionController admission;
  AVDB_MUST(admission.RegisterPool("net.bw", static_cast<double>(channel->LineRate())));
  AdmissionTicket ticket =
      admission.Admit({{"net.bw", demand}}).value();
  channel->ReserveBandwidth(static_cast<int64_t>(demand)).value();
  report.available_floor = channel->AvailableBandwidth();

  AVDB_MUST(graph.Add(source));
  AVDB_MUST(graph.Add(window));
  AVDB_MUST(graph.Connect(source.get(), VideoSource::kPortOut, window.get(),
                VideoWindow::kPortIn, channel));

  // t = 10 s: the link loses 7/8 of its rate (failover onto a loaded
  // backup). Revoke, surface the oversubscription, readmit at a demand the
  // shrunken link can actually carry.
  engine.ScheduleAt(WorldTime::FromSeconds(10), [&] {
    const int64_t new_rate = report.line_rate_before / 8;
    report.excess_on_revoke = channel->SetLineRate(new_rate);
    report.line_rate_after = channel->LineRate();
    report.pool_over_on_revoke =
        admission.SetPoolCapacity("net.bw", static_cast<double>(new_rate))
            .value();
    if (channel->AvailableBandwidth() < report.available_floor) {
      report.available_floor = channel->AvailableBandwidth();
    }
    // Reduced demand: half the new line rate — room for the retransmits
    // and cross traffic that shrank the link in the first place.
    const double reduced = static_cast<double>(new_rate) / 2.0;
    channel->ReleaseBandwidth(static_cast<int64_t>(demand));
    auto readmit = admission.Readmit(&ticket, {{"net.bw", reduced}});
    if (readmit.ok()) {
      ticket = std::move(readmit).value();
      report.readmitted = true;
      report.demand_after = reduced;
      AVDB_MUST(channel->ReserveBandwidth(static_cast<int64_t>(reduced)));
    }
    report.oversub_after_readmit = channel->OversubscribedBandwidth();
    if (channel->AvailableBandwidth() < report.available_floor) {
      report.available_floor = channel->AvailableBandwidth();
    }
  });

  AVDB_MUST(graph.StartAll());
  graph.RunUntilIdle();

  report.presented = window->stats().elements_presented;
  report.stall_max_ms = window->stats().max_lateness_ns / 1e6;
  report.pauses = degrade.stats().pauses_taken;
  report.aborts = degrade.stats().aborts_taken;
  admission.Release(&ticket);
  return report;
}

}  // namespace

int main() {
  std::cout
      << "==============================================================\n"
         "Fault injection + graceful degradation: stream a 30 s scalable\n"
         "clip through injected storage faults; degrade, don't stall\n"
         "==============================================================\n\n";

  auto clip = MakeClip();

  const std::vector<double> rates = {0.0, 0.01, 0.02, 0.05, 0.10};
  std::vector<RunReport> runs;
  for (double rate : rates) runs.push_back(RunSweepPoint(clip, rate));
  const RevocationReport rev = RunRevocation(clip);

  // ---------------------------------------------------------------- JSON --
  std::vector<bench::Object> sweep;
  for (const RunReport& r : runs) {
    sweep.push_back(
        {{"fault_rate", bench::Fixed(r.fault_rate, 2)},
         {"completed", r.completed}, {"frames_presented", r.presented},
         {"frames_dropped", r.dropped}, {"late_frames", r.late},
         {"deadline_misses", r.deadline_misses},
         {"stall_total_ms", bench::Fixed(r.stall_total_ms, 3)},
         {"stall_max_ms", bench::Fixed(r.stall_max_ms, 3)},
         {"retries", r.retries}, {"exhausted_reads", r.exhausted},
         {"backoff_ms", bench::Fixed(r.backoff_ms, 3)},
         {"injected_faults", r.injected_faults},
         {"injected_latency_ms", bench::Fixed(r.injected_latency_ms, 3)},
         {"fault_retry_events", r.fault_retry_events},
         {"quality_lowers", r.quality_lowers},
         {"quality_raises", r.quality_raises}, {"pauses", r.pauses},
         {"aborts", r.aborts}, {"min_layers", r.min_layers}});
  }
  const bench::Object revocation = {
      {"line_rate_before", rev.line_rate_before},
      {"line_rate_after", rev.line_rate_after},
      {"excess_on_revoke", rev.excess_on_revoke},
      {"pool_oversubscription", bench::Fixed(rev.pool_over_on_revoke, 0)},
      {"readmitted", rev.readmitted},
      {"demand_before", bench::Fixed(rev.demand_before, 0)},
      {"demand_after", bench::Fixed(rev.demand_after, 0)},
      {"available_floor", rev.available_floor},
      {"oversub_after_readmit", rev.oversub_after_readmit},
      {"frames_presented", rev.presented}, {"frames_dropped", rev.dropped},
      {"pauses", rev.pauses}, {"aborts", rev.aborts},
      {"stall_max_ms", bench::Fixed(rev.stall_max_ms, 3)},
      {"completed", rev.completed}};
  const bench::Object doc = {
      {"bench", "fault_degradation"},
      {"config", bench::Object{{"frames", kFrames}, {"rate_fps", 10},
                               {"layers", 3}, {"seed", kSeed}}},
      {"sweep", sweep},
      {"revocation", revocation}};

  // ----------------------------------------------------- acceptance gates --
  bench::Gates gates;
  gates.Check(bench::WriteReport("BENCH_fault_degradation.json", doc, {}),
              "BENCH_fault_degradation.json written");

  // Gate 1 — injection off is the fault-free path: nothing retried,
  // dropped, degraded, or late.
  const RunReport& clean = runs[0];
  gates.Check(clean.completed && clean.presented == kFrames,
              "rate 0: all frames presented");
  gates.Check(clean.retries == 0 && clean.dropped == 0 &&
                  clean.quality_lowers == 0 && clean.pauses == 0 &&
                  clean.aborts == 0,
              "rate 0: no retries, drops, or ladder actions");
  gates.Check(clean.stall_max_ms == 0, "rate 0: zero stall");

  // Gate 2 — the ISSUE's 5% acceptance point: playback completes with zero
  // unhandled errors, stall time bounded, and at least one
  // quality-degradation event.
  const RunReport* at5 = nullptr;
  for (const RunReport& r : runs) {
    if (r.fault_rate == 0.05) at5 = &r;
  }
  gates.Check(at5 != nullptr, "5% sweep point present");
  if (at5 != nullptr) {
    gates.Check(at5->completed, "5%: playback completes");
    gates.Check(at5->aborts == 0, "5%: no aborted stream (unhandled error)");
    gates.Check(
        at5->presented + at5->dropped == kFrames,
        "5%: every frame accounted for (presented or deliberately shed)");
    gates.Check(at5->quality_lowers + at5->pauses >= 1,
                "5%: at least one quality-degradation event");
    gates.Check(at5->stall_max_ms > 0 && at5->stall_max_ms < 2000,
                "5%: stall bounded (0 < max < 2000 ms)");
    gates.Check(at5->retries > 0, "5%: retry policy absorbed transient faults");
  }

  // Gate 3 — revocation invariants: availability never negative, the
  // shortfall is visible as oversubscription, and the reduced-demand
  // readmission resolves it while the stream still finishes.
  gates.Check(rev.available_floor >= 0,
              "revocation: AvailableBandwidth() >= 0");
  gates.Check(rev.excess_on_revoke > 0 && rev.pool_over_on_revoke > 0,
              "revocation: oversubscription surfaced on revoke");
  gates.Check(rev.readmitted,
              "revocation: reduced-demand readmission succeeded");
  gates.Check(rev.oversub_after_readmit == 0,
              "revocation: readmission resolves oversubscription");
  gates.Check(rev.completed && rev.aborts == 0,
              "revocation: stream still completes without abort");

  return gates.ExitCode();
}
