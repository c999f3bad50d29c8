// One run of a workload instance: open-loop session arrivals over the
// Fig. 3 deployment, the ingest producer, the timed engine run, the
// correctness checks, and the run's tally.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "base/buffer_pool.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/work_pool.h"
#include "cluster/replica_set.h"
#include "cluster/replicated_store.h"
#include "cluster/stream_router.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/scalable_codec.h"
#include "e2e.h"
#include "sched/degradation.h"
#include "sched/event_engine.h"
#include "sched/jitter.h"
#include "storage/value_serializer.h"
#include "time/virtual_clock.h"

namespace avdb::e2e {

namespace {

constexpr int64_t kMs = 1000 * 1000;
/// Client-visible budget of one quorum Put.
constexpr int64_t kPutBudgetNs = 2000 * kMs;
/// SourceOptions' default preroll: a source fetches element i this long
/// before its ideal presentation time.
constexpr int64_t kPrerollNs = 80 * kMs;
/// Virtual-time cadence of anti-entropy after a revive.
constexpr int64_t kResyncEveryNs = 1000 * kMs;
constexpr int kMaxResyncRounds = 16;
/// One presented frame in this many is checked against a fresh decode.
constexpr int kCaptureEvery = 16;

struct Session {
  int32_t id = 0;
  int title = 0;
  int64_t arrival_ns = 0;
  int64_t period_ns = 0;
  StreamRouter* router = nullptr;
  VideoSource* video_source = nullptr;
  VideoWindow* window = nullptr;
  AudioSink* audio_sink = nullptr;
  std::vector<int64_t> ready_ns;  ///< arrival at the sink, -1 = never
  std::vector<uint8_t> layers;    ///< scalable layers fetched per element
  bool aborted = false;
  int64_t fetches = 0;
  int64_t fetch_errors = 0;
};

struct Capture {
  int32_t session;
  int64_t element;
  int layers;
  VideoFrame frame;
};

struct Clip {
  std::string name;
  Buffer bytes;
  int64_t frames = 0;
  int64_t raw_bytes = 0;
  int64_t encoded_bytes = 0;
  bool acked = false;
  int64_t latency_ns = 0;
};

class Run {
 public:
  Run(const WorkloadSpec& spec, uint64_t seed, double multiplier);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  void Execute(bool trace, RunResult* out);
  void Collect(RunResult* out);
  void Check(RunResult* out);

 private:
  void BuildSessions();
  void ScheduleIngest();
  Result<MediaStore::ReadResult> OnFetch(int32_t s, const std::string& blob,
                                         int64_t offset, int64_t length,
                                         int64_t budget_ns);
  void OnPresented(int32_t s, int64_t element, int64_t now_ns);
  void Produce(int k);
  void Resync();
  int64_t ElementAt(const Title& title, int64_t offset) const;

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const double multiplier_;
  const bool scalable_;

  // Declaration order is teardown order reversed: the engine outlives
  // every activity, and the degradation controllers outlive the sinks that
  // detach from them.
  EventEngine engine_;
  JitterModel jitter_;
  RequestContext context_;
  CodecProbe probe_;
  std::unique_ptr<SpanRecorder> recorder_;
  std::vector<Title> titles_;
  std::vector<Replica> replicas_;
  std::shared_ptr<ReplicaSet> set_;
  std::unique_ptr<ReplicatedStore> writer_;
  std::shared_ptr<const VideoCodec> intra_;
  std::vector<std::unique_ptr<DegradationController>> degraders_;
  std::vector<std::unique_ptr<StreamRouter>> routers_;
  std::unique_ptr<ActivityGraph> graph_;
  std::vector<Session> sessions_;
  std::vector<Capture> captures_;
  std::vector<Clip> clips_;
  std::unique_ptr<FaultInjector> crash_;
  MediaStore::Stats retired_store_stats_;  ///< of a store a revive replaced

  int64_t fetch_mismatches_ = 0;
  int64_t unknown_offsets_ = 0;
  int64_t bytes_served_ = 0;
  int64_t video_fetch_ok_ = 0;
  std::vector<double> fetch_virtual_ms_;
  int64_t resync_rounds_ = 0;
  bool revive_failed_ = false;
  size_t peak_pending_ = 0;
  int64_t ingest_wall_ns_ = 0;
  int64_t ingest_cpu_ns_ = 0;
};

Run::Run(const WorkloadSpec& spec, uint64_t seed, double multiplier)
    : spec_(spec),
      seed_(seed),
      multiplier_(multiplier),
      scalable_(spec.media == MediaKind::kScalableVideo),
      jitter_(JitterModel::Workstation(SeedFor(seed, 3))) {
  probe_.context = &context_;
  titles_ = BuildCatalog(spec, seed, &probe_);
  replicas_ = BuildReplicas(spec, seed, titles_);
  // One health view shared by every session router and the write path: a
  // breaker one client opens shields the node from all of them.
  set_ = std::make_shared<ReplicaSet>(BreakerPolicy{});
  for (const Replica& r : replicas_) set_->Add(r.node, r.link);
  ReplicationPolicy policy;  // W=2 of N=3
  policy.retry.jitter_seed = SeedFor(seed, 4);
  writer_ = std::make_unique<ReplicatedStore>(
      "ingest", policy, [this] { return engine_.now_ns(); }, set_);
  intra_ = TracedVideoCodec(std::make_shared<IntraCodec>(), &probe_);
  BuildSessions();
  ScheduleIngest();
}

void Run::BuildSessions() {
  const int64_t period_ns =
      spec_.media == MediaKind::kAudio
          ? AudioSource::kBlockFrames * 1000000000LL / 8000
          : 1000000000LL / spec_.fps;
  const int64_t duration_ns = titles_.front().elements * period_ns;

  // Arrivals: a Poisson process at the nominal rate, compressed by the
  // rate multiplier, so every rung replays the same sessions.
  Rng arrivals(SeedFor(seed_, 1));
  Rng picks(SeedFor(seed_, 2));
  std::vector<double> zipf_cdf;
  if (spec_.zipf_s > 0) {
    double total = 0;
    for (int t = 0; t < spec_.titles; ++t) {
      total += 1.0 / std::pow(t + 1, spec_.zipf_s);
      zipf_cdf.push_back(total);
    }
    for (double& c : zipf_cdf) c /= total;
  }
  std::vector<int64_t> busy_until(static_cast<size_t>(spec_.titles), 0);
  double t_s = 0;
  sessions_.resize(static_cast<size_t>(spec_.sessions));
  for (int32_t s = 0; s < spec_.sessions; ++s) {
    Session& se = sessions_[static_cast<size_t>(s)];
    t_s += -std::log(1.0 - arrivals.NextDouble()) / spec_.arrivals_per_s;
    se.id = s;
    se.arrival_ns = static_cast<int64_t>(t_s / multiplier_ * 1e9);
    se.period_ns = period_ns;
    if (spec_.zipf_s > 0) {
      const double u = picks.NextDouble();
      se.title = std::min(
          static_cast<int>(std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(),
                                            u) -
                           zipf_cdf.begin()),
          spec_.titles - 1);
    } else {
      // A title no live session is playing; the longest-idle one when
      // every title is busy.
      std::vector<int> free_titles;
      for (int t = 0; t < spec_.titles; ++t) {
        if (busy_until[static_cast<size_t>(t)] <= se.arrival_ns) {
          free_titles.push_back(t);
        }
      }
      if (free_titles.empty()) {
        se.title = static_cast<int>(
            std::min_element(busy_until.begin(), busy_until.end()) -
            busy_until.begin());
      } else {
        se.title = free_titles[picks.NextBelow(free_titles.size())];
      }
      busy_until[static_cast<size_t>(se.title)] =
          se.arrival_ns + duration_ns + 1000 * kMs;
    }
    const int64_t elements = titles_[static_cast<size_t>(se.title)].elements;
    se.ready_ns.assign(static_cast<size_t>(elements), -1);
    se.layers.assign(static_cast<size_t>(elements), 1);
  }

  ActivityEnv env{&engine_, &jitter_};
  graph_ = std::make_unique<ActivityGraph>(env);
  for (Session& se : sessions_) {
    const Title& title = titles_[static_cast<size_t>(se.title)];
    const std::string id = std::to_string(se.id);
    const int32_t sid = se.id;
    routers_.push_back(std::make_unique<StreamRouter>(
        "client" + id, RouterPolicy{}, [this] { return engine_.now_ns(); },
        set_));
    degraders_.push_back(std::make_unique<DegradationController>());
    se.router = routers_.back().get();

    // Every session degrades instead of stalling: without the ladder one
    // DeadlineExceeded fetch stops the stream.
    SourceOptions source_options;
    source_options.blob_name = title.blob;
    source_options.start_offset = WorldTime::FromNanos(se.arrival_ns);
    source_options.degrade = degraders_.back().get();
    source_options.fetcher = [this, sid](const std::string& blob,
                                         int64_t offset, int64_t length,
                                         int64_t budget_ns) {
      return OnFetch(sid, blob, offset, length, budget_ns);
    };
    SinkOptions sink_options;
    sink_options.degrade = degraders_.back().get();
    auto on_presented = [this, sid](const ActivityEvent& e) {
      OnPresented(sid, e.element_index, e.time_ns);
    };
    auto on_aborted = [&se](const ActivityEvent&) { se.aborted = true; };

    if (spec_.media == MediaKind::kAudio) {
      auto source = AudioSource::Create("src" + id, ActivityLocation::kDatabase,
                                        env, source_options);
      AVDB_MUST(source->Bind(title.value, AudioSource::kPortOut));
      AVDB_MUST(source->Catch(AudioSource::kStreamAborted, on_aborted));
      auto sink = AudioSink::Create("sink" + id, ActivityLocation::kClient,
                                    env, AudioQuality::kVoice, sink_options);
      AVDB_MUST(sink->Catch(AudioSink::kEachBlock, on_presented));
      se.audio_sink = sink.get();
      AVDB_MUST(graph_->Add(source));
      AVDB_MUST(graph_->Add(sink));
      AVDB_MUST(graph_->Connect(source.get(), AudioSource::kPortOut,
                                sink.get(), AudioSink::kPortIn));
    } else {
      auto source = VideoSource::Create("src" + id, ActivityLocation::kDatabase,
                                        env, source_options);
      AVDB_MUST(source->Bind(title.value, VideoSource::kPortOut));
      AVDB_MUST(source->Catch(VideoSource::kStreamAborted, on_aborted));
      auto window = VideoWindow::Create(
          "sink" + id, ActivityLocation::kClient, env,
          VideoQuality(spec_.width, spec_.height, 8, Rational(spec_.fps)),
          sink_options);
      AVDB_MUST(window->Catch(VideoWindow::kEachFrame, on_presented));
      se.video_source = source.get();
      se.window = window.get();
      AVDB_MUST(graph_->Add(source));
      AVDB_MUST(graph_->Add(window));
      AVDB_MUST(graph_->Connect(source.get(), VideoSource::kPortOut,
                                window.get(), VideoWindow::kPortIn));
    }
  }
}

void Run::ScheduleIngest() {
  const IngestPlan& plan = spec_.ingest;
  int64_t start_ns = 0;
  double stretch = 1.0;
  if (plan.concurrent) {
    // Beside playback, compressed with the session arrivals.
    start_ns = plan.start_ns;
    stretch = 1.0 / multiplier_;
  } else {
    // A probe of the same deployment once every session has ended.
    int64_t end_ns = 0;
    for (const Session& se : sessions_) {
      end_ns = std::max(end_ns, se.arrival_ns + static_cast<int64_t>(
                                                   se.ready_ns.size()) *
                                                   se.period_ns);
    }
    start_ns = end_ns + 1000 * kMs;
  }
  auto at = [&](int64_t offset_ns) {
    return static_cast<int64_t>(static_cast<double>(start_ns + offset_ns) *
                                stretch);
  };
  clips_.resize(static_cast<size_t>(plan.clips));
  for (int k = 0; k < plan.clips; ++k) {
    engine_.ScheduleAt(at(k * plan.interval_ns), [this, k] { Produce(k); });
  }
  if (!spec_.crash_and_revive) return;
  const int64_t window = plan.clips * plan.interval_ns;
  engine_.ScheduleAt(at(window / 3), [this] {
    // The machine dies at its next request and refuses until revived.
    crash_ = std::make_unique<FaultInjector>(FaultSpec::NodeCrash(1),
                                             SeedFor(seed_, 5));
    replicas_[2].node->set_fault_injector(crash_.get());
  });
  engine_.ScheduleAt(at(2 * window / 3), [this] {
    const MediaStore::Stats& old = replicas_[2].node->store().stats();
    retired_store_stats_.retries += old.retries;
    retired_store_stats_.pages_verified += old.pages_verified;
    retired_store_stats_.journal_records += old.journal_records;
    if (!writer_->ReviveReplica(2).ok()) revive_failed_ = true;
    Resync();
  });
}

void Run::Resync() {
  if (writer_->Converged() || resync_rounds_ >= kMaxResyncRounds) return;
  writer_->RunAntiEntropy();
  ++resync_rounds_;
  engine_.ScheduleAfter(kResyncEveryNs, [this] { Resync(); });
}

void Run::Produce(int k) {
  const IngestPlan& plan = spec_.ingest;
  Clip& clip = clips_[static_cast<size_t>(k)];
  clip.name = spec_.name + "/ingest" + std::to_string(k);
  context_ = RequestContext{-1, k, engine_.now_ns()};
  auto raw = MakeIngestClip(plan.frames_per_clip,
                            SeedFor(seed_, 100000 + static_cast<uint64_t>(k)));
  clip.frames = raw->FrameCount();
  clip.raw_bytes = raw->StoredBytes();

  const int64_t wall_start = HostNowNs();
  const int64_t cpu_start = ProcessCpuNs();
  VideoCodecParams params;
  params.concurrency = WorkPool::Shared().worker_count() + 1;
  auto encoded = intra_->Encode(*raw, params).value();
  clip.encoded_bytes = encoded.TotalBytes();
  auto value = EncodedVideoValue::Create(intra_, std::move(encoded)).value();
  clip.bytes = value_serializer::Serialize(*value).value();
  const int64_t put_start = HostNowNs();
  auto put = writer_->Put(clip.name, clip.bytes, kPutBudgetNs);
  const int64_t wall_end = HostNowNs();
  ingest_cpu_ns_ += ProcessCpuNs() - cpu_start;
  ingest_wall_ns_ += wall_end - wall_start;
  if (recorder_ != nullptr) {
    recorder_->Add(SpanKind::kPut, -1, k, put_start, wall_end,
                   engine_.now_ns());
  }
  if (put.ok()) {
    clip.acked = true;
    clip.latency_ns = VirtualClock::ToNs(put.value().duration);
  }
}

int64_t Run::ElementAt(const Title& title, int64_t offset) const {
  if (title.video == nullptr) {
    return offset % title.block_bytes == 0 ? offset / title.block_bytes : -1;
  }
  auto it = std::lower_bound(title.frame_offsets.begin(),
                             title.frame_offsets.end(), offset);
  if (it == title.frame_offsets.end() || *it != offset) return -1;
  return it - title.frame_offsets.begin();
}

Result<MediaStore::ReadResult> Run::OnFetch(int32_t s, const std::string& blob,
                                            int64_t offset, int64_t length,
                                            int64_t budget_ns) {
  Session& se = sessions_[static_cast<size_t>(s)];
  const Title& title = titles_[static_cast<size_t>(se.title)];
  const int64_t element = ElementAt(title, offset);
  const int64_t now = engine_.now_ns();
  if (element < 0) {
    ++unknown_offsets_;
  } else if (scalable_) {
    se.layers[static_cast<size_t>(element)] =
        static_cast<uint8_t>(se.video_source->active_layers());
  }
  context_ = RequestContext{s, element, now};
  ++se.fetches;

  int64_t start = 0;
  if (recorder_ != nullptr) {
    // AudioSource decodes a block just before fetching it: the decode span
    // recorded last belongs to this request.
    std::vector<Span>& spans = recorder_->spans();
    if (!spans.empty() && spans.back().kind == SpanKind::kDecode &&
        spans.back().session < 0 && spans.back().element == element) {
      spans.back().session = s;
      spans.back().virtual_ns = now;
    }
    start = HostNowNs();
  }
  Result<MediaStore::ReadResult> read =
      se.router->Fetch(blob, offset, length, budget_ns);
  if (recorder_ != nullptr) {
    recorder_->Add(SpanKind::kFetch, s, element, start, HostNowNs(), now);
  }

  if (!read.ok()) {
    ++se.fetch_errors;
    return read;
  }
  if (title.video != nullptr) ++video_fetch_ok_;
  bytes_served_ += length;
  fetch_virtual_ms_.push_back(
      static_cast<double>(VirtualClock::ToNs(read.value().duration)) / 1e6);
  const Buffer& data = read.value().data;
  if (static_cast<int64_t>(data.size()) != length ||
      offset + length > static_cast<int64_t>(title.bytes.size()) ||
      std::memcmp(data.data(), title.bytes.data() + offset,
                  static_cast<size_t>(length)) != 0) {
    ++fetch_mismatches_;
  }
  return read;
}

void Run::OnPresented(int32_t s, int64_t element, int64_t now_ns) {
  Session& se = sessions_[static_cast<size_t>(s)];
  if (element < 0 || element >= static_cast<int64_t>(se.ready_ns.size())) {
    return;
  }
  int64_t& ready = se.ready_ns[static_cast<size_t>(element)];
  if (ready >= 0) return;
  ready = now_ns;
  if (se.window != nullptr && element % kCaptureEvery == 0) {
    captures_.push_back(Capture{s, element,
                                se.layers[static_cast<size_t>(element)],
                                se.window->last_frame()});
  }
}

void Run::Execute(bool trace, RunResult* out) {
  for (Replica& r : replicas_) {
    r.device->ResetStats();
    r.cache->ResetStats();
    r.node->store().ResetStats();
  }
  const int64_t allocations = BufferPool::Shared().stats().allocations;
  const int64_t wall_start = HostNowNs();
  const int64_t cpu_start = ProcessCpuNs();
  if (trace) {
    recorder_ = std::make_unique<SpanRecorder>(wall_start);
    probe_.recorder = recorder_.get();
  }
  AVDB_MUST(graph_->StartAll());
  peak_pending_ = engine_.PendingEvents();
  while (engine_.RunOne()) {
    peak_pending_ = std::max(peak_pending_, engine_.PendingEvents());
  }
  // Background repair after the last event: replay hints left by late or
  // refused acks until every replica holds the same directory.
  for (int round = 0; round < kMaxResyncRounds && !writer_->Converged();
       ++round) {
    writer_->RunAntiEntropy();
    ++resync_rounds_;
  }
  out->timed_cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e9;
  out->timed_wall_s = static_cast<double>(HostNowNs() - wall_start) / 1e9;
  out->ingest_cpu_s = static_cast<double>(ingest_cpu_ns_) / 1e9;
  out->ingest_wall_s = static_cast<double>(ingest_wall_ns_) / 1e9;
  out->pool_allocations =
      BufferPool::Shared().stats().allocations - allocations;
  probe_.recorder = nullptr;
  if (recorder_ != nullptr) out->spans = std::move(recorder_->spans());
}

void Run::Collect(RunResult* out) {
  std::map<std::string, double>& sum = out->tally.sums;
  std::map<std::string, double>& max = out->tally.maxima;
  std::map<std::string, std::vector<double>>& samples = out->tally.samples;
  auto peak = [&max](const std::string& key, double value) {
    max[key] = std::max(max[key], value);
  };

  std::vector<double>& startup_ms = samples["startup_ms"];
  std::vector<double>& latency_ms = samples["latency_ms"];
  for (const Session& se : sessions_) {
    sum["sessions"] += 1;
    sum["elements_due"] += static_cast<double>(se.ready_ns.size());
    sum["fetches"] += static_cast<double>(se.fetches);
    sum["fetch_errors"] += static_cast<double>(se.fetch_errors);
    sum["aborted_streams"] += se.aborted ? 1 : 0;
    int64_t first = -1;
    for (size_t i = 0; i < se.ready_ns.size(); ++i) {
      const int64_t ready = se.ready_ns[i];
      if (ready < 0) continue;
      // Latency from the moment the element was due to be fetched; the
      // schedule is the original one, so a stall or a pause shows on every
      // element queued behind it.
      const int64_t latency =
          ready - (se.arrival_ns + static_cast<int64_t>(i) * se.period_ns);
      latency_ms.push_back(static_cast<double>(latency) / 1e6);
      sum["presented"] += 1;
      sum["layers"] += se.layers[i];
      if (latency - kPrerollNs < StreamStats::kMissThresholdNs) {
        sum["on_time"] += 1;
      }
      if (first < 0) first = ready;
    }
    if (first >= 0) {
      startup_ms.push_back(static_cast<double>(first - se.arrival_ns) / 1e6);
    }
  }

  std::vector<double>& put_ms = samples["put_ms"];
  for (const Clip& clip : clips_) {
    sum["puts"] += 1;
    sum["ingest_raw_mb"] += static_cast<double>(clip.raw_bytes) / 1e6;
    sum["clip_frames"] += static_cast<double>(clip.frames);
    sum["encoded_bytes"] += static_cast<double>(clip.encoded_bytes);
    if (clip.acked) {
      put_ms.push_back(static_cast<double>(clip.latency_ns) / 1e6);
      sum["acked_bytes"] += static_cast<double>(clip.bytes.size());
    } else {
      sum["puts_failed"] += 1;
    }
  }

  const double horizon_ns = std::max<double>(1, engine_.now_ns());
  MediaStore::Stats store = retired_store_stats_;
  int64_t served_max = 0;
  int64_t served_total = 0;
  for (Replica& r : replicas_) {
    const BlockDevice::Stats& d = r.device->stats();
    sum["device_bytes_written"] += static_cast<double>(d.bytes_written);
    sum["device_reads"] += static_cast<double>(d.reads);
    sum["device_ops"] += static_cast<double>(d.reads + d.writes);
    sum["seeks"] += static_cast<double>(d.seeks);
    peak("device_busy_ratio",
         static_cast<double>(VirtualClock::ToNs(d.busy_time)) / horizon_ns);
    sum["cache_hits"] += static_cast<double>(r.cache->stats().hits);
    sum["cache_misses"] += static_cast<double>(r.cache->stats().misses);
    sum["cache_evictions"] += static_cast<double>(r.cache->stats().evictions);
    const MediaStore::Stats& st = r.node->store().stats();
    store.retries += st.retries;
    store.pages_verified += st.pages_verified;
    store.journal_records += st.journal_records;
    const ServiceQueue::Stats& q = r.node->device_queue().stats();
    sum["node_queued_ns"] += static_cast<double>(q.queued_ns);
    peak("node_busy_ratio", static_cast<double>(q.busy_ns) / horizon_ns);
    sum["node_refused"] += static_cast<double>(r.node->stats().refused);
    served_max = std::max(served_max, r.node->stats().served);
    served_total += r.node->stats().served;
    const ServiceQueue::Stats& l = r.link->queue().stats();
    sum["link_bytes"] += static_cast<double>(r.link->stats().bytes);
    sum["link_requests"] += static_cast<double>(l.requests);
    sum["link_queued_ns"] += static_cast<double>(l.queued_ns);
    sum["link_cancelled"] +=
        static_cast<double>(r.link->stats().deadline_cancelled);
    peak("link_busy_ratio", static_cast<double>(l.busy_ns) / horizon_ns);
  }
  sum["horizon_ns"] += horizon_ns;
  sum["runs"] += 1;
  sum["load_skew"] += served_total == 0
                          ? 0
                          : static_cast<double>(served_max) *
                                static_cast<double>(replicas_.size()) /
                                static_cast<double>(served_total);
  sum["store_retries"] += static_cast<double>(store.retries);
  sum["pages_verified"] += static_cast<double>(store.pages_verified);
  sum["journal_records"] += static_cast<double>(store.journal_records);
  sum["bytes_served"] += static_cast<double>(bytes_served_);

  for (const auto& router : routers_) {
    const StreamRouter::Stats& rs = router->stats();
    sum["routed_fetches"] += static_cast<double>(rs.fetches);
    sum["failovers"] += static_cast<double>(rs.failovers);
    sum["hedges"] += static_cast<double>(rs.hedges);
    sum["hedge_wins"] += static_cast<double>(rs.hedge_wins);
    sum["breaker_opens"] += static_cast<double>(rs.breaker_opens);
    sum["deadline_give_ups"] += static_cast<double>(rs.deadline_give_ups);
    sum["exhausted"] += static_cast<double>(rs.exhausted);
  }
  for (size_t i = 0; i < sessions_.size(); ++i) {
    const DegradationController::Stats& ds = degraders_[i]->stats();
    sum["degrade_drops"] += static_cast<double>(ds.drops_taken);
    sum["degrade_lowers"] += static_cast<double>(ds.lowers_taken);
    sum["degrade_pauses"] += static_cast<double>(ds.pauses_taken);
    sum["degrade_aborts"] += static_cast<double>(ds.aborts_taken);
    const Session& se = sessions_[i];
    sum["elements_skipped"] += static_cast<double>(
        se.window != nullptr ? se.window->stats().elements_skipped
                             : se.audio_sink->stats().elements_skipped);
  }
  const ReplicatedStore::Stats& ws = writer_->stats();
  sum["breaker_opens"] += static_cast<double>(ws.breaker_opens);
  sum["quorum_puts"] += static_cast<double>(ws.quorum_puts);
  sum["write_acks"] += static_cast<double>(ws.write_acks);
  sum["hints_recorded"] += static_cast<double>(ws.hints_recorded);
  sum["hints_replayed"] += static_cast<double>(ws.hints_replayed);
  sum["resync_bytes"] += static_cast<double>(ws.repair_bytes_streamed);
  sum["resync_rounds"] += static_cast<double>(resync_rounds_);

  double internal_decodes = static_cast<double>(probe_.audio_decodes);
  for (const Title& title : titles_) {
    if (title.video != nullptr) {
      internal_decodes +=
          static_cast<double>(title.video->FramesDecodedInternally());
    }
  }
  sum["internal_decodes"] += internal_decodes;
  sum["decode_calls"] +=
      static_cast<double>(probe_.video_decodes + probe_.audio_decodes);
  sum["untimed_frames"] += static_cast<double>(
      std::max<int64_t>(0, video_fetch_ok_ - probe_.video_decodes));
  samples["fetch_virtual_ms"] = std::move(fetch_virtual_ms_);
  sum["events_run"] += static_cast<double>(engine_.EventsRun());
  sum["engine_bytes"] += static_cast<double>(engine_.MemoryFootprintBytes());
  peak("peak_pending", static_cast<double>(peak_pending_));
}

void Run::Check(RunResult* out) {
  auto fail = [out](std::string what) {
    out->failures.push_back(std::move(what));
  };
  if (fetch_mismatches_ > 0) {
    fail(std::to_string(fetch_mismatches_) +
         " fetched ranges differ from the stored blob");
  }
  if (unknown_offsets_ > 0) {
    fail(std::to_string(unknown_offsets_) +
         " fetches at offsets that start no element");
  }
  if (revive_failed_) fail("ReviveReplica(2) failed");

  // Presented frames against a fresh reference decode at the layer count
  // the session was playing.
  int64_t frame_mismatches = 0;
  for (const Capture& c : captures_) {
    const Title& title = titles_[static_cast<size_t>(
        sessions_[static_cast<size_t>(c.session)].title)];
    const EncodedVideo& encoded = title.video->encoded();
    Result<std::unique_ptr<VideoDecoderSession>> decoder =
        scalable_ ? ScalableCodec().NewDecoderWithLayers(encoded, c.layers)
                  : InterCodec().NewDecoder(encoded);
    if (!decoder.ok()) {
      ++frame_mismatches;
      continue;
    }
    auto reference = decoder.value()->DecodeFrame(c.element);
    if (!reference.ok() || !(reference.value() == c.frame)) ++frame_mismatches;
  }
  if (frame_mismatches > 0) {
    fail(std::to_string(frame_mismatches) + " of " +
         std::to_string(captures_.size()) +
         " sampled presented frames differ from a reference decode");
  }

  // Every acked put reads back byte-identical from every replica. The
  // device fault injectors are detached: verification is not workload.
  for (Replica& r : replicas_) r.device->set_fault_injector(nullptr);
  if (!writer_->Converged()) fail("replicas did not converge");
  if (writer_->stats().data_loss_events != 0) {
    fail(std::to_string(writer_->stats().data_loss_events) +
         " data-loss events");
  }
  int64_t readback_failures = 0;
  for (const Clip& clip : clips_) {
    if (!clip.acked) continue;
    for (Replica& r : replicas_) {
      auto got = r.node->store().Get(clip.name);
      if (!got.ok() || got.value().data != clip.bytes) ++readback_failures;
    }
  }
  if (readback_failures > 0) {
    fail(std::to_string(readback_failures) +
         " acked ingest copies do not read back byte-identical");
  }
}

}  // namespace

RunResult ExecuteRun(const WorkloadSpec& spec, uint64_t seed,
                     double rate_multiplier, bool trace) {
  RunResult result;
  const int64_t wall_start = HostNowNs();
  const int64_t cpu_start = ProcessCpuNs();
  Run run(spec, seed, rate_multiplier);
  result.setup_cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e9;
  result.setup_wall_s = static_cast<double>(HostNowNs() - wall_start) / 1e9;
  run.Execute(trace, &result);
  run.Collect(&result);
  run.Check(&result);
  return result;
}

}  // namespace avdb::e2e
