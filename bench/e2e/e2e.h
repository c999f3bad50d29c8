// Shared declarations of the avdb_e2e benchmark (README.md in this
// directory): workload specs, the Fig. 3 deployment, one run of a workload,
// the span recorder and the metric tables.
#ifndef AVDB_BENCH_E2E_E2E_H_
#define AVDB_BENCH_E2E_E2E_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "activity/sources.h"
#include "base/buffer.h"
#include "base/fault_injector.h"
#include "cluster/node.h"
#include "codec/encoded_value.h"
#include "net/channel.h"
#include "storage/block_device.h"
#include "storage/buffer_cache.h"

namespace avdb::e2e {

// --------------------------------------------------------------- workloads --

enum class MediaKind { kInterVideo, kScalableVideo, kAudio };

/// Producer schedule: clip k is encoded and quorum-Put at
/// start + k * interval_ns of virtual time. A concurrent plan starts at
/// start_ns, beside playback; otherwise the clips are an ingest probe of
/// the same deployment once the last session has ended.
struct IngestPlan {
  int clips = 0;
  int frames_per_clip = 0;
  bool concurrent = false;
  int64_t start_ns = 0;
  int64_t interval_ns = 0;
};

struct WorkloadSpec {
  std::string name;
  MediaKind media = MediaKind::kInterVideo;
  int titles = 0;
  int width = 0;   ///< video geometry (8-bit luma)
  int height = 0;
  int fps = 0;
  int quality = 75;  ///< VideoCodecParams::quality of the catalog
  int64_t title_ms = 0;  ///< every session plays one whole title
  /// Zipf exponent of title popularity; 0 gives every concurrent session a
  /// title no other live session is playing.
  double zipf_s = 0;
  int sessions = 0;
  double arrivals_per_s = 0;  ///< nominal Poisson session arrival rate
  int64_t cache_bytes = 0;    ///< per node
  bool prewarm_cache = false;
  double device_fault_rate = 0;
  int slow_node = -1;
  double slow_factor = 1;
  /// Node 2 crashes a third of the way through the ingest schedule and is
  /// revived at two thirds; anti-entropy then runs until convergence.
  bool crash_and_revive = false;
  IngestPlan ingest;
  /// Independent instances (deployment, catalog, arrivals, faults) whose
  /// results are pooled into one measurement, so tails and capacity repeat
  /// across seeds.
  int subruns = 1;
  /// Multiples of the nominal arrival rate replayed for streams_at_slo, and
  /// how many instances each replayed rung pools.
  std::vector<double> rungs;
  int rung_subruns = 1;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Seed of sub-run `index` of a run seeded `seed`.
uint64_t SubrunSeed(uint64_t seed, int index);

// ------------------------------------------------------------------ spans --

enum class SpanKind : uint8_t { kFetch, kDecode, kEncode, kPut };
const char* SpanName(SpanKind kind);

/// One timed call into a layer API. Host times are steady_clock ns relative
/// to the start of the run's timed phase; (session, element) is the request
/// id — session -1 marks the ingest producer, whose element is the clip.
struct Span {
  SpanKind kind;
  int32_t session;
  int64_t element;
  int64_t host_start_ns;
  int64_t host_end_ns;
  int64_t virtual_ns;
};

/// In-memory span sink of a traced run. Single-threaded by construction:
/// every traced call happens on the engine thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(int64_t origin_ns) : origin_ns_(origin_ns) {}
  void Add(SpanKind kind, int32_t session, int64_t element, int64_t start_ns,
           int64_t end_ns, int64_t virtual_ns) {
    spans_.push_back(Span{kind, session, element, start_ns - origin_ns_,
                          end_ns - origin_ns_, virtual_ns});
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  int64_t origin_ns_;
  std::vector<Span> spans_;
};

/// steady_clock, in ns.
int64_t HostNowNs();
/// CPU time of the whole process (every thread), in ns: the host-cost
/// clock, insensitive to other tenants of the machine.
int64_t ProcessCpuNs();

/// The request being served on the engine thread: set by a session's
/// fetcher and by the ingest producer, read by the codec decorators.
struct RequestContext {
  int32_t session = -1;
  int64_t element = -1;
  int64_t virtual_ns = 0;
};

/// Decorators around the codec layer's public interfaces. They forward
/// every call; when a recorder is installed they also record a span per
/// DecodeFrame / DecodeChunk / Encode. Decode calls are always counted.
struct CodecProbe {
  SpanRecorder* recorder = nullptr;
  RequestContext* context = nullptr;
  int64_t video_decodes = 0;
  int64_t audio_decodes = 0;
};
std::shared_ptr<const VideoCodec> TracedVideoCodec(
    std::shared_ptr<const VideoCodec> inner, CodecProbe* probe);
std::shared_ptr<const AudioCodec> TracedAudioCodec(
    std::shared_ptr<const AudioCodec> inner, CodecProbe* probe);

// ------------------------------------------------------------- deployment --

/// One catalog title as stored on every replica.
struct Title {
  std::string blob;
  Buffer bytes;  ///< serialized value: what every fetch must return
  MediaValuePtr value;
  std::shared_ptr<EncodedVideoValue> video;  ///< null for audio titles
  std::vector<int64_t> frame_offsets;        ///< video: fetch offset per frame
  int64_t block_bytes = 0;                   ///< audio: bytes per block
  int64_t elements = 0;
};

struct Replica {
  std::shared_ptr<BlockDevice> device;
  std::shared_ptr<BufferCache> cache;
  ServerNodePtr node;
  ChannelPtr link;
  std::unique_ptr<FaultInjector> device_faults;
  std::unique_ptr<FaultInjector> node_faults;
};

/// Independent, deterministic seed for one random stream of a run.
uint64_t SeedFor(uint64_t seed, uint64_t stream);

/// A raw QCIF clip for the ingest producers (deterministic in `seed`).
std::shared_ptr<RawVideoValue> MakeIngestClip(int frames, uint64_t seed);

/// Catalog generation and encoding (deterministic in `seed`).
std::vector<Title> BuildCatalog(const WorkloadSpec& spec, uint64_t seed,
                                CodecProbe* probe);
/// Three replica machines holding the catalog, each with an ATM link to
/// the client side.
std::vector<Replica> BuildReplicas(const WorkloadSpec& spec, uint64_t seed,
                                   const std::vector<Title>& titles);

// -------------------------------------------------------------------- run --

/// What the virtual-time metrics are computed from: additive counters,
/// per-run maxima and raw samples. Tallies of independent sub-runs merge
/// into one pooled measurement; all of it is deterministic in the seed.
struct Tally {
  std::map<std::string, double> sums;
  std::map<std::string, double> maxima;
  std::map<std::string, std::vector<double>> samples;

  void Merge(const Tally& other);
  friend bool operator==(const Tally& a, const Tally& b) {
    return a.sums == b.sums && a.maxima == b.maxima && a.samples == b.samples;
  }
};

/// One execution of a workload instance at one arrival rate.
struct RunResult {
  Tally tally;
  // Host time (wall and process CPU) and other non-deterministic numbers.
  double setup_wall_s = 0;
  double setup_cpu_s = 0;
  double timed_wall_s = 0;
  double timed_cpu_s = 0;
  double ingest_wall_s = 0;
  double ingest_cpu_s = 0;
  int64_t pool_allocations = 0;  ///< BufferPool heap allocations
  std::vector<std::string> failures;  ///< failed correctness checks
  std::vector<Span> spans;            ///< traced runs only
};

/// Builds the deployment and sessions (set-up), runs the engine to idle
/// (timed phase), then checks outputs. `rate_multiplier` scales the
/// session arrival rate; `trace` records spans.
RunResult ExecuteRun(const WorkloadSpec& spec, uint64_t seed,
                     double rate_multiplier, bool trace);

// ---------------------------------------------------------------- metrics --

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_is_better;
  double bound;  ///< end-to-end only: allowed relative worsening
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Virtual-time end-to-end metrics of a (pooled) tally.
std::map<std::string, double> VirtualMetrics(const Tally& tally);
/// Stats-derived per-layer numbers of a (pooled) tally.
std::map<std::string, double> LayerCounts(const Tally& tally);
/// Deadline misses (late, shed or never presented) per element due.
double MissRatio(const Tally& tally);

double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace avdb::e2e

#endif  // AVDB_BENCH_E2E_E2E_H_
