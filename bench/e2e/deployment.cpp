// Workload table and the Fig. 3 deployment: a seeded catalog encoded and
// serialized onto three ServerNode replicas (MediaStore + BufferCache +
// MagneticDisk BlockDevice each), reached over one ATM link per server.

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "base/rng.h"
#include "base/work_pool.h"
#include "codec/audio_codec.h"
#include "codec/inter_codec.h"
#include "codec/scalable_codec.h"
#include "e2e.h"
#include "media/synthetic.h"
#include "storage/value_serializer.h"

namespace avdb::e2e {

namespace {

constexpr int64_t kMs = 1000 * 1000;
constexpr int64_t kMiB = 1024 * 1024;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> w;

  // Cache-resident inter-coded titles shared by many sessions: host decode
  // dominates; device, links and failover stay idle.
  WorkloadSpec hot;
  hot.name = "vod_hot";
  hot.media = MediaKind::kInterVideo;
  hot.titles = 4;
  hot.width = 176;
  hot.height = 144;
  hot.fps = 10;
  hot.title_ms = 4000;
  hot.zipf_s = 1.0;
  hot.sessions = 100;
  hot.arrivals_per_s = 6.0;  // ~24 concurrent sessions
  hot.cache_bytes = 16 * kMiB;
  hot.prewarm_cache = true;
  hot.ingest = IngestPlan{20, 10, false, 0, 250 * kMs};
  hot.subruns = 4;
  hot.rungs = {1.0};
  w.push_back(hot);

  // Distinct scalable titles far beyond the cache, 2% device faults and a
  // 3x slow node: device, links and the resilience machinery set latency
  // and capacity.
  WorkloadSpec cold;
  cold.name = "vod_cold";
  cold.media = MediaKind::kScalableVideo;
  // Preview-size frames at high quality: many bytes (device and link
  // work) per host microsecond of decode, so a run can hold enough
  // sessions for its tail and capacity numbers to repeat across seeds.
  cold.titles = 256;
  cold.width = 64;
  cold.height = 48;
  cold.fps = 10;
  cold.quality = 95;
  cold.title_ms = 2000;
  cold.zipf_s = 0;
  cold.sessions = 400;
  cold.arrivals_per_s = 3.0;  // ~6 concurrent sessions
  cold.cache_bytes = 4 * kMiB;
  cold.device_fault_rate = 0.02;
  cold.slow_node = 1;
  cold.slow_factor = 3.0;
  cold.ingest = IngestPlan{20, 10, false, 0, 250 * kMs};
  cold.subruns = 6;
  cold.rungs = {0.5, 1.0, 1.5, 2.0, 3.0};
  cold.rung_subruns = 6;
  w.push_back(cold);

  // Hundreds of ADPCM voice sessions on a cached catalog: per-element
  // cost is scheduling, routing and the cache-hit path, not codec work.
  WorkloadSpec audio;
  audio.name = "audio_fanout";
  audio.media = MediaKind::kAudio;
  audio.titles = 16;
  audio.title_ms = 30000;
  audio.zipf_s = 1.0;
  audio.sessions = 400;
  audio.arrivals_per_s = 5.0 / 3.0;  // ~50 concurrent sessions
  audio.cache_bytes = 16 * kMiB;
  audio.prewarm_cache = true;
  audio.ingest = IngestPlan{20, 10, false, 0, 250 * kMs};
  audio.subruns = 4;
  audio.rungs = {0.5, 1.0, 1.5, 2.0, 3.0};
  w.push_back(audio);

  // Quorum writes of freshly encoded clips beside cached playback on the
  // same device arms, with a node crash, hinted handoff and resync.
  WorkloadSpec ingest;
  ingest.name = "ingest_mix";
  ingest.media = MediaKind::kInterVideo;
  ingest.titles = 4;
  ingest.width = 176;
  ingest.height = 144;
  ingest.fps = 10;
  ingest.title_ms = 3000;
  ingest.zipf_s = 1.0;
  ingest.sessions = 50;
  ingest.arrivals_per_s = 8.0 / 3.0;  // ~8 concurrent sessions
  ingest.cache_bytes = 16 * kMiB;
  ingest.prewarm_cache = true;
  ingest.crash_and_revive = true;
  ingest.ingest = IngestPlan{80, 10, true, 250 * kMs, 250 * kMs};
  ingest.subruns = 12;
  ingest.rungs = {1.0};
  w.push_back(ingest);
  return w;
}

/// Seeded title content: the moving-box test card at a seeded phase and
/// background level, so every seed gives different bytes with the same
/// coding statistics.
std::shared_ptr<RawVideoValue> MakeClip(int width, int height, int fps,
                                        int64_t frames, uint64_t seed) {
  Rng rng(seed);
  const int64_t phase = static_cast<int64_t>(rng.NextBelow(100000));
  const int level = static_cast<int>(rng.NextBelow(48));
  std::vector<VideoFrame> out;
  out.reserve(static_cast<size_t>(frames));
  for (int64_t i = 0; i < frames; ++i) {
    VideoFrame frame = synthetic::GeneratePatternFrame(
        width, height, 8, phase + i, synthetic::VideoPattern::kMovingBox);
    for (uint8_t& px : frame.data()) {
      px = static_cast<uint8_t>(std::min(255, px + level));
    }
    out.push_back(std::move(frame));
  }
  return RawVideoValue::FromFrames(
             MediaDataType::RawVideo(width, height, 8, Rational(fps)),
             std::move(out))
      .value();
}

FaultSpec DeviceFaults(double p) {
  FaultSpec spec;
  spec.read_error_rate = p;
  spec.latency_spike_rate = p;
  spec.latency_spike_ns = 30 * kMs;
  spec.stuck_head_rate = p / 2;
  spec.stuck_head_stall_ns = 400 * kMs;
  return spec;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t SubrunSeed(uint64_t seed, int index) {
  return SeedFor(seed, 7000 + static_cast<uint64_t>(index));
}

std::shared_ptr<RawVideoValue> MakeIngestClip(int frames, uint64_t seed) {
  return MakeClip(176, 144, 10, frames, seed);
}

std::vector<Title> BuildCatalog(const WorkloadSpec& spec, uint64_t seed,
                                CodecProbe* probe) {
  std::vector<Title> titles(static_cast<size_t>(spec.titles));
  // Encoding is data-parallel across titles; the shared pool's lanes are
  // the only threads besides the engine thread.
  const int lanes = WorkPool::Shared().worker_count() + 1;
  WorkPool::Shared().ParallelFor(lanes, spec.titles, [&](int64_t t) {
    Title& title = titles[static_cast<size_t>(t)];
    title.blob = spec.name + "/title" + std::to_string(t);
    const uint64_t content_seed =
        SeedFor(seed, 1000 + static_cast<uint64_t>(t));
    if (spec.media == MediaKind::kAudio) {
      const int64_t samples = spec.title_ms * 8;  // 8 kHz voice
      auto raw = synthetic::GenerateAudio(MediaDataType::VoiceAudio(), samples,
                                          synthetic::AudioPattern::kSpeechLike,
                                          content_seed)
                     .value();
      auto codec = TracedAudioCodec(std::make_shared<AdpcmCodec>(), probe);
      auto value =
          EncodedAudioValue::Create(codec, codec->Encode(*raw).value()).value();
      title.elements = (value->SampleCount() + AudioSource::kBlockFrames - 1) /
                       AudioSource::kBlockFrames;
      title.block_bytes = value->StoredBytes() / title.elements;
      title.value = value;
    } else {
      const int64_t frames = spec.title_ms * spec.fps / 1000;
      auto raw = MakeClip(spec.width, spec.height, spec.fps, frames,
                          content_seed);
      std::shared_ptr<const VideoCodec> inner;
      VideoCodecParams params;
      params.quality = spec.quality;
      if (spec.media == MediaKind::kScalableVideo) {
        inner = std::make_shared<ScalableCodec>();
        params.layer_count = ScalableCodec::kMaxLayers;
      } else {
        inner = std::make_shared<InterCodec>();
      }
      auto codec = TracedVideoCodec(inner, probe);
      auto video =
          EncodedVideoValue::Create(codec, inner->Encode(*raw, params).value())
              .value();
      title.elements = video->FrameCount();
      int64_t offset = 0;
      for (int64_t f = 0; f < title.elements; ++f) {
        title.frame_offsets.push_back(offset);
        offset += video->StoredFrameBytes(f);
      }
      title.video = video;
      title.value = video;
    }
    title.bytes = value_serializer::Serialize(*title.value).value();
  });
  return titles;
}

std::vector<Replica> BuildReplicas(const WorkloadSpec& spec, uint64_t seed,
                                   const std::vector<Title>& titles) {
  std::vector<Replica> replicas;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "node" + std::to_string(i);
    Replica r;
    r.device =
        std::make_shared<BlockDevice>(name + ".disk",
                                      DeviceProfile::MagneticDisk());
    r.cache = std::make_shared<BufferCache>(spec.cache_bytes);
    auto store = std::make_shared<MediaStore>(r.device, r.cache);
    AVDB_MUST(store->Mount());
    for (const Title& title : titles) {
      AVDB_MUST(store->Put(title.blob, title.bytes));
    }
    if (spec.prewarm_cache) {
      for (const Title& title : titles) {
        AVDB_MUST(store->ReadRange(title.blob, 0,
                                   static_cast<int64_t>(title.bytes.size())));
      }
    }
    if (spec.device_fault_rate > 0) {
      r.device_faults = std::make_unique<FaultInjector>(
          DeviceFaults(spec.device_fault_rate),
          SeedFor(seed, 10 + static_cast<uint64_t>(i)));
      r.device->set_fault_injector(r.device_faults.get());
    }
    r.node = std::make_shared<ServerNode>(name, store);
    if (i == spec.slow_node) {
      FaultSpec slow;
      slow.node_slow_rate = 1.0;
      slow.node_slow_factor = spec.slow_factor;
      r.node_faults = std::make_unique<FaultInjector>(
          slow, SeedFor(seed, 20 + static_cast<uint64_t>(i)));
      r.node->set_fault_injector(r.node_faults.get());
    }
    r.link =
        std::make_shared<Channel>(name + ".atm", Channel::Profile::Atm155());
    replicas.push_back(std::move(r));
  }
  return replicas;
}

}  // namespace avdb::e2e
