// Heap allocations per served element. This binary replaces the global
// operator new with a counting one, then plays one cached session end to
// end: StreamRouter -> ServerNode -> MediaStore + BufferCache -> source ->
// sink, over an ATM link as in the e2e deployment. After a warm-up (cache
// filled, pools primed), it counts every heap allocation the process makes
// while the sink presents a fixed number of elements, and pins the count
// per presented element.
//
// A pin is a ceiling: a change that adds an allocation to the element path
// fails here, and a change that removes one lowers the pin to its new
// count. The goal is a pin of 0 for both sessions.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "cluster/node.h"
#include "cluster/stream_router.h"
#include "codec/audio_codec.h"
#include "codec/encoded_value.h"
#include "codec/inter_codec.h"
#include "codec/scalable_codec.h"
#include "media/synthetic.h"
#include "net/channel.h"
#include "sched/event_engine.h"
#include "storage/block_device.h"
#include "storage/buffer_cache.h"
#include "storage/media_store.h"
#include "storage/value_serializer.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// Out of line, so GCC does not inline the free() into a caller whose
// pointer it saw come from operator new and flag the pair as mismatched.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace avdb {
namespace {

/// One replica over a MagneticDisk with a cache that holds the whole
/// title, which is stored serialized and read once to fill the cache.
struct CachedDeployment {
  explicit CachedDeployment(const MediaValue& title)
      : device(std::make_shared<BlockDevice>("node0.disk",
                                             DeviceProfile::MagneticDisk())),
        cache(std::make_shared<BufferCache>(16 * 1024 * 1024)),
        store(std::make_shared<MediaStore>(device, cache)),
        replicas(std::make_shared<ReplicaSet>(BreakerPolicy{})),
        router("client0", RouterPolicy{}, [this] { return engine.now_ns(); },
               replicas) {
    EXPECT_TRUE(store->Mount().ok());
    const Buffer bytes = value_serializer::Serialize(title).value();
    EXPECT_TRUE(store->Put(kBlob, bytes).ok());
    EXPECT_TRUE(
        store->ReadRange(kBlob, 0, static_cast<int64_t>(bytes.size())).ok());
    cache->ResetStats();
    replicas->Add(std::make_shared<ServerNode>("node0", store),
                  std::make_shared<Channel>("node0.atm",
                                            Channel::Profile::Atm155()));
  }

  SourceOptions Source() {
    SourceOptions options;
    options.blob_name = kBlob;
    options.fetcher = [this](const std::string& blob, int64_t offset,
                             int64_t length, int64_t budget_ns) {
      return router.Fetch(blob, offset, length, budget_ns);
    };
    return options;
  }

  static constexpr const char* kBlob = "catalog/title0";
  EventEngine engine;
  std::shared_ptr<BlockDevice> device;
  std::shared_ptr<BufferCache> cache;
  std::shared_ptr<MediaStore> store;
  std::shared_ptr<ReplicaSet> replicas;
  StreamRouter router;
};

/// Heap allocations per element the sink presents, counted from its
/// `warmup`-th presented element to its `warmup + measured`-th.
double AllocationsPerElement(EventEngine* engine, const PresentingSink& sink,
                             int64_t warmup, int64_t measured) {
  while (sink.stats().elements_presented < warmup && engine->RunOne()) {
  }
  EXPECT_EQ(sink.stats().elements_presented, warmup);
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  while (sink.stats().elements_presented < warmup + measured &&
         engine->RunOne()) {
  }
  const int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(sink.stats().elements_presented, warmup + measured);
  engine->RunUntilIdle();
  const double per_element = static_cast<double>(allocations) / measured;
  std::printf("%lld allocations over %lld elements: %.2f per element\n",
              static_cast<long long>(allocations),
              static_cast<long long>(measured), per_element);
  return per_element;
}

TEST(AllocationPinTest, CachedAdpcmVoiceSession) {
  auto raw = synthetic::GenerateAudio(MediaDataType::VoiceAudio(),
                                      64 * AudioSource::kBlockFrames,
                                      synthetic::AudioPattern::kSpeechLike, 7)
                 .value();
  auto codec = std::make_shared<AdpcmCodec>();
  auto title =
      EncodedAudioValue::Create(codec, codec->Encode(*raw).value()).value();
  CachedDeployment deployment(*title);
  ActivityEnv env{&deployment.engine, nullptr};
  ActivityGraph graph(env);
  auto source = AudioSource::Create("src0", ActivityLocation::kDatabase, env,
                                    deployment.Source());
  ASSERT_TRUE(source->Bind(title, AudioSource::kPortOut).ok());
  auto sink = AudioSink::Create("sink0", ActivityLocation::kClient, env,
                                AudioQuality::kVoice);
  ASSERT_TRUE(graph.Add(source).ok());
  ASSERT_TRUE(graph.Add(sink).ok());
  ASSERT_TRUE(graph
                  .Connect(source.get(), AudioSource::kPortOut, sink.get(),
                           AudioSink::kPortIn)
                  .ok());
  ASSERT_TRUE(graph.StartAll().ok());
  const double per_element =
      AllocationsPerElement(&deployment.engine, *sink, 8, 48);
  EXPECT_LE(per_element, 2.00);
  EXPECT_EQ(deployment.router.stats().fetches, 64);
  EXPECT_EQ(deployment.cache->stats().misses, 0);
}

/// Plays a cached 48-frame title of `width`x`height` 8-bit frames through
/// a VideoSource into a VideoWindow and returns the allocations per frame
/// the window presents, from its 12th to its 36th.
double CachedVideoAllocationsPerElement(
    const std::shared_ptr<const VideoCodec>& codec,
    const VideoCodecParams& params, int width, int height) {
  const auto type = MediaDataType::RawVideo(width, height, 8, Rational(10));
  auto raw = synthetic::GenerateVideo(type, 48,
                                      synthetic::VideoPattern::kMovingBox)
                 .value();
  auto title =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  CachedDeployment deployment(*title);
  ActivityEnv env{&deployment.engine, nullptr};
  ActivityGraph graph(env);
  auto source = VideoSource::Create("src0", ActivityLocation::kDatabase, env,
                                    deployment.Source());
  EXPECT_TRUE(source->Bind(title, VideoSource::kPortOut).ok());
  auto window = VideoWindow::Create("sink0", ActivityLocation::kClient, env,
                                    VideoQuality(width, height, 8,
                                                 Rational(10)));
  EXPECT_TRUE(graph.Add(source).ok());
  EXPECT_TRUE(graph.Add(window).ok());
  EXPECT_TRUE(graph
                  .Connect(source.get(), VideoSource::kPortOut, window.get(),
                           VideoWindow::kPortIn)
                  .ok());
  EXPECT_TRUE(graph.StartAll().ok());
  const double per_element =
      AllocationsPerElement(&deployment.engine, *window, 12, 24);
  EXPECT_EQ(deployment.router.stats().fetches, 48);
  EXPECT_EQ(deployment.cache->stats().misses, 0);
  return per_element;
}

TEST(AllocationPinTest, CachedInterVideoSession) {
  // Two whole GOPs after the first, so I- and P-frames keep their share.
  VideoCodecParams params;
  params.gop_size = 12;
  EXPECT_LE(CachedVideoAllocationsPerElement(std::make_shared<InterCodec>(),
                                             params, 176, 144),
            2.00);
}

TEST(AllocationPinTest, CachedScalableVideoSession) {
  // The e2e vod_cold titles' shape: 64x48 at q95 in three layers.
  VideoCodecParams params;
  params.quality = 95;
  params.layer_count = ScalableCodec::kMaxLayers;
  EXPECT_LE(CachedVideoAllocationsPerElement(
                std::make_shared<ScalableCodec>(), params, 64, 48),
            2.00);
}

}  // namespace
}  // namespace avdb
