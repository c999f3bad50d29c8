#include <gtest/gtest.h>

#include "base/rng.h"
#include "codec/inter_codec.h"
#include "codec/encoded_value.h"
#include "codec/registry.h"
#include "media/synthetic.h"
#include "storage/block_device.h"
#include "storage/buffer_cache.h"
#include "storage/device_manager.h"
#include "storage/extent_allocator.h"
#include "storage/media_store.h"
#include "storage/value_serializer.h"

namespace avdb {
namespace {

Buffer MakeBlob(size_t size, uint8_t seed = 7) {
  Buffer b;
  for (size_t i = 0; i < size; ++i) {
    b.AppendU8(static_cast<uint8_t>(seed + i * 31));
  }
  return b;
}

// ------------------------------------------------------------ BlockDevice --

TEST(BlockDeviceTest, SequentialReadAvoidsSeeks) {
  BlockDevice dev("d0", DeviceProfile::MagneticDisk());
  Buffer data = MakeBlob(1024 * 1024);
  ASSERT_TRUE(dev.Write(0, 0, data).ok());
  Buffer out;
  // First read seeks (head is at end of write), second continues.
  ASSERT_TRUE(dev.Read(0, 0, 512 * 1024, &out).ok());
  auto second = dev.Read(0, 512 * 1024, 512 * 1024, &out);
  ASSERT_TRUE(second.ok());
  // Pure transfer time: 512KB at 3.5MB/s ≈ 146ms, no seek component.
  EXPECT_EQ(second.value(),
            dev.SequentialReadTime(512 * 1024));
  // Only the first read repositioned (the write started at the initial
  // head position and the second read continued the first).
  EXPECT_EQ(dev.stats().seeks, 1);
}

TEST(BlockDeviceTest, InterleavedStreamsPaySeeks) {
  // The §3.3 placement argument: alternating between two far-apart extents
  // costs a seek per read.
  BlockDevice dev("d0", DeviceProfile::MagneticDisk());
  Buffer a = MakeBlob(256 * 1024, 1);
  Buffer b = MakeBlob(256 * 1024, 2);
  ASSERT_TRUE(dev.Write(0, 0, a).ok());
  ASSERT_TRUE(dev.Write(0, 500 * 1024 * 1024, b).ok());
  dev.ResetStats();
  Buffer out;
  WorldTime interleaved;
  for (int i = 0; i < 8; ++i) {
    interleaved += dev.Read(0, i % 2 == 0 ? 0 : 500 * 1024 * 1024, 32 * 1024,
                            &out)
                       .value();
  }
  EXPECT_EQ(dev.stats().seeks, 8);  // every read repositions
  // Same volume sequentially is much cheaper.
  WorldTime sequential = dev.SequentialReadTime(8 * 32 * 1024);
  EXPECT_GT(interleaved.ToSecondsF(), 2 * sequential.ToSecondsF());
}

TEST(BlockDeviceTest, JukeboxDiscExchangeIsExpensive) {
  BlockDevice dev("juke", DeviceProfile::VideodiscJukebox());
  Buffer data = MakeBlob(64 * 1024);
  ASSERT_TRUE(dev.Write(0, 0, data).ok());
  ASSERT_TRUE(dev.Write(5, 0, data).ok());
  Buffer out;
  dev.ResetStats();
  auto same_disc = dev.Read(5, 0, 64 * 1024, &out);
  ASSERT_TRUE(same_disc.ok());
  auto other_disc = dev.Read(0, 0, 64 * 1024, &out);
  ASSERT_TRUE(other_disc.ok());
  EXPECT_GT(other_disc.value().ToSecondsF(),
            same_disc.value().ToSecondsF() + 5.0);  // 6 s exchange
  EXPECT_EQ(dev.stats().disc_exchanges, 1);
}

TEST(BlockDeviceTest, BoundsAreEnforced) {
  BlockDevice dev("r0", DeviceProfile::RamDisk());
  Buffer out;
  EXPECT_FALSE(dev.Write(1, 0, MakeBlob(16)).ok());   // bad disc
  EXPECT_FALSE(dev.Write(0, dev.capacity(), MakeBlob(16)).ok());
  EXPECT_FALSE(dev.Read(0, 0, 16, &out).ok());        // nothing written
  ASSERT_TRUE(dev.Write(0, 0, MakeBlob(16)).ok());
  EXPECT_FALSE(dev.Read(0, 8, 16, &out).ok());        // past written extent
}

TEST(BlockDeviceTest, CapacityReservation) {
  BlockDevice dev("r0", DeviceProfile::RamDisk());
  EXPECT_TRUE(dev.ReserveCapacity(dev.capacity()).ok());
  EXPECT_EQ(dev.ReserveCapacity(1).code(), StatusCode::kResourceExhausted);
  dev.ReleaseCapacity(1024);
  EXPECT_TRUE(dev.ReserveCapacity(1024).ok());
}

TEST(BlockDeviceTest, ReadBackIsBitExact) {
  BlockDevice dev("d0", DeviceProfile::MagneticDisk());
  Buffer data = MakeBlob(100000);
  ASSERT_TRUE(dev.Write(0, 12345, data).ok());
  Buffer out;
  ASSERT_TRUE(dev.Read(0, 12345, 100000, &out).ok());
  EXPECT_EQ(out, data);
}

// -------------------------------------------------------- ExtentAllocator --

TEST(ExtentAllocatorTest, ContiguousFirstFit) {
  ExtentAllocator alloc(0, 1000);
  auto a = alloc.AllocateContiguous(300);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().offset, 0);
  auto b = alloc.AllocateContiguous(300);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().offset, 300);
  EXPECT_EQ(alloc.FreeBytes(), 400);
  EXPECT_FALSE(alloc.AllocateContiguous(500).ok());
}

TEST(ExtentAllocatorTest, FreeCoalesces) {
  ExtentAllocator alloc(0, 1000);
  auto a = alloc.AllocateContiguous(200).value();
  auto b = alloc.AllocateContiguous(200).value();
  auto c = alloc.AllocateContiguous(200).value();
  ASSERT_TRUE(alloc.Free(a).ok());
  ASSERT_TRUE(alloc.Free(c).ok());
  // [0,200) and [400,1000) — c's extent coalesced with the tail hole.
  EXPECT_EQ(alloc.FragmentCount(), 2u);
  ASSERT_TRUE(alloc.Free(b).ok());
  EXPECT_EQ(alloc.FragmentCount(), 1u);  // fully coalesced
  EXPECT_EQ(alloc.FreeBytes(), 1000);
  EXPECT_EQ(alloc.LargestFreeExtent(), 1000);
}

TEST(ExtentAllocatorTest, DoubleFreeRejected) {
  ExtentAllocator alloc(0, 1000);
  auto a = alloc.AllocateContiguous(100).value();
  ASSERT_TRUE(alloc.Free(a).ok());
  EXPECT_EQ(alloc.Free(a).code(), StatusCode::kInvalidArgument);
}

TEST(ExtentAllocatorTest, FragmentedAllocationSpansHoles) {
  ExtentAllocator alloc(0, 1000);
  auto a = alloc.AllocateContiguous(400).value();
  auto b = alloc.AllocateContiguous(200).value();
  auto c = alloc.AllocateContiguous(400).value();
  (void)b;
  ASSERT_TRUE(alloc.Free(a).ok());
  ASSERT_TRUE(alloc.Free(c).ok());
  // 800 free but largest hole is 400: must span two extents.
  auto multi = alloc.Allocate(600);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi.value().size(), 2u);
  int64_t total = 0;
  for (const auto& e : multi.value()) total += e.length;
  EXPECT_EQ(total, 600);
}

TEST(ExtentAllocatorTest, ExhaustionFails) {
  ExtentAllocator alloc(0, 100);
  EXPECT_TRUE(alloc.Allocate(100).ok());
  EXPECT_EQ(alloc.Allocate(1).status().code(),
            StatusCode::kResourceExhausted);
}

class AllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorPropertyTest, RandomAllocFreeConservesBytes) {
  Rng rng(GetParam());
  ExtentAllocator alloc(0, 100000);
  std::vector<std::vector<Extent>> live;
  int64_t live_bytes = 0;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const int64_t want = rng.NextInRange(1, 2000);
      auto got = alloc.Allocate(want);
      if (got.ok()) {
        live.push_back(got.value());
        live_bytes += want;
      }
    } else {
      const size_t pick = rng.NextBelow(live.size());
      for (const auto& e : live[pick]) {
        ASSERT_TRUE(alloc.Free(e).ok());
        live_bytes -= e.length;
      }
      live.erase(live.begin() + static_cast<int64_t>(pick));
    }
    ASSERT_EQ(alloc.FreeBytes(), 100000 - live_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------------ BufferCache --

TEST(BufferCacheTest, HitAndMiss) {
  BufferCache cache(1024);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", MakeBlob(100));
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("a")->size(), 100u);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(BufferCacheTest, LruEviction) {
  BufferCache cache(250);
  cache.Put("a", MakeBlob(100));
  cache.Put("b", MakeBlob(100));
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh a
  cache.Put("c", MakeBlob(100));       // evicts b (LRU)
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(BufferCacheTest, OversizePageNotCached) {
  BufferCache cache(100);
  cache.Put("big", MakeBlob(200));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST(BufferCacheTest, ReplaceUpdatesBudget) {
  BufferCache cache(300);
  cache.Put("a", MakeBlob(100));
  cache.Put("a", MakeBlob(200));
  EXPECT_EQ(cache.used_bytes(), 200);
  EXPECT_EQ(cache.Get("a")->size(), 200u);
}

// ------------------------------------------------------------- MediaStore --

TEST(MediaStoreTest, PutGetRoundTrip) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(dev, nullptr);
  Buffer blob = MakeBlob(200000);
  auto put = store.Put("clip", blob);
  ASSERT_TRUE(put.ok());
  EXPECT_GT(put.value().ToSecondsF(), 0.0);
  auto get = store.Get("clip");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value().data, blob);
  EXPECT_EQ(store.Put("clip", blob).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(MediaStoreTest, RangeReads) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(dev, nullptr);
  Buffer blob = MakeBlob(100000);
  ASSERT_TRUE(store.Put("clip", blob).ok());
  auto range = store.ReadRange("clip", 5000, 1000);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range.value().data.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(range.value().data[i], blob[5000 + i]);
  }
  EXPECT_FALSE(store.ReadRange("clip", 99999, 10).ok());
  EXPECT_FALSE(store.ReadRange("missing", 0, 10).ok());
}

TEST(MediaStoreTest, SpentDeadlineBudgetFailsFastWithoutDeviceWork) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  FaultInjector injector(FaultSpec::TransientReads(0.5), 3);
  dev->set_fault_injector(&injector);
  MediaStore store(dev, nullptr);
  ASSERT_TRUE(store.Put("clip", MakeBlob(100000)).ok());
  const int64_t reads_before = dev->stats().reads;

  // Budget already spent on arrival: the read is refused before any
  // directory/device work — no device read, no rng draw, so the fault
  // trace of everything after it is unperturbed.
  auto spent = store.ReadRange("clip", 0, 4096, DeadlineBudget::FromNs(0));
  EXPECT_EQ(spent.status().code(), StatusCode::kDeadlineExceeded);
  auto negative =
      store.ReadRange("clip", 0, 4096, DeadlineBudget::FromNs(-5));
  EXPECT_EQ(negative.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(store.stats().deadline_fast_fails, 2);
  EXPECT_EQ(store.stats().deadline_timeouts, 0);
  EXPECT_EQ(dev->stats().reads, reads_before);
  EXPECT_EQ(injector.stats().decisions, 0);
}

TEST(MediaStoreTest, TinyBudgetTimesOutMidReadAndCounts) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(dev, nullptr);
  ASSERT_TRUE(store.Put("clip", MakeBlob(100000)).ok());
  // 1 ns is alive on arrival but no magnetic-disk read fits it: the read
  // runs, overruns, and reports the overrun instead of delivering bytes
  // nobody can present on time.
  auto read = store.ReadRange("clip", 0, 65536, DeadlineBudget::FromNs(1));
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(store.stats().deadline_timeouts, 1);
  EXPECT_EQ(store.stats().deadline_fast_fails, 0);
}

TEST(MediaStoreTest, UnlimitedBudgetMatchesPlainRead) {
  auto dev1 =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  auto dev2 =
      std::make_shared<BlockDevice>("d1", DeviceProfile::MagneticDisk());
  MediaStore plain(dev1, nullptr);
  MediaStore budgeted(dev2, nullptr);
  Buffer blob = MakeBlob(100000);
  ASSERT_TRUE(plain.Put("clip", blob).ok());
  ASSERT_TRUE(budgeted.Put("clip", blob).ok());
  auto want = plain.ReadRange("clip", 5000, 4096);
  auto got =
      budgeted.ReadRange("clip", 5000, 4096, DeadlineBudget::Unlimited());
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().duration, want.value().duration);
  EXPECT_EQ(got.value().data, want.value().data);
  EXPECT_EQ(budgeted.stats().deadline_fast_fails, 0);
  EXPECT_EQ(budgeted.stats().deadline_timeouts, 0);
}

TEST(MediaStoreTest, CacheEliminatesRepeatDeviceTime) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  auto cache = std::make_shared<BufferCache>(8 * 1024 * 1024);
  MediaStore store(dev, cache);
  ASSERT_TRUE(store.Put("clip", MakeBlob(200000)).ok());
  auto cold = store.ReadRange("clip", 0, 65536);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold.value().duration.ToSecondsF(), 0.0);
  auto warm = store.ReadRange("clip", 0, 65536);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().duration, WorldTime());
  EXPECT_EQ(warm.value().data, cold.value().data);
}

TEST(MediaStoreTest, DeleteFreesSpaceAndCache) {
  auto dev = std::make_shared<BlockDevice>("r0", DeviceProfile::RamDisk());
  auto cache = std::make_shared<BufferCache>(1024 * 1024);
  MediaStore store(dev, cache);
  ASSERT_TRUE(store.Put("clip", MakeBlob(50000)).ok());
  ASSERT_TRUE(store.ReadRange("clip", 0, 1000).ok());
  const int64_t used_before = dev->used_bytes();
  ASSERT_TRUE(store.Delete("clip").ok());
  EXPECT_LT(dev->used_bytes(), used_before);
  EXPECT_FALSE(store.Contains("clip"));
  EXPECT_EQ(store.Delete("clip").code(), StatusCode::kNotFound);
  // Same name can be stored again after deletion.
  EXPECT_TRUE(store.Put("clip", MakeBlob(50000, 9)).ok());
}

TEST(MediaStoreTest, ListAndTotals) {
  auto dev = std::make_shared<BlockDevice>("r0", DeviceProfile::RamDisk());
  MediaStore store(dev, nullptr);
  ASSERT_TRUE(store.Put("a", MakeBlob(100)).ok());
  ASSERT_TRUE(store.Put("b", MakeBlob(200)).ok());
  EXPECT_EQ(store.List().size(), 2u);
  EXPECT_EQ(store.TotalStoredBytes(), 300);
}

// ---------------------------------------------------------- DeviceManager --

TEST(DeviceManagerTest, PlacementIsClientVisible) {
  DeviceManager dm;
  ASSERT_TRUE(dm.CreateDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  ASSERT_TRUE(dm.CreateDevice("disk1", DeviceProfile::MagneticDisk()).ok());
  ASSERT_TRUE(dm.Store("clip", MakeBlob(10000), "disk0").ok());
  EXPECT_EQ(dm.WhereIs("clip").value(), "disk0");
  EXPECT_EQ(dm.WhereIs("nope").status().code(), StatusCode::kNotFound);
  // Global namespace: same blob name on another device is rejected.
  EXPECT_EQ(dm.Store("clip", MakeBlob(1), "disk1").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(DeviceManagerTest, CopyPaysReadPlusWrite) {
  DeviceManager dm(0);  // no cache: full device costs visible
  ASSERT_TRUE(dm.CreateDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  ASSERT_TRUE(dm.CreateDevice("disk1", DeviceProfile::MagneticDisk()).ok());
  Buffer blob = MakeBlob(2 * 1024 * 1024);
  ASSERT_TRUE(dm.Store("clip", blob, "disk0").ok());
  auto copy = dm.Copy("clip", "disk1", "clip-copy");
  ASSERT_TRUE(copy.ok());
  // 2MB read at 3.5MB/s + 2MB write: over a second of modeled time — the
  // "destroys interactivity" cost from §3.3.
  EXPECT_GT(copy.value().ToSecondsF(), 1.0);
  auto fetched = dm.Fetch("clip-copy");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().data, blob);
}

TEST(DeviceManagerTest, DuplicateDeviceRejected) {
  DeviceManager dm;
  ASSERT_TRUE(dm.CreateDevice("d", DeviceProfile::RamDisk()).ok());
  EXPECT_EQ(dm.CreateDevice("d", DeviceProfile::RamDisk()).status().code(),
            StatusCode::kAlreadyExists);
}

// -------------------------------------------------------- ValueSerializer --

TEST(ValueSerializerTest, RawVideoRoundTrip) {
  auto video = synthetic::GenerateVideo(
                   MediaDataType::RawVideo(24, 16, 24, Rational(30000, 1001)),
                   7, synthetic::VideoPattern::kMovingBox)
                   .value();
  auto blob = value_serializer::Serialize(*video);
  ASSERT_TRUE(blob.ok());
  auto restored = value_serializer::DeserializeVideo(blob.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->FrameCount(), 7);
  EXPECT_EQ(restored.value()->type(), video->type());
  for (int64_t i = 0; i < 7; ++i) {
    EXPECT_EQ(restored.value()->Frame(i).value(), video->Frame(i).value());
  }
}

TEST(ValueSerializerTest, EncodedVideoRoundTrip) {
  auto raw = synthetic::GenerateVideo(
                 MediaDataType::RawVideo(32, 32, 8, Rational(10)), 6,
                 synthetic::VideoPattern::kMovingBox)
                 .value();
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kInter).value();
  VideoCodecParams params;
  params.gop_size = 3;
  auto value =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  auto blob = value_serializer::Serialize(*value);
  ASSERT_TRUE(blob.ok());
  auto restored = value_serializer::DeserializeVideo(blob.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->type().family(), EncodingFamily::kInter);
  // Decodes identically to the original encoded value.
  EXPECT_EQ(restored.value()->Frame(5).value(), value->Frame(5).value());
}

TEST(ValueSerializerTest, RawAudioRoundTrip) {
  auto audio = synthetic::GenerateAudio(MediaDataType::CdAudio(), 500,
                                        synthetic::AudioPattern::kChirp)
                   .value();
  auto blob = value_serializer::Serialize(*audio);
  ASSERT_TRUE(blob.ok());
  auto restored = value_serializer::DeserializeAudio(blob.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->SampleCount(), 500);
  EXPECT_EQ(restored.value()->Samples(0, 500).value(),
            audio->Samples(0, 500).value());
}

TEST(ValueSerializerTest, TextRoundTrip) {
  auto text = synthetic::GenerateSubtitles(MediaDataType::Text(Rational(30)),
                                           4, 30, 10, "Cap")
                  .value();
  auto blob = value_serializer::Serialize(*text);
  ASSERT_TRUE(blob.ok());
  auto restored = value_serializer::DeserializeText(blob.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->spans().size(), 4u);
  EXPECT_EQ(restored.value()->TextAtElement(0), "Cap 1");
}

TEST(ValueSerializerTest, KindMismatchDetected) {
  auto audio = synthetic::GenerateAudio(MediaDataType::VoiceAudio(), 100,
                                        synthetic::AudioPattern::kTone)
                   .value();
  auto blob = value_serializer::Serialize(*audio).value();
  EXPECT_FALSE(value_serializer::DeserializeVideo(blob).ok());
  EXPECT_FALSE(value_serializer::DeserializeText(blob).ok());
  EXPECT_TRUE(value_serializer::DeserializeAudio(blob).ok());
}

TEST(ValueSerializerTest, CorruptBlobFailsCleanly) {
  EXPECT_FALSE(value_serializer::Deserialize(Buffer()).ok());
  Buffer junk;
  junk.AppendU8(99);
  EXPECT_FALSE(value_serializer::Deserialize(junk).ok());
}

// --------------------------------------------- Stored media through store --

TEST(StoredMediaTest, FullPipelineStoreFetchDecode) {
  // Encode -> serialize -> store on simulated disk -> fetch -> decode.
  DeviceManager dm;
  ASSERT_TRUE(dm.CreateDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  auto raw = synthetic::GenerateVideo(
                 MediaDataType::RawVideo(32, 24, 8, Rational(15)), 10,
                 synthetic::VideoPattern::kMovingGradient)
                 .value();
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  auto value =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, {}).value())
          .value();
  auto blob = value_serializer::Serialize(*value).value();
  ASSERT_TRUE(dm.Store("newscast", blob, "disk0").ok());

  auto fetched = dm.Fetch("newscast");
  ASSERT_TRUE(fetched.ok());
  auto restored = value_serializer::DeserializeVideo(fetched.value().data);
  ASSERT_TRUE(restored.ok());
  auto frame = restored.value()->Frame(9);
  ASSERT_TRUE(frame.ok());
  const double mae = frame.value().MeanAbsoluteError(raw->Frame(9).value()).value();
  EXPECT_LT(mae, 10.0);
}

// ---------------------------------------------------- write-path faults --

TEST(BlockDeviceWriteFaultTest, TornWritePersistsStrictPrefix) {
  BlockDevice dev("d0", DeviceProfile::RamDisk());
  FaultSpec spec;
  spec.torn_write_rate = 1.0;
  FaultInjector injector(spec, /*seed=*/42);
  dev.set_fault_injector(&injector);
  Buffer data(1000, 0xAB);
  auto write = dev.Write(0, 0, data);
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dev.stats().injected_write_faults, 1);
  EXPECT_EQ(dev.stats().writes, 0);  // a failed write is not a write
  dev.set_fault_injector(nullptr);
  // The whole target range is addressable; a strict prefix holds the data,
  // the tail stayed zero.
  Buffer out;
  ASSERT_TRUE(dev.Read(0, 0, 1000, &out).ok());
  size_t persisted = 0;
  while (persisted < out.size() && out[persisted] == 0xAB) ++persisted;
  EXPECT_LT(persisted, 1000u);
  for (size_t i = persisted; i < out.size(); ++i) EXPECT_EQ(out[i], 0);
}

TEST(BlockDeviceWriteFaultTest, DroppedWriteReportsSuccessPersistsNothing) {
  BlockDevice dev("d0", DeviceProfile::RamDisk());
  FaultSpec spec;
  spec.dropped_write_rate = 1.0;
  FaultInjector injector(spec, /*seed=*/7);
  dev.set_fault_injector(&injector);
  Buffer data(512, 0xCD);
  ASSERT_TRUE(dev.Write(0, 0, data).ok());  // the lie: success reported
  EXPECT_EQ(injector.stats().dropped_writes, 1);
  dev.set_fault_injector(nullptr);
  Buffer out;
  ASSERT_TRUE(dev.Read(0, 0, 512, &out).ok());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 0);
}

TEST(BlockDeviceWriteFaultTest, BitFlipCorruptsExactlyOneBit) {
  BlockDevice dev("d0", DeviceProfile::RamDisk());
  FaultSpec spec;
  spec.write_bit_flip_rate = 1.0;
  FaultInjector injector(spec, /*seed=*/11);
  dev.set_fault_injector(&injector);
  Buffer data = MakeBlob(4096);
  ASSERT_TRUE(dev.Write(0, 0, data).ok());
  EXPECT_EQ(injector.stats().write_bit_flips, 1);
  dev.set_fault_injector(nullptr);
  Buffer out;
  ASSERT_TRUE(dev.Read(0, 0, 4096, &out).ok());
  int flipped_bits = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    uint8_t diff = out[i] ^ data[i];
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
}

TEST(BlockDeviceWriteFaultTest, PowerCutFreezesDeviceUntilDetach) {
  BlockDevice dev("d0", DeviceProfile::RamDisk());
  FaultInjector injector(FaultSpec::PowerCut(2), /*seed=*/3);
  dev.set_fault_injector(&injector);
  Buffer a(256, 0x11), b(256, 0x22);
  ASSERT_TRUE(dev.Write(0, 0, a).ok());
  auto cut = dev.Write(0, 256, b);
  ASSERT_FALSE(cut.ok());
  EXPECT_NE(cut.status().message().find("power-cut"), std::string::npos);
  EXPECT_TRUE(injector.powered_off());
  // Frozen: neither reads nor writes go through.
  Buffer out;
  EXPECT_FALSE(dev.Read(0, 0, 256, &out).ok());
  EXPECT_FALSE(dev.Write(0, 512, a).ok());
  // Reboot (detach): pre-cut data intact, the cut write is a strict prefix.
  dev.set_fault_injector(nullptr);
  ASSERT_TRUE(dev.Read(0, 0, 256, &out).ok());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 0x11);
  ASSERT_TRUE(dev.Read(0, 256, 256, &out).ok());
  size_t persisted = 0;
  while (persisted < out.size() && out[persisted] == 0x22) ++persisted;
  EXPECT_LT(persisted, 256u);
}

TEST(BlockDeviceWriteFaultTest, WriteFaultsAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    BlockDevice dev("d0", DeviceProfile::RamDisk());
    FaultSpec spec;
    spec.torn_write_rate = 0.3;
    spec.dropped_write_rate = 0.2;
    FaultInjector injector(spec, seed);
    dev.set_fault_injector(&injector);
    std::vector<bool> outcomes;
    Buffer data(128, 0x5A);
    for (int i = 0; i < 50; ++i) {
      outcomes.push_back(dev.Write(0, i * 128, data).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// ------------------------------------------------------------ durability --

TEST(MediaStoreDurabilityTest, UnmountedStoreIsByteIdentical) {
  // Acceptance pin: without Mount() the on-device byte stream is exactly
  // the pre-journal format — blob bytes at the allocated extent, nothing
  // else on the media.
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  MediaStore store(dev, nullptr);
  EXPECT_FALSE(store.mounted());
  EXPECT_EQ(store.metadata_bytes(), 0);
  Buffer data = MakeBlob(100 * 1024);
  ASSERT_TRUE(store.Put("clip", data).ok());
  auto blob = store.Lookup("clip").value();
  ASSERT_EQ(blob->extents.size(), 1u);
  EXPECT_EQ(blob->extents[0].offset, 0);  // first fit from byte zero
  Buffer raw;
  ASSERT_TRUE(dev->Read(0, 0, 100 * 1024, &raw).ok());
  EXPECT_EQ(raw, data);
}

TEST(MediaStoreDurabilityTest, MountFormatsFreshDeviceOnce) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  MediaStore store(dev, nullptr);
  auto mounted = store.Mount();
  ASSERT_TRUE(mounted.ok());
  EXPECT_TRUE(mounted.value().formatted);
  EXPECT_TRUE(store.mounted());
  EXPECT_EQ(store.metadata_bytes(),
            1024 + MediaStore::kDefaultJournalBytes);
  EXPECT_EQ(store.FreeDataBytes(),
            dev->capacity() - store.metadata_bytes());
  // A second Mount over the same device recovers instead of reformatting.
  MediaStore again(dev, nullptr);
  auto remounted = again.Mount();
  ASSERT_TRUE(remounted.ok());
  EXPECT_FALSE(remounted.value().formatted);
}

TEST(MediaStoreDurabilityTest, DirectorySurvivesRemount) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  Buffer a = MakeBlob(90 * 1024, 1), b = MakeBlob(40 * 1024, 2);
  {
    MediaStore store(dev, nullptr);
    ASSERT_TRUE(store.Mount().ok());
    ASSERT_TRUE(store.Put("a", a).ok());
    ASSERT_TRUE(store.Put("b", b).ok());
    ASSERT_TRUE(store.Put("gone", MakeBlob(8 * 1024, 3)).ok());
    ASSERT_TRUE(store.Delete("gone").ok());
  }  // the store object dies; only the device bytes remain
  MediaStore revived(dev, nullptr);
  auto report = revived.Mount();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().blobs, 2);
  EXPECT_EQ(revived.List(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(revived.Get("a").value().data, a);
  EXPECT_EQ(revived.Get("b").value().data, b);
  EXPECT_EQ(revived.TotalStoredBytes(), 130 * 1024);
  EXPECT_EQ(revived.FreeDataBytes(),
            dev->capacity() - revived.metadata_bytes() - 130 * 1024);
}

TEST(MediaStoreDurabilityTest, FailedPutIsAtomic) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  MediaStore store(dev, nullptr);
  ASSERT_TRUE(store.Mount().ok());
  ASSERT_TRUE(store.Put("keeper", MakeBlob(32 * 1024)).ok());
  const int64_t free_before = store.FreeDataBytes();
  const int64_t used_before = dev->used_bytes();

  FaultSpec spec;
  spec.torn_write_rate = 1.0;  // every write tears: the Put cannot land
  FaultInjector injector(spec, /*seed=*/5);
  dev->set_fault_injector(&injector);
  auto put = store.Put("doomed", MakeBlob(64 * 1024));
  dev->set_fault_injector(nullptr);
  ASSERT_FALSE(put.ok());

  // No trace: name absent, extents back on the free list, capacity ledger
  // unchanged — and the space is actually reusable.
  EXPECT_FALSE(store.Contains("doomed"));
  EXPECT_EQ(store.TotalStoredBytes(), 32 * 1024);
  EXPECT_EQ(store.FreeDataBytes(), free_before);
  EXPECT_EQ(dev->used_bytes(), used_before);
  ASSERT_TRUE(store.Put("doomed", MakeBlob(64 * 1024)).ok());
}

TEST(MediaStoreDurabilityTest, PowerCutMidPutRollsBackOnRecovery) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  Buffer safe = MakeBlob(48 * 1024, 9);
  {
    MediaStore store(dev, nullptr);
    ASSERT_TRUE(store.Mount().ok());
    ASSERT_TRUE(store.Put("safe", safe).ok());
    // Cut during the doomed Put's data write (write 1 = journal begin,
    // write 2 = blob data).
    FaultInjector injector(FaultSpec::PowerCut(2), /*seed=*/1);
    dev->set_fault_injector(&injector);
    EXPECT_FALSE(store.Put("doomed", MakeBlob(30 * 1024)).ok());
    dev->set_fault_injector(nullptr);  // reboot
  }
  MediaStore revived(dev, nullptr);
  auto report = revived.Mount();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().puts_rolled_back, 1);
  EXPECT_EQ(report.value().blobs, 1);
  EXPECT_FALSE(revived.Contains("doomed"));
  EXPECT_EQ(revived.Get("safe").value().data, safe);
  EXPECT_EQ(revived.FreeDataBytes(),
            dev->capacity() - revived.metadata_bytes() - 48 * 1024);
}

TEST(MediaStoreDurabilityTest, RecoverIsIdempotent) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  MediaStore store(dev, nullptr);
  ASSERT_TRUE(store.Mount().ok());
  ASSERT_TRUE(store.Put("x", MakeBlob(20 * 1024)).ok());
  auto first = store.Recover();
  ASSERT_TRUE(first.ok());
  auto second = store.Recover();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().blobs, second.value().blobs);
  EXPECT_EQ(first.value().records_replayed, second.value().records_replayed);
  EXPECT_EQ(first.value().journal_bytes_scanned,
            second.value().journal_bytes_scanned);
  EXPECT_TRUE(store.Contains("x"));
}

TEST(MediaStoreDurabilityTest, JournalCompactionKeepsDirectory) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  Buffer keep = MakeBlob(12 * 1024, 4);
  {
    MediaStore store(dev, nullptr);
    // Smallest journal: 8 KiB halves fill after a few dozen records.
    ASSERT_TRUE(store.Mount(/*journal_bytes=*/16 * 1024).ok());
    ASSERT_TRUE(store.Put("keep", keep).ok());
    for (int i = 0; i < 200; ++i) {
      const std::string name = "churn" + std::to_string(i);
      ASSERT_TRUE(store.Put(name, MakeBlob(2048)).ok());
      ASSERT_TRUE(store.Delete(name).ok());
    }
    EXPECT_GT(store.stats().journal_compactions, 0);
  }
  MediaStore revived(dev, nullptr);
  auto report = revived.Mount();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().blobs, 1);
  EXPECT_EQ(revived.Get("keep").value().data, keep);
}

// -------------------------------------------------- page checksums/scrub --

TEST(MediaStoreChecksumTest, CorruptPageFailsOnlyTouchingReads) {
  // Satellite regression: corrupt one on-device page; a read touching it
  // fails DataLoss, a read of other pages still succeeds.
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  auto cache = std::make_shared<BufferCache>(8 * 1024 * 1024);
  MediaStore store(dev, cache);
  const int64_t kPage = MediaStore::kCachePageBytes;
  Buffer data = MakeBlob(static_cast<size_t>(3 * kPage));
  ASSERT_TRUE(store.Put("clip", data).ok());
  // Flip a byte inside page 1 directly on the media.
  auto blob = store.Lookup("clip").value();
  ASSERT_EQ(blob->extents.size(), 1u);
  Buffer junk(1, 0xFF);
  ASSERT_TRUE(dev->Write(0, blob->extents[0].offset + kPage + 10, junk).ok());

  auto bad = store.ReadRange("clip", kPage + 5, 100);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.status().message().find("page 1"), std::string::npos);
  auto good = store.ReadRange("clip", 0, kPage);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().data.size(), static_cast<size_t>(kPage));
  // Get reads every page, so it must fail too.
  EXPECT_EQ(store.Get("clip").status().code(), StatusCode::kDataLoss);
  EXPECT_GT(store.stats().page_mismatches, 0);
}

TEST(MediaStoreChecksumTest, CachedPageHitIsVerified) {
  // The cache hit path re-verifies: a corrupted *cached* copy must not be
  // served even though the media is clean.
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  auto cache = std::make_shared<BufferCache>(8 * 1024 * 1024);
  MediaStore store(dev, cache);
  const int64_t kPage = MediaStore::kCachePageBytes;
  Buffer data = MakeBlob(static_cast<size_t>(2 * kPage));
  ASSERT_TRUE(store.Put("clip", data).ok());
  ASSERT_TRUE(store.ReadRange("clip", 0, kPage).ok());  // warm page 0
  // Poison the cached copy under the store's key.
  Buffer poisoned;
  poisoned.AppendBytes(data.data(), static_cast<size_t>(kPage));
  poisoned[123] ^= 0x01;
  cache->Put("d0/clip#0", poisoned);
  auto hit = store.ReadRange("clip", 0, kPage);
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.status().code(), StatusCode::kDataLoss);
}

TEST(MediaStoreChecksumTest, StoreFilledPageHitsAreNotRehashed) {
  // A page is hashed once, when it comes off the device; hits on the page
  // the store itself filled are served without hashing it again.
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  auto cache = std::make_shared<BufferCache>(8 * 1024 * 1024);
  MediaStore store(dev, cache);
  const int64_t kPage = MediaStore::kCachePageBytes;
  Buffer data = MakeBlob(static_cast<size_t>(2 * kPage));
  ASSERT_TRUE(store.Put("clip", data).ok());
  auto fill = store.ReadRange("clip", kPage + 100, 512);
  ASSERT_TRUE(fill.ok());
  EXPECT_EQ(store.stats().pages_verified, 1);
  const int64_t hits_before = cache->stats().hits;
  constexpr int kHits = 5;
  for (int i = 0; i < kHits; ++i) {
    auto hit = store.ReadRange("clip", kPage + 100, 512);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit.value().data, fill.value().data);
    EXPECT_EQ(hit.value().duration, WorldTime());
  }
  EXPECT_EQ(cache->stats().hits - hits_before, kHits);
  EXPECT_EQ(store.stats().pages_verified, 1);
}

TEST(MediaStoreScrubTest, ScrubQuarantinesCorruptBlobAndSurvivesRemount) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  Buffer good_data = MakeBlob(80 * 1024, 1);
  {
    MediaStore store(dev, nullptr);
    ASSERT_TRUE(store.Mount().ok());
    ASSERT_TRUE(store.Put("good", good_data).ok());
    ASSERT_TRUE(store.Put("bad", MakeBlob(80 * 1024, 2)).ok());
    auto blob = store.Lookup("bad").value();
    Buffer junk(1, 0xFF);
    ASSERT_TRUE(dev->Write(0, blob->extents[0].offset + 5, junk).ok());

    auto scrub = store.Scrub();
    ASSERT_TRUE(scrub.ok());
    EXPECT_EQ(scrub.value().blobs_scanned, 2);
    ASSERT_EQ(scrub.value().corrupt_pages.size(), 1u);
    EXPECT_EQ(scrub.value().corrupt_pages[0].first, "bad");
    EXPECT_EQ(scrub.value().corrupt_pages[0].second, 0);
    EXPECT_EQ(scrub.value().quarantined,
              std::vector<std::string>{"bad"});
    // Quarantined: fails fast; the store stays serviceable.
    EXPECT_EQ(store.Get("bad").status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(store.ReadRange("bad", 0, 64).status().code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(store.Get("good").value().data, good_data);
    // A second scrub skips the quarantined blob.
    auto again = store.Scrub();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().blobs_scanned, 1);
    EXPECT_TRUE(again.value().corrupt_pages.empty());
  }
  // The quarantine record was journaled: it survives a remount.
  MediaStore revived(dev, nullptr);
  ASSERT_TRUE(revived.Mount().ok());
  EXPECT_TRUE(revived.Lookup("bad").value()->quarantined);
  EXPECT_FALSE(revived.Lookup("good").value()->quarantined);
  EXPECT_EQ(revived.Get("good").value().data, good_data);
}

TEST(DeviceManagerTest, MountStoreFormatsAndRecovers) {
  auto dev = std::make_shared<BlockDevice>("disk0", DeviceProfile::RamDisk());
  {
    DeviceManager dm;
    ASSERT_TRUE(dm.AddDevice(dev).ok());
    auto mounted = dm.GetStore("disk0").value()->Mount();
    ASSERT_TRUE(mounted.ok());
    EXPECT_TRUE(mounted.value().formatted);
    ASSERT_TRUE(dm.Store("clip", MakeBlob(16 * 1024), "disk0").ok());
    EXPECT_FALSE(dm.GetStore("nope").ok());
  }
  DeviceManager reopened;
  ASSERT_TRUE(reopened.AddDevice(dev).ok());
  auto recovered = reopened.GetStore("disk0").value()->Mount();
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().formatted);
  EXPECT_EQ(recovered.value().blobs, 1);
  EXPECT_TRUE(reopened.Fetch("clip").ok());
}

TEST(ValueSerializerTest, StoreThenLoadAfterRemount) {
  auto dev = std::make_shared<BlockDevice>("d0", DeviceProfile::RamDisk());
  auto raw = synthetic::GenerateVideo(
                 MediaDataType::RawVideo(16, 12, 8, Rational(15)), 4,
                 synthetic::VideoPattern::kMovingGradient)
                 .value();
  {
    MediaStore store(dev, nullptr);
    ASSERT_TRUE(store.Mount().ok());
    ASSERT_TRUE(value_serializer::Store(store, "clip", *raw).ok());
  }
  MediaStore revived(dev, nullptr);
  ASSERT_TRUE(revived.Mount().ok());
  auto loaded = value_serializer::Load(revived, "clip");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().value->kind(), MediaKind::kVideo);
}

}  // namespace
}  // namespace avdb
