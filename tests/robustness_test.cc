// Failure-injection and property tests: stored or transmitted bytes may be
// corrupted arbitrarily; nothing in the decode/deserialize path may crash,
// hang, or read out of bounds — every failure must surface as a Status
// (typically DataLoss). Also cross-module invariants under random
// workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "base/fault_injector.h"
#include "base/retry.h"
#include "base/rng.h"
#include "codec/audio_codec.h"
#include "codec/delta_codec.h"
#include "codec/encoded_value.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "codec/varint.h"
#include "db/database.h"
#include "media/synthetic.h"
#include "sched/degradation.h"
#include "sched/event_engine.h"
#include "storage/value_serializer.h"

namespace avdb {
namespace {

using synthetic::AudioPattern;
using synthetic::GenerateAudio;
using synthetic::GenerateVideo;
using synthetic::VideoPattern;

/// Applies `flips` random byte corruptions.
Buffer Corrupt(Buffer buffer, Rng* rng, int flips) {
  for (int i = 0; i < flips && !buffer.empty(); ++i) {
    const size_t at = rng->NextBelow(buffer.size());
    buffer[at] = static_cast<uint8_t>(rng->NextU64());
  }
  return buffer;
}

/// Truncates to a random prefix.
Buffer Truncate(const Buffer& buffer, Rng* rng) {
  Buffer out;
  if (buffer.empty()) return out;
  const size_t keep = rng->NextBelow(buffer.size());
  out.AppendBytes(buffer.data(), keep);
  return out;
}

class CorruptionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionTest, CorruptEncodedVideoNeverCrashes) {
  Rng rng(GetParam());
  const auto type = MediaDataType::RawVideo(32, 24, 8, Rational(10));
  auto raw = GenerateVideo(type, 6, VideoPattern::kMovingBox).value();
  for (EncodingFamily family :
       {EncodingFamily::kIntra, EncodingFamily::kInter,
        EncodingFamily::kDelta, EncodingFamily::kScalable}) {
    auto codec = CodecRegistry::Default().VideoCodecFor(family).value();
    VideoCodecParams params;
    params.gop_size = 3;
    const Buffer good = codec->Encode(*raw, params).value().Serialize();
    for (int trial = 0; trial < 20; ++trial) {
      Buffer bad = rng.NextBool() ? Corrupt(good, &rng, 1 + static_cast<int>(rng.NextBelow(8)))
                                  : Truncate(good, &rng);
      auto stream = EncodedVideo::Deserialize(bad);
      if (!stream.ok()) continue;  // rejected at the container level: fine
      auto session = codec->NewDecoder(stream.value());
      if (!session.ok()) continue;
      // Decoding may succeed (benign corruption) or fail with a Status —
      // either way, no crash and bounded output.
      for (size_t i = 0; i < stream.value().frames.size(); ++i) {
        auto frame = session.value()->DecodeFrame(static_cast<int64_t>(i));
        if (frame.ok()) {
          EXPECT_EQ(frame.value().SizeBytes(), 32u * 24u);
        }
      }
    }
  }
}

TEST_P(CorruptionTest, CorruptEncodedAudioNeverCrashes) {
  Rng rng(GetParam() * 31);
  auto raw = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                           AudioPattern::kSpeechLike)
                 .value();
  for (EncodingFamily family :
       {EncodingFamily::kMulaw, EncodingFamily::kAdpcm}) {
    auto codec = CodecRegistry::Default().AudioCodecFor(family).value();
    const Buffer good = codec->Encode(*raw).value().Serialize();
    for (int trial = 0; trial < 25; ++trial) {
      Buffer bad = rng.NextBool() ? Corrupt(good, &rng, 1 + static_cast<int>(rng.NextBelow(8)))
                                  : Truncate(good, &rng);
      auto stream = EncodedAudio::Deserialize(bad);
      if (!stream.ok()) continue;
      for (size_t c = 0; c < stream.value().chunks.size(); ++c) {
        AVDB_IGNORE_STATUS(
            codec->DecodeChunk(stream.value(), static_cast<int64_t>(c))
                .status(),
            "fuzz: decode of corrupted input may fail; only crashes matter");
      }
    }
  }
}

TEST_P(CorruptionTest, CorruptSerializedValueNeverCrashes) {
  Rng rng(GetParam() * 77);
  auto video = GenerateVideo(MediaDataType::RawVideo(16, 16, 8, Rational(10)),
                             4, VideoPattern::kNoise)
                   .value();
  auto audio = GenerateAudio(MediaDataType::CdAudio(), 500,
                             AudioPattern::kChirp)
                   .value();
  auto subs = synthetic::GenerateSubtitles(MediaDataType::Text(Rational(10)),
                                           2, 3, 1, "x")
                  .value();
  for (const MediaValue* value :
       std::initializer_list<const MediaValue*>{video.get(), audio.get(),
                                                subs.get()}) {
    const Buffer good = value_serializer::Serialize(*value).value();
    for (int trial = 0; trial < 30; ++trial) {
      Buffer bad = rng.NextBool() ? Corrupt(good, &rng, 1 + static_cast<int>(rng.NextBelow(6)))
                                  : Truncate(good, &rng);
      auto restored = value_serializer::Deserialize(bad);
      if (restored.ok()) {
        // Benign corruption: the restored value must still be usable.
        EXPECT_GE(restored.value()->ElementCount(), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(CorruptionTest, StoreDetectsBitrotViaChecksum) {
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  Buffer blob;
  for (int i = 0; i < 10000; ++i) blob.AppendU8(static_cast<uint8_t>(i));
  ASSERT_TRUE(store.Put("clip", blob).ok());
  // Flip a stored byte behind the store's back.
  Buffer flipped;
  flipped.AppendU8(0xFF);
  ASSERT_TRUE(device->Write(0, 123, flipped).ok());
  auto read = store.Get("clip");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

// Hand-built streams whose varints decode to extreme values. Random byte
// flips almost never form a five-byte varint above 2^31, so CorruptionTest
// cannot reach these; each was a crash or undefined behaviour before its
// decoder range-checked the value.

// An intra frame of one 8-bit plane whose entropy-coded bits are `bits`.
Buffer OnePlaneIntraFrame(VarintWriter bits) {
  const Buffer plane = bits.Finish();
  Buffer frame;
  frame.AppendU32(static_cast<uint32_t>(plane.size()));
  frame.AppendBuffer(plane);
  return frame;
}

TEST(CorruptStreamTest, AcRunPastBlockEndIsDataLoss) {
  VarintWriter bits;
  bits.WriteSignedVarint(0);     // DC delta
  bits.WriteVarint(0xFFFFFFF0);  // a run that wraps to -16 as an int
  bits.WriteSignedVarint(1);
  bits.WriteVarint(0x3F);  // end of block
  auto frame = IntraCodec::DecodeFrame(OnePlaneIntraFrame(std::move(bits)), 8,
                                       8, 8, 75);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStreamTest, DcPredictorOverflowIsDataLoss) {
  VarintWriter bits;
  for (int block = 0; block < 2; ++block) {
    bits.WriteSignedVarint(INT32_MAX);  // the second sum leaves int32
    bits.WriteVarint(0x3F);
  }
  auto frame = IntraCodec::DecodeFrame(OnePlaneIntraFrame(std::move(bits)),
                                       16, 8, 8, 75);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStreamTest, MotionVectorOutOfRangeIsDataLoss) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto raw = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 2;
  auto video = InterCodec().Encode(*raw, params).value();
  ASSERT_FALSE(video.frames[1].is_intra);
  VarintWriter bits;
  bits.WriteSignedVarint(INT32_MAX);  // the one macroblock's dx and dy
  bits.WriteSignedVarint(INT32_MAX);
  for (int block = 0; block < 4; ++block) {  // an all-zero residual
    bits.WriteSignedVarint(0);
    bits.WriteVarint(0x3F);
  }
  video.frames[1].data = bits.Finish();
  auto session = InterCodec().NewDecoder(video).value();
  ASSERT_TRUE(session->DecodeFrame(0).ok());
  auto frame = session->DecodeFrame(1);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptStreamTest, DeltaLevelOutOfRangeIsDataLoss) {
  EncodedVideo video;
  video.raw_type = MediaDataType::RawVideo(4, 4, 8, Rational(10));
  video.family = EncodingFamily::kDelta;
  video.params.quality = 80;
  ASSERT_EQ(DeltaCodec::StepForQuality(80), 4);
  VarintWriter bits;
  bits.WriteVarint(0);               // run
  bits.WriteSignedVarint(1 << 30);   // level * step overflows int
  bits.WriteVarint(0);
  bits.WriteSignedVarint(0);         // end of frame
  EncodedFrame ef;
  ef.data = bits.Finish();
  video.frames.push_back(std::move(ef));
  auto frame = DeltaCodec().NewDecoder(video).value()->DecodeFrame(0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

// A stored frame's layer list need not match params.layer_count: byte
// counts cover the layers it has, and decoding the missing ones fails.
TEST(CorruptStreamTest, MissingEnhancementLayersAreDataLoss) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto raw = GenerateVideo(type, 1, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto video = ScalableCodec().Encode(*raw, params).value();
  video.frames[0].layers = {};
  EXPECT_EQ(ScalableCodec::BytesPerFrameAtLayers(video, 3).value(),
            static_cast<int64_t>(video.frames[0].data.size()));
  auto frame = ScalableCodec().NewDecoder(video).value()->DecodeFrame(0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

// A stored stream's layer count comes from its header. One outside
// [1, kMaxLayers] puts the decoded layers off the pyramid: a 64x48 stream
// claiming four layers, with a fourth per frame, had its base layer read
// as 8x6. Every way a session opens refuses it before decoding.
TEST(CorruptStreamTest, StoredScalableLayerCountOutOfRangeIsDataLoss) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto raw = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.quality = 95;
  params.layer_count = 3;
  const EncodedVideo good = ScalableCodec().Encode(*raw, params).value();
  for (int stored : {4, 0, -1, 255}) {
    EncodedVideo bad = good;
    bad.params.layer_count = stored;
    if (stored == 4) {
      for (EncodedFrame& frame : bad.frames) {
        frame.layers.push_back(frame.layers.back());
      }
    }
    auto stream = EncodedVideo::Deserialize(bad.Serialize());
    ASSERT_TRUE(stream.ok()) << stored;
    auto session = ScalableCodec().NewDecoder(stream.value());
    ASSERT_FALSE(session.ok()) << stored;
    EXPECT_EQ(session.status().code(), StatusCode::kDataLoss) << stored;
    for (int layers = 1; layers <= ScalableCodec::kMaxLayers; ++layers) {
      auto restricted =
          ScalableCodec().NewDecoderWithLayers(stream.value(), layers);
      ASSERT_FALSE(restricted.ok()) << stored << " at " << layers;
      EXPECT_EQ(restricted.status().code(), StatusCode::kDataLoss)
          << stored << " at " << layers;
    }
    if (stored < 2) continue;  // no view of two layers to open
    auto value = EncodedVideoValue::Create(std::make_shared<ScalableCodec>(),
                                           stream.value())
                     .value();
    auto view = ScalableVideoView::Create(value, 2).value();
    auto frame = view->Frame(0);
    ASSERT_FALSE(frame.ok()) << stored;
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << stored;
  }
}

// A stored encoded-audio blob of a 3000-frame voice clip whose header
// `corrupt` edited before it was written. EncodedAudioValue::Create refuses
// such a header, so the blob is written the way value_serializer writes
// one: the encoded-audio kind byte, then the stream.
Buffer AudioBlobWith(EncodingFamily family,
                     const std::function<void(EncodedAudio*)>& corrupt) {
  auto raw = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                           AudioPattern::kSpeechLike)
                 .value();
  auto codec = CodecRegistry::Default().AudioCodecFor(family).value();
  EncodedAudio encoded = codec->Encode(*raw).value();
  corrupt(&encoded);
  Buffer blob;
  blob.AppendU8(4);  // value_serializer's kind byte for encoded audio
  blob.AppendBuffer(encoded.Serialize());
  return blob;
}

// What a player does with a stored blob: deserialize it, then read its
// first samples. A header the reader would divide by, or loop on, must be
// refused before the read.
Status ReadStoredAudio(const Buffer& blob) {
  AVDB_ASSIGN_OR_RETURN(AudioValuePtr audio,
                        value_serializer::DeserializeAudio(blob));
  return audio->Samples(0, std::min<int64_t>(16, audio->SampleCount()))
      .status();
}

TEST(CorruptStreamTest, AudioHeaderWithZeroChunkFramesIsDataLoss) {
  for (EncodingFamily family :
       {EncodingFamily::kAdpcm, EncodingFamily::kMulaw}) {
    const Buffer blob =
        AudioBlobWith(family, [](EncodedAudio* a) { a->chunk_frames = 0; });
    EXPECT_EQ(ReadStoredAudio(blob).code(), StatusCode::kDataLoss)
        << EncodingFamilyName(family);
  }
}

TEST(CorruptStreamTest, AudioHeaderWithZeroChannelsIsDataLoss) {
  for (EncodingFamily family :
       {EncodingFamily::kAdpcm, EncodingFamily::kMulaw}) {
    const Buffer blob = AudioBlobWith(family, [](EncodedAudio* a) {
      a->raw_type = MediaDataType::RawAudio(0, Rational(8000));
    });
    EXPECT_EQ(ReadStoredAudio(blob).code(), StatusCode::kDataLoss)
        << EncodingFamilyName(family);
  }
}

TEST(CorruptStreamTest, AudioHeaderShapeMustMatchItsChunks) {
  const std::function<void(EncodedAudio*)> kShapes[] = {
      [](EncodedAudio* a) { a->chunk_frames = -5; },
      [](EncodedAudio* a) { a->total_frames = -7; },
      [](EncodedAudio* a) { a->total_frames = int64_t{1} << 40; },
      [](EncodedAudio* a) { a->total_frames -= a->chunk_frames; },
      [](EncodedAudio* a) { a->chunks.pop_back(); },
      [](EncodedAudio* a) { a->chunk_frames = 512; }};
  for (EncodingFamily family :
       {EncodingFamily::kAdpcm, EncodingFamily::kMulaw}) {
    for (size_t i = 0; i < std::size(kShapes); ++i) {
      const Buffer blob = AudioBlobWith(family, kShapes[i]);
      auto audio = value_serializer::DeserializeAudio(blob);
      ASSERT_FALSE(audio.ok()) << EncodingFamilyName(family) << " shape " << i;
      EXPECT_EQ(audio.status().code(), StatusCode::kDataLoss)
          << EncodingFamilyName(family) << " shape " << i;
    }
  }
}

// ----------------------------------------------------- cross-module invariants --

TEST(InvariantTest, AdmissionLedgerBalancesUnderRandomOps) {
  Rng rng(99);
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("a", 1000).ok());
  ASSERT_TRUE(ac.RegisterPool("b", 500).ok());
  std::vector<AdmissionTicket> live;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      auto ticket = ac.Admit(
          {{"a", static_cast<double>(rng.NextInRange(1, 300))},
           {"b", static_cast<double>(rng.NextInRange(0, 150))}});
      if (ticket.ok()) live.push_back(std::move(ticket).value());
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ac.Release(&live[pick]);
      live.erase(live.begin() + static_cast<int64_t>(pick));
    }
    // Invariants: never oversubscribed, never negative.
    EXPECT_GE(ac.Available("a").value(), -1e-6);
    EXPECT_GE(ac.Available("b").value(), -1e-6);
    EXPECT_LE(ac.Available("a").value(), 1000 + 1e-6);
    EXPECT_LE(ac.Available("b").value(), 500 + 1e-6);
  }
  for (auto& ticket : live) ac.Release(&ticket);
  EXPECT_DOUBLE_EQ(ac.Available("a").value(), 1000);
  EXPECT_DOUBLE_EQ(ac.Available("b").value(), 500);
}

TEST(InvariantTest, LockTableConsistentUnderRandomOps) {
  Rng rng(123);
  LockManager locks;
  const std::vector<std::string> owners = {"s1", "s2", "s3"};
  for (int step = 0; step < 1000; ++step) {
    const Oid oid(1 + rng.NextBelow(5));
    const std::string& owner = owners[rng.NextBelow(owners.size())];
    switch (rng.NextBelow(3)) {
      case 0:
        AVDB_IGNORE_STATUS(locks.Acquire(oid, LockMode::kShared, owner),
                           "fuzz: conflicts are an expected outcome");
        break;
      case 1:
        AVDB_IGNORE_STATUS(locks.Acquire(oid, LockMode::kExclusive, owner),
                           "fuzz: conflicts are an expected outcome");
        break;
      case 2:
        locks.Release(oid, owner);
        break;
    }
    // Invariant: an exclusive holder excludes everyone else.
    for (uint64_t o = 1; o <= 5; ++o) {
      const Oid check(o);
      int exclusive_holders = 0;
      for (const auto& candidate : owners) {
        if (locks.Holds(check, LockMode::kExclusive, candidate)) {
          ++exclusive_holders;
        }
      }
      ASSERT_LE(exclusive_holders, 1);
      if (exclusive_holders == 1) {
        ASSERT_EQ(locks.HolderCount(check), 1u);
      }
    }
  }
}

TEST(InvariantTest, EventEngineTimeNeverRegresses) {
  Rng rng(7);
  EventEngine engine;
  int64_t last_seen = -1;
  int executed = 0;
  std::function<void()> observe = [&] {
    EXPECT_GE(engine.now_ns(), last_seen);
    last_seen = engine.now_ns();
    ++executed;
    if (executed < 300) {
      // Schedule into the past and the future; past clamps to now.
      engine.ScheduleAt(engine.now_ns() + rng.NextInRange(-500, 500),
                        observe);
    }
  };
  engine.ScheduleAt(int64_t{0}, observe);
  engine.RunUntilIdle();
  EXPECT_EQ(executed, 300);
}

// ------------------------------------------------- fault injection model --

TEST(FaultInjectorTest, TraceIsAPureFunctionOfSeedAndSpec) {
  const FaultSpec spec = FaultSpec::TransientReads(0.2);
  FaultInjector a(spec, 99);
  FaultInjector b(spec, 99);
  for (int i = 0; i < 500; ++i) {
    const FaultDecision da = a.OnDeviceRead();
    const FaultDecision db = b.OnDeviceRead();
    ASSERT_EQ(da.fail, db.fail);
    ASSERT_EQ(da.extra_latency_ns, db.extra_latency_ns);
    ASSERT_STREQ(da.kind, db.kind);
    ASSERT_EQ(a.OnTransfer(), b.OnTransfer());
  }
  EXPECT_EQ(a.stats().read_errors, b.stats().read_errors);
  EXPECT_EQ(a.stats().latency_spikes, b.stats().latency_spikes);
  EXPECT_GT(a.stats().read_errors, 0);
  // A different seed produces a different schedule.
  FaultInjector c(spec, 100);
  bool any_difference = false;
  FaultInjector a2(spec, 99);
  for (int i = 0; i < 500 && !any_difference; ++i) {
    any_difference = a2.OnDeviceRead().fail != c.OnDeviceRead().fail;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjectorTest, DisabledSpecNeverFires) {
  EXPECT_FALSE(FaultSpec::None().Enabled());
  EXPECT_TRUE(FaultSpec::TransientReads(0.01).Enabled());
  FaultInjector injector(FaultSpec::None(), 1);
  for (int i = 0; i < 1000; ++i) {
    const FaultDecision d = injector.OnDeviceRead();
    ASSERT_FALSE(d.fail);
    ASSERT_EQ(d.extra_latency_ns, 0);
    ASSERT_EQ(injector.OnTransfer(), 1.0);
  }
  EXPECT_EQ(injector.stats().read_errors, 0);
  EXPECT_EQ(injector.stats().extra_latency_ns, 0);
}

// ------------------------------------------------------- retry discipline --

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  RetryPolicy policy;  // 2 ms initial, x2, 50 ms cap
  EXPECT_EQ(policy.BackoffNs(1), 2 * 1000 * 1000);
  EXPECT_EQ(policy.BackoffNs(2), 4 * 1000 * 1000);
  EXPECT_EQ(policy.BackoffNs(3), 8 * 1000 * 1000);
  EXPECT_EQ(policy.BackoffNs(10), RetryPolicy::kMaxBackoffNs);
}

TEST(RetryPolicyTest, ZeroJitterSeedKeepsDeterministicSchedule) {
  // jitter_seed = 0 must be byte-identical to the pre-jitter exponential
  // schedule — the default every existing trace depends on.
  RetryPolicy plain;
  RetryPolicy zeroed;
  zeroed.jitter_seed = 0;
  for (int r = 1; r <= 12; ++r) {
    EXPECT_EQ(plain.BackoffNs(r), zeroed.BackoffNs(r)) << "retry " << r;
  }
}

TEST(RetryPolicyTest, DecorrelatedJitterIsBoundedAndPure) {
  RetryPolicy policy;
  policy.jitter_seed = 42;
  for (int r = 1; r <= 12; ++r) {
    const int64_t backoff = policy.BackoffNs(r);
    // Every jittered wait stays within [initial, cap].
    EXPECT_GE(backoff, policy.initial_backoff_ns) << "retry " << r;
    EXPECT_LE(backoff, RetryPolicy::kMaxBackoffNs) << "retry " << r;
    // Pure function of (seed, retry): probing any retry number — in any
    // order, any number of times — never perturbs the schedule. This is
    // what lets RetryState peek at BackoffNs(r + 1) for its deadline check
    // without changing what retry r + 1 will actually wait.
    EXPECT_EQ(backoff, policy.BackoffNs(r)) << "retry " << r;
  }
  const int64_t third = policy.BackoffNs(3);
  (void)policy.BackoffNs(7);
  (void)policy.BackoffNs(1);
  EXPECT_EQ(policy.BackoffNs(3), third);
}

TEST(RetryPolicyTest, JitterSeedsDesynchronizeSessions) {
  // The point of decorrelated jitter: two sessions with different seeds
  // must not back off in lockstep. With 8 retries each, at least one wait
  // must differ (astronomically likely; deterministic given fixed seeds).
  RetryPolicy a;
  RetryPolicy b;
  a.jitter_seed = 1001;
  b.jitter_seed = 2002;
  bool diverged = false;
  for (int r = 1; r <= 8; ++r) {
    if (a.BackoffNs(r) != b.BackoffNs(r)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RetryStateTest, JitteredStateStillBoundsDeadline) {
  RetryPolicy policy;
  policy.jitter_seed = 7;
  policy.max_attempts = 100;
  policy.deadline_ns = 10 * 1000 * 1000;
  RetryState state(policy);
  const Status transient = Status::Unavailable("flaky");
  Status verdict = Status::OK();
  while (verdict.ok()) verdict = state.BeforeRetry(transient);
  EXPECT_EQ(verdict.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(state.charged_ns(), policy.deadline_ns);
}

TEST(RetryStateTest, RetriesTransientsUntilAttemptsExhausted) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryState state(policy);
  const Status transient = Status::Unavailable("flaky read");
  EXPECT_TRUE(state.BeforeRetry(transient).ok());   // attempt 2 allowed
  EXPECT_TRUE(state.BeforeRetry(transient).ok());   // attempt 3 allowed
  const Status verdict = state.BeforeRetry(transient);
  EXPECT_EQ(verdict.code(), StatusCode::kUnavailable);  // budget spent
  EXPECT_EQ(state.retries(), 2);
  EXPECT_EQ(state.charged_ns(), 2 * 1000 * 1000 + 4 * 1000 * 1000);
}

TEST(RetryStateTest, NonRetryableFailsImmediately) {
  RetryState state(RetryPolicy{});
  const Status verdict = state.BeforeRetry(Status::NotFound("gone"));
  EXPECT_EQ(verdict.code(), StatusCode::kNotFound);
  EXPECT_EQ(state.charged_ns(), 0);
}

TEST(RetryStateTest, DeadlineBoundsTotalCharge) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.deadline_ns = 5 * 1000 * 1000;  // 2 ms + 4 ms would exceed 5 ms
  RetryState state(policy);
  const Status transient = Status::Unavailable("flaky");
  EXPECT_TRUE(state.BeforeRetry(transient).ok());  // charges 2 ms
  const Status verdict = state.BeforeRetry(transient);
  EXPECT_EQ(verdict.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(state.charged_ns(), policy.deadline_ns);
}

TEST(FaultToleranceTest, StoreAbsorbsTransientReadFaults) {
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  FaultInjector injector(FaultSpec::TransientReads(0.4), 5);
  device->set_fault_injector(&injector);
  MediaStore store(device, nullptr);
  Buffer blob;
  for (int i = 0; i < 200000; ++i) blob.AppendU8(static_cast<uint8_t>(i));
  ASSERT_TRUE(store.Put("clip", blob).ok());
  // At a 40% transient rate a multi-extent read is all but guaranteed to
  // hit faults; the retry policy must absorb them invisibly.
  auto read = store.Get("clip");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().data, blob);
  EXPECT_GT(read.value().retries, 0);
  EXPECT_GT(store.stats().retries, 0);
  EXPECT_GT(store.stats().backoff_ns, 0);
  EXPECT_GT(device->stats().injected_faults, 0);
  // The backoff was charged to the modeled duration, not swallowed.
  const WorldTime clean = device->SequentialReadTime(blob.size());
  EXPECT_GT(read.value().duration.ToSecondsF(), clean.ToSecondsF());
}

TEST(FaultToleranceTest, StoreSurfacesPersistentFaults) {
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  FaultSpec always;
  always.read_error_rate = 1.0;
  FaultInjector injector(always, 1);
  MediaStore store(device, nullptr);
  Buffer blob;
  for (int i = 0; i < 1000; ++i) blob.AppendU8(1);
  ASSERT_TRUE(store.Put("clip", blob).ok());
  device->set_fault_injector(&injector);
  auto read = store.Get("clip");
  ASSERT_FALSE(read.ok());
  // Every attempt failed: the terminal status is the transient error (or
  // the deadline, whichever tripped first), and the exhaustion is counted.
  EXPECT_TRUE(read.status().code() == StatusCode::kUnavailable ||
              read.status().code() == StatusCode::kDeadlineExceeded);
  EXPECT_GE(store.stats().exhausted, 1);
}

// ------------------------------------- degrade-don't-stall, end to end --

/// One faulty streaming run: a 3-layer scalable clip streamed from a
/// MediaStore through a degradation-enabled VideoSource into a VideoWindow,
/// with every activity event appended to a textual log. Used both for the
/// determinism property (equal seeds => byte-identical logs) and the
/// acceptance gates.
struct FaultyStreamRun {
  std::vector<std::string> events;
  int64_t presented = 0;
  int64_t dropped = 0;
  int64_t retries = 0;
  int64_t aborts = 0;
  bool completed = false;
  double device_busy_s = 0;
};

FaultyStreamRun RunFaultyStream(bool attach_injector, const FaultSpec& spec,
                                uint64_t seed) {
  constexpr int kFrames = 80;
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto raw = GenerateVideo(type, kFrames, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto codec = std::make_shared<ScalableCodec>();
  auto clip =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();

  FaultyStreamRun run;
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  ServiceQueue queue("d0");
  EXPECT_TRUE(store.Put("clip", value_serializer::Serialize(*clip).value())
                  .ok());
  FaultInjector injector(spec, seed);
  if (attach_injector) device->set_fault_injector(&injector);

  DegradationController degrade;
  SourceOptions source_options;
  source_options.fetcher = FetchFrom(&store);
  source_options.blob_name = "clip";
  source_options.device_queue = &queue;
  source_options.degrade = &degrade;
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env,
                                    source_options);
  EXPECT_TRUE(source->Bind(clip, VideoSource::kPortOut).ok());
  SinkOptions sink_options;
  sink_options.degrade = &degrade;
  auto window = VideoWindow::Create("win", ActivityLocation::kClient, env,
                                    VideoQuality(64, 48, 8, Rational(10)),
                                    sink_options);

  auto log = [&run, &engine](const char* who) {
    return [&run, &engine, who](const ActivityEvent& event) {
      run.events.push_back(who + (":" + event.kind) + "#" +
                           std::to_string(event.element_index) + "@" +
                           std::to_string(engine.now_ns()) +
                           (event.detail.empty() ? "" : " " + event.detail));
    };
  };
  for (const char* kind :
       {VideoSource::kEachFrame, VideoSource::kLastFrame,
        VideoSource::kFaultRetry, VideoSource::kFrameDropped,
        VideoSource::kQualityChanged, VideoSource::kStreamPaused,
        VideoSource::kStreamAborted}) {
    EXPECT_TRUE(source->Catch(kind, log("src")).ok());
  }
  for (const char* kind : {VideoWindow::kEachFrame, VideoWindow::kLastFrame}) {
    EXPECT_TRUE(window->Catch(kind, log("win")).ok());
  }

  EXPECT_TRUE(graph.Add(source).ok());
  EXPECT_TRUE(graph.Add(window).ok());
  EXPECT_TRUE(graph.Connect(source.get(), VideoSource::kPortOut, window.get(),
                            VideoWindow::kPortIn)
                  .ok());
  EXPECT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();

  run.presented = window->stats().elements_presented;
  run.retries = store.stats().retries;
  run.aborts = degrade.stats().aborts_taken;
  run.dropped = degrade.stats().drops_taken;
  run.completed = false;
  for (const std::string& line : run.events) {
    if (line.rfind("win:LAST_FRAME", 0) == 0) run.completed = true;
  }
  run.device_busy_s = device->stats().busy_time.ToSecondsF();
  return run;
}

/// The acceptance spec's 5% profile, with head stalls long enough to build
/// real deadline pressure.
FaultSpec AcceptanceSpec() {
  FaultSpec spec = FaultSpec::TransientReads(0.05);
  spec.stuck_head_rate = 0.025;
  spec.stuck_head_stall_ns = 400 * 1000 * 1000;
  return spec;
}

TEST(FaultToleranceTest, FaultScheduleIsDeterministic) {
  // Same seed + same spec => byte-identical event log and identical
  // end-of-run metrics. This is the property that makes every fault an
  // exactly reproducible bug report.
  const FaultyStreamRun a = RunFaultyStream(true, AcceptanceSpec(), 1234);
  const FaultyStreamRun b = RunFaultyStream(true, AcceptanceSpec(), 1234);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i], b.events[i]) << "first divergence at event " << i;
  }
  EXPECT_EQ(a.presented, b.presented);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.device_busy_s, b.device_busy_s);
  // And the run actually exercised the fault machinery.
  EXPECT_GT(a.retries + a.dropped, 0);
}

TEST(FaultToleranceTest, InjectionOffIsByteIdenticalToNoInjector) {
  // Zero-cost-when-off: an attached injector with an all-zero spec must be
  // indistinguishable — event for event, nanosecond for nanosecond — from
  // no injector at all.
  const FaultyStreamRun off = RunFaultyStream(false, FaultSpec::None(), 1);
  const FaultyStreamRun none = RunFaultyStream(true, FaultSpec::None(), 1);
  ASSERT_EQ(off.events.size(), none.events.size());
  for (size_t i = 0; i < off.events.size(); ++i) {
    ASSERT_EQ(off.events[i], none.events[i]);
  }
  EXPECT_EQ(off.device_busy_s, none.device_busy_s);
  EXPECT_EQ(off.retries, 0);
  EXPECT_EQ(off.dropped, 0);
  EXPECT_TRUE(off.completed);
  EXPECT_EQ(off.presented, 80);
}

TEST(FaultToleranceTest, DegradedPlaybackCompletesAtFivePercent) {
  const FaultyStreamRun run = RunFaultyStream(true, AcceptanceSpec(), 1234);
  // Playback must finish despite the faults: the window sees end of stream,
  // nothing aborts, and every frame is either presented or deliberately
  // shed — no unhandled error path.
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.aborts, 0);
  EXPECT_EQ(run.presented + run.dropped, 80);
  // The fault machinery visibly engaged.
  EXPECT_GT(run.retries + run.dropped, 0);
}

TEST(InvariantTest, BackupIsDeterministic) {
  auto build = [] {
    auto db = std::make_unique<AvDatabase>();
    EXPECT_TRUE(db->AddDevice("disk0", DeviceProfile::MagneticDisk()).ok());
    ClassDef clip_class("Clip");
    EXPECT_TRUE(
        clip_class.AddAttribute({"footage", AttrType::kVideo, {}, {}}).ok());
    EXPECT_TRUE(db->DefineClass(clip_class).ok());
    auto oid = db->NewObject("Clip").value();
    auto video =
        GenerateVideo(MediaDataType::RawVideo(16, 16, 8, Rational(10)), 5,
                      VideoPattern::kMovingBox)
            .value();
    EXPECT_TRUE(db->SetMediaAttribute(oid, "footage", *video, "disk0").ok());
    return db;
  };
  auto db1 = build();
  auto db2 = build();
  EXPECT_EQ(db1->SaveBackup().value(), db2->SaveBackup().value());
}

}  // namespace
}  // namespace avdb
