#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <initializer_list>
#include <set>
#include <stdexcept>
#include <utility>

#include "base/buffer.h"
#include "base/buffer_pool.h"
#include "base/rational.h"
#include "base/result.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/work_pool.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/scalable_codec.h"
#include "media/synthetic.h"

namespace avdb {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::DataLoss("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_FALSE(StatusCodeName(static_cast<StatusCode>(c)).empty());
  }
}

Status FailsThrough() {
  AVDB_RETURN_IF_ERROR(Status::InvalidArgument("inner"));
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> DoubleOrFail(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return v * 2;
}

Result<int> Chained(int v) {
  AVDB_ASSIGN_OR_RETURN(int doubled, DoubleOrFail(v));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnHappyPath) {
  auto r = Chained(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 11);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  EXPECT_EQ(Chained(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

Result<std::vector<int>> MakeVector() {
  return std::vector<int>{1, 2, 3};
}

TEST(ResultTest, RangeForOverTemporaryValueIsSafe) {
  // Regression: `value() &&` returns by value so the range-for binding
  // lifetime-extends the container; a reference return would dangle here.
  int sum = 0;
  for (int v : MakeVector().value()) sum += v;
  EXPECT_EQ(sum, 6);
}

// -------------------------------------------------------------- Rational --

TEST(RationalTest, NormalizesToLowestTerms) {
  Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
}

TEST(RationalTest, NormalizesSign) {
  Rational r(3, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
}

TEST(RationalTest, ZeroHasCanonicalForm) {
  Rational r(0, 17);
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
}

TEST(RationalTest, NtscFrameTimesAccumulateExactly) {
  // 30000 NTSC frame durations must sum to exactly 1001 seconds.
  const Rational frame_duration(1001, 30000);
  Rational total;
  for (int i = 0; i < 30000; ++i) total += frame_duration;
  EXPECT_EQ(total, Rational(1001));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GE(Rational(30000, 1001), Rational(29));
}

TEST(RationalTest, FloorCeilRound) {
  EXPECT_EQ(Rational(7, 2).Floor(), 3);
  EXPECT_EQ(Rational(7, 2).Ceil(), 4);
  EXPECT_EQ(Rational(7, 2).Rounded(), 4);  // half away from zero
  EXPECT_EQ(Rational(-7, 2).Floor(), -4);
  EXPECT_EQ(Rational(-7, 2).Ceil(), -3);
  EXPECT_EQ(Rational(-7, 2).Rounded(), -4);
  EXPECT_EQ(Rational(5, 3).Rounded(), 2);
  EXPECT_EQ(Rational(4, 3).Rounded(), 1);
}

TEST(RationalTest, ToString) {
  EXPECT_EQ(Rational(3, 4).ToString(), "3/4");
  EXPECT_EQ(Rational(5).ToString(), "5");
}

class RationalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RationalPropertyTest, AddSubRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 100; ++i) {
    const Rational a(rng.NextInRange(-1000, 1000), rng.NextInRange(1, 100));
    const Rational b(rng.NextInRange(-1000, 1000), rng.NextInRange(1, 100));
    EXPECT_EQ(a + b - b, a);
    if (!b.IsZero()) {
      EXPECT_EQ(a * b / b, a);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------- Buffer --

TEST(BufferTest, AppendAndReadPrimitives) {
  Buffer b;
  b.AppendU8(0xAB);
  b.AppendU16(0x1234);
  b.AppendU32(0xDEADBEEF);
  b.AppendU64(0x0123456789ABCDEFULL);
  b.AppendI64(-42);
  b.AppendF64(3.25);
  b.AppendString("hello");

  BufferReader r(b);
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU16().value(), 0x1234);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_EQ(r.ReadF64().value(), 3.25);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, UnderrunReturnsDataLoss) {
  Buffer b;
  b.AppendU8(1);
  BufferReader r(b);
  EXPECT_EQ(r.ReadU32().status().code(), StatusCode::kDataLoss);
}

TEST(BufferTest, StringUnderrunDetected) {
  Buffer b;
  b.AppendU32(100);  // declares 100 bytes, provides none
  BufferReader r(b);
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kDataLoss);
}

TEST(BufferTest, HashDiffersOnContent) {
  Buffer a;
  a.AppendString("abc");
  Buffer b;
  b.AppendString("abd");
  EXPECT_NE(FastHash64(a.data(), a.size()), FastHash64(b.data(), b.size()));
  Buffer c;
  c.AppendString("abc");
  EXPECT_EQ(FastHash64(a.data(), a.size()), FastHash64(c.data(), c.size()));
}

TEST(BufferTest, FastHash64KnownAnswers) {
  // Page digests are persisted in journals and compared across replicas,
  // so FastHash64's values are part of the on-device format. Each length
  // exercises a different path: empty, byte tail, one lane, the 32-byte
  // four-lane block and its boundaries, and a whole storage page.
  std::vector<uint8_t> bytes(65536);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const std::pair<size_t, uint64_t> kAnswers[] = {
      {0, 0xCC4066DC172E4DBAULL},     {1, 0x73C54767993EE96EULL},
      {7, 0x16A1FF3948FDA39AULL},     {8, 0x0BE6041519C19E44ULL},
      {31, 0x224FFAB38EEB05EBULL},    {32, 0x239ED79E23980B52ULL},
      {33, 0xB28CACFC3BD89721ULL},    {65536, 0x9BCE8CF3D3DC9578ULL},
  };
  for (const auto& [size, want] : kAnswers) {
    EXPECT_EQ(FastHash64(bytes.data(), size), want) << "length " << size;
  }
}

TEST(BufferTest, SkipValidatesBounds) {
  Buffer b(4);
  BufferReader r(b);
  EXPECT_TRUE(r.Skip(4).ok());
  EXPECT_EQ(r.Skip(1).code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// A certain outcome (p <= 0 or p >= 1) draws no variate, so a zero-rate
// fault class leaves every seeded fault trace where it was.
TEST(RngTest, CertainOutcomesDrawNothing) {
  Rng plain(2024), probed(2024);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(probed.NextBool(0.0));
    EXPECT_FALSE(probed.NextBool(-1.0));
    EXPECT_TRUE(probed.NextBool(1.0));
    EXPECT_EQ(plain.NextU64(), probed.NextU64()) << "draw " << i;
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, Split) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitEmptyInput) {
  auto parts = StrSplit("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Strip) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -17 ").value(), -17);
  EXPECT_FALSE(ParseInt64("12abc").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("29.97").value(), 29.97);
  EXPECT_FALSE(ParseDouble("x").ok());
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("video/raw", "video"));
  EXPECT_FALSE(StartsWith("vid", "video"));
  EXPECT_TRUE(EndsWith("clip.mpg", ".mpg"));
  EXPECT_FALSE(EndsWith("g", ".mpg"));
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(StringsTest, JoinAndLower) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(AsciiToLower("CD-Quality"), "cd-quality");
}

// -------------------------------------------------------------- WorkPool --

TEST(WorkPoolTest, SubmitRunsTaskAndFutureResolves) {
  WorkPool pool(2);
  std::atomic<int> ran{0};
  auto f = pool.Submit([&] { ran.fetch_add(1); });
  f.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkPoolTest, SubmitPropagatesExceptionThroughFuture) {
  WorkPool pool(1);
  auto f = pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(WorkPoolTest, ParallelMapPreservesIndexOrder) {
  WorkPool pool(4);
  const int64_t n = 200;
  std::vector<int64_t> out =
      pool.ParallelMap<int64_t>(4, n, [](int64_t i) { return i * i; });
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(WorkPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  WorkPool pool(4);
  const int64_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(8, n, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
  }
}

TEST(WorkPoolTest, ParallelForRethrowsFirstException) {
  WorkPool pool(2);
  EXPECT_THROW(pool.ParallelFor(4, 100,
                                [](int64_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("lane boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(WorkPoolTest, ParallelMapCarriesStatusResults) {
  WorkPool pool(2);
  std::vector<Status> statuses =
      pool.ParallelMap<Status>(4, 10, [](int64_t i) {
        if (i == 3) return Status::DataLoss("plane 3");
        return Status::OK();
      });
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(statuses[static_cast<size_t>(i)].ok(), i != 3);
  }
}

TEST(WorkPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer width deliberately exceeds the worker count so completion must
  // come from caller participation, not from free workers.
  WorkPool pool(2);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 8, [&](int64_t) {
    pool.ParallelFor(4, 16, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(WorkPoolTest, ZeroWorkersRunsInline) {
  WorkPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
  std::vector<int64_t> out =
      pool.ParallelMap<int64_t>(4, 5, [](int64_t i) { return i + 1; });
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

// ------------------------------------------------------------ BufferPool --

TEST(BufferPoolTest, ReusesReleasedBlocks) {
  BufferPool pool(8);
  std::vector<uint8_t> block = pool.AcquireBytes(1024);
  EXPECT_EQ(block.size(), 1024u);
  pool.Release(std::move(block));
  std::vector<uint8_t> again = pool.AcquireBytes(512);
  EXPECT_EQ(again.size(), 512u);
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, 2);
  EXPECT_EQ(s.reuses, 1);  // second acquire came from the free list
  EXPECT_EQ(s.releases, 1);
}

TEST(BufferPoolTest, LeaseReturnsBlockOnScopeExit) {
  BufferPool pool(8);
  {
    BufferPool::BytesLease lease(&pool, 256);
    EXPECT_EQ(lease->size(), 256u);
    BufferPool::I16Lease samples(&pool, 64);
    EXPECT_EQ(samples->size(), 64u);
  }
  EXPECT_EQ(pool.stats().releases, 2);
  // Both classes now serve from their free lists.
  pool.ResetStats();
  BufferPool::BytesLease lease(&pool, 16);
  BufferPool::I16Lease samples(&pool, 16);
  EXPECT_EQ(pool.stats().reuses, 2);
}

TEST(BufferPoolTest, DropsBeyondMaxFreeAndTrims) {
  BufferPool pool(1);
  pool.Release(std::vector<uint8_t>(64));
  pool.Release(std::vector<uint8_t>(64));  // second one exceeds max_free=1
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.releases, 2);
  EXPECT_EQ(s.drops, 1);
  pool.Trim();
  std::vector<uint8_t> block = pool.AcquireBytes(64);
  EXPECT_EQ(pool.stats().reuses, 0);  // trimmed, so this was a fresh alloc
}

// -------------------------------------------- Parallel codec determinism --

// Encodes `value` at concurrency 1, 2 and 8 and requires every width to
// emit the width-1 stream, enhancement layers included.
void ExpectEncodeIdenticalAcrossConcurrency(const VideoCodec& codec,
                                            const VideoValue& value,
                                            VideoCodecParams params) {
  params.concurrency = 1;
  auto serial = codec.Encode(value, params);
  ASSERT_TRUE(serial.ok());
  for (int concurrency : {2, 8}) {
    params.concurrency = concurrency;
    auto parallel = codec.Encode(value, params);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel.value().frames.size(), serial.value().frames.size());
    for (size_t i = 0; i < serial.value().frames.size(); ++i) {
      const EncodedFrame& want = serial.value().frames[i];
      const EncodedFrame& got = parallel.value().frames[i];
      EXPECT_EQ(got.is_intra, want.is_intra) << "frame " << i;
      EXPECT_EQ(got.data, want.data)
          << codec.name() << " frame " << i << " differs at concurrency "
          << concurrency;
      EXPECT_EQ(got.layers, want.layers)
          << codec.name() << " frame " << i << " layers differ at concurrency "
          << concurrency;
    }
  }
}

// Bulk-decodes `value`'s stream at concurrency 4 and compares each frame
// with a one-at-a-time decode at concurrency 1.
void ExpectDecodeRangeMatchesSerialFrames(const VideoCodec& codec,
                                          const VideoValue& value) {
  VideoCodecParams params;
  params.quality = 60;
  params.concurrency = 4;
  auto encoded = codec.Encode(value, params);
  ASSERT_TRUE(encoded.ok());
  const int64_t n = value.FrameCount();

  auto parallel_session = codec.NewDecoder(encoded.value());
  ASSERT_TRUE(parallel_session.ok());
  auto range = parallel_session.value()->DecodeRange(0, n);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range.value().size(), static_cast<size_t>(n));
  EXPECT_EQ(parallel_session.value()->FramesDecodedInternally(), n);

  EncodedVideo serial_video = encoded.value();
  serial_video.params.concurrency = 1;
  auto serial_session = codec.NewDecoder(serial_video);
  ASSERT_TRUE(serial_session.ok());
  for (int64_t i = 0; i < n; ++i) {
    auto frame = serial_session.value()->DecodeFrame(i);
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(range.value()[static_cast<size_t>(i)] == frame.value())
        << codec.name() << " decoded frame " << i << " differs";
  }
}

TEST(ParallelCodecTest, IntraEncodeIsByteIdenticalAcrossConcurrency) {
  auto value = synthetic::GenerateVideo(
                   MediaDataType::RawVideo(48, 32, 24, Rational(10)), 9,
                   synthetic::VideoPattern::kMovingGradient)
                   .value();
  VideoCodecParams params;
  params.quality = 60;
  ExpectEncodeIdenticalAcrossConcurrency(IntraCodec(), *value, params);
}

TEST(ParallelCodecTest, InterEncodeIsByteIdenticalAcrossConcurrency) {
  // 23 frames at gop 4: six GOPs, the last one short, so a width-8 batch
  // holds GOPs of two lengths.
  auto value = synthetic::GenerateVideo(
                   MediaDataType::RawVideo(40, 24, 24, Rational(10)), 23,
                   synthetic::VideoPattern::kMovingBox)
                   .value();
  VideoCodecParams params;
  params.quality = 60;
  params.gop_size = 4;
  ExpectEncodeIdenticalAcrossConcurrency(InterCodec(), *value, params);
}

TEST(ParallelCodecTest, ScalableEncodeIsByteIdenticalAcrossConcurrency) {
  // 17 frames: more than one width-2 batch (16 frames) of the encode loop.
  auto value = synthetic::GenerateVideo(
                   MediaDataType::RawVideo(36, 28, 24, Rational(10)), 17,
                   synthetic::VideoPattern::kCheckerboard)
                   .value();
  VideoCodecParams params;
  params.quality = 60;
  params.layer_count = 3;
  ExpectEncodeIdenticalAcrossConcurrency(ScalableCodec(), *value, params);
}

TEST(ParallelCodecTest, ParallelDecodeRangeMatchesSerialFrames) {
  auto value = synthetic::GenerateVideo(
                   MediaDataType::RawVideo(48, 32, 24, Rational(10)), 8,
                   synthetic::VideoPattern::kCheckerboard)
                   .value();
  ExpectDecodeRangeMatchesSerialFrames(IntraCodec(), *value);
}

TEST(ParallelCodecTest, ScalableDecodeRangeMatchesSerialFrames) {
  auto value = synthetic::GenerateVideo(
                   MediaDataType::RawVideo(44, 30, 24, Rational(10)), 8,
                   synthetic::VideoPattern::kMovingBox)
                   .value();
  ExpectDecodeRangeMatchesSerialFrames(ScalableCodec(), *value);
}

TEST(ParallelCodecTest, OutOfRangeDecodeRangeIsInvalidArgument) {
  auto value = synthetic::GenerateVideo(
                   MediaDataType::RawVideo(24, 16, 8, Rational(10)), 5,
                   synthetic::VideoPattern::kMovingBox)
                   .value();
  const IntraCodec intra;
  const InterCodec inter;
  const ScalableCodec scalable;
  for (const VideoCodec* codec :
       std::initializer_list<const VideoCodec*>{&intra, &inter, &scalable}) {
    for (int concurrency : {1, 4}) {
      VideoCodecParams params;
      params.concurrency = concurrency;
      auto encoded = codec->Encode(*value, params);
      ASSERT_TRUE(encoded.ok());
      auto session = codec->NewDecoder(encoded.value());
      ASSERT_TRUE(session.ok());
      for (const auto& [first, count] :
           {std::pair<int64_t, int64_t>{-1, 2}, {0, -1}, {4, 2}, {0, 6},
            {5, 1}}) {
        EXPECT_EQ(session.value()->DecodeRange(first, count).status().code(),
                  StatusCode::kInvalidArgument)
            << codec->name() << " [" << first << ", +" << count
            << ") at concurrency " << concurrency;
      }
      EXPECT_TRUE(session.value()->DecodeRange(5, 0).ok()) << codec->name();
    }
  }
}

}  // namespace
}  // namespace avdb
