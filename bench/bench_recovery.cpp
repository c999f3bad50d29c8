// Durability bench — DESIGN.md §9 "Durability model".
//
// Three measurements, all host time (the journal and checksum machinery is
// pure CPU overhead; modeled device time is charged identically either way):
//
//   1. Recovery time vs journal length: Recover() replays the journal and
//      re-reserves every extent; its cost must scale with the journal, not
//      with stored bytes.
//   2. Scrub throughput: page-by-page verification of every stored byte.
//   3. Zero-fault page-checksum overhead on whole-blob reads: Get (every
//      page verified) against ReadRangeUnverified over the same extents
//      (same device path, no verification), timed in interleaved reps.
//      With no injector attached, verification must cost < 5% in the
//      median (acceptance gate — exit code 1 on violation).
//
// Output: BENCH_recovery.json; every host time sits under its `host`
// member.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "harness.h"
#include "storage/block_device.h"
#include "storage/media_store.h"

using namespace avdb;

namespace {

constexpr int kRecoverReps = 5;   // reported as the fastest, as before
constexpr int kOverheadReps = 11;  // gated on the median
constexpr double kOverheadGatePct = 5.0;

Buffer RandomBlob(Rng* rng, int64_t size) {
  Buffer b;
  b.Resize(static_cast<size_t>(size));
  for (int64_t i = 0; i + 8 <= size; i += 8) {
    const uint64_t v = rng->NextU64();
    std::memcpy(b.data() + i, &v, 8);
  }
  return b;
}

// --- 1. recovery time vs journal length ------------------------------------

struct RecoveryPoint {
  int ops = 0;
  int64_t records = 0;
  int64_t journal_bytes = 0;
  int64_t blobs = 0;
  double recover_us = 0;
};

RecoveryPoint MeasureRecovery(int ops) {
  auto dev = std::make_shared<BlockDevice>("bench",
                                           DeviceProfile::MagneticDisk());
  Rng rng(42);
  {
    MediaStore store(dev, nullptr);
    store.Mount(/*journal_bytes=*/1024 * 1024).value();
    // Put-heavy churn: every third op deletes the previous blob, so the
    // journal carries a mix of put and delete records.
    for (int i = 0; i < ops; ++i) {
      // A failed op here would silently shrink the journal the benchmark
      // claims to measure — abort loudly instead.
      if (i % 3 == 2) {
        AVDB_CHECK(store.Delete("b" + std::to_string(i - 1)).ok());
      } else {
        AVDB_CHECK(
            store.Put("b" + std::to_string(i), RandomBlob(&rng, 16 * 1024))
                .ok());
      }
    }
  }
  MediaStore revived(dev, nullptr);
  RecoveryPoint point;
  point.ops = ops;
  // Recover() is idempotent: time repeated runs and keep the fastest.
  const bench::Summary timing = bench::Measure(kRecoverReps, {[&] {
    auto report = revived.Recover();
    if (!report.ok()) {
      std::printf("RECOVERY FAILED: %s\n", report.status().message().c_str());
      std::exit(1);
    }
    point.records = report.value().records_replayed;
    point.journal_bytes = report.value().journal_bytes_scanned;
    point.blobs = report.value().blobs;
  }})[0];
  point.recover_us = timing.min / 1e3;
  return point;
}

// --- 2. scrub throughput ----------------------------------------------------

struct ScrubPoint {
  int64_t bytes = 0;
  int64_t pages = 0;
  double host_ms = 0;
  double mb_per_s = 0;
  int64_t corrupt_found = 0;  // sanity: 1 after the deliberate corruption
};

ScrubPoint MeasureScrub() {
  auto dev = std::make_shared<BlockDevice>("bench",
                                           DeviceProfile::MagneticDisk());
  MediaStore store(dev, nullptr);
  store.Mount().value();
  Rng rng(7);
  constexpr int kBlobs = 32;
  constexpr int64_t kBlobBytes = 2 * 1024 * 1024;
  for (int i = 0; i < kBlobs; ++i) {
    store.Put("s" + std::to_string(i), RandomBlob(&rng, kBlobBytes)).value();
  }
  ScrubPoint point;
  point.bytes = kBlobs * kBlobBytes;
  const bench::Stopwatch watch;
  auto clean = store.Scrub();
  point.host_ms = watch.ElapsedNs() / 1e6;
  point.pages = clean.value().pages_scanned;
  point.mb_per_s =
      static_cast<double>(point.bytes) / (1024.0 * 1024.0) /
      (point.host_ms / 1000.0);
  // Sanity (untimed): a flipped media byte is found and quarantined.
  Buffer junk(1, 0xFF);
  auto blob = store.Lookup("s0").value();
  dev->Write(0, blob->extents[0].offset + 99, junk).value();
  auto dirty = store.Scrub();
  point.corrupt_found =
      static_cast<int64_t>(dirty.value().corrupt_pages.size());
  return point;
}

// --- 3. zero-fault read overhead gate ---------------------------------------

struct OverheadPoint {
  double verify_on_ms = 0;
  double verify_off_ms = 0;
  double overhead_pct = 0;
};

/// Reads every blob whole, with page verification (Get) or without it
/// (ReadRangeUnverified over the full range). Both bypass the cache and
/// read the same extents through the same device path.
void RunReadWorkload(MediaStore* store, int blobs, int64_t blob_bytes,
                     bool verify) {
  for (int i = 0; i < blobs; ++i) {
    const std::string name = "o" + std::to_string(i);
    auto got = verify ? store->Get(name)
                      : store->ReadRangeUnverified(name, 0, blob_bytes);
    if (!got.ok() ||
        static_cast<int64_t>(got.value().data.size()) != blob_bytes) {
      std::printf("READ FAILED: %s\n", got.status().message().c_str());
      std::exit(1);
    }
  }
}

OverheadPoint MeasureOverhead() {
  constexpr int kBlobs = 8;
  constexpr int64_t kBlobBytes = 4 * 1024 * 1024;
  auto dev = std::make_shared<BlockDevice>("bench",
                                           DeviceProfile::MagneticDisk());
  MediaStore store(dev, nullptr);  // unmounted: pure read-path comparison
  Rng rng(3);
  for (int i = 0; i < kBlobs; ++i) {
    store.Put("o" + std::to_string(i), RandomBlob(&rng, kBlobBytes)).value();
  }
  const std::vector<bench::Summary> timings = bench::Measure(
      kOverheadReps,
      {[&] { RunReadWorkload(&store, kBlobs, kBlobBytes, true); },
       [&] { RunReadWorkload(&store, kBlobs, kBlobBytes, false); }});
  OverheadPoint point;
  point.verify_on_ms = timings[0].median / 1e6;
  point.verify_off_ms = timings[1].median / 1e6;
  point.overhead_pct =
      (point.verify_on_ms - point.verify_off_ms) / point.verify_off_ms * 100.0;
  return point;
}

}  // namespace

int main() {
  std::vector<RecoveryPoint> recovery;
  for (int ops : {8, 32, 128, 512}) recovery.push_back(MeasureRecovery(ops));
  const ScrubPoint scrub = MeasureScrub();
  const OverheadPoint overhead = MeasureOverhead();

  std::vector<bench::Object> scaling, scaling_host;
  for (const RecoveryPoint& p : recovery) {
    scaling.push_back({{"ops", p.ops}, {"records", p.records},
                       {"journal_bytes", p.journal_bytes},
                       {"blobs", p.blobs}});
    scaling_host.push_back(
        {{"ops", p.ops}, {"recover_us", bench::Fixed(p.recover_us, 1)}});
  }
  const bench::Object doc = {
      {"recovery_scaling", scaling},
      {"scrub", bench::Object{{"bytes", scrub.bytes},
                              {"pages", scrub.pages},
                              {"corrupt_found", scrub.corrupt_found}}},
      {"read_overhead",
       bench::Object{{"gate_pct", bench::Fixed(kOverheadGatePct, 1)}}}};
  const bench::Object host = {
      {"recovery_scaling", scaling_host},
      {"scrub", bench::Object{{"host_ms", bench::Fixed(scrub.host_ms, 2)},
                              {"mb_per_s", bench::Fixed(scrub.mb_per_s, 1)}}},
      {"read_overhead",
       bench::Object{
           {"verify_on_ms", bench::Fixed(overhead.verify_on_ms, 2)},
           {"verify_off_ms", bench::Fixed(overhead.verify_off_ms, 2)},
           {"overhead_pct", bench::Fixed(overhead.overhead_pct, 2)}}}};

  bench::Gates gates;
  gates.Check(bench::WriteReport("BENCH_recovery.json", doc, host),
              "BENCH_recovery.json written");
  gates.Check(overhead.overhead_pct < kOverheadGatePct,
              "page-checksum overhead on whole-blob Get < 5%");
  gates.Check(scrub.corrupt_found == 1, "scrub finds the one corrupted page");
  gates.Check(recovery.back().records >= 512,
              "512-op journal replayed in full");
  return gates.ExitCode();
}
