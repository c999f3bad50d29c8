// Observability overhead — the "free when off" contract.
//
// The obs layer's deal with the streaming stack is: each quantity is
// counted once, in the owner's stats fields, and a bound registry reads
// those fields at export (obs::CounterBinding), so instrumenting costs the
// hot path nothing when unbound and next to nothing when bound. This bench
// prices that promise on the hottest instrumented path —
// StreamStats::Record, called once per presented element by every sink —
// against a plain replica of the pre-obs accounting with no obs members at
// all.
//
// Three variants, host time per rep of kElements records:
//   plain     the old struct, re-declared locally: no obs members
//   disabled  StreamStats unbound (the shipped default) — gate: the median
//             of kRounds per-round disabled/plain ratios is < 2% over 1
//   enabled   StreamStats bound to a registry (counters and the lateness
//             histogram read at export, one inline bucket increment per
//             element) — gate: the median of the per-round enabled/plain
//             ratios is < 1.25, a 25% overhead
// Each round runs all three, starting one variant later than the round
// before, so none always runs on the warmest cache. The *_seconds fields
// report each variant's fastest rep; the overheads are median ratios. A
// checksum over the accumulated fields is consumed so the optimizer cannot
// delete the loops.
//
// The jitter section exercises JitterModel::Reset between scenarios: one
// model, one RNG stream, three profiles measured back to back — each
// scenario's spike count must start from zero instead of smearing the
// previous scenario's tail into the next report.
//
// Output: BENCH_observability.json, host times under its `host` member.
// Exit code is non-zero when either overhead gate fails.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/jitter.h"
#include "sched/stream_stats.h"

using namespace avdb;

namespace {

constexpr int kElements = 2 * 1000 * 1000;  // per rep
// Rounds behind the gates: single reps on a shared host spread by several
// percent, so each gate reads a median of many.
constexpr int kRounds = 41;
constexpr double kDisabledGatePct = 2.0;
constexpr double kEnabledGatePct = 25.0;

/// The pre-obs StreamStats accounting, re-declared without the obs
/// members: the baseline the disabled path is gated against. Arithmetic is
/// kept line-for-line identical so the measured delta is the bound check,
/// not a different loop body.
struct PlainStats {
  int64_t elements_presented = 0;
  int64_t late_elements = 0;
  int64_t deadline_misses = 0;
  int64_t total_lateness_ns = 0;
  int64_t max_lateness_ns = 0;
  int64_t first_element_ns = -1;
  int64_t last_element_ns = -1;
  int64_t bytes_delivered = 0;
  double smoothed_lateness_ns = 0;

  void Record(int64_t now_ns, int64_t lateness_ns, int64_t bytes) {
    ++elements_presented;
    if (first_element_ns < 0) first_element_ns = now_ns;
    last_element_ns = now_ns;
    bytes_delivered += bytes;
    smoothed_lateness_ns +=
        StreamStats::kLatenessAlpha *
        (static_cast<double>(lateness_ns > 0 ? lateness_ns : 0) -
         smoothed_lateness_ns);
    if (lateness_ns > 0) {
      ++late_elements;
      total_lateness_ns += lateness_ns;
      max_lateness_ns = std::max(max_lateness_ns, lateness_ns);
      if (lateness_ns >= StreamStats::kMissThresholdNs) ++deadline_misses;
    }
  }
};

/// Deterministic lateness pattern: mostly on time, a late tail, the
/// occasional outright miss — the branch mix a real sink sees.
inline int64_t LatenessFor(int i) {
  const int m = i % 16;
  if (m < 10) return -1 * 1000 * 1000;            // early
  if (m < 15) return (m - 9) * 4 * 1000 * 1000;   // 4..24 ms late
  return 60 * 1000 * 1000;                        // past the 50 ms threshold
}

/// One rep: kElements records into `stats`. Returns its host seconds.
template <typename Stats>
double TimeRecordLoop(Stats& stats, int64_t& checksum) {
  const bench::Stopwatch watch;
  for (int i = 0; i < kElements; ++i) {
    stats.Record(/*now_ns=*/static_cast<int64_t>(i) * 100 * 1000,
                 LatenessFor(i), /*bytes=*/4096);
  }
  const double seconds = watch.ElapsedSeconds();
  // Consume every accumulated field: anything the checksum does not read
  // the optimizer may delete from one loop but not the other, and the
  // comparison stops being apples to apples.
  checksum += stats.elements_presented + stats.late_elements +
              stats.deadline_misses + stats.total_lateness_ns +
              stats.max_lateness_ns + stats.bytes_delivered +
              stats.last_element_ns +
              static_cast<int64_t>(stats.smoothed_lateness_ns);
  return seconds;
}

}  // namespace

int main() {
  std::printf("==============================================================\n"
              "Observability overhead: StreamStats::Record, %d elements x %d "
              "interleaved plain/disabled/enabled rounds\n"
              "==============================================================\n\n",
              kElements, kRounds);

  int64_t checksum = 0;
  PlainStats plain;
  StreamStats disabled;  // never bound: the shipped default
  obs::MetricsRegistry registry;
  StreamStats enabled;
  enabled.BindTo(&registry);
  const std::function<double()> variants[] = {
      [&] { return TimeRecordLoop(plain, checksum); },
      [&] { return TimeRecordLoop(disabled, checksum); },
      [&] { return TimeRecordLoop(enabled, checksum); }};
  constexpr int kVariants = 3;
  for (const auto& run : variants) run();  // warm-up, untimed
  std::vector<double> seconds[kVariants];
  std::vector<double> disabled_ratios, enabled_ratios;
  for (int round = 0; round < kRounds; ++round) {
    double s[kVariants];
    for (int k = 0; k < kVariants; ++k) {
      const int v = (round + k) % kVariants;
      s[v] = variants[v]();
      seconds[v].push_back(s[v]);
    }
    disabled_ratios.push_back(s[1] / s[0]);
    enabled_ratios.push_back(s[2] / s[0]);
  }

  const bench::Summary plain_t = bench::Summarize(seconds[0]);
  const bench::Summary disabled_t = bench::Summarize(seconds[1]);
  const bench::Summary enabled_t = bench::Summarize(seconds[2]);
  const bench::Summary disabled_ratio = bench::Summarize(disabled_ratios);
  const bench::Summary enabled_ratio = bench::Summarize(enabled_ratios);
  const double disabled_overhead_pct = (disabled_ratio.median - 1.0) * 100.0;
  const double enabled_overhead_pct = (enabled_ratio.median - 1.0) * 100.0;
  const double per_element_disabled_ns = disabled_t.min / kElements * 1e9;
  const double per_element_enabled_ns = enabled_t.min / kElements * 1e9;

  // Negative overhead (disabled measured faster than plain) is scheduler
  // noise and passes trivially.
  const bool disabled_gate_ok = disabled_overhead_pct < kDisabledGatePct;
  const bool enabled_gate_ok = enabled_overhead_pct < kEnabledGatePct;

  // -------------------------------------------------------------------
  // One JitterModel across scenarios, Reset() between them: spike counts
  // are per scenario, and the RNG stream keeps advancing (no replay).
  JitterModel jitter = JitterModel::Workstation(/*seed=*/42);
  jitter.BindTo(&registry);
  const struct { const char* name; int samples; } kScenarios[] = {
      {"warmup", 1000}, {"steady", 10000}, {"spike_tail", 5000}};
  std::vector<bench::Object> scenario_rows;
  bool reset_ok = true;
  for (const auto& sc : kScenarios) {
    jitter.Reset();
    reset_ok = reset_ok && jitter.stats().samples == 0 &&
               jitter.stats().spikes == 0 && jitter.stats().total_ns == 0;
    for (int i = 0; i < sc.samples; ++i) checksum += jitter.Sample();
    const auto& stats = jitter.stats();
    reset_ok = reset_ok && stats.samples == sc.samples;
    scenario_rows.push_back({{"name", sc.name}, {"samples", sc.samples},
                             {"spikes", stats.spikes},
                             {"total_ns", stats.total_ns},
                             {"max_ns", stats.max_ns}});
  }

  // -------------------------------------------------------------------
  // Export surface: the sizes a scrape or figure pipeline pulls.
  obs::Tracer tracer(256);
  for (int i = 0; i < 300; ++i) {
    tracer.EventAt(i * 1000, "sched", "tick", "bench");
  }
  const size_t prom_bytes = registry.PrometheusText().size();
  const size_t json_bytes = registry.Json().size();
  const size_t trace_bytes = tracer.DumpJson().size();

  const bench::Object doc = {
      {"bench", "observability"},
      {"elements_per_rep", kElements},
      {"reps", kRounds},
      {"disabled_gate_pct", bench::Fixed(kDisabledGatePct, 1)},
      {"enabled_gate_pct", bench::Fixed(kEnabledGatePct, 1)},
      {"jitter_reset_ok", reset_ok},
      {"jitter_scenarios", scenario_rows},
      {"prometheus_bytes", prom_bytes},
      {"metrics_json_bytes", json_bytes},
      {"trace_dump_bytes", trace_bytes},
      {"checksum", checksum}};
  const bench::Object host = {
      {"plain_seconds", bench::Fixed(plain_t.min, 6)},
      {"disabled_seconds", bench::Fixed(disabled_t.min, 6)},
      {"enabled_seconds", bench::Fixed(enabled_t.min, 6)},
      {"disabled_ns_per_element", bench::Fixed(per_element_disabled_ns, 3)},
      {"enabled_ns_per_element", bench::Fixed(per_element_enabled_ns, 3)},
      {"disabled_overhead_pct", bench::Fixed(disabled_overhead_pct, 3)},
      {"disabled_overhead_q1_pct",
       bench::Fixed((disabled_ratio.q1 - 1) * 100, 3)},
      {"disabled_overhead_q3_pct",
       bench::Fixed((disabled_ratio.q3 - 1) * 100, 3)},
      {"enabled_overhead_pct", bench::Fixed(enabled_overhead_pct, 3)},
      {"enabled_overhead_q1_pct",
       bench::Fixed((enabled_ratio.q1 - 1) * 100, 3)},
      {"enabled_overhead_q3_pct",
       bench::Fixed((enabled_ratio.q3 - 1) * 100, 3)},
      {"disabled_gate_ok", disabled_gate_ok},
      {"enabled_gate_ok", enabled_gate_ok}};

  bench::Gates gates;
  gates.Check(
      bench::WriteReport("BENCH_observability.json", doc, host),
      "BENCH_observability.json written");
  gates.Check(disabled_gate_ok,
              "metrics-disabled overhead (median of rounds) < 2%");
  gates.Check(enabled_gate_ok,
              "metrics-enabled overhead (median of rounds) < 25%");
  gates.Check(reset_ok, "jitter stats start from zero after Reset");
  return gates.ExitCode();
}
