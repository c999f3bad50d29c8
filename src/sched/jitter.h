#ifndef AVDB_SCHED_JITTER_H_
#define AVDB_SCHED_JITTER_H_

#include <cstdint>

#include "base/rng.h"
#include "obs/metrics.h"

namespace avdb {

/// Model of "unpredictable system latencies" (§3.3): per-event extra delay
/// drawn from a truncated Gaussian plus occasional spikes. Injected into
/// stream deliveries so that, exactly as the paper says, "AV values tend to
/// jitter and require regular resynchronization" — the resync controller
/// then has something real to correct.
class JitterModel {
 public:
  struct Params {
    /// Mean extra latency per event.
    int64_t mean_ns = 0;
    /// Standard deviation of the Gaussian component.
    int64_t stddev_ns = 0;
    /// Probability of a spike (scheduling hiccup, page fault...).
    double spike_probability = 0.0;
    /// Spike magnitude.
    int64_t spike_ns = 0;
  };

  /// No jitter at all.
  JitterModel() : JitterModel(Params{}, 0) {}
  JitterModel(Params params, uint64_t seed)
      : params_(params), rng_(seed) {}

  /// Typical early-90s workstation profile: ~2 ms sd, rare 20 ms spikes.
  static JitterModel Workstation(uint64_t seed) {
    Params p;
    p.mean_ns = 500 * 1000;
    p.stddev_ns = 2 * 1000 * 1000;
    p.spike_probability = 0.02;
    p.spike_ns = 20 * 1000 * 1000;
    return JitterModel(p, seed);
  }

  /// Samples the next delay; never negative.
  int64_t Sample();

  struct Stats {
    int64_t samples = 0;
    int64_t spikes = 0;        ///< samples that included a spike
    int64_t total_ns = 0;
    int64_t max_ns = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Clears the accumulated stats (the RNG stream continues). Benches that
  /// share one model across scenarios call this between them so one
  /// scenario's spike count cannot smear into the next report.
  void Reset() {
    counters_.FoldBeforeReset();
    stats_ = Stats{};
    delay_ = {};
  }

  /// Exports the stats as `avdb_sched_jitter_*` counters and observes each
  /// sample in a delay histogram (nullptr unbinds; see obs::CounterBinding).
  void BindTo(obs::MetricsRegistry* registry);

 private:
  /// Inclusive upper bounds of the exported delay histogram.
  static constexpr int64_t kDelayBoundsNs[] = {
      0,         500'000,    1'000'000,  2'000'000,
      5'000'000, 10'000'000, 20'000'000, 50'000'000};

  Params params_;
  Rng rng_;
  Stats stats_;
  obs::HistogramFields<kDelayBoundsNs> delay_;  // observed while bound
  obs::CounterBinding counters_;
};

}  // namespace avdb

#endif  // AVDB_SCHED_JITTER_H_
