#ifndef AVDB_SCHED_STREAM_STATS_H_
#define AVDB_SCHED_STREAM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace avdb {

/// Per-stream presentation quality record kept by sink activities: how many
/// elements arrived, how late, how many missed their deadline outright, and
/// how long the stream took to start. These are the numbers the benchmark
/// harness reports for every figure experiment.
///
/// The fields are the only count; BindTo exports them as the shared
/// `avdb_sched_stream_*` counters and lateness histogram, which sum every
/// bound stream.
struct StreamStats {
  int64_t elements_presented = 0;
  int64_t elements_skipped = 0;   ///< shed upstream, never presented
  int64_t late_elements = 0;      ///< arrived after their ideal time
  int64_t deadline_misses = 0;    ///< later than the miss threshold
  int64_t total_lateness_ns = 0;  ///< summed positive lateness
  int64_t max_lateness_ns = 0;
  int64_t first_element_ns = -1;  ///< virtual time of first presentation
  int64_t last_element_ns = -1;
  int64_t bytes_delivered = 0;
  /// EWMA of positive lateness — the deadline-pressure signal degradation
  /// control reads. One spike barely moves it; sustained lag raises it.
  double smoothed_lateness_ns = 0;

  /// Threshold at or beyond which a late element counts as a deadline miss.
  static constexpr int64_t kMissThresholdNs = 50 * 1000 * 1000;  // 50 ms
  /// Smoothing factor for `smoothed_lateness_ns`.
  static constexpr double kLatenessAlpha = 0.3;
  /// Inclusive upper bounds of the exported lateness histogram.
  static constexpr int64_t kLatenessBoundsNs[] = {
      0,          1'000'000,   5'000'000,   10'000'000,   20'000'000,
      50'000'000, 100'000'000, 250'000'000, 1'000'000'000};

  /// Records one presentation (`lateness_ns` < 0 means early/on time).
  void Record(int64_t now_ns, int64_t lateness_ns, int64_t bytes) {
    ++elements_presented;
    if (first_element_ns < 0) first_element_ns = now_ns;
    last_element_ns = now_ns;
    bytes_delivered += bytes;
    smoothed_lateness_ns +=
        kLatenessAlpha *
        (static_cast<double>(lateness_ns > 0 ? lateness_ns : 0) -
         smoothed_lateness_ns);
    if (lateness_ns > 0) {
      ++late_elements;
      total_lateness_ns += lateness_ns;
      max_lateness_ns = std::max(max_lateness_ns, lateness_ns);
      if (lateness_ns >= kMissThresholdNs) ++deadline_misses;
    }
    if (counters_.bound()) lateness_.Observe(lateness_ns > 0 ? lateness_ns : 0);
  }

  /// Records `n` elements shed before presentation (frame drops, sync
  /// skips). A shed element by definition never made its deadline, so it
  /// feeds MissRate alongside outright misses.
  void RecordSkipped(int64_t n = 1) { elements_skipped += n; }

  double MeanLatenessMs() const {
    return elements_presented == 0
               ? 0.0
               : static_cast<double>(total_lateness_ns) / elements_presented /
                     1e6;
  }

  /// Deadline failures per element the stream was supposed to show. A shed
  /// element counts as a miss: it never reached the screen at all, which is
  /// strictly worse than arriving past the threshold — under heavy shedding
  /// the old misses/total quotient read near zero while the viewer saw
  /// almost nothing.
  double MissRate() const {
    const int64_t total = elements_presented + elements_skipped;
    return total == 0
               ? 0.0
               : static_cast<double>(deadline_misses + elements_skipped) /
                     static_cast<double>(total);
  }

  /// Achieved element rate over the active span, elements/second. A late
  /// first element shortens the span, which raises the rate.
  double AchievedRate() const {
    if (elements_presented < 2 || last_element_ns <= first_element_ns) {
      return 0.0;
    }
    return static_cast<double>(elements_presented - 1) * 1e9 /
           static_cast<double>(last_element_ns - first_element_ns);
  }

  /// Exports this record into `registry` (nullptr unbinds). Counts
  /// recorded before binding are left out; a copy starts unbound (see
  /// obs::CounterBinding).
  void BindTo(obs::MetricsRegistry* registry);

 private:
  obs::HistogramFields<kLatenessBoundsNs> lateness_;  // observed while bound
  obs::CounterBinding counters_;
};

}  // namespace avdb

#endif  // AVDB_SCHED_STREAM_STATS_H_
