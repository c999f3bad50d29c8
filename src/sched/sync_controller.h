#ifndef AVDB_SCHED_SYNC_CONTROLLER_H_
#define AVDB_SCHED_SYNC_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace avdb {

/// Inter-track synchronization (§3.3): "because of unpredictable system
/// latencies, AV values tend to jitter and require regular
/// resynchronization." Composite activities own one SyncController per
/// temporal composite; every track reports each element's ideal vs actual
/// presentation time, and lagging tracks are told how many elements to skip
/// to catch back up to the master track (audio by convention, since ears
/// notice dropped audio more than eyes notice dropped frames — so video
/// tracks are the usual skippers).
class SyncController {
 public:
  struct Params {
    /// Lag beyond the master tolerated before a skip is recommended.
    int64_t skew_threshold_ns = 40 * 1000 * 1000;  // 40 ms
    /// EWMA smoothing factor for drift estimates.
    double drift_alpha = 0.3;
  };

  SyncController() : SyncController(Params{}) {}
  explicit SyncController(Params params) : params_(params) {}

  void set_params(Params params) { params_ = params; }

  /// Registers a track; exactly one track should be master. The first
  /// track added becomes master if none is flagged.
  Status AddTrack(const std::string& track, bool master = false);

  /// Removes a track (e.g. when its stream aborts under persistent faults)
  /// so the survivors stop chasing a dead peer's drift. If the master is
  /// removed, the first remaining track is promoted.
  Status RemoveTrack(const std::string& track);

  bool HasTrack(const std::string& track) const {
    return tracks_.count(track) > 0;
  }

  /// Reports that `track` presented an element scheduled for `ideal_ns`
  /// at `actual_ns`.
  Status Report(const std::string& track, int64_t ideal_ns,
                int64_t actual_ns);

  /// Elements `track` should skip right now to pull its drift back within
  /// the threshold of the master's (0 when in sync, or for the master
  /// itself). Counts a resynchronization when nonzero.
  Result<int64_t> RecommendSkip(const std::string& track,
                                int64_t element_period_ns);

  /// Smoothed drift (actual - ideal) of a track.
  Result<int64_t> DriftNs(const std::string& track) const;

  /// Largest |drift_i - drift_j| over current track pairs.
  int64_t CurrentMaxSkewNs() const;

  struct Stats {
    int64_t reports = 0;
    int64_t resyncs = 0;          ///< times a skip was recommended
    int64_t elements_skipped = 0; ///< total recommended skips
    int64_t max_observed_skew_ns = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Exports reports/resyncs/skips as `avdb_sched_sync_*` counters
  /// (obs::CounterBinding) plus a max-skew gauge, and traces
  /// resynchronizations and track removals.
  void BindObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer);

 private:
  struct TrackState {
    bool master = false;
    bool have_drift = false;
    double drift_ns = 0;
  };

  const TrackState* Master() const;

  Params params_;
  std::map<std::string, TrackState> tracks_;
  Stats stats_;
  obs::CounterBinding counters_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace avdb

#endif  // AVDB_SCHED_SYNC_CONTROLLER_H_
