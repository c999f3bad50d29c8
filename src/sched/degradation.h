#ifndef AVDB_SCHED_DEGRADATION_H_
#define AVDB_SCHED_DEGRADATION_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/stream_stats.h"

namespace avdb {

/// One rung of the graceful-degradation ladder. Ordered by severity: a
/// stream under deadline pressure first sheds individual frames, then drops
/// to a lower quality factor, then pauses to let backlog drain, and only
/// aborts when faults persist beyond the policy's patience. kRaiseQuality
/// is the recovery direction once pressure subsides.
enum class DegradeAction {
  kNone = 0,
  kDropFrame,
  kLowerQuality,
  kRaiseQuality,
  kPause,
  kAbort,
};

const char* DegradeActionName(DegradeAction action);

/// The ladder's settings that a caller may vary: its patience with faults
/// and the warm-up of its miss-rate abort. Its thresholds and damping are
/// DegradationController constants.
struct DegradationPolicy {
  /// Consecutive unrecovered faults before the stream is abandoned.
  int max_consecutive_faults = 8;
  /// Minimum accounted elements (presented + skipped) before the miss-rate
  /// abort rung may fire — a short warm-up must not kill a stream.
  int64_t miss_rate_min_elements = 50;
};

/// Deadline-pressure detector + degradation ladder shared between a sink
/// (which reports per-element lateness) and its source (which consults
/// `Recommend` each tick and acknowledges the actions it takes). Pure
/// bookkeeping in virtual time — deterministic, no clock or RNG of its own.
class DegradationController {
 public:
  /// EWMA smoothing factor for reported lateness. All lateness thresholds
  /// compare against the *smoothed* lateness so a single jitter spike does
  /// not trigger a quality switch; the dwell time keeps switches from
  /// oscillating.
  static constexpr double kEwmaAlpha = 0.3;
  /// Smoothed lateness beyond which individual frames are shed.
  static constexpr int64_t kDropThresholdNs = 20 * 1000 * 1000;      // 20 ms
  /// Smoothed lateness beyond which a quality step-down is recommended.
  static constexpr int64_t kLowerThresholdNs = 60 * 1000 * 1000;     // 60 ms
  /// Smoothed lateness beyond which the stream should pause and re-anchor
  /// (VideoSource also sheds a fetch queued behind this much backlog).
  static constexpr int64_t kPauseThresholdNs = 250 * 1000 * 1000;    // 250 ms
  /// Smoothed lateness below which a quality step back up is allowed.
  static constexpr int64_t kRecoverThresholdNs = 5 * 1000 * 1000;    // 5 ms
  /// Minimum virtual time between quality switches (and after a pause)
  /// before the next switch may fire.
  static constexpr int64_t kDwellNs = 500 * 1000 * 1000;             // 500 ms
  /// How many quality steps below nominal the stream may sink (for a
  /// 3-layer scalable encoding: 2).
  static constexpr int kMaxLowerSteps = 2;
  /// Shed-corrected MissRate() at or beyond which a stream with attached
  /// StreamStats is recommended abort: at this point drops + misses mean
  /// the viewer effectively sees nothing, so degrading further is futile.
  static constexpr double kAbortMissRate = 0.95;

  DegradationController() : DegradationController(DegradationPolicy{}) {}
  explicit DegradationController(DegradationPolicy policy)
      : policy_(policy) {}

  /// Sink side: one element presented with the given (positive = late)
  /// lateness. Early/on-time elements pull the EWMA toward zero.
  void ReportLateness(int64_t lateness_ns);

  /// Source side: a fetch failed even after retries (one strike), or
  /// succeeded again (strikes reset).
  void ReportFault(int64_t now_ns);
  void ReportFaultRecovered();

  /// The rung the stream should act on right now. Severity wins: abort >
  /// pause > lower > drop > raise > none. Quality moves (lower/raise/pause)
  /// respect the dwell timer; frame drops do not, since shedding one frame
  /// is cheap and reversible.
  DegradeAction Recommend(int64_t now_ns) const;

  /// The source reports the action it actually took so the controller can
  /// advance its ladder position and arm the dwell timer. kPause also
  /// resets the smoothed lateness: the pause re-anchors the stream epoch,
  /// so pre-pause lateness no longer describes the stream.
  void AcknowledgeAction(DegradeAction action, int64_t now_ns);

  /// Points the controller at the sink's per-stream stats so (a) drop-acks
  /// record the shed element there — keeping the shed-corrected MissRate
  /// honest — and (b) Recommend can read that corrected rate for its abort
  /// rung. nullptr detaches (a destroyed sink must detach its stats).
  void AttachStreamStats(StreamStats* stats) { stream_stats_ = stats; }
  /// Detaches only if `stats` is the currently attached record.
  void DetachStreamStats(const StreamStats* stats) {
    if (stream_stats_ == stats) stream_stats_ = nullptr;
  }

  /// Exports ladder transitions and faults as `avdb_sched_degrade_*`
  /// counters (obs::CounterBinding) and, when `tracer` is set, records each
  /// acknowledged action as a trace event under `actor` (the stream name).
  void BindObservability(obs::MetricsRegistry* registry, obs::Tracer* tracer,
                         std::string actor = "");

  /// Quality steps currently below nominal (0 = full quality).
  int StepsBelowNominal() const { return steps_below_nominal_; }
  int ConsecutiveFaults() const { return consecutive_faults_; }
  int64_t SmoothedLatenessNs() const {
    return static_cast<int64_t>(smoothed_lateness_ns_);
  }

  struct Stats {
    int64_t lateness_reports = 0;
    int64_t faults = 0;
    int64_t drops_taken = 0;
    int64_t lowers_taken = 0;
    int64_t raises_taken = 0;
    int64_t pauses_taken = 0;
    int64_t aborts_taken = 0;
    int64_t max_smoothed_lateness_ns = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  bool DwellElapsed(int64_t now_ns) const {
    return now_ns - last_switch_ns_ >= kDwellNs;
  }

  DegradationPolicy policy_;
  double smoothed_lateness_ns_ = 0;
  bool have_lateness_ = false;
  int steps_below_nominal_ = 0;
  int consecutive_faults_ = 0;
  int64_t last_switch_ns_ = -(1LL << 62);  // dwell open at stream start
  Stats stats_;
  StreamStats* stream_stats_ = nullptr;  // non-owning; sink detaches
  obs::CounterBinding counters_;
  obs::Tracer* tracer_ = nullptr;
  std::string actor_;
};

}  // namespace avdb

#endif  // AVDB_SCHED_DEGRADATION_H_
