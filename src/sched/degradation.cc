#include "sched/degradation.h"

#include <algorithm>

namespace avdb {

const char* DegradeActionName(DegradeAction action) {
  switch (action) {
    case DegradeAction::kNone: return "none";
    case DegradeAction::kDropFrame: return "drop-frame";
    case DegradeAction::kLowerQuality: return "lower-quality";
    case DegradeAction::kRaiseQuality: return "raise-quality";
    case DegradeAction::kPause: return "pause";
    case DegradeAction::kAbort: return "abort";
  }
  return "unknown";
}

void DegradationController::ReportLateness(int64_t lateness_ns) {
  const double sample =
      static_cast<double>(lateness_ns > 0 ? lateness_ns : 0);
  if (!have_lateness_) {
    smoothed_lateness_ns_ = sample;
    have_lateness_ = true;
  } else {
    smoothed_lateness_ns_ +=
        kEwmaAlpha * (sample - smoothed_lateness_ns_);
  }
  ++stats_.lateness_reports;
  stats_.max_smoothed_lateness_ns =
      std::max(stats_.max_smoothed_lateness_ns, SmoothedLatenessNs());
}

void DegradationController::ReportFault(int64_t now_ns) {
  ++consecutive_faults_;
  ++stats_.faults;
  if (tracer_ != nullptr) {
    tracer_->EventAt(now_ns, "sched", "fault", actor_,
                     "strike " + std::to_string(consecutive_faults_));
  }
}

void DegradationController::ReportFaultRecovered() {
  consecutive_faults_ = 0;
}

DegradeAction DegradationController::Recommend(int64_t now_ns) const {
  if (consecutive_faults_ >= policy_.max_consecutive_faults) {
    return DegradeAction::kAbort;
  }
  // The corrected-signal rung: with attached stream stats, MissRate counts
  // shed elements as misses, so a stream that sheds nearly everything reads
  // as failing even though the few frames it does present arrive "on time".
  if (stream_stats_ != nullptr) {
    const int64_t accounted = stream_stats_->elements_presented +
                              stream_stats_->elements_skipped;
    if (accounted >= policy_.miss_rate_min_elements &&
        stream_stats_->MissRate() >= kAbortMissRate) {
      return DegradeAction::kAbort;
    }
  }
  const int64_t smoothed = SmoothedLatenessNs();
  if (smoothed >= kPauseThresholdNs && DwellElapsed(now_ns)) {
    return DegradeAction::kPause;
  }
  if (smoothed >= kLowerThresholdNs && steps_below_nominal_ < kMaxLowerSteps &&
      DwellElapsed(now_ns)) {
    return DegradeAction::kLowerQuality;
  }
  if (smoothed >= kDropThresholdNs) {
    return DegradeAction::kDropFrame;
  }
  if (smoothed <= kRecoverThresholdNs && steps_below_nominal_ > 0 &&
      have_lateness_ && DwellElapsed(now_ns)) {
    return DegradeAction::kRaiseQuality;
  }
  return DegradeAction::kNone;
}

void DegradationController::AcknowledgeAction(DegradeAction action,
                                              int64_t now_ns) {
  switch (action) {
    case DegradeAction::kNone:
      break;
    case DegradeAction::kDropFrame:
      // A shed frame gives the pipeline one free period, and — since it is
      // never presented — the sink will send no lateness report for it.
      // Decay the EWMA with a zero sample here, or the pressure signal
      // freezes above the drop threshold and the ladder sheds every
      // remaining frame.
      smoothed_lateness_ns_ -= kEwmaAlpha * smoothed_lateness_ns_;
      ++stats_.drops_taken;
      // The sink never sees the shed element; account it here so the
      // stream's MissRate reflects what the viewer actually lost.
      if (stream_stats_ != nullptr) stream_stats_->RecordSkipped();
      break;
    case DegradeAction::kLowerQuality:
      ++steps_below_nominal_;
      last_switch_ns_ = now_ns;
      ++stats_.lowers_taken;
      break;
    case DegradeAction::kRaiseQuality:
      if (steps_below_nominal_ > 0) --steps_below_nominal_;
      last_switch_ns_ = now_ns;
      ++stats_.raises_taken;
      break;
    case DegradeAction::kPause:
      smoothed_lateness_ns_ = 0;
      have_lateness_ = false;
      last_switch_ns_ = now_ns;
      ++stats_.pauses_taken;
      break;
    case DegradeAction::kAbort:
      ++stats_.aborts_taken;
      break;
  }
  if (action != DegradeAction::kNone && tracer_ != nullptr) {
    tracer_->Event("sched", "degrade", actor_, DegradeActionName(action));
  }
}

void DegradationController::BindObservability(obs::MetricsRegistry* registry,
                                              obs::Tracer* tracer,
                                              std::string actor) {
  tracer_ = tracer;
  actor_ = std::move(actor);
  counters_.Bind(registry,
                 {{"avdb_sched_degrade_drops_total", "frames shed by the ladder",
                   &stats_.drops_taken},
                  {"avdb_sched_degrade_lowers_total",
                   "quality step-downs taken", &stats_.lowers_taken},
                  {"avdb_sched_degrade_raises_total", "quality step-ups taken",
                   &stats_.raises_taken},
                  {"avdb_sched_degrade_pauses_total",
                   "pause/re-anchor actions taken", &stats_.pauses_taken},
                  {"avdb_sched_degrade_aborts_total",
                   "streams abandoned by the ladder", &stats_.aborts_taken},
                  {"avdb_sched_degrade_faults_total", "fault strikes reported",
                   &stats_.faults}});
}

}  // namespace avdb
