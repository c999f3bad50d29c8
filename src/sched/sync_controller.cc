#include "sched/sync_controller.h"

#include <algorithm>
#include <cmath>

namespace avdb {

Status SyncController::AddTrack(const std::string& track, bool master) {
  if (tracks_.count(track) > 0) {
    return Status::AlreadyExists("sync track exists: " + track);
  }
  TrackState state;
  state.master = master || tracks_.empty();
  if (master) {
    // Demote any previous master.
    for (auto& [name, s] : tracks_) s.master = false;
  }
  tracks_[track] = state;
  return Status::OK();
}

Status SyncController::RemoveTrack(const std::string& track) {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) return Status::NotFound("sync track: " + track);
  const bool was_master = it->second.master;
  tracks_.erase(it);
  if (was_master && !tracks_.empty()) {
    tracks_.begin()->second.master = true;
  }
  if (tracer_ != nullptr) {
    tracer_->Event("sched", "sync_track_removed", track,
                   was_master ? "was master" : "");
  }
  return Status::OK();
}

const SyncController::TrackState* SyncController::Master() const {
  for (const auto& [name, s] : tracks_) {
    if (s.master) return &s;
  }
  return nullptr;
}

Status SyncController::Report(const std::string& track, int64_t ideal_ns,
                              int64_t actual_ns) {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) return Status::NotFound("sync track: " + track);
  const double sample = static_cast<double>(actual_ns - ideal_ns);
  TrackState& s = it->second;
  if (!s.have_drift) {
    s.drift_ns = sample;
    s.have_drift = true;
  } else {
    s.drift_ns += params_.drift_alpha * (sample - s.drift_ns);
  }
  ++stats_.reports;
  stats_.max_observed_skew_ns =
      std::max(stats_.max_observed_skew_ns, CurrentMaxSkewNs());
  return Status::OK();
}

Result<int64_t> SyncController::RecommendSkip(const std::string& track,
                                              int64_t element_period_ns) {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) return Status::NotFound("sync track: " + track);
  if (element_period_ns <= 0) {
    return Status::InvalidArgument("element period must be positive");
  }
  const TrackState& s = it->second;
  if (s.master || !s.have_drift) return int64_t{0};
  const TrackState* master = Master();
  if (master == nullptr || !master->have_drift) return int64_t{0};
  const double excess = s.drift_ns - master->drift_ns;
  if (excess <= static_cast<double>(params_.skew_threshold_ns)) {
    return int64_t{0};
  }
  const int64_t skip = static_cast<int64_t>(
      std::ceil(excess / static_cast<double>(element_period_ns)));
  ++stats_.resyncs;
  stats_.elements_skipped += skip;
  // Skipping advances the track by skip periods; reflect that in drift so
  // the recommendation is not repeated before new reports arrive.
  it->second.drift_ns -= static_cast<double>(skip * element_period_ns);
  if (tracer_ != nullptr) {
    tracer_->Event("sched", "resync", track,
                   "skip " + std::to_string(skip) + " elements");
  }
  return skip;
}

void SyncController::BindObservability(obs::MetricsRegistry* registry,
                                       obs::Tracer* tracer) {
  tracer_ = tracer;
  counters_.Bind(registry,
                 {{"avdb_sched_sync_reports_total", "presentations reported",
                   &stats_.reports},
                  {"avdb_sched_sync_resyncs_total",
                   "nonzero skip recommendations", &stats_.resyncs},
                  {"avdb_sched_sync_elements_skipped_total",
                   "elements skipped to resynchronize",
                   &stats_.elements_skipped},
                  {"avdb_sched_sync_max_skew_ns",
                   "largest inter-track skew observed",
                   [this] { return stats_.max_observed_skew_ns; }}});
}

Result<int64_t> SyncController::DriftNs(const std::string& track) const {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) return Status::NotFound("sync track: " + track);
  return static_cast<int64_t>(it->second.drift_ns);
}

int64_t SyncController::CurrentMaxSkewNs() const {
  // Max pairwise |drift_i - drift_j| over scalars is max(drift) - min(drift):
  // one O(n) pass. This runs on every Report, so the old O(n²) pairwise scan
  // made each report cost quadratic in track count.
  bool any = false;
  double min_drift = 0;
  double max_drift = 0;
  for (const auto& [name, state] : tracks_) {
    if (!state.have_drift) continue;
    if (!any) {
      min_drift = max_drift = state.drift_ns;
      any = true;
    } else {
      min_drift = std::min(min_drift, state.drift_ns);
      max_drift = std::max(max_drift, state.drift_ns);
    }
  }
  if (!any) return 0;
  return static_cast<int64_t>(max_drift - min_drift);
}

}  // namespace avdb
