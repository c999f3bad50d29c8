#include "sched/jitter.h"

namespace avdb {

int64_t JitterModel::Sample() {
  double delay = static_cast<double>(params_.mean_ns);
  if (params_.stddev_ns > 0) {
    delay += rng_.NextGaussian() * static_cast<double>(params_.stddev_ns);
  }
  if (params_.spike_probability > 0 &&
      rng_.NextBool(params_.spike_probability)) {
    delay += static_cast<double>(params_.spike_ns);
    ++stats_.spikes;
  }
  if (delay < 0) delay = 0;
  const int64_t sample = static_cast<int64_t>(delay);
  ++stats_.samples;
  stats_.total_ns += sample;
  if (sample > stats_.max_ns) stats_.max_ns = sample;
  if (counters_.bound()) delay_.Observe(sample);
  return sample;
}

void JitterModel::BindTo(obs::MetricsRegistry* registry) {
  counters_.Bind(registry,
                 {{"avdb_sched_jitter_samples_total", "jitter delays sampled",
                   &stats_.samples},
                  {"avdb_sched_jitter_spikes_total",
                   "samples that included a spike", &stats_.spikes},
                  {"avdb_sched_jitter_delay_ns",
                   "sampled per-event delivery delay", delay_}});
}

}  // namespace avdb
