#include "sched/stream_stats.h"

namespace avdb {

void StreamStats::BindTo(obs::MetricsRegistry* registry) {
  counters_.Bind(
      registry,
      {{"avdb_sched_stream_elements_presented_total",
        "elements presented across all sinks", &elements_presented},
       {"avdb_sched_stream_elements_skipped_total",
        "elements shed before presentation", &elements_skipped},
       {"avdb_sched_stream_late_elements_total",
        "elements presented after their ideal time", &late_elements},
       {"avdb_sched_stream_deadline_misses_total",
        "elements at least 50 ms late", &deadline_misses},
       {"avdb_sched_stream_bytes_delivered_total", "payload bytes presented",
        &bytes_delivered},
       {"avdb_sched_stream_lateness_ns", "positive per-element lateness",
        lateness_}});
}

}  // namespace avdb
