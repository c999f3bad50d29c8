// Metric tables (the names, units, directions and bounds BENCHMARK.json
// lists), the metrics computed from a run's tally, and the statistics
// helpers the report uses.

#include <algorithm>
#include <cmath>

#include "e2e.h"
#include "storage/media_store.h"

namespace avdb::e2e {

const std::vector<MetricDef>& EndToEndMetrics() {
  // bound = allowed worsening as a share of the parent's median.
  static const std::vector<MetricDef> metrics = {
      {"startup_ms_p50", "ms", false, 0.2},
      {"startup_ms_p90", "ms", false, 0.2},
      {"element_latency_ms_p50", "ms", false, 0.08},
      {"element_latency_ms_p99", "ms", false, 0.15},
      {"on_time_ratio", "ratio", true, 0.003},
      {"quality_layers_mean", "layers", true, 0.02},
      {"streams_at_slo", "streams", true, 0.25},
      {"elements_per_host_s", "1/s", true, 0.2},
      {"ingest_put_ms_p50", "ms", false, 0.02},
      {"ingest_put_ms_p90", "ms", false, 0.02},
      {"ingest_mb_per_host_s", "MB/s", true, 0.25},
      {"write_amp", "ratio", false, 0.02},
      {"success_ratio", "ratio", true, 0.002},
      {"setup_s", "s", false, 0.25},
      {"peak_rss_mb", "MB", false, 0.05},
  };
  return metrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"codec.decode_us_p50", "us", false, 0},
      {"codec.decode_us_p99", "us", false, 0},
      {"codec.decodes_per_frame", "ratio", false, 0},
      {"codec.encode_ms_per_frame", "ms", false, 0},
      {"codec.encoded_bytes_per_frame", "B", false, 0},
      {"codec.untimed_frames", "count", false, 0},
      {"cluster.fetch_us_p50", "us", false, 0},
      {"cluster.fetch_us_p99", "us", false, 0},
      {"cluster.fetch_virtual_ms_mean", "ms", false, 0},
      {"cluster.fetch_virtual_ms_p99", "ms", false, 0},
      {"cluster.hedge_ratio", "ratio", false, 0},
      {"cluster.hedge_win_ratio", "ratio", true, 0},
      {"cluster.replica_load_skew", "ratio", false, 0},
      {"cluster.failovers", "count", false, 0},
      {"cluster.breaker_opens", "count", false, 0},
      {"cluster.exhausted", "count", false, 0},
      {"cluster.deadline_give_ups", "count", false, 0},
      {"cluster.put_us_p50", "us", false, 0},
      {"cluster.put_us_p99", "us", false, 0},
      {"cluster.acks_per_put", "ratio", true, 0},
      {"cluster.hints_recorded", "count", false, 0},
      {"cluster.hints_replayed", "count", true, 0},
      {"cluster.resync_bytes", "B", false, 0},
      {"cluster.resync_rounds", "count", false, 0},
      {"node.queue_length_mean", "requests", false, 0},
      {"node.busy_ratio_max", "ratio", false, 0},
      {"node.refused", "count", false, 0},
      {"net.link_busy_ratio_max", "ratio", false, 0},
      {"net.link_queue_ms_mean", "ms", false, 0},
      {"net.bytes_per_element", "B", false, 0},
      {"net.deadline_cancelled", "count", false, 0},
      {"storage.cache_hit_ratio", "ratio", true, 0},
      {"storage.cache_evictions", "count", false, 0},
      {"storage.device_reads_per_element", "ratio", false, 0},
      {"storage.seeks_per_device_op", "ratio", false, 0},
      {"storage.device_busy_ratio_max", "ratio", false, 0},
      {"storage.retries", "count", false, 0},
      {"storage.verify_bytes_per_byte_served", "ratio", false, 0},
      {"storage.journal_records_per_put", "ratio", false, 0},
      {"storage.device_bytes_written", "B", false, 0},
      {"sched.events_per_element", "ratio", false, 0},
      {"sched.self_us_per_element", "us", false, 0},
      {"sched.host_s_per_virtual_s", "ratio", false, 0},
      {"sched.peak_pending_events", "count", false, 0},
      {"sched.engine_bytes_per_session", "B", false, 0},
      {"sched.degrade_drops", "count", false, 0},
      {"sched.degrade_lowers", "count", false, 0},
      {"sched.degrade_pauses", "count", false, 0},
      {"sched.degrade_aborts", "count", false, 0},
      {"activity.elements_skipped", "count", false, 0},
      {"base.pool_allocations_per_frame", "ratio", false, 0},
      {"trace.overhead_ratio", "ratio", false, 0},
  };
  return metrics;
}

void Tally::Merge(const Tally& other) {
  for (const auto& [key, value] : other.sums) sums[key] += value;
  for (const auto& [key, value] : other.maxima) {
    maxima[key] = std::max(maxima[key], value);
  }
  for (const auto& [key, values] : other.samples) {
    std::vector<double>& into = samples[key];
    into.insert(into.end(), values.begin(), values.end());
  }
}

namespace {

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double SamplePercentile(const Tally& t, const std::string& key, double q) {
  auto it = t.samples.find(key);
  return it == t.samples.end() ? 0.0 : Percentile(it->second, q);
}

}  // namespace

double MissRatio(const Tally& t) {
  const double due = Get(t.sums, "elements_due");
  return due == 0 ? 1.0 : (due - Get(t.sums, "on_time")) / due;
}

std::map<std::string, double> VirtualMetrics(const Tally& t) {
  auto sum = [&t](const char* key) { return Get(t.sums, key); };
  std::map<std::string, double> m;
  m["startup_ms_p50"] = SamplePercentile(t, "startup_ms", 0.50);
  m["startup_ms_p90"] = SamplePercentile(t, "startup_ms", 0.90);
  m["element_latency_ms_p50"] = SamplePercentile(t, "latency_ms", 0.50);
  m["element_latency_ms_p99"] = SamplePercentile(t, "latency_ms", 0.99);
  m["on_time_ratio"] = 1.0 - MissRatio(t);
  m["quality_layers_mean"] = Ratio(sum("layers"), sum("presented"));
  m["ingest_put_ms_p50"] = SamplePercentile(t, "put_ms", 0.50);
  m["ingest_put_ms_p90"] = SamplePercentile(t, "put_ms", 0.90);
  m["write_amp"] = Ratio(sum("device_bytes_written"), sum("acked_bytes"));
  m["success_ratio"] =
      1.0 - Ratio(sum("fetch_errors") + sum("puts_failed") +
                      sum("aborted_streams"),
                  sum("fetches") + sum("puts") + sum("sessions"));
  return m;
}

std::map<std::string, double> LayerCounts(const Tally& t) {
  auto sum = [&t](const char* key) { return Get(t.sums, key); };
  auto max = [&t](const char* key) { return Get(t.maxima, key); };
  const double elements = std::max(1.0, sum("presented"));
  std::map<std::string, double> m;
  m["codec.decodes_per_frame"] =
      Ratio(sum("internal_decodes"), sum("decode_calls"));
  m["codec.encoded_bytes_per_frame"] =
      Ratio(sum("encoded_bytes"), sum("clip_frames"));
  m["codec.untimed_frames"] = sum("untimed_frames");
  auto fetch_ms = t.samples.find("fetch_virtual_ms");
  double fetch_ms_total = 0;
  double fetch_count = 0;
  if (fetch_ms != t.samples.end()) {
    for (double v : fetch_ms->second) fetch_ms_total += v;
    fetch_count = static_cast<double>(fetch_ms->second.size());
  }
  m["cluster.fetch_virtual_ms_mean"] = Ratio(fetch_ms_total, fetch_count);
  m["cluster.fetch_virtual_ms_p99"] =
      SamplePercentile(t, "fetch_virtual_ms", 0.99);
  m["cluster.hedge_ratio"] = Ratio(sum("hedges"), sum("routed_fetches"));
  m["cluster.hedge_win_ratio"] = Ratio(sum("hedge_wins"), sum("hedges"));
  m["cluster.replica_load_skew"] = Ratio(sum("load_skew"), sum("runs"));
  m["cluster.failovers"] = sum("failovers");
  m["cluster.breaker_opens"] = sum("breaker_opens");
  m["cluster.exhausted"] = sum("exhausted");
  m["cluster.deadline_give_ups"] = sum("deadline_give_ups");
  m["cluster.acks_per_put"] = Ratio(sum("write_acks"), sum("quorum_puts"));
  m["cluster.hints_recorded"] = sum("hints_recorded");
  m["cluster.hints_replayed"] = sum("hints_replayed");
  m["cluster.resync_bytes"] = sum("resync_bytes");
  m["cluster.resync_rounds"] = sum("resync_rounds");
  // Little's law: summed waiting time over the horizon is the mean number
  // of requests queued at the device arms.
  m["node.queue_length_mean"] = Ratio(sum("node_queued_ns"), sum("horizon_ns"));
  m["node.busy_ratio_max"] = max("node_busy_ratio");
  m["node.refused"] = sum("node_refused");
  m["net.link_busy_ratio_max"] = max("link_busy_ratio");
  m["net.link_queue_ms_mean"] =
      Ratio(sum("link_queued_ns"), sum("link_requests")) / 1e6;
  m["net.bytes_per_element"] = sum("link_bytes") / elements;
  m["net.deadline_cancelled"] = sum("link_cancelled");
  m["storage.cache_hit_ratio"] =
      Ratio(sum("cache_hits"), sum("cache_hits") + sum("cache_misses"));
  m["storage.cache_evictions"] = sum("cache_evictions");
  m["storage.device_reads_per_element"] = sum("device_reads") / elements;
  m["storage.seeks_per_device_op"] = Ratio(sum("seeks"), sum("device_ops"));
  m["storage.device_busy_ratio_max"] = max("device_busy_ratio");
  m["storage.retries"] = sum("store_retries");
  // A cache hit re-hashes its whole page however few bytes it serves.
  m["storage.verify_bytes_per_byte_served"] =
      Ratio(sum("pages_verified") *
                static_cast<double>(MediaStore::kCachePageBytes),
            sum("bytes_served"));
  m["storage.journal_records_per_put"] =
      Ratio(sum("journal_records"), sum("puts"));
  m["storage.device_bytes_written"] = sum("device_bytes_written");
  m["sched.events_per_element"] = sum("events_run") / elements;
  m["sched.peak_pending_events"] = max("peak_pending");
  m["sched.engine_bytes_per_session"] =
      Ratio(sum("engine_bytes"), sum("sessions"));
  m["sched.degrade_drops"] = sum("degrade_drops");
  m["sched.degrade_lowers"] = sum("degrade_lowers");
  m["sched.degrade_pauses"] = sum("degrade_pauses");
  m["sched.degrade_aborts"] = sum("degrade_aborts");
  m["activity.elements_skipped"] = sum("elements_skipped");
  return m;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace avdb::e2e
