#ifndef AVDB_OBS_METRICS_H_
#define AVDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"

namespace avdb {
namespace obs {

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by the metrics and trace
/// exporters so both emit byte-stable, parseable JSON.
std::string JsonEscape(std::string_view s);

/// True when `name` follows the repo-wide instrument convention
/// `avdb_<layer>_<metric>` — lowercase, digits and underscores only, at
/// least three segments. avdb-analyze's `metric-prefix` rule additionally
/// checks that `<layer>` matches the include-DAG layer of the defining
/// file.
bool ValidMetricName(std::string_view name);

/// Monotone event count. Value() sums two kinds of count:
///  - the counter's own, bumped by Increment. Increments are relaxed
///    atomics: such instruments are shared across the real-time bridge
///    threads (work pool) and the single-threaded event engine, and need no
///    ordering beyond their own total;
///  - integer fields an owner already keeps in its stats, attached by a
///    CounterBinding and read only when the counter is read. Those fields
///    are counted once, by their owner; nothing is pushed into the counter.
///    They are plain integers, so a counter with attached fields is read on
///    the thread that drives their owners.
class Counter {
 public:
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class CounterBinding;

  std::string name_;
  std::string help_;
  std::atomic<int64_t> value_{0};
  /// Attached field -> its value when attached (or last folded); the field
  /// contributes `*field - base`.
  std::unordered_map<const int64_t*, int64_t> fields_;
};

/// Point-in-time level (reserved bandwidth, queue depth, ladder position).
class Gauge {
 public:
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
/// order; an implicit +Inf bucket catches the rest. Observation cost is one
/// binary search plus two relaxed atomic adds — cheap enough for per-element
/// lateness on the streaming path.
class Histogram {
 public:
  Histogram(std::string name, std::string help, std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) count; index bounds().size() is +Inf.
  int64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::vector<int64_t>& bounds() const { return bounds_; }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1 (+Inf)
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Process-wide instrument directory: get-or-create by name, stable
/// pointers for the registry's lifetime, deterministic (name-sorted)
/// export. One registry per experiment; layers receive it by pointer and
/// treat nullptr as "observability off".
///
/// All instrument values are integers (counts, ns, bytes), so both export
/// formats are byte-stable across runs of the same virtual-time schedule.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The name must satisfy ValidMetricName and must not be
  /// registered as a different instrument kind (programmer error; fails a
  /// CHECK — the registry is not a hot-path layer).
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  /// `bounds` must be ascending; ignored when the histogram already exists.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds,
                          const std::string& help = "");

  /// Prometheus text exposition (HELP/TYPE comments, cumulative `le`
  /// buckets, `_sum`/`_count` series), instruments in name order.
  std::string PrometheusText() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// instruments in name order.
  std::string Json() const;

 private:
  friend class CounterBinding;

  /// GetCounter sharing ownership: a binding keeps its counters alive
  /// past the registry.
  std::shared_ptr<Counter> SharedCounter(const std::string& name,
                                         const std::string& help);

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Counter>> counters_
      AVDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ AVDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      AVDB_GUARDED_BY(mu_);
};

/// An owner's exported stats: one table of {name, help, &field} rows, each
/// attaching an integer field the owner already counts to the registry
/// counter of that name. The owner's hot path bumps only its own field; the
/// registry sums the bound fields when it exports.
///
/// A bound counter means "count since bind, summed over every owner ever
/// bound to it". Hence four lifetime rules:
///  - counts made before Bind are left out: a field attaches at its current
///    value;
///  - what a field counted is folded into the counter when its owner
///    unbinds (Bind again, or Bind(nullptr)), is destroyed, or zeroes its
///    fields (FoldBeforeReset), so an exported counter never goes down;
///  - the binding shares ownership of its counters, so an owner may outlive
///    the registry;
///  - a copy or move of a bound owner starts unbound.
///
/// Declare the binding after the fields it reads: its destructor folds them.
class CounterBinding {
 public:
  struct Row {
    const char* name;
    const char* help;
    const int64_t* field;
  };

  CounterBinding() = default;
  CounterBinding(const CounterBinding&) {}
  CounterBinding& operator=(const CounterBinding&) = delete;
  ~CounterBinding() { Unbind(); }

  /// Drops the current binding, then attaches every row to `registry`
  /// (nullptr leaves the owner unbound).
  void Bind(MetricsRegistry* registry, std::initializer_list<Row> rows);
  /// Folds the bound fields into their counters and re-bases them at zero.
  /// Owners call it right before they zero those fields.
  void FoldBeforeReset();

  bool bound() const { return !bound_.empty(); }

 private:
  void Unbind();

  struct Bound {
    std::shared_ptr<Counter> counter;
    const int64_t* field;
  };
  std::vector<Bound> bound_;
};

}  // namespace obs
}  // namespace avdb

#endif  // AVDB_OBS_METRICS_H_
