#ifndef AVDB_OBS_METRICS_H_
#define AVDB_OBS_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <span>
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

class CounterBinding;

/// One exported integer: what each owner field attached to it counted since
/// it attached, plus what detached fields had counted (folded in by their
/// CounterBinding). Nothing is pushed into a cell. Its fields are plain
/// integers, so a cell is read on the thread that drives their owners.
class Cell {
 public:
  int64_t Value() const;

 private:
  friend class CounterBinding;

  int64_t folded_ = 0;
  /// Attached field -> its value when attached (or last folded); the field
  /// contributes `*field - base`.
  std::unordered_map<const int64_t*, int64_t> fields_;
};

/// Monotone event count: one named cell.
class Counter : public Cell {
 public:
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
};

/// Point-in-time level (pending events, queued hints, healthy replicas):
/// the sum of the levels its bound owners report when it is read. An
/// unbound or destroyed owner reports nothing.
class Gauge {
 public:
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  int64_t Value() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class CounterBinding;

  std::string name_;
  std::string help_;
  std::unordered_map<const CounterBinding*, std::function<int64_t()>> levels_;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
/// order; an implicit +Inf bucket catches the rest. Each bucket, the count
/// and the sum is a cell that owners' HistogramFields attach to.
class Histogram {
 public:
  Histogram(std::string name, std::string help, std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  int64_t Count() const { return cells_[bounds_.size() + 1].Value(); }
  int64_t Sum() const { return cells_[bounds_.size() + 2].Value(); }
  /// Per-bucket (non-cumulative) count; index bounds().size() is +Inf.
  int64_t BucketCount(size_t i) const { return cells_[i].Value(); }
  const std::vector<int64_t>& bounds() const { return bounds_; }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class CounterBinding;

  std::string name_;
  std::string help_;
  std::vector<int64_t> bounds_;
  /// The buckets (+Inf last), then the count, then the sum: the layout of
  /// HistogramFields.
  std::vector<Cell> cells_;
};

/// An owner's histogram as plain fields: one count per bucket of the
/// constexpr table `kBounds` (inclusive upper bounds, ascending) and a last
/// +Inf bucket, then the count and the sum. Observe is inline and touches
/// only these fields; a CounterBinding row exports them.
template <const auto& kBounds>
class HistogramFields {
 public:
  static_assert(std::is_sorted(std::begin(kBounds), std::end(kBounds)),
                "histogram bounds must be ascending");

  void Observe(int64_t value) {
    size_t i = 0;
    while (i < std::size(kBounds) && value > kBounds[i]) ++i;
    ++cells_[i];
    ++cells_[kCount];
    cells_[kCount + 1] += value;
  }

 private:
  friend class CounterBinding;

  static constexpr size_t kCount = std::size(kBounds) + 1;  // cell index
  int64_t cells_[kCount + 2] = {};
};

/// Process-wide instrument directory: get-or-create by name, deterministic
/// (name-sorted) export. One registry per experiment; layers receive it by
/// pointer and treat nullptr as "observability off". The registry holds no
/// value of its own: every instrument reads its owners' fields, through
/// their CounterBindings, when it is exported.
///
/// All instrument values are integers (counts, ns, bytes), so both export
/// formats are byte-stable across runs of the same virtual-time schedule.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create, to read an instrument; the pointer is stable for the
  /// registry's lifetime. The name must satisfy ValidMetricName and must
  /// not be registered as a different instrument kind (programmer error;
  /// fails a CHECK — the registry is not a hot-path layer).
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

  /// Get-or-create sharing ownership: a binding keeps its instruments
  /// alive past the registry.
  template <typename T, typename... Args>
  std::shared_ptr<T> Shared(const std::string& name, Args&&... args);
  template <typename T>
  auto& Instruments() AVDB_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Counter>> counters_
      AVDB_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Gauge>> gauges_ AVDB_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Histogram>> histograms_
      AVDB_GUARDED_BY(mu_);
};

/// An owner's exported stats: one table of rows, each attaching something
/// the owner already keeps to the registry instrument of that name. The
/// owner's hot path touches only its own fields; the registry reads them
/// when it exports.
///
/// A counter (and each histogram cell) means "count since bind, summed
/// over every owner ever bound to it"; a gauge means "the bound owners'
/// levels now". Hence four lifetime rules:
///  - counts made before Bind are left out: a field attaches at its current
///    value;
///  - what a field counted is folded into its cell when its owner unbinds
///    (Bind again, or Bind(nullptr)), is destroyed, or zeroes its fields
///    (FoldBeforeReset), so an exported count never goes down; an unbound
///    owner's level leaves its gauge;
///  - the binding shares ownership of its instruments, so an owner may
///    outlive the registry;
///  - a copy or move of a bound owner starts unbound.
///
/// Declare the binding after the fields it reads: its destructor folds them.
class CounterBinding {
 public:
  /// A counter row attaches an integer field. A histogram row attaches an
  /// owner's HistogramFields cell by cell, each like a counter field. A
  /// gauge row attaches a function the registry calls at export to read
  /// the owner's current level.
  struct Row {
    Row(const char* name, const char* help, const int64_t* field)
        : name(name), help(help), fields(field) {}
    template <const auto& kBounds>
    Row(const char* name, const char* help,
        const HistogramFields<kBounds>& histogram)
        : name(name), help(help), fields(histogram.cells_), bounds(kBounds) {}
    Row(const char* name, const char* help, std::function<int64_t()> level)
        : name(name), help(help), level(std::move(level)) {}

    const char* name;
    const char* help;
    const int64_t* fields = nullptr;   ///< counter and histogram rows
    std::span<const int64_t> bounds;   ///< histogram rows (never empty)
    std::function<int64_t()> level;    ///< gauge rows
  };

  CounterBinding() = default;
  CounterBinding(const CounterBinding&) {}
  CounterBinding& operator=(const CounterBinding&) = delete;
  ~CounterBinding() { Unbind(); }

  /// Drops the current binding, then attaches every row to `registry`
  /// (nullptr leaves the owner unbound).
  void Bind(MetricsRegistry* registry, std::initializer_list<Row> rows);
  /// Folds the bound fields into their cells and re-bases them at zero.
  /// Owners call it right before they zero every bound field.
  void FoldBeforeReset();

  bool bound() const { return !bound_.empty() || !gauges_.empty(); }

 private:
  void Attach(std::shared_ptr<Cell> cell, const int64_t* field);
  void Unbind();

  struct Bound {
    std::shared_ptr<Cell> cell;
    const int64_t* field;
  };
  std::vector<Bound> bound_;
  std::vector<std::shared_ptr<Gauge>> gauges_;
};

}  // namespace obs
}  // namespace avdb

#endif  // AVDB_OBS_METRICS_H_
