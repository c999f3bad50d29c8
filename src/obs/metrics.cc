#include "obs/metrics.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "base/logging.h"

namespace avdb {
namespace obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool ValidMetricName(std::string_view name) {
  if (name.substr(0, 5) != "avdb_") return false;
  int segments = 1;
  char prev = '_';
  for (size_t i = 5; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '_') {
      if (prev == '_') return false;  // empty segment
      ++segments;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) {
      return false;
    }
    prev = c;
  }
  return segments >= 3 && prev != '_';
}

Histogram::Histogram(std::string name, std::string help,
                     std::vector<int64_t> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      bounds_(std::move(bounds)),
      cells_(bounds_.size() + 3) {
  AVDB_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram " << name_ << " bounds must be ascending";
}

int64_t Cell::Value() const {
  int64_t value = folded_;
  for (const auto& [field, base] : fields_) value += *field - base;
  return value;
}

int64_t Gauge::Value() const {
  int64_t value = 0;
  for (const auto& entry : levels_) value += entry.second();
  return value;
}

template <typename T>
auto& MetricsRegistry::Instruments() {
  if constexpr (std::is_same_v<T, Counter>) {
    return counters_;
  } else if constexpr (std::is_same_v<T, Gauge>) {
    return gauges_;
  } else {
    return histograms_;
  }
}

template <typename T, typename... Args>
std::shared_ptr<T> MetricsRegistry::Shared(const std::string& name,
                                           Args&&... args) {
  AVDB_CHECK(ValidMetricName(name))
      << "instrument name violates the naming convention: " << name;
  MutexLock lock(mu_);
  auto& instruments = Instruments<T>();
  AVDB_CHECK(counters_.count(name) + gauges_.count(name) +
                 histograms_.count(name) ==
             instruments.count(name))
      << name << " already registered as a different instrument kind";
  auto& slot = instruments[name];
  if (slot == nullptr) {
    slot = std::make_shared<T>(name, std::forward<Args>(args)...);
  }
  return slot;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return Shared<Counter>(name, help).get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return Shared<Gauge>(name, help).get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> bounds,
                                         const std::string& help) {
  return Shared<Histogram>(name, help, std::move(bounds)).get();
}

void CounterBinding::Bind(MetricsRegistry* registry,
                          std::initializer_list<Row> rows) {
  Unbind();
  if (registry == nullptr) return;
  for (const Row& row : rows) {
    if (row.level) {
      auto gauge = registry->Shared<Gauge>(row.name, row.help);
      gauge->levels_.emplace(this, row.level);
      gauges_.push_back(std::move(gauge));
    } else if (row.bounds.empty()) {
      Attach(registry->Shared<Counter>(row.name, row.help), row.fields);
    } else {
      auto histogram = registry->Shared<Histogram>(
          row.name, row.help,
          std::vector<int64_t>(row.bounds.begin(), row.bounds.end()));
      AVDB_CHECK(std::equal(row.bounds.begin(), row.bounds.end(),
                            histogram->bounds().begin(),
                            histogram->bounds().end()))
          << row.name << " bound with other bounds than it was created with";
      for (size_t i = 0; i < histogram->cells_.size(); ++i) {
        Attach(std::shared_ptr<Cell>(histogram, &histogram->cells_[i]),
               row.fields + i);
      }
    }
  }
}

void CounterBinding::Attach(std::shared_ptr<Cell> cell,
                            const int64_t* field) {
  cell->fields_.emplace(field, *field);
  bound_.push_back({std::move(cell), field});
}

void CounterBinding::Unbind() {
  for (const Bound& b : bound_) {
    const auto it = b.cell->fields_.find(b.field);
    b.cell->folded_ += *b.field - it->second;
    b.cell->fields_.erase(it);
  }
  bound_.clear();
  for (const auto& gauge : gauges_) gauge->levels_.erase(this);
  gauges_.clear();
}

void CounterBinding::FoldBeforeReset() {
  for (const Bound& b : bound_) {
    int64_t& base = b.cell->fields_.at(b.field);
    b.cell->folded_ += *b.field - base;
    base = 0;
  }
}

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    if (!c->help().empty()) {
      out += "# HELP " + name + " " + c->help() + "\n";
    }
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c->Value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    if (!g->help().empty()) {
      out += "# HELP " + name + " " + g->help() + "\n";
    }
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g->Value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    if (!h->help().empty()) {
      out += "# HELP " + name + " " + h->help() + "\n";
    }
    out += "# TYPE " + name + " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += h->BucketCount(i);
      out += name + "_bucket{le=\"" + std::to_string(h->bounds()[i]) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h->Count()) + "\n";
    out += name + "_sum " + std::to_string(h->Sum()) + "\n";
    out += name + "_count " + std::to_string(h->Count()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(c->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(g->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"buckets\":[";
    for (size_t i = 0; i <= h->bounds().size(); ++i) {
      if (i > 0) out += ",";
      out += "[";
      out += i < h->bounds().size() ? std::to_string(h->bounds()[i])
                                    : std::string("null");
      out += "," + std::to_string(h->BucketCount(i)) + "]";
    }
    out += "],\"sum\":" + std::to_string(h->Sum()) +
           ",\"count\":" + std::to_string(h->Count()) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace avdb
