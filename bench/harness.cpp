#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "base/work_pool.h"
#include "codec/simd/kernels.h"

namespace avdb {
namespace bench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between the closest ranks of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// `object` with one member per line, its keys at `indent` + 2.
std::string Spread(const Object& object, int indent) {
  const std::string pad(static_cast<size_t>(indent) + 2, ' ');
  std::string out = "{";
  for (size_t i = 0; i < object.size(); ++i) {
    out += (i > 0 ? ",\n" : "\n") + pad + Quote(object[i].first) + ": " +
           object[i].second.Render(indent + 2);
  }
  return out + "\n" + std::string(static_cast<size_t>(indent), ' ') + "}";
}

}  // namespace

Stopwatch::Stopwatch() : start_ns_(NowNs()) {}

double Stopwatch::ElapsedNs() const {
  return static_cast<double>(NowNs() - start_ns_);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.q1 = Quantile(samples, 0.25);
  s.median = Quantile(samples, 0.5);
  s.q3 = Quantile(samples, 0.75);
  return s;
}

std::vector<Summary> Measure(
    int reps, const std::vector<std::function<void()>>& variants) {
  const size_t n = variants.size();
  for (const auto& fn : variants) fn();  // warm-up, untimed
  std::vector<std::vector<double>> samples(n);
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t k = 0; k < n; ++k) {
      const size_t v = (static_cast<size_t>(rep) + k) % n;
      const Stopwatch watch;
      variants[v]();
      samples[v].push_back(watch.ElapsedNs());
    }
  }
  std::vector<Summary> out;
  for (auto& s : samples) out.push_back(Summarize(std::move(s)));
  return out;
}

void Gates::Check(bool ok, std::string_view what) {
  ++checks_;
  if (!ok) {
    std::printf("ACCEPTANCE FAIL: %.*s\n", static_cast<int>(what.size()),
                what.data());
    ++failures_;
  }
}

int Gates::ExitCode() const {
  if (failures_ == 0) {
    std::printf("\nAll %d acceptance gates passed.\n", checks_);
    return 0;
  }
  std::printf("\n%d of %d acceptance gates failed.\n", failures_, checks_);
  return 1;
}

Value::Value(const std::string& s) : text_(Quote(s)) {}

Value::Value(const std::vector<std::string>& strings) : text_("[") {
  for (size_t i = 0; i < strings.size(); ++i) {
    text_ += (i > 0 ? ", " : "") + Quote(strings[i]);
  }
  text_ += "]";
}

Value::Value(const Object& object) : text_("{") {
  for (size_t i = 0; i < object.size(); ++i) {
    text_ += (i > 0 ? ", " : "") + Quote(object[i].first) + ": " +
             object[i].second.Render(0);
  }
  text_ += "}";
}

Value::Value(const std::vector<Object>& rows) : is_rows_(true) {
  for (const Object& row : rows) rows_.push_back(Value(row).text_);
}

std::string Value::Render(int indent) const {
  if (!is_rows_) return text_;
  if (rows_.empty()) return "[]";
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "[";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out += (i > 0 ? ",\n" : "\n") + pad + "  " + rows_[i];
  }
  return out + "\n" + pad + "]";
}

Value Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  Value value;
  value.text_ = buf;
  return value;
}

bool WriteReport(const std::string& path, const Object& doc,
                 const Object& host_values) {
  Object host = {
      {"hardware_concurrency", std::thread::hardware_concurrency()},
      {"dispatched_level", simd::KernelLevelName(simd::ActiveKernels().level)},
      {"build_type", AVDB_BUILD_TYPE},
      {"pool_workers", WorkPool::Shared().worker_count()}};
  host.insert(host.end(), host_values.begin(), host_values.end());
  std::string text = Spread(doc, 0);
  text.resize(text.size() - 2);  // reopen: host is the last member
  text += (doc.empty() ? "\n" : ",\n") + std::string("  \"host\": ") +
          Spread(host, 2) + "\n}\n";

  FILE* out = std::fopen(path.c_str(), "w");
  bool ok = out != nullptr &&
            std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (out != nullptr) ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\n%swrote %s\n", text.c_str(), path.c_str());
  return true;
}

}  // namespace bench
}  // namespace avdb
