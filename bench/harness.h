// The one harness behind every bench that commits a BENCH_*.json: a host
// timer, repeated timing summarised by its median and quartiles,
// acceptance gates with one exit code, and a JSON writer that puts every
// value able to differ between two runs of one build under a last `host`
// member. Everything above `host` repeats byte for byte, which is what
// the `bench_output` ctests compare.

#ifndef AVDB_BENCH_HARNESS_H_
#define AVDB_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace avdb {
namespace bench {

/// Host time on the monotonic clock since construction. The only clock
/// the benches read.
class Stopwatch {
 public:
  Stopwatch();
  double ElapsedNs() const;
  double ElapsedSeconds() const { return ElapsedNs() / 1e9; }

 private:
  int64_t start_ns_;
};

/// Order statistics of a sample. Quartiles interpolate linearly between
/// the closest ranks, so the median of an even-sized sample is the mean
/// of its two middle values.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double min = 0;
};
Summary Summarize(std::vector<double> samples);

/// Host ns per call of each variant: one untimed warm-up round, then
/// `reps` timed rounds. Every round calls each variant once, starting one
/// variant later than the round before, so no variant always runs first.
std::vector<Summary> Measure(
    int reps, const std::vector<std::function<void()>>& variants);

/// Acceptance gates. A failed check prints `ACCEPTANCE FAIL: <what>`;
/// ExitCode() is the bench's exit status.
class Gates {
 public:
  void Check(bool ok, std::string_view what);
  /// Prints the verdict line and returns 0 when every check passed, else 1.
  int ExitCode() const;

 private:
  int checks_ = 0;
  int failures_ = 0;
};

class Value;
/// A JSON object; members keep the order they are listed in.
using Object = std::vector<std::pair<std::string, Value>>;

/// One JSON value: an integer, bool, string, list of strings, an object
/// (rendered on one line) or rows (objects, one line each). Doubles go
/// through Fixed() so every file states its decimals.
class Value {
 public:
  template <typename Int, std::enable_if_t<std::is_integral_v<Int> &&
                                               !std::is_same_v<Int, bool>,
                                           int> = 0>
  Value(Int v) : text_(std::to_string(v)) {}
  Value(bool v) : text_(v ? "true" : "false") {}
  Value(const std::string& s);
  Value(const char* s) : Value(std::string(s)) {}
  Value(const std::vector<std::string>& strings);
  Value(const Object& object);
  Value(const std::vector<Object>& rows);

  /// The value as it appears in a member whose key starts at `indent`.
  std::string Render(int indent) const;

 private:
  friend Value Fixed(double v, int decimals);
  Value() = default;

  std::string text_;
  std::vector<std::string> rows_;
  bool is_rows_ = false;
};

/// A double with a fixed number of decimals.
Value Fixed(double v, int decimals);

/// Writes `doc` to `path`, then a last top-level member `host`, one member
/// per line: the host stamp (hardware_concurrency, dispatched_level,
/// build_type, pool_workers) followed by `host_values`. Prints what it
/// wrote, so a bench's stdout shows each number once, as the file has it.
/// Returns false, after saying why on stderr, when the file cannot be
/// written.
bool WriteReport(const std::string& path, const Object& doc,
                 const Object& host_values);

}  // namespace bench
}  // namespace avdb

#endif  // AVDB_BENCH_HARNESS_H_
