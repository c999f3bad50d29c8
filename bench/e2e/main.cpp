// avdb_e2e — the repository benchmark: the paper's Fig. 3 deployment
// (sessions -> StreamRouter -> ServerNode replicas -> MediaStore -> device
// -> ATM link -> decoder -> sink, plus quorum-replicated ingest) run end to
// end in one process. See README.md in this directory.
//
//   avdb_e2e --workload <name> --seed <n> [--seconds <s>]
//            [--trace <spans.json>] [--out <result.json>] [--rev <commit>]
//
// A measurement pools the workload's K independent sub-runs (seeded from
// --seed). The sub-runs are repeated in turn, each from a fresh
// deployment, until --seconds have passed and all K have run; a repeated
// sub-run must reproduce its virtual-time tally exactly. Without --trace
// the workload is then replayed at the arrival-rate rungs around its
// capacity for streams_at_slo, and the end-to-end metrics are reported;
// with --trace every other repetition records spans and the per-layer
// metrics are reported. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when any check fails.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "base/work_pool.h"
#include "codec/simd/kernels.h"
#include "e2e.h"

namespace avdb::e2e {
namespace {

/// The streams_at_slo service level: at most this share of elements due
/// may miss their deadline, and no stream may abort.
constexpr double kSloMissRatio = 0.01;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;
  std::string out_path;
  std::string rev = "unknown";
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "avdb_e2e: %s\nusage: avdb_e2e --workload <name> --seed <n> "
               "[--seconds <s>] [--trace <spans.json>] [--out <result.json>] "
               "[--rev <commit>]\nworkloads:",
               why.c_str());
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* opts, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts->seconds > 0)) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      opts->trace_path = value;
    } else if (flag == "--out") {
      opts->out_path = value;
    } else if (flag == "--rev") {
      opts->rev = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (opts->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

int OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// Peak resident set of the process so far, in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Full-precision JSON number: the report keeps every digit measured.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

using MetricValues = std::map<std::string, double>;

double Sum(const Tally& t, const char* key) {
  auto it = t.sums.find(key);
  return it == t.sums.end() ? 0.0 : it->second;
}

struct Rung {
  double multiplier;
  double streams;     ///< offered concurrency: arrival rate x session length
  double miss_ratio;
  double miss_floor;  ///< half an element: the rung's miss-ratio resolution
  double aborted;
  bool pass;
};

Rung MakeRung(const WorkloadSpec& spec, double multiplier, const Tally& t) {
  Rung rung;
  rung.multiplier = multiplier;
  rung.streams = spec.arrivals_per_s * multiplier *
                 static_cast<double>(spec.title_ms) / 1e3;
  rung.miss_ratio = MissRatio(t);
  rung.miss_floor = 0.5 / std::max(1.0, Sum(t, "elements_due"));
  rung.aborted = Sum(t, "aborted_streams");
  rung.pass = rung.miss_ratio <= kSloMissRatio && rung.aborted == 0;
  return rung;
}

/// The offered concurrency at which the deadline-miss ratio reaches the
/// SLO: log-linear in the miss ratio between the highest rung that meets
/// the SLO and the rung above it (which does not). A rung that fails only
/// by aborting a stream ends the ladder at the rung below. Interpolating
/// keeps one near-threshold rung from moving the result by a whole rung.
double StreamsAtSlo(const std::vector<Rung>& rungs) {
  double streams = 0;
  for (size_t i = 0; i < rungs.size(); ++i) {
    const Rung& rung = rungs[i];
    if (rung.pass) {
      streams = rung.streams;
      continue;
    }
    if (i == 0 || rung.miss_ratio <= kSloMissRatio) return streams;
    const Rung& below = rungs[i - 1];
    const double lo = std::log(std::max(below.miss_ratio, below.miss_floor));
    const double frac =
        (std::log(kSloMissRatio) - lo) / (std::log(rung.miss_ratio) - lo);
    return below.streams + (rung.streams - below.streams) * frac;
  }
  return streams;
}

/// Replays the workload at the rate rungs needed to bracket its capacity:
/// upward from the nominal rung until one misses the SLO, downward when
/// the nominal rung itself misses it. Each replayed rung pools
/// `rung_subruns` sub-runs.
std::vector<Rung> RunLadder(const WorkloadSpec& spec, uint64_t seed,
                            const Tally& nominal,
                            std::vector<std::string>* failures) {
  auto replay = [&](double k) {
    Tally pooled;
    for (int i = 0; i < spec.rung_subruns; ++i) {
      RunResult r = ExecuteRun(spec, SubrunSeed(seed, i), k, false);
      for (const std::string& f : r.failures) {
        failures->push_back("rung " + Num(k) + " sub-run " +
                            std::to_string(i) + ": " + f);
      }
      pooled.Merge(r.tally);
    }
    return MakeRung(spec, k, pooled);
  };
  std::vector<double> ks = spec.rungs;
  std::sort(ks.begin(), ks.end());
  const size_t one =
      static_cast<size_t>(std::find(ks.begin(), ks.end(), 1.0) - ks.begin());
  std::vector<Rung> rungs = {MakeRung(spec, 1.0, nominal)};
  if (rungs.front().pass) {
    for (size_t i = one + 1; i < ks.size() && rungs.back().pass; ++i) {
      rungs.push_back(replay(ks[i]));
    }
  } else {
    for (size_t i = one; i-- > 0 && !rungs.front().pass;) {
      rungs.insert(rungs.begin(), replay(ks[i]));
    }
  }
  return rungs;
}

std::vector<double> SpanDurationsUs(const std::vector<const RunResult*>& runs,
                                    SpanKind kind) {
  std::vector<double> out;
  for (const RunResult* r : runs) {
    for (const Span& s : r->spans) {
      if (s.kind == kind) {
        out.push_back(static_cast<double>(s.host_end_ns - s.host_start_ns) /
                      1e3);
      }
    }
  }
  return out;
}

double CpuUsPerElement(const std::vector<const RunResult*>& runs) {
  double cpu_s = 0;
  double elements = 0;
  for (const RunResult* r : runs) {
    cpu_s += r->timed_cpu_s;
    elements += Sum(r->tally, "presented");
  }
  return elements == 0 ? 0 : cpu_s * 1e6 / elements;
}

/// Per-layer numbers: the pooled stats plus host times from the traced
/// repetitions' spans.
MetricValues PerLayer(const Tally& pooled,
                      const std::vector<const RunResult*>& untraced,
                      const std::vector<const RunResult*>& traced) {
  MetricValues m = LayerCounts(pooled);
  const std::vector<double> decode = SpanDurationsUs(traced, SpanKind::kDecode);
  const std::vector<double> fetch = SpanDurationsUs(traced, SpanKind::kFetch);
  const std::vector<double> put = SpanDurationsUs(traced, SpanKind::kPut);
  const std::vector<double> encode = SpanDurationsUs(traced, SpanKind::kEncode);
  m["codec.decode_us_p50"] = Percentile(decode, 0.50);
  m["codec.decode_us_p99"] = Percentile(decode, 0.99);
  m["cluster.fetch_us_p50"] = Percentile(fetch, 0.50);
  m["cluster.fetch_us_p99"] = Percentile(fetch, 0.99);
  m["cluster.put_us_p50"] = Percentile(put, 0.50);
  m["cluster.put_us_p99"] = Percentile(put, 0.99);
  double encode_us = 0;
  for (double us : encode) encode_us += us;
  double frames = 0;
  for (const RunResult* r : traced) frames += Sum(r->tally, "clip_frames");
  m["codec.encode_ms_per_frame"] = frames == 0 ? 0 : encode_us / 1e3 / frames;

  // Self time of the engine, sources, sinks and everything else the spans
  // do not cover, per presented element.
  std::vector<double> self_us;
  for (const RunResult* r : traced) {
    double spanned_ns = 0;
    for (const Span& s : r->spans) {
      spanned_ns += static_cast<double>(s.host_end_ns - s.host_start_ns);
    }
    self_us.push_back((r->timed_wall_s * 1e9 - spanned_ns) / 1e3 /
                      std::max(1.0, Sum(r->tally, "presented")));
  }
  double cpu_s = 0;
  double horizon_s = 0;
  std::vector<double> allocations;
  for (const RunResult* r : untraced) {
    cpu_s += r->timed_cpu_s;
    horizon_s += Sum(r->tally, "horizon_ns") / 1e9;
    allocations.push_back(static_cast<double>(r->pool_allocations) /
                          std::max(1.0, Sum(r->tally, "presented")));
  }
  m["sched.self_us_per_element"] = Median(self_us);
  m["sched.host_s_per_virtual_s"] = horizon_s == 0 ? 0 : cpu_s / horizon_s;
  m["base.pool_allocations_per_frame"] = Median(allocations);
  m["trace.overhead_ratio"] =
      CpuUsPerElement(traced) / CpuUsPerElement(untraced) - 1.0;
  return m;
}

/// End-to-end metrics: virtual time from the pooled tally; host cost as
/// process CPU time of the best untraced repetition — other work on the
/// machine only ever slows a repetition down, so the fastest one is the
/// steadiest estimate of the program's own cost.
MetricValues EndToEnd(const Tally& pooled,
                      const std::vector<const RunResult*>& untraced,
                      const std::vector<const RunResult*>& all,
                      const std::vector<Rung>& rungs, double peak_rss_mb) {
  MetricValues m = VirtualMetrics(pooled);
  double elements_per_s = 0;
  double ingest_mb_per_s = 0;
  for (const RunResult* r : untraced) {
    elements_per_s = std::max(elements_per_s,
                              Sum(r->tally, "presented") / r->timed_cpu_s);
    ingest_mb_per_s = std::max(
        ingest_mb_per_s, Sum(r->tally, "ingest_raw_mb") / r->ingest_cpu_s);
  }
  std::vector<double> setup;
  for (const RunResult* r : all) setup.push_back(r->setup_cpu_s);
  m["elements_per_host_s"] = elements_per_s;
  m["ingest_mb_per_host_s"] = ingest_mb_per_s;
  m["setup_s"] = Median(setup);
  m["peak_rss_mb"] = peak_rss_mb;
  if (!rungs.empty()) m["streams_at_slo"] = StreamsAtSlo(rungs);
  return m;
}

void WriteSpans(const std::string& path, const Options& opts,
                const RunResult& traced) {
  std::ofstream out(path);
  out << "{\"workload\": " << Quote(opts.workload) << ", \"seed\": "
      << opts.seed
      << ", \"columns\": [\"name\", \"session\", \"element\", "
         "\"host_start_ns\", \"host_end_ns\", \"virtual_ns\"],\n\"spans\": [";
  for (size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& s = traced.spans[i];
    out << (i == 0 ? "\n" : ",\n") << "[" << Quote(SpanName(s.kind)) << ", "
        << s.session << ", " << s.element << ", " << s.host_start_ns << ", "
        << s.host_end_ns << ", " << s.virtual_ns << "]";
  }
  out << "\n]}\n";
}

std::string JsonObject(const std::vector<MetricDef>& defs,
                       const MetricValues& values, bool with_units) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    if (it == values.end()) continue;
    out << (first ? "" : ", ") << Quote(def.name) << ": ";
    if (with_units) {
      out << "{\"value\": " << Num(it->second)
          << ", \"unit\": " << Quote(def.unit) << "}";
    } else {
      out << Num(it->second);
    }
    first = false;
  }
  out << "}";
  return out.str();
}

int Main(int argc, char** argv) {
  Options opts;
  std::string error;
  if (!ParseOptions(argc, argv, &opts, &error)) return Usage(error);
  const WorkloadSpec* spec = FindWorkload(opts.workload);
  if (spec == nullptr) return Usage("unknown workload " + opts.workload);

  // At most min(4, nproc) threads: the engine thread plus the shared pool's
  // workers (codec lanes). The pool reads this before its first use.
  const int nproc = OnlineCpus();
  const int lanes = std::max(1, std::min(4, nproc));
  setenv("AVDB_POOL_WORKERS", std::to_string(std::max(1, lanes - 1)).c_str(),
         1);
  const bool trace_mode = !opts.trace_path.empty();
  const int subruns = spec->subruns;

  std::vector<RunResult> reps;
  std::vector<std::string> failures;
  const int64_t window_start = HostNowNs();
  int traced_reps = 0;
  // Peak memory of the first repetition, from a fresh process: later
  // repetitions inherit whatever the allocator kept from earlier ones.
  double peak_rss_mb = 0;
  for (int rep = 0;; ++rep) {
    const int sub = rep % subruns;
    const bool trace = trace_mode && rep % 2 == 1;
    RunResult r = ExecuteRun(*spec, SubrunSeed(opts.seed, sub), 1.0, trace);
    for (const std::string& f : r.failures) {
      failures.push_back("repetition " + std::to_string(rep) + " (sub-run " +
                         std::to_string(sub) + "): " + f);
    }
    if (rep >= subruns && !(r.tally == reps[static_cast<size_t>(sub)].tally)) {
      failures.push_back("sub-run " + std::to_string(sub) +
                         ": virtual-time results differ between repetitions");
    }
    traced_reps += trace ? 1 : 0;
    reps.push_back(std::move(r));
    if (rep == 0) peak_rss_mb = PeakRssMb();
    const bool enough =
        rep + 1 >= subruns &&
        (!trace_mode || (traced_reps >= 2 && rep + 1 - traced_reps >= 2));
    if (enough && static_cast<double>(HostNowNs() - window_start) / 1e9 >=
                      opts.seconds) {
      break;
    }
  }
  Tally pooled;
  for (int i = 0; i < subruns; ++i) {
    pooled.Merge(reps[static_cast<size_t>(i)].tally);
  }
  std::vector<const RunResult*> untraced;
  std::vector<const RunResult*> traced;
  std::vector<const RunResult*> all;
  for (size_t i = 0; i < reps.size(); ++i) {
    (trace_mode && i % 2 == 1 ? traced : untraced).push_back(&reps[i]);
    all.push_back(&reps[i]);
  }

  std::vector<Rung> rungs;
  if (!trace_mode) rungs = RunLadder(*spec, opts.seed, pooled, &failures);
  MetricValues e2e = EndToEnd(pooled, untraced, all, rungs, peak_rss_mb);
  MetricValues layers =
      trace_mode ? PerLayer(pooled, untraced, traced) : LayerCounts(pooled);
  if (trace_mode) {
    // Per-layer spans of one element share its request id.
    int64_t unlinked = 0;
    for (const RunResult* r : traced) {
      for (const Span& s : r->spans) {
        if (s.session < 0 && (s.kind == SpanKind::kFetch ||
                              s.kind == SpanKind::kDecode)) {
          ++unlinked;
        }
      }
    }
    if (unlinked > 0) {
      failures.push_back(std::to_string(unlinked) +
                         " fetch/decode spans carry no request id");
    }
  }
  const bool correct = failures.empty();

  std::vector<std::pair<std::string, std::string>> stamp = {
      {"nproc", std::to_string(nproc)},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"simd", simd::KernelLevelName(simd::ActiveKernels().level)},
      {"build_type", AVDB_E2E_BUILD_TYPE},
      {"pool_workers", std::to_string(WorkPool::Shared().worker_count())},
      {"compiler", AVDB_E2E_COMPILER},
      {"git_rev", opts.rev},
      {"workload", spec->name},
      {"seed", std::to_string(opts.seed)},
      {"mode", trace_mode ? "traced" : "untraced"},
      {"subruns", std::to_string(subruns)},
      {"sessions", Num(Sum(pooled, "sessions"))},
      {"elements_due", Num(Sum(pooled, "elements_due"))},
      {"repetitions", std::to_string(reps.size())},
  };
  std::printf("# avdb_e2e\n");
  for (const auto& [key, value] : stamp) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const Rung& rung : rungs) {
    std::printf("# rung %gx: %g streams, miss ratio %.5f, aborted %g -> %s\n",
                rung.multiplier, rung.streams, rung.miss_ratio, rung.aborted,
                rung.pass ? "meets SLO" : "misses SLO");
  }
  for (const std::string& f : failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  for (const MetricDef& def : EndToEndMetrics()) {
    if (e2e.count(def.name) == 0) continue;
    std::printf("%s %s %s\n", def.name.c_str(), Num(e2e[def.name]).c_str(),
                def.unit.c_str());
  }
  for (const MetricDef& def : PerLayerMetrics()) {
    if (layers.count(def.name) == 0) continue;
    std::printf("%s %s %s\n", def.name.c_str(), Num(layers[def.name]).c_str(),
                def.unit.c_str());
  }

  if (!opts.out_path.empty()) {
    double wall_elements = 0;
    double wall_s = 0;
    for (const RunResult* r : untraced) {
      wall_elements += Sum(r->tally, "presented");
      wall_s += r->timed_wall_s;
    }
    std::ofstream out(opts.out_path);
    out << "{\"bench\": \"avdb_e2e\", \"host\": {";
    for (size_t i = 0; i < stamp.size(); ++i) {
      out << (i == 0 ? "" : ", ") << Quote(stamp[i].first) << ": "
          << Quote(stamp[i].second);
    }
    out << "}, \"correct\": " << (correct ? "true" : "false")
        << ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i) {
      out << (i == 0 ? "" : ", ") << Quote(failures[i]);
    }
    out << "], \"repetitions\": [";
    for (size_t i = 0; i < reps.size(); ++i) {
      const RunResult& r = reps[i];
      out << (i == 0 ? "" : ", ") << "{\"subrun\": " << i % subruns
          << ", \"traced\": " << (r.spans.empty() ? "false" : "true")
          << ", \"setup_cpu_s\": " << Num(r.setup_cpu_s)
          << ", \"setup_wall_s\": " << Num(r.setup_wall_s)
          << ", \"timed_cpu_s\": " << Num(r.timed_cpu_s)
          << ", \"timed_wall_s\": " << Num(r.timed_wall_s)
          << ", \"ingest_cpu_s\": " << Num(r.ingest_cpu_s)
          << ", \"ingest_wall_s\": " << Num(r.ingest_wall_s)
          << ", \"presented\": " << Num(Sum(r.tally, "presented")) << "}";
    }
    out << "], \"elements_per_wall_s\": "
        << Num(wall_s == 0 ? 0 : wall_elements / wall_s) << ", \"rungs\": [";
    for (size_t i = 0; i < rungs.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "{\"multiplier\": "
          << Num(rungs[i].multiplier) << ", \"streams\": "
          << Num(rungs[i].streams) << ", \"miss_ratio\": "
          << Num(rungs[i].miss_ratio) << ", \"aborted\": "
          << Num(rungs[i].aborted) << ", \"meets_slo\": "
          << (rungs[i].pass ? "true" : "false") << "}";
    }
    out << "], \"end_to_end\": " << JsonObject(EndToEndMetrics(), e2e, false)
        << ", \"per_layer\": " << JsonObject(PerLayerMetrics(), layers, false)
        << "}\n";
  }
  if (trace_mode && !traced.empty()) {
    WriteSpans(opts.trace_path, opts, *traced.back());
  }

  const MetricValues& reported = trace_mode ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              Sum(pooled, "sessions") + Sum(pooled, "puts"),
              Sum(pooled, "aborted_streams") + Sum(pooled, "puts_failed"),
              JsonObject(trace_mode ? PerLayerMetrics() : EndToEndMetrics(),
                         reported, true)
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace avdb::e2e

int main(int argc, char** argv) { return avdb::e2e::Main(argc, argv); }
