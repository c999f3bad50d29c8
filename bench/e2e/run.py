#!/usr/bin/env python3
"""Build and run the avdb_e2e benchmark; repeat it; compare two summaries.

One run (what BENCHMARK.json's command does), from the repository root:

    python3 bench/e2e/run.py --workload vod_hot --seed 1 --seconds 10 --trace 0

builds build-e2e/avdb_e2e from source when needed (build log on stderr),
runs it, checks that the metrics it reports are exactly the ones
BENCHMARK.json lists for the mode (--trace 0: end_to_end, --trace 1:
per_layer), and passes its output through. The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.

    python3 bench/e2e/run.py repeat [--runs 5] [--seed 1 | --seeds 1,2,3]
                                    [--seconds 10] [--out summary.json]
                                    [workload ...]

runs each workload several times and prints every end-to-end metric's
median and interquartile range (IQR). With one seed it fails when a host
metric's IQR exceeds its bound or a virtual-time metric differs between
runs; with --seeds it fails when a metric's IQR exceeds a third of its
bound (set-up time excepted).

    python3 bench/e2e/run.py compare A.json B.json

prints, per workload and metric, B's median against A's as a share of A's
and the metric's bound, and fails when any metric got worse by more.
"""

import fcntl
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "avdb_e2e")
RUN_TIMEOUT_S = 170
# Metrics measured on the host (wall clock, memory); every other end-to-end
# metric is virtual time or a count and must repeat exactly for one seed.
HOST_METRICS = {"elements_per_host_s", "ingest_mb_per_host_s", "setup_s",
                "peak_rss_mb"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; the log goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no avdb sources next to bench/e2e; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "avdb_e2e"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace, out_path, rev):
    """Runs the binary once; returns (exit code, stdout lines)."""
    tag = "%s-%s-%s" % (workload, seed, "traced" if trace else "untraced")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--rev", rev,
           "--out", out_path or os.path.join(BUILD, "result-%s.json" % tag)]
    if trace:
        cmd += ["--trace", os.path.join(BUILD, "spans-%s.json" % tag)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("avdb_e2e exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        fail("avdb_e2e printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("avdb_e2e's last line is not a JSON object")


def check_metrics(result, defs):
    """The reported metrics must be exactly `defs`, finite, with their units."""
    want = {d["name"]: d["unit"] for d in defs}
    got = result.get("metrics", {})
    problems = []
    if set(got) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing %s,"
                        " extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s has no finite value" % name)
        if name in want and m.get("unit") != want[name]:
            problems.append("%s unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), want[name]))
    return problems


def run_main(argv):
    args = {"--workload": None, "--seed": None, "--seconds": None,
            "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            fail("unknown argument " + flag)
        args[flag] = next(it, None)
    if None in args.values() or args["--trace"] not in ("0", "1"):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args["--workload"] not in names:
        fail("unknown workload %s (have %s)" % (args["--workload"], names))
    build()
    trace = args["--trace"] == "1"
    code, lines = run_once(args["--workload"], args["--seed"],
                           args["--seconds"], trace, None, git_rev())
    result = parse_result(lines)
    problems = check_metrics(
        result, bench["per_layer"] if trace else bench["end_to_end"])
    for line in lines[:-1]:
        print(line)
    if problems:
        for p in problems:
            print("run.py: " + p, file=sys.stderr)
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    sys.exit(code)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def repeat_main(argv):
    runs, seeds, seconds, out = 5, None, 10, None
    seed = "1"
    workloads = []
    it = iter(argv)
    for arg in it:
        if arg == "--runs":
            runs = int(next(it))
        elif arg == "--seed":
            seed = next(it)
        elif arg == "--seeds":
            seeds = next(it).split(",")
        elif arg == "--seconds":
            seconds = next(it)
        elif arg == "--out":
            out = next(it)
        else:
            workloads.append(arg)
    bench = load_benchmark()
    defs = {d["name"]: d for d in bench["end_to_end"]}
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    seed_list = seeds or [seed] * runs
    build()
    rev = git_rev()
    summary = {"git_rev": rev, "seeds": seed_list, "seconds": seconds,
               "workloads": {}}
    problems = []
    for w in workloads:
        samples = {name: [] for name in defs}
        for i, s in enumerate(seed_list):
            code, lines = run_once(w, s, seconds, False,
                                   os.path.join(BUILD, "repeat-%s-%d.json"
                                                % (w, i)), rev)
            result = parse_result(lines)
            if code != 0 or not result.get("correct"):
                problems.append("%s seed %s: run failed its checks" % (w, s))
            for name in defs:
                samples[name].append(result["metrics"][name]["value"])
        rows = {}
        print("\n%s  (%d runs, seeds %s)" % (w, len(seed_list),
                                             ",".join(seed_list)))
        print("  %-26s %14s %10s %8s %8s" % ("metric", "median", "IQR/med",
                                              "bound", "unit"))
        for name, values in samples.items():
            d = defs[name]
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            rows[name] = {"values": values, "median": med, "q1": q1,
                          "q3": q3, "unit": d["unit"], "better": d["better"],
                          "bound": d["bound"]}
            flag = ""
            if seeds is None:
                if name in HOST_METRICS and name != "setup_s" and \
                        spread > d["bound"]:
                    flag = "  IQR > bound"
                if name not in HOST_METRICS and len(set(values)) > 1:
                    flag = "  differs between runs of one seed"
            elif name != "setup_s" and spread > d["bound"] / 3:
                flag = "  IQR > bound/3"
            if flag:
                problems.append("%s %s:%s" % (w, name, flag))
            print("  %-26s %14.6g %10.4f %8.3f %8s%s"
                  % (name, med, spread, d["bound"], d["unit"], flag))
        summary["workloads"][w] = rows
    if out:
        with open(out, "w") as f:
            json.dump(summary, f, indent=1)
    if problems:
        print("\nFAILED:\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("\nall repeatability checks passed")


def compare_main(argv):
    if len(argv) != 2:
        fail("usage: run.py compare A.json B.json")
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    regressions = []
    print("%-14s %-26s %14s %14s %9s %7s" % ("workload", "metric", "A median",
                                             "B median", "worse by", "bound"))
    for w, rows in a["workloads"].items():
        for name, ra in rows.items():
            rb = b["workloads"].get(w, {}).get(name)
            if rb is None:
                continue
            base = abs(ra["median"]) or 1.0
            delta = (rb["median"] - ra["median"]) / base
            worse = -delta if ra["better"] == "higher" else delta
            verdict = "REGRESSION" if worse > ra["bound"] else ""
            if verdict:
                regressions.append("%s %s" % (w, name))
            print("%-14s %-26s %14.6g %14.6g %+9.4f %7.3f %s"
                  % (w, name, ra["median"], rb["median"], worse, ra["bound"],
                     verdict))
    if regressions:
        print("\nregressed beyond bound: " + ", ".join(regressions))
        sys.exit(1)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "repeat":
        repeat_main(argv[1:])
    elif argv and argv[0] == "compare":
        compare_main(argv[1:])
    else:
        run_main(argv)


if __name__ == "__main__":
    main()
