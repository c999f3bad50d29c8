#!/usr/bin/env python3
"""Renders the paper tables of EXPERIMENTS.md from BENCH_paper.json.

Each table sits between a `<!-- paper:NAME -->` line and a
`<!-- /paper:NAME -->` line. The script rewrites what lies between them from
the BENCH_paper.json committed at the repository root, which
bench/bench_paper.cpp writes, and exits 1 when that changed the file, so a
run on a copy fails whenever the file and the JSON disagree:

    python3 tools/render_experiments.py EXPERIMENTS.md

Numbers keep the decimals the JSON states them with.
"""

import json
import os
import re
import sys

JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCH_paper.json")
MARKER = re.compile(r"<!-- (/?)paper:(\w+) -->$")


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |"
              for row in rows]
    return lines


def count(n):
    return f"{int(n):,}"


def rate(per_second):
    """Host throughput, rounded: 19 k, 838 k, 1.1 M."""
    v = float(per_second)
    if v >= 1e6:
        return f"{v / 1e6:.1f} M"
    return f"{v / 1e3:.0f} k" if v >= 1e3 else f"{v:.0f}"


def fig1(doc):
    video = {(t["platform"], t["resync"]): t for t in doc["fig1_tracks"]
             if t["track"] == "videoTrack"}
    rows = []
    for run in doc["fig1_runs"]:
        t = video[(run["platform"], run["resync"])]
        presented = t["presented"]
        if run["skipped"]:
            presented = f"{presented} ({run['skipped']} skipped)"
        rows.append([f"{run['platform']}, resync "
                     f"{'on' if run['resync'] else 'off'}",
                     presented, f"{t['mean_late_ms']} ms",
                     f"{run['end_skew_ms']} ms", run["resyncs"]])
    return (["```"] + doc["fig1_timeline"] + ["```", ""] +
            table(["configuration", "video frames presented (of 60)",
                   "video mean-late", "skew at end", "resyncs"], rows))


def fig2(doc):
    rows = [[r["configuration"], r["frames"], r["fps"],
             count(r["compressed_bytes"]) +
             (" (internal)" if r["configuration"] != "flat chain" else ""),
             count(r["raw_bytes"])] for r in doc["fig2"]]
    trace = doc["fig2_trace"]
    return (table(["configuration", "frames", "fps",
                   "bytes on compressed hop", "bytes on raw hop"], rows) +
            ["", f"The raw hop carries {doc['fig2_raw_per_compressed_byte']}"
                 "× the compressed hop's bytes. The traced run presents "
                 f"{trace['frames']} frames and records {trace['events']} "
                 f"events, {trace['degrade_events']} of them degradation "
                 "actions."])


def fig3(doc):
    f = doc["fig3"]
    steps = [
        [f"`select` over {f['catalog']} objects",
         f"{f['hits']} reference, via the equality index"],
        ["time to first presented frame",
         f"{f['first_frame_ms']} ms (= source preroll)"],
        ["stream", f"{f['frames']}/50 frames over {f['stream_s']} s, "
                   f"{f['fps']} fps, {f['late']} late, "
                   f"{count(f['bytes'])} bytes over Ethernet"],
        ["client concurrency", f"{f['queries_during_playback']} catalog "
                               "queries issued *during* playback"],
    ]
    pools = [[f"`{p['pool']}`", count(p["available"]), count(p["capacity"])]
             for p in doc["fig3_pools"]]
    return (table(["step", "measured"], steps) + [""] +
            table(["pool during playback", "available", "capacity"], pools))


def fig4(doc):
    rows = [[r["network"], r["client_speed"],
             f"{r['client_fps']} / {r['client_misses']} / {r['client_late']}",
             f"{r['db_fps']} / {r['db_misses']} / {r['db_late']}",
             r["winner"]] for r in doc["fig4"]]
    return table(["network", "client speed",
                  "client-render fps / misses / late",
                  "db-render fps / misses / late", "winner"], rows)


def table1(doc):
    fps = {r["activity"]: r["qcif_fps"] for r in doc["host"]["table1"]}
    rows = [[r["activity"], r["kind"], r["in"], r["out"],
             rate(fps[r["activity"]])] for r in doc["table1"]]
    return table(["activity", "kind (derived)", "in", "out",
                  "QCIF fps (host CPU)"], rows)


def placement(doc):
    rows = [[r["configuration"], r["fps"], r["misses"], f"{r['late_ms']} ms",
             f"{r['copy_s']} s" if "copy_s" in r else "–"]
            for r in doc["placement"]]
    return table(["configuration", "fps", "deadline misses", "mean late",
                  "copy cost"], rows)


def admission(doc):
    keys = ["clients", "on_started", "on_fps", "on_misses", "off_started",
            "off_fps", "off_misses"]
    return table(["clients", "admitted (ON)", "fps (ON)", "misses (ON)",
                  "started (OFF)", "fps (OFF)", "misses (OFF)"],
                 [[r[k] for k in keys] for r in doc["admission"]])


def quality(doc):
    decode = {r["requested"]: r["decode_ms"] for r in doc["host"]["quality"]}
    rows = [[r["requested"], r["layers"], count(r["bytes_per_frame"]),
             decode[r["requested"]], r["mean_err"]] for r in doc["quality"]]
    stored = doc["quality_stored"]
    return ([f"Stored once as {count(stored['bytes'])} bytes, "
             f"{stored['raw_per_stored_byte']}× smaller than raw.", ""] +
            table(["requested quality", "layers", "bytes/frame",
                   "decode ms (host CPU)", "mean error"], rows))


def async_iface(doc):
    rows = [[r["interface"], f"{r['first_frame_s']} s",
             f"{r['blocked_s']} s", f"{r['total_s']} s"]
            for r in doc["async"]]
    return table(["interface", "first frame", "client blocked", "total"],
                 rows)


def compression(doc):
    rows = [[r["representation"], f"{r['rate_kb_s']} KB/s",
             "yes" if r["fits_disk"] else "NO",
             "yes" if r["fits_cdrom"] else "NO", r["streams_per_disk"]]
            for r in doc["compression"]]
    return table(["representation", "stored rate", "fits disk?",
                  "fits CD-ROM?", "streams/disk"], rows)


def cache(doc):
    def size(kb):
        return "none" if kb == 0 else (
            f"{kb // 1024} MB" if kb >= 1024 else f"{kb} KB")
    rows = [[size(r["cache_kb"]), r["hit_rate"], f"{r['device_busy_s']} s",
             r["late_frames"]] for r in doc["cache"]]
    return table(["cache", "hit rate", "device busy", "late frames"], rows)


def gop(doc):
    rows = [[r["gop"], f"{r['ratio']}×", r["decodes_per_cue"], r["mean_err"]]
            for r in doc["gop"]]
    return table(["GOP", "compression vs raw",
                  "frames decoded per random cue", "mean error"], rows)


RENDERERS = {
    "fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4,
    "table1": table1, "placement": placement, "admission": admission,
    "quality": quality, "async": async_iface, "compression": compression,
    "cache": cache, "gop": gop,
}


def render(lines, doc):
    """`lines` with every marked table rendered anew."""
    out, open_name = [], None
    for number, line in enumerate(lines, 1):
        m = MARKER.match(line.strip())
        if open_name is None:
            out.append(line)
            if m and not m.group(1):
                open_name = m.group(2)
                if open_name not in RENDERERS:
                    sys.exit(f"line {number}: unknown table {open_name!r}")
                out += RENDERERS[open_name](doc)
        elif m and m.group(1) and m.group(2) == open_name:
            out.append(line)
            open_name = None
    if open_name is not None:
        sys.exit(f"table {open_name!r} is never closed")
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    path = sys.argv[1]
    with open(JSON_PATH, encoding="utf-8") as f:
        doc = json.load(f, parse_float=str)
    with open(path, encoding="utf-8") as f:
        before = f.read()
    after = "\n".join(render(before.split("\n"), doc))
    if after == before:
        return 0
    with open(path, "w", encoding="utf-8") as f:
        f.write(after)
    print(f"{path}: re-rendered its paper tables from "
          f"{os.path.normpath(JSON_PATH)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
