#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

For every workload it runs one process per seed, keeps the raw and the
gated (adjusted) value of every end-to-end metric, and prints for each
metric the median and the quartile spread (Q3 - Q1, as a share of the
median, from ``statistics.quantiles(values, n=4)``) next to the metric's
bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10 --record runs/set-a.json
    python3 perfbench/steadiness.py --compare runs/set-a.json runs/set-b.json
    python3 perfbench/steadiness.py --table runs/set-a.json

Run it from the root of the repository. ``--record`` paths are relative
to perfbench/.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark():
    """BENCHMARK.json at the root of the repository."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    """One benchmark process: the gated metrics and the raw figures."""
    cmd = benchmark()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    gated = {k: v["value"] for k, v in result["metrics"].items()}
    raw = dict(gated)
    text = out.stdout
    m = re.search(r"^raw: throughput_per_s (\S+)\s+latency_p50_ms (\S+)\s+latency_p\d+_ms (\S+)", text, re.M)
    if m:
        raw.update(throughput_per_s=float(m[1]), latency_p50_ms=float(m[2]), latency_tail_ms=float(m[3]))
    m = re.search(r"^setup_s: raw (\S+)", text, re.M)
    if m:
        raw["setup_s"] = float(m[1])
    m = re.search(r"^host_ref_ms: median (\S+)", text, re.M)
    return {
        "workload": workload, "seed": seed, "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "gated": gated, "raw": raw, "host_ref_ms": float(m[1]) if m else None,
    }


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(runs):
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for name, bound in bounds.items():
            gated = [r["gated"][name] for r in mine]
            raw = [r["raw"][name] for r in mine]
            rows.append((workload, name, statistics.median(raw), spread(raw),
                         statistics.median(gated), spread(gated), bound))
    print("| workload | metric | raw median | raw spread | gated median | gated spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w, n, rm, rs, gm, gs, b in rows:
        print(f"| {w} | {n} | {rm:.6g} | {rs:.3f} | {gm:.6g} | {gs:.3f} | {b} | {gs / b:.2f} |")


def table(runs):
    """Every run of a recorded set, raw / gated for each metric."""
    names = [m["name"] for m in benchmark()["end_to_end"]]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        print(f"\n#### {workload} (raw / gated)\n")
        print("| seed | " + " | ".join(names) + " | host_ref_ms |")
        print("|---" * (len(names) + 2) + "|")
        for r in (r for r in runs if r["workload"] == workload):
            cells = [f"{r['raw'][n]:.6g} / {r['gated'][n]:.6g}" for n in names]
            print(f"| {r['seed']} | " + " | ".join(cells) + f" | {r['host_ref_ms']} |")


def compare(a, b):
    spec = {m["name"]: m for m in benchmark()["end_to_end"]}
    print("| workload | metric | median A | median B | B worse by | bound | ok |")
    print("|---|---|---|---|---|---|---|")
    for workload in dict.fromkeys(r["workload"] for r in a):
        for name, m in spec.items():
            ma = statistics.median(r["gated"][name] for r in a if r["workload"] == workload)
            mb = statistics.median(r["gated"][name] for r in b if r["workload"] == workload)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print(f"| {workload} | {name} | {ma:.6g} | {mb:.6g} | {worse:+.3f} | {m['bound']} | "
                  f"{'yes' if worse <= m['bound'] else 'NO'} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in benchmark()["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=benchmark()["run_seconds"])
    ap.add_argument("--record", help="write every run to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two recorded sets")
    ap.add_argument("--table", metavar="SET", help="print every run of a recorded set, then its summary")
    args = ap.parse_args()
    if args.table:
        runs = json.load(open(os.path.join(HERE, args.table)))
        summarize(runs)
        table(runs)
        return
    if args.compare:
        a, b = (json.load(open(os.path.join(HERE, p))) for p in args.compare)
        compare(a, b)
        return
    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            r = run_once(workload, seed, args.seconds)
            runs.append(r)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {r['raw'][k]:.6g}/{v:.6g}" for k, v in r["gated"].items())
                + f"  host_ref_ms {r['host_ref_ms']}", file=sys.stderr, flush=True)
    if args.record:
        with open(os.path.join(HERE, args.record), "w") as f:
            json.dump(runs, f, indent=1)
    summarize(runs)


if __name__ == "__main__":
    main()
