#!/usr/bin/env python3
"""Noise report for the chute benchmark.

Runs the benchmark once per seed on each workload and reports, per
workload and end-to-end metric, the median and quartiles of the runs and
their spread (interquartile distance as a share of the median). A metric
whose spread exceeds its bound in BENCHMARK.json is flagged NOISY; one
above a third of its bound is flagged wide.

    python3 perfbench/noise_report.py --seeds 1-10 --out .bench_build/noise-a
    python3 perfbench/noise_report.py --from .bench_build/noise-a
    python3 perfbench/noise_report.py --from .bench_build/noise-a \
        --from .bench_build/noise-b

With two --from sets it also checks that the second set's median is
within the bound of the first's, in either direction, for every metric. Every
run must be correct with no failed operation, and on workloads that
print a count fingerprint, the fingerprint must be the same in every
run (counts repeat across runs, not only across the passes of one).
Exits 1 when anything is flagged NOISY, drifts, or fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT = re.compile(r"count fingerprint ([0-9a-f]+) \(repeats\)")


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(workloads, seeds, seconds, out):
    for w in workloads:
        (out / w).mkdir(parents=True, exist_ok=True)
        for s in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(s), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            (out / w / ("%d.txt" % s)).write_text(proc.stdout + proc.stderr)
            print("ran %s seed %d: exit %d" % (w, s, proc.returncode),
                  file=sys.stderr)


def load_set(path):
    """{workload: [(result, fingerprint or None, file)]}"""
    runs = {}
    for f in sorted(Path(path).glob("*/*.txt")):
        lines = [l for l in f.read_text().splitlines() if l.strip()]
        result = None
        for line in reversed(lines):
            if line.startswith("{"):
                result = json.loads(line)
                break
        fp = None
        for line in lines:
            m = FINGERPRINT.search(line)
            if m:
                fp = m.group(1)
        runs.setdefault(f.parent.name, []).append((result, fp, f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(bench, runs, label):
    bad = False
    medians = {}
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    print("== %s" % label)
    for w in sorted(runs):
        rs = runs[w]
        results = [r for r, _, _ in rs if r is not None]
        incorrect = [str(f) for r, _, f in rs
                     if r is None or not r["correct"] or r["failed"]]
        fps = {fp for _, fp, _ in rs}
        print("%s: %d runs" % (w, len(rs)))
        if incorrect:
            bad = True
            print("  FAILED runs: %s" % ", ".join(incorrect))
        if None not in fps:
            if len(fps) == 1:
                print("  counts repeat across runs (fingerprint %s)"
                      % fps.pop())
            else:
                bad = True
                print("  COUNTS DIFFER across runs: %s" % sorted(fps))
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if not values:
                bad = True
                print("  %-16s MISSING" % name)
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            if spread > bound:
                flag, bad = "NOISY", True
            elif spread > bound / 3:
                flag = "wide"
            else:
                flag = "ok"
            medians[(w, name)] = med
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g %-6s"
                  " spread %5.1f%%  bound %4.1f%%  %s"
                  % (name, med, q1, q3, spec["unit"], 100 * spread,
                     100 * bound, flag))
    return medians, bad


def compare(bench, first, second):
    bad = False
    specs = {m["name"]: m for m in bench["end_to_end"]}
    print("== second set against first")
    for (w, name), m1 in sorted(first.items()):
        m2 = second.get((w, name))
        if m2 is None:
            continue
        spec = specs[name]
        # Two sets of the same code must agree both ways: a second set
        # far better than the first is as much a sign of noise as one
        # far worse.
        change = (m2 - m1) / m1
        worse = change if spec["better"] == "lower" else -change
        flag = "ok"
        if abs(change) > spec["bound"]:
            flag, bad = "DRIFT", True
        print("  %-14s %-16s %-12.6g -> %-12.6g %+6.1f%% worse  %s"
              % (w, name, m1, m2, 100 * worse, flag))
    return bad


def main():
    ap = argparse.ArgumentParser(description="Noise report for perfbench.")
    ap.add_argument("--from", dest="sets", action="append", default=[],
                    help="directory of saved runs (<workload>/<seed>.txt)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", default=".bench_build/noise")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = args.sets
    if not sets:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        out = Path(args.out)
        if not out.is_absolute():
            out = ROOT / out
        run_set(workloads, seed_list(args.seeds),
                args.seconds or bench["run_seconds"], out)
        sets = [str(out)]

    bad = False
    all_medians = []
    for s in sets:
        medians, b = report(bench, load_set(s), s)
        all_medians.append(medians)
        bad |= b
    if len(all_medians) == 2:
        bad |= compare(bench, all_medians[0], all_medians[1])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
