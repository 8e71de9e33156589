#!/usr/bin/env python3
"""Builds the chute benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fig6-seq --seed 1 --seconds 34 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the chute libraries from src/ plus the benchmark program)
into the directory named by CARGO_TARGET_DIR, default .bench_build;
later runs only check that the build is current. The program's report goes to
standard output, and its last line is the result object
{"correct", "attempted", "failed", "metrics"}.

--seed only staggers the order in which a pass visits its rows; the
inputs are the same for every seed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig6-seq", "fig6-par", "daemon-warm")
# Longer than any run needs; the binary is killed past it.
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    binary = build_dir / "chute_perfbench"
    log = build_dir / "perfbench-build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--parallel", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            step = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if step.returncode:
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % log)
    return binary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "bench/corpus/Corpus.cpp"):
        if not (ROOT / needed).is_file():
            print("perfbench: %s is missing; run from a full chute checkout"
                  % needed, file=sys.stderr)
            return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    work = build_dir / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.trace:
        cmd += ["--spans", str(build_dir / ("spans-%s-%d.jsonl"
                                            % (args.workload, args.seed)))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
