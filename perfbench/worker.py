"""Run one workload in this (fresh, single-threaded) interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result PATH

With --setup-only it imports rcx from the checkout's src/, builds the
workload's inputs and exits; run.py times that as the set-up. Otherwise
it runs whole rounds of the workload's operations, at least two and
until S seconds have passed, checks every answer, and writes a JSON
result. With --trace 1 it runs one untraced round and then one round
with every layer wrapped, and also writes the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_workloads():
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import rcx

    if Path(rcx.__file__).resolve().parent != (src / "rcx").resolve():
        raise ImportError(f"rcx imported from {rcx.__file__}, not from {src}")
    import checks
    import workloads

    return workloads.WORKLOADS, checks.CheckError


def run_round(ops, check_error, wrong):
    """Time each call, then check its answer; None marks a call that raised."""
    times = []
    for name, call, check in ops:
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # a raising operation is counted as failed, not fatal
            times.append(None)
            print(f"{name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        times.append(time.perf_counter() - t0)
        try:
            check(out)
        except check_error as exc:
            wrong.append(f"{name}: {exc}")
    return times


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    registry, check_error = import_workloads()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = registry[args.workload](args.seed, str(workdir))
        if args.setup_only:
            return 0
        wrong = []
        rounds = []
        result = {}
        if args.trace:
            from spans import Tracer

            rounds.append(run_round(ops, check_error, wrong))
            tracer = Tracer()
            tracer.install()
            try:
                rounds.append(run_round(ops, check_error, wrong))
            finally:
                tracer.uninstall()
            spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(spans)
            result["layers"] = tracer.layer_totals()
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            start = time.perf_counter()
            while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
                rounds.append(run_round(ops, check_error, wrong))
        result.update(
            ops=[name for name, _, _ in ops],
            rounds=rounds,
            wrong=wrong,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
