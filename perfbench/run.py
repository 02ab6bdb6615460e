"""Benchmark for rcx: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload lp-bounds --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; rcx is imported from its src/. The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("lp-bounds", "family-certify", "small-oracles")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0

PER_LAYER = [
    ("linprog.solve_lp", ("calls", "self_s")),
    ("relaxations.bounding_box", ("calls", "self_s")),
    ("relaxations.irredundant_count", ("self_s",)),
    ("linprog.recession_nontrivial", ("self_s",)),
    ("linprog.segment_hits_hull", ("calls", "self_s", "hit_ratio")),
    ("linprog.conv_membership", ("calls", "self_s", "in_ratio")),
    ("linprog.strict_separation", ("calls", "self_s")),
    ("families.generate", ("self_s", "points")),
    ("families.digest", ("self_s",)),
    ("rational.affine_hull", ("self_s", "points")),
    ("fileio.write_doc", ("self_s", "bytes")),
    ("fileio.read_doc", ("self_s",)),
    ("relaxations.enumerate_lattice", ("self_s", "points")),
    ("hiding.verify_hiding", ("self_s",)),
    ("hiding.max_hiding_in_box", ("self_s",)),
    ("separation.bound_report", ("self_s",)),
    ("separation.jeroslow_index", ("self_s",)),
    ("separation.rationalize_halfspace", ("self_s",)),
    ("separation.conflict_clique_bound", ("self_s",)),
    ("cli.run", ("self_s",)),
]
UNITS = {"calls": "count", "self_s": "s", "points": "count", "bytes": "B",
         "hit_ratio": "ratio", "in_ratio": "ratio"}
# ratio -> the counter it divides by the call count
RATIO_OF = {"hit_ratio": "hits", "in_ratio": "inside"}


class BenchError(RuntimeError):
    pass


def worker_cmd(args, *extra):
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def run_worker(cmd, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)


def measure_setup(args, deadline):
    """Median wall time of fresh interpreters that import rcx and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        run_worker(worker_cmd(args, "--setup-only"), deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(res):
    layers = res["layers"]
    metrics = {}
    for layer, names in PER_LAYER:
        totals = layers[layer]
        for name in names:
            if name in RATIO_OF:
                calls = totals["calls"]
                value = totals.get(RATIO_OF[name], 0) / calls if calls else 0.0
            else:
                value = totals.get(name, 0)
            metrics[f"{layer}.{name}"] = {"value": value, "unit": UNITS[name]}
    untraced, traced = (sum(t for t in r if t is not None) for r in res["rounds"])
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics


def end_to_end_metrics(res, setup_s):
    # each operation's fastest round, summed: one burst of contention on
    # a shared host slows one round's copy of an operation, not both
    per_op = zip(*res["rounds"])
    wall = sum(min(ts) for ts in per_op if None not in ts)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rcx" / "__init__.py").is_file():
        print(f"error: no rcx sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"worker-{tag}.json"
    try:
        setup_s = None if args.trace else measure_setup(args, deadline)
        run_worker(worker_cmd(args, "--seconds", str(args.seconds),
                              "--trace", str(args.trace),
                              "--result", str(result_path)),
                   deadline - time.monotonic())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    rounds = res["rounds"]
    attempted = sum(len(r) for r in rounds)
    failed = sum(t is None for r in rounds for t in r)
    for line in res["wrong"]:
        print(f"WRONG {line}")
    if args.trace:
        metrics = layer_metrics(res)
    else:
        metrics = end_to_end_metrics(res, setup_s)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(res['ops'])} operations, {failed} of {attempted} failed, "
          f"{len(res['wrong'])} wrong")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print(f"spans written to {res['spans_file']}")
    summary = {"correct": not res["wrong"], "attempted": attempted,
               "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
