"""Benchmark of otpsense: one closed-loop client per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: mesh, attack, sweep, leakage (see
perfbench/README.md).  The package is imported from ./src.  Every child
process runs with one BLAS and one OpenMP thread.

With --trace 0 it prints the end-to-end metrics: ops_per_s, op_s.p50,
op_s.tail, setup_s, peak_rss_mb and ok_ratio.  With --trace 1 it prints the
per-layer metrics of a traced run and writes its spans to perfbench/out/.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import procs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("mesh", "attack", "sweep", "leakage")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def call_worker(args: list[str]) -> dict:
    proc = procs.run([sys.executable, str(HERE / "worker.py")] + args, child_env(), CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value,
    percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} ops are too few for a tail percentile")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def end_to_end(raw: dict, setups: list[dict]) -> dict:
    times = raw["op_s"]
    attempted, failed = len(times), raw["failed"]
    value, pct = tail(times)
    print(f"# op_s.tail is p{pct:.1f}: {TAIL_BEYOND} of {attempted} samples beyond it")
    print(f"# unscaled: op wall p50 {statistics.median(raw['wall_s']):.6g} s, "
          f"setup wall p50 {statistics.median(s['wall_s'] for s in setups):.6g} s, "
          f"reference loop p50 {statistics.median(raw['ref_s']):.6g} s")
    setup_s = [s["setup_s"] for s in setups]
    return {
        "ops_per_s": ((attempted - failed) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (value, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(raw: dict) -> dict:
    layers = raw["layers"]
    ops = len(raw["op_s"])
    op_time = sum(row["self_s"] for row in layers.values())  # the op spans' total duration
    out = {}
    for name in tracing.NAMES:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / ops, "count/op")
        out[f"{name}.self_s"] = (row["self_s"] / ops, "s/op")
        out[f"{name}.share"] = (row["self_s"] / op_time, "ratio")
    for name, (hits, attempts) in raw["hits"].items():
        out[f"{name}.hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
        out[f"{name}.hit_base"] = (attempts / ops, "count/op")
    untraced = statistics.median(raw["untraced"]["op_s"])
    traced = statistics.median(raw["op_s"])
    out["trace.overhead"] = (traced / untraced, "ratio")
    out["trace.untraced_op_s.p50"] = (untraced, "s")
    out["trace.traced_op_s.p50"] = (traced, "s")
    out["trace.ops"] = (ops, "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "otpsense" / "__init__.py").is_file():
        print(f"error: no otpsense package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.jsonl"  # the latest traced run's
    try:
        setups = []
        if not args.trace:
            setups = [call_worker(["setup", args.workload, str(args.seed)]) for _ in range(SETUP_REPEATS)]
        raw = call_worker([
            "run", args.workload, str(args.seed), str(args.seconds), str(args.trace),
            str(spans),
        ])
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    env = dict(raw["env"], src_lines=src_lines())
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for problem in raw["run_problems"] + raw["problems"]:
        print(f"# FAILED {problem}")
    if args.trace:
        if args.workload == "sweep":
            print("# sweep traced in-process through cli.main with --workers 1: "
                  "wrappers in forked pool workers would lose their counts")
        print(f"# spans written to {spans}")
        metrics = per_layer(raw)
        attempted = len(raw["op_s"]) + len(raw["untraced"]["op_s"])
        failed = raw["failed"] + raw["untraced"]["failed"]
    else:
        metrics = end_to_end(raw, setups)
        attempted, failed = len(raw["op_s"]), raw["failed"]
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not raw["run_problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
