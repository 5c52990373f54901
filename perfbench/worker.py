"""The benchmark's worker process; run.py starts it, never a user.

    worker.py setup WORKLOAD SEED
        Time importing otpsense and building op 0's inputs in this fresh
        process; print {"setup_s": ...}.
    worker.py run WORKLOAD SEED SECONDS TRACE SPANS_PATH
        Run the closed loop and print one JSON line of raw results: op times,
        failures, peak memory, versions and, when TRACE is 1, layer tables.

A traced run spends half its time untraced and half traced on the same kind
of op, which gives the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

# Nothing from numpy or the package is imported at module level: the setup
# probe must time those imports itself.


def setup(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    import ops

    ops.WORKLOADS[workload](seed).setup()
    wall = time.perf_counter() - start
    import speed

    speed.reference_s()  # first pass warms up
    ref = speed.reference_s()
    return {"setup_s": wall * speed.NOMINAL_S / ref, "wall_s": wall, "ref_s": ref}


MIN_OPS = 20  # the tail percentile needs at least 11 samples
MAX_PROBLEMS = 5


def measure(workload, seconds: float, first: int, min_ops: int = MIN_OPS, tracer=None) -> dict:
    """Closed loop: ops first, first+1, ... until `seconds` have passed and
    at least `min_ops` ran.  Inputs are built and outputs checked outside the
    timed region.  An op fails when it raises or fails its check; it is never
    retried.  op_s holds each op's wall time scaled to the reference speed
    measured around it (see speed.py)."""
    import speed

    walls, refs, problems, failed = [], [speed.reference_s()], [], 0
    index = first
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < min_ops:
        x = workload.inputs(index)
        t0 = time.perf_counter()
        try:
            out = workload.run(x) if tracer is None else tracer.op(index, workload.run, x)
            t1 = time.perf_counter()
            bad = workload.check(x, out)
        except Exception as e:  # a failing op is a result, not a crash
            t1 = time.perf_counter()
            bad = [f"{type(e).__name__}: {e}"]
        walls.append(t1 - t0)
        refs.append(speed.reference_s())
        if bad:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"op {index}: {'; '.join(bad)}")
        index += 1
    # each op is scaled by the mean of the reference passes on either side of it
    op_s = [2 * wall * speed.NOMINAL_S / (before + after)
            for wall, before, after in zip(walls, refs, refs[1:])]
    return {"op_s": op_s, "wall_s": walls, "ref_s": refs, "failed": failed, "problems": problems,
            "next": index}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, spans_path: str) -> dict:
    import ops
    import tracing

    cls = ops.WORKLOADS[workload_name]
    workload = cls(seed, in_process=True) if trace and cls is ops.Sweep else cls(seed)
    try:
        result = {"env": environment(), "run_problems": workload.run_check()}
        measure(workload, 0, first=0, min_ops=1)  # warm-up, discarded
        if not trace:
            result.update(measure(workload, seconds, first=1))
        else:
            result["untraced"] = measure(workload, seconds / 2, first=1)
            with tracing.Tracer() as tracer:
                result.update(measure(workload, seconds / 2, first=result["untraced"]["next"], tracer=tracer))
            result["layers"] = tracer.layers()
            result["hits"] = {name: [tracer.hits[name], tracer.attempts[name]] for name in tracing.HIT_RATIOS}
            tracer.write(spans_path)
    finally:
        workload.close()
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = kib / 1024
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        out = setup(workload, seed)
    else:
        seconds, trace, spans_path = float(argv[3]), argv[4] == "1", argv[5]
        out = run(workload, seed, seconds, trace, spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
