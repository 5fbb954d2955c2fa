"""One benchmark process: set a workload up, run its passes, check the outputs.

Started by bench/run.py with PYTHONPATH pointing at the checkout's src/.
The last line of stdout is one JSON object. With --setup-only the
process stops right after set-up; run.py starts several such processes
to sample set-up time, then one that also runs the passes.

A pass runs the workload's op list once, each op after the previous one
returns. Passes repeat until --seconds have gone by. With --trace 1 the
passes alternate between traced and plain ones (and for `cli` a third,
plain pass with OPENBLAS_NUM_THREADS=1), so the tracing overhead is the
difference of their medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path


def tail(samples):
    """Highest percentile with at least ten samples above it, as (value, percentile, count).

    With ten samples or fewer no such percentile exists and the smallest
    sample is returned with its percentile.
    """
    xs = sorted(samples)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "caches": caches,
    }


def run_pass(ops, ctx, number: int, variant: str) -> dict:
    tracer = ctx.tracer
    traced = variant == "traced"
    ctx.variant = variant
    results = []
    if traced:
        tracer.install()
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            tracer.op = f"{number}.{i}"
            span = tracer.open("bench.op") if traced else None
            t = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, exc
            dur = time.perf_counter() - t
            if traced:
                tracer.close(span)
            results.append((op, out, err, dur))
    finally:
        if traced:
            tracer.uninstall()
    return {"variant": variant, "wall_s": time.perf_counter() - start, "results": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    ap.add_argument("--workdir", required=True, help="directory for generated input files")
    ap.add_argument("--spans-out", help="write the recorded spans here (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import royden

    import_s = time.perf_counter() - t
    import workloads
    from tracer import Tracer, layer_metrics

    ctx = workloads.Context(random.Random(args.seed), Path(args.workdir), Tracer())
    ops = workloads.WORKLOADS[args.workload](ctx)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    cycle = ["plain"]
    if args.trace:
        cycle = ["traced", "plain"] + (["blas1"] if args.workload == "cli" else [])
    # stop when another pass would end more than half a pass past --seconds
    passes = []
    start = time.monotonic()
    while len(passes) < len(cycle) or (
        time.monotonic() - start + 0.5 * passes[-1]["wall_s"] < args.seconds
    ):
        passes.append(run_pass(ops, ctx, len(passes), cycle[len(passes) % len(cycle)]))

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # outputs are checked after the passes, so oracles cost neither time nor memory above
    attempted = failed = incorrect = 0
    failures: dict = {}
    for p in passes:
        for op, out, err, _ in p["results"]:
            attempted += 1
            if err is not None:
                msg = f"{type(err).__name__}: {err}"
                incorrect += not isinstance(err, royden.RoydenError)
            else:
                try:
                    msg = op.check(out)
                except Exception as exc:  # a crashing check is a missed check
                    msg = f"check raised {type(exc).__name__}: {exc}"
                incorrect += msg is not None
            if msg is not None:
                failed += 1
                key = f"{op.name}: {msg}"
                failures[key] = failures.get(key, 0) + 1

    def walls(variant):
        return [p["wall_s"] for p in passes if p["variant"] == variant]

    def op_times(variant):
        return [r[3] for p in passes if p["variant"] == variant for r in p["results"]]

    plain = [p for p in passes if p["variant"] == "plain"]
    wall_s = statistics.median(walls("plain"))
    trials = sum(r[1].trials for r in plain[0]["results"] if isinstance(r[1], royden.WalkEstimate))
    cmd_tail = tail(op_times("plain"))
    result = {
        "machine": machine(),
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": incorrect == 0,
        "failures": failures,
        "error_rate": failed / attempted,
        "trials_per_s": trials / wall_s,
        "cmd_p50_s": statistics.median(op_times("plain")),
        "cmd_tail": cmd_tail,
        "passes": [
            {"variant": p["variant"], "wall_s": p["wall_s"], "ops": [[r[0].name, r[3]] for r in p["results"]]}
            for p in passes
        ],
    }
    if args.trace:
        spans = ctx.tracer.spans
        n_traced = len(walls("traced"))
        layers = layer_metrics(spans, n_traced)
        layers["bench.trace_overhead_s"] = statistics.median(walls("traced")) - wall_s
        blas1 = op_times("blas1")
        layers["cli.blas1_cmd_p50_s"] = statistics.median(blas1) if blas1 else 0.0
        layers["cli.blas1_cmd_tail_s"] = tail(blas1)[0] if blas1 else 0.0
        result["layers"] = layers
        op_ids: dict = {}
        for number, p in enumerate(passes):
            for i, r in enumerate(p["results"]):
                op_ids.setdefault(r[0].name, set()).add(f"{number}.{i}")
        result["per_op"] = {name: layer_metrics(spans, n_traced, ids) for name, ids in op_ids.items()}
        if args.spans_out:
            ctx.tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
