"""Run one workload of the royden benchmark and print its metrics.

    python3 bench/run.py --workload exhaust|sweep|walk|cli --seed N --seconds S --trace 0|1

Run it from a checkout that holds src/royden; nothing needs installing.
Set-up is timed in several fresh processes (interpreter start, `import
royden`, inputs generated) and reported as their median; the last of
them also runs the passes. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The full record, with the machine block, every pass and
every failure, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def spawn(args, extra, env, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), *extra,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker ran past {DEADLINE_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("exhaust", "sweep", "walk", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "royden" / "__init__.py").is_file():
        print(f"bench: {ROOT / 'src' / 'royden'} not found; run from a royden checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out_dir = BENCH / "out"
    work = out_dir / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workdir", str(work)]
    # set-up samples are taken before and after the passes, so that one slow
    # stretch of a shared machine does not hold all of them
    try:
        setups = [spawn(args, common + ["--setup-only"], env, deadline) for _ in range(SETUPS // 2)]
        extra = ["--spans-out", str(out_dir / f"{tag}.spans.jsonl")] if args.trace else []
        res = spawn(args, common + extra, env, deadline)
        setups += [spawn(args, common + ["--setup-only"], env, deadline) for _ in range(SETUPS - 1 - SETUPS // 2)]
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setup_samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
    import_samples = [s["import_s"] for s in setups] + [res["import_s"]]

    if args.trace:
        value, pct, count = res["cmd_tail"]
        values = dict(res["layers"])
        values.update({
            "cli.import_s": statistics.median(import_samples),
            "cli.cmd_tail_s": value,
            "cli.cmd_tail_pct": pct,
            "cli.cmd_samples": count,
            "cmd_p50_s": res["cmd_p50_s"],
            "trials_per_s": res["trials_per_s"],
            "error_rate": res["error_rate"],
        })
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": res["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "args": vars(args),
        "machine": res.pop("machine"),
        "setup_samples_s": setup_samples,
        "import_samples_s": import_samples,
        "metrics": metrics,
        "worker": res,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    plain = [p["wall_s"] for p in res["passes"] if p["variant"] == "plain"]
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{args.workload} seed={args.seed}: {len(plain)} plain passes, wall_s median "
          f"{res['wall_s']:.4f} of {[round(w, 4) for w in plain]}; setup_s median of {len(setup_samples)}; "
          f"error_rate {res['error_rate']:.4f}; cmd_p50_s {res['cmd_p50_s']:.4f}; "
          f"trials_per_s {res['trials_per_s']:.1f}; record in {out_dir / (tag + '.json')}")
    for failure, count in res["failures"].items():
        print(f"failed x{count}: {failure}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
