"""Benchmark of cfsearch's exact searches, baselines and sweep harness.

    python3 perfbench/run.py --workload vector --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One invocation measures one workload (vector, mimo, oracle, sweep).
The run is split into SEGMENTS worker processes started one after another;
each sets up (import, input generation, warm-up), then calls the public
search function one operation at a time in a closed loop over whole passes
of the seeded corpus until its share of --seconds is used up.  After the
workers have exited, every answer is checked here against the independent
computations in checks.py.  The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1; spans go to perfbench/out/).  The exit code is 0 only
when the run completed; operations that raised or whose answer fails a
check count in "failed", and a wrong answer also sets "correct" to false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Worker processes per run.  Set-up time and peak RSS are medians over
#: them, so one slow start or one large channel does not set the figure.
SEGMENTS = 5
#: A run must end within this many seconds of its start.
DEADLINE_S = 170.0
#: Show at most this many failed answers on stderr.
MAX_REPORTED = 5


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_SRC=SRC)
    # tiny matrices: one BLAS thread is steadier on a shared 2-core host
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    # run_sweep fans out to a process pool when this is set; measure it serial
    env.pop("CFSEARCH_WORKERS", None)
    return env


def spawn(args, segment: int, first_pass: int, deadline: float) -> tuple[float, dict]:
    """Run one segment; return (seconds from start to READY, its report)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / SEGMENTS), "--trace", str(args.trace),
        "--segment", str(segment), "--first-pass", str(first_pass),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker exited with code {rc} ({'killed at the deadline' if rc < 0 else 'see stderr'})")
    return setup, json.loads(rest.splitlines()[-1])


def check_answers(workload: str, seed: int, n: int, answers: list[dict]) -> tuple[int, bool]:
    """Check every answer of passes 0, 1, ... (n each); return (failed, correct)."""
    import checks
    import workloads

    failed, wrong = 0, 0
    for p in range(len(answers) // n):
        for op, ans in zip(workloads.pass_ops(workload, seed, p), answers[p * n : (p + 1) * n]):
            cell = op.cell
            if "error" in ans:
                problems = [ans["error"]]
            elif workload == "sweep":
                problems = checks.check_sweep(cell.ring, cell.L, op.H, op.P, ans["records"])
            else:
                problems = checks.check_search(cell.ring, op.H, op.P, ans, exact=True)
            if problems:
                failed += 1
                wrong += "error" not in ans
                if failed <= MAX_REPORTED:
                    print(f"FAILED pass {p} {cell}: {'; '.join(problems)}", file=sys.stderr)
    return failed, wrong == 0


def end_to_end(completed: int, timed_s: float, latencies: list[float], rss: list[float], setups: list[float]) -> dict:
    lat_ms = sorted(1e3 * t for t in latencies)
    return {
        "ops_per_s": {"value": completed / timed_s, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("vector", "mimo", "oracle", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "cfsearch", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from a cfsearch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setups, reports = [], []
    passes = 0
    try:
        for segment in range(SEGMENTS):
            setup, report = spawn(args, segment, passes, deadline)
            setups.append(setup)
            reports.append(report)
            passes += len(report["pass_s"])
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    n = reports[0]["pass_ops"]
    answers = [a for r in reports for a in r["answers"]]
    pass_s = [t for r in reports for t in r["pass_s"]]
    failed, correct = check_answers(args.workload, args.seed, n, answers)
    if args.trace:
        import tracing

        totals = {"incl": {}, "self": {}, "counts": {}}
        for r in reports:
            for part, values in r["totals"].items():
                for key, v in values.items():
                    totals[part][key] = totals[part].get(key, 0.0) + v
        traced_s = sum(r["traced_s"] for r in reports)
        untraced = sum(r["untraced_ops"] for r in reports) / sum(r["untraced_s"] for r in reports)
        per_layer = tracing.layer_metrics(totals, traced_s, untraced)
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, (unit, _) in tracing.METRICS.items()}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"per_layer": per_layer, "segments": [r["spans"] for r in reports]}, fh)
    else:
        completed = len(answers) - sum("error" in a for a in answers)
        metrics = end_to_end(completed, sum(pass_s), [t for r in reports for t in r["latencies"]],
                             [r["peak_rss_mb"] for r in reports], setups)
        cpu_ms = 1e3 * sum(r["cpu_s"] for r in reports) / len(answers)
        print(f"perfbench: {passes} passes of {n} ops, cpu {cpu_ms:.4g} ms/op", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(answers), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
