"""One segment of a run in one process: set up, run whole passes, report.

Started by run.py, once per segment of a run.  Protocol on stdout: the line
"READY" just before the first timed call (run.py times set-up up to it),
then one JSON line with the segment's timings and every answer.

Answers are checked by run.py after this process has exited, so the checks
neither take time from the timed passes nor raise this process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import cfsearch
from cfsearch.baselines import exhaustive_search
from cfsearch.bench import BenchConfig, run_sweep
from cfsearch.errors import CFSearchError
from cfsearch.mimo import search_optimal_mimo
from cfsearch.model import ChannelMatrix, ChannelVector, cost_matrix, mimo_gram, mimo_phi, phi_bound
from cfsearch.optimal import search_optimal
from cfsearch.rings import Ring

import tracing
import workloads

ENTRY = {
    "vector": search_optimal,
    "mimo": search_optimal_mimo,
    "oracle": exhaustive_search,
    "sweep": run_sweep,
}


def call_args(workload: str, op: workloads.Op) -> tuple:
    """Arguments of the public call for one operation (input generation)."""
    cell, ring = op.cell, Ring(op.cell.ring)
    if workload == "vector":
        return (ChannelVector(op.H[0], op.P), ring)
    if workload == "mimo":
        return (ChannelMatrix(op.H, op.P), ring)
    if workload == "oracle":
        if cell.kind == "vector":
            ch = ChannelVector(op.H[0], op.P)
            return (cost_matrix(ch), phi_bound(ch), ring, "cost")
        ch = ChannelMatrix(op.H, op.P)
        return (mimo_gram(ch), mimo_phi(ch), ring, "cost")
    cfg = BenchConfig(
        L=cell.L,
        snr_db_list=(cell.snr_db,),
        trials=1,
        seed=op.sweep_seed,
        ring=ring,
        algorithms=workloads.SWEEP_ALGORITHMS[cell.kind],
    )
    return (cfg,)


def _coord(v):
    return v if type(v) is int else repr(v)


def answer(out) -> dict:
    """JSON form of one result; the checker judges types and values."""
    if isinstance(out, CFSearchError):
        return {"error": f"{type(out).__name__}: {out}"}
    if isinstance(out, list):  # run_sweep records
        return {
            "records": [
                {"algorithm": r.algorithm, "avg_f": r.avg_f, "optimal_match_fraction": r.optimal_match_fraction}
                for r in out
            ]
        }
    a = []
    for e in out.a_opt:
        x, y = (e.re, e.im) if hasattr(e, "re") else (e.a, e.b)
        a.append([type(e).__name__, _coord(x), _coord(y)])
    return {"a": a, "f_min": out.f_min}


def run_pass(fn, calls, latencies, answers, tracer=None, workload=None) -> float:
    """Call every operation once, in order; return the pass's wall time."""
    t_start = time.perf_counter()
    for args in calls:
        t0 = time.perf_counter()
        try:
            out = tracer.root(workload, fn, *args) if tracer else fn(*args)
        except CFSearchError as e:
            out = e
        latencies.append(time.perf_counter() - t0)
        answers.append(answer(out))
    return time.perf_counter() - t_start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="this segment's timed budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--segment", type=int, required=True)
    ap.add_argument("--first-pass", type=int, required=True)
    args = ap.parse_args()
    wl = args.workload

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(cfsearch.__file__).startswith(src + os.sep):
        raise SystemExit(f"cfsearch imported from {cfsearch.__file__}, not from {src}")

    fn = ENTRY[wl]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:  # resolve every traced name now: a missing one fails the run
        tracer.install()
        tracer.uninstall()
    p = args.first_pass
    calls = [call_args(wl, op) for op in workloads.pass_ops(wl, args.seed, p)]
    for warm in workloads.warmup_ops(wl, args.seed, args.segment):
        fn(*call_args(wl, warm))
    print("READY", flush=True)

    latencies: list[float] = []
    answers: list[dict] = []
    pass_s: list[float] = []
    traced_s = untraced_s = 0.0
    untraced_ops = 0
    cpu0 = time.process_time()
    # whole passes until the timed part reaches the budget; a traced run
    # traces the passes with an even index and leaves the others bare
    while not pass_s or sum(pass_s) < args.seconds:
        if pass_s:
            calls = [call_args(wl, op) for op in workloads.pass_ops(wl, args.seed, p)]
        traced = bool(tracer) and p % 2 == 0
        if traced:
            tracer.install()
        try:
            dt = run_pass(fn, calls, latencies, answers, tracer if traced else None, wl)
        finally:
            if traced:
                tracer.uninstall()
        pass_s.append(dt)
        if traced:
            traced_s += dt
        else:
            untraced_s += dt
            untraced_ops += len(calls)
        p += 1

    report = {
        "pass_ops": len(calls),
        "pass_s": pass_s,
        "cpu_s": time.process_time() - cpu0,  # includes untimed input generation
        "latencies": latencies,
        "answers": answers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report.update(totals=tracer.totals(), spans=tracer.spans, traced_s=traced_s,
                      untraced_s=untraced_s, untraced_ops=untraced_ops)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
