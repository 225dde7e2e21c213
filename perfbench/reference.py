"""Reference figures for README.md (not part of the benchmark's metrics).

    python3 perfbench/reference.py baseline   # ROADMAP item-1 cases, ms per call
    python3 perfbench/reference.py noise      # spread of a plain Python loop

`baseline` times each case on the channels gen_channel(L, k,
default_rng(s), P) for s = 4..15 through the same calls the workloads make,
and checks each answer with checks.py.  `noise` times 40 samples of a fixed
pure-Python loop of about 0.25 s each: the host's own run-to-run spread.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from cfsearch.baselines import clll_search, exhaustive_search  # noqa: E402
from cfsearch.bench import gen_channel  # noqa: E402
from cfsearch.mimo import search_optimal_mimo  # noqa: E402
from cfsearch.model import cost_matrix, mimo_gram, mimo_phi, phi_bound  # noqa: E402
from cfsearch.optimal import search_optimal  # noqa: E402
from cfsearch.rings import Ring  # noqa: E402

SEEDS = range(4, 16)
# (label, ring, L, k, snr_db, search)
CASES = [
    ("search_optimal Gaussian L=4 20 dB", Ring.GAUSSIAN, 4, 1, 20, "optimal"),
    ("search_optimal Gaussian L=8 30 dB", Ring.GAUSSIAN, 8, 1, 30, "optimal"),
    ("search_optimal Eisenstein L=8 30 dB", Ring.EISENSTEIN, 8, 1, 30, "optimal"),
    ("search_optimal_mimo Gaussian L=4 k=3 20 dB", Ring.GAUSSIAN, 4, 3, 20, "mimo"),
    ("search_optimal_mimo Eisenstein L=4 k=3 20 dB", Ring.EISENSTEIN, 4, 3, 20, "mimo"),
    ("clll_search Gaussian L=16 20 dB", Ring.GAUSSIAN, 16, 1, 20, "clll"),
]


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return 1e3 * (time.perf_counter() - t0), out


def _coords(res, ring):
    return [[type(e).__name__, *((e.re, e.im) if ring is Ring.GAUSSIAN else (e.a, e.b))] for e in res.a_opt]


def baseline() -> None:
    print("| case | search ms (median, max) | DFS alone ms (median, max) |")
    print("|---|---|---|")
    for label, ring, L, k, snr, search in CASES:
        t_search, t_dfs = [], []
        for s in SEEDS:
            ch = gen_channel(L, k, np.random.default_rng(s), 10.0 ** (snr / 10.0))
            if k == 1:
                vec = ch.row_vector()
                M, phi = cost_matrix(vec), phi_bound(vec)
            else:
                M, phi = mimo_gram(ch), mimo_phi(ch)
            if search == "optimal":
                ts, res = _timed(search_optimal, vec, ring)
            elif search == "mimo":
                ts, res = _timed(search_optimal_mimo, ch, ring)
            else:
                ts, res = _timed(clll_search, M)
            td, exact = _timed(exhaustive_search, M, phi, ring, "cost")
            problems = checks.check_search(ring.value, ch.H, ch.P, {"a": _coords(exact, ring), "f_min": exact.f_min}, True)
            if search != "clll":
                problems += checks.check_search(ring.value, ch.H, ch.P, {"a": _coords(res, ring), "f_min": res.f_min}, True)
            if problems:
                raise SystemExit(f"{label} seed {s}: {problems}")
            t_search.append(ts)
            t_dfs.append(td)
        print(f"| {label} | {statistics.median(t_search):.1f}, {max(t_search):.1f} "
              f"| {statistics.median(t_dfs):.1f}, {max(t_dfs):.1f} |", flush=True)


def noise() -> None:
    def work():
        acc = 0
        for i in range(1_500_000):
            acc += i & 7
        return acc

    work()
    wall, cpu = [], []
    for _ in range(40):
        w0, c0 = time.perf_counter(), time.process_time()
        work()
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    for name, xs in (("wall", wall), ("cpu", cpu)):
        q = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        print(f"{name}: median {1e3 * med:.1f} ms, IQR/median {(q[2] - q[0]) / med:.3f}, "
              f"min {1e3 * min(xs):.1f} ms, max {1e3 * max(xs):.1f} ms")


if __name__ == "__main__":
    {"baseline": baseline, "noise": noise}[sys.argv[1]]()
