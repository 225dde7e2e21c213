"""Workload make-up and seeded input generation.

A workload is a list of cells.  A cell fixes the ring, the channel size
(L transmitters, k receive antennas), the SNR and, for `oracle` and `sweep`,
what the operation computes; `count` is how many operations of the cell one
pass holds.  A run is a whole number of passes.  Pass `p` of a run with seed
`s` draws its channels from its own generator, so no channel appears twice
in a run, and warm-up draws from a generator of its own as well.

This module holds plain data only: it uses `cfsearch.bench.gen_channel` to
draw channels (so the inputs are those a sweep would see) and calls no
search.  The worker process turns an `Op` into a call; the checker
recomputes everything it needs from the same `Op`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cfsearch.bench import gen_channel

GAUSSIAN = "gaussian"
EISENSTEIN = "eisenstein"
RINGS = (GAUSSIAN, EISENSTEIN)

# generator-key tags keeping the warm-up and timed streams apart
_PASS_TAG = 1
_WARMUP_TAG = 2


@dataclass(frozen=True)
class Cell:
    """One (ring, L, k, SNR, operation) combination of a workload."""

    ring: str
    L: int
    k: int
    snr_db: float
    count: int
    # oracle: Gram source "vector" (cost_matrix) or "mimo" (mimo_gram)
    # sweep: "grid" (optimal+qes+clll) or "ball" (optimal+exhaustive)
    kind: str = ""


@dataclass(frozen=True)
class Op:
    """The input of one operation: a cell and its channel."""

    cell: Cell
    H: np.ndarray  # k x L
    P: float
    sweep_seed: int | None = None  # sweep: the BenchConfig seed that draws H


SWEEP_ALGORITHMS = {
    "grid": ("optimal", "qes", "clll"),
    "ball": ("optimal", "exhaustive"),
}


def _cells(rings, Ls, ks, snrs, count, kind=""):
    return [Cell(r, L, k, float(s), count, kind) for r in rings for L in Ls for k in ks for s in snrs]


#: Cells per workload.  Counts dilute the few costly cells with many cheap
#: ones so that no cell takes most of a pass's time.  Cells whose time or
#: memory is heavy-tailed across channels are left out because they made
#: run-to-run figures depend on the seed; README.md lists them.
WORKLOADS: dict[str, list[Cell]] = {
    "vector": (
        _cells(RINGS, (2, 4), (1,), (0, 10), 6)
        + _cells(RINGS, (2, 4), (1,), (20,), 3)
        + _cells((GAUSSIAN,), (2, 4), (1,), (30,), 1)
        + _cells(RINGS, (8,), (1,), (0, 10), 3)
        + _cells(RINGS, (8,), (1,), (20,), 1)
    ),
    "mimo": (
        _cells(RINGS, (3, 4), (2,), (0,), 4)
        + _cells(RINGS, (3, 4), (3,), (0,), 2)
        + _cells(RINGS, (3, 4), (2,), (5,), 3)
        + _cells((GAUSSIAN,), (3,), (2,), (10,), 2)
    ),
    "oracle": (
        _cells(RINGS, (8, 12, 16), (1,), (10,), 6, "vector")
        + _cells(RINGS, (8, 12, 16), (1,), (15,), 3, "vector")
        + _cells(RINGS, (8, 12, 16), (1,), (20,), 1, "vector")
        + _cells(RINGS, (8,), (1,), (30,), 1, "vector")
        + _cells(RINGS, (8,), (2,), (10,), 2, "mimo")
    ),
    "sweep": (
        _cells((GAUSSIAN,), (4,), (1,), (0, 5, 10, 15, 20), 2, "grid")
        + _cells((GAUSSIAN,), (8,), (1,), (0, 5, 10, 15, 20), 1, "grid")
        + _cells(RINGS, (2,), (1,), (0, 5, 10), 2, "ball")
    ),
}


def _rng(tag: int, seed: int, workload: str, index: int) -> np.random.Generator:
    wid = list(WORKLOADS).index(workload)
    return np.random.default_rng([tag, seed, wid, index])


def _draw(cell: Cell, rng: np.random.Generator) -> Op:
    P = 10.0 ** (cell.snr_db / 10.0)
    if cell.kind in SWEEP_ALGORITHMS:
        # run_sweep draws its own channels from cfg.seed; reproduce them here
        sweep_seed = int(rng.integers(0, 2**62))
        H = gen_channel(cell.L, 1, np.random.default_rng(sweep_seed)).H
        return Op(cell, H, P, sweep_seed)
    return Op(cell, gen_channel(cell.L, cell.k, rng, P).H, P)


def pass_ops(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of pass `index` of a run with `seed`, in call order.

    Cells are interleaved round-robin so that each stretch of a pass mixes
    cheap and costly operations.
    """
    rng = _rng(_PASS_TAG, seed, workload, index)
    cells = WORKLOADS[workload]
    ops = []
    for r in range(max(c.count for c in cells)):
        ops.extend(_draw(c, rng) for c in cells if r < c.count)
    return ops


def warmup_ops(workload: str, seed: int, segment: int) -> list[Op]:
    """One operation per (ring, L, k, kind) of the workload at its lowest SNR.

    Warm-up fills import-time and first-call caches for every array shape the
    run uses while staying cheap and steady; its channels come from their own
    generator, never from a timed pass.
    """
    rng = _rng(_WARMUP_TAG, seed, workload, segment)
    lowest: dict[tuple, Cell] = {}
    for c in WORKLOADS[workload]:
        key = (c.ring, c.L, c.k, c.kind)
        if key not in lowest or c.snr_db < lowest[key].snr_db:
            lowest[key] = c
    return [_draw(c, rng) for c in lowest.values()]

