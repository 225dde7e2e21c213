"""Exact coefficient search for multi-antenna receivers.

With k receive antennas the receiver applies a linear combining vector b
before quantizing, and the optimal coefficient vector is a = [b H] for some
b.  The minimizing b places each of k chosen components of b H exactly on a
quantizer cell boundary, so the candidate set is indexed by size-k column
subsets tau and k-tuples of marked boundary points c: solving c = b H_tau
for b gives the candidate a = [b H].  Scanning all subsets and tuples plus
the unit vectors finds the minimizer of the Gram quadratic form on all but
a vanishing fraction of channels; as in the single-antenna search, a region
of constant quantization whose boundary contains no marked-tuple image is
never sampled, so the search finishes with a certification phase (a
cost-pruned depth-first scan seeded with the sampling incumbent) that makes
the returned minimum exact by construction.

The scan prunes tuples with a norm argument: the smallest eigenvalue of the
Gram matrix is 1/Phi^2, and the components of a on tau equal the quantized
tuple exactly, so any tuple whose quantized squared norm exceeds
f_best * Phi^2 cannot beat the incumbent.  Sorting marked points by
quantized norm makes the viable tuple set a ragged prefix that shrinks as
the incumbent improves.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator

import numpy as np

from .dfs import best_unit, cost_pruned_scan
from .errors import InvalidInputError, NumericError
from .model import (
    ChannelMatrix,
    SearchResult,
    b_opt,
    cost_batch,
    mimo_gram,
    mimo_phi,
    mimo_rate,
    replay_args,
)
from .optimal import DiscontinuitySet, gen_disc
from .rings import (
    CoefficientVector,
    Ring,
    canonical,
    eisenstein_values,
    gaussian_values,
    quantize_eisenstein_array,
    quantize_gaussian_array,
    vector_from_arrays,
)

#: A column subset is skipped when |det| <= this times the Hadamard bound.
DET_SKIP_REL = 1e-10
#: Relative slack on the eigenvalue lower bound used to prune tuples.
BUDGET_SLACK = 1e-9
#: Tuple rows evaluated per vectorized block.
TUPLE_CHUNK_ROWS = 1 << 18
#: Hard ceiling on materialized tuple-prefix rows (guards k >= 3).
MAX_PREFIX_ROWS = 20_000_000


def enumerate_subsets(L: int, k: int) -> list[tuple[int, ...]]:
    """All size-k subsets of column indices {0..L-1} in lexicographic order."""
    if not 1 <= k <= L:
        raise InvalidInputError(f"need 1 <= k <= L, got k={k}, L={L}")
    return list(itertools.combinations(range(L), k))


def _subset_is_singular(H_tau: np.ndarray) -> bool:
    """Determinant test against the Hadamard (column-norm product) scale."""
    col_norms = np.linalg.norm(H_tau, axis=0)
    return bool(abs(np.linalg.det(H_tau)) <= DET_SKIP_REL * float(np.prod(col_norms)))


def _quantize_coords(A: np.ndarray, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    if ring is Ring.GAUSSIAN:
        return quantize_gaussian_array(A)
    return quantize_eisenstein_array(A)


def _values_fn(ring: Ring):
    return gaussian_values if ring is Ring.GAUSSIAN else eisenstein_values


def vertex_candidates(
    ch: ChannelMatrix, tau: tuple[int, ...], psi: DiscontinuitySet, ring: Ring
) -> Iterator[CoefficientVector]:
    """Stream the candidate vectors [c H_tau^-1 H] for c in Psi^k, lexicographically.

    The components of the candidate on `tau` are the quantized tuple entries
    themselves (the continuous value there is pinned to the exact marked
    point, not to its floating-point round trip through the solve).  Raises
    InvalidInputError if H_tau is singular by the determinant test.
    """
    tau = tuple(tau)
    H_tau = ch.H[:, tau]
    if _subset_is_singular(H_tau):
        raise InvalidInputError(f"channel columns {tau} are numerically singular")
    T = np.linalg.solve(H_tau, ch.H)
    tau_arr = np.asarray(tau)
    for c in itertools.product(psi.points, repeat=ch.k):
        carr = np.asarray(c, np.complex128)
        row = carr @ T
        row[tau_arr] = carr
        x, y = _quantize_coords(row, ring)
        yield vector_from_arrays(x, y, ring)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for nonnegative counts."""
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.arange(int(ends[-1])) - np.repeat(starts, counts)


class _TupleScan:
    """Budget-pruned scan over k-tuples of marked points for one column subset.

    Marked points are pre-sorted by quantized squared norm q, so the tuples
    with sum(q) below the running budget form a ragged prefix enumerated by
    binary search.  The enumeration order (prefix-major over sorted indices,
    fixed chunk size) is deterministic, and shrinking the budget between
    chunks never discards a candidate that could still improve the incumbent.
    """

    def __init__(self, points: np.ndarray, q: np.ndarray, M: np.ndarray, ring: Ring):
        order = np.argsort(q, kind="stable")
        self.points = points[order]
        self.q = q[order].astype(np.float64)
        self.M = M
        self.ring = ring
        self.f_best = np.inf
        self.best: tuple[np.ndarray, np.ndarray] | None = None
        self.checked = 0

    def _evaluate(self, idx: np.ndarray, T: np.ndarray, tau_arr: np.ndarray) -> None:
        C = self.points[idx]
        A = C @ T
        A[:, tau_arr] = C
        x, y = _quantize_coords(A, self.ring)
        keep = np.any((x != 0) | (y != 0), axis=1)
        if not keep.any():
            return
        x, y = x[keep], y[keep]
        f = cost_batch(_values_fn(self.ring)(x, y), self.M)
        self.checked += f.size
        i = int(np.argmin(f))
        if f[i] < self.f_best:
            self.f_best = float(f[i])
            self.best = (x[i], y[i])

    def scan_subset(self, T: np.ndarray, tau_arr: np.ndarray, k: int, budget_cap: float) -> None:
        idx = np.empty((1, 0), np.int64)
        ssum = np.zeros(1)
        for level in range(k):
            last = level == k - 1
            parts_i: list[np.ndarray] = []
            parts_s: list[np.ndarray] = []
            pos = 0
            while pos < ssum.size:
                budget = self.f_best * budget_cap
                counts = np.searchsorted(self.q, budget - ssum[pos:], side="right")
                cum = np.cumsum(counts)
                end = pos + max(1, int(np.searchsorted(cum, TUPLE_CHUNK_ROWS, side="right")))
                counts = counts[: end - pos]
                total = int(counts.sum())
                if total == 0:
                    pos = end
                    continue
                rows = np.repeat(np.arange(pos, end), counts)
                inner = _ragged_arange(counts)
                new_idx = np.concatenate([idx[rows], inner[:, None]], axis=1)
                new_sum = ssum[rows] + self.q[inner]
                if last:
                    self._evaluate(new_idx, T, tau_arr)
                else:
                    parts_i.append(new_idx)
                    parts_s.append(new_sum)
                pos = end
            if not last:
                idx = np.concatenate(parts_i) if parts_i else np.empty((0, level + 1), np.int64)
                ssum = np.concatenate(parts_s) if parts_s else np.empty(0)
                if ssum.size > MAX_PREFIX_ROWS:
                    raise NumericError(
                        f"tuple prefix table of {ssum.size} rows exceeds the "
                        f"{MAX_PREFIX_ROWS}-row budget (L={T.shape[1]}, k={k}, "
                        f"ring={self.ring.name.lower()}, columns={tuple(tau_arr.tolist())})"
                    )


def search_optimal_mimo(ch: ChannelMatrix, ring: Ring) -> SearchResult:
    """Minimize a M a^H over nonzero ring vectors for a k-antenna channel.

    Prices the unit vectors first from the diagonal of M (`best_unit`,
    establishing the pruning incumbent), then every boundary-tuple
    candidate across all full-rank column subsets in lexicographic subset
    order, and finally certifies the incumbent with a seeded cost-pruned
    depth-first scan that replaces it only when a strictly cheaper vector
    exists.  Ties keep the earlier candidate under this fixed order, so
    unit vectors win exact ties; the winner is returned as its `canonical`
    unit multiple.  Near-singular subsets are skipped and counted in
    `subsets_skipped`; if every subset is skipped the search reduces to the
    unit incumbent plus certification.  A certification budget error is
    re-raised with the `cfsearch search` arguments that replay the instance.
    """
    t0 = time.perf_counter()
    M = mimo_gram(ch)
    phi = mimo_phi(ch)
    psi = gen_disc(phi, ring)
    x0, y0 = _quantize_coords(psi.points, ring)
    if ring is Ring.GAUSSIAN:
        q = (x0 * x0 + y0 * y0).astype(np.float64)
    else:
        q = (x0 * x0 - x0 * y0 + y0 * y0).astype(np.float64)

    scan = _TupleScan(psi.points, q, M, ring)
    ux, uy, unit_f = best_unit(M)
    scan.checked += ch.L
    scan.f_best = unit_f

    budget_cap = phi * phi * (1.0 + BUDGET_SLACK)
    skipped = 0
    for tau in enumerate_subsets(ch.L, ch.k):
        H_tau = ch.H[:, tau]
        if _subset_is_singular(H_tau):
            skipped += 1
            continue
        T = np.linalg.solve(H_tau, ch.H)
        scan.scan_subset(T, np.asarray(tau), ch.k, budget_cap)

    if scan.best is None or unit_f <= scan.f_best:
        x, y, f_min = ux, uy, unit_f
    else:
        (x, y), f_min = scan.best, scan.f_best

    # certification: replace the incumbent only if something cheaper exists
    try:
        cx, cy, cf, nodes = cost_pruned_scan(M, ring, seed=(x, y, f_min))
    except NumericError as e:
        raise NumericError(
            f"{e} while certifying; replay with "
            f"cfsearch search {replay_args(ch.H, ch.P, ring, 'mimo-optimal')}"
        ) from e
    scan.checked += nodes
    if cf < f_min:
        x, y = cx, cy
        f_min = float(cost_batch(_values_fn(ring)(cx, cy)[None, :], M)[0])

    a_opt = vector_from_arrays(*canonical(x, y, ring), ring)
    return SearchResult(
        a_opt=a_opt,
        f_min=f_min,
        rate=mimo_rate(ch, a_opt, b_opt(ch, a_opt)),
        candidates_checked=scan.checked,
        elapsed_s=time.perf_counter() - t0,
        ring=ring,
        subsets_skipped=skipped,
    )
