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
the returned minimum exact by construction.  Sampling is all that is
particular to this search: the running minimum, the certification and the
result built on the canonical vector are `optimal`'s, shared with the
single-antenna search.

The scan prunes tuples with a norm argument: the smallest eigenvalue of the
Gram matrix is 1/Phi^2, and the components of a on tau equal the quantized
tuple exactly, so any tuple whose quantized squared norm exceeds
f_best * Phi^2 cannot beat the incumbent.  The marked points are sorted by
quantized norm, and for each subset `optimal`'s bounded-tuple enumerator
(`_tuple_prefixes` for the first k-1 entries, `_tuple_blocks` for the last,
the same two calls as the full-ball scan of `exhaustive_search`) lists the
tuples within the budget, read again before each block so that the scan
narrows as the incumbent improves.  The same bound on the whole quantized
vector screens each block: `_BestTracker` drops every row with
||a||^2 / Phi^2 over the budget before pricing it.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

# the search prices and certifies through `optimal`, so `cost_batch` and
# `cost_pruned_scan` are not called here; perfbench/tracing.py wraps both
# under this module's name, so they stay imported until it is retargeted
from .dfs import cost_pruned_scan
from .model import ChannelMatrix, SearchResult, b_opt, cost_batch, mimo_gram, mimo_phi, mimo_rate
from .optimal import _BestTracker, _search_result, _tuple_blocks, _tuple_prefixes, gen_disc
from .rings import Ring, quantize_eisenstein_array, quantize_gaussian_array

#: A column subset is skipped when |det| <= this times the Hadamard bound.
DET_SKIP_REL = 1e-10
#: Hard ceiling on materialized tuple-prefix rows (guards k >= 3).
MAX_PREFIX_ROWS = 20_000_000


def _subset_is_singular(H_tau: np.ndarray) -> bool:
    """Determinant test against the Hadamard (column-norm product) scale."""
    col_norms = np.linalg.norm(H_tau, axis=0)
    return bool(abs(np.linalg.det(H_tau)) <= DET_SKIP_REL * float(np.prod(col_norms)))


def _quantize_coords(A: np.ndarray, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    if ring is Ring.GAUSSIAN:
        return quantize_gaussian_array(A)
    return quantize_eisenstein_array(A)


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
    points = gen_disc(phi, ring).points
    best = _BestTracker(M, ring, lam_min=1.0 / (phi * phi))
    best.consider_units()
    q = ring.norm(*_quantize_coords(points, ring))  # marked points' quantized squared norms
    order = np.argsort(q, kind="stable")
    points, q = points[order], q[order]

    phi2 = phi * phi  # a tuple of squared norm over f_best * phi2 cannot win
    skipped = 0
    for tau in itertools.combinations(range(ch.L), ch.k):
        H_tau = ch.H[:, tau]
        if _subset_is_singular(H_tau):
            skipped += 1
            continue
        T = np.linalg.solve(H_tau, ch.H)
        prefixes = _tuple_prefixes(
            q, ch.k - 1, best.budget() * phi2, MAX_PREFIX_ROWS,
            lambda rows: (
                f"tuple prefix table of {rows} rows exceeds the "
                f"{MAX_PREFIX_ROWS}-row budget (L={ch.L}, k={ch.k}, "
                f"ring={ring.value}, columns={tau})"
            ),
        )
        for idx, _ in _tuple_blocks(q, *prefixes, lambda: best.budget() * phi2):
            C = points[idx]
            A = C @ T
            A[:, tau] = C  # the exact marked points, not their round trip through the solve
            best.consider(*_quantize_coords(A, ring))

    best.certify(ch.H, ch.P, "mimo-optimal")
    return _search_result(
        *best.coords, M, ring, best.checked, t0,
        lambda a: mimo_rate(ch, a, b_opt(ch, a)), subsets_skipped=skipped,
    )
