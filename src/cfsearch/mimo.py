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

The scan bounds tuples by a Schur complement.  A candidate's components
on tau equal the quantized tuple Q(c) exactly, so its cost is at least
the minimum of a M a^H over the free components off tau:
a_tau S_tau a_tau^H, with S_tau the Schur complement of M on tau.  Since
M^-1 = W = I + P H^H H, that complement is (W_tau,tau)^-1, and its
smallest eigenvalue is 1/lambda_max(W_tau,tau) >= 1/Phi^2 (interlacing).
`_subset_bounds` takes a factor R of S_tau = R R^H and
lambda_max(W_tau,tau) for all subsets from one stacked eigendecomposition.

The marked points are sorted by quantized norm, and for each subset
`optimal`'s bounded-tuple enumerator (`_tuple_prefixes` for the first k-1
entries, `_tuple_blocks` for the last, the same two calls as the
full-ball scan of `exhaustive_search`) lists the tuples with
||Q(c)||^2 <= f_best * lambda_max(W_tau,tau), reading f_best again before
each block so that the scan narrows as the incumbent improves.  Each
block's tuples are then screened on ||Q(c) R||^2 <= f_best before they
are mapped to L-wide rows and quantized, and `_BestTracker` drops every
quantized row with ||a||^2 / Phi^2 over f_best before pricing it.  Every
test carries the relative slack of `BUDGET_SLACK`; a rounding error in
S_tau could only cost certification nodes, never exactness, because the
certification still follows.
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


def _subset_bounds(ch: ChannelMatrix, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every subset tau (a row of `tau`), a factor R of the Schur complement
    S_tau = (W_tau,tau)^-1 = R R^H, so that a_tau S_tau a_tau^H is
    ||a_tau R||^2, and lambda_max(W_tau,tau); W = I + P H^H H = M^-1.
    One stacked `eigh`, W_tau,tau = U diag(lam) U^H, gives both:
    R = U diag(lam)^-1/2."""
    W = np.eye(ch.L) + ch.P * (ch.H.conj().T @ ch.H)
    lam, U = np.linalg.eigh(W[tau[:, :, None], tau[:, None, :]])
    return U / np.sqrt(lam)[:, None, :], lam[:, -1]


def _quantize_coords(A: np.ndarray, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    if ring is Ring.GAUSSIAN:
        return quantize_gaussian_array(A)
    return quantize_eisenstein_array(A)


def search_optimal_mimo(ch: ChannelMatrix, ring: Ring) -> SearchResult:
    """Minimize a M a^H over nonzero ring vectors for a k-antenna channel.

    Prices the unit vectors first from the diagonal of M (`best_unit`,
    establishing the pruning incumbent), then the boundary-tuple candidates
    across all full-rank column subsets in lexicographic subset order,
    skipping every tuple whose Schur-complement bound on its subset (see
    the module docstring) exceeds the incumbent, and finally certifies the
    incumbent with a seeded cost-pruned depth-first scan that replaces it
    only when a strictly cheaper vector exists.  Ties keep the earlier
    candidate under this fixed order, so unit vectors win exact ties; the
    winner is returned as its `canonical` unit multiple.  Near-singular
    subsets are skipped and counted in `subsets_skipped`; if every subset
    is skipped the search reduces to the unit incumbent plus certification.
    A certification budget error is re-raised with the `cfsearch search`
    arguments that replay the instance.
    """
    t0 = time.perf_counter()
    M = mimo_gram(ch)
    phi = mimo_phi(ch)
    points = gen_disc(phi, ring).points
    best = _BestTracker(M, ring, lam_min=1.0 / (phi * phi))
    best.consider_units()
    qx, qy = _quantize_coords(points, ring)  # the marked points' quantized values
    q = ring.norm(qx, qy)
    order = np.argsort(q, kind="stable")
    points, q, V = points[order], q[order], ring.values(qx, qy)[order]

    subsets = list(itertools.combinations(range(ch.L), ch.k))
    skipped = 0
    for tau, R, lam in zip(subsets, *_subset_bounds(ch, np.array(subsets))):
        H_tau = ch.H[:, tau]
        if _subset_is_singular(H_tau):
            skipped += 1
            continue
        T = np.linalg.solve(H_tau, ch.H)
        prefixes = _tuple_prefixes(
            q, ch.k - 1, best.budget() * lam, MAX_PREFIX_ROWS,
            lambda rows: (
                f"tuple prefix table of {rows} rows exceeds the "
                f"{MAX_PREFIX_ROWS}-row budget (L={ch.L}, k={ch.k}, "
                f"ring={ring.value}, columns={tau})"
            ),
        )
        for idx, _ in _tuple_blocks(q, *prefixes, lambda: best.budget() * lam):
            # V[idx] are the candidates' entries on tau: ||V[idx] R||^2 bounds their cost
            Y = (V[idx] @ R).view(np.float64)
            idx = idx[np.einsum("ij,ij->i", Y, Y) <= best.budget()]
            if not idx.size:
                continue
            C = points[idx]
            A = C @ T
            A[:, tau] = C  # the exact marked points, not their round trip through the solve
            best.consider(*_quantize_coords(A, ring))

    best.certify(ch.H, ch.P, "mimo-optimal")
    return _search_result(
        *best.coords, M, ring, best.checked, t0,
        lambda a: mimo_rate(ch, a, b_opt(ch, a)), subsets_skipped=skipped,
    )
