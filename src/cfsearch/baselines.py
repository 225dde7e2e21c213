"""Reference and baseline coefficient searches.

`exhaustive_search` minimizes the Gram quadratic form over all nonzero ring
vectors and comes in two equivalent flavors: a norm-pruned full scan of the
ball ||a|| <= phi (the textbook benchmark whose work grows with phi and is
what runtime-vs-SNR comparisons should measure), and a depth-first scan with
cost-based pruning that returns the identical minimum orders of magnitude
faster, making it usable as a correctness oracle at sizes where the full
ball is out of reach.  Both enumerate candidates in a fixed deterministic
order.  The full scan lists the ball as L-tuples of ring elements whose
squared moduli sum to at most phi^2, with the bounded-tuple enumerator
and running minimum of `optimal` that the matrix search also uses.

`clll_search` is a complex-lattice LLL reduction over Gaussian integers; the
shortest reduced basis row gives an approximate minimizer with the usual
exponential approximation guarantee.  Its Gram-Schmidt data comes from the
Cholesky factor once and is updated in place on each size reduction and
swap (Gan, Ling & Mow, IEEE T-SP 2009), never recomputed.  `qes_search`
quantizes a polar grid of scalings of the channel vector and is the natural
discretized baseline for the exact discontinuity search.

`exhaustive_search` and `qes_search` end like the exact searches, in
`optimal._search_result`: the `canonical` member of the minimizer's unit
orbit, with `f_min` priced on that vector.  `clll_search` returns its raw
transform row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dfs import cost_pruned_scan
from .errors import InvalidInputError, NumericError
from .model import ChannelVector, SearchResult, check_cost_matrix, cost_batch, cost_matrix, phi_bound, rate
from .optimal import (
    FIRST_BLOCK_RADIUS,
    _BestTracker,
    _search_result,
    _tuple_blocks,
    _tuple_prefixes,
)
from .rings import SQRT3, Ring, quantize_gaussian, quantize_gaussian_array, vector_from_arrays

#: Most entries (grid scalings times L) quantized in one block of the
#: polar-grid scan.
SCAN_CHUNK_ROWS = 1 << 19
#: Hard ceiling on materialized prefix rows in the norm-pruned scan.
MAX_TABLE_ROWS = 30_000_000
#: Hard ceiling on complete vectors in the norm-pruned scan's ball: about 25
#: times the largest ball the test suite or `cfsearch selftest` scans
#: (4.1e6 vectors, Eisenstein L=2 at 20 dB).
MAX_BALL_VECTORS = 100_000_000


def _component_candidates(ring: Ring, phi2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All single-component ring coordinates with squared modulus <= phi2.

    Returns int64 coordinate arrays and the (integer) squared moduli, sorted
    by squared modulus, then by coordinates.  Both coordinates of an element
    of squared modulus at most phi2 lie within 2*sqrt(phi2)/sqrt(3) of zero
    in either ring, so one square grid holds every candidate.
    """
    c = math.floor(2.0 * math.sqrt(phi2) / SQRT3) + 1
    g = np.arange(-c, c + 1, dtype=np.int64)
    x, y = (v.ravel() for v in np.meshgrid(g, g, indexing="ij"))
    n = ring.norm(x, y)
    keep = n <= phi2
    x, y, n = x[keep], y[keep], n[keep]
    order = np.lexsort((y, x, n))
    return x[order], y[order], n[order]


def _norm_pruned_scan(M: np.ndarray, phi: float, ring: Ring) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Full scan of nonzero ring vectors with ||a||^2 <= phi^2.

    The ball is the set of L-tuples of `_component_candidates` whose squared
    moduli sum to at most phi^2, listed by `optimal`'s bounded-tuple
    enumerator: `_tuple_prefixes` for L-1 components, then `_tuple_blocks`
    for the last, each block priced by a `_BestTracker`.  Returns winning
    coordinates, the minimum cost, and the number of complete vectors
    evaluated.  Raises NumericError before building a prefix level of more
    than `MAX_TABLE_ROWS` rows, and before any evaluation when the ball
    holds more than `MAX_BALL_VECTORS` complete vectors.
    """
    L = M.shape[0]
    phi2 = phi * phi
    cx, cy, cn = _component_candidates(ring, phi2)
    prefixes = _tuple_prefixes(
        cn, L - 1, phi2, MAX_TABLE_ROWS,
        lambda rows: (
            f"norm-pruned scan table of {rows} prefixes exceeds the "
            f"{MAX_TABLE_ROWS}-row budget (L={L}, ring={ring.value}, "
            f"phi={phi!r}); use prune='cost'"
        ),
    )
    # every prefix extends by each candidate within its remaining norm; the
    # one all-zero prefix and candidate make the zero vector
    count = int(np.searchsorted(cn, phi2 - prefixes[1], side="right").sum()) - 1
    if count > MAX_BALL_VECTORS:
        raise NumericError(
            f"norm-pruned scan ball of {count} vectors exceeds the "
            f"{MAX_BALL_VECTORS}-vector budget (L={L}, ring={ring.value}, "
            f"phi={phi!r}); use prune='cost'"
        )
    best = _BestTracker(M, ring)
    for idx, _ in _tuple_blocks(cn, *prefixes, lambda: phi2):
        # the first component varies fastest, so of exactly tying vectors the
        # one with trailing zeros comes first (e_1, not e_L, on M = I)
        idx = idx[:, ::-1]
        best.consider(cx[idx], cy[idx])
    return *best.coords, best.f, best.checked


def exhaustive_search(M: np.ndarray, phi: float, ring: Ring, prune: str = "norm") -> SearchResult:
    """Minimize a M a^H over nonzero ring vectors with ||a|| <= phi.

    `prune="norm"` scans the entire ball (work grows like phi^(2L));
    `prune="cost"` explores the same search space depth-first with
    partial-cost pruning and returns the identical minimum.  Either way the
    minimizer is returned as its `canonical` unit multiple.  The minimizer of
    the quadratic form always lies in the ball when phi^2 is an upper bound
    on the unit-vector cost, which holds for the Gram matrices produced by
    `cost_matrix` and `mimo_gram`.  Returns `rate=None`: a Gram matrix alone
    carries no channel context.  The work budgets (`MAX_TABLE_ROWS` and
    `MAX_BALL_VECTORS` here, `dfs.MAX_DFS_NODES`) are read at call time.
    """
    M = check_cost_matrix(M)
    if not (np.isfinite(phi) and phi >= 1.0):
        raise InvalidInputError(f"phi must be finite and >= 1, got {phi}")
    if prune not in ("norm", "cost"):
        raise InvalidInputError(f"prune must be 'norm' or 'cost', got {prune!r}")
    t0 = time.perf_counter()
    if prune == "norm":
        x, y, _, checked = _norm_pruned_scan(M, phi, ring)
    else:
        x, y, _, checked = cost_pruned_scan(M, ring)
    return _search_result(x, y, M, ring, checked, t0)


@dataclass(frozen=True)
class CLLLParams:
    """Lattice-reduction knobs: Lovasz constant in (1/2, 1] and iteration cap."""

    delta: float = 0.99
    max_iter: int = 100_000

    def __post_init__(self):
        if not (0.5 < self.delta <= 1.0):
            raise InvalidInputError(f"delta must lie in (1/2, 1], got {self.delta}")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be positive")


def clll_search(M: np.ndarray, params: CLLLParams | None = None) -> SearchResult:
    """Approximate minimizer of a M a^H over Gaussian-integer vectors via complex LLL.

    Reduces the rows of the Cholesky factor of M with unimodular Gaussian
    integer operations (size reduction rounds each mu to the nearest Gaussian
    integer; the Lovasz condition uses |mu|^2) and returns the transform row
    of the shortest reduced basis vector.  The factor is lower triangular, so
    its Gram-Schmidt coefficients mu and squared lengths ||b*||^2 are read
    off it once; each size reduction and swap then updates them in place in
    O(L) (Gan, Ling & Mow, "Complex lattice reduction algorithm for
    low-complexity full-diversity MIMO detection", IEEE T-SP 2009).  The
    result is within a factor 2^(L-1) of the optimum for delta >= 3/4 in the
    usual LLL sense.  Raises NumericError if reduction does not converge
    within `max_iter` steps.
    """
    params = params or CLLLParams()
    M = check_cost_matrix(M)
    L = M.shape[0]
    t0 = time.perf_counter()
    iters = 0
    B = np.linalg.cholesky(M).astype(np.complex128)
    U = np.eye(L, dtype=np.complex128)
    d = B.diagonal().real
    mu = B / d
    bn = d * d
    k = 1
    while k < L:
        iters += 1
        if iters > params.max_iter:
            raise NumericError(
                f"lattice reduction did not converge in {params.max_iter} iterations "
                f"(L={L}, delta={params.delta!r})"
            )
        for j in range(k - 1, -1, -1):
            q = quantize_gaussian(complex(mu[k, j]))
            if q.re or q.im:
                qv = q.value
                B[k] -= qv * B[j]
                U[k] -= qv * U[j]
                mu[k, :j] -= qv * mu[j, :j]
                mu[k, j] -= qv
        m = complex(mu[k, k - 1])
        m2 = abs(m) ** 2
        if bn[k] >= (params.delta - m2) * bn[k - 1]:
            k += 1
        else:
            b_new = bn[k] + m2 * bn[k - 1]
            m_new = m.conjugate() * bn[k - 1] / b_new
            bn[k] = bn[k - 1] * bn[k] / b_new
            bn[k - 1] = b_new
            B[[k - 1, k]] = B[[k, k - 1]]
            U[[k - 1, k]] = U[[k, k - 1]]
            mu[[k - 1, k], : k - 1] = mu[[k, k - 1], : k - 1]
            mu[k, k - 1] = m_new
            t = mu[k + 1 :, k].copy()
            mu[k + 1 :, k] = mu[k + 1 :, k - 1] - m * t
            mu[k + 1 :, k - 1] = t + m_new * mu[k + 1 :, k]
            k = max(k - 1, 1)
    row_norms = np.einsum("ij,ij->i", B, B.conj()).real
    i = int(np.argmin(row_norms))
    x = np.rint(U[i].real).astype(np.int64)
    y = np.rint(U[i].imag).astype(np.int64)
    a_opt = vector_from_arrays(x, y, Ring.GAUSSIAN)
    f_min = float(cost_batch(Ring.GAUSSIAN.values(x, y)[None, :], M)[0])
    return SearchResult(
        a_opt=a_opt,
        f_min=f_min,
        rate=None,
        candidates_checked=iters,
        elapsed_s=time.perf_counter() - t0,
        ring=Ring.GAUSSIAN,
    )


@dataclass(frozen=True)
class QesParams:
    """Polar grid for the quantized scaling search.

    Magnitudes run over (0, mag_max] in steps of `mag_step`; phases cover
    [0, 90) degrees in steps of `phase_step_deg`.  `mag_max=None` derives the
    bound (ceil(Phi) + 1/2) / min nonzero |h_l| from the channel, which is
    large enough that every quantized cell the exact search can reach is
    also reachable on a sufficiently fine grid.
    """

    mag_step: float = 0.1
    phase_step_deg: float = 5.0
    mag_max: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.mag_step) and self.mag_step > 0):
            raise InvalidInputError(f"mag_step must be positive, got {self.mag_step}")
        if not (np.isfinite(self.phase_step_deg) and 0 < self.phase_step_deg <= 90):
            raise InvalidInputError(
                f"phase_step_deg must lie in (0, 90], got {self.phase_step_deg}"
            )
        if self.mag_max is not None and not (np.isfinite(self.mag_max) and self.mag_max > 0):
            raise InvalidInputError(f"mag_max must be positive, got {self.mag_max}")


def qes_search(ch: ChannelVector, params: QesParams | None = None) -> SearchResult:
    """Gaussian-ring baseline quantizing a polar grid of channel scalings.

    Prices the unit vectors first, from the diagonal of M (`best_unit`),
    then a = [alpha * h] for the grid scalings alpha in magnitude-major,
    phase-minor order, in blocks of whole magnitudes: the first scales h up
    to norm `FIRST_BLOCK_RADIUS`, and each later block holds twice as many
    magnitudes as the one before.  Each component of alpha*h is moved at
    most 1/sqrt(2) by the quantizer, so ||a|| >= |alpha| ||h|| - sqrt(L/2),
    and a costs at least ||a||^2.  So the grid stops before the first
    magnitude with |alpha| ||h|| - sqrt(L/2) > sqrt(f_best * (1 + slack)),
    the slack being `optimal.BUDGET_SLACK`, and `_BestTracker.consider`
    drops every row with ||a||^2 over f_best * (1 + slack) before pricing
    it.  Only a strictly cheaper candidate replaces the
    incumbent, and the winner is returned as its `canonical` unit multiple.
    Accuracy is limited by the grid pitch, which is the point: this is the
    discretized stand-in that the exact discontinuity scan replaces.
    """
    params = params or QesParams()
    t0 = time.perf_counter()
    M = cost_matrix(ch)
    nonzero_mags = np.abs(ch.h[ch.h != 0])
    mag_max = params.mag_max
    if mag_max is None and nonzero_mags.size:
        mag_max = (math.ceil(phi_bound(ch)) + 0.5) / float(nonzero_mags.min())

    best = _BestTracker(M, Ring.GAUSSIAN, lam_min=1.0)
    best.consider_units()
    if nonzero_mags.size:
        n_mag = int(math.floor(mag_max / params.mag_step + 1e-9))
        n_phase = int(math.ceil(90.0 / params.phase_step_deg - 1e-9))
        rotations = np.exp(1j * np.deg2rad(params.phase_step_deg * np.arange(n_phase)))
        h_norm = float(np.linalg.norm(ch.h))
        max_mags = max(1, SCAN_CHUNK_ROWS // (ch.L * n_phase))
        # the first block scales h up to norm FIRST_BLOCK_RADIUS
        lo, size = 0, max(1, int(FIRST_BLOCK_RADIUS / (h_norm * params.mag_step)))
        while True:
            # magnitudes 1..top can still win
            top = int((math.sqrt(best.budget()) + math.sqrt(ch.L / 2)) / (h_norm * params.mag_step))
            hi = min(lo + size, n_mag, top)
            if hi <= lo:
                break
            mags = params.mag_step * np.arange(lo + 1, hi + 1)
            alphas = (mags[:, None] * rotations[None, :]).ravel()
            best.consider(*quantize_gaussian_array(alphas[:, None] * ch.h[None, :]))
            lo, size = hi, min(2 * size, max_mags)
    return _search_result(*best.coords, M, Ring.GAUSSIAN, best.checked, t0, lambda a: rate(ch, a))
