"""Exact coefficient search by enumerating quantizer discontinuities.

The optimal coefficient vector for a vector channel is, up to a ring unit,
the componentwise quantization of alpha*h for some complex scaling alpha.
As alpha varies, the quantized vector only changes when some component
alpha*h_l crosses a quantizer cell boundary, so it suffices to evaluate the
cost at the finitely many scalings where a boundary crossing can change the
winning vector, plus all unit vectors.  Every unit vector u*e_l costs the
diagonal entry M_ll, so the unit vectors are priced from diag(M) alone.

The marked boundary points for the Gaussian ring are the complex numbers
with one coordinate integer and the other half-integer, or both coordinates
half-integer, inside a circle of radius ceil(Phi) + 1/2.  For the Eisenstein
ring they are the midpoints of nearest-neighbor lattice pairs, which form
three residue classes of a quarter grid inside a circle of radius
ceil(Phi) + 3/4.  Both sets depend only on the ring and ceil(Phi); each is
laid out row by row in one vectorized pass, and a set of more than
`MAX_MARKED_POINTS` points is refused before it is allocated.

Multiplying a vector by a unit rotates every marked point by the same angle
and leaves the cost unchanged, so by default the search keeps only the
marked points of one unit sector: arguments in [0, 90) degrees for the
Gaussian ring, [0, 60) for the Eisenstein ring.  A marked point places the
active component exactly on a cell boundary, where the deterministic tie
rule selects one adjacent cell; the symmetry-reduced scans additionally
evaluate the other cells adjacent to the marked point so that dropping
rotated points never drops a candidate.  The result is returned as the
`canonical` member of its unit orbit, so it does not depend on which
rotation the scan happened to meet first.

Marked-point sampling alone is not quite exhaustive.  In the scaling plane
the quantized vector is constant on cells of an arrangement of scaled
quantizer-boundary curves, and a cell is sampled only where the image of a
marked point lands on its closure.  A cell whose boundary consists entirely
of curve pieces between crossings -- touching no marked-point image -- is
never sampled, and on rare channels (order one in ten thousand at moderate
sizes) such a cell holds the true minimizer.  The search therefore finishes
with a certification phase: a cost-pruned depth-first scan seeded with the
sampling incumbent, which provably visits every vector strictly cheaper
than its seed.  The certifier returns the seed unchanged whenever sampling
already found the optimum, so the result is exact by construction while the
certification cost stays near zero when the incumbent is tight.

The scan prices the unit vectors first, so it starts with a finite
incumbent f_best, and then streams the marked points in ascending modulus.
Every candidate a costs at least ||a||^2 (the smallest eigenvalue of the
Gram matrix is 1), and a row sampled at marked point phi has an active
component within r of phi, r = 1/sqrt(2) (Gaussian) or 1/2 (Eisenstein).
Once (|phi| - r)^2 exceeds f_best no later point can improve the
incumbent, so the stream stops there, and each block's rows with
||a||^2 > f_best are dropped on their exact integer norms before they are
priced (both tests allow a relative slack of `BUDGET_SLACK` for rounding).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .dfs import best_unit, cost_pruned_scan
from .errors import InvalidInputError, NumericError
from .model import (
    ChannelVector,
    SearchResult,
    cost_batch,
    cost_matrix,
    phi_bound,
    rate,
    replay_args,
)
from .rings import (
    SQRT3,
    CoefficientVector,
    Ring,
    canonical,
    quantize_eisenstein_array,
    quantize_gaussian_array,
    vector_from_arrays,
)

EISENSTEIN_BOUND_SLACK = 1e-12  # relative slack for irrational coordinates
#: Relative slack on the lower bounds that screen candidates against the
#: incumbent cost (`_BestTracker.budget`): it absorbs the rounding of costs
#: and bounds computed in floating point.
BUDGET_SLACK = 1e-9
#: Most marked points `gen_disc_*` lay out (read at call time): ten times
#: the largest set the tests, the benchmark and `cfsearch selftest` reach.
MAX_MARKED_POINTS = 10_000_000
#: Tuple rows per block streamed by `_tuple_blocks`, and the most scalings
#: (marked points times nonzero channel entries) in one block of
#: `search_optimal`.
TUPLE_CHUNK_ROWS = 1 << 18
#: Radius of the disc of marked points that `search_optimal` streams as its
#: first block; each later block doubles the area covered.
FIRST_BLOCK_RADIUS = 4.0
#: Farthest a marked point lies from the ring elements its rows put in the
#: active component: a vertex of the square cells sits 1/sqrt(2) from its
#: four lattice points, and a hexagonal edge midpoint 1/2 from its two.
CELL_REACH = {Ring.GAUSSIAN: math.sqrt(0.5), Ring.EISENSTEIN: 0.5}


@dataclass(frozen=True)
class DiscontinuitySet:
    """Marked quantizer-boundary points, sorted by (real, imag)."""

    points: np.ndarray
    ring: Ring
    bound: float


@dataclass(frozen=True)
class AlphaSet:
    """Candidate scalings alpha = phi / h_l for the sampled marked points phi.

    `points` holds the sampled marked points once and `components` the
    indices l of the nonzero channel entries, ascending.  Row s of `alphas`
    holds `points / h_l` for l = `components[s]`, so `alphas[s] * h_l`
    gives back `points`.  An all-zero channel has no components and no
    rows: only unit vectors remain.
    """

    alphas: np.ndarray
    points: np.ndarray
    components: tuple[int, ...]


def _check_phi(phi: float) -> float:
    if not (np.isfinite(phi) and phi > 0):
        raise InvalidInputError(f"phi must be positive and finite, got {phi}")
    return float(phi)


def _lay_out_disc(
    ring: Ring,
    phi: float,
    B: float,
    B2: float,
    re: np.ndarray,
    J: np.ndarray,
    step: np.ndarray,
    imag_of: Callable[[np.ndarray], np.ndarray],
) -> DiscontinuitySet:
    """The grid points (re[r], imag_of(j)) with re^2 + imag^2 <= B2, row by row.

    Row r holds the columns j = -J[r], -J[r] + step[r], ..., J[r]; `J` enters
    as an upper estimate in the row's residue class and each row's end is
    lowered until the exact test admits it.  The admitted columns of a row
    are one symmetric range because the test is monotone in |imag|, so the
    point count is known before anything is allocated and is checked
    against `MAX_MARKED_POINTS`.  Rows ascend in `re` and columns in j, so
    the points come out sorted by (real, imag).
    """
    while True:
        im = imag_of(J)
        too_far = (J >= 0) & (re * re + im * im > B2)
        if not too_far.any():
            break
        J = J - step * too_far
    counts = np.where(J >= 0, 2 * J // step + 1, 0)
    n = int(counts.sum())
    if n > MAX_MARKED_POINTS:
        raise NumericError(
            f"the {ring.value} marked-point set for phi={phi!r} holds {n} points, over "
            f"the {MAX_MARKED_POINTS}-point budget"
        )
    # one ragged arange: j = -J[r] + step[r] * (position within row r)
    starts = np.cumsum(counts) - counts
    j = np.arange(n)
    j *= np.repeat(step, counts)
    j -= np.repeat(J + step * starts, counts)
    # drop each temporary before the next: the peak stays near 2x the output
    imag = imag_of(j)
    del j
    points = np.empty(n, np.complex128)
    points.imag = imag
    del imag
    points.real = np.repeat(re, counts)
    return DiscontinuitySet(points=points, ring=ring, bound=B)


def gen_disc_gaussian(phi: float) -> DiscontinuitySet:
    """Marked boundary points of the Gaussian quantizer within the search circle.

    The points are the half-integer grid (Z/2)^2 without Z^2: coordinates
    (integer, half-integer), (half-integer, integer) or (half-integer,
    half-integer), with modulus at most ceil(phi) + 1/2.  Row i/2 of the
    grid holds the columns j/2 with j of any parity (i odd) or j odd (i
    even), trimmed per row by one vectorized square root with a margin of
    one and then by the exact test; all coordinates are exact dyadics, so
    the test is exact.  Raises NumericError when the set would hold more
    than `MAX_MARKED_POINTS` points.
    """
    phi = _check_phi(phi)
    B = math.ceil(phi) + 0.5
    B2 = B * B
    k = np.arange(int(round(4 * B)) + 1)
    re = -B + 0.5 * k
    integer_re = k % 2  # B is a half-integer: odd k gives an integer re
    step = 1 + integer_re
    m = np.sqrt(np.maximum(B2 - re * re, 0.0))
    J = np.ceil(2 * m).astype(np.int64) + 2
    J -= (J - integer_re) % step  # into the row's residue class
    return _lay_out_disc(Ring.GAUSSIAN, phi, B, B2, re, J, step, lambda j: 0.5 * j)


def gen_disc_eisenstein(phi: float) -> DiscontinuitySet:
    """Marked boundary points of the Eisenstein quantizer within the search circle.

    The points are the midpoints of nearest-neighbor pairs of the hexagonal
    lattice, with modulus at most ceil(phi) + 3/4 (up to float slack; no
    point lies exactly on the circle).  On the grid re = i/4,
    im = sqrt(3)*j/4 they are three residue classes: i and j both odd;
    i = 0 and j = 2 (mod 4); i = 2 and j = 0 (mod 4).  Each row is trimmed
    by one vectorized square root with a margin of one and then by the
    exact test.  Raises NumericError when the set would hold more than
    `MAX_MARKED_POINTS` points.
    """
    phi = _check_phi(phi)
    B = math.ceil(phi) + 0.75
    B2 = B * B * (1.0 + EISENSTEIN_BOUND_SLACK)
    i = np.arange(-int(4 * B), int(4 * B) + 1)
    re = 0.25 * i
    step = np.where(i % 2 == 1, 2, 4)
    residue = np.where(i % 2 == 1, 1, (i + 2) % 4)
    m = np.sqrt(np.maximum(B2 - re * re, 0.0)) / SQRT3
    J = np.ceil(4 * m).astype(np.int64) + 4
    J -= (J - residue) % step  # into the row's residue class
    return _lay_out_disc(
        Ring.EISENSTEIN, phi, B, B2, re, J, step, lambda j: SQRT3 * (0.25 * j)
    )


def gen_disc(phi: float, ring: Ring) -> DiscontinuitySet:
    """Ring-dispatching wrapper over the two generators."""
    if ring is Ring.GAUSSIAN:
        return gen_disc_gaussian(phi)
    return gen_disc_eisenstein(phi)


def _quadrant_filter(points: np.ndarray) -> np.ndarray:
    """arg(phi) in [0, 90): one representative per 4-element unit orbit."""
    return (points.real > 0) & (points.imag >= 0)


def _sector_filter(points: np.ndarray) -> np.ndarray:
    """arg(phi) in [0, 60): one representative per 6-element unit orbit."""
    return (points.real > 0) & (points.imag >= 0) & (points.imag < SQRT3 * points.real)


def gen_alpha_set(
    psi: DiscontinuitySet,
    ch: ChannelVector,
    quadrant_reduce: bool = False,
    *,
    sector_reduce: bool = False,
) -> AlphaSet:
    """Candidate scalings {phi / h_l} for all marked points and nonzero h_l.

    `quadrant_reduce` keeps only marked points with argument in [0, 90)
    (Gaussian ring only; four-fold reduction).  `sector_reduce` keeps
    arguments in [0, 60) (Eisenstein ring only; six-fold reduction).  The
    set holds one row of scalings per nonzero component, in ascending
    order, each over the same marked points in the same order.
    """
    if quadrant_reduce and psi.ring is not Ring.GAUSSIAN:
        raise InvalidInputError("quadrant reduction applies to the Gaussian ring only")
    if sector_reduce and psi.ring is not Ring.EISENSTEIN:
        raise InvalidInputError("sector reduction applies to the Eisenstein ring only")
    points = psi.points
    if quadrant_reduce:
        points = points[_quadrant_filter(points)]
    elif sector_reduce:
        points = points[_sector_filter(points)]
    components = tuple(l for l in range(ch.L) if ch.h[l] != 0)
    alphas = np.empty((len(components), points.size), np.complex128)
    for row, l in zip(alphas, components):
        np.divide(points, ch.h[l], out=row)
    return AlphaSet(alphas, points, components)


def _eisenstein_coords_from_values(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover integer (a, b) coordinates from exact lattice values."""
    b = np.rint(v.imag * 2.0 / SQRT3).astype(np.int64)
    a = np.rint(v.real + b / 2.0).astype(np.int64)
    return a, b


class _BestTracker:
    """Running strict-< minimum over candidate blocks of integer coordinates.

    The one incumbent of the sampling scans in `search_optimal`,
    `search_optimal_mimo` and `qes_search`, and of the full-ball scan of
    `exhaustive_search(prune="norm")`.  `lam_min` is the smallest
    eigenvalue of M (1 for `cost_matrix`, 1/Phi^2 for `mimo_gram`; 0 turns
    the screen off): every row a costs at least lam_min*||a||^2, so a block
    drops its all-zero rows and every row with lam_min*||a||^2 over
    `budget()`, on exact integer norms, before it prices the rest with
    `cost_batch`.  Only a strictly cheaper candidate replaces the
    incumbent, so ties keep the earliest one.  `checked` counts the
    candidates priced, plus the certification nodes.
    """

    def __init__(self, M: np.ndarray, ring: Ring, lam_min: float = 0.0):
        self.M = M
        self.ring = ring
        self.lam_min = lam_min
        self.f = np.inf
        self.coords: tuple[np.ndarray, np.ndarray] | None = None
        self.checked = 0

    def budget(self) -> float:
        """The incumbent cost widened by `BUDGET_SLACK`: a candidate whose cost
        provably exceeds it cannot win."""
        return self.f * (1.0 + BUDGET_SLACK)

    def consider(self, x: np.ndarray, y: np.ndarray) -> None:
        n = self.ring.norm(x, y).sum(axis=1)
        keep = (n > 0) & (self.lam_min * n <= self.budget())
        # a block kept whole is priced without a copy: the caller still holds
        # it, so a copy would raise the peak allocation
        if not keep.all():
            if not keep.any():
                return
            x, y = x[keep], y[keep]
        f = cost_batch(self.ring.values(x, y), self.M)
        self.checked += f.size
        i = int(np.argmin(f))
        if f[i] < self.f:
            self.f = float(f[i])
            self.coords = (x[i], y[i])

    def consider_units(self) -> None:
        """Offer the cheapest unit vector (`best_unit`), counted as L candidates."""
        x, y, f = best_unit(self.M)
        self.checked += self.M.shape[0]
        if f < self.f:
            self.f = f
            self.coords = (x, y)

    def certify(self, H: np.ndarray, P: float, algorithm: str) -> None:
        """Adopt the answer of a `cost_pruned_scan` seeded with the incumbent.

        The scan returns the seed unless a strictly cheaper vector exists
        (see the module docstring for why sampling alone can rarely miss
        one); its nodes count as checked.  A budget error is re-raised with
        the `cfsearch search` arguments that replay channel `H` at power `P`.
        """
        try:  # `seed` by keyword: perfbench's tracer reads it to count certifications
            x, y, self.f, nodes = cost_pruned_scan(self.M, self.ring, seed=(*self.coords, self.f))
        except NumericError as e:
            raise NumericError(
                f"{e} while certifying; replay with "
                f"cfsearch search {replay_args(H, P, self.ring, algorithm)}"
            ) from e
        self.coords = (x, y)
        self.checked += nodes


def _tuple_blocks(
    w: np.ndarray, idx: np.ndarray, s: np.ndarray, budget: Callable[[], float]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream every row of `idx` extended by each index j with s + w[j] <= budget().

    `w` is ascending, so the indices a row admits are a prefix of `w`, found
    by binary search.  Blocks hold up to `TUPLE_CHUNK_ROWS` rows (at least
    one prefix row each) in prefix-major order with the new index fastest,
    paired with their weight sums; empty blocks are not yielded.  `budget`
    is called again before each block, so a budget lowered by the consumer
    drops the remaining tuples it no longer admits.
    """
    pos = 0
    while pos < s.size:
        counts = np.searchsorted(w, budget() - s[pos:], side="right")
        ends = np.cumsum(counts)
        n = max(1, int(np.searchsorted(ends, TUPLE_CHUNK_ROWS, side="right")))
        counts, ends = counts[:n], ends[:n]
        if ends[-1]:
            rows = pos + np.repeat(np.arange(n), counts)
            inner = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
            yield np.concatenate([idx[rows], inner[:, None]], axis=1), s[rows] + w[inner]
        pos += n


def _tuple_prefixes(
    w: np.ndarray, depth: int, budget: float, max_rows: int, too_many: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """The table of index tuples of length `depth` over ascending weights `w`
    whose weight sum is at most `budget`, with those sums.

    Grown one level at a time through `_tuple_blocks`; raises
    NumericError(too_many(rows)) when a level would hold more than
    `max_rows` rows, counted before the level is built.
    `_tuple_blocks(w, *table, budget)` then streams the last level.
    """
    idx, s = np.empty((1, 0), np.int64), np.zeros(1, w.dtype)
    for level in range(depth):
        rows = int(np.searchsorted(w, budget - s, side="right").sum())
        if rows > max_rows:
            raise NumericError(too_many(rows))
        parts = [(np.empty((0, level + 1), np.int64), s[:0])]
        parts += _tuple_blocks(w, idx, s, lambda: budget)
        idx = np.concatenate([p for p, _ in parts])
        s = np.concatenate([t for _, t in parts])
    return idx, s


def _search_result(
    x: np.ndarray,
    y: np.ndarray,
    M: np.ndarray,
    ring: Ring,
    checked: int,
    t0: float,
    rate_of: Callable[[CoefficientVector], float] | None = None,
    **extra,
) -> SearchResult:
    """The `SearchResult` for a minimizer's coordinates, timed from `t0`.

    The vector returned is the `canonical` member of the unit orbit of
    (x, y), and `f_min` is priced on that vector: unit multiples agree in
    cost only up to rounding.  `rate_of(a_opt)` gives the rate (None
    without channel context); `extra` holds further `SearchResult` fields.
    """
    x, y = canonical(x, y, ring)
    f_min = float(cost_batch(ring.values(x, y)[None, :], M)[0])
    a_opt = vector_from_arrays(x, y, ring)
    return SearchResult(
        a_opt=a_opt,
        f_min=f_min,
        rate=None if rate_of is None else rate_of(a_opt),
        candidates_checked=checked,
        elapsed_s=time.perf_counter() - t0,
        ring=ring,
        **extra,
    )


def search_optimal(
    ch: ChannelVector,
    ring: Ring,
    quadrant_reduce: bool | None = None,
    *,
    sector_reduce: bool | None = None,
) -> SearchResult:
    """Minimize a M a^H over nonzero ring vectors by discontinuity enumeration.

    Phase one prices the unit vectors from the diagonal of M (`best_unit`:
    u*e_l costs M_ll for every unit u), which sets the first incumbent.
    Phase two streams the candidate scalings of `gen_alpha_set` in
    ascending |phi| of their marked points, quantizing alpha*h with the
    active component pinned to its exact marked point (the
    symmetry-reduced scans additionally evaluate every adjacent quantizer
    cell of the active component).  The first block holds the marked points
    within `FIRST_BLOCK_RADIUS`, each later block the next annulus of twice
    the area covered so far, with the rows of all nonzero components and
    their adjacent cells: one quantizer call and one `_BestTracker.consider`
    call.  A row from marked point phi has an active component within r of
    phi (`CELL_REACH`: 1/sqrt(2) Gaussian, 1/2 Eisenstein), so it costs at
    least ||a||^2 >= (|phi| - r)^2; before each block the points are cut to
    (|phi| - r)^2 <= f_best * (1 + `BUDGET_SLACK`), and `consider` drops
    every row with ||a||^2 over that budget before pricing it.  Phase three
    certifies the incumbent with a seeded cost-pruned depth-first scan,
    which replaces it only when a strictly cheaper vector exists (see the
    module docstring for why sampling alone can rarely miss one).  Only a
    strictly cheaper candidate replaces the incumbent, and the winner is
    returned as its `canonical` unit multiple, so identical inputs always
    return the identical vector.

    `quadrant_reduce=None` and `sector_reduce=None` apply the ring default:
    one unit sector of marked points, a quarter for Gaussian and a sixth for
    Eisenstein.  Passing False scans every marked point; `gen_alpha_set`
    rejects each flag for the other ring.  A certification budget error is
    re-raised with the `cfsearch search` arguments that replay the instance.
    """
    gaussian = ring is Ring.GAUSSIAN
    quadrant_reduce = gaussian if quadrant_reduce is None else quadrant_reduce
    sector_reduce = (not gaussian) if sector_reduce is None else sector_reduce
    t0 = time.perf_counter()
    M = cost_matrix(ch)
    psi = gen_disc(phi_bound(ch), ring)
    aset = gen_alpha_set(
        psi, ch, quadrant_reduce=quadrant_reduce, sector_reduce=sector_reduce
    )
    best = _BestTracker(M, ring, lam_min=1.0)
    best.consider_units()

    L = ch.L
    comps = np.array(aset.components, np.int64)
    rows = np.arange(comps.size)  # [rows, :, comps]: each alpha row's active entry
    radii = np.abs(aset.points)
    order = np.argsort(radii, kind="stable")
    radii = radii[order]
    reach = CELL_REACH[ring]
    max_points = max(1, TUPLE_CHUNK_ROWS // max(1, comps.size))
    lo, edge = 0, FIRST_BLOCK_RADIUS
    while comps.size and lo < radii.size:
        cut = reach + math.sqrt(best.budget())
        if radii[lo] > cut:
            break
        hi = min(lo + max_points, int(np.searchsorted(radii, min(edge, cut), side="right")))
        edge *= math.sqrt(2.0)
        if hi == lo:  # no point in this annulus
            continue
        idx = order[lo:hi]
        phis = aset.points[idx]
        A = aset.alphas[:, idx, None] * ch.h
        A[rows, :, comps] = phis  # the active component sits exactly on the boundary
        if gaussian:
            x, y = quantize_gaussian_array(A.reshape(-1, L))
        else:
            x, y = quantize_eisenstein_array(A.reshape(-1, L))
        x, y = x.reshape(A.shape), y.reshape(A.shape)
        xs, ys = [x], [y]
        if quadrant_reduce:
            re_half = np.mod(phis.real, 1.0) == 0.5
            im_half = np.mod(phis.imag, 1.0) == 0.5
            for mask, dx, dy in ((re_half, 1, 0), (im_half, 0, 1), (re_half & im_half, 1, 1)):
                xv, yv = x[:, mask], y[:, mask]
                xv[rows, :, comps] -= dx
                yv[rows, :, comps] -= dy
                xs.append(xv)
                ys.append(yv)
        if sector_reduce:
            # mirrored endpoint of the bisected nearest-neighbor pair
            mirrored = 2.0 * phis - ring.values(x[rows, :, comps], y[rows, :, comps])
            ma, mb = _eisenstein_coords_from_values(mirrored)
            xv, yv = x.copy(), y.copy()
            xv[rows, :, comps] = ma
            yv[rows, :, comps] = mb
            xs.append(xv)
            ys.append(yv)
        best.consider(
            np.concatenate([v.reshape(-1, L) for v in xs]),
            np.concatenate([v.reshape(-1, L) for v in ys]),
        )
        lo = hi

    best.certify(ch.h, ch.P, "optimal")
    return _search_result(*best.coords, M, ring, best.checked, t0, lambda a: rate(ch, a))
