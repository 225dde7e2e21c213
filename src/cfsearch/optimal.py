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
three lattice families inside a circle of radius ceil(Phi) + 3/4.

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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class DiscontinuitySet:
    """Marked quantizer-boundary points, sorted by (real, imag)."""

    points: np.ndarray
    ring: Ring
    bound: float


@dataclass(frozen=True)
class AlphaSet:
    """Candidate scalings alpha = phi / h_l with their provenance.

    `phis[i]` is the marked point and `component[i]` the channel index l such
    that `alphas[i] * h_l` equals `phis[i]` exactly.  `units_only` signals a
    degenerate all-zero channel for which only unit vectors remain.
    """

    alphas: np.ndarray
    phis: np.ndarray
    component: np.ndarray
    units_only: bool


def _check_phi(phi: float) -> float:
    if not (np.isfinite(phi) and phi > 0):
        raise InvalidInputError(f"phi must be positive and finite, got {phi}")
    return float(phi)


def gen_disc_gaussian(phi: float) -> DiscontinuitySet:
    """Marked boundary points of the Gaussian quantizer within the search circle.

    Points have (integer, half-integer), (half-integer, integer) or
    (half-integer, half-integer) coordinates and modulus at most
    ceil(phi) + 1/2.  The imaginary range is trimmed per real value, and all
    coordinates are exact dyadics so membership tests are exact.
    """
    phi = _check_phi(phi)
    B = math.ceil(phi) + 0.5
    B2 = B * B
    reals = -B + 0.5 * np.arange(int(round(4 * B)) + 1)
    pts = []
    for r in reals:
        rem = B2 - r * r
        m = math.sqrt(rem) if rem > 0 else 0.0
        if r % 1.0 == 0.5:
            # families with half-integer real part: integer or half-integer imag
            lo = math.floor(-m - 1)
            hi = math.ceil(m + 1)
            ims = 0.5 * np.arange(2 * lo, 2 * hi + 1)
        else:
            # integer real part: half-integer imag only
            lo = math.floor(-m - 1)
            hi = math.ceil(m + 1)
            ims = 0.5 + np.arange(lo, hi + 1)
        ims = ims[r * r + ims * ims <= B2]
        if ims.size:
            pts.append(r + 1j * ims)
    points = np.concatenate(pts) if pts else np.empty(0, np.complex128)
    return DiscontinuitySet(points=points, ring=Ring.GAUSSIAN, bound=B)


def gen_disc_eisenstein(phi: float) -> DiscontinuitySet:
    """Marked boundary points of the Eisenstein quantizer within the search circle.

    The points are the midpoints of nearest-neighbor pairs of the hexagonal
    lattice: real parts in 1/4 + Z/2 with imaginary parts in
    sqrt(3)*(1/4 + Z/2), integer real parts with imaginary parts in
    sqrt(3)*(1/2 + Z), and real parts in 1/2 + Z with imaginary parts in
    sqrt(3)*Z, all with modulus at most ceil(phi) + 3/4 (up to float slack;
    no family point lies exactly on the circle).
    """
    phi = _check_phi(phi)
    B = math.ceil(phi) + 0.75
    B2 = B * B * (1.0 + EISENSTEIN_BOUND_SLACK)
    families = (
        (0.25, 0.5, 0.25, 0.5),  # (re offset, re step, im multiple offset, im step)
        (0.0, 1.0, 0.5, 1.0),
        (0.5, 1.0, 0.0, 1.0),
    )
    pts = []
    for re_off, re_step, im_off, im_step in families:
        k_lo = math.floor((-B - re_off) / re_step) - 1
        k_hi = math.ceil((B - re_off) / re_step) + 1
        for k in range(k_lo, k_hi + 1):
            r = re_off + re_step * k
            if r * r > B2:
                continue
            m = math.sqrt(max(B2 - r * r, 0.0)) / SQRT3
            t_lo = math.floor((-m - im_off) / im_step) - 1
            t_hi = math.ceil((m - im_off) / im_step) + 1
            t = im_off + im_step * np.arange(t_lo, t_hi + 1)
            ims = SQRT3 * t
            ims = ims[r * r + ims * ims <= B2]
            if ims.size:
                pts.append(r + 1j * ims)
    points = np.concatenate(pts) if pts else np.empty(0, np.complex128)
    order = np.lexsort((points.imag, points.real))
    return DiscontinuitySet(points=points[order], ring=Ring.EISENSTEIN, bound=B)


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
    arguments in [0, 60) (Eisenstein ring only; six-fold reduction).  An
    all-zero channel yields an empty set flagged `units_only`.
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
    nonzero = [l for l in range(ch.L) if ch.h[l] != 0]
    if not nonzero:
        empty_c = np.empty(0, np.complex128)
        return AlphaSet(empty_c, empty_c, np.empty(0, np.int64), units_only=True)
    alphas = np.concatenate([points / ch.h[l] for l in nonzero])
    phis = np.tile(points, len(nonzero))
    component = np.repeat(np.asarray(nonzero, np.int64), points.size)
    return AlphaSet(alphas, phis, component, units_only=False)


def _eisenstein_coords_from_values(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover integer (a, b) coordinates from exact lattice values."""
    b = np.rint(v.imag * 2.0 / SQRT3).astype(np.int64)
    a = np.rint(v.real + b / 2.0).astype(np.int64)
    return a, b


class _BestTracker:
    """Running strict-< minimum over candidate blocks of integer coordinates.

    The one incumbent of the sampling scans in `search_optimal`,
    `search_optimal_mimo` and `qes_search`: a block's all-zero rows are
    dropped, the rest priced with `cost_batch`, and only a strictly cheaper
    candidate replaces the incumbent, so ties keep the earliest one.
    `checked` counts the candidates priced, plus the certification nodes.
    """

    def __init__(self, M: np.ndarray, ring: Ring):
        self.M = M
        self.ring = ring
        self.f = np.inf
        self.coords: tuple[np.ndarray, np.ndarray] | None = None
        self.checked = 0

    def consider(self, x: np.ndarray, y: np.ndarray) -> None:
        keep = np.any((x != 0) | (y != 0), axis=1)
        # most blocks hold no zero row: skip the copy while the caller still
        # holds the block, which would otherwise raise the peak allocation
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

    Phase one scans every candidate scaling from `gen_alpha_set`, quantizing
    alpha*h with the active component pinned to its exact marked point (the
    symmetry-reduced scans additionally evaluate every adjacent quantizer
    cell of the active component).  Phase two prices the unit vectors from
    the diagonal of M (`best_unit`: u*e_l costs M_ll for every unit u),
    updating only on strict improvement.  Phase three certifies the
    incumbent with a seeded cost-pruned depth-first scan, which replaces it
    only when a strictly cheaper vector exists (see the module docstring for
    why sampling alone can rarely miss one).  Ties resolve to the first
    candidate encountered in this fixed order, and the winner is returned
    as its `canonical` unit multiple, so identical inputs always return the
    identical vector.

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
    best = _BestTracker(M, ring)

    if not aset.units_only:
        for l in np.unique(aset.component):
            sel = aset.component == l
            phis = aset.phis[sel]
            A = aset.alphas[sel][:, None] * ch.h[None, :]
            A[:, l] = phis  # the active component sits exactly on the boundary
            if gaussian:
                x, y = quantize_gaussian_array(A)
            else:
                x, y = quantize_eisenstein_array(A)
            best.consider(x, y)
            if quadrant_reduce:
                re_half = np.mod(phis.real, 1.0) == 0.5
                im_half = np.mod(phis.imag, 1.0) == 0.5
                for mask, dx, dy in (
                    (re_half, 1, 0),
                    (im_half, 0, 1),
                    (re_half & im_half, 1, 1),
                ):
                    if mask.any():
                        xv, yv = x[mask].copy(), y[mask].copy()
                        xv[:, l] -= dx
                        yv[:, l] -= dy
                        best.consider(xv, yv)
            if sector_reduce:
                # mirrored endpoint of the bisected nearest-neighbor pair
                mirrored = 2.0 * phis - ring.values(x[:, l], y[:, l])
                ma, mb = _eisenstein_coords_from_values(mirrored)
                xv, yv = x.copy(), y.copy()
                xv[:, l] = ma
                yv[:, l] = mb
                best.consider(xv, yv)

    best.consider_units()
    best.certify(ch.h, ch.P, "optimal")
    return _search_result(*best.coords, M, ring, best.checked, t0, lambda a: rate(ch, a))
