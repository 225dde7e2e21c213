"""Unit symmetry: the canonical orbit representative, sector-reduced sampling
and the diagonal unit phase.

Every unit multiple u*a costs the same as a, so a minimizer is defined only
up to its orbit (4 Gaussian units, 6 Eisenstein units).  `canonical` picks
one member; the searches sample one unit sector of marked points by default,
price all unit vectors from the diagonal of M and return canonical vectors.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsearch.baselines import exhaustive_search, qes_search
from cfsearch.bench import gen_channel
from cfsearch.dfs import best_unit
from cfsearch.errors import InvalidInputError
from cfsearch.mimo import search_optimal_mimo
from cfsearch.model import (
    ChannelMatrix,
    ChannelVector,
    cost_batch,
    cost_matrix,
    mimo_gram,
    mimo_phi,
    phi_bound,
)
from cfsearch.optimal import search_optimal
from cfsearch.rings import (
    EisensteinInt,
    GaussianInt,
    Ring,
    canonical,
    eisenstein_values,
    gaussian_values,
    unit_vectors,
    units,
    vector_coords,
    vector_from_arrays,
    vector_value,
)

SECTOR_DEG = {Ring.GAUSSIAN: 90.0, Ring.EISENSTEIN: 60.0}


def values(x, y, ring):
    return (gaussian_values if ring is Ring.GAUSSIAN else eisenstein_values)(x, y)


def in_sector_zero(x: int, y: int, ring: Ring) -> bool:
    if ring is Ring.GAUSSIAN:
        return x > 0 and y >= 0
    return 0 <= y < x


def is_canonical(vec, ring) -> bool:
    x, y = vector_coords(vec, ring)
    cx, cy = canonical(x, y, ring)
    return np.array_equal(cx, x) and np.array_equal(cy, y)


coords = st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=8)


@given(ring=st.sampled_from(list(Ring)), pairs=coords)
@settings(max_examples=300, deadline=None)
def test_canonical_properties(ring, pairs):
    if all(p == (0, 0) for p in pairs):
        pairs = pairs + [(1, 0)]
    x = np.array([p[0] for p in pairs], np.int64)
    y = np.array([p[1] for p in pairs], np.int64)
    cx, cy = canonical(x, y, ring)

    # idempotent
    cx2, cy2 = canonical(cx, cy, ring)
    assert np.array_equal(cx2, cx) and np.array_equal(cy2, cy)

    # the first nonzero entry lies in sector 0, by the integer rule and by angle
    j = int(np.flatnonzero((cx != 0) | (cy != 0))[0])
    assert in_sector_zero(int(cx[j]), int(cy[j]), ring)
    deg = float(np.degrees(np.angle(values(cx[j], cy[j], ring))))
    assert -1e-9 <= deg < SECTOR_DEG[ring] - 1e-9

    # invariant under every unit, and itself a unit multiple of the input
    vec = vector_from_arrays(x, y, ring)
    orbit = [tuple(u * e for e in vec) for u in units(ring)]
    assert vector_from_arrays(cx, cy, ring) in orbit
    for rotated in orbit:
        rx, ry = canonical(*vector_coords(rotated, ring), ring)
        assert np.array_equal(rx, cx) and np.array_equal(ry, cy)


def test_each_orbit_has_one_member_in_sector_zero():
    for ring, cls in ((Ring.GAUSSIAN, GaussianInt), (Ring.EISENSTEIN, EisensteinInt)):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if (a, b) == (0, 0):
                    continue
                orbit = {(int(x[0]), int(y[0])) for x, y in
                         (vector_coords((u * cls(a, b),), ring) for u in units(ring))}
                assert len(orbit) == len(units(ring))
                inside = [p for p in orbit if in_sector_zero(*p, ring)]
                cx, cy = canonical(np.array([a]), np.array([b]), ring)
                assert inside == [(int(cx[0]), int(cy[0]))]


def test_canonical_rejects_zero_vector():
    with pytest.raises(InvalidInputError):
        canonical(np.zeros(3, np.int64), np.zeros(3, np.int64), Ring.GAUSSIAN)


def _vector_channel(L, snr_db, rng):
    return gen_channel(L, 1, rng, 10.0 ** (snr_db / 10.0)).row_vector()


def test_eisenstein_sector_reduction_soundness():
    # the Eisenstein analogue of criterion 09, with the argmin compared too
    rng = np.random.default_rng(660009)
    total = 0
    for L, trials in ((2, 25), (3, 20), (4, 12), (8, 2)):
        for snr in (0, 10, 20, 30):
            for _ in range(trials):
                ch = _vector_channel(L, snr, rng)
                on = search_optimal(ch, Ring.EISENSTEIN)
                off = search_optimal(ch, Ring.EISENSTEIN, sector_reduce=False)
                assert on.f_min == pytest.approx(off.f_min, rel=1e-12, abs=0)
                assert on.a_opt == off.a_opt
                total += 1
    assert total == 4 * (25 + 20 + 12 + 2)


def test_sector_reduction_is_the_eisenstein_default():
    ch = ChannelVector(np.array([0.7 - 0.4j, -1.1 + 0.3j, 0.2 + 0.9j]), 30.0)
    default = search_optimal(ch, Ring.EISENSTEIN)
    full = search_optimal(ch, Ring.EISENSTEIN, sector_reduce=False)
    explicit = search_optimal(ch, Ring.EISENSTEIN, sector_reduce=True)
    assert dataclasses.replace(explicit, elapsed_s=default.elapsed_s) == default
    # a sixth of the marked points, each with its mirrored endpoint
    assert default.candidates_checked < full.candidates_checked / 2
    with pytest.raises(InvalidInputError):
        search_optimal(ch, Ring.GAUSSIAN, sector_reduce=True)
    assert search_optimal(ch, Ring.GAUSSIAN, sector_reduce=False).a_opt == search_optimal(
        ch, Ring.GAUSSIAN
    ).a_opt


@pytest.mark.parametrize("ring", list(Ring))
def test_every_exact_search_returns_the_same_canonical_vector(ring):
    rng = np.random.default_rng(660010 + (ring is Ring.EISENSTEIN))
    for L in (2, 3):
        for snr in (0, 10):
            for _ in range(8):
                chm = gen_channel(L, 1, rng, 10.0 ** (snr / 10.0))
                ch = chm.row_vector()
                M, phi = cost_matrix(ch), phi_bound(ch)
                results = [
                    search_optimal(ch, ring),
                    search_optimal_mimo(chm, ring),
                    exhaustive_search(M, phi, ring, prune="cost"),
                    exhaustive_search(M, phi, ring, prune="norm"),
                ]
                # the k = 1 matrix search minimizes M / phi^2: same argmin
                for res in results:
                    assert is_canonical(res.a_opt, ring)
                    assert res.a_opt == results[0].a_opt
                for res in results[2:]:
                    assert res.f_min == pytest.approx(results[0].f_min, rel=1e-12)


@pytest.mark.parametrize("ring", list(Ring))
def test_matrix_search_returns_canonical_vector(ring):
    rng = np.random.default_rng(660012 + (ring is Ring.EISENSTEIN))
    for _ in range(10):
        chm = gen_channel(3, 2, rng, 10.0)
        res = search_optimal_mimo(chm, ring)
        assert is_canonical(res.a_opt, ring)
        ref = exhaustive_search(mimo_gram(chm), mimo_phi(chm), ring, prune="cost")
        assert res.a_opt == ref.a_opt


def test_qes_returns_canonical_vector():
    rng = np.random.default_rng(660014)
    for _ in range(20):
        ch = _vector_channel(3, 10, rng)
        assert is_canonical(qes_search(ch).a_opt, Ring.GAUSSIAN)


def old_unit_scan(M, ring):
    """The minimum over all 4L or 6L unit vectors, each costed as a vector."""
    V = np.stack([vector_value(u) for u in unit_vectors(M.shape[0], ring)])
    return float(cost_batch(V, M).min())


ZERO_CHANNELS = [
    np.zeros(2, complex),
    np.zeros(4, complex),
    np.array([0.0, 1.5 - 0.5j]),
    np.array([0.8 + 0.1j, 0.0, -0.3 + 1.2j]),
    np.array([0.0, 0.0, 2.0j, 0.0]),
]


@pytest.mark.parametrize("h", ZERO_CHANNELS, ids=lambda h: f"L{h.size}-{int(np.count_nonzero(h))}nz")
@pytest.mark.parametrize("ring", list(Ring))
def test_diagonal_unit_phase_matches_the_unit_scan(h, ring):
    ch = ChannelVector(h, 3.0)
    M = cost_matrix(ch)
    x, y, f = best_unit(M)
    assert f == pytest.approx(old_unit_scan(M, ring), rel=1e-15)
    assert cost_batch(values(x, y, ring)[None, :], M)[0] == f
    ref = exhaustive_search(M, phi_bound(ch), ring, prune="norm").f_min
    res = search_optimal(ch, ring)
    assert res.f_min == pytest.approx(ref, rel=1e-12)
    assert is_canonical(res.a_opt, ring)
    chm = ChannelMatrix(h[None, :], ch.P)
    mres = search_optimal_mimo(chm, ring)
    mref = exhaustive_search(mimo_gram(chm), mimo_phi(chm), ring, prune="norm").f_min
    assert mres.f_min == pytest.approx(mref, rel=1e-12)
    assert mres.a_opt == res.a_opt
    if not np.any(h):
        # only unit vectors remain: the cost is M_ll = 1 and e_1 is returned
        for f in (res.f_min, mres.f_min, old_unit_scan(M, ring)):
            assert f == pytest.approx(1.0, rel=1e-15)
        assert vector_value(res.a_opt).tolist() == [1.0] + [0.0] * (h.size - 1)
    if ring is Ring.GAUSSIAN:
        qres = qes_search(ch)
        assert qres.f_min >= ref * (1 - 1e-12)
        assert qres.f_min <= old_unit_scan(M, ring)
        if not np.any(h):
            assert qres.f_min == 1.0 and qres.candidates_checked == h.size


def test_unit_phase_counts_one_candidate_per_component():
    # an all-zero channel has no marked-point candidates: L unit candidates
    # plus the certification's nodes, not 4L or 6L
    for ring in Ring:
        for L in (1, 3, 5):
            res = search_optimal(ChannelVector(np.zeros(L, complex), 3.0), ring)
            nodes = exhaustive_search(np.eye(L), 2.0, ring, prune="cost").candidates_checked
            assert res.candidates_checked == L + nodes


def cost_of(res, M) -> float:
    x, y = vector_coords(res.a_opt, res.ring)
    return float(cost_batch(res.ring.values(x, y)[None, :], M)[0])


@pytest.mark.parametrize("L", [2, 3, 4])
def test_zero_channel_reports_the_cost_of_the_returned_unit_vector(L):
    # certification over Z[w] meets a rotated unit a few ulp below 1; the
    # canonical vector returned is e_1, whose cost is exactly 1
    e1 = vector_from_arrays(np.eye(L, dtype=np.int64)[0], np.zeros(L, np.int64), Ring.EISENSTEIN)
    for res in (
        search_optimal(ChannelVector(np.zeros(L, complex), 10.0), Ring.EISENSTEIN),
        search_optimal_mimo(ChannelMatrix(np.zeros((2, L), complex), 10.0), Ring.EISENSTEIN),
    ):
        assert res.a_opt == e1
        assert res.f_min == 1.0


@pytest.mark.parametrize("ring", list(Ring))
def test_f_min_is_the_cost_of_the_returned_vector(ring):
    rng = np.random.default_rng(660016 + (ring is Ring.EISENSTEIN))
    for L in (2, 3, 4):
        for snr in (0, 10, 20):
            for _ in range(4):
                chm = gen_channel(L, 1, rng, 10.0 ** (snr / 10.0))
                ch = chm.row_vector()
                M, phi = cost_matrix(ch), phi_bound(ch)
                results = [search_optimal(ch, ring), exhaustive_search(M, phi, ring, prune="cost")]
                if L == 2 or snr == 0:
                    results.append(exhaustive_search(M, phi, ring, prune="norm"))
                if ring is Ring.GAUSSIAN:
                    results.append(qes_search(ch))
                for res in results:
                    assert res.f_min == cost_of(res, M)
                chm2 = gen_channel(L, 2, rng, 10.0 ** (snr / 10.0))
                res = search_optimal_mimo(chm2, ring)
                assert res.f_min == cost_of(res, mimo_gram(chm2))
