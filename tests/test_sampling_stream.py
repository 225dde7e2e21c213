"""The budgeted sampling stream of `search_optimal` and `qes_search`.

Both searches offer the unit vectors first and then stream their candidates
through `_BestTracker`, which screens rows on a norm lower bound before
pricing them.  The references below keep the plain scans the stream
replaced: every marked point of every nonzero component, one component
after another, with the unit vectors last; and the whole polar grid, then
the unit vectors.  Neither screens or cuts anything.  On a seeded corpus
both searches must return the same canonical vector, the same `f_min` to
the bit and, for `search_optimal`, a certification of the same size.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsearch import baselines, optimal
from cfsearch.baselines import QesParams, qes_search
from cfsearch.bench import gen_channel
from cfsearch.dfs import best_unit, cost_pruned_scan
from cfsearch.model import ChannelVector, cost_batch, cost_matrix, mimo_gram, mimo_phi, phi_bound
from cfsearch.optimal import _BestTracker, gen_alpha_set, gen_disc, search_optimal
from cfsearch.rings import (
    SQRT3,
    Ring,
    canonical,
    quantize_eisenstein_array,
    quantize_gaussian_array,
    vector_from_arrays,
)


class PlainMinimum:
    """Strict-< running minimum that prices every nonzero row it is offered."""

    def __init__(self, M, ring):
        self.M, self.ring = M, ring
        self.f, self.coords = math.inf, None

    def offer(self, x, y):
        keep = np.any((x != 0) | (y != 0), axis=1)
        x, y = x[keep], y[keep]
        if not len(x):
            return
        f = cost_batch(self.ring.values(x, y), self.M)
        i = int(np.argmin(f))
        if f[i] < self.f:
            self.f, self.coords = float(f[i]), (x[i], y[i])

    def offer_units(self):
        x, y, f = best_unit(self.M)
        if f < self.f:
            self.f, self.coords = f, (x, y)

    def result(self):
        x, y = canonical(*self.coords, self.ring)
        f = float(cost_batch(self.ring.values(x, y)[None, :], self.M)[0])
        return vector_from_arrays(x, y, self.ring), f


def reference_search_optimal(ch, ring, reduce):
    """(a_opt, f_min, DFS nodes) of the per-component scan with the units last."""
    gaussian = ring is Ring.GAUSSIAN
    flags = {"quadrant_reduce": reduce} if gaussian else {"sector_reduce": reduce}
    M = cost_matrix(ch)
    aset = gen_alpha_set(gen_disc(phi_bound(ch), ring), ch, **flags)
    best = PlainMinimum(M, ring)
    phis = aset.points
    for l, alpha in zip(aset.components, aset.alphas):
        A = alpha[:, None] * ch.h[None, :]
        A[:, l] = phis
        x, y = (quantize_gaussian_array if gaussian else quantize_eisenstein_array)(A)
        best.offer(x, y)
        if reduce and gaussian:
            re_half = np.mod(phis.real, 1.0) == 0.5
            im_half = np.mod(phis.imag, 1.0) == 0.5
            for mask, dx, dy in ((re_half, 1, 0), (im_half, 0, 1), (re_half & im_half, 1, 1)):
                xv, yv = x[mask], y[mask]
                xv[:, l] -= dx
                yv[:, l] -= dy
                best.offer(xv, yv)
        if reduce and not gaussian:
            # the other endpoint of the nearest-neighbor pair phi bisects
            mirrored = 2.0 * phis - ring.values(x[:, l], y[:, l])
            mb = np.rint(mirrored.imag * 2.0 / SQRT3).astype(np.int64)
            ma = np.rint(mirrored.real + mb / 2.0).astype(np.int64)
            xv, yv = x.copy(), y.copy()
            xv[:, l], yv[:, l] = ma, mb
            best.offer(xv, yv)
    best.offer_units()
    x, y, best.f, nodes = cost_pruned_scan(M, ring, seed=(*best.coords, best.f))
    best.coords = (x, y)
    return *best.result(), nodes


def reference_qes(ch, params):
    """(a_opt, f_min) of the whole polar grid, then the unit vectors."""
    M = cost_matrix(ch)
    best = PlainMinimum(M, Ring.GAUSSIAN)
    mags = np.abs(ch.h[ch.h != 0])
    if mags.size:
        mag_max = (math.ceil(phi_bound(ch)) + 0.5) / float(mags.min())
        n_mag = int(math.floor(mag_max / params.mag_step + 1e-9))
        n_phase = int(math.ceil(90.0 / params.phase_step_deg - 1e-9))
        phases = np.deg2rad(params.phase_step_deg * np.arange(n_phase))
        alphas = (params.mag_step * np.arange(1, n_mag + 1)[:, None] * np.exp(1j * phases)).ravel()
        best.offer(*quantize_gaussian_array(alphas[:, None] * ch.h[None, :]))
    best.offer_units()
    return best.result()


def parity_corpus():
    """Seeded channels: L 2-12 at 0-30 dB, plus channels with zero entries."""
    rng = np.random.default_rng(1313)
    chans = []
    for L, per_cell in ((2, 4), (3, 3), (4, 3), (6, 2), (8, 1), (12, 1)):
        for snr_db in (0, 10, 20, 30):
            if L == 12 and snr_db == 30:
                continue  # the unscreened reference takes seconds per search there
            for _ in range(per_cell):
                chans.append(gen_channel(L, 1, rng, 10.0 ** (snr_db / 10.0)).row_vector())
    # the padded channels of test_optimal's test_zero_components_are_skipped_segments
    rng = np.random.default_rng(1010)
    for L in range(2, 7):
        for snr_db in (0, 10, 20):
            P = 10.0 ** (snr_db / 10)
            h = gen_channel(L, 1, rng, P).H[0]
            n_zeros = int(rng.integers(1, 3))
            zeros = np.sort(rng.choice(L + n_zeros, size=n_zeros, replace=False))
            chans.append(ChannelVector(np.insert(h, zeros - np.arange(n_zeros), 0.0), P))
    chans += [ChannelVector(np.zeros(L, complex), P) for L in (1, 3) for P in (3.0, 100.0)]
    return chans


@pytest.mark.parametrize("ring", list(Ring))
def test_search_optimal_matches_the_per_component_scan(monkeypatch, ring):
    nodes = []
    scan = optimal.cost_pruned_scan

    def counted(M, ring, seed=None):
        out = scan(M, ring, seed=seed)
        nodes.append(out[3])
        return out

    monkeypatch.setattr(optimal, "cost_pruned_scan", counted)
    flag = "quadrant_reduce" if ring is Ring.GAUSSIAN else "sector_reduce"
    checked = 0
    for ch in parity_corpus():
        for reduce in (True, False):
            if not reduce and ch.L > 8:
                continue
            a_ref, f_ref, nodes_ref = reference_search_optimal(ch, ring, reduce)
            res = search_optimal(ch, ring, **{flag: reduce})
            where = f"L={ch.L} P={ch.P} reduce={reduce}"
            assert res.a_opt == a_ref, where
            assert res.f_min.hex() == f_ref.hex(), where
            assert nodes.pop() == nodes_ref, where
            checked += 1
    assert checked >= 60


#: Largest distance from a marked point to the ring elements its rows put
#: in the active component: a square cell's vertex to its four corners, a
#: hexagonal edge's midpoint to its two ends.
CELL_REACH = {Ring.GAUSSIAN: math.sqrt(0.5), Ring.EISENSTEIN: 0.5}


@pytest.mark.parametrize("ring", list(Ring))
def test_stream_reaches_every_point_the_bound_admits(monkeypatch, ring):
    # every row from marked point phi costs at least (|phi| - r)^2, so the
    # stream may stop only past the points with (|phi| - r)^2 <= f_best
    quantized, seeds = [], []
    quantize = {Ring.GAUSSIAN: "quantize_gaussian_array", Ring.EISENSTEIN: "quantize_eisenstein_array"}[ring]
    scan, fn = optimal.cost_pruned_scan, getattr(optimal, quantize)
    monkeypatch.setattr(optimal, quantize, lambda A: quantized.append(len(A)) or fn(A))
    monkeypatch.setattr(
        optimal, "cost_pruned_scan", lambda M, ring, seed: seeds.append(seed[2]) or scan(M, ring, seed=seed)
    )
    flags = {"quadrant_reduce": True} if ring is Ring.GAUSSIAN else {"sector_reduce": True}
    rng = np.random.default_rng(77)
    streamed = total = 0
    for L, snr_db in ((2, 10), (2, 30), (3, 20), (4, 0), (4, 20), (8, 10)):
        for _ in range(4):
            ch = gen_channel(L, 1, rng, 10.0 ** (snr_db / 10.0)).row_vector()
            quantized.clear()
            search_optimal(ch, ring)
            aset = gen_alpha_set(gen_disc(phi_bound(ch), ring), ch, **flags)
            f_best = seeds.pop()
            admitted = np.abs(aset.points) <= CELL_REACH[ring] + math.sqrt(f_best * (1 + 1e-9))
            assert sum(quantized) >= int(admitted.sum()) * len(aset.components), (L, snr_db)
            streamed, total = streamed + sum(quantized), total + aset.alphas.size
    assert streamed < total / 2


def test_qes_grid_reaches_every_magnitude_the_bound_admits(monkeypatch):
    # ||[alpha h]|| >= |alpha| ||h|| - sqrt(L/2): the grid may stop only past
    # the magnitudes with |alpha| ||h|| - sqrt(L/2) <= sqrt(f_best)
    quantized = []
    fn = baselines.quantize_gaussian_array
    monkeypatch.setattr(baselines, "quantize_gaussian_array", lambda A: quantized.append(len(A)) or fn(A))
    rng = np.random.default_rng(78)
    for params in (QesParams(), QesParams(0.5, 30.0)):
        for L, snr_db in ((2, 0), (2, 20), (4, 10), (8, 20)):
            ch = gen_channel(L, 1, rng, 10.0 ** (snr_db / 10.0)).row_vector()
            quantized.clear()
            res = qes_search(ch, params)
            n_phase = int(math.ceil(90.0 / params.phase_step_deg - 1e-9))
            following = params.mag_step * (sum(quantized) // n_phase + 1)
            # the f the grid stopped on, up to the rounding between unit multiples
            reach = math.sqrt(res.f_min * (1 - 1e-12)) + math.sqrt(L / 2)
            assert following * np.linalg.norm(ch.h) > reach, (L, snr_db)


# the default grid, and coarse ones whose few points leave the minimum on
# one scaling, often far out in magnitude
@pytest.mark.parametrize("params", [QesParams(), QesParams(0.5, 30.0), QesParams(1.0, 45.0)])
def test_qes_search_matches_the_whole_grid(params):
    for ch in parity_corpus():
        if ch.L > 8:
            continue
        a_ref, f_ref = reference_qes(ch, params)
        res = qes_search(ch, params)
        assert res.a_opt == a_ref, f"L={ch.L} P={ch.P}"
        assert res.f_min.hex() == f_ref.hex(), f"L={ch.L} P={ch.P}"


@given(
    ring=st.sampled_from(list(Ring)),
    k=st.sampled_from([1, 2]),
    L=st.integers(2, 4),
    snr_db=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_screen_keeps_the_unscreened_minimum(ring, k, L, snr_db, seed):
    rng = np.random.default_rng(seed)
    ch = gen_channel(L, k, rng, 10.0 ** (snr_db / 10.0))
    if k == 1:
        M, lam_min = cost_matrix(ch.row_vector()), 1.0
    else:
        M, lam_min = mimo_gram(ch), 1.0 / mimo_phi(ch) ** 2
    screened, plain = _BestTracker(M, ring, lam_min=lam_min), _BestTracker(M, ring)
    # the optimum and its negation cost exactly the same: an exact tie
    ox, oy, _, _ = cost_pruned_scan(M, ring)
    rows_x = [rng.integers(-4, 5, (int(rng.integers(1, 40)), L)) for _ in range(4)]
    rows_y = [rng.integers(-4, 5, x.shape) for x in rows_x]
    for x, y in zip(rows_x, rows_y):
        if rng.random() < 0.5:
            i, j = rng.integers(0, len(x), 2)
            x[i], y[i] = (ox, oy) if rng.random() < 0.5 else (-ox, -oy)
            x[j], y[j] = -x[i], -y[i]
    if rng.random() < 0.5:
        screened.consider_units()
        plain.consider_units()
    for x, y in zip(rows_x, rows_y):
        # exact ties within the block: every row repeated, and negated
        x, y = np.concatenate([x, x, -x]), np.concatenate([y, y, -y])
        screened.consider(x, y)
        plain.consider(x, y)
        assert screened.f == plain.f
        if plain.coords is not None:  # None only while every row offered was zero
            assert all(np.array_equal(s, p) for s, p in zip(screened.coords, plain.coords))
    assert screened.checked <= plain.checked
