"""Boundary-point enumeration and the exact coefficient search."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from cfsearch import optimal
from cfsearch.baselines import exhaustive_search
from cfsearch.bench import gen_channel
from cfsearch.dfs import cost_pruned_scan
from cfsearch.errors import InvalidInputError, NumericError
from cfsearch.model import (
    ChannelVector,
    cost,
    cost_matrix,
    log2_plus,
    phi_bound,
)
from cfsearch.optimal import (
    AlphaSet,
    DiscontinuitySet,
    _tuple_blocks,
    _tuple_prefixes,
    gen_alpha_set,
    gen_disc,
    gen_disc_eisenstein,
    gen_disc_gaussian,
    search_optimal,
)
from cfsearch.rings import SQRT3, EisensteinInt, Ring, canonical, vector_value
from ring_reference import unit_vectors


def gaussian_disc_oracle(phi: float) -> set[tuple[float, float]]:
    """All half-integer-grid points in the closed disc, minus integer pairs."""
    B = math.ceil(phi) + 0.5
    n = int(round(2 * B))
    pts = set()
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if i % 2 == 0 and j % 2 == 0:
                continue
            re, im = i / 2.0, j / 2.0
            if re * re + im * im <= B * B:
                pts.add((re, im))
    return pts


def eisenstein_disc_oracle(phi: float) -> set[tuple[int, int]]:
    """Midpoints of nearest-neighbor lattice pairs, keyed on a micron grid."""
    B = math.ceil(phi) + 0.75
    reach = int(math.ceil(B)) + 2
    mids = set()
    for a, b in product(range(-2 * reach, 2 * reach + 1), repeat=2):
        v = EisensteinInt(a, b).value
        if abs(v) > B + 1.1:
            continue
        for da, db in ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)):
            m = v + EisensteinInt(da, db).value / 2.0
            if abs(m) ** 2 <= B * B * (1.0 + 2e-12):
                mids.add((round(m.real * 1e6), round(m.imag * 1e6)))
    return mids


class TestGaussianBoundaryPoints:
    def test_count_and_bound_at_small_radius(self):
        d = gen_disc_gaussian(1.0)
        assert d.points.size == 20
        assert d.bound == 1.5
        assert d.ring is Ring.GAUSSIAN

    def test_matches_oracle_set(self):
        for phi in (0.3, 1.0, 1.7, 2.0, 3.14, 5.5):
            d = gen_disc_gaussian(phi)
            got = {(p.real, p.imag) for p in d.points}
            assert got == gaussian_disc_oracle(phi), phi

    def test_no_duplicates_and_sorted(self):
        d = gen_disc_gaussian(2.6)
        keys = [(p.real, p.imag) for p in d.points]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_every_point_on_a_quantizer_boundary(self):
        d = gen_disc_gaussian(2.0)
        re_half = np.mod(d.points.real, 1.0) == 0.5
        im_half = np.mod(d.points.imag, 1.0) == 0.5
        assert np.all(re_half | im_half)

    def test_closed_under_quarter_turns(self):
        d = gen_disc_gaussian(1.8)
        got = {(p.real, p.imag) for p in d.points}
        rotated = {(-p.imag, p.real) for p in d.points}
        assert rotated == got

    def test_rejects_bad_phi(self):
        for phi in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                gen_disc_gaussian(phi)


class TestEisensteinBoundaryPoints:
    def test_count_and_bound_at_small_radius(self):
        d = gen_disc_eisenstein(1.0)
        assert d.points.size == 30
        assert d.bound == 1.75
        assert d.ring is Ring.EISENSTEIN

    def test_matches_midpoint_oracle(self):
        for phi in (0.4, 1.0, 1.9, 2.8, 4.0):
            d = gen_disc_eisenstein(phi)
            got = {
                (round(p.real * 1e6), round(p.imag * 1e6)) for p in d.points
            }
            assert got == eisenstein_disc_oracle(phi), phi

    def test_no_duplicates_and_sorted(self):
        d = gen_disc_eisenstein(2.3)
        keys = [(round(p.real * 1e6), round(p.imag * 1e6)) for p in d.points]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_family_membership(self):
        d = gen_disc_eisenstein(2.0)
        re = d.points.real
        t = d.points.imag / SQRT3  # imag = sqrt(3) * t
        q = lambda v, off, step: np.abs((v - off) / step - np.round((v - off) / step)) < 1e-9
        fam1 = q(re, 0.25, 0.5) & q(t, 0.25, 0.5)
        fam2 = q(re, 0.0, 1.0) & q(t, 0.5, 1.0)
        fam3 = q(re, 0.5, 1.0) & q(t, 0.0, 1.0)
        assert np.all(fam1 | fam2 | fam3)

    def test_closed_under_sixth_turns(self):
        d = gen_disc_eisenstein(1.5)
        got = {(round(p.real * 1e6), round(p.imag * 1e6)) for p in d.points}
        w = np.exp(1j * np.pi / 3.0)
        rot = d.points * w
        rotated = {(round(p.real * 1e6), round(p.imag * 1e6)) for p in rot}
        assert rotated == got

    def test_rejects_bad_phi(self):
        with pytest.raises(InvalidInputError):
            gen_disc_eisenstein(0.0)


def reference_gen_disc_gaussian(phi: float) -> np.ndarray:
    """The Gaussian marked points as generated before vectorization: one
    Python loop over the real parts, trimming each row's imaginary range."""
    B = math.ceil(phi) + 0.5
    B2 = B * B
    reals = -B + 0.5 * np.arange(int(round(4 * B)) + 1)
    pts = []
    for r in reals:
        rem = B2 - r * r
        m = math.sqrt(rem) if rem > 0 else 0.0
        lo = math.floor(-m - 1)
        hi = math.ceil(m + 1)
        if r % 1.0 == 0.5:
            ims = 0.5 * np.arange(2 * lo, 2 * hi + 1)
        else:
            ims = 0.5 + np.arange(lo, hi + 1)
        ims = ims[r * r + ims * ims <= B2]
        if ims.size:
            pts.append(r + 1j * ims)
    return np.concatenate(pts)


def reference_gen_disc_eisenstein(phi: float) -> np.ndarray:
    """The Eisenstein marked points as generated before vectorization: a
    Python loop over the rows of each of the three families, then a sort."""
    B = math.ceil(phi) + 0.75
    B2 = B * B * (1.0 + optimal.EISENSTEIN_BOUND_SLACK)
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
            ims = SQRT3 * (im_off + im_step * np.arange(t_lo, t_hi + 1))
            ims = ims[r * r + ims * ims <= B2]
            if ims.size:
                pts.append(r + 1j * ims)
    points = np.concatenate(pts)
    return points[np.lexsort((points.imag, points.real))]


REFERENCE_GEN_DISC = {
    Ring.GAUSSIAN: (gen_disc_gaussian, reference_gen_disc_gaussian, 0.5),
    Ring.EISENSTEIN: (gen_disc_eisenstein, reference_gen_disc_eisenstein, 0.75),
}
#: A dense grid, both sides of every ceil(phi) edge up to 130, and one large disc.
PARITY_PHIS = sorted(
    {float(v) for v in np.linspace(0.01, 130.0, 261)}
    | {float(np.nextafter(n, side)) for n in range(1, 131) for side in (0.0, np.inf)}
    | {float(n) for n in range(1, 131)}
    | {300.0}
)


class TestGeneratorsMatchTheLoopReference:
    @pytest.mark.parametrize("ring", list(Ring))
    def test_byte_identical(self, ring):
        gen, reference, margin = REFERENCE_GEN_DISC[ring]
        for phi in PARITY_PHIS:
            d = gen(phi)
            assert d.ring is ring and d.bound == math.ceil(phi) + margin, phi
            assert np.array_equal(d.points.view(np.uint64), reference(phi).view(np.uint64)), phi

    @pytest.mark.parametrize("ring", list(Ring))
    def test_peak_allocation_is_linear_in_the_output(self, ring):
        gen = REFERENCE_GEN_DISC[ring][0]
        tracemalloc.start()
        try:
            d = gen(300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * d.points.nbytes


class TestGenDiscDispatch:
    def test_dispatch(self):
        assert gen_disc(1.0, Ring.GAUSSIAN).ring is Ring.GAUSSIAN
        assert gen_disc(1.0, Ring.EISENSTEIN).ring is Ring.EISENSTEIN


class TestAlphaSet:
    def setup_method(self):
        self.ch = ChannelVector(np.array([1.0, 1.0j]), 10.0)
        self.psi = gen_disc(phi_bound(self.ch), Ring.GAUSSIAN)

    def test_structure(self):
        aset = gen_alpha_set(self.psi, self.ch)
        n = self.psi.points.size
        assert aset.alphas.shape == (2, n)
        assert aset.alphas.size == 2 * n
        assert aset.points.tobytes() == self.psi.points.tobytes()
        assert aset.components == (0, 1)
        # each scaling maps its component back onto the marked point
        back = aset.alphas * self.ch.h[list(aset.components)][:, None]
        assert np.allclose(back, aset.points[None, :], rtol=1e-12, atol=0)

    def test_zero_component_skipped(self):
        ch = ChannelVector(np.array([0.0, 2.0 - 1.0j]), 4.0)
        psi = gen_disc(phi_bound(ch), Ring.GAUSSIAN)
        aset = gen_alpha_set(psi, ch)
        assert aset.components == (1,)
        assert aset.alphas.size == psi.points.size

    def test_all_zero_channel_flags_units_only(self):
        # no nonzero component, so no scalings: only unit vectors remain
        ch = ChannelVector(np.zeros(3, dtype=complex), 1.0)
        aset = gen_alpha_set(gen_disc(phi_bound(ch), Ring.GAUSSIAN), ch)
        assert aset.components == ()
        assert aset.alphas.size == 0

    def test_quadrant_reduction_keeps_exact_quarter(self):
        aset = gen_alpha_set(self.psi, self.ch, quadrant_reduce=True)
        full = gen_alpha_set(self.psi, self.ch)
        assert aset.alphas.size * 4 == full.alphas.size
        assert aset.points.size * 4 == full.points.size
        assert np.all(aset.points.real > 0) and np.all(aset.points.imag >= 0)

    def test_sector_reduction_keeps_exact_sixth(self):
        ch = self.ch
        psi = gen_disc(phi_bound(ch), Ring.EISENSTEIN)
        aset = gen_alpha_set(psi, ch, sector_reduce=True)
        full = gen_alpha_set(psi, ch)
        assert aset.alphas.size * 6 == full.alphas.size
        assert aset.points.size * 6 == full.points.size
        assert np.all(aset.points.real > 0)
        assert np.all(aset.points.imag >= 0)
        assert np.all(aset.points.imag < SQRT3 * aset.points.real - 1e-12)

    @pytest.mark.parametrize("ring", list(Ring))
    def test_peak_allocation_is_the_scalings_and_one_copy_of_the_points(self, ring):
        # L=8 at 30 dB: 19,717 Gaussian quadrant points, 8 rows of scalings
        ch = gen_channel(8, 1, np.random.default_rng(5), 1e3).row_vector()
        psi = gen_disc(phi_bound(ch), ring)
        for flags in ({}, {"quadrant_reduce" if ring is Ring.GAUSSIAN else "sector_reduce": True}):
            tracemalloc.start()
            try:
                aset = gen_alpha_set(psi, ch, **flags)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= aset.alphas.nbytes + 2 * aset.points.nbytes, flags

    def test_reduction_flags_are_ring_checked(self):
        with pytest.raises(InvalidInputError):
            gen_alpha_set(self.psi, self.ch, sector_reduce=True)
        psi_e = gen_disc(1.0, Ring.EISENSTEIN)
        with pytest.raises(InvalidInputError):
            gen_alpha_set(psi_e, self.ch, quadrant_reduce=True)


def bounded_tuples(w: np.ndarray, k: int, budget) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of index k-tuples over `w` whose sums are within `budget()`."""
    prefixes = _tuple_prefixes(w, k - 1, budget(), 10**6, str)
    return list(_tuple_blocks(w, *prefixes, budget))


class TestBoundedTuples:
    """The enumerator shared by the matrix search and the norm-ball scan."""

    @pytest.mark.parametrize("w", [[0, 1, 1, 2, 4], [0, 0, 3], [1, 2, 2, 2, 5, 7]])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_itertools_product(self, w, k):
        w = np.asarray(w, np.int64)
        sums = sorted({sum(t) for t in product(w.tolist(), repeat=k)})
        # every attainable sum, and a bound between each pair of them
        bounds = sums + [(a + b) / 2 for a, b in zip(sums, sums[1:])]
        for bound in bounds:
            blocks = bounded_tuples(w, k, lambda: bound)
            rows = [tuple(r) for idx, _ in blocks for r in idx.tolist()]
            expected = [t for t in product(range(w.size), repeat=k) if w[list(t)].sum() <= bound]
            assert rows == expected  # the same tuples, in lexicographic order
            for idx, s in blocks:
                assert s.tolist() == w[idx].sum(axis=1).tolist()
                assert (s <= bound).all()

    @pytest.mark.parametrize("k", [2, 3])  # k = 1 has one prefix row, so one block
    def test_lowered_budget_drops_only_tuples_over_it(self, monkeypatch, k):
        monkeypatch.setattr(optimal, "TUPLE_CHUNK_ROWS", 4)
        w = np.array([0, 1, 1, 2, 4], np.int64)
        high, low = 6, 3
        full = [tuple(r) for idx, _ in bounded_tuples(w, k, lambda: high) for r in idx.tolist()]
        budgets = iter([high, high] + [low] * len(full))  # prefixes, first block, the rest
        blocks = bounded_tuples(w, k, lambda: next(budgets))
        first = [tuple(r) for r in blocks[0][0].tolist()]
        rest = [tuple(r) for idx, _ in blocks[1:] for r in idx.tolist()]
        assert first == full[: len(first)] and len(first) < len(full)
        assert rest == [t for t in full[len(first) :] if w[list(t)].sum() <= low]

    def test_row_budget_error(self):
        w = np.array([0, 1, 1, 2, 4], np.int64)
        # 5 rows at the first level, 18 pairs within 4 at the second
        assert _tuple_prefixes(w, 2, 4.0, 18, str)[0].shape == (18, 2)
        with pytest.raises(NumericError, match="^table of 18 rows$"):
            _tuple_prefixes(w, 2, 4.0, 17, lambda rows: f"table of {rows} rows")
        with pytest.raises(NumericError, match="^table of 5 rows$"):
            _tuple_prefixes(w, 2, 4.0, 4, lambda rows: f"table of {rows} rows")


class TestSearchOptimal:
    def test_gaussian_worked_example(self):
        ch = ChannelVector(np.array([1.0, 1.0j]), 10.0)
        res = search_optimal(ch, Ring.GAUSSIAN)
        assert res.f_min == pytest.approx(2.0, rel=1e-12)
        assert res.rate == pytest.approx(math.log2(21.0 / 2.0), rel=1e-12)
        assert res.ring is Ring.GAUSSIAN
        M = cost_matrix(ch)
        assert cost(res.a_opt, M) == pytest.approx(res.f_min, rel=1e-12)

    def test_eisenstein_worked_example(self):
        ch = ChannelVector(np.array([1.0, 1.0j]), 10.0)
        res = search_optimal(ch, Ring.EISENSTEIN)
        assert res.f_min == pytest.approx(22.0 - 10.0 * SQRT3, rel=1e-12)
        assert res.rate == pytest.approx(log2_plus(phi_bound(ch) ** 2 / res.f_min), abs=1e-12)

    def test_single_transmitter(self):
        ch = ChannelVector(np.array([1.0 + 0j]), 10.0)
        res = search_optimal(ch, Ring.GAUSSIAN)
        assert res.f_min == pytest.approx(1.0, rel=1e-12)
        assert vector_value(res.a_opt).tolist() in ([1], [-1], [1j], [-1j])
        assert res.rate == pytest.approx(math.log2(11.0), rel=1e-12)

    def test_zero_channel_returns_unit(self):
        ch = ChannelVector(np.zeros(2, dtype=complex), 5.0)
        for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
            res = search_optimal(ch, ring)
            assert res.f_min == pytest.approx(1.0, rel=1e-12)
            assert res.rate == pytest.approx(0.0, abs=1e-12)

    def test_zero_component_stays_zero(self):
        ch = ChannelVector(np.array([0.0, 1.5 - 0.5j]), 8.0)
        res = search_optimal(ch, Ring.GAUSSIAN)
        a = vector_value(res.a_opt)
        assert a[0] == 0
        assert a[1] != 0

    @pytest.mark.parametrize("ring", list(Ring))
    def test_zero_components_are_skipped_segments(self, monkeypatch, ring):
        # zeros inserted into h leave gaps in the alpha set's component
        # segments; the sampled incumbent (the certification's seed) and the
        # answer are the reduced channel's with zeros at those positions
        seeds = []

        def seeded_scan(M, ring, seed):
            seeds.append(seed)
            return cost_pruned_scan(M, ring, seed=seed)

        monkeypatch.setattr(optimal, "cost_pruned_scan", seeded_scan)
        full_scan = {"quadrant_reduce": False} if ring is Ring.GAUSSIAN else {"sector_reduce": False}
        rng = np.random.default_rng(1010)
        for L in range(2, 7):
            for snr_db in (0, 10, 20):
                P = 10.0 ** (snr_db / 10)
                h = gen_channel(L, 1, rng, P).H[0]
                n_zeros = int(rng.integers(1, 3))
                zeros = np.sort(rng.choice(L + n_zeros, size=n_zeros, replace=False))
                at = zeros - np.arange(n_zeros)  # np.insert positions in h
                padded = np.insert(h, at, 0.0)
                assert np.count_nonzero(padded) == L and np.all(padded[zeros] == 0)
                for kwargs in ({}, full_scan):
                    ref = search_optimal(ChannelVector(h, P), ring, **kwargs)
                    got = search_optimal(ChannelVector(padded, P), ring, **kwargs)
                    # unit multiples tie up to rounding, so compare orbits
                    (rx, ry, rf), (gx, gy, gf) = seeds[-2:]
                    rx, ry = canonical(rx, ry, ring)
                    gx, gy = canonical(gx, gy, ring)
                    assert np.array_equal(gx, np.insert(rx, at, 0)), (L, snr_db, kwargs)
                    assert np.array_equal(gy, np.insert(ry, at, 0)), (L, snr_db, kwargs)
                    assert gf == pytest.approx(rf, rel=1e-12)
                    expected = np.insert(vector_value(ref.a_opt), at, 0)
                    assert np.array_equal(vector_value(got.a_opt), expected), (L, snr_db, kwargs)
                    assert got.f_min == pytest.approx(ref.f_min, rel=1e-12)

    def test_never_worse_than_any_unit_vector(self):
        rng = np.random.default_rng(301)
        for _ in range(25):
            L = int(rng.integers(2, 6))
            ch = ChannelVector(
                (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2),
                float(rng.uniform(0.5, 100.0)),
            )
            M = cost_matrix(ch)
            for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
                res = search_optimal(ch, ring)
                best_unit = min(cost(u, M) for u in unit_vectors(L, ring))
                assert res.f_min <= best_unit + 1e-12

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(302)
        for snr_db in (0.0, 10.0):
            P = 10.0 ** (snr_db / 10.0)
            for _ in range(10):
                ch = ChannelVector(
                    (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2), P
                )
                M = cost_matrix(ch)
                phi = phi_bound(ch)
                for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
                    res = search_optimal(ch, ring)
                    ref = exhaustive_search(M, phi, ring, prune="cost")
                    assert res.f_min == pytest.approx(ref.f_min, rel=1e-9)

    def test_certification_repairs_unsampled_region(self):
        # On this channel the minimizer's region of constant quantization in
        # the scaling plane is bounded entirely by curve pieces between
        # crossings, so no marked-point scaling samples it (the nearest one
        # sits just outside) and the sampling phases alone would return a
        # vector 3.1% worse.  The certification phase must recover the true
        # minimum, here with a zero first component -- a value the boundary
        # tie rule never selects because all its lattice neighbors have
        # larger norm.
        h = np.array(
            [
                0.3889341607087321 + 0.5017762665497462j,
                0.0718542232170326 - 1.0150473980209285j,
                0.6314904651931013 - 0.8302062757236106j,
            ]
        )
        ch = ChannelVector(h, 3.1622776601683795)
        res = search_optimal(ch, Ring.EISENSTEIN)
        ref = exhaustive_search(
            cost_matrix(ch), phi_bound(ch), Ring.EISENSTEIN, prune="cost"
        )
        assert ref.f_min == pytest.approx(5.271764534242777, rel=1e-12)
        assert res.f_min == pytest.approx(ref.f_min, rel=1e-9)
        assert any(e.a == 0 and e.b == 0 for e in res.a_opt)

    def test_symmetry_reduction_changes_nothing(self):
        rng = np.random.default_rng(303)
        for _ in range(15):
            ch = ChannelVector(
                (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2),
                float(rng.uniform(1.0, 60.0)),
            )
            on = search_optimal(ch, Ring.GAUSSIAN, quadrant_reduce=True)
            off = search_optimal(ch, Ring.GAUSSIAN, quadrant_reduce=False)
            assert on.f_min == pytest.approx(off.f_min, rel=1e-12)
            plain = search_optimal(ch, Ring.EISENSTEIN)
            sect = search_optimal(ch, Ring.EISENSTEIN, sector_reduce=True)
            assert sect.f_min == pytest.approx(plain.f_min, rel=1e-12)

    def test_deterministic(self):
        ch = ChannelVector(np.array([0.3 - 1.1j, -0.7 + 0.2j, 1.4 + 0.9j]), 25.0)
        r1 = search_optimal(ch, Ring.GAUSSIAN)
        r2 = search_optimal(ch, Ring.GAUSSIAN)
        assert r1.a_opt == r2.a_opt
        assert r1.f_min == r2.f_min
        assert r1.candidates_checked == r2.candidates_checked

    def test_flag_validation(self):
        ch = ChannelVector(np.array([1.0, 1.0]), 1.0)
        with pytest.raises(InvalidInputError):
            search_optimal(ch, Ring.GAUSSIAN, sector_reduce=True)
        with pytest.raises(InvalidInputError):
            search_optimal(ch, Ring.EISENSTEIN, quadrant_reduce=True)

    def test_result_metadata(self):
        ch = ChannelVector(np.array([1.0, -0.5j]), 3.0)
        res = search_optimal(ch, Ring.GAUSSIAN)
        assert res.candidates_checked > 0
        assert res.elapsed_s >= 0.0
        assert res.subsets_skipped is None
