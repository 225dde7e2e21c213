"""Ring arithmetic and nearest-point quantizers, checked against brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsearch.errors import InvalidInputError
from cfsearch.rings import (
    EISENSTEIN_UNITS,
    GAUSSIAN_UNITS,
    SQRT3,
    EisensteinInt,
    GaussianInt,
    Ring,
    eisenstein_values,
    gaussian_values,
    quantize,
    quantize_eisenstein,
    quantize_eisenstein_array,
    quantize_gaussian,
    quantize_gaussian_array,
    round_half_up,
    unit_vectors,
    units,
    vector_from_arrays,
    vector_value,
)

def nearest_eisenstein_set(z: complex, tol: float = 1e-9) -> set[EisensteinInt]:
    """Independent brute-force oracle: all Eisenstein points at minimum distance."""
    b0 = round(z.imag / (SQRT3 / 2.0))
    cands = []
    for b in range(b0 - 3, b0 + 4):
        a0 = round(z.real + b / 2.0)
        for a in range(a0 - 3, a0 + 4):
            v = (a - b / 2.0) + 1j * (SQRT3 / 2.0) * b
            cands.append((abs(z - v), EisensteinInt(a, b)))
    dmin = min(d for d, _ in cands)
    return {e for d, e in cands if d <= dmin + tol}


class TestRoundHalfUp:
    def test_halves_round_toward_plus_infinity(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(-0.5) == 0
        assert round_half_up(1.5) == 2
        assert round_half_up(-1.5) == -1
        assert round_half_up(2.5) == 3

    def test_non_ties_round_to_nearest(self):
        assert round_half_up(0.49) == 0
        assert round_half_up(0.51) == 1
        assert round_half_up(-0.51) == -1
        assert round_half_up(3.0) == 3

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_matches_floor_formula(self, x):
        assert round_half_up(x) == int(math.floor(x + 0.5))


class TestGaussianQuantizer:
    def test_componentwise_half_up(self):
        assert quantize_gaussian(1.3 - 2.8j) == GaussianInt(1, -3)
        assert quantize_gaussian(-0.5 + 0.5j) == GaussianInt(0, 1)
        assert quantize_gaussian(2.5 - 1.5j) == GaussianInt(3, -1)
        assert quantize_gaussian(0.2 - 0.7j) == GaussianInt(0, -1)

    def test_half_integer_grid(self):
        grid = np.arange(-2.0, 2.5, 0.5)
        for x in grid:
            for y in grid:
                g = quantize_gaussian(complex(x, y))
                assert g.re == math.floor(x + 0.5)
                assert g.im == math.floor(y + 0.5)

    def test_error_interval_is_half_open(self):
        rng = np.random.default_rng(101)
        z = np.concatenate([
            (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * 4,
            np.arange(-3.0, 3.0, 0.5) + 0.5j * np.arange(-6.0, 6.0, 1.0),
        ])
        re, im = quantize_gaussian_array(z)
        err = z - gaussian_values(re, im)
        assert (err.real >= -0.5).all() and (err.real < 0.5).all()
        assert (err.imag >= -0.5).all() and (err.imag < 0.5).all()

    def test_idempotent_on_lattice_points(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            g = GaussianInt(int(rng.integers(-50, 51)), int(rng.integers(-50, 51)))
            assert quantize_gaussian(g.value) == g

    def test_scalar_matches_array(self):
        rng = np.random.default_rng(103)
        z = (rng.standard_normal(500) + 1j * rng.standard_normal(500)) * 3
        ties = np.array([0.5 + 0.5j, -0.5 + 1.5j, 2.5 - 0.5j, -1.5 - 1.5j])
        z = np.concatenate([z, ties])
        re, im = quantize_gaussian_array(z)
        for zi, r, i in zip(z, re, im):
            assert quantize_gaussian(complex(zi)) == GaussianInt(int(r), int(i))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            quantize_gaussian(complex(np.nan, 0.0))
        with pytest.raises(InvalidInputError):
            quantize_gaussian(complex(0.0, np.inf))

    @given(st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_nearest_point_up_to_ties(self, z):
        g = quantize_gaussian(z)
        d = abs(z - g.value)
        for dre in (-1, 0, 1):
            for dim in (-1, 0, 1):
                other = GaussianInt(g.re + dre, g.im + dim)
                assert d <= abs(z - other.value) + 1e-12


class TestEisensteinQuantizer:
    def test_known_values(self):
        assert quantize_eisenstein(0.0j) == EisensteinInt(0, 0)
        assert quantize_eisenstein(1.0 + 0.0j) == EisensteinInt(1, 0)
        assert quantize_eisenstein(-0.5 + (SQRT3 / 2) * 1j) == EisensteinInt(0, 1)
        assert quantize_eisenstein(0.45 + 0.78j) == EisensteinInt(1, 1)

    def test_nearest_point_on_random_points(self):
        rng = np.random.default_rng(104)
        pts = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * 4
        a, b = quantize_eisenstein_array(pts)
        for z, ai, bi in zip(pts, a, b):
            assert EisensteinInt(int(ai), int(bi)) in nearest_eisenstein_set(complex(z))

    def test_midpoints_are_still_nearest_points(self):
        rng = np.random.default_rng(105)
        base_a = rng.integers(-5, 6, size=200)
        base_b = rng.integers(-5, 6, size=200)
        neighbors = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
        for a0, b0 in zip(base_a, base_b):
            p = EisensteinInt(int(a0), int(b0))
            for da, db in neighbors:
                q = EisensteinInt(int(a0) + da, int(b0) + db)
                m = (p.value + q.value) / 2.0
                assert quantize_eisenstein(m) in nearest_eisenstein_set(m)

    def test_same_sublattice_tie_rounds_half_up(self):
        # horizontal nearest-neighbor pairs live in one rectangular sublattice;
        # their midpoint tie resolves by the half-up rule toward the larger a
        for a0, b0 in [(0, 0), (-1, 0), (2, -2), (-3, 4), (1, 3)]:
            p = EisensteinInt(a0, b0)
            q = EisensteinInt(a0 + 1, b0)
            m = (p.value + q.value) / 2.0
            assert quantize_eisenstein(m) == q

    def test_cross_sublattice_tie_prefers_larger_norm(self):
        # midpoints of neighbor pairs with odd b-difference tie across the two
        # rectangular decodes; the larger squared modulus wins, then larger
        # real part, then larger imaginary part
        base = [(0, 0), (1, 0), (-1, 0), (0, 2), (2, -2), (-2, 1), (3, 3)]
        for a0, b0 in base:
            for da, db in [(0, 1), (0, -1), (1, 1), (-1, -1)]:
                p = EisensteinInt(a0, b0)
                q = EisensteinInt(a0 + da, b0 + db)
                m = (p.value + q.value) / 2.0
                got = quantize_eisenstein(m)
                key = lambda e: (e.abs2, 2 * e.a - e.b, e.b)
                expected = max((p, q), key=key)
                assert got == expected, (p, q, got)

    def test_covering_radius(self):
        rng = np.random.default_rng(106)
        pts = rng.uniform(-5, 5, 20000) + 1j * rng.uniform(-5, 5, 20000)
        a, b = quantize_eisenstein_array(pts)
        d = np.abs(pts - eisenstein_values(a, b))
        assert d.max() <= 1.0 / SQRT3 + 1e-12

    def test_idempotent_on_lattice_points(self):
        rng = np.random.default_rng(107)
        for _ in range(200):
            e = EisensteinInt(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)))
            assert quantize_eisenstein(e.value) == e

    def test_scalar_matches_array(self):
        rng = np.random.default_rng(108)
        z = (rng.standard_normal(300) + 1j * rng.standard_normal(300)) * 5
        a, b = quantize_eisenstein_array(z)
        for zi, ai, bi in zip(z, a, b):
            assert quantize_eisenstein(complex(zi)) == EisensteinInt(int(ai), int(bi))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            quantize_eisenstein(complex(np.inf, 0.0))


class TestRingElements:
    def test_gaussian_arithmetic(self):
        a, b = GaussianInt(2, -1), GaussianInt(-1, 3)
        assert (a + b) == GaussianInt(1, 2)
        assert (a - b) == GaussianInt(3, -4)
        assert (a * b) == GaussianInt(1, 7)  # (2-j)(-1+3j) = 1+7j
        assert a.abs2 == 5
        assert complex(a.value) == 2 - 1j

    def test_eisenstein_arithmetic(self):
        w = EisensteinInt(0, 1)
        assert w * w == EisensteinInt(-1, -1)  # w^2 = -1 - w
        x, y = EisensteinInt(2, 1), EisensteinInt(1, -1)
        assert x + y == EisensteinInt(3, 0)
        assert x - y == EisensteinInt(1, 2)
        prod = x * y
        assert np.isclose(prod.value, x.value * y.value)
        assert x.abs2 == 2 * 2 - 2 * 1 + 1 * 1

    def test_eisenstein_norm_is_squared_modulus(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            e = EisensteinInt(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
            assert np.isclose(e.abs2, abs(e.value) ** 2)


class TestUnits:
    def test_unit_counts_and_modulus(self):
        assert len(GAUSSIAN_UNITS) == 4
        assert len(EISENSTEIN_UNITS) == 6
        assert all(u.abs2 == 1 for u in GAUSSIAN_UNITS)
        assert all(u.abs2 == 1 for u in EISENSTEIN_UNITS)

    def test_units_form_a_group_under_multiplication(self):
        for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
            us = units(ring)
            for u in us:
                for v in us:
                    assert (u * v) in us

    def test_unit_multiplication_preserves_squared_modulus(self):
        rng = np.random.default_rng(110)
        for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
            for _ in range(50):
                x, y = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
                el = GaussianInt(x, y) if ring is Ring.GAUSSIAN else EisensteinInt(x, y)
                for u in units(ring):
                    assert (el * u).abs2 == el.abs2


class TestVectors:
    def test_unit_vector_enumeration(self):
        g = unit_vectors(3, Ring.GAUSSIAN)
        assert len(g) == 12
        e = unit_vectors(2, Ring.EISENSTEIN)
        assert len(e) == 12
        # position-major order: the first four occupy position 0
        for vec in g[:4]:
            assert vec[0].abs2 == 1 and vec[1].abs2 == 0 and vec[2].abs2 == 0
        assert len({tuple(v) for v in g}) == len(g)
        assert len({tuple(v) for v in e}) == len(e)

    def test_unit_vectors_include_omega_squared(self):
        e = unit_vectors(2, Ring.EISENSTEIN)
        assert (EisensteinInt(-1, -1), EisensteinInt(0, 0)) in e

    def test_unit_vectors_rejects_bad_length(self):
        with pytest.raises(InvalidInputError):
            unit_vectors(0, Ring.GAUSSIAN)

    def test_values_round_trip(self):
        rng = np.random.default_rng(111)
        x = rng.integers(-20, 21, size=6)
        y = rng.integers(-20, 21, size=6)
        vec = vector_from_arrays(x, y, Ring.EISENSTEIN)
        assert np.allclose(vector_value(vec), eisenstein_values(x, y))
        vec_g = vector_from_arrays(x, y, Ring.GAUSSIAN)
        assert np.allclose(vector_value(vec_g), gaussian_values(x, y))

    def test_quantize_dispatch(self):
        assert quantize(1.2 - 0.4j, Ring.GAUSSIAN) == GaussianInt(1, 0)
        assert quantize(1.2 - 0.4j, Ring.EISENSTEIN) == EisensteinInt(1, 0)


ring_coords = st.lists(
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)), min_size=1, max_size=8
)


class TestRingMembers:
    def test_omega(self):
        assert Ring.GAUSSIAN.omega == 1j
        assert Ring.EISENSTEIN.omega == complex(-0.5, SQRT3 / 2.0)
        assert abs(Ring.EISENSTEIN.omega ** 3 - 1) < 1e-15

    @given(ring_coords)
    @settings(max_examples=100, deadline=None)
    def test_values_are_the_module_functions_bit_for_bit(self, pairs):
        x = np.array([p[0] for p in pairs], np.int64)
        y = np.array([p[1] for p in pairs], np.int64)
        for ring, fn in ((Ring.GAUSSIAN, gaussian_values), (Ring.EISENSTEIN, eisenstein_values)):
            assert ring.values(x, y).tobytes() == fn(x, y).tobytes()
            # two-dimensional blocks, as the sampling scans pass them
            assert ring.values(x[None, :], y[None, :]).tobytes() == fn(x[None, :], y[None, :]).tobytes()

    @given(ring_coords)
    @settings(max_examples=100, deadline=None)
    def test_values_are_x_plus_omega_y(self, pairs):
        x = np.array([p[0] for p in pairs], np.int64)
        y = np.array([p[1] for p in pairs], np.int64)
        for ring in Ring:
            want = x + ring.omega * y
            assert np.all(np.abs(ring.values(x, y) - want) <= 1e-15 * np.abs(want))

    @given(ring_coords)
    @settings(max_examples=100, deadline=None)
    def test_norm_is_the_exact_squared_modulus(self, pairs):
        x = np.array([p[0] for p in pairs], np.int64)
        y = np.array([p[1] for p in pairs], np.int64)
        for ring in Ring:
            n = ring.norm(x, y)
            assert n.dtype == np.int64
            elements = vector_from_arrays(x, y, ring)
            assert n.tolist() == [e.abs2 for e in elements]
            assert n.tolist() == np.round(np.abs(ring.values(x, y)) ** 2).astype(np.int64).tolist()
