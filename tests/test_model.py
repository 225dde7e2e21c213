"""Closed-form channel quantities, checked against hand-computed values."""

import math

import numpy as np
import pytest

from cfsearch.errors import InvalidInputError, NumericError
from cfsearch.model import (
    ChannelMatrix,
    ChannelVector,
    b_opt,
    check_cost_matrix,
    cost,
    cost_batch,
    cost_matrix,
    log2_plus,
    mimo_gram,
    mimo_phi,
    mimo_rate,
    phi_bound,
    rate,
)
from cfsearch.rings import GaussianInt

# worked example used throughout: h = [1, j] at P = 10, so 1 + P||h||^2 = 21
H_EX = np.array([1.0, 1.0j])
P_EX = 10.0


def make_ch():
    return ChannelVector(H_EX, P_EX)


def random_vector_channel(rng, L):
    h = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)
    return ChannelVector(h, float(rng.uniform(0.5, 50.0)))


class TestLog2Plus:
    def test_values(self):
        assert log2_plus(8.0) == 3.0
        assert log2_plus(1.0) == 0.0
        assert log2_plus(0.5) == 0.0
        assert log2_plus(10.5) == pytest.approx(math.log2(10.5))


class TestCostMatrix:
    def test_worked_example_entries(self):
        M = cost_matrix(make_ch())
        expected = np.array([[11.0, -10.0j], [10.0j, 11.0]])
        assert np.allclose(M, expected, atol=1e-12)

    def test_hermitian_positive_definite(self):
        rng = np.random.default_rng(201)
        for L in (2, 3, 5, 8):
            M = cost_matrix(random_vector_channel(rng, L))
            assert np.allclose(M, M.conj().T)
            assert np.linalg.eigvalsh(M).min() > 0

    def test_eigenvalues_are_one_and_phi_squared(self):
        rng = np.random.default_rng(202)
        for L in (2, 4, 7):
            ch = random_vector_channel(rng, L)
            eig = np.sort(np.linalg.eigvalsh(cost_matrix(ch)))
            phi2 = phi_bound(ch) ** 2
            # one eigenvalue of 1 along h, phi^2 on the orthogonal complement
            assert np.isclose(eig[0], 1.0, rtol=1e-9)
            assert np.allclose(eig[1:], phi2, rtol=1e-9)

    def test_check_accepts_valid_matrix(self):
        M = cost_matrix(make_ch())
        out = check_cost_matrix(M)
        assert np.allclose(out, M)

    def test_check_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            check_cost_matrix(np.ones((2, 3)))

    def test_check_rejects_non_hermitian(self):
        with pytest.raises(NumericError):
            check_cost_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_check_rejects_indefinite(self):
        with pytest.raises(NumericError):
            check_cost_matrix(np.diag([1.0, -1.0]))


class TestCost:
    def test_worked_examples(self):
        M = cost_matrix(make_ch())
        assert cost([1, -1], M) == pytest.approx(22.0, rel=1e-12)
        assert cost([1, -1j], M) == pytest.approx(42.0, rel=1e-12)
        assert cost([1, 1j], M) == pytest.approx(2.0, rel=1e-12)

    def test_accepts_ring_element_vectors(self):
        M = cost_matrix(make_ch())
        a = (GaussianInt(1, 0), GaussianInt(0, 1))
        assert cost(a, M) == pytest.approx(2.0, rel=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(203)
        ch = random_vector_channel(rng, 4)
        M = cost_matrix(ch)
        A = rng.integers(-3, 4, size=(50, 4)) + 1j * rng.integers(-3, 4, size=(50, 4))
        A = A[np.any(A != 0, axis=1)]
        f = cost_batch(A, M)
        for row, fi in zip(A, f):
            assert cost(row, M) == pytest.approx(fi, rel=1e-12)

    def test_rejects_zero_vector(self):
        M = cost_matrix(make_ch())
        with pytest.raises(InvalidInputError):
            cost([0, 0], M)

    def test_rejects_shape_mismatch(self):
        M = cost_matrix(make_ch())
        with pytest.raises(InvalidInputError):
            cost([1, 0, 0], M)

    def test_rejects_large_imaginary_residue(self):
        M_bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NumericError):
            cost([1, 1j], M_bad)


class TestRateCostDuality:
    def test_rate_equals_rate_from_cost(self):
        # the rate implied by the Gram cost is log2+(phi^2 / f)
        rng = np.random.default_rng(204)
        for _ in range(50):
            ch = random_vector_channel(rng, int(rng.integers(2, 6)))
            M = cost_matrix(ch)
            phi = phi_bound(ch)
            a = rng.integers(-3, 4, size=ch.L) + 1j * rng.integers(-3, 4, size=ch.L)
            if not np.any(a):
                a[0] = 1
            assert rate(ch, a) == pytest.approx(log2_plus(phi**2 / cost(a, M)), abs=1e-12)

    def test_quadratic_form_is_phi2_times_effective_noise(self):
        ch = make_ch()
        M = cost_matrix(ch)
        phi2 = phi_bound(ch) ** 2
        a = np.array([1.0, -1.0])
        f8 = 2.0 - P_EX * abs(a @ H_EX.conj()) ** 2 / phi2
        assert cost(a, M) == pytest.approx(phi2 * f8, rel=1e-12)

    def test_clamped_rate_for_bad_vector(self):
        ch = make_ch()
        assert rate(ch, [1, -1]) == 0.0  # effective noise 22/21 exceeds one

    def test_positive_rate_example(self):
        ch = make_ch()
        assert rate(ch, [1, 1j]) == pytest.approx(math.log2(21.0 / 2.0), rel=1e-12)

    def test_rate_rejects_zero_vector(self):
        with pytest.raises(InvalidInputError):
            rate(make_ch(), [0, 0])


class TestChannelValidation:
    def test_vector_channel_properties(self):
        ch = make_ch()
        assert ch.L == 2
        assert phi_bound(ch) == pytest.approx(math.sqrt(21.0))

    def test_vector_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            ChannelVector(np.array([]), 1.0)
        with pytest.raises(InvalidInputError):
            ChannelVector(np.ones((2, 2)), 1.0)
        with pytest.raises(InvalidInputError):
            ChannelVector(np.array([np.nan, 1.0]), 1.0)
        with pytest.raises(InvalidInputError):
            ChannelVector(np.array([1.0, 1.0]), 0.0)
        with pytest.raises(InvalidInputError):
            ChannelVector(np.array([1.0, 1.0]), -2.0)
        with pytest.raises(InvalidInputError):
            ChannelVector(np.array([1.0, 1.0]), math.inf)

    def test_matrix_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            ChannelMatrix(np.ones((3, 2)), 1.0)  # k > L
        with pytest.raises(InvalidInputError):
            ChannelMatrix(np.ones(3), 1.0)
        with pytest.raises(InvalidInputError):
            ChannelMatrix(np.ones((0, 2)), 1.0)

    def test_matrix_properties_and_row_view(self):
        H = np.array([[1.0, 2.0j, 0.5]])
        ch = ChannelMatrix(H, 4.0)
        assert (ch.k, ch.L) == (1, 3)
        row = ch.row_vector()
        assert np.allclose(row.h, H[0])
        two_row = ChannelMatrix(np.eye(2), 1.0)
        with pytest.raises(InvalidInputError):
            two_row.row_vector()

    def test_channel_arrays_are_immutable(self):
        ch = make_ch()
        with pytest.raises(ValueError):
            ch.h[0] = 0.0
        with pytest.raises(Exception):
            ch.P = 5.0  # frozen dataclass


class TestMimoQuantities:
    def test_identity_channel_gram(self):
        ch = ChannelMatrix(np.eye(2), 1.0)
        assert np.allclose(mimo_gram(ch), 0.5 * np.eye(2), atol=1e-12)
        assert mimo_phi(ch) == pytest.approx(math.sqrt(2.0))

    def test_gram_is_inverse_of_identity_plus_phh(self):
        rng = np.random.default_rng(207)
        for k, L in ((1, 3), (2, 2), (2, 4), (3, 5)):
            H = (rng.standard_normal((k, L)) + 1j * rng.standard_normal((k, L))) / np.sqrt(2)
            ch = ChannelMatrix(H, float(rng.uniform(0.5, 20.0)))
            M = mimo_gram(ch)
            direct = np.linalg.inv(np.eye(L) + ch.P * H.conj().T @ H)
            assert np.allclose(M, direct, rtol=1e-9, atol=1e-12)

    def test_single_row_gram_matches_vector_convention(self):
        rng = np.random.default_rng(208)
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
        P = 7.5
        ch_v = ChannelVector(h, P)
        ch_m = ChannelMatrix(h[None, :], P)
        phi2 = phi_bound(ch_v) ** 2
        assert np.allclose(cost_matrix(ch_v), phi2 * mimo_gram(ch_m), rtol=1e-9)
        assert mimo_phi(ch_m) == pytest.approx(phi_bound(ch_v), rel=1e-12)

    def test_combining_vector_is_mmse_optimal(self):
        rng = np.random.default_rng(209)
        H = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
        ch = ChannelMatrix(H, 5.0)
        a = np.array([1.0, -1.0j, 2.0])
        b = b_opt(ch, a)
        obj = lambda bb: np.linalg.norm(bb) ** 2 + ch.P * np.linalg.norm(bb @ H - a) ** 2
        base = obj(b)
        for _ in range(50):
            d = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.05
            assert obj(b + d) >= base - 1e-12

    def test_rate_duality_with_gram_cost(self):
        rng = np.random.default_rng(210)
        for _ in range(30):
            k, L = 2, 3
            H = (rng.standard_normal((k, L)) + 1j * rng.standard_normal((k, L))) / np.sqrt(2)
            ch = ChannelMatrix(H, float(rng.uniform(1.0, 30.0)))
            a = rng.integers(-2, 3, size=L) + 1j * rng.integers(-2, 3, size=L)
            if not np.any(a):
                a[0] = 1
            r = mimo_rate(ch, a, b_opt(ch, a))
            f = cost(a, mimo_gram(ch))
            assert r == pytest.approx(0.5 * log2_plus(1.0 / f), abs=1e-10)

    def test_b_opt_rejects_wrong_length(self):
        ch = ChannelMatrix(np.eye(2), 1.0)
        with pytest.raises(InvalidInputError):
            b_opt(ch, [1, 0, 0])

    def test_mimo_rate_rejects_zero_vector(self):
        ch = ChannelMatrix(np.eye(2), 1.0)
        with pytest.raises(InvalidInputError):
            mimo_rate(ch, [0, 0], np.zeros(2))
