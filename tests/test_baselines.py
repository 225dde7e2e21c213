"""Exhaustive, lattice-reduction, and quantized-scaling baseline searches."""

import math

import numpy as np
import pytest

from cfsearch import baselines, dfs
from cfsearch.baselines import (
    CLLLParams,
    QesParams,
    clll_search,
    exhaustive_search,
    qes_search,
)
from cfsearch.errors import InvalidInputError, NumericError
from cfsearch.model import (
    ChannelVector,
    cost,
    cost_batch,
    cost_matrix,
    phi_bound,
)
from cfsearch.optimal import search_optimal
from cfsearch.rings import Ring, vector_value
from ring_reference import unit_vectors


def random_vector_channel(rng, L, P=None):
    h = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)
    return ChannelVector(h, float(P if P is not None else rng.uniform(0.5, 30.0)))


class TestExhaustiveSearch:
    def test_identity_gram_counts_whole_ball(self):
        res = exhaustive_search(np.eye(2), 1.5, Ring.GAUSSIAN, prune="norm")
        assert res.f_min == pytest.approx(1.0, rel=1e-12)
        # nonzero Gaussian pairs with squared norm at most 2.25: 8 + 8 + 16
        assert res.candidates_checked == 32
        assert res.rate is None

    def test_norm_and_cost_modes_agree(self):
        rng = np.random.default_rng(501)
        for L in (2, 3):
            for snr_db in (0.0, 10.0):
                ch = random_vector_channel(rng, L, P=10.0 ** (snr_db / 10.0))
                M = cost_matrix(ch)
                phi = phi_bound(ch)
                for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
                    rn = exhaustive_search(M, phi, ring, prune="norm")
                    rc = exhaustive_search(M, phi, ring, prune="cost")
                    assert rn.f_min == pytest.approx(rc.f_min, rel=1e-9)
                    assert cost(rn.a_opt, M) == pytest.approx(rn.f_min, rel=1e-9)
                    assert cost(rc.a_opt, M) == pytest.approx(rc.f_min, rel=1e-9)

    def test_eisenstein_identity_ball(self):
        res = exhaustive_search(np.eye(2), 1.5, Ring.EISENSTEIN, prune="norm")
        assert res.f_min == pytest.approx(1.0, rel=1e-12)
        # squared norm at most 2.25 allows component norms 0 or 1 only (the
        # hexagonal ring has no norm-2 elements): 6 + 6 + 36 nonzero pairs
        assert res.candidates_checked == 48

    def test_rejects_bad_phi(self):
        with pytest.raises(InvalidInputError):
            exhaustive_search(np.eye(2), 0.5, Ring.GAUSSIAN)
        with pytest.raises(InvalidInputError):
            exhaustive_search(np.eye(2), math.inf, Ring.GAUSSIAN)

    def test_rejects_bad_prune(self):
        with pytest.raises(InvalidInputError):
            exhaustive_search(np.eye(2), 1.5, Ring.GAUSSIAN, prune="fast")

    def test_rejects_bad_matrix(self):
        with pytest.raises(NumericError):
            exhaustive_search(np.diag([1.0, -1.0]), 1.5, Ring.GAUSSIAN)
        with pytest.raises(InvalidInputError):
            exhaustive_search(np.ones((2, 3)), 1.5, Ring.GAUSSIAN)

    def test_table_cap_raises(self, monkeypatch):
        # a ball of 484 vectors, far inside MAX_BALL_VECTORS, whose first
        # level already holds 13 prefixes: only the table budget can raise
        ch = ChannelVector(np.array([1.0, 1.0j, -1.0]), 1.0)
        M, phi = cost_matrix(ch), phi_bound(ch)
        assert exhaustive_search(M, phi, Ring.GAUSSIAN, prune="norm").candidates_checked == 484
        monkeypatch.setattr(baselines, "MAX_TABLE_ROWS", 10)
        with pytest.raises(NumericError, match="10-row budget"):
            exhaustive_search(M, phi, Ring.GAUSSIAN, prune="norm")

    def test_table_cap_error_names_the_instance(self, monkeypatch):
        ch = ChannelVector(np.array([1.0, 1.0j, -1.0]), 100.0)
        monkeypatch.setattr(baselines, "MAX_TABLE_ROWS", 10)
        with pytest.raises(NumericError) as info:
            exhaustive_search(cost_matrix(ch), phi_bound(ch), Ring.GAUSSIAN, prune="norm")
        msg = str(info.value)
        assert "10-row budget" in msg
        assert "L=3" in msg and "ring=gaussian" in msg
        assert f"phi={phi_bound(ch)!r}" in msg

    def test_node_cap_raises(self, monkeypatch):
        ch = ChannelVector(np.array([1.0, 1.0j, -1.0]), 100.0)
        monkeypatch.setattr(dfs, "MAX_DFS_NODES", 5)
        with pytest.raises(NumericError):
            exhaustive_search(cost_matrix(ch), phi_bound(ch), Ring.GAUSSIAN, prune="cost")

    def test_deterministic(self):
        rng = np.random.default_rng(502)
        ch = random_vector_channel(rng, 2, P=10.0)
        M = cost_matrix(ch)
        r1 = exhaustive_search(M, phi_bound(ch), Ring.GAUSSIAN)
        r2 = exhaustive_search(M, phi_bound(ch), Ring.GAUSSIAN)
        assert r1.a_opt == r2.a_opt and r1.f_min == r2.f_min


class TestClllParams:
    def test_defaults(self):
        p = CLLLParams()
        assert p.delta == 0.99 and p.max_iter == 100_000

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            CLLLParams(delta=0.5)
        with pytest.raises(InvalidInputError):
            CLLLParams(delta=1.01)
        with pytest.raises(InvalidInputError):
            CLLLParams(max_iter=0)


class TestClllSearch:
    def test_single_dimension(self):
        res = clll_search(np.array([[4.0]]))
        assert res.f_min == pytest.approx(4.0)
        assert vector_value(res.a_opt).tolist() == [1.0 + 0.0j]

    def test_diagonal_gram_finds_smallest_axis(self):
        res = clll_search(np.diag([9.0, 1.0, 4.0]))
        assert res.f_min == pytest.approx(1.0, rel=1e-12)
        assert vector_value(res.a_opt).tolist() == [0, 1, 0]

    def test_reported_cost_matches_vector(self):
        rng = np.random.default_rng(503)
        for _ in range(30):
            ch = random_vector_channel(rng, int(rng.integers(2, 6)))
            M = cost_matrix(ch)
            res = clll_search(M)
            assert res.ring is Ring.GAUSSIAN
            assert cost(res.a_opt, M) == pytest.approx(res.f_min, rel=1e-9)

    def test_within_proven_factor_of_optimum(self):
        rng = np.random.default_rng(504)
        for _ in range(40):
            L = int(rng.integers(2, 5))
            ch = random_vector_channel(rng, L, P=10.0 ** float(rng.uniform(0, 2)))
            M = cost_matrix(ch)
            f_opt = search_optimal(ch, Ring.GAUSSIAN).f_min
            res = clll_search(M)
            assert f_opt - 1e-9 <= res.f_min <= (2.0 ** (L - 1)) * f_opt * (1 + 1e-9)

    def test_iteration_cap_raises(self):
        ch = ChannelVector(np.array([0.3 - 1.1j, -0.7 + 0.2j, 1.4 + 0.9j, 0.2j]), 80.0)
        with pytest.raises(NumericError):
            clll_search(cost_matrix(ch), CLLLParams(max_iter=1))

    def test_iteration_cap_error_names_the_instance(self):
        ch = ChannelVector(np.array([0.3 - 1.1j, -0.7 + 0.2j, 1.4 + 0.9j, 0.2j]), 80.0)
        with pytest.raises(NumericError) as info:
            clll_search(cost_matrix(ch), CLLLParams(max_iter=1))
        msg = str(info.value)
        assert "did not converge in 1 iterations" in msg
        assert "L=4" in msg and "delta=0.99" in msg

    def test_rejects_bad_matrix(self):
        with pytest.raises(NumericError):
            clll_search(np.diag([1.0, -1.0]))


class TestQesParams:
    def test_defaults(self):
        p = QesParams()
        assert (p.mag_step, p.phase_step_deg, p.mag_max) == (0.1, 5.0, None)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            QesParams(mag_step=0.0)
        with pytest.raises(InvalidInputError):
            QesParams(phase_step_deg=0.0)
        with pytest.raises(InvalidInputError):
            QesParams(phase_step_deg=91.0)
        with pytest.raises(InvalidInputError):
            QesParams(mag_max=-1.0)


class TestQesSearch:
    def test_worked_example(self):
        ch = ChannelVector(np.array([1.0, 1.0j]), 10.0)
        res = qes_search(ch)
        assert res.f_min == pytest.approx(2.0, rel=1e-12)
        assert res.rate == pytest.approx(math.log2(21.0 / 2.0), rel=1e-12)
        assert res.ring is Ring.GAUSSIAN

    def test_never_beats_exact_search(self):
        rng = np.random.default_rng(505)
        for _ in range(25):
            ch = random_vector_channel(rng, int(rng.integers(2, 5)))
            f_opt = search_optimal(ch, Ring.GAUSSIAN).f_min
            res = qes_search(ch)
            assert res.f_min >= f_opt - 1e-9
            assert cost(res.a_opt, cost_matrix(ch)) == pytest.approx(res.f_min, rel=1e-9)

    def test_refining_the_grid_never_hurts(self):
        rng = np.random.default_rng(506)
        for _ in range(10):
            ch = random_vector_channel(rng, 3, P=10.0)
            coarse = qes_search(ch, QesParams(mag_step=0.2, phase_step_deg=15.0))
            fine = qes_search(ch, QesParams(mag_step=0.1, phase_step_deg=7.5))
            assert fine.f_min <= coarse.f_min + 1e-12

    def test_zero_channel_falls_back_to_unit(self):
        ch = ChannelVector(np.zeros(2, dtype=complex), 5.0)
        res = qes_search(ch)
        assert res.f_min == pytest.approx(1.0, rel=1e-12)
        assert res.a_opt in unit_vectors(2, Ring.GAUSSIAN)

    def test_explicit_mag_max_is_respected(self):
        ch = ChannelVector(np.array([1.0, 1.0j]), 10.0)
        small = qes_search(ch, QesParams(mag_max=0.05))  # below one grid step
        assert small.a_opt in unit_vectors(2, Ring.GAUSSIAN)

    def test_deterministic(self):
        ch = ChannelVector(np.array([0.9 - 0.2j, -1.3 + 0.4j]), 12.0)
        r1, r2 = qes_search(ch), qes_search(ch)
        assert r1.a_opt == r2.a_opt and r1.f_min == r2.f_min
