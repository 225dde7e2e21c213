"""Matrix-channel coefficient search built on column-subset vertex candidates."""

import numpy as np
import pytest

from cfsearch import mimo
from cfsearch.baselines import exhaustive_search
from cfsearch.bench import gen_channel
from cfsearch.errors import NumericError
from cfsearch.mimo import search_optimal_mimo
from cfsearch.model import (
    ChannelMatrix,
    ChannelVector,
    cost,
    mimo_gram,
    mimo_phi,
    phi_bound,
)
from cfsearch.optimal import gen_disc, search_optimal
from cfsearch.rings import Ring
from ring_reference import unit_vectors


#: Channels with phi^(2L) above this are not graded against the full ball,
#: which keeps every ball at or below about 3e6 vectors (about 8 phi^6 for
#: the Eisenstein ring at L=3, the largest case).
ORACLE_PHI_POWER_CAP = 4e5


def random_matrix_channel(rng, k, L, P=None):
    H = (rng.standard_normal((k, L)) + 1j * rng.standard_normal((k, L))) / np.sqrt(2)
    return ChannelMatrix(H, float(P if P is not None else rng.uniform(0.5, 30.0)))


class TestSearchOptimalMimo:
    def test_identity_channel(self):
        ch = ChannelMatrix(np.eye(2), 1.0)
        for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
            res = search_optimal_mimo(ch, ring)
            assert res.f_min == pytest.approx(0.5, rel=1e-12)
            assert res.rate == pytest.approx(0.5, abs=1e-12)
            # ties between tuples and unit vectors resolve to the unit vector
            assert res.a_opt in unit_vectors(2, ring)
            assert res.subsets_skipped == 0

    def test_single_row_agrees_with_vector_search(self):
        rng = np.random.default_rng(402)
        for snr_db in (0.0, 10.0, 20.0):
            P = 10.0 ** (snr_db / 10.0)
            for _ in range(5):
                h = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
                ch_m = ChannelMatrix(h[None, :], P)
                ch_v = ChannelVector(h, P)
                for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
                    rm = search_optimal_mimo(ch_m, ring)
                    rv = search_optimal(ch_v, ring)
                    phi2 = phi_bound(ch_v) ** 2
                    assert rm.f_min == pytest.approx(rv.f_min / phi2, rel=1e-9)
                    assert rm.rate == pytest.approx(rv.rate / 2.0, abs=1e-9)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(403)
        for k, L in ((2, 2), (2, 3)):
            for snr_db in (0.0, 10.0):
                ch = random_matrix_channel(rng, k, L, P=10.0 ** (snr_db / 10.0))
                M = mimo_gram(ch)
                phi = mimo_phi(ch)
                for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN):
                    res = search_optimal_mimo(ch, ring)
                    ref = exhaustive_search(M, phi, ring, prune="cost")
                    assert res.f_min == pytest.approx(ref.f_min, rel=1e-9)
                    assert cost(res.a_opt, M) == pytest.approx(res.f_min, rel=1e-9)

    def test_degenerate_subset_is_skipped_not_fatal(self):
        H = np.array(
            [[1.0 + 0.0j, 1.0 + 0.0j, 0.3 + 0.2j], [0.5j, 0.5j, -0.8 + 0.1j]]
        )  # columns 0 and 1 identical
        ch = ChannelMatrix(H, 5.0)
        res = search_optimal_mimo(ch, Ring.GAUSSIAN)
        assert res.subsets_skipped == 1
        ref = exhaustive_search(mimo_gram(ch), mimo_phi(ch), Ring.GAUSSIAN, prune="cost")
        assert res.f_min == pytest.approx(ref.f_min, rel=1e-9)

    def test_rank_deficient_channel_stays_exact(self):
        # the only column subset is singular, so no boundary tuples are
        # generated; the certification phase must still recover the true
        # Gram minimum, which beats every unit vector here (both
        # transmitters share one channel direction, so their sum is cheap)
        H = np.array([[1.0, 1.0], [1.0, 1.0]])
        ch = ChannelMatrix(H, 10.0)
        res = search_optimal_mimo(ch, Ring.GAUSSIAN)
        assert res.subsets_skipped == 1
        M = mimo_gram(ch)
        ref = exhaustive_search(M, mimo_phi(ch), Ring.GAUSSIAN, prune="cost")
        assert res.f_min == pytest.approx(ref.f_min, rel=1e-12)
        assert res.f_min < min(cost(u, M) for u in unit_vectors(2, Ring.GAUSSIAN))
        assert cost(res.a_opt, M) == pytest.approx(res.f_min, rel=1e-12)

    def test_tuple_scan_pins_marked_points(self, monkeypatch):
        # each candidate quantizes c H_tau^-1 H with its tau entries set to
        # the marked tuple c itself, not to c's round trip through the solve,
        # which moves some entries off their boundary here; the all-half
        # tuple (0.5 + 0.5j, 0.5 + 0.5j) decodes half-up to (1 + 1j, 1 + 1j)
        ch = ChannelMatrix(np.array([[1.0, 0.9 + 0.1j], [0.9, 1.0]]), 3.0)
        quantize, offered = mimo._quantize_coords, []

        def capture(A, ring):
            x, y = quantize(A, ring)
            if A.ndim == 2:  # a tuple block, not the marked points' norms
                offered.append((A.copy(), x, y))
            return x, y

        monkeypatch.setattr(mimo, "_quantize_coords", capture)
        search_optimal_mimo(ch, Ring.GAUSSIAN)
        A, x, y = (np.concatenate(parts) for parts in zip(*offered))
        # k = L, so every entry lies on tau
        points = set(gen_disc(mimo_phi(ch), Ring.GAUSSIAN).points.tolist())
        assert set(A.ravel().tolist()) <= points
        (half,) = np.flatnonzero((A == 0.5 + 0.5j).all(axis=1))
        assert x[half].tolist() == [1, 1] and y[half].tolist() == [1, 1]

    def test_prefix_budget_error_names_the_instance(self, monkeypatch):
        monkeypatch.setattr(mimo, "MAX_PREFIX_ROWS", 1)
        H = np.array([[1.0, 0.5j, -0.3], [0.2, 1.0, 0.7j]])
        with pytest.raises(NumericError) as info:
            search_optimal_mimo(ChannelMatrix(H, 10.0), Ring.EISENSTEIN)
        msg = str(info.value)
        assert "1-row budget" in msg
        assert "L=3" in msg and "k=2" in msg
        assert "ring=eisenstein" in msg and "columns=(0, 1)" in msg

    def test_deterministic(self):
        rng = np.random.default_rng(404)
        ch = random_matrix_channel(rng, 2, 3, P=10.0)
        r1 = search_optimal_mimo(ch, Ring.GAUSSIAN)
        r2 = search_optimal_mimo(ch, Ring.GAUSSIAN)
        assert r1.a_opt == r2.a_opt
        assert r1.f_min == r2.f_min
        assert r1.candidates_checked == r2.candidates_checked

    def test_result_metadata(self):
        rng = np.random.default_rng(405)
        ch = random_matrix_channel(rng, 2, 2, P=2.0)
        res = search_optimal_mimo(ch, Ring.EISENSTEIN)
        assert res.ring is Ring.EISENSTEIN
        assert res.candidates_checked > 0
        assert res.subsets_skipped == 0
        assert res.rate is not None and res.rate >= 0.0


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("L,k", [(2, 2), (3, 2), (3, 3)])
def test_matches_full_ball_oracle(ring, L, k):
    """The matrix search against `exhaustive_search(prune="norm")`.

    The full-ball scan evaluates every vector of norm at most phi and shares
    no minimization code with the cost-pruned scan that certifies
    `search_optimal_mimo`, so agreement does not rest on the certifier.
    """
    rng = np.random.default_rng([406, L, k])
    graded = 0
    for snr_db in (0.0, 5.0, 10.0):
        for _ in range(16):
            ch = gen_channel(L, k, rng, 10.0 ** (snr_db / 10.0))
            phi = mimo_phi(ch)
            if phi ** (2 * L) > ORACLE_PHI_POWER_CAP:
                continue
            res = search_optimal_mimo(ch, ring)
            ref = exhaustive_search(mimo_gram(ch), phi, ring, prune="norm")
            assert res.f_min == pytest.approx(ref.f_min, rel=1e-9)
            assert res.a_opt == ref.a_opt
            graded += 1
    assert graded >= 36  # at most a quarter of the channels have too large a ball
