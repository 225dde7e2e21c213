"""The cost-pruned DFS engine, checked against the full-ball norm scan.

`exhaustive_search(prune="norm")` enumerates every ring vector in the ball
with numpy tables and shares no code with `cost_pruned_scan`, so agreement
between the two is an independent check of the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsearch import dfs
from cfsearch.baselines import exhaustive_search
from cfsearch.bench import gen_channel
from cfsearch.dfs import cost_pruned_scan
from cfsearch.errors import NumericError
from cfsearch.model import cost_batch, cost_matrix, mimo_gram, mimo_phi, phi_bound
from cfsearch.rings import Ring, eisenstein_values, gaussian_values


def gram_and_phi(L, k, snr_db, seed):
    ch = gen_channel(L, k, np.random.default_rng(seed), 10.0 ** (snr_db / 10.0))
    if k == 1:
        vec = ch.row_vector()
        return cost_matrix(vec), phi_bound(vec)
    return mimo_gram(ch), mimo_phi(ch)


def ring_values(x, y, ring):
    return (gaussian_values if ring is Ring.GAUSSIAN else eisenstein_values)(x, y)


def recost(x, y, M, ring):
    return float(cost_batch(ring_values(x, y, ring)[None, :], M)[0])


@given(
    ring=st.sampled_from(list(Ring)),
    L=st.sampled_from([2, 3]),
    k=st.sampled_from([1, 2]),
    snr_db=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_minimum_matches_norm_ball(ring, L, k, snr_db, seed):
    M, phi = gram_and_phi(L, k, snr_db, seed)
    ref = exhaustive_search(M, phi, ring, prune="norm").f_min
    x, y, f, _ = cost_pruned_scan(M, ring)
    assert f == pytest.approx(ref, rel=1e-9)
    assert recost(x, y, M, ring) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("L,k,snr_db", [(2, 1, 20.0), (2, 2, 20.0)])
def test_minimum_matches_norm_ball_at_higher_snr(ring, L, k, snr_db):
    for seed in range(10):
        M, phi = gram_and_phi(L, k, snr_db, seed)
        ref = exhaustive_search(M, phi, ring, prune="norm").f_min
        x, y, f, _ = cost_pruned_scan(M, ring)
        assert f == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("L,k,snr_db", [(2, 1, 10.0), (4, 1, 20.0), (8, 1, 15.0), (4, 2, 10.0)])
def test_optimal_seed_comes_back_unchanged(ring, L, k, snr_db):
    M, _ = gram_and_phi(L, k, snr_db, 11)
    x, y, f, _ = cost_pruned_scan(M, ring)
    for seed_x, seed_y in ((x, y), (-x, -y)):
        sx, sy, sf, _ = cost_pruned_scan(M, ring, seed=(seed_x, seed_y, f))
        assert np.array_equal(sx, seed_x) and np.array_equal(sy, seed_y)
        assert sf == f


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("L", [2, 4, 8])
def test_poor_seed_is_replaced(ring, L):
    M, _ = gram_and_phi(L, 1, 10.0, 12)
    seed_x = np.zeros(L, np.int64)
    seed_x[0] = 2
    seed_y = np.zeros(L, np.int64)
    seed_f = recost(seed_x, seed_y, M, ring)
    x, y, f, _ = cost_pruned_scan(M, ring, seed=(seed_x, seed_y, seed_f))
    assert f < seed_f
    assert recost(x, y, M, ring) < seed_f
    assert not (np.array_equal(x, seed_x) and np.array_equal(y, seed_y))


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize(
    "M",
    [np.eye(1), np.eye(3), 1e-3 * np.eye(2), np.array([[2.0, 1.0 + 0.5j], [1.0 - 0.5j, 2.0]])],
    ids=["eye1", "eye3", "tiny", "coupled"],
)
def test_never_returns_zero_vector(ring, M):
    x, y, f, _ = cost_pruned_scan(M, ring)
    assert np.any(x) or np.any(y)
    assert f > 0
    assert recost(x, y, M, ring) == pytest.approx(f, rel=1e-12)


def test_nodes_count_accepted_complex_components():
    # y_0 = 0 is accepted on the way down but completes no component; x_0 = 1
    # is the one node, it beats the seed 2 + 0i, and y_0 = 1 is pruned
    x, y, f, nodes = cost_pruned_scan(
        np.eye(1), Ring.GAUSSIAN, seed=(np.array([2]), np.array([0]), 4.0)
    )
    assert (x.tolist(), y.tolist(), f, nodes) == ([1], [0], 1.0, 1)


def test_budget_error_names_the_instance(monkeypatch):
    M, _ = gram_and_phi(3, 1, 20.0, 3)
    monkeypatch.setattr(dfs, "MAX_DFS_NODES", 2)
    with pytest.raises(NumericError) as info:
        cost_pruned_scan(M, Ring.EISENSTEIN)
    msg = str(info.value)
    assert "2-node budget" in msg
    assert "L=3" in msg and "eisenstein" in msg
    assert "nodes=3" in msg and "incumbent f=" in msg


def skewed_gram(seed):
    """Gram matrix of the lattice {b D : b in ring^L} in a skewed basis U D.

    U is a product of random elementary ring matrices (unimodular) and D is
    diag(1 .. 1.5), so the minimum is exactly 1, attained only where a U is
    a unit times e_0, while the basis hides it far from the Babai point.
    """
    rng = np.random.default_rng(seed)
    ring = Ring.GAUSSIAN if seed % 2 == 0 else Ring.EISENSTEIN
    L = 2 + (seed // 2) % 2
    w = 1j if ring is Ring.GAUSSIAN else complex(-0.5, np.sqrt(3.0) / 2.0)
    U = np.eye(L, dtype=complex)
    for _ in range(4):
        i, j = rng.choice(L, 2, replace=False)
        U[i] += (rng.integers(-2, 3) + rng.integers(-2, 3) * w) * U[j]
    B = U * np.linspace(1.0, 1.5, L)
    return ring, U, B @ B.conj().T


# at seed 402 (Gaussian, L=3) a child order that skips one side of a
# center misses the minimum
@pytest.mark.parametrize("seed", range(390, 410))
def test_known_minimum_of_skewed_lattice(seed):
    ring, U, M = skewed_gram(seed)
    x, y, f, _ = cost_pruned_scan(M, ring)
    assert f == pytest.approx(1.0, rel=1e-9)
    image = ring_values(x, y, ring) @ U
    assert abs(abs(image[0]) - 1.0) < 1e-9 and np.allclose(image[1:], 0.0, atol=1e-9)
