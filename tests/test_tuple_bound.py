"""The Schur-complement tuple bound of `search_optimal_mimo`.

A candidate's entries on its column subset tau equal its quantized marked
tuple, so its cost is at least a_tau S_tau a_tau^H, where S_tau is the
Schur complement of M on tau.  The search bounds its tuple enumeration by
lambda_max(W_tau,tau) (W = M^-1) and screens each block on that form
before solving and quantizing.  The reference below keeps the scan the
bound replaced: tuples bounded by the global ||Q(c)||^2 <= f_best * Phi^2,
with no k-entry screen.  On a seeded corpus both must return the same
canonical vector, the same `f_min` to the bit and a certification of the
same size.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsearch import optimal
from cfsearch.bench import gen_channel
from cfsearch.mimo import DET_SKIP_REL, _quantize_coords, _subset_bounds, search_optimal_mimo
from cfsearch.model import ChannelMatrix, cost_batch, mimo_gram, mimo_phi
from cfsearch.optimal import BUDGET_SLACK, _BestTracker, _tuple_blocks, _tuple_prefixes, gen_disc
from cfsearch.rings import Ring


def reference_search_optimal_mimo(ch, ring):
    """(a_opt, f_min, candidates) of the tuple scan bounded by Phi^2 alone."""
    M = mimo_gram(ch)
    phi = mimo_phi(ch)
    points = gen_disc(phi, ring).points
    best = _BestTracker(M, ring, lam_min=1.0 / (phi * phi))
    best.consider_units()
    q = ring.norm(*_quantize_coords(points, ring))
    order = np.argsort(q, kind="stable")
    points, q = points[order], q[order]
    phi2 = phi * phi
    for tau in itertools.combinations(range(ch.L), ch.k):
        H_tau = ch.H[:, tau]
        if abs(np.linalg.det(H_tau)) <= DET_SKIP_REL * float(np.prod(np.linalg.norm(H_tau, axis=0))):
            continue
        T = np.linalg.solve(H_tau, ch.H)
        prefixes = _tuple_prefixes(q, ch.k - 1, best.budget() * phi2, 10**8, str)
        for idx, _ in _tuple_blocks(q, *prefixes, lambda: best.budget() * phi2):
            C = points[idx]
            A = C @ T
            A[:, tau] = C
            best.consider(*_quantize_coords(A, ring))
    best.certify(ch.H, ch.P, "mimo-optimal")
    res = optimal._search_result(*best.coords, M, ring, best.checked, 0.0)
    return res.a_opt, res.f_min, res.candidates_checked


def parity_corpus():
    """Seeded channels: L 2-5, k 1-3 at 0-20 dB except L=5 k=3 at 20 dB,
    L=6 k=2 at 10 and 20 dB, and rank-deficient channels whose every
    column subset is skipped."""
    rng = np.random.default_rng(1414)
    chans = []
    for L in range(2, 6):
        for k in range(1, min(L, 3) + 1):
            for snr_db in (0, 5, 10, 20):
                if k == 3 and L == 5 and snr_db == 20:
                    continue  # the Phi^2-bounded reference takes 15-26 s per search there
                chans.append(gen_channel(L, k, rng, 10.0 ** (snr_db / 10.0)))
    chans += [gen_channel(6, 2, rng, 10.0 ** (snr_db / 10.0)) for snr_db in (10, 20)]
    h = gen_channel(3, 1, rng, 1.0).H
    column = np.array([[0.8 + 0.3j], [-0.4j]])
    chans += [
        ChannelMatrix(np.zeros((2, 3), complex), 10.0),
        ChannelMatrix(np.vstack([h, np.zeros_like(h)]), 10.0),  # a zero row
        ChannelMatrix(np.repeat(column, 3, axis=1), 10.0),  # equal columns
    ]
    return chans


@pytest.mark.parametrize("ring", list(Ring))
def test_schur_bound_keeps_the_norm_bounded_scan(monkeypatch, ring):
    nodes = []
    scan = optimal.cost_pruned_scan

    def counted(M, ring, seed=None):
        out = scan(M, ring, seed=seed)
        nodes.append(out[3])
        return out

    monkeypatch.setattr(optimal, "cost_pruned_scan", counted)
    all_skipped = checked = checked_ref = 0
    for ch in parity_corpus():
        a_ref, f_ref, n_ref = reference_search_optimal_mimo(ch, ring)
        nodes_ref = nodes.pop()
        res = search_optimal_mimo(ch, ring)
        where = f"L={ch.L} k={ch.k} P={ch.P}"
        assert res.a_opt == a_ref, where
        assert res.f_min.hex() == f_ref.hex(), where
        assert nodes.pop() == nodes_ref, where
        checked, checked_ref = checked + res.candidates_checked, checked_ref + n_ref
        all_skipped += res.subsets_skipped == len(list(itertools.combinations(range(ch.L), ch.k)))
    assert all_skipped == 3
    # the k-entry screen drops most rows that the Phi^2 screen would price
    assert checked * 2 < checked_ref


def _random_ring_vectors(rng, ring, n, L):
    x, y = rng.integers(-3, 4, (n, L)), rng.integers(-3, 4, (n, L))
    keep = ring.norm(x, y).sum(axis=1) > 0
    return ring.values(x[keep], y[keep])


def _schur_violations(ch, a, factors):
    """Subsets tau where ||a_tau R||^2 exceeds the cost of a, for the factor
    R that `factors(ch)` pairs with tau."""
    f = cost_batch(a, mimo_gram(ch)) * (1.0 + BUDGET_SLACK)
    bad = []
    for tau, R in factors(ch):
        Y = a[:, list(tau)] @ R
        if np.any((Y * Y.conj()).real.sum(axis=1) > f):
            bad.append(tau)
    return bad


def _schur(ch):
    subsets = list(itertools.combinations(range(ch.L), ch.k))
    return zip(subsets, _subset_bounds(ch, np.array(subsets))[0])


def _principal(ch):
    # a factor of M_tau,tau, the principal submatrix: M_tau,tau >= S_tau,
    # and it is not a lower bound on the cost
    M = mimo_gram(ch)
    return ((tau, np.linalg.cholesky(M[np.ix_(tau, tau)])) for tau in itertools.combinations(range(ch.L), ch.k))


@given(
    ring=st.sampled_from(list(Ring)),
    L=st.integers(1, 6),
    k=st.integers(1, 3),
    snr_db=st.floats(0.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_schur_form_bounds_the_cost(ring, L, k, snr_db, seed):
    k = min(k, L)
    rng = np.random.default_rng(seed)
    ch = gen_channel(L, k, rng, 10.0 ** (snr_db / 10.0))
    a = _random_ring_vectors(rng, ring, 64, L)
    assert _schur_violations(ch, a, _schur) == []
    subsets = list(itertools.combinations(range(L), k))
    lam = _subset_bounds(ch, np.array(subsets))[1]
    assert np.all(lam <= mimo_phi(ch) ** 2 * (1.0 + BUDGET_SLACK))
    # the bound is attained by the best complex completion off tau
    M = mimo_gram(ch)
    for tau, R in _schur(ch):
        off = [j for j in range(L) if j not in tau]
        b = a.copy()
        if off:
            b[:, off] = -a[:, list(tau)] @ M[np.ix_(tau, off)] @ np.linalg.inv(M[np.ix_(off, off)])
        Y = a[:, list(tau)] @ R
        np.testing.assert_allclose((Y * Y.conj()).real.sum(axis=1), cost_batch(b, M), rtol=1e-9)


def test_principal_submatrix_is_not_a_bound():
    # the check above has teeth: M_tau,tau in place of S_tau fails it
    rng = np.random.default_rng(15)
    failed = 0
    for ring in Ring:
        for L, k in ((3, 1), (4, 2), (5, 3)):
            ch = gen_channel(L, k, rng, 100.0)
            a = _random_ring_vectors(rng, ring, 64, L)
            assert _schur_violations(ch, a, _schur) == []
            failed += bool(_schur_violations(ch, a, _principal))
    assert failed == 6
