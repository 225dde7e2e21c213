"""Parity of `clll_search` with a from-scratch complex LLL reference.

The reference below recomputes the whole Gram-Schmidt orthogonalization
after every size-reduction step and at the top of every iteration, the
textbook way.  `clll_search` updates the same data in place; on a seeded
corpus both must return the same vector, cost and iteration count.
"""

import numpy as np
import pytest

from cfsearch.baselines import CLLLParams, clll_search
from cfsearch.bench import gen_channel
from cfsearch.errors import NumericError
from cfsearch.model import cost_batch, cost_matrix, mimo_gram
from cfsearch.rings import GaussianInt, Ring, gaussian_values, quantize_gaussian, vector_from_arrays

SNRS_DB = (0, 10, 20, 40, 60)
DELTAS = (0.51, 0.75, 0.99, 1.0)
#: Channels per (L, kind, SNR, delta) cell; the reference is O(L^3) per step.
SEEDS_PER_CELL = {1: 4, 2: 4, 3: 4, 4: 4, 8: 2, 16: 1}


def _gso(B):
    L = B.shape[0]
    Bs = np.zeros_like(B)
    mu = np.zeros((L, L), np.complex128)
    for i in range(L):
        Bs[i] = B[i]
        for j in range(i):
            mu[i, j] = np.vdot(Bs[j], B[i]) / np.vdot(Bs[j], Bs[j]).real
            Bs[i] = Bs[i] - mu[i, j] * Bs[j]
    return Bs, mu


def reference_clll(M, delta):
    """(a_opt, f_min, iterations) of complex LLL with full GSO recomputation."""
    L = M.shape[0]
    if L == 1:
        return (GaussianInt(1, 0),), float(M[0, 0].real), 0
    B = np.linalg.cholesky(M).astype(np.complex128)
    U = np.eye(L, dtype=np.complex128)
    iters = 0
    k = 1
    while k < L:
        iters += 1
        Bs, mu = _gso(B)
        for j in range(k - 1, -1, -1):
            q = quantize_gaussian(complex(mu[k, j]))
            if q.re or q.im:
                B[k] -= q.value * B[j]
                U[k] -= q.value * U[j]
                Bs, mu = _gso(B)
        norms = np.einsum("ij,ij->i", Bs, Bs.conj()).real
        if norms[k] >= (delta - abs(mu[k, k - 1]) ** 2) * norms[k - 1]:
            k += 1
        else:
            B[[k - 1, k]] = B[[k, k - 1]]
            U[[k - 1, k]] = U[[k, k - 1]]
            k = max(k - 1, 1)
    i = int(np.argmin(np.einsum("ij,ij->i", B, B.conj()).real))
    x = np.rint(U[i].real).astype(np.int64)
    y = np.rint(U[i].imag).astype(np.int64)
    f_min = float(cost_batch(gaussian_values(x, y)[None, :], M)[0])
    return vector_from_arrays(x, y, Ring.GAUSSIAN), f_min, iters


def gram(L, k, snr_db, seed):
    ch = gen_channel(L, k, np.random.default_rng([L, k, snr_db, seed]), 10.0 ** (snr_db / 10.0))
    return cost_matrix(ch.row_vector()) if k == 1 else mimo_gram(ch)


CASES = [(L, k) for L in SEEDS_PER_CELL for k in (1, 2) if k <= L]


@pytest.mark.parametrize("L,k", CASES, ids=[f"L{L}-k{k}" for L, k in CASES])
def test_matches_reference(L, k):
    for snr in SNRS_DB:
        for seed in range(SEEDS_PER_CELL[L]):
            M = gram(L, k, snr, seed)
            for delta in DELTAS:
                a_ref, f_ref, it_ref = reference_clll(M, delta)
                res = clll_search(M, CLLLParams(delta=delta))
                where = f"L={L} k={k} snr={snr} seed={seed} delta={delta}"
                assert res.a_opt == a_ref, where
                assert res.f_min == f_ref, where
                assert res.candidates_checked == it_ref, where


def test_single_dimension_is_the_unit_vector():
    rng = np.random.default_rng(11)
    for _ in range(200):
        M = np.array([[10.0 ** rng.uniform(-3, 6)]])
        res = clll_search(M)
        assert res.a_opt == (GaussianInt(1, 0),)
        assert res.f_min == M[0, 0]
        assert res.candidates_checked == 0


def test_iteration_cap_boundary():
    M = gram(8, 2, 40, 0)
    _, _, n = reference_clll(M, 0.99)
    assert n > 1
    with pytest.raises(NumericError, match=f"did not converge in {n - 1} iterations"):
        clll_search(M, CLLLParams(max_iter=n - 1))
    assert clll_search(M, CLLLParams(max_iter=n)).candidates_checked == n

