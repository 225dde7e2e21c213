"""Cost-pruned depth-first minimization of a Gram quadratic form.

`cost_pruned_scan` finds the exact minimum of a M a^H over nonzero ring
vectors with a Schnorr-Euchner enumeration of the real 2L-dimensional
lattice that the ring vectors form (Schnorr & Euchner 1994; Agrell,
Eriksson, Vardy & Zeger, "Closest point search in lattices", IEEE T-IT
2002).  A vector is written as interleaved integer coordinates
u = (x_0, y_0, x_1, y_1, ...) with a_j = x_j + y_j*w, where w = i for the
Gaussian ring and w = -1/2 + i*sqrt(3)/2 for the Eisenstein ring, so that
a M a^H = u G u^T with the real Gram matrix G = Re(B M B^H).

Coordinates are fixed from the last to the first against the lower
Cholesky factor G = C C^T.  Each level has a one-dimensional center; its
children are visited in zig-zag order around the center (nearest integer
first, then alternately on either side), which is increasing partial cost,
so a branch is abandoned at the first child that reaches the incumbent.
While every coordinate above a level is zero the center is 0 and only
nonnegative values are tried there: u and -u cost the same.

Because every vector cheaper than the incumbent is provably visited, the
scan doubles as a certifier: seeded with the result of a faster heuristic
or sampling scan, it either confirms the seed or returns something strictly
cheaper.  The exhaustive reference search uses this scan as its fast
pruning mode and the coefficient searches use it as their final
certification phase.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .rings import Ring

#: Hard ceiling on nodes expanded by the cost-pruned depth-first scan.  A
#: node is one accepted value of a complex component (an even real level).
MAX_DFS_NODES = 20_000_000


def best_unit(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The cheapest unit vector of a Gram matrix as coordinates (x, y) and cost.

    u*e_l costs |u|^2 M_ll = M_ll for every ring unit u, so the L diagonal
    entries price all 4L (Gaussian) or 6L (Eisenstein) unit vectors at
    once.  Returns e_l for the first smallest M_ll.
    """
    diag = M.diagonal().real
    l = int(np.argmin(diag))
    x = np.zeros(M.shape[0], np.int64)
    x[l] = 1
    return x, np.zeros_like(x), float(diag[l])


def cost_pruned_scan(
    M: np.ndarray,
    ring: Ring,
    seed: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Depth-first scan with partial-cost pruning; exact same minimum as a ball scan.

    `seed` is an optional (x, y, f) incumbent; only strictly cheaper vectors
    are explored, so the seed is returned unchanged whenever it is already
    optimal.  Without a seed the incumbent starts at `best_unit(M)`.

    Returns (x, y, f_best, nodes expanded).  Raises NumericError naming the
    instance once more than `MAX_DFS_NODES` nodes are expanded (read at
    call time).
    """
    max_nodes = MAX_DFS_NODES  # a local, as the loop reads it once per node
    L = M.shape[0]
    n = 2 * L
    B = np.kron(np.eye(L), np.array([[1.0], [ring.omega]]))
    C = np.linalg.cholesky((B @ M @ B.conj().T).real)
    cdiag = C.diagonal()
    r2 = (cdiag * cdiag).tolist()
    # mu[k][j] = C[j, k] / C[k, k]: level k's center is -sum_{j>k} u_j mu[k][j]
    mu = (C / cdiag).T.tolist()

    if seed is None:
        best_x, best_y, f_best = best_unit(M)
    else:
        best_x = np.asarray(seed[0], np.int64).copy()
        best_y = np.asarray(seed[1], np.int64).copy()
        f_best = float(seed[2])
    best_u: list[int] | None = None

    u = [0] * n
    step = [0] * n  # next zig-zag offset; 0 while only nonnegative values are tried
    center = [0.0] * n
    dist = [0.0] * n  # partial cost of the levels above
    # sig[k][j] = sum_{l>=j} u_l mu[k][l], refreshed lazily from index top[k] down
    sig = [[0.0] * (n + 1) for _ in range(n)]
    top = [k + 1 for k in range(n)]
    nodes = 0
    k = n - 1
    while True:
        d = u[k] - center[k]
        p = dist[k] + r2[k] * d * d
        if p < f_best:
            if not k & 1:
                nodes += 1
                if nodes > max_nodes:
                    raise NumericError(
                        f"cost-pruned scan exceeded the {max_nodes}-node budget "
                        f"(L={L}, ring={ring.value}, nodes={nodes}, "
                        f"incumbent f={f_best!r})"
                    )
            if k:
                k -= 1
                s = sig[k]
                m = mu[k]
                hi = top[k]
                for j in range(hi, k, -1):
                    s[j] = s[j + 1] + u[j] * m[j]
                if k and top[k - 1] < hi:
                    top[k - 1] = hi
                top[k] = k + 1
                dist[k] = p
                if p == 0.0:  # every coordinate above is zero; skip the zero vector
                    center[k] = 0.0
                    u[k] = 0 if k else 1
                    step[k] = 0
                else:
                    c = -s[k + 1]
                    center[k] = c
                    uk = math.floor(c + 0.5)
                    u[k] = uk
                    step[k] = 1 if c >= uk else -1
                continue
            f_best = p
            best_u = u.copy()
        else:
            k += 1
            if k == n:
                break
        st = step[k]
        if st:
            u[k] += st
            step[k] = -st - 1 if st > 0 else 1 - st
        else:
            u[k] += 1

    if best_u is not None:
        best_x = np.array(best_u[0::2], np.int64)
        best_y = np.array(best_u[1::2], np.int64)
    return best_x, best_y, f_best, nodes
