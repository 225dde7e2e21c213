"""Independent checks of the searches' answers.

Nothing here calls `cfsearch`: the Gram matrix, the cost of a returned
vector and the exact minimum are recomputed from the channel (H, P) with
this file's own arithmetic.  The exact minimum comes from a textbook
Fincke-Pohst enumeration over the real 2L-dimensional lattice, run
breadth-first in numpy with the radius fixed at the returned vector's cost,
so it shares no code with `cfsearch.dfs` (a depth-first scan over complex
components with a shrinking radius).

Each check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
OMEGA = {"gaussian": 1j, "eisenstein": complex(-0.5, math.sqrt(3.0) / 2.0)}
ELEMENT_TYPE = {"gaussian": "GaussianInt", "eisenstein": "EisensteinInt"}


def gram(H: np.ndarray, P: float) -> np.ndarray:
    """The Gram matrix M of the cost a M a^H.

    k = 1: (1 + P ||h||^2) I - P h^H h.  k > 1: (I + P H^H H)^-1, formed by a
    direct inverse (the package assembles it from an SVD).
    """
    k, L = H.shape
    if k == 1:
        h = H[0]
        M = (1.0 + P * float(np.sum(np.abs(h) ** 2))) * np.eye(L) - P * np.outer(h.conj(), h)
    else:
        M = np.linalg.inv(np.eye(L) + P * (H.conj().T @ H))
    return (M + M.conj().T) / 2.0


def ring_norm(ring: str, x: int, y: int) -> int:
    """|x + y w|^2 as an exact integer."""
    return x * x + y * y if ring == "gaussian" else x * x - x * y + y * y


def form_value(ring: str, coords, H: np.ndarray, P: float) -> float:
    """a M a^H for a = (x_j + y_j w)_j, without forming M.

    k = 1: (1 + P||h||^2) ||a||^2 - P |a h^H|^2.
    k > 1: ||a||^2 - P w^H (I + P H H^H)^-1 w with w = H a^H.
    """
    k = H.shape[0]
    a = np.array([x + y * OMEGA[ring] for x, y in coords])
    norm = sum(ring_norm(ring, x, y) for x, y in coords)
    if k == 1:
        h = H[0]
        return (1.0 + P * float(np.sum(np.abs(h) ** 2))) * norm - P * abs(complex(a @ h.conj())) ** 2
    w = H @ a.conj()
    z = np.linalg.solve(np.eye(k) + P * (H @ H.conj().T), w)
    return norm - P * float(np.vdot(w, z).real)


def real_gram(M: np.ndarray, ring: str) -> np.ndarray:
    """The 2L x 2L real Gram matrix G with u^T G u = a M a^H.

    Coordinates are interleaved: u = (x_0, y_0, x_1, y_1, ...) with
    a_j = x_j + y_j w.
    """
    L = M.shape[0]
    B = np.zeros((2 * L, L), np.complex128)
    B[0::2, :] = np.eye(L)
    B[1::2, :] = OMEGA[ring] * np.eye(L)
    G = (B @ M @ B.conj().T).real
    return (G + G.T) / 2.0


def lattice_minimum(G: np.ndarray, radius: float) -> tuple[float, np.ndarray | None]:
    """Smallest u^T G u over nonzero integer u with u^T G u <= radius.

    Fincke-Pohst: with G = R^T R (R upper triangular), coordinates are fixed
    from the last to the first; each fixes one term of
    sum_i r_ii^2 (u_i - c_i)^2, and u_i ranges over the integers that keep
    the partial sum within the radius.  All surviving prefixes advance one
    level at a time.  Returns (inf, None) if no nonzero point lies within
    the radius.
    """
    n = G.shape[0]
    R = np.linalg.cholesky(G).T
    r = np.diag(R)
    d = r * r
    Q = R / r[:, None]
    U = np.zeros((1, 0), np.int64)  # columns: coordinates i+1 .. n-1
    part = np.zeros(1)
    for i in range(n - 1, -1, -1):
        c = -(U @ Q[i, i + 1 :]) if U.shape[1] else np.zeros(part.size)
        w = np.sqrt(np.maximum(radius - part, 0.0) / d[i])
        lo = np.ceil(c - w).astype(np.int64)
        cnt = np.maximum(np.floor(c + w).astype(np.int64) - lo + 1, 0)
        rows = np.repeat(np.arange(cnt.size), cnt)
        v = lo[rows] + np.arange(rows.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        new = part[rows] + d[i] * (v - c[rows]) ** 2
        keep = new <= radius
        U = np.concatenate([v[keep, None], U[rows[keep]]], axis=1)
        part = new[keep]
    nz = np.any(U != 0, axis=1)
    if not nz.any():
        return math.inf, None
    j = int(np.argmin(np.where(nz, part, np.inf)))
    return float(part[j]), U[j]


def exact_minimum(ring: str, H: np.ndarray, P: float, radius: float | None = None) -> float:
    """The minimum of a M a^H over nonzero ring vectors.

    `radius` must be at least the minimum (the cost of any known vector);
    by default it is the smallest diagonal entry of M, a unit vector's cost.
    """
    M = gram(H, P)
    if radius is None:
        radius = float(np.min(M.diagonal().real))
    f, _ = lattice_minimum(real_gram(M, ring), radius * (1.0 + RTOL))
    return f


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def check_search(ring: str, H: np.ndarray, P: float, answer: dict, exact: bool) -> list[str]:
    """Check one search answer {"a": [[type, x, y], ...], "f_min": f}.

    The vector must be nonzero, of length L, with integer coordinates of the
    ring's element type; `f_min` must equal its cost recomputed here, lie
    between lambda_min(M) and the best unit vector's cost, and (when
    `exact`) equal the enumerated lattice minimum.
    """
    L = H.shape[1]
    a, f_min = answer["a"], answer["f_min"]
    if len(a) != L:
        return [f"vector length {len(a)} != L={L}"]
    if any(t != ELEMENT_TYPE[ring] or type(x) is not int or type(y) is not int for t, x, y in a):
        return [f"coordinates are not {ELEMENT_TYPE[ring]} integers: {a}"]
    coords = [(x, y) for _, x, y in a]
    if all(x == 0 and y == 0 for x, y in coords):
        return ["zero vector"]
    problems = []
    f_vec = form_value(ring, coords, H, P)
    if not _close(f_vec, f_min):
        problems.append(f"reported f_min {f_min!r} != cost of the vector {f_vec!r}")
    M = gram(H, P)
    unit_best = float(np.min(M.diagonal().real))
    lam_min = float(np.linalg.eigvalsh(M)[0])
    if f_min > unit_best * (1.0 + RTOL):
        problems.append(f"f_min {f_min!r} above the best unit vector's cost {unit_best!r}")
    if f_min < lam_min * (1.0 - RTOL):
        problems.append(f"f_min {f_min!r} below lambda_min(M) {lam_min!r}")
    if exact:
        f_exact = exact_minimum(ring, H, P, max(f_vec, f_min))
        if not _close(f_exact, f_min):
            problems.append(f"f_min {f_min!r} != enumerated minimum {f_exact!r}")
    return problems


def check_sweep(ring: str, L: int, H: np.ndarray, P: float, records: list[dict]) -> list[str]:
    """Check the records of a one-trial, one-SNR `run_sweep` cell.

    `optimal` must equal the enumerated minimum (and match the norm-ball
    `exhaustive` when present, match fraction 1.0); `clll` must stay within
    2^(L-1) of it; `qes` and `clll` must never be below it.
    """
    by_alg = {r["algorithm"]: r for r in records}
    f_exact = exact_minimum(ring, H, P)
    problems = []
    if not _close(by_alg["optimal"]["avg_f"], f_exact):
        problems.append(f"optimal f {by_alg['optimal']['avg_f']!r} != enumerated minimum {f_exact!r}")
    for alg, rec in by_alg.items():
        f = rec["avg_f"]
        if f < f_exact * (1.0 - RTOL):
            problems.append(f"{alg} f {f!r} below the exact minimum {f_exact!r}")
        if alg == "clll" and f > 2.0 ** (L - 1) * f_exact * (1.0 + RTOL):
            problems.append(f"clll f {f!r} beyond 2^(L-1) times the minimum {f_exact!r}")
        if alg in ("optimal", "exhaustive") and rec["optimal_match_fraction"] != 1.0:
            problems.append(f"{alg} match fraction {rec['optimal_match_fraction']!r} != 1.0")
    return problems
