"""Channel containers and closed-form compute-and-forward quantities.

All rates are in bits per complex channel use (base-2 logs, clamped at zero).
For a single-antenna transmitter row `h` and integer coefficient vector `a`,
the achievable computation rate is

    R(h, a) = log2+( 1 / (||a||^2 - P |a h^H|^2 / (1 + P ||h||^2)) )

and minimizing the quadratic form a M a^H with

    M = (1 + P ||h||^2) I - P h^H h

is equivalent to maximizing R (the two cost conventions differ by the fixed
positive factor 1 + P ||h||^2).  The multiple-antenna variant keeps its
conventional 1/2 prefactor and uses the Gram matrix assembled from the SVD
of the channel matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError
from .rings import CoefficientVector, Ring, vector_value

HERMITIAN_TOL = 1e-12
COST_IMAG_TOL = 1e-9
BOPT_RESIDUAL_TOL = 1e-8


def replay_args(H: np.ndarray, P: float, ring: Ring, algorithm: str) -> str:
    """`cfsearch search` arguments that rerun one search on channel `H`.

    The channel is written as JSON [re, im] pairs (a flat list for a vector,
    one list per row for a matrix), which `--h` reads back to the same
    floats.
    """
    pairs = json.dumps(np.stack([H.real, H.imag], axis=-1).tolist())
    return f"--h '{pairs}' --P {P!r} --ring {ring.value} --algorithm {algorithm}"


def log2_plus(x: float) -> float:
    """max(0, log2(x))."""
    return max(0.0, math.log2(x))


def _as_complex_vector(a) -> np.ndarray:
    if isinstance(a, (tuple, list)) and a and not np.isscalar(a[0]):
        return vector_value(a)
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 1:
        raise InvalidInputError("coefficient vector must be one-dimensional")
    return arr


@dataclass(frozen=True)
class ChannelVector:
    """A single-antenna channel row `h` with transmit power `P`."""

    h: np.ndarray
    P: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 1 or h.size < 1:
            raise InvalidInputError("h must be a nonempty one-dimensional vector")
        if not np.all(np.isfinite(h)):
            raise InvalidInputError("h must be finite")
        if not (np.isfinite(self.P) and self.P > 0):
            raise InvalidInputError(f"P must be positive and finite, got {self.P}")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "P", float(self.P))

    @property
    def L(self) -> int:
        return self.h.size


@dataclass(frozen=True)
class ChannelMatrix:
    """A k x L channel matrix `H` with transmit power `P` (1 <= k <= L)."""

    H: np.ndarray
    P: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=np.complex128)
        if H.ndim != 2:
            raise InvalidInputError("H must be a two-dimensional matrix")
        k, L = H.shape
        if not (1 <= k <= L):
            raise InvalidInputError(f"H must have 1 <= k <= L rows, got {k} x {L}")
        if not np.all(np.isfinite(H)):
            raise InvalidInputError("H must be finite")
        if not (np.isfinite(self.P) and self.P > 0):
            raise InvalidInputError(f"P must be positive and finite, got {self.P}")
        H.flags.writeable = False
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "P", float(self.P))

    @property
    def k(self) -> int:
        return self.H.shape[0]

    @property
    def L(self) -> int:
        return self.H.shape[1]

    def row_vector(self) -> ChannelVector:
        """View a 1 x L matrix as a ChannelVector."""
        if self.k != 1:
            raise InvalidInputError("only a single-row matrix converts to a vector")
        return ChannelVector(self.H[0], self.P)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a coefficient search.

    `f_min` is the minimized quadratic form value, priced with `cost_batch`
    on the returned `a_opt` itself; `rate` is the achievable rate for
    `a_opt` (None for Gram-matrix-only searches, which have no
    channel context to derive a rate from); `candidates_checked` counts the
    search's work: for the exact searches and `qes_search` the sampled
    candidates priced (not those a norm bound drops before pricing), plus L
    unit candidates (one diagonal entry per component, not 4L or 6L unit
    vectors), plus the certification's DFS nodes; for
    `exhaustive_search` the complete vectors or DFS nodes; for
    `clll_search` the iterations.  `subsets_skipped` counts near-singular
    column subsets dropped by the matrix search.
    """

    a_opt: CoefficientVector
    f_min: float
    rate: float | None
    candidates_checked: int
    elapsed_s: float
    ring: Ring
    subsets_skipped: int | None = None


def check_cost_matrix(M: np.ndarray) -> np.ndarray:
    """Validate a Gram matrix: square, Hermitian (1e-12), positive definite."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("cost matrix must be square")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.conj().T).max() > HERMITIAN_TOL * scale:
        raise NumericError("cost matrix is not Hermitian within tolerance")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as e:
        raise NumericError("cost matrix is not positive definite") from e
    return M


def cost_matrix(ch: ChannelVector) -> np.ndarray:
    """Hermitian positive-definite Gram matrix (1 + P||h||^2) I - P h^H h."""
    h = ch.h
    M = (1.0 + ch.P * np.vdot(h, h).real) * np.eye(ch.L) - ch.P * np.outer(h.conj(), h)
    return (M + M.conj().T) / 2.0


def cost(a, M: np.ndarray) -> float:
    """Quadratic form a M a^H for a nonzero coefficient vector.

    Returns the real part and raises NumericError if the imaginary residue
    exceeds 1e-9 relative to |f|.
    """
    av = _as_complex_vector(a)
    if not np.any(av):
        raise InvalidInputError("coefficient vector must be nonzero")
    M = np.asarray(M)
    if M.shape != (av.size, av.size):
        raise InvalidInputError("cost matrix shape does not match vector length")
    f = complex(av @ M @ av.conj())
    if abs(f.imag) > COST_IMAG_TOL * max(abs(f.real), 1e-300):
        raise NumericError(f"cost has non-negligible imaginary part: {f}")
    return f.real


def cost_batch(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise quadratic forms a M a^H for a stack of candidate vectors."""
    return np.einsum("ij,ij->i", A @ M, A.conj()).real


def rate(ch: ChannelVector, a) -> float:
    """Computation rate of coefficient vector `a` on channel `ch`, in bits."""
    av = _as_complex_vector(a)
    if not np.any(av):
        raise InvalidInputError("coefficient vector must be nonzero")
    h = ch.h
    f8 = np.vdot(av, av).real - ch.P * abs(av @ h.conj()) ** 2 / (
        1.0 + ch.P * np.vdot(h, h).real
    )
    if f8 <= 0.0:
        raise NumericError(f"effective noise must be positive, got {f8}")
    return log2_plus(1.0 / f8)


def phi_bound(ch: ChannelVector) -> float:
    """Norm bound sqrt(1 + P ||h||^2) on rate-positive coefficient vectors."""
    return math.sqrt(1.0 + ch.P * np.vdot(ch.h, ch.h).real)


def mimo_gram(ch: ChannelMatrix) -> np.ndarray:
    """Gram matrix for the matrix-channel search, assembled from the SVD.

    With H = U diag(lambda) V^H, the matrix is V D V^H where D carries
    1/(1 + P lambda_i^2) on the first k entries and 1 on the remaining L - k.
    """
    try:
        _, s, Vh = np.linalg.svd(ch.H)
    except np.linalg.LinAlgError as e:
        raise NumericError("SVD of channel matrix failed") from e
    d = np.ones(ch.L)
    d[: ch.k] = 1.0 / (1.0 + ch.P * s**2)
    M = Vh.conj().T @ (d[:, None] * Vh)
    return (M + M.conj().T) / 2.0


def mimo_phi(ch: ChannelMatrix) -> float:
    """Norm bound sqrt(1 + P lambda_max^2) for the matrix-channel search."""
    s = np.linalg.svd(ch.H, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    return math.sqrt(1.0 + ch.P * smax * smax)


def b_opt(ch: ChannelMatrix, a) -> np.ndarray:
    """MMSE-optimal combining row b = a H^H (P^{-1} I + H H^H)^{-1}."""
    av = _as_complex_vector(a)
    if av.size != ch.L:
        raise InvalidInputError("coefficient vector length must equal L")
    H = ch.H
    G = np.eye(ch.k) / ch.P + H @ H.conj().T
    rhs = av @ H.conj().T
    b = np.linalg.solve(G, rhs.conj()).conj()
    resid = float(np.linalg.norm(b @ G - rhs))
    if resid > BOPT_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise NumericError(f"combining-vector solve residual too large: {resid}")
    return b


def mimo_rate(ch: ChannelMatrix, a, b: np.ndarray) -> float:
    """Matrix-channel computation rate 0.5 log2+(P / (||b||^2 + P||bH - a||^2))."""
    av = _as_complex_vector(a)
    if not np.any(av):
        raise InvalidInputError("coefficient vector must be nonzero")
    b = np.asarray(b, dtype=np.complex128)
    denom = float(np.linalg.norm(b) ** 2 + ch.P * np.linalg.norm(b @ ch.H - av) ** 2)
    if denom <= 0.0:
        raise NumericError("effective noise must be positive")
    return 0.5 * log2_plus(ch.P / denom)
