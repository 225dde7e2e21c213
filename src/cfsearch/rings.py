"""Gaussian and Eisenstein integer rings and their nearest-point quantizers.

The two rings supported are Z[i] (Gaussian integers, the square lattice) and
Z[w] (Eisenstein integers, the hexagonal A2 lattice) with w = -1/2 + i*sqrt(3)/2.
Quantization maps an arbitrary complex number to a nearest ring element under
fixed, deterministic tie-breaking rules:

* Gaussian: round real and imaginary parts independently, halves toward +inf.
* Eisenstein: decode the A2 lattice as the union of a rectangular lattice
  B = {(u, v) : u integer, v in sqrt(3)*Z} and its coset B + (1/2, sqrt(3)/2);
  on an exact distance tie pick the candidate with larger squared modulus,
  then larger real part, then larger imaginary part.

`canonical` picks one representative of a coefficient vector's unit orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError

SQRT3 = math.sqrt(3.0)

# tolerance (relative to max(1, |z|^2)) for treating two candidate squared
# distances as an exact tie inside the hexagonal nearest-point decoder
TIE_DETECT_RTOL = 1e-12


class Ring(Enum):
    """Integer ring used for coefficient vectors.

    An element with integer coordinates (x, y) is x + y*omega, where omega
    is i (Gaussian) or -1/2 + i*sqrt(3)/2 (Eisenstein).  `values` and `norm`
    take coordinate arrays of any shape.
    """

    GAUSSIAN = "gaussian"
    EISENSTEIN = "eisenstein"

    @property
    def omega(self) -> complex:
        """The generator omega of the ring over the integers."""
        return 1j if self is Ring.GAUSSIAN else complex(-0.5, SQRT3 / 2.0)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Complex values x + y*omega (`gaussian_values` or `eisenstein_values`)."""
        if self is Ring.GAUSSIAN:
            return gaussian_values(x, y)
        return eisenstein_values(x, y)

    def norm(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Squared moduli |x + y*omega|^2, exact in integer arithmetic."""
        n = x * x + y * y
        return n if self is Ring.GAUSSIAN else n - x * y


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer re + im*i."""

    re: int
    im: int

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def abs2(self) -> int:
        """Squared modulus (an ordinary integer)."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return self.value

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __str__(self) -> str:
        return f"({self.re}{self.im:+d}i)"


@dataclass(frozen=True)
class EisensteinInt:
    """An Eisenstein integer a + b*w with w = -1/2 + i*sqrt(3)/2."""

    a: int
    b: int

    @property
    def value(self) -> complex:
        return complex(self.a - self.b / 2.0, self.b * (SQRT3 / 2.0))

    @property
    def abs2(self) -> int:
        """Squared modulus a^2 - a*b + b^2 (an ordinary integer)."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __complex__(self) -> complex:
        return self.value

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        # (a + b w)(c + d w) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    def __str__(self) -> str:
        return f"({self.a}{self.b:+d}w)"


RingElement = GaussianInt | EisensteinInt
CoefficientVector = tuple[RingElement, ...]

#: Multiplicative units of each ring, in canonical order.
GAUSSIAN_UNITS: tuple[GaussianInt, ...] = (
    GaussianInt(1, 0),
    GaussianInt(-1, 0),
    GaussianInt(0, 1),
    GaussianInt(0, -1),
)
EISENSTEIN_UNITS: tuple[EisensteinInt, ...] = (
    EisensteinInt(1, 0),
    EisensteinInt(-1, 0),
    EisensteinInt(0, 1),
    EisensteinInt(0, -1),
    EisensteinInt(-1, -1),
    EisensteinInt(1, 1),
)


def units(ring: Ring) -> tuple[RingElement, ...]:
    """All multiplicative units of `ring` (4 Gaussian, 6 Eisenstein)."""
    return GAUSSIAN_UNITS if ring is Ring.GAUSSIAN else EISENSTEIN_UNITS


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves toward +inf."""
    return int(math.floor(x + 0.5))


def _check_finite(z) -> None:
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("quantizer input must be finite")


def quantize_gaussian(z: complex) -> GaussianInt:
    """Nearest Gaussian integer to `z`.

    Real and imaginary parts round independently with halves toward +inf,
    so the result is componentwise nearest and fully deterministic.
    """
    _check_finite(z)
    return GaussianInt(round_half_up(z.real), round_half_up(z.imag))


def quantize_gaussian_array(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `quantize_gaussian`; returns integer (re, im) arrays."""
    z = np.asarray(z)
    re = np.floor(z.real + 0.5).astype(np.int64)
    im = np.floor(z.imag + 0.5).astype(np.int64)
    return re, im


def quantize_eisenstein_array(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-Eisenstein-integer decoder; returns (a, b) arrays.

    Decodes the hexagonal lattice as the rectangular sublattice
    B = Z x sqrt(3)Z union the shifted copy B + (1/2, sqrt(3)/2).  Both
    rectangular decodes round half-up.  An exact distance tie is broken
    toward the candidate of larger squared modulus, then larger real part,
    then larger imaginary part.
    """
    z = np.asarray(z)
    x, y = z.real, z.imag

    u1 = np.floor(x + 0.5)
    k1 = np.floor(y / SQRT3 + 0.5)
    a1 = (u1 + k1).astype(np.int64)
    b1 = (2 * k1).astype(np.int64)
    d1 = (x - u1) ** 2 + (y - SQRT3 * k1) ** 2

    u2 = np.floor(x)  # floor(x - 0.5 + 0.5)
    k2 = np.floor((y - SQRT3 / 2) / SQRT3 + 0.5)
    a2 = (u2 + k2 + 1).astype(np.int64)
    b2 = (2 * k2 + 1).astype(np.int64)
    d2 = (x - u2 - 0.5) ** 2 + (y - SQRT3 * k2 - SQRT3 / 2) ** 2

    n1 = a1 * a1 - a1 * b1 + b1 * b1
    n2 = a2 * a2 - a2 * b2 + b2 * b2
    r1 = 2 * a1 - b1  # twice the real part
    r2 = 2 * a2 - b2
    # the two squared distances travel different rounding paths, so an exact
    # geometric tie can land a few ulp apart; detect ties within float noise
    tie_tol = TIE_DETECT_RTOL * np.maximum(1.0, x * x + y * y)
    is_tie = np.abs(d1 - d2) <= tie_tol
    tie = (n2 > n1) | ((n2 == n1) & ((r2 > r1) | ((r2 == r1) & (b2 > b1))))
    pick2 = np.where(is_tie, tie, d2 < d1)

    a = np.where(pick2, a2, a1)
    b = np.where(pick2, b2, b1)
    return a, b


def quantize_eisenstein(z: complex) -> EisensteinInt:
    """Nearest Eisenstein integer to `z` (see `quantize_eisenstein_array`)."""
    _check_finite(z)
    a, b = quantize_eisenstein_array(np.asarray([complex(z)]))
    return EisensteinInt(int(a[0]), int(b[0]))


def quantize(z: complex, ring: Ring) -> RingElement:
    """Nearest element of `ring` to `z`."""
    if ring is Ring.GAUSSIAN:
        return quantize_gaussian(z)
    return quantize_eisenstein(z)


def gaussian_values(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex values of Gaussian integers given coordinate arrays."""
    return re + 1j * im


def eisenstein_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex values of Eisenstein integers given coordinate arrays."""
    return (a - b / 2.0) + 1j * (SQRT3 / 2.0) * b


def vector_value(vec: CoefficientVector) -> np.ndarray:
    """Complex value array of a coefficient vector."""
    return np.array([el.value for el in vec], dtype=np.complex128)


def vector_from_arrays(x: np.ndarray, y: np.ndarray, ring: Ring) -> CoefficientVector:
    """Build a coefficient vector from integer coordinate arrays."""
    if ring is Ring.GAUSSIAN:
        return tuple(GaussianInt(int(r), int(i)) for r, i in zip(x, y))
    return tuple(EisensteinInt(int(a), int(b)) for a, b in zip(x, y))


def vector_coords(vec: CoefficientVector, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinate arrays of a coefficient vector (inverse of `vector_from_arrays`)."""
    if ring is Ring.GAUSSIAN:
        x = np.array([e.re for e in vec], np.int64)
        y = np.array([e.im for e in vec], np.int64)
    else:
        x = np.array([e.a for e in vec], np.int64)
        y = np.array([e.b for e in vec], np.int64)
    return x, y


#: Integer matrices ((p, q), (r, t)) mapping coordinates (x, y) to
#: (p x + q y, r x + t y): entry s multiplies by the unit that rotates
#: sector s (arguments [s * 90, s * 90 + 90) or [s * 60, s * 60 + 60)
#: degrees) onto sector 0.
_TO_SECTOR_ZERO = {
    Ring.GAUSSIAN: (
        ((1, 0), (0, 1)),  # 1
        ((0, 1), (-1, 0)),  # -i
        ((-1, 0), (0, -1)),  # -1
        ((0, -1), (1, 0)),  # i
    ),
    Ring.EISENSTEIN: (
        ((1, 0), (0, 1)),  # 1
        ((0, 1), (-1, 1)),  # -w
        ((-1, 1), (-1, 0)),  # w^2
        ((-1, 0), (0, -1)),  # -1
        ((0, -1), (1, -1)),  # w
        ((1, -1), (1, 0)),  # -w^2
    ),
}


def _sector(x: int, y: int, ring: Ring) -> int:
    """Index of the unit sector holding the nonzero element with coordinates (x, y).

    Gaussian sector 0 is x > 0, y >= 0 (arguments [0, 90) degrees);
    Eisenstein sector 0 is 0 <= b < a (arguments [0, 60) degrees).  The
    other sectors are those rotated by 90 or 60 degrees each.
    """
    if ring is Ring.GAUSSIAN:
        if y >= 0 and x > 0:
            return 0
        if x <= 0 and y > 0:
            return 1
        return 2 if x < 0 else 3
    a, b = x, y
    if 0 <= b < a:
        return 0
    if 0 < a <= b:
        return 1
    if a <= 0 < b:
        return 2
    if a < b <= 0:
        return 3
    return 4 if a < 0 else 5


def canonical(x: np.ndarray, y: np.ndarray, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """One representative of the unit orbit of a nonzero coordinate vector.

    Every unit multiple u*a has the cost of a, so a search's minimizer is
    defined only up to its orbit (4 vectors for Gaussian, 6 for
    Eisenstein).  The representative is the orbit member whose first
    nonzero entry lies in sector 0: x > 0 and y >= 0 for Gaussian, or
    0 <= b < a for Eisenstein.  The unit is read off that entry with exact
    integer tests and applied to all entries, so the work is O(L).
    """
    x = np.asarray(x, np.int64)
    y = np.asarray(y, np.int64)
    for a, b in zip(x.tolist(), y.tolist()):
        if a or b:
            break
    else:
        raise InvalidInputError("coefficient vector must be nonzero")
    (p, q), (r, t) = _TO_SECTOR_ZERO[ring][_sector(a, b, ring)]
    return p * x + q * y, r * x + t * y


def unit_vectors(L: int, ring: Ring) -> list[CoefficientVector]:
    """All length-`L` vectors with one unit entry and zeros elsewhere.

    Returns 4*L vectors for the Gaussian ring and 6*L for the Eisenstein
    ring, ordered position-major then unit-major; no duplicates.
    """
    if L < 1:
        raise InvalidInputError(f"vector length must be >= 1, got {L}")
    zero = GaussianInt(0, 0) if ring is Ring.GAUSSIAN else EisensteinInt(0, 0)
    out: list[CoefficientVector] = []
    for pos in range(L):
        for u in units(ring):
            vec = [zero] * L
            vec[pos] = u
            out.append(tuple(vec))
    return out
