"""Test-side reference for the unit groups of Z[i] and Z[w].

The units, their products with ring elements and the unit vectors, written
out by hand on integer coordinates.  Tests use them as oracles for the
searches' unit handling (`best_unit`, `canonical`), which work on
coordinate arrays and never build these objects.
"""

from cfsearch.rings import EisensteinInt, GaussianInt, Ring

#: Coordinates (x, y) of the units x + y*omega: 1, -1, i, -i for Z[i] and
#: 1, -1, w, -w, w^2 = -1 - w, -w^2 for Z[w].
UNIT_COORDS = {
    Ring.GAUSSIAN: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    Ring.EISENSTEIN: ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1)),
}


def element(x: int, y: int, ring: Ring):
    return GaussianInt(x, y) if ring is Ring.GAUSSIAN else EisensteinInt(x, y)


def units(ring: Ring) -> tuple:
    """The 4 Gaussian or 6 Eisenstein units, in the order of `UNIT_COORDS`."""
    return tuple(element(x, y, ring) for x, y in UNIT_COORDS[ring])


def times(u, e):
    """The product of two elements of one ring (i^2 = -1, w^2 = -1 - w)."""
    if isinstance(u, GaussianInt):
        return GaussianInt(u.re * e.re - u.im * e.im, u.re * e.im + u.im * e.re)
    return EisensteinInt(u.a * e.a - u.b * e.b, u.a * e.b + u.b * e.a - u.b * e.b)


def unit_vectors(L: int, ring: Ring) -> list[tuple]:
    """The 4L or 6L length-L vectors with one unit entry and zeros elsewhere."""
    zero = element(0, 0, ring)
    return [
        tuple(u if j == pos else zero for j in range(L))
        for pos in range(L)
        for u in units(ring)
    ]
