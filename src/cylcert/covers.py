"""Deterministic covers of the simplex and of unit spheres.

Two cover families drive the certified minimization and the Polya
screen: the scaled integer lattice on the standard simplex, and rational
point sets on unit spheres built from the tangent half-angle
parametrization of the circle.  Every sphere point is *exactly* on the
sphere (coordinates are rationals whose squares sum to 1), so evaluating
a homogeneous form at a cover point needs no radial-defect correction.
Each cover carries a proven covering radius in the Euclidean (chord)
metric:

* simplex lattice at resolution K: radius sqrt(n)/K (rounding each
  coordinate down to a multiple of 1/K stays inside the simplex and
  moves every coordinate by less than 1/K);
* circle at resolution K: two half-angle charts with t on a step-2/K
  grid of [-1, 1]; the chord between parameters t, t' is
  2|t - t'| / sqrt((1+t^2)(1+t'^2)) <= 2|t - t'|, so radius 2/K;
* sphere of dimension dim >= 3: recursive product (a*w, b) of a
  half-circle cover (a >= 0) and a cover of the equatorial sphere;
  radius 2/K + radius(dim-1), since a <= 1.

The sphere cover exists only as :func:`projected_sphere_cover`: its
points seen through a subset of the coordinates, each with one full
sphere point behind it.  Keeping every coordinate gives the whole cover.

Sphere points are built and stored over the integers.  A circle point
at t = s/K is the triple (2sK, K^2 - s^2, K^2 + s^2), two numerators over
one denominator, and every point is a tuple of numerators over one
positive common denominator.  Projections are deduplicated on the key
(numerators, denominator) divided by their gcd: its denominator is the
lcm of the coordinates' reduced denominators, so two points are equal
as rational tuples exactly when their keys are equal.  Exact
``Fraction`` coordinates are made only on request, one point at a time.
The float64 coordinates are numerator / denominator in Python ints,
which is correctly rounded at any size, as ``float(Fraction)`` is.

Irrational radii are replaced by rational upper bounds via
:func:`sqrt_upper`, keeping all downstream comparisons exact.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

import numpy as np


SQRT_BITS = 20


def sqrt_upper(value: Fraction | int) -> Fraction:
    """A rational upper bound on sqrt(value), within 2**-SQRT_BITS of it."""
    v = Fraction(value)
    if v < 0:
        raise ValueError("square root of a negative value")
    if v == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q; isqrt gives the floor, +1 an upper bound.
    scaled = v.numerator * v.denominator << (2 * SQRT_BITS)
    root = isqrt(scaled)
    if root * root < scaled:
        root += 1
    return Fraction(root, v.denominator << SQRT_BITS)


# ---------------------------------------------------------------------------
# simplex lattice
# ---------------------------------------------------------------------------

def _lattice_rows(n: int, total: int) -> np.ndarray:
    """All nonnegative integer n-vectors with coordinate sum <= total, in
    lexicographic order, written in place into one array."""
    out = np.empty((comb(total + n, n), n), dtype=np.int64)

    def fill(lo: int, col: int, left: int) -> int:
        """Write the rows of columns col.. with sum <= left from row lo; return their count."""
        if col == n - 1:
            out[lo : lo + left + 1, col] = np.arange(left + 1)
            return left + 1
        pos = lo
        for first in range(left + 1):
            count = fill(pos, col + 1, left - first)
            out[pos : pos + count, col] = first
            pos += count
        return pos - lo

    fill(0, 0, total)
    return out


class SimplexGrid:
    """The points (a_1/K, ..., a_n/K), a_i >= 0, sum a_i <= K.

    Only the integer lattice is stored; float64 coordinates are formed
    on request for the rows a caller asks for (:meth:`floats`).
    """

    __slots__ = ("n", "resolution", "lattice", "radius")

    def __init__(self, n: int, resolution: int):
        if n < 1 or resolution < 1:
            raise ValueError("need n >= 1 and resolution >= 1")
        self.n = n
        self.resolution = resolution
        self.lattice = _lattice_rows(n, resolution)
        self.radius = sqrt_upper(n) / resolution

    def __len__(self) -> int:
        return self.lattice.shape[0]

    def floats(self, index: slice | np.ndarray) -> np.ndarray:
        """Float64 coordinates of the rows ``lattice[index]``, each a_i / K
        correctly rounded."""
        return self.lattice[index] / self.resolution

    def point(self, index: int) -> tuple[Fraction, ...]:
        row = self.lattice[index]
        return tuple(Fraction(int(a), self.resolution) for a in row)


# ---------------------------------------------------------------------------
# sphere covers
# ---------------------------------------------------------------------------

def _half_angle_points(resolution: int) -> list[tuple[int, int, int]]:
    """(2t/(1+t^2), (1-t^2)/(1+t^2)) on a t-grid of [-1, 1], as integers.

    With t = s/K, s = 2j - K, the pair is (2sK, K^2 - s^2) over K^2 + s^2.
    """
    k2 = resolution * resolution
    out = []
    for j in range(resolution + 1):
        s = 2 * j - resolution
        out.append((2 * s * resolution, k2 - s * s, k2 + s * s))
    return out


def sphere_cover_radius(dim: int, resolution: int) -> Fraction:
    """Covering radius of :func:`projected_sphere_cover`."""
    if dim == 1:
        return Fraction(0)
    return Fraction(2 * (dim - 1), resolution)


# A point as integer numerators over one positive common denominator.
_IntPoint = tuple[tuple[int, ...], int]


class ProjectedCover:
    """A sphere cover seen through a subset of its coordinates.

    Entry i is a distinct projection, inside the unit ball of the kept
    coordinates, and ``representative(i)`` is one full sphere point
    projecting to it.  Projection is 1-Lipschitz, so the parent cover's
    radius still certifies: every sphere point has a representative whose
    projection is within ``radius`` of its own.  Both are held as
    ``(numerators, denominator)`` pairs of ints.
    """

    __slots__ = ("dim", "kept", "resolution", "_points", "_reps", "radius", "_floats")

    def __init__(
        self,
        dim: int,
        kept: tuple[int, ...],
        resolution: int,
        entries: dict[_IntPoint, _IntPoint],
        radius: Fraction,
    ):
        self.dim = dim
        self.kept = kept
        self.resolution = resolution
        self._points = tuple(entries.keys())
        self._reps = tuple(entries.values())
        self.radius = radius
        self._floats: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._points)

    def representative(self, index: int) -> tuple[Fraction, ...]:
        nums, den = self._reps[index]
        return tuple(Fraction(a, den) for a in nums)

    def as_floats(self) -> np.ndarray:
        if self._floats is None:
            if self.kept:
                # int / int is correctly rounded, as float(Fraction) is
                self._floats = np.array(
                    [[a / den for a in nums] for nums, den in self._points], dtype=np.float64
                )
            else:
                self._floats = np.zeros((len(self._points), 0), dtype=np.float64)
        return self._floats


def _key(nums: tuple[int, ...], den: int) -> _IntPoint:
    """The canonical form of a rational point: numerators and denominator
    divided by their gcd, so equal points have equal keys."""
    g = gcd(*nums, den)
    if g == 1:
        return nums, den
    return tuple(a // g for a in nums), den // g


def _projected_entries(
    dim: int, resolution: int, kept: tuple[int, ...]
) -> dict[_IntPoint, _IntPoint]:
    """Distinct projections -> one full representative, built recursively.

    Follows the recursive construction of the module docstring but
    deduplicates by projection at every level, so dropping coordinates
    collapses the point count before the product with the half-circle
    chart is formed.  Keys are canonical (:func:`_key`); representatives
    keep the unreduced numerators of the construction.
    """
    if dim == 1:
        out: dict[_IntPoint, _IntPoint] = {}
        for full in ((1,), (-1,)):
            out.setdefault(_key(tuple(full[i] for i in kept), 1), (full, 1))
        return out
    if dim == 2:
        out = {}
        for first, second, den in _half_angle_points(resolution):
            for full in ((first, second), (first, -second)):
                out.setdefault(_key(tuple(full[i] for i in kept), den), (full, den))
        return out
    inner_kept = tuple(i for i in kept if i < dim - 1)
    keep_last = (dim - 1) in kept
    inner = _projected_entries(dim - 1, resolution, inner_kept)
    zeros = (0,) * len(inner_kept)
    out = {}
    for p, q, den in _half_angle_points(resolution):
        # (a, b) = (q, p) / den runs over the half-circle a >= 0
        if q == 0:
            key = _key(zeros + ((p,) if keep_last else ()), den)
            out.setdefault(key, ((0,) * (dim - 1) + (p,), den))
            continue
        for (proj_w, proj_den), (full_w, full_den) in inner.items():
            tail = (p * proj_den,) if keep_last else ()
            key = _key(tuple(q * w for w in proj_w) + tail, den * proj_den)
            if key not in out:
                out[key] = (tuple(q * w for w in full_w) + (p * full_den,), den * full_den)
    return out


@lru_cache(maxsize=256)
def projected_sphere_cover(
    dim: int, resolution: int, kept: tuple[int, ...]
) -> ProjectedCover:
    """Cover of S^(dim-1) projected to the ``kept`` coordinate subset."""
    if dim < 1 or resolution < 1:
        raise ValueError("need dim >= 1 and resolution >= 1")
    if not all(0 <= i < dim for i in kept) or list(kept) != sorted(set(kept)):
        raise ValueError(f"kept must be a sorted subset of range({dim})")
    entries = _projected_entries(dim, resolution, kept)
    return ProjectedCover(dim, kept, resolution, entries, sphere_cover_radius(dim, resolution))
