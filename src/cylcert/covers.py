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

Irrational radii are replaced by rational upper bounds via
:func:`sqrt_upper`, keeping all downstream comparisons exact.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np


def sqrt_upper(value: Fraction | int, bits: int = 20) -> Fraction:
    """A rational upper bound on sqrt(value), within 2**-bits of it."""
    v = Fraction(value)
    if v < 0:
        raise ValueError("square root of a negative value")
    if v == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q; isqrt gives the floor, +1 an upper bound.
    scaled = v.numerator * v.denominator << (2 * bits)
    root = isqrt(scaled)
    if root * root < scaled:
        root += 1
    return Fraction(root, v.denominator << bits)


# ---------------------------------------------------------------------------
# simplex lattice
# ---------------------------------------------------------------------------

def _lattice_rows(n: int, total: int) -> np.ndarray:
    """All nonnegative integer n-vectors with coordinate sum <= total."""
    if n == 1:
        return np.arange(total + 1, dtype=np.int64).reshape(-1, 1)
    blocks = []
    for first in range(total + 1):
        rest = _lattice_rows(n - 1, total - first)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


class SimplexGrid:
    """The points (a_1/K, ..., a_n/K), a_i >= 0, sum a_i <= K."""

    __slots__ = ("n", "resolution", "lattice", "radius", "_floats")

    def __init__(self, n: int, resolution: int):
        if n < 1 or resolution < 1:
            raise ValueError("need n >= 1 and resolution >= 1")
        self.n = n
        self.resolution = resolution
        self.lattice = _lattice_rows(n, resolution)
        self.radius = sqrt_upper(n) / resolution
        self._floats: np.ndarray | None = None

    def __len__(self) -> int:
        return self.lattice.shape[0]

    def as_floats(self) -> np.ndarray:
        if self._floats is None:
            self._floats = self.lattice.astype(np.float64) / self.resolution
        return self._floats

    def point(self, index: int) -> tuple[Fraction, ...]:
        row = self.lattice[index]
        return tuple(Fraction(int(a), self.resolution) for a in row)


# ---------------------------------------------------------------------------
# sphere covers
# ---------------------------------------------------------------------------

def _half_angle_points(resolution: int) -> list[tuple[Fraction, Fraction]]:
    """(first, second) = (2t/(1+t^2), (1-t^2)/(1+t^2)) on a t-grid of [-1,1]."""
    out = []
    for j in range(resolution + 1):
        t = Fraction(2 * j, resolution) - 1
        den = 1 + t * t
        out.append((2 * t / den, (1 - t * t) / den))
    return out


def sphere_cover_radius(dim: int, resolution: int) -> Fraction:
    """Covering radius of :func:`projected_sphere_cover`."""
    if dim == 1:
        return Fraction(0)
    return Fraction(2 * (dim - 1), resolution)


class ProjectedCover:
    """A sphere cover seen through a subset of its coordinates.

    ``points`` are the distinct projections (exact rationals, inside the
    unit ball of the kept coordinates); ``representatives[i]`` is one full
    sphere point projecting to ``points[i]``.  Projection is 1-Lipschitz,
    so the parent cover's radius still certifies: every sphere point has a
    representative whose projection is within ``radius`` of its own.
    """

    __slots__ = ("dim", "kept", "resolution", "points", "representatives", "radius", "_floats")

    def __init__(
        self,
        dim: int,
        kept: tuple[int, ...],
        resolution: int,
        entries: dict[tuple[Fraction, ...], tuple[Fraction, ...]],
        radius: Fraction,
    ):
        self.dim = dim
        self.kept = kept
        self.resolution = resolution
        self.points = tuple(entries.keys())
        self.representatives = tuple(entries.values())
        self.radius = radius
        self._floats: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.points)

    def as_floats(self) -> np.ndarray:
        if self._floats is None:
            if self.kept:
                self._floats = np.array(
                    [[float(c) for c in pt] for pt in self.points], dtype=np.float64
                )
            else:
                self._floats = np.zeros((len(self.points), 0), dtype=np.float64)
        return self._floats


def _projected_entries(
    dim: int, resolution: int, kept: tuple[int, ...]
) -> dict[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Distinct projections -> one full representative, built recursively.

    Follows the recursive construction of the module docstring but
    deduplicates by projection at every level, so dropping coordinates
    collapses the point count before the product with the half-circle
    chart is formed.
    """
    if dim == 1:
        out: dict[tuple[Fraction, ...], tuple[Fraction, ...]] = {}
        for full in ((Fraction(1),), (Fraction(-1),)):
            out.setdefault(tuple(full[i] for i in kept), full)
        return out
    if dim == 2:
        out = {}
        for first, second in _half_angle_points(resolution):
            for full in ((first, second), (first, -second)):
                out.setdefault(tuple(full[i] for i in kept), full)
        return out
    inner_kept = tuple(i for i in kept if i < dim - 1)
    keep_last = (dim - 1) in kept
    inner = _projected_entries(dim - 1, resolution, inner_kept)
    out = {}
    for p, q in _half_angle_points(resolution):
        a, b = q, p
        tail = (b,) if keep_last else ()
        if a == 0:
            rep_inner = next(iter(inner.values()))
            full = tuple(Fraction(0) for _ in rep_inner) + (b,)
            out.setdefault(tuple(Fraction(0) for _ in inner_kept) + tail, full)
            continue
        for proj_w, full_w in inner.items():
            key = tuple(a * wi for wi in proj_w) + tail
            if key not in out:
                out[key] = tuple(a * wi for wi in full_w) + (b,)
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
