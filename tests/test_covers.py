"""Grid and sphere-cover geometry: exactness and covering radii."""
import itertools
import math
import random
from fractions import Fraction
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylcert import covers
from cylcert.covers import (
    COVER_POINT_CAP,
    SQRT_BITS,
    SimplexGrid,
    _cover_cost,
    projected_sphere_cover,
    sphere_cover_radius,
    sqrt_upper,
)
from cylcert.errors import BudgetExhaustedError


# The Fraction construction the integer covers replace, kept verbatim as
# the reference they must reproduce.

def _half_angle_points(resolution: int) -> list[tuple[Fraction, Fraction]]:
    """(first, second) = (2t/(1+t^2), (1-t^2)/(1+t^2)) on a t-grid of [-1,1]."""
    out = []
    for j in range(resolution + 1):
        t = Fraction(2 * j, resolution) - 1
        den = 1 + t * t
        out.append((2 * t / den, (1 - t * t) / den))
    return out


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


def sphere_points(dim, resolution):
    """Reference cover of S^(dim-1): the recursion of the covers module,
    built without projection, as its distinct points in order."""
    if dim == 1:
        return ((F(1),), (F(-1),))
    if dim == 2:
        seen = {}
        for first, second in _half_angle_points(resolution):
            seen.setdefault((first, second), None)
            seen.setdefault((first, -second), None)
        return tuple(seen)
    inner = sphere_points(dim - 1, resolution)
    points = {}
    for p, q in _half_angle_points(resolution):
        a, b = q, p  # (a, b) runs over the half-circle a >= 0
        if a == 0:
            points.setdefault((F(0),) * (dim - 1) + (b,), None)
            continue
        for w in inner:
            points.setdefault(tuple(a * wi for wi in w) + (b,), None)
    return tuple(points)


def full_cover(dim, resolution):
    return projected_sphere_cover(dim, resolution, tuple(range(dim)))


def points(cover):
    """Each distinct projection: its representative at the kept coordinates."""
    return tuple(tuple(rep[k] for k in cover.kept) for rep in representatives(cover))


def representatives(cover):
    return tuple(cover.representative(i) for i in range(len(cover)))


def _assert_matches_reference(dim, resolution, kept):
    ref = _projected_entries(dim, resolution, kept)
    cover = projected_sphere_cover(dim, resolution, kept)
    assert points(cover) == tuple(ref)
    assert representatives(cover) == tuple(ref.values())
    floats = np.array([[float(c) for c in pt] for pt in ref], dtype=np.float64)
    assert cover.as_floats().tobytes() == floats.reshape(len(ref), len(kept)).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_integer_covers_match_the_fraction_construction(dim):
    """Same points, representatives and order, and the same float bits,
    for every sorted kept subset at resolutions 1-12 and 64."""
    for resolution in [*range(1, 13), 64]:
        for size in range(dim + 1):
            for kept in itertools.combinations(range(dim), size):
                # keeping coordinate 0 or 1 of the 3-sphere at 64 costs
                # ~550,000 Fraction products in the reference; those
                # subsets are checked at resolutions 1-12 only
                if dim == 4 and resolution == 64 and kept[:1] in ((0,), (1,)):
                    continue
                _assert_matches_reference(dim, resolution, kept)


def test_sqrt_upper_is_an_upper_bound_and_tight():
    rng = random.Random(7)
    for _ in range(200):
        v = F(rng.randrange(0, 10**6), rng.randrange(1, 10**3))
        s = sqrt_upper(v)
        assert s * s >= v
        # within 2^-20 of the true root
        lo = s - F(1, 2**20)
        assert lo < 0 or lo * lo < v


def test_sqrt_upper_exact_on_perfect_squares():
    assert sqrt_upper(0) == 0
    assert sqrt_upper(1) == 1
    assert sqrt_upper(4) == 2
    assert sqrt_upper(F(9, 4)) == F(3, 2)


def _isqrt_upper(v):
    """The ``math.isqrt`` ceiling ``sqrt_upper`` used before it shared the
    checker's integer root, kept as the reference."""
    scaled = v.numerator * v.denominator << (2 * SQRT_BITS)
    root = math.isqrt(scaled)
    if root * root < scaled:
        root += 1
    return F(root, v.denominator << SQRT_BITS)


@settings(max_examples=500, deadline=None)
@given(st.fractions(min_value=0, max_denominator=10**40).filter(lambda v: v <= 10**40))
@example(F(0))
@example(F(1, 3))
@example(F(10**40 - 1, 10**40))
@example(F((2**80 + 1) ** 2))
def test_sqrt_upper_is_the_isqrt_ceiling(v):
    assert sqrt_upper(v) == _isqrt_upper(v)


@pytest.mark.parametrize(
    "n,resolution,count",
    [(1, 4, 5), (2, 4, 15), (3, 3, 20), (2, 1, 3)],
)
def test_simplex_grid_counts(n, resolution, count):
    grid = SimplexGrid(n, resolution)
    assert len(grid) == count == math.comb(resolution + n, n)


@pytest.mark.parametrize("n,resolution", [(1, 4), (2, 5), (3, 4), (4, 3)])
def test_simplex_grid_rows_are_in_lexicographic_order(n, resolution):
    # the rows the scan indexes by: every vector with sum <= K, first
    # coordinate outermost, as the stacked construction gave them
    expected = [
        list(e) for e in itertools.product(range(resolution + 1), repeat=n) if sum(e) <= resolution
    ]
    grid = SimplexGrid(n, resolution)
    assert grid.lattice.dtype == np.int32
    assert grid.lattice.tolist() == expected


def test_simplex_grid_points_are_exact_and_in_the_simplex():
    grid = SimplexGrid(3, 5)
    seen = set()
    for i in range(len(grid)):
        pt = grid.point(i)
        assert all(v >= 0 for v in pt)
        assert sum(pt) <= 1
        assert all(v.denominator in (1, 5) or 5 % v.denominator == 0 for v in pt)
        seen.add(pt)
    assert len(seen) == len(grid)


def test_simplex_grid_covering_radius_empirically():
    grid = SimplexGrid(2, 8)
    pts = [grid.point(i) for i in range(len(grid))]
    rho = float(grid.radius)
    rng = random.Random(3)
    for _ in range(200):
        # random point of the simplex via sorted uniforms
        a, b = sorted((rng.random(), rng.random()))
        x = (a, b - a)
        mind = min(
            math.dist(x, (float(p[0]), float(p[1]))) for p in pts
        )
        assert mind <= rho + 1e-12


def test_simplex_grid_floats_match_exact_points():
    grid = SimplexGrid(2, 6)
    xf = grid.floats(slice(None))
    for i in range(len(grid)):
        exact = grid.point(i)
        assert tuple(xf[i]) == tuple(float(v) for v in exact)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sphere_cover_points_lie_exactly_on_the_sphere(dim):
    cover = full_cover(dim, 6)
    assert len(cover) > 0
    for p, rep in zip(points(cover), representatives(cover)):
        assert p == rep
        assert sum(v * v for v in p) == 1  # exact rational identity
    assert len(set(points(cover))) == len(cover)


def test_circle_cover_contains_the_axis_points():
    pts = set(points(full_cover(2, 4)))
    for axis in [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))]:
        assert axis in pts
    # the half-angle parametrization at t=1/2 gives (4/5, 3/5)
    assert (F(4, 5), F(3, 5)) in pts


def test_dim1_cover_is_the_two_signs():
    cover = full_cover(1, 9)
    assert set(points(cover)) == {(F(1),), (F(-1),)}
    assert cover.radius == 0


@pytest.mark.parametrize("dim,resolution", [(2, 8), (2, 16), (3, 8), (3, 16), (4, 6)])
def test_sphere_cover_radius_empirically(dim, resolution):
    cover = full_cover(dim, resolution)
    assert cover.radius == sphere_cover_radius(dim, resolution)
    pts = [tuple(float(v) for v in p) for p in points(cover)]
    rho = float(cover.radius)
    rng = random.Random(dim * 100 + resolution)
    for _ in range(250):
        u = [rng.gauss(0, 1) for _ in range(dim)]
        norm = math.sqrt(sum(v * v for v in u)) or 1.0
        u = tuple(v / norm for v in u)
        mind = min(math.dist(u, p) for p in pts)
        assert mind <= rho + 1e-9


def test_projected_cover_onto_all_coordinates_is_the_full_cover():
    for dim, resolution in [(1, 3), (2, 8), (3, 6), (4, 4)]:
        proj = projected_sphere_cover(dim, resolution, tuple(range(dim)))
        assert points(proj) == sphere_points(dim, resolution)
        assert representatives(proj) == points(proj)


def test_projected_cover_collapses_dropped_levels():
    # projecting the 2-sphere cover onto its last coordinate keeps one
    # entry per outer circle point instead of the full quadratic count
    proj = projected_sphere_cover(3, 8, (2,))
    assert len(proj) < len(sphere_points(3, 8))
    assert len(proj) <= 2 * (8 + 1)
    for p, rep in zip(points(proj), representatives(proj)):
        assert sum(v * v for v in rep) == 1
        assert (rep[2],) == p


def test_projected_cover_onto_nothing_is_a_single_representative():
    proj = projected_sphere_cover(3, 12, ())
    assert len(proj) == 1
    assert points(proj) == ((),)
    rep = proj.representative(0)
    assert sum(v * v for v in rep) == 1


def test_projection_preserves_every_projected_value():
    """Each distinct projection of the full cover appears in the projected one."""
    proj = projected_sphere_cover(3, 6, (0,))
    assert set(points(proj)) == {(p[0],) for p in sphere_points(3, 6)}


def test_covers_are_deterministic():
    projected_sphere_cover.cache_clear()
    a = full_cover(3, 10)
    projected_sphere_cover.cache_clear()
    assert points(full_cover(3, 10)) == points(a)
    g1 = SimplexGrid(2, 7)
    g2 = SimplexGrid(2, 7)
    assert [g1.point(i) for i in range(len(g1))] == [g2.point(i) for i in range(len(g2))]


def test_projected_cover_rejects_bad_kept_sets():
    with pytest.raises(ValueError):
        projected_sphere_cover(3, 8, (1, 0))
    with pytest.raises(ValueError):
        projected_sphere_cover(3, 8, (0, 3))


@pytest.mark.parametrize("dim, resolution, estimated", [
    (3, 1024, 2_101_250),   # a floor scan's circle-times-circle cover, all slots kept
    (6, 24, 19_531_250),    # a six-slot sphere at a coarse resolution, still over the cap
])
def test_projected_cover_refuses_before_building(monkeypatch, dim, resolution, estimated):
    def refuse(*args):
        pytest.fail("the cover was built")

    monkeypatch.setattr(covers, "_projected_entries", refuse)
    with pytest.raises(BudgetExhaustedError) as info:
        projected_sphere_cover(dim, resolution, tuple(range(dim)))
    assert info.value.payload == {
        "dim": dim, "resolution": resolution, "estimated_points": estimated,
        "budget": COVER_POINT_CAP,
    }


def test_cover_cost_bounds_every_cover_size():
    # the estimate is the only bound checked before a cover is built
    for dim in range(1, 6):
        for kept in itertools.chain.from_iterable(
            itertools.combinations(range(dim), size) for size in range(dim + 1)
        ):
            for resolution in (1, 2, 5, 8) if dim < 5 else (1, 4):
                cover = projected_sphere_cover(dim, resolution, kept)
                assert len(cover) <= _cover_cost(dim, resolution, kept)
