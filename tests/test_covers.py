"""Grid and sphere-cover geometry: exactness and covering radii."""
import math
import random
from fractions import Fraction as F

import pytest

from cylcert.covers import (
    SimplexGrid,
    projected_sphere_cover,
    sphere_cover_radius,
    sqrt_upper,
)


def _half_angle(resolution):
    out = []
    for j in range(resolution + 1):
        t = F(2 * j, resolution) - 1
        out.append((2 * t / (1 + t * t), (1 - t * t) / (1 + t * t)))
    return out


def sphere_points(dim, resolution):
    """Reference cover of S^(dim-1): the recursion of the covers module,
    built without projection, as its distinct points in order."""
    if dim == 1:
        return ((F(1),), (F(-1),))
    if dim == 2:
        seen = {}
        for first, second in _half_angle(resolution):
            seen.setdefault((first, second), None)
            seen.setdefault((first, -second), None)
        return tuple(seen)
    inner = sphere_points(dim - 1, resolution)
    points = {}
    for p, q in _half_angle(resolution):
        a, b = q, p  # (a, b) runs over the half-circle a >= 0
        if a == 0:
            points.setdefault((F(0),) * (dim - 1) + (b,), None)
            continue
        for w in inner:
            points.setdefault(tuple(a * wi for wi in w) + (b,), None)
    return tuple(points)


def full_cover(dim, resolution):
    return projected_sphere_cover(dim, resolution, tuple(range(dim)))


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


@pytest.mark.parametrize(
    "n,resolution,count",
    [(1, 4, 5), (2, 4, 15), (3, 3, 20), (2, 1, 3)],
)
def test_simplex_grid_counts(n, resolution, count):
    grid = SimplexGrid(n, resolution)
    assert len(grid) == count == math.comb(resolution + n, n)


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
    xf = grid.as_floats()
    for i in range(len(grid)):
        exact = grid.point(i)
        assert tuple(xf[i]) == tuple(float(v) for v in exact)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sphere_cover_points_lie_exactly_on_the_sphere(dim):
    cover = full_cover(dim, 6)
    assert len(cover) > 0
    for p, rep in zip(cover.points, cover.representatives):
        assert p == rep
        assert sum(v * v for v in p) == 1  # exact rational identity
    assert len(set(cover.points)) == len(cover)


def test_circle_cover_contains_the_axis_points():
    pts = set(full_cover(2, 4).points)
    for axis in [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))]:
        assert axis in pts
    # the half-angle parametrization at t=1/2 gives (4/5, 3/5)
    assert (F(4, 5), F(3, 5)) in pts


def test_dim1_cover_is_the_two_signs():
    cover = full_cover(1, 9)
    assert set(cover.points) == {(F(1),), (F(-1),)}
    assert cover.radius == 0


@pytest.mark.parametrize("dim,resolution", [(2, 8), (2, 16), (3, 8), (3, 16), (4, 6)])
def test_sphere_cover_radius_empirically(dim, resolution):
    cover = full_cover(dim, resolution)
    assert cover.radius == sphere_cover_radius(dim, resolution)
    pts = [tuple(float(v) for v in p) for p in cover.points]
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
        assert proj.points == sphere_points(dim, resolution)
        assert proj.representatives == proj.points


def test_projected_cover_collapses_dropped_levels():
    # projecting the 2-sphere cover onto its last coordinate keeps one
    # entry per outer circle point instead of the full quadratic count
    proj = projected_sphere_cover(3, 8, (2,))
    assert len(proj) < len(sphere_points(3, 8))
    assert len(proj) <= 2 * (8 + 1)
    for p, rep in zip(proj.points, proj.representatives):
        assert sum(v * v for v in rep) == 1
        assert (rep[2],) == p


def test_projected_cover_onto_nothing_is_a_single_representative():
    proj = projected_sphere_cover(3, 12, ())
    assert len(proj) == 1
    assert proj.points == ((),)
    rep = proj.representatives[0]
    assert sum(v * v for v in rep) == 1


def test_projection_preserves_every_projected_value():
    """Each distinct projection of the full cover appears in the projected one."""
    proj = projected_sphere_cover(3, 6, (0,))
    assert set(proj.points) == {(p[0],) for p in sphere_points(3, 6)}


def test_covers_are_deterministic():
    projected_sphere_cover.cache_clear()
    a = full_cover(3, 10)
    projected_sphere_cover.cache_clear()
    assert full_cover(3, 10).points == a.points
    g1 = SimplexGrid(2, 7)
    g2 = SimplexGrid(2, 7)
    assert [g1.point(i) for i in range(len(g1))] == [g2.point(i) for i in range(len(g2))]


def test_projected_cover_rejects_bad_kept_sets():
    with pytest.raises(ValueError):
        projected_sphere_cover(3, 8, (1, 0))
    with pytest.raises(ValueError):
        projected_sphere_cover(3, 8, (0, 3))
