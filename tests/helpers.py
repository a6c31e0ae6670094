"""Helpers shared by the test modules."""
import importlib.util
import types
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

from cylcert.certified import (
    _Scan,
    certified_cylinder_min,
    certified_excess_check,
    check_leading_form_condition,
)
from cylcert.covers import projected_sphere_cover
from cylcert.perturb import constraint_scale, perturbed_target
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.problem import SIMPLEX, CylinderProblem, Variant

ROOT = Path(__file__).resolve().parent.parent


def is_block_homogeneous(p, block: str, *extra: str) -> bool:
    """True when every term of ``p`` has the same combined degree over the named blocks."""
    idx = p.shape.block_indices(block)
    for name in extra:
        idx = idx + p.shape.block_indices(name)
    return len({sum(e[i] for i in idx) for e in p.terms}) <= 1


def random_problem(rng, variant: Variant) -> CylinderProblem:
    """A simplex-frame problem of ``variant`` with random f and one or two g_i.

    n is 1 to 3; f has x-degree up to 3 and every block degree the
    variant declares; each g_i has x-degree 1 to 3.  Coefficients are
    small rationals of either sign.
    """
    n = rng.randrange(1, 4)
    if variant is Variant.R1_ANY_M:
        shape, m = BlockShape(n, 1), rng.choice((2, 4))
    elif variant is Variant.QUARTIC_R2:
        shape, m = BlockShape(n, 2), 4
    elif variant is Variant.QUADRATIC_RR:
        shape, m = BlockShape(n, rng.randrange(1, 4)), 2
    else:
        shape, m = BlockShape(n, 1, rng.randrange(1, 3)), 2
    blocks = [(shape.block_indices("y1"), m)]
    if variant.is_split:
        blocks.append((shape.block_indices("y2"), 2))

    def coeff():
        return F(rng.randrange(-9, 10) or 1, rng.randrange(1, 6))

    def exponent(top):
        """x-degree up to 3; each block at its declared degree when ``top``."""
        e = [0] * shape.width
        for _ in range(rng.randrange(4)):
            e[rng.randrange(n)] += 1
        for slots, degree in blocks:
            for _ in range(degree if top else rng.randrange(degree + 1)):
                e[rng.choice(slots)] += 1
        return tuple(e)

    f_terms = {exponent(top=True): coeff()}
    for _ in range(rng.randrange(1, 6)):
        f_terms[exponent(top=False)] = coeff()
    g = []
    for _ in range(rng.randrange(1, 3)):
        # x-only terms, with one of positive degree so g is not constant
        terms = {(rng.randrange(1, 4),) + (0,) * (shape.width - 1): coeff()}
        for _ in range(rng.randrange(1, 5)):
            terms[exponent(top=False)[:n] + (0,) * (shape.width - n)] = coeff()
        g.append(BlockedPoly(shape, terms))
    return CylinderProblem(
        shape=shape, variant=variant, m=m, f=BlockedPoly(shape, f_terms),
        g=tuple(g), frame=SIMPLEX,
    )


def pipeline_scans(problem: CylinderProblem) -> list:
    """Every ``_Scan`` certifying ``problem`` builds, constructed but not run.

    Calls the three entry points the pipeline calls, with ``_Scan.run``
    returning the scan itself: the side-condition slices, the floor scan,
    and the excess check of the perturbed target at lam = 1, k = 1.
    """
    built = []
    with mock.patch.object(_Scan, "run", lambda scan: built.append(scan) or scan):
        check_leading_form_condition(problem)
        certified_cylinder_min(problem)
        _, blocks = problem.homogenized()
        certified_excess_check(perturbed_target(problem, F(1), 1), F(0), blocks)
    return built


def simplex_point(rng, n: int) -> tuple[F, ...]:
    """A rational point of the standard n-simplex: a vertex, or a random
    point with a small denominator."""
    if rng.random() < 0.2:
        vertex = rng.randrange(n + 1)
        return tuple(F(int(i == vertex)) for i in range(n))
    weights = [rng.randrange(0, 9) for _ in range(n + 1)]
    total = sum(weights) or 1
    return tuple(F(w, total) for w in weights[:n])


def nearby_simplex_point(rng, x: tuple[F, ...]) -> tuple[F, ...]:
    """A point of the simplex within 1/256 of ``x``, moved along one edge."""
    n = len(x)
    coords = [1 - sum(x), *x]  # barycentric, the slack coordinate first
    src = rng.choice([i for i, v in enumerate(coords) if v > 0])
    dst = rng.choice([i for i in range(n + 1) if i != src])
    step = min(coords[src], F(1, 256))
    coords[src] -= step
    coords[dst] += step
    return tuple(coords[1:])


def sq_dist(a, b) -> F:
    return sum(((u - v) ** 2 for u, v in zip(a, b)), start=F(0))


def sphere_points(dim: int, resolution: int = 8) -> list[tuple[F, ...]]:
    """Every point of the full sphere cover of S^(dim-1) at ``resolution``."""
    cover = projected_sphere_cover(dim, resolution, tuple(range(dim)))
    return [cover.representative(i) for i in range(len(cover))]


def check_x_constants(scan, rng, pairs: int) -> None:
    """Assert ``used_x`` and ``g_lip`` over ``pairs`` random simplex pairs.

    Half of the pairs lie within 1/256 of each other.  ``used_x`` bounds
    the target's change between the two points at a random sphere point;
    ``g_lip[j]`` bounds the change of constraint j.  Exact rationals, with
    squares compared so no square root is taken.
    """
    covers = [sphere_points(len(b.indices)) for b in scan.blocks]
    for _ in range(pairs):
        a = simplex_point(rng, scan.n)
        b = simplex_point(rng, scan.n) if rng.random() < 0.5 else nearby_simplex_point(rng, a)
        u = tuple(rng.choice(pts) for pts in covers)
        diff = scan._sample(a, u).value - scan._sample(b, u).value
        assert diff * diff <= scan.used_x ** 2 * sq_dist(a, b), (a, b, u)
        for g, lip in zip(scan.constraints, scan.g_lip):
            pad = (F(0),) * (g.shape.width - scan.n)
            diff = g.eval_at(a + pad) - g.eval_at(b + pad)
            assert diff * diff <= lip * lip * sq_dist(a, b), (a, b)


def check_sphere_constants(scan, rng, pairs: int) -> None:
    """Assert each ``used_sphere[i]`` over ``pairs`` random pairs on sphere i.

    The other factors sit at a random simplex point and random sphere
    points.  The second point of a pair is a random cover point or the
    nearest one to the first, and distance is measured in the block
    coordinates the scan keeps, the metric of its projected covers.
    """
    covers = [sphere_points(len(b.indices)) for b in scan.blocks]
    for _ in range(pairs):
        x = simplex_point(rng, scan.n)
        u = tuple(rng.choice(pts) for pts in covers)
        for i, (block, kept) in enumerate(zip(scan.blocks, scan.kept)):
            others = [q for q in covers[i] if q != u[i]] or [u[i]]
            if rng.random() < 0.5:
                w = rng.choice(others)
            else:
                w = min(others, key=lambda q: sq_dist(q, u[i]))
            v = u[:i] + (w,) + u[i + 1:]
            diff = scan._sample(x, u).value - scan._sample(x, v).value
            local = [block.indices.index(slot) for slot in kept]
            dist = sq_dist([u[i][j] for j in local], [w[j] for j in local])
            assert diff * diff <= scan.used_sphere[i] ** 2 * dist, (i, u[i], w)


def check_constraint_scales(problem: CylinderProblem, rng, samples: int) -> None:
    """Assert |g_i / constraint_scale(g_i)| <= 1 at random simplex points."""
    pad = (F(0),) * (problem.shape.width - problem.n)
    for g in problem.g:
        scale = constraint_scale(g)
        for _ in range(samples):
            assert abs(g.eval_at(simplex_point(rng, problem.n) + pad)) <= scale


def family_module() -> types.ModuleType:
    """``perfbench/family.py``, executed from its source text so that
    nothing is written beside it."""
    path = ROOT / "perfbench" / "family.py"
    family = types.ModuleType("perfbench_family")
    family.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), family.__dict__)
    return family


def largest_family_member() -> dict:
    """The problem object of the bench family's n = 2 Polya member polya2-K56."""
    return family_module().largest_member()


def tool_module(name: str) -> types.ModuleType:
    """``tools/<name>.py``, imported from its file."""
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot_tool() -> types.ModuleType:
    """``tools/snapshot.py``, imported from its file."""
    return tool_module("snapshot")
