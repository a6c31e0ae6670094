"""Problem model: schema, rescaling, side-condition slices, validation."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cylcert.errors import NoFeasibleSampleError, SchemaError, ValidationError
from cylcert.poly import BlockShape, BlockedPoly, substitute, weighted_norm
from cylcert.problem import (
    BOX,
    SIMPLEX,
    CylinderProblem,
    Variant,
    problem_from_obj,
    problem_to_obj,
    rescale_to_simplex,
    validate_problem,
)
from helpers import is_block_homogeneous

F = Fraction


def xpoly(shape: BlockShape, terms: dict) -> BlockedPoly:
    return BlockedPoly(shape, {k: F(v) for k, v in terms.items()})


def y2_index(shape: BlockShape, j: int) -> int:
    """Position of the j-th variable of the second unbounded block."""
    return shape.n + shape.r1 + j


def interval_problem(f_terms: dict, m: int = 2, frame: str = SIMPLEX) -> CylinderProblem:
    """n=1, r=1 problem on S = [1/4, 1/2] given by (x-1/4)(1/2-x) >= 0."""
    sh = BlockShape(1, 1)
    g = xpoly(sh, {(1, 0): F(3, 4), (2, 0): -1, (0, 0): F(-1, 8)})
    return CylinderProblem(
        shape=sh,
        variant=Variant.R1_ANY_M,
        m=m,
        f=xpoly(sh, f_terms),
        g=(g,),
        frame=frame,
    )


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

def test_variant_dimension_rules():
    sh = BlockShape(1, 2)
    f = xpoly(sh, {(0, 4, 0): 1, (0, 0, 4): 1, (0, 0, 0): 1})
    g = xpoly(sh, {(1, 0, 0): 1})
    CylinderProblem(sh, Variant.QUARTIC_R2, 4, f, (g,), SIMPLEX)
    with pytest.raises(ValidationError):
        CylinderProblem(sh, Variant.R1_ANY_M, 4, f, (g,), SIMPLEX)
    with pytest.raises(ValidationError):
        CylinderProblem(sh, Variant.QUADRATIC_RR, 4, f, (g,), SIMPLEX)


def test_declared_degree_must_match():
    with pytest.raises(ValidationError):
        interval_problem({(0, 2): 1, (0, 0): 1}, m=4)


def test_odd_degree_rejected_for_single_block():
    with pytest.raises(ValidationError):
        interval_problem({(0, 3): 1, (0, 0): 1}, m=3)


def test_constant_constraint_rejected():
    sh = BlockShape(1, 1)
    f = xpoly(sh, {(0, 2): 1, (0, 0): 1})
    with pytest.raises(ValidationError):
        CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (BlockedPoly.constant(sh, 1),), SIMPLEX)


def test_constraint_with_unbounded_vars_rejected():
    sh = BlockShape(1, 1)
    f = xpoly(sh, {(0, 2): 1, (0, 0): 1})
    g = xpoly(sh, {(1, 1): 1})
    with pytest.raises(ValidationError):
        CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (g,), SIMPLEX)


# ---------------------------------------------------------------------------
# homogenization and side-condition slices
# ---------------------------------------------------------------------------

def test_homogenized_single_block():
    p = interval_problem({(1, 2): 1, (1, 0): 1, (0, 0): 1})  # x(1+y^2) + 1
    fb, blocks = p.homogenized()
    z = fb.shape.hom_index("Z")
    y = fb.shape.y1_index(0)
    assert fb.terms == {
        (1, 2, 0): F(1),
        (1, 0, 2): F(1),
        (0, 0, 2): F(1),
    }
    assert blocks == ((tuple([y, z]), 2),)
    assert p.padding() == (("y1", "Z", 2),)
    assert is_block_homogeneous(fb, "y1", "Z")


def test_leading_form_single_block():
    p = interval_problem({(1, 2): 1, (1, 0): 1, (0, 0): 1})
    [(name, lead, blocks)] = p.condition_targets()
    assert name == "leading_form"
    assert lead.terms == {(1, 2): F(1)}
    assert blocks == (((1,), 2),)


def test_split_slices():
    # f = (1 + x)(1 + y1^2)(1 + w1^2), m=2, second block quadratic
    sh = BlockShape(1, 1, 1)
    x = BlockedPoly.variable(sh, 0)
    y = BlockedPoly.variable(sh, 1)
    w = BlockedPoly.variable(sh, 2)
    one = BlockedPoly.constant(sh, 1)
    f = (one + x) * (one + y * y) * (one + w * w)
    g = xpoly(sh, {(1, 0, 0): 1})
    p = CylinderProblem(sh, Variant.SPLIT_M_BY_2, 2, f, (g,), SIMPLEX)
    assert p.padding() == (("y1", "Z1", 2), ("y2", "Z2", 2))
    target, (b1, b2) = p.homogenized()
    assert target.shape.homs == ("Z1", "Z2")
    assert is_block_homogeneous(target, "y1", "Z1")
    assert is_block_homogeneous(target, "y2", "Z2")
    assert b1.degree == 2 and b2.degree == 2

    slices = dict((nm, (t, bl)) for nm, t, bl in p.condition_targets())
    top, top_blocks = slices["top_block_slice"]
    # coefficient of y1^2 in f is (1+x)(1+w1^2), padded to degree 2 with Z2
    tsh = top.shape
    w_i = y2_index(tsh, 0)
    z2 = tsh.hom_index("Z2")
    expect = {}
    for (xe, we), c in [((0, 0), 1), ((1, 0), 1), ((0, 2), 1), ((1, 2), 1)]:
        exp = [0] * tsh.width
        exp[0] = xe
        exp[w_i] = we
        exp[z2] = 2 - we
        expect[tuple(exp)] = F(c)
    assert top.terms == expect

    quad, quad_blocks = slices["quadratic_block_slice"]
    # z2 -> 0 keeps only the w1^2 part: (1+x)(1+y1^2)*w1^2, y1-padded
    assert quad.block_degree("y2") == 2
    assert all(exp[quad.shape.hom_index("Z2")] == 0 for exp in quad.terms)
    assert len(quad_blocks) == 2
    assert quad_blocks[1] == ((y2_index(quad.shape, 0),), 2)


# ---------------------------------------------------------------------------
# box -> simplex rescale
# ---------------------------------------------------------------------------

def test_rescale_interval_constraint():
    # n=1: g = 1 - x^2 becomes 1 - (2x-1)^2 = 4x(1-x)
    sh = BlockShape(1, 1)
    f = xpoly(sh, {(0, 2): 1, (0, 0): 1})
    g = xpoly(sh, {(0, 0): 1, (2, 0): -1})
    p = CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (g,), BOX)
    moved, record = rescale_to_simplex(p)
    assert moved.frame == SIMPLEX
    assert moved.g[0].terms == {(1, 0): F(4), (2, 0): F(-4)}
    assert record.scale == F(1, 2) and record.offset == F(1, 2)


def test_rescale_leaves_x_free_f_alone():
    sh = BlockShape(1, 1)
    f = xpoly(sh, {(0, 2): 1, (0, 0): 5})
    g = xpoly(sh, {(0, 0): 1, (2, 0): -1})
    p = CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (g,), BOX)
    moved, _ = rescale_to_simplex(p)
    assert moved.f == f


def test_rescale_round_trips_constraints():
    rng = random.Random(17)
    sh = BlockShape(2, 1)
    for _ in range(10):
        g_terms = {}
        for _ in range(rng.randint(1, 5)):
            exp = (rng.randint(0, 2), rng.randint(0, 2), 0)
            g_terms[exp] = F(rng.randint(-5, 5), rng.randint(1, 4))
        g_terms[(1, 0, 0)] = F(1)  # keep it nonconstant
        g = BlockedPoly(sh, g_terms)
        f = xpoly(sh, {(0, 0, 2): 1, (0, 0, 0): 1})
        p = CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (g,), BOX)
        moved, record = rescale_to_simplex(p)
        back = substitute(moved.g[0], record.forward_subst(sh))
        assert back == g


def test_rescale_norm_growth_bound():
    # weighted norm of the moved f is at most (3n)^d times the original
    rng = random.Random(23)
    sh = BlockShape(2, 1)
    for _ in range(20):
        terms = {(0, 0, 2): F(1)}
        for _ in range(rng.randint(1, 6)):
            exp = (rng.randint(0, 2), rng.randint(0, 2), 2 * rng.randint(0, 1))
            terms[exp] = F(rng.randint(-9, 9), rng.randint(1, 5))
        f = BlockedPoly(sh, terms)
        if f.block_degree("y1") != 2:
            continue
        g = xpoly(sh, {(1, 0, 0): 1})
        p = CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (g,), BOX)
        moved, _ = rescale_to_simplex(p)
        d = p.d
        assert weighted_norm(moved.f) <= weighted_norm(f) * F(6) ** d


def test_rescale_requires_box_frame():
    p = interval_problem({(0, 2): 1, (0, 0): 1})
    with pytest.raises(ValidationError):
        rescale_to_simplex(p)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_finds_interval_point():
    p = interval_problem({(0, 2): 1, (0, 0): 1})
    report = validate_problem(p)
    assert report.ok
    x = report.feasible.x[0]
    assert F(1, 4) <= x <= F(1, 2)


def test_validate_empty_feasible_set():
    sh = BlockShape(1, 1)
    f = xpoly(sh, {(0, 2): 1, (0, 0): 1})
    g = xpoly(sh, {(0, 0): -1, (2, 0): -1})  # -1 - x^2 < 0 everywhere
    p = CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (g,), SIMPLEX)
    with pytest.raises(NoFeasibleSampleError):
        validate_problem(p)


def test_validate_reports_containment_violation():
    sh = BlockShape(1, 1)
    f = xpoly(sh, {(0, 2): 1, (0, 0): 1})
    g = xpoly(sh, {(1, 0): 1, (0, 0): -2})  # x >= 2, outside (-1,1)
    p = CylinderProblem(sh, Variant.R1_ANY_M, 2, f, (g,), BOX)
    report = validate_problem(p)
    assert not report.ok
    assert report.containment_violations
    assert report.containment_violations[0].x[0] >= 2


def test_validate_deterministic_given_seed():
    # the random samples come from one fixed seed, so the report depends
    # on the problem alone
    p = interval_problem({(0, 2): 1, (0, 0): 1})
    assert validate_problem(p).to_obj() == validate_problem(p).to_obj()


# ---------------------------------------------------------------------------
# schema I/O
# ---------------------------------------------------------------------------

def test_problem_json_round_trip():
    p = interval_problem({(1, 2): 1, (1, 0): 1, (0, 0): 1})
    obj = problem_to_obj(p)
    q = problem_from_obj(obj)
    assert q == p
    assert q.problem_hash() == p.problem_hash()


def test_problem_from_obj_rejects_bad_variant():
    p = interval_problem({(0, 2): 1, (0, 0): 1})
    obj = problem_to_obj(p)
    obj["variant"] = "cubic_r7"
    with pytest.raises(SchemaError):
        problem_from_obj(obj)


def test_problem_from_obj_rejects_wrong_r():
    p = interval_problem({(0, 2): 1, (0, 0): 1})
    obj = problem_to_obj(p)
    obj["r"] = 2
    with pytest.raises(SchemaError):
        problem_from_obj(obj)


def test_problem_from_obj_missing_field():
    p = interval_problem({(0, 2): 1, (0, 0): 1})
    obj = problem_to_obj(p)
    del obj["f"]
    with pytest.raises(SchemaError):
        problem_from_obj(obj)


def test_derived_quantities():
    p = interval_problem({(1, 2): 1, (1, 0): 1, (0, 0): 1})
    assert (p.n, p.r, p.s, p.d, p.m) == (1, 1, 1, 1, 2)
    assert weighted_norm(p.f) == 1
