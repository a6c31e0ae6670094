"""Certified minimization: Lipschitz constants, bounds, witnesses."""
import itertools
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcert import certified
from cylcert.certified import (
    _ceil_float,
    _Scan,
    _row_bounds,
    _value_rows,
    certified_cylinder_min,
    certified_excess_check,
    check_leading_form_condition,
)
from cylcert.covers import SimplexGrid, projected_sphere_cover
from cylcert.errors import (
    BelowThresholdError,
    BudgetExhaustedError,
    IndefiniteConditionError,
    NonpositiveWitnessError,
    ResolutionExhaustedError,
    ValidationError,
)
from cylcert.poly import BlockShape, BlockedPoly, coeff_abs_sum
from cylcert.perturb import constraint_scale
from cylcert.pipeline import certify_problem, solving_frame
from cylcert.problem import (
    SIMPLEX,
    CylinderProblem,
    SphereBlock,
    Variant,
    problem_from_obj,
)
from helpers import (
    check_constraint_scales,
    check_sphere_constants,
    check_x_constants,
    largest_family_member,
    pipeline_scans,
    random_problem,
)


# --- shared fixtures -------------------------------------------------------

def interval_g(shape):
    """(x1 - 1/4)(1/2 - x1) as a polynomial over the given shape."""
    w = shape.width

    def key(e0):
        return (e0,) + (0,) * (w - 1)

    return BlockedPoly(shape, {key(1): F(3, 4), key(2): F(-1), key(0): F(-1, 8)})


def interval_problem(f_terms, *, m=2, variant=Variant.R1_ANY_M, r1=1, r2=0):
    shape = BlockShape(1, r1, r2)
    f = BlockedPoly(shape, {k: F(v) for k, v in f_terms.items()})
    return CylinderProblem(
        shape=shape, variant=variant, m=m, f=f, g=(interval_g(shape),), frame=SIMPLEX
    )


FALLBACK = (F(3, 8),)


# --- the Lipschitz constants the scans use ----------------------------------

def test_sup_bound_dominates_samples():
    """|g / constraint_scale(g)| <= 1 on the simplex, for random g of every variant.

    Includes g = 1/4 - (x1 + x2)^2, whose x-coefficients are exactly their
    multinomial weights, so each degree part meets the weighted norm.
    """
    rng = random.Random(23)
    for variant in Variant:
        for _ in range(25):
            check_constraint_scales(random_problem(rng, variant), rng, samples=40)
    shape = BlockShape(2, 1)
    g = BlockedPoly(shape, {(0, 0, 0): F(1, 4), (2, 0, 0): F(-1), (1, 1, 0): F(-2),
                            (0, 2, 0): F(-1)})
    assert constraint_scale(g) == 3
    problem = CylinderProblem(shape, Variant.R1_ANY_M, 2,
                              BlockedPoly(shape, {(0, 0, 2): F(1)}), (g,), SIMPLEX)
    check_constraint_scales(problem, rng, samples=200)


def test_x_lipschitz_dominates_sample_pairs():
    """used_x and the constraint screen's g_lip bound every scan of every sample."""
    rng = random.Random(5)
    for path in sorted(SAMPLES.glob("*.json")):
        solving = solving_frame(problem_from_obj(json.loads(path.read_text())))[0]
        for scan in pipeline_scans(solving):
            check_x_constants(scan, rng, pairs=40)


def test_sphere_lipschitz_dominates_chordal_pairs():
    """used_sphere bounds the target along each sphere, in the kept coordinates."""
    rng = random.Random(17)
    for variant in (Variant.QUARTIC_R2, Variant.QUADRATIC_RR, Variant.SPLIT_M_BY_2):
        for _ in range(6):
            for scan in pipeline_scans(random_problem(rng, variant)):
                check_sphere_constants(scan, rng, pairs=10)


def test_lipschitz_x_vanishes_for_constant_x_part():
    # 5 y^2 + 2 is constant in x, so the floor scan's simplex error term is
    # exactly zero and the scan never refines the simplex
    prob = interval_problem({(0, 2): 5, (0, 0): 2})
    [_cond, floor, _excess] = pipeline_scans(prob)
    assert floor.used_x == 0 and floor.used_sphere[0] >= 6
    res = certified_cylinder_min(prob, fallback_x=FALLBACK)
    assert res.used_x_constant == 0 and res.resolutions[0] == 1


def test_split_lipschitz_uses_both_sphere_factors():
    # c6 splits its unbounded variables into two sphere blocks; the floor
    # has one nonzero constant for each
    prob = solving_frame(_problem("c6"))[0]
    [_top, _quad, floor, _excess] = pipeline_scans(prob)
    assert len(floor.blocks) == len(floor.used_sphere) == 2
    assert all(c > 0 for c in floor.used_sphere)


# --- certified cylinder minimum -------------------------------------------

def test_cylinder_min_interval_times_parabola():
    """min of x(1+y^2) over S=[1/4,1/2] x R is 1/4, attained at (1/4, 0)."""
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    res = certified_cylinder_min(prob, rel_slack=F(1, 1000), fallback_x=FALLBACK)
    assert F(1, 4) - F(1, 1000) <= res.lower_bound <= F(1, 4)
    assert res.best_sample.value == F(1, 4)
    assert res.lower_bound <= res.best_sample.value
    assert res.domain == "S_TIMES_SPHERE"
    # the reported sample really lies in S
    gval = interval_g(prob.shape).eval_at(tuple(res.best_sample.x) + (F(0),))
    assert gval >= 0


def test_cylinder_min_constant_on_the_sphere_is_exact():
    # 1 + y^2 homogenizes to y^2 + z^2 == 1 on the circle: bound is exact
    prob = interval_problem({(0, 0): 1, (0, 2): 1})
    res = certified_cylinder_min(prob, fallback_x=FALLBACK)
    assert res.lower_bound == 1
    assert res.grid_depth == 0
    assert res.best_sample.value == 1


def test_cylinder_min_flags_nonpositive_point():
    """(x - 3/8)(1 + y^2) vanishes inside S: expect an exact witness."""
    prob = interval_problem({(1, 0): 1, (1, 2): 1, (0, 0): -F(3, 8), (0, 2): -F(3, 8)})
    with pytest.raises(NonpositiveWitnessError) as info:
        certified_cylinder_min(prob, fallback_x=(F(5, 16),))
    w = info.value.payload["witness"]
    x = tuple(F(v) for v in w["x"])
    assert F(1, 4) <= x[0] <= F(1, 2)
    assert F(w["value"]) <= 0
    # witness satisfies the constraint exactly
    assert interval_g(prob.shape).eval_at(x + (F(0),)) >= 0


def test_cylinder_min_requires_simplex_frame():
    shape = BlockShape(1, 1)
    f = BlockedPoly(shape, {(0, 0): F(1), (0, 2): F(1)})
    prob = CylinderProblem(
        shape=shape, variant=Variant.R1_ANY_M, m=2, f=f, g=(interval_g(shape),)
    )
    with pytest.raises(ValidationError):
        certified_cylinder_min(prob)


def test_cylinder_min_respects_the_pair_budget(monkeypatch):
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    monkeypatch.setattr(certified, "PAIR_BUDGET", 4)
    with pytest.raises(BudgetExhaustedError):
        certified_cylinder_min(prob, fallback_x=FALLBACK)


def test_cylinder_min_respects_the_memory_budget(monkeypatch):
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    monkeypatch.setattr(certified, "MEMORY_BUDGET", 1000)
    with pytest.raises(BudgetExhaustedError) as info:
        certified_cylinder_min(prob, fallback_x=FALLBACK)
    assert info.value.payload["budget"] == 1000
    assert info.value.payload["estimated_bytes"] > 1000


def test_cylinder_min_tighter_slack_never_loosens_the_bound():
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    loose = certified_cylinder_min(prob, rel_slack=F(1, 8), fallback_x=FALLBACK)
    tight = certified_cylinder_min(prob, rel_slack=F(1, 500), fallback_x=FALLBACK)
    assert tight.lower_bound >= loose.lower_bound
    assert tight.grid_depth >= loose.grid_depth


def test_cylinder_min_is_deterministic():
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    a = certified_cylinder_min(prob, rel_slack=F(1, 1000), fallback_x=FALLBACK)
    b = certified_cylinder_min(prob, rel_slack=F(1, 1000), fallback_x=FALLBACK)
    assert a.lower_bound == b.lower_bound
    assert a.best_sample == b.best_sample
    assert a.resolutions == b.resolutions
    assert a.to_obj() == b.to_obj()


def test_cylinder_min_lower_bound_is_sound():
    """Fresh random points of S x C never dip below the certified bound."""
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    res = certified_cylinder_min(prob, rel_slack=F(1, 1000), fallback_x=FALLBACK)
    target, _ = prob.homogenized()
    circle = projected_sphere_cover(2, 128, (0, 1))
    rng = random.Random(41)
    for _ in range(10_000):
        x = F(rng.randrange(256, 513), 1024)  # dense rational sweep of [1/4, 1/2]
        u = circle.representative(rng.randrange(len(circle)))
        assert target.eval_at((x,) + u) >= res.lower_bound


def test_cylinder_min_quartic_two_unbounded_vars():
    """f = (8+8x)|y|^4 + 8 over S x R^2; exact min is 40/9 at x=1/4."""
    shape = BlockShape(1, 2)
    f = BlockedPoly(shape, {
        (0, 4, 0): F(8), (0, 2, 2): F(16), (0, 0, 4): F(8),
        (1, 4, 0): F(8), (1, 2, 2): F(16), (1, 0, 4): F(8),
        (0, 0, 0): F(8),
    })
    prob = CylinderProblem(
        shape=shape, variant=Variant.QUARTIC_R2, m=4, f=f,
        g=(interval_g(shape),), frame=SIMPLEX,
    )
    res = certified_cylinder_min(prob, rel_slack=F(1, 8), fallback_x=FALLBACK)
    # minimize (8+8x)t^2 + 8(1-t)^2 over t in [0,1] at x=1/4: t*=4/9, value 40/9
    truth = F(40, 9)
    assert truth <= res.best_sample.value <= truth + F(1, 100)
    assert res.lower_bound <= truth
    assert res.best_sample.value - res.lower_bound <= res.best_sample.value / 8


def test_cylinder_min_split_variant_hits_the_corner():
    """(4+4x)(1+y^2)(1+w^2) over S x R x R: min 5 at (1/4, 0, 0)."""
    shape = BlockShape(1, 1, 1)
    terms = {}
    for e0, c0 in [(0, 4), (1, 4)]:
        for e1 in (0, 2):
            for e2 in (0, 2):
                terms[(e0, e1, e2)] = F(c0)
    f = BlockedPoly(shape, terms)
    prob = CylinderProblem(
        shape=shape, variant=Variant.SPLIT_M_BY_2, m=2, f=f,
        g=(interval_g(shape),), frame=SIMPLEX,
    )
    res = certified_cylinder_min(prob, rel_slack=F(1, 8), fallback_x=FALLBACK)
    assert res.best_sample.value == 5
    assert 0 < res.lower_bound <= 5
    assert len(res.resolutions) == 3  # simplex plus two sphere factors


def test_cylinder_min_two_constraints_two_unbounded():
    shape = BlockShape(2, 2)
    f = BlockedPoly(shape, {
        (0, 0, 2, 0): F(8), (0, 0, 0, 2): F(8),
        (1, 0, 2, 0): F(8), (1, 0, 0, 2): F(8),
        (0, 0, 0, 0): F(8), (0, 1, 0, 0): F(8),
    })
    g1 = BlockedPoly(shape, {(1, 0, 0, 0): F(3, 4), (2, 0, 0, 0): F(-1), (0, 0, 0, 0): F(-1, 8)})
    g2 = BlockedPoly(shape, {(0, 1, 0, 0): F(3, 4), (0, 2, 0, 0): F(-1), (0, 0, 0, 0): F(-1, 8)})
    prob = CylinderProblem(
        shape=shape, variant=Variant.QUADRATIC_RR, m=2, f=f, g=(g1, g2), frame=SIMPLEX,
    )
    res = certified_cylinder_min(prob, rel_slack=F(1, 8), fallback_x=(F(3, 8), F(3, 8)))
    assert res.best_sample.value == 10
    assert res.best_sample.value - res.lower_bound <= res.best_sample.value / 8


# --- threshold check over the full simplex ---------------------------------

def circle_block(shape):
    return (SphereBlock((shape.n, shape.n + 1), 2),)


def test_excess_check_exact_when_target_reduces_to_a_constant():
    sh = BlockShape(1, 1, 0, ("Z",))
    h = BlockedPoly(sh, {(0, 2, 0): F(1), (0, 0, 2): F(1)})  # y^2+z^2 == 1
    res = certified_excess_check(h, F(1), circle_block(sh))
    assert res.lower_bound == 1
    assert res.grid_depth == 0
    assert res.domain == "SIMPLEX_TIMES_SPHERE"


def test_excess_check_with_margin_succeeds():
    sh = BlockShape(1, 1, 0, ("Z",))
    h = BlockedPoly(sh, {(0, 2, 0): F(1), (0, 0, 2): F(1),
                         (1, 2, 0): F(1), (1, 0, 2): F(1)})  # (1+x)(y^2+z^2)
    res = certified_excess_check(h, F(15, 16), circle_block(sh))
    assert res.lower_bound >= F(15, 16)


def test_excess_check_at_the_exact_minimum_fails_cleanly(monkeypatch):
    # threshold equals the true minimum: the strict margin can never close
    sh = BlockShape(1, 1, 0, ("Z",))
    h = BlockedPoly(sh, {(0, 2, 0): F(1), (0, 0, 2): F(1),
                         (1, 2, 0): F(1), (1, 0, 2): F(1)})
    monkeypatch.setattr(certified, "DEPTH_CAP", 6)
    with pytest.raises(ResolutionExhaustedError) as info:
        certified_excess_check(h, F(1), circle_block(sh))
    assert "lower_bound" in info.value.payload


def test_excess_check_reports_a_below_threshold_witness():
    sh = BlockShape(1, 1, 0, ("Z",))
    h = BlockedPoly(sh, {(0, 2, 0): F(1)})  # y^2, zero at the pole
    with pytest.raises(BelowThresholdError) as info:
        certified_excess_check(h, F(1), circle_block(sh))
    w = info.value.payload["witness"]
    assert F(w["value"]) < 1
    u = tuple(F(v) for v in w["u"])
    assert sum(v * v for v in u) == 1


def test_excess_check_rejects_inhomogeneous_targets():
    sh = BlockShape(1, 1, 0, ("Z",))
    h = BlockedPoly(sh, {(1, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1)})
    with pytest.raises(ValidationError):
        certified_excess_check(h, F(1), circle_block(sh))


# --- leading-form side condition -------------------------------------------

def test_leading_form_condition_single_block():
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    conds = check_leading_form_condition(prob, fallback_x=FALLBACK)
    assert set(conds) == {"leading_form"}
    assert conds["leading_form"].lower_bound > 0


def test_leading_form_condition_quartic_pair():
    shape = BlockShape(1, 2)
    f = BlockedPoly(shape, {
        (0, 4, 0): F(8), (0, 2, 2): F(16), (0, 0, 4): F(8),
        (1, 4, 0): F(8), (1, 2, 2): F(16), (1, 0, 4): F(8),
        (0, 0, 0): F(8),
    })
    prob = CylinderProblem(
        shape=shape, variant=Variant.QUARTIC_R2, m=4, f=f,
        g=(interval_g(shape),), frame=SIMPLEX,
    )
    conds = check_leading_form_condition(prob, fallback_x=FALLBACK)
    assert conds["leading_form"].lower_bound > 0


def test_leading_form_condition_catches_a_degenerate_direction():
    """(y1 y2)^2 vanishes along the axes: not positive definite."""
    shape = BlockShape(1, 2)
    f = BlockedPoly(shape, {(0, 2, 2): F(1), (0, 0, 0): F(1)})
    prob = CylinderProblem(
        shape=shape, variant=Variant.QUARTIC_R2, m=4, f=f,
        g=(interval_g(shape),), frame=SIMPLEX,
    )
    with pytest.raises(IndefiniteConditionError) as info:
        check_leading_form_condition(prob, fallback_x=FALLBACK)
    assert info.value.payload["condition"] == "leading_form"
    u = tuple(F(v) for v in info.value.payload["witness"]["u"])
    assert sum(v * v for v in u) == 1
    assert u[0] * u[1] == 0  # an axis direction


def test_leading_form_condition_split_variant_has_two_slices():
    shape = BlockShape(1, 1, 1)
    terms = {}
    for e0, c0 in [(0, 4), (1, 4)]:
        for e1 in (0, 2):
            for e2 in (0, 2):
                terms[(e0, e1, e2)] = F(c0)
    f = BlockedPoly(shape, terms)
    prob = CylinderProblem(
        shape=shape, variant=Variant.SPLIT_M_BY_2, m=2, f=f,
        g=(interval_g(shape),), frame=SIMPLEX,
    )
    conds = check_leading_form_condition(prob, fallback_x=FALLBACK)
    assert set(conds) == {"top_block_slice", "quadratic_block_slice"}
    for res in conds.values():
        assert res.lower_bound > 0


def test_leading_form_bounds_hold_on_fresh_points():
    """Certified slice minima really are lower bounds for the slices."""
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    conds = check_leading_form_condition(prob, fallback_x=FALLBACK)
    (name, form, blocks), = prob.condition_targets()
    res = conds[name]
    circle = projected_sphere_cover(2, 32, (0, 1))
    rng = random.Random(3)
    for _ in range(1000):
        x = F(rng.randrange(256, 513), 1024)
        u = (
            (F(1),) if len(blocks[0].indices) == 1
            else circle.representative(rng.randrange(len(circle)))
        )
        pt = [F(0)] * form.shape.width
        pt[0] = x
        for slot, v in zip(blocks[0].indices, u):
            pt[slot] = v
        assert form.eval_at(pt) >= res.lower_bound


def test_certified_min_serializes_with_its_evidence():
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    res = certified_cylinder_min(prob, rel_slack=F(1, 8), fallback_x=FALLBACK)
    obj = res.to_obj()
    assert set(obj) >= {"lower_bound", "depth", "domain", "witness", "used_constants"}
    assert F(obj["used_constants"]["x"]) == res.used_x_constant > 0
    assert len(obj["used_constants"]["sphere"]) == 1
    assert obj["domain"] == "S_TIMES_SPHERE"
    assert isinstance(obj["witness"]["x"], list)


# --- one scan pass: shared helpers -------------------------------------------

def _scan(target, blocks, constraints, threshold, strict=False):
    """The scan engine over S x the blocks' spheres, as the entry points build it."""
    return _Scan(
        target=target,
        blocks=blocks,
        constraints=constraints,
        witness_threshold=threshold,
        witness_strict=strict,
        witness_exc=lambda s: NonpositiveWitnessError("unused"),
        success=lambda lb, best: False,
        fallback_x=None,
    )


def _pass_size(scan, grid, covers):
    rows, _ = scan._rows_in_s(grid)
    return rows, len(rows) * math.prod(len(c) for c in covers)


def _total_err(scan, grid, covers):
    return scan.used_x * grid.radius + sum(u * c.radius for u, c in zip(scan.used_sphere, covers))


def _exact_in_s(scan, grid, rows):
    """The reference "row in S" mask: every g_i evaluated exactly at every row."""
    def inside(x):
        return all(g.eval_at(x + (F(0),) * (g.shape.width - len(x))) >= 0 for g in scan.constraints)

    return np.array([inside(grid.point(int(r))) for r in rows], dtype=bool)


def _entries(samples):
    return [(s.x, s.u, s.value, in_s) for s, in_s in samples]


# --- small passes: float screen with exact confirmation ---------------------

def _every_pair_exactly(scan, grid, rows, covers):
    """The reference: evaluate every grid x cover pair in exact arithmetic.

    The blocks' slots must follow x in order, so x + u is the full point.
    """
    best = best_feas = None
    candidates = []
    for row, feasible in zip(rows, _exact_in_s(scan, grid, rows)):
        x = grid.point(int(row))
        for reps in itertools.product(
            *([c.representative(i) for i in range(len(c))] for c in covers)
        ):
            u = sum(reps, ())
            entry = (x, u, scan.target.eval_at(x + u), bool(feasible))
            if best is None or entry[2] < best[2]:
                best = entry
            if feasible and (best_feas is None or entry[2] < best_feas[2]):
                best_feas = entry
            below = entry[2] < scan.witness_threshold if scan.witness_strict else (
                entry[2] <= scan.witness_threshold
            )
            if below:
                candidates.append(entry)
    candidates.sort(key=lambda t: float(t[2]))
    witnesses = len(candidates)
    candidates = candidates[: certified.WITNESS_CAP]
    for extra in (best, best_feas):
        if extra is not None and all(extra[:2] != c[:2] for c in candidates):
            candidates.append(extra)
    return best[2] - _total_err(scan, grid, covers), candidates, witnesses


def _assert_small_pass_matches_exact(
    target, constraints, threshold, strict, res=8, blocks=(SphereBlock((2, 3), 2),)
):
    scan = _scan(target, blocks, constraints, threshold, strict)
    lb, samples, grid, covers = scan._pass(res, [res] * len(blocks))
    rows, pairs = _pass_size(scan, grid, covers)
    assert scan.evaluated <= scan.pairs == pairs <= certified.EXACT_PAIRS
    ref_lb, ref_candidates, witnesses = _every_pair_exactly(scan, grid, rows, covers)
    assert lb == ref_lb
    assert _entries(samples) == ref_candidates
    return witnesses


def _tied_target():
    """(x1 - x2)^2 y1^2 + (y1^2 + y2^2)/4 and the constraint x1 >= 1/4.

    The minimum 1/4 is attained on the whole diagonal x1 = x2 and wherever
    y1 = 0, and every value ties with its y1 -> -y1 mirror; the constraint
    makes the feasible minimum differ.
    """
    sh = BlockShape(2, 2, 0)
    target = BlockedPoly(sh, {
        (2, 0, 2, 0): F(1), (1, 1, 2, 0): F(-2), (0, 2, 2, 0): F(1),
        (0, 0, 2, 0): F(1, 4), (0, 0, 0, 2): F(1, 4),
    })
    g = BlockedPoly(sh, {(1, 0, 0, 0): F(1), (0, 0, 0, 0): F(-1, 4)})
    return target, g


def test_small_pass_matches_every_pair_exactly_under_ties():
    target, g = _tied_target()
    witnesses = _assert_small_pass_matches_exact(target, (g,), F(1, 4), False)
    assert witnesses > 1


def test_small_pass_values_no_pair_with_the_full_evaluator(monkeypatch):
    # the window of this pass holds more tied pairs than the pass returns;
    # only samples may reach BlockedPoly.eval_at (here: the constraint's
    # exact "in S" checks), never one call per pair of the window
    target, g = _tied_target()
    scan = _scan(target, (SphereBlock((2, 3), 2),), (g,), F(1, 4))
    calls = []
    evaluate = BlockedPoly.eval_at

    def counted(poly, point):
        calls.append(poly)
        return evaluate(poly, point)

    monkeypatch.setattr(BlockedPoly, "eval_at", counted)
    _lb, samples, _grid, _covers = scan._pass(8, [8])
    assert len(samples) == certified.WITNESS_CAP
    assert len(calls) <= len(samples)
    assert target not in calls


def test_small_pass_over_two_spheres_matches_every_pair_exactly():
    target, blocks, constraints = _two_circle_target()
    for threshold in (F(0), F(-1)):
        _assert_small_pass_matches_exact(target, constraints, threshold, False, 4, blocks)


def test_small_pass_matches_every_pair_exactly_past_the_witness_cap():
    # (x1 + x2)(y1^2 + y2^2) + x1 y1^2 < 1 on most of the domain
    sh = BlockShape(2, 2, 0)
    target = BlockedPoly(sh, {
        (1, 0, 2, 0): F(2), (0, 1, 2, 0): F(1), (1, 0, 0, 2): F(1), (0, 1, 0, 2): F(1),
    })
    witnesses = _assert_small_pass_matches_exact(target, (), F(1), True)
    assert witnesses > 64


def test_small_pass_matches_every_pair_exactly_with_a_distant_feasible_minimum():
    # same target, S = {x1 >= 1/2}: the feasible minimum 1/2 lies far above
    # both the overall minimum 0 at x = 0 and the witness cutoff 0
    sh = BlockShape(2, 2, 0)
    target = BlockedPoly(sh, {
        (1, 0, 2, 0): F(2), (0, 1, 2, 0): F(1), (1, 0, 0, 2): F(1), (0, 1, 0, 2): F(1),
    })
    g = BlockedPoly(sh, {(1, 0, 0, 0): F(1), (0, 0, 0, 0): F(-1, 2)})
    _assert_small_pass_matches_exact(target, (g,), F(0), False)


# --- soundness of the certified bound, both pass regimes --------------------

@st.composite
def _excess_targets(draw):
    """A block-homogeneous target on the n-simplex times one sphere block."""
    n = draw(st.integers(1, 2))
    dim = draw(st.integers(2, 3))
    deg = draw(st.integers(1, 2))
    sh = BlockShape(n, dim, 0)
    terms: dict[tuple[int, ...], F] = {}
    for _ in range(draw(st.integers(0, 4))):
        xe = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda e: sum(e) <= 2))
        ye = [0] * dim
        for _ in range(deg):
            ye[draw(st.integers(0, dim - 1))] += 1
        c = F(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
        key = tuple(xe) + tuple(ye)
        terms[key] = terms.get(key, F(0)) + c
    # A mixed (or linear) sphere monomial times x1 survives the sphere
    # reduction, so the reduced target keeps an x-degree and a sphere
    # coordinate, and the pass size grows with the resolution.
    anchor = (1,) + (0,) * (n - 1) + ((1, 1) if deg == 2 else (1, 0)) + (0,) * (dim - 2)
    terms[anchor] = terms.get(anchor, F(0)) + F(draw(st.integers(1, 8)))
    if terms[anchor] == 0:
        terms[anchor] = F(1)
    target = BlockedPoly(sh, {e: c for e, c in terms.items() if c})
    return target, n, (SphereBlock(tuple(range(n, n + dim)), deg),)


@st.composite
def _sphere_points(draw, dim):
    """An exact point of the unit sphere in R^dim, by the half-angle map."""
    v = [F(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for _ in range(dim - 1)]
    s = sum(t * t for t in v)
    return tuple(2 * t / (1 + s) for t in v) + (draw(st.sampled_from((1, -1))) * (1 - s) / (1 + s),)


@st.composite
def _domain_points(draw, n, dim):
    """An exact point of the n-simplex times the unit sphere in R^dim."""
    a = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    x = tuple(F(v, sum(a) + draw(st.integers(1, 20))) for v in a)
    return x + draw(_sphere_points(dim))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_excess_check_lower_bound_is_sound_in_both_pass_regimes(data):
    target, n, blocks = data.draw(_excess_targets())
    dim = len(blocks[0].indices)
    points = data.draw(st.lists(_domain_points(n, dim), min_size=1, max_size=20))
    # resolution 2 gives at most 6 rows x 18 cover points (a small pass);
    # the large resolution gives more than EXACT_PAIRS pairs (a large
    # pass), since the anchor keeps a coordinate with at least
    # resolution + 1 projected cover points
    large = 64 if n == 1 else 24
    assert math.comb(large + n, n) * (large + 1) > certified.EXACT_PAIRS
    floor = -(coeff_abs_sum(target) + 1) * 10**6
    scan = _scan(target, blocks, (), floor, strict=True)
    for res in (2, large):
        lb, samples, _, _ = scan._pass(res, [res])
        assert samples
        for best, in_s in samples:
            assert in_s
            assert target.eval_at(best.x + best.u) == best.value >= lb
        for pt in points:
            assert target.eval_at(pt) >= lb


def _block_exponents(draw, size, degree):
    """An exponent vector over ``size`` slots of total degree at most ``degree``."""
    out = [0] * size
    for _ in range(draw(st.integers(0, degree)) if size else 0):
        out[draw(st.integers(0, size - 1))] += 1
    return out


@st.composite
def _variant_problems(draw, variant):
    """A simplex-frame problem of the variant, S = {a <= x1 <= b}, with a and b."""
    n = draw(st.integers(1, 2))
    if variant is Variant.R1_ANY_M:
        r1, r2, m = 1, 0, draw(st.sampled_from((2, 4)))
    elif variant is Variant.QUARTIC_R2:
        r1, r2, m = 2, 0, 4
    elif variant is Variant.QUADRATIC_RR:
        r1, r2, m = draw(st.integers(1, 2)), 0, 2
    else:
        r1, r2, m = 1, draw(st.integers(1, 2)), 2
    sh = BlockShape(n, r1, r2)
    terms: dict[tuple[int, ...], F] = {}
    for _ in range(draw(st.integers(0, 4))):
        xe = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda e: sum(e) <= 2))
        key = tuple(xe + _block_exponents(draw, r1, m) + _block_exponents(draw, r2, 2))
        terms[key] = terms.get(key, F(0)) + F(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
    # a term of full degree in each unbounded block fixes the declared degrees
    anchor = (0,) * n + (m,) + (0,) * (r1 - 1) + ((2,) + (0,) * (r2 - 1) if r2 else ())
    terms[anchor] = terms.get(anchor, F(0)) + F(draw(st.integers(1, 8)))
    if terms[anchor] == 0:
        terms[anchor] = F(1)
    a = draw(st.sampled_from((F(0), F(1, 8), F(1, 4))))
    b = draw(st.sampled_from((F(1, 2), F(3, 4))))
    x1 = BlockedPoly.variable(sh, 0)
    one = BlockedPoly.constant(sh, 1)
    g = (x1 - one.scale(a)) * (one.scale(b) - x1)
    f = BlockedPoly(sh, {e: c for e, c in terms.items() if c})
    problem = CylinderProblem(shape=sh, variant=variant, m=m, f=f, g=(g,), frame=SIMPLEX)
    return problem, a, b


def _pass_sizes(scan, res):
    """Pairs of the pass at resolution ``res`` in every factor."""
    grid = SimplexGrid(scan.n, res)
    covers = scan._covers([res] * len(scan.blocks))
    return _pass_size(scan, grid, covers)[1]


@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_scan_passes_bound_every_variant_from_below_on_s(variant, data):
    # the targets the pipeline scans (the homogenized f and the side-condition
    # slices), over S times spheres, in one pass of each size regime
    problem, a, b = data.draw(_variant_problems(variant))
    target, blocks = problem.homogenized()
    n = problem.n
    for form, form_blocks in [(target, blocks)] + [
        (form, form_blocks) for _, form, form_blocks in problem.condition_targets()
    ]:
        scan = _scan(form, form_blocks, problem.g, F(0))
        large = 4
        while _pass_sizes(scan, large) <= certified.EXACT_PAIRS:
            large *= 2
        assert _pass_sizes(scan, 2) <= certified.EXACT_PAIRS
        bounds = [scan._pass(res, [res] * len(form_blocks))[0] for res in (2, large)]
        for _ in range(data.draw(st.integers(4, 12))):
            x1 = a + (b - a) * F(data.draw(st.integers(0, 97)), 97)
            x = (x1,) + tuple((1 - x1) * F(data.draw(st.integers(0, 97)), 97) for _ in range(n - 1))
            pt = list(x) + [F(0)] * (form.shape.width - n)
            for block in form_blocks:
                for slot, v in zip(block.indices, data.draw(_sphere_points(len(block.indices)))):
                    pt[slot] = v
            assert all(lb <= form.eval_at(pt) for lb in bounds)


# --- exact values: integer factors against the full evaluator ---------------

def _check_exact_values(scan):
    """Every pair of the grid at resolutions 2 and 8 in every factor, when
    that pass is small: its integer-factor value is the target's value at
    the full domain point."""
    for res in (2, 8):
        grid = SimplexGrid(scan.n, res)
        covers = scan._covers([res] * len(scan.blocks))
        n_u = math.prod(len(c) for c in covers)
        if len(grid) * n_u > certified.EXACT_PAIRS:
            continue
        pairs = list(itertools.product(range(len(grid)), range(n_u)))
        values = scan._exact_values(grid, np.arange(len(grid)), covers, pairs)
        for (i, j), (num, den) in zip(pairs, values):
            assert den > 0
            full = scan._sample(grid.point(i), scan._reps_at(covers, j))
            assert F(num, den) == full.value, (res, i, j)


def test_exact_values_match_the_target_on_every_sample_scan():
    for path in sorted(SAMPLES.glob("*.json")):
        solving = solving_frame(problem_from_obj(json.loads(path.read_text())))[0]
        for scan in pipeline_scans(solving):
            _check_exact_values(scan)


@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_values_match_the_target_on_every_variant(variant, data):
    problem, _a, _b = data.draw(_variant_problems(variant))
    for scan in pipeline_scans(problem):
        _check_exact_values(scan)


# --- large passes: only rows whose float bound can matter are evaluated -----

def _dense_float_pass(scan, grid, rows, covers, in_s):
    """The reference: the large pass reducing every grid x cover pair, given the "in S" mask."""
    cut = _ceil_float(scan.witness_threshold + scan.slack)
    amat, bmat = scan._factors(grid, rows, covers)
    n_u = bmat.shape[1]
    best_val = math.inf
    best_idx = (0, 0)
    in_s_val = math.inf
    in_s_idx = None
    cand = []
    witnesses = 0
    chunk = max(1, 4_000_000 // n_u)
    for lo in range(0, amat.shape[0], chunk):
        hi = min(lo + chunk, amat.shape[0])
        block = np.zeros((hi - lo, n_u))
        for k in range(bmat.shape[0]):
            block += amat[lo:hi, k, None] * bmat[None, k, :]
        i, j = divmod(int(np.argmin(block)), n_u)
        if block[i, j] < best_val:
            best_val = float(block[i, j])
            best_idx = (lo + i, j)
        sl = in_s[lo:hi]
        if sl.any():
            sub = block[sl]
            si, sj = divmod(int(np.argmin(sub)), n_u)
            if sub[si, sj] < in_s_val:
                in_s_val = float(sub[si, sj])
                in_s_idx = (lo + int(np.nonzero(sl)[0][si]), sj)
        low = np.argwhere(block <= cut)
        witnesses += len(low)
        if low.size:
            order = np.argsort(block[low[:, 0], low[:, 1]], kind="stable")
            for pos in order[: certified.WITNESS_CAP]:
                i2, j2 = low[pos]
                cand.append((float(block[i2, j2]), lo + int(i2), int(j2)))
    cand.sort(key=lambda t: t[0])
    cand = cand[: certified.WITNESS_CAP]
    seen = {(i, j) for _, i, j in cand}
    if best_idx not in seen:
        cand.append((best_val, *best_idx))
        seen.add(best_idx)
    if in_s_idx is not None and in_s_idx not in seen:
        cand.append((in_s_val, *in_s_idx))
    out = [
        (scan._sample(grid.point(int(rows[i])), scan._reps_at(covers, j)), bool(in_s[i]))
        for _, i, j in cand
    ]
    lb = F(best_val) - scan.slack - _total_err(scan, grid, covers)
    return lb, _entries(out), witnesses


def _large_pass(target, n, blocks, constraints, threshold, res_x):
    """Run one large pass (more than EXACT_PAIRS pairs) and check it densely.

    The sphere resolution doubles from 8 until the pass is too large to be
    confirmed exactly.  Asserts that the pass equals the dense reference;
    returns the scan, the pass's exact "in S" row mask and the number of
    pairs at or below the cutoff.
    """
    scan = _scan(target, blocks, constraints, threshold)
    res_b = 8
    while True:
        scan.pairs = scan.evaluated = 0
        lb, samples, grid, covers = scan._pass(res_x, [res_b] * len(blocks))
        rows, pairs = _pass_size(scan, grid, covers)
        if pairs > certified.EXACT_PAIRS:
            break
        res_b *= 2
    in_s = _exact_in_s(scan, grid, rows)
    ref_lb, ref_candidates, witnesses = _dense_float_pass(scan, grid, rows, covers, in_s)
    assert scan.evaluated <= scan.pairs == pairs
    assert lb == ref_lb
    assert _entries(samples) == ref_candidates
    return scan, in_s, witnesses


def _two_circle_target():
    # x1 (y1 y2 + z1 z2) + (x1 - x2)^2 y1^2 z1^2 / 4 + x2 y1^2: the y -> -y and
    # z -> -z mirrors tie every value of the mixed terms
    sh = BlockShape(2, 2, 2)
    terms = {
        (1, 0, 1, 1, 0, 2): F(1), (1, 0, 2, 0, 1, 1): F(1),
        (2, 0, 2, 0, 2, 0): F(1, 4), (1, 1, 2, 0, 2, 0): F(-1, 2), (0, 2, 2, 0, 2, 0): F(1, 4),
        (0, 1, 2, 0, 0, 2): F(1),
    }
    blocks = (SphereBlock((2, 3), 2), SphereBlock((4, 5), 2))
    g = BlockedPoly(sh, {(1, 0, 0, 0, 0, 0): F(1), (0, 0, 0, 0, 0, 0): F(-1, 4)})
    return BlockedPoly(sh, terms), blocks, (g,)


def test_large_pass_matches_the_dense_reference_past_the_witness_cap():
    target, blocks, constraints = _two_circle_target()
    scan, in_s, witnesses = _large_pass(target, 2, blocks, constraints, F(0), 8)
    assert witnesses > 64
    assert in_s.any() and not in_s.all()


def test_large_pass_evaluates_only_rows_that_can_reach_the_minimum():
    target, blocks, constraints = _two_circle_target()
    scan, in_s, witnesses = _large_pass(target, 2, blocks, constraints, F(-1), 8)
    assert witnesses == 0
    assert in_s.any() and not in_s.all()
    assert scan.evaluated < scan.pairs


def _point_constraint(sh):
    """-(x1 - 1/4)^2 >= 0: S is one point, the grid row at x1 = 1/4."""
    return BlockedPoly(sh, {(2, 0, 0): F(-1), (1, 0, 0): F(1, 2), (0, 0, 0): F(-1, 16)})


def test_large_pass_keeps_rows_whose_bound_equals_the_minimum():
    # (x1 - 1/2)^2 y1^2 + (y1^2 + y2^2)/4 on the circle: every row's bound is
    # its minimum 1/4, attained at y1 = 0, so all rows tie
    sh = BlockShape(1, 2, 0)
    target = BlockedPoly(sh, {(2, 2, 0): F(1), (1, 2, 0): F(-1), (0, 2, 0): F(1, 2), (0, 0, 2): F(1, 4)})
    for constraints in ((), (_point_constraint(sh),)):
        for threshold in (F(-1), F(1, 4)):
            _large_pass(target, 1, (SphereBlock((1, 2), 2),), constraints, threshold, 256)


def test_large_pass_keeps_rows_that_only_reach_the_cutoff():
    # x1 y1 y2 + x1^2 (y1^2 + y2^2): minimum -1/16 at x1 = 1/4; a cutoff
    # slightly above it also takes pairs from rows whose own minimum is larger
    sh = BlockShape(1, 2, 0)
    target = BlockedPoly(sh, {(1, 1, 1): F(1), (2, 2, 0): F(1), (2, 0, 2): F(1)})
    for constraints, threshold in (((), F(-7, 128)), ((_point_constraint(sh),), F(-63, 1024))):
        scan, in_s, witnesses = _large_pass(
            target, 1, (SphereBlock((1, 2), 2),), constraints, threshold, 256
        )
        assert 0 < witnesses <= 64
        assert scan.evaluated < scan.pairs
    assert in_s.sum() == 1


@st.composite
def _pass_cases(draw):
    """A target on the n-simplex times one or two sphere blocks, an x-constraint and a cutoff."""
    n = draw(st.integers(1, 2))
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    degs = [draw(st.integers(1, 2)) for _ in dims]
    sh = BlockShape(n, dims[0], dims[1] if len(dims) > 1 else 0)
    starts = [n, n + dims[0]]

    def sphere_part(mixed: bool) -> list[int]:
        ye = []
        for dim, deg in zip(dims, degs):
            part = [0] * dim
            if mixed:
                part[0] += 1
                if deg == 2:
                    part[1] += 1
            else:
                for _ in range(deg):
                    part[draw(st.integers(0, dim - 1))] += 1
            ye += part
        return ye

    terms: dict[tuple[int, ...], F] = {}
    for _ in range(draw(st.integers(0, 4))):
        xe = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda e: sum(e) <= 2))
        key = tuple(xe) + tuple(sphere_part(False))
        terms[key] = terms.get(key, F(0)) + F(draw(st.integers(-4, 4)), draw(st.integers(1, 2)))
    # x1 times a mixed (or linear) monomial in every block keeps a sphere
    # coordinate of each block through the reduction
    anchor = (1,) + (0,) * (n - 1) + tuple(sphere_part(True))
    terms[anchor] = terms.get(anchor, F(0)) + F(draw(st.integers(1, 4)))
    if terms[anchor] == 0:
        terms[anchor] = F(1)
    target = BlockedPoly(sh, {e: c for e, c in terms.items() if c})
    blocks = tuple(
        SphereBlock(tuple(range(s, s + dim)), deg) for s, dim, deg in zip(starts, dims, degs)
    )
    # x1 >= t or x1 <= t: rows near x1 = t are kept but not surely feasible
    t = draw(st.sampled_from((F(0), F(1, 4), F(1, 2))))
    sign = draw(st.sampled_from((1, -1)))
    origin = (0,) * sh.width
    x1 = (1,) + (0,) * (sh.width - 1)
    constraints = draw(st.sampled_from((
        (), (BlockedPoly(sh, {x1: F(sign), origin: -sign * t} if t else {x1: F(sign)}),),
    )))
    threshold = F(draw(st.integers(-16, 4)), 4)
    return target, n, blocks, constraints, threshold


@settings(max_examples=25, deadline=None)
@given(case=_pass_cases())
def test_large_pass_matches_the_dense_reference(case):
    target, n, blocks, constraints, threshold = case
    _large_pass(target, n, blocks, constraints, threshold, 16 if n == 1 else 8)


def _interval_scan():
    """The floor scan of x(1+y^2) over S = [1/4, 1/2]; its minimum 1/4 lies on the boundary."""
    prob = interval_problem({(1, 0): 1, (1, 2): 1})
    target, blocks = prob.homogenized()
    return _scan(target, blocks, prob.g, F(0))


def test_large_pass_counts_a_boundary_row_in_s():
    # g vanishes at x = 1/4, so float64 cannot place that row; the exact
    # check puts it in S, and its sample is the minimum over S x sphere
    scan = _interval_scan()
    lb, samples, grid, covers = scan._pass(32768, [8])
    assert _pass_size(scan, grid, covers)[1] > certified.EXACT_PAIRS
    assert (F(1, 4),) in [s.x for s, in_s in samples if in_s and s.value == F(1, 4)]
    assert lb <= F(1, 4)


def test_a_large_pass_searches_no_chunk_without_a_candidate(monkeypatch):
    # every value is near 1/4 or above, far over the witness cutoff of
    # threshold 0 plus the slack, so no chunk is searched for candidates
    scan = _interval_scan()
    searched = []
    nonzero = np.nonzero

    def counted(a):
        if np.ndim(a) == 2:
            searched.append(np.shape(a))
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", counted)
    lb, samples, grid, covers = scan._pass(32768, [8])
    assert _pass_size(scan, grid, covers)[1] > certified.EXACT_PAIRS
    assert searched == []
    assert F(0) < lb <= F(1, 4) and samples


def test_only_rows_float64_cannot_place_are_checked_exactly(monkeypatch):
    scan = _interval_scan()
    checked = []
    exact_check = scan._in_feasible_set

    def counted(x):
        checked.append(x)
        return exact_check(x)

    monkeypatch.setattr(scan, "_in_feasible_set", counted)
    grid = SimplexGrid(1, 32768)
    rows, in_s = scan._rows_in_s(grid)
    assert (in_s == _exact_in_s(scan, grid, rows)).all()
    # thousands of kept rows; only the two where g vanishes exactly are undecided
    assert len(rows) > 8000
    assert checked == [(F(1, 4),), (F(1, 2),)]


def test_row_bounds_stay_below_every_value_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(3)
    default = certified.BLOCK_VALUES
    for _ in range(40):
        rows, sigs, cols = (int(v) for v in rng.integers(1, 40, 3))
        # magnitudes over 16 decades, with zeros and negative zeros, so
        # products and sums round and cancel
        amat = rng.standard_normal((rows, sigs)) * 10.0 ** rng.integers(-8, 9, (rows, sigs))
        bmat = rng.standard_normal((sigs, cols)) * 10.0 ** rng.integers(-8, 9, (sigs, cols))
        amat[rng.random(amat.shape) < 0.2] = 0.0
        bmat[rng.random(bmat.shape) < 0.2] = -0.0
        results = set()
        # chunks of 1 and 3 rows, and the default size (one chunk here)
        for chunk_rows in (1, 3, default // cols):
            monkeypatch.setattr(certified, "BLOCK_VALUES", chunk_rows * cols)
            bound = _row_bounds(amat, bmat)
            chunks = []
            for sel, block in _value_rows(amat, bmat, np.arange(rows)):
                assert len(sel) == min(chunk_rows, rows - len(chunks) * chunk_rows)
                assert (bound[sel, None] <= block).all()
                chunks.append(block)
            results.add((bound.tobytes(), np.concatenate(chunks).tobytes()))
        assert len(results) == 1


def _whole_array_float_eval(points, terms):
    """The reference: one power table per column over every row at once."""
    count = points.shape[0]
    tables = []
    for j in range(points.shape[1]):
        col = [np.ones(count)]
        for _ in range(max((exp[j] for exp, _c in terms), default=0)):
            col.append(col[-1] * points[:, j])
        tables.append(col)
    acc = np.zeros(count)
    for exp, coeff in terms:
        v = np.full(count, float(coeff))
        for j, e in enumerate(exp):
            if e:
                v = v * tables[j][e]
        acc += v
    return acc


_float_entries = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-8, 8)),
)


@st.composite
def _eval_cases(draw):
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    points = np.array(
        draw(st.lists(_float_entries, min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    coeff = st.builds(
        lambda m, e: F(m) * F(10) ** e, st.integers(-9, 9), st.integers(-8, 8)
    )
    exps = st.tuples(*[st.integers(0, 6)] * cols)
    terms = draw(st.lists(st.tuples(exps, coeff), max_size=6, unique_by=lambda t: t[0]))
    return points, terms


@settings(max_examples=60)
@given(case=_eval_cases())
def test_float_eval_blocks_match_the_whole_array_evaluation_bit_for_bit(case):
    points, terms = case
    expected = _whole_array_float_eval(points, terms).tobytes()
    width = certified._row_width([e for e, _c in terms], points.shape[1])
    for block_rows in (1, 7, len(points) + 1):
        sizes = []
        tables = certified._power_tables

        def spy(block, exps):
            sizes.append(len(block))
            return tables(block, exps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certified, "BLOCK_VALUES", block_rows * width)
            mp.setattr(certified, "_power_tables", spy)
            got = certified._float_eval(points, terms)
        assert got.tobytes() == expected
        assert sizes == [min(block_rows, len(points) - lo) for lo in range(0, len(points), block_rows)]


# --- memory: a pass's arrays scale with a block, not with the grid -----------

SAMPLES = Path(__file__).resolve().parent.parent / "sample_problems"


def _problem(name):
    if name == "polya2-K56":
        return problem_from_obj(largest_family_member())
    return problem_from_obj(json.loads(next(SAMPLES.glob(f"{name}_*.json")).read_text()))


def _clear_caches():
    """Empty every ``functools`` cache of cylcert, as a fresh process would."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cylcert"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(scope="module")
def recorded_passes():
    """Every pass of certifying c5, c6 and polya2-K56, as (scan, res_x, res_b)."""
    passes = {}
    scan_pass = _Scan._pass
    with pytest.MonkeyPatch.context() as mp:
        for name in ("c5", "c6", "polya2-K56"):
            seen = passes.setdefault(name, [])

            def recording(scan, res_x, res_b, seen=seen):
                seen.append((scan, res_x, list(res_b)))
                return scan_pass(scan, res_x, res_b)

            mp.setattr(_Scan, "_pass", recording)
            certify_problem(_problem(name))
    return passes


def _estimate(scan, res_x, res_b):
    grid_size = math.comb(res_x + scan.n, scan.n)
    n_u = math.prod(len(c) for c in scan._covers(res_b))
    return scan._float_bytes(grid_size, n_u)


def test_pass_memory_stays_within_its_estimate(recorded_passes):
    # the estimate leaves out the Python objects of a first-time sphere
    # cover, so _estimate builds the covers before tracing starts
    largest = [max(p, key=lambda r: _estimate(*r)) for p in recorded_passes.values()]
    smallest = min(recorded_passes["c5"], key=lambda r: _estimate(*r))
    for scan, res_x, res_b in [*largest, smallest]:
        estimate = _estimate(scan, res_x, res_b)
        tracemalloc.start()
        try:
            scan._pass(res_x, res_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate, (res_x, res_b, peak, estimate)
    assert [r[1:] for r in largest] == [(16, [64]), (128, [256, 256]), (1024, [8])]
    assert smallest[1:] == (1, [8])


@pytest.mark.parametrize("name, limit_mb", [("c6", 16), ("polya2-K56", 27)])
def test_certify_peak_memory(name, limit_mb):
    # whole-pass float arrays gave traced peaks of 52.1 and 53.9 MB
    problem = _problem(name)
    _clear_caches()
    tracemalloc.start()
    try:
        certify_problem(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2**20
