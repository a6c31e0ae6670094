"""Constraint absorption: scaling, slack exponent, lambda search."""
import random
from fractions import Fraction as F

import pytest

from cylcert import perturb
from cylcert.covers import projected_sphere_cover
from cylcert.errors import CapExceededError, SearchExhaustedError
from cylcert.perturb import (
    constraint_scale,
    factor_squares,
    find_perturbation,
    normalized_constraints,
    perturbed_target,
    slack_exponent,
)
from cylcert.poly import BlockShape, BlockedPoly, block_sum_of_squares
from cylcert.problem import DEGREE_CAP, SIMPLEX, CylinderProblem, Variant
from helpers import is_block_homogeneous


def joint_degree(p, *blocks: str) -> int:
    """Max combined exponent of ``p`` over the named blocks."""
    idx = [i for block in blocks for i in p.shape.block_indices(block)]
    return max(sum(e[i] for i in idx) for e in p.terms)


def interval_g(shape):
    """(x1 - 1/4)(1/2 - x1) over the given shape."""
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


def sos_factor(p):
    """Reference padding factor Q, written out per regime: (|Y|^2 + Z^2)^(m/2),
    or (Y1^2 + Z1^2)^(m/2) * (|Y2|^2 + Z2^2) when split."""
    shape = p.homogenized()[0].shape
    if p.variant is Variant.SPLIT_M_BY_2:
        q1 = block_sum_of_squares(shape, "y1", "Z1") ** (p.m // 2)
        return q1 * block_sum_of_squares(shape, "y2", "Z2")
    return block_sum_of_squares(shape, "y1", "Z") ** (p.m // 2)


def perturbation_sum(p, lam, k):
    """lam * Q * sum ghat_i (ghat_i - 1)^(2k) over the padded shape."""
    target, _ = p.homogenized()
    shape = target.shape
    one = BlockedPoly.constant(shape, 1)
    acc = BlockedPoly.zero(shape)
    for ghat, _c in normalized_constraints(p):
        gh = ghat.embed(shape)
        acc = acc + gh * ((gh - one) ** (2 * k))
    return (sos_factor(p) * acc).scale(lam)


# --- scaling ---------------------------------------------------------------

def test_constraint_scale_interval():
    shape = BlockShape(1, 1)
    assert constraint_scale(interval_g(shape)) == 3  # norm 1, degree 2


def test_constraint_scale_never_inflates_small_constraints():
    shape = BlockShape(1, 1)
    g = BlockedPoly(shape, {(1, 0): F(1, 100), (0, 0): F(-1, 400)})
    assert constraint_scale(g) == 1


def test_normalized_constraints_bounded_on_simplex():
    rng = random.Random(7)
    shape = BlockShape(2, 1)
    for _ in range(50):
        terms = {}
        for e0 in range(3):
            for e1 in range(3 - e0):
                terms[(e0, e1, 0)] = F(rng.randint(-40, 40), rng.randint(1, 9))
        g = BlockedPoly(shape, terms)
        if not g.terms or g.block_degree("x") == 0:
            continue
        prob = CylinderProblem(
            shape=shape, variant=Variant.R1_ANY_M, m=2,
            f=BlockedPoly(shape, {(0, 0, 2): F(1)}), g=(g,), frame=SIMPLEX,
        )
        (ghat, scale), = normalized_constraints(prob)
        assert ghat.scale(scale) == g
        for _ in range(20):
            a, b = sorted([rng.random(), rng.random()])
            x = (F(a).limit_denominator(64), F(b - a).limit_denominator(64))
            value = ghat.eval_at(x + (F(0),))
            assert abs(value) <= 1


# --- slack exponent --------------------------------------------------------

def test_slack_exponent_frozen_values():
    assert slack_exponent(F(1), 1, F(7)) == 0
    assert slack_exponent(F(8), 2, F(1)) == 32
    assert slack_exponent(F(1), 1, F(4)) == 0      # boundary: 2k+1 = 1 = 4*1/4
    assert slack_exponent(F(2), 1, F(4)) == 1


def test_slack_exponent_is_minimal():
    rng = random.Random(11)
    for _ in range(200):
        lam = F(2) ** rng.randint(0, 12)
        s = rng.randint(1, 4)
        fstar = F(rng.randint(1, 50), rng.randint(1, 8))
        k = slack_exponent(lam, s, fstar)
        assert 2 * k + 1 >= 4 * lam * s / fstar
        if k:
            assert 2 * (k - 1) + 1 < 4 * lam * s / fstar


def test_slack_exponent_rejects_nonpositive_floor():
    with pytest.raises(ValueError):
        slack_exponent(F(1), 1, F(0))


# --- the SOS factor --------------------------------------------------------

@pytest.mark.parametrize(
    "m,variant,r1,r2",
    [
        (2, Variant.R1_ANY_M, 1, 0),
        (4, Variant.R1_ANY_M, 1, 0),
        (6, Variant.R1_ANY_M, 1, 0),
        (4, Variant.QUARTIC_R2, 2, 0),
        (2, Variant.QUADRATIC_RR, 3, 0),
        (2, Variant.SPLIT_M_BY_2, 1, 2),
        (4, Variant.SPLIT_M_BY_2, 1, 1),
    ],
)
def test_factor_squares_sum_to_sos_factor(m, variant, r1, r2):
    shape = BlockShape(1, r1, r2)
    y = shape.block_indices("y1")[0]
    f_terms = {tuple(m if i == y else 0 for i in range(shape.width)): F(1)}
    if variant is Variant.SPLIT_M_BY_2:
        w = shape.block_indices("y2")[0]
        f_terms = {
            tuple(
                m if i == y else (2 if i == w else 0) for i in range(shape.width)
            ): F(1)
        }
    prob = CylinderProblem(
        shape=shape, variant=variant, m=m,
        f=BlockedPoly(shape, f_terms), g=(interval_g(shape),), frame=SIMPLEX,
    )
    q = sos_factor(prob)
    squares = factor_squares(prob)
    total = BlockedPoly.zero(q.shape)
    for s in squares:
        total = total + s * s
    assert total == q
    assert q.block_degree("x") == 0
    if variant is Variant.SPLIT_M_BY_2:
        assert joint_degree(q, "y1", "Z1") == m
        assert joint_degree(q, "y2", "Z2") == 2
        assert is_block_homogeneous(q, "y1", "Z1")
        assert is_block_homogeneous(q, "y2", "Z2")
    else:
        assert joint_degree(q, "y1", "Z") == m
        assert is_block_homogeneous(q, "y1", "Z")


def test_sos_factor_is_one_on_the_sphere():
    prob = interval_problem({(0, 4): 1, (0, 0): 1}, m=4)
    q = sos_factor(prob)
    cover = projected_sphere_cover(2, 16, (0, 1))
    shape = q.shape
    slots = shape.block_indices("y1") + shape.block_indices("Z")
    for u in map(cover.point, range(len(cover))):
        point = [F(0)] * shape.width
        for slot, c in zip(slots, u):
            point[slot] = c
        assert q.eval_at(tuple(point)) == 1


# --- the perturbed target --------------------------------------------------

def test_perturbed_target_identity():
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    target, _ = prob.homogenized()
    for lam, k in [(F(1), 0), (F(4), 2), (F(16), 5)]:
        h = perturbed_target(prob, lam, k)
        assert h + perturbation_sum(prob, lam, k) == target


def test_perturbation_small_where_constraints_hold():
    # On the sphere the SOS factor is exactly 1, so at feasible x the
    # subtracted term is at most lam * s / (2k+1).
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    lam = F(2)
    for k in (1, 2, 4):
        h = perturbed_target(prob, lam, k)
        target, _ = prob.homogenized()
        diff = target - h
        shape = diff.shape
        slots = shape.block_indices("y1") + shape.block_indices("Z")
        cover = projected_sphere_cover(2, 8, (0, 1))
        for xval in (F(1, 4), F(3, 8), F(1, 2)):
            for u in map(cover.point, range(len(cover))):
                point = [F(0)] * shape.width
                point[0] = xval
                for slot, c in zip(slots, u):
                    point[slot] = c
                assert diff.eval_at(tuple(point)) <= lam * prob.s / (2 * k + 1)


def test_perturbation_boosts_outside_the_feasible_set():
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    target, _ = prob.homogenized()
    h = perturbed_target(prob, F(4), 1)
    shape = h.shape
    # At x = 1 (far outside [1/4, 1/2]) with Z = 1: the constraint term
    # switches sign and the perturbation adds value.
    point = [F(0)] * shape.width
    point[0] = F(1)
    point[shape.block_indices("Z")[0]] = F(1)
    assert h.eval_at(tuple(point)) > target.eval_at(tuple(point))


# --- the lambda search -----------------------------------------------------

def test_find_perturbation_interval_problem():
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    fstar_lb = F(7)
    res = find_perturbation(prob, fstar_lb)
    assert res.lam == 1 and res.k == 0
    assert res.threshold == F(7, 2)
    assert res.evidence.lower_bound >= res.threshold
    target, _ = prob.homogenized()
    assert res.target + perturbation_sum(prob, res.lam, res.k) == target


DIP_TERMS = {(0, 0): 16, (1, 0): -14, (0, 2): 16}
# f = 16 + 16Y^2 - 14x stays >= 9 on S = [1/4, 1/2] but slides to 2 at
# x = 1, below half of fstar_lb = 8.  Weight 1 cannot lift the slide;
# doubling reaches it.


def test_find_perturbation_needs_larger_lambda_for_outside_dip():
    prob = interval_problem(DIP_TERMS)
    fstar_lb = F(8)
    res = find_perturbation(prob, fstar_lb)
    assert res.lam > 1
    assert res.evidence.lower_bound >= F(4)
    assert 2 * res.k + 1 >= 4 * res.lam * prob.s / fstar_lb
    target, _ = prob.homogenized()
    assert res.target + perturbation_sum(prob, res.lam, res.k) == target


def test_find_perturbation_exhausts_small_cap(monkeypatch):
    prob = interval_problem(DIP_TERMS)
    monkeypatch.setattr(perturb, "LAMBDA_CAP", 2)
    with pytest.raises(SearchExhaustedError) as err:
        find_perturbation(prob, F(8))
    assert err.value.payload["lambda_cap"] == 2
    assert err.value.payload["attempts"]


def test_find_perturbation_refuses_a_target_above_the_degree_cap(monkeypatch):
    # a small floor forces a large k: k = 286 here, a target of degree
    # 2 * 573 in x that the exact scan samples would take minutes on
    prob = interval_problem({(0, 0): F(8, 1000), (1, 0): F(8, 1000), (0, 2): F(8, 1000)})
    monkeypatch.setattr(perturb, "perturbed_target", lambda *args: pytest.fail("formed"))
    with pytest.raises(CapExceededError) as err:
        find_perturbation(prob, F(7, 1000))
    k = slack_exponent(F(1), prob.s, F(7, 1000))
    assert err.value.payload == {"lambda": "1", "k": k, "degree": 2 * (2 * k + 1), "cap": DEGREE_CAP}


def test_find_perturbation_reaches_the_degree_cap_exactly(monkeypatch):
    # k = 4 gives degree 18 in x: under a cap of 18 the search runs, under 17 it stops
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    fstar_lb = F(4 * prob.s, 9)
    assert slack_exponent(F(1), prob.s, fstar_lb) == 4
    monkeypatch.setattr(perturb, "DEGREE_CAP", 18)
    assert find_perturbation(prob, fstar_lb).k == 4
    monkeypatch.setattr(perturb, "DEGREE_CAP", 17)
    with pytest.raises(CapExceededError):
        find_perturbation(prob, fstar_lb)


def test_find_perturbation_deterministic():
    prob = interval_problem({(0, 0): 8, (1, 0): 8, (0, 2): 8})
    a = find_perturbation(prob, F(7))
    b = find_perturbation(prob, F(7))
    assert (a.lam, a.k) == (b.lam, b.k)
    assert a.target == b.target
    assert a.evidence.lower_bound == b.evidence.lower_bound
    assert a.evidence.to_obj() == b.evidence.to_obj()
