"""Simplex saturation: slack lift, exponent cap, coefficient forms, screen."""
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcert import polya
from cylcert.certified import _float_slack
from cylcert.covers import projected_sphere_cover
from cylcert.errors import CapExceededError, SosStalledError
from cylcert.polya import (
    SCREEN_RESOLUTION,
    _screen_min,
    coefficient_forms,
    polya_exponent_cap,
    polya_saturate,
)
from cylcert.poly import BlockShape, BlockedPoly, expand_identity
from cylcert.problem import SphereBlock
from cylcert.putinar_base import simplex_u


SH = BlockShape(n=1, r1=1, r2=0, homs=("Z",))


def poly(terms, shape=SH):
    return BlockedPoly(shape, {k: F(v) for k, v in terms.items()})


def circle_block(shape):
    return (
        SphereBlock(
            indices=shape.block_indices("y1") + shape.block_indices("Z"), degree=2
        ),
    )


# h = (2x^2 - 2x + 1)(Y^2 + Z^2); its slack lift is (u^2 + x^2)(Y^2 + Z^2)
BUMP = poly({
    (2, 2, 0): 2, (2, 0, 2): 2,
    (1, 2, 0): -2, (1, 0, 2): -2,
    (0, 2, 0): 1, (0, 0, 2): 1,
})


def explicit_product(target, exponent):
    """``(u + sum x)^exponent`` times the slack lift of ``target``, expanded.

    The slack coordinate u is an extra compact variable in the first x
    slot, so the product's x-part exponents read ``(alpha0, alpha1, ...)``.
    """
    sh = target.shape
    wide = BlockShape(sh.n + 1, sh.r1, sh.r2, sh.homs)
    total = sum((BlockedPoly.variable(wide, i) for i in range(wide.n)), BlockedPoly.zero(wide))
    degree = target.block_degree("x") + exponent
    out = BlockedPoly.zero(wide)
    for key, coeff in target.terms.items():
        term = BlockedPoly.monomial(wide, (0,) + key, coeff)
        out = out + term * total ** (degree - sum(key[: sh.n]))
    return out


def reassemble(forms, shape):
    """``sum_alpha u^alpha0 x^alpha' F_alpha`` with u an extra first x slot."""
    wide = BlockShape(shape.n + 1, shape.r1, shape.r2, shape.homs)
    out = BlockedPoly.zero(wide)
    for alpha, form in forms.items():
        assert form.shape == shape
        assert all(e[: shape.n] == (0,) * shape.n for e in form.terms)
        for key, coeff in form.terms.items():
            out = out + BlockedPoly.monomial(wide, alpha + key[shape.n :], coeff)
    return out


# --- the slack lift --------------------------------------------------------

def test_slack_lift_of_bump_is_sum_of_square_slices():
    forms = coefficient_forms(BUMP, 0)
    circle = poly({(0, 2, 0): 1, (0, 0, 2): 1})
    assert forms == {(0, 2): circle, (1, 1): BlockedPoly.zero(SH), (2, 0): circle}


def test_slack_lift_substitution_recovers_target():
    # u + sum x = 1 on the simplex, so every saturation exponent gives
    # back the target once u -> 1 - sum x
    rng = random.Random(3)
    for _ in range(25):
        terms = {}
        for ex in range(4):
            ey = rng.choice([(2, 0), (0, 2)])
            terms[(ex,) + ey] = F(rng.randint(-9, 9), rng.randint(1, 5))
        target = poly(terms)
        for exponent in range(3):
            total = BlockedPoly.zero(SH)
            for alpha, form in coefficient_forms(target, exponent).items():
                mono = simplex_u(SH) ** alpha[0]
                for slot, e in zip(SH.block_indices("x"), alpha[1:]):
                    mono = mono * BlockedPoly.variable(SH, slot) ** e
                total = total + mono * form
            assert total == target


def test_slack_lift_is_simplex_homogeneous():
    for exponent in range(4):
        assert {sum(alpha) for alpha in coefficient_forms(BUMP, exponent)} == {2 + exponent}


# --- the exponent cap ------------------------------------------------------

def test_exponent_cap_frozen_values():
    assert polya_exponent_cap(3, F(1), F(1)) == 358
    assert polya_exponent_cap(2, F(4), F(60)) == 5
    assert polya_exponent_cap(1, F(5), F(1)) == 0
    assert polya_exponent_cap(0, F(5), F(1)) == 1


def test_exponent_cap_scales_with_norm_over_clearance():
    base = polya_exponent_cap(3, F(2), F(1))
    assert polya_exponent_cap(3, F(4), F(1)) > base
    assert polya_exponent_cap(3, F(2), F(2)) < base


def test_exponent_cap_rejects_nonpositive_clearance():
    with pytest.raises(ValueError):
        polya_exponent_cap(3, F(1), F(0))


# --- coefficient forms -----------------------------------------------------

def test_coefficient_forms_enumerate_every_monomial():
    forms = coefficient_forms(BUMP, 0)
    assert sorted(forms) == [(0, 2), (1, 1), (2, 0)]
    assert forms[(1, 1)].terms == {}  # the absent middle coefficient


def test_coefficient_forms_reconstruct_the_polynomial():
    rng = random.Random(17)
    for _ in range(10):
        terms = {}
        for ex in range(3):
            for ey in ((2, 0), (1, 1), (0, 2)):
                terms[(ex,) + ey] = F(rng.randint(-5, 5))
        target = poly(terms)
        for exponent in range(3):
            forms = coefficient_forms(target, exponent)
            assert reassemble(forms, SH) == explicit_product(target, exponent)


SH2 = BlockShape(n=2, r1=1, r2=0, homs=("Z",))


@st.composite
def targets(draw):
    shape = draw(st.sampled_from([SH, SH2]))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * shape.width),
        st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
        max_size=6,
    ))
    return BlockedPoly(shape, terms)


@settings(max_examples=60, deadline=None)
@given(target=targets(), exponent=st.integers(0, 3))
def test_coefficient_forms_are_the_coefficients_of_the_explicit_product(target, exponent):
    shape, n = target.shape, target.shape.n
    forms = coefficient_forms(target, exponent)
    degree = target.block_degree("x") + exponent
    every = [a for a in itertools.product(range(degree + 1), repeat=n + 1) if sum(a) == degree]
    assert sorted(forms) == every
    expected = {alpha: {} for alpha in every}
    for key, coeff in explicit_product(target, exponent).terms.items():
        expected[key[: n + 1]][(0,) * n + key[n + 1 :]] = coeff
    assert forms == {alpha: BlockedPoly(shape, t) for alpha, t in expected.items()}


def test_coefficient_form_count_matches_stars_and_bars():
    forms = coefficient_forms(poly({(3, 2, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}), 0)
    assert len(forms) == math.comb(3 + 1, 1)


# --- saturation ------------------------------------------------------------

def test_saturate_bump_needs_exponent_one():
    # At exponent 0 the middle coefficient form is identically zero, so
    # the lift itself is rejected; one multiplication by (u + x) fixes
    # every coefficient to Y^2 + Z^2.
    res = polya_saturate(BUMP, F(1, 2), circle_block(SH))
    assert res.exponent == 1
    assert res.ell == 2
    assert sorted(res.forms) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    for alpha, form in res.forms.items():
        assert expand_identity(res.sos[alpha], ()) == form
    assert reassemble(res.forms, SH) == explicit_product(BUMP, 1)


def test_saturate_positive_coefficients_need_no_exponent():
    # (1 + x^2)(Y^2 + Z^2) lifts to ((u + x)^2 + x^2)(Y^2 + Z^2): every
    # coefficient is already a positive multiple of the sphere form.
    flat = poly({(0, 2, 0): 1, (0, 0, 2): 1, (2, 2, 0): 1, (2, 0, 2): 1})
    res = polya_saturate(flat, F(1, 2), circle_block(SH))
    assert res.exponent == 0
    assert all(expand_identity(res.sos[alpha], ()) == form for alpha, form in res.forms.items())


def test_saturate_zero_touching_target_exceeds_cap():
    # (2x-1)^2 (Y^2+Z^2) vanishes at x = 1/2: the saturated coefficients
    # sum to zero at the balanced point, so some coefficient always
    # fails, and the supplied clearance keeps the cap small.
    flat = poly({
        (2, 2, 0): 4, (2, 0, 2): 4,
        (1, 2, 0): -4, (1, 0, 2): -4,
        (0, 2, 0): 1, (0, 0, 2): 1,
    })
    with pytest.raises(CapExceededError) as err:
        polya_saturate(flat, F(60), circle_block(SH))
    assert err.value.payload["cap"] == 5
    assert err.value.payload["rejected"]


def test_saturate_respects_explicit_cap(monkeypatch):
    monkeypatch.setattr(polya, "polya_exponent_cap", lambda *args: 0)
    with pytest.raises(CapExceededError) as err:
        polya_saturate(BUMP, F(1, 2), circle_block(SH))
    assert err.value.payload["cap"] == 0


def test_saturate_split_shape_two_blocks():
    # (1 + x^2)(Y1^2 + Z1^2)(W1^2 + Z2^2): bihomogeneous of degree (2, 2).
    shape = BlockShape(n=1, r1=1, r2=1, homs=("Z1", "Z2"))
    terms = {}
    for ex in (0, 2):
        for k1 in ((2, 0), (0, 2)):   # Y1^2 or Z1^2
            for k2 in ((2, 0), (0, 2)):  # W1^2 or Z2^2
                key = (ex, k1[0], k2[0], k1[1], k2[1])
                terms[key] = F(1)
    target = BlockedPoly(shape, terms)
    blocks = (
        SphereBlock(
            indices=shape.block_indices("y1") + shape.block_indices("Z1"), degree=2
        ),
        SphereBlock(
            indices=shape.block_indices("y2") + shape.block_indices("Z2"), degree=2
        ),
    )
    res = polya_saturate(target, F(1, 2), blocks)
    assert res.exponent == 0
    for alpha, form in res.forms.items():
        assert form.shape == shape
        assert expand_identity(res.sos[alpha], ()) == form


def test_saturate_rejects_an_exponent_whose_forms_are_not_sos(monkeypatch):
    # The flat target below is accepted at exponent 0; a stalled SOS
    # search there must reject that exponent, and saturation moves on.
    flat = poly({(0, 2, 0): 1, (0, 0, 2): 1, (2, 2, 0): 1, (2, 0, 2): 1})
    real = polya.sos_decompose
    calls = []

    def stall_first_call(form):
        calls.append(form)
        if len(calls) == 1:
            raise SosStalledError("stalled")
        return real(form)

    monkeypatch.setattr(polya, "sos_decompose", stall_first_call)
    res = polya_saturate(flat, F(1, 2), circle_block(SH))
    assert res.exponent == 1
    assert all(expand_identity(res.sos[alpha], ()) == form for alpha, form in res.forms.items())
    calls.clear()
    monkeypatch.setattr(polya, "polya_exponent_cap", lambda *args: 0)
    with pytest.raises(CapExceededError) as err:
        polya_saturate(flat, F(1, 2), circle_block(SH))
    assert err.value.payload["rejected"] == [
        {"exponent": 0, "alpha": [0, 2], "reason": "not sos"}
    ]


# --- the float screen ------------------------------------------------------

def _exact_screen_min(form, blocks):
    """All-Fraction minimum over the full product of the blocks' covers."""
    covers = []
    for b in blocks:
        cover = projected_sphere_cover(len(b.indices), SCREEN_RESOLUTION, tuple(range(len(b.indices))))
        covers.append([cover.representative(i) for i in range(len(cover))])
    best = None
    for combo in itertools.product(*covers):
        point = [F(0)] * form.shape.width
        for block, u in zip(blocks, combo):
            for slot, coord in zip(block.indices, u):
                point[slot] = coord
        value = form.eval_at(point)
        if best is None or value < best:
            best = value
    return best


def _random_form(rng, shape, slot_degrees):
    """Random terms whose exponents on the given slots sum to each degree."""
    terms = {}
    for _ in range(rng.randrange(2, 6)):
        key = [0] * shape.width
        for slots, degree in slot_degrees:
            for _ in range(degree):
                key[rng.choice(slots)] += 1
        terms[tuple(key)] = F(rng.randrange(-9, 10), rng.randrange(1, 5))
    return BlockedPoly(shape, terms)


def test_screen_minimum_matches_an_exact_loop():
    """The float screen is within the float slack of the exact minimum."""
    rng = random.Random(29)
    one = BlockShape(n=1, r1=2, r2=0, homs=("Z",))
    y1, y2 = one.block_indices("y1")
    (z,) = one.block_indices("Z")
    one_block = (SphereBlock(indices=(y1, y2, z), degree=2),)
    two = BlockShape(n=1, r1=1, r2=1, homs=("Z1", "Z2"))
    block1 = two.block_indices("y1") + two.block_indices("Z1")
    block2 = two.block_indices("y2") + two.block_indices("Z2")
    two_blocks = (SphereBlock(indices=block1, degree=2), SphereBlock(indices=block2, degree=2))
    cases = [
        (one, one_block, [((y1, y2, z), 2)]),
        (one, one_block, [((y1, z), 2)]),            # y2 never appears
        (two, two_blocks, [(block1, 2), (block2, 2)]),
        (two, two_blocks, [(block1, 2), (block2[1:], 2)]),  # y2 never appears
    ]
    for shape, blocks, slot_degrees in cases:
        for _ in range(3):
            form = _random_form(rng, shape, slot_degrees)
            exact = _exact_screen_min(form, blocks)
            assert abs(F(_screen_min(form, blocks)) - exact) <= _float_slack(form)
