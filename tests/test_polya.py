"""Simplex saturation: slack lift, exponent cap, coefficient forms, screen."""
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from cylcert import polya
from cylcert.certified import _float_slack
from cylcert.covers import projected_sphere_cover
from cylcert.errors import CapExceededError, SosStalledError, ValidationError
from cylcert.polya import (
    SCREEN_RESOLUTION,
    _screen_min,
    coefficient_forms,
    homogenize_with_slack,
    polya_exponent_cap,
    polya_saturate,
)
from cylcert.poly import BlockShape, BlockedPoly, substitute
from cylcert.problem import SphereBlock
from helpers import is_block_homogeneous


SH = BlockShape(n=1, r1=1, r2=0, homs=("Z",))


def poly(terms, shape=SH):
    return BlockedPoly(shape, {k: F(v) for k, v in terms.items()})


def circle_block(shape):
    return (
        SphereBlock(
            indices=shape.block_indices("y1") + shape.block_indices("Z"), degree=2
        ),
    )


# h = (2x^2 - 2x + 1)(Y^2 + Z^2); its slack lift is (X0^2+X1^2)(Y^2+Z^2)
BUMP = poly({
    (2, 2, 0): 2, (2, 0, 2): 2,
    (1, 2, 0): -2, (1, 0, 2): -2,
    (0, 2, 0): 1, (0, 0, 2): 1,
})


# --- the slack lift --------------------------------------------------------

def test_slack_lift_of_bump_is_sum_of_square_slices():
    lifted = homogenize_with_slack(BUMP)
    shape = lifted.shape
    x1, y = shape.block_indices("x")[0], shape.block_indices("y1")[0]
    x0, z = shape.block_indices("X0")[0], shape.block_indices("Z")[0]
    expect = {}
    for a in (x0, x1):
        for b in (y, z):
            key = [0] * shape.width
            key[a] += 2
            key[b] += 2
            expect[tuple(key)] = F(1)
    assert dict(lifted.terms) == expect


def test_slack_lift_substitution_recovers_target():
    rng = random.Random(3)
    for _ in range(25):
        terms = {}
        for ex in range(4):
            ey = rng.choice([(2, 0), (0, 2)])
            terms[(ex,) + ey] = F(rng.randint(-9, 9), rng.randint(1, 5))
        target = poly(terms)
        lifted = homogenize_with_slack(target)
        shape = lifted.shape
        x0 = shape.block_indices("X0")[0]
        ones = BlockedPoly.constant(shape, 1)
        for i in shape.block_indices("x"):
            ones = ones - BlockedPoly.variable(shape, i)
        assert substitute(lifted, {x0: ones}) == target.embed(shape)


def test_slack_lift_is_simplex_homogeneous():
    lifted = homogenize_with_slack(BUMP)
    assert is_block_homogeneous(lifted, "x", "X0")
    assert lifted.block_degree("x", "X0") == 2


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
    lifted = homogenize_with_slack(BUMP)
    forms = coefficient_forms(lifted)
    assert sorted(forms) == [(0, 2), (1, 1), (2, 0)]
    assert forms[(1, 1)].terms == {}  # the absent middle coefficient


def test_coefficient_forms_reconstruct_the_polynomial():
    rng = random.Random(17)
    for _ in range(10):
        terms = {}
        for ex in range(3):
            for ey in ((2, 0), (1, 1), (0, 2)):
                terms[(ex,) + ey] = F(rng.randint(-5, 5))
        lifted = homogenize_with_slack(poly(terms))
        shape = lifted.shape
        slots = shape.block_indices("X0") + shape.block_indices("x")
        acc = BlockedPoly.zero(shape)
        for alpha, form in coefficient_forms(lifted).items():
            mono = BlockedPoly.constant(shape, 1)
            for s, e in zip(slots, alpha):
                for _ in range(e):
                    mono = mono * BlockedPoly.variable(shape, s)
            acc = acc + mono * form
        assert acc == lifted


def test_coefficient_form_count_matches_stars_and_bars():
    lifted = homogenize_with_slack(poly({(3, 2, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}))
    forms = coefficient_forms(lifted)
    assert len(forms) == math.comb(3 + 1, 1)


# --- saturation ------------------------------------------------------------

def test_saturate_bump_needs_exponent_one():
    # At exponent 0 the middle coefficient form is identically zero, so
    # the lift itself is rejected; one multiplication by (X0 + X1) fixes
    # every coefficient to Y^2 + Z^2.
    res = polya_saturate(BUMP, F(1, 2), circle_block(SH))
    assert res.exponent == 1
    assert res.ell == 2
    assert sorted(res.forms) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    for alpha, form in res.forms.items():
        assert res.sos[alpha].verify(form)
    total = BlockedPoly.zero(res.saturated.shape)
    shape = res.saturated.shape
    slots = shape.block_indices("X0") + shape.block_indices("x")
    for alpha, form in res.forms.items():
        mono = BlockedPoly.constant(shape, 1)
        for s, e in zip(slots, alpha):
            for _ in range(e):
                mono = mono * BlockedPoly.variable(shape, s)
        total = total + mono * form
    assert total == res.saturated


def test_saturate_positive_coefficients_need_no_exponent():
    # (1 + x^2)(Y^2 + Z^2) lifts to ((X0+X1)^2 + X1^2)(Y^2+Z^2): every
    # coefficient is already a positive multiple of the sphere form.
    flat = poly({(0, 2, 0): 1, (0, 0, 2): 1, (2, 2, 0): 1, (2, 0, 2): 1})
    res = polya_saturate(flat, F(1, 2), circle_block(SH))
    assert res.exponent == 0
    assert all(res.sos[alpha].verify(form) for alpha, form in res.forms.items())


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


def test_saturate_rejects_slack_variable_use():
    shape = SH.with_homogenizers("X0")
    bad = BlockedPoly(
        shape, {(0, 2, 1, 0): F(1), (0, 0, 1, 2): F(1)}
    )
    with pytest.raises(ValidationError):
        polya_saturate(bad, F(1), circle_block(SH))


def test_saturate_remaps_sphere_blocks_into_lifted_coordinates():
    res = polya_saturate(BUMP, F(1, 2), circle_block(SH))
    shape = res.saturated.shape
    (block,) = res.blocks
    names = {shape.var_name(i) for i in block.indices}
    assert names == {"Y1", "Z"}


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
    new_shape = res.saturated.shape
    for block, want in zip(res.blocks, ({"Y1", "Z1"}, {"W1", "Z2"})):
        assert {new_shape.var_name(i) for i in block.indices} == want
    for alpha, form in res.forms.items():
        assert res.sos[alpha].verify(form)


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
    assert all(res.sos[alpha].verify(form) for alpha, form in res.forms.items())
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
        covers.append([cover.point(i) for i in range(len(cover))])
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
