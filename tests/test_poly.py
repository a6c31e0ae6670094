"""Unit tests for the exact blocked-polynomial core."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcert.errors import SchemaError, ShapeMismatchError
from cylcert.poly import (
    BlockShape,
    BlockedPoly,
    ExactSum,
    SosDecomposition,
    block_sum_of_squares,
    coeff_abs_sum,
    expand_identity,
    homogenize_block,
    multinomial,
    substitute,
    weighted_norm,
)
from cylcert.serialize import poly_from_obj
from helpers import is_block_homogeneous


def P(shape: BlockShape, terms: dict) -> BlockedPoly:
    return BlockedPoly(shape, {k: Fraction(v) for k, v in terms.items()})


def random_poly(rng: random.Random, shape: BlockShape, max_terms: int = 5, max_deg: int = 3) -> BlockedPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(shape.width))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return BlockedPoly(shape, terms)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_multiply_binomial_square():
    # (X1 + Y)^2 = X1^2 + 2 X1 Y + Y^2
    sh = BlockShape(n=1, r1=1)
    p = P(sh, {(1, 0): 1, (0, 1): 1})
    assert (p * p).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_multiply_identity():
    sh = BlockShape(n=2, r1=1)
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, sh)
        assert p * BlockedPoly.constant(sh, 1) == p


def test_multiply_difference_of_squares():
    sh = BlockShape(n=2, r1=0)
    x1 = BlockedPoly.variable(sh, 0)
    x2 = BlockedPoly.variable(sh, 1)
    assert (x1 - x2) * (x1 + x2) == x1 * x1 - x2 * x2


def test_multiply_shape_mismatch():
    a = BlockedPoly.constant(BlockShape(1, 1), 1)
    b = BlockedPoly.constant(BlockShape(2, 1), 1)
    with pytest.raises(ShapeMismatchError):
        _ = a * b


def test_ring_axioms_random():
    rng = random.Random(2024)
    sh = BlockShape(n=2, r1=1, homs=("Z",))
    for _ in range(40):
        a = random_poly(rng, sh)
        b = random_poly(rng, sh)
        c = random_poly(rng, sh)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a - b) + b == a


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_x0_affine():
    # Z^2 with Z -> 1 - X1 gives 1 - 2 X1 + X1^2
    sh = BlockShape(n=1, r1=0, homs=("Z",))
    z = sh.hom_index("Z")
    p = BlockedPoly.monomial(sh, (0, 2))
    repl = BlockedPoly.constant(sh, 1) - BlockedPoly.variable(sh, 0)
    q = substitute(p, {z: repl})
    assert q.terms == {(0, 0): 1, (1, 0): -2, (2, 0): 1}


def test_substitute_z_to_one():
    sh = BlockShape(n=0, r1=1, homs=("Z",))
    p = P(sh, {(2, 0): 1, (0, 2): 1})  # Y^2 + Z^2
    q = substitute(p, {sh.hom_index("Z"): BlockedPoly.constant(sh, 1)})
    assert q.terms == {(2, 0): 1, (0, 0): 1}


def test_substitute_unknown_variable():
    sh = BlockShape(n=1, r1=0)
    p = BlockedPoly.variable(sh, 0)
    with pytest.raises(IndexError):
        substitute(p, {3: p})


def test_substitute_composes_with_eval():
    rng = random.Random(11)
    sh = BlockShape(n=2, r1=1)
    for _ in range(15):
        p = random_poly(rng, sh, max_terms=4, max_deg=2)
        r = random_poly(rng, sh, max_terms=3, max_deg=2)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(sh.width)]
        composed = substitute(p, {0: r})
        direct_pt = list(pt)
        direct_pt[0] = r.eval_at(pt)
        assert composed.eval_at(pt) == p.eval_at(direct_pt)


# ---------------------------------------------------------------------------
# block homogenization
# ---------------------------------------------------------------------------

def test_homogenize_simple():
    # Y^2 + X1, pad Y-block to degree 2 with Z: Y^2 + X1 Z^2
    sh = BlockShape(n=1, r1=1)
    p = P(sh, {(0, 2): 1, (1, 0): 1})
    q = homogenize_block(p, "y1", 2, "Z")
    assert q.shape.homs == ("Z",)
    assert q.terms == {(0, 2, 0): 1, (1, 0, 2): 1}
    assert is_block_homogeneous(q, "y1", "Z")


def test_homogenize_already_homogeneous():
    sh = BlockShape(n=1, r1=2)
    p = P(sh, {(0, 2, 0): 1, (1, 1, 1): -3})
    q = homogenize_block(p, "y1", 2, "Z")
    z = q.shape.hom_index("Z")
    assert all(exp[z] == 0 for exp in q.terms)


def test_bihomogenize_split_case():
    # Y1*W1^2 + 1, first block to degree 1 with Z1, second to 2 with Z2:
    # result Y1*W1^2 + Z1*Z2^2
    sh = BlockShape(n=0, r1=1, r2=1)
    p = P(sh, {(1, 2): 1, (0, 0): 1})
    q = homogenize_block(homogenize_block(p, "y1", 1, "Z1"), "y2", 2, "Z2")
    assert q.shape.homs == ("Z1", "Z2")
    assert q.terms == {(1, 2, 0, 0): 1, (0, 0, 1, 2): 1}
    assert is_block_homogeneous(q, "y1", "Z1")
    assert is_block_homogeneous(q, "y2", "Z2")


def test_homogenize_degree_too_small():
    sh = BlockShape(n=0, r1=1)
    p = P(sh, {(3,): 1})
    with pytest.raises(ValueError):
        homogenize_block(p, "y1", 2, "Z")


def test_homogenize_then_dehomogenize_is_identity():
    rng = random.Random(5)
    sh = BlockShape(n=2, r1=2)
    for _ in range(25):
        p = random_poly(rng, sh, max_terms=6, max_deg=3)
        m = p.block_degree("y1") + rng.randint(0, 2)
        q = homogenize_block(p, "y1", m, "Z")
        back = substitute(q, {q.shape.hom_index("Z"): BlockedPoly.constant(q.shape, 1)})
        assert back == p.embed(q.shape)


# ---------------------------------------------------------------------------
# weighted norm
# ---------------------------------------------------------------------------

def test_norm_cross_term_weight():
    # X1*X2 has weight binom(2;1,1) = 2, so the norm is 1/2
    sh = BlockShape(n=2, r1=0)
    p = P(sh, {(1, 1): 1})
    assert weighted_norm(p) == Fraction(1, 2)


def test_norm_mixed_unbounded():
    # X1^2 + X1*Y^2: both X-weights are 1 (Y carries no weight)
    sh = BlockShape(n=1, r1=1)
    p = P(sh, {(2, 0): 1, (1, 2): 1})
    assert weighted_norm(p) == 1


def test_norm_constant():
    sh = BlockShape(n=2, r1=1)
    assert weighted_norm(BlockedPoly.constant(sh, 3)) == 3


def test_norm_homogeneity_and_subadditivity():
    rng = random.Random(99)
    sh = BlockShape(n=3, r1=1)
    for _ in range(30):
        p = random_poly(rng, sh)
        q = random_poly(rng, sh)
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        assert weighted_norm(p.scale(c)) == abs(c) * weighted_norm(p)
        assert weighted_norm(p + q) <= weighted_norm(p) + weighted_norm(q)


# ---------------------------------------------------------------------------
# degrees and misc helpers
# ---------------------------------------------------------------------------

def test_block_degree():
    sh = BlockShape(n=1, r1=1)
    p = P(sh, {(2, 1): 1, (0, 3): 1})  # X1^2 Y + Y^3
    assert p.block_degree("y1") == 3
    assert p.block_degree("x") == 2
    assert BlockedPoly.zero(sh).block_degree("x") == 0
    assert BlockedPoly.zero(sh).block_degree("y1") == 0


def test_multinomial_values():
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 0)) == 1
    assert multinomial((2, 1, 1)) == 12
    assert multinomial(()) == 1


def test_power_matches_repeated_multiplication():
    rng = random.Random(3)
    sh = BlockShape(n=2, r1=1)
    for _ in range(10):
        p = random_poly(rng, sh, max_terms=3, max_deg=2)
        assert p**0 == BlockedPoly.constant(sh, 1)
        assert p**1 == p
        assert p**3 == p * p * p


def test_eval_exact():
    sh = BlockShape(n=1, r1=1)
    p = P(sh, {(1, 2): 3, (0, 0): -1})  # 3 X1 Y^2 - 1
    assert p.eval_at([Fraction(1, 2), Fraction(2)]) == Fraction(5)


def simplex_sum(shape: BlockShape) -> BlockedPoly:
    """X1 + ... + Xn."""
    total = BlockedPoly.zero(shape)
    for i in range(shape.n):
        total = total + BlockedPoly.variable(shape, i)
    return total


def test_block_sum_of_squares_and_simplex_sum():
    sh = BlockShape(n=3, r1=2, homs=("Z",))
    q = block_sum_of_squares(sh, "y1", "Z")
    pt = [Fraction(0), Fraction(0), Fraction(0), Fraction(2), Fraction(3), Fraction(5)]
    assert q.eval_at(pt) == 4 + 9 + 25
    s = simplex_sum(sh)
    pt2 = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)]
    assert s.eval_at(pt2) == 1


def test_coeff_abs_sum():
    sh = BlockShape(n=1, r1=0)
    p = P(sh, {(0,): Fraction(-3, 2), (2,): 2})
    assert coeff_abs_sum(p) == Fraction(7, 2)


def test_zero_coefficients_dropped():
    sh = BlockShape(n=1, r1=0)
    p = BlockedPoly(sh, {(1,): Fraction(0), (2,): Fraction(1)})
    assert (1,) not in p.terms
    q = P(sh, {(2,): 1})
    assert (p - q) == BlockedPoly.zero(sh)
    assert not (p - q)


def test_embed_and_drop_homogenizers():
    sh = BlockShape(n=1, r1=1)
    p = P(sh, {(1, 1): 2})
    wide = p.embed(sh.with_homogenizers("Z2", "Z"))
    assert wide.shape.homs == ("Z", "Z2")
    assert wide.terms == {(1, 1, 0, 0): 2}


# ---------------------------------------------------------------------------
# the exact product kernel against an all-Fraction reference
# ---------------------------------------------------------------------------

KERNEL_SHAPE = BlockShape(n=2, r1=1)
# Large, pairwise co-prime denominators make the common denominators big.
BIG_DENOMINATORS = (1, 3**40, 2**61 - 1, 10**9 + 7, 998_244_353, 2**89 - 1)


# Exponents past a 64-bit field: expand_identity packs each monomial into
# one int, with fields as wide as the largest exponent needs.
HUGE_EXPONENTS = st.sampled_from((2**64 - 1, 2**64, 2**64 + 1, 2**65 + 3, 10**30))


@st.composite
def kernel_polys(draw, max_terms=5, max_exp=3, huge_slot=None):
    slots = [st.integers(0, max_exp)] * KERNEL_SHAPE.width
    if huge_slot is not None:
        slots[huge_slot] = st.one_of(slots[huge_slot], HUGE_EXPONENTS)
    exps = st.tuples(*slots)
    coeffs = st.builds(
        Fraction, st.integers(-(10**12), 10**12), st.sampled_from(BIG_DENOMINATORS)
    )
    return BlockedPoly(KERNEL_SHAPE, draw(st.dictionaries(exps, coeffs, max_size=max_terms)))


def _ref_add(acc, c, terms):
    """acc += c * terms, one term at a time, dropping sums that reach zero."""
    for e, v in terms.items():
        s = acc.get(e, Fraction(0)) + c * v
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _ref_add(out, c1 * c2, {tuple(a + b for a, b in zip(e1, e2)): Fraction(1)})
    return out


def _ref_sos(weights, squares):
    out = {}
    for w, q in zip(weights, squares):
        _ref_add(out, w, _ref_mul(q.terms, q.terms))
    return out


def _ref_substitute(p, assignments):
    out = {}
    for exp, coeff in p.terms.items():
        term = {tuple(0 if i in assignments else e for i, e in enumerate(exp)): coeff}
        for idx, rhs in assignments.items():
            for _ in range(exp[idx]):
                term = _ref_mul(term, rhs.terms)
        _ref_add(out, Fraction(1), term)
    return out


def _assert_clean(p):
    # __eq__ compares term dicts, so a stored zero would break equality.
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    assert all(len(e) == p.shape.width and min(e) >= 0 for e in p.terms)


@settings(max_examples=25, deadline=None)
@given(p=kernel_polys(), q=kernel_polys())
def test_product_matches_fraction_reference(p, q):
    for left, right in ((p, q), (p + q, p - q), (p, -p), (q, q)):
        product = left * right
        expected = _ref_mul(left.terms, right.terms)
        _assert_clean(product)
        # same terms, inserted in the same order as the term-by-term loop
        assert list(product.terms.items()) == list(expected.items())
    cancelled = ExactSum(KERNEL_SHAPE)
    cancelled.add_product(Fraction(3, 7), p, q)
    cancelled.add_product(Fraction(-3, 7), q, p)
    assert not cancelled.poly().terms


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sums_of_squares_and_identity_match_fraction_reference(data):
    huge_slot = data.draw(st.sampled_from((None, 0, 2)))
    weight = st.builds(
        Fraction, st.integers(1, 10**9), st.sampled_from(BIG_DENOMINATORS)
    )
    one = BlockedPoly.constant(KERNEL_SHAPE, 1)

    def sos(cancel):
        squares = data.draw(st.lists(kernel_polys(4, huge_slot=huge_slot), max_size=4))
        if data.draw(st.booleans()):
            # one weight denominator, and q + 1 beside each q, which keeps
            # q's denominator: several squares share each denominator group
            den = data.draw(st.sampled_from(BIG_DENOMINATORS))
            squares += [q + one for q in squares]
            weights = [Fraction(data.draw(st.integers(1, 10**9)), den) for _ in squares]
        else:
            weights = [data.draw(weight) for _ in squares]
        if cancel == "one" and squares:
            # a square and its negation: the expansion must drop every term
            squares.append(squares[0])
            weights.append(-weights[0])
        elif cancel == "all":
            # every square against its negation: the sigma is zero
            squares += squares
            weights += [-w for w in weights]
        return SosDecomposition(KERNEL_SHAPE, tuple(weights), tuple(squares))

    cancels = st.sampled_from(("none", "one", "all"))
    sigma0 = sos(data.draw(cancels))
    expanded = expand_identity(sigma0, ())
    _assert_clean(expanded)
    assert expanded.terms == _ref_sos(sigma0.weights, sigma0.squares)

    products = [(sos(data.draw(cancels)), data.draw(kernel_polys(3, huge_slot=huge_slot)))
                for _ in range(2)]
    identity = expand_identity(sigma0, products)
    expected = _ref_sos(sigma0.weights, sigma0.squares)
    for sigma, g in products:
        _ref_add(expected, Fraction(1), _ref_mul(_ref_sos(sigma.weights, sigma.squares), g.terms))
    _assert_clean(identity)
    assert identity.terms == expected


def test_monomials_that_share_a_64_bit_packing_stay_distinct():
    # In fixed 64-bit fields, X1^(2^64) would pack to the key of X2: the
    # two terms below would merge, and with opposite signs cancel.
    x1_half = BlockedPoly.monomial(KERNEL_SHAPE, (2**63, 0, 0))
    x2 = BlockedPoly.variable(KERNEL_SHAPE, 1)
    one = BlockedPoly.constant(KERNEL_SHAPE, 1)
    sigma0 = SosDecomposition(KERNEL_SHAPE, (Fraction(1),), (x1_half,))
    sigma1 = SosDecomposition(KERNEL_SHAPE, (Fraction(1, 3),), (one,))
    for sign in (1, -1):
        identity = expand_identity(sigma0, [(sigma1, x2.scale(sign))])
        assert identity.terms == {(2**64, 0, 0): Fraction(1), (0, 1, 0): Fraction(sign, 3)}
    # the same two keys from one square's cross terms, and the top slot too
    y_top = BlockedPoly.monomial(KERNEL_SHAPE, (0, 0, 2**64))
    square = SosDecomposition(KERNEL_SHAPE, (Fraction(2),), (x1_half + x2 + y_top,))
    assert expand_identity(square, ()) == P(KERNEL_SHAPE, {
        (2**64, 0, 0): 2, (0, 2, 0): 2, (0, 0, 2**65): 2,
        (2**63, 1, 0): 4, (2**63, 0, 2**64): 4, (0, 1, 2**64): 4,
    })


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_primitive_keeps_the_sum_over_merged_primitive_integer_squares(data):
    zero = BlockedPoly.zero(KERNEL_SHAPE)
    squares = data.draw(st.lists(kernel_polys(4), max_size=4))
    # rescaled, negated and zero copies, which primitive() must merge or drop
    scales = st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool),
                       st.sampled_from(BIG_DENOMINATORS))
    squares += [q.scale(data.draw(scales)) for q in squares] + [zero]
    squares = data.draw(st.permutations(squares))
    weight = st.builds(Fraction, st.integers(1, 10**9), st.sampled_from(BIG_DENOMINATORS))
    weights = [data.draw(weight) for _ in squares]
    sigma = SosDecomposition(KERNEL_SHAPE, tuple(weights), tuple(squares))
    prim = sigma.primitive()

    assert expand_identity(prim, ()) == expand_identity(sigma, ())
    assert len(prim.weights) == len(prim.squares)
    assert all(w > 0 for w in prim.weights)
    for q in prim.squares:
        den, nums = q._ints
        assert nums and den == 1  # zero squares dropped, integer coefficients
        assert math.gcd(*[a for _, a in nums]) == 1
        assert q.sorted_terms()[0][1] > 0
    assert len(set(prim.squares)) == len(prim.squares)
    # one square per class of nonzero squares equal up to a rational factor
    classes = {frozenset(q.scale(1 / q.sorted_terms()[0][1]).terms.items()) for q in squares if q}
    assert len(prim.squares) == len(classes)
    assert prim.primitive() == prim


def test_primitive_merges_a_square_with_its_negation_in_first_seen_order():
    x = BlockedPoly.variable(KERNEL_SHAPE, 0)
    y = BlockedPoly.variable(KERNEL_SHAPE, 2)
    one = BlockedPoly.constant(KERNEL_SHAPE, 1)
    q = x.scale(Fraction(-2, 3)) + one.scale(Fraction(4, 3))  # -2/3 * (x - 2)
    sigma = SosDecomposition(
        KERNEL_SHAPE,
        (Fraction(1), Fraction(5), Fraction(1, 2), Fraction(7)),
        (q, y.scale(3), BlockedPoly.zero(KERNEL_SHAPE), -q),
    )
    prim = sigma.primitive()
    # x - 2 starts at its constant term, so the primitive square is 2 - x
    assert prim.squares == (one.scale(2) - x, y)
    assert prim.weights == (Fraction(4, 9) * 8, Fraction(45))
    assert SosDecomposition(KERNEL_SHAPE, (), ()).primitive().squares == ()


@settings(max_examples=25, deadline=None)
@given(p=kernel_polys(), r0=kernel_polys(3), r2=kernel_polys(3))
def test_substitute_matches_fraction_reference(p, r0, r2):
    for assignments in ({0: r0}, {0: r0, 2: r2}, {2: -r2}):
        result = substitute(p, assignments)
        _assert_clean(result)
        assert result.terms == _ref_substitute(p, assignments)


def _ref_eval(p, point):
    total = Fraction(0)
    for exp, coeff in p.terms.items():
        val = coeff
        for v, e in zip(point, exp):
            if e:
                val *= v**e
        total += val
    return total


kernel_points = st.tuples(*[
    st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(BIG_DENOMINATORS)),
    )
] * KERNEL_SHAPE.width)


@settings(max_examples=40, deadline=None)
@given(p=kernel_polys(8, max_exp=40), point=kernel_points)
def test_eval_at_matches_fraction_reference(p, point):
    for poly in (p, -p, p * p, BlockedPoly.zero(KERNEL_SHAPE)):
        value = poly.eval_at(point)
        assert type(value) is Fraction
        assert value == _ref_eval(poly, point)
    for bad in (point[:-1], point + (Fraction(1),)):
        with pytest.raises(ShapeMismatchError):
            p.eval_at(bad)
        with pytest.raises(ShapeMismatchError):
            BlockedPoly.zero(KERNEL_SHAPE).eval_at(bad)


@settings(max_examples=40, deadline=None)
@given(
    p=kernel_polys(8, max_exp=40),
    points=st.lists(kernel_points, min_size=1, max_size=4),
    ints=st.tuples(*[st.integers(-(10**6), 10**6)] * KERNEL_SHAPE.width),
)
def test_cached_evaluator_matches_fraction_reference(p, points, ints):
    """eval_at keeps what it needs of the terms after its first call;
    every later call, at any point, still gives the reference value."""
    den, nums = p._ints
    from_ints = BlockedPoly._from_ints(KERNEL_SHAPE, den, dict(nums))
    built = BlockedPoly(KERNEL_SHAPE, p.terms)
    zero = BlockedPoly(KERNEL_SHAPE, {})
    for poly in (from_ints, built, zero, p * p):
        terms = dict(poly.terms)
        for bad in (points[0][:-1], points[0] + (Fraction(1),)):
            with pytest.raises(ShapeMismatchError):
                poly.eval_at(bad)  # before the cache is filled
        for point in [*points, *points]:
            value = poly.eval_at(point)
            assert type(value) is Fraction
            assert value == _ref_eval(poly, point)
        # a coordinate given as an int, next to Fractions
        mixed = (ints[0], *points[0][1:])
        assert poly.eval_at(mixed) == _ref_eval(poly, tuple(map(Fraction, mixed)))
        assert poly.eval_at(ints) == _ref_eval(poly, tuple(map(Fraction, ints)))
        for bad in (points[0][:-1], points[0] + (Fraction(1),)):
            with pytest.raises(ShapeMismatchError):
                poly.eval_at(bad)  # after it is filled
        assert poly.terms == terms


@settings(max_examples=60, deadline=None)
@given(
    p=kernel_polys(8),
    k=st.integers(1, 10**6),
    zeros=st.lists(st.tuples(*[st.integers(0, 3)] * KERNEL_SHAPE.width), max_size=4),
)
def test_fractions_and_unreduced_numerators_store_one_form(p, k, zeros):
    """The same value given as Fractions, or as numerators over k times its
    denominator with zero entries mixed in, is one stored form."""
    terms = p.terms
    den = k * math.lcm(*[c.denominator for c in terms.values()])
    nums = {e: 0 for e in zeros}
    nums.update({e: int(c * den) for e, c in terms.items()})
    nums.update({(9, *e[1:]): 0 for e in zeros})
    q = BlockedPoly._from_ints(KERNEL_SHAPE, den, nums)
    built = BlockedPoly(KERNEL_SHAPE, terms)
    assert q == built and hash(q) == hash(built)
    assert q._ints[0] == built._ints[0] and dict(q._ints[1]) == dict(built._ints[1])
    assert q.terms == terms
    _assert_clean(q)


def test_poly_from_obj_drops_cancelling_duplicates_and_checks_exponents():
    sh = BlockShape(n=1, r1=1)
    p = poly_from_obj(
        [
            {"x": [1], "y1": [0], "c": "1/3"},
            {"x": [2], "y1": [1], "c": "5"},
            {"x": [1], "y1": [0], "c": "-1/3"},
            {"x": [2], "y1": [1], "h": {}, "c": "2"},
        ],
        sh,
    )
    _assert_clean(p)
    assert p.terms == {(2, 1): 7}
    for bad in ([-1], [1.0], ["1"], [True]):
        with pytest.raises(SchemaError):
            poly_from_obj([{"x": bad, "y1": [0], "c": "1"}], sh)
    # no file has homogenizers: a term's "h" is {} or absent
    for bad in ({"Z": 1}, {"Z": 0}, [], None):
        with pytest.raises(SchemaError):
            poly_from_obj([{"x": [0], "y1": [0], "h": bad, "c": "1"}], sh)
    with pytest.raises(ShapeMismatchError):
        poly_from_obj([], BlockShape(n=1, r1=1, homs=("Z",)))
