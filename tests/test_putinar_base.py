"""Facet products of the simplex as exact members of the constraint module."""
import itertools
from fractions import Fraction as F

import pytest

from cylcert import putinar_base
from cylcert.errors import CapExceededError, SearchExhaustedError, ValidationError
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.putinar_base import (
    ModuleWitness,
    base_certificates,
    budget_ladder,
    even_square_root,
    facet_product,
    module_membership,
    parity_vector,
)


def every_parity(shape):
    return set(itertools.product((0, 1), repeat=shape.n + 1))


def interval_gens(shape):
    """g = x(1-x): the unit interval, written in the first x slot."""
    x = BlockedPoly.variable(shape, 0)
    return (x * (BlockedPoly.constant(shape, 1) - x),)


def box_gens(shape):
    """g_i = 1/64 - (x_i - 1/4)^2: the box [1/8, 3/8]^2 inside the simplex."""
    out = []
    for i in shape.block_indices("x"):
        shifted = BlockedPoly.variable(shape, i) - BlockedPoly.constant(shape, F(1, 4))
        out.append(BlockedPoly.constant(shape, F(1, 64)) - shifted * shifted)
    return tuple(out)


# --- exponent helpers ------------------------------------------------------

def test_parity_and_root_recompose_the_exponent():
    for alpha in [(0, 0), (3, 2), (5, 0, 7), (1, 1, 1, 1), (8,)]:
        parity = parity_vector(alpha)
        root = even_square_root(alpha)
        assert all(p in (0, 1) for p in parity)
        assert tuple(2 * r + p for r, p in zip(root, parity)) == alpha


def test_parity_of_even_vector_is_zero():
    assert parity_vector((4, 2, 0, 6)) == (0, 0, 0, 0)
    assert even_square_root((4, 2, 0, 6)) == (2, 1, 0, 3)


# --- facet products --------------------------------------------------------

def test_facet_product_expansions():
    shape = BlockShape(2, 1, 0)
    w = shape.width
    key = lambda *pairs: tuple(
        sum(v for i, v in pairs if i == slot) for slot in range(w)
    )
    u = facet_product(shape, (1, 0, 0))
    assert dict(u.terms) == {key(): F(1), key((0, 1)): F(-1), key((1, 1)): F(-1)}
    ux1 = facet_product(shape, (1, 1, 0))
    assert dict(ux1.terms) == {
        key((0, 1)): F(1),
        key((0, 2)): F(-1),
        key((0, 1), (1, 1)): F(-1),
    }
    assert facet_product(shape, (0, 0, 0)) == BlockedPoly.constant(shape, 1)


def test_facet_product_rejects_bad_parities():
    shape = BlockShape(2, 1, 0)
    with pytest.raises(ValidationError):
        facet_product(shape, (1, 0))
    with pytest.raises(ValidationError):
        facet_product(shape, (1, 2, 0))


# --- single budget attempts ------------------------------------------------

def test_membership_on_the_interval():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    x = BlockedPoly.variable(shape, 0)
    witness = module_membership(x, gens, 4)
    assert witness is not None
    assert witness.verify(gens)
    assert witness.as_poly(gens) == x
    assert all(w > 0 for w in witness.sigma0.weights)
    for _idx, sos in witness.multipliers:
        assert all(w > 0 for w in sos.weights)


def test_membership_unreachable_target_degree():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    x = BlockedPoly.variable(shape, 0)
    # x^4 has degree above anything a budget-2 system can produce.
    assert module_membership(x * x * x * x, gens, 2) is None


def test_membership_rejects_targets_outside_the_x_block():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    y = BlockedPoly.variable(shape, shape.block_indices("y1")[0])
    with pytest.raises(ValidationError):
        module_membership(y, gens, 4)


# --- the budget ladder -----------------------------------------------------

def test_budget_ladder_doubles_from_twice_the_generator_degree(monkeypatch):
    shape = BlockShape(1, 1, 0)
    assert budget_ladder(interval_gens(shape)) == [4, 8, 16]
    x = BlockedPoly.variable(shape, 0)
    assert budget_ladder((x,)) == [2, 4, 8, 16]
    assert budget_ladder((x * x * x * x * x,)) == [10]
    monkeypatch.setattr(putinar_base, "BUDGET_CAP", 4)
    assert budget_ladder(interval_gens(shape)) == [4]


# --- full enumerations -----------------------------------------------------

def test_interval_certificates_cover_all_four_parities():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    certs = base_certificates(shape, gens, every_parity(shape))
    assert set(certs) == set(itertools.product((0, 1), repeat=2))
    for parity, witness in certs.items():
        assert witness.budget == 4
        assert witness.target == facet_product(shape, parity)
        assert witness.verify(gens)


def test_two_constraint_box_covers_all_eight_parities():
    shape = BlockShape(2, 1, 0)
    gens = box_gens(shape)
    certs = base_certificates(shape, gens, every_parity(shape))
    assert set(certs) == set(itertools.product((0, 1), repeat=3))
    for parity, witness in certs.items():
        assert witness.verify(gens)
        assert witness.target == facet_product(shape, parity)
        for _idx, sos in (((None, witness.sigma0),) + witness.multipliers):
            assert all(w > 0 for w in sos.weights)


def test_unusable_generator_exhausts_the_search(monkeypatch):
    shape = BlockShape(1, 1, 0)
    x = BlockedPoly.variable(shape, 0)
    # x^2 vanishes to second order at 0, so x itself can never be written
    # as sigma_0 + sigma_1 x^2; only the empty product survives.
    monkeypatch.setattr(putinar_base, "BUDGET_CAP", 4)
    with pytest.raises(SearchExhaustedError) as err:
        base_certificates(shape, (x * x,), every_parity(shape))
    payload = err.value.payload
    assert payload["budgets"] == [4]
    assert sorted(map(tuple, payload["parities"])) == [(0, 1), (1, 0), (1, 1)]


def test_too_many_variables_is_a_hard_cap():
    shape = BlockShape(7, 1, 0)
    with pytest.raises(CapExceededError) as err:
        base_certificates(shape, interval_gens(shape), every_parity(shape))
    assert err.value.payload["n"] == 7
    assert err.value.payload["max_variables"] == 6


# --- cache handling --------------------------------------------------------

def test_precomputed_witnesses_are_reused_verbatim():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    first = base_certificates(shape, gens, every_parity(shape))
    again = base_certificates(shape, gens, every_parity(shape), precomputed=first)
    for parity in first:
        assert again[parity] is first[parity]


def test_tampered_cache_entries_are_recomputed():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    first = base_certificates(shape, gens, every_parity(shape))
    tampered = dict(first)
    # Claim the decomposition of u for the parity of x: verification fails,
    # so the entry must be rebuilt rather than trusted.
    wrong = ModuleWitness(
        target=facet_product(shape, (0, 1)),
        sigma0=first[(1, 0)].sigma0,
        multipliers=first[(1, 0)].multipliers,
        budget=first[(1, 0)].budget,
    )
    tampered[(0, 1)] = wrong
    repaired = base_certificates(shape, gens, every_parity(shape), precomputed=tampered)
    assert repaired[(0, 1)] is not wrong
    assert repaired[(0, 1)].verify(gens)
    assert repaired[(1, 0)] is first[(1, 0)]


def test_enumeration_is_deterministic():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    one = base_certificates(shape, gens, every_parity(shape))
    two = base_certificates(shape, gens, every_parity(shape))
    assert set(one) == set(two)
    for parity in one:
        assert one[parity] == two[parity]
