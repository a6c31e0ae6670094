"""Facet products of the simplex as exact members of the constraint module."""
import itertools
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path
from typing import Sequence

import pytest

from cylcert import polya, putinar_base, sos
from cylcert.errors import CapExceededError, SearchExhaustedError, ValidationError
from cylcert.pipeline import certify_problem
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.problem import problem_from_obj
from cylcert.putinar_base import (
    ModuleWitness,
    _simplex_vertices,
    base_certificates,
    budget_ladder,
    even_square_root,
    facet_bases,
    facet_product,
    parity_vector,
)
from cylcert.serialize import load_json
from cylcert.sos import GRAM_BASIS_CAP, Exponent, expand_identity, module_witness, monomials

SAMPLES = Path(__file__).resolve().parent.parent / "sample_problems"


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

def witness_identity(sigmas, gens):
    sigma0 = next(deco for idx, deco in sigmas if idx is None)
    return expand_identity(sigma0, ((deco, gens[idx]) for idx, deco in sigmas if idx is not None))


def test_membership_on_the_interval():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    x = BlockedPoly.variable(shape, 0)
    sigmas = module_witness(x, gens, facet_bases(shape, gens, 4, x))
    assert sigmas is not None
    assert witness_identity(sigmas, gens) == x
    for _idx, deco in sigmas:
        assert all(w > 0 for w in deco.weights)


def test_membership_unreachable_target_degree():
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    x4 = BlockedPoly.variable(shape, 0) ** 4
    # x^4 has degree above anything a budget-2 system can produce.
    assert module_witness(x4, gens, facet_bases(shape, gens, 2, x4)) is None


def test_membership_serves_targets_outside_the_x_block():
    # 1 + x y^2 = 1 + y^2 * x(1 - x) + (x y)^2: the search itself places
    # no restriction on which variables the target and bases use.
    shape = BlockShape(1, 1, 0)
    gens = interval_gens(shape)
    one = BlockedPoly.constant(shape, 1)
    x, y = BlockedPoly.variable(shape, 0), BlockedPoly.variable(shape, 1)
    target = one + x * y * y
    bases = [(None, monomials((1, 1), 2)), (0, monomials((0, 1), 1))]
    sigmas = module_witness(target, gens, bases)
    assert sigmas is not None
    assert witness_identity(sigmas, gens) == target


# --- the bases against the builders they replaced ---------------------------
#
# The functions below are the earlier basis builders, copied unchanged:
# the form basis, the per-budget monomial bases of a facet witness and
# their vertex facial reduction.  The one enumerator behind
# ``default_gram_basis`` and ``facet_bases`` must give equal bases in
# equal order.

def _reference_default_gram_basis(target: BlockedPoly) -> list[Exponent]:
    """Monomial basis covering every possible square support of a nonzero target.

    Uses the componentwise-halved exponent box intersected with the
    halved total degree; when the target is homogeneous the basis keeps
    only the matching half degree.  Sizes beyond ``GRAM_BASIS_CAP`` raise
    :class:`CapExceededError`.
    """
    width = target.shape.width
    box = [0] * width
    totals = set()
    for e in target.terms:
        totals.add(sum(e))
        for i, v in enumerate(e):
            box[i] = max(box[i], v)
    total_cap = max(totals) // 2
    homogeneous = len(totals) == 1
    ranges = [range(v // 2 + 1) for v in box]
    out: list[Exponent] = []
    stack: list[tuple[list[int], int]] = [([], 0)]
    while stack:
        prefix, used = stack.pop()
        i = len(prefix)
        if i == width:
            tot = sum(prefix)
            if tot <= total_cap and (not homogeneous or tot == total_cap):
                out.append(tuple(prefix))
            continue
        for v in ranges[i]:
            if used + v <= total_cap:
                stack.append((prefix + [v], used + v))
    out.sort()
    if len(out) > GRAM_BASIS_CAP:
        raise CapExceededError(
            "Gram basis would exceed the size cap",
            basis_size=len(out),
            cap=GRAM_BASIS_CAP,
        )
    return out


def _monomials_up_to(shape: BlockShape, degree: int) -> list[BlockedPoly]:
    """x-only monomials of total degree <= degree, as polynomials."""
    n, width = shape.n, shape.width
    exponents = []
    for total in range(degree + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) == total:
                exponents.append(tuple(alpha) + (0,) * (width - n))
    return [BlockedPoly(shape, {e: Fraction(1)}) for e in sorted(exponents)]


Basis = tuple[BlockedPoly, ...]


def default_bases(
    shape: BlockShape, gens: Sequence[BlockedPoly], budget: int
) -> list[tuple[int | None, Basis]]:
    """One monomial basis per sigma block, degree-capped by the budget."""
    out: list[tuple[int | None, Basis]] = [
        (None, tuple(_monomials_up_to(shape, budget // 2)))
    ]
    for idx, g in enumerate(gens):
        room = budget - g.block_degree("x")
        if room >= 0:
            out.append((idx, tuple(_monomials_up_to(shape, room // 2))))
    return out


def _eliminate_at_points(
    basis: Basis, points: Sequence[tuple[Fraction, ...]]
) -> Basis:
    """Cut the span down to polynomials vanishing at every given point."""
    out = list(basis)
    for point in points:
        values = [q.eval_at(point) for q in out]
        pivot = next((j for j, v in enumerate(values) if v != 0), None)
        if pivot is None:
            continue
        out = [
            out[j] - out[pivot].scale(values[j] / values[pivot])
            for j in range(len(out))
            if j != pivot
        ]
    return tuple(out)


def reduced_bases(
    shape: BlockShape,
    gens: Sequence[BlockedPoly],
    budget: int,
    target: BlockedPoly,
) -> list[tuple[int | None, Basis]] | None:
    """Facial reduction at simplex vertices where the target vanishes.

    At a vertex satisfying every constraint, all terms of the would-be
    decomposition are nonnegative, so a vanishing target forces sigma_0
    (and every sigma_i whose generator is strictly positive there) to
    vanish as well: their Gram matrices annihilate the evaluation
    vector.  Restricting each basis accordingly loses no solutions and
    restores strict feasibility in the common degenerate cases.  Returns
    None when no vertex forces anything.
    """
    vertices = [
        v
        for v in _simplex_vertices(shape)
        if target.eval_at(v) == 0 and all(g.eval_at(v) >= 0 for g in gens)
    ]
    if not vertices:
        return None
    out: list[tuple[int | None, Basis]] = []
    changed = False
    for gen_idx, basis in default_bases(shape, gens, budget):
        points = [
            v
            for v in vertices
            if gen_idx is None or gens[gen_idx].eval_at(v) > 0
        ]
        cut = _eliminate_at_points(basis, points)
        changed = changed or len(cut) != len(basis)
        out.append((gen_idx, cut))
    return out if changed else None


@pytest.fixture(scope="module")
def c6_forms():
    """The coefficient forms the pipeline decomposes for sample problem c6."""
    forms = []
    real = polya.sos_decompose
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polya, "sos_decompose", lambda form: forms.append(form) or real(form))
        certify_problem(problem_from_obj(load_json(SAMPLES / "c6_interval_split_blocks.json")))
    return forms


def test_form_bases_match_the_reference_builder(c6_forms):
    assert len(c6_forms) > 1
    for form in c6_forms:
        assert sos.default_gram_basis(form) == _reference_default_gram_basis(form)


def _as_polys(shape, bases):
    return [
        (idx, [q if isinstance(q, BlockedPoly) else BlockedPoly.monomial(shape, q) for q in basis])
        for idx, basis in bases
    ]


@pytest.mark.parametrize("gens_of, shape", [
    (interval_gens, BlockShape(1, 1, 0)),
    (box_gens, BlockShape(2, 1, 0)),
])
def test_facet_bases_match_the_reference_builders(gens_of, shape):
    gens = gens_of(shape)
    reduced = 0
    for budget in (4, 8, 16):
        for parity in sorted(every_parity(shape)):
            target = facet_product(shape, parity)
            want = reduced_bases(shape, gens, budget, target)
            reduced += want is not None
            if want is None:
                want = default_bases(shape, gens, budget)
            got = facet_bases(shape, gens, budget, target)
            assert _as_polys(shape, got) == _as_polys(shape, want), (budget, parity)
    # facial reduction applies on the interval (3 of its 4 parities), never
    # in the box, whose vertices all lie outside S
    assert reduced == (9 if gens_of is interval_gens else 0)


def test_monomials_are_sorted_and_bounded():
    got = monomials((2, 1, 3), 3)
    assert got == sorted(got)
    want = [e for e in itertools.product(range(3), range(2), range(4)) if sum(e) <= 3]
    assert got == want
    assert monomials((2, 1, 3), 3, exact=True) == [e for e in want if sum(e) == 3]
    assert monomials((), 4) == [()]


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
