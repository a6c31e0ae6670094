"""Base certificates: simplex facets as members of the constraint module.

After saturation the certificate needs every square-free product of the
facet polynomials ``x_1, ..., x_n`` and ``u = 1 - sum(x)`` written as

    sigma_0 + sum_i sigma_i * g_i        (all sigma SOS, x-variables only)

The full monomials ``u^(a0) x^alpha`` then follow by multiplying with
the square of ``u^(a0//2) x^(alpha//2)``.  There are ``2^(n+1)`` such
products.  The monomials of one saturated target all have the same total
degree, so they use only the half of the parities whose entries sum to
that degree mod 2; only those are computed.  The products do not depend
on the target, so they are good candidates for caching.

Each product is one :class:`~cylcert.sos.GramSystem` search with one
block per sigma; the degree budget for the sigmas doubles on failure up
to a hard cap.  When the product vanishes at a simplex vertex that
satisfies every constraint, the feasible Gram matrices are all singular
there, so the bases are first cut down to polynomials vanishing at that
vertex (facial reduction), which restores an interior-feasible system.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapExceededError, SearchExhaustedError, ValidationError
from .poly import BlockedPoly, BlockShape
from .sos import GramSystem, SosDecomposition, expand_identity, gram_decompositions

Exponent = tuple[int, ...]
Parity = tuple[int, ...]

MAX_VARIABLES = 6
BUDGET_CAP = 16


def parity_vector(alpha: Sequence[int]) -> Parity:
    """Componentwise parity of a monomial exponent vector."""
    return tuple(a % 2 for a in alpha)


def even_square_root(alpha: Sequence[int]) -> tuple[int, ...]:
    """Exponents of the square factor: alpha == 2*root + parity."""
    return tuple(a // 2 for a in alpha)


def simplex_u(shape: BlockShape) -> BlockedPoly:
    """The simplex facet polynomial ``u = 1 - sum(x)``."""
    out = BlockedPoly.constant(shape, 1)
    for i in shape.block_indices("x"):
        out = out - BlockedPoly.variable(shape, i)
    return out


def facet_product(shape: BlockShape, parity: Parity) -> BlockedPoly:
    """``u^(p0) * prod x_i^(p_i)`` with ``u = 1 - sum(x)``, expanded.

    The parity vector is indexed ``(u, x_1, ..., x_n)``.
    """
    if len(parity) != shape.n + 1:
        raise ValidationError(
            "parity vector length must be one more than the number of "
            "cylinder variables"
        )
    if any(p not in (0, 1) for p in parity):
        raise ValidationError("parity entries must be 0 or 1")
    out = BlockedPoly.constant(shape, 1)
    if parity[0]:
        out = out * simplex_u(shape)
    for p, i in zip(parity[1:], shape.block_indices("x")):
        if p:
            out = out * BlockedPoly.variable(shape, i)
    return out


@dataclass(frozen=True)
class ModuleWitness:
    """Exact decomposition target = sigma_0 + sum sigma_i * g_i."""

    target: BlockedPoly
    sigma0: SosDecomposition
    multipliers: tuple[tuple[int, SosDecomposition], ...]
    budget: int

    def as_poly(self, gens: Sequence[BlockedPoly]) -> BlockedPoly:
        return expand_identity(
            self.sigma0, ((sos, gens[idx]) for idx, sos in self.multipliers)
        )

    def verify(self, gens: Sequence[BlockedPoly]) -> bool:
        return self.as_poly(gens) == self.target


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


def _simplex_vertices(shape: BlockShape) -> list[tuple[Fraction, ...]]:
    zero = (Fraction(0),) * shape.width
    out = [zero]
    for i in shape.block_indices("x"):
        point = list(zero)
        point[i] = Fraction(1)
        out.append(tuple(point))
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


def module_membership(
    target: BlockedPoly,
    gens: Sequence[BlockedPoly],
    budget: int,
    *,
    system: GramSystem | None = None,
) -> ModuleWitness | None:
    """One budget attempt at target = sigma_0 + sum sigma_i g_i."""
    if target.block_degree("x") != target.total_degree():
        raise ValidationError("module membership targets must use x variables only")
    shape = target.shape
    bases = reduced_bases(shape, gens, budget, target)
    if bases is not None:
        system = GramSystem(shape, gens, bases)
    elif system is None:
        system = GramSystem(shape, gens, default_bases(shape, gens, budget))
    if not system.entries:
        return None
    b = system.rhs(target)
    if b is None:
        return None
    for decos in gram_decompositions(system, b):
        sigmas = [(gen_idx, deco) for (gen_idx, _), deco in zip(system.blocks, decos)]
        witness = ModuleWitness(
            target=target,
            sigma0=next(
                (deco for gen_idx, deco in sigmas if gen_idx is None),
                SosDecomposition(shape, (), ()),
            ),
            multipliers=tuple(
                (idx, deco) for idx, deco in sigmas if idx is not None and deco.weights
            ),
            budget=budget,
        )
        if witness.verify(gens):
            return witness
    return None


def budget_ladder(gens: Sequence[BlockedPoly]) -> list[int]:
    """Budgets doubling from twice the top generator degree up to ``BUDGET_CAP``."""
    start = max(2, 2 * max(g.block_degree("x") for g in gens))
    out = []
    budget = start
    while budget <= BUDGET_CAP:
        out.append(budget)
        budget *= 2
    return out


def base_certificates(
    shape: BlockShape,
    gens: Sequence[BlockedPoly],
    parities: Iterable[Parity],
    *,
    precomputed: dict[Parity, ModuleWitness] | None = None,
) -> dict[Parity, ModuleWitness]:
    """Module decompositions for the square-free facet products named.

    ``parities`` lists the products wanted, as parity vectors over
    ``(u, x_1, ..., x_n)``.  ``precomputed`` entries (from a cache) are
    re-verified and reused; anything missing or failing verification is
    recomputed.  Raises :class:`SearchExhaustedError` when some product
    resists every budget up to ``BUDGET_CAP``, and :class:`CapExceededError`
    when the number of cylinder variables exceeds ``MAX_VARIABLES``.
    """
    if shape.n > MAX_VARIABLES:
        raise CapExceededError(
            "facet certificates are limited to few cylinder variables",
            n=shape.n,
            max_variables=MAX_VARIABLES,
        )
    ladder = budget_ladder(gens)
    systems: dict[int, GramSystem] = {}
    out: dict[Parity, ModuleWitness] = {}
    failed: list[Parity] = []
    for parity in sorted(parities):
        cached = (precomputed or {}).get(parity)
        if cached is not None and cached.verify(gens):
            out[parity] = cached
            continue
        target = facet_product(shape, parity)
        witness = None
        for budget in ladder:
            if budget not in systems:
                systems[budget] = GramSystem(
                    shape, gens, default_bases(shape, gens, budget)
                )
            witness = module_membership(
                target, gens, budget, system=systems[budget]
            )
            if witness is not None:
                break
        if witness is None:
            failed.append(parity)
        else:
            out[parity] = witness
    if failed:
        raise SearchExhaustedError(
            "some facet products admit no module decomposition within "
            "the degree budget",
            parities=[list(p) for p in failed],
            budgets=ladder,
        )
    return out
