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

Each product is one :func:`~cylcert.sos.module_witness` search, the same
search that decomposes coefficient forms, over the bases of
:func:`facet_bases`: one block per sigma, x-only monomials from
:func:`~cylcert.sos.monomials`.  The degree budget for the sigmas
doubles on failure up to a hard cap.  When the product vanishes at a
simplex vertex that satisfies every constraint, the feasible Gram
matrices are all singular there, so the bases are first cut down to
polynomials vanishing at that vertex (facial reduction), which restores
an interior-feasible system.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapExceededError, SearchExhaustedError, ValidationError
from .poly import BlockedPoly, BlockShape
from .sos import Basis, SosDecomposition, expand_identity, module_witness, monomials

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


def _simplex_vertices(shape: BlockShape) -> list[tuple[Fraction, ...]]:
    zero = (Fraction(0),) * shape.width
    out = [zero]
    for i in shape.block_indices("x"):
        point = list(zero)
        point[i] = Fraction(1)
        out.append(tuple(point))
    return out


def _eliminate_at_points(
    shape: BlockShape, basis: Sequence[Exponent], points: Sequence[tuple[Fraction, ...]]
) -> Basis:
    """Cut the span down to polynomials vanishing at every given point."""
    out = [BlockedPoly.monomial(shape, e) for e in basis]
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


def facet_bases(
    shape: BlockShape,
    gens: Sequence[BlockedPoly],
    budget: int,
    target: BlockedPoly,
) -> list[tuple[int | None, Basis]]:
    """One basis per sigma block of a budget attempt at ``target``.

    sigma_0 gets the x-only monomials of degree at most ``budget // 2``,
    and sigma_i those of degree at most ``(budget - deg g_i) // 2``
    (none when ``g_i`` alone exceeds the budget).  Facial reduction: at
    a simplex vertex satisfying every constraint, all terms of the
    would-be decomposition are nonnegative, so a vanishing target forces
    sigma_0 (and every sigma_i whose generator is strictly positive
    there) to vanish as well: their Gram matrices annihilate the
    evaluation vector.  Each such basis is cut to the polynomials
    vanishing at those vertices, which loses no solutions and restores
    strict feasibility in the common degenerate cases.
    """
    vertices = [
        v
        for v in _simplex_vertices(shape)
        if target.eval_at(v) == 0 and all(g.eval_at(v) >= 0 for g in gens)
    ]
    rooms = [(None, budget)] + [(idx, budget - g.block_degree("x")) for idx, g in enumerate(gens)]
    out: list[tuple[int | None, Basis]] = []
    for gen_idx, room in rooms:
        if room < 0:
            continue
        box = [room // 2 if i < shape.n else 0 for i in range(shape.width)]
        points = [
            v
            for v in vertices
            if gen_idx is None or gens[gen_idx].eval_at(v) > 0
        ]
        out.append((gen_idx, _eliminate_at_points(shape, monomials(box, room // 2), points)))
    return out


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
    reused only when they state this parity's facet product, name only
    generators that exist, and expand to it exactly; anything else is
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
    out: dict[Parity, ModuleWitness] = {}
    failed: list[Parity] = []
    for parity in sorted(parities):
        target = facet_product(shape, parity)
        cached = (precomputed or {}).get(parity)
        if (
            cached is not None
            and cached.target == target
            and all(idx in range(len(gens)) for idx, _ in cached.multipliers)
            and cached.verify(gens)
        ):
            out[parity] = cached
            continue
        for budget in ladder:
            sigmas = module_witness(target, gens, facet_bases(shape, gens, budget, target))
            if sigmas is not None:
                out[parity] = ModuleWitness(
                    target=target,
                    sigma0=next(
                        (deco for idx, deco in sigmas if idx is None),
                        SosDecomposition(shape, (), ()),
                    ),
                    multipliers=tuple(
                        (idx, deco) for idx, deco in sigmas if idx is not None and deco.weights
                    ),
                    budget=budget,
                )
                break
        else:
            failed.append(parity)
    if failed:
        raise SearchExhaustedError(
            "some facet products admit no module decomposition within "
            "the degree budget",
            parities=[list(p) for p in failed],
            budgets=ladder,
        )
    return out
