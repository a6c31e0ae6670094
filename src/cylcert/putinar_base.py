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
:func:`~cylcert.sos.monomials`.  The search returns the tuple
``(sigma_0, sigma_1, ..., sigma_s)``, empty where no basis was given,
and that tuple is the witness, as a certificate holds its sigmas.  The
degree budget for the sigmas doubles on failure up to a hard cap.  When
the product vanishes at a
simplex vertex that satisfies every constraint, the feasible Gram
matrices are all singular there, so the bases are first cut down to
polynomials vanishing at that vertex (facial reduction), which restores
an interior-feasible system.

``cylcert certify`` keeps the witnesses in a ``.basecache.json`` sidecar
beside the certificate, keyed by :func:`constraints_key`;
:func:`base_cache_to_obj` and :func:`base_cache_from_obj` are its codec,
each entry the sigma list written as in a certificate file.
:func:`base_certificates` reuses a cached entry only when
:func:`~cylcert.certificate.check_representation`, the check
``cylcert verify`` runs on a certificate, accepts it for its facet
product.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .certificate import check_representation, sos_from_obj, sos_to_obj
from .errors import (
    CapExceededError,
    SchemaError,
    SearchExhaustedError,
    ShapeMismatchError,
    ValidationError,
    VerificationError,
)
from .poly import BlockedPoly, BlockShape, SosDecomposition
from .problem import CylinderProblem, problem_to_obj
from .serialize import json_typed, sha256_of_obj
from .sos import Basis, module_witness, monomials

Exponent = tuple[int, ...]
Parity = tuple[int, ...]
# (sigma_0, sigma_1, ..., sigma_s), as module_witness returns it
Witness = tuple[SosDecomposition, ...]

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


# ---------------------------------------------------------------------------
# the witness sidecar
# ---------------------------------------------------------------------------

def constraints_key(problem: CylinderProblem) -> str:
    """The sidecar key: a hash of the input problem's constraint system,
    its ``frame``, ``g``, ``n`` and ``variant``, as the problem file states it."""
    obj = problem_to_obj(problem)
    return sha256_of_obj({field: obj[field] for field in ("frame", "g", "n", "variant")})


def base_cache_to_obj(key: str, witnesses: Mapping[Parity, Witness]) -> dict[str, Any]:
    return {
        "constraints_hash": key,
        "witnesses": {
            "".join(str(b) for b in parity): [sos_to_obj(s) for s in sigmas]
            for parity, sigmas in sorted(witnesses.items())
        },
    }


def base_cache_from_obj(obj: Any, key: str, shape: BlockShape) -> dict[Parity, Witness]:
    """Decode a witness cache; an unrelated or malformed cache is empty.

    Cache misuse must never poison a run: :func:`base_certificates`
    checks every entry before reuse, and a key mismatch simply means the
    constraints changed since the cache was written.  An entry that is
    not a sigma list (the older layouts, an object with ``target``,
    ``budget`` and ``sigmas`` or with ``sigma0`` and ``multipliers``)
    is skipped, so it is recomputed.
    """
    if not isinstance(obj, dict) or obj.get("constraints_hash") != key:
        return {}
    out: dict[Parity, Witness] = {}
    raw = obj.get("witnesses")
    if not isinstance(raw, dict):
        return {}
    for label, entry in raw.items():
        try:
            parity = tuple(int(ch) for ch in label)
            out[parity] = tuple(
                sos_from_obj(s, shape) for s in json_typed(entry, list, "cached witness")
            )
        except (SchemaError, ValueError):
            continue
    return out


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

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
    precomputed: Mapping[Parity, Witness] | None = None,
) -> dict[Parity, Witness]:
    """Module decompositions for the square-free facet products named.

    ``parities`` lists the products wanted, as parity vectors over
    ``(u, x_1, ..., x_n)``.  A ``precomputed`` entry (from a cache) is
    returned as it is when :func:`~cylcert.certificate.check_representation`
    accepts it for this parity's facet product; anything else, an entry
    over another variable layout too, is recomputed.  Raises :class:`SearchExhaustedError` when some product
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
    out: dict[Parity, Witness] = {}
    failed: list[Parity] = []
    for parity in sorted(parities):
        target = facet_product(shape, parity)
        cached = (precomputed or {}).get(parity)
        if cached is not None:
            try:
                check_representation(target, cached, gens)
            except (VerificationError, ShapeMismatchError):
                pass
            else:
                out[parity] = cached
                continue
        for budget in ladder:
            sigmas = module_witness(target, gens, facet_bases(shape, gens, budget, target))
            if sigmas is not None:
                out[parity] = sigmas
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
