"""Simplex saturation: make every coefficient of the Pólya product positive.

A target positive on the reference simplex lifts to a form on the
probability simplex by completing each term to full degree with powers
of ``u + x1 + ... + xn``, where ``u = 1 - sum(x)`` is the slack
coordinate.  Multiplying the lifted form by further powers of the total
sum eventually turns every coefficient -- here a polynomial in the
sphere variables -- into a form that is strictly positive on the
sphere(s).  :func:`coefficient_forms` reads those coefficients straight
off the multinomial formula, so neither the lift nor the product is
built and no polynomial ever carries a slot for ``u``: a form is keyed
by its simplex monomial and lives in the target's own shape.  The
smallest such power is found by incremental search: a cheap float
screen over sphere sample points first, then an exact sum-of-squares
decomposition of every coefficient, which is what the certificate
needs.  In the regimes covered here a form is nonnegative on the sphere
exactly when it is a sum of squares, so the decomposition is the
acceptance test.  The quantitative positivity bound caps the search.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certified import _cover_product, _float_eval, _terms_on_slots
# Not called here; the benchmark's layer tracer wraps this name.
from .certified import certified_excess_check  # noqa: F401
from .covers import projected_sphere_cover
from .errors import CapExceededError, SosStalledError
from .poly import BlockedPoly, multinomial, weighted_norm
from .problem import SphereBlock
from .sos import SosDecomposition, monomials, sos_decompose

# Resolution of the sphere covers behind the float screen.
SCREEN_RESOLUTION = 24


def polya_exponent_cap(ell: int, target_norm: Fraction, fstar: Fraction) -> int:
    """Quantitative cap on the saturation exponent.

    ``fstar`` is the certified clearance of the target over the simplex
    (half the certified minimum, in the pipeline).  Degrees 0 and 1 get
    tiny caps, which is correct: those searches finish at exponent 0.
    """
    if fstar <= 0:
        raise ValueError("fstar must be positive")
    bound = Fraction(15 * (ell + 1) * ell * (ell - 1)) * target_norm / fstar - ell
    return bound.__floor__() + 1


def coefficient_forms(
    target: BlockedPoly, exponent: int
) -> dict[tuple[int, ...], BlockedPoly]:
    """Sphere-variable forms of the saturated target, per simplex monomial.

    With ``target = sum_a x^a F_a`` of x-degree ``ell``, the slack lift
    is ``sum_a x^a F_a (u + sum x)^(ell - |a|)``, so the coefficient of
    ``u^alpha0 x^alpha'`` in ``(u + sum x)^exponent`` times the lift is
    ``sum_{a <= alpha'} multinomial(alpha0, alpha' - a) F_a``.  Keys are
    ``(alpha0, alpha1, ..., alphan)``, one for *every* monomial of degree
    ``ell + exponent`` -- absent coefficients appear as zero polynomials,
    since saturation must reject those.  Values live in the target's
    shape with the x slots at zero.
    """
    shape, n = target.shape, target.shape.n
    parts: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for key, coeff in target.terms.items():
        parts.setdefault(key[:n], {})[(0,) * n + key[n:]] = coeff
    degree = target.block_degree("x") + exponent
    forms: dict[tuple[int, ...], BlockedPoly] = {}
    for alpha in monomials([degree] * (n + 1), degree, exact=True):
        terms: dict[tuple[int, ...], Fraction] = {}
        for a, part in parts.items():
            rest = tuple(e - f for e, f in zip(alpha[1:], a))
            if any(e < 0 for e in rest):
                continue
            weight = multinomial((alpha[0],) + rest)
            for key, coeff in part.items():
                terms[key] = terms.get(key, 0) + weight * coeff
        forms[alpha] = BlockedPoly._trusted(shape, {k: c for k, c in terms.items() if c})
    return forms


def _screen_min(form: BlockedPoly, blocks: tuple[SphereBlock, ...]) -> float:
    """Float64 minimum of a sphere-only form over products of cover points.

    Each block's cover is projected onto the block slots the form
    mentions, which drops duplicate values but no value.
    """
    covers = []
    slots: list[int] = []
    for b in blocks:
        kept = tuple(i for i, s in enumerate(b.indices) if any(e[s] for e in form.terms))
        covers.append(projected_sphere_cover(len(b.indices), SCREEN_RESOLUTION, kept))
        slots.extend(b.indices[i] for i in kept)
    values = _float_eval(_cover_product(covers), _terms_on_slots(form, slots))
    return float(values.min())


@dataclass(frozen=True)
class PolyaResult:
    exponent: int                      # power of the total sum applied
    ell: int                           # x-degree of the target, the lift's simplex degree
    cap: int                           # search bound that was in force
    forms: dict[tuple[int, ...], BlockedPoly]
    sos: dict[tuple[int, ...], SosDecomposition]


def polya_saturate(
    target: BlockedPoly,
    fstar: Fraction,
    blocks: tuple[SphereBlock, ...],
) -> PolyaResult:
    """Smallest exponent making every coefficient form a sum of squares.

    The target must already clear ``fstar`` on the simplex-cross-sphere
    domain; the caller certifies that beforehand.  Raises
    :class:`CapExceededError` when no exponent up to
    :func:`polya_exponent_cap` works (in particular when the target merely
    touches zero, where saturation can never succeed).
    """
    ell = target.block_degree("x")
    cap = polya_exponent_cap(ell, weighted_norm(target), fstar)
    rejected: list[dict[str, object]] = []
    for exponent in range(cap + 1):
        forms = coefficient_forms(target, exponent)
        sos, diagnostic = _decompose_forms(forms, blocks)
        if sos is not None:
            return PolyaResult(exponent=exponent, ell=ell, cap=cap, forms=forms, sos=sos)
        rejected.append({"exponent": exponent, **diagnostic})
    raise CapExceededError(
        "no saturation exponent up to the cap makes every coefficient "
        "form a sum of squares",
        cap=cap,
        ell=ell,
        rejected=rejected[-3:],
    )


def _decompose_forms(
    forms: dict[tuple[int, ...], BlockedPoly],
    blocks: tuple[SphereBlock, ...],
) -> tuple[dict[tuple[int, ...], SosDecomposition] | None, dict[str, object]]:
    """All-or-nothing pass over the coefficient forms.

    Returns ``(decompositions, {})`` on success or ``(None, diagnostic)``
    naming the first offending multi-index.  The float screen runs over
    every form before any exact decomposition starts.
    """
    for alpha, form in forms.items():
        if not form.terms:
            return None, {"alpha": list(alpha), "reason": "zero coefficient"}
        low = _screen_min(form, blocks)
        if low <= 0.0:
            return None, {"alpha": list(alpha), "reason": "screen", "value": low}
    sos: dict[tuple[int, ...], SosDecomposition] = {}
    for alpha, form in forms.items():
        try:
            sos[alpha] = sos_decompose(form)
        except SosStalledError:
            return None, {"alpha": list(alpha), "reason": "not sos"}
    return sos, {}
