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
smallest such power is found by incremental search: an exact sign test
at the spheres' coordinate points first (a sum of squares is
nonnegative everywhere, so a form negative at one of them cannot pass),
then an exact sum-of-squares decomposition of every coefficient, which
is what the certificate needs.  In the regimes covered here a form is
nonnegative on the sphere exactly when it is a sum of squares, so the
decomposition is the acceptance test.  The quantitative positivity
bound caps the search.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

# Not called here; the benchmark's layer tracer wraps this name.
from .certified import certified_excess_check  # noqa: F401
from .errors import CapExceededError, SosStalledError
from .poly import BlockedPoly, SosDecomposition, multinomial, weighted_norm
from .problem import SphereBlock
from .sos import monomials, sos_decompose


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
    den, nums = target._ints
    parts: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for key, num in nums:
        parts.setdefault(key[:n], {})[(0,) * n + key[n:]] = num
    degree = target.block_degree("x") + exponent
    forms: dict[tuple[int, ...], BlockedPoly] = {}
    for alpha in monomials([degree] * (n + 1), degree, exact=True):
        terms: dict[tuple[int, ...], int] = {}
        for a, part in parts.items():
            rest = tuple(e - f for e, f in zip(alpha[1:], a))
            if any(e < 0 for e in rest):
                continue
            weight = multinomial((alpha[0],) + rest)
            for key, num in part.items():
                terms[key] = terms.get(key, 0) + weight * num
        forms[alpha] = BlockedPoly._from_ints(shape, den, terms)
    return forms


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
    naming the first offending multi-index.  Before any decomposition
    starts, every form is evaluated exactly at the coordinate points: one
    slot of each sphere block at 1, every other slot at 0.  A form
    negative there is no sum of squares, so the test rejects nothing the
    decomposition would accept.
    """
    width = next(iter(forms.values())).shape.width
    points = [
        [int(i in slots) for i in range(width)]
        for slots in itertools.product(*(b.indices for b in blocks))
    ]
    for alpha, form in forms.items():
        if not form:
            return None, {"alpha": list(alpha), "reason": "zero coefficient"}
        if any(form.eval_at(point) < 0 for point in points):
            return None, {"alpha": list(alpha), "reason": "negative at a coordinate point"}
    sos: dict[tuple[int, ...], SosDecomposition] = {}
    for alpha, form in forms.items():
        try:
            sos[alpha] = sos_decompose(form)
        except SosStalledError:
            return None, {"alpha": list(alpha), "reason": "not sos"}
    return sos, {}
