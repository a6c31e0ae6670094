"""Simplex saturation: make every slack-variable coefficient positive.

A target positive on the reference simplex lifts to a form on the
probability simplex by completing each term to full degree with powers
of ``X0 + X1 + ... + Xn`` (``X0`` is the slack variable, so substituting
``X0 -> 1 - sum(X)`` recovers the original exactly).  Multiplying the
lifted form by further powers of the total sum eventually turns every
coefficient -- here a polynomial in the sphere variables -- into a form
that is strictly positive on the sphere(s).  The smallest such power is
found by incremental search: a cheap float screen over sphere sample
points first, then an exact sum-of-squares decomposition of every
coefficient, which is what the certificate needs.  In the regimes
covered here a form is nonnegative on the sphere exactly when it is a
sum of squares, so the decomposition is the acceptance test.  The
quantitative positivity bound caps the search.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certified import _cover_product, _float_eval, _terms_on_slots
# Not called here; the benchmark's layer tracer wraps this name.
from .certified import certified_excess_check  # noqa: F401
from .covers import projected_sphere_cover
from .errors import CapExceededError, SosStalledError, ValidationError
from .poly import BlockedPoly, BlockShape, weighted_norm
from .problem import SphereBlock
from .sos import SosDecomposition, sos_decompose

# Resolution of the sphere covers behind the float screen.
SCREEN_RESOLUTION = 24


def homogenize_with_slack(target: BlockedPoly) -> BlockedPoly:
    """Complete every term to full simplex degree with (X0 + sum X)."""
    shape = target.shape.with_homogenizers("X0")
    lifted = target.embed(shape)
    x_slots = shape.block_indices("x") + shape.block_indices("X0")
    ell = lifted.block_degree("x", "X0")
    total = BlockedPoly(
        shape, {tuple(1 if i == s else 0 for i in range(shape.width)): Fraction(1)
                for s in x_slots},
    )
    out = BlockedPoly.zero(shape)
    by_deficit: dict[int, BlockedPoly] = {}
    for key, coeff in lifted.terms.items():
        deficit = ell - sum(key[s] for s in x_slots)
        part = by_deficit.setdefault(deficit, BlockedPoly.zero(shape))
        by_deficit[deficit] = part + BlockedPoly(shape, {key: coeff})
    for deficit, part in by_deficit.items():
        out = out + part * (total ** deficit)
    return out


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


def _compositions(total: int, parts: int):
    """All exponent vectors of the given length summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def coefficient_forms(
    lifted: BlockedPoly,
) -> dict[tuple[int, ...], BlockedPoly]:
    """Split a lifted target into sphere-variable forms per simplex monomial.

    Keys are exponent vectors over ``(X0, X1, ..., Xn)``, one for *every*
    monomial of the full simplex degree -- absent coefficients appear as
    zero polynomials, since saturation must reject those.  Values keep
    the full shape but use no simplex variables.
    """
    shape = lifted.shape
    x_slots = shape.block_indices("X0") + shape.block_indices("x")
    degree = lifted.block_degree("x", "X0")
    forms: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {
        alpha: {} for alpha in _compositions(degree, len(x_slots))
    }
    for key, coeff in lifted.terms.items():
        alpha = tuple(key[s] for s in x_slots)
        stripped = list(key)
        for s in x_slots:
            stripped[s] = 0
        forms[alpha][tuple(stripped)] = coeff
    return {a: BlockedPoly(shape, t) for a, t in sorted(forms.items())}


def _remap_blocks(
    old: BlockShape, new: BlockShape, blocks: tuple[SphereBlock, ...]
) -> tuple[SphereBlock, ...]:
    """Re-express sphere blocks after homogenizer slots moved.

    Variable slots keep their meaning by name; adding ``X0`` shifts every
    later homogenizer slot by one.
    """
    base = old.n + old.r1 + old.r2

    def shift(i: int) -> int:
        if i < base:
            return i
        return new.hom_index(old.homs[i - base])

    return tuple(
        SphereBlock(indices=tuple(shift(i) for i in b.indices), degree=b.degree)
        for b in blocks
    )


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
    ell: int                           # simplex degree of the lifted target
    cap: int                           # search bound that was in force
    saturated: BlockedPoly             # (sum X)^exponent * lifted target
    blocks: tuple[SphereBlock, ...]    # sphere blocks in lifted coordinates
    forms: dict[tuple[int, ...], BlockedPoly]
    sos: dict[tuple[int, ...], SosDecomposition]


def polya_saturate(
    target: BlockedPoly,
    fstar: Fraction,
    blocks: tuple[SphereBlock, ...],
    *,
    cap: int | None = None,
) -> PolyaResult:
    """Smallest exponent making every coefficient form a sum of squares.

    The target must already clear ``fstar`` on the simplex-cross-sphere
    domain; the caller certifies that beforehand.  Raises
    :class:`CapExceededError` when no exponent up to the cap works (in
    particular when the target merely touches zero, where saturation can
    never succeed).
    """
    if "X0" in target.shape.homs and target.block_degree("X0") != 0:
        raise ValidationError("target must not use the slack variable yet")
    lifted = homogenize_with_slack(target)
    ell = lifted.block_degree("x", "X0")
    if cap is None:
        cap = polya_exponent_cap(ell, weighted_norm(target), fstar)
    shape = lifted.shape
    blocks = _remap_blocks(target.shape, shape, tuple(blocks))
    x_slots = shape.block_indices("X0") + shape.block_indices("x")
    total = BlockedPoly(
        shape, {tuple(1 if i == s else 0 for i in range(shape.width)): Fraction(1)
                for s in x_slots},
    )
    current = lifted
    rejected: list[dict[str, object]] = []
    for exponent in range(cap + 1):
        if exponent:
            current = current * total
        forms = coefficient_forms(current)
        sos, diagnostic = _decompose_forms(forms, blocks)
        if sos is not None:
            return PolyaResult(
                exponent=exponent, ell=ell, cap=cap,
                saturated=current, blocks=blocks,
                forms=forms, sos=sos,
            )
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
