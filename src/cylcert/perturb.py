"""Boundary perturbation: absorb the constraints into the target.

The positivity certificate starts from the identity

    f-bar = h + lam * Q * sum_i ghat_i (ghat_i - 1)^(2k)

where ghat_i are the constraints scaled to stay within [-1, 1] on the
reference simplex, Q is an even power of the sphere-block sum of squares
(keeping every term block-homogeneous), and k is slaved to lam so that
the subtracted term never eats more than a quarter of the certified
minimum on S.  Each summand with i >= 1 is an explicit SOS multiple of
g_i; what remains is to certify h itself, which this module hands to the
grid engine: h must clear half the certified minimum on the *whole*
simplex-cross-sphere domain, and lam doubles until that holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certified import CertifiedMin, certified_excess_check
from .errors import BelowThresholdError, CapExceededError, SearchExhaustedError
from .poly import BlockedPoly, block_sum_of_squares, weighted_norm
from .problem import DEGREE_CAP, CylinderProblem

LAMBDA_CAP = 2 ** 40


def constraint_scale(g: BlockedPoly) -> Fraction:
    """Divisor making |g / scale| <= 1 on the reference simplex.

    With ``w`` the weighted norm of g, every x-degree k part of g is at
    most ``w * (x_1 + ... + x_n)^k <= w`` in absolute value on the
    simplex, so ``|g| <= w * (deg_x g + 1)`` there.
    """
    return max(Fraction(1), weighted_norm(g) * (g.block_degree("x") + 1))


def normalized_constraints(p: CylinderProblem) -> tuple[tuple[BlockedPoly, Fraction], ...]:
    """Pairs (ghat_i, scale_i) with ghat_i = g_i / scale_i."""
    out = []
    for g in p.g:
        c = constraint_scale(g)
        out.append((g.scale(1 / c), c))
    return tuple(out)


def slack_exponent(lam: Fraction, s: int, fstar_lb: Fraction) -> int:
    """Smallest k with 2k+1 >= 4*lam*s/fstar_lb.

    This caps the on-S magnitude of lam * ghat (ghat-1)^(2k) at
    lam*s/(2k+1) <= fstar_lb/4.
    """
    if fstar_lb <= 0:
        raise ValueError("fstar_lb must be positive")
    need = (4 * lam * s / fstar_lb - 1) / 2
    return max(0, math.ceil(need))


def factor_squares(p: CylinderProblem) -> tuple[BlockedPoly, ...]:
    """Explicit polynomials whose squares sum to the padding factor Q.

    Q is the product over :meth:`~cylcert.problem.CylinderProblem.padding`
    of ``(|block|^2 + hom^2)^(degree/2)``, so its block degrees match the
    homogenized target: ``(|Y|^2 + Z^2)^(m/2)`` in the single-block
    regimes, ``(Y1^2 + Z1^2)^(m/2) * (|Y2|^2 + Z2^2)`` in the split one.
    """
    target, _ = p.homogenized()
    shape = target.shape

    def power_squares(block: str, hom: str, exponent: int) -> list[BlockedPoly]:
        base = block_sum_of_squares(shape, block, hom)
        if exponent % 2 == 0:
            return [base ** (exponent // 2)]
        half = base ** ((exponent - 1) // 2)
        slots = shape.block_indices(block) + shape.block_indices(hom)
        return [BlockedPoly.variable(shape, i) * half for i in slots]

    squares = [BlockedPoly.constant(shape, 1)]
    for block, hom, degree in p.padding():
        squares = [a * b for a in squares for b in power_squares(block, hom, degree // 2)]
    return tuple(squares)


def perturbed_target(p: CylinderProblem, lam: Fraction, k: int) -> BlockedPoly:
    """h = f-bar - lam * Q * sum ghat_i (ghat_i - 1)^(2k), Q = sum of squared factors."""
    target, _ = p.homogenized()
    shape = target.shape
    q = BlockedPoly.zero(shape)
    for sq in factor_squares(p):
        q = q + sq * sq
    one = BlockedPoly.constant(shape, 1)
    acc = BlockedPoly.zero(shape)
    for ghat, _scale in normalized_constraints(p):
        gh = ghat.embed(shape)
        acc = acc + gh * ((gh - one) ** (2 * k))
    return target - (q * acc).scale(lam)


@dataclass(frozen=True)
class PerturbationResult:
    lam: Fraction
    k: int
    target: BlockedPoly          # h, block-homogeneous over the padded shape
    threshold: Fraction          # fstar_lb / 2, cleared on the whole domain
    evidence: CertifiedMin


def find_perturbation(p: CylinderProblem, fstar_lb: Fraction) -> PerturbationResult:
    """Double lam until the perturbed target clears fstar_lb/2 everywhere.

    On S the choice of k keeps h >= (3/4) fstar_lb regardless of lam, so
    every below-threshold witness lies outside S, and growing lam drives
    the perturbation term positive there.  Raises
    :class:`SearchExhaustedError` past ``LAMBDA_CAP``, and
    :class:`CapExceededError` before forming a target whose degree in x,
    ``max deg g_i * (2k + 1)``, would exceed ``DEGREE_CAP`` (k grows like
    ``1 / fstar_lb``); genuine resolution or budget exhaustion inside the
    certified check propagates unchanged.
    """
    _, blocks = p.homogenized()
    threshold = fstar_lb / 2
    lam = Fraction(1)
    attempts = []
    while lam <= LAMBDA_CAP:
        k = slack_exponent(lam, p.s, fstar_lb)
        degree = max(g.block_degree("x") for g in p.g) * (2 * k + 1)
        if degree > DEGREE_CAP:
            raise CapExceededError(
                "the perturbed target's degree in x would exceed the degree cap",
                **{"lambda": str(lam), "k": k, "degree": degree, "cap": DEGREE_CAP},
            )
        h = perturbed_target(p, lam, k)
        try:
            evidence = certified_excess_check(h, threshold, blocks)
        except BelowThresholdError as exc:
            attempts.append({"lambda": str(lam), "k": k, "witness": exc.payload.get("witness")})
            lam *= 2
            continue
        return PerturbationResult(lam=lam, k=k, target=h, threshold=threshold, evidence=evidence)
    raise SearchExhaustedError(
        "no perturbation weight up to the cap pushes the target above "
        "half the certified minimum off S",
        lambda_cap=LAMBDA_CAP,
        attempts=attempts[-4:],
    )
