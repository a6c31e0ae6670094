"""Final certificates: file format, degree laws, verification, size bounds.

A certificate for ``f > 0`` on the cylinder is the list of SOS
multipliers ``sigma_0, ..., sigma_s`` with

    f = sigma_0 + sum_i sigma_i * g_i

checked coefficient-by-coefficient in exact rational arithmetic.  This
module is the checker's side of the program: it reads and writes
certificate files, states the construction's degree laws
(:func:`degree_laws`), pulls a simplex-frame certificate back to a box
frame, and verifies.  It imports only the standard library and the
exact modules (``errors``, ``poly``, ``serialize``, ``problem``), so a
verifying process never loads numpy or the search; the search builds
certificates in :mod:`cylcert.pipeline`.

Verification is independent of generation: it re-expands every square,
compares against f exactly, and checks the degree of every sigma against
the degree laws recomputed from the parameters in the metadata.  No
degree is read from the file.  The first part, one sigma per constraint
plus sigma_0, positive weights and the exact identity, is
:func:`check_representation`; the facet-witness sidecar accepts a
cached entry by the same function.

``theorem_bound`` evaluates the headline degree-bound formulas as
certified rational upper bounds; they are reporting devices, never used
by the pipeline itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .errors import SchemaError, ValidationError, VerificationError
from .poly import BlockedPoly, BlockShape, SosDecomposition, expand_identity, substitute
from .problem import CylinderProblem, RescaleRecord
from .serialize import frac_from_str, frac_to_str, json_typed, poly_to_obj, polys_from_obj

# Every certificate file declares this tier: the identity holds exactly.
TIER_EXACT = "exact"

# Rational upper bound for e, used to keep bound reports sound.
E_UPPER = Fraction(2_718_281_829, 10**9)

# Largest integer power of E_UPPER that exp_upper expands: the exact value
# has about 1.2 million digits and takes about a second to compute.
EXP_UPPER_CAP = 2**17

# Largest bit length theorem_bound lets the exact power of its argument
# reach (argument**p, or the q-th root's operand for c = p/q): about a
# million bits, formed in about 0.1 s.
POWER_BITS_CAP = 2**20


# ---------------------------------------------------------------------------
# certificate data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateMeta:
    """The construction's parameters, from which :func:`verify_certificate`
    recomputes the degree laws, and the certified floor ``fstar_lb``.

    A file may carry further metadata keys; the reader ignores them.
    """

    lam: Fraction
    k: int
    ell: int
    polya_exponent: int
    c9: int
    fstar_lb: Fraction

    def to_obj(self) -> dict[str, Any]:
        return {
            "lambda": frac_to_str(self.lam),
            "k": self.k,
            "ell": self.ell,
            "N": self.polya_exponent,
            "c9": self.c9,
            "fstar_lb": frac_to_str(self.fstar_lb),
        }

    @staticmethod
    def from_obj(obj: Any) -> "CertificateMeta":
        if not isinstance(obj, dict):
            raise SchemaError("certificate metadata must be an object")
        try:
            return CertificateMeta(
                lam=frac_from_str(obj["lambda"]),
                k=json_typed(obj["k"], int, "k"),
                ell=json_typed(obj["ell"], int, "ell"),
                polya_exponent=json_typed(obj["N"], int, "N"),
                c9=json_typed(obj["c9"], int, "c9"),
                fstar_lb=frac_from_str(obj["fstar_lb"]),
            )
        except KeyError as exc:
            raise SchemaError(f"certificate metadata missing field {exc}") from None


@dataclass(frozen=True)
class Certificate:
    """The full representation f = sigma_0 + sum sigma_i g_i."""

    problem_hash: str
    sigmas: tuple[SosDecomposition, ...]
    meta: CertificateMeta


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def sos_to_obj(deco: SosDecomposition) -> dict[str, Any]:
    return {
        "weights": [frac_to_str(w) for w in deco.weights],
        "squares": [poly_to_obj(q) for q in deco.squares],
    }


def sos_from_obj(obj: Any, shape: BlockShape) -> SosDecomposition:
    if not isinstance(obj, dict) or "weights" not in obj or "squares" not in obj:
        raise SchemaError("an SOS entry needs 'weights' and 'squares'")
    try:
        weights = tuple(frac_from_str(w) for w in json_typed(obj["weights"], list, "weights"))
        squares = polys_from_obj(json_typed(obj["squares"], list, "squares"), shape)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad SOS entry: {exc}") from None
    if len(weights) != len(squares):
        raise SchemaError("SOS weights and squares differ in length")
    return SosDecomposition(shape, weights, squares)


def certificate_to_obj(cert: Certificate) -> dict[str, Any]:
    return {
        "problem_hash": cert.problem_hash,
        "tier": TIER_EXACT,
        "sigmas": [sos_to_obj(s) for s in cert.sigmas],
        "metadata": cert.meta.to_obj(),
    }


def certificate_from_obj(obj: Any, shape: BlockShape) -> Certificate:
    if not isinstance(obj, dict):
        raise SchemaError("certificate file must contain a JSON object")
    try:
        problem_hash = obj["problem_hash"]
        tier = obj["tier"]
        sigma_objs = obj["sigmas"]
        meta_obj = obj["metadata"]
    except KeyError as exc:
        raise SchemaError(f"certificate file missing field {exc}") from None
    if tier != TIER_EXACT:
        raise SchemaError(f"certificate tier must be {TIER_EXACT!r}, got {tier!r}")
    if not isinstance(sigma_objs, list) or not sigma_objs:
        raise SchemaError("certificate needs a nonempty sigma list")
    return Certificate(
        problem_hash=json_typed(problem_hash, str, "problem_hash"),
        sigmas=tuple(sos_from_obj(s, shape) for s in sigma_objs),
        meta=CertificateMeta.from_obj(meta_obj),
    )


# ---------------------------------------------------------------------------
# degree laws and frames
# ---------------------------------------------------------------------------

def degree_laws(
    problem: CylinderProblem, lam: Fraction, k: int, N: int, ell: int, c9: int
) -> tuple[tuple[int, ...], int]:
    """The construction's degree laws: ``(absorption degrees, cap)``.

    With ``vdeg`` the degree of the padding factor (the sum of the
    :meth:`~cylcert.problem.CylinderProblem.padding` degrees), the
    absorption term of constraint i has degree ``vdeg + (2k+1) deg g_i``
    (no such terms when ``lam`` is 0), and every remainder term stays
    within ``vdeg + N + ell + c9``.  :func:`verify_certificate`, the one
    caller in the package, checks the sigmas of a certificate against
    these, from the parameters in its metadata.
    """
    vdeg = sum(degree for _block, _hom, degree in problem.padding())
    absorption = () if lam == 0 else tuple(
        vdeg + (2 * k + 1) * g.block_degree("x") for g in problem.g
    )
    return absorption, vdeg + N + ell + c9


def compose_with_frame(
    cert: Certificate, record: RescaleRecord, box_problem: CylinderProblem
) -> Certificate:
    """Pull a simplex-frame certificate back to the original box frame.

    Every square is composed with the forward change of variables; the
    constraint multipliers keep their indices because the box problem's
    constraints transport to the simplex ones under the same map.
    Degrees are unchanged (the map is affine and invertible).
    """
    shape = box_problem.shape
    mapping = record.forward_subst(shape)
    sigmas = tuple(
        SosDecomposition(
            shape, deco.weights, tuple(substitute(q, mapping) for q in deco.squares)
        )
        for deco in cert.sigmas
    )
    return Certificate(
        problem_hash=box_problem.problem_hash(),
        sigmas=sigmas,
        meta=cert.meta,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    sigma_degrees: tuple[int, ...]
    product_degrees: tuple[int, ...]

    def to_obj(self) -> dict[str, Any]:
        return {
            "sigma_degrees": list(self.sigma_degrees),
            "product_degrees": list(self.product_degrees),
        }


def _fail(kind: str, message: str, **payload: Any) -> VerificationError:
    return VerificationError(message, kind=kind, **payload)


def check_representation(
    target: BlockedPoly,
    sigmas: Sequence[SosDecomposition],
    gens: Sequence[BlockedPoly],
) -> None:
    """Check ``target = sigma_0 + sum sigma_i * g_i`` exactly.

    ``sigmas`` must hold one sigma per generator plus sigma_0, every
    weight strictly positive.  Raises :class:`VerificationError` with the
    ``kind`` of the first failed check.  :func:`verify_certificate` runs
    it on a certificate's sigmas against f, and
    :func:`cylcert.putinar_base.base_certificates` on a cached facet
    witness against its facet product, so the sidecar reuses an entry
    exactly when a certificate holding it would verify.
    """
    if len(sigmas) != len(gens) + 1:
        raise _fail(
            "IDENTITY_FAIL",
            "certificate must carry one sigma per constraint plus sigma_0",
            sigmas=len(sigmas),
            constraints=len(gens),
        )
    for index, deco in enumerate(sigmas):
        if any(w <= 0 for w in deco.weights):
            raise _fail(
                "NEGATIVE_WEIGHT",
                "all square weights must be strictly positive",
                sigma=index,
            )
    diff = expand_identity(sigmas[0], zip(sigmas[1:], gens)) - target
    if diff:
        raise _fail(
            "IDENTITY_FAIL",
            "re-expanded sigmas do not reproduce f",
            residual=frac_to_str(max(abs(c) for c in diff.terms.values())),
        )


def verify_certificate(problem: CylinderProblem, cert: Certificate) -> VerificationReport:
    """Re-expand a certificate from scratch and check it against f.

    Raises :class:`VerificationError` with a ``kind`` payload naming the
    first failed check; returns a report with measured degrees when all
    checks pass.
    """
    if cert.problem_hash != problem.problem_hash():
        raise _fail(
            "IDENTITY_FAIL",
            "certificate was issued for a different problem",
            expected=problem.problem_hash(),
            declared=cert.problem_hash,
        )
    check_representation(problem.f, cert.sigmas, problem.g)

    meta = cert.meta
    absorption, cap = degree_laws(
        problem, meta.lam, meta.k, meta.polya_exponent, meta.ell, meta.c9
    )
    if meta.lam == 0 and any(deco.nonzero() for deco in cert.sigmas[1:]):
        raise _fail(
            "DEGREE_METADATA_MISMATCH",
            "a certificate without absorption must not use constraints",
        )
    # Every weight is positive by now, so a sigma is zero exactly when all
    # its squares are, and its degree is SosDecomposition.degree.
    sigma_degrees = tuple(deco.degree() for deco in cert.sigmas)
    product_degrees = []
    for i, (deco, degree) in enumerate(zip(cert.sigmas, sigma_degrees)):
        bound = max(absorption[i - 1], cap) if i and absorption else cap
        if not deco.nonzero():
            measured = 0
        elif i == 0:
            measured = degree
        else:
            measured = degree + problem.g[i - 1].block_degree("x")
        if measured > bound:
            raise _fail(
                "DEGREE_METADATA_MISMATCH",
                "a sigma exceeds the degree law of its parameters",
                sigma=i,
                measured=measured,
                bound=bound,
            )
        product_degrees.append(measured)
    return VerificationReport(
        sigma_degrees=sigma_degrees,
        product_degrees=tuple(product_degrees),
    )


# ---------------------------------------------------------------------------
# headline bound formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
    """Arguments of the degree-bound formulas.

    ``c`` is the formulas' undetermined positive constant, supplied by
    the caller; ``f_norm`` is the weighted coefficient norm and ``fstar``
    the positive infimum the bound is taken against.
    """

    c: Fraction
    d: int
    m: int
    r: int
    n: int
    f_norm: Fraction
    fstar: Fraction

    def __post_init__(self) -> None:
        if self.c <= 0 or self.f_norm <= 0 or self.fstar <= 0:
            raise ValidationError("bound inputs must be positive")
        if self.d < 0 or self.m < 0 or self.r < 0 or self.n < 1:
            raise ValidationError("bound dimensions out of range")
        if self.m % 2:
            raise ValidationError("the unbounded-block degree must be even")


def integer_root_upper(value: int, degree: int) -> int:
    """Smallest integer t with t**degree >= value (value >= 0)."""
    if value < 0 or degree < 1:
        raise ValidationError("root of a negative number or bad degree")
    if value in (0, 1):
        return value

    def newton(t: int) -> int:
        return ((degree - 1) * t + value // t ** (degree - 1)) // degree

    # Start from 2^(log2(value)/degree), with log2 read off the value's
    # leading 64 bits, so the step count does not grow with the degree.
    # By AM-GM one integer Newton step from any t > 0 lands at or above
    # the floor of the root; from there the steps decrease to it.
    shift = max(0, value.bit_length() - 64)
    log_root = (math.log2(value >> shift) + shift) / degree
    whole = math.floor(log_root)
    t = newton((math.floor(2 ** (log_root - whole) * 2**52) << whole >> 52) + 1)
    while True:
        nxt = newton(t)
        if nxt >= t:
            break
        t = nxt
    while t**degree >= value:
        t -= 1
    while t**degree < value:
        t += 1
    return t


def rational_power_upper(base: Fraction, exponent: Fraction) -> Fraction:
    """A certified rational y >= base**exponent for positive base.

    Exact when the exponent is an integer; otherwise the q-th root is
    replaced by an integer-root ceiling.
    """
    if base <= 0:
        raise ValidationError("power bounds need a positive base")
    p, q = exponent.numerator, exponent.denominator
    if p < 0:
        raise ValidationError("negative exponents are not needed here")
    power = base**p
    if q == 1:
        return power
    a, b = power.numerator, power.denominator
    # (a/b)^(1/q) = root(a * b^(q-1)) / b, rounded up in the numerator.
    return Fraction(integer_root_upper(a * b ** (q - 1), q), b)


def exp_upper(t: Fraction) -> Fraction:
    """A certified rational upper bound of e**t for t >= 0."""
    if t < 0:
        raise ValidationError("nonnegative exponents only")
    power = -(-t.numerator // t.denominator)
    if power > EXP_UPPER_CAP:
        raise _beyond_exp_cap(exponent_bits=power.bit_length())
    return E_UPPER**power


def _beyond_exp_cap(**payload: int) -> ValidationError:
    return ValidationError(
        "bound too large to write out exactly: e is raised to a power above "
        f"{EXP_UPPER_CAP}",
        **payload,
    )


def _check_power_bits(power_bits: int) -> None:
    """Refuse a power whose estimated bit length exceeds :data:`POWER_BITS_CAP`."""
    if power_bits > POWER_BITS_CAP:
        raise ValidationError(
            "bound too costly to evaluate exactly: a power in it would have "
            f"more than {POWER_BITS_CAP} bits",
            power_bits_estimate=power_bits,
        )


def _int_power(base: int, exponent: int) -> int:
    """``base ** exponent`` for ``base >= 1``, refused before it is formed
    when its bit length, ``floor(exponent * log2(base)) + 1``, is too large."""
    if base > 1:
        # an exponent past the cap is too large alone, and its float could overflow
        _check_power_bits(
            exponent + 1
            if exponent > POWER_BITS_CAP
            else math.floor(exponent * math.log2(base)) + 1
        )
    return base**exponent


_BOUND_FORMULAS = ("1.1", "1.2", "1.3", "1.4", "1.5", "2.3")


def theorem_bound(formula: str, inputs: BoundInputs) -> Fraction:
    """Certified rational upper evaluation of a headline bound formula.

    Every formula has the shape ``prefactor * e**(argument**c)``; both
    the argument and the prefactor are exact rationals, e is replaced by
    an upper rational, and fractional powers are rounded up, so the
    result is always an upper bound of the displayed expression.
    """
    if formula not in _BOUND_FORMULAS:
        raise ValidationError(
            f"unknown bound formula {formula!r}; expected one of "
            f"{list(_BOUND_FORMULAS)}"
        )
    c, d, m, r, n = inputs.c, inputs.d, inputs.m, inputs.r, inputs.n
    base = inputs.f_norm * d * d / inputs.fstar
    if formula == "1.1":
        prefactor, argument = c, base * _int_power(n, d)
    elif formula == "2.3":
        prefactor, argument = c, base
    else:
        prefactor, argument = c, base * _int_power(3 * n, d)
        if formula in ("1.2", "1.5"):
            prefactor *= (m + 1) * _int_power(2, m // 2)
            argument *= m + 1
        if formula in ("1.4", "1.5"):
            prefactor *= r * r
            argument *= r * r
    if argument <= 0:
        raise ValidationError("bound argument must be positive")
    if argument <= 1:
        # argument**c lies in (0, 1] and so does its rounded-up root, so
        # exp_upper would raise E_UPPER to the power 1
        return prefactor * E_UPPER
    # Refuse before forming a power that exp_upper would refuse anyway:
    # log2(a/b) exceeds bit_length(a) - 1 - bit_length(b), and also
    # (a - b)/a since ln(1 + t) >= t/(1 + t); so log2 of the exponent,
    # which is at least argument**c, exceeds c times either.
    a, b = argument.numerator, argument.denominator
    log2_low = c * max(Fraction(a.bit_length() - 1 - b.bit_length()), Fraction(a - b, a))
    if log2_low > EXP_UPPER_CAP:
        raise _beyond_exp_cap(exponent_bits_at_least=math.floor(log2_low) + 1)
    # An argument just above 1 passes that test with any c, yet the exact
    # power argument**p has up to p times the bits of a or b, and for
    # c = p/q the root operand a^p * b^(p(q-1)) of rational_power_upper
    # up to p*q times.
    _check_power_bits(c.numerator * c.denominator * max(a.bit_length(), b.bit_length()))
    if c.denominator == 1:
        exponent = argument ** int(c)
    else:
        exponent = rational_power_upper(argument, c)
    return prefactor * exp_upper(exponent)
