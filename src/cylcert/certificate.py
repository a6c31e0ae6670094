"""Final certificates: assembly, verification, serialization, size bounds.

A certificate for ``f > 0`` on the cylinder is the list of SOS
multipliers ``sigma_0, ..., sigma_s`` with

    f = sigma_0 + sum_i sigma_i * g_i

checked coefficient-by-coefficient in exact rational arithmetic.  The
assembly stitches together the upstream stages:

  * the absorption step contributes, to each sigma_i, the explicit
    squares ``(lam/c_i) * (sq * (ghat_i - 1)^k)^2`` where the sq run
    over a square decomposition of the sphere-padding factor;
  * the saturated remainder contributes, per simplex monomial
    ``u^(a0) x^alpha``, products of its coefficient-form squares, the
    even square root of the monomial, and the facet-product witnesses;
  * the slack variable is substituted back to ``u = 1 - sum(x)`` and
    the sphere padding variables to 1, once in each factor of a square,
    so stored squares live over the original variables.

Verification is independent of generation: it re-expands every square,
compares against f exactly, and re-derives the degree report.  Nothing
is trusted from metadata.

``theorem_bound`` evaluates the headline degree-bound formulas as
certified rational upper bounds; they are reporting devices, never used
by the pipeline itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Mapping

from .errors import (
    IdentityMismatchError,
    SchemaError,
    ValidationError,
    VerificationError,
)
from .perturb import factor_squares, normalized_constraints
from .poly import BlockedPoly, BlockShape, ExactSum, substitute
from .polya import PolyaResult
from .problem import CylinderProblem, RescaleRecord
from .putinar_base import (
    ModuleWitness,
    Parity,
    even_square_root,
    parity_vector,
    simplex_u,
)
from .serialize import frac_from_str, frac_to_str, json_typed, poly_from_obj, poly_to_obj
from .sos import SosDecomposition, expand_identity

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
class DegreeReport:
    """Degrees of the two construction terms, measured before padding
    variables are substituted away (substitution can only lower them).

    ``first_term[i]`` is the exact degree of the absorption contribution
    to ``sigma_i * g_i``; ``second_term`` has one entry per sigma
    (sigma_0 first) with the largest remainder-contribution degree; all
    second-term entries are bounded by ``cap``.
    """

    first_term: tuple[int, ...]
    second_term: tuple[int, ...]
    cap: int

    def to_obj(self) -> dict[str, Any]:
        return {
            "first_term": list(self.first_term),
            "second_term": list(self.second_term),
            "cap": self.cap,
        }

    @staticmethod
    def from_obj(obj: Any) -> "DegreeReport":
        if not isinstance(obj, dict):
            raise SchemaError("degree report must be an object")
        try:
            return DegreeReport(
                first_term=_int_list(obj["first_term"], "first_term"),
                second_term=_int_list(obj["second_term"], "second_term"),
                cap=json_typed(obj["cap"], int, "degree cap"),
            )
        except KeyError as exc:
            raise SchemaError(f"degree report missing field {exc}") from None


def _int_list(value: Any, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list of integers, got {value!r}")
    return tuple(json_typed(v, int, what) for v in value)


@dataclass(frozen=True)
class CertificateMeta:
    lam: Fraction
    k: int
    ell: int
    polya_exponent: int
    c9: int
    fstar_lb: Fraction
    rescale: RescaleRecord
    archimedean_attested: bool
    scales: tuple[Fraction, ...]
    degrees: DegreeReport

    def to_obj(self) -> dict[str, Any]:
        return {
            "lambda": frac_to_str(self.lam),
            "k": self.k,
            "ell": self.ell,
            "N": self.polya_exponent,
            "c9": self.c9,
            "fstar_lb": frac_to_str(self.fstar_lb),
            "rescale": self.rescale.to_obj(),
            "archimedean_attested": self.archimedean_attested,
            "scales": [frac_to_str(c) for c in self.scales],
            "degrees": self.degrees.to_obj(),
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
                rescale=RescaleRecord.from_obj(obj["rescale"]),
                archimedean_attested=json_typed(
                    obj["archimedean_attested"], bool, "archimedean_attested"
                ),
                scales=tuple(
                    frac_from_str(v) for v in json_typed(obj["scales"], list, "scales")
                ),
                degrees=DegreeReport.from_obj(obj["degrees"]),
            )
        except KeyError as exc:
            raise SchemaError(f"certificate metadata missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad certificate metadata: {exc}") from None


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
        squares = tuple(
            poly_from_obj(q, shape) for q in json_typed(obj["squares"], list, "squares")
        )
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
        problem_hash=str(problem_hash),
        sigmas=tuple(sos_from_obj(s, shape) for s in sigma_objs),
        meta=CertificateMeta.from_obj(meta_obj),
    )


def witness_to_obj(witness: ModuleWitness) -> dict[str, Any]:
    return {
        "target": poly_to_obj(witness.target),
        "budget": witness.budget,
        "sigmas": [sos_to_obj(s) for s in witness.sigmas],
    }


def witness_from_obj(obj: Any, shape: BlockShape) -> ModuleWitness:
    if not isinstance(obj, dict):
        raise SchemaError("a cached witness must be an object")
    try:
        return ModuleWitness(
            target=poly_from_obj(obj["target"], shape),
            sigmas=tuple(
                sos_from_obj(s, shape) for s in json_typed(obj["sigmas"], list, "sigmas")
            ),
            budget=json_typed(obj["budget"], int, "witness budget"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad cached witness: {exc}") from None


def base_cache_to_obj(
    constraints_key: str, witnesses: Mapping[Parity, ModuleWitness]
) -> dict[str, Any]:
    return {
        "constraints_hash": constraints_key,
        "witnesses": {
            "".join(str(b) for b in parity): witness_to_obj(w)
            for parity, w in sorted(witnesses.items())
        },
    }


def base_cache_from_obj(
    obj: Any, constraints_key: str, shape: BlockShape
) -> dict[Parity, ModuleWitness]:
    """Decode a witness cache; an unrelated or malformed cache is empty.

    Cache misuse must never poison a run: the consumer reuses an entry
    only when it states the facet product of its key, carries one sigma
    per generator plus sigma_0 and expands to that product exactly, and
    a key mismatch simply means the constraints changed since the cache
    was written.  An entry without ``sigmas`` (the older ``sigma0`` plus
    ``multipliers`` layout) is skipped, so it is recomputed.
    """
    if not isinstance(obj, dict) or obj.get("constraints_hash") != constraints_key:
        return {}
    out: dict[Parity, ModuleWitness] = {}
    raw = obj.get("witnesses")
    if not isinstance(raw, dict):
        return {}
    for key, wobj in raw.items():
        try:
            parity = tuple(int(ch) for ch in key)
            out[parity] = witness_from_obj(wobj, shape)
        except (SchemaError, ValueError):
            continue
    return out


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

class _SigmaBuilder:
    """Accumulates weighted squares per sigma with degree tracking.

    Squares arrive as pairs of factors that :meth:`ground` has already
    taken back to the problem's variables; each stored square is their
    product.
    """

    def __init__(self, problem: CylinderProblem, lifted_shape: BlockShape):
        self.problem = problem
        self.lifted = lifted_shape
        self.weights: list[list[Fraction]] = [[] for _ in range(problem.s + 1)]
        self.squares: list[list[BlockedPoly]] = [[] for _ in range(problem.s + 1)]
        self.second_term = [0] * (problem.s + 1)
        self._x0 = lifted_shape.hom_index("X0")
        # u**e over the problem's shape, for every X0 exponent e met so far
        self._u_powers = {0: BlockedPoly.constant(problem.shape, 1)}

    def ground(self, p: BlockedPoly) -> BlockedPoly:
        """``p`` (over a shape that embeds in the lifted one) with
        ``X0 -> u = 1 - sum(x)`` and every other homogenizer ``-> 1``,
        over the problem's shape."""
        p = p.embed(self.lifted)
        shape = self.problem.shape
        width, x0 = shape.width, self._x0
        parts: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for expo, coeff in p.terms.items():
            part = parts.setdefault(expo[x0], {})
            key = expo[:width]
            part[key] = part[key] + coeff if key in part else coeff
        total = ExactSum(shape)
        for e, part in parts.items():
            if e not in self._u_powers:
                self._u_powers[e] = simplex_u(shape) ** e
            rest = BlockedPoly._trusted(shape, {x: c for x, c in part.items() if c})
            total.add_product(1, rest, self._u_powers[e])
        return total.poly()

    def add(
        self, index: int, weight: Fraction, left: BlockedPoly, right: BlockedPoly
    ) -> None:
        """Store ``weight * (left * right)^2``; both factors are grounded."""
        if weight == 0:
            return
        self.weights[index].append(weight)
        self.squares[index].append(left * right)

    def sigmas(self) -> tuple[SosDecomposition, ...]:
        shape = self.problem.shape
        return tuple(
            SosDecomposition(shape, tuple(w), tuple(q))
            for w, q in zip(self.weights, self.squares)
        )


def _sos_degree(deco: SosDecomposition) -> int:
    """Total degree of the expanded SOS (tops of squares cannot cancel)."""
    if not deco.weights:
        return 0
    return max(2 * q.total_degree() for q in deco.squares)


def degree_laws(
    problem: CylinderProblem, lam: Fraction, k: int, N: int, ell: int, c9: int
) -> tuple[tuple[int, ...], int]:
    """The construction's degree laws: ``(absorption degrees, cap)``.

    With ``vdeg`` the degree of the padding factor (the sum of the
    :meth:`~cylcert.problem.CylinderProblem.padding` degrees), the
    absorption term of constraint i has degree ``vdeg + (2k+1) deg g_i``
    (no such terms when ``lam`` is 0), and every remainder term stays
    within ``vdeg + N + ell + c9``.  Assembly checks what it builds
    against these, and verification what a certificate declares.
    """
    vdeg = sum(degree for _block, _hom, degree in problem.padding())
    absorption = () if lam == 0 else tuple(
        vdeg + (2 * k + 1) * g.block_degree("x") for g in problem.g
    )
    return absorption, vdeg + N + ell + c9


def _certificate(
    problem: CylinderProblem,
    sigmas: tuple[SosDecomposition, ...],
    absorption: tuple[int, ...],
    remainder: tuple[int, ...],
    *,
    lam: Fraction,
    k: int,
    ell: int,
    N: int,
    c9: int,
    fstar_lb: Fraction,
) -> Certificate:
    """The certificate of ``sigmas`` with its metadata, once the measured
    absorption and remainder degrees are checked against
    :func:`degree_laws`; a breach is an internal invariant failure."""
    expected, cap = degree_laws(problem, lam, k, N, ell, c9)
    for i, (measured, want) in enumerate(zip(absorption, expected)):
        if measured != want:
            raise IdentityMismatchError(
                "absorption-term degree drifted from its formula",
                constraint=i + 1,
                measured=measured,
                expected=want,
            )
    for index, degree in enumerate(remainder):
        if degree > cap:
            raise IdentityMismatchError(
                "remainder-term degree exceeded its cap",
                sigma=index,
                measured=degree,
                cap=cap,
            )
    meta = CertificateMeta(
        lam=lam,
        k=k,
        ell=ell,
        polya_exponent=N,
        c9=c9,
        fstar_lb=fstar_lb,
        rescale=RescaleRecord(False),
        archimedean_attested=problem.archimedean_attested,
        scales=tuple(c for _ghat, c in normalized_constraints(problem)),
        degrees=DegreeReport(expected, remainder, cap),
    )
    return Certificate(problem_hash=problem.problem_hash(), sigmas=sigmas, meta=meta)


def assemble(
    problem: CylinderProblem,
    lam: Fraction,
    k: int,
    polya: PolyaResult,
    base: Mapping[Parity, ModuleWitness],
    *,
    fstar_lb: Fraction,
) -> Certificate:
    """Stitch the pipeline stages into an exact certificate.

    ``polya.sos`` holds an SOS decomposition of each coefficient form;
    ``base`` must cover every parity that occurs, and its witnesses set
    ``c9``.  A degree that breaks its law is an internal invariant breach
    and aborts; the identity itself is left to :func:`verify_certificate`,
    which the pipeline runs once on the certificate it returns.

    Each stored square is a product of two lifted factors: a sphere square
    and a slack power, or a form square times its simplex monomial and a
    witness square.  Grounding (``X0 -> u``, the other homogenizers
    ``-> 1``, padding slots dropped) is a ring homomorphism, so the
    product of the grounded factors is the grounded product: the same
    polynomial with the same ``Fraction``s.  Each factor is therefore
    grounded once and reused for every square it enters.  The degree law
    reads lifted degrees, and total degree is additive over ℚ (the top
    forms of two nonzero polynomials multiply to a nonzero form), so a
    square's degree is the sum of its factors' degrees.
    """
    shape = problem.shape
    lifted = polya.saturated.shape
    builder = _SigmaBuilder(problem, lifted)
    # deg g per sigma position; sigma_0's generator is 1
    gdegs = (0,) + tuple(g.block_degree("x") for g in problem.g)

    # Term one: absorption squares for each constraint.
    sphere_squares = [
        (builder.ground(q), q.total_degree()) for q in factor_squares(problem)
    ]
    one = BlockedPoly.constant(shape, 1)
    absorption = []
    for i, (ghat, c_i) in enumerate(normalized_constraints(problem)):
        slack = (ghat - one) ** k
        for sq, _deg in sphere_squares:
            builder.add(i + 1, lam / c_i, sq, slack)
        absorption.append(
            max(2 * (deg + slack.total_degree()) + gdegs[i + 1] for _sq, deg in sphere_squares)
        )

    # Term two: saturated remainder through the facet-product witnesses.
    # Per parity and sigma position: [(weight, grounded square, degree)].
    witness_squares: dict[Parity, list] = {}
    for key in sorted(polya.forms):
        deco = polya.sos[key]
        parity = parity_vector(key)
        if parity not in witness_squares:
            witness_squares[parity] = [
                [(w, builder.ground(t), t.total_degree()) for w, t in zip(tau.weights, tau.squares)]
                for tau in base[parity].sigmas
            ]
        root = even_square_root(key)
        sq_x = simplex_u(shape) ** root[0]
        for slot, power in zip(shape.block_indices("x"), root[1:]):
            if power:
                sq_x = sq_x * BlockedPoly.variable(shape, slot) ** power
        sq_x = sq_x.embed(lifted)
        for w_form, q_form in zip(deco.weights, deco.squares):
            partial = q_form * sq_x
            grounded, pdeg = builder.ground(partial), partial.total_degree()
            for index, squares in enumerate(witness_squares[parity]):
                for w_tau, t, tdeg in squares:
                    builder.add(index, w_form * w_tau, grounded, t)
                    degree = 2 * (pdeg + tdeg) + gdegs[index]
                    if degree > builder.second_term[index]:
                        builder.second_term[index] = degree

    c9 = max(
        (
            _sos_degree(tau) + gdegs[index]
            for witness in base.values()
            for index, tau in enumerate(witness.sigmas)
            if tau.weights
        ),
        default=0,
    )
    return _certificate(
        problem,
        builder.sigmas(),
        tuple(absorption),
        tuple(builder.second_term),
        lam=lam,
        k=k,
        ell=polya.ell,
        N=polya.exponent,
        c9=c9,
        fstar_lb=fstar_lb,
    )


def sos_only_certificate(
    problem: CylinderProblem,
    sigma0: SosDecomposition,
    *,
    fstar_lb: Fraction,
) -> Certificate:
    """Certificate for the degenerate case with no compact variables used.

    When f does not involve the X-block it is certified as a single sum
    of squares; the constraint multipliers are all zero.
    """
    empty = SosDecomposition(problem.shape, (), ())
    return _certificate(
        problem,
        (sigma0,) + (empty,) * problem.s,
        (),
        (_sos_degree(sigma0),) + (0,) * problem.s,
        lam=Fraction(0),
        k=0,
        ell=0,
        N=0,
        c9=0,
        fstar_lb=fstar_lb,
    )


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
        meta=replace(cert.meta, rescale=record),
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
    if len(cert.sigmas) != problem.s + 1:
        raise _fail(
            "IDENTITY_FAIL",
            "certificate must carry one sigma per constraint plus sigma_0",
            sigmas=len(cert.sigmas),
            constraints=problem.s,
        )
    for index, deco in enumerate(cert.sigmas):
        if any(w <= 0 for w in deco.weights):
            raise _fail(
                "NEGATIVE_WEIGHT",
                "all square weights must be strictly positive",
                sigma=index,
            )

    total = expand_identity(cert.sigmas[0], zip(cert.sigmas[1:], problem.g))
    diff = total - problem.f
    if diff:
        raise _fail(
            "IDENTITY_FAIL",
            "re-expanded sigmas do not reproduce f",
            residual=frac_to_str(max(abs(c) for c in diff.terms.values())),
        )

    meta = cert.meta
    degrees = meta.degrees
    absorption, cap = degree_laws(
        problem, meta.lam, meta.k, meta.polya_exponent, meta.ell, meta.c9
    )
    if degrees.cap != cap:
        raise _fail(
            "DEGREE_METADATA_MISMATCH",
            "degree cap does not match its components",
            declared=degrees.cap,
            recomputed=cap,
        )
    if len(degrees.second_term) != problem.s + 1 or any(
        d > cap for d in degrees.second_term
    ):
        raise _fail(
            "DEGREE_METADATA_MISMATCH",
            "remainder-term degrees must stay within the cap",
            declared=list(degrees.second_term),
            cap=cap,
        )
    if degrees.first_term != absorption:
        raise _fail(
            "DEGREE_METADATA_MISMATCH",
            "absorption-term degrees differ from their formula",
            declared=list(degrees.first_term),
            expected=list(absorption),
        )
    if meta.lam == 0 and any(any(deco.squares) for deco in cert.sigmas[1:]):
        raise _fail(
            "DEGREE_METADATA_MISMATCH",
            "a certificate without absorption must not use constraints",
        )
    # Every weight is positive by now, so a sigma is zero exactly when all
    # its squares are, and its degree is _sos_degree.
    sigma_degrees = tuple(_sos_degree(deco) for deco in cert.sigmas)
    product_degrees = []
    for i, (deco, degree) in enumerate(zip(cert.sigmas, sigma_degrees)):
        bound = max(absorption[i - 1], cap) if i and absorption else cap
        if not any(deco.squares):
            measured = 0
        elif i == 0:
            measured = degree
        else:
            measured = degree + problem.g[i - 1].block_degree("x")
        if measured > bound:
            raise _fail(
                "DEGREE_METADATA_MISMATCH",
                "a sigma exceeds every degree recorded for it",
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
    scaled = base * Fraction(3 * n) ** d
    if formula == "1.1":
        prefactor, argument = c, base * Fraction(n) ** d
    elif formula == "1.2":
        prefactor, argument = c * (m + 1) * 2 ** (m // 2), scaled * (m + 1)
    elif formula == "1.3":
        prefactor, argument = c, scaled
    elif formula == "1.4":
        prefactor, argument = c * r * r, scaled * r * r
    elif formula == "1.5":
        prefactor = c * (m + 1) * 2 ** (m // 2) * r * r
        argument = scaled * (m + 1) * r * r
    else:
        prefactor, argument = c, base
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
    power_bits = c.numerator * c.denominator * max(a.bit_length(), b.bit_length())
    if power_bits > POWER_BITS_CAP:
        raise ValidationError(
            "bound too costly to evaluate exactly: the power of its argument "
            f"would have more than {POWER_BITS_CAP} bits",
            power_bits_estimate=power_bits,
        )
    if c.denominator == 1:
        exponent = argument ** int(c)
    else:
        exponent = rational_power_upper(argument, c)
    return prefactor * exp_upper(exponent)
