"""End-to-end certification: from a validated problem to a verified certificate.

The chain is fixed: validate the input, move box-framed problems into the
simplex frame, certify the side condition and a positive floor for the
padded target, search the perturbation weight, saturate with the simplex
sum until every coefficient form is a sum of squares, decompose the
facet witnesses of the parity class those forms use into squares, and
assemble the weighted-square representation (:func:`assemble`, at the
end of this module).  Box-framed inputs get their certificate composed
back through the affine change of coordinates.  Each sigma is then made
primitive (:meth:`~cylcert.poly.SosDecomposition.primitive`: integer
squares of content 1, the content moved into the weights, equal squares
merged), and the certificate is verified once, against the input
problem, before it is returned, so the one verified is the one written.

The assembly stitches together the upstream stages:

  * the absorption step contributes, to each sigma_i, the explicit
    squares ``(lam/c_i) * (sq * (ghat_i - 1)^k)^2`` where the sq run
    over a square decomposition of the sphere-padding factor;
  * the saturated remainder contributes, per simplex monomial
    ``u^(a0) x^alpha`` with ``u = 1 - sum(x)``, products of its
    coefficient-form squares, the even square root of the monomial
    (expanded in x), and the facet-product witnesses;
  * the sphere padding variables are set to 1 (their slots dropped)
    once in each factor of a square, so stored squares live over the
    original variables.

The certificate carries only what the checker reads: the sigmas, the
construction's parameters (lambda, k, N, ell, c9) and the certified
floor.  Assembly measures no degree: verification measures each sigma's
and checks it against the degree laws of those parameters.  The
box-to-simplex record goes to ``diagnostics["rescale"]``, and the work
of the run's float Gram searches (:class:`~cylcert.sos.GramTally`) to
``diagnostics["gram"]``.

This module is the top of the search: it and the stages it calls
(``certified``, ``covers``, ``perturb``, ``polya``, ``putinar_base``,
``sos``) use numpy.  What it hands back is checked by
:mod:`cylcert.certificate`, which needs none of them.

Every stage leaves its evidence in the diagnostics mapping so a caller
can reconstruct why the run succeeded (or report precisely how it
failed).  All stages are deterministic: the same problem gives the same
certificate and diagnostics.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Any, Mapping

from .certificate import (
    Certificate,
    CertificateMeta,
    compose_with_frame,
    verify_certificate,
)
from .certified import certified_cylinder_min, check_leading_form_condition
from .errors import SosStalledError, ValidationError
from .perturb import factor_squares, find_perturbation, normalized_constraints
from .poly import BlockedPoly, BlockShape, SosDecomposition
from .polya import PolyaResult, polya_saturate
from .problem import (
    BOX,
    CylinderProblem,
    RescaleRecord,
    ValidationReport,
    rescale_to_simplex,
    validate_problem,
)
from .putinar_base import (
    Parity,
    Witness,
    base_certificates,
    even_square_root,
    parity_vector,
    simplex_u,
)
from .serialize import frac_to_str
from .sos import gram_tally, sos_decompose


@dataclass(frozen=True)
class CertifyResult:
    """A verified certificate plus the evidence trail that produced it.

    ``certificate`` is stated in the frame of the input problem.  The
    facet witnesses in ``base_cache`` are sigma tuples
    ``(sigma_0, sigma_1, ..., sigma_s)`` in the solving (simplex) frame,
    keyed by parity vector; they are reusable across runs that share the
    constraint list.  ``diagnostics["base"]["reused"]`` names the
    parities whose witness was taken from ``precomputed_base``.
    """

    certificate: Certificate
    base_cache: dict[Parity, Witness] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def solving_frame(
    problem: CylinderProblem,
) -> tuple[CylinderProblem, RescaleRecord | None, tuple[Fraction, ...], ValidationReport]:
    """Validate a problem and move it into the simplex frame.

    Returns the problem to solve, the rescale record (None for a
    simplex-framed input), a feasible sample point in solving
    coordinates, and the validation report.  Raises
    :class:`ValidationError` when feasible samples escape the declared
    frame region, since no certificate or bound then covers S.
    """
    report = validate_problem(problem)
    if not report.ok:
        raise ValidationError(
            "feasible samples escape the declared frame region",
            violations=[pt.to_obj() for pt in report.containment_violations],
        )
    fallback = report.feasible.x
    if problem.frame != BOX:
        return problem, None, fallback, report
    solving, record = rescale_to_simplex(problem)
    return solving, record, tuple(record.forward_coord(v) for v in fallback), report


def certify_problem(
    problem: CylinderProblem,
    *,
    precomputed_base: Mapping[Parity, Witness] | None = None,
) -> CertifyResult:
    """Run the whole certification chain on one problem.

    ``precomputed_base`` may carry facet witnesses from an earlier run
    over the same constraint list; each is checked by the rule
    :func:`verify_certificate` applies before reuse and silently
    recomputed when it fails.  Raises the stage-specific error of whichever stage fails; the
    exception payloads carry the witnesses.
    """
    solving, record, fallback, report = solving_frame(problem)
    diag: dict[str, Any] = {"validate": report.to_obj()}
    if record is not None:
        diag["rescale"] = record.to_obj()

    conditions = check_leading_form_condition(solving, fallback_x=fallback)
    diag["conditions"] = {name: cm.to_obj() for name, cm in conditions.items()}

    floor = certified_cylinder_min(solving, rel_slack=Fraction(1, 8), fallback_x=fallback)
    fstar_lb = floor.lower_bound
    diag["fstar"] = floor.to_obj()

    with gram_tally() as gram:
        cert: Certificate | None = None
        base: dict[Parity, Witness] = {}
        if solving.d == 0:
            # The target does not involve the bounded block at all, so a
            # plain square decomposition is a complete certificate; fall
            # through to the general machinery if the search stalls.
            try:
                sigma0 = sos_decompose(solving.f)
            except SosStalledError as exc:
                diag["shortcut"] = {"used": False, "reason": exc.payload or str(exc)}
            else:
                cert = sos_only_certificate(solving, sigma0, fstar_lb=fstar_lb)
                diag["shortcut"] = {"used": True, "squares": len(sigma0.squares)}

        if cert is None:
            pert = find_perturbation(solving, fstar_lb)
            diag["perturbation"] = {
                "lambda": frac_to_str(pert.lam),
                "k": pert.k,
                "threshold": frac_to_str(pert.threshold),
                "evidence": pert.evidence.to_obj(),
            }

            _, blocks = solving.homogenized()
            pol = polya_saturate(pert.target, pert.threshold, blocks)
            diag["polya"] = {
                "exponent": pol.exponent,
                "ell": pol.ell,
                "cap": pol.cap,
                "forms": len(pol.forms),
            }

            diag["form_sos"] = {
                "squares": sum(len(d.squares) for d in pol.sos.values())
            }

            base = base_certificates(
                solving.shape,
                solving.g,
                {parity_vector(key) for key in pol.forms},
                precomputed=precomputed_base,
            )
            cached = precomputed_base or {}
            diag["base"] = {
                "parities": ["".join(map(str, p)) for p in sorted(base)],
                "reused": [
                    "".join(map(str, p)) for p in sorted(base) if base[p] is cached.get(p)
                ],
            }

            cert = assemble(
                solving,
                pert.lam,
                pert.k,
                pol,
                base,
                fstar_lb=fstar_lb,
            )
    diag["gram"] = asdict(gram)

    if record is not None:
        cert = compose_with_frame(cert, record, problem)
    cert = replace(cert, sigmas=tuple(deco.primitive() for deco in cert.sigmas))
    diag["verify"] = verify_certificate(problem, cert).to_obj()
    return CertifyResult(certificate=cert, base_cache=base, diagnostics=diag)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _ground(shape: BlockShape, p: BlockedPoly) -> BlockedPoly:
    """``p`` with every homogenizer ``-> 1``, over the problem's ``shape``.

    The problem's shape has no homogenizers, so this drops the slots
    after its width and sums the terms that meet there.
    """
    width = shape.width
    den, nums = p._ints
    out: dict[tuple[int, ...], int] = {}
    for expo, a in nums:
        key = expo[:width]
        out[key] = out.get(key, 0) + a
    return BlockedPoly._from_ints(shape, den, out)


def assemble(
    problem: CylinderProblem,
    lam: Fraction,
    k: int,
    polya: PolyaResult,
    base: Mapping[Parity, Witness],
    *,
    fstar_lb: Fraction,
) -> Certificate:
    """Stitch the pipeline stages into an exact certificate.

    ``polya.sos`` holds an SOS decomposition of each coefficient form;
    ``base`` must cover every parity that occurs, and its witnesses set
    ``c9``.  Nothing is checked here: :func:`verify_certificate`, which
    the pipeline runs once on the certificate it returns, checks the
    identity and the degree laws.

    Each stored square is a product of factors: a sphere square and a
    slack power, or a form square, its simplex monomial's root (over the
    problem's shape, ``u`` already expanded) and a witness square.
    Grounding (homogenizers ``-> 1``, their slots dropped) is a ring
    homomorphism, so the product of the grounded factors is the grounded
    product: the same polynomial with the same ``Fraction``s.  Each factor
    is therefore grounded once and reused for every square it enters.
    """
    shape = problem.shape
    weights: list[list[Fraction]] = [[] for _ in range(problem.s + 1)]
    squares: list[list[BlockedPoly]] = [[] for _ in range(problem.s + 1)]

    # Term one: absorption squares for each constraint.
    sphere_squares = [_ground(shape, q) for q in factor_squares(problem)]
    one = BlockedPoly.constant(shape, 1)
    for i, (ghat, c_i) in enumerate(normalized_constraints(problem), start=1):
        slack = (ghat - one) ** k
        weights[i] += [lam / c_i] * len(sphere_squares)
        squares[i] += [sq * slack for sq in sphere_squares]

    # Term two: saturated remainder through the facet-product witnesses.
    # Per parity and sigma position: [(weight, grounded square)].
    witness_squares: dict[Parity, list] = {}
    for key in sorted(polya.forms):
        deco = polya.sos[key]
        parity = parity_vector(key)
        if parity not in witness_squares:
            witness_squares[parity] = [
                [(w, _ground(shape, t)) for w, t in zip(tau.weights, tau.squares)]
                for tau in base[parity]
            ]
        root = even_square_root(key)
        sq_x = simplex_u(shape) ** root[0]
        for slot, power in zip(shape.block_indices("x"), root[1:]):
            if power:
                sq_x = sq_x * BlockedPoly.variable(shape, slot) ** power
        for w_form, q_form in zip(deco.weights, deco.squares):
            grounded = _ground(shape, q_form) * sq_x
            for index, pairs in enumerate(witness_squares[parity]):
                for w_tau, t in pairs:
                    weights[index].append(w_form * w_tau)
                    squares[index].append(grounded * t)

    # sigma_0's generator is 1
    gdegs = (0,) + tuple(g.block_degree("x") for g in problem.g)
    c9 = max(
        (
            tau.degree() + gdegs[index]
            for witness in base.values()
            for index, tau in enumerate(witness)
            if tau.weights
        ),
        default=0,
    )
    return Certificate(
        problem_hash=problem.problem_hash(),
        sigmas=tuple(
            SosDecomposition(shape, tuple(w), tuple(q)) for w, q in zip(weights, squares)
        ),
        meta=CertificateMeta(
            lam=lam, k=k, ell=polya.ell, polya_exponent=polya.exponent, c9=c9, fstar_lb=fstar_lb
        ),
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
    return Certificate(
        problem_hash=problem.problem_hash(),
        sigmas=(sigma0,) + (empty,) * problem.s,
        meta=CertificateMeta(
            lam=Fraction(0), k=0, ell=0, polya_exponent=0, c9=0, fstar_lb=fstar_lb
        ),
    )
