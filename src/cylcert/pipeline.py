"""End-to-end certification: from a validated problem to a verified certificate.

The chain is fixed: validate the input, move box-framed problems into the
simplex frame, certify the side condition and a positive floor for the
padded target, search the perturbation weight, saturate with the slack
variable until every coefficient form is a sum of squares, decompose the
facet witnesses of the parity class those forms use into squares, and
assemble the weighted-square representation.  Box-framed inputs get
their certificate composed back through the affine change of
coordinates, and the certificate is verified once, against the input
problem, before it is returned.

Every stage leaves its evidence in the diagnostics mapping so a caller
can reconstruct why the run succeeded (or report precisely how it
failed).  All stages are deterministic for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .certificate import (
    Certificate,
    assemble,
    compose_with_frame,
    sos_only_certificate,
    verify_certificate,
)
from .certified import certified_cylinder_min, check_leading_form_condition
from .errors import SosStalledError, ValidationError
from .perturb import find_perturbation
from .polya import polya_saturate
from .problem import (
    BOX,
    CylinderProblem,
    RescaleRecord,
    ValidationReport,
    rescale_to_simplex,
    validate_problem,
)
from .putinar_base import ModuleWitness, base_certificates, parity_vector
from .serialize import frac_to_str
from .sos import sos_decompose

Parity = tuple[int, ...]


@dataclass(frozen=True)
class CertifyResult:
    """A verified certificate plus the evidence trail that produced it.

    ``certificate`` is stated in the frame of the input problem.  The
    facet witnesses in ``base_cache`` live in the solving (simplex)
    frame and are keyed by parity vector; they are reusable across runs
    that share the constraint list.
    """

    certificate: Certificate
    problem: CylinderProblem
    base_cache: dict[Parity, ModuleWitness] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def solving_frame(
    problem: CylinderProblem, seed: int
) -> tuple[CylinderProblem, RescaleRecord | None, tuple[Fraction, ...], ValidationReport]:
    """Validate a problem and move it into the simplex frame.

    Returns the problem to solve, the rescale record (None for a
    simplex-framed input), a feasible sample point in solving
    coordinates, and the validation report.  Raises
    :class:`ValidationError` when feasible samples escape the declared
    frame region, since no certificate or bound then covers S.
    """
    report = validate_problem(problem, seed=seed)
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
    seed: int = 0,
    precomputed_base: dict[Parity, ModuleWitness] | None = None,
) -> CertifyResult:
    """Run the whole certification chain on one problem.

    ``seed`` seeds the validation sampling.  ``precomputed_base`` may
    carry facet witnesses from an earlier run over the same constraint
    list; each is re-verified before reuse and silently recomputed when
    stale.  Raises the stage-specific error of whichever stage fails; the
    exception payloads carry the witnesses.
    """
    diag: dict[str, Any] = {"config": {"seed": seed}}

    solving, record, fallback, report = solving_frame(problem, seed)
    diag["validate"] = report.to_obj()
    if record is not None:
        diag["rescale"] = record.to_obj()

    conditions = check_leading_form_condition(solving, fallback_x=fallback)
    diag["conditions"] = {name: cm.to_obj() for name, cm in conditions.items()}

    floor = certified_cylinder_min(solving, rel_slack=Fraction(1, 8), fallback_x=fallback)
    fstar_lb = floor.lower_bound
    diag["fstar"] = floor.to_obj()

    cert: Certificate | None = None
    base: dict[Parity, ModuleWitness] = {}
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
        diag["base"] = {
            "parities": ["".join(map(str, p)) for p in sorted(base)],
            "budgets": {
                "".join(map(str, p)): base[p].budget for p in sorted(base)
            },
        }

        cert = assemble(
            solving,
            pert.lam,
            pert.k,
            pol,
            base,
            fstar_lb=fstar_lb,
        )

    if record is not None:
        cert = compose_with_frame(cert, record, problem)
    diag["verify"] = verify_certificate(problem, cert).to_obj()
    return CertifyResult(
        certificate=cert, problem=problem, base_cache=base, diagnostics=diag
    )
