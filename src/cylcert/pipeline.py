"""End-to-end certification: from a validated problem to a verified certificate.

The chain is fixed: validate the input, move box-framed problems into the
simplex frame, certify the side condition and a positive floor for the
padded target, search the perturbation weight, saturate with the slack
variable until every coefficient form is positive, decompose those forms
and the facet witnesses into squares, and assemble the weighted-square
representation.  The assembled certificate is re-verified before it is
returned, and box-framed inputs get their certificate composed back
through the affine change of coordinates.

Every stage leaves its evidence in the diagnostics mapping so a caller
can reconstruct why the run succeeded (or report precisely how it
failed).  All stages are deterministic for a fixed configuration.
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
from .perturb import LAMBDA_CAP_DEFAULT, find_perturbation
from .polya import polya_saturate
from .problem import BOX, CylinderProblem, RescaleRecord, rescale_to_simplex, validate_problem
from .putinar_base import BUDGET_CAP, ModuleWitness, base_certificates
from .serialize import frac_to_str
from .sos import sos_decompose

Parity = tuple[int, ...]


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a certification run.

    The fields cap the grid refinement depth, the perturbation weight,
    and the facet-witness degree ladder, and seed the validation
    sampling.  Every certificate the chain produces is exact.
    """

    grid_depth: int = 24
    lambda_cap: int = LAMBDA_CAP_DEFAULT
    seed: int = 0
    budget_cap: int = BUDGET_CAP

    def __post_init__(self) -> None:
        if self.grid_depth <= 0 or self.lambda_cap <= 0 or self.budget_cap <= 0:
            raise ValidationError("configuration caps must be positive")

    def to_obj(self) -> dict[str, Any]:
        return {
            "grid_depth": self.grid_depth,
            "lambda_cap": self.lambda_cap,
            "seed": self.seed,
            "budget_cap": self.budget_cap,
        }


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


def certify_problem(
    problem: CylinderProblem,
    config: RunConfig | None = None,
    *,
    precomputed_base: dict[Parity, ModuleWitness] | None = None,
) -> CertifyResult:
    """Run the whole certification chain on one problem.

    ``precomputed_base`` may carry facet witnesses from an earlier run
    over the same constraint list; each is re-verified before reuse and
    silently recomputed when stale.  Raises the stage-specific error of
    whichever stage fails; the exception payloads carry the witnesses.
    """
    config = config or RunConfig()
    diag: dict[str, Any] = {"config": config.to_obj()}

    report = validate_problem(problem, seed=config.seed)
    diag["validate"] = report.to_obj()
    if not report.ok:
        raise ValidationError(
            "feasible samples escape the declared frame region",
            violations=[pt.to_obj() for pt in report.containment_violations],
        )

    record: RescaleRecord | None = None
    solving = problem
    fallback = report.feasible.x
    if problem.frame == BOX:
        solving, record = rescale_to_simplex(problem)
        fallback = tuple(record.forward_coord(v) for v in fallback)
        diag["rescale"] = record.to_obj()

    conditions = check_leading_form_condition(
        solving, fallback_x=fallback, depth_cap=config.grid_depth
    )
    diag["conditions"] = {name: cm.to_obj() for name, cm in conditions.items()}

    floor = certified_cylinder_min(
        solving,
        rel_slack=Fraction(1, 8),
        fallback_x=fallback,
        depth_cap=config.grid_depth,
    )
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
            cert = sos_only_certificate(
                solving, sigma0, rescale=record, fstar_lb=fstar_lb
            )
            diag["shortcut"] = {"used": True, "squares": len(sigma0.squares)}

    if cert is None:
        pert = find_perturbation(
            solving,
            fstar_lb,
            lambda_cap=config.lambda_cap,
            depth_cap=config.grid_depth,
        )
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

        form_sos = {key: sos_decompose(pol.forms[key]) for key in sorted(pol.forms)}
        diag["form_sos"] = {
            "squares": sum(len(d.squares) for d in form_sos.values())
        }

        base = base_certificates(
            solving.shape,
            solving.g,
            budget_cap=config.budget_cap,
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
            form_sos,
            base,
            rescale=record,
            fstar_lb=fstar_lb,
        )

    check = verify_certificate(solving, cert)
    if record is not None:
        cert = compose_with_frame(cert, record, problem)
        check = verify_certificate(problem, cert)
    diag["verify"] = check.to_obj()
    return CertifyResult(
        certificate=cert, problem=problem, base_cache=base, diagnostics=diag
    )
