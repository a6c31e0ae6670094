"""Failure classes shared across the certification pipeline.

Every error that can abort a pipeline stage carries a small ``payload``
dict with exact (JSON-serializable) data: witnesses, best bounds seen,
exhausted caps.  The CLI turns these into structured diagnostics and
exit codes; library callers can inspect ``payload`` directly.
"""
from __future__ import annotations

from typing import Any


class CylcertError(Exception):
    """Base class; ``payload`` holds structured diagnostic data."""

    code = "ERROR"

    def __init__(self, message: str, **payload: Any) -> None:
        super().__init__(message)
        self.payload = payload


class ShapeMismatchError(CylcertError):
    """Two polynomials with different variable layouts were combined."""

    code = "SHAPE_MISMATCH"


class SchemaError(CylcertError):
    """A JSON document does not match the expected on-disk format."""

    code = "SCHEMA"


class ValidationError(CylcertError):
    """A problem fails its declared preconditions (frame, degrees, ...)."""

    code = "VALIDATION"


class NoFeasibleSampleError(ValidationError):
    """No point satisfying every constraint was found at the search cap."""

    code = "NO_FEASIBLE_SAMPLE"


class IndefiniteConditionError(CylcertError):
    """A required leading-form positivity condition fails; witness attached."""

    code = "INDEFINITE_CONDITION"


class NonpositiveWitnessError(CylcertError):
    """A feasible sample of the target region evaluated to <= 0."""

    code = "NONPOSITIVE_WITNESS"


class BelowThresholdError(CylcertError):
    """A sample of the full domain evaluated strictly below the threshold."""

    code = "BELOW_THRESHOLD"


class ResolutionExhaustedError(CylcertError):
    """Grid refinement hit its depth cap without a conclusive answer."""

    code = "RESOLUTION_EXHAUSTED"


class SearchExhaustedError(CylcertError):
    """A search ran out of candidates: no perturbation weight up to its cap,
    or no facet witness within the degree budget."""

    code = "SEARCH_EXHAUSTED"


class CapExceededError(CylcertError):
    """A hard size cap was hit: the Polya exponent cap, the Gram basis size
    cap, the variable count that facet witnesses allow, or the degree cap
    on the perturbed target."""

    code = "CAP_EXCEEDED"


class BudgetExhaustedError(CylcertError):
    """A grid-scan pass would exceed its pair, point or memory budget."""

    code = "BUDGET_EXHAUSTED"


class SosStalledError(CylcertError):
    """PSD feasibility iteration stalled (no Gram matrix found)."""

    code = "STALLED"


class IdentityMismatchError(CylcertError):
    """Assembly broke an invariant: a degree law, or a padding variable
    that survived substitution."""

    code = "IDENTITY_MISMATCH"


class VerificationError(CylcertError):
    """Independent re-check of a certificate file failed; ``kind`` in payload
    is one of IDENTITY_FAIL, NEGATIVE_WEIGHT, DEGREE_METADATA_MISMATCH.  A
    certificate issued for a different problem (a problem-hash mismatch) is
    reported as IDENTITY_FAIL."""

    code = "VERIFY_FAIL"
