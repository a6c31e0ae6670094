"""Failure classes shared across the certification pipeline.

Every error that can abort a pipeline stage carries a small ``payload``
dict with exact (JSON-serializable) data: witnesses, best bounds seen,
exhausted caps.  The CLI turns these into structured diagnostics and
exits with the class's ``exit_code`` (the README table); library
callers can inspect ``payload`` directly.
"""
from __future__ import annotations

from typing import Any


class CylcertError(Exception):
    """Base class; ``payload`` holds structured diagnostic data, and
    ``exit_code`` is the status ``cylcert`` exits with."""

    code = "ERROR"
    exit_code = 10

    def __init__(self, message: str, **payload: Any) -> None:
        super().__init__(message)
        self.payload = payload


class ShapeMismatchError(CylcertError):
    """Two polynomials with different variable layouts were combined."""

    code = "SHAPE_MISMATCH"
    exit_code = 20


class SchemaError(CylcertError):
    """A JSON document does not match the expected on-disk format."""

    code = "SCHEMA"
    exit_code = 20


class ValidationError(CylcertError):
    """A problem fails its declared preconditions (frame, degrees, ...)."""

    code = "VALIDATION"
    exit_code = 10


class NoFeasibleSampleError(ValidationError):
    """No point satisfying every constraint was found at the search cap."""

    code = "NO_FEASIBLE_SAMPLE"
    exit_code = 10


class IndefiniteConditionError(CylcertError):
    """A required leading-form positivity condition fails; witness attached."""

    code = "INDEFINITE_CONDITION"
    exit_code = 11


class NonpositiveWitnessError(CylcertError):
    """A feasible sample of the target region evaluated to <= 0."""

    code = "NONPOSITIVE_WITNESS"
    exit_code = 12


class BelowThresholdError(CylcertError):
    """A sample of the full domain evaluated strictly below the threshold."""

    code = "BELOW_THRESHOLD"
    exit_code = 13


class ResolutionExhaustedError(CylcertError):
    """Grid refinement hit its depth cap without a conclusive answer."""

    code = "RESOLUTION_EXHAUSTED"
    exit_code = 13


class SearchExhaustedError(CylcertError):
    """A search ran out of candidates: no perturbation weight up to its cap,
    or no facet witness within the degree budget."""

    code = "SEARCH_EXHAUSTED"
    exit_code = 13


class CapExceededError(CylcertError):
    """A hard size cap was hit: the Polya exponent cap, the Gram basis size
    cap, the variable count that facet witnesses allow, the degree cap
    on the perturbed target, or the size cap of an exact Gram matrix."""

    code = "CAP_EXCEEDED"
    exit_code = 14


class BudgetExhaustedError(CylcertError):
    """A grid-scan pass would exceed its pair or memory budget, or a sphere
    cover its construction cap."""

    code = "BUDGET_EXHAUSTED"
    exit_code = 13


class SosStalledError(CylcertError):
    """PSD feasibility iteration stalled (no Gram matrix found)."""

    code = "STALLED"
    exit_code = 13


class VerificationError(CylcertError):
    """Independent re-check of a certificate file failed; ``kind`` in payload
    is one of IDENTITY_FAIL, NEGATIVE_WEIGHT, DEGREE_METADATA_MISMATCH.  A
    certificate issued for a different problem (a problem-hash mismatch) is
    reported as IDENTITY_FAIL."""

    code = "VERIFY_FAIL"
    exit_code = 15
