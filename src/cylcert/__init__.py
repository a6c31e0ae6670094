"""Exact positivity certificates on cylinders S x R^r.

Given a polynomial that is positive on a compact semialgebraic set S
crossed with finitely many unbounded variables, this package produces a
weighted-sum-of-squares representation in the constraint polynomials —
an identity of exact rational term maps, checkable without trusting any
of the search machinery — together with degree accounting and the
classical worst-case degree bounds for comparison.

Four tractable regimes are supported: a single unbounded variable with
any even top degree, two unbounded variables of degree four, any number
of unbounded variables of degree two, and a split pair of blocks of
degrees m and two.  See :mod:`cylcert.pipeline` for the certification
chain and :mod:`cylcert.cli` for the command-line entry points.

Importing the package loads only the checker: the certificate format,
verification and the exact modules, all on the standard library.  The
search names (``certify_problem`` and the rest of :data:`_SEARCH_NAMES`)
load the search and numpy on first use.
"""

from importlib import import_module

from .certificate import (
    BoundInputs,
    Certificate,
    CertificateMeta,
    VerificationReport,
    certificate_from_obj,
    certificate_to_obj,
    theorem_bound,
    verify_certificate,
)
from .errors import (
    CapExceededError,
    CylcertError,
    IndefiniteConditionError,
    NonpositiveWitnessError,
    SchemaError,
    SearchExhaustedError,
    SosStalledError,
    ValidationError,
    VerificationError,
)
from .poly import BlockedPoly, BlockShape, SosDecomposition
from .problem import (
    CylinderProblem,
    RescaleRecord,
    Variant,
    problem_from_obj,
    problem_to_obj,
    rescale_to_simplex,
    validate_problem,
)

__version__ = "0.1.0"

# name -> the search module that defines it
_SEARCH_NAMES = {
    "CertifiedMin": "certified",
    "certified_cylinder_min": "certified",
    "certified_excess_check": "certified",
    "check_leading_form_condition": "certified",
    "CertifyResult": "pipeline",
    "certify_problem": "pipeline",
    "sos_decompose": "sos",
}


def __getattr__(name: str):
    """Load a search name on first use (PEP 562)."""
    module = _SEARCH_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "BlockShape",
    "BlockedPoly",
    "BoundInputs",
    "CapExceededError",
    "Certificate",
    "CertificateMeta",
    "CertifiedMin",
    "CertifyResult",
    "CylcertError",
    "CylinderProblem",
    "IndefiniteConditionError",
    "NonpositiveWitnessError",
    "RescaleRecord",
    "SchemaError",
    "SearchExhaustedError",
    "SosDecomposition",
    "SosStalledError",
    "ValidationError",
    "Variant",
    "VerificationError",
    "VerificationReport",
    "certificate_from_obj",
    "certificate_to_obj",
    "certified_cylinder_min",
    "certified_excess_check",
    "certify_problem",
    "check_leading_form_condition",
    "problem_from_obj",
    "problem_to_obj",
    "rescale_to_simplex",
    "sos_decompose",
    "theorem_bound",
    "validate_problem",
    "verify_certificate",
]
