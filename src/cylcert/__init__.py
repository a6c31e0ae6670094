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
"""

from .certificate import (
    BoundInputs,
    Certificate,
    CertificateMeta,
    DegreeReport,
    VerificationReport,
    certificate_from_obj,
    certificate_to_obj,
    theorem_bound,
    verify_certificate,
)
from .certified import (
    CertifiedMin,
    certified_cylinder_min,
    certified_excess_check,
    check_leading_form_condition,
)
from .errors import (
    CapExceededError,
    CylcertError,
    IdentityMismatchError,
    IndefiniteConditionError,
    NonpositiveWitnessError,
    SchemaError,
    SearchExhaustedError,
    SosStalledError,
    ValidationError,
    VerificationError,
)
from .pipeline import CertifyResult, certify_problem
from .poly import BlockedPoly, BlockShape
from .problem import (
    CylinderProblem,
    RescaleRecord,
    Variant,
    problem_from_obj,
    problem_to_obj,
    rescale_to_simplex,
    validate_problem,
)
from .sos import SosDecomposition, sos_decompose

__version__ = "0.1.0"

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
    "DegreeReport",
    "IdentityMismatchError",
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
