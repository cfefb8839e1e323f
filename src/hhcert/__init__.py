"""hhcert: certify strong log-convexity and verify Hermite-Hadamard-type chains.

The package parses a user-defined positive function f(x), brackets and
estimates the largest modulus c for which f is strongly log-convex on an
interval, and numerically verifies every term and ordering of the
classical, six-term (Dragomir-Mond), and strengthened inequality chains,
plus the corrected product-integral bound, all against a deterministic
adaptive quadrature oracle.
"""

__version__ = "0.1.0"

from .certify import (
    CertStatus,
    ConvexityKind,
    ModulusBracket,
    ModulusCertificate,
    ModulusCheck,
    NotPositiveError,
    check_modulus,
    estimate_modulus,
    log_defect,
    modulus_bracket,
)
from .chains import (
    ChainReport,
    NotLogConvexError,
    Theorem2Report,
    classical_hh_terms,
    closed_form_J,
    dragomir_mond_chain,
    max_feasible_c,
    theorem1_chain,
    theorem2_bound,
)
from .expr import (
    DomainError,
    EvaluationError,
    Expression,
    ExpressionError,
    ParseError,
    Refused,
    evaluate,
    evaluate_array,
    parse,
    serialize,
)
from .harness import (
    ALL_FAMILIES,
    CHAIN_KINDS,
    CaseResult,
    CaseSpec,
    SweepReport,
    SweepViolation,
    generate_case,
    run_case,
    sweep,
)
from .means import arithmetic_mean, geometric_mean, logarithmic_mean
from .quadrature import IntegrandError, QuadratureResult, integrate, mean_integral

__all__ = [
    "__version__",
    # expr
    "Refused",
    "Expression",
    "ExpressionError",
    "ParseError",
    "DomainError",
    "EvaluationError",
    "parse",
    "evaluate",
    "evaluate_array",
    "serialize",
    # means
    "arithmetic_mean",
    "geometric_mean",
    "logarithmic_mean",
    # quadrature
    "QuadratureResult",
    "IntegrandError",
    "integrate",
    "mean_integral",
    # certify
    "ConvexityKind",
    "CertStatus",
    "ModulusCertificate",
    "ModulusCheck",
    "ModulusBracket",
    "NotPositiveError",
    "log_defect",
    "modulus_bracket",
    "estimate_modulus",
    "check_modulus",
    # chains
    "ChainReport",
    "Theorem2Report",
    "NotLogConvexError",
    "classical_hh_terms",
    "dragomir_mond_chain",
    "theorem1_chain",
    "closed_form_J",
    "theorem2_bound",
    "max_feasible_c",
    # harness
    "ALL_FAMILIES",
    "CHAIN_KINDS",
    "CaseSpec",
    "CaseResult",
    "SweepViolation",
    "SweepReport",
    "generate_case",
    "run_case",
    "sweep",
]
