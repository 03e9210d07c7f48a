"""Exact-arithmetic toolkit for Diophantine approximation over Q(t).

Rational-function arithmetic, places and divisors, heights and Weil
functions, moving hyperplane families, monomial-space machinery, the
moving-to-fixed reduction, and an experiment harness with a CLI.
"""
from .harness import (
    ConfigError,
    ExperimentConfig,
    ProbeRefusal,
    VerificationReport,
    generate,
    load_experiment,
    run_reduction,
    run_verify,
    run_wang_check,
)
from .heights import (
    LinearForm,
    PlaceSet,
    ProjPoint,
    height_form,
    height_point,
    proximity,
    weil,
    weil_total,
)
from .moving import (
    MovingHyperplaneFamily,
    PointSequence,
    Sequence,
    general_position_check,
    nondegeneracy_probe,
    normalize_xi,
    smallness_report,
    window_range,
)
from .parser import ParseError, parse_expression, parse_ratfunc
from .places import INFINITY, Divisor, PrimeDivisor, check_sum_formula, divisor_of, ord_at, parse_prime
from .ratfunc import Poly, RatFunc, factorize
from .steinmetz import choose_s, dim_L, extend_basis, monomials

__all__ = [
    "ConfigError",
    "Divisor",
    "ExperimentConfig",
    "INFINITY",
    "LinearForm",
    "MovingHyperplaneFamily",
    "ParseError",
    "PlaceSet",
    "PointSequence",
    "Poly",
    "PrimeDivisor",
    "ProbeRefusal",
    "ProjPoint",
    "RatFunc",
    "Sequence",
    "VerificationReport",
    "check_sum_formula",
    "choose_s",
    "dim_L",
    "divisor_of",
    "extend_basis",
    "factorize",
    "general_position_check",
    "generate",
    "height_form",
    "height_point",
    "load_experiment",
    "monomials",
    "nondegeneracy_probe",
    "normalize_xi",
    "ord_at",
    "parse_expression",
    "parse_prime",
    "parse_ratfunc",
    "proximity",
    "run_reduction",
    "run_verify",
    "run_wang_check",
    "smallness_report",
    "weil",
    "weil_total",
    "window_range",
]

__version__ = "0.1.0"
