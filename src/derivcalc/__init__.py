"""derivcalc: exact symbolic calculus of derivations and differential
operators over the rational function field Q(t1, ..., tk).

The package provides exact field arithmetic, canonical operator normal
forms, the product-rule-defect order calculus, multiplicative difference
operators and exponent polynomials, grid reconstruction and finite-table
fitting of operators, a linear-recurrence checker, and desk-scale
counterexample fixtures, all exposed through the ``derivcalc`` CLI.
"""

from .exactnum import (
    DimensionMismatchError,
    GF2Poly,
    InexactDivisionError,
    MultiPoly,
    PoleError,
    RatFunc,
    poly_gcd,
)
from .deriv import (
    Derivation,
    DiffOp,
    OpWord,
    apply_diffop,
    compose,
    normalize,
)
from .leibniz import (
    CheckResult,
    MapTable,
    NotInO0Error,
    defect,
    nested_defect,
    order_exact,
    order_upper_check,
    order_witness,
)
from .genpoly import (
    ExpPoly,
    degree_bump,
    delta,
    exponent_polynomial,
    expoly_degree,
    gp_degree_check,
    over_identity,
)
from .reconstruct import (
    DegreeOverflowError,
    FitResult,
    GridValues,
    IncompleteGridError,
    RecurrenceSpec,
    check_recurrence,
    fit_operator,
    newton_coeffs,
    reconstruct_operator,
)
from .fixtures import (
    PairPoly,
    char2_D,
    char2_compose_check,
    char2_order_check,
    product_ring_demo,
    theorem2_demo,
)

__version__ = "0.1.0"

_READERS = ("parse_derivation", "parse_diffop", "parse_expr", "parse_word")


def __getattr__(name):
    # The readers live in the CLI module, loaded on first use (PEP 562): a
    # package that imports its own front end makes ``python -m derivcalc.cli``
    # warn that the module is already loaded.
    if name in _READERS:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckResult",
    "DegreeOverflowError",
    "Derivation",
    "DiffOp",
    "DimensionMismatchError",
    "ExpPoly",
    "FitResult",
    "GF2Poly",
    "GridValues",
    "IncompleteGridError",
    "InexactDivisionError",
    "MapTable",
    "MultiPoly",
    "NotInO0Error",
    "OpWord",
    "PairPoly",
    "PoleError",
    "RatFunc",
    "RecurrenceSpec",
    "apply_diffop",
    "char2_D",
    "char2_compose_check",
    "char2_order_check",
    "check_recurrence",
    "compose",
    "defect",
    "degree_bump",
    "delta",
    "exponent_polynomial",
    "expoly_degree",
    "fit_operator",
    "gp_degree_check",
    "nested_defect",
    "newton_coeffs",
    "normalize",
    "order_exact",
    "order_upper_check",
    "order_witness",
    "over_identity",
    "parse_derivation",
    "parse_diffop",
    "parse_expr",
    "parse_word",
    "poly_gcd",
    "product_ring_demo",
    "reconstruct_operator",
    "theorem2_demo",
]
