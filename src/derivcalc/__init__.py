"""derivcalc: exact symbolic calculus of derivations and differential
operators over the rational function field Q(t1, ..., tk).

The package provides exact field arithmetic, canonical operator normal
forms, the product-rule-defect order calculus, multiplicative difference
operators and exponent polynomials, grid reconstruction and finite-table
fitting of operators, a linear-recurrence checker, and desk-scale
counterexample fixtures, all exposed through the ``derivcalc`` CLI.

``import derivcalc`` loads no submodule: each exported name is read from
its defining module on first use (PEP 562), so a CLI call loads only the
modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it; the readers live in
# the CLI module, since a package that imported its own front end would make
# ``python -m derivcalc.cli`` warn that the module is already loaded.
_EXPORTS = {
    "CheckResult": "leibniz",
    "DegreeOverflowError": "reconstruct",
    "Derivation": "deriv",
    "DiffOp": "deriv",
    "DimensionMismatchError": "exactnum",
    "ExpPoly": "genpoly",
    "FitResult": "reconstruct",
    "GF2Poly": "exactnum",
    "GridValues": "reconstruct",
    "IncompleteGridError": "reconstruct",
    "InexactDivisionError": "exactnum",
    "MapTable": "leibniz",
    "MultiPoly": "exactnum",
    "NotInO0Error": "deriv",
    "OpWord": "deriv",
    "PairPoly": "fixtures",
    "PoleError": "exactnum",
    "RatFunc": "exactnum",
    "RecurrenceSpec": "reconstruct",
    "apply_diffop": "deriv",
    "char2_D": "fixtures",
    "char2_compose_check": "fixtures",
    "char2_order_check": "fixtures",
    "check_recurrence": "reconstruct",
    "compose": "deriv",
    "defect": "leibniz",
    "degree_bump": "genpoly",
    "delta": "genpoly",
    "exponent_polynomial": "genpoly",
    "expoly_degree": "genpoly",
    "fit_operator": "reconstruct",
    "gp_degree_check": "genpoly",
    "nested_defect": "leibniz",
    "newton_coeffs": "reconstruct",
    "normalize": "deriv",
    "order_exact": "leibniz",
    "order_upper_check": "leibniz",
    "order_witness": "leibniz",
    "over_identity": "genpoly",
    "parse_derivation": "cli",
    "parse_diffop": "cli",
    "parse_expr": "cli",
    "parse_word": "cli",
    "poly_gcd": "exactnum",
    "product_ring_demo": "fixtures",
    "reconstruct_operator": "reconstruct",
    "theorem2_demo": "fixtures",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # Read on every access, never stored in the package namespace: a stored
    # value would keep whatever the module held at first use, such as a
    # wrapper that was later swapped back out.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return __all__
