"""Per-layer tracing from outside the package.

``Tracer`` wraps the public functions and methods of each derivcalc layer
for the duration of a ``with`` block and restores them afterwards; no
package code changes.  A module that did ``from .leibniz import
nested_defect`` holds its own reference, so a function is replaced at every
binding site: each loaded ``derivcalc`` module, wherever an attribute is the
original object.  Methods are replaced on their class, which every caller
goes through.

Every wrapped call is a span.  Spans are folded into per-layer totals as
they close (a run makes millions of them), keeping what the metrics need:

* ``calls`` and ``self_s``, the span's duration minus the time its child
  spans cover.  The tracer's own bookkeeping is charged to neither side.
* ``evals`` for scope layers: point-map evaluations (``apply_diffop`` calls
  and calls of ``char2_D``, which the black-box map calls once per
  evaluation) made while a span of the scope is open.
* result statistics: non-constant gcds, and the largest ``RatFunc`` result
  in terms and coefficient bits.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from derivcalc import deriv, exactnum, fixtures, genpoly, leibniz, reconstruct
from derivcalc.exactnum import GF2Poly, MultiPoly, RatFunc


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    evals: int = 0
    nontrivial: int = 0
    depth: int = 0


@dataclass
class SizeStats:
    terms_max: int = 0
    coeff_bits_max: int = 0


def _coeff_bits(c) -> int:
    if type(c) is int:
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


# (layer name, owner, attributes, kind).  An owner is a module for a
# function and a class for a method; ``__rmul__``-style aliases are wrapped
# under the same layer name.  Kinds: "eval" marks a point-map evaluation,
# "scope" a layer that counts the evaluations made inside it, "gcd" and
# "size" the result statistics.
TARGETS = (
    ("exactnum.MultiPoly.mul", MultiPoly, ("__mul__", "__rmul__"), ""),
    ("exactnum.MultiPoly.exact_div", MultiPoly, ("exact_div",), ""),
    ("exactnum.poly_gcd", exactnum, ("poly_gcd",), "gcd"),
    ("exactnum.RatFunc.add", RatFunc, ("__add__", "__radd__"), "size"),
    ("exactnum.RatFunc.mul", RatFunc, ("__mul__", "__rmul__"), "size"),
    ("exactnum.RatFunc.partial", RatFunc, ("partial",), "size"),
    ("exactnum.GF2Poly.mul", GF2Poly, ("__mul__",), ""),
    ("deriv.apply_diffop", deriv, ("apply_diffop",), "eval"),
    ("deriv.normalize", deriv, ("normalize",), ""),
    ("deriv.compose", deriv, ("compose",), ""),
    ("leibniz.nested_defect", leibniz, ("nested_defect",), "scope"),
    ("genpoly.gp_degree_check", genpoly, ("gp_degree_check",), "scope"),
    ("genpoly.exponent_polynomial", genpoly, ("exponent_polynomial",), ""),
    ("reconstruct.fit_operator", reconstruct, ("fit_operator",), ""),
    ("reconstruct.reconstruct_operator", reconstruct, ("reconstruct_operator",), ""),
    ("fixtures.char2_order_check", fixtures, ("char2_order_check",), ""),
    ("fixtures.char2_compose_check", fixtures, ("char2_compose_check",), ""),
    ("fixtures.product_ring_demo", fixtures, ("product_ring_demo",), ""),
    ("fixtures.char2_D", fixtures, ("char2_D",), "eval"),
)


class Tracer:
    """Context manager that traces every layer while it is active."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.ratfunc = SizeStats()
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._scopes: list[LayerStats] = []
        self._undo: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "derivcalc" or n.startswith("derivcalc."))
        ]
        try:
            for name, owner, attrs, kind in TARGETS:
                st = self.layer(name)
                if kind == "scope":
                    self._scopes.append(st)
                for attr in attrs:
                    original = vars(owner).get(attr)
                    if original is None:
                        # a later version may drop or rename it; its metrics read 0
                        self.missing.append(f"{name} ({attr})")
                        continue
                    wrapper = self._wrap(original, st, kind)
                    if isinstance(owner, type):
                        self._set(owner, attr, wrapper)
                        continue
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._scopes.clear()

    def _set(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, st: LayerStats, kind: str):
        clock = time.perf_counter
        stack = self._stack
        scopes = self._scopes if kind == "eval" else ()
        scoped = kind == "scope"
        gcd = kind == "gcd"
        size = self.ratfunc if kind == "size" else None

        def wrapper(*args, **kwargs):
            enter = clock()
            for scope in scopes:
                if scope.depth:
                    scope.evals += 1
            if scoped:
                st.depth += 1
            frame = [0.0]
            stack.append(frame)
            try:
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    if scoped:
                        st.depth -= 1
                    st.calls += 1
                    st.self_s += end - start - frame[0]
                if gcd and not result.is_constant:
                    st.nontrivial += 1
                if size is not None and isinstance(result, RatFunc):
                    terms = list(result.num.terms.values()) + list(result.den.terms.values())
                    size.terms_max = max(size.terms_max, len(terms))
                    size.coeff_bits_max = max(size.coeff_bits_max, max(map(_coeff_bits, terms)))
                return result
            finally:
                if stack:
                    stack[-1][0] += clock() - enter

        wrapper.__wrapped__ = fn
        return wrapper
