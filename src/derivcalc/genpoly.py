"""Difference calculus on the multiplicative semigroup of nonzero field
elements, and exponent polynomials of canonical operators.

The difference of a map f along a nonzero increment g is
delta_g f(x) = f(g*x) - f(x).  A map killed by every (n+1)-fold iterated
difference (but not by every n-fold one) behaves like a polynomial of
degree n on the semigroup.

For a canonical operator E the restriction of E(x)/x to monomials
t1^i1...tk^ik is literally a polynomial in the integer exponents with
coefficients in the field:

    E(t^i)/t^i = sum_a c_a * i^(falling a) * t^(-a),

where i^(falling m) = i(i-1)...(i-m+1) = sum_e s(m, e) * i^e with s the
signed Stirling numbers of the first kind, integers (``stirling_row``).  So
the coefficient of i^e is sum over a >= e of s(a, e) * c_a / t^a with
s(a, e) = prod_j s(a_j, e_j).  ``exponent_polynomial`` builds each such
coefficient once: the terms with one denominator q share one numerator
over q * t^A, A the componentwise maximum of their indices, so each
coefficient takes one canonical form per distinct denominator.  Its total
degree recovers the operator degree exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from operator import add
from typing import Callable, Sequence

from .exactnum import (
    DimensionMismatchError,
    Monomial,
    RatFunc,
    RatFuncTerms,
    add_terms,
    check_k,
    mono_str,
    monomial_lcm_sum,
    unit_index,
    zero_index,
)
from .deriv import DiffOp, leibniz_sum
from .leibniz import CheckResult, _Memo, _scan

# A map defined on nonzero field elements, e.g. x -> E(x)/x for an operator.
SemigroupMap = Callable[[RatFunc], RatFunc]


class ExpPoly(RatFuncTerms):
    """Polynomial in the integer exponent variables i1..ik with coefficients
    in Q(t1..tk), keyed by exponent tuples like ``DiffOp``."""

    __slots__ = ()

    @classmethod
    def const(cls, k: int, c) -> "ExpPoly":
        return cls(k, {zero_index(k): c})

    @classmethod
    def linear(cls, coeffs: Sequence[RatFunc]) -> "ExpPoly":
        """sum_j coeffs[j] * i_j."""
        k = len(coeffs)
        return cls(k, {unit_index(k, j): c for j, c in enumerate(coeffs)})

    def __mul__(self, other):
        if type(other) is ExpPoly:
            check_k(self.k, other.k)
            products = (
                (tuple(map(add, a, b)), ca * cb)
                for a, ca in self.terms.items()
                for b, cb in other.terms.items()
            )
            return ExpPoly._raw(self.k, add_terms({}, products))
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, exponents: Sequence[int]) -> RatFunc:
        """Exact value at an integer exponent vector."""
        return self._at(exponents, RatFunc.zero(self.k))

    def _term_str(self, beta: Monomial, c: RatFunc) -> str:
        body = mono_str(beta, "i")
        if not body:
            return f"({c})"
        return body if c == 1 else f"({c})*{body}"


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------


def delta(g: RatFunc, f: SemigroupMap, x: RatFunc) -> RatFunc:
    """Multiplicative difference: f(g*x) - f(x).  g and x must be nonzero."""
    if g.is_zero:
        raise ValueError("increment must be nonzero")
    if x.is_zero:
        raise ValueError("point must be a nonzero field element")
    return _difference_step(f, x, g)


def _difference_step(level: SemigroupMap, z: RatFunc, g: RatFunc) -> RatFunc:
    """One nesting of the difference: level(g*z) - level(z)."""
    return level(g * z) - level(z)


def gp_degree_check(
    f: SemigroupMap,
    n: int,
    increments: Sequence[RatFunc],
    points: Sequence[RatFunc],
) -> CheckResult:
    """Test whether f behaves like a polynomial of degree <= n on the sampled
    data: every (n+1)-fold iterated difference over the given increments must
    vanish at every given point.

    Difference operators commute, so increment tuples are enumerated without
    regard to order (the commutation law itself is covered by tests).  n = -1
    asks for the zero map.  Failure reports the witness (increments-tuple,
    point, value); passing is evidence on the data only.  ``checked`` counts
    the (increments-tuple, point) pairs evaluated: C(s + n, n + 1) * p for s
    increments and p points when the check passes.

    A map made by ``over_identity(E)`` takes the closed Leibniz form

        delta_{g1..gm}(E(x)/x) = sum of E^(s)(x)/x * prod_i d^(b_i) g_i / (b_i! * g_i),

    summed over ordered tuples (b_1..b_m) of nonzero multi-indices with
    s = b_1+...+b_m and |s| <= deg E (see ``deriv.leibniz_sum``).  With
    m > deg E no tuple exists, so every difference is zero: at n >= deg E
    the check passes, after the argument checks, with the count above
    (one empty multiset at n = -1) and builds no case.  Any other map is a
    black box and takes ``_Memo.nest`` with the difference step, the
    nesting that ``nested_defect`` uses, with one memo for the whole check.
    Both routes visit tuples and points in the same order.
    """
    if n < -1:
        raise ValueError("degree bound must be at least -1")
    if not increments and n >= 0:
        raise ValueError("need at least one increment")
    if not points:
        raise ValueError("need at least one point")
    for g in increments:
        if g.is_zero:
            raise ValueError("increments must be nonzero")
    for x in points:
        if x.is_zero:
            raise ValueError("points must be nonzero")
    passed = f"all {n + 1}-fold differences vanish on given data"
    if isinstance(f, _OverIdentity):
        E = f.op
        if n >= E.degree:
            # m = n + 1 > deg E: every difference is zero without a case
            for z in (*points, *increments) if n >= 0 else points:
                check_k(E.k, z.k)
            multisets = comb(len(increments) + n, n + 1) if n >= 0 else 1
            return CheckResult(True, passed, checked=multisets * len(points))

        def difference(gs, x):
            v = leibniz_sum(E, x, gs)
            return v / prod(gs, start=x) if v else v

    else:
        memo = _Memo(f)

        def difference(gs, x):
            return memo.nest(_difference_step, gs, x)

    return _scan(
        ((gs, x) for gs in combinations_with_replacement(increments, n + 1) for x in points),
        lambda case: difference(*case),
        f"{n + 1}-fold difference nonzero",
        passed,
    )


# ---------------------------------------------------------------------------
# Exponent polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def stirling_row(m: int) -> tuple[int, ...]:
    """Signed Stirling numbers of the first kind s(m, 0..m): the integer
    coefficients of i(i-1)...(i-m+1) in the monomial basis, low to high."""
    row = [1]
    for j in range(m):
        # multiply by (i - j)
        row = [a - j * b for a, b in zip([0, *row], [*row, 0])]
    return tuple(row)


class _OverIdentity:
    """x -> E(x)/x; carries E so that ``gp_degree_check`` can take the
    closed Leibniz form."""

    __slots__ = ("op",)

    def __init__(self, E: DiffOp):
        self.op = E

    def __call__(self, x: RatFunc) -> RatFunc:
        if x.is_zero:
            raise ZeroDivisionError("map is defined on nonzero elements only")
        return self.op(x) / x


def over_identity(E: DiffOp) -> SemigroupMap:
    """The semigroup map x -> E(x)/x induced by an operator.  The map it
    returns carries E, so ``gp_degree_check`` computes its iterated
    differences in closed form, delta_{g1..gm}(E(x)/x) = sum over
    |s| <= deg E of E^(s)(x)/x * prod_i d^(b_i) g_i / (b_i! * g_i), instead
    of evaluating the map; any other map takes the recursion."""
    return _OverIdentity(E)


def exponent_polynomial(E: DiffOp) -> ExpPoly:
    """The polynomial p with p(i1..ik) = E(t1^i1...tk^ik) / t1^i1...tk^ik.

    The coefficient of i^e is the sum over the terms c_a d^a of E with
    a >= e of s(a, e) * c_a / t^a, where s(a, e) = prod_j s(a_j, e_j) is an
    integer (``stirling_row``).  The terms that feed i^e are grouped by the
    denominator q of c_a; a group whose indices have componentwise maximum
    A adds up to N / (q * t^A) with N = sum of s(a, e) * t^(A-a) * num(c_a),
    which ``monomial_lcm_sum`` builds in one term map, so each group takes
    one canonical form (one gcd, with a monomial when q = 1).  RatFunc
    addition runs only between groups of different denominators.
    """
    k = E.k
    # exponent monomial e -> denominator q -> [(a, s(a, e), num(c_a))]
    groups: dict = {}
    for alpha, c in E.terms.items():
        rows = [[(e, s) for e, s in enumerate(stirling_row(m)) if s] for m in alpha]
        for picks in product(*rows):
            e = tuple(e for e, _ in picks)
            by_den = groups.setdefault(e, {})
            by_den.setdefault(c.den, []).append((prod(s for _, s in picks), alpha, c.num))
    out = {}
    for e, by_den in groups.items():
        total = None
        for den, items in by_den.items():
            num, lcm = monomial_lcm_sum(k, items)
            part = RatFunc(num, den * lcm)
            total = part if total is None else total + part
        if total:
            out[e] = total
    return ExpPoly._raw(k, out)


def expoly_degree(p: ExpPoly) -> int:
    """Total degree in the exponent variables; -1 for the zero polynomial.

    For p = exponent_polynomial(E) this equals the degree of E: distinct
    top-order multi-indices of E feed distinct leading exponent monomials,
    so no cancellation can occur at the top."""
    return p.degree


def degree_bump(p: ExpPoly, a: Sequence[RatFunc]) -> int:
    """Degree of p times the additive map i -> sum_j i_j * a_j.

    Multiplying a nonzero polynomial map by a nonzero additive one raises
    the degree by exactly one in characteristic zero; callers assert
    degree_bump(p, a) == expoly_degree(p) + 1 for nonzero p."""
    a = list(a)
    if len(a) != p.k:
        raise DimensionMismatchError(f"expected {p.k} additive values, got {len(a)}")
    if all(v.is_zero for v in a):
        raise ValueError("the additive map must be nonzero")
    return (p * ExpPoly.linear(a)).degree
