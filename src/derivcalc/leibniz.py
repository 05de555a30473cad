"""Product-rule defect calculus for additive maps on Q(t1..tk).

For a map D the defect B(x, y) = D(xy) - y D(x) - x D(y) measures the failure
of the product rule; D is a derivation exactly when B vanishes.  Nesting the
defect construction repeatedly drives down the "order" of a map: a canonical
operator of degree n that kills constants has every n-fold nested defect
identically zero, and the converse classification makes order computable
from the canonical form alone (see ``order_exact``).

``nested_defect`` takes one of two routes.  A canonical operator E (a
``DiffOp``, a ``Derivation`` among them) takes the closed Leibniz form

    B_{y1..ym}(x) = sum of E~^(s)(x) * prod_i d^(b_i) y_i / b_i!
                    + (-1)^m * c_0 * x * y1 * ... * ym,

summed over ordered tuples (b_1..b_m) of nonzero multi-indices with
s = b_1+...+b_m and |s| < deg E.  Here E~^(s) is the symbol derivative E^(s)
without its identity term and c_0 the identity coefficient of E (see
``deriv.leibniz_sum``).  With m >= deg E and no identity part no tuple
exists, so the vanishing half of Theorem 2 is structural: a zero check costs
no arithmetic; along coordinate variables exactly one tuple survives at
m = deg E - 1, which gives the other half (``order_witness``).  Any other
map is a black box and takes ``_Memo.nest``, the one memoized nesting,
which evaluates the map at products of the nesting elements; ``genpoly``
nests its differences through it too.  On both routes m = 0 gives E(x):
the 0-fold nesting is the map itself.

Black-box maps can only be checked on finite data; ``order_upper_check``
therefore reports sound evidence ("consistent with order <= n on the given
samples"), not a proof.  Exact decisions are reserved for canonical
operators.  The black-box route uses only +, -, * and ** 0 of its
arguments, so it runs over any commutative ring with a unit: the fixtures
check maps on GF(2)[x] and on Q[x] x Q[x] with it, where Theorem 2 fails.

The sampled checks are laws, each written once on one first-failure scan
(``_scan``): additivity over sample pairs and vanishing m-fold nested
defects over (m+1)-multisets; ``genpoly.gp_degree_check`` runs the scan
too.  Multisets suffice: the nested defect at Z = (x, y1..ym) is symmetric
in all m+1 arguments for any map on a commutative ring, additive or not
(unrolled, it is the sum over nonempty S of Z of
(-1)^|Z\\S| * prod(Z\\S) * D(prod S)), and so is D(x+y) - D(x) - D(y).
The witnesses are those of the ordered enumeration: the first failing
ordered tuple in ``product`` order is sorted by position (its sorted
permutation has the same value and comes no later), so it is also the
first failing multiset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from math import prod
from typing import Callable, Iterable, Sequence

from .exactnum import RatFunc, grlex_key, mono_set, zero_index
from .deriv import DiffOp, NotInO0Error, leibniz_sum

# Anything that maps field elements to field elements: a DiffOp (a
# Derivation is one) or a plain python callable.
PointMap = Callable[[RatFunc], RatFunc]


@dataclass(frozen=True)
class MapTable:
    """Finite partial map on the field: pairs (element, value)."""

    entries: tuple[tuple[RatFunc, RatFunc], ...]
    k: int

    def __post_init__(self):
        seen = set()
        for x, y in self.entries:
            if x.k != self.k or y.k != self.k:
                raise ValueError("table entry over wrong variable count")
            if x in seen:
                raise ValueError(f"duplicate table element {x}")
            seen.add(x)

    @classmethod
    def from_pairs(cls, pairs, k: int) -> "MapTable":
        return cls(tuple((x, y) for x, y in pairs), k)

    @classmethod
    def tabulate(cls, D: PointMap, elements: Sequence[RatFunc], k: int) -> "MapTable":
        return cls(tuple((x, D(x)) for x in elements), k)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a sampled check; `witness` names the violating data and
    `checked` counts the tuples (or increment tuple and point pairs) that
    were evaluated, the failing one included."""

    ok: bool
    reason: str = ""
    witness: tuple | None = None
    value: RatFunc | None = None
    checked: int = 0

    def __bool__(self):
        return self.ok


class _Memo:
    """Memoize a point map, and the inner levels of its black-box nestings,
    on exact arguments (safe: maps are pure).

    ``nest(step, ys, z)`` is the map at z with ``step(level, z, y)`` applied
    once per element y of ys, the last element outermost; ``level`` is the
    nesting one element shorter.  ``defect`` is the defect step.  ``table``
    holds the map's values, keyed on x; ``levels`` holds one table per
    nesting level, keyed on (step, ys) and looked up once per ``nest`` call,
    whose values are keyed on the element w alone, so a level shared by
    many tuples is computed once.  The outermost level is not kept: each
    caller asks for each tuple once.  ys = () is the map itself, and a
    1-fold nesting applies the step to the map directly.
    """

    __slots__ = ("fn", "table", "levels")

    def __init__(self, fn: PointMap):
        self.fn = fn
        self.table: dict = {}
        self.levels: dict = {}

    def __call__(self, x: RatFunc) -> RatFunc:
        got = self.table.get(x)
        if got is None:
            got = self.fn(x)
            self.table[x] = got
        return got

    def nest(self, step: Callable, ys: tuple, z: RatFunc) -> RatFunc:
        if not ys:
            return self(z)
        inner = ys[:-1]
        if not inner:
            return step(self, z, ys[0])
        table = self.levels.setdefault((step, inner), {})

        def level(w: RatFunc) -> RatFunc:
            got = table.get(w)
            if got is None:
                got = table[w] = self.nest(step, inner, w)
            return got

        return step(level, z, ys[-1])


def defect(D: PointMap, x: RatFunc, y: RatFunc) -> RatFunc:
    """B(x, y) = D(xy) - y D(x) - x D(y); also the defect step of
    ``_Memo.nest``, with D the inner level."""
    return D(x * y) - y * D(x) - x * D(y)


def nested_defect(D: PointMap, x: RatFunc, ys: Sequence[RatFunc]) -> RatFunc:
    """Iterated defect (((D_{y1})_{y2})...)_{ym}(x), where
    D_y(x) = D(xy) - y D(x) - x D(y).

    With m = 1 this is defect(D, x, y1), and with m = 0 it is D(x): the
    0-fold nesting is the map itself.  A map of order at most n has every
    n-fold nesting identically zero.

    A ``DiffOp`` E, a ``Derivation`` included, takes the closed Leibniz
    form of the module docstring, sum over |s| < deg E of E~^(s)(x) * prod_i
    d^(b_i) y_i / b_i! plus (-1)^m * c_0 * x * y1 * ... * ym; it is zero
    without arithmetic when m >= deg E and E kills 1.  Any other map is a
    black box, on any commutative ring, and takes ``_Memo.nest`` with
    ``defect`` as the step, through its values at products; pass a
    ``_Memo`` to share levels across calls.
    """
    if isinstance(D, DiffOp):
        value = leibniz_sum(D, x, ys, identity=False)
        c0 = D.terms.get(zero_index(D.k))
        if c0:
            term = c0 * prod(ys, start=x)
            value = value - term if len(ys) % 2 else value + term
        return value
    memo = D if isinstance(D, _Memo) else _Memo(D)
    return memo.nest(defect, tuple(ys), x)


def _scan(cases: Iterable, value: Callable, failed: str, passed: str = "") -> CheckResult:
    """The first case, in order, whose ``value(case)`` is neither None nor
    zero, as a failed result with that case as witness; else a passed one.
    ``checked`` counts the cases evaluated."""
    checked = 0
    for checked, case in enumerate(cases, 1):
        v = value(case)
        if v is not None and not v.is_zero:
            return CheckResult(False, failed, case, v, checked)
    return CheckResult(True, passed, checked=checked)


def _additive_law(f: PointMap, samples: Sequence) -> CheckResult:
    """f(x + y) = f(x) + f(y) on sample pairs; the value f(x + y) - f(x) -
    f(y) is built only for a failing pair."""

    def excess(pair):
        lhs, rhs = f(pair[0] + pair[1]), f(pair[0]) + f(pair[1])
        return None if lhs == rhs else lhs - rhs

    return _scan(combinations_with_replacement(samples, 2), excess, "not additive")


def _defect_law(f: PointMap, m: int, samples: Sequence, passed: str = "") -> CheckResult:
    """Every m-fold nested defect of f vanishes on (m+1)-multisets of samples."""
    cases = combinations_with_replacement(samples, m + 1)
    failed = f"{m}-fold nested defect nonzero"
    return _scan(cases, lambda z: nested_defect(f, z[0], z[1:]), failed, passed)


def order_upper_check(
    D: PointMap, n: int, samples: Sequence[RatFunc]
) -> CheckResult:
    """Consistency of "order of D is at most n" with the given samples.

    Checks additivity on all sample pairs, D(1) = 0, and vanishing of every
    n-fold nested defect built from sample tuples (the 0-fold one is D
    itself), and stops at the first law that fails.  The samples may come
    from any commutative ring with a unit: 1 is ``samples[0] ** 0``.
    Passing is evidence on the given data, not a proof, for black-box
    maps.  A ``DiffOp``, a ``Derivation`` included, is additive
    by construction, so it skips the additivity check and the memo, and
    goes to ``nested_defect`` as itself, so the defects take the closed
    form.

    Both defects are symmetric, so pairs and (n+1)-tuples are multisets of
    sample positions, with the witness of the ordered enumeration (see the
    module docstring).  ``checked`` counts the n-fold defect tuples
    evaluated: C(s + n, n + 1) for s samples when the check passes, and 0
    when an earlier law fails.

    Over Q(t) a pass holds on more than the samples.  The n-fold defect is
    symmetric, and it is additive in each argument once D is additive on
    the Q-span of the products of samples at which it evaluates D.  Given
    that additivity, which this check does not test, vanishing on the
    multisets of the samples makes the defect vanish on all of their Q-span.
    """
    if n < 0:
        raise ValueError("order bound must be nonnegative")
    if not samples:
        raise ValueError("need at least one sample")
    if isinstance(D, DiffOp):
        f = D
    else:
        f = _Memo(D)
        additive = _additive_law(f, samples)
        if not additive:
            return replace(additive, checked=0)
    one = samples[0] ** 0
    at_one = f(one)
    if not at_one.is_zero:
        return CheckResult(False, "does not annihilate 1", (one,), at_one)
    return _defect_law(f, n, samples, f"consistent with order <= {n} on given data")


def order_exact(E: DiffOp) -> int:
    """Exact derivation order of a canonical operator that kills constants.

    Equals the operator degree; the zero operator is the (unique) map of
    order 0.  Raises NotInO0Error when an identity component is present,
    since then E(1) != 0 and E is not a derivation of any order.
    """
    if not E.in_o0:
        raise NotInO0Error("operator has an identity component, E(1) != 0")
    d = E.degree
    return 0 if d < 0 else d


def order_witness(E: DiffOp) -> tuple | None:
    """(x, ys, value) with value = nested_defect(E, x, ys) != 0 and n - 1
    elements in ys, where n = order_exact(E) >= 1: the nonvanishing half of
    "order n".  For the graded-lex-top index alpha of E and the first l with
    alpha_l > 0, x = t_l and ys repeats each t_j (alpha - e_l)_j times; as
    d^b t_j != 0 for b != 0 only at b = e_j, one Leibniz tuple survives and
    value = c_alpha * alpha!.  None for the zero operator; NotInO0Error as
    ``order_exact``."""
    if not order_exact(E):
        return None
    alpha = max(E.terms, key=grlex_key)
    l = next(j for j, e in enumerate(alpha) if e)
    x = RatFunc.variable(E.k, l)
    rest = mono_set(alpha, l, alpha[l] - 1)
    ys = tuple(RatFunc.variable(E.k, j) for j, e in enumerate(rest) for _ in range(e))
    return x, ys, nested_defect(E, x, ys)
