"""Rebuilding operators from their values on the monomial grid, fitting
operators to finite tables, and checking linear recurrences.

Reconstruction: given D(t^i) for all i in {0..n}^k, the ratios
p(i) = D(t^i)/t^i interpolate exactly in the falling-factorial basis via
multivariate Newton forward differences,

    c_j = (delta_1^{j1} ... delta_k^{jk} p)(0) / (j1! ... jk!),

and the candidate operator is E = sum_j c_j * t^j * d^j.  When the grid data
really comes from an operator of degree at most n (and an additive map on
the whole field agrees with the grid), E reproduces it in canonical form.
Coefficients c_j with |j| > n act as a built-in consistency check: the cube
grid determines them, and any nonzero one proves the data is inconsistent
with degree <= n.

Fitting: a degree-bounded operator agreeing with a finite table is a linear
system over the fraction field in the unknown coefficients.  Each row is
scaled to polynomials over Z[t], and Bareiss's fraction-free elimination
(Math. Comp. 22, 1968) solves it, eliminating only the rows that become
pivots; every other row is then proved by substituting the solution, and
the first one that fails is the first inconsistent row.  The elimination
divides exactly and takes no gcd, and only building each unknown as a
fraction takes one.  Free variables are set to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Mapping

from .exactnum import (
    MultiPoly, Monomial, RatFunc, grlex_key, mono_set, poly_gcd, product_sum, zero_index,
)
from .deriv import DiffOp, _materialize_partial
from .leibniz import MapTable


class DegreeOverflowError(ValueError):
    """Grid data inconsistent with the declared degree bound."""

    def __init__(self, offending: list[Monomial]):
        self.offending = offending
        super().__init__(
            "grid data inconsistent with the degree bound; nonzero "
            f"falling-factorial coefficients at {offending}"
        )


class IncompleteGridError(ValueError):
    """The value grid is missing entries."""


def _cube_gaps(values: Mapping, k: int, n: int) -> tuple[list, list]:
    """(missing, unexpected): the first four nodes of the cube {0..n}^k that
    `values` lacks and the first four keys off the cube, both sorted.  Keys
    on the cube are counted, never the cube itself built: it has (n+1)^k
    nodes."""
    nodes = range(n + 1)
    extra = sorted(i for i in values if len(i) != k or not all(e in nodes for e in i))
    if not extra and len(values) == len(nodes) ** k:
        return [], []
    missing = (i for i in product(nodes, repeat=k) if i not in values)
    return list(islice(missing, 4)), extra[:4]


@dataclass(frozen=True)
class GridValues:
    """Operator values D(t^i) on the full cube grid i in {0..n}^k."""

    k: int
    n: int
    values: Mapping[Monomial, RatFunc]

    def __post_init__(self):
        for field, size in (("k", self.k), ("n", self.n)):
            if size < 0:
                raise ValueError(f"grid {field} must be nonnegative, got {size}")
        missing, extra = _cube_gaps(self.values, self.k, self.n)
        if missing or extra:
            raise IncompleteGridError(
                f"grid must cover {{0..{self.n}}}^{self.k}; "
                f"missing {missing}, unexpected {extra}"
            )
        for v in self.values.values():
            if v.k != self.k:
                raise ValueError("grid value over wrong variable count")

    @classmethod
    def tabulate(cls, E: DiffOp, n: int) -> "GridValues":
        """Evaluate an operator on every grid monomial."""
        k = E.k
        vals = {}
        for i in product(range(n + 1), repeat=k):
            mono = RatFunc.from_poly(MultiPoly.monomial(k, i))
            vals[i] = E(mono)
        return cls(k, n, vals)


@dataclass(frozen=True)
class RecurrenceSpec:
    """Constant-coefficient linear recurrence c_N a_m + ... + c_0 a_{m-N} = 0
    to be checked against an explicit sequence prefix."""

    coefficients: tuple
    sequence: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        top = self.coefficients[-1]
        if not top:
            raise ValueError("leading coefficient c_N must be nonzero")
        if len(self.sequence) < len(self.coefficients):
            raise ValueError("sequence shorter than the recurrence window")


@dataclass(frozen=True)
class RecurrenceResult:
    ok: bool
    first_failure: int | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting an operator to a table.

    `operator` is one solution (free variables zeroed) or None when the
    system is inconsistent.  In that case `inconsistent_row` is the lowest
    table index i for which rows 0..i have no common solution: rows 0..i-1
    are consistent, and row i contradicts them.  `solution_dim` is the
    dimension of the solution space (number of free coefficients)."""

    operator: DiffOp | None
    inconsistent_row: int | None = None
    solution_dim: int = 0

    @property
    def ok(self) -> bool:
        return self.operator is not None

    def __bool__(self):
        return self.ok


def newton_coeffs(
    p_values: Mapping[Monomial, RatFunc],
) -> dict[Monomial, RatFunc]:
    """Falling-factorial coefficients of the function tabulated on a cube
    grid {0..n}^k, via forward differences at the origin:

        c_j = (delta_1^{j1} ... delta_k^{jk} p)(0) / j!

    The differences are taken in place, one axis at a time, each level
    stepping down the exponents (descending nodes come before the node
    they subtract).  The expansion sum_j c_j * i^(falling j) re-evaluates
    to p on every grid node (exact interpolation).
    """
    if not p_values:
        raise IncompleteGridError("empty grid")
    some = next(iter(p_values))
    k = len(some)
    n = max(max(idx, default=0) for idx in p_values)
    if any(_cube_gaps(p_values, k, n)):
        raise IncompleteGridError(f"grid must be the full cube {{0..{n}}}^{k}")
    nodes = sorted(p_values)
    diffs = dict(p_values)
    for axis in range(k):
        for level in range(1, n + 1):
            for m in reversed(nodes):
                if m[axis] >= level:
                    diffs[m] = diffs[m] - diffs[mono_set(m, axis, m[axis] - 1)]
    out: dict[Monomial, RatFunc] = {}
    for j in nodes:
        c = diffs[j] * Fraction(1, math.prod(map(math.factorial, j)))
        if not c.is_zero:
            out[j] = c
    return out


def reconstruct_operator(grid: GridValues) -> DiffOp:
    """Operator with the given values on the monomial grid.

    Divides out the monomials, interpolates the exponent function in the
    falling-factorial basis, and reads off E = sum_j c_j t^j d^j.  Raises
    DegreeOverflowError when any coefficient with |j| > n is nonzero, since
    no operator of degree <= n can produce such data.
    """
    k, n = grid.k, grid.n
    p_values = {}
    for i, v in grid.values.items():
        t_pow = MultiPoly.monomial(k, i)
        p_values[i] = v / RatFunc.from_poly(t_pow)
    coeffs = newton_coeffs(p_values)
    overflow = sorted((j for j in coeffs if sum(j) > n), key=grlex_key)
    if overflow:
        raise DegreeOverflowError(overflow)
    op_coeffs = {}
    for j, c in coeffs.items():
        op_coeffs[j] = c * RatFunc.from_poly(MultiPoly.monomial(k, j))
    return DiffOp(k, op_coeffs)


def _clear_denominators(row: list[RatFunc]) -> list[MultiPoly]:
    """The row scaled by the lcm of its (monic) denominators, and then by
    the rational number that makes it a primitive row over Z[t]: every entry
    is a polynomial with integer coefficients, so the elimination does not
    touch a Fraction.  A row of polynomials costs no gcd of polynomials."""
    k = row[0].k
    lcm = MultiPoly.const(k, 1)
    for v in row:
        d = v.den
        if d.is_constant or d.terms == lcm.terms:
            continue
        lcm = d if lcm.is_constant else product_sum(k, ((1, lcm, d.exact_div(poly_gcd(lcm, d))),))
    if lcm.is_constant:
        polys = [v.num for v in row]
    else:
        polys = [product_sum(k, ((1, v.num, lcm.exact_div(v.den)),)) for v in row]
    # pairwise: math.lcm(*genexpr) over the coefficients grew the resident
    # set by about 1.3 MB per 800 fits on CPython 3.11, with no traced growth
    den, content = 1, 0
    for p in polys:
        for c in p.terms.values():
            den = math.lcm(den, c.denominator)
            content = math.gcd(content, c.numerator)
    if content and (den, content) != (1, 1):
        polys = [p.scale(Fraction(den, content)) for p in polys]
    return polys


def _bring_up_to_date(k: int, row: list[MultiPoly], pivots: list, done: int) -> None:
    """Apply Bareiss steps done..len(pivots)-1 (see ``fit_operator``) in
    place to a row that has had the first `done`.  Step 0 divides by the
    empty pivot 1, a row with a zero factor is still scaled by p / p_prev,
    and entries at columns <= the step's column are never read again."""
    prev = pivots[done - 1][1] if done else None
    for s in range(done, len(pivots)):
        c, p, prow = pivots[s]
        f = row[c]
        for j in range(c + 1, len(row)):
            a = product_sum(k, ((1, p, row[j]), (-1, f, prow[j])))
            row[j] = a.exact_div(prev) if s else a
        prev = p


def fit_operator(table: MapTable, n: int, require_o0: bool = True) -> FitResult:
    """Find a degree <= n operator agreeing with the table, or report that
    none exists.

    Unknowns are the coefficients c_a for |a| <= n (the identity index is
    excluded when require_o0 is set); each table pair (x, y) contributes the
    linear equation sum_a c_a d^a(x) = y over the fraction field.  Each row,
    right-hand side included, is scaled by the lcm of its denominators to a
    primitive row over Z[t], and Bareiss's one-step fraction-free
    elimination (Math. Comp. 22, 1968) runs on the rows: with pivot p and
    the previous pivot p_prev, an entry becomes (p * a_ij - a_ic * a_rj) /
    p_prev, an exact division (Sylvester's identity), so no gcd is taken
    while eliminating.

    The elimination is lazy.  A row after s steps depends only on the
    first s pivot rows, so each row keeps its own step count.  The pivot of
    a column is the remaining row of lowest table index with a nonzero
    entry there: the search brings the remaining rows up to date in table
    order and stops at the first one nonzero in the column, so rows after
    it are not touched.  Columns with no pivot are free (their coefficients
    are zero), and their search brings every remaining row up to date.

    Back-substitution stays fraction-free too: with det the last pivot,
    N_c = (det * rhs_r - sum_c2 a_r,c2 * N_c2) / a_r,c, and each unknown is
    built once as N_c / det, one canonicalisation (one gcd) per unknown.
    Every row that never became a pivot is then proved by substitution on
    its cleared row, in table order: the residual sum_c a_rc * N_c - det *
    b_r is a nonzero multiple of the row's fully reduced right-hand side
    (each Bareiss multiplier is a pivot), so the first nonzero residual
    names the same `inconsistent_row` as eliminating every row would.
    Each entry, numerator N_c and residual is one ``product_sum``.
    """
    if n < 0:
        raise ValueError("degree bound must be nonnegative")
    k = table.k
    indices = [
        alpha
        for alpha in product(range(n + 1), repeat=k)
        if sum(alpha) <= n and not (require_o0 and sum(alpha) == 0)
    ]
    indices.sort(key=grlex_key)
    ncols = len(indices)
    # each row is [d^a(x) for a in indices] + [y] scaled to Z[t], in table order
    rows: list[list[MultiPoly]] = []
    for x, y in table:
        # evaluate all d^a(x) in one shared derivative chain
        cache = {zero_index(k): x}
        row = [_materialize_partial(cache, alpha) for alpha in indices]
        row.append(y)
        rows.append(_clear_denominators(row))
    # working copies and their Bareiss step counts; remaining in table order
    work = [list(row) for row in rows]
    steps = [0] * len(rows)
    remaining = list(range(len(rows)))
    pivots: list[tuple[int, MultiPoly, list[MultiPoly]]] = []  # (col, pivot, row)
    for col in range(ncols):
        for r in remaining:
            _bring_up_to_date(k, work[r], pivots, steps[r])
            steps[r] = len(pivots)
            if work[r][col]:
                remaining.remove(r)
                pivots.append((col, work[r][col], work[r]))
                break
    # back-substitute fraction-free, free variables zero
    det = pivots[-1][1] if pivots else MultiPoly.const(k, 1)
    numer: dict[int, MultiPoly] = {}
    for col, p, prow in reversed(pivots):
        known = [(-1, prow[c2], n2) for c2, n2 in numer.items()]
        numer[col] = product_sum(k, [(1, det, prow[ncols]), *known]).exact_div(p)
    # prove every surplus row by substitution
    for r in remaining:
        row = rows[r]
        terms = [(1, row[c], v) for c, v in numer.items()]
        if product_sum(k, [*terms, (-1, det, row[ncols])]):
            return FitResult(None, inconsistent_row=r)
    op = DiffOp(k, {indices[c]: RatFunc(v, det) for c, v in numer.items()})
    return FitResult(op, solution_dim=ncols - len(pivots))


def check_recurrence(spec: RecurrenceSpec) -> RecurrenceResult:
    """Verify c_N a_m + c_{N-1} a_{m-1} + ... + c_0 a_{m-N} = 0 for every m
    from N through the end of the sequence; reports the first failing m."""
    cs = spec.coefficients
    seq = spec.sequence
    N = len(cs) - 1
    for m in range(N, len(seq)):
        acc = None
        for j, c in enumerate(cs):
            term = c * seq[m - N + j]
            acc = term if acc is None else acc + term
        if acc:
            return RecurrenceResult(False, first_failure=m)
    return RecurrenceResult(True)
