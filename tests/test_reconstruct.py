"""Grid reconstruction, finite-table fitting, recurrence checking."""

import sys
from fractions import Fraction
from itertools import combinations, product
from math import prod
from random import Random

import pytest

import derivcalc
from derivcalc import exactnum, reconstruct
from derivcalc.exactnum import RatFunc, grlex_key
from derivcalc.deriv import Derivation, DiffOp
from derivcalc.leibniz import MapTable, nested_defect
from derivcalc.reconstruct import (
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
from derivcalc.sampling import (
    random_diffop,
    random_multipoly,
    random_sparse_poly,
    random_sparse_ratfunc,
)

t = RatFunc.variable(1, 0)
one1 = RatFunc.one(1)


def falling(i: int, j: int) -> int:
    """Independent oracle: i(i-1)...(i-j+1) straight from the definition."""
    out = 1
    for m in range(j):
        out *= i - m
    return out


# ---------------------------------------------------------------------------
# newton_coeffs
# ---------------------------------------------------------------------------


def test_newton_square_identity():
    # i^2 = i + i(i-1)
    pv = {(0,): RatFunc.zero(1), (1,): one1, (2,): RatFunc.const(1, 4)}
    assert newton_coeffs(pv) == {(1,): one1, (2,): one1}


def test_newton_constant():
    c = RatFunc.const(1, 7)
    assert newton_coeffs({(0,): c, (1,): c}) == {(0,): c}


def test_newton_bilinear():
    one2 = RatFunc.one(2)
    pv = {
        (0, 0): RatFunc.zero(2),
        (1, 0): RatFunc.zero(2),
        (0, 1): RatFunc.zero(2),
        (1, 1): one2,
    }
    assert newton_coeffs(pv) == {(1, 1): one2}


def test_newton_rejects_incomplete_grid():
    with pytest.raises(IncompleteGridError):
        newton_coeffs({(0,): one1, (2,): one1})
    # the cube {0..9}^9 has 10^9 nodes: keys are counted, the cube never built
    with pytest.raises(IncompleteGridError):
        newton_coeffs({(9,) * 9: RatFunc.one(9)})


def test_newton_interpolation_is_exact():
    rng = Random(83)
    for _ in range(6):
        k = rng.choice((1, 2))
        n = rng.randint(1, 3)
        pv = {
            idx: random_sparse_ratfunc(rng, k)
            for idx in product(range(n + 1), repeat=k)
        }
        coeffs = newton_coeffs(pv)
        for idx in pv:
            total = RatFunc.zero(k)
            for j, c in coeffs.items():
                w = 1
                for i_m, j_m in zip(idx, j):
                    w *= falling(i_m, j_m)
                if w:
                    total = total + c * w
            assert total == pv[idx]


# ---------------------------------------------------------------------------
# reconstruct_operator
# ---------------------------------------------------------------------------


def test_reconstruct_second_derivative_from_three_values():
    grid = GridValues(
        1,
        2,
        {(0,): RatFunc.zero(1), (1,): RatFunc.zero(1), (2,): RatFunc.const(1, 2)},
    )
    assert reconstruct_operator(grid) == DiffOp(1, {(2,): 1})


def test_reconstruct_scaling_operator():
    tD = DiffOp(1, {(1,): t})
    assert reconstruct_operator(GridValues.tabulate(tD, 2)) == tD


def test_reconstruct_zero_grid():
    grid = GridValues(1, 1, {(0,): RatFunc.zero(1), (1,): RatFunc.zero(1)})
    assert reconstruct_operator(grid).is_zero


def test_reconstruct_grid_over_no_variables():
    # {0..n}^0 is the one node (): a constant multiple of the identity
    for n in (0, 2):
        grid = GridValues(0, n, {(): RatFunc.const(0, 3)})
        assert reconstruct_operator(grid) == DiffOp(0, {(): 3})
    assert GridValues.tabulate(DiffOp(0, {(): 3}), 1).values == {(): RatFunc.const(0, 3)}


def test_round_trip_random_operators():
    rng = Random(89)
    for _ in range(20):
        k = rng.choice((1, 2))
        n = rng.randint(0, 3)
        E = random_diffop(rng, k, n, in_o0=rng.random() < 0.5, exact_degree=False)
        assert reconstruct_operator(GridValues.tabulate(E, max(n, 0))) == E


def test_degree_overflow_fires_on_inconsistent_grid():
    # a mixed second-order operator tabulated on the {0,1}^2 grid cannot come
    # from any operator of degree <= 1
    grid = GridValues.tabulate(DiffOp(2, {(1, 1): 1}), 1)
    with pytest.raises(DegreeOverflowError) as err:
        reconstruct_operator(grid)
    assert err.value.offending == [(1, 1)]


def test_no_overflow_on_consistent_larger_grid():
    # the same operator seen on the full degree-2 grid reconstructs cleanly
    E = DiffOp(2, {(1, 1): 1})
    assert reconstruct_operator(GridValues.tabulate(E, 2)) == E


def test_grid_validation():
    with pytest.raises(IncompleteGridError):
        GridValues(1, 1, {(0,): RatFunc.zero(1)})
    with pytest.raises(IncompleteGridError):
        GridValues(
            1, 0, {(0,): RatFunc.zero(1), (3,): RatFunc.zero(1)}
        )
    with pytest.raises(IncompleteGridError, match=r"missing \[\(1,\)\], unexpected \[\(0, 0\), \(5,\)\]"):
        GridValues(1, 1, {(0,): one1, (5,): one1, (0, 0): one1})
    with pytest.raises(IncompleteGridError, match=r"missing \[\(0, 0, 0, 0, 0, 0, 0, 0, 0\), "):
        GridValues(9, 9, {})
    for k, n, field in ((-1, 1, "k"), (1, -1, "n")):
        with pytest.raises(ValueError, match=f"grid {field} must be nonnegative"):
            GridValues(k, n, {})


# ---------------------------------------------------------------------------
# fit_operator
# ---------------------------------------------------------------------------


def test_fit_first_derivative_from_two_points():
    table = MapTable.from_pairs([(t, one1), (t + 1, one1)], 1)
    res = fit_operator(table, 1, require_o0=True)
    assert res.ok
    assert res.operator == Derivation.coordinate(1, 0)
    assert res.solution_dim == 0


def test_fit_infeasible_at_degree_zero():
    res = fit_operator(MapTable.from_pairs([(t, one1)], 1), 0, require_o0=True)
    assert not res.ok
    assert res.inconsistent_row == 0
    assert isinstance(res, FitResult)


def test_fit_scaling_operator_with_free_second_order():
    table = MapTable.from_pairs(
        [(t, t), (t**2, 2 * t**2), (t**3, 3 * t**3)], 1
    )
    res = fit_operator(table, 2, require_o0=True)
    assert res.ok
    assert res.operator == DiffOp(1, {(1,): t})


def test_fit_without_o0_constraint_uses_identity():
    # x -> 3x is matched by 3*identity once the identity column is allowed
    table = MapTable.from_pairs([(t, 3 * t), (t**2 + 1, 3 * (t**2 + 1))], 1)
    res = fit_operator(table, 1, require_o0=False)
    assert res.ok
    assert res.operator(t**5) == 3 * t**5


def test_fit_tabulate_round_trip_zero_residual():
    rng = Random(97)
    for _ in range(6):
        k = rng.choice((1, 2))
        n = rng.randint(1, 2)
        E = random_diffop(rng, k, n, in_o0=True, den_style="one")
        elements = []
        while len(elements) < 4:
            x = random_multipoly(rng, k, max_degree=2, nonzero=True)
            fx = RatFunc.from_poly(x)
            if all(fx != e for e in elements):
                elements.append(fx)
        table = MapTable.tabulate(E, elements, k)
        res = fit_operator(table, n, require_o0=True)
        assert res.ok
        for x, y in table:
            assert res.operator(x) == y


def test_fit_reports_solution_dimension():
    # one equation, two unknowns: a one-dimensional solution space
    table = MapTable.from_pairs([(t, one1)], 1)
    res = fit_operator(table, 2, require_o0=True)
    assert res.ok and res.solution_dim == 1
    assert res.operator(t) == one1


def test_fit_names_the_first_row_that_makes_the_table_inconsistent():
    # one unknown c (n = 1, O0): row 0 says c = 1, row 1 agrees with it and
    # row 2 says c = 2.  Rows 0..1 are consistent and rows 0..2 are not, so
    # the row named is 2, although row 2's entry d(t) = 1 has the fewest terms
    table = MapTable.from_pairs(
        [(t**2 + t, 2 * t + 1), (t**3, 3 * t**2), (t, RatFunc.const(1, 2))], 1
    )
    assert fit_operator(table, 1).inconsistent_row == 2
    # two rows that conflict only with each other: the later one is named
    table = MapTable.from_pairs([(t**2 + t, 2 * t + 1), (t, RatFunc.const(1, 2))], 1)
    assert fit_operator(table, 1).inconsistent_row == 1


def _fit_reference(table: MapTable, n: int, require_o0: bool = True) -> FitResult:
    """The Gauss elimination over Q(t) that fraction-free fitting replaced:
    every entry is a canonical RatFunc, so every step reduces by gcds.  The
    pivot of a column is the remaining row of lowest table index with a
    nonzero entry (the replaced loop took the entry with the fewest terms,
    which names another row on some inconsistent tables); d^a(x) comes from
    applying the operator d^a."""
    k = table.k
    indices = sorted(
        (
            alpha
            for alpha in product(range(n + 1), repeat=k)
            if sum(alpha) <= n and not (require_o0 and sum(alpha) == 0)
        ),
        key=grlex_key,
    )
    ncols = len(indices)
    remaining = [
        ([DiffOp(k, {alpha: 1})(x) for alpha in indices], y, rowidx)
        for rowidx, (x, y) in enumerate(table)
    ]
    pivots = []
    for col in range(ncols):
        pivot = next((r for r in remaining if not r[0][col].is_zero), None)
        if pivot is None:
            continue
        remaining = [r for r in remaining if r is not pivot]
        prow, prhs, _ = pivot
        inv = prow[col].reciprocal()
        prow = [c * inv for c in prow]
        prhs = prhs * inv
        new_remaining = []
        for crow, crhs, cidx in remaining:
            factor = crow[col]
            if not factor.is_zero:
                crow = [a - factor * b for a, b in zip(crow, prow)]
                crhs = crhs - factor * prhs
            new_remaining.append((crow, crhs, cidx))
        remaining = new_remaining
        pivots.append((col, prow, prhs))
    for crow, crhs, cidx in remaining:
        if not crhs.is_zero:
            return FitResult(None, inconsistent_row=cidx)
    solution = [RatFunc.zero(k)] * ncols
    for col, prow, prhs in reversed(pivots):
        val = prhs
        for c2 in range(col + 1, ncols):
            if not prow[c2].is_zero:
                val = val - prow[c2] * solution[c2]
        solution[col] = val
    op = DiffOp(k, dict(zip(indices, solution)))
    return FitResult(op, solution_dim=ncols - len(pivots))


def _table_element(rng: Random, k: int, rational: bool) -> RatFunc:
    """A sparse polynomial, divided by t_j + c when `rational`."""
    num = RatFunc.from_poly(random_sparse_poly(rng, k, max_degree=2))
    if not rational:
        return num
    return num / (RatFunc.variable(k, rng.randrange(k)) + rng.choice((-2, -1, 1, 3)))


_FIT_KINDS = ("consistent", "perturbed", "underdetermined")


def _fit_corpus():
    """Seeded (table, n, require_o0, kind) cases for k = 1..3 and n = 1..3:
    consistent, perturbed and underdetermined tables, with and without the
    identity column.  The elements are polynomials, and also rational where
    k + n <= 4: past that the reference's gcds take seconds per table."""
    rng = Random(1409)
    for k, n, require_o0 in product((1, 2, 3), (1, 2, 3), (True, False)):
        ncols = sum(1 for a in product(range(n + 1), repeat=k) if sum(a) <= n) - require_o0
        for kind, rational in product(_FIT_KINDS, (False, True)):
            if rational and k + n > 4:
                continue
            size = max(1, ncols // 2) if kind == "underdetermined" else min(ncols + 2, 8)
            E = random_diffop(rng, k, n, in_o0=require_o0, den_style="monomial")
            elements = []
            while len(elements) < size:
                x = _table_element(rng, k, rational)
                if x not in elements:
                    elements.append(x)
            pairs = [(x, E(x)) for x in elements]
            if kind == "perturbed":
                i = rng.randrange(size)
                pairs[i] = (pairs[i][0], pairs[i][1] + RatFunc.variable(k, rng.randrange(k)))
            yield MapTable.from_pairs(pairs, k), n, require_o0, kind


def test_fit_agrees_with_the_ratfunc_elimination():
    kinds = {}
    for table, n, require_o0, kind in _fit_corpus():
        got = fit_operator(table, n, require_o0=require_o0)
        assert got == _fit_reference(table, n, require_o0=require_o0), (table, n, require_o0)
        kinds.setdefault(kind, set()).add(got.ok)
    # the corpus reaches both verdicts, and every consistent table fits
    assert kinds == dict(zip(_FIT_KINDS, ({True}, {False, True}, {True})))


def test_fit_inconsistent_row_is_the_shortest_inconsistent_prefix():
    for table, n, require_o0, _ in _fit_corpus():
        i = fit_operator(table, n, require_o0=require_o0).inconsistent_row
        if i is None:
            continue
        prefixes = (MapTable(table.entries[:m], table.k) for m in (i, i + 1))
        before, at = (fit_operator(p, n, require_o0=require_o0) for p in prefixes)
        assert before.ok and at.inconsistent_row == i


def test_fit_takes_one_gcd_per_unknown(monkeypatch):
    """Fraction-free elimination: a table of polynomials costs no gcd until
    each unknown is built as N_c / det, one canonicalisation each."""
    rng = Random(2027)
    E = random_diffop(rng, 2, 2, in_o0=True, exact_degree=True, den_style="one")
    elements = []
    while len(elements) < 10:
        x = RatFunc.from_poly(random_multipoly(rng, 2, max_degree=3, nonzero=True))
        if x not in elements:
            elements.append(x)
    table = MapTable.tabulate(E, elements, 2)
    assert all(x.den == 1 and y.den == 1 for x, y in table)
    calls = []
    original = exactnum.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    for module in vars(derivcalc).values():
        if getattr(module, "poly_gcd", None) is original:
            monkeypatch.setattr(module, "poly_gcd", counted)
    res = fit_operator(table, 2, require_o0=True)
    assert res.operator == E
    # det is not constant here, so building the unknowns does take gcds
    ncols = 5
    assert 0 < len(calls) <= ncols


def test_fit_makes_no_polynomial_product_outside_the_kernel(monkeypatch):
    """Scaling the rows, every Bareiss entry and every back-substitution
    numerator are ``product_sum`` calls: on a degree-fit table (k = 2, n = 2,
    monomial denominators) ``MultiPoly *`` is never called."""
    rng = Random(1729)
    E = random_diffop(rng, 2, 2, in_o0=True, exact_degree=True, den_style="monomial")
    elements = []
    while len(elements) < 10:
        x = RatFunc.from_poly(random_multipoly(rng, 2, max_degree=2, nonzero=True))
        if not x.num.is_monomial and x not in elements:
            elements.append(x)
    table = MapTable.tabulate(E, elements, 2)
    assert any(not y.den.is_constant for _, y in table)
    calls = []
    for dunder in ("__mul__", "__rmul__"):
        original = getattr(exactnum.MultiPoly, dunder)

        def counted(self, other, original=original):
            calls.append((self, other))
            return original(self, other)

        monkeypatch.setattr(exactnum.MultiPoly, dunder, counted)
    assert fit_operator(table, 2, require_o0=True).operator == E
    assert calls == []


_SURPLUS_KINDS = ("sum-row", "perturbed-early", "perturbed-late", "free")


def _surplus_corpus():
    """Seeded (table, n, require_o0, kind, perturbed) cases with 2-3 times as
    many rows as unknowns, so most rows are surplus: a consistent table whose
    row 2 is the element x0 + x1 (a row dependent on two earlier ones, so no
    pivot, which the pivot search scans past); a perturbed row before the
    last pivot, and one among the surplus rows after it; and tables with free
    columns (k = 1 elements of degree < n, k = 2 elements in t1 only)."""
    rng = Random(1931)
    for k, n, require_o0 in product((1, 2), (1, 2, 3), (True, False)):
        if k + n > 4:
            continue
        ncols = sum(1 for a in product(range(n + 1), repeat=k) if sum(a) <= n) - require_o0
        for kind in _SURPLUS_KINDS:
            if kind == "free" and k == n == 1:
                continue
            size = max(rng.choice((2, 3)) * ncols, 4)
            E = random_diffop(rng, k, n, in_o0=require_o0, den_style="monomial")
            elements = []
            while len(elements) < size:
                if kind == "free":
                    terms = {(e,) + (0,) * (k - 1): rng.choice((-3, -2, -1, 1, 2, 3)) for e in
                             rng.sample(range(n if k == 1 else n + 2), 2)}
                    x = RatFunc.from_poly(exactnum.MultiPoly(k, terms))
                elif kind == "sum-row" and len(elements) == 2:
                    x = elements[0] + elements[1]
                    if not x or x in elements:
                        elements.pop()  # draw another x1
                        continue
                else:
                    x = RatFunc.from_poly(random_multipoly(rng, k, max_degree=n, nonzero=True))
                    if k + n <= 3 and rng.random() < 0.5:
                        x = x / (RatFunc.variable(k, rng.randrange(k)) + rng.choice((-1, 2)))
                if x and x not in elements:
                    elements.append(x)
            pairs = [(x, E(x)) for x in elements]
            i = None
            if kind == "perturbed-early" and ncols > 1:
                i = rng.randrange(ncols - 1)
            elif kind.startswith("perturbed"):
                i = rng.randrange(ncols + 1, size)
            if i is not None:
                pairs[i] = (pairs[i][0], pairs[i][1] + RatFunc.variable(k, rng.randrange(k)))
            yield MapTable.from_pairs(pairs, k), n, require_o0, kind, i


def test_fit_with_many_surplus_rows_agrees_with_the_ratfunc_elimination():
    verdicts = {}
    for table, n, require_o0, kind, i in _surplus_corpus():
        got = fit_operator(table, n, require_o0=require_o0)
        assert got == _fit_reference(table, n, require_o0=require_o0), (table, n, require_o0)
        verdicts.setdefault(kind, set()).add(got.ok)
        if kind == "perturbed-late":
            # every row before the perturbed one comes from the operator
            assert got.inconsistent_row == i, (table, n, require_o0)
        if kind == "free":
            assert got.solution_dim > 0, (table, n, require_o0)
    assert verdicts == dict(zip(_SURPLUS_KINDS, ({True}, {False}, {False}, {True})))


def test_fit_eliminates_only_the_pivot_rows(monkeypatch):
    """A degree-fit-shaped table (k = 2, n = 2, O0: 5 unknowns) of 10
    polynomial rows whose first 5 are independent.  Row r = 1..4 becomes the
    pivot of column r after r Bareiss steps, of 5, 4, 3 and 2 entries in
    turn, and rows 5..9 are only proved by substitution: 40 elimination
    products (eliminating every row takes 115) and 20 exact divisions by
    the previous pivot (against 70), then 5 for back-substitution.  Any
    step on a later row would add at least 5 products."""
    rng = Random(2029)
    E = random_diffop(rng, 2, 2, in_o0=True, exact_degree=True, den_style="one")
    elements = []
    while len(elements) < 10:
        x = RatFunc.from_poly(random_multipoly(rng, 2, max_degree=3, nonzero=True))
        if x not in elements:
            elements.append(x)
    table = MapTable.tabulate(E, elements, 2)
    assert all(x.den == 1 and y.den == 1 for x, y in table)
    assert fit_operator(MapTable(table.entries[:5], 2), 2).solution_dim == 0
    calls = []
    kernel, divide = reconstruct.product_sum, exactnum.MultiPoly.exact_div

    def counted_kernel(k, items):
        calls.append(("product_sum", sys._getframe(1).f_code.co_name))
        return kernel(k, items)

    def counted_divide(self, other):
        frame = sys._getframe(1)
        if frame.f_globals["__name__"] == reconstruct.__name__:
            calls.append(("exact_div", frame.f_code.co_name))
        return divide(self, other)

    monkeypatch.setattr(reconstruct, "product_sum", counted_kernel)
    monkeypatch.setattr(exactnum.MultiPoly, "exact_div", counted_divide)
    res = fit_operator(table, 2, require_o0=True)
    assert res.operator == E and res.solution_dim == 0
    assert calls.count(("product_sum", "_bring_up_to_date")) == 5 + 9 + 12 + 14
    assert calls.count(("exact_div", "_bring_up_to_date")) == 20
    assert calls.count(("exact_div", "_solve")) == 5
    # 5 back-substitution numerators and one residual per surplus row
    assert calls.count(("product_sum", "_solve")) == 5 + 5


def test_clearing_denominators_divides_by_no_constant(monkeypatch):
    """A degree-fit-shaped table (k = 2, n = 2, an operator with monomial
    denominators, 10 non-monomial polynomial elements): each row's entries
    are polynomials but its value is not, so the row is scaled by a
    non-constant lcm, the value's denominator.  An entry with the constant
    denominator 1 is scaled by the lcm itself, and the value, whose
    denominator is the lcm, keeps its numerator: the scaling makes no exact
    division at all."""
    rng = Random(1729)
    E = random_diffop(rng, 2, 2, in_o0=True, exact_degree=True, den_style="monomial")
    elements = []
    while len(elements) < 10:
        p = random_multipoly(rng, 2, max_degree=2, nonzero=True)
        x = RatFunc.from_poly(p)
        if not p.is_monomial and x not in elements:
            elements.append(x)
    table = MapTable.tabulate(E, elements, 2)
    assert any(y.den != 1 for _, y in table)
    divisors = []
    divide = exactnum.MultiPoly.exact_div

    def counted_divide(self, other):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<listcomp>":  # a frame of its own before Python 3.12
            frame = frame.f_back
        if frame.f_code.co_name == "_clear_denominators":
            divisors.append(other)
        return divide(self, other)

    monkeypatch.setattr(exactnum.MultiPoly, "exact_div", counted_divide)
    res = fit_operator(table, 2, require_o0=True)
    assert res.operator == E
    assert divisors == []


def _solve_at(rows, ncols, point):
    """``_solve`` over k = 0 on the cleared rows evaluated at an integer point."""
    at = [[exactnum.MultiPoly.const(0, e(point)) for e in row] for row in rows]
    return reconstruct._solve(0, at, ncols)


def test_point_solve_keeps_the_pivot_columns_and_the_solution():
    """Evaluation at a point is a ring homomorphism Z[t] -> Z, so a minor
    nonzero at the point is nonzero over Z[t]: the point rank never exceeds
    the Z[t] rank.  At two seeded points every table of both corpora keeps
    its pivot columns, every entry stays an int, and where the table is
    consistent and det(pt) != 0 the point solution is N_c(pt) / det(pt)."""
    rng = Random(2311)
    points = [[rng.randint(2, 200) for _ in range(3)] for _ in range(2)]
    corpus = [case[:3] for case in _fit_corpus()] + [case[:3] for case in _surplus_corpus()]
    compared = 0
    for table, n, require_o0 in corpus:
        indices, rows = reconstruct._fit_rows(table, n, require_o0)
        numer, det, bad = reconstruct._solve(table.k, rows, len(indices))
        for point in points:
            point = point[: table.k]
            pt_numer, pt_det, pt_bad = _solve_at(rows, len(indices), point)
            assert len(pt_numer) <= len(numer)
            assert pt_numer.keys() == numer.keys(), (table, n, require_o0, point)
            assert all(
                type(c) is int for v in (*pt_numer.values(), pt_det) for c in v.terms.values()
            )
            if bad is None and det(point):
                compared += 1
                assert pt_bad is None
                for c, v in numer.items():
                    got = pt_numer[c].constant_value() / pt_det.constant_value()
                    assert got == v(point) / det(point), (table, n, require_o0, point)
    assert compared > len(corpus)


def test_point_rank_below_the_generic_rank_certifies_nothing():
    """An unlucky point: k = 1, n = 1 with the identity column, the table of
    d on t and t^2.  The rows [t, 1 | 1] and [t^2, 2t | 2t] have the minor
    t^2, which vanishes at t = 0, so the point rank is 1 against 2 over Z[t]:
    only a full point rank proves anything."""
    table = MapTable.tabulate(Derivation.coordinate(1, 0), [t, t**2], 1)
    indices, rows = reconstruct._fit_rows(table, 1, require_o0=False)
    numer, _, bad = reconstruct._solve(1, rows, len(indices))
    pt_numer, _, pt_bad = _solve_at(rows, len(indices), [0])
    assert bad is None and pt_bad is None
    assert len(numer) == 2 and list(pt_numer) == [1]


def test_fit_over_no_variables_is_a_linear_solve_over_q():
    """Over k = 0 the only index is the identity: {2: 6, 5: 15} fits the
    operator 3, {2: 6, 5: 14} fails at row 1, and with the identity column
    left out every nonzero table fails at row 0."""
    def table(*pairs):
        return MapTable.from_pairs([(RatFunc.const(0, x), RatFunc.const(0, y)) for x, y in pairs], 0)

    fits, conflicts = table((2, 6), (5, 15)), table((2, 6), (5, 14))
    res = fit_operator(fits, 1, require_o0=False)
    assert str(res.operator) == "(3)" and res.solution_dim == 0
    assert fit_operator(conflicts, 1, require_o0=False).inconsistent_row == 1
    for tab in (fits, conflicts):
        assert fit_operator(tab, 1).inconsistent_row == 0


def _subset_products(zs):
    """S(Z): the products of the nonempty subsets of zs, each value once."""
    out = []
    for size in range(1, len(zs) + 1):
        for subset in combinations(zs, size):
            p = prod(subset[1:], start=subset[0])
            if p not in out:
                out.append(p)
    return out


def test_theorem1_a_fit_on_the_subset_products_kills_the_nested_defect():
    """The n-fold nested defect at Z = (x, y1..yn) reads its map only on
    S(Z).  So when an O0 operator of degree <= n fits D on S(Z), the defect
    equals that operator's, which is zero: ``fit_operator`` passing implies
    ``nested_defect`` vanishing, for operators and black boxes alike."""
    rng = Random(1747)
    verdicts = {}
    for k, n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        for _ in range(3):
            # a constant in Z would make every defect of an O0 operator vanish
            zs = []
            while len(zs) <= n:
                z = random_sparse_poly(rng, k, max_degree=2)
                if not z.is_constant:
                    zs.append(RatFunc.from_poly(z))
            S = _subset_products(zs)
            E = random_diffop(rng, k, n, in_o0=True, den_style="monomial")
            c = RatFunc.const(k, rng.choice((-2, 1, 3)))
            maps = {
                "degree n": E,
                "degree n+1": random_diffop(rng, k, n + 1, in_o0=True, den_style="monomial"),
                "identity part": E + DiffOp(k, {(0,) * k: c}),
                # not additive, and equal to E on S(Z) only
                "black box on S(Z)": lambda z, E=E, S=S: E(z) if z in S else z * z,
                "black box z^2": lambda z: z * z,
            }
            for kind, D in maps.items():
                fit = fit_operator(MapTable.tabulate(D, S, k), n, require_o0=True)
                defect = nested_defect(D, zs[0], zs[1:])
                assert not fit.ok or defect.is_zero, (kind, k, n, zs)
                verdicts.setdefault(kind, set()).add(fit.ok)
    # operators of degree n and the black box equal to one on S(Z) always fit
    assert verdicts["degree n"] == verdicts["black box on S(Z)"] == {True}
    assert set.union(*verdicts.values()) == {False, True}


# ---------------------------------------------------------------------------
# check_recurrence
# ---------------------------------------------------------------------------


def frac_seq(*vals):
    return tuple(Fraction(v) for v in vals)


def test_fibonacci_recurrence():
    spec = RecurrenceSpec(frac_seq(-1, -1, 1), frac_seq(1, 1, 2, 3, 5, 8))
    assert check_recurrence(spec).ok


def test_geometric_recurrence_over_field():
    spec = RecurrenceSpec((-t, one1), tuple(t**n for n in range(6)))
    assert check_recurrence(spec).ok


def test_perturbed_sequence_fails_at_right_index():
    spec = RecurrenceSpec(frac_seq(-1, -1, 1), frac_seq(1, 1, 2, 3, 6))
    res = check_recurrence(spec)
    assert not res.ok
    assert res.first_failure == 4


def test_recurrence_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec(frac_seq(1, 0), frac_seq(1, 1, 1))
    with pytest.raises(ValueError):
        RecurrenceSpec(frac_seq(-1, 1), frac_seq(1,))
