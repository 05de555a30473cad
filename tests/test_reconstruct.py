"""Grid reconstruction, finite-table fitting, recurrence checking."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from derivcalc.exactnum import RatFunc
from derivcalc.deriv import Derivation, DiffOp
from derivcalc.leibniz import MapTable
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
from derivcalc.sampling import random_diffop, random_multipoly, random_sparse_ratfunc

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
