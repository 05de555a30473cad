"""Multiplicative differences, exponent polynomials, degree calculus."""

import math
from fractions import Fraction
from itertools import product
from math import prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import derivcalc
from derivcalc import exactnum, genpoly
from derivcalc.exactnum import MultiPoly, RatFunc, add_terms
from derivcalc.deriv import Derivation, DiffOp, OpWord, compose, normalize
from derivcalc.genpoly import (
    ExpPoly,
    degree_bump,
    delta,
    exponent_polynomial,
    expoly_degree,
    gp_degree_check,
    over_identity,
    stirling_row,
)
from derivcalc.sampling import (
    random_derivation,
    random_diffop,
    random_ratfunc,
    random_sparse_ratfunc,
)

t = RatFunc.variable(1, 0)


def t_inverse_power(m):
    return RatFunc(MultiPoly.const(1, 1), MultiPoly.monomial(1, (m,)))


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def test_delta_of_derivative_ratio_is_log_derivative():
    # for f = d/j the difference along g is g'/g, independent of the point
    f = over_identity(Derivation.coordinate(1, 0))
    g = t**2 + 1
    for x in (t, t + 1, t**3):
        assert delta(g, f, x) == g.partial(0) / g


def test_delta_of_constant_map():
    f = lambda x: RatFunc.const(1, 5)
    assert delta(t + 1, f, t).is_zero


def test_delta_of_identity():
    j = lambda x: x
    g = t**2 + 1
    assert delta(g, j, t) == (g - 1) * t


def test_delta_rejects_zero_arguments():
    f = lambda x: x
    with pytest.raises(ValueError):
        delta(RatFunc.zero(1), f, t)
    with pytest.raises(ValueError):
        delta(t, f, RatFunc.zero(1))


def test_differences_commute():
    rng = Random(61)
    E = random_diffop(rng, 2, 2, in_o0=True, den_style="monomial")
    f = over_identity(E)
    g1 = random_sparse_ratfunc(rng, 2)
    g2 = random_sparse_ratfunc(rng, 2)
    for _ in range(3):
        x = random_sparse_ratfunc(rng, 2)
        lhs = delta(g1, lambda z: delta(g2, f, z), x)
        rhs = delta(g2, lambda z: delta(g1, f, z), x)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# gp_degree_check
# ---------------------------------------------------------------------------


def test_degree_check_passes_for_first_order():
    f = over_identity(Derivation.coordinate(1, 0))
    res = gp_degree_check(f, 1, [t + 1, t**2], [t, t + 2])
    assert res.ok


def test_degree_check_refutes_level_zero():
    f = over_identity(Derivation.coordinate(1, 0))
    res = gp_degree_check(f, 0, [t + 1], [t])
    assert not res.ok
    assert res.value == 1 / (t + 1)
    assert res.checked == 1


def test_identity_map_defeats_any_level():
    j = lambda x: x
    res = gp_degree_check(j, 5, [t], [RatFunc.one(1)])
    assert not res.ok
    poly_t = MultiPoly.variable(1, 0)
    assert res.value == RatFunc.from_poly((poly_t - 1) ** 6)


@pytest.mark.parametrize("k, n", [(k, n) for k in (1, 2, 3) for n in range(5)])
def test_degree_check_closed_form_matches_recursion(k, n):
    # a lambda is a black box, so it takes the memoized recursion: the
    # reference for the closed Leibniz form that over_identity(E) takes.  E
    # comes without and with an identity part, as in test_leibniz.py.
    rng = Random(950 + 10 * k + n)
    E0 = random_diffop(rng, k, n, in_o0=True, fill=0.3)
    c0 = random_ratfunc(rng, k, max_degree=1, den_style="poly") + 1
    failures = 0
    for E in (E0, E0 + DiffOp.identity(k, c0)):
        g1, g2, x = (random_sparse_ratfunc(rng, k, max_degree=2) for _ in range(3))
        incs = [g1, g2 / (RatFunc.variable(k, 0) + 2)]  # a non-monomial denominator
        for level in range(-1, n + 1):  # level + 1 = m runs from 0 to n + 1
            fast = gp_degree_check(over_identity(E), level, incs, [x])
            assert fast == gp_degree_check(lambda z: E(z) / z, level, incs, [x])
            failures += not fast.ok
            if level >= E.degree:
                assert fast.ok
    assert failures


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_passing_degree_check_counts_tuple_point_pairs(n):
    # C(s + n, n + 1) increment multisets over s increment positions (one
    # repeats), each at every point, on both routes
    rng = Random(80 + n)
    E = random_diffop(rng, 1, n, in_o0=False) if n >= 0 else DiffOp.zero(1)
    incs, points = [t + 1, t**2, t + 1], [t, t + 2]
    for f in (over_identity(E), lambda z: E(z) / z):
        res = gp_degree_check(f, n, incs, points)
        assert res.ok and res.checked == math.comb(len(incs) + n, n + 1) * len(points)


def test_degree_check_rejects_bad_bounds_and_data():
    # a black box, and operators whose degree (-1 and 0) n = 0 reaches
    zero = RatFunc.zero(1)
    for f in (lambda x: x, over_identity(DiffOp.zero(1)), over_identity(DiffOp.identity(1, 2))):
        for n, increments, points, message in (
            (-2, [t], [t], "degree bound must be at least -1"),
            (0, [], [t], "need at least one increment"),
            (0, [t], [], "need at least one point"),
            (0, [t, zero], [t], "increments must be nonzero"),
            (0, [t], [t, zero], "points must be nonzero"),
        ):
            with pytest.raises(ValueError, match=message):
                gp_degree_check(f, n, increments, points)
    # data over another variable count is refused as the scan refuses it
    s = RatFunc.variable(2, 0)
    for f in (over_identity(DiffOp.zero(1)), over_identity(Derivation.coordinate(1, 0))):
        for increments, points in (([t], [s]), ([s], [t]), ([t, s], [t])):
            with pytest.raises(exactnum.DimensionMismatchError):
                gp_degree_check(f, 1, increments, points)


def test_degree_check_at_or_above_the_operator_degree_builds_no_case(monkeypatch):
    # n + 1 > deg E differences are zero with no tuple to sum: the passed
    # result comes with the closed-form count and no leibniz_sum call,
    # equal to what the black-box recursion finds
    rng = Random(83)
    cases = []
    for k in (1, 2):
        for d in (0, 1, 2):
            E = random_diffop(rng, k, d, in_o0=bool(d), exact_degree=True, den_style="monomial")
            incs = [random_sparse_ratfunc(rng, k, max_degree=2) for _ in range(3)]
            points = [random_sparse_ratfunc(rng, k, max_degree=2) for _ in range(2)]
            for n in (d, d + 1):
                cases.append((E, n, incs, points, gp_degree_check(lambda z, E=E: E(z) / z, n, incs, points)))
    cases.append((DiffOp.zero(1), -1, [], [t, t + 1], gp_degree_check(lambda z: z - z, -1, [], [t, t + 1])))
    calls = []
    closed = genpoly.leibniz_sum
    monkeypatch.setattr(genpoly, "leibniz_sum", lambda *args, **kw: calls.append(args) or closed(*args, **kw))
    for E, n, incs, points, want in cases:
        got = gp_degree_check(over_identity(E), n, incs, points)
        multisets = math.comb(len(incs) + n, n + 1) if n >= 0 else 1
        assert got == want and got.ok and got.checked == multisets * len(points), (E, n)
    assert calls == []
    # below the degree the scan runs
    E = cases[-2][0]
    gp_degree_check(over_identity(E), E.degree - 1, cases[-2][2], cases[-2][3])
    assert calls


def test_degree_check_level_minus_one_is_zero_test():
    zero_map = lambda x: RatFunc.zero(1)
    assert gp_degree_check(zero_map, -1, [], [t]).ok
    assert not gp_degree_check(lambda x: x, -1, [], [t]).ok


# ---------------------------------------------------------------------------
# exponent polynomials
# ---------------------------------------------------------------------------


def test_exponent_polynomial_of_second_derivative():
    p = exponent_polynomial(DiffOp(1, {(2,): 1}))
    ti2 = t_inverse_power(2)
    assert p == ExpPoly(1, {(2,): ti2, (1,): -ti2})
    # spot-check values: p(i) = i(i-1)/t^2
    assert p([3]) == 6 * ti2
    assert p([0]).is_zero and p([1]).is_zero


def test_exponent_polynomial_of_scaling_operator():
    p = exponent_polynomial(DiffOp(1, {(1,): t}))
    assert p == ExpPoly(1, {(1,): RatFunc.one(1)})


def test_exponent_polynomial_of_identity_multiple():
    c = RatFunc.from_poly(MultiPoly.variable(1, 0) + 1)
    assert exponent_polynomial(DiffOp.identity(1, c)) == ExpPoly.const(1, c)


def test_expoly_degree_examples():
    E = Derivation.coordinate(1, 0) + DiffOp(1, {(2,): t})
    p = exponent_polynomial(E)
    assert p == ExpPoly(1, {(2,): t_inverse_power(1)})
    assert expoly_degree(p) == 2
    assert expoly_degree(ExpPoly.zero(1)) == -1


def test_expoly_degree_two_variable_example():
    # d1 o (t1 d1 + d2) has p(i, j) = i^2/t1 + i*j/(t1*t2)
    t1 = RatFunc.variable(2, 0)
    d1 = Derivation.coordinate(2, 0)
    mixed = Derivation([t1, RatFunc.one(2)])
    E = normalize(OpWord.composition([d1, mixed]))
    p = exponent_polynomial(E)
    inv_t1 = RatFunc(MultiPoly.const(2, 1), MultiPoly.monomial(2, (1, 0)))
    inv_t1t2 = RatFunc(MultiPoly.const(2, 1), MultiPoly.monomial(2, (1, 1)))
    assert p == ExpPoly(2, {(2, 0): inv_t1, (1, 1): inv_t1t2})
    assert expoly_degree(p) == 2


def test_exponent_polynomial_matches_monomial_action():
    rng = Random(67)
    for _ in range(8):
        k = rng.choice((1, 2))
        E = random_diffop(rng, k, rng.randint(0, 3), in_o0=False)
        p = exponent_polynomial(E)
        # values on {0..deg E}^k fix a polynomial of total degree <= deg E
        for exps in product(range(max(E.degree, 0) + 1), repeat=k):
            mono = RatFunc.from_poly(MultiPoly.monomial(k, exps))
            assert E(mono) == p(exps) * mono
        assert expoly_degree(p) == E.degree


def test_composition_splits_into_image_and_product_terms():
    # for D = d1 o E the exponent polynomial decomposes as the d1-image of
    # E's exponent polynomial plus its product with the additive part of d1
    rng = Random(71)
    for _ in range(5):
        k = 2
        d1 = random_derivation(rng, k, max_degree=1)
        E = random_diffop(rng, k, rng.randint(1, 2), in_o0=True, den_style="one")
        D = compose(d1, E)
        p = exponent_polynomial(E)
        image_term = ExpPoly(k, {beta: d1(c) for beta, c in p.sorted_terms()})
        linear = ExpPoly.linear(
            [d1.images[j] / RatFunc.variable(k, j) for j in range(k)]
        )
        assert exponent_polynomial(D) == image_term + p * linear


def _falling_factorial_coeffs(m: int) -> list[Fraction]:
    """Coefficients of x(x-1)...(x-m+1) in the monomial basis, low to high."""
    coeffs = [Fraction(1)]
    for j in range(m):
        # multiply by (x - j)
        shifted = [Fraction(0)] + coeffs
        coeffs = [s - j * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
    return coeffs


def _expoly_reference(E: DiffOp) -> ExpPoly:
    """The per-term expansion: one RatFunc product per (operator term,
    Stirling pick), summed with RatFunc additions.

    Each canonical term c_a d^a contributes c_a * t^(-a) times the tensor
    product of the coefficient lists of the falling factorials i_j^(falling
    a_j), which is their product in the monomial basis.
    """
    k = E.k
    out: dict = {}
    for alpha, c in E.terms.items():
        coef = c / MultiPoly.monomial(k, alpha)
        factors = [
            [(e, s) for e, s in enumerate(_falling_factorial_coeffs(m)) if s]
            for m in alpha
        ]
        add_terms(
            out,
            (
                (tuple(e for e, _ in picks), coef * prod(s for _, s in picks))
                for picks in product(*factors)
            ),
        )
    return ExpPoly(k, out)


def _expoly_corpus():
    rng = Random(1515)
    for k in (1, 2, 3):
        for degree in range(5):
            for den_style in ("one", "monomial", "poly", "mixed"):
                for in_o0 in (True, False):
                    yield random_diffop(rng, k, degree, in_o0=in_o0, den_style=den_style)
    yield DiffOp.zero(2)
    yield DiffOp(1, {(40,): 1})


def test_exponent_polynomial_agrees_with_the_per_term_expansion():
    for E in _expoly_corpus():
        p, ref = exponent_polynomial(E), _expoly_reference(E)
        assert p == ref and str(p) == str(ref), E


def test_stirling_rows():
    assert stirling_row(0) == (1,)
    assert stirling_row(4) == (0, -6, 11, -6, 1)
    for m in range(12):
        row = stirling_row(m)
        assert all(type(s) is int for s in row)
        assert sum(map(abs, row)) == math.factorial(m)
        assert row == tuple(_falling_factorial_coeffs(m))


def test_exponent_polynomial_takes_one_gcd_per_coefficient(monkeypatch):
    """Polynomial coefficients share the denominator 1, so each exponent
    monomial is one group: one canonical form over t^A, no RatFunc
    product and no RatFunc sum."""
    rng = Random(1516)
    E = normalize(OpWord.composition([random_derivation(rng, 2) for _ in range(4)]))
    assert E.degree == 4 and all(c.den == 1 for c in E.terms.values())
    calls = {"gcd": 0, "mul": 0, "add": 0}
    original = exactnum.poly_gcd

    def counted(a, b):
        calls["gcd"] += 1
        return original(a, b)

    for module in vars(derivcalc).values():
        if getattr(module, "poly_gcd", None) is original:
            monkeypatch.setattr(module, "poly_gcd", counted)
    for name, op in (("mul", RatFunc.__mul__), ("add", RatFunc.__add__)):

        def tallied(self, other, op=op, name=name):
            calls[name] += 1
            return op(self, other)

        for dunder in (f"__{name}__", f"__r{name}__"):
            monkeypatch.setattr(RatFunc, dunder, tallied)
    p = exponent_polynomial(E)
    assert expoly_degree(p) == 4
    assert calls == {"gcd": len(p.terms), "mul": 0, "add": 0}


# ---------------------------------------------------------------------------
# degree bump
# ---------------------------------------------------------------------------


def test_degree_bump_examples():
    one = RatFunc.one(1)
    assert degree_bump(ExpPoly(1, {(1,): one}), [one]) == 2
    assert degree_bump(ExpPoly.const(1, one), [one]) == 1
    p = exponent_polynomial(DiffOp(1, {(2,): 1}))  # i(i-1)/t^2
    assert degree_bump(p, [1 / t]) == 3


def test_degree_bump_rejects_zero_additive_map():
    with pytest.raises(ValueError):
        degree_bump(ExpPoly.const(1, RatFunc.one(1)), [RatFunc.zero(1)])


def test_degree_bump_is_plus_one_on_random_data():
    rng = Random(73)
    for _ in range(20):
        k = rng.choice((1, 2))
        E = random_diffop(rng, k, rng.randint(0, 2), in_o0=False)
        p = exponent_polynomial(E)
        if p.is_zero:
            continue
        a = [random_sparse_ratfunc(rng, k) for _ in range(k)]
        assert degree_bump(p, a) == expoly_degree(p) + 1


# ---------------------------------------------------------------------------
# Shared term-map core
# ---------------------------------------------------------------------------

K = 2
indices = st.tuples(st.integers(0, 2), st.integers(0, 2))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys = st.dictionaries(indices, rationals, max_size=3).map(lambda d: MultiPoly(K, d))
# denominators t^m + 1 are never zero and often not constant
coeffs = st.tuples(polys, indices).map(
    lambda p: RatFunc(p[0], MultiPoly.monomial(K, p[1]) + 1)
)


@settings(deadline=None, max_examples=40)
@given(
    st.dictionaries(indices, rationals, max_size=4),
    st.dictionaries(indices, coeffs, max_size=3),
)
def test_adding_the_negative_leaves_an_empty_term_map(qmap, fmap):
    for x in (MultiPoly(K, qmap), DiffOp(K, fmap), ExpPoly(K, fmap)):
        assert (x + (-x)).terms == {}
        assert (x - x).is_zero
        # add_terms drops zero sums for Q and for RatFunc coefficients
        negated = ((m, -c) for m, c in x.terms.items())
        assert add_terms(dict(x.terms), negated) == {}


def test_diffop_and_exppoly_never_mix():
    terms = {(1,): t}
    E, p = DiffOp(1, terms), ExpPoly(1, terms)
    assert E.sorted_terms() == p.sorted_terms()
    assert E != p and p != E
    with pytest.raises(TypeError):
        E + p
    with pytest.raises(TypeError):
        p - E
    # operator product is composition, never `*`
    for a, b in ((E, E), (E, p), (p, E)):
        with pytest.raises(TypeError):
            a * b
