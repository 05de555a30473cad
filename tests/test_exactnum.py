"""Exact arithmetic: canonical forms, gcd, evaluation, and ring laws."""

import ast
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from derivcalc import exactnum
from derivcalc.deriv import Derivation, DiffOp
from derivcalc.exactnum import (
    GF2Poly,
    InexactDivisionError,
    MultiPoly,
    PoleError,
    RatFunc,
    poly_gcd,
    product_sum,
    ratfunc_product_sum,
)
from derivcalc.genpoly import ExpPoly
from derivcalc.sampling import random_ratfunc


def t(k=1, i=0):
    return MultiPoly.variable(k, i)


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


def test_normalize_cancels_common_factor():
    # (2t, 4t^2) -> (1/2)/t, i.e. 1/(2t)
    r = RatFunc(t().scale(2), (t() * t()).scale(4))
    assert r.num == MultiPoly.const(1, Fraction(1, 2))
    assert r.den == t()
    assert r([3]) == Fraction(1, 6)


def test_normalize_zero_numerator():
    r = RatFunc(MultiPoly.zero(1), t() + 1)
    assert r.is_zero
    assert r.den == MultiPoly.const(1, 1)


def test_normalize_univariate_cancellation():
    r = RatFunc(t() ** 2 - 1, t() - 1)
    assert r == RatFunc.from_poly(t() + 1)


def test_normalize_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(t(), MultiPoly.zero(1))


def test_normalize_idempotent_on_examples():
    r = RatFunc(t().scale(2), (t() * t()).scale(4))
    again = RatFunc(r.num, r.den)
    assert again == r


def test_inexact_division_raises_its_own_value_error():
    # the monomial branch and the long-division branch
    for num, den in ((t() + 1, t() * t()), (t() * t() + 1, t() + 1)):
        with pytest.raises(InexactDivisionError, match="not exactly divisible"):
            num.exact_div(den)
        assert issubclass(InexactDivisionError, ValueError)
        assert not den.divides(num)


def test_gcd_common_variable():
    t1, t2 = t(2, 0), t(2, 1)
    assert poly_gcd(t1 * t2, t1 * t1) == t1


def test_gcd_univariate_euclid():
    assert poly_gcd(t() ** 2 - 1, t() ** 2 - t().scale(2) + 1) == t() - 1


def test_gcd_both_zero():
    assert poly_gcd(MultiPoly.zero(2), MultiPoly.zero(2)).is_zero


def test_gcd_of_zero_and_poly_is_normalized_poly():
    p = (t() * t()).scale(-4)
    g = poly_gcd(MultiPoly.zero(1), p)
    assert g == t() * t()  # primitive, positive leading coefficient


def test_evaluate_examples():
    f = RatFunc.variable(2, 0) / RatFunc.variable(2, 1)
    assert f([1, 2]) == Fraction(1, 2)
    assert RatFunc.one(2)([5, -7]) == 1
    with pytest.raises(PoleError):
        (1 / RatFunc.variable(2, 0))([0, 1])


def test_evaluate_wrong_point_length():
    with pytest.raises(ValueError):
        RatFunc.one(2)([1])


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

K = 2


def monomials(max_degree=3):
    return st.tuples(
        st.integers(0, max_degree), st.integers(0, max_degree)
    ).filter(lambda m: sum(m) <= max_degree)


def multipolys(max_degree=3):
    return st.dictionaries(
        monomials(max_degree), st.integers(-4, 4), max_size=4
    ).map(lambda d: MultiPoly(K, {m: Fraction(c) for m, c in d.items()}))


def nonzero_multipolys():
    return multipolys(max_degree=2).filter(lambda p: not p.is_zero)


def ratfuncs():
    return st.tuples(multipolys(2), nonzero_multipolys()).map(
        lambda pair: RatFunc(pair[0], pair[1])
    )


@settings(deadline=None)
@given(multipolys(), multipolys(), multipolys())
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero
    if not b.is_zero:
        assert (a / b) * b == a


@settings(deadline=None)
@given(ratfuncs())
def test_normalize_is_idempotent(r):
    assert RatFunc(r.num, r.den) == r


@settings(deadline=None)
@given(multipolys(2), nonzero_multipolys(), multipolys(2), nonzero_multipolys())
def test_cross_multiplication_consistency(a, b, c, d):
    # a/b == c/d in the field iff a*d == b*c in the ring
    assert (RatFunc(a, b) == RatFunc(c, d)) == (a * d == b * c)


@settings(deadline=None, max_examples=60)
@given(multipolys(3), multipolys(3))
def test_gcd_divides_both_inputs(a, b):
    g = poly_gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
        return
    assert (a.is_zero or g.divides(a)) and (b.is_zero or g.divides(b))
    if not a.is_zero:
        assert a.exact_div(g) * g == a


@settings(deadline=None, max_examples=60)
@given(nonzero_multipolys(), nonzero_multipolys(), nonzero_multipolys())
def test_gcd_sees_planted_common_factor(a, b, g):
    got = poly_gcd(a * g, b * g)
    assert g.primitive().divides(got)


@settings(deadline=None, max_examples=40)
@given(nonzero_multipolys(), nonzero_multipolys())
def test_heuristic_and_remainder_gcd_agree(a, b):
    from derivcalc.exactnum import _prs_gcd

    if a.is_constant or b.is_constant or a.is_monomial or b.is_monomial:
        return
    if a.terms == b.terms:
        return
    assert poly_gcd(a, b) == _prs_gcd(a.primitive(), b.primitive())


def test_univariate_euclid_route_agrees():
    # univariate inputs take the remainder-sequence route with content 1
    from derivcalc.exactnum import _prs_gcd

    rng_vals = [
        ((t() + 1) ** 2 * (t() - 2), (t() + 1) * (t() ** 2 + 1)),
        (t() ** 5 - 1, t() ** 3 - 1),
        ((2 * t() + 1) * (t() - 3), (2 * t() + 1) * (t() + 3)),
    ]
    for a, b in rng_vals:
        assert _prs_gcd(a.primitive(), b.primitive()) == poly_gcd(a, b)


def test_gcd_output_is_primitive_with_positive_lead():
    a = (t() + 1).scale(Fraction(6, 5))
    b = (t() ** 2 - 1).scale(-4)
    g = poly_gcd(a, b)
    assert g == t() + 1
    _, lead = g.leading_term()
    assert lead > 0 and g.rational_content() == 1


def test_canonical_equality_is_structural():
    t1, t2 = t(2, 0), t(2, 1)
    f1 = RatFunc(t1 * t2 + t2, t2 * t2)
    f2 = RatFunc(t1 + 1, t2)
    assert f1 == f2
    assert hash(f1) == hash(f2)


# ---------------------------------------------------------------------------
# Graded-lex conventions
# ---------------------------------------------------------------------------


def test_grlex_leading_term():
    t1, t2 = t(2, 0), t(2, 1)
    p = t1 * t2 + t2 * t2 * t2 + MultiPoly.const(2, 9)
    mono, coef = p.leading_term()
    assert mono == (0, 3) and coef == 1
    assert [m for m, _ in p.sorted_terms()] == [(0, 3), (1, 1), (0, 0)]


def test_denominator_is_monic():
    r = RatFunc(t(), t().scale(3) + 3)
    _, lead = r.den.leading_term()
    assert lead == 1


def test_total_degree_conventions():
    assert MultiPoly.zero(2).degree == -1
    assert MultiPoly.const(2, 5).degree == 0
    assert (t(2, 0) ** 2 * t(2, 1)).degree == 3


def test_powers_are_repeated_products():
    p = t(2, 0) - t(2, 1).scale(Fraction(1, 2)) + 3
    g = GF2Poly(0b1011)
    acc_p, acc_g = MultiPoly.const(2, 1), GF2Poly.one()
    for n in range(10):
        assert p**n == acc_p and g**n == acc_g
        acc_p, acc_g = acc_p * p, acc_g * g


def test_term_map_validation_and_immutability():
    with pytest.raises(ValueError, match="bad monomial"):
        MultiPoly(2, {(1,): 1})
    for cls in (DiffOp, ExpPoly):
        with pytest.raises(ValueError, match="bad multi-index"):
            cls(2, {(1, -1): 1})
    for cls in (MultiPoly, DiffOp, ExpPoly):
        with pytest.raises(ValueError, match="variable count"):
            cls(-1)
        value = cls(2, {(1, 0): 2, (0, 1): 0})
        assert [m for m, _ in value.sorted_terms()] == [(1, 0)]
        assert {value, cls(2, {(1, 0): 2})} == {value}
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            value.k = 3


# ---------------------------------------------------------------------------
# Packed monomials against a tuple-keyed reference
# ---------------------------------------------------------------------------

LIMIT = 2**31  # documented exponent limit: total degrees stay below it


def _grlex(mono):
    return (sum(mono), mono)


def _ref_terms(ref):
    """Reference term list, descending graded-lex."""
    return sorted(ref.items(), key=lambda kv: _grlex(kv[0]), reverse=True)


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _ref_div(a, b):
    """Exact quotient a/b by graded-lex long division, or None."""
    rem, quot = dict(a), {}
    dm = max(b, key=_grlex)
    while rem:
        m = max(rem, key=_grlex)
        if any(x < y for x, y in zip(m, dm)):
            return None
        q = {tuple(x - y for x, y in zip(m, dm)): rem[m] / b[dm]}
        quot.update(q)
        for mm, c in _ref_mul(q, b).items():
            rem[mm] = rem.get(mm, 0) - c
            if not rem[mm]:
                del rem[mm]
    return quot


def _ref_str(ref):
    chunks = []
    for m, c in _ref_terms(ref):
        body = "*".join(f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}" for i, e in enumerate(m) if e)
        mag = abs(c)
        text = f"{mag}*{body}" if body and mag != 1 else body or str(mag)
        sign = ("-" if c < 0 else "") if not chunks else ("- " if c < 0 else "+ ")
        chunks.append(sign + text)
    return " ".join(chunks) or "0"


def _ref_polys(k, exponents, max_size=4):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.dictionaries(st.tuples(*[exponents] * k), coeffs, max_size=max_size)


def _check_against_ref(p, ref):
    k = p.k
    assert p.sorted_terms() == _ref_terms(ref)
    assert str(p) == _ref_str(ref)
    assert p.degree == max((sum(m) for m in ref), default=-1)
    for v in range(k):
        assert p.degree_in(v) == max((m[v] for m in ref), default=-1)
    if ref:
        assert p.leading_term() == _ref_terms(ref)[0]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_packed_monomials_match_a_tuple_reference(data):
    k = data.draw(st.integers(0, 3), label="k")
    # exponents near LIMIT / (2k): a product of two monomials lands on
    # either side of the limit, a single one stays below it
    big = LIMIT // (2 * max(k, 1))
    near = st.sampled_from([0, 1, 2, big - 1, big, big + 1])
    a, b = data.draw(_ref_polys(k, near)), data.draw(_ref_polys(k, near))
    A, B = MultiPoly(k, a), MultiPoly(k, b)
    _check_against_ref(A, a)
    for v in range(k):
        da = {}
        for m, c in a.items():
            if m[v]:
                da[m[:v] + (m[v] - 1,) + m[v + 1:]] = c * m[v]
        _check_against_ref(A.partial(v), da)
    if a and b and max(map(sum, a)) + max(map(sum, b)) >= LIMIT:
        with pytest.raises(ValueError, match="exponent limit"):
            A * B
    else:
        ab = _ref_mul(a, b)
        _check_against_ref(A * B, ab)
        if b:
            assert (A * B).exact_div(B) == A
    # a monomial divisor: the borrow guard on every field, near the limit
    dm = data.draw(st.tuples(*[near] * k))
    D = MultiPoly.monomial(k, dm)
    if all(all(x >= y for x, y in zip(m, dm)) for m in a):
        _check_against_ref(A.exact_div(D), _ref_div(a, {dm: 1}))
    else:
        with pytest.raises(ValueError, match="not exactly divisible"):
            A.exact_div(D)
    # small exponents for long division, gcd and evaluation
    small = st.integers(0, 3)
    c, d = data.draw(_ref_polys(k, small)), data.draw(_ref_polys(k, small, 3))
    C, Dv = MultiPoly(k, c), MultiPoly(k, d)
    if d:
        q = _ref_div(c, d)
        if q is None:
            with pytest.raises(ValueError, match="not exactly divisible"):
                C.exact_div(Dv)
        else:
            _check_against_ref(C.exact_div(Dv), q)
    if not (C.is_constant or Dv.is_constant or C.is_monomial or Dv.is_monomial or C == Dv):
        assert poly_gcd(C, Dv) == exactnum._prs_gcd(C.primitive(), Dv.primitive())
    point = data.draw(st.tuples(*[st.integers(-3, 3)] * k))
    assert C(point) == sum(
        (co * math.prod(x**e for x, e in zip(point, m)) for m, co in c.items()), Fraction(0)
    )


def test_exponent_limit():
    big = MultiPoly.monomial(1, (LIMIT - 1,))
    assert big.leading_term() == ((LIMIT - 1,), 1)
    for exponents in ((LIMIT,), (LIMIT // 2, LIMIT // 2)):
        with pytest.raises(ValueError, match="exponent limit"):
            MultiPoly.monomial(len(exponents), exponents)
    half = MultiPoly.monomial(2, (LIMIT // 4, LIMIT // 4))
    assert (half * t(2, 0) ** 3).degree_in(0) == LIMIT // 4 + 3
    # a product whose degree crosses the limit never carries into the next field
    for a, b in ((half, half), (big, t()), (t(), big)):
        with pytest.raises(ValueError, match="exponent limit"):
            a * b
    with pytest.raises(ValueError, match="exponent limit"):
        t() ** LIMIT


def test_product_sum_is_the_sum_of_products():
    # items may repeat their p and q objects; the tuple-key reference
    # multiplies every pair on its own
    rng = random.Random(1620)
    polys = [
        {
            tuple(rng.randint(0, 3) for _ in range(2)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))
        }
        for _ in range(6)
    ]
    values = [MultiPoly(2, p) for p in polys]
    for _ in range(40):
        picks = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(0, 5))]
        items = [(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), values[i], values[j]) for i, j in picks]
        want: dict = {}
        for (c, _, _), (i, j) in zip(items, picks):
            for m, v in _ref_mul(polys[i], polys[j]).items():
                want[m] = want.get(m, 0) + c * v
        got = product_sum(2, items)
        _check_against_ref(got, {m: v for m, v in want.items() if v})
        assert all(type(v) is int or v.denominator > 1 for v in got.terms.values())
    # a cancelling pair leaves no zero entry, and a mixed pair is refused
    p = values[1]
    assert product_sum(2, [(1, p, p), (-1, p, p)]).terms == {}
    with pytest.raises(exactnum.DimensionMismatchError):
        product_sum(2, [(1, p, t(1))])


def test_product_sum_keeps_apart_p_values_freed_while_the_items_run():
    # each monomial is freed once the generator moves on, so a later one
    # may take its id; grouping by that id alone summed them as one
    items = ((1, MultiPoly.monomial(1, (e,)), MultiPoly.const(1, 1)) for e in range(6))
    assert product_sum(1, items) == sum((t() ** e for e in range(6)), MultiPoly.zero(1))


def test_products_store_integral_coefficients_as_int():
    # (t/2) * (t + 2) = t^2/2 + t: the coefficient of t is 1/2 * 2
    x = t()
    for got, lead in (
        (x.scale(Fraction(1, 2)) * (x + 2), Fraction(1, 2)),
        (product_sum(1, [(Fraction(2, 3), x, x + Fraction(3, 2))]), Fraction(2, 3)),
    ):
        assert got.sorted_terms() == [((2,), lead), ((1,), 1)]
        assert type(got.sorted_terms()[1][1]) is int


def test_integral_sums_are_stored_as_int():
    # t1/2 + t1/2 = t1, also as the numerator of a RatFunc sum over one
    # polynomial denominator
    h = t().scale(Fraction(1, 2))
    a = RatFunc(h, t() + 1)
    for got in ((h + h).terms, (h - h.scale(3)).terms, (a + a).num.terms):
        assert got and all(type(v) is int or v.denominator > 1 for v in got.values()), got
    assert (h + h) == t() and (a + a).num == t()


def test_expoly_keys_are_exponent_tuples():
    x = RatFunc.variable(2, 0)
    p = ExpPoly.linear([x, 1 / x]) * ExpPoly(2, {(2, 1): x})
    assert p.terms == {(3, 1): x * x, (2, 2): RatFunc.one(2)}
    assert 3 * p == p * 3 == p.scale(3) and p * (1 / x) == p.scale(1 / x)
    with pytest.raises(TypeError):
        p * t(2, 0)


def test_expoly_product_runs_through_the_kernel_with_ratfunc_coefficients():
    x = RatFunc.variable(1, 0)
    p = ExpPoly(1, {(0,): x, (1,): 1 / x})
    q = ExpPoly(1, {(1,): x, (2,): RatFunc.one(1)})
    assert p * q == ExpPoly(1, {(1,): x * x, (2,): x + 1, (3,): 1 / x})
    assert str(p * q) == str(ExpPoly(1, {(1,): x * x, (2,): x + 1, (3,): 1 / x}))
    assert (p * ExpPoly.zero(1)).is_zero and type(p * q) is ExpPoly


def test_ratfunc_product_sum_matches_ratfunc_arithmetic():
    # denominators 1, monomial and polynomial, repeated f objects and
    # repeated denominator pairs, against one RatFunc product and sum per item
    rng = random.Random(1621)
    for k in (1, 2):
        pool = [random_ratfunc(rng, k, max_degree=2, den_style=s) for s in ("one", "monomial", "poly") * 2]
        pool.append(RatFunc.zero(k))
        for _ in range(15):
            items = [
                (Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(0, 6))
            ]
            want = RatFunc.zero(k)
            for c, f, g in items:
                want = want + f * g * c
            got = ratfunc_product_sum(k, items)
            assert got == want and str(got) == str(want)


def _product_corpus():
    """Seeded (f, g) operand pairs over k = 1..3: RatFunc values of every
    denominator style, zero, and int, Fraction and MultiPoly operands on
    either side."""
    rng = random.Random(1622)
    for k in (1, 2, 3):
        pool = [
            random_ratfunc(rng, k, max_degree=2, den_style=s)
            for s in ("one", "monomial", "poly", "mixed") * 3
        ]
        pool.append(RatFunc.zero(k))
        others = [0, 3, Fraction(-2, 5), MultiPoly.zero(k), random_ratfunc(rng, k).num]
        for f in pool:
            for g in pool:
                yield k, f, g
            for g in others:
                yield k, f, g
                yield k, g, f


def test_ratfunc_product_matches_the_constructor_route():
    for k, f, g in _product_corpus():
        a, b = exactnum.as_ratfunc(k, f), exactnum.as_ratfunc(k, g)
        want = RatFunc(a.num * b.num, a.den * b.den)
        got = f * g
        assert type(got) is RatFunc and got == want and str(got) == str(want), (f, g)


def test_canonical_form_divides_no_side_by_itself(monkeypatch):
    """When g = gcd(num, den) is one of the two sides, that side's quotient
    by g is 1: ``RatFunc.__init__`` takes it without an exact division.
    Values and division counts are pinned."""
    t1, t2 = t(2, 0), t(2, 1)
    cases = [
        (t1 * t2 + t2, t1 + 1, "t2", 1),
        (t1 + 1, (t1 + 1) * (t2 + 2), "(1)/(t2 + 2)", 1),
        (t1 * t1 + t1, t1.scale(3), "1/3*t1 + 1/3", 2),
        ((t1 + 1) * (t2 - 1), (t1 + 1) * (t2 + 1), "(t2 - 1)/(t2 + 1)", 2),
        (t1.scale(2) + 2, (t1 * t1 - 1).scale(3), "(2/3)/(t1 - 1)", 2),
        (t1 + t2, t1 + t2, "1", 0),
        (t1 + 1, t2, "(t1 + 1)/(t2)", 0),
    ]
    divisions = []
    divide = MultiPoly.exact_div

    def counted_divide(self, other):
        if sys._getframe(1).f_code.co_name == "__init__":
            divisions.append((self, other))
        return divide(self, other)

    monkeypatch.setattr(MultiPoly, "exact_div", counted_divide)
    for num, den, want, count in cases:
        divisions.clear()
        assert str(RatFunc(num, den)) == want
        assert len(divisions) == count, (num, den)
        assert all(p != q for p, q in divisions)


def test_ratfunc_sum_divides_no_denominator_by_itself(monkeypatch):
    """When one denominator divides the other, g = gcd(d1, d2) is that
    denominator and its quotient by g is 1: ``RatFunc.__add__`` takes it
    without an exact division.  Values and division counts are pinned, in
    both orders."""
    t1, t2 = RatFunc.variable(2, 0), RatFunc.variable(2, 1)
    u = t1 * t2 + 1
    cases = [
        (1 / t1, 1 / (t1 * t2), "(t2 + 1)/(t1*t2)", 1),
        (t2 / u, 1 / (u * (t1 + t2)), "(t1*t2 + t2^2 + 1)/(t1^2*t2 + t1*t2^2 + t1 + t2)", 1),
        (1 / (t1**2 * t2), 1 / t2 + 1, "(t1^2*t2 + t1^2 + 1)/(t1^2*t2)", 1),
        (1 / (t1 + 1), 1 / (t1 - 1), "(2*t1)/(t1^2 - 1)", 0),
        (t2 / (t1 + 1) ** 2, 1 / ((t1 + 1) * t2), "(t2^2 + t1 + 1)/(t1^2*t2 + 2*t1*t2 + t2)", 2),
    ]
    divisions = []
    divide = MultiPoly.exact_div

    def counted_divide(self, other):
        if sys._getframe(1).f_code.co_name == "__add__":
            divisions.append((self, other))
        return divide(self, other)

    monkeypatch.setattr(MultiPoly, "exact_div", counted_divide)
    for a, b, want, count in cases:
        for x, y in ((a, b), (b, a)):
            divisions.clear()
            assert str(x + y) == want
            assert len(divisions) == count, (x, y)
            assert all(p != q for p, q in divisions)


def test_ratfunc_product_is_one_product_sum(monkeypatch):
    """Each product of two nonzero RatFunc values builds its numerator in
    one ``product_sum`` call, and its denominator in a second only when
    neither denominator is 1 (the gcd of the canonical form may make more of
    its own).  Over denominators 1 and 1 it takes no gcd."""
    calls = {"gcd": 0, "product_sum": 0}
    gcd, kernel = exactnum.poly_gcd, exactnum.product_sum
    depth = [0]

    def counted_gcd(a, b):
        calls["gcd"] += 1
        depth[0] += 1
        try:
            return gcd(a, b)
        finally:
            depth[0] -= 1

    def counted_kernel(k, items):
        calls["product_sum"] += not depth[0]
        return kernel(k, items)

    monkeypatch.setattr(exactnum, "poly_gcd", counted_gcd)
    monkeypatch.setattr(exactnum, "product_sum", counted_kernel)
    polynomial = one_sided = 0
    for _, f, g in _product_corpus():
        if not (isinstance(f, RatFunc) and isinstance(g, RatFunc) and f and g):
            continue
        calls.update(gcd=0, product_sum=0)
        f * g
        assert calls["product_sum"] == 1 + (f.den != 1 and g.den != 1), (f, g)
        if f.den == 1 and g.den == 1:
            assert calls["gcd"] == 0, (f, g)
            polynomial += 1
        one_sided += (f.den == 1) != (g.den == 1)
    assert polynomial > 0 and one_sided > 0


def _summed_items_corpus():
    """Seeded (k, items) lists for ``ratfunc_product_sum`` over k = 1..3:
    operands whose denominators are 1, monomials, small polynomials or a mix,
    int and Fraction c, and lists made to have two groups with the same
    monomial product t^m and groups that cancel to zero."""
    rng = random.Random(1623)
    for k in (1, 2, 3):
        t1 = RatFunc.variable(k, 0)
        for style in ("monomial", "mixed", "poly"):
            pool = [
                random_ratfunc(rng, k, max_degree=2, den_style=s)
                for s in (style, style, "monomial", "one")
            ]
            pool.append(RatFunc.const(k, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
            for _ in range(12):
                yield k, [
                    (rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(2, 4)))),
                     rng.choice(pool), rng.choice(pool))
                    for _ in range(rng.randint(0, 6))
                ]
        a, b = (random_ratfunc(rng, k, den_style="one") for _ in range(2))
        # (t1, 1) and (1, t1) pair alike as t1
        yield k, [(1, a / t1, b), (Fraction(1, 2), b, a / t1), (3, a, b)]
        # (t1, t1) and (t1^2, 1) share t1^2 and cancel, and with them (1, 1)
        yield k, [(2, a / t1, b / t1), (-2, a * b / t1**2, RatFunc.one(k))]
        yield k, [(1, a / t1, b / t1), (-1, a * b / t1**2, RatFunc.one(k)), (-1, a, b), (1, b, a)]
        # halves that add up to an integral coefficient
        yield k, [(Fraction(1, 2), a / t1, RatFunc.one(k)), (Fraction(1, 2), a, 1 / t1), (1, b, b / t1**2)]


def test_ratfunc_product_sum_is_the_sum_of_its_products():
    """Groups over monomial denominators share one numerator over the lcm
    t^L; the reference is one canonical form per item and ``+``."""
    merged = zero = beside = 0
    for k, items in _summed_items_corpus():
        want = RatFunc.zero(k)
        for c, f, g in items:
            want = want + RatFunc(f.num * g.num * c, f.den * g.den)
        got = ratfunc_product_sum(k, items)
        assert got == want and str(got) == str(want), items
        pairs = {(f.den, g.den) for _, f, g in items if f and g}
        over_monomials = [d1.is_monomial and d2.is_monomial for d1, d2 in pairs]
        if sum(over_monomials) > 1:
            merged += 1
            zero += got.is_zero
            beside += not all(over_monomials)
        if all(over_monomials):  # the sum is the merged numerator alone
            for p in (got.num, got.den):
                assert all(type(v) is int or v.denominator > 1 for v in p.terms.values())
    assert merged > 60 and zero >= 6 and beside >= 5


def test_apply_diffop_over_monomial_denominators_takes_one_canonical_form(monkeypatch):
    """Three coefficients over t1, t1*t2 and t1^2*t2 applied to a polynomial
    make three groups over monomials: one numerator over t1^2*t2, one gcd
    with a monomial and no RatFunc addition (a canonical form per group and
    two additions took 7 gcds)."""
    calls = {"gcd": 0, "add": 0}
    gcd, add = exactnum.poly_gcd, RatFunc.__add__

    def counted_gcd(a, b):
        calls["gcd"] += 1
        return gcd(a, b)

    def counted_add(self, other):
        calls["add"] += 1
        return add(self, other)

    t1, t2 = RatFunc.variable(2, 0), RatFunc.variable(2, 1)
    E = DiffOp(2, {(1, 0): t2 / t1, (0, 1): (t1 + 1) / (t1 * t2), (1, 1): 1 / (t1**2 * t2)})
    f = RatFunc.from_poly(MultiPoly(2, {(2, 1): 1, (1, 1): 1, (0, 1): 3, (1, 0): 1, (0, 0): 1}))
    d1, d2 = f.partial(0), f.partial(1)
    want = (t2 / t1) * d1 + (t1 + 1) / (t1 * t2) * d2 + d1.partial(1) / (t1**2 * t2)
    monkeypatch.setattr(exactnum, "poly_gcd", counted_gcd)
    monkeypatch.setattr(RatFunc, "__add__", counted_add)
    got = E(f)
    assert calls == {"gcd": 1, "add": 0}
    assert got == want
    assert str(got) == "(2*t1^2*t2^3 + t1^4 + t1*t2^3 + 2*t1^3 + t1*t2^2 + 4*t1^2 + 5*t1 + 1)/(t1^2*t2)"


def _monomial_gcd_corpus():
    """Seeded (a, b) pairs with a monomial on one side or both, over
    k = 1..3: a shared monomial factor, and a side whose first key is 1 so
    that every minimum is 0 at once."""
    rng = random.Random(1624)
    for k in (1, 2, 3):
        for _ in range(40):
            p = random_ratfunc(rng, k, max_degree=3, den_style="one").num
            mono = MultiPoly.monomial(k, [rng.randint(0, 3) for _ in range(k)], rng.randint(1, 4))
            shared = MultiPoly.monomial(k, [rng.randint(0, 2) for _ in range(k)])
            first_one = MultiPoly(k, {(0,) * k: 1, **dict(p.sorted_terms())})
            for q in (p * shared, first_one, mono * shared.scale(Fraction(1, 3))):
                yield mono * shared, q
                yield q, mono * shared


def test_monomial_gcd_is_the_least_exponent_of_each_variable():
    seen = set()
    for a, b in _monomial_gcd_corpus():
        if a.is_zero or b.is_zero or a.is_constant or b.is_constant:
            continue
        exps = [m for p in (a, b) for m, _ in p.sorted_terms()]
        low = tuple(min(e[v] for e in exps) for v in range(a.k))
        assert poly_gcd(a, b) == MultiPoly.monomial(a.k, low), (a, b)
        seen.add((a.k, any(low)))
    assert seen == {(k, z) for k in (1, 2, 3) for z in (False, True)}


def test_no_module_imports_private_exactnum_names():
    # the monomial format and the kernels on it stay private to exactnum
    offenders = []
    for path in sorted(Path(exactnum.__file__).parent.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "exactnum",
                "derivcalc.exactnum",
            ):
                offenders += [
                    f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")
                ]
            # and no attribute access such as ``exactnum._pack``
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                owner = node.value
                name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if name == "exactnum":
                    offenders.append(f"{path.name}: exactnum.{node.attr}")
    assert offenders == []


def test_term_map_difference_is_the_sum_with_the_negation():
    # one term map for a - b: the class and the printed form of a + (-b)
    k = 2
    p, q = t(k, 0), t(k, 1)
    r = RatFunc.variable(k, 0) / (RatFunc.variable(k, 1) + 1)
    derivation = Derivation([r, 3])
    operator = DiffOp(k, {(0, 2): r, (1, 0): 1, (0, 0): Fraction(1, 2)})
    pairs = [
        (p * q + 3, p * q - q.scale(Fraction(1, 2))),
        (p * p, p * p),
        (ExpPoly.linear([r, RatFunc.one(k)]), ExpPoly.const(k, r)),
        (ExpPoly.linear([r, r]), ExpPoly.linear([r, RatFunc.zero(k)])),
        (operator, derivation),
        (derivation, operator),
        (derivation, Derivation([r, 1])),
    ]
    for a, b in pairs:
        want = a + (-b)
        got = a - b
        assert type(got) is type(want) and str(got) == str(want), (a, b)
        assert got == want and (a - a).is_zero
    with pytest.raises(TypeError):
        p - ExpPoly.const(k, r)
    with pytest.raises(exactnum.DimensionMismatchError):
        p - t(3, 0)


# ---------------------------------------------------------------------------
# GF(2)[x]
# ---------------------------------------------------------------------------


def test_gf2_basics():
    x = GF2Poly.x()
    assert (x + GF2Poly.one()) ** 2 == x**2 + GF2Poly.one()  # freshman's dream
    assert GF2Poly.zero().degree == -1
    assert (x**3).degree == 3
    assert GF2Poly.zero().coefficients == ()
    assert (x**2 + GF2Poly.one()).coefficients == (1, 0, 1)


def test_gf2_equal_polynomials_hash_equal():
    x = GF2Poly.x()
    for a, b in (
        ((x + GF2Poly.one()) ** 2, x**2 + GF2Poly.one()),
        (x * x * x, GF2Poly.monomial(3)),
        (x + x, GF2Poly.zero()),
        # above 2^64, where CPython re-hashes the int mask
        (x**64 * (x**64 + GF2Poly.one()), x**128 + x**64),
        (x**200 + x, GF2Poly(1 << 200 | 2)),
        # (1 + x)^(2^7 - 1) has every coefficient of degree below 2^7 odd
        ((x + GF2Poly.one()) ** 127, GF2Poly((1 << 128) - 1)),
    ):
        assert a == b and a is not b
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert len({GF2Poly(b) for b in range(8)} | {GF2Poly(5), GF2Poly(0)}) == 8


def test_gf2_poly_and_its_bit_mask_stay_distinct_keys():
    # the two share a hash, but never compare equal
    for bits in (5, 1 << 200 | 5):
        table = {GF2Poly(bits): "poly", bits: "int"}
        assert len(table) == 2
        assert table[GF2Poly(bits)] == "poly" and table[bits] == "int"
    assert GF2Poly(5) != 5 and 5 != GF2Poly(5)


def test_gf2_ring_laws_exhaustive_small():
    elems = list(GF2Poly.all_up_to_degree(2))
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert a + a == GF2Poly.zero()
    for a in elems:
        for b in elems:
            for c in elems:
                assert a * (b + c) == a * b + a * c


def test_gf2_formal_derivative():
    x = GF2Poly.x()
    assert (x**2).formal_derivative().is_zero
    assert (x**3).formal_derivative() == x**2
    assert (x**3 + x**2 + x).formal_derivative() == x**2 + GF2Poly.one()


def test_gf2_formal_derivative_is_the_termwise_derivative():
    # x^i -> i * x^(i-1) over GF(2), term by term, for every mask below 2^12
    for bits in range(1 << 12):
        want = 0
        for i in range(1, bits.bit_length()):
            if (bits >> i) & 1 and i % 2:
                want ^= 1 << (i - 1)
        assert GF2Poly(bits).formal_derivative() == GF2Poly(want), bits


def _schoolbook(a, b):
    """The product over GF(2) of two coefficient tuples, lowest degree
    first, with no trailing zero."""
    out = [0] * (len(a) + len(b))
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] ^= ca & cb
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_gf2_product_is_the_schoolbook_product():
    polys = [GF2Poly(bits) for bits in range(1 << 7)]
    pairs = [(a, b) for a in polys for b in polys]
    rng = random.Random(1729)
    for _ in range(40):
        dense, sparse = rng.getrandbits(200), 1 << rng.randrange(200) | 1 << rng.randrange(200)
        pairs += [
            (GF2Poly(rng.getrandbits(200)), GF2Poly(dense)),
            (GF2Poly(dense), GF2Poly(sparse)),
            (GF2Poly(sparse), GF2Poly(dense)),
        ]
    for a, b in pairs:
        assert (a * b).coefficients == _schoolbook(a.coefficients, b.coefficients), (a, b)
    # results are immutable, and the public constructor still validates
    a, b = pairs[-1]
    for value in (a * b, a + b, a.formal_derivative()):
        assert type(value) is GF2Poly and type(value.bits) is int
        with pytest.raises(AttributeError, match="GF2Poly is immutable"):
            value.bits = 1
    with pytest.raises(ValueError, match="nonnegative"):
        GF2Poly(-1)

