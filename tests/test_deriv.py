"""Derivations, operator words, canonical forms, composition."""

from fractions import Fraction
from math import factorial, prod
from random import Random

import pytest

import derivcalc
from derivcalc import deriv, exactnum
from derivcalc.exactnum import DimensionMismatchError, MultiPoly, RatFunc, add_terms
from derivcalc.deriv import (
    Derivation,
    DiffOp,
    OpWord,
    apply_diffop,
    compose,
    derived,
    normalize,
)
from derivcalc.sampling import (
    monomials_up_to,
    random_derivation,
    random_diffop,
    random_ratfunc,
    random_sparse_ratfunc,
)

t = RatFunc.variable(1, 0)
d = Derivation.coordinate(1, 0)


# ---------------------------------------------------------------------------
# applying a derivation
# ---------------------------------------------------------------------------


def test_apply_coordinate_derivation():
    assert d(t**2) == 2 * t


def test_derivation_kills_constants():
    rng = Random(7)
    c = RatFunc.const(2, Fraction(7, 3))
    for _ in range(5):
        dd = random_derivation(rng, 2)
        assert dd(c).is_zero


def test_coordinate_index_out_of_range_is_refused():
    for index in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            Derivation.coordinate(2, index)


def test_quotient_rule_is_forced():
    assert d(1 / t) == -(t**-2)


def test_additivity_and_product_rule():
    rng = Random(11)
    for _ in range(25):
        dd = random_derivation(rng, 2)
        f = random_ratfunc(rng, 2)
        g = random_ratfunc(rng, 2)
        assert dd(f + g) == dd(f) + dd(g)
        assert dd(f * g) == dd(f) * g + dd(g) * f


# ---------------------------------------------------------------------------
# apply_diffop
# ---------------------------------------------------------------------------


def test_apply_mixed_operator():
    E = Derivation.coordinate(1, 0) + DiffOp(1, {(2,): t})
    assert apply_diffop(E, t**3) == 9 * t**2


def test_identity_component_scales():
    c = RatFunc.from_poly(MultiPoly.variable(1, 0) + 1)
    E = DiffOp.identity(1, c)
    rng = Random(3)
    for _ in range(5):
        f = random_ratfunc(rng, 1)
        assert apply_diffop(E, f) == c * f


def test_zero_operator_annihilates():
    assert apply_diffop(DiffOp.zero(1), t**2).is_zero


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_single_derivation_normal_form():
    g1 = random_ratfunc(Random(1), 2)
    g2 = random_ratfunc(Random(2), 2)
    dd = Derivation([g1, g2])
    N = normalize(OpWord.composition([dd]))
    assert N == dd


def test_commutation_rewrite():
    # d o (t d) = d + t d^2, checked structurally and on monomials
    w = OpWord.composition([d, Derivation([t])])
    N = normalize(w)
    assert N == Derivation.coordinate(1, 0) + DiffOp(1, {(2,): t})
    for i in range(5):
        f = t**i
        assert w(f) == apply_diffop(N, f)


def test_derivation_mixes_with_diffop_as_a_plain_diffop():
    # a Derivation is the first-order DiffOp with the same terms: it adds,
    # subtracts, compares, hashes and composes as one, on either side
    rng = Random(53)
    one = RatFunc.one(2)
    for _ in range(10):
        dd = random_derivation(rng, 2, max_degree=1)
        plain = DiffOp(2, dict(dd.terms))
        E = random_diffop(rng, 2, 2, in_o0=False)  # identity term included
        assert type(plain) is DiffOp and dd == plain and plain == dd
        assert hash(dd) == hash(plain) and {plain: 1}[dd] == 1
        for got, want in (
            (dd + E, plain + E),
            (E + dd, E + plain),
            (dd - E, plain - E),
            (E - dd, E - plain),
            (compose(dd, E), compose(plain, E)),
            (compose(E, dd), compose(E, plain)),
            (compose(dd, dd), compose(plain, plain)),
            (compose(dd, DiffOp.identity(2, 3)), plain.scale(3)),
        ):
            assert type(got) is DiffOp and got == want
        assert (dd - plain).is_zero and (E + dd) - dd == E
        # derivations stay derivations under sums, negations and scalings
        for got in (dd + dd, -dd, dd.scale(RatFunc.variable(2, 0)), dd - dd):
            assert type(got) is Derivation
            assert got.in_o0 and got.degree <= 1
        f = random_ratfunc(rng, 2)
        assert (dd + E)(f) == dd(f) + E(f) and compose(E, dd)(f) == E(dd(f))
        assert dd(one).is_zero


def test_empty_word_is_scaled_identity():
    c = RatFunc.from_poly(MultiPoly.variable(1, 0) + 1)
    w = OpWord(1, [(c, ())])
    assert normalize(w) == DiffOp.identity(1, c)


def test_normalize_soundness_on_random_words():
    rng = Random(20240601)
    for _ in range(15):
        k = rng.choice((1, 2))
        length = rng.randint(1, 3)
        words = []
        for _ in range(rng.randint(1, 2)):
            word = tuple(random_derivation(rng, k, max_degree=1) for _ in range(length))
            coef = random_sparse_ratfunc(rng, k, max_degree=1)
            words.append((coef, word))
        w = OpWord(k, words)
        N = normalize(w)
        for _ in range(3):
            f = random_ratfunc(rng, k, max_degree=2)
            assert w(f) == apply_diffop(N, f)


def test_normalize_idempotent_via_reinterpretation():
    rng = Random(77)
    for _ in range(10):
        E = random_diffop(rng, 2, rng.randint(0, 3), in_o0=False)
        # rebuild E as a formal word: each c*d^a is a scaled composition of
        # coordinate derivations
        words = []
        for alpha, c in E.terms.items():
            word = []
            for i, e in enumerate(alpha):
                word.extend([Derivation.coordinate(2, i)] * e)
            words.append((c, tuple(word)))
        assert normalize(OpWord(2, words)) == E


# ---------------------------------------------------------------------------
# compose / degree
# ---------------------------------------------------------------------------


def test_compose_partials():
    P = Derivation.coordinate(1, 0)
    assert compose(P, P) == DiffOp(1, {(2,): 1})


def test_compose_no_spurious_lower_term():
    # (t d) o d has no first-order part: the coefficient t is differentiated
    # only when it sits to the right of a derivative
    P = Derivation.coordinate(1, 0)
    assert compose(DiffOp(1, {(1,): t}), P) == DiffOp(1, {(2,): t})


def test_compose_with_zero():
    E = Derivation.coordinate(1, 0) + DiffOp(1, {(2,): t})
    assert compose(E, DiffOp.zero(1)).is_zero
    assert compose(DiffOp.zero(1), E).is_zero


def test_compose_agrees_with_application():
    rng = Random(5150)
    for _ in range(10):
        E1 = random_diffop(rng, 2, rng.randint(0, 2), in_o0=False, den_style="one")
        E2 = random_diffop(rng, 2, rng.randint(0, 2), in_o0=False, den_style="one")
        C = compose(E1, E2)
        for _ in range(2):
            f = random_ratfunc(rng, 2, max_degree=2)
            assert apply_diffop(C, f) == apply_diffop(E1, apply_diffop(E2, f))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_general_leibniz_rule(k):
    # E(f*g) = sum over b of E^(b)(f) * d^b g / b!, with non-monomial
    # denominators in E, f and g
    rng = Random(4100 + k)
    for n in range(4 if k < 3 else 3):
        E = random_diffop(rng, k, n, in_o0=False, den_style="poly")
        f = random_ratfunc(rng, k, den_style="poly")
        g = random_ratfunc(rng, k, den_style="poly")
        total = RatFunc.zero(k)
        for beta in monomials_up_to(k, n):
            dg = g
            for i, e in enumerate(beta):
                for _ in range(e):
                    dg = dg.partial(i)
            total = total + derived(E, beta)(f) * dg / prod(map(factorial, beta))
        assert E(f * g) == total


def test_symbol_derivative_terms():
    # (t d^3)^(2) = 6t d, and without its identity term (t d^2)^(2) is zero
    assert derived(DiffOp(1, {(3,): t}), (2,)) == DiffOp(1, {(1,): 6 * t})
    assert derived(DiffOp(1, {(2,): t}), (2,)) == DiffOp.identity(1, 2 * t)
    assert derived(DiffOp(1, {(2,): t}), (2,), identity=False).is_zero
    assert derived(Derivation.coordinate(2, 0), (0, 1)).is_zero


def test_degree_conventions():
    assert DiffOp(1, {(2,): 1}).degree == 2
    assert DiffOp.identity(1, 5).degree == 0
    assert DiffOp.zero(1).degree == -1


def test_degree_additivity_sample():
    rng = Random(99)
    for _ in range(20):
        k = rng.choice((1, 2))
        E1 = random_diffop(rng, k, rng.randint(0, 2), in_o0=False, den_style="one")
        E2 = random_diffop(rng, k, rng.randint(0, 2), in_o0=False, den_style="one")
        if E1.is_zero or E2.is_zero:
            continue
        assert compose(E1, E2).degree == E1.degree + E2.degree


def test_o0_membership_iff_kills_one():
    rng = Random(31)
    one = RatFunc.one(2)
    for _ in range(20):
        E = random_diffop(rng, 2, rng.randint(0, 3), in_o0=rng.random() < 0.5)
        assert E.in_o0 == apply_diffop(E, one).is_zero


def test_dimension_mismatch_rejected():
    E1 = Derivation.coordinate(1, 0)
    E2 = Derivation.coordinate(2, 0)
    with pytest.raises(DimensionMismatchError):
        compose(E1, E2)
    with pytest.raises(DimensionMismatchError):
        apply_diffop(E1, RatFunc.variable(2, 0))
    with pytest.raises(DimensionMismatchError):
        Derivation.coordinate(2, 0)(t)


# ---------------------------------------------------------------------------
# product sums against the termwise routes they replaced
# ---------------------------------------------------------------------------


def _compose_reference(E1: DiffOp, E2: DiffOp) -> DiffOp:
    """E1 after E2, one partial derivative at a time: d_i (c d^b) =
    (d_i c) d^b + c d^(b + e_i), then one RatFunc product per term of
    d^a E2 for each coefficient of E1 and one operator sum per term."""
    result = DiffOp.zero(E1.k)
    for alpha, c in E1.terms.items():
        acc = E2
        for i, e in enumerate(alpha):
            for _ in range(e):
                out: dict = {}
                for beta, b in acc.terms.items():
                    up = tuple(x + (v == i) for v, x in enumerate(beta))
                    add_terms(out, ((beta, b.partial(i)), (up, b)))
                acc = DiffOp(E1.k, out)
        result = result + acc.scale(c)
    return result


def _apply_reference(E: DiffOp, f: RatFunc) -> RatFunc:
    """sum_a c_a * d^a f, one RatFunc product and one RatFunc sum per term."""
    total = RatFunc.zero(f.k)
    for alpha, c in E.terms.items():
        g = f
        for i, e in enumerate(alpha):
            for _ in range(e):
                g = g.partial(i)
        total = total + c * g
    return total


def _normalize_reference(w: OpWord) -> DiffOp:
    result = DiffOp.zero(w.k)
    for coef, word in w.words:
        acc = DiffOp.identity(w.k)
        for d in reversed(word):
            acc = _compose_reference(d, acc)
        result = result + acc.scale(coef)
    return result


def _operator_corpus():
    """(E1, E2, word) cases over k = 1..3 and every den_style: operators of
    degree 0..3 with and without an identity part (composed up to degree 3),
    Derivation operands on either side, and the zero operator."""
    rng = Random(1616)
    for k in (1, 2, 3):
        for den_style in ("one", "monomial", "poly", "mixed"):

            def derivation():
                return Derivation(
                    [random_ratfunc(rng, k, max_degree=1, den_style=den_style) for _ in range(k)]
                )

            # over k = 3 sparser operators and shorter words keep the
            # quotient-rule derivatives of the reference routes to seconds
            fill = 0.6 if k < 3 else 0.3
            for degree in range(4):
                for in_o0 in (True, False):
                    E1 = random_diffop(rng, k, degree, in_o0, den_style=den_style, fill=fill)
                    E2 = random_diffop(rng, k, 3 - degree, not in_o0, den_style=den_style, fill=fill)
                    word = tuple(derivation() for _ in range(min(degree, 5 - k)))
                    yield E1, E2, word
            E = random_diffop(rng, k, 2, in_o0=False, den_style=den_style)
            yield derivation(), E, (derivation(),)
            yield E, derivation(), (derivation(), derivation())
            yield DiffOp.zero(k), E, ()
            yield E, DiffOp.zero(k), (derivation(),)


def test_compose_apply_and_normalize_match_the_termwise_routes():
    rng = Random(1617)
    cases = 0
    for E1, E2, word in _operator_corpus():
        k = E1.k
        got, want = compose(E1, E2), _compose_reference(E1, E2)
        assert got == want and str(got) == str(want), (E1, E2)
        f = random_ratfunc(rng, k, den_style="mixed")
        for E in (E1, E2):
            got, want = apply_diffop(E, f), _apply_reference(E, f)
            assert got == want and str(got) == str(want), (E, f)
        coef = random_ratfunc(rng, k, max_degree=1, den_style="mixed") or 1
        w = OpWord(k, [(1, word), (coef, word[1:])])
        got, want = normalize(w), _normalize_reference(w)
        assert got == want and str(got) == str(want), w
        cases += 1
    assert cases >= 120


def test_compose_takes_one_product_sum_per_coefficient(monkeypatch):
    """Polynomial coefficients share the denominator 1, so each coefficient
    of the composition is one product_sum: no RatFunc product or sum and no
    gcd."""
    rng = Random(1618)
    E1 = random_diffop(rng, 2, 2, in_o0=False, den_style="one")
    E2 = normalize(OpWord.composition([random_derivation(rng, 2) for _ in range(3)]))
    calls = {"gcd": 0, "mul": 0, "add": 0, "product_sum": 0}
    originals = {"gcd": exactnum.poly_gcd, "product_sum": exactnum.product_sum}

    for name, original in originals.items():

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in vars(derivcalc).values():
            for attr in ("poly_gcd", "product_sum"):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counted)
    for name, op in (("mul", RatFunc.__mul__), ("add", RatFunc.__add__)):

        def tallied(self, other, op=op, name=name):
            calls[name] += 1
            return op(self, other)

        for dunder in (f"__{name}__", f"__r{name}__"):
            monkeypatch.setattr(RatFunc, dunder, tallied)
    C = compose(E1, E2)
    assert C.degree == E1.degree + E2.degree == 5
    assert calls == {"gcd": 0, "mul": 0, "add": 0, "product_sum": len(C.terms)}


def test_leibniz_sum_weights_only_nonzero_derivatives(monkeypatch):
    """d^b t vanishes for |b| >= 2, so d[1000] forms one Taylor weight per
    factor t, not 999: a weight 1/b! is formed after d^b y, and only when
    that derivative is nonzero."""
    from derivcalc.genpoly import gp_degree_check, over_identity
    from derivcalc.leibniz import nested_defect

    calls = []
    monkeypatch.setattr(deriv, "factorial", lambda e: calls.append(e) or factorial(e))
    E = DiffOp(1, {(1000,): 1})
    assert nested_defect(E, t, (t,)) == 0
    assert len(calls) == 1
    calls.clear()
    assert gp_degree_check(over_identity(E), 1, [t], [t]).ok
    assert len(calls) == 2
