"""Counterexample fixtures: characteristic 2, product rings, exact order."""

import math
from itertools import product
from random import Random

import pytest

from derivcalc.exactnum import GF2Poly, MultiPoly, RatFunc
from derivcalc.deriv import Derivation
from derivcalc.fixtures import (
    Char2OrderReport,
    PairPoly,
    _multi_additive,
    char2_D,
    char2_compose_check,
    char2_order_check,
    pair_d1,
    pair_d2,
    product_ring_demo,
    theorem2_demo,
)
from derivcalc.leibniz import _Memo, _defect_law, defect, nested_defect, order_upper_check

x = GF2Poly.x()


# ---------------------------------------------------------------------------
# characteristic 2
# ---------------------------------------------------------------------------


def test_char2_map_values():
    assert char2_D(x).is_zero
    assert char2_D(x**2) == GF2Poly.one()
    assert char2_D(x**3) == x  # binom(3,2) = 3 is odd


def test_char2_map_is_the_binomial_definition():
    # x^i -> binom(i, 2) x^(i-2) over GF(2), term by term, for every mask
    # below 2^12
    for bits in range(1 << 12):
        want = 0
        for i in range(2, bits.bit_length()):
            if (bits >> i) & 1 and math.comb(i, 2) % 2:
                want ^= 1 << (i - 2)
        assert char2_D(GF2Poly(bits)) == GF2Poly(want), bits


def test_char2_map_is_additive_up_to_degree_four():
    rep = char2_order_check(max_degree=4)
    assert rep.additive_ok


def test_char2_second_order_but_not_derivation():
    rep = char2_order_check(max_degree=4)
    assert rep.ok
    assert rep.defects2_vanish
    wx, wy, wb = rep.derivation_witness
    assert (wx, wy) == (x, x)
    assert wb == GF2Poly.one()
    # the witness: D(x*x) = 1 while x*D(x) + x*D(x) = 0
    assert char2_D(x * x) == GF2Poly.one()
    assert rep.d_of_x.is_zero and rep.d_of_x2 == GF2Poly.one()


def test_char2_degree_one_inputs_vacuous_pass():
    rep = char2_order_check(max_degree=1)
    assert rep.ok


def test_char2_modified_map_is_derivation_candidate_on_small_set():
    def mod_d(p):
        out = char2_D(p)
        if p.coeff(2):
            out = out + GF2Poly.one()  # force D(x^2) = 0
        return out

    rep = char2_order_check(max_degree=1, D=mod_d)
    # the modified map vanishes on everything of degree <= 2, so no
    # product-rule failure is visible from degree <= 1 inputs (the original
    # witness needed D(x^2) = 1); nested defects still reach degree-3
    # products and are out of scope for this assertion
    assert rep.additive_ok
    assert rep.derivation_witness is None


def test_char2_order_check_evaluates_each_input_once():
    calls = []

    def counted(p):
        calls.append(p)
        return char2_D(p)

    for max_degree in (1, 2):
        calls.clear()
        rep = char2_order_check(max_degree=max_degree, D=counted)
        assert rep.ok
        # every argument is a product of at most three inputs of degree
        # <= max_degree, and there are 2**(3*max_degree+1) such polynomials
        assert len(calls) <= 2 ** (3 * max_degree + 1)
        assert len(calls) == len(set(calls))


def _char2_order_check_ordered(max_degree, D):
    """``char2_order_check`` over ordered pairs and triples in ``product``
    order, first witness wins: the reference for the multiset enumeration."""
    D = _Memo(D)
    elems = list(GF2Poly.all_up_to_degree(max_degree))
    witness = None
    for p, q in product(elems, repeat=2):
        b = defect(D, p, q)
        if not b.is_zero:
            witness = (p, q, b)
            break
    return Char2OrderReport(
        max_degree=max_degree,
        additive_ok=all(D(p + q) == D(p) + D(q) for p, q in product(elems, repeat=2)),
        defects2_vanish=all(
            nested_defect(D, p, (q1, q2)).is_zero for p, q1, q2 in product(elems, repeat=3)
        ),
        d_of_x=D(x),
        d_of_x2=D(x**2),
        derivation_witness=witness,
    )


def _char2_third(p):
    """x^i -> binom(i, 3) x^(i-3) over F2: additive, 2-fold defects nonzero."""
    out = GF2Poly.zero()
    for i in range(3, p.bits.bit_length()):
        if p.coeff(i) and math.comb(i, 3) & 1:
            out = out + GF2Poly.monomial(i - 3)
    return out


def _char2_corpus():
    """(D, max_degree) for a seeded corpus of GF(2) maps: second order (with
    and without a derivation added), derivations (no witness), maps with
    D(1) != 0, order-bound violations and non-additive maps, some of them
    additive on low degrees only."""
    rng = Random(1729)
    families = [
        lambda b: char2_D,
        lambda b: lambda p: char2_D(p) + b * p.formal_derivative(),
        lambda b: lambda p: b * p.formal_derivative(),
        lambda b: lambda p: char2_D(p) + b * p,
        lambda b: _char2_third,
        lambda b: lambda p: char2_D(p) + b * p * p * p,
        lambda b: lambda p: char2_D(p) + (b * p * p * p if p.degree > 2 else GF2Poly.zero()),
    ]
    for i in range(2 * len(families)):
        D = families[i % len(families)](GF2Poly(rng.randrange(1, 16)))
        max_degree = 3 if i < len(families) else rng.randint(1, 2)
        yield D, max_degree


def test_char2_order_check_multisets_match_ordered_enumeration():
    seen = set()
    for D, max_degree in _char2_corpus():
        rep = char2_order_check(max_degree=max_degree, D=D)
        assert rep == _char2_order_check_ordered(max_degree, D)
        seen.add((rep.additive_ok, rep.defects2_vanish, rep.derivation_witness is None))
    assert len(seen) >= 4


def test_order_upper_check_over_gf2_agrees_with_char2_order_check():
    seen = set()
    for D, max_degree in _char2_corpus():
        rep = char2_order_check(max_degree=max_degree, D=D)
        if not (rep.additive_ok and D(GF2Poly.one()).is_zero):
            continue
        elems = list(GF2Poly.all_up_to_degree(max_degree))
        second = order_upper_check(D, 2, elems)
        assert second.ok == (rep.additive_ok and rep.defects2_vanish)
        first = order_upper_check(D, 1, elems)
        if rep.derivation_witness is None:
            assert first.ok
        else:
            assert not first.ok and first.reason == "1-fold nested defect nonzero"
            assert (*first.witness, first.value) == rep.derivation_witness
        seen.add(("order <= 2", second.ok))
        seen.add(("order <= 1", first.ok))
    assert len(seen) == 4


class _Shifted:
    """The bench's black-box shape: a fresh callable instance per check,
    char2_D plus the derivation p -> b * p'."""

    def __init__(self, b):
        self.b = b

    def __call__(self, p):
        return char2_D(p) + self.b * p.formal_derivative()


def _char2_basis_corpus():
    """(kind, D, max_degree) for d = 1..4, fewer maps at d = 4 where the
    reference scans 32^3 triples: maps that pass the premise (char2_D,
    derivations, the bench's shape), maps broken at one product a*b*c of
    three inputs of degree d, and maps additive only below degree 3d - 1."""
    rng = Random(2727)
    one, zero = GF2Poly.one(), GF2Poly.zero()

    def degree_d(d):
        return GF2Poly(rng.randrange(1 << d, 1 << d + 1))

    for d in (1, 2, 3, 4):
        for _ in range(1 if d == 4 else 3):
            b = GF2Poly(rng.randrange(1, 32))
            yield "premise", char2_D, d
            yield "premise", lambda p, b=b: b * p.formal_derivative(), d
            yield "premise", _Shifted(b), d
            pt = degree_d(d) * degree_d(d) * degree_d(d)
            yield "one point", lambda p, pt=pt: char2_D(p) + (one if p == pt else zero), d
            top = 3 * d - 1
            yield "high degree", lambda p, t=top: char2_D(p) + (one if p.degree >= t else zero), d
            yield "high degree", lambda p, t=top, b=b: char2_D(p) + (b * p * p if p.degree >= t else zero), d


def test_char2_basis_route_matches_exhaustive_reference():
    missed_by_basis = 0
    for kind, D, max_degree in _char2_basis_corpus():
        rep = char2_order_check(max_degree=max_degree, D=D)
        assert rep == _char2_order_check_ordered(max_degree, D), (kind, max_degree)
        # the premise holds exactly where it should, and it is needed: a
        # one-point break off the monomials is invisible to the basis alone
        assert _multi_additive(D, max_degree) == (kind == "premise"), (kind, max_degree)
        if kind == "premise":
            assert rep.additive_ok
        basis = [GF2Poly.monomial(i) for i in range(max_degree + 1)]
        if not rep.defects2_vanish and _defect_law(_Memo(D), 2, basis).ok:
            missed_by_basis += 1
    assert missed_by_basis


def test_char2_compose_identity_values():
    # with a = 1: k even gives 0, k odd gives x^(k-1)
    rep = char2_compose_check(GF2Poly.one())
    assert rep.ok
    d1 = lambda p: p.formal_derivative() * rep.d1_image
    d2 = lambda p: p.formal_derivative() * rep.d2_image
    assert d1(d2(GF2Poly.one())).is_zero  # k = 0
    assert d1(d2(x**2)).is_zero  # k = 2, even
    assert d1(d2(x**3)) == x**2  # k = 3, odd


def test_char2_compose_all_small_generator_images():
    for b1, b2 in product(GF2Poly.all_up_to_degree(2), repeat=2):
        a = b2.formal_derivative() * b1
        rep = char2_compose_check(a, d1_image=b1, d2_image=b2)
        assert rep.ok


def test_char2_compose_basis_matches_every_polynomial():
    for b1, b2 in product(GF2Poly.all_up_to_degree(2), repeat=2):
        a = b2.formal_derivative() * b1
        for max_power in range(1, 9):
            rep = char2_compose_check(a, d1_image=b1, d2_image=b2, max_power=max_power)
            assert rep.collapse_ok == all(
                (p.formal_derivative() * b2).formal_derivative() * b1 == p.formal_derivative() * a
                for p in GF2Poly.all_up_to_degree(max_power)
            )


def test_char2_compose_rejects_inconsistent_a():
    with pytest.raises(ValueError):
        char2_compose_check(GF2Poly.one(), d1_image=x, d2_image=x**2)


def test_char2_composition_is_again_a_derivation():
    # the collapse: composing two derivations on F2[x] yields a derivation,
    # checked via the product rule on all inputs of small degree
    for b1, b2 in product(GF2Poly.all_up_to_degree(1), repeat=2):
        d1 = lambda p: p.formal_derivative() * b1
        d2 = lambda p: p.formal_derivative() * b2
        comp = lambda p: d1(d2(p))
        for u in GF2Poly.all_up_to_degree(2):
            for v in GF2Poly.all_up_to_degree(2):
                assert comp(u * v) == comp(u) * v + comp(v) * u


def test_char2_D_is_not_in_the_closure_of_the_operators():
    # every derivation of F2[x] is p -> p' * h, and (x^2)' = 2x = 0: the
    # values on x^2 of all compositions of j derivations with deg h < 6 are
    # the images of those of j - 1, and each set is {0}.  So every O0
    # operator kills x^2, while char2_D (order <= 2) sends it to 1: no
    # operator of any degree matches char2_D on {x^2}, and Theorem 1 fails
    derivations = [lambda p, h=h: p.formal_derivative() * h for h in GF2Poly.all_up_to_degree(5)]
    assert len(derivations) == 64
    values = {x**2}
    for _ in range(3):
        values = {d(v) for d in derivations for v in values}
        assert values == {GF2Poly.zero()}
    assert char2_D(x**2) == GF2Poly.one()
    assert char2_order_check().defects2_vanish


def test_char2_breaks_the_diagonal_law():
    # f keeps the coefficient of x^3 and is additive.  Every square has only
    # even powers, so the diagonal G_1(p) = B(p, p) = f(p^2) - 2p f(p) is 0;
    # yet B(x, x^2) = f(x^3) = 1: polarization needs 2! to be invertible
    one = GF2Poly.one()
    f = lambda p: one if p.coeff(3) else GF2Poly.zero()
    polys = list(GF2Poly.all_up_to_degree(8))[1:]
    assert len(polys) == 511
    assert all(nested_defect(f, p, (p,)).is_zero for p in polys)
    law = _defect_law(_Memo(f), 1, list(GF2Poly.all_up_to_degree(3)))
    assert not law.ok and law.witness == (x, x**2) and law.value == one


# ---------------------------------------------------------------------------
# product ring
# ---------------------------------------------------------------------------


def test_product_ring_component_step():
    px = MultiPoly.variable(1, 0)
    p = PairPoly(px**2, px**3)
    step = pair_d2(p)
    assert step == PairPoly(MultiPoly.zero(1), (px**2).scale(3))
    assert pair_d1(step).is_zero


def test_product_ring_unit_killed():
    assert pair_d1(PairPoly.unit()).is_zero
    assert pair_d2(PairPoly.unit()).is_zero


def test_pair_poly_components_must_be_univariate():
    with pytest.raises(ValueError, match="components must be univariate"):
        PairPoly(MultiPoly.variable(2, 0), MultiPoly.const(1, 1))


def _product_ring_rules_hold(d, samples):
    """The sum and product rules of d on every ordered pair of samples."""
    return all(
        d(u + v) == d(u) + d(v) and d(u * v) == d(u) * v + d(v) * u
        for u, v in product(samples, repeat=2)
    )


def test_order_upper_check_over_the_product_ring_is_the_rule_loop():
    px = MultiPoly.variable(1, 0)
    zero = MultiPoly.zero(1)
    samples = [
        PairPoly.unit(),
        PairPoly(px, px**3),
        PairPoly(px**2 + 1, px),
        PairPoly(px**2, px**3),
        PairPoly(px + 1, zero),
        PairPoly(zero, px**2 - px),
    ]
    maps = [
        (pair_d1, ""),
        (pair_d2, ""),
        (lambda p: p * p, "not additive"),
        (lambda p: PairPoly(p.first.partial(0).partial(0), zero), "1-fold nested defect nonzero"),
        (lambda p: pair_d2(p) + p, "does not annihilate 1"),
    ]
    for d, reason in maps:
        got = order_upper_check(d, 1, samples)
        assert got.ok == _product_ring_rules_hold(d, samples) == (not reason)
        assert got.ok or got.reason == reason


def test_product_ring_demo_report():
    rep = product_ring_demo()
    assert rep.ok
    assert rep.leibniz_ok and rep.composite_zero_ok
    assert not rep.d1_nonzero_witness.is_zero
    assert not rep.d2_nonzero_witness.is_zero


# ---------------------------------------------------------------------------
# exact order of compositions
# ---------------------------------------------------------------------------


def test_theorem2_repeated_coordinate_derivation():
    d = Derivation.coordinate(1, 0)
    rep = theorem2_demo([d, d])
    assert rep.ok
    # the coordinate witness of d[2]: B_t1(t1) = c_alpha * alpha! = 2
    t1 = RatFunc.variable(1, 0)
    assert rep.witness == (t1, (t1,), RatFunc.const(1, 2))
    with pytest.raises(TypeError):
        theorem2_demo([d, d], seed=1)  # nothing is sampled
    assert rep.degree == 2 and rep.expoly_degree == 2
    from derivcalc.genpoly import exponent_polynomial
    from derivcalc.genpoly import ExpPoly

    inv2 = RatFunc(MultiPoly.const(1, 1), MultiPoly.monomial(1, (2,)))
    assert exponent_polynomial(rep.operator) == ExpPoly(
        1, {(2,): inv2, (1,): -inv2}
    )


def test_theorem2_mixed_two_variable_composition():
    t1 = RatFunc.variable(2, 0)
    d1 = Derivation.coordinate(2, 0)
    mixed = Derivation([t1, RatFunc.one(2)])
    rep = theorem2_demo([d1, mixed])
    assert rep.ok
    assert rep.degree == 2 and rep.expoly_degree == 2
    # top index (2,0) with coefficient t1: value t1 * 2!
    assert rep.witness == (t1, (t1,), 2 * t1)
    with pytest.raises(TypeError):
        theorem2_demo([d1, mixed], seed=1)


def test_theorem2_single_derivation():
    rep = theorem2_demo([Derivation.coordinate(1, 0)])
    assert rep.ok
    assert rep.degree == 1
    # the 0-fold nesting is the map itself: d/dt1 at t1 is 1
    assert rep.witness == (RatFunc.variable(1, 0), (), RatFunc.one(1))
    with pytest.raises(TypeError):
        theorem2_demo([Derivation.coordinate(1, 0)], seed=1)


def test_theorem2_rejects_zero_derivation():
    with pytest.raises(ValueError):
        theorem2_demo([Derivation.zero(2)])
    with pytest.raises(TypeError):
        theorem2_demo([Derivation.coordinate(2, 0)], seed=1)
