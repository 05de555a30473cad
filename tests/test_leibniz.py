"""Defect calculus: B(x, y), nested defects, order checks."""

import math
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, permutations, product
from random import Random

import pytest

from derivcalc.exactnum import GF2Poly, MultiPoly, RatFunc
from derivcalc.deriv import Derivation, DiffOp, OpWord, normalize
from derivcalc.fixtures import PairPoly, char2_D, pair_d1
from derivcalc.genpoly import _difference_step
from derivcalc.leibniz import (
    CheckResult,
    MapTable,
    NotInO0Error,
    _Memo,
    defect,
    nested_defect,
    order_exact,
    order_upper_check,
    order_witness,
)
from derivcalc.sampling import (
    random_defect_tuple,
    random_derivation,
    random_diffop,
    random_ratfunc,
    random_sparse_ratfunc,
)

t = RatFunc.variable(1, 0)
D2 = DiffOp(1, {(2,): 1})  # second derivative


def test_defect_of_second_derivative():
    # (xy)'' - x''y - y''x = 2x'y', so B(t, t) = 2
    assert defect(D2, t, t) == 2


def test_derivations_have_zero_defect():
    rng = Random(17)
    for _ in range(10):
        dd = random_derivation(rng, 2)
        x = random_ratfunc(rng, 2)
        y = random_ratfunc(rng, 2)
        assert defect(dd, x, y).is_zero


def test_defect_at_one_vanishes_when_map_kills_one():
    # B(1, y) = -D(1) * y
    rng = Random(23)
    for _ in range(5):
        E = random_diffop(rng, 1, 2, in_o0=True)
        y = random_ratfunc(rng, 1)
        assert defect(E, RatFunc.one(1), y).is_zero


def test_nested_defect_examples():
    # two-fold defect of a second-order map vanishes
    assert nested_defect(D2, t, (t, t)).is_zero
    # one-fold defect of any derivation vanishes
    rng = Random(29)
    dd = random_derivation(rng, 1)
    x, y = random_ratfunc(rng, 1), random_ratfunc(rng, 1)
    assert nested_defect(dd, x, (y,)).is_zero
    # one-fold defect of the second derivative does not: order > 1 witness
    assert nested_defect(D2, t, (t,)) == 2


def _nested_defect_closed_form(D, x, ys):
    """Sum over nonempty S of Z = (x, y1..ym) of
    (-1)^|Z\\S| * prod(Z\\S) * D(prod S): the recursion unrolled."""
    z = (x, *ys)
    one = RatFunc.one(x.k)
    total = RatFunc.zero(x.k)
    for mask in range(1, 2 ** len(z)):
        inside = [v for i, v in enumerate(z) if mask >> i & 1]
        outside = [v for i, v in enumerate(z) if not mask >> i & 1]
        term = D(math.prod(inside, start=one)) * math.prod(outside, start=one)
        total = total - term if len(outside) % 2 else total + term
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_nested_defect_matches_closed_form(m):
    rng = Random(700 + m)

    def not_additive(x):
        # neither additive nor zero at 1: the identity holds for any map
        return x * x + x.partial(1) + 1

    for _ in range(3):
        E = random_diffop(rng, 2, 2, in_o0=False, exact_degree=False)
        x, *ys = (random_sparse_ratfunc(rng, 2, max_degree=2) for _ in range(m + 1))
        ys[-1] = ys[-1] / (x * x + 1)  # one element with a denominator
        for D in (E, not_additive):
            assert nested_defect(D, x, ys) == _nested_defect_closed_form(D, x, ys)


@pytest.mark.parametrize("k, n", [(k, n) for k in (1, 2, 3) for n in range(5)])
def test_nested_defect_closed_form_matches_recursion(k, n):
    # a lambda is a black box, so it takes the recursion: the reference for
    # the closed Leibniz form that a DiffOp takes.  E comes without and with
    # an identity part, whose coefficient has a non-monomial denominator.
    rng = Random(900 + 10 * k + n)
    E0 = random_diffop(rng, k, n, in_o0=True, fill=0.3)
    c0 = random_ratfunc(rng, k, max_degree=1, den_style="poly") + 1
    nonzero = 0
    for E in (E0, E0 + DiffOp.identity(k, c0)):
        x, *ys = (random_sparse_ratfunc(rng, k, max_degree=2) for _ in range(n + 2))
        ys[-1] = ys[-1] / (RatFunc.variable(k, 0) + 2)  # a non-monomial denominator
        for m in range(1, n + 2):
            fast = nested_defect(E, x, ys[:m])
            assert fast == nested_defect(lambda z: E(z), x, ys[:m])
            nonzero += not fast.is_zero
            if E.in_o0 and m >= E.degree:
                assert fast.is_zero
    assert nonzero


@pytest.mark.parametrize(
    "D",
    [
        DiffOp.zero(1),
        DiffOp.identity(1, 3),
        DiffOp.identity(1, 3) + D2,
        Derivation([t * t + 1]),
        lambda z: z * z,
    ],
    ids=["zero", "identity", "identity-plus-D2", "derivation", "lambda"],
)
def test_zero_fold_nested_defect_is_the_map(D):
    # the 0-fold nesting is the map itself, on both routes
    for x in (t, t**2 + 1, 1 / (t + 2)):
        assert nested_defect(D, x, ()) == D(x)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_nested_defect_is_symmetric_in_all_arguments(m):
    # the m-fold nested defect at (x, y1..ym) takes one value over all
    # (m+1)! orderings for any map on a commutative ring, additive or not:
    # the fact that lets the sampled checks enumerate multisets
    rng = Random(500 + m)
    b = GF2Poly(rng.randrange(1, 32))
    cases = [
        # non-additive over Q(t); each z * t + 1, and each product of them, has
        # constant term 1, so z + 3 is never zero
        (
            lambda z: z**3 + 1 / (z + 3),
            [random_sparse_ratfunc(rng, 1, max_degree=2) * t + 1 for _ in range(m + 1)],
        ),
        # a GF(2) black box
        (lambda p: char2_D(p) + b * p * p, [GF2Poly(rng.randrange(2, 64)) for _ in range(m + 1)]),
    ]
    for D, zs in cases:
        values = {nested_defect(D, z[0], z[1:]) for z in permutations(zs)}
        assert len(values) == 1
        assert not values.pop().is_zero


@pytest.mark.parametrize("k, m", [(k, m) for k in (1, 2) for m in range(4)])
def test_polarization_recovers_the_nested_defect_from_its_diagonal(k, m):
    # for an additive f the m-fold nested defect F is symmetric and additive
    # in each argument, so with G(x) = F(x, ..., x) polarization gives
    # (m+1)! * F(z0..zm) = sum over nonempty S of (-1)^(m+1-|S|) * G(sum_S z);
    # plain callables take the black-box _Memo.nest route.  E has degree m
    # and an identity part, so neither map has order <= m: F is nonzero on
    # the data, which keeps the identity from holding as 0 = 0
    rng = Random(1000 + 10 * k + m)
    c0 = random_sparse_ratfunc(rng, k, max_degree=1) * RatFunc.variable(k, 0) + 1
    E = random_diffop(rng, k, m) + DiffOp.identity(k, c0)
    perturbed = E + random_diffop(rng, k, m + 1)
    zs = [
        random_sparse_ratfunc(rng, k, max_degree=2) * RatFunc.variable(k, i % k) + 1
        for i in range(m + 1)
    ]
    zs[-1] = zs[-1] / (RatFunc.variable(k, 0) + 2)
    for op in (E, perturbed):
        memo = _Memo(lambda z, op=op: op(z))
        lhs = math.factorial(m + 1) * nested_defect(memo, zs[0], zs[1:])
        rhs = RatFunc.zero(k)
        for size in range(1, m + 2):
            for S in combinations(zs, size):
                x = sum(S, RatFunc.zero(k))
                g = nested_defect(memo, x, (x,) * m)
                rhs = rhs + g if (m + 1 - size) % 2 == 0 else rhs - g
        assert lhs == rhs and not lhs.is_zero, (op, zs)


def test_defect_symmetry_and_biadditivity():
    rng = Random(37)
    for _ in range(8):
        E = random_diffop(rng, 2, rng.randint(1, 3), in_o0=True)
        x, x2, y = (random_ratfunc(rng, 2) for _ in range(3))
        assert defect(E, x, y) == defect(E, y, x)
        assert defect(E, x + x2, y) == defect(E, x, y) + defect(E, x2, y)


# ---------------------------------------------------------------------------
# order_upper_check
# ---------------------------------------------------------------------------


def samples1():
    return [RatFunc.one(1), t, t**2, t + 1]


def test_order_check_passes_at_true_order():
    res = order_upper_check(D2, 2, samples1())
    assert res.ok


def test_order_check_fails_below_true_order():
    res = order_upper_check(D2, 1, [t])
    assert not res.ok
    assert res.witness == (t, t)
    assert res.value == 2


def test_zero_map_has_order_zero():
    res = order_upper_check(DiffOp.zero(1), 0, samples1())
    assert res.ok


def test_order_zero_check_fails_on_the_0_fold_defect():
    res = order_upper_check(D2, 0, samples1())
    assert not res.ok
    assert res.reason == "0-fold nested defect nonzero"
    # D2 kills 1 and t, so the first sample it moves is t^2
    assert res.witness == (t**2,) and res.value == 2
    lam = order_upper_check(lambda z: D2(z), 0, samples1())
    assert lam == res


def test_order_check_rejects_non_additive_map():
    res = order_upper_check(lambda f: f * f, 1, [t, t + 1])
    assert not res.ok and res.reason == "not additive"
    assert res.checked == 0  # ``checked`` counts n-fold tuples, not pairs


def test_order_check_rejects_map_not_killing_one():
    E = DiffOp.identity(1, 3) + D2
    res = order_upper_check(E, 2, samples1())
    assert not res.ok and "annihilate" in res.reason
    assert res.checked == 0


@pytest.mark.parametrize(
    "D, n, samples",
    [
        (D2, 2, samples1()),
        (D2, 1, [t]),
        (D2, 1, samples1()),
        (DiffOp.zero(1), 0, samples1()),
        (DiffOp.identity(1, 3) + D2, 2, samples1()),
        (DiffOp(1, {(1,): t, (3,): 1}), 2, samples1()),
        (Derivation([t * t + 1]), 1, samples1()),
        (Derivation([t * t + 1]), 0, samples1()),
    ],
)
def test_order_check_on_operators_matches_black_box(D, n, samples):
    # a DiffOp or Derivation reaches nested_defect as itself (closed form);
    # the lambda takes the recursion, and the whole CheckResult must agree
    assert order_upper_check(D, n, samples) == order_upper_check(lambda z: D(z), n, samples)


def _order_upper_check_ordered(D, n, samples):
    """``order_upper_check`` over ordered pairs and tuples in ``product``
    order, first failure wins: the reference for the multiset enumeration."""
    if not isinstance(D, DiffOp):
        for x, y in product(samples, repeat=2):
            lhs, rhs = D(x + y), D(x) + D(y)
            if lhs != rhs:
                return CheckResult(False, "not additive", (x, y), lhs - rhs)
    one = RatFunc.one(samples[0].k)
    if not D(one).is_zero:
        return CheckResult(False, "does not annihilate 1", (one,), D(one))
    for tup in product(samples, repeat=n + 1):
        v = nested_defect(D, tup[0], tup[1:])
        if not v.is_zero:
            return CheckResult(False, f"{n}-fold nested defect nonzero", tup, v)
    return CheckResult(True, f"consistent with order <= {n} on given data")


def _order_check_corpus(rng):
    """(D, n, samples) cases: passing maps, order-bound violations, maps with
    D(1) != 0, non-additive maps, and samples that repeat an element.  Each
    sample list starts with 1, so the first tuples pass and a failure, when
    there is one, sits further in."""
    for i in range(12):
        deg = 1 + i % 3
        E = random_diffop(rng, 1, deg, den_style="one")
        x, y = (random_sparse_ratfunc(rng, 1, max_degree=2) * t + 1 for _ in range(2))
        samples = [RatFunc.one(1), x, y] if i % 2 else [RatFunc.one(1), x, x, y]
        c = RatFunc.const(1, rng.randint(1, 5))
        # additive only where the numerator has degree <= 1
        big_square = lambda z, E=E: E(z) + (z * z if z.num.degree > 1 else 0)
        yield E, deg, samples  # passes
        yield lambda z, E=E: E(z), deg, samples  # passes, as a black box
        yield E, deg - 1, samples  # an order-bound violation
        yield lambda z, E=E: E(z), deg - 1, samples
        yield E + DiffOp.identity(1, c), deg, samples  # D(1) = c != 0
        yield lambda z, E=E, c=c: E(z) + c * z, deg, samples
        yield big_square, deg, samples  # not additive
        yield lambda z, E=E: E(z) + z**3 + 1 / (z * z + 1), deg, samples


def test_order_check_multisets_match_ordered_enumeration():
    outcomes = set()
    for D, n, samples in _order_check_corpus(Random(61)):
        res = order_upper_check(D, n, samples)
        ref = _order_upper_check_ordered(D, n, samples)
        assert replace(res, checked=0) == ref  # the reference counts nothing
        if "nested defect" in res.reason:
            # the witness is the checked-th multiset
            tuples = list(combinations_with_replacement(samples, n + 1))
            assert tuples.index(res.witness) + 1 == res.checked
        outcomes.add(res.reason.split()[-1])
    assert outcomes == {"data", "nonzero", "1", "additive"}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_passing_order_check_counts_multisets(n):
    rng = Random(71 + n)
    E = random_diffop(rng, 1, n) if n else DiffOp.zero(1)
    samples = [RatFunc.one(1), t, t**2 + 1, t, 1 / (t + 2)]  # t repeats
    for D in (E, lambda z: E(z)):
        res = order_upper_check(D, n, samples)
        assert res.ok and res.checked == math.comb(len(samples) + n, n + 1)


def test_closedness_echo_on_restriction_tables():
    # the restriction of a degree-n operator to a finite set passes the
    # order-n check on that set
    rng = Random(41)
    for _ in range(5):
        n = rng.randint(1, 3)
        E = random_diffop(rng, 2, n, in_o0=True, den_style="one")
        elements = [random_ratfunc(rng, 2, den_style="one") for _ in range(3)]
        table = MapTable.tabulate(E, elements, 2)
        lookup = dict(table.entries)

        res = order_upper_check(E, n, [x for x, _ in table])
        assert res.ok
        # and the tabulated values really are E's values
        assert all(E(x) == y for x, y in lookup.items())


# ---------------------------------------------------------------------------
# order_exact
# ---------------------------------------------------------------------------


def test_order_exact_of_second_derivative():
    assert order_exact(D2) == 2
    # cross-check against the sampled route
    assert order_upper_check(D2, 2, samples1()).ok
    assert not order_upper_check(D2, 1, samples1()).ok


def test_order_exact_zero_map():
    assert order_exact(DiffOp.zero(1)) == 0


def test_order_exact_rejects_identity_component():
    with pytest.raises(NotInO0Error):
        order_exact(DiffOp.identity(1, 5))


@pytest.mark.parametrize("k, n", [(k, n) for k in (1, 2, 3) for n in range(1, 5)])
def test_order_witness_is_c_alpha_times_alpha_factorial(k, n):
    # the coordinate witness against c_alpha * alpha! and against the
    # black-box recursion (a lambda), on a composition of n derivations and
    # on a random O0 operator with non-monomial denominators
    rng = Random(700 + 10 * k + n)
    ds = [random_derivation(rng, k, max_degree=1) for _ in range(n)]
    for E in (
        normalize(OpWord.composition(ds)),
        random_diffop(rng, k, n, den_style="poly", fill=0.3),
    ):
        x, ys, value = order_witness(E)
        assert len(ys) == n - 1
        alpha = max(a for a in E.terms if sum(a) == n)  # graded-lex top
        assert value == E.terms[alpha] * math.prod(map(math.factorial, alpha))
        assert not value.is_zero
        assert value == nested_defect(lambda z: E(z), x, ys)


def test_order_witness_edge_cases():
    assert order_witness(DiffOp.zero(2)) is None
    assert order_witness(D2) == (t, (t,), RatFunc.const(1, 2))
    with pytest.raises(NotInO0Error):
        order_witness(DiffOp.identity(1, 5) + D2)


def test_exact_order_of_compositions_small():
    rng = Random(43)
    for n in (1, 2, 3):
        ds = [random_derivation(rng, 2) for _ in range(n)]
        E = normalize(OpWord.composition(ds))
        assert order_exact(E) == n
        # n-fold defects vanish on random tuples
        for _ in range(3):
            tup = random_defect_tuple(rng, 2, n + 1)
            assert nested_defect(E, tup[0], tup[1:]).is_zero
        # an (n-1)-fold witness exists
        found = False
        for _ in range(50):
            if n == 1:
                x = random_defect_tuple(rng, 2, 1)[0]
                found = not E(x).is_zero
            else:
                tup = random_defect_tuple(rng, 2, n)
                found = not nested_defect(E, tup[0], tup[1:]).is_zero
            if found:
                break
        assert found


def test_general_operator_defect_laws():
    # any operator of exact degree n killing 1 has vanishing n-fold nested
    # defects, and some (n-1)-fold nesting refuses to vanish
    rng = Random(47)
    for n in (1, 2, 3):
        E = random_diffop(rng, 2, n, in_o0=True, exact_degree=True, den_style="monomial")
        for _ in range(3):
            tup = random_defect_tuple(rng, 2, n + 1)
            assert nested_defect(E, tup[0], tup[1:]).is_zero
        found = False
        for _ in range(50):
            if n == 1:
                found = not E(random_defect_tuple(rng, 2, 1)[0]).is_zero
            else:
                tup = random_defect_tuple(rng, 2, n)
                found = not nested_defect(E, tup[0], tup[1:]).is_zero
            if found:
                break
        assert found


def test_map_table_rejects_duplicates():
    with pytest.raises(ValueError):
        MapTable.from_pairs([(t, t), (t, t + 1)], 1)


def test_order_check_rejects_a_negative_bound_and_no_samples():
    with pytest.raises(ValueError, match="order bound must be nonnegative"):
        order_upper_check(lambda x: x, -1, [t])
    with pytest.raises(ValueError, match="need at least one sample"):
        order_upper_check(lambda x: x, 1, [])


def _plain_nest(f, step, ys, z):
    """The nesting of ``_Memo.nest`` by plain recursion, with no table."""
    if not ys:
        return f(z)
    return step(lambda w: _plain_nest(f, step, ys[:-1], w), z, ys[-1])


def _nest_cases():
    """(map, samples) over GF(2)[x], Q(t) and Q(t1, t2), and
    Q[x] x Q[x], non-additive maps included."""
    x, one = GF2Poly.x(), GF2Poly.one()
    t1, t2 = RatFunc.variable(2, 0), RatFunc.variable(2, 1)
    X = MultiPoly.variable(1, 0)
    pairs = [PairPoly(X, X**2 + 1), PairPoly(X + 1, MultiPoly.const(1, 2)), PairPoly.unit()]
    return [
        pytest.param(char2_D, [x, x**2 + one, x**3 + x], id="char2_D"),
        pytest.param(lambda p: p * p * p + x, [x, x + one, x**2], id="gf2 cube"),
        pytest.param(D2, [t, t**2 + 1, 1 / (t + 1)], id="d2"),
        pytest.param(lambda r: r * r, [t, t + 2, t**2 / (t - 3)], id="square"),
        pytest.param(Derivation([t2, t1 * t1]), [t1, t2 + 1, t1 / t2], id="k=2 derivation"),
        pytest.param(lambda r: r * t2 + 1, [t1 + t2, t1 * t2, 1 / (t1 + 1)], id="k=2 shift"),
        pytest.param(pair_d1, pairs, id="pair_d1"),
        pytest.param(lambda p: p * p - p, pairs, id="pair square"),
    ]


@pytest.mark.parametrize("f, samples", _nest_cases())
def test_memo_nest_is_the_plain_recursion(f, samples):
    # one memo per step and m, shared by every tuple, as the checks share
    # it; each argument reaches the map once, and the memo asks for the
    # arguments the plain recursion does
    for step in (defect, _difference_step):
        for m in range(4):
            calls, plain_calls = [], []
            memo = _Memo(lambda w: calls.append(w) or f(w))

            def plain(w):
                plain_calls.append(w)
                return f(w)

            for z in product(samples, repeat=m + 1):
                want = _plain_nest(plain, step, z[1:], z[0])
                assert memo.nest(step, z[1:], z[0]) == want, (step, z)
            assert len(calls) == len(set(calls)) and set(calls) == set(plain_calls)
