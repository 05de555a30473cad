"""Executable counterexamples and demos at desk scale.

Three stories, each checked on finite data or proved by construction.  The
characteristic-2 checks hold on every input of bounded degree, and they
are answered on the monomial basis where additivity in each argument makes
that verdict the same as a scan over all inputs:

* Over F2[x] the map sending x^i to binom(i,2) x^(i-2) is additive and has
  every 2-fold product-rule defect zero, yet it is not a derivation - and
  composing any two derivations on F2[x] collapses back to first order.
  Characteristic matters.
* On the product ring Q[x] x Q[x], two nonzero derivations can compose to
  the zero map.  Zero divisors matter.
* Over Q(t1..tk), composing n nonzero derivations always has exact order n:
  canonical degree n, exponent-polynomial degree n, structurally vanishing
  n-fold nested defects, and a closed-form nonvanishing (n-1)-fold witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .exactnum import GF2Poly, MultiPoly
from .deriv import Derivation, DiffOp, OpWord, normalize
from .genpoly import exponent_polynomial, expoly_degree
from .leibniz import _Memo, _additive_law, _defect_law, order_upper_check, order_witness
from .leibniz import nested_defect  # noqa: F401  (kept: bench/test_bench.py checks it is traced)


# ---------------------------------------------------------------------------
# Characteristic 2
# ---------------------------------------------------------------------------


def char2_D(p: GF2Poly) -> GF2Poly:
    """Map x^i -> binom(i, 2) x^(i-2) over F2, extended additively.

    By Lucas' theorem binom(i, 2) is odd exactly when bit 1 of i is set,
    i = 2 or 3 (mod 4), so the image keeps the bits of bits >> 2 at
    positions 0 and 1 (mod 4): the mask 0b...00110011 of a multiple of 4
    bits is (2^(4g) - 1) / 5."""
    b = p.bits >> 2
    return GF2Poly(b & ((1 << (b.bit_length() | 3) + 1) - 1) // 5)


def _gf2_derivation(image: GF2Poly) -> Callable[[GF2Poly], GF2Poly]:
    """The derivation on F2[x] with d(x) = image: d(p) = p' * image."""

    def d(p: GF2Poly) -> GF2Poly:
        return p.formal_derivative() * image

    return d


@dataclass(frozen=True)
class Char2OrderReport:
    max_degree: int
    additive_ok: bool
    defects2_vanish: bool
    d_of_x: GF2Poly
    d_of_x2: GF2Poly
    derivation_witness: tuple | None  # (x, y, B(x, y)) with nonzero defect

    @property
    def ok(self) -> bool:
        return self.additive_ok and self.defects2_vanish


def _multi_additive(D: Callable[[GF2Poly], GF2Poly], max_degree: int) -> bool:
    """The premise of the basis route in ``char2_order_check``: D(0) = 0
    and D(q p) = sum_i p_i D(q x^i) for every p of degree <= max_degree and
    every q that is a product of two such inputs (1 among them).  The
    products q p are built by XOR-ing shifted copies of q, so D is
    evaluated once at each product of at most three inputs and nowhere
    else."""
    n = max_degree + 1
    # products[q][p] = q * p, the index p being the bit mask of p
    products: dict[int, list[int]] = {}
    for a in range(1 << n):
        for q in _span([a << i for i in range(n)]):
            if q not in products:
                products[q] = _span([q << i for i in range(n)])
    value = {w: D(GF2Poly(w)).bits for w in {w for qp in products.values() for w in qp}}
    return all(
        [value[w] for w in qp] == _span([value[qp[1 << i]] for i in range(n)])
        for qp in products.values()
    )


def _span(gens: Sequence[int]) -> list[int]:
    """The XOR of every subset of the bit masks gens, at the index whose
    bit i is set when gens[i] is in the subset."""
    out = [0]
    for g in gens:
        out += [w ^ g for w in out]
    return out


def char2_order_check(
    max_degree: int = 4, D: Callable[[GF2Poly], GF2Poly] | None = None
) -> Char2OrderReport:
    """Check over all F2[x] inputs of degree <= max_degree: additivity of
    D, vanishing of all 2-fold nested defects, and a search for a
    product-rule failure witnessing that D is not a derivation.

    The three are the law scans of ``order_upper_check`` (additivity, the
    2-fold and the 1-fold defect law) on one memo of D, each answered on
    its own; the witness is that of the ordered enumeration (``leibniz``).
    The 2-fold defect is symmetric, and it is additive in each argument
    once D(q p) = sum_i p_i D(q x^i) for every input p and every q that is
    a product of two inputs (``_multi_additive``; q = 1 makes D additive):
    its seven terms evaluate D at q p with q in {y1 y2, y1, y2, 1}.  Given
    that premise, it vanishes on all inputs exactly when it vanishes on the
    multisets of the basis x^0..x^max_degree, 20 of them at degree 3 in
    place of 816.  Without the premise both laws scan every input.
    """
    # one memo for the whole check: every nested defect reuses the values
    D = _Memo(char2_D if D is None else D)
    elems = list(GF2Poly.all_up_to_degree(max_degree))
    defects1 = _defect_law(D, 1, elems)
    if _multi_additive(D, max_degree):
        additive_ok = True
        basis = [GF2Poly.monomial(i) for i in range(max_degree + 1)]
        defects2 = _defect_law(D, 2, basis)
    else:
        additive_ok = _additive_law(D, elems).ok
        defects2 = _defect_law(D, 2, elems)
    return Char2OrderReport(
        max_degree=max_degree,
        additive_ok=additive_ok,
        defects2_vanish=defects2.ok,
        d_of_x=D(GF2Poly.x()),
        d_of_x2=D(GF2Poly.x() ** 2),
        derivation_witness=None if defects1 else (*defects1.witness, defects1.value),
    )


@dataclass(frozen=True)
class Char2ComposeReport:
    a: GF2Poly
    d1_image: GF2Poly
    d2_image: GF2Poly
    max_power: int
    collapse_ok: bool

    @property
    def ok(self) -> bool:
        return self.collapse_ok


def char2_compose_check(
    a: GF2Poly,
    d1_image: GF2Poly | None = None,
    d2_image: GF2Poly | None = None,
    max_power: int = 8,
) -> Char2ComposeReport:
    """Verify that composing two derivations on F2[x] stays first order.

    The derivations are determined by their values on x; when omitted they
    default to d2(x) = x and d1(x) = a, which realizes d1(d2(x)) = a.  The
    check confirms that the composite agrees with p -> a * p' on every
    polynomial of degree <= max_power (so the composite is again a
    derivation: second order collapses to first).  Both sides are
    F2-linear by construction, a derivation p -> p' * h being one, so they
    agree on that span exactly when they agree on its basis, the powers
    x^0..x^max_power: max_power + 1 comparisons, with no premise.
    """
    if d1_image is None and d2_image is None:
        d2_image = GF2Poly.x()
        d1_image = a
    elif d1_image is None or d2_image is None:
        raise ValueError("supply both generator images or neither")
    expected_a = d2_image.formal_derivative() * d1_image
    if expected_a != a:
        raise ValueError(
            f"inconsistent data: d1(d2(x)) = {expected_a}, but a = {a}"
        )
    d1 = _gf2_derivation(d1_image)
    d2 = _gf2_derivation(d2_image)
    collapse_ok = all(
        d1(d2(p)) == p.formal_derivative() * a
        for p in map(GF2Poly.monomial, range(max_power + 1))
    )
    return Char2ComposeReport(
        a=a,
        d1_image=d1_image,
        d2_image=d2_image,
        max_power=max_power,
        collapse_ok=collapse_ok,
    )


# ---------------------------------------------------------------------------
# Product ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairPoly:
    """Element of Q[x] x Q[x] with componentwise operations."""

    first: MultiPoly
    second: MultiPoly

    def __post_init__(self):
        if self.first.k != 1 or self.second.k != 1:
            raise ValueError("components must be univariate")

    @classmethod
    def unit(cls) -> "PairPoly":
        one = MultiPoly.const(1, 1)
        return cls(one, one)

    @property
    def is_zero(self) -> bool:
        return self.first.is_zero and self.second.is_zero

    def __add__(self, other):
        return PairPoly(self.first + other.first, self.second + other.second)

    def __sub__(self, other):
        return PairPoly(self.first - other.first, self.second - other.second)

    def __mul__(self, other):
        return PairPoly(self.first * other.first, self.second * other.second)

    def __pow__(self, n: int):
        return PairPoly(self.first**n, self.second**n)

    def __str__(self):
        return f"({self.first}, {self.second})"


def pair_d1(p: PairPoly) -> PairPoly:
    return PairPoly(p.first.partial(0), MultiPoly.zero(1))


def pair_d2(p: PairPoly) -> PairPoly:
    return PairPoly(MultiPoly.zero(1), p.second.partial(0))


@dataclass(frozen=True)
class ProductRingReport:
    leibniz_ok: bool
    composite_zero_ok: bool
    d1_nonzero_witness: PairPoly
    d2_nonzero_witness: PairPoly
    max_exponent: int

    @property
    def ok(self) -> bool:
        return (
            self.leibniz_ok
            and self.composite_zero_ok
            and not self.d1_nonzero_witness.is_zero
            and not self.d2_nonzero_witness.is_zero
        )


def _composite_vanishes(
    outer: Callable[[PairPoly], PairPoly], inner: Callable[[PairPoly], PairPoly], max_exponent: int
) -> bool:
    """Whether outer(inner(p)) = 0 on the basis elements (x^i, 0) and
    (0, x^j), i, j <= max_exponent, of the pairs of degree <= max_exponent;
    for Q-linear maps that is vanishing on all of them."""
    zero = MultiPoly.zero(1)
    powers = [MultiPoly.monomial(1, (i,)) for i in range(max_exponent + 1)]
    return all(
        outer(inner(p)).is_zero
        for m in powers
        for p in (PairPoly(m, zero), PairPoly(zero, m))
    )


def product_ring_demo(max_exponent: int = 6) -> ProductRingReport:
    """Two nonzero derivations on Q[x] x Q[x] whose composition is zero.

    Verifies the sum and product rules for both component derivations on a
    fixed sample set, as ``order_upper_check`` at order 1 (its unit check
    adds no condition: the unit is sample 0, where the product rule gives
    d(1) = 2 d(1)), then checks d1(d2(.)) = 0 on all monomial pairs
    (x^i, x^j) with i, j <= max_exponent.  Both maps are Q-linear by
    construction, so the composite vanishes on the span of the 2(m + 1)
    basis elements (x^i, 0) and (0, x^j), m = max_exponent, exactly when it
    vanishes on each of them; that span contains every pair (x^i, x^j), so
    the check is made on the basis, 2(m + 1) evaluations in place of
    (m + 1)^2.
    """
    x = MultiPoly.variable(1, 0)
    samples = [
        PairPoly.unit(),
        PairPoly(x, x**3),
        PairPoly(x**2 + 1, x),
        PairPoly(x**2, x**3),
        PairPoly(x + 1, MultiPoly.zero(1)),
        PairPoly(MultiPoly.zero(1), x**2 - x),
    ]
    leibniz_ok = all(order_upper_check(d, 1, samples).ok for d in (pair_d1, pair_d2))
    composite_zero = _composite_vanishes(pair_d1, pair_d2, max_exponent)
    return ProductRingReport(
        leibniz_ok=leibniz_ok,
        composite_zero_ok=composite_zero,
        d1_nonzero_witness=pair_d1(PairPoly(x, MultiPoly.zero(1))),
        d2_nonzero_witness=pair_d2(PairPoly(MultiPoly.zero(1), x)),
        max_exponent=max_exponent,
    )


# ---------------------------------------------------------------------------
# Exact-order composition over Q(t1..tk)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem2Report:
    n: int
    degree: int
    expoly_degree: int
    vanish_ok: bool
    witness: tuple | None  # (x, ys, value) from order_witness
    operator: DiffOp

    @property
    def ok(self) -> bool:
        return (
            self.degree == self.n
            and self.expoly_degree == self.n
            and self.vanish_ok
            and self.witness is not None
            and not self.witness[2].is_zero
        )


def theorem2_demo(derivations: Sequence[Derivation]) -> Theorem2Report:
    """Composition of n nonzero derivations has exact order n.

    Normalizes the composition and reports its canonical degree and the
    degree of its exponent polynomial (both must be n).  Both halves of
    "order n" are proofs, not samples.  Every n-fold nested defect vanishes
    because E kills 1 and has degree <= n: the closed Leibniz form then has
    no term (``vanish_ok``).  An (n-1)-fold nested defect is nonzero at the
    coordinate witness of ``order_witness`` (for n = 1 that nesting is the
    map itself, at a variable).
    """
    if not derivations:
        raise ValueError("need at least one derivation")
    for d in derivations:
        if d.is_zero:
            raise ValueError("all derivations must be nonzero")
    n = len(derivations)
    E = normalize(OpWord.composition(derivations))
    return Theorem2Report(
        n=n,
        degree=E.degree,
        expoly_degree=expoly_degree(exponent_polynomial(E)),
        vanish_ok=E.in_o0 and E.degree <= n,
        witness=order_witness(E),
        operator=E,
    )
