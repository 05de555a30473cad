"""Derivations on Q(t1..tk) and their canonical differential-operator forms.

A derivation is determined by the images of the generators: d = sum_i g_i
d/dt_i with g_i = d(t_i).  It is the first-order canonical operator with no
identity term, so a ``Derivation`` is a ``DiffOp``: it applies, composes,
adds and compares as one.  Formal compositions of derivations (operator
words) are normalized to the canonical shape

    sum over multi-indices a of  c_a * d^a,     c_a in Q(t1..tk),

by repeatedly commuting a partial derivative past a coefficient:
d_i (c . ) = (d_i c) + c d_i.  The degree of a canonical operator is the
largest |a| carrying a nonzero coefficient; the zero operator has degree -1.

A canonical operator also obeys the general Leibniz rule

    E(f*g) = sum over b of E^(b)(f) * d^b g / b!,

with the symbol derivative E^(b) = sum over a >= b of c_a * a!/(a-b)! * d^(a-b)
(Hörmander, The Analysis of Linear Partial Differential Operators I, §1.1).
``derived`` builds E^(b), and ``leibniz_sum`` folds the rule over several
factors, which gives nested defects and iterated differences in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, perm, prod
from operator import add, sub
from typing import Iterable, Sequence

from .exactnum import (
    Monomial,
    MultiPoly,
    RatFunc,
    RatFuncTerms,
    as_ratfunc,
    check_k,
    grlex_key,
    mono_set,
    ratfunc_product_sum,
    unit_index,
    zero_index,
)


class NotInO0Error(ValueError):
    """The operator has an identity component, so it does not kill 1."""


class DiffOp(RatFuncTerms):
    """Canonical differential operator: finite sum of c_a * d^a (``terms`` maps a to c_a)."""

    __slots__ = ()

    @staticmethod
    def identity(k: int, coef=1) -> "DiffOp":
        c = as_ratfunc(k, coef)
        return DiffOp._raw(k, {zero_index(k): c} if c else {})

    @property
    def in_o0(self) -> bool:
        """True when the identity component is absent, i.e. the operator
        annihilates constants."""
        return zero_index(self.k) not in self.terms

    def _term_str(self, alpha: Monomial, c: RatFunc) -> str:
        if not any(alpha):
            return f"({c})"
        body = f"d[{','.join(map(str, alpha))}]"
        return body if c == 1 else f"({c}) * {body}"

    # -- action and composition ----------------------------------------------

    def __call__(self, f: RatFunc) -> RatFunc:
        return apply_diffop(self, f)


class Derivation(DiffOp):
    """Derivation on Q(t1..tk): the first-order operator sum_i g_i d/dt_i,
    with no identity term, given by the generator images g_i = d(t_i).
    Sums, negations and scalings of derivations are derivations; a sum or
    difference with any other ``DiffOp`` is a ``DiffOp``."""

    __slots__ = ()

    def __init__(self, images: Sequence[RatFunc | MultiPoly | int]):
        images = tuple(images)
        if not images:
            raise ValueError("a derivation needs at least one generator image")
        k = len(images)
        super().__init__(k, {unit_index(k, i): g for i, g in enumerate(images)})

    @classmethod
    def coordinate(cls, k: int, index: int) -> "Derivation":
        """The coordinate derivation d/dt_index; ValueError unless
        0 <= index < k."""
        return cls._raw(k, {unit_index(k, index): RatFunc.one(k)})

    @property
    def images(self) -> tuple[RatFunc, ...]:
        """The generator images d(t_1), ..., d(t_k), zeros included."""
        zero = RatFunc.zero(self.k)
        return tuple(self.terms.get(unit_index(self.k, i), zero) for i in range(self.k))

    def __str__(self):
        return "; ".join(f"t{i + 1} -> {g}" for i, g in enumerate(self.images))


class OpWord:
    """Formal sum of scaled composition words of derivations.

    A term (c, (d1, ..., dm)) denotes the map x -> c * d1(d2(... dm(x))).
    The empty word is the identity map, so (c, ()) denotes x -> c*x.
    """

    __slots__ = ("k", "words")

    def __init__(self, k: int, words: Iterable[tuple] = ()):
        terms = []
        for coef, word in words:
            coef = as_ratfunc(k, coef)
            word = tuple(word)
            for d in word:
                if not isinstance(d, Derivation):
                    raise TypeError("word entries must be Derivation values")
                check_k(k, d.k)
            if not coef.is_zero:
                terms.append((coef, word))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "words", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("OpWord is immutable")

    @classmethod
    def composition(cls, derivations: Sequence[Derivation], coef=1) -> "OpWord":
        if not derivations:
            raise ValueError("composition needs at least one derivation")
        k = derivations[0].k
        return cls(k, [(coef, tuple(derivations))])

    def __call__(self, f: RatFunc) -> RatFunc:
        """Apply directly, word by word, without normalizing first."""
        total = RatFunc.zero(self.k)
        for coef, word in self.words:
            g = f
            for d in reversed(word):
                g = d(g)
            total = total + coef * g
        return total

    def __str__(self):
        if not self.words:
            return "0"
        parts = []
        for coef, word in self.words:
            body = " o ".join(f"({d})" for d in word) if word else "(identity)"
            parts.append(body if coef == 1 else f"({coef}) * {body}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _materialize_partial(cache: dict, alpha: Monomial) -> RatFunc:
    """Iterated partial derivative d^alpha of cache[(0,..,0)], memoized in
    `cache`.  Climbs from the zero index, raising the last variable first,
    derives only past cached indices, and stops at the first zero value:
    every higher derivative is zero too, however large alpha is."""
    at = zero_index(len(alpha))
    value = cache[at]
    for i in reversed(range(len(alpha))):
        for e in range(1, alpha[i] + 1):
            if not value:
                return value
            at = mono_set(at, i, e)
            got = cache.get(at)
            if got is None:
                got = cache[at] = value.partial(i)
            value = got
    return value


def apply_diffop(E: DiffOp, f: RatFunc) -> RatFunc:
    """sum_a c_a * d^a f as one ``ratfunc_product_sum`` over the terms, with
    the derivatives d^a f taken along shared chains."""
    check_k(E.k, f.k)
    cache: dict[Monomial, RatFunc] = {zero_index(E.k): f}
    return ratfunc_product_sum(
        f.k, ((1, c, _materialize_partial(cache, alpha)) for alpha, c in E.terms.items())
    )


def compose(E1: DiffOp, E2: DiffOp) -> DiffOp:
    """Canonical form of the composed map E1 after E2.

    By the Leibniz rule d^a (b d^beta) = sum over j <= a of
    C(a, j) * (d^(a-j) b) * d^(beta+j), C(a, j) = prod_i C(a_i, j_i), so
    ``ratfunc_product_sum`` builds each coefficient of the result in one
    call, and the derivatives of each coefficient b of E2 share one chain.

    Over Q(t1..tk) the degree of a composition of nonzero operators is the
    sum of the degrees (top-order parts multiply in an integral domain).
    """
    check_k(E1.k, E2.k)
    k = E1.k
    steps = [
        (c, j, tuple(map(sub, alpha, j)), prod(map(comb, alpha, j)))
        for alpha, c in E1.terms.items()
        for j in product(*(range(e + 1) for e in alpha))
    ]
    items: dict[Monomial, list] = {}
    for beta, b in E2.terms.items():
        chain = {zero_index(k): b}
        for c, j, down, binom in steps:
            db = _materialize_partial(chain, down) if any(down) else b
            items.setdefault(tuple(map(add, beta, j)), []).append((binom, c, db))
    sums = ((gamma, ratfunc_product_sum(k, group)) for gamma, group in items.items())
    return DiffOp._raw(k, {gamma: s for gamma, s in sums if s})


def normalize(w: OpWord) -> DiffOp:
    """Canonical operator equal to the word as a map on Q(t1..tk)."""
    result = DiffOp.zero(w.k)
    for coef, word in w.words:
        acc = DiffOp.identity(w.k)
        for d in reversed(word):
            acc = compose(d, acc)
        result = result + (acc if coef == 1 else acc.scale(coef))
    return result


def derived(E: DiffOp, beta: Monomial, identity: bool = True) -> DiffOp:
    """The symbol derivative E^(beta) = sum over a >= beta of
    c_a * a!/(a-beta)! * d^(a-beta), the operator that the general Leibniz
    rule applies to the first factor.  With identity=False the identity
    term, the one from a = beta, is left out."""
    out = {}
    for a, c in E.terms.items():
        if (identity or a != beta) and all(e >= b for e, b in zip(a, beta)):
            out[tuple(e - b for e, b in zip(a, beta))] = c * prod(map(perm, a, beta))
    return DiffOp._raw(E.k, out)


def leibniz_sum(E: DiffOp, x: RatFunc, ys: Sequence[RatFunc], identity: bool = True) -> RatFunc:
    """sum of E^(s)(x) * prod_i d^(b_i) y_i / b_i! over the ordered tuples
    (b_1..b_m) of nonzero multi-indices with s = b_1+...+b_m and |s| <= top,
    where top is deg E, or deg E - 1 with identity=False: E^(s) for
    |s| = deg E is then the left-out identity term, and zero.

    E^(s) is zero unless s lies below the support of E, so only those s are
    enumerated.  The tuples are folded by their partial sums one y at a
    time, so each E^(s)(x) is one evaluation whatever the number of tuples
    summing to s, and a weight 1/b! is formed only where d^b y is nonzero.
    Every b_i has |b_i| >= 1, so with m > top there is no tuple: the sum is
    zero and costs no arithmetic."""
    k = E.k
    for z in (x, *ys):
        check_k(k, z.k)
    m = len(ys)
    top = E.degree if identity else E.degree - 1
    if m > top:
        return RatFunc.zero(k)
    below = {
        b
        for a in E.terms
        for b in product(*(range(e + 1) for e in a))
        if 0 < sum(b) <= top
    }
    steps = sorted(below, key=grlex_key)
    weights = {zero_index(k): RatFunc.one(k)}
    for i, y in enumerate(ys):
        room = top - (m - 1 - i)  # each later factor takes at least 1
        tower = {zero_index(k): y}
        # grlex order, kept for the break below
        derivs = ((b, _materialize_partial(tower, b)) for b in steps if sum(b) <= room - i)
        taylor = [(b, Fraction(1, prod(map(factorial, b))), d) for b, d in derivs if d]
        out: dict = {}
        for s, w in weights.items():
            for b, inv, d in taylor:
                t = tuple(map(add, s, b))
                if sum(t) > room:
                    break
                if t in below:
                    out.setdefault(t, []).append((inv, w, d))
        weights = {t: ratfunc_product_sum(k, group) for t, group in out.items()}
    return ratfunc_product_sum(
        k, ((1, apply_diffop(derived(E, s, identity), x), w) for s, w in weights.items() if w)
    )
