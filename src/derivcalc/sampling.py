"""Seeded generation of small exact values for property tests and demos.

Everything here is driven by an explicit ``random.Random`` so that failures
are reproducible from a single integer seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .exactnum import MultiPoly, RatFunc, monomials_up_to
from .deriv import Derivation, DiffOp

DEFAULT_SEED = 1729


def random_multipoly(
    rng: Random,
    k: int,
    max_degree: int = 2,
    bound: int = 3,
    nonzero: bool = False,
) -> MultiPoly:
    """Polynomial with integer coefficients drawn from {-bound..bound} on
    every monomial of total degree <= max_degree."""
    while True:
        terms = {}
        for mono in monomials_up_to(k, max_degree):
            c = rng.randint(-bound, bound)
            if c:
                terms[mono] = Fraction(c)
        p = MultiPoly(k, terms)
        if not nonzero or not p.is_zero:
            return p


def random_sparse_poly(
    rng: Random,
    k: int,
    max_degree: int = 3,
    bound: int = 3,
    max_terms: int = 2,
) -> MultiPoly:
    """Nonzero polynomial with very few terms; keeps products small."""
    nterms = rng.randint(1, max_terms)
    terms = {}
    while len(terms) < nterms:
        mono = tuple(rng.randint(0, max_degree) for _ in range(k))
        if sum(mono) > max_degree:
            continue
        c = rng.randint(1, bound) * rng.choice((-1, 1))
        terms[mono] = Fraction(c)
    return MultiPoly(k, terms)


def random_sparse_ratfunc(rng: Random, k: int, max_degree: int = 3) -> RatFunc:
    return RatFunc.from_poly(random_sparse_poly(rng, k, max_degree))


def random_ratfunc(
    rng: Random,
    k: int,
    max_degree: int = 2,
    bound: int = 3,
    den_style: str = "mixed",
) -> RatFunc:
    """Rational function of small height.

    den_style: "one" for polynomials, "monomial" for monomial denominators,
    "poly" for small polynomial denominators, "mixed" to pick per call.
    """
    num = random_multipoly(rng, k, max_degree, bound)
    if den_style == "mixed":
        den_style = rng.choice(("one", "one", "monomial", "poly"))
    if den_style == "one":
        return RatFunc.from_poly(num)
    if den_style == "monomial":
        mono = tuple(rng.randint(0, 2) for _ in range(k))
        return RatFunc(num, MultiPoly.monomial(k, mono))
    den = random_multipoly(rng, k, max_degree=1, bound=bound, nonzero=True)
    return RatFunc(num, den)


def random_derivation(
    rng: Random, k: int, max_degree: int = 2, bound: int = 3
) -> Derivation:
    """Nonzero derivation with polynomial generator images."""
    while True:
        images = [
            RatFunc.from_poly(random_multipoly(rng, k, max_degree, bound))
            for _ in range(k)
        ]
        d = Derivation(images)
        if not d.is_zero:
            return d


def random_diffop(
    rng: Random,
    k: int,
    degree: int,
    in_o0: bool = True,
    exact_degree: bool = True,
    den_style: str = "mixed",
    fill: float = 0.6,
) -> DiffOp:
    """Random canonical operator of degree (at most, or exactly) `degree`."""
    indices = [
        a for a in monomials_up_to(k, degree) if sum(a) > 0 or not in_o0
    ]
    top = [a for a in indices if sum(a) == degree]
    coeffs = {}
    for a in indices:
        if rng.random() < fill:
            c = random_ratfunc(rng, k, max_degree=2, den_style=den_style)
            if not c.is_zero:
                coeffs[a] = c
    if exact_degree and top and not any(a in coeffs for a in top):
        a = rng.choice(top)
        coeffs[a] = _nonzero_ratfunc(rng, k, den_style)
    return DiffOp(k, coeffs)


def _nonzero_ratfunc(rng: Random, k: int, den_style: str) -> RatFunc:
    while True:
        c = random_ratfunc(rng, k, max_degree=2, den_style=den_style)
        if not c.is_zero:
            return c


def random_defect_tuple(rng: Random, k: int, size: int) -> tuple[RatFunc, ...]:
    """Tuple of nonzero sparse polynomials for nested-defect sampling."""
    return tuple(random_sparse_ratfunc(rng, k) for _ in range(size))
