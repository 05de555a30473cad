"""Exact arithmetic: Q, sparse multivariate polynomials over Q, and the
rational function field Q(t1, ..., tk).

Representation choices:

* Rationals are ``fractions.Fraction`` (always reduced, denominator >= 1).
* A monomial (multi-index) is a tuple of k nonnegative integer exponents.
  ``zero_index``, ``unit_index``, ``mono_set`` and ``monomials_up_to``
  build, edit and enumerate multi-indices, ``mono_str`` prints one,
  ``add_terms`` accumulates (index, coefficient) pairs into a term map,
  drops zero sums and keeps integral ones int, ``check_k`` and
  ``as_ratfunc`` guard and coerce operands.  Index arithmetic (the sum or
  difference of two tuples) is plain tuple code where it is needed, as in
  ``deriv.compose``, ``derived``, ``leibniz_sum`` and ``ExpPoly *``.
  ``TermMap`` is the one owner of the term-map class code (validation,
  immutability, linear structure, equality, hashing and evaluation);
  ``MultiPoly`` and ``RatFuncTerms`` (the core of ``DiffOp`` and
  ``ExpPoly``, coefficients in Q(t1..tk)) subclass it.  ``product_sum``,
  the one accumulate loop of polynomial products, builds a sum of products
  in one ``MultiPoly`` term map (``MultiPoly *`` is its one-pair form), and
  ``ratfunc_product_sum`` runs it on RatFunc numerators grouped by
  denominator (``RatFunc *`` is its one-item form).  Other modules call
  these instead of writing accumulate loops of their own.
* Packed monomials.  ``MultiPoly`` alone stores each monomial as one int:
  with k variables and fields of W = 32 bits, t1^e1...tk^ek is
  ``deg << k*W | e1 << (k-1)*W | ... | ek``, deg = e1 + ... + ek (after
  Monagan & Pearce, CASC 2007).  Int order is graded-lex order, a monomial
  product is one int add, and t_v^e is ``e * unit`` for the packed t_v.
  Every stored total degree stays below 2^(W-1) = 2^31, the exponent limit:
  packing a tuple or multiplying past it raises ValueError, so a sum of two
  keys never carries from one field into the next and the top bit of each
  field is free as a borrow guard for divisibility tests.  ``DiffOp`` and
  ``ExpPoly`` keep plain tuple keys, with no limit.  The packed form is
  private: the ``terms`` map of a ``MultiPoly`` holds packed ints, while
  the constructors, ``leading_term()``, ``sorted_terms()``, ``degree_in``,
  evaluation and printing take and give tuples.
* ``MultiPoly`` maps monomials to nonzero exact rational coefficients; the
  zero polynomial has an empty term map.  Integral coefficients are stored
  as plain int (hash- and equality-compatible with Fraction, and much
  faster), everything else as Fraction.  The monomial order used everywhere
  (printing, leading terms, denominator normalization) is graded
  lexicographic: compare total degree first, then the exponent tuple.
* ``RatFunc`` is a quotient num/den of two MultiPoly values kept in canonical
  form: gcd(num, den) = 1 and den monic (graded-lex leading coefficient 1).
  Equality of canonical forms is structural equality.
* ``GF2Poly`` is a univariate polynomial over the two-element field, stored
  as an integer bit mask (bit i = coefficient of x^i).

All values are immutable; all operations return fresh values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

Monomial = tuple  # tuple[int, ...], one exponent per variable


class DimensionMismatchError(ValueError):
    """Operands live over different numbers of variables."""


class InexactDivisionError(ValueError):
    """A polynomial division that must be exact left a remainder."""


class PoleError(ZeroDivisionError):
    """The denominator vanishes at the evaluation point."""


def grlex_key(mono: Monomial):
    """Sort key realizing the graded-lexicographic order."""
    return (sum(mono), mono)


def zero_index(k: int) -> Monomial:
    """The multi-index (0, ..., 0)."""
    return (0,) * k


def unit_index(k: int, i: int) -> Monomial:
    """The multi-index with 1 in position i and 0 elsewhere."""
    if not 0 <= i < k:
        raise ValueError(f"variable index {i} out of range for k={k}")
    return (0,) * i + (1,) + (0,) * (k - i - 1)


def mono_set(mono: Monomial, i: int, e: int) -> Monomial:
    """Copy of the multi-index with entry i replaced by e."""
    m = list(mono)
    m[i] = e
    return tuple(m)


def monomials_up_to(k: int, degree: int) -> Iterator[Monomial]:
    """The multi-indices of total degree <= `degree`, in lex order."""
    return (m for m in product(range(degree + 1), repeat=k) if sum(m) <= degree)


def mono_str(mono: Monomial, letter: str) -> str:
    """Product of powers such as ``t1^2*t3``; empty for the zero index."""
    return "*".join(
        f"{letter}{i + 1}^{e}" if e > 1 else f"{letter}{i + 1}"
        for i, e in enumerate(mono)
        if e
    )


def add_terms(out: dict, items: Iterable) -> dict:
    """Add (index, coefficient) pairs into the term map `out` in place,
    dropping entries whose sum is zero and storing an integral sum of
    Fractions as int; returns `out`.  Works for any coefficient type whose
    truth value means "nonzero" (rationals and RatFunc alike)."""
    for key, c in items:
        s = out.get(key)
        if s is not None:
            c = s + c
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def check_k(a: int, b: int) -> None:
    """Raise DimensionMismatchError unless two variable counts agree."""
    if a != b:
        raise DimensionMismatchError(f"mixed variable counts: {a} vs {b}")


# Packed keys: a field of _W bits per exponent under a field for the total
# degree; degrees (so exponents) stay below _LIMIT, which keeps the top bit
# of every field clear.
_W = 32
_FIELD = (1 << _W) - 1
_LIMIT = 1 << (_W - 1)


def _degree_limit(deg: int) -> ValueError:
    return ValueError(f"total degree {deg} exceeds the exponent limit {_LIMIT - 1}")


def _pack(k: int, mono: Monomial) -> int:
    """The packed key of a checked exponent tuple."""
    deg = sum(mono)
    if deg >= _LIMIT:
        raise _degree_limit(deg)
    key = deg
    for e in mono:
        key = key << _W | e
    return key


def _unpack(k: int, key: int) -> Monomial:
    return tuple((key >> (k - 1 - i) * _W) & _FIELD for i in range(k))


def _field(k: int, var: int) -> int:
    """Bit offset of variable var's exponent in a packed key."""
    if not 0 <= var < k:
        raise ValueError(f"variable index {var} out of range for k={k}")
    return (k - 1 - var) * _W


def _unit(k: int, var: int) -> int:
    """The packed key of t_var, degree field included."""
    return 1 << k * _W | 1 << _field(k, var)


def _guard(k: int) -> int:
    """The top bit of every exponent field: a key difference m - d has none
    of them set exactly when d divides m."""
    return ((1 << k * _W) - 1) // _FIELD << (_W - 1)


# Coefficients are stored as plain int whenever they are integral and as
# Fraction otherwise; the two interoperate exactly (ints satisfy the
# Rational protocol and hash consistently with Fraction), and integer
# arithmetic avoids Fraction's per-operation gcd normalization.


def _as_coeff(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _coeff_div(a, b):
    """Exact coefficient quotient a/b as int or Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return _as_coeff(Fraction(a) / Fraction(b))


def _power(base, n: int, one):
    """base**n (n >= 0) by square-and-multiply, starting from `one`."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def product_sum(k: int, items: Iterable) -> "MultiPoly":
    """The sum of c * p * q over (c, p, q) items, c rational and p, q
    MultiPoly over k variables, built in one packed term map (Johnson,
    SIGSAM Bulletin 1974).  A zero sum is deleted on the spot and integral
    rationals are stored as int."""
    out: dict = {}
    get = out.get
    for c, p, q in items:
        check_k(k, p.k)
        check_k(k, q.k)
        if not c:
            continue
        a, b = p.terms, q.terms
        if len(a) > len(b):
            a, b = b, a
        for ma, ca in a.items():
            if c != 1:
                ca = c * ca
            for mb, cb in b.items():
                mono = ma + mb
                s = get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    # exponents below the limit never carry: only the degree field can pass it
    if out and max(out) >> k * _W >= _LIMIT:
        raise _degree_limit(max(out) >> k * _W)
    # a sum of ints is an int, so one sum tells whether a Fraction is present
    if type(sum(out.values())) is not int:
        out = {mono: _as_coeff(s) for mono, s in out.items()}
    return MultiPoly._raw(k, out)


class TermMap:
    """Shared core of a sparse map from multi-indices of length k to nonzero
    coefficients: validation, immutability, linear structure, equality,
    hashing and evaluation.  A subclass coerces coefficients through
    ``_coeff(k, c)``, stores a checked exponent tuple as the key
    ``_key(k, mono)`` and reads it back with ``_mono(k, key)`` (the tuple
    itself here, a packed int in ``MultiPoly`` alone), and names its index
    in error messages through ``_index_word``.  Values of two unrelated
    subclasses never add or compare equal; when one class derives from the
    other (a ``Derivation`` is a ``DiffOp``) they mix as values of the more
    general class, which a sum or difference takes."""

    __slots__ = ("k", "terms", "_hash")

    _index_word = "multi-index"

    @staticmethod
    def _key(k: int, mono: Monomial):
        return mono

    @staticmethod
    def _mono(k: int, key) -> Monomial:
        return key

    def __init__(self, k: int, terms: Mapping[Monomial, object] | None = None):
        if k < 0:
            raise ValueError("variable count must be nonnegative")
        clean: dict = {}
        if terms:
            for mono, c in terms.items():
                mono = tuple(mono)
                if len(mono) != k or any(e < 0 for e in mono):
                    raise ValueError(f"bad {self._index_word} {mono} for k={k}")
                c = self._coeff(k, c)
                if c:
                    clean[self._key(k, mono)] = c
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, k: int, terms: dict):
        """Internal constructor; `terms` must already be canonical and owned."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, k: int):
        return cls._raw(k, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Largest |a| carrying a nonzero coefficient; -1 when empty."""
        if not self.terms:
            return -1
        return max(sum(self._mono(self.k, a)) for a in self.terms)

    def _common(self, other):
        """The more general class of self and other when one derives from
        the other, else None."""
        if isinstance(other, type(self)):
            return type(self)
        if isinstance(self, type(other)):
            return type(other)
        return None

    # each operation tests for the same class first, which costs no call

    def __add__(self, other):
        cls = type(self)
        if type(other) is not cls:
            cls = self._common(other)
            if cls is None:
                return NotImplemented
        check_k(self.k, other.k)
        return cls._raw(self.k, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._raw(self.k, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        cls = type(self)
        if type(other) is not cls:
            cls = self._common(other)
            if cls is None:
                return NotImplemented
        check_k(self.k, other.k)
        negated = ((a, -c) for a, c in other.terms.items())
        return cls._raw(self.k, add_terms(dict(self.terms), negated))

    def __eq__(self, other):
        if type(other) is not type(self) and self._common(other) is None:
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.k, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, {str(self)!r})"

    def _at(self, point: Sequence, zero):
        """Sum of c * prod(v^e) over the terms, at a point of k values."""
        if len(point) != self.k:
            raise DimensionMismatchError(
                f"point has {len(point)} entries, expected {self.k}"
            )
        total = zero
        for key, c in self.terms.items():
            for e, v in zip(self._mono(self.k, key), point):
                if e:
                    c = c * v**e
            total = total + c
        return total


class MultiPoly(TermMap):
    """Sparse polynomial in k variables with rational coefficients, keyed by
    packed monomials (see the module docstring)."""

    __slots__ = ()

    _index_word = "monomial"
    _key = staticmethod(_pack)
    _mono = staticmethod(_unpack)

    @staticmethod
    def _coeff(k: int, c):
        return _as_coeff(c)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, k: int, value) -> "MultiPoly":
        c = _as_coeff(value)
        return cls._raw(k, {0: c} if c else {})

    @classmethod
    def variable(cls, k: int, index: int) -> "MultiPoly":
        return cls._raw(k, {_unit(k, index): 1})

    @classmethod
    def monomial(cls, k: int, exponents: Sequence[int], coef=1) -> "MultiPoly":
        return cls(k, {tuple(exponents): _as_coeff(coef)})

    # -- queries -----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get(0, 0))

    def degree_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        s = _field(self.k, var)
        if not self.terms:
            return -1
        return max((m >> s) & _FIELD for m in self.terms)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """(monomial, coefficient) that is largest in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms)
        return _unpack(self.k, mono), self.terms[mono]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order."""
        return [(_unpack(self.k, m), self.terms[m]) for m in sorted(self.terms, reverse=True)]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.k, other)
        return TermMap.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.k, other)
        return TermMap.__sub__(self, other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is MultiPoly:
            return product_sum(self.k, ((1, self, other),))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = _as_coeff(c)
        if not c:
            return MultiPoly.zero(self.k)
        if type(c) is int:
            return MultiPoly._raw(self.k, {m: coef * c for m, coef in self.terms.items()})
        return MultiPoly._raw(
            self.k, {m: _as_coeff(coef * c) for m, coef in self.terms.items()}
        )

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        return _power(self, n, MultiPoly.const(self.k, 1))

    # -- calculus and evaluation --------------------------------------------

    def partial(self, var: int) -> "MultiPoly":
        """Partial derivative with respect to variable `var`."""
        # lowering one exponent is injective, so no two terms collide
        s, u = _field(self.k, var), _unit(self.k, var)
        out = {}
        for m, c in self.terms.items():
            e = (m >> s) & _FIELD
            if e:
                out[m - u] = c * e if type(c) is int else _as_coeff(c * e)
        return MultiPoly._raw(self.k, out)

    def __call__(self, point: Sequence) -> Fraction:
        return self._at([_as_coeff(v) for v in point], Fraction(0))

    # -- division ----------------------------------------------------------

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises InexactDivisionError (a
        ValueError) when not divisible."""
        check_k(self.k, divisor.k)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return self
        if divisor.is_constant:
            return self.scale(1 / divisor.constant_value())
        guard = _guard(self.k)
        if divisor.is_monomial:
            dm, dc = next(iter(divisor.terms.items()))
            out = {}
            for mono, coef in self.terms.items():
                qm = mono - dm
                if qm & guard:
                    raise InexactDivisionError("not exactly divisible")
                out[qm] = _coeff_div(coef, dc)
            return MultiPoly._raw(self.k, out)
        dm = max(divisor.terms)
        dc = divisor.terms[dm]
        rem = dict(self.terms)
        quot: dict[int, Fraction] = {}
        while rem:
            mono = max(rem)
            qm = mono - dm
            if qm & guard:
                raise InexactDivisionError("not exactly divisible")
            qc = _coeff_div(rem[mono], dc)
            quot[qm] = qc
            add_terms(rem, ((m + qm, -c * qc) for m, c in divisor.terms.items()))
        return MultiPoly._raw(self.k, quot)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    # -- content and primitive part ------------------------------------------

    def rational_content(self) -> Fraction:
        """Signed rational c with self = c * (integer-primitive, positive-lead
        polynomial); 0 for the zero polynomial."""
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for coef in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(coef.numerator))
            den_lcm = den_lcm * coef.denominator // math.gcd(den_lcm, coef.denominator)
        content = Fraction(num_gcd, den_lcm)
        return content if self.terms[max(self.terms)] > 0 else -content

    def primitive(self) -> "MultiPoly":
        """Integer-primitive associate with positive leading coefficient."""
        if not self.terms:
            return self
        return self.scale(1 / self.rational_content())

    # -- comparison, hashing, printing ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        return TermMap.__eq__(self, other)

    __hash__ = TermMap.__hash__

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for mono, coef in self.sorted_terms():
            body = mono_str(mono, "t")
            mag = abs(coef)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not chunks:
                chunks.append(text if coef > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if coef > 0 else f"- {text}")
        return " ".join(chunks)


# ---------------------------------------------------------------------------
# Polynomial gcd over Q[t1..tk]
# ---------------------------------------------------------------------------
#
# Strategy: zero, constant, equal and monomial inputs take direct paths; a
# heuristic evaluation gcd comes next, and the fallback is the primitive
# polynomial remainder sequence in the lowest variable present (Knuth, TAOCP
# vol. 2, 4.6.1): split off each side's content in that variable, then take
# pseudo-remainders and divide each one by its own content.


def _vars_present(p: MultiPoly) -> set[int]:
    bits = 0
    for mono in p.terms:
        bits |= mono
    return {v for v in range(p.k) if (bits >> _field(p.k, v)) & _FIELD}


def _coeffs_wrt(p: MultiPoly, v: int) -> dict[int, MultiPoly]:
    """View p as univariate in variable v: exponent -> coefficient polynomial
    (with the v-exponent zeroed in the coefficient's monomials)."""
    s, u = _field(p.k, v), _unit(p.k, v)
    slices: dict[int, dict[int, Fraction]] = {}
    for mono, coef in p.terms.items():
        e = (mono >> s) & _FIELD
        slices.setdefault(e, {})[mono - e * u] = coef
    return {e: MultiPoly._raw(p.k, t) for e, t in slices.items()}


def _prem(a: MultiPoly, b: MultiPoly, v: int) -> MultiPoly:
    """A pseudo-remainder of a by b with respect to variable v: the r of
    degree in v below b's with lead(b)^e * a = q * b + r, where e is the
    number of reduction steps taken."""
    db = b.degree_in(v)
    lcb = _coeffs_wrt(b, v)[db]
    u = _unit(a.k, v)
    r = a
    while r and (dr := r.degree_in(v)) >= db:
        shifted = _coeffs_wrt(r, v)[dr] * MultiPoly._raw(a.k, {(dr - db) * u: 1})
        r = product_sum(a.k, ((1, r, lcb), (-1, shifted, b)))
    return r


def _content_wrt(p: MultiPoly, v: int) -> MultiPoly:
    """The gcd of p's coefficients in variable v, smallest ones first: the
    gcd of a small one is cheap and often 1 at once."""
    g = MultiPoly.zero(p.k)
    for coef in sorted(_coeffs_wrt(p, v).values(), key=lambda c: len(c.terms)):
        g = poly_gcd(g, coef)
        if g.is_constant and not g.is_zero:
            break
    return g


def _poly_height(p: MultiPoly) -> int:
    return max(abs(c.numerator) for c in p.terms.values())


def _eval_var(p: MultiPoly, v: int, xi: int) -> MultiPoly:
    """Substitute the integer xi for variable v."""
    powers = [1] * (p.degree_in(v) + 1)
    for e in range(1, len(powers)):
        powers[e] = powers[e - 1] * xi
    s, u = _field(p.k, v), _unit(p.k, v)
    items = []
    for m, c in p.terms.items():
        e = (m >> s) & _FIELD
        items.append((m - e * u, c * powers[e]))
    return MultiPoly._raw(p.k, add_terms({}, items))


def _interpolate_var(g: MultiPoly, v: int, xi: int) -> MultiPoly:
    """Invert _eval_var: read balanced base-xi digits off the coefficients."""
    terms: dict[int, Fraction] = {}
    u = _unit(g.k, v)
    half = xi // 2
    e = 0
    current = {m: c for m, c in g.terms.items()}
    while current:
        nxt = {}
        for mono, c in current.items():
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                terms[mono + e * u] = digit
            rest = (c - digit) // xi
            if rest:
                nxt[mono] = rest
        current = nxt
        e += 1
    return MultiPoly._raw(g.k, terms)


def _int_content(p: MultiPoly) -> int:
    return math.gcd(*(c.numerator for c in p.terms.values()))


def _heugcd(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Heuristic gcd by evaluation at a large integer, balanced-digit
    reconstruction, and verification by exact division.

    Inputs must be nonzero with integer coefficients; the result includes
    the integer content gcd.  Returns None when six attempts fail, and
    ``poly_gcd`` falls back to the primitive remainder sequence
    (``_prs_gcd``)."""
    ca, cb = _int_content(a), _int_content(b)
    c = math.gcd(ca, cb)
    if ca != 1:
        a = a.scale(Fraction(1, ca))
    if cb != 1:
        b = b.scale(Fraction(1, cb))
    used = _vars_present(a) | _vars_present(b)
    if not used:
        return MultiPoly.const(a.k, c)
    v = min(used)
    xi = 2 * min(_poly_height(a), _poly_height(b)) + 2
    for _ in range(6):
        ga = _eval_var(a, v, xi)
        gb = _eval_var(b, v, xi)
        if not (ga.is_zero or gb.is_zero):
            h = _heugcd(ga, gb)
            if h is not None:
                cand = _interpolate_var(h, v, xi).primitive()
                if not cand.is_zero and cand.divides(a) and cand.divides(b):
                    return cand if c == 1 else cand.scale(c)
        xi = xi * 73794 // 27011 + 5
    return None


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor in Q[t1..tk], normalized to be
    integer-primitive with positive graded-lex leading coefficient.

    gcd(0, b) is the normalized b; gcd of two nonzero constants is 1.
    """
    check_k(a.k, b.k)
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    if a.is_constant or b.is_constant:
        return MultiPoly.const(a.k, 1)
    if a.terms == b.terms:
        return a.primitive()
    if a.is_monomial or b.is_monomial:
        # the gcd is the monomial of the least exponent of each variable:
        # one pass of fieldwise minima over the exponent fields, from the
        # monomial's own, that stops once every minimum is 0
        if b.is_monomial:
            a, b = b, a
        k = a.k
        body = (1 << k * _W) - 1
        guard = _guard(k)
        low = max(a.terms) & body
        for m in b.terms:
            m &= body
            # the guard bit of a field survives (low | guard) - m exactly
            # where low >= m there; spread it to the whole field
            ge = (((low | guard) - m) & guard) >> (_W - 1)
            low ^= (low ^ m) & (ge * _FIELD)
            if not low:
                return MultiPoly._raw(k, {0: 1})
        # the total degree is the top field of low * (1 + 2^W + ...): the
        # sum of its exponents stays below the limit, so no field carries
        deg = (low * (guard >> (_W - 1)) >> (k - 1) * _W) & _FIELD
        return MultiPoly._raw(k, {deg << k * _W | low: 1})
    # drop rational content up front: the result is primitive either way and
    # everything downstream then runs on integer coefficients
    a = a.primitive()
    b = b.primitive()
    heur = _heugcd(a, b)
    if heur is not None:
        return heur
    return _prs_gcd(a, b)


def _prs_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Remainder-sequence gcd route: the gcd of the contents in the lowest
    variable v present, times the gcd of the primitive parts by the primitive
    remainder sequence in v.  A remainder of degree 0 in v leaves the
    primitive parts coprime; a zero one leaves the last divisor as their gcd.
    Below b's degree in v, a is its own first remainder, so the loop swaps
    the sides itself.  Inputs must be nonzero, non-constant, non-monomial."""
    v = min(_vars_present(a) | _vars_present(b))
    ca, cb = _content_wrt(a, v), _content_wrt(b, v)
    cg = poly_gcd(ca, cb)
    a, b = a.exact_div(ca), b.exact_div(cb)
    while True:
        r = _prem(a, b, v)
        if not r:
            return (cg * b).primitive()
        if not r.degree_in(v):
            return cg
        a, b = b, r.exact_div(_content_wrt(r, v)).primitive()


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Element of Q(t1..tk) in canonical form: reduced fraction with monic
    denominator.  Structural equality of canonical forms is field equality."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.k, 1)
        check_k(num.k, den.k)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num = MultiPoly.zero(num.k)
            den = MultiPoly.const(num.k, 1)
        else:
            if not den.is_constant:
                g = poly_gcd(num, den)
                if not g.is_constant:  # a side that is g itself leaves the quotient 1
                    num = MultiPoly.const(g.k, 1) if g.terms == num.terms else num.exact_div(g)
                    den = MultiPoly.const(g.k, 1) if g.terms == den.terms else den.exact_div(g)
            num, den = _monic(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _raw(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """Internal constructor for pairs already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, k: int, value) -> "RatFunc":
        return cls._raw(MultiPoly.const(k, value), MultiPoly.const(k, 1))

    @classmethod
    def zero(cls, k: int) -> "RatFunc":
        return cls._raw(MultiPoly.zero(k), MultiPoly.const(k, 1))

    @classmethod
    def one(cls, k: int) -> "RatFunc":
        return cls.const(k, 1)

    @classmethod
    def variable(cls, k: int, index: int) -> "RatFunc":
        return cls._raw(MultiPoly.variable(k, index), MultiPoly.const(k, 1))

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFunc":
        return cls._raw(p, MultiPoly.const(p.k, 1))

    # -- queries -----------------------------------------------------------

    @property
    def k(self) -> int:
        return self.num.k

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- field operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, MultiPoly, RatFunc)):
            return as_ratfunc(self.k, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.terms == d2.terms:
            return RatFunc._raw(n1 + n2, d1) if d1.is_constant else RatFunc(n1 + n2, d1)
        # with g = gcd(d1, d2) and t = n1*(d2/g) + n2*(d1/g), the only factors
        # left to cancel out of t / (d1*(d2/g)) divide g, so one small gcd
        # finishes the job; when d1 or d2 is 1, so is g
        g = d1 if d1.is_constant else d2 if d2.is_constant else poly_gcd(d1, d2)
        if g.is_constant:
            r1, r2 = d1, d2
        else:  # a denominator that is g itself leaves the quotient 1
            one = MultiPoly.const(self.k, 1)
            r1 = one if g.terms == d1.terms else d1.exact_div(g)
            r2 = one if g.terms == d2.terms else d2.exact_div(g)
        t = product_sum(self.k, ((1, n1, r2), (1, n2, r1)))
        if t.is_zero:
            return RatFunc.zero(self.k)
        g2 = g if g.is_constant else poly_gcd(t, g)
        if not g2.is_constant:
            t, d1 = t.exact_div(g2), d1.exact_div(g2)
        return RatFunc._raw(*_monic(t, d1 * r2))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RatFunc.zero(self.k)
            return RatFunc._raw(self.num.scale(other), self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ratfunc_product_sum(self.k, ((1, self, other),))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RatFunc._raw(*_monic(self.den, self.num))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("power must be an integer")
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return RatFunc.one(self.k)
        # num and den stay coprime under powers, den stays monic
        return RatFunc._raw(self.num**n, self.den**n)

    # -- calculus and evaluation --------------------------------------------

    def partial(self, var: int) -> "RatFunc":
        """Partial derivative (quotient rule in canonical form).

        Uses (n/d)' = (n'(d/g) - n(d'/g)) / (d * d/g) with g = gcd(d, d'),
        which keeps denominator growth linear under iterated derivatives
        instead of squaring it before the gcd pass."""
        if self.den.is_constant:
            return RatFunc._raw(self.num.partial(var), self.den)
        dnum = self.num.partial(var)
        dden = self.den.partial(var)
        if dden.is_zero:
            return RatFunc(dnum, self.den)
        g = poly_gcd(self.den, dden)
        dg = self.den.exact_div(g)
        num = product_sum(self.k, ((1, dnum, dg), (-1, self.num, dden.exact_div(g))))
        return RatFunc(num, self.den * dg)

    def __call__(self, point: Sequence) -> Fraction:
        dv = self.den(point)
        if not dv:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        return self.num(point) / dv

    # -- comparison, hashing, printing ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.den.is_constant and self.num == other
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.den.is_constant:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc(k={self.k}, {str(self)!r})"


def _monic(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Scale num/den so that den (nonzero) is monic in graded-lex order; a
    constant den becomes 1."""
    lead = den.terms[max(den.terms)]
    if lead != 1:
        inv = Fraction(1) / lead
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def as_ratfunc(k: int, value) -> RatFunc:
    """Coerce a rational, MultiPoly or RatFunc to a RatFunc over k variables."""
    if isinstance(value, RatFunc):
        check_k(k, value.k)
        return value
    if isinstance(value, MultiPoly):
        check_k(k, value.k)
        return RatFunc.from_poly(value)
    return RatFunc.const(k, value)


def monomial_lcm_sum(k: int, items: list) -> tuple:
    """(N, t^A) with N / t^A the sum of c * p / t^a over (c, a, p) items, a
    an exponent tuple and p a MultiPoly over k variables.  The lcm of the
    monomials is free: A is the componentwise maximum of the a, and N sums
    each c * p shifted by t^(A-a) in one ``product_sum`` (Geddes, Czapor &
    Labahn, *Algorithms for Computer Algebra*, ch. 2)."""
    top = _pack(k, tuple(map(max, zip(*(a for _, a, _ in items)))))
    num = product_sum(k, ((c, MultiPoly._raw(k, {top - _pack(k, a): 1}), p) for c, a, p in items))
    return num, MultiPoly._raw(k, {top: 1})


def ratfunc_product_sum(k: int, items: Iterable) -> RatFunc:
    """The RatFunc sum of c * f * g over (c, f, g) items, c rational and f, g
    RatFunc over k variables.  Products whose denominators pair alike share
    one ``product_sum`` numerator: over 1 and 1 it is the sum itself, with
    no gcd, and over (d1, d2) it takes one canonical form over d1 * d2, or
    over the other denominator when one of them is 1.

    When two or more groups have monomial denominators (1 included), their
    numerators go over the lcm of the monomial products in one
    ``monomial_lcm_sum`` and take one canonical form.  RatFunc addition runs
    only against the groups with other denominators; a single group keeps
    the path above."""
    groups: dict = {}
    for c, f, g in items:
        if f.num.terms and g.num.terms:
            groups.setdefault((f.den, g.den), []).append((c, f.num, g.num))
    total = None
    if len(groups) > 1:
        merged = [key for key in groups if key[0].is_monomial and key[1].is_monomial]
        if len(merged) > 1:
            summed = []
            for d1, d2 in merged:
                m = _unpack(k, max(d1.terms) + max(d2.terms))
                summed.append((1, m, product_sum(k, groups.pop((d1, d2)))))
            total = RatFunc(*monomial_lcm_sum(k, summed))
    for (d1, d2), group in groups.items():
        num = product_sum(k, group)
        den = d2 if d1.is_constant else d1 if d2.is_constant else d1 * d2
        part = RatFunc._raw(num, den) if den.is_constant else RatFunc(num, den)
        total = part if total is None else total + part
    return RatFunc.zero(k) if total is None else total


class RatFuncTerms(TermMap):
    """Term map from exponent tuples to coefficients in Q(t1..tk), the core
    of ``DiffOp`` and ``ExpPoly``.  Subclasses give the meaning of the index
    and print a term through ``_term_str``."""

    __slots__ = ()

    _coeff = staticmethod(as_ratfunc)

    def sorted_terms(self) -> list[tuple[Monomial, RatFunc]]:
        """Terms in ascending graded-lex order of the index."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def scale(self, c):
        c = as_ratfunc(self.k, c)
        if not c:
            return self.zero(self.k)
        return self._raw(self.k, {a: co * c for a, co in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._term_str(a, c) for a, c in self.sorted_terms())


# ---------------------------------------------------------------------------
# GF(2)[x]
# ---------------------------------------------------------------------------


class GF2Poly:
    """Univariate polynomial over the field with two elements.

    Stored as an int bit mask: bit i is the coefficient of x^i.  The zero
    polynomial has degree -1.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("bit mask must be nonnegative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("GF2Poly is immutable")

    @classmethod
    def monomial(cls, degree: int) -> "GF2Poly":
        return cls(1 << degree)

    @classmethod
    def zero(cls) -> "GF2Poly":
        return cls(0)

    @classmethod
    def one(cls) -> "GF2Poly":
        return cls(1)

    @classmethod
    def x(cls) -> "GF2Poly":
        return cls(2)

    @classmethod
    def all_up_to_degree(cls, d: int) -> Iterator["GF2Poly"]:
        """Every polynomial of degree at most d (including zero)."""
        for bits in range(1 << (d + 1)):
            yield cls(bits)

    @property
    def degree(self) -> int:
        return self.bits.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Coefficients lowest degree first, with no trailing zero."""
        if not self.bits:
            return ()
        return tuple((self.bits >> i) & 1 for i in range(self.bits.bit_length()))

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __add__(self, other):
        if not isinstance(other, GF2Poly):
            return NotImplemented
        return _gf2(self.bits ^ other.bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        if not isinstance(other, GF2Poly):
            return NotImplemented
        a, b = self.bits, other.bits
        if a.bit_count() > b.bit_count():
            a, b = b, a  # one shifted copy of b per set bit of a
        out = 0
        while a:
            low = a & -a
            out ^= b << (low.bit_length() - 1)
            a ^= low
        return _gf2(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return _power(self, n, GF2Poly.one())

    def formal_derivative(self) -> "GF2Poly":
        """Termwise derivative: x^i -> (i mod 2) x^(i-1).  Only odd i
        survive, so it keeps the even-position bits of bits >> 1: the mask
        0b0101...01 of n - n % 2 bits is (2^(n - n % 2) - 1) / 3."""
        b = self.bits >> 1
        n = b.bit_length() + 1
        return _gf2(b & ((1 << n - n % 2) - 1) // 3)

    def __eq__(self, other):
        if not isinstance(other, GF2Poly):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        # the int self.bits, which never compares equal to it; CPython
        # re-hashes a value out of the hash range itself
        return self.bits

    def __bool__(self):
        return self.bits != 0

    def __str__(self):
        if not self.bits:
            return "0"
        parts = []
        for i in range(self.bits.bit_length() - 1, -1, -1):
            if (self.bits >> i) & 1:
                parts.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return " + ".join(parts)

    def __repr__(self):
        return f"GF2Poly({str(self)!r})"


_set_bits = GF2Poly.bits.__set__


def _gf2(bits: int) -> GF2Poly:
    """Internal GF2Poly constructor for a mask known to be nonnegative."""
    p = object.__new__(GF2Poly)
    _set_bits(p, bits)
    return p
