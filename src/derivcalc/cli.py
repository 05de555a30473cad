"""Command-line front end and the expression language.

Grammar of field expressions (whitespace insignificant)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := atom ['^' nonneg-int]
    atom     := rational | 't' index | '(' expr ')' | '-' factor
    rational := int ['/' positive-int]

Operator literals are sums of terms ``coefficient * d[j1,...,jk]`` where the
coefficient is an expression (omitted coefficient means 1, a term without a
``d[...]`` is a multiple of the identity).  Derivation literals assign an
image to each generator, ``t1 -> expr; t2 -> expr`` (missing generators map
to 0); words compose derivation literals with ``o``, as in
``(t1 -> 1) o (t1 -> t1)``.

Exit codes: 0 success, 1 mathematical infeasibility or a failed check
(witness printed), 2 usage or parse errors, 3 an internal error (a bug; the
message names the exception), 141 standard output closed early (as by
``| head``).  Run it as ``derivcalc`` or ``python -m derivcalc.cli``.

Each command returns ``(ok, record)``: whether its check passed, and its
result as an ordered list of ``(key, line, value)`` fields, so that each fact
is stated once.  ``_render`` prints the record in one of two forms.  With
``--json`` it is an indented object of the keyed fields in order: field
elements and operators become exact strings, while bools, ints (counts and
indices), None, and lists and dicts of them stay as they are; nothing is a
float.  As text it is each field's ``line``, a format template that receives
the value: a dict value by name, a bool as ``true``/``false``, a list joined
by ``"; "``.  A field without a line is JSON only; one without a key is text
only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from random import Random

from .exactnum import (
    DimensionMismatchError,
    GF2Poly,
    InexactDivisionError,
    RatFunc,
    add_terms,
    zero_index,
)
from .deriv import Derivation, DiffOp, NotInO0Error, OpWord, compose, normalize
from .sampling import DEFAULT_SEED, random_derivation, random_sparse_ratfunc


def __getattr__(name):
    # Each command imports the engine names it calls when it runs, so that a
    # cold call loads only the modules its command needs.  Those names still
    # read as attributes of this module (``cli.fit_operator``), resolved
    # through the package's export table on every access and never stored.
    from . import _EXPORTS

    if _EXPORTS.get(name, "cli") == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


class ExprSyntaxError(ValueError):
    """Parse failure, with the byte offset of the offending token, if any."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at offset {pos})")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in order ('->' before '-'); the
# unnamed first one skips whitespace and the last catches any other character.
_SCANNER = re.compile(
    r"""\s+ | (?P<ARROW>->) | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<SLASH>/)
    | (?P<CARET>\^) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<LBRACK>\[) | (?P<RBRACK>\])
    | (?P<COMMA>,) | (?P<SEMI>;) | (?P<INT>\d+) | t(?P<VAR>\d+) | (?P<DOP>d) | (?P<COMPOSE>o)
    | (?P<BAD>.)""",
    re.VERBOSE | re.DOTALL,
)

_Token = namedtuple("_Token", "kind pos value")


def _too_long(digits: str) -> str:
    return (
        f"integer literal of {len(digits.lstrip('-'))} digits is longer than "
        f"the {sys.get_int_max_str_digits()}-digit limit"
    )


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if kind is not None:
            value = None
            if kind in ("INT", "VAR"):
                try:
                    value = int(m.group(kind))
                except ValueError:  # longer than the interpreter converts
                    raise ExprSyntaxError(_too_long(m.group(kind)), m.start(kind)) from None
            tokens.append(_Token(kind, m.start(), value))
    tokens.append(_Token("END", len(text), None))
    return tokens


def _check_least_k(k: int, least_k: int = 1) -> None:
    if k < least_k:
        raise ValueError(f"k must be at least {least_k}")


class _Parser:
    def __init__(self, text: str, k: int, least_k: int = 1):
        _check_least_k(k, least_k)
        self.k = k
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok.kind}", tok.pos)
        self.i += 1
        return tok

    def accept(self, kind: str) -> _Token | None:
        if self.tokens[self.i].kind == kind:
            tok = self.tokens[self.i]
            self.i += 1
            return tok
        return None

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"trailing input ({tok.kind})", tok.pos)

    # -- expression grammar ----------------------------------------------------

    def expr(self) -> RatFunc:
        value = self.term()
        while True:
            if self.accept("PLUS"):
                value = value + self.term()
            elif self.accept("MINUS"):
                value = value - self.term()
            else:
                return value

    def term(self, stop_at_d: bool = False) -> RatFunc:
        """A product of factors; with ``stop_at_d`` it ends before ``* d[...]``."""
        value = self.factor()
        while True:
            if self.peek().kind == "STAR" and not (stop_at_d and self.peek(1).kind == "DOP"):
                self.take("STAR")
                value = value * self.factor()
            elif self.peek().kind == "SLASH":
                pos = self.take("SLASH").pos
                divisor = self.factor()
                if divisor.is_zero:
                    raise ExprSyntaxError("division by the zero expression", pos)
                value = value / divisor
            else:
                return value

    def factor(self) -> RatFunc:
        value = self.atom()
        if self.accept("CARET"):
            tok = self.take("INT")
            value = value**tok.value
        return value

    def signs(self) -> int:
        """Read a run of minus signs and return their product, 1 or -1."""
        sign = 1
        while self.accept("MINUS"):
            sign = -sign
        return sign

    def atom(self) -> RatFunc:
        tok = self.peek()
        if tok.kind == "INT":
            self.take("INT")
            # greedy rational literal: int '/' positive-int
            if self.peek().kind == "SLASH" and self.peek(1).kind == "INT":
                self.take("SLASH")
                den = self.take("INT")
                if den.value == 0:
                    raise ExprSyntaxError("zero denominator in rational", den.pos)
                return RatFunc.const(self.k, Fraction(tok.value, den.value))
            return RatFunc.const(self.k, tok.value)
        if tok.kind == "VAR":
            self.take("VAR")
            if not 1 <= tok.value <= self.k:
                raise ExprSyntaxError(f"unknown variable t{tok.value}", tok.pos)
            return RatFunc.variable(self.k, tok.value - 1)
        if tok.kind == "LPAREN":
            self.take("LPAREN")
            value = self.expr()
            self.take("RPAREN")
            return value
        if tok.kind == "MINUS":
            # a run of signs is one loop, not one nested factor per sign
            return self.signs() * self.factor()
        raise ExprSyntaxError(f"expected an expression, found {tok.kind}", tok.pos)

    # -- operator literals -------------------------------------------------------

    def d_atom(self) -> tuple:
        self.take("DOP")
        self.take("LBRACK")
        indices = [self.take("INT").value]
        while self.accept("COMMA"):
            indices.append(self.take("INT").value)
        closing = self.take("RBRACK")
        if len(indices) != self.k:
            raise ExprSyntaxError(
                f"d[...] needs {self.k} indices, got {len(indices)}", closing.pos
            )
        return tuple(indices)

    def opterm(self) -> tuple[tuple, RatFunc]:
        sign = self.signs()
        if self.peek().kind == "DOP":
            coef = RatFunc.const(self.k, sign)
        else:
            coef = self.term(stop_at_d=True) * sign
            if not self.accept("STAR"):
                return zero_index(self.k), coef
        alpha = self.d_atom()
        nxt = self.peek()
        if nxt.kind in ("STAR", "SLASH", "CARET"):
            raise ExprSyntaxError("coefficient factors must precede d[...]", nxt.pos)
        return alpha, coef

    def diffop(self) -> DiffOp:
        terms = [self.opterm()]
        while True:
            if self.accept("PLUS"):
                terms.append(self.opterm())
            elif self.accept("MINUS"):
                alpha, coef = self.opterm()
                terms.append((alpha, -coef))
            else:
                return DiffOp(self.k, add_terms({}, terms))

    # -- derivations and words ------------------------------------------------------

    def derivation_body(self) -> Derivation:
        images = [RatFunc.zero(self.k) for _ in range(self.k)]
        assigned = set()
        while True:
            tok = self.take("VAR")
            if not 1 <= tok.value <= self.k:
                raise ExprSyntaxError(f"unknown variable t{tok.value}", tok.pos)
            if tok.value in assigned:
                raise ExprSyntaxError(f"duplicate image for t{tok.value}", tok.pos)
            assigned.add(tok.value)
            self.take("ARROW")
            images[tok.value - 1] = self.expr()
            if not (self.accept("SEMI") or self.accept("COMMA")):
                return Derivation(images)

    def derivation_literal(self) -> Derivation:
        if self.accept("LPAREN"):
            d = self.derivation_body()
            self.take("RPAREN")
            return d
        return self.derivation_body()

    def word(self) -> OpWord:
        factors = [self.derivation_literal()]
        while self.accept("COMPOSE"):
            factors.append(self.derivation_literal())
        return OpWord.composition(factors)


def _parse(text: str, k: int, rule, least_k: int = 1):
    """Read all of ``text`` over Q(t1..tk) with one ``_Parser`` method."""
    p = _Parser(text, k, least_k)
    try:
        value = rule(p)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply") from None
    p.expect_end()
    return value


def parse_expr(text: str, k: int) -> RatFunc:
    """Parse a field expression over Q(t1..tk) into canonical form."""
    return _parse(text, k, _Parser.expr)


def parse_diffop(text: str, k: int) -> DiffOp:
    """Parse an operator literal (sum of ``coef * d[j1,...,jk]`` terms)."""
    return _parse(text, k, _Parser.diffop)


def parse_derivation(text: str, k: int) -> Derivation:
    """Parse a derivation literal ``t1 -> expr; ...``."""
    return _parse(text, k, _Parser.derivation_literal)


def parse_word(text: str, k: int) -> OpWord:
    """Parse a composition word of derivation literals joined by ``o``."""
    return _parse(text, k, _Parser.word)


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def _unique_keys(pairs: list) -> dict:
    """JSON object hook that rejects a key given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ExprSyntaxError(f"duplicate JSON key {key!r}")
        out[key] = value
    return out


def _load_json_arg(raw: str):
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ExprSyntaxError(f"invalid JSON: {exc.msg}", exc.pos)
    except RecursionError:
        raise ExprSyntaxError("invalid JSON: nested too deeply") from None


class _LongInt(str):
    """The digits of a JSON integer longer than the interpreter converts,
    kept so that the reader can say where it was."""


def _json_int(digits: str):
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


def _no_long_int(value, where: str) -> None:
    if type(value) is _LongInt:
        raise ExprSyntaxError(f"{where}: {_too_long(value)}")


def _json_expr(value, where: str, k: int, least_k: int = 1) -> RatFunc:
    """Read a JSON value that must be an expression string or an integer."""
    _no_long_int(value, where)
    # bool is an int subclass, and not an expression
    if not isinstance(value, str) and type(value) is not int:
        raise ExprSyntaxError(f"{where} must be an expression string or an integer")
    return _parse(str(value), k, _Parser.expr, least_k)


def parse_table_json(raw: str, k: int) -> MapTable:
    """MapTable JSON: an object mapping expression strings to expression
    strings or integers."""
    from .leibniz import MapTable

    _check_least_k(k)  # an empty table parses no expression
    data = _load_json_arg(raw)
    if not isinstance(data, dict):
        raise ExprSyntaxError("table JSON must be an object")
    pairs = []
    for key, val in data.items():
        pairs.append((parse_expr(key, k), _json_expr(val, f"table value {key!r}", k)))
    return MapTable.from_pairs(pairs, k)


def parse_grid_json(raw: str) -> GridValues:
    """GridValues JSON: {"k": int, "n": int, "values": {"i1,...,ik": expr}}."""
    from .reconstruct import GridValues

    data = _load_json_arg(raw)
    if not isinstance(data, dict) or not {"k", "n", "values"} <= set(data):
        raise ExprSyntaxError('grid JSON needs "k", "n" and "values"')
    for field in ("k", "n"):
        _no_long_int(data[field], f'grid "{field}"')
        if type(data[field]) is not int:  # bool is an int subclass, and not a count
            raise ExprSyntaxError(f'grid "{field}" must be a JSON integer')
    if not isinstance(data["values"], dict):
        raise ExprSyntaxError('grid "values" must be a JSON object')
    k, n = data["k"], data["n"]
    values = {}
    spelled = {}
    for key, val in data["values"].items():
        try:
            # the one node of a grid over no variables, (), is spelled ""
            idx = tuple(int(part) for part in key.split(",")) if key or k else ()
        except ValueError:
            raise ExprSyntaxError(f"bad grid index {key!r}")
        if idx in spelled:  # as "0" and "00": neither value may silently win
            raise ExprSyntaxError(f"grid index {key!r} names the node {spelled[idx]!r} again")
        spelled[idx] = key
        # its values are constants, so a grid may have k = 0
        values[idx] = _json_expr(val, f"grid value {key!r}", k, least_k=0)
    return GridValues(k, n, values)


def parse_exprs_json(raw: str, k: int) -> list[RatFunc]:
    data = _load_json_arg(raw)
    if not isinstance(data, list):
        raise ExprSyntaxError("expected a JSON array of expression strings")
    return [_json_expr(item, f"array item {i}", k) for i, item in enumerate(data)]


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return "; ".join(map(str, value))
    return str(value)


def _plain(value):
    """A field value as JSON: exact strings for field elements and
    operators; bools, ints and None as they are."""
    if value is None or isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return str(value)


def _render(record: list, as_json: bool) -> str:
    """One command result, as indented JSON of its keyed fields or as the
    text lines of its fields that have one."""
    if as_json:
        return json.dumps({key: _plain(v) for key, _, v in record if key is not None}, indent=2)
    return "\n".join(
        line.format(**{n: _text(v) for n, v in value.items()})
        if isinstance(value, dict)
        else line.format(_text(value))
        for _, line, value in record
        if line is not None
    )


def _operator_out(op: DiffOp):
    return True, [("operator", "operator: {}", op), ("degree", "degree: {}", op.degree)]


def _operator_from_args(args) -> DiffOp:
    if getattr(args, "op", None) is not None:
        return parse_diffop(args.op, args.k)
    if getattr(args, "word", None) is not None:
        return normalize(parse_word(args.word, args.k))
    raise ExprSyntaxError("supply --op or --word")


def _cmd_apply(args, seed):
    k = args.k
    f = parse_expr(args.expr, k)
    if args.deriv is not None:
        result = parse_derivation(args.deriv, k)(f)
    else:
        result = _operator_from_args(args)(f)
    return True, [("result", "result: {}", result)]


def _cmd_normalize(args, seed):
    return _operator_out(normalize(parse_word(args.word, args.k)))


def _cmd_compose(args, seed):
    return _operator_out(compose(parse_diffop(args.op1, args.k), parse_diffop(args.op2, args.k)))


def _cmd_order(args, seed):
    from .leibniz import order_exact

    op = _operator_from_args(args)
    line = "order: {} (zero map)" if op.is_zero else "order: {}"
    return True, [("order", line, order_exact(op)), ("zero_map", None, op.is_zero)]


def _cmd_defect(args, seed):
    from .leibniz import nested_defect

    k = args.k
    op = _operator_from_args(args)
    x = parse_expr(args.x, k)
    ys = [parse_expr(y, k) for y in args.y]
    value = nested_defect(op, x, ys)
    return True, [("defect", "defect: {}", value), ("nesting", None, len(ys))]


def _cmd_gpdeg(args, seed):
    from .genpoly import gp_degree_check, over_identity

    k = args.k
    op = _operator_from_args(args)
    f = over_identity(op)
    rng = Random(seed)
    if args.increment:
        increments = [parse_expr(text, k) for text in args.increment]
    else:
        increments = [random_sparse_ratfunc(rng, k, max_degree=2) for _ in range(args.n + 1)]
    if args.point:
        points = [parse_expr(text, k) for text in args.point]
    else:
        points = [random_sparse_ratfunc(rng, k, max_degree=2) for _ in range(2)]
    res = gp_degree_check(f, args.n, increments, points)
    record = [("pass", "pass: {}", res.ok), ("reason", "reason: {}", res.reason)]
    if not res.ok:
        gs, x = res.witness
        record.append((
            "witness",
            "witness increments: {increments}\nwitness point: {point}\nwitness value: {value}",
            {"increments": gs, "point": x, "value": res.value},
        ))
    return res.ok, record


def _cmd_expoly(args, seed):
    from .genpoly import exponent_polynomial

    p = exponent_polynomial(_operator_from_args(args))
    return True, [
        ("exponent_polynomial", "exponent polynomial: {}", p),
        ("degree", "degree: {}", p.degree),
    ]


def _cmd_reconstruct(args, seed):
    from .reconstruct import DegreeOverflowError, reconstruct_operator

    grid = parse_grid_json(args.grid)
    try:
        return _operator_out(reconstruct_operator(grid))
    except DegreeOverflowError as exc:
        offending = [",".join(map(str, j)) for j in exc.offending]
        return False, [
            ("degree_overflow", "degree overflow: data inconsistent with the bound", True),
            ("offending", None, offending),
            (None, "offending indices: {}", repr(offending)),
        ]


def _cmd_fit(args, seed):
    from .reconstruct import fit_operator

    table = parse_table_json(args.table, args.k)
    res = fit_operator(table, args.n, require_o0=args.require_o0)
    if not res.ok:
        return False, [
            ("infeasible", "infeasible", True),
            ("row", "inconsistent row: {}", res.inconsistent_row),
        ]
    return True, [
        ("operator", "operator: {}", res.operator),
        ("solution_dim", "solution dimension: {}", res.solution_dim),
    ]


def _cmd_recurrence(args, seed):
    from .reconstruct import RecurrenceSpec, check_recurrence

    k = args.k
    coeffs = parse_exprs_json(args.coeffs, k)
    seq = parse_exprs_json(args.seq, k)
    res = check_recurrence(RecurrenceSpec(tuple(coeffs), tuple(seq)))
    return res.ok, [
        ("pass", "pass: {}", res.ok),
        ("first_failure", None if res.ok else "first failure at index: {}", res.first_failure),
    ]


def _cmd_demo(args, seed):
    from .fixtures import char2_compose_check, char2_order_check, product_ring_demo, theorem2_demo

    if args.which == "char2":
        rep = char2_order_check()
        comp = char2_compose_check(GF2Poly.one())
        wx, wy, wb = rep.derivation_witness
        return rep.ok and comp.ok, [
            ("d_of_x", "D(x) = {}", rep.d_of_x),
            ("d_of_x2", "D(x^2) = {}", rep.d_of_x2),
            ("additive", "additive: {}", rep.additive_ok),
            (
                "defects2_vanish",
                f"2-fold defects vanish (degree <= {rep.max_degree}): {{}}",
                rep.defects2_vanish,
            ),
            (
                "derivation_witness",
                "not a derivation, witness: B({x}, {y}) = {defect}",
                {"x": wx, "y": wy, "defect": wb},
            ),
            ("compose_collapse", "composition of two derivations stays first order: {}", comp.ok),
        ]
    if args.which == "product-ring":
        rep = product_ring_demo()
        return rep.ok, [
            ("leibniz", "component derivations satisfy the product rule: {}", rep.leibniz_ok),
            (
                "composite_zero",
                f"d1 o d2 = 0 on monomial pairs up to exponent {rep.max_exponent}: {{}}",
                rep.composite_zero_ok,
            ),
            ("d1_witness", "d1 is nonzero: d1(x, 0) = {}", rep.d1_nonzero_witness),
            ("d2_witness", "d2 is nonzero: d2(0, x) = {}", rep.d2_nonzero_witness),
        ]
    # theorem2
    if args.derivations is not None:
        word = parse_word(args.derivations, args.k)
        derivations = list(word.words[0][1])
    else:
        rng = Random(seed)
        derivations = [random_derivation(rng, args.k) for _ in range(args.n)]
    rep = theorem2_demo(derivations)
    n = rep.n
    x, ys, value = rep.witness
    return rep.ok, [
        ("n", "n: {}", n),
        (None, "operator: {}", rep.operator),
        ("degree", "degree: {}", rep.degree),
        ("expoly_degree", "exponent polynomial degree: {}", rep.expoly_degree),
        ("vanish_ok", f"{n}-fold nested defects vanish: {{}}", rep.vanish_ok),
        (
            "witness",
            f"{n - 1}-fold nonvanishing witness: x = {{x}}, ys = ({{ys}}), value = {{value}}",
            {"x": x, "ys": list(ys), "value": value},
        ),
        ("operator", None, rep.operator),
    ]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivcalc",
        description="Exact calculus of derivations and differential operators "
        "over Q(t1..tk).",
    )
    json_help = "machine-readable output"
    parser.add_argument("--json", action="store_true", help=json_help)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for random inputs: demo theorem2 derivations, gpdeg increments "
        "and points (DERIVCALC_SEED overrides)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_k(p):
        p.add_argument("--k", type=int, required=True, help="number of variables")
        return p

    def with_op(p):
        """Add the mutually exclusive operator flags; returns their group."""
        ops = p.add_mutually_exclusive_group()
        ops.add_argument("--op", help="operator literal")
        ops.add_argument("--word", help="composition word of derivation literals")
        return ops

    p = with_k(sub.add_parser("apply", help="apply an operator or derivation"))
    with_op(p).add_argument("--deriv", help="derivation literal")
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_apply)

    p = with_k(sub.add_parser("normalize", help="canonical form of a word"))
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_normalize)

    p = with_k(sub.add_parser("compose", help="compose two operators"))
    p.add_argument("--op1", required=True)
    p.add_argument("--op2", required=True)
    p.set_defaults(fn=_cmd_compose)

    p = with_k(sub.add_parser("order", help="exact order of an operator"))
    with_op(p)
    p.set_defaults(fn=_cmd_order)

    p = with_k(sub.add_parser("defect", help="(nested) product-rule defect"))
    with_op(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", action="append", required=True, help="repeat to nest")
    p.set_defaults(fn=_cmd_defect)

    p = with_k(sub.add_parser("gpdeg", help="sampled degree check for E/j"))
    with_op(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--increment", action="append", help="expression; repeatable")
    p.add_argument("--point", action="append", help="expression; repeatable")
    p.set_defaults(fn=_cmd_gpdeg)

    p = with_k(sub.add_parser("expoly", help="exponent polynomial of an operator"))
    with_op(p)
    p.set_defaults(fn=_cmd_expoly)

    p = sub.add_parser("reconstruct", help="rebuild an operator from grid values")
    p.add_argument("--grid", required=True, help="JSON or @file")
    p.set_defaults(fn=_cmd_reconstruct)

    p = with_k(sub.add_parser("fit", help="fit an operator to a finite table"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--require-o0", action="store_true", dest="require_o0")
    p.add_argument("--table", required=True, help="JSON or @file")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("recurrence", help="check a linear recurrence")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--coeffs", required=True, help="JSON array, c0 first")
    p.add_argument("--seq", required=True, help="JSON array")
    p.set_defaults(fn=_cmd_recurrence)

    p = sub.add_parser("demo", help="run a packaged demonstration")
    p.add_argument("which", choices=["char2", "product-ring", "theorem2"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=2, help="composition length (theorem2)")
    p.add_argument("--derivations", help="word literal (theorem2)")
    p.set_defaults(fn=_cmd_demo)

    # --json is accepted after the subcommand too; SUPPRESS keeps a
    # subcommand that omits it from resetting the top-level flag
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help=json_help)
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to the null device
        # so the interpreter's own flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    seed = args.seed
    env_seed = os.environ.get("DERIVCALC_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print("DERIVCALC_SEED must be an integer", file=sys.stderr)
            return 2
    try:
        ok, record = args.fn(args, seed)
        # rendering converts field elements to str, which can fail too
        # (an int past the interpreter's digit limit)
        out = _render(record, args.json)
    except NotInO0Error as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}")
        return 1
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # each reader parses with the command's own k, so no input mixes
        # variable counts, and the engine asks for an exact division only
        # where the quotient is exact: DimensionMismatchError and
        # InexactDivisionError are bugs, not usage errors
        usage = isinstance(exc, (ValueError, ZeroDivisionError, OSError))
        if usage and not isinstance(exc, (DimensionMismatchError, InexactDivisionError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
