"""Expression language and command-line behavior."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import derivcalc
from derivcalc import cli
from derivcalc.exactnum import InexactDivisionError, MultiPoly, RatFunc
from derivcalc.deriv import Derivation, DiffOp
from derivcalc.cli import (
    ExprSyntaxError,
    main,
    parse_derivation,
    parse_diffop,
    parse_expr,
    parse_word,
)
from derivcalc.sampling import random_derivation, random_diffop, random_ratfunc


# ---------------------------------------------------------------------------
# parse_expr
# ---------------------------------------------------------------------------


def test_parse_polynomial_with_rational():
    got = parse_expr("t1^2 + 1/2", 1)
    t = MultiPoly.variable(1, 0)
    assert got == RatFunc.from_poly(t * t + MultiPoly.const(1, Fraction(1, 2)))


def test_parse_quotient_two_variables():
    got = parse_expr("(t1+t2)/(t1-t2)", 2)
    t1, t2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert got == RatFunc(t1 + t2, t1 - t2)


def test_parse_unknown_variable():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("t3", 2)
    assert "unknown variable" in str(err.value)
    assert err.value.pos == 0


def test_parse_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("t1 + ", 1)
    assert err.value.pos == 5


def test_parse_division_by_zero_expression():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/(t1-t1)", 1)


def test_rational_literal_binds_tighter_than_power():
    # the grammar reads "3/2" as one rational atom, so 3/2^2 = (3/2)^2
    assert parse_expr("3/2^2", 1) == RatFunc.const(1, Fraction(9, 4))
    # with a non-literal denominator, '/' is ordinary division
    t = RatFunc.variable(1, 0)
    assert parse_expr("3/t1^2", 1) == 3 / t**2


def test_parse_unary_minus_and_precedence():
    t = RatFunc.variable(1, 0)
    assert parse_expr("-t1^2", 1) == -(t**2)
    assert parse_expr("2*t1 + 3*t1^2 - 1", 1) == 2 * t + 3 * t**2 - 1


def test_parse_rejects_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse_expr("t1 t1", 1)


# ---------------------------------------------------------------------------
# operator, derivation, word literals
# ---------------------------------------------------------------------------


def test_parse_operator_literal():
    t = RatFunc.variable(1, 0)
    got = parse_diffop("d[1] + t1 * d[2]", 1)
    assert got == Derivation.coordinate(1, 0) + DiffOp(1, {(2,): t})


def test_parse_operator_identity_term_and_zero():
    c = RatFunc.variable(1, 0) + 1
    assert parse_diffop("(t1 + 1)", 1) == DiffOp.identity(1, c)
    assert parse_diffop("0", 1).is_zero
    assert parse_diffop("d[0]", 1) == DiffOp.identity(1, 1)


def test_parse_operator_wrong_index_count():
    with pytest.raises(ExprSyntaxError):
        parse_diffop("d[1]", 2)


def test_parse_operator_coefficient_after_d_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_diffop("d[1] * t1", 1)


def test_parse_derivation_literal():
    got = parse_derivation("t1 -> 1; t2 -> t1", 2)
    assert got == Derivation([RatFunc.one(2), RatFunc.variable(2, 0)])
    # missing images default to zero
    got = parse_derivation("t2 -> t2", 2)
    assert got.images[0].is_zero


def test_parse_word_composition():
    w = parse_word("(t1->1,t2->0) o (t1->t1,t2->1)", 2)
    assert len(w.words) == 1
    coef, word = w.words[0]
    assert coef == 1 and len(word) == 2
    assert word[0] == Derivation([RatFunc.one(2), RatFunc.zero(2)])


# every token character, blanks, two digits (so powers stay small) and a
# digit that is not a decimal one
_READER_ALPHABET = "+-*/^()[],;>tdo \t12\u00b2"


@settings(deadline=None)
@given(text=st.text(_READER_ALPHABET, max_size=8), k=st.sampled_from([1, 2]))
def test_reader_returns_or_raises_syntax_error(text, k):
    for parse in (parse_expr, parse_diffop, parse_derivation, parse_word):
        try:
            parse(text, k)
        except ExprSyntaxError:
            pass


# ---------------------------------------------------------------------------
# print-then-parse round trips
# ---------------------------------------------------------------------------


def test_ratfunc_print_parse_round_trip():
    rng = Random(103)
    for _ in range(40):
        k = rng.choice((1, 2))
        f = random_ratfunc(rng, k)
        assert parse_expr(str(f), k) == f


def test_diffop_print_parse_round_trip():
    rng = Random(107)
    for _ in range(25):
        k = rng.choice((1, 2))
        E = random_diffop(rng, k, rng.randint(0, 3), in_o0=False, exact_degree=False)
        assert parse_diffop(str(E), k) == E


def test_derivation_print_parse_round_trip():
    rng = Random(109)
    for _ in range(25):
        k = rng.choice((1, 2))
        d = random_derivation(rng, k)
        assert parse_derivation(str(d), k) == d


# ---------------------------------------------------------------------------
# CLI dispatch
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


_GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")


def test_cli_golden_corpus(capsys, monkeypatch):
    """Every subcommand and every exit path, plain and with --json, against
    the exit code, stdout and stderr recorded in cli_golden.json.  A null
    stderr marks an argparse usage error, whose text differs between Python
    versions: only its exit code and its empty stdout are pinned."""
    with open(_GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    for case in cases:
        monkeypatch.delenv("DERIVCALC_SEED", raising=False)
        for name, value in case.get("env", {}).items():
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, *case["argv"])
        if case["stderr"] is None:
            err = None
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"]), case["argv"]


def test_cli_order(capsys):
    code, out, _ = run_cli(capsys, "order", "--k", "1", "--op", "d[2]")
    assert code == 0
    assert out.strip() == "order: 2"


def test_cli_order_zero_map(capsys):
    code, out, _ = run_cli(capsys, "order", "--k", "1", "--op", "0")
    assert code == 0
    assert out.strip() == "order: 0 (zero map)"


def test_cli_order_identity_component_fails(capsys):
    code, out, _ = run_cli(capsys, "order", "--k", "1", "--op", "3")
    assert code == 1


def test_cli_apply(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "--k", "1", "--op", "d[1] + t1 * d[2]", "--expr", "t1^3"
    )
    assert code == 0
    assert out.strip() == "result: 9*t1^2"


def test_cli_normalize(capsys):
    code, out, _ = run_cli(
        capsys, "normalize", "--k", "1", "--word", "(t1->1) o (t1->t1)"
    )
    assert code == 0
    assert "operator: d[1] + (t1) * d[2]" in out


def test_cli_compose(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "--k", "1", "--op1", "t1 * d[1]", "--op2", "d[1]"
    )
    assert code == 0
    assert "operator: (t1) * d[2]" in out
    assert "degree: 2" in out


def test_cli_defect(capsys):
    code, out, _ = run_cli(
        capsys, "defect", "--k", "1", "--op", "d[2]", "--x", "t1", "--y", "t1"
    )
    assert code == 0
    assert out.strip() == "defect: 2"


def test_cli_apply_derivation_literal(capsys):
    code, out, _ = run_cli(
        capsys,
        "apply", "--k", "2", "--deriv", "t1 -> t2; t2 -> 1", "--expr", "t1*t2",
    )
    assert code == 0
    assert out.strip() == "result: t2^2 + t1"


def test_cli_apply_word(capsys):
    code, out, _ = run_cli(
        capsys,
        "apply", "--k", "1", "--word", "(t1->1) o (t1->t1)", "--expr", "t1^2",
    )
    # (d o t d)(t^2) = d(2t^2) = 4t, and the normal form gives the same
    assert code == 0
    assert out.strip() == "result: 4*t1"


def test_cli_gpdeg_with_default_seeded_samples(capsys):
    code, out, _ = run_cli(capsys, "gpdeg", "--k", "1", "--op", "d[1]", "--n", "1")
    assert code == 0
    assert "pass: true" in out


def test_cli_demo_theorem2_with_explicit_word(capsys):
    code, out, _ = run_cli(
        capsys,
        "demo", "theorem2", "--k", "2",
        "--derivations", "(t1->1,t2->0) o (t1->t1,t2->1)",
    )
    assert code == 0
    assert "degree: 2" in out
    assert "vanish: true" in out


def test_cli_grid_from_file(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps({"k": 1, "n": 2, "values": {"0": "0", "1": "0", "2": "2"}})
    )
    code, out, _ = run_cli(capsys, "reconstruct", "--grid", f"@{path}")
    assert code == 0
    assert "operator: d[2]" in out


def test_cli_reads_a_long_run_of_minus_signs(capsys):
    # one loop reads the signs: 5,000 of them nest no call
    for signs, result in ((5000, "2*t1"), (5001, "-2*t1")):
        expr = "-" * signs + "t1^2"
        code, out, err = run_cli(capsys, "apply", "--k", "1", "--op", "d[1]", f"--expr={expr}")
        assert (code, out, err) == (0, f"result: {result}\n", "")


def test_cli_deeply_nested_parentheses_are_a_parse_error(capsys):
    expr = "(" * 3000 + "t1" + ")" * 3000
    code, out, err = run_cli(capsys, "apply", "--k", "1", "--op", "d[1]", "--expr", expr)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "nested too deeply" in err


def test_cli_deeply_nested_json_is_a_parse_error(capsys):
    table = "[" * 3000 + "]" * 3000
    code, out, err = run_cli(capsys, "fit", "--k", "1", "--n", "1", "--table", table)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "nested too deeply" in err


def test_cli_bad_json_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "fit", "--k", "1", "--n", "1", "--table", "{oops")
    assert code == 2
    # a grid of the wrong shape is a parse error that names the field
    values = '{"0":"0","1":"0","2":"2"}'
    for grid, field in [
        ('{"k":1,"n":2,"values":[]}', "values"),
        ('{"k":1,"n":2,"values":"0"}', "values"),
        ('{"k":[1],"n":2,"values":%s}' % values, "k"),
        ('{"k":null,"n":2,"values":%s}' % values, "k"),
        ('{"k":1,"n":1.5,"values":%s}' % values, "n"),
        ('{"k":true,"n":2,"values":%s}' % values, "k"),
        ('{"k":"1","n":2,"values":%s}' % values, "k"),
    ]:
        code, out, err = run_cli(capsys, "reconstruct", "--grid", grid)
        assert (code, out) == (2, ""), grid
        assert err.startswith(f'parse error: grid "{field}" must be a JSON'), grid
    # a JSON value read as an expression must be a string or an integer
    as_int = run_cli(capsys, "fit", "--k", "1", "--n", "1", "--table", '{"t1":1}')
    assert as_int == run_cli(capsys, "fit", "--k", "1", "--n", "1", "--table", '{"t1":"1"}')
    assert as_int[0] == 0
    for bad in ("null", "true", "false", "1.5", '["t1"]', '{"t1": "1"}'):
        for argv, where in [
            (("fit", "--k", "1", "--n", "1", "--table", '{"t1":%s}' % bad), "table value 't1'"),
            (
                ("reconstruct", "--grid", '{"k":1,"n":1,"values":{"0":"0","1":%s}}' % bad),
                "grid value '1'",
            ),
            (("recurrence", "--coeffs", '["1", %s]' % bad, "--seq", '["1"]'), "array item 1"),
            (("recurrence", "--coeffs", '["1"]', "--seq", "[%s]" % bad), "array item 0"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(
                f"parse error: {where} must be an expression string or an integer"
            ), argv


def test_cli_grid_node_spelled_twice_is_a_parse_error(capsys):
    # "0" and "00" (or "1" and "+1", "0,0" and " 0,0") name one node; the
    # later value used to overwrite the earlier one without a word
    for k, n, values, key, first in [
        (1, 1, '{"0":"0","00":"5","1":"0"}', "00", "0"),
        (1, 1, '{"00":"5","0":"0","1":"0"}', "0", "00"),
        (1, 1, '{"0":"0","1":"0","+1":"1"}', "+1", "1"),
        (2, 0, '{"0,0":"1"," 0,0":"1"}', " 0,0", "0,0"),
    ]:
        grid = '{"k":%d,"n":%d,"values":%s}' % (k, n, values)
        code, out, err = run_cli(capsys, "reconstruct", "--grid", grid)
        assert (code, out) == (2, ""), grid
        assert err == f"parse error: grid index {key!r} names the node {first!r} again\n"


def test_cli_incomplete_grid_is_usage_error(capsys):
    grid = json.dumps({"k": 1, "n": 2, "values": {"0": "0"}})
    code, _, err = run_cli(capsys, "reconstruct", "--grid", grid)
    assert code == 2


def test_cli_huge_empty_grid_is_rejected_without_building_it():
    # the cube {0..9}^9 has 10^9 nodes; validation must not enumerate them.
    # The child gets 1 GiB of address space, so a regression fails fast.
    grid = json.dumps({"k": 9, "n": 9, "values": {}})
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "from derivcalc.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "reconstruct", "--grid", grid],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "missing [(0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1)," in proc.stderr


def test_cli_fit_infeasible_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "fit", "--k", "1", "--n", "0", "--require-o0", "--table", '{"t1":"1"}',
    )
    assert code == 1
    assert "infeasible" in out


def test_cli_fit_feasible(capsys):
    code, out, _ = run_cli(
        capsys,
        "fit", "--k", "1", "--n", "1", "--require-o0",
        "--table", '{"t1":"1","t1+1":"1"}',
    )
    assert code == 0
    assert "operator: d[1]" in out


@pytest.mark.parametrize("k", ["-1", "0"])
def test_cli_fit_refuses_k_below_one_whatever_the_table(capsys, k):
    # an empty table parses no expression, so the reader never sees k
    for table in ("{}", '{"1":"1"}'):
        assert run_cli(capsys, "fit", "--k", k, "--n", "1", "--table", table) == (
            2, "", "error: k must be at least 1\n"
        )


def test_cli_reconstruct(capsys):
    grid = json.dumps({"k": 1, "n": 2, "values": {"0": "0", "1": "0", "2": "2"}})
    code, out, _ = run_cli(capsys, "reconstruct", "--grid", grid)
    assert code == 0
    assert "operator: d[2]" in out


def test_cli_reconstruct_grid_over_no_variables(capsys):
    # the one node of {0..n}^0 is (), spelled ""
    for n in (0, 1):
        grid = json.dumps({"k": 0, "n": n, "values": {"": "1"}})
        assert run_cli(capsys, "reconstruct", "--grid", grid) == (
            0, "operator: (1)\ndegree: 0\n", ""
        )
    code, _, err = run_cli(capsys, "reconstruct", "--grid", '{"k":1,"n":0,"values":{"":"1"}}')
    assert code == 2 and "bad grid index ''" in err


def test_cli_exponent_limit_is_a_usage_error(capsys):
    # total degrees must stay below 2^31; past it the input is refused
    for power in ("2147483648", "3000000000"):
        code, out, err = run_cli(
            capsys, "apply", "--k", "1", "--op", "d[1]", "--expr", f"t1^{power}"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: total degree") and "exponent limit 2147483647" in err
    code, out, _ = run_cli(capsys, "apply", "--k", "1", "--op", "d[1]", "--expr", "t1^2147483647")
    assert (code, out) == (0, "result: 2147483647*t1^2147483646\n")


def test_cli_huge_integer_literal_is_a_parse_error(capsys):
    digits = "9" * 5000
    limit = f"integer literal of 5000 digits is longer than the {sys.get_int_max_str_digits()}-digit limit"
    cases = [
        (("fit", "--k", "1", "--n", "1", "--table", '{"t1":"%s"}' % digits), f"{limit} (at offset 0)"),
        (("apply", "--k", "1", "--op", "d[1]", "--expr", f"t1 + {digits}"), f"{limit} (at offset 5)"),
        (("fit", "--k", "1", "--n", "1", "--table", '{"t1":%s}' % digits), f"table value 't1': {limit}"),
        (("fit", "--k", "1", "--n", "1", "--table", '{"t1":-%s}' % digits), f"table value 't1': {limit}"),
        (("recurrence", "--coeffs", "[%s]" % digits, "--seq", '["1"]'), f"array item 0: {limit}"),
        (("reconstruct", "--grid", '{"k":1,"n":%s,"values":{}}' % digits), f'grid "n": {limit}'),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"parse error: {message}"), (argv, err)


def test_cli_reconstruct_overflow(capsys):
    # values of d1 o d2 on the {0,1}^2 grid under bound n=1
    grid = json.dumps(
        {"k": 2, "n": 1, "values": {"0,0": "0", "1,0": "0", "0,1": "0", "1,1": "t1*t2"}}
    )
    code, out, _ = run_cli(capsys, "reconstruct", "--grid", grid)
    assert code == 1
    assert "degree overflow" in out


def test_cli_gpdeg_pass_and_fail(capsys):
    code, out, _ = run_cli(
        capsys,
        "gpdeg", "--k", "1", "--op", "d[1]", "--n", "1",
        "--increment", "t1+1", "--point", "t1",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "gpdeg", "--k", "1", "--op", "d[1]", "--n", "0",
        "--increment", "t1+1", "--point", "t1",
    )
    assert code == 1
    assert "witness" in out


def test_cli_recurrence(capsys):
    code, out, _ = run_cli(
        capsys,
        "recurrence", "--coeffs", '["-1","-1","1"]',
        "--seq", '["1","1","2","3","5","8"]',
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "recurrence", "--coeffs", '["-1","-1","1"]',
        "--seq", '["1","1","2","3","6"]',
    )
    assert code == 1
    assert "index: 4" in out


def test_cli_demo_char2(capsys):
    code, out, _ = run_cli(capsys, "demo", "char2")
    assert code == 0
    assert "D(x) = 0" in out
    assert "D(x^2) = 1" in out
    assert "first order: true" in out


def test_cli_demo_theorem2_deterministic_given_seed(capsys):
    code1, out1, _ = run_cli(capsys, "--seed", "5", "demo", "theorem2", "--k", "2", "--n", "2")
    code2, out2, _ = run_cli(capsys, "--seed", "5", "demo", "theorem2", "--k", "2", "--n", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("DERIVCALC_SEED", "5")
    _, out1, _ = run_cli(capsys, "--seed", "11", "demo", "theorem2", "--k", "2", "--n", "2")
    monkeypatch.delenv("DERIVCALC_SEED")
    _, out2, _ = run_cli(capsys, "--seed", "5", "demo", "theorem2", "--k", "2", "--n", "2")
    assert out1 == out2


def test_cli_apply_very_high_order_partial(capsys):
    # the derivative chain is long but ends in zero after four steps, so
    # the work stops there whatever the order
    for op in ("d[100000]", "d[100000000]"):
        code, out, _ = run_cli(capsys, "apply", "--k", "1", "--op", op, "--expr", "t1^3")
        assert code == 0
        assert out.strip() == "result: 0"


def test_cli_op_and_word_are_exclusive(capsys):
    code, out, err = run_cli(
        capsys, "order", "--k", "1", "--op", "d[1]", "--word", "(t1->1) o (t1->1)"
    )
    assert code == 2 and out == ""
    assert "not allowed with" in err


def test_cli_op_and_deriv_are_exclusive(capsys):
    code, out, err = run_cli(
        capsys, "apply", "--k", "1", "--op", "d[1]", "--deriv", "t1 -> t1", "--expr", "t1"
    )
    assert code == 2 and out == ""
    assert "not allowed with" in err


def test_cli_duplicate_json_key_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys,
        "fit", "--k", "1", "--n", "1", "--require-o0", "--table", '{"t1":"1","t1":"5"}',
    )
    assert code == 2 and out == ""
    assert "duplicate JSON key 't1'" in err


def test_cli_json_flag_after_the_subcommand(capsys):
    argv = ["order", "--k", "1", "--op", "d[2]"]
    before = run_cli(capsys, "--json", *argv)
    after = run_cli(capsys, *argv, "--json")
    assert before == after
    assert before[0] == 0 and json.loads(before[1]) == {"order": 2, "zero_map": False}
    # a subcommand without the flag keeps the top-level one
    code, out, _ = run_cli(capsys, "--json", "recurrence", "--coeffs", '["1"]', "--seq", '["0"]')
    assert code == 0 and json.loads(out)["pass"] is True


def _child_env(**extra):
    """The environment for a child interpreter that imports this derivcalc."""
    src = os.path.dirname(os.path.dirname(derivcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_cli_broken_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "derivcalc.cli", "demo", "char2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_cli_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_order", broken)
    code, out, err = run_cli(capsys, "order", "--k", "1", "--op", "d[2]")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")

    # every reader parses with the command's own k, so mixed variable counts
    # (a ValueError) are a bug as well, not a usage error
    def mixed(args, seed):
        RatFunc.one(1) + RatFunc.one(2)

    monkeypatch.setattr(cli, "_cmd_order", mixed)
    code, out, err = run_cli(capsys, "order", "--k", "1", "--op", "d[2]")
    assert (code, out) == (3, "")
    assert err == "internal error: DimensionMismatchError: mixed variable counts: 1 vs 2\n"


def test_cli_inexact_division_is_an_internal_error(capsys, monkeypatch):
    # every division the engine calls exact is one, so a remainder is a bug
    # (exit 3), not a usage error (exit 2)
    def inexact(self, divisor):
        raise InexactDivisionError("not exactly divisible")

    monkeypatch.setattr(MultiPoly, "exact_div", inexact)
    code, out, err = run_cli(capsys, "fit", "--k", "1", "--n", "1", "--table", '{"t1":"t1^2"}')
    assert (code, out) == (3, "")
    assert err == "internal error: InexactDivisionError: not exactly divisible\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int digit limit"
)
def test_cli_output_past_the_int_digit_limit_is_a_usage_error(capsys):
    # printing 2^20000 (6,021 digits) fails in str(); that happens while the
    # result is rendered, and must still end on the exit-2 path, not a traceback
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for flag in ([], ["--json"]):
            code, out, err = run_cli(
                capsys, *flag, "apply", "--k", "1", "--op", "1", "--expr", "2^20000"
            )
            assert (code, out) == (2, ""), flag
            assert err.startswith("error: Exceeds the limit"), err
    finally:
        sys.set_int_max_str_digits(old)


def test_cli_runs_as_a_module_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-m", "derivcalc.cli", "order", "--k", "1", "--op", "d[2]"],
        capture_output=True, text=True, timeout=60, env=_child_env(PYTHONWARNINGS="error"),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "order: 2\n", "")


def test_package_loads_the_readers_on_first_use():
    script = (
        "import sys, derivcalc\n"
        "assert not [m for m in sys.modules if m.startswith('derivcalc.')]\n"
        "from derivcalc import *\n"
        "assert set(derivcalc.__all__) <= set(dir())\n"
        "from derivcalc import parse_expr\n"
        "from derivcalc.cli import parse_expr as reader\n"
        "assert parse_expr is reader and str(parse_expr('t1+1', 1)) == 't1 + 1'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr


# The modules every CLI call loads, and each command's argv with the engine
# modules it adds to them.
_BASE = ("cli", "deriv", "exactnum", "sampling")
_COLD_CALLS = [
    (["apply", "--k", "1", "--op", "d[1]", "--expr", "t1^2"], ()),
    (["normalize", "--k", "1", "--word", "(t1 -> 1)"], ()),
    (["compose", "--k", "1", "--op1", "d[1]", "--op2", "t1 * d[1]"], ()),
    (["order", "--k", "1", "--op", "d[2]"], ("leibniz",)),
    (["defect", "--k", "1", "--op", "d[2]", "--x", "t1", "--y", "t1"], ("leibniz",)),
    (["expoly", "--k", "1", "--op", "d[2]"], ("genpoly", "leibniz")),
    (
        ["gpdeg", "--k", "1", "--op", "d[1]", "--n", "1", "--increment", "2",
         "--increment", "3", "--point", "t1"],
        ("genpoly", "leibniz"),
    ),
    (
        ["reconstruct", "--grid", '{"k":1,"n":2,"values":{"0":"0","1":"0","2":"2"}}'],
        ("leibniz", "reconstruct"),
    ),
    (["fit", "--k", "1", "--n", "1", "--table", '{"t1":"1"}'], ("leibniz", "reconstruct")),
    (
        ["recurrence", "--coeffs", '["-1","-1","1"]', "--seq", '["1","1","2","3"]'],
        ("leibniz", "reconstruct"),
    ),
    (["demo", "char2"], ("fixtures", "genpoly", "leibniz")),
]


@pytest.mark.parametrize("argv, extra", _COLD_CALLS, ids=[argv[0] for argv, _ in _COLD_CALLS])
def test_cold_call_loads_only_the_modules_its_command_runs(argv, extra):
    script = (
        "import sys\n"
        "from derivcalc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.startswith('derivcalc.')), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stderr.strip().splitlines()[-1]
    assert loaded == repr(sorted(f"derivcalc.{m}" for m in _BASE + extra))


def test_every_exported_name_is_its_defining_modules_object():
    for name in derivcalc.__all__:
        value = getattr(derivcalc, name)
        module = sys.modules[value.__module__]
        assert module.__name__ == f"derivcalc.{derivcalc._EXPORTS[name]}", name
        assert vars(module)[name] is value, name
        assert getattr(cli, name) is value, name
    assert sorted(dir(derivcalc)) == sorted(derivcalc.__all__)
    with pytest.raises(AttributeError):
        derivcalc.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_exported_names_are_read_again_after_a_patch_is_undone(monkeypatch):
    from derivcalc import leibniz, reconstruct

    originals = [(leibniz, "nested_defect"), (reconstruct, "fit_operator")]
    for module, name in originals:
        original = getattr(module, name)
        with monkeypatch.context() as patch:
            patch.setattr(module, name, lambda *args: None)
            assert getattr(derivcalc, name) is getattr(cli, name) is getattr(module, name)
            assert getattr(derivcalc, name) is not original
        assert getattr(derivcalc, name) is getattr(cli, name) is original
        # nothing was stored where a later read would find it first
        assert name not in vars(derivcalc) and name not in vars(cli)


def test_not_in_o0_error_is_one_class():
    from derivcalc import deriv, leibniz

    assert deriv.NotInO0Error is leibniz.NotInO0Error is derivcalc.NotInO0Error


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_cold_order_of_an_identity_part_is_an_error(flag):
    message = "operator has an identity component, E(1) != 0"
    proc = subprocess.run(
        [sys.executable, "-m", "derivcalc.cli", *flag, "order", "--k", "1", "--op", "(1)"],
        capture_output=True, text=True, timeout=60, env=_child_env(PYTHONWARNINGS="error"),
    )
    expected = json.dumps({"error": message}) if flag else f"error: {message}"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, expected + "\n", "")


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "apply", "--k", "1", "--op", "d[2", "--expr", "t1")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "op, offset",
    [("2 * d[1] * t1", 9), ("d[1] * t1", 5), ("d[1]^2", 4), ("d[1] / 2", 5), ("-d[1] * t1", 6)],
)
def test_cli_factor_after_d_is_one_parse_error(capsys, op, offset):
    # with a coefficient before d[...] or without one, the same message
    # at the offset of the operator that follows d[...]
    code, out, err = run_cli(capsys, "apply", "--k", "1", "--op", op, "--expr", "t1")
    assert (code, out) == (2, "")
    assert err == f"parse error: coefficient factors must precede d[...] (at offset {offset})\n"


def test_cli_apply_subtracted_operator_term(capsys):
    code, out, err = run_cli(
        capsys, "apply", "--k", "1", "--op", "d[2] - t1*d[1]", "--expr", "t1^3"
    )
    assert (code, out, err) == (0, "result: -3*t1^3 + 6*t1\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["apply", "--k", "1", "--op", "1/0 * d[1]", "--expr", "t1"],
            "zero denominator in rational (at offset 2)",
        ),
        (
            ["apply", "--k", "2", "--deriv", "t3 -> 1", "--expr", "t1"],
            "unknown variable t3 (at offset 0)",
        ),
        (
            ["apply", "--k", "1", "--deriv", "t1 -> 1; t1 -> 2", "--expr", "t1"],
            "duplicate image for t1 (at offset 9)",
        ),
        (["fit", "--k", "1", "--n", "1", "--table", "[]"], "table JSON must be an object"),
        (["reconstruct", "--grid", "{}"], 'grid JSON needs "k", "n" and "values"'),
        (
            ["recurrence", "--coeffs", "{}", "--seq", "[]"],
            "expected a JSON array of expression strings",
        ),
    ],
)
def test_cli_reader_errors_name_their_cause(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_cli_usage_error_exit_code(capsys):
    assert main(["order", "--k", "1", "--bogus"]) == 2


def test_cli_json_and_human_agree(capsys):
    code, out, _ = run_cli(capsys, "--json", "order", "--k", "1", "--op", "d[2]")
    assert code == 0
    payload = json.loads(out)
    code, out, _ = run_cli(capsys, "order", "--k", "1", "--op", "d[2]")
    assert f"order: {payload['order']}" == out.strip()

    code, out, _ = run_cli(capsys, "--json", "expoly", "--k", "1", "--op", "d[2]")
    payload = json.loads(out)
    code, human, _ = run_cli(capsys, "expoly", "--k", "1", "--op", "d[2]")
    assert f"exponent polynomial: {payload['exponent_polynomial']}" in human
    assert f"degree: {payload['degree']}" in human

    code, out, _ = run_cli(
        capsys, "--json",
        "fit", "--k", "1", "--n", "0", "--require-o0", "--table", '{"t1":"1"}',
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["infeasible"] is True and payload["row"] == 0
