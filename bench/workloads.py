"""The four benchmark workloads.

A workload turns a ``random.Random`` into the inputs of one check
(``make_input``) and runs that check against its known answer
(``run_check``).  A check raises ``WrongAnswer`` when the program returns a
wrong verdict; any other exception is a failure too.  Inputs are drawn
before the clock starts, so the code under test only ever sees generated
values.

Library calls go through module attributes (``leibniz.nested_defect``, not a
name imported into this module) so that the tracer in ``tracing.py`` sees
every call the workload makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from random import Random

from derivcalc import cli, deriv, fixtures, genpoly, leibniz, reconstruct, sampling
from derivcalc.deriv import OpWord
from derivcalc.exactnum import GF2Poly, RatFunc

# Cold CLI calls go through the ``derivcalc.cli:main`` entry point.  The
# package has no ``__main__`` module, and ``python -m derivcalc.cli`` warns
# on every call because the package ``__init__`` already imports ``cli``.
# After main returns, the child writes its own peak RSS to stderr: the
# parent's RUSAGE_CHILDREN figure would include the parent's memory, which a
# forked child counts until it execs.
CHILD_CODE = (
    "import sys\n"
    "from derivcalc.cli import main\n"
    "code = main()\n"
    "try:\n"
    "    hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
    "except OSError:\n"
    "    hwm = []\n"
    "print('peak_rss_kb=' + ''.join(hwm), file=sys.stderr)\n"
    "sys.exit(code)"
)


class WrongAnswer(AssertionError):
    """The program returned a verdict other than the known answer."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# order-compose: the exact-order theorem for a composition of derivations
# ---------------------------------------------------------------------------


class OrderCompose:
    name = "order-compose"
    why = (
        "exact order of a composition of 4 derivations over Q(t1,t2): "
        "MultiPoly multiply and DiffOp nested defects; no gcd in the "
        "defects, only exponent_polynomial's on monomials"
    )
    k, n = 2, 4
    vanish_tuples, witness_budget = 5, 50

    def make_input(self, rng: Random, index: int):
        k, n = self.k, self.n
        derivations = [sampling.random_derivation(rng, k, max_degree=2, bound=3) for _ in range(n)]
        vanish = [sampling.random_defect_tuple(rng, k, n + 1) for _ in range(self.vanish_tuples)]
        witness = [sampling.random_defect_tuple(rng, k, n) for _ in range(self.witness_budget)]
        return derivations, vanish, witness

    def run_check(self, inp) -> None:
        derivations, vanish, witness = inp
        n = self.n
        E = deriv.normalize(OpWord.composition(derivations))
        require(E.degree == n, f"canonical degree {E.degree}, expected {n}")
        p = genpoly.exponent_polynomial(E)
        require(genpoly.expoly_degree(p) == n, "exponent-polynomial degree differs from n")
        for tup in vanish:
            require(
                leibniz.nested_defect(E, tup[0], tup[1:]).is_zero,
                f"a {n}-fold nested defect is nonzero",
            )
        require(
            any(not leibniz.nested_defect(E, tup[0], tup[1:]).is_zero for tup in witness),
            f"no nonzero {n - 1}-fold witness in {self.witness_budget} tuples",
        )


# ---------------------------------------------------------------------------
# degree-fit: degree checks, table fitting and grid reconstruction
# ---------------------------------------------------------------------------


def table_elements(rng: Random, k: int, count: int) -> list[RatFunc]:
    """Distinct non-monomial polynomials to tabulate an operator on."""
    elements: list[RatFunc] = []
    while len(elements) < count:
        p = sampling.random_multipoly(rng, k, max_degree=2, nonzero=True)
        x = RatFunc.from_poly(p)
        if not p.is_monomial and x not in elements:
            elements.append(x)
    return elements


class DegreeFit:
    name = "degree-fit"
    why = (
        "degree check, table fit and grid reconstruction of a k=2, n=2 "
        "operator with monomial denominators: RatFunc add, poly_gcd and "
        "exact_div"
    )
    k, n = 2, 2
    degree_sets, table_size = 10, 10

    def make_input(self, rng: Random, index: int):
        k, n = self.k, self.n
        E = sampling.random_diffop(rng, k, n, in_o0=True, exact_degree=True, den_style="monomial")

        def sparse():
            return RatFunc.from_poly(sampling.random_sparse_poly(rng, k, max_degree=2))

        sets = [([sparse() for _ in range(n + 1)], [sparse()]) for _ in range(self.degree_sets)]
        return E, sets, table_elements(rng, k, self.table_size)

    def run_check(self, inp) -> None:
        E, sets, elements = inp
        k, n = self.k, self.n
        f = genpoly.over_identity(E)
        for incs, pts in sets:
            require(genpoly.gp_degree_check(f, n, incs, pts).ok, f"degree <= {n} refuted")
        require(
            any(not genpoly.gp_degree_check(f, n - 1, incs, pts).ok for incs, pts in sets),
            f"no set refutes degree <= {n - 1}",
        )
        table = leibniz.MapTable.tabulate(E, elements, k)
        fit = reconstruct.fit_operator(table, n, require_o0=True)
        require(fit.ok and fit.operator == E, "fit_operator did not recover the operator")
        grid = reconstruct.GridValues.tabulate(E, n)
        require(reconstruct.reconstruct_operator(grid) == E, "grid reconstruction differs")


# ---------------------------------------------------------------------------
# char2-blackbox: the characteristic-2 fixtures on a fresh black-box map
# ---------------------------------------------------------------------------


class BlackBoxMap:
    """D_b(p) = char2_D(p) + b * p' over GF(2)[x].  A fresh callable per
    check, so nothing keyed on the map carries over.  It calls ``char2_D``
    exactly once per evaluation, which the tracer counts."""

    __slots__ = ("b",)

    def __init__(self, b: GF2Poly):
        self.b = b

    def __call__(self, p: GF2Poly) -> GF2Poly:
        return fixtures.char2_D(p) + self.b * p.formal_derivative()


class Char2BlackBox:
    name = "char2-blackbox"
    why = (
        "order check of a fresh black-box GF(2)[x] map plus the compose and "
        "product-ring fixtures: the black-box nested_defect recursion"
    )
    max_degree, max_power, product_exponent = 3, 8, 6

    def make_input(self, rng: Random, index: int):
        b = GF2Poly(rng.randrange(32))
        b1 = GF2Poly(rng.randrange(8))
        b2 = GF2Poly(rng.randrange(8))
        return b, b1, b2

    def run_check(self, inp) -> None:
        b, b1, b2 = inp
        rep = fixtures.char2_order_check(max_degree=self.max_degree, D=BlackBoxMap(b))
        require(rep.additive_ok, "black-box map reported non-additive")
        require(rep.defects2_vanish, "a 2-fold defect of the black-box map is nonzero")
        require(rep.derivation_witness is not None, "no product-rule witness")
        a = b2.formal_derivative() * b1
        comp = fixtures.char2_compose_check(a, d1_image=b1, d2_image=b2, max_power=self.max_power)
        require(comp.ok, "composition of two derivations is not first order")
        require(fixtures.product_ring_demo(self.product_exponent).ok, "product-ring demo failed")


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command
# ---------------------------------------------------------------------------


def _opt(flag: str, value) -> str:
    """``--flag=value``: a value such as ``-t1`` must not read as a flag."""
    return f"--{flag}={value}"


def _cmd_order(rng: Random):
    E = sampling.random_diffop(rng, 2, 2, in_o0=True)
    argv = ["order", "--k", "2", _opt("op", E)]
    return argv, {"order": leibniz.order_exact(E), "zero_map": E.is_zero}


def _cmd_apply(rng: Random):
    E = sampling.random_diffop(rng, 2, 2, in_o0=False)
    x = sampling.random_ratfunc(rng, 2)
    argv = ["apply", "--k", "2", _opt("op", E), _opt("expr", x)]
    return argv, {"result": str(deriv.apply_diffop(E, x))}


def _cmd_normalize(rng: Random):
    ds = [sampling.random_derivation(rng, 2) for _ in range(2)]
    word = " o ".join(f"({d})" for d in ds)
    E = deriv.normalize(OpWord.composition(ds))
    return ["normalize", "--k", "2", _opt("word", word)], {"operator": str(E), "degree": E.degree}


def _cmd_compose(rng: Random):
    E1 = sampling.random_diffop(rng, 2, 1, in_o0=False)
    E2 = sampling.random_diffop(rng, 2, 1, in_o0=False)
    out = deriv.compose(E1, E2)
    argv = ["compose", "--k", "2", _opt("op1", E1), _opt("op2", E2)]
    return argv, {"operator": str(out), "degree": out.degree}


def _cmd_defect(rng: Random):
    E = sampling.random_diffop(rng, 2, 2, in_o0=True)
    x, y1, y2 = sampling.random_defect_tuple(rng, 2, 3)
    argv = ["defect", "--k", "2", _opt("op", E), _opt("x", x), _opt("y", y1), _opt("y", y2)]
    return argv, {"defect": str(leibniz.nested_defect(E, x, (y1, y2))), "nesting": 2}


def _cmd_expoly(rng: Random):
    E = sampling.random_diffop(rng, 2, 2, in_o0=False)
    p = genpoly.exponent_polynomial(E)
    argv = ["expoly", "--k", "2", _opt("op", E)]
    return argv, {"exponent_polynomial": str(p), "degree": genpoly.expoly_degree(p)}


def _cmd_reconstruct(rng: Random):
    E = sampling.random_diffop(rng, 2, 2, in_o0=False, exact_degree=False)
    grid = reconstruct.GridValues.tabulate(E, 2)
    values = {",".join(map(str, i)): str(v) for i, v in grid.values.items()}
    argv = ["reconstruct", _opt("grid", json.dumps({"k": 2, "n": 2, "values": values}))]
    out = reconstruct.reconstruct_operator(grid)
    return argv, {"operator": str(out), "degree": out.degree}


def _cmd_fit(rng: Random):
    E = sampling.random_diffop(rng, 2, 1, in_o0=True)
    table = leibniz.MapTable.tabulate(E, table_elements(rng, 2, 4), 2)
    res = reconstruct.fit_operator(table, 1, require_o0=True)
    payload = json.dumps({str(x): str(y) for x, y in table})
    argv = ["fit", "--k", "2", "--n", "1", "--require-o0", _opt("table", payload)]
    return argv, {"operator": str(res.operator), "solution_dim": res.solution_dim}


def _cmd_recurrence(rng: Random):
    order = rng.randint(2, 3)
    coeffs = [rng.randint(-3, 3) for _ in range(order)] + [1]
    seq = [rng.randint(-5, 5) for _ in range(order)]
    while len(seq) < 10:
        seq.append(-sum(c * a for c, a in zip(coeffs, seq[-order:])))
    spec = reconstruct.RecurrenceSpec(
        tuple(RatFunc.const(1, c) for c in coeffs), tuple(RatFunc.const(1, a) for a in seq)
    )
    res = reconstruct.check_recurrence(spec)
    argv = [
        "recurrence",
        _opt("coeffs", json.dumps(list(map(str, coeffs)))),
        _opt("seq", json.dumps(list(map(str, seq)))),
    ]
    return argv, {"pass": res.ok, "first_failure": res.first_failure}


def _cmd_gpdeg(rng: Random):
    E = sampling.random_diffop(rng, 2, 1, in_o0=True)
    incs = [sampling.random_sparse_ratfunc(rng, 2, max_degree=2) for _ in range(2)]
    pts = [sampling.random_sparse_ratfunc(rng, 2, max_degree=2) for _ in range(2)]
    res = genpoly.gp_degree_check(genpoly.over_identity(E), 1, incs, pts)
    argv = ["gpdeg", "--k", "2", _opt("op", E), "--n", "1"]
    for g in incs:
        argv.append(_opt("increment", g))
    for x in pts:
        argv.append(_opt("point", x))
    return argv, {"pass": res.ok, "reason": res.reason}


class CliCold:
    name = "cli-cold"
    why = (
        "one cold interpreter per CLI call through derivcalc.cli:main, "
        "round-robin over ten cheap commands: start-up, import and parsing"
    )
    commands = (
        _cmd_order,
        _cmd_apply,
        _cmd_normalize,
        _cmd_compose,
        _cmd_defect,
        _cmd_expoly,
        _cmd_reconstruct,
        _cmd_fit,
        _cmd_recurrence,
        _cmd_gpdeg,
    )

    def __init__(self, src_dir: str):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.child_prefix = [sys.executable, "-c", CHILD_CODE]
        self.peak_rss_kb = 0  # largest peak a child reported

    def make_input(self, rng: Random, index: int):
        """The argv of one command and the library's own answer, which the
        child's ``--json`` output must equal."""
        argv, expected = self.commands[index % len(self.commands)](rng)
        return ["--json"] + argv, expected

    def run_check(self, inp) -> None:
        argv, expected = inp
        proc = subprocess.run(
            self.child_prefix + argv,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        _verify(argv, expected, proc.returncode, proc.stdout, proc.stderr)
        last = proc.stderr.rstrip().rpartition("\n")[2]
        if last.startswith("peak_rss_kb=") and last[12:].isdigit():
            self.peak_rss_kb = max(self.peak_rss_kb, int(last[12:]))

    def run_in_process(self, inp) -> None:
        """The same command through ``cli.main`` in this process; used by the
        traced run, which cannot see into a child."""
        argv, expected = inp
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        _verify(argv, expected, code, out.getvalue(), "")


def _verify(argv, expected, code: int, stdout: str, stderr: str) -> None:
    require(code == 0, f"{argv[1]} exited with {code}: {stderr.strip()[-200:]}")
    require(json.loads(stdout) == expected, f"{argv[1]} printed a different result")


def all_workloads(src_dir: str) -> dict:
    return {w.name: w for w in (OrderCompose(), DegreeFit(), Char2BlackBox(), CliCold(src_dir))}
