"""Measurement loops, metrics and the result line.

The untraced run (``measure``) is a closed loop with one caller: it draws a
check's inputs, runs the check, and only then draws the next, until
``seconds`` have passed.  Only the check itself is timed.  The traced run
(``trace_all``) works through a fixed block of checks per workload, first
untraced and then under the tracer, so every count repeats exactly for a
given seed and the ratio of the two passes is the tracing overhead.

Reference seconds.  On a shared host the speed of one vCPU drifts by tens
of percent over seconds to minutes as other tenants load the machine.  So
the untraced run also times a fixed pure-Python kernel
(``reference_kernel``, which never touches derivcalc) before the first
check and after each one, and multiplies each check's time by
``REFERENCE_S`` over the mean of the two kernel times around it.
End-to-end times are therefore seconds on a machine that runs the kernel in
``REFERENCE_S``.  A change to derivcalc cannot move the kernel, so it moves
the scaled metrics as much as the wall-clock ones, which are printed beside
them.  On a 2-vCPU x86-64 VM, over ten seeds per workload, the quartile
spread of checks/s was 11 to 14 % of the median on the wall clock and 3.6
to 6.6 % scaled.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from derivcalc import cli

import tracing
import workloads

# Each end-to-end metric: (name, unit).  fail_ratio is not among them: it is
# 0 on a correct program, so it is reported as failed/attempted instead.
END_TO_END = (
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# The tail is read at a fixed percentile per workload, so that it means the
# same on every commit.  At the default 25 s each leaves at least ten checks
# beyond it at the seed commit's speed on a 2-vCPU x86-64 VM.
TAIL_PERCENTILE = {"order-compose": 80, "degree-fit": 75, "char2-blackbox": 80, "cli-cold": 90}

# Checks per workload in the traced run.
TRACE_CHECKS = {"order-compose": 6, "degree-fit": 4, "char2-blackbox": 6, "cli-cold": 10}

# About the reference kernel's duration on an idle 2-vCPU x86-64 VM under
# CPython 3.11; it only sets the scale of the reported times.
REFERENCE_S = 0.004

# Set-up is repeated this often in a run and its median reported.
SETUP_ROUNDS = 5

# The warm-up check draws from its own fixed seed, so set-up time does not
# vary with --seed.
WARMUP_SEED = 7

# Per-layer metrics, by the workload they belong to: (layer, fields).
# Fields: calls, self_s, evals_per_call, nontrivial_ratio, terms_max and
# coeff_bits_max (the RatFunc result sizes).
LAYERS = {
    "order-compose": (
        ("exactnum.MultiPoly.mul", ("calls", "self_s")),
        ("exactnum.poly_gcd", ("calls",)),
        ("exactnum.RatFunc.mul", ("calls", "self_s")),
        ("exactnum.RatFunc.partial", ("calls", "self_s")),
        ("deriv.apply_diffop", ("calls", "self_s")),
        ("deriv.normalize", ("calls", "self_s")),
        ("deriv.compose", ("calls", "self_s")),
        ("leibniz.nested_defect", ("calls", "self_s", "evals_per_call")),
        ("genpoly.exponent_polynomial", ("calls", "self_s")),
    ),
    "degree-fit": (
        ("exactnum.MultiPoly.mul", ("calls", "self_s")),
        ("exactnum.MultiPoly.exact_div", ("calls", "self_s")),
        ("exactnum.poly_gcd", ("calls", "self_s", "nontrivial_ratio")),
        ("exactnum.RatFunc.add", ("calls", "self_s")),
        ("exactnum.RatFunc.mul", ("calls", "self_s")),
        ("exactnum.RatFunc.partial", ("calls", "self_s")),
        ("exactnum.RatFunc", ("terms_max", "coeff_bits_max")),
        ("deriv.apply_diffop", ("calls", "self_s")),
        ("genpoly.gp_degree_check", ("calls", "self_s", "evals_per_call")),
        ("reconstruct.fit_operator", ("calls", "self_s")),
        ("reconstruct.reconstruct_operator", ("calls", "self_s")),
    ),
    "char2-blackbox": (
        ("exactnum.GF2Poly.mul", ("calls", "self_s")),
        ("leibniz.nested_defect", ("calls", "self_s", "evals_per_call")),
        ("fixtures.char2_order_check", ("self_s",)),
        ("fixtures.char2_compose_check", ("self_s",)),
        ("fixtures.product_ring_demo", ("self_s",)),
        ("fixtures.char2_D", ("calls",)),
    ),
    "cli-cold": (),
}
CLI_LAYER = ("cli.process_start_ms", "cli.import_ms", "cli.parse_ms", "cli.main_ms")

# The functions cli.main parses its argument strings with.
CLI_PARSERS = ("parse_expr", "parse_diffop", "parse_derivation", "parse_word",
               "parse_table_json", "parse_grid_json", "parse_exprs_json")

# The cli layer times are medians of this many rounds.
CLI_ROUNDS = 5

FIELD = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "evals_per_call": ("evals/call", "lower"),
    "nontrivial_ratio": ("ratio", "higher"),
    "terms_max": ("terms", "lower"),
    "coeff_bits_max": ("bits", "lower"),
}


_KERNEL_A = {(i, j): (31 * i + 17 * j) % 23 - 11 for i in range(7) for j in range(7)
             if (i + j) % 2 == 0 or i < 3}
_KERNEL_B = {(i, j): Fraction((13 * i + 7 * j) % 19 - 9, 1 + (i + j) % 3)
             for i in range(6) for j in range(6) if i * j % 3 != 1}


def reference_kernel() -> int:
    """A fixed sparse product over tuple monomials, in the style of the
    engine's hot loop but independent of derivcalc, so its speed tracks the
    machine's and nothing else."""
    out: dict = {}
    for ma, ca in _KERNEL_A.items():
        for mb, cb in _KERNEL_B.items():
            m = (ma[0] + mb[0], ma[1] + mb[1])
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return len(out)


def reference_s() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for wl, layers in LAYERS.items():
        for layer, fields in layers:
            for field in fields:
                out.append((f"{wl}.{layer}.{field}", *FIELD[field]))
        if wl == "cli-cold":
            out += [(f"{wl}.{name}", "ms", "lower") for name in CLI_LAYER]
        out.append((f"{wl}.trace.overhead_ratio", "ratio", "higher"))
    return out


class Bench:
    def __init__(self, root: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.workloads = workloads.all_workloads(self.src)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.untraced_layers: set[str] = set()  # tracer targets not found

    # -- running checks ------------------------------------------------------

    def _run(self, fn, inp) -> float | None:
        """Time one check; None when it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            fn(inp)
        except Exception as exc:  # a crash is a failed check, not a crashed benchmark
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - start

    def child(self, code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=self.src),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )

    def child_import_s(self) -> float:
        """``import derivcalc`` timed inside a fresh interpreter."""
        code = (
            "import time; t = time.perf_counter(); import derivcalc; "
            "print(time.perf_counter() - t)"
        )
        return float(self.child(code).stdout)

    # -- untraced run ----------------------------------------------------------

    def setup(self, wl) -> tuple[float, float]:
        """One set-up: import in a fresh process, inputs, one warm-up check.
        The warm-up check counts as attempted like any other.  Returns the
        wall-clock and the reference-scaled duration."""
        ref = reference_s()
        import_s = self.child_import_s()
        start = time.perf_counter()
        self._run(wl.run_check, wl.make_input(Random(WARMUP_SEED), 0))
        wall = import_s + time.perf_counter() - start
        return wall, wall * REFERENCE_S * 2 / (ref + reference_s())

    def measure(self, name: str, seconds: float) -> dict:
        wl = self.workloads[name]
        attempted, failed = self.attempted, self.failed
        setups = [self.setup(wl) for _ in range(SETUP_ROUNDS)]
        rng = Random(self.seed)
        wall: list[float] = []  # successful checks, wall-clock seconds
        scaled: list[float] = []  # the same, reference seconds
        busy_wall = busy_scaled = 0.0  # every check, failed ones too
        index = 0
        ref = reference_s()
        deadline = time.perf_counter() + seconds
        while True:
            inp = wl.make_input(rng, index)
            index += 1
            before = time.perf_counter()
            took = self._run(wl.run_check, inp)
            spent = time.perf_counter() - before
            ref_after = reference_s()
            scale = REFERENCE_S * 2 / (ref + ref_after)
            ref = ref_after
            busy_wall += spent
            busy_scaled += spent * scale
            if took is not None:
                wall.append(took)
                scaled.append(took * scale)
            if time.perf_counter() >= deadline:
                break
        pct = TAIL_PERCENTILE[name]
        p50, tail = _latency_ms(scaled, pct)
        wall_p50, wall_tail = _latency_ms(wall, pct)
        return {
            "metrics": {
                "checks_per_s": len(scaled) / busy_scaled,
                "check_p50_ms": p50,
                "check_tail_ms": tail,
                "setup_s": statistics.median(s for _, s in setups),
                "peak_rss_mb": _peak_rss_kb(wl) / 1024,
            },
            "notes": {
                "checks": len(scaled),
                "tail_percentile": pct,
                "checks_beyond_tail": sum(1 for x in scaled if 1000 * x > tail),
                "fail_ratio": (self.failed - failed) / (self.attempted - attempted),
                "machine_speed": busy_wall and busy_scaled / busy_wall,
                "wall_checks_per_s": len(wall) / busy_wall,
                "wall_check_p50_ms": wall_p50,
                "wall_check_tail_ms": wall_tail,
                "wall_setup_s": statistics.median(w for w, _ in setups),
            },
        }

    # -- traced run --------------------------------------------------------------

    def trace_workload(self, name: str, checks: int | None = None) -> dict:
        """Per-layer metrics of one workload over its first ``checks`` checks."""
        wl = self.workloads[name]
        fn = wl.run_in_process if name == "cli-cold" else wl.run_check
        rng = Random(self.seed)
        inputs = [wl.make_input(rng, i) for i in range(checks or TRACE_CHECKS[name])]
        plain = sum(self._run(fn, inp) or 0.0 for inp in inputs)
        with tracing.Tracer() as tr:
            traced = sum(self._run(fn, inp) or 0.0 for inp in inputs)
        self.untraced_layers.update(tr.missing)
        out = {}
        for layer, fields in LAYERS[name]:
            for field in fields:
                out[f"{name}.{layer}.{field}"] = _field(tr, layer, field)
        if name == "cli-cold":
            out[f"{name}.cli.process_start_ms"] = 1000 * statistics.median(
                self._wall(lambda: self.child("pass")) for _ in range(CLI_ROUNDS)
            )
            out[f"{name}.cli.import_ms"] = 1000 * statistics.median(
                self.child_import_s() for _ in range(CLI_ROUNDS)
            )
            parse_ms, main_ms = self.cli_ms([argv for argv, _ in inputs])
            out[f"{name}.cli.parse_ms"] = parse_ms
            out[f"{name}.cli.main_ms"] = main_ms
        # traced checks_per_s over untraced checks_per_s, on the same checks
        out[f"{name}.trace.overhead_ratio"] = plain / traced if traced else 0.0
        return out

    def cli_ms(self, argvs) -> tuple[float, float]:
        """Untraced and in process, ms per command: the parse_* calls that
        cli.main makes on these argvs, and cli.main minus those calls."""
        calls = _parse_calls(argvs)

        def parse():
            for fn, args, kwargs in calls:
                fn(*args, **kwargs)

        def main():
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in argvs:
                    cli.main(argv)

        parse_s = statistics.median(self._wall(parse) for _ in range(CLI_ROUNDS))
        main_s = statistics.median(self._wall(main) for _ in range(CLI_ROUNDS))
        return 1000 * parse_s / len(argvs), 1000 * (main_s - parse_s) / len(argvs)

    @staticmethod
    def _wall(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def trace_all(self, checks: int | None = None) -> dict:
        out = {}
        for name in LAYERS:
            out.update(self.trace_workload(name, checks))
        return out


def _parse_calls(argvs) -> list:
    """The outermost parse_* calls cli.main makes on each argv, as
    (function, args, kwargs); a parse_* call made by another is left out."""
    calls: list = []
    depth = [0]

    def recorder(fn):
        def record(*args, **kwargs):
            if not depth[0]:
                calls.append((fn, args, kwargs))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return record

    originals = {name: getattr(cli, name) for name in CLI_PARSERS}
    try:
        for name, fn in originals.items():
            setattr(cli, name, recorder(fn))
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.main(argv)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return calls


def _peak_rss_kb(wl) -> int:
    """cli-cold: the largest peak its children reported (RUSAGE_CHILDREN
    where they could not).  Otherwise this process's peak, which is the
    workload's own: run.py measures every workload in a process of its own."""
    if isinstance(wl, workloads.CliCold):
        return wl.peak_rss_kb or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _latency_ms(seconds: list[float], pct: int) -> tuple[float, float]:
    """Median and the pct-th percentile, in ms; zeros when every check
    failed (the run is then reported as not correct anyway)."""
    ms = [x * 1000 for x in seconds] or [0.0]
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=100, method="inclusive")[pct - 1]


def _field(tr: tracing.Tracer, layer: str, field: str):
    if field in ("terms_max", "coeff_bits_max"):
        return getattr(tr.ratfunc, field)
    st = tr.layer(layer)
    if field == "calls":
        return st.calls
    if field == "self_s":
        return st.self_s
    if field == "evals_per_call":
        return st.evals / st.calls if st.calls else 0.0
    if field == "nontrivial_ratio":
        return st.nontrivial / st.calls if st.calls else 0.0
    raise KeyError(field)


def provenance(bench: Bench, names) -> dict:
    return {
        "seed": bench.seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loop": "closed loop, one caller, one check at a time",
        "cli_child_command": [sys.executable, "-c", workloads.CHILD_CODE, "--json", "<command>", "<--flag=value>..."],
        "cli_child_env": {"PYTHONPATH": bench.src},
        "why": {n: bench.workloads[n].why for n in names},
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
