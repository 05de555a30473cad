"""Self-tests of the benchmark: the tracer sees every layer, counts repeat
exactly, and the correctness gates reject wrong answers.

Run with the rest of the suite, or alone from the repository root::

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import derivcalc  # noqa: E402
from derivcalc import cli, deriv, exactnum, fixtures, genpoly, leibniz, reconstruct  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_FIELDS = ("calls", "evals_per_call", "nontrivial_ratio", "terms_max", "coeff_bits_max")


@pytest.fixture(scope="module")
def traced_once():
    """Per-layer metrics over one check per workload."""
    return harness.Bench(ROOT, seed=11).trace_all(checks=1)


def test_tracer_replaces_every_binding_site():
    originals = (leibniz.nested_defect, deriv.normalize, reconstruct.fit_operator, exactnum.poly_gcd)
    with tracing.Tracer() as tr:
        assert not tr.missing
        assert fixtures.nested_defect is leibniz.nested_defect is cli.nested_defect
        assert leibniz.nested_defect.__wrapped__ is originals[0]
        assert cli.normalize is deriv.normalize is derivcalc.normalize
        assert deriv.normalize.__wrapped__ is originals[1]
        assert cli.fit_operator.__wrapped__ is originals[2]
        assert derivcalc.poly_gcd is exactnum.poly_gcd
        assert exactnum.poly_gcd.__wrapped__ is originals[3]
        assert exactnum.MultiPoly.__rmul__.__wrapped__ is exactnum.MultiPoly.__mul__.__wrapped__
    assert (leibniz.nested_defect, deriv.normalize, reconstruct.fit_operator, exactnum.poly_gcd) == originals
    assert fixtures.nested_defect is originals[0] and cli.normalize is originals[1]
    assert not hasattr(exactnum.MultiPoly.__mul__, "__wrapped__")


def test_every_named_layer_records_spans(traced_once):
    assert [name for name, _, _ in harness.per_layer_spec()] == list(traced_once)
    empty = [name for name, value in traced_once.items() if not value > 0]
    assert not empty


def test_order_compose_gcd_calls_come_from_exponent_polynomial():
    """No gcd runs inside the nested defects; every order-compose gcd call
    is made by exponent_polynomial, on a constant or monomial argument."""
    wl = workloads.OrderCompose()
    inp = wl.make_input(Random(11), 0)
    derivations, vanish, witness = inp
    E = deriv.normalize(deriv.OpWord.composition(derivations))
    with tracing.Tracer() as in_defects:
        for tup in vanish + witness:
            leibniz.nested_defect(E, tup[0], tup[1:])
    assert in_defects.layer("leibniz.nested_defect").calls == len(vanish + witness)
    assert in_defects.layer("exactnum.poly_gcd").calls == 0
    with tracing.Tracer() as in_expoly:
        genpoly.exponent_polynomial(E)
    with tracing.Tracer() as whole:
        wl.run_check(inp)
    gcd_calls = whole.layer("exactnum.poly_gcd").calls
    assert gcd_calls == in_expoly.layer("exactnum.poly_gcd").calls > 0


def test_counts_repeat_exactly(traced_once):
    again = harness.Bench(ROOT, seed=11).trace_all(checks=1)
    counts = [name for name in traced_once if name.rsplit(".", 1)[1] in COUNT_FIELDS]
    assert counts
    assert {n: traced_once[n] for n in counts} == {n: again[n] for n in counts}


def test_second_seed_passes_every_gate():
    wls = workloads.all_workloads(os.path.join(ROOT, "src"))
    for name, wl in wls.items():
        rng = Random(23)
        count = len(wl.commands) if name == "cli-cold" else 1
        for index in range(count):
            wl.run_check(wl.make_input(rng, index))
    if sys.platform.startswith("linux"):
        assert 0 < wls["cli-cold"].peak_rss_kb < 1 << 20


def test_wrong_answers_fail_the_check():
    wl = workloads.CliCold(os.path.join(ROOT, "src"))
    argv, expected = wl.make_input(Random(5), 0)
    wrong = dict(expected, order=expected["order"] + 1)
    with pytest.raises(workloads.WrongAnswer):
        wl.run_in_process((argv, wrong))
    with pytest.raises(workloads.WrongAnswer):
        wl.run_check((argv, wrong))
    bench = harness.Bench(ROOT, seed=5)
    assert bench._run(wl.run_in_process, (argv, wrong)) is None
    assert (bench.attempted, bench.failed) == (1, 1)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wls = workloads.all_workloads(os.path.join(ROOT, "src"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(n, wl.why) for n, wl in wls.items()]
    assert list(wls) == list(harness.LAYERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == harness.per_layer_spec()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "order-compose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
