"""derivcalc benchmark: four seeded workloads, end-to-end and per layer.

Run from the repository root::

    python3 bench/run.py --workload degree-fit --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the named workload untraced for ``--seconds`` and
prints its end-to-end metrics.  With ``--workload all`` it measures every
workload in turn, each in a process of its own so that no workload's memory
or caches carry into the next, and names each metric by its workload.
``--trace 1`` runs the traced pass of every workload, a fixed block of
checks each, and prints the per-layer metrics named by workload.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance and each metric by name and unit.

The benchmark uses the package straight from ``src/``; without it, it exits
with code 2 and prints no result.  It needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("order-compose", "degree-fit", "char2-blackbox", "cli-cold")
DEFAULT_SEED = 1729


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "derivcalc", "__init__.py")):
        print(f"bench: no derivcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import derivcalc

    if os.path.dirname(os.path.abspath(derivcalc.__file__)) != os.path.join(SRC, "derivcalc"):
        print(f"bench: derivcalc imported from {derivcalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.trace:
        return run_each(args)
    import harness

    bench = harness.Bench(ROOT, args.seed)
    names = WORKLOADS if args.trace else (args.workload,)
    print("# " + json.dumps(harness.provenance(bench, names)))
    if args.trace:
        metrics = bench.trace_all()
        units = {name: unit for name, unit, _ in harness.per_layer_spec()}
        print(f"# traced checks per workload: {json.dumps(harness.TRACE_CHECKS)}")
    else:
        got = bench.measure(args.workload, args.seconds)
        print(f"# {args.workload}: {json.dumps(got['notes'])}")
        metrics = got["metrics"]
        units = dict(harness.END_TO_END)
    for key, value in metrics.items():
        print(f"{key} = {value} {units[key]}")
    for failure in bench.failures:
        print(f"# failed check: {failure}")
    for layer in sorted(bench.untraced_layers):
        print(f"# not traced, not found: {layer}")
    correct = bench.failed == 0
    print(harness.result_line(correct, bench.attempted, bench.failed, metrics, units))
    return 0


def run_each(args) -> int:
    """``--workload all --trace 0``: one child process per workload."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line if line.startswith("#") else f"{name}.{line}")
        got = json.loads(lines[-1])
        correct = correct and got["correct"]
        attempted += got["attempted"]
        failed += got["failed"]
        metrics.update({f"{name}.{key}": m for key, m in got["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
