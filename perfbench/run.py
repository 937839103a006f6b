"""Benchmark of cfsearch: one named workload, one seed, one process.

    python3 perfbench/run.py --workload translation --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  The lines before it print every metric by name, with its unit and
sample count, plus the behaviour fingerprint and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BLAS pools would add threads to a single-core workload; pin them before
# numpy is imported, in this process and the set-up processes it starts.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("translation", "super_resolution", "search")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up in a fresh process, written to --out.
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def line(name: str, value, unit: str, samples) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<34} {shown:>14} {unit:<9} n={samples}"


def main(argv=None) -> int:
    args = parse_args(argv)
    original_threads = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the program from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2

    if args.setup_child:
        print(json.dumps(harness.setup_in_child(args.workload, args.out)))
        return 0

    declared = declared_metrics()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it

    import numpy

    checks = result["checks"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"environment: python {platform.python_version()}  numpy {numpy.__version__}  "
        f"nproc {os.cpu_count()}  cpu {cpu_model()!r}"
    )
    print(
        "  thread variables (as found, set to 1 here): "
        + ", ".join(f"{k}={v}" for k, v in original_threads.items())
    )
    e2e = result["end_to_end"]
    quality = result["quality"]
    print(f"end-to-end ({result['iterations']} timed iterations):")
    for name, (value, unit, n) in e2e.items():
        print(line(name, value, unit, n))
        if name == "iter_s" and args.workload != "search":
            print(line("run_all_s", value, unit, n))
    for name, (value, unit, n) in quality.items():
        print(line(name, value, unit, n))
    error_rate = len(checks.failures) / max(checks.attempted, 1)
    print(line("error_rate", error_rate, "ratio", checks.attempted))
    print(f"fingerprint: {result['fingerprint_match']}")
    print(f"  {json.dumps(result['fingerprint'], sort_keys=True)}")

    values = {**{k: v[0] for k, v in e2e.items()}, **{k: v[0] for k, v in quality.items()}}
    units = {**{k: v[1] for k, v in e2e.items()}, **{k: v[1] for k, v in quality.items()}}
    section = "end_to_end"
    if args.trace:
        from tracing import LAYER_METRICS

        values = result["layers"]
        units = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
        section = "per_layer"
        traced = result["traced_iterations"]
        print(f"per-layer (totals over one traced pass of {traced} iterations):")
        for name, value in values.items():
            print(line(name, float(value), units[name], traced))

    metrics = {}
    for name, unit in declared[section].items():
        if name not in values or units[name] != unit:
            print(f"metric {name} [{unit}] is declared but not produced", file=sys.stderr)
            return 3
        value = float(values[name])
        if not math.isfinite(value):
            checks.fail(f"metric {name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
