#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `plaus` workbench.

Run from the repository root:

    python3 perfbench/run.py --workload search-refute --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own fresh worker, one
after another.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a traced run instead.  ``--out FILE``
appends the full record of each run (environment, metrics, raw samples) as
one JSON line, for ``perfbench/compare.py``.  The last line of standard
output is always the result object of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from reference import reference_seconds, scale  # noqa: E402

BENCH = Path(__file__).resolve().parent
REQUIRED = ("src/plausible/cli.py", "experiments/regenerate.py", "tests/fixtures/proofs")
WORKER_TIMEOUT_S = 150

# setup_s: a fresh interpreter that imports plausible.cli and answers `fmt p0`,
# as the `plaus` entry point does.  One warm-up run writes the bytecode cache.
SETUP_RUNS = 15
SETUP_CODE = "import sys; from plausible.cli import main; sys.exit(main(['fmt', 'p0']))"
SETUP_OUTPUT = '{\n  "formula": "p0",\n  "dialect": "Classical"\n}\n'

IMPORT_RUNS = 5
IMPORT_MODULES = (
    "plausible",
    "plausible.syntax",
    "plausible.proofs",
    "plausible.derivations",
    "plausible.semantics",
    "plausible._kernel_py",
    "plausible.search",
    "plausible.algebra",
    "plausible.cli",
)
_IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)")

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "semantics.s":
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio") or name.endswith("per_model"):
        return "ratio"
    return "count"


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def measure_setup(env) -> tuple[list[float], list[float], int]:
    """Seconds of each fresh `fmt p0` interpreter after a warm-up, the speed
    scale around each (see reference.py), and how many answers were wrong."""
    times = []
    scales = []
    wrong = 0
    before = reference_seconds()
    for i in range(SETUP_RUNS + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=60
        )
        elapsed = perf_counter() - start
        after = reference_seconds()
        if i:
            times.append(elapsed)
            scales.append(scale(before, after))
            wrong += proc.returncode != 0 or proc.stdout != SETUP_OUTPUT
        before = after
    return times, scales, wrong


def measure_imports(env) -> dict[str, float]:
    """Median cumulative import time of each plausible module, from
    -X importtime, scaled to reference speed like setup_s."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    before = reference_seconds()
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import plausible.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        after = reference_seconds()
        factor = scale(before, after)
        before = after
        for m in _IMPORT_LINE.finditer(proc.stderr):
            if m.group(3) in samples:
                samples[m.group(3)].append(int(m.group(2)) / 1e3 * factor)
    return {f"import.{name}_ms": statistics.median(v) for name, v in samples.items() if v}


def commit() -> str:
    if not Path(".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    workdir = Path(".perfbench-work") / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(workload, seed, workdir)
        (workdir / "inputs.json").write_text(json.dumps(ops), encoding="utf-8")
        env = program_env()
        setup, setup_scales, setup_wrong = measure_setup(env)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(workdir),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        worker = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        imports = measure_imports(env) if trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it, or it was never made
            pass

    # Each op's time at reference speed (see reference.py), as the median of
    # its untraced repeats.
    scaled_ms = [[ms * k for ms, k in zip(*p)] for p in zip(worker["latencies_ms"], worker["scales"])]
    op_ms = [statistics.median(column) for column in zip(*scaled_ms)]
    wall = sum(op_ms) / 1e3
    if trace:
        layers = worker["layers"]
        values = dict(layers)
        values["models_per_s"] = layers["kernel.models_checked"] / wall
        values["lines_per_s"] = (layers["proofs.lines_checked"] + layers["derivations.lines_out"]) / wall
        values.update(imports)
        values["trace.overhead_ratio"] = statistics.median(worker["traced_s"]) / statistics.median(
            sum(p) / 1e3 for p in scaled_ms
        )
    else:
        values = {
            "setup_s": statistics.median(t * k for t, k in zip(setup, setup_scales)),
            "wall_s": wall,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": percentile(op_ms, 90),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    attempted = worker["attempted"] + SETUP_RUNS
    failed = worker["failed"] + setup_wrong
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": worker["backend"],
        "python": worker["python"],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "ops_per_pass": len(ops),
        "errors": worker["errors"],
        "samples": {
            "setup_s": setup,
            "setup_scales": setup_scales,
            "latencies_ms": worker["latencies_ms"],
            "scales": worker["scales"],
            "traced_s": worker.get("traced_s", []),
        },
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
        },
    }


def report(record: dict) -> None:
    result = record["result"]
    print(
        f"# {record['workload']} seed={record['seed']} backend={record['backend']} "
        f"python={record['python']} nproc={record['nproc']} commit={record['commit']} "
        f"ops/pass={record['ops_per_pass']} passes={len(record['samples']['latencies_ms'])}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']:14.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':32} {rate:14.6g} ({result['failed']}/{result['attempted']} ops failed)")
    for error in record["errors"]:
        print(f"  FAILED {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each run's full record to this JSON-lines file")
    args = parser.parse_args()

    missing = [path for path in REQUIRED if not Path(path).exists()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_one(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(record)
        records.append(record)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")

    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in records
                for name, metric in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
