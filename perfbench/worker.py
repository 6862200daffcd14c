"""Run one workload's ops in a closed loop and check every output.

Started by ``run.py`` as a fresh interpreter, from the checkout root, with
``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py WORKDIR --seconds S --trace 0|1

It reads ``WORKDIR/inputs.json`` and writes ``WORKDIR/result.json``.  One
client sends the next op only after the previous one returned.  Passes
repeat until ``S`` seconds have gone and at least five untraced passes
ran; with ``--trace 1`` untraced and traced passes alternate, and three
untraced passes suffice.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import platform
import resource
import statistics
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle
from reference import reference_seconds, scale
from tracing import Tracer
from workloads import model_from_json

import plausible.cli
from plausible import _kernel_py
from plausible import search as plausible_search

# search-exhaust passes take seconds; five give each op's median enough
# repeats.  A traced run alternates with traced passes, so three keep it
# well inside its time limit.
MIN_UNTRACED_PASSES = 5
MIN_UNTRACED_PASSES_TRACED = 3
CALIBRATE_EVERY_S = 0.2


class _MemoryDir:
    """Stands in for ``regenerate.HERE`` so reports are built in memory."""

    def __init__(self):
        self.files: dict[str, str] = {}

    def __truediv__(self, name: str) -> "_MemoryFile":
        return _MemoryFile(self.files, name)


class _MemoryFile:
    def __init__(self, files: dict[str, str], name: str):
        self.files = files
        self.name = name

    def write_text(self, text: str, encoding: str | None = None) -> int:
        self.files[self.name] = text
        return len(text)

    def __str__(self) -> str:
        return self.name


def load_regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", "experiments/regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Runner:
    """Runs ops against the program; outputs are ``(exit code, stdout)``."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        needs_regenerate = any(op["expect"]["kind"] == "regenerate" for op in ops)
        self.regenerate = load_regenerate() if needs_regenerate else None
        self.reference_s: float | None = None

    def run_op(self, op: dict) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if op["expect"]["kind"] == "regenerate":
                    memory = _MemoryDir()
                    self.regenerate.HERE = memory
                    self.regenerate.main()
                    return 0, json.dumps(memory.files, sort_keys=True)
                # Looked up at call time, so a traced pass sees the wrapped main.
                return plausible.cli.main(op["argv"]), out.getvalue()
        except (Exception, SystemExit) as exc:  # a crashing op fails; the benchmark goes on
            return -1, f"{type(exc).__name__}: {exc}"

    def run_pass(self) -> tuple[list[float], list[float], list[tuple[int, str]]]:
        """One pass over every op: per-op milliseconds, per-op speed scales
        (see reference.py) and outputs.  The reference runs between ops,
        outside their timing, once at least CALIBRATE_EVERY_S went by."""
        latencies: list[float] = []
        scales: list[float] = []
        outputs = []
        if self.reference_s is None:
            self.reference_s = reference_seconds()
        since = perf_counter()
        for op in self.ops:
            start = perf_counter()
            outputs.append(self.run_op(op))
            end = perf_counter()
            latencies.append((end - start) * 1e3)
            if end - since >= CALIBRATE_EVERY_S or len(latencies) == len(self.ops):
                now = reference_seconds()
                scales += [scale(self.reference_s, now)] * (len(latencies) - len(scales))
                self.reference_s = now
                since = perf_counter()
        return latencies, scales, outputs

    def pure_python_output(self, op: dict) -> tuple[int, str]:
        """The op's output with the pure-Python kernel swapped in."""
        active = plausible_search._ACTIVE
        plausible_search._ACTIVE = _kernel_py
        try:
            return self.run_op(op)
        finally:
            plausible_search._ACTIVE = active


# ---------------------------------------------------------------------------
# Output checks.  Each returns None for a correct output, else the reason.


def check(op: dict, rc: int, out: str) -> str | None:
    expect = op["expect"]
    try:
        return _CHECKS[expect["kind"]](expect, rc, out)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return f"unreadable output ({type(exc).__name__}: {exc}): {out[:200]!r}"


def _check_search(expect: dict, rc: int, out: str) -> str | None:
    data = json.loads(out)
    found = expect["verdict"] == "CountermodelFound"
    if rc != (1 if found else 0):
        return f"exit code {rc}"
    if data["verdict"] != expect["verdict"]:
        return f"verdict {data['verdict']}, expected {expect['verdict']}"
    if data["models_checked"] != expect["models_checked"]:
        return f"models_checked {data['models_checked']}, expected {expect['models_checked']}"
    if data["class"] != expect["class"] or data["bounds"] != {
        "max_worlds": expect["max_worlds"],
        "atoms": expect["atoms"],
    }:
        return f"class or bounds differ: {data['class']} {data['bounds']}"
    premises = [oracle.parse(g) for g in expect["premises"]]
    target = oracle.parse(expect["formula"])
    if oracle.parse(data["formula"]) != target:
        return f"formula {data['formula']!r} is not {expect['formula']!r}"
    if premises and [oracle.parse(g) for g in data["gamma"]] != premises:
        return f"premises {data['gamma']} differ"
    if not found:
        return "unexpected countermodel" if "countermodel" in data else None
    model = oracle.model_from_data(data["countermodel"])
    world = data["world"]
    if model != model_from_json(expect["countermodel"]) or world != expect["world"]:
        return "countermodel differs from the reference search's first countermodel"
    full = (1 << model.worlds) - 1
    if not oracle.class_conditions_hold(expect["class"], model):
        return "countermodel is outside its class"
    if any(oracle.truth_set(model, g) != full for g in premises):
        return "countermodel does not validate the premises"
    if oracle.truth_set(model, target) >> world & 1:
        return "formula holds at the countermodel's world"
    return None


def _check_checkproof(expect: dict, rc: int, out: str) -> str | None:
    data = json.loads(out)
    if rc != (0 if expect["accepted"] else 1):
        return f"exit code {rc}"
    if data["accepted"] != expect["accepted"]:
        return f"accepted={data['accepted']}, expected {expect['accepted']}"
    if not expect["accepted"] and data["line"] != expect["line"]:
        return f"rejected at line {data['line']}, expected {expect['line']}"
    if data["system"] != expect["system"]:
        return f"system {data['system']}"
    if oracle.parse(data["conclusion"]) != oracle.parse(expect["conclusion"]):
        return f"conclusion {data['conclusion']!r}"
    return None


def _check_translate(expect: dict, rc: int, out: str) -> str | None:
    data = json.loads(out)
    if rc != 0:
        return f"exit code {rc}"
    if data["system"] != expect["system"] or data["premises"]:
        return f"translated to {data['system']} with premises {data['premises']}"
    if oracle.parse(data["conclusion"]) != oracle.parse(expect["conclusion"]):
        return f"conclusion {data['conclusion']!r} is not {expect['conclusion']!r}"
    accepted, line = oracle.check_proof(data)
    if not accepted:
        return f"translated proof fails the reference checker at line {line}"
    return None


def _check_regenerate(expect: dict, rc: int, out: str) -> str | None:
    files = json.loads(out)
    for name, text in expect["files"].items():
        if files.get(name) != text:
            return f"{name} differs from the committed report"
    return None


_CHECKS = {
    "search": _check_search,
    "checkproof": _check_checkproof,
    "translate": _check_translate,
    "regenerate": _check_regenerate,
}


class Checker:
    """Checks outputs; an output equal to one already checked for the same
    op is accepted without re-running the reference checkers."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.verified: dict[int, tuple[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.parity = plausible_search.kernel_backend() != "python"

    def check_pass(self, outputs: list[tuple[int, str]]) -> None:
        for i, (op, output) in enumerate(zip(self.runner.ops, outputs)):
            self.attempted += 1
            if self.verified.get(i) == output:
                continue
            reason = check(op, *output)
            if reason is None and self.parity and op["expect"]["kind"] == "search":
                if self.runner.pure_python_output(op) != output:
                    reason = "compiled and pure-Python kernels disagree"
            if reason is None:
                self.verified[i] = output
            else:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{' '.join(op['argv'])}: {reason}")


def measure(ops: list[dict], seconds: float, trace: bool) -> dict:
    runner = Runner(ops)
    checker = Checker(runner)
    tracer = Tracer([runner.regenerate] if runner.regenerate else []) if trace else None
    latencies: list[list[float]] = []
    scales: list[list[float]] = []
    traced_s: list[float] = []
    layers: list[dict[str, float]] = []
    start = perf_counter()
    while True:
        if tracer is not None and len(latencies) > len(traced_s):
            tracer.reset()
            with tracer.installed():
                op_ms, op_scales, outputs = runner.run_pass()
            traced_s.append(sum(ms * k for ms, k in zip(op_ms, op_scales)) / 1e3)
            layers.append(tracer.metrics(statistics.mean(op_scales)))
        else:
            op_ms, op_scales, outputs = runner.run_pass()
            latencies.append(op_ms)
            scales.append(op_scales)
        checker.check_pass(outputs)
        if tracer is None:
            enough = len(latencies) >= MIN_UNTRACED_PASSES
        else:
            enough = len(latencies) >= MIN_UNTRACED_PASSES_TRACED and traced_s
        if enough and perf_counter() - start >= seconds:
            break
    result = {
        "backend": plausible_search.kernel_backend(),
        "python": platform.python_version(),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "latencies_ms": latencies,
        "scales": scales,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["traced_s"] = traced_s
        result["layers"] = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ops = json.loads((args.workdir / "inputs.json").read_text(encoding="utf-8"))
    result = measure(ops, args.seconds, bool(args.trace))
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
