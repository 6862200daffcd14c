"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Checker, Runner  # noqa: E402

from plausible.search import ModelClass, SearchBounds, enumerate_models  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _small(ops, limit=20):
    """Ops cheap enough for a unit test (no million-model searches)."""
    return [op for op in ops if op["expect"].get("models_checked", 0) < 100_000][:limit]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a")
    second = workloads.build(workload, 7, tmp_path / "b")
    as_text = lambda ops, d: json.dumps(ops).replace(str(d), "WORKDIR")  # noqa: E731
    assert as_text(first, tmp_path / "a") == as_text(second, tmp_path / "b")
    files_a = sorted((tmp_path / "a").rglob("*.json"))
    files_b = sorted((tmp_path / "b").rglob("*.json"))
    assert [p.name for p in files_a] == [p.name for p in files_b]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))
    other = workloads.build(workload, 8, tmp_path / "c")
    if workload in ("search-refute", "proofs"):
        assert as_text(other, tmp_path / "c") != as_text(first, tmp_path / "a")


@pytest.mark.parametrize(
    "cls, max_worlds, natoms",
    [
        ("constrained", 3, 1),
        ("constrained", 2, 2),
        ("raw", 2, 1),
        ("kripke-all", 2, 2),
        ("kripke-equiv", 4, 1),
        ("universal", 4, 2),
        ("universal", 3, 0),
    ],
)
def test_closed_forms_count_the_enumeration(cls, max_worlds, natoms):
    bounds = SearchBounds(ModelClass(cls), max_worlds, tuple(range(natoms)))
    expected = oracle.model_count(cls, max_worlds, natoms)
    assert len(list(enumerate_models(bounds))) == expected
    frames = sum(len(oracle.frames(cls, n)) * 2 ** (n * natoms) for n in range(1, max_worlds + 1))
    assert frames == expected


def test_reference_parser_reads_rendered_formulas():
    for text in ("[](p0 -> p1) -> []p0 -> []p1", "nabla(p0 | ~p0)", "p0 & p1 | p2 <-> ~<>p3"):
        f = oracle.parse(text)
        assert oracle.parse(oracle.render(f)) == f
    assert oracle.parse("p0 -> p1 -> p2") == ("imp", ("atom", 0), ("imp", ("atom", 1), ("atom", 2)))


def test_correct_outputs_pass_and_a_corrupted_expectation_fails(tmp_path):
    ops = workloads.build("search-refute", 3, tmp_path)[:15]
    runner = Runner(ops)
    checker = Checker(runner)
    _, _, outputs = runner.run_pass()
    checker.check_pass(outputs)
    assert (checker.attempted, checker.failed) == (15, 0)

    broken = json.loads(json.dumps(ops))
    broken[4]["expect"]["models_checked"] += 1
    runner = Runner(broken)
    checker = Checker(runner)
    checker.check_pass(outputs)
    assert checker.failed == 1
    assert "models_checked" in checker.errors[0]


def test_corrupted_program_output_fails(tmp_path):
    ops = workloads.build("experiments", 0, tmp_path)
    runner = Runner(ops)
    checker = Checker(runner)
    rc, out = runner.run_op(ops[0])
    checker.check_pass([(rc, out.replace("ExhaustedValid", "CountermodelFound"))])
    assert checker.failed == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_match(workload, tmp_path):
    ops = _small(workloads.build(workload, 5, tmp_path))
    runner = Runner(ops)
    _, _, plain = runner.run_pass()
    tracer = Tracer([runner.regenerate] if runner.regenerate else [])
    with tracer.installed():
        _, _, traced = runner.run_pass()
    assert traced == plain
    checker = Checker(runner)
    checker.check_pass(traced)
    assert checker.failed == 0, checker.errors

    metrics = tracer.metrics()
    exercised = {
        "search-exhaust": ["kernel.run_search_s", "kernel.models_checked", "kernel.eval_calls", "search.self_s"],
        "search-refute": ["cli.self_s", "syntax.parse_calls", "search.compile_s", "kernel.equiv_candidates"],
        "proofs": ["proofs.check_s", "proofs.lines_checked", "derivations.lines_out", "syntax.fits_dialect_s"],
        "experiments": ["algebra.candidates", "algebra.valid_algebras", "algebra.agreement_s"],
    }[workload]
    assert all(metrics[name] > 0 for name in exercised), metrics
    # The originals are back once the block ends.
    import plausible.cli
    import plausible.syntax

    assert plausible.cli.parse is plausible.syntax.parse
    assert not hasattr(plausible.cli.main, "__wrapped__")


def test_compare_refuses_mixed_backends(tmp_path):
    import subprocess

    def record(python):
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        return {"workload": "proofs", "backend": "python", "python": python,
                "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}

    base, change = tmp_path / "base.jsonl", tmp_path / "change.jsonl"
    base.write_text(json.dumps(record("3.11.7")) + "\n")
    change.write_text(json.dumps(record("3.12.1")) + "\n")
    compare = [sys.executable, str(ROOT / "perfbench" / "compare.py")]
    assert subprocess.run(compare + [str(base), str(change)], capture_output=True).returncode == 2
    assert subprocess.run(compare + [str(base), str(base)], capture_output=True).returncode == 0


def test_metrics_match_the_benchmark_spec():
    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric
    reported = set(tracing.METRICS) | {"models_per_s", "lines_per_s", "trace.overhead_ratio"}
    reported |= {f"import.{name}_ms" for name in run.IMPORT_MODULES}
    assert reported == {m["name"] for m in spec["per_layer"]}


def test_kernel_disagreement_fails_the_op(tmp_path, monkeypatch):
    ops = workloads.build("search-exhaust", 0, tmp_path)
    ops = [op for op in ops if op["expect"]["class"] == "raw"]
    runner = Runner(ops)
    checker = Checker(runner)
    checker.parity = True  # as when the compiled kernel imports
    monkeypatch.setattr(runner, "pure_python_output", lambda op: (0, "{}"))
    _, _, outputs = runner.run_pass()
    checker.check_pass(outputs)
    assert checker.failed == 1
    assert "disagree" in checker.errors[0]
