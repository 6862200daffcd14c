#!/usr/bin/env python3
"""Summarise or compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py runs.jsonl
    python3 perfbench/compare.py base.jsonl change.jsonl

With one file, prints each workload's metrics: median, quartiles and the
spread (interquartile distance as a share of the median).  With two files,
also prints the change of each median against the first file and marks an
end-to-end metric ``WORSE`` when it moved the wrong way by more than its
bound in BENCHMARK.json, or ``unresolved`` when the base's own spread is
wider than that bound.  Records whose backend or Python version differ are
never compared: the command refuses and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def environments(records: list[dict]) -> set[tuple[str, str]]:
    return {(r["backend"], r["python"]) for r in records}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def by_metric(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in records:
        for name, metric in r["result"]["metrics"].items():
            out[(r["workload"], name)].append(metric["value"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", type=Path, nargs="+", help="one file to summarise, or base then change")
    args = parser.parse_args()
    if len(args.files) > 2:
        parser.error("give one file, or a base file and a change file")

    runs = [load(path) for path in args.files]
    envs = set().union(*(environments(records) for records in runs))
    if len(envs) > 1:
        print(f"refusing to compare runs from different backends or Pythons: {sorted(envs)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    failed = sum(r["result"]["failed"] for records in runs for r in records)
    base = by_metric(runs[0])
    change = by_metric(runs[1]) if len(runs) == 2 else {}

    worse = False
    for key in sorted(base):
        workload, name = key
        med, q1, q3, spread = summary(base[key])
        line = f"{workload:15} {name:32} n={len(base[key]):<3} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:6.1%}"
        if key in change:
            new = statistics.median(change[key])
            delta = (new - med) / med if med else 0.0
            line += f"  change median={new:<12.6g} {delta:+7.1%}"
            if name in e2e:
                bound = e2e[name]["bound"]
                sign = 1 if e2e[name]["better"] == "lower" else -1
                if spread > bound:
                    line += "  unresolved"
                elif sign * delta > bound:
                    line += "  WORSE"
                    worse = True
        print(line)
    print(f"failed ops across all runs: {failed}")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
