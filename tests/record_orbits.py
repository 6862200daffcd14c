"""Record the ranks of the orbit-minimal structures the search scans.

Writes ``src/plausible/_orbits.py``.  For each class of the search kernel
but universal (one structure per world count) and each world count up to
the ``cap`` of the class's ``search.ModelClass`` member, it lists the
structures that no relabelling of the worlds maps to an earlier one in
the kernel's order, by their rank: their position in
``_kernel_py.structures``.
``_kernel_py.run_search`` scans only those.  The ranks of one (class,
world count) are one string of fixed-width hex numbers, which the kernel
decodes on first use.  ``test_search.TestOrbitTable`` checks the table
against a brute force of its own over ``perfbench/oracle.py``'s frames.
Run from the repository root:

    PYTHONPATH=src python3 tests/record_orbits.py

Rerunning it on an unchanged kernel rewrites the file byte for byte.
"""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

from plausible import _kernel_py
from plausible.search import ModelClass

OUT = Path(__file__).parent.parent / "src" / "plausible" / "_orbits.py"
HEX_PER_LINE = 96

HEADER = '''"""Ranks of the orbit-minimal structures of each search class.

Written by ``tests/record_orbits.py``; do not edit.  ``RANKS[class id,
worlds]`` lists, ascending and as ``WIDTH``-digit hex numbers, the ranks
of the structures that no relabelling of the worlds maps to an earlier
one: a rank is a structure's position in ``_kernel_py.structures``.
"""
'''


def relabel(class_id: int, n: int, struct: tuple, perm: tuple[int, ...]) -> tuple:
    """``struct`` with each world ``w`` renamed ``perm[w]``."""

    def image(mask: int) -> int:
        return sum(1 << perm[z] for z in range(n) if (mask >> z) & 1)

    out = [0] * n
    for w, entry in enumerate(struct):
        if class_id == _kernel_py.CLASS_RAW:  # a family of world sets
            out[perm[w]] = sum(1 << image(x) for x in range(1 << n) if (entry >> x) & 1)
        else:  # a core or a row of successors
            out[perm[w]] = image(entry)
    return tuple(out)


def minimal_ranks(class_id: int, n: int) -> tuple[int, list[int]]:
    """``(count, ranks)``: the number of structures on ``n`` worlds and the
    ranks of the orbit-minimal ones.  Taken in order, a structure no
    earlier one reached by a relabelling is the least of its orbit."""
    order = list(_kernel_py.structures(class_id, n))
    rank = {s: i for i, s in enumerate(order)}
    reached = bytearray(len(order))
    minima = []
    for i, s in enumerate(order):
        if not reached[i]:
            minima.append(i)
            for perm in permutations(range(n)):
                reached[rank[relabel(class_id, n, s, perm)]] = 1
    return len(order), minima


def table() -> list[tuple[str, int, int, int, list[int]]]:
    """``(class name, class id, worlds, count, ranks)`` per table entry,
    by class id and then world count."""
    rows = []
    for mc in sorted(ModelClass, key=lambda mc: mc.kernel_id):
        if mc is not ModelClass.UNIVERSAL:
            for n in range(1, mc.cap + 1):
                rows.append((mc.value, mc.kernel_id, n, *minimal_ranks(mc.kernel_id, n)))
    return rows


def render(rows) -> str:
    width = max(len(f"{count - 1:x}") for _, _, _, count, _ in rows)
    lines = [HEADER, f"WIDTH = {width}", "", "RANKS = {"]
    for name, class_id, n, count, ranks in rows:
        text = "".join(f"{r:0{width}x}" for r in ranks)
        chunks = [text[i:i + HEX_PER_LINE] for i in range(0, len(text), HEX_PER_LINE)]
        lines.append(f"    # {name}/{n}: {len(ranks):,} of {count:,} structures")
        if len(chunks) == 1:
            lines.append(f'    ({class_id}, {n}): "{text}",')
        else:
            lines.append(f"    ({class_id}, {n}): (")
            lines += [f'        "{chunk}"' for chunk in chunks]
            lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    OUT.write_text(render(table()), encoding="utf-8")


if __name__ == "__main__":
    main()
