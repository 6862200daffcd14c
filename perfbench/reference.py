"""Host speed, measured by a fixed pure-Python workload.

The host's CPU speed drifts by 20% and more, for seconds to tens of
minutes at a time (see README, Noise), so raw times of the same code differ
between runs far more than the changes the benchmark must resolve.  The
worker runs this reference workload between ops and scales each op's time
by ``REFERENCE_S`` / (the mean time of the reference runs just before and
just after the op): times are reported at the speed at which the reference
takes ``REFERENCE_S``.  The reference is the benchmark's own code, like
the program's in kind (tuple recursion, regular expressions, small
integers, dicts), and never changes with the program.  Changing it, or
``REFERENCE_S``, changes every end-to-end time.
"""

from __future__ import annotations

from time import perf_counter

import oracle
import workloads

# Seconds the reference takes on the machine the benchmark was written on
# (x86-64, Python 3.11), when that machine runs at its faster speed.
REFERENCE_S = 0.0035

_K = oracle.parse("[](p0 -> p1) -> []p0 -> []p1")
_BOX_K = workloads.templates()["box_k"]["lines"]
_PROOF = {"system": "LPBox", "premises": [], "lines": _BOX_K, "conclusion": _BOX_K[-1]["formula"]}


def _work() -> None:
    oracle.check_proof(_PROOF)
    oracle.first_countermodel("kripke-all", 2, [0, 1], [], _K)


def reference_seconds() -> float:
    """Time of the reference workload now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from raw to reference-speed time for work done between two
    reference measurements."""
    return REFERENCE_S / ((before + after) / 2)
