"""Per-layer tracing of `plausible`, installed from outside the program.

A :class:`Tracer` replaces each traced function at every module attribute
through which callers look it up (``from .syntax import parse`` binds
``plausible.cli.parse`` and ``plausible.proofs.parse`` as well as
``plausible.syntax.parse``), and restores the originals on exit.  Spans
nest on one stack, so a span's self time is its duration minus the time of
the spans it caused.  Per-model kernel functions get counters, not spans,
which keeps the overhead low enough to leave the kernel's share visible.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN, GENERATOR, COUNTER = "span", "generator", "counter"


def _parse_hook(t: "Tracer", args, result) -> None:
    t.counts["syntax.parse_chars"] += len(args[0])


def _check_hook(t: "Tracer", args, result) -> None:
    t.counts["proofs.lines_checked"] += len(args[0].lines)


def _translate_hook(t: "Tracer", args, result) -> None:
    t.counts["derivations.lines_in"] += len(args[0].lines)
    t.counts["derivations.lines_out"] += len(result.lines)


def _run_search_before(t: "Tracer", args) -> None:
    programs = args[3]
    t.target_program = programs[-1]
    t.target_evals_before = t.counts["kernel.target_evals"]


def _run_search_hook(t: "Tracer", args, result) -> None:
    t.counts["kernel.models_checked"] += result[1]
    if len(args[3]) > 1:
        t.counts["kernel.premise_models"] += result[1]
        t.counts["kernel.premise_passed"] += t.counts["kernel.target_evals"] - t.target_evals_before


def _structures_hook(t: "Tracer", args, item) -> None:
    if args[0] == t.equiv_class_id:
        t.counts["kernel.equiv_yielded"] += 1


def _eval_program_counter(t: "Tracer", fn):
    counts = t.counts

    def counted(prog, *rest):
        counts["kernel.eval_calls"] += 1
        if prog is t.target_program:
            counts["kernel.target_evals"] += 1
        return fn(prog, *rest)

    return counted


# (module, attribute, span name, kind, hook, only this module's attribute)
# Spans marked local trace only the calls made from that module.
LAYERS = [
    ("plausible.cli", "main", "cli.main", SPAN, None, False),
    ("plausible.syntax", "parse", "syntax.parse", SPAN, _parse_hook, False),
    ("plausible.syntax", "render", "syntax.render", SPAN, None, False),
    ("plausible.syntax", "fits_dialect", "syntax.fits_dialect", SPAN, None, False),
    ("plausible.search", "find_countermodel", "search", SPAN, None, False),
    ("plausible.search", "check_global_consequence", "search", SPAN, None, False),
    ("plausible.search", "run_k_experiment", "search", SPAN, None, False),
    ("plausible.search", "compile_program", "search.compile", SPAN, None, True),
    ("plausible.search", "_revalidate", "search.revalidate", SPAN, None, True),
    ("plausible.search", "nm_check_conditions", "semantics", SPAN, None, True),
    ("plausible.search", "relation_properties", "semantics", SPAN, None, True),
    ("plausible.search", "is_valid_in", "semantics", SPAN, None, True),
    ("plausible.search", "eval_model", "semantics", SPAN, None, True),
    ("plausible.search:_ACTIVE", "run_search", "kernel.run_search", SPAN, _run_search_hook, True),
    ("plausible._kernel_py", "structures", "kernel.structures", GENERATOR, _structures_hook, True),
    ("plausible._kernel_py", "is_equivalence", "kernel.equiv_candidates", COUNTER, None, True),
    ("plausible._kernel_py", "eval_program", "kernel.eval_calls", COUNTER, None, True),
    ("plausible.proofs", "check_proof", "proofs.check", SPAN, _check_hook, False),
    ("plausible.proofs", "proof_from_data", "proofs.from_data", SPAN, None, False),
    ("plausible.proofs", "proof_to_data", "proofs.to_data", SPAN, None, False),
    ("plausible.derivations", "translate_proof", "derivations.translate", SPAN, _translate_hook, False),
    ("plausible.algebra", "iter_sharp_maps", "algebra.candidates", GENERATOR, None, False),
    ("plausible.algebra", "iter_valid_algebras", "algebra.valid_algebras", GENERATOR, None, False),
    ("plausible.algebra", "alg_validates", "algebra.validates", SPAN, None, False),
    ("plausible.algebra", "agreement_report", "algebra.agreement", SPAN, None, False),
]

# Per-layer metric -> how it is read from one traced pass.
METRICS = {
    "cli.self_s": lambda t: t.self_time["cli.main"],
    "syntax.parse_s": lambda t: t.total["syntax.parse"],
    "syntax.parse_calls": lambda t: t.calls["syntax.parse"],
    "syntax.parse_chars": lambda t: t.counts["syntax.parse_chars"],
    "syntax.render_s": lambda t: t.total["syntax.render"],
    "syntax.fits_dialect_s": lambda t: t.total["syntax.fits_dialect"],
    "search.self_s": lambda t: t.self_time["search"],
    "search.compile_s": lambda t: t.total["search.compile"],
    "search.revalidate_s": lambda t: t.total["search.revalidate"],
    "semantics.s": lambda t: t.total["semantics"],
    "kernel.run_search_s": lambda t: t.total["kernel.run_search"],
    "kernel.models_checked": lambda t: t.counts["kernel.models_checked"],
    "kernel.structures_s": lambda t: t.total["kernel.structures"],
    "kernel.structures_yielded": lambda t: t.counts["kernel.structures"],
    "kernel.equiv_candidates": lambda t: t.counts["kernel.equiv_candidates"],
    "kernel.equiv_yield_ratio": lambda t: _ratio(t.counts["kernel.equiv_yielded"], t.counts["kernel.equiv_candidates"]),
    "kernel.eval_calls": lambda t: t.counts["kernel.eval_calls"],
    "kernel.evals_per_model": lambda t: _ratio(t.counts["kernel.eval_calls"], t.counts["kernel.models_checked"]),
    "kernel.premise_pass_ratio": lambda t: _ratio(t.counts["kernel.premise_passed"], t.counts["kernel.premise_models"]),
    "proofs.check_s": lambda t: t.total["proofs.check"],
    "proofs.lines_checked": lambda t: t.counts["proofs.lines_checked"],
    "proofs.from_data_s": lambda t: t.total["proofs.from_data"],
    "proofs.to_data_s": lambda t: t.total["proofs.to_data"],
    "derivations.translate_self_s": lambda t: t.self_time["derivations.translate"],
    "derivations.lines_in": lambda t: t.counts["derivations.lines_in"],
    "derivations.lines_out": lambda t: t.counts["derivations.lines_out"],
    "algebra.candidates": lambda t: t.counts["algebra.candidates"],
    "algebra.valid_algebras": lambda t: t.counts["algebra.valid_algebras"],
    "algebra.validates_s": lambda t: t.total["algebra.validates"],
    "algebra.agreement_s": lambda t: t.total["algebra.agreement"],
}

TIMES = {name for name in METRICS if name.endswith("_s") or name == "semantics.s"}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.equiv_class_id = sys.modules["plausible._kernel_py"].CLASS_KRIPKE_EQUIV
        self.reset()

    def reset(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)  # outermost spans only
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.target_program = None
        self.target_evals_before = 0
        self._stack: list[list[float]] = []
        self._open: Counter[str] = Counter()

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """The per-layer metrics of the pass, times multiplied by ``scale``."""
        return {name: read(self) * (scale if name in TIMES else 1) for name, read in METRICS.items()}

    # -- wrappers ----------------------------------------------------------

    def _enter(self, name: str) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _leave(self, name: str, frame: list[float], elapsed: float) -> None:
        self._stack.pop()
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][0] += elapsed
        self.self_time[name] += elapsed - frame[0]
        if not self._open[name]:
            self.total[name] += elapsed

    def _span(self, name, fn, hook):
        before = _run_search_before if name == "kernel.run_search" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before:
                before(self, args)
            frame = self._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, perf_counter() - start)
                self.calls[name] += 1
            if hook:
                hook(self, args, result)
            return result

        return span

    def _generator(self, name, fn, hook):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter(name)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(name, frame, perf_counter() - start)
                self.counts[name] += 1
                if hook:
                    hook(self, args, item)
                yield item

        return generator

    def _counter(self, name, fn):
        if name == "kernel.eval_calls":
            return _eval_program_counter(self, fn)
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        patched = []
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("plausible")]
        modules += self.extra_modules
        try:
            for module_name, attr, name, kind, hook, local in LAYERS:
                owner_name, _, via = module_name.partition(":")
                owner = sys.modules[owner_name]
                if via:
                    owner = getattr(owner, via)
                fn = getattr(owner, attr)
                if kind == SPAN:
                    wrapper = self._span(name, fn, hook)
                elif kind == GENERATOR:
                    wrapper = self._generator(name, fn, hook)
                else:
                    wrapper = self._counter(name, fn)
                for module in [owner] if local else modules:
                    for key, value in list(vars(module).items()):
                        if value is fn and (not local or key == attr):
                            patched.append((module, key, fn))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, fn in reversed(patched):
                setattr(module, key, fn)
