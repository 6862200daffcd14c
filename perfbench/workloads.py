"""Seeded inputs for the four workloads, with the outputs they must produce.

Every workload is a list of ops.  An op is one ``plausible.cli.main(argv)``
call, except in ``experiments``, where it is one run of
``experiments/regenerate.py``'s ``main`` into memory.  Each op carries the
expectation the worker checks its output against; expectations come from
:mod:`oracle`, hand labels or the committed reports, never from the program
under test.  The same seed gives the same argv lists, files and
expectations.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
FIXTURES = Path("tests/fixtures/proofs")
REPORTS = ("k_experiment.json", "algebra_agreement.json")

WORKLOADS = ("search-exhaust", "search-refute", "proofs", "experiments")

# Hand-labelled theorems: each is ExhaustedValid on its class.  Together
# they give the kernel's premise, valuation-only and relation-filter paths
# one query each.
EXHAUST_QUERIES = [
    # (premises, formula, class, max worlds)
    ((), "[](p0 -> p1) -> []p0 -> []p1", "constrained", 4),
    (("p0 -> p1", "[]p0"), "[]p1", "constrained", 4),
    ((), "p0|~p0|p1|p2|p3|p4|p5", "universal", 3),
    ((), "[](p0 & p1) -> []p0 & []p1", "kripke-all", 3),
    ((), "<>p0 -> []<>p0", "kripke-equiv", 4),
    ((), "p0 -> []<>p0", "kripke-equiv", 4),
    ((), "[]p0 -> [][]p0", "kripke-equiv", 4),
    ((), "[](p0 & p1) -> [](p1 & p0)", "raw", 2),
]

# search-refute rotates over these classes; the atom cap keeps an
# exhausting query at or below about 35,000 models (see oracle.model_count).
# Raw 1-world models already refute nearly every refutable box formula, so
# raw gets no 2-world slots.
REFUTE_CLASSES = [
    # (class, max worlds, atom cap, modal operators, 2-world slots)
    ("constrained", 3, 3, ("box",), True),
    ("raw", 2, 3, ("box",), False),
    ("kripke-all", 3, 2, ("box", "dia"), True),
    ("kripke-equiv", 4, 2, ("box", "dia"), True),
    ("universal", 4, 3, ("box", "dia"), True),
]
REFUTE_QUERIES = 300
MAX_DRAWS = 10_000
REFUTE_DEPTHS = range(2, 5)

BOX_K_FILES = 20
NABLA_FILES = 20
PROOF_DEPTHS = range(2, 7)


def depth(f) -> int:
    return 1 + max(map(depth, f[1:])) if f[0] in oracle.UNARY or f[0] in oracle.BINARY else 0


def random_formula(rng: random.Random, size: int, natoms: int, modal: tuple[str, ...], depths: range):
    """A formula of exactly ``size`` connectives and leaves over
    p0..p(natoms-1), with its depth in ``depths``.  Fixing the size keeps
    the cost of evaluating it, and so of a pass, nearly the same across
    seeds."""
    while True:
        f = _sized_formula(rng, size, natoms, modal)
        if depth(f) in depths:
            return f


def _sized_formula(rng: random.Random, size: int, natoms: int, modal: tuple[str, ...]):
    if size == 1:
        if rng.random() < 0.1:
            return (rng.choice(("top", "bot")),)
        return ("atom", rng.randrange(natoms))
    unary = ("not",) + modal
    op = rng.choice(unary if size == 2 else unary + ("and", "or", "imp", "iff"))
    if op in oracle.BINARY:
        left = rng.randint(1, size - 2)
        return (op, _sized_formula(rng, left, natoms, modal), _sized_formula(rng, size - 1 - left, natoms, modal))
    return (op, _sized_formula(rng, size - 1, natoms, modal))


def _search_op(premises, target, cls: str, max_worlds: int) -> dict:
    atom_list = sorted(set().union(oracle.atoms(target), *(oracle.atoms(g) for g in premises)))
    argv = ["consequence" if premises else "valid", oracle.render(target)]
    for g in premises:
        argv += ["--gamma", oracle.render(g)]
    argv += ["--class", cls, "--max-worlds", str(max_worlds)]
    return {
        "argv": argv,
        "expect": {
            "kind": "search",
            "class": cls,
            "max_worlds": max_worlds,
            "atoms": atom_list,
            "premises": [oracle.render(g) for g in premises],
            "formula": oracle.render(target),
        },
    }


def search_exhaust(rng: random.Random, workdir: Path) -> list[dict]:
    ops = []
    for premises, text, cls, max_worlds in EXHAUST_QUERIES:
        op = _search_op([oracle.parse(g) for g in premises], oracle.parse(text), cls, max_worlds)
        expect = op["expect"]
        expect["verdict"] = "ExhaustedValid"
        expect["models_checked"] = oracle.model_count(cls, max_worlds, len(expect["atoms"]))
        ops.append(op)
    rng.shuffle(ops)
    return ops


def search_refute(rng: random.Random, workdir: Path) -> list[dict]:
    """Random queries on a fixed schedule of strata, so that every seed gives
    passes of about the same cost.  Per class, one slot in eight must come
    out ExhaustedValid over a set atom count (its model count is then the
    closed form), four slots in sixty must be refuted by a 2-world model and
    the rest by a 1-world model, about the shares random queries show; one
    slot in five is a consequence query; formula sizes follow the slot.
    Formulas are drawn until the reference search gives the slot's
    outcome."""
    ops = []
    for i in range(REFUTE_QUERIES):
        cls, max_worlds, cap, modal, two_world = REFUTE_CLASSES[i % len(REFUTE_CLASSES)]
        slot = i // len(REFUTE_CLASSES)
        exhausted = slot % 8 == 1
        worlds = 2 if two_world and slot % 15 == 7 else 1
        for _ in range(MAX_DRAWS):
            natoms = 1 + slot // 8 % cap if exhausted else rng.randint(1, cap)
            premises = []
            if slot % 5 == 0:
                premises = [
                    random_formula(rng, 4 + (slot + k) % 3, natoms, modal, REFUTE_DEPTHS)
                    for k in range(1 + slot // 5 % 2)
                ]
            target = random_formula(rng, 4 + slot % 6, natoms, modal, REFUTE_DEPTHS)
            op = _search_op(premises, target, cls, max_worlds)
            expect = op["expect"]
            if exhausted and len(expect["atoms"]) != natoms:
                continue
            verdict, checked, model, world = oracle.first_countermodel(
                cls, max_worlds, expect["atoms"], premises, target
            )
            if model is None if exhausted else model is not None and model.worlds == worlds:
                break
        else:
            raise RuntimeError(f"no query found for slot {i} of search-refute")
        expect["verdict"] = verdict
        expect["models_checked"] = checked
        if model is not None:
            expect["countermodel"] = model_to_json(model)
            expect["world"] = world
        ops.append(op)
    return ops


def model_to_json(m: oracle.Model) -> dict:
    """The oracle model as JSON, for the inputs file."""
    frame = [sorted(x) if isinstance(x, frozenset) else x for x in m.frame]
    return {"kind": m.kind, "worlds": m.worlds, "frame": frame, "valuation": [list(p) for p in m.valuation]}


def model_from_json(data: dict) -> oracle.Model:
    frame = tuple(frozenset(x) if isinstance(x, list) else x for x in data["frame"])
    return oracle.Model(data["kind"], data["worlds"], frame, tuple(tuple(p) for p in data["valuation"]))


def templates() -> dict:
    """The committed proof templates (see make_templates.py)."""
    with open(HERE / "data" / "templates.json", encoding="utf-8") as handle:
        return json.load(handle)


def _instantiate(template: dict, table: dict[int, tuple], offset: int) -> list[dict]:
    """Template lines with atoms replaced and line references shifted."""
    lines = []
    for line in template["lines"]:
        entry = dict(line, formula=oracle.render(oracle.substitute(oracle.parse(line["formula"]), table)))
        if "refs" in entry:
            entry["refs"] = [r + offset for r in entry["refs"]]
        lines.append(entry)
    return lines


def _proof(system: str, lines: list[dict]) -> dict:
    return {"system": system, "premises": [], "lines": lines, "conclusion": lines[-1]["formula"]}


def proofs(rng: random.Random, workdir: Path) -> list[dict]:
    """LPBox box_k derivations and LNabla chains of nabla_top and nabla_h,
    each instantiated over random formulas of depth 2-6 and 4-12 nodes,
    then checked and translated; plus a check of every committed proof
    fixture.  Sizes and chain lengths follow the file index, so every seed
    gives about the same amount of text."""
    template = templates()
    files = []
    for i in range(BOX_K_FILES):
        table = {a: random_formula(rng, 4 + (i + 4 * a) % 9, 3, ("box",), PROOF_DEPTHS) for a in (0, 1)}
        files.append(_proof("LPBox", _instantiate(template["box_k"], table, 0)))
    for i in range(NABLA_FILES):
        lines = _instantiate(template["nabla_top"], {}, 0)
        for block in range(1 + i % 3):
            table = {a: random_formula(rng, 4 + (i + 3 * block + 4 * a) % 9, 3, ("nabla",), PROOF_DEPTHS) for a in (0, 1)}
            lines += _instantiate(template["nabla_h"], table, len(lines))
        files.append(_proof("LNabla", lines))

    proof_dir = workdir / "proofs"
    proof_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, data in enumerate(files):
        path = proof_dir / f"proof_{i:03d}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        accepted, _ = oracle.check_proof(data)
        if not accepted:
            raise RuntimeError(f"generated proof {path} is not a proof")
        ops.append(_checkproof_op(str(path), data))
        target = "nabla" if data["system"] == "LPBox" else "box"
        ops.append({
            "argv": ["translate", str(path), "--to", target],
            "expect": {
                "kind": "translate",
                "system": "LNabla" if target == "nabla" else "LPBox",
                "conclusion": oracle.render(oracle.swap_dialect(oracle.parse(data["conclusion"]))),
                "lines_in": len(data["lines"]),
            },
        })
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        op = _checkproof_op(str(path), data)
        # Hand label: exactly the broken_* fixtures are rejected.
        if op["expect"]["accepted"] == path.name.startswith("broken_"):
            raise RuntimeError(f"reference checker disagrees with the label of {path}")
        ops.append(op)
    rng.shuffle(ops)
    return ops


def _checkproof_op(path: str, data: dict) -> dict:
    accepted, line = oracle.check_proof(data)
    return {
        "argv": ["checkproof", path],
        "expect": {
            "kind": "checkproof",
            "accepted": accepted,
            "line": line,
            "system": data["system"],
            "conclusion": oracle.render(oracle.parse(data["conclusion"])),
            "lines": len(data["lines"]),
        },
    }


def experiments(rng: random.Random, workdir: Path) -> list[dict]:
    files = {name: (Path("experiments") / name).read_text(encoding="utf-8") for name in REPORTS}
    return [{"argv": ["experiments/regenerate.py"], "expect": {"kind": "regenerate", "files": files}}]


GENERATORS = {
    "search-exhaust": search_exhaust,
    "search-refute": search_refute,
    "proofs": proofs,
    "experiments": experiments,
}


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The ops of one pass of ``workload``; writes any input files under
    ``workdir``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
