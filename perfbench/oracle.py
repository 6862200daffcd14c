"""Reference definitions that the benchmark checks `plaus` outputs against.

Nothing here imports `plausible`.  Formulas are tuples; models, truth sets,
class conditions, the enumeration order, the closed-form model counts and a
Hilbert proof checker are all written from the definitions in the README
and the kernel's documented order, so a defect in the program cannot hide
behind the same defect in its checker.

Formula tuples: ``("atom", i)``, ``("top",)``, ``("bot",)``, ``("not", a)``,
``("box", a)``, ``("dia", a)``, ``("nabla", a)`` and ``(op, a, b)`` for op in
``and``, ``or``, ``imp``, ``iff``.  Metavariables of schemas are
``("meta", k)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
UNARY = {"not": "~", "box": "[]", "dia": "<>", "nabla": "nabla "}


# ---------------------------------------------------------------------------
# Syntax


def render(f) -> str:
    """Formula text with every binary subformula parenthesised."""
    tag = f[0]
    if tag == "atom":
        return f"p{f[1]}"
    if tag == "meta":
        return chr(ord("A") + f[1])
    if tag == "top":
        return "true"
    if tag == "bot":
        return "false"
    if tag in UNARY:
        return UNARY[tag] + render(f[1])
    return f"({render(f[1])} {BINARY[tag]} {render(f[2])})"


_TOKEN = re.compile(r"\s*(<->|->|<>|\[\]|[~&|()]|nabla\b|true\b|false\b|p\d+\b|[A-Z]\b)")
_PREFIX = {"~": "not", "[]": "box", "<>": "dia", "nabla": "nabla"}


def parse(text: str):
    """Parse formula text: unary > & > | > -> > <->, both arrows to the right."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        at[0] += 1
        return tokens[at[0] - 1]

    def arrow(op, sub):
        left = sub()
        if peek() == BINARY[op]:
            take()
            return (op, left, arrow(op, sub))
        return left

    def chain(op, sub):
        left = sub()
        while peek() == BINARY[op]:
            take()
            left = (op, left, sub())
        return left

    def unary():
        tok = take()
        if tok in _PREFIX:
            return (_PREFIX[tok], unary())
        if tok == "(":
            inner = iff()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        if tok == "true":
            return ("top",)
        if tok == "false":
            return ("bot",)
        if tok.startswith("p"):
            return ("atom", int(tok[1:]))
        if len(tok) == 1 and tok.isupper():
            return ("meta", ord(tok) - ord("A"))
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    def iff():
        return arrow("iff", lambda: arrow("imp", lambda: chain("or", lambda: chain("and", unary))))

    f = iff()
    if peek():
        raise ValueError(f"trailing {peek()!r} in {text!r}")
    return f


def atoms(f) -> set[int]:
    if f[0] == "atom":
        return {f[1]}
    out: set[int] = set()
    for child in f[1:]:
        out |= atoms(child)
    return out


def operators(f) -> set[str]:
    out = {f[0]}
    for child in f[1:]:
        if isinstance(child, tuple):
            out |= operators(child)
    return out


def swap_dialect(f):
    """Replace every nabla by box and every box by nabla."""
    tag = f[0]
    if tag in ("atom", "top", "bot", "meta"):
        return f
    swapped = {"nabla": "box", "box": "nabla"}.get(tag, tag)
    return (swapped, *(swap_dialect(child) for child in f[1:]))


def substitute(f, table: dict[int, tuple]):
    """Replace atom i by ``table[i]`` wherever it occurs."""
    if f[0] == "atom":
        return table.get(f[1], f)
    if f[0] in ("top", "bot"):
        return f
    return (f[0], *(substitute(child, table) for child in f[1:]))


# ---------------------------------------------------------------------------
# Models and truth


@dataclass(frozen=True)
class Model:
    """``kind`` is ``nbhd``, ``kripke`` or ``universal``.  ``frame`` holds
    one entry per world: a frozenset of neighbourhood masks, or the mask of
    the world's successors; it is empty for universal models.  ``valuation``
    maps each atom to the mask of worlds where it holds."""

    kind: str
    worlds: int
    frame: tuple
    valuation: tuple[tuple[int, int], ...]


def truth_set(m: Model, f) -> int:
    """Mask of the worlds of ``m`` where ``f`` holds."""
    full = (1 << m.worlds) - 1
    tag = f[0]
    if tag == "atom":
        return dict(m.valuation).get(f[1], 0)
    if tag == "top":
        return full
    if tag == "bot":
        return 0
    if tag in BINARY:
        a = truth_set(m, f[1])
        b = truth_set(m, f[2])
        if tag == "and":
            return a & b
        if tag == "or":
            return a | b
        if tag == "imp":
            return (full & ~a) | b
        return full & ~(a ^ b)
    a = truth_set(m, f[1])
    if tag == "not":
        return full & ~a
    worlds = range(m.worlds)
    if m.kind == "nbhd":
        if tag != "box":
            raise ValueError(f"{tag} is not interpreted in neighbourhood models")
        return sum(1 << w for w in worlds if a in m.frame[w])
    if m.kind == "kripke":
        if tag == "box":
            return sum(1 << w for w in worlds if m.frame[w] & ~a == 0)
        return sum(1 << w for w in worlds if m.frame[w] & a)
    if tag == "box":
        return full if a == full else 0
    return full if a else 0


def superset_family(core: int, n: int) -> frozenset[int]:
    return frozenset(x for x in range(1 << n) if x & core == core)


def family_key(family) -> int:
    return sum(1 << x for x in family)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def structure_count(cls: str, n: int) -> int:
    """Closed-form number of frames with ``n`` worlds in each class."""
    return {
        "constrained": 2 ** (n * (n - 1)),
        "raw": 2 ** (n * 2**n),
        "kripke-all": 2 ** (n * n),
        "kripke-equiv": bell(n),
        "universal": 1,
    }[cls]


def model_count(cls: str, max_worlds: int, natoms: int) -> int:
    """Σ_{n=1..N} structures(n) · 2^(n·k): the models an exhausting search checks."""
    return sum(structure_count(cls, n) * 2 ** (n * natoms) for n in range(1, max_worlds + 1))


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def frames(cls: str, n: int) -> list[tuple]:
    """Frames with ``n`` worlds in the order the search visits them: world 0
    most significant; each world's entry ascending by its family bitmask
    (neighbourhood classes) or successor mask (Kripke classes)."""
    if cls == "constrained":
        per_world = [
            sorted(
                (superset_family(core, n) for core in range(1 << n) if core >> w & 1),
                key=family_key,
            )
            for w in range(n)
        ]
        return list(product(*per_world))
    if cls == "raw":
        families = [frozenset(x for x in range(1 << n) if bits >> x & 1) for bits in range(1 << (1 << n))]
        return list(product(families, repeat=n))
    if cls == "kripke-all":
        return list(product(range(1 << n), repeat=n))
    if cls == "kripke-equiv":
        out = []
        for blocks in _set_partitions(list(range(n))):
            rows = [0] * n
            for block in blocks:
                mask = sum(1 << w for w in block)
                for w in block:
                    rows[w] = mask
            out.append(tuple(rows))
        return sorted(out)
    return [()]


def model_kind(cls: str) -> str:
    if cls in ("constrained", "raw"):
        return "nbhd"
    return "kripke" if cls.startswith("kripke") else "universal"


def class_conditions_hold(cls: str, m: Model) -> bool:
    """Membership of ``m`` in the class, from the class definitions."""
    n = m.worlds
    full = (1 << n) - 1
    if m.kind != model_kind(cls) or len(m.frame) != (0 if m.kind == "universal" else n):
        return False
    if cls == "constrained":
        for w, fam in enumerate(m.frame):
            if full not in fam:  # (n)
                return False
            for x in fam:
                if not x >> w & 1:  # (t)
                    return False
                if any(x & y not in fam for y in fam):  # (c)
                    return False
                if any(y & x == x and y not in fam for y in range(full + 1)):  # (h)
                    return False
    if cls == "kripke-equiv":
        rows = m.frame
        reflexive = all(rows[w] >> w & 1 for w in range(n))
        symmetric = all(rows[z] >> w & 1 for w in range(n) for z in range(n) if rows[w] >> z & 1)
        transitive = all(rows[z] & ~rows[w] == 0 for w in range(n) for z in range(n) if rows[w] >> z & 1)
        return reflexive and symmetric and transitive
    return True


def first_countermodel(cls: str, max_worlds: int, atom_list: list[int], premises: list, target):
    """Scan the class in search order for the first model that validates
    every premise and falsifies ``target`` somewhere.

    Returns ``(verdict, models_checked, model, world)``.
    """
    kind = model_kind(cls)
    checked = 0
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for frame in frames(cls, n):
            for masks in product(range(1 << n), repeat=len(atom_list)):
                checked += 1
                m = Model(kind, n, frame, tuple(zip(atom_list, masks)))
                if any(truth_set(m, g) != full for g in premises):
                    continue
                ts = truth_set(m, target)
                if ts != full:
                    world = next(w for w in range(n) if not ts >> w & 1)
                    return "CountermodelFound", checked, m, world
    return "ExhaustedValid", checked, None, None


def _mask(worlds) -> int:
    return sum(1 << w for w in worlds)


def model_from_data(data: dict) -> Model:
    """Read the program's JSON model shape: ``S`` for neighbourhood models,
    ``R`` for Kripke models, neither for universal models."""
    n = data["worlds"]
    valuation = tuple(sorted((int(name[1:]), _mask(ws)) for name, ws in data.get("V", {}).items()))
    if "S" in data:
        frame = tuple(frozenset(_mask(x) for x in data["S"].get(str(w), [])) for w in range(n))
        return Model("nbhd", n, frame, valuation)
    if "R" in data:
        rows = [0] * n
        for w, z in data["R"]:
            rows[w] |= 1 << z
        return Model("kripke", n, tuple(rows), valuation)
    return Model("universal", n, (), valuation)


# ---------------------------------------------------------------------------
# Proof checking

_PL = {
    "PL1": "A -> (B -> A)",
    "PL2": "(A -> (B -> C)) -> ((A -> B) -> (A -> C))",
    "PL3": "(~B -> ~A) -> (A -> B)",
    "PL4": "A -> (B -> (A & B))",
    "PL5": "(A & B) -> A",
    "PL6": "(A & B) -> B",
    "PL7": "A -> (A | B)",
    "PL8": "B -> (A | B)",
    "PL9": "(A -> C) -> ((B -> C) -> ((A | B) -> C))",
    "PL10": "(A -> B) -> ((B -> A) -> (A <-> B))",
    "PL11": "(A <-> B) -> (A -> B)",
    "PL12": "(A <-> B) -> (B -> A)",
    "PL13": "true",
    "PL14": "false -> A",
}
_MODAL = {
    "T": "[]A -> A",
    "5": "<>A -> []<>A",
    "K": "[](A -> B) -> ([]A -> []B)",
    "DfDia": "<>A <-> ~[]~A",
    "C": "([]A & []B) -> [](A & B)",
    "H": "([]A | []B) -> [](A | B)",
    "N": "[]true",
    "Ax1": "(nabla A & nabla B) -> nabla(A & B)",
    "Ax2": "nabla(A | ~A)",
    "Ax3": "nabla A -> A",
}
SCHEMAS = {name: parse(text) for name, text in {**_PL, **_MODAL}.items()}

# system -> (modal axioms, modal operators allowed, rules)
SYSTEMS = {
    "LPC": ((), set(), {"premise", "axiom", "mp"}),
    "S5": (("T", "5", "K", "DfDia"), {"box", "dia"}, {"premise", "axiom", "mp", "rn"}),
    "LNabla": (("Ax1", "Ax2", "Ax3"), {"nabla"}, {"premise", "axiom", "mp", "rnabla"}),
    "LPBox": (("C", "H", "T", "N"), {"box"}, {"premise", "axiom", "mp", "re"}),
}
_MODAL_OPS = {"box", "dia", "nabla"}


def matches(pattern, f, binding: dict) -> bool:
    if pattern[0] == "meta":
        bound = binding.setdefault(pattern[1], f)
        return bound == f
    if pattern[0] != f[0] or len(pattern) != len(f):
        return False
    return all(matches(p, g, binding) for p, g in zip(pattern[1:], f[1:]))


def check_proof(data: dict, s5_re: bool = False) -> tuple[bool, int | None]:
    """``(accepted, first failing line)`` of a proof in the program's JSON
    shape.  Rules that depend on no premise (RE, RNabla, RN) apply only to
    premise-free lines."""
    system = data["system"]
    modal_axioms, allowed_ops, rules = SYSTEMS[system]
    if s5_re and system == "S5":
        rules = rules | {"re"}
    axioms = set(_PL) | set(modal_axioms)
    premises = {parse(text) for text in data.get("premises", [])}
    formulas = []
    free = []
    for number, line in enumerate(data["lines"], start=1):
        f = parse(line["formula"])
        formulas.append(f)
        rule = line["rule"]
        refs = line.get("refs", [])
        ok = (operators(f) & _MODAL_OPS) <= allowed_ops and rule in rules
        if ok and any(not 1 <= r < number for r in refs):
            ok = False
        if ok and rule == "premise":
            ok = f in premises
            free.append(False)
        elif ok and rule == "axiom":
            ok = line.get("schema") in axioms and matches(SCHEMAS[line["schema"]], f, {})
            free.append(True)
        elif ok and rule == "mp":
            a, imp = refs
            ok = formulas[imp - 1] == ("imp", formulas[a - 1], f)
            free.append(free[a - 1] and free[imp - 1])
        elif ok:
            (ref,) = refs
            src = formulas[ref - 1]
            if rule == "re":
                shape = src[0] == "iff" and f == ("iff", ("box", src[1]), ("box", src[2]))
            elif rule == "rnabla":
                shape = src[0] == "imp" and f == ("imp", ("nabla", src[1]), ("nabla", src[2]))
            else:
                shape = f == ("box", src)
            ok = free[ref - 1] and shape
            free.append(True)
        if not ok:
            return False, number
    if parse(data["conclusion"]) != formulas[-1]:
        return False, len(formulas)
    return True, None
