import importlib.util
import json
import random
import sys
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest
from hypothesis import strategies as st

from plausible import _kernel_py
from plausible import algebra as alg
from plausible.algebra import FinitePlausibilityAlgebra
from plausible.semantics import NeighborhoodModel
from plausible.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Box,
    Diamond,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _load_oracle():
    """``perfbench/oracle.py``, the search reference written from the
    definitions; it imports nothing from ``plausible``."""
    path = Path(__file__).parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    # its frozen dataclass looks the module up in sys.modules while it is built
    sys.modules["oracle"] = module
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

_UNARY_OPS = {"box": Box, "diamond": Diamond, "nabla": Nabla}


def formulas(atoms=(0, 1, 2), modal=("box", "diamond"), max_leaves=12):
    """Hypothesis strategy for formulas over the given atoms and modal ops,
    with at most ``max_leaves`` leaves.

    A node with room for two leaves is binary two times in three, so most
    formulas nest binary operators and mix their binding levels; shrinking
    goes towards fewer leaves."""
    leaves = st.one_of(
        st.sampled_from([TOP, BOTTOM]),
        st.sampled_from(list(atoms)).map(Atom),
    )
    unary = st.sampled_from([Not] + [_UNARY_OPS[name] for name in modal])
    binary = st.sampled_from([And, Or, Implies, Iff])
    # leaf, unary or binary; a node with room for one leaf is never binary
    one_leaf, more_leaves = st.sampled_from("lu"), st.sampled_from("lubbbb")

    def tree(draw, room):
        kind = draw(more_leaves if room > 1 else one_leaf)
        if kind == "l":
            return draw(leaves)
        if kind == "u":
            return draw(unary)(tree(draw, room))
        left = draw(st.integers(1, room - 1))
        return draw(binary)(tree(draw, left), tree(draw, room - left))

    return st.composite(lambda draw: tree(draw, draw(st.integers(1, max_leaves))))()


@st.composite
def shared_formulas(draw, atoms=(0, 1), modal=("box", "diamond", "nabla"), max_steps=16):
    """Hypothesis strategy for a list of formulas that share node objects:
    each is built from leaves and earlier formulas of the list, and the list
    comes in a drawn order, so parts come both before and after wholes."""
    pool = [Atom(i) for i in atoms] + [TOP, BOTTOM]
    unary = [Not] + [_UNARY_OPS[name] for name in modal]
    for _ in range(draw(st.integers(1, max_steps))):
        if draw(st.booleans()):
            pool.append(draw(st.sampled_from(unary))(draw(st.sampled_from(pool))))
        else:
            op = draw(st.sampled_from([And, Or, Implies, Iff]))
            pool.append(op(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return draw(st.permutations(pool))


def random_formula(rng: random.Random, atoms=(0, 1), modal=("box",), depth=3, size=8):
    """Seeded random formula with modal depth bounded by ``depth`` and node
    count roughly bounded by ``size``."""
    ops = ["atom", "atom", "top", "bot"]
    if size > 1:
        ops += ["not", "and", "or", "imp", "iff"]
        if depth > 0:
            ops += list(modal) * 2
    pick = rng.choice(ops)
    if pick == "atom":
        return Atom(rng.choice(atoms))
    if pick == "top":
        return TOP
    if pick == "bot":
        return BOTTOM
    if pick == "not":
        return Not(random_formula(rng, atoms, modal, depth, size - 1))
    if pick in _UNARY_OPS:
        return _UNARY_OPS[pick](random_formula(rng, atoms, modal, depth - 1, size - 1))
    left = random_formula(rng, atoms, modal, depth, size // 2)
    right = random_formula(rng, atoms, modal, depth, size // 2)
    return {"and": And, "or": Or, "imp": Implies, "iff": Iff}[pick](left, right)


def random_raw_model(rng: random.Random, max_worlds=3, atoms=(0, 1)) -> NeighborhoodModel:
    """Uniform-ish random neighborhood model: each subset of the universe
    lands in each world's family with probability 1/2."""
    n = rng.randint(1, max_worlds)
    families = tuple(
        tuple(x for x in range(1 << n) if rng.random() < 0.5) for _ in range(n)
    )
    valuation = tuple((a, rng.randrange(1 << n)) for a in atoms)
    return NeighborhoodModel(n, families, valuation)


def random_chain_model(rng: random.Random, max_worlds=3, atoms=(0, 1)) -> NeighborhoodModel:
    """Random model satisfying (c), (t), (n): each family is a chain of
    supersets from a core containing the world up to the full universe."""
    n = rng.randint(1, max_worlds)
    full = (1 << n) - 1
    families = []
    for w in range(n):
        core = (1 << w) | rng.randrange(1 << n)
        chain = {core, full}
        step = core
        while step != full:
            bit = rng.choice([i for i in range(n) if not (step >> i) & 1])
            step |= 1 << bit
            if rng.random() < 0.5:
                chain.add(step)
        families.append(tuple(sorted(chain)))
    valuation = tuple((a, rng.randrange(1 << n)) for a in atoms)
    return NeighborhoodModel(n, tuple(families), valuation)


def family_key(core: int, n: int) -> int:
    """Bitmask of the superset family of ``core`` on ``n`` worlds: bit X set iff X ⊇ core."""
    return sum(1 << x for x in range(1 << n) if x & core == core)


def all_sharp_maps(base_size: int):
    """Every operator table on the 2^base_size carrier, in ascending
    lexicographic order: the brute-force oracle for algebra generation."""
    size = 1 << base_size
    for images in product(range(size), repeat=size):
        yield FinitePlausibilityAlgebra(base_size, images)


@contextmanager
def chunk_log2(value):
    """Run the block with the kernel's chunks cut at ``2**value`` valuations."""
    saved = _kernel_py.CHUNK_LOG2
    _kernel_py.CHUNK_LOG2 = value
    try:
        yield
    finally:
        _kernel_py.CHUNK_LOG2 = saved


def load_fixture(*parts):
    with open(FIXTURES.joinpath(*parts), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def axiom_checks(monkeypatch) -> list:
    """Every algebra whose a1-a4 check runs during the test, in order."""
    runs = []
    check = alg._check_axioms

    def counted(a):
        runs.append(a)
        return check(a)

    monkeypatch.setattr(alg, "_check_axioms", counted)
    return runs
