import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chunk_log2, family_key, formulas, oracle
from plausible import _kernel_py, _orbits, search
from plausible.search import (
    MAX_SAMPLES,
    BoundsExceededError,
    K_FORMULA,
    ModelClass,
    SearchBounds,
    SearchInternalError,
    SearchOutcome,
    Verdict,
    check_global_consequence,
    compile_program,
    enumerate_models,
    experiment_report,
    find_countermodel,
    kernel_backend,
    run_k_experiment,
    sample_countermodel,
)
from plausible.semantics import (
    KripkeModel,
    NeighborhoodModel,
    eval_model,
    is_valid_in,
    nm_check_conditions,
    relation_properties,
)
from plausible.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Box,
    Dialect,
    DialectError,
    Diamond,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    parse,
    render,
)


def bounds(model_class, max_worlds, atoms=()):
    return SearchBounds(model_class, max_worlds, atoms)


def world_bound(model_class, gamma, target):
    """The class's world bound for a search of ``target`` from ``gamma``,
    read off the witnessed modal subformulas and the modal depths that
    ``compile_program`` records."""
    modal, witnessed = {}, set()
    for g in gamma:
        compile_program(g, {}, modal, witnessed, premise=True)
    compile_program(target, {}, modal, witnessed)
    return model_class.world_bound(len(witnessed), max(modal.values(), default=0), bool(gamma))


def filtration_count(model_class, gamma, target, atoms):
    """The kernel's filtration count T for a search of ``target`` from
    ``gamma`` over ``atoms``."""
    slots = {atom: i for i, atom in enumerate(atoms)}
    programs = [compile_program(g, slots) for g in (*gamma, target)]
    return _kernel_py.filtration_count(programs, model_class.kernel_id)


def scanned_worlds(monkeypatch):
    """The world counts, in order, on which each later search scans
    structures."""
    scanned, scan = [], _kernel_py.first_countermodel

    def recorded(gamma, target, n, *rest):
        scanned.append(n)
        return scan(gamma, target, n, *rest)

    monkeypatch.setattr(_kernel_py, "first_countermodel", recorded)
    return scanned


class TestEnumerationCounts:
    def test_constrained_one_world_one_atom(self):
        models = list(enumerate_models(bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 1, (0,))))
        assert len(models) == 2

    def test_kripke_equivalence_two_worlds(self):
        models = list(enumerate_models(bounds(ModelClass.KRIPKE_EQUIVALENCE, 2)))
        # one world: only {(0,0)}; two worlds: identity and the full relation
        assert len(models) == 3
        two = [m for m in models if m.worlds == 2]
        assert {m.rows for m in two} == {(0b01, 0b10), (0b11, 0b11)}

    def test_raw_one_world(self):
        models = list(enumerate_models(bounds(ModelClass.RAW_NEIGHBORHOOD, 1)))
        assert len(models) == 4

    def test_constrained_totals(self):
        # per world count n: cores (2^(n-1))^n, valuations (2^n)^2 for 2 atoms
        models = list(enumerate_models(bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0, 1))))
        assert len(models) == 4 + 64 + 4096

    def test_no_duplicates(self):
        for mc in (ModelClass.RAW_NEIGHBORHOOD, ModelClass.CONSTRAINED_NEIGHBORHOOD):
            models = list(enumerate_models(bounds(mc, 2, (0,))))
            assert len(models) == len(set(models))

    def test_constrained_models_satisfy_conditions(self):
        for m in enumerate_models(bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0,))):
            assert nm_check_conditions(m).all_hold

    def test_equivalence_models_are_equivalences(self):
        for m in enumerate_models(bounds(ModelClass.KRIPKE_EQUIVALENCE, 3)):
            assert relation_properties(m).equivalence


class TestCompileProgram:
    def test_every_connective(self):
        k = _kernel_py
        prog = compile_program(parse("~p0 & (p1 | true) -> ([]p0 <-> <>false)"), {0: 0, 1: 1})
        assert prog == [
            k.OP_ATOM, 0, k.OP_NOT, 0,
            k.OP_ATOM, 1, k.OP_TOP, 0, k.OP_OR, 0,
            k.OP_AND, 0,
            k.OP_ATOM, 0, k.OP_BOX, 0,
            k.OP_BOT, 0, k.OP_DIA, 0,
            k.OP_IFF, 0,
            k.OP_IMP, 0,
        ]

    def test_atom_outside_bounds_is_bottom(self):
        assert compile_program(parse("p5 | p0"), {0: 0}) == [
            _kernel_py.OP_BOT, 0, _kernel_py.OP_ATOM, 0, _kernel_py.OP_OR, 0,
        ]

    def test_nabla_not_compiled(self):
        with pytest.raises(DialectError, match=r"^cannot compile nabla p0 for model search$"):
            compile_program(parse("p0 -> nabla p0"), {0: 0})

    def test_first_nabla_named(self):
        with pytest.raises(DialectError, match=r"^cannot compile nabla p0 for model search$"):
            compile_program(parse("[](nabla p0 & nabla p1)"), {0: 0, 1: 1})

    def test_records_distinct_modal_subformulas_with_their_depth(self):
        modal = {}
        compile_program(parse("<>p0 -> []<>p0 & <>p0"), {0: 0}, modal)
        assert modal == {parse("<>p0"): 1, parse("[]<>p0"): 2}
        # the programs of one search share the record
        compile_program(parse("[][]p0 | <>p0 | p1"), {0: 0}, modal)
        assert modal == {parse("<>p0"): 1, parse("[]<>p0"): 2, parse("[]p0"): 1, parse("[][]p0"): 2}

    @pytest.mark.parametrize("text,premise,expected", [
        # a box with a positive occurrence, a diamond with a negative one
        ("[]p0 | <>p1", False, ["[]p0"]),
        ("~([]p0 | <>p1)", False, ["<>p1"]),
        # an antecedent is negative, a consequent keeps the polarity
        ("[]p0 & <>p1 -> []p2 & <>p3", False, ["<>p1", "[]p2"]),
        ("([]p0 -> <>p1) -> p2", False, ["[]p0", "<>p1"]),
        # both operands of <-> take both polarities
        ("<>p0 <-> []p1", False, ["<>p0", "[]p1"]),
        ("~(p2 <-> <>p0)", False, ["<>p0"]),
        # a premise is negative
        ("[]p0 | <>p1", True, ["<>p1"]),
        ("[]p0 -> <>p1", True, ["[]p0", "<>p1"]),
        # the polarity passes through a box or a diamond
        ("[]<>p0 | <>[]p1", False, ["[]<>p0", "[]p1"]),
        ("~<>[]p0", False, ["<>[]p0"]),
        ("[]p0 -> []p0", False, ["[]p0"]),
    ])
    def test_records_the_witnessed_modal_subformulas(self, text, premise, expected):
        modal, witnessed = {}, set()
        prog = compile_program(parse(text), {0: 0, 1: 1, 2: 2}, modal, witnessed, premise)
        assert witnessed == {parse(t) for t in expected} <= modal.keys()
        # the record leaves the program as it is
        assert prog == compile_program(parse(text), {0: 0, 1: 1, 2: 2})


class TestFilterCollapseOracle:
    def test_raw_filtered_equals_core_generated(self):
        raw = list(enumerate_models(bounds(ModelClass.RAW_NEIGHBORHOOD, 2, (0,))))
        filtered = [m for m in raw if nm_check_conditions(m).all_hold]
        constrained = list(enumerate_models(bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0,))))
        assert filtered == constrained  # same models, same order

    def test_chn_filtered_equals_arbitrary_core_generated(self):
        raw = list(enumerate_models(bounds(ModelClass.RAW_NEIGHBORHOOD, 2, (0,))))
        filtered = {m for m in raw if nm_check_conditions(m).chn_hold}
        generated = set()
        for n in (1, 2):
            # any core at all: without (t) the cores generate the (c)(h)(n) families
            for cores in itertools.product(range(1 << n), repeat=n):
                families = tuple(
                    tuple(x for x in range(1 << n) if x & c == c) for c in cores
                )
                for mask in range(1 << n):
                    generated.add(NeighborhoodModel(n, families, ((0, mask),)))
        assert filtered == generated


class TestFindCountermodel:
    def test_documented_first_countermodel(self):
        out = find_countermodel(parse("p0 -> []p0"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0,)))
        assert out.verdict is Verdict.COUNTERMODEL_FOUND
        assert out.world == 0
        m = out.countermodel
        assert m.worlds == 2
        assert m.families == ((0b11,), (0b11,))  # S(w) = {{0,1}} at both worlds
        assert m.valuation == ((0, 0b01),)

    def test_t_exhausted_valid(self):
        out = find_countermodel(parse("[]p0 -> p0"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0, 1)))
        assert out.verdict is Verdict.EXHAUSTED_VALID

    def test_five_exhausted_on_equivalence_frames(self):
        out = find_countermodel(parse("<>p0 -> []<>p0"), bounds(ModelClass.KRIPKE_EQUIVALENCE, 3, (0,)))
        assert out.verdict is Verdict.EXHAUSTED_VALID

    def test_dialect_mismatch(self):
        with pytest.raises(DialectError):
            find_countermodel(parse("<>p0"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0,)))
        with pytest.raises(DialectError):
            find_countermodel(parse("nabla p0"), bounds(ModelClass.KRIPKE_ALL, 2, (0,)))

    def test_bounds_exceeded(self):
        with pytest.raises(BoundsExceededError):
            bounds(ModelClass.RAW_NEIGHBORHOOD, 3, (0,))
        with pytest.raises(BoundsExceededError):
            bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 5, (0,))

    def test_determinism(self):
        f = parse("p0 -> []p0")
        b = bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0,))
        assert find_countermodel(f, b) == find_countermodel(f, b)


CAPS = {"raw": 2, "constrained": 4, "kripke-equiv": 4, "kripke-all": 4, "universal": 10}


@pytest.mark.parametrize("mc", list(ModelClass), ids=lambda mc: mc.value)
def test_world_cap(mc):
    assert mc.cap == CAPS[mc.value]
    assert SearchBounds(mc, mc.cap).max_worlds == mc.cap
    with pytest.raises(BoundsExceededError, match=f"{mc.value} enumeration is capped at {mc.cap} worlds"):
        SearchBounds(mc, mc.cap + 1)


_MODEL_CLASS = {mc.kernel_id: mc for mc in ModelClass}


def assert_oracle_parity(gamma, target, class_id, worlds, natoms, log2s):
    """``check_global_consequence`` at each chunk size in ``log2s`` gives the
    oracle's verdict, model count, first countermodel and world."""
    mc = _MODEL_CLASS[class_id]
    b = bounds(mc, worlds, range(natoms))
    expected = oracle.first_countermodel(
        mc.value, worlds, list(b.atoms),
        [oracle.parse(render(g)) for g in gamma], oracle.parse(render(target)),
    )
    for log2 in log2s:
        with chunk_log2(log2):
            out = check_global_consequence(gamma, target, b)
        model = None if out.countermodel is None else oracle.model_from_data(out.countermodel.to_data())
        assert (out.verdict.value, out.models_checked, model, out.world) == expected


class TestReferenceParity:
    """Search against ``perfbench/oracle.py``, which scans each class from
    its definition one model at a time."""

    CASES = [
        ((), "p0 -> []p0", _kernel_py.CLASS_CONSTRAINED, 2, 1),
        ((), "[]p0 -> p0", _kernel_py.CLASS_CONSTRAINED, 3, 2),
        ((), "[](p0 -> p1) -> ([]p0 -> []p1)", _kernel_py.CLASS_CONSTRAINED, 3, 2),
        ((), "[]p0 -> p0", _kernel_py.CLASS_RAW, 2, 1),
        ((), "p0 -> []p0", _kernel_py.CLASS_RAW, 2, 1),
        ((), "<>p0 -> []<>p0", _kernel_py.CLASS_KRIPKE_ALL, 3, 1),
        ((), "<>p0 -> []<>p0", _kernel_py.CLASS_KRIPKE_EQUIV, 3, 1),
        ((), "[]p0 -> p0", _kernel_py.CLASS_UNIVERSAL, 4, 2),
        ((), "false", _kernel_py.CLASS_CONSTRAINED, 2, 0),
        (("p0",), "[]p0", _kernel_py.CLASS_CONSTRAINED, 2, 1),
        ((), "[](p0 & p1) -> [](p1 & p0)", _kernel_py.CLASS_RAW, 2, 2),
        ((), "[]p0 -> [][]p0", _kernel_py.CLASS_KRIPKE_EQUIV, 4, 1),
        # refuted at 2 worlds in the second chunk of valuations
        ((), "p0 -> []p0 | p1 & p2 & p3 & p4 & p5 & p6", _kernel_py.CLASS_UNIVERSAL, 3, 7),
        (("p0 -> p1", "[]p0"), "[]p1", _kernel_py.CLASS_CONSTRAINED, 3, 2),
        ((), "[]p0 -> []([]p0 & p0)", _kernel_py.CLASS_CONSTRAINED, 2, 1),
        ((), "[]p0 | ~[]p0", _kernel_py.CLASS_RAW, 2, 1),
        ((), "<>p0 -> []<>p0", _kernel_py.CLASS_KRIPKE_ALL, 2, 1),
        ((), "[]p0 -> p0", _kernel_py.CLASS_KRIPKE_EQUIV, 3, 1),
        ((), "<>p0 -> p0", _kernel_py.CLASS_UNIVERSAL, 3, 1),
        # universal searches scan only up to their world bound, here 2, 3, 2
        # and 3 worlds
        ((), "<>p0 -> p0", _kernel_py.CLASS_UNIVERSAL, 5, 1),
        (("<>p1", "~(p0 & p1)"), "<>p0 -> p0 | p1", _kernel_py.CLASS_UNIVERSAL, 5, 2),
        (("p0",), "[]p0", _kernel_py.CLASS_UNIVERSAL, 5, 2),
        (("[]p0 -> p1",), "<>p1 -> p1 & p0", _kernel_py.CLASS_UNIVERSAL, 5, 2),
    ]

    @pytest.mark.parametrize("gamma,text,class_id,worlds,natoms", CASES)
    def test_identical_results(self, gamma, text, class_id, worlds, natoms):
        premises = [parse(g) for g in gamma]
        assert_oracle_parity(premises, parse(text), class_id, worlds, natoms, (_kernel_py.CHUNK_LOG2, 1))

    def test_exhaustion_across_chunks(self):
        # 2,113,664 models, too many for the oracle to scan here; two
        # witnessed modal subformulas keep all 3 worlds, the last in 8
        # chunks, in the scan
        f = parse("p0|~p0|[]p1|~<>p2|p3|p4|p5")
        assert world_bound(ModelClass.UNIVERSAL, (), f) == 3
        out = find_countermodel(f, bounds(ModelClass.UNIVERSAL, 3, range(7)))
        assert out.verdict is Verdict.EXHAUSTED_VALID
        assert out.models_checked == oracle.model_count("universal", 3, 7)

    # Refuted first at 3 or 4 worlds, deep in the scan, over p0 and p1 up to
    # 4 worlds: (premises, formula, class, worlds of the first countermodel,
    # models checked).  The oracle scans every structure, so these check
    # that scanning one structure per isomorphism class keeps the first
    # countermodel and the count.
    F3 = "~(~[]~(p0&p1) & ~[]~(p0&~p1) & ~[]~(~p0&p1))"
    F4 = "~(~[]~(p0&p1) & ~[]~(p0&~p1) & ~[]~(~p0&p1) & ~[]~(~p0&~p1))"
    D4 = "~(<>(p0&p1) & <>(p0&~p1) & <>(~p0&p1) & <>(~p0&~p1))"
    DEEP = [
        ((), F3, _kernel_py.CLASS_CONSTRAINED, 3, 98),
        ((), F4, _kernel_py.CLASS_CONSTRAINED, 4, 4_218),
        ((), D4, _kernel_py.CLASS_KRIPKE_EQUIV, 4, 3_994),
        ((), D4, _kernel_py.CLASS_KRIPKE_ALL, 4, 36_926),
        (("p1 -> []p1",), F3, _kernel_py.CLASS_CONSTRAINED, 3, 739),
        (("p1 -> []p1",), F4, _kernel_py.CLASS_CONSTRAINED, 4, 18_081),
        (("~p0 -> <>(p0 & p1)",), D4, _kernel_py.CLASS_KRIPKE_EQUIV, 4, 3_994),
        (("p0 -> <>p1",), D4, _kernel_py.CLASS_KRIPKE_ALL, 4, 41_166),
    ]

    @pytest.mark.parametrize("gamma,text,class_id,worlds,checked", DEEP)
    def test_deep_refutations(self, gamma, text, class_id, worlds, checked):
        premises = [parse(g) for g in gamma]
        assert_oracle_parity(premises, parse(text), class_id, 4, 2, (_kernel_py.CHUNK_LOG2,))
        out = check_global_consequence(premises, parse(text), bounds(_MODEL_CLASS[class_id], 4, (0, 1)))
        assert (out.countermodel.worlds, out.models_checked) == (worlds, checked)

    # (class, max worlds, atoms, modal operators): small enough that the
    # oracle exhausts every class in milliseconds.
    CLASSES = [
        (_kernel_py.CLASS_CONSTRAINED, 2, 2, ("box",)),
        (_kernel_py.CLASS_RAW, 2, 1, ("box",)),
        (_kernel_py.CLASS_KRIPKE_ALL, 2, 2, ("box", "diamond")),
        (_kernel_py.CLASS_KRIPKE_EQUIV, 3, 2, ("box", "diamond")),
        (_kernel_py.CLASS_UNIVERSAL, 3, 3, ("box", "diamond")),
    ]

    @pytest.mark.parametrize("class_id,worlds,natoms,modal", CLASSES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_differential(self, class_id, worlds, natoms, modal, data):
        strategy = formulas(atoms=tuple(range(natoms)), modal=modal, max_leaves=8)
        gamma = data.draw(st.lists(strategy, max_size=2))
        target = data.draw(strategy)
        log2 = data.draw(st.sampled_from([1, 2, _kernel_py.CHUNK_LOG2]))
        assert_oracle_parity(gamma, target, class_id, worlds, natoms, (log2,))


def group_size(n: int, natoms: int, log2: int) -> int:
    """Structures side by side in a chunk of ``2**log2`` lanes: as many as
    hold all their valuations, or one if a structure's valuations span
    several chunks."""
    if natoms > max(1, log2 // n):
        return 1
    return 1 << max(0, log2 - n * natoms)


def placement(out: SearchOutcome, class_id: int, natoms: int, log2: int) -> tuple[int, int, int]:
    """``(group, groups, size)``: the index of the group of orbit minima that
    holds the first countermodel's structure, the number of groups on its
    world count and the number of structures in its group."""
    n = out.countermodel.worlds
    before = sum(_kernel_py.structure_count(class_id, m) << (m * natoms) for m in range(1, n))
    rank = (out.models_checked - before - 1) >> (n * natoms)
    ranks = _kernel_py.orbit_ranks(class_id, n)
    g = group_size(n, natoms, log2)
    group = ranks.index(rank) // g
    return group, -(-len(ranks) // g), len(ranks[group * g:(group + 1) * g])


class TestGroupedChunks:
    """Chunks that hold several structures side by side, against the oracle
    at 2, 4 and 64 lanes to a chunk and the default."""

    LOG2S = (1, 2, 6, _kernel_py.CHUNK_LOG2)
    F4 = TestReferenceParity.F4
    # (premises, formula, class, worlds, atoms, log2, and where the first
    # countermodel lies at 2**log2 lanes: (group, groups, size of the group))
    PLACED = [
        # the second of 14 groups of 16 constrained structures on 4 worlds
        (("p1 -> []p1",), F4, _kernel_py.CLASS_CONSTRAINED, 4, 2, _kernel_py.CHUNK_LOG2, (1, 14, 16)),
        # only families of every world set but the empty one, (14, 14), the
        # 134th of 136 raw 2-world structures, validate the premise: the
        # last group, 8 of its 16 structures
        (("[]p0 & []~p0 & []true & ~[]false",), "p0", _kernel_py.CLASS_RAW, 2, 1, 6, (8, 9, 8)),
        # only the full relation, the last of 104 kripke-all 3-world frames,
        # lets each world see three kinds of world: the last group, 40 of 64
        (("<>p0 & <>(~p0 & p1) & <>(~p0 & ~p1)",), "p1", _kernel_py.CLASS_KRIPKE_ALL, 3, 2,
         _kernel_py.CHUNK_LOG2, (1, 2, 40)),
        # the full relation again, the last of 3 kripke-equiv 3-world frames
        (("<>(p0 & p1) & <>(p0 & ~p1) & <>~p0",), "p1 | []p0", _kernel_py.CLASS_KRIPKE_EQUIV, 4, 2, 6, (2, 3, 1)),
        (("<>(p0 & p1) & <>(p0 & ~p1) & <>~p0",), "p1 | []p0", _kernel_py.CLASS_KRIPKE_EQUIV, 4, 2,
         _kernel_py.CHUNK_LOG2, (0, 1, 3)),
    ]

    @pytest.mark.parametrize("gamma,text,class_id,worlds,natoms,log2,place", PLACED)
    def test_first_countermodel_in_a_later_group(self, gamma, text, class_id, worlds, natoms, log2, place):
        premises = [parse(g) for g in gamma]
        assert_oracle_parity(premises, parse(text), class_id, worlds, natoms, self.LOG2S)
        with chunk_log2(log2):
            out = check_global_consequence(premises, parse(text), bounds(_MODEL_CLASS[class_id], worlds, range(natoms)))
        assert placement(out, class_id, natoms, log2) == place

    # Formulas that a later structure of the group refutes at an earlier
    # valuation than the group's first structure with a countermodel does:
    # the lowest lane of the chunk is not the first countermodel.
    EARLIER_VALUATION = [
        ("[][]p0 <-> []p0", _kernel_py.CLASS_CONSTRAINED, 3, 1),
        ("p0 <-> <>true", _kernel_py.CLASS_KRIPKE_ALL, 2, 2),
        ("[]~p0 <-> true & p0", _kernel_py.CLASS_RAW, 2, 1),
    ]

    @pytest.mark.parametrize("text,class_id,worlds,natoms", EARLIER_VALUATION)
    def test_first_structure_of_the_group_comes_first(self, text, class_id, worlds, natoms):
        assert_oracle_parity((), parse(text), class_id, worlds, natoms, self.LOG2S)

    # (premises, formula, class, worlds, atoms): premises that no model of
    # some group validates, so the target is not evaluated there
    REJECTING = [
        (("~[]p0 & ~[]~p0",), "p1 -> []p1", _kernel_py.CLASS_CONSTRAINED, 3, 2),
        (("[]p0 & []~p0 & []true & ~[]false",), "p0", _kernel_py.CLASS_RAW, 2, 1),
        (("<>p0 & <>(~p0 & p1) & <>(~p0 & ~p1)",), "p1", _kernel_py.CLASS_KRIPKE_ALL, 3, 2),
        (("<>(p0 & p1) & <>(p0 & ~p1) & <>~p0",), "p1 | []p0", _kernel_py.CLASS_KRIPKE_EQUIV, 4, 2),
        (("<>p0 & <>~p0", "[]p1"), "[]p0 -> p1 & p0", _kernel_py.CLASS_KRIPKE_EQUIV, 4, 2),
    ]

    @pytest.mark.parametrize("gamma,text,class_id,worlds,natoms", REJECTING)
    @pytest.mark.parametrize("log2", LOG2S)
    def test_premises_reject_whole_groups(self, monkeypatch, gamma, text, class_id, worlds, natoms, log2):
        premises = [parse(g) for g in gamma]
        assert_oracle_parity(premises, parse(text), class_id, worlds, natoms, (log2,))
        searched, evaluated = [], []
        run, evaluate = _kernel_py.run_search, _kernel_py.eval_program
        monkeypatch.setattr(_kernel_py, "run_search", lambda *args: searched.append(args[3]) or run(*args))
        monkeypatch.setattr(_kernel_py, "eval_program", lambda p, *rest: evaluated.append(p) or evaluate(p, *rest))
        with chunk_log2(log2):
            check_global_consequence(premises, parse(text), bounds(_MODEL_CLASS[class_id], worlds, range(natoms)))
        # the first premise is evaluated on every chunk, the target on fewer;
        # the programs are told apart by identity, since the filtration count
        # evaluates programs of its own that may equal them
        [programs] = searched
        first, target = programs[0], programs[-1]
        assert sum(p is target for p in evaluated) < sum(p is first for p in evaluated)

    def test_one_evaluation_per_group(self, monkeypatch):
        # the K schema over 2 atoms on up to 4 constrained worlds: 1, 3, 16
        # and 218 orbit minima, 1,024, 256, 64 and 16 of them to a chunk
        minima = {n: len(_kernel_py.orbit_ranks(_kernel_py.CLASS_CONSTRAINED, n)) for n in range(1, 5)}
        groups = sum(-(-minima[n] // group_size(n, 2, _kernel_py.CHUNK_LOG2)) for n in minima)
        assert groups == 1 + 1 + 1 + 14
        calls, evaluate = [], _kernel_py.eval_program
        monkeypatch.setattr(_kernel_py, "eval_program", lambda *args: calls.append(1) or evaluate(*args))
        # the kernel applies no cut of its own
        programs = [compile_program(K_FORMULA, {0: 0, 1: 1})]
        found, checked, *_ = _kernel_py.run_search(_kernel_py.CLASS_CONSTRAINED, 4, 2, programs, 4)
        assert not found and checked == oracle.model_count("constrained", 4, 2)
        assert len(calls) == groups
        # the search stops at the K schema's world bound of 2, one group each
        calls.clear()
        out = run_k_experiment(bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 4, (0, 1)))
        assert (out.verdict, out.models_checked) == (Verdict.EXHAUSTED_VALID, checked)
        assert len(calls) == 1 + 1


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equivalence_frames_match_filtered_relations(self, n):
        filtered = [
            rows
            for rows in itertools.product(range(1 << n), repeat=n)
            if oracle.class_conditions_hold("kripke-equiv", oracle.Model("kripke", n, rows, ()))
        ]
        assert list(_kernel_py.structures(_kernel_py.CLASS_KRIPKE_EQUIV, n)) == filtered

    @pytest.mark.parametrize("model_class", list(ModelClass), ids=lambda mc: mc.value)
    def test_structures_are_the_oracle_frames(self, model_class):
        for n in range(1, model_class.cap + 1):
            got = list(_kernel_py.structures(model_class.kernel_id, n))
            expected = oracle.frames(model_class.value, n)
            if model_class is ModelClass.CONSTRAINED_NEIGHBORHOOD:
                # a constrained world's structure is the core of its family
                got = [tuple(family_key(core, n) for core in s) for s in got]
            if oracle.model_kind(model_class.value) == "nbhd":
                expected = [tuple(map(oracle.family_key, frame)) for frame in expected]
            if model_class is ModelClass.UNIVERSAL:
                # the oracle's one universal frame holds no relation; the
                # kernel's is the full relation
                assert expected == [()]
                expected = [((1 << n) - 1,) * n]
            assert got == expected, n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_constrained_candidates_in_family_order(self, n):
        # the closed form lists each world's cores as sorting them by the
        # bitmask of the superset family they generate does
        expected = [
            sorted((core for core in range(1 << n) if (core >> w) & 1), key=lambda core: family_key(core, n))
            for w in range(n)
        ]
        assert _kernel_py.constrained_candidates(n) == expected

    @pytest.mark.parametrize("model_class", list(ModelClass), ids=lambda mc: mc.value)
    def test_draws_are_enumerated_structures(self, model_class):
        rng = random.Random(2027)
        for n in range(1, min(model_class.cap, 3) + 1):
            every = set(_kernel_py.structures(model_class.kernel_id, n))
            state = rng.getstate()
            draws = [model_class.draw(rng, n) for _ in range(200)]
            assert set(draws) <= every, n
            if model_class is ModelClass.UNIVERSAL:
                assert rng.getstate() == state  # its one structure takes no randomness

    def test_equivalence_search_leaves_no_reference_cycle(self):
        # A self-referring closure in the partition walk would leave a cycle
        # for the collector on every kripke-equiv search.
        b = bounds(ModelClass.KRIPKE_EQUIVALENCE, 4, (0, 1))
        gc.disable()
        try:
            gc.collect()
            assert [len(_kernel_py.partition_rows(n)) for n in range(1, 5)] == [1, 2, 5, 15]
            assert gc.collect() == 0
            for text, verdict in [
                ("<>p0 -> []<>p0", Verdict.EXHAUSTED_VALID),
                ("p0 -> []p0", Verdict.COUNTERMODEL_FOUND),
            ]:
                assert find_countermodel(parse(text), b).verdict is verdict
                assert gc.collect() == 0, text
        finally:
            gc.enable()

    def test_bit_patterns(self):
        # lane u·unit + j holds valuation u of structure j
        for unit in (1, 2, 3, 16):
            patterns = _kernel_py.bit_patterns(3, unit)
            assert len(patterns) == 3
            for b, pattern in enumerate(patterns):
                assert pattern >> (8 * unit) == 0
                assert all((pattern >> lane) & 1 == (lane // unit >> b) & 1 for lane in range(8 * unit))
        assert _kernel_py.bit_patterns(0, 5) == []

    def test_streamed_chunks_bound_memory(self):
        # 16 + 256 + 4096 + 65536 + 1048576 valuations; at 5 worlds they
        # span 1,024 chunks.  Only one chunk's bit patterns and evaluation
        # stack, a few dozen ints of at most chunk_bytes, may be alive at a
        # time; atom tables for every chunk at once take about 0.3 MB.
        chunk_bytes = (1 << _kernel_py.CHUNK_LOG2) // 8
        b = bounds(ModelClass.UNIVERSAL, 5, (0, 1, 2, 3))
        # four witnessed modal subformulas keep 5 worlds in the scan
        f = parse("[]p0 -> p0 & (p1 | ~p1 | []p2 | ~<>p3 | []p1 | []p3)")
        assert world_bound(ModelClass.UNIVERSAL, (), f) == 5
        tracemalloc.start()
        try:
            out = find_countermodel(f, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.verdict is Verdict.EXHAUSTED_VALID
        assert out.models_checked == 1_118_480
        assert peak < 64 * chunk_bytes


def relabel(frame, n: int, perm) -> tuple:
    """An oracle frame with each world ``w`` renamed ``perm[w]``."""

    def image(mask: int) -> int:
        return sum(1 << perm[z] for z in range(n) if (mask >> z) & 1)

    out = [None] * n
    for w, entry in enumerate(frame):
        out[perm[w]] = frozenset(map(image, entry)) if isinstance(entry, frozenset) else image(entry)
    return tuple(out)


class TestOrbitTable:
    """The committed ranks of orbit-minimal structures (``tests/record_orbits.py``)."""

    ENTRIES = sorted(_orbits.RANKS)
    MINIMA = {
        _kernel_py.CLASS_CONSTRAINED: [1, 3, 16, 218],
        _kernel_py.CLASS_RAW: [4, 136],
        _kernel_py.CLASS_KRIPKE_ALL: [2, 10, 104, 3_044],
        _kernel_py.CLASS_KRIPKE_EQUIV: [1, 2, 3, 5],
    }

    def test_counts_of_minima(self):
        assert {key: len(_kernel_py.orbit_ranks(*key)) for key in self.ENTRIES} == {
            (class_id, n): count for class_id, counts in self.MINIMA.items() for n, count in enumerate(counts, 1)
        }

    def test_table_covers_every_searchable_world_count(self):
        assert self.ENTRIES == sorted(
            (mc.kernel_id, n) for mc in ModelClass if mc is not ModelClass.UNIVERSAL
            for n in range(1, mc.cap + 1)
        )

    # kripke-all/4, 65,536 frames, is left to CI's rebuild of the table
    @pytest.mark.parametrize("class_id,n", [key for key in ENTRIES if key != (_kernel_py.CLASS_KRIPKE_ALL, 4)])
    def test_minima_by_brute_force(self, class_id, n):
        # a frame is orbit-minimal iff no relabelling maps it to an earlier one
        frames = oracle.frames(_MODEL_CLASS[class_id].value, n)
        index = {frame: i for i, frame in enumerate(frames)}
        minimal = [
            i for i, frame in enumerate(frames)
            if all(index[relabel(frame, n, perm)] >= i for perm in itertools.permutations(range(n)))
        ]
        assert _kernel_py.orbit_ranks(class_id, n) == minimal

    @pytest.mark.parametrize("class_id,n", ENTRIES)
    def test_minima_decode_to_their_structures(self, class_id, n):
        every = list(_kernel_py.structures(class_id, n))
        assert _kernel_py.structure_count(class_id, n) == len(every)
        minima = _kernel_py.orbit_minima(class_id, n)
        assert list(minima) == [(r, every[r]) for r in _kernel_py.orbit_ranks(class_id, n)]

    @pytest.mark.parametrize("class_id", [
        _kernel_py.CLASS_CONSTRAINED, _kernel_py.CLASS_RAW, _kernel_py.CLASS_KRIPKE_ALL, _kernel_py.CLASS_UNIVERSAL,
    ])
    def test_product_classes_decode_once(self, monkeypatch, class_id):
        count = _kernel_py.structure_count(class_id, 2)
        first = _kernel_py.orbit_minima(class_id, 2)
        monkeypatch.setattr(_kernel_py, "_CHOICES", None)  # a second decode or count would read it
        assert _kernel_py.orbit_minima(class_id, 2) is first
        assert _kernel_py.structure_count(class_id, 2) == count

    @pytest.mark.parametrize("model_class", list(ModelClass), ids=lambda mc: mc.value)
    def test_structure_counts_are_the_oracles(self, model_class):
        assert [_kernel_py.structure_count(model_class.kernel_id, n) for n in range(1, model_class.cap + 1)] == [
            oracle.structure_count(model_class.value, n) for n in range(1, model_class.cap + 1)
        ]


class TestUniversalWorldBound:
    @pytest.mark.parametrize("texts,bound", [
        (["p0|~p0|p1"], 1),
        (["[]p0 -> []p0 & <>p1"], 2),
        (["[][]p0 -> <>[]p0"], 2),
        (["<>p1", "~(p0 & p1)", "<>p0 -> p0 | p1"], 3),
    ])
    def test_counts_distinct_modal_subformulas(self, texts, bound):
        *gamma, target = [parse(t) for t in texts]
        assert world_bound(ModelClass.UNIVERSAL, gamma, target) == bound

    @pytest.mark.parametrize("max_worlds", [1, 2, 3, 6])
    def test_scan_stops_at_the_bound(self, monkeypatch, max_worlds):
        scanned = scanned_worlds(monkeypatch)
        out = find_countermodel(parse("[]p0 -> []p0 & <>p1 | ~<>p1"), bounds(ModelClass.UNIVERSAL, max_worlds, (0, 1)))
        assert scanned == list(range(1, min(max_worlds, 3) + 1))
        assert (out.verdict, out.models_checked) == (Verdict.EXHAUSTED_VALID, oracle.model_count("universal", max_worlds, 2))

    @pytest.mark.parametrize("max_worlds", [3, 4, 6])
    def test_kernel_counts_the_worlds_past_the_cut(self, max_worlds):
        # the tracer reads models_checked off run_search's own result
        programs = [search.compile_program(parse("[]p0 -> []p0 & <>p1 | ~<>p1"), {0: 0, 1: 1})]
        found, checked, *_ = _kernel_py.run_search(_kernel_py.CLASS_UNIVERSAL, 3, 2, programs, max_worlds)
        assert not found and checked == oracle.model_count("universal", max_worlds, 2)

    @pytest.mark.parametrize("gamma,text", [
        ((), "<>p0 -> p0"),
        (("<>p1", "~(p0 & p1)"), "<>p0 -> p0 | p1"),
    ])
    def test_refuted_at_exactly_the_bound(self, gamma, text):
        premises = [parse(g) for g in gamma]
        out = check_global_consequence(premises, parse(text), bounds(ModelClass.UNIVERSAL, 5, (0, 1)))
        assert out.countermodel.worlds == world_bound(ModelClass.UNIVERSAL, premises, parse(text))


class TestEquivalenceWorldBound:
    """kripke-equiv searches stop at m + 1 worlds, as universal ones do."""

    @pytest.mark.parametrize("m,d", [(0, 0), (1, 1), (2, 1), (2, 2), (3, 1), (4, 3)])
    @pytest.mark.parametrize("premises", [False, True])
    def test_bound_of_the_class(self, m, d, premises):
        # m + 1, as for universal, whatever the depth and the premises
        bound = ModelClass.KRIPKE_EQUIVALENCE.world_bound(m, d, premises)
        assert bound == ModelClass.UNIVERSAL.world_bound(m, d, premises) == m + 1

    @pytest.mark.parametrize("max_worlds", [1, 2, 3, 4])
    def test_scan_stops_at_the_bound(self, monkeypatch, max_worlds):
        scanned = scanned_worlds(monkeypatch)
        b = bounds(ModelClass.KRIPKE_EQUIVALENCE, max_worlds, (0, 1))
        out = find_countermodel(parse("[]p0 -> []p0 & <>p1 | ~<>p1"), b)
        assert scanned == list(range(1, min(max_worlds, 3) + 1))
        assert (out.verdict, out.models_checked) == (Verdict.EXHAUSTED_VALID, oracle.model_count("kripke-equiv", max_worlds, 2))

    # (premises, formula): each bound is below the cap of 4 worlds
    CASES = [
        ((), "<>p0 -> p0"),
        ((), "[]p0 -> []p0 & <>p1 | ~<>p1"),
        (("p0",), "[]p0"),
        (("p0 -> []p0",), "<>p0 -> p0"),
        (("<>p0",), "p0 | <>~p0"),
        (("[]p0 -> p1",), "<>p1 -> p1 & p0"),
        (("<>p0 & <>~p0",), "p1"),
        (("<>p1", "~(p0 & p1)"), "<>p0 -> p0 | p1"),
    ]

    @pytest.mark.parametrize("gamma,text", CASES)
    def test_oracle_parity_at_the_cap(self, gamma, text):
        premises = [parse(g) for g in gamma]
        assert world_bound(ModelClass.KRIPKE_EQUIVALENCE, premises, parse(text)) < 4
        assert_oracle_parity(premises, parse(text), _kernel_py.CLASS_KRIPKE_EQUIV, 4, 2, (_kernel_py.CHUNK_LOG2, 1))

    @pytest.mark.parametrize("gamma,text", [
        ((), "<>p0 -> p0"),
        (("<>p1", "~(p0 & p1)"), "<>p0 -> p0 | p1"),
    ])
    def test_refuted_at_exactly_the_bound(self, gamma, text):
        premises = [parse(g) for g in gamma]
        out = check_global_consequence(premises, parse(text), bounds(ModelClass.KRIPKE_EQUIVALENCE, 4, (0, 1)))
        assert out.countermodel.worlds == world_bound(ModelClass.KRIPKE_EQUIVALENCE, premises, parse(text))


class TestTreeWorldBound:
    """Premise-free constrained and kripke-all searches stop at Σ_{i≤d} mⁱ
    worlds; with premises they stop at the filtration count instead, as raw
    searches do."""

    TREE_CLASSES = [ModelClass.CONSTRAINED_NEIGHBORHOOD, ModelClass.KRIPKE_ALL]

    @pytest.mark.parametrize("model_class", TREE_CLASSES, ids=lambda mc: mc.value)
    def test_bound_of_the_class(self, model_class):
        cases = [(0, 0), (1, 1), (2, 1), (3, 1), (2, 2), (1, 3), (3, 2)]
        assert [model_class.world_bound(m, d, False) for m, d in cases] == [1, 2, 3, 4, 7, 4, 13]
        assert [model_class.world_bound(m, d, True) for m, d in cases] == [None] * len(cases)

    def test_raw_has_no_bound(self):
        assert ModelClass.RAW_NEIGHBORHOOD.world_bound is None

    # (formula, class, worlds, atoms, bound, worlds of the first
    # countermodel or None): each bound is below the worlds searched, and
    # the oracle scans all of them
    CASES = [
        ("[]p0 -> p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 4, 1, 1, None),
        ("[]p0 & p1 -> p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, 2, 1, None),
        ("[]true & ~[]false", ModelClass.CONSTRAINED_NEIGHBORHOOD, 4, 0, 2, None),
        ("p0 | ~p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 4, 1, 1, None),
        ("<>true | []false", ModelClass.KRIPKE_ALL, 4, 0, 2, None),
        ("[](p0 | ~p0) | p1", ModelClass.KRIPKE_ALL, 3, 2, 2, None),
        ("p0 -> []p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 4, 1, 2, 2),
        ("p0 -> []p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, 2, 2, 2),
        ("p0 | [](~p0 | ~p1) | [](~p0 | p1)", ModelClass.CONSTRAINED_NEIGHBORHOOD, 4, 2, 3, 3),
        ("<>p0 -> p0", ModelClass.KRIPKE_ALL, 4, 1, 2, 2),
        ("<>p0 -> p0", ModelClass.KRIPKE_ALL, 3, 2, 2, 2),
        ("p0 | ~(<>(p0 & p1) & <>(p0 & ~p1))", ModelClass.KRIPKE_ALL, 4, 2, 3, 3),
    ]

    @pytest.mark.parametrize("text,model_class,worlds,natoms,bound,refuted_at", CASES)
    def test_oracle_parity_past_the_bound(self, monkeypatch, text, model_class, worlds, natoms, bound, refuted_at):
        f = parse(text)
        assert world_bound(model_class, (), f) == bound < worlds
        scanned = scanned_worlds(monkeypatch)
        assert_oracle_parity((), f, model_class.kernel_id, worlds, natoms, (_kernel_py.CHUNK_LOG2,))
        assert scanned == list(range(1, bound + 1))
        out = find_countermodel(f, bounds(model_class, worlds, range(natoms)))
        assert (out.countermodel and out.countermodel.worlds) == refuted_at

    # (premises, formula, class): premises leave no tree bound, though that
    # of the formula alone is below 4 worlds, so the scan stops at the
    # filtration count T or at the first countermodel
    PREMISED = [
        (("p0 -> <>p0",), "p1", ModelClass.KRIPKE_ALL),
        (("p0",), "[]p0", ModelClass.CONSTRAINED_NEIGHBORHOOD),
        (("[]p0 -> p1",), "[]p1 -> p1", ModelClass.CONSTRAINED_NEIGHBORHOOD),
        (("<>p0",), "<>p0 | []p1", ModelClass.KRIPKE_ALL),
        (("[](p0 -> p1)", "[]p0"), "[]p1", ModelClass.KRIPKE_ALL),
    ]
    # each formula's T, from the premises it has above
    PREMISED_COUNTS = {"p1": 6, "[]p0": 2, "[]p1 -> p1": 0, "<>p0 | []p1": 0, "[]p1": 8}

    @pytest.mark.parametrize("gamma,text,model_class", PREMISED)
    def test_premises_scan_every_world_count(self, monkeypatch, gamma, text, model_class):
        premises, count = [parse(g) for g in gamma], self.PREMISED_COUNTS[text]
        assert world_bound(model_class, (), parse(text)) < 4
        assert world_bound(model_class, premises, parse(text)) is None
        assert filtration_count(model_class, premises, parse(text), (0, 1)) == count
        scanned = scanned_worlds(monkeypatch)
        out = check_global_consequence(premises, parse(text), bounds(model_class, 4, (0, 1)))
        # one world is scanned before T is worked out
        last = out.countermodel.worlds if out.countermodel else max(1, min(4, count))
        assert scanned == list(range(1, last + 1))

    # each formula's T without the premise p1 and with it
    RAW_COUNTS = {"p0 | ~p0": (0, 0), "[]p0 -> []p0": (0, 0), "[](p0 & p1) -> [](p1 & p0)": (16, 8)}

    @pytest.mark.parametrize("text", list(RAW_COUNTS))
    @pytest.mark.parametrize("gamma", [(), ("p1",)])
    def test_raw_scans_every_world_count(self, monkeypatch, gamma, text):
        premises, count = [parse(g) for g in gamma], self.RAW_COUNTS[text][len(gamma)]
        assert filtration_count(ModelClass.RAW_NEIGHBORHOOD, premises, parse(text), (0, 1)) == count
        scanned = scanned_worlds(monkeypatch)
        out = check_global_consequence(premises, parse(text), bounds(ModelClass.RAW_NEIGHBORHOOD, 2, (0, 1)))
        assert scanned == list(range(1, max(1, min(2, count)) + 1))
        assert out.verdict is Verdict.EXHAUSTED_VALID


class TestWitnessedWorldBound:
    """A world bound counts only the modal subformulas that need a witness.
    Each first countermodel here lies at exactly its bound, so a count
    that left out one of its witnessed subformulas would miss it."""

    # (premises, formula, class): refuted first at 2 worlds, the bound, which
    # counting every modal subformula put at 3
    LOWERED = [
        ((), "[]p0 & <>p0 -> p0", ModelClass.KRIPKE_ALL),
        ((), "[]p1 -> []p0 | ~p0", ModelClass.CONSTRAINED_NEIGHBORHOOD),
        ((), "[]<>p0 -> p0", ModelClass.UNIVERSAL),
        ((), "<>[]p0 | ~p0", ModelClass.KRIPKE_EQUIVALENCE),
    ]
    # the same on universal, where one polarity rule alone decides that a
    # subformula is witnessed, so that the bound is 2 and not 1
    ONE_RULE = [
        ((), "<>p0 <-> p0"),
        ((), "[]p0 <-> p0"),
        ((), "~p0 -> ~<>p0"),
        (("<>p0",), "p0"),
    ]

    @pytest.mark.parametrize("gamma,text,model_class", LOWERED + [(*case, ModelClass.UNIVERSAL) for case in ONE_RULE])
    def test_refuted_at_exactly_the_bound(self, gamma, text, model_class):
        premises, f = [parse(g) for g in gamma], parse(text)
        assert world_bound(model_class, premises, f) == 2
        assert_oracle_parity(premises, f, model_class.kernel_id, 4, 2, (_kernel_py.CHUNK_LOG2,))
        out = check_global_consequence(premises, f, bounds(model_class, 4, (0, 1)))
        assert out.countermodel.worlds == 2

    @pytest.mark.parametrize("gamma,text,model_class", LOWERED)
    def test_every_modal_subformula_counted_gives_3(self, gamma, text, model_class):
        modal = {}
        compile_program(parse(text), {}, modal)
        assert model_class.world_bound(len(modal), max(modal.values()), bool(gamma)) == 3


def random_formula(rng: random.Random, natoms: int, modal: tuple, leaves: int):
    """A seeded random formula over ``natoms`` atoms with ``leaves`` leaves
    and the unary operators ``~`` and ``modal``."""
    if leaves == 1:
        r = rng.random()
        if r < 0.1:
            return rng.choice((TOP, BOTTOM))
        if 0.55 <= r < 0.8:
            return rng.choice((Not, *modal))(random_formula(rng, natoms, modal, 1))
        return Atom(rng.randrange(natoms))
    if rng.random() < 0.3:
        return rng.choice((Not, *modal, *modal))(random_formula(rng, natoms, modal, leaves))
    left = rng.randrange(1, leaves)
    return rng.choice((And, Or, Implies, Iff))(
        random_formula(rng, natoms, modal, left), random_formula(rng, natoms, modal, leaves - left)
    )


class TestFiltrationWorldBound:
    """Where no class bound applies (constrained and kripke-all with
    premises, and raw) a search stops at the filtration count T of its
    letters, the atoms and distinct modal subformulas of its programs."""

    # (class, worlds) of the differential, each with 2 atoms
    SIZES = [
        (ModelClass.RAW_NEIGHBORHOOD, 2),
        (ModelClass.CONSTRAINED_NEIGHBORHOOD, 4),
        (ModelClass.KRIPKE_ALL, 3),
        (ModelClass.KRIPKE_EQUIVALENCE, 3),
        (ModelClass.UNIVERSAL, 4),
    ]

    def test_cut_search_is_the_uncut_search(self, monkeypatch):
        # 4,000 seeded queries with 0-2 premises, 800 a class: with every
        # world bound, T included, the kernel returns what a scan of every
        # world count returns: verdict, count, and the first countermodel's
        # worlds, structure, valuation and world
        rng = random.Random(31)
        calls, run = [], _kernel_py.run_search

        def recorded(*args):
            calls.append((args, run(*args)))
            return calls[-1][1]

        monkeypatch.setattr(_kernel_py, "run_search", recorded)
        cut = exhausted = 0
        for i in range(4000):
            mc, worlds = self.SIZES[i % len(self.SIZES)]
            modal = (Box,) if mc.dialect is Dialect.BOX else (Box, Diamond)
            gamma = [random_formula(rng, 2, modal, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
            target = random_formula(rng, 2, modal, rng.randint(1, 5))
            calls.clear()
            check_global_consequence(gamma, target, bounds(mc, worlds, (0, 1)))
            [((class_id, bound, natoms, programs, full), result)] = calls
            assert result == run(class_id, full, natoms, programs, full), (mc.value, gamma, target)
            exhausted += not result[0]
            if bound is None and (_kernel_py.filtration_count(programs, class_id) or 1) < worlds:
                cut += 1
        # the differential reaches the cut, and not only on refuted queries
        assert cut > 500 and exhausted > 1000

    def test_premise_op_scans_two_worlds(self, monkeypatch):
        # []p0 and []p0 -> p0 give p0, p0 -> p1 gives p1, and only []p1 is
        # left free: T = 2, far below the 4 worlds searched
        mc, gamma, f = ModelClass.CONSTRAINED_NEIGHBORHOOD, [parse("p0 -> p1"), parse("[]p0")], parse("[]p1")
        assert filtration_count(mc, gamma, f, (0, 1)) == 2
        scanned = scanned_worlds(monkeypatch)
        out = check_global_consequence(gamma, f, bounds(mc, 4, (0, 1)))
        assert scanned == [1, 2]
        assert (out.verdict, out.models_checked) == (Verdict.EXHAUSTED_VALID, oracle.model_count("constrained", 4, 2))

    # (premises, formula, class, whether T is worked out): the searches
    # without a class bound, raw and the premised constrained and kripke-all
    # ones, need T; all are exhausted but the last two, refuted at one world
    COUNT_NEEDED = [
        ((), "[]p0 -> [][]p0", ModelClass.UNIVERSAL, False),
        (("[]p0",), "p0", ModelClass.UNIVERSAL, False),
        ((), "<>[]p0 -> []p0", ModelClass.KRIPKE_EQUIVALENCE, False),
        (("[]p0",), "p0", ModelClass.KRIPKE_EQUIVALENCE, False),
        ((), "[](p0 -> p1) -> ([]p0 -> []p1)", ModelClass.CONSTRAINED_NEIGHBORHOOD, False),
        ((), "[](p0 -> p1) -> ([]p0 -> []p1)", ModelClass.KRIPKE_ALL, False),
        ((), "[]p0 -> []p0", ModelClass.RAW_NEIGHBORHOOD, True),
        (("p1",), "[](p0 & p1) -> [](p1 & p0)", ModelClass.RAW_NEIGHBORHOOD, True),
        (("p0 -> p1", "[]p0"), "[]p1", ModelClass.CONSTRAINED_NEIGHBORHOOD, True),
        (("[](p0 -> p1)", "[]p0"), "[]p1", ModelClass.KRIPKE_ALL, True),
        # refuted at one world
        (("p1",), "p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, False),
        ((), "[]p0", ModelClass.RAW_NEIGHBORHOOD, False),
    ]

    def test_count_worked_out_only_when_needed(self, monkeypatch):
        scanned = scanned_worlds(monkeypatch)
        counted, count = [], _kernel_py.filtration_count
        # each T records the world counts scanned before it
        monkeypatch.setattr(_kernel_py, "filtration_count", lambda *args: counted.append(list(scanned)) or count(*args))
        for i, (gamma, text, mc, needed) in enumerate(self.COUNT_NEEDED):
            scanned.clear()
            counted.clear()
            out = check_global_consequence([parse(g) for g in gamma], parse(text), bounds(mc, min(mc.cap, 4), (0, 1)))
            refuted = i >= len(self.COUNT_NEEDED) - 2
            assert (out.countermodel and out.countermodel.worlds) == (1 if refuted else None), (gamma, text, mc.value)
            assert counted == ([[1]] if needed else []), (gamma, text, mc.value)

    def test_a_premise_left_out_raises_the_count(self):
        # each premise of the premise op alone leaves more than its T of 2
        mc, f = ModelClass.CONSTRAINED_NEIGHBORHOOD, parse("[]p1")
        assert filtration_count(mc, [parse("p0 -> p1")], f, (0, 1)) == 5
        assert filtration_count(mc, [parse("[]p0")], f, (0, 1)) == 3

    def test_reflexive_constraint_only_on_reflexive_classes(self, monkeypatch):
        # p0 from []p0: []p0 -> p0 leaves no countermodel on constrained, but
        # a kripke-all world without successors is one
        gamma, f = [parse("[]p0")], parse("p0")
        assert filtration_count(ModelClass.CONSTRAINED_NEIGHBORHOOD, gamma, f, (0,)) == 0
        assert filtration_count(ModelClass.KRIPKE_ALL, gamma, f, (0,)) == 2
        out = check_global_consequence(gamma, f, bounds(ModelClass.KRIPKE_ALL, 4, (0,)))
        assert (out.countermodel.worlds, out.countermodel.rows, out.world) == (1, (0,), 0)
        # p0 | []false from []p0 needs a successor, so 2 worlds; T = 4, and it
        # would be 0 with []p0 -> p0 and []false -> false imposed
        f = parse("p0 | []false")
        assert filtration_count(ModelClass.KRIPKE_ALL, gamma, f, (0,)) == 4
        scanned = scanned_worlds(monkeypatch)
        assert_oracle_parity(gamma, f, _kernel_py.CLASS_KRIPKE_ALL, 3, 1, (_kernel_py.CHUNK_LOG2,))
        out = check_global_consequence(gamma, f, bounds(ModelClass.KRIPKE_ALL, 4, (0,)))
        assert out.countermodel.worlds == 2 and scanned == [1, 2, 1, 2]

    @pytest.mark.parametrize("model_class", [ModelClass.KRIPKE_ALL, ModelClass.RAW_NEIGHBORHOOD],
                             ids=lambda mc: mc.value)
    def test_distinct_modal_subformulas_are_distinct_letters(self, model_class):
        # []p1 from []p0: letters p0, p1, []p0 and []p1, of which []p0 is
        # fixed; read as one letter, []p0 and []p1 would leave T = 0
        gamma, f = [parse("[]p0")], parse("[]p1")
        assert filtration_count(model_class, gamma, f, (0, 1)) == 8
        assert_oracle_parity(gamma, f, model_class.kernel_id, 2, 2, (_kernel_py.CHUNK_LOG2,))
        out = check_global_consequence(gamma, f, bounds(model_class, 2, (0, 1)))
        assert out.verdict is Verdict.COUNTERMODEL_FOUND

    def test_letters_stop_at_the_chunk(self):
        # 13 letters, p0 .. p12, are past CHUNK_LOG2: no cut
        f = parse(" | ".join(f"p{i}" for i in range(13)))
        assert filtration_count(ModelClass.RAW_NEIGHBORHOOD, [], f, range(13)) is None
        assert filtration_count(ModelClass.RAW_NEIGHBORHOOD, [], f, range(12)) == 1 << 12
        # an atom outside the bounds is no letter: it stays false
        assert filtration_count(ModelClass.RAW_NEIGHBORHOOD, [], parse("p0 | p5"), (0,)) == 2

    # (premises, formula, class, atoms, T): the first countermodel lies at
    # exactly T worlds
    AT_THE_COUNT = [
        (("~[]~p0",), "p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 1, 2),
        (("p1", "[](p1 & []p0) -> []~p1"), "p0 <-> ~p0 <-> []p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, 3),
        (("<>p0",), "p0", ModelClass.KRIPKE_ALL, 1, 2),
        (("[]p0 & []~p0 & []true & ~[]false",), "p0", ModelClass.RAW_NEIGHBORHOOD, 1, 2),
    ]

    @pytest.mark.parametrize("gamma,text,model_class,natoms,count", AT_THE_COUNT)
    def test_oracle_parity_at_the_count(self, monkeypatch, gamma, text, model_class, natoms, count):
        premises, f = [parse(g) for g in gamma], parse(text)
        assert filtration_count(model_class, premises, f, range(natoms)) == count
        for worlds in sorted({count, model_class.cap}):
            scanned = scanned_worlds(monkeypatch)
            assert_oracle_parity(premises, f, model_class.kernel_id, worlds, natoms, (_kernel_py.CHUNK_LOG2,))
            out = check_global_consequence(premises, f, bounds(model_class, worlds, range(natoms)))
            assert out.countermodel.worlds == count
            assert scanned == list(range(1, count + 1)) * 2

    # (premises, formula, class, worlds, atoms): T = 0, no countermodel
    NO_COUNT = [
        (("[]p0",), "p0", ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, 1),
        (("[]p0 -> p1",), "[]p1 -> p1", ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, 2),
        (("<>p0",), "<>p0 | []p0", ModelClass.KRIPKE_ALL, 3, 1),
        ((), "[]p0 -> []p0", ModelClass.RAW_NEIGHBORHOOD, 2, 1),
        (("p0",), "p0 | [](p0 & ~p0)", ModelClass.RAW_NEIGHBORHOOD, 2, 1),
    ]

    @pytest.mark.parametrize("gamma,text,model_class,worlds,natoms", NO_COUNT)
    def test_oracle_parity_without_a_count(self, monkeypatch, gamma, text, model_class, worlds, natoms):
        premises, f = [parse(g) for g in gamma], parse(text)
        assert filtration_count(model_class, premises, f, range(natoms)) == 0
        scanned = scanned_worlds(monkeypatch)
        assert_oracle_parity(premises, f, model_class.kernel_id, worlds, natoms, (_kernel_py.CHUNK_LOG2,))
        assert scanned == [1]


class TestGlobalConsequence:
    def test_atom_forces_box(self):
        out = check_global_consequence(
            [parse("p0")], parse("[]p0"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0,))
        )
        # globally true p0 has truth set W, which every superset-closed
        # family containing a core must contain
        assert out.verdict is Verdict.EXHAUSTED_VALID

    def test_empty_gamma_top(self):
        out = check_global_consequence([], parse("true"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2))
        assert out.verdict is Verdict.EXHAUSTED_VALID

    def test_bottom_gamma_vacuous(self):
        out = check_global_consequence(
            [parse("false")], parse("p0"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0,))
        )
        assert out.verdict is Verdict.EXHAUSTED_VALID

    def test_countermodel_validates_gamma(self):
        out = check_global_consequence(
            [parse("p0 | p1")], parse("p0"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0, 1))
        )
        assert out.verdict is Verdict.COUNTERMODEL_FOUND
        assert is_valid_in(out.countermodel, parse("p0 | p1"))
        assert not eval_model(out.countermodel, out.world, parse("p0"))


class TestKExperiment:
    def test_one_world_counts(self):
        out = run_k_experiment(bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 1, (0, 1)))
        assert out.models_checked == 4
        assert out.verdict is Verdict.EXHAUSTED_VALID

    def test_two_and_three_world_runs(self):
        for n, total in ((2, 4 + 64), (3, 4 + 64 + 4096)):
            out = run_k_experiment(bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, n, (0, 1)))
            assert isinstance(out, SearchOutcome)
            if out.verdict is Verdict.EXHAUSTED_VALID:
                assert out.models_checked == total
            else:
                assert out.countermodel is not None

    def test_requires_constrained_class(self):
        with pytest.raises(ValueError):
            run_k_experiment(bounds(ModelClass.KRIPKE_ALL, 2, (0, 1)))

    def test_report_shape(self):
        b = bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0, 1))
        out = run_k_experiment(b)
        report = experiment_report(K_FORMULA, b, out)
        assert report["formula"] == "[](p0 -> p1) -> []p0 -> []p1"
        assert parse(report["formula"]) == K_FORMULA
        assert report["class"] == "constrained"
        assert report["bounds"] == {"max_worlds": 2, "atoms": [0, 1]}
        assert report["verdict"] in ("CountermodelFound", "ExhaustedValid")
        assert isinstance(report["models_checked"], int)


class TestSampling:
    def test_seeded_and_deterministic(self):
        f = parse("p0 -> []p0")
        b = bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0,))
        one = sample_countermodel(f, b, 200, seed=42)
        two = sample_countermodel(f, b, 200, seed=42)
        assert one == two
        assert one.verdict is Verdict.COUNTERMODEL_FOUND
        assert not eval_model(one.countermodel, one.world, f)

    def test_inconclusive_on_theorem(self):
        out = sample_countermodel(
            parse("[]p0 -> p0"), bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0,)), 50, seed=7
        )
        assert out.verdict is Verdict.INCONCLUSIVE
        assert out.models_checked == 50

    def test_world_is_the_lowest_false_world(self):
        f = parse("[]p0")
        several = 0
        for seed in range(20):
            out = sample_countermodel(f, bounds(ModelClass.KRIPKE_ALL, 4, (0,)), 20, seed)
            m = out.countermodel
            falsified = [w for w in range(m.worlds) if not eval_model(m, w, f)]
            assert out.world == falsified[0]
            several += len(falsified) > 1
        assert several

    def test_samples_past_the_bound(self):
        b = bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 2, (0,))
        assert sample_countermodel(parse("false"), b, MAX_SAMPLES, seed=1).models_checked == 1
        with pytest.raises(BoundsExceededError, match="capped at 100000"):
            sample_countermodel(parse("false"), b, MAX_SAMPLES + 1, seed=1)

    def test_sampled_countermodel_is_revalidated(self, monkeypatch):
        # The empty set neighbours world 0, against (t), so []p0 -> p0 fails there.
        broken = NeighborhoodModel(1, ((0, 1),), ((0, 0),))
        monkeypatch.setattr(search, "_model_from_struct", lambda *args: broken)
        b = bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 1, (0,))
        with pytest.raises(SearchInternalError, match=r"^countermodel violates the \(c\)\(h\)\(t\)\(n\) conditions$"):
            sample_countermodel(parse("[]p0 -> p0"), b, 1, seed=1)

    def test_sampled_non_equivalence_is_refused(self, monkeypatch):
        # world 0 does not see itself, so p0 fails there
        broken = KripkeModel(1, (0,), ((0, 0),))
        monkeypatch.setattr(search, "_model_from_struct", lambda *args: broken)
        b = bounds(ModelClass.KRIPKE_EQUIVALENCE, 1, (0,))
        with pytest.raises(SearchInternalError, match="^countermodel relation is not an equivalence$"):
            sample_countermodel(parse("p0"), b, 1, seed=1)

    def test_equivalence_samples_are_equivalences(self):
        out = sample_countermodel(
            parse("p0"), bounds(ModelClass.KRIPKE_EQUIVALENCE, 3, (0,)), 50, seed=3
        )
        assert out.verdict is Verdict.COUNTERMODEL_FOUND
        assert relation_properties(out.countermodel).equivalence


class TestAxiomTablesExhaustedValid:
    def test_every_lpbox_axiom_schema_at_two_atoms(self):
        from plausible.proofs import SCHEMAS, SystemId
        from plausible.syntax import Atom, instantiate

        fill = {0: Atom(0), 1: Atom(1), 2: Atom(0)}
        for name in SystemId.LPBOX.axioms:
            schema = SCHEMAS[name]
            instance = instantiate(schema, {m: fill[m] for m in atoms_of(schema.pattern)})
            out = find_countermodel(instance, bounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0, 1)))
            assert out.verdict is Verdict.EXHAUSTED_VALID, name

    def test_every_s5_axiom_schema_at_one_atom(self):
        from plausible.proofs import SCHEMAS, SystemId
        from plausible.syntax import Atom, instantiate

        for name in SystemId.S5.axioms:
            schema = SCHEMAS[name]
            instance = instantiate(schema, {m: Atom(0) for m in atoms_of(schema.pattern)})
            out = find_countermodel(instance, bounds(ModelClass.KRIPKE_EQUIVALENCE, 3, (0,)))
            assert out.verdict is Verdict.EXHAUSTED_VALID, name


def test_backend_reported():
    assert kernel_backend() == "python"
