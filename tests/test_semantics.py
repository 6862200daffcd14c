import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_key, formulas, load_fixture, random_raw_model
from plausible.semantics import (
    MAX_CONDITION_WORLDS,
    BoundsExceededError,
    KripkeModel,
    ModelFormatError,
    NeighborhoodModel,
    UniversalModel,
    WorldRangeError,
    eval_model,
    is_valid_in,
    model_from_data,
    nm_check_conditions,
    relation_properties,
    supplement,
    truth_mask,
    truth_set,
    world_conditions,
)
from plausible.syntax import Box, DialectError, parse

p0_in_0 = {0: [0]}


def nm(worlds, s, v=None):
    return NeighborhoodModel.from_sets(worlds, s, v or {})


@pytest.fixture
def spec_model():
    # S(0) = {{0},{0,1}}, S(1) = {{1},{0,1}}, V(p0) = {0}
    return nm(2, {0: [[0], [0, 1]], 1: [[1], [0, 1]]}, p0_in_0)


class TestNeighborhoodEval:
    def test_box_true_where_truth_set_is_neighborhood(self, spec_model):
        assert eval_model(spec_model, 0, parse("[]p0")) is True

    def test_box_false_where_truth_set_missing(self, spec_model):
        assert eval_model(spec_model, 1, parse("[]p0")) is False

    def test_top_true_everywhere(self, spec_model):
        for w in (0, 1):
            assert eval_model(spec_model, w, parse("true")) is True

    def test_world_out_of_range(self, spec_model):
        with pytest.raises(WorldRangeError):
            eval_model(spec_model, 2, parse("p0"))

    def test_diamond_rejected(self, spec_model):
        with pytest.raises(DialectError):
            eval_model(spec_model, 0, parse("<>p0"))

    def test_nabla_rejected(self, spec_model):
        with pytest.raises(DialectError):
            eval_model(spec_model, 0, parse("nabla p0"))

    def test_truth_sets(self, spec_model):
        assert truth_set(spec_model, parse("p0")) == {0}
        assert truth_set(spec_model, parse("~p0")) == {1}
        assert truth_set(spec_model, parse("false")) == frozenset()

    def test_absent_atom_is_empty(self, spec_model):
        assert truth_set(spec_model, parse("p7")) == frozenset()


class TestConditions:
    def test_full_singleton_family_all_hold(self):
        m = nm(2, {0: [[0, 1]], 1: [[0, 1]]})
        report = nm_check_conditions(m)
        assert report.all_hold

    def test_n_and_h_fail(self):
        m = nm(2, {0: [[0]], 1: [[0, 1]]})
        report = nm_check_conditions(m)
        assert not report.n_holds and report.n_witness == 0
        assert not report.h_holds
        w, x, y = report.h_witness
        fam = m.families[w]
        assert (x in fam or y in fam) and (x | y) not in fam

    def test_t_fails_with_witness(self):
        m = nm(2, {0: [[1], [0, 1]], 1: [[0, 1]]})
        report = nm_check_conditions(m)
        assert not report.t_holds
        assert report.t_witness == (0, 0b10)

    def test_empty_family_reports_n_false(self):
        m = nm(1, {0: []})
        report = nm_check_conditions(m)
        assert not report.n_holds
        assert report.c_holds and report.t_holds

    def test_witnesses_revalidate(self):
        rng = random.Random(7)
        for _ in range(200):
            m = random_raw_model(rng)
            report = nm_check_conditions(m)
            if report.c_witness:
                w, x, y = report.c_witness
                fam = m.families[w]
                assert x in fam and y in fam and (x & y) not in fam
            if report.h_witness:
                w, x, y = report.h_witness
                fam = m.families[w]
                assert (x in fam or y in fam) and (x | y) not in fam
            if report.t_witness:
                w, x = report.t_witness
                assert x in m.families[w] and not (x >> w) & 1
            if report.n_witness is not None:
                assert m.full_mask not in m.families[report.n_witness]

    def test_h_witness_is_the_literal_scan(self):
        def literal(fam, n):
            for x in range(1 << n):
                for y in range(1 << n):
                    if (x in fam or y in fam) and x | y not in fam:
                        return (0, x, y)
            return None

        rng = random.Random(43)
        cases = [(n, bits) for n in (1, 2, 3) for bits in range(1 << (1 << n))]
        for i in range(3000):
            # half uniform, half the supersets of a core with one set toggled
            toggled = family_key(rng.randrange(16), 4) ^ 1 << rng.randrange(16)
            cases.append((4, toggled if i % 2 else rng.randrange(1 << 16)))
        holds = 0
        for n, bits in cases:
            family = tuple(x for x in range(1 << n) if bits >> x & 1)
            witness = world_conditions(family, 0, n).h_witness
            assert witness == literal(set(family), n), (n, bits)
            holds += witness is None
        assert holds > 100


class TestValidity:
    def test_not_box_bottom_on_t_models(self):
        # wherever (t) holds, the empty set is in no family
        m = nm(2, {0: [[0], [0, 1]], 1: [[1]]})
        assert nm_check_conditions(m).t_holds
        assert is_valid_in(m, parse("~[]false"))

    def test_atom_not_valid(self):
        m = nm(2, {0: [], 1: []}, p0_in_0)
        assert not is_valid_in(m, parse("p0"))

    def test_box_top_on_n_models(self):
        m = nm(2, {0: [[0, 1]], 1: [[0, 1], [1]]})
        assert nm_check_conditions(m).n_holds
        assert is_valid_in(m, parse("[]true"))


class TestSupplement:
    def test_adds_supersets(self):
        m = nm(2, {0: [[0]], 1: []})
        sup = supplement(m)
        assert sup.families[0] == (0b01, 0b11)
        assert sup.families[1] == ()

    def test_fixpoint_when_closed(self):
        m = nm(2, {0: [[0], [0, 1]], 1: [[0, 1]]})
        assert supplement(m) == m

    def test_empty_family_stays_empty(self):
        m = nm(1, {0: []})
        assert supplement(m).families[0] == ()

    def test_world_bound(self):
        at_bound = NeighborhoodModel(MAX_CONDITION_WORLDS, ((),) * MAX_CONDITION_WORLDS)
        assert supplement(at_bound) == at_bound
        past = NeighborhoodModel(MAX_CONDITION_WORLDS + 1, ((),) * (MAX_CONDITION_WORLDS + 1))
        with pytest.raises(BoundsExceededError):
            supplement(past)
        with pytest.raises(BoundsExceededError):
            nm_check_conditions(past)

    def test_idempotent_and_monotone_random(self):
        rng = random.Random(11)
        for _ in range(300):
            m = random_raw_model(rng)
            sup = supplement(m)
            assert supplement(sup) == sup
            for w in range(m.worlds):
                assert set(m.families[w]) <= set(sup.families[w])
                for x in sup.families[w]:
                    for y in range(x, m.full_mask + 1):
                        if y & x == x:
                            assert y in sup.families[w]


class TestKripke:
    def test_empty_relation_box_vacuous(self):
        m = KripkeModel.from_pairs(1, [])
        assert eval_model(m, 0, parse("[]false")) is True

    def test_reflexive_diamond(self):
        m = KripkeModel.from_pairs(1, [(0, 0)], p0_in_0)
        assert eval_model(m, 0, parse("<>p0")) is True

    def test_full_relation_box_refuted(self):
        m = KripkeModel.from_pairs(2, [(0, 0), (0, 1), (1, 0), (1, 1)], p0_in_0)
        assert eval_model(m, 0, parse("[]p0")) is False

    def test_t_instance_on_full_relation(self):
        m = KripkeModel.from_pairs(2, [(0, 0), (0, 1), (1, 0), (1, 1)], p0_in_0)
        assert is_valid_in(m, parse("[]p0 -> p0"))

    def test_nabla_rejected(self):
        m = KripkeModel.from_pairs(1, [(0, 0)])
        with pytest.raises(DialectError):
            eval_model(m, 0, parse("nabla p0"))


class TestUniversal:
    def test_box_top(self):
        m = UniversalModel.from_sets(2, p0_in_0)
        assert eval_model(m, 0, parse("[]true")) is True

    def test_diamond_somewhere(self):
        m = UniversalModel.from_sets(2, p0_in_0)
        assert eval_model(m, 1, parse("<>p0")) is True

    def test_t_instance(self):
        m = UniversalModel.from_sets(2, p0_in_0)
        assert eval_model(m, 0, parse("[]p0 -> p0")) is True

    @given(
        formulas(atoms=(0, 1), modal=("box", "diamond")),
        st.integers(1, 4),
        st.data(),
    )
    def test_agrees_with_full_kripke(self, f, n, data):
        masks = data.draw(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)))
        valuation = tuple(zip((0, 1), masks))
        um = UniversalModel(n, valuation)
        km = KripkeModel(n, tuple([(1 << n) - 1] * n), valuation)
        assert truth_mask(um, f) == truth_mask(km, f)


class TestRelationProperties:
    def test_full_relation_all_flags(self):
        m = KripkeModel.from_pairs(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        props = relation_properties(m)
        assert props.reflexive and props.euclidean and props.symmetric
        assert props.transitive and props.equivalence

    def test_partial_reflexivity_fails(self):
        m = KripkeModel.from_pairs(2, [(0, 0)])
        assert not relation_properties(m).reflexive

    def test_euclidean_needs_closing_pair(self):
        m = KripkeModel.from_pairs(2, [(0, 1)])
        assert not relation_properties(m).euclidean

    def test_equivalence_is_reflexive_plus_euclidean(self):
        for rows in [(0b01, 0b10), (0b11, 0b11), (0b01, 0b11)]:
            m = KripkeModel(2, rows)
            props = relation_properties(m)
            assert props.equivalence == (props.reflexive and props.euclidean)


class TestTruthSetHomomorphism:
    @settings(max_examples=150)
    @given(
        formulas(atoms=(0, 1), modal=("box",), max_leaves=8),
        formulas(atoms=(0, 1), modal=("box",), max_leaves=8),
        st.randoms(use_true_random=False),
    )
    def test_equalities(self, f, g, rnd):
        from plausible.syntax import And, Iff, Implies, Not, Or

        m = random_raw_model(rnd)
        full = m.full_mask
        tf = truth_mask(m, f)
        tg = truth_mask(m, g)
        assert truth_mask(m, Not(f)) == full ^ tf
        assert truth_mask(m, And(f, g)) == tf & tg
        assert truth_mask(m, Or(f, g)) == tf | tg
        assert truth_mask(m, Implies(f, g)) == (full ^ tf) | tg
        assert truth_mask(m, Iff(f, g)) == ((full ^ tf) | tg) & ((full ^ tg) | tf)
        box = 0
        for w in range(m.worlds):
            if tf in m.families[w]:
                box |= 1 << w
        assert truth_mask(m, Box(f)) == box


class TestFilterCollapse:
    def test_chn_families_are_principal(self):
        # families over a finite universe satisfying (c),(h),(n) are exactly
        # the superset families of their intersection
        rng = random.Random(23)
        seen = 0
        for _ in range(500):
            m = random_raw_model(rng)
            report = nm_check_conditions(m)
            if not report.chn_hold:
                continue
            seen += 1
            for w in range(m.worlds):
                fam = set(m.families[w])
                core = m.full_mask
                for x in fam:
                    core &= x
                assert fam == {x for x in range(m.full_mask + 1) if x & core == core}
        assert seen > 0

    def test_t_iff_world_in_core(self):
        rng = random.Random(29)
        for _ in range(500):
            m = random_raw_model(rng)
            report = nm_check_conditions(m)
            if not report.chn_hold:
                continue
            t_expected = True
            for w in range(m.worlds):
                core = m.full_mask
                for x in m.families[w]:
                    core &= x
                if not (core >> w) & 1:
                    t_expected = False
            assert report.t_holds == t_expected


class TestMonotonicity:
    def test_box_monotone_under_h(self):
        rng = random.Random(31)
        from conftest import random_formula

        checked = 0
        while checked < 100:
            m = random_raw_model(rng)
            if not nm_check_conditions(m).h_holds:
                continue
            f = random_formula(rng, depth=2)
            g = random_formula(rng, depth=2)
            tf, tg = truth_mask(m, f), truth_mask(m, g)
            if tf & tg != tf:
                continue
            checked += 1
            bf, bg = truth_mask(m, Box(f)), truth_mask(m, Box(g))
            assert bf & bg == bf


class TestSerialization:
    def test_model_round_trip(self, spec_model):
        data = spec_model.to_data()
        assert NeighborhoodModel.from_data(data) == spec_model

    def test_fixture_files(self):
        m = model_from_data(load_fixture("models", "nm_counter.json"))
        assert isinstance(m, NeighborhoodModel)
        assert eval_model(m, 0, parse("p0 -> []p0")) is False
        k = model_from_data(load_fixture("models", "km_full.json"))
        assert isinstance(k, KripkeModel)
        u = model_from_data(load_fixture("models", "um2.json"))
        assert isinstance(u, UniversalModel)

    def test_kripke_round_trip(self):
        m = KripkeModel.from_pairs(3, [(0, 1), (1, 2), (2, 0)], {0: [1]})
        assert KripkeModel.from_data(m.to_data()) == m

    def test_bad_data(self):
        with pytest.raises(ModelFormatError):
            NeighborhoodModel.from_data({"worlds": 0, "S": {}})
        with pytest.raises(ModelFormatError):
            NeighborhoodModel.from_data({"worlds": 2, "S": {"0": [[5]]}})
        with pytest.raises(ModelFormatError):
            KripkeModel.from_data({"worlds": 2, "R": [[0, 3]]})
