"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from conftest import (
    all_sharp_maps,
    family_key,
    load_fixture,
    random_chain_model,
    random_formula,
    random_raw_model,
)
from plausible.algebra import (
    alg_validates,
    check_algebra,
    check_derived_laws,
)
from plausible.cli import main
from plausible.derivations import translate_proof
from plausible.proofs import SystemId, check_proof, proof_from_data
from plausible.search import (
    K_FORMULA,
    ModelClass,
    SearchBounds,
    Verdict,
    experiment_report,
    find_countermodel,
    run_k_experiment,
)
from plausible._kernel_py import constrained_candidates
from plausible.semantics import (
    KripkeModel,
    is_valid_in,
    nm_check_conditions,
    relation_properties,
    supplement,
    truth_mask,
    world_conditions,
)
from plausible.syntax import Box, Dialect, atoms_of, instantiate, parse, translate
from plausible.proofs import SCHEMAS

REPO_ROOT = Path(__file__).parent.parent


def report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def exhausted(text_or_formula, model_class, max_worlds, atoms):
    f = parse(text_or_formula) if isinstance(text_or_formula, str) else text_or_formula
    outcome = find_countermodel(f, SearchBounds(model_class, max_worlds, atoms))
    return outcome.verdict is Verdict.EXHAUSTED_VALID, outcome


def test_c01_lpbox_soundness_suite():
    nabla_forms = [
        "nabla p0 & nabla p1 -> nabla(p0 & p1)",  # C
        "nabla p0 | nabla p1 -> nabla(p0 | p1)",  # H
        "nabla p0 -> p0",                         # T
        "nabla true",                             # N
        "~nabla false",                           # derived (i)
        "nabla p0 -> nabla(p0 | p1)",             # derived (ii)
        "p0 -> ~nabla ~p0",                       # derived (iv)
        "nabla p0 -> ~nabla ~p0",                 # derived (v)
        "nabla ~p0 -> ~nabla p0",                 # derived (vi)
    ]
    start = time.monotonic()
    for text in nabla_forms:
        boxed = translate(parse(text), Dialect.NABLA, Dialect.BOX)
        ok, outcome = exhausted(boxed, ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0, 1))
        assert ok, f"{text} refuted: {outcome}"
        assert outcome.models_checked == 4 + 64 + 4096
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report("C1 soundness suite", f"{len(nabla_forms)} schemas, {elapsed:.2f}s")


def test_c02_s5_suite():
    schema_names = ["T", "5", "K", "DfDia", "TDia", "D", "B", "4", "4Dia", "BDia", "5Dia", "DfBox"]
    p0 = parse("p0")
    for name in schema_names:
        schema = SCHEMAS[name]
        instance = instantiate(schema, {m: p0 for m in atoms_of(schema.pattern)})
        ok, outcome = exhausted(instance, ModelClass.KRIPKE_EQUIVALENCE, 3, (0,))
        assert ok, f"{name} refuted: {outcome}"
    report("C2 S5 suite", f"{len(schema_names)} schemas over equivalence frames")


def test_c03_frame_correspondence():
    t_schema = parse("[]p0 -> p0")
    five_schema = parse("<>p0 -> []<>p0")
    frames = 0
    for n in (1, 2, 3):
        for rows in itertools.product(range(1 << n), repeat=n):
            frames += 1
            frame_valid_t = True
            frame_valid_5 = True
            for mask in range(1 << n):
                m = KripkeModel(n, rows, ((0, mask),))
                frame_valid_t = frame_valid_t and is_valid_in(m, t_schema)
                frame_valid_5 = frame_valid_5 and is_valid_in(m, five_schema)
            props = relation_properties(KripkeModel(n, rows))
            assert frame_valid_t == props.reflexive, (n, rows)
            assert frame_valid_5 == props.euclidean, (n, rows)
    report("C3 frame correspondence", f"{frames} frames")


def test_c04_countermodel_determinism(capsys):
    argv = ["valid", "p0 -> []p0", "--class", "constrained", "--max-worlds", "2"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 1
    assert out1 == out2
    data = json.loads(out1)
    assert data["verdict"] == "CountermodelFound"
    assert data["world"] == 0
    assert data["countermodel"] == {
        "worlds": 2,
        "S": {"0": [[0, 1]], "1": [[0, 1]]},
        "V": {"p0": [0]},
    }
    report("C4 countermodel determinism", "byte-identical runs")


def test_c05_supplementation_lemma():
    rng = random.Random(58)
    chtn_inputs = 0
    for i in range(1000):
        m = random_chain_model(rng) if i % 10 < 3 else random_raw_model(rng)
        sup = supplement(m)
        assert supplement(sup) == sup
        full = m.full_mask
        for w in range(m.worlds):
            fam, closed = set(m.families[w]), set(sup.families[w])
            assert fam <= closed
            for x in closed:
                assert all(y in closed for y in range(full + 1) if y & x == x)
        before = nm_check_conditions(m)
        if before.c_witness is None and before.t_witness is None and before.n_witness is None:
            chtn_inputs += 1
            assert nm_check_conditions(sup).all_hold
    assert chtn_inputs >= 100  # the implication premise must actually fire
    report("C5 supplementation lemma", f"1000 models, {chtn_inputs} with (c)(t)(n)")


def test_c06_truth_set_homomorphism():
    rng = random.Random(59)
    for _ in range(1000):
        m = random_raw_model(rng, atoms=(0, 1, 2))
        f = random_formula(rng, atoms=(0, 1, 2), depth=3)
        g = random_formula(rng, atoms=(0, 1, 2), depth=3)
        full = m.full_mask
        tf, tg = truth_mask(m, f), truth_mask(m, g)
        assert truth_mask(m, parse(f"~p0")) == full ^ m.atom_mask(0)
        from plausible.syntax import And, Iff, Implies, Not, Or

        assert truth_mask(m, Not(f)) == full ^ tf
        assert truth_mask(m, And(f, g)) == tf & tg
        assert truth_mask(m, Or(f, g)) == tf | tg
        assert truth_mask(m, Implies(f, g)) == (full ^ tf) | tg
        assert truth_mask(m, Iff(f, g)) == ((full ^ tf) | tg) & ((full ^ tg) | tf)
        expected_box = 0
        for w in range(m.worlds):
            if tf in m.families[w]:
                expected_box |= 1 << w
        assert truth_mask(m, Box(f)) == expected_box
    report("C6 truth-set homomorphism", "1000 model/formula pairs, six equalities")


def test_c07_filter_collapse_oracle():
    # At every world, over every raw family in the raw kernel's order
    # (ascending family bitmask): (c)(h)(t)(n) keeps exactly the constrained
    # kernel's candidates, in its order, and (c)(h)(n) exactly the superset
    # families of arbitrary cores.  Both kernels take the product of the
    # per-world lists, so the filtered raw class is the constrained class,
    # model for model and in order.
    checks = 0
    for n in range(1, 5):
        families = [tuple(x for x in range(1 << n) if bits >> x & 1) for bits in range(1 << (1 << n))]
        principal = sorted(family_key(core, n) for core in range(1 << n))
        for w, candidates in enumerate(constrained_candidates(n)):
            reports = [world_conditions(family, w, n) for family in families]
            assert [bits for bits, r in enumerate(reports) if r.all_hold] == [
                family_key(core, n) for core in candidates
            ], (n, w)
            assert [bits for bits, r in enumerate(reports) if r.chn_hold] == principal, (n, w)
            checks += len(reports)
    report("C7 filter-collapse oracle", f"{checks} per-world checks up to 4 worlds")


CORPUS = [
    ("lpbox_c.json", True, None),
    ("lpbox_h.json", True, None),
    ("lpbox_t.json", True, None),
    ("lpbox_n.json", True, None),
    ("lnabla_ax1.json", True, None),
    ("lnabla_ax2.json", True, None),
    ("lnabla_ax3.json", True, None),
    ("s5_mp_chain.json", True, None),
    ("s5_rn_ntop.json", True, None),
    ("hequiv_forward.json", True, None),
    ("hequiv_backward.json", True, None),
    ("broken_rnabla_premise.json", False, 2),
    ("broken_axiom_binding.json", False, 1),
    ("broken_mp_shape.json", False, 2),
]


def test_c08_proof_checker_corpus():
    assert len(CORPUS) >= 12
    for name, accepted, failing_line in CORPUS:
        result = check_proof(proof_from_data(load_fixture("proofs", name)))
        assert result.accepted is accepted, name
        if not accepted:
            assert result.failing_line == failing_line, name
    report("C8 proof checker", f"{len(CORPUS)} fixtures")


def test_c09_deductive_equivalence_translation():
    translated = 0
    for name, accepted, _ in CORPUS:
        proof = proof_from_data(load_fixture("proofs", name))
        if not accepted or proof.system is not SystemId.LNABLA:
            continue
        out = translate_proof(proof)  # raises if an obligation is left open
        assert out.system is SystemId.LPBOX
        assert check_proof(out).accepted
        back = translate_proof(out)
        assert back.conclusion == proof.conclusion
        translated += 1
    assert translated == 5
    report("C9 deductive equivalence", f"{translated} nabla proofs round-tripped")


def test_c10_algebra_suite():
    candidates = list(all_sharp_maps(2))
    assert len(candidates) == 256
    valid = [a for a in candidates if check_algebra(a).all_hold]
    assert {a.sharp for a in valid} == {
        (0, 0, 0, 3),
        (0, 1, 0, 3),
        (0, 0, 2, 3),
        (0, 1, 2, 3),
    }
    axioms = [
        parse("nabla p0 & nabla p1 -> nabla(p0 & p1)"),
        parse("nabla(p0 | ~p0)"),
        parse("nabla p0 -> p0"),
    ]
    for a in valid:
        assert check_derived_laws(a).all_hold
        for f in axioms:
            assert alg_validates(a, f)
    zero = check_algebra(next(a for a in candidates if set(a.sharp) == {0}))
    assert zero.a4_witness == 0
    report("C10 algebra suite", f"{len(valid)} valid of 256 candidates")


def test_c11_k_experiment_stable_and_logged():
    bounds = SearchBounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0, 1))
    first = run_k_experiment(bounds)
    second = run_k_experiment(bounds)
    assert first == second
    assert first.models_checked == 4 + 64 + 4096
    report_data = experiment_report(K_FORMULA, bounds, first)
    logged = json.loads((REPO_ROOT / "experiments" / "k_experiment.json").read_text())
    assert report_data == logged
    report("C11 K experiment", f"verdict {first.verdict.value}, {first.models_checked} models")
