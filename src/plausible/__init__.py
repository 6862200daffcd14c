"""Workbench for the propositional logic of the plausible.

Parsing and schema matching for modal formulas, Hilbert-style proof
checking across four deductive systems, one truth function for
neighborhood, Kripke, and universal models, bounded countermodel search,
and finite plausibility algebras, evaluated as neighborhood models.
"""

from .algebra import (
    FinitePlausibilityAlgebra,
    alg_eval,
    alg_validates,
    check_algebra,
    check_derived_laws,
    iter_valid_algebras,
    plausible_elements,
)
from .derivations import ProofBuilder, translate_proof
from .proofs import (
    Proof,
    ProofLine,
    SystemId,
    check_proof,
    proof_from_data,
    proof_to_data,
)
from .search import (
    ModelClass,
    SearchBounds,
    SearchOutcome,
    Verdict,
    check_global_consequence,
    find_countermodel,
    run_k_experiment,
    sample_countermodel,
)
from .semantics import (
    ConditionReport,
    KripkeModel,
    NeighborhoodModel,
    UniversalModel,
    eval_model,
    is_valid_in,
    model_from_data,
    nm_check_conditions,
    relation_properties,
    supplement,
    truth_mask,
)
from .syntax import (
    Atom,
    And,
    Bottom,
    Box,
    Diamond,
    Dialect,
    Formula,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    Schema,
    Top,
    atoms_of,
    dialect_of,
    instantiate,
    match_schema,
    parse,
    parse_schema,
    render,
    subformulas,
    translate,
)

__version__ = "0.1.0"
