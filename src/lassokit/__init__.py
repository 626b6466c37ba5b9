"""Approximation, checking, and synthesis of lasso-precise omega-automata.

The package works with max-even parity automata over explicit finite
alphabets and with ultimately periodic words given as lassos (stem,
loop).  A construction is n-lasso-precise when its output agrees with
the target language on every lasso whose base has length n while staying
inside (or outside, for over-approximations) the target everywhere.
"""

from .core import (
    Alphabet,
    ContractViolation,
    InputError,
    Lasso,
    LassokitError,
    MembershipOracle,
    ParityAutomaton,
    ParseError,
    ResourceLimit,
    RunLasso,
    SolverFailure,
    BuchiTable,
    accepts_lasso,
    check_inclusion_exact,
    complement,
    find_accepting_lasso,
    intersection_lasso,
    is_buchi,
    is_complete,
    is_deterministic,
    is_empty,
    is_safety,
    lasso,
    lasso_table,
    product_accepts,
    product_lasso,
    reachable_states,
)
from .ltl import (
    ApLetterMap,
    LtlFormula,
    eval_on_lasso,
    format_ltl,
    ltl_oracle,
    parse_ltl,
    tableau,
    violation,
)
from .lassolab import (
    PrecisionReport,
    automaton_oracle,
    check_lasso_precise,
    enumerate_bases,
    unroll,
)
from .constructions import (
    build_safety_lasso_precise,
    buechi_to_safety,
    color_reduction_state_bound,
    counter_state_bound,
    drop_one_color,
    overapproximate,
    reduce_parity_colors,
    safety_state_bound,
)
from .families import (
    FAMILIES,
    FamilySpec,
    fairness_pairs_safety,
    fg_gf_dpa,
    fixture_formulas,
    gf_one,
    omega_k,
    phi_n_oracle,
)
from .hoa import HoaDocument, parse_hoa, read_hoa, to_dot, write_hoa
from .synth import (
    QbfProblem,
    SynthesisQuery,
    brute_force_search,
    decode,
    emit_qdimacs,
    encode,
    search_lasso_precise,
    solve_by_expansion,
    solve_external,
    solve_query,
    synthesize_minimal,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
