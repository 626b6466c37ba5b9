"""Bounded synthesis of lasso-precise automata.

The decision problem: does a deterministic parity automaton with k states
and m colors exist whose language is contained in a formula's language and
matches it on all lassos of base length n?  It is encoded as a 2-QBF
query: existential variables choose transitions and colors, universal
variables range over candidate words (letter bits plus a loop marker) and
candidate runs (state selectors plus a run-loop marker).

Solving happens one of three ways.  Without an external solver, a query
whose candidate count is within the search ceiling is decided by
enumerating automata directly (the brute force path, exact, and the test
oracle for the other two); past the ceiling, counterexample-guided
expansion of the universals decides instances under the expansion limit,
with each step decided by the internal SAT search.  With one, the
QDIMACS file is handed to the external solver.  The query's budgets pick
the engine before anything is encoded.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from .boolexpr import ExprPool, solve_cnf
from .core import (
    Alphabet,
    ContractViolation,
    InputError,
    Lasso,
    ParityAutomaton,
    ResourceLimit,
    SolverFailure,
    det_split_recurring,
    lasso_tables,
    nondet_split_verdicts,
    product_lasso,
)
from .lassolab import PrecisionReport, check_lasso_precise, words_by_length
from .ltl import ApLetterMap, LtlFormula, ltl_oracle, tableau, violation

DEFAULT_EXPANSION_LIMIT = 1_000_000
DEFAULT_SEARCH_CEILING = 1_000_000
SOLVER_ENV_VAR = "LASSOKIT_QBF_SOLVER"


@dataclass(frozen=True)
class SynthesisQuery:
    """One synthesis instance: formula, letter map, and the three budgets."""

    formula: LtlFormula
    ap_map: ApLetterMap
    n: int
    k: int
    m: int
    target: str = "deterministic"

    def __post_init__(self):
        if min(self.n, self.k, self.m) < 1:
            raise InputError("bounds n, k, m must all be positive")
        if self.target not in ("deterministic", "nondeterministic"):
            raise InputError(f"unknown target kind {self.target!r}")
        missing = self.formula.atoms() - set(self.ap_map.aps)
        if missing:
            raise InputError(f"formula atoms {sorted(missing)} not in the letter map")


@dataclass
class QbfProblem:
    """Encoded 2-QBF query plus the bookkeeping to decode models.

    ``parts`` maps subformula names to pool node ids so tests can probe
    each piece of the matrix on its own.  One part is not in the matrix:
    ``universal_canonical`` holds on exactly the universal assignments
    that ``canonical_assignment_count`` counts.
    """

    query: SynthesisQuery
    pool: ExprPool
    matrix: int
    universal_part: int
    parts: dict[str, int]
    trans_vars: dict[tuple[int, int, int], int]
    color_vars: dict[tuple[int, int], int]
    letter_vars: dict[tuple[int, int], int]
    word_loop_vars: dict[int, int]
    run_state_vars: dict[tuple[int, int], int]
    run_loop_vars: dict[int, int]
    var_roles: dict[int, str] = field(default_factory=dict)

    @property
    def var_count(self) -> int:
        return len(self.var_roles)

    @property
    def existential_vars(self) -> list[int]:
        return sorted(set(self.trans_vars.values()) | set(self.color_vars.values()))

    @property
    def universal_vars(self) -> list[int]:
        return sorted(
            set(self.letter_vars.values())
            | set(self.word_loop_vars.values())
            | set(self.run_state_vars.values())
            | set(self.run_loop_vars.values())
        )


def encode(q: SynthesisQuery) -> QbfProblem:
    """Build the quantified matrix for the query.

    Shape: automaton-wellformedness AND (loop-marker-wellformed IMPLIES
    (size-k accepting runs yield formula words) AND (formula words of base
    n keep the run alive and any closed run loop has even maximal color)
    AND (accepting runs on words of base n yield formula words)).
    """
    k, n, m = q.k, q.n, q.m
    aps = q.ap_map.aps
    sigma = q.ap_map.alphabet
    S = len(sigma)
    N = max(k, n)
    R = n * k
    s_bits = max(0, (k - 1).bit_length())

    pool = ExprPool()
    roles: dict[int, str] = {}
    counter = itertools.count(1)

    def fresh(role: str) -> int:
        v = next(counter)
        roles[v] = role
        return v

    trans_vars = {
        (s, li, s2): fresh(f"trans q{s} --{sigma[li]}--> q{s2}")
        for s in range(k)
        for li in range(S)
        for s2 in range(k)
    }
    color_vars = {
        (s, c): fresh(f"color q{s} = {c}") for s in range(k) for c in range(m)
    }
    letter_vars = {
        (j, b): fresh(f"letter bit: position {j}, ap {aps[b]}")
        for j in range(N)
        for b in range(len(aps))
    }
    word_loop_vars = {j: fresh(f"word loop starts at {j}") for j in range(N)}
    run_state_vars = {
        (j, b): fresh(f"run state bit {b} at step {j}")
        for j in range(R)
        for b in range(s_bits)
    }
    run_loop_vars = {j: fresh(f"run loop starts at {j}") for j in range(R)}

    P = pool
    tv = {key: P.var(v) for key, v in trans_vars.items()}
    cv = {key: P.var(v) for key, v in color_vars.items()}
    lettv = {key: P.var(v) for key, v in letter_vars.items()}
    lv = {key: P.var(v) for key, v in word_loop_vars.items()}
    sv = {key: P.var(v) for key, v in run_state_vars.items()}
    rv = {key: P.var(v) for key, v in run_loop_vars.items()}

    # --- automaton wellformedness ---------------------------------------
    shape_parts = []
    if q.target == "deterministic":
        for s in range(k):
            for li in range(S):
                shape_parts.append(
                    P.at_most_one([tv[(s, li, s2)] for s2 in range(k)])
                )
    for s in range(k):
        shape_parts.append(P.exactly_one([cv[(s, c)] for c in range(m)]))
    automaton_shape = P.conj_all(shape_parts)

    # --- universal wellformedness ---------------------------------------
    # No letter validity part: letters are AP valuations, so every bit
    # pattern denotes a letter.
    loop_onehot = P.exactly_one([lv[j] for j in range(N)])

    # --- helpers over the symbolic word and run -------------------------
    def word_letter_bit(j: int, b: int) -> int:
        return lettv[(j, b)]

    def word_letter_eq(j: int, li: int) -> int:
        mask = q.ap_map.mask_of(sigma[li])
        return P.conj_all(
            word_letter_bit(j, b) if mask >> b & 1 else P.neg(word_letter_bit(j, b))
            for b in range(len(aps))
        )

    def run_state_eq(j: int, s: int) -> int:
        return P.conj_all(
            sv[(j, b)] if s >> b & 1 else P.neg(sv[(j, b)]) for b in range(s_bits)
        )

    def run_state_valid(j: int) -> int:
        if k == 1 << s_bits or s_bits == 0:
            return P.TRUE
        return P.disj_all(run_state_eq(j, s) for s in range(k))

    def mu_eq(j: int, c: int) -> int:
        # color of the run state at step j
        return P.disj_all(
            P.conj(run_state_eq(j, s), cv[(s, c)]) for s in range(k)
        )

    def even_max(colors_seen: list[int]) -> int:
        # max-even over "color c occurs in the loop" flags
        out = []
        for c in range(0, m, 2):
            higher = [P.neg(colors_seen[c2]) for c2 in range(c + 1, m)]
            out.append(P.conj_all([colors_seen[c]] + higher))
        return P.disj_all(out)

    # --- bounded formula evaluation on the symbolic word ----------------
    def formula_value(base: int) -> int:
        """word (prefix of length base with marked loop) satisfies the formula"""
        cases = []
        for lw in range(base):
            cases.append(P.conj(lv[lw], _eval_formula(P, q.formula, base, lw, atom_bit)))
        return P.disj_all(cases)

    def atom_bit(pos: int, name: str) -> int:
        return word_letter_bit(pos, aps.index(name))

    word_models_k = formula_value(k)
    word_models_n = formula_value(n)

    # --- size-k runs imply the formula ----------------------------------
    def strict_step(j: int, j2: int) -> int:
        # the run takes an existing transition from step j to step j2
        out = []
        for s in range(k):
            per_letter = []
            for li in range(S):
                succ = P.disj_all(
                    P.conj(tv[(s, li, s2)], run_state_eq(j2, s2)) for s2 in range(k)
                )
                per_letter.append(P.conj(word_letter_eq(j, li), succ))
            out.append(P.conj(run_state_eq(j, s), P.disj_all(per_letter)))
        return P.disj_all(out)

    after_l = []
    acc = P.FALSE
    for j in range(N):
        acc = P.disj(acc, lv[j])
        after_l.append(acc)

    strict_match = P.conj_all(
        [run_state_eq(0, 0)]
        + [run_state_valid(j) for j in range(k)]
        + [strict_step(j, j + 1) for j in range(k - 1)]
        + [P.disj_all(P.conj(lv[lw], strict_step(k - 1, lw)) for lw in range(k))]
    )
    k_loop_colors = [
        P.disj_all(P.conj(after_l[j], mu_eq(j, c)) for j in range(k))
        for c in range(m)
    ]
    k_run_accepting = even_max(k_loop_colors)
    valid_k = P.disj_all(lv[j] for j in range(k))
    runs_imply_formula = P.implies(
        P.conj(valid_k, strict_match, k_run_accepting), word_models_k
    )

    # --- formula words of base n are accepted ---------------------------
    def run_word_bit(j: int, b: int) -> int:
        # bit b of the letter consumed at run step j; steps beyond the word
        # base wrap into the word loop
        cases = []
        for lw in range(n):
            pos = j if j < n else lw + (j - lw) % (n - lw)
            cases.append(P.conj(lv[lw], word_letter_bit(pos, b)))
        return P.disj_all(cases)

    def run_word_eq(j: int, li: int) -> int:
        mask = q.ap_map.mask_of(sigma[li])
        return P.conj_all(
            run_word_bit(j, b) if mask >> b & 1 else P.neg(run_word_bit(j, b))
            for b in range(len(aps))
        )

    def defined_at(j: int) -> int:
        out = []
        for s in range(k):
            per_letter = P.disj_all(
                P.conj(
                    run_word_eq(j, li),
                    P.disj_all(tv[(s, li, s2)] for s2 in range(k)),
                )
                for li in range(S)
            )
            out.append(P.conj(run_state_eq(j, s), per_letter))
        return P.disj_all(out)

    def taken_step(j: int, j2: int) -> int:
        out = []
        for s in range(k):
            per_letter = []
            for li in range(S):
                succ = P.disj_all(
                    P.conj(tv[(s, li, s2)], run_state_eq(j2, s2)) for s2 in range(k)
                )
                per_letter.append(P.conj(run_word_eq(j, li), succ))
            out.append(P.conj(run_state_eq(j, s), P.disj_all(per_letter)))
        return P.disj_all(out)

    defined = [defined_at(j) for j in range(R)]
    tolerant_match = P.conj_all(
        [run_state_eq(0, 0)]
        + [run_state_valid(j) for j in range(R)]
        + [P.implies(defined[j], taken_step(j, j + 1)) for j in range(R - 1)]
    )
    run_all_defined = P.conj_all(defined)

    run_loop_onehot = P.exactly_one([rv[j] for j in range(R)])
    wrap_cases = []
    for rw in range(R):
        compatible = P.disj_all(
            lv[lw] for lw in range(n) if rw >= lw and (R - rw) % (n - lw) == 0
        )
        wrap_cases.append(P.conj(rv[rw], compatible, taken_step(R - 1, rw)))
    run_loop_valid = P.conj(run_loop_onehot, P.disj_all(wrap_cases))

    after_r = []
    acc = P.FALSE
    for j in range(R):
        acc = P.disj(acc, rv[j])
        after_r.append(acc)
    n_loop_colors = [
        P.disj_all(P.conj(after_r[j], mu_eq(j, c)) for j in range(R))
        for c in range(m)
    ]
    run_loop_colors_even = even_max(n_loop_colors)

    valid_n = P.disj_all(lv[j] for j in range(n))
    formula_words_accepted = P.implies(
        P.conj(valid_n, word_models_n, tolerant_match),
        P.conj(run_all_defined, P.implies(run_loop_valid, run_loop_colors_even)),
    )
    # accepting n*k-step runs on base-n words imply the formula; for n > k
    # the base-k half above never sees these words
    runs_imply_formula_n = P.implies(
        P.conj(
            valid_n,
            tolerant_match,
            run_all_defined,
            run_loop_valid,
            run_loop_colors_even,
        ),
        word_models_n,
    )

    universal_part = P.implies(
        loop_onehot,
        P.conj(runs_imply_formula, formula_words_accepted, runs_imply_formula_n),
    )
    matrix = P.conj(automaton_shape, universal_part)
    universal_canonical = P.conj_all(
        [loop_onehot, run_loop_onehot] + [run_state_valid(j) for j in range(R)]
    )

    parts = {
        "automaton_shape": automaton_shape,
        "loop_onehot": loop_onehot,
        "word_models_k": word_models_k,
        "word_models_n": word_models_n,
        "run_match_strict": strict_match,
        "run_accepting_k": k_run_accepting,
        "runs_imply_formula": runs_imply_formula,
        "run_match_tolerant": tolerant_match,
        "run_all_defined": run_all_defined,
        "run_loop_valid": run_loop_valid,
        "run_loop_colors_even": run_loop_colors_even,
        "formula_words_accepted": formula_words_accepted,
        "runs_imply_formula_n": runs_imply_formula_n,
        "universal_canonical": universal_canonical,
    }

    problem = QbfProblem(
        query=q,
        pool=pool,
        matrix=matrix,
        universal_part=universal_part,
        parts=parts,
        trans_vars=trans_vars,
        color_vars=color_vars,
        letter_vars=letter_vars,
        word_loop_vars=word_loop_vars,
        run_state_vars=run_state_vars,
        run_loop_vars=run_loop_vars,
        var_roles=roles,
    )
    declared = set(roles)
    if not pool.free_vars(matrix) <= declared:
        raise ContractViolation("matrix references undeclared variables")
    return problem


def _eval_formula(pool: ExprPool, f: LtlFormula, base: int, lw: int, atom_bit) -> int:
    """Loop-aware bounded semantics on the word with loop start lw.

    Temporal operators are evaluated with two backward sweeps over the
    loop (the second seeded by the first) and one over the stem, the same
    scheme the concrete lasso evaluator uses.
    """
    P = pool
    memo: dict[tuple[int, int], int] = {}

    def nxt(j: int) -> int:
        return j + 1 if j + 1 < base else lw

    def until(a: LtlFormula, b: LtlFormula, dual: bool) -> dict[int, int]:
        def step(j: int, follow: int) -> int:
            if dual:
                return P.conj(ev(b, j), P.disj(ev(a, j), follow))
            return P.disj(ev(b, j), P.conj(ev(a, j), follow))

        vals: dict[int, int] = {}
        wrap = P.TRUE if dual else P.FALSE
        for _sweep in range(2):
            for j in range(base - 1, lw - 1, -1):
                vals[j] = step(j, wrap if j == base - 1 else vals[j + 1])
            wrap = vals[lw]
        for j in range(lw - 1, -1, -1):
            vals[j] = step(j, vals[j + 1])
        return vals

    def ev(g: LtlFormula, j: int) -> int:
        key = (id(g), j)
        got = memo.get(key)
        if got is not None:
            return got
        kind = g.kind
        if kind == "atom":
            out = atom_bit(j, g.name)
        elif kind == "true":
            out = P.TRUE
        elif kind == "false":
            out = P.FALSE
        elif kind == "not":
            out = P.neg(ev(g.operands[0], j))
        elif kind == "and":
            out = P.conj(*(ev(x, j) for x in g.operands))
        elif kind == "or":
            out = P.disj(*(ev(x, j) for x in g.operands))
        elif kind == "implies":
            out = P.implies(ev(g.operands[0], j), ev(g.operands[1], j))
        elif kind == "next":
            out = ev(g.operands[0], nxt(j))
        else:
            from . import ltl as _ltl

            if kind == "until":
                a, b = g.operands
                table = until(a, b, dual=False)
            elif kind == "release":
                a, b = g.operands
                table = until(a, b, dual=True)
            elif kind == "eventually":
                table = until(_ltl.true(), g.operands[0], dual=False)
            else:  # always
                table = until(_ltl.false(), g.operands[0], dual=True)
            for pos, val in table.items():
                memo[(id(g), pos)] = val
            return table[j]
        memo[key] = out
        return out

    return ev(f, 0)


# ---------------------------------------------------------------------------
# QDIMACS emission

def emit_qdimacs(p: QbfProblem) -> str:
    """Render the problem as prenex ∃∀∃ CNF in QDIMACS.

    Tseitin auxiliaries land in the innermost existential block.  Output is
    deterministic for a fixed problem, and `c` comments map variable
    indices to their roles.
    """
    clauses, next_var = p.pool.tseitin([p.matrix], p.var_count + 1)
    aux = list(range(p.var_count + 1, next_var))
    q = p.query
    lines = [
        f"c lasso-precise synthesis: n={q.n} k={q.k} m={q.m} "
        f"target={q.target} formula={q.formula}"
    ]
    for v in sorted(p.var_roles):
        lines.append(f"c var {v}: {p.var_roles[v]}")
    lines.append(f"p cnf {next_var - 1} {len(clauses)}")
    lines.append("e " + " ".join(str(v) for v in p.existential_vars) + " 0")
    lines.append("a " + " ".join(str(v) for v in p.universal_vars) + " 0")
    if aux:
        lines.append("e " + " ".join(str(v) for v in aux) + " 0")
    for cl in clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# internal decision by counterexample-guided expansion

def canonical_assignment_count(q: SynthesisQuery) -> int:
    """Universal assignments of the encoding of ``q`` that survive loop
    wellformedness: every word (letters plus one loop marker) times every
    run (states plus one run-loop marker).  Read off the query alone, so
    it is known before ``encode`` runs."""
    S = len(q.ap_map.alphabet)
    N = max(q.k, q.n)
    R = q.n * q.k
    return (S**N * N) * (q.k**R * R)


def solve_by_expansion(
    p: QbfProblem, limit: int = DEFAULT_EXPANSION_LIMIT
) -> Optional[dict[int, bool]]:
    """Decide the query by counterexample-guided expansion of the universals.

    Returns a model over the transition and color variables, or None for
    unsatisfiable.  Raises ResourceLimit when the canonical assignment
    count exceeds ``limit``.

    Instead of folding every canonical universal assignment into the
    matrix, the loop expands on demand (the abstraction refinement of
    Janota and Marques-Silva for 2-QBF):

    1. SAT-solve ``automaton_shape`` conjoined with the instances collected
       so far.  UNSAT means the query is UNSAT; otherwise the model is the
       candidate.
    2. Look for a canonical universal assignment that falsifies the matrix
       under the candidate.  If there is none, the candidate is a model.
    3. Fold that assignment into ``universal_part``.  The result is a new
       instance over the existential variables; FALSE means UNSAT,
       otherwise add it and repeat.

    Termination: each counterexample falsifies a candidate that satisfies
    every earlier instance, so no canonical assignment is returned twice,
    and the loop runs at most ``canonical_assignment_count(p.query)``
    rounds.
    """
    count = canonical_assignment_count(p.query)
    if count > limit:
        raise ResourceLimit(
            f"expansion needs {count} universal instances, limit is {limit}"
        )
    pool = p.pool
    instances = [p.parts["automaton_shape"]]
    while True:
        abstraction = pool.conj_all(instances)
        clauses, next_var = pool.tseitin([abstraction], p.var_count + 1)
        model = solve_cnf(clauses, next_var - 1)
        if model is None:
            return None
        candidate = {v: model[v] for v in p.existential_vars}
        counter = _falsifying_assignment(p, candidate)
        if counter is None:
            return candidate
        instance = pool.fold(p.universal_part, counter)
        if instance == pool.FALSE:
            return None
        instances.append(instance)


def _falsifying_assignment(
    p: QbfProblem, model: dict[int, bool]
) -> Optional[dict[int, bool]]:
    """A canonical universal assignment under which fixing the existential
    variables to ``model`` falsifies the matrix, or None if there is none.

    Restricting the search to canonical assignments loses nothing.  An
    assignment that falsifies ``runs_imply_formula`` depends only on its
    first k run states, which the strict match makes valid.  One that
    falsifies ``formula_words_accepted`` passes the tolerant match, so all
    its run states are valid, and it either fails ``run_all_defined``,
    which ignores the run-loop marker, or closes a valid, hence one-hot,
    run loop.  Either way it stays falsifying when invalid run states are
    reset to state 0 and a run-loop marker that is not one-hot to step 0.
    One that falsifies ``runs_imply_formula_n`` passes the tolerant match
    and closes a valid run loop, so it is canonical already.
    """
    pool = p.pool
    asg = {v: bool(model.get(v, False)) for v in p.existential_vars}
    # residual first: solve_cnf branches on the earliest open clause
    refute = pool.conj(
        pool.neg(pool.fold(p.matrix, asg)), p.parts["universal_canonical"]
    )
    clauses, next_var = pool.tseitin([refute], p.var_count + 1)
    found = solve_cnf(clauses, next_var - 1)
    if found is None:
        return None
    return {v: found[v] for v in p.universal_vars}


def model_satisfies(p: QbfProblem, model: dict[int, bool]) -> bool:
    """Whether fixing the existential variables to ``model`` makes the
    matrix valid for every universal assignment (decided exactly by
    refuting the negated residual)."""
    return _falsifying_assignment(p, model) is None


# ---------------------------------------------------------------------------
# model decoding and certificate checking

def decode(p: QbfProblem, model: dict[int, bool]) -> ParityAutomaton:
    """Read the chosen automaton out of a model.

    States are named q0..q{k-1} with q0 initial.  A state with no chosen
    color, or several, means the wellformedness part of the encoding was
    violated and is reported as a contract violation.
    """
    q = p.query
    sigma = q.ap_map.alphabet
    names = [f"q{s}" for s in range(q.k)]
    coloring = {}
    for s in range(q.k):
        picked = [c for c in range(q.m) if model.get(p.color_vars[(s, c)], False)]
        if len(picked) != 1:
            raise ContractViolation(
                f"model picks {len(picked)} colors for state q{s}"
            )
        coloring[names[s]] = picked[0]
    transitions: dict[tuple[str, str], set[str]] = {}
    for (s, li, s2), v in p.trans_vars.items():
        if model.get(v, False):
            transitions.setdefault((names[s], sigma[li]), set()).add(names[s2])
    return ParityAutomaton(
        alphabet=sigma,
        states=tuple(names),
        initial=frozenset({names[0]}),
        transitions={key: frozenset(t) for key, t in transitions.items()},
        coloring=coloring,
    )


def verify_certificate(q: SynthesisQuery, a: ParityAutomaton) -> PrecisionReport:
    """Independent re-check of a synthesized automaton: agreement on every
    lasso of base n plus exact containment, decided by the product with
    the tableau of the negated formula."""
    phi = ltl_oracle(q.formula, q.ap_map)
    return check_lasso_precise(a, phi, q.n)


# ---------------------------------------------------------------------------
# brute-force enumeration (independent oracle for the encoding)

def search_space_size(alphabet_size: int, k: int, m: int, target: str) -> int:
    """Documented pre-pruning candidate count for the enumerator."""
    if target == "deterministic":
        return (k + 1) ** (k * alphabet_size) * m**k
    return (1 << k) ** (k * alphabet_size) * m**k * k


def search_lasso_precise(
    alphabet: Alphabet,
    oracle,
    n: int,
    k: int,
    m: int,
    target: str = "deterministic",
    ceiling: int = DEFAULT_SEARCH_CEILING,
    inclusion_bound: Optional[int] = None,
) -> Optional[ParityAutomaton]:
    """Search k-state, m-color automata over the alphabet for one that
    agrees with the oracle on every base-n lasso and whose language is
    contained in the oracle's, and return it, or None if there is none.

    Containment is exact when the oracle is an ``ltl_oracle``, which
    carries its formula and letter map: a candidate that passes the
    equality lassos is tested by the product with the tableau of the
    negated formula.  For a bare oracle it is tested on every lasso of
    base up to the inclusion bound (default n*k), the only case the bound
    applies to.

    Deterministic candidates are found by a depth-first search over a
    partial successor table, which assigns a cell only when the run of a
    constraint reads it.  A constraint is an equality word with its split
    verdicts, or a lasso that a containment test found outside the
    language, which every later candidate must reject.  The choices for a
    cell are the states used so far, the next unused state (states are
    numbered in first-use order, which fixes the initial state and breaks
    the renaming symmetry) and dead.  Runs are simulated with state bits
    as weights, so they give the set of states that recur on each split,
    and a coloring agrees iff it accepts every set that must be accepted
    and none that must be rejected: a node keeps these two sets as bits
    and the colorings that pass both, and is pruned when none does.  Each
    node first re-runs the few constraints that refuted last, since a
    constraint that refuted a sibling often refutes it too.  Once every
    constraint is folded in, the unread cells become dead: a dead cell
    only shrinks the language and the read cells fix every constraint, so
    if this table fails for every live coloring of its used states, so
    does every table that extends it.  A counterexample to containment
    becomes a new constraint.  The nondeterministic mode enumerates subset
    transition tables with initial sets {q0..qi} and is only meant for
    very small k.  Raises ResourceLimit when the documented pre-pruning
    count exceeds the ceiling.  The witness is not re-checked here:
    callers run ``verify_certificate`` on it.
    """
    S = len(alphabet)
    space = search_space_size(S, k, m, target)
    if space > ceiling:
        raise ResourceLimit(
            f"search space has {space} candidates, ceiling is {ceiling}"
        )
    # each (word, split) lasso of base n is asked once
    equality = [
        (word, [bool(oracle(_lasso_of(alphabet, word, split))) for split in range(n)])
        for word in words_by_length(range(S), n, n)
    ]
    formula = getattr(oracle, "formula", None)
    # leak(verdicts_of, starts, colors, moves): for a candidate that agrees
    # on every equality word, given its split verdicts and its integer
    # view, a lasso (word, split) that it accepts outside the language, or
    # None if the containment test passes
    if formula is not None:
        negation = tableau(formula, oracle.ap_map, negate=True)

        def leak(verdicts_of, starts, colors, moves):
            got = product_lasso(alphabet.letters, starts, colors, moves, negation)
            if got is None:
                return None
            return tuple(alphabet.index(x) for x in got.base), len(got.stem)

    else:
        bound = n * k if inclusion_bound is None else inclusion_bound
        # Only candidates that pass equality read the inclusion words, so
        # the list is built the first time one does.
        inclusion = functools.cache(
            lambda: [w for w in words_by_length(range(S), 1, bound) if len(w) != n]
        )
        # leaves of one search scan the same lassos again
        phi = functools.cache(lambda w: bool(oracle(w)))

        def leak(verdicts_of, starts, colors, moves):
            for word in inclusion():
                for split, got in enumerate(verdicts_of(word)):
                    if got and not phi(_lasso_of(alphabet, word, split)):
                        return word, split
            return None

    if target == "deterministic":
        return _search_deterministic(alphabet, k, m, equality, leak)
    return _scan_nondeterministic(alphabet, k, m, equality, leak)


def _lasso_of(alphabet: Alphabet, word, split: int) -> Lasso:
    named = tuple(alphabet[x] for x in word)
    return Lasso(named[:split], named[split:])


def _agrees(verdicts_of, equality) -> bool:
    """``verdicts_of(word)`` (one verdict per split) matches the language
    on every equality word."""
    return all(verdicts_of(word) == wants for word, wants in equality)


def _build(alphabet: Alphabet, starts, colors, moves) -> ParityAutomaton:
    """The automaton of a candidate's integer view, states named q0, q1, ..."""
    S = len(alphabet)
    names = [f"q{s}" for s in range(len(colors))]
    transitions = {
        (names[s], alphabet[li]): frozenset(names[t] for t in moves[s * S + li])
        for s in range(len(colors))
        for li in range(S)
        if moves[s * S + li]
    }
    return ParityAutomaton(
        alphabet=alphabet,
        states=tuple(names),
        initial=frozenset(names[s] for s in starts),
        transitions=transitions,
        coloring=dict(zip(names, colors)),
    )


def _search_deterministic(alphabet, k, m, equality, leak):
    # table[q * S + x] is the successor of state q on letter x: a state, k
    # (dead) or, while unset, unset + q * S + x, so that the ~v that core's
    # run returns on reading it names the cell; ``constraints`` holds
    # (word, wants) pairs, wants[i] the verdict that the split at i must get
    # or None
    S = len(alphabet)
    unset = k + 1
    table = [unset + cell for cell in range(k * S)]
    bits = [1 << q for q in range(k)]
    constraints = list(equality)
    recent: list[int] = []  # the constraints that refuted last, latest first
    colorings = functools.cache(lambda used: _accept_sets(used, k, m))

    def refuted(j: int) -> None:
        if j in recent:
            recent.remove(j)
        recent.insert(0, j)
        del recent[4:]

    def fold(recurring, wants, need: int, forbid: int, live: list):
        # need and forbid hold the recurring-state sets to accept and to
        # reject as bits, set 0 being a dead run; None on a clash
        was = need, forbid
        # a run that dies along the word recurs on set 0 at every split
        for states, want in zip(recurring or itertools.repeat(0), wants):
            if want:
                need |= 1 << states
            elif want is not None:
                forbid |= 1 << states
        if (need, forbid) == was:
            return need, forbid, live
        if need & (forbid | 1):
            return None
        live = [c for c in live if c & need == need and not c & forbid]
        return (need, forbid, live) if live else None

    def visit(used: int, need: int, forbid: int, live: list, i: int):
        # constraints[:i] are folded into need, forbid and live
        for j in recent:
            if j >= i:
                word, wants = constraints[j]
                recurring = det_split_recurring(table, bits, S, 0, word)
                if type(recurring) is int:
                    continue
                got = fold(recurring, wants, need, forbid, live)
                if got is None:
                    refuted(j)
                    return None
                need, forbid, live = got
        while i < len(constraints):
            word, wants = constraints[i]
            recurring = det_split_recurring(table, bits, S, 0, word)
            if type(recurring) is int:
                cell = ~recurring - unset
                for t in (*range(min(used + 1, k)), k):
                    table[cell] = t
                    found = visit(used + (t == used < k), need, forbid, live, i)
                    if found is not None:
                        return found
                table[cell] = unset + cell
                return None
            got = fold(recurring, wants, need, forbid, live)
            if got is None:
                refuted(i)
                return None
            need, forbid, live = got
            i += 1
        return leaf(used, need, forbid)

    def leaf(used: int, need: int, forbid: int):
        # unread cells become dead; a leak found here is a constraint that
        # every later candidate must meet
        done = [min(t, k) for t in table]
        moves = [() if t == k else (t,) for t in done]
        for mu, accepts in colorings(used):
            if accepts & need != need or accepts & forbid:
                continue

            def verdicts_of(word):
                recurring = det_split_recurring(done, bits, S, 0, word) or [0] * len(word)
                return [accepts >> states & 1 for states in recurring]

            found = leak(verdicts_of, (0,), mu, moves)
            if found is None:
                return _build(alphabet, (0,), mu, moves)
            word, split = found
            wants = [None] * len(word)
            wants[split] = False
            constraints.append((word, wants))
            refuted(len(constraints) - 1)
            forbid |= 1 << det_split_recurring(done, bits, S, 0, word)[split]
        return None

    return visit(1, 0, 0, [c for _mu, c in colorings(k)], 0)


def _accept_sets(reach: int, k: int, m: int) -> list:
    """Every coloring of states 0..reach-1 (the rest colored 0), in
    itertools.product order, with the int whose bit ``states`` is set iff
    a run that recurs exactly on the bit set ``states`` is accepted."""
    out = []
    for mu_r in itertools.product(range(m), repeat=reach):
        accepts = 0
        for states in range(1, 1 << reach):
            top = max(c for s, c in enumerate(mu_r) if states >> s & 1)
            if top % 2 == 0:
                accepts |= 1 << states
        out.append((mu_r + (0,) * (k - reach), accepts))
    return out


def _scan_nondeterministic(alphabet, k, m, equality, leak):
    # experimental mode: no symmetry pruning beyond the initial-set shape.
    # Candidates stay integer views (starts, colors, moves) and meet each
    # lasso through ``core.nondet_split_verdicts`` with its word tables,
    # built once per scan; only the witness becomes a ParityAutomaton.
    letters = alphabet.letters
    tables_of = functools.cache(lambda word: lasso_tables(letters, word, range(len(word))))
    subsets = [tuple(t for t in range(k) if bits >> t & 1) for bits in range(1 << k)]
    for i0 in range(1, k + 1):
        starts = tuple(range(i0))
        for table in itertools.product(subsets, repeat=k * len(letters)):
            for colors in itertools.product(range(m), repeat=k):

                def verdicts_of(word):
                    return nondet_split_verdicts(starts, colors, table, tables_of(word))

                if _agrees(verdicts_of, equality) and leak(
                    verdicts_of, starts, colors, table
                ) is None:
                    return _build(alphabet, starts, colors, table)
    return None


def brute_force_search(
    q: SynthesisQuery,
    ceiling: int = DEFAULT_SEARCH_CEILING,
) -> Optional[ParityAutomaton]:
    """Enumerate candidate automata for the query directly.

    Serves as the independent oracle for the encoding path: the two must
    agree on satisfiability for every query either can afford.
    """
    phi = ltl_oracle(q.formula, q.ap_map)
    return search_lasso_precise(
        q.ap_map.alphabet,
        phi,
        q.n,
        q.k,
        q.m,
        target=q.target,
        ceiling=ceiling,
    )


# ---------------------------------------------------------------------------
# external solver bridge

def default_solver_command() -> Optional[str]:
    """Solver command from the environment, if configured."""
    got = os.environ.get(SOLVER_ENV_VAR, "").strip()
    return got or None


def solve_external(
    p: QbfProblem, command: str, timeout: float = 600.0
) -> tuple[bool, Optional[dict[int, bool]]]:
    """Hand the problem to an external QBF solver via a QDIMACS file.

    The command gets the file path as its last argument.  The verdict is
    read from the exit code (10 SAT / 20 UNSAT) or from an `s` status
    line or a SAT/UNSAT word in the output.  Existential assignments are
    read from V/v certificate lines when present; without them the result
    degrades to verdict-only (model is None).  Unreachable commands,
    timeouts, and undecipherable output raise SolverFailure.
    """
    text = emit_qdimacs(p)
    fd, path = tempfile.mkstemp(suffix=".qdimacs", prefix="lassokit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        argv = shlex.split(command) + [path]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout
            )
        except FileNotFoundError as exc:
            raise SolverFailure(f"solver command not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise SolverFailure(f"solver timed out after {timeout}s") from exc
        output = (proc.stdout or "") + "\n" + (proc.stderr or "")
        verdict = _parse_verdict(proc.returncode, output)
        if verdict is None:
            raise SolverFailure(
                f"cannot read a verdict from solver exit code {proc.returncode}"
            )
        if not verdict:
            return False, None
        literals = _parse_certificate(output)
        if not literals:
            return True, None
        model = {v: literals.get(v, False) for v in p.existential_vars}
        return True, model
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _parse_verdict(returncode: int, output: str) -> Optional[bool]:
    if returncode == 10:
        return True
    if returncode == 20:
        return False
    for line in output.splitlines():
        stripped = line.strip()
        if not stripped.startswith(("s ", "s\t")):
            continue
        tail = stripped[1:].strip()
        if tail.startswith("cnf"):
            bits = tail.split()
            if len(bits) >= 2 and bits[1] in ("0", "1"):
                return bits[1] == "1"
        if re.search(r"\bUNSAT(?:ISFIABLE)?\b", tail):
            return False
        if re.search(r"\bSAT(?:ISFIABLE)?\b", tail):
            return True
    if re.search(r"\bUNSAT(?:ISFIABLE)?\b", output):
        return False
    if re.search(r"\bSAT(?:ISFIABLE)?\b", output):
        return True
    return None


def _parse_certificate(output: str) -> dict[int, bool]:
    lits: dict[int, bool] = {}
    for line in output.splitlines():
        stripped = line.strip()
        if not stripped or stripped[0] not in "Vv":
            continue
        body = stripped[1:].strip()
        if not body or not re.fullmatch(r"[-\d\s]+", body):
            continue
        for tok in body.split():
            val = int(tok)
            if val == 0:
                continue
            lits[abs(val)] = val > 0
    return lits


# ---------------------------------------------------------------------------
# minimal-size synthesis

def synthesize_minimal(
    formula: LtlFormula,
    ap_map: ApLetterMap,
    n: int,
    m: int,
    k_max: int,
    target: str = "deterministic",
    solver: Optional[str] = None,
    expansion_limit: int = DEFAULT_EXPANSION_LIMIT,
    search_ceiling: int = DEFAULT_SEARCH_CEILING,
) -> Optional[tuple[int, ParityAutomaton]]:
    """Smallest state budget in 1..k_max admitting a lasso-precise
    underapproximation, with its witness automaton.

    Each size is one ``solve_query``: the external solver when one is
    given, otherwise enumeration while the size's search space is under
    the ceiling and expansion past it.  Every certificate is re-verified
    before being returned; a certificate failing re-verification raises
    SolverFailure.
    """
    if k_max < 1:
        raise InputError("state budget must be positive")
    for k in range(1, k_max + 1):
        q = SynthesisQuery(formula, ap_map, n, k, m, target)
        a = solve_query(q, solver, expansion_limit, search_ceiling)
        if a is None:
            continue
        report = verify_certificate(q, a)
        if not report.ok:
            raise SolverFailure(
                f"certificate for k={k} failed independent re-verification: "
                + report.summary()
            )
        return k, a
    return None


def solve_query(
    q: SynthesisQuery,
    solver: Optional[str] = None,
    expansion_limit: int = DEFAULT_EXPANSION_LIMIT,
    search_ceiling: int = DEFAULT_SEARCH_CEILING,
) -> Optional[ParityAutomaton]:
    """Decide one query and produce a witness automaton or None.

    With a solver command, the external solver answers, and brute force
    materializes a verdict-only SAT or replaces a witness that fails the
    exact containment test.  Without one, the engine is picked by the
    query's budgets, read before anything is encoded:

    - brute force when ``search_space_size`` is within ``search_ceiling``.
      It is exact (equality on base n, containment by the tableau product)
      and on every query that fits it much faster than expansion;
    - otherwise counterexample-guided expansion when
      ``canonical_assignment_count`` is within ``expansion_limit``.  Its
      witness must pass the exact containment test, or ResourceLimit.  Its
      UNSAT is exact for deterministic targets only; for nondeterministic
      ones it raises ResourceLimit;
    - otherwise ResourceLimit, naming both counts and both budgets.
    """
    if solver:
        p = encode(q)
        verdict, model = solve_external(p, solver)
        if not verdict:
            return None
        if model is not None:
            return _contained_or_enumerate(q, decode(p, model), search_ceiling)
        # verdict-only solver: materialize a witness by enumeration
        a = brute_force_search(q, ceiling=search_ceiling)
        if a is None and _matrix_unsat(p, expansion_limit):
            raise SolverFailure(
                "external solver reported SAT but the query's matrix is"
                " unsatisfiable"
            )
        return a
    space = search_space_size(len(q.ap_map.alphabet), q.k, q.m, q.target)
    if space <= search_ceiling:
        return brute_force_search(q, ceiling=search_ceiling)
    count = canonical_assignment_count(q)
    if count > expansion_limit:
        raise ResourceLimit(
            f"search space has {space} candidates (ceiling {search_ceiling})"
            f" and expansion needs {count} universal instances"
            f" (limit {expansion_limit})"
        )
    p = encode(q)
    model = solve_by_expansion(p, expansion_limit)
    if model is None:
        if q.target == "nondeterministic":
            # the matrix starts every run in q0 and asks every run of a
            # formula word to accept, so its UNSAT does not cover automata
            # that accept by one run of several
            raise ResourceLimit(
                "expansion refutes only deterministic targets, and the"
                f" search space has {space} candidates, ceiling is"
                f" {search_ceiling}"
            )
        return None
    return _contained_or_enumerate(q, decode(p, model), search_ceiling)


def _matrix_unsat(p: QbfProblem, expansion_limit: int) -> bool:
    """Internal expansion refutes the 2-QBF question itself.  The exact
    enumeration can answer UNSAT where the matrix, which only bounds
    containment, is satisfiable; the solver's SAT is wrong only when the
    matrix is not.  Over the expansion limit it cannot be refuted."""
    try:
        return solve_by_expansion(p, expansion_limit) is None
    except ResourceLimit:
        return False


def _contained_or_enumerate(
    q: SynthesisQuery, a: ParityAutomaton, search_ceiling: int
) -> Optional[ParityAutomaton]:
    """``a`` if its language lies inside the formula's, otherwise the
    brute-force answer.  The matrix only bounds containment (its
    ``runs_imply_formula`` halves cover runs that loop with a word of base
    k or n), so its verdict is trusted only with a witness that the exact
    product test accepts.  When that test fails, the exact enumeration
    decides the query if its search space is within the ceiling; past the
    ceiling nothing can, and ResourceLimit says so."""
    leak = violation(a, q.formula, q.ap_map)
    if leak is None:
        return a
    space = search_space_size(len(q.ap_map.alphabet), q.k, q.m, q.target)
    if space > search_ceiling:
        raise ResourceLimit(
            f"the witness accepts {leak}, outside the language, and"
            f" enumeration cannot decide instead: search space has {space}"
            f" candidates, ceiling is {search_ceiling}"
        )
    return brute_force_search(q, ceiling=search_ceiling)
