import random
import stat

import pytest

from lassokit.core import (
    Alphabet,
    ContractViolation,
    InputError,
    Lasso,
    ResourceLimit,
    SolverFailure,
    accepts_lasso,
    accepts_splits,
)
from lassokit.lassolab import check_lasso_precise, words_by_length
from lassokit.ltl import ApLetterMap, ltl_oracle, parse_ltl
from lassokit import synth
from lassokit.synth import (
    DEFAULT_EXPANSION_LIMIT,
    SOLVER_ENV_VAR,
    SynthesisQuery,
    brute_force_search,
    canonical_assignment_count,
    decode,
    default_solver_command,
    emit_qdimacs,
    encode,
    model_satisfies,
    search_lasso_precise,
    search_space_size,
    solve_by_expansion,
    solve_external,
    solve_query,
    synthesize_minimal,
    verify_certificate,
)

from helpers import (
    naive_eval,
    rand_automaton,
    rand_formula,
    reference_precision,
    reference_synthesis,
)

P1 = ApLetterMap.from_aps(["p"])
P2 = ApLetterMap.from_aps(["p", "q"])
EMPTY = Lasso((), ("{}",))
PEE = Lasso((), ("{p}",))


def q_of(text: str, n: int, k: int, m: int, target="deterministic") -> SynthesisQuery:
    return SynthesisQuery(parse_ltl(text, ["p"]), P1, n, k, m, target)


class TestSynthesisQuery:
    def test_bound_validation(self):
        for n, k, m in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(InputError):
                q_of("G p", n, k, m)

    def test_target_validation(self):
        with pytest.raises(InputError):
            q_of("G p", 1, 1, 1, target="alternating")

    def test_atoms_must_be_mapped(self):
        with pytest.raises(InputError):
            SynthesisQuery(parse_ltl("G q", ["q"]), P1, 1, 1, 1)


class TestEncode:
    def test_variable_inventory_smallest(self):
        p = encode(q_of("G p", 1, 1, 1))
        assert set(p.trans_vars) == {(0, 0, 0), (0, 1, 0)}
        assert set(p.color_vars) == {(0, 0)}
        assert set(p.letter_vars) == {(0, 0)}  # one position, one bit
        assert set(p.word_loop_vars) == {0}
        assert p.run_state_vars == {}  # a 1-state run needs no bits
        assert set(p.run_loop_vars) == {0}

    def test_variable_inventory_k2(self):
        p = encode(q_of("G F p", 2, 2, 1))
        assert len(p.trans_vars) == 2 * 2 * 2
        assert len(p.letter_vars) == 2  # max(k, n) positions, one bit each
        assert len(p.word_loop_vars) == 2
        assert len(p.run_state_vars) == 4  # n*k positions, one bit each
        assert len(p.run_loop_vars) == 4

    def test_parts_are_addressable(self):
        p = encode(q_of("G p", 1, 1, 1))
        for name in (
            "automaton_shape",
            "loop_onehot",
            "word_models_k",
            "word_models_n",
            "run_match_strict",
            "run_accepting_k",
            "runs_imply_formula",
            "run_match_tolerant",
            "run_all_defined",
            "run_loop_valid",
            "run_loop_colors_even",
            "formula_words_accepted",
            "runs_imply_formula_n",
        ):
            assert name in p.parts, name

    def test_var_blocks_disjoint(self):
        p = encode(q_of("G F p", 2, 2, 2))
        ex, un = set(p.existential_vars), set(p.universal_vars)
        assert ex and un and not (ex & un)
        assert set(p.var_roles) == ex | un

    def test_canonical_count(self):
        assert canonical_assignment_count(q_of("G p", 1, 1, 1)) == 2
        # S=2, N=2, R=4: (4*2) * (16*4)
        assert canonical_assignment_count(q_of("G p", 2, 2, 1)) == 512


class TestQdimacs:
    def test_structure(self):
        p = encode(q_of("G p", 1, 1, 1))
        text = emit_qdimacs(p)
        lines = text.strip().splitlines()
        assert lines[0].startswith("c lasso-precise synthesis: n=1 k=1 m=1")
        header = [l for l in lines if l.startswith("p cnf ")]
        assert len(header) == 1
        nvars, nclauses = map(int, header[0].split()[2:])
        quant = [l for l in lines if l[:2] in ("e ", "a ")]
        assert [l[0] for l in quant] in (["e", "a"], ["e", "a", "e"])
        mentioned = {abs(int(t)) for l in quant for t in l.split()[1:] if t != "0"}
        assert mentioned == set(range(1, nvars + 1))
        clauses = [l for l in lines if l[:2] not in ("c ", "p ", "e ", "a ")]
        assert len(clauses) == nclauses
        assert all(c.endswith(" 0") or c == "0" for c in clauses)

    def test_deterministic_output(self):
        q = q_of("G F p", 2, 2, 2)
        assert emit_qdimacs(encode(q)) == emit_qdimacs(encode(q))

    def test_var_comments_cover_roles(self):
        p = encode(q_of("G p", 1, 1, 1))
        text = emit_qdimacs(p)
        for v, role in p.var_roles.items():
            assert f"c var {v}: {role}" in text


class TestExpansion:
    def test_always_p_witness(self):
        p = encode(q_of("G p", 1, 1, 1))
        model = solve_by_expansion(p)
        assert model is not None
        assert set(model) == set(p.existential_vars)
        assert model_satisfies(p, model)
        a = decode(p, model)
        assert a.coloring == {"q0": 0}
        assert a.successors("q0", "{p}") == frozenset({"q0"})
        assert a.successors("q0", "{}") == frozenset()
        assert verify_certificate(p.query, a).ok

    def test_recurrence_needs_counter(self):
        q = q_of("G F p", 2, 2, 1)
        p = encode(q)
        model = solve_by_expansion(p)
        assert model is not None
        a = decode(p, model)
        assert accepts_lasso(a, PEE)
        assert accepts_lasso(a, Lasso((), ("{}", "{p}")))
        assert not accepts_lasso(a, EMPTY)
        assert not accepts_lasso(a, Lasso(("{p}",), ("{}",)))
        assert verify_certificate(q, a).ok

    def test_persistence_unsat_with_one_state(self):
        assert solve_by_expansion(encode(q_of("F G p", 2, 1, 1))) is None

    def test_limit_zero(self):
        with pytest.raises(ResourceLimit):
            solve_by_expansion(encode(q_of("G p", 1, 1, 1)), limit=1)

    def test_models_stay_precise_under_mutation(self):
        # Exactness of the check: flipping any single existential bit either
        # breaks the matrix or still decodes to a precise automaton.
        q = q_of("G F p", 2, 2, 1)
        p = encode(q)
        model = solve_by_expansion(p)
        phi = ltl_oracle(q.formula, q.ap_map)
        rejected = 0
        for v in p.existential_vars:
            flipped = dict(model)
            flipped[v] = not flipped[v]
            if not model_satisfies(p, flipped):
                rejected += 1
                continue
            try:
                a = decode(p, flipped)
            except ContractViolation:
                continue
            bound = max(q.n, q.k)
            assert check_lasso_precise(a, phi, q.n, inclusion_bound=bound).ok
        assert rejected >= 1


def expansion_only(q: SynthesisQuery) -> int:
    """A search ceiling just below the query's candidate count, so that
    ``solve_query`` decides it by expansion."""
    return search_space_size(len(q.ap_map.alphabet), q.k, q.m, q.target) - 1


def seeded_queries() -> list[SynthesisQuery]:
    """G F p at n=2, k=3, m=2 plus seeded random 1-AP and 2-AP queries,
    all under the expansion limit."""
    rng = random.Random(3)
    out = [q_of("G F p", 2, 3, 2)]
    for amap, shapes in (
        (P1, [(2, 2, 1), (3, 1, 2), (2, 2, 2), (1, 3, 1), (3, 2, 1)]),
        (P2, [(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 1), (1, 2, 2)]),
    ):
        for n, k, m in shapes:
            for _ in range(3):
                f = rand_formula(rng, amap.aps, 5)
                out.append(SynthesisQuery(f, amap, n, k, m))
    return out


class TestCounterexampleGuided:
    def test_agrees_with_brute_force(self):
        verdicts = []
        unverified = []
        for q in seeded_queries():
            p = encode(q)
            assert canonical_assignment_count(p.query) <= DEFAULT_EXPANSION_LIMIT
            model = solve_by_expansion(p)
            assert (model is None) == (brute_force_search(q) is None), q.formula
            verdicts.append(model is not None)
            if model is not None:
                assert model_satisfies(p, model), q.formula
                if not verify_certificate(q, decode(p, model)).ok:
                    unverified.append((str(q.formula), q.n, q.k, q.m))
        assert verdicts[0] and any(verdicts) and not all(verdicts)
        # Known gap of the matrix, not of the engine: it checks containment
        # only on runs that loop with the base-k word, so this witness
        # accepts ({q}{})^w, which the exact product test finds.  Full
        # expansion picks the same kind of witness; brute force, whose
        # containment test is the product, does not.
        assert unverified == [("q -> p R q", 1, 2, 2)]

    def test_solve_query_is_exact(self):
        # Past the search ceiling solve_query answers by expansion, and it
        # returns only witnesses that pass the exact containment test: its
        # verdicts equal the exact enumeration's, except for the gap above,
        # which it refuses rather than answer wrongly.
        refused = []
        for q in seeded_queries():
            try:
                got = solve_query(q, search_ceiling=expansion_only(q))
            except ResourceLimit:
                refused.append((str(q.formula), q.n, q.k, q.m))
                continue
            assert (got is None) == (brute_force_search(q) is None), q.formula
            if got is not None:
                assert verify_certificate(q, got).ok, q.formula
        assert refused == [("q -> p R q", 1, 2, 2)]

    def test_over_the_limit_never_encodes(self, monkeypatch):
        # Both gates read the query alone, so a query past both budgets is
        # refused before it is encoded, with both counts in the message.
        q = q_of("G F p", 2, 2, 1)
        limit = canonical_assignment_count(q) - 1

        def refused(_q):
            raise AssertionError("encoded a query over the expansion limit")

        monkeypatch.setattr(synth, "encode", refused)
        with pytest.raises(ResourceLimit) as exc:
            solve_query(q, expansion_limit=limit, search_ceiling=expansion_only(q))
        message = str(exc.value)
        assert str(search_space_size(2, 2, 1, "deterministic")) in message
        assert str(canonical_assignment_count(q)) in message
        assert str(limit) in message and str(expansion_only(q)) in message

    def test_under_the_ceiling_never_encodes(self, monkeypatch):
        # The queries of the benchmark's synth-expand workload, fixed size
        # and --minimal: every one is within the search ceiling, so brute
        # force decides it and nothing is encoded.
        def refused(_q):
            raise AssertionError("encoded a query under the search ceiling")

        monkeypatch.setattr(synth, "encode", refused)
        fa, gf = parse_ltl("F p", ["p"]), parse_ltl("G F p", ["p"])
        for f, n, k, m, sat in (
            (gf, 2, 3, 2, True),
            (fa, 3, 2, 2, True),
            (gf, 3, 2, 1, False),
        ):
            q = SynthesisQuery(f, P1, n, k, m)
            got = solve_query(q)
            assert (got is not None) == sat, (str(f), n, k, m)
            if got is not None:
                assert verify_certificate(q, got).ok
        assert synthesize_minimal(fa, P1, 3, 2, 3)[0] == 2
        assert synthesize_minimal(gf, P1, 2, 2, 3)[0] == 2

    def test_leaking_witness_past_the_ceiling_is_refused(self):
        # Expansion's witness for this query accepts ({q}{})^w, outside
        # the language.  Under the ceiling brute force answers instead;
        # past it nothing can, and solve_query says so.
        q = SynthesisQuery(parse_ltl("q -> p R q", ["p", "q"]), P2, 1, 2, 2)
        got = solve_query(q)
        assert got is not None and verify_certificate(q, got).ok
        with pytest.raises(ResourceLimit, match="outside the language"):
            solve_query(q, search_ceiling=expansion_only(q))

    def test_nondeterministic_unsat_is_not_trusted(self):
        # The matrix starts every run in q0 and asks every run of a base-n
        # formula word to accept; the contained witness below has a run
        # that dies on {}, so expansion answers UNSAT where one exists.
        q = q_of("p -> X p", 2, 2, 1, target="nondeterministic")
        assert solve_by_expansion(encode(q)) is None
        got = solve_query(q)
        assert got is not None and verify_certificate(q, got).ok
        with pytest.raises(ResourceLimit, match="only deterministic"):
            solve_query(q, search_ceiling=expansion_only(q))

    def test_matrix_rejects_accepted_words_outside_the_language(self):
        # For n > k the base-k half of the matrix never sees the words of
        # base n; runs_imply_formula_n does.  Without it, expansion
        # answered SAT with a leaking witness on 18 of these 78 queries
        # (p -> X p, G (p -> X p), p | X G !p).
        rng = random.Random(11)
        texts = ["p -> X p", "G (p -> X p)", "p | X G !p", "G F p", "F G p",
                 "X X p", "p U X p"]
        formulas = [parse_ltl(t, ["p"]) for t in texts]
        formulas += [rand_formula(rng, ["p"], 5) for _ in range(6)]
        for f in formulas:
            for n, k, m in ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2),
                            (3, 2, 1), (3, 2, 2)):
                q = SynthesisQuery(f, P1, n, k, m)
                p = encode(q)
                model = solve_by_expansion(p)
                assert (model is None) == (brute_force_search(q) is None), (
                    str(f), n, k, m)
                if model is not None:
                    assert verify_certificate(q, decode(p, model)).ok, (
                        str(f), n, k, m)

    def test_counterexamples_are_new_canonical_assignments(self, monkeypatch):
        found = []
        refute = synth._falsifying_assignment

        def recording(p, model):
            got = refute(p, model)
            if got is not None:
                found.append(got)
            return got

        monkeypatch.setattr(synth, "_falsifying_assignment", recording)
        for q in seeded_queries()[:6]:
            found.clear()
            p = encode(q)
            solve_by_expansion(p)
            keys = {frozenset(c.items()) for c in found}
            assert len(keys) == len(found)
            assert len(found) <= canonical_assignment_count(p.query)
            for c in found:
                assert set(c) == set(p.universal_vars)
                assert p.pool.fold(p.parts["universal_canonical"], c) == p.pool.TRUE


class TestBruteForce:
    def test_search_space_sizes(self):
        assert search_space_size(2, 1, 1, "deterministic") == 4
        assert search_space_size(2, 2, 2, "deterministic") == 3**4 * 4
        assert search_space_size(2, 1, 1, "nondeterministic") == 4

    def test_agrees_with_expansion(self):
        for text, n, k in (
            ("G p", 1, 1),
            ("F p", 1, 1),
            ("G F p", 2, 1),
            ("G F p", 2, 2),
            ("F G p", 2, 1),
            ("p U X p", 2, 2),
        ):
            q = q_of(text, n, k, 1)
            via_sat = solve_query(q, search_ceiling=expansion_only(q))
            via_enum = brute_force_search(q)
            assert (via_sat is None) == (via_enum is None), text
            if via_enum is not None:
                assert verify_certificate(q, via_enum).ok
                assert verify_certificate(q, via_sat).ok

    def test_inclusion_words_built_once_and_only_when_needed(self, monkeypatch):
        from lassokit import synth

        calls = []

        def recording(symbols, lo, hi):
            calls.append((lo, hi))
            return words_by_length(symbols, lo, hi)

        monkeypatch.setattr(synth, "words_by_length", recording)
        # no candidate agrees with F G p on base 2, so nothing reads them
        assert brute_force_search(q_of("F G p", 2, 1, 1)) is None
        assert calls == [(2, 2)]
        calls.clear()
        # a formula oracle decides containment by the product: no list
        assert brute_force_search(q_of("X p", 1, 2, 1)) is not None
        assert calls == [(1, 1)]
        calls.clear()
        # four candidates agree with X p on base 1; behind a bare oracle
        # they share one list
        q = q_of("X p", 1, 2, 1)
        phi = ltl_oracle(q.formula, q.ap_map)
        bare = lambda w: phi(w)
        assert search_lasso_precise(q.ap_map.alphabet, bare, 1, 2, 1) is not None
        assert calls == [(1, 1), (1, 2)]

    def test_matches_reference_enumerator(self):
        # helpers.reference_synthesis walks tables in index order, one
        # candidate at a time; the search may return another witness of the
        # same size, so verdicts must match and every witness is certified
        rng = random.Random(8)
        queries = [
            (parse_ltl(text, ["p"]), P1, n, k, m)
            for text in ("G p", "F p", "G F p", "F G p", "p U X p", "p -> X p",
                         "G F p & F G !p")
            for n in (1, 2)
            for k in (1, 2, 3)
            for m in (1, 2)
        ]
        queries += [
            (rand_formula(rng, ["p", "q"], 5), P2, n, k, m)
            for n, k, m in ((1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1))
        ]
        special = (
            ("G F p & G F q", 2, 2, 2),
            # the first table that the index-order scan finds agreeing on
            # base 2 needs its 22nd coloring
            ("G F p", 2, 3, 3),
            # the index-order witness table agrees on base 1 in an earlier
            # coloring that accepts words outside F G p
            ("F G p", 1, 3, 2),
            # two index-order tables agree on base 1 and leak
            ("p U q", 1, 2, 2),
        )
        for text, n, k, m in special:
            ap_map = P2 if "q" in text else P1
            queries.append((parse_ltl(text, list(ap_map.aps)), ap_map, n, k, m))
        verdicts = []
        for f, ap_map, n, k, m in queries:
            q = SynthesisQuery(f, ap_map, n, k, m)
            got = brute_force_search(q)
            want = reference_synthesis(f, ap_map, n, k, m)
            assert (got is None) == (want is None), (f, n, k, m)
            if got is not None:
                assert got.size == k and verify_certificate(q, got).ok, (f, n, k, m)
            verdicts.append(got is not None)
        assert verdicts[-len(special):] == [False, True, True, True]
        unsat = verdicts.count(False)
        assert 10 < unsat < len(verdicts) - 10

    def test_ceiling(self):
        with pytest.raises(ResourceLimit):
            brute_force_search(q_of("G p", 1, 1, 1), ceiling=1)

    def test_nondeterministic_target(self):
        q = q_of("G F p", 1, 1, 2, target="nondeterministic")
        a = brute_force_search(q)
        assert a is not None
        assert verify_certificate(q, a).ok

    def test_nondeterministic_needs_two_initial_states(self):
        # G p | G !p in two states and one color: one initial state per
        # disjunct, which no single-start candidate and no DPA can match
        q = q_of("G p | G !p", 1, 2, 1, target="nondeterministic")
        a = brute_force_search(q)
        assert a is not None and a.initial == {"q0", "q1"}
        assert verify_certificate(q, a).ok
        assert brute_force_search(q_of("G p | G !p", 1, 2, 1)) is None

    def test_raw_alphabet_entry_point(self):
        from lassokit.core import Alphabet

        sigma = Alphabet(("0", "1"))

        def ones_forever(w):
            return all(x == "1" for x in w.base)

        a = search_lasso_precise(sigma, ones_forever, 1, 1, 1)
        assert a is not None
        assert accepts_lasso(a, Lasso((), ("1",)))
        assert not accepts_lasso(a, Lasso((), ("0",)))


class TestDepthFirstSearch:
    """The deterministic search against helpers.reference_synthesis, the
    index-order enumerator, on seeded grids."""

    def grid(self, seed: int, size: int):
        rng = random.Random(seed)
        for _ in range(size):
            aps = ["p"] if rng.random() < 0.6 else ["p", "q"]
            f = rand_formula(rng, aps, rng.randint(3, 5))
            most = 2 if len(aps) == 2 else 3
            n, k = rng.randint(1, most), rng.randint(1, most)
            yield f, ApLetterMap.from_aps(aps), n, k, rng.randint(1, 2)

    def test_formula_oracles_match_the_reference(self):
        verdicts = []
        for f, ap_map, n, k, m in self.grid(26, 40):
            q = SynthesisQuery(f, ap_map, n, k, m)
            got = brute_force_search(q)
            want = reference_synthesis(f, ap_map, n, k, m)
            assert (got is None) == (want is None), (f, n, k, m)
            if got is not None:
                assert got.size == k and verify_certificate(q, got).ok, (f, n, k, m)
            verdicts.append(got is not None)
        assert 5 < verdicts.count(True) < len(verdicts) - 5

    def test_bare_oracles_match_the_bounded_reference(self):
        # behind a plain callable containment is the bounded scan, to base
        # n*k unless inclusion_bound says otherwise
        verdicts = []
        for f, ap_map, n, k, m in self.grid(29, 16):
            phi = ltl_oracle(f, ap_map)
            for bound in (None, n + 2):
                got = search_lasso_precise(
                    ap_map.alphabet, lambda w: phi(w), n, k, m, inclusion_bound=bound
                )
                depth = n * k if bound is None else bound
                want = reference_synthesis(f, ap_map, n, k, m, inclusion_bound=depth)
                assert (got is None) == (want is None), (f, n, k, m, bound)
                if got is not None:
                    report = reference_precision(
                        got, lambda w: naive_eval(f, w, ap_map), n, depth
                    )
                    assert got.size == k and report.ok, (f, n, k, m, bound)
                verdicts.append(got is not None)
        assert 3 < verdicts.count(True) < len(verdicts) - 3

    @pytest.mark.parametrize("text, n, k, m", [("p U q", 1, 2, 2), ("p -> X p", 1, 3, 1)])
    def test_leaks_become_constraints(self, monkeypatch, text, n, k, m):
        # a leaf that agrees on base n but leaks comes first; the lasso of
        # the leak must be rejected by the witness
        learned = []
        real = synth.product_lasso

        def recording(*args):
            got = real(*args)
            if got is not None:
                learned.append(got)
            return got

        monkeypatch.setattr(synth, "product_lasso", recording)
        ap_map = P2 if "q" in text else P1
        f = parse_ltl(text, list(ap_map.aps))
        q = SynthesisQuery(f, ap_map, n, k, m)
        a = brute_force_search(q)
        assert a is not None and a.size == k and verify_certificate(q, a).ok
        assert learned
        for w in learned:
            assert not naive_eval(f, w, ap_map) and not accepts_lasso(a, w)


    # Seeds of random.Random whose reference (1-3 states over {a, b}, n in
    # 1..3, k and m in 2..3, drawn as below) reach a leaf whose first live
    # coloring leaks; among seeds 0..5999 only 2108, 2456, 3400, 3484, 3562
    # and 5093 do.  In 2108 the next coloring leaks too, in 3400 and 3484
    # it is contained.
    @pytest.mark.parametrize("seed", [2108, 3400, 3484])
    def test_leaf_tries_every_live_coloring(self, seed):
        rng = random.Random(seed)
        ab = Alphabet(("a", "b"))
        ref = rand_automaton(rng, ab, max_states=3, max_color=3, deterministic=True)
        n, k, m = rng.randint(1, 3), rng.randint(2, 3), rng.randint(2, 3)
        equality = [(w, accepts_splits(ref, w)) for w in words_by_length(range(2), n, n)]
        inclusion = [w for w in words_by_length(range(2), 1, n * k) if len(w) != n]
        calls = []

        def leak(verdicts_of, starts, colors, moves):
            # the bounded containment test against the reference
            found = next(
                (
                    (w, split)
                    for w in inclusion
                    for split, (got, want) in enumerate(
                        zip(verdicts_of(w), accepts_splits(ref, w))
                    )
                    if got and not want
                ),
                None,
            )
            calls.append((tuple(moves), tuple(colors), found))
            return found

        a = synth._search_deterministic(ab, k, m, equality, leak)
        # the first leaf call of a table leaks, and the next call is the
        # same table in another coloring
        j = next(
            (
                j for j in range(len(calls) - 1)
                if calls[j][2] is not None
                and calls[j + 1][0] == calls[j][0]
                and (j == 0 or calls[j - 1][0] != calls[j][0])
            ),
            None,
        )
        assert j is not None, "no leaf went on past a leaking coloring"
        _moves, colors, found = calls[j + 1]
        assert colors != calls[j][1]
        if found is None:
            assert calls[-1] == calls[j + 1]
            assert tuple(a.coloring.values()) == colors
            assert a.size == k and all(accepts_splits(a, w) == want for w, want in equality)
        assert (found is None) == (seed != 2108)


class TestMonotonicity:
    @pytest.mark.parametrize("text", ["G p", "F p", "G F p"])
    def test_sat_is_monotone_in_k(self, text):
        found = [solve_query(q_of(text, 2, k, 1)) is not None for k in (1, 2, 3)]
        assert found == sorted(found), found


class TestDecode:
    def test_color_must_be_unique(self):
        p = encode(q_of("G p", 1, 1, 2))
        base = {v: False for v in p.existential_vars}
        both = dict(base)
        both[p.color_vars[(0, 0)]] = True
        both[p.color_vars[(0, 1)]] = True
        with pytest.raises(ContractViolation):
            decode(p, both)
        with pytest.raises(ContractViolation):
            decode(p, base)  # no color at all

    def test_transitionless_model_decodes(self):
        p = encode(q_of("G p", 1, 1, 1))
        model = {v: False for v in p.existential_vars}
        model[p.color_vars[(0, 0)]] = True
        a = decode(p, model)
        assert a.size == 1 and not a.transitions


def fake_solver(tmp_path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestExternalSolver:
    def test_default_command_from_env(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
        assert default_solver_command() is None
        monkeypatch.setenv(SOLVER_ENV_VAR, "  my-solver --flag ")
        assert default_solver_command() == "my-solver --flag"

    def test_exit_codes(self, tmp_path):
        p = encode(q_of("G p", 1, 1, 1))
        sat = fake_solver(tmp_path, "sat.sh", "exit 10\n")
        unsat = fake_solver(tmp_path, "unsat.sh", "exit 20\n")
        assert solve_external(p, sat) == (True, None)
        assert solve_external(p, unsat) == (False, None)

    def test_status_lines(self, tmp_path):
        p = encode(q_of("G p", 1, 1, 1))
        cases = [
            ("echo 's cnf 1'", True),
            ("echo 's cnf 0'", False),
            ("echo 's SATISFIABLE'", True),
            ("echo 's UNSATISFIABLE'", False),
            ("echo SATISFIABLE", True),
            ("echo UNSATISFIABLE", False),
        ]
        for i, (body, want) in enumerate(cases):
            cmd = fake_solver(tmp_path, f"s{i}.sh", body + "\nexit 0\n")
            verdict, model = solve_external(p, cmd)
            assert verdict is want and model is None, body

    def test_certificate_lines(self, tmp_path):
        q = q_of("G p", 1, 1, 1)
        p = encode(q)
        model = solve_by_expansion(p)
        lits = " ".join(str(v if model[v] else -v) for v in p.existential_vars)
        cmd = fake_solver(
            tmp_path, "cert.sh", f"echo 's cnf 1'\necho 'V {lits} 0'\nexit 10\n"
        )
        verdict, got = solve_external(p, cmd)
        assert verdict and got == model
        assert verify_certificate(q, decode(p, got)).ok

    def test_garbage_output(self, tmp_path):
        p = encode(q_of("G p", 1, 1, 1))
        cmd = fake_solver(tmp_path, "noise.sh", "echo 'no idea'\nexit 0\n")
        with pytest.raises(SolverFailure):
            solve_external(p, cmd)

    def test_missing_command(self):
        p = encode(q_of("G p", 1, 1, 1))
        with pytest.raises(SolverFailure):
            solve_external(p, "/nonexistent/qbf-solver")

    def test_solver_gets_the_file(self, tmp_path):
        # The command must receive a readable QDIMACS path as last argument.
        cmd = fake_solver(
            tmp_path, "probe.sh", 'grep -q "^p cnf" "$1" && exit 20 || exit 1\n'
        )
        p = encode(q_of("G p", 1, 1, 1))
        assert solve_external(p, cmd) == (False, None)

    def test_verdict_only_sat_is_materialized(self, tmp_path):
        cmd = fake_solver(tmp_path, "vo.sh", "exit 10\n")
        q = q_of("G p", 1, 1, 1)
        a = solve_query(q, solver=cmd)
        assert a is not None and verify_certificate(q, a).ok

    def test_lying_sat_verdict_is_caught(self, tmp_path):
        cmd = fake_solver(tmp_path, "liar.sh", "exit 10\n")
        with pytest.raises(SolverFailure):
            solve_query(q_of("F G p", 2, 1, 1), solver=cmd)

    def test_honest_sat_outside_the_language_is_unsat(self, tmp_path):
        # The matrix only bounds containment and admits the accept-all
        # automaton for p -> X p, so an honest solver says SAT.  No
        # contained witness exists; with a model or without, the answer is
        # the exact UNSAT.
        q = q_of("p -> X p", 1, 1, 1)
        p = encode(q)
        model = solve_by_expansion(p)
        assert model is not None
        lits = " ".join(str(v if model[v] else -v) for v in p.existential_vars)
        with_model = fake_solver(
            tmp_path, "cert.sh", f"echo 'V {lits} 0'\nexit 10\n"
        )
        verdict_only = fake_solver(tmp_path, "vo.sh", "exit 10\n")
        assert solve_query(q, solver=with_model) is None
        assert solve_query(q, solver=verdict_only) is None

    def test_unsat_verdict_short_circuits(self, tmp_path):
        cmd = fake_solver(tmp_path, "no.sh", "exit 20\n")
        assert solve_query(q_of("G p", 1, 1, 1), solver=cmd) is None


class TestSynthesizeMinimal:
    def test_minimal_sizes(self):
        got = synthesize_minimal(parse_ltl("G p", ["p"]), P1, 1, 1, 3)
        assert got is not None and got[0] == 1
        got = synthesize_minimal(parse_ltl("G F p", ["p"]), P1, 2, 1, 3)
        assert got is not None and got[0] == 2
        assert verify_certificate(
            SynthesisQuery(parse_ltl("G F p", ["p"]), P1, 2, got[0], 1), got[1]
        ).ok

    def test_unsat_up_to_budget(self):
        assert synthesize_minimal(parse_ltl("F G p", ["p"]), P1, 2, 1, 1) is None

    def test_budget_validation(self):
        with pytest.raises(InputError):
            synthesize_minimal(parse_ltl("G p", ["p"]), P1, 1, 1, 0)

    def test_bad_certificate_rejected(self, tmp_path):
        # A solver claiming SAT with an accept-everything witness is caught
        # by the exact containment test, and brute force answers instead.
        q = SynthesisQuery(parse_ltl("G p", ["p"]), P1, 1, 1, 1)
        p = encode(q)
        lits = " ".join(str(v) for v in p.existential_vars)  # everything on
        cmd = fake_solver(
            tmp_path, "bad.sh", f"echo 'V {lits} 0'\nexit 10\n"
        )
        got = synthesize_minimal(parse_ltl("G p", ["p"]), P1, 1, 1, 1, solver=cmd)
        assert got is not None and got[0] == 1
        assert not accepts_lasso(got[1], EMPTY)
        assert verify_certificate(q, got[1]).ok
        # A contained witness that misses a base-n word of the language
        # (everything off: no transitions) is caught by re-verification.
        lits = " ".join(
            str(v if v == p.color_vars[(0, 0)] else -v) for v in p.existential_vars
        )
        cmd = fake_solver(
            tmp_path, "empty.sh", f"echo 'V {lits} 0'\nexit 10\n"
        )
        with pytest.raises(SolverFailure, match="re-verification"):
            synthesize_minimal(parse_ltl("G p", ["p"]), P1, 1, 1, 1, solver=cmd)
