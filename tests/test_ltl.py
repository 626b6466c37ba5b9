import random

import pytest

from lassokit.core import (
    InputError,
    Lasso,
    ParityAutomaton,
    ParseError,
    accepts_lasso,
    accepts_splits,
    intersection_lasso,
    lasso,
)
from lassokit.ltl import (
    ApLetterMap,
    atom,
    always,
    conj,
    eval_on_lasso,
    eventually,
    false,
    format_ltl,
    implies,
    ltl_oracle,
    neg,
    next_,
    parse_ltl,
    release,
    tableau,
    until,
    true,
    violation,
)
from lassokit.lassolab import unroll, words_by_length
from lassokit import core, ltl

from helpers import naive_eval, rand_automaton, rand_formula, rand_lasso

PQ = ApLetterMap.from_aps(["p", "q"])
P = ApLetterMap.from_aps(["p"])


def lp(*subsets):
    """Lasso over the {p,q} alphabet from AP subsets, last element the loop."""
    letters = [PQ.letter_of(s) for s in subsets]
    return lasso(tuple(letters[:-1]), (letters[-1],))


class TestApLetterMap:
    def test_letters_follow_masks(self):
        assert PQ.letters == ("{}", "{p}", "{q}", "{p,q}")
        assert PQ.mask_of("{p,q}") == 3

    def test_truth(self):
        assert PQ.truth("{p}", "p") and not PQ.truth("{p}", "q")
        assert PQ.aps_of("{p,q}") == {"p", "q"}

    def test_letter_of_is_inverse(self):
        for letter in PQ.letters:
            assert PQ.letter_of(PQ.aps_of(letter)) == letter

    def test_unknown_ap_rejected(self):
        with pytest.raises(InputError):
            PQ.truth("{p}", "z")
        with pytest.raises(InputError):
            PQ.letter_of(["z"])

    def test_ap_budget(self):
        with pytest.raises(InputError):
            ApLetterMap.from_aps([f"a{i}" for i in range(13)])

    def test_sorting_control(self):
        assert ApLetterMap.from_aps(["q", "p"]).aps == ("p", "q")
        assert ApLetterMap.from_aps(["q", "p"], sort=False).aps == ("q", "p")


class TestParser:
    def test_atoms_and_constants(self):
        assert parse_ltl("p", ["p"]) == atom("p")
        assert parse_ltl("1", []) == true()

    def test_unary_chain(self):
        assert parse_ltl("G F p", ["p"]) == always(eventually(atom("p")))
        assert parse_ltl("!X p", ["p"]) == neg(next_(atom("p")))

    def test_precedence(self):
        p, q, r = atom("p"), atom("q"), atom("r")
        aps = ["p", "q", "r"]
        assert parse_ltl("p -> q -> r", aps) == implies(p, implies(q, r))
        assert parse_ltl("p U q U r", aps) == until(p, until(q, r))
        assert parse_ltl("G p & q", aps) == conj(always(p), q)
        assert parse_ltl("p U q & r", aps) == conj(until(p, q), r)

    def test_release(self):
        assert parse_ltl("p R q", ["p", "q"]) == release(atom("p"), atom("q"))

    def test_parens(self):
        assert parse_ltl("G (p & q)", ["p", "q"]) == always(conj(atom("p"), atom("q")))

    def test_undeclared_atom(self):
        with pytest.raises(ParseError):
            parse_ltl("p & z", ["p"])

    def test_open_vocabulary(self):
        f = parse_ltl("G (req -> F ack)", None)
        assert f.atoms() == {"req", "ack"}

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ltl("p q", ["p", "q"])

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_ltl("(p & q", ["p", "q"])

    def test_format_round_trip(self):
        rng = random.Random(41)
        for _ in range(300):
            f = rand_formula(rng, ["p", "q"], rng.randint(1, 9))
            assert parse_ltl(format_ltl(f), ["p", "q"]) == f


class TestEvaluation:
    def test_hand_cases(self):
        p, q = atom("p"), atom("q")
        w = lp({"p"}, set(), {"p"})  # {p} {} then ({p})^w
        assert eval_on_lasso(eventually(always(p)), w, PQ)
        assert not eval_on_lasso(always(p), w, PQ)
        assert eval_on_lasso(always(eventually(p)), w, PQ)
        assert eval_on_lasso(next_(next_(p)), w, PQ)
        assert not eval_on_lasso(next_(p), w, PQ)
        assert eval_on_lasso(until(p, q), lp({"p"}, {"p", "q"}, set()), PQ)
        assert not eval_on_lasso(until(p, q), lp({"p"}, set()), PQ)
        # release: q must hold until p arrives, or forever
        assert eval_on_lasso(release(p, q), lp({"q"}, {"p", "q"}, set()), PQ)
        assert not eval_on_lasso(release(p, q), lp({"q"}, {"p"}, set()), PQ)
        assert eval_on_lasso(release(p, q), lp({"q"}, {"q"}), PQ)

    def test_against_naive_oracle(self):
        rng = random.Random(97)
        for _ in range(800):
            f = rand_formula(rng, ["p", "q"], rng.randint(1, 8))
            w = rand_lasso(rng, PQ.alphabet)
            assert eval_on_lasso(f, w, PQ) == naive_eval(f, w, PQ), (
                format_ltl(f),
                str(w),
            )

    def test_representation_invariance(self):
        rng = random.Random(13)
        for _ in range(300):
            f = rand_formula(rng, ["p"], rng.randint(1, 7))
            w = rand_lasso(rng, P.alphabet)
            v = eval_on_lasso(f, w, P)
            assert eval_on_lasso(f, w.canonical(), P) == v
            assert eval_on_lasso(f, unroll(w, w.length + 2), P) == v

    def test_constants_and_three_aps_against_naive_oracle(self):
        rng = random.Random(41)
        pqr = ApLetterMap.from_aps(["p", "q", "r"])
        for _ in range(600):
            f = rand_formula(rng, ["p", "q", "r"], rng.randint(1, 9))
            c = rng.choice((true(), false()))
            f = rng.choice((f, conj(f, c), until(c, f), release(f, c), neg(until(f, c))))
            w = rand_lasso(rng, pqr.alphabet, max_stem=4, max_loop=4)
            assert eval_on_lasso(f, w, pqr) == naive_eval(f, w, pqr), (
                format_ltl(f),
                str(w),
            )

    def test_own_letter_names(self):
        named = ApLetterMap(("p",), ("lo", "hi"))
        f = parse_ltl("G F p & F !p", ["p"])
        assert eval_on_lasso(f, lasso(("lo",), ("lo", "hi")), named)
        assert not eval_on_lasso(f, lasso((), ("hi",)), named)
        assert eval_on_lasso(f, lasso(("{}",), ("{}", "{p}")), P)

    def test_missing_atom_rejected(self):
        with pytest.raises(InputError):
            eval_on_lasso(atom("q"), lasso("", ("{p}",)), P)

    def test_foreign_letter_rejected(self):
        with pytest.raises(InputError):
            eval_on_lasso(atom("p"), lasso("", "z"), P)


class TestOracle:
    def test_matches_direct_evaluation(self):
        f = parse_ltl("G (p -> X q)", ["p", "q"])
        oracle = ltl_oracle(f, PQ)
        rng = random.Random(3)
        for _ in range(120):
            w = rand_lasso(rng, PQ.alphabet)
            assert oracle(w) == eval_on_lasso(f, w, PQ)

    def test_cache_respects_canonical_form(self):
        oracle = ltl_oracle(parse_ltl("G F p", ["p"]), P)
        a = Lasso((), ("{p}",))
        b = Lasso(("{p}",), ("{p}", "{p}"))
        assert oracle(a) and oracle(b)

    def test_one_fixpoint_per_rotation_class_and_memoised_stems(self, monkeypatch):
        # A loop's fixpoint run fills the vectors of all its rotations, and
        # a stem step (letter, vector after) is computed once per oracle.
        runs, steps = [], []
        real_run, real_step = ltl._run, ltl._step

        def counted_run(program, masks):
            runs.append(masks)
            return real_run(program, masks)

        def counted_step(program, mask, nxt):
            steps.append(mask)
            return real_step(program, mask, nxt)

        monkeypatch.setattr(ltl, "_run", counted_run)
        monkeypatch.setattr(ltl, "_step", counted_step)
        oracle = ltl_oracle(parse_ltl("G F p", ["p"]), P)
        e, p = P.letters
        words = [
            Lasso((), (p,)),
            Lasso((p,), (p, p)),
            Lasso((e,), (p,)),
            Lasso((e, p), (p,)),
            Lasso((), (e, p)),
            Lasso((e,), (p, e)),
        ]
        assert [oracle(w) for w in words] == [True] * 6
        # (p), (p,p) and (e,p); (p,e) is a rotation of (e,p)
        assert runs == [[1], [1, 1], [0, 1]]
        # p before a G F p loop, then e before it; every later step is
        # the same pair again
        assert steps == [1, 0]

    def test_reused_oracle_against_naive_oracle(self):
        # One oracle per formula answers many lassos, so loops, rotations
        # and stem steps come from its memo; each answer must still equal
        # the independent evaluator's.
        rng = random.Random(59)
        maps = (P, PQ, ApLetterMap.from_aps(["p", "q", "r"]))
        for i in range(90):
            m = maps[i % 3]
            f = with_constants(rng, rand_formula(rng, m.aps, rng.randint(1, 9)))
            oracle = ltl_oracle(f, m)
            for _ in range(25):
                w = rand_lasso(rng, m.alphabet, max_stem=6, max_loop=3)
                turn = rng.randrange(len(w.loop))
                for v in (
                    w,
                    Lasso(w.stem, w.loop * rng.randint(2, 3)),
                    Lasso(w.stem, w.loop[turn:] + w.loop[:turn]),
                ):
                    assert oracle(v) == naive_eval(f, v, m), (format_ltl(f), str(v))

    def test_foreign_letter_leaves_the_memo_intact(self):
        f = parse_ltl("p U X q", ["p", "q"])
        valid = [rand_lasso(random.Random(s), PQ.alphabet, max_stem=4) for s in range(30)]
        expected = [eval_on_lasso(f, w, PQ) for w in valid]
        oracle = ltl_oracle(f, PQ)
        foreign = (
            Lasso(("z",), ("{p}",)),
            Lasso(("{p}",), ("{q}", "z")),
            Lasso(("{p}", "z", "{q}"), ("{}",)),
        )
        for i, w in enumerate(valid):
            with pytest.raises(InputError):
                oracle(foreign[i % 3])
            assert oracle(w) == expected[i], str(w)
        assert [oracle(w) for w in valid] == expected


def one_word(w: Lasso, m: ApLetterMap) -> ParityAutomaton:
    """Safety automaton whose only word is the one of ``w``: its states
    are the base positions."""
    n = w.length
    names = tuple(f"i{i}" for i in range(n))
    step = {
        (names[i], w.base[i]): frozenset({names[i + 1 if i + 1 < n else len(w.stem)]})
        for i in range(n)
    }
    colors = {q: 0 for q in names}
    return ParityAutomaton(m.alphabet, names, frozenset({names[0]}), step, colors)


def with_constants(rng: random.Random, f):
    c = rng.choice((true(), false()))
    return rng.choice((f, conj(f, c), until(c, f), release(f, c), neg(until(f, c))))


class TestTableau:
    def test_accepts_exactly_the_models(self):
        # Seeded corpus: 1-2 APs, every operator, constants included.  On
        # each lasso the evaluators agree, the tableau of f accepts the
        # word iff f holds, and the tableau of !f iff it does not.
        rng = random.Random(17)
        for i in range(800):
            m = P if i % 2 else PQ
            f = with_constants(rng, rand_formula(rng, m.aps, rng.randint(1, 8)))
            w = rand_lasso(rng, m.alphabet)
            truth = eval_on_lasso(f, w, m)
            assert truth == naive_eval(f, w, m), (format_ltl(f), str(w))
            word = one_word(w, m)
            assert (intersection_lasso(word, tableau(f, m)) is not None) == truth
            negation = tableau(f, m, negate=True)
            assert (intersection_lasso(word, negation) is None) == truth

    def test_acceptance_sets_come_from_untils(self):
        assert tableau(parse_ltl("G p", ["p"]), P).sets == 0
        assert tableau(parse_ltl("G p", ["p"]), P, negate=True).sets == 1
        assert tableau(parse_ltl("G F p & G F q", ["p", "q"]), PQ).sets == 2
        empty = tableau(parse_ltl("p & !p", ["p"]), P)
        assert empty.moves[: len(P.letters)] == ((), ())

    def test_cached_per_letter_map(self):
        f = parse_ltl("p U q", ["p", "q"])
        assert tableau(f, PQ) is tableau(f, PQ)
        assert tableau(f, PQ, negate=True) is not tableau(f, PQ)
        named = ApLetterMap(("p", "q"), ("a", "b", "c", "d"))
        assert tableau(f, named).letters == ("a", "b", "c", "d")

    def test_missing_atom_rejected(self):
        with pytest.raises(InputError):
            tableau(atom("q"), P)


class TestViolation:
    def test_witness_is_canonical_and_real(self):
        accept_all = ParityAutomaton(
            P.alphabet, ("q0",), frozenset({"q0"}),
            {("q0", x): frozenset({"q0"}) for x in P.letters}, {"q0": 0},
        )
        f = parse_ltl("p -> X p", ["p"])
        w = violation(accept_all, f, P)
        assert w == Lasso(("{p}",), ("{}",)) == w.canonical()
        assert not eval_on_lasso(f, w, P)
        assert violation(accept_all, parse_ltl("p | !p", ["p"]), P) is None

    def test_matches_bounded_search(self):
        # The product's verdict equals a scan of every lasso of base up to
        # the number of reachable product states (or the witness's base,
        # if longer), on small deterministic and nondeterministic
        # candidates.  Pairs whose scan would be too long are skipped.
        rng = random.Random(23)
        checked = {True: 0, False: 0}
        for i in range(240):
            m = P if i % 2 else PQ
            f = with_constants(rng, rand_formula(rng, m.aps, rng.randint(1, 5)))
            a = rand_automaton(rng, m.alphabet, max_states=2, deterministic=i % 3 == 0)
            S = len(m.letters)
            view = a.compiled
            starts, moves = view.successor_sets()
            pairs, _succ, _roots = core._product_graph(
                starts, moves, S, range(S), tableau(f, m, negate=True)
            )
            witness = violation(a, f, m)
            depth = max(len(pairs), witness.length if witness else 0)
            if S ** depth * depth > 20000:
                continue
            if witness is not None:
                assert accepts_lasso(a, witness) and not eval_on_lasso(f, witness, m)
            phi = ltl_oracle(f, m)
            found = any(
                got and not phi(Lasso(tuple(m.letters[x] for x in word[:split]),
                                      tuple(m.letters[x] for x in word[split:])))
                for word in words_by_length(range(S), 1, depth)
                for split, got in enumerate(accepts_splits(a, word))
            )
            assert found == (witness is not None), (format_ltl(f), i)
            checked[found] += 1
        assert min(checked.values()) >= 50 and sum(checked.values()) >= 180, checked
