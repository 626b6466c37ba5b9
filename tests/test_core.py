import random
from itertools import product

import pytest

from lassokit.core import (
    Alphabet,
    BuchiTable,
    ContractViolation,
    InputError,
    Lasso,
    ParityAutomaton,
    accepts_by_product,
    accepts_lasso,
    accepts_splits,
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
    reachable_states,
)
from lassokit import core
from lassokit.lassolab import enumerate_bases, unroll

from helpers import naive_accepts, rand_automaton, rand_lasso

AB = Alphabet(("a", "b"))


def dpa(transitions, coloring, initial="x"):
    states = tuple(coloring)
    return ParityAutomaton(
        alphabet=AB,
        states=states,
        initial=frozenset({initial}),
        transitions={k: frozenset(v) for k, v in transitions.items()},
        coloring=coloring,
    )


# x: waiting for b, y: saw b.  Accepts "b infinitely often".
GFB = dpa(
    {
        ("x", "a"): {"x"},
        ("x", "b"): {"y"},
        ("y", "a"): {"x"},
        ("y", "b"): {"y"},
    },
    {"x": 1, "y": 2},
)


class TestLasso:
    def test_loop_required(self):
        with pytest.raises(InputError):
            Lasso(("a",), ())

    def test_letters_and_prefix(self):
        w = lasso("ab", "ba")
        assert w.base == ("a", "b", "b", "a")
        assert w.length == 4
        assert w.prefix(7) == ("a", "b", "b", "a", "b", "a", "b")

    def test_canonical_rolls_stem_into_loop(self):
        assert lasso("a", "a").canonical() == lasso("", "a")
        assert lasso("ab", "ab").canonical() == lasso("", "ab")
        assert lasso("abb", "bb").canonical() == lasso("a", "b")

    def test_canonical_reduces_loop_power(self):
        assert lasso("", "abab").canonical() == lasso("", "ab")
        assert lasso("", "aaa").canonical() == lasso("", "a")

    def test_canonical_idempotent_and_word_preserving(self):
        rng = random.Random(7)
        for _ in range(200):
            w = rand_lasso(rng, AB, 4, 4)
            c = w.canonical()
            assert c.canonical() == c
            assert c.prefix(12) == w.prefix(12)
            assert c.length <= w.length


class TestAlphabet:
    def test_duplicate_letters_rejected(self):
        with pytest.raises(InputError):
            Alphabet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            Alphabet(())

    def test_lookup(self):
        assert AB.index("b") == 1
        assert AB[0] == "a"
        assert "a" in AB and "z" not in AB


class TestAutomatonValidation:
    def test_unknown_letter(self):
        with pytest.raises(InputError):
            dpa({("x", "z"): {"x"}}, {"x": 0})

    def test_undeclared_target(self):
        with pytest.raises(InputError):
            dpa({("x", "a"): {"nope"}}, {"x": 0})

    def test_undeclared_source(self):
        with pytest.raises(InputError, match="undeclared state 'nope'"):
            dpa({("nope", "a"): {"x"}}, {"x": 0})

    def test_duplicate_states(self):
        with pytest.raises(InputError, match="distinct"):
            ParityAutomaton(AB, ("x", "x"), frozenset({"x"}), {}, {"x": 0})

    def test_negative_color(self):
        with pytest.raises(InputError, match="non-negative"):
            dpa({}, {"x": -1})

    def test_targets_normalized(self):
        given = {
            ("x", "a"): ["y", "x"],
            ("x", "b"): {"y"},
            ("y", "a"): [],
            ("y", "b"): frozenset({"x"}),
        }
        a = ParityAutomaton(AB, ("x", "y"), frozenset({"x"}), given, {"x": 0, "y": 0})
        assert a.transitions == {
            ("x", "a"): frozenset({"x", "y"}),
            ("x", "b"): frozenset({"y"}),
            ("y", "b"): frozenset({"x"}),
        }
        assert all(type(t) is frozenset for t in a.transitions.values())
        given[("y", "a")] = ["x"]
        assert ("y", "a") not in a.transitions  # the automaton owns its table

    def test_coloring_must_cover_states(self):
        with pytest.raises(InputError):
            ParityAutomaton(AB, ("x", "y"), frozenset({"x"}), {}, {"x": 0})

    def test_initial_required(self):
        with pytest.raises(InputError):
            ParityAutomaton(AB, ("x",), frozenset(), {}, {"x": 0})

    def test_color_normalization(self):
        assert dpa({}, {"x": 3, "y": 5}).coloring == {"x": 1, "y": 1}
        assert dpa({}, {"x": 2, "y": 4}).coloring == {"x": 0, "y": 0}
        assert dpa({}, {"x": 0, "y": 3}).coloring == {"x": 0, "y": 1}
        assert dpa({}, {"x": 1, "y": 4}).coloring == {"x": 1, "y": 2}
        assert dpa({}, {"x": 5, "y": 2}).coloring == {"x": 1, "y": 0}

    def test_classification(self):
        assert is_safety(dpa({}, {"x": 0, "y": 0}))
        assert is_buchi(GFB)
        assert not is_buchi(dpa({}, {"x": 0, "y": 3}))
        assert is_deterministic(GFB)
        assert not is_complete(dpa({("x", "a"): {"x"}}, {"x": 0}))


class TestAcceptance:
    def test_buchi_example(self):
        assert accepts_lasso(GFB, lasso("", "b"))
        assert accepts_lasso(GFB, lasso("", "ab"))
        assert not accepts_lasso(GFB, lasso("b", "a"))
        assert not accepts_lasso(GFB, lasso("bbb", "a"))

    def test_partial_transitions_reject(self):
        a = dpa({("x", "a"): {"x"}}, {"x": 0})
        assert accepts_lasso(a, lasso("", "a"))
        assert not accepts_lasso(a, lasso("", "b"))
        assert not accepts_lasso(a, lasso("a", "ab"))

    def test_nondeterministic_existential(self):
        # From x both targets are possible on a; only y loops forever.
        a = ParityAutomaton(
            AB,
            ("x", "y"),
            frozenset({"x"}),
            {
                ("x", "a"): frozenset({"x", "y"}),
                ("y", "a"): frozenset({"y"}),
            },
            {"x": 1, "y": 2},
        )
        assert accepts_lasso(a, lasso("", "a"))
        assert not accepts_lasso(a, lasso("", "b"))

    def test_representation_invariance(self):
        rng = random.Random(11)
        for _ in range(150):
            a = rand_automaton(rng, AB, max_states=4, max_color=3)
            w = rand_lasso(rng, AB)
            verdict = accepts_lasso(a, w)
            assert accepts_lasso(a, w.canonical()) == verdict
            assert accepts_lasso(a, unroll(w, w.length + rng.randint(1, 3))) == verdict


def counter_dpa(k: int) -> ParityAutomaton:
    """a counts modulo k; b keeps the count but is dead at k-1.  Only the
    top count has an even color, so a lasso whose loop adds to the count
    needs up to k rounds before its entry state repeats."""
    names = [f"c{i}" for i in range(k)]
    transitions = {(names[i], "a"): {names[(i + 1) % k]} for i in range(k)}
    transitions.update({(names[i], "b"): {names[i]} for i in range(k - 1)})
    coloring = {q: 1 for q in names}
    coloring[names[-1]] = 2
    return dpa(transitions, coloring, initial="c0")


def lassos_up_to(alphabet, bound):
    for length in range(1, bound + 1):
        yield from enumerate_bases(alphabet, length)


class TestCompiledAcceptance:
    def test_compiled_lazily(self):
        a = counter_dpa(3)
        assert "compiled" not in vars(a)
        accepts_lasso(a, lasso("", "a"))
        view = vars(a)["compiled"]
        assert a.compiled is view
        assert view.table is not None and view.initial == 0

    def test_nondeterministic_has_no_table(self):
        a = ParityAutomaton(
            AB, ("x", "y"), frozenset({"x"}),
            {("x", "a"): frozenset({"x", "y"})}, {"x": 1, "y": 2},
        )
        assert a.compiled.table is None

    def test_several_rounds_before_the_entry_repeats(self):
        a = counter_dpa(5)
        assert accepts_lasso(a, lasso("", "a"))  # five rounds, c4 recurs
        assert accepts_lasso(a, lasso("b", "aa"))  # entries c0 c2 c4 c1 c3
        assert not accepts_lasso(a, lasso("", "ab"))  # b dies at c4 in round four
        assert not accepts_lasso(a, lasso("aaaa", "b"))
        assert not accepts_lasso(a, lasso("aaa", "b"))  # c3 recurs alone
        for w in lassos_up_to(AB, 5):
            assert accepts_lasso(a, w) == accepts_by_product(a, w), w

    def test_deterministic_path_agrees_with_product(self, monkeypatch):
        def no_sccs(*_args):
            raise AssertionError("deterministic acceptance reached _sccs")

        rng = random.Random(23)
        abc = Alphabet(("a", "b", "c"))
        autos = [
            rand_automaton(rng, sigma, max_states=5, max_color=4,
                           deterministic=True, density=density)
            for sigma, count in ((AB, 40), (abc, 8))
            for density in (0.6, 0.9, 1.0)
            for _ in range(count)
        ]
        autos += [counter_dpa(k) for k in (1, 2, 4, 6)]
        for a in autos:
            assert a.compiled.table is not None
            lassos = list(lassos_up_to(a.alphabet, 5))
            words = [w.base for w in lassos if not w.stem]
            expected = [accepts_by_product(a, w) for w in lassos]
            index = a.compiled.letter_index
            with monkeypatch.context() as m:
                m.setattr(core, "_sccs", no_sccs)
                got = [accepts_lasso(a, w) for w in lassos]
                splits = [
                    v for base in words
                    for v in accepts_splits(a, [index[x] for x in base])
                ]
            assert got == expected
            assert splits == expected

    def test_recurring_states_decide_every_coloring(self):
        # det_split_recurring runs a table once for all its colorings.  With
        # state bits as weights it gives the states that recur on each
        # split; naive_accepts finds the same set, since a state recurs iff
        # the run accepts when that state alone has the top, even color.
        # With color weights the run decides every coloring as max-even
        # acceptance over that set does.
        rng = random.Random(12)
        died_along_word = died_in_later_round = 0
        for _ in range(40):
            k, S = rng.randint(1, 4), rng.randint(1, 4)
            table = tuple(
                k if rng.random() < 0.15 else rng.randrange(k) for _ in range(k * S)
            )
            sigma = Alphabet(tuple("abcd"[:S]))
            names = tuple(f"q{s}" for s in range(k))
            cells = product(names, sigma.letters)
            transitions = {
                cell: frozenset({names[t]}) for cell, t in zip(cells, table) if t != k
            }
            marked = [
                ParityAutomaton(
                    sigma, names, frozenset({"q0"}), transitions,
                    {q: 2 if q == mark else 1 for q in names},
                )
                for mark in names
            ]
            bits = [1 << s for s in range(k)]
            colorings = [
                (
                    [1 << c for c in colors],
                    [False] + [
                        max(c for s, c in enumerate(colors) if states >> s & 1) % 2 == 0
                        for states in range(1, 1 << k)
                    ],
                )
                for colors in product(range(3), repeat=k)
            ]
            for length in range(1, 5):
                for word in product(range(S), repeat=length):
                    named = tuple(sigma[x] for x in word)
                    want = [
                        sum(
                            1 << s for s, b in enumerate(marked)
                            if naive_accepts(b, Lasso(named[:i], named[i:]))
                        )
                        for i in range(length)
                    ]
                    recurring = core.det_split_recurring(table, bits, S, 0, word)
                    if recurring is None:
                        # the run dies along the word: no split recurs
                        assert not any(want), (table, word)
                        died_along_word += 1
                        for weight, _ in colorings:
                            got = core.det_split_recurring(table, weight, S, 0, word)
                            assert got is None, (table, word, weight)
                        continue
                    assert recurring == want, (table, word)
                    if not all(recurring):
                        died_in_later_round += 1
                    for weight, accepted in colorings:
                        got = core.det_split_recurring(table, weight, S, 0, word)
                        assert [core.even_top(r) for r in got] == [
                            accepted[states] for states in want
                        ], (table, word, weight)
        assert died_along_word > 100 and died_in_later_round > 100

    def test_partial_table_run_names_its_first_unset_cell(self):
        # The synthesis search runs det_split_recurring on a partial table
        # whose unset cell c holds k + 1 + c.  A naive run steps position by
        # position through the word and then, split by split from the last,
        # through the loop until a (loop position, state) pair repeats; the
        # first unset cell it reads is the one the search branches on.
        def naive(table, k, S, word):
            q = 0
            for x in word:
                q = table[q * S + x]
                if q > k:
                    return ~q
                if q == k:
                    return None
            recurring = [0] * len(word)
            for i in range(len(word) - 1, -1, -1):
                loop = word[i:]
                q, j, first_at, states = 0, 0, {}, []
                while True:
                    if j >= i:
                        key = ((j - i) % len(loop), q)
                        if key in first_at:
                            for s in states[first_at[key]:]:
                                recurring[i] |= 1 << s
                            break
                        first_at[key] = len(states)
                        states.append(q)
                    x = word[j] if j < len(word) else loop[(j - i) % len(loop)]
                    q = table[q * S + x]
                    if q > k:
                        return ~q
                    if q == k:
                        break
                    j += 1
            return recurring

        rng = random.Random(26)
        seen = {"along the word": 0, "in a later round": 0, "dies": 0, "list": 0}
        for _ in range(60):
            k, S = rng.randint(1, 4), rng.randint(1, 3)
            table = [
                rng.choice((k, k + 1 + cell, rng.randrange(k), rng.randrange(k)))
                for cell in range(k * S)
            ]
            done = [min(t, k) for t in table]
            bits = [1 << s for s in range(k)]
            for length in range(1, 6):
                for word in product(range(S), repeat=length):
                    want = naive(table, k, S, word)
                    got = core.det_split_recurring(table, bits, S, 0, word)
                    assert got == want, (table, word)
                    if type(got) is int:
                        cell = ~got - k - 1
                        assert table[cell] == k + 1 + cell
                        if core.det_split_recurring(done, bits, S, 0, word) is None:
                            seen["along the word"] += 1
                        else:
                            seen["in a later round"] += 1
                    elif got is None:
                        seen["dies"] += 1
                    else:
                        assert got == core.det_split_recurring(done, bits, S, 0, word)
                        seen["list"] += 1
        assert min(seen.values()) > 100, seen

    def test_weighted_run_against_naive_reference(self):
        # accepts_lasso and accepts_splits run deterministic tables with
        # dead cells through one color-weighted run; up to six colors put
        # the top recurring color above 3, where even_top reads the parity
        # of a longer bit_length
        rng = random.Random(61)
        abc = Alphabet(("a", "b", "c"))
        verdicts, tops = [], []
        for i in range(200):
            sigma = abc if i % 2 else AB
            a = rand_automaton(rng, sigma, max_states=8, max_color=5,
                               deterministic=True, density=0.9)
            view = a.compiled
            S = len(sigma)
            for _ in range(8):
                w = rand_lasso(rng, sigma, max_stem=4, max_loop=8)
                want = naive_accepts(a, w)
                assert accepts_lasso(a, w) == want, (i, w)
                word = [sigma.index(x) for x in w.base]
                assert accepts_splits(a, word)[len(w.stem)] == want, (i, w)
                verdicts.append(want)
                recurring = core.det_split_recurring(
                    view.table, view.color_weights, S, view.initial, word
                )
                if recurring is None:
                    tops.append(-1)
                else:
                    tops.append(recurring[len(w.stem)].bit_length() - 1)
        # dead runs (top -1) and both parities above color 3 all occur
        assert tops.count(-1) > 100 and tops.count(4) > 20 and tops.count(5) > 20
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8

    def test_nondeterministic_splits_use_product(self):
        rng = random.Random(5)
        for _ in range(30):
            a = rand_automaton(rng, AB, max_states=3, max_color=3)
            for length in range(1, 4):
                for w in enumerate_bases(AB, length):
                    word = [AB.index(x) for x in w.base]
                    assert accepts_splits(a, word)[len(w.stem)] == accepts_by_product(a, w)

    def test_nondeterministic_against_naive_reference(self):
        # accepts_lasso and accepts_splits go through the product with the
        # lasso's word table; helpers.naive_accepts searches an explicit
        # (position, state) graph for a cycle with even maximal color.
        rng = random.Random(41)
        abc = Alphabet(("a", "b", "c"))
        verdicts = []
        for i in range(160):
            sigma = abc if i % 2 else AB
            a = rand_automaton(rng, sigma, max_states=6, max_color=4)
            if a.compiled.table is not None:
                continue
            for _ in range(6):
                w = rand_lasso(rng, sigma, max_stem=4, max_loop=4)
                want = naive_accepts(a, w)
                assert accepts_lasso(a, w) == want, (i, w)
                word = [sigma.index(x) for x in w.base]
                assert accepts_splits(a, word)[len(w.stem)] == want, (i, w)
                verdicts.append(want)
        assert len(verdicts) > 700 and 0.2 < sum(verdicts) / len(verdicts) < 0.8

    def test_unknown_letter_rejected(self):
        for a in (GFB, counter_dpa(2)):
            with pytest.raises(InputError):
                accepts_lasso(a, lasso("", "c"))


class TestEmptiness:
    def test_empty_when_odd_everywhere(self):
        a = dpa({("x", "a"): {"x"}}, {"x": 1})
        assert is_empty(a)
        assert find_accepting_lasso(a) is None

    def test_witness_is_accepted(self):
        found = find_accepting_lasso(GFB)
        assert found is not None
        run, word = found
        assert accepts_lasso(GFB, word)
        assert run.states[0] in GFB.initial

    def test_witness_on_random_automata(self):
        rng = random.Random(23)
        for _ in range(120):
            a = rand_automaton(rng, AB, max_states=5, max_color=4)
            found = find_accepting_lasso(a)
            if found is None:
                assert is_empty(a)
            else:
                assert accepts_lasso(a, found[1])

    def test_witness_is_a_real_run(self):
        # The run starts in an initial state, every step is a transition on
        # the word's letter, the loop closes, its top color is even, and no
        # state repeats; a lasso of base <= |a| exists iff one is found.
        rng = random.Random(29)
        found_count = 0
        for i in range(120):
            a = rand_automaton(rng, AB, max_states=4, max_color=4,
                               deterministic=i % 3 == 0)
            found = find_accepting_lasso(a)
            if found is None:
                assert not any(
                    naive_accepts(a, w) for w in lassos_up_to(AB, a.size)
                ), i
                continue
            found_count += 1
            run, word = found
            states = run.states
            assert run.loop_start == len(word.stem)
            assert len(states) == word.length <= a.size
            assert len(set(states)) == len(states)
            assert states[0] in a.initial
            for j, q in enumerate(states):
                nxt = states[j + 1] if j + 1 < len(states) else states[run.loop_start]
                assert nxt in a.successors(q, word.base[j]), (i, j)
            assert max(a.coloring[q] for q in run.loop_states) % 2 == 0
        assert 40 < found_count < 110, found_count

    def test_reachable_states(self):
        a = ParityAutomaton(
            AB,
            ("x", "y", "z"),
            frozenset({"x"}),
            {("x", "a"): frozenset({"y"})},
            {"x": 0, "y": 0, "z": 0},
        )
        assert reachable_states(a) == {"x", "y"}


class TestCompleteAndComplement:
    def test_partial_input_flips(self):
        # a^w only: the missing b cell goes to an accepting sink
        a = dpa({("x", "a"): {"x"}}, {"x": 0})
        c = complement(a)
        assert c.states == ("x", "sink") and c.coloring == {"x": 1, "sink": 2}
        assert is_complete(c) and is_deterministic(c)
        for w in lassos_up_to(AB, 4):
            assert accepts_lasso(c, w) != accepts_lasso(a, w), w

    def test_complete_input_gets_no_sink(self):
        c = complement(GFB)
        assert c.states == GFB.states and c.transitions == GFB.transitions
        assert c.coloring == {"x": 0, "y": 1}  # {2, 3} normalized

    def test_sink_name_collision_avoided(self):
        for taken in (("sink",), ("sink", "sink'")):
            a = ParityAutomaton(
                AB, taken, frozenset({"sink"}), {}, dict.fromkeys(taken, 0)
            )
            c = complement(a)
            assert c.states == taken + ("sink" + "'" * len(taken),)
            assert accepts_lasso(c, lasso("", "ab"))

    def test_complement_requires_deterministic(self):
        nd = ParityAutomaton(
            AB, ("x", "y"), frozenset({"x"}),
            {("x", "a"): frozenset({"x", "y"})}, {"x": 0, "y": 0},
        )
        with pytest.raises(ContractViolation):
            complement(nd)
        two_starts = ParityAutomaton(
            AB, ("x", "y"), frozenset({"x", "y"}), {}, {"x": 0, "y": 0}
        )
        with pytest.raises(ContractViolation):
            complement(two_starts)

    def test_complement_flips_acceptance(self):
        c = complement(GFB)
        rng = random.Random(3)
        for _ in range(100):
            w = rand_lasso(rng, AB)
            assert accepts_lasso(c, w) != accepts_lasso(GFB, w)

    def test_complement_involution(self):
        # partial inputs: the first complement adds the sink, the second
        # keeps it as a rejecting state
        rng = random.Random(5)
        partial = 0
        for _ in range(60):
            a = rand_automaton(rng, AB, max_states=4, deterministic=True, density=0.7)
            partial += not is_complete(a)
            once = complement(a)
            twice = complement(once)
            assert twice.size == once.size
            for _ in range(10):
                w = rand_lasso(rng, AB)
                assert accepts_lasso(once, w) != accepts_lasso(a, w)
                assert accepts_lasso(twice, w) == accepts_lasso(a, w)
        assert partial > 30


class TestInclusion:
    def safety_prefix(self):
        # accepts words starting with 'a' then anything, as a safety automaton
        return ParityAutomaton(
            AB,
            ("p", "q"),
            frozenset({"p"}),
            {
                ("p", "a"): frozenset({"q"}),
                ("q", "a"): frozenset({"q"}),
                ("q", "b"): frozenset({"q"}),
            },
            {"p": 0, "q": 0},
        )

    def test_product_intersects(self):
        s = self.safety_prefix()
        # "b infinitely often" as a Buchi table: state 1 just read b
        gfb = BuchiTable(("a", "b"), (0,), ((0,), (1,), (0,), (1,)), (0, 1), 1)
        witness = intersection_lasso(s, gfb)
        assert witness == witness.canonical()
        assert accepts_lasso(s, witness) and accepts_lasso(GFB, witness)
        # b^w only: fails the safety half
        only_b = BuchiTable(("a", "b"), (0,), ((), (0,)), (0,), 0)
        assert intersection_lasso(s, only_b) is None
        # a^w only: fails the Buchi half, whose one set the table never meets
        only_a = BuchiTable(("a", "b"), (0,), ((0,), ()), (0,), 1)
        assert intersection_lasso(s, only_a) is None

    def test_product_requires_safety_left(self):
        with pytest.raises(ContractViolation):
            check_inclusion_exact(GFB, GFB)

    def test_inclusion_holds(self):
        # 'a then only b' is included in 'b infinitely often'
        s = ParityAutomaton(
            AB,
            ("p", "q"),
            frozenset({"p"}),
            {
                ("p", "a"): frozenset({"q"}),
                ("q", "b"): frozenset({"q"}),
            },
            {"p": 0, "q": 0},
        )
        ok, witness = check_inclusion_exact(s, GFB)
        assert ok and witness is None

    def test_inclusion_counterexample_is_real(self):
        s = self.safety_prefix()
        ok, witness = check_inclusion_exact(s, GFB)
        assert not ok
        assert accepts_lasso(s, witness) and not accepts_lasso(GFB, witness)

    def test_reference_must_be_deterministic(self):
        npa = ParityAutomaton(
            AB,
            ("u",),
            frozenset({"u"}),
            {("u", "a"): frozenset({"u"})},
            {"u": 0},
        )
        two = ParityAutomaton(
            AB,
            ("u", "v"),
            frozenset({"u"}),
            {("u", "a"): frozenset({"u", "v"})},
            {"u": 0, "v": 0},
        )
        with pytest.raises(ContractViolation):
            check_inclusion_exact(npa, two)
