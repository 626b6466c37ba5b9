import random

import pytest

from lassokit.constructions import (
    build_safety_lasso_precise,
    buechi_to_safety,
    color_reduction_state_bound,
    counter_state_bound,
    drop_one_color,
    overapproximate,
    reduce_parity_colors,
    safety_state_bound,
)
from lassokit.core import (
    Alphabet,
    ContractViolation,
    InputError,
    ParityAutomaton,
    accepts_lasso,
    is_deterministic,
    is_safety,
)
from lassokit import constructions
from lassokit.families import fg_gf_dpa, phi_n_oracle
from lassokit.lassolab import automaton_oracle, check_lasso_precise, enumerate_bases
from lassokit.ltl import ApLetterMap, ltl_oracle, parse_ltl

from helpers import (
    moore_size,
    rand_formula,
    reference_safety,
    same_safety_language,
    trim_safety,
)

AB = Alphabet(("a", "b"))

# Deterministic Buchi fixture: b occurs infinitely often.
GFB = ParityAutomaton(
    AB,
    ("w", "g"),
    frozenset({"w"}),
    {
        ("w", "a"): frozenset({"w"}),
        ("w", "b"): frozenset({"g"}),
        ("g", "a"): frozenset({"w"}),
        ("g", "b"): frozenset({"g"}),
    },
    {"w": 1, "g": 2},
)


def only_a(w):
    return all(c == "a" for c in w.base)


class TestBounds:
    def test_safety_bound_values(self):
        assert safety_state_bound(2, 1) == 3 + 2 * 2
        assert safety_state_bound(2, 2) == 9 + 4 * 9

    def test_counter_bound_values(self):
        assert counter_state_bound(GFB, 2) == 2 * 1 * 1 + 1

    def test_color_reduction_bound_values(self):
        dpa, _ = fg_gf_dpa()
        expected = (2 * dpa.size + 1) * dpa.size * (dpa.color_count - 2 + 2)
        assert color_reduction_state_bound(dpa, 2, 2) == expected


class TestBuildSafety:
    def test_shape(self):
        a = build_safety_lasso_precise(only_a, AB, 2)
        assert is_safety(a) and is_deterministic(a)
        assert a.size <= safety_state_bound(2, 2)

    def test_precise_for_plain_oracle(self):
        a = build_safety_lasso_precise(only_a, AB, 2)
        report = check_lasso_precise(a, only_a, 2, inclusion_bound=4)
        assert report.ok

    def test_precise_for_ltl_oracle(self):
        pmap = ApLetterMap.from_aps(["p"])
        phi = ltl_oracle(parse_ltl("G F p", ["p"]), pmap)
        a = build_safety_lasso_precise(phi, Alphabet(pmap.letters), 2)
        assert check_lasso_precise(a, phi, 2, inclusion_bound=4).ok

    def test_bad_bound(self):
        with pytest.raises(InputError):
            build_safety_lasso_precise(only_a, AB, 0)

    def test_random_formulas_stay_precise(self):
        rng = random.Random(23)
        pmap = ApLetterMap.from_aps(["p"])
        sigma = Alphabet(pmap.letters)
        for _ in range(12):
            f = rand_formula(rng, ["p"], budget=6)
            phi = ltl_oracle(f, pmap)
            n = rng.choice((1, 2))
            a = build_safety_lasso_precise(phi, sigma, n)
            assert check_lasso_precise(a, phi, n, inclusion_bound=n + 2).ok


class TestSafetyMatchesReference:
    """The construction accepts the language of the paper's construction,
    kept in tests/helpers.py, with no more states than it, and exactly as
    many as an independent Moore refinement of the trimmed reference."""

    def assert_minimal_copy(self, built, ref):
        assert same_safety_language(built, ref)
        assert built.size <= ref.size
        assert built.size == moore_size(trim_safety(ref))

    @pytest.mark.parametrize("aps", [["p"], ["p", "q"]])
    def test_ltl_oracle(self, aps):
        rng = random.Random(31 + len(aps))
        pmap = ApLetterMap.from_aps(aps)
        sigma = Alphabet(pmap.letters)
        for _ in range(10):
            f = rand_formula(rng, aps, budget=rng.randint(1, 7))
            for n in (1, 2, 3):
                built = build_safety_lasso_precise(ltl_oracle(f, pmap), sigma, n)
                ref = reference_safety(ltl_oracle(f, pmap), sigma, n)
                self.assert_minimal_copy(built, ref)

    def test_automaton_oracle(self):
        abc = Alphabet(("a", "b", "c"))
        for alphabet, phi in ((AB, automaton_oracle(GFB)), (abc, only_a)):
            for n in (1, 2, 3):
                built = build_safety_lasso_precise(phi, alphabet, n)
                self.assert_minimal_copy(built, reference_safety(phi, alphabet, n))

    def test_periodic_family(self):
        for n in (1, 2, 3, 4):
            phi = phi_n_oracle(AB, n)
            built = build_safety_lasso_precise(phi, AB, n)
            self.assert_minimal_copy(built, reference_safety(phi, AB, n))
            assert built.size >= 2**n


class TestStateNames:
    def test_comma_letters_do_not_collide(self):
        # "a" and "a,a" joined with commas read alike: "a,a,a" is three
        # letters or two.  The names must still tell the states apart.
        sigma = Alphabet(("a", "a,a"))

        def phi(w):
            return w.letter(0) == "a" and w.letter(1) == "a,a"

        a = build_safety_lasso_precise(phi, sigma, 3)
        report = check_lasso_precise(a, phi, 3, inclusion_bound=4)
        assert report.mismatches == [] and report.ok

    def test_loop_separator_letters_do_not_collide(self):
        # Spelled by letter, the loop sets {(a), (b, a)} and {(a|b, a)}
        # would both read "a|b,a"; spelled by index they stay apart.
        sigma = Alphabet(("a", "b", "a|b"))

        def phi(w):
            return True

        a = build_safety_lasso_precise(phi, sigma, 2)
        assert {"p2[0|1,0]", "p2[2,0]"} <= set(a.states)
        assert check_lasso_precise(a, phi, 2, inclusion_bound=3).ok

    def test_plain_letters_keep_their_names(self):
        sigma = Alphabet(("x;", "[y]", "{p,q}"))

        def phi(w):
            return w.letter(1) == "x;"

        a = build_safety_lasso_precise(phi, sigma, 2)
        assert a.states[:4] == ("p1[]", "p2[x;]", "p1[[y]]", "p1[{p,q}]")
        assert "p2[x;|{p,q},x;]" in a.states


class TestBuechiToSafety:
    def test_gfb(self):
        out = buechi_to_safety(GFB, 2)
        assert is_safety(out) and is_deterministic(out)
        assert out.size <= counter_state_bound(GFB, 2)
        report = check_lasso_precise(out, automaton_oracle(GFB), 2)
        assert report.ok and report.exact_inclusion

    def test_safety_input_unchanged_language(self):
        srg = ParityAutomaton(
            AB, ("s",), frozenset({"s"}), {("s", "a"): frozenset({"s"})}, {"s": 0}
        )
        out = buechi_to_safety(srg, 3)
        assert check_lasso_precise(out, automaton_oracle(srg), 3).ok

    def test_nondeterministic_input(self):
        # Nondeterministic Buchi: guess the point from which only b occurs.
        nba = ParityAutomaton(
            AB,
            ("u", "v"),
            frozenset({"u"}),
            {
                ("u", "a"): frozenset({"u"}),
                ("u", "b"): frozenset({"u", "v"}),
                ("v", "b"): frozenset({"v"}),
            },
            {"u": 1, "v": 2},
        )
        out = buechi_to_safety(nba, 2)
        assert is_safety(out)
        assert check_lasso_precise(out, automaton_oracle(nba), 2, inclusion_bound=4).ok

    def test_rejects_parity_input(self):
        dpa, _ = fg_gf_dpa()
        with pytest.raises(ContractViolation):
            buechi_to_safety(dpa, 2)

    def test_bad_bound(self):
        with pytest.raises(InputError):
            buechi_to_safety(GFB, 0)


class TestReduceParityColors:
    def test_budget_two(self):
        dpa, _ = fg_gf_dpa()
        out = reduce_parity_colors(dpa, 2, 2)
        assert out.color_count <= 2
        assert is_deterministic(out)
        assert out.size <= color_reduction_state_bound(dpa, 2, 2)
        assert check_lasso_precise(out, automaton_oracle(dpa), 2, inclusion_bound=4).ok

    def test_budget_one_is_safety(self):
        dpa, _ = fg_gf_dpa()
        out = reduce_parity_colors(dpa, 2, 1)
        assert is_safety(out)
        report = check_lasso_precise(out, automaton_oracle(dpa), 2)
        assert report.ok and report.exact_inclusion

    def test_drop_one_color(self):
        dpa, _ = fg_gf_dpa()
        out = drop_one_color(dpa, 2)
        assert out.color_count == dpa.color_count - 1
        assert check_lasso_precise(out, automaton_oracle(dpa), 2, inclusion_bound=4).ok

    def test_drop_needs_two_colors(self):
        srg = ParityAutomaton(
            AB, ("s",), frozenset({"s"}), {("s", "a"): frozenset({"s"})}, {"s": 0}
        )
        with pytest.raises(ContractViolation):
            drop_one_color(srg, 2)

    def test_rejects_nondeterministic(self):
        nd = ParityAutomaton(
            AB,
            ("s", "t", "u"),
            frozenset({"s"}),
            {("s", "a"): frozenset({"s", "t"})},
            {"s": 0, "t": 1, "u": 2},
        )
        with pytest.raises(ContractViolation):
            reduce_parity_colors(nd, 2, 1)

    def test_budget_range_enforced(self):
        dpa, _ = fg_gf_dpa()
        for bad in (0, dpa.color_count, dpa.color_count + 1):
            with pytest.raises(ContractViolation):
                reduce_parity_colors(dpa, 2, bad)

    def test_bad_bound(self):
        dpa, _ = fg_gf_dpa()
        with pytest.raises(InputError):
            reduce_parity_colors(dpa, 0, 1)


class TestOverapproximate:
    def assert_superset_and_precise(self, a, over, n, scan):
        for w in scan:
            if accepts_lasso(a, w):
                assert accepts_lasso(over, w)
            if w.length == n:
                assert accepts_lasso(over, w) == accepts_lasso(a, w)

    def scan(self, alphabet, bound):
        for length in range(1, bound + 1):
            yield from enumerate_bases(alphabet, length)

    def test_safety_mode_on_buchi(self):
        over = overapproximate(GFB, 2)
        self.assert_superset_and_precise(GFB, over, 2, self.scan(AB, 4))

    def test_color_budget_mode(self):
        dpa, _ = fg_gf_dpa()
        over = overapproximate(dpa, 2, 2)
        self.assert_superset_and_precise(dpa, over, 2, self.scan(dpa.alphabet, 3))

    def test_budget_covers_input(self):
        # With a budget at least the complement's color count, the
        # sandwich degenerates and the language is preserved outright.
        over = overapproximate(GFB, 1, 3)
        for w in self.scan(AB, 4):
            assert accepts_lasso(over, w) == accepts_lasso(GFB, w)

    def test_rejects_nondeterministic(self):
        nd = ParityAutomaton(
            AB,
            ("s", "t"),
            frozenset({"s"}),
            {("s", "a"): frozenset({"s", "t"})},
            {"s": 0, "t": 1},
        )
        with pytest.raises(ContractViolation):
            overapproximate(nd, 2)

    def test_bad_budget(self):
        with pytest.raises(InputError):
            overapproximate(GFB, 2, 0)

    def test_unknown_mode_string(self, monkeypatch):
        # Checked before any work: the complement is never built.
        def refused(_a):
            raise AssertionError("complemented before checking the mode")

        monkeypatch.setattr(constructions, "complement", refused)
        for mode in ("parity:2", "x"):
            with pytest.raises(InputError):
                overapproximate(GFB, 2, mode)
