import json
import random

import pytest

from lassokit.core import (
    Alphabet,
    InputError,
    Lasso,
    ParityAutomaton,
    ResourceLimit,
    accepts_by_product,
    accepts_lasso,
    lasso,
)
from lassokit import lassolab
from lassokit.lassolab import (
    PrecisionReport,
    automaton_oracle,
    check_lasso_precise,
    default_inclusion_bound,
    enumerate_bases,
    unroll,
)
from lassokit.ltl import ApLetterMap, ltl_oracle, parse_ltl

from helpers import rand_automaton, rand_lasso

AB = Alphabet(("a", "b"))

# Exact safety automaton for "every letter is a".
ONLY_A = ParityAutomaton(
    alphabet=AB,
    states=("s",),
    initial=frozenset({"s"}),
    transitions={("s", "a"): frozenset({"s"})},
    coloring={"s": 0},
)

# Agrees with ONLY_A on all base-1 lassos but also accepts a(ba)^w words:
# after the first a, anything goes.
LEAKY = ParityAutomaton(
    alphabet=AB,
    states=("x", "y"),
    initial=frozenset({"x"}),
    transitions={
        ("x", "a"): frozenset({"y"}),
        ("y", "a"): frozenset({"y"}),
        ("y", "b"): frozenset({"y"}),
    },
    coloring={"x": 0, "y": 0},
)


def in_only_a(w: Lasso) -> bool:
    return all(c == "a" for c in w.base)


class TestUnroll:
    def test_identity(self):
        w = lasso("a", "ba")
        assert unroll(w, w.length) == w

    def test_length_and_word(self):
        w = lasso("a", "ab")
        for n2 in range(w.length, 9):
            u = unroll(w, n2)
            assert u.length == n2
            assert u.prefix(16) == w.prefix(16)
            assert u.canonical() == w.canonical()

    def test_shrinking_rejected(self):
        with pytest.raises(InputError):
            unroll(lasso("a", "ab"), 2)

    def test_random(self):
        rng = random.Random(7)
        for _ in range(200):
            w = rand_lasso(rng, AB)
            u = unroll(w, w.length + rng.randrange(0, 6))
            assert u.prefix(24) == w.prefix(24)
            assert u.canonical() == w.canonical()


class TestEnumerateBases:
    def test_counts(self):
        for n in (1, 2, 3):
            out = list(enumerate_bases(AB, n))
            assert len(out) == 2**n * n
            assert all(w.length == n for w in out)
            assert len({(w.stem, w.loop) for w in out}) == len(out)

    def test_order_and_membership(self):
        out = list(enumerate_bases(AB, 2))
        assert out[0] == Lasso((), ("a", "a"))
        assert out[1] == Lasso(("a",), ("a",))
        assert Lasso(("a",), ("b",)) in out
        assert Lasso((), ("b", "a")) in out

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            list(enumerate_bases(AB, 0))


class TestAutomatonOracle:
    def test_wraps_acceptance(self):
        oracle = automaton_oracle(LEAKY)
        for w in enumerate_bases(AB, 2):
            assert oracle(w) == accepts_lasso(LEAKY, w)
        assert oracle.automaton is LEAKY


class TestPrecisionReport:
    def test_json_round_trip(self):
        r = PrecisionReport(1, 2, checked_equal=2)
        r.mismatches.append((lasso("a", "b"), True, False))
        assert json.loads(r.to_json()) == r.to_dict()
        entry = r.to_dict()["mismatches"][0]
        assert entry["base"] == ["a", "b"] and entry["split"] == 1

    def test_summary_verdict(self):
        good = PrecisionReport(1, 1)
        assert "verdict: ok" in good.summary()
        bad = PrecisionReport(1, 1)
        bad.inclusion_violations.append(lasso("", "b"))
        assert "FAILED" in bad.summary()
        assert "accepted outside language" in bad.summary()


class TestCheckLassoPrecise:
    def test_exact_automaton_passes(self):
        report = check_lasso_precise(ONLY_A, in_only_a, 2)
        assert report.ok
        assert report.checked_equal == 8
        assert not report.exact_inclusion

    def test_default_bound(self):
        assert default_inclusion_bound(ONLY_A, 2) == 2
        assert default_inclusion_bound(LEAKY, 1) == 2

    def test_leak_caught_at_default_bound(self):
        # Precise at base 1, but (ab)^w leaks in at base 2 = |LEAKY|.
        report = check_lasso_precise(LEAKY, in_only_a, 1)
        assert report.agree
        assert not report.ok
        assert lasso("", "ab") in report.inclusion_violations

    def test_small_bound_hides_leak(self):
        report = check_lasso_precise(LEAKY, in_only_a, 1, inclusion_bound=1)
        assert report.ok  # the check is only as strong as its bound

    def test_mismatch_reported(self):
        trans = dict(ONLY_A.transitions)
        trans[("s", "b")] = frozenset({"s"})
        sloppy = ParityAutomaton(AB, ("s",), frozenset({"s"}), trans, {"s": 0})
        report = check_lasso_precise(sloppy, in_only_a, 1, inclusion_bound=1)
        assert not report.agree
        assert (lasso("", "b"), False, True) in report.mismatches

    def test_exact_inclusion_from_reference(self):
        report = check_lasso_precise(LEAKY, in_only_a, 1, reference=ONLY_A)
        assert report.exact_inclusion
        assert report.inclusion_bound == 1
        assert not report.ok  # product test sees past the bound

    def test_exact_inclusion_from_oracle_attachment(self):
        report = check_lasso_precise(ONLY_A, automaton_oracle(ONLY_A), 3)
        assert report.ok and report.exact_inclusion

    def test_same_as_reference_scan(self):
        # A scan built from enumerate_bases and the generic product path
        # fixes the counts and the order of every reported lasso.
        def reference(a, phi, n, bound):
            out = PrecisionReport(n, bound)
            for length in range(1, bound + 1):
                for w in enumerate_bases(a.alphabet, length):
                    got = accepts_by_product(a, w)
                    if length == n:
                        out.checked_equal += 1
                        if got != phi(w):
                            out.mismatches.append((w, not got, got))
                    else:
                        out.checked_inclusion += 1
                        if got and not phi(w):
                            out.inclusion_violations.append(w)
            return out

        rng = random.Random(31)
        reported = [0, 0]
        for i in range(24):
            a = rand_automaton(rng, AB, max_states=4, max_color=3,
                               deterministic=i % 3 != 0, density=0.9)
            b = rand_automaton(rng, AB, max_states=3, max_color=3)

            def phi(w, b=b):
                return accepts_by_product(b, w)

            want = reference(a, phi, 2, 4)
            got = check_lasso_precise(a, phi, 2, inclusion_bound=4)
            assert got.to_dict() == want.to_dict()
            assert got.mismatches == want.mismatches
            assert got.inclusion_violations == want.inclusion_violations
            reported[0] += len(want.mismatches)
            reported[1] += len(want.inclusion_violations)
        assert min(reported) > 0

    def test_bad_bounds(self):
        with pytest.raises(InputError):
            check_lasso_precise(ONLY_A, in_only_a, 0)
        with pytest.raises(InputError):
            check_lasso_precise(ONLY_A, in_only_a, 2, inclusion_bound=1)

    def test_scan_over_the_ceiling_is_refused(self, monkeypatch):
        # Bases up to 19 over two letters are 19,922,946 lassos; the
        # largest bound whose scan fits is 15 (917,506 lassos).
        def scanned(*_args):
            raise AssertionError("scanned past the ceiling")

        monkeypatch.setattr(lassolab, "_scan", scanned)
        with pytest.raises(ResourceLimit, match="largest bound that fits is 15"):
            check_lasso_precise(LEAKY, in_only_a, 1, inclusion_bound=19)
        with pytest.raises(ResourceLimit):
            check_lasso_precise(ONLY_A, automaton_oracle(ONLY_A), 19)

    def test_scan_of_exactly_the_ceiling_runs(self, monkeypatch):
        monkeypatch.setattr(lassolab, "SCAN_CEILING", 2**1 * 1 + 2**2 * 2)
        report = check_lasso_precise(LEAKY, in_only_a, 1, inclusion_bound=2)
        assert report.checked_inclusion == 8
        with pytest.raises(ResourceLimit, match="largest bound that fits is 2"):
            check_lasso_precise(LEAKY, in_only_a, 1, inclusion_bound=3)

    def test_against_ltl_oracle(self):
        pmap = ApLetterMap.from_aps(["p"])
        sigma = Alphabet(pmap.letters)
        always_p = ParityAutomaton(
            alphabet=sigma,
            states=("s",),
            initial=frozenset({"s"}),
            transitions={("s", "{p}"): frozenset({"s"})},
            coloring={"s": 0},
        )
        oracle = ltl_oracle(parse_ltl("G p", ["p"]), pmap)
        assert check_lasso_precise(always_p, oracle, 2, inclusion_bound=4).ok
