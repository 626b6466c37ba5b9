import json
import random
from collections import Counter

import pytest

from lassokit.constructions import build_safety_lasso_precise
from lassokit.core import (
    Alphabet,
    InputError,
    Lasso,
    ParityAutomaton,
    ResourceLimit,
    accepts_by_product,
    accepts_lasso,
    complement,
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
from lassokit.ltl import ApLetterMap, ltl_oracle, neg, parse_ltl, violation

from helpers import (
    naive_accepts,
    naive_eval,
    rand_automaton,
    rand_formula,
    rand_lasso,
    reference_precision,
)

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
        # The brute-force scan of helpers fixes the counts and the order
        # of every reported lasso against a bare oracle.
        rng = random.Random(31)
        reported = [0, 0]
        for i in range(24):
            a = rand_automaton(rng, AB, max_states=4, max_color=3,
                               deterministic=i % 3 != 0, density=0.9)
            b = rand_automaton(rng, AB, max_states=3, max_color=3)

            def phi(w, b=b):
                return accepts_by_product(b, w)

            want = reference_precision(a, phi, 2, 4)
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
        # a contained input scans base 19 alone, which is past the ceiling too
        with pytest.raises(ResourceLimit, match="largest bound that fits is 15"):
            check_lasso_precise(ONLY_A, automaton_oracle(ONLY_A), 19)

    def test_scan_of_exactly_the_ceiling_runs(self, monkeypatch):
        monkeypatch.setattr(lassolab, "SCAN_CEILING", 2**1 * 1 + 2**2 * 2)
        report = check_lasso_precise(LEAKY, in_only_a, 1, inclusion_bound=2)
        assert report.checked_inclusion == 8
        with pytest.raises(ResourceLimit, match="largest bound that fits is 2"):
            check_lasso_precise(LEAKY, in_only_a, 1, inclusion_bound=3)

    def test_ceiling_counts_base_n_alone_when_contained(self, monkeypatch):
        # the product proves containment, so only the 2 base-1 lassos are
        # scanned; the lassos up to base 19 count as decided
        report = check_lasso_precise(
            ONLY_A, automaton_oracle(ONLY_A), 1, inclusion_bound=19
        )
        assert report.ok and report.exact_inclusion
        assert report.checked_inclusion == sum(2**b * b for b in range(2, 20))
        monkeypatch.setattr(lassolab, "SCAN_CEILING", 2**3 * 3)
        assert check_lasso_precise(
            ONLY_A, automaton_oracle(ONLY_A), 3, inclusion_bound=19
        ).ok
        with pytest.raises(
            ResourceLimit, match="base 4 over 2 letters.*largest bound that fits is 3"
        ):
            check_lasso_precise(ONLY_A, automaton_oracle(ONLY_A), 4)

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


class TestExactTestFirst:
    """The exact containment test runs before the scan, and the scan then
    visits only what the test leaves open; reports must not change."""

    @staticmethod
    def same_report(got, want):
        assert got.to_dict() == want.to_dict()
        assert got.summary() == want.summary()

    def test_formula_oracle_matches_brute_force(self):
        # 1-AP queries up to base 5, 2-AP queries up to base 3; inputs are
        # precise under- and over-approximations and random automata.
        rng = random.Random(2103)
        seen = Counter()
        for i in range(48):
            aps = ["p"] if i % 2 else ["p", "q"]
            m = ApLetterMap.from_aps(aps)
            bound = rng.randint(2, 5) if len(aps) == 1 else rng.randint(1, 3)
            n = rng.randint(1, bound)
            f = rand_formula(rng, aps, rng.randint(2, 6))
            kind = i // 2 % 4
            if kind == 0:
                a = build_safety_lasso_precise(ltl_oracle(f, m), m.alphabet, n)
            elif kind == 1:
                a = complement(
                    build_safety_lasso_precise(ltl_oracle(neg(f), m), m.alphabet, n)
                )
            else:
                a = rand_automaton(rng, m.alphabet, max_states=3, max_color=3,
                                   deterministic=kind == 2, density=0.9)
            got = check_lasso_precise(a, ltl_oracle(f, m), n, inclusion_bound=bound)
            want = reference_precision(a, lambda w: naive_eval(f, w, m), n, bound)
            self.same_report(got, want)
            assert not got.exact_inclusion
            if want.mismatches:
                seen["mismatch"] += 1
            if want.inclusion_violations:
                seen["violation within the bound"] += 1
            elif violation(a, f, m) is not None:
                seen["violation only beyond the bound"] += 1
                assert got.ok == got.agree
            else:
                seen["contained"] += 1
        assert len(seen) == 4 and min(seen.values()) >= 3, seen

    def test_reference_oracle_matches_brute_force(self):
        # Deterministic and nondeterministic references; a safety input
        # against a deterministic reference gets the exact verdict, whose
        # witness may follow the scanned violations.
        rng = random.Random(2104)
        seen = Counter()
        for i in range(48):
            sigma = AB if i % 3 else Alphabet(("a", "b", "c"))
            bound = rng.randint(2, 5) if len(sigma) == 2 else rng.randint(1, 3)
            n = rng.randint(1, bound)
            ref = rand_automaton(rng, sigma, max_states=3, max_color=3,
                                 deterministic=i % 2 == 0)
            if i % 4 == 0:
                a = build_safety_lasso_precise(automaton_oracle(ref), sigma, n)
            else:
                a = rand_automaton(rng, sigma, max_states=3,
                                   max_color=rng.choice((0, 3)),
                                   deterministic=rng.random() < 0.5, density=0.9)
            got = check_lasso_precise(a, automaton_oracle(ref), n, inclusion_bound=bound)
            want = reference_precision(a, lambda w: naive_accepts(ref, w), n, bound)
            if got.exact_inclusion:
                seen["exact"] += 1
                extra = got.inclusion_violations[len(want.inclusion_violations):]
                assert len(extra) <= 1
                for w in extra:
                    assert naive_accepts(a, w) and not naive_accepts(ref, w)
                want.exact_inclusion = True
                want.inclusion_violations += extra
            self.same_report(got, want)
            if want.mismatches:
                seen["mismatch"] += 1
            if got.inclusion_violations:
                seen["violation"] += 1
            elif got.exact_inclusion:
                seen["exactly contained"] += 1
            if i % 2:
                seen["nondeterministic reference"] += 1
        assert len(seen) == 5 and min(seen.values()) >= 3, seen

    def test_contained_check_visits_only_base_n(self, monkeypatch):
        m = ApLetterMap.from_aps(["p"])
        f = parse_ltl("G F p", ["p"])
        n, bound = 3, 5
        a = build_safety_lasso_precise(ltl_oracle(f, m), m.alphabet, n)
        lengths = []
        real = lassolab.accepts_splits

        def counted_splits(b, word):
            lengths.append(len(word))
            return real(b, word)

        monkeypatch.setattr(lassolab, "accepts_splits", counted_splits)

        def counted(oracle):
            def wrapped(w):
                asked.append(w)
                return oracle(w)

            wrapped.__dict__.update(oracle.__dict__)
            return wrapped

        asked = []
        report = check_lasso_precise(a, counted(ltl_oracle(f, m)), n, inclusion_bound=bound)
        assert report.ok and not report.exact_inclusion
        assert lengths == [n] * 2**n and len(asked) == 2**n * n
        assert report.checked_inclusion == sum(2**b * b for b in (1, 2, 4, 5))

        lengths.clear()
        asked.clear()
        report = check_lasso_precise(a, counted(automaton_oracle(a)), n, inclusion_bound=bound)
        assert report.ok and report.exact_inclusion
        assert lengths == [n] * 2 ** (n + 1) and asked == []
