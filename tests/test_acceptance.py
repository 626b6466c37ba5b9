"""End-to-end checks of the documented size bounds and precision
guarantees.

One test per guarantee.  Each prints a single PASS line with the measured
facts (run pytest with -s to see them); timings are asserted against the
budgets the guarantees are pinned to.
"""

import os
import random
import time
from pathlib import Path

from lassokit.constructions import (
    buechi_to_safety,
    build_safety_lasso_precise,
    color_reduction_state_bound,
    reduce_parity_colors,
    safety_state_bound,
)
from lassokit.core import (
    Alphabet,
    accepts_lasso,
    check_inclusion_exact,
    complement,
    is_deterministic,
    is_safety,
    reachable_states,
)
from lassokit.families import (
    fg_gf_dpa,
    fixture_formulas,
    gf_one,
    omega_k,
    phi_n_oracle,
)
from lassokit.hoa import parse_hoa
from lassokit.lassolab import (
    automaton_oracle,
    check_lasso_precise,
    enumerate_bases,
    unroll,
)
from lassokit.ltl import ApLetterMap, eval_on_lasso, ltl_oracle, parse_ltl
from lassokit.synth import (
    SynthesisQuery,
    brute_force_search,
    decode,
    encode,
    search_lasso_precise,
    search_space_size,
    solve_by_expansion,
    solve_query,
    verify_certificate,
)

from helpers import in_omega, rand_automaton, rand_formula, rand_lasso

DATA = Path(__file__).parent / "data"


def test_recurrence_to_safety_counter_bound():
    """A single-recurrence condition collapses to a counter: the safety
    automaton needs at most n+1 states and is precise at bound n."""
    a = gf_one()
    for n in range(1, 7):
        t0 = time.monotonic()
        s = buechi_to_safety(a, n)
        assert s.size <= n + 1
        assert is_deterministic(s)
        assert is_safety(s)
        # bounded containment scan, reference hidden behind a bare callable
        plain = lambda w: accepts_lasso(a, w)
        rep = check_lasso_precise(s, plain, n, inclusion_bound=n + 3)
        assert rep.ok and not rep.inclusion_violations
        # exact containment via the product construction
        exact = check_lasso_precise(s, automaton_oracle(a), n)
        assert exact.ok and exact.exact_inclusion
        holds, witness = check_inclusion_exact(s, a)
        assert holds and witness is None
        assert time.monotonic() - t0 < 1.0
    print("PASS counter safety: n=1..6 within n+1 states, bounded and exact "
          "containment both clean, <1s per n")


def test_periodic_safety_construction_bound():
    """The generic safety construction stays within its stated size bound on
    the purely-periodic family and agrees on every base-n lasso."""
    sigma = Alphabet(("a", "b"))
    sizes = []
    for n in (1, 2, 3):
        t0 = time.monotonic()
        phi = phi_n_oracle(sigma, n)
        s = build_safety_lasso_precise(phi, sigma, n)
        assert s.size <= safety_state_bound(len(sigma), n)
        assert s.size <= 3 ** n + 2 ** n * (n + 1) ** n
        rep = check_lasso_precise(s, phi, n, inclusion_bound=n)
        assert rep.ok
        assert rep.checked_equal == 2 ** n * n
        assert time.monotonic() - t0 < 5.0
        sizes.append(s.size)
    print(f"PASS periodic safety: sizes {tuple(sizes)} within bound, "
          "all base-n lassos agree, <5s at n=3")


def test_periodic_family_needs_exponential_states():
    """No automaton below 2^n states is n-precise for the purely-periodic
    language over two letters; meanwhile the construction itself reaches at
    least 2^n states."""
    sigma = Alphabet(("0", "1"))
    searched, skipped = [], []
    for n in (1, 2):
        phi = phi_n_oracle(sigma, n)
        for k in range(1, 2 ** n):
            for target in ("deterministic", "nondeterministic"):
                m = 2 * k
                if search_space_size(len(sigma), k, m, target) > 1_000_000:
                    skipped.append((n, k, target))
                    continue
                got = search_lasso_precise(
                    sigma, phi, n, k, m,
                    target=target, inclusion_bound=n * (k + 1),
                )
                assert got is None
                searched.append((n, k, target))
    assert skipped == [(2, 3, "nondeterministic")]
    for n in (1, 2, 3):
        s = build_safety_lasso_precise(phi_n_oracle(sigma, n), sigma, n)
        assert len(reachable_states(s)) >= 2 ** n
    print(f"PASS periodic lower bound: {len(searched)} searches all empty "
          f"below 2^n states ({len(skipped)} over ceiling, skipped), "
          "construction reaches 2^n states for n<=3")


def test_recurrence_needs_linear_states():
    """No deterministic safety automaton with fewer than n states is
    n-precise for the infinitely-many-ones language."""
    a = gf_one()
    phi = automaton_oracle(a)
    t0 = time.monotonic()
    tried = 0
    for n in (2, 3, 4):
        for k in range(1, n):
            got = search_lasso_precise(a.alphabet, phi, n, k, 1)
            assert got is None
            tried += 1
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"PASS recurrence lower bound: {tried} safety searches below n "
          f"states all empty, {dt:.2f}s")


def test_color_reduction_bound_and_agreement():
    """Reducing the three-color fixture to two colors and to one stays inside
    the stated state bound and keeps every base-2 lasso; squeezing to one
    color agrees with reducing to two and then dropping the recurrence."""
    dpa, _ = fg_gf_dpa()
    n = 2
    phi = automaton_oracle(dpa)
    reduced = {}
    for m_prime in (2, 1):
        r = reduce_parity_colors(dpa, n, m_prime)
        assert r.size <= color_reduction_state_bound(dpa, n, m_prime)
        assert r.color_count <= m_prime
        rep = check_lasso_precise(r, phi, n, inclusion_bound=2 * n)
        assert rep.ok and not rep.inclusion_violations
        reduced[m_prime] = r
    via_counter = buechi_to_safety(reduced[2], n)
    for w in enumerate_bases(dpa.alphabet, n):
        assert accepts_lasso(reduced[1], w) == accepts_lasso(via_counter, w)
    print(f"PASS color reduction: sizes {reduced[2].size}/{reduced[1].size} "
          "within bound for 2/1 colors, precise at bound 4, one-color route "
          "matches two-color-then-counter route on all base-2 lassos")


def test_blowup_family_language_and_minimality():
    """The trigger-counting family has exactly 2k+1 states and its accepted
    lassos match the reference predicate on every base up to 2k+3; at k=1 a
    brute search confirms one state cannot do it.  This is a scaled-down
    stand-in: the full exponential determinization claim is not checkable
    at this scale."""
    for k in (1, 2, 3):
        a = omega_k(k)
        assert a.size == 2 * k + 1
        for n in range(1, 2 * k + 4):
            for w in enumerate_bases(a.alphabet, n):
                assert accepts_lasso(a, w) == in_omega(w, k)
    small = search_lasso_precise(
        omega_k(1).alphabet, lambda w: in_omega(w, 1), 3, 1, 2
    )
    assert small is None
    print("PASS blow-up family: sizes 3/5/7, language exact to base 2k+3, "
          "no 1-state parity automaton is 3-precise at k=1 (scaled stand-in; "
          "the exponential claim itself is out of reach here)")


def test_expansion_and_brute_force_agree():
    """The quantifier-expansion decision procedure and the brute-force
    search give the same verdict on the whole small corpus, and every
    witness re-verifies independently."""
    amap = ApLetterMap.from_aps(["p"])
    t0 = time.monotonic()
    sat = unsat = 0
    for text in ("G p", "F p", "G F p", "F G p", "p U X p"):
        f = parse_ltl(text, amap.aps)
        for n in (1, 2, 3):
            for k in (1, 2):
                for m in (1, 2):
                    q = SynthesisQuery(f, amap, n, k, m)
                    p = encode(q)
                    model = solve_by_expansion(p)
                    ref = brute_force_search(q)
                    assert (model is None) == (ref is None)
                    if model is None:
                        unsat += 1
                        continue
                    cert = decode(p, model)
                    assert verify_certificate(q, cert).ok
                    sat += 1
    dt = time.monotonic() - t0
    assert sat + unsat == 60
    assert dt < 60.0
    print(f"PASS synthesis agreement: 60 queries, {sat} SAT certificates "
          f"verified, {unsat} UNSAT, both engines agree, {dt:.1f}s")


def test_fairness_conjunction_witness():
    """Four states suffice for the two-pair fairness conjunction at bound 2.
    With an external solver configured the witness is synthesized live,
    otherwise the stored automaton is re-checked."""
    f, _ = fixture_formulas()[0]
    cmd = os.environ.get("LASSOKIT_QBF_SOLVER")
    if cmd:
        q = SynthesisQuery(f, ApLetterMap.from_aps(["p", "q", "r", "s"]), 2, 4, 1)
        cert = solve_query(q, solver=cmd)
        assert cert is not None and cert.size <= 4
        assert verify_certificate(q, cert).ok
        print("PASS fairness witness: external solver produced a verified "
              "4-state automaton")
    else:
        doc = parse_hoa((DATA / "fairness_pairs_n2.hoa").read_text())
        a = doc.automaton
        assert a.size == 4
        rep = check_lasso_precise(
            a, ltl_oracle(f, doc.ap_map), 2, inclusion_bound=2
        )
        assert rep.ok
        assert rep.checked_equal == 512 and rep.checked_inclusion == 16
        print("PASS fairness witness: stored 4-state automaton precise on "
              "all 528 lassos of base <= 2 (no external solver configured)")


def test_property_suites():
    """Randomized invariants: acceptance and evaluation cannot see which
    lasso represents a word, complementation is an involution, and
    precision at one bound carries to every larger bound."""
    rng = random.Random(20260814)
    amap = ApLetterMap.from_aps(["p", "q"])
    sigma = Alphabet(("a", "b"))

    for _ in range(1000):
        a = rand_automaton(rng, sigma)
        w = rand_lasso(rng, sigma)
        expected = accepts_lasso(a, w)
        assert accepts_lasso(a, w.canonical()) == expected
        assert accepts_lasso(a, unroll(w, w.length + rng.randrange(1, 4))) == expected

    for _ in range(1000):
        f = rand_formula(rng, amap.aps, budget=rng.randrange(1, 8))
        w = rand_lasso(rng, amap.alphabet)
        expected = eval_on_lasso(f, w, amap)
        assert eval_on_lasso(f, w.canonical(), amap) == expected
        assert eval_on_lasso(f, unroll(w, w.length + rng.randrange(1, 4)), amap) == expected

    for _ in range(100):
        a = rand_automaton(rng, sigma, deterministic=True)
        once = complement(a)
        twice = complement(once)
        for _ in range(5):
            w = rand_lasso(rng, sigma)
            assert accepts_lasso(once, w) == (not accepts_lasso(a, w))
            assert accepts_lasso(twice, w) == accepts_lasso(a, w)

    grown = 0
    for _ in range(500):
        if rng.randrange(2):
            f = rand_formula(rng, amap.aps, budget=rng.randrange(1, 6))
            phi = ltl_oracle(f, amap)
            w = rand_lasso(rng, amap.alphabet)
        else:
            phi = automaton_oracle(rand_automaton(rng, sigma))
            w = rand_lasso(rng, sigma)
        if not phi(w):
            continue
        # a length-n model stays a model at every larger length
        assert phi(unroll(w, w.length + rng.randrange(1, 5)))
        grown += 1
    assert grown > 100

    print("PASS property suites: 1000 acceptance + 1000 evaluation "
          f"representation-invariance cases, 500 involution checks, "
          f"{grown} length-growth cases, zero failures")
