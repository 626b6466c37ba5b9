"""Seeded inputs and the fixed operation list of each workload.

A workload is a list of ``Op``: the arguments of one ``lassokit`` call plus
the independent check of its result.  The seed renames and negates atomic
propositions, swaps commutative operands, draws the random automata and
permutes their state numbering.  It never changes which constructions,
bounds and budgets an operation uses, so the work of a pass stays close to
constant from seed to seed while the inputs differ.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import pb_oracle as orc

AP_POOL = ("a", "b", "c", "d", "e", "g", "h", "k", "m", "p", "q", "r", "s", "t", "u", "v", "w", "y", "z")


class CheckFailed(Exception):
    """The oracle disagrees with an operation's result."""


@dataclass
class Result:
    rc: int
    stdout: str
    out_text: Optional[str]
    report_text: Optional[str]


@dataclass
class Op:
    """One CLI call.  ``verify`` raises CheckFailed or returns the number of
    automaton states the call wrote."""

    argv: list
    verify: Callable[[Result], int] = field(repr=False)
    out: Optional[str] = None
    report: Optional[str] = None


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# formulas


def ap(name):
    return ("ap", name)


def G(f):
    return ("G", f)


def F(f):
    return ("F", f)


def X(f):
    return ("X", f)


def And(f, g):
    return ("and", f, g)


def Implies(f, g):
    return ("implies", f, g)


def Until(f, g):
    return ("U", f, g)


@dataclass(frozen=True)
class Template:
    """A formula shape over placeholder literals A and B.

    ``neg_states`` is the size of a complete deterministic parity automaton
    for the negated formula and ``neg_safety`` says whether that automaton
    is a safety automaton; the containment depth of a synthesis witness is
    derived from them (see README)."""

    name: str
    build: Callable
    arity: int
    neg_states: int = 0
    neg_safety: bool = False


GF = Template("G F A", lambda A, B: G(F(A)), 1, 2, False)
FG = Template("F G A", lambda A, B: F(G(A)), 1)
FA = Template("F A", lambda A, B: F(A), 1, 2, True)
RESPONSE = Template("G (A -> F B)", lambda A, B: G(Implies(A, F(B))), 2)
UNTIL = Template("A U B", lambda A, B: Until(A, B), 2)
STEP = Template("G (A -> X B)", lambda A, B: G(Implies(A, X(B))), 2)
GFGF = Template("G F A & G F B", lambda A, B: And(G(F(A)), G(F(B))), 2, 3, False)


def seeded_formula(rng: random.Random, t: Template):
    """The template with fresh AP names, each literal negated with
    probability 1/2 and the operands of every conjunction swapped with
    probability 1/2."""
    names = rng.sample(AP_POOL, t.arity)
    lits = [("not", ap(x)) if rng.random() < 0.5 else ap(x) for x in names]
    lits += [None] * (2 - len(lits))
    return _swap(rng, t.build(*lits))


def _swap(rng, f):
    if f[0] == "ap":
        return f
    parts = [_swap(rng, g) for g in f[1:]]
    if f[0] == "and" and rng.random() < 0.5:
        parts.reverse()
    return (f[0], *parts)


# ---------------------------------------------------------------------------
# automata


def random_dpa(rng: random.Random, aps: tuple, colors: tuple) -> orc.Dpa:
    """Complete deterministic automaton with one state per entry of
    ``colors``, coloured by a shuffle of that list, whose state 0 reaches
    every state: a cycle through all states on one letter, a self-loop on
    one odd-coloured state, the other edges uniform.  Fixing the colour multiset keeps the constructions' bounds the
    same for every seed."""
    states = len(colors)
    letters = 1 << len(aps)
    order = list(range(1, states))
    rng.shuffle(order)
    order = [0] + order
    spine = rng.randrange(letters)
    delta = [[rng.randrange(states) for _ in range(letters)] for _ in range(states)]
    for i, q in enumerate(order):
        delta[q][spine] = order[(i + 1) % states]
    color = list(colors)
    rng.shuffle(color)
    # A loop on a state of odd colour lets runs stay away from the higher
    # colours for any number of steps, so the counters of the constructions
    # reach their bounds for every seed instead of only for some.
    odd = rng.choice([q for q in range(states) if color[q] % 2 == 1])
    delta[odd][(spine + 1) % letters] = odd
    return orc.Dpa(letters, 0, delta, color, aps)


def to_lassokit(lk, d: orc.Dpa):
    """The same automaton as a ``lassokit`` object plus its letter map."""
    if d.aps:
        amap = lk.ApLetterMap.from_aps(d.aps, sort=False)
        names = amap.letters
    else:
        amap = None
        names = tuple(str(x) for x in range(d.letters))
    sigma = lk.Alphabet(names)
    states = tuple(f"s{q}" for q in range(d.size))
    transitions = {
        (states[q], names[x]): frozenset({states[t]})
        for q in range(d.size)
        for x in range(d.letters)
        for t in [d.delta[q][x]]
        if t >= 0
    }
    coloring = {states[q]: d.color[q] for q in range(d.size)}
    a = lk.ParityAutomaton(sigma, states, frozenset({states[d.start]}), transitions, coloring)
    return a, amap


def seeded_aps(rng: random.Random, count: int) -> tuple:
    return tuple(sorted(rng.sample(AP_POOL, count)))


# ---------------------------------------------------------------------------
# checks of single results

_STATES_LINE = re.compile(r"^states: (\d+)(?: \(theorem bound (\d+)\))?$", re.M)
_SAT_LINE = re.compile(r"^SAT: k=(\d+), (\d+) states, (\d+) colors$", re.M)


def _read_out(res: Result) -> orc.HoaFile:
    require(res.out_text is not None, "no automaton written")
    hoa = orc.read_hoa(res.out_text)
    require(hoa.dpa.size == hoa.states, "state count header disagrees with body")
    return hoa


def _printed_size(res: Result, hoa: orc.HoaFile, bound: int, bound_printed: bool) -> int:
    m = _STATES_LINE.search(res.stdout)
    require(m is not None, f"no states line in {res.stdout!r}")
    require(int(m.group(1)) == hoa.states, "printed state count differs from the file")
    if bound_printed:
        require(m.group(2) is not None and int(m.group(2)) == bound,
                f"printed bound {m.group(2)} differs from the recomputed {bound}")
    require(hoa.states <= bound, f"{hoa.states} states exceed the bound {bound}")
    return hoa.states


def verify_ltl_approx(f, n: int, direction: str, depth: int):
    """Equality on every base-n lasso, the direction's containment on every
    lasso up to ``depth``, and the safety construction's bound."""

    def verify(res: Result) -> int:
        require(res.rc == 0, f"exit code {res.rc}")
        hoa = _read_out(res)
        d = hoa.dpa
        if direction == "under":
            require(set(d.color) == {0}, "under-approximation is not safety")
        require(orc.atoms(f) <= set(d.aps), "output APs miss formula atoms")
        phi = formula_oracle(f, d.aps)
        bound = orc.safety_bound(d.letters, n) + (1 if direction == "over" else 0)
        size = _printed_size(res, hoa, bound, True)
        bad = orc.first_mismatch(d, phi, n)
        require(bad is None, f"disagrees with the formula on {bad}")
        bad = orc.first_counterexample(d, phi, depth, direction)
        require(bad is None, f"{direction}-approximation broken on {bad}")
        return size

    return verify


def _reference(ref) -> orc.Dpa:
    """Seeded inputs are known as ``Dpa``; the bundled fixtures are given by
    path and read back with the oracle's own HOA reader."""
    if isinstance(ref, orc.Dpa):
        return ref
    with open(ref) as fh:
        return orc.read_hoa(fh.read()).dpa


def verify_hoa_approx(ref_given, n: int, target: str, direction: str):
    """Equality on every base-n lasso and exact containment against the
    input automaton; the state count within the construction's bound."""

    def verify(res: Result) -> int:
        require(res.rc == 0, f"exit code {res.rc}")
        ref = _reference(ref_given)
        hoa = _read_out(res)
        d = hoa.dpa
        budget = 1 if target == "safety" else int(target.split(":")[1])
        if direction == "over":
            bound = orc.over_bound(ref, n, budget)
        elif target == "safety":
            bound = orc.counter_bound(ref, n)
            require(set(d.color) == {0}, "safety target but the output has colours")
        else:
            colors = orc.normalized_color_count(ref.color)
            bound = orc.color_bound(ref.size, colors, n, budget)
            require(orc.normalized_color_count(d.color) <= budget, "too many colours")
        size = _printed_size(res, hoa, bound, direction == "under")
        bad = orc.first_mismatch(d, ref.accepts, n)
        require(bad is None, f"disagrees with the input on {bad}")
        ok = orc.contained(d, ref) if direction == "under" else orc.contained(ref, d)
        require(ok, f"{direction}-approximation is not contained as required")
        return size

    return verify


def _read_report(res: Result) -> dict:
    require(res.report_text is not None, "no report written")
    return json.loads(res.report_text)


def verify_ltl_check(infile: str, f, n: int, bound: int):
    """Closed-form lasso counts and the verdict recomputed by the oracle."""

    def verify(res: Result) -> int:
        rep = _read_report(res)
        with open(infile) as fh:
            d = orc.read_hoa(fh.read()).dpa
        phi = formula_oracle(f, d.aps)
        require(rep["checked_equal"] == orc.lasso_count(d.letters, n), "equality lasso count")
        require(
            rep["checked_inclusion"]
            == orc.lasso_count_upto(d.letters, bound) - orc.lasso_count(d.letters, n),
            "inclusion lasso count",
        )
        ok = orc.first_mismatch(d, phi, n) is None and (
            orc.first_counterexample(d, phi, bound, "under") is None
        )
        require(rep["ok"] == ok and res.rc == (0 if ok else 1), f"verdict {rep['ok']}, oracle says {ok}")
        return 0

    return verify


def verify_ref_check(infile: str, ref_given, n: int):
    """Closed-form lasso counts, the exact path taken, and the verdict from
    the oracle's simulation and lockstep containment test."""

    def verify(res: Result) -> int:
        ref = _reference(ref_given)
        rep = _read_report(res)
        with open(infile) as fh:
            d = orc.read_hoa(fh.read()).dpa
        require(rep["exact_inclusion"], "exact product path not taken")
        require(rep["checked_equal"] == orc.lasso_count(d.letters, n), "equality lasso count")
        require(
            rep["checked_inclusion"]
            == orc.lasso_count_upto(d.letters, n) - orc.lasso_count(d.letters, n),
            "inclusion lasso count",
        )
        ok = orc.first_mismatch(d, ref.accepts, n) is None and orc.contained(d, ref)
        require(rep["ok"] == ok and res.rc == (0 if ok else 1), f"verdict {rep['ok']}, oracle says {ok}")
        return 0

    return verify


def witness_depth(t: Template, n: int, k: int, safety_witness: bool) -> int:
    """Containment depth that is exact for the template (see README):
    a counterexample lives in the product of the k-state witness with the
    neg_states-state automaton for the negation; with at most one
    non-safety side its shortest lasso has base at most k*neg_states,
    otherwise at most 3*k*neg_states - 3.  Never less than n*k + 1."""
    prod = k * t.neg_states
    exact = prod if (safety_witness or t.neg_safety) else 3 * prod - 3
    return max(exact, n * k + 1)


def verify_synth(t: Template, f, n: int, m: int, k_fixed: Optional[int], k_max: Optional[int]):
    """SAT: the witness has the claimed size, agrees at base n and is
    contained to an exact depth; UNSAT or a minimal k: the benchmark's own
    enumerator finds no automaton of that size (or one smaller)."""

    def verify(res: Result) -> int:
        letters = 1 << len(orc.atoms(f))
        aps = tuple(sorted(orc.atoms(f)))
        phi = formula_oracle(f, aps)
        sat = _SAT_LINE.search(res.stdout)
        if sat is None:
            require(res.rc == 1 and "UNSAT" in res.stdout, f"neither SAT nor UNSAT: {res.stdout!r}")
            # k states with some unreachable cover every smaller size too
            k = k_fixed if k_fixed is not None else k_max
            none = orc.find_precise(letters, phi, n, k, m, n * k)
            require(none is None, f"claimed UNSAT but {none} is precise")
            return 0
        require(res.rc == 0, f"exit code {res.rc}")
        k = int(sat.group(1))
        if k_fixed is not None:
            require(k == k_fixed, "witness size differs from the budget")
        elif k > 1:
            smaller = orc.find_precise(letters, phi, n, k - 1, m, n * (k - 1))
            require(smaller is None, f"k={k} claimed minimal but {smaller} is precise")
        hoa = _read_out(res)
        d = hoa.dpa
        require(d.aps == aps, "witness APs differ from the formula's")
        require(hoa.states == k == int(sat.group(2)), "witness state count")
        colors = orc.normalized_color_count(d.color)
        require(colors <= m and colors == int(sat.group(3)), "witness colours")
        bad = orc.first_mismatch(d, phi, n)
        require(bad is None, f"witness disagrees with the formula on {bad}")
        depth = witness_depth(t, n, k, set(d.color) == {0} or colors == 1)
        bad = orc.first_counterexample(d, phi, depth, "under")
        require(bad is None, f"witness accepts {bad} outside the language (depth {depth})")
        return hoa.states

    return verify


_FORMULA_ORACLES: dict = {}


def formula_oracle(f, aps: tuple) -> orc.FormulaOracle:
    """One memoised evaluator per (formula, AP order) for the whole run."""
    key = (f, aps)
    got = _FORMULA_ORACLES.get(key)
    if got is None:
        got = _FORMULA_ORACLES[key] = orc.FormulaOracle(f, aps)
    return got


# ---------------------------------------------------------------------------
# workloads


class OpList:
    """Collects the operations of a workload and writes its input files."""

    def __init__(self, lk, workdir: str, rng: random.Random):
        self.lk = lk
        self.workdir = workdir
        self.rng = rng
        self.ops: list = []
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:02d}-{stem}")

    def write_automaton(self, d: orc.Dpa, stem: str) -> str:
        a, amap = to_lassokit(self.lk, d)
        target = self.path(stem + ".hoa")
        with open(target, "w") as fh:
            fh.write(self.lk.write_hoa(a, ap_map=amap))
        return target

    def write_fixture(self, a, stem: str) -> str:
        target = self.path(stem + ".hoa")
        with open(target, "w") as fh:
            fh.write(self.lk.write_hoa(a))
        return target

    def ltl_approx(self, t: Template, n: int, direction: str, depth: int) -> tuple:
        f = seeded_formula(self.rng, t)
        out = self.path("approx.hoa")
        self.ops.append(Op(
            ["approximate", "--ltl", orc.render(f), "--bound", str(n), "--direction", direction, "--out", out],
            out=out,
            verify=verify_ltl_approx(f, n, direction, depth),
        ))
        return f, out

    def ltl_check(self, t: Template, n: int, bound: int) -> None:
        f, approx = self.ltl_approx(t, n, "under", bound)
        report = self.path("report.json")
        self.ops.append(Op(
            ["check", "--in", approx, "--ltl", orc.render(f), "--bound", str(n),
             "--inclusion-bound", str(bound), "--report", report],
            report=report,
            verify=verify_ltl_check(approx, f, n, bound),
        ))

    def hoa_approx(self, src: str, ref, n: int, target: str, direction: str) -> str:
        out = self.path("approx.hoa")
        self.ops.append(Op(
            ["approximate", "--in", src, "--bound", str(n), "--target", target,
             "--direction", direction, "--out", out],
            out=out,
            verify=verify_hoa_approx(ref, n, target, direction),
        ))
        return out

    def ref_check(self, src: str, ref, n: int) -> None:
        approx = self.hoa_approx(src, ref, n, "safety", "under")
        report = self.path("report.json")
        self.ops.append(Op(
            ["check", "--in", approx, "--ref", src, "--bound", str(n), "--report", report],
            report=report,
            verify=verify_ref_check(approx, ref, n),
        ))

    def synth(self, t: Template, n: int, m: int, k: Optional[int] = None, k_max: Optional[int] = None) -> None:
        f = seeded_formula(self.rng, t)
        out = self.path("witness.hoa")
        argv = ["synthesize", "--ltl", orc.render(f), "--bound", str(n), "--colors", str(m)]
        argv += ["--states", str(k)] if k is not None else ["--minimal", "--max-states", str(k_max)]
        self.ops.append(Op(argv + ["--out", out], out=out, verify=verify_synth(t, f, n, m, k, k_max)))


# colour multisets of the seeded automata (one entry per state)
BUCHI_8 = (2, 2, 2, 1, 1, 1, 1, 1)
BUCHI_10 = (2, 2, 2, 1, 1, 1, 1, 1, 1, 1)
PARITY_10 = (0, 0, 1, 1, 1, 2, 2, 3, 3, 3)


def build_check(b: OpList, tiny: bool) -> None:
    if tiny:
        b.ltl_check(GF, 2, 4)
        gf1 = b.write_fixture(b.lk.gf_one(), "gf1")
        b.ref_check(gf1, gf1, 2)
        return
    b.ltl_check(GF, 4, 10)
    b.ltl_check(FG, 4, 10)
    b.ltl_check(RESPONSE, 3, 6)
    b.ltl_check(UNTIL, 3, 6)
    b.ltl_check(STEP, 3, 6)
    gf1 = b.write_fixture(b.lk.gf_one(), "gf1")
    b.ref_check(gf1, gf1, 6)
    for i in range(2):
        d = random_dpa(b.rng, seeded_aps(b.rng, 2), BUCHI_8)
        b.ref_check(b.write_automaton(d, f"buchi{i}"), d, 4)


def build_approximate(b: OpList, tiny: bool) -> None:
    lk = b.lk
    if tiny:
        b.ltl_approx(RESPONSE, 2, "under", 3)
        fggf = b.write_fixture(lk.fg_gf_dpa()[0], "fg-gf")
        b.hoa_approx(fggf, fggf, 2, "parity:2", "under")
        return
    b.ltl_approx(RESPONSE, 5, "under", 6)
    b.ltl_approx(RESPONSE, 5, "over", 6)
    b.ltl_approx(UNTIL, 5, "under", 6)
    b.ltl_approx(GF, 8, "under", 10)
    b.ltl_approx(FG, 8, "over", 10)
    gf1 = b.write_fixture(lk.gf_one(), "gf1")
    fggf = b.write_fixture(lk.fg_gf_dpa()[0], "fg-gf")
    pairs = b.write_fixture(lk.fairness_pairs_safety()[0], "fairness-pairs")
    b.hoa_approx(gf1, gf1, 6, "safety", "under")
    b.hoa_approx(gf1, gf1, 6, "safety", "over")
    b.hoa_approx(gf1, gf1, 6, "parity:2", "over")
    b.hoa_approx(fggf, fggf, 6, "parity:2", "under")
    b.hoa_approx(fggf, fggf, 6, "parity:2", "over")
    b.hoa_approx(fggf, fggf, 6, "safety", "over")
    b.hoa_approx(pairs, pairs, 3, "safety", "under")
    for i in range(3):
        d = random_dpa(b.rng, seeded_aps(b.rng, 2), PARITY_10)
        src = b.write_automaton(d, f"parity{i}")
        b.hoa_approx(src, d, 4, "parity:2", "under")
        b.hoa_approx(src, d, 4, "parity:2", "over")
        b.hoa_approx(src, d, 4, "safety", "over")
    for i in range(2):
        d = random_dpa(b.rng, seeded_aps(b.rng, 2), BUCHI_10)
        b.hoa_approx(b.write_automaton(d, f"buchi{i}"), d, 4, "safety", "under")


def build_synth_expand(b: OpList, tiny: bool) -> None:
    if tiny:
        b.synth(FA, 2, 2, k=2)
        return
    b.synth(GF, 2, 2, k=3)
    b.synth(FA, 3, 2, k=2)
    b.synth(GF, 3, 1, k=2)
    b.synth(FA, 3, 2, k_max=3)
    b.synth(GF, 2, 2, k_max=3)


def build_synth_enum(b: OpList, tiny: bool) -> None:
    if tiny:
        b.synth(GF, 3, 1, k=3)
        return
    b.synth(GF, 3, 1, k=4)
    b.synth(GF, 3, 1, k=3)
    b.synth(FA, 4, 1, k=3)
    b.synth(GFGF, 4, 3, k=2)


WORKLOADS = {
    "check": build_check,
    "approximate": build_approximate,
    "synth-expand": build_synth_expand,
    "synth-enum": build_synth_enum,
}
