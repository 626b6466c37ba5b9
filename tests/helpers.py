"""Shared test utilities: an independent LTL oracle and seeded generators.

The naive evaluator here deliberately avoids the fixpoint-sweep scheme of
the library: it applies the quantifier semantics of each temporal
operator directly over the window [i, max(i, |stem|) + |loop|).  That
window is exact because the truth value of any future-time formula is
periodic past the stem, so one full period past stabilization decides
every unbounded quantifier: a true until must find its witness there, a
violated release its refutation, and so on.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Optional

from lassokit.core import (
    Alphabet,
    Lasso,
    MembershipOracle,
    ParityAutomaton,
    reachable_states,
)
from lassokit.lassolab import PrecisionReport, enumerate_bases
from lassokit.ltl import ApLetterMap, LtlFormula, atom
from lassokit import ltl


def naive_eval(f: LtlFormula, w: Lasso, m: ApLetterMap) -> bool:
    period = len(w.loop)
    stem_len = len(w.stem)

    def letter(i: int) -> str:
        if i < stem_len:
            return w.stem[i]
        return w.loop[(i - stem_len) % period]

    def window(i: int) -> range:
        # Truth values of any subformula repeat with the loop period once
        # past the stem, so one full period past stabilization is decisive.
        return range(i, max(i, stem_len) + period)

    memo: dict[tuple[int, int], bool] = {}

    def ev(g: LtlFormula, i: int) -> bool:
        key = (id(g), i)
        if key in memo:
            return memo[key]
        k = g.kind
        if k == "atom":
            out = m.truth(letter(i), g.name)
        elif k == "true":
            out = True
        elif k == "false":
            out = False
        elif k == "not":
            out = not ev(g.operands[0], i)
        elif k == "and":
            out = ev(g.operands[0], i) and ev(g.operands[1], i)
        elif k == "or":
            out = ev(g.operands[0], i) or ev(g.operands[1], i)
        elif k == "implies":
            out = (not ev(g.operands[0], i)) or ev(g.operands[1], i)
        elif k == "next":
            out = ev(g.operands[0], i + 1)
        elif k == "eventually":
            out = any(ev(g.operands[0], j) for j in window(i))
        elif k == "always":
            out = all(ev(g.operands[0], j) for j in window(i))
        elif k == "until":
            a, b = g.operands
            out = False
            for j in window(i):
                if ev(b, j):
                    out = True
                    break
                if not ev(a, j):
                    break
        elif k == "release":
            a, b = g.operands
            out = True
            for j in window(i):
                if not ev(b, j):
                    out = False
                    break
                if ev(a, j):
                    break
        else:
            raise AssertionError(k)
        memo[key] = out
        return out

    return ev(f, 0)


def naive_accepts(a: ParityAutomaton, w: Lasso) -> bool:
    """Membership of the lasso's word in L(a), without the library's
    product or SCC code.  Nodes are (position, state) pairs reachable from
    the initial states, where the position after the last base letter
    wraps to the loop start.  The word is accepted iff, for some even
    color c, a reachable node of color c gets back to itself through
    nodes of color <= c only: a cycle whose maximal color is c."""
    base = w.base
    wrap = len(w.stem)

    def step(node):
        i, q = node
        i2 = i + 1 if i + 1 < len(base) else wrap
        return [(i2, q2) for q2 in a.successors(q, base[i])]

    reach = {(0, q) for q in a.initial}
    todo = list(reach)
    while todo:
        for nxt in step(todo.pop()):
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)
    for node in reach:
        c = a.coloring[node[1]]
        if c % 2:
            continue
        seen = set()
        todo = [node]
        while todo:
            for nxt in step(todo.pop()):
                if a.coloring[nxt[1]] > c:
                    continue
                if nxt == node:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return False


_KINDS = (
    "atom", "atom", "not", "and", "or", "implies",
    "next", "eventually", "always", "until", "release",
)


def rand_formula(rng: random.Random, aps, budget: int) -> LtlFormula:
    """Random formula with at most ``budget`` nodes."""
    if budget <= 1:
        return atom(rng.choice(aps))
    kind = rng.choice(_KINDS)
    if kind == "atom":
        return atom(rng.choice(aps))
    if kind in ("not", "next", "eventually", "always"):
        inner = rand_formula(rng, aps, budget - 1)
        build = {
            "not": ltl.neg,
            "next": ltl.next_,
            "eventually": ltl.eventually,
            "always": ltl.always,
        }[kind]
        return build(inner)
    split = rng.randint(1, budget - 2) if budget > 2 else 1
    left = rand_formula(rng, aps, split)
    right = rand_formula(rng, aps, budget - 1 - split)
    build = {
        "and": ltl.conj,
        "or": ltl.disj,
        "implies": ltl.implies,
        "until": ltl.until,
        "release": ltl.release,
    }[kind]
    return build(left, right)


def rand_lasso(rng: random.Random, alphabet: Alphabet, max_stem=3, max_loop=3) -> Lasso:
    stem = tuple(
        rng.choice(alphabet.letters) for _ in range(rng.randint(0, max_stem))
    )
    loop = tuple(
        rng.choice(alphabet.letters) for _ in range(rng.randint(1, max_loop))
    )
    return Lasso(stem, loop)


def rand_automaton(
    rng: random.Random,
    alphabet: Alphabet,
    max_states=4,
    max_color=3,
    deterministic=False,
    density=0.8,
) -> ParityAutomaton:
    k = rng.randint(1, max_states)
    names = tuple(f"s{i}" for i in range(k))
    transitions = {}
    for q in names:
        for a in alphabet.letters:
            if rng.random() > density:
                continue
            if deterministic:
                targets = frozenset({rng.choice(names)})
            else:
                pick = [t for t in names if rng.random() < 0.5]
                if not pick:
                    pick = [rng.choice(names)]
                targets = frozenset(pick)
            transitions[(q, a)] = targets
    initial = frozenset({names[0]} if deterministic else
                        {t for t in names if rng.random() < 0.4} or {names[0]})
    coloring = {q: rng.randint(0, max_color) for q in names}
    return ParityAutomaton(
        alphabet=alphabet,
        states=names,
        initial=initial,
        transitions=transitions,
        coloring=coloring,
    )


def same_automaton(a: ParityAutomaton, b: ParityAutomaton) -> bool:
    """Field-wise comparison; the automaton class keeps identity equality."""
    return (
        a.alphabet == b.alphabet
        and a.states == b.states
        and a.initial == b.initial
        and a.transitions == b.transitions
        and a.coloring == b.coloring
    )


def reference_synthesis(
    f: LtlFormula,
    m: ApLetterMap,
    n: int,
    k: int,
    colors: int,
    inclusion_bound: Optional[int] = None,
) -> Optional[ParityAutomaton]:
    """Deterministic brute-force synthesis without the library's search.

    Tables are decoded from their index (cell 0 is the least significant
    base-(k+1) digit, k a missing edge) and taken in index order; a table
    counts only if breadth-first search from state 0 (letters in index
    order) numbers its states 0, 1, ... and the rows it never reaches are
    empty.  Colorings of the reached states follow itertools.product
    order, the other states get color 0.  A candidate is returned when
    ``naive_accepts`` matches ``naive_eval`` on every lasso of base n and
    ``ltl.violation`` finds no word of the candidate outside the formula.
    With ``inclusion_bound`` B, containment is instead checked on the
    lassos of base at most B only (``naive_accepts`` implies
    ``naive_eval``), as the library does behind a bare oracle.
    """
    alphabet = m.alphabet
    S = len(alphabet)
    lassos = [
        Lasso(word[:split], word[split:])
        for word in itertools.product(alphabet.letters, repeat=n)
        for split in range(n)
    ]
    wants = [naive_eval(f, w, m) for w in lassos]
    bounded = [
        (w, naive_eval(f, w, m))
        for length in range(1, (inclusion_bound or 0) + 1)
        for word in itertools.product(alphabet.letters, repeat=length)
        for w in (Lasso(word[:split], word[split:]) for split in range(length))
    ]
    names = [f"q{s}" for s in range(k)]
    for index in range((k + 1) ** (k * S)):
        table = []
        for _ in range(k * S):
            index, digit = divmod(index, k + 1)
            table.append(digit)
        order = [0]
        todo = deque(order)
        while todo:
            s = todo.popleft()
            for t in table[s * S : (s + 1) * S]:
                if t < k and t not in order:
                    order.append(t)
                    todo.append(t)
        reached = len(order)
        if order != list(range(reached)) or any(t < k for t in table[reached * S :]):
            continue
        transitions = {
            (names[s], alphabet[x]): frozenset({names[table[s * S + x]]})
            for s in range(k)
            for x in range(S)
            if table[s * S + x] < k
        }
        for coloring in itertools.product(range(colors), repeat=reached):
            a = ParityAutomaton(
                alphabet=alphabet,
                states=tuple(names),
                initial=frozenset({names[0]}),
                transitions=transitions,
                coloring=dict(zip(names, coloring + (0,) * (k - reached))),
            )
            if not all(naive_accepts(a, w) == want for w, want in zip(lassos, wants)):
                continue
            if inclusion_bound is None:
                if ltl.violation(a, f, m) is None:
                    return a
            elif all(want or not naive_accepts(a, w) for w, want in bounded):
                return a
    return None


def reference_precision(
    a: ParityAutomaton, in_language: MembershipOracle, n: int, bound: int
) -> PrecisionReport:
    """The bounded precision check by brute force, without the library's
    word scan or product: every lasso of base 1..bound from
    ``enumerate_bases``, membership in L(a) by ``naive_accepts`` and in the
    language by ``in_language`` (``naive_eval`` or ``naive_accepts`` of a
    reference).  Base-n lassos are compared, the others must not be
    accepted outside the language; both lists keep enumeration order."""
    out = PrecisionReport(n, bound)
    for length in range(1, bound + 1):
        for w in enumerate_bases(a.alphabet, length):
            got = naive_accepts(a, w)
            if length == n:
                out.checked_equal += 1
                want = in_language(w)
                if got != want:
                    out.mismatches.append((w, want, got))
            else:
                out.checked_inclusion += 1
                if got and not in_language(w):
                    out.inclusion_violations.append(w)
    return out


def in_omega(w: Lasso, k: int) -> bool:
    """Reference predicate for the blow-up family: exactly one 2, its
    trigger 1 exactly k letters earlier with at most k-1 letters before
    it, and only 1 afterwards."""
    c = w.canonical()
    if c.loop.count("2") or c.stem.count("2") != 1:
        return False
    t = c.stem.index("2")
    if t < k or t - k > k - 1 or c.stem[t - k] != "1":
        return False
    if any(x not in ("0", "1", "2") for x in c.base):
        return False
    span = len(c.stem) + len(c.loop)
    return all(c.letter(i) == "1" for i in range(t + 1, span))


def reference_safety(phi: MembershipOracle, alphabet: Alphabet, n: int) -> ParityAutomaton:
    """The two-phase safety construction of the paper, as first written:
    phase-two states are (word, loop pointers), names are built per edge.
    Kept as the reference whose language
    ``constructions.build_safety_lasso_precise`` must accept."""

    def p1_name(prefix: tuple[str, ...]) -> str:
        return "p1[%s]" % ",".join(prefix)

    def p2_name(word: tuple[str, ...], ts: tuple[Optional[int], ...]) -> str:
        marks = ",".join("-" if t is None else str(t) for t in ts)
        return "p2[%s;%s]" % (",".join(word), marks)

    def enter_phase2(word: tuple[str, ...]) -> tuple[Optional[int], ...]:
        out = []
        for i in range(1, n + 1):
            w = Lasso(word[: i - 1], word[i - 1 :])
            out.append(i if phi(w) else None)
        return tuple(out)

    transitions: dict[tuple[str, str], frozenset[str]] = {}
    coloring: dict[str, int] = {}
    states: list[str] = []
    seen: set[str] = set()

    def declare(name: str) -> None:
        if name not in seen:
            seen.add(name)
            states.append(name)
            coloring[name] = 0

    start = p1_name(())
    declare(start)
    todo: deque[tuple[str, tuple]] = deque([("p1", ())])
    visited: set[tuple] = {("p1", ())}
    while todo:
        kind, payload = todo.popleft()
        if kind == "p1":
            prefix = payload
            src = p1_name(prefix)
            for x in alphabet:
                word = prefix + (x,)
                if len(word) < n:
                    dst_key = ("p1", word)
                    dst = p1_name(word)
                else:
                    ts = enter_phase2(word)
                    dst_key = ("p2", (word, ts))
                    dst = p2_name(word, ts)
                declare(dst)
                transitions[(src, x)] = frozenset({dst})
                if dst_key not in visited:
                    visited.add(dst_key)
                    todo.append(dst_key)
        else:
            word, ts = payload
            src = p2_name(word, ts)
            if all(t is None for t in ts):
                continue
            for x in alphabet:
                nts = []
                for i, t in enumerate(ts, start=1):
                    if t is None or word[t - 1] != x:
                        nts.append(None)
                    elif t < n:
                        nts.append(t + 1)
                    else:
                        nts.append(i)
                nts_t = tuple(nts)
                dst = p2_name(word, nts_t)
                declare(dst)
                transitions[(src, x)] = frozenset({dst})
                key = ("p2", (word, nts_t))
                if key not in visited:
                    visited.add(key)
                    todo.append(key)

    return ParityAutomaton(
        alphabet, tuple(states), frozenset({start}), transitions, coloring
    )


def trim_safety(a: ParityAutomaton) -> ParityAutomaton:
    """The reachable states of a safety automaton from which some infinite
    run starts; a single edgeless state when there are none."""
    live = reachable_states(a)
    while True:
        keep = {
            q for q in live
            if any(t in live for x in a.alphabet for t in a.successors(q, x))
        }
        if keep == live:
            break
        live = keep
    if not a.initial & live:
        return ParityAutomaton(a.alphabet, ("void",), frozenset({"void"}), {}, {"void": 0})
    states = tuple(q for q in a.states if q in live)
    transitions = {
        (q, x): frozenset(t for t in a.successors(q, x) if t in live)
        for q in states
        for x in a.alphabet
    }
    return ParityAutomaton(
        a.alphabet, states, a.initial & live, transitions, dict.fromkeys(states, 0)
    )


def same_safety_language(a: ParityAutomaton, b: ParityAutomaton) -> bool:
    """Language equality of two deterministic safety automata, by walking
    both in lockstep after trimming: in a trimmed automaton every state
    accepts some word, so the languages differ iff some reachable pair of
    states disagrees on which letters have an edge."""
    a, b = trim_safety(a), trim_safety(b)
    start = (next(iter(a.initial)), next(iter(b.initial)))
    seen = {start}
    todo = [start]
    while todo:
        p, q = todo.pop()
        for x in a.alphabet:
            sp, sq = a.successors(p, x), b.successors(q, x)
            if bool(sp) != bool(sq):
                return False
            if sp:
                pair = (next(iter(sp)), next(iter(sq)))
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return True


def moore_size(a: ParityAutomaton) -> int:
    """State count of the minimal automaton equivalent to a trimmed
    deterministic safety automaton, by Moore refinement: from one block,
    split blocks by the blocks of their successors, a missing edge
    counting as a block of its own, until no block splits."""
    succ = {q: [next(iter(a.successors(q, x)), None) for x in a.alphabet] for q in a.states}
    block = dict.fromkeys(a.states, 0)
    count = 1
    while True:
        ids: dict = {}
        block = {
            q: ids.setdefault((block[q], *map(block.get, row)), len(ids))
            for q, row in succ.items()
        }
        if len(ids) == count:
            return count
        count = len(ids)
