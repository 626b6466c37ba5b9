"""Constructions that trade acceptance strength for lasso precision.

Each construction returns an automaton whose language is contained in the
input language while agreeing with it on all lassos up to the requested
base length n.  Over-approximation is obtained by sandwiching an
under-approximation between two complementations.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Union

from .core import (
    Alphabet,
    ContractViolation,
    InputError,
    Lasso,
    MembershipOracle,
    ParityAutomaton,
    _canonical_parts,
    complement,
    is_buchi,
    is_deterministic,
    is_safety,
)


def safety_state_bound(alphabet_size: int, n: int) -> int:
    """Worst-case state count of the two-phase safety construction."""
    return (alphabet_size + 1) ** n + alphabet_size**n * (n + 1) ** n


def counter_state_bound(a: ParityAutomaton, n: int) -> int:
    """Worst-case state count of the visit-counter construction."""
    f = len(_accepting_states(a))
    rest = a.size - f
    return n * rest * rest + f


def color_reduction_state_bound(a: ParityAutomaton, n: int, m_prime: int) -> int:
    """Worst-case state count of the color-reduction construction."""
    return (n * a.size + 1) * a.size * (a.color_count - m_prime + 2)


def _letter_tokens(alphabet: Alphabet) -> tuple[str, ...]:
    """How each letter is spelled inside a state name.

    Names join letters with commas and loops with ``|``.  When no letter
    plus a separator is a prefix of another letter plus a separator, a
    name splits into letters and loops one way only, so letters keep their
    own names; otherwise (say ``a`` and ``a,a``, or ``a`` and ``a|b``)
    they are spelled by their index.
    """
    # In sorted order a code that prefixes another prefixes its successor.
    codes = sorted(x + sep for x in alphabet for sep in ",|")
    if any(d.startswith(c) for c, d in zip(codes, codes[1:])):
        return tuple(str(i) for i in range(len(alphabet)))
    return alphabet.letters


def build_safety_lasso_precise(
    phi: MembershipOracle, alphabet: Alphabet, n: int
) -> ParityAutomaton:
    """Minimal deterministic safety automaton that is n-lasso-precise for
    ``phi``.

    Phase one reads the first n letters.  For the word w read, the oracle
    is asked, once per split k < n, whether the lasso ``(w[:k], w[k:])``
    belongs to the language.  From then on a run can only follow one of
    the periodic words ``w[k:]^ω`` of an accepted split, so a phase-two
    state is the set of their primitive roots, each rotated to the letter
    it expects next: on letter x the set keeps the loops that start with
    x, rotated by one.  That set spells out the state's residual language,
    so distinct sets are distinct languages; an empty set is a missing
    edge.  Phase one is hash-consed bottom-up on rows of successor ids, in
    one table that starts out holding the phase-two rows, and a prefix
    whose successors are all missing is itself missing.  Every state thus
    accepts its own non-empty language and the result is the minimal
    deterministic automaton of the approximation.  When the approximation
    is empty, that is one state without edges.

    States are numbered breadth first from the initial state, in letter
    order.  A phase-one state is named by the first prefix that reaches it
    (``p1[a,b]``), a phase-two state by its sorted loops (``p2[a,b|b]``).
    Loops and rows are keyed by letter indices, so the output does not
    depend on string hashing.
    """
    if n < 1:
        raise InputError("precision bound must be positive")
    letters = alphabet.letters
    S = len(letters)

    # Loops are interned one rotation class at a time: loop l starts with
    # letter first[l] and turns into loop turn[l] once that letter is read.
    loops: list[tuple[int, ...]] = []
    loop_id: dict[tuple[int, ...], int] = {}
    first: list[int] = []
    turn: list[int] = []

    def intern(v: tuple[int, ...]) -> int:
        got = loop_id.get(v)
        if got is None:
            got, m = len(loops), len(v)
            for i in range(m):
                r = v[i:] + v[:i]
                loop_id[r] = got + i
                loops.append(r)
                first.append(r[0])
                turn.append(got + (i + 1) % m)
        return got

    # Phase two: one id per non-empty loop set, -1 for the empty one.
    sets: list[frozenset[int]] = []
    set_id: dict[frozenset[int], int] = {}

    def state_of(key: frozenset[int]) -> int:
        if not key:
            return -1
        got = set_id.get(key)
        if got is None:
            got = set_id[key] = len(sets)
            sets.append(key)
        return got

    suffix_loop: dict[tuple[int, ...], int] = {}  # raw loop -> interned id

    def loop_of(v: tuple[int, ...]) -> int:
        got = suffix_loop.get(v)
        if got is None:
            got = suffix_loop[v] = intern(_canonical_parts((), v)[1])
        return got

    level = []  # ids of the words of length n, in lexicographic order
    for w in product(range(S), repeat=n):
        word = tuple(map(letters.__getitem__, w))
        level.append(state_of(frozenset(
            loop_of(w[k:])
            for k in range(n)
            if phi(Lasso(word[:k], word[k:]))
        )))
    rows: list[tuple[int, ...]] = []  # successor id per letter, by state id
    for key in sets:  # grows while phase-two successors are met
        moves: list[list[int]] = [[] for _ in range(S)]
        for l in key:
            moves[first[l]].append(turn[l])
        rows.append(tuple(state_of(frozenset(m)) for m in moves))
    phase_two = len(sets)

    # Phase one, from depth n-1 up to the empty prefix.
    row_id = {row: q for q, row in enumerate(rows)}
    for _depth in range(n):
        up = []
        for j in range(0, len(level), S):
            row = tuple(level[j : j + S])
            if max(row) < 0:
                up.append(-1)
                continue
            q = row_id.get(row)
            if q is None:
                q = row_id[row] = len(rows)
                rows.append(row)
            up.append(q)
        level = up
    (start,) = level
    if start < 0:
        return ParityAutomaton(alphabet, ("p1[]",), frozenset({"p1[]"}), {}, {"p1[]": 0})

    spell = _letter_tokens(alphabet)
    prefix = {start: ()}
    order = [start]
    for q in order:  # breadth first; order grows as states are met
        for x, t in enumerate(rows[q]):
            if t >= 0 and t not in prefix:
                prefix[t] = prefix[q] + (x,)
                order.append(t)
    name = {}
    for q in order:
        if q < phase_two:
            body = "|".join(
                ",".join(map(spell.__getitem__, v))
                for v in sorted(map(loops.__getitem__, sets[q]))
            )
            name[q] = "p2[%s]" % body
        else:
            name[q] = "p1[%s]" % ",".join(map(spell.__getitem__, prefix[q]))
    target = {q: frozenset((name[q],)) for q in order}
    transitions = {
        (name[q], letters[x]): target[t]
        for q in order
        for x, t in enumerate(rows[q])
        if t >= 0
    }
    states = tuple(map(name.__getitem__, order))
    out = ParityAutomaton(
        alphabet, states, target[start], transitions, dict.fromkeys(states, 0)
    )
    assert out.size <= safety_state_bound(len(alphabet), n)
    return out


def _accepting_states(a: ParityAutomaton) -> set[str]:
    # Buchi inputs mark color-2 states; a safety automaton behaves like a
    # Buchi automaton whose states are all accepting.
    if is_safety(a):
        return set(a.states)
    return {q for q, c in a.coloring.items() if c == 2}


def buechi_to_safety(a: ParityAutomaton, n: int) -> ParityAutomaton:
    """Safety automaton n-lasso-precise for a Buchi (or safety) input.

    Counts steps since the last visit to an accepting state; a run dies
    when the count would exceed n times the number of non-accepting states.
    Determinism is preserved.
    """
    if not (is_buchi(a) or is_safety(a)):
        raise ContractViolation("input must be a Buchi or safety automaton")
    if n < 1:
        raise InputError("precision bound must be positive")
    in_f = _accepting_states(a)
    bound = n * (a.size - len(in_f))

    def name(q: str, c: int) -> str:
        return f"({q},{c})"

    initial = {(q, 0 if q in in_f else 1) for q in a.initial}
    transitions: dict[tuple[str, str], frozenset[str]] = {}
    seen = set(initial)
    todo = deque(initial)
    while todo:
        q, c = todo.popleft()
        for x in a.alphabet:
            targets = set()
            for q2 in a.successors(q, x):
                if q2 in in_f:
                    targets.add((q2, 0))
                elif c + 1 <= bound:
                    targets.add((q2, c + 1))
            if not targets:
                continue
            transitions[(name(q, c), x)] = frozenset(name(*t) for t in targets)
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    states = tuple(sorted(name(q, c) for q, c in seen))
    out = ParityAutomaton(
        a.alphabet,
        states,
        frozenset(name(q, c) for q, c in initial),
        transitions,
        {name(q, c): 0 for q, c in seen},
    )
    assert out.size <= counter_state_bound(a, n)
    return out


def reduce_parity_colors(a: ParityAutomaton, n: int, m_prime: int) -> ParityAutomaton:
    """n-lasso-precise reduction of a deterministic parity automaton to at
    most ``m_prime`` colors.

    After skipping n*|Q| steps the construction tracks the highest color at
    or above the elimination threshold, resetting a step counter whenever
    the tracked color reappears and killing the run when the counter would
    reach n*|Q| (the tracked color went stale).  Runs that never see an
    eliminated color fall through to the original coloring.  For
    ``m_prime = 1`` the output must be safety, so a stale *odd* tracked
    color is not refreshed by mere reappearance; only a strictly higher
    color rescues the run.
    """
    if not is_deterministic(a):
        raise ContractViolation("color reduction requires a deterministic automaton")
    if n < 1:
        raise InputError("precision bound must be positive")
    m = a.color_count
    if not 0 < m_prime < m:
        raise ContractViolation(
            f"color budget must satisfy 0 < m_prime < {m}, got {m_prime}"
        )
    palette = a.colors
    lo, hi = palette[0], palette[-1]
    assert palette == tuple(range(lo, hi + 1)), "constructor guarantees gap-free colors"
    thr = lo + m_prime  # colors >= thr are eliminated, colors < thr survive
    limit = n * a.size
    kill_odd = m_prime == 1
    pinned_live = m_prime > 1 or lo % 2 == 0
    kept_even = max((c for c in range(lo, thr) if c % 2 == 0), default=0)
    kept_odd = max((c for c in range(lo, thr) if c % 2 == 1), default=1)

    # nodes carry state indices into the compiled table
    view = a.compiled
    table, colors = view.table, view.colors
    dead = len(colors)
    letters = a.alphabet.letters
    S = len(letters)

    def color_of(kind: str, q: int, h: int) -> int:
        if m_prime == 1:
            return 0
        if kind == "p1" or h == -1:
            return lo if kind != "pin" else colors[q]
        return kept_even if h % 2 == 0 else kept_odd

    def name(node: tuple) -> str:
        kind, q, c, h = node
        if kind == "p1":
            return f"skip[{a.states[q]},{c}]"
        mark = "-" if h == -1 else str(h)
        return f"track[{a.states[q]},{c},{mark}]"

    start = ("p1", view.initial, 0, -1)
    # each node's name, as a one-element target set, from when it is met
    target = {start: frozenset({name(start)})}
    todo = deque([start])
    transitions: dict[tuple[str, str], frozenset[str]] = {}
    coloring: dict[str, int] = {}
    while todo:
        node = todo.popleft()
        (src,) = target[node]
        kind, q, c, h = node
        for x, letter in enumerate(letters):
            q2 = table[q * S + x]
            if q2 == dead:
                continue
            mu2 = colors[q2]
            if kind == "p1":
                if c < limit - 1:
                    dst = ("p1", q2, c + 1, -1)
                else:
                    dst = ("t", q2, 0, mu2 if mu2 >= thr else -1)
            elif h == -1:
                if c == limit:  # pinned: no eliminated color showed up in time
                    if not pinned_live or mu2 >= thr:
                        continue
                    dst = ("t", q2, limit, -1)
                elif mu2 >= thr:
                    dst = ("t", q2, 0, mu2)
                else:
                    dst = ("t", q2, c + 1, -1)
            else:
                if mu2 >= thr and mu2 > h:
                    dst = ("t", q2, 0, mu2)
                elif mu2 == h and not (kill_odd and h % 2 == 1):
                    dst = ("t", q2, 0, h)
                else:
                    if c + 1 >= limit:
                        continue  # tracked color went stale: reject
                    dst = ("t", q2, c + 1, h)
            got = target.get(dst)
            if got is None:
                got = target[dst] = frozenset({name(dst)})
                todo.append(dst)
            transitions[(src, letter)] = got

    for node, (label,) in target.items():  # in the order nodes were met
        kind, q, c, h = node
        node_kind = kind if not (kind == "t" and h == -1 and c == limit) else "pin"
        coloring[label] = color_of(node_kind, q, h)
    out = ParityAutomaton(
        a.alphabet,
        tuple(coloring),
        target[start],
        transitions,
        coloring,
    )
    assert out.size <= color_reduction_state_bound(a, n, m_prime)
    assert out.color_count <= m_prime
    return out


def drop_one_color(a: ParityAutomaton, n: int) -> ParityAutomaton:
    """Shed the highest color class while staying n-lasso-precise."""
    if a.color_count < 2:
        raise ContractViolation("need at least two colors to drop one")
    return reduce_parity_colors(a, n, a.color_count - 1)


def _empty_safety(alphabet: Alphabet) -> ParityAutomaton:
    return ParityAutomaton(alphabet, ("void",), frozenset({"void"}), {}, {"void": 0})


def overapproximate(
    a: ParityAutomaton, n: int, mode: Union[str, int] = "safety"
) -> ParityAutomaton:
    """n-lasso-precise over-approximation: complement, under-approximate,
    complement again.  ``mode`` is "safety" or a color budget (an int)."""
    if mode == "safety":
        budget = 1
    elif isinstance(mode, int):
        budget = mode
    else:
        raise InputError(f"unknown mode {mode!r}; use 'safety' or a color budget")
    if budget < 1:
        raise InputError("color budget must be positive")
    if not is_deterministic(a):
        raise ContractViolation("over-approximation requires a deterministic automaton")
    comp = complement(a)
    if comp.color_count <= budget:
        inner = comp if budget > 1 or is_safety(comp) else _empty_safety(comp.alphabet)
    else:
        inner = reduce_parity_colors(comp, n, budget)
    return complement(inner)
