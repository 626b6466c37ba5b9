"""Independent correctness oracle for the benchmark.

Nothing here imports lassokit.  The parts are:

* LTL formulas as plain tuples, rendered to the CLI's concrete syntax and
  evaluated on lassos by a naive quantifier walk (each temporal operator is
  decided by walking the positions the word can still reach, with no
  fixpoint iteration and no sharing with ``lassokit.ltl``);
* a reader for the HOA subset lassokit writes, and a simulator for
  deterministic state-coloured max-even parity automata;
* a lockstep exploration of two deterministic automata that decides
  language containment exactly;
* lasso enumeration, the closed-form lasso counts, the state-bound formulas
  of the constructions, and a small enumerator of deterministic automata
  used to confirm claimed UNSAT answers.

Letters are integers: bit i of a letter is the truth value of the i-th
atomic proposition of the automaton's ``AP:`` header, or, for raw
alphabets, the letter's index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# LTL formulas: ("ap", name), ("true",), ("false",), ("not", f),
# ("and"|"or"|"implies"|"U"|"R", f, g), ("X"|"F"|"G", f)

_BINARY_SYMBOL = {"and": "&", "or": "|", "implies": "->", "U": "U", "R": "R"}


def render(f) -> str:
    """Concrete syntax accepted by ``lassokit --ltl``; binary operators are
    always parenthesised so no precedence rule is relied on."""
    kind = f[0]
    if kind == "ap":
        return f[1]
    if kind == "true":
        return "1"
    if kind == "false":
        return "0"
    if kind == "not":
        return "!" + _render_operand(f[1])
    if kind in ("X", "F", "G"):
        return kind + " " + _render_operand(f[1])
    return "%s %s %s" % (
        _render_operand(f[1]),
        _BINARY_SYMBOL[kind],
        _render_operand(f[2]),
    )


def _render_operand(f) -> str:
    text = render(f)
    return "(" + text + ")" if f[0] in _BINARY_SYMBOL else text


def atoms(f) -> set:
    if f[0] == "ap":
        return {f[1]}
    out = set()
    for g in f[1:]:
        out |= atoms(g)
    return out


def holds(f, stem: tuple, loop: tuple, aps: tuple) -> bool:
    """Truth of ``f`` at position 0 of the word ``stem . loop^omega``.

    Positions 0..L-1 stand for the base letters; the successor of the last
    one is ``len(stem)``.  From position i the word reaches positions i..L-1
    and then the whole loop, so every unbounded operator is decided by one
    walk over ``_reach(i)``.
    """
    word = stem + loop
    size = len(word)
    wrap = len(stem)
    bit = {name: i for i, name in enumerate(aps)}
    memo: dict = {}

    def reach(i: int) -> list:
        return list(range(i, size)) + list(range(wrap, min(i, size)))

    def at(g, i: int) -> bool:
        key = (id(g), i)
        got = memo.get(key)
        if got is not None:
            return got
        kind = g[0]
        if kind == "ap":
            out = bool(word[i] >> bit[g[1]] & 1)
        elif kind == "true":
            out = True
        elif kind == "false":
            out = False
        elif kind == "not":
            out = not at(g[1], i)
        elif kind == "and":
            out = at(g[1], i) and at(g[2], i)
        elif kind == "or":
            out = at(g[1], i) or at(g[2], i)
        elif kind == "implies":
            out = (not at(g[1], i)) or at(g[2], i)
        elif kind == "X":
            out = at(g[1], i + 1 if i + 1 < size else wrap)
        elif kind == "F":
            out = any(at(g[1], j) for j in reach(i))
        elif kind == "G":
            out = all(at(g[1], j) for j in reach(i))
        elif kind == "U":
            out = False
            for j in reach(i):
                if at(g[2], j):
                    out = True
                    break
                if not at(g[1], j):
                    break
        elif kind == "R":
            out = True
            for j in reach(i):
                if not at(g[2], j):
                    out = False
                    break
                if at(g[1], j):
                    break
        else:
            raise ValueError(f"unknown formula kind {kind!r}")
        memo[key] = out
        return out

    return at(f, 0)


def canonical(stem: tuple, loop: tuple) -> tuple:
    """Shortest (stem, loop) of the same infinite word: primitive loop,
    then the stem's tail rotated into the loop while it matches."""
    p = len(loop)
    for d in range(1, p + 1):
        if p % d == 0 and loop == loop[:d] * (p // d):
            loop = loop[:d]
            break
    while stem and stem[-1] == loop[-1]:
        stem, loop = stem[:-1], (loop[-1],) + loop[:-1]
    return stem, loop


class FormulaOracle:
    """Memoised ``holds`` for one formula; lassos of the same word share
    one evaluation."""

    def __init__(self, f, aps: tuple):
        self.f = f
        self.aps = aps
        self.memo: dict = {}

    def __call__(self, stem: tuple, loop: tuple) -> bool:
        key = canonical(stem, loop)
        got = self.memo.get(key)
        if got is None:
            got = holds(self.f, key[0], key[1], self.aps)
            self.memo[key] = got
        return got


# ---------------------------------------------------------------------------
# deterministic automata


@dataclass
class Dpa:
    """Deterministic state-coloured max-even parity automaton.

    ``delta[q][x]`` is the successor of state q on letter x, or -1 where
    the run dies.  Safety automata colour every state 0.
    """

    letters: int
    start: int
    delta: list
    color: list
    aps: tuple = ()

    @property
    def size(self) -> int:
        return len(self.delta)

    def accepts(self, stem: tuple, loop: tuple) -> bool:
        q = self.delta_word(self.start, stem)
        if q < 0:
            return False
        return self.accepts_loop_from(q, loop)

    def delta_word(self, q: int, word) -> int:
        delta = self.delta
        for x in word:
            q = delta[q][x]
            if q < 0:
                return -1
        return q

    def accepts_loop_from(self, q: int, loop: tuple) -> bool:
        """Run ``loop`` forever from state q.  The run is periodic once a
        state repeats at a loop boundary; the colours met in the rounds of
        that period are the ones seen infinitely often."""
        delta, color = self.delta, self.color
        first_round: dict = {}
        round_max: list = []
        while q not in first_round:
            first_round[q] = len(round_max)
            top = -1
            for x in loop:
                if color[q] > top:
                    top = color[q]
                q = delta[q][x]
                if q < 0:
                    return False
            round_max.append(top)
        return max(round_max[first_round[q]:]) % 2 == 0


def completed(d: Dpa) -> Dpa:
    """Same language with every missing transition sent to an absorbing
    sink whose odd colour is above all others."""
    if all(q >= 0 for row in d.delta for q in row):
        return d
    sink = d.size
    top = max(d.color)
    sink_color = top + 1 if top % 2 == 0 else top
    delta = [[sink if q < 0 else q for q in row] for row in d.delta]
    delta.append([sink] * d.letters)
    return Dpa(d.letters, d.start, delta, list(d.color) + [sink_color], d.aps)


def contained(a: Dpa, b: Dpa) -> bool:
    """Exact test of L(a) <= L(b) by exploring reachable state pairs.

    A counterexample is a reachable cycle whose maximal a-colour is even
    and whose maximal b-colour is odd.  For a colour pair (ca, cb) such a
    cycle exists iff, among the pairs with colours at most (ca, cb), one
    strongly connected component with an edge holds a pair of a-colour ca
    and a pair of b-colour cb.
    """
    if a.letters != b.letters:
        raise ValueError("alphabets differ")
    b = completed(b)
    start = (a.start, b.start)
    succ: dict = {}
    todo = [start]
    succ[start] = None
    while todo:
        p, q = node = todo.pop()
        outs = []
        for x in range(a.letters):
            p2 = a.delta[p][x]
            if p2 < 0:
                continue
            nxt = (p2, b.delta[q][x])
            outs.append(nxt)
            if nxt not in succ:
                succ[nxt] = None
                todo.append(nxt)
        succ[node] = outs
    a_even = sorted({a.color[p] for p, _ in succ if a.color[p] % 2 == 0})
    b_odd = sorted({b.color[q] for _, q in succ if b.color[q] % 2 == 1})
    for ca in a_even:
        for cb in b_odd:
            allowed = {n for n in succ if a.color[n[0]] <= ca and b.color[n[1]] <= cb}
            for comp in _sccs(list(allowed), succ, allowed):
                members = set(comp)
                if not any(v in members for u in comp for v in succ[u]):
                    continue  # a single pair without a self-loop
                if any(a.color[u[0]] == ca for u in comp) and any(
                    b.color[u[1]] == cb for u in comp
                ):
                    return False
    return True


def _sccs(nodes: list, succ: dict, allowed: set) -> list:
    """Tarjan's algorithm, iterative, on the subgraph induced by ``allowed``."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            pushed = False
            for nxt in it:
                if nxt not in allowed:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    pushed = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack.discard(v)
                    comp.append(v)
                    if v == node:
                        break
                out.append(comp)
    return out


# ---------------------------------------------------------------------------
# HOA subset written by lassokit


@dataclass
class HoaFile:
    dpa: Dpa
    states: int  # from the States: header


def read_hoa(text: str) -> HoaFile:
    """Read a deterministic automaton in the HOA subset ``write_hoa`` emits:
    one ``Start:``, labels that are full AP minterms such as ``0&!1`` (or
    letter indices under an ``Alphabet:`` header), and state-based marks
    whose meaning the ``acc-name`` fixes."""
    header: dict = {}
    lines = [ln.strip() for ln in text.splitlines()]
    body = lines.index("--BODY--")
    for ln in lines[:body]:
        if not ln or ln.startswith("/*"):
            continue
        key, _, rest = ln.partition(":")
        if key in header:
            raise ValueError(f"repeated header {key!r}")
        header[key] = rest.strip()
    n_states = int(header["States"])
    start = int(header["Start"])
    aps: tuple = ()
    if "AP" in header:
        count, *names = header["AP"].split()
        aps = tuple(name.strip('"') for name in names)
        if len(aps) != int(count):
            raise ValueError("AP count mismatch")
        letters = 1 << len(aps)
    else:
        letters = int(header["Alphabet"].split()[0])
    acc = header["acc-name"]
    delta = [[-1] * letters for _ in range(n_states)]
    color = [0] * n_states
    state = None
    for ln in lines[body + 1 :]:
        if not ln or ln == "--END--":
            continue
        if ln.startswith("State:"):
            parts = ln.split()
            state = int(parts[1])
            mark = None
            if ln.endswith("}"):
                mark = int(ln[ln.rindex("{") + 1 : -1])
            if acc == "all":
                color[state] = 0
            elif acc == "Buchi":
                color[state] = 2 if mark == 0 else 1
            elif acc.startswith("parity max even "):
                if mark is None:
                    raise ValueError(f"state {state} carries no colour")
                color[state] = mark
            else:
                raise ValueError(f"unsupported acc-name {acc!r}")
            continue
        label, _, target = ln[1:].partition("]")
        x = _label_letter(label, aps)
        if delta[state][x] != -1:
            raise ValueError(f"state {state} is not deterministic")
        delta[state][x] = int(target)
    return HoaFile(Dpa(letters, start, delta, color, aps), n_states)


def _label_letter(label: str, aps: tuple) -> int:
    if not aps:
        return int(label)
    mask = 0
    seen = 0
    for lit in label.split("&"):
        neg = lit.startswith("!")
        i = int(lit[1:] if neg else lit)
        seen |= 1 << i
        if not neg:
            mask |= 1 << i
    if seen != (1 << len(aps)) - 1:
        raise ValueError(f"label {label!r} is not a full minterm")
    return mask


# ---------------------------------------------------------------------------
# lassos, counts and bounds


def lassos(letters: int, length: int):
    """Every (stem, loop) with base length exactly ``length``."""
    for word in itertools.product(range(letters), repeat=length):
        for split in range(length):
            yield word[:split], word[split:]


def lassos_upto(letters: int, depth: int):
    for length in range(1, depth + 1):
        yield from lassos(letters, length)


def lasso_count(letters: int, length: int) -> int:
    return letters**length * length


def lasso_count_upto(letters: int, depth: int) -> int:
    """Closed form sum_{l <= depth} |Sigma|^l * l."""
    return sum(lasso_count(letters, l) for l in range(1, depth + 1))


def normalized_color_count(colors) -> int:
    """Colours left after merging neighbours of equal parity, the form in
    which lassokit stores every colouring."""
    count, last = 0, None
    for c in sorted(set(colors)):
        if last is None or c % 2 != last:
            count += 1
            last = c % 2
    return count


def safety_bound(letters: int, n: int) -> int:
    """States of the two-phase oracle-to-safety construction at most:
    (|Sigma|+1)^n stored prefixes plus |Sigma|^n words times (n+1)^n
    pointer vectors."""
    return (letters + 1) ** n + letters**n * (n + 1) ** n


def counter_bound(dpa: Dpa, n: int) -> int:
    """Visit-counter construction: accepting states keep counter 0, the
    others carry a counter up to n * |Q \\ F|."""
    safety = set(dpa.color) == {0}
    f = dpa.size if safety else sum(1 for c in dpa.color if c == 2)
    rest = dpa.size - f
    return n * rest * rest + f


def color_bound(states: int, colors: int, n: int, budget: int) -> int:
    """Colour reduction: (n|Q| + 1) counter values, |Q| states and
    colors - budget + 2 tracked-colour marks."""
    return (n * states + 1) * states * (colors - budget + 2)


def over_bound(dpa: Dpa, n: int, budget: int) -> int:
    """Over-approximation: complete with a sink of colour 1, complement by
    shifting every colour up by one, reduce that complement to the budget
    when it has more colours, then complete and complement again (one more
    sink at most)."""
    complete = all(q >= 0 for row in dpa.delta for q in row)
    size = dpa.size + (0 if complete else 1)
    colors = set(dpa.color) | (set() if complete else {1})
    comp_colors = normalized_color_count(c + 1 for c in colors)
    if comp_colors > budget:
        inner = color_bound(size, comp_colors, n, budget)
    elif budget > 1 or comp_colors == 1:
        inner = size
    else:
        inner = 1
    return inner + 1


# ---------------------------------------------------------------------------
# small enumerator of deterministic automata


def find_precise(letters: int, formula, n: int, k: int, m: int, depth: int):
    """First deterministic automaton with k states (state 0 initial, partial
    transitions) and colours in 0..m-1 that agrees with ``formula`` on every
    lasso of base n and accepts no lasso of base up to ``depth`` outside
    it, or None.  Used to confirm UNSAT answers and minimal sizes, so it
    enumerates every table without symmetry pruning."""
    equal = [(s, l, formula(s, l)) for s, l in lassos(letters, n)]
    for table in itertools.product(range(-1, k), repeat=k * letters):
        delta = [list(table[q * letters : (q + 1) * letters]) for q in range(k)]
        for color in itertools.product(range(m), repeat=k):
            d = Dpa(letters, 0, delta, list(color))
            if all(d.accepts(s, l) == want for s, l, want in equal) and (
                first_counterexample(d, formula, depth, "under") is None
            ):
                return d
    return None


def first_counterexample(dpa: Dpa, formula, depth: int, direction: str):
    """A lasso of base at most ``depth`` on which ``dpa`` breaks the
    approximation direction ("under": accepted but outside the language;
    "over": in the language but rejected), or None."""
    for length in range(1, depth + 1):
        for word in itertools.product(range(dpa.letters), repeat=length):
            q = dpa.start
            states = [q]
            for x in word:
                q = dpa.delta[q][x] if q >= 0 else -1
                states.append(q)
            for split in range(length):
                q = states[split]
                got = q >= 0 and dpa.accepts_loop_from(q, word[split:])
                if direction == "under":
                    if got and not formula(word[:split], word[split:]):
                        return word[:split], word[split:]
                elif not got and formula(word[:split], word[split:]):
                    return word[:split], word[split:]
    return None


def first_mismatch(dpa: Dpa, reference, n: int):
    """A base-n lasso on which ``dpa`` and ``reference`` (a callable on
    (stem, loop)) disagree, or None."""
    for stem, loop in lassos(dpa.letters, n):
        if dpa.accepts(stem, loop) != reference(stem, loop):
            return stem, loop
    return None
