"""Core automaton model: parity automata over finite alphabets, lasso words,
acceptance checks, emptiness, complementation and the emptiness product
with generalized Buchi automata that decides containment.

Conventions used throughout the package:

* Acceptance is max-even parity: a run is accepting iff the highest color
  visited infinitely often is even.
* Transition functions may be partial.  A missing entry means the automaton
  rejects by killing the run; ``transitions`` never stores empty successor
  sets.
* Colors are normalized on construction to a gap-free range that starts at
  0 or 1, merging neighbouring colors of equal parity.  This keeps the
  color count equal to the size of the coloring image, so an automaton with
  image {1, 2} is a Buchi automaton and image {0} is a safety automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, Mapping, Optional, Sequence


class LassokitError(Exception):
    """Base class for all package errors."""


class InputError(LassokitError):
    """Malformed caller input: unknown letters, empty loops, bad bounds."""


class ContractViolation(LassokitError):
    """A documented precondition of an operation does not hold."""


class ParseError(LassokitError):
    """Rejected text input (LTL or automaton files); message carries position info."""


class ResourceLimit(LassokitError):
    """A configured search or expansion ceiling was exceeded."""


class SolverFailure(LassokitError):
    """An external solver misbehaved (crash, unparsable output)."""


# A membership oracle decides whether the infinite word induced by a lasso
# belongs to some fixed language.
MembershipOracle = Callable[["Lasso"], bool]


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet of distinct, non-empty letter names."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise InputError("alphabet must not be empty")
        if len(set(self.letters)) != len(self.letters):
            raise InputError("alphabet letters must be distinct")
        if any(not l for l in self.letters):
            raise InputError("alphabet letters must be non-empty strings")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __getitem__(self, i: int) -> str:
        return self.letters[i]

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise InputError(f"letter {letter!r} not in alphabet") from None


def _canonical_parts(stem: tuple, loop: tuple) -> tuple[tuple, tuple]:
    """Shrink loop to its primitive period, then retract the stem into it."""
    n = len(loop)
    for p in range(1, n + 1):
        if n % p == 0 and loop[:p] * (n // p) == loop:
            loop = loop[:p]
            break
    while stem and stem[-1] == loop[-1]:
        stem = stem[:-1]
        loop = loop[-1:] + loop[:-1]
    return stem, loop


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic word ``stem . loop^w`` given by finite letter tuples.

    The base is ``stem + loop`` and its length is the size of the lasso.
    The loop must be non-empty; the stem may be empty.
    """

    stem: tuple[str, ...]
    loop: tuple[str, ...]

    def __post_init__(self):
        if not self.loop:
            raise InputError("lasso loop must be non-empty")

    @property
    def base(self) -> tuple[str, ...]:
        return self.stem + self.loop

    @property
    def length(self) -> int:
        return len(self.stem) + len(self.loop)

    def letter(self, i: int) -> str:
        """Letter of the induced infinite word at position i >= 0."""
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]

    def prefix(self, k: int) -> tuple[str, ...]:
        return tuple(self.letter(i) for i in range(k))

    def canonical(self) -> "Lasso":
        """Shortest lasso denoting the same infinite word."""
        stem, loop = _canonical_parts(self.stem, self.loop)
        return Lasso(stem, loop)

    def __str__(self):
        return "(%s, %s)" % ("".join(self.stem), "".join(self.loop))


def lasso(stem: Sequence[str] | str, loop: Sequence[str] | str) -> Lasso:
    """Convenience constructor; strings are split into single-char letters."""
    return Lasso(tuple(stem), tuple(loop))


@dataclass(frozen=True)
class RunLasso:
    """A lasso-shaped run: one state per base position plus the loop start."""

    states: tuple[str, ...]
    loop_start: int

    def __post_init__(self):
        if not 0 <= self.loop_start < len(self.states):
            raise InputError("run loop start out of range")

    @property
    def loop_states(self) -> tuple[str, ...]:
        return self.states[self.loop_start:]


def _normalize_coloring(coloring: Mapping[str, int]) -> dict[str, int]:
    """Re-index colors to a contiguous block, merging same-parity neighbours.

    The relative order and the parity of every color are preserved, so the
    max-even acceptance condition is unchanged.  The lowest resulting color
    is 0 or 1 depending on the parity of the lowest input color group.
    """
    used = sorted(set(coloring.values()))
    remap: dict[int, int] = {}
    nxt = -1
    parity = None
    for c in used:
        if parity is None or c % 2 != parity:
            nxt = (c % 2) if nxt < 0 else nxt + 1
            parity = c % 2
        remap[c] = nxt
    return {q: remap[c] for q, c in coloring.items()}


@dataclass(frozen=True, eq=False)
class ParityAutomaton:
    """Nondeterministic parity automaton with max-even acceptance.

    ``transitions`` maps (state, letter) to a non-empty frozenset of
    successor states; absent keys denote rejection.  ``coloring`` is total
    over ``states`` and normalized on construction.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: frozenset[str]
    transitions: dict[tuple[str, str], frozenset[str]]
    coloring: dict[str, int]

    def __post_init__(self):
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise InputError("automaton states must be distinct")
        if not self.initial:
            raise InputError("automaton needs at least one initial state")
        if not self.initial <= state_set:
            raise InputError("initial states must be declared states")
        letters = set(self.alphabet.letters)
        cleaned: dict[tuple[str, str], frozenset[str]] = {}
        for key, targets in self.transitions.items():
            q, a = key
            if q not in state_set:
                raise InputError(f"transition from undeclared state {q!r}")
            if a not in letters:
                raise InputError(f"transition on unknown letter {a!r}")
            if type(targets) is not frozenset:
                targets = frozenset(targets)
            if not targets:
                continue
            if not targets <= state_set:
                raise InputError(f"transition from {q!r} to undeclared state")
            cleaned[key] = targets
        if set(self.coloring) != state_set:
            raise InputError("coloring must assign exactly the declared states")
        if min(self.coloring.values()) < 0:
            raise InputError("colors must be non-negative")
        object.__setattr__(self, "transitions", cleaned)
        object.__setattr__(self, "coloring", _normalize_coloring(self.coloring))

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.coloring.values())))

    @property
    def color_count(self) -> int:
        return len(set(self.coloring.values()))

    def successors(self, q: str, a: str) -> frozenset[str]:
        return self.transitions.get((q, a), frozenset())

    @cached_property
    def compiled(self) -> "CompiledAutomaton":
        """Integer view for acceptance queries, built on first use."""
        return _compile(self)


@dataclass(frozen=True)
class CompiledAutomaton:
    """Integer view of a parity automaton.

    Letters and states are numbered in declaration order.  A deterministic
    automaton gets a flat successor ``table``: the successor of state q on
    letter x sits at ``q * len(letter_index) + x``, and the sentinel
    ``len(colors)`` marks a dead cell.  A nondeterministic automaton gets
    ``moves`` instead, the sorted tuple of successors in the same layout,
    and its sorted initial states in ``starts``.
    """

    letter_index: Mapping[str, int]
    colors: tuple[int, ...]
    table: Optional[tuple[int, ...]]
    initial: Optional[int]
    moves: Optional[tuple[tuple[int, ...], ...]] = None
    starts: tuple[int, ...] = ()
    # 1 << color per state, for verdict runs; a field, as a cached_property
    # would give the view a __dict__ and slow every attribute read
    color_weights: tuple[int, ...] = ()

    def successor_sets(self) -> tuple[tuple[int, ...], Sequence[tuple[int, ...]]]:
        """Initial states and ``moves`` layout for either kind of view."""
        if self.table is None:
            return self.starts, self.moves
        dead = len(self.colors)
        return (self.initial,), [() if t == dead else (t,) for t in self.table]


def _compile(a: ParityAutomaton) -> CompiledAutomaton:
    letter_index = {x: i for i, x in enumerate(a.alphabet.letters)}
    state_index = {q: i for i, q in enumerate(a.states)}
    colors = tuple(a.coloring[q] for q in a.states)
    S = len(letter_index)
    if not is_deterministic(a):
        moves: list[tuple[int, ...]] = [()] * (len(colors) * S)
        for (q, x), targets in a.transitions.items():
            moves[state_index[q] * S + letter_index[x]] = tuple(
                sorted(map(state_index.__getitem__, targets))
            )
        starts = tuple(sorted(map(state_index.__getitem__, a.initial)))
        return CompiledAutomaton(letter_index, colors, None, None, tuple(moves), starts)
    table = [len(colors)] * (len(colors) * S)
    for (q, x), targets in a.transitions.items():
        (t,) = targets
        table[state_index[q] * S + letter_index[x]] = state_index[t]
    (q0,) = a.initial
    return CompiledAutomaton(
        letter_index, colors, tuple(table), state_index[q0],
        color_weights=tuple(1 << c for c in colors),
    )


@dataclass(frozen=True)
class BuchiTable:
    """Generalized Buchi automaton on integers, the right operand of the
    emptiness product (``product_lasso``).

    States are 0..len(marks)-1 and letter x is ``letters[x]``; the
    successors of state v on letter x are ``moves[v * len(letters) + x]``.
    Bit j of ``marks[v]`` puts v in acceptance set j, and a run accepts iff
    it meets each of the ``sets`` acceptance sets infinitely often; with no
    sets every infinite run accepts.
    """

    letters: tuple[str, ...]
    initial: tuple[int, ...]
    moves: tuple[tuple[int, ...], ...]
    marks: tuple[int, ...]
    sets: int


def _every_word(letters: Sequence[str]) -> BuchiTable:
    """One state that reads every letter: the product with it is the
    other side alone."""
    return BuchiTable(tuple(letters), (0,), ((0,),) * len(letters), (0,), 0)


def is_deterministic(a: ParityAutomaton) -> bool:
    """Single initial state and at most one successor per state and letter."""
    if len(a.initial) != 1:
        return False
    return set(map(len, a.transitions.values())) <= {1}


def is_complete(a: ParityAutomaton) -> bool:
    """Every state has at least one successor on every letter."""
    return all(map(a.transitions.__contains__, product(a.states, a.alphabet.letters)))


def is_buchi(a: ParityAutomaton) -> bool:
    return set(a.coloring.values()) <= {1, 2}


def is_safety(a: ParityAutomaton) -> bool:
    return set(a.coloring.values()) == {0}


def reachable_states(a: ParityAutomaton) -> set[str]:
    starts, moves = a.compiled.successor_sets()
    S = len(a.alphabet)
    pairs, _succ, _roots = _product_graph(
        starts, moves, S, range(S), _every_word(a.alphabet.letters)
    )
    return {a.states[q] for q, _v in pairs}


def _sccs(edges: Sequence[Optional[list[int]]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to dodge recursion limits, on the
    nodes v of 0..len(edges)-1 whose successor list ``edges[v]`` is not
    None.  Components come out in Tarjan's order, roots tried in index
    order."""
    n = len(edges)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    result: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0 or edges[root] is None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(edges[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(edges[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    result.append(comp)
    return result


def _accepting_sccs(
    succ: Sequence[list[tuple[int, int]]],
    colors: Sequence[int],
    marks: Optional[Sequence[int]] = None,
    full: int = 0,
) -> Iterator[tuple[int, list[int]]]:
    """Max-even cycle sweep over the nodes 0..len(succ)-1, where
    ``succ[v]`` lists the (letter, successor) pairs of v and ``colors[v]``
    is its color: for each even color c from the top downward, yield
    (c, component) for every SCC of the subgraph restricted to colors
    <= c that contains a color-c node, is non-trivial (more than one node,
    or a self-loop) and whose nodes' ``marks`` cover every bit of
    ``full``.  Each such component holds a closed walk through a color-c
    node and every acceptance set, and the graph has a cycle with even
    maximal color meeting every set iff some component is yielded."""
    if not colors:
        return
    top = max(colors)
    for c in range(top - top % 2, -1, -2):
        keep = [col <= c for col in colors]
        edges = [
            [w for _x, w in out if keep[w]] if keep[v] else None
            for v, out in enumerate(succ)
        ]
        for comp in _sccs(edges):
            if len(comp) == 1 and comp[0] not in edges[comp[0]]:
                continue
            if not any(colors[v] == c for v in comp):
                continue
            if full:
                seen = 0
                for v in comp:
                    seen |= marks[v]
                if seen & full != full:
                    continue
            yield c, comp


def accepts_lasso(a: ParityAutomaton, w: Lasso) -> bool:
    """Decide membership of the induced infinite word in L(a).

    Deterministic automata are simulated on their compiled table
    (``_det_recurring`` with color weights); nondeterministic ones go
    through the product graph (``accepts_by_product``).
    """
    view = a.compiled
    if view.table is None:
        return accepts_by_product(a, w)
    index = view.letter_index
    try:
        stem = [index[x] for x in w.stem]
        loop = [index[x] for x in w.loop]
    except KeyError as exc:
        raise InputError(
            f"lasso letter {exc.args[0]!r} not in automaton alphabet"
        ) from None
    table, weight, S, q = view.table, view.color_weights, len(index), view.initial
    for x in stem:
        q = table[q * S + x]
        if q == len(weight):
            return False
    return even_top(_det_recurring(table, weight, S, q, loop, {}, []))


def accepts_splits(a: ParityAutomaton, word: Sequence[int]) -> list[bool]:
    """Verdicts of ``a`` on every lasso with base ``word`` (letter indices):
    entry i is the verdict for stem ``word[:i]`` and loop ``word[i:]``."""
    view = a.compiled
    if view.table is None:
        starts, moves = view.successor_sets()
        tables = lasso_tables(a.alphabet.letters, word, range(len(word)))
        return nondet_split_verdicts(starts, view.colors, moves, tables)
    recurring = det_split_recurring(
        view.table, view.color_weights, len(view.letter_index), view.initial, word
    )
    if recurring is None:
        return [False] * len(word)
    # even_top of every split, inlined: a call per split costs a live
    # word about 5% more
    return [r.bit_length() % 2 == 1 for r in recurring]


# Deterministic acceptance on a flat successor table (see CompiledAutomaton):
# the successor of state q on letter x is table[q * S + x], and
# len(weight) is the dead cell.  One run ORs a positive per-state
# ``weight`` over the states that recur: color weights 1 << c give the
# verdict (``even_top``), and the brute-force synthesis scan passes state
# bits 1 << q instead, so that one run serves every coloring of a table.

def even_top(recurring: int) -> bool:
    """Whether an OR of color weights 1 << c is non-empty with an even
    top color: the verdict of a run whose recurring colors it holds."""
    return recurring.bit_length() % 2 == 1


def _det_recurring(table, weight, S: int, q: int, loop, entry: dict, rounds: list) -> int:
    """Simulate the loop one round at a time from entry state q until an
    entry state repeats; ``entry`` maps the entry states of the rounds in
    ``rounds`` (the OR of the weights of each round's states) to their
    round number.  Returns the OR over the recurring rounds, or 0 if the
    run dies."""
    dead = len(weight)
    while q not in entry:
        entry[q] = len(rounds)
        seen = 0
        for x in loop:
            seen |= weight[q]
            q = table[q * S + x]
            if q == dead:
                return 0
        rounds.append(seen)
    seen = 0
    for got in rounds[entry[q]:]:
        seen |= got
    return seen


def det_split_recurring(table, weight, S: int, q: int, word) -> Optional[list[int]]:
    """``_det_recurring`` for every split of ``word`` at once: entry i is
    the OR of ``weight`` over the states that the run from q visits
    infinitely often on the lasso with stem ``word[:i]``, or 0 if it dies
    in a later round.  None if it dies along the word, where every split
    dies: the scans meet many such words and answer them without a pass
    over the splits.  The run along the word is computed once: it is the
    stem plus the first loop round of every split, so each split only
    simulates its later rounds."""
    dead = len(weight)
    run = [q]
    for x in word:
        q = table[q * S + x]
        if q == dead:
            return None
        run.append(q)
    recurring = [0] * len(word)
    seen = 0
    for i in range(len(word) - 1, -1, -1):
        start = run[i]
        seen |= weight[start]
        if q == start:
            recurring[i] = seen
        else:
            recurring[i] = _det_recurring(table, weight, S, q, word[i:], {start: 0}, [seen])
    return recurring


def nondet_split_verdicts(starts, colors, moves, tables) -> list[bool]:
    """Verdicts of a parity automaton on integers (``product_lasso``'s
    layout) on the lassos ``tables`` (``lasso_tables`` over its letters):
    whether the product with each finds a witness, without building it."""
    return [
        _product_sweep(starts, colors, moves, range(len(b.letters)), b)[1] is not None
        for b in tables
    ]


def accepts_by_product(a: ParityAutomaton, w: Lasso) -> bool:
    """Generic acceptance: the product of ``a`` with the lasso's word
    accepts iff some run of ``a`` on the word is accepting."""
    view = a.compiled
    try:
        base = [view.letter_index[x] for x in w.base]
    except KeyError as exc:
        raise InputError(
            f"lasso letter {exc.args[0]!r} not in automaton alphabet"
        ) from None
    starts, moves = view.successor_sets()
    tables = lasso_tables(a.alphabet.letters, base, (len(w.stem),))
    return nondet_split_verdicts(starts, view.colors, moves, tables)[0]


def lasso_tables(letters: Sequence[str], base: Sequence[int], wraps) -> list[BuchiTable]:
    """The lasso with stem ``base[:wrap]`` and loop ``base[wrap:]``
    (letter indices into ``letters``) as a BuchiTable, for each wrap in
    ``wraps``: state i reads ``base[i]`` and moves on, the last state back
    to the wrap.  With no acceptance sets its one infinite run accepts, so
    the product with it accepts iff the other side accepts the lasso."""
    S = len(letters)
    n = len(base)
    steps = [()] * (n * S)
    for i in range(n - 1):
        steps[i * S + base[i]] = (i + 1,)
    tables = []
    for wrap in wraps:
        steps[(n - 1) * S + base[-1]] = (wrap,)
        tables.append(BuchiTable(tuple(letters), (0,), tuple(steps), (0,) * n, 0))
    return tables


def product_lasso(
    letters: Sequence[str],
    starts: Sequence[int],
    colors: Sequence[int],
    moves: Sequence[tuple[int, ...]],
    b: BuchiTable,
) -> Optional[Lasso]:
    """A canonical lasso accepted both by a parity automaton on integers
    and by ``b``, or None when the intersection is empty.

    The parity side has initial states ``starts``, state colors ``colors``
    and the successors of state q on its letter x, named ``letters[x]``,
    in ``moves[q * len(letters) + x]``; compiled views give this layout
    (``CompiledAutomaton.successor_sets``).  Letters of the two sides are
    matched by name.  Product states, and so the witness, follow
    declaration order, never set iteration order.
    """
    index = {x: i for i, x in enumerate(b.letters)}
    try:
        relabel = [index[x] for x in letters]
    except KeyError as exc:
        raise InputError(
            f"letter {exc.args[0]!r} missing from the product's Buchi side"
        ) from None
    _pairs, hit, graph = _product_sweep(starts, colors, moves, relabel, b)
    if hit is None:
        return None
    stem, loop = _witness_steps(hit, *graph)
    return Lasso(
        tuple(letters[x] for _v, x in stem), tuple(letters[x] for _v, x in loop)
    ).canonical()


def intersection_lasso(a: ParityAutomaton, b: BuchiTable) -> Optional[Lasso]:
    """``product_lasso`` for a parity automaton: a canonical lasso in
    L(a) and L(b), or None when they are disjoint."""
    view = a.compiled
    starts, moves = view.successor_sets()
    return product_lasso(a.alphabet.letters, starts, view.colors, moves, b)


def _product_graph(starts, moves, S: int, relabel, b: BuchiTable):
    """Reachable part of the product of a parity side on integers with
    ``b``, where the parity side's letter x is ``b``'s letter
    ``relabel[x]``: its state pairs, numbered in breadth-first order from
    the initial pairs, the labelled successor list [(letter, node), ...]
    of each, and the initial nodes.  The one product builder: acceptance,
    emptiness, reachability and containment all run on it."""
    T = len(b.letters)
    V = len(b.marks)
    number: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for q in starts:
        for v in b.initial:
            if q * V + v not in number:
                number[q * V + v] = len(pairs)
                pairs.append((q, v))
    roots = range(len(pairs))
    # the letters on which each state of b moves, with its successors
    b_moves = b.moves
    rows = [
        [(x, vs) for x in range(S) if (vs := b_moves[v * T + relabel[x]])]
        for v in range(V)
    ]
    succ: list[list[tuple[int, int]]] = []
    for q, v in pairs:
        out = []
        row_a = q * S
        for x, vs in rows[v]:
            for q2 in moves[row_a + x]:
                for v2 in vs:
                    key = q2 * V + v2
                    node = number.get(key)
                    if node is None:
                        node = number[key] = len(pairs)
                        pairs.append((q2, v2))
                    out.append((x, node))
        succ.append(out)
    return pairs, succ, roots


def _product_sweep(starts, colors, moves, relabel, b: BuchiTable):
    """The product's state pairs (``_product_graph``), the first component
    of its max-even sweep (``_accepting_sccs``), None when it accepts
    nothing, and the graph with node colors and marks that
    ``_witness_steps`` reads."""
    pairs, succ, roots = _product_graph(starts, moves, len(relabel), relabel, b)
    node_colors = [colors[q] for q, _v in pairs]
    full = (1 << b.sets) - 1
    marks = [b.marks[v] for _q, v in pairs] if full else None
    hit = next(_accepting_sccs(succ, node_colors, marks, full), None)
    return pairs, hit, (roots, succ, node_colors, marks, full)


def find_accepting_lasso(
    a: ParityAutomaton,
) -> Optional[tuple[RunLasso, Lasso]]:
    """Return an accepted lasso (run and word) of base length <= |a|, or None.

    The search is the product of ``a`` with the one-state table that
    reads every word, so product nodes are the states of ``a``, numbered
    breadth first in declaration order; the witness therefore does not
    depend on set iteration order (string hashing).  It takes a shortest
    path to an accepting simple cycle and is cut at the first cycle
    contact, so stem and loop states are disjoint.
    """
    view = a.compiled
    starts, moves = view.successor_sets()
    letters = a.alphabet.letters
    pairs, hit, graph = _product_sweep(
        starts, view.colors, moves, range(len(letters)), _every_word(letters)
    )
    if hit is None:
        return None
    stem, loop = _witness_steps(hit, *graph)
    run = RunLasso(tuple(a.states[pairs[v][0]] for v, _x in stem + loop), len(stem))
    return run, Lasso(
        tuple(letters[x] for _v, x in stem), tuple(letters[x] for _v, x in loop)
    )


def _witness_steps(hit, roots, succ, colors, marks, full: int):
    """Stem and loop, as [(node, letter), ...], of an accepting lasso
    through the component of ``hit`` (from ``_accepting_sccs``).

    The loop is a closed walk through the least color-c node of the
    component and, in turn, its least node of every acceptance set that
    is still missing; with no sets it is a simple cycle.  The stem is a
    shortest path to the first contact with the walk.  Product nodes are
    numbered breadth-first, so least means near the initial nodes."""
    c, comp = hit
    comp_set = set(comp)
    anchor = min(v for v in comp if colors[v] == c)
    stops = [anchor]
    seen = marks[anchor] if full else 0
    for j in range(full.bit_length()):
        if not seen >> j & 1:
            stop = min(v for v in comp if marks[v] >> j & 1)
            stops.append(stop)
            seen |= marks[stop]
    walk = []
    for src, dst in zip(stops, stops[1:] + [anchor]):
        walk += _leg(src, dst, comp_set, succ)
    stem_path = _path_to_cycle(roots, {s for s, _x in walk}, succ)
    entry = stem_path[-1][0]
    k = next(i for i, (s, _x) in enumerate(walk) if s == entry)
    return stem_path[:-1], walk[k:] + walk[:k]


def _leg(src, dst, comp_set, succ):
    """Shortest path of at least one step from src to dst inside comp_set,
    as [(state, letter), ...]; with dst == src, a simple cycle."""
    parent: dict[int, tuple[int, int]] = {}
    todo = deque()
    for x, q2 in succ[src]:
        if q2 not in comp_set:
            continue
        if q2 == dst:
            return [(src, x)]
        if q2 not in parent:
            parent[q2] = (src, x)
            todo.append(q2)
    while todo:
        q = todo.popleft()
        for x, q2 in succ[q]:
            if q2 not in comp_set:
                continue
            if q2 == dst:
                steps = [(q, x)]
                while q != src:
                    p, px = parent[q]
                    steps.append((p, px))
                    q = p
                steps.reverse()
                return steps
            if q2 not in parent:
                parent[q2] = (q, x)
                todo.append(q2)
    raise LassokitError("no path between two nodes of one SCC")


def _path_to_cycle(roots, cycle_states, succ):
    """Shortest path from an initial state to the first cycle contact."""
    for q0 in roots:
        if q0 in cycle_states:
            return [(q0, None)]
    parent: dict[int, tuple[int, int]] = {}
    todo = deque(roots)
    seen = set(roots)
    while todo:
        q = todo.popleft()
        for x, q2 in succ[q]:
            if q2 in seen:
                continue
            seen.add(q2)
            parent[q2] = (q, x)
            if q2 in cycle_states:
                path = [(q2, None)]
                while q2 in parent:
                    p, px = parent[q2]
                    path.append((p, px))
                    q2 = p
                path.reverse()
                return path
            todo.append(q2)
    raise LassokitError("cycle unreachable despite reachability analysis")


def is_empty(a: ParityAutomaton) -> bool:
    """True iff no infinite run from an initial state is accepting."""
    return find_accepting_lasso(a) is None


def complement(a: ParityAutomaton) -> ParityAutomaton:
    """Complement of a deterministic parity automaton, in one pass.

    Every color moves up by one, which flips the parity of the maximal
    recurring color.  Missing cells go to a fresh sink (named ``sink``,
    primed until the name is new) of color 2: a run that died in ``a``
    now stays in an accepting sink.  A complete automaton gets no sink.
    """
    if not is_deterministic(a):
        raise ContractViolation("complement requires a deterministic automaton")
    states = a.states
    letters = a.alphabet.letters
    coloring = {q: c + 1 for q, c in a.coloring.items()}
    to_sink = None
    # transitions are keyed by (state, letter) cells and never empty
    if len(a.transitions) < len(states) * len(letters):
        sink = "sink"
        while sink in coloring:
            sink += "'"
        states += (sink,)
        coloring[sink] = 2
        to_sink = frozenset((sink,))
    cells = product(states, letters)
    transitions = {key: a.transitions.get(key, to_sink) for key in cells}
    return ParityAutomaton(a.alphabet, states, a.initial, transitions, coloring)


def check_inclusion_exact(
    s: ParityAutomaton, ref: ParityAutomaton
) -> tuple[bool, Optional[Lasso]]:
    """Exact test of L(s) <= L(ref) for safety s against deterministic ref.

    Implemented as emptiness of one product (``intersection_lasso``) of
    ``complement(ref)`` with s as a Buchi table whose states all accept.
    On failure the canonical witness lies in L(s) but not in L(ref).
    """
    if not is_deterministic(ref):
        raise ContractViolation("inclusion reference must be deterministic")
    if not is_safety(s):
        raise ContractViolation("included automaton must be a safety automaton")
    if s.alphabet.letters != ref.alphabet.letters:
        raise InputError("inclusion requires identical alphabets")
    starts, moves = s.compiled.successor_sets()
    safe = BuchiTable(s.alphabet.letters, starts, tuple(moves), (0,) * s.size, 0)
    word = intersection_lasso(complement(ref), safe)
    return word is None, word
