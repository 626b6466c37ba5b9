"""LTL over finite AP sets: parsing, printing, and exact evaluation on lassos.

Letters of the induced alphabet are AP subsets; ``ApLetterMap`` fixes the
bijection between letter names and subsets so automata and formulas can be
compared over the same alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import (
    Alphabet,
    BuchiTable,
    InputError,
    Lasso,
    MembershipOracle,
    ParityAutomaton,
    ParseError,
    intersection_lasso,
)

_UNARY = ("not", "next", "eventually", "always")
_BINARY = ("and", "or", "implies", "until", "release")
_LEAVES = ("atom", "true", "false")


@dataclass(frozen=True)
class LtlFormula:
    """Immutable syntax tree; ``name`` is only used by atoms."""

    kind: str
    operands: tuple["LtlFormula", ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.kind not in _UNARY + _BINARY + _LEAVES:
            raise InputError(f"unknown formula kind {self.kind!r}")
        arity = {**{k: 1 for k in _UNARY}, **{k: 2 for k in _BINARY}}
        if len(self.operands) != arity.get(self.kind, 0):
            raise InputError(f"wrong operand count for {self.kind}")
        if self.kind == "atom" and not self.name:
            raise InputError("atom needs a name")

    @property
    def size(self) -> int:
        return 1 + sum(g.size for g in self.operands)

    @cached_property
    def _programs(self) -> dict[tuple[str, ...], tuple]:
        """Compiled evaluation steps of this formula, one list per AP tuple,
        filled by ``_program`` on first use."""
        return {}

    @cached_property
    def _tableaux(self) -> dict[tuple["ApLetterMap", bool], BuchiTable]:
        """Buchi tables of this formula and of its negation, one per letter
        map, filled by ``tableau`` on first use."""
        return {}

    def atoms(self) -> frozenset[str]:
        if self.kind == "atom":
            return frozenset({self.name})
        out: frozenset[str] = frozenset()
        for g in self.operands:
            out |= g.atoms()
        return out

    def __str__(self):
        return format_ltl(self)


def atom(name: str) -> LtlFormula:
    return LtlFormula("atom", name=name)


def true() -> LtlFormula:
    return LtlFormula("true")


def false() -> LtlFormula:
    return LtlFormula("false")


def neg(f: LtlFormula) -> LtlFormula:
    return LtlFormula("not", (f,))


def conj(f: LtlFormula, g: LtlFormula) -> LtlFormula:
    return LtlFormula("and", (f, g))


def disj(f: LtlFormula, g: LtlFormula) -> LtlFormula:
    return LtlFormula("or", (f, g))


def implies(f: LtlFormula, g: LtlFormula) -> LtlFormula:
    return LtlFormula("implies", (f, g))


def next_(f: LtlFormula) -> LtlFormula:
    return LtlFormula("next", (f,))


def eventually(f: LtlFormula) -> LtlFormula:
    return LtlFormula("eventually", (f,))


def always(f: LtlFormula) -> LtlFormula:
    return LtlFormula("always", (f,))


def until(f: LtlFormula, g: LtlFormula) -> LtlFormula:
    return LtlFormula("until", (f, g))


def release(f: LtlFormula, g: LtlFormula) -> LtlFormula:
    return LtlFormula("release", (f, g))


# ---------------------------------------------------------------------------
# letters as AP subsets


def _subset_name(aps: Sequence[str], mask: int) -> str:
    inside = [p for i, p in enumerate(aps) if mask >> i & 1]
    return "{%s}" % ",".join(inside)


@dataclass(frozen=True)
class ApLetterMap:
    """Bijection between letter names and AP subsets.

    ``letters[mask]`` names the subset where bit i of ``mask`` selects
    ``aps[i]``.  The default naming spells the subset out, e.g. ``{p,q}``.
    """

    aps: tuple[str, ...]
    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.aps:
            raise InputError("at least one atomic proposition required")
        if len(self.aps) > 12:
            raise InputError("AP set too large for an explicit alphabet")
        if len(set(self.aps)) != len(self.aps):
            raise InputError("atomic propositions must be distinct")
        if len(self.letters) != 1 << len(self.aps):
            raise InputError("need one letter per AP subset")
        if len(set(self.letters)) != len(self.letters):
            raise InputError("letter names must be distinct")

    @classmethod
    def from_aps(cls, aps: Iterable[str], sort: bool = True) -> "ApLetterMap":
        ap_list = sorted(aps) if sort else list(aps)
        names = tuple(_subset_name(ap_list, m) for m in range(1 << len(ap_list)))
        return cls(tuple(ap_list), names)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.letters)

    @cached_property
    def _masks(self) -> dict[str, int]:
        return {x: mask for mask, x in enumerate(self.letters)}

    def mask_of(self, letter: str) -> int:
        try:
            return self._masks[letter]
        except KeyError:
            raise InputError(f"letter {letter!r} not in AP alphabet") from None

    def truth(self, letter: str, ap: str) -> bool:
        if ap not in self.aps:
            raise InputError(f"unknown atomic proposition {ap!r}")
        return bool(self.mask_of(letter) >> self.aps.index(ap) & 1)

    def aps_of(self, letter: str) -> frozenset[str]:
        mask = self.mask_of(letter)
        return frozenset(p for i, p in enumerate(self.aps) if mask >> i & 1)

    def letter_of(self, subset: Iterable[str]) -> str:
        mask = 0
        for p in subset:
            if p not in self.aps:
                raise InputError(f"unknown atomic proposition {p!r}")
            mask |= 1 << self.aps.index(p)
        return self.letters[mask]


# ---------------------------------------------------------------------------
# parser

_OPS = {"X": "next", "F": "eventually", "G": "always"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if text.startswith("->", i):
                self.items.append(("ARROW", "->", i))
                i += 2
                continue
            if ch in "|&!()":
                self.items.append((ch, ch, i))
                i += 1
                continue
            if ch in "01":
                self.items.append(("CONST", ch, i))
                i += 1
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word in ("X", "F", "G", "U", "R"):
                    self.items.append((word, word, i))
                else:
                    self.items.append(("IDENT", word, i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r} at position {i}")
        self.pos = 0

    def peek(self) -> str:
        return self.items[self.pos][0] if self.pos < len(self.items) else "END"

    def take(self) -> tuple[str, str, int]:
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of formula at position {len(self.text)}")
        item = self.items[self.pos]
        self.pos += 1
        return item


def parse_ltl(text: str, aps: Optional[Iterable[str]] = None) -> LtlFormula:
    """Parse LTL text over the declared atomic propositions.

    Precedence, loosest first: ``->`` (right assoc.), ``|``, ``&``,
    ``U``/``R`` (right assoc.), then the unary operators.  ``1`` and ``0``
    denote true and false.  With ``aps=None`` every identifier is accepted
    as an atom; callers can then read the alphabet off ``atoms()``.
    """
    declared = None if aps is None else set(aps)
    toks = _Tokens(text)

    def p_implies() -> LtlFormula:
        left = p_or()
        if toks.peek() == "ARROW":
            toks.take()
            return implies(left, p_implies())
        return left

    def p_or() -> LtlFormula:
        left = p_and()
        while toks.peek() == "|":
            toks.take()
            left = disj(left, p_and())
        return left

    def p_and() -> LtlFormula:
        left = p_until()
        while toks.peek() == "&":
            toks.take()
            left = conj(left, p_until())
        return left

    def p_until() -> LtlFormula:
        left = p_unary()
        if toks.peek() in ("U", "R"):
            op, _v, _at = toks.take()
            right = p_until()
            return until(left, right) if op == "U" else release(left, right)
        return left

    def p_unary() -> LtlFormula:
        head = toks.peek()
        if head == "!":
            toks.take()
            return neg(p_unary())
        if head in _OPS:
            toks.take()
            return LtlFormula(_OPS[head], (p_unary(),))
        return p_primary()

    def p_primary() -> LtlFormula:
        kind, value, at = toks.take()
        if kind == "(":
            inner = p_implies()
            closing, _v, cat = toks.take() if toks.peek() != "END" else ("END", "", len(text))
            if closing != ")":
                raise ParseError(f"expected ')' at position {cat}")
            return inner
        if kind == "CONST":
            return true() if value == "1" else false()
        if kind == "IDENT":
            if declared is not None and value not in declared:
                raise ParseError(f"undeclared atomic proposition {value!r} at position {at}")
            return atom(value)
        raise ParseError(f"unexpected token {value!r} at position {at}")

    result = p_implies()
    if toks.peek() != "END":
        _k, value, at = toks.take()
        raise ParseError(f"trailing input {value!r} at position {at}")
    return result


_PREC = {
    "implies": 1,
    "or": 2,
    "and": 3,
    "until": 4,
    "release": 4,
    "not": 5,
    "next": 5,
    "eventually": 5,
    "always": 5,
}
_SYM = {"until": "U", "release": "R", "next": "X", "eventually": "F", "always": "G"}


def format_ltl(f: LtlFormula) -> str:
    """Render with minimal parentheses; ``parse_ltl`` round-trips the output."""

    def go(g: LtlFormula, need: int) -> str:
        if g.kind == "atom":
            return g.name
        if g.kind == "true":
            return "1"
        if g.kind == "false":
            return "0"
        prec = _PREC[g.kind]
        if g.kind == "not":
            s = "!" + go(g.operands[0], prec)
        elif g.kind in ("next", "eventually", "always"):
            s = _SYM[g.kind] + " " + go(g.operands[0], prec)
        elif g.kind == "implies":
            s = go(g.operands[0], prec + 1) + " -> " + go(g.operands[1], prec)
        elif g.kind in ("until", "release"):
            s = go(g.operands[0], prec + 1) + f" {_SYM[g.kind]} " + go(g.operands[1], prec)
        else:  # and / or, parsed left-associatively
            op = " & " if g.kind == "and" else " | "
            s = go(g.operands[0], prec) + op + go(g.operands[1], prec + 1)
        return "(" + s + ")" if prec < need else s

    return go(f, 0)


# ---------------------------------------------------------------------------
# evaluation on lassos


# A formula compiles, once per AP tuple, into a postorder list of steps
# (kind, x, y): x and y index earlier steps, or x is the AP bit of an atom.
# The last step is the formula itself.
#
# A lasso is evaluated in two halves, as in Markey and Schnoebelen's path
# checking ("Model checking a path", CONCUR 2003).  On the loop, truth
# values are bit sets, bit i for loop position i, and position m-1 steps to
# position 0; until and release are fixpoints over them.  Packing the bit i
# of every step gives the loop's vector at position i.  Every step's truth
# at a position depends only on the letter there and on the vector one
# position later, so the stem is folded in backwards one letter at a time.

def _compile(f: LtlFormula, aps: tuple[str, ...]) -> tuple[tuple[str, int, int], ...]:
    steps: list[tuple[str, int, int]] = []
    done: dict[LtlFormula, int] = {}

    def emit(g: LtlFormula) -> int:
        got = done.get(g)
        if got is not None:
            return got
        if g.kind == "atom":
            if g.name not in aps:
                raise InputError(f"formula atom {g.name!r} missing from the AP map")
            step = ("atom", aps.index(g.name), 0)
        else:
            args = [emit(h) for h in g.operands] + [0, 0]
            step = (g.kind, args[0], args[1])
        done[g] = len(steps)
        steps.append(step)
        return done[g]

    emit(f)
    return tuple(steps)


def _program(f: LtlFormula, m: ApLetterMap) -> tuple[tuple[str, int, int], ...]:
    steps = f._programs.get(m.aps)
    if steps is None:
        steps = f._programs[m.aps] = _compile(f, m.aps)
    return steps


def _run(steps, masks: list[int]) -> list[int]:
    """Bit set of the loop positions where each step holds, on the loop of
    letter masks ``masks`` repeated forever."""
    last = len(masks) - 1
    full = (1 << len(masks)) - 1
    vals: list[int] = []
    for kind, x, y in steps:
        if kind == "atom":
            v = 0
            for i, mask in enumerate(masks):
                if mask >> x & 1:
                    v |= 1 << i
        elif kind == "true":
            v = full
        elif kind == "false":
            v = 0
        elif kind == "not":
            v = full ^ vals[x]
        elif kind == "and":
            v = vals[x] & vals[y]
        elif kind == "or":
            v = vals[x] | vals[y]
        elif kind == "implies":
            v = (full ^ vals[x]) | vals[y]
        elif kind == "next":
            v = vals[x] >> 1 | (vals[x] & 1) << last
        else:
            # Fixpoints of v = g | (a & X v) (until, least) and
            # v = g & (a | X v) (release, greatest); eventually and always
            # fix a to true and false.  Starting from g, each round adds
            # (resp. removes) a position or stops.
            if kind == "until":
                a, g, grow = vals[x], vals[y], True
            elif kind == "release":
                a, g, grow = vals[x], vals[y], False
            elif kind == "eventually":
                a, g, grow = full, vals[x], True
            else:  # always
                a, g, grow = 0, vals[x], False
            v = g
            while True:
                nxt = v >> 1 | (v & 1) << last
                u = g | (a & nxt) if grow else g & (a | nxt)
                if u == v:
                    break
                v = u
        vals.append(v)
    return vals


def _vector(vals: list[int], i: int) -> int:
    """Truth of every step at loop position ``i``, bit j for step j."""
    v = 0
    for j, bits in enumerate(vals):
        v |= (bits >> i & 1) << j
    return v


def _step(steps, mask: int, nxt: int) -> int:
    """Vector at a position that reads the letter ``mask``, from the vector
    ``nxt`` at the position after it."""
    v = 0
    for j, (kind, x, y) in enumerate(steps):
        if kind == "atom":
            b = mask >> x & 1
        elif kind == "true":
            b = 1
        elif kind == "false":
            b = 0
        elif kind == "not":
            b = ~v >> x & 1
        elif kind == "and":
            b = v >> x & v >> y & 1
        elif kind == "or":
            b = (v >> x | v >> y) & 1
        elif kind == "implies":
            b = (~v >> x | v >> y) & 1
        elif kind == "next":
            b = nxt >> x & 1
        elif kind == "until":
            b = (v >> y | v >> x & nxt >> j) & 1
        elif kind == "release":
            b = v >> y & (v >> x | nxt >> j) & 1
        elif kind == "eventually":
            b = (v >> x | nxt >> j) & 1
        else:  # always
            b = v >> x & nxt >> j & 1
        v |= b << j
    return v


def eval_on_lasso(f: LtlFormula, w: Lasso, m: ApLetterMap) -> bool:
    """Exact LTL truth of the infinite word induced by ``w`` at position 0."""
    steps = _program(f, m)
    vec = _vector(_run(steps, list(map(m.mask_of, w.loop))), 0)
    for x in reversed(w.stem):
        vec = _step(steps, m.mask_of(x), vec)
    return bool(vec >> (len(steps) - 1) & 1)


def ltl_oracle(f: LtlFormula, m: ApLetterMap) -> MembershipOracle:
    """Membership oracle for L(f) that shares work across lassos.

    It remembers the vector at the start of every loop it has evaluated
    (one fixpoint run fills all rotations of a loop) and every stem step
    (letter, vector after) -> vector it has taken, so lassos that share a
    loop, or a loop and a stem suffix, share their evaluation.  The memo
    lives as long as the oracle.
    """
    steps = _program(f, m)
    top = len(steps) - 1
    loops: dict[tuple[str, ...], int] = {}
    stems: dict[tuple[str, int], int] = {}

    def oracle(w: Lasso) -> bool:
        loop = w.loop
        vec = loops.get(loop)
        if vec is None:
            vals = _run(steps, list(map(m.mask_of, loop)))
            for i in range(len(loop)):
                loops[loop[i:] + loop[:i]] = _vector(vals, i)
            vec = loops[loop]
        for x in reversed(w.stem):
            nxt = stems.get((x, vec))
            if nxt is None:
                nxt = stems[x, vec] = _step(steps, m.mask_of(x), vec)
            vec = nxt
        return bool(vec >> top & 1)

    # Attached so that containment checks can decide exactly with the
    # tableau (``violation``) instead of scanning lassos.
    oracle.formula = f
    oracle.ap_map = m
    return oracle


# ---------------------------------------------------------------------------
# tableau translation and exact containment


# Negation normal form over U/R/X: a formula is interned as a list of
# subformulas (kind, x, y), where x and y index earlier entries, or x is
# the AP bit of an "atom" or a negated atom "natom".  Sets of subformulas
# are bit sets over these indices.

def _nnf(f: LtlFormula, aps: tuple[str, ...]) -> tuple[int, list[tuple[str, int, int]]]:
    subs: list[tuple[str, int, int]] = []
    ids: dict[tuple[str, int, int], int] = {}

    def make(kind: str, x: int = 0, y: int = 0) -> int:
        key = (kind, x, y)
        got = ids.get(key)
        if got is None:
            got = ids[key] = len(subs)
            subs.append(key)
        return got

    dual = {"and": "or", "or": "and", "until": "release", "release": "until"}

    def go(g: LtlFormula, negated: bool) -> int:
        kind = g.kind
        if kind == "eventually":  # F a = 1 U a
            return go(until(true(), g.operands[0]), negated)
        if kind == "always":  # G a = 0 R a
            return go(release(false(), g.operands[0]), negated)
        if kind == "implies":  # a -> b = !a | b
            return go(disj(neg(g.operands[0]), g.operands[1]), negated)
        if kind == "not":
            return go(g.operands[0], not negated)
        if kind == "atom":
            if g.name not in aps:
                raise InputError(f"formula atom {g.name!r} missing from the AP map")
            return make("natom" if negated else "atom", aps.index(g.name))
        if kind in ("true", "false"):
            return make("false" if (kind == "true") == negated else "true")
        if kind == "next":
            return make("next", go(g.operands[0], negated))
        a, b = (go(h, negated) for h in g.operands)
        return make(dual[kind] if negated else kind, a, b)

    return go(f, False), subs


def _tableau(f: LtlFormula, m: ApLetterMap) -> BuchiTable:
    """Gerth, Peled, Vardi and Wolper's tableau ("Simple on-the-fly
    automatic verification of linear temporal logic", 1995) for ``f``.

    A node is the pair (old, next) of subformula sets that one expansion
    closes: old holds at the node's position and next at the one after.
    State 0 is the initial pseudo-node; reading letter x moves a state to
    the successor nodes whose literals x satisfies.  Each ``a U b`` in the
    closure gives one acceptance set: the nodes where it is not promised
    or where b holds.
    """
    root, subs = _nnf(f, m.aps)
    complement = {}
    for j, (kind, x, _y) in enumerate(subs):
        if kind in ("atom", "natom"):
            other = ("natom" if kind == "atom" else "atom", x, 0)
            if other in subs:
                complement[j] = 1 << subs.index(other)

    number: dict[tuple[int, int], int] = {}
    olds = [0]
    succ: list[set[int]] = [set()]
    # (predecessor, still to expand, old, next), as in the paper's expand
    stack = [(0, 1 << root, 0, 0)]
    while stack:
        pred, new, old, nxt = stack.pop()
        new &= ~old
        if not new:
            node = number.get((old, nxt))
            if node is None:
                node = number[(old, nxt)] = len(olds)
                olds.append(old)
                succ.append(set())
                stack.append((node, nxt, 0, 0))
            succ[pred].add(node)
            continue
        bit = new & -new
        new ^= bit
        old |= bit
        j = bit.bit_length() - 1
        kind, x, y = subs[j]
        if kind == "false" or old & complement.get(j, 0):
            continue
        if kind in ("true", "atom", "natom"):
            stack.append((pred, new, old, nxt))
        elif kind == "and":
            stack.append((pred, new | 1 << x | 1 << y, old, nxt))
        elif kind == "next":
            stack.append((pred, new, old, nxt | 1 << x))
        elif kind == "or":
            stack.append((pred, new | 1 << y, old, nxt))
            stack.append((pred, new | 1 << x, old, nxt))
        elif kind == "until":
            stack.append((pred, new | 1 << y, old, nxt))
            stack.append((pred, new | 1 << x, old, nxt | bit))
        else:  # release
            stack.append((pred, new | 1 << x | 1 << y, old, nxt))
            stack.append((pred, new | 1 << y, old, nxt | bit))

    T = len(m.letters)
    allowed = [range(T)]  # the pseudo-node, which no move enters
    for old in olds[1:]:
        must = must_not = 0
        for j, (kind, x, _y) in enumerate(subs):
            if old >> j & 1:
                if kind == "atom":
                    must |= 1 << x
                elif kind == "natom":
                    must_not |= 1 << x
        allowed.append(
            {mask for mask in range(T) if mask & must == must and not mask & must_not}
        )
    moves = [
        tuple(v for v in sorted(succ[s]) if x in allowed[v])
        for s in range(len(olds))
        for x in range(T)
    ]
    untils = [(j, y) for j, (kind, _x, y) in enumerate(subs) if kind == "until"]
    marks = tuple(
        sum(
            1 << i
            for i, (j, y) in enumerate(untils)
            if not old >> j & 1 or old >> y & 1
        )
        for old in olds
    )
    return BuchiTable(m.letters, (0,), tuple(moves), marks, len(untils))


def tableau(f: LtlFormula, m: ApLetterMap, negate: bool = False) -> BuchiTable:
    """Generalized Buchi table of L(f), or of its complement with
    ``negate``, over the letters of ``m``; cached on the formula."""
    key = (m, negate)
    got = f._tableaux.get(key)
    if got is None:
        got = f._tableaux[key] = _tableau(neg(f) if negate else f, m)
    return got


def violation(a: ParityAutomaton, f: LtlFormula, m: ApLetterMap) -> Optional[Lasso]:
    """Exact containment test of L(a) in L(f): a canonical lasso that
    ``a`` accepts and ``f`` rejects, or None if there is none.  It is the
    emptiness check of ``a`` times the tableau of the negation (Vardi and
    Wolper, LICS 1986)."""
    return intersection_lasso(a, tableau(f, m, negate=True))
