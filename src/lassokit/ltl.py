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
    InputError,
    Lasso,
    MembershipOracle,
    ParseError,
    _canonical_parts,
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
        filled by ``eval_on_lasso`` on first use."""
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
# Truth values along the base of a lasso are bit sets, bit i for position i;
# position n-1 steps to position |stem|, where the loop starts again.

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


def _run(steps, masks: list[int], wrap: int) -> int:
    """Bit set of the base positions where the last step holds."""
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
            v = vals[x] >> 1 | (vals[x] >> wrap & 1) << last
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
                nxt = v >> 1 | (v >> wrap & 1) << last
                u = g | (a & nxt) if grow else g & (a | nxt)
                if u == v:
                    break
                v = u
        vals.append(v)
    return vals[-1]


def eval_on_lasso(f: LtlFormula, w: Lasso, m: ApLetterMap) -> bool:
    """Exact LTL truth of the infinite word induced by ``w`` at position 0."""
    steps = f._programs.get(m.aps)
    if steps is None:
        steps = f._programs[m.aps] = _compile(f, m.aps)
    masks = list(map(m.mask_of, w.base))
    return bool(_run(steps, masks, len(w.stem)) & 1)


def ltl_oracle(f: LtlFormula, m: ApLetterMap) -> MembershipOracle:
    """Membership oracle for L(f) with a cache.

    Lassos are cached by canonical form, so representations of the same
    infinite word share one evaluation.
    """
    cache: dict[tuple[tuple[str, ...], tuple[str, ...]], bool] = {}

    def oracle(w: Lasso) -> bool:
        key = _canonical_parts(w.stem, w.loop)
        value = cache.get(key)
        if value is None:
            value = cache[key] = eval_on_lasso(f, Lasso(*key), m)
        return value

    return oracle
