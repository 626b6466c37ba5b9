"""Lasso laboratory: unrolling, exhaustive base enumeration, and the
precision check that compares an automaton against a membership oracle on
all lassos of one base length and tests containment, exactly where a
formula or reference automaton is known and on all small lassos otherwise.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .core import (
    Alphabet,
    InputError,
    Lasso,
    MembershipOracle,
    ParityAutomaton,
    ResourceLimit,
    accepts_lasso,
    accepts_splits,
    check_inclusion_exact,
    is_deterministic,
    is_safety,
)
from .ltl import violation

SCAN_CEILING = 1_000_000
"""Most lassos one precision check may scan: the sum over bases b up to the
inclusion bound of |Σ|^b·b.  Scans grow by a factor |Σ| per base, and one
of this size takes about a second; a larger one raises ResourceLimit
before it starts."""


def unroll(w: Lasso, n2: int) -> Lasso:
    """Re-represent ``w`` with base length ``n2`` without changing the word.

    The extra letters are shifted from the loop into the stem, rotating the
    loop accordingly, so any lasso of size n also counts as one of size
    n2 >= n.
    """
    if n2 < w.length:
        raise InputError(f"cannot unroll a lasso of size {w.length} to size {n2}")
    shift = n2 - w.length
    period = len(w.loop)
    moved = tuple(w.loop[i % period] for i in range(shift))
    turn = shift % period
    return Lasso(w.stem + moved, w.loop[turn:] + w.loop[:turn])


def words_by_length(symbols: Sequence, lo: int, hi: int) -> Iterator[tuple]:
    """Every word over ``symbols`` with length lo..hi: by length, then in
    lexicographic order.  Each word stands for the lassos of its splits."""
    for length in range(lo, hi + 1):
        yield from itertools.product(symbols, repeat=length)


def enumerate_bases(alphabet: Alphabet, n: int) -> Iterator[Lasso]:
    """All lassos with base length exactly n: every base word combined with
    every split position, in lexicographic (word, split) order."""
    if n < 1:
        raise InputError("base length must be positive")
    for word in words_by_length(alphabet.letters, n, n):
        for split in range(n):
            yield Lasso(word[:split], word[split:])


def automaton_oracle(a: ParityAutomaton) -> MembershipOracle:
    """Membership oracle backed by the automaton's own acceptance check.

    The automaton is attached to the callable so that precision checks can
    upgrade the containment half to an exact product-based test.
    """

    def oracle(w: Lasso) -> bool:
        return accepts_lasso(a, w)

    oracle.automaton = a
    return oracle


@dataclass
class PrecisionReport:
    """Outcome of a precision check.

    ``mismatches`` holds lassos of base length exactly n where automaton and
    oracle disagree; ``inclusion_violations`` holds accepted lassos of base
    length up to the inclusion bound that the oracle rejects, plus the
    witness of the exact containment test when one ran and found a lasso
    the scan did not list.  ``exact_inclusion`` tells the two scopes
    apart: when it is False, containment is only known up to the bound.
    """

    n: int
    inclusion_bound: int
    checked_equal: int = 0
    checked_inclusion: int = 0
    exact_inclusion: bool = False
    mismatches: list[tuple[Lasso, bool, bool]] = field(default_factory=list)
    inclusion_violations: list[Lasso] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.inclusion_violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "inclusion_bound": self.inclusion_bound,
            "checked_equal": self.checked_equal,
            "checked_inclusion": self.checked_inclusion,
            "exact_inclusion": self.exact_inclusion,
            "ok": self.ok,
            "mismatches": [
                {
                    "base": list(w.base),
                    "split": len(w.stem),
                    "in_language": ref,
                    "accepted": got,
                }
                for w, ref, got in self.mismatches
            ],
            "inclusion_violations": [
                {"base": list(w.base), "split": len(w.stem)}
                for w in self.inclusion_violations
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        if self.exact_inclusion:
            scope = "containment exact"
        else:
            scope = f"containment bounded to bases up to {self.inclusion_bound}"
        lines = [
            f"precision check at n={self.n}",
            f"  equality lassos checked: {self.checked_equal}, mismatches: {len(self.mismatches)}",
            f"  inclusion lassos checked: {self.checked_inclusion}, "
            f"violations: {len(self.inclusion_violations)}",
            f"  verdict: {'ok' if self.ok else 'FAILED'} ({scope})",
        ]
        for w, ref, got in self.mismatches[:10]:
            lines.append(f"  mismatch {w}: language={ref} automaton={got}")
        for w in self.inclusion_violations[:10]:
            lines.append(f"  accepted outside language: {w}")
        return "\n".join(lines)


def default_inclusion_bound(a: ParityAutomaton, n: int) -> int:
    """Default bound B = max(n, |a|); documented heuristic, callers may widen."""
    return max(n, a.size)


def _require_affordable_scan(letters: int, bound: int) -> None:
    """ResourceLimit, naming the largest bound that fits, when the lassos
    of all bases up to ``bound`` are more than ``SCAN_CEILING``."""
    total = 0
    for b in range(1, bound + 1):
        total += letters**b * b
        if total > SCAN_CEILING:
            raise ResourceLimit(
                f"a scan up to base {bound} over {letters} letters checks more"
                f" than {SCAN_CEILING} lassos; the largest bound that fits is"
                f" {b - 1}"
            )


def _scan(a, phi, n, bound) -> PrecisionReport:
    """Check the lassos of every word (letter indices) of length 1..bound,
    in (word, split) order; a Lasso is only built when the oracle is
    consulted."""
    letters = a.alphabet.letters
    report = PrecisionReport(n, bound)
    for word in words_by_length(range(len(letters)), 1, bound):
        verdicts = accepts_splits(a, word)
        if len(word) == n:
            report.checked_equal += n
            named = tuple(letters[x] for x in word)
            for split, got in enumerate(verdicts):
                w = Lasso(named[:split], named[split:])
                ref = phi(w)
                if got != ref:
                    report.mismatches.append((w, ref, got))
        else:
            report.checked_inclusion += len(word)
            if not any(verdicts):
                continue
            named = tuple(letters[x] for x in word)
            for split, got in enumerate(verdicts):
                if got:
                    w = Lasso(named[:split], named[split:])
                    if not phi(w):
                        report.inclusion_violations.append(w)
    return report


def check_lasso_precise(
    a: ParityAutomaton,
    phi: MembershipOracle,
    n: int,
    inclusion_bound: Optional[int] = None,
    reference: Optional[ParityAutomaton] = None,
) -> PrecisionReport:
    """Compare ``a`` against the oracle on all lassos of base length n
    (equality) and check that every accepted lasso satisfies the oracle.

    The containment half is decided exactly, by one emptiness product, in
    two cases: a deterministic reference automaton is known, passed
    explicitly or carried by an automaton_oracle, and ``a`` is a safety
    automaton; or the oracle is an ltl_oracle, which carries its formula
    and letter map, and no inclusion bound is given.  Otherwise it is
    tested exhaustively on all bases up to the inclusion bound, which
    defaults to max(n, |a|); callers checking a
    large automaton against a bare oracle should pass a bound that they
    can afford.  A scan of more than ``SCAN_CEILING`` lassos raises
    ResourceLimit before it starts.
    """
    if n < 1:
        raise InputError("precision bound must be positive")
    ref_auto = reference if reference is not None else getattr(phi, "automaton", None)
    by_reference = (
        ref_auto is not None
        and is_safety(a)
        and is_deterministic(ref_auto)
        and ref_auto.alphabet.letters == a.alphabet.letters
    )
    formula = getattr(phi, "formula", None)
    by_formula = not by_reference and formula is not None and inclusion_bound is None
    exact = by_reference or by_formula
    if inclusion_bound is None:
        bound = n if exact else default_inclusion_bound(a, n)
    else:
        bound = inclusion_bound
    if bound < n:
        raise InputError("inclusion bound must be at least the precision bound")

    _require_affordable_scan(len(a.alphabet), bound)
    report = _scan(a, phi, n, bound)
    if exact:
        report.exact_inclusion = True
        if by_reference:
            witness = check_inclusion_exact(a, ref_auto)[1]
        else:
            witness = violation(a, formula, phi.ap_map)
        listed = {w.canonical() for w in report.inclusion_violations}
        if witness is not None and witness not in listed:
            report.inclusion_violations.append(witness)
    return report
