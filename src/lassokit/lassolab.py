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
    oracle disagree.  ``inclusion_violations`` holds accepted lassos that
    the oracle rejects: those of base length up to the inclusion bound,
    which the scan lists only when the exact containment test found a
    witness or no exact test applies, plus that witness itself when the
    verdict is exact and the scan did not list it.  ``checked_inclusion``
    counts the lassos of base up to the bound, other than n, whose
    containment was decided, by the product or by the scan.
    ``exact_inclusion`` tells the two scopes apart: when it is False,
    containment is only known up to the bound.
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


def _scan(a, phi, n, bound, contained=False) -> PrecisionReport:
    """Check the lassos of every word (letter indices) of length 1..bound,
    in (word, split) order; a Lasso is only built when the oracle is
    consulted.

    With ``contained`` (an exact test has shown that no accepted lasso
    lies outside the language) only the words of length n are visited,
    and the inclusion lassos count as decided.  When the oracle is an
    automaton_oracle over the same letters, a base-n word whose verdicts
    equal the reference automaton's on every split is passed over without
    consulting the oracle."""
    letters = a.alphabet.letters
    ref_auto = getattr(phi, "automaton", None)
    if ref_auto is not None and ref_auto.alphabet.letters != letters:
        ref_auto = None
    report = PrecisionReport(n, bound)
    symbols = range(len(letters))
    if contained:
        words = words_by_length(symbols, n, n)
        report.checked_inclusion = sum(
            len(letters) ** b * b for b in range(1, bound + 1) if b != n
        )
    else:
        words = words_by_length(symbols, 1, bound)
    for word in words:
        verdicts = accepts_splits(a, word)
        if len(word) == n:
            report.checked_equal += n
            if ref_auto is not None and verdicts == accepts_splits(ref_auto, word):
                continue
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

    An exact containment test, one emptiness product, runs first wherever
    one applies: against a deterministic reference automaton of the
    oracle's language, passed explicitly or carried by an
    automaton_oracle, when ``a`` is a safety automaton; or against the
    tableau of the negated formula when the oracle is an ltl_oracle,
    which carries its formula and letter map.  When it finds no witness,
    no lasso of any base is a violation and only the base-n lassos are
    enumerated.  Otherwise, and where no exact test applies, every lasso
    of base up to the inclusion bound is scanned for violations.

    The bound defaults to n where an exact test applies and to max(n, |a|)
    otherwise; callers checking a large automaton against a bare oracle
    should pass a bound that they can afford.  The verdict counts as
    exact (``exact_inclusion``) for a reference automaton, and for a
    formula only without an inclusion bound: a bound asks for the bounded
    verdict, so its report lists only the violations up to the bound.
    A scan of more than ``SCAN_CEILING`` lassos raises ResourceLimit
    before any work starts.
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
    formula = None if by_reference else getattr(phi, "formula", None)
    tested = by_reference or formula is not None
    exact = by_reference or (tested and inclusion_bound is None)
    if inclusion_bound is None:
        bound = n if exact else default_inclusion_bound(a, n)
    else:
        bound = inclusion_bound
    if bound < n:
        raise InputError("inclusion bound must be at least the precision bound")

    _require_affordable_scan(len(a.alphabet), bound)
    witness = None
    if by_reference:
        witness = check_inclusion_exact(a, ref_auto)[1]
    elif formula is not None:
        witness = violation(a, formula, phi.ap_map)
    report = _scan(a, phi, n, bound, contained=tested and witness is None)
    if exact:
        report.exact_inclusion = True
        listed = {w.canonical() for w in report.inclusion_violations}
        if witness is not None and witness not in listed:
            report.inclusion_violations.append(witness)
    return report
