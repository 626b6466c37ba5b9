"""Reader and writer for a subset of the HOA v1 interchange format.

Supported: state-based acceptance with acc-name `parity max even C`,
`Buchi`, or `all`; explicit edge labels as Boolean expressions over AP
indices; implicit labels in letter order; multiple `Start:` lines.  Raw
(non-AP) alphabets use an `Alphabet:` extension header and integer letter
indices as labels.  Everything else is rejected with a line-precise
diagnostic, never guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Alphabet, ParityAutomaton, ParseError, is_deterministic
from .ltl import ApLetterMap


@dataclass(frozen=True)
class HoaDocument:
    """A parsed HOA file: the automaton plus recoverable header context."""

    automaton: ParityAutomaton
    ap_map: Optional[ApLetterMap]
    name: Optional[str]


def _escape(s: str) -> str:
    """Backslash-escape for double-quoted strings in HOA and DOT."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"%s"' % _escape(s)


def _acceptance_formula(colors: int) -> str:
    """Canonical max-even parity acceptance over sets 0..colors-1."""

    def g(c: int) -> str:
        if c == 0:
            return "Inf(0)"
        inner = g(c - 1)
        if c % 2 == 0:
            return f"Inf({c}) | ({inner})"
        if "|" in inner:
            inner = f"({inner})"
        return f"Fin({c}) & {inner}"

    return g(colors - 1)


def write_hoa(
    a: ParityAutomaton,
    ap_map: Optional[ApLetterMap] = None,
    name: Optional[str] = None,
    comments: Sequence[str] = (),
) -> str:
    """Serialize to the HOA subset.  With ``ap_map`` the alphabet is encoded
    through an AP: header and min-term labels; otherwise the Alphabet:
    extension header carries the raw letters."""
    if ap_map is not None and ap_map.alphabet != a.alphabet:
        raise ParseError("ap map does not cover the automaton's alphabet")
    index = {q: i for i, q in enumerate(a.states)}
    hi = max(a.coloring.values())
    image = set(a.coloring.values())
    if image == {0}:
        acc_name, acceptance = "all", "0 t"
        sets = {q: None for q in a.states}
    elif image <= {1, 2}:
        acc_name, acceptance = "Buchi", "1 Inf(0)"
        sets = {q: (0 if a.coloring[q] == 2 else None) for q in a.states}
    else:
        acc_name = f"parity max even {hi + 1}"
        acceptance = f"{hi + 1} {_acceptance_formula(hi + 1)}"
        sets = {q: a.coloring[q] for q in a.states}

    lines = ["HOA: v1"]
    for text in comments:
        lines.append("/* %s */" % text)
    if name is not None:
        lines.append("name: %s" % _quote(name))
    lines.append(f"States: {a.size}")
    for q in sorted(a.initial, key=index.__getitem__):
        lines.append(f"Start: {index[q]}")
    if ap_map is not None:
        lines.append(
            "AP: %d %s" % (len(ap_map.aps), " ".join(_quote(p) for p in ap_map.aps))
        )
    else:
        lines.append(
            "Alphabet: %d %s"
            % (len(a.alphabet), " ".join(_quote(x) for x in a.alphabet))
        )
    lines.append(f"acc-name: {acc_name}")
    lines.append(f"Acceptance: {acceptance}")
    props = ["trans-labels", "explicit-labels", "state-acc"]
    if is_deterministic(a):
        props.append("deterministic")
    lines.append("properties: %s" % " ".join(props))
    lines.append("--BODY--")
    # "[label] " once per letter, the state numbers once per state
    heads = [
        (x, "[%s] " % _letter_label(li, x, ap_map)) for li, x in enumerate(a.alphabet)
    ]
    number = {q: str(i) for q, i in index.items()}
    transitions = a.transitions
    for q in a.states:
        mark = "" if sets[q] is None else " {%d}" % sets[q]
        lines.append(f"State: {number[q]} {_quote(q)}{mark}")
        for x, head in heads:
            targets = transitions.get((q, x))
            if targets is None:
                continue
            if len(targets) == 1:
                (t,) = targets
                lines.append(head + number[t])
            else:
                for t in sorted(targets, key=index.__getitem__):
                    lines.append(head + number[t])
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def _letter_label(letter_index: int, letter: str, ap_map: Optional[ApLetterMap]) -> str:
    if ap_map is None:
        return str(letter_index)
    mask = ap_map.mask_of(letter)
    return "&".join(
        str(i) if mask >> i & 1 else f"!{i}" for i in range(len(ap_map.aps))
    )


class _LabelParser:
    """Boolean label expressions over AP indices: ! & | ( ) t f INT.

    Every index must be below ``atoms`` (the AP or letter count), also
    where evaluation would short-circuit past it."""

    def __init__(self, text: str, line: int, atoms: int):
        self.text = text
        self.pos = 0
        self.line = line
        self.atoms = atoms

    def fail(self, msg: str):
        raise ParseError(f"line {self.line}: bad label [{self.text}]: {msg}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self):
        e = self.p_or()
        self.skip()
        if self.pos != len(self.text):
            self.fail(f"trailing input at column {self.pos}")
        return e

    def p_or(self):
        e = self.p_and()
        while True:
            self.skip()
            if self.pos < len(self.text) and self.text[self.pos] == "|":
                self.pos += 1
                r = self.p_and()
                e = ("or", e, r)
            else:
                return e

    def p_and(self):
        e = self.p_not()
        while True:
            self.skip()
            if self.pos < len(self.text) and self.text[self.pos] == "&":
                self.pos += 1
                r = self.p_not()
                e = ("and", e, r)
            else:
                return e

    def p_not(self):
        self.skip()
        if self.pos < len(self.text) and self.text[self.pos] == "!":
            self.pos += 1
            return ("not", self.p_not())
        return self.p_atom()

    def p_atom(self):
        self.skip()
        if self.pos >= len(self.text):
            self.fail("unexpected end")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            e = self.p_or()
            self.skip()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                self.fail("missing )")
            self.pos += 1
            return e
        if c == "t":
            self.pos += 1
            return ("const", True)
        if c == "f":
            self.pos += 1
            return ("const", False)
        if c.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            v = int(self.text[self.pos : j])
            if v >= self.atoms:
                self.fail(f"index {v} out of range")
            self.pos = j
            return ("ap", v)
        self.fail(f"unexpected character {c!r}")


def _eval_label(e, mask: int) -> bool:
    kind = e[0]
    if kind == "const":
        return e[1]
    if kind == "ap":
        return bool(mask >> e[1] & 1)
    if kind == "not":
        return not _eval_label(e[1], mask)
    if kind == "and":
        return _eval_label(e[1], mask) and _eval_label(e[2], mask)
    return _eval_label(e[1], mask) or _eval_label(e[2], mask)


_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_NOT_NEWLINE = re.compile(r"[^\n]")


def _strip_comments(text: str) -> str:
    """Blank out /* */ comments, keeping newlines so line numbers hold."""
    out = _COMMENT.sub(lambda m: _NOT_NEWLINE.sub(" ", m.group()), text)
    if "/*" in out:
        raise ParseError("unterminated /* comment")
    return out


# a quoted string, an unterminated one (a lone quote) or a bare word
_FIELD = re.compile(r'"((?:[^"\\]|\\.)*)"|(")|(\S+)')
_ESCAPE = re.compile(r"\\(.)")


def _split_quoted(rest: str, line: int) -> list[str]:
    """Fields of a header payload: quoted strings, in which a backslash
    escapes the next character, and bare words."""
    out = []
    for quoted, lone, bare in _FIELD.findall(rest):
        if lone:
            raise ParseError(f"line {line}: unterminated string")
        # most names hold no backslash: the sub runs only for those that do
        if "\\" in quoted:
            quoted = _ESCAPE.sub(r"\1", quoted)
        out.append(bare or quoted)
    return out


def parse_hoa(text: str) -> HoaDocument:
    """Parse the supported HOA subset; raise ParseError on anything else."""
    lines = _strip_comments(text).splitlines()
    header: dict[str, list[tuple[int, str]]] = {}
    body_at = None
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "--BODY--":
            body_at = no
            break
        if ":" not in line:
            raise ParseError(f"line {no}: expected 'header: value' before --BODY--")
        key, rest = line.split(":", 1)
        key = key.strip()
        header.setdefault(key, []).append((no, rest.strip()))
    if body_at is None:
        raise ParseError("missing --BODY--")

    def single(key: str, required: bool = True) -> Optional[tuple[int, str]]:
        got = header.get(key, [])
        if len(got) > 1:
            raise ParseError(f"line {got[1][0]}: duplicate {key}: header")
        if not got:
            if required:
                raise ParseError(f"missing required header {key}:")
            return None
        return got[0]

    no, version = single("HOA")
    if version != "v1":
        raise ParseError(f"line {no}: unsupported HOA version {version!r}")
    for key, entries in header.items():
        if key in ("HOA", "States", "Start", "AP", "Alphabet", "Acceptance", "name"):
            continue
        if key == "Alias":
            raise ParseError(f"line {entries[0][0]}: aliases are not supported")
        if key[0].isupper():
            raise ParseError(
                f"line {entries[0][0]}: unsupported mandatory header {key}:"
            )
        # lowercase headers other than the ones we read are ignorable

    no, states_s = single("States")
    try:
        n_states = int(states_s)
    except ValueError:
        raise ParseError(f"line {no}: States: wants an integer, got {states_s!r}")
    if n_states < 1:
        raise ParseError(f"line {no}: need at least one state")

    starts = []
    for no, rest in header.get("Start", []):
        if "&" in rest:
            raise ParseError(f"line {no}: start-state conjunctions are not supported")
        try:
            starts.append(int(rest))
        except ValueError:
            raise ParseError(f"line {no}: Start: wants a state index, got {rest!r}")
    if not starts:
        raise ParseError("missing required header Start:")

    ap_entry = single("AP", required=False)
    alpha_entry = single("Alphabet", required=False)
    if ap_entry and alpha_entry:
        raise ParseError(f"line {alpha_entry[0]}: AP: and Alphabet: are exclusive")
    if not ap_entry and not alpha_entry:
        raise ParseError("need an AP: or Alphabet: header")
    ap_map = None
    if ap_entry:
        no, rest = ap_entry
        fields = _split_quoted(rest, no)
        if not fields or not fields[0].isdigit():
            raise ParseError(f"line {no}: AP: wants a count then names")
        count = int(fields[0])
        aps = fields[1:]
        if len(aps) != count:
            raise ParseError(f"line {no}: AP: declared {count}, found {len(aps)}")
        if count > 12:
            raise ParseError(f"line {no}: more than 12 APs are not supported")
        ap_map = ApLetterMap.from_aps(aps, sort=False)
        alphabet = ap_map.alphabet
    else:
        no, rest = alpha_entry
        fields = _split_quoted(rest, no)
        if not fields or not fields[0].isdigit():
            raise ParseError(f"line {no}: Alphabet: wants a count then letters")
        count = int(fields[0])
        letters = fields[1:]
        if len(letters) != count:
            raise ParseError(
                f"line {no}: Alphabet: declared {count}, found {len(letters)}"
            )
        alphabet = Alphabet(tuple(letters))

    no, acc = single("Acceptance")
    acc_fields = acc.split(None, 1)
    if not acc_fields or not acc_fields[0].isdigit():
        raise ParseError(f"line {no}: Acceptance: wants a set count")
    n_sets = int(acc_fields[0])
    acc_formula = acc_fields[1].strip() if len(acc_fields) > 1 else ""
    scheme = _classify_acceptance(n_sets, acc_formula, no)

    name_entry = single("name", required=False)
    doc_name = None
    if name_entry:
        fields = _split_quoted(name_entry[1], name_entry[0])
        doc_name = fields[0] if fields else ""

    state_names: dict[int, str] = {}
    state_sets: dict[int, Optional[int]] = {}
    transitions: dict[tuple[int, int], set[int]] = {}
    current: Optional[int] = None
    implicit_at = 0
    atoms = len(alphabet) if ap_map is None else len(ap_map.aps)
    # letters of each label text, parsed at its first line: written files
    # repeat a few labels on every edge
    labels: dict[str, list[int]] = {}
    for no in range(body_at + 1, len(lines) + 1):
        line = lines[no - 1].strip()
        if not line:
            continue
        if line == "--END--":
            break
        if line.startswith("State:"):
            current, implicit_at = _parse_state_line(
                line, no, n_states, state_names, state_sets
            )
            continue
        if current is None:
            raise ParseError(f"line {no}: edge before any State: line")
        if line.startswith("["):
            close = line.find("]")
            if close < 0:
                raise ParseError(f"line {no}: unterminated label")
            spec = line[1:close]
            letters = labels.get(spec)
            if letters is None:
                label = _LabelParser(spec, no, atoms).parse()
                letters = labels[spec] = _label_letters(label, alphabet, ap_map, no)
            rest = line[close + 1 :].strip()
        else:
            if implicit_at >= len(alphabet):
                raise ParseError(f"line {no}: more implicit edges than letters")
            letters = [implicit_at]
            implicit_at += 1
            rest = line
        targets = _parse_edge_targets(rest, no, n_states)
        for li in letters:
            transitions.setdefault((current, li), set()).update(targets)
    else:
        raise ParseError("missing --END--")

    missing = [i for i in range(n_states) if i not in state_names]
    if missing:
        raise ParseError(f"state {missing[0]} was never declared in the body")
    for s in starts:
        if s not in state_names:
            raise ParseError(f"Start: names undeclared state {s}")

    coloring = _colors_from_sets(scheme, n_sets, state_sets, state_names)
    names = [state_names[i] for i in range(n_states)]
    if len(set(names)) != len(names):
        names = [f"{i}:{state_names[i]}" for i in range(n_states)]
    auto = ParityAutomaton(
        alphabet,
        tuple(names),
        frozenset(names[s] for s in starts),
        {
            (names[q], alphabet[li]): frozenset(names[t] for t in ts)
            for (q, li), ts in transitions.items()
        },
        {names[i]: coloring[i] for i in range(n_states)},
    )
    return HoaDocument(auto, ap_map, doc_name)


def _classify_acceptance(n_sets: int, formula: str, line: int) -> str:
    flat = formula.replace(" ", "")
    if n_sets == 0 and flat == "t":
        return "all"
    if n_sets == 1 and flat == "Inf(0)":
        return "buchi"
    if n_sets >= 1 and flat == _acceptance_formula(n_sets).replace(" ", ""):
        return "parity"
    raise ParseError(
        f"line {line}: unsupported acceptance (only all, Buchi, and "
        f"max-even parity are understood): {n_sets} {formula!r}"
    )


def _parse_state_line(line, no, n_states, state_names, state_sets):
    rest = line[len("State:") :].strip()
    if rest.startswith("["):
        raise ParseError(f"line {no}: state labels are not supported")
    sets_part = None
    if rest.endswith("}"):
        brace = rest.rfind("{")
        if brace < 0:
            raise ParseError(f"line {no}: stray }} in State: line")
        sets_part = rest[brace + 1 : -1].strip()
        rest = rest[:brace].strip()
    fields = _split_quoted(rest, no)
    if not fields or not fields[0].isdigit():
        raise ParseError(f"line {no}: State: wants an index")
    idx = int(fields[0])
    if idx >= n_states:
        raise ParseError(f"line {no}: state index {idx} out of range")
    if idx in state_names:
        raise ParseError(f"line {no}: state {idx} declared twice")
    if len(fields) > 2:
        raise ParseError(f"line {no}: unexpected trailing fields on State: line")
    state_names[idx] = fields[1] if len(fields) > 1 else str(idx)
    if sets_part is None:
        state_sets[idx] = None
    else:
        members = sets_part.split()
        if len(members) != 1 or not members[0].isdigit():
            raise ParseError(
                f"line {no}: exactly one acceptance set per state is supported"
            )
        state_sets[idx] = int(members[0])
    return idx, 0


def _parse_edge_targets(rest: str, no: int, n_states: int) -> list[int]:
    if "{" in rest:
        raise ParseError(f"line {no}: transition-based acceptance is not supported")
    fields = rest.split()
    if len(fields) != 1:
        raise ParseError(f"line {no}: expected a single target state, got {rest!r}")
    if "&" in fields[0]:
        raise ParseError(f"line {no}: universal branching is not supported")
    if not fields[0].isdigit():
        raise ParseError(f"line {no}: target must be a state index, got {fields[0]!r}")
    t = int(fields[0])
    if t >= n_states:
        raise ParseError(f"line {no}: target state {t} out of range")
    return [t]


def _label_letters(label, alphabet, ap_map, no) -> list[int]:
    out = []
    if ap_map is not None:
        for li, x in enumerate(alphabet):
            if _eval_label(label, ap_map.mask_of(x)):
                out.append(li)
    else:
        # Raw alphabets admit index atoms and t/f only; Boolean structure
        # over indices would conflate letters with bits.
        out = list(_index_label_letters(label, len(alphabet), no))
    return out


def _index_label_letters(label, n_letters: int, no: int):
    kind = label[0]
    if kind == "const":
        if label[1]:
            yield from range(n_letters)
        return
    if kind == "ap":
        yield label[1]
        return
    if kind == "or":
        yield from _index_label_letters(label[1], n_letters, no)
        yield from _index_label_letters(label[2], n_letters, no)
        return
    raise ParseError(
        f"line {no}: labels over an Alphabet: header may only use letter "
        "indices, t, f, and |"
    )


def _colors_from_sets(scheme, n_sets, state_sets, state_names) -> dict[int, int]:
    out = {}
    for idx in state_names:
        s = state_sets.get(idx)
        if scheme == "all":
            if s is not None:
                raise ParseError(
                    f"state {idx}: acceptance sets are meaningless under acc-name all"
                )
            out[idx] = 0
        elif scheme == "buchi":
            if s not in (None, 0):
                raise ParseError(f"state {idx}: Buchi set must be 0, got {s}")
            out[idx] = 2 if s == 0 else 1
        else:
            if s is None:
                raise ParseError(
                    f"state {idx}: parity automata need exactly one color per state"
                )
            if s >= n_sets:
                raise ParseError(f"state {idx}: color {s} out of range")
            out[idx] = s
    return out


def read_hoa(text: str) -> ParityAutomaton:
    return parse_hoa(text).automaton


def to_dot(a: ParityAutomaton) -> str:
    """Plain DOT dump for eyeballing; no layout hints."""
    index = {q: i for i, q in enumerate(a.states)}
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q in a.states:
        shape = "doublecircle" if a.coloring[q] % 2 == 0 else "circle"
        label = f"{_escape(q)}\\n{a.coloring[q]}"
        lines.append(f'  n{index[q]} [label="{label}", shape={shape}];')
    for i, q in enumerate(sorted(a.initial, key=index.__getitem__)):
        lines.append(f"  init{i} [shape=point];")
        lines.append(f"  init{i} -> n{index[q]};")
    for q in a.states:
        for x in a.alphabet:
            for t in sorted(a.successors(q, x), key=index.__getitem__):
                lines.append(f'  n{index[q]} -> n{index[t]} [label="{_escape(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
