import random
import re

import pytest

from lassokit.core import Alphabet, ParityAutomaton, ParseError, accepts_lasso
from lassokit import hoa
from lassokit.hoa import parse_hoa, to_dot, write_hoa
from lassokit.ltl import ApLetterMap

from helpers import rand_automaton, rand_lasso, same_automaton

AB = Alphabet(("a", "b"))
PQ = ApLetterMap.from_aps(["p", "q"])


def parity4() -> ParityAutomaton:
    # Four states, one per color, cycling on a and resetting on b.
    states = ("c0", "c1", "c2", "c3")
    trans = {}
    for i, q in enumerate(states):
        trans[(q, "a")] = frozenset({states[(i + 1) % 4]})
        trans[(q, "b")] = frozenset({states[0]})
    return ParityAutomaton(
        AB, states, frozenset({"c0"}), trans, {q: i for i, q in enumerate(states)}
    )


class TestWrite:
    def test_parity_acceptance_formula(self):
        text = write_hoa(parity4())
        assert "acc-name: parity max even 4" in text
        assert "Acceptance: 4 Fin(3) & (Inf(2) | (Fin(1) & Inf(0)))" in text

    def test_wider_parity_formula(self):
        states = tuple(f"c{i}" for i in range(5))
        trans = {(q, "a"): frozenset({q}) for q in states}
        a = ParityAutomaton(
            AB, states, frozenset({"c0"}), trans, {q: i for i, q in enumerate(states)}
        )
        assert (
            "Acceptance: 5 Inf(4) | (Fin(3) & (Inf(2) | (Fin(1) & Inf(0))))"
            in write_hoa(a)
        )

    def test_safety_uses_all(self):
        a = ParityAutomaton(
            AB, ("s",), frozenset({"s"}), {("s", "a"): frozenset({"s"})}, {"s": 0}
        )
        text = write_hoa(a)
        assert "acc-name: all" in text and "Acceptance: 0 t" in text
        assert "{" not in text.split("--BODY--")[1]  # no acceptance marks

    def test_buchi_marks_even_states(self):
        a = ParityAutomaton(
            AB,
            ("w", "g"),
            frozenset({"w"}),
            {
                ("w", "a"): frozenset({"w"}),
                ("w", "b"): frozenset({"g"}),
                ("g", "a"): frozenset({"w"}),
                ("g", "b"): frozenset({"g"}),
            },
            {"w": 1, "g": 2},
        )
        text = write_hoa(a)
        assert "acc-name: Buchi" in text and "Acceptance: 1 Inf(0)" in text
        assert 'State: 1 "g" {0}' in text
        assert 'State: 0 "w"\n' in text

    def test_deterministic_property(self):
        assert "deterministic" in write_hoa(parity4())
        nondet = ParityAutomaton(
            AB,
            ("s", "t"),
            frozenset({"s"}),
            {("s", "a"): frozenset({"s", "t"})},
            {"s": 0, "t": 0},
        )
        assert "deterministic" not in write_hoa(nondet)

    def test_ap_map_must_match(self):
        with pytest.raises(ParseError):
            write_hoa(parity4(), ap_map=PQ)


class TestGolden:
    """Exact text of three small automata, one per labelling scheme."""

    def test_nondeterministic_targets_in_state_order(self):
        a = ParityAutomaton(
            AB,
            ("z", "m", "a"),
            frozenset({"a", "z"}),
            {
                ("z", "a"): frozenset({"a", "m", "z"}),
                ("m", "b"): frozenset({"a", "z"}),
                ("a", "a"): frozenset({"a"}),
                ("a", "b"): frozenset({"m", "z"}),
            },
            {"z": 1, "m": 2, "a": 1},
        )
        assert write_hoa(a, name="nondet") == """HOA: v1
name: "nondet"
States: 3
Start: 0
Start: 2
Alphabet: 2 "a" "b"
acc-name: Buchi
Acceptance: 1 Inf(0)
properties: trans-labels explicit-labels state-acc
--BODY--
State: 0 "z"
[0] 0
[0] 1
[0] 2
State: 1 "m" {0}
[1] 0
[1] 2
State: 2 "a"
[0] 2
[1] 0
[1] 1
--END--
"""

    def test_raw_alphabet(self):
        a = ParityAutomaton(
            AB,
            ("w", "g"),
            frozenset({"w"}),
            {
                ("w", "a"): frozenset({"w"}),
                ("w", "b"): frozenset({"g"}),
                ("g", "b"): frozenset({"g"}),
            },
            {"w": 0, "g": 0},
        )
        assert write_hoa(a, comments=("safety",)) == """HOA: v1
/* safety */
States: 2
Start: 0
Alphabet: 2 "a" "b"
acc-name: all
Acceptance: 0 t
properties: trans-labels explicit-labels state-acc deterministic
--BODY--
State: 0 "w"
[0] 0
[1] 1
State: 1 "g"
[1] 1
--END--
"""

    def test_ap_labels(self):
        e, p, q, pq = PQ.letters
        a = ParityAutomaton(
            PQ.alphabet,
            ("c0", "c1", "c2"),
            frozenset({"c0"}),
            {
                ("c0", e): frozenset({"c1"}),
                ("c0", pq): frozenset({"c2"}),
                ("c1", p): frozenset({"c0"}),
                ("c1", q): frozenset({"c2"}),
                ("c2", e): frozenset({"c2"}),
            },
            {"c0": 0, "c1": 1, "c2": 2},
        )
        assert write_hoa(a, ap_map=PQ) == """HOA: v1
States: 3
Start: 0
AP: 2 "p" "q"
acc-name: parity max even 3
Acceptance: 3 Inf(2) | (Fin(1) & Inf(0))
properties: trans-labels explicit-labels state-acc deterministic
--BODY--
State: 0 "c0" {0}
[!0&!1] 1
[0&1] 2
State: 1 "c1" {1}
[0&!1] 0
[!0&1] 2
State: 2 "c2" {2}
[!0&!1] 2
--END--
"""


class TestRoundTrip:
    def test_raw_alphabet_parity(self):
        a = parity4()
        doc = parse_hoa(write_hoa(a, name="cycle"))
        assert same_automaton(doc.automaton, a)
        assert doc.ap_map is None
        assert doc.name == "cycle"

    def test_ap_map_scheme(self):
        trans = {("u", x): frozenset({"u"}) for x in PQ.letters}
        a = ParityAutomaton(
            Alphabet(PQ.letters), ("u",), frozenset({"u"}), trans, {"u": 0}
        )
        doc = parse_hoa(write_hoa(a, ap_map=PQ, comments=["made for a test"]))
        assert same_automaton(doc.automaton, a)
        assert doc.ap_map is not None and doc.ap_map.aps == ("p", "q")

    def test_name_escaping(self):
        a = parity4()
        tricky = 'quo"te and back\\slash'
        assert parse_hoa(write_hoa(a, name=tricky)).name == tricky

    def test_random_round_trips(self):
        rng = random.Random(11)
        for _ in range(60):
            a = rand_automaton(rng, AB)
            doc = parse_hoa(write_hoa(a))
            assert same_automaton(doc.automaton, a)
            w = rand_lasso(rng, AB)
            assert accepts_lasso(doc.automaton, w) == accepts_lasso(a, w)


class TestParse:
    def test_implicit_labels(self):
        text = """HOA: v1
States: 2
Start: 0
Alphabet: 2 "a" "b"
Acceptance: 0 t
--BODY--
State: 0 "s"
1
0
State: 1 "t"
1
1
--END--
"""
        a = parse_hoa(text).automaton
        assert a.successors("s", "a") == frozenset({"t"})
        assert a.successors("s", "b") == frozenset({"s"})
        assert a.successors("t", "b") == frozenset({"t"})

    def test_boolean_labels(self):
        text = """HOA: v1
States: 1
Start: 0
AP: 2 "p" "q"
Acceptance: 0 t
--BODY--
State: 0 "s"
[0 & !1] 0
[!0] 0
--END--
"""
        a = parse_hoa(text).automaton
        assert a.successors("s", "{p}") == frozenset({"s"})
        assert a.successors("s", "{}") == frozenset({"s"})
        assert a.successors("s", "{q}") == frozenset({"s"})
        assert a.successors("s", "{p,q}") == frozenset()

    def test_true_label_and_comments(self):
        text = """HOA: v1 /* inline */
/* a comment
   spanning lines */
States: 1
Start: 0
Alphabet: 2 "a" "b"
Acceptance: 0 t
--BODY--
State: 0 "s"
[t] 0
--END--
"""
        a = parse_hoa(text).automaton
        assert a.successors("s", "a") == a.successors("s", "b") == frozenset({"s"})

    def test_duplicate_state_names_disambiguated(self):
        text = """HOA: v1
States: 2
Start: 0
Alphabet: 1 "a"
Acceptance: 0 t
--BODY--
State: 0 "n"
[t] 1
State: 1 "n"
--END--
"""
        a = parse_hoa(text).automaton
        assert a.states == ("0:n", "1:n")
        assert a.successors("0:n", "a") == frozenset({"1:n"})

    def test_error_line_numbers_survive_comments(self):
        text = """HOA: v1
/* two
   lines */
States: 1
Start: 0
Alphabet: 1 "a"
Acceptance: 0 t
--BODY--
State: 0 "s"
[t] 7
--END--
"""
        with pytest.raises(ParseError, match="line 10"):
            parse_hoa(text)

    def test_each_label_text_is_parsed_once(self, monkeypatch):
        text = """HOA: v1
States: 2
Start: 0
AP: 2 "p" "q"
Acceptance: 1 Inf(0)
--BODY--
State: 0 "s" {0}
[0 & !1] 1
[!0] 0
State: 1 "t"
[0 & !1] 0
[!0] 1
[0&1] 1
--END--
"""
        parsed = []
        real = hoa._LabelParser.parse

        def counted(self):
            parsed.append(self.text)
            return real(self)

        monkeypatch.setattr(hoa._LabelParser, "parse", counted)
        a = parse_hoa(text).automaton
        assert parsed == ["0 & !1", "!0", "0&1"]
        assert a.successors("s", "{p}") == frozenset({"t"})
        assert a.successors("t", "{p}") == frozenset({"s"})
        assert a.successors("t", "{}") == a.successors("t", "{q}") == frozenset({"t"})
        assert a.successors("t", "{p,q}") == frozenset({"t"})
        assert a.successors("s", "{p,q}") == frozenset()

    def test_bad_label_names_the_line_where_it_first_appears(self):
        body = ["State: 0 \"s\"", "[t] 0", "[0 & ] 0", "State: 1 \"t\"", "[0 & ] 1"]
        for header, first in (('AP: 1 "p"', 9), ('Alphabet: 2 "a" "b"', 9)):
            text = "\n".join(
                ["HOA: v1", "States: 2", "Start: 0", header, "Acceptance: 0 t",
                 "--BODY--", *body, "--END--", ""]
            )
            with pytest.raises(ParseError, match=rf"^line {first}: bad label \[0 & \]"):
                parse_hoa(text)
        # an Alphabet: label that parses but is not a letter union
        text = _minimal(edge="[t] 0\n[0 & 0] 0\n[0 & 0] 0")
        with pytest.raises(ParseError, match=r"^line 9: labels over an Alphabet"):
            parse_hoa(text)


def _minimal(**swap) -> str:
    parts = {
        "version": "HOA: v1",
        "states": "States: 1",
        "start": "Start: 0",
        "alphabet": 'Alphabet: 1 "a"',
        "acceptance": "Acceptance: 0 t",
        "body": "--BODY--",
        "state": 'State: 0 "s"',
        "edge": "[t] 0",
        "end": "--END--",
    }
    parts.update(swap)
    return "\n".join(v for v in parts.values() if v) + "\n"


class TestParseErrors:
    def test_minimal_is_fine(self):
        assert parse_hoa(_minimal()).automaton.size == 1

    @pytest.mark.parametrize(
        "swap",
        [
            {"version": "HOA: v2"},
            {"body": ""},
            {"end": ""},
            {"start": ""},
            {"states": ""},
            {"alphabet": ""},
            {"alphabet": 'Alphabet: 2 "a"'},
            {"acceptance": "Acceptance: 1 Fin(0)"},
            {"acceptance": "Acceptance: 2 Inf(0) & Inf(1)"},
            {"state": 'State: 5 "s"'},
            {"state": 'State: 0 "s"\nState: 0 "s"'},
            {"edge": "[t] 3"},
            {"edge": "[t] 0&0"},
            {"edge": "[t] 0 {0}"},
            {"edge": "[t 0"},
            {"edge": "0\n0"},
            {"start": "Start: 0&1"},
            {"version": 'HOA: v1\nAlias: @x 0'},
            {"states": "States: 1\nStates: 1"},
            {"alphabet": 'AP: 1 "p"', "edge": "[f & 5] 0"},
            {"alphabet": 'AP: 1 "p"', "edge": "[t | 7] 0"},
        ],
    )
    def test_rejected(self, swap):
        with pytest.raises(ParseError) as err:
            parse_hoa(_minimal(**swap))
        if "state" in swap or "edge" in swap:
            assert re.match(r"line \d+: ", str(err.value))

    @pytest.mark.parametrize(
        "payload, fields",
        [
            (r'"a\"b" c', ['a"b', "c"]),
            (r'"a\\" b', ["a\\", "b"]),
            (r'"\q"', ["q"]),
            ('"a"b', ["a", "b"]),
            ('2 a"b', ["2", 'a"b']),
            ('"" x', ["", "x"]),
            ('\t1  "p q" r\x1c', ["1", "p q", "r"]),
            ("", []),
        ],
    )
    def test_header_fields(self, payload, fields):
        assert hoa._split_quoted(payload, 3) == fields

    @pytest.mark.parametrize("payload", ['1 "p', r'"p\"', '"p\\', 'a "', '"'])
    def test_unterminated_string(self, payload):
        with pytest.raises(ParseError, match="^line 3: unterminated string$"):
            hoa._split_quoted(payload, 3)

    def test_ap_and_alphabet_exclusive(self):
        with pytest.raises(ParseError, match="exclusive"):
            parse_hoa(_minimal(alphabet='AP: 1 "p"\nAlphabet: 1 "a"'))

    def test_too_many_aps(self):
        names = " ".join(f'"p{i}"' for i in range(13))
        with pytest.raises(ParseError, match="12"):
            parse_hoa(_minimal(alphabet=f"AP: 13 {names}", edge=""))

    def test_unterminated_comment(self):
        with pytest.raises(ParseError, match="comment"):
            parse_hoa(_minimal(version="HOA: v1 /* oops"))

    def test_close_marker_outside_a_comment_is_text(self):
        doc = parse_hoa(_minimal(version='HOA: v1\nname: "a */ b"'))
        assert doc.name == "a */ b"

    def test_slash_star_slash_does_not_close(self):
        # the "/" of "/*/" belongs to the opener, so the comment stays open
        doc = parse_hoa(_minimal(version="HOA: v1 /*/ still a comment */"))
        assert doc.automaton.size == 1
        with pytest.raises(ParseError, match="comment"):
            parse_hoa(_minimal(version="HOA: v1 /*/"))


class TestDot:
    def test_shapes_and_edges(self):
        out = to_dot(parity4())
        assert out.startswith("digraph")
        assert out.count("doublecircle") == 2  # colors 0 and 2
        assert 'n0 -> n1 [label="a"];' in out
        assert "init0 -> n0;" in out

    def test_quotes_and_backslashes_escaped(self):
        text = _minimal(state='State: 0 "a\\"b\\\\c"')
        a = parse_hoa(text).automaton
        assert a.states == ('a"b\\c',)
        assert 'n0 [label="a\\"b\\\\c\\n0", shape=doublecircle];' in to_dot(a)
