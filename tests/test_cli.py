import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lassokit
from lassokit.cli import main
from lassokit.core import accepts_lasso, is_deterministic, is_safety
from lassokit.hoa import parse_hoa
from lassokit.lassolab import check_lasso_precise, enumerate_bases
from lassokit.ltl import ltl_oracle, parse_ltl
from lassokit.synth import SOLVER_ENV_VAR

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return go


def read_auto(path):
    with open(path) as fh:
        return parse_hoa(fh.read())


def all_lassos(alphabet, max_base):
    for length in range(1, max_base + 1):
        yield from enumerate_bases(alphabet, length)


class TestApproximate:
    def test_ltl_under(self, run, tmp_path):
        out = tmp_path / "gp.hoa"
        code, stdout, _ = run(
            "approximate", "--ltl", "G p", "--bound", "2", "--out", str(out)
        )
        assert code == 0
        assert stdout.startswith("states: ")
        assert "(theorem bound" in stdout
        doc = read_auto(out)
        assert is_safety(doc.automaton) and is_deterministic(doc.automaton)
        assert doc.ap_map is not None and doc.ap_map.aps == ("p",)
        phi = ltl_oracle(parse_ltl("G p", ["p"]), doc.ap_map)
        assert check_lasso_precise(doc.automaton, phi, 2, inclusion_bound=4).ok

    def test_ltl_over(self, run, tmp_path):
        out = tmp_path / "over.hoa"
        code, _, _ = run(
            "approximate",
            "--ltl", "G F p",
            "--bound", "2",
            "--direction", "over",
            "--out", str(out),
        )
        assert code == 0
        doc = read_auto(out)
        phi = ltl_oracle(parse_ltl("G F p", ["p"]), doc.ap_map)
        for w in all_lassos(doc.automaton.alphabet, 3):
            if phi(w):
                assert accepts_lasso(doc.automaton, w), str(w)
            if w.length == 2:
                assert accepts_lasso(doc.automaton, w) == phi(w), str(w)

    def test_automaton_safety_target(self, run, tmp_path):
        src = tmp_path / "gf1.hoa"
        run("family", "gf1", "--out", str(src))
        out = tmp_path / "safe.hoa"
        code, stdout, _ = run(
            "approximate", "--in", str(src), "--bound", "2", "--out", str(out)
        )
        assert code == 0 and "theorem bound" in stdout
        got = read_auto(out).automaton
        assert is_safety(got)
        from lassokit.lassolab import automaton_oracle

        ref = read_auto(src).automaton
        assert check_lasso_precise(got, automaton_oracle(ref), 2).ok

    def test_automaton_parity_target(self, run, tmp_path):
        src = tmp_path / "fggf.hoa"
        run("family", "fg-gf", "--out", str(src))
        out = tmp_path / "two.hoa"
        code, _, _ = run(
            "approximate",
            "--in", str(src),
            "--bound", "2",
            "--target", "parity:2",
            "--out", str(out),
        )
        assert code == 0
        assert read_auto(out).automaton.color_count <= 2

    def test_automaton_over(self, run, tmp_path):
        src = tmp_path / "gf1.hoa"
        run("family", "gf1", "--out", str(src))
        out = tmp_path / "over.hoa"
        code, stdout, _ = run(
            "approximate",
            "--in", str(src),
            "--bound", "1",
            "--direction", "over",
            "--out", str(out),
        )
        assert code == 0
        assert "theorem bound" not in stdout
        ref = read_auto(src).automaton
        got = read_auto(out).automaton
        for w in all_lassos(ref.alphabet, 3):
            if accepts_lasso(ref, w):
                assert accepts_lasso(got, w)

    def test_ltl_rejects_parity_target(self, run):
        code, _, err = run(
            "approximate", "--ltl", "G p", "--bound", "1", "--target", "parity:2"
        )
        assert code == 2 and "safety" in err

    def test_alphabet_restriction(self, run, tmp_path):
        out = tmp_path / "r.hoa"
        code, _, _ = run(
            "approximate",
            "--ltl", "G p",
            "--bound", "1",
            "--alphabet", "{p}",
            "--out", str(out),
        )
        assert code == 0
        doc = read_auto(out)
        assert doc.ap_map is None  # restricted alphabets use raw letters
        assert doc.automaton.alphabet.letters == ("{p}",)

    def test_alphabet_bad_letter(self, run):
        code, _, _ = run(
            "approximate", "--ltl", "G p", "--bound", "1", "--alphabet", "{z}"
        )
        assert code == 2

    def test_alphabet_needs_ltl(self, run, tmp_path):
        src = tmp_path / "gf1.hoa"
        run("family", "gf1", "--out", str(src))
        code, _, _ = run(
            "approximate", "--in", str(src), "--bound", "1", "--alphabet", "0"
        )
        assert code == 2

    def test_bad_bound(self, run):
        code, _, _ = run("approximate", "--ltl", "G p", "--bound", "0")
        assert code == 2

    def test_bad_target(self, run):
        code, _, _ = run(
            "approximate", "--ltl", "G p", "--bound", "1", "--target", "parity:x"
        )
        assert code == 2

    def test_contract_violation_exit(self, run, tmp_path):
        src = tmp_path / "fggf.hoa"
        run("family", "fg-gf", "--out", str(src))
        # 3-color parity automaton is not a legal Buchi-to-safety input.
        code, _, err = run("approximate", "--in", str(src), "--bound", "1")
        assert code == 3 and "contract violation" in err

    def test_dot_output(self, run, tmp_path):
        out = tmp_path / "a.hoa"
        dot = tmp_path / "a.dot"
        code, _, _ = run(
            "approximate",
            "--ltl", "G p",
            "--bound", "1",
            "--out", str(out),
            "--dot", str(dot),
        )
        assert code == 0
        assert dot.read_text().startswith("digraph")

    def test_stdout_default(self, run):
        code, stdout, _ = run("approximate", "--ltl", "G p", "--bound", "1")
        assert code == 0
        assert "--BODY--" in stdout and "--END--" in stdout

    def test_formula_without_atoms(self, run):
        code, _, err = run("approximate", "--ltl", "G 1", "--bound", "1")
        assert code == 2 and "atomic propositions" in err

    @pytest.mark.parametrize("direction", ["under", "over"])
    def test_ltl_oracle_questions_are_capped(self, run, monkeypatch, direction):
        # the construction asks |Σ|^n·n questions: 2^16·16 > 10^6 is
        # refused before any is asked, and the message names 2^15·15
        start = time.perf_counter()
        code, stdout, err = run(
            "approximate", "--ltl", "G F p", "--bound", "16", "--direction", direction
        )
        assert code == 4 and stdout == ""
        assert "base 16 over 2 letters" in err and "largest bound that fits is 15" in err
        assert time.perf_counter() - start < 1
        # a bound whose count equals the ceiling still builds
        monkeypatch.setattr(lassokit.lassolab, "SCAN_CEILING", 2**3 * 3)
        code, stdout, _ = run(
            "approximate", "--ltl", "G F p", "--bound", "3", "--direction", direction
        )
        assert code == 0 and "--BODY--" in stdout
        code, _, err = run(
            "approximate", "--ltl", "G F p", "--bound", "4", "--direction", direction
        )
        assert code == 4 and "largest bound that fits is 3" in err

    @pytest.mark.parametrize("name, argv", [
        ("ltl_under", ["--ltl", "G (p -> F q)", "--bound", "3", "--direction", "under"]),
        ("ltl_over", ["--ltl", "G (p -> F q)", "--bound", "3", "--direction", "over"]),
        ("parity2", ["--in", "fg-gf.hoa", "--bound", "2", "--target", "parity:2"]),
        ("parity2_over", ["--in", "fg-gf.hoa", "--bound", "2", "--target", "parity:2",
                          "--direction", "over"]),
        ("safety_over", ["--in", "fg-gf.hoa", "--bound", "2", "--direction", "over"]),
    ])
    def test_golden_output(self, run, tmp_path, monkeypatch, name, argv):
        # Byte-for-byte the stdout and HOA text of tests/data/golden, so a
        # change to the evaluator or the constructions that moves a state,
        # a name or a label shows here.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fg-gf.hoa").write_text(lassokit.write_hoa(lassokit.fg_gf_dpa()[0]))
        code, stdout, _ = run("approximate", *argv, "--out", "out.hoa")
        assert code == 0
        assert stdout == (GOLDEN / f"approximate_{name}.stdout").read_text()
        assert (tmp_path / "out.hoa").read_text() == (
            GOLDEN / f"approximate_{name}.hoa"
        ).read_text()

    def test_ltl_output_ignores_hash_seed(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lassokit.__file__)))
        outputs = set()
        for seed in range(4):
            texts = []
            for direction in ("under", "over"):
                out = tmp_path / f"{direction}{seed}.hoa"
                proc = subprocess.run(
                    [sys.executable, "-c",
                     "import sys; from lassokit.cli import main; sys.exit(main(sys.argv[1:]))",
                     "approximate", "--ltl", "G (p -> F q)", "--bound", "3",
                     "--direction", direction, "--out", out.name],
                    cwd=tmp_path, capture_output=True, text=True, timeout=60,
                    env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
                )
                assert proc.returncode == 0, proc.stderr
                texts.append(proc.stdout + out.read_text())
            outputs.add(tuple(texts))
        assert len(outputs) == 1


class TestCheck:
    def make_gp(self, run, tmp_path):
        out = tmp_path / "gp.hoa"
        run("approximate", "--ltl", "G p", "--bound", "2", "--out", str(out))
        return out

    def test_ok(self, run, tmp_path):
        auto = self.make_gp(run, tmp_path)
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            "check",
            "--in", str(auto),
            "--ltl", "G p",
            "--bound", "2",
            "--report", str(report),
        )
        assert code == 0
        assert "verdict: ok" in stdout
        payload = json.loads(report.read_text())
        assert payload["ok"] is True and payload["n"] == 2

    def test_failure_exit_and_report(self, run, tmp_path):
        sloppy = tmp_path / "sloppy.hoa"
        sloppy.write_text(
            """HOA: v1
States: 1
Start: 0
AP: 1 "p"
Acceptance: 0 t
--BODY--
State: 0 "s"
[t] 0
--END--
"""
        )
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            "check",
            "--in", str(sloppy),
            "--ltl", "G p",
            "--bound", "1",
            "--report", str(report),
        )
        assert code == 1
        assert "FAILED" in stdout
        payload = json.loads(report.read_text())
        assert payload["ok"] is False and len(payload["mismatches"]) >= 1

    def test_reference_automaton(self, run, tmp_path):
        auto = self.make_gp(run, tmp_path)
        code, stdout, _ = run(
            "check", "--in", str(auto), "--ref", str(auto), "--bound", "2"
        )
        assert code == 0 and "verdict: ok" in stdout

    def test_reference_alphabet_mismatch(self, run, tmp_path):
        auto = self.make_gp(run, tmp_path)
        other = tmp_path / "gf1.hoa"
        run("family", "gf1", "--out", str(other))
        code, _, _ = run(
            "check", "--in", str(auto), "--ref", str(other), "--bound", "1"
        )
        assert code == 2

    @staticmethod
    def one_state(aps, label):
        names = " ".join(f'"{p}"' for p in aps)
        return (
            f"HOA: v1\nStates: 1\nStart: 0\nAP: {len(aps)} {names}\n"
            "acc-name: all\nAcceptance: 0 t\n--BODY--\n"
            f'State: 0 "s"\n[{label}] 0\n--END--\n'
        )

    def test_reference_aps_in_another_order(self, run, tmp_path):
        # The letters come out as {p,q} against {q,p}; the reference is
        # relabelled by AP subset.
        auto, ref = tmp_path / "in.hoa", tmp_path / "ref.hoa"
        auto.write_text(self.one_state(["p", "q"], "t"))
        ref.write_text(self.one_state(["q", "p"], "t"))
        code, stdout, err = run("check", "--in", str(auto), "--ref", str(ref), "--bound", "2")
        assert code == 0, err
        assert "verdict: ok (containment exact)" in stdout
        # G p written once with p as AP 0 and once with p as AP 1
        auto.write_text(self.one_state(["p", "q"], "0"))
        ref.write_text(self.one_state(["q", "p"], "1"))
        code, stdout, err = run("check", "--in", str(auto), "--ref", str(ref), "--bound", "2")
        assert code == 0 and "mismatches: 0" in stdout, err
        # against G q the mismatches use the input's letter names
        ref.write_text(self.one_state(["q", "p"], "0"))
        report = tmp_path / "r.json"
        code, stdout, err = run(
            "check", "--in", str(auto), "--ref", str(ref), "--bound", "1",
            "--report", str(report),
        )
        assert code == 1, err
        payload = json.loads(report.read_text())
        assert {(tuple(m["base"]), m["in_language"]) for m in payload["mismatches"]} == {
            (("{p}",), False), (("{q}",), True),
        }

    def test_reference_over_other_aps_is_refused(self, run, tmp_path):
        auto, ref = tmp_path / "in.hoa", tmp_path / "ref.hoa"
        auto.write_text(self.one_state(["p", "q"], "t"))
        ref.write_text(self.one_state(["r", "p"], "t"))
        code, stdout, err = run("check", "--in", str(auto), "--ref", str(ref), "--bound", "1")
        assert code == 2 and stdout == ""
        assert "reference and input alphabets differ" in err

    def test_formula_uses_documents_aps(self, run, tmp_path):
        auto = self.make_gp(run, tmp_path)
        code, _, _ = run("check", "--in", str(auto), "--ltl", "G z", "--bound", "1")
        assert code == 2  # z is not an AP of the stored automaton

    def test_raw_alphabet_needs_matching_letters(self, run, tmp_path):
        other = tmp_path / "gf1.hoa"
        run("family", "gf1", "--out", str(other))
        code, _, _ = run("check", "--in", str(other), "--ltl", "G p", "--bound", "1")
        assert code == 2

    def test_bad_inclusion_bound(self, run, tmp_path):
        auto = self.make_gp(run, tmp_path)
        code, _, _ = run(
            "check",
            "--in", str(auto),
            "--ltl", "G p",
            "--bound", "2",
            "--inclusion-bound", "1",
        )
        assert code == 2

    def test_exact_inclusion_witness_ignores_hash_seed(self, tmp_path):
        # find_accepting_lasso once walked sets of state names, so the
        # witness it reports followed string hashing.
        (tmp_path / "s.hoa").write_text(
            "HOA: v1\nStates: 2\nStart: 1\nAlphabet: 2 \"a\" \"b\"\n"
            "acc-name: all\nAcceptance: 0 t\n--BODY--\n"
            'State: 0 "s0"\n[1] 0\n[1] 1\nState: 1 "s1"\n[0] 0\n[0] 1\n--END--\n'
        )
        (tmp_path / "r.hoa").write_text(
            "HOA: v1\nStates: 1\nStart: 0\nAlphabet: 2 \"a\" \"b\"\n"
            "acc-name: Buchi\nAcceptance: 1 Inf(0)\n--BODY--\n"
            'State: 0 "r0"\n[t] 0\n--END--\n'
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(lassokit.__file__)))
        outputs = set()
        for seed in range(4):
            report = tmp_path / f"r{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from lassokit.cli import main; sys.exit(main(sys.argv[1:]))",
                 "check", "--in", "s.hoa", "--ref", "r.hoa", "--bound", "1",
                 "--report", report.name],
                cwd=tmp_path, capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            )
            assert proc.returncode == 1, proc.stderr
            outputs.add((proc.stdout, report.read_text()))
        assert len(outputs) == 1
        assert "accepted outside language: (, a)" in outputs.pop()[0]

    def test_product_names_stay_distinct(self, run, tmp_path):
        # Joined as "(p,q)", the product pairs (x, "y,z") and ("x,y", z)
        # once shared the name "(x,y,z)" and the check exited 2.
        (tmp_path / "s.hoa").write_text(
            "HOA: v1\nStates: 2\nStart: 0\nAlphabet: 2 \"a\" \"b\"\n"
            "acc-name: all\nAcceptance: 0 t\n--BODY--\n"
            'State: 0 "x"\n[0] 1\n[1] 0\nState: 1 "x,y"\n[t] 0\n--END--\n'
        )
        (tmp_path / "r.hoa").write_text(
            "HOA: v1\nStates: 2\nStart: 0\nAlphabet: 2 \"a\" \"b\"\n"
            "acc-name: Buchi\nAcceptance: 1 Inf(0)\n--BODY--\n"
            'State: 0 "y,z"\n[0] 1\n[1] 0\nState: 1 "z" {0}\n[0] 1\n[1] 0\n--END--\n'
        )
        code, stdout, err = run(
            "check", "--in", str(tmp_path / "s.hoa"), "--ref", str(tmp_path / "r.hoa"),
            "--bound", "1",
        )
        assert code == 1, err
        assert "accepted outside language: (, b)" in stdout
        # At bound 2 the scan lists (, b) too; the exact witness is the
        # same lasso and is not listed twice.
        code, stdout, err = run(
            "check", "--in", str(tmp_path / "s.hoa"), "--ref", str(tmp_path / "r.hoa"),
            "--bound", "2",
        )
        assert code == 1, err
        assert "violations: 1" in stdout
        assert stdout.count("accepted outside language: (, b)") == 1

    ACCEPT_ALL_P = (
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\nAcceptance: 0 t\n"
        '--BODY--\nState: 0 "q0"\n[t] 0\n--END--\n'
    )

    def test_ltl_containment_exact_by_default(self, run, tmp_path):
        # The accept-all automaton agrees with p -> X p on every base-1
        # lasso but accepts ({p}, {}), outside the language.
        auto = tmp_path / "w.hoa"
        auto.write_text(self.ACCEPT_ALL_P)
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            "check", "--in", str(auto), "--ltl", "p -> X p", "--bound", "1",
            "--report", str(report),
        )
        assert code == 1
        assert "mismatches: 0" in stdout
        assert "accepted outside language: ({p}, {})" in stdout
        assert "verdict: FAILED (containment exact)" in stdout
        payload = json.loads(report.read_text())
        assert payload["exact_inclusion"]
        assert payload["inclusion_violations"] == [{"base": ["{p}", "{}"], "split": 1}]

    def test_inclusion_bound_keeps_the_bounded_scan(self, run, tmp_path):
        auto = tmp_path / "w.hoa"
        auto.write_text(self.ACCEPT_ALL_P)
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            "check", "--in", str(auto), "--ltl", "p -> X p", "--bound", "1",
            "--inclusion-bound", "1", "--report", str(report),
        )
        # base 1 shows no leak, and the output says the check was bounded
        assert code == 0
        assert "verdict: ok (containment bounded to bases up to 1)" in stdout
        payload = json.loads(report.read_text())
        assert not payload["exact_inclusion"]
        code, stdout, _ = run(
            "check", "--in", str(auto), "--ltl", "p -> X p", "--bound", "1",
            "--inclusion-bound", "3",
        )
        assert code == 1 and "inclusion lassos checked: 32, violations: 8" in stdout

    def test_unaffordable_bounded_scan_exits_4(self, run, tmp_path):
        # A 62-state parity:2 approximation against a Buchi reference
        # takes the bounded scan with the default bound 62, about 4^62
        # words; it once ran until killed.
        fggf, p2 = tmp_path / "fg-gf.hoa", tmp_path / "p2.hoa"
        run("family", "fg-gf", "--out", str(fggf))
        run("approximate", "--in", str(fggf), "--bound", "3",
            "--target", "parity:2", "--out", str(p2))
        for extra in ((), ("--inclusion-bound", "9")):
            t0 = time.monotonic()
            code, stdout, err = run(
                "check", "--in", str(p2), "--ref", str(fggf), "--bound", "3", *extra
            )
            assert time.monotonic() - t0 < 1.0
            assert code == 4 and stdout == "", err
            assert "largest bound that fits is 8" in err

    def test_ceiling_counts_only_the_lassos_scanned(self, run, tmp_path):
        # Bases up to 19 over two letters are past the scan ceiling, but a
        # product that proves containment leaves only the base-3 lassos to
        # scan; a leaky input at the same bound needs the whole scan.
        gfp, leaky = tmp_path / "gfp.hoa", tmp_path / "leaky.hoa"
        run("approximate", "--ltl", "G F p", "--bound", "3", "--out", str(gfp))
        code, stdout, err = run(
            "check", "--in", str(gfp), "--ltl", "G F p", "--bound", "3",
            "--inclusion-bound", "19",
        )
        assert code == 0, err
        closed_form = sum(2**b * b for b in range(1, 20) if b != 3)
        assert f"inclusion lassos checked: {closed_form}," in stdout
        leaky.write_text(
            'HOA: v1\nStates: 1\nStart: 0\nAP: 1 "p"\nAcceptance: 0 t\n'
            '--BODY--\nState: 0 "s"\n[t] 0\n--END--\n'
        )
        code, stdout, err = run(
            "check", "--in", str(leaky), "--ltl", "G F p", "--bound", "3",
            "--inclusion-bound", "19",
        )
        assert code == 4 and stdout == "", err
        assert "largest bound that fits is 15" in err

    def test_contained_count_past_printing_exits_4(self, run, tmp_path):
        # A product that proves containment scans only base 3, but the
        # report still counts every lasso up to the bound.  Up to base
        # 14,269 over two letters that count has 4,300 digits, the most
        # Python prints; a larger bound is refused before it is summed.
        gfp, report = tmp_path / "gfp.hoa", tmp_path / "r.json"
        run("approximate", "--ltl", "G F p", "--bound", "3", "--out", str(gfp))
        args = ("check", "--in", str(gfp), "--ltl", "G F p", "--bound", "3")
        code, stdout, err = run(
            *args, "--inclusion-bound", "14269", "--report", str(report)
        )
        assert code == 0, err
        count = json.loads(report.read_text())["checked_inclusion"]
        assert len(str(count)) == 4300
        assert f"inclusion lassos checked: {count}," in stdout
        for bound in ("14270", "20000", "10000000"):
            t0 = time.monotonic()
            code, stdout, err = run(*args, "--inclusion-bound", bound)
            assert time.monotonic() - t0 < 1.0
            assert code == 4 and stdout == "", err
            assert "too many to count" in err

    def test_jobs_option_is_gone(self, run, tmp_path):
        auto = self.make_gp(run, tmp_path)
        code, _, _ = run(
            "check", "--in", str(auto), "--ltl", "G p", "--bound", "2", "--jobs", "3"
        )
        assert code == 2
        code, _, _ = run(
            "synthesize", "--ltl", "G p", "--bound", "1", "--states", "1",
            "--colors", "1", "--jobs", "2",
        )
        assert code == 2


class TestSynthesize:
    def test_accept_all_is_not_an_underapproximation(self, run, tmp_path):
        # Containment was once checked only up to base n*k, so this query
        # printed SAT with the 1-state accept-all automaton.
        code, stdout, err = run(
            "synthesize", "--ltl", "p -> X p", "--bound", "1", "--states", "1",
            "--colors", "1",
        )
        assert code == 1 and stdout == "UNSAT\n", err

    def test_minimal_expansion_gap_is_not_a_solver_failure(self, run):
        # The matrix once admitted the accept-all automaton at k=1 and
        # this exited 5, failing re-verification.  Every size is now
        # within the search ceiling, so brute force decides each one.
        code, stdout, err = run(
            "synthesize", "--ltl", "p -> X p", "--bound", "2", "--minimal",
            "--max-states", "3", "--colors", "1",
        )
        assert code == 0 and stdout.startswith("SAT: k=3,"), err

    def test_expansion_leak_falls_back_to_brute_force(self, run, tmp_path):
        # The expansion witness accepts ({q}{})^w, outside the language.
        # The query is within the search ceiling, so brute force answers,
        # with a witness that is contained.
        out = tmp_path / "w.hoa"
        code, stdout, err = run(
            "synthesize", "--ltl", "q -> p R q", "--bound", "1", "--states", "2",
            "--colors", "2", "--out", str(out),
        )
        assert code == 0 and stdout.startswith("SAT: k=2,"), err
        doc = read_auto(out)
        f = parse_ltl("q -> p R q", doc.ap_map.aps)
        report = check_lasso_precise(doc.automaton, ltl_oracle(f, doc.ap_map), 1)
        assert report.ok and report.exact_inclusion

    def test_fixed_budget_sat(self, run, tmp_path):
        out = tmp_path / "w.hoa"
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            "synthesize",
            "--ltl", "G p",
            "--bound", "1",
            "--states", "1",
            "--colors", "1",
            "--out", str(out),
            "--report", str(report),
        )
        assert code == 0
        assert stdout.startswith("SAT: k=1")
        doc = read_auto(out)
        assert doc.automaton.size == 1
        payload = json.loads(report.read_text())
        assert payload == {
            "verdict": "sat",
            "k": 1,
            "states": 1,
            "colors": 1,
            "automaton": str(out),
        }

    def test_unsat_exit(self, run, tmp_path):
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            "synthesize",
            "--ltl", "F G p",
            "--bound", "2",
            "--states", "1",
            "--colors", "1",
            "--report", str(report),
        )
        assert code == 1 and "UNSAT" in stdout
        assert json.loads(report.read_text())["verdict"] == "unsat"

    def test_minimal(self, run, tmp_path):
        out = tmp_path / "w.hoa"
        code, stdout, _ = run(
            "synthesize",
            "--ltl", "G F p",
            "--bound", "2",
            "--minimal",
            "--max-states", "3",
            "--colors", "1",
            "--out", str(out),
        )
        assert code == 0
        assert stdout.startswith("SAT: k=2")
        assert read_auto(out).automaton.size == 2

    def test_minimal_unsat(self, run):
        code, stdout, _ = run(
            "synthesize",
            "--ltl", "F G p",
            "--bound", "2",
            "--minimal",
            "--max-states", "1",
            "--colors", "1",
        )
        assert code == 1 and "UNSAT for all k <= 1" in stdout

    def test_emit_qbf(self, run, tmp_path):
        qbf = tmp_path / "q.qdimacs"
        code, _, _ = run(
            "synthesize",
            "--ltl", "G p",
            "--bound", "1",
            "--states", "1",
            "--colors", "1",
            "--emit-qbf", str(qbf),
        )
        assert code == 0
        text = qbf.read_text()
        assert text.startswith("c lasso-precise synthesis:")
        assert any(l.startswith("p cnf ") for l in text.splitlines())

    def test_usage_errors(self, run):
        assert run("synthesize", "--ltl", "G p", "--bound", "1", "--colors", "1")[0] == 2
        assert (
            run(
                "synthesize",
                "--ltl", "G p",
                "--bound", "1",
                "--minimal",
                "--colors", "1",
            )[0]
            == 2
        )
        assert (
            run(
                "synthesize",
                "--ltl", "G p",
                "--bound", "1",
                "--minimal",
                "--max-states", "2",
                "--colors", "1",
                "--emit-qbf", "x.qdimacs",
            )[0]
            == 2
        )
        assert (
            run(
                "synthesize",
                "--ltl", "G p",
                "--bound", "1",
                "--states", "1",
                "--colors", "0",
            )[0]
            == 2
        )
        # each message names the real problem, not a missing --states
        for flags, message in (
            (("--states", "0"), "--states must be positive"),
            (("--states", "-1"), "--states must be positive"),
            (("--minimal", "--max-states", "2", "--states", "2"), "give one"),
            (("--states", "2", "--max-states", "3"), "use it with --minimal"),
        ):
            code, stdout, err = run(
                "synthesize", "--ltl", "G p", "--bound", "1", "--colors", "1", *flags
            )
            assert code == 2 and stdout == "", flags
            assert message in err and "is required" not in err, flags

    def test_external_solver_flag(self, run, tmp_path):
        solver = tmp_path / "no.sh"
        solver.write_text("#!/bin/sh\nexit 20\n")
        solver.chmod(solver.stat().st_mode | stat.S_IXUSR)
        code, stdout, _ = run(
            "synthesize",
            "--ltl", "G p",
            "--bound", "1",
            "--states", "1",
            "--colors", "1",
            "--solver", str(solver),
        )
        assert code == 1 and "UNSAT" in stdout

    def test_external_solver_env(self, run, monkeypatch, tmp_path):
        solver = tmp_path / "no.sh"
        solver.write_text("#!/bin/sh\nexit 20\n")
        solver.chmod(solver.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv(SOLVER_ENV_VAR, str(solver))
        code, stdout, _ = run(
            "synthesize",
            "--ltl", "G p",
            "--bound", "1",
            "--states", "1",
            "--colors", "1",
        )
        assert code == 1 and "UNSAT" in stdout

    def test_solver_failure_exit(self, run, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
        code, _, err = run(
            "synthesize",
            "--ltl", "G p",
            "--bound", "1",
            "--states", "1",
            "--colors", "1",
            "--solver", "/nonexistent/qbf",
        )
        assert code == 5 and "solver failure" in err

    def test_resource_limit_exit(self, run, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
        code, _, err = run(
            "synthesize",
            "--ltl", "G F p",
            "--bound", "3",
            "--states", "5",
            "--colors", "1",
        )
        assert code == 4 and "resource limit" in err


class TestFamily:
    def test_stdout(self, run):
        code, stdout, _ = run("family", "gf1")
        assert code == 0 and "--BODY--" in stdout

    def test_gf1_file(self, run, tmp_path):
        out = tmp_path / "gf1.hoa"
        assert run("family", "gf1", "--out", str(out))[0] == 0
        assert read_auto(out).automaton.size == 2

    def test_omega(self, run, tmp_path):
        out = tmp_path / "o.hoa"
        assert run("family", "omega", "--k", "2", "--out", str(out))[0] == 0
        assert read_auto(out).automaton.size == 5

    def test_omega_needs_k(self, run):
        assert run("family", "omega")[0] == 2

    def test_phi_n_description(self, run, tmp_path):
        out = tmp_path / "phi.txt"
        code, _, _ = run(
            "family", "phi-n", "--n", "2", "--sigma", "01", "--out", str(out)
        )
        assert code == 0
        text = out.read_text()
        assert "family: phi-n" in text
        assert "alphabet: 0 1" in text
        assert "n: 2" in text

    def test_phi_n_usage(self, run):
        assert run("family", "phi-n", "--n", "2")[0] == 2
        assert run("family", "phi-n", "--sigma", "01")[0] == 2
        assert run("family", "phi-n", "--n", "2", "--sigma", "00")[0] == 2

    def test_unknown_family(self, run):
        code, _, err = run("family", "does-not-exist")
        assert code == 2 and "unknown family" in err

    def test_dot(self, run, tmp_path):
        out = tmp_path / "g.hoa"
        dot = tmp_path / "g.dot"
        assert run("family", "gf1", "--out", str(out), "--dot", str(dot))[0] == 0
        assert dot.read_text().startswith("digraph")


class TestInfo:
    def test_fields(self, run, tmp_path):
        src = tmp_path / "gf1.hoa"
        run("family", "gf1", "--out", str(src))
        code, stdout, _ = run("info", "--in", str(src))
        assert code == 0
        assert "states: 2" in stdout
        assert "colors: 2 (Buchi)" in stdout
        assert "deterministic: True" in stdout
        assert "complete: True" in stdout
        assert "alphabet: 0 1" in stdout

    def test_parity_class(self, run, tmp_path):
        src = tmp_path / "fggf.hoa"
        run("family", "fg-gf", "--out", str(src))
        _, stdout, _ = run("info", "--in", str(src))
        assert "colors: 3 (parity)" in stdout

    def test_safety_class(self, run, tmp_path):
        src = tmp_path / "fair.hoa"
        run("family", "fairness-pairs", "--out", str(src))
        _, stdout, _ = run("info", "--in", str(src))
        assert "colors: 1 (safety)" in stdout

    def test_missing_file(self, run, tmp_path):
        code, _, _ = run("info", "--in", str(tmp_path / "nope.hoa"))
        assert code == 2


class TestComplement:
    def test_involution_on_language(self, run, tmp_path):
        src = tmp_path / "gf1.hoa"
        run("family", "gf1", "--out", str(src))
        once = tmp_path / "c1.hoa"
        twice = tmp_path / "c2.hoa"
        assert run("complement", "--in", str(src), "--out", str(once))[0] == 0
        assert run("complement", "--in", str(once), "--out", str(twice))[0] == 0
        a = read_auto(src).automaton
        b = read_auto(once).automaton
        c = read_auto(twice).automaton
        for w in all_lassos(a.alphabet, 3):
            assert accepts_lasso(b, w) != accepts_lasso(a, w), str(w)
            assert accepts_lasso(c, w) == accepts_lasso(a, w), str(w)

    def test_needs_deterministic(self, run, tmp_path):
        src = tmp_path / "omega.hoa"
        run("family", "omega", "--k", "2", "--out", str(src))
        code, _, err = run("complement", "--in", str(src))
        assert code == 3 and "contract violation" in err


class TestPlumbing:
    def test_unknown_subcommand(self, run):
        assert run("frobnicate")[0] == 2

    def test_missing_required_option(self, run):
        assert run("approximate", "--ltl", "G p")[0] == 2

    def test_unwritable_output(self, run, tmp_path):
        code, _, err = run(
            "approximate",
            "--ltl", "G p",
            "--bound", "1",
            "--out", str(tmp_path / "missing" / "x.hoa"),
        )
        assert code == 2 and "cannot write" in err

    def test_atomic_write_failure_leaves_nothing(self, run, tmp_path, monkeypatch):
        import lassokit.cli as cli_mod

        def broken_replace(src, dst):
            raise PermissionError("simulated")

        monkeypatch.setattr(cli_mod.os, "replace", broken_replace)
        target = tmp_path / "x.hoa"
        code, _, _ = run(
            "approximate", "--ltl", "G p", "--bound", "1", "--out", str(target)
        )
        assert code == 2
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file was cleaned up

    def test_corrupt_hoa_input(self, run, tmp_path):
        bad = tmp_path / "bad.hoa"
        bad.write_text("HOA: v1\nStates: 1\n")
        assert run("info", "--in", str(bad))[0] == 2
