"""Self-test of the benchmark at tiny sizes, so the runner cannot rot.

Runs every workload in both modes with ``--tiny`` and checks the result
line against BENCHMARK.json, and checks that the oracle rejects a known
unsound synthesis witness.  Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pb_oracle as orc  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(["--workload", "check", "--seconds", "1"], str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_rejects_an_unsound_witness():
    # One state, every letter loops: contained in p -> X p only up to base 1.
    everything = orc.Dpa(2, 0, [[0, 0]], [0], ("p",))
    f = ("implies", ("ap", "p"), ("X", ("ap", "p")))
    phi = orc.FormulaOracle(f, ("p",))
    assert orc.first_mismatch(everything, phi, 1) is None
    assert orc.first_counterexample(everything, phi, 1, "under") is None
    assert orc.first_counterexample(everything, phi, 2, "under") is not None


def test_oracle_containment_is_exact():
    gf = orc.Dpa(2, 0, [[0, 1], [0, 1]], [1, 2], ("p",))  # G F p
    fg = orc.Dpa(2, 0, [[0, 1], [0, 1]], [1, 0], ("p",))  # F G p: colour 1 on !p
    assert orc.contained(fg, gf)
    assert not orc.contained(gf, fg)
    assert orc.lasso_count_upto(2, 3) == sum(1 for _ in orc.lassos_upto(2, 3)) == 34
