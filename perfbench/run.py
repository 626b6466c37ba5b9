"""Benchmark runner for lassokit: one workload in one process.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

The runner imports lassokit from ``src/`` next to this directory, builds
the workload's seeded inputs, then calls ``lassokit.cli.main(argv)`` for
each operation of the workload, one at a time, in passes over the fixed
operation list until ``--seconds`` have been spent in timed passes.  Pass
0 is an untimed warm-up; every timed pass must reproduce its results
exactly, and after the last pass the independent oracle (pb_oracle)
checks them.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  ``--trace 1`` also writes the spans to
``perfbench/out/``.  See README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import pb_inputs  # noqa: E402
import pb_trace  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "out_states": "states",
}


def import_lassokit():
    """A fresh import of the package from ``src/``: earlier imports are
    dropped so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "lassokit" or m.startswith("lassokit.")]:
        del sys.modules[name]
    lk = importlib.import_module("lassokit")
    importlib.import_module("lassokit.cli")
    if not os.path.abspath(lk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lassokit imported from {lk.__file__}, not from {SRC}")
    return lk


def setup(workload: str, seed: int, tiny: bool, workdir: str):
    """Import lassokit and build the workload's inputs; returns the package
    and the operation list.  The seed alone fixes the inputs."""
    lk = import_lassokit()
    b = pb_inputs.OpList(lk, workdir, random.Random(f"{workload}/{seed}"))
    pb_inputs.WORKLOADS[workload](b, tiny)
    return lk, b.ops


def read_or_none(path):
    if path is None or not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def run_op(lk, op) -> tuple:
    """One CLI call with its output captured; None as exit code when it
    raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lk.cli.main(list(op.argv))
    except Exception as exc:  # a crash is a failed operation, not a dead run
        return None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def collect(ops, outcomes) -> list:
    return [
        pb_inputs.Result(rc, text, read_or_none(op.out), read_or_none(op.report))
        for op, (rc, text) in zip(ops, outcomes)
    ]


def run_pass(lk, ops) -> tuple:
    """Run every operation once; returns the summed operation times and the
    outcomes.

    Outside the timed region each operation first gets what a fresh CLI
    process would have: no output files from an earlier pass (replacing a
    file by rename makes ext4 flush the new data to disk first, about 50 ms
    a file on the reference box, which would measure the disk) and a
    collected heap, so the garbage collector runs on the same schedule in
    every pass instead of on whatever the previous operations left."""
    total = 0.0
    outcomes = []
    for op in ops:
        for path in (op.out, op.report):
            if path is not None and os.path.exists(path):
                os.unlink(path)
        gc.collect()
        t0 = perf_counter()
        outcomes.append(run_op(lk, op))
        total += perf_counter() - t0
    return total, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(pb_inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "lassokit")):
        print(f"error: no lassokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir = os.path.join(OUT, "work-" + tag)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gc.collect()
        t0 = perf_counter()
        lk, ops = setup(args.workload, args.seed, args.tiny, workdir)
        setup_times.append(perf_counter() - t0)

    tracer = None
    if args.trace:
        tracer = pb_trace.Tracer()
        tracer.install(lk)
    try:
        # pass 0: untimed warm-up whose results the oracle checks below
        _, outcomes = run_pass(lk, ops)
        reference = collect(ops, outcomes)
        times, pass_spans, repeats = [], [], []
        elapsed = 0.0
        while elapsed < args.seconds or not times:
            first_span = len(tracer.spans) if tracer else 0
            dt, outcomes = run_pass(lk, ops)
            times.append(dt)
            elapsed += dt
            if tracer:
                pass_spans.append(tracer.spans[first_span:])
            repeats.append([res == ref for res, ref in zip(collect(ops, outcomes), reference)])
    finally:
        if tracer:
            tracer.uninstall()
    # read before the oracle runs, so the figure is lassokit's alone
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok = []
    out_states = 0
    for op, res in zip(ops, reference):
        try:
            if res.rc is None:
                raise pb_inputs.CheckFailed(res.stdout)
            out_states += op.verify(res)
            ok.append(True)
        except Exception as exc:  # any oracle failure fails the operation
            print(f"FAILED {' '.join(op.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok.append(False)
    attempted = len(ops) * (1 + len(times))
    failed = ok.count(False) + sum(
        1 for same in repeats for i, s in enumerate(same) if not (ok[i] and s)
    )
    shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(times)
    if args.trace:
        per_pass = [pb_trace.layer_metrics(spans) for spans in pass_spans]
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
            for name, unit in pb_trace.LAYER_METRICS.items()
        }
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "traced_wall_s": wall,
                "pass_times_s": times,
                "per_pass": per_pass,
                "spans": tracer.spans,
            }, fh)
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "out_states": out_states,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(times)} timed passes of {len(ops)} operations (plus the checked warm-up pass)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print("  set-ups (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    print("  timed passes (s): " + " ".join(f"{t:.3f}" for t in times))
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
