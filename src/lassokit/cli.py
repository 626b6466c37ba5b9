"""Command line front end.

Subcommands cover the library surface: `approximate` builds precision
preserving under/over-approximations, `check` compares an automaton
against an oracle on the lassos of one base length and tests containment
(exactly by default where it can), `synthesize` searches for small
lasso-precise automata, `family` emits the bundled fixtures, and
`info`/`complement` are small utilities on HOA files.

Exit codes are a total function of the outcome class: 0 success (or
"check agrees"), 1 check failure or unsatisfiable synthesis, 2 usage or
parse errors, 3 contract violations, 4 resource limits, 5 external solver
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional

from .constructions import (
    build_safety_lasso_precise,
    buechi_to_safety,
    color_reduction_state_bound,
    counter_state_bound,
    overapproximate,
    reduce_parity_colors,
    safety_state_bound,
)
from .core import (
    Alphabet,
    ContractViolation,
    InputError,
    ParityAutomaton,
    ParseError,
    ResourceLimit,
    SolverFailure,
    complement,
    is_buchi,
    is_complete,
    is_deterministic,
    is_safety,
)
from .families import FAMILIES
from .hoa import HoaDocument, parse_hoa, to_dot, write_hoa
from .lassolab import _require_affordable_scan, automaton_oracle, check_lasso_precise
from .ltl import ApLetterMap, format_ltl, ltl_oracle, neg, parse_ltl
from .synth import (
    SynthesisQuery,
    default_solver_command,
    emit_qdimacs,
    encode,
    synthesize_minimal,
    solve_query,
    verify_certificate,
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lassokit",
        description="approximate, check, and synthesize lasso-precise omega-automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("approximate", help="build an n-lasso-precise approximation")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--ltl", help="LTL formula as the language to approximate")
    src.add_argument("--in", dest="infile", help="HOA automaton input")
    ap.add_argument("--bound", type=int, required=True, help="precision bound n")
    ap.add_argument(
        "--target",
        default="safety",
        help="output class: 'safety' or 'parity:<colors>'",
    )
    ap.add_argument(
        "--direction", choices=("under", "over"), default="under"
    )
    ap.add_argument(
        "--alphabet",
        help="semicolon-separated letter subset to restrict an LTL alphabet",
    )
    ap.add_argument("--out", default="-", help="output path ('-' for stdout)")
    ap.add_argument("--dot", help="also write a DOT rendering here")
    ap.set_defaults(handler=_cmd_approximate)

    ck = sub.add_parser("check", help="compare an automaton against an oracle")
    ck.add_argument("--in", dest="infile", required=True)
    ref = ck.add_mutually_exclusive_group(required=True)
    ref.add_argument("--ltl", help="LTL formula oracle")
    ref.add_argument("--ref", help="reference automaton oracle (HOA)")
    ck.add_argument("--bound", type=int, required=True, help="precision bound n")
    ck.add_argument(
        "--inclusion-bound",
        type=int,
        default=None,
        help="largest lasso base for the containment half; with --ltl the"
        " verdict is bounded to this base instead of exact",
    )
    ck.add_argument("--report", help="write the JSON report here")
    ck.set_defaults(handler=_cmd_check)

    sy = sub.add_parser("synthesize", help="search for a small lasso-precise automaton")
    sy.add_argument("--ltl", required=True)
    sy.add_argument("--bound", type=int, required=True, help="precision bound n")
    sy.add_argument("--states", type=int, help="state budget k")
    sy.add_argument("--colors", type=int, required=True, help="color budget m")
    sy.add_argument("--minimal", action="store_true", help="search k = 1..max-states")
    sy.add_argument("--max-states", type=int, default=None)
    sy.add_argument(
        "--target",
        choices=("deterministic", "nondeterministic"),
        default="deterministic",
        help="nondeterministic mode is experimental",
    )
    sy.add_argument(
        "--solver",
        default=None,
        help="external QBF solver command (default: $LASSOKIT_QBF_SOLVER)",
    )
    sy.add_argument("--emit-qbf", dest="emit_qbf", help="dump the QDIMACS encoding")
    sy.add_argument("--out", default=None, help="write the witness automaton here")
    sy.add_argument("--dot", help="also write a DOT rendering here")
    sy.add_argument("--report", help="write a JSON result summary here")
    sy.set_defaults(handler=_cmd_synthesize)

    fa = sub.add_parser("family", help="emit a bundled fixture")
    fa.add_argument("name", help="one of: " + ", ".join(sorted(FAMILIES)))
    fa.add_argument("--k", type=int, default=None)
    fa.add_argument("--n", type=int, default=None)
    fa.add_argument("--sigma", default=None, help="letters, one character each")
    fa.add_argument("--out", default="-")
    fa.add_argument("--dot", help="also write a DOT rendering here")
    fa.set_defaults(handler=_cmd_family)

    nf = sub.add_parser("info", help="describe a HOA automaton")
    nf.add_argument("--in", dest="infile", required=True)
    nf.set_defaults(handler=_cmd_info)

    co = sub.add_parser("complement", help="complement a deterministic automaton")
    co.add_argument("--in", dest="infile", required=True)
    co.add_argument("--out", default="-")
    co.add_argument("--dot", help="also write a DOT rendering here")
    co.set_defaults(handler=_cmd_complement)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing

def _write_text(path: str, text: str) -> None:
    """Write whole files atomically: temp file in the target directory,
    then rename.  '-' streams to stdout."""
    if path == "-":
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".lassokit-")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc}") from None
        raise


def _read_doc(path: str) -> HoaDocument:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_hoa(text)


def _require_bound(n: int) -> int:
    if n < 1:
        raise InputError("--bound must be a positive lasso base length")
    return n


def _formula_with_map(text: str, aps: Optional[tuple[str, ...]] = None):
    if aps is None:
        probe = parse_ltl(text, None)
        names = sorted(probe.atoms())
        if not names:
            raise InputError(
                "formula has no atomic propositions; cannot infer an alphabet"
            )
        return probe, ApLetterMap.from_aps(names)
    return parse_ltl(text, aps), ApLetterMap.from_aps(aps, sort=False)


def _restrict_alphabet(amap: ApLetterMap, spec: Optional[str]) -> Alphabet:
    if spec is None:
        return amap.alphabet
    chosen = [part.strip() for part in spec.split(";") if part.strip()]
    if not chosen:
        raise InputError("--alphabet selected no letters")
    for letter in chosen:
        if letter not in amap.alphabet:
            raise InputError(f"letter {letter!r} is not in the formula alphabet")
    return Alphabet(tuple(chosen))


def _emit_automaton(args, a: ParityAutomaton, ap_map=None, name=None, comments=()):
    text = write_hoa(a, ap_map=ap_map, name=name, comments=comments)
    _write_text(args.out, text)
    if getattr(args, "dot", None):
        _write_text(args.dot, to_dot(a))


# ---------------------------------------------------------------------------
# approximate

def _parse_target(target: str) -> Optional[int]:
    """None for safety output, otherwise the color budget."""
    if target == "safety":
        return None
    if target.startswith("parity:"):
        try:
            m_prime = int(target.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad color budget in target {target!r}") from None
        if m_prime < 1:
            raise InputError("color budget must be positive")
        return m_prime
    raise InputError(f"unknown target {target!r}; use safety or parity:<colors>")


def _cmd_approximate(args) -> int:
    n = _require_bound(args.bound)
    budget = _parse_target(args.target)
    if args.ltl is not None:
        if budget is not None:
            raise InputError("LTL inputs build safety approximations only")
        formula, amap = _formula_with_map(args.ltl)
        sigma = _restrict_alphabet(amap, args.alphabet)
        # the construction asks the oracle about every lasso of base n, as
        # many questions as a precision scan of base n
        _require_affordable_scan(len(sigma), n, n, contained=True)
        bound = safety_state_bound(len(sigma), n)
        if args.direction == "under":
            out = build_safety_lasso_precise(ltl_oracle(formula, amap), sigma, n)
        else:
            inner = build_safety_lasso_precise(ltl_oracle(neg(formula), amap), sigma, n)
            out = complement(inner)
            bound += 1  # completion sink
        ap_out = amap if sigma == amap.alphabet else None
        what = f"{args.direction}-approximation of LTL {format_ltl(formula)}"
    else:
        if args.alphabet is not None:
            raise InputError("--alphabet applies to LTL inputs only")
        doc = _read_doc(args.infile)
        a = doc.automaton
        if args.direction == "over":
            out = overapproximate(a, n, "safety" if budget is None else budget)
            bound = None
        elif budget is None:
            bound = counter_state_bound(a, n)
            out = buechi_to_safety(a, n)
        else:
            bound = color_reduction_state_bound(a, n, budget)
            out = reduce_parity_colors(a, n, budget)
        ap_out = doc.ap_map
        what = f"{args.direction}-approximation of {args.infile}"

    if bound is None:
        print(f"states: {out.size}")
        size_line = f"states {out.size}"
    else:
        print(f"states: {out.size} (theorem bound {bound})")
        size_line = f"states {out.size} within bound {bound}"
    _emit_automaton(
        args,
        out,
        ap_map=ap_out,
        comments=(what, f"precision bound n={n}", size_line),
    )
    return 0


# ---------------------------------------------------------------------------
# check

def _cmd_check(args) -> int:
    n = _require_bound(args.bound)
    doc = _read_doc(args.infile)
    a = doc.automaton
    if args.ltl is not None:
        if doc.ap_map is not None:
            formula = parse_ltl(args.ltl, doc.ap_map.aps)
            amap = doc.ap_map
        else:
            formula, amap = _formula_with_map(args.ltl)
            if amap.alphabet.letters != a.alphabet.letters:
                raise InputError(
                    "automaton alphabet does not match the formula's AP alphabet"
                )
        phi = ltl_oracle(formula, amap)
    else:
        phi = automaton_oracle(_reference_onto(_read_doc(args.ref), doc))
    report = check_lasso_precise(a, phi, n, inclusion_bound=args.inclusion_bound)
    print(report.summary())
    if args.report:
        _write_text(args.report, report.to_json() + "\n")
    return 0 if report.ok else 1


def _reference_onto(ref_doc: HoaDocument, doc: HoaDocument) -> ParityAutomaton:
    """The reference automaton over the input's letters: as it is when the
    letters agree, relabelled by AP subset when both documents map the
    same APs in different orders."""
    ref = ref_doc.automaton
    if ref.alphabet.letters == doc.automaton.alphabet.letters:
        return ref
    ref_map, in_map = ref_doc.ap_map, doc.ap_map
    if ref_map is None or in_map is None or set(ref_map.aps) != set(in_map.aps):
        raise InputError("reference and input alphabets differ")
    onto = {x: in_map.letter_of(ref_map.aps_of(x)) for x in ref.alphabet}
    return ParityAutomaton(
        doc.automaton.alphabet,
        ref.states,
        ref.initial,
        {(q, onto[x]): targets for (q, x), targets in ref.transitions.items()},
        ref.coloring,
    )


# ---------------------------------------------------------------------------
# synthesize

def _cmd_synthesize(args) -> int:
    n = _require_bound(args.bound)
    if args.colors < 1:
        raise InputError("--colors must be positive")
    formula, amap = _formula_with_map(args.ltl)
    solver = args.solver if args.solver is not None else default_solver_command()

    if args.minimal:
        if args.states is not None:
            raise InputError(
                "--states fixes the budget and --minimal searches for it: give one"
            )
        if args.max_states is None or args.max_states < 1:
            raise InputError("--minimal needs --max-states >= 1")
        if args.emit_qbf:
            raise InputError("--emit-qbf needs a fixed --states budget")
        found = synthesize_minimal(
            formula,
            amap,
            n,
            args.colors,
            args.max_states,
            target=args.target,
            solver=solver,
        )
        if found is None:
            print(f"UNSAT for all k <= {args.max_states}")
            _write_result(args, "unsat", None, None)
            return 1
        k, witness = found
    else:
        if args.max_states is not None:
            raise InputError("--max-states bounds --minimal's search; use it with --minimal")
        if args.states is None:
            raise InputError("--states is required (or use --minimal)")
        if args.states < 1:
            raise InputError("--states must be positive")
        q = SynthesisQuery(formula, amap, n, args.states, args.colors, args.target)
        if args.emit_qbf:
            _write_text(args.emit_qbf, emit_qdimacs(encode(q)))
        witness = solve_query(q, solver=solver)
        if witness is None:
            print("UNSAT")
            _write_result(args, "unsat", None, None)
            return 1
        report = verify_certificate(q, witness)
        if not report.ok:
            raise SolverFailure(
                "certificate failed independent re-verification: "
                + report.summary()
            )
        k = args.states

    print(f"SAT: k={k}, {witness.size} states, {witness.color_count} colors")
    if args.out:
        _emit_automaton(
            args,
            witness,
            ap_map=amap,
            comments=(
                f"synthesized for {format_ltl(formula)}",
                f"precision bound n={n}, states k={k}, colors m={args.colors}",
            ),
        )
    elif getattr(args, "dot", None):
        _write_text(args.dot, to_dot(witness))
    _write_result(args, "sat", k, witness)
    return 0


def _write_result(args, verdict: str, k: Optional[int], witness) -> None:
    if not args.report:
        return
    payload = {
        "verdict": verdict,
        "k": k,
        "states": witness.size if witness is not None else None,
        "colors": witness.color_count if witness is not None else None,
        "automaton": args.out if witness is not None else None,
    }
    _write_text(args.report, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# family / info / complement

def _cmd_family(args) -> int:
    spec = FAMILIES.get(args.name)
    if spec is None:
        raise InputError(f"unknown family {args.name!r}; known: " + ", ".join(sorted(FAMILIES)))
    if args.name == "omega":
        if args.k is None or args.k < 1:
            raise InputError("family omega needs --k >= 1")
        built = spec.build(args.k)
    elif args.name == "phi-n":
        if args.n is None or args.n < 1 or not args.sigma:
            raise InputError("family phi-n needs --n >= 1 and --sigma letters")
        letters = tuple(args.sigma)
        if len(set(letters)) != len(letters):
            raise InputError("--sigma letters must be distinct")
        spec.build(Alphabet(letters), args.n)  # validates the parameters
        text = (
            f"family: {spec.name}\n"
            f"kind: membership oracle\n"
            f"alphabet: {' '.join(letters)}\n"
            f"n: {args.n}\n"
            f"note: {spec.note}\n"
        )
        _write_text(args.out, text)
        return 0
    else:
        built = spec.build()
    _emit_automaton(args, built, comments=(f"family {spec.name}: {spec.note}",))
    return 0


def _cmd_info(args) -> int:
    doc = _read_doc(args.infile)
    a = doc.automaton
    if is_safety(a):
        klass = "safety"
    elif is_buchi(a):
        klass = "Buchi"
    else:
        klass = "parity"
    print(f"name: {doc.name or '(none)'}")
    print(f"states: {a.size}")
    print(f"colors: {a.color_count} ({klass})")
    print(f"deterministic: {is_deterministic(a)}")
    print(f"complete: {is_complete(a)}")
    print(f"alphabet: {' '.join(a.alphabet.letters)}")
    return 0


def _cmd_complement(args) -> int:
    doc = _read_doc(args.infile)
    out = complement(doc.automaton)
    _emit_automaton(
        args,
        out,
        ap_map=doc.ap_map,
        comments=(f"complement of {args.infile}",),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
