"""Layer tracing from outside the program.

``Tracer.install`` replaces public lassokit functions with wrappers, in
every lassokit module that holds them by name, and ``uninstall`` puts the
originals back.  Calls that happen a few dozen times per pass become
spans (name, parent, start, end, attributes); calls that happen thousands
of times (lasso acceptance, LTL evaluation, the oracle closure, circuit
folding) are only counted and timed inside the span that encloses them,
so the trace stays small and cheap.  Everything stays in memory until the
runner writes it out.
"""

from __future__ import annotations

import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent id, name, start, end, attrs]
        self.stack: list = []
        self.patches: list = []
        # hot calls before any span opens land here
        self.root = [-1, -1, "root", 0.0, 0.0, {}]

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, func, attrs=None):
        """Record every call of ``func`` as a span; ``attrs(args, result)``
        adds attributes once it returns."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = [len(spans), stack[-1][0] if stack else -1, label, perf_counter(), 0.0, {}]
            spans.append(rec)
            stack.append(rec)
            try:
                out = func(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5].update(attrs(args, out))
            return out

        return traced

    def hot(self, name: str, func, value=None):
        """Count and time every call of ``func`` in the enclosing span;
        ``value(result)``, if given, is summed under ``name``."""
        stack, root = self.stack, self.root
        calls_key, time_key = name + ".calls", name + ".s"

        def counted(*args, **kwargs):
            t0 = perf_counter()
            out = func(*args, **kwargs)
            dt = perf_counter() - t0
            attrs = (stack[-1] if stack else root)[5]
            attrs[calls_key] = attrs.get(calls_key, 0) + 1
            attrs[time_key] = attrs.get(time_key, 0.0) + dt
            if value is not None:
                attrs[name] = attrs.get(name, 0) + value(out)
            return out

        return counted

    # -- patching --------------------------------------------------------

    def _replace(self, module: str, attr: str, make) -> None:
        orig = getattr(sys.modules[module], attr)
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if (name == "lassokit" or name.startswith("lassokit.")) and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self.patches.append((mod, attr, orig))

    def _replace_method(self, cls, attr: str, make) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        self.patches.append((cls, attr, orig))

    def install(self, lk) -> None:
        """Wrap the layer entry points of the imported package ``lk``."""
        sp, hot = self.span, self.hot
        cons = lk.constructions

        def bounded(label, bound_of):
            def attrs(args, out):
                return {"states": out.size, "bound": bound_of(*args[:3])}
            return lambda f: sp(label, f, attrs)

        def ltl_oracle(orig):
            def wrapped(*args, **kwargs):
                return hot("ltl.oracle", orig(*args, **kwargs))
            return wrapped

        def report_lassos(args, report):
            return {"lassos": report.checked_equal + report.checked_inclusion}

        table = [
            ("lassokit.cli", "main", lambda f: sp(lambda a: "cli." + a[0][0], f)),
            ("lassokit.hoa", "parse_hoa", lambda f: sp("hoa.parse", f)),
            ("lassokit.hoa", "write_hoa", lambda f: sp(
                "hoa.write", f, lambda a, out: {"bytes": len(out.encode())})),
            ("lassokit.ltl", "ltl_oracle", ltl_oracle),
            ("lassokit.ltl", "eval_on_lasso", lambda f: hot("ltl.eval", f)),
            ("lassokit.constructions", "build_safety_lasso_precise", bounded(
                "constructions.safety", lambda phi, sigma, n: cons.safety_state_bound(len(sigma), n))),
            ("lassokit.constructions", "buechi_to_safety", bounded(
                "constructions.counter", cons.counter_state_bound)),
            ("lassokit.constructions", "reduce_parity_colors", bounded(
                "constructions.color", cons.color_reduction_state_bound)),
            ("lassokit.constructions", "overapproximate", lambda f: sp("constructions.over", f)),
            ("lassokit.core", "accepts_lasso", lambda f: hot("core.accepts", f)),
            ("lassokit.core", "check_inclusion_exact", lambda f: sp("core.inclusion_exact", f)),
            ("lassokit.lassolab", "check_lasso_precise", lambda f: sp(
                "lassolab.check", f, report_lassos)),
            ("lassokit.synth", "encode", lambda f: sp("synth.encode", f)),
            ("lassokit.synth", "solve_by_expansion", lambda f: sp("synth.expansion", f)),
            ("lassokit.synth", "search_lasso_precise", lambda f: sp("synth.search", f)),
            ("lassokit.synth", "search_space_size", lambda f: hot(
                "synth.search_space", f, lambda out: out)),
            ("lassokit.synth", "verify_certificate", lambda f: sp("synth.verify", f)),
            ("lassokit.boolexpr", "solve_cnf", lambda f: sp("boolexpr.sat", f)),
        ]
        for module, attr, make in table:
            self._replace(module, attr, make)
        pool = lk.boolexpr.ExprPool
        self._replace_method(pool, "fold", lambda f: hot("boolexpr.fold", f))
        self._replace_method(pool, "tseitin", lambda f: sp(
            "boolexpr.tseitin", f, lambda a, out: {"clauses": len(out[0])}))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()


# ---------------------------------------------------------------------------
# per-layer metrics of one pass

# name -> unit, in report order; BENCHMARK.json says which direction is better
LAYER_METRICS = {
    "cli.approximate_s": "s",
    "cli.check_s": "s",
    "cli.synthesize_s": "s",
    "hoa.parse_s": "s",
    "hoa.write_s": "s",
    "hoa.bytes_written": "bytes",
    "ltl.oracle_calls": "count",
    "ltl.eval_calls": "count",
    "ltl.eval_s": "s",
    "ltl.cache_hit_ratio": "ratio",
    "constructions.safety_s": "s",
    "constructions.counter_s": "s",
    "constructions.color_s": "s",
    "constructions.over_s": "s",
    "constructions.states_built": "states",
    "constructions.bound_ratio": "ratio",
    "core.accepts_calls": "count",
    "core.accepts_s": "s",
    "core.inclusion_exact_s": "s",
    "lassolab.check_calls": "count",
    "lassolab.check_s": "s",
    "lassolab.lassos": "count",
    "lassolab.lassos_per_s": "1/s",
    "synth.encode_s": "s",
    "synth.expansion_s": "s",
    "synth.search_s": "s",
    "synth.scan_s": "s",
    "synth.verify_s": "s",
    "synth.search_space": "count",
    "boolexpr.fold_calls": "count",
    "boolexpr.fold_s": "s",
    "boolexpr.tseitin_s": "s",
    "boolexpr.clauses": "count",
    "boolexpr.sat_calls": "count",
    "boolexpr.sat_s": "s",
}

_SPAN_TIMES = {
    "cli.approximate": "cli.approximate_s",
    "cli.check": "cli.check_s",
    "cli.synthesize": "cli.synthesize_s",
    "hoa.parse": "hoa.parse_s",
    "hoa.write": "hoa.write_s",
    "constructions.safety": "constructions.safety_s",
    "constructions.counter": "constructions.counter_s",
    "constructions.color": "constructions.color_s",
    "constructions.over": "constructions.over_s",
    "core.inclusion_exact": "core.inclusion_exact_s",
    "lassolab.check": "lassolab.check_s",
    "synth.encode": "synth.encode_s",
    "synth.expansion": "synth.expansion_s",
    "synth.search": "synth.search_s",
    "synth.verify": "synth.verify_s",
    "boolexpr.tseitin": "boolexpr.tseitin_s",
    "boolexpr.sat": "boolexpr.sat_s",
}

_HOT = {
    "ltl.oracle.calls": "ltl.oracle_calls",
    "ltl.eval.calls": "ltl.eval_calls",
    "ltl.eval.s": "ltl.eval_s",
    "core.accepts.calls": "core.accepts_calls",
    "core.accepts.s": "core.accepts_s",
    "boolexpr.fold.calls": "boolexpr.fold_calls",
    "boolexpr.fold.s": "boolexpr.fold_s",
    "synth.search_space": "synth.search_space",
}


def layer_metrics(spans: list) -> dict:
    """Per-layer totals of the spans of one pass."""
    out = {name: 0 for name in LAYER_METRICS}
    by_id = {rec[0]: rec for rec in spans}
    bound = 0
    for rec in spans:
        _id, parent, name, t0, t1, attrs = rec
        metric = _SPAN_TIMES.get(name)
        if metric is not None:
            out[metric] += t1 - t0
        for key, metric in _HOT.items():
            if key in attrs:
                out[metric] += attrs[key]
        if "states" in attrs:
            out["constructions.states_built"] += attrs["states"]
            bound += attrs["bound"]
        if name == "hoa.write":
            out["hoa.bytes_written"] += attrs.get("bytes", 0)
        if name == "lassolab.check":
            out["lassolab.check_calls"] += 1
            out["lassolab.lassos"] += attrs.get("lassos", 0)
            up = by_id.get(parent)
            if up is not None and up[2] == "synth.search":
                out["synth.scan_s"] -= t1 - t0
        if name == "boolexpr.tseitin":
            out["boolexpr.clauses"] += attrs.get("clauses", 0)
        if name == "boolexpr.sat":
            out["boolexpr.sat_calls"] += 1
    out["synth.scan_s"] += out["synth.search_s"]
    if out["ltl.oracle_calls"]:
        out["ltl.cache_hit_ratio"] = 1 - out["ltl.eval_calls"] / out["ltl.oracle_calls"]
    if bound:
        out["constructions.bound_ratio"] = out["constructions.states_built"] / bound
    if out["lassolab.check_s"]:
        out["lassolab.lassos_per_s"] = out["lassolab.lassos"] / out["lassolab.check_s"]
    return out
