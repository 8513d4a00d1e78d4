"""Outside-in layer trace for the jetsym benchmark.

The program has no spans of its own, so the traced run wraps the public
functions of each jetsym module from here.  A function is patched under
every name it is bound to in every loaded jetsym module, because callers
import it by name (``solve_linear_exact`` lives in ``linalg`` but is called
through ``determining``, ``series``, ``segre`` and ``linalg`` itself).
Modules are fetched with ``importlib.import_module``: ``jetsym.prolong`` as
an attribute is the re-exported *function* ``prolong``, not the module.

A span is ``[name, parent, start, end, child_seconds]``; spans are kept in
memory and written out once, when the pass ends.  A layer's self time is its
span's duration minus the time of the wrapped spans it caused.  Counters
are measured at the same boundaries; the time spent computing them is
charged to no layer.

The untraced run never imports this module, so it patches nothing.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _parent, t0, t1, child in self.spans:
            out[name] += (t1 - t0) - child
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, parent id, start and end (s)."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, t0, t1, _child) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, parent, round(t0 - base, 9), round(t1 - base, 9)]))
                fh.write("\n")


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    spans, stack = tracer.spans, tracer.stack

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else -1
        rec = [name, parent, 0.0, 0.0, 0.0]
        sid = len(spans)
        spans.append(rec)
        stack.append(sid)
        done = False
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            done = True
        finally:
            t1 = perf_counter()
            stack.pop()
            rec[2] = t0
            rec[3] = t1
            tracer.calls[name] += 1
            if done and hook is not None:
                hook(tracer, args, kwargs, out)
                t1 = perf_counter()
            if parent >= 0:
                spans[parent][4] += t1 - t0
        return out

    return traced


# -- counters ------------------------------------------------------------------


def _bits(s) -> int:
    return max(
        s.re.numerator.bit_length(),
        s.re.denominator.bit_length(),
        s.im.numerator.bit_length(),
        s.im.denominator.bit_length(),
    )


def _count_mul(tr: Tracer, args, kwargs, out):
    self, other = args
    if hasattr(other, "terms"):  # Poly * GaussScalar is a scaling, not a product
        tr.counts["poly.mul.pairs"] += len(self.terms) * len(other.terms)
        tr.counts["poly.mul.terms_out"] += len(out.terms)


def _count_residuals(tr: Tracer, args, kwargs, residuals):
    """Residual terms of the criterion inside generate_determining, and how
    many of them have (x, u)-degree <= N - 2, the rows it keeps.  The field
    is the degree-N ansatz, so N is the top (x, u)-degree of theta_1."""
    if tr.parent_name() != "determining.generate_determining":
        return
    X = args[0]
    table = X.ctx.table
    xu = {p for p, vid in enumerate(table.ids) if vid[0] in ("x", "u")}

    def xu_degree(mono):
        return sum(e for p, e in mono if p in xu)

    limit = max(xu_degree(mono) for mono in X.theta[0].terms) - 2
    total = kept = 0
    for r in residuals.values():
        for mono in r.terms:
            total += 1
            kept += xu_degree(mono) <= limit
    tr.counts["determining.residual_terms"] += total
    tr.counts["determining.terms_kept"] += kept


def _count_determining(tr: Tracer, args, kwargs, det):
    tr.counts["determining.unknowns"] += det.unknown_count
    tr.counts["determining.rows"] += det.row_count


def _count_solve(tr: Tracer, args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    tr.counts["linalg.solve_linear_exact.rows_in"] += len(system.rows)
    tr.counts["linalg.solve_linear_exact.nnz_in"] += sum(len(r) for r in system.rows)
    bits = 0
    for row in system.rows:
        for v in row.values():
            bits = max(bits, _bits(v))
    if result.consistent:
        tr.counts["linalg.solve_linear_exact.rank"] += result.rank
        for vec in [result.particular] + result.nullspace:
            for v in vec:
                bits = max(bits, _bits(v))
    key = "linalg.solve_linear_exact.coeff_bits_max"
    tr.counts[key] = max(tr.counts[key], bits)


def _count_series(tr: Tracer, args, kwargs, solution):
    tr.counts["series.terms_out"] += sum(len(p.terms) for p in solution.values())


def _count_reduce(tr: Tracer, args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    tr.counts["segre.reduce_by_rho.terms_in"] += len(f.terms)


# (span name, module, attribute, counter hook, patch every importer).
# An attribute "Class.method" patches the class once.
LAYERS = [
    ("cli.main", "cli", "main", None, True),
    ("cli.emit", "cli", "emit", None, False),
    ("cli.emit", "cli", "poly_to_str", None, False),
    ("expr.parse_poly", "expr", "parse_poly", None, True),
    ("jets.involutivity_check", "jets", "involutivity_check", None, True),
    ("prolong.prolong", "prolong", "prolong", None, True),
    ("prolong.lie_criterion_check", "prolong", "lie_criterion_check", _count_residuals, True),
    ("determining.generate_determining", "determining", "generate_determining", _count_determining, True),
    ("determining.taylor_from_initial_data", "determining", "taylor_from_initial_data", None, True),
    ("determining.field_from_values", "determining", "UnknownCoefficientField.field_from_values", None, True),
    ("linalg.solve_linear_exact", "linalg", "solve_linear_exact", _count_solve, True),
    ("linalg.sparse_rank", "linalg", "sparse_rank", None, True),
    ("linalg.express_in_span", "linalg", "express_in_span", None, True),
    ("series.implicit_series_solve", "series", "implicit_series_solve", _count_series, True),
    ("segre.segre_system", "segre", "segre_system", None, True),
    ("segre.reduce_by_rho", "segre", "reduce_by_rho", _count_reduce, True),
    ("segre.cr_automorphism_algebra", "segre", "cr_automorphism_algebra", None, True),
    ("segre.totally_real_check", "segre", "totally_real_check", None, True),
    ("lie_alg.bracket", "lie_alg", "bracket", None, True),
    ("lie_alg.field_rows", "lie_alg", "field_rows", None, True),
    ("lie_alg.closure_check", "lie_alg", "closure_check", None, True),
    ("poly.substitute", "poly", "Poly.substitute", None, True),
    ("poly.mul", "poly", "Poly.__mul__", _count_mul, True),
]


def install(tracer: Tracer) -> None:
    """Patch every layer function of the loaded jetsym package."""
    importlib.import_module("jetsym")
    importlib.import_module("jetsym.cli")
    modules = [mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "jetsym"]
    for name, modname, attr, hook, everywhere in LAYERS:
        home = importlib.import_module(f"jetsym.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth), hook))
            continue
        original = getattr(home, attr)
        wrapped = _wrap(tracer, name, original, hook)
        targets = modules if everywhere else [home]
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# -- per-layer metrics -----------------------------------------------------------

SELF_TIMED = sorted({name for name, *_ in LAYERS})

CALLS = ["linalg.solve_linear_exact", "linalg.express_in_span", "poly.mul", "lie_alg.bracket", "lie_alg.field_rows"]

COUNTS = [
    ("determining.unknowns", "count"),
    ("determining.rows", "count"),
    ("determining.residual_terms", "count"),
    ("linalg.solve_linear_exact.rows_in", "count"),
    ("linalg.solve_linear_exact.nnz_in", "count"),
    ("linalg.solve_linear_exact.rank", "count"),
    ("linalg.solve_linear_exact.coeff_bits_max", "bits"),
    ("series.terms_out", "count"),
    ("poly.mul.pairs", "count"),
    ("poly.mul.terms_out", "count"),
    ("segre.reduce_by_rho.terms_in", "count"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update(dict(COUNTS))
    units["determining.terms_kept_ratio"] = "ratio"
    units["poly.mul.yield"] = "ratio"
    units["traced.wall_s"] = "s"
    return units


def layer_values(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass (its set-up included)."""
    selfs = tracer.self_seconds()
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SELF_TIMED}
    out.update({f"{name}.calls": tracer.calls.get(name, 0) for name in CALLS})
    out.update({key: tracer.counts.get(key, 0) for key, _ in COUNTS})
    total = tracer.counts.get("determining.residual_terms", 0)
    out["determining.terms_kept_ratio"] = (
        tracer.counts.get("determining.terms_kept", 0) / total if total else 0.0
    )
    pairs = tracer.counts.get("poly.mul.pairs", 0)
    out["poly.mul.yield"] = tracer.counts.get("poly.mul.terms_out", 0) / pairs if pairs else 0.0
    out["traced.wall_s"] = traced_wall_s
    return out
