"""Command line driver: system/field files in JSON, expressions in the DSL,
stable text or canonical JSON reports.

System file:   {"n": 1, "m": 1, "entries": [{"k": 1, "i": 1, "j": 1, "F": "p1_1"}]}
Field file:    {"n": 1, "m": 1, "theta": ["x1^2"], "eta": ["x1*u1"]}
Initial data:  a flat JSON array of scalar strings in the order
               (alpha, beta, gamma, delta, epsilon), length (n+m+2)(n+m).

JSON reports are canonical: monomials in graded-lex order, scalars as
"a/b+c/d*i" strings, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .determining import (
    InitialData,
    UnknownCoefficientField,
    generate_determining,
    symmetry_algebra,
    taylor_from_initial_data,
)
from .expr import parse_poly, parse_scalar
from .jets import JetContext, PDESystem, involutivity_check
from .lie_alg import FieldBasis, bracket, closure_check, flat_generators
from .poly import mono_str, poly_to_str
from .prolong import VectorField, lie_criterion_check
from .rings import check_size, u_var, x_var
from .segre import (
    DefiningSeries,
    Signature,
    cr_automorphism_algebra,
    defining_table,
    segre_system,
    totally_real_check,
)


class CliError(ValueError):
    pass


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def load_system(path: str) -> PDESystem:
    """Read a system file.  The output of ``segre-derive`` is read back as
    the truncated series it is: its entries keep the document's "order" as
    their truncation bound."""
    doc = _read_json(path)
    try:
        n, m = int(doc["n"]), int(doc["m"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise CliError("system file needs integer fields 'n' and 'm'") from None
    bound = None
    if doc.get("command") == "segre-derive":
        try:
            bound = int(doc["order"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise CliError("segre-derive output needs an integer field 'order'") from None
    entry_docs = doc.get("entries", [])
    if not isinstance(entry_docs, list):
        raise CliError("system field 'entries' must be an array")
    ctx = JetContext.create(n, m)
    entries = {}
    for entry in entry_docs:
        try:
            k, i, j = int(entry["k"]), int(entry["i"]), int(entry["j"])
            text = entry["F"]
            if not isinstance(text, str):
                raise TypeError
        except (KeyError, TypeError, ValueError, OverflowError):
            raise CliError("system entry needs integer fields 'k', 'i', 'j' and an expression string 'F'") from None
        if i > j:
            raise CliError(f"system entry ({k},{i},{j}) must have i <= j")
        f = parse_poly(text, ctx.table)
        if (k, i, j) in entries and entries[(k, i, j)] != f:
            raise CliError(f"system entry ({k},{i},{j}) is given twice with different right sides")
        entries[(k, i, j)] = f
    if bound is not None:
        entries = {key: f.truncate(bound) for key, f in entries.items()}
    return PDESystem(ctx, entries)


def field_from_doc(doc, ctx: JetContext | None = None) -> VectorField:
    """Build a field from one field document; on ctx, if given, whose shape
    the document must match."""
    try:
        n, m = int(doc["n"]), int(doc["m"])
        theta_texts, eta_texts = doc["theta"], doc["eta"]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise CliError("field document needs integer 'n', 'm' and arrays 'theta', 'eta'") from None
    if not (
        isinstance(theta_texts, list)
        and isinstance(eta_texts, list)
        and all(isinstance(t, str) for t in theta_texts + eta_texts)
    ):
        raise CliError("field 'theta' and 'eta' must be arrays of expression strings")
    if ctx is None:
        ctx = JetContext.create(n, m)
    elif ctx.n != n or ctx.m != m:
        raise CliError(f"field has shape (n={n}, m={m}), expected (n={ctx.n}, m={ctx.m})")
    theta = tuple(parse_poly(t, ctx.table) for t in theta_texts)
    eta = tuple(parse_poly(t, ctx.table) for t in eta_texts)
    return VectorField(ctx, theta, eta)


def load_field(path: str, ctx: JetContext | None = None) -> VectorField:
    return field_from_doc(_read_json(path), ctx)


def parse_point(text: str | None, ctx: JetContext) -> dict:
    if not text:
        return {}
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != ctx.n + ctx.m:
        raise CliError(f"point needs {ctx.n + ctx.m} coordinates, got {len(parts)}")
    vids = [x_var(i) for i in range(1, ctx.n + 1)] + [u_var(mu) for mu in range(1, ctx.m + 1)]
    return {vid: parse_scalar(p) for vid, p in zip(vids, parts)}


def field_doc(X: VectorField) -> dict:
    return {
        "n": X.ctx.n,
        "m": X.ctx.m,
        "theta": [poly_to_str(f) for f in X.theta],
        "eta": [poly_to_str(f) for f in X.eta],
    }


def field_lines(doc: dict) -> list[str]:
    """One line per component of a field document: theta1: ..., eta1: ..."""
    lines = [f"theta{j + 1}: {t}" for j, t in enumerate(doc["theta"])]
    return lines + [f"eta{mu + 1}: {e}" for mu, e in enumerate(doc["eta"])]


def emit(report: dict, fmt: str, lines) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


# -- subcommand handlers ---------------------------------------------------------


def cmd_involutive(args) -> dict:
    sys_ = load_system(args.system)
    verdict = involutivity_check(sys_)
    failures = [
        {"k": k, "i": i, "j": j, "l": l, "difference": poly_to_str(diff)}
        for (k, i, j, l, diff) in verdict.failures
    ]
    report = {"command": "involutive", "involutive": verdict.involutive, "failures": failures}
    lines = [f"involutive: {str(verdict.involutive).lower()}"]
    for f in failures:
        lines.append(
            f"  fails at (k={f['k']}, i={f['i']}, j={f['j']}, l={f['l']}): {f['difference']}"
        )
    return report, lines


def cmd_symmetry_check(args):
    sys_ = load_system(args.system)
    X = load_field(args.field, sys_.ctx)
    residuals = lie_criterion_check(X, sys_)
    nonzero = [
        {"mu": mu, "i": i, "j": j, "residual": poly_to_str(r)}
        for (mu, i, j), r in sorted(residuals.items())
        if not r.is_zero()
    ]
    ok = not nonzero
    report = {"command": "symmetry-check", "symmetry": ok, "nonzero_residuals": nonzero}
    lines = [f"symmetry: {str(ok).lower()}"]
    for item in nonzero:
        lines.append(f"  residual (mu={item['mu']}, i={item['i']}, j={item['j']}): {item['residual']}")
    return report, lines


def cmd_determining(args):
    sys_ = load_system(args.system)
    field = UnknownCoefficientField(sys_.ctx, args.order)
    det = generate_determining(sys_, field)
    labels = [field.label(cid) for cid in field.unknowns]
    monomials: dict[tuple, str] = {}
    rows = []
    for row, prov in zip(det.rows, det.provenance):
        parts = []
        for col in sorted(row):
            coeff = row[col]
            parts.append(labels[col] if coeff.is_one() else f"{coeff}*{labels[col]}")
        monomial = monomials.get(prov.mono)
        if monomial is None:
            monomial = monomials[prov.mono] = mono_str(field.ext_table, prov.mono)
        rows.append(
            {
                "mu": prov.mu,
                "i": prov.i,
                "j": prov.j,
                "monomial": monomial,
                "equation": " + ".join(parts) + " = 0",
            }
        )
    report = {
        "command": "determining",
        "order": args.order,
        "unknown_count": det.unknown_count,
        "row_count": det.row_count,
        "rows": rows,
    }
    lines = [f"unknowns: {det.unknown_count}", f"equations: {det.row_count}"]
    for r in rows:
        lines.append(f"  (mu={r['mu']}, i={r['i']}, j={r['j']}) [{r['monomial']}]  {r['equation']}")
    return report, lines


def cmd_taylor(args):
    sys_ = load_system(args.system)
    data = _read_json(args.initial_data)
    if not isinstance(data, list):
        raise CliError("initial data must be a JSON array of scalar strings")
    omega = InitialData.from_flat([parse_scalar(str(v)) for v in data], sys_.ctx.n, sys_.ctx.m)
    point = parse_point(args.point, sys_.ctx)
    X = taylor_from_initial_data(sys_, omega, order=args.order, point=point)
    report = {"command": "taylor", "order": args.order, "field": field_doc(X)}
    return report, field_lines(report["field"])


def cmd_symmetry_algebra(args):
    sys_ = load_system(args.system)
    point = parse_point(args.point, sys_.ctx)
    alg = symmetry_algebra(sys_, order=args.order, point=point)
    report = {
        "command": "symmetry-algebra",
        "order": args.order,
        "dimension": alg.dimension,
        "basis": [field_doc(X) for X in alg.basis],
    }
    lines = [f"dimension: {alg.dimension}"]
    for k, doc in enumerate(report["basis"]):
        lines.append(f"  [{k + 1}] theta=({', '.join(doc['theta'])}) eta=({', '.join(doc['eta'])})")
    return report, lines


def cmd_flat_algebra(args):
    basis = flat_generators(args.n, args.m)
    report = {
        "command": "flat-algebra",
        "n": args.n,
        "m": args.m,
        "dimension": len(basis),
        "basis": [
            dict(name=name, **field_doc(X))
            for name, X in zip(basis.names, basis.fields)
        ],
    }
    lines = [f"dimension: {len(basis)}"]
    for doc in report["basis"]:
        lines.append(f"  {doc['name']}: theta=({', '.join(doc['theta'])}) eta=({', '.join(doc['eta'])})")
    return report, lines


def cmd_bracket(args):
    X = load_field(args.field)
    Y = load_field(args.field2, X.ctx)
    Z = bracket(X, Y)
    report = {"command": "bracket", "field": field_doc(Z)}
    return report, field_lines(report["field"])


def cmd_closure(args):
    if args.basis:
        docs = _read_json(args.basis)
        if not isinstance(docs, list) or not docs:
            raise CliError("basis file must be a nonempty JSON array of field objects")
        first = field_from_doc(docs[0])
        fields = [first] + [field_from_doc(doc, first.ctx) for doc in docs[1:]]
        basis = FieldBasis(fields)
    else:
        if args.n is None or args.m is None:
            raise CliError("closure needs either --basis or both --n and --m")
        basis = flat_generators(args.n, args.m)
    result = closure_check(basis)
    nonzero = sum(
        1
        for coeffs in result.structure_constants.values()
        for c in coeffs
        if not c.is_zero()
    )
    report = {
        "command": "closure",
        "closes": result.closes,
        "dimension": len(basis),
        "pairs": len(result.structure_constants),
        "nonzero_structure_constants": nonzero,
    }
    lines = [f"closes: {str(result.closes).lower()}", f"dimension: {len(basis)}"]
    if not result.closes:
        a, b, residual = result.failure
        na, nb = basis.names[a], basis.names[b]
        report["failure"] = {"pair": [na, nb]}
        lines.append(f"  bracket [{na}, {nb}] is outside the span")
    return report, lines


def cmd_segre_derive(args):
    check_size("series layer list", args.order)  # one relaxed sweep per order
    sig = Signature.parse(args.signature)
    table = defining_table(sig.n)
    R = parse_poly(args.perturbation, table) if args.perturbation else None
    defn = DefiningSeries(sig, R)
    sys_ = segre_system(defn, order=args.order)
    verdict = involutivity_check(sys_)
    entries = [
        {"k": k, "i": i, "j": j, "F": poly_to_str(f)}
        for (k, i, j), f in sorted(sys_.entries.items())
    ]
    report = {
        "command": "segre-derive",
        "signature": str(sig),
        "order": args.order,
        "involutive": verdict.involutive,
        "n": sig.n,
        "m": 1,
        "entries": entries,
    }
    lines = [f"involutive: {str(verdict.involutive).lower()}"]
    for e in entries:
        lines.append(f"  F[{e['k']},{e['i']},{e['j']}] = {e['F']}")
    return report, lines


def cmd_cr_aut(args):
    sig = Signature.parse(args.signature)
    alg = cr_automorphism_algebra(sig)
    names = [f"z{j}" for j in range(1, sig.n + 1)] + ["w"]
    basis_docs = [
        {name: poly_to_str(f) for name, f in zip(names, X.coeffs)}
        for X in alg.basis
    ]
    report = {
        "command": "cr-aut",
        "signature": str(sig),
        "real_dimension": alg.real_dimension,
        "basis": basis_docs,
    }
    lines = [f"real_dimension: {alg.real_dimension}"]
    for k, doc in enumerate(basis_docs):
        parts = ", ".join(f"d/d{name}: {expr}" for name, expr in doc.items())
        lines.append(f"  [{k + 1}] {parts}")
    return report, lines


def cmd_totally_real(args):
    sig = Signature.parse(args.signature)
    alg = cr_automorphism_algebra(sig)
    ok = totally_real_check(alg.basis)
    report = {
        "command": "totally-real",
        "signature": str(sig),
        "totally_real": ok,
        "real_dimension": alg.real_dimension,
    }
    lines = [
        f"totally_real: {str(ok).lower()}",
        f"real_dimension: {alg.real_dimension}",
    ]
    return report, lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so ``main`` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="jetsym",
        description="Exact symmetry analysis of completely overdetermined second-order PDE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=True, point=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if order:
            p.add_argument("--order", type=int, default=3)
        if point:
            p.add_argument("--point", default=None, help="comma-separated base point scalars")

    p = sub.add_parser("involutive", help="check a system for involutivity")
    p.add_argument("--system", required=True)
    common(p, order=False)
    p.set_defaults(handler=cmd_involutive)

    p = sub.add_parser("symmetry-check", help="check a field against a system")
    p.add_argument("--system", required=True)
    p.add_argument("--field", required=True)
    common(p, order=False)
    p.set_defaults(handler=cmd_symmetry_check)

    p = sub.add_parser("determining", help="emit the determining equations")
    p.add_argument("--system", required=True)
    common(p)
    p.set_defaults(handler=cmd_determining)

    p = sub.add_parser("taylor", help="rebuild a symmetry from initial data")
    p.add_argument("--system", required=True)
    p.add_argument("--initial-data", required=True)
    common(p, point=True)
    p.set_defaults(handler=cmd_taylor)

    p = sub.add_parser("symmetry-algebra", help="basis of infinitesimal symmetries")
    p.add_argument("--system", required=True)
    common(p, point=True)
    p.set_defaults(handler=cmd_symmetry_algebra)

    p = sub.add_parser("flat-algebra", help="generator basis for the flat system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p, order=False)
    p.set_defaults(handler=cmd_flat_algebra)

    p = sub.add_parser("bracket", help="Lie bracket of two fields")
    p.add_argument("--field", required=True)
    p.add_argument("--field2", required=True)
    common(p, order=False)
    p.set_defaults(handler=cmd_bracket)

    p = sub.add_parser("closure", help="structure constants of a field basis")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--basis", default=None)
    common(p, order=False)
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("segre-derive", help="derive the PDE system of a defining series")
    p.add_argument("--signature", required=True)
    p.add_argument("--perturbation", default=None, help="higher-order part R as a DSL expression")
    common(p)
    p.set_defaults(handler=cmd_segre_derive)

    p = sub.add_parser("cr-aut", help="infinitesimal automorphisms of a hyperquadric")
    p.add_argument("--signature", required=True)
    common(p, order=False)
    p.set_defaults(handler=cmd_cr_aut)

    p = sub.add_parser("totally-real", help="totally-real check for the automorphism algebra")
    p.add_argument("--signature", required=True)
    common(p, order=False)
    p.set_defaults(handler=cmd_totally_real)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, lines = args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        emit(report, args.format, lines)
        sys.stdout.flush()  # meet a closed stdout here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit ("Note on SIGPIPE", signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
