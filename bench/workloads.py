"""The benchmark's four workloads.

Each workload is a fixed list of jobs.  A job is one call into a public
entry point of jetsym: ``jetsym.cli.main([..., "--format", "json"])`` with
stdout captured, or a documented library call.  Inputs are made here from
the workload seed; the program only ever sees the generated inputs.

Every check compares an output with a fact that does not come from an
earlier run of the program: a closed formula, an identity (Jacobi,
antisymmetry, initial data round trip), a second independent algorithm,
or the defining property itself (a zero criterion residual).

Program functions are always looked up as module attributes at call time
(``J.determining.generate_determining``), so the traced run sees them.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from math import comb
from types import SimpleNamespace
from typing import Callable

MODULES = (
    "cli", "determining", "expr", "jets", "lie_alg", "poly", "prolong", "rings", "scalars", "segre", "series",
)


def program_api() -> SimpleNamespace:
    return SimpleNamespace(**{name: import_module(f"jetsym.{name}") for name in MODULES})


@dataclass
class Job:
    """A CLI job returns (exit code, stdout, stderr); a library job returns
    the library's objects, and `render` turns them into canonical text."""

    name: str
    run: Callable[[], object]
    render: Callable[[object], str] | None = None
    expect_error: bool = False

    def succeeded(self, result) -> bool:
        if self.render is not None:
            return True
        rc, _out, err = result
        if self.expect_error:
            return rc == 1 and any(line.startswith("error:") for line in err.splitlines())
        return rc == 0

    def text(self, result) -> str:
        """Canonical text of a result, for comparing passes."""
        if self.render is not None:
            return self.render(result)
        rc, out, _err = result
        return f"{rc}\n{out}"


@dataclass
class Workload:
    jobs: list[Job]
    largest: str
    check: Callable[[dict], list[str]]


def cli_job(J, name: str, argv: list[str], expect_error: bool = False) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = J.cli.main(argv + ["--format", "json"])
        return rc, out.getvalue(), err.getvalue()

    return Job(name, run, expect_error=expect_error)


def write_json(workdir: str, filename: str, doc) -> str:
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def flat_unknowns(n: int, m: int, N: int) -> int:
    return (n + m) * comb(n + m + N, N)


def flat_dimension(n: int, m: int) -> int:
    return (n + m + 2) * (n + m)


# -- parsing outputs back ----------------------------------------------------------


def parse_field(J, doc: dict, ctx=None):
    if ctx is None:
        ctx = J.jets.JetContext.create(doc["n"], doc["m"])
    theta = [J.expr.parse_poly(t, ctx.table) for t in doc["theta"]]
    eta = [J.expr.parse_poly(t, ctx.table) for t in doc["eta"]]
    return J.prolong.VectorField(ctx, theta, eta)


def field_text(J, X) -> str:
    return json.dumps(
        [[J.poly.poly_to_str(f) for f in X.theta], [J.poly.poly_to_str(f) for f in X.eta]]
    )


def criterion_problems(J, X, system, label: str, max_xu_degree: int | None = None) -> list[str]:
    """Nonzero criterion residual terms of X; with max_xu_degree, only terms
    of at most that (x, u)-degree count (the degree-N truncation)."""
    residuals = J.prolong.lie_criterion_check(X, system)
    table = system.ctx.table
    xu = {p for p, vid in enumerate(table.ids) if vid[0] in ("x", "u")}
    bad = 0
    for r in residuals.values():
        for mono in r.terms:
            if max_xu_degree is None or sum(e for p, e in mono if p in xu) <= max_xu_degree:
                bad += 1
    return [f"{label}: {bad} nonzero criterion residual terms"] if bad else []


# Rank modulo a prime, by code that shares nothing with jetsym.linalg.  The
# rank mod p never exceeds the rank over Q(i), so "rank_p + dimension ==
# unknowns" together with a verified independent basis of the nullspace
# proves the rank exactly.
PRIME = (1 << 64) - 59  # prime, = 1 mod 4, so sqrt(-1) exists mod p


def _sqrt_minus_one(p: int) -> int:
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // 4, p)


SQRT_MINUS_ONE = _sqrt_minus_one(PRIME)


def scalar_mod_p(s) -> int:
    p = PRIME

    def q(x: Fraction) -> int:
        return x.numerator % p * pow(x.denominator, -1, p) % p

    return (q(s.re) + q(s.im) * SQRT_MINUS_ONE) % p


def rank_mod_p(rows) -> int:
    p = PRIME
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {cc: v * inv % p for cc, v in r.items()}
                break
            f = r[c]
            for cc, v in piv.items():
                nv = (r.get(cc, 0) - f * v) % p
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
    return len(pivots)


def determining_rows_mod_p(J, doc: dict) -> list[dict[int, int]]:
    """The rows of a `determining` report, read back from their text.

    A term is `label` or `coeff*label`; a label is t<j>[...] or e<mu>[...]
    and only its brackets may hold '*', so the label starts after the last
    '*' before its '['.
    """
    columns: dict[str, int] = {}
    rows = []
    for entry in doc["rows"]:
        row: dict[int, int] = {}
        for part in entry["equation"].rsplit(" = ", 1)[0].split(" + "):
            star = part.rfind("*", 0, part.index("["))
            coeff, label = (part[:star], part[star + 1:]) if star >= 0 else ("1", part)
            col = columns.setdefault(label, len(columns))
            row[col] = (row.get(col, 0) + scalar_mod_p(J.expr.parse_scalar(coeff))) % PRIME
        rows.append(row)
    return rows


# -- seeded inputs ---------------------------------------------------------------------


def small_int(rng: random.Random, span: int = 3) -> int:
    return rng.choice([v for v in range(-span, span + 1) if v])


def flat_symmetry_text(rng: random.Random, n: int, m: int) -> dict:
    """A seeded combination of the explicit flat generators, written out by
    their formulas (U, V, W, A, B, C, X, Y in lie_alg.flat_generators)."""
    xs = [f"x{j}" for j in range(1, n + 1)]
    us = [f"u{mu}" for mu in range(1, m + 1)]
    d = [rng.randint(-3, 3) for _ in xs]
    e = [rng.randint(-3, 3) for _ in us]
    theta = []
    for k in range(n):
        terms = [str(rng.randint(-3, 3))]
        terms += [f"({rng.randint(-3, 3)})*{w}" for w in xs + us]
        terms += [f"({d[j]})*{xs[j]}*{xs[k]}" for j in range(n)]
        terms += [f"({e[nu]})*{us[nu]}*{xs[k]}" for nu in range(m)]
        theta.append(" + ".join(terms))
    eta = []
    for mu in range(m):
        terms = [str(rng.randint(-3, 3))]
        terms += [f"({rng.randint(-3, 3)})*{w}" for w in xs + us]
        terms += [f"({d[j]})*{xs[j]}*{us[mu]}" for j in range(n)]
        terms += [f"({e[nu]})*{us[nu]}*{us[mu]}" for nu in range(m)]
        eta.append(" + ".join(terms))
    return {"n": n, "m": m, "theta": theta, "eta": eta}


def seeded_initial_data(rng: random.Random, n: int, m: int) -> list[str]:
    return [str(rng.randint(-2, 2)) for _ in range(flat_dimension(n, m))]


def omega_problems(J, X, expected_flat, label: str) -> list[str]:
    got = J.determining.initial_data_of(X).flat()
    return [] if got == expected_flat else [f"{label}: initial data of the result differ from the input"]


# -- flat-symmetry ---------------------------------------------------------------------

FLAT_ALGEBRAS = [(3, 3, 3), (4, 2, 3)]  # symmetry-algebra sizes (n, m, N)
FLAT_DETERMINING = (3, 3, 3)
FLAT_TAYLOR = (2, 2, 3)
FLAT_CHECK = (3, 3)


def flat_symmetry(J, rng: random.Random, workdir: str) -> Workload:
    systems, paths = {}, {}
    for n, m in sorted({(3, 3), (4, 2), (2, 2)}):
        paths[(n, m)] = write_json(workdir, f"flat-{n}-{m}.json", {"n": n, "m": m, "entries": []})
        systems[(n, m)] = J.jets.PDESystem(J.jets.JetContext.create(n, m))
    n, m = FLAT_CHECK
    sym_doc = flat_symmetry_text(rng, n, m)
    cubic_doc = dict(sym_doc, theta=list(sym_doc["theta"]))
    cubic_doc["theta"][0] += f" + ({small_int(rng)})*x1^2*u{m}"
    for doc in (sym_doc, cubic_doc):
        parse_field(J, doc, systems[(n, m)].ctx)  # malformed input fails in set-up
    sym_path = write_json(workdir, "field-symmetry.json", sym_doc)
    cubic_path = write_json(workdir, "field-cubic.json", cubic_doc)
    tn, tm, tN = FLAT_TAYLOR
    omega = seeded_initial_data(rng, tn, tm)
    omega_path = write_json(workdir, "omega-flat.json", omega)
    omega_flat = [J.expr.parse_scalar(v) for v in omega]

    jobs = [cli_job(J, "flat-algebra 3x3", ["flat-algebra", "--n", "3", "--m", "3"])]
    for an, am, aN in FLAT_ALGEBRAS:
        jobs.append(cli_job(J, f"symmetry-algebra {an}x{am} N={aN}",
                            ["symmetry-algebra", "--system", paths[(an, am)], "--order", str(aN)]))
    dn, dm, dN = FLAT_DETERMINING
    jobs.append(cli_job(J, f"determining {dn}x{dm} N={dN}",
                        ["determining", "--system", paths[(dn, dm)], "--order", str(dN)]))
    jobs.append(cli_job(J, "symmetry-check symmetric", ["symmetry-check", "--system", paths[(n, m)], "--field", sym_path]))
    jobs.append(cli_job(J, "symmetry-check cubic", ["symmetry-check", "--system", paths[(n, m)], "--field", cubic_path]))
    jobs.append(cli_job(J, f"taylor {tn}x{tm} N={tN}",
                        ["taylor", "--system", paths[(tn, tm)], "--order", str(tN), "--initial-data", omega_path]))

    def check(results: dict) -> list[str]:
        problems = []
        docs = {name: json.loads(res[1]) for name, res in results.items()}
        bases = {}
        for an, am, aN in FLAT_ALGEBRAS:
            label = f"symmetry-algebra {an}x{am} N={aN}"
            if label not in docs:
                continue
            doc = docs[label]
            if doc["dimension"] != flat_dimension(an, am) or len(doc["basis"]) != doc["dimension"]:
                problems.append(f"{label}: dimension {doc['dimension']}, expected {flat_dimension(an, am)}")
            sys_ = systems[(an, am)]
            basis = [parse_field(J, f, sys_.ctx) for f in doc["basis"]]
            bases[(an, am)] = basis
            if not J.lie_alg.span_equal(basis, J.lie_alg.flat_generators(an, am, sys_.ctx).fields):
                problems.append(f"{label}: basis does not span the flat generators")
            for k, X in enumerate(basis):
                problems += criterion_problems(J, X, sys_, f"{label} basis[{k}]")
        doc = docs.get("flat-algebra 3x3")
        if doc is not None:
            if doc["dimension"] != flat_dimension(3, 3):
                problems.append("flat-algebra 3x3: wrong dimension")
            if (3, 3) in bases:
                fields = [parse_field(J, f, systems[(3, 3)].ctx) for f in doc["basis"]]
                if not J.lie_alg.span_equal(fields, bases[(3, 3)]):
                    problems.append("flat-algebra 3x3: span differs from the computed symmetry algebra")
        label = f"determining {dn}x{dm} N={dN}"
        doc = docs.get(label)
        if doc is not None:
            unknowns = flat_unknowns(dn, dm, dN)
            if doc["unknown_count"] != unknowns:
                problems.append(f"{label}: {doc['unknown_count']} unknowns, expected {unknowns}")
            if doc["row_count"] != len(doc["rows"]):
                problems.append(f"{label}: row_count disagrees with the rows")
            rank = rank_mod_p(determining_rows_mod_p(J, doc))
            if rank + flat_dimension(dn, dm) != unknowns:
                problems.append(f"{label}: rank {rank} + dimension != {unknowns} unknowns")
        doc = docs.get("symmetry-check symmetric")
        if doc is not None and not (doc["symmetry"] and not doc["nonzero_residuals"]):
            problems.append("symmetry-check symmetric: a flat generator combination was rejected")
        doc = docs.get("symmetry-check cubic")
        if doc is not None and (doc["symmetry"] or not doc["nonzero_residuals"]):
            problems.append("symmetry-check cubic: a field with a cubic term was accepted")
        label = f"taylor {tn}x{tm} N={tN}"
        doc = docs.get(label)
        if doc is not None:
            X = parse_field(J, doc["field"], systems[(tn, tm)].ctx)
            problems += omega_problems(J, X, omega_flat, label)
            problems += criterion_problems(J, X, systems[(tn, tm)], label)
        return problems

    return Workload(jobs, "symmetry-algebra 3x3 N=3", check)


# -- linearizable-taylor ---------------------------------------------------------------

LINEARIZABLE = [(2, 1, 5), (2, 2, 4), (3, 2, 3)]
C_VALUES = ["1", "2", "3", "1/2", "1/3", "3/2", "2/3"]


def linearizable_system_doc(rng: random.Random, n: int, m: int) -> dict:
    """u^k_ij = -c_k u^k_i u^k_j; v^k = exp(c_k u^k) turns it into v_ij = 0."""
    cs = [rng.choice(["", "-"]) + rng.choice(C_VALUES) for _ in range(m)]
    entries = [
        {"k": k, "i": i, "j": j, "F": f"-({cs[k - 1]})*p{k}_{i}*p{k}_{j}"}
        for k in range(1, m + 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    ]
    return {"n": n, "m": m, "entries": entries}


def linearizable_taylor(J, rng: random.Random, workdir: str) -> Workload:
    jobs, sizes = [], []
    for n, m, N in LINEARIZABLE:
        doc = linearizable_system_doc(rng, n, m)
        path = write_json(workdir, f"linearizable-{n}-{m}.json", doc)
        ctx = J.jets.JetContext.create(n, m)
        system = J.jets.PDESystem(
            ctx, {(e["k"], e["i"], e["j"]): J.expr.parse_poly(e["F"], ctx.table) for e in doc["entries"]}
        )
        omega = seeded_initial_data(rng, n, m)
        omega_path = write_json(workdir, f"omega-{n}-{m}.json", omega)
        tag = f"{n}x{m} N={N}"
        sizes.append((n, m, N, tag, system, [J.expr.parse_scalar(v) for v in omega]))
        jobs.append(cli_job(J, f"involutive {tag}", ["involutive", "--system", path]))
        jobs.append(cli_job(J, f"symmetry-algebra {tag}", ["symmetry-algebra", "--system", path, "--order", str(N)]))
        jobs.append(cli_job(J, f"taylor {tag}",
                            ["taylor", "--system", path, "--order", str(N), "--initial-data", omega_path]))

        def taylor_every_omega(system=system, n=n, m=m, N=N):
            field = J.determining.UnknownCoefficientField(system.ctx, N)
            det = J.determining.generate_determining(system, field)
            return [
                J.determining.taylor_from_initial_data(system, om, order=N, det=det)
                for om in J.determining.omega_basis(n, m)
            ]

        jobs.append(Job(
            f"library taylor every omega {tag}",
            taylor_every_omega,
            render=lambda fields: "\n".join(field_text(J, X) for X in fields),
        ))

    def check(results: dict) -> list[str]:
        problems = []
        for n, m, N, tag, system, omega_flat in sizes:
            res = results.get(f"involutive {tag}")
            if res is not None and not json.loads(res[1])["involutive"]:
                problems.append(f"involutive {tag}: system reported not involutive")
            res = results.get(f"symmetry-algebra {tag}")
            basis = None
            if res is not None:
                doc = json.loads(res[1])
                if doc["dimension"] != flat_dimension(n, m):
                    problems.append(f"symmetry-algebra {tag}: dimension {doc['dimension']}, expected {flat_dimension(n, m)}")
                basis = [parse_field(J, f, system.ctx) for f in doc["basis"]]
            fields = results.get(f"library taylor every omega {tag}")
            if fields is not None:
                for om, X in zip(J.determining.omega_basis(n, m), fields):
                    problems += omega_problems(J, X, om.flat(), f"library taylor {tag}")
                    problems += criterion_problems(J, X, system, f"library taylor {tag}", N - 2)
                if basis is not None and not J.lie_alg.span_equal(fields, basis):
                    problems.append(f"{tag}: Taylor fields and the nullspace basis span different spaces")
            res = results.get(f"taylor {tag}")
            if res is not None:
                X = parse_field(J, json.loads(res[1])["field"], system.ctx)
                problems += omega_problems(J, X, omega_flat, f"taylor {tag}")
                problems += criterion_problems(J, X, system, f"taylor {tag}", N - 2)
        return problems

    return Workload(jobs, "library taylor every omega 3x2 N=3", check)


# -- segre-series ------------------------------------------------------------------------

# (signature, monomials of R with seeded coefficients, order).  An integer n
# in place of a signature stands for "+" and n - 1 seeded signs; those jobs
# take R = 0.
SEGRE = [
    ("+", ["x1^2*s1^2", "x1*u1*s2", "u1^2*s1"], 11),
    ("+-", ["x1^2*s1^2", "x2*u1*s3"], 13),
    ("++-", ["x1^2*s1^2", "x2*u1*s3", "x3*s2*s4"], 9),
    (2, [], 10),
    (3, [], 8),
]


def back_substitution_residuals(J, sig: str, R, entries: dict, order: int):
    """Solve the defining relation for u alone, differentiate the family,
    and compare its second derivatives with the derived right sides."""
    n = len(sig)
    table = J.segre.defining_table(n)
    P, rings = J.poly.Poly, J.rings
    relation = P.var(table, rings.u_var(1)) + P.var(table, rings.zeta_var(n + 1)) + R
    for j, ch in enumerate(sig, start=1):
        eps = J.scalars.GaussScalar(1 if ch == "+" else -1)
        relation = relation + (P.var(table, rings.x_var(j)) * P.var(table, rings.zeta_var(j))).scale(eps)
    usol = J.series.implicit_series_solve([relation], [rings.u_var(1)], order)[rings.u_var(1)]
    grads = {k: usol.differentiate(rings.x_var(k)) for k in range(1, n + 1)}
    bindings = {rings.u_var(1): usol}
    bindings.update({rings.jet_var(1, (k,)): g for k, g in grads.items()})
    out = []
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            F = J.expr.parse_poly(entries[(k, j)], table)
            out.append(grads[k].differentiate(rings.x_var(j)) - F.substitute(bindings))
    return out


def within_bound(p) -> dict:
    """Terms of p of weighted degree at most its bound.

    Poly.__add__ keeps terms above the combined bound, and truncate(b) does
    not drop them when b equals the current bound, so a residual can hold
    stray terms it has no right to; they are dropped here, never counted as
    a failure of the derivation.
    """
    w = p.table.weights
    return {mono: c for mono, c in p.terms.items() if sum(e * w[q] for q, e in mono) <= p.bound}


def segre_series(J, rng: random.Random, workdir: str) -> Workload:
    jobs, cases = [], []
    for sig, monos, order in SEGRE:
        if isinstance(sig, int):
            sig = "+" + "".join(rng.choice("+-") for _ in range(sig - 1))
        n = len(sig)
        R_text = " + ".join(f"({small_int(rng)})*{mono}" for mono in monos)
        table = J.segre.defining_table(n)
        R = J.expr.parse_poly(R_text, table) if R_text else J.poly.Poly.zero(table)
        name = f"segre-derive {sig} order {order}" + ("" if R_text else " R=0")
        argv = ["segre-derive", f"--signature={sig}", "--order", str(order)]
        if R_text:
            argv += ["--perturbation", R_text]
        jobs.append(cli_job(J, name, argv))
        cases.append((name, sig, R, bool(R_text), order))

    def check(results: dict) -> list[str]:
        problems = []
        for name, sig, R, perturbed, order in cases:
            res = results.get(name)
            if res is None:
                continue
            doc = json.loads(res[1])
            if not doc["involutive"]:
                problems.append(f"{name}: derived system reported not involutive")
            entries = {(e["i"], e["j"]): e["F"] for e in doc["entries"]}
            if not perturbed:
                if any(F != "0" for F in entries.values()):
                    problems.append(f"{name}: hyperquadric gave a nonzero system")
                continue
            for r in back_substitution_residuals(J, sig, R, entries, order):
                if r.bound is None or r.bound < order - 2:
                    problems.append(f"{name}: oracle residual is valid only to degree {r.bound}")
                elif within_bound(r):
                    problems.append(f"{name}: back-substitution oracle does not vanish")
        return problems

    largest = next(name for name, sig, *_ in cases if sig == "+")
    return Workload(jobs, largest, check)


# -- cr-closure ----------------------------------------------------------------------------

CR_SIZES = [3, 4, 5, 6]
CLOSURE = (3, 2)
BRACKET_SHAPE = (2, 2)
BRACKET_PAIRS = 2
MALFORMED_BASIS = [{"n": 2, "theta": ["x1", "x2"], "eta": ["u1"]}]  # no "m"


def seeded_field_doc(rng: random.Random, n: int, m: int, terms: int = 3) -> dict:
    names = [f"x{j}" for j in range(1, n + 1)] + [f"u{mu}" for mu in range(1, m + 1)]

    def component() -> str:
        parts = []
        for _ in range(terms):
            mono = "*".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
            coeff = f"{small_int(rng)}" + rng.choice(["", "+i", "-2*i"])
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    return {"n": n, "m": m, "theta": [component() for _ in range(n)], "eta": [component() for _ in range(m)]}


def cr_closure(J, rng: random.Random, workdir: str) -> Workload:
    jobs = []
    signatures = {n: "+" + "".join(rng.choice("+-") for _ in range(n - 1)) for n in CR_SIZES}
    for n in CR_SIZES:
        jobs.append(cli_job(J, f"cr-aut n={n}", ["cr-aut", f"--signature={signatures[n]}"]))
    for n in CR_SIZES:
        jobs.append(cli_job(J, f"totally-real n={n}", ["totally-real", f"--signature={signatures[n]}"]))
    cn, cm = CLOSURE
    jobs.append(cli_job(J, f"closure flat {cn}x{cm}", ["closure", "--n", str(cn), "--m", str(cm)]))
    bn, bm = BRACKET_SHAPE
    bracket_ctx = J.jets.JetContext.create(bn, bm)
    for k in range(BRACKET_PAIRS):
        docs = [seeded_field_doc(rng, bn, bm) for _ in range(2)]
        for doc in docs:
            parse_field(J, doc, bracket_ctx)  # malformed input fails in set-up
        a = write_json(workdir, f"bracket-{k}-a.json", docs[0])
        b = write_json(workdir, f"bracket-{k}-b.json", docs[1])
        jobs.append(cli_job(J, f"bracket {k} [X,Y]", ["bracket", "--field", a, "--field2", b]))
        jobs.append(cli_job(J, f"bracket {k} [Y,X]", ["bracket", "--field", b, "--field2", a]))
    bad = write_json(workdir, "closure-malformed.json", MALFORMED_BASIS)
    jobs.append(cli_job(J, "closure malformed basis", ["closure", "--basis", bad], expect_error=True))

    def check(results: dict) -> list[str]:
        problems = []
        for n in CR_SIZES:
            expected = n * n + 4 * n + 3
            res = results.get(f"cr-aut n={n}")
            if res is not None:
                doc = json.loads(res[1])
                if doc["real_dimension"] != expected or len(doc["basis"]) != expected:
                    problems.append(f"cr-aut n={n}: real dimension {doc['real_dimension']}, expected {expected}")
                table = J.rings.cr_table(n)
                ctx = J.jets.JetContext.create(n, 1)
                flat = J.jets.PDESystem(ctx)
                names = [f"z{j}" for j in range(1, n + 1)] + ["w"]
                for k, fdoc in enumerate(doc["basis"]):
                    X = J.segre.HoloField(table, [J.expr.parse_poly(fdoc[v], table) for v in names])
                    problems += criterion_problems(J, J.segre.to_xu_field(X, ctx), flat, f"cr-aut n={n} basis[{k}]")
            res = results.get(f"totally-real n={n}")
            if res is not None:
                doc = json.loads(res[1])
                if not doc["totally_real"] or doc["real_dimension"] != expected:
                    problems.append(f"totally-real n={n}: {doc}")
        res = results.get(f"closure flat {cn}x{cm}")
        if res is not None:
            problems += closure_problems(J, json.loads(res[1]), cn, cm)
        for k in range(BRACKET_PAIRS):
            xy, yx = results.get(f"bracket {k} [X,Y]"), results.get(f"bracket {k} [Y,X]")
            if xy is None or yx is None:
                continue
            A = parse_field(J, json.loads(xy[1])["field"], bracket_ctx)
            B = parse_field(J, json.loads(yx[1])["field"], bracket_ctx)
            if not (A + B).is_zero():
                problems.append(f"bracket {k}: [X,Y] + [Y,X] is not zero")
        return problems

    return Workload(jobs, f"closure flat {cn}x{cm}", check)


def closure_problems(J, doc: dict, n: int, m: int) -> list[str]:
    """Closure report against d(d-1)/2 pairs, and the structure constants of
    the same basis against antisymmetry and the Jacobi identity."""
    d = flat_dimension(n, m)
    problems = []
    if not doc["closes"] or doc["dimension"] != d or doc["pairs"] != d * (d - 1) // 2:
        problems.append(f"closure {n}x{m}: {doc}")
    basis = J.lie_alg.flat_generators(n, m)
    result = J.lie_alg.closure_check(basis)
    if not result.closes:
        return problems + [f"closure {n}x{m}: library closure check failed"]
    C: dict[tuple[int, int], dict[int, object]] = {}
    for (a, b), coeffs in result.structure_constants.items():
        sparse = {e: c for e, c in enumerate(coeffs) if not c.is_zero()}
        C[(a, b)] = sparse
        C[(b, a)] = {e: -c for e, c in sparse.items()}
    nonzero = sum(len(C[(a, b)]) for a in range(d) for b in range(a + 1, d))
    if nonzero != doc["nonzero_structure_constants"]:
        problems.append(f"closure {n}x{m}: {doc['nonzero_structure_constants']} nonzero constants, library has {nonzero}")
    fields = basis.fields
    for (a, b), sparse in C.items():
        if a > b:
            continue
        combo = J.prolong.VectorField.zero(fields[0].ctx)
        for e, c in sparse.items():
            combo = combo + fields[e].scale(c)
        if not (combo + J.lie_alg.bracket(fields[b], fields[a])).is_zero():
            problems.append(f"closure {n}x{m}: constants of ({a},{b}) are not antisymmetric in the bracket")
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                total: dict[int, object] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for e, v in C.get((x, y), {}).items():
                        for f, w in C.get((e, z), {}).items():
                            total[f] = total[f] + v * w if f in total else v * w
                if any(not v.is_zero() for v in total.values()):
                    problems.append(f"closure {n}x{m}: Jacobi identity fails at ({a},{b},{c})")
    return problems


WORKLOADS = {
    "flat-symmetry": flat_symmetry,
    "linearizable-taylor": linearizable_taylor,
    "segre-series": segre_series,
    "cr-closure": cr_closure,
}
