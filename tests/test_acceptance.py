"""Acceptance suite: every criterion asserted at exact equality, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import time
from contextlib import contextmanager
from random import Random

from jetsym.cli import main as cli_main
from jetsym.determining import (
    ETA,
    THETA,
    UnknownCoefficientField,
    generate_determining,
    initial_data_of,
    omega_basis,
    symmetry_algebra,
    taylor_from_initial_data,
)
from jetsym.jets import JetContext, PDESystem, involutivity_check, restricted_total_derivative, total_derivative
from jetsym.lie_alg import bracket, closure_check, flat_generators, span_equal
from jetsym.poly import Poly, poly_to_str
from jetsym.prolong import VectorField, lie_criterion_check, prolong
from jetsym.rings import COEF, JET, jet_var, u_var, x_var, zeta_var
from jetsym.expr import parse_poly
from jetsym.scalars import GaussScalar
from jetsym.segre import (
    DefiningSeries,
    Signature,
    cr_automorphism_algebra,
    defining_table,
    hyperquadric,
    segre_system,
    to_xu_field,
    totally_real_check,
)

from helpers import random_point_field, random_poly, zero_initial_data
from test_segre import back_substitution_residual


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def flat_system(n, m):
    return PDESystem(JetContext.create(n, m))


def cli_json(argv, capsys):
    rc = cli_main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_criterion_1_flat_dimension_scalar(capsys, tmp_path):
    with criterion(1, "flat (1,1): flat-algebra and symmetry-algebra both report 8, spans equal, < 5 s"):
        start = time.perf_counter()
        doc1 = cli_json(["flat-algebra", "--n", "1", "--m", "1"], capsys)
        assert doc1["dimension"] == 8
        system_file = tmp_path / "flat.json"
        system_file.write_text(json.dumps({"n": 1, "m": 1, "entries": []}))
        doc2 = cli_json(["symmetry-algebra", "--system", str(system_file)], capsys)
        assert doc2["dimension"] == 8
        sys_ = flat_system(1, 1)
        computed = [
            VectorField(
                sys_.ctx,
                tuple(parse_poly(t, sys_.ctx.table) for t in doc["theta"]),
                tuple(parse_poly(e, sys_.ctx.table) for e in doc["eta"]),
            )
            for doc in doc2["basis"]
        ]
        gens = flat_generators(1, 1, sys_.ctx)
        assert span_equal(computed, list(gens))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_flat_dimensions_general():
    with criterion(2, "flat dims 8/15/15/24 with generator spans, (2,2) < 2 min"):
        expected = {(1, 1): 8, (2, 1): 15, (1, 2): 15, (2, 2): 24}
        for (n, m), dim in expected.items():
            start = time.perf_counter()
            sys_ = flat_system(n, m)
            alg = symmetry_algebra(sys_, order=3)
            assert alg.dimension == dim == (n + m + 2) * (n + m)
            assert span_equal(alg.basis, list(flat_generators(n, m, sys_.ctx)))
            elapsed = time.perf_counter() - start
            if (n, m) == (2, 2):
                assert elapsed < 120.0, f"(2,2) took {elapsed:.2f}s"


def test_criterion_3_closure_and_jacobi():
    with criterion(3, "closure of flat generators for all (n,m); Jacobi on 100 random triples"):
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            assert closure_check(flat_generators(n, m)).closes
        rng = Random(55501)
        count = 0
        while count < 100:
            n, m = rng.choice([(1, 1), (2, 1), (1, 2)])
            ctx = JetContext.create(n, m)
            X = random_point_field(rng, ctx, max_degree=2)
            Y = random_point_field(rng, ctx, max_degree=2)
            Z = random_point_field(rng, ctx, max_degree=2)
            total = (
                bracket(bracket(X, Y), Z)
                + bracket(bracket(Y, Z), X)
                + bracket(bracket(Z, X), Y)
            )
            assert total.is_zero()
            count += 1


def perturbed_segre():
    table = defining_table(1)
    R = Poly.var(table, x_var(1)) ** 2 * Poly.var(table, zeta_var(1)) ** 2
    return segre_system(DefiningSeries(Signature((1,)), R), order=6)


def test_criterion_4_injectivity():
    with criterion(4, "omega = 0 gives zero field; basis round-trips exact to order 3 (flat and perturbed)"):
        for sys_ in (flat_system(1, 1), perturbed_segre()):
            n, m = sys_.ctx.n, sys_.ctx.m
            assert taylor_from_initial_data(sys_, zero_initial_data(n, m), order=3).is_zero()
            alg = symmetry_algebra(sys_, order=3)
            field = UnknownCoefficientField(sys_.ctx, 3)
            det = generate_determining(sys_, field)
            for Xb in alg.basis:
                om = initial_data_of(Xb)
                assert taylor_from_initial_data(sys_, om, order=3, det=det) == Xb


def test_criterion_5_oracle_equivalence():
    with criterion(5, "recursion over omega basis spans the nullspace algebra, flat (1,1) and (2,1)"):
        for n, m in [(1, 1), (2, 1)]:
            sys_ = flat_system(n, m)
            alg = symmetry_algebra(sys_, order=3)
            field = UnknownCoefficientField(sys_.ctx, 3)
            det = generate_determining(sys_, field)
            recursed = [
                taylor_from_initial_data(sys_, om, order=3, det=det)
                for om in omega_basis(n, m)
            ]
            assert span_equal(recursed, alg.basis)


def test_criterion_6_segre_elimination():
    with criterion(6, "hyperquadric systems are flat; cubic perturbation involutive and passes the oracle"):
        for sig in [Signature((1,)), Signature((-1,)), Signature((1, 1)), Signature((1, -1))]:
            sys_ = segre_system(hyperquadric(sig), order=5)
            assert all(f.is_zero() for f in sys_.entries.values())
            assert involutivity_check(sys_).involutive
        table = defining_table(1)
        R = Poly.var(table, x_var(1)) ** 2 * Poly.var(table, zeta_var(1))
        defn = DefiningSeries(Signature((1,)), R)
        sys_ = segre_system(defn, order=8)
        assert not sys_.F(1, 1, 1).is_zero()
        assert involutivity_check(sys_).involutive
        for r in back_substitution_residual(defn, sys_, order=8):
            assert r.is_zero()
            assert r.bound >= 6


def test_criterion_7_cr_dimensions():
    with criterion(7, "CR automorphism dims 8/15/15, totally real, bounded by Segre symmetry dims, < 30 s"):
        start = time.perf_counter()
        cases = [(Signature((1,)), 8), (Signature((1, 1)), 15), (Signature((1, -1)), 15)]
        for sig, dim in cases:
            alg = cr_automorphism_algebra(sig)
            assert alg.real_dimension == dim == sig.n ** 2 + 4 * sig.n + 3
            assert totally_real_check(alg.basis)
            sys_ = segre_system(hyperquadric(sig), order=5)
            sym = symmetry_algebra(sys_, order=3)
            assert alg.real_dimension <= sym.dimension
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_segre_invariance():
    with criterion(8, "every hyperquadric automorphism is a symmetry of the derived Segre system"):
        for sig in [Signature((1,)), Signature((1, 1)), Signature((1, -1))]:
            alg = cr_automorphism_algebra(sig)
            sys_ = segre_system(hyperquadric(sig), order=5)
            for X in alg.basis:
                residuals = lie_criterion_check(to_xu_field(X, sys_.ctx), sys_)
                assert all(r.is_zero() for r in residuals.values())


def test_criterion_9_determining_shape():
    with criterion(9, "flat (1,1) determining system is exactly the four classical equations"):
        sys_ = flat_system(1, 1)
        field = UnknownCoefficientField(sys_.ctx, 2)
        det = generate_determining(sys_, field)
        assert det.row_count == 4
        assert det.unknown_count == 12

        def cid(func, alpha):
            return field.col[(COEF, func, alpha)]

        two = GaussScalar(2)
        expected = {
            0: {cid((ETA, 1), (2, 0)): two},
            1: {cid((THETA, 1), (2, 0)): -two, cid((ETA, 1), (1, 1)): two},
            2: {cid((THETA, 1), (1, 1)): -two, cid((ETA, 1), (0, 2)): two},
            3: {cid((THETA, 1), (0, 2)): -two},
        }
        got = {}
        is_jet = [vid[0] == JET for vid in field.table.ids]
        for prov, row in det.ordered():
            assert (prov.mu, prov.i, prov.j) == (1, 1, 1)
            got[sum(e for p, e in prov.mono if is_jet[p])] = row
        assert got == expected


def test_criterion_10_property_suites():
    with criterion(10, "randomized property suites (>= 100 instances each, exact)"):
        rng = Random(987654321)
        ctx = JetContext.create(2, 2)
        vids = [x_var(1), x_var(2), u_var(1), u_var(2), jet_var(1, (1,)), jet_var(2, (2,))]
        # ring axioms
        for _ in range(100):
            f = random_poly(rng, ctx.table, vids)
            g = random_poly(rng, ctx.table, vids)
            h = random_poly(rng, ctx.table, vids)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
        # Leibniz rule for the total derivative
        for _ in range(100):
            f = random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
            g = random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
            i = rng.choice((1, 2))
            assert total_derivative(ctx, f * g, i) == (
                total_derivative(ctx, f, i) * g + f * total_derivative(ctx, g, i)
            )
        # commutation of the total derivatives restricted to the flat system:
        # D_1 D_2 of a first-order function would need third jets
        flat = PDESystem(ctx)
        for _ in range(100):
            f = random_poly(rng, ctx.table, vids, max_terms=3, max_degree=2)
            assert restricted_total_derivative(flat, restricted_total_derivative(flat, f, 1), 2) == (
                restricted_total_derivative(flat, restricted_total_derivative(flat, f, 2), 1)
            )
        # prolongation degree bounds
        for _ in range(100):
            X = random_point_field(rng, ctx)
            Xp = prolong(X, 2)
            for (mu, idx), f in Xp.eta_jet.items():
                if len(idx) != 2:
                    continue
                for mono in f.terms:
                    first = second = 0
                    for p, e in mono:
                        vid = ctx.table.ids[p]
                        if vid[0] == JET:
                            if len(vid[2]) == 1:
                                first += e
                            else:
                                second += e
                    assert first <= 3 and second <= 1
        # parser round trip
        for _ in range(100):
            f = random_poly(rng, ctx.table, vids, max_terms=5, max_degree=4)
            assert parse_poly(poly_to_str(f), ctx.table) == f
