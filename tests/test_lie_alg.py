import json
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.cli import field_from_doc
from jetsym.jets import JetContext
from jetsym.lie_alg import (
    FieldBasis,
    bracket,
    closure_check,
    flat_generators,
    span_dimension,
    span_equal,
)
from jetsym.linalg import span_coordinates, sparse_rank
from jetsym.prolong import VectorField
from jetsym.scalars import GaussScalar

from helpers import (
    budget,
    first_difference,
    random_point_field,
    reference_bracket,
    reference_coefficient_rows,
    reference_flat_generators,
)


def test_bracket_antisymmetry_trivial():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.x(1) * ctx.u(1),), (ctx.u(1),))
    assert bracket(X, X).is_zero()


def test_bracket_constant_fields_commute():
    ctx = JetContext.create(1, 1)
    U1 = VectorField(ctx, (ctx.const(1),), (ctx.zero(),))
    V1 = VectorField(ctx, (ctx.zero(),), (ctx.const(1),))
    assert bracket(U1, V1).is_zero()


def test_bracket_projective_example():
    ctx = JetContext.create(1, 1)
    x, u = ctx.x(1), ctx.u(1)
    X = VectorField(ctx, (ctx.const(1),), (ctx.zero(),))
    Y = VectorField(ctx, (x * x,), (x * u,))
    Z = bracket(X, Y)
    assert Z.theta[0] == x.scale(GaussScalar(2))
    assert Z.eta[0] == u


def test_bracket_bilinear_antisymmetric_random():
    ctx = JetContext.create(2, 1)
    rng = Random(271828)
    for _ in range(40):
        X = random_point_field(rng, ctx)
        Y = random_point_field(rng, ctx)
        Z = random_point_field(rng, ctx)
        assert (bracket(X, Y) + bracket(Y, X)).is_zero()
        s = GaussScalar(rng.randint(-3, 3))
        left = bracket(X.scale(s) + Y, Z)
        right = bracket(X, Z).scale(s) + bracket(Y, Z)
        assert (left - right).is_zero()


def test_jacobi_identity_random():
    rng = Random(161803)
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


def test_flat_generator_counts():
    for n, m, dim in [(1, 1, 8), (2, 1, 15), (1, 2, 15), (2, 2, 24)]:
        basis = flat_generators(n, m)
        assert len(basis) == dim == (n + m + 2) * (n + m)
        assert span_dimension(basis.fields) == dim


def test_flat_generator_names_follow_listing_order():
    basis = flat_generators(1, 1)
    assert basis.names == ["U1", "V1", "W11", "A11", "B11", "C11", "X1", "Y1"]


def test_flat_generators_match_hand_written_reference():
    # Every shape with n, m >= 1 and n + m <= 6: names, order and fields.
    for n in range(1, 6):
        for m in range(1, 7 - n):
            ctx = JetContext.create(n, m)
            got, want = flat_generators(n, m, ctx), reference_flat_generators(n, m, ctx)
            assert (n, m, got.names) == (n, m, want.names)
            assert got.fields == want.fields


def test_flat_generator_names_stay_unique():
    # Once an index reaches 10, the two indices of W, A, B and C are joined
    # by "_" (W1_11 and W11_1, never two W111); every name whose indices are
    # both below 10 is the hand-written reference's.
    for n, m in [(10, 1), (11, 1), (1, 11), (3, 10), (12, 2)]:
        names, want = flat_generators(n, m).names, reference_flat_generators(n, m).names
        joined = [name[1:].split("_") for name in names if "_" in name]
        assert len(set(names)) == len(names) == (n + m + 2) * (n + m)
        assert all(len(pair) == 2 and max(map(int, pair)) >= 10 for pair in joined)
        assert [(g, w) for g, w in zip(names, want) if "_" not in g and g != w] == []


def sl2_basis():
    docs = json.loads((Path(__file__).parent / "golden" / "inputs" / "sl2_basis.json").read_text())
    first = field_from_doc(docs[0])
    return FieldBasis([first] + [field_from_doc(doc, first.ctx) for doc in docs[1:]])


def test_counted_frame_matches_sorted_frame_reference():
    # Structure constants and span dimensions on the counted frame equal
    # those the sorted frame gives for the hand-written generators.
    for got, want in [
        (flat_generators(2, 2), reference_flat_generators(2, 2)),
        (flat_generators(1, 2), reference_flat_generators(1, 2)),
        (sl2_basis(), sl2_basis()),
    ]:
        fields = want.fields
        d = len(fields)
        pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
        brackets = [bracket(fields[a], fields[b]) for a, b in pairs]
        rows, frame = reference_coefficient_rows([X.theta + X.eta for X in fields + brackets])
        coords = span_coordinates(rows[:d], rows[d:], len(frame))
        assert closure_check(got).structure_constants == {pair: tuple(c) for pair, c in zip(pairs, coords)}
        assert span_dimension(got.fields) == sparse_rank(rows[:d]) == d
        got_brackets = [bracket(got.fields[a], got.fields[b]) for a, b in pairs]
        assert span_dimension(got.fields + got_brackets) == sparse_rank(rows) == d


def test_closure_flat():
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        result = closure_check(flat_generators(n, m))
        assert result.closes
        dim = (n + m + 2) * (n + m)
        assert len(result.structure_constants) == dim * (dim - 1) // 2


def test_closure_structure_constants_reproduce_brackets():
    basis = flat_generators(1, 1)
    result = closure_check(basis)
    for (a, b), coeffs in result.structure_constants.items():
        reconstructed = VectorField.zero(basis.fields[0].ctx)
        for c, X in zip(coeffs, basis.fields):
            reconstructed = reconstructed + X.scale(c)
        assert (bracket(basis.fields[a], basis.fields[b]) - reconstructed).is_zero()


def test_closure_failure_detected():
    ctx = JetContext.create(1, 1)
    x = ctx.x(1)
    fields = [
        VectorField(ctx, (ctx.const(1),), (ctx.zero(),)),
        VectorField(ctx, (x * x,), (ctx.zero(),)),
    ]
    result = closure_check(FieldBasis(fields))
    assert not result.closes
    a, b, residual = result.failure
    assert (a, b) == (0, 1)
    assert residual.theta[0] == x.scale(GaussScalar(2))


def test_single_field_closes():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.x(1),), (ctx.zero(),))
    result = closure_check(FieldBasis([X]))
    assert result.closes
    assert result.structure_constants == {}


def test_span_dimension_examples():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.const(1),), (ctx.zero(),))
    assert span_dimension([X, X.scale(GaussScalar(2))]) == 1
    assert span_dimension([]) == 0
    assert span_dimension(flat_generators(1, 1).fields) == 8


def test_field_basis_rejects_dependent_fields():
    ctx = JetContext.create(1, 1)
    X = VectorField(ctx, (ctx.const(1),), (ctx.zero(),))
    with pytest.raises(ValueError):
        FieldBasis([X, X.scale(GaussScalar(3))])


def test_span_equal():
    basis = flat_generators(1, 1)
    shuffled = list(reversed(basis.fields))
    assert span_equal(basis.fields, shuffled)
    assert not span_equal(basis.fields[:4], basis.fields)


CONTEXTS = {shape: JetContext.create(*shape) for shape in [(1, 1), (2, 1), (1, 2), (2, 2)]}


@settings(max_examples=budget(200), deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(sorted(CONTEXTS)))
def test_bracket_matches_reference(seed, shape):
    # Random point fields, with zero components and now and then a
    # truncated one, against the bracket that built the derivation vectors
    # once per component.
    rng = Random(seed)
    ctx = CONTEXTS[shape]

    def field():
        X = random_point_field(rng, ctx)
        cut = [f.truncate(rng.choice([None, None, None, 0, 1, 2])) for f in X.theta + X.eta]
        return VectorField(ctx, cut[: ctx.n], cut[ctx.n :])

    X, Y = field(), field()
    got, expected = bracket(X, Y), reference_bracket(X, Y)
    assert first_difference(
        [(f.terms, f.bound) for f in got.theta + got.eta],
        [(f.terms, f.bound) for f in expected.theta + expected.eta],
    ) is None
