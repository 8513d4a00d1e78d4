from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from jetsym.linalg import LinearSystemExact, express_in_span, solve_linear_exact, sparse_rank
from jetsym.scalars import GaussScalar, I, ONE, ZERO

from helpers import random_scalar


def G(x):
    return GaussScalar(x)


def test_identity_system():
    sys = LinearSystemExact([[G(1), G(0)], [G(0), G(1)]], [ONE, I])
    res = solve_linear_exact(sys)
    assert res.consistent
    assert res.particular == [ONE, I]
    assert res.nullspace == []


def test_rank_deficient_solution():
    sys = LinearSystemExact([[G(1), G(1)], [G(2), G(2)]], [G(3), G(6)])
    res = solve_linear_exact(sys)
    assert res.consistent
    assert res.particular == [G(3), ZERO]
    assert res.nullspace == [[G(-1), ONE]]


def test_inconsistent_reports_offending_row():
    sys = LinearSystemExact([[G(1), G(1)], [G(2), G(2)]], [G(3), G(5)])
    res = solve_linear_exact(sys)
    assert not res.consistent
    assert res.inconsistent_row == 1
    assert "row 2" in res.message()


def test_solution_properties_random():
    rng = Random(4242)
    for _ in range(100):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [[random_scalar(rng, span=3) for _ in range(ncols)] for _ in range(nrows)]
        x_true = [random_scalar(rng, span=2) for _ in range(ncols)]
        rhs = []
        for row in rows:
            acc = ZERO
            for a, b in zip(row, x_true):
                acc = acc + a * b
            rhs.append(acc)
        sys = LinearSystemExact([list(r) for r in rows], rhs, ncols=ncols)
        res = solve_linear_exact(sys)
        assert res.consistent  # constructed to be solvable
        assert all(v.is_zero() for v in sys.residual(res.particular))
        for vec in res.nullspace:
            assert all(v.is_zero() for v in sys.residual([a + b for a, b in zip(res.particular, vec)]))
        assert res.rank + len(res.nullspace) == ncols


def test_sparse_rank():
    rows = [{0: ONE, 1: ONE}, {0: G(2), 1: G(2)}, {1: ONE}]
    assert sparse_rank(rows) == 2
    assert sparse_rank([]) == 0


def test_express_in_span():
    basis = [{0: ONE, 1: ONE}, {1: ONE}]
    target = {0: G(2), 1: G(5)}
    coords = express_in_span(basis, target)
    assert coords == [G(2), G(3)]
    assert express_in_span(basis, {2: ONE}) is None


# -- express_in_span against a transposed solve ------------------------------------

small_scalars = st.builds(
    lambda a, b, c: GaussScalar(Fraction(a, b), c),
    st.integers(-2, 2),
    st.integers(1, 3),
    st.sampled_from([0, 0, 1, -1]),
)


def sparse(vec):
    return {c: v for c, v in enumerate(vec) if not v.is_zero()}


def span_reference(basis_rows, target_row):
    """sum_k a_k * basis_k = target solved as one system, one row per column."""
    cols = sorted(set(target_row).union(*basis_rows))
    rows = [{k: b[c] for k, b in enumerate(basis_rows) if c in b} for c in cols]
    rhs = [target_row.get(c, ZERO) for c in cols]
    res = solve_linear_exact(LinearSystemExact(rows, rhs, ncols=len(basis_rows)))
    return res.particular if res.consistent else None


@st.composite
def basis_and_target(draw):
    """Random basis rows, and a target that lies in their span half the time."""
    ncols = draw(st.integers(1, 5))
    vector = st.lists(small_scalars, min_size=ncols, max_size=ncols)
    basis = [sparse(draw(vector)) for _ in range(draw(st.integers(1, ncols + 1)))]
    if draw(st.booleans()):
        target = {}
        for row in basis:
            a = draw(small_scalars)
            for c, v in row.items():
                target[c] = target.get(c, ZERO) + a * v
        target = {c: v for c, v in target.items() if not v.is_zero()}
    else:
        target = sparse(draw(vector))
    return basis, target


def combination(basis_rows, coords):
    out = {}
    for a, row in zip(coords, basis_rows):
        for c, v in row.items():
            out[c] = out.get(c, ZERO) + a * v
    return {c: v for c, v in out.items() if not v.is_zero()}


@settings(max_examples=150, deadline=None)
@given(basis_and_target())
def test_express_in_span_matches_transposed_solve(case):
    basis, target = case
    got = express_in_span(basis, target)
    expected = span_reference(basis, target)
    assert (got is None) == (expected is None)
    if got is None:
        return
    assert combination(basis, got) == target
    if sparse_rank(basis) == len(basis):
        # independent basis: the coordinates are unique
        assert got == expected
