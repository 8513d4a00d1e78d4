from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.linalg import LinearSystemExact, _Reducer, express_in_span, solve_linear_exact, span_coordinates, sparse_rank
from jetsym.scalars import GaussScalar, I, ONE, ZERO

from helpers import (
    budget,
    first_difference,
    linear_residual,
    random_scalar,
    reference_insert,
    reference_solve_linear_exact,
    reference_span_coordinates,
)


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


def test_entry_at_ncols_rejected():
    # The solver carries the right side in column ncols.
    with pytest.raises(ValueError):
        LinearSystemExact([{0: ONE, 2: ONE}], [ONE], ncols=2)


def first_contradiction(rows, rhs, ncols):
    """Dense reference, independent of the solver: the first row k at which
    (rows | rhs) stops being solvable, with weights y over rows 0..k such that
    sum y_i rows_i = 0 while sum y_i rhs_i != 0; None if every row can be met."""
    basis = []  # (pivot column, augmented row, weights), in insertion order
    for k, (row, b) in enumerate(zip(rows, rhs)):
        vec = list(row) + [b]
        weights = [ZERO] * len(rows)
        weights[k] = ONE
        for p, bvec, bweights in basis:
            f = vec[p]
            if not f.is_zero():
                vec = [v - f * w for v, w in zip(vec, bvec)]
                weights = [v - f * w for v, w in zip(weights, bweights)]
        pivot = next((c for c in range(ncols) if not vec[c].is_zero()), None)
        if pivot is None:
            if not vec[ncols].is_zero():
                return k, weights
            continue
        inv = vec[pivot].inverse()
        basis.append((pivot, [v * inv for v in vec], [v * inv for v in weights]))
    return None


def dot(a, b):
    acc = ZERO
    for p, q in zip(a, b):
        acc = acc + p * q
    return acc


def test_solution_properties_random():
    """Random systems, consistent by construction or with one right side
    shifted.  An unshifted system must be consistent, with a particular
    solution and a nullspace of zero residual.  A shifted one is consistent
    exactly when the dense reference finds no contradiction; when it is not,
    the solver names the reference's row, whose weights are checked by hand
    to combine rows 0..k to zero and their right sides to nonzero."""
    rng = Random(4242)
    seen = {True: 0, False: 0}
    for _ in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 5)
        rows = [[random_scalar(rng, span=3) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            # a dependent row, so a shifted right side can contradict it
            a, b = random_scalar(rng, span=2), random_scalar(rng, span=2)
            rows[-1] = [a * p + b * q for p, q in zip(rows[0], rows[1 % (nrows - 1)])]
        x_true = [random_scalar(rng, span=2) for _ in range(ncols)]
        rhs = [dot(row, x_true) for row in rows]
        shifted = rng.random() < 0.5
        if shifted:
            k = rng.randrange(nrows)
            rhs[k] = rhs[k] + G(rng.choice([-2, -1, 1, 2]))
        sys = LinearSystemExact([list(r) for r in rows], rhs, ncols=ncols)
        res = solve_linear_exact(sys)
        expected = first_contradiction(rows, rhs, ncols)
        if not shifted:
            assert expected is None  # constructed to be solvable
            assert res.consistent
        seen[res.consistent] += 1
        if not res.consistent:
            assert expected is not None
            k, weights = expected
            assert res.inconsistent_row == k
            assert all(w.is_zero() for w in weights[k + 1 :]) and not weights[k].is_zero()
            for c in range(ncols):
                assert dot(weights, [row[c] for row in rows]).is_zero()
            assert not dot(weights, rhs).is_zero()
            before = LinearSystemExact(sys.rows[:k], sys.rhs[:k], ncols=ncols)
            head = solve_linear_exact(before)
            assert head.consistent
            assert all(v.is_zero() for v in linear_residual(before, head.particular))
            continue
        assert expected is None
        assert all(v.is_zero() for v in linear_residual(sys, res.particular))
        for vec in res.nullspace:
            assert all(v.is_zero() for v in linear_residual(sys, [a + b for a, b in zip(res.particular, vec)]))
        assert res.rank + len(res.nullspace) == ncols
    assert min(seen.values()) > 20


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


@settings(max_examples=budget(150), deadline=None)
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


# -- the holders map against the reducer that scanned every pivot row ----------------


def random_sparse_rows(rng, nrows, ncols):
    """Sparse Gaussian rows of mixed density; some repeat an earlier row and
    some combine two earlier rows, so that many reduce to zero."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif len(rows) > 1 and pick < 0.35:
            rows.append(combination(rng.sample(rows, 2), [random_scalar(rng, span=2) for _ in range(2)]))
        else:
            density = rng.choice([0.15, 0.3, 0.6])
            row = {c: random_scalar(rng, span=3) for c in range(ncols) if rng.random() < density}
            rows.append({c: v for c, v in row.items() if not v.is_zero()})
    return rows


@settings(max_examples=budget(200), deadline=None)
@given(st.integers(0, 2**32))
def test_sparse_solves_match_reference(seed):
    # The same rows through the reducer, the solver (a right side now and
    # then) and the span readout, each against the code it replaced; one
    # assertion, so a failure is shrunk once.
    rng = Random(seed)
    ncols = rng.randint(1, 14)
    rows = random_sparse_rows(rng, rng.randint(0, 16), ncols)
    new, ref = _Reducer(), _Reducer()
    got = [[new.insert(row) for row in rows], new.pivots]
    expected = [[reference_insert(ref, row) for row in rows], ref.pivots]
    system = LinearSystemExact(rows, [random_scalar(rng) if rng.random() < 0.2 else ZERO for _ in rows], ncols)
    for res, out in ((solve_linear_exact(system), got), (reference_solve_linear_exact(system), expected)):
        out += [res.consistent, res.inconsistent_row, res.pivot_columns, res.rank, res.particular, res.nullspace]
    k = rng.randint(0, len(rows))
    basis = rows[:k]
    targets = rows[k:] + random_sparse_rows(rng, 2, ncols)
    if basis:
        targets.append(combination(basis, [random_scalar(rng, span=2) for _ in basis]))
    got.append(list(span_coordinates(basis, targets, ncols)))
    expected.append(list(reference_span_coordinates(basis, targets, ncols)))
    assert first_difference(got, expected) is None


@settings(max_examples=budget(200), deadline=None)
@given(st.integers(0, 2**32))
def test_holders_list_every_non_pivot_entry(seed):
    rng = Random(seed)
    ncols = rng.randint(1, 14)
    red = _Reducer()
    for row in random_sparse_rows(rng, rng.randint(0, 16), ncols):
        red.insert(row)
    entries = [(c, pc) for pc, row in red.pivots.items() for c in row if c != pc]
    listed = [(c, pc) for c, pc in entries if pc in red.holders.get(c, ())]
    assert first_difference(listed, entries) is None
