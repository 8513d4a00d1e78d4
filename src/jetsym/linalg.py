"""Exact linear algebra over GaussScalar: reduced row echelon form, solving,
rank, and nullspace bases.

Pivoting is deterministic (first nonzero entry in column order), and since
the reduced row echelon form of a matrix is unique, every result here is
bit-stable across runs.  Rows are held sparsely as {column: coefficient}
dictionaries; the reduction keeps full Gauss-Jordan form incrementally, so
inserting a row only ever touches columns that are actually populated.  The
reducer works on homogeneous rows only: a right side b is carried as one
extra column, past the unknowns, holding -b.

The reducer also keeps ``holders``: for each non-pivot column, the pivot
columns whose rows may hold it.  Every nonzero non-pivot entry of a pivot
row is listed there; an entry that cancelled may stay listed, and a row may
be listed twice, so the lists are a superset.  A new pivot column is cleared
only from the rows its holders name, not from every pivot row, and the
results read the pivot rows' own entries rather than probing every column.

A nullspace basis is sparse: ``LinearSolveResult.null_vectors`` holds one
{column: value} vector of nonzero values per free column, read off the
pivot rows; ``LinearSolveResult.nullspace`` writes them out densely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import GaussScalar, ZERO, ONE


class LinearSystemExact:
    """An exact linear system matrix*x = rhs; ncols defaults to one past the
    largest column present."""

    def __init__(self, rows, rhs, ncols=None):
        self.rows: list[dict[int, GaussScalar]] = []
        for row in rows:
            if isinstance(row, dict):
                self.rows.append({c: v for c, v in row.items() if not v.is_zero()})
            else:
                self.rows.append({c: v for c, v in enumerate(row) if not v.is_zero()})
        self.rhs: list[GaussScalar] = list(rhs)
        if len(self.rhs) != len(self.rows):
            raise ValueError("rhs length does not match row count")
        if ncols is None:
            ncols = 1 + max((max(r) for r in self.rows if r), default=-1)
        elif any(r and max(r) >= ncols for r in self.rows):
            raise ValueError("a row has an entry at or past column ncols")
        self.ncols = ncols


@dataclass
class LinearSolveResult:
    consistent: bool
    particular: list[GaussScalar] | None = None
    # one sparse {column: value} vector of nonzero values per free column
    null_vectors: list[dict[int, GaussScalar]] = field(default_factory=list)
    pivot_columns: list[int] = field(default_factory=list)
    inconsistent_row: int | None = None  # 0-based index into the input rows
    ncols: int = 0

    @property
    def rank(self) -> int:
        return len(self.pivot_columns)

    @property
    def nullspace(self) -> list[list[GaussScalar]]:
        """The null vectors written out densely, one value per column."""
        return [[vec.get(c, ZERO) for c in range(self.ncols)] for vec in self.null_vectors]


class _Reducer:
    """Incrementally maintained reduced row echelon form of homogeneous rows."""

    def __init__(self):
        self.pivots: dict[int, dict[int, GaussScalar]] = {}  # pivot column -> row
        self.holders: dict[int, list[int]] = {}  # column -> pivot columns whose rows may hold it

    def reduce(self, row: dict[int, GaussScalar]) -> dict[int, GaussScalar]:
        """The row reduced against the current pivots, as a new dict."""
        row = dict(row)
        for c in sorted(c for c in row if c in self.pivots):
            factor = row.pop(c)
            for cc, vv in self.pivots[c].items():
                if cc == c:
                    continue
                acc = row.get(cc)
                nv = (acc - factor * vv) if acc is not None else -(factor * vv)
                if nv.is_zero():
                    row.pop(cc, None)
                else:
                    row[cc] = nv
        return row

    def insert(self, row: dict[int, GaussScalar]) -> int | None:
        """Insert a row; returns its new pivot column, or None if it reduces
        to zero."""
        row = self.reduce(row)
        if not row:
            return None
        pc = min(row)
        inv = row[pc].inverse()
        row = {c: v * inv for c, v in row.items()}
        # Keep full Gauss-Jordan form: clear this column from the earlier
        # pivot rows that may hold it.  It is a pivot column from now on, so
        # no row will hold it again.
        holders = self.holders
        clear = holders.pop(pc, ())
        for cc in row:
            if cc != pc:
                holders.setdefault(cc, []).append(pc)
        for p in clear:
            prow = self.pivots[p]
            f = prow.pop(pc, None)
            if f is None:
                continue
            for cc, vv in row.items():
                if cc == pc:
                    continue
                acc = prow.get(cc)
                if acc is None:
                    holders[cc].append(p)  # fill-in
                nv = (acc - f * vv) if acc is not None else -(f * vv)
                if nv.is_zero():
                    prow.pop(cc, None)
                else:
                    prow[cc] = nv
        self.pivots[pc] = row
        return pc


def solve_linear_exact(system: LinearSystemExact) -> LinearSolveResult:
    """Solve exactly: particular solution plus a sparse nullspace basis, or
    an inconsistency report naming the offending input row.

    The right side rides along as column ncols holding -b, so each row reads
    row . (x, 1) = 0; a pivot in that column is a row 0 = nonzero."""
    ncols = system.ncols
    red = _Reducer()
    for idx, (row, b) in enumerate(zip(system.rows, system.rhs)):
        if red.insert({**row, ncols: -b} if not b.is_zero() else row) == ncols:
            return LinearSolveResult(consistent=False, inconsistent_row=idx, ncols=ncols)
    pivot_cols = sorted(red.pivots)
    particular = [ZERO] * ncols
    for c in pivot_cols:
        particular[c] = -red.pivots[c].get(ncols, ZERO)
    # One pass over the pivot rows: every entry of row c other than the
    # pivot and the right side sits in a free column f > c, and gives
    # vector f its coordinate c; the free column's own 1 comes last, so
    # each vector lists its columns in order.
    vectors = {f: {} for f in range(ncols) if f not in red.pivots}
    for c in pivot_cols:
        for f, entry in red.pivots[c].items():
            vec = vectors.get(f)
            if vec is not None:
                vec[c] = -entry
    for f, vec in vectors.items():
        vec[f] = ONE
    return LinearSolveResult(
        consistent=True,
        particular=particular,
        null_vectors=list(vectors.values()),
        pivot_columns=pivot_cols,
        ncols=ncols,
    )


def sparse_rank(rows) -> int:
    """Rank of a collection of sparse {column: coefficient} rows."""
    red = _Reducer()
    for row in rows:
        red.insert(row)
    return len(red.pivots)


def span_coordinates(basis_rows, targets, ncols: int):
    """Exact coordinates of each target in the span of the basis rows, or
    None for a target outside the span; yields one result per target.

    All rows are sparse {column: GaussScalar} vectors (nonzero entries only)
    with columns below ncols.  The basis is reduced once: basis row k carries
    a tag column ncols + k holding 1, so every pivot row records which
    combination of basis rows it is, and a target reduced against the pivots
    keeps minus its coordinates in the tag columns; the coordinates are read
    off those entries, and every other one is ``ZERO``.  For a dependent
    basis the coordinates are one solution among many; they still reproduce
    the target exactly.
    """
    red = _Reducer()
    for k, row in enumerate(basis_rows):
        red.insert({**row, ncols + k: ONE})
    for target in targets:
        row = red.reduce(target)
        if any(c < ncols for c in row):
            yield None
        else:
            coords = [ZERO] * len(basis_rows)
            for c, v in row.items():
                coords[c - ncols] = -v
            yield coords


def express_in_span(basis_rows, target_row):
    """Exact coordinates of target in the span of basis rows, or None.

    basis_rows and target_row are sparse {column: GaussScalar} vectors
    (nonzero entries only).  For a dependent basis the coordinates are one
    solution among many; they still reproduce the target exactly.
    """
    ncols = 1 + max((c for row in [target_row, *basis_rows] for c in row), default=-1)
    return next(span_coordinates(basis_rows, [target_row], ncols))
