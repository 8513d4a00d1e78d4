"""S. Lie's method in one place: polynomials whose coefficients are formal
unknowns.

A ``LinearAnsatz`` numbers the unknowns, solves and realizes: each caller
writes its homogeneous equations, one {column: coefficient} row per
monomial, straight from a linear operator, never from a symbolic ansatz;
the ansatz solves them for a nullspace basis and turns each solution back
into polynomials.  The determining equations and the CR automorphism solve
both go through it: ``LinearAnsatz.solutions`` is the one exact nullspace
call of the package.  Solutions are sparse {column: value} vectors of
nonzero values from the solver to the polynomials, so realizing one reads
only its nonzeros.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial

from .linalg import LinearSystemExact, solve_linear_exact
from .poly import Poly
from .scalars import GaussScalar, ZERO


def monomials_up_to(nvars: int, degree: int):
    """Dense exponent tuples of total degree <= degree, graded then lex."""
    out = []
    for deg in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), deg):
            alpha = [0] * nvars
            for p in combo:
                alpha[p] += 1
            out.append(tuple(alpha))
    return out


def alpha_factorial(alpha) -> int:
    f = 1
    for e in alpha:
        f *= factorial(e)
    return f


class LinearAnsatz:
    """Polynomials in ``wvars`` whose coefficients are formal unknowns.

    ``unknowns`` lists (COEF, name, alpha) ids in column order, alpha a dense
    exponent tuple over wvars; the unknowns of one name make up the ansatz
    polynomial sum_alpha c_alpha * w^alpha of that name.
    """

    def __init__(self, table, wvars, unknowns):
        self.table = table
        self.wvars = list(wvars)
        self.unknowns = list(unknowns)
        self.col = {cid: c for c, cid in enumerate(self.unknowns)}
        self.wpos = [table.index(v) for v in self.wvars]
        # column -> (name, monomial in wvars); the names in column order
        self._terms = [(name, self.monomial(alpha)) for _, name, alpha in self.unknowns]
        self._names = list(dict.fromkeys(name for name, _ in self._terms))

    def monomial(self, alpha) -> tuple:
        """The monomial w^alpha of a dense exponent tuple over wvars."""
        return tuple(sorted((p, e) for p, e in zip(self.wpos, alpha) if e))

    def solutions(self, rows) -> list[dict[int, GaussScalar]]:
        """A nullspace basis of the homogeneous ``rows`` ({column: coefficient}
        each): one sparse vector {column: value} of nonzero values per free
        column, in order."""
        system = LinearSystemExact(rows, [ZERO] * len(rows), ncols=len(self.unknowns))
        return solve_linear_exact(system).null_vectors

    def realize(self, vec) -> dict[object, Poly]:
        """{name: the ansatz polynomial of name over the base table, with the
        unknown of column c replaced by vec[c]} for every name; vec is a
        sparse {column: value} vector of nonzero values, and only its entries
        are read.  Terms come in the order of vec."""
        terms = {name: {} for name in self._names}
        for c, v in vec.items():
            name, mono = self._terms[c]
            terms[name][mono] = v
        return {name: Poly(self.table, t) for name, t in terms.items()}
