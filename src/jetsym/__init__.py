"""jetsym: exact Lie point symmetries of completely overdetermined
second-order PDE systems, Segre families, and CR automorphism algebras
of hyperquadrics."""

from .determining import (
    DeterminingSystem,
    InitialData,
    UnknownCoefficientField,
    generate_determining,
    initial_data_of,
    omega_basis,
    symmetry_algebra,
    taylor_from_initial_data,
)
from .expr import ParseError, parse_poly, parse_scalar
from .jets import (
    JetContext,
    JetOrderError,
    PDESystem,
    involutivity_check,
    restricted_total_derivative,
    total_derivative,
)
from .lie_alg import FieldBasis, bracket, closure_check, flat_generators, span_dimension, span_equal
from .linalg import LinearSystemExact, solve_linear_exact
from .poly import Poly, poly_to_str
from .prolong import ProlongedField, VectorField, apply_prolonged, lie_criterion_check, prolong
from .rings import VarTable, cr_table, jet_table, jet_var, u_var, x_var, zeta_var
from .scalars import GaussScalar
from .segre import (
    CRAutomorphismAlgebra,
    DefiningSeries,
    HoloField,
    RealDefiningPolynomial,
    Signature,
    cr_automorphism_algebra,
    cr_tangency_check,
    defining_table,
    hyperquadric,
    hyperquadric_rho,
    segre_system,
    to_xu_field,
    totally_real_check,
)
from .series import implicit_series_solve

__all__ = [
    "CRAutomorphismAlgebra",
    "DefiningSeries",
    "DeterminingSystem",
    "FieldBasis",
    "GaussScalar",
    "HoloField",
    "InitialData",
    "JetContext",
    "JetOrderError",
    "LinearSystemExact",
    "PDESystem",
    "ParseError",
    "Poly",
    "ProlongedField",
    "RealDefiningPolynomial",
    "Signature",
    "UnknownCoefficientField",
    "VarTable",
    "VectorField",
    "apply_prolonged",
    "bracket",
    "closure_check",
    "cr_automorphism_algebra",
    "cr_tangency_check",
    "cr_table",
    "defining_table",
    "flat_generators",
    "generate_determining",
    "hyperquadric",
    "hyperquadric_rho",
    "implicit_series_solve",
    "initial_data_of",
    "involutivity_check",
    "jet_table",
    "jet_var",
    "lie_criterion_check",
    "omega_basis",
    "parse_poly",
    "parse_scalar",
    "poly_to_str",
    "prolong",
    "restricted_total_derivative",
    "segre_system",
    "solve_linear_exact",
    "span_dimension",
    "span_equal",
    "symmetry_algebra",
    "taylor_from_initial_data",
    "to_xu_field",
    "total_derivative",
    "totally_real_check",
    "u_var",
    "x_var",
    "zeta_var",
]
