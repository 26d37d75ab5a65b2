"""Exact parametrization of Groebner cells of Artinian ideals in K[x, y]
by canonical Hilbert-Burch matrices, with the projective lift to K[x, y, z]
and Betti-stratum computations."""

from .betti import (
    BettiTable,
    ResolutionDegrees,
    betti_numbers,
    block_matrix,
    index_sets,
    matrix_rank,
    resolution_degrees,
    strata_codim,
    strata_codim_total,
)
from .canonical import canonicalize
from .cell import (
    MonomialCell,
    below_diagonal_stats,
    bound_matrix,
    cell_from_minimal_generators,
    degree_matrix,
    dimension,
    dimension_bounds,
    hilbert_function,
    lex_betti,
    make_cell,
    param_count,
    special_indices,
)
from .errors import GrobcellError, InternalError, ValidationError
from .field import GF, QQ, char_ok, is_prime
from .groebner import (
    GroebnerBasis,
    buchberger,
    divide,
    initial_ideal,
    s_polynomial,
)
from .hilburch import (
    IdealBasis,
    ParamMatrix,
    check_membership,
    param_matrix_from_json,
    param_matrix_to_json,
    psi,
    sample,
    verify_groebner_property,
)
from .poly import Poly, format_poly, homogenize, parse_poly, variable
from .projective import psi_bar

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "ResolutionDegrees",
    "betti_numbers",
    "block_matrix",
    "index_sets",
    "matrix_rank",
    "resolution_degrees",
    "strata_codim",
    "strata_codim_total",
    "canonicalize",
    "MonomialCell",
    "below_diagonal_stats",
    "bound_matrix",
    "cell_from_minimal_generators",
    "degree_matrix",
    "dimension",
    "dimension_bounds",
    "hilbert_function",
    "lex_betti",
    "make_cell",
    "param_count",
    "special_indices",
    "GrobcellError",
    "InternalError",
    "ValidationError",
    "GF",
    "QQ",
    "char_ok",
    "is_prime",
    "GroebnerBasis",
    "buchberger",
    "divide",
    "initial_ideal",
    "s_polynomial",
    "IdealBasis",
    "ParamMatrix",
    "check_membership",
    "param_matrix_from_json",
    "param_matrix_to_json",
    "psi",
    "sample",
    "verify_groebner_property",
    "Poly",
    "format_poly",
    "homogenize",
    "parse_poly",
    "variable",
    "psi_bar",
]
