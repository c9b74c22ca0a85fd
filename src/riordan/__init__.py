"""Exact-arithmetic toolkit for Riordan arrays and their numerator
polynomials: truncated rational power series, the array group in its
ordinary, exponential and square flavors, generalized Euler and Narayana
numerator extraction, the connection-matrix families, and generalized
binomial and Lagrange series, with a verification battery reproducing
every printed value the library is built around.
"""

from .arrays import (EXPONENTIAL, ORDINARY, SQUARE, RiordanArray,
                     lagrange_pair, table_row)
from .exact import (binom, eulerian_poly, falling_from, falling_poly,
                    rising_from)
from .fps import (ConsistencyError, DomainError, PoleError, Poly, Q,
                  RangeError, Series, xdlog)
from .genlagrange import (beta_alpha_closed, beta_matrix, beta_phi_closed,
                          beta_q_transform, beta_u_transform,
                          gen_binomial_series, gen_lagrange_series, q_series,
                          t_poly, u_polys)
from .matrix import FinMatrix
from .numerator import (NumeratorResult, W_matrix, alpha_poly, core_matrix,
                        euler_numerator, exp_matrix, narayana_numerator,
                        phi_poly, strided_matrix, tilde_matrix)
from .verify import (CHECK_NAMES, DEFAULT_BETAS, DEFAULT_SEED, CheckResult,
                     Report, run_suite)

__version__ = "0.1.0"

__all__ = [
    "Q", "Series", "Poly", "FinMatrix", "RiordanArray",
    "NumeratorResult", "CheckResult", "Report",
    "ORDINARY", "EXPONENTIAL", "SQUARE",
    "DomainError", "RangeError", "ConsistencyError", "PoleError",
    "binom", "falling_poly", "falling_from", "rising_from", "eulerian_poly",
    "xdlog", "lagrange_pair", "table_row",
    "euler_numerator", "narayana_numerator", "alpha_poly", "phi_poly",
    "core_matrix", "exp_matrix", "tilde_matrix", "W_matrix", "strided_matrix",
    "gen_binomial_series", "gen_lagrange_series", "q_series", "u_polys",
    "t_poly", "beta_alpha_closed", "beta_phi_closed", "beta_matrix",
    "beta_u_transform", "beta_q_transform",
    "run_suite", "CHECK_NAMES", "DEFAULT_BETAS", "DEFAULT_SEED",
    "__version__",
]
