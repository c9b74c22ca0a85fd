"""Every public callable that takes an order, size, index or count
answers -1, 2.0 and Fraction(2) there with a typed library error.

One row per such argument.  Arguments signed by definition try only the
non-integers: ``binom``'s k (a negative k gives 0), ``table_row``'s v
and k, and a FinMatrix exponent (-1 is the inverse).  Every callable in
``riordan.__all__`` has a row or is named as taking no count, so a new
public function must be classified here.
"""

from fractions import Fraction

import pytest

import riordan
from riordan import (EXPONENTIAL, FinMatrix, Poly, RiordanArray, Series, W_matrix,
                     alpha_poly, beta_alpha_closed, beta_matrix, beta_phi_closed,
                     beta_q_transform, beta_u_transform, binom, core_matrix,
                     euler_numerator, eulerian_poly, exp_matrix, falling_from,
                     falling_poly, gen_binomial_series, gen_lagrange_series,
                     narayana_numerator, phi_poly, q_series, rising_from, run_suite,
                     strided_matrix, t_poly, table_row, tilde_matrix, u_polys)
from riordan.fps import DomainError, RangeError

BAD = (-1, 2.0, Fraction(2))
NOT_INTEGERS = (2.0, Fraction(2))

A = Series([1, 1, 0, 0, 0, 0], 5)
P = Poly([0, 1, 1])
M = FinMatrix.identity(3)
R = RiordanArray(Series.one(5), Series.x(5))
E = RiordanArray(Series.one(5), Series.x(5), EXPONENTIAL)

# name, call with the argument, bad values
ROWS = [
    ("Series", lambda v: Series([1], v), BAD),
    ("Series.const", lambda v: Series.const(1, v), BAD),
    ("Series.one", lambda v: Series.one(v), BAD),
    ("Series.zero", lambda v: Series.zero(v), BAD),
    ("Series.x", lambda v: Series.x(v), BAD),
    ("Series.geometric", lambda v: Series.geometric(v), BAD),
    ("Series.from_poly", lambda v: Series.from_poly([1], v), BAD),
    ("Series.coeff", lambda v: A.coeff(v), BAD),
    ("Series.truncate", lambda v: A.truncate(v), BAD),
    ("Poly", lambda v: Poly([1], v), BAD),
    ("Poly.zero", lambda v: Poly.zero(v), BAD),
    ("Poly.one", lambda v: Poly.one(v), BAD),
    ("Poly.monomial", lambda v: Poly.monomial(v), BAD),
    ("Poly.coeff", lambda v: P.coeff(v), BAD),
    ("Poly.with_bound", lambda v: P.with_bound(v), BAD),
    ("Poly.to_series", lambda v: P.to_series(v), BAD),
    ("Poly.__pow__", lambda v: P ** v, BAD),
    ("FinMatrix.identity", lambda v: FinMatrix.identity(v), BAD),
    ("FinMatrix.zeros rows", lambda v: FinMatrix.zeros(v, 2), BAD),
    ("FinMatrix.zeros cols", lambda v: FinMatrix.zeros(2, v), BAD),
    ("FinMatrix.entry i", lambda v: M.entry(v, 0), BAD),
    ("FinMatrix.entry j", lambda v: M.entry(0, v), BAD),
    ("FinMatrix.row", lambda v: M.row(v), BAD),
    ("FinMatrix.column", lambda v: M.column(v), BAD),
    ("FinMatrix.column_poly", lambda v: M.column_poly(v), BAD),
    ("FinMatrix.__pow__", lambda v: M ** v, NOT_INTEGERS),
    ("RiordanArray.identity", lambda v: RiordanArray.identity(v), BAD),
    ("RiordanArray.entry n", lambda v: R.entry(v, 0), BAD),
    ("RiordanArray.entry m", lambda v: R.entry(2, v), BAD),
    ("RiordanArray.row", lambda v: R.row(v), BAD),
    ("RiordanArray.row_poly", lambda v: R.row_poly(v), BAD),
    ("RiordanArray.column", lambda v: R.column(v), BAD),
    ("RiordanArray.diagonal", lambda v: R.diagonal(v), BAD),
    ("RiordanArray.sheffer_row", lambda v: E.sheffer_row(v), BAD),
    ("binom", lambda v: binom(3, v), NOT_INTEGERS),
    ("falling_poly", lambda v: falling_poly(v), BAD),
    ("falling_from", lambda v: falling_from(1, v), BAD),
    ("rising_from", lambda v: rising_from(1, v), BAD),
    ("eulerian_poly", lambda v: eulerian_poly(v), BAD),
    ("table_row v", lambda v: table_row(A, A, 1, v, 1, 3), NOT_INTEGERS),
    ("table_row k", lambda v: table_row(A, A, 1, 1, v, 3), NOT_INTEGERS),
    ("table_row order", lambda v: table_row(A, A, 1, 1, 1, v), BAD),
    ("euler_numerator", lambda v: euler_numerator(A, A, v), BAD),
    ("narayana_numerator", lambda v: narayana_numerator(A, A, v), BAD),
    ("alpha_poly", lambda v: alpha_poly(A, v), BAD),
    ("phi_poly", lambda v: phi_poly(A, v), BAD),
    ("core_matrix", lambda v: core_matrix("U", v), BAD),
    ("exp_matrix", lambda v: exp_matrix("F", v), BAD),
    ("tilde_matrix", lambda v: tilde_matrix("Ut", v), BAD),
    ("W_matrix n", lambda v: W_matrix(v, 2), BAD),
    ("W_matrix m", lambda v: W_matrix(2, v), BAD),
    ("strided_matrix m", lambda v: strided_matrix(A, v, 1), BAD),
    ("strided_matrix rows", lambda v: strided_matrix(A, 2, v), BAD),
    ("gen_binomial_series", lambda v: gen_binomial_series(2, 1, v), BAD),
    ("gen_lagrange_series", lambda v: gen_lagrange_series(A, 1, v), BAD),
    ("q_series n", lambda v: q_series(A, v, 3), BAD),
    ("q_series order", lambda v: q_series(A, 1, v), BAD),
    ("u_polys", lambda v: u_polys(A, v), BAD),
    ("t_poly", lambda v: t_poly(v, 1, 1), BAD),
    ("beta_alpha_closed", lambda v: beta_alpha_closed(v, 1), BAD),
    ("beta_phi_closed", lambda v: beta_phi_closed(v, 1), BAD),
    ("beta_matrix", lambda v: beta_matrix("G", v, 1), BAD),
    ("beta_u_transform", lambda v: beta_u_transform(P, v, 1), BAD),
    ("beta_q_transform", lambda v: beta_q_transform(A, v, 1), BAD),
    ("run_suite", lambda v: run_suite("fixtures", v), BAD),
]

# public callables with no order, size, index or count argument
NO_COUNT = {"Q", "NumeratorResult", "CheckResult", "Report", "DomainError",
            "RangeError", "ConsistencyError", "PoleError", "xdlog", "lagrange_pair"}


@pytest.mark.parametrize("call, bad", [pytest.param(call, v, id="%s-%r" % (name, v))
                                       for name, call, values in ROWS for v in values])
def test_bad_count_is_a_typed_error(call, bad):
    with pytest.raises((DomainError, RangeError)):
        call(bad)


def test_every_public_callable_is_classified():
    covered = {name.split(".")[0].split()[0] for name, _, _ in ROWS}
    public = {name for name in riordan.__all__ if callable(getattr(riordan, name))}
    assert public - NO_COUNT == covered
