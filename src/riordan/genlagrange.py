"""Generalized binomial and Lagrange series and the beta-matrix families.

The one-parameter family attached to a series a with a(0) = 1 is the
unique solution of  lag = a(x * lag^beta); its beta-th power is the
substitution part of the inverse of (1, x*a^(-beta)).  For a = 1 + x
this specializes to the generalized binomial series whose coefficients
have the closed product form implemented in :func:`gen_binomial_series`.

The matrix families G, H, A, T conjugate an exact rational argument
shift by the connection matrices; each is also computed from its closed
form, and the two must agree.  Every closed form here is built from
t_poly(n, phi, beta') = sum_m binom(phi, m) binom(beta', n-m) x^m:

- G: column p is t_poly(n, p - n*beta, n*beta + n - p), as printed.
- H, A and T are one band formula in two integers d and c.  With
  t_m = t_poly(m, m + c - n*beta, n*beta) (1-x)^(d-m) / C(m+c, m) for
  m = 0..d, column p is sum(C(d-p, d-m) t_m, m = p..d), where

      kind   d      c
      H      n      n
      A      n-1    1
      T      n-1    n+1

  The sum is the product M B of the matrix M whose column m holds the
  coefficients of t_m and the band B[m][p] = C(d-p, d-m), which is zero
  for m < p.  B is the memoized connection matrix V(d), whose column p
  x^p (1+x)^(d-p) has entry C(d-p, m-p) = C(d-p, d-m) in row m.  Entry
  (i, p) of M B is sum(C(d-p, d-m) [x^i] t_m), the coefficient of x^i in
  column p, and both are exact rational sums, so the product equals the
  column sums entry for entry; it builds each t_m once instead of once
  per column.  G is the same formula with (d, c) = (n, 0), but its
  printed column is faster to build.
- alpha_n = (1/n) x t_poly(n-1, n(1-beta), n*beta) and
  phi_n = ((n+1)!/n) x t_poly(n-1, n(2-beta), n*beta) are the
  numerator polynomials of the family lag = a(x * lag^beta).

X keeps its own closed form: the battery checks G(1/n) = I + X, and an
X read off G's closed form would make that check hold by construction.

Each such pair, and the Lagrange series' checks against its fixed point
and its row formula, goes through ``fps.agree``, which raises
ConsistencyError naming the route, the parameters and the first
coefficient or entry that differs, with both values, e.g. ``"u
transform: row polynomial u(0) against 0 (n=1, beta=1): got 1, want
0"``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from . import exact
from .arrays import EXPONENTIAL, RiordanArray
from .fps import (DomainError, PoleError, Poly, Q, RangeError, Series, _count,
                  _powers, _q, agree)
from .matrix import FinMatrix
from .numerator import core_matrix, exp_matrix, shift_matrix, tilde_matrix

_ONE_MINUS_X = Poly([1, -1])
_X = Poly([0, 1])


def gen_binomial_series(beta, phi, order: int) -> Series:
    """Coefficient n is (phi/(phi+beta*n)) * binom(phi+beta*n, n).

    Parameter pairs that put phi + beta*n at zero for some n in range
    are rejected: the closed form only defines those coefficients as a
    limit.
    """
    beta, phi = _q(beta), _q(phi)
    out = []
    for k in range(_count("order", order) + 1):
        d = phi + beta * k
        if d == 0:
            raise PoleError("phi + beta*n vanishes at n = %d" % k)
        out.append(phi / d * exact.binom(d, k))
    return Series(out, order)


def u_polys(a: Series, top: int):
    """Rows 0..top of the exponential array (1, log a) as polynomials."""
    _count("top", top)
    if a.coeffs[0] != 1:
        raise DomainError("needs a(0) = 1")
    if a.order < top:
        raise RangeError("series order too small")
    cols = _powers(Series.one(top), a.truncate(top).log(), top + 1)
    return [Poly([Q(factorial(n), factorial(j)) * cols[j].coeffs[n] for j in range(n + 1)], n)
            for n in range(top + 1)]


def gen_lagrange_series(a: Series, beta, order: int) -> Series:
    """The solution of  lag = a(x * lag^beta), truncated at ``order``.

    Computed by reverting x*a^(-beta); the result is verified against
    the fixed-point identity and the Sheffer-row coefficient formula,
    each through :func:`agree`, so a silent failure of either route
    raises ConsistencyError.
    """
    beta = _q(beta)
    _count("order", order)
    if a.coeffs[0] != 1:
        raise DomainError("needs a(0) = 1")
    if a.order < order:
        raise RangeError("series order too small")
    if beta == 0:
        return a.truncate(order)
    h = a.pow(-beta).mul_x().reversion()
    lag = a.compose(h).truncate(order)
    agree("generalized Lagrange series: lag^beta against the reversion / x",
          lag.pow(beta), h.div_x().truncate(order), order=order, beta=beta)
    us = u_polys(a, order)
    # coefficient 0 is lag(0) = a(0) = 1; the row formula gives the rest
    formula = Series([Q(1)] + [us[k].div_x().eval(1 + beta * k) / factorial(k)
                               for k in range(1, order + 1)], order)
    agree("generalized Lagrange series: reversion against the row formula",
          lag, formula, order=order, beta=beta)
    return lag


def q_series(a: Series, n: int, order: int) -> Series:
    """Column n of the inverse of the exponential array (1, log a)."""
    _count("n", n)
    _count("order", order)
    if a.coeffs[0] != 1:
        raise DomainError("needs a(0) = 1")
    if a.order < max(order, 1) or order < n:
        raise RangeError("series order too small")
    gbar = a.truncate(order).log().reversion()
    return Series(RiordanArray(Series.one(order), gbar, EXPONENTIAL).column(n), order)


def t_poly(n: int, phi, beta_arg) -> Poly:
    """sum over m of binom(phi, m) * binom(beta, n-m) * x^m."""
    phi, beta_arg = _q(phi), _q(beta_arg)
    coeffs = [exact.binom(phi, m) * exact.binom(beta_arg, n - m)
              for m in range(_count("n", n) + 1)]
    return Poly(coeffs, n)


def beta_alpha_closed(n: int, beta) -> Poly:
    """(1/n) sum binom(n(1-beta), m-1) binom(n*beta, n-m) x^m, n >= 1."""
    _count("n", n, 1)
    beta = _q(beta)
    return _X * t_poly(n - 1, n * (1 - beta), n * beta) * Q(1, n)


def beta_phi_closed(n: int, beta) -> Poly:
    """((n+1)!/n) sum binom(n(2-beta), m-1) binom(n*beta, n-m) x^m, n >= 1."""
    _count("n", n, 1)
    beta = _q(beta)
    return _X * t_poly(n - 1, n * (2 - beta), n * beta) * Q(factorial(n + 1), n)


def _g_closed(n: int, nb: Fraction) -> FinMatrix:
    """Column p is t_poly(n, p - n*beta, n*beta + n - p)."""
    return FinMatrix.from_columns([t_poly(n, p - nb, nb + n - p)
                                   for p in range(n + 1)], n + 1)


def _band_closed(d: int, c: int, nb: Fraction) -> FinMatrix:
    """Column p is sum over m = p..d of C(d-p, d-m) t_m, with
    t_m = t_poly(m, m + c - n*beta, n*beta) (1-x)^(d-m) / C(m+c, m)."""
    terms = [t_poly(m, m + c - nb, nb) * _ONE_MINUS_X ** (d - m) * Q(1, comb(m + c, m))
             for m in range(d + 1)]
    return FinMatrix.from_columns(terms, d + 1) * core_matrix("V", d)


def _x_closed(n: int) -> FinMatrix:
    size = n + 1
    cols = [(_ONE_MINUS_X - _ONE_MINUS_X ** (n + 1)).div_x()]
    for p in range(1, size):
        cols.append(Poly.monomial(p - 1) * _ONE_MINUS_X)
    return FinMatrix.from_columns(cols, size)


def beta_matrix(kind: str, n: int, beta=None) -> FinMatrix:
    """The conjugated-shift families G, H, A, T and the nilpotent X.

    Every kind is produced both by conjugating the rational argument
    shift and from its closed form, held against each other by
    :func:`agree`.  X takes no beta.
    """
    _count("n", n, 1)
    if kind == "X":
        conj = core_matrix("Vinv", n) * _down_shift(n + 1) * core_matrix("V", n)
        closed = _x_closed(n)
        agree("X: conjugated down-shift against closed form", conj, closed, n=n)
        return closed
    if beta is None:
        raise DomainError("kind %r needs a beta parameter" % (kind,))
    beta = _q(beta)
    nb = n * beta
    if kind == "G":
        conj = core_matrix("U", n) * shift_matrix(nb, n + 1) * core_matrix("Uinv", n)
        closed = _g_closed(n, nb)
    elif kind == "H":
        conj = exp_matrix("F", n) * shift_matrix(nb, n + 1) * exp_matrix("Finv", n)
        closed = _band_closed(n, n, nb)
    elif kind == "A":
        conj = tilde_matrix("Ut", n) * shift_matrix(nb, n) * tilde_matrix("Utinv", n)
        closed = _band_closed(n - 1, 1, nb)
    elif kind == "T":
        conj = tilde_matrix("Ft", n) * shift_matrix(nb, n) * tilde_matrix("Ftinv", n)
        closed = _band_closed(n - 1, n + 1, nb)
    else:
        raise DomainError("unknown beta matrix kind %r" % (kind,))
    agree("%s: conjugated shift against closed form" % kind, conj, closed, n=n, beta=beta)
    return closed


def _down_shift(size: int) -> FinMatrix:
    """Matrix of c(x) -> (c(x) - c(0))/x."""
    return FinMatrix([[Q(int(j == i + 1)) for j in range(size)] for i in range(size)])


def beta_u_transform(u: Poly, n: int, beta) -> Poly:
    """x/(x + n*beta) * u(x + n*beta), exact.  With n*beta != 0 the
    division is exact just when u(0) = 0, which :func:`agree` demands;
    then u = x*v and the transform is x * v(x + n*beta)."""
    beta = _q(beta)
    nb = _count("n", n) * beta
    if nb == 0:
        return u
    agree("u transform: row polynomial u(0) against 0", u.coeff(0), Q(0), n=n, beta=beta)
    v = u.div_x()
    return _X * shift_matrix(nb, v.bound + 1).apply(v)


def beta_q_transform(q: Series, n: int, beta) -> Series:
    """1/(1 + n*beta*x) * q(x / (1 + n*beta*x))."""
    beta = _q(beta)
    nb = _count("n", n) * beta
    if nb == 0:
        return q
    den = Series.from_poly([1, nb], q.order)
    inner = Series.x(q.order) / den
    return q.compose(inner) / den
