"""Numerator-polynomial extraction and the connection-matrix families.

Row n of a square array (b, a) has generating function g_n(x)/(1-x)^(n+1)
for a polynomial g_n of degree <= n; the exponential analog has
denominator (1-x)^(2n+1) and numerator h_n.  Both extractions verify a
window of higher coefficients is exactly zero before returning.

Every self-check here (that window, the degree of h_n, the two routes to
S, Sinv and W, the strips of Ft and St) goes through ``fps.agree``.  On
a mismatch its ConsistencyError names the route, n (and m for W) and the
first coefficient, entry or index that differs, with both values, e.g.
``"Sinv: product against closed form (n=3): entry (0, 0): got 1/6, want
1/3"``.

The matrix constructors reproduce the operator families that transport
these numerators: U, V, J, argument shifts, F, S, C, their order-n
"tilde" companions acting on numerators with the leading x removed, the
carry-process matrices W, and the strided-window construction.

``core_matrix``, ``exp_matrix`` and ``tilde_matrix`` depend only on their
arguments, so they are memoized with ``functools.lru_cache``: the
matrix built for a given (kind, n) serves every later request for it,
and ``cache_clear()`` empties the memo.  Sharing one object is safe
because ``FinMatrix`` is immutable.  A self-check inside a memoized
constructor (the two routes to S and Sinv, the strip checks of Ft and
St) therefore runs once per key per process, and a hit returns a matrix
that has passed it.  A call that raises stores nothing, so it raises
again next time.  The keys are typed: an n of 2.0 or Fraction(2) does
not hit the entry built for 2, and raises ``DomainError`` as any
non-int order does.  An unhashable argument fails in the memo itself
with ``TypeError``.  ``W_matrix`` and the numerator extractions are not
memoized and verify on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from . import exact
from .arrays import EXPONENTIAL, SQUARE, RiordanArray
from .fps import DomainError, Poly, Q, RangeError, Series, _count, _q, agree
from .matrix import FinMatrix

_ONE_MINUS_X = Poly([1, -1])
_X = Poly([0, 1])


@dataclass(frozen=True)
class NumeratorResult:
    poly: Poly
    residual_checked: int


def _check_square_pair(b: Series, a: Series, n: int):
    if a.coeffs[0] != 1:
        raise DomainError("column series needs a(0) = 1")
    if b.coeffs[0] == 0:
        raise DomainError("weight series needs b(0) != 0")
    _count("n", n)


def _check_residual(t, power: int, g: Poly, n: int):
    """Multiply the diagonal terms t (x^0..x^(2n+1)) by (1-x)^power and
    demand the product equal g through x^n and vanish through x^(2n+1)."""
    product = Poly(t, 2 * n + 1) * _ONE_MINUS_X ** power
    agree("numerator against the (1-x)^%d residual window"
          " (is a(0) = 1 and the order big enough?)" % power,
          Poly(product.coeffs[: 2 * n + 2]), g, n=n)


def _square_row(b: Series, a: Series, n: int) -> tuple:
    """[x^n] b*a^m for m = 0..2n+1: row n of the square array (b, a)."""
    return RiordanArray(b.truncate(2 * n + 1), a.truncate(2 * n + 1), SQUARE).row(n).entries


def euler_numerator(b: Series, a: Series, n: int) -> NumeratorResult:
    """Numerator polynomial of row n of the square array (b, a).

    Built from row n of (b, a-1); an independent pass multiplies row n
    of the square array (b, a), read as a generating function, by
    (1-x)^(n+1) and demands that coefficients n+1..2n+1 vanish.
    """
    _check_square_pair(b, a, n)
    if min(b.order, a.order) < 2 * n + 2:
        raise RangeError("series order must be at least 2n+2")
    row = RiordanArray(b.truncate(n), a.truncate(n) - 1).row(n)
    g = sum((w * Poly.monomial(m) * _ONE_MINUS_X ** (n - m)
             for m, w in enumerate(row) if w != 0), Poly.zero(n))
    _check_residual(_square_row(b, a, n), n + 1, g, n)
    return NumeratorResult(g, n + 1)


def narayana_numerator(b: Series, a: Series, n: int) -> NumeratorResult:
    """Numerator polynomial of diagonal n of the exponential array (b, x*a).

    Computed by lifting row n of the Sheffer array (b, log a) through the
    order-2n Euler connection matrix; verified against (1-x)^(2n+1) times
    row n of the square array (b, a) weighted by (m+n)!/m!.
    """
    _check_square_pair(b, a, n)
    if min(b.order, a.order) < 2 * (2 * n + 1):
        raise RangeError("series order must be at least 2(2n+1)")
    s = RiordanArray(b.truncate(n), a.truncate(n).log(), EXPONENTIAL).sheffer_row(n)
    lifted = (exact.rising_from(1, n) * s).with_bound(2 * n)
    hu = core_matrix("U", 2 * n).apply(lifted)
    low = Poly(hu.coeffs[: n + 1], n)
    agree("Narayana numerator: lifted Sheffer row against its degree <= n part",
          hu, low, n=n)
    h = (Q(factorial(2 * n), factorial(n)) * low).with_bound(n)
    t = [Q(factorial(m + n), factorial(m)) * w for m, w in enumerate(_square_row(b, a, n))]
    _check_residual(t, 2 * n + 1, h, n)
    return NumeratorResult(h, n + 1)


def alpha_poly(a: Series, n: int) -> Poly:
    """Numerator of diagonal n of (1, x*a)."""
    return euler_numerator(Series.one(a.order), a, n).poly


def phi_poly(a: Series, n: int) -> Poly:
    """Numerator of diagonal n of the exponential (1, x*a)."""
    return narayana_numerator(Series.one(a.order), a, n).poly


# -- matrix families ---------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def core_matrix(kind: str, n: int, phi=None) -> FinMatrix:
    """The order-n operator matrices U, Uinv, V, Vinv, J and the
    argument-shift E (which needs its shift parameter)."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("matrix order must be a nonnegative integer")
    size = n + 1
    if kind == "U":
        cols = [Q(1, factorial(n)) * _ONE_MINUS_X ** (n - p) * exact.eulerian_poly(p)
                for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "Uinv":
        cols = [exact.falling_poly(p) * exact.rising_from(1, n - p)
                for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "V":
        cols = [Poly.monomial(p) * Poly([1, 1]) ** (n - p) for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "Vinv":
        cols = [Poly.monomial(p) * _ONE_MINUS_X ** (n - p) for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "J":
        return FinMatrix([[Q(int(i + j == n)) for j in range(size)] for i in range(size)])
    if kind == "E":
        if phi is None:
            raise DomainError("the shift matrix needs its shift parameter")
        return shift_matrix(phi, size)
    raise DomainError("unknown core matrix kind %r" % (kind,))


def shift_matrix(phi, size: int) -> FinMatrix:
    """Matrix of c(x) -> c(x + phi) on polynomials of bound size-1."""
    phi = _q(phi)
    _count("shift matrix size", size, 1)
    data = [[Q(0)] * size for _ in range(size)]
    for j in range(size):
        p = Q(1)
        for i in range(j, -1, -1):
            data[i][j] = comb(j, i) * p
            p *= phi
    return FinMatrix(data)


def alt_matrix(size: int) -> FinMatrix:
    """Matrix of c(x) -> c(-x)."""
    return FinMatrix.diag([Q(-1) ** j for j in range(size)])


def mult_op(series, rows: int, cols: int) -> FinMatrix:
    """Multiplication by a series as a rows x cols band: entry (i, j) is
    coefficient i-j."""

    def c(k):
        if k < 0:
            return Q(0)
        if isinstance(series, Series):
            return series.coeffs[k] if k <= series.order else None
        return series.coeff(k)

    data = []
    for i in range(rows):
        row = []
        for j in range(cols):
            v = c(i - j)
            if v is None:
                raise RangeError("series order too small for the operator window")
            row.append(v)
        data.append(row)
    return FinMatrix(data)


def _f_column(n: int, p: int) -> Poly:
    """(1-x)^(2n+1) * sum(m^p * C(m+n, n) x^m) as a degree <= n polynomial."""
    out = []
    for k in range(n + 1):
        acc = Q(0)
        for j in range(min(k, 2 * n + 1) + 1):
            m = k - j
            acc += Q(-1) ** j * comb(2 * n + 1, j) * Q(m) ** p * comb(m + n, n)
        out.append(acc)
    return Poly(out, n)


@lru_cache(maxsize=None, typed=True)
def exp_matrix(kind: str, n: int) -> FinMatrix:
    """The exponential-side families F, Finv, S, Sinv and the diagonal C.

    S and Sinv come out of both their product definition and their
    closed forms, held against each other by :func:`agree`.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("exponential-family matrices need an integer n >= 1")
    size = n + 1
    if kind == "F":
        return FinMatrix.from_columns([_f_column(n, p) for p in range(size)], size)
    if kind == "Finv":
        scale = Q(factorial(n), factorial(2 * n))
        cols = [scale * exact.falling_poly(p) * exact.rising_from(n + 1, n - p)
                for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "C":
        return FinMatrix.diag([Q(factorial(n + p), factorial(p)) for p in range(size)])
    if kind == "S":
        product = exp_matrix("F", n) * core_matrix("Uinv", n)
        cols = []
        for p in range(size):
            scale = Q(factorial(n + p) * factorial(n - p), factorial(n))
            cols.append(Poly([scale * comb(n, m - p) * comb(n, n - m) if m >= p else Q(0)
                              for m in range(size)], n))
        closed = FinMatrix.from_columns(cols, size)
        agree("S: product against closed form", product, closed, n=n)
        return closed
    if kind == "Sinv":
        product = core_matrix("U", n) * exp_matrix("Finv", n)
        cols = []
        for p in range(size):
            scale = Q(factorial(p) * factorial(n - p), factorial(2 * n))
            cols.append(Poly([scale * exact.binom(-n, m - p) * comb(2 * n, n - m)
                              if m >= p else Q(0) for m in range(size)], n))
        closed = FinMatrix.from_columns(cols, size)
        agree("Sinv: product against closed form", product, closed, n=n)
        return closed
    raise DomainError("unknown exponential matrix kind %r" % (kind,))


def _strip(m: FinMatrix, what: str, n: int) -> FinMatrix:
    """The minor of m, whose first row must vanish past its first entry."""
    row = m.row(0)
    agree("%s: first row against a clean strip" % what,
          row, row[:1] + [Q(0)] * (len(row) - 1), n=n)
    return m.minor()


@lru_cache(maxsize=None, typed=True)
def tilde_matrix(kind: str, n: int) -> FinMatrix:
    """Order-n companions acting on numerators with the leading x removed."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("tilde matrices need an integer n >= 1")
    if kind == "Ut":
        cols = []
        for p in range(n):
            tilde_a = exact.eulerian_poly(p + 1).divexact(_X)
            cols.append(Q(1, factorial(n)) * _ONE_MINUS_X ** (n - 1 - p) * tilde_a)
        return FinMatrix.from_columns(cols, n)
    if kind == "Utinv":
        cols = [exact.falling_from(-1, p) * exact.rising_from(1, n - p - 1)
                for p in range(n)]
        return FinMatrix.from_columns(cols, n)
    if kind == "Vt":
        return core_matrix("V", n - 1)
    if kind == "Jt":
        return core_matrix("J", n - 1)
    if kind == "Ft":
        return _strip(exp_matrix("F", n), "F", n)
    if kind == "Ftinv":
        scale = Q(factorial(n), factorial(2 * n))
        cols = [scale * exact.falling_from(-1, p) * exact.rising_from(n + 1, n - p - 1)
                for p in range(n)]
        return FinMatrix.from_columns(cols, n)
    if kind == "St":
        return _strip(exp_matrix("S", n), "S", n)
    if kind == "Ct":
        return FinMatrix.diag([Q(factorial(n + p + 1), factorial(p + 1)) for p in range(n)])
    if kind == "Dt":
        return FinMatrix.diag([Q(p + 1) for p in range(n)])
    raise DomainError("unknown tilde matrix kind %r" % (kind,))


def strided_matrix(a: Series, m: int, rows: int) -> FinMatrix:
    """Square window of the stride-m row re-reading of (a, x): row p holds
    coefficients m*p+m-1, m*p+m-2, ... with zeros below index 0."""
    if not (isinstance(m, int) and isinstance(rows, int)) or m < 1 or rows < 1:
        raise DomainError("stride and row count must be positive integers")
    if a.order < m * rows + m:
        raise RangeError("series order must be at least m*rows + m")
    data = []
    for p in range(rows):
        top = m * p + m - 1
        data.append([a.coeffs[top - j] if top - j >= 0 else Q(0)
                     for j in range(rows)])
    return FinMatrix(data)


def W_matrix(n: int, m: int) -> FinMatrix:
    """Carry-process matrices, built two independent ways.

    Conjugation of the dilation c(x) -> m*c(m*x) by the order-n tilde
    connection matrices must agree with the strided window of
    ((1-x^m)/(1-x))^(n+1), held against it by :func:`agree`.
    """
    if not (isinstance(n, int) and isinstance(m, int)) or n < 1 or m < 1:
        raise DomainError("W needs integers n >= 1 and m >= 1")
    dil = FinMatrix.diag([Q(m) ** (j + 1) for j in range(n)])
    conj = tilde_matrix("Ut", n) * dil * tilde_matrix("Utinv", n)
    window = Poly([1] * m) ** (n + 1)
    strided = strided_matrix(window.to_series(m * n + m), m, n)
    agree("W: conjugated dilation against strided window", conj, strided, n=n, m=m)
    return conj


# -- generating-function checks ----------------------------------------------
#
# Each identity below equates two power series in x whose coefficients are
# polynomials in t of degree <= k at x^k.  Two such polynomials agree once
# they agree at k + 1 distinct points, so checking the identity at order_x + 1
# rational points t0 decides it through x^order_x.


def _t_points(count: int) -> list:
    """``count`` distinct integers t0 != 1, the smallest in size first."""
    return [Q(t) for t in sorted(range(-count, count + 1), key=abs) if t != 1][:count]


def alpha_gf_check(a: Series, order_x: int) -> bool:
    """Compare the diagonal-numerator family of (1, x*a) against its
    generating function sum(alpha_k(t) x^k) = (1-t)/(1 - t*a(x(1-t)))
    through x^order_x.

    alpha_k has degree <= k in t, and so has [x^k] of the right side:
    1 - t*a(x(1-t)) = (1-t)(1 - t*B) with B = sum_{i>=1} a_i x^i (1-t)^(i-1),
    so the right side is sum_m t^m B^m, and [x^k] B^m is zero for m > k and
    carries (1-t)^(k-m) otherwise.  Both sides are therefore compared at
    order_x + 1 points t0 != 1, each by one Series inverse.
    """
    if a.coeffs[0] != 1:
        raise DomainError("needs a(0) = 1")
    _count("order_x", order_x)
    if a.order < 2 * order_x + 2:
        raise RangeError("series order must be at least 2*order_x + 2")
    alphas = [alpha_poly(a, k) for k in range(order_x + 1)]
    for t0 in _t_points(order_x + 1):
        s = 1 - t0
        scaled = Series([a.coeffs[k] * s ** k for k in range(order_x + 1)], order_x)
        rhs = s / (1 - t0 * scaled)
        if rhs.coeffs != [alpha.eval(t0) for alpha in alphas]:
            return False
    return True


def phi_gf_check(a: Series, order_x: int) -> bool:
    """Compare the exponential diagonal-numerator family of (1, x*a)
    against phi_k(t)/(k+1)! = (1-t)^(2k+1) [x^(k+1)] x*b for k <= order_x,
    where (1, x*b) is inverse to (1, x(1 - t*a)).

    phi_k has degree <= k in t, and so has the right side: Lagrange
    inversion gives (1-t)^(2k+1) [x^(k+1)] x*b =
    (1/(k+1)) sum_{m<=k} C(k+m, m) t^m (1-t)^(k-m) [x^k] (a-1)^m.
    Both sides are therefore compared at order_x + 1 points t0 != 1, each
    by one Series reversion (which checks itself).
    """
    if a.coeffs[0] != 1:
        raise DomainError("needs a(0) = 1")
    _count("order_x", order_x)
    if a.order < 2 * (2 * order_x + 1):
        raise RangeError("series order must be at least 2(2*order_x + 1)")
    phis = [phi_poly(a, k) for k in range(order_x + 1)]
    for t0 in _t_points(order_x + 1):
        s = 1 - t0
        # one order past order_x, so that [x^(order_x+1)] x*b is known
        xb = (1 - t0 * a.truncate(order_x)).mul_x().reversion()
        rhs = [xb.coeffs[k + 1] * s ** (2 * k + 1) for k in range(order_x + 1)]
        if rhs != [phi.eval(t0) / factorial(k + 1) for k, phi in enumerate(phis)]:
            return False
    return True
