"""Numerator-polynomial extraction and the connection-matrix families.

Row n of a square array (b, a) has generating function g_n(x)/(1-x)^(n+1)
for a polynomial g_n of degree <= n; the exponential analog has
denominator (1-x)^(2n+1) and numerator h_n.  With p_n(m) = [x^n] b*a^m,
g_n = (1-x)^(n+1) sum p_n(m) x^m and h_n = (1-x)^(2n+1) sum
(m+1)...(m+n) p_n(m) x^m: both are windows built by ``exact._window``,
with p_n(m) read off row n of (b, a-1) and off the Sheffer row n! p_n(m)
of (b, log a), and no connection matrix.  The values are one
``fps._dots`` call, the row against the integer columns C(m, p) (Euler)
or C(m+n, n) m^p (Narayana).  Both read b and a only through x^n, so
each needs series of order at least n.  Each then multiplies the square
row p_n(0..2n+1) by (1-x)^power itself, apart from the window, and
demands the numerator with zeros above it, so a wrong window cannot give
extraction and residual the same wrong numerator and pass.

Both extractions are one batch, ``_numerators(b, a, first, top, kind)``,
since [x^n] of a product at order top is the same for every n <= top.
It checks the pair once at top and reads rows first..top of two arrays
with ``RiordanArray.rows``, each off one walk at order top: the value
rows, of (b, a-1) (Euler) or of the exponential (b, log a) (Narayana),
and the rows of the square (b, a) through column 2*top+1, of which n
reads its residual slice p_n(0..2n+1).  Every n runs the steps above on
them.  The residual window is stepped from one n to the next, by (1-x)
for Euler and (1-x)^2 for Narayana, rather than raised to its power
afresh.  ``euler_numerator`` and ``narayana_numerator`` are the batch
at first = top = n.

Every self-check here (that residual, the degree of h_n, the two routes
to S, Sinv and W, the strips behind the tilde matrices) goes through
``fps.agree``.  On a mismatch its ConsistencyError names the route, n
(and m for W) and the first coefficient, entry or index that differs,
with both values, e.g. ``"Sinv: product against closed form (n=3):
entry (0, 0): got 1/6, want 1/3"``.

The matrix constructors reproduce the operator families that transport
these numerators: U, V, J, argument shifts, F, S, C, their order-n
"tilde" companions acting on numerators with the leading x removed, the
carry-process matrices W, and the strided-window construction.  Each
matrix has one builder.  A tilde companion other than Jt and Dt is the
strip of its order-n parent (Ut of U, Utinv of Uinv, Vt of V, Ft of F,
Ftinv of Finv, St of S, Ct of C): the parent's first row must vanish
past its first entry, and its first row and column are removed.  Jt is
J(n-1) and Dt is diag(1..n).  U and F are windows too, and Uinv and
Finv share one falling-rising builder.

``core_matrix``, ``exp_matrix``, ``tilde_matrix`` and ``W_matrix``
depend only on their arguments, so they are memoized with
``functools.lru_cache`` (``cache_clear()`` empties a memo); sharing one
object is safe because ``FinMatrix`` is immutable.  A self-check inside
a memoized constructor therefore runs once per key per process, and a
hit returns a matrix that has passed it; a call that raises stores
nothing.  The keys are typed: an n of 2.0 or Fraction(2) does not hit
the entry built for 2 and raises ``DomainError`` as any non-int order
does, and an unhashable argument fails in the memo with ``TypeError``.
The extractions are not memoized and read no memo.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial

from . import exact
from .arrays import EXPONENTIAL, SQUARE, RiordanArray
from .fps import DomainError, Poly, Q, RangeError, Series, _convolve, _count, _dots, _q, agree
from .matrix import FinMatrix

_ONE_MINUS_X = Poly([1, -1])


NumeratorResult = namedtuple("NumeratorResult", "poly residual_checked")


def _check_square_pair(b: Series, a: Series, n: int):
    """The one precondition check of both extractions: a(0) = 1, b(0) != 0,
    and b and a known through x^n, all that [x^n] b*a^m reads."""
    if a.coeffs[0] != 1:
        raise DomainError("column series needs a(0) = 1")
    if b.coeffs[0] == 0:
        raise DomainError("weight series needs b(0) != 0")
    if min(b.order, a.order) < _count("n", n):
        raise RangeError("series order must be at least n = %d" % n)


def _check_residual(t, window: Poly, g: Poly, n: int):
    """Multiply the diagonal terms t (x^0..x^(2n+1)) by the residual window
    (1-x)^power, power = window.bound, and demand the product equal g
    through x^n and vanish through x^(2n+1)."""
    product = _convolve(t, window, 2 * n + 1)
    agree("numerator against the (1-x)^%d residual window (is a(0) = 1?)" % window.bound,
          Poly(product), g, n=n)


def _numerators(b: Series, a: Series, first: int, top: int, kind: str) -> list:
    """The NumeratorResults for n = first..top, in order, of the square
    array (b, a): Euler's g_n (kind "euler") or Narayana's h_n (kind
    "narayana"), from one walk per route at order top."""
    _check_square_pair(b, a, top)
    b, a = b.truncate(top), a.truncate(top)
    euler = kind == "euler"
    # the residual window (1-x) step^n: (1-x)^(n+1) or (1-x)^(2n+1)
    step = _ONE_MINUS_X if euler else _ONE_MINUS_X ** 2
    window = _ONE_MINUS_X * step ** first
    out = []
    value_array = RiordanArray(b, a - 1) if euler else RiordanArray(b, a.log(), EXPONENTIAL)
    rows = value_array.rows(first, top, top + 1)
    squares = RiordanArray(b, a, SQUARE).rows(first, top, 2 * top + 2)
    for n, row, t in zip(range(first, top + 1), rows, squares):
        t = t[: 2 * n + 2]
        if n > first:
            window = window * step
        if euler:
            values = _dots([row], [[comb(m, p) for p in range(n + 1)] for m in range(n + 1)])[0]
            poly = exact._window(values, n + 1)
        else:
            binoms = [comb(m + n, n) for m in range(2 * n + 1)]
            values = _dots([row], [[c * m ** p for p in range(n + 1)]
                                   for m, c in enumerate(binoms)])[0]
            lifted = exact._window(values, 2 * n + 1)
            poly = Poly(lifted.coeffs[: n + 1], n)
            agree("Narayana numerator: lifted Sheffer row against its degree <= n part",
                  lifted, poly, n=n)
            t = [Q(factorial(m + n), factorial(m)) * w for m, w in enumerate(t)]
        _check_residual(t, window, poly, n)
        out.append(NumeratorResult(poly, n + 1))
    return out


def euler_numerator(b: Series, a: Series, n: int) -> NumeratorResult:
    """Numerator g_n of row n of the square array (b, a): the window of
    p_n(m) = sum r_p C(m, p) for m, p = 0..n (C(m, p) = 0 for p > m), r
    row n of (b, a-1)."""
    return _numerators(b, a, n, n, "euler")[0]


def narayana_numerator(b: Series, a: Series, n: int) -> NumeratorResult:
    """Numerator h_n of diagonal n of the exponential array (b, x*a): the
    window of C(m+n, n) s(m) for m = 0..2n, s row n of the Sheffer array
    (b, log a), which must have degree <= n."""
    return _numerators(b, a, n, n, "narayana")[0]


def alpha_poly(a: Series, n: int) -> Poly:
    """Numerator of diagonal n of (1, x*a)."""
    return euler_numerator(Series.one(a.order), a, n).poly


def phi_poly(a: Series, n: int) -> Poly:
    """Numerator of diagonal n of the exponential (1, x*a)."""
    return narayana_numerator(Series.one(a.order), a, n).poly


# -- matrix families ---------------------------------------------------------


def _falling_rising(n: int, c: int, scale) -> FinMatrix:
    """Uinv (c = 1) and Finv (c = n+1): column p is
    scale * x(x-1)...(x-p+1) * (x+c)(x+c+1)...(x+c+n-p-1)."""
    falling, rising = [Poly([scale])], [Poly.one()]
    for k in range(n):
        falling.append(falling[-1] * Poly([-k, 1]))
        rising.append(rising[-1] * Poly([c + k, 1]))
    return FinMatrix.from_columns([falling[p] * rising[n - p] for p in range(n + 1)], n + 1)


@lru_cache(maxsize=None, typed=True)
def core_matrix(kind: str, n: int) -> FinMatrix:
    """The order-n operator matrices U, Uinv, V, Vinv and J."""
    size = _count("n", n) + 1
    if kind == "U":
        # column p: (1/n!) (1-x)^(n+1) * sum(m^p x^m) through x^n
        cols = [exact._window([Q(m ** p, factorial(n)) for m in range(size)], n + 1)
                for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "Uinv":
        return _falling_rising(n, 1, Q(1))
    if kind == "V":
        cols = [Poly.monomial(p) * Poly([1, 1]) ** (n - p) for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "Vinv":
        cols = [Poly.monomial(p) * _ONE_MINUS_X ** (n - p) for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "J":
        return FinMatrix([[Q(int(i + j == n)) for j in range(size)] for i in range(size)])
    raise DomainError("unknown core matrix kind %r" % (kind,))


def shift_matrix(phi, size: int) -> FinMatrix:
    """Matrix of c(x) -> c(x + phi) on polynomials of bound size-1."""
    phi = _q(phi)
    _count("shift matrix size", size, 1)
    powers = [phi ** k for k in range(size)]
    return FinMatrix([[comb(j, i) * powers[j - i] if i <= j else Q(0) for j in range(size)]
                      for i in range(size)])


def alt_matrix(size: int) -> FinMatrix:
    """Matrix of c(x) -> c(-x)."""
    return FinMatrix.diag([Q(-1) ** j for j in range(size)])


@lru_cache(maxsize=None, typed=True)
def exp_matrix(kind: str, n: int) -> FinMatrix:
    """The exponential-side families F, Finv, S, Sinv and the diagonal C.

    S and Sinv come out of both their product definition and their
    closed forms, held against each other by :func:`agree`; as
    x^p t_poly(n-p, n, n) and x^p t_poly(n-p, -n, 2n) these ran 2-3x slower.
    """
    size = _count("n", n, 1) + 1
    if kind == "F":
        # column p: (1-x)^(2n+1) * sum(m^p * C(m+n, n) x^m) through x^n
        cols = [exact._window([m ** p * comb(m + n, n) for m in range(size)], 2 * n + 1)
                for p in range(size)]
        return FinMatrix.from_columns(cols, size)
    if kind == "Finv":
        return _falling_rising(n, n + 1, Q(factorial(n), factorial(2 * n)))
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


# the parent of each tilde kind but Jt and Dt: the tilde matrix is its strip
_TILDE_PARENTS = {"Ut": (core_matrix, "U"), "Utinv": (core_matrix, "Uinv"),
                  "Vt": (core_matrix, "V"), "Ft": (exp_matrix, "F"),
                  "Ftinv": (exp_matrix, "Finv"), "St": (exp_matrix, "S"),
                  "Ct": (exp_matrix, "C")}


@lru_cache(maxsize=None, typed=True)
def tilde_matrix(kind: str, n: int) -> FinMatrix:
    """Order-n companions acting on numerators with the leading x removed:
    the strip of the order-n parent, except Jt = J(n-1) and Dt = diag(1..n)."""
    _count("n", n, 1)
    if kind in _TILDE_PARENTS:
        ctor, parent = _TILDE_PARENTS[kind]
        return _strip(ctor(parent, n), parent, n)
    if kind == "Jt":
        return core_matrix("J", n - 1)
    if kind == "Dt":
        return FinMatrix.diag([Q(p + 1) for p in range(n)])
    raise DomainError("unknown tilde matrix kind %r" % (kind,))


def strided_matrix(a: Series, m: int, rows: int) -> FinMatrix:
    """Square window of the stride-m row re-reading of (a, x): row p holds
    coefficients m*p+m-1, m*p+m-2, ... with zeros below index 0."""
    _count("m", m, 1)
    _count("rows", rows, 1)
    if a.order < m * rows + m:
        raise RangeError("series order must be at least m*rows + m")
    data = []
    for p in range(rows):
        top = m * p + m - 1
        data.append([a.coeffs[top - j] if top - j >= 0 else Q(0)
                     for j in range(rows)])
    return FinMatrix(data)


@lru_cache(maxsize=None, typed=True)
def W_matrix(n: int, m: int) -> FinMatrix:
    """Carry-process matrices, built two independent ways.

    Conjugation of the dilation c(x) -> m*c(m*x) by the order-n tilde
    connection matrices must agree with the strided window of
    ((1-x^m)/(1-x))^(n+1), held against it by :func:`agree`.
    """
    _count("n", n, 1)
    _count("m", m, 1)
    dil = FinMatrix.diag([Q(m) ** (j + 1) for j in range(n)])
    conj = tilde_matrix("Ut", n) * dil * tilde_matrix("Utinv", n)
    window = Poly([1] * m) ** (n + 1)
    strided = strided_matrix(window.to_series(m * n + m), m, n)
    agree("W: conjugated dilation against strided window", conj, strided, n=n, m=m)
    return conj
