"""Named executable checks: every printed matrix, every theorem suite.

Each check has a stable identifier (thm2.1 .. thm9.5, ex2.1 .. ex8.1,
eq1, eq2, eq3, w-amazing, col-sums, fixtures) and is a generator of
comparisons ``(label, got, want)``; only thm4.4's broken symmetry, a
yes-or-no fact, is yielded as ``(label, verdict, True)``.
:func:`run_suite` is the only code that compares.  It holds each pair
against the other with ``fps._mismatch`` and words a failure
``"label: first difference"``; a result's detail keeps the first four
failures and counts the rest as ``"; and N more"``.  A check that raises
fails with ``"raised Error: message"`` in place of what it had
collected, and a check that yields no comparison fails with
``"no comparisons made"``, so no check passes vacuously.  Randomized
suites draw from a seeded generator, so identical invocations produce
identical reports.

The generating functions in x and t (eq1, ex2.3, ex3.2) yield one
comparison per rational point t0, labelled ``t=...`` (``_alpha_gf``,
``_phi_gf``), so a failure names t0 and the first differing coefficient,
and one more: the number of distinct points used against the
order_x + 1 that decide the identity.

A loop over n on one pair (b, a) extracts its numerators from one batch,
``numerator._numerators`` through ``_numerator_polys``, which walks each
route once at the largest n: thm2.2, thm2.3, thm3.2, thm4.1's map,
thm4.4, ex2.1, ex2.2 (its even n), ex3.1, ex3.2, ex4.1-4.3, ex6.1's
transport, ex7.1's top columns, and the alpha and phi families of
``_alpha_gf`` and ``_phi_gf`` (eq1, ex2.3, ex3.2).  Only eq2, eq3 and
ex6.1's column rows, whose pair changes with n, call the single-n
functions.

Most theorem checks stand on two walks and three shapes.  ``_per_n``
compares pair(n) for n = first_n..max_n: the alternations L E Alt R = +-J
(thm2.1, 3.1, 8.1, 8.3) and the S identities (thm4.1-4.3).  ``_per_n_beta``
compares one pair per n and beta, doing what depends on n alone once per
n: K(-beta) = J K(beta) J (thm6.1, 7.1, 9.1, 9.4), K as a conjugated
binomial band (thm6.2, 9.2) and the closed numerators against extraction
(eq2, eq3).  ``_end_columns`` holds the end columns of H, A or T against
closed forms (thm7.2, 9.3, 9.5), ``_reductions`` K(n, beta) carried down
m orders against K(n-m, n*beta/(n-m)) (thm6.3, 9.3), and ``_duality``
closed(n, dual - beta) = x reverse(closed(n, beta)) (thm2.5, 4.5).  The
printed matrices of eleven constructors are one table, ``_FIXED``.
Library functions are named inside lambdas, so that a name rebound after
import reaches every check.
"""

from __future__ import annotations

import random
import zlib
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

from . import exact
from .arrays import RiordanArray, lagrange_pair, table_row
from .fps import DomainError, Poly, Q, Series, _mismatch, _powers, _q, xdlog
from .genlagrange import (beta_alpha_closed, beta_matrix, beta_phi_closed,
                          beta_q_transform, beta_u_transform,
                          gen_binomial_series, gen_lagrange_series, q_series,
                          t_poly, u_polys)
from .matrix import FinMatrix
from .numerator import (W_matrix, _numerators, alpha_poly, alt_matrix, core_matrix,
                        euler_numerator, exp_matrix, phi_poly, shift_matrix,
                        strided_matrix, tilde_matrix)

DEFAULT_BETAS = (Q(-2), Q(-1), Q(-1, 2), Q(1, 3), Q(1, 2), Q(1), Q(2), Q(3))
DEFAULT_SEED = 20250809


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class Report:
    """The CheckResults of one :func:`run_suite` call, in check order."""

    def __init__(self, suite: str):
        self.suite = suite
        self.results = []

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.results if r.passed)


class _Ctx:
    def __init__(self, max_n: int, betas, seed: int):
        # below max_n 1 most checks would compare nothing
        if not isinstance(max_n, int) or max_n < 1:
            raise DomainError("max_n must be at least 1, got %r" % (max_n,))
        if not isinstance(seed, int):
            raise DomainError("seed must be an integer, got %r" % (seed,))
        self.max_n = max_n
        self.betas = tuple(_q(b) for b in betas)
        self.seed = seed

    def rng(self, name: str) -> random.Random:
        return random.Random(self.seed ^ zlib.crc32(name.encode()))


# -- random inputs ------------------------------------------------------------


def _rand_series(rng, order, first):
    coeffs = [Q(first)] + [Q(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(order)]
    return Series(coeffs, order)


def _rand_unit(rng, order):
    """Random series with constant term 1."""
    return _rand_series(rng, order, 1)


def _rand_weight(rng, order):
    """Random series with nonzero constant term."""
    return _rand_series(rng, order, Q(rng.choice([-3, -2, -1, 1, 2, 3]),
                                      rng.randint(1, 3)))


def _rand_poly_exact(rng, degree, bound):
    coeffs = [Q(rng.randint(-3, 3)) for _ in range(degree)]
    coeffs.append(Q(rng.choice([-3, -2, -1, 1, 2, 3])))
    return Poly(coeffs, bound)


def beta_family(beta, phi, order: int) -> Series:
    """phi-th power of the one-parameter binomial family, routed so that
    no parameter pair ever sits on a pole of the closed form."""
    beta, phi = Q(beta), Q(phi)
    if beta == 0:
        return Series.from_poly([1, 1], order).pow(phi)
    return gen_binomial_series(beta, beta, order).pow(phi / beta)


# -- fixtures -----------------------------------------------------------------

_M = FinMatrix
_X = Poly([0, 1])

_FIX_J3 = _M([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
_FIX_V3 = _M([[1, 0, 0, 0], [3, 1, 0, 0], [3, 2, 1, 0], [1, 1, 1, 1]])
_FIX_V3INV = _M([[1, 0, 0, 0], [-3, 1, 0, 0], [3, -2, 1, 0], [-1, 1, -1, 1]])
_FIX_EULER = [[1], [0, 1], [0, 1, 1], [0, 1, 4, 1], [0, 1, 11, 11, 1]]
_FIX_G = {
    1: _M([[2, 1], [-1, 0]]),
    2: _M([[6, 3, 1], [-8, -3, 0], [3, 1, 0]]),
    3: _M([[20, 10, 4, 1], [-45, -20, -6, 0], [36, 15, 4, 0], [-10, -4, -1, 0]]),
}
_FIX_GINV = {
    1: _M([[0, -1], [1, 2]]),
    2: _M([[0, 1, 3], [0, -3, -8], [1, 3, 6]]),
    3: _M([[0, -1, -4, -10], [0, 4, 15, 36], [0, -6, -20, -45], [1, 4, 10, 20]]),
}
_FIX_X3 = _M([[3, 1, 0, 0], [-6, -1, 1, 0], [4, 0, -1, 1], [-1, 0, 0, -1]])
_FIX_X3_SQ = _M([[3, 2, 1, 0], [-8, -5, -2, 1], [7, 4, 1, -2], [-2, -1, 0, 1]])
_FIX_X3_CB = _M([[1, 1, 1, 1], [-3, -3, -3, -3], [3, 3, 3, 3], [-1, -1, -1, -1]])
_FIX_G_ROOT = {
    2: _M([[3, 1, 0], [-3, 0, 1], [1, 0, 0]]),
    3: _M([[4, 1, 0, 0], [-6, 0, 1, 0], [4, 0, 0, 1], [-1, 0, 0, 0]]),
    4: _M([[5, 1, 0, 0, 0], [-10, 0, 1, 0, 0], [10, 0, 0, 1, 0],
           [-5, 0, 0, 0, 1], [1, 0, 0, 0, 0]]),
}
_FIX_UT4 = _M([[1, 1, 1, 1], [-3, -1, 3, 11], [3, -1, -3, 11], [-1, 1, -1, 1]]) * Q(1, 24)
_FIX_UT4INV = _M([[6, -2, 2, -6], [11, -1, -1, 11], [6, 2, -2, -6], [1, 1, 1, 1]])
_FIX_FT4 = _M([[1, 1, 1, 1], [-3, 3, 15, 39], [3, -9, 9, 171], [-1, 5, -25, 125]]) * 5
_FIX_FT4INV = _M([[210, -30, 10, -6], [107, 19, -13, 11], [18, 10, 2, -6],
                  [1, 1, 1, 1]]) * Q(24, 40320)
_FIX_W = {
    (1, 2): _M([[2]]), (1, 3): _M([[3]]), (1, 4): _M([[4]]),
    (2, 2): _M([[3, 1], [1, 3]]),
    (3, 2): _M([[4, 1, 0], [4, 6, 4], [0, 1, 4]]),
    (4, 2): _M([[5, 1, 0, 0], [10, 10, 5, 1], [1, 5, 10, 10], [0, 0, 1, 5]]),
    (2, 3): _M([[6, 3], [3, 6]]),
    (3, 3): _M([[10, 4, 1], [16, 19, 16], [1, 4, 10]]),
    (4, 3): _M([[15, 5, 1, 0], [51, 45, 30, 15], [15, 30, 45, 51], [0, 1, 5, 15]]),
    (2, 4): _M([[10, 6], [6, 10]]),
    (3, 4): _M([[20, 10, 4], [40, 44, 40], [4, 10, 20]]),
    (4, 4): _M([[35, 15, 5, 1], [155, 135, 101, 65], [65, 101, 135, 155],
                [1, 5, 15, 35]]),
}
_FIX_TRIANGLES = {
    "bell-shift": [[1], [1, 1], [0, 2, 1], [0, 1, 3, 1], [0, 0, 3, 4, 1],
                   [0, 0, 1, 6, 5, 1]],
    "catalan-log": [[1], [1, 1], [3, 2, 1], [10, 6, 3, 1], [35, 20, 10, 4, 1],
                    [126, 70, 35, 15, 5, 1]],
    "catalan-deriv": [[1], [2, 1], [6, 3, 1], [20, 10, 4, 1], [70, 35, 15, 5, 1],
                      [252, 126, 56, 21, 6, 1]],
    "catalan-recip": [[1], [1, 1], [3, 0, 1], [10, 1, -1, 1], [35, 4, 0, -2, 1],
                      [126, 15, 1, 0, -3, 1]],
}

_FIXED = {  # label: (constructor at n, printed matrices by n)
    "U": (lambda n: core_matrix("U", n), {
        1: _M([[1, 0], [-1, 1]]),
        2: _M([[1, 0, 0], [-2, 1, 1], [1, -1, 1]]) * Q(1, 2),
        3: _M([[1, 0, 0, 0], [-3, 1, 1, 1], [3, -2, 0, 4], [-1, 1, -1, 1]]) * Q(1, 6)}),
    "Uinv": (lambda n: core_matrix("Uinv", n), {
        1: _M([[1, 0], [1, 1]]),
        2: _M([[2, 0, 0], [3, 1, -1], [1, 1, 1]]),
        3: _M([[6, 0, 0, 0], [11, 2, -1, 2], [6, 3, 0, -3], [1, 1, 1, 1]])}),
    "F": (lambda n: exp_matrix("F", n), {
        1: _M([[1, 0], [-1, 2]]),
        2: _M([[1, 0, 0], [-2, 3, 3], [1, -3, 9]]),
        3: _M([[1, 0, 0, 0], [-3, 4, 4, 4], [3, -8, 12, 52], [-1, 4, -16, 64]])}),
    "Finv": (lambda n: exp_matrix("Finv", n), {
        1: _M([[2, 0], [1, 1]]) * Q(1, 2),
        2: _M([[12, 0, 0], [7, 3, -1], [1, 1, 1]]) * Q(2, 24),
        3: _M([[120, 0, 0, 0], [74, 20, -4, 2], [15, 9, 3, -3], [1, 1, 1, 1]]) * Q(6, 720)}),
    "S": (lambda n: exp_matrix("S", n), {
        1: _M([[1, 0], [1, 2]]),
        2: _M([[1, 0, 0], [4, 3, 0], [1, 3, 6]]) * 2,
        3: _M([[1, 0, 0, 0], [9, 4, 0, 0], [9, 12, 10, 0], [1, 4, 10, 20]]) * 6,
        4: _M([[1, 0, 0, 0, 0], [16, 5, 0, 0, 0], [36, 30, 15, 0, 0],
               [16, 30, 40, 35, 0], [1, 5, 15, 35, 70]]) * 24}),
    "Sinv": (lambda n: exp_matrix("Sinv", n), {
        1: _M([[2, 0], [-1, 1]]) * Q(1, 2),
        2: _M([[6, 0, 0], [-8, 2, 0], [3, -1, 1]]) * Q(2, 24),
        3: _M([[20, 0, 0, 0], [-45, 5, 0, 0], [36, -6, 2, 0], [-10, 2, -1, 1]]) * Q(6, 720),
        4: _M([[70, 0, 0, 0, 0], [-224, 14, 0, 0, 0], [280, -28, "14/3", 0, 0],
               [-160, 20, "-16/3", 2, 0], [35, -5, "5/3", -1, 1]]) * Q(24, 40320)}),
    "G": (lambda n: beta_matrix("G", n, 1), _FIX_G),
    "Ginv": (lambda n: beta_matrix("G", n, -1), _FIX_GINV),
    "H": (lambda n: beta_matrix("H", n, 1), {
        1: _M([[3, 1], [-1, 1]]) * Q(1, 2),
        2: _M([[15, 5, 1], [-12, 2, 4], [3, -1, 1]]) * Q(1, 6),
        3: _M([[84, 28, 7, 1], [-108, -4, 15, 9], [54, -6, -1, 9],
               [-10, 2, -1, 1]]) * Q(1, 20)}),
    "A": (lambda n: beta_matrix("A", n, 1), {
        2: _M([[2, 1], [-1, 0]]),
        3: _M([[5, "5/2", 1], [-6, -2, 0], [2, "1/2", 0]]),
        4: _M([[14, 7, 3, 1], [-28, "-35/3", "-10/3", 0], [20, "22/3", "5/3", 0],
               [-5, "-5/3", "-1/3", 0]])}),
    "T": (lambda n: beta_matrix("T", n, 1), {
        2: _M([[3, 1], [-1, 1]]) * Q(1, 2),
        3: _M([[12, 4, 1], [-9, 2, 3], [2, -1, 1]]) * Q(1, 5),
        4: _M([[55, "55/3", 5, 1], [-66, 0, 10, 6], [30, -6, 0, 6],
               [-5, "5/3", -1, 1]]) * Q(1, 14)}),
}


def _fixed(*labels):
    """Each printed matrix of the rows ``labels`` of _FIXED against its
    constructor, labelled ``label_n``."""
    for label in labels:
        build, fixture = _FIXED[label]
        for n, want in fixture.items():
            yield "%s_%d" % (label, n), build(n), want


def _binom_band_T(phi, size: int) -> FinMatrix:
    """Transpose of multiplication by (1+x)^phi: entry (i, j) = binom(phi, j-i)."""
    return FinMatrix([[exact.binom(phi, j - i) for j in range(size)]
                      for i in range(size)])


def _catalan(order: int) -> Series:
    return gen_binomial_series(2, 1, order)


def _rising(n: int) -> Fraction:
    """(2n)!/n! = (n+1)(n+2)...(2n), the scale of the exponential numerators."""
    return Q(factorial(2 * n), factorial(n))


# -- shared check shapes ------------------------------------------------------


def _reduce(mat: FinMatrix, m: int) -> FinMatrix:
    """The s x s matrix ``mat`` carried down m >= 1 orders: multiplication
    by 1/(1-x)^m as an (s-m) x s band, then ``mat``, then multiplication by
    (1-x)^m as an s x (s-m) band.  Entry (i, j) of a band is coefficient
    k = i-j of its series: C(m-1+k, k) and (-1)^k C(m, k)."""
    s = mat.n_rows
    down = FinMatrix([[comb(m - 1 + i - j, i - j) if i >= j else 0 for j in range(s)]
                      for i in range(s - m)])
    up = FinMatrix([[(-1) ** (i - j) * comb(m, i - j) if i >= j else 0 for j in range(s - m)]
                    for i in range(s)])
    return down * mat * up


def _t_points(count: int) -> list:
    """``count`` distinct integers t0 != 1, the smallest in size first."""
    return [Q(t) for t in sorted(range(-count, count + 1), key=abs) if t != 1][:count]


def _numerator_polys(kind: str, b: Series, a: Series, first: int, top: int) -> dict:
    """{n: numerator of row n of (b, a)} for n = first..top, Euler's g_n
    (kind "euler") or Narayana's h_n ("narayana"), from one batch."""
    return {n: r.poly for n, r in enumerate(_numerators(b, a, first, top, kind), first)}


def _alpha_gf(a: Series, order_x: int):
    """For each of order_x + 1 points t0, the diagonal-numerator family
    sum(alpha_k(t0) x^k) of (1, x*a) and its generating function
    (1-t0)/(1 - t0*a(x(1-t0))), both through x^order_x: ``(t0, got, want)``.

    alpha_k has degree <= k in t, and so has [x^k] of the right side:
    1 - t*a(x(1-t)) = (1-t)(1 - t*B) with B = sum_{i>=1} a_i x^i (1-t)^(i-1),
    so the right side is sum_m t^m B^m, and [x^k] B^m is zero for m > k and
    carries (1-t)^(k-m) otherwise.  Two such polynomials agree once they
    agree at k + 1 points, so the order_x + 1 points t0 != 1 decide the
    identity through x^order_x, each by one Series inverse.
    """
    alphas = _numerator_polys("euler", Series.one(a.order), a, 0, order_x)
    for t0 in _t_points(order_x + 1):
        s = 1 - t0
        scaled = Series([a.coeffs[k] * s ** k for k in range(order_x + 1)], order_x)
        yield (t0, Series([alpha.eval(t0) for alpha in alphas.values()], order_x),
               s / (1 - t0 * scaled))


def _phi_gf(a: Series, order_x: int):
    """For each of order_x + 1 points t0, the exponential diagonal-numerator
    family phi_k(t0)/(k+1)! of (1, x*a) and (1-t0)^(2k+1) [x^(k+1)] x*b for
    k <= order_x, where (1, x*b) is inverse to (1, x(1 - t0*a)), as two
    lists: ``(t0, got, want)``.

    phi_k has degree <= k in t, and so has the right side: Lagrange
    inversion gives (1-t)^(2k+1) [x^(k+1)] x*b =
    (1/(k+1)) sum_{m<=k} C(k+m, m) t^m (1-t)^(k-m) [x^k] (a-1)^m.  So the
    order_x + 1 points t0 != 1 decide the identity, each by one Series
    reversion (which checks itself).
    """
    phis = _numerator_polys("narayana", Series.one(a.order), a, 0, order_x)
    for t0 in _t_points(order_x + 1):
        s = 1 - t0
        # one order past order_x, so that [x^(order_x+1)] x*b is known
        xb = (1 - t0 * a.truncate(order_x)).mul_x().reversion()
        yield (t0, [phi.eval(t0) / factorial(k + 1) for k, phi in phis.items()],
               [xb.coeffs[k + 1] * s ** (2 * k + 1) for k in range(order_x + 1)])


def _distinct_points(comparisons, used: list):
    """Pass on the ``(t0, got, want)`` of ``_alpha_gf`` or ``_phi_gf`` and
    append the number of distinct points t0 among them to ``used``: the
    degree argument decides an identity only at order_x + 1 of them."""
    points = set()
    for t0, got, want in comparisons:
        points.add(t0)
        yield t0, got, want
    used.append(len(points))


def _per_n(first_n, pair, label="n=%d"):
    """The check pair(n) = (got, want) for n from first_n to max_n."""
    def check(ctx):
        for n in range(first_n, ctx.max_n + 1):
            yield (label % n,) + pair(n)
    return check


def _per_n_beta(first_n, at_n):
    """The check at_n(n)(beta) = (got, want) for n from first_n to max_n
    and every beta; at_n(n) does the work that depends on n alone."""
    def check(ctx):
        for n in range(first_n, ctx.max_n + 1):
            pair = at_n(n)
            for beta in ctx.betas:
                yield ("n=%d beta=%s" % (n, beta),) + pair(beta)
    return check


def _reflection(kind, first_n, reversal):
    """K(-beta) = J K(beta) J for K = beta_matrix(kind), J = reversal(n)."""
    def at_n(n):
        j = reversal(n)
        return lambda beta: (beta_matrix(kind, n, -beta), j * beta_matrix(kind, n, beta) * j)
    return _per_n_beta(first_n, at_n)


def _band_conjugation(kind, route):
    """K = L B R for K = beta_matrix(kind, n, beta), B the transpose of
    multiplication by (1+x)^(n*beta) and (L, R) = route(n), n >= 1."""
    def at_n(n):
        left, right = route(n)
        return lambda beta: (beta_matrix(kind, n, beta),
                             left * _binom_band_T(n * beta, right.n_rows) * right)
    return _per_n_beta(1, at_n)


def _alternation(first_n, route):
    """L E(shift) Alt R = (-1)^(size-1) J, with (L, shift, R, J) = route(n),
    E(phi) the argument shift c(x) -> c(x + phi), Alt the sign change
    c(x) -> c(-x) and size the size of J."""
    def pair(n):
        left, shift, right, rev = route(n)
        size = rev.n_rows
        return (left * shift_matrix(shift, size) * alt_matrix(size) * right,
                rev * Q(-1) ** (size - 1))
    return _per_n(first_n, pair)


def _end_columns(kind, scale, closed, dual):
    """The check that scale(n) times the last column of
    K = beta_matrix(kind, n, beta) is closed(n, beta), and scale(n) times
    its first column is closed(n, dual + beta), for n >= 1 and every beta."""
    def check(ctx):
        for n in range(1, ctx.max_n + 1):
            for beta in ctx.betas:
                k = beta_matrix(kind, n, beta)
                for end, j, b in (("last", k.n_cols - 1, beta), ("first", 0, dual + beta)):
                    yield ("%s column n=%d beta=%s" % (end, n, beta),
                           scale(n) * k.column_poly(j), closed(n, b))
    return check


def _reductions(kind, n, beta, k, where=""):
    """k = beta_matrix(kind, n, beta) carried down m orders against
    beta_matrix(kind, n - m, n*beta/(n - m)) for m from 1 to n-1, each
    label ending in ``where``."""
    for m in range(1, n):
        yield ("reduction n=%d m=%d%s" % (n, m, where), _reduce(k, m),
               beta_matrix(kind, n - m, n * beta / (n - m)))


def _duality(closed, dual, special):
    """The check closed(n, dual - beta) = x reverse(closed(n, beta)) for
    n >= 1 and every beta, after closed(m, beta) = want for each
    (beta, m, want) in special(n)."""
    def check(ctx):
        for n in range(1, ctx.max_n + 1):
            for beta, m, want in special(n):
                yield "beta=%s n=%d" % (beta, m), closed(m, beta), want
            for beta in ctx.betas:
                want = (_X * closed(n, beta).reverse()).with_bound(n)
                yield "duality beta=%s n=%d" % (beta, n), closed(n, dual - beta), want
    return check


# -- fixtures -----------------------------------------------------------------


def _chk_fixtures(ctx):
    yield from _fixed("U", "Uinv")
    yield "J_3", core_matrix("J", 3), _FIX_J3
    yield "V_3", core_matrix("V", 3), _FIX_V3
    yield "Vinv_3", core_matrix("Vinv", 3), _FIX_V3INV
    stirling_left = _M([[1, 0, 0, 0], [0, 1, -1, 2], [0, 0, 1, -3], [0, 0, 0, 1]]) * 6
    stirling_left = stirling_left * FinMatrix.diag([1, 1, Q(1, 2), Q(1, 6)])
    yield ("Uinv_3*Vinv_3", core_matrix("Uinv", 3) * core_matrix("Vinv", 3),
           stirling_left)
    stirling_right = FinMatrix.diag([1, 1, 2, 6]) * _M(
        [[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 1, 3], [0, 0, 0, 1]]) * Q(1, 6)
    yield "V_3*U_3", core_matrix("V", 3) * core_matrix("U", 3), stirling_right
    for n, want in enumerate(_FIX_EULER):
        yield "A_%d" % n, exact.eulerian_poly(n), Poly(want)
    yield from _fixed("F", "Finv", "S", "Sinv")
    s3_fact = _FIX_V3INV * FinMatrix.diag([1, 4, 10, 20]) * _FIX_V3 * 6
    yield "S_3 factorization", exp_matrix("S", 3), s3_fact
    yield from _fixed("G", "Ginv")
    g3_fact = _FIX_V3INV * _binom_band_T(3, 4) * _FIX_V3
    yield "G_3 factorization", beta_matrix("G", 3, 1), g3_fact
    x3 = beta_matrix("X", 3)
    yield "X_3", x3, _FIX_X3
    yield "X_3^2", x3 ** 2, _FIX_X3_SQ
    yield "X_3^3", x3 ** 3, _FIX_X3_CB
    ident = FinMatrix.identity(4)
    yield ("G_3 power sum", ident + 3 * x3 + 3 * (x3 ** 2) + x3 ** 3, _FIX_G[3])
    yield ("Ginv_3 power sum", ident - 3 * x3 + 6 * (x3 ** 2) - 10 * (x3 ** 3),
           _FIX_GINV[3])
    for n, want in _FIX_G_ROOT.items():
        yield "G_%d^(1/%d)" % (n, n), beta_matrix("G", n, Q(1, n)), want
        yield ("I + X_%d" % n, FinMatrix.identity(n + 1) + beta_matrix("X", n),
               want)
    yield from _fixed("H")
    h3_fact = (_FIX_V3INV * FinMatrix.diag([1, 4, 10, 20]) * _binom_band_T(3, 4)
               * FinMatrix.diag([1, Q(1, 4), Q(1, 10), Q(1, 20)]) * _FIX_V3)
    yield "H_3 factorization", beta_matrix("H", 3, 1), h3_fact
    yield "Ut_4", tilde_matrix("Ut", 4), _FIX_UT4
    yield "Utinv_4", tilde_matrix("Utinv", 4), _FIX_UT4INV
    tl = (_M([[1, -1, 2, -6], [0, 1, -3, 11], [0, 0, 1, -6], [0, 0, 0, 1]]) * 24
          * FinMatrix.diag([1, Q(1, 2), Q(1, 6), Q(1, 24)]))
    yield ("Utinv_4*Vtinv_4",
           tilde_matrix("Utinv", 4) * tilde_matrix("Vt", 4).inverse(), tl)
    tr = (FinMatrix.diag([1, 2, 6, 24])
          * _M([[1, 1, 1, 1], [0, 1, 3, 7], [0, 0, 1, 6], [0, 0, 0, 1]]) * Q(1, 24))
    yield "Vt_4*Ut_4", tilde_matrix("Vt", 4) * tilde_matrix("Ut", 4), tr
    yield "Ft_4", tilde_matrix("Ft", 4), _FIX_FT4
    yield "Ftinv_4", tilde_matrix("Ftinv", 4), _FIX_FT4INV
    for (n, m), want in _FIX_W.items():
        yield "W_(%d,%d)" % (n, m), W_matrix(n, m), want
    w32 = W_matrix(3, 2)
    a3t = Poly([1, 4, 1], 2)
    yield "W_(3,2) eigenvector", w32.apply(a3t), 8 * a3t
    yield "W_(3,3) eigenvector", W_matrix(3, 3).apply(a3t), 27 * a3t
    yield "W_(3,2)^2", w32 * w32, _FIX_W[(3, 4)]
    yield "W_(3,2) reduction to W_(2,2)", _reduce(w32, 1), _FIX_W[(2, 2)]
    yield "W_(3,2) reduction to W_(1,2)", _reduce(w32, 2), _FIX_W[(1, 2)]
    vt3 = tilde_matrix("Vt", 3)
    mid = _M([[2, 1, 0], [0, 4, 4], [0, 0, 8]])
    yield "W_(3,2) band factorization", vt3.inverse() * mid * vt3, w32
    yield from _fixed("A")
    vt4 = tilde_matrix("Vt", 4)
    dt4 = tilde_matrix("Dt", 4)
    a4_fact = (vt4.inverse() * dt4 * _binom_band_T(4, 4) * dt4.inverse() * vt4)
    yield "A_4 factorization", beta_matrix("A", 4, 1), a4_fact
    yield from _fixed("T")
    ctd = FinMatrix.diag([comb(5 + p, p) for p in range(4)])
    t4_fact = vt4.inverse() * ctd * _binom_band_T(4, 4) * ctd.inverse() * vt4
    yield "T_4 factorization", beta_matrix("T", 4, 1), t4_fact

    order = 10
    cat = _catalan(order)
    one_plus_x = Series.from_poly([1, 1], order)
    shifted_bell = RiordanArray(one_plus_x, one_plus_x.mul_x())
    log_pref = 1 + xdlog(cat)
    arr_log = RiordanArray(log_pref, cat.mul_x())
    arr_deriv = RiordanArray(cat.mul_x().derivative(), cat.mul_x())
    arr_recip = RiordanArray(log_pref, cat.inverse().mul_x())
    for key, arr in (("bell-shift", shifted_bell), ("catalan-log", arr_log),
                     ("catalan-deriv", arr_deriv), ("catalan-recip", arr_recip)):
        for n, want in enumerate(_FIX_TRIANGLES[key]):
            yield ("%s triangle row %d" % (key, n), list(arr.row(n)),
                   [Q(v) for v in want])


# -- theorem suites -----------------------------------------------------------


_chk_thm21 = _alternation(1, lambda n: (core_matrix("U", n), 1,
                                        core_matrix("Uinv", n), core_matrix("J", n)))


def _chk_thm22(ctx):
    rng = ctx.rng("thm2.2")
    top = min(6, ctx.max_n)
    order = 2 * top + 2
    for trial in range(20):
        b = _rand_weight(rng, order)
        a = _rand_unit(rng, order)
        binv = b * a.inverse()
        ainv = a.inverse()
        gs = _numerator_polys("euler", b, a, 0, top)
        images = _numerator_polys("euler", binv, ainv, 0, top)
        for n in range(top + 1):
            yield "trial=%d n=%d" % (trial, n), images[n], Q(-1) ** n * gs[n].reverse()


def _chk_thm23(ctx):
    rng = ctx.rng("thm2.3")
    order = 2 * ctx.max_n + 2
    for trial in range(20):
        b = _rand_weight(rng, order)
        a = _rand_unit(rng, order)
        gs = _numerator_polys("euler", b, a, 0, ctx.max_n)
        for n in range(ctx.max_n + 1):
            yield ("trial=%d n=%d" % (trial, n), gs[n].eval(1),
                   b.coeffs[0] * a.coeffs[1] ** n)


def _chk_thm24(ctx):
    rng = ctx.rng("thm2.4")
    one_minus_x = Poly([1, -1])
    for n in range(1, ctx.max_n + 1):
        for m in range(n + 1):
            c = _rand_poly_exact(rng, n - m, n - m)
            lhs = core_matrix("U", n).apply(c.with_bound(n))
            rhs = (Q(factorial(n - m), factorial(n)) * one_minus_x ** m
                   * core_matrix("U", n - m).apply(c))
            yield "drop n=%d m=%d" % (n, m), lhs, rhs
            d = _rand_poly_exact(rng, n - m, n - m)
            lhs2 = core_matrix("Uinv", n).apply((one_minus_x ** m * d).with_bound(n))
            rhs2 = (Q(factorial(n), factorial(n - m))
                    * core_matrix("Uinv", n - m).apply(d))
            yield "lift n=%d m=%d" % (n, m), lhs2, rhs2


_chk_thm31 = _alternation(1, lambda n: (exp_matrix("F", n), n + 1,
                                        exp_matrix("Finv", n), core_matrix("J", n)))


def _chk_thm32(ctx):
    rng = ctx.rng("thm3.2")
    top = min(6, ctx.max_n)
    order = 2 * (2 * top + 1)
    for trial in range(20):
        b = _rand_weight(rng, order).truncate(top)
        a = _rand_unit(rng, order).truncate(top)
        xabar = a.mul_x().reversion()
        abar = xabar.div_x()
        image_b = b.compose(xabar) * xabar.derivative()
        hs = _numerator_polys("narayana", b, a, 0, top)
        images = _numerator_polys("narayana", image_b, abar, 0, top)
        for n, h in hs.items():
            yield ("eval trial=%d n=%d" % (trial, n), h.eval(1),
                   b.coeffs[0] * a.coeffs[1] ** n * _rising(n))
            yield "trial=%d n=%d" % (trial, n), images[n], Q(-1) ** n * h.reverse()


def _chk_thm41(ctx):
    yield from _per_n(1, lambda n: (exp_matrix("S", n), core_matrix("Vinv", n)
                                    * exp_matrix("C", n) * core_matrix("V", n)))(ctx)
    rng = ctx.rng("thm4.1")
    top = min(6, ctx.max_n)
    order = 2 * (2 * top + 1)
    for trial in range(20):
        b = _rand_weight(rng, order)
        a = _rand_unit(rng, order)
        gs = _numerator_polys("euler", b, a, 1, top)
        hs = _numerator_polys("narayana", b, a, 1, top)
        for n, g in gs.items():
            yield "map trial=%d n=%d" % (trial, n), exp_matrix("S", n).apply(g), hs[n]


def _chk_thm44(ctx):
    top = min(4, ctx.max_n)
    for c in (Q(1), Q(2), Q(1, 2)):
        a = Series([c ** k for k in range(top + 1)], top)
        for n, h in _numerator_polys("narayana", a, a, 1, top).items():
            yield "geometric c=%s n=%d" % (c, n), h.reverse(), h
    perturbed = Series.from_poly([1, 1, 2], max(top, 2))  # order 2 holds the x^2
    numerators = _numerator_polys("narayana", perturbed, perturbed, 1, top).values()
    yield ("perturbed series breaks the symmetry by n=%d" % top,
           any(h.reverse() != h for h in numerators), True)


def _chk_thm63(ctx):
    for n in range(1, ctx.max_n + 1):
        x = beta_matrix("X", n)
        powers = [FinMatrix.identity(n + 1)] + _powers(x, x, n)
        for beta in ctx.betas:
            g = beta_matrix("G", n, beta)
            acc = sum((exact.binom(n * beta, m) * powers[m] for m in range(n + 1)),
                      FinMatrix.zeros(n + 1, n + 1))
            yield "nilpotent sum n=%d beta=%s" % (n, beta), acc, g
            yield from _reductions("G", n, beta, g, " beta=%s" % beta)
        yield ("unit root n=%d" % n, beta_matrix("G", n, Q(1, n)),
               FinMatrix.identity(n + 1) + x)


_chk_thm81 = _alternation(2, lambda n: (tilde_matrix("Ut", n), 0,
                                        tilde_matrix("Utinv", n), tilde_matrix("Jt", n)))


def _chk_thm82(ctx):
    for n in range(1, ctx.max_n + 1):
        for m in range(1, 5):
            window = (Poly([1] * m) ** (n + 1)).to_series(m * n + m)
            yield "n=%d m=%d" % (n, m), W_matrix(n, m), strided_matrix(window, m, n)


_ft_alternation = _alternation(2, lambda n: (tilde_matrix("Ft", n), n,
                                             tilde_matrix("Ftinv", n),
                                             tilde_matrix("Jt", n)))


def _chk_thm83(ctx):
    yield from _ft_alternation(ctx)
    for n in range(ctx.max_n + 1):
        for p in range(n + 1):
            s1 = sum(Q(-1) ** (n - m) * comb(2 * n + 1, n - m) * Q(m) ** p
                     * comb(m + n, n) for m in range(n + 1))
            yield ("column element n=%d p=%d" % (n, p), s1,
                   Q(-1) ** (n + p) * Q(n + 1) ** p)
            s2 = sum(Q(-1) ** (n - m) * comb(2 * n + 1, n - m) * Q(m + 1) ** p
                     * comb(m + n, n) for m in range(n + 1))
            yield ("shifted column element n=%d p=%d" % (n, p), s2,
                   Q(-1) ** (n + p) * Q(n) ** p)


def _chk_thm93(ctx):
    yield from _end_columns("A", lambda n: 1,
                            lambda n, b: beta_alpha_closed(n, b).div_x(), 1)(ctx)
    for n in range(1, ctx.max_n + 1):
        yield from _reductions("A", n, Q(1), beta_matrix("A", n, Q(1)))


# -- worked examples ----------------------------------------------------------


def _chk_ex21(ctx):
    top = min(5, ctx.max_n)
    a = Series.from_poly([1, 1], top) / Series.from_poly([1, -1], top)
    half_plus_x = Poly([Q(1, 2), 1])
    alphas = _numerator_polys("euler", Series.one(top), a, 1, top)
    us = u_polys(a, top)
    for n in range(1, top + 1):
        v = RiordanArray(Series.one(n), a.truncate(n) - 1).row_poly(n)
        yield ("v_%d" % n, v, Q(2) ** n * _X * half_plus_x ** (n - 1))
        yield "alpha_%d" % n, alphas[n], 2 * _X * Poly([1, 1]) ** (n - 1)
        want1 = sum((2 * exact.binom(n - 1, p_ - 1) * exact.falling_poly(p_)
                     * exact.rising_from(1, n - p_) for p_ in range(n + 1)),
                    Poly.zero(n))
        want2 = sum((factorial(n) * exact.binom(n - 1, p_ - 1)
                     * Q(2 ** p_, factorial(p_)) * exact.falling_poly(p_)
                     for p_ in range(n + 1)), Poly.zero(n))
        yield "u_%d (factorial form)" % n, us[n], want1.with_bound(n)
        yield "u_%d (descending form)" % n, us[n], want2.with_bound(n)


def _chk_ex22(ctx):
    top = 4
    order = 4 * top + 2
    half_sq = Series.from_poly([1, 0, Q(1, 4)], order).sqrt()
    g = half_sq + Series.from_poly([0, Q(1, 2)], order)
    b = Series.from_poly([1, 1], order).sqrt()
    yield "lagrange pair of sqrt(1+x)", lagrange_pair(b), g
    arr = RiordanArray(Series.one(order), g.mul_x().truncate(order))
    half_plus_x = Poly([Q(1, 2), 1])
    for n in range(1, top + 1):
        want = half_plus_x * Poly.monomial(n) * Poly([1, 1]) ** (n - 1)
        yield "row %d" % (2 * n), arr.row_poly(2 * n), want.with_bound(2 * n)
    asq = g * g
    yield ("square equals the half-parameter family",
           asq, gen_binomial_series(Q(1, 2), 1, order))
    alphas = _numerator_polys("euler", Series.one(order), asq, 2, 2 * top)
    us = u_polys(asq, 2 * top)
    for n in range(1, top + 1):
        yield ("alpha_%d" % (2 * n), alphas[2 * n],
               Q(1, 2) * Poly([1, 1]) * Poly.monomial(n))
        want = Poly.one()
        for m in range(n):
            want = want * Poly([-Q(m * m), 0, 1])
        yield "u_%d" % (2 * n), us[2 * n], want.with_bound(2 * n)


def _chk_ex23(ctx):
    phi, beta = Q(1), Q(1)
    order_x = 8
    a = Series.from_poly([1, phi, beta], order_x).inverse()
    # the closed rational form (1 + phi(1-t)x + beta(1-t)^2 x^2) over
    # (1 + phi x + beta(1-t)x^2): the only t in the denominator sits in its
    # x^2 coefficient, so [x^n] of the form has degree <= n in t, as alpha_n
    # has, and the same order_x + 1 points t0 decide the identity
    used = []
    for t0, alphas, rhs in _distinct_points(_alpha_gf(a, order_x), used):
        yield "generating identity t=%s" % t0, alphas, rhs
        s = 1 - t0
        num = Series.from_poly([1, phi * s, beta * s * s], order_x)
        den = Series.from_poly([1, phi, beta * s], order_x)
        yield "closed rational form at t=%s" % t0, alphas, num / den
    yield "distinct points t0", used[0], order_x + 1


def _chk_ex31(ctx):
    top = min(5, ctx.max_n)
    cat = _catalan(top)
    phis = _numerator_polys("narayana", Series.one(top), cat, 1, top)
    us = u_polys(cat, top)
    for n in range(1, top + 1):
        yield ("u_%d over x" % n, us[n].div_x(),
               exact.rising_from(n + 1, n - 1).with_bound(n - 1))
        lifted = exact.rising_from(n + 1, n).with_bound(n)
        yield ("constant image n=%d" % n, exp_matrix("F", n).apply(lifted),
               Poly([_rising(n)], 0).with_bound(n))
        yield "monomial numerator n=%d" % n, phis[n], _rising(n) * _X
    rng = ctx.rng("ex3.1")
    for trial in range(20):
        a = _rand_unit(rng, 10)
        pref = 1 + xdlog(a)
        deriv = a.mul_x().derivative()
        powers = _powers(Series.one(10), a, 11)
        for m in range(1, 10):
            lhs = pref * powers[m]
            for n in range(0, 10 - m + 1):
                yield ("log identity trial=%d n=%d m=%d" % (trial, n, m),
                       lhs.coeffs[n], Q(m + n, m) * powers[m].coeffs[n])
        for m in range(0, 10):
            lhs = deriv * powers[m]
            for n in range(0, 10 - m + 1):
                yield ("derivative identity trial=%d n=%d m=%d" % (trial, n, m),
                       lhs.coeffs[n], Q(m + n + 1, m + 1) * powers[m + 1].coeffs[n])


def _chk_ex32(ctx):
    top = min(6, ctx.max_n)
    geo = Series.geometric(top)
    for n, phi in _numerator_polys("narayana", Series.one(top), geo, 1, top).items():
        yield "phi_%d" % n, phi, beta_phi_closed(n, 1)
    order_x, used = 8, []
    gf = _phi_gf(Series.geometric(order_x), order_x)
    for t0, got, want in _distinct_points(gf, used):
        yield "exponential generating identity t=%s" % t0, got, want
    yield "distinct points t0", used[0], order_x + 1
    n_ord = 10
    for tau in (Q(1, 2), Q(-1), Q(2)):
        inner = Series.from_poly([1, -2 * (1 + tau), (1 - tau) ** 2], n_ord + 1)
        closed = ((1 + (1 - tau) * Series.x(n_ord + 1) - inner.sqrt())
                  .div_x() / 2)
        lhs = [Q(1)] + [beta_phi_closed(n, 1).eval(tau) / factorial(n + 1)
                        for n in range(1, n_ord + 1)]
        yield "closed form at t=%s" % tau, Series(lhs, n_ord), closed


def _chk_ex41(ctx):
    top = min(6, ctx.max_n)
    geo = Series.geometric(top)
    for n, g in _numerator_polys("euler", geo, geo, 0, top).items():
        yield "flat numerator n=%d" % n, g, Poly.one().with_bound(n)
    for n, h in _numerator_polys("narayana", geo, geo, 1, top).items():
        type_b = Poly([comb(n, m) ** 2 for m in range(n + 1)], n)
        yield ("type-B column n=%d" % n,
               exp_matrix("S", n).column_poly(0), factorial(n) * type_b)
        yield "exponential image n=%d" % n, h, factorial(n) * type_b


def _chk_ex42(ctx):
    top = min(6, ctx.max_n)
    one_plus_x = Series.from_poly([1, 1], top)
    cat = _catalan(top)
    pref = 1 + xdlog(cat)
    gs = _numerator_polys("euler", one_plus_x, one_plus_x, 1, top)
    hs = _numerator_polys("narayana", one_plus_x, one_plus_x, 1, top)
    images = _numerator_polys("narayana", pref, cat, 1, top)
    for n in range(1, top + 1):
        yield "ordinary numerator n=%d" % n, gs[n], Poly.monomial(n - 1).with_bound(n)
        half = Q(factorial(2 * n), 2 * factorial(n)) * Poly([1, 1])
        yield ("exponential numerator n=%d" % n, hs[n],
               (half * Poly.monomial(n - 1)).with_bound(n))
        yield "reversed image n=%d" % n, images[n], half.with_bound(n)


def _chk_ex43(ctx):
    top = min(6, ctx.max_n)
    cat = _catalan(top)
    deriv = cat.mul_x().derivative()
    pref = 1 + xdlog(cat)
    hs = _numerator_polys("narayana", deriv, cat, 1, top)
    gs = _numerator_polys("euler", deriv, cat, 1, top)
    reciprocals = _numerator_polys("euler", pref, cat.inverse(), 1, top)
    for n in range(1, top + 1):
        scale = _rising(n)
        yield "constant numerator n=%d" % n, hs[n], Poly([scale], 0).with_bound(n)
        yield ("ordinary numerator n=%d" % n, gs[n],
               (scale * exp_matrix("Sinv", n).column_poly(0)).with_bound(n))
        want = Q(-1) ** n * Poly([comb(2 * n, m) * exact.binom(-n, n - m)
                                  for m in range(n + 1)], n)
        yield "reciprocal numerator n=%d" % n, reciprocals[n], want


def _chk_ex61(ctx):
    top = min(5, ctx.max_n)
    for beta in ctx.betas:
        for n in range(1, top + 1):
            g = beta_matrix("G", n, beta)
            fam = beta_family(beta, 1, n)
            fam_beta = beta_family(beta, beta, n)
            fam1 = beta_family(beta + 1, 1, n)
            fam1_beta = beta_family(beta + 1, beta, n)
            pref = 1 + xdlog(fam_beta)
            pref1 = 1 + xdlog(fam1_beta)
            where = "n=%d beta=%s" % (n, beta)
            yield ("top column " + where,
                   g.column_poly(n), euler_numerator(pref, fam, n).poly)
            yield ("linear column " + where,
                   g.column_poly(1), euler_numerator(pref1, fam1, n).poly)
            yield ("subtop column " + where,
                   g.column_poly(n - 1), euler_numerator(fam * pref, fam, n).poly)
            yield ("first column " + where,
                   g.column_poly(0), euler_numerator(fam1 * pref1, fam1, n).poly)
    rng = ctx.rng("ex6.1")
    order = 2 * top + 2
    for trial in range(8):
        a = _rand_unit(rng, order + 1)
        alphas = _numerator_polys("euler", Series.one(top), a, 1, top)
        for beta in (Q(1), Q(2)):
            lag = gen_lagrange_series(a, beta, order)
            # lag^beta = rev(x*a^(-beta))/x, which gen_lagrange_series checks
            images = _numerator_polys("euler", 1 + xdlog(lag.pow(beta)), lag, 1, top)
            for n in range(1, top + 1):
                yield ("transport trial=%d beta=%s n=%d" % (trial, beta, n),
                       beta_matrix("G", n, beta).apply(alphas[n]), images[n])


def _chk_ex71(ctx):
    top = min(4, ctx.max_n)
    for beta in (Q(0), Q(1), Q(2)):
        fam = beta_family(beta, 1, top)
        fam_beta = beta_family(beta, beta, top)
        pref = (1 + xdlog(fam_beta)) if beta != 0 else Series.one(top)
        for n, want in _numerator_polys("narayana", pref, fam, 1, top).items():
            yield ("top column beta=%s n=%d" % (beta, n),
                   _rising(n) * beta_matrix("H", n, beta).column_poly(n), want)
    for n in range(1, min(6, ctx.max_n) + 1):
        hs = [(beta, beta_matrix("H", n, beta)) for beta in ctx.betas]
        for beta, h in hs:
            nb = n * beta
            arg = (Poly([1, 1]) * Poly.monomial(n - 1)).with_bound(n)
            want = Poly([exact.binom(2 * n - 1 - nb, m) * exact.binom(nb + 1, n - m)
                         for m in range(n + 1)], n)
            yield ("palindromic pair n=%d beta=%s" % (n, beta),
                   comb(2 * n - 1, n - 1) * h.apply(arg), want)
        for beta, h in hs:
            nb = n * beta
            want = Poly([exact.binom(1 - nb, m) * exact.binom(nb + 2 * n - 1, n - m)
                         for m in range(n + 1)], n)
            yield ("ones pair n=%d beta=%s" % (n, beta),
                   comb(2 * n - 1, n - 1) * h.apply(Poly([1, 1], n)), want)


def _chk_ex81(ctx):
    window = (Poly([1, 1]) ** 3).to_series(6)
    yield ("3-fold window stride 2", strided_matrix(window, 2, 2),
           _M([[3, 1], [1, 3]]))
    window4 = (Poly([1, 1]) ** 4).to_series(8)
    yield "4-fold window stride 2", strided_matrix(window4, 2, 3), _FIX_W[(3, 2)]
    rng = ctx.rng("ex8.1")
    a = _rand_series(rng, 8, rng.randint(1, 3))
    want = FinMatrix([[a.coeffs[i - j] if i >= j else Q(0) for j in range(4)]
                      for i in range(4)])
    yield "unit stride is the plain row shift", strided_matrix(a, 1, 4), want


# -- generating functions and the section-5 machinery -------------------------


def _chk_eq1(ctx):
    rng = ctx.rng("eq1")
    order_x, used = 12, []
    for trial in range(10):
        a = _rand_unit(rng, 2 * (2 * order_x + 1))
        for family, gf in (("ordinary", _alpha_gf), ("exponential", _phi_gf)):
            for t0, got, want in _distinct_points(gf(a, order_x), used):
                yield "%s families trial=%d t=%s" % (family, trial, t0), got, want
    yield "fewest distinct points t0", min(used), order_x + 1


def _chk_w_amazing(ctx):
    top = min(6, ctx.max_n)
    for n in range(1, top + 1):
        jt = tilde_matrix("Jt", n)
        vt = tilde_matrix("Vt", n)
        a_t = exact.eulerian_poly(n).div_x()
        for m in range(1, 5):
            w = W_matrix(n, m)
            where = "n=%d m=%d" % (n, m)
            yield "column sums " + where, w.column_sums(), [Q(m) ** n] * n
            yield "eigenvector " + where, w.apply(a_t), Q(m) ** n * a_t
            yield "reversal commutes " + where, w * jt, jt * w
            shifted = Poly([1, 1]) ** m - 1
            mid = FinMatrix([[(shifted ** (i + 1)).coeff(j + 1) for j in range(n)]
                             for i in range(n)])
            yield "band factorization " + where, vt.inverse() * mid * vt, w
            for p in range(1, 5):
                yield ("product %s p=%d" % (where, p),
                       w * W_matrix(n, p), W_matrix(n, m * p))
            for p in range(1, n):
                yield "reduction %s p=%d" % (where, p), _reduce(w, p), W_matrix(n - p, m)


def _chk_col_sums(ctx):
    for n in range(1, min(6, ctx.max_n) + 1):
        for beta in ctx.betas:
            for kind in ("G", "H"):
                yield ("%s n=%d beta=%s" % (kind, n, beta),
                       beta_matrix(kind, n, beta).column_sums(), [Q(1)] * (n + 1))


def _chk_section5(ctx):
    """Lagrange-pair coefficients, fixed points, the u/q system, and the
    diagonal re-reading round trip."""
    rng = ctx.rng("section5")
    for trial in range(20):
        a = _rand_unit(rng, 11)
        b = lagrange_pair(a)
        powers_b = _powers(Series.one(11), b, 12)
        powers_a = _powers(Series.one(11), a, 12)
        for m in range(1, 11):
            for n in range(0, 11 - m):
                yield ("pair trial=%d n=%d m=%d" % (trial, n, m), powers_b[m].coeff(n),
                       Q(m, m + n) * powers_a[m + n].coeff(n))
    for trial in range(6):
        a = _rand_unit(rng, 13)
        for beta in (Q(1), Q(-1), Q(1, 2), Q(2)):
            lag = gen_lagrange_series(a, beta, 12)
            yield ("fixed point trial=%d beta=%s" % (trial, beta),
                   a.compose(lag.pow(beta).mul_x()).truncate(12), lag)
    ex = Series.x(12).exp()
    us = u_polys(ex, 8)
    qs = [q_series(ex, n, 8) for n in range(9)]
    for beta in (Q(1), Q(2), Q(-1)):
        lag = gen_lagrange_series(ex, beta, 12)
        lag_us = u_polys(lag, 8)
        u_images = [beta_u_transform(us[n], n, beta) for n in range(9)]
        q_images = [beta_q_transform(qs[n], n, beta) for n in range(9)]
        for n in range(9):
            yield "u transform beta=%s n=%d" % (beta, n), u_images[n], lag_us[n]
        for n in range(5):
            yield ("q transform beta=%s n=%d" % (beta, n), q_images[n],
                   q_series(lag, n, 8))
        # entry (i, j) is sum over n of [x^i] q_n times [phi^j] u_n
        resolvent = (FinMatrix([[q.coeff(i) for q in q_images] for i in range(9)])
                     * FinMatrix([[u.coeff(j) for j in range(9)] for u in u_images]))
        yield "resolvent sum beta=%s" % beta, resolvent, FinMatrix.identity(9)
    rng2 = ctx.rng("section5-tables")
    for trial in range(5):
        b = _rand_weight(rng2, 10)
        a = _rand_unit(rng2, 10)
        phi = Q(rng2.randint(1, 3), rng2.randint(1, 2))
        for v in (1, -1, 2):
            image_b = table_row(b, a, phi, v, 0, 8)
            image_a = gen_lagrange_series(a, v * phi, 9)
            for k in range(-2, 3):
                yield ("round trip trial=%d v=%d k=%d" % (trial, v, k),
                       table_row(image_b, image_a, phi, -v, k, 8),
                       (b * a.pow(phi * k)).truncate(8))
    b = Series.one(8)
    am = Series.from_poly([1, -1], 8)
    for k in range(-8, 9):
        want = Series([am.pow(Q(-1) * (k + n)).coeff(n) for n in range(9)], 8)
        yield "ascending diagonal k=%d" % k, table_row(b, am, -1, 1, k, 8), want


_CHECKS = [
    ("fixtures", _chk_fixtures),
    ("thm2.1", _chk_thm21),
    ("thm2.2", _chk_thm22),
    ("thm2.3", _chk_thm23),
    ("thm2.4", _chk_thm24),
    ("thm2.5", _duality(lambda n, b: beta_alpha_closed(n, b), 1, lambda n: (
        (1, n, _X), (0, n, Poly.monomial(n)),
        (Q(1, 2), 2 * n, Q(1, 2) * Poly([1, 1]) * Poly.monomial(n))))),
    ("thm3.1", _chk_thm31),
    ("thm3.2", _chk_thm32),
    ("thm4.1", _chk_thm41),
    ("thm4.2", _per_n(1, lambda n: (exp_matrix("S", n) * exp_matrix("Sinv", n),
                                    FinMatrix.identity(n + 1)), "inverse pair n=%d")),
    ("thm4.3", _per_n(1, lambda n: (exp_matrix("Sinv", n), exp_matrix("S", n).inverse()),
                      "inverse n=%d")),
    ("thm4.4", _chk_thm44),
    ("thm4.5", _duality(lambda n, b: beta_phi_closed(n, b), 2, lambda n: (
        (0, n, _rising(n) * Poly.monomial(n)), (2, n, _rising(n) * _X)))),
    ("thm6.1", _reflection("G", 1, lambda n: core_matrix("J", n))),
    ("thm6.2", _band_conjugation("G", lambda n: (core_matrix("Vinv", n),
                                                 core_matrix("V", n)))),
    ("thm6.3", _chk_thm63),
    ("thm7.1", _reflection("H", 1, lambda n: core_matrix("J", n))),
    ("thm7.2", _end_columns("H", lambda n: 1, lambda n, b: (
        t_poly(n, 2 * n - n * b, n * b) * Q(1, comb(2 * n, n))), 2)),
    ("thm8.1", _chk_thm81),
    ("thm8.2", _chk_thm82),
    ("thm8.3", _chk_thm83),
    ("thm9.1", _reflection("A", 2, lambda n: tilde_matrix("Jt", n))),
    ("thm9.2", _band_conjugation("A", lambda n: (
        tilde_matrix("Vt", n).inverse() * tilde_matrix("Dt", n),
        tilde_matrix("Dt", n).inverse() * tilde_matrix("Vt", n)))),
    ("thm9.3", _chk_thm93),
    ("thm9.4", _reflection("T", 2, lambda n: tilde_matrix("Jt", n))),
    ("thm9.5", _end_columns("T", _rising, lambda n, b: beta_phi_closed(n, b).div_x(), 2)),
    ("ex2.1", _chk_ex21),
    ("ex2.2", _chk_ex22),
    ("ex2.3", _chk_ex23),
    ("ex3.1", _chk_ex31),
    ("ex3.2", _chk_ex32),
    ("ex4.1", _chk_ex41),
    ("ex4.2", _chk_ex42),
    ("ex4.3", _chk_ex43),
    ("ex6.1", _chk_ex61),
    ("ex7.1", _chk_ex71),
    ("ex8.1", _chk_ex81),
    ("eq1", _chk_eq1),
    ("eq2", _per_n_beta(1, lambda n: lambda beta: (
        alpha_poly(beta_family(beta, 1, n), n), beta_alpha_closed(n, beta)))),
    ("eq3", _per_n_beta(1, lambda n: lambda beta: (
        phi_poly(beta_family(beta, 1, n), n), beta_phi_closed(n, beta)))),
    ("section5", _chk_section5),
    ("w-amazing", _chk_w_amazing),
    ("col-sums", _chk_col_sums),
]

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_suite(suite: str = "all", max_n: int = 8, betas=DEFAULT_BETAS,
              seed: int = DEFAULT_SEED) -> Report:
    """Run one named check or the whole battery.  ``max_n`` must be an
    int of at least 1 and ``seed`` an int; each beta must be an exact
    rational.  A check that makes no comparison fails."""
    ctx = _Ctx(max_n, betas, seed)
    table = dict(_CHECKS)
    if suite == "all":
        names = CHECK_NAMES
    elif suite in table:
        names = (suite,)
    else:
        raise KeyError("unknown suite %r; choose from 'all', %s"
                       % (suite, ", ".join(CHECK_NAMES)))
    report = Report(suite)
    for name in names:
        fails, count = [], 0
        try:
            for label, got, want in table[name](ctx):
                count += 1
                diff = _mismatch(got, want)
                if diff is not None:
                    fails.append("%s: %s" % (label, diff))
        except Exception as err:  # a crash is a failure with a payload
            fails = ["raised %s: %s" % (type(err).__name__, err)]
        else:
            if not count:
                fails = ["no comparisons made"]
        detail = "; ".join(fails[:4])
        if len(fails) > 4:
            detail += "; and %d more" % (len(fails) - 4)
        report.results.append(CheckResult(name, not fails, detail))
    return report
