"""Riordan arrays in three flavors, the group law, and row machinery.

An ordinary pair (f, g) with g(0) = 0 is the lower-triangular matrix
whose column m has generating function f*g^m.  The exponential flavor
conjugates by the diagonal 1/n! matrix, so its (n, m) entry carries an
extra n!/m!.  A square pair (b, a) with a(0) = 1 is the full matrix
whose column m has generating function b*a^m; its row n equals the
n-th descending diagonal of (b, x*a).

Rows, columns and diagonals are plain tuples of Fractions.  Rows and
diagonals are read off the walk f, f*g, f*g^2, ... of ``fps._powers``,
the one place that steps through the column series.  ``rows`` is the
one reader of rows, called by ``row``, ``genlagrange.u_polys`` and both
routes of the numerator batch.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .fps import DomainError, Poly, Q, RangeError, Series, _count, _powers, _q, xdlog

ORDINARY = "ordinary"
EXPONENTIAL = "exponential"
SQUARE = "square"


class RiordanArray:
    __slots__ = ("f", "g", "flavor", "order")

    def __init__(self, f: Series, g: Series, flavor: str = ORDINARY):
        if flavor in (ORDINARY, EXPONENTIAL):
            if g.coeffs[0] != 0:
                raise DomainError("triangular flavor needs g(0) = 0")
        elif flavor == SQUARE:
            if g.coeffs[0] != 1:
                raise DomainError("square flavor needs column series with a(0) = 1")
            if f.coeffs[0] == 0:
                raise DomainError("square flavor needs b(0) != 0")
        else:
            raise DomainError("unknown flavor %r" % (flavor,))
        self.f = f
        self.g = g
        self.flavor = flavor
        self.order = min(f.order, g.order)

    @classmethod
    def identity(cls, order: int, flavor: str = ORDINARY) -> "RiordanArray":
        return cls(Series.one(order), Series.x(order), flavor)

    def is_proper(self) -> bool:
        if self.flavor == SQUARE:
            return False
        return self.f.coeffs[0] != 0 and self.g.order >= 1 and self.g.coeffs[1] != 0

    # -- entries ---------------------------------------------------------

    def _weight(self, n: int, m: int) -> Fraction:
        if self.flavor == EXPONENTIAL:
            return Q(factorial(n), factorial(m))
        return Q(1)

    def entry(self, n: int, m: int) -> Fraction:
        _count("row index", n)
        _count("column index", m)
        if n > self.order:
            raise RangeError("row %d beyond order %d" % (n, self.order))
        if self.flavor != SQUARE and m > n:
            return Q(0)
        p = self.f.truncate(n) * self.g.truncate(n).pow(m)
        return self._weight(n, m) * p.coeffs[n]

    def rows(self, first: int, top: int, width: int) -> list:
        """Rows n = first..top, row n holding entries (n, m) for m < width
        (only m <= n in a triangular flavor), off one walk at order top."""
        _count("first row", first)
        _count("width", width, 1)
        if _count("top row", top) > self.order:
            raise RangeError("row %d beyond order %d" % (top, self.order))
        if first > top:
            raise RangeError("first row %d beyond top row %d" % (first, top))
        square = self.flavor == SQUARE
        cols = _powers(self.f.truncate(top), self.g.truncate(top),
                       width if square else min(width, top + 1))
        out = []
        for n in range(first, top + 1):
            row = [p.coeffs[n] for p in (cols if square else cols[: n + 1])]
            if self.flavor == EXPONENTIAL:
                row = [Q(factorial(n), factorial(m)) * v for m, v in enumerate(row)]
            out.append(tuple(row))
        return out

    def row(self, n: int) -> tuple:
        """Row n: length n+1 for triangular flavors, order+1 for square."""
        _count("row index", n)
        return self.rows(n, n, self.order + 1)[0]

    def row_poly(self, n: int) -> Poly:
        row = self.row(n)
        return Poly(row, len(row) - 1)

    def column(self, m: int) -> tuple:
        """Column m, through row ``order``."""
        _count("column index", m)
        if self.flavor != SQUARE and m > self.order:
            raise RangeError("column %d beyond order %d" % (m, self.order))
        p = self.f * self.g.pow(m)
        return tuple([self._weight(n, m) * p.coeffs[n] for n in range(self.order + 1)])

    def diagonal(self, n: int) -> tuple:
        """Descending diagonal n: entries (n+m, m) for m = 0..order-n."""
        _count("diagonal index", n)
        if n > self.order:
            raise RangeError("diagonal %d beyond order %d" % (n, self.order))
        cols = _powers(self.f, self.g, self.order - n + 1)
        return tuple([self._weight(n + m, m) * p.coeffs[n + m] for m, p in enumerate(cols)])

    # -- group structure ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, RiordanArray):
            return NotImplemented
        if self.flavor != other.flavor:
            raise DomainError("flavor mismatch in Riordan product")
        if self.flavor == SQUARE:
            raise DomainError("square arrays have no group product here")
        return RiordanArray(self.f * other.f.compose(self.g),
                            other.g.compose(self.g), self.flavor)

    def inverse(self) -> "RiordanArray":
        if self.flavor == SQUARE:
            raise DomainError("square arrays have no group inverse here")
        if not self.is_proper():
            raise DomainError("only proper arrays invert")
        gbar = self.g.reversion()
        return RiordanArray(self.f.compose(gbar).inverse(), gbar, self.flavor)

    # -- Sheffer rows -------------------------------------------------------

    def sheffer_row(self, n: int) -> Poly:
        """Row n of an exponential array as a polynomial in the row
        argument: coefficient j is (n!/j!) [x^n] f*g^j."""
        if self.flavor != EXPONENTIAL:
            raise DomainError("Sheffer rows belong to the exponential flavor")
        return self.row_poly(n)

    def __repr__(self):
        return "RiordanArray(%r, %r, %s)" % (self.f, self.g, self.flavor)


def lagrange_pair(a: Series) -> Series:
    """The series b with (1, x/a)^{-1} = (1, x*b); needs a(0) = 1."""
    if a.coeffs[0] != 1:
        raise DomainError("lagrange_pair needs a(0) = 1")
    return a.inverse().mul_x().reversion().div_x()


def table_row(b: Series, a: Series, phi, v: int, k: int, order: int) -> Series:
    """Row k of the v-th diagonal re-reading of the doubly infinite table
    whose row k has generating function b*a^(phi*k).

    v = 0 returns b*a^(phi*k) itself; positive v re-reads ascending
    diagonals, negative v descending ones.
    """
    phi = _q(phi)
    _count("order", order)
    for name, value in (("v", v), ("k", k)):
        if not isinstance(value, int):
            raise DomainError("%s must be an integer, got %r" % (name, value))
    if a.coeffs[0] != 1:
        raise DomainError("table_row needs a(0) = 1")
    if b.coeffs[0] == 0:
        raise DomainError("table_row needs b(0) != 0")
    if min(a.order, b.order) < order:
        raise RangeError("series orders too small for the requested order")
    beta = v * phi
    if beta == 0:
        return (b * a.pow(phi * k)).truncate(order)
    h = a.pow(-beta).mul_x().reversion()   # x * (lagrange series)^beta
    lag = a.compose(h)                     # the generalized Lagrange series
    pref = 1 + xdlog(h.div_x())
    row = b.compose(h) * pref * lag.pow(phi * k)
    return row.truncate(order)
