"""Exact combinatorial scalars and small polynomial families.

Generalized binomial coefficients with a rational upper argument,
ascending/descending factorials (as numbers and as polynomials),
signed Stirling numbers, and the classical Eulerian polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .fps import DomainError, Poly, Q, _q


def binom(phi, k: int) -> Fraction:
    """Generalized binomial coefficient phi(phi-1)...(phi-k+1)/k!.

    The product form keeps everything exact for rational phi; a
    negative k yields 0.
    """
    if k < 0:
        return Q(0)
    phi = _q(phi)
    if phi.denominator == 1 and phi >= 0:
        n = phi.numerator
        return Q(comb(n, k)) if k <= n else Q(0)
    num = Q(1)
    for i in range(k):
        num *= phi - i
    return num / factorial(k)


def falling(phi, n: int) -> Fraction:
    """Descending factorial phi(phi-1)...(phi-n+1); empty product is 1."""
    phi = _q(phi)
    out = Q(1)
    for i in range(n):
        out *= phi - i
    return out


def rising(phi, n: int) -> Fraction:
    """Ascending factorial phi(phi+1)...(phi+n-1); empty product is 1."""
    phi = _q(phi)
    out = Q(1)
    for i in range(n):
        out *= phi + i
    return out


def falling_from(c, n: int) -> Poly:
    """(x+c)(x+c-1)...(x+c-n+1) as a polynomial in x."""
    c = _q(c)
    out = Poly.one()
    for i in range(n):
        out = out * Poly([c - i, 1])
    return out


def rising_from(c, n: int) -> Poly:
    """(x+c)(x+c+1)...(x+c+n-1) as a polynomial in x."""
    c = _q(c)
    out = Poly.one()
    for i in range(n):
        out = out * Poly([c + i, 1])
    return out


def falling_poly(n: int) -> Poly:
    """(x)_n = x(x-1)...(x-n+1)."""
    return falling_from(0, n)


def rising_poly(n: int) -> Poly:
    """[x]_n = x(x+1)...(x+n-1)."""
    return rising_from(0, n)


def stirling1(n: int, m: int) -> Fraction:
    """Signed Stirling numbers of the first kind: [x^m] (x)_n."""
    if m > n or m < 0 or n < 0:
        raise DomainError("stirling1 needs 0 <= m <= n")
    return falling_poly(n).coeff(m)


def stirling2(n: int, m: int) -> Fraction:
    """Stirling numbers of the second kind."""
    if m > n or m < 0 or n < 0:
        raise DomainError("stirling2 needs 0 <= m <= n")
    row = [Q(1)]
    for r in range(1, n + 1):
        new = [Q(0)] * (r + 1)
        for k in range(1, r + 1):
            new[k] = k * (row[k] if k < r else Q(0)) + row[k - 1]
        new[0] = Q(0)
        row = new
    return row[m]


# Coefficient tuples of the Eulerian polynomials A_0, A_1, ... by index,
# extended on demand by A_(k+1) = x(1-x) A_k' + (k+1) x A_k, which on
# coefficients reads [x^j] A_(k+1) = j [x^j] A_k + (k+2-j) [x^(j-1)] A_k.
_EULERIAN = {0: (Q(1),)}


def eulerian_poly(n: int) -> Poly:
    """Numerator of sum(m^n x^m): 1, x, x+x^2, x+4x^2+x^3, ..."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("eulerian_poly needs an integer n >= 0")
    for k in range(len(_EULERIAN) - 1, n):
        c = (Q(0),) + _EULERIAN[k] + (Q(0),)  # c[j + 1] is [x^j] A_k
        # a thread extending the table at the same time stores the same
        # entry, and setdefault keeps whichever came first
        _EULERIAN.setdefault(k + 1, tuple(j * c[j + 1] + (k + 2 - j) * c[j]
                                          for j in range(k + 2)))
    return Poly(_EULERIAN[n], n)
