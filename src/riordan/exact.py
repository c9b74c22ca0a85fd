"""Exact combinatorial scalars and small polynomial families.

Generalized binomial coefficients with a rational upper argument,
ascending and descending factorials as polynomials, and the classical
Eulerian polynomials.

For a rational phi = p/q, binom(phi, k) takes the integer product of the
p - iq over q^k k!, reduced once rather than k times as k Fraction
products would be.
A count that is not an integer, or a negative count where the product
has no meaning, is a DomainError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .fps import DomainError, Poly, Q, _count, _q


def binom(phi, k: int) -> Fraction:
    """Generalized binomial coefficient phi(phi-1)...(phi-k+1)/k!.

    A rational phi = p/q gives one integer product (p)(p-q)...(p-(k-1)q)
    over q^k k!, reduced once; a negative k yields 0.
    """
    if not isinstance(k, int):
        raise DomainError("binom needs an integer k, got %r" % (k,))
    if k < 0:
        return Q(0)
    phi = _q(phi)
    if phi.denominator == 1 and phi >= 0:
        n = phi.numerator
        return Q(comb(n, k)) if k <= n else Q(0)
    p, q = phi.numerator, phi.denominator
    num = 1
    for i in range(k):
        num *= p - i * q
    return Q(num, q ** k * factorial(k))


def _poly_product(c, n: int, step: int) -> Poly:
    """(x+c)(x+c+step)...(x+c+(n-1) step) as a polynomial in x."""
    c = _q(c)
    out = Poly.one()
    for i in range(n):
        out = out * Poly([c + i * step, 1])
    return out


def falling_from(c, n: int) -> Poly:
    """(x+c)(x+c-1)...(x+c-n+1) as a polynomial in x."""
    return _poly_product(c, _count("falling count", n), -1)


def rising_from(c, n: int) -> Poly:
    """(x+c)(x+c+1)...(x+c+n-1) as a polynomial in x."""
    return _poly_product(c, _count("rising count", n), 1)


def falling_poly(n: int) -> Poly:
    """(x)_n = x(x-1)...(x-n+1)."""
    return falling_from(0, n)


# The Eulerian polynomials A_0, A_1, ... by index, extended on demand by
# A_(k+1) = x(1-x) A_k' + (k+1) x A_k, which on coefficients reads
# [x^j] A_(k+1) = j [x^j] A_k + (k+2-j) [x^(j-1)] A_k.
_EULERIAN = {0: Poly([1])}


def eulerian_poly(n: int) -> Poly:
    """Numerator of sum(m^n x^m): 1, x, x+x^2, x+4x^2+x^3, ..."""
    _count("eulerian_poly n", n)
    for k in range(len(_EULERIAN) - 1, n):
        c = (Q(0),) + _EULERIAN[k].coeffs + (Q(0),)  # c[j + 1] is [x^j] A_k
        # a thread extending the table at the same time stores the same
        # entry, and setdefault keeps whichever came first
        _EULERIAN.setdefault(k + 1, Poly([j * c[j + 1] + (k + 2 - j) * c[j]
                                          for j in range(k + 2)]))
    return _EULERIAN[n]
