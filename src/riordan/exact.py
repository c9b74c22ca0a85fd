"""Exact combinatorial scalars and small polynomial families.

Generalized binomial coefficients with a rational upper argument,
ascending and descending factorials as polynomials, and the classical
Eulerian polynomials.

A_n comes from its definition, with no table: it is the window
(1-x)^(n+1) sum(m^n x^m) through x^n, which :func:`_window` also
builds for U, F and both numerator extractions.

For a rational phi = p/q, binom(phi, k) takes the integer product of the
p - iq over q^k k!, reduced once rather than k times as k Fraction
products would be.
A count that is not an integer, or a negative count where the product
has no meaning, is a DomainError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .fps import DomainError, Poly, Q, _convolve, _count, _q


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


def _window(values, power: int) -> Poly:
    """(1-x)^power * sum(values[m] x^m) through x^(len(values)-1): one
    kernel product with the integers (-1)^k C(power, k)."""
    n = len(values) - 1
    window = [1]
    for k in range(n):
        window.append(-window[-1] * (power - k) // (k + 1))
    return Poly(_convolve(values, window, n), n)


def eulerian_poly(n: int) -> Poly:
    """Numerator of sum(m^n x^m): 1, x, x+x^2, x+4x^2+x^3, ..."""
    return _window([m ** n for m in range(_count("eulerian_poly n", n) + 1)], n + 1)
