"""Numerator polynomials of rows and diagonals.

Row n of a square array (b, a) sums to g_n(x)/(1-x)^(n+1) for a
polynomial g_n of degree <= n; the exponential diagonal has denominator
(1-x)^(2n+1) and numerator h_n.  The extraction verifies a window of
higher coefficients vanishes, so a bad input cannot slip through.
"""

from riordan import (Series, euler_numerator, gen_binomial_series,
                     narayana_numerator, run_suite)


def poly_str(p):
    return " + ".join("%s x^%d" % (c, k) for k, c in enumerate(p.coeffs) if c != 0) or "0"


order = 16
one = Series.one(order)
ex = Series.x(order).exp()

print("numerators of the m^n table (scaled classical Eulerian polynomials):")
for n in range(5):
    res = euler_numerator(one, ex, n)
    print("   n=%d: %s   (residual window %d clean)"
          % (n, poly_str(res.poly), res.residual_checked))

geo = Series.geometric(order)
print("the binomial-square array has flat numerators:")
for n in range(4):
    print("   n=%d: %s" % (n, poly_str(euler_numerator(geo, geo, n).poly)))

print("exponential diagonals of (1, x/(1-x)) give scaled Narayana polynomials:")
for n in range(4):
    print("   n=%d: %s" % (n, poly_str(narayana_numerator(one, geo, n).poly)))

cat = gen_binomial_series(2, 1, 4)  # diagonal n reads the series through x^n
print("the Catalan case collapses to monomials:")
for n in range(1, 5):
    print("   n=%d: %s" % (n, poly_str(narayana_numerator(Series.one(4), cat, n).poly)))

print("generating identities in x and t, compared at n+1 points t for x^0..x^n:")
for suite, what in (("ex2.3", "ordinary family of 1/(1+x+x^2), n=8"),
                    ("ex3.2", "exponential family of 1/(1-x), n=8")):
    result = run_suite(suite).results[0]
    print("   %s (%s): %s" % (what, suite, "passed" if result.passed else result.detail))
