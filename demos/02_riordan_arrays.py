"""Riordan arrays three ways: ordinary, exponential, square.

The ordinary pair (f, g) is the triangle whose column m generates
f*g^m; the exponential flavor reweights entry (n, m) by n!/m!; a square
pair (b, a) with a(0) = 1 is the full array of coefficients of b*a^m,
and its rows are the diagonals of (b, x*a).
"""

from riordan import (EXPONENTIAL, SQUARE, RiordanArray, Series,
                     gen_binomial_series)


def show_rows(label, arr, count):
    print(label)
    for n in range(count):
        print("   " + " ".join(str(c) for c in arr.row(n)))


order = 10
geo = Series.geometric(order)
pascal = RiordanArray(geo, Series.x(order) / Series.from_poly([1, -1], order))
show_rows("the binomial triangle as (1/(1-x), x/(1-x)):", pascal, 5)

pascal_e = RiordanArray(Series.x(order).exp(), Series.x(order), EXPONENTIAL)
show_rows("the same triangle as the exponential pair (e^x, x):", pascal_e, 5)

# group law: squaring the triangle doubles the parameter
sq = pascal * pascal
print("square of the triangle is (1/(1-2x), x/(1-2x)):")
print("   f:", ", ".join(str(c) for c in sq.f.coeffs[:6]))
print("   g:", ", ".join(str(c) for c in sq.g.coeffs[:6]))

inv = pascal.inverse()
print("its group inverse alternates signs:")
print("   f:", ", ".join(str(c) for c in inv.f.coeffs[:6]))

# Sheffer rows: row n of an exponential array as a polynomial
print("row polynomials of (e^x, x): (1 + t)^n")
for n in range(4):
    print("   s_%d:" % n, " ".join(str(c) for c in pascal_e.sheffer_row(n).coeffs))

# a square array and the diagonal bridge
cat = gen_binomial_series(2, 1, order)
square = RiordanArray(Series.one(order), cat, SQUARE)
tri = RiordanArray(Series.one(order), cat.mul_x().truncate(order))
print("row 2 of the square Catalan array:",
      " ".join(str(c) for c in square.row(2)[:6]))
print("diagonal 2 of its triangle:      ",
      " ".join(str(c) for c in tri.diagonal(2)[:6]))
