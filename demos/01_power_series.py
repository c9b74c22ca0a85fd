"""Exact truncated power series: the arithmetic everything else rests on.

Every coefficient is a Fraction; a series knows its truncation order and
binary operations never pretend to know coefficients past it.
"""

from fractions import Fraction as Q

from riordan import Series, gen_binomial_series


def show(label, series, count=None):
    coeffs = series.coeffs if count is None else series.coeffs[:count]
    print("%-28s %s" % (label, ", ".join(str(c) for c in coeffs)))


order = 10

geo = Series.geometric(order)              # 1/(1-x)
show("1/(1-x)", geo, 8)
show("(1-x) * 1/(1-x)", Series.from_poly([1, -1], order) * geo, 8)

# composition: 1/(1-x) at x/(1+x) collapses to 1 + x
mobius = Series.x(order) / Series.from_poly([1, 1], order)
show("geo o (x/(1+x))", geo.compose(mobius), 8)

# reversion reads each coefficient off a power of x/g (Lagrange inversion)
# and then checks g(h(x)) = x, which only the true inverse satisfies
h = Series.from_poly([0, 1, -1], order).reversion()
show("reversion of x - x^2", h, 8)
print("   (the Catalan numbers)")

xeminus = Series.x(order) * Series.from_poly([0, -1], order).exp()
show("reversion of x e^{-x}", xeminus.reversion(), 6)

# rational powers, logs, exponentials
show("(1+x)^(1/2)", Series.from_poly([1, 1], order).pow(Q(1, 2)), 6)
show("log 1/(1-x)", geo.log(), 6)

# the one-parameter generalized binomial family: 1+x, 1/(1-x), Catalan,
# and everything in between
for beta in (0, 1, 2, Q(1, 2), -1):
    try:
        fam = gen_binomial_series(beta, 1, 6)
        show("family at beta=%s" % beta, fam)
    except Exception as err:
        print("family at beta=%s rejected: %s" % (beta, err))
