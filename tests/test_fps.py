import random
from fractions import Fraction as Q
from math import factorial

import pytest

import reference as ref
from riordan import exact, fps
from riordan.fps import (ConsistencyError, DomainError, Poly, RangeError, Series,
                         _convolve, _mismatch, _power, _powers, xdlog)
from riordan.matrix import FinMatrix


# -- ring operations ----------------------------------------------------------

def test_geometric_cancellation():
    n = 12
    assert Series.from_poly([1, -1], n) * Series.geometric(n) == Series.one(n)


def test_inverse_of_one_minus_x():
    assert Series.one(9) / Series.from_poly([1, -1], 9) == Series.geometric(9)


def test_power_walks_match_plain_products(monkeypatch):
    f = Series.from_poly([2, 1, -1], 8)
    g = Series.from_poly([0, 1, 3], 8)
    # the walks from the unit, by plain products taken before counting starts
    f_powers = [Series.one(8)]
    g_powers = [Series.one(6)]
    for _ in range(9):
        f_powers.append(f_powers[-1] * f)
        g_powers.append(g_powers[-1] * g)
    units = []
    real = Series.__mul__

    def counted(self, other):
        if isinstance(other, Series) and (self == 1 or other == 1):
            units.append((self, other))
        return real(self, other)

    # square-and-multiply starts from the base, so it never multiplies by the unit
    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(Series, "__rmul__", counted)
    one = Series.one(8)
    assert _power(f, 0, one) is one
    assert f ** 1 is f
    for k in range(10):
        assert (f ** k).coeffs == f_powers[k].coeffs
    assert units == []
    # a walk from the unit starts with a product that takes the scalar path;
    # g of order 8 walked from a unit of order 6: every entry at order 6
    assert [(p.order, p.coeffs) for p in _powers(Series.one(6), g, 10)] == [
        (p.order, p.coeffs) for p in g_powers]
    assert _powers(Series.one(8), g, 2)[1] == g
    assert _powers(Series.one(9), g, 2)[1] == g
    assert _powers(Series.one(8), g, 0) == []


def test_square_of_one_plus_x():
    got = Series.from_poly([1, 1], 6) * Series.from_poly([1, 1], 6)
    assert got == Series.from_poly([1, 2, 1], 6)


def test_binary_ops_return_min_order():
    a = Series.geometric(9)
    b = Series.one(5)
    assert (a + b).order == 5
    assert (a * b).order == 5
    assert (a / b).order == 5


def test_division_by_nonunit_raises():
    with pytest.raises(DomainError):
        Series.one(4) / Series.x(4)


# -- composition and reversion -------------------------------------------------

def test_compose_geometric_with_mobius():
    f = Series.geometric(10)
    g = Series.x(10) / Series.from_poly([1, 1], 10)
    assert f.compose(g) == Series.from_poly([1, 1], 10)


def test_compose_with_x_is_identity():
    rng = random.Random(3)
    f = Series(ref.draw(rng, "small", 9))
    assert f.compose(Series.x(8)) == f


def test_compose_exp_log():
    order = 8
    e = Series.x(order).exp()
    l = Series.from_poly([1, 1], order).log()
    assert e.compose(l) == Series.from_poly([1, 1], order)


def test_compose_requires_zero_constant():
    with pytest.raises(DomainError):
        Series.one(4).compose(Series.one(4))


def test_reversion_mobius():
    g = Series.x(10) / Series.from_poly([1, -1], 10)
    want = Series.x(10) / Series.from_poly([1, 1], 10)
    assert g.reversion() == want


def test_reversion_catalan():
    got = Series.from_poly([0, 1, -1], 8).reversion()
    assert got == Series([0, 1, 1, 2, 5, 14, 42, 132, 429], 8)


def test_reversion_x_exp_minus_x_against_composition():
    g = Series.x(10) * Series.from_poly([0, -1], 10).exp()
    r = g.reversion()
    assert g.truncate(9).compose(r.truncate(9)) == Series.x(9)
    assert r.coeffs[:5] == (Q(0), Q(1), Q(1), Q(3, 2), Q(8, 3))


def test_reversion_round_trip_random():
    rng = random.Random(17)
    for _ in range(30):
        coeffs = [Q(0), Q(rng.choice([1, -1, 2, -2]), rng.randint(1, 2))]
        coeffs += ref.draw(rng, "small", 9)
        g = Series(coeffs, 10)
        r = g.reversion()
        assert g.compose(r) == Series.x(10)
        assert r.compose(g) == Series.x(10)


def test_reversion_rejects_a_corrupted_lagrange_route(monkeypatch):
    real_inverse = Series.inverse

    def off_by_one(self):
        coeffs = list(real_inverse(self).coeffs)
        coeffs[2] += 1
        return Series(coeffs, self.order)

    g = Series.from_poly([0, 1, -1], 8)
    monkeypatch.setattr(Series, "inverse", off_by_one)
    with pytest.raises(ConsistencyError) as err:
        g.reversion()
    # rev_3 comes out 3 instead of 2, so g(rev) = rev - rev^2 gains x^3
    assert str(err.value) == ("reversion: self(rev) against x (n=8): "
                              "coefficient 3: got 1, want 0")
    monkeypatch.setattr(Series, "inverse", real_inverse)
    assert g.reversion() == Series([0, 1, 1, 2, 5, 14, 42, 132, 429], 8)


def test_reversion_needs_unit_linear_term():
    with pytest.raises(DomainError):
        Series.from_poly([0, 0, 1], 5).reversion()
    with pytest.raises(DomainError):
        Series.one(5).reversion()


def test_lagrange_coefficient_identity():
    # with b defined by (1, x/a)^{-1} = (1, x*b):
    # [x^n] b^m = m/(m+n) [x^n] a^(m+n)
    rng = random.Random(23)
    for _ in range(10):
        a = Series(ref.draw(rng, "small", 9, first=1))
        b = a.inverse().mul_x().reversion().div_x()
        for m in range(1, 9):
            bm = b.pow(m)
            for n in range(0, 9 - m):
                want = Q(m, m + n) * a.pow(m + n).coeffs[n]
                assert bm.coeffs[n] == want


def test_lagrange_pair_built_from_coefficients():
    # building b directly out of the coefficient formula must give the
    # substitution inverse of x/a
    rng = random.Random(27)
    for _ in range(10):
        a = Series(ref.draw(rng, "small", 10, first=1))
        xb = Series([Q(0)] + [Q(1, 1 + n) * a.pow(1 + n).coeffs[n]
                              for n in range(8)], 8)
        inner = (a.inverse().mul_x()).truncate(8)
        assert inner.compose(xb) == Series.x(8)
        assert xb.compose(inner) == Series.x(8)


# -- transcendental operations ---------------------------------------------------

def test_log_of_geometric():
    got = Series.geometric(8).log()
    assert got == Series([Q(0)] + [Q(1, k) for k in range(1, 9)], 8)


def test_exp_series():
    got = Series.x(8).exp()
    assert got == Series([Q(1, factorial(k)) for k in range(9)], 8)


def test_log_of_one_plus_x():
    got = Series.from_poly([1, 1], 8).log()
    assert got == Series([Q(0)] + [Q((-1) ** (k - 1), k) for k in range(1, 9)], 8)


def test_exp_log_round_trip_random():
    rng = random.Random(5)
    for _ in range(10):
        a = Series(ref.draw(rng, "small", 11, first=1))
        assert a.log().exp() == a


def test_pow_half_of_one_plus_x():
    got = Series.from_poly([1, 1], 8).pow(Q(1, 2))
    want = Series([exact.binom(Q(1, 2), n) for n in range(9)], 8)
    assert got == want


def test_pow_half_of_one_minus_four_x():
    got = Series.from_poly([1, -4], 8).pow(Q(1, 2))
    want = Series([exact.binom(Q(1, 2), n) * Q(-4) ** n for n in range(9)], 8)
    assert got == want
    assert got.coeffs[:4] == (Q(1), Q(-2), Q(-2), Q(-4))


def test_pow_zero_and_integer_agreement():
    rng = random.Random(31)
    a = Series(ref.draw(rng, "small", 9, first=1))
    assert a.pow(0) == Series.one(8)
    assert a.pow(3) == a * a * a
    assert a.pow(-2) == Series.one(8) / (a * a)
    assert a.pow(Q(2, 1)) == a * a


def test_pow_additivity_random_rational():
    rng = random.Random(37)
    for _ in range(10):
        a = Series(ref.draw(rng, "small", 11, first=1))
        p = Q(rng.randint(-6, 6), rng.randint(1, 4))
        q = Q(rng.randint(-6, 6), rng.randint(1, 4))
        assert a.pow(p) * a.pow(q) == a.pow(p + q)


def test_fractional_pow_needs_unit_constant():
    with pytest.raises(DomainError):
        Series.from_poly([2, 1], 5).pow(Q(1, 2))


def test_derivative():
    assert Series.from_poly([0, 0, 1], 5).derivative() == Series.from_poly([0, 2], 4)
    e = Series.x(6).exp()
    assert e.derivative() == e.truncate(5)
    with pytest.raises(RangeError):
        Series.one(0).derivative()


def test_bad_orders_and_indices_are_domain_errors():
    g = Series.geometric(3)
    for call in (lambda: Series.geometric(-1), lambda: g.truncate(-1),
                 lambda: Series.x(2.0), lambda: Series.one(-1),
                 lambda: Poly([1, 1]).to_series(Q(2)), lambda: g.coeff(2.0),
                 lambda: g.coeff(-1), lambda: g[Q(1)],
                 lambda: Poly([1, 1]).coeff(2.0), lambda: Poly([1, 1, 1]).coeff(1.0),
                 lambda: Poly([1, 1]).coeff(-1), lambda: Poly.monomial(-1),
                 lambda: Poly.monomial(2.0), lambda: Poly.zero(-1),
                 lambda: Poly.one(Q(1))):
        with pytest.raises(DomainError, match="must be a nonnegative integer, got "):
            call()
    for call in (lambda: g.coeff(4), lambda: g.truncate(4)):
        with pytest.raises(RangeError):
            call()
    assert Poly([1, 1]).coeff(2) == 0


def test_x_log_derivative_of_geometric():
    # x * (log 1/(1-x))' = x/(1-x)
    got = xdlog(Series.geometric(9))
    assert got == Series.x(9) / Series.from_poly([1, -1], 9)


# -- polynomials ----------------------------------------------------------------

def test_poly_bound_rules():
    p = Poly([1, 2], 4)
    assert p.coeffs == (Q(1), Q(2), Q(0), Q(0), Q(0))
    assert p.degree() == 1
    with pytest.raises(DomainError):
        Poly([1, 2, 3], 1)


def test_poly_reverse_uses_bound():
    p = Poly([0, 1], 3)
    assert p.reverse() == Poly([0, 0, 1, 0], 3)


def test_poly_div_x():
    p = Poly([0, 2, 3, 1])  # x(x+1)(x+2)
    assert p.div_x() == Poly([2, 3, 1]) and p.div_x().bound == 2
    assert Poly([0, 1], 4).div_x().bound == 3
    assert Poly.zero().div_x().bound == 0
    with pytest.raises(DomainError):
        Poly([1, 1]).div_x()


def test_poly_series_round_trip():
    p = Poly([1, 0, Q(5, 3)])
    s = p.to_series(6)
    assert s.coeffs == (Q(1), Q(0), Q(5, 3), Q(0), Q(0), Q(0), Q(0))


def test_values_are_immutable_and_sizes_typed():
    for value in (Series([1, 2]), Poly([1, 2], 3)):
        with pytest.raises(TypeError):
            value.coeffs[0] = 1
    for make, coeffs, size in ((Series, [1, 2], 1.0), (Series, [1], Q(0)),
                               (Poly, [1], 2.0), (Poly, [1], -1)):
        with pytest.raises(DomainError):
            make(coeffs, size)


def test_series_equality_needs_equal_orders():
    assert Series([1, 2, 3]) != Series([1, 2])
    assert Series([1, 2]) != Series([1, 2, 0])
    assert Series([1, 2, 3]).truncate(1) == Series([1, 2])
    # a scalar is the constant series at the series' own order
    assert Series([1, 0, 0]) == 1 and Series([1]) == 1
    assert Series([1, 2]) != 1


# -- the first-difference wording of a failed comparison ---------------------

def test_mismatch_keeps_each_type_equality():
    assert _mismatch(Poly([1, 2], 1), Poly([1, 2, 0, 0], 3)) is None  # bounds differ
    assert _mismatch(Series([1, 2, 3]), Series([1, 2])) == "order 2, want 1"  # strict ==
    assert _mismatch([Q(1), Q(2)], [1, 2]) is None


def test_mismatch_names_the_first_difference():
    assert _mismatch(Poly([1, 2], 1), Poly([1, 2, 3])) == "coefficient 2: got 0, want 3"
    assert _mismatch(Series([1, 2, 5]), Series([1, 3, 5])) == "coefficient 1: got 2, want 3"
    # the orders come first, and a difference in order alone is named too
    assert _mismatch(Series([1, 2, 5]), Series([1, 3])) == "order 2, want 1"
    assert _mismatch(Series([1, 2]), Series([1, 2, 0])) == "order 1, want 2"
    assert (_mismatch(FinMatrix([[1, 2], [3, 4]]), FinMatrix([[1, 2], [3, Q(9, 2)]]))
            == "entry (1, 1): got 4, want 9/2")
    assert (_mismatch(FinMatrix([[1, 2]]), FinMatrix([[1], [2]]))
            == "shape 1x2, want 2x1")
    assert _mismatch([1, 2], [1, 3]) == "index 1: got 2, want 3"
    assert _mismatch((1, 2), (1, 2, 3)) == "length 2, want 3"
    assert _mismatch(Q(1, 2), 3) == "got 1/2, want 3"


def test_constant_operands_take_the_scalar_path(monkeypatch):
    # an operand that is zero past its constant term is not packed
    packed = []
    real = fps._to_ints
    monkeypatch.setattr(fps, "_to_ints", lambda coeffs: packed.append(coeffs) or real(coeffs))
    rng = random.Random(7)
    for kind in ref.KINDS:
        for length in (1, 2, 5, 19, 44, 70):
            b = ref.draw(rng, kind, length)
            c = ref.draw(rng, rng.choice(ref.KINDS), 1) + [Q(0)] * rng.randint(0, 6)
            n = rng.randint(0, length + len(c))
            for x, y in ((c, b), (b, c)):
                want = ref.product(x, y, n)
                assert _convolve(x, y, n) == want, (len(x), len(y), n)
                nx, ny = n, n + rng.choice((0, 0, rng.randint(1, 6)))
                got = (Series((x + [Q(0)] * (nx + 1))[: nx + 1], nx)
                       * Series((y + [Q(0)] * (ny + 1))[: ny + 1], ny))
                assert (got.order, got.coeffs) == (n, tuple(want))
                got = Poly(x) * Poly(y)
                assert (got.bound, got.coeffs) == (
                    len(x) + len(y) - 2, tuple(ref.product(x, y, len(x) + len(y) - 2)))
    assert packed == []


def _kept(value):
    """``value`` with its integer form kept, as its first product leaves it."""
    if isinstance(value, FinMatrix):
        value._rows(), value._cols()
        assert None not in (value._row_form, value._col_form)
    else:
        fps._int_form(value, value.coeffs)
        assert value._ints is not None
    return value


def test_kept_integer_forms_change_no_equality_or_repr():
    rng = random.Random(8)
    for order in (0, 1, 5, 12):
        a, b = (Series(ref.draw(rng, "small", order + 1)) for _ in range(2))
        for make, twin in ((lambda: Series(a.coeffs, order), lambda: Series(b.coeffs, order)),
                           (lambda: Poly(a.coeffs, order + 2), lambda: Poly(b.coeffs)),
                           (lambda: FinMatrix([a.coeffs, b.coeffs]),
                            lambda: FinMatrix(list(zip(a.coeffs, b.coeffs, a.coeffs))))):
            plain, kept = make(), _kept(make())
            assert repr(kept) == repr(plain)
            assert kept == plain and plain == kept and _mismatch(kept, plain) is None
            assert _kept(make()) * _kept(twin()) == make() * twin()
        assert _kept(Poly(a.coeffs, order + 2)) == Poly(a.coeffs)
