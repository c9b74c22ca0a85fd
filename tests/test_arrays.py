import random
import re
from fractions import Fraction as Q
from math import comb, factorial

import pytest

import reference as ref
from riordan import exact
from riordan.arrays import (EXPONENTIAL, ORDINARY, SQUARE, RiordanArray, lagrange_pair,
                            table_row)
from riordan.fps import DomainError, Poly, RangeError, Series
from riordan.genlagrange import gen_binomial_series
from riordan.matrix import FinMatrix


def pascal(order):
    geo = Series.geometric(order)
    return RiordanArray(geo, Series.x(order) / Series.from_poly([1, -1], order))


def rand_proper(rng, order, flavor=ORDINARY):
    f, g = ref.draw_proper(rng, order)
    return RiordanArray(Series(f), Series(g), flavor)


def test_pascal_row():
    assert pascal(8).row(3) == (1, 3, 3, 1)


def test_exponential_pascal_row():
    pe = RiordanArray(Series.x(8).exp(), Series.x(8), EXPONENTIAL)
    assert list(pe.row(3)) == [1, 3, 3, 1]
    for n in range(6):
        assert list(pe.row(n)) == [comb(n, m) for m in range(n + 1)]


def test_catalan_derivative_triangle_rows():
    order = 10
    cat = gen_binomial_series(2, 1, order + 1)
    arr = RiordanArray(cat.mul_x().derivative().truncate(order),
                       cat.mul_x().truncate(order))
    want = [[1], [2, 1], [6, 3, 1], [20, 10, 4, 1]]
    for n, row in enumerate(want):
        assert list(arr.row(n)) == row


def test_flavor_bridge():
    rng = random.Random(2)
    arr = rand_proper(rng, 8)
    arr_e = RiordanArray(arr.f, arr.g, EXPONENTIAL)
    for n in range(9):
        for m in range(n + 1):
            weight = Q(factorial(n), factorial(m))
            assert arr_e.entry(n, m) == weight * arr.entry(n, m)


def test_square_bridge():
    rng = random.Random(4)
    b = Series(ref.draw(rng, "small", 9, first=2))
    a = Series(ref.draw(rng, "small", 9, first=1))
    square = RiordanArray(b, a, SQUARE)
    tri = RiordanArray(b, a.mul_x().truncate(8))
    for n in range(9):
        d = tri.diagonal(n)
        assert square.row(n)[: len(d)] == d


def test_group_product_pascal_square():
    p = pascal(10)
    got = p * p
    two = Series.from_poly([1, -2], 10)
    assert got.f == Series.one(10) / two
    assert got.g == Series.x(10) / two


def test_product_with_identity_and_inverse():
    rng = random.Random(9)
    arr = rand_proper(rng, 8)
    ident = RiordanArray.identity(8)
    prod = arr * ident
    assert prod.f == arr.f and prod.g == arr.g
    inv = arr.inverse()
    round_trip = arr * inv
    assert round_trip.f == Series.one(8)
    assert round_trip.g == Series.x(8)
    # the inverse on both sides at seeded orders 1..16, in both triangular flavors
    for flavor in (ORDINARY, EXPONENTIAL):
        for order in range(1, 17):
            arr = rand_proper(rng, order, flavor)
            one = RiordanArray.identity(order, flavor)
            inv = arr.inverse()
            for prod in (arr * inv, inv * arr):
                assert (prod.f, prod.g) == (one.f, one.g), (flavor, order)


def test_group_associativity_random():
    rng = random.Random(13)
    for _ in range(5):
        a, b, c = (rand_proper(rng, 8) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.f == rhs.f and lhs.g == rhs.g
    for flavor in (ORDINARY, EXPONENTIAL):
        for order in range(1, 17):
            a, b, c = (rand_proper(rng, order, flavor) for _ in range(3))
            lhs, rhs = (a * b) * c, a * (b * c)
            assert (lhs.f, lhs.g) == (rhs.f, rhs.g), (flavor, order)


def test_mutually_inverse_substitutions():
    order = 10
    lhs = RiordanArray(Series.one(order),
                       Series.x(order) / Series.from_poly([1, -1], order))
    rhs = RiordanArray(Series.one(order),
                       Series.x(order) / Series.from_poly([1, 1], order))
    prod = lhs * rhs
    assert prod.f == Series.one(order)
    assert prod.g == Series.x(order)
    inv = lhs.inverse()
    assert inv.g == rhs.g


def test_pascal_inverse_matches_power_formula():
    p = pascal(9)
    inv = p.inverse()
    minus = Series.from_poly([1, 1], 9)
    assert inv.f == Series.one(9) / minus
    assert inv.g == Series.x(9) / minus


def test_reversion_pair_inverse():
    arr = RiordanArray(Series.one(9), Series.from_poly([0, 1, -1], 9))
    inv = arr.inverse()
    cat = gen_binomial_series(2, 1, 8)
    assert inv.g == cat.mul_x()


def test_flavor_mismatch_raises():
    a = pascal(6)
    b = RiordanArray(Series.x(6).exp(), Series.x(6), EXPONENTIAL)
    with pytest.raises(DomainError):
        a * b


def test_sheffer_rows():
    pe = RiordanArray(Series.x(8).exp(), Series.x(8), EXPONENTIAL)
    assert pe.sheffer_row(2) == Poly([1, 2, 1], 2)
    rising = RiordanArray(Series.one(8), Series.geometric(8).log(), EXPONENTIAL)
    assert rising.sheffer_row(2) == Poly([0, 1, 1], 2)
    for n in range(5):
        assert rising.sheffer_row(n) == exact.rising_from(0, n).with_bound(n)


def test_sheffer_even_square_case():
    order = 12
    half = Series.from_poly([1, 0, Q(1, 4)], order).sqrt()
    g = half + Series.from_poly([0, Q(1, 2)], order)
    a = g * g
    arr = RiordanArray(Series.one(order), a.log(), EXPONENTIAL)
    assert arr.sheffer_row(4) == Poly([0, 0, -1, 0, 1], 4)  # x^2(x^2-1)


def test_sheffer_requires_exponential():
    with pytest.raises(DomainError):
        pascal(6).sheffer_row(2)


def test_materialize_range_errors():
    from riordan.fps import RangeError
    p = pascal(6)
    with pytest.raises(RangeError):
        p.row(7)
    with pytest.raises(RangeError):
        p.column(7)
    with pytest.raises(RangeError):
        p.diagonal(7)
    with pytest.raises(RangeError, match="row 7 beyond order 6"):
        p.rows(0, 7, 3)
    with pytest.raises(RangeError, match="first row 3 beyond top row 2"):
        p.rows(3, 2, 3)


SLICE_CALLS = {
    "entry-row": lambda a, k: a.entry(k, 0),
    "entry-column": lambda a, k: a.entry(2, k),
    "column": lambda a, k: a.column(k),
    "diagonal": lambda a, k: a.diagonal(k),
    "row": lambda a, k: a.row(k),
}


@pytest.mark.parametrize("name", SLICE_CALLS)
def test_bad_slice_index_is_typed(name):
    a = RiordanArray(Series.geometric(6), Series.x(6))
    call = SLICE_CALLS[name]
    for bad in (-1, 2.0):
        with pytest.raises(DomainError, match="index must be a nonnegative integer"):
            call(a, bad)
    if name == "entry-column":
        assert call(a, 7) == 0  # above the diagonal of a triangular array
    else:
        with pytest.raises(RangeError, match="7 beyond order 6"):
            call(a, 7)


BAD_CONSTRUCTIONS = {  # name: (call, message); DomainError is also a ValueError
    "empty matrix": (lambda: FinMatrix([]), "matrix needs at least one entry"),
    "ragged rows": (lambda: FinMatrix([[1], [1, 2]]), "ragged rows"),
    "empty diagonal": (lambda: FinMatrix.diag([]), "matrix needs at least one entry"),
    "unknown flavor": (lambda: RiordanArray(Series.one(2), Series.x(2), "bogus"),
                       "unknown flavor 'bogus'"),
}


@pytest.mark.parametrize("name", BAD_CONSTRUCTIONS)
def test_bad_construction_is_a_domain_error(name):
    call, message = BAD_CONSTRUCTIONS[name]
    with pytest.raises(DomainError, match=message) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_lagrange_pair_basics():
    assert lagrange_pair(Series.from_poly([1, 1], 8)) == Series.geometric(8)
    assert lagrange_pair(Series.from_poly([1, -1], 8)) == (
        Series.one(8) / Series.from_poly([1, 1], 8))
    # (1, x/a)^{-1} = (1, x*b) with b = lagrange_pair(a), at seeded orders 1..16
    rng = random.Random(19)
    for order in range(1, 17):
        a = Series(ref.draw(rng, "small", order + 1, first=1))
        inv = RiordanArray(Series.one(order + 1), a.inverse().mul_x()).inverse()
        assert lagrange_pair(a) == inv.g.div_x(), order


def test_lagrange_pair_exponential():
    # b_n = (n+1)^(n-1)/n!
    from math import factorial
    ex = Series.x(9).exp()
    b = lagrange_pair(ex)
    assert b.coeffs[0] == 1
    for n in range(1, 10):
        assert b.coeffs[n] == Q((n + 1) ** (n - 1), factorial(n))


def test_table_row_v_zero():
    rng = random.Random(21)
    b = Series(ref.draw(rng, "small", 9, first=1))
    a = Series(ref.draw(rng, "small", 9, first=1))
    got = table_row(b, a, Q(1, 2), 0, 3, 8)
    assert got == b * a.pow(Q(3, 2))


def test_table_row_rejects_non_integer_v_and_k():
    a = Series.from_poly([1, 1], 6)
    for v, k in ((Q(3, 2), 0), (1.5, 0), ("1", 0), (1.0, 0)):
        with pytest.raises(DomainError, match=r"^v must be an integer, got %s$" % re.escape(repr(v))):
            table_row(a, a, 1, v, k, 4)
    for k in (Q(1, 2), -1.5, "1", 2.0):
        with pytest.raises(DomainError, match=r"^k must be an integer, got %s$" % re.escape(repr(k))):
            table_row(a, a, 1, 1, k, 4)


def test_table_row_matches_diagonal_re_reading():
    # entry n of the once-re-read row k is entry n of original row k+n
    rng = random.Random(25)
    b = Series(ref.draw(rng, "small", 11, first=2))
    a = Series(ref.draw(rng, "small", 11, first=1))
    phi = Q(1)
    for k in range(-3, 4):
        row = table_row(b, a, phi, 1, k, 7)
        want = Series([(b * a.pow(phi * (k + n))).coeffs[n] for n in range(8)], 7)
        assert row == want


def test_table_row_round_trip():
    rng = random.Random(29)
    from riordan.genlagrange import gen_lagrange_series
    b = Series(ref.draw(rng, "small", 11, first=1))
    a = Series(ref.draw(rng, "small", 11, first=1))
    phi = Q(2)
    for v in (1, -1):
        image_b = table_row(b, a, phi, v, 0, 8)
        image_a = gen_lagrange_series(a, v * phi, 9)
        for k in (-2, 0, 1, 3):
            back = table_row(image_b, image_a, phi, -v, k, 8)
            assert back == (b * a.pow(phi * k)).truncate(8)
