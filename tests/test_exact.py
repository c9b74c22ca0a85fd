import random
from fractions import Fraction as Q
from math import comb, factorial

import pytest

import reference as ref
from riordan import exact
from riordan.fps import DomainError, Poly


def test_binom_integer_cases():
    assert exact.binom(5, 2) == 10
    assert exact.binom(-1, 3) == -1
    assert exact.binom(Q(1, 2), 2) == Q(-1, 8)
    assert exact.binom(7, 0) == 1
    assert exact.binom(Q(3, 4), -1) == 0


def test_binom_matches_factorial_formula_for_integers():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert exact.binom(n, k) == comb(n, k)


def test_binom_pascal_recurrence_random_rational():
    rng = random.Random(7)
    for _ in range(50):
        phi = Q(rng.randint(-20, 20), rng.randint(1, 7))
        for k in range(1, 13):
            assert exact.binom(phi, k) == (exact.binom(phi - 1, k - 1)
                                           + exact.binom(phi - 1, k))


def test_falling_and_rising_values():
    # at x = 0 the polynomial products are the scalar factorials of c
    assert exact.falling_from(3, 2).eval(0) == 6
    assert exact.falling_from(Q(1, 2), 2).eval(0) == Q(-1, 4)
    assert exact.rising_from(1, 3).eval(0) == 6
    assert exact.rising_from(-2, 2).eval(0) == 2
    assert exact.rising_from(Q(1, 2), 2).eval(0) == Q(3, 4)
    assert exact.rising_from(Q(5, 3), 0) == Poly.one()


def test_falling_poly_expansion():
    # x(x-1)(x-2) = 2x - 3x^2 + x^3
    assert exact.falling_poly(3) == Poly([0, 2, -3, 1])
    assert exact.rising_from(1, 2) == Poly([2, 3, 1])


def test_rising_is_signed_falling():
    # (x+c)(x+c+1)...(x+c+n-1) = (-1)^n (-x-c)(-x-c-1)...(-x-c-n+1)
    rng = random.Random(11)
    for _ in range(50):
        phi = Q(rng.randint(-15, 15), rng.randint(1, 5))
        for n in range(0, 11):
            falling = exact.falling_from(-phi, n).coeffs
            want = Poly([Q(-1) ** (n + k) * c for k, c in enumerate(falling)])
            assert exact.rising_from(phi, n) == want


def test_eulerian_polynomials():
    want = [[1], [0, 1], [0, 1, 1], [0, 1, 4, 1], [0, 1, 11, 11, 1]]
    for n, coeffs in enumerate(want):
        assert exact.eulerian_poly(n) == Poly(coeffs)
        assert exact.eulerian_poly(n).eval(1) == factorial(n)


def test_eulerian_result_is_immutable():
    p = exact.eulerian_poly(5)
    with pytest.raises(TypeError):
        p.coeffs[1] = Q(100)
    assert exact.eulerian_poly(5) == Poly(ref.eulerian(5))
    assert len(exact.eulerian_poly(5).coeffs) == 6


def test_bad_counts_are_domain_errors():
    for call in (lambda: exact.binom(5, 2.0), lambda: exact.binom(Q(1, 2), 2.0),
                 lambda: exact.falling_from(1, -1), lambda: exact.rising_from(1, -1),
                 lambda: exact.falling_poly(-1), lambda: exact.falling_poly(2.0),
                 lambda: exact.rising_from(1, Q(2))):
        with pytest.raises(DomainError):
            call()
    assert exact.binom(Q(1, 2), -1) == 0


def test_poly_products_evaluate_to_scalar_products():
    rng = random.Random(17)
    for _ in range(20):
        c = Q(rng.randint(-9, 9), rng.randint(1, 4))
        x0 = Q(rng.randint(-9, 9), rng.randint(1, 4))
        for n in range(0, 8):
            assert exact.falling_from(c, n).eval(x0) == ref.step_product(x0 + c, n, -1)
            assert exact.rising_from(c, n).eval(x0) == ref.step_product(x0 + c, n, 1)
