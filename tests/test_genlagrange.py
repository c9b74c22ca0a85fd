import random
import re
from fractions import Fraction as Q

import pytest

import reference as ref
from riordan import genlagrange, verify
from riordan.arrays import table_row
from riordan.fps import ConsistencyError, DomainError, PoleError, Poly, Series
from riordan.genlagrange import (beta_alpha_closed, beta_matrix,
                                 beta_phi_closed, beta_q_transform,
                                 beta_u_transform, gen_binomial_series,
                                 gen_lagrange_series, q_series, t_poly,
                                 u_polys)
from riordan.matrix import FinMatrix
from riordan.numerator import alpha_poly, phi_poly


def test_gen_binomial_series_families():
    assert gen_binomial_series(2, 1, 4) == Series([1, 1, 2, 5, 14], 4)
    assert gen_binomial_series(0, 1, 4) == Series.from_poly([1, 1], 4)
    assert gen_binomial_series(1, 1, 5) == Series.geometric(5)
    got = gen_binomial_series(Q(1, 2), 1, 12)
    half = Series.from_poly([1, 0, Q(1, 4)], 12).sqrt()
    g = half + Series.from_poly([0, Q(1, 2)], 12)
    assert got == g * g


def test_gen_binomial_series_negative_branch():
    # (1 + sqrt(1+4x))/2 solves a = 1 + x/a
    got = gen_binomial_series(-1, -1, 10)
    a = (1 + Series.from_poly([1, 4], 10).sqrt()) / 2
    assert got == a.inverse()


def test_gen_binomial_pole_rejected():
    with pytest.raises(PoleError):
        gen_binomial_series(-1, 1, 3)
    with pytest.raises(PoleError):
        gen_binomial_series(Q(-1, 2), 1, 4)
    with pytest.raises(PoleError):
        gen_binomial_series(1, 0, 2)
    # phi = -beta*pole puts phi + beta*n at zero for n = pole only: every
    # order from the pole up raises PoleError naming it, and one step off
    # (the order below, or phi moved by beta/7) equals the product formula
    rng = random.Random(29)
    for _ in range(40):
        beta = Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        pole = rng.randint(1, 12)
        at_pole = -beta * pole
        for order in (pole, pole + rng.randint(1, 4)):
            with pytest.raises(PoleError, match=r"^phi \+ beta\*n vanishes at n = %d$" % pole):
                gen_binomial_series(beta, at_pole, order)
        for phi, order in ((at_pole, pole - 1), (at_pole + beta / 7, pole + 3)):
            got = gen_binomial_series(beta, phi, order)
            assert got.coeffs == tuple(ref.binomial_series(beta, phi, order)), (beta, phi)


def test_gen_lagrange_series_beta_zero_is_identity():
    rng = random.Random(3)
    a = Series([Q(1)] + ref.draw(rng, "small", 10), 10)
    assert gen_lagrange_series(a, 0, 8) == a.truncate(8)


def test_gen_lagrange_series_exponential():
    ex = Series.x(12).exp()
    got = gen_lagrange_series(ex, 1, 8)
    assert got.coeffs[:4] == (Q(1), Q(1), Q(3, 2), Q(8, 3))


def test_gen_lagrange_series_one_plus_x_vs_reversion():
    order = 10
    a = Series.from_poly([1, 1], order + 1)
    got = gen_lagrange_series(a, 1, order)
    h = (a.inverse().mul_x()).reversion()
    assert got == a.compose(h).truncate(order)
    # fixed point through an explicit composition
    assert a.compose(got.pow(1).mul_x().truncate(order)) == got


def test_gen_lagrange_matches_binomial_family():
    for beta in (Q(1), Q(2), Q(1, 2), Q(-1)):
        a = Series.from_poly([1, 1], 11)
        lag = gen_lagrange_series(a, beta, 10)
        base = gen_binomial_series(beta, beta, 10).pow(1 / beta)
        assert lag == base


def test_q_series_exponential():
    ex = Series.x(10).exp()
    assert q_series(ex, 2, 6) == Series.from_poly([0, 0, 1], 6)
    geo_log = Series.geometric(10)
    q0 = q_series(geo_log, 0, 6)
    assert q0.coeffs[0] == 1


def test_t_poly_values():
    assert t_poly(1, 1, 1) == Poly([1, 1])
    assert t_poly(2, 2, 0) == Poly([0, 0, 1])
    assert t_poly(1, 2, 2) == Poly([2, 2])
    tp = t_poly(3, Q(1, 2), 2)
    assert (tp.coeffs, tp.bound) == ((0, Q(1, 2), Q(-1, 4), Q(1, 16)), 3)


def test_beta_alpha_closed_specializations():
    for n in range(1, 7):
        assert beta_alpha_closed(n, 1) == Poly([0, 1])
        assert beta_alpha_closed(n, 0) == Poly.monomial(n)
    assert beta_alpha_closed(4, Q(1, 2)) == Q(1, 2) * Poly([0, 0, 1, 1])


def test_beta_alpha_closed_matches_extraction():
    series = gen_binomial_series(3, 3, 12).pow(Q(1, 3))
    for n in range(1, 5):
        assert beta_alpha_closed(n, 3) == alpha_poly(series, n)


def test_beta_phi_closed_specializations():
    assert beta_phi_closed(2, 1) == Poly([0, 6, 6])
    assert beta_phi_closed(3, 2) == Poly([0, 120])
    assert beta_phi_closed(3, 0) == Poly([0, 0, 0, 120])


def test_beta_phi_closed_matches_extraction():
    series = gen_binomial_series(2, 1, 18)
    for n in range(1, 5):
        assert beta_phi_closed(n, 2) == phi_poly(series, n)


def test_beta_matrix_fixtures():
    assert beta_matrix("G", 2, 1) == FinMatrix([[6, 3, 1], [-8, -3, 0], [3, 1, 0]])
    assert beta_matrix("H", 3, 1) == FinMatrix(
        [[84, 28, 7, 1], [-108, -4, 15, 9], [54, -6, -1, 9],
         [-10, 2, -1, 1]]) * Q(1, 20)
    assert beta_matrix("T", 2, 1) == FinMatrix([[3, 1], [-1, 1]]) * Q(1, 2)
    assert beta_matrix("A", 2, 1) == FinMatrix([[2, 1], [-1, 0]])


def test_beta_matrix_group_property():
    # conjugated shifts compose additively in beta
    for n in (2, 3):
        for b1, b2 in ((Q(1), Q(1)), (Q(1, 2), Q(3, 2)), (Q(-1), Q(2))):
            lhs = beta_matrix("G", n, b1) * beta_matrix("G", n, b2)
            assert lhs == beta_matrix("G", n, b1 + b2)
            lhs = beta_matrix("H", n, b1) * beta_matrix("H", n, b2)
            assert lhs == beta_matrix("H", n, b1 + b2)


def test_beta_matrix_x_needs_no_beta():
    x3 = beta_matrix("X", 3)
    assert x3.entry(0, 0) == 3
    with pytest.raises(DomainError):
        beta_matrix("G", 3)


def test_beta_u_transform():
    assert beta_u_transform(Poly([0, 0, 1], 2), 2, 1) == Poly([0, 2, 1])
    p = Poly([0, 5, -2, 1], 3)
    assert beta_u_transform(p, 3, 0) == p
    with pytest.raises(ConsistencyError,
                       match=r"^u transform: .* \(n=1, beta=1\): got 1, want 0$"):
        beta_u_transform(Poly([1, 1], 1), 1, 1)  # nonzero constant term


def test_reflection_check_names_the_wrong_entry(monkeypatch):
    def wrong(kind, n, beta=None):  # G_1 at beta = 2 with entry (1, 0) off by one
        m = beta_matrix(kind, n, beta)
        if (kind, n, beta) != ("G", 1, 2):
            return m
        rows = [list(row) for row in m.data]
        rows[1][0] += 1
        return FinMatrix(rows)

    monkeypatch.setattr(verify, "beta_matrix", wrong)
    report = verify.run_suite("thm6.1", max_n=2)
    assert not report.ok
    v = beta_matrix("G", 1, 2).entry(1, 0)
    # beta = -2 asks for G_1(2) on the left, and the reflected G_1(-2) is right
    assert report.results[0].detail.startswith(
        "n=1 beta=-2: entry (1, 0): got %s, want %s;" % (v + 1, v))


def test_end_column_check_names_the_wrong_column(monkeypatch):
    def wrong(kind, n, beta=None):  # H_1 at beta = 2 with entry (1, 1) off by one
        m = beta_matrix(kind, n, beta)
        if (kind, n, beta) != ("H", 1, 2):
            return m
        rows = [list(row) for row in m.data]
        rows[1][1] += 1
        return FinMatrix(rows)

    monkeypatch.setattr(verify, "beta_matrix", wrong)
    report = verify.run_suite("thm7.2", max_n=2)
    assert not report.ok
    v = beta_matrix("H", 1, 2).entry(1, 1)
    # H_1's last column is its column 1; its first column still holds
    assert report.results[0].detail == (
        "last column n=1 beta=2: coefficient 1: got %s, want %s" % (v + 1, v))


def test_beta_u_transform_matches_definition():
    # rows of (1, log lag) equal the transformed rows of (1, log a)
    a = Series.from_poly([1, 1], 14)
    for beta in (Q(1), Q(-1), Q(1, 2)):
        lag = gen_lagrange_series(a, beta, 12)
        us = u_polys(a, 6)
        lag_us = u_polys(lag, 6)
        for n in range(7):
            assert beta_u_transform(us[n], n, beta) == lag_us[n]


def test_beta_q_transform_matches_definition():
    ex = Series.x(14).exp()
    for beta in (Q(1), Q(2)):
        lag = gen_lagrange_series(ex, beta, 12)
        for n in range(4):
            got = beta_q_transform(q_series(ex, n, 8), n, beta)
            assert got == q_series(lag, n, 8)


def test_resolvent_sum_identity():
    # sum of u_n(phi) q_n(x) over n telescopes to 1/(1 - phi x)
    ex = Series.x(12).exp()
    beta = Q(1)
    lag = gen_lagrange_series(ex, beta, 10)
    us = u_polys(lag, 6)
    for phi in (Q(1), Q(-1, 2), Q(2)):
        acc = Series.zero(6)
        for n in range(7):
            acc = acc + q_series(lag, n, 6) * us[n].eval(phi)
        assert acc == Series.one(6) / Series.from_poly([1, -phi], 6)


def test_corrupted_t_poly_is_named_by_the_h_check(monkeypatch):
    right = beta_matrix("H", 3, 1)
    real = genlagrange.t_poly

    def off_by_one(n, phi, beta_arg):  # [x^0] one too big
        return real(n, phi, beta_arg) + 1

    monkeypatch.setattr(genlagrange, "t_poly", off_by_one)
    beta_matrix.cache_clear()  # so the memoized H(3, 1) does not hide the mutant
    wrong = genlagrange._band_closed(3, 3, Q(3))
    i, j = next((i, j) for i in range(4) for j in range(4)
                if wrong.entry(i, j) != right.entry(i, j))
    msg = ("H: conjugated shift against closed form (n=3, beta=1): entry (%d, %d): "
           "got %s, want %s" % (i, j, right.entry(i, j), wrong.entry(i, j)))
    with pytest.raises(ConsistencyError, match="^%s$" % re.escape(msg)):
        beta_matrix("H", 3, 1)


def test_memoized_beta_matrix_matches_fresh_builds_and_is_bounded():
    beta_matrix.cache_clear()
    betas = (*verify.DEFAULT_BETAS, Q(0), Q(5, 7), Q(-3, 2))
    keys = [(kind, n, beta) for kind in "GHAT" for n in range(1, 9) for beta in betas]
    for key in keys:
        cached = beta_matrix(*key)
        assert beta_matrix(*key) is cached
        assert beta_matrix.__wrapped__(*key) == cached
    info = beta_matrix.cache_info()
    assert (info.maxsize, info.currsize) == (128, 128) < (len(keys), len(keys))
    # the oldest keys were dropped, the newest kept
    assert beta_matrix.__wrapped__(*keys[0]) == beta_matrix(*keys[0])
    assert beta_matrix.cache_info().misses == len(keys) + 1


_A = Series.from_poly([1, 1], 6)

BAD_ORDER_CALLS = {
    "t_poly": ("n", lambda k: t_poly(k, 1, 1)),
    "beta_alpha_closed": ("n", lambda k: beta_alpha_closed(k, 1)),
    "beta_phi_closed": ("n", lambda k: beta_phi_closed(k, 1)),
    "gen_binomial_series": ("order", lambda k: gen_binomial_series(1, 1, k)),
    "u_polys": ("top", lambda k: u_polys(_A, k)),
    "gen_lagrange_series": ("order", lambda k: gen_lagrange_series(_A, 1, k)),
    "q_series-n": ("n", lambda k: q_series(_A, k, 3)),
    "q_series-order": ("order", lambda k: q_series(_A, 1, k)),
    "beta_matrix-H": ("n", lambda k: beta_matrix("H", k, 1)),
    "beta_matrix-X": ("n", lambda k: beta_matrix("X", k)),
    "beta_matrix-unknown": ("n", lambda k: beta_matrix("Z", k, 1)),
    "table_row": ("order", lambda k: table_row(_A, _A, 1, 1, 1, k)),
}


@pytest.mark.parametrize("name", BAD_ORDER_CALLS)
def test_bad_order_is_a_domain_error(name):
    arg, call = BAD_ORDER_CALLS[name]
    for bad in (-1, 2.0, Q(2)):
        pattern = r"^%s must be a (nonnegative|positive) integer, got %s$" % (
            arg, re.escape(repr(bad)))
        with pytest.raises(DomainError, match=pattern):
            call(bad)
