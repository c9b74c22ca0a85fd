import random
import re
from fractions import Fraction as Q
from math import factorial

import pytest

import reference as ref
from riordan import arrays, exact, numerator, verify
from riordan.cli import CORE_KINDS, EXP_KINDS
from riordan.fps import ConsistencyError, DomainError, Poly, RangeError, Series
from riordan.genlagrange import gen_binomial_series
from riordan.matrix import FinMatrix
from riordan.numerator import (NumeratorResult, W_matrix, alpha_poly,
                               core_matrix, euler_numerator, exp_matrix,
                               narayana_numerator, phi_poly, shift_matrix,
                               strided_matrix, tilde_matrix)


def geo(order):
    return Series.geometric(order)


def test_euler_numerator_exponential_series():
    ex = Series.x(12).exp()
    got = euler_numerator(Series.one(12), ex, 3)
    assert got.poly == Q(1, 6) * Poly([0, 1, 4, 1])
    assert got.residual_checked == 4
    got4 = euler_numerator(Series.one(12), ex, 4)
    assert got4.poly == Q(1, 24) * Poly([0, 1, 11, 11, 1])


def test_euler_numerator_pascal_is_one():
    for n in range(7):
        assert euler_numerator(geo(16), geo(16), n).poly == Poly([1])


def test_euler_numerator_mobius_example():
    order = 10
    a = Series.from_poly([1, 1], order) / Series.from_poly([1, -1], order)
    got = euler_numerator(Series.one(order), a, 3)
    assert got.poly == Poly([0, 2, 4, 2])


def test_euler_numerator_preconditions():
    with pytest.raises(DomainError):
        euler_numerator(Series.one(12), Series.from_poly([2, 1], 12), 2)
    with pytest.raises(DomainError):
        euler_numerator(Series.zero(12), geo(12), 2)


def _pair(rng, order):
    """A seeded weight b (b(0) != 0) and column series a (a(0) = 1)."""
    b, a = ref.draw_pair(rng, order)
    return Series(b, order), Series(a, order)


def test_extraction_at_order_n_matches_order_4n_plus_2():
    rng = random.Random(20251019)
    for extract in (euler_numerator, narayana_numerator):
        for n in range(8):
            b, a = _pair(rng, 4 * n + 2)
            assert extract(b.truncate(n), a.truncate(n), n) == extract(b, a, n)


def test_extraction_below_order_n_is_range_error():
    for extract in (euler_numerator, narayana_numerator):
        for n in range(1, 6):
            with pytest.raises(RangeError, match="at least n = %d" % n):
                extract(geo(n - 1), geo(n - 1), n)
            with pytest.raises(RangeError):
                extract(Series.one(n), geo(n - 1), n)
            with pytest.raises(RangeError):
                extract(geo(n - 1), geo(n), n)


def test_coefficients_beyond_x_n_change_nothing():
    rng = random.Random(17)
    for extract in (euler_numerator, narayana_numerator):
        for n in range(7):
            b, a = _pair(rng, 2 * n + 3)
            other_b, other_a = _pair(rng, 2 * n + 3)
            b2 = Series(b.coeffs[: n + 1] + other_b.coeffs[n + 1:], b.order)
            a2 = Series(a.coeffs[: n + 1] + other_a.coeffs[n + 1:], a.order)
            assert b2 != b and a2 != a
            assert extract(b2, a2, n) == extract(b, a, n)


def test_extractions_match_the_connection_matrix_routes():
    """Euler is Vinv(n) on row n of (b, a-1); Narayana is (2n)!/n! times
    the degree <= n part of U(2n) on the Sheffer row of (b, log a) lifted
    by (x+1)...(x+n)."""
    rng = random.Random(2210)
    for n in range(11):
        b, a = _pair(rng, n)
        row = Poly(arrays.RiordanArray(b, a - 1).row(n), n)
        got = euler_numerator(b, a, n).poly
        assert got.coeffs == core_matrix("Vinv", n).apply(row).coeffs
        s = arrays.RiordanArray(b, a.log(), arrays.EXPONENTIAL).sheffer_row(n)
        lifted = (exact.rising_from(1, n) * s).with_bound(2 * n)
        low = Poly(core_matrix("U", 2 * n).apply(lifted).coeffs[: n + 1], n)
        got = narayana_numerator(b, a, n).poly
        assert got.coeffs == (Q(factorial(2 * n), factorial(n)) * low).coeffs


@pytest.mark.parametrize("call, args", [
    (euler_numerator, (geo(16), geo(16), -1)),
    (euler_numerator, (geo(16), geo(16), 2.0)),
    (euler_numerator, (Series.one(1), geo(1), 2.0)),  # before the RangeError
    (narayana_numerator, (geo(16), geo(16), -1)),
    (narayana_numerator, (geo(16), geo(16), 2.0)),
    (alpha_poly, (geo(16), 2.0)),
    (phi_poly, (geo(16), 2.0)),
    (W_matrix, (2.0, 2)),
    (W_matrix, (2, 2.0)),
    (strided_matrix, (geo(16), 2.0, 2)),
    (arrays.RiordanArray(geo(8), Series.x(8)).row, (-1,)),
    (arrays.RiordanArray(geo(8), Series.x(8)).row, (2.0,)),
    (shift_matrix, (1, 0)),
    (shift_matrix, (1, -1)),
    (shift_matrix, (1, 2.0)),
])
def test_bad_n_is_domain_error(call, args):
    with pytest.raises(DomainError):
        call(*args)


def _entry_1_off_by_one(flavor):
    """``RiordanArray.rows`` with entry 1 of each row it returns off by one
    for an array of ``flavor``, and as it is for the other flavors."""
    real = arrays.RiordanArray.rows

    def wrong(self, first, top, width):
        rows = real(self, first, top, width)
        if self.flavor != flavor:
            return rows
        return [row[:1] + (row[1] + 1,) + row[2:] for row in rows]
    return wrong


# the route, n and the first coefficient that differs
_RESIDUAL = (r"^numerator against the \(1-x\)\^%d residual window .*"
             r"\(n=%d\): coefficient %d: ")


def test_euler_numerator_catches_one_wrong_route(monkeypatch):
    one_plus_x = Series.from_poly([1, 1], 12)
    want = euler_numerator(one_plus_x, geo(12), 3)
    for flavor, values in ((arrays.ORDINARY, "got 2, want 3"),  # row 3 of (b, a-1)
                           (arrays.SQUARE, "got 3, want 2")):  # the residual's row
        with monkeypatch.context() as m:
            m.setattr(arrays.RiordanArray, "rows", _entry_1_off_by_one(flavor))
            with pytest.raises(ConsistencyError, match=_RESIDUAL % (4, 3, 1) + values):
                euler_numerator(one_plus_x, geo(12), 3)
    assert euler_numerator(one_plus_x, geo(12), 3) == want


def test_narayana_numerator_catches_one_wrong_route(monkeypatch):
    want = narayana_numerator(Series.one(14), geo(14), 3)
    with monkeypatch.context() as m:  # the Sheffer row lifted through U
        m.setattr(arrays.RiordanArray, "rows", _entry_1_off_by_one(arrays.EXPONENTIAL))
        with pytest.raises(ConsistencyError,
                           match=_RESIDUAL % (7, 3, 1) + "got 24, want 28"):
            narayana_numerator(Series.one(14), geo(14), 3)
    with monkeypatch.context() as m:  # the residual from row 3 of the square array
        m.setattr(arrays.RiordanArray, "rows", _entry_1_off_by_one(arrays.SQUARE))
        with pytest.raises(ConsistencyError,
                           match=_RESIDUAL % (7, 3, 1) + "got 48, want 24"):
            narayana_numerator(Series.one(14), geo(14), 3)
    assert narayana_numerator(Series.one(14), geo(14), 3) == want


def test_narayana_numerator_examples():
    assert narayana_numerator(Series.one(10), geo(10), 2).poly == Poly([0, 6, 6])
    cat = gen_binomial_series(2, 1, 14)
    assert narayana_numerator(Series.one(14), cat, 3).poly == Poly([0, 120])
    one_plus_x = Series.from_poly([1, 1], 14)
    got = narayana_numerator(one_plus_x, one_plus_x, 3)
    assert got.poly == Poly([0, 0, 60, 60])
    assert got.residual_checked == 4


def test_alpha_and_phi_families():
    for n in range(1, 7):
        assert alpha_poly(geo(16), n) == Poly([0, 1])
        assert alpha_poly(Series.from_poly([1, 1], 16), n) == Poly.monomial(n)
    assert phi_poly(geo(12), 2) == Poly([0, 6, 6])


def test_core_matrix_fixtures():
    assert core_matrix("U", 2) == FinMatrix(
        [[1, 0, 0], [-2, 1, 1], [1, -1, 1]]) * Q(1, 2)
    assert core_matrix("Uinv", 3) == FinMatrix(
        [[6, 0, 0, 0], [11, 2, -1, 2], [6, 3, 0, -3], [1, 1, 1, 1]])
    assert core_matrix("V", 3) == FinMatrix(
        [[1, 0, 0, 0], [3, 1, 0, 0], [3, 2, 1, 0], [1, 1, 1, 1]])


def test_core_matrix_inverse_pairs():
    for n in range(0, 9):
        size = n + 1
        assert core_matrix("U", n) * core_matrix("Uinv", n) == FinMatrix.identity(size)
        assert core_matrix("V", n) * core_matrix("Vinv", n) == FinMatrix.identity(size)
        j = core_matrix("J", n)
        assert j * j == FinMatrix.identity(size)


def test_v_action_is_mobius_substitution():
    # V c(x) = (1+x)^n c(x/(1+x))
    rng = random.Random(41)
    for n in range(1, 7):
        c = Poly([Q(rng.randint(-3, 3)) for _ in range(n + 1)], n)
        got = core_matrix("V", n).apply(c)
        want = Poly.zero(n)
        for k, ck in enumerate(c.coeffs):
            want = want + ck * Poly.monomial(k) * Poly([1, 1]) ** (n - k)
        assert got == want.with_bound(n)


def test_shift_matrix_is_taylor_shift():
    rng = random.Random(43)
    for n in range(1, 6):
        c = Poly([Q(rng.randint(-4, 4)) for _ in range(n + 1)], n)
        phi = Q(rng.randint(-3, 3), rng.randint(1, 3))
        got = shift_matrix(phi, n + 1).apply(c)
        want = Poly.zero(n)
        for k, ck in enumerate(c.coeffs):
            want = want + ck * Poly([phi, 1]) ** k
        assert got == want.with_bound(n)


def test_exp_matrix_fixtures():
    assert exp_matrix("F", 2) == FinMatrix([[1, 0, 0], [-2, 3, 3], [1, -3, 9]])
    assert exp_matrix("S", 3) == FinMatrix(
        [[1, 0, 0, 0], [9, 4, 0, 0], [9, 12, 10, 0], [1, 4, 10, 20]]) * 6
    assert exp_matrix("Sinv", 2) == FinMatrix(
        [[6, 0, 0], [-8, 2, 0], [3, -1, 1]]) * Q(2, 24)
    for n in range(1, 8):
        assert exp_matrix("F", n) * exp_matrix("Finv", n) == FinMatrix.identity(n + 1)


def test_tilde_matrix_fixtures():
    assert tilde_matrix("Ut", 4) == FinMatrix(
        [[1, 1, 1, 1], [-3, -1, 3, 11], [3, -1, -3, 11], [-1, 1, -1, 1]]) * Q(1, 24)
    assert tilde_matrix("Utinv", 4) == FinMatrix(
        [[6, -2, 2, -6], [11, -1, -1, 11], [6, 2, -2, -6], [1, 1, 1, 1]])
    assert tilde_matrix("Ft", 4) == FinMatrix(
        [[1, 1, 1, 1], [-3, 3, 15, 39], [3, -9, 9, 171], [-1, 5, -25, 125]]) * 5
    for n in range(1, 8):
        assert (tilde_matrix("Ut", n) * tilde_matrix("Utinv", n)
                == FinMatrix.identity(n))
        assert (tilde_matrix("Ft", n) * tilde_matrix("Ftinv", n)
                == FinMatrix.identity(n))


def test_tilde_matrices_match_their_closed_forms():
    # the tilde companions are built as strips of their parents; these are
    # their closed forms, acting on numerators with the leading x removed
    one_minus_x = Poly([1, -1])
    for n in range(1, 9):
        ut = [Q(1, factorial(n)) * one_minus_x ** (n - 1 - p)
              * exact.eulerian_poly(p + 1).div_x() for p in range(n)]
        utinv = [exact.falling_from(-1, p) * exact.rising_from(1, n - p - 1)
                 for p in range(n)]
        ftinv = [Q(factorial(n), factorial(2 * n)) * exact.falling_from(-1, p)
                 * exact.rising_from(n + 1, n - p - 1) for p in range(n)]
        vt = [Poly.monomial(p) * Poly([1, 1]) ** (n - 1 - p) for p in range(n)]
        assert tilde_matrix("Ut", n) == FinMatrix.from_columns(ut, n)
        assert tilde_matrix("Utinv", n) == FinMatrix.from_columns(utinv, n)
        assert tilde_matrix("Ftinv", n) == FinMatrix.from_columns(ftinv, n)
        assert tilde_matrix("Vt", n) == FinMatrix.from_columns(vt, n)
        assert tilde_matrix("Ct", n) == FinMatrix.diag(
            [Q(factorial(n + p + 1), factorial(p + 1)) for p in range(n)])


def test_ftinv_product_representation():
    # (x+n) Ftinv is E^{-1} Finv restricted to the leading n columns
    for n in range(2, 7):
        shifted = shift_matrix(-1, n + 1) * exp_matrix("Finv", n)
        ftinv = tilde_matrix("Ftinv", n)
        for p in range(n):
            assert ftinv.column_poly(p) * Poly([n, 1]) == shifted.column_poly(p)


def test_tilde_s_factorization():
    for n in range(2, 7):
        vt = tilde_matrix("Vt", n)
        ct = tilde_matrix("Ct", n)
        assert tilde_matrix("St", n) == vt.inverse() * ct * vt


def test_strided_matrix_examples():
    cube = (Poly([1, 1]) ** 3).to_series(6)
    assert strided_matrix(cube, 2, 2) == FinMatrix([[3, 1], [1, 3]])
    quart = (Poly([1, 1]) ** 4).to_series(8)
    assert strided_matrix(quart, 2, 3) == FinMatrix(
        [[4, 1, 0], [4, 6, 4], [0, 1, 4]])
    rng = random.Random(47)
    a = Series([Q(rng.randint(-5, 5)) for _ in range(9)], 8)
    got = strided_matrix(a, 1, 4)
    for p in range(4):
        for j in range(4):
            assert got.entry(p, j) == (a.coeffs[p - j] if p >= j else 0)
    with pytest.raises(RangeError):
        strided_matrix(cube, 3, 2)


def test_w_matrix_fixtures_and_routes():
    assert W_matrix(3, 2) == FinMatrix([[4, 1, 0], [4, 6, 4], [0, 1, 4]])
    assert W_matrix(2, 3) == FinMatrix([[6, 3], [3, 6]])
    assert W_matrix(4, 4) == FinMatrix(
        [[35, 15, 5, 1], [155, 135, 101, 65], [65, 101, 135, 155], [1, 5, 15, 35]])
    assert W_matrix(3, 2) * W_matrix(3, 2) == W_matrix(3, 4)


def _only_equal_pairs(pairs, order_x):
    """The generator yielded one pair per point of _t_points, all equal."""
    pairs = list(pairs)
    assert [t0 for t0, _, _ in pairs] == verify._t_points(order_x + 1)
    return all(got == want for _, got, want in pairs)


def test_alpha_gf_check_trivial_and_families():
    order = 2 * 8 + 2
    recip = Series.one(order) / Series.from_poly([1, 1, 1], order)
    for a, order_x in ((Series.one(14), 4), (geo(16), 6), (recip, 8)):
        assert _only_equal_pairs(verify._alpha_gf(a, order_x), order_x)


def test_phi_gf_check_geometric():
    assert _only_equal_pairs(verify._phi_gf(geo(26), 6), 6)


def _perturbed(k, delta, kinds=("euler", "narayana")):
    """The batch ``numerator._numerators``, which the battery reads, with
    ``delta`` added to its n = k polynomial of each of ``kinds``."""
    def wrong(b, a, first, top, kind):
        out = numerator._numerators(b, a, first, top, kind)
        if kind in kinds and first <= k <= top:
            out[k - first] = out[k - first]._replace(poly=out[k - first].poly + delta)
        return out
    return wrong


def _vanishing_at(points):
    out = Poly.one()
    for t0 in points:
        out = out * Poly([-t0, 1])
    return out


# a low coefficient, the top coefficient t^6 of the k = 6 polynomial, and a
# degree-6 change that vanishes at all but one of the seven points checked
@pytest.mark.parametrize("k, delta", [
    (4, Poly.monomial(2)),
    (6, Poly.monomial(6)),
    (6, _vanishing_at(verify._t_points(6))),
], ids=["low", "top", "vanishing"])
def test_gf_checks_catch_a_wrong_numerator(monkeypatch, k, delta):
    monkeypatch.setattr(verify, "_numerators", _perturbed(k, delta))
    assert not _only_equal_pairs(verify._alpha_gf(geo(16), 6), 6)
    assert not _only_equal_pairs(verify._phi_gf(geo(26), 6), 6)


# ex2.3 reaches x^8: a low coefficient, and the top coefficient t^8 of alpha_8
@pytest.mark.parametrize("k, delta", [(3, Poly.monomial(1)), (8, Poly.monomial(8))],
                         ids=["low", "top"])
def test_ex23_catches_a_wrong_numerator(monkeypatch, k, delta):
    monkeypatch.setattr(verify, "_numerators", _perturbed(k, delta, ("euler",)))
    report = verify.run_suite("ex2.3")
    assert not report.ok
    first, second = report.results[0].detail.split("; ")[:2]
    # the delta vanishes at t = 0, so the first point to differ is t = -1
    assert first.startswith("generating identity t=-1: coefficient %d: got " % k)
    assert second.startswith("closed rational form at t=-1: coefficient %d: got " % k)


def test_ex32_names_the_point_and_index_of_a_wrong_phi(monkeypatch):
    # phi_8 lies past the phi_n comparisons, so only the identity sees it
    monkeypatch.setattr(verify, "_numerators",
                        _perturbed(8, Poly.monomial(8), ("narayana",)))
    detail = verify.run_suite("ex3.2").results[0].detail
    assert re.match(r"exponential generating identity t=-1: index 8: got [-\d/]+, "
                    r"want [-\d/]+; ", detail)


def test_eq1_names_the_trial_point_and_coefficient(monkeypatch):
    monkeypatch.setattr(verify, "_numerators", _perturbed(3, Poly.monomial(1), ("euler",)))
    detail = verify.run_suite("eq1").results[0].detail
    assert re.match(r"ordinary families trial=0 t=-1: coefficient 3: got [-\d/]+, "
                    r"want [-\d/]+; ", detail)
    assert detail.endswith(" more")


def test_numerator_result_shape():
    res = euler_numerator(Series.one(10), geo(10), 3)
    assert isinstance(res, NumeratorResult)
    assert res.poly.bound == 3
    assert res.residual_checked >= res.poly.bound


def test_records_are_immutable_named_tuples():
    assert NumeratorResult._fields == ("poly", "residual_checked")
    assert verify.CheckResult._fields == ("name", "passed", "detail")
    res = euler_numerator(Series.one(10), geo(10), 3)
    assert res == euler_numerator(Series.one(10), geo(10), 3)
    assert res != NumeratorResult(res.poly, res.residual_checked + 1)
    assert repr(NumeratorResult(1, 2)) == "NumeratorResult(poly=1, residual_checked=2)"
    ok = verify.CheckResult("eq1", True)
    assert ok.detail == ""
    assert repr(ok) == "CheckResult(name='eq1', passed=True, detail='')"
    for record, field in ((res, "poly"), (ok, "detail")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    report = verify.Report("eq1")
    assert (report.suite, report.results, report.ok, report.n_passed) == ("eq1", [], True, 0)
    report.results.extend([ok, verify.CheckResult("eq2", False, "n=1: got 0, want 1")])
    assert (report.ok, report.n_passed) == (False, 1)


def test_pseudo_involution_gives_self_reversed_phi():
    # (1, x/(1-x)) inverts to (1, x/(1+x)), i.e. substituting -x into the
    # column series; its exponential numerators then satisfy p = x*J(p)
    order = 26
    a = geo(order)
    inv_g = a.mul_x().truncate(order).reversion()
    minus = Series([c * Q(-1) ** k for k, c in enumerate(a.coeffs)], order)
    assert inv_g == minus.mul_x().truncate(order)
    for n in range(1, 6):
        p = phi_poly(a, n)
        assert p == (Poly([0, 1]) * p.reverse()).with_bound(n)


def test_vanishing_linear_coefficient_supported():
    # a1 = 0 drops degrees; the declared bound still carries the slot
    even = Series.from_poly([1, 0, 1], 16)
    for n in range(1, 5):
        g = euler_numerator(Series.one(16), even, n)
        assert g.poly.bound == n
        assert g.poly.eval(1) == 0  # b0 * a1^n with a1 = 0
    even_big = Series.from_poly([1, 0, 1], 2 * (2 * 3 + 1))
    h = narayana_numerator(Series.one(14), even_big, 3)
    assert h.poly.bound == 3
    assert h.poly.eval(1) == 0


_MEMOIZED = [(core_matrix, [(kind, n) for kind in CORE_KINDS for n in range(1, 9)]),
             (exp_matrix, [(kind, n) for kind in EXP_KINDS for n in range(1, 9)]),
             (tilde_matrix, [(kind, n) for kind in [*numerator._TILDE_PARENTS, "Jt", "Dt"]
                             for n in range(1, 9)]),
             (W_matrix, [(n, m) for n in range(1, 7) for m in range(1, 5)])]


def _clear_memos():
    for ctor, _ in _MEMOIZED:
        ctor.cache_clear()


def test_extractions_build_and_read_no_connection_matrix():
    b, a = _pair(random.Random(6), 6)
    _clear_memos()
    euler_numerator(b, a, 6)
    narayana_numerator(b, a, 6)
    for kind in ("euler", "narayana"):
        assert len(numerator._numerators(b, a, 0, 6, kind)) == 7
    assert [ctor.cache_info().currsize for ctor, _ in _MEMOIZED] == [0, 0, 0, 0]


def test_memoized_constructors_match_fresh_builds():
    for ctor, keys in _MEMOIZED:
        for args in keys:
            cached = ctor(*args)
            assert ctor(*args) is cached
            assert ctor.__wrapped__(*args) == cached


def test_memo_keys_are_typed():
    core_matrix("U", 2)
    for bad in (2.0, Q(2)):  # equal to 2 and hash alike, but not ints
        with pytest.raises(DomainError):
            core_matrix("U", bad)
    for ctor, args in ((exp_matrix, ("S", Q(2))), (tilde_matrix, ("Ut", 2.5)),
                       (exact.eulerian_poly, (2.0,))):
        with pytest.raises(DomainError):
            ctor(*args)


def test_memoized_self_check_runs_on_first_build(monkeypatch):
    real_binom = numerator.exact.binom
    _clear_memos()
    try:
        monkeypatch.setattr(numerator.exact, "binom",
                            lambda phi, k: real_binom(phi, k) + 1)
        for _ in range(2):  # a failed build is not memoized
            with pytest.raises(ConsistencyError) as err:
                exp_matrix("Sinv", 3)
            assert str(err.value) == ("Sinv: product against closed form (n=3): "
                                      "entry (0, 0): got 1/6, want 1/3")
        monkeypatch.setattr(numerator.exact, "binom", real_binom)
        assert exp_matrix("Sinv", 3) == exp_matrix("S", 3).inverse()
    finally:
        _clear_memos()
