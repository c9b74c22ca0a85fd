"""Every kernel against the exact references of ``tests/reference.py``.

One table, one test.  A row names a kernel, an input regime and an order
(a length, a size or an n), and its test id is "kernel-regime-order".  The
row draws its inputs from ``reference.draw`` with a generator seeded by
that id, runs the library and the reference on them, and yields
(label, got, want) triples; a failure reports the label and the first
difference as ``fps._mismatch`` words it.  A change that replaces a
kernel adds rows here, not another reference.
"""

import random
from fractions import Fraction as Q

import pytest

import reference as ref
from riordan import exact, genlagrange, numerator, verify
from riordan.arrays import EXPONENTIAL, ORDINARY, SQUARE, RiordanArray
from riordan.fps import DomainError, Poly, RangeError, Series, _convolve, _mismatch
from riordan.genlagrange import beta_alpha_closed, beta_matrix, beta_phi_closed
from riordan.matrix import FinMatrix
from riordan.numerator import core_matrix, euler_numerator, exp_matrix, narayana_numerator

FIRSTS = (1, -1, 2, -3, Q(-3, 2), Q(5, 7), Q(1, 2 ** 61 - 1))
EXPONENTS = (Q(1, 2), Q(-1, 3), Q(5, 2), Q(3, 7))
MATRIX_KINDS = ("int", "small", "sparse", "coprime")
BETAS = verify.DEFAULT_BETAS + (Q(0), Q(5, 7), Q(-3, 2))
PAIRS = 10  # seeded (b, a) per extraction row
BATCH_PAIRS = 3  # seeded (b, a) per batch row, each read at every n <= top
SINGLE = {"euler": euler_numerator, "narayana": narayana_numerator}


def _fit(coeffs, order):
    """``coeffs`` cut or padded with zeros to exactly order + 1 entries."""
    return (coeffs + [Q(0)] * (order + 1))[: order + 1]


def _bounded(poly):
    """A Poly with its bound, which Poly equality does not compare."""
    return poly.bound, poly


def _linear(rng):
    return Q(rng.choice([1, -1, 2, -3]), rng.randint(1, 3))


# -- series kernels ----------------------------------------------------------------


def _product(rng, kind, length):
    """Series, Poly and list products of a ``kind`` operand of ``length``
    coefficients and an operand of any kind, as long or of 0..70
    coefficients, read through n below, at and above the product's length."""
    a = ref.draw(rng, kind, length)
    b = ref.draw(rng, rng.choice(ref.KINDS + ("h",)),
                 length if rng.random() < 0.5 else rng.randint(0, 70))
    full = max(len(a) + len(b) - 1, 1)
    for n in (max(full - 1 - rng.randint(1, full), 0), full - 1, full - 1 + rng.randint(1, 5)):
        want = ref.product(a, b, n)
        na, nb = n, n + rng.choice((0, 0, rng.randint(1, 6)))
        if rng.random() < 0.5:
            na, nb = nb, na
        yield ("Series * Series at orders %d, %d" % (na, nb),
               Series(_fit(a, na), na) * Series(_fit(b, nb), nb), Series(want, n))
        if a and b:
            yield "_convolve through x^%d" % n, _convolve(a, b, n), want
    ba = max(len(a) - 1, 0) + rng.choice((0, 0, 3))
    bb = max(len(b) - 1, 0) + rng.choice((0, 0, 2))
    yield ("Poly * Poly at bounds %d, %d" % (ba, bb), _bounded(Poly(a, ba) * Poly(b, bb)),
           _bounded(Poly(ref.product(a, b, ba + bb), ba + bb)))


def _inverse(rng, kind, order):
    c = [Q(rng.choice(FIRSTS))] + ref.draw(rng, kind, order)
    yield "1/c with c(0) = %s" % c[0], Series(c).inverse(), Series(ref.inverse(c))


def _exp(rng, kind, order):
    c = [Q(0)] + ref.draw(rng, kind, order)
    yield "exp", Series(c).exp(), Series(ref.exp(c))


def _log(rng, kind, order):
    c = [Q(1)] + ref.draw(rng, kind, order)
    yield "log", Series(c).log(), Series(ref.log(c))


def _pow(rng, kind, order):
    """All of EXPONENTS through order 40 off "h", one of them beyond."""
    c = [Q(1)] + ref.draw(rng, kind, order)
    exponents = EXPONENTS if kind != "h" and order <= 40 else [rng.choice(EXPONENTS)]
    for e, want in zip(exponents, ref.powers(c, exponents)):
        yield "pow %s" % e, Series(c).pow(e), Series(want)


def _compose_pairs(rng, kind, order):
    """(f, g) coefficient lists: both of ``kind``, or for "shapes" the
    zero f, g = x, a sparse g and orders that differ by 1..6 either way."""
    if kind != "shapes":
        return [(ref.draw(rng, kind, order + 1), [Q(0)] + ref.draw(rng, kind, order))]
    f = ref.draw(rng, "small", order + 1)
    longer = order + rng.randint(1, 6)
    g = [Q(0)] + ref.draw(rng, rng.choice(("small", "int")), longer)
    return [([Q(0)] * (order + 1), [Q(0)] + ref.draw(rng, "small", order)),
            (f, _fit([Q(0), Q(1)], order)),
            (f, [Q(0)] + ref.draw(rng, "sparse", order)),
            (f, g),
            (ref.draw(rng, "small", longer + 1), g[: order + 1])]


def _compose(rng, kind, order):
    for f, g in _compose_pairs(rng, kind, order):
        yield ("f(g) at orders %d, %d" % (len(f) - 1, len(g) - 1),
               Series(f).compose(Series(g)), Series(ref.compose(f, g)))


def _reversion(rng, kind, order):
    g = [Q(0), _linear(rng)] + ref.draw(rng, kind, order - 1)
    yield "reversion", Series(g).reversion(), Series(ref.reversion(g))


# -- matrices, arrays and numerators ---------------------------------------------------


def _matrix(rng, kind, rows, cols):
    """A rows x cols matrix of ``kind``, drawn as one list, so that
    "coprime" denominators are pairwise coprime over the whole matrix."""
    flat = ref.draw(rng, kind, rows * cols)
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def _matmul_pairs(rng, kind, size):
    if kind != "special":
        m, k = rng.randint(1, 7), rng.randint(1, 7)
        return [(_matrix(rng, kind, size, m), _matrix(rng, rng.choice(MATRIX_KINDS), m, k))]
    ident = FinMatrix.identity(size).data
    return [([[Q(3, 4)]], [[Q(-2, 9)]]),
            (ident, _matrix(rng, "small", size, size)),
            (_matrix(rng, "coprime", size, size), ident),
            (FinMatrix.zeros(2, size).data, _matrix(rng, "small", size, 2))]


def _matmul(rng, kind, size):
    for a, b in _matmul_pairs(rng, kind, size):
        want = ref.matmul(a, b)
        shape = "%dx%d by %dx%d" % (len(a), len(a[0]), len(b), len(b[0]))
        yield "product %s" % shape, FinMatrix(a) * FinMatrix(b), FinMatrix(want)
        vec = [row[0] for row in b]
        yield ("apply %s" % shape, _bounded(FinMatrix(a).apply(Poly(vec, len(vec) - 1))),
               _bounded(Poly([row[0] for row in want], len(a) - 1)))


def _matinv(rng, kind, size):
    """A seeded invertible matrix of ``kind`` plus a scaled permutation
    matrix, so that sparse and zero draws need row swaps."""
    while True:
        a = _matrix(rng, kind, size, size)
        for i, j in enumerate(rng.sample(range(size), size)):
            a[i][j] += rng.choice((1, -1, 2, Q(-3, 2)))
        want = ref.matinv(a)
        if want is not None:
            yield "inverse", FinMatrix(a).inverse(), FinMatrix(want)
            return


def _row(rng, flavor, order):
    f, g = (ref.draw_pair if flavor == SQUARE else ref.draw_proper)(rng, order)
    arr = RiordanArray(Series(f), Series(g), flavor)
    for n in range(order + 1):
        yield "row %d" % n, arr.row(n), tuple(ref.array_row(f, g, n, flavor))


def _rows(rng, flavor, top):
    """Rows first..top of one walk, for first = 0, a first in between and
    first = top, each at widths 1, top + 1 and 2*top + 2."""
    f, g = (ref.draw_pair if flavor == SQUARE else ref.draw_proper)(rng, top)
    arr = RiordanArray(Series(f), Series(g), flavor)
    for first in sorted({0, (top + 1) // 2, top}):
        for width in sorted({1, top + 1, 2 * top + 2}):
            rows = arr.rows(first, top, width)
            where = "first=%d width=%d" % (first, width)
            yield "%s: number of rows" % where, len(rows), top - first + 1
            for n, row in enumerate(rows, first):
                yield ("%s: row %d" % (where, n), row,
                       tuple(ref.array_row(f, g, n, flavor, width)))


def _extraction(extract, reference):
    """Rows for an extraction: ``PAIRS`` seeded (b, a) of order exactly n."""
    def rows(rng, kind, n):
        for _ in range(PAIRS):
            b, a = ref.draw_pair(rng, n)
            yield ("b = %s, a = %s" % ([str(v) for v in b], [str(v) for v in a]),
                   _bounded(extract(Series(b), Series(a), n).poly),
                   _bounded(Poly(reference(b, a, n), n)))
    return rows


def _batch(kind, reference):
    """Rows for a batch: every n <= top of ``numerator._numerators`` on
    ``BATCH_PAIRS`` seeded (b, a) of order exactly top, against the
    reference and against the single-n call."""
    def rows(rng, regime, top):
        for _ in range(BATCH_PAIRS):
            b, a = ref.draw_pair(rng, top)
            where = "b = %s, a = %s" % ([str(v) for v in b], [str(v) for v in a])
            batch = numerator._numerators(Series(b), Series(a), 0, top, kind)
            yield "%s: batch size" % where, len(batch), top + 1
            for n, result in enumerate(batch):
                yield ("%s n=%d" % (where, n), _bounded(result.poly),
                       _bounded(Poly(reference(b, a, n), n)))
                yield ("%s n=%d single" % (where, n),
                       repr(SINGLE[kind](Series(b), Series(a), n)), repr(result))
    return rows


def _raised(call, *args):
    """The type and message of the DomainError or RangeError that
    call(*args) raises, or None."""
    try:
        call(*args)
    except (DomainError, RangeError) as err:
        return type(err).__name__, str(err)
    return None


def _batch_errors(rng, regime, top):
    """A batch from n = 0 raises the typed error of the single call at top:
    RangeError for series of order top - 1, DomainError for b(0) = 0."""
    b, a = ref.draw_pair(rng, top)
    short = Series(b[:top]), Series(a[:top])
    zero_b = Series([Q(0)] + b[1:]), Series(a)
    for kind, single in SINGLE.items():
        for what, (bs, as_), want in (
                ("order %d" % (top - 1), short,
                 ("RangeError", "series order must be at least n = %d" % top)),
                ("b(0) = 0", zero_b, ("DomainError", "weight series needs b(0) != 0"))):
            yield ("%s batch 0..%d, %s" % (kind, top, what),
                   _raised(numerator._numerators, bs, as_, 0, top, kind), want)
            yield "%s n=%d, %s" % (kind, top, what), _raised(single, bs, as_, top), want


# -- connection matrices and closed forms ----------------------------------------------

CONNECTION = {"U": (lambda n: core_matrix("U", n), ref.u_matrix),
              "Uinv": (lambda n: core_matrix("Uinv", n), ref.uinv_matrix),
              "F": (lambda n: exp_matrix("F", n), ref.f_matrix),
              "Finv": (lambda n: exp_matrix("Finv", n), ref.finv_matrix)}


def _connection(rng, kind, n):
    build, reference = CONNECTION[kind]
    yield kind, build(n), FinMatrix(reference(n))


def _eulerian(rng, kind, n):
    yield "A_%d" % n, _bounded(exact.eulerian_poly(n)), _bounded(Poly(ref.eulerian(n), n))


def _binom(rng, kind, k):
    for _ in range(60):
        phi = Q(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 10, 2 ** 61 - 1]))
        yield "binom(%s, %d)" % (phi, k), exact.binom(phi, k), ref.binom(phi, k)


def _closed_forms(rng, kind, n):
    for beta in BETAS:
        for name, closed in (("G", ref.g_closed), ("H", ref.h_closed),
                             ("A", ref.a_closed), ("T", ref.t_closed)):
            yield ("%s beta=%s" % (name, beta), beta_matrix(name, n, beta),
                   FinMatrix(closed(n, beta)))
        yield ("G band beta=%s" % beta, genlagrange._band_closed(n, 0, n * beta),
               FinMatrix(ref.g_closed(n, beta)))
        for name, got, closed in (("alpha", beta_alpha_closed, ref.alpha_closed),
                                  ("phi", beta_phi_closed, ref.phi_closed)):
            yield ("%s beta=%s" % (name, beta), _bounded(got(n, beta)),
                   _bounded(Poly(closed(n, beta), n)))


# -- the table ---------------------------------------------------------------------------

KERNELS = {
    "product": _product, "inverse": _inverse, "exp": _exp, "log": _log, "pow": _pow,
    "compose": _compose, "reversion": _reversion, "matmul": _matmul, "matinv": _matinv,
    "row": _row, "rows": _rows, "euler": _extraction(euler_numerator, ref.euler),
    "narayana": _extraction(narayana_numerator, ref.narayana),
    "numerators-euler": _batch("euler", ref.euler),
    "numerators-narayana": _batch("narayana", ref.narayana),
    "numerators-errors": _batch_errors, "connection": _connection,
    "eulerian": _eulerian, "binom": _binom, "closed-forms": _closed_forms,
}

LENGTHS = (0, 1, 2, 3, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70)
# the two regimes of the series_kernel benchmark, "small" and "int", also
# run at its orders 16, 32 and 64 (products of lengths 17, 33 and 65)
SERIES_ORDERS = {"small": (*range(41), 64), "int": (*range(41), 64), "zero": range(41),
                 "sparse": range(41), "coprime": range(11), "h": range(49)}
TABLE = [
    *[("product", kind, LENGTHS + (17, 33, 65) if kind in ("small", "int") else LENGTHS)
      for kind in ref.KINDS],
    ("product", "h", range(49)),
    *[(kernel, kind, orders) for kernel in ("inverse", "exp", "log")
      for kind, orders in SERIES_ORDERS.items()],
    *[("pow", kind, range(7) if kind == "coprime" else orders)
      for kind, orders in SERIES_ORDERS.items()],
    *[("compose", kind, range(71)) for kind in ("small", "int", "zero", "sparse", "shapes")],
    ("compose", "coprime", range(13)),
    ("compose", "h", range(49)),
    ("reversion", "small", range(1, 41)),
    ("reversion", "sparse", range(1, 41)),
    ("reversion", "int", (16, 32)),
    ("reversion", "h", range(1, 33)),
    *[("matmul", kind, range(1, 8)) for kind in MATRIX_KINDS + ("special",)],
    *[("matinv", kind, range(1, 8)) for kind in MATRIX_KINDS + ("zero",)],
    *[("row", flavor, (0, 1, 2, 3, 5, 8, 12)) for flavor in (ORDINARY, EXPONENTIAL, SQUARE)],
    *[("rows", flavor, (0, 1, 2, 3, 5, 8, 12)) for flavor in (ORDINARY, EXPONENTIAL, SQUARE)],
    ("euler", "pairs", range(9)),
    ("narayana", "pairs", range(9)),
    ("numerators-euler", "pairs", range(13)),
    ("numerators-narayana", "pairs", range(13)),
    ("numerators-errors", "typed", range(1, 13)),
    ("connection", "U", range(33)),
    ("connection", "Uinv", range(33)),
    ("connection", "F", range(1, 33)),
    ("connection", "Finv", range(1, 33)),
    ("eulerian", "recurrence", range(21)),
    ("binom", "seeded", range(16)),
    ("closed-forms", "betas", range(1, 11)),
]


@pytest.mark.parametrize("kernel, regime, order", [
    pytest.param(kernel, regime, order, id="%s-%s-%d" % (kernel, regime, order))
    for kernel, regime, orders in TABLE for order in orders])
def test_kernel_matches_reference(kernel, regime, order):
    rng = random.Random("%s-%s-%d" % (kernel, regime, order))
    for label, got, want in KERNELS[kernel](rng, regime, order):
        diff = _mismatch(got, want)
        assert diff is None, "%s: %s" % (label, diff)
