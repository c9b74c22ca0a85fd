"""What the battery catches: one table of mutations.

Each row corrupts the output of one library function or verify helper
and names the battery checks that must then fail: every check that
fails at ``MAX_N``, except a slow one that a comment names, where a
faster named check already catches the mutant.  The mutant replaces the
name in every ``riordan`` module that holds it, since ``verify`` and
``genlagrange`` import their constructors with ``from ... import``, and
a method is replaced on its class.  ``RiordanArray.rows``, which every
route reads its rows from, is corrupted for one flavor at a time, so
each of its rows stands for one route.  Each named check runs alone at
``MAX_N``, through ``fps._mismatch`` as ``run_suite`` compares, and
stops at its first difference or at the first library error it raises.
The matrix memos of ``numerator`` and ``genlagrange.beta_matrix`` are
emptied around each row, so no matrix built by a mutant outlives it and
no clean one hides it.

Known mutants that no battery check can catch, so they have no row:

- ``fps._convolve`` with a slot margin of +1 instead of +2: the slots
  stay wide enough by the bound in the ``fps`` docstring, so the
  products stay exact (it passed all of tier-1 and the battery);
- ``RiordanArray.inverse``: no check inverts an array, and only the
  tier-1 tests in ``tests/test_arrays.py`` catch it, among them the
  inverse on both sides at orders 1 to 16 in both triangular flavors.
"""

import sys

import pytest

import riordan
from riordan import fps, genlagrange, numerator, verify
from riordan.arrays import EXPONENTIAL, ORDINARY, SQUARE
from riordan.fps import ConsistencyError, DomainError, Poly, RangeError, Series
from riordan.matrix import FinMatrix

MAX_N = 4
MEMOS = (numerator.core_matrix, numerator.exp_matrix, numerator.tilde_matrix,
         numerator.W_matrix, genlagrange.beta_matrix)


def _bump_entries(entries):
    """``entries`` as a list with 1 added to entry 1 (to entry 0 if that
    is its only one)."""
    entries = list(entries)
    entries[min(1, len(entries) - 1)] += 1
    return entries


def _bump(value):
    """A Poly or Series with 1 added to coefficient 1 (to coefficient 0
    if that is its only one)."""
    if isinstance(value, Series):
        return Series(_bump_entries(value.coeffs), value.order)
    return Poly(_bump_entries(value.coeffs), value.bound)


def _output(change):
    """The mutant that applies ``change`` to the original's result."""
    def mutate(original):
        return lambda *args, **kwargs: change(original(*args, **kwargs))
    return mutate


def _bump_all(first, rows):
    return [_bump_entries(row) for row in rows]


def _rows_of(flavor, change):
    """The mutant of ``RiordanArray.rows`` that applies change(first, rows)
    to the rows of an array of ``flavor`` alone."""
    def mutate(original):
        def rows(self, first, top, width):
            out = original(self, first, top, width)
            return change(first, out) if self.flavor == flavor else out
        return rows
    return mutate


ROWS = [
    # the one rational dot-product kernel: matrix products and apply,
    # compose's blocks and both extractions
    pytest.param("fps._dots", _output(lambda out: [[out[0][0] + 1] + out[0][1:]] + out[1:]),
                 ("fixtures", "thm2.1", "thm2.2", "thm2.3", "thm2.4", "thm3.1", "thm3.2",
                  "thm4.1", "thm4.2", "thm4.3", "thm4.4", "thm6.1", "thm6.2", "thm6.3",
                  "thm7.1", "thm7.2", "thm8.1", "thm8.2", "thm8.3", "thm9.1", "thm9.2",
                  "thm9.3", "thm9.4", "thm9.5", "ex2.1", "ex2.2", "ex2.3", "ex3.1", "ex3.2",
                  "ex4.1", "ex4.2", "ex4.3", "ex6.1", "ex7.1", "eq1", "eq2", "eq3",
                  "section5", "w-amazing", "col-sums"), id="dots"),
    pytest.param("numerator.alt_matrix", _output(lambda m: FinMatrix.identity(m.n_rows)),
                 ("thm2.1", "thm3.1", "thm8.1", "thm8.3"), id="alt_matrix"),
    pytest.param("genlagrange.beta_phi_closed", _output(_bump),
                 ("thm4.5", "thm9.5", "ex3.2", "eq3"), id="beta_phi_closed"),
    pytest.param("genlagrange.beta_alpha_closed", _output(_bump),
                 ("thm2.5", "thm9.3", "eq2"), id="beta_alpha_closed"),
    pytest.param("genlagrange.u_polys",
                 _output(lambda us: us[:1] + [_bump(u) for u in us[1:]]),
                 ("ex2.1", "ex2.2", "ex3.1", "ex6.1", "section5"), id="u_polys"),
    pytest.param("genlagrange.q_series", _output(_bump), ("section5",), id="q_series"),
    pytest.param("arrays.table_row", _output(_bump), ("section5",), id="table_row"),
    pytest.param("genlagrange.gen_lagrange_series", _output(_bump),
                 ("ex6.1", "section5"), id="gen_lagrange_series"),
    pytest.param("arrays.lagrange_pair", _output(_bump),
                 ("ex2.2", "section5"), id="lagrange_pair"),
    pytest.param("arrays.lagrange_pair", _output(lambda s: s.truncate(s.order // 2)),
                 ("ex2.2", "section5"), id="lagrange_pair-half-order"),
    # the exponential rows: the Sheffer rows of (b, log a), Narayana's value
    # route, and the u_n of (1, log a)
    pytest.param("arrays.RiordanArray.rows", _rows_of(EXPONENTIAL, _bump_all),
                 ("thm3.2", "thm4.1", "thm4.4", "ex2.1", "ex2.2", "ex3.1", "ex3.2",
                  "ex4.1", "ex4.2", "ex4.3", "ex6.1", "ex7.1", "eq1", "eq3", "section5"),
                 id="sheffer_row"),
    # the ordinary rows: Euler's value route, the rows of (b, a-1)
    pytest.param("arrays.RiordanArray.rows", _rows_of(ORDINARY, _bump_all),
                 ("fixtures", "thm2.2", "thm2.3", "thm4.1", "ex2.1", "ex2.2", "ex2.3",
                  "ex4.1", "ex4.2", "ex4.3", "ex6.1", "eq1", "eq2"), id="euler_rows"),
    # section5 also fails, after 0.35 s
    pytest.param("fps.xdlog", _output(_bump),
                 ("fixtures", "ex3.1", "ex4.2", "ex4.3", "ex6.1", "ex7.1"),
                 id="xdlog-coefficient-1"),
    # section5 also fails, after about 1 s
    pytest.param("fps.xdlog",
                 _output(lambda s: Series(s.coeffs[:-1] + (s.coeffs[-1] + 1,), s.order)),
                 ("ex4.2", "ex4.3", "ex6.1", "ex7.1"), id="xdlog-top-coefficient"),
    pytest.param("matrix.FinMatrix.inverse", _output(lambda m: 2 * m),
                 ("fixtures", "thm4.3", "thm9.2", "w-amazing"), id="FinMatrix.inverse"),
    pytest.param("exact._window", _output(_bump),
                 ("fixtures", "thm2.1", "thm2.2", "thm2.3", "thm2.4", "thm3.1", "thm3.2",
                  "thm4.1", "thm4.2", "thm4.3", "thm4.4", "thm6.1", "thm6.2", "thm6.3",
                  "thm7.1", "thm7.2", "thm8.1", "thm8.2", "thm8.3", "thm9.1", "thm9.2",
                  "thm9.3", "thm9.4", "thm9.5", "ex2.1", "ex2.2", "ex2.3", "ex3.1", "ex3.2",
                  "ex4.1", "ex4.2", "ex4.3", "ex6.1", "ex7.1", "eq1", "eq2", "eq3",
                  "w-amazing", "col-sums"), id="window"),
    # the square rows: the residual route of both extractions, which stays
    # off the window, and every n of a batch reads its slice of
    pytest.param("arrays.RiordanArray.rows", _rows_of(SQUARE, _bump_all),
                 ("thm2.2", "thm2.3", "thm3.2", "thm4.1", "thm4.4", "ex2.1", "ex2.2",
                  "ex2.3", "ex3.1", "ex3.2", "ex4.1", "ex4.2", "ex4.3", "ex6.1", "ex7.1",
                  "eq1", "eq2", "eq3"), id="square_row"),
    # n = 3's square row alone, [x^3] b*a^m
    pytest.param("arrays.RiordanArray.rows",
                 _rows_of(SQUARE, lambda first, rows: [
                     _bump_entries(r) if n == 3 else r for n, r in enumerate(rows, first)]),
                 ("thm2.2", "thm2.3", "thm3.2", "thm4.1", "thm4.4", "ex2.1", "ex2.2",
                  "ex2.3", "ex3.1", "ex3.2", "ex4.1", "ex4.2", "ex4.3", "ex6.1", "ex7.1",
                  "eq1", "eq2", "eq3"), id="square_walk-one-n"),
    pytest.param("verify._reduce", _output(lambda m: 2 * m),
                 ("fixtures", "thm6.3", "thm9.3", "w-amazing"), id="reduce"),
    pytest.param("verify._t_points", _output(lambda points: points[:-1]),
                 ("eq1", "ex2.3", "ex3.2"), id="t_points-one-short"),
    # eq1 also fails, after 0.8 s
    pytest.param("verify._t_points", _output(lambda points: points[:1] * len(points)),
                 ("ex2.3", "ex3.2"), id="t_points-all-equal"),
]


def _install(monkeypatch, target, mutate):
    """Replace ``target`` ("module.name" or "module.Class.method") by
    mutate(original) wherever it is bound."""
    module_name, _, name = target.partition(".")
    owner = getattr(riordan, module_name)
    if "." in name:
        cls_name, name = name.split(".")
        cls = getattr(owner, cls_name)
        monkeypatch.setattr(cls, name, mutate(getattr(cls, name)))
        return
    original = getattr(owner, name)
    mutant = mutate(original)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "riordan"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)


def _first_failure(name):
    """The first difference check ``name`` reports at MAX_N, or the
    library error it raises; None if every comparison holds."""
    ctx = verify._Ctx(MAX_N, verify.DEFAULT_BETAS, verify.DEFAULT_SEED)
    try:
        for label, got, want in dict(verify._CHECKS)[name](ctx):
            diff = fps._mismatch(got, want)
            if diff is not None:
                return "%s: %s" % (label, diff)
    except (ConsistencyError, DomainError, RangeError) as err:
        return "raised %s: %s" % (type(err).__name__, err)
    return None


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.mark.parametrize("target, mutate, checks", ROWS)
def test_battery_catches_the_mutation(monkeypatch, target, mutate, checks):
    _clear_memos()
    _install(monkeypatch, target, mutate)
    try:
        survived = [name for name in checks if _first_failure(name) is None]
    finally:
        _clear_memos()
    assert survived == []
