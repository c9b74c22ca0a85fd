"""Inputs, timed passes and output gates of the library workloads.

Every workload is a closed loop with one caller: an op starts when the
previous one has returned.  A pass is a fixed list of ops built from the
seed; each op is timed on its own and the results are checked only after
the pass, outside the timed region.

- battery: the 43-check reproduction battery at max_n=8, one
  ``run_suite`` call per check name.  Checks are seeded per name, so the
  verdicts equal those of ``run_suite("all")``.
- series_kernel: Series ops at orders 16, 32 and 64 on seeded
  battery-style rational series (numerators in [-3, 3], denominators in
  [1, 3]) and on small-integer series, checked by identities
  (a * a^-1 = 1, exp(log a) = a, (a^1/2)^2 = a, f(rev f) = x) and by
  reference arithmetic modulo a prime.
- numerators: Euler and Narayana extraction on seeded (b, a) pairs drawn
  from a fixed catalogue, plus the connection-matrix constructors,
  checked against digests recorded at the commit that introduced the
  benchmark (``expected.json``).
- cli: the command lines in ``CLI_COMMANDS``; run.py times them as
  subprocesses, and ``cli_round`` runs them in-process for the traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("battery", "series_kernel", "numerators", "cli")

BATTERY_MAX_N = 8

SERIES_ORDERS = (16, 32, 64)
REVERSION_ORDERS = (16, 32)
RANDOM_SETS = 2  # seeded rational input sets per order

NUMERATOR_NS = (4, 8, 12)
CATALOGUE_SIZE = 12  # (b, a) pairs per n, recorded in expected.json
PAIRS_PER_N = 3  # drawn from the catalogue by the seed

CLI_COMMANDS = (
    ("series", "catalan", "--order", "64"),
    ("series", "rev(x-x*x)", "--order", "48"),
    ("series", "genbin(1/2, 1)", "--order", "32"),
    ("numerator", "narayana", "--a", "1/(1-x)", "--n", "12"),
    ("numerator", "euler", "--a", "exp(x)", "--n", "8"),
    ("matrix", "W", "--n", "8", "--m", "4"),
    ("matrix", "G", "--n", "6", "--beta=1/2", "--format", "json"),
    ("verify", "--suite", "fixtures"),
    ("series", "log(x)", "--order", "4"),  # must exit 1 with empty stdout
)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# -- seeded inputs ---------------------------------------------------------------


def rand_coeffs(rng, order, first):
    """Battery-style coefficients: ``first`` then p/q, p in [-3, 3], q in [1, 3]."""
    return [Fraction(first)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(order)]


def rand_nilpotent(rng, order):
    """Zero constant term and a nonzero linear coefficient, as reversion needs."""
    coeffs = rand_coeffs(rng, order, 0)
    coeffs[1] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return coeffs


def catalogue_pair(n: int, index: int):
    """Coefficients of catalogue pair ``index`` for row n: a weight b with
    b(0) != 0 and a column series a with a(0) = 1, at order 2(2n+1), the
    minimum Narayana extraction needs."""
    rng = random.Random(1000 * n + index)
    order = 2 * (2 * n + 1)
    b = rand_coeffs(rng, order, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                         rng.randint(1, 3)))
    a = rand_coeffs(rng, order, 1)
    return b, a


def canon(value) -> str:
    """Canonical text of a numerator result, polynomial, series or matrix."""
    if hasattr(value, "poly"):
        return "%s|%d" % (canon(value.poly), value.residual_checked)
    if hasattr(value, "data"):
        return ";".join(",".join(str(v) for v in row) for row in value.data)
    return "%s|%d" % (",".join(str(c) for c in value.coeffs),
                      getattr(value, "order", getattr(value, "bound", -1)))


def digest(value) -> str:
    return hashlib.sha256(canon(value).encode()).hexdigest()


# -- a pass is a list of (label, thunk, check) --------------------------------------


# Ops look the library up at call time (through the ``riordan`` package
# namespace or a method call), never through a name or bound method taken
# earlier, so that the traced run's rebinding reaches them.


def battery_ops(seed: int):
    import riordan

    def op(name):
        return lambda: riordan.run_suite(name, max_n=BATTERY_MAX_N,
                                         betas=riordan.DEFAULT_BETAS, seed=seed)

    def check(report):
        return None if report.ok else "; ".join(
            "%s: %s" % (r.name, r.detail) for r in report.results if not r.passed)

    return [(name, op(name), check) for name in riordan.CHECK_NAMES]


def _same(got, want) -> bool:
    return got.order == want.order and got.coeffs == want.coeffs


# Products and compositions are checked modulo a 61-bit prime with plain
# integer arithmetic: an exact reference costs as much as the op itself, and
# a wrong rational result agrees with the right one modulo P only by chance.
P = (1 << 61) - 1


def _mod(coeffs):
    return [c.numerator * pow(c.denominator, -1, P) % P for c in coeffs]


def _mul_mod(a, b, n):
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        for j in range(n + 1 - i):
            out[i + j] += ai * b[j]
    return [c % P for c in out]


def _compose_mod(f, g, n):
    """f(g(x)) through order n by Horner's rule, modulo P."""
    acc = [f[n]] + [0] * n
    for k in range(n - 1, -1, -1):
        acc = _mul_mod(acc, g, n)
        acc[0] = (acc[0] + f[k]) % P
    return acc


def series_kernel_ops(seed: int):
    import riordan
    from riordan import Q, Series

    rng = random.Random(seed)
    sets = []
    for order in SERIES_ORDERS:
        for i in range(RANDOM_SETS):
            sets.append(("rand%d" % i, order,
                         Series(rand_coeffs(rng, order, 1), order),
                         Series(rand_coeffs(rng, order, 1), order),
                         Series(rand_nilpotent(rng, order), order)))
        sets.append(("int", order, riordan.gen_binomial_series(2, 1, order),
                     Series.geometric(order), Series.from_poly([0, 1, -1], order)))
    half = Q(1, 2)
    ops = []
    for tag, n, u, u2, v in sets:
        one = Series.one(n)
        x_mod = _mod(Series.x(n).coeffs)

        def check_mul(r, u=u, u2=u2, n=n):
            return r.order == n and _mod(r.coeffs) == _mul_mod(_mod(u.coeffs), _mod(u2.coeffs), n)

        def check_compose(r, u=u, v=v, n=n):
            return r.order == n and _mod(r.coeffs) == _compose_mod(_mod(u.coeffs), _mod(v.coeffs), n)

        def check_reversion(r, v=v, n=n, x_mod=x_mod):  # v(rev v) = x
            return r.order == n and _compose_mod(_mod(v.coeffs), _mod(r.coeffs), n) == x_mod

        cases = [
            ("mul", lambda u=u, u2=u2: u * u2, check_mul),
            ("inverse", lambda u=u: u.inverse(), lambda r, u=u, one=one: _same(u * r, one)),
            ("log", lambda u=u: u.log(), lambda r, u=u: _same(r.exp(), u)),
            ("exp", lambda v=v: v.exp(), lambda r, v=v: _same(r.log(), v)),
            ("pow", lambda u=u: u.pow(half), lambda r, u=u: _same(r * r, u)),
            ("compose", lambda u=u, v=v: u.compose(v), check_compose),
        ]
        if n in REVERSION_ORDERS:
            cases.append(("reversion", lambda v=v: v.reversion(), check_reversion))
        for name, thunk, ok in cases:
            ops.append(("%s/%s/%d" % (name, tag, n), thunk,
                        lambda r, ok=ok: None if ok(r) else "identity fails"))
    return ops


def numerator_ops(seed: int, expected=None):
    import riordan
    from riordan import Series

    if expected is None:
        expected = load_expected()["numerators"]
    rng = random.Random(seed)
    ops = []
    for n in NUMERATOR_NS:
        for index in sorted(rng.sample(range(CATALOGUE_SIZE), PAIRS_PER_N)):
            b, a = catalogue_pair(n, index)
            order = len(a) - 1
            bs, as_ = Series(b, order), Series(a, order)
            be, ae = bs.truncate(2 * n + 2), as_.truncate(2 * n + 2)
            ops.append(("euler n=%d pair=%d" % (n, index),
                        lambda be=be, ae=ae, n=n: riordan.euler_numerator(be, ae, n)))
            ops.append(("narayana n=%d pair=%d" % (n, index),
                        lambda bs=bs, as_=as_, n=n: riordan.narayana_numerator(bs, as_, n)))
    for kind in ("U", "Uinv", "V", "Vinv"):
        ops.append(("core_matrix %s 24" % kind, lambda kind=kind: riordan.core_matrix(kind, 24)))
    for kind in ("F", "Finv", "S", "Sinv"):
        ops.append(("exp_matrix %s 10" % kind, lambda kind=kind: riordan.exp_matrix(kind, 10)))
    for kind in ("Ut", "Utinv", "Ft", "St"):
        ops.append(("tilde_matrix %s 10" % kind, lambda kind=kind: riordan.tilde_matrix(kind, 10)))
    for n in range(2, 9):
        for m in range(2, 5):
            ops.append(("W_matrix %d %d" % (n, m), lambda n=n, m=m: riordan.W_matrix(n, m)))
    for kind in "GHAT":
        for beta in riordan.DEFAULT_BETAS:
            ops.append(("beta_matrix %s 8 %s" % (kind, beta),
                        lambda kind=kind, beta=beta: riordan.beta_matrix(kind, 8, beta)))
    rng.shuffle(ops)

    def check(label):
        want = expected.get(label)
        return lambda r: None if digest(r) == want else "digest differs from expected.json"

    return [(label, thunk, check(label)) for label, thunk in ops]


OPS = {"battery": battery_ops, "series_kernel": series_kernel_ops,
       "numerators": numerator_ops}


def reference() -> float:
    """Time a fixed integer convolution that uses no library code.

    On a shared virtual machine the CPU speed can swing by tens of percent
    within seconds, alike for every Python computation; an op's time over
    the reference time around it cancels most of that swing."""
    a = list(range(1, 25))
    out = a
    t0 = perf_counter()
    for _ in range(50):
        nxt = [0] * 24
        for i in range(24):
            ai = out[i]
            for j in range(24 - i):
                nxt[i + j] += ai * a[j]
        out = [c % P for c in nxt]
    return perf_counter() - t0


def run_pass(ops):
    """Run ``ops`` in order with a reference run before the first op and
    after each op, then check them.  Returns the pass wall time (without
    the reference runs), the per-op times, each op's reference time (the
    mean of the runs just before and after it) and the failures (label,
    reason)."""
    results, times, refs = [], [], [reference()]
    for _, thunk, _ in ops:
        t0 = perf_counter()
        try:
            results.append((True, thunk()))
        except Exception as err:  # a raised error is a failed op, not a crash
            results.append((False, "raised %s: %s" % (type(err).__name__, err)))
        times.append(perf_counter() - t0)
        refs.append(reference())
    wall = sum(times)
    local = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    failures = []
    for (label, _, check), (ran, value) in zip(ops, results):
        try:
            reason = check(value) if ran else value
        except Exception as err:
            reason = "check raised %s: %s" % (type(err).__name__, err)
        if reason:
            failures.append((label, reason))
    return wall, times, local, failures


# -- cli in-process (traced run only) ------------------------------------------------


def cli_round(expected):
    """Run every CLI command in-process with output captured.  Returns the
    per-command times and the failures against the recorded outputs."""
    from riordan import cli

    times, failures = [], []
    for entry in expected:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(entry["argv"]))
        times.append(perf_counter() - t0)
        if code != entry["returncode"] or out.getvalue() != entry["stdout"]:
            failures.append((" ".join(entry["argv"]), "output or exit code differs"))
    return times, failures
