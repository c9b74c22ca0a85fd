"""Acceptance battery.

Criterion 1  exact reproduction of every printed matrix and polynomial
Criterion 2  randomized theorem suites at n <= 8 over the stated betas
Criterion 3  closed forms against extraction, plus the generating
             functions in x and t, checked at rational points of t
Criterion 4  Lagrange-pair coefficients, fixed points, the u/q system,
             and the table round trip
Criterion 5  the worked examples, one named check each
Criterion 6  the only-if direction: a perturbed series loses symmetry

Everything is exact (tolerance zero); one line prints per check.
"""

import time
from fractions import Fraction as Q

import pytest

from riordan.verify import run_suite

BETAS = (Q(-2), Q(-1), Q(-1, 2), Q(1, 3), Q(1, 2), Q(1), Q(2), Q(3))

THEOREM_CHECKS = (
    "thm2.1", "thm2.2", "thm2.3", "thm2.4", "thm2.5",
    "thm3.1", "thm3.2",
    "thm4.1", "thm4.2", "thm4.3", "thm4.4", "thm4.5",
    "thm6.1", "thm6.2", "thm6.3",
    "thm7.1", "thm7.2",
    "thm8.1", "thm8.2", "thm8.3",
    "thm9.1", "thm9.2", "thm9.3", "thm9.4", "thm9.5",
)
EXAMPLE_CHECKS = ("ex2.1", "ex2.2", "ex2.3", "ex3.1", "ex3.2", "ex4.1",
                  "ex4.2", "ex4.3", "ex6.1", "ex7.1", "ex8.1")


def _run(name, **kw):
    report = run_suite(name, **kw)
    result = report.results[0]
    status = "PASS" if result.passed else "FAIL"
    print("%s %s %s" % (status, result.name, result.detail))
    assert result.passed, "%s: %s" % (result.name, result.detail)


def test_criterion_1_fixture_suite():
    start = time.time()
    _run("fixtures")
    elapsed = time.time() - start
    print("fixtures elapsed %.2fs" % elapsed)
    assert elapsed < 5.0


def test_criterion_2_theorem_suite():
    start = time.time()
    for name in THEOREM_CHECKS:
        _run(name, max_n=8, betas=BETAS)
    elapsed = time.time() - start
    print("theorem suite elapsed %.2fs" % elapsed)
    assert elapsed < 60.0


def test_criterion_3_closed_forms_and_generating_functions():
    _run("eq2", max_n=8, betas=BETAS)
    _run("eq3", max_n=8, betas=BETAS)
    _run("eq1")


def test_criterion_4_lagrange_machinery():
    _run("section5")


@pytest.mark.parametrize("name", EXAMPLE_CHECKS)
def test_criterion_5_examples(name):
    _run(name)


def test_criterion_6_asymmetric_counterexample():
    # thm4.4 contains the negative direction: the perturbed series with
    # a2 != a1^2 must produce a non-symmetric numerator for some n <= 4
    _run("thm4.4")


def test_named_property_suites():
    _run("w-amazing")
    _run("col-sums")


def test_public_names_resolve():
    # a name deleted from a module but left in __all__ would break both
    import riordan
    missing = [name for name in riordan.__all__ if not hasattr(riordan, name)]
    assert missing == []
    namespace = {}
    exec("from riordan import *", namespace)
    assert set(riordan.__all__) <= set(namespace)
