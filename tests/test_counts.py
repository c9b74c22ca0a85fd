"""How many comparisons each battery check makes, pinned.

A loop bound one short leaves every verdict green, so each check's
number of ``(label, got, want)`` comparisons at ``max_n`` 4 and 8, with
the default betas and seed, is held against this table.  A deliberate
change of scope updates the table and says why.
"""

import pytest

from riordan import verify

COUNTS = {  # name: (comparisons at max_n 4, at max_n 8)
    "fixtures": (109, 109),
    "thm2.1": (4, 8),
    "thm2.2": (100, 140),
    "thm2.3": (100, 180),
    "thm2.4": (28, 88),
    "thm2.5": (44, 88),
    "thm3.1": (4, 8),
    "thm3.2": (200, 280),
    "thm4.1": (84, 128),
    "thm4.2": (4, 8),
    "thm4.3": (4, 8),
    "thm4.4": (13, 13),
    "thm4.5": (40, 80),
    "thm6.1": (32, 64),
    "thm6.2": (32, 64),
    "thm6.3": (84, 296),
    "thm7.1": (32, 64),
    "thm7.2": (64, 128),
    "thm8.1": (3, 7),
    "thm8.2": (16, 32),
    "thm8.3": (33, 97),
    "thm9.1": (24, 56),
    "thm9.2": (32, 64),
    "thm9.3": (70, 156),
    "thm9.4": (24, 56),
    "thm9.5": (64, 128),
    "ex2.1": (16, 20),
    "ex2.2": (14, 14),
    "ex2.3": (19, 19),
    "ex3.1": (2392, 2395),
    "ex3.2": (17, 19),
    "ex4.1": (13, 19),
    "ex4.2": (12, 18),
    "ex4.3": (12, 18),
    "ex6.1": (192, 240),
    "ex7.1": (76, 108),
    "ex8.1": (3, 3),
    "eq1": (261, 261),
    "eq2": (32, 64),
    "eq3": (32, 64),
    "section5": (1261, 1261),
    "w-amazing": (152, 252),
    "col-sums": (64, 96),
}


def test_every_check_is_pinned_in_battery_order():
    assert tuple(COUNTS) == verify.CHECK_NAMES


@pytest.mark.parametrize("name", list(COUNTS))
def test_comparison_count(name):
    check = dict(verify._CHECKS)[name]
    got = tuple(sum(1 for _ in check(verify._Ctx(max_n, verify.DEFAULT_BETAS,
                                                 verify.DEFAULT_SEED)))
                for max_n in (4, 8))
    assert got == COUNTS[name]
