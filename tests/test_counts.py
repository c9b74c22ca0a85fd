"""What each battery check compares, pinned in ``REPRODUCTION.json``.

A loop bound one short leaves every verdict green, so for each check at
``max_n`` 4, 8 and 12, with the default betas and seed, the file holds
the number of ``(label, got, want)`` comparisons and a sha256 over the
lines ``repr(label) repr(want)``, one per comparison, in order: the
count pins what the check covers, the digest its seeded inputs and the
values it compares against.  Both come from one pass over the check.  A
deliberate change of scope or of inputs rewrites the file with

    PYTHONPATH=src python tests/test_counts.py

and says why.
"""

import hashlib
import json
import os
from functools import lru_cache

import pytest

from riordan import verify

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "REPRODUCTION.json")
MAX_NS = (4, 8, 12)


def pin(name, max_n):
    """The comparison count and the digest of check ``name`` at ``max_n``."""
    ctx = verify._Ctx(max_n, verify.DEFAULT_BETAS, verify.DEFAULT_SEED)
    digest, count = hashlib.sha256(), 0
    for label, _, want in dict(verify._CHECKS)[name](ctx):
        digest.update(("%r %r\n" % (label, want)).encode())
        count += 1
    return {"comparisons": count, "sha256": digest.hexdigest()}


def pins():
    """Every check's pins at every max_n in MAX_NS, in battery order."""
    return {"betas": [str(beta) for beta in verify.DEFAULT_BETAS],
            "seed": verify.DEFAULT_SEED,
            "checks": {name: {str(max_n): pin(name, max_n) for max_n in MAX_NS}
                       for name in verify.CHECK_NAMES}}


@lru_cache(maxsize=None)
def _committed():
    with open(PATH) as fh:
        return json.load(fh)


def test_every_check_is_pinned_in_battery_order():
    committed = _committed()
    assert tuple(committed["checks"]) == verify.CHECK_NAMES
    assert (committed["betas"], committed["seed"]) == (
        [str(beta) for beta in verify.DEFAULT_BETAS], verify.DEFAULT_SEED)


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_comparison_count(name):
    got = {str(max_n): pin(name, max_n) for max_n in MAX_NS}
    assert got == _committed()["checks"][name]


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump(pins(), fh, indent=1)
        fh.write("\n")
