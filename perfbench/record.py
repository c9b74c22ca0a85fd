"""Record the expected outputs that the numerators and cli gates compare to.

    python3 perfbench/record.py

Writes perfbench/expected.json from the library in the same checkout:
digests of every catalogue numerator and constructor result, and the
stdout and exit code of every CLI command.  The committed file was
recorded at the commit that introduced the benchmark; later changes must
reproduce it, so do not re-record it to make a gate pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads


def main() -> int:
    env = run.child_env()
    sys.path.insert(0, env["PYTHONPATH"])
    import riordan

    numerators = {}
    for n in workloads.NUMERATOR_NS:
        for index in range(workloads.CATALOGUE_SIZE):
            b, a = workloads.catalogue_pair(n, index)
            order = len(a) - 1
            bs, as_ = riordan.Series(b, order), riordan.Series(a, order)
            numerators["euler n=%d pair=%d" % (n, index)] = workloads.digest(
                riordan.euler_numerator(bs.truncate(2 * n + 2), as_.truncate(2 * n + 2), n))
            numerators["narayana n=%d pair=%d" % (n, index)] = workloads.digest(
                riordan.narayana_numerator(bs, as_, n))
    # The constructor ops do not depend on the seed beyond their order.
    for label, thunk, _ in workloads.numerator_ops(0, expected={}):
        if not label.startswith(("euler", "narayana")):
            numerators[label] = workloads.digest(thunk())

    cli = []
    for argv in workloads.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "riordan.cli", *argv], env=env,
                              cwd=run.ROOT, capture_output=True, text=True, check=False)
        cli.append({"argv": list(argv), "stdout": proc.stdout,
                    "returncode": proc.returncode})

    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump({"numerators": numerators, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s: %d digests, %d commands" % (
        os.path.relpath(workloads.EXPECTED_PATH, run.ROOT), len(numerators), len(cli)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
