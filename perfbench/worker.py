"""One fresh interpreter of the benchmark: set up, run one pass, report.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import and make the inputs only), ``pass`` (one timed
pass, tracing off) or ``traced`` (one pass with the tracer installed).
run.py starts one worker per pass, so a cache in the library can only
pay off for repeats inside one pass, as in one run of a user program.  The worker
prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    start = perf_counter()
    import riordan  # noqa: F401  (import time is part of set-up)
    import workloads

    if workload == "cli":
        import riordan.cli  # noqa: F401
        expected = workloads.load_expected()["cli"]
        ops = None
    else:
        ops = workloads.OPS[workload](seed)
    out = {"setup_s": perf_counter() - start}
    if mode == "setup":
        pass
    elif workload == "cli":  # traced cli: in-process rounds, untraced then traced
        times, failures = workloads.cli_round(expected)
        tracer = _install_tracer()
        t0 = perf_counter()
        _, traced_failures = workloads.cli_round(expected)
        traced_wall = perf_counter() - t0
        tracer.uninstall()
        out.update(wall_s=sum(times), op_s=times, traced_wall_s=traced_wall,
                   attempted=2 * len(expected),
                   failures=failures + traced_failures, trace=tracer.snapshot())
    elif mode == "pass":
        wall, times, refs, failures = workloads.run_pass(ops)
        out.update(wall_s=wall, op_s=times, ref_s=refs, attempted=len(ops),
                   failures=failures)
    else:
        tracer = _install_tracer()
        if workload == "battery":  # one span per check: verify.check.<name>
            ops = [(label, (lambda label=label, thunk=thunk:
                            tracer.span("verify.check." + label, thunk)), check)
                   for label, thunk, check in ops]
        wall, _, _, failures = workloads.run_pass(ops)
        tracer.uninstall()
        out.update(traced_wall_s=wall, attempted=len(ops), failures=failures,
                   trace=tracer.snapshot())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def _install_tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
