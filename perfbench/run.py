"""Benchmark of the riordan library and its command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src``.
Workloads (see workloads.py): ``battery``, ``series_kernel``,
``numerators`` and ``cli``.  Each is a closed loop with one caller.  A
library workload runs every pass in a fresh interpreter (worker.py), so
a cache can only pay off for repeats inside one pass; ``cli`` runs one
``python -m riordan.cli`` subprocess at a time.  Passes repeat until
their timed regions add up to ``--seconds``; every workload runs at
least one whole pass, and a ``battery`` pass takes longer than that.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``setup_s``: import plus input generation in a fresh interpreter,
  median of several set-ups;
- ``wall_ref``: one pass in units of a reference computation
  (``workloads.reference``) that runs before the first op and after each
  op: each op's time is divided by the mean of the reference runs around
  it, and the ops' medians over the passes are summed;
- ``op_tail_ref``: per-op latency (a check, a library call or a CLI
  invocation) in the same units, at the highest percentile with at least
  ten ops beyond it;
- ``peak_rss_mb``: peak resident memory of the worker (library
  workloads) or of the largest CLI child, median over passes.

The line before the result gives the same pass in plain time
(``wall_s``, ``op_tail_ms``, ``op_p50_ms``) and the median reference
time ``ref_ms``.  They are not gated: on a shared virtual machine the
CPU speed swings by tens of percent within seconds, which moves plain
times between runs as much as a real change would, while the ratio to
the reference around each op cancels most of it.  The median op is not
gated either: on ``battery`` and ``series_kernel`` the op-time
distribution has a gap at the middle, so the median jumps between ops
from seed to seed.

A failed op (a raised error, a failed check, an output that differs
from the recorded one, a wrong exit code) counts in ``failed``, so
``failed / attempted`` is the failure ratio; ``correct`` is true only if
no op failed.

With ``--trace 1`` the line carries per-layer metrics from a traced run
(tracer.py wraps the library's public functions from outside) and
``trace_overhead_ratio``, traced over untraced pass time.  Layers a
workload does not reach read 0.  The line before the result stamps the
git sha, Python version, CPU count and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_RUNS = 7  # fresh-interpreter set-ups per run; setup_s is their median
CLI_ROUNDS = 7  # a cli pass runs every command this many times
INTERP_RUNS = 5
TOP_EDGES = 20  # parent -> child span edges a traced run prints
CHILD_TIMEOUT_S = 170

# Checks that take at least 1 s at the default seed get their own metric.
SLOW_CHECKS = ("thm3.2", "eq1", "section5", "ex6.1", "thm6.3", "thm7.1",
               "thm4.1", "eq3", "w-amazing", "thm9.1", "thm9.4", "thm9.3",
               "ex3.1", "thm6.1")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("RIORDAN_ORDER_DEFAULT", None)  # the CLI default order must be 16
    # Imports read cached bytecode, as from an installed package; the first
    # set-up of a run writes it under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_workers(workload: str, seed: int, modes, env: dict):
    """Start one worker per mode at once (at most two: nproc here) and
    return their reports in the same order."""
    procs = [subprocess.Popen([sys.executable, WORKER, workload, str(seed), mode],
                              env=env, cwd=HERE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for mode in modes]
    reports = []
    try:
        for mode, proc in zip(modes, procs):
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError("worker %s %s failed (exit %d): %s"
                                 % (workload, mode, proc.returncode, err.strip()[-2000:]))
            reports.append(json.loads(lines[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return reports


def run_worker(workload: str, seed: int, mode: str, env: dict) -> dict:
    return run_workers(workload, seed, (mode,), env)[0]


def spawn(args, env: dict):
    """One interpreter subprocess: (seconds, stdout bytes, exit code, peak
    RSS MB).  A blocking wait4 ends the timing when the child exits; a wait
    with a timeout would poll and round the time up by up to 50 ms."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    return perf_counter() - start, out, proc.returncode, usage.ru_maxrss / 1024.0


def cli_pass(seed: int, pass_index: int, expected, env: dict) -> dict:
    """Every command CLI_ROUNDS times in a seeded order; op_s lists the
    times in the unshuffled order, the same in every pass."""
    calls = [entry for _ in range(CLI_ROUNDS) for entry in expected]
    order = list(range(len(calls)))
    random.Random("%d/%d" % (seed, pass_index)).shuffle(order)
    times, refs, rss, failures = [0.0] * len(calls), [0.0] * len(calls), [], []
    before = workloads.reference()
    for i in order:
        entry = calls[i]
        times[i], out, code, peak = spawn(["-m", "riordan.cli", *entry["argv"]], env)
        rss.append(peak)
        after = workloads.reference()
        refs[i], before = (before + after) / 2, after
        if code != entry["returncode"] or out != entry["stdout"].encode():
            failures.append((" ".join(entry["argv"]), "stdout or exit code differs"))
    return {"wall_s": sum(times), "op_s": times, "ref_s": refs, "attempted": len(calls),
            "failures": failures, "peak_rss_mb": max(rss)}


def measure_passes(workload: str, seed: int, seconds: float, env: dict):
    """Whole untraced passes until their timed regions add up to ``seconds``."""
    expected = workloads.load_expected()["cli"] if workload == "cli" else None
    passes, measured = [], 0.0
    while not passes or measured < seconds:
        if expected is None:
            result = run_worker(workload, seed, "pass", env)
        else:
            result = cli_pass(seed, len(passes), expected, env)
        passes.append(result)
        measured += result["wall_s"]
    return passes


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        raise BenchError("a pass needs at least 11 ops for a tail percentile")
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def representative_pass(per_pass):
    """Every pass runs the same ops, listed in one order, so a representative
    pass takes each op's median time over the passes: a slow spell in one
    pass then counts once."""
    return [statistics.median(times) for times in zip(*per_pass)]


def relative(p) -> list:
    """A pass's op times, each in units of the reference time around it."""
    return [t / ref for t, ref in zip(p["op_s"], p["ref_s"])]


def end_to_end(setups, passes) -> dict:
    rel = representative_pass([relative(p) for p in passes])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (sum(rel), "ref"),
        "op_tail_ref": (tail(rel)[0], "ref"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def raw_times(passes) -> dict:
    """The same statistics in milliseconds, not gated (see the docstring)."""
    rep = representative_pass([p["op_s"] for p in passes])
    return {"wall_s": {"value": sum(rep), "unit": "s"},
            "op_tail_ms": {"value": 1000 * tail(rep)[0], "unit": "ms"},
            "op_p50_ms": {"value": 1000 * statistics.median(rep), "unit": "ms"},
            "ref_ms": {"value": 1000 * statistics.median(
                r for p in passes for r in p["ref_s"]), "unit": "ms"}}


# -- per-layer metrics from the traced run ----------------------------------------


def merge_traces(snaps) -> dict:
    """Per-pass mean of the traced passes' snapshots."""
    k = len(snaps)
    spans, mods, edges = {}, {}, {}
    for snap in snaps:
        for name, st in snap["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "repeat_ratio": 0.0})
            for key in ("calls", "s", "self_s"):
                acc[key] += st[key] / k
            acc["repeat_ratio"] += (st["repeat_ratio"] or 0.0) / k
        for mod, seconds in snap["module_self_s"].items():
            mods[mod] = mods.get(mod, 0.0) + seconds / k
        for parent, child, _, seconds in snap["edges"]:
            edges[(parent, child)] = edges.get((parent, child), 0.0) + seconds / k
    mul = {key: sum(s["mul"][key] for s in snaps) for key in ("calls", "order_sum", "bits_sum")}
    return {"spans": spans, "module_self_s": mods, "edges": edges, "mul": mul}


def layer_metrics(trace, cli_ms, overhead) -> dict:
    spans, mods, mul = trace["spans"], trace["module_self_s"], trace["mul"]
    units = {"calls": "count", "s": "s", "self_s": "s", "repeat_ratio": "ratio"}
    out = {}

    def put(span, *stats):
        for stat in stats:
            out["%s.%s" % (span, stat)] = (spans.get(span, {}).get(stat, 0.0), units[stat])

    put("fps.series_mul", "calls", "self_s")
    put("fps.poly_mul", "calls", "self_s")
    for op in ("inverse", "log", "exp"):
        put("fps." + op, "self_s")
    put("fps.pow", "s")
    put("fps.compose", "s")
    put("fps.reversion", "calls", "s")
    put("fps.reversion_check", "s")
    calls = mul["calls"] or 1
    out["fps.mul.mean_order"] = (mul["order_sum"] / calls, "order")
    out["fps.mul.mean_coeff_bits"] = (mul["bits_sum"] / calls, "bits")
    for name in ("core_matrix", "exp_matrix", "tilde_matrix", "W_matrix"):
        put("numerator." + name, "calls", "s", "repeat_ratio")
    put("genlagrange.beta_matrix", "calls", "s", "repeat_ratio")
    put("numerator.euler_numerator", "s")
    put("numerator.narayana_numerator", "s")
    put("genlagrange.gen_lagrange_series", "s")
    put("exact.eulerian_poly", "calls", "repeat_ratio")
    put("numerator.phi_gf_check", "s")
    put("numerator.alpha_gf_check", "s")
    put("bivariate.x_reversion", "s")
    for op in ("mul", "inverse", "apply"):
        put("matrix." + op, "self_s")
    put("parser.parse_series", "s")
    for mod in ("fps", "exact", "matrix", "arrays", "numerator", "genlagrange",
                "bivariate", "parser", "verify"):
        out[mod + ".self_s"] = (mods.get(mod, 0.0), "s")
    for key in ("interp_ms", "import_ms", "command_ms"):
        out["cli." + key] = (cli_ms.get(key, 0.0), "ms")
    checks = {name[len("verify.check."):]: st["s"] for name, st in spans.items()
              if name.startswith("verify.check.")}
    for name in SLOW_CHECKS:
        out["verify.check_s." + name] = (checks.get(name, 0.0), "s")
    out["verify.check_s.rest"] = (sum(s for name, s in checks.items()
                                      if name not in SLOW_CHECKS), "s")
    out["trace_overhead_ratio"] = (overhead, "ratio")
    return out


def traced_run(workload: str, seed: int, seconds: float, env: dict):
    """Traced passes, each beside an untraced one for the overhead ratio;
    returns (per-layer metrics, passes, the costliest parent -> child span
    edges with their seconds per pass)."""
    med = statistics.median
    cli_ms = {}
    if workload == "cli":  # one worker runs an untraced and a traced in-process round
        interp = med(spawn(["-c", "pass"], env)[0] for _ in range(INTERP_RUNS))
        imported = med(spawn(["-c", "import riordan.cli"], env)[0] for _ in range(INTERP_RUNS))
        traced = [run_worker(workload, seed, "traced", env)]
        cli_ms = {"interp_ms": 1000 * interp, "import_ms": 1000 * (imported - interp),
                  "command_ms": 1000 * med(traced[0]["op_s"])}
        overhead = traced[0]["traced_wall_s"] / traced[0]["wall_s"]
        passes = traced
    else:
        untraced, traced = [], []
        while not traced or sum(p["traced_wall_s"] for p in traced) < seconds:
            plain, with_trace = run_workers(workload, seed, ("pass", "traced"), env)
            untraced.append(plain)
            traced.append(with_trace)
        overhead = med(p["traced_wall_s"] for p in traced) / med(p["wall_s"] for p in untraced)
        passes = untraced + traced
    trace = merge_traces([p["trace"] for p in traced])
    top = sorted(trace["edges"].items(), key=lambda item: -item[1])[:TOP_EDGES]
    edges = [[parent, child, round(seconds, 4)] for (parent, child), seconds in top]
    return layer_metrics(trace, cli_ms, overhead), passes, edges


# -- stamp and entry point --------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):  # no git, or it hung
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def default_seed() -> int:
    sys.path.insert(0, SRC)
    from riordan.verify import DEFAULT_SEED

    return DEFAULT_SEED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: riordan.verify.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riordan", "__init__.py")):
        print("no riordan sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    seed = default_seed() if args.seed is None else args.seed
    env = child_env()
    try:
        run_worker(args.workload, seed, "setup", env)  # compile bytecode, fill caches
        if args.trace:
            metrics, passes, edges = traced_run(args.workload, seed, args.seconds, env)
        else:
            setups = [run_worker(args.workload, seed, "setup", env)["setup_s"]
                      for _ in range(SETUP_RUNS)]
            passes = measure_passes(args.workload, seed, args.seconds, env)
            metrics = end_to_end(setups, passes)
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    info = {
        "stamp": {"git_sha": git_sha(), "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)), "seed": seed,
                  "workload": args.workload, "trace": args.trace,
                  "seconds": args.seconds},
        "passes": len(passes),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
    }
    if args.trace:
        info["top_span_edges_s"] = edges
    else:
        info["ops_per_pass"] = len(passes[0]["op_s"])
        info["op_tail_percentile"] = round(tail(passes[0]["op_s"])[1], 2)
        info["raw"] = raw_times(passes)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
