"""Command-line surface: series, matrix, numerator and verify subcommands.

All output is exact and deterministic: rationals render as "p/q" (just
"p" for integers), matrices row-major.  The default truncation order is
16.  Nothing is read from the environment, so identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .fps import ConsistencyError, DomainError, Poly, Q, RangeError, Series
from .genlagrange import beta_matrix
from .matrix import FinMatrix
from .numerator import (W_matrix, core_matrix, euler_numerator, exp_matrix,
                        narayana_numerator, tilde_matrix)
from .parser import ParseError, parse_series
from .verify import DEFAULT_BETAS, DEFAULT_SEED, run_suite

CORE_KINDS = ("U", "Uinv", "V", "Vinv", "J")
EXP_KINDS = ("F", "Finv", "S", "Sinv", "C")
TILDE_KINDS = ("Ut", "Utinv", "Ft", "Ftinv", "St", "Ct", "Dt")
BETA_KINDS = ("G", "H", "A", "T")
MATRIX_KINDS = CORE_KINDS + EXP_KINDS + TILDE_KINDS + BETA_KINDS + ("W", "X")


def _nonneg_int(text: str) -> int:
    """argparse type for orders and sizes: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _rational(text: str) -> Fraction:
    """argparse type for --beta: an exact rational such as -2 or 1/2."""
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text) from None


# -- rendering ----------------------------------------------------------------


def render_series(coeffs, fmt: str, meta: dict) -> str:
    cells = [str(c) for c in coeffs]
    if fmt == "text":
        return ", ".join(cells)
    if fmt == "csv":
        return ",".join(cells)
    if fmt == "json":
        payload = dict(meta)
        payload["coeffs"] = cells
        return json.dumps(payload, sort_keys=True)
    raise ValueError("unknown format %r" % (fmt,))


def render_matrix(matrix: FinMatrix, fmt: str, meta: dict) -> str:
    cells = [[str(v) for v in row] for row in matrix.data]
    if fmt == "text":
        widths = [max(len(cells[i][j]) for i in range(matrix.n_rows))
                  for j in range(matrix.n_cols)]
        return "\n".join(" ".join(cell.rjust(w) for cell, w in zip(row, widths))
                         for row in cells)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in cells)
    if fmt == "json":
        payload = dict(meta)
        payload["rows"] = cells
        return json.dumps(payload, sort_keys=True)
    raise ValueError("unknown format %r" % (fmt,))


def poly_str(poly: Poly) -> str:
    terms = []
    for k, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            xk = "x" if k == 1 else "x^%d" % k
            if c == 1:
                terms.append(xk)
            elif c == -1:
                terms.append("-" + xk)
            else:
                terms.append("%s*%s" % (c, xk))
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


# -- subcommands --------------------------------------------------------------


def _cmd_series(args) -> int:
    series = parse_series(args.expr, args.order)
    meta = {"expr": args.expr, "order": args.order}
    print(render_series(series.coeffs, args.format, meta))
    return 0


def _build_matrix(args) -> FinMatrix:
    kind, n = args.kind, args.n
    if kind in BETA_KINDS:
        if args.beta is None:
            raise _UsageError("kind %s needs --beta" % kind)
        if args.m is not None:
            raise _UsageError("kind %s takes no --m" % kind)
        return beta_matrix(kind, n, args.beta)
    if kind == "W":
        if args.m is None:
            raise _UsageError("kind W needs --m")
        if args.beta is not None:
            raise _UsageError("kind W takes no --beta")
        return W_matrix(n, args.m)
    if args.beta is not None or args.m is not None:
        raise _UsageError("kind %s takes neither --beta nor --m" % kind)
    if kind == "X":
        return beta_matrix("X", n)
    if kind in CORE_KINDS:
        return core_matrix(kind, n)
    if kind in EXP_KINDS:
        return exp_matrix(kind, n)
    if kind in TILDE_KINDS:
        return tilde_matrix(kind, n)
    raise _UsageError("unknown matrix kind %r" % kind)


def _cmd_matrix(args) -> int:
    matrix = _build_matrix(args)
    meta = {"kind": args.kind, "n": args.n}
    if args.beta is not None:
        meta["beta"] = str(args.beta)
    if args.m is not None:
        meta["m"] = args.m
    print(render_matrix(matrix, args.format, meta))
    return 0


def _cmd_numerator(args) -> int:
    n = args.n
    order = max(args.order, n)
    a = parse_series(args.a, order)
    b = parse_series(args.b, order)
    if args.family in ("alpha", "phi") and b != Series.one(order):
        raise _UsageError("families alpha and phi fix b = 1")
    if args.family in ("euler", "alpha"):
        result = euler_numerator(b, a, n)
    else:
        result = narayana_numerator(b, a, n)
    if args.format == "json":
        payload = {"family": args.family, "n": n,
                   "coeffs": [str(c) for c in result.poly.coeffs],
                   "residual_checked": result.residual_checked}
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(",".join(map(str, result.poly.coeffs)))
        print("residual_checked,%d" % result.residual_checked)
    else:
        print("poly: %s" % poly_str(result.poly))
        print("coeffs: %s" % ", ".join(map(str, result.poly.coeffs)))
        print("residual_checked: %d" % result.residual_checked)
    return 0


def _cmd_verify(args) -> int:
    betas = DEFAULT_BETAS
    if args.betas:
        try:
            betas = tuple(Q(part) for part in args.betas.split(","))
        except (ValueError, ZeroDivisionError):
            raise _UsageError("--betas needs comma-separated rationals, got %r"
                              % args.betas) from None
    try:
        report = run_suite(args.suite, max_n=args.max_n, betas=betas,
                           seed=args.seed)
    except KeyError as err:
        raise _UsageError(str(err.args[0])) from err
    except DomainError as err:
        raise _UsageError(str(err)) from err
    if args.format == "json":
        payload = {
            "suite": report.suite,
            "passed": report.n_passed,
            "total": len(report.results),
            "checks": [{"name": r.name, "status": "pass" if r.passed else "fail",
                        "detail": r.detail} for r in report.results],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in report.results:
            if r.passed:
                print("PASS %s" % r.name)
            else:
                print("FAIL %s: %s" % (r.name, r.detail))
        print("passed %d/%d" % (report.n_passed, len(report.results)))
    return 0 if report.ok else 1


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Riordan-array computations: series, connection "
                    "matrices, numerator polynomials, identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="expand a series expression")
    p_series.add_argument("expr", help="expression, e.g. '1/(1-x)' or 'catalan'")
    p_series.add_argument("--order", type=_nonneg_int, default=16)
    p_series.add_argument("--format", choices=("text", "csv", "json"),
                          default="text")
    p_series.set_defaults(func=_cmd_series)

    p_matrix = sub.add_parser("matrix", help="print an exact connection matrix")
    p_matrix.add_argument("kind", choices=MATRIX_KINDS)
    p_matrix.add_argument("--n", type=_nonneg_int, required=True)
    p_matrix.add_argument("--beta", type=_rational, default=None,
                          help="rational parameter for G/H/A/T, e.g. 1/2")
    p_matrix.add_argument("--m", type=_nonneg_int, default=None, help="stride for W")
    p_matrix.add_argument("--format", choices=("text", "csv", "json"),
                          default="text")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_num = sub.add_parser("numerator", help="extract a numerator polynomial")
    p_num.add_argument("family", choices=("euler", "narayana", "alpha", "phi"))
    p_num.add_argument("--b", default="1", help="weight series expression")
    p_num.add_argument("--a", required=True, help="column series expression")
    p_num.add_argument("--n", type=_nonneg_int, required=True)
    p_num.add_argument("--order", type=_nonneg_int, default=16,
                       help="evaluation order (raised to n, the least the "
                            "extraction reads)")
    p_num.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
    p_num.set_defaults(func=_cmd_numerator)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--max-n", type=int, default=8, dest="max_n")
    p_verify.add_argument("--betas", default=None,
                          help="comma-separated rationals, e.g. -2,-1,1/2")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command; every library error, and running out of memory,
    ends in one line on stderr and exit 1 (2 for a usage error)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 2
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 1
    except ConsistencyError as err:
        print("consistency error: %s" % err, file=sys.stderr)
        return 1
    except (DomainError, RangeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
