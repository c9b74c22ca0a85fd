import hashlib
import json
from fractions import Fraction

import pytest

from riordan.cli import main
from riordan.fps import ConsistencyError, DomainError
from riordan.matrix import FinMatrix
from riordan.numerator import W_matrix, exp_matrix
from riordan.verify import run_suite


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_catalan(capsys):
    code, out, _ = run(capsys, "series", "catalan", "--order", "4")
    assert code == 0
    assert out.strip() == "1, 1, 2, 5, 14"


def test_series_geometric_default_format(capsys):
    code, out, _ = run(capsys, "series", "1/(1-x)", "--order", "3")
    assert code == 0
    assert out.strip() == "1, 1, 1, 1"
    code, out, _ = run(capsys, "series", "1/(1-x)")  # the default order is 16
    assert code == 0
    assert out.strip() == ", ".join(["1"] * 17)


def test_series_genbin_half(capsys):
    code, out, _ = run(capsys, "series", "genbin(1/2, 1)", "--order", "3")
    assert code == 0
    assert out.strip() == "1, 1, 1/2, 1/8"


def test_series_x_at_order_0_is_zero(capsys):
    assert run(capsys, "series", "x", "--order", "0") == (0, "0\n", "")


def test_series_parse_error(capsys):
    code, out, err = run(capsys, "series", "1 + $")
    assert code == 1
    assert "position" in err


@pytest.mark.parametrize("argv, position", [
    (("series", "\u00b2"), 0),
    (("numerator", "euler", "--a", "1+\u00b2", "--n", "2"), 2),
])
def test_non_decimal_digit_is_a_parse_error(capsys, argv, position):
    # a superscript two is a digit to str.isdigit but not to int()
    assert run(capsys, *argv) == (
        1, "", "parse error: unexpected character '\u00b2' (at position %d)\n" % position)


def test_deeply_nested_series_is_a_parse_error(capsys):
    # three parser frames a level: 400 levels overflow the recursion limit
    code, out, err = run(capsys, "series", "(" * 400 + "x" + ")" * 400)
    assert (code, out) == (1, "")
    assert err.startswith("parse error: expression nested too deeply (at position")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_long_sum_evaluates_without_recursion(capsys):
    code, out, _ = run(capsys, "series", "x" + "+x" * 1200, "--order", "2")
    assert (code, out) == (0, "0, 1201, 0\n")


def test_series_domain_error(capsys):
    code, out, err = run(capsys, "series", "1/x")
    assert code == 1
    assert "error" in err


def test_matrix_s3(capsys):
    code, out, _ = run(capsys, "matrix", "S", "--n", "3", "--format", "csv")
    assert code == 0
    want = exp_matrix("S", 3)
    got = [[int(v) for v in line.split(",")] for line in out.strip().splitlines()]
    assert FinMatrix(got) == want


def test_matrix_w(capsys):
    code, out, _ = run(capsys, "matrix", "W", "--n", "3", "--m", "2",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["4,1,0", "4,6,4", "0,1,4"]


def test_matrix_j_text_grid(capsys):
    code, out, _ = run(capsys, "matrix", "J", "--n", "3")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows == [["0", "0", "0", "1"], ["0", "0", "1", "0"],
                    ["0", "1", "0", "0"], ["1", "0", "0", "0"]]


def test_matrix_usage_errors(capsys):
    code, _, err = run(capsys, "matrix", "G", "--n", "2")
    assert code == 2 and "beta" in err
    code, _, err = run(capsys, "matrix", "W", "--n", "2")
    assert code == 2 and "m" in err
    code, _, err = run(capsys, "matrix", "U", "--n", "2", "--beta", "1")
    assert code == 2
    code, _, err = run(capsys, "matrix", "W", "--n", "2", "--m", "2",
                       "--beta", "1")
    assert code == 2


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "H", "--n", "3", "--beta", "1/2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "H" and payload["n"] == 3 and payload["beta"] == "1/2"
    from riordan.genlagrange import beta_matrix
    from fractions import Fraction as Q
    rows = [[Q(cell) for cell in row] for row in payload["rows"]]
    assert FinMatrix(rows) == beta_matrix("H", 3, Q(1, 2))
    code, out, _ = run(capsys, "matrix", "W", "--n", "2", "--m", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "W" and payload["n"] == 2 and payload["m"] == 2
    rows = [[Q(cell) for cell in row] for row in payload["rows"]]
    assert FinMatrix(rows) == W_matrix(2, 2)


def test_numerator_euler(capsys):
    code, out, _ = run(capsys, "numerator", "euler", "--a", "exp(x)", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "coeffs: 0, 1/24, 11/24, 11/24, 1/24"
    assert lines[2] == "residual_checked: 5"


def test_numerator_narayana(capsys):
    code, out, _ = run(capsys, "numerator", "narayana", "--a", "1/(1-x)",
                       "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "6", "6"]


# sha256 of the stdout at n = 64, recorded from the connection-matrix routes
_NUMERATOR_DIGESTS = {
    "narayana": "5eee0ee06a9b505a54f81e084f52214db7f0bbd7e3af60f0c145faeaf55ba777",
    "euler": "bf3d6ba0461a56c1ef9bc51b5b0d7037affa8154c9181d61b451f0b540aeeff0",
}


@pytest.mark.parametrize("kind", sorted(_NUMERATOR_DIGESTS))
def test_numerator_catalan_n64_output_is_pinned(capsys, kind):
    code, out, _ = run(capsys, "numerator", kind, "--a", "catalan", "--n", "64")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _NUMERATOR_DIGESTS[kind]


def test_numerator_alpha(capsys):
    code, out, _ = run(capsys, "numerator", "alpha", "--a", "1+x", "--n", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "0", "0", "0", "0", "1"]


def test_numerator_bumps_order(capsys):
    for n, order in ((18, "16"), (0, "0")):
        code, out, _ = run(capsys, "numerator", "alpha", "--a", "1+x",
                           "--n", str(n), "--order", order, "--format", "json")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["0"] * n + ["1"]


def test_numerator_alpha_rejects_weight(capsys):
    code, _, err = run(capsys, "numerator", "alpha", "--b", "2", "--a", "1+x",
                       "--n", "2")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm2.1")
    assert code == 0
    assert out.strip().splitlines() == ["PASS thm2.1", "passed 1/1"]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_fixtures_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fixtures", "--format",
                       "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"] == 1
    assert payload["checks"][0]["name"] == "fixtures"


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "thm2.3", "--seed", "5")
    _, out2, _ = run(capsys, "verify", "--suite", "thm2.3", "--seed", "5")
    assert out1 == out2


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    import riordan.cli as cli
    from riordan.verify import CheckResult, Report

    def fake_run_suite(suite, max_n, betas, seed):
        report = Report(suite)
        report.results.append(CheckResult("thm0.0", False, "n=1: got 0, want 1"))
        return report

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 1
    assert "FAIL thm0.0" in out


def test_verify_custom_betas(capsys):
    # the = form keeps argparse from reading a leading '-' as an option
    code, out, _ = run(capsys, "verify", "--suite", "thm6.1",
                       "--betas=-2,1/2,3", "--max-n", "4")
    assert code == 0
    assert "PASS thm6.1" in out


@pytest.mark.parametrize("betas", ["abc", "1,,2"])
def test_verify_bad_betas_are_usage_errors(capsys, betas):
    code, out, err = run(capsys, "verify", "--suite", "thm6.1",
                         "--betas", betas)
    assert code == 2 and out == ""
    assert err == ("usage error: --betas needs comma-separated rationals, "
                   "got %r\n" % betas)


@pytest.mark.parametrize("argv", [
    ("series", "x", "--order", "-1"),
    ("numerator", "euler", "--a", "1+x", "--n", "-1"),
    ("numerator", "narayana", "--a", "1+x", "--n", "1", "--order", "-5"),
    ("matrix", "W", "--n", "2", "--m", "-1"),
    ("matrix", "U", "--n", "-3"),
])
def test_negative_sizes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["G", "H"])
@pytest.mark.parametrize("beta", ["1/0", "abc"])
def test_bad_beta_is_usage_error(capsys, kind, beta):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", kind, "--n", "2", "--beta", beta])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("argument --beta: not a rational: %r" % beta)
    assert "Traceback" not in err


# every constructor words a zero order through the one count check
@pytest.mark.parametrize("argv, message", [
    (("matrix", "F", "--n", "0"), "n must be a positive integer, got 0"),
    (("matrix", "Ut", "--n", "0"), "n must be a positive integer, got 0"),
    (("matrix", "Dt", "--n", "0"), "n must be a positive integer, got 0"),
    (("matrix", "W", "--n", "0", "--m", "2"), "n must be a positive integer, got 0"),
    (("matrix", "W", "--n", "2", "--m", "0"), "m must be a positive integer, got 0"),
    (("matrix", "G", "--n", "0", "--beta", "1"), "n must be a positive integer, got 0"),
])
def test_zero_orders_are_one_line_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: %s\n" % message


def test_consistency_error_is_one_line(capsys, monkeypatch):
    import riordan.cli as cli

    def disagree(expr, order):
        raise ConsistencyError("reversion routes disagree")

    monkeypatch.setattr(cli, "parse_series", disagree)
    code, out, err = run(capsys, "series", "rev(x-x*x)", "--order", "4")
    assert code == 1 and out == ""
    assert err == "consistency error: reversion routes disagree\n"


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_verify_rejects_vacuous_max_n(capsys, max_n):
    code, out, err = run(capsys, "verify", "--suite", "thm2.1",
                         "--max-n=" + max_n)
    assert code == 2 and out == ""
    assert "max_n must be at least 1" in err


def test_run_suite_rejects_vacuous_max_n():
    with pytest.raises(DomainError):
        run_suite("thm2.1", max_n=0)


@pytest.mark.parametrize("kw, message", [
    ({"max_n": 2.0}, "max_n must be at least 1, got 2.0"),
    ({"max_n": Fraction(2)}, "max_n must be at least 1, got Fraction(2, 1)"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
])
def test_run_suite_rejects_inexact_max_n_and_seed(kw, message):
    with pytest.raises(DomainError) as exc:
        run_suite("thm2.1", **kw)
    assert str(exc.value) == message


def test_run_suite_rejects_float_betas():
    with pytest.raises(TypeError, match="not an exact rational"):
        run_suite("thm6.1", betas=(0.1,))


def test_run_suite_compares_words_and_counts(monkeypatch):
    import riordan.verify as verify

    def six_wrong(ctx):
        for k in range(6):
            yield "k=%d" % k, k, k + 1

    def raises_after_a_wrong_one(ctx):
        yield "first", 1, 2
        raise ValueError("boom")

    monkeypatch.setattr(verify, "_CHECKS", [
        ("six-wrong", six_wrong),
        ("raises", raises_after_a_wrong_one),
        ("empty", lambda ctx: iter(())),
        ("right", lambda ctx: iter([("one", [1, 2], [1, 2])])),
    ])
    results = [run_suite(name).results[0]
               for name in ("six-wrong", "raises", "empty", "right")]
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("six-wrong", False, "k=0: got 0, want 1; k=1: got 1, want 2; "
                             "k=2: got 2, want 3; k=3: got 3, want 4; and 2 more"),
        ("raises", False, "raised ValueError: boom"),
        ("empty", False, "no comparisons made"),
        ("right", True, ""),
    ]


def test_checks_with_nothing_to_compare_at_max_n_1_fail():
    # thm8.1, thm9.1 and thm9.4 start at n = 2; thm4.4 needs n = 2 for the
    # perturbed series to break the symmetry
    failed = [r.name for r in run_suite("all", max_n=1).results if not r.passed]
    assert failed == ["thm4.4", "thm8.1", "thm9.1", "thm9.4"]
