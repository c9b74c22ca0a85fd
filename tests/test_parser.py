import random
from fractions import Fraction as Q

import pytest

from riordan.fps import DomainError, Series
from riordan.parser import ParseError, parse, parse_series


def test_basic_rationals_and_x():
    assert parse_series("3/4", 3) == Series.const(Q(3, 4), 3)
    assert parse_series("x", 3) == Series.x(3)
    assert parse_series("1 + x*x", 4) == Series.from_poly([1, 0, 1], 4)


def test_precedence_and_parentheses():
    assert parse_series("1+2*3", 0) == Series.const(7, 0)
    assert parse_series("(1+2)*3", 0) == Series.const(9, 0)
    assert parse_series("1-1/2", 0) == Series.const(Q(1, 2), 0)


def test_geometric_series():
    assert parse_series("1/(1-x)", 6) == Series.geometric(6)


def test_whitespace_insignificant():
    a = parse_series(" 1 /(1 - x )", 5)
    assert a == Series.geometric(5)


def test_functions():
    assert parse_series("exp(x)", 4) == Series.x(4).exp()
    assert parse_series("log(1+x)", 4) == Series.from_poly([1, 1], 4).log()
    assert parse_series("sqrt(1+x)", 4) == Series.from_poly([1, 1], 4).pow(Q(1, 2))
    assert parse_series("pow(1+x, -3/2)", 4) == Series.from_poly([1, 1], 4).pow(Q(-3, 2))
    assert parse_series("rev(x-x*x)", 5) == Series([0, 1, 1, 2, 5, 14], 5)


def test_catalan_with_and_without_parens():
    want = Series([1, 1, 2, 5, 14], 4)
    assert parse_series("catalan", 4) == want
    assert parse_series("catalan()", 4) == want
    assert parse_series("genbin(2, 1)", 4) == want


def test_genbin_negative_arguments():
    got = parse_series("genbin(-1, -1)", 5)
    direct = parse_series("1/((1 + sqrt(1+4*x))/2)", 5)
    assert got == direct


def test_nested_expressions():
    got = parse_series("1 + x*(log(1/(1-x)) + exp(x))", 6)
    inner = Series.geometric(6).log() + Series.x(6).exp()
    assert got == Series.x(6) * inner + 1


def test_nesting_limit_is_a_function_of_the_text():
    deep = "(" * 400 + "x" + ")" * 400

    def parse_from(frames):
        """The error parsing ``deep`` from ``frames`` frames further down."""
        if frames:
            return parse_from(frames - 1)
        with pytest.raises(ParseError) as err:
            parse(deep)
        return str(err.value), err.value.position

    want = ("expression nested too deeply (at position 200)", 200)
    assert parse_from(0) == parse_from(100) == want
    # 200 levels, the top one included, parse and evaluate; function calls count too
    assert parse_series("(" * 199 + "x" + ")" * 199, 2) == Series.x(2)
    assert parse_series("rev(" * 199 + "x" + ")" * 199, 2) == Series.x(2)
    with pytest.raises(ParseError, match=r"nested too deeply \(at position 800\)$"):
        parse("rev(" * 200 + "x" + ")" * 200)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("1 + ")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("1 + $")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse("pow(x 2)")
    with pytest.raises(ParseError):
        parse("1/2/")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("1 2")


def test_evaluation_domain_errors_propagate():
    with pytest.raises(DomainError):
        parse_series("1/x", 4)
    with pytest.raises(DomainError):
        parse_series("log(2+x)", 4)
    with pytest.raises(DomainError):
        parse_series("rev(1+x)", 4)


def test_ast_shape():
    assert parse("x") == ("x",)
    assert parse("genbin(1/2, -1)") == ("genbin", Q(1, 2), Q(-1))
    kind, left, right = parse("1+x")
    assert kind == "add" and left == ("num", Q(1)) and right == ("x",)


# -- seeded fuzz --------------------------------------------------------------

MARKS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
LEAVES = ("num", "x", "catalan", "genbin")
INNER = (*MARKS, "pow", "log", "exp", "sqrt", "rev")


def _random_rational(rng, signed):
    value = Q(rng.randint(0, 30), rng.choice([1, 1, 2, 3, 7]))
    return -value if signed and rng.random() < 0.4 else value


def _random_ast(rng, depth):
    """A random AST of at most ``depth`` levels over every node shape."""
    kind = rng.choice(LEAVES + INNER if depth else LEAVES)
    if kind == "num":
        return ("num", _random_rational(rng, False))
    if kind in ("x", "catalan"):
        return (kind,)
    if kind == "genbin":
        return (kind, _random_rational(rng, True), _random_rational(rng, True))
    if kind in MARKS:
        return (kind, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == "pow":
        return (kind, _random_ast(rng, depth - 1), _random_rational(rng, True))
    return (kind, _random_ast(rng, depth - 1))


def _literal(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _text(node, rng):
    """The AST in the series language with random spacing.  Operands are
    parenthesized, so that the division of two literals stays a division."""
    kind, *args = node
    space = rng.choice(("", "", " ", "  "))
    if kind == "num":
        return _literal(args[0])
    if kind == "x":
        return "x"
    if kind == "catalan":
        return rng.choice(("catalan", "catalan()", "catalan( )"))
    if kind in MARKS:
        return "(%s)%s%s%s(%s)" % (_text(args[0], rng), space, MARKS[kind], space,
                                  _text(args[1], rng))
    if kind == "genbin":
        return "genbin(%s,%s%s)" % (_literal(args[0]), space, _literal(args[1]))
    if kind == "pow":
        return "pow(%s,%s%s)" % (_text(args[0], rng), space, _literal(args[1]))
    return "%s(%s%s%s)" % (kind, space, _text(args[0], rng), space)


def test_printed_ast_parses_back_to_itself():
    rng = random.Random(20261019)
    for _ in range(2000):
        node = _random_ast(rng, rng.randint(0, 4))
        text = _text(node, rng)
        assert parse(text) == node, text


def test_random_strings_parse_or_raise_a_positioned_parse_error():
    # besides the language, the alphabet has digits that int() does not
    # read (superscript two, Arabic-Indic one), a vulgar half, a letter
    # outside ASCII and marks outside the grammar
    rng = random.Random(20261019)
    atoms = (list("0123456789abcxyzgpqe+-*/(), ") + list(LEAVES[2:] + INNER[4:])
             + ["\u00b2", "\u0661", "\u00bd", "\u00e9", "_", "^", "."])
    for _ in range(20000):
        text = "".join(rng.choice(atoms) for _ in range(12))[:rng.randint(0, 12)]
        try:
            assert isinstance(parse(text), tuple), text
        except ParseError as err:
            assert 0 <= err.position <= len(text), text
