"""Recursive-descent parser for the command-line series language.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := RAT | 'x' | '(' expr ')' | FUNC '(' args ')' | 'catalan'
    RAT    := INT ('/' INT)?          INT := a run of decimal digits

Functions: pow(e, RAT), log(e), exp(e), sqrt(e), rev(e), genbin(RAT, RAT)
and catalan, from one table, name -> (argument kinds, value at an order),
that drives parsing and :func:`evaluate`.  A rational argument may carry
a leading minus sign (the expression grammar has no unary minus).  Every
bad input raises :class:`ParseError` with its position, a character that
is not a decimal digit (``str.isdecimal``, what ``int`` reads), letter,
space or grammar mark included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from operator import add, mul, sub, truediv

from .fps import Q, Series


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def _genbin(order, beta, phi):
    from .genlagrange import gen_binomial_series  # at call time, so a rebinding reaches it

    return gen_binomial_series(beta, phi, order)


# e: an expression, r: a rational.  Methods are looked up at call time, for rebinding.
_FUNCTIONS = {
    "pow": ("er", lambda order, e, r: e.pow(r)),
    "log": ("e", lambda order, e: e.log()),
    "exp": ("e", lambda order, e: e.exp()),
    "sqrt": ("e", lambda order, e: e.sqrt()),
    "rev": ("e", lambda order, e: e.reversion()),
    "genbin": ("rr", _genbin),
    "catalan": ("", lambda order: _genbin(order, 2, 1)),
}

_OPERATORS = {"add": add, "sub": sub, "mul": mul, "div": truediv}
_OPERATOR_NAMES = dict(zip("+-*/", _OPERATORS))


def _char_kind(c: str):
    """Token kind of a character: int, name, space, the mark, or None."""
    if c.isdecimal():
        return "int"
    if c.isalpha():
        return "name"
    if c.isspace():
        return "space"
    return c if c in "+-*/()," else None


def _tokenize(text: str) -> list:
    """(kind, text, position) tuples, ending with an "end" token."""
    out, i = [], 0
    for kind, run in groupby(map(_char_kind, text)):
        size = len(list(run))
        if kind is None:
            raise ParseError("unexpected character %r" % text[i], i)
        if kind in ("int", "name"):
            out.append((kind, text[i:i + size], i))
        elif kind != "space":
            out.extend((kind, kind, j) for j in range(i, i + size))
        i += size
    return out + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self, ahead: int = 0) -> tuple:
        return self.tokens[self.k + ahead]

    def next(self) -> tuple:
        self.k += 1
        return self.tokens[self.k - 1]

    def expect(self, kind: str) -> tuple:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1] or "end"), tok[2])
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            node = (_OPERATOR_NAMES[self.next()[0]], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            node = (_OPERATOR_NAMES[self.next()[0]], node, self.factor())
        return node

    def rational(self) -> Fraction:
        negative = self.peek()[0] == "-"
        if negative:
            self.next()
        value = Q(int(self.expect("int")[1]))
        # a '/' continues the literal only when an integer follows;
        # otherwise it is term-level division
        if self.peek()[0] == "/" and self.peek(1)[0] == "int":
            self.next()
            _, den, pos = self.next()
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
            value /= int(den)
        return -value if negative else value

    def factor(self):
        kind, name, pos = self.peek()
        if kind == "int":
            return ("num", self.rational())
        self.next()
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind != "name":
            raise ParseError("expected a factor, found %r" % (name or "end"), pos)
        if name == "x":
            return ("x",)
        if name not in _FUNCTIONS:
            raise ParseError("unknown name %r" % name, pos)
        kinds = _FUNCTIONS[name][0]
        if not kinds and self.peek()[0] != "(":
            return (name,)
        self.expect("(")
        args = [name]
        for i, arg in enumerate(kinds):
            if i:
                self.expect(",")
            args.append(self.expr() if arg == "e" else self.rational())
        self.expect(")")
        return tuple(args)


def parse(text: str):
    """Parse to an AST of nested tuples."""
    parser = _Parser(text)
    try:
        node = parser.expr()
    except RecursionError:  # each nesting level costs three frames
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    kind, rest, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % rest, pos)
    return node


def evaluate(node, order: int) -> Series:
    """Evaluate an AST at the requested truncation order.  A left-leaning
    operator chain (a long sum) is folded in a loop, left to right."""
    chain = []
    while node[0] in _OPERATORS:
        chain.append(node)
        node = node[1]
    kind, *args = node
    if kind == "num":
        value = Series.const(args[0], order)
    elif kind == "x":
        value = Series.x(order)
    else:
        kinds, function = _FUNCTIONS[kind]
        value = function(order, *(evaluate(a, order) if k == "e" else a
                                  for k, a in zip(kinds, args)))
    for kind, _, right in reversed(chain):
        value = _OPERATORS[kind](value, evaluate(right, order))
    return value


def parse_series(text: str, order: int) -> Series:
    return evaluate(parse(text), order)
