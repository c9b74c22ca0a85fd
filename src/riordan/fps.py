"""Truncated formal power series and bounded-degree polynomials over Q.

Coefficients are ``fractions.Fraction`` throughout; nothing here ever
rounds.  A :class:`Series` carries an explicit truncation order, and
binary operations return the smaller order of the two operands, so no
coefficient is ever fabricated beyond what both inputs determine.  Two
series are equal only when their orders are equal and so are their
coefficients; a caller that means a shorter comparison truncates first.

A :class:`Poly` is exact (not truncated) and carries a declared degree
bound that may exceed its true degree; the reversal operator depends on
the bound, not the degree.  Its equality pads the shorter side with
zeros, so polynomials with different bounds compare by value.

Both are values on one private core, ``_Coeffs``: the coefficients are
a tuple of Fractions, fixed at construction, so no value changes once
built, and the size (a Series' order, a Poly's bound) is the tuple's
length less one.  The core defines the ring operations once, and each
class gives only the size of a result: a Series sum or product has the
smaller order of the two, a Poly sum the larger bound and a Poly product
the sum of the bounds.

Every product of coefficient lists (``Series * Series`` and
``Poly * Poly``) goes through one kernel, :func:`_convolve`, which uses
Kronecker substitution: each operand is scaled to integers over the lcm
of its denominators, the integers are packed into one Python int at a
fixed slot width, the two ints are multiplied once (CPython's Karatsuba
does the convolution) and the slots are read back as signed digits.
The result is exact, not a
heuristic: every product coefficient is an integer sum of at most
``min(len A, len B)`` terms, each at most ``max|A| * max|B|`` in
absolute value.  With slot width ``w`` = the bit length of
``max|A| * max|B| * min(len A, len B)``, plus 2, every coefficient is
below ``2^(w-2)`` in absolute value, well inside the signed digit range
``[-2^(w-1), 2^(w-1))``.  An integer has exactly one base-``2^w``
expansion with digits in that range, and reading the lowest slot as a
signed residue, then borrowing one into the next slot when that residue
was negative, recovers it digit by digit.  Dividing each digit by the
product of the two lcm denominators gives the rational coefficient.
The cost follows the packed size, so it grows with the lcm of an
operand's denominators rather than with each coefficient's own height.

Every rational dot product (``FinMatrix`` products and ``apply``, the
blocks of ``compose``, both numerator extractions) is one kernel,
:func:`_dots`.  With rows a_i = A_i/L and columns b_i = B_i/M over the
lcms L and M of their denominators, sum(a_i b_i) = sum(A_i B_i)/(L M)
exactly: one integer dot product and one reduced Fraction per entry, at
a cost that follows L and M rather than each entry's own height.

The inverse, the exponential and fractional powers run on integers too,
in the manner of FLINT's ``fmpq_poly``: the operand is written A/D with
integer A_j over the lcm D of its denominators (:func:`_to_ints`), each
step of the recurrence is one integer dot product, and each coefficient
becomes a reduced Fraction once, at the end.  Write n for the order.

- Inverse, with c = A_0 != 0: [x^k] 1/a = D N_k / c^(k+1), where N_0 = 1
  and N_k = -sum(A_j c^(j-1) N_(k-j), j = 1..k).  This is a c^(k+1)
  scaling of the schoolbook recurrence c b_k = -sum(A_j b_(k-j)), so
  every N_k is an integer.
- Exponential, with A_0 = 0: from k e_k = sum(j f_j e_(k-j)), [x^k] exp f
  = H_k / (n! D^k), where H_0 = n! and
  H_k = sum(j A_j D^(j-1) H_(k-j), j = 1..k) / k.
  By induction k! D^k e_k is an integer, since it equals
  sum(j A_j D^(j-1) (k-1)!/(k-j)! (k-j)! D^(k-j) e_(k-j)); so
  H_k = (n!/k!) k! D^k e_k is an integer and the division by k is exact.
- Fractional power e = p/q, with u(0) = 1 (so A_0 = D): J. C. P.
  Miller's recurrence k w_k = sum(((e+1) j - k) u_j w_(k-j)), read off
  u w' = e u' w (Knuth, TAOCP Vol. 2, 4.7), needs no logarithm.  With
  r = qD, [x^k] u^e = H_k / (n! r^k), where H_0 = n! and
  H_k = sum(((p+q) j - q k) A_j r^(j-1) H_(k-j), j = 1..k) / k, exact
  by the same argument with qD in place of D.

Known limit: the cost follows the common denominator, as it does for
``_convolve``.  N_k and H_k carry the full D^k even where the reduced
coefficient has a far smaller denominator, which a per-coefficient
Fraction loop would have reduced away at every step.  Measured on a
2-vCPU VM, Python 3.11, best of three: with pairwise-coprime 60-bit
denominators at order 32, inverse takes 116 ms (30 ms as a Fraction
loop), exp 115 ms (33 ms) and pow(1/2) 131 ms (89 ms through log and
exp); the inverse of exp(v) at order 64, for v with battery-style
coefficients (D of 296 bits), takes 85 ms (12 ms).  Battery-style inputs
at order 64 run 16, 21 and 26 times faster than the Fraction loops.

Composition f(g) at order n runs baby-step/giant-step (R. P. Brent and
H. T. Kung, "Fast algorithms for manipulating formal power series",
JACM 25, 1978, section 2).  With m = isqrt(n) (1 for n < 4), split f
into blocks of m coefficients, B_b = sum(f_(bm+i) g^i, i < m), so that
f(g) = B_0 + g^m (B_1 + g^m (B_2 + ...)).  This is the Horner sum
f_0 + g (f_1 + g (f_2 + ...)) regrouped: every term f_k g^k appears
once, as f_(bm+i) g^i (g^m)^b, and truncation at x^(n+1) commutes with
sums and products, so the result equals Horner's coefficient for
coefficient, at the same order min(f.order, g.order).  The cost:
m - 1 full products for the baby powers g^2..g^(m-1) and the giant
g^m; one :func:`_dots` call for all the blocks, f's blocks (padded with
zeros) against the columns [x^k] g^0..g^(m-1); then n // m full
products for the Horner steps in g^m.  That is about 2 sqrt(n) products
of the kernel above instead of n.

Where the library computes one value by two routes, :func:`agree` holds
the two results against each other.  It uses the values' own ``==`` and,
when they differ, raises ConsistencyError with one line
``"<route> (n=..., beta=...): <first difference>"``.  The difference
names the coefficient index of a Poly or Series, the (i, j) entry or the
shape of a FinMatrix, the index or length of a list, with both values
there, e.g. ``"Sinv: product against closed form (n=3): entry (0, 0):
got 1/6, want 1/3"``.  The verification battery words its failures with
the same comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, lcm
from operator import add, mul

Q = Fraction
_ZERO = Q(0)


class DomainError(ValueError):
    """An algebraic precondition does not hold."""


class RangeError(IndexError):
    """An index or truncation order is outside the computed range."""


class ConsistencyError(ArithmeticError):
    """Two independent computation routes disagree."""


def _mismatch(got, want):
    """None when ``got == want`` (by the operands' own ``==``); otherwise
    one line naming the first place the two differ, with both values there.

    Series of different orders give the orders, and otherwise Poly and
    Series give the coefficient index; FinMatrix gives the (i, j) entry or
    the shape, lists and tuples the index or the length, and anything else
    the two values.
    """
    if got == want:
        return None
    from .matrix import FinMatrix  # matrix imports this module

    kind = type(got) if type(got) is type(want) else None
    if kind is Series and got.order != want.order:
        return "order %d, want %d" % (got.order, want.order)
    if kind in (Poly, Series):
        # Poly pads the shorter side with zeros, as its == does
        n = max(len(got.coeffs), len(want.coeffs))
        a = got.coeffs + (_ZERO,) * (n - len(got.coeffs))
        b = want.coeffs + (_ZERO,) * (n - len(want.coeffs))
        k = next(k for k in range(n) if a[k] != b[k])
        return "coefficient %d: got %s, want %s" % (k, a[k], b[k])
    if kind is FinMatrix:
        if (got.n_rows, got.n_cols) != (want.n_rows, want.n_cols):
            return "shape %dx%d, want %dx%d" % (got.n_rows, got.n_cols,
                                                want.n_rows, want.n_cols)
        i, j = next((i, j) for i in range(got.n_rows) for j in range(got.n_cols)
                    if got.data[i][j] != want.data[i][j])
        return "entry (%d, %d): got %s, want %s" % (i, j, got.data[i][j], want.data[i][j])
    if kind in (list, tuple):
        for k, (x, y) in enumerate(zip(got, want)):
            if x != y:
                return "index %d: %s" % (k, _mismatch(x, y))
        return "length %d, want %d" % (len(got), len(want))
    return "got %s, want %s" % (got, want)


def agree(route: str, got, want, **params) -> None:
    """The one check that two routes to a value agree.

    Returns when ``got == want``; otherwise raises ConsistencyError with
    the message ``"<route> (n=..., beta=...): <first difference>"``, the
    parameters in the order given and the difference as
    :func:`_mismatch` words it.
    """
    diff = _mismatch(got, want)
    if diff is not None:
        where = ", ".join("%s=%s" % kv for kv in params.items())
        raise ConsistencyError("%s (%s): %s" % (route, where, diff))


class PoleError(DomainError):
    """A closed-form coefficient hits a pole of its parameters."""


def _q(value) -> Fraction:
    """Coerce to an exact rational; floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError("not an exact rational: %r" % (value,))


def _count(what: str, n, least: int = 0) -> int:
    """``n`` itself when it is an int >= ``least`` (0 or 1); otherwise a
    DomainError naming ``what``.  The one check of an order, a size, an
    index or a count that arrives from a caller."""
    if not isinstance(n, int) or n < least:
        raise DomainError("%s must be a %s integer, got %r"
                          % (what, ("nonnegative", "positive")[least], n))
    return n


def _power(base, k: int, one):
    """base ** k for an int k >= 0 by square-and-multiply, starting from
    ``base`` so that no product has the unit as an operand; ``one`` is
    the answer for k = 0.  The caller checks k and deals with its sign."""
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return one if out is None else out


def _powers(f, g, count: int) -> list:
    """f, f*g, ..., f*g^(count-1), one product per step: for series, the
    first ``count`` column series of the pair (f, g).  When f is the unit
    series the second entry is g itself (cut to f's order), not 1*g."""
    powers = [f]
    if count > 1 and f == 1:
        powers.append(g if g.order <= f.order else g.truncate(f.order))
    while len(powers) < count:
        powers.append(powers[-1] * g)
    return powers[:count]


_SCALARS = (int, Fraction)


def _to_ints(coeffs):
    """Integer numerators over the lcm of the denominators, and that lcm."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _ratio(num: int, den: int) -> Fraction:
    """The reduced Fraction num/den (den != 0)."""
    return _ZERO if num == 0 else Q(num) if den == 1 else Q(num, den)


def _dots(rows, cols) -> list:
    """[[sum(r * c) for c in cols] for r in rows] for vectors of one
    length, on integers over the rows' and the columns' lcm denominators
    (see the module docstring)."""
    scaled = []
    for vectors in (rows, cols):
        flat, den = _to_ints([v for vec in vectors for v in vec])
        w = len(vectors[0])
        scaled.append(([flat[i:i + w] for i in range(0, len(flat), w)], den))
    (rows, da), (cols, db) = scaled
    den = da * db
    return [[_ratio(sum(map(mul, r, c)), den) for c in cols] for r in rows]


def _weights(ints, r: int) -> list:
    """[A_1, A_2 r, A_3 r^2, ...]: A_j r^(j-1) for j = 1..len(ints)-1."""
    out, rp = [], 1
    for v in ints[1:]:
        out.append(v * rp)
        rp *= r
    return out


def _step(w, h) -> int:
    """sum(w_j h_(k-j) for j = 1..k) with k = len(h), where ``w`` yields
    w_1, w_2, ...: the next term of a linear recurrence, as one integer
    dot product."""
    return sum(map(mul, w, reversed(h)))


def _unscale(h, den: int, r: int) -> list:
    """The Fractions h_k / (den r^k) for k = 0..len(h)-1."""
    out = []
    for v in h:
        out.append(_ratio(v, den))
        den *= r
    return out


def _convolve(a, b, n: int) -> list:
    """Coefficients 0..n of the product of two nonempty Fraction lists,
    exactly, by Kronecker substitution (see the module docstring)."""
    a, b = a[: n + 1], b[: n + 1]
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # a scalar times a list: packing would cost more
        c = a[0]
        out = [c * v for v in b]
        out.extend([_ZERO] * (n + 1 - len(out)))
        return out
    ia, da = _to_ints(a)
    ib, db = _to_ints(b)
    w = (max(map(abs, ia)) * max(map(abs, ib)) * len(a)).bit_length() + 2
    pa = pb = 0
    for v in reversed(ia):
        pa = (pa << w) + v
    for v in reversed(ib):
        pb = (pb << w) + v
    p = pa * pb
    mask, half, full = (1 << w) - 1, 1 << (w - 1), 1 << w
    den = da * db
    out = []
    for _ in range(n + 1):
        d = p & mask
        p >>= w
        if d >= half:  # negative digit: borrow one from the next slot
            d -= full
            p += 1
        out.append(_ratio(d, den))
    return out


class _Coeffs:
    """The value core of Poly and Series (see the module docstring).  A
    subclass names its size (``_SIZE``), fits coefficients to a size
    (``_fit``) and gives the size of a sum and of a product."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, size=None):
        # from a list: CPython resizes a tuple built from an iterator, and its
        # free lists then hoard the freed ones (2 MB of peak memory in the battery)
        coeffs = tuple([_q(c) for c in coeffs])
        if size is None:
            size = max(len(coeffs) - 1, 0)
        self.coeffs = self._fit(coeffs, _count(self._SIZE, size))

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return type(self)((self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        return type(self)([*map(add, a, b), *b[len(a): self._add_size(other) + 1]])

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            q = _q(other)
            return type(self)([c * q for c in self.coeffs])
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(_convolve(self.coeffs, other.coeffs, self._mul_size(other)))

    __rmul__ = __mul__

    def __repr__(self):
        return "%s(%s, %s=%d)" % (type(self).__name__, [str(c) for c in self.coeffs],
                                  self._SIZE, len(self.coeffs) - 1)


class Poly(_Coeffs):
    """Dense exact-rational polynomial with an explicit degree bound."""

    __slots__ = ()
    _SIZE = "bound"

    @staticmethod
    def _fit(coeffs, bound):
        """Zeros pad the coefficients to bound + 1; only zeros may be cut."""
        if any(coeffs[bound + 1:]):
            raise DomainError("degree exceeds declared bound")
        return coeffs[: bound + 1] + (_ZERO,) * (bound + 1 - len(coeffs))

    def _add_size(self, other):
        return max(self.bound, other.bound)

    def _mul_size(self, other):
        return self.bound + other.bound

    @property
    def bound(self) -> int:
        """The declared degree bound, which may exceed the true degree."""
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, bound=0) -> "Poly":
        return cls([], bound)

    @classmethod
    def one(cls, bound=0) -> "Poly":
        return cls([1], bound)

    @classmethod
    def monomial(cls, k: int) -> "Poly":
        _count("degree", k)
        return cls([_ZERO] * k + [1], k)

    def coeff(self, k: int) -> Fraction:
        """Coefficient k; zero beyond the bound."""
        if _count("coefficient index", k) < len(self.coeffs):
            return self.coeffs[k]
        return Q(0)

    def degree(self) -> int:
        """True degree (0 for the zero polynomial)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0:
                return k
        return 0

    def with_bound(self, bound: int) -> "Poly":
        return Poly(self.coeffs, bound)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = sorted((self.coeffs, other.coeffs), key=len)  # both zero-padded
        return a == b[: len(a)] and not any(b[len(a):])

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("polynomial powers need a nonnegative integer exponent")
        return _power(self, k, Poly.one())

    def eval(self, point) -> Fraction:
        point = _q(point)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def reverse(self) -> "Poly":
        """Coefficient reversal relative to the declared bound."""
        return Poly(self.coeffs[::-1])

    def div_x(self) -> "Poly":
        """Divide by x; needs a zero constant term, and the bound drops by
        one (to no less than 0)."""
        if self.coeffs[0] != 0:
            raise DomainError("not divisible by x")
        return Poly(self.coeffs[1:], max(self.bound - 1, 0))

    def to_series(self, order: int) -> "Series":
        """Exact embedding: a polynomial determines every coefficient."""
        if _count("order", order) < self.degree():
            raise DomainError("polynomial degree exceeds requested order")
        return Series((self.coeffs + (_ZERO,) * order)[: order + 1], order)


class Series(_Coeffs):
    """Formal power series truncated at a fixed order (inclusive)."""

    __slots__ = ()
    _SIZE = "order"

    @staticmethod
    def _fit(coeffs, order):
        if len(coeffs) != order + 1:
            raise DomainError("need exactly order+1 coefficients")
        return coeffs

    def _add_size(self, other):
        return min(self.order, other.order)

    _mul_size = _add_size

    @property
    def order(self) -> int:
        """The truncation order: coefficients 0..order are known."""
        return len(self.coeffs) - 1

    # -- constructors ------------------------------------------------

    @classmethod
    def from_poly(cls, coeffs, order: int) -> "Series":
        """Declare a polynomial as an exact series at the given order."""
        if isinstance(coeffs, Poly):
            return coeffs.to_series(order)
        return Poly(coeffs).to_series(order)

    @classmethod
    def const(cls, c, order: int) -> "Series":
        return cls.from_poly([c], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.const(1, order)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.const(0, order)

    @classmethod
    def x(cls, order: int) -> "Series":
        """x, which is the zero series at order 0."""
        return cls(((_ZERO, Q(1)) + (_ZERO,) * _count("order", order))[: order + 1], order)

    @classmethod
    def geometric(cls, order: int) -> "Series":
        """1/(1-x)."""
        return cls([Q(1)] * (_count("order", order) + 1), order)

    # -- basics ------------------------------------------------------

    def coeff(self, k: int) -> Fraction:
        if _count("coefficient index", k) > self.order:
            raise RangeError("coefficient %d beyond truncation order %d" % (k, self.order))
        return self.coeffs[k]

    __getitem__ = coeff

    def truncate(self, order: int) -> "Series":
        if _count("order", order) > self.order:
            raise RangeError("cannot extend a truncated series")
        return Series(self.coeffs[: order + 1], order)

    def __eq__(self, other):
        """Equal orders and equal coefficients; a scalar is the constant
        series at this series' order."""
        if isinstance(other, _SCALARS):
            other = Series.const(other, self.order)
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- ring operations ----------------------------------------------

    def inverse(self) -> "Series":
        """Multiplicative inverse; needs a nonzero constant term.

        With self = A/D over the integers and c = A_0, coefficient k is
        D N_k / c^(k+1), where N_0 = 1 and N_k = -sum(A_j c^(j-1) N_(k-j)).
        """
        a, d = _to_ints(self.coeffs)
        c = a[0]
        if c == 0:
            raise DomainError("division by a series with zero constant term")
        w = _weights(a, c)
        nums = [1]
        for _ in range(self.order):
            nums.append(-_step(w, nums))
        return Series(_unscale([d * v for v in nums], c, c), self.order)

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            q = _q(other)
            if q == 0:
                raise ZeroDivisionError("series divided by zero")
            return Series([c / q for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.inverse() * _q(other)
        return NotImplemented

    def mul_x(self) -> "Series":
        """Multiply by x; the order grows by one (coefficients all known)."""
        return Series((_ZERO,) + self.coeffs, self.order + 1)

    def div_x(self) -> "Series":
        """Divide by x; needs a zero constant term, order drops by one."""
        if self.coeffs[0] != 0:
            raise DomainError("not divisible by x")
        if self.order == 0:
            raise RangeError("order too small to divide by x")
        return Series(self.coeffs[1:], self.order - 1)

    # -- composition and reversion -------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner(x)); the inner series needs a zero constant term.

        Baby-step/giant-step (Brent and Kung): with n the order and
        m = isqrt(n), the blocks B_b = sum(f_(bm+i) g^i, i < m) are one
        :func:`_dots` call against the baby powers g^0..g^(m-1), and
        f(g) = B_0 + g^m (B_1 + g^m (B_2 + ...)) by Horner in g^m (see the
        module docstring).
        """
        if inner.coeffs[0] != 0:
            raise DomainError("composition needs zero constant term inside")
        n = min(self.order, inner.order)
        m = max(isqrt(n), 1)
        powers = _powers(Series.one(n), inner.truncate(n), m + 1)
        giant = powers.pop()  # g^m; g^0..g^(m-1) stay as the baby steps
        cols = list(zip(*[p.coeffs for p in powers]))  # cols[k][i] = [x^k] g^i
        f = self.coeffs[: n + 1] + (_ZERO,) * (m - 1)
        blocks = _dots([f[b: b + m] for b in range(0, n + 1, m)], cols)
        acc = Series(blocks.pop(), n)
        for block in reversed(blocks):
            acc = acc * giant + Series(block, n)
        return acc

    def reversion(self) -> "Series":
        """Compositional inverse by Lagrange inversion,
        [x^m] rev = [x^(m-1)] (x/self)^m / m, checked by self(rev) = x.

        The check settles the result: with g1 the linear coefficient of
        self, coefficient k of self(h) is g1*h_k plus a polynomial in
        h_1..h_(k-1), so with g1 != 0 exactly one h with zero constant
        term satisfies self(h) = x through order n.  A rev that passes is
        therefore the reversion; for one that does not, :func:`agree`
        raises ConsistencyError.
        """
        n = self.order
        if n < 1 or self.coeffs[0] != 0:
            raise DomainError("reversion needs zero constant term and order >= 1")
        if self.coeffs[1] == 0:
            raise DomainError("reversion needs a nonzero linear coefficient")
        v = self.div_x().inverse()
        rev = Series([Q(0)] + [p.coeffs[m - 1] / m
                               for m, p in enumerate(_powers(v, v, n), 1)], n)
        agree("reversion: self(rev) against x", self.compose(rev), Series.x(n), n=n)
        return rev

    # -- transcendental-style operations -------------------------------

    def derivative(self) -> "Series":
        if self.order == 0:
            raise RangeError("derivative of an order-0 truncation is unknown")
        return Series([k * self.coeffs[k] for k in range(1, self.order + 1)],
                      self.order - 1)

    def log(self) -> "Series":
        if self.coeffs[0] != 1:
            raise DomainError("log needs constant term 1")
        if self.order == 0:
            return Series([Q(0)], 0)
        d = self.derivative() / self.truncate(self.order - 1)
        out = [Q(0)] + [d.coeffs[k - 1] / k for k in range(1, self.order + 1)]
        return Series(out, self.order)

    def exp(self) -> "Series":
        """exp(self); needs a zero constant term.

        With self = A/D over the integers and n the order, coefficient k
        is H_k / (n! D^k), where H_0 = n! and
        H_k = sum(j A_j D^(j-1) H_(k-j)) / k (see the module docstring).
        """
        if self.coeffs[0] != 0:
            raise DomainError("exp needs zero constant term")
        a, d = _to_ints(self.coeffs)
        w = [j * v for j, v in enumerate(_weights(a, d), 1)]
        h = [factorial(self.order)]
        for k in range(1, self.order + 1):
            h.append(_step(w, h) // k)
        return Series(_unscale(h, h[0], d), self.order)

    def pow(self, exponent) -> "Series":
        """Rational power.  Integer exponents work for any invertible
        series, negative ones through the reciprocal of the positive
        power; fractional ones need constant term 1.

        A fractional e = p/q follows J. C. P. Miller's recurrence
        k w_k = sum(((e+1) j - k) u_j w_(k-j)) (from u w' = e u' w).  With
        self = U/D over the integers, n the order and r = qD, coefficient
        k is H_k / (n! r^k), where H_0 = n! and
        H_k = sum(((p+q) j - q k) U_j r^(j-1) H_(k-j)) / k.
        """
        e = _q(exponent)
        if e.denominator != 1:
            if self.coeffs[0] != 1:
                raise DomainError("fractional powers need constant term 1")
            p, q = e.numerator, e.denominator
            u, d = _to_ints(self.coeffs)
            r = q * d
            w = _weights(u, r)
            h = [factorial(self.order)]
            for k in range(1, self.order + 1):
                c1 = p + q - q * k  # (p+q) j - q k at j = 1, rising by p+q
                h.append(_step(map(mul, range(c1, c1 + k * (p + q), p + q), w), h) // k)
            return Series(_unscale(h, h[0], r), self.order)
        if e < 0:
            return self.pow(-e).inverse()
        return _power(self, e.numerator, Series.one(self.order))

    __pow__ = pow

    def sqrt(self) -> "Series":
        return self.pow(Q(1, 2))


def xdlog(a: Series) -> Series:
    """x * (log a)' at the order of ``a``; needs constant term 1."""
    if a.coeffs[0] != 1:
        raise DomainError("logarithmic derivative needs constant term 1")
    if a.order == 0:
        raise RangeError("order too small")
    return (a.derivative() / a.truncate(a.order - 1)).mul_x()
