"""Dense exact-rational matrices of small fixed size.

The matrices here act on coefficient column vectors of polynomials whose
declared bound matches the matrix width; ``apply`` enforces that
convention.  A matrix is immutable: ``data`` is a tuple of row tuples,
every operation builds a new matrix, and ``row``/``column`` return fresh
lists, so one matrix can be shared by every caller that asks for it.

Products and ``apply`` are one call each of ``fps._dots``, the one
rational dot-product kernel: the left rows against the right columns (or
the coefficient column), on integers over two common denominators.  A
matrix keeps the integer form of its rows and of its columns, each made
by ``fps`` on first use, so a matrix shared through a memo is scaled
once; only ``fps`` knows what that form holds.
"""

from __future__ import annotations

from fractions import Fraction

from .fps import DomainError, Poly, Q, RangeError, _count, _dots, _power, _q, _Scaled

_SCALARS = (int, Fraction)


class FinMatrix:
    __slots__ = ("n_rows", "n_cols", "data", "_row_form", "_col_form")

    def __init__(self, rows):
        data = tuple([tuple([_q(v) for v in row]) for row in rows])
        if not data or not data[0]:
            raise DomainError("matrix needs at least one entry")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DomainError("ragged rows")
        self.data = data
        self.n_rows = len(data)
        self.n_cols = width
        self._row_form = self._col_form = None

    def _rows(self) -> _Scaled:
        """The rows in the operand form of ``fps._dots``, made on first use."""
        if self._row_form is None:
            self._row_form = _Scaled(self.data)
        return self._row_form

    def _cols(self) -> _Scaled:
        """The columns in the operand form of ``fps._dots``, made on first use."""
        if self._col_form is None:
            self._col_form = _Scaled(list(zip(*self.data)))
        return self._col_form

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "FinMatrix":
        return cls.diag([1] * _count("identity size", n, 1))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "FinMatrix":
        _count("row count", rows, 1)
        _count("column count", cols, 1)
        return cls([[Q(0)] * cols for _ in range(rows)])

    @classmethod
    def diag(cls, entries) -> "FinMatrix":
        entries = [_q(e) for e in entries]
        n = len(entries)
        return cls([[entries[i] if i == j else Q(0) for j in range(n)]
                    for i in range(n)])

    @classmethod
    def from_columns(cls, polys, n_rows: int) -> "FinMatrix":
        """Column j holds the coefficients of the Poly polys[j], padded to n_rows."""
        cols = []
        for p in polys:
            if p.degree() > n_rows - 1:
                raise DomainError("column polynomial too long for the matrix")
            cols.append((p.coeffs + (Q(0),) * n_rows)[:n_rows])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n_rows)])

    # -- accessors -------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        if _count("row index", i) >= self.n_rows or _count("column index", j) >= self.n_cols:
            raise RangeError("entry (%d, %d) outside a %dx%d matrix"
                             % (i, j, self.n_rows, self.n_cols))
        return self.data[i][j]

    def row(self, i: int):
        self.entry(i, 0)  # checks the index
        return list(self.data[i])

    def column(self, j: int):
        self.entry(0, j)  # checks the index
        return [row[j] for row in self.data]

    def column_poly(self, j: int) -> Poly:
        return Poly(self.column(j), self.n_rows - 1)

    def column_sums(self):
        return [sum(self.column(j), Q(0)) for j in range(self.n_cols)]

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __eq__(self, other):
        if not isinstance(other, FinMatrix):
            return NotImplemented
        return self.data == other.data  # equal row tuples have equal shapes

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FinMatrix):
            return NotImplemented
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise DomainError("matrix shapes differ")
        return FinMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FinMatrix([[-a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            q = _q(other)
            return FinMatrix([[a * q for a in row] for row in self.data])
        if not isinstance(other, FinMatrix):
            return NotImplemented
        if self.n_cols != other.n_rows:
            raise DomainError("inner matrix dimensions differ")
        return FinMatrix(_dots(self._rows(), other._cols()))

    __rmul__ = __mul__  # Fraction products commute

    def __pow__(self, k: int):
        if not self.is_square():
            raise DomainError("powers need a square matrix")
        if not isinstance(k, int):
            raise DomainError("matrix powers need integer exponents")
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, FinMatrix.identity(self.n_rows))

    def inverse(self) -> "FinMatrix":
        """Gauss-Jordan elimination over Q."""
        if not self.is_square():
            raise DomainError("only square matrices invert")
        n = self.n_rows
        work = [list(row) for row in self.data]
        out = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            pivot = next((r for r in range(i, n) if work[r][i] != 0), None)
            if pivot is None:
                raise DomainError("matrix is singular")
            if pivot != i:
                work[i], work[pivot] = work[pivot], work[i]
                out[i], out[pivot] = out[pivot], out[i]
            inv = 1 / work[i][i]
            work[i] = [v * inv for v in work[i]]
            out[i] = [v * inv for v in out[i]]
            for r in range(n):
                if r != i and work[r][i] != 0:
                    f = work[r][i]
                    work[r] = [a - f * b for a, b in zip(work[r], work[i])]
                    out[r] = [a - f * b for a, b in zip(out[r], out[i])]
        return FinMatrix(out)

    def apply(self, poly: Poly) -> Poly:
        """Act on the coefficient column of a bound-(cols-1) polynomial."""
        if poly.bound != self.n_cols - 1:
            raise DomainError(
                "polynomial bound %d does not match matrix width %d"
                % (poly.bound, self.n_cols))
        return Poly([r[0] for r in _dots(self._rows(), [poly.coeffs])], self.n_rows - 1)

    def minor(self) -> "FinMatrix":
        """Strip the first row and column."""
        if self.n_rows < 2 or self.n_cols < 2:
            raise DomainError("matrix too small to strip")
        return FinMatrix([row[1:] for row in self.data[1:]])

    def __repr__(self):
        rows = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return "FinMatrix[%s]" % rows
