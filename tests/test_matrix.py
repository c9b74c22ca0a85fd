from fractions import Fraction as Q

import pytest

from riordan.fps import DomainError, Poly, RangeError
from riordan.matrix import FinMatrix


def test_multiplication_and_identity():
    a = FinMatrix([[1, 2], [3, 4]])
    i = FinMatrix.identity(2)
    assert a * i == a
    assert i * a == a
    assert a * FinMatrix([[0, 1], [1, 0]]) == FinMatrix([[2, 1], [4, 3]])


def test_inverse_exact():
    a = FinMatrix([[1, Q(1, 2)], [Q(1, 3), 1]])
    assert a * a.inverse() == FinMatrix.identity(2)
    with pytest.raises(DomainError):
        FinMatrix([[1, 2], [2, 4]]).inverse()


def test_bad_identity_size_is_a_domain_error():
    for bad in (-1, 0, 2.0, Q(2)):
        with pytest.raises(DomainError, match="identity size must be a positive integer"):
            FinMatrix.identity(bad)


def test_bad_zeros_size_and_entry_index_are_typed_errors():
    for bad in (-1, 0, 2.0, Q(2)):
        with pytest.raises(DomainError, match="row count must be a positive integer"):
            FinMatrix.zeros(bad, 2)
        with pytest.raises(DomainError, match="column count must be a positive integer"):
            FinMatrix.zeros(2, bad)
    a = FinMatrix([[1, 2], [3, 4]])
    for i, j in ((-1, 0), (0, -1), (2.0, 0), (0, Q(1))):
        with pytest.raises(DomainError, match="index must be a nonnegative integer"):
            a.entry(i, j)
    for i, j in ((2, 0), (0, 2)):
        with pytest.raises(RangeError):
            a.entry(i, j)
    assert a.entry(1, 0) == 3


def test_pow_negative_goes_through_inverse():
    a = FinMatrix([[1, 1], [0, 1]])
    assert a ** 3 == FinMatrix([[1, 3], [0, 1]])
    assert a ** -2 == FinMatrix([[1, -2], [0, 1]])
    assert a ** 0 == FinMatrix.identity(2)


def test_apply_enforces_bound_convention():
    m = FinMatrix([[1, 0], [1, 1]])
    assert m.apply(Poly([1, 1], 1)) == Poly([1, 2], 1)
    with pytest.raises(DomainError):
        m.apply(Poly([1, 1, 1], 2))


def test_from_columns_and_column_poly():
    m = FinMatrix.from_columns([Poly([1, 2]), Poly([0, 1])], 3)
    assert m == FinMatrix([[1, 0], [2, 1], [0, 0]])
    assert m.column_poly(0) == Poly([1, 2, 0], 2)


def test_column_sums():
    m = FinMatrix([[1, 2], [3, 4]])
    assert m.column_sums() == [4, 6]


def test_matrix_is_immutable():
    a = FinMatrix([[1, 2], [3, 4]])
    assert isinstance(a.data, tuple)
    assert all(isinstance(row, tuple) for row in a.data)
    with pytest.raises(TypeError):
        a.data[0][1] = Q(5)
    with pytest.raises(TypeError):
        a.data[0] = (Q(5), Q(6))
    row, col = a.row(0), a.column(0)
    row[0] = col[0] = Q(9)
    assert a == FinMatrix([[1, 2], [3, 4]])
