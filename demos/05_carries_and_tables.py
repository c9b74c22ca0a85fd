"""Carry-process matrices and the doubly infinite tables.

W(n, m) is built two independent ways: conjugating the dilation
c(x) -> m c(mx) by the order-n companions, and reading every m-th row
window of the power ((1-x^m)/(1-x))^(n+1).  The table machinery turns a
family of rows b*a^(phi k) into its ascending or descending diagonals
and back.
"""

from riordan import (Poly, Series, W_matrix, gen_lagrange_series,
                     strided_matrix, table_row)


def show(label, m):
    print(label)
    for row in m.data:
        print("   " + "  ".join(str(v) for v in row))


w32 = W_matrix(3, 2)
show("W(3,2):", w32)
print("column sums are m^n:", [str(s) for s in w32.column_sums()])
a3 = Poly([1, 4, 1], 2)
print("the Eulerian numerator is an eigenvector:",
      w32.apply(a3) == 8 * a3)
print("W(3,2)^2 = W(3,4):", w32 * w32 == W_matrix(3, 4))

window = (Poly([1, 1]) ** 4).to_series(8)
show("the same matrix as a stride-2 window of (1+x)^4:",
     strided_matrix(window, 2, 3))

# tables: rows b * a^(phi k); one re-reading maps row k to the ascending
# diagonal, and the inverse re-reading undoes it
b = Series.one(12)
a = Series.from_poly([1, -1], 12)
row0 = table_row(b, a, -1, 1, 0, 8)
print("row 0 after one diagonal re-reading of the (1-x)^{-k} table:")
print("   " + ", ".join(str(c) for c in row0.coeffs))
print("   (halved central binomials)")

image_a = gen_lagrange_series(a, -1, 9)
back = table_row(row0, image_a, -1, -1, 2, 8)
print("undoing the re-reading recovers b*a^(phi k) at k=2:",
      back == (b * a.pow(-2)).truncate(8))
