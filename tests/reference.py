"""Exact references for the library's kernels, on plain lists.

Every function here takes and returns plain lists of Fractions (a series
or polynomial as its coefficients c_0, c_1, ..., a matrix as its rows)
and imports nothing from the library it checks, so a test that holds a
kernel against a reference compares two computations that share no
code.  Each is the textbook loop, written to be read, not to be fast:

- series: the schoolbook product, the inverse, exp and log recurrences,
  a rational power as exp(e log c), composition by Horner's rule and
  reversion solved one coefficient at a time;
- matrices: the product of dot products and the Gauss-Jordan inverse;
- arrays: row n of the array (f, g) off the power walk f, f g, f g^2, ...;
- numerators: g_n and h_n from their definitions;
- connection matrices: U, Uinv, F and Finv column by column, the
  Eulerian polynomials by their recurrence, binom as a product, the
  closed forms of G, H, A, T, alpha_n and phi_n as column sums, and the
  generalized binomial series by its product formula.

The inputs the tests draw come from one seeded generator, :func:`draw`,
over the regimes in :data:`KINDS` and the lcm-heavy series
h = sum (-1)^k x^k / (k+2).
"""

from fractions import Fraction as Q
from functools import lru_cache
from math import comb, factorial, lcm

# -- series ---------------------------------------------------------------------


def _schoolbook(a, b, n):
    """Coefficients 0..n of the product of two integer lists (zeros past
    either list)."""
    out = [0] * (n + 1)
    for i, ci in enumerate(a[: n + 1]):
        if ci:
            for j, cj in enumerate(b[: n + 1 - i]):
                out[i + j] += ci * cj
    return out


def _integers(c):
    """The integer numerators of c over the lcm of its denominators, and that lcm."""
    c = [Q(v) for v in c]
    den = lcm(*[v.denominator for v in c])
    return [v.numerator * (den // v.denominator) for v in c], den


def product(a, b, n):
    """Coefficients 0..n of the product of two coefficient lists (zeros
    past either list), by the schoolbook loop on their integer numerators."""
    (ints_a, den_a), (ints_b, den_b) = _integers(a), _integers(b)
    return [Q(v, den_a * den_b) for v in _schoolbook(ints_a, ints_b, n)]


def inverse(c):
    """1/c for c_0 != 0: c_0 b_k = -sum(c_j b_(k-j), j = 1..k)."""
    out = [1 / Q(c[0])]
    for k in range(1, len(c)):
        out.append(-sum((c[j] * out[k - j] for j in range(1, k + 1)), Q(0)) / c[0])
    return out


def exp(c):
    """exp(c) for c_0 = 0: k e_k = sum(j c_j e_(k-j), j = 1..k)."""
    out = [Q(1)]
    for k in range(1, len(c)):
        out.append(sum((j * c[j] * out[k - j] for j in range(1, k + 1)), Q(0)) / k)
    return out


def log(c):
    """log(c) for c_0 = 1: the integral of c'/c."""
    n = len(c) - 1
    if n == 0:
        return [Q(0)]
    quotient = product([k * c[k] for k in range(1, n + 1)], inverse(c[:n]), n - 1)
    return [Q(0)] + [Q(quotient[k - 1]) / k for k in range(1, n + 1)]


def powers(c, exponents):
    """c^e for c_0 = 1 and each rational e in ``exponents``, as exp(e log c)."""
    log_c = log(c)
    return [exp([e * v for v in log_c]) for e in exponents]


def compose(f, g):
    """f(g) through x^n, n = min(len f, len g) - 1, for g_0 = 0, by Horner's
    rule f_0 + g (f_1 + g (f_2 + ...)).

    The partial sum at depth k is multiplied by g^k, so it is kept only
    through x^(n-k).  The loop runs on integers, so that no step reduces a
    Fraction: with f = F/E and g = G/D over their lcm denominators, the
    partial sums S_n = F_n and S_k = F_k D^(n-k) + G S_(k+1) end at
    S_0 = E D^n f(g).
    """
    n = min(len(f), len(g)) - 1
    (ints_f, den_f), (ints_g, den_g) = _integers(f[: n + 1]), _integers(g[: n + 1])
    acc, scale = [ints_f[n]], 1
    for k in range(n - 1, -1, -1):
        scale *= den_g
        acc = [ints_f[k] * scale] + _schoolbook(acc, ints_g[1:], n - k - 1)
    return [Q(v, den_f * scale) for v in acc]


def reversion(g):
    """The h with g(h) = x through x^n, n = len(g) - 1, for g_0 = 0 != g_1,
    solved one coefficient at a time: for m >= 2,
    [x^m] g(h) = g_1 h_m + sum(g_j [x^m] h^j, j = 2..m) = 0, and
    [x^m] h^j = sum(h_i [x^(m-i)] h^(j-1)) reads only h_1..h_(m-1) for
    j >= 2.  ``powers[j]`` holds [x^i] h^j for i < m."""
    h = [Q(0), 1 / Q(g[1])]
    powers = [None, h]
    for m in range(2, len(g)):
        value = Q(0)
        for j in range(2, m + 1):
            if j == len(powers):
                powers.append([Q(0)] * j)  # h^j starts at x^j
            v = sum((h[i] * powers[j - 1][m - i] for i in range(1, m - j + 2)), Q(0))
            powers[j].append(v)
            value += g[j] * v
        h.append(-value / g[1])
    return h[: len(g)]


# -- matrices ---------------------------------------------------------------------


def matmul(a, b):
    """The rows of a b, each entry a Fraction dot product."""
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)] for row in a]


def matinv(a):
    """The inverse of a square matrix by Gauss-Jordan elimination on the
    augmented rows [a | I], or None when a is singular."""
    n = len(a)
    rows = [[Q(v) for v in row] + [Q(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _columns(cols, size):
    """The rows of the matrix whose columns are the coefficient lists
    ``cols``, each cut or padded with zeros to ``size``."""
    cols = [(list(c) + [0] * size)[:size] for c in cols]
    return [[Q(c[i]) for c in cols] for i in range(size)]


# -- arrays -----------------------------------------------------------------------


def _walk(f, g, n, count):
    """[x^n] f g^m for m = 0..count-1, off the power walk f, f g, f g^2, ..."""
    out, term = [], f[: n + 1]
    for _ in range(count):
        out.append(term[n])
        term = product(term, g, n)
    return out


def array_row(f, g, n, flavor, width=None):
    """Row n of the array (f, g): [x^n] f g^m for m = 0..n, times n!/m! in
    the "exponential" flavor; for m = 0..min(len f, len g) - 1 in the
    "square" flavor.  A ``width`` keeps the entries m < width alone, of
    any number in the "square" flavor."""
    if width is None:
        width = min(len(f), len(g)) if flavor == "square" else n + 1
    row = _walk(f, g, n, width if flavor == "square" else min(width, n + 1))
    if flavor == "exponential":
        row = [Q(factorial(n), factorial(m)) * v for m, v in enumerate(row)]
    return row


# -- numerators -------------------------------------------------------------------


def _one_minus_x(power, n):
    """Coefficients 0..n of (1-x)^power."""
    return [(-1) ** k * comb(power, k) for k in range(n + 1)]


def euler(b, a, n):
    """g_n = (1-x)^(n+1) sum(p_n(m) x^m) through x^n, p_n(m) = [x^n] b a^m."""
    return product(_one_minus_x(n + 1, n), _walk(b, a, n, n + 1), n)


def narayana(b, a, n):
    """h_n = (1-x)^(2n+1) sum((m+1)...(m+n) p_n(m) x^m) through x^n."""
    values = [step_product(m + 1, n, 1) * p for m, p in enumerate(_walk(b, a, n, n + 1))]
    return product(_one_minus_x(2 * n + 1, n), values, n)


# -- connection matrices ------------------------------------------------------------


def step_product(c, n, step):
    """c (c + step) (c + 2 step) ... (c + (n-1) step), n factors."""
    out = Q(1)
    for i in range(n):
        out *= c + i * step
    return out


@lru_cache(maxsize=None)
def binom(phi, k):
    """phi (phi-1) ... (phi-k+1) / k!, and 0 for k < 0; memoized, since the
    closed forms ask for the same values column after column."""
    return step_product(Q(phi), k, -1) / factorial(k) if k >= 0 else Q(0)


def eulerian(n):
    """A_n by A_(k+1) = x(1-x) A_k' + (k+1) x A_k from A_0 = 1, through x^n."""
    a = [1]
    for k in range(n):
        x_deriv = [j * c for j, c in enumerate(a)]  # x A_k'
        a = [u - v + (k + 1) * w for u, v, w in zip(x_deriv + [0], [0] + x_deriv, [0] + a)]
    return a


def _linear_factors(roots, scale):
    """scale * (x - r_1)(x - r_2)... as a coefficient list, for integer roots."""
    out = [1]
    for r in roots:
        out = _schoolbook(out, [-r, 1], len(out))
    return [scale * v for v in out]


def u_matrix(n):
    """U(n): column p is (1/n!) (1-x)^(n-p) A_p."""
    cols = [product(_one_minus_x(n - p, n), eulerian(p), n) for p in range(n + 1)]
    return [[v / factorial(n) for v in row] for row in _columns(cols, n + 1)]


def f_matrix(n):
    """F(n): column p is (1-x)^(2n+1) sum(m^p C(m+n, n) x^m) through x^n."""
    cols = [product(_one_minus_x(2 * n + 1, n), [m ** p * comb(m + n, n) for m in range(n + 1)], n)
            for p in range(n + 1)]
    return _columns(cols, n + 1)


def _falling_rising(n, c, scale):
    """Column p is scale x(x-1)...(x-p+1) (x+c)(x+c+1)...(x+c+n-p-1)."""
    cols = [_linear_factors(list(range(p)) + [-c - i for i in range(n - p)], scale)
            for p in range(n + 1)]
    return _columns(cols, n + 1)


def uinv_matrix(n):
    """Uinv(n): the falling-rising columns with c = 1."""
    return _falling_rising(n, 1, 1)


def finv_matrix(n):
    """Finv(n): the falling-rising columns with c = n+1, times n!/(2n)!."""
    return _falling_rising(n, n + 1, Q(factorial(n), factorial(2 * n)))


def _t(n, phi, beta_arg):
    """sum(binom(phi, m) binom(beta_arg, n-m) x^m, m = 0..n)."""
    return [binom(phi, m) * binom(beta_arg, n - m) for m in range(n + 1)]


def g_closed(n, beta):
    """G(n, beta): column p is sum(binom(p - n beta, m) binom(n beta + n - p, n - m) x^m)."""
    nb = n * beta
    return _columns([[binom(p - nb, m) * binom(nb + n - p, n - m) for m in range(n + 1)]
                     for p in range(n + 1)], n + 1)


def _column_sums(n, beta, d, c):
    """Column p, p = 0..d, is the sum over m = p..d of
    C(d-p, d-m) / C(m+c, m) * t(m, m + c - n beta, n beta) (1-x)^(d-m)."""
    nb = n * beta
    terms = [product(_t(m, m + c - nb, nb), _one_minus_x(d - m, d), d) for m in range(d + 1)]
    cols = [[sum((Q(comb(d - p, d - m), comb(m + c, m)) * terms[m][i] for m in range(p, d + 1)),
                 Q(0)) for i in range(d + 1)] for p in range(d + 1)]
    return _columns(cols, d + 1)


def h_closed(n, beta):
    """H(n, beta): the column sums with d = n and C(n+m, m)."""
    return _column_sums(n, beta, n, n)


def a_closed(n, beta):
    """A(n, beta): the column sums with d = n-1 and C(m+1, m) = m+1."""
    return _column_sums(n, beta, n - 1, 1)


def t_closed(n, beta):
    """T(n, beta): the column sums with d = n-1 and C(n+1+m, m)."""
    return _column_sums(n, beta, n - 1, n + 1)


def alpha_closed(n, beta):
    """alpha_n = (1/n) sum(binom(n(1-beta), m-1) binom(n beta, n-m) x^m, m = 1..n)."""
    return [Q(0)] + [binom(n * (1 - beta), m - 1) * binom(n * beta, n - m) / n
                     for m in range(1, n + 1)]


def phi_closed(n, beta):
    """phi_n = ((n+1)!/n) sum(binom(n(2-beta), m-1) binom(n beta, n-m) x^m, m = 1..n)."""
    return [Q(0)] + [binom(n * (2 - beta), m - 1) * binom(n * beta, n - m) * factorial(n + 1) / n
                     for m in range(1, n + 1)]


def binomial_series(beta, phi, order):
    """Coefficient k is phi / (phi + beta k) * binom(phi + beta k, k), k = 0..order."""
    return [phi / (phi + beta * k) * binom(phi + beta * k, k) for k in range(order + 1)]


# -- input regimes ------------------------------------------------------------------

PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
BIG = 2 ** 200
KINDS = ("small", "int", "zero", "sparse", "alternating", "big", "extreme", "coprime")


def draw(rng, kind, length, first=None):
    """``length`` seeded coefficients of one regime, the first replaced by
    ``first`` when given (after drawing, so that ``first`` leaves the
    seeded stream as it is):

    - small: p/q with p in [-3, 3] and q in [1, 3], the battery's inputs;
    - int: integers in [-9, 9];
    - zero: all zero;
    - sparse: about one in ten nonzero;
    - alternating: signs alternate and numerators reach 2^40, so that a
      Kronecker unpacking borrows after every negative slot;
    - big: numerators near 2^200;
    - extreme: every coefficient the same +-2^200, so that a product
      coefficient reaches the packing's slot bound;
    - coprime: pairwise-coprime denominators near 2^60 (powers of
      distinct primes), the largest lcm for the length;
    - h: the coefficients (-1)^k / (k+2) of h, whose lcm grows as fast as
      that of 1..k.
    """
    if kind == "small":
        out = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(length)]
    elif kind == "int":
        out = [Q(rng.randint(-9, 9)) for _ in range(length)]
    elif kind == "zero":
        out = [Q(0)] * length
    elif kind == "sparse":
        out = [Q(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.1 else Q(0)
               for _ in range(length)]
    elif kind == "alternating":
        out = [Q((-1) ** k * rng.randint(1, 2 ** 40), rng.randint(1, 5)) for k in range(length)]
    elif kind == "big":
        out = [Q(rng.choice((-1, 1)) * (BIG - rng.randint(0, 2 ** 20)), rng.randint(1, 7))
               for _ in range(length)]
    elif kind == "extreme":
        out = [Q(rng.choice((-1, 1)) * BIG)] * length
    elif kind == "coprime":
        out = [Q(rng.randint(-2 ** 60, 2 ** 60), p ** (60 // p.bit_length()))
               for p in rng.sample(PRIMES, length)]
    elif kind == "h":
        out = [Q((-1) ** k, k + 2) for k in range(length)]
    else:
        raise ValueError("unknown regime %r" % (kind,))
    if first is not None:
        out[0] = Q(first)
    return out


def draw_pair(rng, order):
    """A seeded weight b with b_0 != 0 and a column series a with a_0 = 1,
    both "small" through x^order."""
    b = [Q(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))] + draw(rng, "small", order)
    return b, [Q(1)] + draw(rng, "small", order)


def draw_proper(rng, order):
    """A seeded proper pair (f, g), "small" through x^order: f_0 in
    {1, -1, 2}, g_0 = 0 and, from order 1, g_1 != 0."""
    f = draw(rng, "small", order + 1, first=rng.choice([1, -1, 2]))
    g = draw(rng, "small", order + 1, first=0)
    if order:
        g[1] = Q(rng.choice([1, -1, 2]), rng.randint(1, 2))
    return f, g
