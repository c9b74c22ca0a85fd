"""Truncated bivariate arithmetic for generating-function comparisons.

A bivariate truncation is a list indexed by the x-degree whose entries
are truncated polynomials in a second variable t, each a plain list of
Fractions of fixed length.  Everything is exact; both degrees are
truncated inclusively.
"""

from __future__ import annotations

from .fps import DomainError, Q, _convolve

# -- t-polynomial layer ------------------------------------------------------


def t_zero(nt: int):
    return [Q(0)] * (nt + 1)


def t_const(c, nt: int):
    out = t_zero(nt)
    out[0] = Q(c)
    return out


def t_add(u, v):
    return [a + b for a, b in zip(u, v)]


def t_scale(u, c):
    return [a * c for a in u]


def t_shift(u):
    """Multiply by t (truncated)."""
    return [Q(0)] + u[:-1]


def t_mul(u, v):
    """Product truncated at the degree of ``u``."""
    return _convolve(u, v, len(u) - 1)


def t_inv(u):
    c0 = u[0]
    if c0 == 0:
        raise DomainError("t-polynomial with zero constant term has no inverse")
    nt = len(u) - 1
    out = [1 / c0]
    for k in range(1, nt + 1):
        acc = Q(0)
        for j in range(1, k + 1):
            if u[j] != 0:
                acc += u[j] * out[k - j]
        out.append(-acc / c0)
    return out


# -- grid layer (list over x-degree of t-polynomials) ------------------------


def x_zero(nx: int, nt: int):
    return [t_zero(nt) for _ in range(nx + 1)]


def x_mul(A, B):
    nx = len(A) - 1
    nt = len(A[0]) - 1
    out = x_zero(nx, nt)
    for i in range(nx + 1):
        if all(c == 0 for c in A[i]):
            continue
        for j in range(nx + 1 - i):
            out[i + j] = t_add(out[i + j], t_mul(A[i], B[j]))
    return out


def x_inv(A):
    """Inverse in x; the x-constant term must be t-invertible."""
    nx = len(A) - 1
    e0 = t_inv(A[0])
    out = [e0]
    for k in range(1, nx + 1):
        acc = t_zero(len(A[0]) - 1)
        for j in range(1, k + 1):
            acc = t_add(acc, t_mul(A[j], out[k - j]))
        out.append(t_scale(t_mul(e0, acc), Q(-1)))
    return out


def _x_compose_coeff(G, h, k: int):
    """[x^k] of G(h(x)) where h has zero x-constant term, truncated at k."""
    nt = len(G[0]) - 1
    hk = [h[i] if i < len(h) else t_zero(nt) for i in range(k + 1)]
    acc = [t_zero(nt) for _ in range(k + 1)]
    acc[0] = G[k]
    for j in range(k - 1, -1, -1):
        new = [t_zero(nt) for _ in range(k + 1)]
        for i in range(k + 1):
            if all(c == 0 for c in acc[i]):
                continue
            for r in range(k + 1 - i):
                new[i + r] = t_add(new[i + r], t_mul(acc[i], hk[r]))
        new[0] = t_add(new[0], G[j])
        acc = new
    return acc[k]


def x_reversion(G):
    """Compositional inverse in x over the t-polynomial ring.

    Needs G[0] = 0 and a t-invertible G[1].
    """
    nx = len(G) - 1
    nt = len(G[0]) - 1
    if any(c != 0 for c in G[0]):
        raise DomainError("reversion needs zero x-constant term")
    inv_g1 = t_inv(G[1])
    h = [t_zero(nt), inv_g1]
    for k in range(2, nx + 1):
        val = _x_compose_coeff(G[: k + 1], h, k)
        h.append(t_scale(t_mul(val, inv_g1), Q(-1)))
    return h
