"""Small exact linear-algebra helpers over the integers and rationals."""

from __future__ import annotations

import sys
from math import log10

from .errors import NotPositiveDefinite

Matrix = tuple[tuple[int, ...], ...]


def digits_past_limit(n: int) -> int:
    """The decimal digits of n if Python refuses to print that many (more than
    sys.get_int_max_str_digits(), 0 meaning no limit), else 0; without str()."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2**(3 * limit) < 10**limit, so the bit length settles most ints at once
    if not limit or abs(n).bit_length() <= 3 * limit or abs(n) < 10 ** limit:
        return 0
    d = int(abs(n).bit_length() * log10(2))  # the count or, by rounding, less
    while abs(n) >= 10 ** d:
        d += 1
    return d


def int_text(n: int) -> str:
    """str(n), or its digit count if Python refuses to print that many."""
    d = digits_past_limit(n)
    return f"{'-' * (n < 0)}<{d} digits>" if d else str(n)


def int_adjugate(m: Matrix) -> tuple[tuple[int, ...], Matrix | None]:
    """(leading principal minors, adj(m)) of an integer matrix by
    fraction-free Gauss-Jordan elimination of [m | I]: the k-th pivot is the
    k-th leading minor, and [m | I] ends as [det(m) I | adj(m)].  The minors
    stop at the first zero, with None for adj(m)."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        minors.append(pivot)
        if pivot == 0:
            return tuple(minors), None
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = pivot
    return tuple(minors), tuple(tuple(row[n:]) for row in a)


def ldl_decomposition(m: Matrix) -> tuple[tuple[tuple, ...], tuple]:
    """Exact LDL^T factorisation of a symmetric positive-definite integer matrix.

    Returns (L, diag) of Fractions with L unit lower triangular.  Raises
    NotPositiveDefinite if a pivot fails to be positive, which certifies the
    matrix is not positive definite.
    """
    from fractions import Fraction  # here, so that integer commands start without it

    n = len(m)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        s = Fraction(m[i][i]) - sum(lower[i][k] ** 2 * diag[k] for k in range(i))
        if s <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        diag[i] = s
        lower[i][i] = Fraction(1)
        for j in range(i + 1, n):
            t = Fraction(m[j][i]) - sum(
                lower[j][k] * lower[i][k] * diag[k] for k in range(i)
            )
            lower[j][i] = t / s
    return tuple(tuple(row) for row in lower), tuple(diag)
