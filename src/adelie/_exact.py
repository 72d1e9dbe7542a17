"""Small exact linear-algebra helpers over the integers."""

from __future__ import annotations

import sys
from math import log10

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


def int_adjugate(m: Matrix) -> tuple[tuple[int, ...], Matrix, Matrix | None]:
    """(leading principal minors, columns under the pivots, adj(m)) of an
    integer matrix by fraction-free Gauss-Jordan elimination of [m | I]: the
    k-th pivot is the k-th leading minor, column k under it as it is reached
    is the fraction-free L of a symmetric m, and [m | I] ends as
    [det(m) I | adj(m)].  The minors stop at the first zero, adj(m) None."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    minors: list[int] = []
    below: list[tuple[int, ...]] = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        minors.append(pivot)
        if pivot == 0:
            return tuple(minors), tuple(below), None
        below.append(tuple(a[i][k] for i in range(k + 1, n)))
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = pivot
    return tuple(minors), tuple(below), tuple(tuple(row[n:]) for row in a)
