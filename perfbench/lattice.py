"""Independent root-system arithmetic for checking adelie's answers.

Nothing here imports adelie.  The Cartan matrices follow adelie's node
numbering (A: a path; D: a path with both fork nodes on node n-2; E: Bourbaki,
node 2 on node 4), the positive roots come from the Weyl orbit of the simple
roots rather than from root strings, and every check is exact integer or
rational arithmetic.  Weights are tuples in the fundamental-weight basis,
roots tuples in the simple-root basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod


def _edges(kind: str, rank: int) -> list[tuple[int, int]]:
    if kind == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    if kind == "D":
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    edges = [(0, 2), (2, 3), (3, 4), (1, 3)]
    return edges + [(k, k + 1) for k in range(4, rank - 1)]


def _inverse(m: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det, adjugate) of an integer matrix, by exact Gaussian elimination."""
    r = len(m)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(r)]
            for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(r):
        piv = next(i for i in range(col, r) if rows[i][col] != 0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for i in range(r):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    adj = [[int(det * rows[i][r + j]) for j in range(r)] for i in range(r)]
    return int(det), adj


class Lattice:
    """Cartan matrix, positive roots and Weyl-group actions of one ADE type."""

    def __init__(self, name: str) -> None:
        self.name = name
        kind, rank = name[0], int(name[1:])
        self.rank = rank
        c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
        for i, j in _edges(kind, rank):
            c[i][j] = c[j][i] = -1
        self.cartan = c
        self.positive = self._positive_roots()
        self.positive_set = frozenset(self.positive)
        self.rho = (1,) * rank
        self._det, self._adjugate = _inverse(c)

    def _positive_roots(self) -> list[tuple[int, ...]]:
        # close the simple roots under simple reflections, keeping positives
        r = self.rank
        seen = {tuple(int(i == j) for j in range(r)) for i in range(r)}
        todo = list(seen)
        while todo:
            beta = todo.pop()
            for i in range(r):
                k = sum(beta[j] * self.cartan[j][i] for j in range(r))
                image = tuple(b - k * (j == i) for j, b in enumerate(beta))
                if min(image) >= 0 and image not in seen:
                    seen.add(image)
                    todo.append(image)
        return sorted(seen)

    # -- bases and pairings ------------------------------------------------

    def to_weight(self, root: tuple[int, ...]) -> tuple[int, ...]:
        r = self.rank
        return tuple(sum(root[k] * self.cartan[k][i] for k in range(r)) for i in range(r))

    def to_root(self, weight: tuple[int, ...]) -> tuple[Fraction, ...]:
        """Simple-root coordinates of a weight, exactly."""
        r = self.rank
        return tuple(
            Fraction(sum(self._adjugate[i][k] * weight[k] for k in range(r)), self._det)
            for i in range(r)
        )

    def in_positive_cone(self, weight: tuple[int, ...]) -> bool:
        """True when weight is a non-negative integer combination of simple roots."""
        r = self.rank
        for i in range(r):
            q, rem = divmod(sum(self._adjugate[i][k] * weight[k] for k in range(r)), self._det)
            if rem or q < 0:
                return False
        return True

    def pairings(self, weight: tuple[int, ...]) -> list[int]:
        """(weight, alpha) for every positive root alpha."""
        return [sum(a * w for a, w in zip(alpha, weight)) for alpha in self.positive]

    def is_dominant(self, weight: tuple[int, ...]) -> bool:
        return min(weight) >= 0

    def reflect(self, weight: tuple[int, ...], i: int) -> tuple[int, ...]:
        """Simple reflection s_i (0-based) on a weight."""
        k = weight[i]
        return tuple(w - k * c for w, c in zip(weight, self.cartan[i]))

    def dominant_conjugate(self, weight: tuple[int, ...]) -> tuple[int, ...]:
        cur = tuple(weight)
        while min(cur) < 0:
            cur = self.reflect(cur, next(i for i, v in enumerate(cur) if v < 0))
        return cur

    def least_dominant_above(self, weight: tuple[int, ...]) -> tuple[int, ...]:
        """Least dominant weight above weight, by firing negative coordinates.

        The set of c >= 0 with weight + c.cartan dominant is closed under
        componentwise min, so adding alpha_i at any negative coordinate never
        overshoots and stops at the unique minimum.
        """
        cur = list(weight)
        while min(cur) < 0:
            i = next(k for k, v in enumerate(cur) if v < 0)
            for j in range(self.rank):
                cur[j] += self.cartan[i][j]
        return tuple(cur)

    # -- Weyl character ----------------------------------------------------

    def euler(self, weight: tuple[int, ...]) -> int:
        """Weyl polynomial prod (mu + rho, alpha) / (rho, alpha), exactly."""
        shifted = tuple(w + 1 for w in weight)
        num = prod(self.pairings(shifted))
        den = prod(sum(alpha) for alpha in self.positive)
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"{self.name}: Weyl product {num} not divisible by {den}")
        return q

    def graded_euler(self, weight: tuple[int, ...], degree: int) -> int:
        """Sum of euler(weight + s) over degree-multisets s of positive roots.

        The multisets are folded into distinct sums with multiplicities, one
        root at a time, so each distinct weight is evaluated once.
        """
        shifts = [self.to_weight(a) for a in self.positive]
        # layers[d][v] = number of d-multisets (from roots seen so far) summing to v
        layers = [{(0,) * self.rank: 1}] + [{} for _ in range(degree)]
        for s in shifts:
            for d in range(1, degree + 1):
                cur = layers[d]
                for v, n in layers[d - 1].items():
                    key = tuple(a + b for a, b in zip(v, s))
                    cur[key] = cur.get(key, 0) + n
        return sum(
            n * self.euler(tuple(a + b for a, b in zip(weight, v)))
            for v, n in layers[degree].items()
        )


@lru_cache(maxsize=None)
def lattice(name: str) -> Lattice:
    return Lattice(name)
