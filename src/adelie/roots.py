"""Simply-laced root systems with exact integer arithmetic.

Roots live in the root lattice and are stored in simple-root coordinates;
weights live in the weight lattice and are stored in fundamental-weight
coordinates.  The change of basis from root to weight coordinates is right
multiplication by the (symmetric) Cartan matrix, so every pairing below is
computed by integer dot products and stays exact at any rank.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from operator import index, mul
import re

from ._exact import int_adjugate, int_text
from .errors import (
    BasisMismatch,
    ConstructionFailure,
    DependentRoots,
    IllegalType,
    ImmutableVector,
    IndexOutOfRange,
    MixedSigns,
    NonIntegerCoordinate,
    NotInRootLattice,
)

#: largest admitted rank for the A and D series; E is fixed at 6, 7, 8.
DEFAULT_MAX_RANK = 16

_SPEC_RE = re.compile(r"^([ADEade])\s*([0-9]{1,2})$")


class Basis(Enum):
    SIMPLE_ROOT = "root"
    FUNDAMENTAL_WEIGHT = "weight"


_set = object.__setattr__  # LatticeVector's own __setattr__ refuses every write


class LatticeVector:
    """Immutable integer coordinate vector tagged with the basis it is written in.

    Coordinates are read through operator.index, so numpy integers convert
    exactly and a float, Fraction or str raises NonIntegerCoordinate.
    """

    __slots__ = ("coords", "basis")

    def __init__(self, coords, basis: Basis) -> None:
        try:
            _set(self, "coords", tuple(map(index, coords)))
        except TypeError:
            raise NonIntegerCoordinate(f"coordinates {coords!r} are not integers") from None
        _set(self, "basis", basis)

    def __setattr__(self, name, value=None):
        raise ImmutableVector(f"cannot change {name} of a LatticeVector")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LatticeVector, (self.coords, self.basis)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords and self.basis is other.basis

    def __hash__(self) -> int:
        return hash((self.coords, self.basis))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check(self, other: "LatticeVector") -> None:
        if self.rank != other.rank:
            raise BasisMismatch(f"rank {self.rank} vs {other.rank}")
        if self.basis is not other.basis:
            raise BasisMismatch(f"basis {self.basis} vs {other.basis}")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.basis
        )

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.basis
        )

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords), self.basis)

    def scale(self, k: int) -> "LatticeVector":
        return LatticeVector(tuple(k * a for a in self.coords), self.basis)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        # int_text names a coordinate too long to print by its digit count,
        # so every message that formats a vector can be printed
        return f"{'{'}{','.join(map(int_text, self.coords))}|{self.basis.value}{'}'}"


def root_vector(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), Basis.SIMPLE_ROOT)


def weight_vector(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), Basis.FUNDAMENTAL_WEIGHT)


def _edges(kind: str, rank: int) -> list[tuple[int, int]]:
    # 0-based node pairs.  A: a path.  D: a path 1..n-2 with both n-1 and n
    # hanging off node n-2.  E: the classical Bourbaki numbering, where node 2
    # is the branch node attached to node 4 of the path 1-3-4-5-...
    if kind == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    if kind == "D":
        path = [(i, i + 1) for i in range(rank - 3)]
        return path + [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    chain = [(0, 2), (2, 3), (3, 4), (4, 5)]
    chain += [(5, 6)] if rank >= 7 else []
    chain += [(6, 7)] if rank == 8 else []
    return chain + [(1, 3)]


def _cartan_matrix(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _edges(kind, rank):
        m[i][j] = m[j][i] = -1
    return tuple(tuple(row) for row in m)


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, by closure from the simples.

    A candidate beta + alpha_i is admitted exactly when the alpha_i-string
    through beta has q = p - (beta, alpha_i) >= 1, where p counts the steps
    beta - k*alpha_i that are already known roots.
    """
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            pairing = [
                sum(beta[k] * cartan[k][i] for k in range(rank)) for i in range(rank)
            ]
            for i in range(rank):
                p = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if tuple(cur) in known:
                        p += 1
                    else:
                        break
                if p - pairing[i] >= 1:
                    cand = list(beta)
                    cand[i] += 1
                    cand_t = tuple(cand)
                    if cand_t not in known:
                        known.add(cand_t)
                        nxt.append(cand_t)
        layer = nxt
    return sorted(known, key=lambda c: (sum(c), c))


class RootSystem:
    """Immutable container for one simply-laced root system.

    Built through :func:`build`; two instances compare equal iff they carry
    the same kind and rank.
    """

    def __init__(self, kind: str, rank: int) -> None:
        self.kind = kind
        self.rank = rank
        self.cartan = _cartan_matrix(kind, rank)
        minors, adjugate = int_adjugate(self.cartan)
        if adjugate is None:
            raise IllegalType(f"degenerate Cartan matrix for {kind}{rank}")
        self._det = minors[-1]
        pos = _positive_roots(self.cartan)
        self.positive_roots: tuple[LatticeVector, ...] = tuple(
            LatticeVector(c, Basis.SIMPLE_ROOT) for c in pos
        )
        self.simple_roots: tuple[LatticeVector, ...] = tuple(
            LatticeVector(tuple(int(i == j) for j in range(rank)), Basis.SIMPLE_ROOT)
            for i in range(rank)
        )
        self._pos_set = frozenset(pos)
        # canonical total order on the full root set: positives by (height,
        # lex), then their negatives in the same order
        self.all_roots: tuple[LatticeVector, ...] = self.positive_roots + tuple(
            -r for r in self.positive_roots
        )
        self._root_index = {r.coords: i for i, r in enumerate(self.all_roots)}
        # adj(C) = det(C) C^-1 by columns, for the integer route to the root basis
        self._adjugate = list(zip(*adjugate))

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RootSystem)
            and other.kind == self.kind
            and other.rank == self.rank
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.rank))

    # -- basis conversion -------------------------------------------------

    def to_weight_basis(self, v: LatticeVector) -> LatticeVector:
        if v.rank != self.rank:
            raise BasisMismatch(f"rank {v.rank} vector in {self.name}")
        if v.basis is Basis.FUNDAMENTAL_WEIGHT:
            return v
        # the Cartan matrix is symmetric: its rows are its columns
        coords = tuple(sum(map(mul, v.coords, row)) for row in self.cartan)
        return LatticeVector(coords, Basis.FUNDAMENTAL_WEIGHT)

    def root_coords_exact(self, v: LatticeVector) -> tuple:
        """Simple-root coordinates as exact Fractions (weights may be fractional)."""
        from fractions import Fraction  # here, so that integer commands start without it

        return tuple(Fraction(x, self._det) for x in self._root_numerators(v))

    def _root_numerators(self, v: LatticeVector) -> list[int]:
        # det(C) times the simple-root coordinates of v, v adj(C) for a weight
        if v.rank != self.rank:
            raise BasisMismatch(f"rank {v.rank} vector in {self.name}")
        if v.basis is Basis.SIMPLE_ROOT:
            return [self._det * c for c in v.coords]
        return [sum(map(mul, v.coords, col)) for col in self._adjugate]

    def to_root_basis(self, v: LatticeVector) -> LatticeVector:
        if v.basis is Basis.SIMPLE_ROOT:
            return v
        nums = self._root_numerators(v)
        if any(x % self._det for x in nums):
            raise NotInRootLattice(f"{v} is not in the root lattice of {self.name}")
        return LatticeVector(tuple(x // self._det for x in nums), Basis.SIMPLE_ROOT)

    # -- bilinear form ----------------------------------------------------

    def pairing(self, v: LatticeVector, w: LatticeVector):
        """Symmetric bilinear form normalised so every root has square 2.

        Returns an int whenever either argument lies in the root lattice;
        a Fraction can only arise for two genuinely fractional weights.
        """
        if v.rank != self.rank or w.rank != self.rank:
            raise BasisMismatch(f"rank mismatch against {self.name}")
        if w.basis is Basis.SIMPLE_ROOT:
            v, w = w, v
        if v.basis is Basis.SIMPLE_ROOT:
            return sum(map(mul, v.coords, self.to_weight_basis(w).coords))
        num = sum(map(mul, self._root_numerators(v), w.coords))
        if num % self._det == 0:
            return num // self._det
        from fractions import Fraction  # only two fractional weights reach here

        return Fraction(num, self._det)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """0-based Dynkin neighbours of each node: the -1 entries of its row."""
        return tuple(
            tuple(j for j, c in enumerate(row) if c == -1) for row in self.cartan
        )

    @cached_property
    def _positive_steps(self) -> tuple[tuple[int, int], ...]:
        # (k, i) for each positive root: it is positive root k plus the simple
        # root alpha_i, with k = -1 for alpha_i itself.  The list is sorted by
        # height, so k always precedes the root it builds.
        index = {a.coords: k for k, a in enumerate(self.positive_roots)}
        steps = []
        for a in self.positive_roots:
            c = a.coords
            if sum(c) == 1:
                steps.append((-1, c.index(1)))
                continue
            for i in range(self.rank):
                k = index.get(c[:i] + (c[i] - 1,) + c[i + 1:])
                if k is not None:
                    steps.append((k, i))
                    break
            else:
                raise ConstructionFailure(
                    f"{self.name}: positive root {c} has no positive predecessor"
                )
        return tuple(steps)

    def positive_pairings(self, v: LatticeVector) -> list[int]:
        """(v, a) for every positive root a, in the order of positive_roots.

        One integer pass: (v, beta + alpha_i) = (v, beta) + v_i with v_i the
        i-th weight coordinate of v.
        """
        w = self.to_weight_basis(v).coords
        out: list[int] = []
        for k, i in self._positive_steps:
            out.append(w[i] if k < 0 else out[k] + w[i])
        return out

    # -- roots ------------------------------------------------------------

    def is_root(self, v: LatticeVector) -> bool:
        try:
            c = self.to_root_basis(v).coords
        except NotInRootLattice:
            return False
        return c in self._pos_set or tuple(-x for x in c) in self._pos_set

    def is_positive_root(self, v: LatticeVector) -> bool:
        try:
            return self.to_root_basis(v).coords in self._pos_set
        except NotInRootLattice:
            return False

    def root_order_index(self, v: LatticeVector) -> int:
        c = self.to_root_basis(v).coords
        try:
            return self._root_index[c]
        except KeyError:
            raise DependentRoots(f"{v} is not a root of {self.name}") from None

    def height(self, v: LatticeVector) -> int:
        """Coordinate sum for a nonnegative vector, negated for a nonpositive one.

        A negative root therefore reports the height of its negation; use
        :meth:`coordinate_sum` for the signed value.
        """
        s = self.coordinate_sum(v)
        c = self.to_root_basis(v).coords
        if all(x >= 0 for x in c):
            return s
        if all(x <= 0 for x in c):
            return -s
        raise MixedSigns(f"{v} has mixed-sign root coordinates")

    def coordinate_sum(self, v: LatticeVector) -> int:
        return sum(self.to_root_basis(v).coords)

    def root_string(self, alpha: LatticeVector, beta: LatticeVector) -> tuple[int, int]:
        """(p, q) with beta - p*alpha .. beta + q*alpha the alpha-string through beta."""
        a = self.to_root_basis(alpha)
        b = self.to_root_basis(beta)
        if not self.is_root(a) or not self.is_root(b):
            raise DependentRoots("root string requires two roots")
        if a.coords == b.coords or a.coords == tuple(-x for x in b.coords):
            raise DependentRoots("root string undefined for beta = +-alpha")
        p = 0
        cur = b - a
        while self.is_root(cur):
            p += 1
            cur = cur - a
        q = 0
        cur = b + a
        while self.is_root(cur):
            q += 1
            cur = cur + a
        return p, q

    def highest_root(self) -> LatticeVector:
        return self.positive_roots[-1]

    def rho(self) -> LatticeVector:
        """Sum of the fundamental weights; equals half the sum of positive roots."""
        return LatticeVector((1,) * self.rank, Basis.FUNDAMENTAL_WEIGHT)

    # -- Weyl action ------------------------------------------------------

    def reflect_simple(self, v: LatticeVector, i: int) -> LatticeVector:
        """Simple reflection s_i, 0-based index, basis-preserving."""
        if not 0 <= i < self.rank:
            raise IndexOutOfRange(f"simple index {i} outside 0..{self.rank - 1}")
        w = self.to_weight_basis(v)
        k = w.coords[i]
        new = tuple(
            w.coords[j] - k * self.cartan[i][j] for j in range(self.rank)
        )
        out = LatticeVector(new, Basis.FUNDAMENTAL_WEIGHT)
        return self.to_root_basis(out) if v.basis is Basis.SIMPLE_ROOT else out

    def is_dominant(self, v: LatticeVector) -> bool:
        return all(c >= 0 for c in self.to_weight_basis(v).coords)


def parse_type(spec: str, max_rank: int = DEFAULT_MAX_RANK) -> tuple[str, int]:
    """Parse a case-insensitive series string such as "A3" or "e8"."""
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise IllegalType(f"unrecognised root system {spec!r}")
    kind = m.group(1).upper()
    rank = int(m.group(2))
    _validate(kind, rank, max_rank)
    return kind, rank


def _validate(kind: str, rank: int, max_rank: int) -> None:
    if kind == "A":
        lo, hi = 1, max_rank
    elif kind == "D":
        lo, hi = 3, max_rank
    elif kind == "E":
        lo, hi = 6, 8
    else:
        raise IllegalType(f"kind {kind!r} is not simply laced")
    if not lo <= rank <= hi:
        raise IllegalType(f"{kind}{rank} outside supported range {kind}{lo}..{kind}{hi}")


@lru_cache(maxsize=None)
def _build_cached(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)


def build(spec_or_kind: str, rank: int | None = None,
          max_rank: int = DEFAULT_MAX_RANK) -> RootSystem:
    """Construct (and cache) a root system from "D4" or from ("D", 4)."""
    if rank is None:
        kind, rank = parse_type(spec_or_kind, max_rank)
    else:
        kind = spec_or_kind.upper()
        _validate(kind, rank, max_rank)
    return _build_cached(kind, rank)
