"""Simply-laced root systems with exact integer arithmetic.

Roots live in the root lattice and are stored in simple-root coordinates;
weights live in the weight lattice and are stored in fundamental-weight
coordinates.  The change of basis from root to weight coordinates is right
multiplication by the (symmetric) Cartan matrix, so every pairing below is
computed by integer dot products and stays exact at any rank.
"""

from __future__ import annotations

from contextlib import suppress
from enum import Enum
from functools import lru_cache
from operator import index, mul
import re

from ._exact import int_adjugate, int_text
from .errors import (
    BasisMismatch,
    BudgetExceeded,
    IllegalType,
    ImmutableSystem,
    ImmutableVector,
    IndexOutOfRange,
    MixedSigns,
    NonIntegerCoordinate,
    NonIntegerRank,
    NotARootClass,
    NotARootSystem,
    NotInRootLattice,
)

#: largest rank that build admits for the A and D series; E is fixed at 6, 7, 8.
MAX_RANK = 16
#: largest rank that RootSystem constructs: D64 takes about 0.4 s, A100 1.1 s,
#: and the root closure grows about as the fourth power of the rank
MAX_SYSTEM_RANK = 64

_SPEC_RE = re.compile(r"^([ADEade])\s*([0-9]{1,2})$")


class Basis(Enum):
    SIMPLE_ROOT = "root"
    FUNDAMENTAL_WEIGHT = "weight"


_set = object.__setattr__  # LatticeVector's own __setattr__ refuses every write


class LatticeVector:
    """Immutable integer coordinate vector tagged with the basis it is written in.

    Coordinates are read through operator.index, so numpy integers convert
    exactly and a float, Fraction or str raises NonIntegerCoordinate; a basis
    that is not a Basis member, such as its value "weight", raises
    BasisMismatch.
    """

    __slots__ = ("coords", "basis")

    def __init__(self, coords, basis: Basis) -> None:
        try:
            _set(self, "coords", tuple(map(index, coords)))
        except TypeError:
            raise NonIntegerCoordinate(f"coordinates {coords!r} are not integers") from None
        if not isinstance(basis, Basis):
            raise BasisMismatch(f"basis {basis!r} is not a Basis")
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
        if not isinstance(other, LatticeVector):
            raise BasisMismatch(f"{self!r} combines with LatticeVectors, not {other!r}")
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

    def __repr__(self) -> str:
        # int_text names a coordinate too long to print by its digit count,
        # so every message that formats a vector can be printed
        return f"{'{'}{','.join(map(int_text, self.coords))}|{self.basis.value}{'}'}"


def root_vector(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), Basis.SIMPLE_ROOT)


def weight_vector(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), Basis.FUNDAMENTAL_WEIGHT)


def checked_index(i, lo: int, hi: int, what: str) -> int:
    """i as an int when it is an integer from lo to hi, read through
    operator.index so that numpy integers pass; IndexOutOfRange otherwise,
    for a float equal to an integer such as 1.0 too."""
    with suppress(TypeError):
        if lo <= index(i) <= hi:
            return index(i)
    raise IndexOutOfRange(f"{what} {i} outside {lo}..{hi}")


def _edges(kind: str, rank: int) -> list[tuple[int, int]]:
    # 0-based node pairs.  A: a path.  D: a path 1..n-2 with both n-1 and n
    # hanging off node n-2.  E: the classical Bourbaki numbering, where node 2
    # is the branch node attached to node 4 of the path 1-3-4-5-...  The one
    # list of the admitted types: IllegalType for every other (kind, rank).
    if kind == "A" and rank >= 1:
        return [(i, i + 1) for i in range(rank - 1)]
    if kind == "D" and rank >= 3:
        path = [(i, i + 1) for i in range(rank - 3)]
        return path + [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    if kind == "E" and 6 <= rank <= 8:
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: rank - 2]
        return chain + [(1, 3)]
    lettered = isinstance(kind, str) and kind.isalpha()
    name = f"{kind}{rank}" if lettered else f"kind {kind!r} with rank {rank}"
    raise IllegalType(f"{name} is not an ADE Dynkin diagram: A1.., D3.., E6..E8")


def _cartan_matrix(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _edges(kind, rank):
        m[i][j] = m[j][i] = -1
    return tuple(tuple(row) for row in m)


def _positive_roots(
    cartan: tuple[tuple[int, ...], ...],
) -> tuple[list[tuple[int, ...]], tuple[tuple[int, int], ...]]:
    """All positive roots in simple-root coordinates, sorted by (height, lex),
    and the step that builds each: (k, i) when it is positive root k plus the
    simple root alpha_i, with k = -1 for alpha_i itself.

    Every root has square 2, so beta + alpha_i is a root exactly when
    (beta, alpha_i) = -1.  The closure runs over i outside the layer, so a
    root is first reached from its predecessor of least i: the steps, read
    down from a root, are its descent word (RootSystem.descent).
    """
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    first = {s: (None, i) for i, s in enumerate(simples)}
    layer = simples
    while layer:
        nxt = []
        for i, row in enumerate(cartan):
            for beta in layer:
                if sum(map(mul, beta, row)) == -1:
                    cand = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if cand not in first:
                        first[cand] = (beta, i)
                        nxt.append(cand)
        layer = nxt
    pos = sorted(first, key=lambda c: (sum(c), c))
    index = {c: k for k, c in enumerate(pos)}
    steps = tuple((-1 if beta is None else index[beta], i) for beta, i in map(first.get, pos))
    return pos, steps


class RootSystem:
    """Immutable container for one ADE root system and the door for a (kind,
    rank) pair: A_n (n >= 1), D_n (n >= 3) or E6-E8 up to rank MAX_SYSTEM_RANK;
    IllegalType for any other diagram, NonIntegerRank for a rank that is not an
    integer and BudgetExceeded, before any work, for one past MAX_SYSTEM_RANK.
    :func:`build`, the door for a spec string, caps A and D at MAX_RANK and
    keeps one instance of each type; instances are equal iff kind and rank are.
    A built instance refuses every attribute write (ImmutableSystem), as the
    caches keyed by a system answer for every system equal to it."""

    _built = False  # __init__'s last write; writes are refused from then on

    def __init__(self, kind: str, rank: int) -> None:
        self.kind = kind
        try:
            self.rank = rank = index(rank)
        except TypeError:
            raise NonIntegerRank(f"rank {rank!r} is not an integer") from None
        if rank > MAX_SYSTEM_RANK:
            raise BudgetExceeded(f"rank {rank} past the RootSystem budget, rank {MAX_SYSTEM_RANK}")
        self.cartan = _cartan_matrix(kind, rank)
        # the nodes joined to each node, the -1 entries of its Cartan row: a
        # reflection or a firing at node i changes coordinate i and these
        self.neighbours: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j, v in enumerate(row) if v < 0) for row in self.cartan
        )
        # a Dynkin diagram's Cartan matrix is positive definite: the adjugate exists
        minors, _, adjugate = int_adjugate(self.cartan)
        self._det = minors[-1]
        pos, steps = _positive_roots(self.cartan)
        # the closure's step record: positive root k is positive root j plus
        # alpha_i for its step (j, i), j = -1 on alpha_i itself, so reading
        # it down gives the descent word; j always precedes k, by height
        self.positive_steps: tuple[tuple[int, int], ...] = steps
        self.positive_roots: tuple[LatticeVector, ...] = tuple(
            LatticeVector(c, Basis.SIMPLE_ROOT) for c in pos
        )
        self.simple_roots: tuple[LatticeVector, ...] = tuple(
            LatticeVector(tuple(int(i == j) for j in range(rank)), Basis.SIMPLE_ROOT)
            for i in range(rank)
        )
        # canonical total order on the full root set: positives by (height,
        # lex), then their negatives in the same order
        self.all_roots: tuple[LatticeVector, ...] = self.positive_roots + tuple(
            -r for r in self.positive_roots
        )
        self._root_index = {r.coords: i for i, r in enumerate(self.all_roots)}
        # adj(C) = det(C) C^-1 by columns, for the integer route to the root basis
        self._adjugate = list(zip(*adjugate))
        self._built = True

    def __setattr__(self, name, value):
        if self._built:
            raise ImmutableSystem(f"cannot change {name} of {self!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise ImmutableSystem(f"cannot delete {name} of {self!r}")

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

    def _vector(self, v: LatticeVector) -> LatticeVector:
        # the one check of a vector argument, made by every method that reads
        # a weight or a root: a LatticeVector of this rank passes
        if isinstance(v, LatticeVector) and v.rank == self.rank:
            return v
        raise BasisMismatch(f"{self.name} reads LatticeVectors of rank {self.rank}, not {v!r}")

    def to_weight_basis(self, v: LatticeVector) -> LatticeVector:
        if self._vector(v).basis is Basis.FUNDAMENTAL_WEIGHT:
            return v
        # the Cartan matrix is symmetric: its rows are its columns
        coords = tuple(sum(map(mul, v.coords, row)) for row in self.cartan)
        return LatticeVector(coords, Basis.FUNDAMENTAL_WEIGHT)

    def _root_numerators(self, v: LatticeVector) -> list[int]:
        # det(C) times the simple-root coordinates of a weight v: v adj(C)
        return [sum(map(mul, v.coords, col)) for col in self._adjugate]

    def to_root_basis(self, v: LatticeVector) -> LatticeVector:
        if self._vector(v).basis is Basis.SIMPLE_ROOT:
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
        v, w = self._vector(v), self._vector(w)
        if w.basis is Basis.SIMPLE_ROOT:
            v, w = w, v
        if v.basis is Basis.SIMPLE_ROOT:
            return sum(map(mul, v.coords, self.to_weight_basis(w).coords))
        num = sum(map(mul, self._root_numerators(v), w.coords))
        if num % self._det == 0:
            return num // self._det
        from fractions import Fraction  # only two fractional weights reach here

        return Fraction(num, self._det)

    def positive_pairings(self, v: LatticeVector) -> list[int]:
        """(v, a) for every positive root a, in the order of positive_roots.

        One integer pass: (v, beta + alpha_i) = (v, beta) + v_i with v_i the
        i-th weight coordinate of v.
        """
        w = self.to_weight_basis(v).coords
        out: list[int] = []
        for k, i in self.positive_steps:
            out.append(w[i] if k < 0 else out[k] + w[i])
        return out

    # -- roots ------------------------------------------------------------

    def _lookup(self, v: LatticeVector) -> int:
        # the place of v in all_roots, -1 when v is not a root: off the root
        # lattice, or a vector of another rank; the door refuses what is no vector
        other_rank = BasisMismatch if isinstance(v, LatticeVector) else NotInRootLattice
        try:
            return self._root_index.get(self.to_root_basis(v).coords, -1)
        except (NotInRootLattice, other_rank):
            return -1

    def is_root(self, v: LatticeVector) -> bool:
        return self._lookup(v) >= 0

    def is_positive_root(self, v: LatticeVector) -> bool:
        return 0 <= self._lookup(v) < len(self.positive_roots)

    def descent(self, alpha: LatticeVector) -> tuple[int, ...]:
        """The descent word of a positive root: the 0-based simple roots that
        its closure steps subtract, in order, and last the simple root it
        ends at.  Each step subtracts the least alpha_i that leaves a root,
        so the word has height-many letters."""
        k = self._lookup(alpha)
        if not 0 <= k < len(self.positive_roots):
            raise NotARootClass(f"{alpha} is not a positive root of {self.name}")
        word = []
        while k >= 0:
            k, i = self.positive_steps[k]
            word.append(i)
        return tuple(word)

    def root_order_index(self, v: LatticeVector) -> int:
        """The place of v in all_roots; NotARootClass when v is not a root."""
        k = self._lookup(v)
        if k < 0:
            raise NotARootClass(f"{v} is not a root of {self.name}")
        return k

    def height(self, v: LatticeVector) -> int:
        """Coordinate sum for a nonnegative vector, negated for a nonpositive one.

        A negative root therefore reports the height of its negation.
        """
        c = self.to_root_basis(v).coords
        if all(x >= 0 for x in c):
            return sum(c)
        if all(x <= 0 for x in c):
            return -sum(c)
        raise MixedSigns(f"{v} has mixed-sign root coordinates")

    def highest_root(self) -> LatticeVector:
        return self.positive_roots[-1]

    def rho(self) -> LatticeVector:
        """Sum of the fundamental weights; equals half the sum of positive roots."""
        return LatticeVector((1,) * self.rank, Basis.FUNDAMENTAL_WEIGHT)

    # -- Weyl action ------------------------------------------------------

    def reflect_simple(self, v: LatticeVector, i: int) -> LatticeVector:
        """Simple reflection s_i, 0-based index, basis-preserving."""
        i = checked_index(i, 0, self.rank - 1, "simple index")
        w = self.to_weight_basis(v)
        k, row = w.coords[i], self.cartan[i]
        new = tuple(w.coords[j] - k * row[j] for j in range(self.rank))
        out = LatticeVector(new, Basis.FUNDAMENTAL_WEIGHT)
        return self.to_root_basis(out) if v.basis is Basis.SIMPLE_ROOT else out

    def is_dominant(self, v: LatticeVector) -> bool:
        return all(c >= 0 for c in self.to_weight_basis(v).coords)


def checked_system(rs) -> RootSystem:
    """rs when it is a RootSystem; NotARootSystem for anything else, so an
    engine that reads a system refuses a spec string or None by type."""
    if isinstance(rs, RootSystem):
        return rs
    raise NotARootSystem(f"{rs!r} is not a RootSystem")


def parse_type(spec: str) -> tuple[str, int]:
    """(kind, rank) of a case-insensitive spec such as "A3" or "e8", one of the
    33 types that build admits: A and D are capped at MAX_RANK.  IllegalType
    for a spec that is not a str or draws no admitted diagram."""
    m = isinstance(spec, str) and _SPEC_RE.match(spec.strip())
    if not m:
        raise IllegalType(f"unrecognised root system {spec!r}")
    kind, rank = m.group(1).upper(), int(m.group(2))
    if rank > MAX_RANK and kind in ("A", "D"):
        lo = 1 if kind == "A" else 3
        raise IllegalType(f"{kind}{rank} outside supported range {kind}{lo}..{kind}{MAX_RANK}")
    _edges(kind, rank)
    return kind, rank


@lru_cache(maxsize=33)  # one entry for each type that build admits
def _build_cached(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)


def build(spec: str) -> RootSystem:
    """The cached root system of a spec such as "D4", read by parse_type; a
    (kind, rank) pair is admitted by RootSystem(kind, rank)."""
    return _build_cached(*parse_type(spec))
