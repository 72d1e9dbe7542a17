"""Root-to-divisor dictionary on a resolved rational double point.

The exceptional curves C_1..C_r of the resolution intersect by the negated
Cartan matrix, an even negative-definite lattice.  Sending a root to the
divisor class with its simple-root coordinates is an isometry onto the
self-intersection -2 classes: the dictionary is recovered here by solving the
restriction-degree equations exactly, and the -2 classes are enumerated
independently by exact lattice-point search, so the two sides can be matched
class by class.

H^2 vanishing for a root class is certified by replaying the curve-by-curve
descent: a positive class of height two or more restricts to degree -1 on
some exceptional curve, where cohomology drops to the shorter class, and the
height-one base case is settled by the rationality of the singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul, sub

from ._exact import int_adjugate, ldl_decomposition
from .errors import ConstructionFailure, IndexOutOfRange, NotARootClass
from .report import H2VanishVerdict, VerificationReport
from .roots import LatticeVector, RootSystem, root_vector


@dataclass(frozen=True)
class DivisorClass:
    """Integer combination of the exceptional curves."""

    coeffs: tuple[int, ...]

    def __repr__(self) -> str:
        return f"DivisorClass{self.coeffs}"


@dataclass(frozen=True)
class ResolutionLattice:
    """Exceptional-curve lattice with the negated Cartan intersection form."""

    system: RootSystem
    intersection: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.system.rank

    def curve(self, i: int) -> DivisorClass:
        """The i-th exceptional curve, 1-based."""
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"curve index {i} outside 1..{self.rank}")
        return DivisorClass(tuple(int(j == i - 1) for j in range(self.rank)))

    def degrees(self, d: DivisorClass) -> tuple[int, ...]:
        """(d . C_i) for every exceptional curve, in one integer pass."""
        return tuple(sum(map(mul, d.coeffs, col)) for col in zip(*self.intersection))

    def pair(self, a: DivisorClass, b: DivisorClass) -> int:
        return sum(map(mul, self.degrees(a), b.coeffs))

    def self_intersection(self, d: DivisorClass) -> int:
        return self.pair(d, d)

    def restriction_degree(self, d: DivisorClass, i: int) -> int:
        """Degree of O(d) on the i-th exceptional curve, 1-based."""
        return self.pair(d, self.curve(i))


def resolution_lattice(rs: RootSystem) -> ResolutionLattice:
    """Build the lattice and certify negative definiteness exactly.

    Every leading principal minor of the Cartan matrix must be positive;
    a failure raises ConstructionFailure.
    """
    for k, minor in enumerate(int_adjugate(rs.cartan)[0], 1):
        if minor <= 0:
            raise ConstructionFailure(
                f"{rs.name}: leading minor {k} is {minor}, form not definite"
            )
    intersection = tuple(
        tuple(-v for v in row) for row in rs.cartan
    )
    return ResolutionLattice(rs, intersection)


def root_to_divisor(lattice: ResolutionLattice, alpha: LatticeVector) -> DivisorClass:
    """Divisor class of a root, solved from its restriction degrees.

    The multiplicities m are the unique solution of
    (m . intersection) . C_i = -(alpha, alpha_i), the weight coordinates of
    alpha times adj(C) over det(C); the division is checked to be exact, m to
    equal the simple-root coordinates, and to square to -2
    (ConstructionFailure otherwise).
    """
    rs = lattice.system
    if not rs.is_root(alpha):
        raise NotARootClass(f"{alpha} is not a root of {rs.name}")
    coords = rs.to_root_basis(alpha).coords
    nums = rs._root_numerators(rs.to_weight_basis(alpha))
    if any(x % rs._det for x in nums):
        raise ConstructionFailure(
            f"{rs.name}: root {alpha} has divisor {nums}/{rs._det}, not integral"
        )
    d = DivisorClass(tuple(x // rs._det for x in nums))
    if d.coeffs != coords:
        raise ConstructionFailure(
            f"{rs.name}: root {alpha} has divisor {d.coeffs}, not its root coordinates"
        )
    if lattice.self_intersection(d) != -2:
        raise ConstructionFailure(
            f"{rs.name}: divisor {d} of root {alpha} does not square to -2"
        )
    return d


def divisor_to_root(lattice: ResolutionLattice, d: DivisorClass) -> LatticeVector:
    """Inverse dictionary; NotARootClass unless d has self-intersection -2."""
    if lattice.self_intersection(d) != -2:
        raise NotARootClass(f"{d} has self-intersection != -2")
    v = root_vector(*d.coeffs)
    if not lattice.system.is_root(v):
        raise NotARootClass(f"{d} does not match a root of {lattice.system.name}")
    return v


def minus_two_classes(lattice: ResolutionLattice) -> tuple[DivisorClass, ...]:
    """All classes of self-intersection -2, by exact lattice enumeration.

    Fincke-Pohst over the rational LDL factors of the Cartan form: coordinates
    are scanned inside exact integer-square-root windows, so the enumeration
    is independent of the root listing it is later matched against.
    """
    rs = lattice.system
    n = rs.rank
    lower, diag = ldl_decomposition(rs.cartan)
    x = [0] * n
    found: list[tuple[int, ...]] = []

    def ceil_div(a: int, b: int) -> int:
        return -((-a) // b)

    def rec(i: int, budget) -> None:
        if i < 0:
            if budget == 0:
                found.append(tuple(x))
            return
        c = sum(lower[j][i] * x[j] for j in range(i + 1, n))
        ratio = budget / diag[i]
        p, q = c.numerator, c.denominator
        u = ratio.numerator * q * q
        v = ratio.denominator
        t = isqrt(u // v)
        while (t + 1) * (t + 1) * v <= u:
            t += 1
        for xi in range(ceil_div(-t - p, q), (t - p) // q + 1):
            x[i] = xi
            rec(i - 1, budget - diag[i] * (xi + c) ** 2)
        x[i] = 0

    rec(n - 1, Fraction(2))
    return tuple(DivisorClass(c) for c in sorted(found))


def surface_h2_oracle(lattice: ResolutionLattice):
    """H^2 oracle for root classes: replay the exceptional-curve descent.

    Negative classes are routed through their negation.  The walk carries
    the weight coordinates (one Cartan row per step) and the curve degrees
    (one intersection row per step) of the current class, so each step
    checks the degree -1 restriction honestly; the height-one base case
    rests on the vanishing of H^1 and H^2 of the resolution's structure sheaf.
    """
    rs = lattice.system

    def oracle(alpha: LatticeVector) -> H2VanishVerdict:
        a = rs.to_root_basis(alpha)
        if not rs.is_root(a):
            raise NotARootClass(f"{a} is not a root class")
        negated = not rs.is_positive_root(a)
        cur = (-a if negated else a).coords
        weights = rs.to_weight_basis(root_vector(*cur)).coords
        degrees = lattice.degrees(DivisorClass(cur))
        word: list[int] = []
        while sum(cur) >= 2:
            for i in range(rs.rank):
                step = cur[:i] + (cur[i] - 1,) + cur[i + 1:]
                if weights[i] == 1 and step in rs._pos_set:
                    break
            else:
                return H2VanishVerdict(
                    root=a, vanishes=False, source="surface-descent",
                    detail=f"no descent curve at {root_vector(*cur)}",
                )
            if degrees[i] != -1:
                return H2VanishVerdict(
                    root=a, vanishes=False, source="surface-descent",
                    detail=f"restriction degree {degrees[i]} on curve {i + 1}",
                )
            word.append(i + 1)
            cur = step
            weights = tuple(map(sub, weights, rs.cartan[i]))
            degrees = tuple(map(sub, degrees, lattice.intersection[i]))
        base = cur.index(1) + 1
        prefix = "negated; " if negated else ""
        return H2VanishVerdict(
            root=a,
            vanishes=True,
            source="surface-descent",
            detail=f"{prefix}curves {word} to base {base}",
        )

    return oracle


def verify_surface(rs: RootSystem) -> VerificationReport:
    """Dictionary isometry, -2 class matching, bookkeeping, and the flag
    cross-check of restriction degrees (the Schubert degrees of a root are
    its weight coordinates), all exact integer dot products."""
    rep = VerificationReport(name=f"surface-{rs.name}")
    try:
        lattice = resolution_lattice(rs)
    except ConstructionFailure as exc:
        rep.violations.append(str(exc))
        return rep
    rep.checked += rs.rank  # the minors

    divisors = [root_to_divisor(lattice, a) for a in rs.all_roots]
    pos = rs.positive_roots
    degrees = [lattice.degrees(d) for d in divisors[:len(pos)]]
    weights = [rs.to_weight_basis(a).coords for a in pos]
    for i, (a, g) in enumerate(zip(pos, degrees)):
        for b, d, w in zip(pos[i:], divisors[i:], weights[i:]):
            if sum(map(mul, g, d.coeffs)) != -sum(map(mul, a.coords, w)):
                rep.violations.append(f"isometry fails at ({a}, {b})")
    rep.checked += len(pos) * (len(pos) + 1) // 2

    classes = minus_two_classes(lattice)
    rep.checked += 1
    expected = sorted(r.coords for r in rs.all_roots)
    if [c.coeffs for c in classes] != expected:
        rep.violations.append("-2 classes do not match the roots")
    rep.details["minus_two_classes"] = len(classes)
    rep.checked += 1
    if rs.rank + len(classes) != rs.rank + 2 * len(pos):
        rep.violations.append("lattice rank plus -2 count misses the dimension")

    for a, g, w in zip(pos, degrees, weights):
        for i in range(rs.rank):
            if g[i] != -w[i]:
                rep.violations.append(f"restriction mismatch at ({a}, {i + 1})")
    rep.checked += len(pos) * rs.rank

    oracle = surface_h2_oracle(lattice)
    for a in rs.all_roots:
        rep.checked += 1
        verdict = oracle(a)
        if not verdict.vanishes:
            rep.violations.append(f"descent fails for {a}: {verdict.detail}")
    return rep
