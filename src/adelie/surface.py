"""Root-to-divisor dictionary on a resolved rational double point.

The exceptional curves C_1..C_r of the resolution intersect by the negated
Cartan matrix, an even negative-definite lattice.  Sending a root to the
divisor class with its simple-root coordinates is an isometry onto the
self-intersection -2 classes.  The -2 classes are enumerated by exact
lattice-point search on the lattice's own intersection form, so matching them
with the roots class by class checks the lattice against the root system.

H^2 vanishing for a root class is certified by replaying the curve-by-curve
descent: a positive class of height two or more restricts to degree -1 on
some exceptional curve, where cohomology drops to the shorter class, and the
height-one base case is settled by the rationality of the singularity.
"""

from __future__ import annotations

from math import isqrt
from operator import mul, sub
from typing import NamedTuple

from ._exact import int_adjugate, ldl_decomposition
from .errors import ConstructionFailure, IndexOutOfRange, NotARootClass
from .report import H2VanishVerdict, VerificationReport
from .roots import LatticeVector, RootSystem, root_vector


class DivisorClass(NamedTuple):
    """Integer combination of the exceptional curves."""

    coeffs: tuple[int, ...]

    def __repr__(self) -> str:
        return f"DivisorClass{self.coeffs}"


class ResolutionLattice(NamedTuple):
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
    """Divisor class of a root: its simple-root coordinates as multiplicities
    of the exceptional curves, checked to square to -2 on the lattice
    (ConstructionFailure otherwise)."""
    rs = lattice.system
    if not rs.is_root(alpha):
        raise NotARootClass(f"{alpha} is not a root of {rs.name}")
    d = DivisorClass(rs.to_root_basis(alpha).coords)
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

    Fincke-Pohst over the rational LDL factors of the negated intersection
    form: coordinates are scanned inside exact integer-square-root windows, so
    the enumeration reads the lattice, not the root listing it is later
    matched against.
    """
    n = lattice.rank
    lower, diag = ldl_decomposition(
        tuple(tuple(-v for v in row) for row in lattice.intersection)
    )
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

    rec(n - 1, 2)  # each budget below is a Fraction, from the LDL factors
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
    """Each lattice fact once, against the root side: the leading minors of
    the Cartan form, the -2 classes of the lattice matched with the roots
    (so every root squares to -2 and nothing else does), and the curve descent
    of every root."""
    rep = VerificationReport(name=f"surface-{rs.name}")
    try:
        lattice = resolution_lattice(rs)
    except ConstructionFailure as exc:
        rep.violations.append(str(exc))
        return rep
    rep.checked += rs.rank  # the minors

    classes = minus_two_classes(lattice)
    rep.checked += 1
    if [c.coeffs for c in classes] != sorted(r.coords for r in rs.all_roots):
        rep.violations.append("-2 classes do not match the roots")
    rep.details["minus_two_classes"] = len(classes)

    oracle = surface_h2_oracle(lattice)
    for a in rs.all_roots:
        rep.checked += 1
        verdict = oracle(a)
        if not verdict.vanishes:
            rep.violations.append(f"descent fails for {a}: {verdict.detail}")
    return rep
