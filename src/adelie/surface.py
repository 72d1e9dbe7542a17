"""Root-to-divisor dictionary on a resolved rational double point.

The exceptional curves C_1..C_r of the resolution intersect by the negated
Cartan matrix, an even negative-definite lattice.  Sending a root to the
divisor class with its simple-root coordinates is an isometry onto the
self-intersection -2 classes.  The -2 classes are enumerated by exact
lattice-point search on the lattice's own intersection form, so matching them
with the roots class by class checks the lattice against the root system.
The search's leading minors are the one certificate that the form is negative
definite; any other form raises NotPositiveDefinite there.

H^2 vanishing for a root class is certified by replaying the curve-by-curve
descent: a positive class of height two or more restricts to degree -1 on
some exceptional curve, where cohomology drops to the shorter class, and the
height-one base case is settled by the rationality of the singularity; a
negative class is settled by its negation.  The curves come from the root's
descent word; the lattice side reads only the rows of the intersection form.
"""

from __future__ import annotations

from math import isqrt
from operator import index, mul, sub
from typing import NamedTuple

from ._exact import int_adjugate
from .errors import (
    BasisMismatch,
    ConstructionFailure,
    NonIntegerCoordinate,
    NotARootClass,
    NotPositiveDefinite,
)
from .report import H2VanishVerdict, VerificationReport
from .roots import LatticeVector, RootSystem, checked_index, root_vector


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
        i = checked_index(i, 1, self.rank, "curve index")
        return DivisorClass(tuple(int(j == i - 1) for j in range(self.rank)))

    def _coefficients(self, d: DivisorClass) -> tuple[int, ...]:
        """d's coefficients read through operator.index: BasisMismatch unless
        there is one per curve, NonIntegerCoordinate unless each is an integer."""
        if len(d.coeffs) != self.rank:
            raise BasisMismatch(f"{len(d.coeffs)} coefficients on {self.rank} curves")
        try:
            return tuple(map(index, d.coeffs))
        except TypeError:
            raise NonIntegerCoordinate(f"coefficients {d.coeffs!r} are not integers") from None

    def degrees(self, d: DivisorClass) -> tuple[int, ...]:
        """(d . C_i) for every exceptional curve, in one integer pass."""
        coeffs = self._coefficients(d)
        return tuple(sum(map(mul, coeffs, col)) for col in zip(*self.intersection))

    def pair(self, a: DivisorClass, b: DivisorClass) -> int:
        return sum(map(mul, self.degrees(a), self._coefficients(b)))

    def self_intersection(self, d: DivisorClass) -> int:
        return self.pair(d, d)

    def restriction_degree(self, d: DivisorClass, i: int) -> int:
        """Degree of O(d) on the i-th exceptional curve, 1-based."""
        return self.pair(d, self.curve(i))


def resolution_lattice(rs: RootSystem) -> ResolutionLattice:
    """The exceptional-curve lattice of rs, intersecting by the negated Cartan
    matrix; minus_two_classes certifies that the form is negative definite."""
    return ResolutionLattice(rs, tuple(tuple(-v for v in row) for row in rs.cartan))


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
    """All classes of self-intersection -2, by Fincke-Pohst in integers.

    With m_0 = 1, m_1..m_n the leading minors of G = -intersection and A[j][i]
    the entry under pivot i of its fraction-free elimination, the LDL^T
    factors of G are d_i = m_{i+1}/m_i and l_ji = A[j][i]/m_{i+1}, so each
    coordinate is scanned inside an integer-square-root window.  This reads
    the lattice, not the root listing it is later matched against; a G that is
    not positive definite raises NotPositiveDefinite.
    """
    n = lattice.rank
    minors, below, _ = int_adjugate(tuple(tuple(-v for v in row) for row in lattice.intersection))
    if min(minors) <= 0:  # a zero minor also ends the elimination
        raise NotPositiveDefinite(
            f"{lattice.system.name}: form not definite, "
            f"the negated form has leading minors {minors}"
        )
    m = (1, *minors)
    x = [0] * n
    found: list[tuple[int, ...]] = []

    def rec(i: int, budget: int) -> None:
        # budget: 2 less what x_{i+1}.. spend, times m_{i+1}
        if i < 0:
            if budget == 0:
                found.append(tuple(x))
            return
        s, r, p = sum(map(mul, below[i], x[i + 1:])), budget * m[i], m[i + 1]
        t = isqrt(r)  # d_i (x_i + s/p)^2 <= budget/p exactly when |p x_i + s| <= t
        for xi in range(-((t + s) // p), (t - s) // p + 1):
            x[i] = xi
            # exact: left is m_i (2 - q(x_i..)) for q the form of G's Schur
            # complement to its leading i-block, whose denominators divide m_i
            left, rem = divmod(r - (p * xi + s) ** 2, p)
            if rem:
                raise ConstructionFailure(
                    f"{lattice.system.name}: Fincke-Pohst budget at {i + 1} not divisible by {p}"
                )
            rec(i - 1, left)
        x[i] = 0

    rec(n - 1, 2 * m[n])
    return tuple(DivisorClass(c) for c in sorted(found))


def surface_h2_oracle(lattice: ResolutionLattice):
    """H^2 oracle for root classes: replay the exceptional-curve descent.

    Negative classes are routed through their negation.  The walk follows
    the root's descent word (RootSystem.descent) and carries the curve
    degrees of the current class, one intersection row per step, so each
    step checks the degree -1 restriction on the lattice's own form; the
    height-one base case rests on the vanishing of H^1 and H^2 of the
    resolution's structure sheaf.
    """
    rs = lattice.system

    def oracle(alpha: LatticeVector) -> H2VanishVerdict:
        if not rs.is_root(alpha):
            raise NotARootClass(f"{alpha} is not a root class")
        a = rs.to_root_basis(alpha)
        negated = not rs.is_positive_root(a)
        top = -a if negated else a
        *word, base = rs.descent(top)
        degrees = lattice.degrees(DivisorClass(top.coords))
        for i in word:
            if degrees[i] != -1:
                return H2VanishVerdict(
                    root=a, vanishes=False, source="surface-descent",
                    detail=f"restriction degree {degrees[i]} on curve {i + 1}",
                )
            degrees = tuple(map(sub, degrees, lattice.intersection[i]))
        prefix = "negated; " if negated else ""
        return H2VanishVerdict(
            root=a,
            vanishes=True,
            source="surface-descent",
            detail=f"{prefix}curves {[i + 1 for i in word]} to base {base + 1}",
        )

    return oracle


def verify_surface(rs: RootSystem) -> VerificationReport:
    """Each lattice fact once, against the root side: the leading minors of
    the lattice's form as minus_two_classes reads them (an indefinite form is
    a violation, with nothing checked), the -2 classes matched with the roots
    (so every root squares to -2 and nothing else does), and the curve descent
    of every positive root (the oracle settles -a by walking a)."""
    rep = VerificationReport(name=f"surface-{rs.name}")
    lattice = resolution_lattice(rs)
    try:
        classes = minus_two_classes(lattice)
    except NotPositiveDefinite as exc:
        rep.violations.append(str(exc))
        return rep
    rep.checked += rs.rank + 1  # the minors and the class match
    if [c.coeffs for c in classes] != sorted(r.coords for r in rs.all_roots):
        rep.violations.append("-2 classes do not match the roots")
    rep.details["minus_two_classes"] = len(classes)

    oracle = surface_h2_oracle(lattice)
    for a in rs.positive_roots:
        rep.checked += 1
        verdict = oracle(a)
        if not verdict.vanishes:
            rep.violations.append(f"descent fails for {a}: {verdict.detail}")
    return rep
