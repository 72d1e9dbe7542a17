"""Line-bundle cohomology on the full flag variety of a simply-laced group.

For an integral weight lam, the cohomology of the associated line bundle is
governed by the shifted weight lam + rho: if it is singular (orthogonal to
some positive root) every cohomology group vanishes; otherwise exactly one
degree survives, equal to the number of positive roots made negative by the
shift, and the surviving group is the irreducible representation whose highest
weight is the dominant conjugate of lam + rho, shifted back by -rho.  Its
dimension comes from the Weyl product formula, evaluated in exact integers.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .errors import ConstructionFailure, NotDominant
from .report import VerificationReport
from .roots import Basis, LatticeVector, RootSystem, checked_index, checked_system

ALL_VANISH = "AllVanish"
CONCENTRATED = "Concentrated"


class CohomologyVerdict(NamedTuple):
    """Outcome of the cohomology computation for one line bundle.

    status is AllVanish or Concentrated.  In the concentrated case, degree is
    the unique surviving cohomological degree, highest_weight the dominant
    highest weight of the surviving representation (fundamental-weight basis),
    dimension its exact dimension, and word the sequence of simple reflections
    (1-based, in application order) carrying the shifted weight to dominance.
    """

    status: str
    degree: int | None = None
    highest_weight: LatticeVector | None = None
    dimension: int | None = None
    word: tuple[int, ...] | None = None

    @property
    def euler(self) -> int:
        """Signed dimension (-1)^degree * dim of the surviving group, or zero."""
        if self.status == ALL_VANISH:
            return 0
        return (-1) ** self.degree * self.dimension


def is_singular(rs: RootSystem, mu: LatticeVector) -> bool:
    """True when mu is orthogonal to some positive root."""
    return 0 in checked_system(rs).positive_pairings(mu)


def index(rs: RootSystem, mu: LatticeVector) -> int:
    """Number of positive roots pairing strictly negatively with mu."""
    return sum(1 for p in checked_system(rs).positive_pairings(mu) if p < 0)


def dominant_conjugate(
    rs: RootSystem, mu: LatticeVector
) -> tuple[LatticeVector, tuple[int, ...], tuple[int, ...]]:
    """Unique dominant Weyl conjugate of mu, the reflection word reaching it,
    and its lift, the conjugate's simple-root coordinates above mu.

    Repeatedly reflects at the first strictly negative fundamental coordinate.
    Each such reflection turns exactly one positive root's pairing from
    negative to positive and permutes the rest, so the loop runs exactly
    index(rs, mu) times; the word lists 1-based simple-reflection indices in
    application order.  At mu_i < 0, s_i adds -mu_i alpha_i, and -mu_i to the
    lift, as the firing of cotangent._least_action adds alpha_i: it negates
    coordinate i and adds mu_i to i's neighbours, the only others it moves.
    """
    neighbours = checked_system(rs).neighbours
    cur = list(rs.to_weight_basis(mu).coords)
    word: list[int] = []
    lift = [0] * rs.rank
    while True:
        for i, k in enumerate(cur):
            if k < 0:
                break
        else:
            return LatticeVector(tuple(cur), Basis.FUNDAMENTAL_WEIGHT), tuple(word), tuple(lift)
        cur[i] = -k
        lift[i] -= k
        for j in neighbours[i]:
            cur[j] += k
        word.append(i + 1)


def weyl_dim(rs: RootSystem, mu: LatticeVector) -> int:
    """Dimension of the irreducible representation with highest weight mu.

    Exact integer product formula; mu must be dominant.
    """
    mu = checked_system(rs).to_weight_basis(mu)
    if not rs.is_dominant(mu):
        raise NotDominant(f"{mu} is not dominant")
    num = prod(rs.positive_pairings(mu + rs.rho()))
    den = prod(rs.positive_pairings(rs.rho()))  # (rho, a) is the height of a
    q, r = divmod(num, den)
    if r:
        raise ConstructionFailure(
            f"{rs.name}: Weyl numerator of {mu} is not divisible by the rho-product"
        )
    return q


def bwb(rs: RootSystem, lam: LatticeVector) -> CohomologyVerdict:
    """Full cohomology verdict for the line bundle attached to the weight lam."""
    lam = checked_system(rs).to_weight_basis(lam)
    shifted = lam + rs.rho()
    if is_singular(rs, shifted):
        return CohomologyVerdict(status=ALL_VANISH)
    dom, word, _ = dominant_conjugate(rs, shifted)
    hw = dom - rs.rho()
    return CohomologyVerdict(
        status=CONCENTRATED,
        degree=len(word),
        highest_weight=hw,
        dimension=weyl_dim(rs, hw),
        word=word,
    )


def euler_characteristic(rs: RootSystem, lam: LatticeVector) -> int:
    """Signed dimension (-1)^degree * dim of the surviving group, or zero."""
    return bwb(rs, lam).euler


def schubert_restriction_degree(rs: RootSystem, lam: LatticeVector, i: int) -> int:
    """Degree of the lam-line bundle on the i-th simple Schubert curve (1-based)."""
    i = checked_index(i, 1, checked_system(rs).rank, "curve index")
    return rs.to_weight_basis(lam).coords[i - 1]


def verify_root_cohomology(rs: RootSystem) -> VerificationReport:
    """Sweep every root weight: no cohomology above degree one, and degree one
    occurs exactly for the negatives of simple roots, always one-dimensionally."""
    rep = VerificationReport(name=f"root-cohomology-{checked_system(rs).name}")
    simples = set(r.coords for r in rs.simple_roots)
    first_degree = 0
    for a in rs.all_roots:
        rep.checked += 1
        v = bwb(rs, a)
        if v.status == CONCENTRATED and v.degree >= 2:
            rep.violations.append(f"root {a} has cohomology in degree {v.degree}")
            continue
        has_h1 = v.status == CONCENTRATED and v.degree == 1
        expect_h1 = (-a).coords in simples
        if has_h1 != expect_h1:
            rep.violations.append(
                f"root {a}: degree-one cohomology {'present' if has_h1 else 'absent'}"
                f" but negated-simple is {expect_h1}"
            )
        elif has_h1:
            first_degree += 1
            if v.dimension != 1:
                rep.violations.append(
                    f"root {a}: degree-one dimension {v.dimension} != 1"
                )
    rep.details["degree_one_count"] = first_degree
    return rep


def verify_index_bound(rs: RootSystem) -> VerificationReport:
    """Every nonsingular rho-shift of a root has index at most one, and root
    weights stay within the small coordinate boxes that force that bound."""
    rep = VerificationReport(name=f"index-bound-{checked_system(rs).name}")
    rho = rs.rho()
    simples = set(r.coords for r in rs.simple_roots)
    for a in rs.all_roots:
        rep.checked += 1
        w = rs.to_weight_basis(a)
        shifted = w + rho
        if not is_singular(rs, shifted):
            ind = index(rs, shifted)
            if ind > 1:
                rep.violations.append(f"root {a}: index {ind} exceeds 1")
        allowed = {-1, 0, 1}
        if a.coords in simples:
            allowed = {-1, 0, 1, 2}
        elif (-a).coords in simples:
            allowed = {-2, -1, 0, 1}
        bad = [v for v in w.coords if v not in allowed]
        if bad:
            rep.violations.append(f"root {a}: weight coordinate {bad[0]} out of range")
    return rep
