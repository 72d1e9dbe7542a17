"""Dominance order, minimal dominant majorants, and the chain-height invariant.

A weight mu is dominance-below nu when nu - mu is a non-negative integer
combination of simple roots.  Every weight lam has a dominant Weyl conjugate
lam_plus and a unique minimal dominant weight lam_star above it; both live in
the coordinate box between lam and lam_plus, so they are found by an exact
integer sweep of that box.  The chain height cht(lam) is the number of strict
steps in the longest dominance chain of dominant weights between lam_star and
lam_plus; it bounds from above the degrees in which the cotangent-twisted
cohomology of the lam-line bundle can survive, so cht <= 1 certifies vanishing
in degree two and beyond.

Negative roots admit a descent structure used by the inductive vanishing
arguments: any negative root of height two or more pairs to -1 with some
simple root and stays a negative root after adding it, so it walks down to a
negated simple root in height-many steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import BudgetExceeded, ConstructionFailure, NotARootClass
from .flag import dominant_conjugate, euler_characteristic
from .report import VerificationReport
from .roots import LatticeVector, RootSystem, build, weight_vector

# caps for the box walks: dominant points kept, and search-tree nodes visited
_POINT_BUDGET = 2 * 10 ** 4
_NODE_BUDGET = 5 * 10 ** 7


def dominance_leq(rs: RootSystem, mu: LatticeVector, nu: LatticeVector) -> bool:
    """True when nu - mu is a non-negative integer combination of simple roots."""
    diff = rs.to_weight_basis(nu) - rs.to_weight_basis(mu)
    return all(
        f.denominator == 1 and f >= 0 for f in rs.root_coords_exact(diff)
    )


def lambda_plus(rs: RootSystem, lam: LatticeVector) -> LatticeVector:
    """The dominant Weyl conjugate of lam (fundamental-weight basis)."""
    return dominant_conjugate(rs, lam)[0]


def _dominant_box_points(rs: RootSystem, base_w, d) -> np.ndarray:
    """All c in prod [0, d_i] with base + c . cartan componentwise >= 0.

    Depth-first over the axes with interval pruning: once axis j is fixed,
    later axes can raise coordinate i only through the diagonal entry, by at
    most 2 d_i, and can only lower coordinates at or before j.  A prefix that
    cannot recover a negative coordinate is cut, which collapses the walk to
    the thin feasible sliver of the box.
    """
    r = len(d)
    rows = [tuple(rs.cartan[k]) for k in range(r)]
    slack = [2 * v for v in d]
    w = list(base_w)
    c = [0] * r
    out: list[tuple[int, ...]] = []
    nodes = 0

    def rec(j: int) -> None:
        nonlocal nodes
        if j == r:
            out.append(tuple(c))
            if len(out) > _POINT_BUDGET:
                raise BudgetExceeded(
                    f"more than {_POINT_BUDGET} dominant points in one box"
                )
            return
        row = rows[j]
        lo, hi = 0, d[j]
        for i in range(r):
            ri = row[i]
            wi = w[i] + slack[i] if i > j else w[i]
            if ri > 0:  # the diagonal: w_j + 2v >= 0
                if wi < 0:
                    lo = max(lo, (-wi + ri - 1) // ri)
            elif ri < 0:  # off-diagonal -1: v <= wi
                hi = min(hi, wi // -ri)
            elif wi < 0:  # v cannot influence an already-failed coordinate
                return
        if lo > hi:
            return
        for i in range(r):
            w[i] += lo * row[i]
        for v in range(lo, hi + 1):
            if v > lo:
                for i in range(r):
                    w[i] += row[i]
            c[j] = v
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise BudgetExceeded("box walk exceeded the node budget")
            rec(j + 1)
        for i in range(r):
            w[i] -= hi * row[i]

    rec(0)
    if not out:
        return np.empty((0, r), dtype=np.int64)
    return np.asarray(out, dtype=np.int64)


@dataclass(frozen=True)
class ChtReport:
    """Chain-height data for one weight.

    value is the edge count of the longest dominance chain of dominant weights
    in the interval [lambda_star, lambda_plus]; chain is one witness, listed
    upward; shift is the height of lambda_plus - lambda_star; interval_points
    counts the dominant weights in the interval.
    """

    value: int
    lambda_star: LatticeVector
    lambda_plus: LatticeVector
    shift: int
    chain: tuple[LatticeVector, ...]
    interval_points: int


@lru_cache(maxsize=4096)
def _cht_cached(kind: str, rank: int, coords: tuple[int, ...]) -> ChtReport:
    rs = build(kind, rank)
    lam = weight_vector(*coords)
    plus = lambda_plus(rs, lam)
    d = rs.to_root_basis(plus - lam).coords
    if any(v < 0 for v in d):  # a dominant conjugate dominates its orbit
        raise ConstructionFailure(
            f"{rs.name}: dominant conjugate {plus} does not dominate {lam}"
        )

    cs = _dominant_box_points(rs, lam.coords, d)
    if len(cs) == 0:  # lambda+ itself lies in the box
        raise ConstructionFailure(f"{rs.name}: no dominant weight above {lam}")

    # unique minimal candidate in componentwise order = global lambda_star;
    # dominance between box points is exactly componentwise c-comparison
    order = np.argsort(cs.sum(axis=1), kind="stable")
    cs = cs[order]
    minima = [0]
    for i in range(1, len(cs)):
        if not any((cs[m] <= cs[i]).all() for m in minima):
            minima.append(i)
    if len(minima) != 1:  # the Cartan matrix is a Z-matrix, so lambda* is unique
        raise ConstructionFailure(
            f"{rs.name}: {len(minima)} minimal dominant weights above {lam}"
        )
    c_star = cs[minima[0]]

    above = cs[(cs >= c_star).all(axis=1)]
    best = np.zeros(len(above), dtype=np.int64)
    parent = np.full(len(above), -1, dtype=np.int64)
    for i in range(len(above)):
        le = (above[:i] <= above[i]).all(axis=1)
        sums = above[:i].sum(axis=1)
        le &= sums < above[i].sum()
        if le.any():
            j = int(np.flatnonzero(le)[np.argmax(best[:i][le])])
            best[i] = best[j] + 1
            parent[i] = j

    top = int(np.argmax(best))
    path = []
    while top >= 0:
        path.append(top)
        top = int(parent[top])
    path.reverse()

    cartan = np.asarray(rs.cartan, dtype=np.int64)
    base = np.asarray(lam.coords, dtype=np.int64)

    def to_weight(c) -> LatticeVector:
        return weight_vector(*(int(v) for v in base + c @ cartan))

    star = to_weight(c_star)
    return ChtReport(
        value=int(best.max()) if len(above) else 0,
        lambda_star=star,
        lambda_plus=plus,
        shift=rs.coordinate_sum(rs.to_root_basis(plus - star)),
        chain=tuple(to_weight(above[i]) for i in path),
        interval_points=len(above),
    )


def lambda_star(rs: RootSystem, lam: LatticeVector) -> LatticeVector:
    """The unique minimal dominant weight above lam in dominance order."""
    return _cht_cached(rs.kind, rs.rank, rs.to_weight_basis(lam).coords).lambda_star


def cht(rs: RootSystem, lam: LatticeVector) -> ChtReport:
    """Chain height of lam, with the interval data and a witness chain."""
    return _cht_cached(rs.kind, rs.rank, rs.to_weight_basis(lam).coords)


@dataclass(frozen=True)
class CotangentVerdict:
    """Vanishing verdict for the cotangent-twisted cohomology of one weight.

    Cohomology can survive only in degrees up to vanishing_above; h2_vanish
    reports whether that bound already rules out degree two.
    """

    weight: LatticeVector
    report: ChtReport
    vanishing_above: int
    h2_vanish: bool


def cotangent_verdict(rs: RootSystem, lam: LatticeVector) -> CotangentVerdict:
    rep = cht(rs, lam)
    return CotangentVerdict(
        weight=rs.to_weight_basis(lam),
        report=rep,
        vanishing_above=rep.value,
        h2_vanish=rep.value < 2,
    )


def verify_chain_criterion(
    rs: RootSystem, radius: int = 2, max_support: int | None = None
) -> VerificationReport:
    """Exhaustive ball check: cht(lam) = 0 iff lam pairs >= -1 with every
    positive root.

    max_support, when set, keeps only weights with that many nonzero
    coordinates; weights deep in the antidominant cone have dominant intervals
    too large for the point budget at high rank.
    """
    rep = VerificationReport(name=f"chain-criterion-{rs.name}")
    for coords in np.ndindex(*([2 * radius + 1] * rs.rank)):
        if max_support is not None and sum(v != radius for v in coords) > max_support:
            continue
        lam = weight_vector(*(int(v) - radius for v in coords))
        rep.checked += 1
        flat = min(rs.positive_pairings(lam)) >= -1
        if (cht(rs, lam).value == 0) != flat:
            rep.violations.append(
                f"{lam}: cht {'0' if not flat else 'nonzero'} against pairing bound"
            )
    return rep


def negative_root_descent(rs: RootSystem, lam: LatticeVector) -> tuple[LatticeVector, ...]:
    """Descent chain from a negative root down to a negated simple root.

    Each step adds the first simple root pairing to -1 whose sum stays a root;
    the chain has height-many entries and every entry is a negative root.
    """
    if not rs.is_root(lam) or rs.is_positive_root(lam):
        raise NotARootClass(f"{lam} is not a negative root")
    lam = rs.to_root_basis(lam)
    chain = [lam]
    cur = lam
    while rs.height(cur) >= 2:
        step = next(
            (
                a
                for a in rs.simple_roots
                if rs.pairing(cur, a) == -1 and rs.is_root(cur + a)
            ),
            None,
        )
        if step is None:  # cannot happen: a root pairs positively with itself
            raise ConstructionFailure(f"{rs.name}: no descent step from {cur}")
        cur = cur + step
        chain.append(cur)
    return tuple(chain)


def verify_descent(rs: RootSystem) -> VerificationReport:
    """Every negative root of height >= 2 steps down by a simple root, and the
    chains reach a negated simple root without leaving the negative roots."""
    rep = VerificationReport(name=f"descent-{rs.name}")
    longest = 0
    for a in rs.positive_roots:
        lam = -a
        rep.checked += 1
        chain = negative_root_descent(rs, lam)
        longest = max(longest, len(chain) - 1)
        if len(chain) != rs.height(lam):
            rep.violations.append(f"{lam}: chain length {len(chain) - 1}")
            continue
        if any(rs.is_positive_root(c) or not rs.is_root(c) for c in chain):
            rep.violations.append(f"{lam}: chain leaves the negative roots")
        elif -chain[-1] not in rs.simple_roots:
            rep.violations.append(f"{lam}: chain ends at {chain[-1]}")
    rep.details["longest_chain"] = longest
    return rep


def euler_characteristic_graded(
    rs: RootSystem, lam: LatticeVector, degree: int, max_terms: int = 10 ** 6
) -> int:
    """Sum of Euler characteristics of lam shifted by all degree-multisets of
    positive roots: the Euler characteristic of the degree-th symmetric-power
    twist.  Raises BudgetExceeded when the multiset count passes max_terms.

    Many multisets share a root sum, so they are first folded into distinct
    sums with multiplicities, one positive root at a time, and each distinct
    shifted weight costs one Euler characteristic.  A sum is packed into one
    int, sum_i c_i * base**i with |c_i| < base / 2, so adding roots is adding
    ints and the fold stores no tuples.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    n_pos = len(rs.positive_roots)
    terms = comb(n_pos + degree - 1, degree) if degree else 1
    if terms > max_terms:
        raise BudgetExceeded(
            f"{terms} multisets of degree {degree} exceed the budget {max_terms}"
        )
    lam_w = rs.to_weight_basis(lam).coords
    shifts = [rs.to_weight_basis(a).coords for a in rs.positive_roots]
    base = 2 * degree * max(abs(c) for a in shifts for c in a) + 1
    # layers[j]: packed sum -> number of j-multisets of the roots seen so far
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(degree)]
    for a in shifts:
        step = sum(c * base ** i for i, c in enumerate(a))
        # ascending j reuses this root's own update of layers[j - 1], so a
        # root may repeat any number of times within a multiset
        for j in range(1, degree + 1):
            below, layer = layers[j - 1], layers[j]
            for key, m in below.items():
                key += step
                layer[key] = layer.get(key, 0) + m
    total = 0
    for key, m in layers[degree].items():
        mu = []
        for w in lam_w:
            c = (key + base // 2) % base - base // 2
            key = (key - c) // base
            mu.append(w + c)
        total += m * euler_characteristic(rs, weight_vector(*mu))
    return total
