"""Dominance order, minimal dominant majorants, and the chain-height invariant.

A weight mu is dominance-below nu when nu - mu is a non-negative integer
combination of simple roots.  Every weight lam has a dominant Weyl conjugate
lam_plus and a unique minimal dominant weight lam_star above it.  lam_star is
lam + c.C for the least c >= 0 that makes it dominant, because the Cartan
matrix C is a Z-matrix; firing reaches it: add alpha_i while coordinate i is
negative (least action, as in sandpiles).  The chain height cht(lam) is the
number of strict steps in the longest dominance chain of dominant weights
between lam_star and lam_plus.  In a simply-laced system a cover between
dominant weights is a positive root (Stembridge), so cht is the longest path
of a walk that starts at lam_star and adds positive roots while it stays
dominant and below lam_plus.  cht bounds from above the degrees in which the
cotangent-twisted cohomology of the lam-line bundle can survive, so cht <= 1
certifies vanishing in degree two and beyond.

Negative roots admit a descent structure used by the inductive vanishing
arguments: any negative root of height two or more pairs to -1 with some
simple root and stays a negative root after adding it, so it walks down to a
negated simple root in height-many steps.  The steps are the descent word
that the root closure records (RootSystem.descent), read on the negation.

This module holds the per-weight engine and imports no numpy.  The graded
Euler sum over symmetric powers is an array kernel in adelie.batch;
euler_characteristic_graded here imports it inside and delegates.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import NamedTuple

from ._exact import int_text
from .errors import (
    BudgetExceeded,
    ConstructionFailure,
    InvalidBound,
    NotARootClass,
    NotInRootLattice,
)
from .flag import dominant_conjugate
from .report import VerificationReport
from .roots import LatticeVector, RootSystem, checked_system, root_vector, weight_vector

# cap on the dominant weights one interval walk may keep
_POINT_BUDGET = 2 * 10 ** 4
#: the multiset budget of euler_characteristic_graded, and of the euler
#: command's --max-terms, unless the caller passes one
MAX_TERMS = 10 ** 6


def dominance_leq(rs: RootSystem, mu: LatticeVector, nu: LatticeVector) -> bool:
    """True when nu - mu is a non-negative integer combination of simple roots."""
    diff = checked_system(rs).to_weight_basis(nu) - rs.to_weight_basis(mu)
    try:
        return all(x >= 0 for x in rs.to_root_basis(diff).coords)
    except NotInRootLattice:
        return False


def lambda_plus(rs: RootSystem, lam: LatticeVector) -> LatticeVector:
    """The dominant Weyl conjugate of lam (fundamental-weight basis)."""
    return dominant_conjugate(rs, lam)[0]


@lru_cache(maxsize=64)
def _packed_steps(rs: RootSystem, width: int):
    """guard, ones, weight_guard, each positive root's (packed step, height)
    and need, for fields of width bits, as ints and tuples, which no caller
    can change; _usable_steps picks the steps a pattern tries from them.

    A point packs its weight coordinates w_i into fields 0..rank-1 and its
    slack d_i - c_i into field 2 rank - 1 - i, each offset by half, so adding
    a root beta adds beta's weight coordinates and subtracts its root
    coordinates.  guard holds half in every field and weight_guard in each
    weight field, ones 1 in each weight field, and a step's need half in each
    weight field where beta's coordinate is -1, its least.
    """
    half = 1 << (width - 1)
    ones = sum(1 << (width * f) for f in range(rs.rank))
    weight_guard = half * ones
    steps, needs = [], []
    for a in rs.positive_roots:
        w = rs.to_weight_basis(a).coords
        fields = w + tuple(-v for v in reversed(a.coords))
        steps.append((sum(v << (width * f) for f, v in enumerate(fields)), sum(a.coords)))
        needs.append(sum(half << (width * f) for f, v in enumerate(w) if v < 0))
    guard = weight_guard + (weight_guard << (width * rs.rank))
    return guard, ones, weight_guard, tuple(steps), tuple(needs)


@lru_cache(maxsize=1024)
def _usable_steps(rs: RootSystem, width: int, pattern: int) -> tuple:
    """The (packed step, height) pairs of _packed_steps(rs, width) whose need
    lies in pattern, the top bits of a point's weight fields with w_i >= 1."""
    _, _, _, steps, needs = _packed_steps(rs, width)
    return tuple(step for step, need in zip(steps, needs) if need & pattern == need)


def _least_action(rs: RootSystem, lam: LatticeVector):
    """lambda+, its root coordinates d above lam, and the least c >= 0 with
    lam + c.C dominant together with that weight (lam in the weight basis).

    lambda+ and d are dominant_conjugate's conjugate and lift.  Firing adds
    alpha_i (2 at i, -1 at its neighbours) ceil(-w_i / 2) times at once while
    w_i < 0, and never passes the least such c (least action), so it stops at
    lambda*.  lambda+ is one such c, so passing d is a bug in either walk.
    """
    plus, _, d = dominant_conjugate(rs, lam)
    neighbours = rs.neighbours
    c = [0] * rs.rank
    w = list(lam.coords)
    while True:
        for i, v in enumerate(w):
            if v < 0:
                break
        else:
            return plus, d, c, w
        k = (1 - v) // 2
        c[i] += k
        if c[i] > d[i]:
            raise ConstructionFailure(
                f"{rs.name}: firing from {lam} passes {plus} at coordinate {i + 1}"
            )
        w[i] += 2 * k
        for j in neighbours[i]:
            w[j] -= k


class ChtReport(NamedTuple):
    """Chain-height data for one weight.

    value is the edge count of the longest dominance chain of dominant weights
    in the interval [lambda_star, lambda_plus]; chain is one witness, listed
    upward, each point after the first, by height above lambda_star and then
    lexicographic root coordinates, of the longest-chain points it covers;
    shift is the height of lambda_plus - lambda_star; interval_points counts
    the dominant weights in the interval.
    """

    value: int
    lambda_star: LatticeVector
    lambda_plus: LatticeVector
    shift: int
    chain: tuple[LatticeVector, ...]
    interval_points: int


def cht(rs: RootSystem, lam: LatticeVector) -> ChtReport:
    """Chain height of lam, with the interval data and a witness chain."""
    lam = checked_system(rs).to_weight_basis(lam)
    plus, d, c_star, w_star = _least_action(rs, lam)

    # Walk up from lambda* by positive roots, keeping the dominant points
    # with c <= d.  A point is one int of 2 rank fields, each offset by half
    # so a field is non-negative exactly when its top bit is set; field
    # values stay within (-half, half), so adding a step never carries.  The
    # height of d is never taken below 2 ht(theta), that of the lowest root
    # -theta: every root walk has lambda+ = theta, so all of them get the
    # width of -theta and share one _packed_steps entry.
    depth = max(sum(d), 2 * sum(rs.highest_root().coords))
    width = (max(plus.coords) + depth + 8).bit_length() + 1
    half = 1 << (width - 1)
    guard, ones, weight_guard, steps, _ = _packed_steps(rs, width)
    slack = [dv - cv for dv, cv in zip(d, c_star)]
    fields = w_star + slack[::-1]
    start = guard + sum(v << (width * f) for f, v in enumerate(fields))

    # Visit the points by height, one layer at a time (layers holds at most
    # one height for each root height above the current one), each layer by
    # descending key, that is by lexicographic c: the slack fields lead the
    # key with coordinate 1 on top.  Every predecessor of a point is lower,
    # so a layer is whole when its height is popped and best is final when a
    # point is visited.  A point tries only the steps whose need lies in its
    # pattern, the top bits of its weight fields with w_i >= 1 (no field of
    # key - ones borrows, as each is at least half), and the guard checks
    # every sum.  usable keeps this walk's patterns in front of the bounded
    # _usable_steps, which the calls of this width share.
    best = {start: 0}
    layers = {0: [start]}
    usable = {}
    while layers:
        h = min(layers)
        layer = layers.pop(h)
        layer.sort(reverse=True)
        for key in layer:
            up = best[key] + 1
            pattern = (key - ones) & weight_guard
            tried = usable.get(pattern)
            if tried is None:
                tried = usable[pattern] = _usable_steps(rs, width, pattern)
            for step, dh in tried:
                nxt = key + step
                if nxt & guard != guard:
                    continue
                old = best.get(nxt)
                if old is None:
                    if len(best) == _POINT_BUDGET:
                        raise BudgetExceeded(
                            f"{rs.name} {lam}: interval walk kept {len(best)} "
                            f"dominant weights (cap {_POINT_BUDGET}) and reached "
                            f"height {h} of {int_text(sum(slack))} above lambda*"
                        )
                    layers.setdefault(h + dh, []).append(nxt)
                elif old >= up:
                    continue
                best[nxt] = up

    # lambda+, whose key is its weight with no slack, tops the interval, so
    # it alone ends a longest chain.  Below each point the witness steps to
    # its parent, the first visited of its predecessors one shorter: the
    # lowest, then the largest key.  A key less a step is in best only when
    # it is a predecessor, as no sum carries.  lambda* is the one point at 0.
    key = guard + sum(v << (width * f) for f, v in enumerate(plus.coords))
    value, middle = best[key], []
    while best[key] > 1:
        below = best[key] - 1
        key = max((dh, key - step) for step, dh in steps if best.get(key - step) == below)[1]
        middle.append(key)

    mask = (1 << width) - 1

    def to_weight(key: int) -> LatticeVector:
        return weight_vector(
            *(((key >> (width * f)) & mask) - half for f in range(rs.rank))
        )

    # the chain is lambda* alone when the interval is one point
    star = weight_vector(*w_star)
    return ChtReport(
        value=value,
        lambda_star=star,
        lambda_plus=plus,
        shift=sum(slack),
        chain=(star, *map(to_weight, reversed(middle)), plus)[: value + 1],
        interval_points=len(best),
    )


def lambda_star(rs: RootSystem, lam: LatticeVector) -> LatticeVector:
    """The unique minimal dominant weight above lam in dominance order."""
    return weight_vector(*_least_action(rs, checked_system(rs).to_weight_basis(lam))[3])


class CotangentVerdict(NamedTuple):
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


def _capped_ball(rank: int, radius: int, cap: int):
    """The coordinate tuples of product(range(-radius, radius + 1),
    repeat=rank) with at most cap nonzero entries, in product's order.  They
    are built entry by entry, so the rest of the box is never walked."""
    if not rank:
        yield ()
        return
    for v in range(-radius, radius + 1):
        if cap >= (v != 0):
            for rest in _capped_ball(rank - 1, radius, cap - (v != 0)):
                yield (v, *rest)


def _bound(name: str, value) -> int:
    """value read through operator.index; InvalidBound unless it is an
    integer >= 0, so that no ball is empty and no report reads ok unchecked."""
    try:
        value = index(value)
    except TypeError:
        raise InvalidBound(f"{name} {value!r} is not an integer") from None
    if value < 0:
        raise InvalidBound(f"{name} must be non-negative, got {value}")
    return value


def verify_chain_criterion(
    rs: RootSystem, radius: int = 2, max_support: int | None = None
) -> VerificationReport:
    """Exhaustive ball check: cht(lam) = 0 iff lam pairs >= -1 with every
    positive root.

    max_support, when set, keeps only weights with at most that many nonzero
    coordinates.  A radius or max_support that is not an integer >= 0 raises
    InvalidBound.  cht(lam) = 0 exactly when the interval [lam_star, lam_plus]
    is one point, that is when the firing stops at lambda+ (c = d in
    _least_action), so the check reads the firing and walks no interval.
    """
    checked_system(rs)
    radius = _bound("radius", radius)
    cap = rs.rank if max_support is None else _bound("max_support", max_support)
    rep = VerificationReport(name=f"chain-criterion-{rs.name}")
    for coords in _capped_ball(rs.rank, radius, cap):
        lam = weight_vector(*coords)
        rep.checked += 1
        flat = min(rs.positive_pairings(lam)) >= -1
        _, d, c, _ = _least_action(rs, lam)
        if (tuple(c) == d) != flat:
            rep.violations.append(
                f"{lam}: cht {'0' if not flat else 'nonzero'} against pairing bound"
            )
    return rep


def negative_root_descent(rs: RootSystem, lam: LatticeVector) -> tuple[LatticeVector, ...]:
    """Descent chain from a negative root down to a negated simple root.

    Each step adds the next simple root of the descent word of -lam
    (RootSystem.descent), the least one pairing to -1 whose sum stays a root;
    the chain has height-many entries and every entry is a negative root.
    """
    if not checked_system(rs).is_root(lam) or rs.is_positive_root(lam):
        raise NotARootClass(f"{lam} is not a negative root")
    cur = rs.to_root_basis(lam).coords
    chain = [cur]
    for i in rs.descent(-lam)[:-1]:
        cur = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
        chain.append(cur)
    return tuple(root_vector(*c) for c in chain)


def verify_descent(rs: RootSystem) -> VerificationReport:
    """Every negative root descends to a negated simple root: the chain of
    negative_root_descent, one simple root added per step, holds only
    negative roots and ends at a negated simple root."""
    rep = VerificationReport(name=f"descent-{checked_system(rs).name}")
    negatives = set(rs.all_roots[len(rs.positive_roots):])
    ends = {-s for s in rs.simple_roots}
    longest = 0
    for a in rs.positive_roots:
        rep.checked += 1
        chain = negative_root_descent(rs, -a)
        off = next((v for v in chain if v not in negatives), None)
        if off is not None:
            rep.violations.append(f"descent of {-a} leaves the negative roots at {off}")
        elif chain[-1] not in ends:
            rep.violations.append(
                f"descent of {-a} ends at {chain[-1]}, not a negated simple root"
            )
        longest = max(longest, len(chain) - 1)
    rep.details["longest_chain"] = longest
    return rep


def euler_characteristic_graded(
    rs: RootSystem, lam: LatticeVector, degree: int, max_terms: int = MAX_TERMS
) -> int:
    """Euler characteristic of the degree-th symmetric-power twist of lam: the
    sum of chi(lam + the roots of a multiset) over the degree-multisets of
    positive roots.  The fold over the multisets is batch's array kernel of
    the same name and signature, which documents it and its refusals; it is
    imported here, so that cht and the other numpy-free commands neither
    import numpy nor compile it."""
    checked_system(rs)
    from .batch import euler_characteristic_graded as kernel

    return kernel(rs, lam, degree, max_terms)
