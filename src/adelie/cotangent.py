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
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate
from math import comb, prod
from operator import index, mul
from typing import NamedTuple

from ._exact import digits_past_limit, int_text
from .errors import (
    BudgetExceeded,
    ConstructionFailure,
    NegativeDegree,
    NonIntegerDegree,
    NotARootClass,
    NotInRootLattice,
)
from .flag import dominant_conjugate
from .report import VerificationReport
from .roots import LatticeVector, RootSystem, build, root_vector, weight_vector

# cap on the dominant weights one interval walk may keep
_POINT_BUDGET = 2 * 10 ** 4


def dominance_leq(rs: RootSystem, mu: LatticeVector, nu: LatticeVector) -> bool:
    """True when nu - mu is a non-negative integer combination of simple roots."""
    diff = rs.to_weight_basis(nu) - rs.to_weight_basis(mu)
    try:
        return all(x >= 0 for x in rs.to_root_basis(diff).coords)
    except NotInRootLattice:
        return False


def lambda_plus(rs: RootSystem, lam: LatticeVector) -> LatticeVector:
    """The dominant Weyl conjugate of lam (fundamental-weight basis)."""
    return dominant_conjugate(rs, lam)[0]


@lru_cache(maxsize=64)
def _packed_steps(kind: str, rank: int, width: int) -> tuple[tuple[int, int], ...]:
    """(packed step, height) of every positive root for fields of width bits.

    A point packs its weight coordinates w_i into fields 0..rank-1 and its
    slack d_i - c_i into field 2 rank - 1 - i, so adding a root beta adds
    beta's weight coordinates and subtracts its root coordinates.
    """
    rs = build(kind, rank)
    out = []
    for a in rs.positive_roots:
        fields = list(rs.to_weight_basis(a).coords) + [-v for v in reversed(a.coords)]
        out.append((sum(v << (width * f) for f, v in enumerate(fields)), sum(a.coords)))
    return tuple(out)


def _least_action(rs: RootSystem, lam: LatticeVector):
    """lambda+, its root coordinates d above lam, and the least c >= 0 with
    lam + c.C dominant together with that weight (lam in the weight basis).

    Firing adds alpha_i while coordinate i is negative, ceil(-w_i / 2) times
    at once, and never passes the least such c (least action), so it stops at
    lambda*.  lambda+ is one such c, so passing d is a bug.
    """
    plus = lambda_plus(rs, lam)
    d = rs.to_root_basis(plus - lam).coords
    if any(v < 0 for v in d):  # a dominant conjugate dominates its orbit
        raise ConstructionFailure(
            f"{rs.name}: dominant conjugate {plus} does not dominate {lam}"
        )
    c = [0] * rs.rank
    w = list(lam.coords)
    while True:
        i = next((i for i, v in enumerate(w) if v < 0), None)
        if i is None:
            return plus, d, c, w
        k = (1 - w[i]) // 2
        c[i] += k
        if c[i] > d[i]:
            raise ConstructionFailure(
                f"{rs.name}: firing from {lam} passes {plus} at coordinate {i + 1}"
            )
        for j, v in enumerate(rs.cartan[i]):
            w[j] += k * v


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


@lru_cache(maxsize=4096)
def _cht_cached(kind: str, rank: int, coords: tuple[int, ...]) -> ChtReport:
    rs = build(kind, rank)
    lam = weight_vector(*coords)
    plus, d, c_star, w_star = _least_action(rs, lam)

    # Walk up from lambda* by positive roots, keeping the dominant points
    # with c <= d.  A point is one int of 2 rank fields, each offset by half
    # so a field is non-negative exactly when its top bit is set; field
    # values stay within (-half, half), so adding a step never carries.
    width = (max(plus.coords) + sum(d) + 8).bit_length() + 1
    half = 1 << (width - 1)
    guard = sum(half << (width * f) for f in range(2 * rank))
    slack = [dv - cv for dv, cv in zip(d, c_star)]
    fields = w_star + slack[::-1]
    start = guard + sum(v << (width * f) for f, v in enumerate(fields))
    steps = _packed_steps(kind, rank, width)

    # Pop the points in the order (height, lexicographic c): the slack fields
    # lead the key with coordinate 1 on top, so a larger key is a smaller c.
    # Every predecessor of a point is lower, so it is popped before the point
    # and best is final when the point is popped; a point's parent is the
    # first popped of its predecessors with the longest path.
    best = {start: 0}
    parent = {start: None}
    heap = [(0, -start)]
    while heap:
        h, key = heappop(heap)
        key = -key
        up = best[key] + 1
        for step, dh in steps:
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
                heappush(heap, (h + dh, -nxt))
            elif old >= up:
                continue
            best[nxt] = up
            parent[nxt] = key

    # lambda+ is the top of the interval, so it alone ends a longest chain
    top = max(best, key=best.__getitem__)
    path = []
    while top is not None:
        path.append(top)
        top = parent[top]

    mask = (1 << width) - 1

    def to_weight(key: int) -> LatticeVector:
        return weight_vector(
            *(((key >> (width * f)) & mask) - half for f in range(rank))
        )

    return ChtReport(
        value=len(path) - 1,
        lambda_star=weight_vector(*w_star),
        lambda_plus=plus,
        shift=sum(slack),
        chain=tuple(to_weight(key) for key in reversed(path)),
        interval_points=len(best),
    )


def lambda_star(rs: RootSystem, lam: LatticeVector) -> LatticeVector:
    """The unique minimal dominant weight above lam in dominance order."""
    return weight_vector(*_least_action(rs, rs.to_weight_basis(lam))[3])


def cht(rs: RootSystem, lam: LatticeVector) -> ChtReport:
    """Chain height of lam, with the interval data and a witness chain."""
    return _cht_cached(rs.kind, rs.rank, rs.to_weight_basis(lam).coords)


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


def verify_chain_criterion(
    rs: RootSystem, radius: int = 2, max_support: int | None = None
) -> VerificationReport:
    """Exhaustive ball check: cht(lam) = 0 iff lam pairs >= -1 with every
    positive root.

    max_support, when set, keeps only weights with at most that many nonzero
    coordinates.  cht(lam) = 0 exactly when the interval [lam_star, lam_plus]
    is one point, that is when the firing stops at lambda+ (c = d in
    _least_action), so the check reads the firing and walks no interval.
    """
    rep = VerificationReport(name=f"chain-criterion-{rs.name}")
    cap = rs.rank if max_support is None else max_support
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
    if not rs.is_root(lam) or rs.is_positive_root(lam):
        raise NotARootClass(f"{lam} is not a negative root")
    cur = rs.to_root_basis(lam).coords
    chain = [cur]
    for i in rs.descent(-lam)[:-1]:
        cur = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
        chain.append(cur)
    return tuple(root_vector(*c) for c in chain)


def verify_descent(rs: RootSystem) -> VerificationReport:
    """Every negative root descends to a negated simple root: the chain of
    negative_root_descent exists for each, one simple root added per step."""
    rep = VerificationReport(name=f"descent-{rs.name}")
    longest = 0
    for a in rs.positive_roots:
        rep.checked += 1
        longest = max(longest, len(negative_root_descent(rs, -a)) - 1)
    rep.details["longest_chain"] = longest
    return rep


def euler_characteristic_graded(
    rs: RootSystem, lam: LatticeVector, degree: int, max_terms: int = 10 ** 6
) -> int:
    """Sum of Euler characteristics of lam shifted by all degree-multisets of
    positive roots: the Euler characteristic of the degree-th symmetric-power
    twist.  The degree is read through operator.index.  Raises
    NonIntegerDegree for a degree that is not an integer, NegativeDegree for
    one below zero and BudgetExceeded when the multiset count, or the
    degree + 1 layers of the fold, pass max_terms.

    Many multisets share a root sum, so they are first folded into distinct
    sums with multiplicities.  A sum of degree positive roots has simple-root
    coordinate i in 0..degree * m_i, m the highest root, so it packs into one
    mixed-radix integer, and adding roots is adding integers.  Layer j lists
    the packed j-multisets ordered by their last root; those whose last root
    is r are the (j - 1)-multisets over roots 0..r shifted by r, which are
    the first C(r + j - 1, j - 1) entries of layer j - 1.  Only two layers
    live at once, so memory follows the multiset count, which max_terms
    bounds.  One sort and a run-length count of the last layer give the
    distinct sums and their multiplicities.

    Bott's theorem with Weyl's dimension formula gives, for every weight nu,
    chi(nu) = prod_a (nu + rho, a) / prod_a (rho, a) over the positive roots
    a: zero exactly on singular nu + rho, and signed (-1)^length of the Weyl
    element that makes nu + rho dominant, so no dominant conjugate is needed.
    The factors (nu + rho, a) are columns over the distinct sums, taken in
    height order: a simple root's column decodes from the packed sums, and
    root k plus alpha_i adds column alpha_i to column k, as positive_pairings
    does for one weight.  A sum leaves at its first zero factor, so only
    regular sums reach the later columns.  The factors multiply in blocks
    whose products stay in int64 (on Python ints, dtype object, when a factor
    might not), the blocks on Python ints, and each numerator must divide by
    the rho-product, as in weyl_dim.
    """
    import numpy as np  # here, so that cht and cotangent start without numpy

    try:
        degree = index(degree)
    except TypeError:
        raise NonIntegerDegree(f"degree {degree!r} is not an integer") from None
    if degree < 0:
        raise NegativeDegree(f"degree must be non-negative, got {degree}")
    n_pos = len(rs.positive_roots)
    terms = comb(n_pos + degree - 1, degree) if degree else 1
    if terms > max_terms:
        count = f"more than {max_terms}" if digits_past_limit(terms) else terms
        raise BudgetExceeded(
            f"{count} multisets of degree {degree} exceed the budget {max_terms}"
        )
    if degree >= max_terms:  # only on A1, whose one root has one multiset per degree
        raise BudgetExceeded(
            f"{degree + 1} fold layers of degree {degree} exceed the budget {max_terms}"
        )
    radix = [degree * m + 1 for m in rs.highest_root().coords]
    strides = list(accumulate(radix, mul, initial=1))
    # the largest packed sum is strides[-1] - 1
    key_type = (
        np.int32 if strides[-1] <= 2 ** 31
        else np.int64 if strides[-1] <= 2 ** 63
        else object
    )
    packed = [sum(map(mul, a.coords, strides)) for a in rs.positive_roots]
    layer = np.zeros(1, dtype=key_type)
    for j in range(1, degree + 1):
        # C(n_pos + j - 1, j) j-multisets; count is C(r + j - 1, j - 1)
        nxt = np.empty(len(layer) * (n_pos + j - 1) // j, dtype=key_type)
        end, count = 0, 1
        for r, step in enumerate(packed):
            np.add(layer[:count], step, out=nxt[end:end + count])
            end += count
            count = count * (r + j) // (r + 1)
        layer = nxt
    layer.sort()
    first = np.empty(len(layer), dtype=bool)
    first[0] = True
    np.not_equal(layer[1:], layer[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys = layer[starts]
    del layer, first  # the last layer is the largest array; free it first
    mults = np.diff(starts, append=terms)
    del starts

    lam = rs.to_weight_basis(lam)
    top = lam + rs.rho()
    den = prod(rs.positive_pairings(rs.rho()))  # (rho, a) is the height of a
    # a sum of degree roots pairs with a root within [-2 degree, 2 degree]
    bound = 2 * degree + max(map(abs, rs.positive_pairings(top))) + 1
    wide = bound >= 2 ** 63
    size = n_pos if wide else 63 // bound.bit_length()
    value_type = object if wide else np.int64

    def simple_column(keys, i):  # (nu + rho, alpha_i) = (lam + rho)_i + (C c)_i
        col = np.full(len(keys), top.coords[i], dtype=value_type)
        for j, entry in enumerate(rs.cartan[i]):
            if entry:
                digit = keys // strides[j]
                digit %= radix[j]
                digit *= entry
                np.add(col, digit, out=col, casting="unsafe")
        return col

    # most singular sums have a zero on a simple root (at weight 0 on E8, 34,607
    # of the 40,741 at degree 3), so those leave before any column is kept
    for i in range(rs.rank):
        regular = simple_column(keys, i) != 0
        keys, mults = keys[regular], mults[regular]

    # Column a holds (nu + rho, a) over the live sums.  Root a is root k plus
    # alpha_i, so its column is column k plus column alpha_i, and a column is
    # kept only while a later root still builds on it.
    steps = rs._positive_steps
    simple = {i: a for a, (k, i) in enumerate(steps) if k < 0}
    inputs = [() if k < 0 else (k, simple[i]) for k, i in steps]
    uses = Counter(j for pair in inputs for j in pair)
    cols: dict[int, object] = {}
    # products of size factors, each within int64
    groups: list = []
    for a, (k, i) in enumerate(steps):
        if k < 0:
            col = simple_column(keys, i)
        else:
            col = cols[k] + cols[simple[i]]
        for j in inputs[a]:
            uses[j] -= 1
            if not uses[j]:
                del cols[j]
        if uses[a]:
            cols[a] = col
        groups.append(groups.pop() * col if a % size else col)
        regular = col != 0
        if not regular.all():  # nu + rho is singular: chi(nu) = 0
            keys, mults = keys[regular], mults[regular]
            groups = [g[regular] for g in groups]
            cols = {j: v[regular] for j, v in cols.items()}
    num = np.ones(len(keys), dtype=object)
    while groups:
        num *= groups.pop()
    bad = np.flatnonzero(num % den)
    if len(bad):
        c = root_vector(*(int(keys[bad[0]]) // s % b for s, b in zip(strides, radix)))
        raise ConstructionFailure(
            f"{rs.name}: Weyl numerator of {lam + rs.to_weight_basis(c)} "
            "is not divisible by the rho-product"
        )
    num //= den
    return int(np.dot(num, mults.astype(object)))
