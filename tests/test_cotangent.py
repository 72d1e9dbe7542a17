"""Dominance order, lambda_star / cht invariants, descent chains, graded Euler."""

import inspect
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from heapq import heappop, heappush
from itertools import combinations_with_replacement, product
from math import comb, prod
from operator import add
from pathlib import Path

import numpy as np
import pytest

from adelie import batch, build, cotangent, root_vector, weight_vector
from adelie.chevalley import build_constants, verify_chevalley
from adelie.cli import main
from adelie.cotangent import (
    ChtReport,
    cht,
    cotangent_verdict,
    dominance_leq,
    euler_characteristic_graded,
    lambda_plus,
    lambda_star,
    negative_root_descent,
    verify_chain_criterion,
    verify_descent,
)
from adelie.errors import (
    BasisMismatch,
    BudgetExceeded,
    ConstructionFailure,
    InvalidBound,
    NonIntegerDegree,
    NotARootClass,
)
from adelie.flag import euler_characteristic, weyl_dim
from adelie.roots import RootSystem

ALL_TYPES = "A1 A2 A3 A4 A5 A6 A7 D3 D4 D5 D6 D7 E6 E7 E8".split()
SMALL = ("A1", "A2", "A3", "D4")


def brute_dominant_above(rs, lam):
    """Every dominant weight lam + c in the root-coordinate box [0, d] below
    lam_plus, as the rows c of an int array."""
    lam = rs.to_weight_basis(lam)
    d = rs.to_root_basis(lambda_plus(rs, lam) - lam).coords
    cs = np.indices([v + 1 for v in d]).reshape(rs.rank, -1).T
    w = np.asarray(lam.coords) + cs @ np.asarray(rs.cartan)
    return cs[(w >= 0).all(axis=1)]


def brute_lambda_star(rs, lam):
    """The box point every other one dominates; dominance inside the box is
    componentwise order of c."""
    cs = brute_dominant_above(rs, lam)
    low = cs[np.argmin(cs.sum(axis=1))]
    assert (cs >= low).all()
    return rs.to_weight_basis(lam) + rs.to_weight_basis(root_vector(*map(int, low)))


def brute_cht(rs, lam):
    """Longest-chain edge count by depth-first search over dominance_leq."""
    star = brute_lambda_star(rs, lam)
    lam = rs.to_weight_basis(lam)
    pts = [lam + rs.to_weight_basis(root_vector(*map(int, c)))
           for c in brute_dominant_above(rs, lam)]
    pts = [m for m in pts if dominance_leq(rs, star, m)]

    def depth(m):
        succ = [o for o in pts if o != m and dominance_leq(rs, m, o)]
        return 1 + max((depth(o) for o in succ), default=-1)

    return max(depth(m) for m in pts)


def reference_cht(rs, lam):
    """The walk before height layers and step patterns, on plain tuples: a
    heap over (height, c) pops the points, every positive root is tried at
    every point, and lambda+ and lambda* come from whole Cartan rows."""
    lam = plus = rs.to_weight_basis(lam)
    while not rs.is_dominant(plus):
        plus = rs.reflect_simple(plus, next(i for i, v in enumerate(plus.coords) if v < 0))
    d = rs.to_root_basis(plus - lam).coords
    c, w = [0] * rs.rank, list(lam.coords)
    while min(w) < 0:
        i = next(i for i, v in enumerate(w) if v < 0)
        k = (1 - w[i]) // 2
        c[i] += k
        w = [a + k * b for a, b in zip(w, rs.cartan[i])]
    star = tuple(c)
    steps = [(a.coords, rs.to_weight_basis(a).coords) for a in rs.positive_roots]
    best, parent, weight = {star: 0}, {star: None}, {star: tuple(w)}
    heap = [(sum(star), star)]
    while heap:
        h, c = heappop(heap)
        for dc, dw in steps:
            nc, nw = tuple(map(add, c, dc)), tuple(map(add, weight[c], dw))
            if min(nw) < 0 or any(map(int.__gt__, nc, d)):
                continue
            if nc not in best:
                heappush(heap, (h + sum(dc), nc))
            elif best[nc] > best[c]:
                continue
            best[nc], parent[nc], weight[nc] = best[c] + 1, c, nw
    top, chain = max(best, key=best.__getitem__), []
    while top is not None:
        chain.append(weight_vector(*weight[top]))
        top = parent[top]
    return ChtReport(
        value=len(chain) - 1,
        lambda_star=chain[-1],
        lambda_plus=plus,
        shift=sum(d) - sum(star),
        chain=tuple(reversed(chain)),
        interval_points=len(best),
    )


def test_dominance_basic():
    rs = build("A2")
    a1, a2 = rs.simple_roots
    theta = rs.highest_root()
    assert dominance_leq(rs, a1, theta)
    assert not dominance_leq(rs, theta, a1)
    assert dominance_leq(rs, theta, theta)
    # different root-lattice cosets are incomparable
    lam1 = weight_vector(1, 0)
    zero = weight_vector(0, 0)
    assert not dominance_leq(rs, zero, lam1)
    assert not dominance_leq(rs, lam1, zero)
    # negative coefficients in one direction only
    assert dominance_leq(rs, -a1, zero)
    assert not dominance_leq(rs, zero, -a1)


def test_lambda_plus_is_orbit_dominant():
    rs = build("D4")
    for a in rs.all_roots:
        plus = lambda_plus(rs, a)
        assert rs.is_dominant(plus)
        assert plus == rs.to_weight_basis(rs.highest_root())
    lam = weight_vector(2, 0, 1, 0)
    assert lambda_plus(rs, lam) == lam


@pytest.mark.parametrize("name,radius", [("A2", 3), ("A3", 2), ("D4", 2)])
def test_lambda_star_against_bruteforce(name, radius):
    rs = build(name)
    for coords in product(range(-radius, radius + 1), repeat=rs.rank):
        lam = weight_vector(*coords)
        assert lambda_star(rs, lam) == brute_lambda_star(rs, lam)


@pytest.mark.parametrize("name,radius", [("A2", 3), ("A3", 2), ("D4", 1)])
def test_cht_against_bruteforce(name, radius):
    rs = build(name)
    for coords in product(range(-radius, radius + 1), repeat=rs.rank):
        lam = weight_vector(*coords)
        assert cht(rs, lam).value == brute_cht(rs, lam)


def test_cht_zero_iff_positive_root():
    for name in SMALL + ("E6",):
        rs = build(name)
        for a in rs.all_roots:
            expected = 0 if rs.is_positive_root(a) else 1
            assert cht(rs, a).value == expected


@pytest.mark.parametrize("name", SMALL + ("D5", "E6"))
def test_negative_root_interval_is_two_points(name):
    # between zero and the highest root no other dominant weight appears
    rs = build(name)
    theta_w = rs.to_weight_basis(rs.highest_root())
    for a in rs.positive_roots:
        rep = cht(rs, -a)
        assert rep.lambda_star == weight_vector(*[0] * rs.rank)
        assert rep.lambda_plus == theta_w
        assert rep.interval_points == 2
        assert rep.chain == (weight_vector(*[0] * rs.rank), theta_w)
        assert rep.shift == rs.height(rs.highest_root())


def test_cht_linear_growth_rank_one():
    rs = build("A1")
    alpha = rs.simple_roots[0]
    for k in range(1, 6):
        rep = cht(rs, alpha.scale(-k))
        assert rep.value == k
        assert rep.shift == k
        assert rep.interval_points == k + 1
        assert len(rep.chain) == k + 1


def test_chain_is_strictly_increasing():
    rs = build("A3")
    for coords in product(range(-2, 2), repeat=3):
        rep = cht(rs, weight_vector(*coords))
        assert rep.chain[0] == rep.lambda_star or rep.value == 0
        for lo, hi in zip(rep.chain, rep.chain[1:]):
            assert dominance_leq(rs, lo, hi) and lo != hi


def _ball(rank, radius):
    return [weight_vector(*c) for c in product(range(-radius, radius + 1), repeat=rank)]


@pytest.mark.parametrize("name,radius", [("A2", 3), ("A3", 3), ("D4", 1), ("A4", 1), ("E6", 1)])
def test_cht_is_the_reference_walk_on_a_ball(name, radius):
    # the whole report, the witness chain's tie-break included; the radius-3
    # balls hold the radius-2 ones
    rs = build(name)
    for lam in _ball(rs.rank, radius):
        assert cht(rs, lam) == reference_cht(rs, lam), lam


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cht_is_the_reference_walk_on_every_root(name):
    rs = build(name)
    for a in rs.all_roots:
        assert cht(rs, a) == reference_cht(rs, a), a


@pytest.mark.parametrize("name,cap", [("E7", 3), ("D8", 3), ("E8", 2), ("D16", None)])
def test_cht_is_the_reference_walk_over_cover_steps(name, cap):
    # the reference tries every positive root at every point, the walk only
    # the highest root of each connected support: same report, chain and all
    rs = build(name)
    if cap is None:
        weights = [-a for a in rs.positive_roots]
    else:
        weights = [weight_vector(*c) for c in cotangent._capped_ball(rs.rank, 1, cap)]
    for lam in weights:
        assert cht(rs, lam) == reference_cht(rs, lam), lam


def _connected_supports(rs):
    # the connected subsets of the Dynkin diagram, grown node by node
    found = {frozenset([i]) for i in range(rs.rank)}
    grow = list(found)
    while grow:
        part = grow.pop()
        for j in {j for i in part for j in rs.neighbours[i]} - part:
            if part | {j} not in found:
                found.add(part | {j})
                grow.append(part | {j})
    return found


@pytest.mark.parametrize("name", [*ALL_TYPES, "D8", "D16"])
def test_the_walk_steps_by_one_root_per_connected_support(name):
    # one step for each connected subset J, of the height of theta_J, the
    # highest root with support J
    rs = build(name)
    supports = _connected_supports(rs)
    top = Counter()
    for a in rs.positive_roots:
        support = frozenset(i for i, v in enumerate(a.coords) if v)
        top[support] = max(top[support], sum(a.coords))
    assert set(top) == supports
    steps = cotangent._packed_steps(rs, 16)[3]
    assert len(steps) == len(supports)
    assert sorted(dh for _, dh in steps) == sorted(top.values())


def test_every_root_walk_of_a_system_shares_one_packed_table():
    # the shift never falls below that of the lowest root -theta, so the walks
    # from every root of a system read one _packed_steps entry (without the
    # floor, E8's took four widths and D8's three)
    cotangent._packed_steps.cache_clear()
    for name in ("A8", "D8", "E8"):
        rs = build(name)
        for a in rs.all_roots:
            cht(rs, a)
    assert cotangent._packed_steps.cache_info().currsize == 3


@pytest.mark.parametrize(
    "name,weights",
    [
        ("A3", _ball(3, 2)),
        ("D4", _ball(4, 2)),
        ("E6", random.Random(6).sample(_ball(6, 2), 60)),
    ],
    ids=["A3", "D4", "E6"],
)
def test_chain_steps_are_positive_roots(name, weights):
    rs = build(name)
    for lam in weights:
        rep = cht(rs, lam)
        assert rep.chain[0] == rep.lambda_star and rep.chain[-1] == rep.lambda_plus
        assert len(rep.chain) == rep.value + 1
        for lo, hi in zip(rep.chain, rep.chain[1:]):
            assert rs.is_positive_root(hi - lo), (lam, lo, hi)


@pytest.mark.parametrize("name,radius", [("A2", 3), ("A3", 2), ("D4", 2), ("E6", 1)])
def test_chain_criterion(name, radius, monkeypatch):
    # the criterion reads the firing alone: with the interval walk gone it
    # still gives its verdict on the whole ball
    def walk(*args):
        raise AssertionError(f"interval walk called on {args}")

    monkeypatch.setattr(cotangent, "cht", walk)
    rep = verify_chain_criterion(build(name), radius=radius)
    assert rep.ok, rep.violations
    assert rep.checked == (2 * radius + 1) ** build(name).rank


@pytest.mark.parametrize(
    # max_support=None is the default, no cap; radius=-1 gave an empty ball
    # that read ok with nothing checked
    "name,value",
    [("radius", v) for v in (None, 1.5, "1", -1)] + [("max_support", v) for v in (1.5, "1", -1)],
)
def test_chain_criterion_refuses_a_bound_that_is_not_a_count(name, value):
    with pytest.raises(InvalidBound, match=f"^{name} "):
        verify_chain_criterion(build("A2"), **{name: value})


def test_chain_criterion_reports_a_firing_that_disagrees_with_the_pairing_bound(monkeypatch):
    # a firing faked on two weights of A2: (0, 0) pairs >= -1 with every root
    # but is made to stop short of lambda+, and (-1, -1) pairs to -2 with the
    # highest root but is made to reach it
    real = cotangent._least_action

    def fake(rs, lam):
        plus, d, c, w = real(rs, lam)
        return plus, d, {(0, 0): [1, 0], (-1, -1): list(d)}.get(lam.coords, c), w

    monkeypatch.setattr(cotangent, "_least_action", fake)
    rep = verify_chain_criterion(build("A2"), radius=1)
    assert (rep.checked, rep.violations) == (9, [
        "{-1,-1|weight}: cht 0 against pairing bound",
        "{0,0|weight}: cht nonzero against pairing bound",
    ])


def test_chain_criterion_admits_zero_bounds():
    rep = verify_chain_criterion(build("A3"), radius=0, max_support=np.int64(0))
    assert (rep.ok, rep.checked) == (True, 1)


@pytest.mark.parametrize(
    "rank,radius,support", [(4, 2, None), (7, 1, 3), (8, 1, 1), (5, 2, 2), (6, 2, 3), (3, 1, 0)]
)
def test_capped_ball_is_the_filtered_box_in_its_order(rank, radius, support):
    cap = rank if support is None else support
    box = [
        c for c in product(range(-radius, radius + 1), repeat=rank)
        if rank - c.count(0) <= cap
    ]
    assert list(cotangent._capped_ball(rank, radius, cap)) == box


@pytest.mark.parametrize("name", ["A16", "D16"])
def test_chain_criterion_at_rank_sixteen_walks_only_the_kept_weights(name):
    # radius 1, support 1 keeps 33 of the 3^16 weights of the box; walking
    # the whole box and filtering it takes about 10 s
    rs = build(name)
    t0 = time.perf_counter()
    rep = verify_chain_criterion(rs, radius=1, max_support=1)
    assert time.perf_counter() - t0 < 2.0
    assert rep.ok, rep.violations
    assert rep.checked == 33


@pytest.mark.parametrize("name,radius", [("A3", 2), ("D4", 2), ("E6", 1)])
def test_the_walk_gives_cht_zero_exactly_when_the_firing_stops_at_lambda_plus(name, radius):
    # the route the criterion no longer takes, kept as its oracle: the walk
    # finds a one-point interval exactly when lambda* = lambda+
    rs = build(name)
    for coords in product(range(-radius, radius + 1), repeat=rs.rank):
        lam = weight_vector(*coords)
        assert (lambda_star(rs, lam) == lambda_plus(rs, lam)) == (cht(rs, lam).value == 0), lam


@pytest.mark.parametrize("name,radius,top,counts", [
    ("A2", 2, 4, (60, 28, 26)),
    ("A3", 2, 3, (168, 111, 100)),
    ("D4", 1, 3, (159, 51, 16)),
    ("E6", 1, 2, (700, 278, 61)),
], ids=["A2", "A3", "D4", "E6"])
def test_cht_zero_leaves_no_negative_graded_euler(name, radius, top, counts):
    # cht bounds the degrees in which cohomology can survive, so cht(lam) = 0
    # leaves H^0 alone and chi_d(lam) >= 0 for 1 <= d <= top.  Every dominant
    # weight has cht 0, where Broer's vanishing theorem gives it too.  The
    # check is not vacuous: at cht 1, chi_d is negative in some cases.
    # counts are the (lam, d) cases at cht 0, at cht 1 and, among those, the
    # negative ones
    rs = build(name)
    zero, one, negative = 0, 0, 0
    for lam in _ball(rs.rank, radius):
        value = cht(rs, lam).value
        assert value == 0 or min(lam.coords) < 0, lam
        if value > 1:
            continue
        for d in range(1, top + 1):
            chi = euler_characteristic_graded(rs, lam, d)
            if value == 0:
                assert chi >= 0, (lam, d)
                zero += 1
            else:
                one += 1
                negative += chi < 0
    assert (zero, one, negative) == counts


def test_cotangent_verdict_roots_always_pass_degree_two():
    for name in SMALL:
        rs = build(name)
        for a in rs.all_roots:
            v = cotangent_verdict(rs, a)
            assert v.h2_vanish
            assert v.vanishing_above == v.report.value <= 1


@pytest.mark.parametrize("name", ALL_TYPES)
def test_descent_all_types(name):
    rs = build(name)
    rep = verify_descent(rs)
    assert rep.ok, rep.violations
    assert rep.checked == len(rs.positive_roots)
    assert rep.details["longest_chain"] == rs.height(rs.highest_root()) - 1
    # the chain's shape, which the suite leaves to negative_root_descent: one
    # entry per unit of height, each a negative root one simple root above
    # the last, ending at a negated simple root
    simples = {s.coords for s in rs.simple_roots}
    for a in rs.positive_roots:
        chain = negative_root_descent(rs, -a)
        assert len(chain) == rs.height(a)
        assert all(rs.is_root(c) and not rs.is_positive_root(c) for c in chain)
        assert all((d - c).coords in simples for c, d in zip(chain, chain[1:]))
        assert (-chain[-1]).coords in simples


@pytest.mark.parametrize("word,violations", [
    # all zeros: -(a2 + a3) and the lowest root pass through {1,-1,-1|root},
    # which is not a root
    (lambda self, alpha: (0,) * self.height(alpha), [
        "descent of {0,-1,-1|root} leaves the negative roots at {1,-1,-1|root}",
        "descent of {-1,-1,-1|root} leaves the negative roots at {1,-1,-1|root}",
    ]),
    # one letter: every chain stops at its own negative root
    (lambda self, alpha: (0,), [
        f"descent of {{{c}|root}} ends at {{{c}|root}}, not a negated simple root"
        for c in ("0,-1,-1", "-1,-1,0", "-1,-1,-1")
    ]),
], ids=["zeros", "one-letter"])
def test_verify_descent_checks_the_chain_it_counts(monkeypatch, word, violations):
    monkeypatch.setattr(RootSystem, "descent", word)
    rep = verify_descent(build("A3"))
    assert rep.violations == violations
    assert rep.checked == 6


def test_descent_chain_example():
    rs = build("A2")
    chain = negative_root_descent(rs, -rs.highest_root())
    assert chain == (root_vector(-1, -1), root_vector(0, -1))


def test_descent_rejects_non_negative_roots():
    rs = build("A2")
    with pytest.raises(NotARootClass):
        negative_root_descent(rs, rs.simple_roots[0])
    with pytest.raises(NotARootClass):
        negative_root_descent(rs, weight_vector(1, 1))


def test_graded_euler_anchors():
    a1 = build("A1")
    alpha = a1.simple_roots[0]
    assert euler_characteristic_graded(a1, -alpha, 0) == -1
    assert euler_characteristic_graded(a1, -alpha, 1) == 1
    assert euler_characteristic_graded(a1, -alpha, 2) == 3
    a2 = build("A2")
    for a in a2.simple_roots:
        assert euler_characteristic_graded(a2, -a, 0) == -1
    zero = weight_vector(0, 0)
    assert euler_characteristic_graded(a2, zero, 0) == 1
    # degree one: sum of chi over the three positive-root shifts of zero
    assert euler_characteristic_graded(a2, zero, 1) == sum(
        euler_characteristic_graded(a2, rs_a, 0) for rs_a in a2.positive_roots
    )


def test_graded_euler_delegates_with_the_kernels_signature():
    assert inspect.signature(euler_characteristic_graded) == inspect.signature(
        batch.euler_characteristic_graded
    )


def test_graded_euler_refuses_a_weight_before_the_fold(monkeypatch):
    # with numpy gone from batch, any fold work would fail with a bare error;
    # the weight is converted, and refused, first (a tuple on E8 at degree 3
    # used to fail after 41 ms of folding)
    monkeypatch.setattr(batch, "np", None)
    with pytest.raises(BasisMismatch, match=r"E8 reads LatticeVectors of rank 8, not \(0,"):
        euler_characteristic_graded(build("E8"), (0,) * 8, 3)


def test_graded_euler_budget():
    rs = build("A2")
    with pytest.raises(BudgetExceeded):
        euler_characteristic_graded(rs, weight_vector(0, 0), 3, max_terms=2)


def test_a_non_integer_degree_is_refused():
    # the degree is read through operator.index, as the rank of a type is
    rs = build("A2")
    with pytest.raises(NonIntegerDegree, match=r"degree 1\.5 is not an integer") as exc:
        euler_characteristic_graded(rs, weight_vector(0, 0), 1.5)
    assert isinstance(exc.value, TypeError)
    zero = weight_vector(0, 0)
    assert euler_characteristic_graded(rs, zero, np.int64(1)) == euler_characteristic_graded(rs, zero, 1)


def test_a_non_integer_term_budget_is_refused():
    # None and "10" raised a bare TypeError from the comparison with the
    # multiset count, and 1.5 was taken as a budget
    rs, zero = build("A2"), weight_vector(0, 0)
    for bad in (None, "10", 1.5, 10.0):
        for graded in (euler_characteristic_graded, batch.euler_characteristic_graded):
            with pytest.raises(InvalidBound, match=f"^max_terms {bad!r} is not an integer$"):
                graded(rs, zero, 2, bad)
    # a negative integer is a budget that nothing fits
    with pytest.raises(BudgetExceeded, match="exceed the budget -1$"):
        euler_characteristic_graded(rs, zero, 0, -1)
    assert euler_characteristic_graded(rs, zero, 2, np.int64(6)) == euler_characteristic_graded(rs, zero, 2)


def test_interval_budget_guard():
    rs = build("A2")
    with pytest.raises(BudgetExceeded):
        cht(rs, weight_vector(-10 ** 5, -10 ** 5))


def test_a_system_past_the_build_cap_is_answered_on_itself():
    # build admits A1..A16; cht, cotangent_verdict and build_constants answer
    # on the RootSystem they are given, so A18, constructed directly, is
    # answered as the built A16 is: cht(-2 theta) is 4 on A4 through A18
    a16, a18 = build("A16"), RootSystem("A", 18)
    for rs in (a16, a18):
        lam = -rs.highest_root().scale(2)
        rep = cht(rs, lam)
        assert (rep.value, rep.interval_points, rep.shift) == (4, 6, 2 * rs.rank)
        assert rep.chain[0] == rep.lambda_star and rep.chain[-1] == rep.lambda_plus
        assert all(rs.is_positive_root(hi - lo) for lo, hi in zip(rep.chain, rep.chain[1:]))
        verdict = cotangent_verdict(rs, lam)
        assert (verdict.vanishing_above, verdict.h2_vanish) == (4, False)
    c = build_constants(a18)
    rep = verify_chevalley(c)
    n_roots = len(a18.all_roots)
    assert rep.ok and rep.checked == 2 * n_roots ** 2 + comb(a18.rank + n_roots, 3)


def _naive_graded_euler(rs, lam, degree):
    """Oracle: one Euler characteristic per multiset of positive roots."""
    lam = rs.to_weight_basis(lam)
    shifts = [rs.to_weight_basis(a) for a in rs.positive_roots]
    total = 0
    for pick in combinations_with_replacement(shifts, degree):
        mu = lam
        for a in pick:
            mu = mu + a
        total += euler_characteristic(rs, mu)
    return total


@pytest.mark.parametrize(
    "degree,name",
    [(d, name) for d in range(4) for name in ("A1", "A2", "A3", "A4", "D4", "E6")]
    + [(2, "E7")],
)
def test_graded_euler_fold_matches_multiset_sum(name, degree):
    rs = build(name)
    zero = weight_vector(*([0] * rs.rank))
    mixed = weight_vector(*((-1) ** i * (i % 3 + 1) for i in range(rs.rank)))
    weights = [zero, mixed, -rs.highest_root()]
    if name in ("A3", "D4"):
        # larger pairings leave fewer factors per int64 group product: D4's
        # 12 factors then take two groups (E6 and E7 take several at any weight)
        weights += [weight_vector(*((-1) ** i * 40 for i in range(rs.rank))),
                    weight_vector(*(40 - i for i in range(rs.rank)))]
    if name == "A3":
        # (lam + rho, a) = 699041 * height(a): each factor has 21 bits, and a
        # block of three fills 58 to 62 of int64's 63; a fourth would overflow
        weights.append(weight_vector(699040, 699040, 699040))
    for lam in weights:
        assert euler_characteristic_graded(rs, lam, degree) == _naive_graded_euler(
            rs, lam, degree
        ), lam


def test_graded_euler_past_int64_matches_multiset_sum():
    # pairings near 10**25 leave int64, so the Weyl products run on Python ints
    rs = build("A2")
    for lam in (weight_vector(10 ** 25, -10 ** 25 + 3), weight_vector(-10 ** 25, 7)):
        assert euler_characteristic_graded(rs, lam, 1) == _naive_graded_euler(rs, lam, 1)


def _break_the_rho_product(monkeypatch):
    # (rho, a) raised by one at every positive root: the rho-product then
    # fails to divide a Weyl numerator of D4 at weight (1, 0, 0, 0)
    real = RootSystem.positive_pairings

    def pairings(self, v):
        return [p + (v == self.rho()) for p in real(self, v)]

    monkeypatch.setattr(RootSystem, "positive_pairings", pairings)


def test_graded_euler_rejects_a_broken_rho_product(monkeypatch):
    _break_the_rho_product(monkeypatch)
    with pytest.raises(
        ConstructionFailure, match=r"^D4: Weyl numerator of \{.*\|weight\} is not divisible"
    ):
        euler_characteristic_graded(build("D4"), weight_vector(1, 0, 0, 0), 2)


def test_weyl_dim_rejects_a_broken_rho_product(monkeypatch, capsys):
    # the same failure in flag.weyl_dim, which bwb reads: an internal error,
    # exit 3, not bad input
    _break_the_rho_product(monkeypatch)
    message = "D4: Weyl numerator of {1,0,0,0|weight} is not divisible by the rho-product"
    with pytest.raises(ConstructionFailure, match=f"^{re.escape(message)}$"):
        weyl_dim(build("D4"), weight_vector(1, 0, 0, 0))
    assert main(["bwb", "D4", "--", "1", "0", "0", "0"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {message}\n")


def _dict_fold_graded_euler(rs, lam, degree):
    """Oracle: the graded Euler sum by a dict fold and dense Weyl products.

    The fold adds one positive root at a time to a dict per layer, keyed by
    the weight coordinates of the sum packed in one signed base, and every
    distinct sum then takes the whole Weyl product of its pairings, singular
    or not, in int64 groups (Python ints past int64).
    """
    weights = [rs.to_weight_basis(a).coords for a in rs.positive_roots]
    base = 2 * degree * max(abs(c) for w in weights for c in w) + 1
    layers = [{0: 1}] + [{} for _ in range(degree)]
    for w in weights:
        step = sum(c * base ** i for i, c in enumerate(w))
        for j in range(1, degree + 1):
            below, layer = layers[j - 1], layers[j]
            for key, m in below.items():
                key += step
                layer[key] = layer.get(key, 0) + m
    n_pos = len(weights)
    shifted = rs.positive_pairings(rs.to_weight_basis(lam) + rs.rho())
    den = prod(rs.positive_pairings(rs.rho()))
    half = base // 2
    bound = 2 * degree + max(map(abs, shifted)) + 1
    wide = bound >= 2 ** 63
    dtype = object if wide else np.int64
    cuts = np.arange(0, n_pos, n_pos if wide else 63 // bound.bit_length())
    roots = np.array([a.coords for a in rs.positive_roots], dtype=dtype).T
    rest = np.array(list(layers[degree]), dtype=object)
    rest += sum(half * base ** i for i in range(rs.rank))
    digits = np.empty((len(rest), rs.rank), dtype=dtype)
    for i in range(rs.rank):
        digits[:, i] = rest % base - half
        rest //= base
    groups = np.multiply.reduceat(digits @ roots + np.array(shifted, dtype=dtype), cuts, axis=1)
    total = 0
    for row, m in zip(groups.tolist(), layers[degree].values()):
        q, r = divmod(prod(row), den)
        assert r == 0
        total += m * q
    return total


def _oracle_weights(rs):
    """Weight 0, a mixed weight, minus the highest root, and a dominant weight
    far from the walls, at which every sum of three roots is regular."""
    zero = weight_vector(*([0] * rs.rank))
    mixed = weight_vector(*((-1) ** i * (i % 3 + 1) for i in range(rs.rank)))
    return [zero, mixed, -rs.highest_root(), weight_vector(*([7] * rs.rank))]


@pytest.mark.parametrize("name", ["D8", "E7", "E8"])
def test_graded_euler_matches_the_dict_fold_at_degree_three(name):
    rs = build(name)
    for lam in _oracle_weights(rs):
        assert euler_characteristic_graded(rs, lam, 3) == _dict_fold_graded_euler(
            rs, lam, 3
        ), lam


@pytest.mark.parametrize("name,degree,top", [
    # the packed sums have root coordinate i in 0..degree * m_i, m the
    # highest root; the largest is prod(degree * m_i + 1) - 1, which the
    # highest root alone reaches at degree one
    ("A31", 1, 2 ** 31), ("A32", 1, 2 ** 32),  # int32 to int64
    ("D14", 2, 3 ** 3 * 5 ** 11), ("D15", 2, 3 ** 3 * 5 ** 12),
    ("A63", 1, 2 ** 63), ("A64", 1, 2 ** 64),  # int64 to Python ints
])
def test_graded_euler_matches_the_dict_fold_at_each_key_width(name, degree, top):
    rs = RootSystem(name[0], int(name[1:]))
    assert prod(degree * m + 1 for m in rs.highest_root().coords) == top
    # the oracle's dense products take seconds on the 2,016 and 2,080 roots
    # of A63 and A64, so those keep weight 0, whose largest sum, the highest
    # root, is regular
    weights = _oracle_weights(rs)[:2] + [weight_vector(*([1] * rs.rank))]
    for lam in weights[:1] if len(rs.positive_roots) > 2000 else weights:
        assert euler_characteristic_graded(rs, lam, degree) == _dict_fold_graded_euler(
            rs, lam, degree
        ), lam


@pytest.mark.parametrize(
    "name,degree,value",
    [("E6", 2, 3080), ("E7", 2, 8910), ("E8", 2, 30875), ("E8", 3, 2572752)],
)
def test_graded_euler_exceptional_values(name, degree, value):
    rs = build(name)
    zero = weight_vector(*([0] * rs.rank))
    assert euler_characteristic_graded(rs, zero, degree) == value


def _degrees(rs):
    """The degrees of the basic invariants, 1 + the exponents.  The exponents
    are the partition dual to the positive-root counts per height: exponent h
    occurs n_h - n_(h+1) times (Kostant 1959)."""
    counts = Counter(rs.height(a) for a in rs.positive_roots)
    return [h + 1 for h in counts for _ in range(counts[h] - counts[h + 1])]


def _nilcone_hilbert(rs, degree):
    """Degree-d coefficient of prod_i (1 - t^(d_i)) / (1 - t)^dim g, the
    Hilbert series of the functions on the nilpotent cone (Kostant 1963)."""
    dim = rs.rank + 2 * len(rs.positive_roots)
    series = [comb(dim - 1 + k, k) for k in range(degree + 1)]
    for d in _degrees(rs):
        series = [s - (series[k - d] if k >= d else 0) for k, s in enumerate(series)]
    return series[degree]


# the 33 types that build admits
BUILT_TYPES = [f"A{n}" for n in range(1, 17)] + [f"D{n}" for n in range(3, 17)] + ["E6", "E7", "E8"]
# degree 3 on these has C(n+ + 2, 3) multisets, 1,021,384 and more, past the
# default max_terms of 10**6 (D13 has 644,956)
PAST_THE_DEFAULT_BUDGET = {("D14", 3), ("D15", 3), ("D16", 3)}


@pytest.mark.parametrize("name", BUILT_TYPES)
def test_graded_euler_weight_zero_is_the_nilcone_hilbert_series(name):
    # the Springer resolution T*G/B -> N has no higher cohomology of O, so
    # chi_d(0) is the degree-d part of C[N]; the series reads only heights,
    # which the fold over positive roots does not.  At d <= 3 the only
    # invariant past the quadratic one that enters is the cubic one of A_n
    # (n >= 2), D3 = A3 among them: every other second degree is 4 or more
    rs = build(name)
    zero = weight_vector(*([0] * rs.rank))
    for d in range(4):
        if (name, d) in PAST_THE_DEFAULT_BUDGET:
            with pytest.raises(BudgetExceeded):
                euler_characteristic_graded(rs, zero, d)
            continue
        assert euler_characteristic_graded(rs, zero, d) == _nilcone_hilbert(rs, d), d


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_graded_euler_weight_zero_is_the_nilcone_hilbert_series_past_degree_three(name):
    # the quartic invariants of A3 and D4 and the quintic one of E6 enter here
    rs = build(name)
    zero = weight_vector(*([0] * rs.rank))
    for d in (4, 5):
        assert euler_characteristic_graded(rs, zero, d) == _nilcone_hilbert(rs, d), d


def test_the_nilcone_series_of_e8():
    rs = build("E8")
    assert _degrees(rs) == [2, 8, 12, 14, 18, 20, 24, 30]
    assert _nilcone_hilbert(rs, 2) == 30875  # 27,000 + 3,875, as the fold reads


@pytest.mark.parametrize("block,width", [(1, 7), (7, 1)])
@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_graded_euler_in_tiny_blocks_and_slices_matches_the_dict_fold(monkeypatch, name, block, width):
    # one multiset (or seven) per block and seven sums (or one) per slice: the
    # last layer takes many blocks, some of several roots and some a piece of
    # one root's prefix, each merged into the sums found before it, and the
    # Weyl products run over many slices
    monkeypatch.setattr(batch, "BLOCK", block)
    monkeypatch.setattr(batch, "SLICE", width)
    rs = build(name)
    for lam in _oracle_weights(rs):
        for d in range(4):
            assert euler_characteristic_graded(rs, lam, d) == _dict_fold_graded_euler(rs, lam, d), (lam, d)


def _kernel_peak(rs, lam, degree, max_terms):
    """The kernel's value and the peak of what it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        value = batch.euler_characteristic_graded(rs, lam, degree, max_terms)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# prints the kernel's value and how far the peak RSS of the process (VmHWM,
# in KiB) rose while it ran, after a call at degree 2 has loaded every code
# path; a fresh process, as tracemalloc would trace every Python int of the
# exact products, and ru_maxrss starts at the size of the process that forks
KERNEL_PEAK_CHILD = """
import sys
from adelie import batch, build, weight_vector

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

name, coord, degree, max_terms = sys.argv[1], *map(int, sys.argv[2:])
rs = build(name)
lam = weight_vector(*[coord] * rs.rank)
batch.euler_characteristic_graded(rs, lam, 2)
before = hwm()
print(batch.euler_characteristic_graded(rs, lam, degree, max_terms), hwm() - before)
"""


def _kernel_in_a_child(name, coord, degree, max_terms):
    child = subprocess.run(
        [sys.executable, "-c", KERNEL_PEAK_CHILD, name, *map(str, (coord, degree, max_terms))],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(batch.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        )),
    )
    assert child.returncode == 0, child.stderr
    return tuple(map(int, child.stdout.split()))


@pytest.mark.parametrize("degree,max_terms,mib", [(3, 10 ** 6, 1.2), (4, 10 ** 7, 20)])
def test_the_graded_euler_kernel_has_a_bounded_peak_on_e8(degree, max_terms, mib):
    # folding the whole last layer before one sort took 2.22 MiB and 46.5 MiB
    rs = build("E8")
    tracemalloc.start()
    try:
        value = batch.euler_characteristic_graded(rs, weight_vector(*[0] * 8), degree, max_terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == _nilcone_hilbert(rs, degree)  # 2,572,752 and 161,424,874
    assert peak <= mib * 2 ** 20, peak


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_the_graded_euler_kernel_far_from_the_walls_has_a_bounded_peak_on_e8():
    # all 40,741 sums of degree 3 are regular at (9)^8; evaluated all at once,
    # their columns and products raised the peak by about 12.4 MiB
    value, grown = _kernel_in_a_child("E8", 9, 3, 10 ** 6)
    assert value == euler_characteristic_graded(build("E8"), weight_vector(*[9] * 8), 3)
    assert grown <= 3 * 1024, grown


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_graded_euler_weight_zero_on_e7_at_degree_six():
    # 109,453,344 multisets, where E7's degree-6 invariant enters: the first
    # invariant past the quadratic one that an E7 check reaches.  The whole
    # last layer held at once took about 530 MiB; the blocks keep layer five
    # and its simple-root pairings
    value, grown = _kernel_in_a_child("E7", 0, 6, 2 * 10 ** 8)
    assert value == _nilcone_hilbert(build("E7"), 6) == 8578405835
    assert grown <= 160 * 1024, grown
