"""Flag-variety cohomology: dimension anchors, duality, root-weight sweeps."""

from copy import copy
from itertools import product
from math import comb

import pytest

from adelie import build, flag, root_vector, weight_vector
from adelie.errors import IndexOutOfRange, NotDominant
from adelie.flag import (
    ALL_VANISH,
    CONCENTRATED,
    CohomologyVerdict,
    bwb,
    dominant_conjugate,
    euler_characteristic,
    index,
    is_singular,
    schubert_restriction_degree,
    verify_index_bound,
    verify_root_cohomology,
    weyl_dim,
)

ALL_TYPES = (
    "A1 A2 A3 A4 A5 A6 A7 D3 D4 D5 D6 D7 E6 E7 E8".split()
)


def weight_ball(rank, radius, stride=1):
    lo = [v for v in range(-radius, radius + 1) if v % stride == 0 or abs(v) == 1]
    for coords in product(lo, repeat=rank):
        yield weight_vector(*coords)


# classical dimension facts used as independent anchors
def test_weyl_dim_classical_values():
    a2 = build("A2")
    assert weyl_dim(a2, weight_vector(1, 0)) == 3
    assert weyl_dim(a2, weight_vector(0, 1)) == 3
    assert weyl_dim(a2, weight_vector(2, 0)) == 6
    assert weyl_dim(a2, weight_vector(1, 1)) == 8
    a3 = build("A3")
    for k in range(1, 4):
        fund = weight_vector(*[1 if j == k - 1 else 0 for j in range(3)])
        assert weyl_dim(a3, fund) == comb(4, k)
    d4 = build("D4")
    assert weyl_dim(d4, weight_vector(1, 0, 0, 0)) == 8
    assert weyl_dim(d4, weight_vector(0, 0, 1, 0)) == 8
    assert weyl_dim(d4, weight_vector(0, 0, 0, 1)) == 8
    assert weyl_dim(build("E6"), weight_vector(1, 0, 0, 0, 0, 0)) == 27
    assert weyl_dim(build("E7"), weight_vector(0, 0, 0, 0, 0, 0, 1)) == 56


@pytest.mark.parametrize("name", ALL_TYPES)
def test_weyl_dim_adjoint_and_rho(name):
    rs = build(name)
    n_pos = len(rs.positive_roots)
    assert weyl_dim(rs, rs.highest_root()) == rs.rank + 2 * n_pos
    assert weyl_dim(rs, rs.rho()) == 2 ** n_pos


def test_weyl_dim_requires_dominant():
    with pytest.raises(NotDominant):
        weyl_dim(build("A2"), weight_vector(-1, 0))


def test_bwb_trivial_and_canonical():
    for name in ("A2", "D4", "E6"):
        rs = build(name)
        n_pos = len(rs.positive_roots)
        zero = weight_vector(*[0] * rs.rank)
        v = bwb(rs, zero)
        assert (v.status, v.degree, v.dimension, v.word) == (CONCENTRATED, 0, 1, ())
        assert v.highest_weight == zero
        # canonical bundle: one-dimensional cohomology at the top degree
        v = bwb(rs, rs.rho().scale(-2))
        assert (v.status, v.degree, v.dimension) == (CONCENTRATED, n_pos, 1)
        assert bwb(rs, rs.rho().scale(-1)).status == ALL_VANISH


def test_bwb_negative_simple_root():
    rs = build("A2")
    v = bwb(rs, -rs.simple_roots[0])
    assert v.status == CONCENTRATED
    assert v.degree == 1
    assert v.dimension == 1
    assert v.word == (1,)
    assert v.highest_weight == weight_vector(0, 0)
    assert euler_characteristic(rs, -rs.simple_roots[0]) == -1


def test_bwb_dominant_is_degree_zero():
    rs = build("D4")
    lam = weight_vector(1, 2, 0, 3)
    v = bwb(rs, lam)
    assert (v.status, v.degree, v.word) == (CONCENTRATED, 0, ())
    assert v.highest_weight == lam
    assert v.dimension == weyl_dim(rs, lam)


@pytest.mark.parametrize("name,radius,stride", [("A2", 3, 1), ("A3", 2, 1), ("D4", 2, 2)])
def test_serre_duality_ball(name, radius, stride):
    rs = build(name)
    n_pos = len(rs.positive_roots)
    two_rho = rs.rho().scale(2)
    for lam in weight_ball(rs.rank, radius, stride):
        a = bwb(rs, lam)
        b = bwb(rs, -lam - two_rho)
        if a.status == ALL_VANISH:
            assert b.status == ALL_VANISH
        else:
            assert a.degree + b.degree == n_pos
            assert a.dimension == b.dimension


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_dot_action_sign_rule(name):
    # reflecting the shifted weight negates the Euler characteristic
    rs = build(name)
    rho = rs.rho()
    for lam in weight_ball(rs.rank, 2):
        chi = euler_characteristic(rs, lam)
        for i in range(rs.rank):
            conj = rs.reflect_simple(lam + rho, i) - rho
            assert euler_characteristic(rs, conj) == -chi


@pytest.mark.parametrize("name,radius", [
    ("A2", 2), ("A3", 2), ("A4", 2), ("D4", 2), ("E6", 1), ("E8", None),
], ids=["A2", "A3", "A4", "D4", "E6", "E8-roots"])
def test_the_lift_is_the_root_coordinates_of_the_conjugate_above_mu(name, radius):
    # the lift the reflection walk adds up is what the root basis reads off
    # the conjugate less mu, and never negative: cht takes its d from it
    rs = build(name)
    weights = rs.all_roots if radius is None else weight_ball(rs.rank, radius)
    for mu in map(rs.to_weight_basis, weights):
        dom, _, lift = dominant_conjugate(rs, mu)
        assert lift == rs.to_root_basis(dom - mu).coords, mu
        assert min(lift) >= 0, mu


def test_dominant_conjugate_word_length_is_index():
    rs = build("A3")
    for mu in weight_ball(rs.rank, 2):
        dom, word, _ = dominant_conjugate(rs, mu)
        assert rs.is_dominant(dom)
        assert len(word) == index(rs, mu)
        # replaying the word from mu reaches the returned conjugate
        cur = mu
        for i in word:
            cur = rs.reflect_simple(cur, i - 1)
        assert cur == dom


def test_singularity_detection():
    rs = build("A2")
    assert is_singular(rs, weight_vector(0, 5))
    assert is_singular(rs, weight_vector(3, -3))  # pairs to zero on the long root
    assert not is_singular(rs, weight_vector(1, 1))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_cohomology_sweep(name):
    rs = build(name)
    rep = verify_root_cohomology(rs)
    assert rep.ok, rep.violations
    assert rep.checked == len(rs.all_roots)
    assert rep.details["degree_one_count"] == rs.rank


@pytest.mark.parametrize("name", ALL_TYPES)
def test_index_bound_sweep(name):
    rep = verify_index_bound(build(name))
    assert rep.ok, rep.violations


@pytest.mark.parametrize("coords,verdict,violation,degree_one", [
    ((1, 1), CohomologyVerdict(CONCENTRATED, degree=2, dimension=1),
     "root {1,1|root} has cohomology in degree 2", 2),
    ((1, 0), CohomologyVerdict(CONCENTRATED, degree=1, dimension=1),
     "root {1,0|root}: degree-one cohomology present but negated-simple is False", 2),
    ((-1, 0), CohomologyVerdict(ALL_VANISH),
     "root {-1,0|root}: degree-one cohomology absent but negated-simple is True", 1),
    ((-1, 0), CohomologyVerdict(CONCENTRATED, degree=1, dimension=2),
     "root {-1,0|root}: degree-one dimension 2 != 1", 2),
])
def test_root_cohomology_sweep_reports_each_wrong_verdict(
    monkeypatch, coords, verdict, violation, degree_one
):
    # the sweep's own bwb, wrong on one root of A2, leaves exactly one violation
    real = flag.bwb
    monkeypatch.setattr(flag, "bwb", lambda rs, a: verdict if a.coords == coords else real(rs, a))
    rep = verify_root_cohomology(build("A2"))
    assert (rep.checked, rep.violations) == (6, [violation])
    assert rep.details["degree_one_count"] == degree_one


def test_index_bound_reports_an_index_above_one(monkeypatch):
    rs = build("A2")
    real, top = flag.index, rs.to_weight_basis(rs.highest_root()) + rs.rho()
    monkeypatch.setattr(flag, "index", lambda rs, mu: 2 if mu == top else real(rs, mu))
    rep = verify_index_bound(rs)
    assert (rep.checked, rep.violations) == (6, ["root {1,1|root}: index 2 exceeds 1"])


def test_index_bound_reports_a_weight_coordinate_outside_its_box():
    # 2 alpha_1 is no root; its weight coordinates (4, -2) leave the box {-1, 0, 1}
    # a stand-in for A2 that lists it among its roots: a copy whose roots are
    # written to its dict, past the door that refuses writes to a system
    rs = copy(build("A2"))
    vars(rs)["all_roots"] = rs.all_roots + (root_vector(2, 0),)
    rep = verify_index_bound(rs)
    assert (rep.checked, rep.violations) == (
        7, ["root {2,0|root}: weight coordinate 4 out of range"]
    )


def test_schubert_restriction_degrees():
    rs = build("A2")
    lam = weight_vector(4, -7)
    assert schubert_restriction_degree(rs, lam, 1) == 4
    assert schubert_restriction_degree(rs, lam, 2) == -7
    theta = rs.highest_root()
    assert [schubert_restriction_degree(rs, theta, i) for i in (1, 2)] == [1, 1]
    with pytest.raises(IndexOutOfRange):
        schubert_restriction_degree(rs, lam, 0)
    with pytest.raises(IndexOutOfRange):
        schubert_restriction_degree(rs, lam, 3)


def test_a_non_integer_schubert_curve_index_is_refused():
    # 1 <= 1.5 <= 2 holds, yet 1.5 indexes no coordinate
    rs = build("A2")
    with pytest.raises(IndexOutOfRange, match=r"curve index 1\.5 outside 1\.\.2"):
        schubert_restriction_degree(rs, weight_vector(4, -7), 1.5)


def test_root_basis_input_accepted():
    rs = build("A2")
    assert bwb(rs, -rs.simple_roots[0]) == bwb(rs, weight_vector(-2, 1))
    assert index(rs, root_vector(1, 1)) == 0
