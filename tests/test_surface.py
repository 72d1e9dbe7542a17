"""Root-divisor dictionary, -2 class enumeration, and the descent oracle."""

from itertools import product
from types import SimpleNamespace

import pytest

from adelie.errors import ConstructionFailure, IndexOutOfRange, NotARootClass
from adelie.flag import schubert_restriction_degree
from adelie.roots import build, root_vector
from adelie.surface import (
    DivisorClass,
    ResolutionLattice,
    divisor_to_root,
    minus_two_classes,
    resolution_lattice,
    root_to_divisor,
    surface_h2_oracle,
    verify_surface,
)

SMALL = ["A1", "A2", "A3", "D4", "D5", "E6"]


def test_intersection_is_negated_cartan():
    rs = build("A2")
    lat = resolution_lattice(rs)
    assert lat.intersection == ((-2, 1), (1, -2))
    assert lat.curve(1).coeffs == (1, 0)
    assert lat.self_intersection(lat.curve(2)) == -2
    assert lat.pair(lat.curve(1), lat.curve(2)) == 1


def test_curve_index_bounds():
    lat = resolution_lattice(build("A2"))
    with pytest.raises(IndexOutOfRange):
        lat.curve(0)
    with pytest.raises(IndexOutOfRange):
        lat.curve(3)


def test_indefinite_form_rejected():
    fake = SimpleNamespace(rank=2, name="fake", cartan=((2, -2), (-2, 2)))
    with pytest.raises(ConstructionFailure):
        resolution_lattice(fake)


def test_root_divisor_coordinates_and_square():
    for name in SMALL:
        rs = build(name)
        lat = resolution_lattice(rs)
        for a in rs.all_roots:
            d = root_to_divisor(lat, a)
            assert d.coeffs == rs.to_root_basis(a).coords
            assert lat.self_intersection(d) == -2


def test_root_divisor_rejects_non_root():
    rs = build("A2")
    lat = resolution_lattice(rs)
    with pytest.raises(NotARootClass):
        root_to_divisor(lat, root_vector(2, 0))


def test_dictionary_is_an_isometry():
    for name in ["A2", "A3", "D4"]:
        rs = build(name)
        lat = resolution_lattice(rs)
        for a in rs.all_roots:
            da = root_to_divisor(lat, a)
            for b in rs.all_roots:
                db = root_to_divisor(lat, b)
                assert lat.pair(da, db) == -rs.pairing(a, b)


def test_divisor_to_root_roundtrip():
    rs = build("D4")
    lat = resolution_lattice(rs)
    for a in rs.all_roots:
        back = divisor_to_root(lat, root_to_divisor(lat, a))
        assert back.coords == rs.to_root_basis(a).coords


def test_divisor_to_root_rejects_wrong_square():
    lat = resolution_lattice(build("A2"))
    with pytest.raises(NotARootClass):
        divisor_to_root(lat, DivisorClass((1, -1)))  # square -6


def test_minus_two_classes_match_roots():
    for name in SMALL:
        rs = build(name)
        lat = resolution_lattice(rs)
        classes = minus_two_classes(lat)
        assert len(classes) == len(rs.all_roots)
        assert sorted(c.coeffs for c in classes) == sorted(
            rs.to_root_basis(a).coords for a in rs.all_roots
        )


def test_minus_two_classes_brute_force():
    # independent box scan; coordinates of -2 vectors are bounded by the
    # highest root, so a radius-7 box is safely exhaustive here
    for name in ["A2", "A3"]:
        rs = build(name)
        lat = resolution_lattice(rs)
        brute = sorted(
            x
            for x in product(range(-7, 8), repeat=rs.rank)
            if sum(
                x[i] * rs.cartan[i][j] * x[j]
                for i in range(rs.rank)
                for j in range(rs.rank)
            )
            == 2
        )
        assert [c.coeffs for c in minus_two_classes(lat)] == brute


def test_minus_two_classes_sorted():
    lat = resolution_lattice(build("A2"))
    assert [c.coeffs for c in minus_two_classes(lat)] == [
        (-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1),
    ]


def test_restriction_degrees_negate_flag_degrees():
    for name in ["A2", "A3", "D4"]:
        rs = build(name)
        lat = resolution_lattice(rs)
        for a in rs.positive_roots:
            d = root_to_divisor(lat, a)
            for i in range(1, rs.rank + 1):
                assert lat.restriction_degree(d, i) == -schubert_restriction_degree(
                    rs, a, i
                )


def test_oracle_certifies_every_root():
    for name in SMALL:
        rs = build(name)
        oracle = surface_h2_oracle(resolution_lattice(rs))
        for a in rs.all_roots:
            v = oracle(a)
            assert v.vanishes
            assert v.source == "surface-descent"


def test_oracle_negation_routing():
    rs = build("A3")
    oracle = surface_h2_oracle(resolution_lattice(rs))
    th = rs.highest_root()
    assert not oracle(th).detail.startswith("negated")
    assert oracle(-th).detail.startswith("negated")


def test_oracle_descent_length():
    # height h needs h-1 curve steps before the base case
    rs = build("E6")
    oracle = surface_h2_oracle(resolution_lattice(rs))
    detail = oracle(rs.highest_root()).detail
    curves = detail.split("curves ")[1].split(" to base")[0]
    assert curves.count(",") + 1 == rs.height(rs.highest_root()) - 1


def test_oracle_rejects_non_root():
    oracle = surface_h2_oracle(resolution_lattice(build("A2")))
    with pytest.raises(NotARootClass):
        oracle(root_vector(1, -1))


def test_oracle_detects_tampered_lattice():
    rs = build("A2")
    good = resolution_lattice(rs)
    bad = ResolutionLattice(rs, ((-2, 0), (0, -2)))  # edge removed
    v = surface_h2_oracle(bad)(rs.highest_root())
    assert not v.vanishes
    assert "restriction degree" in v.detail
    assert surface_h2_oracle(good)(rs.highest_root()).vanishes


def test_verify_surface_small_types():
    for name in SMALL:
        rep = verify_surface(build(name))
        assert rep.ok, rep.violations[:3]
        assert rep.details["minus_two_classes"] == len(build(name).all_roots)


def test_verify_surface_reports_indefinite_form():
    fake = SimpleNamespace(rank=1, name="fake", cartan=((0,),))
    rep = verify_surface(fake)
    assert not rep.ok
    assert "definite" in rep.violations[0]


def test_root_to_divisor_invariants_raise(monkeypatch):
    rs = build("A2")
    lat = resolution_lattice(rs)
    # an identity "inverse" returns the weight coordinates, not the root ones
    monkeypatch.setattr(rs, "_inverse_cartan", ((1, 0), (0, 1)))
    with pytest.raises(ConstructionFailure, match=r"root \{1,0\|root\}"):
        root_to_divisor(lat, root_vector(1, 0))
