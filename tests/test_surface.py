"""Root-divisor dictionary, -2 class enumeration, and the descent oracle."""

import hashlib
import json
from itertools import product

import pytest

from adelie import surface
from adelie._exact import int_adjugate
from adelie.cli import main
from adelie.errors import (
    BasisMismatch,
    ConstructionFailure,
    IndexOutOfRange,
    NonIntegerCoordinate,
    NotARootClass,
    NotPositiveDefinite,
)
from adelie.flag import schubert_restriction_degree
from adelie.cotangent import negative_root_descent
from adelie.roots import RootSystem, build, root_vector, weight_vector
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
SUPPORTED = [f"A{r}" for r in range(1, 17)] + [f"D{r}" for r in range(3, 17)] + ["E6", "E7", "E8"]


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


def test_a_non_integer_curve_index_is_refused():
    # 1 <= 1.5 <= 3 holds, yet 1.5 names no curve
    lat = resolution_lattice(build("A3"))
    with pytest.raises(IndexOutOfRange, match=r"curve index 1\.5 outside 1\.\.3"):
        lat.curve(1.5)


def test_a_class_of_another_length_is_refused():
    # zip would pair the curves with the first coefficients and drop the rest
    lat = resolution_lattice(build("A3"))
    with pytest.raises(BasisMismatch, match="2 coefficients on 3 curves"):
        lat.self_intersection(DivisorClass((1, 1)))
    with pytest.raises(BasisMismatch, match="5 coefficients on 3 curves"):
        lat.pair(lat.curve(1), DivisorClass((1, 0, 0, 0, 0)))


def test_a_non_integer_coefficient_is_refused():
    # a float square would pass for an integer one
    lat = resolution_lattice(build("A3"))
    for a, b in [(DivisorClass((1.0, 0, 0)),) * 2, (lat.curve(1), DivisorClass((1, 0.5, 0)))]:
        with pytest.raises(NonIntegerCoordinate, match="are not integers") as exc:
            lat.pair(a, b)
        assert isinstance(exc.value, TypeError)


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


def test_divisor_to_root_rejects_a_minus_two_class_that_is_no_root():
    # on a forged lattice whose form is not the negated Cartan matrix,
    # (1, -1) squares to -2 but is not a root of A2
    lat = ResolutionLattice(build("A2"), ((-2, -1), (-1, -2)))
    d = DivisorClass((1, -1))
    assert lat.self_intersection(d) == -2
    with pytest.raises(NotARootClass) as exc:
        divisor_to_root(lat, d)
    assert str(exc.value) == "DivisorClass(1, -1) does not match a root of A2"


def test_minus_two_classes_match_roots():
    for name in SUPPORTED:
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


# positive-definite forms G that are not Cartan matrices, by their leading
# minors: minors above 1 at several steps make the integer windows divide by
# them; every coordinate of a class with x.G.x = 2 is at most
# sqrt(2 (G^-1)_ii) <= 2 here
FORMS = {
    "3": ((3,),),
    "4,4": ((4, 2), (2, 2)),
    "3,8,8": ((3, -1, 1), (-1, 3, 1), (1, 1, 2)),
    "4,4,4": ((4, 2, 0), (2, 2, -1), (0, -1, 2)),
    "2,4,4,5": ((2, 0, -1, -2), (0, 2, -1, -1), (-1, -1, 2, 2), (-2, -1, 2, 4)),
    "5,11,18,27": ((5, 2, 1, 0), (2, 3, 1, 1), (1, 1, 2, 0), (0, 1, 0, 2)),
}


@pytest.mark.parametrize("minors", FORMS)
def test_minus_two_classes_match_a_box_scan_on_other_forms(minors):
    form = FORMS[minors]
    n = len(form)
    assert ",".join(map(str, int_adjugate(form)[0])) == minors
    lat = ResolutionLattice(build(f"A{n}"), tuple(tuple(-v for v in row) for row in form))
    brute = sorted(
        x
        for x in product(range(-3, 4), repeat=n)
        if sum(x[i] * form[i][j] * x[j] for i in range(n) for j in range(n)) == 2
    )
    assert [c.coeffs for c in minus_two_classes(lat)] == brute


def test_minus_two_classes_sorted():
    lat = resolution_lattice(build("A2"))
    assert [c.coeffs for c in minus_two_classes(lat)] == [
        (-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1),
    ]


def test_minus_two_classes_read_the_lattice_form():
    # A2 roots on the A1 x A1 form: the enumeration and the square both read
    # the lattice, so (1, 1), which squares to -4 there, is neither a class
    # nor a divisor
    lat = ResolutionLattice(build("A2"), ((-2, 0), (0, -2)))
    assert [c.coeffs for c in minus_two_classes(lat)] == [
        (-1, 0), (0, -1), (0, 1), (1, 0),
    ]
    with pytest.raises(ConstructionFailure, match="does not square to -2"):
        root_to_divisor(lat, root_vector(1, 1))


def test_minus_two_classes_refuse_an_indefinite_lattice():
    # a hand-built lattice that is not negative definite has no finite -2
    # class list; the refusal is an AdelieError that is still a ValueError.
    # The elimination stops at a zero first minor, reaches a negative second
    # one, or, on the singular form, a zero second one
    for form in (((0, 1), (1, 0)), ((-1, 2), (2, -1)), ((-2, 2), (2, -2))):
        lat = ResolutionLattice(build("A2"), form)
        with pytest.raises(NotPositiveDefinite) as exc:
            minus_two_classes(lat)
        assert isinstance(exc.value, ValueError)


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


@pytest.mark.parametrize("name", SUPPORTED)
def test_oracle_negation_routing(name):
    # the oracle answers on -a by walking a, so verify_surface, which runs it
    # on the positive roots alone, covers every root class
    rs = build(name)
    oracle = surface_h2_oracle(resolution_lattice(rs))
    for a in rs.positive_roots:
        up, down = oracle(a), oracle(-a)
        assert not up.detail.startswith("negated")
        assert (down.vanishes, down.source) == (up.vanishes, up.source)
        assert down.root == -up.root
        assert down.detail == "negated; " + up.detail


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


def test_oracle_rejects_a_weight_off_the_root_lattice():
    # the same error as root_to_divisor and negative_root_descent give, not
    # the NotInRootLattice of a conversion run before the root check
    rs = build("A2")
    lattice = resolution_lattice(rs)
    for check in (
        surface_h2_oracle(lattice),
        lambda v: root_to_divisor(lattice, v),
        lambda v: negative_root_descent(rs, v),
    ):
        with pytest.raises(NotARootClass):
            check(weight_vector(1, 0))


@pytest.mark.parametrize("name", SUPPORTED)
def test_oracle_steps_on_the_least_curve_that_leaves_a_root(name):
    # the word recomputed at every step from the pairings and root membership
    # alone, against the oracle's detail on the untampered lattice
    rs = build(name)
    oracle = surface_h2_oracle(resolution_lattice(rs))
    for a in rs.positive_roots:
        cur, word = a, []
        while rs.height(cur) >= 2:
            i = next(
                k for k, s in enumerate(rs.simple_roots)
                if rs.pairing(cur, s) == 1 and rs.is_root(cur - s)
            )
            word.append(i + 1)
            cur = cur - rs.simple_roots[i]
        base = cur.coords.index(1) + 1
        assert oracle(a).detail == f"curves {word} to base {base}"


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
        rs = build(name)
        rep = verify_surface(rs)
        assert rep.ok, rep.violations[:3]
        assert rep.details["minus_two_classes"] == len(rs.all_roots)
        # the minors, the class match and one descent per positive root
        assert rep.checked == rs.rank + 1 + len(rs.positive_roots)


def test_verify_surface_reports_a_class_mismatch_and_a_failed_descent(monkeypatch):
    # the lattice of A1 x A1 under A2's roots: its four -2 classes miss
    # alpha_1 + alpha_2, and the descent of that root finds degree -2 on C_1
    monkeypatch.setattr(
        surface, "resolution_lattice", lambda rs: ResolutionLattice(rs, ((-2, 0), (0, -2)))
    )
    rep = verify_surface(build("A2"))
    assert (rep.checked, rep.violations) == (6, [
        "-2 classes do not match the roots",
        "descent fails for {1,1|root}: restriction degree -2 on curve 1",
    ])
    assert rep.details["minus_two_classes"] == 4


class _ForgedSystem(RootSystem):
    # a RootSystem with a form that no Dynkin diagram has, so that verify_surface,
    # which refuses anything but a RootSystem, reaches its indefinite branch
    name = "fake"

    def __init__(self, cartan):
        self.kind, self.rank, self.cartan = "fake", len(cartan), cartan


def test_verify_surface_reports_indefinite_form():
    fake = _ForgedSystem(((0,),))
    rep = verify_surface(fake)
    assert not rep.ok
    assert "definite" in rep.violations[0]
    assert rep.checked == 0
    # resolution_lattice builds this singular form as it is; the enumeration's
    # elimination refuses it at its zero second minor, before anything counts
    fake = _ForgedSystem(((2, -2), (-2, 2)))
    rep = verify_surface(fake)
    assert rep.violations == [
        "fake: form not definite, the negated form has leading minors (2, 0)"
    ]
    assert rep.checked == 0


# (checked, SHA-256 of the exact `--format json` stdout less its checked
# field).  The digests were recorded from the suite that also compared two
# products of the Cartan matrix root by root, and that then walked the
# descent of every root, negative ones too; dropping the comparisons and the
# negated walks moved checked alone: one fact per minor, the class match and
# one descent per positive root.  The --root payloads carry no checked field.
SURFACE_PAYLOAD_SHA256 = {
    ("surface", "E6"): (43, "46decd757023a9bfa85570e6a363d46dc0b09ebd737586e358fbd4919cbf2433"),
    ("surface", "E7"): (71, "b92686410ea06e012ab0c85cedc0ed5024ff4529a84f6c8ae39db592083964b9"),
    ("surface", "E8"): (129, "04803c18ed798c25c338eaca1a9ab220735d8dff0483a8117ad96d17d2cf76fe"),
    ("verify", "A8", "surface"):
        (45, "73cc1696ffab850a4bfee092d09281df692b3e5784a3037b50afeeae2281ae79"),
    ("verify", "D8", "surface"):
        (65, "110b063c166c76c6959056564cf7c5f4aaae8c5de62d0e6100beebb2a19849f0"),
    ("verify", "E6", "surface"):
        (43, "7f08034fc2b6637e86b8f3940b9b55dbb8ce495cc014629ebebf2a427e8a0ec7"),
    ("verify", "E7", "surface"):
        (71, "6cfd3fc3cf9e098ffc7fe4302603b8b61ce47f0c7c65636f05f46946d6bef3d4"),
    ("verify", "E8", "surface"):
        (129, "590693e0ff0bb8cd3c4b31c70fad46bd1b2af51eca4786367bdc10f8677e9613"),
    ("surface", "E8", "--root", "2", "3", "4", "6", "5", "4", "3", "2"):
        (None, "7ae8613596afc0c3787aeecde717970b9de11fc3862963124d1fe531ba37c250"),
    ("surface", "E8", "--root", "-2", "-3", "-4", "-6", "-5", "-4", "-3", "-2"):
        (None, "07926c98938b55f852e7957e993f86e398ce6b5ac68e0a834ea1575763e5c602"),
}


@pytest.mark.parametrize("argv", sorted(SURFACE_PAYLOAD_SHA256), ids=" ".join)
def test_surface_payload_is_pinned(capsys, argv):
    checked, digest = SURFACE_PAYLOAD_SHA256[argv]
    assert main([*argv, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out).get("checked") == checked
    rest = out.replace(f'"checked": {checked}, ', "", 1)
    assert hashlib.sha256(rest.encode()).hexdigest() == digest


def test_pinned_roots_are_the_highest_root_and_its_negation():
    th = build("E8").highest_root().coords
    roots = [tuple(map(int, argv[3:])) for argv in SURFACE_PAYLOAD_SHA256 if "--root" in argv]
    assert roots == [th, tuple(-c for c in th)]


def _stepwise_descent(lattice, alpha):
    # the descent recomputed at every step: pairings with the simple roots,
    # root membership and the restriction degree of the whole current class
    rs = lattice.system
    cur = rs.to_root_basis(alpha)
    if not rs.is_positive_root(cur):
        cur = -cur
    while rs.height(cur) >= 2:
        i = next(
            k for k, s in enumerate(rs.simple_roots)
            if rs.pairing(cur, s) == 1 and rs.is_root(cur - s)
        )
        deg = lattice.restriction_degree(DivisorClass(cur.coords), i + 1)
        if deg != -1:
            return False, f"restriction degree {deg} on curve {i + 1}"
        cur = cur - rs.simple_roots[i]
    return True, None


@pytest.mark.parametrize("name", ["A3", "D4", "A4"])
def test_oracle_matches_a_stepwise_descent_on_tampered_lattices(name):
    # one entry of the intersection form moved by -1 or +1, symmetric or not:
    # the oracle carries the curve degrees from step to step, and must reach
    # the verdict that recomputing them at every step reaches
    rs = build(name)
    cases = failures = 0
    for i, j, delta in product(range(rs.rank), range(rs.rank), (-1, 1)):
        rows = [list(row) for row in resolution_lattice(rs).intersection]
        rows[i][j] += delta
        bad = ResolutionLattice(rs, tuple(map(tuple, rows)))
        oracle = surface_h2_oracle(bad)
        for a in rs.all_roots:
            vanishes, detail = _stepwise_descent(bad, a)
            v = oracle(a)
            assert v.vanishes == vanishes, (i, j, delta, a)
            if not vanishes:
                assert v.detail == detail
            cases += 1
            failures += not vanishes
    assert 0 < failures < cases


def test_an_indivisible_fincke_pohst_budget_is_an_internal_failure(monkeypatch, capsys):
    # every budget divides exactly because below holds the entries of the
    # fraction-free elimination; one more in each breaks that, which is a
    # bug, exit 3, not bad input
    real = surface.int_adjugate

    def tampered(matrix):
        minors, below, adjugate = real(matrix)
        return minors, [[v + 1 for v in row] for row in below], adjugate

    monkeypatch.setattr(surface, "int_adjugate", tampered)
    message = "A2: Fincke-Pohst budget at 1 not divisible by 2"
    with pytest.raises(ConstructionFailure, match=f"^{message}$"):
        minus_two_classes(resolution_lattice(build("A2")))
    assert main(["surface", "A2"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {message}\n")
