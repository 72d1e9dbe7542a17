"""Suite aggregator, H^2 oracle factories, and the tampering detector."""

import pytest

from adelie import obstruction, verify
from adelie.chevalley import build_constants, verify_chevalley
from adelie.errors import IllegalType
from adelie.report import H2VanishVerdict, VerificationReport
from adelie.roots import build
from adelie.surface import resolution_lattice, surface_h2_oracle
from adelie.verify import (
    SUITES,
    cotangent_h2_oracle,
    detect_tampering,
    flag_h2_oracle,
    run_suite,
    verify_cht_roots,
    verify_obstruction,
)


def test_every_suite_passes_small_types():
    for name in ["A2", "A3", "D4"]:
        rs = build(name)
        for suite in SUITES:
            rep = run_suite(rs, suite)
            assert rep.ok, (name, suite, rep.violations[:3])
            assert rep.checked > 0


def test_all_suite_merges_details():
    rep = run_suite(build("A2"), "all")
    assert rep.ok
    assert rep.name == "A2-all"
    for suite in SUITES:
        assert rep.details[suite] == "ok"


SUPPORTED = [f"A{r}" for r in range(1, 17)] + [f"D{r}" for r in range(3, 17)] + ["E6", "E7", "E8"]


def test_three_h2_oracles_agree_on_every_supported_type():
    # flag index, chain height and curve descent answer the same on each of
    # the 4,786 roots of the 33 types (acceptance criterion 9 runs four)
    disagreements, roots = [], 0
    for rs in map(build, SUPPORTED):
        oracles = (
            flag_h2_oracle(rs),
            cotangent_h2_oracle(rs),
            surface_h2_oracle(resolution_lattice(rs)),
        )
        for a in rs.all_roots:
            answers = [oracle(a).vanishes for oracle in oracles]
            if len(set(answers)) != 1:
                disagreements.append((rs.name, a, answers))
        roots += len(rs.all_roots)
    assert (roots, disagreements) == (4786, [])


def test_unknown_suite_rejected():
    with pytest.raises(IllegalType):
        run_suite(build("A2"), "everything")


def test_flag_oracle_clears_all_roots():
    rs = build("A3")
    oracle = flag_h2_oracle(rs)
    for a in rs.all_roots:
        v = oracle(a)
        assert v.vanishes
        assert v.source == "flag-index"


def test_cotangent_oracle_reports_cht():
    rs = build("D4")
    oracle = cotangent_h2_oracle(rs)
    for a in rs.all_roots:
        v = oracle(a)
        assert v.vanishes
        assert v.source == "cotangent-height"
        expected = 0 if rs.is_positive_root(a) else 1
        assert v.detail == f"cht={expected}"


def test_cht_roots_sweep():
    rep = verify_cht_roots(build("E6"))
    assert rep.ok
    assert rep.checked == 72


def test_cht_roots_sweep_reports_a_wrong_value(monkeypatch):
    # the sweep's own cht, one too high on the highest root of A2
    real, rs = verify.cht, build("A2")
    monkeypatch.setattr(
        verify, "cht",
        lambda rs, a: real(rs, a)._replace(value=real(rs, a).value + (a == rs.highest_root())),
    )
    rep = verify_cht_roots(rs)
    assert (rep.checked, rep.violations) == (6, ["cht({1,1|root}) != 0"])


def test_obstruction_suite_reports_h2_that_does_not_vanish(monkeypatch):
    # an oracle that never vanishes fails the one class of height two in each half
    monkeypatch.setattr(
        verify, "half_h2_oracle",
        lambda rs, half: lambda a: H2VanishVerdict(root=a, vanishes=False, source="fake"),
    )
    rep = verify_obstruction(build("A2"))
    assert (rep.checked, rep.violations) == (14, [
        "positive: H^2 fails to vanish for {1,1|root}",
        "negative: H^2 fails to vanish for {-1,-1|root}",
    ])
    assert rep.details == {
        "positive_solvable": False, "positive_requirements": 2,
        "negative_solvable": False, "negative_requirements": 2,
    }


def test_obstruction_suite_certifies_both_halves():
    rs = build("A3")
    rep = verify_obstruction(rs)
    assert rep.ok, rep.violations[:3]
    assert rep.details["positive_solvable"]
    assert rep.details["negative_solvable"]
    # height-one classes become nontriviality requirements, one per simple root
    assert rep.details["positive_requirements"] == rs.rank
    assert rep.details["negative_requirements"] == rs.rank


def test_detector_accepts_clean_table():
    detected, reason = detect_tampering(build_constants(build("A2")))
    assert not detected
    assert reason == ""


def test_detector_reports_a_closure_failure(monkeypatch):
    # the bracket verification and both builds pass; the faked closure, which
    # verify reads from obstruction when the detector runs, fails
    failed = VerificationReport(name="bianchi", violations=["class {1,1|root}: residual psi"])
    monkeypatch.setattr(obstruction, "check_bianchi", lambda system: failed)
    assert detect_tampering(build_constants(build("A2"))) == (
        True, "positive closure: class {1,1|root}: residual psi",
    )


def test_detector_catches_every_single_flip():
    c = build_constants(build("A2"))
    pairs = [(a, b) for a, b, _ in c.nonzero_entries()]
    assert len(pairs) == 12
    for one_sided in (False, True):
        for a, b in pairs:
            detected, reason = detect_tampering(c.flip(a, b, one_sided=one_sided))
            assert detected, (a, b, one_sided)
            assert reason


def test_detector_reports_a_sign_table_that_disagrees_with_its_brackets():
    # a flipped sign table over the clean bracket table passes the bracket
    # verification, which never compares the two; the closed formula of the
    # rebuild reads the sign table and catches it
    c = build_constants(build("A2"))
    a1, a2 = c.system.simple_roots
    bad = c.flip(a1, a2)
    bad.__dict__["bracket_table"] = c.bracket_table
    assert verify_chevalley(bad).ok
    assert detect_tampering(bad) == (
        True,
        "positive build: A2 positive: the closed quadratic formula disagrees "
        "with the double expansion of D^2",
    )
