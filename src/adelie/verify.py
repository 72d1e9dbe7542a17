"""Named verification suites over one root system.

Each suite bundles the module-level sweeps into a single report; "all" merges
every suite.  The oracle factories answer H^2 questions for root classes from
three independent directions (flag index, chain height, curve descent), which
is what lets the obstruction suite certify solvability without circularity.
"""

from __future__ import annotations

from .chevalley import ChevalleyConstants, build_constants, verify_chevalley
from .cotangent import cht, verify_chain_criterion, verify_descent
from .errors import CancellationFailure, ConstructionFailure, IllegalType
from .flag import ALL_VANISH, bwb, verify_index_bound, verify_root_cohomology
from .obstruction import Half, build_system, certify_solvability, check_bianchi
from .report import SUITES, H2VanishVerdict, VerificationReport
from .roots import LatticeVector, RootSystem, checked_system
from .surface import resolution_lattice, surface_h2_oracle, verify_surface


def flag_h2_oracle(rs: RootSystem):
    """H^2 oracle backed by line-bundle cohomology on the flag variety.

    A root weight is never concentrated above degree one, so H^2 of the
    corresponding bundle vanishes; the degree is recomputed per query.
    """
    checked_system(rs)

    def oracle(alpha: LatticeVector) -> H2VanishVerdict:
        verdict = bwb(rs, alpha)
        if verdict.status == ALL_VANISH:
            return H2VanishVerdict(
                root=rs.to_root_basis(alpha), vanishes=True,
                source="flag-index", detail="all degrees vanish",
            )
        return H2VanishVerdict(
            root=rs.to_root_basis(alpha),
            vanishes=verdict.degree <= 1,
            source="flag-index",
            detail=f"concentrated in degree {verdict.degree}",
        )

    return oracle


def cotangent_h2_oracle(rs: RootSystem):
    """H^2 oracle backed by the chain height: cht < 2 forces vanishing."""
    checked_system(rs)

    def oracle(alpha: LatticeVector) -> H2VanishVerdict:
        value = cht(rs, alpha).value
        return H2VanishVerdict(
            root=rs.to_root_basis(alpha),
            vanishes=value < 2,
            source="cotangent-height",
            detail=f"cht={value}",
        )

    return oracle


def half_h2_oracle(rs: RootSystem, half: Half | str):
    """The oracle a half system is certified against: curve descent for the
    positive half, chain height for the negative half (half read by Half)."""
    if Half(half) is Half.POSITIVE:
        return surface_h2_oracle(resolution_lattice(rs))
    return cotangent_h2_oracle(rs)


def verify_obstruction(rs: RootSystem) -> VerificationReport:
    """Build both half systems, check closure, and certify each against
    its half_h2_oracle."""
    rep = VerificationReport(name=f"obstruction-{checked_system(rs).name}")
    constants = build_constants(rs)
    for half in (Half.POSITIVE, Half.NEGATIVE):
        system = build_system(constants, half)
        rep.checked += len(system.obstructions)
        closure = check_bianchi(system)
        rep.merge(closure)
        cert = certify_solvability(system, half_h2_oracle(rs, half))
        rep.checked += len(cert.verdicts)
        for v in cert.verdicts:
            if not v.vanishes:
                rep.violations.append(
                    f"{half.value}: H^2 fails to vanish for {v.root}"
                )
        rep.details[f"{half.value}_solvable"] = cert.solvable
        rep.details[f"{half.value}_requirements"] = len(cert.requirements)
    return rep


def detect_tampering(constants: ChevalleyConstants) -> tuple[bool, str]:
    """Combined corruption detector for a structure-constant table.

    Layer one is the bracket verification (support and antisymmetry of the
    sign table, and the Jacobi sweep over the bracket table, whose triples
    with an h cover the Cartan relations), run once per constants instance.
    It never compares the two tables, and a sign table that disagrees with
    the bracket table it was swept on passes it.  Layer two rebuilds both
    obstruction systems: their closed formula reads the sign table against
    the forms extracted from the bracket table (a construction failure), and
    the Bianchi closure checks the forms themselves.
    Returns (detected, reason); (False, "") means the table looks clean.
    """
    rep = verify_chevalley(constants)
    if not rep.ok:
        return True, f"bracket verification: {rep.violations[0]}"
    for half in (Half.POSITIVE, Half.NEGATIVE):
        try:
            system = build_system(constants, half)
        except (CancellationFailure, ConstructionFailure) as exc:
            return True, f"{half.value} build: {exc}"
        closure = check_bianchi(system)
        if not closure.ok:
            return True, f"{half.value} closure: {closure.violations[0]}"
    return False, ""


def run_suite(rs: RootSystem, suite: str) -> VerificationReport:
    """Run one named suite, or every suite for "all"."""
    checked_system(rs)
    if suite == "all":
        rep = VerificationReport(name=f"{rs.name}-all")
        for name in SUITES:
            sub = run_suite(rs, name)
            rep.merge(sub)
            rep.details[name] = "ok" if sub.ok else "failed"
        return rep
    if suite == "chevalley":
        return verify_chevalley(build_constants(rs))
    if suite == "bwb":
        return verify_root_cohomology(rs)
    if suite == "index":
        return verify_index_bound(rs)
    if suite == "cht":
        # the ball shrinks with rank to bound its weight count, so the sweep
        # stays exhaustive on its slice.  cht == 0 holds exactly when
        # lambda* = lambda+, so the criterion reads the firing and walks no
        # interval; the walk's value is checked by the chain-step and
        # brute-force tests and, on the roots, by verify_cht_roots
        if rs.rank <= 5:
            radius, support = 2, None
        elif rs.rank == 6:
            radius, support = 1, None
        elif rs.rank == 7:
            radius, support = 1, 3
        else:
            radius, support = 1, 1
        rep = verify_chain_criterion(rs, radius=radius, max_support=support)
        rep.merge(verify_cht_roots(rs))
        return rep
    if suite == "descent":
        return verify_descent(rs)
    if suite == "surface":
        return verify_surface(rs)
    if suite == "obstruction":
        return verify_obstruction(rs)
    raise IllegalType(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")


def verify_cht_roots(rs: RootSystem) -> VerificationReport:
    """cht is 0 exactly on positive roots and 1 on negative roots, so H^2
    vanishes for every root class."""
    rep = VerificationReport(name=f"cht-roots-{checked_system(rs).name}")
    for alpha in rs.all_roots:
        rep.checked += 1
        expected = 0 if rs.is_positive_root(alpha) else 1
        if cht(rs, alpha).value != expected:
            rep.violations.append(f"cht({alpha}) != {expected}")
    return rep
