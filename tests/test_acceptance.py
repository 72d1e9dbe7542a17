"""Acceptance matrix over every supported type, exact tolerances, stated budgets.

One test per criterion; each ends by printing a single pass/fail line (visible
with -s, and mirrored by the -v test status).  All arithmetic assertions are
exact, and every sweep is exhaustive: the Jacobi identity is checked on all
basis triples of every type, E8 included.
"""

import json
import os
import subprocess
import sys
import time
from itertools import product
from math import comb
from pathlib import Path

import numpy as np

import adelie
from adelie.chevalley import (
    LieElement,
    adjoint_matrix,
    build_constants,
    verify_chevalley,
)
from adelie.cotangent import cht, euler_characteristic_graded, verify_chain_criterion
from adelie.flag import (
    ALL_VANISH,
    bwb,
    euler_characteristic,
    schubert_restriction_degree,
    verify_index_bound,
    verify_root_cohomology,
    weyl_dim,
)
from adelie.obstruction import Half, build_system, check_bianchi, system_text
from adelie.roots import build, root_vector, weight_vector
from adelie.surface import resolution_lattice, root_to_divisor, surface_h2_oracle, verify_surface
from adelie.verify import (
    cotangent_h2_oracle,
    detect_tampering,
    flag_h2_oracle,
    run_suite,
    verify_cht_roots,
)
from adelie.cotangent import verify_descent

TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "D3", "D4", "D5", "D6", "D7",
    "E6", "E7", "E8",
]

POSITIVE_COUNT = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21, "A7": 28,
    "D3": 6, "D4": 12, "D5": 20, "D6": 30, "D7": 42,
    "E6": 36, "E7": 63, "E8": 120,
}

THETA_HEIGHT = {
    "A1": 1, "A2": 2, "A3": 3, "A4": 4, "A5": 5, "A6": 6, "A7": 7,
    "D3": 3, "D4": 5, "D5": 7, "D6": 9, "D7": 11,
    "E6": 11, "E7": 17, "E8": 29,
}

GOLDEN = Path(__file__).parent / "golden"


def _line(num, failures, text):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num:02d} {status}: {text}", flush=True)
    assert not failures, failures[:5]


def test_criterion_01_root_systems_exact():
    failures = []
    for name in TYPES:
        rs = build(name)
        if len(rs.positive_roots) != POSITIVE_COUNT[name]:
            failures.append(f"{name}: positive count")
        if rs.height(rs.highest_root()) != THETA_HEIGHT[name]:
            failures.append(f"{name}: highest-root height")
        dim = rs.rank + 2 * POSITIVE_COUNT[name]
        if rs.rank + len(rs.all_roots) != dim:
            failures.append(f"{name}: dimension bookkeeping")
        for i in range(rs.rank):
            for j in range(rs.rank):
                v = rs.cartan[i][j]
                good = v == 2 if i == j else v in (0, -1) and v == rs.cartan[j][i]
                if not good:
                    failures.append(f"{name}: cartan entry ({i},{j})")
        for a in rs.all_roots:
            if rs.pairing(a, a) != 2:
                failures.append(f"{name}: root norm {a}")
            w = rs.to_weight_basis(a)
            if rs.to_root_basis(w).coords != a.coords:
                failures.append(f"{name}: basis roundtrip {a}")
    _line(1, failures, f"root systems exact over {len(TYPES)} types")


def test_criterion_02_chevalley_tables():
    t0 = time.monotonic()
    failures = []
    for name in TYPES:
        c = build_constants(build(name))
        rep = verify_chevalley(c)
        if not rep.ok:
            failures.append(f"{name}: {rep.violations[:2]}")
        if rep.details["jacobi"] != "exhaustive":
            failures.append(f"{name}: jacobi mode {rep.details['jacobi']}")
    # Killing anchor: trace(ad x ad y) for the first simple sl2 pair is 2
    # dual Coxeter numbers
    rs = build("A2")
    c = build_constants(rs)
    a1 = rs.simple_roots[0]
    m = adjoint_matrix(LieElement.x(rs, a1), c) @ adjoint_matrix(LieElement.x(rs, -a1), c)
    if int(np.trace(m)) != 6:
        failures.append(f"A2 Killing trace {int(np.trace(m))}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"budget: {elapsed:.1f}s")
    _line(2, failures, f"structure constants verified in {elapsed:.1f}s (budget 60s)")


def test_criterion_03_line_bundle_cohomology():
    t0 = time.monotonic()
    failures = []
    for name in TYPES:
        rs = build(name)
        for rep in (verify_root_cohomology(rs), verify_index_bound(rs)):
            if not rep.ok:
                failures.append(f"{name}: {rep.name}")
        npos = POSITIVE_COUNT[name]
        if weyl_dim(rs, rs.rho()) != 2 ** npos:
            failures.append(f"{name}: dim V(rho)")
        theta = rs.to_weight_basis(rs.highest_root())
        if weyl_dim(rs, theta) != rs.rank + 2 * npos:
            failures.append(f"{name}: dim V(theta)")
    for n in range(1, 8):
        rs = build(f"A{n}")
        for k in range(1, n + 1):
            lam = weight_vector(*(int(i == k - 1) for i in range(n)))
            if weyl_dim(rs, lam) != comb(n + 1, k):
                failures.append(f"A{n}: fundamental {k}")
    d4 = build("D4")
    for k in (1, 3, 4):
        lam = weight_vector(*(int(i == k - 1) for i in range(4)))
        if weyl_dim(d4, lam) != 8:
            failures.append(f"D4: fundamental {k}")
    if weyl_dim(build("E6"), weight_vector(1, 0, 0, 0, 0, 0)) != 27:
        failures.append("E6: fundamental 1")
    if weyl_dim(build("E7"), weight_vector(0, 0, 0, 0, 0, 0, 1)) != 56:
        failures.append("E7: fundamental 7")
    # Serre duality on a ball: degrees sum to the positive count, dims agree
    for name, radius in (("A2", 2), ("A3", 1)):
        rs = build(name)
        npos = POSITIVE_COUNT[name]
        for coords in product(range(-radius, radius + 1), repeat=rs.rank):
            lam = weight_vector(*coords)
            dual = weight_vector(*(-v - 2 for v in coords))
            a, b = bwb(rs, lam), bwb(rs, dual)
            if (a.status == ALL_VANISH) != (b.status == ALL_VANISH):
                failures.append(f"{name}: Serre status {coords}")
            elif a.status != ALL_VANISH:
                if a.degree + b.degree != npos or a.dimension != b.dimension:
                    failures.append(f"{name}: Serre pairing {coords}")
    # dot action flips the euler characteristic
    for name in ("A2", "D4"):
        rs = build(name)
        for coords in product(range(-1, 2), repeat=rs.rank):
            lam = weight_vector(*coords)
            chi = euler_characteristic(rs, lam)
            for i in range(rs.rank):
                shifted = weight_vector(*(v + 1 for v in coords))
                refl = rs.reflect_simple(shifted, i)
                dot = weight_vector(*(v - 1 for v in refl.coords))
                if euler_characteristic(rs, dot) != -chi:
                    failures.append(f"{name}: dot action {coords} s{i + 1}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10:
        failures.append(f"budget: {elapsed:.1f}s")
    _line(3, failures, f"cohomology verdicts and dimensions in {elapsed:.1f}s (budget 10s)")


def test_criterion_04_chain_heights():
    failures = []
    for name in TYPES:
        rep = verify_cht_roots(build(name))
        if not rep.ok:
            failures.append(f"{name}: root cht")
    rs = build("E8")
    values = [cht(rs, a).value for a in rs.all_roots]
    if (values.count(0), values.count(1)) != (120, 120):
        failures.append("E8: root cht counts")
    a1 = build("A1")
    for k in range(7):
        if cht(a1, root_vector(-k)).value != k:
            failures.append(f"A1: cht(-{k} alpha)")
    for name, radius, support in (("A2", 2, None), ("D4", 2, None), ("E6", 1, None), ("E8", 1, 1)):
        rep = verify_chain_criterion(build(name), radius=radius, max_support=support)
        if not rep.ok:
            failures.append(f"{name}: chain criterion")
    _line(4, failures, "chain heights: closed forms, root values, pairing criterion")


def test_criterion_05_negative_root_descent():
    failures = []
    t0 = time.monotonic()
    for name in TYPES:
        rep = verify_descent(build(name))
        if not rep.ok:
            failures.append(f"{name}: descent")
        if rep.details["longest_chain"] != THETA_HEIGHT[name] - 1:
            failures.append(f"{name}: longest chain")
    t1 = time.monotonic()
    rep = verify_descent(build("E8"))
    e8 = time.monotonic() - t1
    if rep.details["longest_chain"] != 28:
        failures.append("E8: chain length")
    if e8 >= 5:
        failures.append(f"E8 budget: {e8:.1f}s")
    _line(5, failures, f"descent chains over {len(TYPES)} types, E8 in {e8:.1f}s (budget 5s)")


def test_criterion_06_obstruction_systems():
    failures = []
    for name in TYPES:
        constants = build_constants(build(name))
        for half in (Half.POSITIVE, Half.NEGATIVE):
            system = build_system(constants, half)
            closure = check_bianchi(system)
            if not closure.ok:
                failures.append(f"{name} {half.value}: bianchi")
        rs = constants.system
        theta = rs.highest_root()
        pos = build_system(constants, Half.POSITIVE)
        terms = len(pos.obstructions[rs.to_root_basis(theta).coords].terms)
        pair_count = sum(
            1
            for b in rs.positive_roots
            for g in rs.positive_roots
            if (b.coords < g.coords and rs.is_root(theta - b) and (b + g).coords == rs.to_root_basis(theta).coords)
        )
        if terms != 1 + pair_count:
            failures.append(f"{name}: theta term count")
    e8 = build("E8")
    sys_e8 = build_system(build_constants(e8), Half.POSITIVE)
    if len(sys_e8.obstructions[e8.to_root_basis(e8.highest_root()).coords].terms) != 29:
        failures.append("E8: theta terms != 29")
    for name in ("A2", "A3", "D4"):
        got = system_text(build_system(build_constants(build(name)), Half.POSITIVE)) + "\n"
        want = (GOLDEN / f"obstruction_{name}_positive.txt").read_text()
        if got != want:
            failures.append(f"{name}: golden system drift")
    from adelie.chevalley import dump_constants

    if dump_constants(build_constants(build("A2"))) + "\n" != (GOLDEN / "chevalley_A2.txt").read_text():
        failures.append("A2: golden table drift")
    _line(6, failures, "obstruction systems closed, golden files stable")


def test_criterion_07_surface_dictionary():
    failures = []
    t0 = time.monotonic()
    for name in TYPES:
        rep = verify_surface(build(name))
        if not rep.ok:
            failures.append(f"{name}: {rep.violations[:2]}")
    rs = build("E8")
    oracle = surface_h2_oracle(resolution_lattice(rs))
    detail = oracle(rs.highest_root()).detail
    steps = detail.split("curves ")[1].split(" to base")[0].count(",") + 1
    if steps != 28:
        failures.append("E8: descent word length")
    elapsed = time.monotonic() - t0
    _line(7, failures, f"surface dictionary and descent over {len(TYPES)} types in {elapsed:.1f}s")


def test_criterion_08_mutation_detection():
    failures = []
    total = 0
    for name in ("A2", "A3", "D4"):
        c = build_constants(build(name))
        pairs = [(a, b) for a, b, _ in c.nonzero_entries()]
        for one_sided in (False, True):
            for a, b in pairs:
                total += 1
                detected, _ = detect_tampering(c.flip(a, b, one_sided=one_sided))
                if not detected:
                    failures.append(f"{name}: missed flip {a}, {b}, one_sided={one_sided}")
    _line(8, failures, f"all {total} single-sign mutations detected")


def test_criterion_09_cross_module_consistency():
    failures = []
    for name in TYPES:
        rs = build(name)
        lattice = resolution_lattice(rs)
        theta = rs.highest_root()
        d = root_to_divisor(lattice, theta)
        for i in range(1, rs.rank + 1):
            if lattice.restriction_degree(d, i) != -schubert_restriction_degree(rs, theta, i):
                failures.append(f"{name}: restriction sign at {i}")
        for i in range(rs.rank):
            lam = -rs.simple_roots[i]
            if euler_characteristic_graded(rs, lam, 0) != -1:
                failures.append(f"{name}: graded euler at -alpha_{i + 1}")
    for name in ("A2", "A3", "D4", "D5"):
        rs = build(name)
        oracles = (
            flag_h2_oracle(rs),
            cotangent_h2_oracle(rs),
            surface_h2_oracle(resolution_lattice(rs)),
        )
        for a in rs.all_roots:
            answers = {oracle(a).vanishes for oracle in oracles}
            if answers != {True}:
                failures.append(f"{name}: oracle disagreement at {a}")
    _line(9, failures, "flag, cotangent, and surface modules agree")


def _cli_env():
    """The environment for CLI children: the adelie this suite imported comes first.

    Absolute, so it holds whatever the child's cwd and whether the suite found
    adelie through a relative PYTHONPATH, an absolute one or an installed package.
    """
    env = dict(os.environ)
    here = str(Path(adelie.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [here, env.get("PYTHONPATH")]))
    return env


def _child_failure(what, run):
    """A failure entry naming a CLI child's exit code and the end of its stderr."""
    tail = run.stderr.decode(errors="replace").strip().splitlines()[-3:]
    return f"{what}: exit {run.returncode}, stderr {tail}"


def test_criterion_10_cli_determinism():
    failures = []
    env = _cli_env()
    cmd = [sys.executable, "-m", "adelie", "verify", "A3", "all", "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, cwd="/", env=env) for _ in range(2)]
    if runs[0].stdout != runs[1].stdout:
        failures.append("stdout differs between runs")
    for i, r in enumerate(runs):
        if r.returncode != 0:
            failures.append(_child_failure(f"verify run {i + 1} exit code", r))
    try:
        payload = json.loads(runs[0].stdout)
    except ValueError:
        failures.append(_child_failure("verify run 1 stdout is not JSON", runs[0]))
    else:
        if payload.get("schema") != 1 or payload.get("ok") is not True:
            failures.append("payload shape")
    bad = subprocess.run(
        [sys.executable, "-m", "adelie", "roots", "Z9"], capture_output=True, cwd="/", env=env
    )
    if bad.returncode != 2:
        failures.append(_child_failure("bad type exit code", bad))
    _line(10, failures, "CLI byte-identical JSON and exit codes")
