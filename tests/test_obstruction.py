"""Graded algebra laws, obstruction extraction, Bianchi closure, certification."""

import dataclasses
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from adelie import build, chevalley, obstruction, root_vector
from adelie.chevalley import build_constants, runs, sum_by_key, verify_chevalley
from adelie.cli import main
from adelie.errors import CancellationFailure, ConstructionFailure, IncompleteOracle
from adelie.obstruction import (
    FormalForm,
    H2VanishVerdict,
    Half,
    ObstructionSystem,
    build_system,
    certify_solvability,
    check_bianchi,
    form_text,
    half_roots,
    system_text,
)
from test_chevalley import BUDGETS, _reference_first_failure


def phi(*c):
    return FormalForm.phi(tuple(c))


def psi(*c):
    return FormalForm.psi(tuple(c))


def test_odd_generators_square_to_zero():
    assert (phi(1, 0) * phi(1, 0)).is_zero()
    f = phi(1, 0) + phi(0, 1)
    assert (f * f).is_zero()


def test_anticommutation_and_psi_centrality():
    a, b = phi(0, 1), phi(1, 0)
    assert a * b == -(b * a)
    p = psi(1, 1)
    assert a * p == p * a
    assert p * psi(0, 1) == psi(0, 1) * p


def test_product_sorts_into_canonical_order():
    # phi[1,0] * phi[0,1] reorders with one transposition
    prod = phi(1, 0) * phi(0, 1)
    assert prod.terms == {((((0, 1), (1, 0))), ()): -1}
    assert form_text(prod) == "-phi[0,1]phi[1,0]"


def test_differential_leibniz_signs():
    f = phi(0, 1) * phi(1, 0)
    df = f.differential()
    assert df == psi(0, 1) * phi(1, 0) - phi(0, 1) * psi(1, 0)


def test_differential_squares_to_zero():
    forms = [
        phi(0, 1),
        phi(0, 1) * phi(1, 0),
        phi(0, 1) * phi(1, 0) * phi(1, 1),
        phi(1, 1) * psi(0, 1),
        (phi(0, 1) + phi(1, 1).scale(3)) * phi(1, 0) * psi(1, 1),
    ]
    for f in forms:
        assert f.differential().differential().is_zero()


def test_substitution_identity_and_linearity():
    f = phi(0, 1) * psi(1, 0) + psi(1, 1).scale(2)
    assert f.substitute_psi({}) == f
    swapped = f.substitute_psi({(1, 0): -psi(1, 0)})
    assert swapped == -(phi(0, 1) * psi(1, 0)) + psi(1, 1).scale(2)


def test_half_root_ordering():
    rs = build("A2")
    pos = half_roots(rs, Half.POSITIVE)
    assert [r.coords for r in pos] == [(0, 1), (1, 0), (1, 1)]
    neg = half_roots(rs, Half.NEGATIVE)
    assert [r.coords for r in neg] == [(-1, 0), (0, -1), (-1, -1)]


def test_system_a2_positive():
    sys = build_system(build_constants(build("A2")), Half.POSITIVE)
    e = sys.obstructions
    assert e[(0, 1)] == psi(0, 1)
    assert e[(1, 0)] == psi(1, 0)
    assert e[(1, 1)] == psi(1, 1) + phi(0, 1) * phi(1, 0)
    assert all(f.max_degree() == 2 for f in e.values())


def test_system_a2_negative():
    sys = build_system(build_constants(build("A2")), Half.NEGATIVE)
    e = sys.obstructions
    # n(-a1, -a2) = -n(a1, a2) = +1 and the key order puts -a1 first
    assert e[(-1, -1)] == psi(-1, -1) + phi(-1, 0) * phi(0, -1)


def test_system_a3_highest_root_decompositions():
    sys = build_system(build_constants(build("A3")), Half.POSITIVE)
    e = sys.obstructions[(1, 1, 1)]
    expected = (
        psi(1, 1, 1)
        + phi(0, 0, 1) * phi(1, 1, 0)
        - phi(1, 0, 0) * phi(0, 1, 1)
    )
    assert e == expected
    assert (
        form_text(e)
        == "psi[1,1,1] + phi[0,0,1]phi[1,1,0] - phi[1,0,0]phi[0,1,1]"
    )


@pytest.mark.parametrize(
    "name,half",
    [
        ("A1", Half.POSITIVE),
        ("A2", Half.POSITIVE),
        ("A2", Half.NEGATIVE),
        ("A3", Half.POSITIVE),
        ("A3", Half.NEGATIVE),
        ("D3", Half.POSITIVE),
        ("D4", Half.POSITIVE),
        ("D4", Half.NEGATIVE),
        ("A4", Half.POSITIVE),
        ("D5", Half.POSITIVE),
        ("E6", Half.POSITIVE),
    ],
)
def test_build_and_bianchi(name, half):
    sys = build_system(build_constants(build(name)), half)
    assert len(sys.obstructions) == len(build(name).positive_roots)
    rep = check_bianchi(sys)
    assert rep.ok, rep.violations
    assert rep.checked == len(sys.roots)


def test_every_form_is_quadratic_with_expected_term_count():
    rs = build("D4")
    sys = build_system(build_constants(rs), Half.POSITIVE)
    for alpha in sys.roots:
        form = sys.obstructions[alpha.coords]
        pairs = sum(
            1
            for i, b in enumerate(sys.roots)
            for g in sys.roots[i + 1 :]
            if (b + g).coords == alpha.coords
        )
        assert len(form.terms) == 1 + pairs
        assert form.max_degree() == 2


def test_corrupted_constants_fail_cancellation():
    c = build_constants(build("A2"))
    rs = c.system
    a1, a2 = rs.simple_roots
    with pytest.raises(CancellationFailure):
        build_system(c.flip(a1, a2), Half.POSITIVE)
    with pytest.raises(CancellationFailure):
        build_system(c.flip(a1, a2, one_sided=True), Half.POSITIVE)


def _x(rs, *coords):
    # basis index of x_alpha: after h_1..h_r, in canonical root order
    return rs.rank + rs.root_order_index(root_vector(*coords))


def _with_bracket_cell(c, i, j, cell):
    # a copy whose cached bracket table has the coefficients of cell (i, j)
    # replaced by cell(old coefficients)
    targets, coeffs = c.bracket_table
    coeffs = coeffs.copy()
    coeffs[i, j] = cell(coeffs[i, j])
    copy = dataclasses.replace(c)
    copy.__dict__["bracket_table"] = (targets, coeffs)
    return copy


def test_cartan_column_not_divisible():
    # [x_a1, h_1] = -2 x_a1 becomes -3 x_a1, so psi_a1 appears with -3 in
    # column h_1 where E_a1 must come out times -(a1, a1) = -2
    c = build_constants(build("A2"))
    bad = _with_bracket_cell(c, _x(c.system, 1, 0), 0, lambda v: np.r_[-3, v[1:]])
    with pytest.raises(CancellationFailure) as exc:
        build_system(bad, Half.POSITIVE)
    assert str(exc.value) == (
        "A2 positive: column h1 is not divisible by -2 at class {1,0|root}"
    )


def test_root_column_does_not_reduce():
    # negating [x_{a1+a2}, x_{-a2}] leaves the Cartan columns, and so the
    # extracted E_a, untouched; the remainder check catches it
    c = build_constants(build("A2"))
    rs = c.system
    bad = _with_bracket_cell(c, _x(rs, 1, 1), _x(rs, 0, -1), lambda v: -v)
    with pytest.raises(CancellationFailure) as exc:
        build_system(bad, Half.POSITIVE)
    assert str(exc.value) == (
        "A2 positive: D^2 does not reduce to the obstruction action on column 5"
    )


def test_closed_formula_disagrees_with_a_flipped_sign_table():
    # the expansion reads the clean bracket table, the closed formula the
    # flipped sign table
    c = build_constants(build("A2"))
    a1, a2 = c.system.simple_roots
    bad = c.flip(a1, a2)
    bad.__dict__["bracket_table"] = c.bracket_table
    with pytest.raises(ConstructionFailure) as exc:
        build_system(bad, Half.POSITIVE)
    assert str(exc.value) == (
        "A2 positive: the closed quadratic formula disagrees with the double "
        "expansion of D^2"
    )


def test_bianchi_blind_spot_is_covered_by_table_checks(monkeypatch):
    # a consistent sign flip leaves every rank-two Bianchi residual at zero,
    # so detection must also run the bracket verification, which catches it
    c = build_constants(build("A2"))
    rs = c.system
    a1, a2 = rs.simple_roots
    bad = c.flip(a1, a2)
    closed = {r.coords: FormalForm.psi(r.coords) for r in half_roots(rs, Half.POSITIVE)}
    roots = half_roots(rs, Half.POSITIVE)
    for i, b in enumerate(roots):
        for g in roots[i + 1 :]:
            if rs.is_root(b + g):
                closed[(b + g).coords] = closed[(b + g).coords] + (
                    FormalForm.phi(b.coords) * FormalForm.phi(g.coords)
                ).scale(bad.n(b, g))
    forged = ObstructionSystem(bad, Half.POSITIVE, roots, closed)
    assert _bianchi_violations(forged, monkeypatch) == []  # the blind spot
    assert not verify_chevalley(bad).ok  # the covering check


def _formal_bianchi(system):
    # the residual as a FormalForm: delta E_a with psi_c -> psi_c - E_c
    mapping = {c: psi(*c) - form for c, form in system.obstructions.items()}
    out = []
    for alpha in system.roots:
        resid = system.obstructions[alpha.coords].differential().substitute_psi(mapping)
        if not resid.is_zero():
            out.append(f"class {alpha}: residual {form_text(resid)}")
    return out


BIANCHI_ORACLE_CASES = [
    (name, half) for name in ("A2", "A3", "D4", "A4", "D5", "E6") for half in Half
]


@pytest.mark.parametrize("name,half", BIANCHI_ORACLE_CASES)
def test_bianchi_matches_the_formal_residual_on_corruptions(name, half, monkeypatch):
    # 26 seeded corruptions per case, 312 in all: each negates, doubles or
    # drops one phi phi coefficient of one form, and every other one also
    # lists the roots out of the canonical order
    system = build_system(build_constants(build(name)), half)
    pairs = [
        (c, mono)
        for c, form in system.obstructions.items()
        for mono in form.terms
        if mono[0]
    ]
    rng = random.Random(f"{name}-{half.value}")
    flagged = 0
    for i in range(26):
        c, mono = rng.choice(pairs)
        scale = rng.choice((-1, 2, 0))
        terms = dict(system.obstructions[c].terms)
        terms[mono] *= scale
        roots = list(system.roots)
        if i % 2:
            rng.shuffle(roots)
        forged = dataclasses.replace(
            system,
            roots=tuple(roots),
            obstructions={**system.obstructions, c: FormalForm(terms)},
        )
        expected = _formal_bianchi(forged)
        assert _bianchi_violations(forged, monkeypatch) == expected, (c, mono, scale)
        flagged += bool(expected)
    # in A2 only the highest root has phi phi terms, and its two factors are
    # simple roots, whose forms are psi alone: every A2 residual vanishes
    assert (flagged > 0) == (name != "A2")


def test_bianchi_stays_exact_past_int64(monkeypatch):
    # one negated coefficient, then every phi phi coefficient times 2**32:
    # the residual's coefficient is -2 * 2**64, which int64 would wrap to 0
    system = build_system(build_constants(build("A3")), Half.POSITIVE)
    forms = dict(system.obstructions)
    mono = next(m for m in forms[(1, 1, 1)].terms if m[0])
    forms[(1, 1, 1)] = forms[(1, 1, 1)] - FormalForm({mono: 2 * forms[(1, 1, 1)].terms[mono]})
    for c, form in forms.items():
        forms[c] = FormalForm({m: v * 2**32 if m[0] else v for m, v in form.terms.items()})
    forged = dataclasses.replace(system, obstructions=forms)
    assert _bianchi_violations(forged, monkeypatch) == _formal_bianchi(forged) == [
        "class {1,1,1|root}: residual "
        f"{-2 * 2**64}*phi[0,0,1]phi[0,1,0]phi[1,0,0]"
    ]


def test_bianchi_reports_a_form_of_another_shape(monkeypatch):
    system = build_system(build_constants(build("A2")), Half.POSITIVE)
    forms = system.obstructions
    # a lone phi, another class's psi, psi_a twice or not at all, a cubic term
    cubic = phi(0, 1) * phi(1, 0) * phi(1, 1)
    for extra in (phi(1, 0), psi(0, 1), psi(1, 1), -psi(1, 1), cubic):
        forged = dataclasses.replace(
            system, obstructions={**forms, (1, 1): forms[(1, 1)] + extra}
        )
        assert check_bianchi(forged).checked == 3
        assert _bianchi_violations(forged, monkeypatch) == [
            f"class {{1,1|root}}: {form_text(forms[(1, 1)] + extra)} is not psi + phi phi"
        ]


def test_certification_flow():
    sys = build_system(build_constants(build("A2")), Half.NEGATIVE)

    cert = certify_solvability(sys, lambda a: True)
    assert cert.solvable
    assert len(cert.verdicts) == 1
    assert [r.coords for r in cert.requirements] == [(-1, 0), (0, -1)]

    cert = certify_solvability(
        sys,
        lambda a: H2VanishVerdict(root=a, vanishes=False, source="test"),
    )
    assert not cert.solvable
    assert cert.verdicts[0].source == "test"

    with pytest.raises(IncompleteOracle):
        certify_solvability(sys, lambda a: None)


def test_system_text_stable_and_anchored():
    c = build_constants(build("A2"))
    t1 = system_text(build_system(c, Half.POSITIVE))
    t2 = system_text(build_system(c, Half.POSITIVE))
    assert t1 == t2
    assert "# obstruction system A2 positive" in t1
    assert "(1,1): psi[1,1] + phi[0,1]phi[1,0]" in t1


# SHA-256 of the exact `obstruction --format json` stdout, recorded from the
# dict-walk expansion that the array gathers replaced.
OBSTRUCTION_PAYLOAD_SHA256 = {
    ("E6", "positive", False): "37c94317d3a888fa33b969afc8022835836428c2ae2200ef8b7d5cb093f7ce89",
    ("E6", "negative", False): "466ddaccef94a635e07fcd4a2342420496ec8f49e549c95405e1350a17538d9f",
    ("E7", "positive", False): "7c0c0c653d42560b6f313fbc583cb82830c7495f8c08ce94726ac60903b335f6",
    ("E7", "negative", False): "191ae412de676c885a361bc1582f07eaf95bf2bf6823c853d57860f8e51e447d",
    ("E8", "positive", False): "1b1c6159ddb624ec12afda4a46f86de7bacea3a68d0363c80a564362d2dbaf8b",
    ("E8", "negative", False): "a1ee66349201cf7668acdd187c8925bddcf27d9edd2864c58ffc68de10d0c9d9",
    ("E8", "negative", True): "5e11832480e6bcc4b7852c775dfbb967331875ce3153b5c941e3f32146f85fa8",
    ("E8", "positive", True): "946d74fd2a23d635722ab28d5489956cf020eea1c086d58aca3ad7af804633c5",
}


@pytest.mark.parametrize("name,half,certify", sorted(OBSTRUCTION_PAYLOAD_SHA256))
def test_obstruction_payload_is_pinned(capsys, name, half, certify):
    argv = ["obstruction", name, "--half", half, "--format", "json"]
    code = main(argv + ["--certify"] * certify)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == OBSTRUCTION_PAYLOAD_SHA256[name, half, certify]


# cells that the clean table leaves empty, given the coefficient 1 on their
# padding target h_1; the outcomes of build_system were recorded from the
# dense gathers that the term lists replaced
@pytest.mark.parametrize("name,a,b,positive", [
    ("A2", (1, 0), (1, 1), "column 0"),
    ("A2", (0, 1), (0, 1), "column 2"),
    ("A3", (1, 0, 0), (1, 1, 0), "column 0"),
    ("A3", (0, 1, 1), (1, 1, 1), "column 0"),
])
def test_a_term_in_an_empty_cell_reaches_both_readers(name, a, b, positive):
    c = build_constants(build(name))
    rs = c.system
    i, j = _x(rs, *a), _x(rs, *b)
    assert not c.bracket_table[1][i, j].any()
    bad = _with_bracket_cell(c, i, j, lambda v: np.r_[1, v[1:]])
    _, triple = _reference_first_failure(bad)
    assert verify_chevalley(bad).violations == [
        "jacobi fails on basis triple ({},{},{})".format(*triple)
    ]
    with pytest.raises(CancellationFailure) as exc:
        build_system(bad, Half.POSITIVE)
    assert str(exc.value) == (
        f"{name} positive: D^2 does not reduce to the obstruction action on {positive}"
    )
    # the cell lies outside the rows of the negative half
    assert build_system(bad, Half.NEGATIVE).obstructions == build_system(
        c, Half.NEGATIVE
    ).obstructions


def _columnwise_cancellation(constants, half):
    # build_system's extraction of E_a and its remainder check, one basis
    # column at a time as they ran before the blocked kernel: the oracle for
    # the CancellationFailure message, or None when both stages pass
    rs = constants.system
    rank = rs.rank
    roots = half_roots(rs, half)
    n = len(roots)
    index = np.array([rs.root_order_index(a) for a in roots])
    row, col, tgt, val = constants.bracket_terms()
    dim = len(constants.bracket_table[0])
    position = np.full(dim, -1)
    position[rank + index] = np.arange(n)
    keep = np.flatnonzero(position[row] >= 0)
    keep = keep[np.argsort(col[keep], kind="stable")]
    at_a, at_t, at_c = position[row[keep]], tgt[keep], val[keep].astype(np.int64)
    col_ptr = np.searchsorted(col[keep], np.arange(dim + 1))

    def first(g):
        g = slice(col_ptr[g], col_ptr[g + 1])
        return at_a[g], at_t[g], at_c[g]

    def square(a, t1, c1):
        j, k = runs(col_ptr[t1], col_ptr[t1 + 1])
        b = at_a[k]
        keep = b != a[j]
        b, j, k = b[keep], j[keep], k[keep]
        aj = a[j]
        lo, hi = np.minimum(b, aj), np.maximum(b, aj)
        sign = np.where(b < aj, 1, -1)
        keys = np.concatenate([a * dim + t1, (n + lo * n + hi) * dim + at_t[k]])
        vals = np.concatenate([c1, sign * c1[j] * at_c[k]])
        return sum_by_key(keys, vals)

    weights = np.array([a.coords for a in roots]) @ np.array(rs.cartan)
    h_cols = [square(*first(k)) for k in range(rank)]
    e_monos, e_vals = [], []
    for alpha, ia, w in zip(roots, rank + index, weights.tolist()):
        k = next(k for k in range(rank) if w[k] != 0)
        keys, vals = h_cols[k]
        at = keys % dim == ia
        if (vals[at] % -w[k]).any():
            return (f"{rs.name} {half.value}: column h{k + 1} is not divisible "
                    f"by {-w[k]} at class {alpha}")
        e_monos.append(keys[at] // dim)
        e_vals.append(vals[at] // -w[k])
    e_ptr = np.concatenate([[0], np.cumsum([len(v) for v in e_vals])])
    e_monos, e_vals = np.concatenate(e_monos), np.concatenate(e_vals)
    for g in range(dim):
        a, t1, c1 = first(g)
        d2 = h_cols[g] if g < rank else square(a, t1, c1)
        term, pick = runs(e_ptr[a], e_ptr[a + 1])
        expected = sum_by_key(e_monos[pick] * dim + t1[term], e_vals[pick] * c1[term])
        if not all(map(np.array_equal, d2, expected)):
            return (f"{rs.name} {half.value}: D^2 does not reduce to the "
                    f"obstruction action on column {g}")
    return None


def _cancellation(constants, half):
    try:
        build_system(constants, half)
    except CancellationFailure as exc:
        return str(exc)
    except ConstructionFailure:  # the closed-formula check, after both stages
        pass
    return None


def _forged_constants():
    # the forged tables of the tests above, then every single-cell flip of A3
    a2 = build_constants(build("A2"))
    rs = a2.system
    a1, a2_ = rs.simple_roots
    closed = a2.flip(a1, a2_)
    closed.__dict__["bracket_table"] = a2.bracket_table
    forged = [
        a2.flip(a1, a2_),
        a2.flip(a1, a2_, one_sided=True),
        closed,
        _with_bracket_cell(a2, _x(rs, 1, 0), 0, lambda v: np.r_[-3, v[1:]]),
        _with_bracket_cell(a2, _x(rs, 1, 1), _x(rs, 0, -1), lambda v: -v),
    ]
    for name, a, b in [
        ("A2", (1, 0), (1, 1)), ("A2", (0, 1), (0, 1)),
        ("A3", (1, 0, 0), (1, 1, 0)), ("A3", (0, 1, 1), (1, 1, 1)),
    ]:
        c = build_constants(build(name))
        i, j = _x(c.system, *a), _x(c.system, *b)
        forged.append(_with_bracket_cell(c, i, j, lambda v: np.r_[1, v[1:]]))
    a3 = build_constants(build("A3"))
    forged += [
        a3.flip(a, b, one_sided=one) for a, b, _ in a3.nonzero_entries() for one in (False, True)
    ]
    return forged


@pytest.mark.parametrize("half", list(Half))
def test_blocked_remainder_check_matches_the_per_column_check(half, monkeypatch):
    failures = 0
    for bad in _forged_constants():
        expected = _columnwise_cancellation(bad, half)
        failures += expected is not None
        for budget in BUDGETS:
            monkeypatch.setattr(chevalley, "_PRODUCT_BUDGET", budget)
            assert _cancellation(bad, half) == expected
    assert failures > 10


def _per_class_failing(n, cls, p, q, val):
    # the Bianchi closure one class at a time, as it ran before the blocked
    # kernel: the oracle for the failing classes
    ptr = np.searchsorted(cls, np.arange(n + 1))
    failing = set()
    for a in range(n):
        t = slice(ptr[a], ptr[a + 1])
        x, right, v = np.r_[p[t], q[t]], np.r_[q[t], p[t]], np.r_[val[t], -val[t]]
        j, k = runs(ptr[right], ptr[right + 1])
        x, y, z = x[j], p[k], q[k]
        vals = v[j] * val[k]
        vals[(y < x) & (x < z)] *= -1
        vals[(x == y) | (x == z)] = 0
        lo, hi = np.minimum(x, y), np.maximum(x, z)
        if sum_by_key((lo * n + x + y + z - lo - hi) * n + hi, vals)[0].size:
            failing.add(a)
    return failing


def _bianchi_violations(system, monkeypatch):
    # check_bianchi's violations, the same under both budgets and with the
    # per-class kernel
    with monkeypatch.context() as m:
        m.setattr(obstruction, "_failing_classes", _per_class_failing)
        expected = check_bianchi(system).violations
    for budget in BUDGETS:
        with monkeypatch.context() as m:
            m.setattr(chevalley, "_PRODUCT_BUDGET", budget)
            assert check_bianchi(system).violations == expected
    return expected


def test_e8_build_system_memory_is_bounded():
    # one E8 half peaks at about 1.2 MB (numpy 2.4); the whole remainder
    # check in one block would take about 24 MB
    c = build_constants(build("E8"))
    c.bracket_terms()
    tracemalloc.start()
    try:
        build_system(c, Half.POSITIVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("other,apart", [
    (([1, 5, 9], [2, 2, 2]), None),
    (([1, 5, 9], [2, 3, 2]), 5),
    (([1, 6, 9], [2, 2, 2]), 5),
    (([1, 5], [2, 2]), 9),
    (([1, 5, 9, 11], [2, 2, 2, 1]), 11),
    (([], []), 1),
])
def test_first_apart_names_the_least_key_the_sums_do_not_share(other, apart):
    # the remainder check names the column of this key; a sum that is the
    # other's prefix parts at the longer one's next key
    keys, vals = np.array([1, 5, 9]), np.array([2, 2, 2])
    other_keys, other_vals = map(np.array, other)
    assert obstruction._first_apart(keys, vals, other_keys, other_vals) == apart
    assert obstruction._first_apart(other_keys, other_vals, keys, vals) == apart
