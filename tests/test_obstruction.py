"""Graded algebra laws, obstruction extraction, Bianchi closure, certification.

The graded-commutative algebra of the phi and psi generators lives here, as
Form: the oracle that the Bianchi messages are compared against.  The
package's FormalForm only holds and prints forms."""

import copy
import dataclasses
import hashlib
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from adelie import build, obstruction, root_vector
from adelie.chevalley import build_constants, runs, sum_by_key, verify_chevalley
from adelie.cli import main
from adelie.errors import (
    CancellationFailure,
    ConstructionFailure,
    IllegalType,
    IncompleteOracle,
    NotAnObstructionSystem,
    NotChevalleyConstants,
)
from adelie.obstruction import (
    FormalForm,
    _root_key,
    H2VanishVerdict,
    Half,
    ObstructionSystem,
    SolvabilityCertificate,
    build_system,
    certify_solvability,
    check_bianchi,
    form_text,
    system_text,
)
from adelie.verify import detect_tampering, half_h2_oracle
from test_chevalley import _reference_first_failure, _with_terms


def _merge_phis(a, b):
    """Concatenate two sorted odd blocks; None on a repeat, else (tuple, sign)."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = _root_key(a[i]), _root_key(b[j])
        if ka == kb:
            return None
        if ka < kb:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


class Form(FormalForm):
    """A FormalForm with the graded-commutative algebra: sums, products with
    the signs of odd generators, the differential and psi substitution.  The
    other operand may be any FormalForm."""

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Form(out)

    def __neg__(self):
        return Form({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + -Form(other.terms)

    def scale(self, k):
        return Form({m: k * v for m, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (pa, sa), va in self.terms.items():
            for (pb, sb), vb in other.terms.items():
                merged = _merge_phis(pa, pb)
                if merged is None:
                    continue
                phis, sign = merged
                key = (phis, tuple(sorted(sa + sb, key=_root_key)))
                out[key] = out.get(key, 0) + sign * va * vb
        return Form(out)

    def differential(self):
        """delta: phi_a -> psi_a, psi_a -> 0, with graded Leibniz signs."""
        out = {}
        for (phis, psis), coeff in self.terms.items():
            for i, c in enumerate(phis):
                key = (
                    phis[:i] + phis[i + 1 :],
                    tuple(sorted(psis + (c,), key=_root_key)),
                )
                out[key] = out.get(key, 0) + (-coeff if i % 2 else coeff)
        return Form(out)

    def substitute_psi(self, mapping):
        """Replace each psi_c by mapping[c] (even forms, so no sign budget)."""
        total = Form()
        for (phis, psis), coeff in self.terms.items():
            part = Form({(phis, ()): coeff})
            for c in psis:
                part = part * mapping.get(c, psi(*c))
            total = total + part
        return total


def phi(*c):
    return Form({((c,), ()): 1})


def psi(*c):
    return Form({((), (c,)): 1})


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
    assert form_text(FormalForm()) == "0"


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
    c = build_constants(build("A2"))
    pos = build_system(c, Half.POSITIVE).roots
    assert [r.coords for r in pos] == [(0, 1), (1, 0), (1, 1)]
    neg = build_system(c, Half.NEGATIVE).roots
    assert [r.coords for r in neg] == [(-1, 0), (0, -1), (-1, -1)]


@pytest.mark.parametrize("name", ["A4", "D5", "E6"])
@pytest.mark.parametrize("half", Half, ids=lambda h: h.value)
def test_a_system_holds_its_half_in_canonical_order(name, half):
    # every reader of system.roots (the certificate's requirements, the
    # rendered classes) reads the order build_system holds the forms in
    rs = build(name)
    system = build_system(build_constants(rs), half)
    roots = rs.positive_roots if half is Half.POSITIVE else [-a for a in rs.positive_roots]
    expected = sorted(roots, key=lambda a: _root_key(a.coords))
    assert system.roots == tuple(expected)
    assert system.roots is system.roots


def test_a_half_named_by_its_value_selects_that_half():
    # a value reaches the same half as its member at every door: "positive"
    # must not fall through to the negative forms or the chain-height oracle
    rs = build("A2")
    c = build_constants(rs)
    for half in Half:
        assert system_text(build_system(c, half.value)) == system_text(build_system(c, half))
    assert half_h2_oracle(rs, "positive")(rs.simple_roots[0]).source == "surface-descent"
    assert half_h2_oracle(rs, "negative")(-rs.simple_roots[0]).source == "cotangent-height"


@pytest.mark.parametrize("bad", ["up", None, 1], ids=repr)
def test_a_value_that_names_no_half_is_refused_at_each_door(bad):
    rs = build("A2")
    c = build_constants(rs)
    for door in (lambda: build_system(c, bad), lambda: half_h2_oracle(rs, bad)):
        with pytest.raises(IllegalType, match="unknown half"):
            door()


def test_a_system_reads_its_half_where_it_is_made():
    # a system replaced with half="positive" once stored the str, and
    # system_text and check_bianchi raised a bare AttributeError on it
    system = build_system(build_constants(build("A2")), Half.POSITIVE)
    named = dataclasses.replace(system, half="positive")
    assert named.half is Half.POSITIVE
    assert system_text(named) == system_text(system)
    assert check_bianchi(named).ok
    with pytest.raises(IllegalType, match="unknown half 'up'"):
        dataclasses.replace(system, half="up")


@pytest.mark.parametrize("field", ["constants", "half", "roots", "obstructions"])
def test_no_field_of_a_system_can_be_rebound_or_deleted(field):
    # system.half = "positive" once stored the str, and system_text and
    # check_bianchi raised a bare AttributeError on it
    system = build_system(build_constants(build("A2")), Half.POSITIVE)
    value = getattr(system, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(system, field, "positive" if field == "half" else value)
    with pytest.raises(AttributeError):
        delattr(system, field)
    assert getattr(system, field) is value and check_bianchi(system).ok


def test_system_a2_positive():
    sys = build_system(build_constants(build("A2")), Half.POSITIVE)
    e = sys.obstructions
    assert e[(0, 1)] == psi(0, 1)
    assert e[(1, 0)] == psi(1, 0)
    assert e[(1, 1)] == psi(1, 1) + phi(0, 1) * phi(1, 0)
    assert check_bianchi(sys).ok


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
    assert check_bianchi(sys).ok


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
    # a copy whose cached bracket table has the terms of cell (i, j), as
    # (targets, coefficients), replaced by cell(old targets, old coefficients)
    row, col, tgt, val = c.bracket_table
    at = (row == i) & (col == j)
    t, v = map(np.asarray, cell(tgt[at], val[at]))
    i, j = np.full(len(t), i), np.full(len(t), j)
    return _with_terms(c, np.r_[row[~at], i], np.r_[col[~at], j], np.r_[tgt[~at], t],
                       np.r_[val[~at], v])


def test_cartan_column_not_divisible():
    # [x_a1, h_1] = -2 x_a1 becomes -3 x_a1, so psi_a1 would appear with -3
    # in column h_1 where E_a1 must come out times -(a1, a1) = -2; the gate
    # rejects the table before any column is expanded
    c = build_constants(build("A2"))
    bad = _with_bracket_cell(c, _x(c.system, 1, 0), 0, lambda t, v: (t, np.r_[-3, v[1:]]))
    with pytest.raises(CancellationFailure) as exc:
        build_system(bad, Half.POSITIVE)
    assert str(exc.value) == "A2 positive: jacobi fails on basis triple (0,1,3)"
    assert _reference_first_failure(bad)[1] == (0, 1, 3)


def _with_simple_roots_swapped(c, i, j):
    # a copy whose bracket table relabels the basis by x_{a_i} <-> x_{a_j}
    # and x_{-a_i} <-> x_{-a_j}, in targets, rows and columns: the same Lie
    # algebra, so it passes the gate, with root labels that no longer match
    # the Cartan relations
    rs = c.system
    perm = np.arange(rs.rank + len(rs.all_roots))
    for sign in (1, -1):
        u, v = (_x(rs, *(sign * int(t == k) for t in range(rs.rank))) for k in (i, j))
        perm[u], perm[v] = v, u
    row, col, tgt, val = c.bracket_table
    return _with_terms(c, perm[row], perm[col], perm[tgt], val)


def test_a_relabelled_table_fails_the_exact_division():
    # x_{a1} <-> x_{a2} on A2 passes the gate, but [x_{a1}, h_1] now has the
    # coefficient -(a2, a1) = 1 that x_{a2} had, so the column h_1 holds
    # psi_{a1} with 1, which -(a1, a1) = -2 does not divide
    bad = _with_simple_roots_swapped(build_constants(build("A2")), 0, 1)
    rep = verify_chevalley(bad)
    assert rep.ok and rep.checked == 128
    for half, message in [
        (Half.POSITIVE, "A2 positive: column h1 is not divisible by -2 at class {1,0|root}"),
        (Half.NEGATIVE, "A2 negative: column h1 is not divisible by 2 at class {-1,0|root}"),
    ]:
        with pytest.raises(CancellationFailure) as exc:
            build_system(bad, half)
        assert str(exc.value) == message
    assert detect_tampering(bad) == (
        True, "positive build: A2 positive: column h1 is not divisible by -2 at class {1,0|root}"
    )


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_a_relabelled_table_passes_the_division_and_fails_the_closed_formula(name):
    # x_{a1} <-> x_{a3}: every Cartan column divides, and the closed formula
    # over the sign table catches the forms the relabelled table gives
    bad = _with_simple_roots_swapped(build_constants(build(name)), 0, 2)
    assert verify_chevalley(bad).ok
    for half in Half:
        with pytest.raises(ConstructionFailure) as exc:
            build_system(bad, half)
        assert str(exc.value) == (
            f"{name} {half.value}: the closed quadratic formula disagrees "
            "with the double expansion of D^2"
        )


def test_root_column_does_not_reduce():
    # negating [x_{a1+a2}, x_{-a2}] leaves the Cartan columns, and so the
    # extracted E_a, untouched; D^2 fails to reduce on a root column, which
    # is the Jacobi identity failing on a triple that the gate sweeps
    c = build_constants(build("A2"))
    rs = c.system
    bad = _with_bracket_cell(c, _x(rs, 1, 1), _x(rs, 0, -1), lambda t, v: (t, -v))
    with pytest.raises(CancellationFailure) as exc:
        build_system(bad, Half.POSITIVE)
    triple = _reference_first_failure(bad)[1]
    assert str(exc.value) == "A2 positive: jacobi fails on basis triple ({},{},{})".format(*triple)


def test_the_gated_table_cannot_be_edited_in_place():
    # build_system trusts the gate's verdict cached on the instance, so the
    # cells it was given on cannot change under it
    c = dataclasses.replace(build_constants(build("A2")))
    assert c.report.ok
    row, col, tgt, val = c.bracket_table
    with pytest.raises(ValueError):
        val[(row == _x(c.system, 1, 1)) & (col == _x(c.system, 0, -1))] *= -1
    with pytest.raises(ValueError):
        tgt[0] = 1


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
    roots = build_system(c, Half.POSITIVE).roots
    closed = {r.coords: psi(*r.coords) for r in roots}
    for i, b in enumerate(roots):
        for g in roots[i + 1 :]:
            if rs.is_root(b + g):
                closed[(b + g).coords] = closed[(b + g).coords] + (
                    phi(*b.coords) * phi(*g.coords)
                ).scale(bad.n(b, g))
    forged = ObstructionSystem(bad, Half.POSITIVE, closed)
    assert _bianchi_violations(forged, monkeypatch) == []  # the blind spot
    assert not verify_chevalley(bad).ok  # the covering check


def _formal_bianchi(system):
    # the residual as a FormalForm: delta E_a with psi_c -> psi_c - E_c
    mapping = {c: psi(*c) - form for c, form in system.obstructions.items()}
    out = []
    for alpha in system.roots:
        resid = Form(system.obstructions[alpha.coords].terms).differential()
        resid = resid.substitute_psi(mapping)
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
    # holds the forms out of the canonical order
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
        forms = {**system.obstructions, c: FormalForm(terms)}
        classes = list(forms)
        if i % 2:
            rng.shuffle(classes)
        forged = dataclasses.replace(system, obstructions={a: forms[a] for a in classes})
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
    forms[(1, 1, 1)] = Form(forms[(1, 1, 1)].terms) - Form({mono: 2 * forms[(1, 1, 1)].terms[mono]})
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
        form = extra + forms[(1, 1)]
        forged = dataclasses.replace(system, obstructions={**forms, (1, 1): form})
        assert check_bianchi(forged).checked == 3
        assert _bianchi_violations(forged, monkeypatch) == [
            f"class {{1,1|root}}: {form_text(form)} is not psi + phi phi"
        ]


def test_a_system_is_read_from_its_forms_alone():
    # the roots are read from the forms' keys: no field beside them can
    # disagree with them
    system = build_system(build_constants(build("A2")), Half.POSITIVE)
    assert [f.name for f in dataclasses.fields(ObstructionSystem)] == [
        "constants", "half", "obstructions",
    ]
    assert [a.coords for a in system.roots] == list(system.obstructions)
    with pytest.raises(TypeError):
        dataclasses.replace(system, roots=system.roots[:1])


@pytest.mark.parametrize("make", [
    lambda forms: None,
    lambda forms: list(forms.items()),
    lambda forms: {(1, 1): None},
    lambda forms: {"ab": forms[(1, 0)]},
], ids=["none", "list-of-pairs", "value-not-a-form", "str-key"])
def test_forms_that_are_not_a_dict_of_forms_are_refused_where_the_system_is_made(make):
    # each once built a system on which check_bianchi or system_text raised a
    # bare TypeError or AttributeError, or system_text rendered "ab" as (a,b)
    system = build_system(build_constants(build("A2")), Half.POSITIVE)
    forms = make(system.obstructions)
    with pytest.raises(NotAnObstructionSystem):
        dataclasses.replace(system, obstructions=forms)
    with pytest.raises(NotAnObstructionSystem):
        ObstructionSystem(system.constants, Half.POSITIVE, forms)


@pytest.mark.parametrize("constants", [None, "A2", "x"], ids=["none", "root-system", "str"])
def test_constants_that_are_not_a_table_are_refused_where_the_system_is_made(constants):
    # each once built a system on which check_bianchi, system_text and
    # certify_solvability raised a bare AttributeError
    system = build_system(build_constants(build("A2")), Half.POSITIVE)
    constants = build(constants) if constants == "A2" else constants
    for forms in ({}, system.obstructions):
        with pytest.raises(NotChevalleyConstants):
            ObstructionSystem(constants, "positive", forms)
    with pytest.raises(NotChevalleyConstants):
        dataclasses.replace(system, constants=constants)


@pytest.mark.parametrize("key", [
    1, "ab", (), (((1, 0),),), ((1, 0), ()), ((("a",),), ()), (((1.0, 0),), ()),
    (((1, 0),), ""), (((1, 0),), (), ()),
], ids=repr)
def test_form_keys_that_are_not_phi_psi_pairs_are_refused_where_the_form_is_made(key):
    # each built a form whose repr then raised a bare TypeError or
    # ValueError, or printed 1.0 as a coordinate
    with pytest.raises(NotAnObstructionSystem, match="is not a \\(phis, psis\\) pair$"):
        FormalForm({((), ((0, 1),)): 1, key: 2})


def test_form_text_refuses_what_is_not_a_form():
    # None once raised a bare AttributeError
    with pytest.raises(NotAnObstructionSystem, match="^None is not a FormalForm$"):
        form_text(None)


def test_a_system_without_its_forms_renders_and_closes(monkeypatch):
    # a dict without every class of the half once raised a bare KeyError in
    # check_bianchi and system_text
    system = build_system(build_constants(build("A3")), Half.POSITIVE)
    empty = dataclasses.replace(system, obstructions={})
    assert system_text(empty) == "# obstruction system A3 positive\n"
    assert (check_bianchi(empty).ok, check_bianchi(empty).checked) == (True, 0)
    # no class, so no run of classes: the closure's sums are empty
    assert _bianchi_violations(empty, monkeypatch) == []
    forms = {a: form for a, form in system.obstructions.items() if a != (1, 1, 0)}
    forged = dataclasses.replace(system, obstructions=forms)
    assert system_text(forged).splitlines() == [
        line for line in system_text(system).splitlines() if not line.startswith("(1,1,0)")
    ]
    rep = check_bianchi(forged)
    # E_{1,1,1} holds phi[1,1,0], the generator of no class of the system
    assert rep.checked == 5
    assert rep.violations == [
        f"class {{1,1,1|root}}: {form_text(forms[(1, 1, 1)])} is not psi + phi phi"
    ]


def test_an_extra_class_is_rendered_checked_and_reported(monkeypatch):
    system = build_system(build_constants(build("A3")), Half.POSITIVE)
    extra = psi(2, 1, 1) + phi(1, 0, 0) * phi(1, 1, 1)
    forged = dataclasses.replace(system, obstructions={**system.obstructions, (2, 1, 1): extra})
    lines = system_text(forged).splitlines()
    assert lines[:-1] == system_text(system).splitlines()
    assert lines[-1] == "(2,1,1): psi[2,1,1] + phi[1,0,0]phi[1,1,1]"
    assert check_bianchi(forged).checked == 7
    assert _bianchi_violations(forged, monkeypatch) == _formal_bianchi(forged) == [
        "class {2,1,1|root}: residual -phi[0,0,1]phi[1,0,0]phi[1,1,0]"
    ]


def test_a_certificate_reads_its_verdict_from_its_verdicts():
    a = root_vector(1, 1)
    yes, no = (H2VanishVerdict(root=a, vanishes=v, source="test") for v in (True, False))
    assert [f.name for f in dataclasses.fields(SolvabilityCertificate)] == [
        "verdicts", "requirements",
    ]
    assert SolvabilityCertificate((), ()).solvable
    assert SolvabilityCertificate((yes, yes), (a,)).solvable
    assert not SolvabilityCertificate((yes, no), ()).solvable


def test_certification_flow():
    sys = build_system(build_constants(build("A2")), Half.NEGATIVE)

    cert = certify_solvability(
        sys, lambda a: H2VanishVerdict(root=a, vanishes=True, source="test")
    )
    assert cert.solvable
    assert len(cert.verdicts) == 1
    assert [r.coords for r in cert.requirements] == [(-1, 0), (0, -1)]

    cert = certify_solvability(
        sys,
        lambda a: H2VanishVerdict(root=a, vanishes=False, source="test"),
    )
    assert not cert.solvable
    assert cert.verdicts[0].source == "test"

    # an oracle answers an H2VanishVerdict; None and a bool are refused
    for answer in (None, True, False):
        with pytest.raises(IncompleteOracle, match=f"oracle answered {answer} for"):
            certify_solvability(sys, lambda a: answer)
    # and an oracle that is not callable, which once raised a bare TypeError
    with pytest.raises(IncompleteOracle, match="^None is not an oracle$"):
        certify_solvability(sys, None)


def test_system_text_stable_and_anchored():
    c = build_constants(build("A2"))
    t1 = system_text(build_system(c, Half.POSITIVE))
    t2 = system_text(build_system(c, Half.POSITIVE))
    assert t1 == t2
    assert "# obstruction system A2 positive" in t1
    assert "(1,1): psi[1,1] + phi[0,1]phi[1,0]" in t1


def test_system_text_is_form_text_form_by_form_on_a_forged_system():
    # system_text orders every form by the places of the system's generators;
    # form_text by those of the one form.  The forged forms list their terms
    # backwards, and one holds generators from outside the half
    c = build_constants(build("A3"))
    system = build_system(c, Half.NEGATIVE)
    outside = [a.coords for a in c.system.positive_roots]
    forms = {
        a: FormalForm(dict(reversed(form.terms.items())))
        for a, form in system.obstructions.items()
    }
    top = system.roots[-1].coords
    forms[top] = FormalForm({
        **forms[top].terms,
        ((outside[0], outside[-1], top), (outside[2],)): -3,
        ((), (outside[1], top)): 2,
        ((), ()): 5,
    })
    forged = ObstructionSystem(c, Half.NEGATIVE, forms)
    lines = system_text(forged).splitlines()
    assert lines[0] == "# obstruction system A3 negative"
    for line, a in zip(lines[1:], system.roots, strict=True):
        assert line == f"({','.join(map(str, a.coords))}): {form_text(forms[a.coords])}"
    assert lines[1:] != system_text(system).splitlines()[1:]
    # as the renderer that sorted each term by its _root_key tuples wrote it
    assert form_text(forms[top]) == (
        "5*1 + 2*psi[0,1,0]psi[-1,-1,-1] + psi[-1,-1,-1] + phi[-1,0,0]phi[0,-1,-1]"
        " - phi[0,0,-1]phi[-1,-1,0] - 3*psi[1,0,0]phi[0,0,1]phi[1,1,1]phi[-1,-1,-1]"
    )


def _hand_built():
    # the A3 forms in reverse order, E_{1,1,1} with a negated coefficient
    # and E_{1,1,0} with a lone phi: one residual and one misshapen form
    c = build_constants(build("A3"))
    forms = dict(list(build_system(c, Half.POSITIVE).obstructions.items())[::-1])
    mono = next(m for m in forms[(1, 1, 1)].terms if m[0])
    forms[(1, 1, 1)] = Form(forms[(1, 1, 1)].terms) - Form({mono: 2 * forms[(1, 1, 1)].terms[mono]})
    forms[(1, 1, 0)] = Form(forms[(1, 1, 0)].terms) + phi(1, 0, 0)
    return ObstructionSystem(c, Half.POSITIVE, forms)


@pytest.mark.parametrize("make", [
    lambda: build_system(build_constants(build("A3")), Half.POSITIVE), _hand_built,
], ids=["built", "hand-built"])
def test_a_system_and_its_forms_refuse_writes(make):
    # system.obstructions[(1, 1)] = None once made check_bianchi and
    # system_text raise a bare AttributeError: the forms and their terms are
    # read-only, as a LieElement's mappings are
    system = make()
    forms = system.obstructions
    form = forms[(1, 1, 1)]
    before = repr(form), check_bianchi(system).violations, system_text(system)
    with pytest.raises(TypeError):
        forms[(1, 1, 1)] = None
    with pytest.raises(TypeError):
        del forms[(1, 1, 1)]
    with pytest.raises(TypeError):
        form.terms[(), ((1, 1, 1),)] = 2
    with pytest.raises(TypeError):
        del form.terms[next(iter(form.terms))]
    assert (repr(form), check_bianchi(system).violations, system_text(system)) == before
    assert system.obstructions[(1, 1, 1)] is form
    assert bool(before[1]) == (make is _hand_built)


@pytest.mark.parametrize("make", [
    lambda: build_system(build_constants(build("A3")), Half.POSITIVE), _hand_built,
], ids=["built", "hand-built"])
def test_a_system_and_its_forms_pickle_and_copy(make):
    # their read-only mappings are rebuilt, not pickled
    system = make()
    for twin in (copy.deepcopy(system), pickle.loads(pickle.dumps(system))):
        assert dict(twin.obstructions) == dict(system.obstructions)
        assert system_text(twin) == system_text(system)
        assert check_bianchi(twin).violations == check_bianchi(system).violations
        form = twin.obstructions[(1, 1, 1)]
        assert copy.copy(form) == form and type(pickle.loads(pickle.dumps(form))) is type(form)


def test_a_built_system_makes_its_forms_when_they_are_read(monkeypatch):
    # build_system hands its sorted term arrays to the system, and
    # check_bianchi and system_text read them: the forms are made once, at
    # their first read, and never on the command line's path
    made = []
    init = FormalForm.__init__

    def counted(self, terms=None):
        made.append(self)
        init(self, terms)

    monkeypatch.setattr(FormalForm, "__init__", counted)
    c = build_constants(build("E6"))
    for half in Half:
        made.clear()
        system = build_system(c, half)
        assert check_bianchi(system).ok
        system_text(system)
        assert (len(system.obstructions), len(made)) == (36, 0)
        forms = list(system.obstructions.values())
        assert forms == made and list(system.obstructions.values()) == made


def test_a_form_keyed_out_of_order_is_held_as_given_and_refused_by_shape(monkeypatch):
    # a phi phi key is canonically sorted: phi_b phi_a for phi_a phi_b is
    # rendered as it was given and reported by its shape
    system = build_system(build_constants(build("A2")), Half.POSITIVE)
    form = FormalForm({((), ((1, 1),)): 1, (((1, 0), (0, 1)), ()): -1})
    forged = dataclasses.replace(system, obstructions={**system.obstructions, (1, 1): form})
    assert forged.obstructions[(1, 1)] is form
    assert system_text(forged).splitlines()[-1] == "(1,1): psi[1,1] - phi[1,0]phi[0,1]"
    assert _bianchi_violations(forged, monkeypatch) == [
        "class {1,1|root}: psi[1,1] - phi[1,0]phi[0,1] is not psi + phi phi"
    ]


def test_a_coefficient_past_int64_is_held_exactly(monkeypatch):
    # the phi phi coefficients times 2**70 are held in an object array: the
    # forms read back as given, and the text and the residual stay exact
    system = build_system(build_constants(build("A3")), Half.POSITIVE)
    forms = {c: Form({m: v * 2**70 if m[0] else v for m, v in form.terms.items()})
             for c, form in system.obstructions.items()}
    mono = next(m for m in forms[(1, 1, 1)].terms if m[0])
    forms[(1, 1, 1)] = forms[(1, 1, 1)] - Form({mono: 2 * forms[(1, 1, 1)].terms[mono]})
    forged = ObstructionSystem(system.constants, Half.POSITIVE, forms)
    assert dict(forged.obstructions) == forms
    assert system_text(forged).splitlines()[1:] == [
        f"({','.join(map(str, a.coords))}): {form_text(forms[a.coords])}" for a in system.roots
    ]
    assert _bianchi_violations(forged, monkeypatch) == _formal_bianchi(forged) == [
        f"class {{1,1,1|root}}: residual {-2**141}*phi[0,0,1]phi[0,1,0]phi[1,0,0]"
    ]


def test_tables_and_systems_are_equal_by_identity_and_hash():
    # the fields hold arrays and a dict: value equality raised numpy's bare
    # ValueError, and hash a TypeError
    c = build_constants(build("A2"))
    a1, a2 = c.system.simple_roots
    system = build_system(c, Half.POSITIVE)
    assert c == c and c != c.flip(a1, a2)
    assert system == system and system != build_system(c, Half.POSITIVE)
    assert len({c, system, c, system}) == 2
    assert repr(c) == "ChevalleyConstants(system=RootSystem(A2))"
    assert repr(system) == f"ObstructionSystem(constants={c!r}, half={Half.POSITIVE!r})"


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


# cells that the clean table leaves empty, given the term 1 h_1: the stray
# term reaches the Jacobi sweep through the term lists, and build_system
# reports the sweep's first failing triple
@pytest.mark.parametrize("name,a,b", [
    ("A2", (1, 0), (1, 1)),
    ("A2", (0, 1), (0, 1)),
    ("A3", (1, 0, 0), (1, 1, 0)),
    ("A3", (0, 1, 1), (1, 1, 1)),
])
def test_a_term_in_an_empty_cell_reaches_both_readers(name, a, b):
    c = build_constants(build(name))
    rs = c.system
    i, j = _x(rs, *a), _x(rs, *b)
    row, col = c.bracket_table[:2]
    assert not ((row == i) & (col == j)).any()
    bad = _with_bracket_cell(c, i, j, lambda t, v: ([0], [1]))
    _, triple = _reference_first_failure(bad)
    violation = "jacobi fails on basis triple ({},{},{})".format(*triple)
    assert verify_chevalley(bad).violations == [violation]
    for half in Half:
        with pytest.raises(CancellationFailure) as exc:
            build_system(bad, half)
        assert str(exc.value) == f"{name} {half.value}: {violation}"


def _single_cell_corruptions(c):
    # every table that differs from c in one cell of its bracket table: each
    # stored term negated, zeroed, doubled or moved to the next target, and
    # each empty cell given the coefficient 1 on its padding target, x_a in
    # the cells of h_i and x_a, h_1 in the others
    row, col, tgt, val = c.bracket_table
    rank = c.system.rank
    dim = rank + len(c.system.all_roots)
    for i, j in np.ndindex(dim, dim):
        stored = np.flatnonzero((row == i) & (col == j))
        edits = [(m, val[m] * k, tgt[m]) for m in stored for k in (-1, 0, 2)]
        edits += [(m, val[m], (tgt[m] + 1) % dim) for m in stored]
        for m, coeff, target in edits:
            bad_tgt, bad_val = tgt.copy(), val.copy()
            bad_tgt[m], bad_val[m] = target, coeff
            yield _with_terms(c, row, col, bad_tgt, bad_val)
        if not stored.size:
            pad = max(i, j) if min(i, j) < rank <= max(i, j) else 0
            yield _with_terms(c, np.r_[row, i], np.r_[col, j], np.r_[tgt, pad], np.r_[val, 1])


def test_every_single_cell_corruption_fails_the_gate_on_both_halves():
    # the gate sweeps the Jacobi identity on every basis triple, which holds
    # D^2 = sum_a E_a ad(x_a) on every column: build_system reports its
    # first violation on either half, whichever rows the cell lies in
    tables = 0
    for name in ("A2", "A3"):
        for bad in _single_cell_corruptions(build_constants(build(name))):
            tables += 1
            rep = verify_chevalley(bad)
            assert not rep.ok
            for half in Half:
                with pytest.raises(CancellationFailure) as exc:
                    build_system(bad, half)
                assert str(exc.value) == f"{name} {half.value}: {rep.violations[0]}"
    assert tables == 815


def test_an_edited_report_reaches_neither_the_gate_nor_the_build():
    # report hands out a copy: clearing its violations once let the one-sided
    # flip pass verify_chevalley and reach the closed formula, which refused
    # it as an internal ConstructionFailure
    c = build_constants(build("A3"))
    a1, a2, _ = c.system.simple_roots
    bad = c.flip(a1, a2, one_sided=True)
    bad.report.violations.clear()
    assert verify_chevalley(bad).ok is False
    with pytest.raises(CancellationFailure, match=r"^A3 positive: "):
        build_system(bad, "positive")


def _per_class_failing(n, cls, p, q, val):
    # the Bianchi closure one class at a time: the oracle for the nonzero
    # closure sums of the one-pass kernel
    ptr = np.searchsorted(cls, np.arange(n + 1))
    found = [(np.zeros(0, dtype=np.int64), val[:0])]
    for a in range(n):
        t = slice(ptr[a], ptr[a + 1])
        x, right, v = np.r_[p[t], q[t]], np.r_[q[t], p[t]], np.r_[val[t], -val[t]]
        j, k = runs(ptr[right], ptr[right + 1])
        x, y, z = x[j], p[k], q[k]
        vals = v[j] * val[k]
        vals[(y < x) & (x < z)] *= -1
        vals[(x == y) | (x == z)] = 0
        lo, hi = np.minimum(x, y), np.maximum(x, z)
        found.append(sum_by_key(((a * n + lo) * n + x + y + z - lo - hi) * n + hi, vals))
    keys, sums = map(np.concatenate, zip(*found))
    return keys, sums


def _bianchi_violations(system, monkeypatch):
    # check_bianchi's violations, the same with the per-class kernel, and
    # with the closure's block down to one class a run and up to every class
    # in one run
    with monkeypatch.context() as m:
        m.setattr(obstruction, "_failing_classes", _per_class_failing)
        expected = check_bianchi(system).violations
    for block in (1, 2 ** 62):
        with monkeypatch.context() as m:
            m.setattr(obstruction, "BLOCK", block)
            assert check_bianchi(system).violations == expected
    assert check_bianchi(system).violations == expected
    return expected


# tracemalloc peaks with numpy 2.4: build_system about 0.3 MiB on an E8 half
# and 0.56 MiB on a D16 half, check_bianchi about 0.62 and 0.81 MiB.  With
# every Cartan column expanded and the whole closure in one pass they were
# 1.04 and 1.67 MiB on E8, 2.07 and 3.4 MiB on D16
OBSTRUCTION_PEAK_BOUNDS = {
    ("E8", "build_system"): 0.6 * 2 ** 20,
    ("E8", "check_bianchi"): 2 ** 20,
    ("D16", "build_system"): 2 ** 20,
    ("D16", "check_bianchi"): 1.5 * 2 ** 20,
}


@pytest.mark.parametrize("half", list(Half), ids=lambda h: h.value)
@pytest.mark.parametrize("name,stage", OBSTRUCTION_PEAK_BOUNDS)
def test_obstruction_memory_is_bounded(name, stage, half):
    # build_system expands only the Cartan column that each class is read
    # from, and check_bianchi closes a block of classes at a time
    c = build_constants(build(name))
    c.bracket_table
    system = build_system(c, half)
    run = {"build_system": lambda: build_system(c, half),
           "check_bianchi": lambda: check_bianchi(system)}[stage]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < OBSTRUCTION_PEAK_BOUNDS[name, stage]
