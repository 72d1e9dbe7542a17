"""Structure constants: support, signs, bracket relations, adjoint action."""

import dataclasses
import hashlib
from itertools import combinations

import numpy as np
import pytest

from adelie import build, root_vector
from adelie.chevalley import (
    ChevalleyConstants,
    LieElement,
    adjoint_matrix,
    basis_elements,
    bracket,
    build_constants,
    dump_constants,
    verify_chevalley,
)
from adelie.errors import ConstructionFailure, SystemMismatch

SMALL = ("A1", "A2", "A3", "D4")


def test_support_is_root_sums():
    c = build_constants(build("A2"))
    rs = c.system
    for a in rs.all_roots:
        for b in rs.all_roots:
            n = c.n(a, b)
            s = a + b
            if not s.is_zero() and rs.is_root(s):
                assert n in (-1, 1)
            else:
                assert n == 0


def test_generator_signs():
    # adjacent generator pairs pick up -1 in the order i < j, +1 reversed
    c = build_constants(build("A3"))
    rs = c.system
    a = rs.simple_roots
    assert c.n(a[0], a[1]) == -1
    assert c.n(a[1], a[0]) == 1
    assert c.n(a[1], a[2]) == -1
    assert c.n(a[0], a[2]) == 0  # not adjacent, sum not a root


@pytest.mark.parametrize("name", SMALL)
def test_rescale_invariant_products(name):
    # these sign products do not depend on any basis rescaling, so they pin
    # the construction against the defining bracket relations
    c = build_constants(build(name))
    rs = c.system
    for a in rs.all_roots:
        for b in rs.all_roots:
            if c.n(a, b):
                assert c.n(a, b) * c.n(b, a) == -1
                assert c.n(-a, -b) == -c.n(a, b)
                # h-part consistency: n_{b, -a-b} = n_{a, b}
                assert c.n(b, -(a + b)) == c.n(a, b)


def test_h_coeffs_are_root_coordinates():
    c = build_constants(build("D4"))
    rs = c.system
    for a in rs.all_roots:
        assert c.h_coeffs(a) == a.coords
    theta = rs.highest_root()
    x, y = LieElement.x(rs, theta), LieElement.x(rs, -theta)
    br = bracket(x, y, c)
    assert not br.roots
    assert br.cartan == {i: v for i, v in enumerate(theta.coords) if v}


def test_sl2_triples():
    for name in SMALL:
        c = build_constants(build(name))
        rs = c.system
        for a in rs.positive_roots:
            e, f = LieElement.x(rs, a), LieElement.x(rs, -a)
            h = bracket(e, f, c)
            assert bracket(h, e, c) == e.scale(2)
            assert bracket(h, f, c) == f.scale(-2)


def test_cartan_action():
    c = build_constants(build("A2"))
    rs = c.system
    a1 = rs.simple_roots[0]
    assert bracket(LieElement.h(rs, 0), LieElement.x(rs, a1), c) == LieElement.x(
        rs, a1
    ).scale(2)
    assert bracket(LieElement.h(rs, 1), LieElement.x(rs, a1), c) == LieElement.x(
        rs, a1
    ).scale(-1)
    assert bracket(LieElement.h(rs, 0), LieElement.h(rs, 1), c).is_zero()


def test_bracket_bilinear():
    c = build_constants(build("A2"))
    rs = c.system
    a1, a2 = rs.simple_roots
    x = LieElement.x(rs, a1) + LieElement.h(rs, 1).scale(3)
    y = LieElement.x(rs, a2) + LieElement.x(rs, -a1)
    lhs = bracket(x, y, c)
    rhs = (
        bracket(LieElement.x(rs, a1), LieElement.x(rs, a2), c)
        + bracket(LieElement.x(rs, a1), LieElement.x(rs, -a1), c)
        + bracket(LieElement.h(rs, 1), LieElement.x(rs, a2), c).scale(3)
        + bracket(LieElement.h(rs, 1), LieElement.x(rs, -a1), c).scale(3)
    )
    assert lhs == rhs
    with pytest.raises(SystemMismatch):
        bracket(x, LieElement.h(build("A3"), 0), c)


@pytest.mark.parametrize("name", SMALL + ("A5", "D5", "E6"))
def test_full_verification(name):
    rep = verify_chevalley(build_constants(build(name)))
    assert rep.ok, rep.violations
    assert rep.details["jacobi"] == "exhaustive"


def test_adjoint_matrix_shape_and_linearity():
    c = build_constants(build("A2"))
    rs = c.system
    dim = rs.rank + len(rs.all_roots)
    basis = basis_elements(c)
    for b in basis:
        assert adjoint_matrix(b, c).shape == (dim, dim)
    x, y = basis[2], basis[5]
    assert np.array_equal(
        adjoint_matrix(x + y.scale(4), c),
        adjoint_matrix(x, c) + 4 * adjoint_matrix(y, c),
    )


def test_adjoint_trace_and_killing():
    # Killing form via ad: trace(ad x_a ad x_{-a}) = 2 * dual Coxeter number
    c = build_constants(build("A2"))
    rs = c.system
    a1 = rs.simple_roots[0]
    m = adjoint_matrix(LieElement.x(rs, a1), c) @ adjoint_matrix(
        LieElement.x(rs, -a1), c
    )
    assert int(np.trace(m)) == 6  # 2 * h^c for A2


def test_flip_detected():
    c = build_constants(build("A2"))
    rs = c.system
    a1, a2 = rs.simple_roots
    bad = c.flip(a1, a2)
    rep = verify_chevalley(bad)
    assert not rep.ok  # the h-route Jacobi triples catch a consistent flip
    worse = c.flip(a1, a2, one_sided=True)
    rep2 = verify_chevalley(worse)
    assert any("antisymmetry" in str(v) for v in rep2.violations)


def test_flip_copy_brackets_with_its_own_table():
    # bracket_table is cached per instance, so a flipped copy does not reuse
    # the clean table, and bracket follows the copy's signs
    c = build_constants(build("A2"))
    rs = c.system
    a1, a2 = rs.simple_roots
    x1, x2 = LieElement.x(rs, a1), LieElement.x(rs, a2)
    clean = bracket(x1, x2, c)
    bad = c.flip(a1, a2)
    assert bad.bracket_table is not c.bracket_table
    assert bracket(x1, x2, bad) == clean.scale(-1)
    assert bracket(x1, x2, c) == clean


def test_dump_format():
    c = build_constants(build("A2"))
    text = dump_constants(c)
    lines = text.strip().split("\n")
    # six roots, each summing with four partners to a root or zero; zero-sum
    # pairs are absent, so 6*3 - 6 = 12 nonzero entries
    assert len(lines) == 12
    assert lines[0].count("|") == 2
    assert "1,0 | 0,1 | -1" in text


def test_construction_failure_path():
    # verification really does gate the table: corrupt one and re-verify
    c = build_constants(build("A2"))
    t = c.sign_table.copy()
    t[0, 1] = 0
    from adelie.chevalley import _verify_table

    broken = ChevalleyConstants(c.system, t, c.sum_index, c.negation)
    rep = _verify_table(broken)
    assert not rep.ok


# SHA-256 of the nonzero bracket-table entries, one "i,j,k,coeff" line each
# ([b_i, b_j] has coefficient coeff on b_k), sorted; recorded from the
# list-of-tuples table that the padded arrays replaced.
BRACKET_TABLE_SHA256 = {
    "A4": "71a27827484452c836ee8b793f673b349e1b04879fe8888022f8f6156e7d65cb",
    "D6": "19d8df4beeb0778b770fe6d6a68608e5fdd33fc3f79e75392bab7c53510721da",
    "E6": "a0418af3ed0678dc1fb24f6f404185f6a9aac030d197a3dc0405a0a168ee6e34",
    "E7": "4eba4d238e03c95088ce7a652b24f4ecdfb6b42b7c1bc55ac244fe7514dfc24f",
    "E8": "c9a29839f570ae908b80a803f9916dbf9816d93309912ea1dc947afee30a1cf7",
}


@pytest.mark.parametrize("name", sorted(BRACKET_TABLE_SHA256))
def test_bracket_table_is_pinned(name):
    targets, coeffs = build_constants(build(name)).bracket_table
    i, j, m = np.nonzero(coeffs)
    entries = sorted(zip(
        i.tolist(), j.tolist(), targets[i, j, m].tolist(), coeffs[i, j, m].tolist()
    ))
    text = "".join(f"{a},{b},{k},{v}\n" for a, b, k, v in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == BRACKET_TABLE_SHA256[name]


def _reference_jacobi_failure(c):
    # per-triple reference: the Jacobi sum through bracket() on basis elements,
    # each triple in the cyclic order [x, [y, z]] + [y, [z, x]] + [z, [x, y]]
    basis = basis_elements(c)
    for i, j, k in combinations(range(len(basis)), 3):
        x, y, z = basis[i], basis[j], basis[k]
        total = (
            bracket(x, bracket(y, z, c), c)
            + bracket(y, bracket(z, x, c), c)
            + bracket(z, bracket(x, y, c), c)
        )
        if not total.is_zero():
            return f"jacobi fails on basis triple ({i},{j},{k})"
    return None


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_jacobi_sweep_matches_the_per_triple_reference(name):
    c = build_constants(build(name))
    assert _reference_jacobi_failure(c) is None
    flips = [
        c.flip(a, b, one_sided=one)
        for a, b, _ in c.nonzero_entries()
        for one in (False, True)
    ]
    for bad in flips:
        found = [v for v in verify_chevalley(bad).violations if v.startswith("jacobi")]
        assert found == [_reference_jacobi_failure(bad)]


def _negating_cells(c, *cells):
    # a copy whose cached bracket table has the given cells negated
    targets, coeffs = c.bracket_table
    coeffs = coeffs.copy()
    for i, j in cells:
        coeffs[i, j] = -coeffs[i, j]
    copy = dataclasses.replace(c)
    copy.__dict__["bracket_table"] = (targets, coeffs)
    return copy


def _triple_class(rs, triple):
    if min(triple) < rs.rank:
        return "h"
    a, b, g = (rs.all_roots[i - rs.rank] for i in triple)
    if any((u + v).is_zero() for u, v in ((a, b), (b, g), (g, a))):
        return "cancelling pair"
    return "zero sum" if (a + b + g).is_zero() else "product identity"


# D4 basis indices: h_1..h_4 are 0..3; x_a4, x_a3, x_a2 are 4, 5, 6;
# x_{-a4} is 16 and x_{-a2-a4} is 20.  The messages were recorded from the
# per-triple Python sweep that the gather replaced.
@pytest.mark.parametrize("cells,message,kind", [
    # [h_1, x_a2] negated on one side only
    ([(0, 6)], "jacobi fails on basis triple (0,1,6)", "h"),
    # [x_a4, x_{-a4}] = h_a4 negated both ways
    ([(4, 16), (16, 4)], "jacobi fails on basis triple (4,6,16)", "cancelling pair"),
    # [x_a2, x_{-a2-a4}] negated both ways
    ([(6, 20), (20, 6)], "jacobi fails on basis triple (4,6,20)", "zero sum"),
    # [x_a4, x_a2] negated both ways
    ([(4, 6), (6, 4)], "jacobi fails on basis triple (4,5,6)", "product identity"),
])
def test_corrupted_bracket_cell_is_caught_in_each_triple_class(cells, message, kind):
    # the sign table stays clean, so only the Jacobi sweep can see these
    c = build_constants(build("D4"))
    rep = verify_chevalley(_negating_cells(c, *cells))
    assert rep.violations == [message]
    triple = tuple(int(i) for i in message[message.index("(") + 1:-1].split(","))
    assert _triple_class(c.system, triple) == kind
