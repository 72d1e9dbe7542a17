"""Structure constants: support, signs, bracket relations, adjoint action."""

import dataclasses
import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from adelie import RootSystem, build, chevalley, root_vector, weight_vector
from adelie.chevalley import (
    ChevalleyConstants,
    LieElement,
    adjoint_matrix,
    bracket,
    build_constants,
    dump_constants,
    runs,
    sum_by_key,
    verify_chevalley,
)
from adelie.cli import main
from adelie.errors import (
    BudgetExceeded,
    CoefficientOverflow,
    ConstructionFailure,
    IndexOutOfRange,
    NonIntegerCoordinate,
    NotARootClass,
    SystemMismatch,
)

SMALL = ("A1", "A2", "A3", "D4")


def _basis(rs):
    # h_1..h_r followed by x_a in canonical root order: the bracket table's indices
    return [LieElement.h(rs, i) for i in range(rs.rank)] + [LieElement.x(rs, a) for a in rs.all_roots]


def test_support_is_root_sums():
    c = build_constants(build("A2"))
    rs = c.system
    for a in rs.all_roots:
        for b in rs.all_roots:
            n = c.n(a, b)
            s = a + b
            if rs.is_root(s):  # 0 is no root
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


def test_build_constants_refuses_a_system_past_the_packed_jacobi_keys():
    # RootSystem admits A35, past build's cap; its dimension 35 * 37 = 1295 is
    # past the dim < 1291 of the packed Jacobi keys, so the gate refuses it
    with pytest.raises(BudgetExceeded, match="dimension 1295 "):
        build_constants(RootSystem("A", 35))
    assert build_constants.cache_info().maxsize == 33


@pytest.mark.parametrize("kind,dim", [("A", 4224), ("D", 8128)])
def test_build_constants_refuses_a_system_past_the_keys_before_its_tables(kind, dim):
    # the refusal came from the gate, after the n_roots ** 2 sum and sign
    # tables were built: D64 took 6.7 s and peaked at 610 MB, A64 1.35 s
    rs = RootSystem(kind, 64)
    message = f"^{kind}64: dimension {dim} is past the packed Jacobi keys$"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=message):
            build_constants(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 2 ** 20


def test_the_sweep_keeps_its_own_key_guard():
    # a table built by hand reaches the gate without build_constants' check
    rs = RootSystem("A", 35)
    n_roots = len(rs.all_roots)
    c = ChevalleyConstants(rs, np.zeros((n_roots, n_roots), dtype=np.int8),
                           np.full((n_roots, n_roots), n_roots, dtype=np.int32))
    with pytest.raises(BudgetExceeded, match="^A35: dimension 1295 is past the packed Jacobi keys$"):
        c.report


def test_sl2_triples():
    for name in SMALL:
        c = build_constants(build(name))
        rs = c.system
        for a in rs.positive_roots:
            e, f = LieElement.x(rs, a), LieElement.x(rs, -a)
            h = bracket(e, f, c)
            # [x_a, x_-a] = h_a, whose coefficients on h_1..h_r are a's coordinates
            assert not h.roots
            assert h.cartan == {i: v for i, v in enumerate(a.coords) if v}
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
    assert bracket(LieElement.h(rs, 0), LieElement.h(rs, 1), c) == LieElement(rs)


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
    assert x.scale(0) == LieElement(rs)
    with pytest.raises(SystemMismatch):
        bracket(x, LieElement.h(build("A3"), 0), c)
    with pytest.raises(SystemMismatch):
        x + LieElement.h(build("A3"), 0)


@pytest.mark.parametrize("i", [-1, 2, 5, 0.5])
def test_a_cartan_index_out_of_range_is_refused(i):
    # numpy would read h_{-1} as the last basis element and h_5 of A2 as a
    # root vector, and a search for h_0.5 among the rows finds h_2; h refuses
    # the index where the element is made, and an element built from its
    # fields still meets the check of bracket and adjoint_matrix
    c = build_constants(build("A2"))
    rs = c.system
    bad, h1 = LieElement(rs, cartan={i: 1}), LieElement.h(rs, 0)
    for call in (lambda: LieElement.h(rs, i), lambda: bracket(bad, h1, c),
                 lambda: bracket(h1, bad, c), lambda: adjoint_matrix(bad, c)):
        with pytest.raises(IndexOutOfRange, match=f"Cartan index {i} outside 0..1"):
            call()


@pytest.mark.parametrize("key", [(2, 0), (1, -1), (0, 0), (1, 0, 0)])
def test_a_root_key_that_is_not_a_root_is_refused(key):
    c = build_constants(build("A2"))
    rs = c.system
    bad, h1 = LieElement(rs, roots={key: 1}), LieElement.h(rs, 0)
    for call in (lambda: bracket(bad, h1, c), lambda: bracket(h1, bad, c),
                 lambda: adjoint_matrix(bad, c)):
        with pytest.raises(NotARootClass, match="is not a root of A2"):
            call()


def test_x_of_a_weight_off_the_root_lattice_is_not_a_root():
    with pytest.raises(NotARootClass, match=r"\{1,0\|weight\} is not a root of A2"):
        LieElement.x(build("A2"), weight_vector(1, 0))


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_bracket_of_basis_vectors_is_a_column_of_the_adjoint_matrix(name):
    # bracket reads single cells of the table, adjoint_matrix whole rows
    c = build_constants(build(name))
    basis = _basis(c.system)
    for x in basis:
        m = adjoint_matrix(x, c)
        for j, y in enumerate(basis):
            column = np.zeros(len(basis), dtype=np.int64)
            for k, v in chevalley._indexed(bracket(x, y, c), c):
                column[k] = v
            assert np.array_equal(column, m[:, j])


def test_e8_bracket_of_two_basis_vectors_builds_no_dense_matrix():
    # ad(x) alone would be 248 x 248 int64, 481 KB
    c = build_constants(build("E8"))
    rs = c.system
    a1, a3 = rs.simple_roots[0], rs.simple_roots[2]
    x, y = LieElement.x(rs, a1), LieElement.x(rs, a3)
    expected = LieElement.x(rs, a1 + a3).scale(c.n(a1, a3))
    assert bracket(x, y, c) == expected
    tracemalloc.start()
    try:
        assert bracket(x, y, c) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


@pytest.mark.parametrize("name", SMALL + ("A5", "D5", "E6"))
def test_full_verification(name):
    rep = verify_chevalley(build_constants(build(name)))
    assert rep.ok, rep.violations
    assert rep.details["jacobi"] == "exhaustive"


def test_adjoint_matrix_shape_and_linearity():
    c = build_constants(build("A2"))
    rs = c.system
    dim = rs.rank + len(rs.all_roots)
    basis = _basis(c.system)
    for b in basis:
        assert adjoint_matrix(b, c).shape == (dim, dim)
    x, y = basis[2], basis[5]
    assert np.array_equal(
        adjoint_matrix(x + y.scale(4), c),
        adjoint_matrix(x, c) + 4 * adjoint_matrix(y, c),
    )


def test_bracket_is_exact_past_int64():
    # [2^k h_1, x_a1] = 2^(k + 1) x_a1 lies past int64 for both k
    rs = build("A2")
    c = build_constants(rs)
    x = LieElement.x(rs, rs.simple_roots[0])
    for k in (62, 70):
        assert bracket(LieElement.h(rs, 0).scale(2 ** k), x, c) == x.scale(2 ** (k + 1))


def test_adjoint_matrix_refuses_coefficients_past_int64():
    # |coefficients| 2^k times the table's largest |coefficient| 2 passes
    # 2^63 - 1 at k = 62, and 2^70 does not fit int64 at all
    rs = build("A2")
    c = build_constants(rs)
    j = rs.rank + rs.root_order_index(rs.simple_roots[0])
    assert adjoint_matrix(LieElement.h(rs, 0).scale(2 ** 61), c)[j, j] == 2 ** 62
    for k in (62, 70):
        with pytest.raises(CoefficientOverflow, match="may leave int64") as exc:
            adjoint_matrix(LieElement.h(rs, 0).scale(2 ** k), c)
        assert isinstance(exc.value, OverflowError)


@pytest.mark.parametrize("k", [1.5, Fraction(3, 2)], ids=["float", "Fraction"])
def test_a_non_integer_coefficient_is_refused(k):
    # the int64 adjoint matrix would hold -1 where [1.5 h_1, x_a2] is
    # -1.5 x_a2, and bracket would give a float coefficient
    rs = build("A2")
    c = build_constants(rs)
    x, h = LieElement.x(rs, rs.simple_roots[0]), LieElement.h(rs, 0).scale(k)
    for call in (lambda: adjoint_matrix(h, c), lambda: bracket(h, x, c), lambda: bracket(x, h, c)):
        with pytest.raises(NonIntegerCoordinate, match="coefficient that is not an integer") as exc:
            call()
        assert isinstance(exc.value, TypeError)


def test_numpy_integer_coefficients_stay_exact():
    rs = build("A2")
    c = build_constants(rs)
    x, h = LieElement.x(rs, rs.simple_roots[0]), LieElement.h(rs, 0)
    image = bracket(h.scale(np.int64(3)), x, c)
    assert image == x.scale(6)
    assert all(type(v) is int for v in image.roots.values())
    assert np.array_equal(adjoint_matrix(h.scale(np.int8(3)), c), 3 * adjoint_matrix(h, c))


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


@pytest.mark.parametrize("field", ["system", "sign_table", "sum_index"])
def test_no_field_of_the_constants_can_be_rebound_or_deleted(field):
    # the cached report is the verdict on these fields: each rebinding and each
    # deletion is refused, as FrozenInstanceError, an AttributeError
    c = build_constants(build("A2"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(c, field, getattr(build_constants(build("A3")), field))
    with pytest.raises(AttributeError):
        delattr(c, field)
    assert {f.name for f in dataclasses.fields(c)} == {"system", "sign_table", "sum_index"}


def test_a_refused_rebinding_leaves_the_cached_constants_as_they_were():
    c = build_constants(build("A2"))
    before = dump_constants(c)
    a1, a2 = c.system.simple_roots
    with pytest.raises(AttributeError):
        c.sign_table = c.flip(a1, a2, one_sided=True).sign_table
    again = build_constants(build("A2"))
    assert again is c and dump_constants(again) == before
    assert verify_chevalley(again).ok


def test_flip_and_replace_build_new_constants_with_their_own_report():
    c = build_constants(build("A2"))
    a1, a2 = c.system.simple_roots
    flipped, replaced = c.flip(a1, a2, one_sided=True), dataclasses.replace(c)
    assert c.report.ok and replaced.report.ok and not flipped.report.ok
    assert len({id(x.report) for x in (c, flipped, replaced)}) == 3
    assert replaced.sign_table is c.sign_table


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
    broken = ChevalleyConstants(c.system, t, c.sum_index)
    rep = verify_chevalley(broken)
    assert not rep.ok


def test_the_gated_tables_cannot_be_edited_in_place():
    # a one-sided sign flip made in place after the gate ran would keep its
    # cached verdict: the closed formula reads only (a2, a1) of this pair
    cached = build_constants(build("A2"))
    c = dataclasses.replace(cached)
    assert c.report.ok
    a1, a2 = (c.system.root_order_index(a) for a in c.system.simple_roots)
    for constants in (c, cached):
        with pytest.raises(ValueError):
            constants.sign_table[a1, a2] *= -1
        with pytest.raises(ValueError):
            constants.sum_index[a1, a2] = 0
    assert verify_chevalley(c.flip(*c.system.simple_roots, one_sided=True)).ok is False


# SHA-256 of the nonzero bracket-table entries, one "i,j,k,coeff" line each
# ([b_i, b_j] has coefficient coeff on b_k), sorted; recorded from the
# list-of-tuples table, before padded arrays and then the term lists replaced it.
BRACKET_TABLE_SHA256 = {
    "A4": "71a27827484452c836ee8b793f673b349e1b04879fe8888022f8f6156e7d65cb",
    "D6": "19d8df4beeb0778b770fe6d6a68608e5fdd33fc3f79e75392bab7c53510721da",
    "E6": "a0418af3ed0678dc1fb24f6f404185f6a9aac030d197a3dc0405a0a168ee6e34",
    "E7": "4eba4d238e03c95088ce7a652b24f4ecdfb6b42b7c1bc55ac244fe7514dfc24f",
    "E8": "c9a29839f570ae908b80a803f9916dbf9816d93309912ea1dc947afee30a1cf7",
}


@pytest.mark.parametrize("name", sorted(BRACKET_TABLE_SHA256))
def test_bracket_table_is_pinned(name):
    table = build_constants(build(name)).bracket_table
    entries = list(zip(*(x.tolist() for x in table)))
    assert entries == sorted(entries)  # cell order
    text = "".join(f"{a},{b},{k},{v}\n" for a, b, k, v in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == BRACKET_TABLE_SHA256[name]


def _reference_first_failure(c):
    # per-triple reference: the Jacobi sum through bracket() on basis elements,
    # each triple in the cyclic order [x, [y, z]] + [y, [z, x]] + [z, [x, y]];
    # returns the 1-based lexicographic position and the first failing triple
    basis = _basis(c.system)
    for position, (i, j, k) in enumerate(combinations(range(len(basis)), 3), 1):
        x, y, z = basis[i], basis[j], basis[k]
        total = (
            bracket(x, bracket(y, z, c), c)
            + bracket(y, bracket(z, x, c), c)
            + bracket(z, bracket(x, y, c), c)
        )
        if total != LieElement(c.system):
            return position, (i, j, k)
    return None


def _jacobi_message(triple):
    return "jacobi fails on basis triple ({},{},{})".format(*triple)


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_jacobi_sweep_matches_the_per_triple_reference(name):
    c = build_constants(build(name))
    assert _reference_first_failure(c) is None
    flips = [
        c.flip(a, b, one_sided=one)
        for a, b, _ in c.nonzero_entries()
        for one in (False, True)
    ]
    for bad in flips:
        found = [v for v in verify_chevalley(bad).violations if v.startswith("jacobi")]
        assert found == [_jacobi_message(_reference_first_failure(bad)[1])]


def _with_terms(c, row, col, tgt, val):
    # a copy of c whose cached bracket table holds the given terms, those
    # with coefficient 0 dropped, sorted into cell order
    keep = np.flatnonzero(val)
    order = keep[np.lexsort((tgt[keep], col[keep], row[keep]))]
    copy = dataclasses.replace(c)
    copy.__dict__["bracket_table"] = tuple(
        x[order].astype(dtype)
        for x, dtype in zip((row, col, tgt, val), (np.int32, np.int32, np.int32, np.int8))
    )
    return copy


def _negating_cells(c, *cells):
    # a copy whose cached bracket table has the given cells negated
    row, col, tgt, val = c.bracket_table
    hit = np.zeros(len(row), dtype=bool)
    for i, j in cells:
        hit |= (row == i) & (col == j)
    return _with_terms(c, row, col, tgt, np.where(hit, -val, val))


def _triple_class(rs, triple):
    if min(triple) < rs.rank:
        return "h"
    a, b, g = (rs.all_roots[i - rs.rank] for i in triple)
    if any(u == -v for u, v in ((a, b), (b, g), (g, a))):
        return "cancelling pair"
    return "zero sum" if a + b == -g else "product identity"


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


def _zero_parity(rs):
    return np.zeros((rs.rank, rs.rank), dtype=np.int64)


def test_build_gate_raises_construction_failure(monkeypatch, capsys):
    # eps = +1 on every generator pair makes the sign table symmetric
    monkeypatch.setattr(chevalley, "_eps_parity_matrix", _zero_parity)
    build_constants.cache_clear()
    try:
        with pytest.raises(ConstructionFailure) as exc:
            build_constants(build("A2"))
        message = str(exc.value)
        assert message.startswith("A2: ")
        assert message.endswith(" violations, first: antisymmetry fails at pair (0,1)")
        assert main(["chevalley", "A2"]) == 3
        assert "internal error:" in capsys.readouterr().err
    finally:
        build_constants.cache_clear()


def _uncorrected(c):
    # n = eps on every root pair: the module docstring's table without the
    # sign -1 for each negative root among a, b and a + b
    n_roots = len(c.system.all_roots)
    negative = np.arange(n_roots) >= n_roots // 2
    sum_negative = (c.sum_index < n_roots) & (c.sum_index >= n_roots // 2)
    undo = negative[:, None] ^ negative[None, :] ^ sum_negative
    table = np.where(undo, -c.sign_table, c.sign_table)
    return ChevalleyConstants(c.system, table, c.sum_index)


@pytest.mark.parametrize("name,triple", [
    ("A2", (2, 3, 5)), ("A3", (3, 4, 9)), ("D4", (4, 6, 16)),
    ("E6", (6, 7, 42)), ("E8", (8, 9, 128)),
])
def test_gate_check_refuses_the_uncorrected_sign_rule(name, triple):
    # support and antisymmetry hold, so only the Jacobi sweep can refuse it
    rep = verify_chevalley(_uncorrected(build_constants(build(name))))
    assert rep.violations == [_jacobi_message(triple)]


@pytest.mark.parametrize("name,checked", [
    ("A1", 9), ("A2", 128), ("A3", 743), ("D4", 4428),
])
def test_checked_counts_pairs_then_triples(name, checked):
    c = build_constants(build(name))
    n_roots = len(c.system.all_roots)
    assert checked == 2 * n_roots ** 2 + comb(c.system.rank + n_roots, 3)
    assert verify_chevalley(c).checked == checked


def test_checked_stops_at_the_first_failing_triple():
    c = build_constants(build("A3"))
    a1, a2, _ = c.system.simple_roots
    bad = c.flip(a1, a2)
    position, triple = _reference_first_failure(bad)
    rep = verify_chevalley(bad)
    assert rep.violations == [_jacobi_message(triple)]
    assert rep.checked == 2 * 12 ** 2 + position


def test_the_check_runs_once_per_instance(monkeypatch):
    sweep = chevalley._jacobi_first_failure
    calls = []
    monkeypatch.setattr(
        chevalley, "_jacobi_first_failure", lambda c: calls.append(c) or sweep(c)
    )
    c = dataclasses.replace(build_constants(build("A3")))
    first = verify_chevalley(c)
    first.checked = 0
    first.violations.append("edited")
    first.details.clear()
    second = verify_chevalley(c)
    assert len(calls) == 1
    assert second.checked == 743
    assert second.violations == []
    assert second.details == {"jacobi": "exhaustive"}
    # a flipped copy runs its own check
    a1, a2, _ = c.system.simple_roots
    assert not verify_chevalley(c.flip(a1, a2)).ok
    assert len(calls) == 2


# (checked, SHA-256 of the exact `chevalley T --format json` and `verify T all
# --format json` stdout less its checked field), recorded from the
# dense-gather sweep that the term lists replaced: the gate's verdict and
# checked count cannot drift.  The verify digests were recorded before the
# surface suite dropped its restated isometry and restriction comparisons and
# its descents of the negative roots, which moved checked alone.
GATE_PAYLOAD_SHA256 = {
    ("chevalley", "A8"):
        (92528, "de7c9881e637dec777fa768f00ed5600321b716b9c20aa088589fbd78edbe808"),
    ("chevalley", "D8"):
        (305928, "d6633bca6ede4025e7964ac4bed7e709a38348c70cf9c88fac4898d2ec3da174"),
    ("chevalley", "E6"):
        (86444, "6ad356c4dae3362bffef119bf34ffd2a30fefcf3788a588307bb8bfc5c5ac155"),
    ("chevalley", "E7"):
        (415058, "a0e47c0c318238862369d16cd8e347c35a002d55732966f7c22b52c38e5afe07"),
    ("chevalley", "E8"):
        (2626696, "85c8090e0cd6c0e5c787969eded34a26b6095204e422ff208f31a03643fcc94b"),
    ("verify", "A8"):
        (93042, "9c6bea7a5af55596720c0804c8cfeff67fb6121d2a4b1e1ad5f0f7612bcadaca"),
    ("verify", "D8"):
        (306722, "77e0ffa262d4220f4f4ff5ec4232f34e0fc2afe63a26967dbbd9c52d1493560a"),
}


@pytest.mark.parametrize("command,name", sorted(GATE_PAYLOAD_SHA256))
def test_gate_payload_is_pinned(capsys, command, name):
    checked, digest = GATE_PAYLOAD_SHA256[command, name]
    argv = [command, name] + (["all"] if command == "verify" else []) + ["--format", "json"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["checked"] == checked
    rest = out.replace(f'"checked": {checked}, ', "", 1)
    assert hashlib.sha256(rest.encode()).hexdigest() == digest


def _per_lo_first_failure(c, end=None):
    # the Jacobi sweep one smallest index lo at a time, below lo = end, each
    # step expanding the products of the triples (lo, mid, hi) alone: the
    # oracle for the gate's sweep over owner slices, which must return the
    # same first failing triple
    row, col, tgt, val = c.bracket_table
    dim = c.system.rank + len(c.system.all_roots)
    col_key = col * dim + row
    by_col = np.argsort(col_key, kind="stable")
    upper = np.flatnonzero(row < col)
    tgt_key = tgt[upper] * dim + row[upper]
    by_tgt = upper[np.argsort(tgt_key, kind="stable")]
    col_key, tgt_key = col_key[by_col], np.sort(tgt_key)
    row_ptr = np.searchsorted(row, np.arange(dim + 1))

    def run(cells, order, keys, first, last):
        n, k = runs(np.searchsorted(keys, first), np.searchsorted(keys, last))
        return cells[n], order[k]

    for lo in range(dim - 2)[:end]:
        base = np.int64(lo * dim)
        cells = np.arange(row_ptr[lo], row_ptr[lo + 1])
        t = col[cells] * dim
        a, b = run(cells, by_tgt, tgt_key, t + lo + 1, t + dim)
        parts = [(row[b], col[b], a, b)]
        right = cells[col[cells] > lo]
        t = tgt[right] * dim
        a, b = run(right, by_col, col_key, t + col[right] + 1, t + dim)
        parts.append((col[a], row[b], b, a))
        left = by_col[slice(*np.searchsorted(col_key, [base + lo + 1, base + dim]))]
        t = tgt[left] * dim
        a, b = run(left, by_col, col_key, t + lo + 1, t + row[left])
        parts.append((row[b], row[a], b, a))
        keys, _ = sum_by_key(
            np.concatenate([((base + j) * dim + k) * dim + tgt[o] for j, k, o, _ in parts]),
            np.concatenate([val[o].astype(np.int64) * val[i] for _, _, o, i in parts]),
        )
        if keys.size:
            return (lo, *divmod(int(keys[0]) // dim % (dim * dim), dim))
    return None


def _gate(c, sweep, monkeypatch):
    # violations and checked of a fresh copy of c, its Jacobi sweep replaced
    with monkeypatch.context() as m:
        m.setattr(chevalley, "_jacobi_first_failure", sweep)
        rep = verify_chevalley(dataclasses.replace(c))
    return rep.violations, rep.checked


def _flips(c, cells):
    # each cell negated on one side, and each pair of cells mirrored once:
    # the mirrored flips of (a, b) and (b, a) are the same table
    index = c.system.root_order_index
    return [c.flip(a, b, one_sided=True) for a, b in cells] + [
        c.flip(a, b) for a, b in cells if index(a) < index(b)
    ]


def _assert_owner_sweep_matches(flips, monkeypatch):
    sweep = chevalley._jacobi_first_failure
    for bad in flips:
        expected = _gate(bad, _per_lo_first_failure, monkeypatch)
        assert any(v.startswith("jacobi") for v in expected[0])
        assert _gate(bad, sweep, monkeypatch) == expected


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_owner_sweep_matches_the_per_lo_sweep_on_every_flip(name, monkeypatch):
    c = build_constants(build(name))
    cells = [(a, b) for a, b, _ in c.nonzero_entries()]
    _assert_owner_sweep_matches(_flips(c, cells), monkeypatch)


def test_owner_sweep_matches_the_per_lo_sweep_on_e8_cells(monkeypatch):
    c = build_constants(build("E8"))
    cells = random.Random(8).sample([(a, b) for a, b, _ in c.nonzero_entries()], 12)
    _assert_owner_sweep_matches(_flips(c, cells), monkeypatch)


def test_owner_sweep_on_clean_tables():
    for name in ("A1", "A3", "D4", "E6"):
        c = build_constants(build(name))
        assert chevalley._jacobi_first_failure(c) is None
        assert _per_lo_first_failure(c) is None


def test_e8_sweep_memory_is_bounded():
    # the sweep's peak is about 0.78 MB (numpy 2.4); the products of the
    # whole sweep at once would take about 20 MB
    c = build_constants(build("E8"))
    c.bracket_table
    tracemalloc.start()
    try:
        assert chevalley._jacobi_first_failure(c) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


def test_e8_full_sweep_memory_is_bounded():
    # the sweep over every owner, which a table that fails the certificate
    # runs, expands one owner at a time: its peak is about 1.3 MB (numpy 2.4)
    c = build_constants(build("E8"))
    c.bracket_table
    tracemalloc.start()
    try:
        assert chevalley._jacobi_sweep(c, 248, 248) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E8"])
def test_each_owner_slice_holds_the_cells_of_that_owner(name):
    # the sweep reads the cells of owner lo at ptr[lo]:ptr[lo + 1] of each
    # part; lo is the top base-dim digit of a cell's key, so these slices
    # must tile the part with every cell under its own owner
    c = build_constants(build(name))
    rank = c.system.rank
    dim = chevalley._jacobi_dim(c.system)
    for end in (2 * rank, dim):
        parts = chevalley._jacobi_parts(c, dim, end)
        assert len(parts) == 3
        for ptr, starts, ends, a_key, a_val, b_key, b_val in parts:
            assert len(ptr) == end + 1 and ptr[0] == 0
            assert ptr[end] == len(starts) == len(ends) == len(a_key) == len(a_val)
            assert len(b_key) == len(b_val)
            assert (np.diff(ptr) >= 0).all()
            owners = np.repeat(np.arange(end), np.diff(ptr))
            assert (a_key // dim ** 3 == owners).all()
            assert (starts <= ends).all()


SUPPORTED = [f"A{r}" for r in range(1, 17)] + [f"D{r}" for r in range(3, 17)] + ["E6", "E7", "E8"]


def _sweep_ends(c, monkeypatch):
    # the gate's first failing triple on c, and the end of each sweep it ran:
    # a sweep expands the owners below its end
    ends, sweep = [], chevalley._jacobi_sweep
    with monkeypatch.context() as m:
        m.setattr(chevalley, "_jacobi_sweep",
                  lambda c, dim, end: ends.append(end) or sweep(c, dim, end))
        return chevalley._jacobi_first_failure(c), ends


@pytest.mark.parametrize("name", SUPPORTED)
def test_the_certificate_holds_and_the_sweep_stops_at_the_simple_roots(name, monkeypatch):
    # the triples with an h or a simple root vector are those whose smallest
    # index is below 2 * rank: all_roots lists the simple roots first, so a
    # silent fall-back to the full sweep would show as a second range
    c = build_constants(build(name))
    rs = c.system
    assert sorted(a.coords for a in rs.all_roots[:rs.rank]) == sorted(
        a.coords for a in rs.simple_roots)
    assert chevalley._jacobi_certified(c)
    assert _sweep_ends(c, monkeypatch) == (None, [2 * rs.rank])


def _rescaled(c, u):
    # the same algebra in the basis with x_u negated, u an index of all_roots:
    # each term of [b_i, b_j] = v b_t takes the sign s_i s_j s_t; Jacobi
    # still holds, but x_u and x_{-u} no longer swap under the involution
    row, col, tgt, val = c.bracket_table
    s = np.ones(c.system.rank + len(c.system.all_roots), dtype=np.int64)
    s[c.system.rank + u] = -1
    return _with_terms(c, row, col, tgt, s[row] * s[col] * s[tgt] * val)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_a_valid_table_off_the_involution_passes_through_the_continued_sweep(
        name, monkeypatch):
    c = build_constants(build(name))
    rs = c.system
    dim = rs.rank + len(rs.all_roots)
    for u in (0, len(rs.positive_roots) - 1):
        bad = _rescaled(c, u)
        assert not chevalley._jacobi_certified(bad)
        assert _sweep_ends(bad, monkeypatch) == (None, [dim])
        rep = verify_chevalley(_rescaled(c, u))
        assert (rep.violations, rep.checked) == ([], verify_chevalley(c).checked)


def test_continued_sweep_on_clean_tables(monkeypatch):
    # the one sweep over every owner, which a table that fails the
    # certificate runs, on tables where it must find nothing
    monkeypatch.setattr(chevalley, "_jacobi_certified", lambda c: False)
    for name in ("A1", "A3", "D4", "E6"):
        c = build_constants(build(name))
        dim = c.system.rank + len(c.system.all_roots)
        assert _sweep_ends(c, monkeypatch) == (None, [dim])


def _tampered(c):
    # makers of tampered copies of c: every sign flip, one-sided and
    # mirrored, and every bracket term negated alone and dropped alone
    index = c.system.root_order_index
    makers = [
        lambda a=a, b=b, one=one: c.flip(a, b, one_sided=one)
        for a, b, _ in c.nonzero_entries()
        for one in (True, False)
        if one or index(a) < index(b)
    ]
    row, col, tgt, val = c.bracket_table
    for n in range(len(row)):
        for factor in (-1, 0):
            edited = val.astype(np.int64)
            edited[n] *= factor
            makers.append(lambda edited=edited: _with_terms(c, row, col, tgt, edited))
    return makers


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_the_certified_gate_matches_the_full_sweep_on_tampered_tables(name, monkeypatch):
    # a tampered table either fails the swept triples, at the full sweep's
    # first failure, or fails the certificate and is swept to the end
    c = build_constants(build(name))

    def report(make, sweep):
        with monkeypatch.context() as m:
            m.setattr(chevalley, "_jacobi_first_failure", sweep)
            rep = verify_chevalley(make())
        return rep.violations, rep.checked

    makers = _tampered(c)
    failing = 0
    for make in makers:
        expected = report(make, _per_lo_first_failure)
        assert report(make, chevalley._jacobi_first_failure) == expected
        failing += any(v.startswith("jacobi") for v in expected[0])
    assert failing == len(makers)


def test_the_sweep_from_an_owner_matches_the_per_lo_sweep_from_it():
    # the sweep builds runs for the owners below its end alone: on D4, 8 is
    # stop = 2 * rank, 17 ends past the positive roots and 28 is dim
    c = build_constants(build("D4"))
    found = 0
    for make in _tampered(c):
        bad = make()
        for end in (8, 17, 28):
            expected = _per_lo_first_failure(bad, end)
            assert chevalley._jacobi_sweep(bad, 28, end) == expected
            found += expected is not None
    assert found
