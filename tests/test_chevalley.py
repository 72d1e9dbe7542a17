"""Structure constants: support, signs, bracket relations, adjoint action."""

import copy
import dataclasses
import hashlib
import json
import pickle
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

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
    verify_chevalley,
)
from adelie.cli import main
from adelie.errors import (
    BudgetExceeded,
    CoefficientOverflow,
    ConstructionFailure,
    IndexOutOfRange,
    NonIntegerCoordinate,
    NotALieElement,
    NotARootClass,
    NotChevalleyConstants,
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
    # past the dim < 1291 of the int32 keys of the table's readers, so the
    # guard refuses it
    with pytest.raises(BudgetExceeded, match="^A35: dimension 1295 is past the int32 keys "):
        build_constants(RootSystem("A", 35))
    assert chevalley._build_constants.cache_info().maxsize == 33


@pytest.mark.parametrize("kind,dim", [("A", 4224), ("D", 8128)])
def test_build_constants_refuses_a_system_past_the_keys_before_its_tables(kind, dim):
    # the refusal came from the gate, after the n_roots ** 2 sum and sign
    # tables were built: D64 took 6.7 s and peaked at 610 MB, A64 1.35 s
    rs = RootSystem(kind, 64)
    message = (f"^{kind}64: dimension {dim} is past the int32 keys of "
               "_jacobi_certified and build_system$")
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


def test_a_table_built_by_hand_meets_the_key_guard_through_its_sums():
    # a table built by hand skips build_constants, but its report reads the
    # system's sums, which are built behind the guard
    rs = RootSystem("A", 35)
    n_roots = len(rs.all_roots)
    c = ChevalleyConstants(rs, np.zeros((n_roots, n_roots), dtype=np.int8))
    message = "^A35: dimension 1295 is past the int32 keys of _jacobi_certified and build_system$"
    with pytest.raises(BudgetExceeded, match=message):
        c.report


def test_every_table_over_a_system_reads_the_systems_sums():
    c = build_constants(build("A3"))
    a1, a2, _ = c.system.simple_roots
    by_hand = ChevalleyConstants(RootSystem("A", 3), c.sign_table.copy())
    for x in (c, c.flip(a1, a2), dataclasses.replace(c), by_hand):
        assert x.sum_index is build_constants(x.system).sum_index


@pytest.mark.parametrize("system,make", [
    (None, np.copy),
    ("A3", np.ndarray.tolist),
    ("A3", lambda t: t[:2]),
    ("A3", lambda t: t.astype(float)),
    ("A3", lambda t: t.astype(np.uint8)),
    ("A3", lambda t: t.astype(np.int64) * 257),
], ids=["none-system", "list-table", "short-table", "float-table", "uint8-table", "257-table"])
def test_malformed_fields_are_refused_where_the_table_is_made(system, make):
    # each once built and failed later with a bare AttributeError or numpy's
    # broadcast ValueError when its report was read; the last two passed
    # every check, their -1 read as 255 and their signs as 257, which wrap
    # back to signs in int8
    table = make(build_constants(build("A3")).sign_table)
    with pytest.raises(NotChevalleyConstants):
        ChevalleyConstants(system and build(system), table)


def test_an_element_pickles_and_copies():
    # its read-only mappings are rebuilt from plain dicts, not pickled
    rs = build("A2")
    a1, a2 = rs.simple_roots
    mixed = LieElement.x(rs, -a2).scale(-3) + LieElement.x(rs, a1) + LieElement.h(rs, 1)
    for x in (LieElement.h(rs, 0), LieElement(rs), mixed):
        for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)), copy.copy(x)):
            assert twin == x and type(twin.roots) is type(x.roots) and twin.system == rs
            assert repr(twin) == repr(x)


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
    # an operand that is not an element once raised a bare AttributeError
    with pytest.raises(NotALieElement, match="^1 is not a LieElement$"):
        x + 1


def test_an_element_refuses_every_rebinding():
    # a frozen record like the others; its fields were rebindable, and their
    # entries stayed editable after the check: e.cartan[5] = "x" printed as
    # 1*h1 + x*h6
    rs = build("A2")
    e = LieElement.h(rs, 0) + LieElement.x(rs, rs.simple_roots[0])
    for name in ("system", "cartan", "roots"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, {})
    for terms, key in ((e.cartan, 5), (e.cartan, 0), (e.roots, (0, 1)), (e.roots, (1, 0))):
        with pytest.raises(TypeError):
            terms[key] = "x"
        with pytest.raises(TypeError):
            del terms[key]
    assert repr(e) == "1*h1 + 1*x[1, 0]"
    # a copy reads the read-only fields it is given
    assert dataclasses.replace(e, roots={}) == LieElement.h(rs, 0)


@pytest.mark.parametrize("i", [-1, 2, 5, 0.5])
def test_a_cartan_index_out_of_range_is_refused(i):
    # numpy would read h_{-1} as the last basis element and h_5 of A2 as a
    # root vector, and a search for h_0.5 among the rows finds h_2; h and the
    # fields refuse the index where the element is made, and the fields
    # cannot be edited after (test_an_element_refuses_every_rebinding)
    rs = build("A2")
    for call in (lambda: LieElement.h(rs, i), lambda: LieElement(rs, cartan={i: 1})):
        with pytest.raises(IndexOutOfRange, match=f"Cartan index {i} outside 0..1"):
            call()


@pytest.mark.parametrize("key", [(2, 0), (1, -1), (0, 0), (1, 0, 0)])
def test_a_root_key_that_is_not_a_root_is_refused(key):
    # a tuple of ints misses the system's coordinates dict, and a vector key
    # never reads it: both meet root_order_index
    rs = build("A2")
    for call in (lambda: LieElement(rs, roots={key: 1}),
                 lambda: LieElement(rs, roots={root_vector(*key): 1})):
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
    # -1.5 x_a2, and bracket would give a float coefficient; scale and the
    # fields refuse such a factor, and the fields cannot be edited after
    rs = build("A2")
    with pytest.raises(NonIntegerCoordinate):
        LieElement.h(rs, 0).scale(k)
    for call in (lambda: LieElement(rs, {0: k}), lambda: LieElement(rs, roots={(1, 0): k})):
        message = f"^coefficient {re.escape(repr(k))} is not an integer$"
        with pytest.raises(NonIntegerCoordinate, match=message) as exc:
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
    assert {f.name for f in dataclasses.fields(c)} == {"system", "sign_table"}


def test_a_refused_rebinding_leaves_the_cached_constants_as_they_were():
    c = build_constants(build("A2"))
    before = dump_constants(c)
    a1, a2 = c.system.simple_roots
    with pytest.raises(AttributeError):
        c.sign_table = c.flip(a1, a2, one_sided=True).sign_table
    again = build_constants(build("A2"))
    assert again is c and dump_constants(again) == before
    assert verify_chevalley(again).ok


def test_flip_and_replace_build_new_constants_with_their_own_report(monkeypatch):
    # three instances run the gate three times, however often they are read
    built = build_constants(build("A2"))
    sweep = chevalley._jacobi_first_failure
    calls = []
    monkeypatch.setattr(
        chevalley, "_jacobi_first_failure", lambda c: calls.append(c) or sweep(c)
    )
    c = dataclasses.replace(built)
    a1, a2 = c.system.simple_roots
    flipped, replaced = c.flip(a1, a2, one_sided=True), dataclasses.replace(c)
    for _ in range(2):
        assert c.report.ok and replaced.report.ok and not flipped.report.ok
    assert calls == [c, replaced, flipped]
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
    broken = ChevalleyConstants(c.system, t)
    rep = verify_chevalley(broken)
    assert not rep.ok


def test_the_gated_tables_cannot_be_edited_in_place():
    # a one-sided sign flip made in place after the gate ran would keep its
    # cached verdict: the closed formula reads only (a2, a1) of this pair.
    # Each of the six arrays is a view of immutable bytes, so none can be made
    # writeable again: on the built table, on a copy that shares its arrays
    # and on a flip that builds its own sign table
    cached = build_constants(build("A2"))
    c = dataclasses.replace(cached)
    assert c.report.ok
    a1, a2 = (c.system.root_order_index(a) for a in c.system.simple_roots)
    flipped = c.flip(*c.system.simple_roots, one_sided=True)
    for constants in (c, cached, flipped):
        with pytest.raises(ValueError):
            constants.sign_table[a1, a2] *= -1
        with pytest.raises(ValueError):
            constants.sum_index[a1, a2] = 0
        for array in (constants.sign_table, constants.sum_index, *constants.bracket_table):
            with pytest.raises(ValueError):
                array.flags.writeable = True
    assert verify_chevalley(flipped).ok is False


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
    chevalley._build_constants.cache_clear()
    try:
        with pytest.raises(ConstructionFailure) as exc:
            build_constants(build("A2"))
        message = str(exc.value)
        assert message.startswith("A2: ")
        assert message.endswith(" violations, first: antisymmetry fails at pair (0,1)")
        assert main(["chevalley", "A2"]) == 3
        assert "internal error:" in capsys.readouterr().err
    finally:
        chevalley._build_constants.cache_clear()


def _uncorrected(c):
    # n = eps on every root pair: the module docstring's table without the
    # sign -1 for each negative root among a, b and a + b
    n_roots = len(c.system.all_roots)
    negative = np.arange(n_roots) >= n_roots // 2
    sum_negative = (c.sum_index < n_roots) & (c.sum_index >= n_roots // 2)
    undo = negative[:, None] ^ negative[None, :] ^ sum_negative
    table = np.where(undo, -c.sign_table, c.sign_table)
    return ChevalleyConstants(c.system, table)


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
    # the largest supported type, ok at dimension 496, recorded from the
    # per-index sweep
    ("chevalley", "D16"):
        (20675280, "8d6b5fd67d8f20f245d36e0ce9560af7d7806581838cebe46758be477b1f7690"),
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


def _flips(c, cells):
    # each cell negated on one side, and each pair of cells mirrored once:
    # the mirrored flips of (a, b) and (b, a) are the same table
    index = c.system.root_order_index
    return [c.flip(a, b, one_sided=True) for a, b in cells] + [
        c.flip(a, b) for a, b in cells if index(a) < index(b)
    ]


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E8"])
def test_every_flip_fails_the_jacobi_sweep(name):
    # every nonzero cell, or 12 sampled cells of E8, one gate per table
    c = build_constants(build(name))
    cells = [(a, b) for a, b, _ in c.nonzero_entries()]
    if name == "E8":
        cells = random.Random(8).sample(cells, 12)
    for bad in _flips(c, cells):
        assert any(v.startswith("jacobi") for v in verify_chevalley(bad).violations)


def test_e8_sweep_memory_is_bounded():
    # the gate's peak is about 1.23 MB (numpy 2.4), the certificate's sums of
    # the table's terms; the products of the whole sweep at once would take
    # about 20 MB
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
    # runs, expands one owner at a time: its peak is about 1.06 MB (numpy 2.4)
    c = build_constants(build("E8"))
    c.bracket_table
    tracemalloc.start()
    try:
        assert chevalley._jacobi_sweep(c, 248, 248) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


SUPPORTED = [f"A{r}" for r in range(1, 17)] + [f"D{r}" for r in range(3, 17)] + ["E6", "E7", "E8"]


def _sweep_ends(c, monkeypatch):
    # the gate's first failing triple on c, and the end of each sweep it ran:
    # a sweep expands the triples whose smallest index is below its end
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


def test_the_certificate_reads_the_bracket_as_the_sum_of_its_terms(monkeypatch):
    # the one term v x_a of the first step cell (x_b, e_i) of A3 split into
    # 2v x_a and -v x_a: the bracket is the same, and the certificate, which
    # once compared the terms one by one, holds on it and spares the sweep
    c = build_constants(build("A3"))
    rs = c.system
    r = rs.rank
    k, i = rs.positive_steps[r]  # all_roots lists the simple roots first
    p, q = r + k, r + rs.root_order_index(rs.simple_roots[i])
    row, col, tgt, val = c.bracket_table
    (n,) = np.flatnonzero((row == p) & (col == q))
    assert row[n] >= r and col[n] >= r and tgt[n] >= r
    doubled = val.astype(np.int64)
    doubled[n] *= 2
    split = _with_terms(c, np.r_[row, p], np.r_[col, q], np.r_[tgt, tgt[n]],
                        np.r_[doubled, -val[n]])
    assert len(split.bracket_table[0]) == len(row) + 1
    assert chevalley._jacobi_certified(split)
    assert _sweep_ends(split, monkeypatch) == (None, [2 * r])
    rep, unsplit = verify_chevalley(split), verify_chevalley(c)
    assert rep.ok and (rep.violations, rep.checked) == (unsplit.violations, unsplit.checked)


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

    dim = c.system.rank + len(c.system.all_roots)
    makers = _tampered(c)
    failing = 0
    for make in makers:
        expected = report(make, lambda c: chevalley._jacobi_sweep(c, dim, dim))
        assert report(make, chevalley._jacobi_first_failure) == expected
        failing += any(v.startswith("jacobi") for v in expected[0])
    assert failing == len(makers)


def test_the_sweep_to_an_end_is_the_full_sweep_cut_at_that_end():
    # the sweep expands the triples whose smallest index is below its end
    # alone: on D4, 8 is stop = 2 * rank, 17 ends past the positive roots and
    # 28 is dim; every tampered table fails below 8, so each is also cut at
    # its failing smallest index lo, which must hide the failure, and lo + 1
    c = build_constants(build("D4"))
    for make in _tampered(c):
        bad = make()
        full = chevalley._jacobi_sweep(bad, 28, 28)
        assert full is not None
        lo = full[0]
        for end in (8, 17, 28, lo, lo + 1):
            expected = full if lo < end else None
            assert chevalley._jacobi_sweep(bad, 28, end) == expected


def _reference_sum_index(rs):
    # every pair's sum looked up, one row of the keys at a time: the route
    # build_constants took before it looked up only the pairs at -1
    coords = np.array([r.coords for r in rs.all_roots], dtype=np.int64)
    n_roots = len(coords)
    base = 4 * int(np.abs(coords).max()) + 1
    keys = coords @ base ** np.arange(rs.rank, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sum_index = np.empty((n_roots, n_roots), dtype=np.int32)
    for i, key in enumerate(keys):
        sums = key + keys
        at = np.minimum(np.searchsorted(sorted_keys, sums), n_roots - 1)
        sum_index[i] = np.where(sorted_keys[at] == sums, order[at], n_roots)
    return sum_index


@pytest.mark.parametrize("name", SUPPORTED)
def test_the_sum_index_is_the_all_pairs_lookup(name):
    rs = build(name)
    assert np.array_equal(build_constants(rs).sum_index, _reference_sum_index(rs))


def test_a_pair_at_minus_one_whose_sum_is_no_root_is_refused():
    # a stand-in for A3 without its highest root: alpha_3 pairs to -1 with
    # alpha_1 + alpha_2, and their sum is missing from the keys
    rs = build("A3")
    positive = rs.positive_roots[:-1]
    stand_in = SimpleNamespace(name="A3", rank=3, cartan=rs.cartan,
                               all_roots=positive + tuple(-a for a in positive))
    message = (r"^A3: roots \{0,0,1\|root\} and \{1,1,0\|root\} pair to -1, "
               r"but their sum is not a root$")
    with pytest.raises(ConstructionFailure, match=message):
        chevalley._root_sums.__wrapped__(stand_in)


def test_two_roots_that_share_a_key_are_refused():
    # a stand-in for A3 that lists alpha_3 twice: the keys are sorted, so a
    # sum that is alpha_3 would be looked up as either copy
    rs = build("A3")
    positive = rs.positive_roots
    stand_in = SimpleNamespace(name="A3", rank=3, cartan=rs.cartan,
                               all_roots=(*positive, positive[0], *(-a for a in positive)))
    message = r"^A3: roots \{0,0,1\|root\} and \{0,0,1\|root\} share one key$"
    with pytest.raises(ConstructionFailure, match=message):
        chevalley._root_sums.__wrapped__(stand_in)


@pytest.mark.parametrize("kind,rank", [("A", 29), ("D", 21)])
def test_the_sum_index_past_wrapping_keys_is_the_coordinate_lookup(kind, rank):
    # from A29 and D21 on, the packed keys pass 2**63 and wrap; the sum index
    # still reads a + b by its coordinates at every pair that pairs to -1
    rs = RootSystem(kind, rank)
    coords = np.array([r.coords for r in rs.all_roots], dtype=np.int64)
    n_roots = len(coords)
    assert int(4 * np.abs(coords).max() + 1) ** (rank - 1) >= 2 ** 63
    place = {tuple(c): i for i, c in enumerate(coords.tolist())}
    pairs = coords @ np.array(rs.cartan, dtype=np.int64) @ coords.T
    expected = np.full((n_roots, n_roots), n_roots, dtype=np.int32)
    for i, j in zip(*np.nonzero(pairs == -1)):
        expected[i, j] = place[tuple((coords[i] + coords[j]).tolist())]
    assert np.array_equal(chevalley._root_sums(rs)[0], expected)


# SHA-256 of sign_table's and sum_index's bytes (int8 and int32, C order) and
# of the bracket-table terms, one "i,j,k,coeff" line each in cell order, on
# every supported type; recorded before the sum index was read from the
# pairings and the terms sorted by one key
TABLE_SHA256 = {
    "A1": ("df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
           "141253dc2e6542a74c1a4c854a9f711f8b1711068aee2be41671fcfc99cf4d98",
           "71f15e74d61e199cad5be8ac8869bf39977594cffa0b2782e242a62aecaf1e9a"),
    "A2": ("b048c9e54292ecd2f33f57198f367d6a73d4788fbc62663725d512b84f5d8dfd",
           "49b6758f5bed0c00dc2fb058d2f91a6850b86e4ed552e26cc30c28ca458ccbf3",
           "d40b643ad52be4f47e70e0083f029704d94bd608fa5618adad212e074d136d2b"),
    "A3": ("af342f32ed27853a39374e4c6e2474ef3f3250c4580d914cf1b23d2d88d4bba3",
           "c9f15cf3b56752d226f036e9b509884497ae768603d26928abb786570238afd6",
           "dbf5200317f84438db5068d7e296cdee797f12574279b29a0706a1adb8c81abf"),
    "A4": ("c58db2066615f0bb22d3f647808a3427ddbb8cca40046e67a5019140522e6a78",
           "df2e9637c94210349afbe8bd105bd56d4c00c3d4264298c0a3b70e9000b6aae3",
           "71a27827484452c836ee8b793f673b349e1b04879fe8888022f8f6156e7d65cb"),
    "A5": ("a82d104a8a2377ddebd7fde04ebbe76d889fa264b7cbed3becf0f3764daff4b5",
           "28a5f681c321eae0b050b424c461ff578a180d145b7af5e545ac86761bc6f5d2",
           "bf8122456664a9bfaa9d6b4e28267af11df3f58f57b9d21c5ca9824408e14d0d"),
    "A6": ("0133d35ec976d08169a07ba11855bd43f4dc7cac07cd8aa7734ced27a05fb0e9",
           "9d06cb071205bc3359fd9225371f34c1629679144451e468c1b06582e8e4808c",
           "8350b61affb985c89a636a85bbfc9196a9bcb006c80cfbfcb5d42099aa66f27d"),
    "A7": ("4de39aafec6478f376536a3f6ca1eed26d2884eb3688d190f1961b0662aad947",
           "f1d6970f4aa7c3bee6a01b268f94348660419651eb78e74f9dbba29ce951f260",
           "b19ab69ba260afa880c302ba73ae710e1fd0c02940327ff025d627f870da8d15"),
    "A8": ("cf7366b927c8714a6511673c6c98649325aa107e3608487d6084a3b1236006de",
           "e51a49ec79f965e34e95a34cbbf0f38424f2435e1a3499dbb8c4d051b957781c",
           "3f4ad79e67e938936fe1f4ef2c9b5334d9f9e138860be84283eedb6bbb9f1d0f"),
    "A9": ("fb395cd845c2a5380c0ea62e839b3737cb36810bd862df8e2cef5da8d8a6a8ae",
           "c418eadff1de75e0b54e19da54f8a9e733ca77111bf64691deb7fe7473e7145e",
           "4edac52976fe7261f97b8935e32e6deab4111af993ddf9cd2361b26437a8384a"),
    "A10": ("3204ae1707635c14347dd8f4ce76803376a372009be8462f6b2817739da4cda3",
            "75c9bf6ece43a86d9bf8dcd7a9d8a9db642a0eebc62fbbebbad80d3aa15ac627",
            "b1a79d7c8a375077118fccc9aebe438604b0322123e677a929e2503436467564"),
    "A11": ("4e977205d4ad629128b3464ac3238ff1e51adcc92ad0490e834cdff5534dfa64",
            "109625e400f97016d12cb5d6865077cb0621b5e3f00ea4c7cd9dbf31f9711c2a",
            "cbc82e80dccbcb61226643e1779f18093c8615ae923c4d958aa7efbed828e6a6"),
    "A12": ("d8b399ddc25ebd308b11bc888b4c3787bf5f8f91a3156289920615f22ba14e7f",
            "02dc7e5b89d42992b4d173a9e70d1c666b6b4114333382331bccba77721c6135",
            "8470751e062b64d3927f43b2da429040b5f4a95d23909f96715ec16ec997b8db"),
    "A13": ("18a706f41cbf6fe0470d8b20e936dcfdf58d9ab5b1bbc03dee933331abd06d8a",
            "cebe8e6217c891b828585b603573cd4829a2c6bfde24a6482b849803be0e1b6a",
            "2482c36b693d096be446492e35e8ae837c1560373f39d8849e209dfc7dcd233a"),
    "A14": ("d2b13ac15639ce8c82f36d48ac924b03c7eb7ce9f7d7f0e59ec1cbb6362aa219",
            "2eade3c4d8d735f9eb7e43c1f03c2f71b6d14b5feb3e312e7ed9cb884e8c578e",
            "cbfb8874aa729f13255c8ca35d3f93bc190bd48c86e4b719aebab3c91841783b"),
    "A15": ("4490f72853e1f2ccb14c56a34b65efb44b9b9e9a44d691cbed737b7baade438c",
            "4ce7fa0cfca6a09ec031d54ecd9773f0b4bb310c242c375e3df339d2d3e5ada1",
            "14b38defd4440c458a7447ce9136ce16ad2583403ed7ead74c6b92eb6bb51584"),
    "A16": ("5140b2c6670a1583f528cd074b864c7082bb474855b8e915e76e0e95c3ded565",
            "3fa50360997293f05f24c7e479e3b67e835846e154a812a035e005adf1fd99a0",
            "960fe4d25878a1d2125d890e7c45ce0b172756480a4d56d272bc42d50abc3c13"),
    "D3": ("da2be6be6c9e8b497637ca0a3a1a85961f0e75efe34436b16e3b333bdc518348",
           "dc82618e6d65565c410fc2fbc2be4a69dfa8b5fa45f5b960c68eb74bdaabbbfb",
           "40ddd19f41dbaf7e22da683df920a42bca08ef00e58b6d0583520dc45093f3db"),
    "D4": ("51420ccf9bcb3065029d8220f9d8772865bec0bec058dde5c1b38130f230a241",
           "42aeb7df0ab74e89af07990f734365d02bcaa6c1a2e79c339a40722cfa8eddc2",
           "19aa42c35c8409077f386f26d495d9103f6a218e47a3c0f98d55e7c4aa59de85"),
    "D5": ("0abb4cc1046643b05505801b93aaf6d19479926d5f0b1ed088112dec80cea431",
           "86d602189f0eafae650b149fb4b84bf5b803a04b465c346f0ef4693d8b748dfa",
           "c3e148237328d4cfb62c89312a9e2a0479820fe1a3a27cc08576bfb592cdb654"),
    "D6": ("65109302e27111a09cdddc21559914d152226dafb5572d3d0652b66595048aba",
           "06fce37bc0b250e18a8b820a90cc9d3470ae9a5a58644bbdf2d33e38ee6ecf4c",
           "19d8df4beeb0778b770fe6d6a68608e5fdd33fc3f79e75392bab7c53510721da"),
    "D7": ("adcbfecc1af7032df9e1578b8f8203863547cbaa4b00f9a776d3043503cb42bb",
           "a50e0e01cf73c3a1bc9deba81c457d686235ea277cad5c5ecdc0361a93cab7e0",
           "eae26b614b047d34aaebc5400600ac9259f2f3ee9d076857fa97c7996a052760"),
    "D8": ("a52afd01d3cfc1bb661ba89191dbf383c0d3d63333c14c931c10d77cc42a0089",
           "47080f8ffdf0caa646011fd69d123fffd43e7f4b79a5e767ed5b08235ee66e1a",
           "113ed131825a337703df86abc9b3eab7e7a1094c4bc69f969ccd5f8c4c434a4c"),
    "D9": ("a4e978296a303c716c62c1b4ff70c52dfdd5f7ec1272fb9b355bd3a14e969feb",
           "edf7d5b96c982b4b11f5efecbc149b26d0837aff4cd86a83abb95cc83195e01c",
           "56798daf124ecd66836e30cb212f7dbe9c7f84ec784d83af3f40d5f365a48d7a"),
    "D10": ("49eb9ef934e8fd8ba588ad5ee51f875c06cb45eb88b7f4a5e60aecf5b60fb844",
            "c6b9623d4897e42f65b4e1a83e707ed630f6178062fe2a6ce2e125202bbe78b4",
            "63297c4171686f3f66d5404ec04f2576056b1e72ca07fa5fd63a88fa50f642ae"),
    "D11": ("d27b8c9832ff4dc8bc494b6e8c7ee8c7fbe43ae04bc16dabf8cb489f6ea45749",
            "443b45006060188f49ef47cc42329bb58b33b9aa2ffeae43b26c396a01be6b72",
            "988dd7d94f233175606ec27ae4724eec0e98d14a4416f7dc2d612f9005e4f2ea"),
    "D12": ("6499ec23cb566478ad5a76d46ebc30375e3ff1fec8712108df04bfe07f6940d6",
            "f5197b54dde81aea9726a309b7a05f15c49683cefaeb18dd6b8ed156e8b00cce",
            "19e4944a67c9d073677f8f24c1594a89edc61ff16fd36c55aa23238822778621"),
    "D13": ("16116ec3ef0cc6c7afb038df1f664fed2800c804a3fd3105443f5238f974509e",
            "6a27f6d1e616952e68a3e137cb59fa1e3fbeebb65f24eb003f373d3e2f60cd79",
            "ef06c90b06d1bffeda590eed45f3d5e02194a8edacb055a0cb27497ed3f84b38"),
    "D14": ("3981a5f58ab9ef81823d4e4aba3244c0f64e3d1b110e52f6cc5dd62adf0c249e",
            "ec476dd97f05a9bc1df7a548d2b1da7752e68a5f125f9fcbb10745f69cbf79a4",
            "2cef2fbce766d33b981593e7a9c2b810cbab2f2cc55106b7ff87f2ec10bfbd8b"),
    "D15": ("f1a837b6cfb9c1c5e5d35340ecd03c7e5c84425cd8febd11a3782dfd8d508d44",
            "1f5cf750148e7800e50449d6a38546aa52b297ac2f471641e44b0de29c316e18",
            "b7814f03386b32452dda617562f2d138e6079f011871b0afb5c40ec4af868088"),
    "D16": ("abba936067e31a5c203d5bca3611f8c0cf7691e077ff4d67ea319fcc54245db8",
            "353a592c829b66aac490482a17c214794f2417b36e6b290f70b9de2e9e35672e",
            "65a465b3f121ba6bcb523bfdcc40eb16ec18043aae58211f6852e2de6189e271"),
    "E6": ("ba80604f8042b989538411041cc0b5f2cd520adcbb710424c725b10b972e7d1a",
           "7901f3e3b586ec59f3da0e01a862b9909b1c7c08d71388e63fd90f16a52676ee",
           "a0418af3ed0678dc1fb24f6f404185f6a9aac030d197a3dc0405a0a168ee6e34"),
    "E7": ("65b74a4b052a8572624f183b6edf51643c195a8301861a5f0510e3c5fd4b981a",
           "3719c47c26072b83b7e97b47a6f035cfbb02e9d183ad58864eebf4bd48468921",
           "4eba4d238e03c95088ce7a652b24f4ecdfb6b42b7c1bc55ac244fe7514dfc24f"),
    "E8": ("c4c534c977dce677149b4ff1540f698a87ad2f85b57e141da4a55fd7dee00f26",
           "363fc3f8efc7f29c92a12f780dca25d1fe49b82a1cb8e07e82728980eed96871",
           "c9a29839f570ae908b80a803f9916dbf9816d93309912ea1dc947afee30a1cf7"),
}


@pytest.mark.parametrize("name", SUPPORTED)
def test_every_table_is_pinned(name):
    c = build_constants(build(name))
    assert (c.sign_table.dtype, c.sum_index.dtype) == (np.int8, np.int32)
    entries = zip(*(x.tolist() for x in c.bracket_table))
    terms = "".join(f"{a},{b},{k},{v}\n" for a, b, k, v in entries)
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (c.sign_table.tobytes(), c.sum_index.tobytes(), terms.encode())
    )
    assert digests == TABLE_SHA256[name]


def test_a_cold_e8_build_keeps_its_peak_memory_small():
    # the build's peak is about 1.8 MB (numpy 2.4): the n_roots ** 2 tables
    # and the gate's sweep, never a temporary per pair and root
    rs = build("E8")
    tracemalloc.start()
    try:
        chevalley._build_constants.__wrapped__(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


def _reference_certified(c):
    # the certificate with its step cells found root by root, through descent
    # and root_order_index
    rs = c.system
    r, n_roots = rs.rank, len(rs.all_roots)
    dim = r + n_roots
    row, col, tgt, val = c.bracket_table
    val = val.astype(np.int16)
    w = np.arange(dim)
    w[r:] = r + (w[r:] - r + n_roots // 2) % n_roots
    terms = sorted(zip(row.tolist(), col.tolist(), tgt.tolist(), val.tolist()))
    if terms != sorted(zip(col.tolist(), row.tolist(), tgt.tolist(), (-val).tolist())):
        return False
    if terms != sorted(zip(w[row].tolist(), w[col].tolist(), w[tgt].tolist(), (-val).tolist())):
        return False
    cells = {}
    for p, q, t, v in terms:
        cells.setdefault((p, q), []).append((t, v))
    for a in rs.positive_roots:
        i, *rest = rs.descent(a)
        if rest:
            e = rs.simple_roots[i]
            p, q, t = (r + rs.root_order_index(x) for x in (a - e, e, a))
            found = cells.get((p, q), [])
            if len(found) != 1 or found[0][0] != t or found[0][1] == 0:
                return False
    return True


@pytest.mark.parametrize("name", ["A3", "D4", "D5"])
def test_the_certificate_matches_its_per_root_reference(name):
    # each sign term dropped with its transpose and their images under the
    # involution: such a table keeps both symmetries, so the step cells
    # alone decide the certificate, which fails when a step cell is dropped
    c = build_constants(build(name))
    rs = c.system
    r, n_roots = rs.rank, len(rs.all_roots)
    w = np.arange(r + n_roots)
    w[r:] = r + (w[r:] - r + n_roots // 2) % n_roots
    row, col, tgt, val = c.bracket_table
    assert chevalley._jacobi_certified(c) and _reference_certified(c)
    verdicts = []
    for n in np.flatnonzero((row >= r) & (col >= r) & (tgt >= r)):
        p, q = row[n], col[n]
        orbit = {(p, q), (q, p), (w[p], w[q]), (w[q], w[p])}
        edited = np.where([(i, j) in orbit for i, j in zip(row, col)], 0, val)
        bad = _with_terms(c, row, col, tgt, edited)
        verdicts.append(chevalley._jacobi_certified(bad))
        assert verdicts[-1] == _reference_certified(bad)
    assert True in verdicts and False in verdicts
