"""Root system construction, pairings, heights.

The independent oracle here closes the simple roots under all simple
reflections and never consults the pairing-based closure, so the two
enumerations cross-check each other.
"""

import copy
import pickle
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from adelie import Basis, LatticeVector, build, parse_type, root_vector, weight_vector
from adelie._exact import int_adjugate
from adelie.errors import (
    AdelieError,
    BasisMismatch,
    BudgetExceeded,
    IllegalType,
    ImmutableSystem,
    ImmutableVector,
    IndexOutOfRange,
    MixedSigns,
    NonIntegerCoordinate,
    NonIntegerRank,
    NotARootClass,
    NotInRootLattice,
)
from adelie.roots import RootSystem, _build_cached, _cartan_matrix

# expected positive-root counts, frozen from the closure formulas
# A_n: n(n+1)/2, D_n: n(n-1), E6/7/8: 36/63/120
POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21, "A7": 28,
    "D3": 6, "D4": 12, "D5": 20, "D6": 30, "D7": 42,
    "E6": 36, "E7": 63, "E8": 120,
}


def reflection_orbit(cartan):
    """Oracle: orbit of the simple roots under simple reflections, root coords."""
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for c in frontier:
            pair = [sum(c[k] * cartan[k][i] for k in range(rank)) for i in range(rank)]
            for i in range(rank):
                img = list(c)
                img[i] -= pair[i]
                img_t = tuple(img)
                if img_t not in seen:
                    seen.add(img_t)
                    nxt.append(img_t)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name,count", sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = build(name)
    assert len(rs.positive_roots) == count
    # oracle agreement: generated set == reflection orbit
    orbit = reflection_orbit(rs.cartan)
    assert {r.coords for r in rs.all_roots} == orbit
    assert len(orbit) == 2 * count


SUPPORTED = [f"A{r}" for r in range(1, 17)] + [f"D{r}" for r in range(3, 17)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", SUPPORTED)
def test_each_positive_root_is_its_step_plus_a_simple_root(name):
    # (k, i) builds positive root k plus alpha_i, k = -1 exactly on the simple
    # roots, and i is the least index whose alpha_i leaves a positive root
    rs = build(name)
    assert len(rs.positive_steps) == len(rs.positive_roots)
    positive = {a.coords for a in rs.positive_roots}
    for a, (k, i) in zip(rs.positive_roots, rs.positive_steps):
        below = [
            j for j in range(rs.rank)
            if a.coords[:j] + (a.coords[j] - 1,) + a.coords[j + 1:] in positive
        ]
        if k == -1:
            assert (a, below) == (rs.simple_roots[i], [])
        else:
            assert 0 <= k < len(rs.positive_roots)
            assert rs.positive_roots[k] + rs.simple_roots[i] == a
            assert i == min(below)


@pytest.mark.parametrize("name", SUPPORTED)
def test_descent_word_subtracts_the_steps_down_to_a_simple_root(name):
    # one letter per unit of height: each but the last leaves the positive
    # root its closure step names, and the last is the simple root reached
    rs = build(name)
    for k, a in enumerate(rs.positive_roots):
        word = rs.descent(a)
        assert len(word) == rs.height(a)
        for i in word[:-1]:
            step, j = rs.positive_steps[k]
            assert i == j
            a, k = a - rs.simple_roots[i], step
        assert a == rs.simple_roots[word[-1]]
        assert rs.positive_steps[k] == (-1, word[-1])


def test_descent_refuses_all_but_positive_roots():
    rs = build("A2")
    assert rs.descent(weight_vector(1, 1)) == (0, 1)  # the highest root
    for v in (-rs.highest_root(), root_vector(1, -1), root_vector(0, 0), weight_vector(1, 0)):
        with pytest.raises(NotARootClass):
            rs.descent(v)


@pytest.mark.parametrize("name", sorted(POSITIVE_COUNTS))
def test_root_norms_and_pairings(name):
    rs = build(name)
    for a in rs.all_roots:
        assert rs.pairing(a, a) == 2
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            if a.coords == b.coords:
                continue
            assert abs(rs.pairing(a, b)) <= 1


def test_cartan_shape():
    for name in POSITIVE_COUNTS:
        rs = build(name)
        c = rs.cartan
        for i in range(rs.rank):
            assert c[i][i] == 2
            for j in range(rs.rank):
                assert c[i][j] == c[j][i]
                if i != j:
                    assert c[i][j] in (0, -1)


def test_neighbours_are_the_edges_of_the_cartan_matrix():
    # a reflection or a firing at node i moves coordinate i and its neighbours
    for name in POSITIVE_COUNTS:
        rs = build(name)
        assert rs.neighbours == tuple(
            tuple(j for j in range(rs.rank) if rs.cartan[i][j] == -1) for i in range(rs.rank)
        )


def test_d4_center_node():
    rs = build("D4")
    # node 2 (index 1) carries the three edges
    degrees = [sum(1 for j in range(4) if i != j and rs.cartan[i][j] == -1)
               for i in range(4)]
    assert degrees == [1, 3, 1, 1]
    assert rs.neighbours == ((1,), (0, 2, 3), (1,), (1,))
    assert rs.highest_root().coords == (1, 2, 1, 1)


def test_highest_root_values():
    assert build("A3").highest_root().coords == (1, 1, 1)
    assert build("E6").highest_root().coords == (1, 2, 2, 3, 2, 1)
    assert build("E7").highest_root().coords == (2, 2, 3, 4, 3, 2, 1)
    rs = build("E8")
    theta = rs.highest_root()
    assert theta.coords == (2, 3, 4, 6, 5, 4, 3, 2)
    assert rs.height(theta) == 29
    # dimension bookkeeping: rank + |Phi|
    assert rs.rank + len(rs.all_roots) == 248


def test_fundamental_pairing_duality():
    rs = build("A3")
    for i, alpha in enumerate(rs.simple_roots):
        for j in range(rs.rank):
            lam = weight_vector(*(int(k == j) for k in range(rs.rank)))
            assert rs.pairing(alpha, lam) == int(i == j)


def test_basis_round_trip():
    rs = build("D5")
    for r in rs.all_roots:
        w = rs.to_weight_basis(r)
        assert rs.to_root_basis(w).coords == r.coords
    lam = weight_vector(1, 0, 0, 0, 0)
    with pytest.raises(NotInRootLattice):
        rs.to_root_basis(lam)


def test_pairing_mixed_bases():
    rs = build("A2")
    a1 = rs.simple_roots[0]
    assert rs.pairing(a1, rs.to_weight_basis(a1)) == 2
    w = weight_vector(1, 0)
    assert rs.pairing(w, w) == Fraction(2, 3)
    # a weight pairing with an integer value is an int, not a Fraction
    three = rs.pairing(weight_vector(3, 0), w)
    assert three == 2 and type(three) is int


def test_rho_is_half_sum():
    for name in ("A1", "A4", "D4", "E6"):
        rs = build(name)
        rho = rs.rho()
        total = rs.to_weight_basis(rs.positive_roots[0])
        for r in rs.positive_roots[1:]:
            total = total + rs.to_weight_basis(r)
        assert total.coords == tuple(2 * c for c in rho.coords)
        exact = _fraction_root_coords(rs, _fraction_inverse(rs.cartan), rho)
        half = [Fraction(c, 2) for c in rs.to_root_basis(
            LatticeVector(total.coords, Basis.FUNDAMENTAL_WEIGHT)).coords]
        assert list(exact) == half


def test_heights():
    rs = build("A2")
    theta = rs.highest_root()
    assert rs.height(theta) == 2
    assert rs.height(-theta) == 2
    with pytest.raises(MixedSigns, match="mixed-sign") as exc:
        rs.height(root_vector(1, -1))
    assert isinstance(exc.value, ValueError)


def test_root_order_index_refuses_a_non_root_as_not_a_root():
    rs = build("A2")
    assert [rs.root_order_index(a) for a in rs.all_roots] == list(range(6))
    for v in (root_vector(1, -1), root_vector(0, 0), root_vector(2, 0), weight_vector(1, 0)):
        with pytest.raises(NotARootClass, match="is not a root of A2"):
            rs.root_order_index(v)
        assert not rs.is_root(v) and not rs.is_positive_root(v)


def test_parse_type():
    assert parse_type("a3") == ("A", 3)
    assert repr(build("A2")) == "RootSystem(A2)"
    assert parse_type(" E8 ") == ("E", 8)
    assert parse_type("D16") == ("D", 16)
    for bad in ("B2", "A0", "D2", "E9", "A17", "foo", "E5", None):
        with pytest.raises(IllegalType):
            parse_type(bad)
    # a kind or spec that is not a str once raised a bare AttributeError, and
    # a kind that is not a str is named by its repr, apart from the rank
    for make, message in (
        (lambda: build("A20"), "A20 outside supported range A1..A16"),
        (lambda: RootSystem(None, 3),
         "kind None with rank 3 is not an ADE Dynkin diagram: A1.., D3.., E6..E8"),
        (lambda: RootSystem(3, 3),
         "kind 3 with rank 3 is not an ADE Dynkin diagram: A1.., D3.., E6..E8"),
        (lambda: build(None), "unrecognised root system None"),
        (lambda: build("B2"), "unrecognised root system 'B2'"),
        (lambda: build("D2"), "D2 is not an ADE Dynkin diagram: A1.., D3.., E6..E8"),
        (lambda: build("E9"), "E9 is not an ADE Dynkin diagram: A1.., D3.., E6..E8"),
    ):
        with pytest.raises(IllegalType) as exc:
            make()
        assert str(exc.value) == message


@pytest.mark.parametrize("kind,message", [
    ("A", "A{} outside supported range A1..A16"),
    ("D", "D{} outside supported range D3..D16"),
    ("E", "E{} is not an ADE Dynkin diagram: A1.., D3.., E6..E8"),
], ids=["A", "D", "E"])
def test_a_type_past_the_cap_is_refused_before_its_diagram_is_drawn(kind, message):
    # a spec's rank has at most two digits, so build never draws a large
    # diagram; a rank such as 10 ** 5, which no spec names, RootSystem
    # refuses by its budget before any work
    tracemalloc.start()
    try:
        with pytest.raises(IllegalType) as exc:
            build(f"{kind}17")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message.format(17)
    assert peak < 2 ** 20
    with pytest.raises(BudgetExceeded):
        RootSystem(kind, 10 ** 5)


@pytest.mark.parametrize("bad", [2.5, 3.0, Fraction(3), "3", 2.0])
def test_rank_must_be_an_integer(bad):
    # RootSystem("A", 2.5) used to fail with a bare TypeError from deep in
    # the Cartan build
    with pytest.raises(NonIntegerRank) as exc:
        RootSystem("A", bad)
    assert isinstance(exc.value, TypeError)
    assert isinstance(exc.value, AdelieError)


@pytest.mark.parametrize("kind,rank", [
    ("D", 2), ("E", 9), ("E", 10), ("B", 3), ("A", 0), ("A", -1), ("D", 1),
    ("E", 4), ("E", 5), ("a", 3),
])
def test_root_system_admits_only_ade_diagrams(kind, rank):
    # D2 once built a Cartan matrix of determinant -3 and E9, E10 65 and 66
    # "positive roots"; B3, A0, D1, E4, E5 and a3 raised a bare IndexError
    with pytest.raises(IllegalType) as exc:
        RootSystem(kind, rank)
    assert str(exc.value).startswith(f"{kind}{rank} is not an ADE Dynkin diagram")


def test_build_keeps_one_instance_of_every_supported_type():
    # the cache holds 33 entries, one per type that build admits, so a sweep
    # over all of them evicts none
    systems = [build(name) for name in SUPPORTED]
    assert all(build(name) is rs for name, rs in zip(SUPPORTED, systems))
    assert all(build(name.lower()) is rs for name, rs in zip(SUPPORTED, systems))
    assert _build_cached.cache_info().maxsize == len(SUPPORTED) == 33


def test_numpy_integer_rank_converts_exactly():
    import numpy as np

    rs = RootSystem("A", np.int64(13))
    assert rs == build("A13")
    assert type(rs.rank) is int
    assert RootSystem("A", np.int8(3)) == build("A3")


def test_vector_arithmetic_guards():
    with pytest.raises(BasisMismatch):
        root_vector(1, 0) + weight_vector(0, 1)
    with pytest.raises(BasisMismatch):
        root_vector(1, 0) + root_vector(1, 0, 0)
    # a value that is not a LatticeVector once raised a bare AttributeError
    for other in (1, None, (0, 1)):
        message = re.escape(f"combines with LatticeVectors, not {other}")
        with pytest.raises(BasisMismatch, match=message):
            weight_vector(1, 0) + other
        with pytest.raises(BasisMismatch):
            weight_vector(1, 0) - other
    rs = build("A2")
    with pytest.raises(BasisMismatch):
        rs.pairing(root_vector(1), root_vector(1))


def test_simple_reflection():
    rs = build("A2")
    w = weight_vector(-1, 2)
    assert rs.reflect_simple(w, 0).coords == (1, 1)
    # reflections are involutions preserving the form
    for name in ("A3", "D4"):
        rs = build(name)
        for r in rs.all_roots:
            for i in range(rs.rank):
                im = rs.reflect_simple(r, i)
                assert rs.is_root(im)
                assert rs.reflect_simple(im, i).coords == r.coords
    for i in (-1, rs.rank):
        with pytest.raises(IndexOutOfRange) as exc:
            rs.reflect_simple(rs.highest_root(), i)
        assert isinstance(exc.value, IndexError)


def test_a_non_integer_simple_index_is_refused():
    import numpy as np
    from adelie.chevalley import LieElement, bracket, build_constants
    from adelie.flag import schubert_restriction_degree
    from adelie.surface import resolution_lattice

    # 0 <= 0.5 < 2 holds, yet 0.5 indexes no coordinate
    rs = build("A2")
    with pytest.raises(IndexOutOfRange, match=r"simple index 0\.5 outside 0\.\.1"):
        rs.reflect_simple(rs.highest_root(), 0.5)
    # 1.0 equals an integer, so it once passed every range check and was
    # read as int(1.0); a numpy integer is an integer and still passes
    c, lat, lam = build_constants(rs), resolution_lattice(rs), weight_vector(4, -7)
    for site, message in (
        (lambda i: rs.reflect_simple(rs.highest_root(), i), r"simple index 1\.0 outside 0\.\.1"),
        (lambda i: schubert_restriction_degree(rs, lam, i), r"curve index 1\.0 outside 1\.\.2"),
        (lat.curve, r"curve index 1\.0 outside 1\.\.2"),
        (lambda i: bracket(LieElement.h(rs, i), LieElement.x(rs, rs.highest_root()), c),
         r"Cartan index 1\.0 outside 0\.\.1"),
    ):
        with pytest.raises(IndexOutOfRange, match=message):
            site(1.0)
        assert site(np.int64(1)) == site(1)


def test_entries_below_the_pivots_are_the_fraction_free_ldl_factor():
    # with m_0 = 1 and m_1..m_n the leading minors, d_i = m_{i+1} / m_i and
    # l_ji = A[j][i] / m_{i+1}; on A2, d = (2, 3/2) and l_10 = -1/2
    assert int_adjugate(build("A2").cartan)[:2] == ((2, 3), ((-1,), ()))
    for name in ("A4", "D5", "E8"):
        cartan = build(name).cartan
        minors, below, _ = int_adjugate(cartan)
        m, rows = (1, *minors), range(len(cartan))
        d = [Fraction(m[i + 1], m[i]) for i in rows]
        lower = [
            [Fraction(below[i][j - i - 1], m[i + 1]) if j > i else Fraction(j == i) for i in rows]
            for j in rows
        ]
        ldl = [[sum(lower[j][i] * d[i] * lower[k][i] for i in rows) for k in rows] for j in rows]
        assert ldl == [list(row) for row in cartan], name


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), Fraction(2), "1", None])
def test_coordinates_must_be_integers(bad):
    # weight_vector(1.5, 0) used to read as (1, 0); every non-integer is refused
    with pytest.raises(NonIntegerCoordinate) as exc:
        weight_vector(bad, 0)
    assert isinstance(exc.value, TypeError)
    with pytest.raises(AdelieError):
        root_vector(0, bad)


def test_numpy_integer_coordinates_convert_exactly():
    import numpy as np

    v = weight_vector(np.int64(2 ** 62), np.int8(-3), True)
    assert v.coords == (2 ** 62, -3, 1)
    assert all(type(c) is int for c in v.coords)
    assert v == weight_vector(2 ** 62, -3, 1)


def test_a_built_root_system_refuses_every_write():
    # build's cache, and those of the tables keyed by a system, answer for
    # every system equal to it: a write once changed every later build("A2")
    rs = build("A2")
    for name in ("cartan", "all_roots", "rank"):
        with pytest.raises(ImmutableSystem) as exc:
            setattr(rs, name, ((2, 0), (0, 2)))
        assert isinstance(exc.value, AttributeError)
        with pytest.raises(ImmutableSystem):
            delattr(rs, name)
    assert build("A2").cartan == ((2, -1), (-1, 2)) and build("A2").rank == 2
    assert len(build("A2").all_roots) == 6
    # the class stays open: a tracer rebinds its methods on it
    RootSystem.pairing = RootSystem.pairing


def test_lattice_vectors_are_immutable_values():
    v = weight_vector(1, -2)
    for name in ("coords", "basis", "other"):
        with pytest.raises(ImmutableVector) as exc:
            setattr(v, name, (0, 0))
        assert isinstance(exc.value, AttributeError)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v.coords == (1, -2) and v.basis is Basis.FUNDAMENTAL_WEIGHT
    # equal vectors hash alike; the basis is part of the value
    assert v == weight_vector(1, -2) and hash(v) == hash(weight_vector(1, -2))
    assert v != root_vector(1, -2) and v != (1, -2)
    assert len({v, weight_vector(1, -2), root_vector(1, -2)}) == 2
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert twin == v and twin.basis is v.basis
    assert repr(v) == "{1,-2|weight}"


def test_dominance_flags():
    rs = build("A2")
    assert rs.is_dominant(rs.highest_root())
    assert not rs.is_dominant(rs.simple_roots[0])
    assert rs.is_dominant(weight_vector(0, 0))


@pytest.mark.parametrize("name", ["A3", "D5", "E6"])
def test_integer_pairing_matches_fraction_route(name):
    rs = build(name)
    box = [weight_vector(*c) for c in product((-1, 0, 1), repeat=rs.rank)]
    vectors = list(rs.all_roots) + box
    # oracle: rational root coordinates of v, by the Fraction inverse of C,
    # against the weight coordinates of w
    inv = _fraction_inverse(rs.cartan)
    exact = {v: _fraction_root_coords(rs, inv, v) for v in vectors}
    weights = {v: rs.to_weight_basis(v).coords for v in vectors}
    pairs = [(a, b) for a in rs.all_roots for b in rs.all_roots]
    pairs += [(a, w) for a in rs.all_roots for w in box]
    pairs += [(w, a) for a in rs.all_roots for w in box]
    for v, w in pairs:
        expected = sum((x * y for x, y in zip(exact[v], weights[w])), Fraction(0))
        got = rs.pairing(v, w)
        assert type(got) is int and got == expected, (v, w)


@pytest.mark.parametrize("name", ["A1", "A4", "D5", "E6", "E8"])
def test_positive_pairings_match_pairing(name):
    rs = build(name)
    for v in (rs.rho(), weight_vector(*range(-2, rs.rank - 2)), rs.all_roots[-1]):
        assert rs.positive_pairings(v) == [rs.pairing(v, a) for a in rs.positive_roots]


def _fraction_inverse(m):
    # exact inverse by Gauss-Jordan elimination over Fraction, with pivoting
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _fraction_root_coords(rs, inv, v):
    """The simple-root coordinates of v as a tuple of Fractions, read through
    inv, the Fraction inverse of rs.cartan, when v is a weight."""
    if v.basis is Basis.SIMPLE_ROOT:
        return tuple(map(Fraction, v.coords))
    return tuple(
        sum((v.coords[k] * inv[k][i] for k in range(rs.rank)), Fraction(0))
        for i in range(rs.rank)
    )


def test_adjugate_times_cartan_is_det_times_identity():
    # up to rank 40 _cartan_matrix admits exactly A_n (n >= 1), D_n (n >= 3)
    # and E6-E8; det(C) is n + 1 on A_n, 4 on D_n and 9 - n on E_n, and every
    # leading minor of a positive-definite form is positive, so the adjugate
    # that RootSystem reads always exists
    admitted = []
    for kind, rank in product("ADE", range(-1, 41)):
        try:
            cartan = _cartan_matrix(kind, rank)
        except IllegalType:
            continue
        admitted.append(f"{kind}{rank}")
        minors, _, adj = int_adjugate(cartan)
        det = {"A": rank + 1, "D": 4, "E": 9 - rank}[kind]
        assert len(minors) == rank and min(minors) > 0 and minors[-1] == det
        rows = range(rank)
        adj_c = [[sum(adj[i][k] * cartan[k][j] for k in rows) for j in rows] for i in rows]
        assert adj_c == [[det * (i == j) for j in rows] for i in rows], (kind, rank)
    expected = [f"A{r}" for r in range(1, 41)] + [f"D{r}" for r in range(3, 41)]
    assert admitted == expected + ["E6", "E7", "E8"]


def test_adjugate_stops_at_a_vanishing_minor():
    assert int_adjugate(((2, -2), (-2, 2))) == ((2, 0), ((-2,),), None)
    assert int_adjugate(((0, 1), (1, 0))) == ((0,), (), None)


@pytest.mark.parametrize("name", ["A3", "D5", "E6", "E8"])
def test_integer_root_coordinates_match_the_fraction_inverse(name):
    # the independent route: weight coordinates times the Fraction inverse of
    # C; to_root_basis raises exactly where a coordinate is fractional
    rs = build(name)
    inv = _fraction_inverse(rs.cartan)
    weights = [rs.to_weight_basis(a) for a in rs.all_roots]
    weights += [weight_vector(*c) for c in product((-1, 0, 1), repeat=rs.rank)]
    weights += [weight_vector(*range(2, 2 + rs.rank)), weight_vector(-5, *[0] * (rs.rank - 1))]
    raised = 0
    for w in weights:
        old = _fraction_root_coords(rs, inv, w)
        if all(c.denominator == 1 for c in old):
            assert rs.to_root_basis(w) == root_vector(*map(int, old)), w
            continue
        raised += 1
        with pytest.raises(NotInRootLattice) as exc:
            rs.to_root_basis(w)
        assert str(exc.value) == f"{w} is not in the root lattice of {name}"
    # the root lattice has index det(C) in the weight lattice: 4, 4, 3, 1
    assert (raised > 0) == (name != "E8")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python prints any int"
)
def test_repr_names_the_digits_of_a_coordinate_too_long_to_print():
    big = 10 ** 5000
    assert repr(weight_vector(big, -big, -3)) == "{<5001 digits>,-<5001 digits>,-3|weight}"
    assert repr(root_vector(10 ** 4299, 0)) == f"{{{10 ** 4299},0|root}}"
