"""Chevalley-basis structure constants n_{alpha,beta} and the bracket they define.

Sign system.  A bimultiplicative function eps on the root lattice is fixed by
its values on generator pairs: eps(a_i, a_i) = -1; for i < j, eps(a_i, a_j) is
-1 when the nodes are adjacent and +1 otherwise; eps(a_j, a_i) = +1 for i < j.
This gives eps(a, b) * eps(b, a) = (-1)^(a,b) and eps(a, a) = -1 on roots.

Setting n directly to eps on every root pair is compatible with the relations
[h_i, x_a] = (a, a_i) x_a and [x_a, x_b] = n_{a,b} x_{a+b} but NOT with the
normalisation [x_a, x_{-a}] = +h_a: the triple (x_a, x_{-a}, x_b) then fails
the Jacobi identity whenever b + a is a root and b - a is not (the product
n_{b,a} n_{-a,a+b} comes out +1 where Jacobi forces -1).  The standard repair
is the basis rescaling x_a -> -x_a on negative roots, which multiplies each
constant by -1 for every negative root among {a, b, a+b}:

    n_{a,b} = (-1)^(# negative roots among a, b, a+b) * eps(a, b).

A table is its system and its sign table; the root sums, coordinates and
weights are the system's.
Every invariant below is verified, not assumed; violations raise
ConstructionFailure at table-build time, and report hands out copies.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from operator import index
from types import MappingProxyType

import numpy as np

from .errors import (
    BudgetExceeded,
    CoefficientOverflow,
    ConstructionFailure,
    NonIntegerCoordinate,
    NotALieElement,
    NotChevalleyConstants,
    SystemMismatch,
)
from .report import VerificationReport
from .roots import LatticeVector, RootSystem, checked_index, checked_system, root_vector

Coords = tuple[int, ...]


def _sealed(a: np.ndarray) -> np.ndarray:
    """a as a read-only view of immutable bytes, which refuses
    flags.writeable = True; an array held so already is returned as it is,
    so that copies share it."""
    owner = a
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, bytes):
        return a
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


@dataclass(frozen=True, eq=False)
class ChevalleyConstants:
    """Structure-constant table over one root system: the system and its
    sign table, sign_table[i, j] = n in {-1, 0, +1}.  Two tables are equal
    only when they are the same instance, which is hashed as an object, and
    the repr names the system alone.
    """

    system: RootSystem
    sign_table: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rs, table = self.system, self.sign_table
        if not isinstance(rs, RootSystem):
            raise NotChevalleyConstants(f"{rs!r} is not a RootSystem")
        shape = (len(rs.all_roots),) * 2
        if not (isinstance(table, np.ndarray) and table.dtype.kind in "iu"
                and table.shape == shape and ((table >= -1) & (table <= 1)).all()):
            raise NotChevalleyConstants(
                f"{rs.name} reads an integer ndarray of shape {shape} in -1..1 as its sign table"
            )
        # sealed, as bracket_table's are: the cached verdict stays the verdict
        # on these cells (flip and replace build a new array or share this one)
        object.__setattr__(self, "sign_table", _sealed(table))

    @property
    def sum_index(self) -> np.ndarray:
        """The system's root sums: [i, j] indexes root_i + root_j, n_roots if no root."""
        return _root_sums(self.system)[0]

    def n(self, alpha: LatticeVector, beta: LatticeVector) -> int:
        """n_{alpha,beta}; zero when alpha + beta is not a root."""
        i = self.system.root_order_index(alpha)
        j = self.system.root_order_index(beta)
        return int(self.sign_table[i, j])

    def nonzero_entries(self):
        """Yield (alpha, beta, sign) in canonical order, one per nonzero entry."""
        roots = self.system.all_roots
        nz = np.argwhere(self.sign_table != 0)
        for i, j in nz:
            yield roots[i], roots[j], int(self.sign_table[i, j])

    def flip(self, alpha: LatticeVector, beta: LatticeVector,
             one_sided: bool = False) -> "ChevalleyConstants":
        """Copy with n_{alpha,beta} negated; mirrors n_{beta,alpha} unless one_sided."""
        i = self.system.root_order_index(alpha)
        j = self.system.root_order_index(beta)
        table = self.sign_table.copy()
        table[i, j] = -table[i, j]
        if not one_sided:
            table[j, i] = -table[j, i]
        return ChevalleyConstants(self.system, table)

    @cached_property
    def bracket_table(self) -> tuple[np.ndarray, ...]:
        """Brackets of the basis h_1..h_r, x_alpha (canonical root order) as
        term lists in cell order: [b_row, b_col] has coeff on b_target, as
        int32 rows, columns and targets and int8 coefficients (signs, weight
        and root coordinates, at most 6), and [x_a, x_{-a}] = h_a has a term
        on h_m for each nonzero coordinate m of a (x_{-a} is n_roots // 2 from
        x_a, mod n_roots: all_roots lists the positives, then their negatives
        in the same order).  This is the one stored table; the Jacobi sweep,
        the obstruction expansion, bracket and adjoint_matrix read it as it is."""
        r = self.system.rank
        sum_index, coords, weights = _root_sums(self.system)
        n_roots = len(coords)
        i, a = np.nonzero(weights.T)
        b, k = np.nonzero(weights)
        p, q = np.nonzero((sum_index < n_roots) & (self.sign_table != 0))
        s, m = np.nonzero(coords)
        row = np.concatenate([i, r + b, r + p, r + s])
        col = np.concatenate([r + a, k, r + q, r + (s + n_roots // 2) % n_roots])
        tgt = np.concatenate([r + a, r + b, r + sum_index[p, q], m])
        val = np.concatenate([weights[a, i], -weights[b, k], self.sign_table[p, q], coords[s, m]])
        # cell order is the order of one key per term, below dim ** 3 (a
        # stable sort keeps a repeated term's order, as the terms come)
        dim = r + n_roots
        order = np.argsort((row * dim + col) * dim + tgt, kind="stable")
        # sealed: the cached report, which build_system trusts, stays the
        # verdict on these terms
        return tuple(_sealed(x[order].astype(np.int32)) for x in (row, col, tgt)) + (
            _sealed(val[order].astype(np.int8)),
        )

    @property
    def report(self) -> VerificationReport:
        """A copy of the check that gates the build, so that a caller's edit
        of it reaches no later read."""
        rep = self._verdict
        return VerificationReport(rep.name, rep.checked, list(rep.violations), dict(rep.details))

    @cached_property
    def _verdict(self) -> VerificationReport:
        """The check that gates the build, run once per instance (flipped and
        replaced copies run their own; read it through report): support and
        antisymmetry of the sign table on all root pairs, then the Jacobi
        identity on every basis triple.

        On a table with the right support that is antisymmetric, the
        three-term identity n_{a,b} n_{a+b,g} + n_{b,g} n_{b+g,a} +
        n_{g,a} n_{g+a,b} = 0 is, up to sign, the x_{a+b+g} coefficient of the
        Jacobi sum on (x_a, x_b, x_g), so the check covers it.  Distinct
        unordered triples determine the identity (it is alternating and
        vanishes identically on repeats).  _jacobi_first_failure reads the
        certificate first, then expands the triples with an h_i or a simple
        root vector, or every triple when it fails: the full sweep's verdict.
        checked counts both pair sweeps, then the triples in lexicographic
        order up to the first failing one: all C(dim, 3) if none.
        """
        rep = VerificationReport(name=f"chevalley-{self.system.name}")
        rep.details["jacobi"] = "exhaustive"
        n_roots = len(self.system.all_roots)
        table = self.sign_table
        valid = self.sum_index < n_roots
        rep.checked += 2 * n_roots * n_roots
        for bad, what in (
            ((table != 0) != valid, "support"),
            (valid & (table + table.T != 0), "antisymmetry"),
        ):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                rep.violations.append(f"{what} fails at pair ({i},{j})")
        dim = self.system.rank + n_roots
        failure = _jacobi_first_failure(self)
        if failure is None:
            rep.checked += comb(dim, 3)
        else:
            i, j, k = failure
            after = comb(dim - 1 - i, 3) + comb(dim - 1 - j, 2) + dim - 1 - k
            rep.checked += comb(dim, 3) - after
            rep.violations.append(f"jacobi fails on basis triple ({i},{j},{k})")
        return rep


@dataclass(frozen=True)
class LieElement:
    """Integer combination of Cartan generators h_i and root vectors x_alpha.
    It is made only from a RootSystem (NotARootSystem otherwise), and dicts
    (NotALieElement otherwise) of integer coefficients (NonIntegerCoordinate)
    keyed by Cartan indices (IndexOutOfRange) and by the coordinates of roots
    (NotARootClass); it keeps read-only copies, with Python ints, so that no
    entry changes once checked.  +, bracket and adjoint_matrix refuse an
    operand that is not one with NotALieElement."""

    system: RootSystem
    cartan: Mapping[int, int] = field(default_factory=dict)
    roots: Mapping[Coords, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rs = checked_system(self.system)
        for name, terms in (("cartan", self.cartan), ("roots", self.roots)):
            if not isinstance(terms, (dict, MappingProxyType)):
                raise NotALieElement(f"{name} {terms!r} is not a dict of coefficients")
        cartan = {
            checked_index(i, 0, rs.rank - 1, "Cartan index"): _coefficient(v)
            for i, v in self.cartan.items()
        }
        place = rs.root_order_index
        roots = {
            rs.all_roots[place(root_vector(*c) if isinstance(c, tuple) else c)].coords:
                _coefficient(v)
            for c, v in self.roots.items()
        }
        object.__setattr__(self, "cartan", MappingProxyType(cartan))
        object.__setattr__(self, "roots", MappingProxyType(roots))

    def __reduce__(self):  # a mappingproxy does not pickle
        return LieElement, (self.system, dict(self.cartan), dict(self.roots))

    @classmethod
    def h(cls, system: RootSystem, i: int) -> "LieElement":
        """h_{i+1}; IndexOutOfRange for an i that is not an integer in 0..rank-1."""
        rank = checked_system(system).rank
        return cls(system, cartan={checked_index(i, 0, rank - 1, "Cartan index"): 1})

    @classmethod
    def x(cls, system: RootSystem, alpha: LatticeVector) -> "LieElement":
        k = checked_system(system).root_order_index(alpha)
        return cls(system, roots={system.all_roots[k].coords: 1})

    def __add__(self, other: "LieElement") -> "LieElement":
        if _checked_element(other).system != self.system:
            raise SystemMismatch("cannot add elements over different systems")

        def merged(a: dict, b: dict) -> dict:
            out = dict(a)
            for key, v in b.items():
                out[key] = out.get(key, 0) + v
            return {key: v for key, v in out.items() if v}

        return LieElement(
            self.system, merged(self.cartan, other.cartan), merged(self.roots, other.roots)
        )

    def scale(self, k: int) -> "LieElement":
        """k times this element; NonIntegerCoordinate for a k that
        operator.index does not read as an integer."""
        try:
            k = index(k)
        except TypeError:
            raise NonIntegerCoordinate(f"scale {k!r} is not an integer") from None
        if k == 0:
            return LieElement(self.system)
        return LieElement(
            self.system,
            {i: k * v for i, v in self.cartan.items()},
            {c: k * v for c, v in self.roots.items()},
        )

    def __repr__(self) -> str:
        hs = [f"{v}*h{i + 1}" for i, v in sorted(self.cartan.items())]
        xs = [f"{v}*x{list(c)}" for c, v in sorted(self.roots.items())]
        return " + ".join(hs + xs) if hs or xs else "0"


def _eps_parity_matrix(rs: RootSystem) -> np.ndarray:
    """Exponent of -1 in eps on generator pairs: E[i][j] with eps = (-1)^E."""
    r = rs.rank
    e = np.zeros((r, r), dtype=np.uint8)
    for i in range(r):
        e[i, i] = 1
        for j in range(i + 1, r):
            if rs.cartan[i][j] == -1:
                e[i, j] = 1
    return e


def build_constants(rs: RootSystem) -> ChevalleyConstants:
    """Build the full sign table for rs, once per root system, and verify its
    invariants exhaustively.  rs is read through checked_system before the
    cache hashes it, and a system past the int32 keys is refused first."""
    return _build_constants(checked_system(rs))


@lru_cache(maxsize=33)  # one entry for each type that build admits
def _root_sums(rs: RootSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sealed arrays of rs that every table over it reads, behind a guard
    on dim ** 3 that keeps the int32 keys of their readers from wrapping:
    sum_index, and the int64 root coordinates of all_roots and their weights
    (coordinates times the Cartan matrix)."""
    roots = rs.all_roots
    n_roots = len(roots)
    dim = rs.rank + n_roots
    if dim ** 3 >= 2 ** 31:
        raise BudgetExceeded(f"{rs.name}: dimension {dim} is past the int32 keys "
                             "of _jacobi_certified and build_system")
    coords = np.array([r.coords for r in roots], dtype=np.int64)
    weights = coords @ np.array(rs.cartan, dtype=np.int64)

    # every root has square 2, so a + b is a root exactly when (a, b) = -1:
    # only those pairs are looked up.  Pack each root into one int, sum_i c_i
    # * base**i with a base wide enough for pair sums, and look their sums up
    # among the root keys, sorted once.  From A29 and D21 on the keys wrap mod
    # 2**64 but stay additive, so a pair's sum is still the key of the root
    # a + b: the lookup is exact while no two roots share a key
    base = 4 * int(np.abs(coords).max()) + 1
    keys = coords @ base ** np.arange(rs.rank, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if (shared := np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])).size:
        i, j = order[shared[0]], order[shared[0] + 1]
        raise ConstructionFailure(f"{rs.name}: roots {roots[i]} and {roots[j]} share one key")
    p, q = np.divmod(np.flatnonzero(weights @ coords.T == -1).astype(np.int32), n_roots)
    sums = keys[p] + keys[q]
    at = np.minimum(np.searchsorted(sorted_keys, sums), n_roots - 1)
    missing = np.flatnonzero(sorted_keys[at] != sums)
    if missing.size:
        i, j = p[missing[0]], q[missing[0]]
        raise ConstructionFailure(
            f"{rs.name}: roots {roots[i]} and {roots[j]} pair to -1, "
            "but their sum is not a root"
        )
    sum_index = np.full((n_roots, n_roots), n_roots, dtype=np.int32)
    sum_index[p, q] = order[at]
    return _sealed(sum_index), _sealed(coords), _sealed(weights)


@lru_cache(maxsize=33)  # one entry for each type that build admits
def _build_constants(rs: RootSystem) -> ChevalleyConstants:
    sum_index, coords, _ = _root_sums(rs)
    n_roots = len(coords)

    # eps parity over all pairs in one shot, then the negative-root correction;
    # uint8 arithmetic runs mod 256, an even modulus, so every parity is
    # exact, and no temporary outgrows a 240 x 240 byte array
    odd = (coords % 2).astype(np.uint8)
    parity = odd @ (_eps_parity_matrix(rs) % 2).astype(np.uint8) @ odd.T
    # negative flags of the roots and, at index n_roots, of "not a root"
    negative = (np.arange(n_roots + 1) >= n_roots // 2).astype(np.uint8)
    negative[n_roots] = 0
    parity += negative[:n_roots, None] + negative[None, :n_roots] + negative[sum_index]
    table = 1 - 2 * (parity & 1).view(np.int8)
    table[sum_index == n_roots] = 0
    del odd, parity

    constants = ChevalleyConstants(rs, table)
    del table  # the constants hold a sealed copy
    report = constants.report
    if not report.ok:
        raise ConstructionFailure(
            f"{rs.name}: {len(report.violations)} violations, "
            f"first: {report.violations[0]}"
        )
    return constants


def checked_constants(c) -> ChevalleyConstants:
    """c when it is a ChevalleyConstants; NotChevalleyConstants for anything
    else, so a function that reads a table refuses a system or None by type."""
    if isinstance(c, ChevalleyConstants):
        return c
    raise NotChevalleyConstants(f"{c!r} is not a ChevalleyConstants")


def _coefficient(v) -> int:
    try:
        return index(v)
    except TypeError:
        raise NonIntegerCoordinate(f"coefficient {v!r} is not an integer") from None


def _checked_element(e) -> LieElement:
    # the one check of an element argument
    if isinstance(e, LieElement):
        return e
    raise NotALieElement(f"{e!r} is not a LieElement")


def _indexed(e: LieElement, c: ChevalleyConstants) -> list[tuple[int, int]]:
    """(basis index, coefficient) for each component of e; NotALieElement for
    an e that is not one, SystemMismatch for one over another system.  Its
    fields were checked where it was made, and they are read-only."""
    rs = c.system
    if _checked_element(e).system != rs:
        raise SystemMismatch("bracket arguments over a different system")
    roots = [(rs.rank + rs.root_order_index(root_vector(*cc)), v) for cc, v in e.roots.items()]
    return [*e.cartan.items(), *roots]


def _run(keys: np.ndarray, i: int) -> slice:
    """The run of sorted keys equal to i (a needle of another dtype would cast every key)."""
    return slice(*np.searchsorted(keys, np.array([i, i + 1], dtype=keys.dtype)))


def bracket(x: LieElement, y: LieElement, c: ChevalleyConstants) -> LieElement:
    """Lie bracket [x, y] = ad(x) y, from the cells (i, j) of c.bracket_table,
    i a component of x and j of y: the run of column j in the run of row i,
    summed in Python integers, so no coefficient wraps."""
    rs = checked_constants(c).system
    row, col, tgt, val = c.bracket_table
    ys = _indexed(y, c)
    image = [0] * (rs.rank + len(rs.all_roots))
    for i, a in _indexed(x, c):
        cells = _run(row, i)
        cols, targets, coeffs = col[cells], tgt[cells], val[cells]
        for j, b in ys:
            cell = _run(cols, j)
            for t, v in zip(targets[cell].tolist(), coeffs[cell].tolist()):
                image[t] += a * b * v
    return LieElement(
        rs,
        {i: v for i, v in enumerate(image[:rs.rank]) if v},
        {a.coords: v for a, v in zip(rs.all_roots, image[rs.rank:]) if v},
    )


def adjoint_matrix(x: LieElement, c: ChevalleyConstants) -> np.ndarray:
    """Int64 matrix of ad(x) on the basis (h_1..h_r, x_roots), from the runs
    of x's rows in the table; CoefficientOverflow when the sum of |x|'s
    coefficients times the largest |table coefficient| leaves int64."""
    row, col, tgt, val = checked_constants(c).bracket_table
    dim = c.system.rank + len(c.system.all_roots)
    xs = _indexed(x, c)
    if sum(abs(a) for _, a in xs) * max(int(val.max()), -int(val.min())) >= 2 ** 63:
        raise CoefficientOverflow(f"ad({x}) may leave int64")
    m = np.zeros((dim, dim), dtype=np.int64)
    for i, a in xs:
        run = _run(row, i)
        np.add.at(m, (tgt[run], col[run]), a * val[run].astype(np.int64))
    return m


def runs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index): index runs through starts[i]..ends[i] - 1 for each i in
    turn, and owner holds that i."""
    lens = ends - starts
    owner = np.repeat(np.arange(len(lens)), lens)
    return owner, np.arange(len(owner)) + (starts - np.cumsum(lens) + lens)[owner]


def sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the values of equal keys; sorted keys, zero sums dropped.  Integer
    sums do not depend on the order of equal keys, so the sort need not be
    stable."""
    if not keys.size:
        return keys, vals
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(vals, starts)
    keep = sums != 0
    return keys[starts][keep], sums[keep]


def _jacobi_first_failure(c: ChevalleyConstants) -> tuple[int, int, int] | None:
    """Lexicographically first basis triple i < j < k whose Jacobi sum
    [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]] is not zero.

    _jacobi_certified is read first.  When it holds, Jacobi on the triples
    with an h_i or a simple root vector (smallest index below stop, rank + 1
    + the last place of a simple root in all_roots) proves it on the rest,
    and one sweep expands those alone, whose failures precede every other
    triple; when it does not, one sweep expands every triple.

    Sign rule: the inner cells are read in that cyclic order, so the table
    need not be antisymmetric, and an inner cell (p, q) serves the outer
    index u, with sign +1, when (p, q, u) is a rotation of the sorted triple:
    p < q with u outside [p, q], or p > q with u between them.  Products are
    keyed ((i * dim + j) * dim + k) * dim + target and equal keys summed, by
    ascending smallest index, so the least surviving key of the first one
    that keeps one is the first failing triple.
    """
    rs = c.system
    dim = rs.rank + len(rs.all_roots)
    stop = rs.rank + 1 + max(map(rs.root_order_index, rs.simple_roots))
    return _jacobi_sweep(c, dim, stop if _jacobi_certified(c) else dim)


def _jacobi_sweep(c: ChevalleyConstants, dim: int, end: int) -> tuple[int, int, int] | None:
    """The first failing triple whose smallest index lo is below end, one lo
    at a time: each inner term [b_p, b_q] = v b_t meets its outer terms
    [b_u, b_t] as one run of the terms sorted by (column, row) or, for row
    lo's cells against the cells (p, q) with lo < p < q, by (target, p).
    The products of each lo are summed by key through sum_by_key."""
    row, col, tgt, val = c.bracket_table
    col_key = col * dim + row
    by_col = np.argsort(col_key, kind="stable")
    col_key = col_key[by_col]
    upper = np.flatnonzero(row < col)
    tgt_key = tgt[upper] * dim + row[upper]
    by_tgt = upper[np.argsort(tgt_key, kind="stable")]
    tgt_key.sort()
    row_ptr = np.searchsorted(row, np.arange(end + 1))

    def run(cells, order, keys, first, last):
        # each of cells against its run of the terms of order keyed in [first, last)
        n, k = runs(np.searchsorted(keys, first), np.searchsorted(keys, last))
        return cells[n], order[k]

    for lo in range(end):
        cells = np.arange(row_ptr[lo], row_ptr[lo + 1])
        # outer row lo against the inner cells (p, q), lo < p < q
        t = col[cells] * dim
        a, b = run(cells, by_tgt, tgt_key, t + lo + 1, t + dim)
        parts = [(row[b], col[b], a, b)]
        # inner cells (lo, q), lo < q, against the outer rows u > q
        right = cells[col[cells] > lo]
        t = tgt[right] * dim
        a, b = run(right, by_col, col_key, t + col[right] + 1, t + dim)
        parts.append((col[a], row[b], b, a))
        # inner cells (q, lo), lo < q, against the outer rows lo < u < q
        span = np.array([lo + 1, dim], dtype=col_key.dtype) + lo * dim
        left = by_col[slice(*np.searchsorted(col_key, span))]
        t = tgt[left] * dim
        a, b = run(left, by_col, col_key, t + lo + 1, t + row[left])
        parts.append((row[b], row[a], b, a))
        # (lo, mid, hi, target) keyed in base dim in int64, below dim ** 4,
        # and summed: the least key left is the first failing triple
        keys, _ = sum_by_key(
            np.concatenate([(np.add(lo * dim, j, dtype=np.int64) * dim + k) * dim + tgt[o]
                            for j, k, o, _ in parts]),
            np.concatenate([np.multiply(val[o], val[i], dtype=np.int64) for _, _, o, i in parts]),
        )
        if keys.size:
            key = int(keys[0])
            return lo, key // dim ** 2 % dim, key // dim % dim
    return None


def _jacobi_certified(c: ChevalleyConstants) -> bool:
    """Whether three checks of c.bracket_table prove the Jacobi identity on
    every basis triple, given that it holds on each triple with an h_i or a
    simple root vector e_i.

    The elements x whose ad x is a derivation of the bracket form a
    subalgebra D, as ad [x, y] = [ad x, ad y].  On an antisymmetric table,
    Jacobi on a triple is the derivation identity, so every h_i and e_i lies
    in D.  The Chevalley involution w (h -> -h, x_a -> -x_{-a}) is an
    automorphism when the table is w-invariant; then D is w-stable and holds
    each f_i = -w(e_i).  If each non-simple positive root a has a cell
    (x_b, e_i), i the first letter of a's descent and b = a - a_i, with one
    term, nonzero and on x_a, then every x_a lies in D by induction on
    height, and every x_{-a} by w: D is the whole algebra.  The checks read
    the bracket as its terms summed by cell and target through sum_by_key:
    transposed and negated, it is itself; mapped by w and negated, it is
    itself; and the step cells hold one such term.
    """
    rs = c.system
    r, n_roots = rs.rank, len(rs.all_roots)
    dim = r + n_roots
    row, col, tgt, val = c.bracket_table
    val = val.astype(np.int32)  # so that neither -val nor a sum wraps
    # w on the basis: the identity on the h's, x_a to x_{-a}, n_roots // 2 on
    w = np.arange(dim, dtype=np.int32)
    w[r:] = r + (w[r:] - r + n_roots // 2) % n_roots

    def summed(row, col, tgt, val):
        # the bracket as the sum of its terms, keyed (row * dim + col) * dim + target
        return sum_by_key((row * dim + col) * dim + tgt, val)

    def is_bracket(*terms):
        return all(map(np.array_equal, summed(*terms), (keys, sums)))

    keys, sums = summed(row, col, tgt, val)
    if not (is_bracket(col, row, tgt, -val) and is_bracket(w[row], w[col], w[tgt], -val)):
        return False
    # the step cells from the closure's record: positive root a is root k
    # plus alpha_i, i the first letter of a's descent (k = -1 on the simple
    # roots, which have no cell); the roots keep their places in all_roots
    k, i = np.array(rs.positive_steps, dtype=np.int64).T
    simple = np.empty(r, dtype=np.int64)
    simple[i[k < 0]] = np.flatnonzero(k < 0)
    built = np.flatnonzero(k >= 0)
    cell_row, cell_col, target = r + k[built], r + simple[i[built]], r + built
    # the summed terms are nonzero, so a step cell holds one when its run is one long
    cells, targets = np.divmod(keys, dim)
    wanted = cell_row * dim + cell_col
    at = np.searchsorted(cells, wanted)
    one = np.searchsorted(cells, wanted, "right") - at == 1
    return bool(one.all() and (targets[at] == target).all())


def verify_chevalley(c: ChevalleyConstants) -> VerificationReport:
    """The check that gates the build, as c.report hands it out: a copy."""
    return checked_constants(c).report


def dump_constants(c: ChevalleyConstants) -> str:
    """One line per nonzero entry: 'alpha-coords | beta-coords | sign'."""
    lines = [
        f"{','.join(map(str, a.coords))} | {','.join(map(str, b.coords))} | {s:+d}"
        for a, b, s in checked_constants(c).nonzero_entries()
    ]
    return "\n".join(lines) + "\n"
