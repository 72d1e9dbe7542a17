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

Every invariant below is verified, not assumed; violations raise
ConstructionFailure at table-build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from operator import index

import numpy as np

from .errors import (
    BudgetExceeded,
    CoefficientOverflow,
    ConstructionFailure,
    NonIntegerCoordinate,
    SystemMismatch,
)
from .report import VerificationReport
from .roots import LatticeVector, RootSystem, checked_index, root_vector

Coords = tuple[int, ...]

# products that one block of the Jacobi sweep expands at a time: enough that
# numpy's per-call overhead is spread thin, few enough that the arrays of one
# block stay small
_PRODUCT_BUDGET = 8192


@dataclass
class ChevalleyConstants:
    """Structure-constant table over one root system.

    sum_index[i, j] holds the canonical index of root_i + root_j, or n_roots
    when the sum is not a root; sign_table[i, j] is n in {-1, 0, +1}.
    """

    system: RootSystem
    sign_table: np.ndarray
    sum_index: np.ndarray

    def __post_init__(self) -> None:
        # read-only, as bracket_table's are: the cached report stays the verdict
        # on these cells (flip and replace build new arrays or reuse these)
        for table in (self.sign_table, self.sum_index):
            table.flags.writeable = False

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
        return ChevalleyConstants(self.system, table, self.sum_index)

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
        rs = self.system
        r = rs.rank
        coords = np.array([a.coords for a in rs.all_roots], dtype=np.int64)
        n_roots = len(coords)
        weights = coords @ np.array(rs.cartan, dtype=np.int64)
        i, a = np.nonzero(weights.T)
        b, k = np.nonzero(weights)
        p, q = np.nonzero((self.sum_index < n_roots) & (self.sign_table != 0))
        s, m = np.nonzero(coords)
        row = np.concatenate([i, r + b, r + p, r + s])
        col = np.concatenate([r + a, k, r + q, r + (s + n_roots // 2) % n_roots])
        tgt = np.concatenate([r + a, r + b, r + self.sum_index[p, q], m])
        val = np.concatenate([weights[a, i], -weights[b, k], self.sign_table[p, q], coords[s, m]])
        order = np.lexsort((tgt, col, row))
        table = tuple(x[order].astype(np.int32) for x in (row, col, tgt)) + (
            val[order].astype(np.int8),
        )
        # read-only: the cached report, which build_system trusts, stays the
        # verdict on these terms
        for x in table:
            x.flags.writeable = False
        return table

    @cached_property
    def report(self) -> VerificationReport:
        """The check that gates the build, run once per instance (flipped and
        replaced copies run their own; read it through verify_chevalley):
        support and antisymmetry of the sign table on all root pairs, then
        the Jacobi identity on every basis triple.

        On a table with the right support that is antisymmetric, the
        three-term identity n_{a,b} n_{a+b,g} + n_{b,g} n_{b+g,a} +
        n_{g,a} n_{g+a,b} = 0 is, up to sign, the x_{a+b+g} coefficient of the
        Jacobi sum on (x_a, x_b, x_g), so the sweep covers it.  Distinct
        unordered triples determine the identity (it is alternating and
        vanishes identically on repeats).  checked counts both pair sweeps,
        then the triples in lexicographic order up to the first failing one:
        all C(dim, 3) if none.
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


@dataclass
class LieElement:
    """Integer combination of Cartan generators h_i and root vectors x_alpha."""

    system: RootSystem
    cartan: dict[int, int] = field(default_factory=dict)
    roots: dict[Coords, int] = field(default_factory=dict)

    @classmethod
    def h(cls, system: RootSystem, i: int) -> "LieElement":
        return cls(system, cartan={i: 1})

    @classmethod
    def x(cls, system: RootSystem, alpha: LatticeVector) -> "LieElement":
        return cls(system, roots={system.all_roots[system.root_order_index(alpha)].coords: 1})

    def __add__(self, other: "LieElement") -> "LieElement":
        if other.system != self.system:
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
        if k == 0:
            return LieElement(self.system)
        return LieElement(
            self.system,
            {i: k * v for i, v in self.cartan.items()},
            {c: k * v for c, v in self.roots.items()},
        )

    def is_zero(self) -> bool:
        return not self.cartan and not self.roots

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


@lru_cache(maxsize=33)  # one entry for each type that build admits
def build_constants(rs: RootSystem) -> ChevalleyConstants:
    """Build the full sign table for rs, once per root system, and verify its
    invariants exhaustively."""
    roots = rs.all_roots
    n_roots = len(roots)
    coords = np.array([r.coords for r in roots], dtype=np.int64)

    # pack each root into one int, sum_i c_i * base**i, with a base wide
    # enough for pair sums, and look each row of pair sums up among the
    # sorted root keys; one row at a time keeps the peak memory small
    base = 4 * int(np.abs(coords).max()) + 1
    keys = coords @ base ** np.arange(rs.rank, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sum_index = np.empty((n_roots, n_roots), dtype=np.int32)
    for i, key in enumerate(keys):
        k = order[np.minimum(np.searchsorted(keys, key + keys, sorter=order), n_roots - 1)]
        sum_index[i] = np.where(keys[k] == key + keys, k, n_roots)

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

    constants = ChevalleyConstants(rs, table, sum_index)
    report = constants.report
    if not report.ok:
        raise ConstructionFailure(
            f"{rs.name}: {len(report.violations)} violations, "
            f"first: {report.violations[0]}"
        )
    return constants


def _indexed(e: LieElement, c: ChevalleyConstants) -> list[tuple[int, int]]:
    """(basis index, coefficient) for each component of e, the coefficient
    read through operator.index; IndexOutOfRange or NotARootClass for a
    Cartan index or root key that names no basis element, and
    NonIntegerCoordinate for a coefficient that is not an integer."""
    rs = c.system
    if e.system != rs:
        raise SystemMismatch("bracket arguments over a different system")
    terms = [(checked_index(i, 0, rs.rank - 1, "Cartan index"), v) for i, v in e.cartan.items()]
    terms += [(rs.rank + rs.root_order_index(root_vector(*cc)), v) for cc, v in e.roots.items()]
    try:
        return [(k, index(v)) for k, v in terms]
    except TypeError:
        raise NonIntegerCoordinate(f"{e} has a coefficient that is not an integer") from None


def _run(keys: np.ndarray, i: int) -> slice:
    """The run of sorted keys equal to i (a needle of another dtype would cast every key)."""
    return slice(*np.searchsorted(keys, np.array([i, i + 1], dtype=keys.dtype)))


def bracket(x: LieElement, y: LieElement, c: ChevalleyConstants) -> LieElement:
    """Lie bracket [x, y] = ad(x) y, from the cells (i, j) of c.bracket_table,
    i a component of x and j of y: the run of column j in the run of row i,
    summed in Python integers, so no coefficient wraps."""
    rs = c.system
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


def basis_elements(c: ChevalleyConstants) -> list[LieElement]:
    """h_1..h_r followed by x_alpha in canonical root order."""
    rs = c.system
    return [LieElement.h(rs, i) for i in range(rs.rank)] + [
        LieElement.x(rs, r) for r in rs.all_roots
    ]


def adjoint_matrix(x: LieElement, c: ChevalleyConstants) -> np.ndarray:
    """Int64 matrix of ad(x) on the basis (h_1..h_r, x_roots), from the runs
    of x's rows in the table; CoefficientOverflow when the sum of |x|'s
    coefficients times the largest |table coefficient| leaves int64."""
    row, col, tgt, val = c.bracket_table
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


def blocks(costs: np.ndarray):
    """Yield (start, end) for consecutive ranges of owners 0..len(costs) - 1
    whose costs add up to at most _PRODUCT_BUDGET; an owner that costs more
    on its own is a range of one."""
    ends = np.concatenate(([0], np.cumsum(costs)))
    start = 0
    while start < len(costs):
        end = int(np.searchsorted(ends, ends[start] + _PRODUCT_BUDGET, "right")) - 1
        end = max(end, start + 1)
        yield start, end
        start = end


def _jacobi_first_failure(c: ChevalleyConstants) -> tuple[int, int, int] | None:
    """Lexicographically first basis triple i < j < k whose Jacobi sum
    [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]] is not zero.

    Sign rule: the inner cells are read in that cyclic order, so the table
    need not be antisymmetric, and an inner cell (p, q) serves the outer
    index u, with sign +1, when (p, q, u) is a rotation of the sorted triple:
    p < q with u outside [p, q], or p > q with u between them.  Products are
    keyed ((i * dim + j) * dim + k) * dim + target and equal keys summed.
    Every product belongs to the triples of one smallest index lo, and the
    sweep expands consecutive ranges of lo, each of at most _PRODUCT_BUDGET
    products unless a single lo has more, so the least surviving key of the
    first range that keeps one is the first failing triple.

    Only stored terms are expanded, never a dense slice of the table: each
    inner term [b_p, b_q] = v b_t meets its outer terms [b_u, b_t] as one run
    of the term lists of c.bracket_table, sorted by (column, row) or, for
    row lo's cells against the cells (p, q) with lo < p < q, by (target, p);
    the runs of every lo are found at once.  A product of two int8
    coefficients lies in -16384..16384, so it is added to its key shifted
    left by 16 bits: one sort brings equal keys together, in key order, and
    rounding the shift back recovers the key.  The sorted terms' shares of
    the key, below dim ** 3, are int32, and the shifted keys, below
    dim ** 4 << 16, fit int64: both hold for dim < 1291, far past D16
    (dim 496).
    """
    dim = c.system.rank + len(c.system.all_roots)
    if dim ** 3 >= 2 ** 31:
        raise BudgetExceeded(f"{c.system.name}: dimension {dim} is past the packed Jacobi keys")
    cost, parts = _jacobi_parts(c, dim)
    for lo0, lo1 in blocks(cost):
        packed = []
        for ptr, starts, ends, a_key, a_val, b_key, b_val in parts:
            s = slice(ptr[lo0], ptr[lo1])
            j, k = runs(starts[s], ends[s])
            part = a_key[s][j] + b_key[k]
            part <<= 16
            part += a_val[s][j] * b_val[k]
            packed.append(part)
        packed = np.concatenate(packed)
        if not packed.size:
            continue
        packed.sort()
        keys = (packed + 0x8000) >> 16
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        bad = np.flatnonzero(np.add.reduceat(packed - (keys << 16), first))
        if bad.size:
            key = int(keys[first[bad[0]]])
            return key // dim ** 3, key // dim ** 2 % dim, key // dim % dim
    return None


def _jacobi_parts(c: ChevalleyConstants, dim: int):
    """The runs of the Jacobi sweep, one part per kind of triple (lo, mid, hi):
    for each inner or outer cell, by ascending owner lo, the start and end
    of its run among the sorted terms, its share of the key (int64) and its
    coefficient, and for each sorted term its share of the key (int32) and
    its coefficient; with the pointers of each lo into the part and the
    product count of each lo."""
    row, col, tgt, val = c.bracket_table
    val = val.astype(np.int16)
    cost = np.zeros(dim, dtype=np.int64)
    parts = []

    def key(dtype, *digits):
        # the base-dim number (lo, mid, hi, target) with the given digits,
        # None for a 0 digit
        out = np.zeros(max(map(np.size, digits)), dtype=dtype)
        for d in digits:
            out *= dim
            if d is not None:
                out += d
        return out

    def add(cells, owner, keys, first, last, a_key, b_key, order):
        # the terms of cells, by ascending owner, against their runs of the
        # terms of order, keyed by keys in [first, last)
        starts = np.searchsorted(keys, first).astype(np.int32)
        ends = np.searchsorted(keys, last).astype(np.int32)
        ptr = np.searchsorted(owner, np.arange(dim + 1))
        done = np.zeros(len(ends) + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=done[1:])
        cost[:] += done[ptr[1:]] - done[ptr[:-1]]
        parts.append((ptr, starts, ends, a_key, val[cells], b_key, val[order]))

    # outer row lo against the inner cells (p, q), lo < p < q, sorted by
    # (target, p) ...
    upper = np.flatnonzero(row < col).astype(np.int32)
    tgt_key = tgt[upper] * dim + row[upper]
    by_tgt = upper[np.argsort(tgt_key, kind="stable")]
    tgt_key.sort()
    add(slice(None), row, tgt_key, col * dim + row + 1, col * dim + dim,
        key(np.int64, row, None, None, tgt),
        key(np.int32, row[by_tgt], col[by_tgt], None), by_tgt)
    del tgt_key, by_tgt
    # ... then against the terms sorted by (column, row): outer rows u > q
    # against the inner cells (lo, q), lo < q ...
    col_key = col * dim + row
    by_col = np.argsort(col_key, kind="stable").astype(np.int32)
    col_key = col_key[by_col]
    r, q, t = row[upper], col[upper], tgt[upper]
    add(upper, r, col_key, t * dim + q + 1, t * dim + dim,
        key(np.int64, r, q, None, None), key(np.int32, row[by_col], tgt[by_col]), by_col)
    # ... and outer rows lo < u < q against the inner cells (q, lo)
    left = by_col[row[by_col] > col[by_col]]
    q, r, t = row[left], col[left], tgt[left]
    add(left, r, col_key, t * dim + r + 1, t * dim + q,
        key(np.int64, r, None, q, None),
        key(np.int32, row[by_col], None, tgt[by_col]), by_col)
    return cost, parts


def verify_chevalley(c: ChevalleyConstants) -> VerificationReport:
    """The check that gates the build, as a copy of c.report: it runs once
    per instance, and a caller's edit of the copy does not reach the next
    call."""
    rep = c.report
    return VerificationReport(rep.name, rep.checked, list(rep.violations), dict(rep.details))


def dump_constants(c: ChevalleyConstants) -> str:
    """One line per nonzero entry: 'alpha-coords | beta-coords | sign'."""
    lines = [
        f"{','.join(map(str, a.coords))} | {','.join(map(str, b.coords))} | {s:+d}"
        for a, b, s in c.nonzero_entries()
    ]
    return "\n".join(lines) + "\n"
