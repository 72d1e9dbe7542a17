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
from itertools import combinations

import numpy as np

from .errors import ConstructionFailure, SystemMismatch
from .report import VerificationReport
from .roots import LatticeVector, RootSystem, build

Coords = tuple[int, ...]


@dataclass
class ChevalleyConstants:
    """Structure-constant table over one root system.

    sum_index[i, j] holds the canonical index of root_i + root_j, or n_roots
    when the sum is not a root; sign_table[i, j] is n in {-1, 0, +1}.
    """

    system: RootSystem
    sign_table: np.ndarray
    sum_index: np.ndarray
    negation: np.ndarray

    def n(self, alpha: LatticeVector, beta: LatticeVector) -> int:
        """n_{alpha,beta}; zero when alpha + beta is not a root."""
        i = self.system.root_order_index(alpha)
        j = self.system.root_order_index(beta)
        return int(self.sign_table[i, j])

    def h_coeffs(self, alpha: LatticeVector) -> Coords:
        """Coefficients of h_alpha on h_1..h_r: the simple-root coordinates."""
        return self.system.to_root_basis(alpha).coords

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
        return ChevalleyConstants(self.system, table, self.sum_index, self.negation)

    @cached_property
    def bracket_table(self) -> list[list[tuple[tuple[int, int], ...]]]:
        """Brackets of basis pairs: bracket_table[i][j] = ((k, coeff), ...).

        Indices run over the basis h_1..h_r, then x_alpha in canonical root
        order; this one table defines the bracket and is what the Jacobi
        sweep certifies.
        """
        rs = self.system
        r = rs.rank
        roots = rs.all_roots
        n_roots = len(roots)
        dim = r + n_roots
        table: list[list[tuple[tuple[int, int], ...]]] = [
            [() for _ in range(dim)] for _ in range(dim)
        ]
        for j, rt in enumerate(roots):
            for i, v in enumerate(rs.to_weight_basis(rt).coords):
                if v:
                    table[i][r + j] = ((r + j, v),)
                    table[r + j][i] = ((r + j, -v),)
        for a in range(n_roots):
            ca = roots[a].coords
            for b in range(n_roots):
                if self.negation[a] == b:
                    table[r + a][r + b] = tuple((k, ca[k]) for k in range(r) if ca[k])
                else:
                    k = self.sum_index[a, b]
                    if k < n_roots:
                        table[r + a][r + b] = ((r + int(k), int(self.sign_table[a, b])),)
        return table


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
        c = system.to_root_basis(alpha).coords
        system.root_order_index(alpha)  # validates alpha is a root
        return cls(system, roots={c: 1})

    def _add_h(self, i: int, v: int) -> None:
        if v:
            nv = self.cartan.get(i, 0) + v
            if nv:
                self.cartan[i] = nv
            else:
                self.cartan.pop(i, None)

    def _add_x(self, c: Coords, v: int) -> None:
        if v:
            nv = self.roots.get(c, 0) + v
            if nv:
                self.roots[c] = nv
            else:
                self.roots.pop(c, None)

    def __add__(self, other: "LieElement") -> "LieElement":
        if other.system != self.system:
            raise SystemMismatch("cannot add elements over different systems")
        out = LieElement(self.system, dict(self.cartan), dict(self.roots))
        for i, v in other.cartan.items():
            out._add_h(i, v)
        for c, v in other.roots.items():
            out._add_x(c, v)
        return out

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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LieElement)
            and other.system == self.system
            and other.cartan == self.cartan
            and other.roots == self.roots
        )

    def __repr__(self) -> str:
        hs = [f"{v}*h{i + 1}" for i, v in sorted(self.cartan.items())]
        xs = [f"{v}*x{list(c)}" for c, v in sorted(self.roots.items())]
        return " + ".join(hs + xs) if hs or xs else "0"


def _eps_parity_matrix(rs: RootSystem) -> np.ndarray:
    """Exponent of -1 in eps on generator pairs: E[i][j] with eps = (-1)^E."""
    r = rs.rank
    e = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        e[i, i] = 1
        for j in range(i + 1, r):
            if rs.cartan[i][j] == -1:
                e[i, j] = 1
    return e


@lru_cache(maxsize=None)
def _constants_cached(kind: str, rank: int) -> ChevalleyConstants:
    rs = build(kind, rank)
    roots = rs.all_roots
    n_roots = len(roots)
    coords = np.array([r.coords for r in roots], dtype=np.int64)
    index = {r.coords: i for i, r in enumerate(roots)}

    sum_index = np.full((n_roots, n_roots), n_roots, dtype=np.int32)
    for i in range(n_roots):
        ci = roots[i].coords
        for j in range(n_roots):
            s = tuple(a + b for a, b in zip(ci, roots[j].coords))
            k = index.get(s)
            if k is not None:
                sum_index[i, j] = k

    # eps parity over all pairs in one shot, then the negative-root correction
    parity = (coords @ _eps_parity_matrix(rs) @ coords.T) % 2
    neg_flag = np.array([0] * (n_roots // 2) + [1] * (n_roots // 2), dtype=np.int64)
    neg_of_sum = np.where(sum_index < n_roots, neg_flag[np.minimum(sum_index, n_roots - 1)], 0)
    total_parity = (parity + neg_flag[:, None] + neg_flag[None, :] + neg_of_sum) % 2
    table = np.where(sum_index < n_roots, 1 - 2 * total_parity, 0).astype(np.int8)

    negation = np.empty(n_roots, dtype=np.int32)
    half = n_roots // 2
    negation[:half] = np.arange(half) + half
    negation[half:] = np.arange(half)

    constants = ChevalleyConstants(rs, table, sum_index, negation)
    report = _verify_table(constants)
    if not report.ok:
        raise ConstructionFailure(
            f"{rs.name}: {len(report.violations)} violations, "
            f"first: {report.violations[0]}"
        )
    return constants


def build_constants(rs: RootSystem) -> ChevalleyConstants:
    """Build the full sign table for rs and verify its invariants exhaustively."""
    return _constants_cached(rs.kind, rs.rank)


def _verify_table(c: ChevalleyConstants) -> VerificationReport:
    """Support, antisymmetry and the three-term product identity, all pairs/triples.

    The product identity n_{a,b} n_{a+b,g} + n_{b,g} n_{b+g,a} + n_{g,a} n_{g+a,b} = 0
    (terms with non-root subscripts read as zero) is checked over every triple
    in which no two of a, b, g sum to zero; triples with cancelling pairs route
    through the Cartan subalgebra and belong to the bracket Jacobi sweep.
    """
    rep = VerificationReport(name=f"chevalley-table-{c.system.name}")
    n_roots = len(c.system.all_roots)
    table = c.sign_table.astype(np.int64)
    s = c.sum_index
    valid = s < n_roots

    rep.checked += n_roots * n_roots
    support_bad = (table != 0) != valid
    if support_bad.any():
        i, j = np.argwhere(support_bad)[0]
        rep.violations.append(f"support fails at pair ({i},{j})")
    anti_bad = valid & (table + table.T != 0)
    rep.checked += n_roots * n_roots
    if anti_bad.any():
        i, j = np.argwhere(anti_bad)[0]
        rep.violations.append(f"antisymmetry fails at pair ({i},{j})")

    # dense tables with a zero sentinel row for "not a root"
    text = np.zeros((n_roots + 1, n_roots + 1), dtype=np.int64)
    text[:n_roots, :n_roots] = table
    neg = c.negation
    cols = np.arange(n_roots)
    for a in range(n_roots):
        t1 = table[a, :, None] * text[s[a, :], :n_roots]
        t2 = table * text[s, a]
        t3 = (text[s[:, a], :n_roots] * table[:, a][:, None]).T
        # rows are b, columns are g; keep only triples with a+b, b+g, g+a != 0
        mask = (cols[:, None] != neg[a]) \
            & (cols[None, :] != neg[:, None]) \
            & (cols[None, :] != neg[a])
        bad = ((t1 + t2 + t3) != 0) & mask
        rep.checked += int(mask.sum())
        if bad.any():
            b, g = np.argwhere(bad)[0]
            rep.violations.append(f"product identity fails at triple ({a},{b},{g})")
            break
    return rep


def bracket(x: LieElement, y: LieElement, c: ChevalleyConstants) -> LieElement:
    """Lie bracket: the bilinear extension of c.bracket_table."""
    rs = c.system
    if x.system != rs or y.system != rs:
        raise SystemMismatch("bracket arguments over a different system")
    r = rs.rank
    roots = rs.all_roots

    def indexed(e: LieElement):
        return list(e.cartan.items()) + [
            (r + rs._root_index[cc], v) for cc, v in e.roots.items()
        ]

    table = c.bracket_table
    out = LieElement(rs)
    ys = indexed(y)
    for i, a in indexed(x):
        row = table[i]
        for j, b in ys:
            for k, ck in row[j]:
                if k < r:
                    out._add_h(k, a * b * ck)
                else:
                    out._add_x(roots[k - r].coords, a * b * ck)
    return out


def basis_elements(c: ChevalleyConstants) -> list[LieElement]:
    """h_1..h_r followed by x_alpha in canonical root order."""
    rs = c.system
    return [LieElement.h(rs, i) for i in range(rs.rank)] + [
        LieElement.x(rs, r) for r in rs.all_roots
    ]


def adjoint_matrix(x: LieElement, c: ChevalleyConstants) -> np.ndarray:
    """Matrix of ad(x) on the basis (h_1..h_r, x_roots), integer entries."""
    rs = c.system
    basis = basis_elements(c)
    dim = len(basis)
    m = np.zeros((dim, dim), dtype=np.int64)
    for col, b in enumerate(basis):
        image = bracket(x, b, c)
        for i, v in image.cartan.items():
            m[i, col] = v
        for cc, v in image.roots.items():
            m[rs.rank + rs._root_index[cc], col] = v
    return m


def _jacobi_triple_ok(table, i: int, j: int, k: int) -> bool:
    acc: dict[int, int] = {}
    for pair, outer in (((j, k), i), ((k, i), j), ((i, j), k)):
        inner = table[pair[0]][pair[1]]
        trow = table[outer]
        for m, cm in inner:
            for t, ct in trow[m]:
                v = acc.get(t, 0) + cm * ct
                if v:
                    acc[t] = v
                else:
                    acc.pop(t, None)
    return not acc


def verify_chevalley(c: ChevalleyConstants) -> VerificationReport:
    """Re-run the table checks and sweep the Jacobi identity on every basis triple.

    Distinct unordered triples determine the identity (it is alternating and
    vanishes identically on repeats).
    """
    rep = _verify_table(c)
    rep.name = f"chevalley-{c.system.name}"
    rep.details["jacobi"] = "exhaustive"
    table = c.bracket_table
    for i, j, k in combinations(range(len(table)), 3):
        rep.checked += 1
        if not _jacobi_triple_ok(table, i, j, k):
            rep.violations.append(f"jacobi fails on basis triple ({i},{j},{k})")
            break
    return rep


def dump_constants(c: ChevalleyConstants) -> str:
    """One line per nonzero entry: 'alpha-coords | beta-coords | sign'."""
    lines = [
        f"{','.join(map(str, a.coords))} | {','.join(map(str, b.coords))} | {s:+d}"
        for a, b, s in c.nonzero_entries()
    ]
    return "\n".join(lines) + "\n"
