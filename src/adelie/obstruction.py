"""Formal graded obstruction systems attached to one half of a root system.

The algebra has an odd degree-one generator phi_a and an even degree-two
generator psi_a for every root a in the chosen half, with the differential
delta(phi_a) = psi_a, delta(psi_a) = 0 extended by the graded Leibniz rule.
The connection-style operator D = delta + sum_a phi_a . ad(x_a) acts on forms
valued in the Lie algebra; its square is form-linear, D^2(g) = sum_a E_a
[x_a, g] on every basis column g, with one even quadratic form E_a per root
of the half:

    E_a = psi_a + sum over unordered pairs b < g with b + g = a of
          n_{b,g} phi_b phi_g.

That D^2 reduces so is the Jacobi identity on the triples (x_a, x_b, g),
which the check that gates the table (ChevalleyConstants.report) sweeps on
every basis triple: the build reads it first (CancellationFailure naming its
first violation otherwise).  It then computes D^2 honestly by double
application on the Cartan columns, where ad(x_a) h_k = -(a, a_k) x_a holds
E_a, as integer gathers over the term lists of the bracket table
(ChevalleyConstants.bracket_table): E_a is read from one column, the first
k with (a, a_k) != 0, and only the terms that land there are expanded, as
build_system lays out.  Equal keys (class, monomial id) are summed after one
sort, and one exact division runs over all of them (CancellationFailure on
the first failing class otherwise).  The closed formula above, over the
pairs of the half with their sums and signs read from sum_index and the
sign table, must then give the extracted E_a monomial for monomial
(ConstructionFailure otherwise) before they are held as the system's term
arrays: it is the one check that ties the sign and sum tables to the
bracket table the gate swept.

The E_a satisfy the Bianchi-type identity checked by check_bianchi, whose
closure expands a run of consecutive classes at a time, at most BLOCK
products each (a class with more is a run of its own), and
certify_solvability matches them against an H^2 vanishing oracle: classes
of height two and above must vanish, classes of height one are recorded as
nontriviality requirements on the target.
A system holds its classes in _root_key order; a hand-built form that is
not psi_c plus terms phi_x phi_y of its classes, x before y, is refused
where the system is made (NotAnObstructionSystem).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, groupby
from types import MappingProxyType

import numpy as np

from .chevalley import (ChevalleyConstants, _expand_runs, _root_sums, _sealed, _sum_by_key,
                         checked_constants)
from .errors import (
    CancellationFailure,
    ConstructionFailure,
    IllegalType,
    IncompleteOracle,
    NotAnObstructionSystem,
)
from .report import H2VanishVerdict, VerificationReport
from .roots import Basis, LatticeVector, RootSystem

Coords = tuple[int, ...]

#: products of two closure terms that check_bianchi expands at once
BLOCK = 2 ** 13


def _root_key(c: Coords) -> tuple[int, Coords]:
    # canonical generator order: height of the underlying class, then coords
    return (abs(sum(c)), c)


class FormalForm:
    """Integer combination of monomials in the phi (odd) and psi (even)
    generators, its terms a read-only mapping keyed by canonically sorted
    generator blocks.  It holds and prints forms; the package computes with
    integer arrays, not with it.  Keys that are not (phis, psis) pairs of
    integer tuples, and coefficients that are not ints, raise
    NotAnObstructionSystem."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None) -> None:
        terms = dict(terms or {})
        for key, v in terms.items():
            # a key is a (phis, psis) pair of tuples of integer tuples
            if not (type(key) is tuple and len(key) == 2 and {type(b) for b in key} <= {tuple}
                    and all(type(c) is tuple and set(map(type, c)) <= {int} for c in chain(*key))):
                raise NotAnObstructionSystem(f"form key {key!r} is not a (phis, psis) pair")
            if type(v) is not int:
                raise NotAnObstructionSystem(f"form coefficient {v!r} is not an int")
        self.terms = MappingProxyType({k: v for k, v in terms.items() if v})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalForm) and other.terms == self.terms

    def __reduce__(self):
        return type(self), (dict(self.terms),)  # a mappingproxy does not pickle

    def __repr__(self) -> str:
        return form_text(self)


def _text(terms) -> str:
    # the text of (coefficient, monomial text) pairs in order, 1 for the
    # empty monomial and 0 for no term
    text = " ".join(
        f"{'-' if c < 0 else '+'} {'' if abs(c) == 1 else f'{abs(c)}*'}{monomial or '1'}"
        for c, monomial in terms
    )
    return "-" + text[2:] if text.startswith("-") else text[2:] or "0"


def _name(c: Coords) -> str:
    return ",".join(map(str, c))


def form_text(form: FormalForm) -> str:
    """Deterministic rendering: psi blocks first, then phi blocks, terms in
    key order (phi count, then the _root_key of each phi and psi block).
    NotAnObstructionSystem for a form that is not a FormalForm."""
    if not isinstance(form, FormalForm):
        raise NotAnObstructionSystem(f"{form!r} is not a FormalForm")
    return _text(
        (form.terms[key], "".join([*(f"psi[{_name(c)}]" for c in key[1]),
                                   *(f"phi[{_name(c)}]" for c in key[0])]))
        for key in sorted(form.terms, key=lambda k: (len(k[0]), *map(_root_key, chain(*k))))
    )


class Half(Enum):
    """A half of the roots; Half(x) raises IllegalType for an x that names neither."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    @classmethod
    def _missing_(cls, value):
        raise IllegalType(f"unknown half {value!r}; choose from {tuple(h.value for h in cls)}")


def _runs(terms, items) -> list[list]:
    # (coefficient, item) for each term, one run per class
    classes, cls, _, _, val = terms
    ptr = np.searchsorted(cls, np.arange(len(classes) + 1)).tolist()
    pairs = list(zip(val.tolist(), items))
    return [pairs[i:j] for i, j in zip(ptr, ptr[1:])]


class _Forms(Mapping):
    """A system's forms by class, in _root_key order, as sealed term arrays:
    terms is (classes, cls, p, q, val), a term's class and generators as
    indices of classes, phi_p phi_q (p < q) or psi_q (p = -1), sorted by
    class, p and q, form_text's order.  The forms are made from the arrays
    at the first read of one."""

    def __init__(self, classes, cls, p, q, val) -> None:
        val.flags.writeable = False  # an object array (ints past int64) cannot be sealed
        arrays = (a if a.dtype == object else _sealed(a) for a in (cls, p, q, val))
        self.terms = (tuple(classes), *arrays)

    @cached_property
    def _forms(self) -> dict[Coords, FormalForm]:
        classes, _, p, q, _ = self.terms
        monomials = [((classes[a], classes[b]), ()) if a >= 0 else ((), (classes[b],))
                     for a, b in zip(p.tolist(), q.tolist())]
        return {c: FormalForm({m: v for v, m in run})
                for c, run in zip(classes, _runs(self.terms, monomials))}

    def __reduce__(self):
        return _Forms, self.terms

    def __getitem__(self, c: Coords) -> FormalForm:
        return self._forms[c]

    def __iter__(self):
        return iter(self.terms[0])

    def __len__(self) -> int:
        return len(self.terms[0])


def _encoded(forms) -> _Forms:
    # the door of hand-built forms: FormalForms of E_a's shape keyed by integer tuples
    if not isinstance(forms, Mapping):
        raise NotAnObstructionSystem(f"obstructions is a {type(forms).__name__}, not a dict")
    for key, form in forms.items():
        if not (isinstance(key, tuple) and all(isinstance(c, int) for c in key)):
            raise NotAnObstructionSystem(f"obstruction key {key!r} is not a tuple of integers")
        if not isinstance(form, FormalForm):
            raise NotAnObstructionSystem(f"obstruction {key!r} is {form!r}, not a FormalForm")
    classes = sorted(forms, key=_root_key)
    place = {c: k for k, c in enumerate(classes)}
    rows = []
    for a, c in enumerate(classes):
        terms = forms[c].terms
        pairs = [(*map(place.get, phis), v) for (phis, psis), v in terms.items()
                 if len(phis) == 2 and not psis]
        if terms.get(((), (c,))) != 1 or len(pairs) != len(terms) - 1 \
                or not all(None not in (x, y) and x < y for x, y, _ in pairs):
            raise NotAnObstructionSystem(f"obstruction {c!r}: {forms[c]!r} is not psi + phi phi")
        rows += [(a, -1, a, 1), *((a, x, y, v) for x, y, v in pairs)]
    cls, p, q, val = zip(*sorted(rows)) if rows else ((),) * 4
    wide = any(abs(v) >= 2 ** 63 for v in val)
    return _Forms(classes, *(np.array(x, dtype=np.int32) for x in (cls, p, q)),
                  np.array(val, dtype=object if wide else np.int64))


@dataclass(frozen=True, eq=False)
class ObstructionSystem:
    """The obstruction forms E_a for every root of one half, keyed by the
    root's coordinates, as a read-only mapping held as term arrays in
    _root_key order (a mapping of FormalForms is checked, sorted and encoded
    where the system is made); the roots are read from its keys.  Two
    systems are equal only when they are the same instance, which is hashed
    as an object, and the repr names the table and the half alone."""

    constants: ChevalleyConstants
    half: Half
    obstructions: Mapping[Coords, FormalForm] = field(repr=False)

    def __post_init__(self) -> None:
        checked_constants(self.constants)
        object.__setattr__(self, "half", Half(self.half))
        if not isinstance(self.obstructions, _Forms):
            object.__setattr__(self, "obstructions", _encoded(self.obstructions))

    @property
    def system(self) -> RootSystem:
        return self.constants.system

    @cached_property
    def roots(self) -> tuple[LatticeVector, ...]:
        """The classes of the forms, in _root_key order."""
        return tuple(LatticeVector(c, Basis.SIMPLE_ROOT) for c in self.obstructions)


def _checked_obstruction(system) -> ObstructionSystem:
    # the one check of an obstruction-system argument
    if isinstance(system, ObstructionSystem):
        return system
    raise NotAnObstructionSystem(f"{system!r} is not an ObstructionSystem")


def build_system(constants: ChevalleyConstants, half: Half | str) -> ObstructionSystem:
    """Expand D^2 on the Cartan columns and extract the obstruction forms.

    Raises IllegalType for a half that Half does not read, CancellationFailure
    when the table fails the check that gates it or a Cartan column does not
    divide by its weight, and ConstructionFailure when the closed quadratic
    formula disagrees with the extracted forms.
    """
    half = Half(half)
    rs = checked_constants(constants).system
    gate = constants.report
    if not gate.ok:
        raise CancellationFailure(f"{rs.name} {half.value}: {gate.violations[0]}")
    rank = rs.rank
    # the places in all_roots, which lists the positives and then their
    # negatives, of the roots of the half, sorted by _root_key
    n = len(rs.positive_roots)
    start = 0 if half is Half.POSITIVE else n
    places = sorted(range(start, start + n), key=lambda i: _root_key(rs.all_roots[i].coords))
    roots = tuple(map(rs.all_roots.__getitem__, places))
    # E_a is read from the Cartan column k_a, the first k with (a, a_k) != 0:
    # ad(x_a) h_k = -(a, a_k) x_a, so it is that column's part at the target
    # x_a, divided by -(a, a_k)
    coords = [a.coords for a in roots]
    pairings = _root_sums(rs)[2][places]
    first = (pairings != 0).argmax(axis=1).astype(np.int32)
    denom = -pairings[np.arange(n), first]
    # the terms [x_a, b_g] of the half's rows, one run of the table, a as its
    # position in the half.  Each term's class is read from its target, with
    # the column k_c that class is read from (-1 off the half), and the terms
    # are sorted by column and then by k_c: the terms of column g whose class
    # is read from h_k are one run.  Indices are int32: every key below is
    # under n * (n + n * n), which the gate's guard on dim ** 3 keeps under
    # 2 ** 31, and a key sums at most two products of two int8 coefficients
    row, col, tgt, val = constants.bracket_table
    dim = rank + len(rs.all_roots)
    # half positions of the basis, -1 elsewhere and at dim ("not a root")
    position = np.full(dim + 1, -1, dtype=np.int32)
    position[rank + np.array(places)] = np.arange(n)
    rows = slice(*np.searchsorted(row, [rank + start, rank + start + n]))
    row, col, tgt, val = row[rows], col[rows], tgt[rows], val[rows]
    cls = position[tgt]
    run_key = col * (rank + 1) + np.where(cls >= 0, first[cls], -1) + 1
    order = np.argsort(run_key, kind="stable")
    run_key, at_a, at_t, at_g = run_key[order], position[row[order]], tgt[order], col[order]
    at_c = val[order].astype(np.int32)
    del row, col, tgt, val, cls, order

    # a monomial of D^2 is psi_p (id p) or phi_p phi_q with p < q (id n + p*n + q).
    # D(h_k) = sum_a phi_a [x_a, h_k], then delta(phi_a) = psi_a and
    # phi_b phi_a [x_b, [x_a, h_k]] for b != a, with the sign of sorting
    # phi_b phi_a: +1 when b comes before a.  Only the terms whose class is
    # read from h_k are expanded, keyed class * width + monomial id: the
    # first level's own, and the run of column x_a read from h_k for each
    # first-level term, kept or not
    width = n + n * n
    g = slice(0, np.searchsorted(run_key, rank * (rank + 1)))
    a, t1, c1, k1 = at_a[g], at_t[g], at_c[g], at_g[g]
    own = position[t1]
    mine = (own >= 0) & (first[own] == k1)
    read = t1 * (rank + 1) + k1 + 1
    j, k = _expand_runs(np.searchsorted(run_key, read), np.searchsorted(run_key, read, "right"))
    b = at_a[k]
    keep = b != a[j]
    j, k, b = j[keep], k[keep], b[keep]
    lo, hi = np.minimum(b, a[j]), np.maximum(b, a[j])
    sign = np.where(b < a[j], np.int32(1), np.int32(-1))
    keys, vals = _sum_by_key(
        np.concatenate([own[mine] * width + a[mine], position[at_t[k]] * width + n + lo * n + hi]),
        np.concatenate([c1[mine], sign * c1[j] * at_c[k]]),
    )
    del at_a, at_t, at_g, at_c, run_key, a, t1, c1, k1, own, mine, read
    del j, k, b, keep, lo, hi, sign

    # one exact division over every class at once
    cls = keys // width
    den = denom[cls]
    bad = cls[vals % den != 0]
    if bad.size:
        a = int(bad.min())
        raise CancellationFailure(
            f"{rs.name} {half.value}: column h{first[a] + 1} is not divisible "
            f"by {denom[a]} at class {roots[a]}"
        )
    extracted = (keys, vals // den)

    # the closed formula, from the sum and sign tables: psi_s plus
    # n_{p,q} phi_p phi_q for each pair p < q of the half whose sum is s must
    # give E_s monomial for monomial; the half's roots are one block of both
    block = slice(start, start + n)
    sums = constants.sum_index[block, block]
    i, j = np.nonzero(sums < len(rs.all_roots))
    p, q, s = position[rank + start + i], position[rank + start + j], position[rank + sums[i, j]]
    pair = (p < q) & (s >= 0)
    closed = _sum_by_key(
        np.r_[np.arange(n) * (width + 1), (s * width + n + p * n + q)[pair]],
        np.r_[np.ones(n, dtype=np.int64), constants.sign_table[block, block][i, j][pair]],
    )
    if not all(map(np.array_equal, closed, extracted)):
        raise ConstructionFailure(
            f"{rs.name} {half.value}: the closed quadratic formula disagrees "
            f"with the double expansion of D^2"
        )
    del sums, i, j, p, q, s, pair, closed

    # the keys are sorted by class, the classes in the order of roots;
    # monomial id n + p * n + q is phi_p phi_q, and an id q < n, psi_q, p = -1
    cls, mono = np.divmod(extracted[0], width)
    return ObstructionSystem(constants, half, _Forms(coords, cls, *np.divmod(mono - n, n),
                                                     extracted[1]))


def check_bianchi(system: ObstructionSystem) -> VerificationReport:
    """Differentiate each obstruction form and close the result by replacing
    psi_c with psi_c - E_c; the residual must vanish identically.

    With E_c = psi_c + Q_c that is psi_c -> -Q_c, so E_a = psi_a +
    sum n phi_p phi_q leaves sum n (phi_p Q_q - Q_p phi_q), a sum of cubic
    phi monomials.  The held terms n phi_p phi_q go to _failing_classes as
    they are, and each triple comes out sorted the way form_text writes it:
    a class with a nonzero sum is reported with that residual, in the order
    of system.roots.
    """
    classes, cls, p, q, val = _checked_obstruction(system).obstructions.terms
    n = len(classes)
    quadratic = p >= 0
    cls, p, q, val = cls[quadratic], p[quadratic], q[quadratic], val[quadratic]
    # a class expands to at most 2 len(val)**2 products of two coefficients:
    # int64 holds their sums when that bound fits
    if 2 * len(val) ** 2 * max(map(abs, val.tolist()), default=0) ** 2 >= 2**63:
        val = val.astype(object)
    keys, sums = _failing_classes(n, cls, p, q, val)
    phi = [f"phi[{_name(c)}]" for c in classes]
    rep = VerificationReport(name=f"bianchi-{system.system.name}-{system.half.value}", checked=n)
    # the keys are sorted, so the classes come in the order of system.roots
    for a, run in groupby(zip(keys.tolist(), sums.tolist()), key=lambda kv: kv[0] // n ** 3):
        residual = _text((v, "".join(phi[key // n ** i % n] for i in (2, 1, 0))) for key, v in run)
        rep.violations.append(f"class {system.roots[a]}: residual {residual}")
    return rep


def _failing_classes(n: int, cls, p, q, val):
    """The nonzero closure sums, as sorted keys ((a * n + x) * n + y) * n + z
    for class a and triple x < y < z, with their sums, from the terms
    (cls, p, q, val) of every E_a sorted by class: n phi_p Q_q and
    -n Q_p phi_q = -n phi_q Q_p for each term of E_a, where phi_x phi_y phi_z
    (y < z) is its sorted triple signed by the sort, and 0 when x repeats y
    or z.  The classes are expanded a run of consecutive classes at a time,
    by runs over the class pointers: a run holds at most BLOCK products (a
    class with more is a run of its own) and is summed by (class, triple)
    on its own.  Keys begin with the class, so the runs' sums, concatenated,
    are sorted."""
    ptr = np.searchsorted(cls, np.arange(n + 1))
    # the two sides of each term side by side, so that a class's sides are
    # one run: x is the lone phi, right the class of the Q it multiplies
    x, right = np.stack([p, q], 1).ravel(), np.stack([q, p], 1).ravel()
    v = np.stack([val, -val], 1).ravel()
    base = np.repeat(cls.astype(np.int64) * n, 2)
    starts, ends = ptr[right], ptr[right + 1]
    # the products of the classes before each class
    before = np.r_[0, np.cumsum(ends - starts)][2 * ptr]
    keys, sums = [np.zeros(0, dtype=np.int64)], [v[:0]]
    lo_class = 0
    while lo_class < n:
        hi_class = int(np.searchsorted(before, before[lo_class] + BLOCK, "right")) - 1
        hi_class = max(hi_class, lo_class + 1)
        sides = slice(2 * ptr[lo_class], 2 * ptr[hi_class])
        j, k = _expand_runs(starts[sides], ends[sides])
        j += sides.start
        xj, y, z = x[j], p[k], q[k]
        vals = v[j]
        vals *= val[k]
        # the key ((a * n + lo) * n + mid) * n + hi, built in place; each
        # index array is dropped once read, so the sort has room
        products = base[j]
        del j, k
        np.negative(vals, out=vals, where=(y < xj) & (xj < z))
        np.copyto(vals, 0, where=(xj == y) | (xj == z))
        lo, hi = np.minimum(xj, y), np.maximum(xj, z)
        for digit in (lo, xj + y + z - lo - hi):
            products += digit
            products *= n
        products += hi
        del xj, y, z, lo, hi
        run_keys, run_sums = _sum_by_key(products, vals)
        keys.append(run_keys)
        sums.append(run_sums)
        lo_class = hi_class
    return np.concatenate(keys), np.concatenate(sums)


@dataclass(frozen=True)
class SolvabilityCertificate:
    """Outcome of matching an obstruction system against an H^2 oracle.

    Classes of height two and above are solvable iff their H^2 vanishes;
    requirements lists the height-one classes, whose first-order obstruction
    must instead act nontrivially on the target for the system to deform.
    solvable is read from the verdicts, so it cannot disagree with them.
    """

    verdicts: tuple[H2VanishVerdict, ...]
    requirements: tuple[LatticeVector, ...]

    @property
    def solvable(self) -> bool:
        return all(v.vanishes for v in self.verdicts)


def certify_solvability(system: ObstructionSystem, oracle) -> SolvabilityCertificate:
    """Certify the classes of height two and above against oracle(root), which
    must answer an H2VanishVerdict about that root, in either basis; an
    oracle that is not callable, a verdict about another root, or any other
    answer, None or a bool too, raises IncompleteOracle.  Height-one classes become
    requirements."""
    rs = _checked_obstruction(system).system
    if not callable(oracle):
        raise IncompleteOracle(f"{oracle!r} is not an oracle")
    verdicts: list[H2VanishVerdict] = []
    requirements: list[LatticeVector] = []
    for alpha in system.roots:
        if rs.height(alpha) < 2:
            requirements.append(alpha)
            continue
        answer = oracle(alpha)
        if not isinstance(answer, H2VanishVerdict):
            raise IncompleteOracle(f"oracle answered {answer!r} for {alpha}, no H2VanishVerdict")
        if answer.root != alpha and answer.root != rs.to_weight_basis(alpha):
            raise IncompleteOracle(f"oracle answered for {answer.root} when asked for {alpha}")
        verdicts.append(answer)
    return SolvabilityCertificate(tuple(verdicts), tuple(requirements))


def system_text(system: ObstructionSystem) -> str:
    """Stable text rendering, one obstruction form per line, each written
    from its run of terms as form_text writes it."""
    terms = _checked_obstruction(system).obstructions.terms
    classes, _, p, q, _ = terms
    names = list(map(_name, classes))
    runs = _runs(terms, [f"psi[{names[b]}]" if a < 0 else f"phi[{names[a]}]phi[{names[b]}]"
                         for a, b in zip(p.tolist(), q.tolist())])
    lines = [f"# obstruction system {system.system.name} {system.half.value}"]
    lines += [f"({name}): {_text(run)}" for name, run in zip(names, runs)]
    return "\n".join(lines) + "\n"
