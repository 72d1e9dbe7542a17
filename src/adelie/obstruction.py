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
(ChevalleyConstants.bracket_table), those of the rows ad(x_a), a in the
half.  E_a is read from one column, k_a, the first k with (a, a_k) != 0,
at the target x_a, so only the terms that land there are expanded: each
term's class is read from its target, and the terms are sorted by column
and then by the column k_c their class c is read from.  For column h_k the
first application of D is the run of terms [x_a, h_k], and a term whose
class is read from h_k is kept; the second gathers, for every first-level
term, the run of its target's column whose classes are read from h_k, each
term signed by the sort of phi_b phi_a.  Equal keys (class, monomial id)
are summed after one sort, and one exact division runs over all of them
(CancellationFailure on the first failing class otherwise).  The closed
formula above, over the pairs of the half with their sums and signs read
from sum_index and the sign table, must then give the extracted E_a monomial
for monomial (ConstructionFailure otherwise) before they become
coordinate-keyed forms: it is the one check that ties the sign and sum
tables to the bracket table the gate swept.

The E_a satisfy the Bianchi-type identity checked by check_bianchi, whose
closure expands a run of consecutive classes at a time, at most BLOCK
products each (a class with more is a run of its own), and
certify_solvability matches them against an H^2 vanishing oracle: classes
of height two and above must vanish, classes of height one are recorded as
nontriviality requirements on the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress, repeat
from operator import is_not, itemgetter

import numpy as np

from .chevalley import ChevalleyConstants, checked_constants, runs, sum_by_key
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
Monomial = tuple[tuple[Coords, ...], tuple[Coords, ...]]

#: products of two closure terms that check_bianchi expands at once
BLOCK = 2 ** 13


def _root_key(c: Coords) -> tuple[int, Coords]:
    # canonical generator order: height of the underlying class, then coords
    return (abs(sum(c)), c)


#: the generators that _monomials has typed, each keyed by itself and held,
#: so that its identity stays its own; cleared past _TYPED_CAP entries
_typed: dict[Coords, Coords] = {}
_TYPED_CAP = 2 ** 12


def _monomials(keys) -> bool:
    """Whether every key is a (phis, psis) pair of tuples of integer tuples.
    The types are gathered by maps over the flattened keys, and a generator
    is typed once per object: the forms of one system share theirs, and
    typing each key's coordinates took a third of build_system's time on E8.
    A generator equal to a typed one but another object, (1.0, 0) for
    (1, 0), is typed anew."""
    if not (set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}):
        return False
    blocks = tuple(chain.from_iterable(keys))
    if not set(map(type, blocks)) <= {tuple}:
        return False
    coords = tuple(chain.from_iterable(blocks))
    new = tuple(compress(coords, map(is_not, map(_typed.get, coords), coords)))
    if not (set(map(type, new)) <= {tuple} and set(map(type, chain.from_iterable(new))) <= {int}):
        return False
    if len(_typed) + len(new) > _TYPED_CAP:
        _typed.clear()
    _typed.update(zip(new, new))
    return True


class FormalForm:
    """Integer combination of monomials in the phi (odd) and psi (even)
    generators, keyed by canonically sorted generator blocks.  It holds and
    prints forms; the package computes with integer arrays, not with it.
    Keys that are not (phis, psis) pairs of integer tuples, and coefficients
    that are not ints, raise NotAnObstructionSystem."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None) -> None:
        # a dict's copy keeps the hashes of its keys: rebuild only to drop zeros
        terms = dict(terms or {})
        if not _monomials(terms):
            bad = next(key for key in terms if not _monomials([key]))
            raise NotAnObstructionSystem(f"form key {bad!r} is not a (phis, psis) pair")
        if not set(map(type, terms.values())) <= {int}:
            bad = next(v for v in terms.values() if type(v) is not int)
            raise NotAnObstructionSystem(f"form coefficient {bad!r} is not an int")
        self.terms = terms if all(terms.values()) else {k: v for k, v in terms.items() if v}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalForm) and other.terms == self.terms

    def __repr__(self) -> str:
        return form_text(self)


def _generators(forms) -> tuple[dict[Coords, int], dict[Coords, str], dict[Coords, str]]:
    """The place of each generator of forms in _root_key order, and its psi
    and phi texts, each made once."""
    found = sorted({c for form in forms for phis, psis in form.terms for c in phis + psis},
                   key=_root_key)
    texts = [",".join(map(str, c)) for c in found]
    return (
        {c: i for i, c in enumerate(found)},
        {c: f"psi[{t}]" for c, t in zip(found, texts)},
        {c: f"phi[{t}]" for c, t in zip(found, texts)},
    )


def _form_text(form: FormalForm, generators) -> str:
    # terms by phi count, then the places of their phi and then psi blocks,
    # which orders them as their _root_key tuples do
    place, psi, phi = generators

    def order(item):
        (phis, psis), _ = item
        return (len(phis), *map(place.__getitem__, phis), *map(place.__getitem__, psis))

    text = " ".join(
        f"{'-' if c < 0 else '+'} {'' if abs(c) == 1 else f'{abs(c)}*'}"
        f"{''.join([*map(psi.__getitem__, psis), *map(phi.__getitem__, phis)]) or '1'}"
        for (phis, psis), c in sorted(form.terms.items(), key=order)
    )
    return "-" + text[2:] if text.startswith("-") else text[2:] or "0"


def form_text(form: FormalForm) -> str:
    """Deterministic rendering: psi blocks first, then phi blocks, terms in
    key order (phi count, then the _root_key of each phi and psi block).
    NotAnObstructionSystem for a form that is not a FormalForm."""
    if not isinstance(form, FormalForm):
        raise NotAnObstructionSystem(f"{form!r} is not a FormalForm")
    return _form_text(form, _generators([form]))


class Half(Enum):
    """A half of the roots; Half(x) raises IllegalType for an x that names neither."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    @classmethod
    def _missing_(cls, value):
        raise IllegalType(f"unknown half {value!r}; choose from {tuple(h.value for h in cls)}")


@dataclass(frozen=True, eq=False)
class ObstructionSystem:
    """The extracted obstruction forms E_a for every root of one half, keyed
    by the root's coordinates; the roots are read from those keys.  Two
    systems are equal only when they are the same instance, which is hashed
    as an object, and the repr names the table and the half alone."""

    constants: ChevalleyConstants
    half: Half
    obstructions: dict[Coords, FormalForm] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "half", Half(self.half))
        forms = self.obstructions
        if not isinstance(forms, dict):
            raise NotAnObstructionSystem(f"obstructions is a {type(forms).__name__}, not a dict")
        for key, form in forms.items():
            if not (isinstance(key, tuple) and all(isinstance(c, int) for c in key)):
                raise NotAnObstructionSystem(f"obstruction key {key!r} is not a tuple of integers")
            if not isinstance(form, FormalForm):
                raise NotAnObstructionSystem(f"obstruction {key!r} is {form!r}, not a FormalForm")

    @property
    def system(self) -> RootSystem:
        return self.constants.system

    @cached_property
    def roots(self) -> tuple[LatticeVector, ...]:
        """The classes of the forms, in the order the forms are held:
        build_system holds them in _root_key order."""
        return tuple(LatticeVector(c, Basis.SIMPLE_ROOT) for c in self.obstructions)


def _checked_obstruction(system) -> ObstructionSystem:
    # the one check of an obstruction-system argument
    if isinstance(system, ObstructionSystem):
        return system
    raise NotAnObstructionSystem(f"{system!r} is not an ObstructionSystem")


def _half_places(rs: RootSystem, half: Half) -> list[int]:
    # the places in all_roots, which lists the positives and then their
    # negatives, of the roots of the half, sorted by _root_key
    roots, n = rs.all_roots, len(rs.positive_roots)
    first = 0 if half is Half.POSITIVE else n
    return sorted(range(first, first + n), key=lambda i: _root_key(roots[i].coords))


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
    places = _half_places(rs, half)
    roots = tuple(map(rs.all_roots.__getitem__, places))
    n = len(roots)
    index = np.array(places)
    # E_a is read from the Cartan column k_a, the first k with (a, a_k) != 0:
    # ad(x_a) h_k = -(a, a_k) x_a, so it is that column's part at the target
    # x_a, divided by -(a, a_k)
    coords = [a.coords for a in roots]
    pairings = np.array(coords, dtype=np.int64) @ np.array(rs.cartan, dtype=np.int64)
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
    start = int(index.min())
    # half positions of the basis, -1 elsewhere and at dim ("not a root")
    position = np.full(dim + 1, -1, dtype=np.int32)
    position[rank + index] = np.arange(n)
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
    j, k = runs(np.searchsorted(run_key, read), np.searchsorted(run_key, read, "right"))
    b = at_a[k]
    keep = b != a[j]
    j, k, b = j[keep], k[keep], b[keep]
    lo, hi = np.minimum(b, a[j]), np.maximum(b, a[j])
    sign = np.where(b < a[j], np.int32(1), np.int32(-1))
    keys, vals = sum_by_key(
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
    closed = sum_by_key(
        np.r_[np.arange(n) * (width + 1), (s * width + n + p * n + q)[pair]],
        np.r_[np.ones(n, dtype=np.int64), constants.sign_table[block, block][i, j][pair]],
    )
    if not all(map(np.array_equal, closed, extracted)):
        raise ConstructionFailure(
            f"{rs.name} {half.value}: the closed quadratic formula disagrees "
            f"with the double expansion of D^2"
        )
    del sums, i, j, p, q, s, pair, closed

    # the keys are sorted by class, and the closed formula gives every class
    # its psi term, so the forms come out in the order of roots; monomial id
    # n + p * n + q is phi_p phi_q, and an id q below n, psi_q, reads p = -1
    cls, mono = np.divmod(extracted[0], width)
    pairs = zip(*(x.tolist() for x in np.divmod(mono - n, n)))
    monomials = [((coords[p], coords[q]), ()) if p >= 0 else ((), (coords[q],)) for p, q in pairs]
    values = extracted[1].tolist()
    ptr = np.searchsorted(cls, np.arange(n + 1)).tolist()
    obstructions = {
        c: FormalForm(dict(zip(monomials[lo:hi], values[lo:hi])))
        for c, lo, hi in zip(coords, ptr, ptr[1:])
    }
    return ObstructionSystem(constants, half, obstructions)


def check_bianchi(system: ObstructionSystem) -> VerificationReport:
    """Differentiate each obstruction form and close the result by replacing
    psi_c with psi_c - E_c; the residual must vanish identically.

    With E_c = psi_c + Q_c that is psi_c -> -Q_c, so E_a = psi_a +
    sum n phi_p phi_q leaves sum n (phi_p Q_q - Q_p phi_q), a sum of cubic
    phi monomials.  The terms are encoded once as arrays (class, p, q, n),
    p < q the places of the roots in canonical order, so that each triple
    comes out of _failing_classes sorted the way form_text writes it, with
    its sum as its coefficient: a class with a nonzero sum is reported with
    that residual, in the order of system.roots.  A form with a term other
    than psi_a (coefficient 1) or phi_p phi_q fails by its shape.
    """
    roots = _checked_obstruction(system).roots
    order = sorted(range(len(roots)), key=lambda i: _root_key(roots[i].coords))
    roots, forms = [roots[i] for i in order], system.obstructions
    n = len(roots)
    coords = [a.coords for a in roots]
    position = dict(zip(coords, range(n)))
    terms = [forms[c].terms for c in coords]
    # every monomial in class order, a phi phi one as its pair of phis; a
    # term phi_x phi_y of two distinct classes of the system is kept
    monomials = list(chain.from_iterable(terms))
    values = list(chain.from_iterable(map(dict.values, terms)))
    sizes = np.fromiter(map(len, terms), dtype=np.int64, count=n)
    pairs = [phis if len(phis) == 2 and not psis else (None, None) for phis, psis in monomials]
    x, y = (np.fromiter(map(position.get, map(itemgetter(i), pairs), repeat(-1)),
                        dtype=np.int32, count=len(pairs)) for i in (0, 1))
    quadratic = (x >= 0) & (y >= 0) & (x != y)
    # a form of the right shape holds psi_a, with coefficient 1, and kept terms
    psi = np.array([t.get(((), (c,))) == 1 for t, c in zip(terms, coords)], dtype=bool)
    kept = np.repeat(np.arange(n, dtype=np.int32), sizes)[quadratic]
    shapeless = ~psi | (np.bincount(kept, minlength=n) != sizes - 1)
    misshapen = set(np.flatnonzero(shapeless).tolist())
    val = list(compress(values, quadratic))
    # a class expands to at most 2 len(val)**2 products of two coefficients:
    # int64 holds their sums when that bound fits
    wide = 2 * len(val) ** 2 * max(map(abs, val), default=0) ** 2 >= 2**63
    val = np.array(val, dtype=object if wide else np.int64)
    x, y = x[quadratic], y[quadratic]
    val[x > y] *= -1
    cls, p, q = kept, np.minimum(x, y), np.maximum(x, y)
    keys, sums = _failing_classes(n, cls, p, q, val)
    residuals: dict[int, dict[Monomial, int]] = {}
    for key, v in zip(keys.tolist(), sums.tolist()):
        a, key = divmod(key, n ** 3)
        triple = tuple(roots[key // n ** i % n].coords for i in (2, 1, 0))
        residuals.setdefault(a, {})[triple, ()] = v

    rep = VerificationReport(
        name=f"bianchi-{system.system.name}-{system.half.value}", checked=n
    )
    for a in sorted(misshapen | residuals.keys(), key=order.__getitem__):
        alpha, form = roots[a], forms[roots[a].coords]
        if a in misshapen:
            rep.violations.append(f"class {alpha}: {form_text(form)} is not psi + phi phi")
        else:
            resid = FormalForm(residuals[a])
            rep.violations.append(f"class {alpha}: residual {form_text(resid)}")
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
        j, k = runs(starts[sides], ends[sides])
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
        run_keys, run_sums = sum_by_key(products, vals)
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
    must answer an H2VanishVerdict; an oracle that is not callable, or any
    other answer, None or a bool too, raises IncompleteOracle.  Height-one
    classes become requirements."""
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
        verdicts.append(answer)
    return SolvabilityCertificate(tuple(verdicts), tuple(requirements))


def system_text(system: ObstructionSystem) -> str:
    """Stable text rendering, one obstruction form per line."""
    system = _checked_obstruction(system)
    lines = [f"# obstruction system {system.system.name} {system.half.value}"]
    generators = _generators(system.obstructions.values())
    for c, form in system.obstructions.items():
        lines.append(f"({','.join(map(str, c))}): {_form_text(form, generators)}")
    return "\n".join(lines) + "\n"
