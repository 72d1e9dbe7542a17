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
half, sorted by column.  For column g the first application of D is the run
of terms [x_a, b_g]; the second gathers the runs of their targets, each term
signed by the sort of phi_b phi_a, and equal keys (column, monomial id,
target) are summed after a sort.  The rank Cartan columns are expanded in one
pass, and one selection over the summed keys extracts every E_a: its class is
read from the key's target, it keeps the keys of its column k_a, the first k
with (a, a_k) != 0, and one exact division runs over all of them
(CancellationFailure on the first failing class otherwise).  The closed
formula above, over the pairs of the half with their sums and signs read
from sum_index and the sign table, must then give the extracted E_a monomial
for monomial (ConstructionFailure otherwise) before they become
coordinate-keyed forms: it is the one check that ties the sign and sum
tables to the bracket table the gate swept.

The E_a satisfy the Bianchi-type identity checked by check_bianchi, whose
closure expands every class in one pass, and certify_solvability matches
them against an H^2 vanishing oracle: classes of height two and above must
vanish, classes of height one are recorded as nontriviality requirements on
the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain

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


def _root_key(c: Coords) -> tuple[int, Coords]:
    # canonical generator order: height of the underlying class, then coords
    return (abs(sum(c)), c)


def _monomials(keys) -> bool:
    """Whether every key is a (phis, psis) pair of tuples of integer tuples.
    The types are gathered by maps over the flattened keys: a loop over each
    key's coordinates doubled the time build_system takes for E8's forms."""
    if not (set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}):
        return False
    blocks = tuple(chain.from_iterable(keys))
    if not set(map(type, blocks)) <= {tuple}:
        return False
    coords = tuple(chain.from_iterable(blocks))
    if not set(map(type, coords)) <= {tuple}:
        return False
    return set(map(type, chain.from_iterable(coords))) <= {int}


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
    # the terms [x_a, b_g] of the half's rows, a as its position in the half,
    # sorted by column: the terms of column g are one run
    row, col, tgt, val = constants.bracket_table
    dim = rank + len(rs.all_roots)
    # half positions of the basis, -1 elsewhere and at dim ("not a root")
    position = np.full(dim + 1, -1)
    position[rank + index] = np.arange(n)
    keep = np.flatnonzero(position[row] >= 0)
    keep = keep[np.argsort(col[keep], kind="stable")]
    at_a, at_t, at_c = position[row[keep]], tgt[keep], val[keep].astype(np.int64)
    at_g = col[keep].astype(np.int64)
    col_ptr = np.searchsorted(at_g, np.arange(dim + 1))
    del row, col, tgt, val, keep

    # a monomial of D^2 is psi_p (id p) or phi_p phi_q with p < q (id n + p*n + q);
    # one key of the Cartan column h_k is (k * width + monomial id) * dim + target
    width = n + n * n
    # D(h_k) = sum_a phi_a [x_a, h_k], then delta(phi_a) = psi_a and
    # phi_b phi_a [x_b, [x_a, h_k]] for b != a, with the sign of sorting
    # phi_b phi_a: +1 when b comes before a
    g = slice(0, col_ptr[rank])
    a, t1, c1, gw = at_a[g], at_t[g], at_c[g], at_g[g] * width
    j, k = runs(col_ptr[t1], col_ptr[t1 + 1])
    b = at_a[k]
    keep = b != a[j]
    b, j, k = b[keep], j[keep], k[keep]
    lo, hi = np.minimum(b, a[j]), np.maximum(b, a[j])
    sign = np.where(b < a[j], 1, -1)
    h_keys, h_vals = sum_by_key(
        np.concatenate([(gw + a) * dim + t1, (gw[j] + n + lo * n + hi) * dim + at_t[k]]),
        np.concatenate([c1, sign * c1[j] * at_c[k]]),
    )
    del a, t1, c1, gw, j, k, b, keep, lo, hi, sign

    # extract every E_a at once: ad(x_a) h_k = -(a, a_k) x_a, so E_a is the
    # part of the Cartan column k_a, the first k with (a, a_k) != 0, at the
    # target x_a, divided by -(a, a_k); a key's class is read from its target
    coords = [a.coords for a in roots]
    root_coords = np.array(coords, dtype=np.int64)
    pairings = root_coords @ np.array(rs.cartan, dtype=np.int64)
    first = (pairings != 0).argmax(axis=1)
    denom = -pairings[np.arange(n), first]
    cls = position[h_keys % dim]
    at = (cls >= 0) & (h_keys // (width * dim) == first[cls])
    cls, vals, den = cls[at], h_vals[at], denom[cls[at]]
    bad = cls[vals % den != 0]
    if bad.size:
        a = int(bad.min())
        raise CancellationFailure(
            f"{rs.name} {half.value}: column h{first[a] + 1} is not divisible "
            f"by {denom[a]} at class {roots[a]}"
        )
    e_keys = cls * width + h_keys[at] // dim % width
    order = np.argsort(e_keys)
    extracted = (e_keys[order], (vals // den)[order])

    # the closed formula, from the sum and sign tables: psi_s plus
    # n_{p,q} phi_p phi_q for each pair p < q of the half whose sum is s must
    # give E_s monomial for monomial
    p, q = np.triu_indices(n, 1)
    s = position[rank + constants.sum_index[index[p], index[q]]]
    p, q, s = p[s >= 0], q[s >= 0], s[s >= 0]
    closed = sum_by_key(
        np.r_[np.arange(n) * (width + 1), s * width + n + p * n + q],
        np.r_[np.ones(n, dtype=np.int64), constants.sign_table[index[p], index[q]]],
    )
    if not all(map(np.array_equal, closed, extracted)):
        raise ConstructionFailure(
            f"{rs.name} {half.value}: the closed quadratic formula disagrees "
            f"with the double expansion of D^2"
        )

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
    position = {a.coords: i for i, a in enumerate(roots)}
    terms, misshapen = [], set()
    for a, alpha in enumerate(roots):
        own = ((), (alpha.coords,))
        form_terms = forms[alpha.coords].terms
        if form_terms.get(own) != 1:
            misshapen.add(a)
        for mono, v in form_terms.items():
            phis, psis = mono
            if len(phis) == 2 and not psis:
                x, y = position.get(phis[0], -1), position.get(phis[1], -1)
                if x >= 0 and y >= 0 and x != y:
                    terms.append((a, x, y, v) if x < y else (a, y, x, -v))
                    continue
            if mono != own:
                misshapen.add(a)
    cls, p, q, val = zip(*terms) if terms else ((),) * 4
    cls, p, q = (np.array(x, dtype=np.int64) for x in (cls, p, q))
    # a class expands to at most 2 len(terms)**2 products of two
    # coefficients: int64 holds their sums when that bound fits
    wide = 2 * len(terms) ** 2 * max(map(abs, val), default=0) ** 2 >= 2**63
    val = np.array(val, dtype=object if wide else np.int64)
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
    or z.  Both sides of every class are expanded in one pass, by runs over
    the class pointers, and summed by (class, triple)."""
    ptr = np.searchsorted(cls, np.arange(n + 1))
    x, right, v = np.r_[p, q], np.r_[q, p], np.r_[val, -val]
    j, k = runs(ptr[right], ptr[right + 1])
    a, x, y, z = np.r_[cls, cls][j], x[j], p[k], q[k]
    vals = v[j] * val[k]
    vals[(y < x) & (x < z)] *= -1
    vals[(x == y) | (x == z)] = 0
    lo, hi = np.minimum(x, y), np.maximum(x, z)
    return sum_by_key(((a * n + lo) * n + x + y + z - lo - hi) * n + hi, vals)


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
