"""Kernels over batches of weights, on numpy arrays of exact integers.

The graded Euler sum folds the last layer of degree-multisets of positive
roots into their distinct sums a block at a time, and evaluates Weyl's
product on those sums a slice at a time, so that past the layer below the
last, neither the multiset count nor the count of regular sums sets its
memory.  numpy is
imported here at module level, and the package imports this module only
inside the functions that run its kernels (cotangent.euler_characteristic_graded
delegates here), so the commands that build no arrays neither import numpy
nor compile this module.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, prod
from operator import index, mul

import numpy as np

from ._exact import digits_past_limit
from .cotangent import MAX_TERMS
from .errors import (
    BudgetExceeded, ConstructionFailure, InvalidBound, NegativeDegree, NonIntegerDegree
)
from .roots import LatticeVector, RootSystem, checked_system, root_vector

BLOCK = 2 ** 16  # multisets of the last layer written at once
SLICE = 2 ** 12  # distinct sums whose Weyl products are taken at once


def euler_characteristic_graded(
    rs: RootSystem, lam: LatticeVector, degree: int, max_terms: int = MAX_TERMS
) -> int:
    """Sum of Euler characteristics of lam shifted by all degree-multisets of
    positive roots: the Euler characteristic of the degree-th symmetric-power
    twist.  Raises, before any fold work, NotARootSystem for an rs that is
    not a RootSystem, BasisMismatch for a lam that is not a LatticeVector of
    rs's rank, NonIntegerDegree for a degree and InvalidBound for a
    max_terms that operator.index does not read, NegativeDegree for a degree
    below zero and BudgetExceeded when the multiset count, or the degree + 1
    layers of the fold, pass max_terms.

    Many multisets share a root sum, so they are first folded into distinct
    sums with multiplicities.  A sum of degree positive roots has simple-root
    coordinate i in 0..degree * m_i, m the highest root, so it packs into one
    mixed-radix integer, and adding roots is adding integers.  Layer j lists
    the packed j-multisets ordered by their last root; those whose last root
    is r are the (j - 1)-multisets over roots 0..r shifted by r, which are
    the first C(r + j - 1, j - 1) entries of layer j - 1.  Layers up to
    degree - 1 are built whole; the last, the largest, is only written
    BLOCK multisets at a time.  A multiset whose sum pairs to zero with
    some simple root is singular and is dropped as it is written; the kept
    keys are sorted, counted by runs and merged into one sorted list of
    distinct sums with their multiplicities.

    Bott's theorem with Weyl's dimension formula gives, for every weight nu,
    chi(nu) = prod_a (nu + rho, a) / prod_a (rho, a) over the positive roots
    a: zero exactly on singular nu + rho, and signed (-1)^length of the Weyl
    element that makes nu + rho dominant, so no dominant conjugate is needed.
    The factors (nu + rho, a) are columns over SLICE distinct sums at a time,
    taken in height order: a simple root's column decodes from the packed
    sums, and root k plus alpha_i adds column alpha_i to column k, as
    positive_pairings does for one weight.  The factors multiply in groups
    whose products stay in int64 (on Python ints, dtype object, when a factor
    might not); a sum leaves at the first group that reads zero, the groups
    of the rest multiply on Python ints, and each numerator must divide by
    the rho-product, as in weyl_dim.  Each slice adds its exact integer.
    """
    lam = checked_system(rs).to_weight_basis(lam)
    try:
        degree = index(degree)
    except TypeError:
        raise NonIntegerDegree(f"degree {degree!r} is not an integer") from None
    try:
        max_terms = index(max_terms)
    except TypeError:
        raise InvalidBound(f"max_terms {max_terms!r} is not an integer") from None
    if degree < 0:
        raise NegativeDegree(f"degree must be non-negative, got {degree}")
    n_pos = len(rs.positive_roots)
    terms = comb(n_pos + degree - 1, degree) if degree else 1
    if terms > max_terms:
        count = f"more than {max_terms}" if digits_past_limit(terms) else terms
        raise BudgetExceeded(
            f"{count} multisets of degree {degree} exceed the budget {max_terms}"
        )
    if degree >= max_terms:  # only on A1, whose one root has one multiset per degree
        raise BudgetExceeded(
            f"{degree + 1} fold layers of degree {degree} exceed the budget {max_terms}"
        )
    radix = [degree * m + 1 for m in rs.highest_root().coords]
    strides = list(accumulate(radix, mul, initial=1))
    # the largest packed sum is strides[-1] - 1
    key_type = (
        np.int32 if strides[-1] <= 2 ** 31
        else np.int64 if strides[-1] <= 2 ** 63
        else object
    )
    top = lam + rs.rho()
    den = prod(rs.positive_pairings(rs.rho()))  # (rho, a) is the height of a
    # a sum of degree roots pairs with a root within [-2 degree, 2 degree]
    bound = 2 * degree + max(map(abs, rs.positive_pairings(top))) + 1
    wide = bound >= 2 ** 63
    size = n_pos if wide else 63 // bound.bit_length()
    value_type = object if wide else np.int64

    def simple_pairings(keys):  # (c, alpha_i) = (C c)_i over the packed sums c
        digits, rest = [], keys
        for b in radix[:-1]:
            rest, digit = rest // b, rest % b
            digits.append(digit)
        digits.append(rest)
        return [sum(e * digit for e, digit in zip(row, digits) if e) for row in rs.cartan]

    packed = [sum(map(mul, a.coords, strides)) for a in rs.positive_roots]
    layer = np.zeros(1, dtype=key_type)
    for j in range(1, degree):
        # C(n_pos + j - 1, j) j-multisets; count is C(r + j - 1, j - 1)
        nxt = np.empty(len(layer) * (n_pos + j - 1) // j, dtype=key_type)
        end, count = 0, 1
        for r, step in enumerate(packed):
            np.add(layer[:count], step, out=nxt[end:end + count])
            end += count
            count = count * (r + j) // (r + 1)
        layer = nxt

    # The last root r drops the entries c of the layer below at which
    # (c, alpha_i) = -(lam + rho + r, alpha_i) for some i, as nu + rho is then
    # singular (at weight 0 on E8, 34,607 of the 40,741 sums at degree 3).
    # edge holds (c, alpha_i), within [1 - degree, 2 degree - 2] since a root
    # pairs with a simple root within [-1, 2]; live marks the misses in that
    # range, and the others are set to -degree, past it.
    edge_type = np.min_scalar_type(-2 * degree - 2)
    edge = np.empty((rs.rank, len(layer)), dtype=edge_type)
    for lo in range(0, len(layer), BLOCK):
        edge[:, lo:lo + BLOCK] = simple_pairings(layer[lo:lo + BLOCK])
    shifts = np.array(packed if degree else [0], dtype=key_type)
    # root r shifts the first C(r + degree - 1, r) entries of the layer below
    prefix = [comb(r + degree - 1, r) if degree else 1 for r in range(len(shifts))]
    # lam + rho clipped, as a miss past the range is dropped either way
    near = [[max(-2 * degree - 4, min(2 * degree + 4, t))] for t in top.coords]
    misses = -(np.array(simple_pairings(shifts)) + near)
    live = (misses >= 1 - degree) & (misses <= 2 * degree - 2)
    misses[~live] = -degree
    misses = misses.astype(edge_type)[:, :, None]
    sums = np.empty(0, dtype=key_type)
    counts = np.empty(0, dtype=np.min_scalar_type(terms))  # none passes terms
    kept, held, r = [], 0, 0
    while r < len(prefix):
        # roots r..r + n - 1 at once, n times the last one's prefix within BLOCK
        n = 1
        while r + n < len(prefix) and (n + 1) * prefix[r + n] <= BLOCK:
            n += 1
        ends = np.array(prefix[r:r + n])[:, None]
        rows = np.flatnonzero(live[:, r:r + n].any(axis=1))
        for lo in range(0, prefix[r + n - 1], BLOCK):
            hi = min(lo + BLOCK, prefix[r + n - 1])
            # entry x is in root r's prefix when x < C(r + degree - 1, r), as
            # every entry of a piece of one root's prefix is
            ok = np.arange(lo, hi) < ends if n > 1 else np.ones((1, hi - lo), dtype=bool)
            for i in rows:
                ok &= edge[i, lo:hi] != misses[i, r:r + n]
            keys = (layer[lo:hi] + shifts[r:r + n, None])[ok]
            kept.append(keys)
            held += len(keys)
            # a merge copies the sums, so it waits for as many kept keys
            if held >= max(BLOCK, len(sums)):
                sums, counts = _merged(sums, counts, np.concatenate(kept))
                kept, held = [], 0
        r += n
    if held:
        sums, counts = _merged(sums, counts, np.concatenate(kept))
    del layer, edge, kept

    # Column a holds (nu + rho, a) over the live sums.  Root a is root k plus
    # alpha_i, so its column is column k plus column alpha_i, and a column is
    # kept only until the last root that builds on it.
    steps = rs.positive_steps
    simple = {i: a for a, (k, i) in enumerate(steps) if k < 0}
    inputs = [() if k < 0 else (k, simple[i]) for k, i in steps]
    last = {j: a for a, pair in enumerate(inputs) for j in pair}
    total = 0
    for lo in range(0, len(sums), SLICE):
        keys, mults = sums[lo:lo + SLICE], counts[lo:lo + SLICE]
        cols = {
            simple[i]: np.add(p, t, dtype=value_type, casting="unsafe")
            for i, (p, t) in enumerate(zip(simple_pairings(keys), top.coords))
        }
        # products of size factors, each within int64; a sum whose group
        # reads zero is singular, chi(nu) = 0, and leaves there
        groups: list = []
        for a, (k, i) in enumerate(steps):
            col = cols[a] if k < 0 else cols[k] + cols[simple[i]]
            for j in inputs[a]:
                if last[j] == a:
                    del cols[j]
            if a in last:
                cols[a] = col
            groups.append(groups.pop() * col if a % size else col)
            if a % size == size - 1 and not (regular := groups[-1] != 0).all():
                keys, mults = keys[regular], mults[regular]
                groups = [g[regular] for g in groups]
                cols = {j: v[regular] for j, v in cols.items()}
        num = np.ones(len(keys), dtype=object)
        while groups:
            num *= groups.pop()
        bad = np.flatnonzero(num % den)
        if len(bad):
            c = root_vector(*(int(keys[bad[0]]) // s % b for s, b in zip(strides, radix)))
            raise ConstructionFailure(
                f"{rs.name}: Weyl numerator of {lam + rs.to_weight_basis(c)} "
                "is not divisible by the rho-product"
            )
        num //= den
        total += int(np.dot(num, mults.astype(object)))
    return total


def _merged(sums, counts, block):
    """The sorted distinct sums and their counts with block's keys added:
    block is sorted in place and counted by runs, a sum already present adds
    its run to its count, and the others are placed among the old ones."""
    block.sort()
    first = np.ones(len(block), dtype=bool)
    np.not_equal(block[1:], block[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    new, runs = block[starts], np.diff(starts, append=len(block)).astype(counts.dtype)
    del first, starts
    at = np.searchsorted(sums, new)
    hit = np.take(sums, at, mode="clip") == new if len(sums) else at < 0
    counts[at[hit]] += runs[hit]
    at = at[~hit]
    at += np.arange(len(at))  # the places of the new sums among all
    keep = np.ones(len(sums) + len(at), dtype=bool)
    keep[at] = False
    out = []
    for old, added in ((sums, new[~hit]), (counts, runs[~hit])):
        merged = np.empty(len(keep), dtype=old.dtype)
        merged[at], merged[keep] = added, old
        out.append(merged)
    return out
