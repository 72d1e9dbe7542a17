"""Kernels over batches of weights, on numpy arrays of exact integers.

The graded Euler sum folds every degree-multiset of positive roots into its
distinct sums and evaluates Weyl's product on all of them at once.  numpy is
imported here at module level, and the package imports this module only
inside the functions that run its kernels (cotangent.euler_characteristic_graded
delegates here), so the commands that build no arrays neither import numpy
nor compile this module.
"""

from __future__ import annotations

from collections import Counter
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
    the first C(r + j - 1, j - 1) entries of layer j - 1.  Only two layers
    live at once, so memory follows the multiset count, which max_terms
    bounds.  One sort and a run-length count of the last layer give the
    distinct sums and their multiplicities.

    Bott's theorem with Weyl's dimension formula gives, for every weight nu,
    chi(nu) = prod_a (nu + rho, a) / prod_a (rho, a) over the positive roots
    a: zero exactly on singular nu + rho, and signed (-1)^length of the Weyl
    element that makes nu + rho dominant, so no dominant conjugate is needed.
    The factors (nu + rho, a) are columns over the distinct sums, taken in
    height order: a simple root's column decodes from the packed sums, and
    root k plus alpha_i adds column alpha_i to column k, as positive_pairings
    does for one weight.  A sum leaves at its first zero factor, so only
    regular sums reach the later columns.  The factors multiply in blocks
    whose products stay in int64 (on Python ints, dtype object, when a factor
    might not), the blocks on Python ints, and each numerator must divide by
    the rho-product, as in weyl_dim.
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
    packed = [sum(map(mul, a.coords, strides)) for a in rs.positive_roots]
    layer = np.zeros(1, dtype=key_type)
    for j in range(1, degree + 1):
        # C(n_pos + j - 1, j) j-multisets; count is C(r + j - 1, j - 1)
        nxt = np.empty(len(layer) * (n_pos + j - 1) // j, dtype=key_type)
        end, count = 0, 1
        for r, step in enumerate(packed):
            np.add(layer[:count], step, out=nxt[end:end + count])
            end += count
            count = count * (r + j) // (r + 1)
        layer = nxt
    layer.sort()
    first = np.empty(len(layer), dtype=bool)
    first[0] = True
    np.not_equal(layer[1:], layer[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys = layer[starts]
    del layer, first  # the last layer is the largest array; free it first
    mults = np.diff(starts, append=terms)
    del starts

    top = lam + rs.rho()
    den = prod(rs.positive_pairings(rs.rho()))  # (rho, a) is the height of a
    # a sum of degree roots pairs with a root within [-2 degree, 2 degree]
    bound = 2 * degree + max(map(abs, rs.positive_pairings(top))) + 1
    wide = bound >= 2 ** 63
    size = n_pos if wide else 63 // bound.bit_length()
    value_type = object if wide else np.int64

    def simple_column(keys, i):  # (nu + rho, alpha_i) = (lam + rho)_i + (C c)_i
        col = np.full(len(keys), top.coords[i], dtype=value_type)
        for j, entry in enumerate(rs.cartan[i]):
            if entry:
                digit = keys // strides[j]
                digit %= radix[j]
                digit *= entry
                np.add(col, digit, out=col, casting="unsafe")
        return col

    # most singular sums have a zero on a simple root (at weight 0 on E8, 34,607
    # of the 40,741 at degree 3), so those leave before any column is kept
    for i in range(rs.rank):
        regular = simple_column(keys, i) != 0
        keys, mults = keys[regular], mults[regular]

    # Column a holds (nu + rho, a) over the live sums.  Root a is root k plus
    # alpha_i, so its column is column k plus column alpha_i, and a column is
    # kept only while a later root still builds on it.
    steps = rs.positive_steps
    simple = {i: a for a, (k, i) in enumerate(steps) if k < 0}
    inputs = [() if k < 0 else (k, simple[i]) for k, i in steps]
    uses = Counter(j for pair in inputs for j in pair)
    cols: dict[int, object] = {}
    # products of size factors, each within int64
    groups: list = []
    for a, (k, i) in enumerate(steps):
        if k < 0:
            col = simple_column(keys, i)
        else:
            col = cols[k] + cols[simple[i]]
        for j in inputs[a]:
            uses[j] -= 1
            if not uses[j]:
                del cols[j]
        if uses[a]:
            cols[a] = col
        groups.append(groups.pop() * col if a % size else col)
        regular = col != 0
        if not regular.all():  # nu + rho is singular: chi(nu) = 0
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
    return int(np.dot(num, mults.astype(object)))
