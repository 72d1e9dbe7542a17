"""Answer checks: certificates that hold for any input, and seed references.

Each check returns None when the answer is right and a one-line reason when
it is not.  The certificates use perfbench.lattice only, never adelie.
"""

from __future__ import annotations

import hashlib
import json
import re

from lattice import lattice

# work counts and route descriptors: recorded, never compared, because a
# faster route (an exhaustive sweep in place of a sample) changes them
ROUTE_KEYS = ("checked",)
ROUTE_DETAIL_KEYS = ("jacobi", "adjoint_samples")


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


# -- command-line answers ---------------------------------------------------

def split_payload(payload: dict) -> tuple[dict, dict]:
    """(verdict, route) parts of a CLI JSON payload."""
    verdict = {k: v for k, v in payload.items() if k not in ROUTE_KEYS}
    route = {k: payload[k] for k in ROUTE_KEYS if k in payload}
    details = payload.get("details")
    if isinstance(details, dict):
        verdict["details"] = {k: v for k, v in details.items() if k not in ROUTE_DETAIL_KEYS}
        route.update({k: details[k] for k in ROUTE_DETAIL_KEYS if k in details})
    return verdict, route


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# -- certificates -----------------------------------------------------------

def check_bwb(t: str, weight, ans: dict):
    lat = lattice(t)
    shifted = tuple(w + 1 for w in weight)
    pairings = lat.pairings(shifted)
    if 0 in pairings:
        if ans["status"] != "AllVanish":
            return f"singular shift but status {ans['status']}"
        return None
    if ans["status"] != "Concentrated":
        return f"regular shift but status {ans['status']}"
    index = sum(p < 0 for p in pairings)
    word = ans["word"]
    if ans["degree"] != index or len(word) != index:
        return f"degree {ans['degree']}, word length {len(word)}, index {index}"
    cur = shifted
    for i in word:
        cur = lat.reflect(cur, i - 1)
    if min(cur) <= 0:
        return f"word ends at {cur}, not dominant regular"
    hw = tuple(c - 1 for c in cur)
    if tuple(ans["highest_weight"]) != hw:
        return f"highest weight {ans['highest_weight']} but word gives {hw}"
    if ans["dimension"] != lat.euler(hw):
        return f"dimension {ans['dimension']} != Weyl dimension {lat.euler(hw)}"
    return None


def check_euler(t: str, weight, value: int):
    expect = lattice(t).euler(tuple(weight))
    return None if value == expect else f"euler {value} != Weyl polynomial {expect}"


def check_cht(t: str, weight, ans: dict):
    """lambda_plus, lambda_star and a step-by-step witness chain."""
    lat = lattice(t)
    weight = tuple(weight)
    plus = tuple(ans["lambda_plus"])
    star = tuple(ans["lambda_star"])
    if plus != lat.dominant_conjugate(weight):
        return f"lambda_plus {plus} is not the dominant conjugate"
    if star != lat.least_dominant_above(weight):
        return f"lambda_star {star} is not the least dominant weight above"
    chain = [tuple(v) for v in ans["chain"]]
    if not chain or chain[0] != star or chain[-1] != plus:
        return "chain does not run from lambda_star to lambda_plus"
    if len(chain) - 1 != ans["value"]:
        return f"chain has {len(chain) - 1} steps, value {ans['value']}"
    for lo, hi in zip(chain, chain[1:]):
        step = _sub(hi, lo)
        if not lat.is_dominant(hi) or not any(step) or not lat.in_positive_cone(step):
            return f"chain step {lo} -> {hi} is not a dominant Q+ step"
    if ans["shift"] != sum(lat.to_root(_sub(plus, star))):
        return f"shift {ans['shift']} is not the height of lambda_plus - lambda_star"
    return None


def check_cotangent(t: str, weight, ans: dict):
    bad = check_cht(t, weight, ans)
    if bad:
        return bad
    if ans["vanishing_above"] != ans["value"] or ans["h2_vanish"] != (ans["value"] < 2):
        return "verdict does not follow from the chain height"
    return None


_DESCENT = re.compile(r"^(negated; )?curves \[([0-9, ]*)\] to base ([0-9]+)$")


def check_surface(t: str, root, ans: dict):
    """The divisor squares to -2 and the descent replays curve by curve."""
    lat = lattice(t)
    root = tuple(root)
    d = tuple(ans["divisor"])
    if d != root:
        return f"divisor {d} is not the root's class"
    square = sum(d[i] * lat.cartan[i][j] * d[j] for i in range(lat.rank) for j in range(lat.rank))
    if square != 2:
        return f"divisor squares to {-square}, not -2"
    m = _DESCENT.match(ans["detail"] or "")
    if not ans["vanishes"] or m is None:
        return f"descent verdict {ans['vanishes']} ({ans['detail']})"
    negative = min(root) < 0
    if bool(m.group(1)) != negative:
        return "descent sign does not match the root"
    cur = tuple(-v for v in root) if negative else root
    for i in [int(v) for v in m.group(2).split(",") if v.strip()]:
        if lat.to_weight(cur)[i - 1] != 1:
            return f"curve {i} does not meet {cur} in degree -1"
        cur = tuple(v - (k == i - 1) for k, v in enumerate(cur))
        if cur not in lat.positive_set:
            return f"descent leaves the roots at {cur}"
    base = int(m.group(3))
    if cur != tuple(int(k == base - 1) for k in range(lat.rank)):
        return f"descent ends at {cur}, not curve {base}"
    return None


def check_graded_euler(t: str, weight, degree: int, value: int):
    expect = lattice(t).graded_euler(tuple(weight), degree)
    return None if value == expect else f"graded euler {value} != Weyl sum {expect}"


WARM_CHECKS = {
    "bwb": check_bwb,
    "euler": check_euler,
    "cotangent": check_cotangent,
    "surface": check_surface,
}

# fields of a weight-query answer compared with the seed's answer: the
# invariant ones.  Witnesses (the bwb word, the cht chain, the descent curve
# order in the surface detail) are one valid choice among many; the
# certificates above check them instead.
REFERENCE_FIELDS = {
    "bwb": ("status", "degree", "highest_weight", "dimension"),
    "cotangent": ("value", "lambda_star", "lambda_plus", "shift", "interval_points",
                  "vanishing_above", "h2_vanish"),
    "surface": ("divisor", "vanishes"),
}


def reference_fields(kind: str, ans):
    """The part of an answer that is compared with the seed's answer."""
    fields = REFERENCE_FIELDS.get(kind)
    if fields is None:  # euler: the answer is one integer
        return ans
    return {k: ans[k] for k in fields}
