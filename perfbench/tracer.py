"""Spans around adelie's public functions, installed from outside the package.

``install`` rebinds each target function in every adelie module namespace
that holds it (and on ``RootSystem`` for methods), so calls made through
``from .x import f`` copies are traced too.  Each call opens a span with its
name, start, end and parent.  A call that opens no child span is folded into
a per-parent record with a call count and summed time; that keeps the
millions of ``pairing`` calls of an E8 sweep from being stored one by one,
while self time, computed from the spans by ``summarise``, stays exact.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# module -> public functions whose spans make up the per-layer metrics;
# "surface_h2_oracle.oracle" is the closure surface_h2_oracle returns
TARGETS = {
    "roots": ("build", "RootSystem.pairing", "RootSystem.to_root_basis"),
    "chevalley": ("build_constants", "verify_chevalley", "verify_ad_homomorphism", "bracket"),
    "flag": ("bwb", "weyl_dim", "euler_characteristic", "verify_root_cohomology",
             "verify_index_bound"),
    "cotangent": ("cht", "cotangent_verdict", "euler_characteristic_graded",
                  "verify_chain_criterion", "verify_descent"),
    "obstruction": ("build_system", "check_bianchi", "certify_solvability", "system_text"),
    "surface": ("resolution_lattice", "root_to_divisor", "minus_two_classes",
                "verify_surface", "surface_h2_oracle.oracle"),
    "verify": ("run_suite", "verify_obstruction", "verify_cht_roots"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)

# exact counts and memory figures gathered from return values, with units
COUNTS = {
    "chevalley.verify_chevalley.checked": "count",
    "verify.run_suite.checked": "count",
    "cotangent.cht.interval_points": "count",
    "cotangent.cht.distinct_args": "count",
    "obstruction.build_system.terms": "count",
    "chevalley.verify_ad_homomorphism.rss_growth_mb": "MB",
    "obstruction.build_system.rss_growth_mb": "MB",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        # [name, start, end, parent] for each call that opened child spans;
        # the list index is the span id
        self.spans: list = []
        self.folded: dict = {}  # (name, parent) -> [calls, seconds, first start, last end]
        self.stack: list = []  # open frames: [name, start, span id or None]
        self.counts = {name: 0 for name in COUNTS}
        self.cht_args: set = set()
        self.absent: list[str] = []

    def _parent_id(self) -> int:
        if not self.stack:
            return -1
        frame = self.stack[-1]
        if frame[2] is None:
            frame[2] = len(self.spans)
            self.spans.append(None)
        return frame[2]

    def _close(self, frame, end: float) -> None:
        name, start, sid = frame
        parent = self._parent_id()
        if sid is None:
            rec = self.folded.get((name, parent))
            if rec is None:
                self.folded[(name, parent)] = [1, end - start, start, end]
            else:
                rec[0] += 1
                rec[1] += end - start
                rec[3] = end
        else:
            self.spans[sid] = [name, start, end, parent]

    def wrap(self, name: str, fn, after=None):
        clock = time.perf_counter
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, clock(), None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, end)
            if after is not None:
                after(result, args)
            return result

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["cotangent.cht.distinct_args"] = len(self.cht_args)
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "folded": [[n, p, *rec] for (n, p), rec in self.folded.items()],
                "counts": counts,
                "absent": self.absent,
            }, fh)

    # -- installation ------------------------------------------------------

    def _hooks(self):
        counts = self.counts

        def add(key):
            def hook(result, args):
                counts[key] += result.checked
            return hook

        def run_suite(result, args):
            # nested run_suite calls ("all" runs each suite) are inside the outer one
            if not any(f[0] == "verify.run_suite" for f in self.stack):
                counts["verify.run_suite.checked"] += result.checked

        def cht(result, args):
            counts["cotangent.cht.interval_points"] += result.interval_points

        def build_system(result, args):
            counts["obstruction.build_system.terms"] += sum(
                len(form.terms) for form in result.obstructions.values()
            )

        return {
            "chevalley.verify_chevalley": add("chevalley.verify_chevalley.checked"),
            "verify.run_suite": run_suite,
            "cotangent.cht": cht,
            "obstruction.build_system": build_system,
        }

    def _rss_wrap(self, key: str, fn):
        counts = self.counts

        def measured(*args, **kwargs):
            before = _maxrss_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] = max(counts[key], _maxrss_mb() - before)

        return measured

    def _cht_args(self, fn):
        seen = self.cht_args

        def recorded(rs, lam, *args, **kwargs):
            seen.add((rs.name, lam.basis.value, lam.coords))
            return fn(rs, lam, *args, **kwargs)

        return recorded

    def install(self) -> None:
        """Rebind every target found; missing ones are listed in ``absent``."""
        namespaces = [mod for key, mod in sys.modules.items()
                      if mod is not None and (key == "adelie" or key.startswith("adelie."))]
        hooks = self._hooks()
        for m, funcs in TARGETS.items():
            mod = sys.modules.get(f"adelie.{m}")
            for f in funcs:
                name = f"{m}.{f}"
                if mod is None:
                    self.absent.append(name)
                    continue
                if f == "surface_h2_oracle.oracle":
                    self._install_oracle(mod, name, namespaces)
                    continue
                owner, attr = mod, f
                if "." in f:
                    cls_name, attr = f.split(".")
                    owner = getattr(mod, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                inner = original
                if name in ("chevalley.verify_ad_homomorphism", "obstruction.build_system"):
                    inner = self._rss_wrap(f"{name}.rss_growth_mb", original)
                elif name == "cotangent.cht":
                    inner = self._cht_args(original)
                wrapped = self.wrap(name, inner, hooks.get(name))
                if owner is not mod:
                    setattr(owner, attr, wrapped)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)

    def _install_oracle(self, mod, name: str, namespaces) -> None:
        factory = getattr(mod, "surface_h2_oracle", None)
        if not callable(factory):
            self.absent.append(name)
            return

        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        traced_factory.__wrapped__ = factory
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is factory:
                    setattr(ns, key, traced_factory)


def summarise(dumps: list[dict]) -> dict[str, float]:
    """Per-function calls, inclusive seconds and self seconds, plus counts.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive call (run_suite "all" running each suite) is not counted twice.
    Self time is a span's duration minus the durations of its child spans.
    """
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for key in COUNTS:
        out[key] = 0
    for d in dumps:
        spans = d["spans"]
        child_time: dict[int, float] = {}
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for name, parent, calls, total, _first, _last in d["folded"]:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + total

        def nested_in_same(name, parent):
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        for sid, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time.get(sid, 0.0)
            if not nested_in_same(name, parent):
                out[f"{name}.s"] += dur
        for name, parent, calls, total, _first, _last in d["folded"]:
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += total
            if not nested_in_same(name, parent):
                out[f"{name}.s"] += total
        for key, value in d["counts"].items():
            if key.endswith("_mb"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out

