"""Uniform result records (a verification sweep, one H^2 oracle answer) and
the names of the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .roots import LatticeVector

# the suites of verify.run_suite, here so that cli reads them without verify
SUITES = ("chevalley", "bwb", "index", "cht", "descent", "surface", "obstruction")


@dataclass
class VerificationReport:
    """Outcome of one verification sweep.

    checked counts the individual facts examined; violations holds one entry
    per failed fact.  An empty violation list means the sweep passed.
    """

    name: str
    checked: int = 0
    violations: list[Any] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "VerificationReport") -> None:
        self.checked += other.checked
        self.violations.extend(other.violations)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "checked": self.checked,
            "violations": [str(v) for v in self.violations],
        }
        if self.details:
            out["details"] = {k: self.details[k] for k in sorted(self.details)}
        return out


@dataclass(frozen=True)
class H2VanishVerdict:
    """One oracle answer: whether H^2 vanishes for the given root class."""

    root: LatticeVector
    vanishes: bool
    source: str
    detail: str = ""
