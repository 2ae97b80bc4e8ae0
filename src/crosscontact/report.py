"""Deterministic verification reports with text and JSON serialization."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Check:
    """A single named verification with its residual and outcome."""

    name: str
    claim_ref: str
    passed: bool
    residual: float | None = None
    details: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "claim_ref": self.claim_ref,
                "passed": bool(self.passed),
                "residual": None if self.residual is None else float(self.residual),
                "details": self.details}


@dataclass
class VerificationReport:
    """Aggregate of checks with a consistent summary and wall time."""

    config: dict
    checks: list[Check] = field(default_factory=list)
    wall_time: float = 0.0
    _start: float = field(default_factory=time.perf_counter, repr=False)

    def add(self, name: str, claim_ref: str, passed: bool,
            residual: float | None = None, details: str = "") -> None:
        self.checks.append(Check(name, claim_ref, passed, residual, details))

    def finalize(self) -> "VerificationReport":
        self.wall_time = time.perf_counter() - self._start
        self.checks.sort(key=lambda c: c.name)
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        total = len(self.checks)
        npass = sum(1 for c in self.checks if c.passed)
        return {"total": total, "passed": npass, "failed": total - npass}

    def to_dict(self) -> dict:
        return {"config": self.config,
                "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
                "summary": self.summary(),
                "wall_time": round(self.wall_time, 3)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            mark = "PASS" if c.passed else "FAIL"
            res = "" if c.residual is None else f"  residual={c.residual:.3e}"
            det = f"  ({c.details})" if c.details else ""
            lines.append(f"[{mark}] {c.name}{res}{det}")
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed"
                     f" in {self.wall_time:.2f}s")
        return "\n".join(lines)
