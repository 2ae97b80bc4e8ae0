"""Frozen reference values, recomputed through the paths the reports use.

The values live in fixtures.json next to this module; refresh() recomputes
them and reports diffs without overwriting, so regressions surface loudly.
The tests check the same values against the dense oracles.
"""

from __future__ import annotations

import json
from importlib import resources

from . import contact, crossmodel
from .crossmodel import Family, SpaceId


def load_fixtures() -> dict[str, float]:
    with resources.files("crosscontact").joinpath("fixtures.json").open() as fh:
        return json.load(fh)


def compute_fixtures() -> dict[str, float]:
    """Recompute every frozen value via classify and the uniqueness scan."""
    cp2 = crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, 2))
    hp1 = crossmodel.build_frame(SpaceId(Family.QUATERNIONIC_PROJECTIVE, 1))
    std = contact.standard_structure(cp2, 0.5)
    return {
        "cp2_standard_r0.5_nijenhuis_max":
            contact.classify(std).residuals["nijenhuis"],
        "cp2_uniqueness_r1_kappa1_grid5_min_failing_residual":
            contact.uniqueness_scan(cp2, 1.0, 5)["min_failing_residual"],
        "hp1_uniqueness_r1_kappa1_grid5_min_failing_residual":
            contact.uniqueness_scan(hp1, 1.0, 5)["min_failing_residual"],
    }


def refresh() -> list[str]:
    """Diff recomputed values against the frozen file; return diff lines."""
    frozen = load_fixtures()
    fresh = compute_fixtures()
    lines = []
    for key in sorted(set(frozen) | set(fresh)):
        old, new = frozen.get(key), fresh.get(key)
        # a NaN fails the bound, so it counts as a diff
        if old is None or new is None or not abs(old - new) <= 1e-9 * max(1.0, abs(old)):
            lines.append(f"{key}: frozen={old!r} recomputed={new!r}")
    return lines
