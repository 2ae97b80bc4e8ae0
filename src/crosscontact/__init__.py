"""Invariant contact geometry of tangent sphere bundles of compact rank-one
symmetric spaces, verified numerically at the Lie-algebra level."""

from .compactform import CompactLieAlgebra, ToleranceConfig, verify_algebra
from .contact import (AlmostContactStructure, classify, classify_all, standard_structure,
                      theorem_main_structure, uniqueness_scan)
from .crossmodel import Family, RestrictedFrame, SpaceId, SymmetricPair, build_frame
from .homgeo import InvariantMetric, MetricParams, metric_from_params
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "AlmostContactStructure", "CompactLieAlgebra", "Family", "InvariantMetric",
    "MetricParams", "RestrictedFrame", "SpaceId", "SymmetricPair",
    "ToleranceConfig", "VerificationReport", "build_frame", "classify", "classify_all",
    "metric_from_params", "standard_structure", "theorem_main_structure",
    "uniqueness_scan", "verify_algebra", "__version__",
]
