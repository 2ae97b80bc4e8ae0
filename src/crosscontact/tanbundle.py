"""The punctured tangent bundle as G/H x R+: J^q structures and slice induction.

Vectors carry one extra radial slot appended to the frame coordinates. Radial
functions are plain positive evaluators, and an ambient metric is one function
of t; only pointwise values are used.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import contact
from .compactform import DEFAULT_TOL, ToleranceConfig, positive_finite
from .crossmodel import RestrictedFrame
from .homgeo import MetricParams, gram_diagonal

RadialFunction = Callable[[float], float]
# an ambient metric: t -> (its coefficients on G/H, its radial coefficient b)
RadialMetric = Callable[[float], tuple[MetricParams, float]]


class BundleError(ValueError):
    pass


def _positive(name: str, value: float) -> float:
    """value, which must be a positive finite number: BundleError otherwise."""
    if not positive_finite(value):
        raise BundleError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _require_q(*values: float) -> None:
    if not positive_finite(*values):
        raise BundleError(f"q must be positive and finite on the sampled domain, "
                          f"got {values!r}")


def q_values(q: RadialFunction, t: float) -> tuple[float, float]:
    """(q_eps, q_half)(t) = q evaluated on the restricted-root values at t,
    each a positive finite number."""
    _positive("radial coordinate", t)
    qv = tuple(float(q(lam)) for lam in contact.lambda_r(t))
    _require_q(*qv)
    return qv


def _metric_at(metric: RadialMetric, t: float) -> tuple[MetricParams, float]:
    """(params, b) = metric(t), evaluated once: t and b must be positive finite
    numbers, and MetricParams checks the five values on G/H."""
    params, b = metric(_positive("radial coordinate", t))
    return params, _positive("b", float(b))


def jq_matrix(frame: RestrictedFrame, q: RadialFunction, t: float) -> np.ndarray:
    """J^q at (o, t) on frame-plus-radial coordinates."""
    qe, qh = q_values(q, t)
    n = frame.dim_mbar
    j = np.zeros((n + 1, n + 1))
    j[:n, :n] = contact.phi_matrix(frame, qe, qh)
    j[n, 0] = 1.0  # X -> d/dt
    j[0, n] = -1.0  # d/dt -> -X
    return j


def ambient_metric(frame: RestrictedFrame, metric: RadialMetric, t: float) -> np.ndarray:
    """Gram of the invariant ambient metric at (o, t), radial slot last."""
    params, b = _metric_at(metric, t)
    # np.square is x * x, as in gram_diagonal: the a^2 and b^2 slots round alike
    return np.diag(np.append(gram_diagonal(frame, params.as_tuple()), np.square(b)))


def sasaki_metric(t: float) -> tuple[MetricParams, float]:
    """The Sasaki metric: contact.standard_params(t) on G/H and 1 on the radial slot."""
    return contact.standard_params(t), 1.0


def gf_metric(f: RadialFunction) -> RadialMetric:
    """The J^1-compatible family: contact.theorem_params(f(t)) on G/H and b = f(t).
    f(t) must be a positive finite number, as every metric value here."""
    def metric(t: float) -> tuple[MetricParams, float]:
        ft = _positive("f", float(f(t)))
        return contact.theorem_params(ft), ft
    return metric


def _a_is_b(params: MetricParams, b: float, tol: ToleranceConfig) -> bool:
    """The radial half of the Hermitian pairing: a = b, at scale a."""
    return tol.is_zero(params.a - b, scale=params.a)


def is_hermitian(metric: RadialMetric, q: RadialFunction, t: float,
                 tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff a = b and b_l = q_l^2 a_l at the sample t."""
    qv = q_values(q, t)
    params, b = _metric_at(metric, t)
    return _a_is_b(params, b, tol) and contact.hermitian_pairing(
        qv, (params.a_eps, params.a_half), (params.b_eps, params.b_half), tol)


# radii at which extension_admissible samples q(t)/t, decreasing towards 0
PROBE_TS = np.geomspace(1e-1, 1e-6, 11)


def extension_admissible(q: RadialFunction) -> str:
    """'yes'/'no'/'inconclusive' verdict on 0 < lim_{t->0} q(t)/t < inf.
    Each sampled q(t) must be a positive finite number, as in q_values."""
    values = [float(q(t)) for t in PROBE_TS]
    _require_q(*values)
    ratios = np.array(values) / PROBE_TS
    tail = ratios[-5:]
    spread = (tail.max() - tail.min()) / max(abs(tail).max(), 1e-300)
    if spread < 1e-3 and tail.min() > 0:
        return "yes"
    diffs = np.diff(ratios)
    if np.all(diffs > 0) and ratios[-1] > 100.0 * ratios[0]:
        return "no"  # diverges towards +inf
    if np.all(diffs < 0) and ratios[-1] < ratios[0] / 100.0:
        return "no"  # collapses towards 0
    return "inconclusive"


def induce_slice_structure(frame: RestrictedFrame, metric: RadialMetric,
                           q: RadialFunction, r: float,
                           tol: ToleranceConfig = DEFAULT_TOL
                           ) -> contact.AlmostContactStructure:
    """Almost contact metric structure induced on the radius-r slice. The ambient
    pair must be Hermitian at r: a = b here (BundleError), and b_l = q_l^2 a_l
    in contact.phi_q_structure (ContactError)."""
    qv = q_values(q, r)
    params, b = _metric_at(metric, r)
    if not _a_is_b(params, b, tol):
        raise BundleError("ambient pair is not Hermitian at the slice radius: a != b")
    return contact.phi_q_structure(frame, *qv, params, tol)
