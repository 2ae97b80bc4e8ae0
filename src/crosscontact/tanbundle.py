"""The punctured tangent bundle as G/H x R+: J^q structures and slice induction.

Vectors carry one extra radial slot appended to the frame coordinates. Radial
functions are plain positive evaluators; only pointwise values are used.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

import numpy as np

from . import contact
from .compactform import DEFAULT_TOL, ToleranceConfig, positive_finite
from .crossmodel import RestrictedFrame
from .homgeo import MetricParams, gram_diagonal

RadialFunction = Callable[[float], float]

FNS_KEYS = ("a", "b", "a_eps", "a_half", "b_eps", "b_half")
_PARAM_KEYS = tuple(f.name for f in fields(MetricParams))  # FNS_KEYS less the radial b


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


def _metric_values(fns: dict[str, RadialFunction], t: float) -> dict[str, float]:
    """The six metric functions at t, each a positive finite number."""
    _positive("radial coordinate", t)
    vals = {k: float(fns[k](t)) for k in FNS_KEYS}
    if not positive_finite(*vals.values()):
        raise BundleError(f"metric functions must be positive finite numbers at the "
                          f"sample, got {vals!r}")
    return vals


def jq_matrix(frame: RestrictedFrame, q: RadialFunction, t: float) -> np.ndarray:
    """J^q at (o, t) on frame-plus-radial coordinates."""
    qe, qh = q_values(q, t)
    n = frame.dim_mbar
    j = np.zeros((n + 1, n + 1))
    j[:n, :n] = contact.phi_matrix(frame, qe, qh)
    j[n, 0] = 1.0  # X -> d/dt
    j[0, n] = -1.0  # d/dt -> -X
    return j


def ambient_metric(frame: RestrictedFrame, fns: dict[str, RadialFunction],
                   t: float) -> np.ndarray:
    """Gram of the invariant ambient metric at (o, t), radial slot last."""
    vals = _metric_values(fns, t)
    coeffs = [vals[k] for k in _PARAM_KEYS]
    # np.square is x * x, as in gram_diagonal: the a^2 and b^2 slots round alike
    return np.diag(np.append(gram_diagonal(frame, coeffs), np.square(vals["b"])))


def _params_fns(params: Callable[[float], MetricParams], b: RadialFunction) -> dict:
    """The six metric functions: b on the radial slot, the others read off params(t)."""
    return {k: b if k == "b" else (lambda t, k=k: getattr(params(t), k)) for k in FNS_KEYS}


def sasaki_fns() -> dict[str, RadialFunction]:
    """The Sasaki metric: contact.standard_params(t) on G/H and unit on the radial slot."""
    return _params_fns(contact.standard_params, lambda t: 1.0)


def gf_fns(f: RadialFunction) -> dict[str, RadialFunction]:
    """The J^1-compatible family: b = f and contact.theorem_params(f(t)) on G/H.
    f(t) must be a positive finite number, as every metric value here."""
    return _params_fns(lambda t: contact.theorem_params(_positive("f", float(f(t)))), f)


def _sample(fns: dict[str, RadialFunction], q: RadialFunction, t: float,
            tol: ToleranceConfig) -> tuple[tuple[float, float], dict[str, float], bool]:
    """(q_eps, q_half) and the six metric values at t, each evaluated once, and
    whether they pair: a = b, and b_l = q_l^2 a_l by contact.hermitian_pairing."""
    qv, v = q_values(q, t), _metric_values(fns, t)
    return qv, v, tol.is_zero(v["a"] - v["b"], scale=v["a"]) and contact.hermitian_pairing(
        qv, (v["a_eps"], v["a_half"]), (v["b_eps"], v["b_half"]), tol)


def is_hermitian(fns: dict[str, RadialFunction], q: RadialFunction, t: float,
                 tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff a = b and b_l = q_l^2 a_l at the sample t."""
    return _sample(fns, q, t, tol)[2]


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


def induce_slice_structure(frame: RestrictedFrame, fns: dict[str, RadialFunction],
                           q: RadialFunction, r: float,
                           tol: ToleranceConfig = DEFAULT_TOL
                           ) -> contact.AlmostContactStructure:
    """Almost contact metric structure induced on the radius-r slice."""
    qv, v, hermitian = _sample(fns, q, r, tol)
    if not hermitian:
        raise BundleError("ambient pair is not Hermitian at the slice radius")
    return contact.phi_q_structure(frame, *qv, MetricParams(*(v[k] for k in _PARAM_KEYS)), tol)
