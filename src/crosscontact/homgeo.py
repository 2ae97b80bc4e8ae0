"""Invariant Riemannian geometry of G/H at the origin.

A G-invariant metric is a diagonal Gram matrix on the restricted-root frame;
the U-map is the symmetric correction in the Levi-Civita bilinear
alpha(u, v) = [u, v]/2 + U(u, v), obtained from the Gram linear system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compactform import DEFAULT_TOL, ToleranceConfig, positive_finite
from .crossmodel import RestrictedFrame


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class MetricParams:
    """Block coefficients (a, a_eps, a_half, b_eps, b_half) of an invariant metric."""

    a: float
    a_eps: float
    a_half: float
    b_eps: float
    b_half: float

    def __post_init__(self):
        if not positive_finite(*self.as_tuple()):
            raise GeometryError(f"metric parameters must be positive finite numbers, "
                                f"got {self.as_tuple()!r}")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.a, self.a_eps, self.a_half, self.b_eps, self.b_half)


@dataclass
class InvariantMetric:
    """Invariant metric as its Gram matrix in the restricted-root frame.

    The Gram matrix must be diagonal: the U-map solves its Gram system by
    dividing by the diagonal. metric_from_params builds the diagonal family.
    """

    gram: np.ndarray

    def __post_init__(self):
        if np.any(self.gram != np.diag(np.diagonal(self.gram))):
            raise GeometryError("invariant metric Gram matrix must be diagonal "
                                "in the restricted-root frame")


def gram_diagonal(frame: RestrictedFrame, coeffs: np.ndarray) -> np.ndarray:
    """Gram diagonal: a^2 on the Cartan line and a_l, b_l on each block.

    The last axis of coeffs is (a, a_eps, a_half, b_eps, b_half); leading axes
    stack several metrics.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    blocks = np.concatenate([coeffs[..., :1] ** 2, coeffs[..., 1:]], axis=-1)
    sizes = [s.stop - s.start for s in frame.slices().values()]
    return np.repeat(blocks, sizes, axis=-1)


def metric_from_params(frame: RestrictedFrame, params: MetricParams) -> InvariantMetric:
    """Assemble the diagonal Gram matrix of the metric with these block coefficients."""
    return InvariantMetric(np.diag(gram_diagonal(frame, params.as_tuple())))


def u_block(frame: RestrictedFrame, gram_diag: np.ndarray, rows: slice,
            cols: slice) -> np.ndarray:
    """U[..., i, j, :] for e_i in the frame slice rows and e_j in cols.

    U solves 2<U(e_i,e_j), w> = <[w,e_i],e_j> + <[w,e_j],e_i> for all w; the
    Gram system is diagonal (see InvariantMetric), so it is solved by division.
    Leading axes of gram_diag stack several metrics. The slices read cbar
    through views. Criterion 03 reads U a block pair at a time for its closed
    forms; everywhere else U is read on its support (u_entries).
    """
    c = frame.cbar
    cg = c[:, rows, cols] * gram_diag[..., None, None, cols]  # cg[w,i,j] = g([e_w,e_i], e_j)
    gc = cg if rows == cols else c[:, cols, rows] * gram_diag[..., None, None, rows]
    rhs = cg + gc.swapaxes(-2, -1)  # rhs[w,i,j]
    u = 0.5 * (rhs * (1.0 / gram_diag)[..., :, None, None])
    return u.transpose(*range(u.ndim - 3), -2, -1, -3)


def u_entries(frame: RestrictedFrame, gram_diag: np.ndarray, i: np.ndarray,
              j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U(e_i, e_j)_w at the index arrays (i, j, w), in the association of u_block.

    Leading axes of gram_diag stack several metrics; the last axis of the
    result runs over the entries. U(e_i, e_j)_w is zero unless cbar[w, i, j]
    or cbar[w, j, i] is nonzero, which are the entries of
    frame.paired_support["u"].
    """
    c = frame.cbar
    return 0.5 * ((c[w, i, j] * gram_diag[..., j] + c[w, j, i] * gram_diag[..., i])
                  * (1.0 / gram_diag)[..., w])


def killing_residual(frame: RestrictedFrame, gram_diag: np.ndarray,
                     xi: np.ndarray) -> np.ndarray:
    """Max over basis pairs of |<U(e_i,e_j), xi>| (zero iff xi is Killing).

    The U-map identity at w = xi gives 2<U(e_i,e_j), xi> = <[xi,e_i],e_j> +
    <[xi,e_j],e_i> = ad[i,j] g_j + ad[j,i] g_i, with ad[i,j] the
    e_j-coefficient of [xi, e_i] and g the Gram diagonal. Leading axes of
    gram_diag and xi stack several metrics and vectors; the result has the
    broadcast of those axes.
    """
    ad = np.tensordot(xi, frame.cbar, axes=1)
    half = ad * gram_diag[..., None, :]  # half[..., i, j] = ad[i, j] g_j
    vals = half + np.swapaxes(half, -2, -1)
    vals *= 0.5
    return np.max(np.abs(vals, out=vals), axis=(-2, -1))


def is_killing(frame: RestrictedFrame, metric: InvariantMetric, xi: np.ndarray,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    res = float(killing_residual(frame, np.diagonal(metric.gram), xi))
    return tol.is_zero(res), res


def is_naturally_reductive(frame: RestrictedFrame, metric: InvariantMetric,
                           tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the U-map vanishes identically, read on its support."""
    u = u_entries(frame, np.diagonal(metric.gram), *frame.paired_support["u"])
    return tol.is_zero(float(np.max(np.abs(u), initial=0.0)))
