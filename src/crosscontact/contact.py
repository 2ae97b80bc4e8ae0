"""Invariant almost contact metric structures on the tangent sphere bundle.

Structures are stored at the origin in the restricted-root frame: phi as a
matrix, the characteristic vector as X/a(r), the contact form as a(r)<X,.>.
Classification (contact / K-contact / Sasakian) is by explicit residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import homgeo
from .compactform import DEFAULT_TOL, ToleranceConfig, positive_finite
from .crossmodel import RestrictedFrame
from .homgeo import InvariantMetric, MetricParams


class ContactError(ValueError):
    pass


def _require_positive(**values: float) -> None:
    """ContactError unless every value is a finite number above zero."""
    for name, value in values.items():
        if not positive_finite(value):
            raise ContactError(f"{name} must be a positive finite number, got {value!r}")


@dataclass
class AlmostContactStructure:
    """(phi, char, eta, g) data at the origin of a slice; eta = a<X,.>."""

    frame: RestrictedFrame
    phi: np.ndarray
    char: np.ndarray  # characteristic vector, frame coordinates
    eta: np.ndarray  # contact covector, frame coordinates
    metric: InvariantMetric


@dataclass
class StructureClass:
    """Classification flags with the residuals that justify them."""

    flags: dict[str, bool]
    residuals: dict[str, float] = field(default_factory=dict)


def lambda_r(r: float) -> tuple[float, float]:
    """(eps, eps/2) restricted-root values at radius r."""
    return r, r / 2.0


def phi_matrix(frame: RestrictedFrame, q_eps: float, q_half: float) -> np.ndarray:
    """phi: X -> 0, xi -> -(1/q_l) zeta, zeta -> q_l xi, per restricted root."""
    _require_positive(q_eps=q_eps)
    if frame.m_half:
        _require_positive(q_half=q_half)
    s, p = frame.slices(), frame.partner()
    q = np.zeros(frame.dim_mbar)  # q_l on the xi of each block
    q[s["m_eps"]], q[s["m_half"]] = q_eps, q_half
    xi = np.flatnonzero(q)
    phi = np.zeros((frame.dim_mbar, frame.dim_mbar))
    phi[p[xi], xi] = -1.0 / q[xi]
    phi[xi, p[xi]] = q[xi]
    return phi


def _char_eta(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The characteristic vector X/a and the contact covector a<X,.>."""
    char, eta = np.zeros(n), np.zeros(n)
    char[0], eta[0] = 1.0 / a, a
    return char, eta


def hermitian_pairing(q: tuple[float, float], a: tuple[float, float],
                      b: tuple[float, float], tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff b_l = q_l^2 a_l on the eps and eps/2 blocks, each at its own scale b_l."""
    return all(tol.is_zero(bl - ql * ql * al, scale=bl) for ql, al, bl in zip(q, a, b))


def phi_q_structure(frame: RestrictedFrame, q_eps: float, q_half: float, params: MetricParams,
                    tol: ToleranceConfig = DEFAULT_TOL) -> AlmostContactStructure:
    """Assemble (phi^q, X/a, a<X,.>, g) from the q scalars and metric parameters, with
    a = params.a. The structure is induced from an ambient Hermitian pair, so the
    metric must satisfy hermitian_pairing."""
    if not hermitian_pairing((q_eps, q_half), (params.a_eps, params.a_half),
                             (params.b_eps, params.b_half), tol):
        raise ContactError("parameters violate the Hermitian pairing b_l = q_l^2 a_l")
    metric = homgeo.metric_from_params(frame, params)
    phi = phi_matrix(frame, q_eps, q_half)
    return AlmostContactStructure(frame, phi, *_char_eta(frame.dim_mbar, params.a), metric)


def standard_params(r: float) -> MetricParams:
    """The Sasaki metric at radius r: (1, 1, 1, lambda_eps(r)^2, lambda_half(r)^2)."""
    _require_positive(r=r)
    le, lh = lambda_r(r)
    return MetricParams(1.0, 1.0, 1.0, le * le, lh * lh)


def standard_structure(frame: RestrictedFrame, r: float) -> AlmostContactStructure:
    """The structure induced by the Sasaki metric on the radius-r sphere bundle."""
    params = standard_params(r)
    return phi_q_structure(frame, *lambda_r(r), params)


def rectified_structure(frame: RestrictedFrame, r: float) -> AlmostContactStructure:
    """Standard structure rescaled (char 2r X, metric /(4r^2)) to a contact candidate."""
    _require_positive(r=r)
    le, lh = lambda_r(r)
    s = 1.0 / (2.0 * r)
    params = MetricParams(s, s * s, s * s, 0.25, 1.0 / 16.0)
    return phi_q_structure(frame, le, lh, params)


def theorem_params(kappa: float) -> MetricParams:
    """The theorem's metric (kappa, kappa/2, kappa/4, kappa/2, kappa/4); it has no r in it."""
    _require_positive(kappa=kappa)
    return MetricParams(kappa, kappa / 2.0, kappa / 4.0, kappa / 2.0, kappa / 4.0)


def theorem_main_structure(frame: RestrictedFrame, kappa: float) -> AlmostContactStructure:
    """The K-contact structure with characteristic vector X/kappa (q identically 1)."""
    return phi_q_structure(frame, 1.0, 1.0, theorem_params(kappa))


def d_eta_matrix(frame: RestrictedFrame) -> np.ndarray:
    """Matrix of d<X,.>: (-1/2) <X, [e_i, e_j]>; d eta is a(r) times it."""
    return -0.5 * frame.cbar[:, :, 0]


def _pairing_axioms(frame: RestrictedFrame, f: np.ndarray, g: np.ndarray, c0: np.ndarray,
                    e0: np.ndarray) -> dict[str, np.ndarray]:
    """The almost contact metric axiom residuals of a phi on the pairing, per structure.

    f[..., j] = phi[p[j], j] with p = frame.partner(), g is the Gram diagonal,
    and c0, e0 (last axis of length 1) are the X-coordinates of char and eta.
    Each dense product of the axioms has one nonzero term per row, taken here
    in the same association, so each residual is the dense one bit for bit.
    """
    p = frame.partner()
    on_x = np.arange(f.shape[-1]) == 0
    terms = {
        "phi_squared": f[..., p] * f + 1.0 - on_x * (c0 * e0),
        "eta_char": e0 * c0 - 1.0,
        "phi_char": f[..., :1] * c0,
        "eta_phi": e0 * f[..., :1],
        "compatibility": (f * g[..., p]) * f - g + on_x * (e0 * e0),
    }
    return {name: np.max(np.abs(t), axis=-1) for name, t in terms.items()}


def _nijenhuis_on_support(frame: RestrictedFrame, f: np.ndarray) -> np.ndarray:
    """Normality tensor N at the entries frame.paired_support["nijenhuis"], per structure.

    N = -c + phi c(phi, phi) - phi c(phi, .) - c(., phi) phi is the Nijenhuis
    torsion plus the 2 d eta term, and f is as in _pairing_axioms. Each dense
    product of N sums one nonzero term, taken here in the same association,
    so the entries are those of the dense tensor bit for bit, and N is zero
    everywhere else.
    """
    c, p = frame.cbar, frame.partner()
    i, j, k = frame.paired_support["nijenhuis"]
    pi, pj, pk = p[i], p[j], p[k]
    fi, fj, fpk = f[:, i], f[:, j], f[:, pk]
    t2 = fi * (fj * c[pi, pj, k])
    t3 = fi * (c[pi, j, pk] * fpk)
    t4 = (fj * c[i, pj, pk]) * fpk
    return -c[i, j, k] + t2 - t3 - t4


def _nabla_phi_on_support(frame: RestrictedFrame, f: np.ndarray, gram: np.ndarray,
                          char: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Deviation of alpha(u, phi v) - phi alpha(u, v) from g(u,v) char - eta(v) u.

    alpha = cbar/2 + U is the Levi-Civita bilinear, with U from
    homgeo.u_entries. The deviation is evaluated per structure at the
    entries frame.paired_support["nabla_phi"], with f as in _pairing_axioms,
    and is zero everywhere else.
    """
    c, p = frame.cbar, frame.partner()
    i, j, k = frame.paired_support["nabla_phi"]
    g = np.diagonal(gram, axis1=-2, axis2=-1)

    def alpha(i, j, k):
        return 0.5 * c[i, j, k] + homgeo.u_entries(frame, g, i, j, k)

    lhs = f[:, j] * alpha(i, p[j], k) - alpha(i, j, p[k]) * f[:, p[k]]
    rhs = gram[:, i, j] * char[:, k] - eta[:, j] * (i == k)
    return lhs - rhs


def classify_all(structures: list[AlmostContactStructure],
                 tol: ToleranceConfig = DEFAULT_TOL) -> list[StructureClass]:
    """Contact / K-contact / Sasakian flags from explicit residuals, per structure.

    The structures are classified together and must share one frame. Each phi
    must lie on the pairing p = frame.partner(), as phi_matrix builds it, and
    char and eta on the Cartan line X. The axioms are then evaluated on the
    pairing, and the normality and nabla phi residuals only where they can be
    nonzero (paired_support).
    """
    if not structures:
        return []
    frame = structures[0].frame
    if any(s.frame is not frame for s in structures):
        raise ContactError("classify_all needs structures on one frame")
    phi = np.stack([s.phi for s in structures])
    gram = np.stack([s.metric.gram for s in structures])
    g = np.diagonal(gram, axis1=-2, axis2=-1)
    char = np.stack([s.char for s in structures])
    eta = np.stack([s.eta for s in structures])
    p = frame.partner()
    f = phi[..., p, np.arange(len(p))]  # f[..., j] = phi[p[j], j]
    if np.count_nonzero(phi) != np.count_nonzero(f):
        raise ContactError("phi has a nonzero entry off the xi/zeta pairing")
    if not np.all(np.isfinite(f)):
        raise ContactError("phi must be finite")
    if np.any(char[:, 1:]) or np.any(eta[:, 1:]):
        raise ContactError("char and eta must lie on the Cartan line X")
    a = eta[:, 0]  # eta = a<X,.>

    columns = _pairing_axioms(frame, f, g, char[:, :1], eta[:, :1])
    columns["axioms"] = np.max(np.stack(list(columns.values())), axis=0)
    columns["contact"] = np.max(np.abs(gram @ phi - a[:, None, None] * d_eta_matrix(frame)),
                                axis=(-2, -1))
    columns["killing"] = homgeo.killing_residual(frame, g, a[:, None] * char)
    for name, values in (("nijenhuis", _nijenhuis_on_support(frame, f)),
                         ("nabla_phi", _nabla_phi_on_support(frame, f, gram, char, eta))):
        columns[name] = np.max(np.abs(values), axis=-1, initial=0.0)  # 0 off the support

    out = []
    for row in zip(*(v.tolist() for v in columns.values())):
        residuals = dict(zip(columns, row))
        acm = tol.is_zero(residuals["axioms"])
        contact = acm and tol.is_zero(residuals["contact"])
        k_contact = contact and tol.is_zero(residuals["killing"])
        sasakian = k_contact and tol.is_zero(residuals["nijenhuis"]) \
            and tol.is_zero(residuals["nabla_phi"])
        out.append(StructureClass(
            flags={"almost_contact_metric": acm, "contact_metric": contact,
                   "k_contact": k_contact, "sasakian": sasakian},
            residuals=residuals))
    return out


def classify(structure: AlmostContactStructure,
             tol: ToleranceConfig = DEFAULT_TOL) -> StructureClass:
    """Contact / K-contact / Sasakian flags of one structure (see classify_all)."""
    return classify_all([structure], tol)[0]


def _k_contact_candidate_residuals(frame: RestrictedFrame, kappa: float,
                                   diags: np.ndarray) -> np.ndarray:
    """Worst axiom/Killing residual of the unique contact candidate phi, per metric.

    Each row of diags is the diagonal of one invariant Gram matrix g. The
    candidate is forced by g(phi u, v) = kappa * d eta(u, v); the metric
    carries a K-contact structure with characteristic vector X/kappa iff the
    candidate satisfies the almost-contact axioms and X is Killing.

    On a restricted-root frame d eta and ad_X are nonzero only on the pairing
    i <-> p[i] (X with X, xi_k with zeta_k), so the candidate lies on the
    pairing and its axioms are those of _pairing_axioms; phi X = 0 and
    eta phi = 0 by its form, so two of them decide. The Killing form has one
    nonzero per row too, at (i, p[i]), and is evaluated the same way, so the
    residuals are those of the dense products bit for bit, in O(P dim_mbar)
    time and memory. On any other orthonormal frame the largest |entry| of
    d eta and ad_X off the pairing is folded into every residual, so a frame
    far off the pairing fails the scan.
    """
    p = frame.partner()
    pairing = np.zeros((len(p), len(p)), dtype=bool)
    pairing[np.arange(len(p)), p] = True  # one True per row, at (i, p[i])
    d_eta, ad_x = d_eta_matrix(frame), frame.cbar[0]
    off = np.maximum(*(np.max(np.abs(m[~pairing]), initial=0.0) for m in (d_eta, ad_x)))
    # g(phi u, v) = kappa d_eta(u, v)  =>  phi^T G = kappa D  =>  phi = -kappa G^-1 D
    phi = -kappa * (d_eta[pairing] / diags)  # phi[i, p[i]]
    char, eta = _char_eta(frame.dim_mbar, kappa)
    axioms = _pairing_axioms(frame, phi[:, p], diags, char[:1], eta[:1])
    ad = (kappa * char[0]) * ad_x[pairing]  # ad_X[i, p[i]]
    killing = np.max(np.abs(0.5 * (ad * diags[:, p] + ad[p] * diags)), axis=-1)
    worst = np.maximum(np.maximum(axioms["phi_squared"], axioms["compatibility"]), killing)
    return np.maximum(worst, off)


# each scanned parameter runs over [target / SCAN_SPAN, target * SCAN_SPAN]
SCAN_SPAN = 2.0


def uniqueness_scan(frame: RestrictedFrame, kappa: float, grid_size: int = 5,
                    tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Log-grid scan showing only the theorem parameters admit a K-contact structure.

    The grid is centered on theorem_params(kappa). Returns the summary: the
    scanned axes, how many points there are and how many pass, whether the
    theorem point passes and is the only one to, and the smallest failing and
    largest passing residual.
    """
    if grid_size < 3:
        raise ContactError("grid needs at least 3 points per axis")
    theorem, center = theorem_params(kappa), (grid_size - 1) // 2
    axes = ["a_eps", "b_eps"] + (["a_half", "b_half"] if frame.m_half else [])
    # grid indices of every point, last axis fastest (itertools.product order)
    index = np.indices((grid_size,) * len(axes)).reshape(len(axes), -1).T
    columns = [f.name for f in fields(theorem)]  # the order of theorem.as_tuple()
    coeffs = np.tile(theorem.as_tuple(), (len(index), 1))  # one metric per grid point
    for n, k in enumerate(axes):
        target = getattr(theorem, k)
        grid = np.geomspace(target / SCAN_SPAN, target * SCAN_SPAN, grid_size)
        grid[center] = target  # the exact theorem point at the center of each axis
        coeffs[:, columns.index(k)] = grid[index[:, n]]
    residuals = _k_contact_candidate_residuals(
        frame, kappa, homgeo.gram_diagonal(frame, coeffs))
    passed = np.abs(residuals) <= tol.threshold  # tol.is_zero, per point
    theorem_passed = bool(np.any(passed & np.all(index == center, axis=1)))
    n_passed = int(np.count_nonzero(passed))
    return {"axes": axes, "n_points": len(residuals), "n_passed": n_passed,
            "theorem_point_passed": theorem_passed,
            "min_failing_residual": float(np.min(residuals[~passed], initial=np.inf)),
            "max_passing_residual": float(np.max(residuals[passed], initial=0.0)),
            "unique": theorem_passed and n_passed == 1}
