"""Compact rank-one symmetric spaces as symmetric pairs with restricted-root frames.

Each space is realized at the Lie-algebra level: an involution splits g into
k + m, a Cartan vector X in m is normalized so that ad_X^2 has eigenvalue -1
on the top restricted-root space, and the frame (a, m_eps, m_half, k_eps,
k_half, h) is extracted from the spectrum of ad_X^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import compactform, rootsys
from .compactform import DEFAULT_TOL, CompactLieAlgebra, ToleranceConfig

EIGEN_CLUSTER_TOL = 1e-7  # eigenvalues are second-order quantities


class ModelError(ValueError):
    pass


class Family(str, Enum):
    SPHERE = "sphere"
    REAL_PROJECTIVE = "rp"
    COMPLEX_PROJECTIVE = "cp"
    QUATERNIONIC_PROJECTIVE = "hp"
    CAYLEY_PLANE = "cayley"


@dataclass(frozen=True)
class SpaceId:
    family: Family
    n: int = 2

    def __post_init__(self):
        fam = self.family
        if fam is Family.QUATERNIONIC_PROJECTIVE:
            if self.n < 1:
                raise ModelError("HP^n needs n >= 1")
        elif fam is not Family.CAYLEY_PLANE and self.n < 2:
            raise ModelError(f"{fam.value} needs n >= 2")

    @property
    def base_dim(self) -> int:
        return {Family.SPHERE: self.n, Family.REAL_PROJECTIVE: self.n,
                Family.COMPLEX_PROJECTIVE: 2 * self.n,
                Family.QUATERNIONIC_PROJECTIVE: 4 * self.n,
                Family.CAYLEY_PLANE: 16}[self.family]

    def label(self) -> str:
        if self.family is Family.CAYLEY_PLANE:
            return "CaP2"
        return f"{self.family.value}{self.n}"


def table1_multiplicities(space: SpaceId) -> tuple[int, int]:
    """(m_eps, m_half) for the restricted roots of the space."""
    n = space.n
    return {Family.SPHERE: (n - 1, 0), Family.REAL_PROJECTIVE: (n - 1, 0),
            Family.COMPLEX_PROJECTIVE: (1, 2 * n - 2),
            Family.QUATERNIONIC_PROJECTIVE: (3, 4 * n - 4),
            Family.CAYLEY_PLANE: (7, 8)}[space.family]


def table1_h_dim(space: SpaceId) -> int:
    """dim of the centralizer h of the Cartan line, per the classification table."""
    n = space.n
    if space.family in (Family.SPHERE, Family.REAL_PROJECTIVE):
        return (n - 1) * (n - 2) // 2  # so(n-1)
    if space.family is Family.COMPLEX_PROJECTIVE:
        return 1 + (n - 1) ** 2 - 1  # R + su(n-1)
    if space.family is Family.QUATERNIONIC_PROJECTIVE:
        return 3 + (n - 1) * (2 * n - 1)  # sp(1) + sp(n-1)
    return 21  # so(7)


@dataclass
class SymmetricPair:
    """(g, sigma) with the +-1 eigenspace splitting g = k + m."""

    space: SpaceId
    alg: CompactLieAlgebra
    sigma: np.ndarray
    k_basis: np.ndarray  # columns: orthonormal basis of k (algebra coords)
    m_basis: np.ndarray  # columns: orthonormal basis of m
    ip: np.ndarray  # inner product in use (rescaled later by the frame)

    @property
    def dim_k(self) -> int:
        return self.k_basis.shape[1]

    @property
    def dim_m(self) -> int:
        return self.m_basis.shape[1]


def _orthonormalize(cols: np.ndarray, ip: np.ndarray) -> np.ndarray:
    """Deterministic modified Gram-Schmidt of the columns w.r.t. ip."""
    out = []
    for j in range(cols.shape[1]):
        v = cols[:, j].astype(float).copy()
        for u in out:
            v -= (u @ ip @ v) * u
        nrm = np.sqrt(v @ ip @ v)
        if nrm < 1e-12:
            raise ModelError("dependent vectors in orthonormalization")
        out.append(v / nrm)
    return np.column_stack(out)


def _inner_sigma_signs(rs: rootsys.RootSystem, node: int) -> np.ndarray:
    """Signs of sigma = Ad_{exp 2 pi i t} on the root basis: (-1)^{n_node(alpha)}."""
    rank = rs.rank
    dim = rank + 2 * len(rs.positive_roots)
    signs = np.ones(dim)
    for i, r in enumerate(rs.positive_roots):
        if r.coeffs[node] % 2 == 1:
            signs[rank + 2 * i] = signs[rank + 2 * i + 1] = -1.0
    return signs


def _root_system_for(space: SpaceId) -> rootsys.RootSystem:
    if space.family is Family.COMPLEX_PROJECTIVE:
        basis = rootsys.SimpleBasis.A(space.n)
    elif space.family is Family.QUATERNIONIC_PROJECTIVE:
        basis = rootsys.SimpleBasis.C(space.n + 1)
    else:
        basis = rootsys.SimpleBasis.F4()
    rs = rootsys.generate_positive_roots(basis)
    rootsys.killing_gram(rs)
    rootsys.assign_structure_constants(rs)
    return rs


def build_pair(space: SpaceId) -> SymmetricPair:
    """The symmetric pair of the space, with orthonormal bases of k and m."""
    if space.family in (Family.SPHERE, Family.REAL_PROJECTIVE):
        alg = compactform.build_so_matrix_model(space.n)
        dim = alg.dim
        # the basis A_jk (j < k) is j-major, so m (the A_1k row) comes first
        is_m = np.arange(dim) < space.n
        sigma = np.diag(np.where(is_m, -1.0, 1.0))
        ip = alg.inv_form.copy()
        eye = np.eye(dim)
        m_cols = eye[:, is_m]
        k_cols = eye[:, ~is_m]
    else:
        rs = _root_system_for(space)
        alg = compactform.build_compact_from_roots(rs)
        # inner involution at node 1 (cp, hp) or node 4 in the paper's F4 layout
        node = 3 if space.family is Family.CAYLEY_PLANE else 0
        signs = _inner_sigma_signs(rs, node)
        sigma = np.diag(signs)
        ip = alg.inv_form.copy()
        eye = np.eye(alg.dim)
        m_cols = _orthonormalize(eye[:, signs < 0], ip)
        k_cols = _orthonormalize(eye[:, signs > 0], ip)

    pair = SymmetricPair(space, alg, sigma, k_cols, m_cols, ip)
    if pair.dim_m != space.base_dim:
        raise ModelError(f"dim m = {pair.dim_m}, expected {space.base_dim}")
    return pair


def sigma_automorphism_residual(pair: SymmetricPair) -> float:
    """Max |sigma[x,y] - [sigma x, sigma y]| over basis pairs."""
    s = pair.sigma
    lhs = pair.alg.bracket_tensor @ s.T
    rhs = pair.alg.bracket_table(s, s)
    return float(np.max(np.abs(lhs - rhs)))


def _seed_vector(pair: SymmetricPair) -> np.ndarray:
    """Paper's seed direction for the Cartan line, as an algebra coordinate vector."""
    alg = pair.alg
    v = np.zeros(alg.dim)
    if pair.space.family in (Family.SPHERE, Family.REAL_PROJECTIVE):
        v[alg.basis_labels.index("A12")] = 1.0
        return v
    rs = alg.rootsystem
    if pair.space.family is Family.CAYLEY_PLANE:
        coeffs = (0, 0, 0, 1)
    else:
        coeffs = tuple(int(i == 0) for i in range(rs.rank))
    v[alg.u_index[(coeffs, 0)]] = 1.0  # U0 of the simple root
    return v


def choose_cartan_vector(pair: SymmetricPair) -> tuple[np.ndarray, np.ndarray]:
    """Normalized Cartan vector X and the rescaled inner product.

    X is the paper's seed direction scaled so that -ad_X^2 has top eigenvalue 1
    on m, and the inner product is rescaled so <X, X> = 1.
    """
    alg = pair.alg
    seed = _seed_vector(pair)
    ad = alg.ad(seed)
    sq = -(ad @ ad)
    # restrict to m in the orthonormal m-frame
    mb = pair.m_basis
    op = mb.T @ pair.ip @ sq @ mb
    top = float(np.max(np.linalg.eigvalsh((op + op.T) / 2)))
    if top <= 0:
        raise ModelError("seed direction has no negative ad^2 eigenvalue on m")
    x = seed / np.sqrt(top)
    xx = float(x @ pair.ip @ x)
    ip = pair.ip / xx
    return x, ip


@dataclass
class RestrictedFrame:
    """Orthonormal restricted-root frame of mbar = a + m_eps + m_half + k_eps + k_half."""

    space: SpaceId
    alg: CompactLieAlgebra
    ip: np.ndarray
    x: np.ndarray
    xi_eps: np.ndarray  # columns
    xi_half: np.ndarray
    zeta_eps: np.ndarray
    zeta_half: np.ndarray
    h_basis: np.ndarray
    mbar: np.ndarray  # columns: X, xi_eps, xi_half, zeta_eps, zeta_half
    cbar: np.ndarray  # projected bracket tensor on the mbar frame
    spectrum_m: np.ndarray = field(default=None)
    spectrum_k: np.ndarray = field(default=None)

    @property
    def m_eps(self) -> int:
        return self.xi_eps.shape[1]

    @property
    def m_half(self) -> int:
        return self.xi_half.shape[1]

    @property
    def dim_mbar(self) -> int:
        return self.mbar.shape[1]

    def slices(self) -> dict[str, slice]:
        me, mh = self.m_eps, self.m_half
        return {"a": slice(0, 1),
                "m_eps": slice(1, 1 + me),
                "m_half": slice(1 + me, 1 + me + mh),
                "k_eps": slice(1 + me + mh, 1 + 2 * me + mh),
                "k_half": slice(1 + 2 * me + mh, 1 + 2 * me + 2 * mh)}

    def bracket_mbar(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """mbar-projection of the bracket, in frame coordinates."""
        return np.einsum("i,j,ijk->k", u, v, self.cbar)

    def to_ambient(self, u: np.ndarray) -> np.ndarray:
        return self.mbar @ u

    def summary(self) -> dict:
        return {"space": self.space.label(),
                "dim_base": self.space.base_dim,
                "dim_mbar": self.dim_mbar,
                "m_eps": self.m_eps, "m_half": self.m_half,
                "dim_h": self.h_basis.shape[1],
                "spectrum_m": sorted(set(np.round(self.spectrum_m, 6))),
                "spectrum_k": sorted(set(np.round(self.spectrum_k, 6)))}


def _eigen_split(op: np.ndarray, frame_cols: np.ndarray,
                 targets: tuple[float, ...]) -> tuple[dict[float, np.ndarray], np.ndarray]:
    """Cluster eigenvectors of a symmetric operator to the target eigenvalues."""
    w, v = np.linalg.eigh((op + op.T) / 2)
    groups: dict[float, list[np.ndarray]] = {t: [] for t in targets}
    for i, val in enumerate(w):
        hits = [t for t in targets if abs(val - t) < EIGEN_CLUSTER_TOL]
        if len(hits) != 1:
            raise ModelError(f"stray ad_X^2 eigenvalue {val!r}: not a rank-one frame")
        vec = frame_cols @ v[:, i]
        # deterministic sign: largest-magnitude coordinate positive
        k = int(np.argmax(np.abs(vec)))
        if vec[k] < 0:
            vec = -vec
        groups[hits[0]].append(vec)
    out = {t: (np.column_stack(g) if g else np.zeros((frame_cols.shape[0], 0)))
           for t, g in groups.items()}
    return out, w


def restricted_frame(pair: SymmetricPair, x: np.ndarray | None = None,
                     ip: np.ndarray | None = None) -> RestrictedFrame:
    """Extract the restricted-root frame from the spectrum of ad_X^2."""
    if x is None or ip is None:
        x, ip = choose_cartan_vector(pair)
    alg = pair.alg
    ad = alg.ad(x)
    sq = ad @ ad
    mb = _orthonormalize(pair.m_basis, ip)
    kb = _orthonormalize(pair.k_basis, ip)
    m_groups, wm = _eigen_split(mb.T @ ip @ sq @ mb, mb, (0.0, -1.0, -0.25))
    k_groups, wk = _eigen_split(kb.T @ ip @ sq @ kb, kb, (0.0, -1.0, -0.25))

    a_cols = m_groups[0.0]
    if a_cols.shape[1] != 1:
        raise ModelError("Cartan subspace is not one-dimensional")
    xi_eps = _orthonormalize(m_groups[-1.0], ip)
    xi_half = (_orthonormalize(m_groups[-0.25], ip)
               if m_groups[-0.25].shape[1] else m_groups[-0.25])
    # zeta = -(1/lambda_R(X)) [X, xi]
    zeta_eps = -(ad @ xi_eps)
    zeta_half = -2.0 * (ad @ xi_half)
    h_basis = k_groups[0.0]

    cols = [x.reshape(-1, 1), xi_eps, xi_half, zeta_eps, zeta_half]
    mbar = np.column_stack([c for c in cols if c.shape[1]])
    gram = mbar.T @ ip @ mbar
    if np.max(np.abs(gram - np.eye(mbar.shape[1]))) > 1e-8:
        raise ModelError("mbar frame is not orthonormal")

    # projected bracket tensor: cbar[i,j,k] = <[e_i, e_j], e_k>
    cbar = alg.bracket_table(mbar, mbar) @ (ip @ mbar)

    frame = RestrictedFrame(pair.space, alg, ip, x, xi_eps, xi_half,
                            zeta_eps, zeta_half, h_basis, mbar, cbar,
                            spectrum_m=wm, spectrum_k=wk)
    me, mh = table1_multiplicities(pair.space)
    if (frame.m_eps, frame.m_half) != (me, mh):
        raise ModelError(f"multiplicities {(frame.m_eps, frame.m_half)} != table {(me, mh)}")
    return frame


@functools.cache
def build_frame(space: SpaceId) -> RestrictedFrame:
    """Pair + Cartan vector + frame in one call, built once per space.

    Every caller shares the returned frame, so it must not be written to.
    """
    return restricted_frame(build_pair(space))


def _proj_residual(ip, vecs: np.ndarray, onto: np.ndarray) -> float:
    """Largest norm of the component of a row of vecs outside the span of onto's columns."""
    rem = vecs - (vecs @ ip @ onto) @ onto.T
    return float(np.sqrt(np.max(np.sum((rem @ ip) * rem, axis=1), initial=0.0)))


def verify_bracket_laws(frame: RestrictedFrame,
                        tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Check the bracket inclusion table and the eps/half pairing identities."""
    alg, ip = frame.alg, frame.ip
    sub = {"a": frame.x.reshape(-1, 1), "m_eps": frame.xi_eps, "m_half": frame.xi_half,
           "k_eps": frame.zeta_eps, "k_half": frame.zeta_half, "h": frame.h_basis}

    def span(*names: str) -> np.ndarray:
        cols = [sub[n] for n in names if sub[n].shape[1]]
        return np.column_stack(cols) if cols else np.zeros((alg.dim, 0))

    inclusions = [
        ("h", "m_eps", ("m_eps",)), ("h", "m_half", ("m_half",)),
        ("h", "k_eps", ("k_eps",)), ("h", "k_half", ("k_half",)),
        ("a", "m_eps", ("k_eps",)), ("a", "m_half", ("k_half",)),
        ("a", "k_eps", ("m_eps",)), ("a", "k_half", ("m_half",)),
        ("m_eps", "m_eps", ("h",)), ("m_eps", "m_half", ("k_half",)),
        ("m_eps", "k_eps", ("a",)), ("m_eps", "k_half", ("m_half",)),
        ("m_half", "m_half", ("h", "k_eps")), ("m_half", "k_eps", ("m_half",)),
        ("m_half", "k_half", ("a", "m_eps")),
        ("k_eps", "k_eps", ("h",)), ("k_eps", "k_half", ("k_half",)),
        ("k_half", "k_half", ("h", "k_eps")),
    ]
    br = alg.bracket_table
    checks = {}
    for s1, s2, tgt in inclusions:
        vecs = br(sub[s1], sub[s2]).reshape(-1, alg.dim)
        checks[f"[{s1},{s2}]c{'+'.join(tgt)}"] = _proj_residual(ip, vecs, span(*tgt))

    # pairing identities between the eps and half blocks
    xe, ze, xh, zh = frame.xi_eps, frame.zeta_eps, frame.xi_half, frame.zeta_half
    checks["eps_half_pairing"] = max(
        float(np.max(np.abs(br(xe, xh) - br(ze, zh)), initial=0.0)),
        float(np.max(np.abs(br(ze, xh) + br(xe, zh)), initial=0.0)))
    passed = all(tol.is_zero(v) for v in checks.values())
    return {"checks": checks, "passed": passed}


def center_of_h(frame: RestrictedFrame) -> np.ndarray:
    """Basis (columns) of the center of h via null-space extraction of ad|_h."""
    alg, ip, hb = frame.alg, frame.ip, frame.h_basis
    nh = hb.shape[1]
    if nh == 0:
        return hb
    # column i = flattened ad_{h_i} restricted to h, rows (p, j) = <h_p, [h_i, h_j]>
    mat = (alg.bracket_table(hb, hb) @ ip @ hb).transpose(2, 1, 0).reshape(nh * nh, nh)
    _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    null = [vt[k] for k in range(nh) if k >= len(sv) or sv[k] < 1e-9]
    if not null:
        return np.zeros((alg.dim, 0))
    return hb @ np.column_stack(null)


def fixture_check_cp2_brackets(frame: RestrictedFrame,
                               tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Basis-independent scalar checks of the complex-projective bracket table."""
    if frame.space.family is not Family.COMPLEX_PROJECTIVE:
        raise ModelError("fixture applies to complex projective spaces only")
    br, ip = frame.alg.bracket_table, frame.ip
    xe, ze, xh, zh = frame.xi_eps[:, :1], frame.zeta_eps[:, :1], frame.xi_half, frame.zeta_half
    checks = {}
    checks["[xi_eps,zeta_eps]=-X"] = float(np.max(np.abs(br(xe, ze)[0, 0] + frame.x)))
    half = np.diagonal(br(xh, zh)).T  # row p = [xi_p, zeta_p]
    worst_half = float(np.max(np.abs(half @ ip @ frame.x + 0.5), initial=0.0))
    b = br(xe, xh)[0]  # row p = [xi_eps, xi_p]
    worst_norm = float(np.max(np.abs(np.sqrt(np.sum((b @ ip) * b, axis=1)) - 0.5),
                              initial=0.0))
    worst_pair = float(np.max(np.abs(br(xe, zh)[0] + br(ze, xh)[0]), initial=0.0))
    checks["<[xi_half,zeta_half],X>=-1/2"] = worst_half
    checks["|[xi_eps,xi_half]|=1/2"] = worst_norm
    checks["eps_half_antipairing"] = worst_pair
    passed = all(tol.is_zero(v) for v in checks.values())
    return {"checks": checks, "passed": passed}
