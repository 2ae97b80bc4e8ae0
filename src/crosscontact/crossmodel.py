"""Compact rank-one symmetric spaces as symmetric pairs with restricted-root frames.

Each space is realized at the Lie-algebra level: an involution splits g into
k + m, a Cartan vector X in m is normalized so that ad_X^2 has eigenvalue -1
on the top restricted-root space, and the frame (a, m_eps, m_half, k_eps,
k_half, h) is read from one eigendecomposition of ad_X^2 on m, with h the
orthogonal complement in k of the zetas.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import compactform, rootsys
from .compactform import DEFAULT_TOL, CompactLieAlgebra, ToleranceConfig

FRAME_TOL = 1e-8  # eigenvalue levels of -ad_X^2 and the frame's orthonormality


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
        if not isinstance(fam, Family):
            raise ModelError(f"unknown family {fam!r}")
        try:  # numpy integers pass, 2.5 fails, and True is stored as 1
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ModelError(f"n must be an integer, got {self.n!r}") from None
        if fam is Family.CAYLEY_PLANE:  # the one Cayley plane, CaP2
            object.__setattr__(self, "n", 2)
        elif fam is Family.QUATERNIONIC_PROJECTIVE:
            if self.n < 1:
                raise ModelError("HP^n needs n >= 1")
        elif self.n < 2:
            raise ModelError(f"{fam.value} needs n >= 2")

    def label(self) -> str:
        if self.family is Family.CAYLEY_PLANE:
            return "CaP2"
        return f"{self.family.value}{self.n}"


@dataclass
class SymmetricPair:
    """(g, sigma) with the +-1 eigenspace splitting g = k + m.

    sigma is diagonal on the algebra basis: sigma e_i = signs[i] e_i, so the
    signs decide k and m, and the orthonormal bases of both are derived from
    them. The basis vector e_seed lies in m and is the seed direction of the
    Cartan line.
    """

    space: SpaceId
    alg: CompactLieAlgebra
    signs: np.ndarray  # +-1 per basis vector: +1 on k, -1 on m
    seed: int

    def __post_init__(self):
        s = self.signs
        if np.shape(s) != (self.alg.dim,) or not np.all(np.abs(s) == 1):
            raise ModelError(f"sigma needs one sign +-1 per basis vector of dim {self.alg.dim}")
        # the bracket entries are nonzero, so sigma[x, y] = [sigma x, sigma y]
        # holds iff s_i s_j = s_k on every entry (i, j, k)
        i, j, k = self.alg.index.T
        if np.any(s[i] * s[j] != s[k]):
            raise ModelError("sigma is not an automorphism of the bracket")
        if not (0 <= self.seed < self.alg.dim and s[self.seed] < 0):
            raise ModelError(f"seed {self.seed} is not a basis index in m")

    @functools.cached_property
    def k_basis(self) -> np.ndarray:
        """Columns: an orthonormal basis of k (algebra coordinates)."""
        return _orthonormal_basis(self.alg.inv_form, self.signs > 0)

    @functools.cached_property
    def m_basis(self) -> np.ndarray:
        """Columns: an orthonormal basis of m (algebra coordinates)."""
        return _orthonormal_basis(self.alg.inv_form, self.signs < 0)


def _orthonormal_basis(form: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Gram-Schmidt under form of the basis vectors e_i with on[i], in index order.

    That is L^-T for the Cholesky factor L of their Gram block, placed at the
    rows of the selection. The block is read straight from the form, so the
    factor is as well conditioned as the form itself. A pivot L_jj is the
    norm that Gram-Schmidt divides by at column j.
    """
    try:
        low = np.linalg.cholesky(form[np.ix_(on, on)])
        dependent = np.min(np.diagonal(low), initial=np.inf) < 1e-12
    except np.linalg.LinAlgError:
        dependent = True
    if dependent:
        raise ModelError("dependent vectors in orthonormalization")
    out = np.zeros((len(form), len(low)))
    out[on] = np.linalg.inv(low).T
    return out


def build_pair(space: SpaceId) -> SymmetricPair:
    """The symmetric pair of the space: its algebra, sigma and the seed of X."""
    if space.family in (Family.SPHERE, Family.REAL_PROJECTIVE):
        alg = compactform.build_so_matrix_model(space.n)
        # the basis A_jk (j < k) is j-major, so m (the A_1k row) comes first, seed A12
        return SymmetricPair(space, alg, np.where(np.arange(alg.dim) < space.n, -1.0, 1.0), 0)
    if space.family is Family.COMPLEX_PROJECTIVE:
        basis = rootsys.SimpleBasis.A(space.n)
    elif space.family is Family.QUATERNIONIC_PROJECTIVE:
        basis = rootsys.SimpleBasis.C(space.n + 1)
    else:
        basis = rootsys.SimpleBasis.F4()
    rs = rootsys.RootSystem.of(basis)
    alg = compactform.build_compact_from_roots(rs)
    # inner involution sigma = Ad_{exp 2 pi i t} at node 1 (cp, hp) or node 4
    # in the paper's F4 layout: (-1)^{n_node(alpha)} on U0_alpha and U1_alpha
    node = 3 if space.family is Family.CAYLEY_PLANE else 0
    odd = np.flatnonzero([r[node] % 2 for r in rs.positive_roots])
    signs = np.ones(alg.dim)
    for a in (0, 1):
        signs[compactform.u_basis_index(rs.rank, odd, a)] = -1.0
    # the seed is U0 of the simple root at that node
    simple = tuple(int(i == node) for i in range(rs.rank))
    seed = compactform.u_basis_index(rs.rank, rs.positive_roots.index(simple), 0)
    return SymmetricPair(space, alg, signs, seed)


def _block_slices(me: int, mh: int) -> dict[str, slice]:
    """The blocks of mbar for the multiplicities me = m_eps and mh = m_half."""
    return {"a": slice(0, 1),
            "m_eps": slice(1, 1 + me),
            "m_half": slice(1 + me, 1 + me + mh),
            "k_eps": slice(1 + me + mh, 1 + 2 * me + mh),
            "k_half": slice(1 + 2 * me + mh, 1 + 2 * me + 2 * mh)}


# (s1, s2, targets): [s1, s2] lies in the span of the target blocks, over the
# blocks of mbar and h; [a, a] = 0 is the one pair of blocks not listed
INCLUSIONS = (
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
)


@dataclass
class RestrictedFrame:
    """Orthonormal restricted-root frame of mbar = a + m_eps + m_half + k_eps + k_half.

    The frame vectors are the columns of mbar only; slices() names its blocks.
    """

    space: SpaceId
    alg: CompactLieAlgebra
    ip: np.ndarray
    m_eps: int  # multiplicities of the restricted roots eps and eps/2
    m_half: int
    h_basis: np.ndarray
    mbar: np.ndarray  # columns: X, xi_eps, xi_half, zeta_eps, zeta_half
    cbar: np.ndarray  # projected bracket tensor on the mbar frame

    @property
    def dim_mbar(self) -> int:
        return self.mbar.shape[1]

    def slices(self) -> dict[str, slice]:
        return _block_slices(self.m_eps, self.m_half)

    def partner(self) -> np.ndarray:
        """Index array p pairing X with itself and each xi_k with its zeta_k."""
        s = self.slices()
        xi = np.arange(s["m_eps"].start, s["m_half"].stop)  # the zetas follow in this order
        return np.concatenate(([0], xi + len(xi), xi))

    @functools.cached_property
    def paired_support(self) -> dict[str, np.ndarray]:
        """Entries (i, j, k) where the normality and nabla phi residuals can be nonzero.

        For a phi on the pairing p = partner() (column j nonzero only at row
        p[j]), each product of phi with cbar reads cbar at one position, which
        is (i, j, k) with p applied to some of the indices. An entry is kept
        when one of the positions it reads holds a nonzero of cbar; nabla phi
        also keeps the (i, i, 0) and (i, 0, i) of its right-hand side. Each
        value is a (3, size) index array in row-major order. Derived once per
        frame, on first use: a frame made by dataclasses.replace derives its own.
        """
        n, p = self.dim_mbar, self.partner()
        i, j, k = np.nonzero(self.cbar)
        # alpha = cbar/2 + U reads cbar at (i, j, k), (k, i, j) and (k, j, i)
        alpha = [(i, j, k), (j, k, i), (k, j, i)]
        diag = np.arange(n)
        zero = np.zeros(n, dtype=int)
        reads = {
            # N = -c + phi c(phi, phi) - phi c(phi, .) phi - c(., phi) phi
            "nijenhuis": [(i, j, k), (p[i], p[j], k), (p[i], j, p[k]), (i, p[j], p[k])],
            # alpha(e_i, phi e_j) - alpha(e_i, e_j) phi, minus g(e_i, e_j) char - eta(e_j) e_i
            "nabla_phi": [(a, p[b], c) for a, b, c in alpha] + [(a, b, p[c]) for a, b, c in alpha]
                         + [(diag, diag, zero), (diag, zero, diag)],
        }
        out = {}
        for name, positions in reads.items():
            mask = np.zeros(n ** 3, dtype=bool)  # np.unique would import numpy.ma
            for a, b, c in positions:
                mask[(a * n + b) * n + c] = True
            out[name] = np.array(np.unravel_index(np.flatnonzero(mask), (n,) * 3))
        return out


def _frame_brackets(alg: CompactLieAlgebra, ip: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """T[i, j, k] = <[r_i, c_j], comp_k> over the columns of rows, cols and comps.

    The brackets with cols come from the bracket entries, and rows and comps
    are contracted by BLAS. The brackets are passed unnamed, so they are
    freed before the last product."""
    return np.tensordot(rows, alg.brackets_with(cols), axes=(0, 0)) @ (ip @ comps)


def restricted_frame(pair: SymmetricPair) -> RestrictedFrame:
    """Extract the restricted-root frame from one eigendecomposition of ad_seed^2 on m.

    X is the seed scaled so that -ad_X^2 has top eigenvalue 1 on m, and ip is
    rescaled so <X, X> = 1. The eigenvectors at levels 1 and 1/4 of -ad_X^2
    are the xi's, each zeta is -[X, xi] / lambda, and h = ker ad_X on k is
    the orthogonal complement of the zetas in k, since ad_X is skew and maps
    m onto their span. The frame is built from the algebra alone: its
    multiplicities are what the spectrum gives, and suites.suite_table1
    checks them against the table."""
    alg, s, form = pair.alg, pair.seed, pair.alg.inv_form
    seed = np.zeros(alg.dim)
    seed[s] = 1.0
    ad = alg.ad(seed)
    op = pair.m_basis.T @ form @ -(ad @ ad) @ pair.m_basis
    w, v = np.linalg.eigh((op + op.T) / 2)
    # each eigenvalue of -ad_X^2 = -ad_seed^2 / w[-1] goes to the nearest level
    ratio, levels = w / w[-1], np.array([0.0, 1.0, 0.25])
    level = np.argmin(np.abs(ratio[:, None] - levels), axis=1)
    stray = ~(np.abs(ratio - levels[level]) < FRAME_TOL)  # NaN is stray too
    if np.any(stray):
        raise ModelError(f"stray ad_X^2 eigenvalue {-ratio[stray][0]}: not a rank-one frame")
    if np.count_nonzero(level == 0) != 1:
        raise ModelError("Cartan subspace is not one-dimensional")
    x = seed / np.sqrt(w[-1])
    # the seed is the basis vector e_s, so x[s] ad_seed is alg.ad(x) bit for bit
    ad, ip = x[s] * ad, form / float(x @ form @ x)
    # the pair's bases are orthonormal under inv_form, and ip = inv_form / <x, x>,
    # so unit ip-norm columns are orthonormal under ip, and so are the eigh columns in them
    mb, kb = (b / np.sqrt(np.sum(b * (ip @ b), axis=0)) for b in (pair.m_basis, pair.k_basis))
    vecs = mb @ v
    # deterministic sign: largest-magnitude coordinate positive
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(w))]
    vecs = np.where(lead < 0, -vecs, vecs)
    xi_eps, xi_half = vecs[:, level == 1], vecs[:, level == 2]
    # zeta = -(1/lambda_R(X)) [X, xi]
    zetas = np.column_stack((-(ad @ xi_eps), -2.0 * (ad @ xi_half)))
    # k basis columns that no zeta reads are in h as they are; Householder QR
    # completes the zetas on the others, continuously in its input
    coords = kb.T @ ip @ zetas
    hit = np.any(coords != 0, axis=1)
    h_basis = np.column_stack((kb[:, ~hit], kb[:, hit] @ np.linalg.qr(
        coords[hit], mode="complete")[0][:, zetas.shape[1]:]))

    mbar = np.column_stack([x, xi_eps, xi_half, zetas])
    full = np.column_stack((mbar, h_basis))
    if not np.max(np.abs(full.T @ ip @ full - np.eye(full.shape[1]))) < FRAME_TOL:
        raise ModelError("[mbar | h] frame is not orthonormal")

    me, mh = xi_eps.shape[1], xi_half.shape[1]
    # projected bracket tensor: cbar[i,j,k] = <[e_i, e_j], e_k>, set to 0 on the
    # block triples outside the inclusion table, where it holds only rounding
    blocks = _block_slices(me, mh)
    allowed = np.zeros((mbar.shape[1],) * 3, dtype=bool)
    for s1, s2, tgt in INCLUSIONS:
        for t in tgt:
            if "h" not in (s1, t):  # the table's second block is never h
                allowed[blocks[s1], blocks[s2], blocks[t]] = True
                allowed[blocks[s2], blocks[s1], blocks[t]] = True
    cbar = np.where(allowed, _frame_brackets(pair.alg, ip, mbar, mbar, mbar), 0.0)
    return RestrictedFrame(pair.space, pair.alg, ip, me, mh, h_basis, mbar, cbar)


@functools.cache
def build_frame(space: SpaceId) -> RestrictedFrame:
    """Pair + Cartan vector + frame in one call, built once per space.

    Every caller shares the returned frame, so it must not be written to.
    S^n and RP^n are the one symmetric pair (so(n+1), so(n)), so RP^n shares
    the frame of S^n under its own space.
    """
    if space.family is Family.REAL_PROJECTIVE:
        return dataclasses.replace(build_frame(SpaceId(Family.SPHERE, space.n)), space=space)
    return restricted_frame(build_pair(space))


def verify_bracket_laws(frame: RestrictedFrame,
                        tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Check the bracket inclusion table and the eps/half pairing identities.

    Brackets are read in the coordinates of F = [mbar | h_basis]: the part of a
    bracket outside some frame blocks is the norm of its other coordinates only
    when F is an orthonormal basis of g, which frame_basis checks (inf if F is
    not square)."""
    full = np.column_stack((frame.mbar, frame.h_basis))
    blocks = {**frame.slices(), "h": slice(frame.dim_mbar, full.shape[1])}
    t = _frame_brackets(frame.alg, frame.ip, full, frame.mbar, full)

    # pairing identities between the eps and half blocks, read before t is squared
    me, mh, ke, kh = (blocks[n] for n in ("m_eps", "m_half", "k_eps", "k_half"))
    pairing = float(np.max(np.abs([t[me, mh] - t[ke, kh], t[ke, mh] + t[me, kh]]), initial=0.0))

    # column q of mask is 1 on the coordinates outside inclusion q's targets
    mask = np.ones((full.shape[1], len(INCLUSIONS)))
    for q, (_, _, tgt) in enumerate(INCLUSIONS):
        for name in tgt:
            mask[blocks[name], q] = 0.0
    norms = np.square(t, out=t) @ mask
    checks = {f"[{s1},{s2}]c{'+'.join(tgt)}":
              float(np.sqrt(np.max(norms[blocks[s1], blocks[s2], q], initial=0.0)))
              for q, (s1, s2, tgt) in enumerate(INCLUSIONS)}
    checks["eps_half_pairing"] = pairing
    checks["frame_basis"] = (float(np.max(np.abs(full.T @ frame.ip @ full - np.eye(len(full)))))
                             if full.shape[0] == full.shape[1] else np.inf)
    passed = all(tol.is_zero(v) for v in checks.values())
    return {"checks": checks, "passed": passed}


def fixture_check_cp2_brackets(frame: RestrictedFrame,
                               tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Basis-independent scalar checks of the complex-projective bracket table,
    read in the coordinates of [mbar | h_basis], where X is the first vector."""
    if frame.space.family is not Family.COMPLEX_PROJECTIVE:
        raise ModelError("fixture applies to complex projective spaces only")
    full = np.column_stack((frame.mbar, frame.h_basis))
    t = _frame_brackets(frame.alg, frame.ip, frame.mbar, frame.mbar, full)
    s = frame.slices()
    xe, ze, xh, zh = s["m_eps"].start, s["k_eps"].start, s["m_half"], s["k_half"]
    half = np.diagonal(t[xh, zh])[0]  # entry p = <[xi_p, zeta_p], X>
    norm = np.sqrt(np.sum(t[xe, xh] * t[xe, xh], axis=1))  # entry p = |[xi_eps, xi_p]|
    checks = {
        "[xi_eps,zeta_eps]=-X": float(np.max(np.abs(t[xe, ze] + np.eye(full.shape[1])[0]))),
        "<[xi_half,zeta_half],X>=-1/2": float(np.max(np.abs(half + 0.5), initial=0.0)),
        "|[xi_eps,xi_half]|=1/2": float(np.max(np.abs(norm - 0.5), initial=0.0)),
        "eps_half_antipairing": float(np.max(np.abs(t[xe, zh] + t[ze, xh]), initial=0.0)),
    }
    passed = all(tol.is_zero(v) for v in checks.values())
    return {"checks": checks, "passed": passed}
