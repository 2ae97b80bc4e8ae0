"""Compact real Lie algebras as explicit structure-constant tensors.

Two constructions: the Chevalley-derived basis {i t_a, U0_a, U1_a} for
root-built algebras (su, sp, f4) and the skew-matrix model for so(n+1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .rootsys import RootSystem, RootSystemError


class AlgebraError(ValueError):
    pass


@dataclass
class ToleranceConfig:
    """Absolute/relative thresholds threaded to every verifier."""

    absolute: float = 1e-9
    relative: float = 1e-9

    def is_zero(self, value: float, scale: float = 1.0) -> bool:
        return abs(value) <= max(self.absolute, self.relative * abs(scale))


DEFAULT_TOL = ToleranceConfig()


@dataclass
class CompactLieAlgebra:
    """A real compact Lie algebra: bracket tensor plus ad-invariant form.

    bracket_tensor c satisfies [e_i, e_j] = sum_k c[i,j,k] e_k and inv_form
    is a positive multiple of -B (for so(n+1), the trace form).
    """

    dim: int
    basis_labels: list[str]
    bracket_tensor: np.ndarray
    inv_form: np.ndarray
    rootsystem: RootSystem | None = None
    cartan_slice: slice | None = None
    u_index: dict = field(default_factory=dict)

    def __post_init__(self):
        dim = self.dim
        if np.shape(self.bracket_tensor) != (dim, dim, dim):
            raise AlgebraError(f"bracket tensor shape {np.shape(self.bracket_tensor)} "
                               f"does not match dim {dim}")
        if np.shape(self.inv_form) != (dim, dim):
            raise AlgebraError(f"invariant form shape {np.shape(self.inv_form)} "
                               f"does not match dim {dim}")
        if len(self.basis_labels) != dim:
            raise AlgebraError(f"{len(self.basis_labels)} basis labels for dim {dim}")
        if not (np.isfinite(self.bracket_tensor).all() and np.isfinite(self.inv_form).all()):
            raise AlgebraError("bracket tensor and invariant form must be finite")

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise AlgebraError("vector length does not match algebra dimension")
        return y @ np.tensordot(x, self.bracket_tensor, axes=1)

    def bracket_table(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """T[i, j] = [x_i, y_j] over the columns x_i of xs and y_j of ys."""
        return np.tensordot(xs, ys.T @ self.bracket_tensor, axes=(0, 0))

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad_x acting on coordinate columns."""
        return np.einsum("i,ijk->kj", np.asarray(x, dtype=float), self.bracket_tensor)

    def pairing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x) @ self.inv_form @ np.asarray(y))

    def dump_tensor(self, path) -> None:
        """Portable JSON dump of the nonzero bracket entries for cross-diffing."""
        c = self.bracket_tensor
        idx = np.argwhere(np.abs(c) > 0)
        entries = [[int(i), int(j), int(k), float(c[i, j, k])] for i, j, k in idx]
        with open(path, "w") as fh:
            json.dump({"dim": self.dim, "labels": self.basis_labels,
                       "entries": entries}, fh)


def build_compact_from_roots(rs: RootSystem) -> CompactLieAlgebra:
    """Compact real form on the basis {i t_{a_k}} + {U0_a, U1_a: a positive}."""
    if not rs.has_signs:
        raise RootSystemError("root system has no structure constants assigned")
    rank = rs.rank
    pos = rs.positive_roots
    t = rs.pair_tables()
    dim = rank + 2 * len(pos)

    u_index = {(r.coeffs, a): rank + 2 * i + a for i, r in enumerate(pos) for a in (0, 1)}
    labels = [f"it(a{k + 1})" for k in range(rank)]
    for r in pos:
        labels += [f"U0{r.coeffs}", f"U1{r.coeffs}"]

    def u(p: np.ndarray, a: int) -> np.ndarray:
        """Basis index of U^a at positive-root positions p."""
        return rank + 2 * p + a

    # every entry below is written once, so assignment equals accumulation
    c = np.zeros((dim, dim, dim))
    # [U^a_alpha, i t_{a_k}] = (-1)^{a+1} <alpha, a_k> U^{a+1}_alpha
    p, k = np.nonzero(t.pairing)
    for a in (0, 1):
        val = (-1) ** (a + 1) * t.pairing[p, k]
        c[u(p, a), k, u(p, 1 - a)] = val
        c[k, u(p, a), u(p, 1 - a)] = -val
    # [U0_a, U1_a] = 2 i t_a with t_a = sum n_k(a) t_{a_k}
    p, k = np.nonzero(t.coeffs)
    c[u(p, 0), u(p, 1), k] = 2.0 * t.coeffs[p, k]
    c[u(p, 1), u(p, 0), k] = -2.0 * t.coeffs[p, k]

    # [U^a_alpha, U^b_beta] for a <= b by the two-term N-formula
    #   (-1)^{ab} N(alpha, beta) U^{a+b}_{alpha+beta}
    #   + (-1)^{a+b} N(-alpha, beta) U^{a+b}_{alpha-beta},
    # with U0_{-g} = -U0_g and U1_{-g} = U1_g; a = b takes each unordered pair
    # once, and a < b takes both orders, which gives [U1_alpha, U0_beta] too
    upper = np.triu_indices(len(pos), 1)
    ordered = np.nonzero(~np.eye(len(pos), dtype=bool))
    for a, b, (p, q) in ((0, 0, upper), (0, 1, ordered), (1, 1, upper)):
        sup = (a + b) % 2
        diff_pos = t.diff_index[p, q] >= 0
        terms = (((-1) ** (a * b) * t.n_sum[p, q], t.sum_index[p, q]),
                 ((-1) ** (a + b) * t.n_diff[p, q]
                  * np.where(diff_pos | (sup == 1), 1.0, -1.0),
                  np.where(diff_pos, t.diff_index[p, q], t.diff_index[q, p])))
        for coef, gamma in terms:
            hit = coef != 0.0
            c[u(p[hit], a), u(q[hit], b), u(gamma[hit], sup)] = coef[hit]
            c[u(q[hit], b), u(p[hit], a), u(gamma[hit], sup)] = -coef[hit]

    inv_form = np.zeros((dim, dim))
    inv_form[:rank, :rank] = rs.gram  # -B(it_j, it_k) = B(t_j, t_k)
    inv_form[rank:, rank:] = 2.0 * np.eye(dim - rank)  # -B(U^a, U^a) = 2

    return CompactLieAlgebra(dim, labels, c, inv_form, rootsystem=rs,
                             cartan_slice=slice(0, rank), u_index=u_index)


def build_so_matrix_model(n: int) -> CompactLieAlgebra:
    """so(n+1) on the basis A_jk = E_jk - E_kj, trace form -(1/2)tr(AB)."""
    if n < 2:
        raise AlgebraError("so(n+1) model needs n >= 2")
    m = n + 1
    j, k = np.triu_indices(m, 1)  # j-major: A_12, A_13, ..., A_23, ...
    dim = len(j)
    index = np.zeros((m, m), dtype=int)
    index[j, k] = index[k, j] = np.arange(dim)
    # [A_ab, A_cd] = d_bc A_ad - d_ac A_bd - d_bd A_ac + d_ad A_bc over every
    # ordered basis pair; distinct pairs meet in at most one delta, and
    # A_xy = -A_yx = sign(y - x) A_index[x, y]
    left, right = (g.ravel() for g in np.indices((dim, dim)))
    a, b, cc, d = j[left], k[left], j[right], k[right]
    c = np.zeros((dim, dim, dim))
    for p, q, coef, x, y in ((b, cc, 1.0, a, d), (a, cc, -1.0, b, d),
                             (b, d, -1.0, a, cc), (a, d, 1.0, b, cc)):
        hit = (p == q) & (x != y)
        c[left[hit], right[hit], index[x[hit], y[hit]]] = coef * np.sign(y - x)[hit]
    labels = [f"A{p + 1}{q + 1}" for p, q in zip(j, k)]
    return CompactLieAlgebra(dim, labels, c, np.eye(dim))


# The Jacobi join below makes T = sum_m nnz(c[:, :, m]) nnz(c[m]) products,
# the per-slice path dim^5; the join is taken when T <= dim^5 / _JOIN_FILL.
# The builders' tensors, S^2 to CaP2, have T between 0.1 and 0.8 dim^3, so
# every benchmark workload joins. A dense tensor, such as a randomly broken
# one, has T = dim^5 and takes the per-slice path, whose time and memory are
# bounded by dim alone, where the join would hold dim^4 terms for each l.
_JOIN_FILL = 8


def _jacobi_dense(c: np.ndarray) -> float:
    """Jacobi maximum by BLAS products, one i-slice at a time."""
    dim = c.shape[0]
    flat = c.reshape(dim, -1)
    worst = np.empty(dim)
    for i in range(dim):
        ci = c[:, i, :]
        cyc = ((c[i] @ flat).reshape(c.shape) + c @ ci
               + (ci @ flat).reshape(c.shape).transpose(1, 0, 2))
        worst[i] = np.max(np.abs(cyc))
    return float(np.max(worst))  # np.max keeps a NaN that max() would drop


def _jacobi_max(c: np.ndarray) -> float:
    """max |cc[a,b,k,l] + cc[b,k,a,l] + cc[k,a,b,l]|, cc[a,b,k,l] = c[a,b,m] c[m,k,l].

    The sum is cyclic in (a, b, k), so it is one value per rotation orbit:
    the orbit's sum of cc, three times cc[a,a,a,l] on a fixed point. The
    terms c[a,b,m] c[m,k,l] come from joining the nonzero entries on m and
    are summed per (orbit, l), for a block of whole l at a time.
    """
    dim = c.shape[0]
    # nonzero entries (i, j, m) of c, ordered by m
    m, i, j = np.nonzero(c.transpose(2, 0, 1))
    v = c[i, j, m]
    per_m = np.bincount(m, minlength=dim)
    start = np.cumsum(per_m) - per_m
    # entry c[i, j, m], as the right factor c[m', k, l] = c[i, j, m], meets the
    # per_m[i] left factors c[:, :, i]
    fan = per_m[i]
    if _JOIN_FILL * int(fan.sum()) > dim ** 5:
        return _jacobi_dense(c)
    # blocks of whole l with about dim^3 / 8 terms keep the join's arrays
    # near dim^3 floats, below the ad-invariance check's three
    terms_l = np.bincount(m, weights=fan, minlength=dim)
    block = (np.cumsum(terms_l) - terms_l) // max(1, dim ** 3 // 8)
    edges = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [dim]))
    worst = [0.0]
    for lo, hi in zip(start[edges[:-1]], np.append(start, len(m))[edges[1:]]):
        right = np.arange(lo, hi)
        n = fan[right]
        if not n.any():
            continue
        first = np.cumsum(n) - n
        left = np.repeat(start[i[right]] - first, n) + np.arange(int(n.sum()))
        right = np.repeat(right, n)
        a, b, k = i[left], j[left], j[right]
        orbit = np.minimum(np.minimum((a * dim + b) * dim + k, (b * dim + k) * dim + a),
                           (k * dim + a) * dim + b)
        key = orbit * dim + m[right]
        w = v[left] * v[right]
        w[(a == b) & (b == k)] *= 3.0
        order = np.argsort(key)
        key = key[order]
        runs = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        worst.append(np.max(np.abs(np.add.reduceat(w[order], runs))))
    return float(np.max(worst))


def verify_algebra(alg: CompactLieAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Max residuals for antisymmetry, Jacobi, ad-invariance and form positivity."""
    c = alg.bracket_tensor
    g = alg.inv_form
    scale = max(1.0, float(np.max(np.abs(c))))
    antisym = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2)))))
    # Jacobi [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0
    jacobi = _jacobi_max(c)
    # <[x,y],z> + <y,[x,z]> = 0 on basis triples
    t = c @ g
    adinv = float(np.max(np.abs(t + np.transpose(t, (0, 2, 1)))))
    eigmin = float(np.min(np.linalg.eigvalsh(g)))
    checks = {
        "antisymmetry": antisym,
        "jacobi": jacobi,
        "ad_invariance": adinv,
        "form_positive": -min(eigmin, 0.0),
    }
    passed = all(tol.is_zero(v, scale * scale if k == "jacobi" else scale)
                 for k, v in checks.items())
    return {"residuals": checks, "scale": scale, "passed": passed}
