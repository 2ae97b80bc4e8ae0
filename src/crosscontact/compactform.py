"""Compact real Lie algebras as explicit structure-constant tensors.

Two constructions: the Chevalley-derived basis {i t_a, U0_a, U1_a} for
root-built algebras (su, sp, f4) and the skew-matrix model for so(n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rootsys import RootSystem


class AlgebraError(ValueError):
    pass


def positive_finite(*values: float) -> bool:
    """True iff every value is a finite number above zero; NaN and +-inf are not."""
    return all(math.isfinite(v) and v > 0 for v in values)  # NaN fails v > 0 too


@dataclass(frozen=True)
class ToleranceConfig:
    """The one threshold threaded to every verifier.

    A residual counts as zero when it is at most the threshold, or at most
    the threshold times its scale when that scale exceeds 1.
    """

    threshold: float = 1e-9

    def __post_init__(self):  # inf would call every residual zero, NaN none
        if not positive_finite(self.threshold):
            raise ValueError(f"tolerance must be a positive finite number, got {self.threshold}")

    def is_zero(self, value: float, scale: float = 1.0) -> bool:
        return abs(value) <= max(self.threshold, self.threshold * abs(scale))


DEFAULT_TOL = ToleranceConfig()


def u_basis_index(rank: int, p: int | np.ndarray, a: int) -> int | np.ndarray:
    """Basis index of U^a (a = 0, 1) of the positive root at position p: the rank
    Cartan vectors i t_k come first, then U0 and U1 of each positive root in turn."""
    return rank + 2 * p + a


# in a block of rows of bracket_terms, the rows before the last make fewer
# than this many terms
_TERM_BLOCK = 1 << 12


@dataclass
class CompactLieAlgebra:
    """A real compact Lie algebra: nonzero structure constants plus ad-invariant form.

    [e_i, e_j] = sum_k c[i,j,k] e_k, with the nonzero c[i,j,k] stored as the
    rows (i, j, k) of index, in strictly increasing row-major order, and
    values[n] = c[index[n]]. inv_form is a positive multiple of -B (for
    so(n+1), the trace form); its size is the dimension.
    """

    index: np.ndarray  # (nnz, 3) integers
    values: np.ndarray  # (nnz,) floats, none zero
    inv_form: np.ndarray

    def __post_init__(self):
        index, values, shape = self.index, self.values, np.shape(self.inv_form)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise AlgebraError(f"invariant form must be a square matrix, got shape {shape}")
        dim = self.dim
        if (np.ndim(index) != 2 or np.shape(index)[1] != 3
                or not np.issubdtype(np.asarray(index).dtype, np.integer)
                or np.shape(values) != (len(index),)):
            raise AlgebraError(f"bracket entries need an (nnz, 3) integer index and nnz "
                               f"values, got shapes {np.shape(index)} and {np.shape(values)}")
        if len(index) and (np.min(index) < 0 or np.max(index) >= dim):
            raise AlgebraError(f"bracket entry index out of range for dim {dim}")
        if np.any(np.diff(_flat_key(index, dim)) <= 0):
            raise AlgebraError("bracket entries must be in strictly increasing (i, j, k) order")
        if not (np.isfinite(values).all() and np.isfinite(self.inv_form).all()):
            raise AlgebraError("bracket tensor and invariant form must be finite")
        if np.any(values == 0):
            raise AlgebraError("bracket entries must be nonzero")

    @property
    def dim(self) -> int:
        return self.inv_form.shape[0]

    def dense(self) -> np.ndarray:
        """The dim^3 bracket tensor c, built anew on each call; keep it no longer than a call."""
        c = np.zeros((self.dim,) * 3)
        c[tuple(self.index.T)] = self.values
        return c

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad_x acting on coordinate columns: ad_x[k, j] = sum_i x_i c[i,j,k]."""
        i, j, k = self.index.T
        w = np.asarray(x, dtype=float)[i] * self.values
        return np.bincount(k * self.dim + j, weights=w,
                           minlength=self.dim ** 2).reshape(self.dim, self.dim)

    def bracket_terms(self, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray):
        """T[r, q, s] = sum c[i,j,k] xs[i,r] ys[j,q] zs[k,s] from its nonzero terms, a
        block of whole rows r at a time: yields (r, q, s, t) over the (r, q, s) of a
        block that have a term, in row-major order, with t their sums.

        The rows of a block before its last make fewer than _TERM_BLOCK terms,
        so a block holds about that many, or one r that has more. The entries
        are joined with the nonzeros of xs on i, of ys on j and of zs on k, and
        each sum adds its rounded terms ((c xs) ys) zs in entry order, whatever
        the blocks. Only products of nonzeros are formed, so a non-finite value
        reaches only the sums of its own terms, where the dense product would
        reach every sum that reads its column.
        """
        # one nonzero xs[i, r] makes a term per entry (i, j, k) and nonzero of ys[j]
        # and zs[k]; only the entries that make terms are joined
        fan = (np.count_nonzero(ys, axis=1)[self.index[:, 1]]
               * np.count_nonzero(zs, axis=1)[self.index[:, 2]])
        live = fan > 0
        index, values = self.index[live], self.values[live]
        per_i = np.bincount(index[:, 0], weights=fan[live], minlength=self.dim)
        edges = _block_edges((xs != 0).T @ per_i, _TERM_BLOCK)
        for lo, hi in zip(edges[:-1], edges[1:]):
            r, q, s, t = _term_sums(index, values, xs[:, lo:hi], ys, zs)
            yield r + lo, q, s, t


def _term_sums(index: np.ndarray, values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
               zs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(r, q, s, t) over the (r, q, s) with a term c[i,j,k] xs[i,r] ys[j,q] zs[k,s],
    in row-major order, with t their sums, each adding its terms in entry order.

    Each join extends the key (r, then (r, q), then (r, q, s)) and the product
    of a term; a sum over equal keys in a stable order is a sum in entry order."""
    i, j, k = index.T
    e, key, w = _join_nonzeros(i, xs)
    w = values[e] * w
    n, key, w = _join_terms(j[e], ys, key, w)
    key, w = _join_terms(k[e[n]], zs, key, w)[1:]
    key, order = _stable_sort(key)
    first = np.diff(key, prepend=-1) != 0
    t = np.bincount(np.cumsum(first) - 1, weights=w[order])
    key = key[first]
    nq, ns = ys.shape[1], zs.shape[1]
    return key // (nq * ns), key // ns % nq, key % ns, t


def _join_terms(at: np.ndarray, mat: np.ndarray, key: np.ndarray,
                w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Terms (key, w) at rows at of mat, joined with its nonzeros: for each nonzero
    mat[at[n], col] one term (n, key[n] * cols + col, w[n] * mat[at[n], col])."""
    n, col, val = _join_nonzeros(at, mat)
    key, w = key[n], w[n]
    key *= mat.shape[1]
    key += col
    w *= val
    return n, key, w


def _join_nonzeros(at: np.ndarray, mat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Join positions with the nonzeros of a matrix on its row index.

    For each n and each nonzero mat[at[n], col], in the order of n and then of
    col, one term (n, col, mat[at[n], col]); a row with no nonzero makes none.
    """
    row, col = np.nonzero(mat)
    per_row = np.bincount(row, minlength=len(mat))
    fan = per_row[at]
    n = np.repeat(np.arange(len(at)), fan)
    # position in (row, col) of each term's nonzero
    pos = np.repeat((np.cumsum(per_row) - per_row)[at] - (np.cumsum(fan) - fan), fan)
    pos += np.arange(len(n))
    return n, col[pos], mat[row, col][pos]


def _stable_sort(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key[order], order) with order the stable sort of the non-negative integer
    keys, from one sort of the keys packed above their positions in an int64."""
    shift = len(key).bit_length()
    if int(np.max(key, initial=0)).bit_length() + shift > 63:
        raise AlgebraError(f"{len(key)} keys up to {np.max(key)} do not pack in an int64")
    packed = key << shift
    packed |= np.arange(len(key))
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return packed, order


def _block_edges(terms: np.ndarray, bound: int) -> np.ndarray:
    """Edges of consecutive runs of items that hold about bound terms together, or
    one item that has more: run b is items edges[b] to edges[b + 1]."""
    block = (np.cumsum(terms) - terms) // bound
    return np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [len(terms)]))


def _flat_key(index: np.ndarray, dim: int) -> np.ndarray:
    """Row-major position (i * dim + j) * dim + k of each entry (i, j, k)."""
    i, j, k = np.asarray(index).T
    return (i * dim + j) * dim + k


def _entries(dim: int, parts: list) -> tuple[np.ndarray, np.ndarray]:
    """(index, values) in row-major order from (i, j, k, value) array tuples."""
    i, j, k, v = (np.concatenate(a) for a in zip(*parts))
    index = np.stack((i, j, k), axis=1)
    order = np.argsort(_flat_key(index, dim))
    return index[order], v[order].astype(float)


def build_compact_from_roots(rs: RootSystem) -> CompactLieAlgebra:
    """Compact real form on the basis {i t_{a_k}} + {U0_a, U1_a: a positive}."""
    rank = rs.rank
    pos = rs.positive_roots
    t = rs.pair_tables()
    dim = u_basis_index(rank, len(pos), 0)  # one past the last U

    # (i, j, k, c[i,j,k]) of every nonzero; each position occurs once
    parts = []
    # [U^a_alpha, i t_{a_k}] = (-1)^{a+1} <alpha, a_k> U^{a+1}_alpha
    p, k = np.nonzero(t.pairing)
    for a in (0, 1):
        val = (-1) ** (a + 1) * t.pairing[p, k]
        ua, ub = u_basis_index(rank, p, a), u_basis_index(rank, p, 1 - a)
        parts += [(ua, k, ub, val), (k, ua, ub, -val)]
    # [U0_a, U1_a] = 2 i t_a with t_a = sum n_k(a) t_{a_k}
    p, k = np.nonzero(t.coeffs)
    u0, u1 = u_basis_index(rank, p, 0), u_basis_index(rank, p, 1)
    parts += [(u0, u1, k, 2.0 * t.coeffs[p, k]), (u1, u0, k, -2.0 * t.coeffs[p, k])]

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
            up, uq, ug = (u_basis_index(rank, x[hit], y)
                          for x, y in ((p, a), (q, b), (gamma, sup)))
            parts += [(up, uq, ug, coef[hit]), (uq, up, ug, -coef[hit])]

    inv_form = np.zeros((dim, dim))
    inv_form[:rank, :rank] = rs.gram  # -B(it_j, it_k) = B(t_j, t_k)
    inv_form[rank:, rank:] = 2.0 * np.eye(dim - rank)  # -B(U^a, U^a) = 2

    return CompactLieAlgebra(*_entries(dim, parts), inv_form)


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
    parts = []
    for p, q, coef, x, y in ((b, cc, 1.0, a, d), (a, cc, -1.0, b, d),
                             (b, d, -1.0, a, cc), (a, d, 1.0, b, cc)):
        hit = (p == q) & (x != y)
        parts.append((left[hit], right[hit], index[x[hit], y[hit]],
                      coef * np.sign(y - x)[hit]))
    return CompactLieAlgebra(*_entries(dim, parts), np.eye(dim))


# The Jacobi join below makes T = sum_m nnz(c[:, :, m]) nnz(c[m]) products,
# the per-slice path dim^5; the join is taken when T <= dim^5 / _JOIN_FILL.
# The builders' tensors, S^2 to CaP2, have T between 0.1 and 0.8 dim^3 and
# keys that fit the packing below, so every benchmark workload joins. A
# dense tensor, such as a randomly broken one, has T = dim^5 and takes the
# per-slice path, whose time and memory are bounded by dim alone, where the
# join would hold dim^4 terms for each l.
_JOIN_FILL = 8
# Each block of the join sorts its terms by one int64, the (orbit, l) key
# shifted above the term's index in the block, so every (orbit, l) run sums
# in term order whatever order a sort gives equal keys. The keys are below
# dim^4. A block holds whole l, about this many terms, or one l that has
# more; blocks below 2^14 terms keep the packed key below 2^63 up to dim g
# 4870. On the builders' tensors one l outgrows that at large dim, and the
# key still fits up to CP^48 (dim g 2400, 235,000 terms in one l) and
# HP^30 (dim g 1953).
_JACOBI_BLOCK_TERMS = 1 << 13


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


def _jacobi_max(alg: CompactLieAlgebra) -> float:
    """max |cc[a,b,k,l] + cc[b,k,a,l] + cc[k,a,b,l]|, cc[a,b,k,l] = c[a,b,m] c[m,k,l].

    The sum is cyclic in (a, b, k), so it is one value per rotation orbit:
    the orbit's sum of cc, three times cc[a,a,a,l] on a fixed point. The
    terms c[a,b,m] c[m,k,l] come from joining the nonzero entries on m and
    are summed per (orbit, l) in the order the join makes them, for a block
    of whole l at a time; the result does not depend on the block size.
    """
    dim = alg.dim
    # nonzero entries (i, j, m) of c, ordered by m, then row-major in (i, j)
    order = np.argsort(alg.index[:, 2], kind="stable")
    i, j, m = alg.index[order].T
    v = alg.values[order]
    per_m = np.bincount(m, minlength=dim)
    start = np.cumsum(per_m) - per_m
    # entry c[i, j, m], as the right factor c[m', k, l] = c[i, j, m], meets the
    # per_m[i] left factors c[:, :, i]
    fan = per_m[i]
    # blocks of whole l with about _JACOBI_BLOCK_TERMS terms bound the join's
    # arrays; a block too large for the packed key takes the per-slice path,
    # as a dense tensor does
    terms_l = np.bincount(m, weights=fan, minlength=dim)
    edges = _block_edges(terms_l, _JACOBI_BLOCK_TERMS)
    shift = int(np.max(np.add.reduceat(terms_l, edges[:-1]))).bit_length()
    if _JOIN_FILL * int(fan.sum()) > dim ** 5 or (dim ** 4).bit_length() + shift > 63:
        return _jacobi_dense(alg.dense())
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
        key, order = _stable_sort(key)
        runs = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        worst.append(np.max(np.abs(np.add.reduceat(w[order], runs))))
    return float(np.max(worst))


def _max_plus_swapped(key: np.ndarray, vals: np.ndarray, swapped: np.ndarray) -> float:
    """max |vals[n] + v'| with v' the value stored at key swapped[n], 0 where none is."""
    at = np.searchsorted(key, swapped)
    partner = np.where(np.append(key, -1)[at] == swapped, np.append(vals, 0.0)[at], 0.0)
    return float(np.max(np.abs(vals + partner), initial=0.0))


def verify_algebra(alg: CompactLieAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Max residuals for antisymmetry, Jacobi, ad-invariance and form positivity."""
    g, vals = alg.inv_form, alg.values
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    # c[i,j,k] + c[j,i,k] at the stored entries; it is zero everywhere else
    antisym = _max_plus_swapped(_flat_key(alg.index, alg.dim), vals,
                                _flat_key(alg.index[:, [1, 0, 2]], alg.dim))
    # Jacobi [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0
    jacobi = _jacobi_max(alg)
    # <[x,y],z> + <y,[x,z]> = 0 on basis triples: t[i,j,l] + t[i,l,j] with
    # t[i,j,l] = sum_k c[i,j,k] g[k,l], from the entries joined on k with the
    # nonzeros of g; each t sums its terms in k order, as c @ g does
    dim = alg.dim
    entry, col, gkl = _join_nonzeros(alg.index[:, 2], g)
    i, j, _ = alg.index[entry].T
    key, swapped = (i * dim + j) * dim + col, (i * dim + col) * dim + j
    order = np.argsort(key, kind="stable")
    first = np.diff(key[order], prepend=-1) != 0
    t = np.bincount(np.cumsum(first) - 1, weights=(vals[entry] * gkl)[order])
    adinv = _max_plus_swapped(key[order][first], t, swapped[order][first])
    eigmin = float(np.min(np.linalg.eigvalsh(g)))
    checks = {
        "antisymmetry": antisym,
        "jacobi": jacobi,
        "ad_invariance": adinv,
        "form_positive": 0.0 - min(eigmin, 0.0),  # +0.0, not -0.0, and NaN kept
    }
    passed = all(tol.is_zero(v, scale * scale if k == "jacobi" else scale)
                 for k, v in checks.items())
    return {"residuals": checks, "scale": scale, "passed": passed}
