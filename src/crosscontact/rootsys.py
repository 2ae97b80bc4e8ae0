"""Positive root systems of simple complex Lie algebras.

Roots are generated by closure from a Cartan matrix, inner products are
fixed by the trace-form self-consistency of the adjoint representation,
and the antisymmetric structure constants N(a, b) are assigned with the
extraspecial-pair sign convention.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

Coeffs = tuple[int, ...]


class RootSystemError(ValueError):
    """Invalid input or internal inconsistency while building a root system."""


# Cartan matrices in the layouts used by the five symmetric spaces:
# A_n standard, C_{n+1} with the long root last, F4 with two long roots first.


def cartan_matrix_A(n: int) -> np.ndarray:
    c = 2 * np.eye(n, dtype=int)
    for i in range(n - 1):
        c[i, i + 1] = c[i + 1, i] = -1
    return c


def cartan_matrix_C(n: int) -> np.ndarray:
    """C_n with simple roots a_1..a_{n-1} short and a_n long."""
    if n < 2:
        raise RootSystemError("C_n needs rank >= 2")
    c = cartan_matrix_A(n)
    c[n - 2, n - 1] = -1
    c[n - 1, n - 2] = -2
    return c


def cartan_matrix_F4() -> np.ndarray:
    """F4 with a_1, a_2 long and a_3, a_4 short (arrow a_2 => a_3)."""
    c = 2 * np.eye(4, dtype=int)
    c[0, 1] = c[1, 0] = -1
    c[1, 2] = -2
    c[2, 1] = -1
    c[2, 3] = c[3, 2] = -1
    return c


@dataclass(frozen=True)
class SimpleBasis:
    """A basis of simple roots given by its Cartan matrix."""

    cartan_matrix: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cartan_matrix)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise RootSystemError("Cartan matrix must be square")
        if not np.all(np.diag(c) == 2):
            raise RootSystemError("Cartan matrix diagonal must be 2")
        off = c - np.diag(np.diag(c))
        if np.any(off > 0):
            raise RootSystemError("off-diagonal Cartan entries must be <= 0")
        if np.any((off == 0) != (off.T == 0)):
            raise RootSystemError("Cartan zero pattern must be symmetric")

    @classmethod
    def A(cls, n: int) -> "SimpleBasis":
        return cls(cartan_matrix_A(n))

    @classmethod
    def C(cls, n: int) -> "SimpleBasis":
        return cls(cartan_matrix_C(n))

    @classmethod
    def F4(cls) -> "SimpleBasis":
        return cls(cartan_matrix_F4())

    @property
    def rank(self) -> int:
        return len(self.cartan_matrix)


@dataclass(frozen=True)
class PairTables:
    """Positive roots alpha_0, alpha_1, ... of a root system as arrays.

    coeffs[p] are the simple-root coefficients of alpha_p and pairing[p, k]
    is <alpha_p, alpha_k> over the simple roots alpha_k. sum_index[p, q] and
    diff_index[p, q] are the positions of alpha_p + alpha_q and of
    alpha_p - alpha_q among the positive roots, -1 where that is no positive
    root. n_sum[p, q] = N(alpha_p, alpha_q) and n_diff[p, q] =
    N(-alpha_p, alpha_q) are blocks of RootSystem.n.
    """

    coeffs: np.ndarray
    pairing: np.ndarray
    sum_index: np.ndarray
    diff_index: np.ndarray
    n_sum: np.ndarray
    n_diff: np.ndarray


@dataclass(frozen=True)
class RootSystem:
    """Positive roots plus inner products and signed structure constants.

    A root is the tuple of its integer coefficients over the simple basis,
    and positive_roots is in (height, lex) order. gram[j, k] = <a_j, a_k> on
    the simple roots, Killing-normalized. The signed roots are numbered by
    rows: row p is alpha_p, the p-th positive root, and row P + p is
    -alpha_p, with P positive roots. n[i, j] = N(root i, root j), 0 where
    their sum is no root.
    """

    basis: SimpleBasis
    positive_roots: tuple[Coeffs, ...]
    gram: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        if not all(any(r) and min(r) >= 0 for r in self.positive_roots):
            raise RootSystemError("positive_roots holds a root that is not positive")

    @classmethod
    def of(cls, basis: SimpleBasis) -> "RootSystem":
        """The root system of the basis, built in its three stages."""
        roots = generate_positive_roots(basis)
        gram = killing_gram(basis, roots)
        return cls(basis, roots, gram, assign_structure_constants(roots, gram))

    @property
    def rank(self) -> int:
        return self.basis.rank

    def pair_tables(self) -> PairTables:
        """The positive roots and their pairwise data as arrays, by position."""
        pos = self.positive_roots
        size = len(pos)
        coeffs = np.array(pos, dtype=int).reshape(size, self.rank)
        position = _root_positions(coeffs)
        sum_index = position(coeffs[:, None, :] + coeffs[None, :, :])
        diff_index = position(coeffs[:, None, :] - coeffs[None, :, :])
        # one dot per entry: a matrix product sums in another order and can
        # differ in the last bit
        float_coeffs = coeffs.astype(float)
        pairing = np.array([[float(row @ self.gram[:, k]) for k in range(self.rank)]
                            for row in float_coeffs]).reshape(coeffs.shape)
        return PairTables(coeffs, pairing, sum_index, diff_index,
                          self.n[:size, :size], self.n[size:, :size])


def _root_positions(coeffs: np.ndarray):
    """position(vecs): the row of coeffs (the positive roots, one per row) equal to
    each coefficient vector of vecs, -1 where there is none."""
    # a coefficient vector inside the box 0 <= v <= top (every positive root
    # is) has the integer key v @ radix, and no two such vectors share one
    top = coeffs.max(axis=0)
    if math.prod(int(t) + 1 for t in top) > 2 ** 62:
        raise RootSystemError("root coefficients too large for an integer key")
    radix = np.cumprod(np.concatenate(([1], top[:-1] + 1)))
    keys = coeffs @ radix
    order = np.argsort(keys)
    keys = keys[order]

    def position(vecs: np.ndarray) -> np.ndarray:
        inside = ((vecs >= 0) & (vecs <= top)).all(axis=-1)
        key = vecs @ radix
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where(inside & (keys[at] == key), order[at], -1)

    return position


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.sub, a, b))


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.add, a, b))


def generate_positive_roots(basis: SimpleBasis) -> tuple[Coeffs, ...]:
    """All positive roots by closure over simple-root strings, ordered by (height, lex)."""
    rank = basis.rank
    cartan = basis.cartan_matrix.tolist()
    roots: set[Coeffs] = {tuple(int(i == j) for i in range(rank)) for j in range(rank)}

    def shift(c: Coeffs, j: int, n: int) -> Coeffs:  # c + n a_j
        return c[:j] + (c[j] + n,) + c[j + 1:]

    # process strictly by height so down-strings only consult completed levels
    height = 1
    while True:
        level = [c for c in roots if sum(c) == height]
        if not level:
            break
        for beta in level:
            for j in range(rank):
                # walk down to find p (roots holds positive roots only), then
                # extend the string up to q = -p - <beta, a_j^v>
                p = 0
                while shift(beta, j, p - 1) in roots:
                    p -= 1
                q = -p - sum(n * cartan[k][j] for k, n in enumerate(beta))
                roots.update(shift(beta, j, s) for s in range(1, q + 1))
        height += 1
    ordered = tuple(sorted(roots, key=lambda c: (sum(c), c)))
    if any(m < n for r in ordered for m, n in zip(ordered[-1], r)):
        raise RootSystemError("maximal root does not dominate all positive roots")
    return ordered


def killing_gram(basis: SimpleBasis, roots: tuple[Coeffs, ...]) -> np.ndarray:
    """Gram matrix of simple roots, scaled so <a,b> = sum_g <a,g><b,g> over all roots,
    the positive roots given by their coefficients."""
    rank = basis.rank
    c = basis.cartan_matrix
    # symmetrize: d_j proportional to (a_j, a_j)/2 with d_i c_ij = d_j c_ji
    d = np.zeros(rank)
    d[0] = 1.0
    pend = [0]
    seen = {0}
    while pend:
        i = pend.pop()
        for j in range(rank):
            if j not in seen and c[i, j] != 0:
                d[j] = d[i] * c[j, i] / c[i, j]
                seen.add(j)
                pend.append(j)
    if len(seen) != rank:
        raise RootSystemError("Cartan matrix is not indecomposable")
    g0 = np.array([[c[i, j] * d[j] for j in range(rank)] for i in range(rank)])
    g0 = (g0 + g0.T) / 2
    # Killing scale: c*(a,b) = c^2 * sum_{g in Delta} (a,g)(b,g)
    coeff = np.array(roots, dtype=float)
    prods = coeff @ g0  # (n_roots, rank): (gamma, alpha_j)
    s11 = 2.0 * float(prods[:, 0] @ prods[:, 0])
    scale = g0[0, 0] / s11
    gram = scale * g0
    # self-consistency on every pair
    prods = coeff @ gram
    resid = np.max(np.abs(gram - 2.0 * prods.T @ prods))
    if resid > 1e-9 * max(1.0, np.max(np.abs(gram))):
        raise RootSystemError(f"Killing self-consistency failed, residual {resid:.3e}")
    return gram


def assign_structure_constants(roots: tuple[Coeffs, ...], gram: np.ndarray) -> np.ndarray:
    """The table RootSystem.n of N(a, b) over the signed roots, extraspecial pairs positive.

    For each positive non-simple gamma the extraspecial pair (a1, gamma - a1),
    a1 minimal in the (height, lex) order, gets a positive sign; every other
    special pair is forced by the Jacobi identity. Each value is written with
    the eleven that the rules tie to it: with c = -(a + b),
    (*) N(a, b) = N(b, c) = N(c, a) = -N(b, a), and (**) N(-a, -b) = -N(a, b).
    """
    size = len(roots)
    row = {r: p for p, r in enumerate(roots)}  # signed root -> row of the table
    row.update({tuple(-a for a in r): size + p for p, r in enumerate(roots)})
    table = np.zeros((2 * size, 2 * size))
    norm = [float(np.array(r) @ gram @ np.array(r)) for r in roots]  # Killing <a, a>

    def n_magnitude(a: int, b: int) -> float:
        """|N(alpha, beta)| = sqrt(q(1-p)/2 * <alpha,alpha>) from the alpha-string
        beta + n alpha, p <= n <= q, for positive roots alpha = roots[a], beta = roots[b]."""
        alpha, beta = roots[a], roots[b]
        p, cur = 0, _sub(beta, alpha)
        while cur in row:
            p, cur = p - 1, _sub(cur, alpha)
        q, cur = 0, _add(beta, alpha)
        while cur in row:
            q, cur = q + 1, _add(cur, alpha)
        return math.sqrt(q * (1 - p) / 2.0 * norm[a])

    def put(i: int, j: int, k: int, val: float):
        """N(a, b) = val for the signed rows i, j of a, b and k of -(a + b)."""
        for x, y in ((i, j), (j, k), (k, i)):
            nx, ny = (x + size) % (2 * size), (y + size) % (2 * size)
            table[x, y] = table[ny, nx] = val
            table[y, x] = table[nx, ny] = -val

    # the special pairs (alpha, beta = gamma - alpha), alpha <= beta, of each gamma,
    # from every alpha before gamma in one lookup: a root before gamma in the
    # (height, lex) order has at most its height, so a root gamma - alpha is positive
    coeffs = np.array(roots, dtype=int).reshape(size, -1)
    g_of, a_of = np.tril_indices(size, -1)
    b_of = _root_positions(coeffs)(coeffs[g_of] - coeffs[a_of])
    special = [[] for _ in roots]
    for g, a, b in zip(*(x[b_of >= a_of].tolist() for x in (g_of, a_of, b_of))):
        special[g].append((a, b))
    for g, gamma in enumerate(roots):
        if sum(gamma) < 2:
            continue
        pairs = special[g]
        a1, b1 = pairs[0]  # extraspecial: minimal alpha (always simple)
        put(a1, b1, size + g, n_magnitude(a1, b1))
        m1 = size + a1  # the row of -a1
        for a, b in pairs[1:]:
            alpha, beta = roots[a], roots[b]
            # Jacobi identity on (E_{-a1}, E_alpha, E_beta), all brackets land on E_{b1}
            denom = table[g, m1]
            t1 = table[m1, a]
            t1 = t1 * table[row[_sub(alpha, roots[a1])], b] if t1 else 0.0
            t2 = table[b, m1]
            t2 = t2 * table[row[_sub(beta, roots[a1])], a] if t2 else 0.0
            val = -(t1 + t2) / denom
            # an orbit entry not yet written reads as zero and fails here
            want = n_magnitude(a, b)
            if abs(abs(val) - want) > 1e-9 * max(1.0, want):
                raise RootSystemError(
                    f"sign propagation inconsistent at {alpha}+{beta}: "
                    f"|N| = {abs(val):.12g}, expected {want:.12g}")
            put(a, b, size + g, val)

    return table
