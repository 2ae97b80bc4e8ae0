"""Compact real Lie algebras as explicit structure-constant tensors.

Two constructions: the Chevalley-derived basis {i t_a, U0_a, U1_a} for
root-built algebras (su, sp, f4) and the skew-matrix model for so(n+1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .rootsys import Root, RootSystem, RootSystemError, n_constant


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
    npos = len(pos)
    dim = rank + 2 * npos
    gram = rs.gram

    u_index = {(r.coeffs, a): rank + 2 * i + a for i, r in enumerate(pos) for a in (0, 1)}
    labels = [f"it(a{k + 1})" for k in range(rank)]
    for r in pos:
        labels += [f"U0{r.coeffs}", f"U1{r.coeffs}"]

    c = np.zeros((dim, dim, dim))

    def add_u(i: int, j: int, gamma: Root, a: int, coef: float):
        """Accumulate coef * U^a_gamma into c[i, j, :], reducing negative roots."""
        if gamma.is_positive():
            c[i, j, u_index[(gamma.coeffs, a % 2)]] += coef
        else:
            # U0_{-g} = -U0_g, U1_{-g} = U1_g
            sign = -1.0 if a % 2 == 0 else 1.0
            c[i, j, u_index[((-gamma).coeffs, a % 2)]] += sign * coef

    # [U^a_alpha, i t_{a_k}] = (-1)^{a+1} <alpha, a_k> U^{a+1}_alpha
    for i, alpha in enumerate(pos):
        arr = np.array(alpha.coeffs, dtype=float)
        for a in (0, 1):
            ia = u_index[(alpha.coeffs, a)]
            for k in range(rank):
                val = (-1) ** (a + 1) * float(arr @ gram[:, k])
                if val != 0.0:
                    c[ia, k, u_index[(alpha.coeffs, (a + 1) % 2)]] += val
                    c[k, ia, u_index[(alpha.coeffs, (a + 1) % 2)]] -= val

    for i, alpha in enumerate(pos):
        i0 = u_index[(alpha.coeffs, 0)]
        i1 = u_index[(alpha.coeffs, 1)]
        # [U0_a, U1_a] = 2 i t_a with t_a = sum n_k(a) t_{a_k}
        for k, nk in enumerate(alpha.coeffs):
            if nk:
                c[i0, i1, k] += 2.0 * nk
                c[i1, i0, k] -= 2.0 * nk
        for beta in pos[i + 1:]:

            def u_terms(mu: Root, a: int, nu: Root, b: int) -> list:
                # two-term N-formula, stated for superscripts a <= b
                if a > b:
                    return [(-coef, gamma, sup) for coef, gamma, sup in u_terms(nu, b, mu, a)]
                return [((-1) ** (a * b) * n_constant(rs, mu, nu), mu + nu, a + b),
                        ((-1) ** (a + b) * n_constant(rs, -mu, nu), mu - nu, a + b)]

            for a in (0, 1):
                for b in (0, 1):
                    ia = u_index[(alpha.coeffs, a)]
                    ib = u_index[(beta.coeffs, b)]
                    for coef, gamma, sup in u_terms(alpha, a, beta, b):
                        if coef != 0.0 and rs.is_root(gamma):
                            add_u(ia, ib, gamma, sup, coef)
                            add_u(ib, ia, gamma, sup, -coef)

    inv_form = np.zeros((dim, dim))
    inv_form[:rank, :rank] = gram  # -B(it_j, it_k) = B(t_j, t_k)
    for i in range(rank, dim):
        inv_form[i, i] = 2.0  # -B(U^a, U^a) = 2

    alg = CompactLieAlgebra(dim, labels, c, inv_form, rootsystem=rs,
                            cartan_slice=slice(0, rank), u_index=u_index)
    return alg


def build_so_matrix_model(n: int) -> CompactLieAlgebra:
    """so(n+1) on the basis A_jk = E_jk - E_kj, trace form -(1/2)tr(AB)."""
    if n < 2:
        raise AlgebraError("so(n+1) model needs n >= 2")
    m = n + 1
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    index = {p: i for i, p in enumerate(pairs)}
    dim = len(pairs)
    mats = []
    for j, k in pairs:
        a = np.zeros((m, m))
        a[j, k] = 1.0
        a[k, j] = -1.0
        mats.append(a)
    c = np.zeros((dim, dim, dim))
    for i, (j1, k1) in enumerate(pairs):
        for l in range(i + 1, dim):
            comm = mats[i] @ mats[l] - mats[l] @ mats[i]
            for (j, k), t in index.items():
                val = comm[j, k]
                if val != 0.0:
                    c[i, l, t] = val
                    c[l, i, t] = -val
    labels = [f"A{j + 1}{k + 1}" for j, k in pairs]
    return CompactLieAlgebra(dim, labels, c, np.eye(dim))


def verify_algebra(alg: CompactLieAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Max residuals for antisymmetry, Jacobi, ad-invariance and form positivity."""
    c = alg.bracket_tensor
    g = alg.inv_form
    scale = max(1.0, float(np.max(np.abs(c))))
    antisym = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2)))))
    # Jacobi [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 is
    # cc[i,j,k,l] + cc[j,k,i,l] + cc[k,i,j,l] with cc[i,j,k,l] = c[i,j,m] c[m,k,l];
    # its maximum is taken one i at a time, so no dim^4 array is built
    flat = c.reshape(alg.dim, -1)
    jacobi = 0.0
    for i in range(alg.dim):
        ci = c[:, i, :]
        cyc = ((c[i] @ flat).reshape(c.shape) + c @ ci
               + (ci @ flat).reshape(c.shape).transpose(1, 0, 2))
        jacobi = max(jacobi, float(np.max(np.abs(cyc))))
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
