"""The array-built bracket tensors against the loop builders they replaced.

The references below are the pointwise builders: one ``n_constant`` call
per root pair and term for the root-built algebras, and one matrix
commutator per basis pair for the so(n+1) model. The array builders must
reproduce their tensors bit for bit on every algebra of the construction
ladder (S^2..S^10, RP^2..RP^6, CP^2..CP^6, HP^1..HP^4 and CaP2).
"""

import numpy as np
import pytest

from crosscontact import compactform, rootsys
from crosscontact.rootsys import Root


def root_system(tag: str, n: int) -> rootsys.RootSystem:
    basis = {"A": rootsys.SimpleBasis.A, "C": rootsys.SimpleBasis.C}.get(tag)
    rs = rootsys.generate_positive_roots(basis(n) if basis else rootsys.SimpleBasis.F4())
    rootsys.killing_gram(rs)
    rootsys.assign_structure_constants(rs)
    return rs


def loop_compact_from_roots(rs: rootsys.RootSystem):
    """(bracket tensor, inv form, labels, u_index), one root pair at a time."""
    rank = rs.rank
    pos = rs.positive_roots
    dim = rank + 2 * len(pos)
    gram = rs.gram
    u_index = {(r.coeffs, a): rank + 2 * i + a for i, r in enumerate(pos) for a in (0, 1)}
    labels = [f"it(a{k + 1})" for k in range(rank)]
    for r in pos:
        labels += [f"U0{r.coeffs}", f"U1{r.coeffs}"]
    c = np.zeros((dim, dim, dim))

    def add_u(i: int, j: int, gamma: Root, a: int, coef: float):
        if gamma.is_positive():
            c[i, j, u_index[(gamma.coeffs, a % 2)]] += coef
        else:
            sign = -1.0 if a % 2 == 0 else 1.0
            c[i, j, u_index[((-gamma).coeffs, a % 2)]] += sign * coef

    for alpha in pos:
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
        for k, nk in enumerate(alpha.coeffs):
            if nk:
                c[i0, i1, k] += 2.0 * nk
                c[i1, i0, k] -= 2.0 * nk
        for beta in pos[i + 1:]:

            def u_terms(mu: Root, a: int, nu: Root, b: int) -> list:
                if a > b:
                    return [(-coef, gamma, sup) for coef, gamma, sup in u_terms(nu, b, mu, a)]
                return [((-1) ** (a * b) * rootsys.n_constant(rs, mu, nu), mu + nu, a + b),
                        ((-1) ** (a + b) * rootsys.n_constant(rs, -mu, nu), mu - nu, a + b)]

            for a in (0, 1):
                for b in (0, 1):
                    ia = u_index[(alpha.coeffs, a)]
                    ib = u_index[(beta.coeffs, b)]
                    for coef, gamma, sup in u_terms(alpha, a, beta, b):
                        if coef != 0.0 and rs.is_root(gamma):
                            add_u(ia, ib, gamma, sup, coef)
                            add_u(ib, ia, gamma, sup, -coef)

    inv_form = np.zeros((dim, dim))
    inv_form[:rank, :rank] = gram
    for i in range(rank, dim):
        inv_form[i, i] = 2.0
    return c, inv_form, labels, u_index


def loop_so_matrix_model(n: int):
    """(bracket tensor, labels) of so(n+1), one matrix commutator per basis pair."""
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
    for i in range(dim):
        for l in range(i + 1, dim):
            comm = mats[i] @ mats[l] - mats[l] @ mats[i]
            for (j, k), t in index.items():
                val = comm[j, k]
                if val != 0.0:
                    c[i, l, t] = val
                    c[l, i, t] = -val
    return c, [f"A{j + 1}{k + 1}" for j, k in pairs]


@pytest.mark.parametrize("tag,n", [("A", n) for n in range(2, 7)]
                         + [("C", n) for n in range(2, 6)] + [("F4", 4)])
def test_root_built_matches_loop(tag, n):
    """su(3)..su(7), sp(2)..sp(5) and f4: CP^2..CP^6, HP^1..HP^4, CaP2."""
    rs = root_system(tag, n)
    alg = compactform.build_compact_from_roots(rs)
    c, inv_form, labels, u_index = loop_compact_from_roots(rs)
    assert np.array_equal(alg.bracket_tensor, c)
    assert np.array_equal(alg.inv_form, inv_form)
    assert alg.basis_labels == labels
    assert alg.u_index == u_index


@pytest.mark.parametrize("n", range(2, 11))
def test_so_model_matches_loop(n):
    """so(3)..so(11): S^2..S^10 and RP^2..RP^6."""
    alg = compactform.build_so_matrix_model(n)
    c, labels = loop_so_matrix_model(n)
    assert np.array_equal(alg.bracket_tensor, c)
    assert np.array_equal(alg.inv_form, np.eye(alg.dim))
    assert alg.basis_labels == labels
