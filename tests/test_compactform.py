"""Compact real forms: bracket tensors, invariant forms, the matrix model."""

import json
import tracemalloc

import numpy as np
import pytest

from crosscontact import compactform, rootsys
from crosscontact.compactform import ToleranceConfig


def root_built(tag: str, n: int = 0) -> compactform.CompactLieAlgebra:
    basis = {"A": rootsys.SimpleBasis.A, "C": rootsys.SimpleBasis.C}.get(tag)
    rs = rootsys.generate_positive_roots(basis(n) if basis else rootsys.SimpleBasis.F4())
    rootsys.killing_gram(rs)
    rootsys.assign_structure_constants(rs)
    return compactform.build_compact_from_roots(rs)


@pytest.mark.parametrize("tag,n,dim", [
    ("A", 2, 8), ("A", 3, 15), ("C", 3, 21), ("F4", 4, 52),
])
def test_root_built_algebra_integrity(tag, n, dim):
    """Antisymmetry, Jacobi and ad-invariance residuals vanish."""
    alg = root_built(tag, n)
    assert alg.dim == dim
    out = compactform.verify_algebra(alg)
    assert out["passed"], out
    assert max(out["residuals"].values()) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 5])
def test_so_matrix_model_integrity(n):
    alg = compactform.build_so_matrix_model(n)
    assert alg.dim == (n + 1) * n // 2
    assert compactform.verify_algebra(alg)["passed"]


def test_cartan_u_pair_bracket():
    """[U0_a, U1_a] = 2 i t_a expanded over the simple-root coordinates."""
    alg = root_built("A", 2)
    rs = alg.rootsystem
    for i, alpha in enumerate(rs.positive_roots):
        u0 = np.zeros(alg.dim)
        u1 = np.zeros(alg.dim)
        u0[alg.u_index[(alpha.coeffs, 0)]] = 1.0
        u1[alg.u_index[(alpha.coeffs, 1)]] = 1.0
        out = alg.bracket(u0, u1)
        want = np.zeros(alg.dim)
        want[:rs.rank] = 2.0 * np.array(alpha.coeffs, dtype=float)
        assert np.max(np.abs(out - want)) < 1e-12


def test_cartan_action_rotates_u_pair():
    """[U^a_alpha, i t_k] = (-1)^(a+1) <alpha, alpha_k> U^(a+1)_alpha."""
    alg = root_built("C", 2)
    rs = alg.rootsystem
    alpha = rs.positive_roots[-1]
    for k in range(rs.rank):
        t = np.zeros(alg.dim)
        t[k] = 1.0
        inner = rs.inner(alpha, rootsys.Root(tuple(int(i == k) for i in range(rs.rank))))
        for a in (0, 1):
            u = np.zeros(alg.dim)
            u[alg.u_index[(alpha.coeffs, a)]] = 1.0
            want = np.zeros(alg.dim)
            want[alg.u_index[(alpha.coeffs, 1 - a)]] = (-1) ** (a + 1) * inner
            assert np.max(np.abs(alg.bracket(u, t) - want)) < 1e-12


def test_invariant_form_structure():
    alg = root_built("A", 3)
    rank = alg.rootsystem.rank
    g = alg.inv_form
    assert np.allclose(g[:rank, :rank], alg.rootsystem.gram)
    assert np.allclose(np.diag(g)[rank:], 2.0)
    assert np.min(np.linalg.eigvalsh(g)) > 0


def test_dump_tensor_roundtrip(tmp_path):
    alg = root_built("A", 2)
    path = tmp_path / "tensor.json"
    alg.dump_tensor(path)
    data = json.loads(path.read_text())
    rebuilt = np.zeros((data["dim"],) * 3)
    for i, j, k, c in data["entries"]:
        rebuilt[i, j, k] = c
    assert np.array_equal(rebuilt, alg.bracket_tensor)
    assert data["labels"] == alg.basis_labels


def test_tolerance_config():
    tol = ToleranceConfig(absolute=1e-9, relative=1e-6)
    assert tol.is_zero(5e-10)
    assert tol.is_zero(5e-7, scale=1.0)
    assert not tol.is_zero(1e-3, scale=1.0)


def test_bracket_shape_validation():
    alg = compactform.build_so_matrix_model(2)
    with pytest.raises(compactform.AlgebraError):
        alg.bracket(np.zeros(2), np.zeros(alg.dim))


def test_malformed_algebra_rejected():
    """Shapes that disagree with dim, and non-finite entries, raise AlgebraError."""
    alg = compactform.build_so_matrix_model(3)
    c, g, labels = alg.bracket_tensor, alg.inv_form, alg.basis_labels
    bad = [
        (alg.dim + 1, labels, c, g),
        (alg.dim, labels, c[:, :, :-1], g),
        (alg.dim, labels, c, g[:-1]),
        (alg.dim, labels[:-1], c, g),
        (alg.dim, labels, np.full_like(c, np.nan), g),
        (alg.dim, labels, c, np.where(np.eye(alg.dim) > 0, np.inf, 0.0)),
    ]
    for dim, lab, cc, gg in bad:
        with pytest.raises(compactform.AlgebraError):
            compactform.CompactLieAlgebra(dim, lab, cc, gg)


def test_nan_tensor_fails_verification():
    """A NaN written into a built algebra propagates to the Jacobi residual."""
    alg = compactform.build_so_matrix_model(3)
    alg.bracket_tensor[...] = np.nan  # dense: the per-slice path
    out = compactform.verify_algebra(alg)
    assert np.isnan(out["residuals"]["jacobi"])
    assert not out["passed"]
    alg = compactform.build_so_matrix_model(3)
    alg.bracket_tensor[0, 1, 2] = np.nan  # sparse: the nonzero join
    out = compactform.verify_algebra(alg)
    assert np.isnan(out["residuals"]["jacobi"])
    assert not out["passed"]


@pytest.mark.parametrize("tag,n", [("F4", 4), ("C", 5)])
def test_verify_algebra_memory(tag, n):
    """One verify_algebra call on CaP2 and HP^4 allocates at most 5 dim^3 floats."""
    alg = root_built(tag, n)
    tracemalloc.start()
    try:
        compactform.verify_algebra(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * alg.dim ** 3 * 8
