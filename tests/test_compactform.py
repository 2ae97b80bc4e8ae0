"""Compact real forms: bracket tensors, invariant forms, the matrix model."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from oracles import inner

from crosscontact import compactform, rootsys
from crosscontact.compactform import ToleranceConfig


def root_system(tag: str, n: int = 0) -> rootsys.RootSystem:
    basis = {"A": rootsys.SimpleBasis.A, "C": rootsys.SimpleBasis.C}.get(tag)
    return rootsys.RootSystem.of(basis(n) if basis else rootsys.SimpleBasis.F4())


def root_built(tag: str, n: int = 0) -> compactform.CompactLieAlgebra:
    return compactform.build_compact_from_roots(root_system(tag, n))


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
    rs = root_system("A", 2)
    alg = compactform.build_compact_from_roots(rs)
    for p, alpha in enumerate(rs.positive_roots):
        u0 = np.zeros(alg.dim)
        u1 = np.zeros(alg.dim)
        u0[compactform.u_basis_index(rs.rank, p, 0)] = 1.0
        u1[compactform.u_basis_index(rs.rank, p, 1)] = 1.0
        out = np.einsum("i,j,ijk->k", u0, u1, alg.dense())
        want = np.zeros(alg.dim)
        want[:rs.rank] = 2.0 * np.array(alpha, dtype=float)
        assert np.max(np.abs(out - want)) < 1e-12


def test_cartan_action_rotates_u_pair():
    """[U^a_alpha, i t_k] = (-1)^(a+1) <alpha, alpha_k> U^(a+1)_alpha."""
    rs = root_system("C", 2)
    alg = compactform.build_compact_from_roots(rs)
    p, alpha = len(rs.positive_roots) - 1, rs.positive_roots[-1]
    for k in range(rs.rank):
        t = np.zeros(alg.dim)
        t[k] = 1.0
        pairing = inner(rs, alpha, tuple(int(i == k) for i in range(rs.rank)))
        for a in (0, 1):
            u = np.zeros(alg.dim)
            u[compactform.u_basis_index(rs.rank, p, a)] = 1.0
            want = np.zeros(alg.dim)
            want[compactform.u_basis_index(rs.rank, p, 1 - a)] = (-1) ** (a + 1) * pairing
            out = np.einsum("i,j,ijk->k", u, t, alg.dense())
            assert np.max(np.abs(out - want)) < 1e-12


def test_invariant_form_structure():
    rs = root_system("A", 3)
    alg = compactform.build_compact_from_roots(rs)
    rank = rs.rank
    g = alg.inv_form
    assert np.allclose(g[:rank, :rank], rs.gram)
    assert np.allclose(np.diag(g)[rank:], 2.0)
    assert np.min(np.linalg.eigvalsh(g)) > 0


def test_tolerance_config():
    """One threshold t: a value is zero when |value| <= t, or <= t |scale| for |scale| > 1."""
    tol = ToleranceConfig(1e-9)
    assert ToleranceConfig() == tol
    assert tol.is_zero(5e-10) and tol.is_zero(-1e-9)
    assert not tol.is_zero(2e-9)
    assert tol.is_zero(5e-10, scale=1e-3) and not tol.is_zero(2e-9, scale=0.0)
    assert tol.is_zero(5e-7, scale=1e3) and tol.is_zero(-5e-7, scale=-1e3)
    assert not tol.is_zero(2e-6, scale=1e3)
    assert not tol.is_zero(1e-3, scale=1.0)


@pytest.mark.parametrize("threshold", [0.0, -1e-9, np.inf, np.nan])
def test_tolerance_config_rejects_bad_thresholds(threshold):
    """An infinite threshold would call every residual zero, a NaN or one of at
    most 0 would call none zero; nor can one be set after construction."""
    with pytest.raises(ValueError, match="positive finite"):
        ToleranceConfig(threshold)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ToleranceConfig().threshold = threshold


def test_jacobi_tolerance_scales_with_the_tensor(frames):
    """The CaP2 tensor times 1e4 has a Jacobi residual of about 2e-8 from
    rounding alone: above the threshold, below threshold * scale^2, so the
    algebra passes only through the scale term of is_zero."""
    alg = frames["CaP2"].alg
    out = compactform.verify_algebra(dataclasses.replace(alg, values=alg.values * 1e4))
    tol = ToleranceConfig()
    assert tol.threshold < out["residuals"]["jacobi"] <= tol.threshold * out["scale"] ** 2
    assert out["passed"]

def test_malformed_algebra_rejected():
    """A form that is not square, entries and shapes that disagree with its size,
    and non-finite or zero entries raise AlgebraError."""
    alg = compactform.build_so_matrix_model(3)
    idx, v, g = alg.index, alg.values, alg.inv_form
    past_end, negative, zero, inf = idx.copy(), idx.copy(), v.copy(), v.copy()
    past_end[-1, 2] = alg.dim
    negative[0, 0] = -1
    zero[3] = 0.0
    inf[3] = np.inf
    bad = [
        (past_end, v, g),
        (idx, v, g[:-1]),  # not square
        (idx, v, g[0]),  # not 2-D
        (idx, v, g[:-1, :-1]),  # square, but the entries reach past it
        (idx, np.full_like(v, np.nan), g),
        (idx, v, np.where(np.eye(alg.dim) > 0, np.inf, 0.0)),
        (negative, v, g),
        (idx[:, :2], v, g),
        (idx.astype(float), v, g),
        (idx, v[:-1], g),
        (idx[::-1], v[::-1], g),  # not in row-major order
        (np.repeat(idx, 2, axis=0), np.repeat(v, 2), g),  # repeated
        (idx, zero, g),
        (idx, inf, g),
    ]
    for ii, vv, gg in bad:
        with pytest.raises(compactform.AlgebraError):
            compactform.CompactLieAlgebra(ii, vv, gg)


def test_nan_tensor_fails_verification():
    """A NaN written into a built algebra's values propagates to the Jacobi residual."""
    alg = compactform.build_so_matrix_model(3)
    full = np.argwhere(np.ones((alg.dim,) * 3))
    alg = dataclasses.replace(alg, index=full, values=np.ones(len(full)))
    alg.values[...] = np.nan  # every entry stored: the per-slice path
    out = compactform.verify_algebra(alg)
    assert np.isnan(out["residuals"]["jacobi"])
    assert not out["passed"]
    alg = compactform.build_so_matrix_model(3)
    alg.values[0] = np.nan  # one stored entry: the nonzero join
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


def test_algebra_holds_its_entries_and_form():
    """The algebra record is its bracket entries and invariant form; the dimension
    is the size of the form, and the basis layout is u_basis_index."""
    fields = tuple(f.name for f in dataclasses.fields(compactform.CompactLieAlgebra))
    assert fields == ("index", "values", "inv_form")
    assert compactform.build_so_matrix_model(3).dim == 6  # so(4)
    rs = root_system("A", 2)
    assert root_built("A", 2).dim == compactform.u_basis_index(rs.rank, len(rs.positive_roots), 0)
