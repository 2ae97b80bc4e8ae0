"""The reordered contractions against their dense reference forms.

Each reference below is the plain ``np.einsum`` statement (or pointwise loop)
that the package used before its contractions were reordered. The optimized
forms must agree with them to 1e-12 relative to the reference's largest
entry, on random structure data.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from crosscontact import compactform, contact, crossmodel, homgeo
from crosscontact.crossmodel import Family, SpaceId
from crosscontact.homgeo import MetricParams

LABELS = ("cp2", "hp2", "CaP2")
RTOL = 1e-12


def assert_rel_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want)))
    assert scale > 0
    assert float(np.max(np.abs(got - want))) <= RTOL * scale


def dense_nijenhuis(structure):
    c = structure.frame.cbar
    phi = structure.phi
    t2 = np.einsum("ai,bj,abk->ijk", phi, phi, c)
    t3 = np.einsum("ai,ajl,kl->ijk", phi, c, phi)
    t4 = np.einsum("bj,ibl,kl->ijk", phi, c, phi)
    return -c + t2 - t3 - t4


def dense_nabla_phi_lhs(structure):
    alpha = homgeo.alpha_tensor(structure.frame, structure.metric)
    phi = structure.phi
    return np.einsum("bj,ibk->ijk", phi, alpha) - np.einsum("ijl,kl->ijk", alpha, phi)


def dense_cbar(frame):
    amb = np.einsum("ai,bj,abc->ijc", frame.mbar, frame.mbar, frame.alg.bracket_tensor)
    return np.einsum("ijc,cd,dk->ijk", amb, frame.ip, frame.mbar)


def dense_killing_residual(frame, metric, xi):
    ut = homgeo.u_tensor(frame, metric)
    return float(np.max(np.abs(np.einsum("ijk,kl,l->ij", ut, metric.gram, xi))))


def dense_jacobi(c):
    cc = np.einsum("ijm,mkl->ijkl", c, c)
    return float(np.max(np.abs(cc + np.transpose(cc, (1, 2, 0, 3))
                               + np.transpose(cc, (2, 0, 1, 3)))))


def k_contact_candidate_residual(frame, kappa, params):
    """Pointwise residual of one grid point of the uniqueness scan."""
    metric = homgeo.metric_from_params(frame, params)
    g = metric.gram
    d_eta_unscaled = -0.5 * frame.cbar[:, :, 0]
    phi = -kappa * np.linalg.solve(g, d_eta_unscaled)
    char = np.zeros(frame.dim_mbar)
    char[0] = 1.0 / kappa
    eta = np.zeros(frame.dim_mbar)
    eta[0] = kappa
    eye = np.eye(frame.dim_mbar)
    return max(
        float(np.max(np.abs(phi @ phi + eye - np.outer(char, eta)))),
        float(np.max(np.abs(phi.T @ g @ phi - g + np.outer(eta, eta)))),
        dense_killing_residual(frame, metric, kappa * char),
    )


@pytest.mark.parametrize("label", LABELS)
def test_nijenhuis_matches_dense(frames, label):
    frame = frames[label]
    rng = np.random.default_rng(40)
    base = contact.theorem_main_structure(frame, 1.0, 1.0)
    for _ in range(3):
        st = dataclasses.replace(base, phi=rng.normal(size=base.phi.shape))
        assert_rel_close(contact.nijenhuis_tensor(st), dense_nijenhuis(st))


@pytest.mark.parametrize("label", LABELS)
def test_nabla_phi_matches_dense(frames, label):
    """With a random phi, nabla_phi_residual is the max of the dense lhs - rhs."""
    frame = frames[label]
    rng = np.random.default_rng(43)
    base = contact.theorem_main_structure(frame, 1.0, 1.0)
    for _ in range(3):
        params = MetricParams(*np.exp(rng.uniform(-1.5, 1.5, 5)))
        st = dataclasses.replace(base, phi=rng.normal(size=base.phi.shape),
                                 metric=homgeo.metric_from_params(frame, params))
        g = st.metric.gram
        rhs = np.einsum("ij,k->ijk", g, st.char) \
            - np.einsum("j,ik->ijk", st.eta, np.eye(frame.dim_mbar))
        want = float(np.max(np.abs(dense_nabla_phi_lhs(st) - rhs)))
        assert contact.nabla_phi_residual(st) == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("label", LABELS)
def test_cbar_matches_dense(frames, label):
    frame = frames[label]
    assert_rel_close(frame.cbar, dense_cbar(frame))


@pytest.mark.parametrize("label", LABELS)
def test_killing_residual_matches_dense(frames, label):
    frame = frames[label]
    rng = np.random.default_rng(41)
    for _ in range(5):
        metric = homgeo.metric_from_params(
            frame, MetricParams(*np.exp(rng.uniform(-1.5, 1.5, 5))))
        xi = rng.normal(size=frame.dim_mbar)
        got = homgeo.killing_residual(frame, metric, xi)
        want = dense_killing_residual(frame, metric, xi)
        assert got == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("label", LABELS)
def test_jacobi_matches_dense(frames, label):
    """Per-slice Jacobi maximum equals the dense one, also on a broken tensor."""
    alg = frames[label].alg
    rng = np.random.default_rng(42)
    noisy = alg.bracket_tensor + 1e-3 * rng.normal(size=alg.bracket_tensor.shape)
    for c in (alg.bracket_tensor, noisy):
        got = compactform.verify_algebra(
            dataclasses.replace(alg, bracket_tensor=c))["residuals"]["jacobi"]
        want = dense_jacobi(c)
        assert got == pytest.approx(want, rel=RTOL, abs=1e-15)
    assert want > 1e-4


@pytest.mark.parametrize("space", [SpaceId(Family.CAYLEY_PLANE), SpaceId(Family.SPHERE, 9)],
                         ids=["CaP2", "sphere9"])
def test_jacobi_join_matches_dense(space, monkeypatch):
    """A sparse broken tensor takes the nonzero join, which equals the dense maximum."""
    alg = crossmodel.build_frame(space).alg
    rng = np.random.default_rng(44)
    c = alg.bracket_tensor.copy()
    for i, j, k in rng.integers(alg.dim, size=(6, 3)):
        c[i, j, k] += 1e-3
        c[j, i, k] -= 1e-3

    def no_dense(_):
        raise AssertionError("per-slice path taken on a sparse tensor")

    monkeypatch.setattr(compactform, "_jacobi_dense", no_dense)
    got = compactform.verify_algebra(
        dataclasses.replace(alg, bracket_tensor=c))["residuals"]["jacobi"]
    want = dense_jacobi(c)
    assert got == pytest.approx(want, rel=RTOL, abs=0.0)
    assert want > 1e-4


def test_jacobi_join_fixed_points():
    """The cyclic sum is three times cc on a fixed point (a, a, a) of the rotation,
    and the join of an all-zero (abelian) tensor is empty."""
    c = np.zeros((3, 3, 3))
    alg = compactform.CompactLieAlgebra(3, ["x", "y", "z"], c, np.eye(3))
    assert compactform.verify_algebra(alg)["residuals"]["jacobi"] == 0.0
    c[0, 0, 0], c[1, 1, 1], c[2, 0, 1] = 1.0, 2.0, 0.5
    got = compactform.verify_algebra(alg)["residuals"]["jacobi"]
    assert got == pytest.approx(dense_jacobi(c), rel=RTOL, abs=0.0)
    assert got == 12.0


def test_jacobi_negative_control():
    """Breaking any one antisymmetric pair of so(4) or su(3) by 1e-3 fails the Jacobi check."""
    for alg in (compactform.build_so_matrix_model(3),
                crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, 2)).alg):
        for i, j in itertools.combinations(range(alg.dim), 2):
            for k in range(alg.dim):
                c = alg.bracket_tensor.copy()
                c[i, j, k] += 1e-3
                c[j, i, k] -= 1e-3
                out = compactform.verify_algebra(dataclasses.replace(alg, bracket_tensor=c))
                assert not out["passed"], (alg.dim, i, j, k)
                assert out["residuals"]["jacobi"] > 1e-4, (alg.dim, i, j, k)
                assert out["residuals"]["antisymmetry"] == 0.0


@pytest.mark.parametrize("label", ["cp2", "hp1"])
def test_uniqueness_scan_matches_pointwise(frames, label):
    """Batched grid residuals equal the pointwise candidate residuals, in order."""
    frame = frames[label]
    for r, kappa in ((1.0, 1.0), (0.37, 2.3)):
        scan = contact.uniqueness_scan(frame, r, kappa, 5)
        axes = scan["axes"]
        grids = []
        for k in axes:
            t = kappa * (r if k.endswith("eps") else r / 2.0) / (2 * r)
            g = np.geomspace(t / 2.0, t * 2.0, 5)
            g[2] = t
            grids.append(g)
        combos = list(itertools.product(*grids))
        assert len(scan["points"]) == len(combos) == 5 ** len(axes)
        for p, (pt, combo) in enumerate(zip(scan["points"], combos)):
            vals = dict(zip(axes, combo))
            assert pt["params"] == {k: float(vals[k]) for k in axes}
            params = MetricParams(kappa, vals["a_eps"], vals.get("a_half", 1.0),
                                  vals["b_eps"], vals.get("b_half", 1.0))
            want = k_contact_candidate_residual(frame, kappa, params)
            assert pt["residual"] == pytest.approx(want, rel=RTOL, abs=0.0)
            assert pt["passed"] == (want <= 1e-9)
            assert pt["theorem_point"] == (p == (len(combos) - 1) // 2)
