"""Symmetric pairs and restricted-root frames against the classification table."""

import numpy as np
import pytest

from crosscontact import crossmodel
from crosscontact.crossmodel import Family, ModelError, SpaceId

ALL_TABLE_SPACES = (
    [("sphere", n) for n in range(2, 7)]
    + [("rp", n) for n in range(2, 7)]
    + [("cp", n) for n in range(2, 5)]
    + [("hp", n) for n in range(1, 4)]
    + [("cayley", 2)]
    + [("sphere", 10), ("rp", 10)]
)

FAMILY = {"sphere": Family.SPHERE, "rp": Family.REAL_PROJECTIVE,
          "cp": Family.COMPLEX_PROJECTIVE, "hp": Family.QUATERNIONIC_PROJECTIVE,
          "cayley": Family.CAYLEY_PLANE}


@pytest.mark.parametrize("fam,n", ALL_TABLE_SPACES)
def test_table_row(fam, n):
    """dim, multiplicities and isotropy dimension match the classification table."""
    space = SpaceId(FAMILY[fam], n)
    frame = crossmodel.build_frame(space)
    me, mh = crossmodel.table1_multiplicities(space)
    assert (frame.m_eps, frame.m_half) == (me, mh)
    assert frame.dim_mbar == 2 * space.base_dim - 1
    assert frame.h_basis.shape[1] == crossmodel.table1_h_dim(space)


def test_frames_built_once(frames):
    """build_frame caches per space, and the session fixture shares that cache."""
    space = SpaceId(Family.COMPLEX_PROJECTIVE, 2)
    assert crossmodel.build_frame(space) is crossmodel.build_frame(space)
    assert frames["cp2"] is crossmodel.build_frame(space)


def test_spectrum_clusters(frames):
    """ad_X^2 has eigenvalues exactly in {0, -1, -1/4} on m and k."""
    for frame in frames.values():
        for w in (frame.spectrum_m, frame.spectrum_k):
            dist = np.min(np.abs(w[:, None] - np.array([0.0, -1.0, -0.25])), axis=1)
            assert np.max(dist) < 1e-9


def test_frame_orthonormal(frames):
    """The frame (X, xis, zetas) is orthonormal for the invariant form."""
    for frame in frames.values():
        gram = frame.mbar.T @ frame.ip @ frame.mbar
        assert np.max(np.abs(gram - np.eye(frame.dim_mbar))) < 1e-9


def test_cartan_vector_normalization(frames):
    """<X, X> = 1 and the top eigenvalue of -ad_X^2 is 1."""
    for frame in frames.values():
        assert frame.x @ frame.ip @ frame.x == pytest.approx(1.0)
        assert np.min(frame.spectrum_m) == pytest.approx(-1.0)


def test_sigma_is_automorphism(frames):
    for frame in frames.values():
        pair = crossmodel.build_pair(frame.space)
        assert crossmodel.sigma_automorphism_residual(pair) < 1e-12


def test_bracket_laws(frames):
    for label, frame in frames.items():
        out = crossmodel.verify_bracket_laws(frame)
        assert out["passed"], (label, out["checks"])


def test_h_preserves_blocks(frames):
    """Random elements of h map each restricted-root block into itself."""
    rng = np.random.default_rng(3)
    for frame in frames.values():
        hb = frame.h_basis
        if hb.shape[1] == 0:
            continue
        h = hb @ rng.normal(size=hb.shape[1])
        s = frame.slices()
        for name in ("a", "m_eps", "m_half", "k_eps", "k_half"):
            block = frame.mbar[:, s[name]]
            for v in block.T:
                w = frame.alg.bracket(h, v)
                rem = w - block @ (block.T @ frame.ip @ w)
                assert np.sqrt(abs(rem @ frame.ip @ rem)) < 1e-9


def test_sphere_rp_same_frame(frames):
    """Sphere and real projective space share algebra data and frames."""
    a, b = frames["sphere3"], frames["rp3"]
    assert a.alg.basis_labels == b.alg.basis_labels
    assert np.array_equal(a.mbar, b.mbar)
    assert np.array_equal(a.cbar, b.cbar)
    assert a.space != b.space


@pytest.mark.parametrize("label,dim_z", [
    ("sphere3", 1),  # so(2) is abelian
    ("sphere4", 0),  # so(3) is simple
    ("cp2", 1), ("cp3", 1),
    # sp(1) + sp(n-1) is a sum of simple ideals, so the literal center is 0
    ("hp2", 0),
    ("CaP2", 0),  # so(7) is simple
])
def test_center_of_h_dimension(frames, label, dim_z):
    z = crossmodel.center_of_h(frames[label])
    assert z.shape[1] == dim_z
    frame = frames[label]
    for v in z.T:  # every center vector commutes with all of h
        for h in frame.h_basis.T:
            assert np.max(np.abs(frame.alg.bracket(v, h))) < 1e-9


@pytest.mark.parametrize("label", ["cp2", "cp3"])
def test_cp_bracket_scalars(frames, label):
    out = crossmodel.fixture_check_cp2_brackets(frames[label])
    assert out["passed"], out["checks"]
    assert max(out["checks"].values()) < 1e-9


def pointwise_cp_scalars(frame) -> dict:
    """The complex-projective bracket scalars, one pointwise bracket at a time."""
    alg, ip = frame.alg, frame.ip
    xi_e, ze_e = frame.xi_eps[:, 0], frame.zeta_eps[:, 0]
    checks = {"[xi_eps,zeta_eps]=-X": float(np.max(np.abs(alg.bracket(xi_e, ze_e) + frame.x)))}
    worst_half = worst_norm = worst_pair = 0.0
    for p in range(frame.m_half):
        xi_p, ze_p = frame.xi_half[:, p], frame.zeta_half[:, p]
        worst_half = max(worst_half, abs(float(alg.bracket(xi_p, ze_p) @ ip @ frame.x) + 0.5))
        b = alg.bracket(xi_e, xi_p)
        worst_norm = max(worst_norm, abs(np.sqrt(b @ ip @ b) - 0.5))
        worst_pair = max(worst_pair, float(np.max(np.abs(
            alg.bracket(xi_e, ze_p) + alg.bracket(ze_e, xi_p)))))
    checks["<[xi_half,zeta_half],X>=-1/2"] = worst_half
    checks["|[xi_eps,xi_half]|=1/2"] = worst_norm
    checks["eps_half_antipairing"] = worst_pair
    return checks


@pytest.mark.parametrize("label", ["cp2", "cp3"])
def test_cp_bracket_scalars_match_pointwise(frames, label):
    got = crossmodel.fixture_check_cp2_brackets(frames[label])["checks"]
    want = pointwise_cp_scalars(frames[label])
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-12, name


def test_cp_fixture_rejects_other_families(sphere4):
    with pytest.raises(ModelError):
        crossmodel.fixture_check_cp2_brackets(sphere4)


def test_zeta_pairing_is_isometry(cp2, hp2):
    """zeta vectors are unit and orthogonal when the xis are."""
    for frame in (cp2, hp2):
        for cols in (frame.zeta_eps, frame.zeta_half):
            g = cols.T @ frame.ip @ cols
            assert np.max(np.abs(g - np.eye(cols.shape[1]))) < 1e-9


def test_frame_summary_fields(cp2):
    summary = cp2.summary()
    assert summary["space"] == "cp2"
    assert summary["m_eps"] == 1 and summary["m_half"] == 2
    assert summary["dim_mbar"] == 7


@pytest.mark.parametrize("fam,n", [("sphere", 1), ("cp", 1), ("hp", 0), ("rp", 0)])
def test_invalid_space_parameters(fam, n):
    with pytest.raises(ModelError):
        SpaceId(FAMILY[fam], n)
