"""Symmetric pairs and restricted-root frames against the classification table."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from oracles import (bracket_table, loop_bracket_laws, projection_bracket_laws,
                     sigma_automorphism_residual)

from crosscontact import compactform, contact, crossmodel, rootsys, suites
from crosscontact.compactform import DEFAULT_TOL
from crosscontact.crossmodel import Family, ModelError, SpaceId
from crosscontact.report import VerificationReport

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
    row = suites.table1(space)
    assert (frame.m_eps, frame.m_half) == (row.m_eps, row.m_half)
    assert frame.dim_mbar == 2 * row.base_dim - 1
    assert frame.h_basis.shape[1] == row.h_dim


@pytest.mark.parametrize("space", [SpaceId(Family.CAYLEY_PLANE),
                                   SpaceId(Family.QUATERNIONIC_PROJECTIVE, 4)],
                         ids=SpaceId.label)
def test_frame_keeps_no_dense_tensor(space):
    """What one frame build leaves allocated is below half of one dim^3 float tensor."""
    build = crossmodel.build_frame.__wrapped__  # past the cache, so each call builds
    build(space)  # allocations of a first call that outlive it are not the frame's
    tracemalloc.start()
    try:
        frame = build(space)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < frame.alg.dim ** 3 * 8 / 2


LADDER_SPACES = ([("sphere", n) for n in range(2, 10)] + [("rp", n) for n in range(2, 7)]
                 + [("cp", n) for n in range(2, 7)] + [("hp", n) for n in range(1, 5)]
                 + [("cayley", 2)])


def classical_dims(family: Family, n: int) -> tuple[int, int]:
    """(dim G, dim K) of the space's isometry and isotropy algebras, from the
    dimensions of the classical groups alone."""
    if family in (Family.SPHERE, Family.REAL_PROJECTIVE):
        return n * (n + 1) // 2, n * (n - 1) // 2  # so(n+1), so(n)
    if family is Family.COMPLEX_PROJECTIVE:
        return n * (n + 2), n * n  # su(n+1), s(u(1) + u(n))
    if family is Family.QUATERNIONIC_PROJECTIVE:
        return (n + 1) * (2 * n + 3), 3 + n * (2 * n + 1)  # sp(n+1), sp(1) + sp(n)
    return 52, 36  # f4, spin(9)


# every family at every n up to 12; every n names the one Cayley plane
ORACLE_SPACES = list(dict.fromkeys(
    SpaceId(f, n) for f in Family
    for n in range(1 if f is Family.QUATERNIONIC_PROJECTIVE else 2, 13)))


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=SpaceId.label)
def test_table1_agrees_with_classical_group_dimensions(space):
    """An oracle that shares no code with table1 or the builders: dim m is
    dim G - dim K, the restricted roots fill m less the Cartan line, and h,
    the centralizer of that line in k, has dim G - dim m - m_eps - m_half."""
    dim_g, dim_k = classical_dims(space.family, space.n)
    dim_m = dim_g - dim_k
    row = suites.table1(space)
    assert row.base_dim == dim_m == 1 + row.m_eps + row.m_half
    assert row.h_dim == dim_g - dim_m - row.m_eps - row.m_half


@pytest.mark.parametrize("fam,n", LADDER_SPACES)
def test_built_frame_has_the_classical_dimensions(fam, n):
    """The built algebra is dim G, and the frame splits it as the oracle does."""
    space = SpaceId(FAMILY[fam], n)
    frame = crossmodel.build_frame(space)
    dim_g, dim_k = classical_dims(space.family, space.n)
    dim_m = dim_g - dim_k
    assert frame.alg.dim == dim_g
    assert (1 + frame.m_eps + frame.m_half, frame.h_basis.shape[1]) == (dim_m, dim_k - dim_m + 1)


def test_wrong_label_fails_every_table1_check(monkeypatch):
    """The frame is built from the algebra alone: the CP^2 pair under the label
    CP^3 gives the CP^2 frame, and only suite_table1, which reads the table,
    sees the mismatch, in all three of its checks."""
    pair = dataclasses.replace(crossmodel.build_pair(SpaceId(Family.COMPLEX_PROJECTIVE, 2)),
                               space=SpaceId(Family.COMPLEX_PROJECTIVE, 3))
    frame = crossmodel.restricted_frame(pair)
    assert (frame.m_eps, frame.m_half, frame.h_basis.shape[1]) == (1, 2, 1)
    monkeypatch.setattr(crossmodel, "build_frame", lambda space: frame)
    rep = VerificationReport(config={})
    suites.suite_table1(pair.space, 1.0, 1.0, 5, rep, DEFAULT_TOL)
    assert {c.name: (c.passed, c.details) for c in rep.checks} == {
        "table1/cp3/multiplicities": (False, "got (1, 2), want (1, 4)"),
        "table1/cp3/base_dim": (False, "dim mbar = 7 != 2*6-1"),
        "table1/cp3/h_dim": (False, "got 1, want 4"),
    }


def test_rank_two_pair_is_rejected():
    """Gr_2(C^4), su(4) with sigma at the middle node of A_3, has a
    two-dimensional Cartan subspace: the rank-one hypothesis fails."""
    rs = rootsys.RootSystem.of(rootsys.SimpleBasis.A(3))
    alg = compactform.build_compact_from_roots(rs)
    odd = np.flatnonzero([r[1] % 2 for r in rs.positive_roots])
    signs = np.ones(alg.dim)
    for a in (0, 1):
        signs[compactform.u_basis_index(rs.rank, odd, a)] = -1.0
    seed = compactform.u_basis_index(rs.rank, rs.positive_roots.index((0, 1, 0)), 0)
    pair = crossmodel.SymmetricPair(SpaceId(Family.COMPLEX_PROJECTIVE, 3), alg, signs, seed)
    assert np.count_nonzero(pair.signs < 0) == 8  # the real dimension of Gr_2(C^4)
    with pytest.raises(ModelError, match="^Cartan subspace is not one-dimensional$"):
        crossmodel.restricted_frame(pair)


def full_gram_schmidt(cols: np.ndarray, ip: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt against every earlier column: the reference for the
    Cholesky-built bases."""
    out = []
    for j in range(cols.shape[1]):
        v = cols[:, j].astype(float).copy()
        for u in out:
            v -= (u @ ip @ v) * u
        nrm = np.sqrt(v @ ip @ v)
        if nrm < 1e-12:
            raise ModelError("dependent vectors in orthonormalization")
        out.append(v / nrm)
    return np.column_stack(out)


def assert_bytes_equal(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fam,n", sorted(set(ALL_TABLE_SPACES) | set(LADDER_SPACES)))
def test_orthonormalize_matches_full_gram_schmidt(monkeypatch, fam, n):
    """A frame orthonormalizes twice, the pair's k and m bases. Each agrees with a
    full Gram-Schmidt within 1e-13 (at most 1.1e-14, on CaP2's Cartan block), and
    bit for bit where its Gram block is diagonal: m on every space, k on S^n and RP^n."""
    calls = []
    cholesky = crossmodel._orthonormal_basis

    def record(form, on):
        calls.append((form, on, cholesky(form, on)))
        return calls[-1][2]

    monkeypatch.setattr(crossmodel, "_orthonormal_basis", record)
    pair = crossmodel.build_pair(SpaceId(FAMILY[fam], n))
    crossmodel.restricted_frame(pair)
    assert len(calls) == 2
    assert {id(got) for _, _, got in calls} == {id(pair.k_basis), id(pair.m_basis)}
    for form, on, got in calls:
        want = full_gram_schmidt(np.eye(len(form))[:, on], form)
        assert np.max(np.abs(got - want)) < 1e-13
        block = form[np.ix_(on, on)]
        diagonal = not np.any(block - np.diag(np.diagonal(block)))
        assert diagonal == (got is pair.m_basis or fam in ("sphere", "rp"))
        if diagonal:
            assert_bytes_equal(got, want)


def gram_schmidt_forms():
    """(form, selection) pairs: a random SPD form, a block-diagonal form whose
    blocks interleave in index order, and a path 0-1-...-5 that couples every
    pair of vectors only through a chain."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(30, 30))
    yield a @ a.T + 30 * np.eye(30), rng.random(30) < 0.7
    rng = np.random.default_rng(12)
    blocks = [3, 1, 4, 2]
    dim = sum(blocks)
    owner = rng.permutation(np.repeat(np.arange(len(blocks)), blocks))  # block of each row
    ip = np.zeros((dim, dim))
    for b in range(len(blocks)):
        rows = np.flatnonzero(owner == b)
        a = rng.normal(size=(len(rows), len(rows)))
        ip[np.ix_(rows, rows)] = a @ a.T + len(rows) * np.eye(len(rows))
    yield ip, np.arange(dim) != 5
    yield 2.0 * np.eye(6) - 0.5 * (np.eye(6, k=1) + np.eye(6, k=-1)), np.ones(6, dtype=bool)


@pytest.mark.parametrize("form, on", gram_schmidt_forms(),
                         ids=["random_spd", "interleaved", "path"])
def test_orthonormal_basis_matches_gram_schmidt(form, on):
    """The Cholesky basis is orthonormal under the form, zero off the selection,
    and agrees with Gram-Schmidt of the selected basis vectors within 1e-15
    (measured: at most 2.8e-17 on each form)."""
    got = crossmodel._orthonormal_basis(form, on)
    assert got.shape == (len(form), np.count_nonzero(on))
    assert not np.any(got[~on])
    assert np.max(np.abs(got.T @ form @ got - np.eye(got.shape[1]))) < 1e-15
    assert np.max(np.abs(got - full_gram_schmidt(np.eye(len(form))[:, on], form))) < 1e-15


def test_orthonormalize_rejects_dependent_columns():
    """The selection e_0, e_1 is rejected when its Gram block is singular or
    indefinite, or when a Cholesky pivot (the Gram-Schmidt norm) is positive but
    below 1e-12; e_2 alone is accepted under each form."""
    on = np.array([True, True, False])
    for form in (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                 np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                 np.diag([1.0, 1e-26, 1.0])):  # pivot 1e-13
        with pytest.raises(ModelError, match="dependent vectors"):
            crossmodel._orthonormal_basis(form, on)
        assert crossmodel._orthonormal_basis(form, ~on).shape == (3, 1)


@pytest.mark.parametrize("fam,n", LADDER_SPACES + [("sphere", 10)])
def test_frame_does_not_depend_on_the_k_basis(fam, n):
    """mbar and cbar are read from m alone, so a rotated basis of k leaves them
    bit for bit; the projector onto h agrees within 1e-13 (measured: at most
    9.6e-15, on CaP2)."""
    space = SpaceId(FAMILY[fam], n)
    want = crossmodel.restricted_frame(crossmodel.build_pair(space))
    pair = crossmodel.build_pair(space)
    dim_k = pair.k_basis.shape[1]
    rot, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(dim_k, dim_k)))
    pair.__dict__["k_basis"] = pair.k_basis @ rot
    got = crossmodel.restricted_frame(pair)
    for name in ("mbar", "cbar"):
        assert_bytes_equal(getattr(got, name), getattr(want, name))
    project = [f.h_basis @ f.h_basis.T @ f.ip for f in (got, want)]
    assert np.max(np.abs(project[0] - project[1])) < 1e-13


H_SPACES = ([SpaceId(Family.COMPLEX_PROJECTIVE, n) for n in range(3, 8)]
            + [SpaceId(Family.QUATERNIONIC_PROJECTIVE, n) for n in range(2, 5)]
            + [SpaceId(Family.CAYLEY_PLANE)])


@pytest.mark.parametrize("space", H_SPACES, ids=SpaceId.label)
def test_h_basis_is_continuous_in_the_k_basis(space):
    """h is completed from the k basis by Householder QR, which is continuous in
    its input: moving every nonzero of the k basis by one ulp, up or down at
    random, moves h_basis by at most 1e-13 (measured: at most 2.1e-14, on CaP2)
    and leaves mbar bit for bit. A raw eigh basis of the degenerate kernel of
    ad_X on k moved by 1.6 (CP^3) up to 62 (CaP2)."""
    pair = crossmodel.build_pair(space)
    want = crossmodel.restricted_frame(pair)
    kb = pair.k_basis
    up = np.random.default_rng(len(kb)).random(kb.shape) < 0.5
    moved = np.nextafter(kb, np.where(up, np.inf, -np.inf))
    pair.__dict__["k_basis"] = np.where(kb != 0, moved, 0.0)
    got = crossmodel.restricted_frame(pair)
    assert np.count_nonzero(got.h_basis - want.h_basis) > 0  # the ulps reach h
    assert np.max(np.abs(got.h_basis - want.h_basis)) <= 1e-13
    assert_bytes_equal(got.mbar, want.mbar)


@pytest.mark.parametrize("fam,n", LADDER_SPACES)
def test_frame_calls_eigh_once(monkeypatch, fam, n):
    """One eigendecomposition per frame: -ad_seed^2 on m gives X, the xis and
    their levels, and h is the complement of the zetas, with no eigh on k."""
    pair = crossmodel.build_pair(SpaceId(FAMILY[fam], n))
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, real=getattr(np.linalg, name), name=name):
            calls.append(name)
            return real(a)
        monkeypatch.setattr(np.linalg, name, counted)
    crossmodel.restricted_frame(pair)
    assert calls == ["eigh"]


@pytest.mark.parametrize("t", range(8))
def test_frame_guards_reject_a_scaled_bracket_output(t):
    """Scale by 1.3 every structure constant c[i, j, t] of CP^2 with output index t.
    For t in {0, 2, 3, 5, 6, 7} an ad_X^2 eigenvalue on m leaves its level and
    the frame is refused; the frame is orthonormal on 6 and 7, so only the
    level guard sees those two. For t in {1, 4} the frame is still built."""
    pair = crossmodel.build_pair(SpaceId(Family.COMPLEX_PROJECTIVE, 2))
    alg = pair.alg
    scaled = dataclasses.replace(alg, values=np.where(alg.index[:, 2] == t, 1.3, 1.0) * alg.values)
    pair = dataclasses.replace(pair, alg=scaled)
    if t in (1, 4):
        frame = crossmodel.restricted_frame(pair)
        assert (frame.m_eps, frame.m_half, frame.h_basis.shape[1]) == (1, 2, 1)
    else:
        with pytest.raises(ModelError, match="^stray ad_X\\^2 eigenvalue "):
            crossmodel.restricted_frame(pair)


def test_frames_built_once(frames):
    """build_frame caches per space, and the session fixture shares that cache."""
    space = SpaceId(Family.COMPLEX_PROJECTIVE, 2)
    assert crossmodel.build_frame(space) is crossmodel.build_frame(space)
    assert frames["cp2"] is crossmodel.build_frame(space)


def ad_x_squared_spectrum(frame, basis):
    """Eigenvalues of ad_X^2 on the span of the ip-orthonormal columns of basis."""
    ad = frame.alg.ad(frame.mbar[:, 0])
    op = basis.T @ frame.ip @ ad @ ad @ basis
    return np.linalg.eigvalsh((op + op.T) / 2)


def m_spectrum(frame):
    """Eigenvalues of ad_X^2 on m, in the frame's basis of m: the X and xi
    columns of mbar."""
    return ad_x_squared_spectrum(frame, frame.mbar[:, :frame.slices()["m_half"].stop])


def k_spectrum(frame):
    """Eigenvalues of ad_X^2 on k, in the frame's basis of k: the zeta columns
    of mbar and the columns of h_basis."""
    s = frame.slices()
    return ad_x_squared_spectrum(frame, np.column_stack(
        (frame.mbar[:, s["k_eps"].start:s["k_half"].stop], frame.h_basis)))


def test_spectrum_clusters(frames):
    """ad_X^2 has eigenvalues exactly in {0, -1, -1/4} on m and k."""
    for frame in frames.values():
        for w in (m_spectrum(frame), k_spectrum(frame)):
            dist = np.min(np.abs(w[:, None] - np.array([0.0, -1.0, -0.25])), axis=1)
            assert np.max(dist) < 1e-9


def test_frame_orthonormal(frames):
    """The full frame [X, xis, zetas | h_basis] is an orthonormal basis of g for ip."""
    for frame in frames.values():
        full = np.column_stack((frame.mbar, frame.h_basis))
        assert full.shape == (frame.alg.dim,) * 2
        assert np.max(np.abs(full.T @ frame.ip @ full - np.eye(frame.alg.dim))) < 1e-14


def test_cartan_vector_normalization(frames):
    """<X, X> = 1 and the top eigenvalue of -ad_X^2 is 1."""
    for frame in frames.values():
        x = frame.mbar[:, frame.slices()["a"]][:, 0]
        assert x @ frame.ip @ x == pytest.approx(1.0)
        assert np.min(m_spectrum(frame)) == pytest.approx(-1.0)


def test_sigma_is_automorphism(frames):
    for frame in frames.values():
        pair = crossmodel.build_pair(frame.space)
        assert sigma_automorphism_residual(pair.alg, pair.signs) < 1e-12


PAIR_SPACES = ([SpaceId(Family.SPHERE, n) for n in range(2, 11)]
               + [SpaceId(Family.REAL_PROJECTIVE, n) for n in range(2, 7)]
               + [SpaceId(Family.COMPLEX_PROJECTIVE, n) for n in range(2, 8)]
               + [SpaceId(Family.QUATERNIONIC_PROJECTIVE, n) for n in range(1, 5)]
               + [SpaceId(Family.CAYLEY_PLANE)])


@pytest.mark.parametrize("space", PAIR_SPACES, ids=SpaceId.label)
def test_pair_guard_and_sigma_oracle_agree(space):
    """The dense residual is 0 on every built pair. Swapping the signs of the last
    m and the last k basis vector keeps dim m; the oracle sees a residual and the
    pair record refuses the signs on every algebra but so(3), where the swap is
    the reflection in another coordinate axis and so still an automorphism."""
    pair = crossmodel.build_pair(space)
    assert sigma_automorphism_residual(pair.alg, pair.signs) == 0.0
    swapped = pair.signs.copy()
    last_m, last_k = np.flatnonzero(swapped < 0)[-1], np.flatnonzero(swapped > 0)[-1]
    swapped[[last_m, last_k]] *= -1
    residual = sigma_automorphism_residual(pair.alg, swapped)
    if pair.alg.dim == 3:
        assert residual == 0.0
    else:
        assert residual > 0.0
        with pytest.raises(ModelError, match="automorphism"):
            dataclasses.replace(pair, signs=swapped)


def test_pair_rejects_bad_signs_and_a_seed_outside_m(cp2):
    pair = crossmodel.build_pair(cp2.space)
    for signs in (pair.signs[:-1], np.where(pair.signs > 0, 0.5, -1.0),
                  np.full(pair.signs.shape, np.nan)):
        with pytest.raises(ModelError, match="one sign"):
            dataclasses.replace(pair, signs=signs)
    first_k = int(np.flatnonzero(pair.signs > 0)[0])
    for seed in (first_k, -1, pair.alg.dim):
        with pytest.raises(ModelError, match="seed"):
            dataclasses.replace(pair, seed=seed)


@pytest.mark.parametrize("space", [SpaceId(Family.SPHERE, 4),
                                   SpaceId(Family.COMPLEX_PROJECTIVE, 2),
                                   SpaceId(Family.QUATERNIONIC_PROJECTIVE, 2),
                                   SpaceId(Family.CAYLEY_PLANE)], ids=SpaceId.label)
def test_any_seed_in_m_gives_the_same_geometry(space):
    """Rank one makes K transitive on the unit sphere of m, so the first, second
    and last basis vector of m each seed a frame with the table multiplicities,
    the bracket laws and a Sasakian theorem structure."""
    pair = crossmodel.build_pair(space)
    for seed in np.flatnonzero(pair.signs < 0)[[0, 1, -1]]:
        frame = crossmodel.restricted_frame(dataclasses.replace(pair, seed=int(seed)))
        row = suites.table1(space)
        assert (frame.m_eps, frame.m_half) == (row.m_eps, row.m_half)
        laws = crossmodel.verify_bracket_laws(frame)
        assert laws["passed"], (seed, laws["checks"])
        cls = contact.classify(contact.theorem_main_structure(frame, 1.3))
        assert cls.flags["sasakian"], (seed, cls.residuals)


def test_bracket_laws(frames):
    for label, frame in frames.items():
        out = crossmodel.verify_bracket_laws(frame)
        assert out["passed"], (label, out["checks"])


def broken_cp3_frames(cp3):
    """CP^3 frames that break the bracket laws, keyed by what is broken."""
    s = cp3.slices()
    swapped = cp3.mbar.copy()
    xi, zeta = s["m_half"].start, s["k_half"].start
    swapped[:, [xi, zeta]] = swapped[:, [zeta, xi]]
    with_nan = cp3.mbar.copy()
    with_nan[0, 1] = np.nan
    h_nan = cp3.h_basis.copy()
    h_nan[np.flatnonzero(h_nan[:, 2])[0], 2] = np.nan
    ip_nan = cp3.ip.copy()
    ip_nan[3, 3] = np.nan
    return {"h_column_dropped": dataclasses.replace(cp3, h_basis=cp3.h_basis[:, 1:]),
            "xi_zeta_swapped": dataclasses.replace(cp3, mbar=swapped),
            "nan_in_mbar": dataclasses.replace(cp3, mbar=with_nan),
            "nan_in_h": dataclasses.replace(cp3, h_basis=h_nan),
            "nan_in_ip": dataclasses.replace(cp3, ip=ip_nan)}


BROKEN = ["h_column_dropped", "xi_zeta_swapped", "nan_in_mbar", "nan_in_h", "nan_in_ip"]


@pytest.mark.parametrize("broken", BROKEN)
def test_bracket_laws_negative_controls(frames, broken):
    """Each broken frame fails the laws, and fails the projection oracle too."""
    frame = broken_cp3_frames(frames["cp3"])[broken]
    out = crossmodel.verify_bracket_laws(frame)
    checks = out["checks"]
    assert not out["passed"]
    assert not projection_bracket_laws(frame)["passed"]
    inclusions = [v for name, v in checks.items() if name.startswith("[")]
    if broken == "h_column_dropped":
        # frame coordinates of an incomplete basis miss what lies off it
        assert checks["frame_basis"] == np.inf
        assert max(inclusions) < 1e-12
    elif broken == "xi_zeta_swapped":
        assert checks["frame_basis"] < 1e-12
        assert max(inclusions) == pytest.approx(1.0)
    else:
        assert np.isnan(checks["frame_basis"])
        assert np.isnan(np.max(inclusions))


@pytest.mark.parametrize("broken", BROKEN)
def test_bracket_laws_negative_controls_equal_inclusion_loop(frames, broken):
    """The term sums and the per-inclusion loop on the dense product agree on
    the broken frames: the same checks and verdict, each value within 1e-15,
    and NaN in the same checks. A non-finite column of F, mbar or ip F reaches
    the residuals that read it, and no others, in both."""
    frame = broken_cp3_frames(frames["cp3"])[broken]
    got = crossmodel.verify_bracket_laws(frame)
    want = loop_bracket_laws(frame)
    assert got["passed"] == want["passed"] is False
    assert list(got["checks"]) == list(want["checks"])
    for name, value in want["checks"].items():
        have = got["checks"][name]
        if np.isnan(have) or np.isnan(value):
            assert np.isnan(have) and np.isnan(value), name
        else:
            assert have == value or abs(have - value) <= 1e-15, name


@pytest.mark.parametrize("n", [2, 3, 6])
def test_rp_shares_the_sphere_frame(n):
    """RP^n is built as S^n: the same algebra and frame arrays under its own space."""
    rp = crossmodel.build_frame(SpaceId(Family.REAL_PROJECTIVE, n))
    sphere = crossmodel.build_frame(SpaceId(Family.SPHERE, n))
    assert rp.alg is sphere.alg and rp.mbar is sphere.mbar and rp.cbar is sphere.cbar
    assert rp.space == SpaceId(Family.REAL_PROJECTIVE, n) and rp.space.label() == f"rp{n}"
    assert sphere.space.label() == f"sphere{n}"


def bracket(alg, x, y):
    """The pointwise bracket [x, y] of two algebra coordinate vectors."""
    return y @ np.tensordot(x, alg.dense(), axes=1)


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
                w = bracket(frame.alg, h, v)
                rem = w - block @ (block.T @ frame.ip @ w)
                assert np.sqrt(abs(rem @ frame.ip @ rem)) < 1e-9


def test_sphere_rp_same_frame(frames):
    """Sphere and real projective space share algebra data and frames."""
    a, b = frames["sphere3"], frames["rp3"]
    assert a.alg is b.alg
    assert np.array_equal(a.mbar, b.mbar)
    assert np.array_equal(a.cbar, b.cbar)
    assert a.space != b.space


def center_of_h(frame) -> np.ndarray:
    """Basis (columns) of the center of h via null-space extraction of ad|_h."""
    alg, ip, hb = frame.alg, frame.ip, frame.h_basis
    nh = hb.shape[1]
    if nh == 0:
        return hb
    # column i = flattened ad_{h_i} restricted to h, rows (p, j) = <h_p, [h_i, h_j]>
    mat = (bracket_table(alg.dense(), hb, hb) @ ip @ hb).transpose(2, 1, 0).reshape(nh * nh, nh)
    _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    null = [vt[k] for k in range(nh) if k >= len(sv) or sv[k] < 1e-9]
    if not null:
        return np.zeros((alg.dim, 0))
    return hb @ np.column_stack(null)


@pytest.mark.parametrize("label,dim_z", [
    ("sphere3", 1),  # so(2) is abelian
    ("sphere4", 0),  # so(3) is simple
    ("cp2", 1), ("cp3", 1),
    # sp(1) + sp(n-1) is a sum of simple ideals, so the literal center is 0
    ("hp2", 0),
    ("CaP2", 0),  # so(7) is simple
])
def test_center_of_h_dimension(frames, label, dim_z):
    z = center_of_h(frames[label])
    assert z.shape[1] == dim_z
    frame = frames[label]
    for v in z.T:  # every center vector commutes with all of h
        for h in frame.h_basis.T:
            assert np.max(np.abs(bracket(frame.alg, v, h))) < 1e-9


@pytest.mark.parametrize("label", ["cp2", "cp3"])
def test_cp_bracket_scalars(frames, label):
    out = crossmodel.fixture_check_cp2_brackets(frames[label])
    assert out["passed"], out["checks"]
    assert max(out["checks"].values()) < 1e-9


def pointwise_cp_scalars(frame) -> dict:
    """The complex-projective bracket scalars, one pointwise bracket at a time."""
    alg, ip = frame.alg, frame.ip
    x, xi_eps, xi_half, zeta_eps, zeta_half = (
        frame.mbar[:, frame.slices()[b]] for b in ("a", "m_eps", "m_half", "k_eps", "k_half"))
    x = x[:, 0]
    xi_e, ze_e = xi_eps[:, 0], zeta_eps[:, 0]
    checks = {"[xi_eps,zeta_eps]=-X": float(np.max(np.abs(bracket(alg, xi_e, ze_e) + x)))}
    worst_half = worst_norm = worst_pair = 0.0
    for p in range(frame.m_half):
        xi_p, ze_p = xi_half[:, p], zeta_half[:, p]
        worst_half = max(worst_half, abs(float(bracket(alg, xi_p, ze_p) @ ip @ x) + 0.5))
        b = bracket(alg, xi_e, xi_p)
        worst_norm = max(worst_norm, abs(np.sqrt(b @ ip @ b) - 0.5))
        worst_pair = max(worst_pair, float(np.max(np.abs(
            bracket(alg, xi_e, ze_p) + bracket(alg, ze_e, xi_p)))))
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
        for block in ("k_eps", "k_half"):
            cols = frame.mbar[:, frame.slices()[block]]
            g = cols.T @ frame.ip @ cols
            assert np.max(np.abs(g - np.eye(cols.shape[1]))) < 1e-9


def test_hp1_and_s4_agree_on_invariants(frames):
    """sp(2) = so(5): the C_2 root model of HP^1 and the matrix model of S^4 agree.

    The two frames share no construction code past the bracket tensor, so the
    frame-independent invariants below check the root model's signs.
    """
    tol = 1e-12
    hp1, s4 = frames["hp1"], frames["sphere4"]

    def same_set(a, b):
        return (np.max(np.min(np.abs(a[:, None] - b[None]), axis=1)) < tol
                and np.max(np.min(np.abs(b[:, None] - a[None]), axis=1)) < tol)

    for frame in (hp1, s4):
        assert same_set(m_spectrum(frame), m_spectrum(s4))
        assert same_set(k_spectrum(frame), k_spectrum(s4))
        sv = np.linalg.svd(frame.cbar.reshape(frame.dim_mbar, -1), compute_uv=False)
        assert sv == pytest.approx([np.sqrt(6.0)] + [np.sqrt(2.0)] * 6, abs=tol)
        st = contact.standard_structure(frame, 0.5)
        nijenhuis = contact.classify(st).residuals["nijenhuis"]
        assert nijenhuis == pytest.approx(3.0, abs=tol)
        scan = contact.uniqueness_scan(frame, 1.0)
        assert scan["min_failing_residual"] == pytest.approx(0.17677669529663684, abs=tol)


@pytest.mark.parametrize("fam,n", [("sphere", 1), ("cp", 1), ("hp", 0), ("rp", 0)])
def test_invalid_space_parameters(fam, n):
    with pytest.raises(ModelError):
        SpaceId(FAMILY[fam], n)


@pytest.mark.parametrize("family,n", [("cp", 2), ("xx", 2), (None, 2),
                                      (Family.SPHERE, 2.5), (Family.SPHERE, "2"),
                                      (Family.SPHERE, None)])
def test_space_id_rejects_a_family_or_n_of_the_wrong_type(family, n):
    with pytest.raises(ModelError):
        SpaceId(family, n)


def test_space_id_stores_n_as_an_int():
    """numpy integers and bools pass through operator.index, so labels and cache keys agree."""
    for n, want in ((np.int64(3), 3), (True, 1)):
        space = SpaceId(Family.QUATERNIONIC_PROJECTIVE, n)
        assert type(space.n) is int and space.n == want
        assert space == SpaceId(Family.QUATERNIONIC_PROJECTIVE, want)
        assert space.label() == f"hp{want}"


def test_cayley_plane_ignores_n():
    """There is one Cayley plane, so any n names CaP2 and shares its cached frame."""
    assert SpaceId(Family.CAYLEY_PLANE, 7) == SpaceId(Family.CAYLEY_PLANE, -4) \
        == SpaceId(Family.CAYLEY_PLANE)
    assert SpaceId(Family.CAYLEY_PLANE, 7).n == 2
    assert crossmodel.build_frame(SpaceId(Family.CAYLEY_PLANE, 7)) \
        is crossmodel.build_frame(SpaceId(Family.CAYLEY_PLANE))


def test_signs_decide_k_and_m():
    """On so(3) swapping the signs of A13 (m) and A23 (k) is another automorphism;
    the pair then has m = span{A12, A23}: X and xi lie in it, and zeta in k."""
    pair = crossmodel.build_pair(SpaceId(Family.SPHERE, 2))
    assert pair.alg.dense()[0, 1, 2] == -1.0  # [A12, A13] = -A23: the basis is A12, A13, A23
    swapped = pair.signs * np.array([1.0, -1.0, -1.0])
    frame = crossmodel.restricted_frame(dataclasses.replace(pair, signs=swapped))
    x_and_xi = frame.mbar[:, :1 + frame.m_eps + frame.m_half]
    assert np.all(x_and_xi[swapped > 0] == 0.0)
    assert np.all(frame.mbar[swapped < 0, 1 + frame.m_eps + frame.m_half:] == 0.0)
