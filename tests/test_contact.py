"""Almost contact metric structures: axioms, classification, main theorem."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from oracles import CAYLEY_PARAMS, nijenhuis_tensor

from crosscontact import contact, crossmodel, fixtures, homgeo, suites
from crosscontact.compactform import DEFAULT_TOL
from crosscontact.contact import ContactError
from crosscontact.crossmodel import Family, SpaceId
from crosscontact.homgeo import GeometryError, MetricParams
from crosscontact.report import VerificationReport

RADII = (0.5, 1.0, 2.0)
KAPPAS = (0.5, 1.0, 3.0)


def basis_vec(frame, i):
    v = np.zeros(frame.dim_mbar)
    v[i] = 1.0
    return v


def bracket_mbar(frame, u, v):
    """mbar-projection of the bracket of two frame-coordinate vectors."""
    return np.einsum("i,j,ijk->k", u, v, frame.cbar)


def all_structures(frame):
    out = [contact.standard_structure(frame, r) for r in RADII]
    out += [contact.rectified_structure(frame, r) for r in RADII]
    out += [contact.theorem_main_structure(frame, k) for k in KAPPAS]
    return out


def test_axiom_suite_on_constructed_structures(frames):
    """phi^2, eta/char pairing and metric compatibility hold on every structure."""
    for frame in frames.values():
        for st in all_structures(frame):
            res = contact.classify(st).residuals
            assert res["axioms"] < 1e-9, res


def test_d_eta_values(cp2):
    """d eta pairs each xi with its zeta at half the restricted-root value."""
    st = contact.standard_structure(cp2, 1.7)  # a(r) = 1: unscaled form
    s = cp2.slices()
    x = basis_vec(cp2, 0)
    xi_e, ze_e = basis_vec(cp2, s["m_eps"].start), basis_vec(cp2, s["k_eps"].start)
    xi_h, ze_h = basis_vec(cp2, s["m_half"].start), basis_vec(cp2, s["k_half"].start)
    d_eta = st.eta[0] * contact.d_eta_matrix(cp2)
    assert xi_e @ d_eta @ ze_e == pytest.approx(0.5)
    assert xi_h @ d_eta @ ze_h == pytest.approx(0.25)
    for u in (xi_e, ze_e, xi_h, ze_h):
        assert x @ d_eta @ u == pytest.approx(0.0)
        assert u @ d_eta @ u == pytest.approx(0.0)


def test_fundamental_two_form(cp2):
    """Phi(xi, zeta) = q_l a_l and Phi is antisymmetric."""
    r = 2.0
    st = contact.standard_structure(cp2, r)
    s = cp2.slices()
    xi_e, ze_e = basis_vec(cp2, s["m_eps"].start), basis_vec(cp2, s["k_eps"].start)
    xi_h, ze_h = basis_vec(cp2, s["m_half"].start), basis_vec(cp2, s["k_half"].start)
    two_form = st.metric.gram @ st.phi  # Phi(u, v) = g(u, phi v)
    assert xi_e @ two_form @ ze_e == pytest.approx(r * 1.0)
    assert xi_h @ two_form @ ze_h == pytest.approx(r / 2)
    assert basis_vec(cp2, 0) @ two_form @ xi_e == 0.0
    rng = np.random.default_rng(2)
    u, v = rng.normal(size=(2, cp2.dim_mbar))
    assert u @ two_form @ v == pytest.approx(-(v @ two_form @ u))


def test_classify_flags_monotonic(frames):
    """sasakian implies k_contact implies contact_metric on every report."""
    for frame in frames.values():
        for st in all_structures(frame):
            f = contact.classify(st).flags
            assert (not f["sasakian"]) or f["k_contact"]
            assert (not f["k_contact"]) or f["contact_metric"]
            assert (not f["contact_metric"]) or f["almost_contact_metric"]


def test_standard_structure_contact_only_at_half(cp2, sphere4):
    for frame in (cp2, sphere4):
        for r in (0.25, 0.5, 1.0, 2.0):
            cls = contact.classify(contact.standard_structure(frame, r))
            assert cls.flags["contact_metric"] == (r == 0.5)


def test_standard_at_half_not_k_contact(cp2):
    cls = contact.classify(contact.standard_structure(cp2, 0.5))
    assert cls.flags["contact_metric"] and not cls.flags["k_contact"]


def test_tashiro_suite(frames):
    radii = (0.25, 0.5, 1.0, 2.0)
    for frame in frames.values():
        rep = VerificationReport(config={})
        suites.suite_tashiro(frame.space, 1.0, 1.0, 5, rep, DEFAULT_TOL)
        assert rep.passed and len(rep.checks) == len(radii), rep.to_text()
        rect = dict(zip(radii, (cls.flags for cls in contact.classify_all(
            [contact.rectified_structure(frame, r) for r in radii]))))
        assert all(flags["contact_metric"] for flags in rect.values())
        expect_k = frame.m_half == 0
        assert rect[1.0]["k_contact"] == expect_k
        assert rect[1.0]["sasakian"] == expect_k
        assert not rect[2.0]["k_contact"]


def test_almost_contact_negative_control(frames):
    """phi scaled by 1 + 1e-3 misses phi^2 = -1 + char eta by about 2e-3, so the
    theorem structure loses every flag, almost_contact_metric first."""
    for frame in frames.values():
        st = contact.theorem_main_structure(frame, 1.0)
        assert all(contact.classify(st).flags.values())
        cls = contact.classify(dataclasses.replace(st, phi=st.phi * (1 + 1e-3)))
        assert cls.residuals["phi_squared"] == pytest.approx(2e-3, rel=1e-3)
        assert not any(cls.flags.values()), cls.flags


def test_k_contact_not_sasakian_negative_control(cp2):
    """cbar scaled by 1.001 on the block [half, half, eps] (xi and zeta alike)
    leaves index 0, and so d eta and ad_X, as they were: the theorem structure
    stays K-contact with exact zeros, and only nabla phi sees the change."""
    s = cp2.slices()
    half, eps = (np.r_[s[f"m_{b}"], s[f"k_{b}"]] for b in ("half", "eps"))
    cbar = cp2.cbar.copy()
    cbar[np.ix_(half, half, eps)] *= 1.001
    frame = dataclasses.replace(cp2, cbar=cbar)
    assert np.array_equal(frame.cbar[0], cp2.cbar[0])
    assert np.array_equal(frame.cbar[:, :, 0], cp2.cbar[:, :, 0])
    cls = contact.classify(contact.theorem_main_structure(frame, 1.0))
    assert cls.flags == {"almost_contact_metric": True, "contact_metric": True,
                         "k_contact": True, "sasakian": False}
    assert cls.residuals["axioms"] == cls.residuals["contact"] \
        == cls.residuals["killing"] == 0.0
    assert cls.residuals["nabla_phi"] == pytest.approx(1e-3, rel=1e-9)
    assert cls.residuals["nijenhuis"] < 1e-15

def test_theorem_structure_is_sasakian(frames):
    for frame in frames.values():
        for k in KAPPAS:
            cls = contact.classify(contact.theorem_main_structure(frame, k))
            assert cls.flags["sasakian"]
            assert cls.residuals["nijenhuis"] < 1e-8
            assert cls.residuals["nabla_phi"] < 1e-8


def test_theorem_params_instantiation(frames):
    st = contact.theorem_main_structure(frames["cp3"], 3.0)
    params = MetricParams(3.0, 1.5, 0.75, 1.5, 0.75)
    assert np.array_equal(st.metric.gram, homgeo.metric_from_params(frames["cp3"], params).gram)
    assert st.char[0] == pytest.approx(1.0 / 3.0)
    assert st.eta[0] == pytest.approx(3.0)


def test_phi_commutes_with_ad_x(frames):
    """For the q = 1 structure, phi acts as ad_X scaled per eigenspace."""
    for frame in frames.values():
        st = contact.theorem_main_structure(frame, 1.0)
        ad_x = frame.cbar[0].T  # ad_X in frame coordinates (column j -> [X, e_j])
        s = frame.slices()
        comm = ad_x @ st.phi - st.phi @ ad_x
        assert np.max(np.abs(comm)) < 1e-12
        for block, scale in (("eps", 1.0), ("half", 2.0)):
            for sl in (s[f"m_{block}"], s[f"k_{block}"]):
                for j in range(sl.start, sl.stop):
                    assert np.allclose(st.phi[:, j], scale * ad_x[:, j])


def test_eps_block_bracket_identities(cp2):
    """On the eps blocks: [phi u, v] + [u, phi v] = 0 and [phi u, phi v] = [u, v]."""
    st = contact.theorem_main_structure(cp2, 1.0)
    s = cp2.slices()
    idx = list(range(s["m_eps"].start, s["m_eps"].stop)) \
        + list(range(s["k_eps"].start, s["k_eps"].stop))
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = np.zeros(cp2.dim_mbar)
        v = np.zeros(cp2.dim_mbar)
        u[idx] = rng.normal(size=len(idx))
        v[idx] = rng.normal(size=len(idx))
        pu, pv = st.phi @ u, st.phi @ v
        assert np.max(np.abs(bracket_mbar(cp2, pu, v) + bracket_mbar(cp2, u, pv))) < 1e-9
        assert np.max(np.abs(bracket_mbar(cp2, pu, pv) - bracket_mbar(cp2, u, v))) < 1e-9


def test_half_block_bracket_identities(cp2):
    """On the eps/2 blocks the eps-part of brackets flips sign under phi."""
    st = contact.theorem_main_structure(cp2, 1.0)
    s = cp2.slices()
    idx = list(range(s["m_half"].start, s["m_half"].stop)) \
        + list(range(s["k_half"].start, s["k_half"].stop))
    eps = list(range(s["m_eps"].start, s["m_eps"].stop)) \
        + list(range(s["k_eps"].start, s["k_eps"].stop))
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = np.zeros(cp2.dim_mbar)
        v = np.zeros(cp2.dim_mbar)
        u[idx] = rng.normal(size=len(idx))
        v[idx] = rng.normal(size=len(idx))
        pu, pv = st.phi @ u, st.phi @ v
        lhs = bracket_mbar(cp2, u, v)[eps]
        assert np.max(np.abs(lhs + bracket_mbar(cp2, pu, pv)[eps])) < 1e-9
        assert np.max(np.abs(bracket_mbar(cp2, pu, v)[eps]
                             - bracket_mbar(cp2, u, pv)[eps])) < 1e-9


def test_mixed_block_bracket_identity(cp2):
    """[phi u, phi v] = [u, v] for u in the eps blocks and v in m_{eps/2}."""
    st = contact.theorem_main_structure(cp2, 1.0)
    s = cp2.slices()
    eps = list(range(s["m_eps"].start, s["m_eps"].stop)) \
        + list(range(s["k_eps"].start, s["k_eps"].stop))
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = np.zeros(cp2.dim_mbar)
        v = np.zeros(cp2.dim_mbar)
        u[eps] = rng.normal(size=len(eps))
        v[s["m_half"]] = rng.normal(size=cp2.m_half)
        assert np.max(np.abs(bracket_mbar(cp2, st.phi @ u, st.phi @ v)
                             - bracket_mbar(cp2, u, v))) < 1e-9


def test_nijenhuis_vanishes_on_char(frames):
    for frame in frames.values():
        n = nijenhuis_tensor(contact.theorem_main_structure(frame, 2.0))
        for j in range(frame.dim_mbar):
            assert np.max(np.abs(n[0, j])) < 1e-9
        u = np.ones(frame.dim_mbar)
        assert np.max(np.abs(np.einsum("i,j,ijk->k", u, u, n))) < 1e-12


def test_standard_structure_nijenhuis_fixture(cp2):
    """Frozen value: the standard structure at r = 1/2 is not normal. classify's
    residual equals the largest entry of the dense tensor bit for bit."""
    st = contact.standard_structure(cp2, 0.5)
    val = contact.classify(st).residuals["nijenhuis"]
    frozen = fixtures.load_fixtures()["cp2_standard_r0.5_nijenhuis_max"]
    assert val > 0.1
    assert val == pytest.approx(frozen, rel=1e-9)
    assert val == np.max(np.abs(nijenhuis_tensor(st)))


def test_uniqueness_scan(frames):
    fx = fixtures.load_fixtures()
    for label in ("cp2", "hp1"):
        scan = contact.uniqueness_scan(frames[label], 1.0, 5)
        assert scan["unique"]
        assert scan["n_passed"] == 1 and scan["theorem_point_passed"]
        assert scan["min_failing_residual"] > 1e-3
        key = f"{label}_uniqueness_r1_kappa1_grid5_min_failing_residual"
        assert scan["min_failing_residual"] == pytest.approx(fx[key], rel=1e-9)


def test_uniqueness_scan_sphere_axes(sphere4):
    """Constant-curvature spaces scan a two-parameter grid only."""
    scan = contact.uniqueness_scan(sphere4, 1.0, 3)
    assert scan["axes"] == ["a_eps", "b_eps"]
    assert scan["n_points"] == 9 and scan["unique"]


def test_sphere_metric_coincidence(sphere4):
    """At kappa = 1/2 the theorem metric is a quarter of the standard one."""
    g_main = contact.theorem_main_structure(sphere4, 0.5).metric.gram
    g_std = contact.standard_structure(sphere4, 1.0).metric.gram
    assert np.max(np.abs(g_main - 0.25 * g_std)) < 1e-12


def test_phi_q_reproduces_standard(cp2):
    r = 1.3
    std = contact.standard_structure(cp2, r)
    params = MetricParams(1, 1, 1, r * r, r * r / 4)
    other = contact.phi_q_structure(cp2, r, r / 2, params)
    assert np.array_equal(std.phi, other.phi)
    assert np.array_equal(std.metric.gram, other.metric.gram)


def test_induced_mode_rejects_mismatched_params(cp2):
    params = MetricParams(1, 1, 1, 3.0, 1.0)  # b_eps != q_eps^2 a_eps
    with pytest.raises(ContactError):
        contact.phi_q_structure(cp2, 1.0, 0.5, params)


@pytest.mark.parametrize(
    "space", suites.REPRESENTATIVE_SPACES + (SpaceId(Family.QUATERNIONIC_PROJECTIVE, 1),),
    ids=SpaceId.label)
def test_k_contact_negative_control(space):
    """Contact structures with q != 1 fail the Killing test; q = 1 is Sasakian.

    With a_l = a lambda_l / (2 r q) the structure is contact for every q, and
    b_l = q^2 a_l equals a_l only at q = 1.
    """
    frame = crossmodel.build_frame(space)
    a = 1.3
    for r in RADII:
        le, lh = contact.lambda_r(r)
        for q in (0.5, 1.0, 2.0):
            ae, ah = a * le / (2 * r * q), a * lh / (2 * r * q)
            params = MetricParams(a, ae, ah, q * q * ae, q * q * ah)
            cls = contact.classify(contact.phi_q_structure(frame, q, q, params))
            if q == 1.0:
                assert cls.flags["sasakian"], (r, cls.residuals)
            else:
                assert cls.flags["contact_metric"], (r, q, cls.residuals)
                assert not cls.flags["k_contact"], (r, q)
                assert cls.residuals["killing"] > 1e-3, (r, q)


def test_invalid_inputs(cp2):
    with pytest.raises(ContactError):
        contact.standard_structure(cp2, -1.0)
    with pytest.raises(ContactError):
        contact.theorem_main_structure(cp2, 0.0)
    with pytest.raises(ContactError):
        contact.uniqueness_scan(cp2, 1.0, grid_size=2)
    with pytest.raises(ContactError):
        contact.uniqueness_scan(cp2, -1.0)


@pytest.mark.parametrize("r, kappa", [(0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                      (1.0, 0.0), (1.0, -1.0), (1.0, np.nan), (1.0, np.inf)])
def test_radius_and_kappa_must_be_positive_finite(cp2, r, kappa):
    """r = 0 used to divide by zero, and kappa = -1 to report a unique scan, a
    NaN or inf kappa to give a non-unique scan with a NaN margin or a Sasakian
    verdict. Only the standard and rectified structures read r; the theorem
    structure and the scan read kappa alone, and MetricParams rejects a bad a."""
    if kappa == 1.0:
        for build in (contact.standard_structure, contact.rectified_structure):
            with pytest.raises(ContactError, match="positive finite"):
                build(cp2, r)
    else:
        with pytest.raises(GeometryError, match="positive finite"):
            MetricParams(kappa, 1, 1, 1, 1)
        with pytest.raises(ContactError, match="positive finite"):
            contact.uniqueness_scan(cp2, kappa)
        with pytest.raises(ContactError, match="positive finite"):
            contact.classify(contact.theorem_main_structure(cp2, kappa))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", ["q_eps", "q_half"])
def test_phi_matrix_q_must_be_positive_finite(cp2, slot, bad):
    """A NaN compares False with 0, so q <= 0 let it through into phi."""
    q = {"q_eps": 1.0, "q_half": 1.0, slot: bad}
    with pytest.raises(ContactError, match=f"{slot} must be a positive finite"):
        contact.phi_matrix(cp2, **q)


PAIRING_SPACES = suites.TABLE1_SPACES + [
    SpaceId(Family.SPHERE, 10), SpaceId(Family.COMPLEX_PROJECTIVE, 6),
    SpaceId(Family.QUATERNIONIC_PROJECTIVE, 4)]


@pytest.mark.parametrize("space", PAIRING_SPACES, ids=SpaceId.label)
def test_d_eta_and_ad_x_live_on_the_pairing(space):
    """The nonzeros of d eta and ad_X are exactly the pairs (xi_k, zeta_k), (zeta_k, xi_k)."""
    frame = crossmodel.build_frame(space)
    p = frame.partner()
    assert np.array_equal(p[p], np.arange(frame.dim_mbar)) and p[0] == 0
    pairs = {(i, int(p[i])) for i in range(1, frame.dim_mbar)}
    for m in (contact.d_eta_matrix(frame), frame.cbar[0]):
        assert set(zip(*np.nonzero(m))) == pairs


# cbar[0] is ad_X, and d eta = -cbar[:, :, 0] / 2: each entry puts 1e-3 at (1, 2)
@pytest.mark.parametrize("entry, value", [((0, 1, 2), 1e-3), ((1, 2, 0), -2e-3)],
                         ids=["ad_x", "d_eta"])
def test_off_pairing_entry_rejected(cp2, entry, value):
    """One entry of 1e-3 in ad_X or d eta off the pairing fails the scan at every
    point, the theorem point among them: every residual is at least 1e-3."""
    assert cp2.partner()[1] != 2
    cbar = cp2.cbar.copy()
    cbar[entry] = value
    scan = contact.uniqueness_scan(dataclasses.replace(cp2, cbar=cbar), 1.0)
    assert not scan["theorem_point_passed"] and not scan["unique"]
    assert scan["n_passed"] == 0 and scan["min_failing_residual"] >= 1e-3


def test_off_pairing_nan_rejected(cp2, monkeypatch):
    """A NaN in ad_X off the pairing, with d eta finite, fails the scan at every
    point with a NaN residual: folding d eta and ad_X keeps the NaN."""
    cbar = cp2.cbar.copy()
    cbar[0, 1, 2] = np.nan
    frame = dataclasses.replace(cp2, cbar=cbar)
    assert np.all(np.isfinite(contact.d_eta_matrix(frame)))
    scan = contact.uniqueness_scan(frame, 1.0)
    assert not scan["theorem_point_passed"] and not scan["unique"]
    assert scan["n_passed"] == 0 and np.isnan(scan["min_failing_residual"])
    monkeypatch.setattr(crossmodel, "build_frame", lambda space: frame)
    rep = VerificationReport(config={})
    suites.suite_uniqueness(cp2.space, 1.0, 1.0, 5, rep, DEFAULT_TOL)
    (check,) = rep.checks
    assert not check.passed and "min failing residual nan" in check.details


def test_uniqueness_scan_peak_memory(frames):
    """The CaP2 scan holds per-metric vectors, not 625 dim_mbar^2 matrices (19.5 MB)."""
    frame = frames["CaP2"]
    tracemalloc.start()
    try:
        contact.uniqueness_scan(frame, 1.0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_structure_takes_a_from_its_params(cp2):
    """phi_q_structure reads a once, from params: eta = a<X,.> and char = X/a."""
    names = list(inspect.signature(contact.phi_q_structure).parameters)
    assert names == ["frame", "q_eps", "q_half", "params", "tol"]
    params = MetricParams(0.9, 0.4, 1.1, 0.6 ** 2 * 0.4, 1.7 ** 2 * 1.1)
    st = contact.phi_q_structure(cp2, 0.6, 1.7, params)
    assert st.eta[0] == params.a and st.char[0] == 1.0 / params.a


def test_signatures_take_only_what_they_read():
    """r enters only the structures built from lambda(r); the record holds no r."""
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(contact.theorem_params) == ["kappa"]
    assert names(contact.theorem_main_structure) == ["frame", "kappa"]
    assert names(contact.uniqueness_scan) == ["frame", "kappa", "grid_size", "tol"]
    assert names(contact.standard_structure) == names(contact.rectified_structure) \
        == ["frame", "r"]
    assert [f.name for f in dataclasses.fields(contact.AlmostContactStructure)] == \
        ["frame", "phi", "char", "eta", "metric"]


@pytest.mark.parametrize("label", ["sphere4", "cp2", "hp1", "CaP2"])
def test_scan_center_is_the_theorem_structure(frames, label, monkeypatch):
    """The scan's center point has the Gram diagonal of the theorem structure
    bit for bit, at every kappa of the benchmark's cayley pairs."""
    frame = frames[label]
    kernel = contact._k_contact_candidate_residuals
    diags = []

    def capture(frame, kappa, d):
        diags.append(d)
        return kernel(frame, kappa, d)

    monkeypatch.setattr(contact, "_k_contact_candidate_residuals", capture)
    for _, kappa in CAYLEY_PARAMS:
        for grid in (3, 5, 6):
            scan = contact.uniqueness_scan(frame, kappa, grid)
            shape = (grid,) * len(scan["axes"])
            center = np.ravel_multi_index(((grid - 1) // 2,) * len(shape), shape)
            want = np.diagonal(contact.theorem_main_structure(frame, kappa).metric.gram)
            assert np.array_equal(diags.pop()[center], want), (kappa, grid)
