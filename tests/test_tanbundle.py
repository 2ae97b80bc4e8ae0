"""Almost Hermitian structures on the punctured tangent bundle and slice induction."""

import numpy as np
import pytest

from crosscontact import contact, tanbundle
from crosscontact.contact import ContactError
from crosscontact.homgeo import GeometryError, MetricParams
from crosscontact.tanbundle import BundleError

identity = lambda t: t  # noqa: E731


def constant_metric(a, b, a_eps, a_half, b_eps, b_half):
    """The radial metric with these values at every t; MetricParams checks the
    five values on G/H when it is called."""
    return lambda t: (MetricParams(a, a_eps, a_half, b_eps, b_half), b)


def test_jq_squares_to_minus_identity(frames):
    for frame in frames.values():
        for q in (identity, lambda t: 1.0, lambda t: np.sqrt(t)):
            for t in (0.3, 1.0, 2.5):
                j = tanbundle.jq_matrix(frame, q, t)
                n = frame.dim_mbar + 1
                assert np.max(np.abs(j @ j + np.eye(n))) < 1e-12


def test_jq_block_action(cp2):
    """With q = id at t = 1: xi_eps -> -zeta_eps and xi_half -> -2 zeta_half."""
    s = cp2.slices()
    n = cp2.dim_mbar
    j = tanbundle.jq_matrix(cp2, identity, 1.0)
    xi_e = np.zeros(n + 1)
    xi_e[s["m_eps"].start] = 1.0
    out = j @ xi_e
    want = np.zeros(n + 1)
    want[s["k_eps"].start] = -1.0
    assert np.allclose(out, want)
    xi_h = np.zeros(n + 1)
    xi_h[s["m_half"].start] = 1.0
    out = j @ xi_h
    want = np.zeros(n + 1)
    want[s["k_half"].start] = -2.0
    assert np.allclose(out, want)
    # X and the radial direction swap with a sign
    assert j[n, 0] == 1.0 and j[0, n] == -1.0


def test_sasaki_metric_with_identity_q_is_hermitian(frames):
    metric = tanbundle.sasaki_metric
    for frame in frames.values():
        for t in (0.25, 1.0, 3.0):
            assert tanbundle.is_hermitian(metric, identity, t)
            g = tanbundle.ambient_metric(frame, metric, t)
            j = tanbundle.jq_matrix(frame, identity, t)
            assert np.max(np.abs(j.T @ g @ j - g)) < 1e-12


def test_gf_family_with_constant_q_is_hermitian(cp2):
    for f in (lambda t: 1.0, lambda t: t, lambda t: 2.0 / (1.0 + t * t)):
        metric = tanbundle.gf_metric(f)
        for t in (0.5, 1.0, 2.0):
            assert tanbundle.is_hermitian(metric, lambda t: 1.0, t)
            g = tanbundle.ambient_metric(cp2, metric, t)
            j = tanbundle.jq_matrix(cp2, lambda t: 1.0, t)
            assert np.max(np.abs(j.T @ g @ j - g)) < 1e-12


def test_hermitian_biconditional_randomized(cp2):
    """is_hermitian agrees with J^T G J = G on random constant metrics."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        vals = dict(zip(("a", "b", "a_eps", "a_half", "b_eps", "b_half"),
                        np.exp(rng.uniform(-1.5, 1.5, 6))))
        if rng.random() < 0.5:  # force the Hermitian relations half the time
            vals["b"] = vals["a"]
            vals["b_eps"] = vals["a_eps"]
            vals["b_half"] = vals["a_half"] / 4.0
        metric = constant_metric(**vals)
        q = lambda t: t  # q_eps = 1, q_half = 1/2 at t = 1  # noqa: E731
        g = tanbundle.ambient_metric(cp2, metric, 1.0)
        j = tanbundle.jq_matrix(cp2, q, 1.0)
        isometry = np.max(np.abs(j.T @ g @ j - g)) < 1e-9
        assert tanbundle.is_hermitian(metric, q, 1.0) == isometry


@pytest.mark.parametrize("q,verdict", [
    (identity, "yes"),
    (lambda t: 1.0, "no"),
    (lambda t: np.sqrt(t), "no"),
    (lambda t: t * t, "no"),
    (lambda t: 3.0 * t, "yes"),
    (lambda t: t * (1.0 + np.sin(1.0 / t)), "inconclusive"),
])
def test_extension_admissible(q, verdict):
    assert tanbundle.extension_admissible(q) == verdict


@pytest.mark.parametrize("q", [lambda t: -1.0, lambda t: np.nan, lambda t: -t],
                         ids=["minus_one", "nan", "minus_t"])
def test_extension_admissible_needs_positive_finite_q(q):
    """q = -1 answered "no", and q = NaN and q = -t "inconclusive"."""
    with pytest.raises(BundleError, match="positive and finite"):
        tanbundle.extension_admissible(q)


def test_radial_families_keep_their_closed_forms():
    """sasaki_metric and gf_metric read contact.standard_params and
    contact.theorem_params, bit for bit the closed forms (1, 1, 1, t^2, t^2/4)
    with b = 1, and f (1, 1/2, 1/4, 1/2, 1/4) with b = f, in the order a, a_eps,
    a_half, b_eps, b_half of MetricParams."""
    f = lambda t: 2.0 / (1.0 + t * t)  # noqa: E731
    gf = tanbundle.gf_metric(f)
    for t in np.geomspace(1e-6, 1e6, 301):
        t = float(t)
        params, b = tanbundle.sasaki_metric(t)
        assert (params.as_tuple(), b) == ((1.0, 1.0, 1.0, t * t, t * t / 4.0), 1.0)
        params, b = gf(t)
        assert (params.as_tuple(), b) == ((f(t), f(t) / 2.0, f(t) / 4.0, f(t) / 2.0,
                                           f(t) / 4.0), f(t))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_gf_family_needs_positive_finite_f(cp2, bad):
    """A bad f(t) raises BundleError, as every other bad value of the slice layer."""
    metric = tanbundle.gf_metric(lambda t: bad)
    with pytest.raises(BundleError, match="f must be a positive finite number"):
        tanbundle.ambient_metric(cp2, metric, 1.0)
    with pytest.raises(BundleError, match="f must be a positive finite number"):
        tanbundle.is_hermitian(metric, lambda t: 1.0, 1.0)
    with pytest.raises(BundleError, match="f must be a positive finite number"):
        tanbundle.induce_slice_structure(cp2, metric, lambda t: 1.0, 1.0)


def test_induced_slice_matches_standard_structure(cp2):
    """The Sasaki pair induces the standard structure on every slice."""
    for r in (0.25, 0.5, 1.0, 2.0):
        got = tanbundle.induce_slice_structure(cp2, tanbundle.sasaki_metric, identity, r)
        std = contact.standard_structure(cp2, r)
        assert np.array_equal(got.phi, std.phi)
        assert np.array_equal(got.metric.gram, std.metric.gram)
        assert np.array_equal(got.eta, std.eta)


def test_induced_slice_matches_theorem_structure(frames):
    """g^f with q = 1 induces the theorem structure with kappa = f(r)."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        r = float(np.exp(rng.uniform(-1.0, 1.0)))
        kappa = float(np.exp(rng.uniform(-1.0, 1.0)))
        metric = tanbundle.gf_metric(lambda t, k=kappa: k)
        for label in ("cp2", "hp1"):
            frame = frames[label]
            got = tanbundle.induce_slice_structure(frame, metric, lambda t: 1.0, r)
            want = contact.theorem_main_structure(frame, kappa)
            for name in ("phi", "char", "eta"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(got.metric.gram, want.metric.gram)


def test_induced_slices_are_sasakian(frames):
    for frame in frames.values():
        metric = tanbundle.gf_metric(lambda t: 2.0 / (1.0 + t * t))
        st = tanbundle.induce_slice_structure(frame, metric, lambda t: 1.0, 1.5)
        assert contact.classify(st).flags["sasakian"]


@pytest.mark.parametrize("vals, hermitian", [
    # b_eps - a_eps = -5e-8: within 1e-9 of a = 100, not of b_eps = 1
    ({"a": 100.0, "b": 100.0, "a_eps": 1 + 5e-8, "a_half": 1.0, "b_eps": 1.0,
      "b_half": 1.0}, False),
    # b_eps - a_eps = 5e-9: within 1e-9 of b_eps = 1000, not of a = 1
    ({"a": 1.0, "b": 1.0, "a_eps": 1000.0, "a_half": 1.0, "b_eps": 1000.0 * (1 + 5e-12),
      "b_half": 1.0}, True),
], ids=["large_a", "large_b_eps"])
def test_one_hermitian_pairing_rule(cp2, vals, hermitian):
    """is_hermitian and the slice induction state b_l = q_l^2 a_l at one scale,
    b_l: with q = 1 at t = 1 they agree on both sides of the rule. The induction
    leaves the block pairing to contact.phi_q_structure (ContactError) and
    checks a = b itself (BundleError)."""
    metric = constant_metric(**vals)
    assert tanbundle.is_hermitian(metric, lambda t: 1.0, 1.0) == hermitian
    if hermitian:
        st = tanbundle.induce_slice_structure(cp2, metric, lambda t: 1.0, 1.0)
        assert st.eta[0] == vals["a"]
    else:
        with pytest.raises(ContactError, match="Hermitian pairing"):
            tanbundle.induce_slice_structure(cp2, metric, lambda t: 1.0, 1.0)
    off_b = constant_metric(**dict(vals, b=vals["a"] * (1 + 1e-6)))
    assert not tanbundle.is_hermitian(off_b, lambda t: 1.0, 1.0)
    with pytest.raises(BundleError, match="not Hermitian"):
        tanbundle.induce_slice_structure(cp2, off_b, lambda t: 1.0, 1.0)


def test_slice_induction_evaluates_the_pair_once(cp2, monkeypatch):
    """One induction calls the metric once, f once and q twice (at r and r/2),
    and checks the block pairing once, in contact.phi_q_structure."""
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(contact, "hermitian_pairing",
                        counted("pairing", contact.hermitian_pairing))
    metric = counted("metric", tanbundle.gf_metric(counted("f", lambda t: 1.5)))
    tanbundle.induce_slice_structure(cp2, metric, counted("q", lambda t: 1.0), 0.8)
    assert sorted(calls) == ["f", "metric", "pairing", "q", "q"]


def test_non_hermitian_pair_rejected(cp2):
    """The Sasaki metric with q = 1 has b_half = 1/4 against q_half^2 a_half = 1."""
    with pytest.raises(ContactError, match="Hermitian pairing"):
        tanbundle.induce_slice_structure(cp2, tanbundle.sasaki_metric, lambda t: 1.0, 1.0)


def test_invalid_inputs(cp2):
    with pytest.raises(BundleError):
        tanbundle.q_values(identity, 0.0)
    with pytest.raises(BundleError):
        tanbundle.jq_matrix(cp2, lambda t: -1.0, 1.0)
    with pytest.raises(BundleError):
        tanbundle.ambient_metric(cp2, tanbundle.sasaki_metric, -2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("slot", ["eps", "half", "both"])
def test_jq_q_must_be_positive_finite(cp2, slot, bad):
    """q at t (the eps slot) or at t/2 (the half slot) must be positive and finite,
    wherever it is sampled: min(qe, qh) <= 0 let a NaN through into J, and
    is_hermitian, which reads only q^2, took q = -1 for q = 1."""
    t = 1.0
    at = {"eps": (t,), "half": (t / 2.0,), "both": (t, t / 2.0)}[slot]
    q = lambda s: bad if s in at else 1.0  # noqa: E731
    metric = tanbundle.gf_metric(lambda s: 1.5)
    with pytest.raises(BundleError, match="positive and finite"):
        tanbundle.jq_matrix(cp2, q, t)
    with pytest.raises(BundleError, match="positive and finite"):
        tanbundle.is_hermitian(metric, q, t)
    with pytest.raises(BundleError, match="positive and finite"):
        tanbundle.induce_slice_structure(cp2, metric, q, t)


@pytest.mark.parametrize("t", [np.nan, np.inf, 0.0, -1.0])
def test_radial_coordinate_must_be_positive_finite(cp2, t):
    """t <= 0 let a NaN through both, and an inf through to inf Gram entries."""
    with pytest.raises(BundleError, match="positive finite"):
        tanbundle.q_values(identity, t)
    with pytest.raises(BundleError, match="positive finite"):
        tanbundle.ambient_metric(cp2, tanbundle.sasaki_metric, t)


@pytest.mark.parametrize("key, bad", [("a_eps", np.nan), ("b", np.inf),
                                      ("b_half", np.nan), ("a", -np.inf),
                                      ("b_eps", -1.0), ("a_half", np.inf),
                                      ("all", -1.0)])
def test_metric_functions_must_be_positive_finite(cp2, key, bad):
    """Every value of the metric must be a positive finite number: MetricParams
    raises GeometryError on the five on G/H, and the slice layer BundleError on
    b. min(values) <= 0 let a NaN into the Gram matrix and an inf into its
    radial slot, and is_hermitian took a metric of -1 everywhere for a
    Hermitian pair. The other values are the Sasaki metric's at t = 1."""
    vals = {"a": 1.0, "b": 1.0, "a_eps": 1.0, "a_half": 1.0, "b_eps": 1.0, "b_half": 0.25}
    vals.update(dict.fromkeys(vals if key == "all" else (key,), bad))
    metric = constant_metric(**vals)
    error = BundleError if key == "b" else GeometryError
    with pytest.raises(error, match="positive finite"):
        tanbundle.ambient_metric(cp2, metric, 1.0)
    with pytest.raises(error, match="positive finite"):
        tanbundle.is_hermitian(metric, identity, 1.0)
    with pytest.raises(error, match="positive finite"):
        tanbundle.induce_slice_structure(cp2, metric, identity, 1.0)


def test_base_point_pair_consistency(cp2):
    """J^q on (xi, u) pairs at a base point matches the coordinate matrix.

    A tangent pair (xi, u) in m x m at footpoint t X maps to frame-plus-radial
    coordinates by reading xi on the horizontal slots and u on the vertical
    ones; applying J^q there reproduces the pairwise formulas
    (xi, u) -> (-<u,X> X - sum q_l/lambda_l <u,xi_s> xi_s,
                <xi,X> X + sum lambda_l/q_l <xi,xi_s> xi_s).
    """
    t = 0.8
    q = identity
    qe, qh = tanbundle.q_values(q, t)
    lam = {"eps": t, "half": t / 2.0}
    qv = {"eps": qe, "half": qh}
    s = cp2.slices()
    ip = cp2.ip
    x = cp2.mbar[:, s["a"]][:, 0]
    m_cols = [("a", x)] + \
        [("eps", cp2.mbar[:, k]) for k in range(s["m_eps"].start, s["m_eps"].stop)] + \
        [("half", cp2.mbar[:, k]) for k in range(s["m_half"].start, s["m_half"].stop)]
    rng = np.random.default_rng(14)
    for _ in range(10):
        cx = rng.normal(size=len(m_cols))
        cu = rng.normal(size=len(m_cols))
        xi = sum(c * col for c, (_, col) in zip(cx, m_cols))
        u = sum(c * col for c, (_, col) in zip(cu, m_cols))
        vec = np.zeros(cp2.dim_mbar + 1)
        vec[0] = xi @ ip @ x
        vec[s["m_eps"]] = [xi @ ip @ cp2.mbar[:, k]
                           for k in range(s["m_eps"].start, s["m_eps"].stop)]
        vec[s["m_half"]] = [xi @ ip @ cp2.mbar[:, k]
                            for k in range(s["m_half"].start, s["m_half"].stop)]
        vec[s["k_eps"]] = [-(u @ ip @ cp2.mbar[:, k - s["k_eps"].start
                                               + s["m_eps"].start]) / lam["eps"]
                           for k in range(s["k_eps"].start, s["k_eps"].stop)]
        vec[s["k_half"]] = [-(u @ ip @ cp2.mbar[:, k - s["k_half"].start
                                                + s["m_half"].start]) / lam["half"]
                            for k in range(s["k_half"].start, s["k_half"].stop)]
        vec[cp2.dim_mbar] = u @ ip @ x
        out = tanbundle.jq_matrix(cp2, q, t) @ vec
        # expected image pair per the displayed formulas
        xi2 = -(u @ ip @ x) * x
        u2 = (xi @ ip @ x) * x
        for blk, col in m_cols[1:]:
            xi2 = xi2 - qv[blk] / lam[blk] * (u @ ip @ col) * col
            u2 = u2 + lam[blk] / qv[blk] * (xi @ ip @ col) * col
        want = np.zeros(cp2.dim_mbar + 1)
        want[0] = xi2 @ ip @ x
        want[s["m_eps"]] = [xi2 @ ip @ cp2.mbar[:, k]
                            for k in range(s["m_eps"].start, s["m_eps"].stop)]
        want[s["m_half"]] = [xi2 @ ip @ cp2.mbar[:, k]
                             for k in range(s["m_half"].start, s["m_half"].stop)]
        want[s["k_eps"]] = [-(u2 @ ip @ cp2.mbar[:, k - s["k_eps"].start
                                                 + s["m_eps"].start]) / lam["eps"]
                            for k in range(s["k_eps"].start, s["k_eps"].stop)]
        want[s["k_half"]] = [-(u2 @ ip @ cp2.mbar[:, k - s["k_half"].start
                                                  + s["m_half"].start]) / lam["half"]
                             for k in range(s["k_half"].start, s["k_half"].stop)]
        want[cp2.dim_mbar] = u2 @ ip @ x
        assert np.max(np.abs(out - want)) < 1e-12
