"""Invariant metrics, the U-map and its closed forms, geometric predicates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import einsum_u_tensor

from crosscontact import crossmodel, homgeo, suites
from crosscontact.compactform import DEFAULT_TOL
from crosscontact.crossmodel import Family, SpaceId
from crosscontact.homgeo import GeometryError, MetricParams
from crosscontact.report import VerificationReport

positive = st.floats(min_value=0.05, max_value=20.0,
                     allow_nan=False, allow_infinity=False)

BLOCK_ORDER = ("a", "m_eps", "m_half", "k_eps", "k_half")


def basis_vec(frame, i):
    v = np.zeros(frame.dim_mbar)
    v[i] = 1.0
    return v


def bracket_mbar(frame, u, v):
    """mbar-projection of the bracket of two frame-coordinate vectors."""
    return np.einsum("i,j,ijk->k", u, v, frame.cbar)


def alpha_tensor(frame, metric):
    """alpha(e_i, e_j) = [e_i, e_j]_mbar / 2 + U(e_i, e_j), the Levi-Civita bilinear."""
    return 0.5 * frame.cbar + einsum_u_tensor(frame, metric)


def u_map(frame, metric, u, v):
    """U(u, v) for two frame-coordinate vectors."""
    return np.einsum("i,j,ijk->k", u, v, einsum_u_tensor(frame, metric))


def closed_form_u(frame, params, i, j):
    """Independent closed-form oracle for U on frame basis pairs.

    Returns None for the same-block pairs in the eps/2 spaces, which the
    closed forms do not cover.
    """
    a, ae, ah, be, bh = params.as_tuple()
    a2 = a * a
    s = frame.slices()

    def block(k):
        for name in BLOCK_ORDER:
            if s[name].start <= k < s[name].stop:
                return name, k - s[name].start
        raise AssertionError(k)

    (bi, oi), (bj, oj) = block(i), block(j)
    u, v = basis_vec(frame, i), basis_vec(frame, j)
    if BLOCK_ORDER.index(bi) > BLOCK_ORDER.index(bj):
        (bi, oi, u), (bj, oj, v) = (bj, oj, v), (bi, oi, u)
    zero = np.zeros(frame.dim_mbar)

    def br(x, y):
        return bracket_mbar(frame, x, y)

    if bi == bj:
        if bi in ("a", "m_eps", "k_eps"):
            return zero
        return None
    if bi == "a":
        return {"m_eps": (a2 - ae) / (2 * be) * basis_vec(frame, s["k_eps"].start + oj),
                "k_eps": (be - a2) / (2 * ae) * basis_vec(frame, s["m_eps"].start + oj),
                "m_half": (a2 - ah) / (4 * bh) * basis_vec(frame, s["k_half"].start + oj),
                "k_half": (bh - a2) / (4 * ah) * basis_vec(frame, s["m_half"].start + oj),
                }[bj]
    if (bi, bj) == ("m_eps", "k_eps"):
        return (ae - be) / (2 * a2) * basis_vec(frame, 0) if oi == oj else zero
    if (bi, bj) == ("m_eps", "m_half"):
        return (ah - ae) / (2 * bh) * br(u, v)
    if (bi, bj) == ("m_eps", "k_half"):
        return (bh - ae) / (2 * ah) * br(u, v)
    if (bi, bj) == ("m_half", "k_eps"):
        return (be - ah) / (2 * ah) * br(u, v)
    if (bi, bj) == ("k_eps", "k_half"):
        return (bh - be) / (2 * bh) * br(u, v)
    if (bi, bj) == ("m_half", "k_half"):
        w = br(u, v)
        m_eps_part = np.zeros_like(w)
        m_eps_part[s["m_eps"]] = w[s["m_eps"]]
        delta = basis_vec(frame, 0) / (2 * a2) if oi == oj else zero
        return (ah - bh) / 2 * (delta - m_eps_part / ae)
    raise AssertionError((bi, bj))


@pytest.mark.parametrize("label", ["cp3", "hp2"])
def test_u_map_matches_closed_forms(frames, label):
    """The Gram-system U-map agrees with the closed forms on random parameters."""
    frame = frames[label]
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = MetricParams(*np.exp(rng.uniform(-2.3, 2.3, 5)))
        metric = homgeo.metric_from_params(frame, params)
        worst = 0.0
        for i in range(frame.dim_mbar):
            for j in range(i, frame.dim_mbar):
                want = closed_form_u(frame, params, i, j)
                if want is None:
                    continue
                got = u_map(frame, metric, basis_vec(frame, i), basis_vec(frame, j))
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-9


def test_u_defining_identity(cp2):
    """2<U(u,v),w> = <[w,u],v> + <[w,v],u> for random triples (independent recheck)."""
    rng = np.random.default_rng(5)
    params = MetricParams(*np.exp(rng.uniform(-1, 1, 5)))
    metric = homgeo.metric_from_params(cp2, params)
    g = metric.gram
    for _ in range(20):
        u, v, w = rng.normal(size=(3, cp2.dim_mbar))
        lhs = 2.0 * u_map(cp2, metric, u, v) @ g @ w
        rhs = bracket_mbar(cp2, w, u) @ g @ v + bracket_mbar(cp2, w, v) @ g @ u
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_u_map_symmetric(hp2):
    rng = np.random.default_rng(6)
    metric = homgeo.metric_from_params(hp2, MetricParams(2, 0.5, 3, 1, 0.2))
    for _ in range(10):
        u, v = rng.normal(size=(2, hp2.dim_mbar))
        assert np.allclose(u_map(hp2, metric, u, v), u_map(hp2, metric, v, u))


@settings(max_examples=40, deadline=None)
@given(a=positive, ae=positive, ah=positive, be=positive, bh=positive)
def test_killing_criterion_biconditional(cp2, a, ae, ah, be, bh):
    """X is Killing exactly when a_l = b_l on each restricted-root block."""
    metric = homgeo.metric_from_params(cp2, MetricParams(a, ae, ah, be, bh))
    is_kill, _ = homgeo.is_killing(cp2, metric, basis_vec(cp2, 0))
    # closed forms give residual max(|ae-be|/2, |ah-bh|/4); same tolerance rule
    want = DEFAULT_TOL.is_zero(max(abs(ae - be) / 2, abs(ah - bh) / 4))
    assert is_kill == want


def test_killing_with_equal_block_params(cp2):
    metric = homgeo.metric_from_params(cp2, MetricParams(3.0, 0.7, 1.3, 0.7, 1.3))
    assert homgeo.is_killing(cp2, metric, basis_vec(cp2, 0))[0]
    assert homgeo.is_killing(cp2, metric, np.zeros(cp2.dim_mbar))[0]


@pytest.mark.parametrize("space", [SpaceId(Family.SPHERE, 3), SpaceId(Family.COMPLEX_PROJECTIVE, 2)],
                         ids=SpaceId.label)
def test_metrics_suite_killing_check_sees_both_answers(space, monkeypatch):
    """The metrics suite samples Killing and non-Killing metrics, so a Killing
    residual that always answers 1 (not Killing), or always 0, fails its check."""
    def metrics_checks():
        rep = VerificationReport(config={})
        suites.suite_metrics(space, 1.0, 1.0, 5, rep, DEFAULT_TOL)
        return {c.name.rsplit("/", 1)[1]: c for c in rep.checks}

    checks = metrics_checks()
    assert all(c.passed for c in checks.values())
    assert checks["u_symmetry"].residual == 0.0
    for answer in (1.0, 0.0):
        monkeypatch.setattr(homgeo, "killing_residual",
                            lambda frame, diags, xi, answer=answer: np.full(len(diags), answer))
        assert not metrics_checks()["killing_criterion"].passed


def with_nan_cbar(monkeypatch, space, entry=None):
    """Make crossmodel.build_frame give the frame of space with a NaN in cbar at
    entry, by default its first nonzero; returns that frame."""
    frame = crossmodel.build_frame(space)
    cbar = frame.cbar.copy()
    cbar[tuple(np.argwhere(cbar)[0]) if entry is None else entry] = np.nan
    broken = dataclasses.replace(frame, cbar=cbar)
    build = crossmodel.build_frame
    monkeypatch.setattr(crossmodel, "build_frame",
                        lambda s: broken if s == space else build(s))
    return broken


def test_metrics_suite_u_symmetry_keeps_a_nan(monkeypatch):
    """A NaN in cbar makes U NaN on its support, and the u_symmetry check fails
    with a NaN residual: the fold over the sample metrics does not drop it."""
    space = SpaceId(Family.COMPLEX_PROJECTIVE, 2)
    with_nan_cbar(monkeypatch, space)
    rep = VerificationReport(config={})
    suites.suite_metrics(space, 1.0, 1.0, 5, rep, DEFAULT_TOL)
    check = {c.name.rsplit("/", 1)[1]: c for c in rep.checks}["u_symmetry"]
    assert not check.passed and np.isnan(check.residual)


@pytest.mark.parametrize("space", [SpaceId(Family.COMPLEX_PROJECTIVE, 3),
                                   SpaceId(Family.QUATERNIONIC_PROJECTIVE, 2)],
                         ids=SpaceId.label)
def test_criterion_03_keeps_a_nan(space, monkeypatch):
    """A NaN in the cbar of either space of criterion 03 makes its closed-form
    residual NaN, and the criterion fails with that NaN, whichever space
    comes first in the fold."""
    frame = with_nan_cbar(monkeypatch, space)
    params = [MetricParams(*row) for row in suites.samples()["criterion_03"][:50]]
    assert np.all(np.isnan(suites.lemma_u_closed_forms_residual(frame, params)))
    check = suites.criterion_03_u_closed_forms(DEFAULT_TOL, 5)
    assert not check.passed and np.isnan(check.residual)


@pytest.mark.parametrize("space", [SpaceId(Family.CAYLEY_PLANE),
                                   SpaceId(Family.QUATERNIONIC_PROJECTIVE, 4),
                                   SpaceId(Family.COMPLEX_PROJECTIVE, 6)],
                         ids=SpaceId.label)
def test_metrics_suite_peak_memory(space):
    """The metrics suite reads U on its support, never as a dense dim_mbar^3
    tensor: with the frame's supports derived, it peaks below 1.5 cbar."""
    frame = crossmodel.build_frame(space)
    frame.paired_support  # derived once per frame, before the measurement
    cbar_bytes = frame.cbar.nbytes
    rep = VerificationReport(config={})
    tracemalloc.start()
    try:
        suites.suite_metrics(space, 1.0, 1.0, 5, rep, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in rep.checks)
    assert peak < 1.5 * cbar_bytes


def test_naturally_reductive_iff_proportional(cp2):
    assert homgeo.is_naturally_reductive(
        cp2, homgeo.metric_from_params(cp2, MetricParams(2, 4, 4, 4, 4)))
    assert homgeo.is_naturally_reductive(
        cp2, homgeo.metric_from_params(cp2, MetricParams(1, 1, 1, 1, 1)))
    assert not homgeo.is_naturally_reductive(
        cp2, homgeo.metric_from_params(cp2, MetricParams(1, 1, 1, 4, 0.25)))


def test_alpha_unit_params_is_half_bracket(cp2):
    metric = homgeo.metric_from_params(cp2, MetricParams(1, 1, 1, 1, 1))
    rng = np.random.default_rng(8)
    u, v = rng.normal(size=(2, cp2.dim_mbar))
    alpha = alpha_tensor(cp2, metric)
    assert np.allclose(np.einsum("i,j,ijk->k", u, v, alpha),
                       0.5 * bracket_mbar(cp2, u, v))


def test_alpha_torsion_free(cp2):
    """alpha(X, xi) - alpha(xi, X) equals the projected bracket [X, xi] = -zeta."""
    metric = homgeo.metric_from_params(cp2, MetricParams(1.5, 0.3, 2, 1, 0.7))
    s = cp2.slices()
    x = basis_vec(cp2, 0)
    xi = basis_vec(cp2, s["m_eps"].start)
    alpha = alpha_tensor(cp2, metric)
    diff = np.einsum("i,j,ijk->k", x, xi, alpha) \
        - np.einsum("i,j,ijk->k", xi, x, alpha)
    want = -basis_vec(cp2, s["k_eps"].start)
    assert np.allclose(diff, want)
    assert np.allclose(bracket_mbar(cp2, x, xi), want)


def test_alpha_metric_compatible(hp2):
    """<alpha(w,u),v> + <u,alpha(w,v)> = 0: the connection preserves the metric."""
    metric = homgeo.metric_from_params(hp2, MetricParams(1, 2, 0.5, 2, 0.5))
    g = metric.gram
    alpha = alpha_tensor(hp2, metric)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u, v, w = rng.normal(size=(3, hp2.dim_mbar))
        lhs = np.einsum("i,j,ijk->k", w, u, alpha) @ g @ v \
            + u @ g @ np.einsum("i,j,ijk->k", w, v, alpha)
        assert lhs == pytest.approx(0.0, abs=1e-9)


def test_params_must_be_positive():
    with pytest.raises(GeometryError):
        MetricParams(1, -1, 1, 1, 1)
    with pytest.raises(GeometryError):
        MetricParams(0, 1, 1, 1, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", range(5))
def test_params_must_be_finite(bad, slot):
    """A NaN compares False with everything, so it must not pass as positive."""
    values = [1.0] * 5
    values[slot] = bad
    with pytest.raises(GeometryError):
        MetricParams(*values)


def test_non_diagonal_gram_rejected(cp2):
    """The U-map divides by the Gram diagonal, so off-diagonal entries must fail loudly."""
    params = MetricParams(1, 2, 0.5, 2, 0.5)
    gram = homgeo.metric_from_params(cp2, params).gram.copy()
    gram[1, 2] = gram[2, 1] = 0.1
    with pytest.raises(GeometryError):
        homgeo.InvariantMetric(gram)


def test_metric_is_its_gram_matrix():
    """MetricParams only constructs a metric; the metric holds its Gram matrix alone."""
    assert tuple(f.name for f in dataclasses.fields(homgeo.InvariantMetric)) == ("gram",)
