"""Named verification suites and the registry of the ten acceptance criteria.

Each suite appends Check entries to a VerificationReport for one space. Each
acceptance criterion returns one Check; the acceptance runner and the test
module both read the CRITERIA registry.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import compactform, contact, crossmodel, homgeo, tanbundle
from .compactform import ToleranceConfig
from .crossmodel import Family, RestrictedFrame, SpaceId
from .homgeo import MetricParams
from .report import Check, VerificationReport

def space_from_flags(space: str, n: int) -> SpaceId:
    """The space of a --space flag, a Family value, and its n."""
    try:
        family = Family(space)
    except ValueError:
        raise ValueError(f"unknown space {space!r}; choose from "
                         f"{sorted(f.value for f in Family)}") from None
    return SpaceId(family, n)


@dataclass(frozen=True)
class Table1:
    """A classification-table row: dim of the base, m_eps, m_half and dim h."""

    base_dim: int
    m_eps: int
    m_half: int
    h_dim: int


def table1(space: SpaceId) -> Table1:
    """The classification-table row of the space, read only by suite_table1:
    construction never sees the answer it is checked against."""
    n = space.n
    if space.family in (Family.SPHERE, Family.REAL_PROJECTIVE):
        return Table1(n, n - 1, 0, (n - 1) * (n - 2) // 2)  # h = so(n-1)
    if space.family is Family.COMPLEX_PROJECTIVE:
        return Table1(2 * n, 1, 2 * n - 2, 1 + n * (n - 2))  # h = R + su(n-1)
    if space.family is Family.QUATERNIONIC_PROJECTIVE:
        return Table1(4 * n, 3, 4 * n - 4, 3 + (n - 1) * (2 * n - 1))  # h = sp(1) + sp(n-1)
    return Table1(16, 7, 8, 21)  # CaP2, h = so(7)


def suite_table1(space: SpaceId, r: float, kappa: float, grid: int,
                 rep: VerificationReport, tol: ToleranceConfig) -> None:
    """Dimensions and restricted-root multiplicities of the built frame against
    the classification table."""
    frame = crossmodel.build_frame(space)
    want = table1(space)
    rep.add(f"table1/{space.label()}/multiplicities",
            "restricted-root multiplicities match the classification table",
            (frame.m_eps, frame.m_half) == (want.m_eps, want.m_half),
            details=f"got ({frame.m_eps}, {frame.m_half}), want ({want.m_eps}, {want.m_half})")
    base_ok = frame.dim_mbar == 2 * want.base_dim - 1
    rep.add(f"table1/{space.label()}/base_dim",
            "dim of the base equals the classification-table value",
            base_ok,
            details=f"dim mbar = {frame.dim_mbar} {'=' if base_ok else '!='} "
                    f"2*{want.base_dim}-1")
    rep.add(f"table1/{space.label()}/h_dim",
            "dim of the slice-isotropy algebra matches the table",
            frame.h_basis.shape[1] == want.h_dim,
            details=f"got {frame.h_basis.shape[1]}, want {want.h_dim}")


def suite_brackets(space: SpaceId, r: float, kappa: float, grid: int,
                   rep: VerificationReport, tol: ToleranceConfig) -> None:
    """Algebra integrity and bracket-inclusion laws of the frame."""
    frame = crossmodel.build_frame(space)
    alg = compactform.verify_algebra(frame.alg, tol)
    rep.add(f"brackets/{space.label()}/algebra",
            "antisymmetry, Jacobi and invariant-form residuals vanish",
            alg["passed"], residual=float(np.max(list(alg["residuals"].values()))))
    laws = crossmodel.verify_bracket_laws(frame, tol)
    rep.add(f"brackets/{space.label()}/inclusions",
            "restricted-root bracket inclusions and pairing identities hold",
            laws["passed"], residual=float(np.max(list(laws["checks"].values()))))
    if space.family is Family.COMPLEX_PROJECTIVE:
        fix = crossmodel.fixture_check_cp2_brackets(frame, tol)
        rep.add(f"brackets/{space.label()}/cp_scalars",
                "complex-projective bracket scalars match the fixed table",
                fix["passed"], residual=float(np.max(list(fix["checks"].values()))))


# metrics sampled by suite_metrics: a_l = b_l on both blocks, on eps only,
# on half only and on neither, so the Killing check meets both answers
SAMPLE_METRICS = tuple(MetricParams(*v) for v in (
    (1.0, 1.0, 1.0, 1.0, 1.0), (0.6, 0.7, 1.9, 0.7, 1.9), (2.1, 3.2, 0.4, 3.2, 0.4),
    (1.0, 0.7, 1.9, 0.7, 0.5), (0.4, 2.5, 0.3, 2.5, 1.2), (1.0, 0.7, 1.9, 1.4, 1.9),
    (3.0, 0.3, 4.0, 0.9, 4.0), (1.0, 0.7, 1.9, 1.4, 0.5), (0.3, 4.0, 0.25, 0.5, 2.0),
    (1.5, 1.2, 0.8, 0.9, 1.1)))


def suite_metrics(space: SpaceId, r: float, kappa: float, grid: int,
                  rep: VerificationReport, tol: ToleranceConfig) -> None:
    """Properties of the invariant-metric family on SAMPLE_METRICS."""
    frame = crossmodel.build_frame(space)
    diags = homgeo.gram_diagonal(frame, [p.as_tuple() for p in SAMPLE_METRICS])
    i, j, w = frame.paired_support["u"]
    # U(e_i, e_j) - U(e_j, e_i) on the support of U; off it both are +0.0
    worst_sym = float(np.max(np.abs(homgeo.u_entries(frame, diags, i, j, w)
                                    - homgeo.u_entries(frame, diags, j, i, w)), initial=0.0))
    x = np.zeros(frame.dim_mbar)
    x[0] = 1.0
    killing = homgeo.killing_residual(frame, diags, x).tolist()
    killing_ok = all(
        tol.is_zero(res) == (tol.is_zero(p.a_eps - p.b_eps)
                             and (frame.m_half == 0 or tol.is_zero(p.a_half - p.b_half)))
        for p, res in zip(SAMPLE_METRICS, killing))
    rep.add(f"metrics/{space.label()}/u_symmetry",
            "the metric correction bilinear is symmetric",
            tol.is_zero(worst_sym), residual=worst_sym)
    rep.add(f"metrics/{space.label()}/killing_criterion",
            "the Cartan field is Killing exactly when a_l = b_l",
            killing_ok)
    c = 2.0
    prop = homgeo.metric_from_params(
        frame, MetricParams(math.sqrt(c), c, c, c, c))
    rep.add(f"metrics/{space.label()}/naturally_reductive",
            "proportional metrics are naturally reductive, others are not",
            homgeo.is_naturally_reductive(frame, prop, tol)
            and not homgeo.is_naturally_reductive(
                frame, homgeo.metric_from_params(
                    frame, MetricParams(1, 1, 1, 4, 0.25)), tol))


def suite_tashiro(space: SpaceId, r: float, kappa: float, grid: int,
                  rep: VerificationReport, tol: ToleranceConfig) -> None:
    """Contact behaviour of the standard and rectified structures over radii."""
    frame = crossmodel.build_frame(space)
    radii = [0.25, 0.5, 1.0, 2.0]
    classes = contact.classify_all(
        [contact.standard_structure(frame, radius) for radius in radii]
        + [contact.rectified_structure(frame, radius) for radius in radii], tol)
    for radius, std, rect in zip(radii, classes, classes[len(radii):]):
        std_contact, rect_k = std.flags["contact_metric"], rect.flags["k_contact"]
        rep.add(f"tashiro/{space.label()}/r={radius}",
                "standard structure contact only at r = 1/2; rectified always "
                "contact, K-contact only on constant-curvature spaces at r = 1",
                std_contact == (radius == 0.5) and rect.flags["contact_metric"]
                and rect_k == (radius == 1.0 and frame.m_half == 0)
                and (not rect_k or rect.flags["sasakian"]),
                details=f"std_contact={std_contact}, rect_k={rect_k}")


def suite_sasakian(space: SpaceId, r: float, kappa: float, grid: int,
                   rep: VerificationReport, tol: ToleranceConfig) -> None:
    """The theorem structure at kappa; r only names the check."""
    frame = crossmodel.build_frame(space)
    cls = contact.classify(contact.theorem_main_structure(frame, kappa), tol)
    rep.add(f"sasakian/{space.label()}/r={r}/kappa={kappa}",
            "the q=1 K-contact structure is Sasakian (both normality checks)",
            cls.flags["sasakian"],
            residual=float(np.maximum(cls.residuals["nijenhuis"], cls.residuals["nabla_phi"])))


def suite_uniqueness(space: SpaceId, r: float, kappa: float, grid: int,
                     rep: VerificationReport, tol: ToleranceConfig) -> None:
    """The uniqueness scan around the theorem point at kappa; r only names the check."""
    frame = crossmodel.build_frame(space)
    scan = contact.uniqueness_scan(frame, kappa, grid, tol=tol)
    rep.add(f"uniqueness/{space.label()}/r={r}/kappa={kappa}",
            "only the distinguished parameters admit a K-contact structure",
            scan["unique"] and scan["min_failing_residual"] > 1e-3,
            residual=scan["max_passing_residual"],
            details=f"{scan['n_passed']}/{scan['n_points']} grid points pass; "
                    f"min failing residual {scan['min_failing_residual']:.2e}")


SUITES = {"table1": suite_table1, "brackets": suite_brackets,
          "metrics": suite_metrics, "tashiro": suite_tashiro,
          "sasakian": suite_sasakian, "uniqueness": suite_uniqueness}


def run_suite(space: SpaceId, suite: str, r: float, kappa: float, grid: int,
              rep: VerificationReport, tol: ToleranceConfig) -> None:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    for name in SUITES if suite == "all" else (suite,):
        SUITES[name](space, r, kappa, grid, rep, tol)


# --- acceptance gate -------------------------------------------------------

TABLE1_SPACES = (
    [SpaceId(Family.SPHERE, n) for n in range(2, 7)]
    + [SpaceId(Family.REAL_PROJECTIVE, n) for n in range(2, 7)]
    + [SpaceId(Family.COMPLEX_PROJECTIVE, n) for n in range(2, 5)]
    + [SpaceId(Family.QUATERNIONIC_PROJECTIVE, n) for n in range(1, 4)]
    + [SpaceId(Family.CAYLEY_PLANE)]
)

REPRESENTATIVE_SPACES = (
    SpaceId(Family.SPHERE, 4), SpaceId(Family.REAL_PROJECTIVE, 3),
    SpaceId(Family.COMPLEX_PROJECTIVE, 2),
    SpaceId(Family.QUATERNIONIC_PROJECTIVE, 2), SpaceId(Family.CAYLEY_PLANE),
)


def _suite_checks(suite, tol: ToleranceConfig, spaces, grid: int = 5) -> list[Check]:
    """The checks one per-space suite adds over spaces, at r = kappa = 1."""
    rep = VerificationReport(config={})
    for space in spaces:
        suite(space, 1.0, 1.0, grid, rep, tol)
    return rep.checks


@functools.cache
def samples() -> dict:
    """The sample rows of criteria 03, 04 and 10, read once from samples.json.

    A criterion 10 row is (t, c, a, b, a_eps, a_half, b_eps, b_half, force).
    They are the draws of seeded generators, frozen so that the gate imports
    no random number generator; tests/oracles.py redraws them from the seeds
    and the tests require the file to equal them exactly.
    """
    with open(os.path.join(os.path.dirname(__file__), "samples.json")) as fh:
        return json.load(fh)


def lemma_u_closed_forms_residual(frame: RestrictedFrame,
                                  params: Sequence[MetricParams]) -> np.ndarray:
    """Worst deviation of the solved U-map from its closed-form expressions,
    one entry per metric of params.

    Each term below is the worst of U(e_p, e_q) - closed form per metric, over
    index pairs (p, q) that lie in one pair of frame blocks; U is solved for
    that block pair only, for all the metrics at once.
    """
    coeffs = np.array([p.as_tuple() for p in params], dtype=float)
    g = homgeo.gram_diagonal(frame, coeffs)
    a, ae, ah, be, bh = coeffs.T[:, :, None, None]  # each (P, 1, 1)
    a2 = a * a
    c = frame.cbar
    e = np.eye(frame.dim_mbar)
    s = frame.slices()
    xi, xh, ze, zh = s["m_eps"], s["m_half"], s["k_eps"], s["k_half"]
    n_eps, n_half = xi.stop - xi.start, xh.stop - xh.start

    def u(rows, cols):  # U over the pairs (rows x cols) as (P, pairs, dim_mbar)
        return homgeo.u_block(frame, g, rows, cols).reshape(len(coeffs), -1, frame.dim_mbar)

    def cb(rows, cols):  # [e_p, e_q]_mbar over the same pairs
        return c[rows, cols].reshape(-1, frame.dim_mbar)

    u0 = u(s["a"], slice(None))
    u_xz = u(xi, ze)
    same = np.eye(n_eps, dtype=bool).reshape(-1)  # eps pairs i == k
    m_eps_part = np.zeros((n_half * n_half, frame.dim_mbar))
    m_eps_part[:, xi] = cb(xh, zh)[:, xi]
    delta = np.where(np.eye(n_half, dtype=bool).reshape(-1, 1), e[0] / (2 * a2), 0.0)

    def worst(dev):  # reduced at once, so the deviations are never all held
        return np.max(np.abs(dev), axis=(1, 2), initial=0.0)

    return np.max([
        worst(u0[:, :1]),
        worst(u0[:, xi] - (a2 - ae) / (2 * be) * e[ze]),
        worst(u0[:, ze] - (be - a2) / (2 * ae) * e[xi]),
        worst(u_xz[:, same] - (ae - be) / (2 * a2) * e[0]),
        worst(u(xi, xi)),
        worst(u_xz[:, ~same]),
        worst(u0[:, xh] - (a2 - ah) / (4 * bh) * e[zh]),
        worst(u0[:, zh] - (bh - a2) / (4 * ah) * e[xh]),
        worst(u(xi, xh) - (ah - ae) / (2 * bh) * cb(xi, xh)),
        worst(u(xi, zh) - (bh - ae) / (2 * ah) * cb(xi, zh)),
        worst(u(xh, ze) - (be - ah) / (2 * ah) * cb(xh, ze)),
        worst(u(ze, zh) - (bh - be) / (2 * bh) * cb(ze, zh)),
        worst(u(xh, zh) - (ah - bh) / 2 * (delta - m_eps_part / ae)),
    ], axis=0)


def criterion_01_table1_reproduction(tol: ToleranceConfig, grid: int) -> Check:
    """Every table row: exact dims, multiplicities and isotropy dims."""
    checks = _suite_checks(suite_table1, tol, TABLE1_SPACES)
    return Check("criterion-01/table1",
                 "dimensions, multiplicities and isotropy dims match the table",
                 all(c.passed for c in checks))


def criterion_02_algebra_integrity(tol: ToleranceConfig, grid: int) -> Check:
    """Jacobi and invariant-form residuals below 1e-9 on all five families."""
    ok, worst = True, 0.0
    for space in REPRESENTATIVE_SPACES:
        out = compactform.verify_algebra(crossmodel.build_frame(space).alg, tol)
        ok = ok and out["passed"]
        worst = float(np.max([worst, out["residuals"]["jacobi"],
                              out["residuals"]["ad_invariance"]]))
    return Check("criterion-02/algebra_integrity",
                 "Jacobi and form-invariance residuals below 1e-9",
                 ok and worst < 1e-9, residual=worst)


def criterion_03_u_closed_forms(tol: ToleranceConfig, grid: int) -> Check:
    """Solved U-map equals closed forms, 50 random parameter sets per space."""
    rows = samples()["criterion_03"]
    worst = 0.0
    for k, space in enumerate((SpaceId(Family.COMPLEX_PROJECTIVE, 3),
                               SpaceId(Family.QUATERNIONIC_PROJECTIVE, 2))):
        params = [MetricParams(*row) for row in rows[50 * k:50 * (k + 1)]]
        worst = float(np.max(lemma_u_closed_forms_residual(
            crossmodel.build_frame(space), params), initial=worst))
    return Check("criterion-03/u_closed_forms",
                 "solved U-map equals closed forms over 50 random parameter sets",
                 worst < 1e-9, residual=worst)


def criterion_04_contact_criterion_biconditional(tol: ToleranceConfig,
                                                 grid: int) -> Check:
    """contact_metric flag holds exactly when a_l = a lambda(r) / (2 r q_l)."""
    frame = crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, 2))
    structures, wants = [], []
    for r, a, qe, qh, *drawn in samples()["criterion_04"]:
        le, lh = contact.lambda_r(r)
        # a row without a drawn (a_eps, a_half) forces the criterion to hold
        ae, ah = drawn or (a * le / (2 * r * qe), a * lh / (2 * r * qh))
        params = MetricParams(a, ae, ah, qe * qe * ae, qh * qh * ah)
        structures.append(contact.phi_q_structure(frame, qe, qh, params))
        wants.append(abs(ae - a * le / (2 * r * qe)) < 1e-9
                     and abs(ah - a * lh / (2 * r * qh)) < 1e-9)
    flags = [cls.flags["contact_metric"] for cls in contact.classify_all(structures, tol)]
    return Check("criterion-04/contact_criterion",
                 "contact flag is equivalent to the closed-form condition on a_l",
                 flags == wants)


def criterion_05_tashiro_radius_sweep(tol: ToleranceConfig, grid: int) -> Check:
    """Standard/rectified contact behaviour at r in {1/4, 1/2, 1, 2}, all families."""
    checks = _suite_checks(suite_tashiro, tol, REPRESENTATIVE_SPACES)
    return Check("criterion-05/tashiro",
                 "standard contact only at r=1/2; rectified contact always and "
                 "K-contact (then Sasakian) only at r=1 on constant curvature",
                 all(c.passed for c in checks))


def criterion_06_main_theorem_matrix(tol: ToleranceConfig, grid: int) -> Check:
    """Sasakian over 5 spaces x kappa in {1/2,1,3}, with both normality residuals
    below 1e-8 (so the two checks agree). r is not an axis: the theorem holds for
    every r > 0, and at the origin its structure has no r in it (theorem_params)."""
    ok, worst = True, 0.0
    for space in REPRESENTATIVE_SPACES:
        frame = crossmodel.build_frame(space)
        for cls in contact.classify_all([contact.theorem_main_structure(frame, kappa)
                                         for kappa in (0.5, 1.0, 3.0)], tol):
            ok = ok and cls.flags["sasakian"]
            worst = float(np.max([worst, cls.residuals["nijenhuis"],
                                  cls.residuals["nabla_phi"]]))
    return Check("criterion-06/main_theorem",
                 "both normality checks pass and agree over the full matrix",
                 ok and worst < 1e-8, residual=worst)


def criterion_07_uniqueness_scan(tol: ToleranceConfig, grid: int) -> Check:
    """On the log grid only the distinguished point passes, every other point
    failing by more than 1e-3."""
    checks = _suite_checks(suite_uniqueness, tol,
                           (SpaceId(Family.COMPLEX_PROJECTIVE, 2),
                            SpaceId(Family.QUATERNIONIC_PROJECTIVE, 1)), grid)
    return Check("criterion-07/uniqueness",
                 "only the distinguished parameter point passes the K-contact scan",
                 all(c.passed for c in checks))


def criterion_08_sphere_metric_coincidence(tol: ToleranceConfig,
                                           grid: int) -> Check:
    """On the sphere the kappa = 1/2 theorem metric is a quarter of the standard one."""
    frame = crossmodel.build_frame(SpaceId(Family.SPHERE, 4))
    g_main = contact.theorem_main_structure(frame, 0.5).metric.gram
    g_std = contact.standard_structure(frame, 1.0).metric.gram
    res = float(np.max(np.abs(g_main - 0.25 * g_std)))
    return Check("criterion-08/sphere_coincidence",
                 "theorem metric at kappa=1/2 is a quarter of the standard metric",
                 res < 1e-12, residual=res)


def criterion_09_cp_bracket_scalars(tol: ToleranceConfig, grid: int) -> Check:
    """Basis-independent complex-projective bracket scalars within 1e-9."""
    ok, worst = True, 0.0
    for n in (2, 3):
        fix = crossmodel.fixture_check_cp2_brackets(
            crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, n)), tol)
        ok = ok and fix["passed"]
        worst = float(np.max([worst, *fix["checks"].values()]))
    return Check("criterion-09/cp_bracket_scalars",
                 "basis-independent bracket scalars reproduced",
                 ok and worst < 1e-9, residual=worst)


def criterion_10_hermitian_and_extension(tol: ToleranceConfig,
                                         grid: int) -> Check:
    """The Hermitian predicate matches the direct isometry test on random data
    and the radial extension verdicts are (yes, no, no)."""
    frame = crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, 2))
    ok = True
    for t, c, a, b, a_eps, a_half, b_eps, b_half, force in samples()["criterion_10"]:
        qfun = lambda s, c=c: c * s  # noqa: E731
        if force:  # force the Hermitian conditions
            qe, qh = tanbundle.q_values(qfun, t)
            b, b_eps, b_half = a, qe * qe * a_eps, qh * qh * a_half
        pair = (MetricParams(a, a_eps, a_half, b_eps, b_half), b)
        metric = lambda s, pair=pair: pair  # noqa: E731
        j = tanbundle.jq_matrix(frame, qfun, t)
        g = tanbundle.ambient_metric(frame, metric, t)
        direct = float(np.max(np.abs(j.T @ g @ j - g))) < 1e-9 * max(
            1.0, float(np.max(np.abs(g))))
        ok = ok and (tanbundle.is_hermitian(metric, qfun, t, tol) == direct)
    verdicts = (tanbundle.extension_admissible(lambda t: t),
                tanbundle.extension_admissible(lambda t: 1.0),
                tanbundle.extension_admissible(math.sqrt))
    return Check("criterion-10/hermitian_extension",
                 "Hermitian pairing biconditional and radial extension verdicts",
                 ok and verdicts == ("yes", "no", "no"),
                 details=f"verdicts={verdicts}")


CRITERIA = (
    criterion_01_table1_reproduction, criterion_02_algebra_integrity,
    criterion_03_u_closed_forms, criterion_04_contact_criterion_biconditional,
    criterion_05_tashiro_radius_sweep, criterion_06_main_theorem_matrix,
    criterion_07_uniqueness_scan, criterion_08_sphere_metric_coincidence,
    criterion_09_cp_bracket_scalars, criterion_10_hermitian_and_extension,
)


def acceptance_report(tol: ToleranceConfig, grid: int = 5) -> VerificationReport:
    """The full release gate: ten criteria over all five space families."""
    rep = VerificationReport(config={"command": "acceptance",
                                     "tol": tol.threshold, "grid": grid})
    rep.checks.extend(criterion(tol, grid) for criterion in CRITERIA)
    return rep.finalize()
