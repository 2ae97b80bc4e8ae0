"""The reordered contractions against their dense reference forms.

Each reference below is the plain ``np.einsum`` statement (or pointwise loop)
that the package used before its contractions were reordered. The optimized
forms must agree with them to 1e-12 relative to the reference's largest
entry, on random structure data.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (CAYLEY_PARAMS, INCLUSIONS, axiom_residuals, bracket_table,
                     dense_ad_invariance, einsum_u_tensor, loop_bracket_laws,
                     loop_frame_brackets, nijenhuis_tensor, projection_bracket_laws)

from crosscontact import compactform, contact, crossmodel, homgeo, suites
from crosscontact.contact import ContactError
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


def two_product_nijenhuis(structure):
    """nijenhuis_tensor as it was, with phi.T @ c formed once for t2 and again for t4."""
    c = structure.frame.cbar
    phi = structure.phi
    t2 = np.tensordot(phi, phi.T @ c, axes=(0, 0))
    t3 = np.tensordot(phi, c @ phi.T, axes=(0, 0))
    t4 = phi.T @ c @ phi.T
    return -c + t2 - t3 - t4


def alpha_tensor(frame, metric):
    """alpha(e_i, e_j) = [e_i, e_j]_mbar / 2 + U(e_i, e_j), the Levi-Civita bilinear."""
    return 0.5 * frame.cbar + einsum_u_tensor(frame, metric)


def nabla_phi_rhs(structure):
    """g(u, v) char - eta(v) u, the right-hand side of the nabla phi identity."""
    return np.einsum("ij,k->ijk", structure.metric.gram, structure.char) \
        - np.einsum("j,ik->ijk", structure.eta, np.eye(structure.frame.dim_mbar))


def nabla_phi_deviation(structure):
    """alpha(u, phi v) - phi alpha(u, v) minus its right-hand side, as dense
    products: the form classify used before it worked on the support."""
    phi, alpha = structure.phi, alpha_tensor(structure.frame, structure.metric)
    lhs = phi.T @ alpha - alpha @ phi.T  # alpha(e_i, phi e_j) - phi alpha(e_i, e_j)
    return lhs - nabla_phi_rhs(structure)


def nabla_phi_residual(structure):
    return float(np.max(np.abs(nabla_phi_deviation(structure))))


def dense_nabla_phi_lhs(structure):
    alpha = alpha_tensor(structure.frame, structure.metric)
    phi = structure.phi
    return np.einsum("bj,ibk->ijk", phi, alpha) - np.einsum("ijl,kl->ijk", alpha, phi)


def dense_classify(structure, tol=compactform.DEFAULT_TOL):
    """classify as one dense product per residual and structure, the form it had
    before it worked on the support of cbar."""
    frame, g = structure.frame, structure.metric.gram
    residuals = {k: float(v) for k, v in axiom_residuals(
        structure.phi, g, structure.char, structure.eta).items()}
    axioms = max(residuals.values())
    residuals["axioms"] = axioms
    residuals["contact"] = float(np.max(np.abs(
        g @ structure.phi - structure.eta[0] * contact.d_eta_matrix(frame))))
    residuals["killing"] = float(homgeo.killing_residual(
        frame, np.diagonal(g), structure.eta[0] * structure.char))
    residuals["nijenhuis"] = float(np.max(np.abs(nijenhuis_tensor(structure))))
    residuals["nabla_phi"] = nabla_phi_residual(structure)

    acm = tol.is_zero(axioms)
    contact_ = acm and tol.is_zero(residuals["contact"])
    k_contact = contact_ and tol.is_zero(residuals["killing"])
    sasakian = k_contact and tol.is_zero(residuals["nijenhuis"]) \
        and tol.is_zero(residuals["nabla_phi"])
    return contact.StructureClass(
        flags={"almost_contact_metric": acm, "contact_metric": contact_,
               "k_contact": k_contact, "sasakian": sasakian},
        residuals=residuals)


def oracle_structures(frame, seed):
    """60 structures: 3 theorem, 6 standard, 6 rectified and 45 random phi^q ones,
    15 of which satisfy the contact condition a_l = a lambda_l / (2 r q_l)."""
    rng = np.random.default_rng(seed)
    out = [contact.theorem_main_structure(frame, k) for k in (0.5, 1.0, 3.0)]
    radii = (0.25, 0.5, 1.0, 2.0, 0.37, 1.7)
    out += [contact.standard_structure(frame, r) for r in radii]
    out += [contact.rectified_structure(frame, r) for r in radii]
    for trial in range(45):
        r, a, qe, qh = (float(v) for v in np.exp(rng.uniform(-1, 1, 4)))
        le, lh = contact.lambda_r(r)
        if trial % 3 == 0:
            ae, ah = a * le / (2 * r * qe), a * lh / (2 * r * qh)
        else:
            ae, ah = (float(v) for v in np.exp(rng.uniform(-1, 1, 2)))
        params = MetricParams(a, ae, ah, qe * qe * ae, qh * qh * ah)
        out.append(contact.phi_q_structure(frame, qe, qh, params))
    return out


def dense_cbar(frame):
    amb = np.einsum("ai,bj,abc->ijc", frame.mbar, frame.mbar, frame.alg.dense())
    return np.einsum("ijc,cd,dk->ijk", amb, frame.ip, frame.mbar)


def dense_killing_residual(frame, metric, xi):
    ut = einsum_u_tensor(frame, metric)
    return float(np.max(np.abs(np.einsum("ijk,kl,l->ij", ut, metric.gram, xi))))


def dense_jacobi(c):
    cc = np.einsum("ijm,mkl->ijkl", c, c)
    return float(np.max(np.abs(cc + np.transpose(cc, (1, 2, 0, 3))
                               + np.transpose(cc, (2, 0, 1, 3)))))


def with_tensor(alg, c):
    """alg with its structure constants replaced by the nonzeros of the dense tensor c."""
    index = np.argwhere(c)
    return dataclasses.replace(alg, index=index, values=c[tuple(index.T)])


def dense_jacobi_join(c):
    """The Jacobi join of the nonzeros of a dense c, found by a scan of c."""
    dim = c.shape[0]
    m, i, j = np.nonzero(c.transpose(2, 0, 1))
    v = c[i, j, m]
    per_m = np.bincount(m, minlength=dim)
    start = np.cumsum(per_m) - per_m
    fan = per_m[i]
    terms_l = np.bincount(m, weights=fan, minlength=dim)
    block = (np.cumsum(terms_l) - terms_l) // compactform._JACOBI_BLOCK_TERMS
    edges = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1, [dim]))
    shift = int(np.max(np.add.reduceat(terms_l, edges[:-1]))).bit_length()
    if compactform._JOIN_FILL * int(fan.sum()) > dim ** 5 or (dim ** 4).bit_length() + shift > 63:
        return compactform._jacobi_dense(c)
    worst = [0.0]
    for lo, hi in zip(start[edges[:-1]], np.append(start, len(m))[edges[1:]]):
        right = np.arange(lo, hi)
        n = fan[right]
        if not n.any():
            continue
        first = np.cumsum(n) - n
        left = np.repeat(start[i[right]] - first, n) + np.arange(int(n.sum()))
        right = np.repeat(right, n)
        a, b, k = i[left], j[left], j[right]
        orbit = np.minimum(np.minimum((a * dim + b) * dim + k, (b * dim + k) * dim + a),
                           (k * dim + a) * dim + b)
        key = orbit * dim + m[right]
        w = v[left] * v[right]
        w[(a == b) & (b == k)] *= 3.0
        packed = np.sort((key << shift) | np.arange(len(key)))
        order = packed & ((1 << shift) - 1)
        key = packed >> shift
        runs = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        worst.append(np.max(np.abs(np.add.reduceat(w[order], runs))))
    return float(np.max(worst))


def dense_verify_algebra(c, g, tol=compactform.DEFAULT_TOL):
    """verify_algebra as a scan of the dense tensor c, the form that kept c stored."""
    scale = max(1.0, float(np.max(np.abs(c))))
    antisym = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2)))))
    jacobi = dense_jacobi_join(c)
    adinv = dense_ad_invariance(c, g)
    eigmin = float(np.min(np.linalg.eigvalsh(g)))
    checks = {"antisymmetry": antisym, "jacobi": jacobi, "ad_invariance": adinv,
              "form_positive": 0.0 - min(eigmin, 0.0)}
    passed = all(tol.is_zero(v, scale * scale if k == "jacobi" else scale)
                 for k, v in checks.items())
    return {"residuals": checks, "scale": scale, "passed": passed}


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
    base = contact.theorem_main_structure(frame, 1.0)
    for _ in range(3):
        st = dataclasses.replace(base, phi=rng.normal(size=base.phi.shape))
        assert_rel_close(nijenhuis_tensor(st), dense_nijenhuis(st))


@pytest.mark.parametrize("label", LABELS)
def test_nijenhuis_equals_two_product_form(frames, label):
    """Reusing phi.T @ c for t4 leaves the tensor unchanged bit for bit, and on the
    pairing classify's normality residual is its largest entry."""
    frame = frames[label]
    rng = np.random.default_rng(47)
    structures = [contact.theorem_main_structure(frame, 2.3),
                  contact.standard_structure(frame, 1.0)]
    structures += [dataclasses.replace(structures[0], phi=rng.normal(size=(frame.dim_mbar,) * 2))
                   for _ in range(3)]
    for st in structures:
        assert np.array_equal(nijenhuis_tensor(st), two_product_nijenhuis(st))
    for st in structures[:2]:
        assert contact.classify(st).residuals["nijenhuis"] == \
            np.max(np.abs(two_product_nijenhuis(st)))


@pytest.mark.parametrize("label", LABELS)
def test_nabla_phi_matches_dense(frames, label):
    """With random q and random metrics, classify's nabla_phi is the dense
    residual bit for bit, and the max of the einsum lhs - rhs."""
    frame = frames[label]
    rng = np.random.default_rng(43)
    base = contact.theorem_main_structure(frame, 1.0)
    for _ in range(3):
        params = MetricParams(*np.exp(rng.uniform(-1.5, 1.5, 5)))
        st = dataclasses.replace(base, phi=contact.phi_matrix(frame, *np.exp(rng.normal(size=2))),
                                 metric=homgeo.metric_from_params(frame, params))
        got = contact.classify(st).residuals["nabla_phi"]
        assert got == nabla_phi_residual(st)
        want = float(np.max(np.abs(dense_nabla_phi_lhs(st) - nabla_phi_rhs(st))))
        assert got == pytest.approx(want, rel=RTOL)
        assert got > 1e-3


ORACLE_SPACES = ([SpaceId(Family.SPHERE, n) for n in range(2, 8)]
                 + [SpaceId(Family.REAL_PROJECTIVE, 3)]
                 + [SpaceId(Family.COMPLEX_PROJECTIVE, n) for n in range(2, 6)]
                 + [SpaceId(Family.QUATERNIONIC_PROJECTIVE, n) for n in range(1, 4)]
                 + [SpaceId(Family.CAYLEY_PLANE)])


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=SpaceId.label)
def test_classify_equals_dense(space):
    """classify on the support of cbar gives the dense form's flags and residual
    dicts bit for bit, on 60 structures per space (900 in all)."""
    frame = crossmodel.build_frame(space)
    for st in oracle_structures(frame, 11):
        got, want = contact.classify(st), dense_classify(st)
        assert got.flags == want.flags
        assert list(got.residuals.items()) == list(want.residuals.items())


@pytest.mark.parametrize("label", ["sphere3", "cp2", "hp1", "CaP2"])
def test_classify_all_equals_single_calls(frames, label):
    """A stack classifies as its structures one at a time, and as the dense form."""
    structures = oracle_structures(frames[label], 12)
    stacked = contact.classify_all(structures)
    assert len(stacked) == len(structures)
    for st, cls in zip(structures, stacked):
        assert cls == contact.classify(st) == dense_classify(st)
    assert {cls.flags["sasakian"] for cls in stacked} == {True, False}


def without_x_brackets(frame):
    """The frame with every bracket entry that involves X set to zero: d eta and
    ad_X vanish, so only the right-hand side keeps nabla phi off zero."""
    cbar = frame.cbar.copy()
    cbar[0], cbar[:, 0], cbar[:, :, 0] = 0.0, 0.0, 0.0
    return dataclasses.replace(frame, cbar=cbar)


def sparsely_perturbed(frame, rng):
    """The frame with six random entries of cbar moved by about 1e-3, so that its
    nonzeros follow no pattern of the pairing."""
    cbar = frame.cbar.copy()
    cbar.flat[rng.choice(cbar.size, 6, replace=False)] += 1e-3 * rng.normal(size=6)
    return dataclasses.replace(frame, cbar=cbar)


@pytest.mark.parametrize("label", LABELS)
def test_support_entries_equal_dense(frames, label):
    """On the support the Nijenhuis and nabla phi entries equal the dense tensors
    bit for bit, and off it the dense tensors are exactly zero: on the frame, on
    a rotated frame whose cbar is filled in, with the X brackets removed and
    with a few entries of cbar moved."""
    frame = frames[label]
    rng = np.random.default_rng(48)
    rotated = paired_change_of_frame(
        frame, paired_blocks(frame, lambda m: np.linalg.qr(rng.normal(size=(m, m)))[0]))
    for fr in (frame, rotated, without_x_brackets(frame), sparsely_perturbed(frame, rng)):
        p = fr.partner()
        base = contact.theorem_main_structure(fr, 1.0)
        for _ in range(3):
            params = MetricParams(*np.exp(rng.uniform(-1.5, 1.5, 5)))
            st = dataclasses.replace(
                base, phi=contact.phi_matrix(fr, *np.exp(rng.normal(size=2))),
                metric=homgeo.metric_from_params(fr, params))
            f = st.phi[p, np.arange(fr.dim_mbar)][None]
            got = {"nijenhuis": contact._nijenhuis_on_support(fr, f)[0],
                   "nabla_phi": contact._nabla_phi_on_support(
                       fr, f, st.metric.gram[None], st.char[None], st.eta[None])[0]}
            want = {"nijenhuis": nijenhuis_tensor(st), "nabla_phi": nabla_phi_deviation(st)}
            for name, dense in want.items():
                support = tuple(fr.paired_support[name])
                assert np.array_equal(got[name], dense[support]), name
                off = np.ones(dense.shape, dtype=bool)
                off[support] = False
                assert not np.any(dense[off]), name
                assert np.max(np.abs(dense)) > 1e-3, name


def test_classify_all_empty():
    assert contact.classify_all([]) == []


def test_classify_all_rejects_bad_stacks(frames):
    """Structures on two frames, a phi off the pairing, a non-finite phi and a
    characteristic vector off X all raise."""
    cp2, hp1 = frames["cp2"], frames["hp1"]
    st = contact.theorem_main_structure(cp2, 1.0)
    with pytest.raises(ContactError, match="one frame"):
        contact.classify_all([st, contact.theorem_main_structure(hp1, 1.0)])
    copy = dataclasses.replace(cp2)  # equal, but another frame
    with pytest.raises(ContactError, match="one frame"):
        contact.classify_all([st, contact.theorem_main_structure(copy, 1.0)])
    phi = st.phi.copy()
    phi[1, 2] = 1e-3
    assert cp2.partner()[2] != 1
    with pytest.raises(ContactError, match="pairing"):
        contact.classify(dataclasses.replace(st, phi=phi))
    with pytest.raises(ContactError, match="pairing"):
        contact.classify_all([st, dataclasses.replace(st, phi=phi)])
    phi = st.phi.copy()
    phi[cp2.partner()[1], 1] = np.inf
    with pytest.raises(ContactError, match="finite"):
        contact.classify(dataclasses.replace(st, phi=phi))
    char = st.char.copy()
    char[1] = 1e-3
    with pytest.raises(ContactError, match="Cartan line"):
        contact.classify(dataclasses.replace(st, char=char))


@pytest.mark.parametrize("label", LABELS)
def test_replaced_cbar_derives_a_fresh_support(frames, label):
    """A frame made by dataclasses.replace with a perturbed cbar derives its own
    support: the Nijenhuis residual moves by the perturbation, as the dense one does."""
    frame = frames[label]
    st = contact.theorem_main_structure(frame, 1.0)
    assert contact.classify(st).residuals["nijenhuis"] < 1e-12
    outside = np.ones(frame.dim_mbar ** 3, dtype=bool)
    outside[np.ravel_multi_index(frame.paired_support["nijenhuis"], frame.cbar.shape)] = False
    position = np.unravel_index(np.flatnonzero(outside)[len(frame.cbar) // 2], frame.cbar.shape)
    cbar = frame.cbar.copy()
    cbar[position] = 1e-3
    moved = dataclasses.replace(st, frame=dataclasses.replace(frame, cbar=cbar))
    got = contact.classify(moved).residuals
    assert got["nijenhuis"] == dense_classify(moved).residuals["nijenhuis"]
    assert got["nijenhuis"] >= 1e-3
    assert got["nabla_phi"] == nabla_phi_residual(moved)


def paired_change_of_frame(frame, q):
    """The frame with basis e'_j = sum_a q[a, j] e_a, for q orthogonal and block
    diagonal with equal blocks on m_l and k_l (so the pairing is kept)."""
    return dataclasses.replace(frame, mbar=frame.mbar @ q,
                               cbar=np.einsum("ai,bj,ck,abc->ijk", q, q, q, frame.cbar,
                                              optimize=True))


def paired_blocks(frame, draw):
    """q with draw(m) as the block on both m_l and k_l, and 1 on X."""
    s, q = frame.slices(), np.eye(frame.dim_mbar)
    for blk in ("eps", "half"):
        m = frame.m_eps if blk == "eps" else frame.m_half
        if m:
            block = draw(m)
            q[s[f"m_{blk}"], s[f"m_{blk}"]] = block
            q[s[f"k_{blk}"], s[f"k_{blk}"]] = block
    return q


def signed_permutation(rng):
    """A paired_blocks draw: a random permutation with random signs."""
    return lambda m: np.eye(m)[rng.permutation(m)] * rng.choice([-1.0, 1.0], size=m)


def rotation(rng):
    """A paired_blocks draw: a random orthogonal matrix."""
    return lambda m: np.linalg.qr(rng.normal(size=(m, m)))[0]


def invariance_structures(frame):
    return [contact.theorem_main_structure(frame, 1.3),
            contact.standard_structure(frame, 0.5), contact.standard_structure(frame, 2.0),
            contact.rectified_structure(frame, 1.0),
            contact.phi_q_structure(frame, 0.6, 1.7,
                                    MetricParams(0.9, 0.4, 1.1, 0.6 ** 2 * 0.4, 1.7 ** 2 * 1.1))]


FRAME_LABELS = ("sphere4", "cp2", "cp3", "hp1", "hp2")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(label=st.sampled_from(FRAME_LABELS), seed=st.integers(0, 2 ** 32 - 1))
def test_classify_is_frame_independent(frames, label, seed):
    """A paired signed permutation of each block leaves every residual dict bit for
    bit; a paired rotation, which fills cbar in, keeps the flags and the dense values."""
    frame = frames[label]
    rng = np.random.default_rng(seed)
    ref = contact.classify_all(invariance_structures(frame))
    permuted = paired_change_of_frame(frame, paired_blocks(frame, signed_permutation(rng)))
    assert contact.classify_all(invariance_structures(permuted)) == ref
    rotated = paired_change_of_frame(frame, paired_blocks(frame, rotation(rng)))
    assert np.count_nonzero(rotated.cbar) > np.count_nonzero(frame.cbar)
    structures = invariance_structures(rotated)
    for cls, want, st_ in zip(contact.classify_all(structures), ref, structures):
        assert cls == dense_classify(st_)
        assert cls.flags == want.flags


@settings(max_examples=25, deadline=None, derandomize=True)
@given(label=st.sampled_from(("sphere4", "cp3", "hp2", "CaP2")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scan_and_closed_forms_are_frame_independent(frames, label, seed):
    """A paired signed permutation leaves the uniqueness scan and the U-map
    closed-form residual bit for bit. A paired rotation keeps the closed forms
    and the scan's verdicts: it fills in d eta and ad_X off the pairing with
    entries of about 1e-17, which the scan folds into its residuals."""
    frame = frames[label]
    rng = np.random.default_rng(seed)
    kappa = float(np.exp(rng.uniform(-1, 1)))
    params = [MetricParams(*np.exp(rng.uniform(-2.3, 2.3, 5))) for _ in range(3)]
    permuted = paired_change_of_frame(frame, paired_blocks(frame, signed_permutation(rng)))
    assert contact.uniqueness_scan(permuted, kappa) == contact.uniqueness_scan(frame, kappa)
    got = suites.lemma_u_closed_forms_residual(permuted, params)
    assert got.shape == (3,)
    assert np.array_equal(got, suites.lemma_u_closed_forms_residual(frame, params))
    rotated = paired_change_of_frame(frame, paired_blocks(frame, rotation(rng)))
    assert np.all(suites.lemma_u_closed_forms_residual(rotated, params) < 1e-9)
    got, want = contact.uniqueness_scan(rotated, kappa), contact.uniqueness_scan(frame, kappa)
    for key in ("axes", "n_points", "n_passed", "theorem_point_passed", "unique"):
        assert got[key] == want[key], key
    assert got["min_failing_residual"] == pytest.approx(want["min_failing_residual"], rel=1e-12)
    assert got["max_passing_residual"] <= 1e-14


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
        got = homgeo.killing_residual(frame, np.diagonal(metric.gram), xi)
        want = dense_killing_residual(frame, metric, xi)
        assert got == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("label", LABELS)
def test_killing_and_axioms_stack_equal_single_calls(frames, label):
    """A stack of Gram diagonals, vectors and pairing phis gives exactly the
    residuals of one call per entry, whether xi, char and eta are shared or
    stacked too, and the axioms are those of the dense products."""
    frame = frames[label]
    rng = np.random.default_rng(46)
    diags = homgeo.gram_diagonal(frame, np.exp(rng.uniform(-1.5, 1.5, (7, 5))))
    xis = rng.normal(size=(7, frame.dim_mbar))
    for xi in (xis[0], xis):
        got = homgeo.killing_residual(frame, diags, xi)
        assert got.shape == (7,)
        assert np.array_equal(got, [homgeo.killing_residual(frame, d, x)
                                    for d, x in zip(diags, np.broadcast_to(xi, xis.shape))])
    n, p = frame.dim_mbar, frame.partner()
    f = rng.normal(size=(7, n))
    phi = np.zeros((7, n, n))
    phi[:, p, np.arange(n)] = f
    grams = diags[:, :, None] * np.eye(n)
    c0s, e0s = rng.normal(size=(2, 7, 1))
    for c0, e0 in ((c0s[0], e0s[0]), (c0s, e0s)):
        stacked = contact._pairing_axioms(frame, f, diags, c0, e0)
        char, eta = np.zeros((2,) + c0.shape[:-1] + (n,))
        char[..., :1], eta[..., :1] = c0, e0
        dense = axiom_residuals(phi, grams, char, eta)
        assert list(stacked) == list(dense)
        for name, value in dense.items():
            assert np.array_equal(stacked[name], value), name
        for k in range(7):
            single = contact._pairing_axioms(frame, f[k], diags[k],
                                             c0s[k] if c0.ndim == 2 else c0,
                                             e0s[k] if e0.ndim == 2 else e0)
            for name, value in single.items():
                assert np.shape(value) == ()
                assert value == (stacked[name] if np.ndim(stacked[name]) == 0
                                 else stacked[name][k])


@pytest.mark.parametrize("label", LABELS + ("sphere4",))
def test_u_tensor_equals_einsum(frames, label):
    """U on its support equals the einsum U bit for bit, for each metric alone
    and for the stack of them, and the einsum U is exactly +0.0 off the
    support, so a residual read on the support is the dense one."""
    frame = frames[label]
    i, j, w = frame.paired_support["u"]
    off = np.ones((frame.dim_mbar,) * 3, dtype=bool)
    off[i, j, w] = False
    assert np.count_nonzero(off) < off.size  # U is not zero everywhere
    coeffs = np.exp(np.random.default_rng(45).uniform(-2.3, 2.3, (20, 5)))
    stacked = homgeo.u_entries(frame, homgeo.gram_diagonal(frame, coeffs), i, j, w)
    for row, params in zip(stacked, coeffs):
        metric = homgeo.metric_from_params(frame, MetricParams(*params))
        want = einsum_u_tensor(frame, metric)
        assert np.array_equal(homgeo.u_entries(frame, np.diagonal(metric.gram), i, j, w),
                              want[i, j, w])
        assert np.array_equal(row, want[i, j, w])
        assert np.all(want[off] == 0.0) and not np.any(np.signbit(want[off]))


BLOCKS = ("a", "m_eps", "m_half", "k_eps", "k_half")


@pytest.mark.parametrize("label", LABELS)
def test_u_block_equals_einsum(frames, label):
    """U on every pair of frame blocks, and on the Cartan row against the whole
    frame, equals that part of the einsum U bit for bit."""
    frame = frames[label]
    s = frame.slices()
    rng = np.random.default_rng(47)
    for _ in range(3):
        metric = homgeo.metric_from_params(
            frame, MetricParams(*np.exp(rng.uniform(-2.3, 2.3, 5))))
        want = einsum_u_tensor(frame, metric)
        g = np.diagonal(metric.gram)
        for rows, cols in itertools.chain(itertools.product(BLOCKS, BLOCKS),
                                          [("a", None)]):
            rs, cs = s[rows], s[cols] if cols else slice(None)
            assert np.array_equal(homgeo.u_block(frame, g, rs, cs), want[rs, cs]), (rows, cols)


@pytest.mark.parametrize("label", LABELS)
def test_u_block_stack_equals_single_calls(frames, label):
    """Each metric of a stack gets exactly the U block of a call on its own."""
    frame = frames[label]
    s = frame.slices()
    diags = homgeo.gram_diagonal(
        frame, np.exp(np.random.default_rng(48).uniform(-2.3, 2.3, (6, 5))))
    for rows, cols in itertools.product(BLOCKS, BLOCKS):
        stacked = homgeo.u_block(frame, diags, s[rows], s[cols])
        assert stacked.shape == (6, s[rows].stop - s[rows].start,
                                 s[cols].stop - s[cols].start, frame.dim_mbar)
        for p, diag in enumerate(diags):
            assert np.array_equal(stacked[p], homgeo.u_block(frame, diag, s[rows], s[cols]))


def noisy_tensor(alg):
    """alg's tensor plus 1e-3 noise on every entry."""
    rng = np.random.default_rng(42)
    return alg.dense() + 1e-3 * rng.normal(size=(alg.dim,) * 3)


def sparsely_broken_tensor(alg):
    """alg's tensor with six antisymmetric pairs moved by 1e-3."""
    rng = np.random.default_rng(44)
    c = alg.dense()
    for i, j, k in rng.integers(alg.dim, size=(6, 3)):
        c[i, j, k] += 1e-3
        c[j, i, k] -= 1e-3
    return c


@pytest.mark.parametrize("label", LABELS)
def test_jacobi_matches_dense(frames, label):
    """Per-slice Jacobi maximum equals the dense one, also on a broken tensor."""
    alg = frames[label].alg
    for c in (alg.dense(), noisy_tensor(alg)):
        got = compactform.verify_algebra(with_tensor(alg, c))["residuals"]["jacobi"]
        want = dense_jacobi(c)
        assert got == pytest.approx(want, rel=RTOL, abs=1e-15)
    assert want > 1e-4


@pytest.mark.parametrize("space", [SpaceId(Family.CAYLEY_PLANE), SpaceId(Family.SPHERE, 9)],
                         ids=["CaP2", "sphere9"])
def test_jacobi_join_matches_dense(space, monkeypatch):
    """A sparse broken tensor takes the nonzero join, which equals the dense maximum."""
    alg = crossmodel.build_frame(space).alg
    c = sparsely_broken_tensor(alg)

    def no_dense(_):
        raise AssertionError("per-slice path taken on a sparse tensor")

    monkeypatch.setattr(compactform, "_jacobi_dense", no_dense)
    got = compactform.verify_algebra(with_tensor(alg, c))["residuals"]["jacobi"]
    want = dense_jacobi(c)
    assert got == pytest.approx(want, rel=RTOL, abs=0.0)
    assert want > 1e-4


def test_jacobi_join_fixed_points():
    """The cyclic sum is three times cc on a fixed point (a, a, a) of the rotation,
    and the Jacobi and ad-invariance joins of an all-zero (abelian) tensor are empty."""
    c = np.zeros((3, 3, 3))
    alg = compactform.CompactLieAlgebra(np.zeros((0, 3), dtype=int), np.zeros(0), np.eye(3))
    residuals = compactform.verify_algebra(alg)["residuals"]
    assert residuals["jacobi"] == residuals["ad_invariance"] == 0.0
    c[0, 0, 0], c[1, 1, 1], c[2, 0, 1] = 1.0, 2.0, 0.5
    got = compactform.verify_algebra(with_tensor(alg, c))["residuals"]["jacobi"]
    assert got == pytest.approx(dense_jacobi(c), rel=RTOL, abs=0.0)
    assert got == 12.0


def test_jacobi_negative_control():
    """Breaking any one antisymmetric pair of so(4) or su(3) by 1e-3 fails the Jacobi check."""
    for alg in (compactform.build_so_matrix_model(3),
                crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, 2)).alg):
        for i, j in itertools.combinations(range(alg.dim), 2):
            for k in range(alg.dim):
                c = alg.dense()
                c[i, j, k] += 1e-3
                c[j, i, k] -= 1e-3
                out = compactform.verify_algebra(with_tensor(alg, c))
                assert not out["passed"], (alg.dim, i, j, k)
                assert out["residuals"]["jacobi"] > 1e-4, (alg.dim, i, j, k)
                assert out["residuals"]["antisymmetry"] == 0.0


LADDER = ([SpaceId(Family.SPHERE, n) for n in range(2, 11)]
          + [SpaceId(Family.REAL_PROJECTIVE, n) for n in range(2, 7)]
          + [SpaceId(Family.COMPLEX_PROJECTIVE, n) for n in range(2, 7)]
          + [SpaceId(Family.QUATERNIONIC_PROJECTIVE, n) for n in range(1, 5)]
          + [SpaceId(Family.CAYLEY_PLANE)])


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_verify_algebra_equals_dense_scan(space):
    """The residuals from the entries equal the dense scan's on every ladder algebra."""
    alg = crossmodel.build_frame(space).alg
    np.testing.assert_equal(compactform.verify_algebra(alg),
                            dense_verify_algebra(alg.dense(), alg.inv_form))


def test_jacobi_join_does_not_depend_on_block_size(monkeypatch):
    """Each (orbit, l) run sums in term order, so any block bound, from one l
    per block to one block for the whole join, gives the residual of the
    default bound bit for bit, also on a broken tensor. The default splits
    the joins of HP^3, HP^4 and CaP2 into several blocks."""
    algs = [crossmodel.build_frame(SpaceId(*key)).alg
            for key in ((Family.COMPLEX_PROJECTIVE, 2), (Family.QUATERNIONIC_PROJECTIVE, 3),
                        (Family.QUATERNIONIC_PROJECTIVE, 4), (Family.CAYLEY_PLANE,))]
    algs.append(with_tensor(algs[-1], sparsely_broken_tensor(algs[-1])))
    for alg in algs[1:]:  # join terms: each c[i, j, m] meets the nnz(c[:, :, i]) left factors
        per_m = np.bincount(alg.index[:, 2], minlength=alg.dim)
        assert per_m[alg.index[:, 0]].sum() > 2 * compactform._JACOBI_BLOCK_TERMS
    want = [compactform._jacobi_max(alg) for alg in algs]
    assert want[-1] > 1e-4
    for bound in (1, 97, 4096, 1 << 21):
        monkeypatch.setattr(compactform, "_JACOBI_BLOCK_TERMS", bound)
        assert [compactform._jacobi_max(alg) for alg in algs] == want, bound


def test_stable_sort_keeps_positions_of_equal_keys():
    """The packed sort orders equal keys by position, as a stable sort does, and
    refuses keys that do not fit above the positions in an int64."""
    key = np.random.default_rng(3).integers(0, 7, size=500)
    got, order = compactform._stable_sort(key.copy())
    np.testing.assert_array_equal(order, np.argsort(key, kind="stable"))
    np.testing.assert_array_equal(got, key[order])
    with pytest.raises(compactform.AlgebraError):
        compactform._stable_sort(np.array([1 << 62, 0]))


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_bracket_laws_equal_projection_oracle(space):
    """The frame-coordinate laws and the projection oracle agree on the verdict
    and on every inclusion residual; the laws add the frame_basis check."""
    frame = crossmodel.build_frame(space)
    got = crossmodel.verify_bracket_laws(frame)
    want = projection_bracket_laws(frame)
    assert got["passed"] == want["passed"]
    assert list(got["checks"]) == list(want["checks"]) + ["frame_basis"]
    for name, value in want["checks"].items():
        if name.startswith("["):
            assert abs(got["checks"][name] - value) <= 1e-14, name


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_bracket_laws_equal_inclusion_loop(space):
    """The one masked product gives the checks, verdict and inclusion residuals
    of one mask and copy per inclusion."""
    frame = crossmodel.build_frame(space)
    got = crossmodel.verify_bracket_laws(frame)
    want = loop_bracket_laws(frame)
    assert got["passed"] == want["passed"] is True
    assert list(got["checks"]) == list(want["checks"])
    for name, value in want["checks"].items():
        assert abs(got["checks"][name] - value) <= 1e-15, name


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_ad_invariance_negative_control(space):
    """One diagonal entry of the invariant form scaled by 1 + 1e-3 breaks
    ad-invariance; the entry join and the dense product report the same residual."""
    alg = crossmodel.build_frame(space).alg
    g = alg.inv_form.copy()
    g[-1, -1] *= 1 + 1e-3
    broken = dataclasses.replace(alg, inv_form=g)
    got = compactform.verify_algebra(broken)
    assert got["residuals"]["ad_invariance"] == dense_ad_invariance(alg.dense(), g)
    assert got["residuals"]["ad_invariance"] > 1e-4
    assert not got["passed"]


def dense_cbar(frame):
    """<[e_i, e_j], e_k> over the mbar frame, projected from the dense tensor."""
    return bracket_table(frame.alg.dense(), frame.mbar, frame.mbar) @ (frame.ip @ frame.mbar)


def allowed_triples(frame):
    """True on the entries of cbar whose block triple the inclusion table allows,
    with both orders of each pair of blocks."""
    blocks = frame.slices()
    allowed = np.zeros((frame.dim_mbar,) * 3, dtype=bool)
    for s1, s2, tgt in INCLUSIONS:
        for t in tgt:
            if s1 in blocks and t in blocks:
                allowed[blocks[s1], blocks[s2], blocks[t]] = True
                allowed[blocks[s2], blocks[s1], blocks[t]] = True
    return allowed


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_cbar_bytes_equal_dense_projection(space):
    """On the block triples the inclusion table allows, cbar is the plain loop
    over the bracket entries byte for byte, and within 2.3e-16 of the
    dense-tensor projection, which sums in BLAS's order where the kernel sums
    in entry order."""
    frame = crossmodel.build_frame(space)
    allowed = allowed_triples(frame)
    loop = loop_frame_brackets(frame.alg, frame.ip, frame.mbar, frame.mbar, frame.mbar)
    assert frame.cbar[allowed].tobytes() == loop[allowed].tobytes()
    assert np.max(np.abs(frame.cbar - dense_cbar(frame))[allowed]) <= 2.3e-16


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_cbar_zero_outside_inclusions(space):
    """Outside the allowed block triples cbar is exactly 0, and the dense
    projection and the kernel's unmasked output there hold only rounding,
    below 1e-16."""
    frame = crossmodel.build_frame(space)
    outside = ~allowed_triples(frame)
    assert np.all(frame.cbar[outside] == 0.0)
    unmasked = crossmodel._frame_brackets(frame.alg, frame.ip, frame.mbar, frame.mbar, frame.mbar)
    for t in (dense_cbar(frame), unmasked):
        assert np.max(np.abs(t[outside]), initial=0.0) < 1e-16


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_frame_path_builds_no_dense_tensor(space, monkeypatch):
    """Building a frame and checking it and its algebra never form the dim^3
    tensor: with dense() refused, every ladder space still builds and passes."""
    def no_dense(_):
        raise AssertionError("dense bracket tensor built")

    monkeypatch.setattr(compactform.CompactLieAlgebra, "dense", no_dense)
    frame = crossmodel.restricted_frame(crossmodel.build_pair(space))
    assert crossmodel.verify_bracket_laws(frame)["passed"]
    assert compactform.verify_algebra(frame.alg)["passed"]
    if space.family is Family.COMPLEX_PROJECTIVE:
        assert crossmodel.fixture_check_cp2_brackets(frame)["passed"]


@pytest.mark.parametrize("space", [SpaceId(Family.QUATERNIONIC_PROJECTIVE, 1),
                                   SpaceId(Family.COMPLEX_PROJECTIVE, 4),
                                   SpaceId(Family.CAYLEY_PLANE)], ids=SpaceId.label)
def test_frame_brackets_match_dense_on_rotated_frames(space):
    """The entry scatter equals the dense product within 1e-15 on frames that
    are not sparse: mbar rotated by a random element of O(m_eps) x O(m_half),
    the same on xi and zeta, alone and as [mbar | h] on all three sides."""
    frame = crossmodel.build_frame(space)
    mbar = frame.mbar @ paired_blocks(frame, rotation(np.random.default_rng(27)))
    assert np.count_nonzero(mbar) > np.count_nonzero(frame.mbar)
    c = frame.alg.dense()
    for basis in (mbar, np.column_stack((mbar, frame.h_basis))):
        got = crossmodel._frame_brackets(frame.alg, frame.ip, basis, basis, basis)
        want = bracket_table(c, basis, basis) @ (frame.ip @ basis)
        assert np.max(np.abs(got - want)) <= 1e-15


ROTATED = [SpaceId(Family.QUATERNIONIC_PROJECTIVE, 1), SpaceId(Family.COMPLEX_PROJECTIVE, 4),
           SpaceId(Family.CAYLEY_PLANE)]


@pytest.mark.parametrize("space", ROTATED, ids=SpaceId.label)
def test_bracket_laws_on_rotated_frames(space, monkeypatch):
    """On the rotated frames above the law tensor has terms on most coordinates
    (590,924 on CaP2). The term sums equal the loop on the dense product
    within 1e-15; the rows before the last of each block hold fewer than
    _TERM_BLOCK terms; and any block bound, from one row per block to one
    block for the whole tensor, gives the same checks bit for bit."""
    frame = crossmodel.build_frame(space)
    mbar = frame.mbar @ paired_blocks(frame, rotation(np.random.default_rng(27)))
    rotated = dataclasses.replace(frame, mbar=mbar)
    got = crossmodel.verify_bracket_laws(rotated)
    want = loop_bracket_laws(rotated)
    assert got["passed"] == want["passed"] is True
    assert list(got["checks"]) == list(want["checks"])
    for name, value in want["checks"].items():
        assert abs(got["checks"][name] - value) <= 1e-15, name

    # terms of row r of T: one per nonzero full[i, r], entry (i, j, k), and
    # nonzero of mbar[j] and of (ip full)[k]
    full = np.column_stack((mbar, frame.h_basis))
    i, j, k = frame.alg.index.T
    fan = np.count_nonzero(mbar, axis=1)[j] * np.count_nonzero(frame.ip @ full, axis=1)[k]
    per_row = (full != 0).T @ np.bincount(i, weights=fan, minlength=frame.alg.dim)
    widths = []
    term_sums = compactform._term_sums

    def recorded(index, values, xs, ys, zs):
        widths.append(xs.shape[1])
        return term_sums(index, values, xs, ys, zs)

    monkeypatch.setattr(compactform, "_term_sums", recorded)
    assert crossmodel.verify_bracket_laws(rotated) == got
    edges = np.cumsum([0] + widths)
    assert edges[-1] == full.shape[1]
    for lo, hi in zip(edges[:-1], edges[1:]):
        assert per_row[lo:hi - 1].sum() < compactform._TERM_BLOCK
    if space.family is Family.CAYLEY_PLANE:
        assert len(widths) > 10
    for bound in (1, 1 << 40):
        monkeypatch.setattr(compactform, "_TERM_BLOCK", bound)
        assert crossmodel.verify_bracket_laws(rotated) == got, bound


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_frame_brackets_do_not_depend_on_the_term_block(space, monkeypatch):
    """Each term sum adds its terms in entry order whatever the blocks, so cbar
    and the complex-projective scalars are the same bit for bit with one row
    per block, the default bound and the whole table in one block."""
    pair = crossmodel.build_pair(space)

    def outputs():
        frame = crossmodel.restricted_frame(pair)
        if space.family is Family.COMPLEX_PROJECTIVE:
            return frame.cbar.tobytes(), crossmodel.fixture_check_cp2_brackets(frame)
        return frame.cbar.tobytes(), None

    want = outputs()
    for bound in (1, 1 << 40):
        monkeypatch.setattr(compactform, "_TERM_BLOCK", bound)
        assert outputs() == want, bound


@pytest.mark.parametrize("space", [SpaceId(Family.QUATERNIONIC_PROJECTIVE, 4),
                                   SpaceId(Family.CAYLEY_PLANE),
                                   SpaceId(Family.COMPLEX_PROJECTIVE, 13)], ids=SpaceId.label)
def test_frame_and_laws_hold_no_bracket_table(space):
    """Neither restricted_frame nor verify_bracket_laws holds a dim g^2 x dim mbar
    table of brackets: on CP^13 (dim g 195) each peaks below a quarter of one,
    and on HP^4 and CaP2, where F, ip F, the pairing differences and the term
    arrays are already a fair part of one, below one. The frame's peak is
    counted without the cbar it returns, which alone is 0.32 (HP^4) and 0.36
    (CaP2) of a table."""
    pair = crossmodel.build_pair(space)
    pair.m_basis, pair.k_basis  # the pair's own cached bases
    tracemalloc.start()
    try:
        frame = crossmodel.restricted_frame(pair)
        frame_peak = tracemalloc.get_traced_memory()[1] - frame.cbar.nbytes
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert crossmodel.verify_bracket_laws(frame)["passed"]
        laws_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    table = pair.alg.dim ** 2 * frame.dim_mbar * 8
    bound = table / 4 if pair.alg.dim > 100 else table
    assert frame_peak < bound
    assert laws_peak < bound


@pytest.mark.parametrize("space", LADDER, ids=SpaceId.label)
def test_bracket_laws_do_not_read_cbar(space):
    """verify_bracket_laws reads its own unmasked table: a frame whose cbar is all
    zeros gives the same checks and verdict bit for bit."""
    frame = crossmodel.build_frame(space)
    got = crossmodel.verify_bracket_laws(dataclasses.replace(frame, cbar=np.zeros_like(frame.cbar)))
    want = crossmodel.verify_bracket_laws(frame)
    assert got["passed"] == want["passed"]
    assert list(got["checks"]) == list(want["checks"])
    for name, value in want["checks"].items():
        assert np.float64(got["checks"][name]).tobytes() == np.float64(value).tobytes(), name


def test_verify_algebra_equals_dense_scan_when_broken(frames):
    """... and on the noisy, sparsely broken and NaN tensors above."""
    algs = [with_tensor(frames[label].alg, noisy_tensor(frames[label].alg)) for label in LABELS]
    algs += [with_tensor(alg, sparsely_broken_tensor(alg))
             for alg in (frames["CaP2"].alg,
                         crossmodel.build_frame(SpaceId(Family.SPHERE, 9)).alg)]
    full = np.argwhere(np.ones((6, 6, 6)))
    algs += [dataclasses.replace(compactform.build_so_matrix_model(3), index=full,
                                 values=np.ones(len(full))),
             compactform.build_so_matrix_model(3)]
    algs[-2].values[...] = np.nan
    algs[-1].values[0] = np.nan
    for alg in algs:
        got = compactform.verify_algebra(alg)
        np.testing.assert_equal(got, dense_verify_algebra(alg.dense(), alg.inv_form))
        assert not got["passed"]


def scan_grid_params(kappa, axes, grid):
    """The uniqueness scan's grid points, in itertools.product order, with the
    theorem value kappa/2 (eps axes) or kappa/4 (half axes) at index
    (grid - 1) // 2 of each axis."""
    grids = []
    for k in axes:
        t = kappa / 2.0 if k.endswith("eps") else kappa / 4.0
        g = np.geomspace(t / 2.0, t * 2.0, grid)
        g[(grid - 1) // 2] = t
        grids.append(g)
    out = []
    for combo in itertools.product(*grids):
        vals = dict(zip(axes, combo))
        out.append(MetricParams(kappa, vals["a_eps"], vals.get("a_half", 1.0),
                                vals["b_eps"], vals.get("b_half", 1.0)))
    return out


@pytest.mark.parametrize("label", ["cp2", "hp1"])
def test_uniqueness_scan_matches_pointwise(frames, label, monkeypatch):
    """Batched grid residuals equal the pointwise candidate residuals, in order."""
    frame = frames[label]
    kernel = contact._k_contact_candidate_residuals
    calls = []

    def capture(frame, kappa, diags):
        calls.append((diags, kernel(frame, kappa, diags)))
        return calls[-1][1]

    monkeypatch.setattr(contact, "_k_contact_candidate_residuals", capture)
    for kappa in (1.0, 2.3):
        scan = contact.uniqueness_scan(frame, kappa, 5)
        [(diags, got)] = calls
        calls.clear()
        axes = scan["axes"]
        combos = scan_grid_params(kappa, axes, 5)
        assert scan["n_points"] == len(got) == len(combos) == 5 ** len(axes)
        want = []
        for p, params in enumerate(combos):
            metric = homgeo.metric_from_params(frame, params)
            assert np.array_equal(diags[p], np.diagonal(metric.gram))  # parameter order
            want.append(k_contact_candidate_residual(frame, kappa, params))
            assert got[p] == pytest.approx(want[p], rel=RTOL, abs=0.0)
        passing = np.array(want) <= 1e-9
        assert scan["n_passed"] == np.count_nonzero(passing)
        assert scan["theorem_point_passed"] == passing[(len(combos) - 1) // 2]
        assert scan["theorem_point_passed"] and scan["unique"]


def test_uniqueness_scan_grid_6_matches_pointwise(cp2):
    """A 4-axis grid of size 6 has 1296 points, and only the theorem point
    passes, as many as the pointwise residuals count."""
    scan = contact.uniqueness_scan(cp2, 1.0, grid_size=6)
    assert scan["axes"] == ["a_eps", "b_eps", "a_half", "b_half"]
    assert scan["n_points"] == 1296
    assert scan["n_passed"] == 1 and scan["unique"]
    want = [k_contact_candidate_residual(cp2, 1.0, params)
            for params in scan_grid_params(1.0, scan["axes"], 6)]
    assert scan["n_passed"] == np.count_nonzero(np.array(want) <= 1e-9)

def dense_candidate_residuals(frame, kappa, diags):
    """The scan's residuals as dense products over one dim_mbar^2 matrix per metric."""
    phi = -kappa * (contact.d_eta_matrix(frame) / diags[:, :, None])
    char, eta = np.zeros((2, frame.dim_mbar))
    char[0], eta[0] = 1.0 / kappa, kappa
    axioms = axiom_residuals(phi, diags[:, :, None] * np.eye(frame.dim_mbar), char, eta)
    return np.maximum(np.maximum(axioms["phi_squared"], axioms["compatibility"]),
                      homgeo.killing_residual(frame, diags, kappa * char))


@pytest.mark.parametrize("space", suites.TABLE1_SPACES + [SpaceId(Family.SPHERE, 10)],
                         ids=SpaceId.label)
def test_scan_residuals_equal_dense(space, monkeypatch):
    """The pairing-vector residuals equal the dense products bit for bit."""
    frame = crossmodel.build_frame(space)
    pairing = contact._k_contact_candidate_residuals
    equal = []

    def both(frame, kappa, diags):
        got = pairing(frame, kappa, diags)
        equal.append(np.array_equal(got, dense_candidate_residuals(frame, kappa, diags)))
        return got

    monkeypatch.setattr(contact, "_k_contact_candidate_residuals", both)
    for _, kappa in CAYLEY_PARAMS:
        for grid in (3, 5):
            contact.uniqueness_scan(frame, kappa, grid)
    assert equal == [True] * 2 * len(CAYLEY_PARAMS)


def loop_phi_matrix(frame, q_eps, q_half):
    """phi filled one xi/zeta pair at a time."""
    phi = np.zeros((frame.dim_mbar, frame.dim_mbar))
    s = frame.slices()
    for block, q in (("eps", q_eps), ("half", q_half)):
        xi, ze = s[f"m_{block}"], s[f"k_{block}"]
        for i, j in zip(range(xi.start, xi.stop), range(ze.start, ze.stop)):
            phi[j, i] = -1.0 / q
            phi[i, j] = q
    return phi


@pytest.mark.parametrize("label", ["sphere3", "sphere4", "rp3", "cp3", "hp1", "CaP2"])
def test_phi_matrix_equals_loop(frames, label):
    frame = frames[label]
    for q_eps, q_half in ((1.0, 1.0), (0.37, 0.185), (3.0, 0.7), (1 / 3, 7.0)):
        assert np.array_equal(contact.phi_matrix(frame, q_eps, q_half),
                              loop_phi_matrix(frame, q_eps, q_half))


def pointwise_lemma_u_residual(frame, params):
    """The closed-form deviations of the U-map, one index pair at a time."""
    u = einsum_u_tensor(frame, homgeo.metric_from_params(frame, params))
    c = frame.cbar
    e = np.eye(frame.dim_mbar)
    a, ae, ah, be, bh = params.as_tuple()
    a2 = a * a
    s = frame.slices()
    eps = list(zip(range(s["m_eps"].start, s["m_eps"].stop),
                   range(s["k_eps"].start, s["k_eps"].stop)))
    half = list(zip(range(s["m_half"].start, s["m_half"].stop),
                    range(s["k_half"].start, s["k_half"].stop)))
    devs = [u[0, 0]]
    for xi, ze in eps:
        devs += [u[0, xi] - (a2 - ae) / (2 * be) * e[ze],
                 u[0, ze] - (be - a2) / (2 * ae) * e[xi],
                 u[xi, ze] - (ae - be) / (2 * a2) * e[0]]
        devs += [u[xi, xk] for xk, _ in eps]
        devs += [u[xi, zk] for _, zk in eps if zk != ze]
    for xh, zh in half:
        devs += [u[0, xh] - (a2 - ah) / (4 * bh) * e[zh],
                 u[0, zh] - (bh - a2) / (4 * ah) * e[xh]]
        for xi, ze in eps:
            devs += [u[xi, xh] - (ah - ae) / (2 * bh) * c[xi, xh],
                     u[xi, zh] - (bh - ae) / (2 * ah) * c[xi, zh],
                     u[xh, ze] - (be - ah) / (2 * ah) * c[xh, ze],
                     u[ze, zh] - (bh - be) / (2 * bh) * c[ze, zh]]
        for _, zq in half:
            m_eps_part = np.zeros(frame.dim_mbar)
            m_eps_part[s["m_eps"]] = c[xh, zq, s["m_eps"]]
            delta = e[0] / (2 * a2) if zq == zh else 0.0
            devs.append(u[xh, zq] - (ah - bh) / 2 * (delta - m_eps_part / ae))
    return max(float(np.max(np.abs(d))) for d in devs)


@pytest.mark.parametrize("label", ["cp3", "hp2", "sphere4", "CaP2"])
def test_lemma_u_residual_matches_pointwise(frames, label):
    """The stacked closed-form residuals equal the pointwise loop exactly, metric
    by metric."""
    rng = np.random.default_rng(5)
    frame = frames[label]
    params = [MetricParams(*np.exp(rng.uniform(-2.3, 2.3, 5))) for _ in range(20)]
    got = suites.lemma_u_closed_forms_residual(frame, params)
    assert got.shape == (20,)
    for p, res in zip(params, got):
        assert res == pointwise_lemma_u_residual(frame, p)


def test_criterion_03_is_one_stacked_pass_per_space(monkeypatch):
    """Criterion 03 checks its 50 metrics per space in one call, and peaks
    below 2 MB: U is solved per block pair, never as a stack of whole tensors."""
    kernel = suites.lemma_u_closed_forms_residual
    sizes = []

    def count(frame, params):
        sizes.append(len(params))
        return kernel(frame, params)

    suites.criterion_03_u_closed_forms(compactform.DEFAULT_TOL, 5)  # frames built first
    monkeypatch.setattr(suites, "lemma_u_closed_forms_residual", count)
    tracemalloc.start()
    try:
        check = suites.criterion_03_u_closed_forms(compactform.DEFAULT_TOL, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.passed and check.residual < 1e-9
    assert sizes == [50, 50]
    assert peak < 2e6
