"""Reference forms of package residuals and constructions, for the tests only.

The package evaluates the almost contact metric axioms and the normality
tensor on the xi/zeta pairing of the frame (contact._pairing_axioms and
contact._nijenhuis_on_support). The forms below take the whole matrices and
tensors, as the package once did, and the tests require the two to agree bit
for bit. The package reads the bracket laws in frame coordinates
(crossmodel.verify_bracket_laws), all 18 inclusions from one product with a
0/1 mask, on a table that crossmodel._frame_brackets scatters from the
bracket entries. loop_bracket_laws reads them one inclusion at a time from
the dense product bracket_table, and projection_bracket_laws projects
algebra vectors onto spans instead; the tests require all three to agree.
compactform.verify_algebra joins the bracket entries with the invariant
form for the ad-invariance residual; dense_ad_invariance takes the dense
product c @ g. crossmodel.SymmetricPair rejects signs whose sigma fails
s_i s_j = s_k on a bracket entry; sigma_automorphism_residual compares
sigma[x, y] with [sigma x, sigma y] on the dense tensor instead.

The root system is built on coefficient tuples and table positions
(rootsys.generate_positive_roots and assign_structure_constants); the
generator and assigner below do the same with the Root objects defined here
and their arithmetic, as the package once did, and the tests require the
roots and the structure constants to agree byte for byte. The package finds
each |N(a, b)| from the a-string through b on coefficient tuples;
root_string and n_magnitude walk it with Root objects. inner and signed_n
read <a, b> and N(a, b) from rs.gram and rs.n through their own row map.

Acceptance criteria 03, 04 and 10 read their sample rows from the package
file samples.json; draw_samples makes them from the seeded generators the
criteria once drew from, and the tests require the two to be equal.

CAYLEY_PARAMS are the (radius, kappa) pairs of the benchmark's cayley
workload, which several tests sweep.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from crosscontact import compactform, rootsys, tanbundle
from crosscontact.rootsys import RootSystemError


@dataclass(frozen=True)
class Root:
    """A root as integer coefficients over the simple basis, with root arithmetic."""

    coeffs: tuple

    @property
    def height(self):
        return sum(self.coeffs)

    def __add__(self, other):
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Root(tuple(-a for a in self.coeffs))

    def is_positive(self):
        return any(self.coeffs) and all(a >= 0 for a in self.coeffs)

    def sort_key(self):
        return (self.height, self.coeffs)


# the (radius, kappa) pairs of the benchmark's cayley workload
CAYLEY_PARAMS = ((0.37, 2.3), (1.7, 0.6), (0.8, 1.9), (1.25, 0.75),
                 (0.6, 0.45), (2.0, 3.0), (1.0, 1.5), (0.45, 1.2))


def positive_root_objects(rs):
    """The positive roots of rs as Root objects, in its (height, lex) order."""
    return [Root(c) for c in rs.positive_roots]


def axiom_residuals(phi, gram, char, eta):
    """Residuals of the almost contact metric axioms as dense products.

    Leading axes of phi, gram, char and eta stack several structures; each
    residual has the broadcast of those axes.
    """
    eye = np.eye(char.shape[-1])
    outer = char[..., :, None] * eta[..., None, :]
    return {
        "phi_squared": np.max(np.abs(phi @ phi + eye - outer), axis=(-2, -1)),
        "eta_char": np.abs(np.sum(eta * char, axis=-1) - 1.0),
        "phi_char": np.max(np.abs(np.sum(phi * char[..., None, :], axis=-1)), axis=-1),
        "eta_phi": np.max(np.abs(np.sum(eta[..., :, None] * phi, axis=-2)), axis=-1),
        "compatibility": np.max(np.abs(np.swapaxes(phi, -2, -1) @ gram @ phi - gram
                                       + eta[..., :, None] * eta[..., None, :]),
                                axis=(-2, -1)),
    }


def nijenhuis_tensor(structure):
    """Normality tensor N(e_i, e_j) (Nijenhuis torsion plus the 2 d eta term)."""
    c = structure.frame.cbar
    phi = structure.phi
    phi_c = phi.T @ c
    t2 = np.tensordot(phi, phi_c, axes=(0, 0))  # [phi e_i, phi e_j]
    t3 = np.tensordot(phi, c @ phi.T, axes=(0, 0))  # phi [phi e_i, e_j]
    t4 = phi_c @ phi.T  # phi [e_i, phi e_j]
    return -c + t2 - t3 - t4


def dense_ad_invariance(c, g):
    """max |t[i,j,l] + t[i,l,j]| with t = c @ g, c the dense bracket tensor."""
    t = c @ g
    return float(np.max(np.abs(t + np.transpose(t, (0, 2, 1)))))


def bracket_table(c, xs, ys):
    """T[i, j] = [x_i, y_j] over the columns x_i of xs and y_j of ys, c the dense tensor."""
    return np.tensordot(xs, ys.T @ c, axes=(0, 0))


def sigma_automorphism_residual(alg, signs):
    """Max |sigma[x,y] - [sigma x, sigma y]| over basis pairs, sigma = diag(signs)."""
    s, c = np.diag(signs), alg.dense()
    lhs = c @ s.T
    rhs = bracket_table(c, s, s)
    return float(np.max(np.abs(lhs - rhs)))


INCLUSIONS = [
    ("h", "m_eps", ("m_eps",)), ("h", "m_half", ("m_half",)),
    ("h", "k_eps", ("k_eps",)), ("h", "k_half", ("k_half",)),
    ("a", "m_eps", ("k_eps",)), ("a", "m_half", ("k_half",)),
    ("a", "k_eps", ("m_eps",)), ("a", "k_half", ("m_half",)),
    ("m_eps", "m_eps", ("h",)), ("m_eps", "m_half", ("k_half",)),
    ("m_eps", "k_eps", ("a",)), ("m_eps", "k_half", ("m_half",)),
    ("m_half", "m_half", ("h", "k_eps")), ("m_half", "k_eps", ("m_half",)),
    ("m_half", "k_half", ("a", "m_eps")),
    ("k_eps", "k_eps", ("h",)), ("k_eps", "k_half", ("k_half",)),
    ("k_half", "k_half", ("h", "k_eps")),
]


def loop_bracket_laws(frame, tol=compactform.DEFAULT_TOL):
    """verify_bracket_laws with a boolean mask and a copy of the out-of-target
    coordinates per inclusion, in place of the one masked product, on the
    table from the dense tensor in place of the entry scatter."""
    full = np.column_stack((frame.mbar, frame.h_basis))
    blocks = {**frame.slices(), "h": slice(frame.dim_mbar, full.shape[1])}
    t = bracket_table(frame.alg.dense(), full, frame.mbar) @ (frame.ip @ full)
    checks = {}
    for s1, s2, tgt in INCLUSIONS:
        outside = np.ones(full.shape[1], dtype=bool)
        for name in tgt:
            outside[blocks[name]] = False
        b = t[blocks[s1], blocks[s2]][..., outside]
        checks[f"[{s1},{s2}]c{'+'.join(tgt)}"] = float(
            np.sqrt(np.max(np.sum(b * b, axis=-1), initial=0.0)))
    me, mh, ke, kh = (blocks[n] for n in ("m_eps", "m_half", "k_eps", "k_half"))
    pairing = [t[me, mh] - t[ke, kh], t[ke, mh] + t[me, kh]]
    checks["eps_half_pairing"] = float(np.max(np.abs(pairing), initial=0.0))
    checks["frame_basis"] = (float(np.max(np.abs(full.T @ frame.ip @ full - np.eye(len(full)))))
                             if full.shape[0] == full.shape[1] else np.inf)
    passed = all(tol.is_zero(v) for v in checks.values())
    return {"checks": checks, "passed": passed}


def _proj_residual(ip, vecs, onto):
    """Largest norm of the component of a row of vecs outside the span of onto's columns."""
    rem = vecs - (vecs @ ip @ onto) @ onto.T
    return float(np.sqrt(np.max(np.sum((rem @ ip) * rem, axis=1), initial=0.0)))


def projection_bracket_laws(frame, tol=compactform.DEFAULT_TOL):
    """The bracket inclusions and eps/half pairing identities by projection onto
    spans of algebra vectors, with the blocks taken from mbar and h_basis."""
    alg, ip = frame.alg, frame.ip
    sub = {name: frame.mbar[:, s] for name, s in frame.slices().items()}
    sub["h"] = frame.h_basis

    def span(*names):
        cols = [sub[n] for n in names if sub[n].shape[1]]
        return np.column_stack(cols) if cols else np.zeros((alg.dim, 0))

    c = alg.dense()

    def br(s1, s2):
        return bracket_table(c, sub[s1], sub[s2])

    checks = {}
    for s1, s2, tgt in INCLUSIONS:
        vecs = br(s1, s2).reshape(-1, alg.dim)
        checks[f"[{s1},{s2}]c{'+'.join(tgt)}"] = _proj_residual(ip, vecs, span(*tgt))
    checks["eps_half_pairing"] = max(
        float(np.max(np.abs(br("m_eps", "m_half") - br("k_eps", "k_half")), initial=0.0)),
        float(np.max(np.abs(br("k_eps", "m_half") + br("m_eps", "k_half")), initial=0.0)))
    passed = all(tol.is_zero(v) for v in checks.values())
    return {"checks": checks, "passed": passed}


@functools.cache
def _rows(positive_roots):
    """Coefficient tuple -> row of RootSystem.n: alpha_p at p, -alpha_p at P + p."""
    size = len(positive_roots)
    rows = {r: p for p, r in enumerate(positive_roots)}
    rows.update({tuple(-a for a in r): size + p for p, r in enumerate(positive_roots)})
    return rows


def inner(rs, alpha, beta):
    """Killing-normalized <alpha, beta> of two coefficient tuples, from rs.gram."""
    return float(np.array(alpha) @ rs.gram @ np.array(beta))


def signed_n(rs, a, b):
    """N(a, b) for roots a, b of either sign, read from the table rs.n."""
    rows = _rows(rs.positive_roots)
    try:
        return float(rs.n[rows[a.coeffs], rows[b.coeffs]])
    except KeyError as exc:
        raise RootSystemError(f"{exc.args[0]} is not a root") from None


def positive_roots_by_objects(basis):
    """rootsys.generate_positive_roots with Root arithmetic in the closure."""
    rank = basis.rank
    simple = [Root(tuple(int(i == j) for i in range(rank))) for j in range(rank)]
    roots = {r.coeffs for r in simple}
    height = 1
    while True:
        level = [Root(c) for c in roots if sum(c) == height]
        if not level:
            break
        for beta in level:
            for j, alpha in enumerate(simple):
                p = 0
                down = beta
                while (down - alpha).is_positive() and (down - alpha).coeffs in roots:
                    down = down - alpha
                    p -= 1
                pairing = int(sum(n * basis.cartan_matrix[k, j]
                                  for k, n in enumerate(beta.coeffs)))
                up = beta
                for _ in range(-p - pairing):
                    up = up + alpha
                    roots.add(up.coeffs)
        height += 1
    ordered = sorted((Root(c) for c in roots), key=Root.sort_key)
    mu = ordered[-1]
    for r in ordered:
        if any(m < n for m, n in zip(mu.coeffs, r.coeffs)):
            raise RootSystemError("maximal root does not dominate all positive roots")
    return tuple(r.coeffs for r in ordered)


def structure_constants_by_objects(basis, roots, gram):
    """rootsys.RootSystem.of with Root arithmetic and signed_n lookups in the
    assignment: the table is filled in place, read through signed_n as it grows."""
    size = len(roots)
    rs = rootsys.RootSystem(basis, roots, gram, np.zeros((2 * size, 2 * size)))
    row = _rows(roots)
    pos = positive_root_objects(rs)
    table = rs.n

    def put(a, b, val):
        i, j, k = (row[r.coeffs] for r in (a, b, -(a + b)))
        for x, y in ((i, j), (j, k), (k, i)):
            nx, ny = (x + size) % (2 * size), (y + size) % (2 * size)
            table[x, y] = table[ny, nx] = val
            table[y, x] = table[nx, ny] = -val

    for gamma in pos:
        if gamma.height < 2:
            continue
        pairs = []
        for alpha in pos:
            if alpha.sort_key() >= gamma.sort_key():
                break
            beta = gamma - alpha
            if beta.coeffs in row and row[alpha.coeffs] <= row[beta.coeffs]:
                pairs.append((alpha, beta))
        pairs.sort(key=lambda ab: ab[0].sort_key())
        a1, b1 = pairs[0]
        put(a1, b1, n_magnitude(rs, a1, b1))
        for alpha, beta in pairs[1:]:
            denom = signed_n(rs, gamma, -a1)
            t1 = signed_n(rs, -a1, alpha)
            t1 = t1 * signed_n(rs, alpha - a1, beta) if t1 else 0.0
            t2 = signed_n(rs, beta, -a1)
            t2 = t2 * signed_n(rs, beta - a1, alpha) if t2 else 0.0
            val = -(t1 + t2) / denom
            want = n_magnitude(rs, alpha, beta)
            if abs(abs(val) - want) > 1e-9 * max(1.0, want):
                raise RootSystemError(
                    f"sign propagation inconsistent at {alpha.coeffs}+{beta.coeffs}")
            put(alpha, beta, val)
    return rs


def is_root(rs, r):
    """Whether the Root r is a root of rs, of either sign."""
    return r.coeffs in _rows(rs.positive_roots)


def root_string(rs, alpha, beta):
    """The alpha-string through beta: beta + n*alpha is a root for p <= n <= q."""
    if alpha.coeffs == beta.coeffs or alpha.coeffs == (-beta).coeffs:
        raise RootSystemError("root string undefined for alpha = +-beta")
    p = 0
    cur = beta
    while is_root(rs, cur - alpha):
        cur = cur - alpha
        p -= 1
    q = 0
    cur = beta
    while is_root(rs, cur + alpha):
        cur = cur + alpha
        q += 1
    return p, q


def n_magnitude(rs, alpha, beta):
    """|N(alpha,beta)| = sqrt(q(1-p)/2 * <alpha,alpha>) from the alpha-string."""
    p, q = root_string(rs, alpha, beta)
    return math.sqrt(q * (1 - p) / 2.0 * inner(rs, alpha.coeffs, alpha.coeffs))


def draw_samples():
    """The rows of samples.json, drawn as criteria 03, 04 and 10 once drew them.

    criterion_03: 2 x 50 rows of metric coefficients (seed 7); criterion_04:
    60 rows (r, a, q_eps, q_half), the odd ones followed by a drawn
    (a_eps, a_half) (seed 21); criterion_10: 30 rows (t, c, the FNS_KEYS
    values, force flag) (seed 30).
    """
    rng = np.random.default_rng(7)
    c03 = []
    for _space in range(2):
        c03 += [[float(v) for v in np.exp(rng.uniform(-2.3, 2.3, 5))] for _ in range(50)]

    rng = np.random.default_rng(21)
    c04 = []
    for trial in range(60):
        r = float(np.exp(rng.uniform(-1, 1)))
        a = float(np.exp(rng.uniform(-1, 1)))
        qe, qh = (float(v) for v in np.exp(rng.uniform(-1, 1, 2)))
        row = [r, a, qe, qh]
        if trial % 2 == 1:  # even trials force the criterion to hold
            row += [float(v) for v in np.exp(rng.uniform(-1, 1, 2))]
        c04.append(row)

    rng = np.random.default_rng(30)
    c10 = []
    for _ in range(30):
        t = float(np.exp(rng.uniform(-1, 1)))
        c = float(np.exp(rng.uniform(-1, 1)))
        vals = [float(np.exp(rng.uniform(-1, 1))) for _k in tanbundle.FNS_KEYS]
        force = bool(rng.random() < 0.5)  # force the Hermitian conditions
        c10.append([t, c, *vals, force])
    return {"criterion_03": c03, "criterion_04": c04, "criterion_10": c10}
