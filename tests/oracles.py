"""Dense reference forms of package residuals, for the tests only.

The package evaluates the almost contact metric axioms and the normality
tensor on the xi/zeta pairing of the frame (contact._pairing_axioms and
contact._nijenhuis_on_support). The forms below take the whole matrices and
tensors, as the package once did, and the tests require the two to agree bit
for bit. The package reads the bracket laws in frame coordinates
(crossmodel.verify_bracket_laws); projection_bracket_laws projects algebra
vectors onto spans instead, and the tests require the two to agree.
"""

import numpy as np

from crosscontact import compactform


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

    inclusions = [
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
    c = alg.dense()

    def br(s1, s2):
        return compactform.bracket_table(c, sub[s1], sub[s2])

    checks = {}
    for s1, s2, tgt in inclusions:
        vecs = br(s1, s2).reshape(-1, alg.dim)
        checks[f"[{s1},{s2}]c{'+'.join(tgt)}"] = _proj_residual(ip, vecs, span(*tgt))
    checks["eps_half_pairing"] = max(
        float(np.max(np.abs(br("m_eps", "m_half") - br("k_eps", "k_half")), initial=0.0)),
        float(np.max(np.abs(br("k_eps", "m_half") + br("m_eps", "k_half")), initial=0.0)))
    passed = all(tol.is_zero(v) for v in checks.values())
    return {"checks": checks, "passed": passed}
