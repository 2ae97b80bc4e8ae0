"""Dense reference forms of the contact residuals, for the tests only.

The package evaluates the almost contact metric axioms and the normality
tensor on the xi/zeta pairing of the frame (contact._pairing_axioms and
contact._nijenhuis_on_support). The forms below take the whole matrices and
tensors, as the package once did, and the tests require the two to agree bit
for bit.
"""

import numpy as np


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
