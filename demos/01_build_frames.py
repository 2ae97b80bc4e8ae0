"""Build each compact rank-one symmetric space and print its frame data.

For every space the script constructs the compact Lie algebra, the symmetric
pair, and the orthonormal frame (X, xi's, zeta's) adapted to the restricted
roots, then prints the classification-table row it reproduces.
"""

import numpy as np

from crosscontact import crossmodel
from crosscontact.crossmodel import Family, SpaceId

SPACES = [SpaceId(Family.SPHERE, 4), SpaceId(Family.REAL_PROJECTIVE, 3),
          SpaceId(Family.COMPLEX_PROJECTIVE, 2),
          SpaceId(Family.QUATERNIONIC_PROJECTIVE, 2),
          SpaceId(Family.CAYLEY_PLANE)]


def main() -> None:
    header = f"{'space':>8} {'dim G':>6} {'dim base':>8} {'m_eps':>6} " \
             f"{'m_eps/2':>8} {'dim h':>6} {'bracket laws':>13}"
    print(header)
    print("-" * len(header))
    for space in SPACES:
        frame = crossmodel.build_frame(space)
        laws = crossmodel.verify_bracket_laws(frame)
        worst = max(laws["checks"].values())
        print(f"{space.label():>8} {frame.alg.dim:>6} {1 + frame.m_eps + frame.m_half:>8} "
              f"{frame.m_eps:>6} {frame.m_half:>8} "
              f"{frame.h_basis.shape[1]:>6} {worst:>13.2e}")
    # the frame is orthonormal and ad_X^2 has the advertised spectrum
    frame = crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, 2))
    gram = frame.mbar.T @ frame.ip @ frame.mbar
    print("\ncp2 frame Gram deviation from identity:",
          f"{np.max(np.abs(gram - np.eye(frame.dim_mbar))):.2e}")
    m = frame.mbar[:, :frame.slices()["m_half"].stop]  # X and the xi's span m
    ad = frame.alg.ad(frame.mbar[:, 0])
    spectrum = np.linalg.eigvalsh(m.T @ frame.ip @ ad @ ad @ m)
    print("cp2 spectrum of ad_X^2 on m:", sorted({float(v) for v in np.round(spectrum, 9)}))


if __name__ == "__main__":
    main()
