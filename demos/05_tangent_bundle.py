"""Almost Hermitian pairs on the punctured tangent bundle and slice induction.

Builds J^q structures on G/H x R+, tests when a radial metric family pairs
with them Hermitianly, asks whether q extends across the zero section, and
induces the slice structures back - recovering both the standard structure
(from the Sasaki metric) and the distinguished Sasakian one (from the
J^1-compatible family).
"""

import math

import numpy as np

from crosscontact import contact, crossmodel, tanbundle
from crosscontact.crossmodel import Family, SpaceId


def main() -> None:
    frame = crossmodel.build_frame(SpaceId(Family.COMPLEX_PROJECTIVE, 2))

    print("extension of q across the zero section (needs q(t)/t -> c > 0):")
    for name, q in (("q(t) = t", lambda t: t), ("q(t) = 1", lambda t: 1.0),
                    ("q(t) = sqrt(t)", math.sqrt), ("q(t) = 3t", lambda t: 3 * t)):
        print(f"  {name:>15}: {tanbundle.extension_admissible(q)}")

    # the Sasaki metric is Hermitian for q = id and induces the standard slices
    for r in (0.5, 1.0):
        st = tanbundle.induce_slice_structure(frame, tanbundle.sasaki_metric, lambda t: t, r)
        std = contact.standard_structure(frame, r)
        print(f"\nSasaki slice at r = {r}: matches standard structure to "
              f"{np.max(np.abs(st.phi - std.phi)):.1e}; "
              f"contact = {contact.classify(st).flags['contact_metric']}")

    # the J^1-compatible family induces the Sasakian structures on every slice
    metric = tanbundle.gf_metric(lambda t: 2.0 / (1.0 + t * t))
    for r in (0.5, 1.0, 2.0):
        st = tanbundle.induce_slice_structure(frame, metric, lambda t: 1.0, r)
        cls = contact.classify(st)
        print(f"g^f slice at r = {r}: Sasakian = {cls.flags['sasakian']} "
              f"(normality residual {cls.residuals['nijenhuis']:.1e})")


if __name__ == "__main__":
    main()
