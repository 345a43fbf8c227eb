"""The cardioid generator 1 + z + z^2/2 and its image domain.

The generator maps the unit disk onto the region bounded by the cardioid
(4x^2 + 4y^2 - 8x - 1)^2 + 4 (4x^2 + 4y^2 - 12x + 1) = 0, which sits in the
right half-plane with real-axis extent (1/2, 5/2).  This module collects
everything specific to that region: evaluation, the circle extrema of the
real part, membership through the quadratic preimage (with the implicit
quartic as an independent cross-check), and the largest inscribed and
smallest circumscribed disks about a real center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RE_MIN = 0.5   # value of the generator at z = -1
RE_MAX = 2.5   # value of the generator at z = +1
_BOUNDARY_EPS = 1e-12   # how far a boundary point's preimage modulus may stray from 1


def eval_phi(z):
    """1 + z + z^2/2 for scalars or numpy arrays."""
    z = np.asarray(z, dtype=complex)
    out = 1.0 + z + 0.5 * z * z
    return out if out.shape else complex(out)


def min_re_on_circle(r: float) -> float:
    """min of Re phi on |z| = r: 1 - r + r^2/2 up to r = 1/2, then (3 - 2r^2)/4.

    The interior critical point cos t = -1/(2r) enters [-1, 1] exactly at
    r = 1/2; at the knot both branches give 5/8.
    """
    if not 0 < r < 1:
        raise ValueError("radius must lie in (0, 1)")
    if r <= 0.5:
        return 1.0 - r + 0.5 * r * r
    return (3.0 - 2.0 * r * r) / 4.0


def max_re_on_circle(r: float) -> float:
    """max of Re phi on |z| = r, always attained at z = r."""
    if not 0 < r <= 1:
        raise ValueError("radius must lie in (0, 1]")
    return 1.0 + r + 0.5 * r * r


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: str                  # "inside" | "boundary" | "outside"
    preimage: complex | None      # the in-disk root when inside
    preimage_modulus: float       # modulus of the smaller-|z| root
    near_cusp: bool               # query within 1e-6 of the cusp at w = 1/2

    @property
    def inside(self) -> bool:
        return self.verdict == "inside"


def _preimage_root(w):
    # z^2/2 + z + (1 - w) = 0 has the roots -1 + s and -1 - s, s = sqrt(2w - 1).
    # NumPy's principal square root has Re s >= 0, so |s - 1| <= |s + 1|:
    # s - 1 is the root of least modulus, and by univalence the only one
    # that can lie in the open disk.  Scalar or array w.
    return np.sqrt(2.0 * w - 1.0) - 1.0


def contains(w: complex) -> MembershipVerdict:
    """Classify w against the open image domain via its generator preimage.

    The preimage is the one root of least modulus, sqrt(2w - 1) - 1 (see
    `_preimage_root`; where Re sqrt(2w - 1) = 0 both roots have that
    modulus and this one is taken).  The verdict tolerance acts on its
    modulus, not on the implicit quartic, which degenerates quartically
    near the cusp at w = 1/2.
    """
    z = _preimage_root(complex(w))
    m = abs(z)
    near_cusp = abs(w - 0.5) < 1e-6
    if m < 1.0 - _BOUNDARY_EPS:
        return MembershipVerdict("inside", complex(z), m, near_cusp)
    if m <= 1.0 + _BOUNDARY_EPS:
        return MembershipVerdict("boundary", None, m, near_cusp)
    return MembershipVerdict("outside", None, m, near_cusp)


def _margin(w: np.ndarray) -> np.ndarray:
    # `preimage_margin` on a complex array, as the region's containment
    # test calls it
    return 1.0 - np.abs(_preimage_root(w))


def preimage_margin(w):
    """Signed membership margin 1 - |sqrt(2w - 1) - 1|, positive inside,
    vectorized: 1 minus the modulus of the root of least modulus, which is
    the one root the principal square root gives (see `_preimage_root`),
    so the other root is never formed.

    Measured in preimage units: near smooth boundary it scales like
    w-distance / |phi'|, near the cusp it is more permissive from inside.
    """
    m = _margin(np.asarray(w, dtype=complex))
    return m if m.shape else float(m)


def implicit_value(x, y):
    """The boundary quartic F(x, y); negative exactly on the open domain.

    x and y are real numbers or numpy arrays (a list raises TypeError).
    One operator expression serves both: on Python floats it is plain
    float arithmetic, which overflows to inf without raising, and it gives
    the array path's result bit for bit (the square is a product, as
    numpy's is).
    """
    q = 4.0 * x * x + 4.0 * y * y
    a = q - 8.0 * x - 1.0
    return a * a + 4.0 * (q - 12.0 * x + 1.0)


def contains_implicit(w: complex) -> bool:
    """Membership by sign of the implicit quartic.

    Kept as an independent cross-check oracle for `contains`; the two must
    agree away from the boundary (see the test suite's grid comparison).
    A Python complex is tested in float arithmetic, without numpy.
    """
    return bool(implicit_value(w.real, w.imag) < 0.0)


def inner_outer_radii(a: float) -> tuple[float, float]:
    """(r_a, R_a) with {|w-a| < r_a} inside the domain inside {|w-a| < R_a}.

    Both are extrema over the boundary of the squared distance
    g(x) = a^2 - a + 5/4 + (3-2a)x + 2(1-a)x^2,  x = cos t:
      r_a = (2a-1)/2 on (1/2, 3/2],  (5-2a)/2 on [3/2, 5/2);
      R_a = (5-2a)/2 on (1/2, 7/6],  sqrt((2a-1)^3 / (8(a-1))) on [7/6, 5/2).
    At a knot either branch applies; the left branch is used by convention.
    """
    if not RE_MIN < a < RE_MAX:
        raise ValueError("center must lie in the open interval (1/2, 5/2)")
    r_in = (2.0 * a - 1.0) / 2.0 if a <= 1.5 else (5.0 - 2.0 * a) / 2.0
    if a <= 7.0 / 6.0:
        r_out = (5.0 - 2.0 * a) / 2.0
    else:
        r_out = math.sqrt((2.0 * a - 1.0) ** 3 / (8.0 * (a - 1.0)))
    return r_in, r_out


def self_centered_fixed_point() -> float:
    """The unique center with R_a = a, namely (3 + sqrt 5)/4 ~ 1.309017.

    For every M at least this large the domain sits in {|w - M| < M}.
    """
    return (3.0 + math.sqrt(5.0)) / 4.0
