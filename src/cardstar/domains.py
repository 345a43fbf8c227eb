"""Comparison regions of the plane with a uniform membership interface.

Every region that the radius and inclusion computations compare against is
wrapped as a `Domain` with three capabilities:

  * ``margin(w)``   -- vectorized signed membership indicator, positive inside,
                       zero on the boundary (units vary by kind; all vanish
                       linearly in w-distance except where noted);
  * ``boundary(t)`` -- parametrization of the topological boundary, t in [0, 2pi);
  * ``boundary_gap(w)`` -- high-accuracy distance-like gap used by the
                       sharpness (boundary touch) checks.

Kinds fall into two groups.  Regions with a defining inequality (disks,
half-planes, sectors, conics, the exponential / lemniscate / Cassinian /
sigmoid / cosh regions) evaluate it directly.  Generator images -- the
cardioid (see `cardioid`), nephroid, limacon, lune, sine, the rational and
shifted-lemniscate generators, the wide cardioid and the Booth curve -- are
classified by subordination: w is inside when a root of psi(z) = w lies in
the unit disk.  The cardioid margin is in preimage units (1 - |z|); the
other generator margins are Euclidean distances to the boundary curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import cardioid, functions
from .functions import SQRT2


def _as_points(w) -> np.ndarray:
    return np.atleast_1d(np.asarray(w, dtype=complex))


class Domain:
    """Base interface; subclasses provide `margin` and `boundary`."""

    kind: str = "abstract"
    interior_point: complex = 1.0 + 0j  # all registered regions contain 1

    def margin(self, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def boundary(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    def contains(self, w, tol: float = 0.0) -> bool:
        return bool(np.min(self.margin(w)) > -tol)

    def contains_all(self, ws, tol: float = 0.0) -> bool:
        """True iff every point is inside or within tol of the boundary."""
        return bool(np.min(self.margin(ws)) > -tol)

    def worst_point(self, ws) -> tuple[complex, float]:
        m = np.asarray(self.margin(ws))
        i = int(np.argmin(m))
        return complex(_as_points(ws)[i]), float(m[i])

    def boundary_gap(self, w: complex) -> float:
        return abs(float(np.min(self.margin(w))))

    def describe(self) -> str:
        return self.kind


class CardioidDomain(Domain):
    """Image of the unit disk under 1 + z + z^2/2 (open region)."""

    kind = "cardioid"

    def margin(self, w):
        return cardioid.preimage_margin(w)

    def boundary(self, t):
        return cardioid.boundary_point(t)

    def contains(self, w, tol: float = 1e-12) -> bool:
        return cardioid.contains(complex(w), tol).inside


@dataclass
class Disk(Domain):
    """Open disk; a zero radius (degenerate point, empty interior) is allowed
    so that image disks of vanishing coefficients remain representable."""

    center: complex
    radius: float
    kind: str = field(default="disk", init=False)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("disk radius must be nonnegative")
        self.center = complex(self.center)

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        return self.radius - np.abs(w - self.center)

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        return self.center + self.radius * np.exp(1j * t)

    def describe(self) -> str:
        return f"disk(center={self.center:g}, radius={self.radius:g})"


class HalfPlaneReBelow(Domain):
    """Re w < beta, the region of functions with bounded turning quotient."""

    kind = "bounded_re"

    def __init__(self, beta: float, extent: float = 8.0):
        if beta <= 1.0:
            raise ValueError("bounded-real-part parameter must exceed 1")
        self.beta = beta
        self._extent = extent

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        return self.beta - w.real

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        return self.beta + 1j * self._extent * (t - math.pi) / math.pi

    def describe(self) -> str:
        return f"half-plane Re w < {self.beta:g}"


class HalfPlaneReAbove(Domain):
    """Re w > alpha, the region defining starlikeness of a given order."""

    kind = "min_re"

    def __init__(self, alpha: float, extent: float = 8.0):
        if not 0.0 <= alpha < 1.0:
            raise ValueError("order parameter must lie in [0, 1)")
        self.alpha = alpha
        self._extent = extent

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        return w.real - self.alpha

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        return self.alpha + 1j * self._extent * (t - math.pi) / math.pi

    def describe(self) -> str:
        return f"half-plane Re w > {self.alpha:g}"


class Sector(Domain):
    """|arg w| < beta pi/2, the strongly starlike region of order beta."""

    kind = "sector"

    def __init__(self, beta: float, extent: float = 6.0):
        if not 0.0 < beta <= 1.0:
            raise ValueError("sector order must lie in (0, 1]")
        self.beta = beta
        self._extent = extent

    def margin(self, w):
        # angular units; vanishes like w-distance / |w| near the rays, and
        # the apex w = 0 is a boundary point
        w = np.asarray(w, dtype=complex)
        m = self.beta * math.pi / 2.0 - np.abs(np.angle(w))
        return np.where(np.abs(w) == 0.0, 0.0, m)

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        half = self.beta * math.pi / 2.0
        upper = t < math.pi
        radial = np.where(upper, t / math.pi, (t - math.pi) / math.pi) * self._extent
        ang = np.where(upper, half, -half)
        out = radial * np.exp(1j * ang)
        return out if out.shape else complex(out)

    def describe(self) -> str:
        return f"sector |arg w| < {self.beta:g} pi/2"


class ConicRegion(Domain):
    """Re w > k |w - 1|: half-plane (k=0), parabola/hyperbola interior
    (0 < k <= 1) or ellipse interior (k > 1).

    The boundary parametrization is available for k > 1 only, where the
    region is the ellipse with center k^2/(k^2-1) and semi-axes
    k/(k^2-1), 1/sqrt(k^2-1); the unbounded conics are membership-only.
    """

    kind = "conic"

    def __init__(self, k: float):
        if k < 0:
            raise ValueError("conic parameter must be nonnegative")
        self.k = k

    @property
    def ellipse_parameters(self) -> tuple[float, float, float]:
        if self.k <= 1:
            raise ValueError("ellipse parameters exist only for k > 1")
        k2 = self.k * self.k
        return k2 / (k2 - 1), self.k / (k2 - 1), 1.0 / math.sqrt(k2 - 1)

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        return w.real - self.k * np.abs(w - 1.0)

    def boundary(self, t):
        lam, a, b = self.ellipse_parameters
        t = np.asarray(t, dtype=float)
        out = lam + a * np.cos(t) + 1j * b * np.sin(t)
        return out if out.shape else complex(out)

    def describe(self) -> str:
        return f"conic region Re w > {self.k:g} |w-1|"


class ExponentialRegion(Domain):
    """|log((w - alpha)/(1 - alpha))| < 1, image of alpha + (1-alpha) e^z."""

    kind = "exponential"

    def __init__(self, alpha: float):
        if not 0.0 <= alpha < 1.0:
            raise ValueError("exponential-region parameter must lie in [0, 1)")
        self.alpha = alpha

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (w - self.alpha) / (1.0 - self.alpha)
            m = 1.0 - np.abs(np.log(u))
        return np.where(np.isfinite(m), m, -np.inf)

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        out = self.alpha + (1.0 - self.alpha) * np.exp(np.exp(1j * t))
        return out if out.shape else complex(out)

    def describe(self) -> str:
        return f"exponential region (alpha={self.alpha:g})"


class LemniscateRegion(Domain):
    """Right lobe of |((w - alpha)/(1 - alpha))^2 - 1| < 1.

    The right-lobe selector Re u > 0 is part of the region: the generator
    alpha + (1 - alpha) sqrt(1 + z) has range in that lobe only.
    """

    kind = "lemniscate"

    def __init__(self, alpha: float):
        if not 0.0 <= alpha < 1.0:
            raise ValueError("lemniscate-region parameter must lie in [0, 1)")
        self.alpha = alpha

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        u = (w - self.alpha) / (1.0 - self.alpha)
        return np.minimum(1.0 - np.abs(u * u - 1.0), u.real)

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        out = self.alpha + (1.0 - self.alpha) * np.sqrt(1.0 + np.exp(1j * t))
        return out if out.shape else complex(out)

    def describe(self) -> str:
        return f"lemniscate region (alpha={self.alpha:g})"


class CassinianRegion(Domain):
    """Right loop |w^2 - 1| < c, Re w > 0 of the Cassinian ovals."""

    kind = "cassinian"

    def __init__(self, c: float):
        if not 0.0 < c <= 1.0:
            raise ValueError("Cassinian parameter must lie in (0, 1]")
        self.c = c

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        return np.minimum(self.c - np.abs(w * w - 1.0), w.real)

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        out = np.sqrt(1.0 + self.c * np.exp(1j * t))
        return out if out.shape else complex(out)

    def describe(self) -> str:
        return f"Cassinian right loop (c={self.c:g})"


class SigmoidRegion(Domain):
    """|log(w/(2 - w))| < 1, image of the modified sigmoid 2/(1 + e^-z)."""

    kind = "sigmoid"

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - np.abs(np.log(w / (2.0 - w)))
        return np.where(np.isfinite(m), m, -np.inf)

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        out = 2.0 / (1.0 + np.exp(-np.exp(1j * t)))
        return out if out.shape else complex(out)


class CoshRegion(Domain):
    """|log(w + sqrt(w^2 - 1))| < 1, image of cosh z.

    Both square-root branches are tried; they give reciprocal arguments, so
    the smaller |log| is the right one away from the branch cut.
    """

    kind = "cosh"

    def margin(self, w):
        w = np.asarray(w, dtype=complex)
        s = np.sqrt(w * w - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            m1 = np.abs(np.log(w + s))
            m2 = np.abs(np.log(w - s))
        m = 1.0 - np.minimum(m1, m2)
        return np.where(np.isfinite(m), m, -np.inf)

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        out = np.cosh(np.exp(1j * t))
        return out if out.shape else complex(out)


def _lemniscate_inverse(w):
    s = (SQRT2 - w) / (SQRT2 - 1.0)
    return ((1.0 - s * s) / (1.0 + 2.0 * (SQRT2 - 1.0) * s * s))[None]


_PM = np.array([[1.0], [-1.0]])   # the two signs of a square root, along axis 0

# candidate roots z of psi(z) = w, stacked along axis 0; wrong-branch roots
# are filtered afterwards by mapping them back through the generator
_INVERSES = {
    # z^2 + k w z - k^2 (w - 1) = 0 with k = 1 + sqrt 2
    "rational": lambda w: 0.5 * (1.0 + SQRT2) * (-w + _PM * np.sqrt(w * w + 4.0 * w - 4.0)),
    # s = sqrt((1-z)/(1+2(sqrt2-1)z)); the branch check rejects Re s < 0
    "rational_lemniscate": _lemniscate_inverse,
    "cardioid_wide": lambda w: -1.0 + _PM * np.sqrt((3.0 * w - 1.0) / 2.0),
    "limacon": lambda w: -SQRT2 + _PM * np.sqrt(2.0 * w),
    # the branch check rejects the root of w = z - sqrt(1 + z^2)
    "lune": lambda w: ((w * w - 1.0) / (2.0 * w))[None],
    "sine": lambda w: np.arcsin(w - 1.0)[None],
    # trigonometric roots of z^3 - 3z + 3(w - 1) = 0
    "nephroid": lambda w: 2.0 * np.cos(
        (np.arccos(1.5 * (1.0 - w)) + 2.0 * math.pi * np.arange(3)[:, None]) / 3.0),
    # alpha u z^2 + z - u = 0 with u = w - 1, rationalized so alpha = 0 works
    "booth": lambda w, alpha: 2.0 * (w - 1.0) / (
        1.0 + _PM * np.sqrt(1.0 + 4.0 * alpha * (w - 1.0) ** 2)),
}

# points of the unit circle where psi' vanishes (cusps) or is infinite
# (corners); steps in the boundary angle cannot settle there, so their images
# are distance candidates of their own
_SINGULAR_POINTS = {
    "nephroid": (1.0, -1.0),
    "cardioid_wide": (-1.0,),
    "rational": (-1.0,),
    "lune": (1j, -1j),
    "rational_lemniscate": (1.0,),
}


class GeneratorImageRegion(Domain):
    """Image of the unit disk under a univalent generator psi (open region).

    Membership is the preimage test that `cardioid` uses: w is inside when
    the smallest root of psi(z) = w lies in the unit disk.  Each kind has a
    closed-form inverse in `_INVERSES`; a candidate root counts only if psi
    maps it back to w within relative 1e-8, which discards the wrong branch
    of square-root generators.  The margin is the Euclidean distance to the
    boundary curve psi(e^{it}), refined from the angle of that root.
    """

    _REFINE_STEPS = 12

    def __init__(self, name: str, **params):
        self.kind = name
        self.params = dict(params)
        self.generator = functions.generator(name, **params)
        self._inverse = _INVERSES[name]
        self._singular_values = self.generator(
            np.asarray(_SINGULAR_POINTS.get(name, ()), dtype=complex))

    def _roots(self, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate roots of psi(z) = w along axis 0 and their moduli, inf
        for a root in the disk that psi does not map back to w."""
        with np.errstate(all="ignore"):
            z = self._inverse(ws, **self.params)
            size = np.abs(z)
            size[np.isnan(size)] = np.inf
            # only a root in the disk can make w a member, so only those are
            # checked against the generator
            i, j = np.nonzero(size < 1.0)
            w = ws[j]
            wrong = ~(np.abs(self.generator(z[i, j]) - w) <= 1e-8 * np.maximum(np.abs(w), 1.0))
            size[i[wrong], j[wrong]] = np.inf
        return z, size

    def _distance(self, ws: np.ndarray, z: np.ndarray, size: np.ndarray) -> np.ndarray:
        """min_t |psi(e^{it}) - w| by Gauss-Newton steps from the angle of
        the smallest root.

        A step that does not bring the boundary point closer is halved
        instead of taken, so the iteration stays on the nearest arc when it
        straddles a corner; every iterate is a boundary point, so the result
        never undershoots."""
        def curve(t):
            return self.generator(np.exp(1j * t))

        def gauss_newton_step(t, g):
            # a derivative error moves the fixed point only in proportion to
            # the distance, so the step can stay far below the angular
            # distance of a query near a corner, where psi' is infinite
            tp, tm = t + 1e-11, t - 1e-11
            dg = (curve(tp) - curve(tm)) / (tp - tm)
            return np.nan_to_num(np.real(np.conj(g - ws) * dg) / np.abs(dg) ** 2)

        nearest = np.take_along_axis(z, np.argmin(size, axis=0)[None], axis=0)[0]
        t = np.nan_to_num(np.angle(nearest))
        with np.errstate(all="ignore"):
            g = curve(t)
            best = np.abs(g - ws)
            step = gauss_newton_step(t, g)
            for _ in range(self._REFINE_STEPS):
                t_try = t - step
                g_try = curve(t_try)
                gap = np.abs(g_try - ws)
                closer = gap < best
                t = np.where(closer, t_try, t)
                g = np.where(closer, g_try, g)
                best = np.where(closer, gap, best)
                step = np.where(closer, gauss_newton_step(t, g), 0.5 * step)
        for c in self._singular_values:
            best = np.minimum(best, np.abs(ws - c))
        return best

    def margin(self, w):
        ws = _as_points(w)
        z, size = self._roots(ws)
        dist = self._distance(ws, z, size)
        out = np.where(size.min(axis=0) < 1.0, dist, -dist)
        return out if np.ndim(w) else float(out[0])

    def contains_all(self, ws, tol: float = 0.0) -> bool:
        ws = _as_points(ws)
        z, size = self._roots(ws)
        out = size.min(axis=0) >= 1.0
        if not out.any():
            return True
        if tol <= 0.0:
            return False
        return bool((self._distance(ws[out], z[:, out], size[:, out]) <= tol).all())

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        out = self.generator(np.exp(1j * t))
        return out if out.shape else complex(out)

    def describe(self) -> str:
        if self.params:
            inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
            return f"image of generator {self.kind}({inner})"
        return f"image of generator {self.kind}"


def janowski_disk(A: float, B: float, r: float) -> Disk:
    """The disk |w - (1 - A B r^2)/(1 - B^2 r^2)| < (A - B) r / (1 - B^2 r^2)
    swept by the starlike quotient over |z| = r in the two-parameter class."""
    if not -1.0 <= B < A <= 1.0:
        raise ValueError("need -1 <= B < A <= 1")
    if not 0.0 < r <= 1.0:
        raise ValueError("need 0 < r <= 1")
    denom = 1.0 - B * B * r * r
    if denom <= 0.0:
        raise ValueError("degenerate disk: B^2 r^2 = 1")
    return Disk((1.0 - A * B * r * r) / denom, (A - B) * r / denom)


def _disk(cx: float, cy: float, r: float) -> Disk:
    if r <= 0:
        raise ValueError("disk region radius must be positive")
    return Disk(complex(cx, cy), r)


def _booth(alpha: float) -> GeneratorImageRegion:
    if not 0.0 <= alpha < 1.0:
        raise ValueError("Booth-curve parameter must lie in [0, 1)")
    return GeneratorImageRegion("booth", alpha=alpha)


# every region kind with its constructor over the kind's parameters
_KINDS = {
    "cardioid": CardioidDomain,
    "disk": _disk,
    "bounded_re": HalfPlaneReBelow,
    "min_re": HalfPlaneReAbove,
    "sector": Sector,
    "conic": ConicRegion,
    "exponential": ExponentialRegion,
    "lemniscate": LemniscateRegion,
    "cassinian": CassinianRegion,
    "sigmoid": SigmoidRegion,
    "cosh": CoshRegion,
    "janowski_disk": janowski_disk,
    **{kind: partial(GeneratorImageRegion, kind) for kind in _INVERSES},
    "booth": _booth,
}
_WITHOUT_PARAMETERS = {"cardioid", "sigmoid", "cosh", *_INVERSES} - {"booth"}


def make_domain(kind: str, *params: float) -> Domain:
    """Factory over every registered region kind.

    Raises ValueError naming the violated constraint for bad parameters.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown domain kind {kind!r}; known: {', '.join(_KINDS)}")
    if params and kind in _WITHOUT_PARAMETERS:
        raise ValueError(f"kind {kind!r} takes no parameters")
    return _KINDS[kind](*params)


def disk_in_domain(disk: Disk, d: Domain, n: int = 2048, tol: float = 1e-7) -> bool:
    """Sampled test that the closed disk boundary lies in `d`.

    For a real-centered disk against the cardioid region the closed-form
    inscribed radius provides a consistency check; a clear conflict between
    the two routes raises.
    """
    if n < 64:
        raise ValueError("need at least 64 samples")
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    sampled = d.contains_all(disk.boundary(t), tol)
    if isinstance(d, CardioidDomain) and abs(disk.center.imag) < 1e-12:
        a = disk.center.real
        if cardioid.RE_MIN < a < cardioid.RE_MAX:
            r_in, _ = cardioid.inner_outer_radii(a)
            if abs(disk.radius - r_in) > 1e-6 and sampled != (disk.radius <= r_in):
                raise RuntimeError(
                    f"sampled disk containment disagrees with the closed form at center {a:g}")
    return sampled


def domain_in_domain(inner: Domain, outer: Domain, n: int = 2048, tol: float = 1e-7) -> bool:
    """Sampled test that the boundary of `inner` lies in (the closure of) `outer`."""
    if n < 256:
        raise ValueError("need at least 256 samples")
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return outer.contains_all(np.asarray(inner.boundary(t)), tol)

