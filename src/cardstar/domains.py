"""Comparison regions of the plane with a uniform membership interface.

Every region that the radius and inclusion computations compare against is
wrapped as a `Domain` with three capabilities:

  * ``margin(w)``   -- vectorized signed membership indicator, positive inside,
                       zero on the boundary (units vary by kind; all vanish
                       linearly in w-distance except where noted);
  * ``boundary(t)`` -- parametrization of the topological boundary, t in [0, 2pi);
  * ``boundary_gap(w)`` -- high-accuracy distance-like gap used by the
                       sharpness (boundary touch) checks.

Kinds fall into three groups: regions with a defining inequality (disks,
half-planes, sectors, conics, the exponential / lemniscate / Cassinian /
sigmoid / cosh regions), the cardioid image region (preimage test, see
`cardioid`), and generator-image regions without a usable inequality
(nephroid, limacon, lune, sine, the rational and shifted-lemniscate
generators, the wide cardioid, the Booth curve).  The last group uses
even-odd winding against a dense sampled boundary polygon; interior
classification there is conservative by the polygon sag (~1e-7 at the
default resolution).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import cardioid, functions, radii


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

    def __init__(self, eps_boundary: float = 1e-12):
        self.eps_boundary = eps_boundary

    def margin(self, w):
        return cardioid.preimage_margin(w)

    def boundary(self, t):
        return cardioid.boundary_point(t)

    def contains(self, w, tol: float | None = None) -> bool:
        eps = self.eps_boundary if tol is None else tol
        return cardioid.contains(complex(w), eps).inside

    def verdict(self, w: complex) -> cardioid.MembershipVerdict:
        return cardioid.contains(w, self.eps_boundary)


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


class _BoundaryPolygon:
    """Even-odd membership and distance against a sampled closed curve.

    Vertices sit at half-offset parameters t_j = (j + 1/2) 2pi/m so that no
    vertex lies exactly on the real axis, where most touch points live.
    Work is blocked over edges to keep intermediates small.
    """

    _block = 1024

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=complex)
        self.m = len(self.points)
        nxt = np.roll(self.points, -1)
        self.ax, self.ay = self.points.real, self.points.imag
        self.bx, self.by = nxt.real, nxt.imag
        # inscribed-polygon sag bound from the second differences of the curve
        self.sag = float(np.max(np.abs(np.diff(self.points, 2, append=self.points[:2]))) / 8.0)
        self._build_polar_table()

    def _build_polar_table(self):
        # Every registered image region is starlike with respect to 1, so a
        # radial table rho(theta) about 1 classifies points far from the
        # boundary in O(log m); uncertain points fall back to the full test.
        theta = np.unwrap(np.angle(self.points - 1.0))
        d = np.diff(theta)
        self.polar_ok = bool(
            (np.all(d > 0) or np.all(d < 0))
            and abs(abs(theta[-1] - theta[0]) - 2.0 * math.pi) < 0.1)
        if not self.polar_ok:
            return
        principal = np.angle(self.points - 1.0)
        order = np.argsort(principal)
        th = principal[order]
        rho = np.abs(self.points - 1.0)[order]
        # periodic extension by two samples on each side for window lookups
        self._th = np.concatenate([th[-2:] - 2.0 * math.pi, th, th[:2] + 2.0 * math.pi])
        self._rho = np.concatenate([rho[-2:], rho, rho[:2]])
        self._slack = 4.0 * self.sag + 1e-12

    def polar_bounds(self, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Conservative per-point bounds on the radial boundary distance from 1
        in the direction of each query point."""
        th_q = np.angle(ws - 1.0)
        j = np.clip(np.searchsorted(self._th, th_q), 2, len(self._th) - 2)
        window = [self._rho[j - 2], self._rho[j - 1], self._rho[j], self._rho[j + 1]]
        return (np.minimum.reduce(window) - self._slack,
                np.maximum.reduce(window) + self._slack)

    def crossings(self, ws: np.ndarray) -> np.ndarray:
        x, y = ws.real, ws.imag
        total = np.zeros(len(ws), dtype=np.int64)
        for j0 in range(0, self.m, self._block):
            sl = slice(j0, min(j0 + self._block, self.m))
            ay, by = self.ay[sl][None, :], self.by[sl][None, :]
            ax, bx = self.ax[sl][None, :], self.bx[sl][None, :]
            cond = (ay > y[:, None]) != (by > y[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                xin = (bx - ax) * (y[:, None] - ay) / (by - ay) + ax
            total += np.count_nonzero(cond & (x[:, None] < xin), axis=1)
        return total

    def inside(self, ws: np.ndarray) -> np.ndarray:
        return (self.crossings(ws) % 2) == 1

    def distance(self, ws: np.ndarray) -> np.ndarray:
        x, y = ws.real, ws.imag
        best = np.full(len(ws), np.inf)
        for j0 in range(0, self.m, self._block):
            sl = slice(j0, min(j0 + self._block, self.m))
            ax, ay = self.ax[sl][None, :], self.ay[sl][None, :]
            dx = (self.bx[sl] - self.ax[sl])[None, :]
            dy = (self.by[sl] - self.ay[sl])[None, :]
            denom = dx * dx + dy * dy
            tp = np.clip(((x[:, None] - ax) * dx + (y[:, None] - ay) * dy) / denom, 0.0, 1.0)
            d2 = (ax + tp * dx - x[:, None]) ** 2 + (ay + tp * dy - y[:, None]) ** 2
            best = np.minimum(best, d2.min(axis=1))
        return np.sqrt(best)


class GeneratorImageRegion(Domain):
    """Image of the unit disk under a univalent generator, via winding test.

    Membership is decided against the sampled boundary polygon psi(e^{it});
    strict containment requires clearing the polygon sag, which makes the
    open-region test conservative within a ~1e-7 band of the true curve.
    """

    # boundary corner/cusp parameters; inserting them as exact vertices keeps
    # the polygon faithful where a square-root factor compresses the grid
    _CORNERS = {
        "nephroid": (0.0, math.pi),
        "rational_lemniscate": (0.0,),
        "rational": (math.pi,),
        "cardioid_wide": (math.pi,),
        "lune": (0.5 * math.pi, 1.5 * math.pi),
    }

    def __init__(self, name: str, resolution: int = 8192, **params):
        self.kind = name
        self.params = dict(params)
        self.generator = functions.generator(name, **params)
        t = (np.arange(resolution) + 0.5) * (2.0 * math.pi / resolution)
        corners = self._CORNERS.get(name)
        if corners:
            t = np.unique(np.concatenate([t, np.asarray(corners)]))
        self._t = t
        self._polygon = _BoundaryPolygon(self.generator(np.exp(1j * t)))
        self.resolution = resolution

    def margin(self, w):
        ws = _as_points(w)
        ins = self._polygon.inside(ws)
        dist = self._polygon.distance(ws)
        out = np.where(ins, dist, -dist)
        return out if np.ndim(w) else float(out[0])

    def contains(self, w, tol: float = 0.0) -> bool:
        ws = _as_points(w)
        if tol > 0.0:
            return bool(np.min(self.margin(ws)) > -tol)
        return bool(
            self._polygon.inside(ws).all()
            and (self._polygon.distance(ws) > self._polygon.sag).all()
        )

    def contains_all(self, ws, tol: float = 0.0) -> bool:
        ws = _as_points(ws)
        if self._polygon.polar_ok:
            lo, hi = self._polygon.polar_bounds(ws)
            rho = np.abs(ws - 1.0)
            if bool(np.all(rho < lo)):
                return True
            if tol <= 0.0 and bool(np.any(rho > hi)):
                return False
            undecided = ~(rho < lo)
            ws = ws[undecided]
        ins = self._polygon.inside(ws)
        if ins.all():
            return True
        if tol <= 0.0:
            return False
        outliers = ws[~ins]
        return bool((self._polygon.distance(outliers) <= tol).all())

    def worst_point(self, ws) -> tuple[complex, float]:
        ws = _as_points(ws)
        m = self.margin(ws)
        i = int(np.argmin(m))
        return complex(ws[i]), float(m[i])

    def boundary(self, t):
        t = np.asarray(t, dtype=float)
        out = self.generator(np.exp(1j * t))
        return out if out.shape else complex(out)

    def boundary_gap(self, w: complex) -> float:
        """min_t |psi(e^{it}) - w| refined by golden-section to ~1e-12."""
        w = complex(w)
        tt = self._t
        j = int(np.argmin(np.abs(self._polygon.points - w)))
        lo = tt[j - 1] if j > 0 else tt[-1] - 2.0 * math.pi
        hi = tt[j + 1] if j + 1 < len(tt) else tt[0] + 2.0 * math.pi

        def gap(t):
            return abs(complex(self.generator(cmath.exp(1j * t))) - w)

        return gap(radii.golden_section_min(gap, lo, hi))

    def describe(self) -> str:
        if self.params:
            inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
            return f"image of generator {self.kind}({inner})"
        return f"image of generator {self.kind}"


_WINDING_KINDS = (
    "rational",             # 1 + (z/k)(k+z)/(k-z), k = 1 + sqrt 2
    "rational_lemniscate",  # sqrt2 - (sqrt2 - 1) sqrt((1-z)/(1+2(sqrt2-1)z))
    "cardioid_wide",        # 1 + 4z/3 + 2z^2/3
    "limacon",              # 1 + sqrt2 z + z^2/2
    "lune",                 # z + sqrt(1 + z^2)
    "sine",                 # 1 + sin z
    "nephroid",             # 1 + z - z^3/3
    "booth",                # 1 + z/(1 - alpha z^2)
)


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


def make_domain(kind: str, *params: float, resolution: int = 8192) -> Domain:
    """Factory over every registered region kind.

    Raises ValueError naming the violated constraint for bad parameters.
    """
    if kind == "cardioid":
        return CardioidDomain()
    if kind == "disk":
        cx, cy, r = params
        if r <= 0:
            raise ValueError("disk region radius must be positive")
        return Disk(complex(cx, cy), r)
    if kind == "bounded_re":
        return HalfPlaneReBelow(*params)
    if kind == "min_re":
        return HalfPlaneReAbove(*params)
    if kind == "sector":
        return Sector(*params)
    if kind == "conic":
        return ConicRegion(*params)
    if kind == "exponential":
        return ExponentialRegion(*params)
    if kind == "lemniscate":
        return LemniscateRegion(*params)
    if kind == "cassinian":
        return CassinianRegion(*params)
    if kind == "sigmoid":
        return SigmoidRegion()
    if kind == "cosh":
        return CoshRegion()
    if kind == "janowski_disk":
        return janowski_disk(*params)
    if kind == "booth":
        (alpha,) = params
        if not 0.0 <= alpha < 1.0:
            raise ValueError("Booth-curve parameter must lie in [0, 1)")
        return GeneratorImageRegion("booth", resolution=resolution, alpha=alpha)
    if kind in _WINDING_KINDS:
        if params:
            raise ValueError(f"kind {kind!r} takes no parameters")
        return GeneratorImageRegion(kind, resolution=resolution)
    raise ValueError(f"unknown domain kind {kind!r}; known: "
                     f"cardioid, disk, bounded_re, min_re, sector, conic, exponential, "
                     f"lemniscate, cassinian, sigmoid, cosh, janowski_disk, {', '.join(_WINDING_KINDS)}")


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


def sample_boundary(d: Domain, n: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return t, np.asarray(d.boundary(t))
