"""Comparison regions of the plane with one membership interface.

Every region that the radius and inclusion computations compare against is
a `Domain` with four capabilities:

  * ``margin(w)``   -- vectorized signed membership indicator, positive inside,
                       zero on the boundary, -inf at a non-finite point
                       (units vary by kind; all vanish linearly in
                       w-distance except where noted);
  * ``contains_all(ws, tol)`` -- the containment test: every point finite and
                       inside or within tol >= 0 of the boundary;
  * ``boundary(t)`` -- parametrization of the topological boundary,
                       t in [0, 2pi), by default ``generator(e^{it})``;
  * ``boundary_gap(w)`` -- high-accuracy distance-like gap used by the
                       sharpness (boundary touch) checks.

There are four classes of region:

  * the cardioid, the image of the unit disk under `cardioid.eval_phi`,
    with its margin in preimage units (1 - |z|);
  * disks, the images of center + radius z;
  * the nine regions with a defining inequality (two half-planes, sectors,
    conics, the exponential / lemniscate / Cassinian / sigmoid / cosh
    regions), each one row of the `_INEQUALITIES` table: its parameter
    check, its margin, its description and, for the four kinds whose
    boundary is a line, two rays or an ellipse, that curve; the other five
    draw the image of the unit circle under their `functions` generator;
  * generator images -- the nephroid, limacon, lune, sine, the rational and
    shifted-lemniscate generators, the wide cardioid and the Booth curve --
    classified by subordination: w is inside when a root of psi(z) = w lies
    in the unit disk.  Their margins are Euclidean distances to the
    boundary curve.

The cardioid, the generator images other than the shifted lemniscate, and
the sigmoid and cosh regions also carry ``inscribed``, a disk certified to
lie inside the open region: the paper's disk lemma for the cardioid, a
closed-form distance from psi(0) = 1 to the boundary for the others.
`contains_all` accepts the points strictly inside that disk with one `abs`
each and runs the exact test on the rest only.  Every accepted point has an
exact margin > 0, and the exact tests decide point by point, so every
verdict is the exact test's.  The other regions keep no disk and run their
exact test on every point.

Every region is mirror-symmetric in the real axis (``symmetric``) except a
disk whose center is off it.

`make_domain(kind, *params)` builds every kind by name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import cardioid, functions
from .functions import SQRT2

# how far the drawn boundaries of the unbounded inequality regions reach:
# half the length of a half-plane's boundary line and the length of a ray
_LINE_HALF_LENGTH = 8.0
_RAY_LENGTH = 6.0

# how far an inscribed disk is shrunk below its closed-form radius.  Where
# the disk touches the boundary, the exact tests then see a margin of about
# this much (or its square root at a cusp), far above their rounding and
# that of |w - center|, so every point the disk accepts they accept too.
_INSCRIBED_GUARD = 1e-9


def _as_points(w) -> np.ndarray:
    return np.atleast_1d(np.asarray(w, dtype=complex))


class Domain:
    """Base interface; subclasses provide `_margin`, the margin formula for
    finite points, and either a `generator` of the region or their own
    boundary curve."""

    kind: str = "abstract"
    # (center, radius) of a disk certified to lie inside the open region
    inscribed: tuple[complex, float] | None = None
    # mirror-symmetric in the real axis: margin(conj w) = margin(w)
    symmetric: bool = True

    def _margin(self, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def margin(self, w):
        """`_margin` at the finite points and -inf at the others, which the
        formula never sees."""
        w = np.asarray(w, dtype=complex)
        finite = np.isfinite(w)
        if finite.all():
            return self._margin(w)
        out = np.full(w.shape, -np.inf)
        if finite.any():
            out[finite] = self._margin(w[finite])
        return out if out.shape else float(out)

    def generator(self, z):  # pragma: no cover - abstract
        """The map of the unit disk onto the region."""
        raise NotImplementedError

    def _curve(self, t: np.ndarray):
        return self.generator(np.exp(1j * t))

    def boundary(self, t):
        out = np.asarray(self._curve(np.asarray(t, dtype=float)))
        return out if out.shape else complex(out)

    def contains_all(self, ws, tol: float = 0.0) -> bool:
        """True iff every point is finite and inside or within tol of the
        boundary.

        Points strictly inside `inscribed` are accepted without the exact
        test, which runs on the other points only; the verdict is the same
        as the exact test's on all of them, because that test decides point
        by point and each accepted point has margin > 0 >= -tol.  A
        non-finite point is outside.  Raises ValueError for an empty point
        set and for a negative (or NaN) tol, where the shortcut is unsound.
        """
        ws = _as_points(ws)
        if not ws.size:
            raise ValueError("need at least one point")
        if not tol >= 0.0:
            raise ValueError("tolerance must be nonnegative")
        if self.inscribed is not None:
            center, radius = self.inscribed
            # written with < so that NaN points are kept, and rejected below
            ws = ws[~(np.abs(ws - center) < radius)]
            if not ws.size:
                return True
        return bool(np.isfinite(ws).all()) and self._contains_exact(ws, tol)

    def _contains_exact(self, ws: np.ndarray, tol: float) -> bool:
        # `contains_all` has removed the non-finite points
        return bool(self._margin(ws).min() > -tol)

    def worst_point(self, ws) -> tuple[complex, float]:
        ws = _as_points(ws)
        m = self.margin(ws)
        i = int(np.argmin(m))
        return complex(ws[i]), float(m[i])

    def boundary_gap(self, w: complex) -> float:
        return abs(float(np.min(self.margin(w))))

    def describe(self) -> str:
        return self.kind


class CardioidDomain(Domain):
    """Image of the unit disk under 1 + z + z^2/2 (open region)."""

    kind = "cardioid"

    def __init__(self):
        # the paper's lemma: |w - 3/2| < r_{3/2} = 1 lies inside the region
        r_in, _ = cardioid.inner_outer_radii(1.5)
        self.inscribed = (1.5, r_in - _INSCRIBED_GUARD)

    def _margin(self, w):
        return cardioid.preimage_margin(w)

    def generator(self, z):
        return cardioid.eval_phi(z)


@dataclass(frozen=True)
class Disk(Domain):
    """Open disk; a zero radius (degenerate point, empty interior) is allowed
    so that image disks of vanishing coefficients remain representable.
    Frozen, so the checks of the constructor hold for its lifetime."""

    center: complex
    radius: float
    kind: str = field(default="disk", init=False)

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        if not cmath.isfinite(self.center):
            raise ValueError("disk center must be finite")
        if not math.isfinite(self.radius):
            raise ValueError("disk radius must be finite")
        if not self.radius >= 0:
            raise ValueError("disk radius must be nonnegative")

    @property
    def symmetric(self) -> bool:
        return self.center.imag == 0.0

    def _margin(self, w):
        return self.radius - np.abs(w - self.center)

    def generator(self, z):
        return self.center + self.radius * z

    def describe(self) -> str:
        return f"disk(center={self.center:g}, radius={self.radius:g})"


def conic_ellipse(k: float) -> tuple[float, float, float]:
    """Center k^2/(k^2-1) and semi-axes k/(k^2-1), 1/sqrt(k^2-1) of the
    ellipse Re w = k |w - 1|, which exists for k > 1 only; the conics with
    k <= 1 are unbounded and membership-only."""
    if k <= 1:
        raise ValueError("ellipse parameters exist only for k > 1")
    k2 = k * k
    return k2 / (k2 - 1), k / (k2 - 1), 1.0 / math.sqrt(k2 - 1)


def _conic_ellipse_curve(t, k):
    lam, a, b = conic_ellipse(k)
    return lam + a * np.cos(t) + 1j * b * np.sin(t)


def _sector_margin(w, beta):
    # angular units; vanishes like w-distance / |w| near the rays, and the
    # apex w = 0 is a boundary point
    m = beta * math.pi / 2.0 - np.abs(np.angle(w))
    return np.where(np.abs(w) == 0.0, 0.0, m)


def _sector_rays(t, beta):
    # the upper ray for t < pi, the lower ray for t >= pi, each from the apex
    half = beta * math.pi / 2.0
    upper = t < math.pi
    radial = np.where(upper, t / math.pi, (t - math.pi) / math.pi) * _RAY_LENGTH
    return radial * np.exp(1j * np.where(upper, half, -half))


def _log_margin(margin):
    """`margin`, which takes a logarithm, with the zeros and poles of its
    argument counted outside."""
    def guarded(w, *params):
        with np.errstate(divide="ignore", invalid="ignore"):
            m = margin(w, *params)
        return np.where(np.isfinite(m), m, -np.inf)
    return guarded


def _lemniscate_margin(w, alpha):
    # the right-lobe selector Re u > 0 is part of the region: the generator
    # alpha + (1 - alpha) sqrt(1 + z) has range in that lobe only
    u = (w - alpha) / (1.0 - alpha)
    return np.minimum(1.0 - np.abs(u * u - 1.0), u.real)


def _cosh_margin(w):
    # both square-root branches are tried; they give reciprocal arguments, so
    # the smaller |log| is the right one away from the branch cut
    s = np.sqrt(w * w - 1.0)
    return 1.0 - np.minimum(np.abs(np.log(w + s)), np.abs(np.log(w - s)))


@dataclass(frozen=True)
class _Inequality:
    """One region kind given by an inequality in w."""

    params: tuple[str, ...]                # parameter names, in `make_domain` order
    margin: Callable                       # (w, *params) -> signed margin
    text: str                              # `describe` format over the parameter names
    valid: Callable[..., bool] = lambda *params: True
    error: str = ""                        # the ValueError text when not `valid`
    curve: Callable | None = None          # (t, *params) -> boundary, if not a generator's


_INEQUALITIES: dict[str, _Inequality] = {
    # the region of functions with bounded turning quotient
    "bounded_re": _Inequality(
        ("beta",), lambda w, beta: beta - w.real, "half-plane Re w < {beta:g}",
        lambda beta: beta > 1.0, "bounded-real-part parameter must exceed 1",
        lambda t, beta: beta + 1j * _LINE_HALF_LENGTH * (t - math.pi) / math.pi),
    # starlikeness of order alpha
    "min_re": _Inequality(
        ("alpha",), lambda w, alpha: w.real - alpha, "half-plane Re w > {alpha:g}",
        lambda alpha: 0.0 <= alpha < 1.0, "order parameter must lie in [0, 1)",
        lambda t, alpha: alpha + 1j * _LINE_HALF_LENGTH * (t - math.pi) / math.pi),
    # |arg w| < beta pi/2, strong starlikeness of order beta
    "sector": _Inequality(
        ("beta",), _sector_margin, "sector |arg w| < {beta:g} pi/2",
        lambda beta: 0.0 < beta <= 1.0, "sector order must lie in (0, 1]", _sector_rays),
    # Re w > k |w - 1|: half-plane (k = 0), parabola or hyperbola interior
    # (0 < k <= 1), ellipse interior (k > 1)
    "conic": _Inequality(
        ("k",), lambda w, k: w.real - k * np.abs(w - 1.0), "conic region Re w > {k:g} |w-1|",
        lambda k: k >= 0.0, "conic parameter must be nonnegative", _conic_ellipse_curve),
    # |log((w - alpha)/(1 - alpha))| < 1, image of alpha + (1 - alpha) e^z
    "exponential": _Inequality(
        ("alpha",), _log_margin(lambda w, alpha: 1.0 - np.abs(np.log((w - alpha) / (1.0 - alpha)))),
        "exponential region (alpha={alpha:g})",
        lambda alpha: 0.0 <= alpha < 1.0, "exponential-region parameter must lie in [0, 1)"),
    # right lobe of |((w - alpha)/(1 - alpha))^2 - 1| < 1
    "lemniscate": _Inequality(
        ("alpha",), _lemniscate_margin, "lemniscate region (alpha={alpha:g})",
        lambda alpha: 0.0 <= alpha < 1.0, "lemniscate-region parameter must lie in [0, 1)"),
    # right loop |w^2 - 1| < c, Re w > 0 of the Cassinian ovals
    "cassinian": _Inequality(
        ("c",), lambda w, c: np.minimum(c - np.abs(w * w - 1.0), w.real),
        "Cassinian right loop (c={c:g})",
        lambda c: 0.0 < c <= 1.0, "Cassinian parameter must lie in (0, 1]"),
    # |log(w/(2 - w))| < 1, image of the modified sigmoid 2/(1 + e^-z)
    "sigmoid": _Inequality((), _log_margin(lambda w: 1.0 - np.abs(np.log(w / (2.0 - w)))),
                           "sigmoid"),
    # |log(w + sqrt(w^2 - 1))| < 1, image of cosh z
    "cosh": _Inequality((), _log_margin(_cosh_margin), "cosh"),
}


# radius of a disk about psi(0) = 1 inside the region, psi its generator, in
# closed form: for the generator images, min |psi(e^{it}) - 1| over the
# circle.  The shifted lemniscate has no closed form and keeps no disk; of
# the inequality regions only the sigmoid and cosh regions, whose margins
# take complex logarithms, were measured to gain from one.
_INRADII = {
    # |log(w/(2 - w))| = 2 |artanh(w - 1)| <= 2 artanh |w - 1| < 1, as the
    # Taylor coefficients of artanh are positive
    "sigmoid": lambda: math.tanh(0.5),
    # w = 1 + 2 q^2 has |arccosh w| = 2 |arcsinh q| <= 2 arcsin |q| < 1 for
    # |q| < sin(1/2), as arcsin's Taylor coefficients are the moduli of arcsinh's
    "cosh": lambda: 1.0 - math.cos(1.0),
    # |psi - 1| = |k + z| / (k |k - z|) >= (k - 1)/(k (k + 1)) = 3 - 2 sqrt 2
    # with k = 1 + sqrt 2, at z = -1
    "rational": lambda: 3.0 - 2.0 * SQRT2,
    # |psi - 1| = (2/3) |2 + z| >= 2/3, at z = -1
    "cardioid_wide": lambda: 2.0 / 3.0,
    # |psi - 1| = |sqrt 2 + z/2| >= sqrt 2 - 1/2, at z = -1
    "limacon": lambda: SQRT2 - 0.5,
    # the lune is |w - 1| < sqrt 2 outside |w + 1| <= sqrt 2, whose circle
    # passes 2 - sqrt 2 from 1
    "lune": lambda: 2.0 - SQRT2,
    # |sin(x + iy)|^2 = sin^2 x + sinh^2 y >= sin^2(1) (x^2 + y^2), as
    # sin x / x >= sin 1 for |x| <= 1
    "sine": lambda: math.sin(1.0),
    # |psi - 1| = |1 - z^2/3| >= 2/3, at z = +-1
    "nephroid": lambda: 2.0 / 3.0,
    # |psi - 1| = 1 / |1 - alpha z^2| >= 1/(1 + alpha), at z = +-i
    "booth": lambda alpha: 1.0 / (1.0 + alpha),
}


class InequalityRegion(Domain):
    """A region with a defining inequality, declared by its `_INEQUALITIES` row."""

    def __init__(self, kind: str, *params: float):
        row = _INEQUALITIES[kind]
        if not row.valid(*params):
            raise ValueError(row.error)
        self.kind = kind
        self.params = params
        self._row = row
        if kind in _INRADII:
            self.inscribed = (1.0, _INRADII[kind](*params) - _INSCRIBED_GUARD)

    def _margin(self, w):
        return self._row.margin(w, *self.params)

    def generator(self, z):
        """The kind's `functions` generator, which draws the boundary of
        every row without its own `curve`."""
        return functions.generator(self.kind)(z, *self.params)

    def _curve(self, t: np.ndarray):
        if self._row.curve is None:
            return super()._curve(t)
        return self._row.curve(t, *self.params)

    def describe(self) -> str:
        return self._row.text.format(**dict(zip(self._row.params, self.params)))


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
        if name in _INRADII:
            self.inscribed = (1.0, _INRADII[name](**params) - _INSCRIBED_GUARD)

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

    def _margin(self, w):
        ws = _as_points(w)
        z, size = self._roots(ws)
        dist = self._distance(ws, z, size)
        out = np.where(size.min(axis=0) < 1.0, dist, -dist)
        return out if np.ndim(w) else float(out[0])

    def _contains_exact(self, ws: np.ndarray, tol: float) -> bool:
        z, size = self._roots(ws)
        out = size.min(axis=0) >= 1.0
        if not out.any():
            return True
        if tol <= 0.0:
            return False
        return bool((self._distance(ws[out], z[:, out], size[:, out]) <= tol).all())

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
    if not math.isfinite(r):
        raise ValueError("disk region radius must be finite")
    if not r > 0:
        raise ValueError("disk region radius must be positive")
    return Disk(complex(cx, cy), r)


def _booth(alpha: float) -> GeneratorImageRegion:
    if not 0.0 <= alpha < 1.0:
        raise ValueError("Booth-curve parameter must lie in [0, 1)")
    return GeneratorImageRegion("booth", alpha=alpha)


# every region kind with its constructor and the names of its parameters
_KINDS: dict[str, tuple[Callable[..., Domain], tuple[str, ...]]] = {
    "cardioid": (CardioidDomain, ()),
    "disk": (_disk, ("cx", "cy", "r")),
    **{kind: (partial(InequalityRegion, kind), row.params) for kind, row in _INEQUALITIES.items()},
    "janowski_disk": (janowski_disk, ("A", "B", "r")),
    **{kind: (partial(GeneratorImageRegion, kind), ()) for kind in _INVERSES},
    "booth": (_booth, ("alpha",)),
}


def make_domain(kind: str, *params: float) -> Domain:
    """Factory over every registered region kind.

    Raises ValueError naming the violated constraint for bad parameters,
    a wrong number of them included.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown domain kind {kind!r}; known: {', '.join(_KINDS)}")
    build, names = _KINDS[kind]
    if len(params) != len(names):
        wanted = f"parameters ({', '.join(names)})" if names else "no parameters"
        raise ValueError(f"kind {kind!r} takes {wanted}")
    return build(*params)
