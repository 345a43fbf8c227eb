"""Comparison regions of the plane with one membership interface.

Every region that the radius and inclusion computations compare against is
a `Domain` with four capabilities:

  * ``margin(w)``   -- vectorized signed membership indicator, positive inside,
                       zero on the boundary, -inf at a non-finite point
                       (units vary by kind; all vanish linearly in
                       w-distance except where noted);
  * ``excess(ws, tol)`` -- the containment test as a number, positive
                       exactly when every point is finite and inside or
                       within tol >= 0 of the boundary, and
                       ``contains_all(ws, tol)``, its sign;
  * ``boundary(t, e)`` -- parametrization of the topological boundary,
                       t in [0, 2pi), by default ``generator(e^{it})``,
                       read from e = e^{it} when the caller holds it
                       (the points of `radii._circle_grid`);
  * ``boundary_gap(w)`` -- high-accuracy distance-like gap used by the
                       sharpness (boundary touch) checks.

There are three classes of region:

  * disks, the images of center + radius z;
  * the ten regions with a defining inequality: the cardioid, the image of
    the unit disk under `cardioid.eval_phi`, with its margin
    1 - |sqrt(2w - 1) - 1| in preimage units (1 - |z|); two half-planes,
    sectors, conics, and the exponential / lemniscate / Cassinian / sigmoid
    / cosh regions, of which the exponential, sigmoid and cosh margins are
    1 - |psi^{-1}(w)| too, from logarithmic inverses;
  * generator images -- the nephroid, limacon, lune, sine, the rational and
    shifted-lemniscate generators, the wide cardioid and the Booth curve --
    classified by subordination: w is inside when a root of psi(z) = w lies
    in the unit disk.  Their margins are Euclidean distances to the
    boundary curve, exact near the boundary and an upper bound elsewhere.

Each kind of the last two classes is one row of `_REGIONS`: its
`Parameter`, the one declaration of its range, which the `radii` class rows
over the same family share; its inscribed disk; and either its margin,
description and own curve (`InequalityRegion`) or its generator's inverse,
singular points and branch rule (`GeneratorImageRegion`).  Each class
declares ``near``, the boundary tolerance in the unit of its margin.

The cardioid, the generator images other than the shifted lemniscate, and
the sigmoid and cosh regions also carry ``inscribed``, a disk certified to
lie inside the open region: the paper's disk lemma |w - 3/2| < 1 for the
cardioid, a closed-form distance from psi(0) = 1 to the boundary for the
others.
The containment test accepts the points strictly inside that disk with
one `abs` each and runs the exact test on the rest only; the excess
accepts only the points inside 0.9 times it, so that it does not jump
where the disk touches the boundary.  Every accepted point has an exact
margin > 0, and the exact tests decide point by point, so every verdict
is the exact test's.  The other regions keep no disk and run their exact
test on every point.  At tol = 0 a generator image decides from its roots
alone, without its Gauss-Newton distance, and its excess is its least
preimage margin, 1 - |psi^{-1}(w)|.

Every region is mirror-symmetric in the real axis (``symmetric``) except a
disk whose center is off it.

`make_domain(kind, *params)` builds every kind by name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
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
# the share of an inscribed disk's radius inside which points skip the exact
# test.  The points of its outer tenth keep their exact margins, so a point
# moving out across a touch of the disk and the boundary (the cardioid's cusp
# 1/2 and tip 5/2) does not make the excess jump: Brent's method stalled on
# the jump when the whole disk was skipped
_INSCRIBED_SKIP = 0.9


def _as_points(w) -> np.ndarray:
    return np.atleast_1d(np.asarray(w, dtype=complex))


class Domain:
    """Base interface; subclasses provide `_margin`, the margin formula for
    finite points, and either a `generator` of the region or their own
    boundary curve."""

    kind: str = "abstract"
    # how far outside, in the unit of `margin`, a point still counts as on
    # the boundary, so that sharp radii (tangential touches) pass
    near: float = 1e-7
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

    def _curve(self, t: np.ndarray, e: np.ndarray):
        return self.generator(e)

    def boundary(self, t, e=None):
        """The boundary at the angles t; `e`, when given, must be e^{it},
        such as the points of `radii._circle_grid`, and saves computing it."""
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._curve(t, np.exp(1j * t) if e is None else e))
        return out if out.shape else complex(out)

    def contains_all(self, ws, tol: float = 0.0) -> bool:
        """True iff every point is finite and inside or within tol of the
        boundary: the sign of `excess`, computed with every point strictly
        inside `inscribed` skipping the exact test; keeping the exact test
        on the disk's outer tenth would make a radius scan up to 1.7 times
        slower."""
        return self._excess_beyond(1.0, ws, tol) > 0.0

    def excess(self, ws, tol: float = 0.0) -> float:
        """The containment test as a number, positive exactly when every
        point is finite and inside or within tol of the boundary: by default
        the least margin plus tol, -inf when a point is not finite.

        Points strictly inside `_INSCRIBED_SKIP` times the radius of
        `inscribed` skip the exact test, which runs on the other points;
        when there are none, the excess is that radius.  The sign
        is the exact test's on all the points, because that test decides
        point by point and each skipped point has margin > 0 >= -tol.
        Raises ValueError for an empty point set and for a negative (or
        NaN) tol, where the shortcut is unsound.
        """
        return self._excess_beyond(_INSCRIBED_SKIP, ws, tol)

    def _excess_beyond(self, share: float, ws, tol: float) -> float:
        # `excess` with the points strictly inside share times the inscribed
        # radius skipping the exact test
        ws = _as_points(ws)
        if not ws.size:
            raise ValueError("need at least one point")
        if not tol >= 0.0:
            raise ValueError("tolerance must be nonnegative")
        if self.inscribed is not None:
            center, radius = self.inscribed
            # written with < so that NaN points are kept, and rejected below
            ws = ws[~(np.abs(ws - center) < share * radius)]
            if not ws.size:
                return radius
        if not np.isfinite(ws).all():
            return -math.inf
        return self._exact_excess(ws, tol)

    def _exact_excess(self, ws: np.ndarray, tol: float) -> float:
        # the non-finite points are removed; a float sum of the margin and
        # tol is positive exactly when the margin exceeds -tol
        return float(self._margin(ws).min() + tol)

    def worst_point(self, ws) -> tuple[complex, float]:
        ws = _as_points(ws)
        m = self.margin(ws)
        i = int(np.argmin(m))
        return complex(ws[i]), float(m[i])

    def boundary_gap(self, w: complex) -> float:
        return abs(float(np.min(self.margin(w))))

    def describe(self) -> str:
        return self.kind


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


def _root_sizes(z, ws=None, branch=None) -> np.ndarray:
    """Moduli of the candidate roots `z` of psi(z) = w along axis 0, inf for
    a NaN root and, under a `branch` rule (w, z) -> bool, for a root in the
    disk off psi's branch.  Their least is |psi^{-1}(w)|."""
    size = np.abs(z)
    size[np.isnan(size)] = np.inf
    if branch is not None:
        # only a root in the disk can make w a member
        size[(size < 1.0) & ~branch(ws, z)] = np.inf
    return size


def _preimage_margin(inverse):
    """The margin 1 - |psi^{-1}(w)| from `inverse`, (w, *params) -> the roots
    of psi(z) = w along axis 0; a logarithm of 0 or inf reads -inf, outside."""
    def margin(w, *params):
        with np.errstate(all="ignore"):
            return 1.0 - _root_sizes(inverse(w, *params)).min(axis=0)
    return margin


def _lemniscate_margin(w, alpha):
    # the right-lobe selector Re u > 0 is part of the region: the generator
    # alpha + (1 - alpha) sqrt(1 + z) has range in that lobe only
    u = (w - alpha) / (1.0 - alpha)
    return np.minimum(1.0 - np.abs(u * u - 1.0), u.real)


def _arccosh_roots(w):
    # both square-root branches are tried; they give reciprocal arguments, so
    # the smaller |log| is the right one away from the branch cut
    s = np.sqrt(w * w - 1.0)
    return np.log(np.stack((w + s, w - s)))


def _lemniscate_inverse(w):
    s = (SQRT2 - w) / (SQRT2 - 1.0)
    return ((1.0 - s * s) / (1.0 + 2.0 * (SQRT2 - 1.0) * s * s))[None]


_PM = np.array([[1.0], [-1.0]])   # the two signs of a square root, along axis 0


@dataclass(frozen=True)
class Parameter:
    """A family parameter: its name, the noun of its messages, and its valid
    values as the interval the message quotes, e.g. "[0, 1)" or "(1/2, inf)",
    parsed once into the least and greatest valid floats."""

    name: str
    noun: str
    values: str
    first: float = field(init=False)       # least valid float
    last: float = field(init=False)        # greatest valid float
    error: str = field(init=False)         # the ValueError text outside the range

    def __post_init__(self):
        lo, hi = (end.strip() for end in self.values[1:-1].split(","))
        lo_x, hi_x = (math.inf if end == "inf" else float(Fraction(end)) for end in (lo, hi))
        lo_open, hi_open = self.values[0] == "(", self.values[-1] == ")"
        if hi != "inf":
            must = f"lie in {self.values}"
        elif lo_open:
            must = f"exceed {lo}"
        else:
            must = f"be at least {lo}" if lo_x else "be nonnegative"
        object.__setattr__(self, "first", math.nextafter(lo_x, math.inf) if lo_open else lo_x)
        object.__setattr__(self, "last", math.nextafter(hi_x, -math.inf) if hi_open else hi_x)
        object.__setattr__(self, "error", f"{self.noun} must {must}")

    def check(self, p: float, owner: str = "") -> None:
        """Raise ValueError unless p is finite and valid; `owner` names a non-finite p."""
        if not math.isfinite(p):
            subject = f"parameter {self.name} of {owner}" if owner else self.noun
            raise ValueError(f"{subject} must be finite")
        if not self.first <= p <= self.last:
            raise ValueError(self.error)


@dataclass(frozen=True)
class _Kind:
    """One region kind: its parameter, if any, the radius of a disk about
    `center` inside it (about psi(0) = 1 for a generator image, where it is
    min |psi(e^{it}) - 1|), and either its inequality (`InequalityRegion`)
    or its generator's inverse (`GeneratorImageRegion`)."""

    param: Parameter | None = None
    inradius: Callable[..., float] | None = None
    center: float = 1.0                    # of the inscribed disk
    margin: Callable | None = None         # (w, *params) -> signed margin
    text: str = ""                         # `describe` format over the parameter names
    curve: Callable | None = None          # (t, *params) -> boundary, if not a generator's
    roots: Callable | None = None          # (w, *params) -> candidate roots of psi(z) = w, axis 0
    # unit-circle points where psi' vanishes (cusps) or is infinite (corners):
    # angle steps cannot settle there, so their images are distance candidates
    singular: tuple[complex, ...] = ()
    branch: Callable | None = None         # (w, z) -> which roots in the disk are psi's own

    @property
    def params(self) -> tuple[str, ...]:
        return (self.param.name,) if self.param else ()


# Of the other inequality regions only the sigmoid and cosh regions, whose
# margins take complex logarithms, were measured to gain from an inscribed
# disk.  The shifted lemniscate has no closed form for one and keeps none.
_REGIONS: dict[str, _Kind] = {
    # the paper's region, the image of 1 + z + z^2/2: |sqrt(2w - 1) - 1| < 1,
    # with its margin in preimage units (1 - |z|)
    "cardioid": _Kind(
        margin=cardioid.preimage_margin, text="cardioid",
        # the paper's lemma: |w - 3/2| < r_{3/2} = 1 lies inside the region
        center=1.5, inradius=lambda: cardioid.inner_outer_radii(1.5)[0]),
    # the region of functions with bounded turning quotient
    "bounded_re": _Kind(
        Parameter("beta", "bounded-real-part parameter", "(1, inf)"),
        margin=lambda w, beta: beta - w.real, text="half-plane Re w < {beta:g}",
        curve=lambda t, beta: beta + 1j * _LINE_HALF_LENGTH * (t - math.pi) / math.pi),
    # starlikeness of order alpha
    "min_re": _Kind(
        Parameter("alpha", "order parameter", "[0, 1)"),
        margin=lambda w, alpha: w.real - alpha, text="half-plane Re w > {alpha:g}",
        curve=lambda t, alpha: alpha + 1j * _LINE_HALF_LENGTH * (t - math.pi) / math.pi),
    # |arg w| < beta pi/2, strong starlikeness of order beta
    "sector": _Kind(
        Parameter("beta", "sector order", "(0, 1]"),
        margin=_sector_margin, text="sector |arg w| < {beta:g} pi/2", curve=_sector_rays),
    # Re w > k |w - 1|: half-plane (k = 0), parabola or hyperbola interior
    # (0 < k <= 1), ellipse interior (k > 1)
    "conic": _Kind(
        Parameter("k", "conic parameter", "[0, inf)"),
        margin=lambda w, k: w.real - k * np.abs(w - 1.0), text="conic region Re w > {k:g} |w-1|",
        curve=_conic_ellipse_curve),
    # |log((w - alpha)/(1 - alpha))| < 1, image of alpha + (1 - alpha) e^z
    "exponential": _Kind(
        Parameter("alpha", "exponential-region parameter", "[0, 1)"),
        margin=_preimage_margin(lambda w, alpha: np.log((w - alpha) / (1.0 - alpha))[None]),
        text="exponential region (alpha={alpha:g})"),
    # right lobe of |((w - alpha)/(1 - alpha))^2 - 1| < 1
    "lemniscate": _Kind(
        Parameter("alpha", "lemniscate-region parameter", "[0, 1)"),
        margin=_lemniscate_margin, text="lemniscate region (alpha={alpha:g})"),
    # right loop |w^2 - 1| < c, Re w > 0 of the Cassinian ovals
    "cassinian": _Kind(
        Parameter("c", "Cassinian parameter", "(0, 1]"),
        margin=lambda w, c: np.minimum(c - np.abs(w * w - 1.0), w.real),
        text="Cassinian right loop (c={c:g})"),
    # |log(w/(2 - w))| < 1, image of the modified sigmoid 2/(1 + e^-z)
    "sigmoid": _Kind(
        margin=_preimage_margin(lambda w: np.log(w / (2.0 - w))[None]), text="sigmoid",
        # |log(w/(2 - w))| = 2 |artanh(w - 1)| <= 2 artanh |w - 1| < 1, as the
        # Taylor coefficients of artanh are positive
        inradius=lambda: math.tanh(0.5)),
    # |log(w + sqrt(w^2 - 1))| < 1, image of cosh z
    "cosh": _Kind(
        margin=_preimage_margin(_arccosh_roots), text="cosh",
        # w = 1 + 2 q^2 has |arccosh w| = 2 |arcsinh q| <= 2 arcsin |q| < 1 for
        # |q| < sin(1/2), as arcsin's Taylor coefficients are the moduli of arcsinh's
        inradius=lambda: 1.0 - math.cos(1.0)),
    # z^2 + k w z - k^2 (w - 1) = 0 with k = 1 + sqrt 2
    "rational": _Kind(
        roots=lambda w: 0.5 * (1.0 + SQRT2) * (-w + _PM * np.sqrt(w * w + 4.0 * w - 4.0)),
        singular=(-1.0,),
        # |psi - 1| = |k + z| / (k |k - z|) >= (k - 1)/(k (k + 1)) = 3 - 2 sqrt 2
        # with k = 1 + sqrt 2, at z = -1
        inradius=lambda: 3.0 - 2.0 * SQRT2),
    # s = sqrt((1-z)/(1+2(sqrt2-1)z)) = (sqrt2 - w)/(sqrt2 - 1) is principal,
    # so Re s >= 0, that is Re w <= sqrt 2
    "rational_lemniscate": _Kind(
        roots=_lemniscate_inverse, singular=(1.0,), branch=lambda w, z: w.real <= SQRT2),
    "cardioid_wide": _Kind(
        roots=lambda w: -1.0 + _PM * np.sqrt((3.0 * w - 1.0) / 2.0), singular=(-1.0,),
        # |psi - 1| = (2/3) |2 + z| >= 2/3, at z = -1
        inradius=lambda: 2.0 / 3.0),
    "limacon": _Kind(
        roots=lambda w: -SQRT2 + _PM * np.sqrt(2.0 * w),
        # |psi - 1| = |sqrt 2 + z/2| >= sqrt 2 - 1/2, at z = -1
        inradius=lambda: SQRT2 - 0.5),
    # sqrt(1 + z^2) = w - z is principal, so Re(w - z) >= 0
    "lune": _Kind(
        roots=lambda w: ((w * w - 1.0) / (2.0 * w))[None], singular=(1j, -1j),
        branch=lambda w, z: (w - z).real >= 0.0,
        # the lune is |w - 1| < sqrt 2 outside |w + 1| <= sqrt 2, whose circle
        # passes 2 - sqrt 2 from 1
        inradius=lambda: 2.0 - SQRT2),
    "sine": _Kind(
        roots=lambda w: np.arcsin(w - 1.0)[None],
        # |sin(x + iy)|^2 = sin^2 x + sinh^2 y >= sin^2(1) (x^2 + y^2), as
        # sin x / x >= sin 1 for |x| <= 1
        inradius=lambda: math.sin(1.0)),
    # trigonometric roots of z^3 - 3z + 3(w - 1) = 0
    "nephroid": _Kind(
        roots=lambda w: 2.0 * np.cos(
            (np.arccos(1.5 * (1.0 - w)) + 2.0 * math.pi * np.arange(3)[:, None]) / 3.0),
        singular=(1.0, -1.0),
        # |psi - 1| = |1 - z^2/3| >= 2/3, at z = +-1
        inradius=lambda: 2.0 / 3.0),
    # alpha u z^2 + z - u = 0 with u = w - 1, rationalized so alpha = 0 works
    "booth": _Kind(
        Parameter("alpha", "Booth-curve parameter", "[0, 1)"),
        roots=lambda w, alpha: 2.0 * (w - 1.0) / (
            1.0 + _PM * np.sqrt(1.0 + 4.0 * alpha * (w - 1.0) ** 2)),
        # |psi - 1| = 1 / |1 - alpha z^2| >= 1/(1 + alpha), at z = +-i
        inradius=lambda alpha: 1.0 / (1.0 + alpha)),
}


class Region(Domain):
    """A region kind declared by its `_REGIONS` row, over positional
    parameters in the row's order."""

    def __init__(self, kind: str, *params: float):
        row = _REGIONS[kind]
        if row.param is not None:
            row.param.check(params[0], f"region kind {kind!r}")
        self.kind = kind
        self.params = params
        self._row = row
        if row.inradius is not None:
            self.inscribed = (row.center, row.inradius(*params) - _INSCRIBED_GUARD)

    def generator(self, z):
        """The kind's `functions` generator, which draws the boundary of
        every row without its own `curve`."""
        return functions.generator(self.kind)(z, *self.params)


class InequalityRegion(Region):
    """A region with a defining inequality: its row's `margin`."""

    def _margin(self, w):
        return self._row.margin(w, *self.params)

    def _curve(self, t: np.ndarray, e: np.ndarray):
        if self._row.curve is None:
            return super()._curve(t, e)
        return self._row.curve(t, *self.params)

    def describe(self) -> str:
        return self._row.text.format(**dict(zip(self._row.params, self.params)))


class GeneratorImageRegion(Region):
    """Image of the unit disk under a univalent generator psi (open region).

    Membership is the preimage test that `cardioid` uses: w is inside when
    the smallest root of psi(z) = w lies in the unit disk.  Each row has a
    closed-form inverse, `roots`; where that inverse squares away a
    principal square root of psi, its `branch` rule discards the roots in
    the disk that belong to the other branch.  The margin is the Euclidean
    distance to the boundary curve psi(e^{it}), refined from the angle of
    that root: exact near the boundary, an upper bound elsewhere.
    """

    near = 1e-6
    _REFINE_STEPS = 12

    @cached_property
    def _singular_values(self) -> np.ndarray:
        return self.generator(np.asarray(self._row.singular, dtype=complex))

    def _roots(self, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate roots of psi(z) = w along axis 0 and their moduli, inf
        for a root in the disk off psi's branch."""
        with np.errstate(all="ignore"):
            z = self._row.roots(ws, *self.params)
            return z, _root_sizes(z, ws, self._row.branch)

    def _distance(self, ws: np.ndarray, z: np.ndarray, size: np.ndarray) -> np.ndarray:
        """min_t |psi(e^{it}) - w| by Gauss-Newton steps from the angle of
        the smallest root: exact near the boundary, an upper bound elsewhere.

        A step that does not bring the boundary point closer is halved
        instead of taken, so the iteration stays on the nearest arc when it
        straddles a corner; every iterate is a boundary point, so the result
        never undershoots.  Far from the boundary the start can sit at a
        distance maximum, where no step descends, and the result then
        overestimates.

        Each iteration evaluates psi once, at the trial angles.  The
        derivative for the next step, psi at both difference angles in one
        call, is evaluated only on an iteration where some point moved; on
        the others every step is just halved, as the iterates would read
        nothing else."""
        def offset(t):
            # psi(e^{it}) - w, from each query to its boundary point
            return self.generator(np.exp(1j * t)) - ws

        def gauss_newton_step(t, d):
            # a derivative error moves the fixed point only in proportion to
            # the distance, so the step can stay far below the angular
            # distance of a query near a corner, where psi' is infinite
            tt = t + np.array([[1e-11], [-1e-11]])
            g = self.generator(np.exp(1j * tt))
            dg = (g[0] - g[1]) / (tt[0] - tt[1])
            return np.nan_to_num(np.real(np.conj(d) * dg) / np.abs(dg) ** 2)

        nearest = np.take_along_axis(z, np.argmin(size, axis=0)[None], axis=0)[0]
        t = np.nan_to_num(np.angle(nearest))
        with np.errstate(all="ignore"):
            d = offset(t)
            best = np.abs(d)
            step = gauss_newton_step(t, d)
            for _ in range(self._REFINE_STEPS):
                t_try = t - step
                d_try = offset(t_try)
                gap = np.abs(d_try)
                closer = gap < best
                if not closer.any():
                    step = 0.5 * step
                    continue
                t = np.where(closer, t_try, t)
                d = np.where(closer, d_try, d)
                best = np.where(closer, gap, best)
                step = np.where(closer, gauss_newton_step(t, d), 0.5 * step)
        for c in self._singular_values:
            best = np.minimum(best, np.abs(ws - c))
        return best

    def _margin(self, w):
        ws = _as_points(w)
        z, size = self._roots(ws)
        dist = self._distance(ws, z, size)
        out = np.where(size.min(axis=0) < 1.0, dist, -dist)
        return out if np.ndim(w) else float(out[0])

    def _exact_excess(self, ws: np.ndarray, tol: float) -> float:
        # the roots decide every point, and give the excess 1 - (largest
        # least root modulus) unless a point is outside while tol admits
        # some; only then is the distance needed, for the points outside,
        # and a point at exactly tol passes
        z, size = self._roots(ws)
        least = size.min(axis=0)
        out = least >= 1.0
        if tol <= 0.0 or not out.any():
            return float(1.0 - least.max())
        worst = self._distance(ws[out], z[:, out], size[:, out]).max()
        return float(np.nextafter(tol, math.inf) - worst)

    def describe(self) -> str:
        image = f"image of generator {self.kind}"
        return f"{image}({self._row.param.name}={self.params[0]:g})" if self.params else image


def check_janowski_pair(A: float, B: float) -> None:
    """Raise ValueError unless -1 <= B < A <= 1, the two-parameter family's range."""
    if not -1.0 <= B < A <= 1.0:
        raise ValueError("need -1 <= B < A <= 1")


def janowski_disk(A: float, B: float, r: float) -> Disk:
    """The disk |w - (1 - A B r^2)/(1 - B^2 r^2)| < (A - B) r / (1 - B^2 r^2)
    swept by the starlike quotient over |z| = r in the two-parameter class."""
    check_janowski_pair(A, B)
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


# every region kind with its constructor and the names of its parameters, in
# the order that the unknown-kind message lists them
_KINDS: dict[str, tuple[Callable[..., Domain], tuple[str, ...]]] = {
    "disk": (_disk, ("cx", "cy", "r")),
    **{kind: (partial(InequalityRegion, kind), row.params)
       for kind, row in _REGIONS.items() if row.margin is not None},
    "janowski_disk": (janowski_disk, ("A", "B", "r")),
    **{kind: (partial(GeneratorImageRegion, kind), row.params)
       for kind, row in _REGIONS.items() if row.roots is not None},
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
