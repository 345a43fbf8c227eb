"""Independent numerical oracles for every tabulated constant and claim.

The verification strategy mirrors how the radius statements are proved:
containment of a sampled circle image inside a target region, located by
bisection.  Closed-form constants are recomputed this way and must agree
within `AGREEMENT_TOL` = 2e-4 at every sample count.
Containment is tested on the circle |z| = r only; the quotients involved
are analytic, so the image boundary lies on the circle image, and a small
interior spot-check guards against misuse.

Every radius is found by one search, `_radius`, which returns a certified
bracket: the circle image of a quotient (`subordination_radius`) or a
family of disks (`disk_family_radius`) fits on one side and leaves the
region on the other.  It finds the first of 65 scan radii, 1e-4 and 64 more
up to 1, whose image leaves the region at its ``near`` tolerance, and
bisects the bracket below it.  Every region here is simply connected, so
containment is monotone in r wherever the image grows with r: by the
argument principle, below the modulus rho of the quotient's nearest pole or
branch point, which each quotient declares (`FunctionSpec.singularity`),
and for every disk family, whose disks must nest (checked on the scan
radii).  No disk of radius rho or more has its image in a region (past a
pole the image holds a neighbourhood of infinity, which no region here
does, and past a branch point w is not analytic on it), so every radius
from rho on is recorded as failed without a test.  A guided search
records the largest radius seen to pass and the least seen to fail; the
scan and the bisection then answer from those two, and test only the
radii strictly between them.  In a generator image the guided search halves the range of the scan
indices below rho at containment tolerance 0, where the image needs no
Gauss-Newton distance (a pass at 0 is a pass at ``near``), and holds the
image of its first failure for the test at ``near``.  In every other
region a radius the caller expects (a registry row's formula) is tried
first: when it lies more than 1e-6 inside (0, min(rho, 1 - 1e-9)), its
image fits at 1e-6 below it and leaves at 1e-6 above it, and that
bracket holds the failure, Brent's method is skipped.  Otherwise the
search tests 1 - 1e-9, or 1 - 1e-9 times rho when rho < 1, which ends
the search there when it passes, and otherwise finds where
`domains.Domain.excess` at ``near`` changes sign between 1e-4 and that
radius by `radii.brent_sign_change`, stopping at a bracket of a tenth of
the bisection's width; the scan starts above the largest radius seen to
pass, and the bisection tests the midpoints left inside Brent's last
bracket.  Either way the bracket and every value are the ones a scan of one
radius at a time and its bisection find, whatever radius is expected and
whatever width Brent stops at.  A guided probe that raises, or that
divides by zero, overflows or makes an invalid value (numpy's raise mode,
whatever the caller's setting), ends the guided search; the scan then
tests the radii that its verdicts leave open, raising or warning as the
one-radius scan does.  The relative refinement of a radius below 1e-3
and the two certificate tests at r - width and r + width replay nothing.

A registry row's oracle descriptor is evaluated in one place, `_measure`:
a `radii.Threshold` measurement, a `radii.DiskFamily` radius or a
`radii.Subordination` radius; the partial-sum suite measures its registry
rows through it too, and each row's formula seeds its radius search.  One
invocation measures each distinct descriptor once: `run_all_suites` (and
the `constants` table) pass a `Measured` dict through `measure_constant`,
still called once per registry row, and the partial-sum suite, so rows
with equal descriptors and the suite read the first measurement.  Nothing
is kept between invocations.  Every pass/fail report is built by
`_report`.

Each inclusion relation is declared once, in `INCLUSION_FAMILIES`, as its
region pair p -> (inner, outer).  Its threshold oracle (the sign change of
the sampled inclusion margin, found by `radii.brent_sign_change`), its
sharp claim in `inclusion_suite` and its figure in the command line all
read that pair.

Near-boundary points count as inside within a small tolerance so that the
sharp radii themselves (tangential touches) pass: each region's ``near``,
declared beside its margin unit.  It is 1e-6 for the generator images
other than the cardioid, whose margins are Euclidean distances, and 1e-7
for the cardioid, whose margin is in preimage units, and for the others.

The mirror rule.  A circle-sampled oracle evaluates only the closed upper
half of its n-point grid, its first n//2 + 1 points (t = 0 to pi), when
both the sampled map and the region are mirror-symmetric in the real axis:
a quotient with w(conj z) = conj w(z) (`FunctionSpec.real`), a disk with a
real center, or a region boundary, and a region with margin(conj w) =
margin(w) (`Domain.symmetric`).  The image of the lower half circle is then
the mirror image of the upper half's, and each mirrored point has the
margin of its original, so the lower half can never bind.  Every class of
the paper is a Ma-Minda class and every comparison region is symmetric, so
this holds for every oracle but the ratio quotients with rotation i, which
sample the full grid.  `_radius` (the subordination and disk-family radii)
and `_inclusion_margin` (the inclusion thresholds and sharp claims) apply
the rule; `image_in_domain` samples the full grid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import cardioid, domains, functions, radii
from .functions import FunctionSpec
from .series import PowerSeries, circle_log_derivative, f_cardioid_series

DEFAULT_SAMPLES = 4096
DEFAULT_TOL = 1e-6
# oracle vs formula at every sample count: 2.3x the worst difference
# measured at 256 to 8192 samples
AGREEMENT_TOL = 2e-4
_TOUCH_TOL = 1e-9         # sharp quotient to touch value, and that value to the boundary
_SERIES_RADIUS = 0.999    # the circle on which truncated series are evaluated


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    method: str
    samples: int
    verdict: str                       # "pass" | "fail"
    witness: complex | None = None     # worst point; always present on fail
    measured_value: float | None = None
    flags: tuple[str, ...] = ()
    detail: str = ""

    def __post_init__(self):
        if self.verdict not in ("pass", "fail"):
            raise ValueError("verdict must be 'pass' or 'fail'")
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("fail verdicts must carry a witness point")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _report(claim: str, method: str, samples: int, ok: bool, measured: float | None = None,
            witness: complex | None = 0j, **extra) -> VerificationReport:
    """The report of a check that passed when `ok`; the witness is kept only
    on a fail, where 0j stands for a check without a worst point."""
    return VerificationReport(claim, method, samples, "pass" if ok else "fail",
                              witness=None if ok else witness, measured_value=measured, **extra)


def image_in_domain(spec: FunctionSpec, r: float, d: domains.Domain,
                    n: int = DEFAULT_SAMPLES) -> VerificationReport:
    """Does spec.w_of map the closed subdisk of radius r into d?

    Tested on the circle |z| = r (maximum principle) plus a 64-point
    interior spot-check on two inner rings.  A fail reports the worst point
    of the circle and the rings together.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("radius must lie in (0, 1]")
    if n < 256:
        raise ValueError("need at least 256 samples")
    e = radii._circle_grid(n)[1]
    ring = radii._circle_grid(32)[1]
    pts = np.concatenate([np.asarray(spec.w_of(r * e)), np.asarray(spec.w_of(0.5 * r * ring)),
                          np.asarray(spec.w_of(0.75 * r * ring))])
    claim = f"{spec.name} image of |z|<{r:g} inside {d.describe()}"
    if d.contains_all(pts, d.near):
        return _report(claim, "circle-sampling", n, True)
    witness, margin = d.worst_point(pts)
    return _report(claim, "circle-sampling", n, False, margin, witness)


# Coarse scan radii, which bracket the first failure before a radius is
# bisected: 1e-4, below which the search halves instead, and 64 radii up to
# 1.  The guided search finds that failure, and a scan of these radii
# replays its verdicts; it tests them only after a guided probe raises.
_RADIUS_SCAN = tuple(np.linspace(1e-4, 1.0 - 1e-9, 65).tolist())


# relative bracket width for radii below tol / _RADIUS_REL_TOL
_RADIUS_REL_TOL = 1e-3

# the bracket width at which a guided search's Brent's method stops: the
# bisection below it ends in a cell of about DEFAULT_TOL and tests any of its
# midpoints that this bracket leaves open, so no value depends on the width
_BRENT_WIDTH = 0.1 * DEFAULT_TOL

# image(r, e): the circle image of radius r at the unit-circle points e
_Image = Callable[[float, np.ndarray], np.ndarray]


class _Probes:
    """The containment tests of one radius search: the image of radius r at
    the unit-circle points e inside d within `near`, whose verdicts are
    monotone in r below `singularity` and fail from it on.

    `passed` and `failed` are the largest radius seen to pass and the least
    known to fail, at first `singularity`; `ok` answers from them outside
    that bracket and tests the radii strictly inside it.  A search that
    tests radii in increasing order up to its first failure and then bisects
    below it only ever tests inside."""

    def __init__(self, image: _Image, d: domains.Domain, e: np.ndarray, near: float,
                 singularity: float):
        self.image, self.d, self.e, self.near = image, d, e, near
        self.passed, self.failed = 0.0, singularity
        self.held: dict[float, np.ndarray] = {}    # r -> its image, made by an earlier test

    def excess(self, r: float) -> float:
        """`Domain.excess` of the image of r at `near`, its verdict recorded,
        clipped at -1: the sign is kept, and Brent's method is not drawn
        toward 1e-4 by an image that leaves the region by far near r = 1
        (a disk center (1 + r^2)/(1 - r^2) reads about -1e9 there)."""
        x = self.d.excess(self.image(r, self.e), self.near)
        if x > 0.0:
            self.passed = max(self.passed, r)
        else:
            self.failed = min(self.failed, r)
        return max(x, -1.0)

    def ok(self, r: float) -> bool:
        """The verdict at r: replayed outside the bracket, tested inside."""
        if r <= self.passed or r >= self.failed:
            return r <= self.passed
        w = self.held.pop(r) if r in self.held else self.image(r, self.e)
        if self.d.contains_all(w, self.near):
            self.passed = r
            return True
        self.failed = r
        return False

    def halve(self) -> None:
        """Halve the range of the scan indices below `failed` at tolerance
        0: a pass there is a pass at `near`, and the image of the last
        failure is held for its test at `near`."""
        lo, hi = -1, bisect.bisect_left(_RADIUS_SCAN, self.failed)
        while hi - lo > 1:
            k = (lo + hi) // 2
            r = _RADIUS_SCAN[k]
            w = self.image(r, self.e)
            if self.d.contains_all(w, 0.0):
                lo, self.passed = k, r
            else:
                hi, self.held = k, {r: w}

    def seed(self, r: float) -> bool:
        """Test r + `DEFAULT_TOL`, then r - `DEFAULT_TOL`, when both lie
        strictly inside the bracket and below the last scan radius; True
        when they bracket the failure."""
        lo, hi = r - DEFAULT_TOL, r + DEFAULT_TOL
        if not (self.passed < lo and hi < min(self.failed, _RADIUS_SCAN[-1])):
            return False
        return not self.ok(hi) and self.ok(lo)

    def brent(self) -> None:
        """Test 1 - 1e-9, or 1 - 1e-9 times `failed` when that is less,
        then, when it fails and 1e-4 passes, find where the excess changes
        sign between them by `radii.brent_sign_change` to a bracket of
        `_BRENT_WIDTH`, each radius tested once."""
        excess = lru_cache(maxsize=None)(self.excess)    # Brent's method reads both ends again
        lo, hi = _RADIUS_SCAN[0], min(_RADIUS_SCAN[-1], self.failed * (1.0 - 1e-9))
        if not excess(hi) > 0.0 and excess(lo) > 0.0:
            radii.brent_sign_change(excess, lo, hi, tol=_BRENT_WIDTH)


def _first_scan_failure(probes: _Probes, expected: float | None = None) -> int:
    """Index of the first scan radius whose image leaves the region at the
    probes' tolerance, or len(_RADIUS_SCAN) when none does: the one a scan
    of one radius at a time stops at.  The guided search, seeded by
    `expected` when given, runs first and the scan replays its verdicts
    (see the module docstring): it starts at the first scan radius above
    the largest radius seen to pass, as every one below passes, and tests
    only the radii a guided probe that raised left open."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if isinstance(probes.d, domains.GeneratorImageRegion):
                probes.halve()
            elif expected is None or not probes.seed(expected):
                probes.brent()
    except Exception:
        pass    # raised again below if the scan reaches that radius
    start = bisect.bisect_right(_RADIUS_SCAN, probes.passed)
    return next((k for k, r in enumerate(_RADIUS_SCAN[start:], start) if not probes.ok(r)),
                len(_RADIUS_SCAN))


def _radius(image: _Image, d: domains.Domain, n: int, half: bool, singularity: float,
            expected: float | None) -> float:
    """Largest r with image(r, e) inside d on the n-point unit circle e, or
    on its closed upper half when `half` (the mirror rule of the module
    docstring), searched as the module docstring says, seeded by `expected`
    when given; containment must be monotone in r below `singularity` and
    fail from it on.

    The bracket is narrowed to tol = `DEFAULT_TOL`, or to relative 1e-3
    when the radius is below 1000 tol, with the near-boundary tolerance
    shrunk by the same factor; when the image leaves d at 1e-4 already, that
    radius is halved until it fits, down to `radii.RADIUS_FLOOR`.  The
    result is certified by two tests that replay nothing: the image fits at
    r - width and leaves d at r + width, with that width, or the search
    raises ArithmeticError.  1.0 means the whole disk fits.
    """
    near, tol = d.near, DEFAULT_TOL
    e = radii._circle_grid(n, half)[1]
    probes = _Probes(image, d, e, near, singularity)
    k = _first_scan_failure(probes, expected)
    if k == len(_RADIUS_SCAN):
        return 1.0
    if k:
        r = radii.bisect_predicate(probes.ok, _RADIUS_SCAN[k - 1], _RADIUS_SCAN[k], tol=tol)
    else:
        lo = _RADIUS_SCAN[0]
        r = radii.bisect_predicate(probes.ok, 0.5 * lo, lo, tol=tol, floor=radii.RADIUS_FLOOR)
    width = min(tol, _RADIUS_REL_TOL * r)
    if width < tol:
        near *= width / tol
        # a pass at the wider tolerance says nothing at this one
        probes = _Probes(image, d, e, near, math.inf)
        r = radii.bisect_predicate(probes.ok, 0.5 * r, 2.0 * r, tol=width,
                                   floor=radii.RADIUS_FLOOR)

    def fits(r: float) -> bool:
        return d.contains_all(image(r, e), near)

    if r < 1.0 and not (fits(max(r - width, radii.RADIUS_FLOOR))
                        and not fits(min(r + width, 1.0 - 1e-10))):
        raise ArithmeticError("bisection bracket violated")
    return r


def subordination_radius(spec: FunctionSpec, d: domains.Domain, n: int = DEFAULT_SAMPLES, *,
                         expected: float | None = None) -> float:
    """Largest r with spec's image of |z| < r inside d (see `_radius`); on
    the half circle when spec is real and d symmetric.  Each radius below
    spec's singularity is searched on monotone verdicts (the module
    docstring), and every radius from it on fails.  A radius `expected`
    seeds the search and never moves its value."""
    return _radius(lambda r, e: spec.w_of(r * e), d, n, spec.real and d.symmetric,
                   spec.singularity, expected)


def disk_family_radius(center, spread, d: domains.Domain, n: int = DEFAULT_SAMPLES, *,
                       expected: float | None = None) -> float:
    """Largest r with the disk |w - center(r)| <= spread(r) inside d (see
    `_radius`); on the half circle when d is symmetric, where a center off
    the real axis raises ValueError.  center and spread take one radius at
    a time.  The disks must nest, each inside the next, so that containment
    is monotone in r: |center(r2) - center(r1)| <= spread(r2) - spread(r1)
    between consecutive scan radii, or ValueError.  `expected` seeds the
    search as in `subordination_radius`."""
    centers = [center(r) for r in _RADIUS_SCAN]
    spreads = [spread(r) for r in _RADIUS_SCAN]
    for k in range(1, len(_RADIUS_SCAN)):
        if not abs(centers[k] - centers[k - 1]) <= spreads[k] - spreads[k - 1]:
            raise ValueError("disk family must nest: |center(r2) - center(r1)| <= "
                             "spread(r2) - spread(r1) fails between scan radii "
                             f"{_RADIUS_SCAN[k - 1]:.6g} and {_RADIUS_SCAN[k]:.6g}")

    def image(r: float, e: np.ndarray) -> np.ndarray:
        c = center(r)
        if d.symmetric and complex(c).imag != 0.0:
            raise ValueError("disk family center must be real for a mirror-symmetric region")
        return c + spread(r) * e

    return _radius(image, d, n, d.symmetric, math.inf, expected)


def sharpness_touch(spec: FunctionSpec, r_star: float, touch_point_z: complex,
                    expected_w: complex, d: domains.Domain | None = None) -> VerificationReport:
    """Check that the quotient hits its boundary value at the touch point."""
    if abs(abs(touch_point_z) - r_star) > 1e-12:
        raise ValueError("touch point modulus must equal the radius")
    w = complex(np.asarray(spec.w_of(touch_point_z)).reshape(()))
    err = abs(w - expected_w)
    gap = d.boundary_gap(expected_w) if d is not None else 0.0
    ok = err < _TOUCH_TOL and gap < _TOUCH_TOL
    return _report(f"{spec.name} touches {expected_w:g} at |z| = {r_star:g}",
                   "closed-form-evaluation", 1, ok, err if ok else max(err, gap), w)


def convolution_membership_check(f: PowerSeries, g: PowerSeries, rho: float,
                                 n: int = 2048) -> VerificationReport:
    """Is (f * g)(rho z)/rho cardioid-starlike, judged from truncated series?

    The quotient is evaluated from the truncated polynomial on the n-point
    grid of |z| = `_SERIES_RADIUS` (`series.circle_log_derivative`); the
    report carries a truncation flag when |a_N| _SERIES_RADIUS^N is not
    negligible.
    """
    h = f.hadamard(g).dilate(rho)
    tail = abs(h.coeffs[-1]) * _SERIES_RADIUS ** h.order
    flags = ("truncation-limited",) if tail >= 1e-8 else ()
    w = circle_log_derivative(h.coeffs, _SERIES_RADIUS, n)
    margins = cardioid.preimage_margin(w)
    i = int(np.argmin(margins))
    return _report(f"convolution dilated by {rho:g} stays in the cardioid class",
                   "series-sampling", n, margins[i] > -_CARDIOID.near, float(margins[i]),
                   complex(w[i]), flags=flags, detail=f"truncation tail {tail:.2e}")


# ---------------------------------------------------------------------------
# special threshold measurements
# ---------------------------------------------------------------------------

# points per block of `measured_min_re_limit`: the temporaries of a block
# stay in a core's cache, where those of the whole 65,536-point grid do not
_MIN_RE_BLOCK = 1 << 14


def measured_min_re_limit(n: int = 1 << 16) -> float:
    """min Re phi on the n-point circle grid, evaluated block by block; the
    minimum is the whole grid's, bit for bit."""
    z = radii._circle_grid(n)[1]
    b = _MIN_RE_BLOCK
    return float(min(cardioid.eval_phi(z[i:i + b]).real.min() for i in range(0, n, b)))


def measured_max_arg_order() -> float:
    """(2/pi) max |arg| over the boundary, by golden-section search on [0, pi].

    The argument is unimodal there: d/dt arg phi(e^{it}) = Re(z phi'(z)/phi(z))
    = (4 cos t + 1)(cos t + 1) / (2 |phi|^2), which changes sign once, at
    cos t = -1/4.
    """
    def neg_arg(t: float) -> float:
        return -float(np.angle(complex(cardioid.eval_phi(np.exp(1j * t)))))

    t_max = radii.golden_section_min(neg_arg, 0.0, math.pi)
    return (2.0 / math.pi) * (-neg_arg(t_max))


def measured_disk_branch_crossover(n: int = DEFAULT_SAMPLES) -> float:
    """Disk parameter M where the binding tangency of |w - M| < M leaves the
    real axis.

    At the real-axis exit radius r(M) = `radii.disk_real_axis_radius(M)` the
    image of |z| = r(M) touches the circle |w - M| = M at t = 0.  Below the
    crossover that is its only contact; above it an interior tangency has
    bound at a smaller radius, so the image leaves the disk.  The bisection
    in M finds where the excess max|phi(r(M) e^{it}) - M| - M over the closed
    upper half of the n-point grid (the mirror rule of the module docstring)
    first exceeds 1e-12: at 256 to 8192 samples it is at most 4.4e-16
    below the crossover and at least 5.7e-8 from 1e-4 above it.
    """
    e = radii._circle_grid(n, half=True)[1]

    def excess(M: float) -> float:
        w = cardioid.eval_phi(radii.disk_real_axis_radius(M) * e)
        return -float(domains.Disk(M, M).margin(w).min()) - 1e-12

    # bisection, not Brent: the excess is flat at -1e-12 below the crossover,
    # where interpolation steps buy nothing (48 evaluations against 41)
    return radii.bisect_sign_change(excess, 1.05, cardioid.self_centered_fixed_point() - 1e-6, 40)


def measured_generator_convexity(n: int = DEFAULT_SAMPLES) -> float:
    e = radii._circle_grid(n)[1]

    def min_conv(r: float) -> float:
        z = r * e
        return float(np.min((1.0 + z / (1.0 + z)).real))

    return radii.brent_sign_change(min_conv, 1e-3, 1.0 - 1e-9)


def measured_growth_lower_limit() -> float:
    """|f(-1)| from the order-64 series of the cardioid class's extremal."""
    return abs(f_cardioid_series(64).eval(-1.0))


def measured_series_coefficient(index: int) -> float:
    """|a_index| from the order-16 series of the cardioid class's extremal."""
    return abs(f_cardioid_series(16).coeffs[index - 1])


# ---------------------------------------------------------------------------
# inclusion relations
# ---------------------------------------------------------------------------

_CARDIOID = domains.make_domain("cardioid")


@lru_cache(maxsize=4)
def _cardioid_boundary(n: int) -> np.ndarray:
    # the cardioid is the fixed side of every family: sample it once per n
    # rather than at each margin evaluation of a threshold search
    w = cardioid.eval_phi(radii._circle_grid(n)[1])
    w.flags.writeable = False
    return w


def _inclusion_margin(inner: domains.Domain, outer: domains.Domain, n: int) -> float:
    """Least margin in outer of inner's boundary at the n grid angles, or at
    the closed upper half of them when both regions are symmetric (the
    mirror rule of the module docstring).  The boundary is read from the
    grid's points, which no threshold search step recomputes."""
    t, e = radii._circle_grid(n, inner.symmetric and outer.symmetric)
    w = _cardioid_boundary(n)[: t.size] if inner is _CARDIOID else np.asarray(inner.boundary(t, e))
    return float(outer.margin(w).min())


@dataclass(frozen=True)
class InclusionFamily:
    """Region pairs p -> (inner, outer) whose inclusion is sharp at one p.

    The inclusion holds at and above the sharp parameter when `holds_above`,
    at and below it otherwise.  A family with a `bracket` has a threshold
    oracle: the sign change of its inclusion margin on that interval.
    """

    regions: Callable[[float], tuple[domains.Domain, domains.Domain]]
    holds_above: bool
    bracket: tuple[float, float] | None = None

    def margin(self, p: float, n: int) -> float:
        return _inclusion_margin(*self.regions(p), n)

    def holds(self, p: float, n: int) -> tuple[bool, float]:
        """Whether the inclusion holds at p within the outer region's
        `near`, and its margin."""
        inner, outer = self.regions(p)
        margin = _inclusion_margin(inner, outer, n)
        return margin > -outer.near, margin

    def threshold(self, n: int = DEFAULT_SAMPLES) -> float:
        if self.bracket is None:
            raise ValueError("this inclusion family has no threshold bracket")
        # oriented positive at the low end of the bracket, so that a margin of
        # exactly 0 counts toward the high end
        sign = -1.0 if self.holds_above else 1.0
        return radii.brent_sign_change(lambda p: sign * self.margin(p, n), *self.bracket)


INCLUSION_FAMILIES: dict[str, InclusionFamily] = {
    # the cardioid region inside a family of regions
    "half_plane": InclusionFamily(lambda a: (_CARDIOID, domains.make_domain("min_re", a)),
                                  False),
    "sector": InclusionFamily(lambda b: (_CARDIOID, domains.make_domain("sector", b)), True),
    "self_centered_disk": InclusionFamily(lambda m: (_CARDIOID, domains.Disk(m, m)), True,
                                          (1.0, 2.4)),
    "in_apollonius_disk": InclusionFamily(
        lambda a: (_CARDIOID, domains.make_domain(*radii._janowski_region("padmanabhan", a))),
        True, (0.3, 0.95)),
    # a family of regions inside the cardioid region
    "conic": InclusionFamily(lambda k: (domains.make_domain("conic", k), _CARDIOID), True,
                             (1.2, 4.0)),
    "exponential": InclusionFamily(lambda a: (domains.make_domain("exponential", a), _CARDIOID),
                                   True, (0.05, 0.6)),
    "lemniscate": InclusionFamily(lambda a: (domains.make_domain("lemniscate", a), _CARDIOID),
                                  True, (0.2, 0.9)),
    "cassinian": InclusionFamily(lambda c: (domains.make_domain("cassinian", c), _CARDIOID),
                                 False, (0.3, 1.0)),
    # the two-parameter disks at fixed B, as A varies
    **{f"two_parameter_B{B:g}": InclusionFamily(
        lambda A, B=B: (domains.janowski_disk(A, B, 1.0), _CARDIOID), False)
       for B in (-0.25, -0.5)},
    "unit_centered_disk": InclusionFamily(
        lambda a: (domains.make_domain(*radii._janowski_region("ram_singh", a)), _CARDIOID), True),
    "apollonius_disk": InclusionFamily(
        lambda a: (domains.make_domain(*radii._janowski_region("padmanabhan", a)), _CARDIOID),
        False),
}


# threshold oracles by name: (samples, *args) -> value
_THRESHOLDS = {
    "min_re_limit": lambda n: measured_min_re_limit(max(n, 1 << 16)),
    "max_arg": lambda n: measured_max_arg_order(),
    "disk_branch_crossover": measured_disk_branch_crossover,
    "generator_convexity": measured_generator_convexity,
    "growth_lower_limit": lambda n: measured_growth_lower_limit(),
    "inclusion": lambda n, family: INCLUSION_FAMILIES[family].threshold(n),
    "series_coefficient": lambda n, index: measured_series_coefficient(index),
}


def _measure(oracle: radii.Oracle, samples: int, expected: float | None = None) -> float:
    """Evaluate an oracle descriptor: a threshold, a disk family, or the
    subordination radius of a quotient in a region, whose search the
    tabulated value `expected` seeds."""
    if isinstance(oracle, radii.Threshold):
        return _THRESHOLDS[oracle.name](samples, *oracle.args)
    if isinstance(oracle, radii.DiskFamily):
        return disk_family_radius(oracle.center, oracle.spread,
                                  domains.make_domain(*oracle.region), n=samples,
                                  expected=expected)
    if isinstance(oracle, radii.Subordination):
        return subordination_radius(functions.extremal(oracle.quotient, **dict(oracle.params)),
                                    domains.make_domain(*oracle.region), n=samples,
                                    expected=expected)
    raise TypeError(f"not an oracle descriptor: {oracle!r}")


# (descriptor, samples) -> value, the measurements of one invocation
Measured = dict[tuple[radii.Oracle, int], float]


def _measure_once(oracle: radii.Oracle, samples: int, measured: Measured | None,
                  expected: float | None = None) -> float:
    """`_measure`, read from `measured` when it holds this descriptor at this
    sample count, and stored there when it does not."""
    if measured is None:
        return _measure(oracle, samples, expected)
    key = (oracle, samples)
    if key not in measured:
        measured[key] = _measure(oracle, samples, expected)
    return measured[key]


def measure_constant(entry: radii.ConstantEntry, samples: int = DEFAULT_SAMPLES,
                     measured: Measured | None = None) -> float:
    """Evaluate the registry entry's oracle descriptor, seeded by its value,
    once per distinct descriptor among the calls that share a `measured`
    dict."""
    if entry.oracle is None:
        raise ValueError(f"registry entry {entry.key} has no oracle")
    return _measure_once(entry.oracle, samples, measured, entry.value)


def _row_claim(entry: radii.ConstantEntry) -> str:
    return f"{entry.key}: {entry.description}"


def verify_all_constants(samples: int = DEFAULT_SAMPLES, keys: tuple[str, ...] | None = None,
                         measured: Measured | None = None) -> list[VerificationReport]:
    """Reproduce every registry constant by its oracle and compare; rows
    with equal descriptors share one measurement through `measured`."""
    reports = []
    for entry in radii.constants_registry():
        if entry.oracle is None or (keys is not None and entry.key not in keys):
            continue
        value = measure_constant(entry, samples, measured)
        diff = abs(value - entry.value)
        reports.append(_report(
            _row_claim(entry), f"oracle:{entry.oracle.kind}", samples, diff < AGREEMENT_TOL,
            value, complex(entry.value), flags=entry.flags,
            detail=f"formula {entry.value:.9g}, oracle {value:.9g}, diff {diff:.2e}"))
    return reports


# ---------------------------------------------------------------------------
# claim suites
# ---------------------------------------------------------------------------

def _sharp_inclusion_report(name: str, family: str, good: float,
                            n: int) -> VerificationReport:
    """The family's inclusion holds at parameter `good` and fails 0.01 past it."""
    fam = INCLUSION_FAMILIES[family]
    held = fam.holds(good, n)[0]
    past, bad_margin = fam.holds(good - 0.01 if fam.holds_above else good + 0.01, n)
    return _report(name, "boundary-sampling", n, held and not past, bad_margin)


def inclusion_suite(samples: int = DEFAULT_SAMPLES) -> list[VerificationReport]:
    """The inclusion relations, their special-case disks, and the unity-radius claims."""
    n = samples
    sharp = [
        ("class lies in starlike functions of order up to 1/4", "half_plane", 0.25),
        ("class lies in strongly starlike functions of published order", "sector", 0.743253),
        ("conic regions fit inside from parameter 5/3 on", "conic", 5.0 / 3.0),
        ("exponential regions fit inside from the threshold on", "exponential",
         radii.alpha_zero()),
        ("lemniscate regions fit inside from parameter 1/2 on", "lemniscate", 0.5),
        ("Cassinian loops fit inside up to parameter 3/4", "cassinian", 0.75),
        # tangent disks at the condition boundary
        *((f"two-parameter inclusion boundary at A={A:g}, B={B:g}",
           f"two_parameter_B{B:g}", A) for A, B in ((3.0 / 8.0, -0.25), (0.25, -0.5))),
        ("region fits the self-centered disk and no smaller one", "self_centered_disk",
         cardioid.self_centered_fixed_point()),
        # corollary disks
        ("unit-centered disks fit inside up to radius 1/2", "unit_centered_disk", 0.5),
        ("Apollonius disks fit inside up to parameter 1/3", "apollonius_disk", 1.0 / 3.0),
    ]
    reports = [_sharp_inclusion_report(*claim, n) for claim in sharp]

    # unity-radius inclusions
    unity = [(f"{kind} image lies inside the region", domains.make_domain(kind), _CARDIOID)
             for kind in ("sigmoid", "cosh", "rational")]
    unity.append(("region lies inside the wide-cardioid image", _CARDIOID,
                  domains.make_domain("cardioid_wide")))
    for claim, inner, outer in unity:
        margin = _inclusion_margin(inner, outer, n)
        reports.append(_report(f"{claim} (unit radius)", "boundary-sampling", n,
                               margin > -outer.near, margin))
    return reports


def coefficient_suite(seed: int = 0, samples: int = 2048) -> list[VerificationReport]:
    """100 random polynomials under the coefficient condition keep |w - 1| < 1/2.

    The polynomials (orders 3 to 12, zero-padded to 12) are evaluated
    together, one row each, and the worst point is the first minimum in
    row order, the one a loop over the polynomials would keep.
    """
    count, max_order = 100, 12
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((count, max_order), dtype=complex)
    coeffs[:, 0] = 1.0
    for row in coeffs:
        m = int(rng.integers(2, max_order))
        raw = rng.uniform(-1.0, 1.0, m) + 1j * rng.uniform(-1.0, 1.0, m)
        weights = 2.0 * np.arange(2, m + 2) - 1.0
        raw *= rng.uniform(0.1, 1.0) / float(np.sum(weights * np.abs(raw)))
        row[1:m + 1] = raw
    w = circle_log_derivative(coeffs, _SERIES_RADIUS, samples)
    witness, worst = domains.Disk(1.0, 0.5).worst_point(w.ravel())
    return [_report(
        f"coefficient condition keeps the quotient within 1/2 of 1 ({count} random polynomials)",
        "series-sampling", samples, worst > -1e-9, worst, witness)]


def partial_sum_suite(samples: int = DEFAULT_SAMPLES,
                      measured: Measured | None = None) -> list[VerificationReport]:
    """Second-partial-sum radii of the registry's psum rows, measured by their
    oracles (read from `measured` when the registry rows were measured into
    it), plus their boundary-touch displays."""
    reports = []
    rows = {e.key: e for e in radii.constants_registry()}
    checks = [
        ("second sums starlike up to 1/2", "psum.starlike"),
        ("second sums convex up to 1/4", "psum.convex"),
        ("second-sum dilation bound 1/3", "psum.cardioid_dilation"),
        ("second-sum dilation bound 1/6 from univalent functions", "psum.from_univalent"),
    ]
    for claim, key in checks:
        # not through measure_constant: a suite is not a registry row
        value = _measure_once(rows[key].oracle, samples, measured, rows[key].value)
        reports.append(_report(claim, "oracle:quotient", samples,
                               abs(value - rows[key].value) < AGREEMENT_TOL, value))
    touches = [
        ("second_sum", 0.5, -0.5, 0.0),
        ("second_sum", 1.0 / 3.0, -1.0 / 3.0, 0.5),
        ("second_sum_convexity", 0.25, -0.25, 0.0),
    ]
    for name, r_star, z0, expect in touches:
        reports.append(sharpness_touch(functions.extremal(name), r_star, z0, expect))
    return reports


def convolution_suite(samples: int = 2048) -> list[VerificationReport]:
    """Convolution dilation bounds checked on truncated series of order 32."""
    order = 32
    reports = []
    rho0 = {e.key: e.value for e in radii.constants_registry()}["conv.starlike_pair"]
    koebe = PowerSeries.koebe(order)
    half = PowerSeries.half_plane(order)
    fcar = f_cardioid_series(order)

    rep = convolution_membership_check(koebe, koebe, rho0, samples)
    reports.append(replace(rep, claim="two-starlike convolution bound holds at the sharp dilation"))
    # the check past the bound passes when the membership check fails
    rep = convolution_membership_check(koebe, koebe, rho0 + 0.02, samples)
    reports.append(_report("two-starlike convolution bound fails 0.02 past the sharp dilation",
                           rep.method, rep.samples, not rep.passed, rep.measured_value))
    rep = convolution_membership_check(fcar, half, 0.5, samples)
    reports.append(replace(
        rep, claim="convolution with a convex factor stays in the class at dilation 1/2"))
    rep = convolution_membership_check(PowerSeries.identity(order), koebe, 0.7, samples)
    reports.append(replace(
        rep, claim="convolution with the identity series is trivially in the class"))
    return reports


def run_all_suites(samples: int = DEFAULT_SAMPLES, seed: int = 0,
                   key_filter: str | None = None) -> list[VerificationReport]:
    """Registry oracles and claim suites.  With `key_filter`, only the claims
    containing it (ignoring case) are reported; registry rows are selected
    by their claim text before their oracles run, suites after they run.
    Each distinct oracle descriptor is measured once per call."""
    keys = None
    if key_filter:
        keys = tuple(e.key for e in radii.constants_registry()
                     if key_filter.lower() in _row_claim(e).lower())
    measured: Measured = {}
    reports = verify_all_constants(samples, keys, measured)
    reports += inclusion_suite(samples)
    reports += coefficient_suite(seed=seed, samples=min(samples, 2048))
    reports += partial_sum_suite(samples, measured)
    reports += convolution_suite(min(samples, 2048))
    if key_filter:
        reports = [r for r in reports if key_filter.lower() in r.claim.lower()]
    return reports
