"""Closed-form and root-defined radius constants, plus the constants registry.

Conventions used throughout:

  * "radius of X in the cardioid class" (`radius_of_class_in_cardioid`) is
    the largest r such that every member of class X restricted to a subdisk
    of radius r is cardioid-starlike; it equals the largest r for which the
    image of |z| < r under X's generator stays inside the cardioid region.
  * "radius of the cardioid class in X" (`radius_of_cardioid_in_class`) is
    the mirror question: the largest r with the cardioid generator image of
    |z| < r inside X's region.
  * Ratio-class radii (`ratio_class_radius`) come from quotient bounds of
    the form |w - c(r)| <= rho(r); the radius is where that disk stops
    fitting inside the cardioid region.  The disk is built from the factors
    chi and p_i in `functions` (`ratio_disk_family`); each class is one
    `RATIO_CLASSES` row with its published decimal, radius and flags.

Both directions are rows of one table, `CLASS_TABLE`: a `ClassSpec` per
(direction, tag) holds the parameter with its valid range and default, the
formula and claim text, and the oracle the registry checks it with: a
`Subordination` radius, a `DiskFamily` radius or a `Threshold`.  The
classes of order alpha, [1-a, 0], [a, -a], |w - M| < M, starlike and convex
are special cases of the two-parameter family [A, B]; the first four read
their maps p -> (A, B), `functions.JANOWSKI_AB`, in their formulas.

Every root and threshold in the package is located by the search helpers
here: `bisect_predicate` (with `bisect_sign_change` on top), Brent's method
`brent_sign_change` for the sign changes of smooth margins (the inclusion
thresholds, the generator-convexity threshold, `cardioid_disk_radius`,
whose probe's excess changes sign where the cardioid image leaves the
disk, and the sampled radii of `verify`, whose guided search finds the
sign change of the containment excess to a tenth of its bisection's width
rather than to the default BRENT_TOL), and `golden_section_min`.  The
one exception is the halving of the scan indices in generator images
(`verify._Probes.halve`), which brackets a sampled radius before
`bisect_predicate` narrows it.

All transcendental constants are computed from library functions; reference
decimals from the literature appear only in the registry metadata and in
test expectations, never inside formulas.  Rows whose published formula or
decimal is inconsistent carry a flag and are reported with the measured
value rather than silently corrected.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import cardioid, domains, functions

SQRT2 = math.sqrt(2.0)
E = math.e
EPS = sys.float_info.epsilon

CLOSED_FORM = "closed_form"
ROOT_OF_POLYNOMIAL = "root_of_polynomial"
ORACLE = "oracle"

# smallest radius a sampled radius search goes down to before giving up
RADIUS_FLOOR = 1e-12


@dataclass(frozen=True)
class RadiusResult:
    """A radius constant in (0, 1] with its provenance."""

    value: float
    method: str = CLOSED_FORM
    defining_polynomial: tuple[float, ...] | None = None  # ascending coefficients
    claim: str = ""
    clamped: bool = False          # a min{1, .} cap was applied
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0 + 1e-15:
            raise ValueError(f"radius {self.value} outside (0, 1]")


# ---------------------------------------------------------------------------
# search helpers
# ---------------------------------------------------------------------------

def bisect_predicate(holds: Callable[[float], bool], lo: float, hi: float | None,
                     tol: float = 0.0, steps: int | None = None, scan=(),
                     floor: float | None = None) -> float | None:
    """Point where `holds` stops being true, by bisection of [lo, hi].

    `holds` is taken to be true at `lo` unless `floor` is given: then `lo`
    is probed first and halved until `holds` is true there, raising
    ArithmeticError once it drops below `floor`.  The points of `scan`
    (increasing, above `lo`) are probed next: each success becomes `lo`, the
    first failure `hi`; when every one succeeds, `hi` is returned as is.
    The bracket is then halved `steps` times, or until it is no wider than
    `tol` or no longer splits, and its midpoint returned.
    """
    if floor is not None:
        while not holds(lo):
            lo, hi, scan = 0.5 * lo, lo, ()
            if lo < floor:
                raise ArithmeticError(f"no positive radius: the predicate fails down to {floor:g}")
    for x in scan:
        if not holds(x):
            hi = x
            break
        lo = x
    else:
        if scan:
            return hi
    k = 0
    while hi - lo > tol and (steps is None or k < steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
        k += 1
    return 0.5 * (lo + hi)


def _sign_change_ends(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """f(lo) and f(hi), which must lie on either side of f > 0; raises
    ValueError when they do not."""
    flo, fhi = f(lo), f(hi)
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"f needs a sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    return flo, fhi


def bisect_sign_change(f: Callable[[float], float], lo: float, hi: float,
                       steps: int = 60) -> float:
    """Sign change of f on [lo, hi] by at most `steps` halvings; f(hi) must
    lie on the other side of f > 0 than f(lo), as in `brent_sign_change`."""
    positive = _sign_change_ends(f, lo, hi)[0] > 0
    return bisect_predicate(lambda x: (f(x) > 0) == positive, lo, hi, steps=steps)


# `brent_sign_change` spends at most BRENT_SLACK + 1 evaluations more than
# bisection.  A smaller budget cuts short more of the runs whose bracket stays
# wide while the estimate converges from one side: of 10,000 random smooth and
# kinked monotone functions, 138 took more evaluations at 8 than with no
# budget, and 18 at 16
BRENT_SLACK = 16
# `brent_sign_change` stops, by default, once its bracket is narrower than
# BRENT_TOL + 4 eps |x|; the absolute part lets it stop at a root at 0
BRENT_TOL = 1e-15


def brent_sign_change(f: Callable[[float], float], lo: float, hi: float,
                      tol: float | None = None) -> float:
    """Sign change of f on [lo, hi] by Brent's method.

    As in `bisect_sign_change`, x lies on lo's side when f(x) > 0 is true
    at both or at neither, so an f of exactly 0 counts with the negative
    values, and f(hi) must lie on the other side.  Dekker's bracket [cur,
    blk] keeps that sign change: each step tries the secant or inverse
    quadratic interpolation through the last three points and bisects when
    the step would leave the bracket or not shrink it fast enough (Brent
    1973).  Each point is then moved toward the bracket's midpoint as far as
    it takes to keep the next bracket no wider than bisection's would be
    BRENT_SLACK steps earlier, so no more than BRENT_SLACK + 1 evaluations
    are spent beyond bisection's.  cur, the end with the smaller |f|, is
    returned once the bracket is narrower than tol + 4 eps |cur|, where
    `tol` defaults to BRENT_TOL, read at each call.  No step is shorter
    than half that width, so once one end has converged the next step
    crosses the sign change and the bracket closes.
    """
    if tol is None:
        tol = BRENT_TOL
    if not tol > 0.0:    # at 0 the search never stops at a root at 0
        raise ValueError(f"tol must be a number > 0, got tol={tol}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite numbers, got lo={lo}, hi={hi}")
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got lo={lo}, hi={hi}")
    xpre, xcur = lo, hi
    fpre, fcur = _sign_change_ends(f, lo, hi)
    for k in itertools.count():
        if (fpre > 0) != (fcur > 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = 0.5 * (tol + 4.0 * EPS * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if abs(sbis) < delta:
            return xcur
        stry = math.nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                q = dblk * dpre * (fblk - fpre)   # 0 when the slopes underflow
                stry = -fcur * (fblk * dblk - fpre * dpre) / q if q else math.nan
        if stry / sbis >= 0.0 and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        step = scur if abs(scur) > delta else math.copysign(delta, sbis)
        room = (hi - lo) * 2.0 ** (BRENT_SLACK - k - 1) - abs(sbis)
        xcur += min(max(step, sbis - room), sbis + room)
        fcur = f(xcur)


def golden_section_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimizer of a unimodal f on [lo, hi] by at most 120 golden-section steps.

    The loop stops at the first step that leaves [lo, hi] unchanged: every
    later step would repeat it, so the result is that of all 120.
    """
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(120):
        c = hi - inv * (hi - lo)
        d = lo + inv * (hi - lo)
        if f(c) < f(d):
            if d == hi:
                break
            hi = d
        else:
            if c == lo:
                break
            lo = c
    return 0.5 * (lo + hi)


def _poly_eval(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def smallest_root_in_unit_interval(coeffs) -> float:
    """Smallest root in (0, 1) of a real polynomial (ascending coefficients).

    A sign scan in steps of 1e-3 brackets the first crossing, bisection
    finishes to 1e-14; the residual is required to vanish to 1e-12.
    """
    coeffs = tuple(float(c) for c in coeffs)
    positive = _poly_eval(coeffs, 0.0) > 0

    def same_sign(x: float) -> bool:
        f = _poly_eval(coeffs, x)
        return f != 0.0 and (f > 0) == positive

    scan = itertools.takewhile(lambda x: x < 1.0, (k * 1e-3 for k in itertools.count(1)))
    root = bisect_predicate(same_sign, 0.0, None, tol=1e-14, scan=scan)
    if root is None:
        raise ValueError("no root bracketed in (0, 1)")
    if abs(_poly_eval(coeffs, root)) > 1e-12:
        raise ArithmeticError(f"root residual too large at {root}")
    return root


def _root_result(coeffs) -> RadiusResult:
    return RadiusResult(smallest_root_in_unit_interval(coeffs), ROOT_OF_POLYNOMIAL,
                        defining_polynomial=coeffs)


# ---------------------------------------------------------------------------
# named scalar constants
# ---------------------------------------------------------------------------

def alpha_zero() -> float:
    """(e - 2)/(2(e - 1)), the exponential-region inclusion threshold."""
    return (E - 2.0) / (2.0 * (E - 1.0))


def beta_zero() -> float:
    """(2/pi) arctan(3 sqrt(3/5)), the strong-starlikeness order of the class.

    Equals the maximum of (2/pi) |arg| over the cardioid boundary; the
    literature also prints the decimal 0.743253 and the variant reading
    3 sqrt(3)/5 of the tangent value, neither of which matches this number.
    Both appear in `beta_zero_candidates` and the constants table.
    """
    return (2.0 / math.pi) * math.atan(3.0 * math.sqrt(3.0 / 5.0))


def beta_zero_candidates() -> dict[str, float]:
    return {
        "statement_form": beta_zero(),
        "proof_form": (2.0 / math.pi) * math.atan(3.0 * math.sqrt(3.0) / 5.0),
        "published_decimal": 0.743253,
    }


def alpha_knot() -> float:
    """sqrt((5 + 2 sqrt 13)/27): above it the full cardioid region sits in the
    Apollonius disk |(w-1)/(w+1)| < alpha."""
    return math.sqrt((5.0 + 2.0 * math.sqrt(13.0)) / 27.0)


def w_alpha(alpha: float) -> float:
    """Interior-tangency radius for the Apollonius disk target,
    (2a/sqrt(1-a^2)) sqrt(2/sqrt(1+3a^2) - 1), used below `alpha_knot`."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("parameter must lie in (0, 1)")
    a2 = alpha * alpha
    return (2.0 * alpha / math.sqrt(1.0 - a2)) * math.sqrt(2.0 / math.sqrt(1.0 + 3.0 * a2) - 1.0)


def disk_real_axis_radius(M: float) -> float:
    """Radius at which the rightmost image point exits |w - M| < M.

    The exit happens where 1 + r + r^2/2 = 2M, i.e. r = -1 + sqrt(4M - 1);
    derived directly from the real-axis factorization of the containment
    condition, independent of any tabulated branch formula.
    """
    if M <= 0.25:
        raise ValueError("disk parameter too small")
    return -1.0 + math.sqrt(4.0 * M - 1.0)


def disk_interior_radius(M: float) -> float:
    """Interior-tangency radius sqrt(2 sqrt2 M sqrt((M-1)/(2M-1)) - 2(M-1))
    for the disk |w - M| < M, valid for M > 1."""
    if M <= 1.0:
        raise ValueError("interior tangency needs M > 1")
    return math.sqrt(2.0 * SQRT2 * M * math.sqrt((M - 1.0) / (2.0 * M - 1.0)) - 2.0 * (M - 1.0))


def _interior_critical_point(M: float, r: float) -> float:
    # location x0 = cos t of the interior distance extremum on |z| = r
    return (r * r - 2.0 * (M - 1.0)) / (4.0 * (M - 1.0) * r)


@lru_cache(maxsize=1)
def m_knot() -> float:
    """Disk parameter where the binding tangency moves off the real axis.

    Below it the rightmost point exits first (radius `disk_real_axis_radius`),
    above it the interior tangency binds (radius `disk_interior_radius`);
    the two touch-radius curves are tangent here.  Located as the parameter
    where the interior critical point reaches cos t = 1.
    """
    return bisect_sign_change(
        lambda M: _interior_critical_point(M, disk_interior_radius(M)) - 1.0,
        1.01, cardioid.self_centered_fixed_point() - 1e-9, steps=200)


@lru_cache(maxsize=16)
def _circle_grid(n: int, half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Angles t = 2 pi k/n and points e^{it} of the n-point unit circle grid,
    read-only; with `half`, its closed upper half, the first n//2 + 1 points
    (t = 0 to pi), as a slice of the full grid.

    n must be positive and divisible by 4, so that the grid holds t = 0,
    pi/2 and pi: the touch points of every sharp radius lie on these rays.
    """
    if half:
        t, e = _circle_grid(n)
        return t[: n // 2 + 1], e[: n // 2 + 1]
    if n < 1:
        raise ValueError("circle sample count must be positive")
    if n % 4:
        raise ValueError("circle sample count must be divisible by 4")
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    e = np.exp(1j * t)
    t.flags.writeable = e.flags.writeable = False
    return t, e


# M of the disk |w - M| < M, the bounded-quotient family
_JANOWSKI_M = domains.Parameter("M", "disk parameter", "(1/2, inf)")


def cardioid_disk_radius(M: float) -> float:
    """Largest r with the cardioid generator image of |z| < r inside
    |w - M| < M, measured over the closed upper half of the 4096-point
    circle grid (its first 2049 points, angles 0 to pi), which is all that
    can bind: the generator and the disk are mirror-symmetric (see the
    `verify` module docstring).  Self-contained oracle used where the
    published branch formula is unreliable.

    A probe passes when the image lies in `domains.Disk(M, M)` within 1e-9,
    or within 1e-4 r where that is smaller (r below 1e-5): the slack then
    moves the radius by relative 1e-4, as the near-boundary tolerance of
    `verify._radius` does for small radii.  The radius is where the excess,
    the image's least margin plus that slack, changes sign (it is positive
    exactly where a probe passes), found by `brent_sign_change` on
    [1e-4, 1 - 1e-9].  It is 1.0 when the image passes at 1 - 1e-9; when it
    fails at 1e-4, that radius is halved until it passes, and the bracket
    above it halved 50 times.  Each bracket end is evaluated once: Brent's
    method reads the values of the floor and clamped checks.

    Raises ValueError unless M is finite and exceeds 1/2 (for M <= 1/2 no
    positive radius exists), and ArithmeticError when the radius is below
    `RADIUS_FLOOR`.
    """
    _JANOWSKI_M.check(M)
    disk = domains.Disk(M, M)
    e = _circle_grid(4096, half=True)[1]

    @lru_cache(maxsize=None)    # Brent's method reads both bracket ends again
    def excess(r: float) -> float:
        return float(disk.margin(cardioid.eval_phi(r * e)).min()) + min(1e-9, 1e-4 * r)

    def ok(r: float) -> bool:
        return excess(r) > 0.0

    lo, hi = 1e-4, 1.0 - 1e-9
    if not ok(lo):
        return bisect_predicate(ok, 0.5 * lo, lo, steps=50, floor=RADIUS_FLOOR)
    if ok(hi):
        return 1.0
    return brent_sign_change(excess, lo, hi)


# ---------------------------------------------------------------------------
# two-parameter family
# ---------------------------------------------------------------------------

def janowski_radius_in_cardioid(A: float, B: float) -> RadiusResult:
    """Cardioid-class radius of the two-parameter starlike family [A, B].

    For B >= 0 the answer is min{1, 1/(2A - B)}.  For B < 0 it is
    R2 = min{1, 1/(2A - B)} when R2 <= R1 = 1/sqrt(B(3B - 2A)), otherwise
    R3 = min{1, 3/(2A - 5B)}; R1 marks where the swept disk center passes 3/2.
    """
    domains.check_janowski_pair(A, B)
    claim = f"radius of the [A={A:g}, B={B:g}] starlike family in the cardioid class"
    two_a_minus_b = 2.0 * A - B
    r2 = 1.0 / two_a_minus_b if two_a_minus_b > 1.0 else 1.0
    clamped = two_a_minus_b <= 1.0
    if B >= 0.0:
        return RadiusResult(r2, CLOSED_FORM, claim=claim, clamped=clamped)
    # B (3B - 2A) > 0 here; it underflows to 0 only where R1 is beyond any R2
    q = B * (3.0 * B - 2.0 * A)
    r1 = 1.0 / math.sqrt(q) if q > 0.0 else math.inf
    if r2 <= r1:
        return RadiusResult(r2, CLOSED_FORM, claim=claim, clamped=clamped)
    denom = 2.0 * A - 5.0 * B
    r3 = min(1.0, 3.0 / denom)
    return RadiusResult(r3, CLOSED_FORM, claim=claim, clamped=3.0 / denom >= 1.0)


# ---------------------------------------------------------------------------
# oracle descriptors and the class table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subordination:
    """Oracle: the largest r with a quotient's image of |z| < r inside a
    region.  `quotient` is a `functions.extremal` name, closed over `params`,
    its (name, value) pairs sorted by name (a dict is accepted and frozen
    into them, so that equal descriptors hash equal);
    `region` is the `domains.make_domain` arguments.  `kind`, the report's
    method `oracle:<kind>`, is derived from the quotient and the region."""

    quotient: str = "cardioid_extremal"
    params: tuple[tuple[str, float], ...] = ()
    region: tuple = ("cardioid",)

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(sorted(dict(self.params).items())))

    @property
    def kind(self) -> str:
        if self.quotient == "cardioid_extremal":
            return "cardioid_into_domain"
        if self.region != ("cardioid",):
            return "quotient_into_domain"
        if self.quotient in functions._GENERATORS:
            return "generator_into_cardioid"
        return "quotient_into_cardioid"


@dataclass(frozen=True)
class DiskFamily:
    """Oracle: the largest r with the disk |w - center(r)| <= spread(r)
    inside a region, given by its `domains.make_domain` arguments."""

    center: Callable[[float], float]
    spread: Callable[[float], float]
    region: tuple = ("cardioid",)
    kind = "disk_family"


@dataclass(frozen=True)
class Threshold:
    """Oracle: a special measurement of `verify`, by its name, with the `args`
    it takes, such as the `verify.INCLUSION_FAMILIES` row whose sharp
    parameter "inclusion" measures."""

    name: str
    args: tuple = ()
    kind = "threshold"


Oracle = Subordination | DiskFamily | Threshold


@dataclass(frozen=True)
class ClassSpec:
    """One radius statement between the cardioid class and a named class.

    `direction` is "of" for the radius of the named class in the cardioid
    class and "within" for the radius of the cardioid class in the named
    class.  A row with a `param` falls back to `default` when none is given
    and checks it against the declaration, which names the violated range;
    a row without one rejects a parameter.  `claim` is formatted
    with the parameter as p.

    The radius is 1, capped, where `capped(p)` holds, and `formula(p)`
    otherwise: the value, or a RadiusResult for a value with its own method
    or flags.

    The registry checks a row with `oracle(p)`; by default that maps the
    generator named by the tag into the cardioid region (direction "of"),
    or the cardioid generator into the region named by the tag ("within").
    """

    direction: str
    tag: str
    claim: str
    formula: Callable | None = None
    param: domains.Parameter | None = None
    default: float | None = None
    capped: Callable | None = None
    oracle: Callable[[float | None], Oracle] | None = None

    def radius(self, p: float | None = None) -> RadiusResult:
        if self.param is None:
            if p is not None:
                raise ValueError(f"tag {self.tag!r} takes no parameter")
        else:
            p = self.default if p is None else p
            if p is None:
                raise ValueError(f"tag {self.tag!r} needs a parameter")
            self.param.check(p, f"tag {self.tag!r}")
        claim = self.claim.format(p=p)
        if self.capped is not None and self.capped(p):
            return RadiusResult(1.0, CLOSED_FORM, claim=claim, clamped=True)
        out = self.formula(p)
        if isinstance(out, RadiusResult):
            return replace(out, claim=claim)
        return RadiusResult(out, CLOSED_FORM, claim=claim)

    def oracle_at(self, p: float | None) -> Oracle:
        if self.oracle is not None:
            return self.oracle(p)
        if self.direction == "of":
            return Subordination(self.tag, {self.param.name: p} if self.param else {})
        return Subordination(region=(self.tag, *((p,) if self.param else ())))


def _cardioid_in_bounded_quotient(M: float) -> float | RadiusResult:
    if M > m_knot():
        return disk_interior_radius(M)
    # On the first branch the published term -1 + sqrt(M - 1) is not a
    # real positive radius anywhere in the branch; report the measured
    # value and flag the row instead of guessing a repaired formula.
    return RadiusResult(cardioid_disk_radius(M), ORACLE, flags=("formula-suspect",))


def _corollary(tag: str) -> Callable[[float], RadiusResult]:
    # the [A, B] radius at the corollary's map of its parameter
    ab = functions.JANOWSKI_AB[tag]
    return lambda p: janowski_radius_in_cardioid(*ab(p))


def _janowski_region(tag: str, p: float) -> tuple:
    # the `make_domain` arguments of the corollary's region, the [A, B] disk:
    # |w - 1| < 1 - a for ram_singh, |(w-1)/(w+1)| < a for padmanabhan
    return ("janowski_disk", *functions.JANOWSKI_AB[tag](p), 1.0)


def _sqrt1p_minus_1(x: float) -> float:
    # sqrt(1 + x) - 1, which keeps its digits as x -> 0
    return x / (1.0 + math.sqrt(1.0 + x))


_NEPHROID_POLY = (3.0, -6.0, 0.0, 2.0)  # 2r^3 - 6r + 3 ascending


def _of(tag: str, text: str, **row) -> ClassSpec:
    return ClassSpec("of", tag, f"radius of {text} in the cardioid class", **row)


def _within(tag: str, text: str, **row) -> ClassSpec:
    return ClassSpec("within", tag, f"radius of the cardioid class in {text}", **row)


def _region_param(kind: str) -> domains.Parameter:
    # the parameter of a class over a region kind is the region's own
    return domains._REGIONS[kind].param


_RAM_SINGH_A = domains.QUOTIENT_PARAMETERS["ram_singh"]
_PADMANABHAN_A = domains.QUOTIENT_PARAMETERS["padmanabhan"]
# min of the half-plane-quotient bound 1/3 and the starlikeness radius
# tanh(pi/4) of univalent functions
_UNIVALENT = dict(formula=lambda _: min(1.0 / 3.0, math.tanh(math.pi / 4.0)),
                  oracle=lambda _: Subordination("koebe"))

CLASS_TABLE: dict[tuple[str, str], ClassSpec] = {(s.direction, s.tag): s for s in (
    # ---- radii of named classes in the cardioid class ----------------
    _of("cassinian", "the Cassinian class (c={p:g})", param=_region_param("cassinian"),
        default=1.0, capped=lambda c: c <= 0.75, formula=lambda c: 0.75 / c),
    _of("lemniscate", "the lemniscate class (alpha={p:g})", param=_region_param("lemniscate"),
        default=0.0, capped=lambda a: a >= 0.5,
        formula=lambda a: (3.0 - 4.0 * a) / (4.0 * (1.0 - a) ** 2)),
    _of("exponential", "the exponential class (alpha={p:g})", param=_region_param("exponential"),
        default=0.0, capped=lambda a: a >= alpha_zero(),
        formula=lambda a: math.log(2.0 * (1.0 - a) / (1.0 - 2.0 * a))),
    _of("rational_lemniscate", "the shifted-lemniscate class",
        formula=lambda _: (39.0 + 17.0 * SQRT2) / 82.0),
    _of("cardioid_wide", "the wide-cardioid class", formula=lambda _: 0.5),
    _of("limacon", "the limacon class", formula=lambda _: SQRT2 - 1.0),
    _of("lune", "the lune class", formula=lambda _: 0.75),
    _of("sine", "the sine class", formula=lambda _: math.asin(0.5)),
    _of("nephroid", "the nephroid class", formula=lambda _: _root_result(_NEPHROID_POLY)),
    _of("booth", "the Booth-curve class (alpha={p:g})", param=_region_param("booth"), default=0.0,
        formula=lambda a: 1.0 / (1.0 + math.sqrt(1.0 + a))),
    _of("bounded_re", "the bounded-real-part class (beta={p:g})", param=_region_param("bounded_re"),
        default=2.0, formula=lambda b: 0.25 / (b - 0.75)),
    # corollaries of the two-parameter family
    ClassSpec("of", "order", "radius of starlike functions of order {p:g}",
              param=_region_param("min_re"), default=0.0, formula=_corollary("order")),
    ClassSpec("of", "ram_singh", "radius of the [1-a, 0] family at a={p:g}",
              param=_RAM_SINGH_A, default=0.0, formula=_corollary("ram_singh")),
    ClassSpec("of", "padmanabhan", "radius of the [a, -a] family at a={p:g}",
              param=_PADMANABHAN_A, default=1.0, formula=_corollary("padmanabhan")),
    ClassSpec("of", "janowski_M", "radius of the bounded-quotient family at M={p:g}",
              param=_JANOWSKI_M, default=1.0, formula=_corollary("janowski_M"),
              oracle=lambda M: Subordination(
                  "janowski", dict(zip("AB", functions.JANOWSKI_AB["janowski_M"](M))))),
    _of("starlike", "the starlike class", formula=lambda _: janowski_radius_in_cardioid(1.0, -1.0),
        oracle=lambda _: Subordination("janowski", {"A": 1.0, "B": -1.0})),
    _of("convex", "the convex class", formula=lambda _: janowski_radius_in_cardioid(0.0, -1.0),
        oracle=lambda _: Subordination("order", {"alpha": 0.5})),
    _of("univalent", "the univalent class", **_UNIVALENT),
    _of("close_to_convex", "the close-to-convex class", **_UNIVALENT),
    # ---- radii of the cardioid class in named classes ----------------
    _within("order", "starlike functions of order {p:g}", param=_region_param("min_re"),
            default=0.0, capped=lambda a: a <= 0.25,
            oracle=lambda a: Subordination(region=("min_re", a)),
            formula=lambda a: (math.sqrt((3.0 - 4.0 * a) / 2.0) if a <= 0.625
                               else 1.0 - math.sqrt(2.0 * a - 1.0))),
    # -1 + sqrt((2 sqrt2 - 1) - 2 (sqrt2 - 1) a)
    _within("lemniscate", "the lemniscate class (alpha={p:g})",
            param=_region_param("lemniscate"), default=0.0,
            formula=lambda a: _sqrt1p_minus_1(2.0 * (SQRT2 - 1.0) * (1.0 - a))),
    _within("rational_lemniscate", "the shifted-lemniscate class",
            formula=lambda _: RadiusResult(
                -1.0 + math.sqrt(1.0 + 2.0 * math.sqrt(math.sqrt(2.0 * SQRT2 - 2.0)
                                                       - (2.0 * SQRT2 - 2.0))),
                flags=("bounding-disk-route",)),
            oracle=lambda _: DiskFamily(lambda r: 1.0, lambda r: r + 0.5 * r * r,
                                        ("rational_lemniscate",))),
    _within("rational", "the rational-generator class",
            formula=lambda _: 1.0 - math.sqrt(4.0 * SQRT2 - 5.0)),
    _within("sine", "the sine class",
            formula=lambda _: -1.0 + math.sqrt(1.0 + 2.0 * math.sin(1.0))),
    _within("cosh", "the hyperbolic-cosine class",
            formula=lambda _: -1.0 + math.sqrt(-1.0 + 2.0 * math.cosh(1.0))),
    _within("nephroid", "the nephroid class", formula=lambda _: (math.sqrt(21.0) - 3.0) / 3.0),
    _within("sigmoid", "the sigmoid class",
            formula=lambda _: -1.0 + math.sqrt(1.0 + 2.0 * (E - 1.0) / (E + 1.0))),
    # -1 + sqrt(3 - 2a)
    _within("ram_singh", "the [1-a, 0] family at a={p:g}", param=_RAM_SINGH_A, default=0.0,
            formula=lambda a: _sqrt1p_minus_1(2.0 * (1.0 - a)),
            oracle=lambda a: Subordination(region=_janowski_region("ram_singh", a))),
    _within("padmanabhan", "the [a, -a] family at a={p:g}", param=_PADMANABHAN_A,
            capped=lambda a: a >= alpha_knot(), formula=w_alpha,
            # at a = 1 the region |(w-1)/(w+1)| < a is the half-plane Re w > 0
            oracle=lambda a: Subordination(region=("min_re", 0.0) if a == 1.0
                                           else _janowski_region("padmanabhan", a))),
    _within("janowski_M", "the bounded-quotient family at M={p:g}", param=_JANOWSKI_M,
            capped=lambda M: M >= cardioid.self_centered_fixed_point(),
            formula=_cardioid_in_bounded_quotient,
            oracle=lambda M: Subordination(region=("disk", M, 0.0, M))),
    _within("cardioid_wide", "the wide-cardioid class", capped=lambda _: True),
    _within("bounded_re", "the bounded-real-part class (beta={p:g})",
            param=_region_param("bounded_re"),
            capped=lambda b: b >= 2.5, formula=lambda b: math.sqrt(2.0 * b - 1.0) - 1.0),
)}


def class_spec(direction: str, tag: str) -> ClassSpec:
    """The class-table row for `tag` in direction "of" or "within"."""
    try:
        return CLASS_TABLE[(direction, tag)]
    except KeyError:
        raise ValueError(f"unknown class tag {tag!r}") from None


def radius_of_class_in_cardioid(tag: str, param: float | None = None) -> RadiusResult:
    """Largest subdisk radius on which every member of the named class is
    cardioid-starlike."""
    return class_spec("of", tag).radius(param)


def radius_of_cardioid_in_class(tag: str, param: float | None = None) -> RadiusResult:
    """Largest subdisk radius on which every cardioid-starlike function
    belongs to the named class."""
    return class_spec("within", tag).radius(param)


# ---------------------------------------------------------------------------
# ratio classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioClass:
    """Ratio class i over chi: the literature's decimal for its radius, and
    the radius, a closed form or the ascending coefficients of the
    polynomial whose smallest root in (0, 1) it is.  Its quotient disk comes
    from the factors chi and p_i (`ratio_disk_family`)."""

    published: float
    radius: float | tuple[float, ...]
    flags: tuple[str, ...] = ()
    note: str = ""


# chi -> i -> ratio class, in registry order
RATIO_CLASSES: dict[str, dict[int, RatioClass]] = {
    "z": {1: RatioClass(0.1231, math.sqrt(17.0) - 4.0),
          2: RatioClass(0.154701, 1.0 / (3.0 + 2.0 * math.sqrt(3.0))),
          3: RatioClass(0.23606, math.sqrt(5.0) - 2.0)},
    "z_over_1plusz": {1: RatioClass(0.10102, 5.0 - 2.0 * math.sqrt(6.0)),
                      2: RatioClass(0.12310, math.sqrt(17.0) - 4.0),
                      3: RatioClass(0.17157, 3.0 - 2.0 * SQRT2)},
    "z_over_1minusz2": {
        1: RatioClass(0.116675, (1.0, -8.0, -4.0, -8.0, 3.0)),
        2: RatioClass(0.14326, (1.0, -6.0, -6.0, -6.0, 1.0), ("published-decimal-ambiguous",),
                      "printed as 0.14326 in the table and 0.14327 in the derivation; "
                      "both round the same root"),
        3: RatioClass(0.202135, (1.0, -4.0, -4.0, -4.0, 3.0))},
    "koebe": {1: RatioClass(0.0851458, (6.0 - math.sqrt(33.0)) / 3.0),
              2: RatioClass(0.101021, 5.0 - 2.0 * math.sqrt(6.0)),
              3: RatioClass(0.13148, (4.0 - math.sqrt(13.0)) / 3.0)},
    "z_plus_half_z2": {1: RatioClass(0.10924, (2.0, -19.0, 6.0, 3.0)),
                       2: RatioClass(0.134138, (2.0, -15.0, 0.0, 5.0)),
                       3: RatioClass(0.19028, (2.0, -11.0, 2.0, 3.0))},
}


def _ratio_class(i: int, chi: str) -> RatioClass:
    try:
        return RATIO_CLASSES[chi][i]
    except KeyError:
        raise ValueError(f"unknown ratio class ({i}, {chi!r}); "
                         f"chi tags: {', '.join(RATIO_CLASSES)}") from None


def _ratio_disk(c: functions.RatioChi, p: functions.RatioP) -> tuple[Callable, Callable]:
    return c.center, lambda r: c.radius(r) + p.bound(r)


# built once, so that one class always gives the same two callables and its
# `DiskFamily` oracles compare and hash equal
_RATIO_DISKS = {(i, tag): _ratio_disk(c, p)
                for tag, c in functions.RATIO_CHI.items() for i, p in functions.RATIO_P.items()}


def ratio_disk_family(i: int, chi: str) -> tuple[Callable, Callable]:
    """(center(r), spread(r)) of the quotient disk for the ratio class (i, chi):
    the circle that z chi'/chi draws on |z| = r, widened by the bound of
    u p_i'/p_i on |u| = r."""
    _ratio_class(i, chi)  # raises ValueError for an unknown class
    return _RATIO_DISKS[i, chi]


def ratio_class_radius(i: int, chi: str) -> RadiusResult:
    """Cardioid-class radius of the three ratio-comparison classes over chi."""
    row = _ratio_class(i, chi)
    text = f"radius of the ratio class {i} over chi={chi} in the cardioid class"
    if isinstance(row.radius, tuple):
        return replace(_root_result(row.radius), claim=text)
    return RadiusResult(row.radius, CLOSED_FORM, claim=text)


def ratio2_rotated_closed_form() -> float:
    """Radical form 3/2 + sqrt(17)/2 - sqrt((11 + 3 sqrt 17)/2) of the
    ratio-2 radius over z/(1-z^2); equals the quartic root to working precision."""
    return 1.5 + math.sqrt(17.0) / 2.0 - math.sqrt((11.0 + 3.0 * math.sqrt(17.0)) / 2.0)


# ---------------------------------------------------------------------------
# the constants registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantEntry:
    key: str
    description: str
    value: float
    method: str = CLOSED_FORM
    defining_polynomial: tuple[float, ...] | None = None
    published: float | None = None        # decimal printed in the literature
    published_tol: float = 5e-5
    oracle: Oracle | None = None
    flags: tuple[str, ...] = ()
    note: str = ""


def _entry(key, description, result: "RadiusResult | float", published=None,
           published_tol=5e-5, oracle=None, flags=(), note="") -> ConstantEntry:
    if isinstance(result, RadiusResult):
        return ConstantEntry(key, description, result.value, result.method,
                             result.defining_polynomial, published, published_tol,
                             oracle, tuple(flags) + tuple(result.flags), note)
    return ConstantEntry(key, description, float(result), CLOSED_FORM, None,
                         published, published_tol, oracle, tuple(flags), note)


def _class_row(direction: str, key: str, tag: str, param: float | None = None,
               published: float | None = None, tol: float = 5e-5, note: str = "") -> ConstantEntry:
    """Registry row `direction.key` for a class-table row at `param`."""
    spec = class_spec(direction, tag)
    res = spec.radius(param)
    return _entry(f"{direction}.{key}", res.claim, res, published, tol,
                  spec.oracle_at(param), note=note)


@lru_cache(maxsize=1)
def constants_registry() -> tuple[ConstantEntry, ...]:
    rows: list[ConstantEntry] = []
    add = rows.append

    # ---- inclusion thresholds -------------------------------------
    add(_entry("incl.min_re", "largest order of starlikeness containing the class",
               0.25,
               oracle=Threshold("min_re_limit")))
    bz = beta_zero_candidates()
    add(_entry("incl.strong_order", "strong starlikeness order of the class",
               bz["statement_form"],
               published=bz["published_decimal"], published_tol=5e-5,
               oracle=Threshold("max_arg"),
               flags=("published-decimal-mismatch",),
               note=(f"published decimal {bz['published_decimal']} and variant reading "
                     f"{bz['proof_form']:.6f} both differ from the measured maximum; "
                     "the measured value is reported")))
    add(_entry("incl.conic", "smallest conic parameter whose region fits inside",
               5.0 / 3.0,
               oracle=Threshold("inclusion", ("conic",))))
    add(_entry("incl.exponential", "smallest exponential-region parameter fitting inside",
               alpha_zero(), published=0.209011,
               oracle=Threshold("inclusion", ("exponential",))))
    add(_entry("incl.lemniscate", "smallest lemniscate parameter fitting inside",
               0.5,
               oracle=Threshold("inclusion", ("lemniscate",))))
    add(_entry("incl.cassinian", "largest Cassinian parameter fitting inside",
               0.75,
               oracle=Threshold("inclusion", ("cassinian",))))
    add(_entry("incl.outer_disk", "self-centered circumscribed disk parameter",
               cardioid.self_centered_fixed_point(), published=1.309017,
               oracle=Threshold("inclusion", ("self_centered_disk",))))

    # ---- radii of classes in the cardioid class --------------------
    add(_class_row("of", "cassinian", "cassinian", 1.0))
    add(_class_row("of", "lemniscate", "lemniscate", 0.0))
    add(_class_row("of", "exponential", "exponential", 0.0))
    add(_class_row("of", "rational_lemniscate", "rational_lemniscate", published=0.7688))
    add(_class_row("of", "cardioid_wide", "cardioid_wide", published=0.5))
    add(_class_row("of", "limacon", "limacon", published=0.414, tol=5e-4))
    add(_class_row("of", "lune", "lune", published=0.75))
    add(_class_row("of", "sine", "sine", published=0.523598))
    add(_class_row("of", "nephroid", "nephroid", published=0.557875))
    add(_class_row("of", "order_low", "order", 0.1))
    add(_class_row("of", "order_high", "order", 0.5))
    add(_class_row("of", "ram_singh", "ram_singh", 0.25))
    add(_class_row("of", "padmanabhan", "padmanabhan", 0.5))
    add(_class_row("of", "janowski_M", "janowski_M", 1.0))
    add(_class_row("of", "booth", "booth", 0.0))
    add(_class_row("of", "booth_half", "booth", 0.5))
    add(_class_row("of", "bounded_re", "bounded_re", 2.0))
    add(_class_row("of", "starlike", "starlike"))
    add(_class_row("of", "convex", "convex"))
    add(_class_row("of", "univalent", "univalent"))
    res = janowski_radius_in_cardioid(0.5, -0.5)
    add(_entry("of.janowski_mixed", res.claim, res,
               oracle=Subordination("janowski", {"A": 0.5, "B": -0.5})))

    # ---- radii of the cardioid class in other classes --------------
    add(_class_row("within", "order_mid", "order", 0.45))
    add(_class_row("within", "order_high", "order", 0.7))
    add(_class_row("within", "lemniscate", "lemniscate", 0.0))
    add(_class_row("within", "lemniscate_quarter", "lemniscate", 0.25))
    add(_class_row("within", "rational_lemniscate", "rational_lemniscate", published=0.253734,
                   note=("the tabulated bound follows the bounding-disk argument; the direct "
                         "subordination radius is larger (~0.2601) and is reported by the "
                         "verification suite")))
    add(_class_row("within", "rational", "rational", published=0.189535))
    add(_class_row("within", "sine", "sine", published=0.637969))
    add(_class_row("within", "cosh", "cosh", published=0.444355))
    add(_class_row("within", "nephroid", "nephroid", published=0.527525))
    add(_class_row("within", "sigmoid", "sigmoid", published=0.387168))
    add(_class_row("within", "ram_singh", "ram_singh", 0.0))
    add(_class_row("within", "padmanabhan", "padmanabhan", 0.3))
    add(_entry("within.padmanabhan_knot",
               "parameter above which the whole region fits the Apollonius disk",
               alpha_knot(), published=0.672505,
               oracle=Threshold("inclusion", ("in_apollonius_disk",))))
    add(_class_row("within", "janowski_M_low", "janowski_M", 1.05,
                   note="published first-branch term -1+sqrt(M-1) is not a real radius; "
                        "the measured value is reported"))
    add(_class_row("within", "janowski_M_high", "janowski_M", 1.2))
    add(_entry("within.janowski_M_knot",
               "disk parameter where the binding tangency leaves the real axis",
               m_knot(),
               published=1.1423, published_tol=5e-4,
               oracle=Threshold("disk_branch_crossover")))
    add(_class_row("within", "cardioid_wide", "cardioid_wide"))
    add(_class_row("within", "bounded_re", "bounded_re", 2.0))
    add(_class_row("within", "bounded_re_capped", "bounded_re", 3.0))

    # ---- ratio classes ----------------------------------------------
    for chi, classes in RATIO_CLASSES.items():
        for i, row in classes.items():
            res = ratio_class_radius(i, chi)
            add(_entry(f"ratio.f{i}.{chi}", res.claim, res, row.published,
                       oracle=DiskFamily(*ratio_disk_family(i, chi)),
                       flags=row.flags, note=row.note))

    # ---- partial sums and convolution -------------------------------
    add(_entry("psum.starlike", "starlikeness radius of second partial sums",
               0.5,
               oracle=Subordination("second_sum", region=("min_re", 0.0))))
    add(_entry("psum.convex", "convexity radius of second partial sums",
               0.25,
               oracle=Subordination("second_sum_convexity", region=("min_re", 0.0))))
    add(_entry("psum.cardioid_dilation", "dilation keeping second sums in the class",
               1.0 / 3.0,
               oracle=Subordination("second_sum")))
    add(_entry("psum.from_convex", "dilation bound for second sums of convex functions",
               1.0 / 3.0,
               oracle=Subordination("second_sum")))
    add(_entry("psum.from_univalent", "dilation bound for second sums of univalent functions",
               1.0 / 6.0,
               oracle=Subordination("koebe_second_sum")))
    add(_entry("conv.convex_factor", "dilation keeping convolutions with convex functions",
               0.5,
               oracle=Threshold("generator_convexity")))
    # the radius of ratio class 3 over the Koebe function
    add(_entry("conv.starlike_pair", "dilation bound for convolutions of two starlike functions",
               ratio_class_radius(3, "koebe").value, published=0.1314829,
               oracle=DiskFamily(*ratio_disk_family(3, "koebe"))))

    # ---- growth and coefficient constants ----------------------------
    add(_entry("growth.inner_disk", "radius of the disk covered by every image",
               math.exp(-0.75), published=0.47236,
               oracle=Threshold("growth_lower_limit")))
    for n, bound in ((2, 1.0), (3, 0.75), (4, 5.0 / 12.0)):
        add(_entry(f"coeff.bound_{n}", f"sharp bound on the coefficient a{n}",
                   bound,
                   oracle=Threshold("series_coefficient", (n,))))

    keys = [r.key for r in rows]
    if len(keys) != len(set(keys)):
        raise RuntimeError("duplicate registry keys")
    return tuple(rows)

