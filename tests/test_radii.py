"""Radius formulas, the root solver, piecewise knots, and the registry."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardstar import cardioid, domains, functions, radii, verify
from cardstar.radii import (
    ConstantEntry,
    RadiusResult,
    constants_registry,
    janowski_radius_in_cardioid,
    radius_of_cardioid_in_class,
    radius_of_class_in_cardioid,
    ratio_class_radius,
    ratio2_rotated_closed_form,
    smallest_root_in_unit_interval,
)

SQRT2 = math.sqrt(2.0)


def _poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reference_golden_section_min(f, lo, hi):
    """`radii.golden_section_min` as it was: always all 120 steps."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(120):
        c = hi - inv * (hi - lo)
        d = lo + inv * (hi - lo)
        if f(c) < f(d):
            hi = d
        else:
            lo = c
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("f, lo, hi, steps", [
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 78),
    (lambda x: -x, 0.0, 1.0, 77),             # minimum at the right end
    (lambda x: x, -2.0, 5.0, 79),             # at the left end
    (lambda x: math.cos(x), 0.0, 2.0 * math.pi, 77),
    (lambda x: 0.0, 1.0, 2.0, 75),            # flat: every step moves lo
    # the interval closes on 1e-9 and is one ulp of it wide only at step 120
    (lambda x: abs(x - 1e-9), 0.0, math.pi, 120),
])
def test_golden_section_stops_early_with_the_same_bits(f, lo, hi, steps):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    got = radii.golden_section_min(counted, lo, hi)
    assert repr(got) == repr(reference_golden_section_min(f, lo, hi))
    assert len(calls) == 2 * steps


# ---------------------------------------------------------------------------
# Brent's method
# ---------------------------------------------------------------------------

def _monotone(kind: str, root: float, sign: float, a: float, b: float):
    """A monotone function of x with its sign change at root: smooth (a
    triple root when a = 0, where Brent's steps converge slowly), kinked at
    the root (slopes a and b), or kinked at a point past it."""
    if kind == "smooth":
        return lambda x: sign * (math.atan(a * (x - root)) + b * (x - root) ** 3)
    if kind == "kink_at_root":
        return lambda x: sign * (x - root) * (a if x < root else b)
    knot = root + 0.5 * b
    return lambda x: sign * ((x - root) + a * max(0.0, x - knot))


_BRENT_CASES = dict(
    kind=st.sampled_from(["smooth", "kink_at_root", "kink_past_root"]),
    frac=st.floats(0.0, 1.0), sign=st.sampled_from([1.0, -1.0]),
    a=st.just(0.0) | st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e1),
    lo=st.floats(-3.0, 3.0), width=st.floats(1e-6, 10.0),
    tol=st.sampled_from([radii.BRENT_TOL, 1e-12, 1e-8]))


def _brent_case(kind, frac, sign, a, b, lo, width):
    hi = lo + width
    root = lo + frac * width
    f = _monotone(kind, root, sign, a, b)
    if (f(lo) > 0) == (f(hi) > 0):    # the root fell on an end of the bracket
        return None
    return f, hi


def _recorded(f):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)
    return g, xs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_BRENT_CASES)
def test_brent_ends_in_a_narrow_sign_change_bracket(kind, frac, sign, a, b, lo, width, tol):
    case = _brent_case(kind, frac, sign, a, b, lo, width)
    if case is None:
        return
    f, hi = case
    low_side = f(lo) > 0
    for slack in (radii.BRENT_SLACK, 2):     # 2: the budget moves many steps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radii, "BRENT_SLACK", slack)
            mp.setattr(radii, "BRENT_TOL", tol)
            g, xs = _recorded(f)
            x = radii.brent_sign_change(g, lo, hi)
        # the final bracket: the last point evaluated on each side of the change
        below = max(v for v in xs if (f(v) > 0) == low_side)
        above = min(v for v in xs if (f(v) > 0) != low_side)
        assert below <= x <= above
        assert above - below < tol + 4.0 * radii.EPS * abs(x)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_BRENT_CASES)
def test_brent_costs_at_most_its_slack_beyond_bisection(
        kind, frac, sign, a, b, lo, width, tol):
    case = _brent_case(kind, frac, sign, a, b, lo, width)
    if case is None:
        return
    f, hi = case
    # bisection to the same width: f(lo), then one evaluation per halving
    g, halvings = _recorded(f)
    radii.bisect_predicate(lambda v: (g(v) > 0) == (f(lo) > 0), lo, hi, tol=tol)
    for slack in (radii.BRENT_SLACK, 2):     # 2: the budget binds often
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radii, "BRENT_SLACK", slack)
            mp.setattr(radii, "BRENT_TOL", tol)
            g, brent_calls = _recorded(f)
            radii.brent_sign_change(g, lo, hi)
        assert len(brent_calls) <= 1 + len(halvings) + slack + 1


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x, 0.0, 1.0),                # f(lo) = 0 goes with the negative values
    (lambda x: x ** 3, 0.0, 2.0),
    (lambda x: 1.0 - x, 0.0, 1.0),          # f(hi) = 0 likewise
    (lambda x: 0.5 - x, -1.0, 0.5),
    (lambda x: x - 0.375, 0.0, 1.0),        # an exact zero inside
    (lambda x: max(0.0, x - 0.25), 0.0, 1.0),   # 0 on all of [0, 0.25]
    (lambda x: max(0.0, 0.75 - x), 0.0, 1.0),   # 0 on all of [0.75, 1]
])
def test_brent_treats_an_exact_zero_as_bisection_does(f, lo, hi):
    got = radii.brent_sign_change(f, lo, hi)
    assert got == pytest.approx(radii.bisect_sign_change(f, lo, hi),
                                abs=radii.BRENT_TOL + 4 * radii.EPS)


@pytest.mark.parametrize("lo, hi, message", [
    (0.0, 1.0, "sign change"),              # 1 + x^2 is positive throughout
    (1.0, 1.0, "lo < hi"),
    (2.0, 1.0, "lo < hi"),
    (math.nan, 1.0, "finite"),
    (0.0, math.nan, "finite"),
    (-math.inf, 1.0, "finite"),
])
def test_brent_rejects_a_bad_bracket(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        radii.brent_sign_change(lambda x: 1.0 + x * x, lo, hi)


@pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: x - 5.0, lambda x: 0.0])
def test_bisection_rejects_a_bracket_without_a_sign_change(f):
    # bisection reads f(hi) too, and refuses a bracket without a sign change
    # with Brent's message
    messages = []
    for search in (radii.bisect_sign_change, radii.brent_sign_change):
        with pytest.raises(ValueError, match=r"^f needs a sign change on \[0.0, 1.0\]") as exc:
            search(f, 0.0, 1.0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# root solver
# ---------------------------------------------------------------------------

def test_smallest_root_examples():
    assert smallest_root_in_unit_interval((3.0, -6.0, 0.0, 2.0)) == pytest.approx(
        0.557875, abs=5e-5)
    assert smallest_root_in_unit_interval((2.0, -11.0, 2.0, 3.0)) == pytest.approx(
        0.19028, abs=5e-5)
    assert smallest_root_in_unit_interval((-0.5, 1.0)) == pytest.approx(0.5, abs=1e-13)


def test_smallest_root_requires_bracket():
    with pytest.raises(ValueError, match="no root bracketed"):
        smallest_root_in_unit_interval((1.0, 0.0, 1.0))


def test_smallest_root_residual_and_first_crossing():
    polys = [
        (3.0, -6.0, 0.0, 2.0),
        (1.0, -8.0, -4.0, -8.0, 3.0),
        (1.0, -6.0, -6.0, -6.0, 1.0),
        (1.0, -4.0, -4.0, -4.0, 3.0),
        (2.0, -19.0, 6.0, 3.0),
        (2.0, -15.0, 0.0, 5.0),
        (2.0, -11.0, 2.0, 3.0),
    ]
    for poly in polys:
        r = smallest_root_in_unit_interval(poly)
        assert abs(_poly_eval(poly, r)) < 1e-12
        # no sign change before the root on the scan grid
        xs = np.arange(1e-3, r - 1e-9, 1e-3)
        vals = np.array([_poly_eval(poly, x) for x in xs])
        assert np.all(vals > 0) or np.all(vals < 0)


# ---------------------------------------------------------------------------
# two-parameter family
# ---------------------------------------------------------------------------

def test_janowski_examples():
    assert janowski_radius_in_cardioid(1.0, -1.0).value == pytest.approx(1.0 / 3.0)
    assert janowski_radius_in_cardioid(0.0, -1.0).value == pytest.approx(0.6)
    # the starlike and convex classes are the families [1, -1] and [0, -1]
    assert radius_of_class_in_cardioid("starlike").value == janowski_radius_in_cardioid(
        1.0, -1.0).value
    assert radius_of_class_in_cardioid("convex").value == janowski_radius_in_cardioid(
        0.0, -1.0).value
    res = janowski_radius_in_cardioid(0.5, 0.0)
    assert res.value == 1.0 and res.clamped
    with pytest.raises(ValueError):
        janowski_radius_in_cardioid(-1.0, 0.5)
    with pytest.raises(ValueError):
        janowski_radius_in_cardioid(0.5, 0.5)


def test_janowski_monotonicity_grid():
    As = np.linspace(-0.95, 1.0, 20)
    Bs = np.linspace(-1.0, 0.95, 20)
    for B in Bs:
        vals = [janowski_radius_in_cardioid(A, B).value for A in As if A > B]
        assert np.all(np.diff(vals) <= 1e-12)
    for A in As:
        vals = [janowski_radius_in_cardioid(A, B).value for B in Bs if B < A]
        assert np.all(np.diff(vals) >= -1e-12)


def test_corollary_examples():
    lo = radius_of_class_in_cardioid("order", 0.25).value
    hi = 3.0 / (7.0 - 1.0)
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)
    assert radius_of_class_in_cardioid("padmanabhan", 1.0).value == pytest.approx(1.0 / 3.0)
    m1 = radius_of_class_in_cardioid("janowski_M", 1.0).value
    assert m1 == pytest.approx(0.5)
    assert m1 == pytest.approx(janowski_radius_in_cardioid(1.0, 0.0).value)
    assert radius_of_class_in_cardioid("ram_singh", 0.0).value == pytest.approx(0.5)
    with pytest.raises(ValueError):
        radius_of_class_in_cardioid("order", 1.0)
    with pytest.raises(ValueError):
        radius_of_class_in_cardioid("janowski_M", 0.5)
    with pytest.raises(ValueError):
        radius_of_class_in_cardioid("mystery", 0.5)
    # the API falls back to the same defaults as the command line
    assert radius_of_class_in_cardioid("order").value == pytest.approx(1.0 / 3.0)
    assert radius_of_class_in_cardioid("padmanabhan").value == pytest.approx(1.0 / 3.0)
    assert radius_of_class_in_cardioid("janowski_M").value == pytest.approx(0.5)
    with pytest.raises(ValueError, match="needs a parameter"):
        radius_of_cardioid_in_class("padmanabhan")
    with pytest.raises(ValueError, match="must lie in"):
        radius_of_class_in_cardioid("padmanabhan", 0.0)
    with pytest.raises(ValueError, match="tag 'sine' takes no parameter"):
        radius_of_class_in_cardioid("sine", 0.3)


# (tag, (A, B) of the two-parameter family, the corollary's closed form)
COROLLARIES = (
    ("order", lambda a: (1.0 - 2.0 * a, -1.0),
     lambda a: 1.0 / (3.0 - 4.0 * a) if a <= 0.25 else 3.0 / (7.0 - 4.0 * a)),
    ("ram_singh", lambda a: (1.0 - a, 0.0), lambda a: min(1.0, 1.0 / (2.0 * (1.0 - a)))),
    ("padmanabhan", lambda a: (a, -a), lambda a: min(1.0, 1.0 / (3.0 * a))),
    ("janowski_M", lambda M: (1.0, 1.0 / M - 1.0), lambda M: M / (3.0 * M - 1.0)),
)


@pytest.mark.parametrize("tag, ab, closed", COROLLARIES, ids=[c[0] for c in COROLLARIES])
def test_corollary_rows_follow_two_parameter_family(tag, ab, closed):
    lo, hi = (0.5, 3.0) if tag == "janowski_M" else (0.0, 1.0)
    grid = np.linspace(lo, hi, 401)[1:-1]
    for p in grid:
        assert functions.JANOWSKI_AB[tag](float(p)) == ab(float(p)), (tag, p)
        res = radius_of_class_in_cardioid(tag, float(p))
        fam = janowski_radius_in_cardioid(*ab(float(p)))
        assert (res.value, res.clamped, res.method) == (fam.value, fam.clamped, fam.method)
        assert res.value == pytest.approx(closed(float(p)), rel=1e-15, abs=0.0), (tag, p)
        assert res.clamped == (closed(float(p)) >= 1.0)


# ---------------------------------------------------------------------------
# class radii in the cardioid class
# ---------------------------------------------------------------------------

def test_named_class_radius_values():
    assert radius_of_class_in_cardioid("rational_lemniscate").value == pytest.approx(
        (39.0 + 17.0 * SQRT2) / 82.0)
    assert radius_of_class_in_cardioid("sine").value == pytest.approx(math.asin(0.5))
    assert radius_of_class_in_cardioid("bounded_re", 2.0).value == pytest.approx(0.2)
    assert radius_of_class_in_cardioid("cassinian", 0.6).value == 1.0
    assert radius_of_class_in_cardioid("cassinian", 1.0).value == pytest.approx(0.75)
    assert radius_of_class_in_cardioid("lemniscate", 0.0).value == pytest.approx(0.75)
    assert radius_of_class_in_cardioid("exponential", 0.0).value == pytest.approx(math.log(2.0))
    assert radius_of_class_in_cardioid("limacon").value == pytest.approx(SQRT2 - 1.0)
    assert radius_of_class_in_cardioid("lune").value == pytest.approx(0.75)
    assert radius_of_class_in_cardioid("cardioid_wide").value == pytest.approx(0.5)
    assert radius_of_class_in_cardioid("booth", 0.0).value == pytest.approx(0.5)
    assert radius_of_class_in_cardioid("starlike").value == pytest.approx(1.0 / 3.0)
    assert radius_of_class_in_cardioid("convex").value == pytest.approx(0.6)
    assert radius_of_class_in_cardioid("univalent").value == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        radius_of_class_in_cardioid("cassinian", 1.4)
    with pytest.raises(ValueError):
        radius_of_class_in_cardioid("unknown_class")


def test_nephroid_radius_is_certified_root():
    res = radius_of_class_in_cardioid("nephroid")
    assert res.method == "root_of_polynomial"
    assert abs(_poly_eval(res.defining_polynomial, res.value)) < 1e-12
    assert res.value == pytest.approx(0.557875, abs=5e-5)


# ---------------------------------------------------------------------------
# cardioid-class radii within other classes
# ---------------------------------------------------------------------------

def test_order_radius_knots():
    # both branch formulas give 1 at 1/4 and 1/2 at 5/8
    mid = math.sqrt((3.0 - 4.0 * 0.25) / 2.0)
    assert abs(mid - 1.0) < 1e-12
    a, b = math.sqrt((3.0 - 4.0 * 0.625) / 2.0), 1.0 - math.sqrt(2.0 * 0.625 - 1.0)
    assert abs(a - b) < 1e-12
    assert radius_of_cardioid_in_class("order", 0.2).value == 1.0
    assert radius_of_cardioid_in_class("order", 0.45).value == pytest.approx(
        math.sqrt(0.6))
    assert radius_of_cardioid_in_class("order", 0.7).value == pytest.approx(
        1.0 - math.sqrt(0.4))


def test_within_class_constants():
    assert radius_of_cardioid_in_class("lemniscate", 0.0).value == pytest.approx(
        -1.0 + math.sqrt(2.0 * SQRT2 - 1.0))
    assert radius_of_cardioid_in_class("rational_lemniscate").value == pytest.approx(
        0.253734, abs=5e-5)
    assert radius_of_cardioid_in_class("rational").value == pytest.approx(
        0.189535, abs=5e-5)
    assert radius_of_cardioid_in_class("sine").value == pytest.approx(0.637969, abs=5e-5)
    assert radius_of_cardioid_in_class("cosh").value == pytest.approx(0.444355, abs=5e-5)
    assert radius_of_cardioid_in_class("nephroid").value == pytest.approx(0.527525, abs=5e-5)
    assert radius_of_cardioid_in_class("sigmoid").value == pytest.approx(0.387168, abs=5e-5)
    assert radius_of_cardioid_in_class("ram_singh", 0.0).value == pytest.approx(
        math.sqrt(3.0) - 1.0)
    assert radius_of_cardioid_in_class("cardioid_wide").value == 1.0
    assert radius_of_cardioid_in_class("bounded_re", 2.0).value == pytest.approx(
        math.sqrt(3.0) - 1.0)


def test_bounded_re_knot_and_cap():
    at_knot = math.sqrt(2.0 * 2.5 - 1.0) - 1.0
    assert abs(at_knot - 1.0) < 1e-12
    assert radius_of_cardioid_in_class("bounded_re", 2.5).value == 1.0
    assert radius_of_cardioid_in_class("bounded_re", 4.0).value == 1.0


def test_apollonius_branch_knot():
    a_star = radii.alpha_knot()
    assert a_star == pytest.approx(0.672505, abs=5e-5)
    assert abs(radii.w_alpha(a_star) - 1.0) < 1e-9
    assert radius_of_cardioid_in_class("padmanabhan", a_star + 1e-6).value == 1.0
    assert radius_of_cardioid_in_class("padmanabhan", 0.3).value == pytest.approx(
        radii.w_alpha(0.3))


def test_corollary_target_disks_are_their_closed_forms():
    # the regions the ram_singh and padmanabhan rows measure the cardioid
    # class in: |w - 1| < 1 - a and the Apollonius disk |(w-1)/(w+1)| < a
    for a in (0.0, 0.1, 0.25, 0.3, 0.5, 2.0 / 3.0, 0.9, math.nextafter(1.0, 0.0)):
        oracle = radii.class_spec("within", "ram_singh").oracle_at(a)
        assert domains.make_domain(*oracle.region) == domains.Disk(1.0, 1.0 - a), a
        if a == 0.0:
            continue
        oracle = radii.class_spec("within", "padmanabhan").oracle_at(a)
        apollonius = domains.Disk((1.0 + a * a) / (1.0 - a * a), 2.0 * a / (1.0 - a * a))
        assert domains.make_domain(*oracle.region) == apollonius, a
        assert verify.INCLUSION_FAMILIES["apollonius_disk"].regions(a)[0] == apollonius, a


def test_disk_family_branches_and_flags():
    m_star = radii.m_knot()
    assert m_star == pytest.approx(1.1423, abs=5e-4)
    # the two touch-radius curves are tangent at the crossover
    assert abs(radii.disk_real_axis_radius(m_star) - radii.disk_interior_radius(m_star)) < 1e-9
    # continuity at the self-centered parameter
    m0 = cardioid.self_centered_fixed_point()
    assert abs(radii.disk_interior_radius(m0 - 1e-12) - 1.0) < 1e-6
    low = radius_of_cardioid_in_class("janowski_M", 1.05)
    assert low.method == "oracle"
    assert "formula-suspect" in low.flags
    assert low.value == pytest.approx(radii.disk_real_axis_radius(1.05), abs=1e-6)
    high = radius_of_cardioid_in_class("janowski_M", 1.2)
    assert high.method == "closed_form"
    assert high.value == pytest.approx(radii.disk_interior_radius(1.2))
    assert radius_of_cardioid_in_class("janowski_M", 1.5).value == 1.0
    # radii below 1e-4 are measured, not floored at the search start
    tiny = radius_of_cardioid_in_class("janowski_M", 0.50002)
    assert tiny.value == pytest.approx(radii.disk_real_axis_radius(0.50002), abs=1e-8)
    assert tiny.value < 5e-5


def test_cardioid_disk_radius_rejects_bad_parameter():
    # checked before any probe: no positive radius exists for M <= 1/2
    cases = [(math.nan, "disk parameter must be finite"),
             (math.inf, "disk parameter must be finite"),
             (-math.inf, "disk parameter must be finite"),
             (0.5, "disk parameter must exceed 1/2"),
             (0.3, "disk parameter must exceed 1/2")]
    for M, message in cases:
        with pytest.raises(ValueError) as exc:
            radii.cardioid_disk_radius(M)
        assert str(exc.value) == message


def test_cardioid_disk_radius_is_relative_near_half():
    # near M = 1/2 the radius -1 + sqrt(4M - 1) is about 2(M - 1/2); the probe
    # slack shrinks with r there, so the search keeps relative 1e-3 down to
    # its floor, and below the floor it raises instead of returning the slack
    for gap in (1e-8, 1e-10, 1e-11):
        M = 0.5 + gap
        true = 4.0 * (M - 0.5) / (1.0 + math.sqrt(4.0 * M - 1.0))
        assert radius_of_cardioid_in_class("janowski_M", M).value == pytest.approx(
            true, rel=1e-3), gap
    with pytest.raises(ArithmeticError, match="no positive radius"):
        radius_of_cardioid_in_class("janowski_M", 0.5 + 2.0**-53)


def _halved_disk_radius(M: float) -> float:
    # reference for radii.cardioid_disk_radius: the same probe, with the
    # bracket [1e-4, 1 - 1e-9] halved 50 times instead of Brent's method
    disk = domains.Disk(M, M)
    e = radii._circle_grid(4096, half=True)[1]

    def ok(r: float) -> bool:
        return disk.contains_all(cardioid.eval_phi(r * e), min(1e-9, 1e-4 * r))

    return radii.bisect_predicate(ok, 1e-4, 1.0, steps=50, scan=(1.0 - 1e-9,),
                                  floor=radii.RADIUS_FLOOR)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(x=st.floats(0.0, 1.0))
def test_cardioid_disk_radius_matches_halving(x):
    # over the sampled branch's whole range of M, within a few ulps of 1
    M = 0.5001 + x * (radii.m_knot() - 0.5001)
    assert abs(radii.cardioid_disk_radius(M) - _halved_disk_radius(M)) <= 2e-15, M


def test_cardioid_disk_radius_is_one_where_the_disk_fits():
    for M in (1.31, 1.5, 2.0, 10.0, 1e6):
        assert radii.cardioid_disk_radius(M) == _halved_disk_radius(M) == 1.0, M


def test_cardioid_disk_radius_makes_at_most_9_margins(monkeypatch):
    # a cost guard: Brent's method makes 7 to 9 margin evaluations of the
    # image where 50 halvings made 52, reading both bracket ends from the
    # floor and clamped checks
    calls = []
    margin = domains.Disk._margin

    def counted(self, w):
        calls.append(np.size(w))
        return margin(self, w)

    monkeypatch.setattr(domains.Disk, "_margin", counted)
    for M in (0.5001, 0.6, 1.0, 1.05, radii.m_knot()):
        calls.clear()
        radii.cardioid_disk_radius(M)
        assert 0 < len(calls) <= 9, M


def test_class_table_rejects_nonfinite_parameters():
    lookup = {"of": radius_of_class_in_cardioid, "within": radius_of_cardioid_in_class}
    rows = [(key, spec) for key, spec in radii.CLASS_TABLE.items() if spec.param]
    assert {direction for (direction, _), _ in rows} == set(lookup)
    for (direction, tag), spec in rows:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError) as exc:
                lookup[direction](tag, bad)
            assert str(exc.value) == f"parameter {spec.param.name} of tag {tag!r} must be finite"


def test_corollary_order_knot_continuity():
    eps = 1e-10
    below = radius_of_class_in_cardioid("order", 0.25 - eps).value
    above = radius_of_class_in_cardioid("order", 0.25 + eps).value
    assert abs(below - above) < 1e-9


# every class-table row with a parameter: the direction of its radius in the
# parameter (+1 nondecreasing, -1 nonincreasing).  The ends of its valid range
# are its declaration's first and last valid floats.
_MONOTONE = {
    ("of", "cassinian"): -1,
    ("of", "lemniscate"): 1,
    ("of", "exponential"): 1,
    ("of", "booth"): -1,
    ("of", "bounded_re"): -1,
    ("of", "order"): 1,
    ("of", "ram_singh"): 1,
    ("of", "padmanabhan"): -1,
    ("of", "janowski_M"): -1,
    ("within", "order"): -1,
    ("within", "lemniscate"): -1,
    ("within", "ram_singh"): -1,
    ("within", "padmanabhan"): 1,
    ("within", "janowski_M"): 1,
    ("within", "bounded_re"): 1,
}


def _ends(key):
    param = radii.CLASS_TABLE[key].param
    return param.first, param.last


# the sampled branch of within.janowski_M measures no radius below
# radii.RADIUS_FLOOR, so it raises at its first valid parameter, where the
# radius is 2.2e-16; it is measured from M - 1/2 = 1e-11 on (radius 2e-11)
_MEASURED_FROM = {("within", "janowski_M"): 0.5 + 1e-11}


def test_monotone_cases_cover_every_parameterized_row():
    assert set(_MONOTONE) == {key for key, spec in radii.CLASS_TABLE.items() if spec.param}


def test_class_radius_at_the_ends_of_each_range():
    # the low end is the first valid parameter, and both ends give a radius
    # in (0, 1]: no cancellation to 0, no overflow, no division by an
    # underflowed product; a row measured from a later parameter raises at
    # the first valid one instead
    for key, direction in _MONOTONE.items():
        spec, ends = radii.CLASS_TABLE[key], _ends(key)
        with pytest.raises(ValueError, match=re.escape(spec.param.error)):
            spec.radius(math.nextafter(ends[0], -math.inf))
        low = _MEASURED_FROM.get(key, ends[0])
        if low != ends[0]:
            with pytest.raises(ArithmeticError):
                spec.radius(ends[0])
        lo, hi = (spec.radius(p).value for p in (low, ends[1]))
        assert direction * (hi - lo) > 0, key


def _accepts(build, p) -> bool:
    try:
        build(p)
    except ValueError:
        return False
    return True


def test_class_rows_share_their_region_kinds_range():
    # a class row over a region kind reads the region's declaration, so the
    # radius and the region accept the same parameters: each end, and not one
    # ulp past it
    lookup = {"of": radius_of_class_in_cardioid, "within": radius_of_cardioid_in_class}
    shared = {key: kind for key, spec in radii.CLASS_TABLE.items()
              for kind, row in domains._REGIONS.items()
              if spec.param is not None and spec.param is row.param}
    assert sorted(".".join(key) for key in shared) == [
        "of.booth", "of.bounded_re", "of.cassinian", "of.exponential", "of.lemniscate",
        "of.order", "within.bounded_re", "within.lemniscate", "within.order"]
    for (direction, tag), kind in shared.items():
        param = radii.CLASS_TABLE[(direction, tag)].param
        for p, valid in ((param.first, True), (param.last, True),
                         (math.nextafter(param.first, -math.inf), False),
                         (math.nextafter(param.last, math.inf), False)):
            radius = _accepts(lambda x: lookup[direction](tag, x), p)
            region = _accepts(lambda x: domains.make_domain(kind, x), p)
            assert radius == region == valid, (direction, tag, p)


def test_class_oracle_at_the_ends_of_each_range():
    # every parameterized row builds its oracle descriptor at both ends of its
    # valid range; at a = 1 the Apollonius region is the half-plane Re w > 0,
    # which holds the whole cardioid region
    for key in _MONOTONE:
        for p in _ends(key):
            radii.CLASS_TABLE[key].oracle_at(p)
    oracle = radii.class_spec("within", "padmanabhan").oracle_at(1.0)
    assert verify._measure(oracle, 256) == 1.0


@pytest.mark.parametrize("key", _MONOTONE, ids=[".".join(key) for key in _MONOTONE])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_class_radius_monotone_across_parameter_range(key, data):
    direction, (first, last) = _MONOTONE[key], _ends(key)
    ends = (_MEASURED_FROM.get(key, first), last)
    p, q = sorted((data.draw(st.floats(*ends)), data.draw(st.floats(*ends))))
    spec = radii.CLASS_TABLE[key]
    rp, rq = spec.radius(p).value, spec.radius(q).value
    # the branch below the crossover is a sampled search, whose distance
    # tolerance 1e-9 moves the radius by less than that
    sampled = key == ("within", "janowski_M") and p <= radii.m_knot()
    assert direction * (rq - rp) >= (-1e-9 if sampled else 0.0), (p, q, rp, rq)


def test_class_radius_knots_meet_unit_cap():
    # each capped family reaches exactly 1 at its threshold parameter
    assert abs(0.75 / 0.75 - 1.0) < 1e-15                    # Cassinian at c = 3/4
    a = 0.5
    assert abs((3.0 - 4.0 * a) / (4.0 * (1.0 - a) ** 2) - 1.0) < 1e-12   # lemniscate
    a0 = radii.alpha_zero()
    assert abs(math.log(2.0 * (1.0 - a0) / (1.0 - 2.0 * a0)) - 1.0) < 1e-9  # exponential
    assert abs(radius_of_class_in_cardioid("ram_singh",  0.5 - 1e-12).value - 1.0) < 1e-9
    assert abs(radius_of_class_in_cardioid("padmanabhan", 1.0 / 3.0 + 1e-12).value - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# ratio classes
# ---------------------------------------------------------------------------

RATIO_DECIMALS = {
    (1, "z"): 0.1231, (2, "z"): 0.154701, (3, "z"): 0.23606,
    (1, "z_over_1plusz"): 0.10102, (2, "z_over_1plusz"): 0.12310,
    (3, "z_over_1plusz"): 0.17157,
    (1, "z_over_1minusz2"): 0.116675, (2, "z_over_1minusz2"): 0.14327,
    (3, "z_over_1minusz2"): 0.202135,
    (1, "koebe"): 0.0851458, (2, "koebe"): 0.101021, (3, "koebe"): 0.13148,
    (1, "z_plus_half_z2"): 0.10924, (2, "z_plus_half_z2"): 0.134138,
    (3, "z_plus_half_z2"): 0.19028,
}


def test_ratio_class_table():
    for (i, chi), decimal in RATIO_DECIMALS.items():
        assert ratio_class_radius(i, chi).value == pytest.approx(decimal, abs=5e-5)
    assert ratio_class_radius(1, "z").value == pytest.approx(1.0 / (4.0 + math.sqrt(17.0)))
    assert ratio_class_radius(3, "z_over_1plusz").value == pytest.approx(3.0 - 2.0 * SQRT2)
    with pytest.raises(ValueError):
        ratio_class_radius(4, "z")
    with pytest.raises(ValueError):
        ratio_class_radius(1, "weird")


def test_ratio2_rotated_closed_form_matches_root():
    root = ratio_class_radius(2, "z_over_1minusz2").value
    assert abs(root - ratio2_rotated_closed_form()) < 1e-12
    # both published decimals round the same root
    assert abs(root - 0.14326) < 5e-5
    assert abs(root - 0.14327) < 5e-5


def test_ratio_factors_give_the_radii_and_sharp_functions():
    # each radius is where the quotient disk's leftmost point center - spread
    # reaches the cusp 1/2; on |z| = r each sharp quotient stays in its disk
    # and reaches that leftmost point at z = -r/eps
    z = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False))
    for i, chi in RATIO_DECIMALS:
        center, spread = radii.ratio_disk_family(i, chi)
        r_star = ratio_class_radius(i, chi).value
        assert abs(center(r_star) - spread(r_star) - 0.5) < 1e-12, (i, chi)
        factor = functions.RATIO_CHI[chi]
        w_of = functions.extremal(f"ratio{i}_{factor.suffix}").w_of
        for r in (0.05, 0.3, 0.7, 0.9):
            c, s = center(r), spread(r)
            assert np.max(np.abs(w_of(r * z) - c)) <= s * (1.0 + 1e-12), (i, chi, r)
            touch = complex(w_of(-r / factor.rotation))
            assert abs(touch - (c - s)) <= 1e-12 * abs(c - s), (i, chi, r)


def test_one_ratio_class_gives_one_oracle():
    # conv.starlike_pair measures the disk family of ratio.f3.koebe, so the
    # two rows hold equal descriptors, and the 15 ratio classes 15 distinct ones
    oracles = {e.key: e.oracle for e in constants_registry()}
    assert oracles["conv.starlike_pair"] == oracles["ratio.f3.koebe"]
    assert hash(oracles["conv.starlike_pair"]) == hash(oracles["ratio.f3.koebe"])
    assert radii.ratio_disk_family(3, "koebe") == radii.ratio_disk_family(3, "koebe")
    assert len({oracles[f"ratio.f{i}.{chi}"] for i, chi in RATIO_DECIMALS}) == 15


def test_partial_sum_and_convolution_records():
    rows = {e.key: e.value for e in constants_registry()
            if e.key.startswith(("psum.", "conv."))}
    assert rows == {"psum.starlike": 0.5, "psum.convex": 0.25,
                    "psum.cardioid_dilation": 1.0 / 3.0, "psum.from_convex": 1.0 / 3.0,
                    "psum.from_univalent": 1.0 / 6.0, "conv.convex_factor": 0.5,
                    "conv.starlike_pair": ratio_class_radius(3, "koebe").value}
    assert rows["conv.starlike_pair"] == pytest.approx(0.1314829, abs=5e-7)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_unique_keys_and_size():
    reg = constants_registry()
    keys = [e.key for e in reg]
    assert len(keys) == len(set(keys))
    assert len(reg) >= 45
    assert len(constants_registry()) == len(reg)


def test_registry_published_decimals_match_unflagged():
    for entry in constants_registry():
        if entry.published is None:
            continue
        if any("mismatch" in f for f in entry.flags):
            continue
        assert abs(entry.value - entry.published) < entry.published_tol, entry.key


def test_registry_root_entries_certified():
    for entry in constants_registry():
        if entry.method == "root_of_polynomial":
            assert entry.defining_polynomial is not None
            assert abs(_poly_eval(entry.defining_polynomial, entry.value)) < 1e-12


def test_registry_flagged_rows_present():
    reg = {e.key: e for e in constants_registry()}
    assert "published-decimal-mismatch" in reg["incl.strong_order"].flags
    assert "formula-suspect" in reg["within.janowski_M_low"].flags
    assert "published-decimal-ambiguous" in reg["ratio.f2.z_over_1minusz2"].flags
    assert "bounding-disk-route" in reg["within.rational_lemniscate"].flags


def test_radius_result_range_validation():
    with pytest.raises(ValueError):
        RadiusResult(0.0)
    with pytest.raises(ValueError):
        RadiusResult(1.2)
    assert isinstance(constants_registry()[0], ConstantEntry)


def test_strong_order_candidates():
    bz = radii.beta_zero_candidates()
    assert bz["statement_form"] == pytest.approx(0.7412918697654988, abs=1e-12)
    assert bz["proof_form"] < bz["statement_form"]
    assert bz["published_decimal"] == 0.743253
    # the published decimal genuinely disagrees with the statement form
    assert abs(bz["statement_form"] - bz["published_decimal"]) > 1e-3
