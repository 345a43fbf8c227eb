"""Oracle machinery: containment sampling, bisection, sharpness, suites."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardstar import cardioid, cli, domains, functions, radii, verify
from cardstar.functions import FunctionSpec
from cardstar.series import PowerSeries, f_cardioid_series

CARD = domains.make_domain("cardioid")
SQRT2 = math.sqrt(2.0)


def test_image_in_domain_sharp_radius_passes():
    spec = functions.extremal("cardioid_wide")
    assert verify.image_in_domain(spec, 0.5, CARD).passed
    rep = verify.image_in_domain(spec, 0.51, CARD)
    assert not rep.passed
    assert rep.witness is not None
    # the exit happens near the left extreme of the image
    assert abs(rep.witness - 0.5) < 0.05


def test_image_in_domain_fail_reports_worst_of_circle_and_rings():
    # only the inner rings (|z| = 0.25 and 0.375) leave the region here
    spec = FunctionSpec("x", lambda z: np.where(abs(z) < 0.45, 10.0 + 0j, 1.0 + 0j))
    rep = verify.image_in_domain(spec, 0.5, CARD)
    assert not rep.passed
    assert rep.witness == 10.0
    assert rep.measured_value == pytest.approx(CARD.margin(10.0)) and rep.measured_value < 0


def test_image_in_domain_koebe_third():
    assert verify.image_in_domain(functions.extremal("koebe"), 1.0 / 3.0, CARD).passed


def test_image_in_domain_full_disk_into_wide_cardioid():
    wide = domains.make_domain("cardioid_wide")
    assert verify.image_in_domain(functions.extremal("cardioid_extremal"), 1.0, wide).passed


def test_image_in_domain_validation():
    spec = functions.extremal("koebe")
    with pytest.raises(ValueError):
        verify.image_in_domain(spec, 1.2, CARD)
    with pytest.raises(ValueError):
        verify.image_in_domain(spec, 0.5, CARD, n=64)
    with pytest.raises(ValueError):
        verify.image_in_domain(spec, 0.5, CARD, n=258)  # t = pi not on the grid


def test_subordination_radius_classics():
    assert verify.subordination_radius(functions.extremal("koebe"), CARD) == pytest.approx(
        1.0 / 3.0, abs=2e-3)
    assert verify.subordination_radius(functions.extremal("half_plane"), CARD) == pytest.approx(
        0.6, abs=2e-3)
    ne = domains.make_domain("nephroid")
    assert verify.subordination_radius(functions.extremal("cardioid_extremal"),
                                       ne) == pytest.approx(0.527525, abs=2e-3)
    bl = FunctionSpec("booth0", functions.generator("booth", alpha=0.0))
    assert verify.subordination_radius(bl, CARD) == pytest.approx(0.5, abs=2e-3)


def test_subordination_radius_returns_one_when_contained():
    wide = domains.make_domain("cardioid_wide")
    assert verify.subordination_radius(functions.extremal("cardioid_extremal"), wide) == 1.0


def test_subordination_radius_no_positive_radius():
    # true radius 1e-17, below the search floor
    runaway = FunctionSpec("runaway", lambda z: 1.0 + 1e15 * np.asarray(z, dtype=complex))
    with pytest.raises(ArithmeticError, match="no positive radius"):
        verify.subordination_radius(runaway, domains.Disk(1.0, 0.01))


def test_subordination_radius_below_1e4():
    steep = FunctionSpec("steep", lambda z: 1.0 + 5000.0 * np.asarray(z, dtype=complex))
    assert verify.subordination_radius(steep, domains.Disk(1.0, 0.01)) == pytest.approx(
        2e-6, rel=1e-3)
    # the cardioid class in starlike functions of order 0.99995: 1 - r + r^2/2 = 0.99995
    r = verify.subordination_radius(functions.extremal("cardioid_extremal"),
                                    domains.make_domain("min_re", 0.99995))
    assert r == pytest.approx(1.0 - math.sqrt(1.0 - 2.0 * 5e-5), rel=1e-3)
    assert r == pytest.approx(
        radii.radius_of_cardioid_in_class("order", 0.99995).value, rel=1e-3)


@pytest.mark.parametrize("n", [1024, 4096])
def test_radius_below_1e4_meets_relative_bracket(n):
    # the near-boundary tolerance shrinks with the relative bracket, so it
    # no longer dominates the error of a tiny radius
    phi = functions.extremal("cardioid_extremal")
    cases = [(("min_re", 0.99995), 1.0 - math.sqrt(1.0 - 2.0 * 5e-5)),
             # the circle image reaches furthest from 1 at z = r: r + r^2/2
             (("disk", 1.0, 0.0, 1e-5), -1.0 + math.sqrt(1.0 + 2e-5)),
             (("disk", 0.50002, 0.0, 0.50002), radii.disk_real_axis_radius(0.50002))]
    for region, true in cases:
        r = verify.subordination_radius(phi, domains.make_domain(*region), n=n)
        assert r == pytest.approx(true, rel=1e-3), region


def test_subordination_radius_bracket_violation_raises(monkeypatch):
    bisect = radii.bisect_predicate
    monkeypatch.setattr(radii, "bisect_predicate",
                        lambda *args, **kw: bisect(*args, **kw) + 10 * verify.DEFAULT_TOL)
    with pytest.raises(ArithmeticError, match="bisection bracket violated"):
        verify.subordination_radius(functions.extremal("koebe"), CARD)
    # a 2e-6 radius returned 2.5e-7 too large passes a check at +-tol = 1e-6;
    # the check at +-1e-3 r catches it
    steep = FunctionSpec("steep", lambda z: 1.0 + 5000.0 * np.asarray(z, dtype=complex))
    monkeypatch.setattr(radii, "bisect_predicate",
                        lambda *args, **kw: bisect(*args, **kw) + 0.25 * verify.DEFAULT_TOL)
    with pytest.raises(ArithmeticError, match="bisection bracket violated"):
        verify.subordination_radius(steep, domains.Disk(1.0, 0.01))


def test_disk_family_radius_matches_ratio_class():
    center, spread = radii.ratio_disk_family(3, "koebe")
    measured = verify.disk_family_radius(center, spread, CARD)
    assert measured == pytest.approx(radii.ratio_class_radius(3, "koebe").value, abs=2e-3)


# repr of each ratio class's disk-family oracle on the cardioid region; the
# same at 1024 and 4096 samples
RATIO_ORACLE_PINS = {
    (1, "z"): "0.12310548603153851",
    (2, "z"): "0.15470041731631612",
    (3, "z"): "0.2360683553719945",
    (1, "z_over_1plusz"): "0.10102059759537363",
    (2, "z_over_1plusz"): "0.12310548603153851",
    (3, "z_over_1plusz"): "0.17157304322259853",
    (1, "z_over_1minusz2"): "0.11667454960608531",
    (2, "z_over_1minusz2"): "0.14326986646638917",
    (3, "z_over_1minusz2"): "0.20213429492772145",
    (1, "koebe"): "0.0851454152687211",
    (2, "koebe"): "0.10102059759537363",
    (3, "koebe"): "0.1314826770899024",
    (1, "z_plus_half_z2"): "0.10923758739047001",
    (2, "z_plus_half_z2"): "0.13413744088119267",
    (3, "z_plus_half_z2"): "0.19028035502487328",
}


@pytest.mark.parametrize("n", [1024, 4096])
def test_ratio_disk_family_oracles_pinned(n):
    got = {key: repr(verify.disk_family_radius(*radii.ratio_disk_family(*key), CARD, n=n))
           for key in RATIO_ORACLE_PINS}
    assert got == RATIO_ORACLE_PINS
    entry = {e.key: e for e in radii.constants_registry()}["conv.starlike_pair"]
    assert repr(verify.measure_constant(entry, n)) == RATIO_ORACLE_PINS[(3, "koebe")]


# sha256 of the repr of every registry oracle's value at 512 samples, one a
# line in registry order, recorded after the inclusion thresholds moved to
# Brent's method
REGISTRY_VALUES_512_SHA256 = "afe1d7651a2a7aee4bd760698d4320f641d4197d69e95f0711e000617bc4ed99"


def test_registry_values_pinned_bit_for_bit():
    # repr tells the bits apart
    values = [repr(verify.measure_constant(e, 512)) for e in radii.constants_registry()
              if e.oracle is not None]
    assert len(values) == 73
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == REGISTRY_VALUES_512_SHA256


def _sequential_radius(image, d: domains.Domain, n: int, half: bool) -> float:
    """The search of `verify._radius` with its bracket found by a scan of one
    radius at a time at the region's near tolerance, upward from 1e-4, the
    first scan radius, to the first failure: image(r, e) is the circle image
    of r."""
    near, tol = d.near, verify.DEFAULT_TOL
    e = radii._circle_grid(n, half)[1]

    def ok(r: float) -> bool:
        return d.contains_all(image(r, e), near)

    r = radii.bisect_predicate(ok, verify._RADIUS_SCAN[0], 1.0, tol=tol,
                               scan=verify._RADIUS_SCAN[1:], floor=radii.RADIUS_FLOOR)
    width = min(tol, verify._RADIUS_REL_TOL * r)
    if width < tol:
        near *= width / tol
        r = radii.bisect_predicate(ok, 0.5 * r, 2.0 * r, tol=width, floor=radii.RADIUS_FLOOR)
    return r


STEEP = FunctionSpec("steep", lambda z: 1.0 + 5000.0 * np.asarray(z, dtype=complex),
                     analytic=True)
# exp(12000 z) overflows from |z| = 0.0591 on: in Disk(1, 1e200), past the
# scan's first failure at index 3 (0.0470), at index 4 (0.0626) and at the
# first halving probe, index 32 (0.5)
OVERFLOWING = FunctionSpec("overflowing", lambda z: np.exp(12000.0 * np.asarray(z, dtype=complex)),
                           analytic=True)


def _raises_past(limit: float):
    def w_of(z):
        z = np.asarray(z, dtype=complex)
        if np.abs(z).max() > limit:
            raise ValueError(f"not defined past |z| = {limit}")
        return 1.0 + z
    return w_of


# 1 + z in Disk(1, 0.28): the one-radius scan fails first at index 18
# (0.281), and the first halving probe, index 32 (0.5), raises
RAISING = FunctionSpec("raising", _raises_past(0.29), real=True, analytic=True)


# 1 + z, whose circle image of radius r leaves Disk(1, R) exactly when r > R
SHIFT = FunctionSpec("shift", lambda z: 1.0 + np.asarray(z, dtype=complex), real=True,
                     analytic=True)


def _between_scan_radii(k: int) -> float:
    return 0.5 * (verify._RADIUS_SCAN[k - 1] + verify._RADIUS_SCAN[k])


def _pole_window(a: float, b: float) -> FunctionSpec:
    # (1 + z/a)/(1 + z/b) with 0 < a < b has a pole at -b, and Re w(-r) < 0
    # only for a < r < b: its circle image leaves Re w > 0 there and only
    # there, so containment is not monotone in r
    return FunctionSpec(f"pole window ({a:g}, {b:g})",
                        lambda z: (1.0 + np.asarray(z) / a) / (1.0 + np.asarray(z) / b), real=True)


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("spec, region, about", [
    (functions.extremal("cardioid_extremal"), domains.make_domain("cardioid_wide"), 1.0),
    # psum.convex: the quotient has a pole in the disk, so containment is not
    # monotone in r
    (functions.extremal("second_sum_convexity"), domains.make_domain("min_re", 0.0), 0.25),
    (functions.extremal("cardioid_extremal"), domains.make_domain("nephroid"), 0.527525),
    (STEEP, domains.Disk(1.0, 0.01), 2e-6),
    (OVERFLOWING, domains.Disk(1.0, 1e200), math.log(1e200) / 12000.0),
    (RAISING, domains.Disk(1.0, 0.28), 0.28),
    # failure windows right after scan indices 2, 17, 38 and 57, over indices
    # 3, 18 to 22, 39 to 40 and 58 to 59, none of which a halving probe of a
    # search that passes everywhere else (32, 48, 56, 60, 62, 63, 64) reaches
    *((_pole_window(a, b), domains.make_domain("min_re", 0.0), a)
      for a, b in ((0.045, 0.06), (0.27, 0.35), (0.6, 0.64), (0.9, 0.93))),
    # a first failure at scan index 1 to 7, far below the first halving
    # probe, index 32: the halving narrows down to it without an error
    *((SHIFT, domains.Disk(1.0, _between_scan_radii(k)), _between_scan_radii(k))
      for k in range(1, 8)),
], ids=["clamped", "non-monotone", "generator-image", "below-1e-3", "overflow-past-failure",
        "raise-past-failure", *(f"pole-window-{k}" for k in (2, 17, 38, 57)),
        *(f"first-failure-{k}" for k in range(1, 8))])
def test_radius_search_equals_sequential_search(spec, region, about, n):
    # the same float as a search that scans the radii one at a time, and no
    # warning from a probe past the first failure: recorded, not raised, as
    # the search would take a raised one for an error of its probe
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = verify.subordination_radius(spec, region, n)
    assert not caught
    half = spec.real and region.symmetric
    assert r == _sequential_radius(lambda r, e: spec.w_of(r * e), region, n, half)
    assert r == pytest.approx(about, rel=1e-3)


def test_search_reports_the_errors_of_the_sequential_search():
    # in Disk(1, 1e300) the overflow of exp(12000 z) falls on the first
    # failure of the one-radius scan, index 4; the first halving probe, index
    # 32, overflows too and sends the search back to that scan, and the
    # search reports the warnings that scan reports, in order
    d, n = domains.Disk(1.0, 1e300), 512

    def warnings_of(search):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = search()
        return r, [str(w.message) for w in caught]

    got = warnings_of(lambda: verify.subordination_radius(OVERFLOWING, d, n))
    assert got == warnings_of(lambda: _sequential_radius(
        lambda r, e: OVERFLOWING.w_of(r * e), d, n, False))
    assert got[1] and got[0] == pytest.approx(math.log(1e300) / 12000.0, rel=1e-3)


@pytest.mark.parametrize("setting", ["ignore", "raise"])
@pytest.mark.parametrize("spec, region, error", [
    (OVERFLOWING, domains.Disk(1.0, 1e200), None),
    (OVERFLOWING, domains.Disk(1.0, 1e300), FloatingPointError),
    (RAISING, domains.Disk(1.0, 0.28), None),
], ids=["overflow-past-failure", "overflow-at-failure", "raise-past-failure"])
def test_search_follows_the_callers_error_setting(spec, region, error, setting):
    # the halving probes run in numpy's raise mode whatever the caller's
    # setting, and an error sends the search back to the one-radius scan,
    # which runs under the caller's: the same float, or the same exception;
    # only an overflow at the scan's own first failure raises, and only
    # where the caller asks for it
    def outcome(search):
        with np.errstate(all=setting):
            try:
                return search()
            except Exception as exc:    # compared by type below
                return type(exc)

    half = spec.real and region.symmetric
    got = outcome(lambda: verify.subordination_radius(spec, region, 512))
    assert got == outcome(lambda: _sequential_radius(
        lambda r, e: spec.w_of(r * e), region, 512, half))
    if setting == "raise" and error:
        assert got is error
    else:
        assert isinstance(got, float)


@pytest.mark.parametrize("n", [512, 1024])
def test_disk_family_search_equals_sequential_search(n):
    def image(center, spread):
        return lambda r, e: center(r) + spread(r) * e

    # ratio.f3.koebe
    center, spread = radii.ratio_disk_family(3, "koebe")
    r = verify.disk_family_radius(center, spread, CARD, n)
    assert r == _sequential_radius(image(center, spread), CARD, n, True)
    assert r == pytest.approx(radii.ratio_class_radius(3, "koebe").value, abs=1e-6)
    # a center that raises past 0.29, past the first failure at 0.281: a
    # disk family is scanned one radius at a time, so it is never evaluated
    # there
    center = lambda r: 1.0 + 0.0 * math.sqrt(0.29 - r)  # noqa: E731
    spread = lambda r: r  # noqa: E731
    d = domains.Disk(1.0, 0.28)
    r = verify.disk_family_radius(center, spread, d, n)
    assert r == _sequential_radius(image(center, spread), d, n, True)
    assert r == pytest.approx(0.28, abs=1e-6)


# the benchmark's param-sweep families, copied from its tables: each class
# inside the cardioid region, by its extremal's parameter and range, and the
# cardioid class inside each class's region, by that region and its range
PARAM_SWEEP_CLASS_IN_CARDIOID = {
    "order": ("alpha", 0.0, 1.0),
    "ram_singh": ("alpha", 0.0, 1.0),
    "padmanabhan": ("alpha", 0.0, 1.0),
    "lemniscate": ("alpha", 0.0, 1.0),
    "exponential": ("alpha", 0.0, 1.0),
    "cassinian": ("c", 0.0, 1.0),
    "booth": ("alpha", 0.0, 1.0),
    "bounded_re": ("beta", 1.0, 4.0),
}
PARAM_SWEEP_CARDIOID_IN_CLASS = {
    "order": (lambda p: ("min_re", p), 0.0, 0.9998),
    "lemniscate": (lambda p: ("lemniscate", p), 0.0, 0.9995),
    "ram_singh": (lambda p: ("disk", 1.0, 0.0, 1.0 - p), 0.0, 0.9998),
    "bounded_re": (lambda p: ("bounded_re", p), 1.0002, 3.5),
    "janowski_M": (lambda p: ("disk", p, 0.0, p), 0.5001, 2.0),
}

# repr of the subordination radius at the low end, the middle and the high
# end of each range, recorded before membership tests gained the
# inscribed-disk fast path; the same at 1024 and 4096 samples
PARAM_SWEEP_PINS = {
    ("class-in-cardioid", "order"): ("0.3333334080701299", "0.5999998537262883", "1.0"),
    ("class-in-cardioid", "ram_singh"): ("0.4999999366052289", "1.0", "1.0"),
    ("class-in-cardioid", "padmanabhan"): ("1.0", "0.6666664651403279", "0.3333334080701299"),
    ("class-in-cardioid", "lemniscate"): ("0.7499997294078774", "1.0", "1.0"),
    ("class-in-cardioid", "exponential"): ("0.6931473525268693", "1.0", "1.0"),
    ("class-in-cardioid", "cassinian"): ("1.0", "1.0", "0.7499997294078774"),
    ("class-in-cardioid", "booth"): ("0.4999999366052289", "0.44948981330750803",
                                     "0.4142140672833695"),
    ("class-in-cardioid", "bounded_re"): ("1.0", "0.14285696678189608", "0.07692270399993656"),
    ("cardioid-in-class", "order"): ("1.0", "0.7072479244312547", "0.00020006331073727456"),
    ("cardioid-in-class", "lemniscate"): ("0.35219329250408793", "0.18929435439261955",
                                          "0.0002071005145354648"),
    ("cardioid-in-class", "ram_singh"): ("0.7320505128692792", "0.41428463212552313",
                                         "0.00020006331073727456"),
    ("cardioid-in-class", "bounded_re"): ("0.00020006331073727456", "0.8708820719116471", "1.0"),
    ("cardioid-in-class", "janowski_M"): ("0.00020006331073727456", "0.9713034709277318", "1.0"),
}


_PARAM_SWEEP_FAMILIES = [("class-in-cardioid", tag) for tag in PARAM_SWEEP_CLASS_IN_CARDIOID] + [
    ("cardioid-in-class", tag) for tag in PARAM_SWEEP_CARDIOID_IN_CLASS]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(family=st.sampled_from(_PARAM_SWEEP_FAMILIES), x=st.floats(0.0, 1.0),
       n=st.sampled_from([512, 1024]))
def test_param_sweep_search_equals_sequential_search(family, x, n):
    # over the whole range of every param-sweep family, the halving search
    # and a scan of one radius at a time give the same float
    direction, tag = family
    if direction == "class-in-cardioid":
        name, lo, hi = PARAM_SWEEP_CLASS_IN_CARDIOID[tag]
        spec, d = functions.extremal(tag, **{name: lo + x * (hi - lo)}), CARD
    else:
        region, lo, hi = PARAM_SWEEP_CARDIOID_IN_CLASS[tag]
        spec = functions.extremal("cardioid_extremal")
        d = domains.make_domain(*region(lo + x * (hi - lo)))
    assert verify.subordination_radius(spec, d, n) == _sequential_radius(
        lambda r, e: spec.w_of(r * e), d, n, spec.real and d.symmetric)


def test_registry_subordination_radii_equal_sequential_search():
    # every registry quotient in its region at the default 4096 samples
    oracles = {e.oracle for e in radii.constants_registry()
               if isinstance(e.oracle, radii.Subordination)}
    assert len(oracles) == 40
    for oracle in oracles:
        spec = functions.extremal(oracle.quotient, **dict(oracle.params))
        d = domains.make_domain(*oracle.region)
        assert verify.subordination_radius(spec, d) == _sequential_radius(
            lambda r, e: spec.w_of(r * e), d, verify.DEFAULT_SAMPLES,
            spec.real and d.symmetric), oracle


@pytest.mark.parametrize("n", [1024, 4096])
def test_param_sweep_oracles_pinned(n):
    got = {}
    for tag, (name, lo, hi) in PARAM_SWEEP_CLASS_IN_CARDIOID.items():
        got["class-in-cardioid", tag] = tuple(
            repr(verify.subordination_radius(functions.extremal(tag, **{name: p}), CARD, n=n))
            for p in (lo, 0.5 * (lo + hi), hi))
    phi = functions.extremal("cardioid_extremal")
    for tag, (region, lo, hi) in PARAM_SWEEP_CARDIOID_IN_CLASS.items():
        got["cardioid-in-class", tag] = tuple(
            repr(verify.subordination_radius(phi, domains.make_domain(*region(p)), n=n))
            for p in (lo, 0.5 * (lo + hi), hi))
    assert got == PARAM_SWEEP_PINS


def _on_full_circle(measure):
    """measure() with every region declared asymmetric, so that each oracle
    samples the whole circle, as before the mirror rule."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(domains.Domain, "symmetric", False)
        m.setattr(domains.Disk, "symmetric", False)
        return measure()


@pytest.mark.parametrize("n", [512, 4096])
def test_half_circle_radii_equal_full_circle_on_registry(n):
    # every subordination and disk-family oracle of the registry gives the
    # same float on the half circle as on the full one
    rows = [e for e in radii.constants_registry()
            if e.oracle is not None and not isinstance(e.oracle, radii.Threshold)]
    assert len(rows) == 59

    def measure():
        return {e.key: verify.measure_constant(e, n) for e in rows}

    assert measure() == _on_full_circle(measure)


def test_half_circle_radii_equal_full_circle_on_param_sweep():
    # seven points across the range of each of the 13 param-sweep families
    phi = functions.extremal("cardioid_extremal")

    def measure():
        out = {}
        for tag, (name, lo, hi) in PARAM_SWEEP_CLASS_IN_CARDIOID.items():
            for p in np.linspace(lo, hi, 7):
                spec = functions.extremal(tag, **{name: float(p)})
                out["of", tag, p] = verify.subordination_radius(spec, CARD, n=1024)
        for tag, (region, lo, hi) in PARAM_SWEEP_CARDIOID_IN_CLASS.items():
            for p in np.linspace(lo, hi, 7):
                d = domains.make_domain(*region(float(p)))
                out["within", tag, p] = verify.subordination_radius(phi, d, n=1024)
        return out

    assert measure() == _on_full_circle(measure)


def test_half_circle_inclusion_thresholds_match_full_circle():
    # the cardioid's lower half is sampled at other angles than the mirror
    # images of its upper half, so two thresholds move in the last bits
    rows = [e for e in radii.constants_registry()
            if isinstance(e.oracle, radii.Threshold) and e.oracle.name == "inclusion"]

    def measure():
        return [verify.measure_constant(e, 4096) for e in rows]

    assert measure() == pytest.approx(_on_full_circle(measure), rel=0.0, abs=1e-15)


# the two containment tests, neither of which calls the other
_CONTAINMENT = ("contains_all", "excess")


def _points_seen(monkeypatch, methods: tuple[str, ...], measure) -> list[int]:
    # the number of points of each call of a Domain method in `methods`
    # during measure()
    calls = []

    def counted(original):
        def method(self, ws, *args):
            calls.append(np.size(ws))
            return original(self, ws, *args)
        return method

    with monkeypatch.context() as m:
        for name in methods:
            m.setattr(domains.Domain, name, counted(getattr(domains.Domain, name)))
        measure()
    return calls


@pytest.mark.parametrize("n", [512, 1024])
def test_mirror_rule_evaluates_half_the_points(monkeypatch, n):
    # a deterministic cost guard: a symmetric pair evaluates n//2 + 1 points
    # at every probe, and a pair with a rotated quotient or an off-axis disk
    # all n
    half = n // 2 + 1
    off_axis = domains.Disk(1.0 + 0.1j, 1.0)
    center, spread = radii.ratio_disk_family(3, "koebe")
    cases = [
        (_CONTAINMENT, half, lambda: verify.subordination_radius(
            functions.extremal("cardioid_extremal"), domains.make_domain("sine"), n=n)),
        (_CONTAINMENT, half, lambda: verify.subordination_radius(
            functions.extremal("booth", alpha=0.5), CARD, n=n)),
        (_CONTAINMENT, n, lambda: verify.subordination_radius(
            functions.extremal("ratio1_rotated"), CARD, n=n)),
        (_CONTAINMENT, n, lambda: verify.subordination_radius(
            functions.extremal("cardioid_extremal"), off_axis, n=n)),
        (_CONTAINMENT, half, lambda: verify.disk_family_radius(center, spread, CARD, n=n)),
        (_CONTAINMENT, n, lambda: verify.disk_family_radius(
            lambda r: 1.0 + 0.1j, lambda r: r, off_axis, n=n)),
        (("margin",), half, lambda: verify.INCLUSION_FAMILIES["conic"].threshold(n)),
        (("margin",), half, lambda: verify.INCLUSION_FAMILIES["self_centered_disk"].threshold(n)),
        (("margin",), n, lambda: verify._inclusion_margin(CARD, off_axis, n)),
    ]
    for methods, points, measure in cases:
        calls = _points_seen(monkeypatch, methods, measure)
        assert calls and set(calls) == {points}, (methods, points)


@pytest.mark.parametrize("n", [512, 4096])
def test_clamped_search_makes_seven_images(n):
    # a cost guard: when the whole disk fits, the search evaluates the image
    # at the halving probes of scan indices 32, 48, 56, 60, 62, 63 and 64
    # only, not at 1e-4, whose verdict they imply; a quotient not declared
    # analytic is scanned at all 65 radii, 1e-4 first
    scan = verify._RADIUS_SCAN
    for analytic, probed in ((True, [scan[k] for k in (32, 48, 56, 60, 62, 63, 64)]),
                             (False, list(scan))):
        images = []

        def w_of(z):
            images.append((np.shape(z), float(z[0].real)))    # z[0] = r
            return cardioid.eval_phi(z)

        spec = FunctionSpec("counted", w_of, real=True, analytic=analytic)
        assert verify.subordination_radius(spec, domains.make_domain("cardioid_wide"), n=n) == 1.0
        assert images == [((n // 2 + 1,), r) for r in probed]


_MONOTONE_REGIONS = [CARD, domains.make_domain("min_re", 0.5), domains.make_domain("sector", 0.5),
                     domains.Disk(1.0, 0.5), domains.make_domain("lemniscate", 0.0),
                     domains.make_domain("nephroid")]


# the scan radii and the midpoints between them
_SCAN_AND_BETWEEN = sorted(verify._RADIUS_SCAN + tuple(map(_between_scan_radii, range(1, 65))))


@pytest.mark.parametrize("name", sorted(
    name for name, spec in functions._EXTREMALS.items() if spec.analytic))
def test_declared_analytic_quotients_leave_regions_for_good(name):
    # the property the guided searches rely on: the circle image of a
    # quotient declared analytic passes a region, at tolerance 0 and at the
    # region's near tolerance, up to some radius and fails at every larger
    # one.  The scan and the bisection replay verdicts at near between scan
    # radii too, so the grid holds the midpoints
    spec = functions.extremal(name)
    e = radii._circle_grid(512)[1]
    for d in _MONOTONE_REGIONS:
        for tol in (0.0, d.near):
            verdicts = [d.contains_all(spec.w_of(r * e), tol) for r in _SCAN_AND_BETWEEN]
            assert verdicts == sorted(verdicts, reverse=True), (d.describe(), tol)


def _containment_tests(monkeypatch, measure) -> int:
    # the containment tests measure() makes
    return len(_points_seen(monkeypatch, _CONTAINMENT, measure))


def test_guided_search_makes_few_containment_tests(monkeypatch):
    # a cost guard at 1024 samples: Brent's method on the excess, then the
    # bisection replayed from its verdicts, where bisecting the verdicts
    # took 23 tests for each interior radius
    phi = functions.extremal("cardioid_extremal")
    cases = [
        # a touch at the cardioid's cusp 1/2, where the lemma disk touches it
        (functions.extremal("order", alpha=0.3), CARD, 14),
        (phi, domains.make_domain("min_re", 0.3), 14),
        # a touch at the tip 5/2, where the lemma disk touches it too
        (functions.extremal("bounded_re", beta=1.5), CARD, 23),
    ]
    for spec, d, bound in cases:
        count = _containment_tests(monkeypatch, lambda: verify.subordination_radius(spec, d, 1024))
        assert count <= bound, (spec.name, d.describe(), count)
    # the whole disk fits: one test, at 1 - 1e-9
    clamped = domains.make_domain("min_re", 0.0)
    assert _containment_tests(monkeypatch, lambda: verify.subordination_radius(
        phi, clamped, 1024)) == 1


# the param-sweep families whose range is drawn from its high end, as its low
# end is not a valid parameter
_PARAM_SWEEP_FROM_HIGH_END = {("class-in-cardioid", tag)
                              for tag in ("padmanabhan", "cassinian", "bounded_re")}


def _param_sweep_searches(seed: int) -> list[tuple[FunctionSpec, domains.Domain]]:
    """The (quotient, region) of each radius search of the benchmark's
    param-sweep at this seed: one uniform draw in each eighteenth of each
    family's range, family by family."""
    rng = np.random.default_rng(seed)
    phi = functions.extremal("cardioid_extremal")
    searches = []
    for family in _PARAM_SWEEP_FAMILIES:
        direction, tag = family
        if direction == "class-in-cardioid":
            name, lo, hi = PARAM_SWEEP_CLASS_IN_CARDIOID[tag]
        else:
            region, lo, hi = PARAM_SWEEP_CARDIOID_IN_CLASS[tag]
        for j in range(18):
            x = (j + rng.uniform()) / 18
            p = hi - (hi - lo) * x if family in _PARAM_SWEEP_FROM_HIGH_END else lo + (hi - lo) * x
            searches.append((functions.extremal(tag, **{name: p}), CARD)
                            if direction == "class-in-cardioid"
                            else (phi, domains.make_domain(*region(p))))
    return searches


def test_param_sweep_searches_make_few_containment_tests(monkeypatch):
    # a cost guard: no search of the benchmark's seed-0 param-sweep, at its
    # 1024 samples, makes more containment tests than bisecting the verdicts
    # made for every interior radius
    searches = _param_sweep_searches(0)
    assert len(searches) == 234
    for spec, d in searches:
        count = _containment_tests(monkeypatch, lambda: verify.subordination_radius(spec, d, 1024))
        assert count <= 23, (spec.name, d.describe(), count)


@pytest.mark.parametrize("key", ["psum.convex", "ratio.f3.koebe"])
def test_scan_tests_each_image_once(monkeypatch, key):
    # a cost guard: a search that is not monotone (a pole quotient, a disk
    # family) tests each scan radius's image once, at near, and every
    # bisection probe makes its own image, so no image array reaches
    # contains_all twice; `seen` keeps every array alive, so no two share an id
    seen = []
    contains_all = domains.Domain.contains_all

    def counted(self, ws, *args):
        seen.append(ws)
        return contains_all(self, ws, *args)

    monkeypatch.setattr(domains.Domain, "contains_all", counted)
    entry = {e.key: e for e in radii.constants_registry()}[key]
    verify.measure_constant(entry, 512)
    assert seen and len({id(ws) for ws in seen}) == len(seen)


def test_generator_image_rows_bound_their_distance_calls(monkeypatch):
    # a cost guard: the halving probes run at tolerance 0, where a generator
    # image needs no Gauss-Newton distance; counts at 512 samples
    bounds = {"within.rational": 16, "within.nephroid": 14, "within.rational_lemniscate": 7,
              "within.sine": 8}
    rows = {e.key: e for e in radii.constants_registry()}
    distance = domains.GeneratorImageRegion._distance
    for key, bound in bounds.items():
        calls = []
        monkeypatch.setattr(domains.GeneratorImageRegion, "_distance",
                            lambda *args: calls.append(1) or distance(*args))
        verify.measure_constant(rows[key], 512)
        assert 0 < len(calls) <= bound, key


def test_disk_family_center_must_be_real_on_a_symmetric_region():
    with pytest.raises(ValueError) as exc:
        verify.disk_family_radius(lambda r: 1.0 + 0.1j * r, lambda r: r, CARD)
    assert str(exc.value) == "disk family center must be real for a mirror-symmetric region"
    # an off-axis region takes any center, on the full circle
    off_axis = domains.Disk(1.0 + 0.1j, 1.0)
    assert verify.disk_family_radius(lambda r: 1.0 + 0.1j, lambda r: r, off_axis) == 1.0


def test_half_grid_is_a_slice_of_the_full_grid():
    for n in (512, 4096):
        t, e = radii._circle_grid(n)
        th, eh = radii._circle_grid(n, half=True)
        assert len(eh) == n // 2 + 1 and abs(th[-1] - math.pi) < 1e-15
        assert np.shares_memory(th, t) and np.shares_memory(eh, e)
        assert np.array_equal(eh, e[: n // 2 + 1])
        assert not (t.flags.writeable or e.flags.writeable or eh.flags.writeable)
    with pytest.raises(ValueError, match="divisible by 4"):
        radii._circle_grid(1026)


def test_circle_grid_needs_a_positive_count():
    # an empty grid would reach a numpy reduction and fail there
    for n in (0, -4):
        for half in (False, True):
            with pytest.raises(ValueError, match="^circle sample count must be positive$"):
                radii._circle_grid(n, half)
    for measure in (verify.measured_generator_convexity, verify.measured_disk_branch_crossover,
                    lambda n: verify.INCLUSION_FAMILIES["exponential"].margin(0.3, n)):
        with pytest.raises(ValueError, match="^circle sample count must be positive$"):
            measure(0)


def test_disk_family_radius_bracket_violation_raises(monkeypatch):
    # the disk-family search certifies its bracket as the subordination search does
    center, spread = radii.ratio_disk_family(3, "koebe")
    bisect = radii.bisect_predicate
    for shift in (10 * verify.DEFAULT_TOL, -10 * verify.DEFAULT_TOL):
        monkeypatch.setattr(radii, "bisect_predicate",
                            lambda *args, shift=shift, **kw: bisect(*args, **kw) + shift)
        with pytest.raises(ArithmeticError, match="bisection bracket violated"):
            verify.disk_family_radius(center, spread, CARD)


def test_oracle_kind_is_derived_from_the_descriptor():
    # the report's method oracle:<kind> for each descriptor shape
    center, spread = radii.ratio_disk_family(3, "koebe")
    kinds = [
        (radii.Subordination(region=("min_re", 0.25)), "cardioid_into_domain"),
        (radii.Subordination("second_sum", region=("min_re", 0.0)), "quotient_into_domain"),
        (radii.Subordination("lune"), "generator_into_cardioid"),
        (radii.Subordination("order", {"alpha": 0.5}), "generator_into_cardioid"),
        (radii.Subordination("koebe"), "quotient_into_cardioid"),
        (radii.DiskFamily(center, spread, ("lune",)), "disk_family"),
        (radii.Threshold("inclusion", ("conic",)), "threshold"),
    ]
    for oracle, kind in kinds:
        assert oracle.kind == kind, oracle
    assert {e.oracle.kind for e in radii.constants_registry()
            if e.oracle is not None} == {kind for _, kind in kinds}
    # the defaults are the field defaults, and descriptors compare by value
    assert radii.Subordination() == radii.Subordination("cardioid_extremal", {}, ("cardioid",))
    # a dict of params is frozen into sorted pairs, so descriptors can key a dict
    janowski = radii.Subordination("janowski", {"B": -0.5, "A": 0.5})
    assert janowski.params == (("A", 0.5), ("B", -0.5))
    assert hash(janowski) == hash(radii.Subordination("janowski", (("B", -0.5), ("A", 0.5))))
    assert radii.DiskFamily(center, spread) == radii.DiskFamily(center, spread, ("cardioid",))
    assert radii.Threshold("max_arg") == radii.Threshold("max_arg", ())


def test_oracle_kind_validated():
    # the kind is no string to misspell: anything but a descriptor is refused
    with pytest.raises(TypeError, match="not an oracle descriptor"):
        verify._measure(("threshold", "max_arg"), 256)
    with pytest.raises(TypeError, match="not an oracle descriptor"):
        verify._measure("quotient_into_nowhere", 256)


def test_oracle_payloads_use_the_shared_keys():
    # subordination: quotient, params, region; disk family: center, spread,
    # region; threshold: name, args
    keys = {radii.Subordination: {"quotient", "params", "region"},
            radii.DiskFamily: {"center", "spread", "region"},
            radii.Threshold: {"name", "args"}}
    for entry in radii.constants_registry():
        oracle = entry.oracle
        if oracle is None:
            continue
        assert type(oracle) in keys, entry.key
        assert {f.name for f in dataclasses.fields(oracle)} == keys[type(oracle)], entry.key
        if isinstance(oracle, radii.Threshold):
            assert isinstance(oracle.name, str) and isinstance(oracle.args, tuple), entry.key
            continue
        assert isinstance(oracle.region, tuple) and isinstance(oracle.region[0], str), entry.key
        if isinstance(oracle, radii.Subordination):
            assert isinstance(oracle.quotient, str) and isinstance(oracle.params, tuple), entry.key
        else:
            assert callable(oracle.center) and callable(oracle.spread), entry.key


def test_sharpness_touch_examples():
    jan = FunctionSpec("janowski_extremal", functions.generator("janowski", A=1.0, B=-1.0))
    assert verify.sharpness_touch(jan, 1.0 / 3.0, -1.0 / 3.0, 0.5, CARD).passed
    rot = functions.extremal("ratio1_rotated")
    r1 = radii.ratio_class_radius(1, "z_over_1minusz2").value
    assert verify.sharpness_touch(rot, r1, 1j * r1, 0.5, CARD).passed
    conv = functions.extremal("second_sum_convexity")
    assert verify.sharpness_touch(conv, 0.25, -0.25, 0.0).passed
    with pytest.raises(ValueError):
        verify.sharpness_touch(jan, 0.5, -0.4, 0.5)


def test_sharpness_touch_fails_off_boundary():
    jan = FunctionSpec("janowski_extremal", functions.generator("janowski", A=1.0, B=-1.0))
    rep = verify.sharpness_touch(jan, 0.3, -0.3, 0.5, CARD)
    assert not rep.passed and rep.witness is not None


def test_convolution_membership():
    order = 32
    koebe = PowerSeries.koebe(order)
    rho0 = radii.ratio_class_radius(3, "koebe").value
    assert verify.convolution_membership_check(koebe, koebe, rho0).passed
    assert not verify.convolution_membership_check(koebe, koebe, rho0 + 0.02).passed
    half = PowerSeries.half_plane(order)
    assert verify.convolution_membership_check(f_cardioid_series(order), half, 0.5).passed
    ident = PowerSeries.identity(order)
    assert verify.convolution_membership_check(ident, koebe, 1.0).passed
    with pytest.raises(ValueError):
        verify.convolution_membership_check(koebe, koebe, 1.5)


def test_max_arg_search_stops_at_its_first_unchanged_step(monkeypatch):
    # the golden-section interval stops shrinking at step 77 of 120, so the
    # search makes 2 * 77 boundary evaluations plus one for the value
    calls = []
    phi = cardioid.eval_phi

    def counted(z):
        calls.append(z)
        return phi(z)

    monkeypatch.setattr(cardioid, "eval_phi", counted)
    assert repr(verify.measured_max_arg_order()) == "0.7412918697654987"
    assert len(calls) == 2 * 77 + 1


def test_threshold_measurements():
    assert verify.measured_max_arg_order() == pytest.approx(radii.beta_zero(), abs=1e-9)
    assert repr(verify.measured_max_arg_order()) == "0.7412918697654987"
    assert verify.measured_generator_convexity() == verify.measured_generator_convexity(512) == 0.5
    assert verify.measured_min_re_limit() == pytest.approx(0.25, abs=1e-6)
    assert verify.measured_disk_branch_crossover() == pytest.approx(
        radii.m_knot(), abs=2e-4)
    assert verify.measured_growth_lower_limit() == pytest.approx(
        math.exp(-0.75), abs=1e-12)
    assert verify.measured_series_coefficient(4) == pytest.approx(5.0 / 12.0, abs=1e-14)


def _full_circle_disk_radius(M: float, n: int = 4096) -> float:
    # reference for radii.cardioid_disk_radius: every point of the n-point circle
    e = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))

    def ok(r: float) -> bool:
        w = cardioid.eval_phi(r * e)
        return bool(np.min(M - np.abs(w - M)) > -1e-9)

    return radii.bisect_predicate(ok, 1e-4, 1.0, steps=50, scan=(1.0 - 1e-9,),
                                  floor=radii.RADIUS_FLOOR)


def test_cardioid_disk_radius_matches_full_circle():
    # the half circle gives the full circle's radius; rounding differs between
    # the mirrored halves, and Brent's method stops at another point of the
    # last bracket than 50 halvings, each worth up to about 8.9e-16
    for M in np.linspace(0.5, 1.309, 202)[1:-1]:
        assert radii.cardioid_disk_radius(M) == pytest.approx(
            _full_circle_disk_radius(M), abs=2e-15), M


def test_disk_branch_crossover_matches_full_circle(monkeypatch):
    counts = (256, 512, 1024, 4096)
    half = [verify.measured_disk_branch_crossover(n) for n in counts]
    grid = radii._circle_grid
    monkeypatch.setattr(radii, "_circle_grid", lambda n, half=False: grid(n))
    assert half == [verify.measured_disk_branch_crossover(n) for n in counts]


@pytest.mark.parametrize("n, tol", [(256, 2e-5), (512, 2e-5), (4096, 1e-6)])
def test_disk_branch_crossover_near_formula(n, tol):
    # the sampled excess is measured at the exact real-axis exit radius, so
    # the oracle approaches the tangency of the two branch formulas as the
    # grid refines
    assert abs(verify.measured_disk_branch_crossover(n) - radii.m_knot()) < tol


def test_disk_branch_crossover_is_pinned():
    assert repr(verify.measured_disk_branch_crossover()) == "1.142296543304095"


@pytest.mark.parametrize("n", [1 << 18, 1 << 12, 3000, 1000, 700, 257, 100])
def test_max_arg_coarse_to_fine_matches_full_grid(n):
    # the golden-section search over [0, pi] finds at least the maximum of
    # the n-point grid, and exceeds it by less than the square of its step
    t = np.linspace(0.0, math.pi, n)
    grid = (2.0 / math.pi) * float(np.max(np.angle(np.asarray(cardioid.eval_phi(
        np.exp(1j * t))))))
    assert 0.0 <= verify.measured_max_arg_order() - grid < (math.pi / (n - 1)) ** 2


# repr of each bracketed inclusion threshold at 256 and 4096 samples, found
# by Brent's method; the registry pin holds them at 512
INCLUSION_THRESHOLD_PINS = {
    256: {"self_centered_disk": "1.3090096220171863", "in_apollonius_disk": "0.6724180793088343",
          "conic": "1.6666666666666667", "exponential": "0.20901164655173968",
          "lemniscate": "0.4999980253411296", "cassinian": "0.7500000000161575"},
    4096: {"self_centered_disk": "1.3090169653071426", "in_apollonius_disk": "0.6725050360133785",
           "conic": "1.6666666666666667", "exponential": "0.20901164655173968",
           "lemniscate": "0.4999980253411296", "cassinian": "0.7500000000161575"},
}


@pytest.mark.parametrize("n", sorted(INCLUSION_THRESHOLD_PINS))
def test_inclusion_thresholds_pinned_bit_for_bit(n):
    got = {name: repr(fam.threshold(n)) for name, fam in verify.INCLUSION_FAMILIES.items()
           if fam.bracket}
    assert got == INCLUSION_THRESHOLD_PINS[n]


@pytest.mark.parametrize("n", [512, 4096])
def test_inclusion_thresholds_take_few_margin_evaluations(monkeypatch, n):
    # a cost guard: Brent's method finds each threshold in 10 to 13 margins,
    # where bisection took 53 to 55
    calls = []
    margin = verify._inclusion_margin
    monkeypatch.setattr(verify, "_inclusion_margin", lambda *a: calls.append(a) or margin(*a))
    for name, fam in verify.INCLUSION_FAMILIES.items():
        if fam.bracket:
            calls.clear()
            fam.threshold(n)
            assert len(calls) <= 16, (name, len(calls))


@pytest.mark.parametrize("n", [256, 512, 4096])
def test_inclusion_thresholds_match_bisection(n):
    # Brent's method and bisection of the same oriented margin agree to a
    # few ulps
    for name, fam in verify.INCLUSION_FAMILIES.items():
        if fam.bracket:
            sign = -1.0 if fam.holds_above else 1.0
            bisected = radii.bisect_sign_change(lambda p: sign * fam.margin(p, n), *fam.bracket)
            assert abs(fam.threshold(n) - bisected) <= 2e-15, name


def test_threshold_needs_a_bracket():
    for fam in verify.INCLUSION_FAMILIES.values():
        if fam.bracket is None:
            with pytest.raises(ValueError, match="no threshold bracket"):
                fam.threshold(512)


@pytest.mark.parametrize("family, p", [("exponential", 0.3), ("lemniscate", 0.5),
                                       ("cassinian", 0.75)])
def test_inclusion_margin_reads_the_grid_points(monkeypatch, family, p):
    # a cost guard: the inner boundary is read from the grid's own points,
    # so no bisection step exponentiates the angles again
    seen = []
    boundary = domains.Domain.boundary

    def recorded(self, t, e=None):
        seen.append(e)
        return boundary(self, t, e)

    monkeypatch.setattr(domains.Domain, "boundary", recorded)
    for n in (256, 512):
        seen.clear()
        verify.INCLUSION_FAMILIES[family].margin(p, n)
        assert len(seen) == 1 and seen[0] is radii._circle_grid(n, True)[1]


def test_inclusion_thresholds_match_registry():
    # every inclusion family with a threshold oracle, against its registry row
    rows = {e.oracle.args[0]: e for e in radii.constants_registry()
            if isinstance(e.oracle, radii.Threshold) and e.oracle.name == "inclusion"}
    with_oracle = {name for name, fam in verify.INCLUSION_FAMILIES.items() if fam.bracket}
    assert set(rows) == with_oracle
    for name, entry in rows.items():
        measured = verify.INCLUSION_FAMILIES[name].threshold(4096)
        assert measured == pytest.approx(entry.value, abs=1e-5), name
        assert verify.measure_constant(entry, 4096) == measured, name


def test_each_distinct_oracle_measured_once_per_invocation(monkeypatch):
    # `verify` calls measure_constant once per registry row (the benchmark's
    # operations) but measures each distinct descriptor once: the rows with
    # equal descriptors and the partial-sum suite read the first measurement.
    # Nothing is kept across invocations, so a second one measures again
    rows, measured = [], []
    measure_constant, measure = verify.measure_constant, verify._measure
    monkeypatch.setattr(verify, "measure_constant",
                        lambda entry, *a: rows.append(entry.key) or measure_constant(entry, *a))
    monkeypatch.setattr(verify, "_measure",
                        lambda oracle, n: measured.append(oracle) or measure(oracle, n))
    registry = [e for e in radii.constants_registry() if e.oracle is not None]
    distinct = {e.oracle for e in registry}
    # 3 pairs of rows share a descriptor; the suite's 4 rows are registry rows
    assert len(registry) == 73 and len(distinct) == 70
    for invocation in (1, 2):
        reports = verify.run_all_suites(512)
        assert all(r.passed or r.flags for r in reports)
        assert rows == [e.key for e in registry] * invocation
        assert len(measured) == 70 * invocation and set(measured) == distinct
    # `constants` measures each distinct descriptor once too
    rows.clear()
    measured.clear()
    cli.constants_table(512, "text", True)
    assert len(rows) == 73 and len(measured) == 70 and set(measured) == distinct


def test_verify_constants_subset_quick():
    keys = ("of.sine", "of.nephroid", "within.ram_singh", "ratio.f1.z",
            "incl.exponential", "within.janowski_M_low")
    reports = verify.verify_all_constants(1024, keys=keys)
    assert len(reports) == len(keys)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("samples", [256, 512, 4096])
def test_agreement_gate_catches_each_shifted_formula(samples, monkeypatch):
    # a formula value moved by 6e-4, 3x the gate, either way fails its own
    # row and no other; each oracle runs once, and the shifted runs reuse
    # its value
    registry = radii.constants_registry()
    measured = {e.key: verify.measure_constant(e, samples) for e in registry if e.oracle}
    monkeypatch.setattr(verify, "measure_constant", lambda entry, n, *_: measured[entry.key])
    assert all(r.passed for r in verify.verify_all_constants(samples))
    shift = 6e-4
    for i, entry in enumerate(registry):
        if entry.oracle is None:
            continue
        for sign in (1.0, -1.0):
            moved = dataclasses.replace(entry, value=entry.value + sign * shift)
            shifted = registry[:i] + (moved,) + registry[i + 1:]
            monkeypatch.setattr(radii, "constants_registry", lambda: shifted)
            failed = [r.claim for r in verify.verify_all_constants(samples) if not r.passed]
            assert failed == [verify._row_claim(entry)], (entry.key, sign)


def test_report_requires_witness_on_fail():
    with pytest.raises(ValueError):
        verify.VerificationReport("c", "m", 1, "fail")
    with pytest.raises(ValueError):
        verify.VerificationReport("c", "m", 1, "maybe")


def test_sampling_density_convergence():
    # doubling the sample count moves reported radii by less than 5e-4
    keys = ("of.cassinian", "of.lemniscate", "of.exponential", "of.rational_lemniscate",
            "of.cardioid_wide", "of.limacon", "of.lune", "of.sine", "of.nephroid",
            "within.sine")
    entries = {e.key: e for e in radii.constants_registry()}
    for key in keys:
        a = verify.measure_constant(entries[key], 2048)
        b = verify.measure_constant(entries[key], 4096)
        assert abs(a - b) < 5e-4, key


def test_apollonius_positivity_validates_tangency_radius():
    # the cardioid image of |z| <= r fits the Apollonius disk
    # |(w-1)/(w+1)| < alpha up to the formula value and no further, by the
    # oracle of the registry row within.padmanabhan
    quotient = functions.extremal("cardioid_extremal")
    for alpha in np.linspace(0.1, radii.alpha_knot() - 0.01, 10):
        r = radii.w_alpha(float(alpha))
        oracle = radii.class_spec("within", "padmanabhan").oracle_at(float(alpha))
        disk = domains.make_domain(*oracle.region)
        assert verify.image_in_domain(quotient, r, disk).passed, alpha
        assert verify.image_in_domain(quotient, r - 2e-3, disk).passed, alpha
        assert not verify.image_in_domain(quotient, r + 2e-3, disk).passed, alpha
    # the formula divides by sqrt(1 - a^2) at a = 1, where the class's
    # radius is already capped at 1 (from alpha_knot on)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            radii.w_alpha(alpha)


def test_shifted_lemniscate_direct_subordination_radius():
    # the constants note on the shifted lemniscate compares the registry's
    # 0.253734 with the direct subordination radius of the cardioid
    # extremal, about 0.2601
    r = verify.subordination_radius(functions.extremal("cardioid_extremal"),
                                    domains.make_domain("rational_lemniscate"), n=4096)
    assert r == pytest.approx(0.2601, abs=1e-4)
    assert r > 0.253734


def test_reports_to_csv():
    # the command line's one CSV writer; a comma inside a claim becomes ';'
    # and flags join with '|', so every row keeps the header's seven columns
    reports = verify.partial_sum_suite(1024)
    reports.append(dataclasses.replace(reports[0], claim="a claim, with a comma",
                                       flags=("formula-suspect", "published-decimal-mismatch")))
    lines = cli.reports_table(reports, "csv").strip().splitlines()
    assert lines[0].startswith("claim,method,samples,verdict")
    assert len(lines) == len(reports) + 1
    assert {len(line.split(",")) for line in lines} == {7}
    assert lines[-1].startswith("a claim; with a comma,")
    assert lines[-1].endswith(",formula-suspect|published-decimal-mismatch")


def test_inclusion_suite_passes():
    reports = verify.inclusion_suite(2048)
    assert len(reports) >= 13
    assert all(r.passed for r in reports), [r.claim for r in reports if not r.passed]


def refuse_horner(monkeypatch):
    # a cost guard: the claim suites evaluate series on the circle grid by
    # FFT (`series.circle_log_derivative`), never point by point
    def refuse(*args, **kwargs):
        raise AssertionError("Horner evaluation on a circle grid")

    monkeypatch.setattr(PowerSeries, "eval", refuse)
    monkeypatch.setattr(PowerSeries, "eval_derivative", refuse)


def test_coefficient_suite_passes(monkeypatch):
    refuse_horner(monkeypatch)
    (report,) = verify.coefficient_suite(seed=1, samples=1024)
    assert report.passed


def test_partial_sum_suite_passes(monkeypatch):
    # the suite measures the registry's psum rows, but not through
    # measure_constant, whose calls are the registry-row operations
    def refuse(*args, **kwargs):
        raise AssertionError("measure_constant called by a claim suite")

    monkeypatch.setattr(verify, "measure_constant", refuse)
    reports = verify.partial_sum_suite(2048)
    assert all(r.passed for r in reports)


def test_convolution_suite_passes(monkeypatch):
    refuse_horner(monkeypatch)
    reports = verify.convolution_suite(1024)
    assert all(r.passed for r in reports)


def test_truncation_guard_flag():
    # a heavy-tailed series at high test radius trips the truncation flag
    f = PowerSeries(tuple(float((n + 1) ** 2) for n in range(8)))
    g = PowerSeries.half_plane(8)
    f = PowerSeries((1.0,) + f.coeffs[1:])
    rep = verify.convolution_membership_check(f, g, 1.0, n=512)
    assert "truncation-limited" in rep.flags
