"""Oracle machinery: containment sampling, bisection, sharpness, suites."""

import math

import numpy as np
import pytest

from cardstar import cardioid, domains, functions, radii, verify
from cardstar.functions import FunctionSpec
from cardstar.series import PowerSeries, f_cardioid_series

CARD = domains.CardioidDomain()
SQRT2 = math.sqrt(2.0)


def test_image_in_domain_sharp_radius_passes():
    spec = functions.extremal("cardioid_wide")
    assert verify.image_in_domain(spec, 0.5, CARD).passed
    rep = verify.image_in_domain(spec, 0.51, CARD)
    assert not rep.passed
    assert rep.witness is not None
    # the exit happens near the left extreme of the image
    assert abs(rep.witness - 0.5) < 0.05


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


def test_disk_family_radius_bracket_violation_raises(monkeypatch):
    # the disk-family search certifies its bracket as the subordination search does
    center, spread = radii.ratio_disk_family(3, "koebe")
    bisect = radii.bisect_predicate
    for shift in (10 * verify.DEFAULT_TOL, -10 * verify.DEFAULT_TOL):
        monkeypatch.setattr(radii, "bisect_predicate",
                            lambda *args, shift=shift, **kw: bisect(*args, **kw) + shift)
        with pytest.raises(ArithmeticError, match="bisection bracket violated"):
            verify.disk_family_radius(center, spread, CARD)


def test_oracle_kind_validated():
    with pytest.raises(ValueError, match="unknown oracle kind"):
        radii.OracleSpec("quotient_into_nowhere", {"quotient": "koebe"})


def test_oracle_payloads_use_the_shared_keys():
    # subordination kinds: quotient, params, region; disk_family: center,
    # spread, region; threshold: name, args
    keys = {"disk_family": {"center", "spread", "region"}, "threshold": {"name", "args"}}
    for entry in radii.constants_registry():
        if entry.oracle is not None:
            allowed = keys.get(entry.oracle.kind, {"quotient", "params", "region"})
            assert set(entry.oracle.payload) <= allowed, entry.key


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
    rho0 = radii.convolution_radii()["starlike_pair"]
    assert verify.convolution_membership_check(koebe, koebe, rho0).passed
    assert not verify.convolution_membership_check(koebe, koebe, rho0 + 0.02).passed
    half = PowerSeries.half_plane(order)
    assert verify.convolution_membership_check(f_cardioid_series(order), half, 0.5).passed
    ident = PowerSeries.identity(order)
    assert verify.convolution_membership_check(ident, koebe, 1.0).passed
    with pytest.raises(ValueError):
        verify.convolution_membership_check(koebe, koebe, 1.5)


def test_threshold_measurements():
    assert verify.measured_max_arg_order() == pytest.approx(radii.beta_zero(), abs=1e-9)
    assert verify.measured_generator_convexity_radius() == pytest.approx(0.5, abs=1e-6)
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


@pytest.mark.parametrize("n", [4096, 8192])
def test_cardioid_disk_radius_matches_full_circle(n):
    # the half circle gives the full circle's radius; rounding differs between
    # the mirrored halves, which can move the result by one 8.9e-16 bisection step
    for M in np.linspace(0.5, 1.309, 202)[1:-1]:
        assert radii.cardioid_disk_radius(M, n) == pytest.approx(
            _full_circle_disk_radius(M, n), abs=2e-15), M


def test_disk_branch_crossover_matches_full_circle(monkeypatch):
    fast = verify.measured_disk_branch_crossover()
    monkeypatch.setattr(radii, "cardioid_disk_radius", _full_circle_disk_radius)
    assert fast == verify.measured_disk_branch_crossover()


def _half_grid_disk_radius(M: float, n: int = 4096) -> float:
    # reference for the windowed probes: every point of the half grid
    e = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)[: n // 2 + 1])
    z, w, sq, dist = np.empty_like(e), np.empty_like(e), np.empty_like(e), np.empty(e.shape)

    def ok(r: float) -> bool:
        np.multiply(r, e, out=z)
        np.add(1.0, z, out=w)
        np.multiply(0.5, z, out=sq)
        np.multiply(sq, z, out=sq)
        np.add(w, sq, out=w)
        np.subtract(w, M, out=w)
        np.abs(w, out=dist)
        return bool(M - dist.max() > -1e-9)

    return radii.bisect_predicate(ok, 1e-4, 1.0, steps=50, scan=(1.0 - 1e-9,),
                                  floor=radii.RADIUS_FLOOR)


def _full_grid_touch_angle(M: float, n: int) -> float:
    # reference for verify._disk_touch_angle: argmin over the whole half grid
    r = radii.cardioid_disk_radius(M, n)
    t = np.linspace(0.0, math.pi, n // 2 + 1)
    w = cardioid.eval_phi(r * np.exp(1j * t))
    return float(t[int(np.argmin(M - np.abs(w - M)))])


# across the valid range, densely where the quadratic in cos t changes from
# convex to concave (M = 1) and around the branch crossover
_WINDOW_TEST_M = [*np.linspace(0.5, 1.309, 32)[1:-1],
                  *(1.0 + np.linspace(-1e-3, 1e-3, 21)), 1.0 - 1e-12, 1.0 + 1e-12,
                  *np.linspace(1.13, 1.15, 21)]


@pytest.mark.parametrize("n", [512, 1024, 4096, 8192])
def test_windowed_disk_probe_matches_half_grid(n):
    for M in _WINDOW_TEST_M:
        assert radii.cardioid_disk_radius(M, n) == _half_grid_disk_radius(M, n), M
        if M > 1.0:
            assert verify._disk_touch_angle(M, n) == _full_grid_touch_angle(M, n), M


def test_disk_branch_crossover_is_pinned():
    assert repr(verify.measured_disk_branch_crossover()) == "1.1423205942754318"


@pytest.mark.parametrize("n", [1 << 18, 1 << 12, 3000, 1000, 700, 257, 100])
def test_max_arg_coarse_to_fine_matches_full_grid(n):
    t = np.linspace(0.0, math.pi, n)
    assert verify._unimodal_argmax(verify._boundary_arg, t) == int(np.argmax(
        np.angle(np.asarray(cardioid.eval_phi(np.exp(1j * t))))))


def test_inclusion_thresholds_match_registry():
    # every inclusion family with a threshold oracle, against its registry row
    rows = {e.oracle.payload["args"][0]: e for e in radii.constants_registry()
            if e.oracle is not None and e.oracle.payload.get("name") == "inclusion"}
    with_oracle = {name for name, fam in verify.INCLUSION_FAMILIES.items() if fam.bracket}
    assert set(rows) == with_oracle
    for name, entry in rows.items():
        measured = verify.INCLUSION_FAMILIES[name].threshold(4096)
        assert measured == pytest.approx(entry.value, abs=1e-5), name
        assert verify.measure_constant(entry, 4096) == measured, name


def test_verify_constants_subset_quick():
    keys = ("of.sine", "of.nephroid", "within.ram_singh", "ratio.f1.z",
            "incl.exponential", "within.janowski_M_low")
    reports = verify.verify_all_constants(1024, keys=keys)
    assert len(reports) == len(keys)
    assert all(r.passed for r in reports)


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
    # the bivariate positivity margin changes sign exactly at the formula value
    for alpha in np.linspace(0.1, radii.alpha_knot() - 0.01, 10):
        r = radii.w_alpha(float(alpha))
        assert verify.apollonius_positivity_margin(alpha, r) > -1e-8
        assert verify.apollonius_positivity_margin(alpha, r - 2e-3) > 0
        assert verify.apollonius_positivity_margin(alpha, r + 2e-3) < 0
    with pytest.raises(ValueError):
        verify.apollonius_positivity_margin(0.0, 0.5)


def test_reports_to_csv():
    reports = verify.partial_sum_suite(1024)
    text = verify.reports_to_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("claim,method,samples,verdict")
    assert len(lines) == len(reports) + 1


def test_inclusion_suite_passes():
    reports = verify.inclusion_suite(2048)
    assert len(reports) >= 13
    assert all(r.passed for r in reports), [r.claim for r in reports if not r.passed]


def test_coefficient_suite_passes():
    (report,) = verify.coefficient_suite(seed=1, count=40, samples=1024)
    assert report.passed


def test_partial_sum_suite_passes(monkeypatch):
    # the suite measures the registry's psum rows, but not through
    # measure_constant, whose calls are the registry-row operations
    def refuse(*args, **kwargs):
        raise AssertionError("measure_constant called by a claim suite")

    monkeypatch.setattr(verify, "measure_constant", refuse)
    reports = verify.partial_sum_suite(2048)
    assert all(r.passed for r in reports)


def test_convolution_suite_passes():
    reports = verify.convolution_suite(1024)
    assert all(r.passed for r in reports)


def test_truncation_guard_flag():
    # a heavy-tailed series at high test radius trips the truncation flag
    f = PowerSeries(tuple(float((n + 1) ** 2) for n in range(8)))
    g = PowerSeries.half_plane(8)
    f = PowerSeries((1.0,) + f.coeffs[1:])
    rep = verify.convolution_membership_check(f, g, 1.0, n=512, r_test=0.999)
    assert "truncation-limited" in rep.flags
