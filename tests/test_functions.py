"""Generator and extremal registries, partial sums, growth bounds."""

import cmath
import inspect
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardstar import domains, functions, radii
from cardstar.functions import (
    FunctionSpec,
    extremal,
    generator,
    monomial_image_disk,
    sine_integral_series,
)
from cardstar.series import PowerSeries, circle_log_derivative, f_cardioid_series


def test_generators_normalized_at_origin():
    for name in functions._GENERATORS:
        psi = generator(name)
        assert abs(complex(psi(0j)) - 1.0) < 1e-14, name
        if name == "cosh":
            continue  # even map, derivative vanishes at 0; image still valid
        # psi'(0) > 0 by central finite difference
        h = 1e-6
        d = (complex(psi(h + 0j)) - complex(psi(-h + 0j))) / (2 * h)
        assert d.real > 0 and abs(d.imag) < 1e-9, name


def test_extremals_normalized_at_origin():
    # every registered quotient, the generator kinds included
    for name in functions._EXTREMALS:
        w = extremal(name).w_of
        assert abs(complex(np.asarray(w(0j)).reshape(())) - 1.0) < 1e-14, name


def test_generator_boundaries_match_region_boundaries():
    t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    for kind in ("nephroid", "limacon", "lune", "sine", "rational",
                 "rational_lemniscate", "cardioid_wide"):
        d = domains.make_domain(kind)
        curve = generator(kind)(np.exp(1j * t))
        assert np.max(np.abs(curve - np.asarray(d.boundary(t)))) < 1e-9, kind


def test_corollary_generators_match_their_closed_forms():
    # the order, [1-a, 0] and [a, -a] generators read their (A, B) maps; on
    # the closed disk they equal the closed forms exactly, poles included
    z = np.concatenate([np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False)), [0.3j]])
    for a in (0.0, 0.25, 0.5, 0.9, 1.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            cases = [(generator("order", alpha=a)(z), (1.0 + (1.0 - 2.0 * a) * z) / (1.0 - z)),
                     (generator("ram_singh", alpha=a)(z), 1.0 + (1.0 - a) * z),
                     (generator("padmanabhan", alpha=a)(z), (1.0 + a * z) / (1.0 - a * z))]
        for got, want in cases:
            assert np.array_equal(got, want, equal_nan=True), a
    assert generator("padmanabhan")(0.5) == 3.0 and generator("ram_singh")(0.5) == 1.5


def test_extremal_w_of_values():
    assert extremal("cardioid_extremal").w_of(-1.0 / 3.0) == pytest.approx(13.0 / 18.0)
    # bounded-turning extremal at its sharp point
    w = extremal("bounded_re_extremal", beta=2.0).w_of(0.2)
    assert complex(w) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        extremal("no_such_function").w_of(0.1)


def test_extremal_rejects_unknown_keyword_at_lookup():
    for name, params in [("koebe", {"beta": 2.0}), ("sine", {"alpha": 0.5})]:
        with pytest.raises(ValueError) as exc:
            extremal(name, **params)
        assert str(exc.value) == f"extremal {name!r} has no parameter {next(iter(params))!r}"
    # the keywords a quotient does take still bind
    assert complex(extremal("booth", alpha=0.5).w_of(0.0)) == 1.0
    assert complex(extremal("bounded_re_extremal", beta=3.0).w_of(1.0 / 9.0)) == pytest.approx(0.5)


_ROTATED = {f"ratio{i}_rotated" for i in functions.RATIO_P}


def test_real_declarations():
    # every table row is real but the quotients rotated by eps = i
    assert {name for name, spec in functions._EXTREMALS.items() if not spec.real} == _ROTATED
    # a lookup keeps the declaration, as every parameter is real, and an ad
    # hoc spec is not declared real
    assert extremal("janowski", A=1, B=-0.5).real
    assert extremal("exponential", alpha=np.float64(0.2)).real
    for A in (0.5 + 0.1j, 0.5 + 0j):
        with pytest.raises(ValueError, match="^parameter A of extremal 'janowski' must be real$"):
            extremal("janowski", A=A, B=0.0)
    assert not FunctionSpec("adhoc", lambda z: z, singularity=math.inf).real


def test_singularity_declarations():
    # every table row has its nearest singularity on or off the unit circle
    # but the two quotients with a pole at -1/2
    assert {name: spec.singularity for name, spec in functions._EXTREMALS.items()
            if spec.singularity < 1.0} == {"second_sum_convexity": 0.5, "koebe_second_sum": 0.5}
    # a lookup declares the modulus at its parameters
    assert extremal("booth", alpha=0.25).singularity == 2.0
    assert extremal("booth", alpha=0.0).singularity == math.inf
    assert extremal("cassinian", c=0.5).singularity == 2.0
    assert extremal("janowski", A=1.0, B=-0.5).singularity == 2.0
    assert extremal("janowski", A=0.5, B=0.0).singularity == math.inf
    assert extremal("janowski", A=0.5).singularity == 1.0
    assert extremal("padmanabhan", alpha=0.5).singularity == 2.0
    assert extremal("bounded_re", beta=40.0).singularity == 1.0
    # the declaration has no default
    with pytest.raises(TypeError, match="singularity"):
        FunctionSpec("adhoc", lambda z: z)
    # a modulus that moves with the parameters has its generator's defaults
    for name, modulus in functions._GENERATOR_SINGULARITY.items():
        if callable(modulus):
            declared = inspect.signature(modulus).parameters
            own = list(inspect.signature(functions._GENERATORS[name]).parameters.values())[1:]
            assert [(p.name, p.default) for p in declared.values()] == [
                (p.name, p.default) for p in own], name


def _circle_moments(w_of, s: float) -> np.ndarray:
    # |mean of w(s e^{it}) e^{ikt}| for k = 1 to 4 on 4096 points: (1/2 pi i)
    # times the integral of w(z) z^(k-1) dz over |z| = s, scaled, which is 0
    # up to rounding when w is analytic on the closed disk and is the sum of
    # the residues of w z^(k-1) inside when its only singularities are poles
    e = np.exp(2j * math.pi * np.arange(4096) / 4096)
    w = np.asarray(w_of(s * e))
    return np.abs([np.mean(w * e**k) for k in range(1, 5)])


_SINGULAR_LOOKUPS = [("booth", {"alpha": 0.25}), ("booth", {"alpha": 0.81}),
                     ("cassinian", {"c": 0.5}), ("janowski", {"A": 1.0, "B": 0.5}),
                     ("janowski", {"A": 0.5, "B": -0.25}), ("padmanabhan", {"alpha": 0.5})]


@pytest.mark.parametrize("name, params", [(name, {}) for name in functions._EXTREMALS]
                         + _SINGULAR_LOOKUPS)
def test_declared_singularity_is_the_nearest(name, params):
    # w is analytic on a disk just inside its declared modulus (or of radius
    # 1.485 where that is larger), and not on one a tenth larger: a branch
    # cut that reaches only a tenth inside the circle moves the moments by
    # 1.8e-3 (rational_lemniscate) to 1.7e-2 (lune), a pole by about 1
    spec = extremal(name, **params)
    assert max(_circle_moments(spec.w_of, 0.99 * min(spec.singularity, 1.5))) < 1e-9
    if spec.singularity < math.inf:
        assert max(_circle_moments(spec.w_of, 1.1 * spec.singularity)) > 1e-3


def test_extremal_checks_parameter_ranges():
    # a parameter outside the closed range of its kind raises the kind's
    # message, the one make_domain gives for the same kind, or the range of
    # the corollary's class; janowski's pair is checked as its disks are
    for name, params, message in [
            ("booth", {"alpha": 2.0}, "Booth-curve parameter must lie in [0, 1)"),
            ("cassinian", {"c": 4.0}, "Cassinian parameter must lie in (0, 1]"),
            ("order", {"alpha": 1.5}, "order parameter must lie in [0, 1)"),
            ("bounded_re_extremal", {"beta": 0.5}, "bounded-real-part parameter must exceed 1"),
            ("ram_singh", {"alpha": -0.1}, "parameter must lie in [0, 1)"),
            ("padmanabhan", {"alpha": 1.5}, "parameter must lie in (0, 1]"),
            ("janowski", {"B": -2.0}, "need -1 <= B < A <= 1"),
            ("janowski", {"A": 0.5, "B": 0.5}, "need -1 <= B < A <= 1"),
            ("booth", {"alpha": math.nan}, "parameter alpha of extremal 'booth' must be finite"),
            ("exponential", {"alpha": math.inf},
             "parameter alpha of extremal 'exponential' must be finite"),
            ("janowski", {"B": math.nan}, "need -1 <= B < A <= 1")]:
        with pytest.raises(ValueError) as exc:
            extremal(name, **params)
        assert str(exc.value) == message, (name, params)
    # the ends of each range are taken, open or not: there the quotient is
    # the family's limit, the constant 1 or, for Booth at 1, poles on the
    # unit circle, and its singularity stays off the open disk
    for name, param in domains.QUOTIENT_PARAMETERS.items():
        lo, hi = param.ends
        for p in (lo, min(hi, 1e6)):
            assert extremal(name, **{param.name: p}).singularity >= 1.0, (name, p)
        for p in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            if math.isfinite(p):
                with pytest.raises(ValueError, match="^" + re.escape(param.error) + "$"):
                    extremal(name, **{param.name: p})
    assert extremal("padmanabhan", alpha=0.0).w_of(0.5) == 1.0
    assert extremal("order", alpha=1.0).w_of(0.5) == 1.0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(r=st.sampled_from([0.3, 0.7, 0.95]), t=st.floats(0.0, 2.0 * math.pi))
def test_real_extremals_commute_with_conjugation(r, t):
    # w(conj z) = conj w(z) to within an ulp for every row declared real; a
    # rotated row misses it by far more
    z = r * cmath.exp(1j * t)
    for name, spec in functions._EXTREMALS.items():
        w = complex(np.asarray(spec.w_of(z)))
        gap = abs(complex(np.asarray(spec.w_of(z.conjugate()))) - w.conjugate())
        if spec.real:
            assert gap <= sys.float_info.epsilon * max(abs(w), 1.0), (name, z)
        else:
            assert gap > 1e-3, (name, z)


def test_monomial_quotient_image_disk():
    # quotient z f'/f of f = z + a z^2 at a = 1/3
    z = np.exp(1j * np.linspace(0, 2 * math.pi, 512, endpoint=False)) * 0.99999
    vals = (1.0 + 2.0 * z / 3.0) / (1.0 + z / 3.0)
    d = monomial_image_disk(2, 1.0 / 3.0)
    assert d.center == pytest.approx(7.0 / 8.0)
    assert d.radius == pytest.approx(3.0 / 8.0)
    assert np.max(np.abs(vals - d.center)) < d.radius + 1e-4


def test_monomial_image_disk_values():
    d = monomial_image_disk(3, 0.2)
    assert d.center == pytest.approx(11.0 / 12.0)
    assert d.radius == pytest.approx(5.0 / 12.0)
    d = monomial_image_disk(2, 0.0)
    assert d.center == 1.0 and d.radius == 0.0
    with pytest.raises(ValueError):
        monomial_image_disk(2, 1.0)
    with pytest.raises(ValueError):
        monomial_image_disk(1, 0.5)


def test_monomial_boundary_tangency():
    # at the critical coefficient the image disk is internally tangent to the
    # region boundary at 1/2
    for n in range(2, 9):
        a = 1.0 / (2 * n - 1)
        d = monomial_image_disk(n, a)
        assert abs((d.center - d.radius) - 0.5) < 1e-12


def test_growth_bounds_attained_by_extremal_series():
    # on |z| = r every member has r e^{-r + r^2/4} <= |f| <= r e^{r + r^2/4};
    # f = z exp(z + z^2/4) attains both, at z = -r and z = r
    f = f_cardioid_series(64)
    t = np.linspace(0, 2 * math.pi, 512, endpoint=False)
    for r in (1e-12, 0.5, 0.9, 1.0 - 1e-12):
        moduli = np.abs(f.eval(r * np.exp(1j * t)))
        assert moduli.min() == pytest.approx(r * math.exp(-r + 0.25 * r * r), rel=1e-12)
        assert moduli.max() == pytest.approx(r * math.exp(r + 0.25 * r * r), rel=1e-12)
    # the r -> 1 lower bound is the radius of the covered disk
    rows = {e.key: e for e in radii.constants_registry()}
    assert rows["growth.inner_disk"].value == math.exp(-0.75)


def test_series_and_closed_form_quotients_agree():
    # the order-64 series on the 64-point grid also exercise the folding of
    # the degree-64 term onto degree 0
    z = 0.5 * np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
    cases = [
        (f_cardioid_series(32), extremal("cardioid_extremal")),
        (PowerSeries.koebe(64), extremal("koebe")),
        (PowerSeries.half_plane(64), extremal("half_plane")),
        (PowerSeries.koebe(64).hadamard(PowerSeries.koebe(64)), extremal("ratio3_koebe")),
        (PowerSeries((1.0, 1.0)), extremal("second_sum")),
    ]
    for series_f, spec in cases:
        got = circle_log_derivative(series_f.coeffs, 0.5, 64)
        want = np.asarray(spec.w_of(z))
        assert np.max(np.abs(got - want)) < 1e-8, spec.name


def test_sine_integral_series_head():
    f = sine_integral_series(6)
    assert f.coeffs[0] == pytest.approx(1.0)
    assert f.coeffs[1] == pytest.approx(1.0)
    assert f.coeffs[2] == pytest.approx(0.5)
    # the displayed fourth coefficient 1/9 agrees with the series construction
    assert f.coeffs[3] == pytest.approx(1.0 / 9.0, abs=1e-14)


def test_ratio_extremal_formulas_from_stated_products():
    # spot-check two registered quotient formulas against log-differentiation
    z = 0.3 * np.exp(1j * np.linspace(0.1, 2 * math.pi, 7))

    def quotient(f, z, h=1e-7):
        return z * (f(z + h) - f(z - h)) / (2 * h) / f(z)

    f1 = lambda zz: zz * (1 + zz) ** 2 / (1 - zz) ** 2
    got = np.asarray(extremal("ratio1_z").w_of(z))
    want = np.array([quotient(f1, complex(v)) for v in z])
    assert np.max(np.abs(got - want)) < 1e-6

    f2 = lambda zz: (1 + zz) ** 2 * (zz + zz * zz / 2) / (1 - zz)
    got = np.asarray(extremal("ratio2_half_square").w_of(z))
    want = np.array([quotient(f2, complex(v)) for v in z])
    assert np.max(np.abs(got - want)) < 1e-6

    f3 = lambda zz: zz * (1 + 1j * zz) ** 2 / ((1 - zz * zz) * (1 - 1j * zz) ** 2)
    got = np.asarray(extremal("ratio1_rotated").w_of(z))
    want = np.array([quotient(f3, complex(v)) for v in z])
    assert np.max(np.abs(got - want)) < 1e-6


def test_lune_corners():
    # the corners +-i are hit exactly; at fl(pi/2) the image is the true one
    # of that rounded parameter, which psi' (infinite at the corner) moves by
    # sqrt(delta)(1 + i), delta = cos(fl(pi/2)) ~ 6.1e-17
    lune = generator("lune")
    assert complex(lune(1j)) == 1j
    assert complex(lune(-1j)) == -1j
    delta = math.cos(math.pi / 2.0)
    assert 6e-17 < delta < 6.2e-17
    w = complex(lune(np.exp(1j * math.pi / 2.0)))
    assert abs(w - (1j + math.sqrt(delta) * (1.0 + 1j))) < 1e-15


def test_unknown_generator_raises():
    with pytest.raises(ValueError):
        generator("spiral")

