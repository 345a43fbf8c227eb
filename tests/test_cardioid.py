"""The generator, its image region, circle extrema and inscribed disks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardstar import cardioid, radii


def test_generator_values():
    assert cardioid.eval_phi(0.0) == 1.0
    assert cardioid.eval_phi(-1.0) == 0.5
    assert cardioid.eval_phi(1.0) == 2.5


def test_min_re_knot_and_values():
    left = 1.0 - 0.5 + 0.125
    right = (3.0 - 0.5) / 4.0
    assert abs(left - right) < 1e-15
    assert cardioid.min_re_on_circle(0.5) == pytest.approx(0.625)
    assert cardioid.min_re_on_circle(1.0 - 1e-12) == pytest.approx(0.25, abs=1e-11)
    assert cardioid.min_re_on_circle(0.1) == pytest.approx(0.905)


def test_min_re_against_dense_sampling():
    t = np.linspace(0, 2 * math.pi, 1_000_000)
    for r in (0.1, 0.5):
        sampled = float(np.min(np.asarray(cardioid.eval_phi(r * np.exp(1j * t))).real))
        assert abs(sampled - cardioid.min_re_on_circle(r)) < 1e-9


def test_max_re_values():
    assert cardioid.max_re_on_circle(1.0) == pytest.approx(2.5)
    assert cardioid.max_re_on_circle(1e-12) == pytest.approx(1.0)
    assert cardioid.max_re_on_circle(0.3) == pytest.approx(1.345)


def test_circle_extrema_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            cardioid.min_re_on_circle(bad)
    for bad in (0.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            cardioid.max_re_on_circle(bad)


def test_membership_verdicts():
    v = cardioid.contains(1.0)
    assert v.verdict == "inside" and v.preimage == 0.0
    v = cardioid.contains(0.5)
    assert v.verdict == "boundary" and v.near_cusp
    assert abs(v.preimage_modulus - 1.0) < 1e-12
    v = cardioid.contains(3.0)
    assert v.verdict == "outside"
    assert not cardioid.contains_implicit(3.0 + 0j)


def test_implicit_quartic_values():
    assert cardioid.implicit_value(1.0, 0.0) == pytest.approx(-3.0)
    assert cardioid.implicit_value(0.5, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert not cardioid.contains_implicit(0.5 + 0j)
    assert not cardioid.contains_implicit(-1.0 + 0j)
    assert cardioid.implicit_value(-1.0, 0.0) > 0


def test_preimage_and_implicit_agree_on_grid():
    xs = np.linspace(-0.5, 3.0, 200)
    ys = np.linspace(-1.75, 1.75, 200)
    X, Y = np.meshgrid(xs, ys)
    F = cardioid.implicit_value(X, Y)
    W = X + 1j * Y
    margin = cardioid.preimage_margin(W)
    mask = np.abs(F) > 1e-6
    assert np.array_equal((F < 0)[mask], (margin > 0)[mask])


def two_root_preimage(w: complex) -> complex:
    """The root of least modulus, chosen from both roots -1 +- sqrt(2w - 1)
    (the first on a tie), as `contains` chose it before it took the one
    root: the reference for the one-root formula."""
    s = np.sqrt(2.0 * w - 1.0)
    r1, r2 = -1.0 + s, -1.0 - s
    return r1 if abs(r1) <= abs(r2) else r2


def two_root_margin(w):
    """1 - min |root| over both roots, vectorized, as `preimage_margin`
    computed it before it took the one root."""
    s = np.sqrt(2.0 * np.asarray(w, dtype=complex) - 1.0)
    return 1.0 - np.minimum(np.abs(-1.0 + s), np.abs(-1.0 - s))


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


_REALS = st.floats(allow_nan=True, allow_infinity=True)
_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_POINTS = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    # random points at scales 1e-12 to 1e8
    st.builds(lambda x, y, e: complex(x * 10.0 ** e, y * 10.0 ** e),
              st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(-12, 8)),
    st.builds(complex, _REALS, _SIGNED_ZERO),          # the real axis
    st.builds(complex, _SIGNED_ZERO, _REALS),          # the imaginary axis
    st.builds(lambda d: 0.5 + d, st.complex_numbers(max_magnitude=1e-6)),  # the cusp
)
_SPECIAL = [0.5 + 0j, complex(0.5, -0.0), 0j, complex(-0.0, -0.0), complex(math.inf, 0.0),
            complex(-math.inf, -0.0), complex(0.0, math.inf), complex(math.nan, 0.0),
            complex(math.inf, math.nan), complex(math.nan, math.nan)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(ws=st.lists(_POINTS, min_size=1, max_size=8))
@example(ws=_SPECIAL)
def test_one_root_preimage_matches_two_root_formula(ws):
    with np.errstate(all="ignore"):
        # batched and scalar margins, bit for bit
        assert bits(cardioid.preimage_margin(np.array(ws))) == bits(two_root_margin(ws))
        for w in ws:
            assert bits(cardioid.preimage_margin(w)) == bits(two_root_margin(w))
            z = two_root_preimage(w)
            verdict = cardioid.contains(w)
            assert bits(verdict.preimage_modulus) == bits(abs(z))
            if verdict.inside:
                assert repr(verdict.preimage) == repr(complex(z))


def array_quartic(x, y):
    """F(x, y) on float arrays, squared with `** 2` as `implicit_value`
    computed it before one expression served numbers and arrays: the
    reference for both."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = 4.0 * x * x + 4.0 * y * y
    return (q - 8.0 * x - 1.0) ** 2 + 4.0 * (q - 12.0 * x + 1.0)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(ws=st.lists(_POINTS, min_size=1, max_size=8))
@example(ws=_SPECIAL)
# F rounds differently at these points when its square is pow(a, 2)
@example(ws=[0.6437862549206075 + 0.8385873607296588j, 0.8685596238675084 - 1.7517284781756064j])
def test_implicit_quartic_on_floats_matches_arrays(ws):
    x = np.array([w.real for w in ws])
    y = np.array([w.imag for w in ws])
    with np.errstate(all="ignore"):
        batch = cardioid.implicit_value(x, y)
        assert bits(batch) == bits(array_quartic(x, y))
        for k, w in enumerate(ws):
            value = cardioid.implicit_value(w.real, w.imag)
            assert type(value) is float
            one = cardioid.implicit_value(x[k:k + 1], y[k:k + 1])
            assert bits(value) == bits(one) == bits(batch[k])
            assert cardioid.contains_implicit(w) == bool(one[0] < 0.0)


def test_implicit_quartic_on_mpmath_numbers():
    # the one operator expression serves mpmath numbers too: at 30 digits
    # it gives an mpf of the float path's sign, within relative 1e-12, on a
    # grid kept away from the boundary, where F is not small
    xs = np.linspace(-0.75, 3.25, 41)
    ys = np.linspace(-2.0, 2.0, 41)
    checked = 0
    with mpmath.workdps(30):
        for x in xs:
            for y in ys:
                f = cardioid.implicit_value(float(x), float(y))
                if abs(f) < 0.05:
                    continue
                exact = cardioid.implicit_value(mpmath.mpf(float(x)), mpmath.mpf(float(y)))
                assert isinstance(exact, mpmath.mpf)
                assert (exact < 0) == (f < 0.0), (x, y)
                assert abs(f - exact) <= 1e-12 * abs(exact), (x, y)
                checked += 1
    assert checked > 1500


def test_scalar_implicit_test_runs_without_numpy(monkeypatch):
    # a Python complex is tested in float arithmetic: with numpy gone from
    # the module it still answers, as a bool, and overflow is not an error
    monkeypatch.setattr(cardioid, "np", None)
    for w, inside in ((1.0 + 0j, True), (1.5 + 0.5j, True), (3.0 + 0j, False),
                      (0.5 + 0j, False), (complex(1e200, 0.0), False),
                      (complex(-math.inf, 0.0), False), (complex(math.nan, 1.0), False)):
        got = cardioid.contains_implicit(w)
        assert type(got) is bool and got == inside, w
    assert cardioid.implicit_value(1.0, 0.0) == -3.0


def test_inner_outer_examples():
    r_in, r_out = cardioid.inner_outer_radii(1.0)
    assert (r_in, r_out) == (0.5, 1.5)
    r_in, r_out = cardioid.inner_outer_radii(2.0)
    assert r_in == 0.5
    assert r_out == pytest.approx(math.sqrt(27.0 / 8.0))


def test_inner_outer_knots():
    a = 7.0 / 6.0
    left = (5.0 - 2.0 * a) / 2.0
    right = math.sqrt((2.0 * a - 1.0) ** 3 / (8.0 * (a - 1.0)))
    assert abs(left - right) < 1e-12
    a = 1.5
    assert abs((2.0 * a - 1.0) / 2.0 - (5.0 - 2.0 * a) / 2.0) < 1e-15
    for bad in (0.5, 2.5, 0.0, 3.0):
        with pytest.raises(ValueError):
            cardioid.inner_outer_radii(bad)


def test_circle_extrema_against_brute_force():
    t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    e = np.exp(1j * t)
    for r in np.linspace(0.02, 0.98, 50):
        re = np.asarray(cardioid.eval_phi(r * e)).real
        assert abs(re.min() - cardioid.min_re_on_circle(r)) < 1e-6
        assert abs(re.max() - cardioid.max_re_on_circle(r)) < 1e-6


def test_disk_radii_against_brute_force():
    t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    boundary = np.asarray(cardioid.eval_phi(np.exp(1j * t)))
    for a in np.linspace(0.51, 2.49, 50):
        d = np.abs(boundary - a)
        r_in, r_out = cardioid.inner_outer_radii(a)
        assert abs(d.min() - r_in) < 1e-6
        assert abs(d.max() - r_out) < 1e-6
        assert r_in < r_out


def test_boundary_satisfies_quartic():
    t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    w = np.asarray(cardioid.eval_phi(np.exp(1j * t)))
    assert np.max(np.abs(cardioid.implicit_value(w.real, w.imag))) < 1e-9


def test_self_centered_fixed_point():
    m0 = cardioid.self_centered_fixed_point()
    assert m0 == pytest.approx(1.309017, abs=5e-7)
    _, r_out = cardioid.inner_outer_radii(m0)
    assert abs(r_out - m0) < 1e-12
    _, below = cardioid.inner_outer_radii(m0 - 0.01)
    _, above = cardioid.inner_outer_radii(m0 + 0.01)
    assert below > m0 - 0.01
    assert above < m0 + 0.01


def test_annulus_type_invariant():
    # the annulus {r_a < |w - a| < R_a} about every admissible centre is proper
    for a in (0.51, 1.0, 7.0 / 6.0, 1.2, 1.5, 2.0, 2.49):
        r_in, r_out = cardioid.inner_outer_radii(a)
        assert 0 < r_in <= r_out
    for a in (0.5, 2.5):
        with pytest.raises(ValueError):
            cardioid.inner_outer_radii(a)


def test_generator_convexity_sampled():
    # the registry row that states the convexity radius 1/2 of the generator
    rows = {e.key: e for e in radii.constants_registry()}
    assert rows["conv.convex_factor"].value == 0.5
    t = np.linspace(0, 2 * math.pi, 100_000)
    for r, positive in ((0.49, True), (0.51, False)):
        z = r * np.exp(1j * t)
        m = float(np.min((1.0 + z / (1.0 + z)).real))
        assert (m > 0) == positive
