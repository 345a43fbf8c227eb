"""Series arithmetic: products, exp, the quotient recurrence, convolution."""

import math

import numpy as np
import pytest

from cardstar.functions import sine_integral_series
from cardstar.series import (
    LogDerivativeSeries,
    PowerSeries,
    circle_log_derivative,
    coefficient_condition,
    coefficient_condition_sum,
    exp_coeffs,
    f_cardioid_series,
    from_text,
    monomial_member,
    to_text,
)

F_CAR_HEAD = (1.0, 1.0, 3.0 / 4.0, 5.0 / 12.0, 19.0 / 96.0)


def horner_quotient(f, z):
    """z f'(z)/f(z) by Horner at arbitrary points: the reference for the
    grid evaluator."""
    return z * f.eval_derivative(z) / f.eval(z)


def test_extremal_coeffs_from_product_of_exponentials():
    # exp(z) * exp(z^2/4) must reproduce the extremal-function head
    n = 5
    ez = exp_coeffs([0.0, 1.0, 0.0, 0.0, 0.0])
    ez2 = exp_coeffs([0.0, 0.0, 0.25, 0.0, 0.0])
    got = np.convolve(ez, ez2)[:n]
    assert np.allclose(got, F_CAR_HEAD, atol=1e-14)
    assert n == len(got)


def test_exp_of_zero_series():
    assert exp_coeffs([0.0, 0.0, 0.0]) == [1.0, 0.0, 0.0]


def test_exp_reproduces_extremal_head():
    got = exp_coeffs([0.0, 1.0, 0.25, 0.0, 0.0])
    assert np.allclose(got, F_CAR_HEAD, atol=1e-14)


def test_exp_of_z():
    got = exp_coeffs([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(got, [1.0, 1.0, 0.5, 1.0 / 6.0], atol=1e-15)


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        exp_coeffs([1.0, 1.0])


def test_log_derivative_of_identity():
    w = PowerSeries.identity(8).log_derivative()
    assert all(c == 0 for c in w.coeffs)
    assert complex(w.eval(0.3 + 0.1j)) == 1.0


def test_log_derivative_of_extremal_is_generator():
    f = f_cardioid_series(12)
    w = f.log_derivative()
    # quotient is exactly 1 + z + z^2/2
    assert abs(w.coeffs[0] - 1.0) < 1e-14
    assert abs(w.coeffs[1] - 0.5) < 1e-14
    assert max(abs(c) for c in w.coeffs[2:]) < 1e-13
    assert abs(w.eval(-1.0) - 0.5) < 1e-12


def test_second_sum_quotient_value():
    f = PowerSeries((1.0, 1.0))
    assert abs(horner_quotient(f, -1.0 / 3.0) - 0.5) < 1e-15


def test_log_derivative_requires_normalization():
    with pytest.raises(ValueError):
        PowerSeries((2.0, 1.0)).log_derivative()


def test_hadamard_identity_and_examples():
    f = PowerSeries((1.0, 0.5, -0.25, 0.125))
    ones = PowerSeries.half_plane(4)
    assert f.hadamard(ones).coeffs == f.coeffs
    k = PowerSeries.koebe(6)
    sq = k.hadamard(k)
    assert sq.coeffs == tuple(float(n * n) for n in range(1, 7))
    a = PowerSeries((1.0, 1.0))
    b = PowerSeries((1.0, 3.0))
    assert a.hadamard(b).coeffs == (1.0, 3.0)


def test_hadamard_commutative_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = PowerSeries((1.0,) + tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
        b = PowerSeries((1.0,) + tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
        assert a.hadamard(b).coeffs == b.hadamard(a).coeffs


def test_hadamard_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        PowerSeries((1.0, 1.0)).hadamard(PowerSeries((1.0, 1.0, 1.0)))


def test_dilate_examples():
    f = PowerSeries((1.0, 1.0))
    assert f.dilate(1.0).coeffs == f.coeffs
    g = f.dilate(1.0 / 3.0)
    assert abs(g.coeffs[1] - 1.0 / 3.0) < 1e-15
    assert coefficient_condition(g)
    k = PowerSeries.koebe(8).dilate(1.0 / 6.0)
    assert abs(k.coeffs[1] - 1.0 / 3.0) < 1e-15


def test_dilate_composes():
    rng = np.random.default_rng(11)
    f = PowerSeries((1.0,) + tuple(rng.standard_normal(9)))
    a = f.dilate(0.7).dilate(0.43)
    b = f.dilate(0.7 * 0.43)
    assert max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < 1e-14


def test_dilate_rejects_bad_factor():
    f = PowerSeries.identity(4)
    for rho in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            f.dilate(rho)


def test_coefficient_condition_examples():
    assert coefficient_condition(PowerSeries.identity(6))
    assert coefficient_condition(PowerSeries((1.0, 1.0 / 3.0)))
    assert coefficient_condition_sum(PowerSeries((1.0, 1.0 / 3.0))) == pytest.approx(1.0)
    assert not coefficient_condition(PowerSeries((1.0, 0.5)))


def test_monomial_member_examples():
    assert monomial_member(2, 1.0 / 3.0)
    assert not monomial_member(3, 0.21)
    assert monomial_member(5, 0.0)
    with pytest.raises(ValueError):
        monomial_member(1, 0.1)


def test_round_trip_through_quotient():
    # quotient then reintegration must reconstruct the series
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        coeffs = (1.0,) + tuple(rng.uniform(-1, 1, 15) + 1j * rng.uniform(-1, 1, 15))
        f = PowerSeries(coeffs)
        back = f.log_derivative().integrate_to_function()
        worst = max(worst, max(abs(a - b) for a, b in zip(f.coeffs, back.coeffs)))
    assert worst < 1e-12


def test_round_trip_at_full_order_relative():
    # quotient coefficients of rough series grow combinatorially, so at the
    # full default order the reconstruction is exact only relative to that
    # intermediate growth
    rng = np.random.default_rng(1)
    for _ in range(50):
        coeffs = (1.0,) + tuple(rng.uniform(-1, 1, 31) + 1j * rng.uniform(-1, 1, 31))
        f = PowerSeries(coeffs)
        w = f.log_derivative()
        scale = max(1.0, max(abs(c) for c in w.coeffs))
        back = w.integrate_to_function()
        err = max(abs(a - b) for a, b in zip(f.coeffs, back.coeffs))
        assert err < 1e-12 * scale


def test_quotient_series_eval_matches_polynomial_ratio():
    f = f_cardioid_series(16)
    w = f.log_derivative()
    z = 0.4 * np.exp(1j * np.linspace(0, 2 * math.pi, 9))
    assert np.allclose(w.eval(z), horner_quotient(f, z), atol=1e-10)


def test_membership_sampling_under_coefficient_condition():
    # the sufficient condition forces |w - 1| < 1/2 near the boundary circle
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 10))
        raw = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        weights = 2.0 * np.arange(2, m + 2) - 1.0
        raw *= rng.uniform(0.05, 1.0) / float(np.sum(weights * np.abs(raw)))
        f = PowerSeries((1.0,) + tuple(raw))
        assert coefficient_condition(f)
        w = circle_log_derivative(f.coeffs, 0.999, 2048)
        assert np.max(np.abs(w - 1.0)) < 0.5 + 1e-9


def test_truncation_preserved_by_operations():
    f = PowerSeries((1.0, 0.3, 0.2, 0.1))
    assert f.dilate(0.5).order == 4
    assert f.hadamard(f).order == 4
    assert f.log_derivative().order == 3


def test_text_round_trip():
    f = PowerSeries((1.0, 0.25 - 0.5j, -0.125))
    text = to_text(f)
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["1.0", "0.0"]  # index-1 coefficient first
    g = from_text(text)
    assert g.coeffs == f.coeffs
    with pytest.raises(ValueError):
        from_text("1.0\n")
    with pytest.raises(ValueError):
        from_text("")


@pytest.mark.parametrize("bad", ["nan 0", "0 inf", "-inf 0", "nan nan"])
def test_from_text_rejects_nonfinite_coefficients(bad):
    # the error names the line, counting blank lines
    with pytest.raises(ValueError, match=f"line 3: coefficient '{bad}' is not finite"):
        from_text(f"1 0\n\n{bad}\n")


def test_log_derivative_series_type():
    w = f_cardioid_series(8).log_derivative()
    assert isinstance(w, LogDerivativeSeries)
    assert w.integrate_to_function(4).coeffs == pytest.approx(F_CAR_HEAD[:4])


def condition_weighted_error(f, radius, n):
    """max over the n-point grid of |FFT quotient - Horner quotient| / kappa.

    kappa = (sum j |b_j| + |w| sum |b_j|) / |f(z)|, with b_j = |a_j| radius^j,
    bounds how far rounding of the two sums moves w = z f'/f, in either
    evaluator.  Where |f(z)| is near its coefficient bound, as for every
    member of the class, kappa is about 2 |w|, so the measure is a relative
    error; near a zero of f (rough or truncated series on |z| = 0.999) it
    allows for the cancellation both evaluators suffer.
    """
    z = radius * np.exp(2j * math.pi * np.arange(n) / n)
    fz = f.eval(z)
    w = horner_quotient(f, z)
    b = np.abs(f.coeffs) * radius ** np.arange(1, f.order + 1)
    kappa = (np.sum(np.arange(1, f.order + 1) * b) + np.abs(w) * np.sum(b)) / np.abs(fz)
    return float(np.max(np.abs(circle_log_derivative(f.coeffs, radius, n) - w) / kappa))


def test_grid_quotient_matches_horner():
    rng = np.random.default_rng(5)
    for order in range(1, 65):
        raw = rng.uniform(-1, 1, order - 1) + 1j * rng.uniform(-1, 1, order - 1)
        cases = [PowerSeries((1.0,) + tuple(raw)), PowerSeries.koebe(order),
                 PowerSeries.half_plane(order)]
        if order == 2:
            # z + 2 z^2 vanishes at -1/2, a grid point: the quotient has a pole
            cases.remove(PowerSeries.koebe(2))
        for f in cases:
            for radius in (0.5, 0.999):
                for n in (256, 1024, 4096):
                    assert condition_weighted_error(f, radius, n) < 1e-13, (f, radius, n)


def test_grid_quotient_of_batch_matches_rows():
    rng = np.random.default_rng(6)
    rows = rng.uniform(-0.05, 0.05, (5, 9)) + 1j * rng.uniform(-0.05, 0.05, (5, 9))
    rows[:, 0] = 1.0
    w = circle_log_derivative(rows, 0.9, 256)
    assert w.shape == (5, 256)
    for row, got in zip(rows, w):
        assert np.array_equal(got, circle_log_derivative(row, 0.9, 256))


def test_grid_quotient_folds_degrees_past_the_grid():
    # a term of degree j >= n takes its exact grid value at b_{j mod n}
    rng = np.random.default_rng(8)
    raw = rng.uniform(-1, 1, 63) + 1j * rng.uniform(-1, 1, 63)
    for f in (PowerSeries((1.0,) + tuple(raw)), PowerSeries.koebe(64)):
        for n in (4, 12, 63, 64, 65):
            for radius in (0.5, 0.999):
                assert condition_weighted_error(f, radius, n) < 1e-13, (f, radius, n)
    with pytest.raises(ValueError, match="at least one point"):
        circle_log_derivative((1.0, 0.5), 0.5, 0)


# recorded before the zero-skipping recurrence of exp_coeffs: the truncated
# series it builds must not move a bit
F_CARDIOID_64 = (
    (1+0j), (1+0j), (0.75+0j), (0.4166666666666667+0j), (0.19791666666666669+0j), (0.08125+0j),
    (0.030034722222222227+0j), (0.010094246031746032+0j), (0.003138950892857143+0j),
    (0.0009095637676366843+0j), (0.00024790392140652557+0j), (6.388052774771524e-05+0j),
    (1.5652707370914836e-05+0j), (3.66099778805942e-06+0j), (8.205251052512027e-07+0j),
    (1.7673493328539417e-07+0j), (3.668734286943722e-08+0j), (7.356165265419665e-09+0j),
    (1.4277687055632375e-09+0j), (2.6872901780384575e-10+0j), (4.913066852927322e-11+0j),
    (8.73786559196172e-12+0j), (1.5137818116635605e-12+0j), (2.557702003323661e-13+0j),
    (4.219421275683943e-14+0j), (6.803172516920899e-15+0j), (1.073087649820793e-15+0j),
    (1.6572866326967564e-16+0j), (2.5081160292145432e-17+0j), (3.722258342309767e-18+0j),
    (5.420946162794161e-19+0j), (7.75233479817516e-20+0j), (1.0892833003795613e-20+0j),
    (1.504682030141558e-21+0j), (2.0444407447174603e-22+0j), (2.7336716844072143e-23+0j),
    (3.598854279998477e-24+0j), (4.666814243793122e-25+0j), (5.963443590469869e-26+0j),
    (7.512183284470636e-27+0j), (9.332350309204996e-28+0j), (1.1437382129648337e-28+0j),
    (1.3833127065636503e-29+0j), (1.6516287840436787e-30+0j), (1.9473164356504385e-31+0j),
    (2.2678800790819626e-32+0j), (2.609665708116121e-33+0j), (2.967886405005518e-34+0j),
    (3.3367114469971087e-35+0j), (3.709417035107081e-36+0j), (4.078594854018524e-37+0j),
    (4.4364078489321436e-38+0j), (4.7748811767355314e-39+0j), (5.086211400263443e-40+0j),
    (5.363077274803908e-41+0j), (5.598933504749295e-42+0j), (5.788271406923007e-43+0j),
    (5.926831391345524e-44+0j), (6.011756625165613e-45+0j), (6.041680268117497e-46+0j),
    (6.016743898990927e-47+0j), (5.938548399930887e-48+0j), (5.810043208852504e-49+0j),
    (5.635362731509038e-50+0j),
)
SINE_INTEGRAL_12 = (
    (1+0j), (1+0j), (0.5+0j), (0.11111111111111112+0j), (-0.013888888888888885+0j),
    (-0.017777777777777774+0j), (-0.004660493827160494+0j), (0.00023179642227261262+0j),
    (0.0004902840765936003+0j), (0.00011720463219581386+0j), (-8.88663764545598e-06+0j),
    (-1.139359574504676e-05+0j),
)


def test_exp_series_pinned_bit_for_bit():
    # repr tells the bits apart, signed zeros included
    for n in range(1, 65):
        assert repr(f_cardioid_series(n).coeffs) == repr(F_CARDIOID_64[:n]), n
    assert repr(sine_integral_series(12).coeffs) == repr(SINE_INTEGRAL_12)
