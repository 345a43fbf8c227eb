"""Series arithmetic: products, exp, the quotient recurrence, convolution."""

import math

import numpy as np
import pytest

from cardstar.series import (
    LogDerivativeSeries,
    PowerSeries,
    coefficient_condition,
    coefficient_condition_sum,
    exp_coeffs,
    f_cardioid_series,
    from_text,
    monomial_member,
    to_text,
)

F_CAR_HEAD = (1.0, 1.0, 3.0 / 4.0, 5.0 / 12.0, 19.0 / 96.0)


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
    assert abs(f.eval_log_derivative(-1.0 / 3.0) - 0.5) < 1e-15


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
    assert np.allclose(w.eval(z), f.eval_log_derivative(z), atol=1e-10)


def test_membership_sampling_under_coefficient_condition():
    # the sufficient condition forces |w - 1| < 1/2 near the boundary circle
    rng = np.random.default_rng(3)
    z = 0.999 * np.exp(1j * np.linspace(0, 2 * math.pi, 2048, endpoint=False))
    for _ in range(100):
        m = int(rng.integers(2, 10))
        raw = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        weights = 2.0 * np.arange(2, m + 2) - 1.0
        raw *= rng.uniform(0.05, 1.0) / float(np.sum(weights * np.abs(raw)))
        f = PowerSeries((1.0,) + tuple(raw))
        assert coefficient_condition(f)
        w = np.asarray(f.eval_log_derivative(z))
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
