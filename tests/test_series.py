"""Series arithmetic: products, the quotient recurrence, convolution."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from cardstar import series
from cardstar.functions import sine_integral_series
from cardstar.series import (
    LogDerivativeSeries,
    PowerSeries,
    circle_log_derivative,
    coefficient_condition,
    coefficient_condition_sum,
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
    # exp(z) * exp(z^2/4) gives the head of the extremal, which is built
    # from its quotient
    ez = [1.0 / math.factorial(k) for k in range(5)]
    ez2 = [1.0, 0.0, 0.25, 0.0, 0.03125]
    assert np.allclose(np.convolve(ez, ez2)[:5], F_CAR_HEAD, atol=1e-14)
    assert f_cardioid_series(5).coeffs == pytest.approx(F_CAR_HEAD, abs=1e-14)


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


# recorded from the exp-of-a-series recurrence this package used before it
# built the extremal from its quotient: the series must not move a bit
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
# recorded from the reconstruction of z exp(Si z) from its quotient 1 + sin z
SINE_INTEGRAL_12 = (
    (1+0j), (1+0j), (0.5+0j), (0.11111111111111112+0j), (-0.013888888888888885+0j),
    (-0.017777777777777774+0j), (-0.004660493827160494+0j), (0.0002317964222726126+0j),
    (0.0004902840765936004+0j), (0.00011720463219581386+0j), (-8.886637645455982e-06+0j),
    (-1.1393595745046762e-05+0j),
)


def test_exp_series_pinned_bit_for_bit():
    # repr tells the bits apart, signed zeros included
    for n in range(1, 65):
        assert repr(f_cardioid_series(n).coeffs) == repr(F_CARDIOID_64[:n]), n
    assert repr(sine_integral_series(12).coeffs) == repr(SINE_INTEGRAL_12)


def exact_from_quotient(w, order):
    """a_1..a_order of f with z f' = (1 + w) f, in exact rationals:
    n a_{n+1} = sum_{k=1}^{n} w_k a_{n+1-k} with a_1 = 1."""
    a = [Fraction(1)]
    for n in range(1, order):
        a.append(sum(w[k] * a[n - k] for k in range(1, n + 1) if w[k]) / n)
    return a


def test_extremal_series_match_exact_rationals():
    order = 64
    cardioid = [0, Fraction(1), Fraction(1, 2)] + [0] * order
    sine = [0] * (order + 1)
    for k in range(1, order, 2):
        sine[k] = Fraction((-1) ** (k // 2), math.factorial(k))
    for got, w, tol in ((f_cardioid_series(order), cardioid, 1e-15),
                        (sine_integral_series(order), sine, 4e-15)):
        exact = exact_from_quotient(w, order)
        assert all(c.imag == 0.0 for c in got.coeffs)
        err = max(abs(Fraction(c.real) - e) / abs(e) for c, e in zip(got.coeffs, exact) if e)
        assert err < tol


# -- the coefficient tuples are built once, bit for bit ---------------------

def reference_hadamard(f, g):
    """`PowerSeries.hadamard` as it was before the unchecked constructor."""
    return tuple(complex(c) for c in tuple(a * b for a, b in zip(f.coeffs, g.coeffs)))


def reference_dilate(f, rho):
    return tuple(complex(c) for c in tuple(a * rho**n for n, a in enumerate(f.coeffs)))


def reference_to_text(f):
    return "\n".join(f"{c.real!r} {c.imag!r}" for c in f.coeffs) + "\n"


def reference_from_text(text):
    """`from_text` as it was before the unchecked constructor."""
    coeffs = []
    for k, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 're im' pair, got {line!r}")
        c = complex(float(parts[0]), float(parts[1]))
        if not cmath.isfinite(c):
            raise ValueError(f"line {k}: coefficient {line!r} is not finite")
        coeffs.append(c)
    if not coeffs:
        raise ValueError("no coefficients found")
    return tuple(complex(c) for c in coeffs)


def _rough_series(rng, order, scale=1.0):
    raw = scale * (rng.uniform(-1, 1, order - 1) + 1j * rng.uniform(-1, 1, order - 1))
    # signed zeros and tiny and huge parts tell apart more bits
    if order > 3:
        raw[1] = complex(-0.0, 0.0)
        raw[2] = complex(5e-324, -1e300)
    return PowerSeries((1.0,) + tuple(raw))


def test_operations_bit_identical_to_reference_copies():
    rng = np.random.default_rng(12)
    for order in (1, 2, 3, 8, 33, 64):
        for _ in range(5):
            f, g = _rough_series(rng, order), _rough_series(rng, order, 0.01)
            if order > 3:
                # the product of the two -1e300j parts overflows
                with pytest.raises(OverflowError, match=r"coefficient a4 = \(-inf.* overflows"):
                    f.hadamard(g)
            else:
                assert repr(f.hadamard(g).coeffs) == repr(reference_hadamard(f, g))
            k = PowerSeries.koebe(order)
            assert repr(f.hadamard(k).coeffs) == repr(reference_hadamard(f, k))
            for rho in (1.0, 1, 0.7, 1.0 / 3.0, 5e-5, float(rng.uniform())):
                assert repr(f.dilate(rho).coeffs) == repr(reference_dilate(f, rho))
            text = to_text(f)
            assert text == reference_to_text(f)
            assert repr(from_text(text).coeffs) == repr(reference_from_text(text))
    # layouts `to_text` does not write: blank and padded lines, tabs, CRLF
    for text in ("1 0\n\n  -0.0\t2.5e-3 \r\n3 -0\n\n", "1_0 +.5\n", "1e0 0e0\n 1E-308 -1e308\n"):
        assert repr(from_text(text).coeffs) == repr(reference_from_text(text))


@pytest.mark.parametrize("text, message", [
    ("", "no coefficients found"),
    ("\n  \n\t\n", "no coefficients found"),
    ("1.0\n", "expected 're im' pair, got '1.0'"),
    ("1 0\n  2 3 4  \n", "expected 're im' pair, got '2 3 4'"),
    ("1 0\nnan 0\n1 2 3\n", "line 2: coefficient 'nan 0' is not finite"),
    ("1 0\n1 2 3\nnan 0\n", "expected 're im' pair, got '1 2 3'"),
    ("1 0\n\n 0  inf \n", "line 3: coefficient '0  inf' is not finite"),
    ("1 0\ninf 0\nx 0\n", "line 2: coefficient 'inf 0' is not finite"),
    ("1 0\nx 0\ninf 0\n", "could not convert string to float: 'x'"),
    ("1 0\n1e999 0\n", "line 2: coefficient '1e999 0' is not finite"),
])
def test_from_text_error_texts_pinned(text, message):
    # the first bad line decides, as in the line-by-line reference
    with pytest.raises(ValueError) as got:
        from_text(text)
    with pytest.raises(ValueError) as ref:
        reference_from_text(text)
    assert str(got.value) == str(ref.value) == message


def _finite_quotient_series(rng, order):
    # a series whose quotient and reconstruction stay finite, unlike the
    # rough series with its -1e300j coefficient
    raw = 0.01 * (rng.uniform(-1, 1, order - 1) + 1j * rng.uniform(-1, 1, order - 1))
    return PowerSeries((1.0,) + tuple(raw))


def _all_results(order):
    rng = np.random.default_rng(order)
    f = _rough_series(rng, order, 0.01)
    g = PowerSeries.koebe(order)
    if order > 3:
        with pytest.raises(OverflowError, match="coefficient w.* overflows"):
            f.log_derivative()
    w = _finite_quotient_series(rng, order).log_derivative()
    return {
        "PowerSeries": f, "identity": PowerSeries.identity(order), "koebe": g,
        "half_plane": PowerSeries.half_plane(order),
        "ints": PowerSeries(tuple(range(1, order + 1))),
        "numpy": PowerSeries(np.arange(1, order + 1, dtype=float)),
        "hadamard": f.hadamard(g), "dilate": f.dilate(0.5), "dilate_numpy": f.dilate(np.float64(0.5)),
        "from_text": from_text(to_text(f)), "log_derivative": w,
        "LogDerivativeSeries": LogDerivativeSeries(np.ones(order)),
        "integrate": w.integrate_to_function(), "integrate_1": w.integrate_to_function(1),
        "f_cardioid": f_cardioid_series(order), "sine_integral": sine_integral_series(order),
    }


@pytest.mark.parametrize("order", [1, 2, 9, 40])
def test_every_coefficient_is_a_python_complex(order):
    for name, s in _all_results(order).items():
        assert all(type(c) is complex for c in s.coeffs), name
        assert type(s.coeffs) is tuple, name


def test_operations_skip_the_validating_constructor(monkeypatch):
    rng = np.random.default_rng(3)
    f, h = _rough_series(rng, 40, 0.01), _finite_quotient_series(rng, 40)
    w, text, g = h.log_derivative(), to_text(f), PowerSeries.koebe(40)
    calls = []
    check = PowerSeries.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(PowerSeries, "__post_init__", counted)
    monkeypatch.setattr(LogDerivativeSeries, "__post_init__", counted)
    f.hadamard(g)
    f.dilate(0.5)
    from_text(text)
    h.log_derivative()
    w.integrate_to_function()
    assert calls == []
    PowerSeries((1.0, 0.5))
    assert len(calls) == 1


@pytest.mark.parametrize("coeffs, index", [
    ((1.0, math.nan), 2), ((complex(math.inf, 0.0),), 1),
    ((1.0, 0.5, complex(0.0, -math.inf), math.nan), 3),
])
def test_series_rejects_nonfinite_coefficients(coeffs, index):
    with pytest.raises(ValueError, match=f"coefficient a{index} = .* is not finite"):
        PowerSeries(coeffs)
    # nor can a non-finite quotient series rebuild one without a check
    with pytest.raises(ValueError, match=f"coefficient w{index} = .* is not finite"):
        LogDerivativeSeries(coeffs)


def test_overflowing_quotient_recurrences_raise():
    # a_2 = 1e200 gives w_1 = 1e200 and w_2 = 2 a_3 - a_2 w_1 = -inf, and
    # the reconstruction overflows at 2 a_3 = w_1 a_2 + w_2
    with pytest.raises(OverflowError, match=r"coefficient w2 = \(-inf\+nanj\) overflows"):
        PowerSeries((1.0, 1e200, 0.0, 0.0)).log_derivative()
    with pytest.raises(OverflowError, match=r"coefficient a3 = \(inf\+nanj\) overflows"):
        LogDerivativeSeries((1e200, 1e200, 0.0)).integrate_to_function()
    # past the first block too, where the earlier terms come from np.convolve
    with pytest.raises(OverflowError, match="coefficient w2 "):
        PowerSeries((1.0, 1e200) + (0.5,) * 30).log_derivative()


def test_overflowing_hadamard_product_raises():
    # every product is checked, as they are independent: the first that is
    # not finite is named
    f = PowerSeries((1.0, 1e200))
    with pytest.raises(OverflowError, match=r"coefficient a2 = \(inf\+0j\) overflows"):
        f.hadamard(f)
    g = PowerSeries((1.0, 1.0, 1e200, 1e200))
    with pytest.raises(OverflowError, match=r"coefficient a3 = \(inf\+0j\) overflows"):
        g.hadamard(g)


def test_series_rejects_empty_coefficients():
    # both builders from a quotient and the three named series reject an
    # order below 1 with the constructor's message, not one about a range the
    # caller never passed, nor with a series of order 1
    with pytest.raises(ValueError, match="at least one coefficient"):
        PowerSeries(())
    for build in (f_cardioid_series, sine_integral_series):
        for order in (0, -1):
            with pytest.raises(ValueError, match="^a power series needs at least one coefficient$"):
                build(order)
        assert build(1).coeffs == (1 + 0j,)
    for build in (PowerSeries.identity, PowerSeries.koebe, PowerSeries.half_plane):
        for order in (0, -3):
            with pytest.raises(ValueError, match="^a power series needs at least one coefficient$"):
                build(order)
        assert build(1).coeffs == (1 + 0j,)


# -- the one blockwise recurrence --------------------------------------------

def reference_forward_substitution(t, b, d, x0):
    x = [complex(x0)]
    for j in range(1, len(b)):
        s = complex(b[j])
        for k in range(1, j + 1):
            s += complex(t[k]) * x[j - k]
        x.append(s / d[j])
    return x


@pytest.mark.parametrize("n", range(1, 71))
def test_blockwise_recurrence_matches_forward_substitution(n):
    # orders 1 to 70 cross the block boundaries 9, 17, ..., 65
    rng = np.random.default_rng(n)
    t = 0.3 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    for d, x0 in ((np.ones(n), 0j), (np.arange(n), 1 + 0j), (rng.uniform(1, 2, n), 0.5 - 2j)):
        got = series._solve_toeplitz(t, b, d, x0)
        ref = reference_forward_substitution(t, b, d, x0)
        assert len(got) == n
        assert all(type(c) is complex for c in got)
        assert got[0] == x0
        scale = max(1.0, max(abs(c) for c in ref))
        assert max(abs(p - q) for p, q in zip(got, ref)) < 1e-14 * scale, (n, d[:2])


def test_blockwise_recurrence_rounds_like_the_sequential_sum_in_one_block():
    # inside the first block every term is added in Python: bit for bit
    rng = np.random.default_rng(9)
    n = series._BLOCK + 1
    t = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    d = np.arange(n)
    got = series._solve_toeplitz(t, b, d, 1 + 0j)
    x = [1 + 0j]
    for j in range(1, n):
        s = complex(b[j]) + complex(t[j]) * x[0]
        for i in range(1, j):
            s += complex(t[j - i]) * x[i]
        x.append(s / j)
    assert repr(got) == repr(x)


def test_quotient_and_reconstruction_match_forward_substitution():
    rng = np.random.default_rng(4)
    for order in (1, 2, 8, 9, 16, 17, 64, 70):
        f = PowerSeries((1.0,) + tuple(0.05 * (rng.uniform(-1, 1, order - 1)
                                               + 1j * rng.uniform(-1, 1, order - 1))))
        a = f.coeffs
        w = reference_forward_substitution([0j] + [-c for c in a[1:]],
                                           [j * a[j] for j in range(order)], [1] * order, 0j)
        assert np.allclose(f.log_derivative().coeffs, w[1:], rtol=0, atol=1e-14)
        q = LogDerivativeSeries(tuple(w[1:]))
        back = reference_forward_substitution([0j] + list(w[1:]), [0j] * order,
                                              list(range(order)), 1 + 0j)
        assert np.allclose(q.integrate_to_function().coeffs, back, rtol=0, atol=1e-14)


# -- the grid evaluator's input ---------------------------------------------

@pytest.mark.parametrize("coeffs", [(), np.zeros(0), np.zeros((3, 0)), 1.0])
def test_grid_quotient_rejects_empty_coefficients(coeffs):
    with pytest.raises(ValueError, match="at least one coefficient"):
        circle_log_derivative(coeffs, 0.5, 16)


@pytest.mark.parametrize("radius", [0.0, -0.5, math.nan, math.inf, -math.inf])
def test_grid_quotient_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        circle_log_derivative((1.0, 0.5), radius, 16)
