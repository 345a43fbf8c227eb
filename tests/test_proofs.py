"""Proofs, with sympy, of the closed forms `radii` states for the
two-parameter family [A, B] in the cardioid and for the cardioid in the disk
|w - M| < M.

For a quotient w(z) and a region with polynomial boundary F = 0, F < 0
inside, F(w(r e^{it})) times a power of the quotient's denominator is a
polynomial G(r, c) in r and c = cos t: sin t enters squared only, by the
mirror symmetry.  As r grows from 0, the image of |z| < r first leaves the
region where G(r, .) gains a zero on [-1, 1]: at c = -1 or c = 1, a touch on
the real axis, or at a double root in c, a root of the discriminant of G in
c.  Where a double root reaches c = 1, both conditions hold, so the knot
between them is a root of their resultant in r (Cox, Little and O'Shea,
*Ideals, Varieties, and Algorithms*, chapter 3).
"""

from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

from cardstar import cardioid, functions, radii

A, B, M, r, c, s, x, y = sp.symbols("A B M r c s x y", real=True)

# the cardioid's boundary quartic, F < 0 inside
CARDIOID_F = (4 * x**2 + 4 * y**2 - 8 * x - 1)**2 + 4 * (4 * x**2 + 4 * y**2 - 12 * x + 1)


def _in_cos(expr):
    # a polynomial in r, c and s = sin t whose s enters squared only, as a
    # polynomial in r and c
    g = sp.expand(expr).subs(s**2, 1 - c**2)
    assert not sp.expand(g).has(s)
    return sp.expand(g)


def _multiplicity(expr, factor):
    """The largest k with factor^k dividing the polynomial expr: with one
    divisor, the division leaves no remainder exactly when it divides."""
    gens = sorted(expr.free_symbols | factor.free_symbols, key=str)
    quotient, divisor = sp.Poly(expr, *gens), sp.Poly(factor, *gens)
    k = 0
    while True:
        quotient, rest = quotient.div(divisor)
        if not rest.is_zero:
            return k
        k += 1


def test_cardioid_quartic_is_the_package_boundary():
    # F vanishes on phi(e^{it}) = 1 + e^{it} + e^{2it}/2 and is the
    # package's `cardioid.implicit_value` (exact at these dyadic points)
    boundary = {x: 1 + c + (2 * c**2 - 1) / 2, y: s * (1 + c)}
    assert _in_cos(CARDIOID_F.subs(boundary)) == 0
    for px in np.arange(-1.0, 3.0, 0.375):
        for py in np.arange(-2.0, 2.0, 0.3125):
            exact = CARDIOID_F.subs({x: sp.Rational(px), y: sp.Rational(py)})
            assert cardioid.implicit_value(float(px), float(py)) == float(exact), (px, py)


@lru_cache(maxsize=1)
def _two_parameter_touch():
    """G(r, c) = F(w) |1 + Bz|^8 of w = (1 + Az)/(1 + Bz), z = r e^{it}."""
    num_re = 1 + (A + B) * r * c + A * B * r**2     # of (1 + Az)(1 + B conj z)
    num_im = (A - B) * r * s
    den = 1 + 2 * B * r * c + B**2 * r**2           # |1 + Bz|^2
    q = 4 * num_re**2 + 4 * num_im**2
    g = (q - 8 * num_re * den - den**2)**2 + 4 * den**2 * (q - 12 * num_re * den + den**2)
    return _in_cos(g)


def test_two_parameter_quotient_is_the_package_generator():
    z = 0.3 * np.exp(0.7j)
    w = complex(functions.gen_janowski(z, 0.4, -0.7))
    num = (1 + 0.4 * z) * (1 - 0.7 * np.conj(z))
    assert w == pytest.approx(num / abs(1 - 0.7 * z)**2, rel=1e-15)


def test_two_parameter_axis_touches():
    # at z = -r the image reaches the cusp 1/2 where (2A - B) r = 1, a
    # triple factor; at z = +r the tip 5/2 where (2A - 5B) r = 3
    g = _two_parameter_touch()
    assert _multiplicity(g.subs(c, -1), (2 * A - B) * r - 1) == 3
    assert _multiplicity(g.subs(c, 1), (2 * A - 5 * B) * r - 3) == 1


def test_two_parameter_branch_switch_is_a_minimum():
    # the published switch R2 <= R1 = 1/sqrt(B(3B - 2A)) is (2A - B)^2 >=
    # B(3B - 2A), and R2 <= R3 is 3(2A - B) >= 2A - 5B: both say 2A + B >= 0
    # where A > B
    assert sp.expand((2 * A - B)**2 - B * (3 * B - 2 * A) - 2 * (2 * A + B) * (A - B)) == 0
    assert sp.expand(3 * (2 * A - B) - (2 * A - 5 * B) - 2 * (2 * A + B)) == 0


def _triangle_sample(n=100, seed=0):
    # one point in each cell of an n x n grid of the unit square, mapped onto
    # -1 <= B < A <= 1 by A = 2u - 1, B = 2uv - 1
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u = ((i + rng.random((n, n))) / n).ravel()
    v = ((j + rng.random((n, n))) / n).ravel()
    a, b = 2.0 * u - 1.0, 2.0 * u * v - 1.0
    keep = b < a
    return a[keep], b[keep]


def test_two_parameter_interior_touch_never_binds():
    # G is |1 + Bz|^4, never 0 for r < 1, times a quadratic H in c.  The
    # discriminant of H in c vanishes where H has a double root, the
    # interior-touch condition; on the triangle sample each of its roots
    # with r <= 1 and the double root c in [-1, 1] lies at least 0.34 above
    # the radius, which is thus the least axis touch, capped at 1
    g = _two_parameter_touch()
    den = B**2 * r**2 + 2 * B * r * c + 1
    assert _multiplicity(g, den) == 2
    h = sp.cancel(g / den**2)
    assert sp.degree(h, c) == 2
    interior = ((8 * A**3 * B - 12 * A**2 * B**2 + 6 * A * B**3 - B**4) * r**4
                + (4 * B**2 - 6 * A * B) * r**2 + 1)
    assert _multiplicity(sp.discriminant(h, c), interior) == 1

    a, b = _triangle_sample()
    radius = np.array([radii.janowski_radius_in_cardioid(float(p), float(q)).value
                       for p, q in zip(a, b)])
    # the least root in (0, 1) of every axis factor but the denominator's,
    # each linear in r, is the radius where it is below 1
    axis = [f for side in (-1, 1) for f, _ in sp.factor_list(g.subs(c, side))[1]
            if f.has(A)]
    least = np.ones_like(a)
    for f in axis:
        root = sp.lambdify((A, B), sp.solve(f, r)[0], "numpy")
        with np.errstate(divide="ignore"):
            rf = root(a, b)
        least = np.where((rf > 0.0) & (rf < least), rf, least)
    assert least == pytest.approx(radius, rel=1e-15, abs=0.0)

    k4, k2 = (sp.lambdify((A, B), sp.Poly(interior, r).coeff_monomial(r**d), "numpy")
              for d in (4, 2))
    h2, h1, h0 = (sp.lambdify((A, B, r), co, "numpy") for co in sp.Poly(h, c).all_coeffs())
    p4, p2 = k4(a, b), k2(a, b)
    gaps = []
    for sign in (1.0, -1.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = 2.0 / (-p2 - sign * np.sqrt(p2 * p2 - 4.0 * p4))   # r^2, a root
            rt = np.sqrt(rho)
            c2, c1 = h2(a, b, rt), h1(a, b, rt)
            c0 = -c1 / (2.0 * c2)                                   # the double root
        touch = np.isfinite(rt) & (rt > 0.0) & (rt <= 1.0) & (np.abs(c0) <= 1.0)
        # a double root of H indeed, to rounding
        at = c2 * c0**2 + c1 * c0 + h0(a, b, rt)
        assert np.all(np.abs(at[touch]) <= 1e-9 * (np.abs(c2) + np.abs(c1))[touch])
        gaps.append((rt - radius)[touch])
    gaps = np.concatenate(gaps)
    assert gaps.size > 500            # 593 touches
    assert gaps.min() >= 0.34         # 0.3429


@lru_cache(maxsize=1)
def _disk_touch():
    """G(r, c) = |w - M|^2 - M^2 of the cardioid image w = phi(r e^{it})."""
    w_re = 1 + r * c + r**2 * (2 * c**2 - 1) / 2
    w_im = r * s + r**2 * s * c
    return _in_cos(w_re**2 + w_im**2 - 2 * M * w_re)


DISK_AXIS = r**2 + 2 * r + 2 - 4 * M
DISK_INTERIOR = (2 * M - 1) * r**4 + 4 * (2 * M - 1) * (M - 1) * r**2 - 4 * (3 * M - 1) * (M - 1)
KNOT_CUBIC = 16 * M**3 - 29 * M**2 + 14 * M - 2


def test_disk_real_axis_touch():
    # at z = r the image leaves the disk where r^2 + 2r + 2 = 4M, at
    # `disk_real_axis_radius`; at z = -r the factor r^2 - 2r + 2 - 4M has
    # its roots 1 -+ sqrt(4M - 1) outside (0, 1) for M > 1/2
    g = _disk_touch()
    assert _multiplicity(g.subs(c, 1), DISK_AXIS) == 1
    assert _multiplicity(g.subs(c, -1), r**2 - 2 * r + 2 - 4 * M) == 1
    exit_r = -1 + sp.sqrt(4 * M - 1)
    assert sp.expand(DISK_AXIS.subs(r, exit_r)) == 0
    for m in (0.5001, 0.75, 1.05, 1.3, 2.0, 10.0):
        assert radii.disk_real_axis_radius(m) == pytest.approx(
            float(exit_r.subs(M, m)), rel=1e-15, abs=0.0)


def test_disk_interior_touch():
    # the discriminant of G in c gives the interior-touch condition, and
    # `disk_interior_radius` is its root
    assert _multiplicity(sp.discriminant(_disk_touch(), c), DISK_INTERIOR) == 1
    rho = -2 * (M - 1) + 2 * sp.sqrt(2) * M * sp.sqrt((M - 1) / (2 * M - 1))
    assert sp.simplify(DISK_INTERIOR.subs(r, sp.sqrt(rho))) == 0
    for m in (1.01, radii.m_knot(), 1.2, 1.3):
        assert radii.disk_interior_radius(m) == pytest.approx(
            float(sp.sqrt(rho).subs(M, m)), rel=1e-15, abs=0.0)


def test_disk_knot_is_the_root_of_its_cubic():
    # the two touch conditions share a radius only where their resultant in
    # r vanishes: at the roots of the cubic, of which the knot is the one
    # above 1/2, and which `m_knot` solves at M = 1 + x
    assert sp.factor(sp.resultant(DISK_AXIS, DISK_INTERIOR, r)) == 16 * KNOT_CUBIC**2
    assert sp.expand(KNOT_CUBIC.subs(M, 1 + x)) == -1 + 4 * x + 19 * x**2 + 16 * x**3
    roots = [float(sp.N(t, 30)) for t in sp.real_roots(sp.Poly(KNOT_CUBIC, M))]
    assert [t > 0.5 for t in roots] == [False, False, True]
    assert radii.m_knot() == roots[-1]
