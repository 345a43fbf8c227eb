"""Named generators and extremal functions with closed-form quotients.

Two registries live here.  `GENERATORS` maps a kind tag to the univalent
map psi with psi(0) = 1, psi'(0) > 0 whose image defines the corresponding
starlike family; these are the curves the region module samples.
`EXTREMALS` maps a name to the closed-form quotient w(z) = z f'(z)/f(z) of
the function attaining a sharp bound; every sharpness check in the test
suite evaluates one of these at its touch point.

Also here: the image disk of the monomial z + a z^n under its quotient,
the modulus growth envelope of the cardioid class, and the series of
z exp(int_0^z sin(t)/t dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cardioid import eval_phi
from .series import PowerSeries

SQRT2 = math.sqrt(2.0)
_K_RATIONAL = 1.0 + SQRT2  # pole parameter of the rational generator


def _asc(z):
    return np.asarray(z, dtype=complex)


# ---------------------------------------------------------------------------
# generators psi (image boundaries are psi(e^{it}))
# ---------------------------------------------------------------------------

def gen_cardioid_wide(z):
    z = _asc(z)
    return 1.0 + 4.0 * z / 3.0 + 2.0 * z * z / 3.0


def gen_limacon(z):
    z = _asc(z)
    return 1.0 + SQRT2 * z + 0.5 * z * z


def gen_nephroid(z):
    z = _asc(z)
    return 1.0 + z - z**3 / 3.0


def gen_lune(z):
    z = _asc(z)
    return z + np.sqrt(1.0 + z * z)


def gen_sine(z):
    return 1.0 + np.sin(_asc(z))


def gen_rational(z):
    z = _asc(z)
    k = _K_RATIONAL
    return 1.0 + (z / k) * (k + z) / (k - z)


def gen_rational_lemniscate(z):
    z = _asc(z)
    return SQRT2 - (SQRT2 - 1.0) * np.sqrt((1.0 - z) / (1.0 + 2.0 * (SQRT2 - 1.0) * z))


def gen_sigmoid(z):
    return 2.0 / (1.0 + np.exp(-_asc(z)))


def gen_cosh(z):
    return np.cosh(_asc(z))


def gen_exponential(z, alpha: float = 0.0):
    return alpha + (1.0 - alpha) * np.exp(_asc(z))


def gen_lemniscate(z, alpha: float = 0.0):
    return alpha + (1.0 - alpha) * np.sqrt(1.0 + _asc(z))


def gen_cassinian(z, c: float = 1.0):
    return np.sqrt(1.0 + c * _asc(z))


def gen_booth(z, alpha: float = 0.0):
    z = _asc(z)
    return 1.0 + z / (1.0 - alpha * z * z)


def gen_janowski(z, A: float = 1.0, B: float = -1.0):
    z = _asc(z)
    return (1.0 + A * z) / (1.0 + B * z)


def gen_order(z, alpha: float = 0.0):
    """Half-plane map onto Re w > alpha."""
    return gen_janowski(z, 1.0 - 2.0 * alpha, -1.0)


def gen_bounded_re(z, beta: float = 2.0):
    """Half-plane map onto Re w < beta, oriented so the derivative at 0 is
    positive; the sharp function's quotient is `w_bounded_re_extremal`."""
    z = _asc(z)
    return (1.0 + (2.0 * beta - 1.0) * z) / (1.0 + z)


def w_bounded_re_extremal(z, beta: float = 2.0):
    """Quotient of z(1-z)^(2(beta-1)), reaching 1/2 at z = 1/(4 beta - 3)."""
    z = _asc(z)
    return (1.0 - (2.0 * beta - 1.0) * z) / (1.0 - z)


def gen_ram_singh(z, alpha: float = 0.0):
    return 1.0 + (1.0 - alpha) * _asc(z)


def gen_padmanabhan(z, alpha: float = 1.0):
    z = _asc(z)
    return (1.0 + alpha * z) / (1.0 - alpha * z)


_GENERATORS: dict[str, Callable] = {
    "cardioid": eval_phi,
    "cardioid_wide": gen_cardioid_wide,
    "limacon": gen_limacon,
    "nephroid": gen_nephroid,
    "lune": gen_lune,
    "sine": gen_sine,
    "rational": gen_rational,
    "rational_lemniscate": gen_rational_lemniscate,
    "sigmoid": gen_sigmoid,
    "cosh": gen_cosh,
    "exponential": gen_exponential,
    "lemniscate": gen_lemniscate,
    "cassinian": gen_cassinian,
    "booth": gen_booth,
    "janowski": gen_janowski,
    "order": gen_order,
    "bounded_re": gen_bounded_re,
    "ram_singh": gen_ram_singh,
    "padmanabhan": gen_padmanabhan,
}


def generator(name: str, **params) -> Callable:
    """Look up a generator; parametrized kinds are closed over their params."""
    try:
        base = _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}; known: {', '.join(sorted(_GENERATORS))}")
    if not params:
        return base
    return lambda z: base(z, **params)


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))


# ---------------------------------------------------------------------------
# extremal quotients w(z) = z f'(z)/f(z)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """A named analytic quotient w(z) with w(0) = 1."""

    name: str
    w_of: Callable
    claim: str = ""

    def __call__(self, z):
        return self.w_of(z)


def _w_koebe(z):
    z = _asc(z)
    return (1.0 + z) / (1.0 - z)


def _w_half_plane(z):
    return 1.0 / (1.0 - _asc(z))


def w_monomial(n: int, a: complex) -> Callable:
    """Quotient of z + a z^n: (1 + n a z^{n-1})/(1 + a z^{n-1})."""

    def w(z):
        z = _asc(z)
        p = a * z ** (n - 1)
        return (1.0 + n * p) / (1.0 + p)

    return w


def _w_second_sum(z):
    # z + z^2, the second partial sum of the extremal function
    z = _asc(z)
    return (1.0 + 2.0 * z) / (1.0 + z)


def _w_second_sum_convexity(z):
    # convexity functional 1 + z f''/f' of z + z^2
    z = _asc(z)
    return (1.0 + 4.0 * z) / (1.0 + 2.0 * z)


def _w_koebe_second_sum(z):
    # quotient of z + 2 z^2, the second partial sum of the Koebe function
    z = _asc(z)
    return (1.0 + 4.0 * z) / (1.0 + 2.0 * z)


def _w_squared_koebe(z):
    # quotient of z(1+z)/(1-z)^3 = sum n^2 z^n (Koebe convolved with itself)
    z = _asc(z)
    return (1.0 + 4.0 * z + z * z) / (1.0 - z * z)


_EXTREMALS: dict[str, FunctionSpec] = {}


def _register(name: str, w_of: Callable, claim: str) -> None:
    _EXTREMALS[name] = FunctionSpec(name, w_of, claim)


_register("cardioid_extremal", eval_phi,
          "z exp(z + z^2/4); quotient is the cardioid generator itself")
_register("koebe", _w_koebe, "z/(1-z)^2; quotient (1+z)/(1-z)")
_register("half_plane", _w_half_plane, "z/(1-z); quotient 1/(1-z)")
_register("second_sum", _w_second_sum, "z + z^2; starlikeness quotient")
_register("second_sum_convexity", _w_second_sum_convexity,
          "z + z^2; convexity functional 1 + z f''/f'")
_register("koebe_second_sum", _w_koebe_second_sum, "z + 2 z^2; quotient")
_register("squared_koebe", _w_squared_koebe,
          "z(1+z)/(1-z)^3; quotient of the self-convolved Koebe function")

# ratio-class sharp functions, chi = z
_register("ratio1_z", lambda z: (1.0 + 4.0 * _asc(z) - _asc(z) ** 2) / (1.0 - _asc(z) ** 2),
          "z(1+z)^2/(1-z)^2; touches 1/2 at the negative real radius")
_register("ratio2_z", lambda z: (1.0 + 3.0 * _asc(z) - 2.0 * _asc(z) ** 2) / (1.0 - _asc(z) ** 2),
          "z(1+z)^2/(1-z); touches 1/2 at the negative real radius")
_register("ratio3_z", lambda z: (1.0 + 2.0 * _asc(z) - _asc(z) ** 2) / (1.0 - _asc(z) ** 2),
          "z(1+z)/(1-z); touches 1/2 at the negative real radius")

# chi = z/(1+z); touches occur at the positive real radius
_register("ratio1_shifted", lambda z: (1.0 - 5.0 * _asc(z)) / (1.0 - _asc(z) ** 2),
          "z(1-z)^2/(1+z)^3")
_register("ratio2_shifted", lambda z: (1.0 - 4.0 * _asc(z) - _asc(z) ** 2) / (1.0 - _asc(z) ** 2),
          "z(1-z)^2/(1+z)^2")
_register("ratio3_shifted", lambda z: (1.0 - 3.0 * _asc(z)) / (1.0 - _asc(z) ** 2),
          "z(1-z)/(1+z)^2")

# chi = z/(1-z^2); rotated functions, touches at z = i r
_register("ratio1_rotated",
          lambda z: ((_asc(z) ** 4 - 4j * _asc(z) ** 3 + 2.0 * _asc(z) ** 2 + 4j * _asc(z) + 1.0)
                     / (1.0 - _asc(z) ** 4)),
          "z(1+iz)^2/((1-z^2)(1-iz)^2)")
_register("ratio2_rotated",
          lambda z: ((1.0 + 3j * _asc(z) + 3.0 * _asc(z) ** 2 - 3j * _asc(z) ** 3)
                     / (1.0 - _asc(z) ** 4)),
          "z(1+iz)^2/((1-z^2)(1-iz))")
_register("ratio3_rotated",
          lambda z: ((_asc(z) ** 4 - 2j * _asc(z) ** 3 + 2.0 * _asc(z) ** 2 + 2j * _asc(z) + 1.0)
                     / (1.0 - _asc(z) ** 4)),
          "z(1+iz)/((1-z^2)(1-iz))")

# chi = z/(1-z)^2
_register("ratio1_koebe", lambda z: (1.0 + 6.0 * _asc(z) + _asc(z) ** 2) / (1.0 - _asc(z) ** 2),
          "z(1+z)^2/(1-z)^4")
_register("ratio2_koebe", lambda z: (1.0 + 5.0 * _asc(z)) / (1.0 - _asc(z) ** 2),
          "z(1+z)^2/(1-z)^3")
_register("ratio3_koebe", _w_squared_koebe, "z(1+z)/(1-z)^3")


def _w_half_square(extra: Callable) -> Callable:
    def w(z):
        z = _asc(z)
        return 2.0 * (1.0 + z) / (2.0 + z) + extra(z)
    return w


# chi = z + z^2/2
_register("ratio1_half_square",
          _w_half_square(lambda z: 4.0 * z / (1.0 - z * z)),
          "(1+z)^2 (z + z^2/2)/(1-z)^2")
_register("ratio2_half_square",
          _w_half_square(lambda z: (3.0 * z - z * z) / (1.0 - z * z)),
          "(1+z)^2 (z + z^2/2)/(1-z)")
_register("ratio3_half_square",
          _w_half_square(lambda z: 2.0 * z / (1.0 - z * z)),
          "(1+z)(z + z^2/2)/(1-z)")


def extremal(name: str, **params) -> FunctionSpec:
    """Look up an extremal quotient; generator kinds are accepted too."""
    if name in _EXTREMALS and not params:
        return _EXTREMALS[name]
    if name in _GENERATORS:
        label = f"generator {name}" + (f" {params}" if params else "")
        return FunctionSpec(name, generator(name, **params), label)
    if name == "monomial":
        return FunctionSpec("monomial", w_monomial(int(params["n"]), params["a"]),
                            "z + a z^n quotient")
    if name == "bounded_re_extremal":
        beta = params.get("beta", 2.0)
        return FunctionSpec(name, lambda z: w_bounded_re_extremal(z, beta),
                            "z(1-z)^(2(beta-1)) quotient")
    raise ValueError(f"unknown extremal {name!r}")


def extremal_names() -> tuple[str, ...]:
    return tuple(sorted(_EXTREMALS))


# ---------------------------------------------------------------------------
# monomial image disk, growth envelope, sine-integral series
# ---------------------------------------------------------------------------

def monomial_image_disk(n: int, a_abs: float):
    """Image disk of the quotient of z + a z^n over the unit disk.

    Center (1 - n a^2)/(1 - a^2), radius (n - 1) a/(1 - a^2); internally
    tangent to the cardioid boundary at 1/2 exactly when a = 1/(2n - 1).
    """
    from .domains import Disk  # local import to keep module layering acyclic

    if n < 2:
        raise ValueError("monomial index must be >= 2")
    if not 0.0 <= a_abs < 1.0:
        raise ValueError("coefficient modulus must lie in [0, 1)")
    a2 = a_abs * a_abs
    return Disk((1.0 - n * a2) / (1.0 - a2), (n - 1) * a_abs / (1.0 - a2))


def growth_envelope(r: float) -> tuple[float, float]:
    """Sharp modulus bounds (r e^{-r + r^2/4}, r e^{r + r^2/4}) on |z| = r."""
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    return r * math.exp(-r + 0.25 * r * r), r * math.exp(r + 0.25 * r * r)


def sine_integral_series(order: int) -> PowerSeries:
    """z exp(int_0^z sin(t)/t dt) as a truncated series.

    The expansion starts z + z^2 + z^3/2 + z^4/9; the z^4 coefficient is
    cross-checked against this construction in the test suite.
    """
    from .series import exp_coeffs

    p = [0j] * order
    sign = 1.0
    fact = 1.0
    for k in range(1, order, 2):
        # sin t / t = sum (-1)^m t^{2m}/(2m+1)!; integrate term by term
        p[k] = sign / (fact * k)
        sign = -sign
        fact *= (k + 1) * (k + 2)
    return PowerSeries(tuple(exp_coeffs(p)))
