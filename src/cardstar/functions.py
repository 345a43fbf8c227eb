"""Named generators and extremal functions with closed-form quotients.

`generator(kind)` looks up the univalent map psi with psi(0) = 1,
psi'(0) > 0 whose image defines the corresponding starlike family; these
are the curves the region module samples.  `extremal(name)` looks up, in
one table, a generator kind or the closed-form quotient w(z) = z f'(z)/f(z)
of a function attaining a sharp bound, closed over its parameters; every
sharpness check in the test suite evaluates one of these at its touch point.

The ratio classes are declared by their factors, one `RATIO_CHI` row per
function chi and one `RATIO_P` row per class i: the sharp function of class
i over chi is chi(z) p_i(eps z), and `radii.ratio_disk_family` builds the
class's quotient disk from the same two rows.

Each corollary of the two-parameter family [A, B] declares its map
p -> (A, B) once, in `JANOWSKI_AB`, which its generator, its `radii`
formula and oracle, and its comparison disk read.

Also here: the image disk of the monomial z + a z^n under its quotient,
and the series of z exp(int_0^z sin(t)/t dt).
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .cardioid import eval_phi
from .series import LogDerivativeSeries, PowerSeries, require_order

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
    if B == 0.0:  # the disk |w - 1| < A, without the costlier complex division
        return 1.0 + A * z
    return (1.0 + A * z) / (1.0 + B * z)


def gen_bounded_re(z, beta: float = 2.0):
    """Half-plane map onto Re w < beta, oriented so the derivative at 0 is
    positive; at -z it is the sharp quotient `bounded_re_extremal`."""
    z = _asc(z)
    return (1.0 + (2.0 * beta - 1.0) * z) / (1.0 + z)


# p -> (A, B) for the order alpha, [1-a, 0], [a, -a] and |w - M| < M
# corollaries of the two-parameter family [A, B]
JANOWSKI_AB: dict[str, Callable[[float], tuple[float, float]]] = {
    "order": lambda alpha: (1.0 - 2.0 * alpha, -1.0),
    "ram_singh": lambda a: (1.0 - a, 0.0),
    "padmanabhan": lambda a: (a, -a),
    "janowski_M": lambda M: (1.0, 1.0 / M - 1.0),
}


def _janowski_corollary(name: str, default: float) -> Callable:
    # the corollary's generator: the [A, B] generator at its map of alpha
    def psi(z, alpha: float = default):
        return gen_janowski(z, *JANOWSKI_AB[name](alpha))
    return psi


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
    "order": _janowski_corollary("order", 0.0),
    "bounded_re": gen_bounded_re,
    "ram_singh": _janowski_corollary("ram_singh", 0.0),
    "padmanabhan": _janowski_corollary("padmanabhan", 1.0),
}


def generator(name: str, **params) -> Callable:
    """Look up a generator; parametrized kinds are closed over their params."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r}; known: {', '.join(sorted(_GENERATORS))}")
    return extremal(name, **params).w_of


# ---------------------------------------------------------------------------
# extremal quotients w(z) = z f'(z)/f(z)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """A named quotient w(z) with w(0) = 1; `real` declares
    w(conj z) = conj w(z), which lets `verify` sample half the circle, and
    `analytic` declares that w has no pole or branch point in the open unit
    disk, which lets `verify` guide its radius search by the verdicts it
    has seen.  w_of acts elementwise on a number or a 1-d array: a radius
    search evaluates the points of one circle at a time."""

    name: str
    w_of: Callable
    claim: str = ""
    real: bool = False
    analytic: bool = False


def _w_koebe(z):
    z = _asc(z)
    return (1.0 + z) / (1.0 - z)


def _w_half_plane(z):
    return 1.0 / (1.0 - _asc(z))


def _w_second_sum(z):
    # z + z^2, the second partial sum of the extremal function
    z = _asc(z)
    return (1.0 + 2.0 * z) / (1.0 + z)


def _w_second_sum_convexity(z):
    # convexity functional 1 + z f''/f' of z + z^2, and the quotient of
    # z + 2 z^2, the second partial sum of the Koebe function
    z = _asc(z)
    return (1.0 + 4.0 * z) / (1.0 + 2.0 * z)


@dataclass(frozen=True)
class RatioChi:
    """A function chi of the ratio classes: its quotient z chi'/chi, the
    circle |w - center(r)| = radius(r) that this quotient draws on |z| = r,
    the rotation eps of the sharp functions chi(z) p_i(eps z), and the
    suffix of their extremal names ratio{i}_{suffix}."""

    quotient: Callable
    center: Callable[[float], float]
    radius: Callable[[float], float]
    rotation: complex
    suffix: str


@dataclass(frozen=True)
class RatioP:
    """A factor p_i of the ratio classes: its quotient u p_i'/p_i and the
    bound of that quotient's modulus on |u| = r."""

    quotient: Callable
    bound: Callable[[float], float]


RATIO_CHI: dict[str, RatioChi] = {
    "z": RatioChi(lambda z: 1.0, lambda r: 1.0, lambda r: 0.0, 1.0, "z"),
    "z_over_1plusz": RatioChi(lambda z: 1.0 / (1.0 + z), lambda r: 1.0 / (1.0 - r * r),
                              lambda r: r / (1.0 - r * r), -1.0, "shifted"),
    "z_over_1minusz2": RatioChi(lambda z: _w_koebe(z * z), lambda r: (1.0 + r**4) / (1.0 - r**4),
                                lambda r: 2.0 * r * r / (1.0 - r**4), 1j, "rotated"),
    "koebe": RatioChi(_w_koebe, lambda r: (1.0 + r * r) / (1.0 - r * r),
                      lambda r: 2.0 * r / (1.0 - r * r), 1.0, "koebe"),
    "z_plus_half_z2": RatioChi(lambda z: 2.0 * (1.0 + z) / (2.0 + z),
                               lambda r: (4.0 - 2.0 * r * r) / (4.0 - r * r),
                               lambda r: 2.0 * r / (4.0 - r * r), 1.0, "half_square"),
}

# p_1 = ((1+u)/(1-u))^2, p_2 = (1+u)^2/(1-u), p_3 = (1+u)/(1-u)
RATIO_P: dict[int, RatioP] = {
    1: RatioP(lambda u: 4.0 * u / (1.0 - u * u), lambda r: 4.0 * r / (1.0 - r * r)),
    2: RatioP(lambda u: (3.0 * u - u * u) / (1.0 - u * u),
              lambda r: (3.0 * r + r * r) / (1.0 - r * r)),
    3: RatioP(lambda u: 2.0 * u / (1.0 - u * u), lambda r: 2.0 * r / (1.0 - r * r)),
}


def _ratio_quotient(chi: RatioChi, p: RatioP) -> Callable:
    # the quotient of the sharp function chi(z) p(eps z)
    def w(z):
        z = _asc(z)
        return chi.quotient(z) + p.quotient(chi.rotation * z)
    return w


# every name `extremal` accepts; a quotient's parameters are its keywords.
# Every quotient has real Taylor coefficients at its default parameters
# except the ratio quotients with a rotation off the real axis, and every
# one is analytic in the unit disk but the two with a pole at z = -1/2.
_EXTREMALS: dict[str, FunctionSpec] = {spec.name: spec for spec in (
    *(FunctionSpec(name, psi, f"generator {name}", real=True, analytic=True)
      for name, psi in _GENERATORS.items()),
    FunctionSpec("cardioid_extremal", eval_phi,
                 "z exp(z + z^2/4); quotient is the cardioid generator itself", True, True),
    FunctionSpec("koebe", _w_koebe, "z/(1-z)^2; quotient (1+z)/(1-z)", True, True),
    FunctionSpec("half_plane", _w_half_plane, "z/(1-z); quotient 1/(1-z)", True, True),
    FunctionSpec("second_sum", _w_second_sum, "z + z^2; starlikeness quotient", True, True),
    FunctionSpec("second_sum_convexity", _w_second_sum_convexity,
                 "z + z^2; convexity functional 1 + z f''/f'", real=True),
    FunctionSpec("koebe_second_sum", _w_second_sum_convexity, "z + 2 z^2; quotient", real=True),
    FunctionSpec("bounded_re_extremal", lambda z, beta=2.0: gen_bounded_re(-_asc(z), beta),
                 "z(1-z)^(2(beta-1)); quotient reaches 1/2 at z = 1/(4 beta - 3)", True, True),
    *(FunctionSpec(f"ratio{i}_{chi.suffix}", _ratio_quotient(chi, p),
                   f"chi(z) p_{i}(eps z) with chi {tag} and eps {chi.rotation:g}",
                   real=chi.rotation.imag == 0, analytic=True)
      for tag, chi in RATIO_CHI.items() for i, p in RATIO_P.items()),
)}

# the quotients whose nearest singularity moves with their parameters:
# params -> whether it stays off the open unit disk
_ANALYTIC_AT: dict[str, Callable[..., bool]] = {
    "cassinian": lambda c: abs(c) <= 1.0,              # branch point at -1/c
    "booth": lambda alpha: abs(alpha) <= 1.0,          # poles at +-1/sqrt(alpha)
    "janowski": lambda A=1.0, B=-1.0: abs(B) <= 1.0,   # pole at -1/B
    "padmanabhan": lambda alpha: abs(alpha) <= 1.0,    # pole at 1/alpha
}


@lru_cache(maxsize=None)
def _parameters(name: str) -> tuple[str, ...]:
    # the keywords the quotient of a registered extremal takes after z
    return tuple(inspect.signature(_EXTREMALS[name].w_of).parameters)[1:]


def extremal(name: str, **params) -> FunctionSpec:
    """Look up an extremal quotient or a generator kind, closed over `params`.

    The result keeps the entry's `real` only when every parameter is real,
    and its `analytic` only where the parameters keep the quotient's
    singularities off the open unit disk.  Raises ValueError for an unknown
    name, or for a keyword that is not a parameter of the quotient.
    """
    try:
        spec = _EXTREMALS[name]
    except KeyError:
        raise ValueError(f"unknown extremal {name!r}") from None
    if not params:
        return spec
    for key in params:
        if key not in _parameters(name):
            raise ValueError(f"extremal {name!r} has no parameter {key!r}")
    real = spec.real and all(isinstance(v, numbers.Real) for v in params.values())
    analytic = spec.analytic and (name not in _ANALYTIC_AT or _ANALYTIC_AT[name](**params))
    return FunctionSpec(name, partial(spec.w_of, **params), f"{spec.claim} {params}", real,
                        analytic)


# ---------------------------------------------------------------------------
# monomial image disk, sine-integral series
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


def sine_integral_series(order: int) -> PowerSeries:
    """z exp(int_0^z sin(t)/t dt) as a truncated series, rebuilt from its
    quotient z f'/f = 1 + sin z: w_k = (-1)^((k-1)/2)/k! for odd k.

    The expansion starts z + z^2 + z^3/2 + z^4/9; the z^4 coefficient is
    cross-checked against this construction in the test suite.
    """
    require_order(order)
    w = [0j] * (order - 1)
    for k in range(1, order, 2):
        w[k - 1] = complex((-1) ** (k // 2) / math.factorial(k))
    return LogDerivativeSeries._exact(tuple(w)).integrate_to_function(order)
