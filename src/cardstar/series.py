"""Truncated power-series arithmetic for normalized analytic functions.

A normalized function f(z) = z + a2 z^2 + ... + aN z^N is stored through the
coefficients (a1, ..., aN) of f, which coincide with the Taylor coefficients
of f(z)/z about 0.  N defaults to 32, at which point every quantity handled
by this package has stabilized far below double precision.

The class `PowerSeries` wraps the normalized-function view and provides
the Hadamard (coefficientwise) product, dilation f(rho z)/rho, evaluation
at arbitrary points (one Horner loop, `_horner`), the coefficient tests
used for membership in the cardioid starlike class, and the series of the
quotient z f'(z)/f(z).  That quotient and its inverse, the reconstruction
of f from it, are one lower-triangular Toeplitz recurrence
(`_solve_toeplitz`), solved in blocks of `_BLOCK` unknowns: one
`np.convolve` per block adds the terms of the earlier blocks, and the few
terms inside the block run in Python.  Both extremal series come from
their quotients: `f_cardioid_series` from its generator 1 + z + z^2/2, and
`functions.sine_integral_series` from 1 + sin z.  `circle_log_derivative`
evaluates z f'/f on a whole circle grid, for one series or a batch, with
one inverse FFT.

Every coefficient tuple holds Python `complex` values.  The public
constructors convert and validate their input; the results of the
operations here are built by `_exact`, which stores a tuple of such values
as it is, without a second conversion or check; the operations raise
OverflowError rather than store an overflowed coefficient.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_ORDER = 32
# unknowns solved per block by `_solve_toeplitz`: a quotient and its
# reconstruction at each of the orders 8, 12, ..., 64 took 1.19 ms with 8,
# 1.21 with 12, 1.25 with 6, 1.29 with 16, 1.36 with 4 and 1.67 with 32
# (minimum of 9 runs, 2-core x86 VM, Python 3.11, numpy 2.4)
_BLOCK = 8

Coeffs = Sequence[complex]


def _solve_toeplitz(t: np.ndarray, b: np.ndarray, d: np.ndarray, x0: complex,
                    name: str = "x", first: int = 0) -> list[complex]:
    """x_0 = x0 and x_j = (b_j + sum_{k=1}^{j} t_k x_{j-k}) / d_j, j = 1..n-1.

    `t`, `b` and `d` are arrays of length n (entry 0 unused).  The unknowns
    are solved `_BLOCK` at a time: the terms from the earlier blocks come
    from one 'valid' convolution of t_1..t_{hi-1} with x_0..x_{lo-1}, and
    the terms inside the block are added in Python, in increasing order of
    the solved index.  Returns x_0..x_{n-1} as Python complex values.

    Raises OverflowError when the arithmetic overflows, naming the first
    non-finite x_j as the coefficient `name` with index j + `first`.  Every
    product t_k x_{j-k} is summed, zero factors included, so a non-finite
    x_i makes every later x_j non-finite, and a finite x_{n-1} shows that
    all of them are finite.
    """
    n = len(b)
    x = np.empty(n, dtype=complex)
    x[0] = x0
    tl, dl = t.tolist(), d.tolist()
    for lo in range(1, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        acc = (b[lo:hi] + np.convolve(t[1:hi], x[:lo], "valid")).tolist()
        block = []
        for m in range(hi - lo):
            s = acc[m]
            for i in range(m):
                s += tl[m - i] * block[i]
            block.append(s / dl[lo + m])
        x[lo:hi] = block
    if n > 1 and not cmath.isfinite(block[-1]):
        j = int(np.argmin(np.isfinite(x)))
        raise OverflowError(f"coefficient {name}{j + first} = {complex(x[j])!r} overflows")
    return x.tolist()


def _finite(coeffs: tuple[complex, ...], name: str, error=ValueError,
            says="is not finite") -> tuple[complex, ...]:
    """`coeffs` if all are finite; the `error` names the first that is not,
    as `name` with its index from 1."""
    if not all(map(cmath.isfinite, coeffs)):
        n = next(n for n, c in enumerate(coeffs, start=1) if not cmath.isfinite(c))
        raise error(f"coefficient {name}{n} = {coeffs[n - 1]!r} {says}")
    return coeffs


def require_order(order: int) -> None:
    """Check a truncation order passed to a builder: a series of order n
    stores a_1..a_n, so n must be at least 1."""
    if order < 1:
        raise ValueError("a power series needs at least one coefficient")


def _horner(coeffs: Coeffs, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k by Horner's rule at the points z."""
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _exact_instance(cls, coeffs: tuple[complex, ...]):
    """`cls._exact(coeffs)`: an instance holding `coeffs`, a tuple of Python
    complex values, as it is.  The dataclass `__post_init__` does not run,
    so nothing is converted or checked: for a `PowerSeries` an empty tuple
    is stored where the public constructor would raise.  No operation
    passes it an inf or nan: each raises OverflowError instead."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "coeffs", coeffs)
    return obj


def circle_log_derivative(coeffs, radius: float, n: int) -> np.ndarray:
    """z f'(z)/f(z) at the n points z_k = radius e^{2 pi i k/n}, k = 0..n-1.

    `coeffs` holds a1..aN of f(z) = a1 z + ... + aN z^N, or a batch of them
    with shape (..., N); the result has shape (..., n).  On the grid,
    f(z_k) = n ifft(b)[k] with b_j = a_j radius^j, and z f'(z_k) is the same
    sum with b_j replaced by j b_j, so both come from one inverse FFT and
    the factor n cancels in their ratio.  A term of degree j >= n is added
    to b_{j mod n}, which gives its exact value on the grid, since
    e^{2 pi i jk/n} depends on j only modulo n.
    """
    if n < 1:
        raise ValueError("the circle grid needs at least one point")
    if not 0.0 < radius < math.inf:
        raise ValueError("the circle radius must be positive and finite")
    a = np.asarray(coeffs, dtype=complex)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ValueError("the series needs at least one coefficient")
    order = a.shape[-1]
    j = np.arange(1, order + 1)
    b = a * radius ** j
    terms = np.zeros((2,) + a.shape[:-1] + (order + 1,), dtype=complex)   # degrees 0..N
    terms[0, ..., 1:] = b
    terms[1, ..., 1:] = j * b
    for lo in range(n, order + 1, n):
        high = terms[..., lo:lo + n]
        terms[..., :high.shape[-1]] += high
    # numpy imports its fft module on first attribute access, so this is
    # where it is loaded, not at `import cardstar`; ifft pads to n with zeros
    f, zf = np.fft.ifft(terms[..., :n], n)
    return zf / f


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients a1..aN of f(z) = a1 z + a2 z^2 + ... (a1 = 1 when normalized).

    `PowerSeries(coeffs)` converts each coefficient to complex and requires
    at least one, all finite.
    """

    coeffs: tuple[complex, ...]

    _exact = classmethod(_exact_instance)

    def __post_init__(self):
        coeffs = _finite(tuple(map(complex, self.coeffs)), "a")
        if not coeffs:
            raise ValueError("a power series needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def is_normalized(self) -> bool:
        return self.coeffs[0] == 1

    def require_normalized(self) -> None:
        if not self.is_normalized:
            raise ValueError("series is not normalized (a1 must be exactly 1)")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        """f(z) = z."""
        require_order(order)
        return cls((1.0,) + (0.0,) * (order - 1))

    @classmethod
    def koebe(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        """z/(1-z)^2 truncated: a_n = n."""
        return cls(tuple(float(n) for n in range(1, order + 1)))

    @classmethod
    def half_plane(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        """z/(1-z) truncated: a_n = 1.  Also the Hadamard identity."""
        return cls((1.0,) * order)

    # -- arithmetic ----------------------------------------------------

    def hadamard(self, other: "PowerSeries") -> "PowerSeries":
        """Coefficientwise product a_n b_n (Hadamard convolution); raises
        OverflowError naming the first product that is not finite."""
        self.require_normalized()
        other.require_normalized()
        if self.order != other.order:
            raise ValueError("Hadamard convolution needs equal truncation orders")
        c = tuple(map(operator.mul, self.coeffs, other.coeffs))
        return PowerSeries._exact(_finite(c, "a", OverflowError, "overflows"))

    def dilate(self, rho: float) -> "PowerSeries":
        """f(rho z)/rho, i.e. a_n -> a_n rho^(n-1); requires 0 < rho <= 1."""
        if not 0 < rho <= 1:
            raise ValueError("dilation factor must lie in (0, 1]")
        rho = float(rho)
        return PowerSeries._exact(tuple(a * rho**n for n, a in enumerate(self.coeffs)))

    # -- evaluation ----------------------------------------------------

    def eval(self, z):
        """f(z) by Horner on f(z)/z; accepts scalars or numpy arrays."""
        z = np.asarray(z, dtype=complex)
        out = z * _horner(self.coeffs, z)
        return out if out.shape else complex(out)

    def eval_derivative(self, z):
        """f'(z) of the truncated polynomial."""
        z = np.asarray(z, dtype=complex)
        out = _horner([n * c for n, c in enumerate(self.coeffs, start=1)], z)
        return out if out.shape else complex(out)

    # -- the central quotient -------------------------------------------

    def log_derivative(self) -> "LogDerivativeSeries":
        """Series of z f'(z)/f(z) - 1, from the recurrence f * (zf'/f) = z f'.

        Division is never formed explicitly; with a1 = 1 the recurrence
        w_j = j a_{j+1} - sum_{k=1}^{j} a_{k+1} w_{j-k} (w_0 = 0) is well
        conditioned.  It is `_solve_toeplitz` with t_k = -a_{k+1},
        b_j = j a_{j+1} and d_j = 1.  Output is truncated to order N-1.
        """
        self.require_normalized()
        a = np.array(self.coeffs)
        w = _solve_toeplitz(-a, np.arange(self.order) * a, np.ones(self.order), 0j, "w", 0)
        return LogDerivativeSeries._exact(tuple(w[1:]))


@dataclass(frozen=True)
class LogDerivativeSeries:
    """Coefficients w1..wM of w(z) = z f'(z)/f(z) - 1 (the constant term of
    zf'/f is always 1 and is therefore not stored).

    `LogDerivativeSeries(coeffs)` converts each coefficient to complex and
    requires all of them finite; M = 0 is allowed.
    """

    coeffs: tuple[complex, ...]

    _exact = classmethod(_exact_instance)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _finite(tuple(map(complex, self.coeffs)), "w"))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def eval(self, z):
        """Value of z f'(z)/f(z) = 1 + sum w_j z^j."""
        z = np.asarray(z, dtype=complex)
        out = 1.0 + z * _horner(self.coeffs, z)
        return out if out.shape else complex(out)

    def integrate_to_function(self, order: int | None = None) -> PowerSeries:
        """Reconstruct f = z exp(int (q(t)-1)/t dt) where q = 1 + this series.

        Inverse of PowerSeries.log_derivative up to the truncation order.
        It solves z f' = q f directly: j a_{j+1} = sum_{k=1}^{j} w_k a_{j+1-k}
        with a_1 = 1, which is `_solve_toeplitz` with t_k = w_k, b = 0 and
        d_j = j.
        """
        n = order if order is not None else self.order + 1
        if n < 1 or n > self.order + 1:
            raise ValueError(f"order must lie in 1..{self.order + 1}")
        t = np.zeros(n, dtype=complex)
        t[1:] = self.coeffs[:n - 1]
        return PowerSeries._exact(tuple(_solve_toeplitz(t, np.zeros(n, dtype=complex),
                                                        np.arange(n), 1 + 0j, "a", 1)))


def f_cardioid_series(order: int = DEFAULT_ORDER) -> PowerSeries:
    """The extremal function z exp(z + z^2/4) of the cardioid starlike class.

    Its quotient z f'/f is the generator 1 + z + z^2/2 itself, so
    z f' = (1 + z + z^2/2) f gives n a_{n+1} = a_n + a_{n-1}/2 with
    a_1 = a_2 = 1.  Expansion starts z + z^2 + 3 z^3/4 + 5 z^4/12 + ...
    """
    require_order(order)
    a = [1 + 0j, 1 + 0j][:order]
    for n in range(2, order):
        a.append((a[-1] + 0.5 * a[-2]) / n)
    return PowerSeries._exact(tuple(a))


def coefficient_condition(f: PowerSeries) -> bool:
    """Sufficient membership test: sum_{n>=2} (2n-1) |a_n| <= 1.

    Only stored coefficients enter; tails of truncations are not bounded.
    """
    f.require_normalized()
    return coefficient_condition_sum(f) <= 1.0


def coefficient_condition_sum(f: PowerSeries) -> float:
    f.require_normalized()
    return float(sum((2 * n - 1) * abs(a) for n, a in enumerate(f.coeffs, start=1) if n >= 2))


def monomial_member(n: int, a_n: complex) -> bool:
    """Exact criterion: z + a_n z^n is in the cardioid class iff |a_n| <= 1/(2n-1)."""
    if n < 2:
        raise ValueError("monomial index must be >= 2")
    return abs(a_n) <= 1.0 / (2 * n - 1)


# -- plain text serialization: one "re im" pair per line, a1 first -------

def to_text(f: PowerSeries) -> str:
    return "\n".join(f"{c.real!r} {c.imag!r}" for c in f.coeffs) + "\n"


def from_text(text: str) -> PowerSeries:
    """Parse `to_text` output: one 're im' pair per line, blank lines skipped;
    the first bad line raises."""
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
    return PowerSeries._exact(tuple(coeffs))
