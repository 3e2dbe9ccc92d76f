"""Disk automorphisms and one/two-variable power series.

Values are plain ``complex`` / ``numpy.complex128``; series are thin
immutable wrappers around coefficient arrays. Everything here is pure and
safe for concurrent use.

Conventions
-----------
* ``PowerSeries`` holds coefficients of ``z^m`` at index ``m``.
* ``BidegreeSeries`` holds ``c[m, n]`` multiplying ``z^m conj(z)^n``.
* The disk automorphism is ``phi_a(z) = (z - a) / (1 - conj(a) z)`` with
  ``|a| < 1``; centers with ``|a| > 0.95`` are rejected because their
  series coefficients decay too slowly for the default truncation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from berezin.errors import DomainError, TruncationError, TruncationOverflow

#: Default truncation degree for bidegree grids. Atom centers are capped at
#: modulus 0.95, so coefficients decay at least geometrically with ratio
#: 0.95; at degree 80 the dropped tail is below the package-wide contract
#: tolerances for every evaluation with |z| <= 0.9.
DEFAULT_TRUNCATION = 80

#: Hard cap for any requested truncation.
MAX_TRUNCATION = 160

#: Largest admissible modulus for an automorphism parameter or atom center.
MAX_CENTER_MODULUS = 0.95

#: Points per block in :meth:`BidegreeSeries.eval`; bounds its working
#: memory to a few ``rows x 4096`` complex tables whatever the point count.
_EVAL_BLOCK = 4096


def require_finite(value: complex, what: str = "value") -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return value


def _check_truncation(m: int) -> int:
    m = int(m)
    if m < 0:
        raise TruncationError(f"truncation must be >= 0, got {m}")
    if m > MAX_TRUNCATION:
        raise TruncationOverflow(
            f"truncation {m} exceeds configured maximum {MAX_TRUNCATION}"
        )
    return m


@dataclass(frozen=True)
class DiskAutomorphism:
    """The disk automorphism ``phi_a(z) = (z - a)/(1 - conj(a) z)``."""

    a: complex

    def __post_init__(self):
        a = require_finite(self.a, "automorphism parameter")
        if abs(a) >= 1.0:
            raise DomainError(f"automorphism parameter must satisfy |a| < 1, got |a|={abs(a)}")
        object.__setattr__(self, "a", a)

    def __call__(self, z):
        return mobius_eval(self, z)


def mobius_eval(phi: DiskAutomorphism, z):
    """Evaluate ``phi_a`` at ``z`` (scalar or array), ``|z| <= 1``.

    Raises DomainError when the denominator modulus drops below 1e-14.
    """
    a = phi.a
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise DomainError("mobius_eval requires |z| <= 1")
    den = 1.0 - np.conj(a) * z
    if np.any(np.abs(den) < 1e-14):
        raise DomainError("mobius_eval denominator vanished")
    out = (z - a) / den
    return complex(out) if out.ndim == 0 else out


def mobius_inverse(phi: DiskAutomorphism) -> DiskAutomorphism:
    """Inverse map ``w -> (w + a)/(1 + conj(a) w)``, which is ``phi_{-a}``."""
    return DiskAutomorphism(-phi.a)


class PowerSeries:
    """Truncated holomorphic series ``sum_m c[m] z^m``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("PowerSeries needs a nonempty 1-d coefficient array")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("PowerSeries coefficients must be finite")
        arr.setflags(write=False)
        self.coeffs = arr

    @classmethod
    def zero(cls, truncation: int = 0) -> "PowerSeries":
        return cls(np.zeros(_check_truncation(truncation) + 1, dtype=np.complex128))

    @classmethod
    def constant(cls, c: complex) -> "PowerSeries":
        return cls([require_finite(c)])

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def padded(self, truncation: int) -> np.ndarray:
        out = np.zeros(truncation + 1, dtype=np.complex128)
        k = min(len(self.coeffs), truncation + 1)
        out[:k] = self.coeffs[:k]
        return out

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        t = max(self.truncation, other.truncation)
        return PowerSeries(self.padded(t) + other.padded(t))

    def __mul__(self, other):
        if np.isscalar(other):
            return PowerSeries(self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(-self.coeffs)

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        # Horner in place; the same operations in the same order as
        # numpy's polyval, which starts from coeffs[-1] + z*0
        z = np.asarray(z, dtype=np.complex128)
        out = z * 0
        out += self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            out *= z
            out += c
        return complex(out) if z.ndim == 0 else out

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def __repr__(self):
        return f"PowerSeries(trunc={self.truncation})"


class BidegreeSeries:
    """Truncated two-index series ``sum_{m,n} c[m, n] z^m conj(z)^n``.

    Grids add and scale by scalars; a grid times a grid is not defined.
    Comparison of two grids uses the maximum absolute coefficient
    difference over the common index rectangle (:meth:`max_coeff_diff`).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128).copy()
        if arr.ndim != 2 or arr.size == 0:
            raise DomainError("BidegreeSeries needs a nonempty 2-d coefficient grid")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("BidegreeSeries coefficients must be finite")
        arr.setflags(write=False)
        self.coeffs = arr

    @classmethod
    def zero(cls, m: int = DEFAULT_TRUNCATION, n: int | None = None) -> "BidegreeSeries":
        m = _check_truncation(m)
        n = m if n is None else _check_truncation(n)
        return cls(np.zeros((m + 1, n + 1), dtype=np.complex128))

    @classmethod
    def constant(cls, c: complex) -> "BidegreeSeries":
        return cls(np.array([[require_finite(c)]], dtype=np.complex128))

    @classmethod
    def outer(cls, holo, anti) -> "BidegreeSeries":
        """Grid of ``f(z) * conj(g(z))``: ``c[m, n] = f[m] * conj(g[n])``."""
        f = holo.coeffs if isinstance(holo, PowerSeries) else np.asarray(holo, complex)
        g = anti.coeffs if isinstance(anti, PowerSeries) else np.asarray(anti, complex)
        return cls(np.outer(f, np.conj(g)))

    @property
    def shape(self):
        return self.coeffs.shape

    @property
    def truncation(self):
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def padded(self, m: int, n: int) -> np.ndarray:
        out = np.zeros((m + 1, n + 1), dtype=np.complex128)
        r = min(self.coeffs.shape[0], m + 1)
        c = min(self.coeffs.shape[1], n + 1)
        out[:r, :c] = self.coeffs[:r, :c]
        return out

    def __add__(self, other: "BidegreeSeries") -> "BidegreeSeries":
        m = max(self.coeffs.shape[0], other.coeffs.shape[0]) - 1
        n = max(self.coeffs.shape[1], other.coeffs.shape[1]) - 1
        return BidegreeSeries(self.padded(m, n) + other.padded(m, n))

    def __sub__(self, other: "BidegreeSeries") -> "BidegreeSeries":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return BidegreeSeries(self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "BidegreeSeries":
        """Grid of the complex-conjugate function: swap indices, conjugate."""
        return BidegreeSeries(np.conj(self.coeffs).T)

    def eval(self, z):
        z = np.asarray(z, dtype=np.complex128)
        flat = z.reshape(-1)
        out = np.empty(flat.shape, dtype=np.complex128)
        for start in range(0, flat.size, _EVAL_BLOCK):
            block = flat[start: start + _EVAL_BLOCK]
            # Horner over conj(z) inside, then over z
            out[start: start + _EVAL_BLOCK] = np.polynomial.polynomial.polyval2d(
                np.conj(block), block, self.coeffs.T
            )
        return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    def __call__(self, z):
        return self.eval(z)

    def max_coeff_diff(self, other: "BidegreeSeries") -> float:
        """Max absolute coefficient difference on the common index rectangle."""
        r = min(self.coeffs.shape[0], other.coeffs.shape[0])
        c = min(self.coeffs.shape[1], other.coeffs.shape[1])
        return float(np.max(np.abs(self.coeffs[:r, :c] - other.coeffs[:r, :c])))

    def __repr__(self):
        return f"BidegreeSeries(shape={self.coeffs.shape})"


def mobius_series(a: complex, truncation: int = DEFAULT_TRUNCATION) -> PowerSeries:
    """Taylor series of ``phi_a`` about 0.

    ``phi_a(z) = -a + (1-|a|^2) sum_{m>=1} conj(a)^(m-1) z^m``.
    """
    a = require_finite(a, "automorphism parameter")
    if abs(a) > MAX_CENTER_MODULUS:
        raise DomainError(
            f"|a|={abs(a):.4f} exceeds {MAX_CENTER_MODULUS}; series decay too slow"
        )
    t = _check_truncation(truncation)
    coeffs = np.zeros(t + 1, dtype=np.complex128)
    coeffs[0] = -a
    if t >= 1:
        coeffs[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(t)
    return PowerSeries(coeffs)


def mobius_power_series(a: complex, power: int, truncation: int = DEFAULT_TRUNCATION) -> PowerSeries:
    """Taylor series of ``phi_a(z)^power`` about 0, ``power`` in {1, 2, 3}."""
    power = int(power)
    if power not in (1, 2, 3):
        raise DomainError(f"power must be 1, 2 or 3, got {power}")
    if truncation < power:
        raise TruncationError(f"truncation {truncation} < power {power}")
    base = mobius_series(a, truncation)
    out = base
    for _ in range(power - 1):
        full = np.convolve(out.coeffs, base.coeffs)
        out = PowerSeries(full[: truncation + 1])
    return out


def log_one_minus_series(w: complex, truncation: int = DEFAULT_TRUNCATION) -> PowerSeries:
    """Principal series of ``log(1 - w z)``: ``-sum_{n>=1} (w z)^n / n``.

    Valid for ``|w| < 1``; used for the harmonic tail of log-atom transforms.
    """
    w = require_finite(w)
    if abs(w) >= 1.0:
        raise DomainError("log_one_minus_series requires |w| < 1")
    t = _check_truncation(truncation)
    coeffs = np.zeros(t + 1, dtype=np.complex128)
    if t >= 1:
        n = np.arange(1, t + 1)
        coeffs[1:] = -(w ** n) / n
    return PowerSeries(coeffs)
