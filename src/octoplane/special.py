"""Complex special functions for the spectral side of the analysis.

Contains a vendored Lanczos log-gamma, Pochhammer symbols, the Gauss
hypergeometric function for real argument in [0,1) with complex parameters
(power series plus the two-term connection formula in powers of 1-z near
the right endpoint), the Harish-Chandra density factor c(lambda) of the
rank-one exceptional space (rho = 11), and the generalized spherical
functions

    Phi_{lambda,lm}(r) = (8)_l^{-1} (s)_{(m+l)/2} (s-3)_{(l-m)/2} r^l
                         (1-r^2)^s 2F1(s + (l+m)/2, s + (l-m)/2 - 3; l+8; r^2)

with s = (i lambda + rho)/2, indexed by integer pairs l >= m >= 0 with
l +- m even.

Everything here is scalar, pure and reentrant; no caches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

__all__ = [
    "RHO",
    "KTypeIndex",
    "log_gamma",
    "pochhammer",
    "gauss_2f1",
    "hc_c_function",
    "spherical_fn",
    "spherical_fn_scaled",
]

RHO = 11

# Lanczos approximation, g = 7, 9 terms (double precision workhorse).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _is_nonpositive_integer(z: complex, tol: float = 0.0) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and abs(z.real - round(z.real)) <= tol


def log_gamma(z) -> complex:
    """Log-gamma with vendored Lanczos coefficients; reflection for
    Re z < 0.5.  exp(log_gamma(z)) equals Gamma(z); the imaginary part is
    not reduced to a particular branch cut convention, which no caller
    here relies on (only exponentials of differences are used).
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise ValueError(f"log_gamma pole at z = {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    w = z - 1.0
    acc = complex(_LANCZOS_COEFFS[0])
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def pochhammer(a, k: int) -> complex:
    """Rising factorial (a)_k = a(a+1)...(a+k-1), with (a)_0 = 1.

    Small k uses the direct product; larger k goes through log-gamma
    differences (exact up to rounding since exp kills branch offsets),
    falling back to the product at gamma poles.
    """
    if k < 0 or k != int(k):
        raise ValueError("k must be a nonnegative integer")
    a = complex(a)
    k = int(k)
    if k <= 10:
        return _poch_direct(a, k)
    if _is_nonpositive_integer(a, tol=1e-9) or _is_nonpositive_integer(a + k, tol=1e-9):
        return _poch_direct(a, k)
    return cmath.exp(log_gamma(a + k) - log_gamma(a))


def _poch_direct(a: complex, k: int) -> complex:
    out = complex(1.0)
    for i in range(k):
        out *= a + i
    return out


def _f21_series(a: complex, b: complex, c: complex, z: float,
                tol: float = 1e-16, max_terms: int = 10_000) -> complex:
    total = complex(1.0)
    term = complex(1.0)
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if abs(term) < tol * abs(total):
            return total
    raise NumericsError(
        f"2F1 series did not converge: a={a}, b={b}, c={c}, z={z}, "
        f"{max_terms} terms, last |term| = {abs(term):.3e}"
    )


# ---------------------------------------------------------------------------
# Extended-precision branch for the connection formula.
#
# The two connection terms share the factor Gamma(+-(c-a-b)); for small
# |c-a-b| (small spectral parameter) and moderately large upper parameters
# they reach ~1e9 while their sum is O(10^2), so double arithmetic loses
# up to eight digits.  The combination is therefore assembled in 80-bit
# extended precision, with a Stirling-series log-gamma (truncation ~1e-25
# after shifting Re z above 16) supplying the coefficients.
# ---------------------------------------------------------------------------

_PI_EXT = np.longdouble("3.14159265358979323846264338327950288420")
_LOG_TWO_PI_EXT = np.longdouble("1.83787706640934548356065947281123527973")
# B_{2n} / (2n (2n-1)) for n = 1..12
_STIRLING_COEFFS = tuple(
    np.longdouble(num) / np.longdouble(den)
    for num, den in (
        (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
        (-691, 360360), (1, 156), (-3617, 122400), (43867, 244188),
        (-174611, 125400), (77683, 5796), (-236364091, 1506960),
    )
)


def _log_gamma_ext(z) -> np.clongdouble:
    z = np.clongdouble(complex(z))
    if z.real < 0.5:
        return (
            np.log(np.clongdouble(_PI_EXT))
            - np.log(np.sin(_PI_EXT * z))
            - _log_gamma_ext(1.0 - z)
        )
    shift = np.clongdouble(0.0)
    while z.real < 16.0:
        shift += np.log(z)
        z = z + 1.0
    out = (z - 0.5) * np.log(z) - z + 0.5 * _LOG_TWO_PI_EXT
    zpow = z
    z2 = z * z
    for coef in _STIRLING_COEFFS:
        out += coef / zpow
        zpow *= z2
    return out - shift


def _f21_series_ext(a, b, c, z, max_terms: int = 20_000) -> np.clongdouble:
    a = np.clongdouble(complex(a))
    b = np.clongdouble(complex(b))
    c = np.clongdouble(complex(c))
    z = np.clongdouble(float(z))
    total = np.clongdouble(1.0)
    term = np.clongdouble(1.0)
    for k in range(max_terms):
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total = total + term
        if abs(term) < 1e-21 * abs(total):
            return total
    raise NumericsError(
        f"2F1 connection series did not converge: a={a}, b={b}, c={c}, z={z}"
    )


def gauss_2f1(a, b, c, z: float, *, z_switch: float = 0.75,
              one_minus_z: float | None = None) -> complex:
    """2F1(a, b; c; z) for real z in [0, 1).

    For z <= z_switch: truncated power series with term-ratio stopping
    (stop when |term| < 1e-16 |sum|; more than 10^4 terms raises
    NumericsError).  Above the switch: the standard two-term connection
    formula in powers of 1-z with gamma-function coefficients, which
    requires c - a - b to be non-integer.  Degenerate upper parameters
    (b == c or a == c) use the binomial identity (1-z)^{-a} exactly,
    covering the harmonic parameter set where the connection formula has
    a pole.

    ``one_minus_z`` may be supplied when 1-z is known to better precision
    than 1-z computes in floating point (deep boundary asymptotics).
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if _is_nonpositive_integer(c):
        raise ValueError(f"2F1 pole: c = {c} is a non-positive integer")
    omz = 1.0 - z if one_minus_z is None else float(one_minus_z)
    # z may round to exactly 1.0 for one_minus_z below 2^-53; the connection
    # and binomial paths only consume one_minus_z, which must stay positive.
    if not (0.0 <= z <= 1.0) or omz <= 0.0:
        raise ValueError(f"argument must satisfy 0 <= z < 1, got z = {z}, 1-z = {omz}")
    if b == c:
        return cmath.exp(-a * math.log(omz))
    if a == c:
        return cmath.exp(-b * math.log(omz))
    if z <= z_switch:
        return _f21_series(a, b, c, z)
    cab = c - a - b
    if abs(cab.imag) < 1e-12 and abs(cab.real - round(cab.real)) < 1e-12:
        raise ValueError(
            f"connection formula degenerate: c-a-b = {cab} is (near-)integer"
        )
    ea = np.clongdouble(complex(a))
    eb = np.clongdouble(complex(b))
    ec = np.clongdouble(complex(c))
    ecab = ec - ea - eb
    lomz = np.log(np.clongdouble(omz))
    t1 = np.exp(
        _log_gamma_ext(ec) + _log_gamma_ext(ecab)
        - _log_gamma_ext(ec - ea) - _log_gamma_ext(ec - eb)
    ) * _f21_series_ext(ea, eb, 1.0 - ecab, omz)
    t2 = np.exp(
        _log_gamma_ext(ec) + _log_gamma_ext(-ecab)
        - _log_gamma_ext(ea) - _log_gamma_ext(eb)
        + ecab * lomz
    ) * _f21_series_ext(ec - ea, ec - eb, 1.0 + ecab, omz)
    return complex(t1 + t2)


@dataclass(frozen=True)
class KTypeIndex:
    """Boundary harmonic index: l >= m >= 0 integers with l +- m even."""

    l: int
    m: int

    def __post_init__(self):
        if self.l != int(self.l) or self.m != int(self.m):
            raise ValueError("l and m must be integers")
        if not (self.l >= self.m >= 0):
            raise ValueError(f"need l >= m >= 0, got ({self.l}, {self.m})")
        if (self.l + self.m) % 2 != 0:
            raise ValueError(f"l +- m must be even, got ({self.l}, {self.m})")


def hc_c_function(lam) -> complex:
    """c(lambda) = Gamma(8) Gamma(i lam) / (Gamma(s-3) Gamma(s)), s = (i lam + rho)/2.

    Pole at lam = 0; |c(lambda)| is even in lambda and blows up like
    1/|lambda| at the origin.
    """
    lv = complex(lam)
    if lv == 0:
        raise ValueError("c(lambda) has a pole at lambda = 0")
    s = (1j * lv + RHO) / 2.0
    return cmath.exp(
        log_gamma(8.0) + log_gamma(1j * lv) - log_gamma(s - 3.0) - log_gamma(s)
    )


def _phi_parameters(lam, l: int, m: int) -> tuple[complex, complex, complex]:
    """The 2F1 parameters (a, b, c) of Phi_{lambda,lm}."""
    s = (1j * lam + RHO) / 2.0
    return s + (l + m) / 2.0, s + (l - m) / 2.0 - 3.0, complex(l + 8)


def _phi_prefactor(lam: complex, l: int, m: int) -> complex:
    s = (1j * lam + RHO) / 2.0
    return (
        pochhammer(s, (m + l) // 2)
        * pochhammer(s - 3.0, (l - m) // 2)
        / pochhammer(8.0, l)
    )


def spherical_fn(lam, l: int, m: int, r: float) -> complex:
    """Generalized spherical function Phi_{lambda,lm}(r) for 0 <= r < 1.

    The power (1-r^2)^s is exp(s log(1-r^2)) on the positive real base.
    lam may be a real or a complex number (the harmonic value -i rho makes
    Phi_{lam,00} identically one).
    """
    KTypeIndex(l, m)
    if not (0.0 <= r < 1.0):
        raise ValueError(f"radius must satisfy 0 <= r < 1, got {r}")
    lv = complex(lam)
    a, b, c = _phi_parameters(lv, l, m)
    omz = 1.0 - r * r
    s = (1j * lv + RHO) / 2.0
    return (
        _phi_prefactor(lv, l, m)
        * r ** l
        * cmath.exp(s * math.log(omz))
        * gauss_2f1(a, b, c, r * r, one_minus_z=omz)
    )


def spherical_fn_scaled(lam, l: int, m: int, *, one_minus_r2: float) -> complex:
    """(1-r^2)^{-rho/2} Phi_{lambda,lm}(r), parametrized by 1-r^2.

    For real lam the modulus is bounded in r, so this form stays in range
    arbitrarily close to the boundary where Phi itself underflows; callers
    doing geodesic-radius integrals pass one_minus_r2 = sech^2(s) directly.
    """
    KTypeIndex(l, m)
    omz = float(one_minus_r2)
    if not (0.0 < omz <= 1.0):
        raise ValueError(f"need 0 < 1-r^2 <= 1, got {omz}")
    lv = complex(lam)
    a, b, c = _phi_parameters(lv, l, m)
    z = 1.0 - omz
    r = math.sqrt(z) if z > 0.0 else 0.0
    # (1-r^2)^{s - rho/2} = (1-r^2)^{i lam / 2}
    osc = cmath.exp((1j * lv / 2.0) * math.log(omz))
    return _phi_prefactor(lv, l, m) * r ** l * osc * gauss_2f1(a, b, c, z, one_minus_z=omz)
