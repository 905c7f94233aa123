"""Complex special functions for the spectral side of the analysis.

Contains log-gamma (one Stirling series in 80-bit extended precision),
Pochhammer symbols, the Gauss hypergeometric function for real argument
in [0,1) with complex parameters (one power series, used directly and in
the two-term connection formula in powers of 1-z near the right endpoint,
with a cancellation guard), the Harish-Chandra density factor c(lambda) of
the rank-one exceptional space (rho = 11), and the generalized spherical
functions

    Phi_{lambda,lm}(r) = (8)_l^{-1} (s)_{(m+l)/2} (s-3)_{(l-m)/2} r^l
                         (1-r^2)^s 2F1(s + (l+m)/2, s + (l-m)/2 - 3; l+8; r^2)

with s = (i lambda + rho)/2, indexed by integer pairs l >= m >= 0 with
l +- m even.

One private evaluator takes (lambda, l, m) and lists of r^2 and 1-r^2 and
forms per call what depends on (lambda, l, m) alone: the 2F1 parameters,
the Pochhammer prefactor and, only when some lane takes the connection
path, its two gamma-function factors.  Its connection lanes run as one
clongdouble array series.  poisson.EigenProfile evaluates whole grids in
one call; the public functions here are scalar and evaluate one lane, so
every value comes from the same path.  The module is pure and reentrant;
no caches and no module state.
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


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


# Log-gamma in 80-bit extended precision.  The two connection-formula terms
# share the factor Gamma(+-(c-a-b)); for small |c-a-b| (small spectral
# parameter) they reach ~1e9 while their sum is O(10^2), so the formula is
# assembled in extended precision.  The Stirling series is truncated at
# ~1e-25 after shifting Re z above 16.

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
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
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


def log_gamma(z) -> complex:
    """Log-gamma: the extended-precision Stirling series rounded to double
    (reflection for Re z < 0.5).  exp(log_gamma(z)) equals Gamma(z); the
    imaginary part follows no particular branch cut, which no caller here
    relies on (only exponentials of differences are used)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise ValueError(f"log_gamma pole at z = {z}")
    return complex(_log_gamma_ext(z))


def pochhammer(a, k: int) -> complex:
    """Rising factorial (a)_k = a(a+1)...(a+k-1), with (a)_0 = 1, as the
    direct product."""
    if k < 0 or k != int(k):
        raise ValueError("k must be a nonnegative integer")
    a = complex(a)
    out = complex(1.0)
    for i in range(int(k)):
        out *= a + i
    return out


def _cancellation(a, b, c, z, ratio) -> NumericsError:
    return NumericsError(
        f"2F1 series cancels: a={a}, b={b}, c={c}, z={z}, max |term| / |sum| "
        f"= {ratio:.3e} ({math.log10(ratio):.1f} digits lost)")


def _no_convergence(a, b, c, z, term) -> NumericsError:
    return NumericsError(
        f"2F1 series did not converge: a={a}, b={b}, c={c}, z={z}, "
        f"10000 terms, last |term| = {abs(term):.3e}"
    )


def _f21_series(a, b, c, z, tol: float) -> complex:
    """Power series of 2F1 in Python complex arithmetic, stopped at
    |term| < tol |sum|; see gauss_2f1 for the guard."""
    total = term = peak = 1.0
    for k in range(10_000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total = total + term
        peak = max(peak, abs(term))
        if abs(term) < tol * abs(total):
            ratio = peak / abs(total)
            if tol * ratio > 1e-11:
                raise _cancellation(a, b, c, z, ratio)
            return total
    raise _no_convergence(a, b, c, z, term)


def _f21_lanes(a, b, c, z: np.ndarray, tol: float) -> np.ndarray:
    """The power series of _f21_series for clongdouble parameters, one lane
    per element of the nonempty clongdouble array z.  Each lane runs the
    scalar recurrence in the scalar order and stops at its own term, so it
    is bitwise the clongdouble scalar series; the first lane to cancel or
    pass 10^4 terms raises, naming its z.  Terms come in blocks of up to 32
    per lane (~2k elements at most), accumulated down each lane, so a few
    lanes cost a few array calls per block rather than ~10 per term.
    """
    out = np.empty_like(z)
    lane = np.arange(z.size)
    term, total = np.ones_like(z), np.ones_like(z)
    peak = np.ones(z.shape, dtype=np.longdouble)
    k = 0
    while k < 10_000:
        ks = np.arange(k, k + min(max(2048 // lane.size, 1), 32, 10_000 - k))
        k += ks.size
        steps = ((a + ks) * (b + ks) / ((c + ks) * (ks + 1)))[:, None] * z
        terms = np.multiply.accumulate(np.vstack([term, steps]))[1:]
        totals = np.add.accumulate(np.vstack([total, terms]))[1:]
        peaks = np.maximum.accumulate(np.vstack([peak, np.abs(terms)]))[1:]
        stops = np.abs(terms) < tol * np.abs(totals)
        first = (np.argmax(stops, axis=0), np.arange(lane.size))
        done = stops[first]
        if done.any():
            ratio = peaks[first][done] / np.abs(totals[first][done])
            bad = np.flatnonzero(tol * ratio > 1e-11)
            if bad.size:
                raise _cancellation(a, b, c, z[done][bad[0]], ratio[bad[0]])
            out[lane[done]] = totals[first][done]
        keep = ~done
        if not keep.any():
            return out
        lane, z = lane[keep], z[keep]
        term, total, peak = terms[-1, keep], totals[-1, keep], peaks[-1, keep]
    raise _no_convergence(a, b, c, z[0], term[0])


def _near_integer(x: complex) -> bool:
    return abs(x.imag) < 1e-12 and abs(x.real - round(x.real)) < 1e-12


_Z_SWITCH = 0.75


def _f21_values(a, b, c, z: list, omz: list, z_switch: float = _Z_SWITCH) -> list[complex]:
    """2F1(a, b; c; z) at each lane (z[i], omz[i] = 1 - z[i]), for lists of floats.

    Binomial parameters and the series lanes (z <= z_switch) run per lane in
    Python complex arithmetic.  The connection lanes run as one clongdouble
    array through _f21_lanes, and the connection formula's two gamma-function
    factors are formed once per call, only when some lane takes that path.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if _is_nonpositive_integer(c):
        raise ValueError(f"2F1 pole: c = {c} is a non-positive integer")
    zs, omzs = np.array(z, dtype=float), np.array(omz, dtype=float)
    # z may round to exactly 1.0 for 1-z below 2^-53; the connection and
    # binomial paths only consume 1-z, which must stay positive.
    bad = np.flatnonzero(~((0.0 <= zs) & (zs <= 1.0) & (omzs > 0.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"argument must satisfy 0 <= z < 1, got z = {z[i]}, 1-z = {omz[i]}")
    if b == c or a == c:
        e = a if b == c else b
        return [cmath.exp(-e * math.log(x)) for x in omz]
    conn = zs > z_switch
    out = [None if conn[i] else _f21_series(a, b, c, z[i], 1e-16) for i in range(len(z))]
    if conn.any():
        cab = c - a - b
        if _near_integer(cab):
            raise ValueError(
                f"connection formula degenerate: c-a-b = {cab} is (near-)integer"
            )
        ea, eb, ec = np.clongdouble(a), np.clongdouble(b), np.clongdouble(c)
        ecab, lgc = ec - ea - eb, _log_gamma_ext(ec)
        g1 = lgc + _log_gamma_ext(ecab) - _log_gamma_ext(ec - ea) - _log_gamma_ext(ec - eb)
        g2 = lgc + _log_gamma_ext(-ecab) - _log_gamma_ext(ea) - _log_gamma_ext(eb)
        eomz = omzs[conn].astype(np.clongdouble)
        t1 = np.exp(g1) * _f21_lanes(ea, eb, 1.0 - ecab, eomz, 1e-21)
        t2 = np.exp(g2 + ecab * np.log(eomz)) * _f21_lanes(
            ec - ea, ec - eb, 1.0 + ecab, eomz, 1e-21)
        for i, v in zip(np.flatnonzero(conn), (t1 + t2).astype(complex).tolist()):
            out[i] = v
    return out


def gauss_2f1(a, b, c, z: float, *, z_switch: float = _Z_SWITCH) -> complex:
    """2F1(a, b; c; z) for real z in [0, 1).

    For z <= z_switch: truncated power series with term-ratio stopping
    (stop when |term| < 1e-16 |sum|; more than 10^4 terms raises
    NumericsError).  Above the switch: the standard two-term connection
    formula in powers of 1-z with gamma-function coefficients, assembled
    in extended precision (its two series stop at 1e-21), which requires
    c - a - b to be non-integer.  Degenerate upper parameters (b == c or
    a == c) use the binomial identity (1-z)^{-a} exactly, covering the
    harmonic parameter set where the connection formula has a pole.

    Cancellation guard: a series whose rounding error, estimated as its
    stopping tolerance times its largest |term|, exceeds 1e-11 |sum| raises
    NumericsError naming the digits lost; no other path is tried.

    This is one lane of the list evaluator that the spherical functions and
    ``poisson.EigenProfile`` run over whole grids.
    """
    return _f21_values(a, b, c, [z], [1.0 - z], z_switch)[0]


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


def _spectral_s(lam) -> complex:
    """The spectral exponent s = (i lambda + rho)/2."""
    return (1j * complex(lam) + RHO) / 2.0


def hc_c_function(lam) -> complex:
    """c(lambda) = Gamma(8) Gamma(i lam) / (Gamma(s-3) Gamma(s)), s = (i lam + rho)/2.

    Pole at lam = 0; |c(lambda)| is even in lambda and blows up like
    1/|lambda| at the origin.
    """
    lv = complex(lam)
    if lv == 0:
        raise ValueError("c(lambda) has a pole at lambda = 0")
    s = _spectral_s(lv)
    return cmath.exp(
        log_gamma(8.0) + log_gamma(1j * lv) - log_gamma(s - 3.0) - log_gamma(s)
    )


def _phi_parameters(lam, l: int, m: int) -> tuple[complex, complex, complex]:
    """The 2F1 parameters (a, b, c) of Phi_{lambda,lm}."""
    s = _spectral_s(lam)
    return s + (l + m) / 2.0, s + (l - m) / 2.0 - 3.0, complex(l + 8)


def _phi_scaled(lam, l: int, m: int, z: list, omz: list) -> np.ndarray:
    """(1-r^2)^{-rho/2} Phi_{lambda,lm}(r) at each lane, from lists of
    z = r^2 and omz = 1-r^2, each as the caller has it: z from 1 - omz loses
    r^l's digits at small r, omz from 1 - z loses 2F1's near the boundary.
    The final product stays in Python complex arithmetic per lane."""
    lv = complex(lam)
    s = _spectral_s(lv)
    prefactor = (pochhammer(s, (m + l) // 2) * pochhammer(s - 3.0, (l - m) // 2)
                 / pochhammer(8.0, l))
    return np.array([
        # (1-r^2)^{s - rho/2} = (1-r^2)^{i lam / 2}
        prefactor * math.sqrt(x) ** l * cmath.exp((1j * lv / 2.0) * math.log(y)) * f
        for x, y, f in zip(z, omz, _f21_values(*_phi_parameters(lv, l, m), z, omz))
    ], dtype=complex)


def _phi_at_radii(lam, l: int, m: int, r: list) -> np.ndarray:
    """Phi_{lambda,lm} at each radius of the list r, all in [0, 1)."""
    for x in r:
        if not (0.0 <= x < 1.0):
            raise ValueError(f"radius must satisfy 0 <= r < 1, got {x}")
    z = [x * x for x in r]
    omz = [1.0 - x for x in z]
    scaled = _phi_scaled(lam, l, m, z, omz).tolist()
    return np.array([y ** (RHO / 2) * v for y, v in zip(omz, scaled)], dtype=complex)


def _phi_scaled_at(lam, l: int, m: int, omz: list) -> np.ndarray:
    """(1-r^2)^{-rho/2} Phi_{lambda,lm} at each 1-r^2 of the list omz, all in (0, 1]."""
    for y in omz:
        if not (0.0 < y <= 1.0):
            raise ValueError(f"need 0 < 1-r^2 <= 1, got {y}")
    return _phi_scaled(lam, l, m, [1.0 - y for y in omz], omz)


def spherical_fn(lam, l: int, m: int, r: float) -> complex:
    """Generalized spherical function Phi_{lambda,lm}(r) for 0 <= r < 1:
    (1-r^2)^{rho/2} times the scaled profile of spherical_fn_scaled.

    lam may be a real or a complex number (the harmonic value -i rho makes
    Phi_{lam,00} identically one).  Where the 2F1 power series cancels
    (large |lambda| with r^2 <= 0.75, e.g. lambda = 20 at r = 0.8 or
    lambda = 60 at r = 0.6) this raises NumericsError rather than return a
    value off by more than ~1e-10 (see gauss_2f1).
    """
    KTypeIndex(l, m)
    return _phi_at_radii(lam, l, m, [r]).item()


def spherical_fn_scaled(lam, l: int, m: int, *, one_minus_r2: float) -> complex:
    """(1-r^2)^{-rho/2} Phi_{lambda,lm}(r), parametrized by 1-r^2.

    For real lam the modulus is bounded in r, so this form stays in range
    arbitrarily close to the boundary where Phi itself underflows; callers
    doing geodesic-radius integrals pass one_minus_r2 = sech^2(s) directly.
    """
    KTypeIndex(l, m)
    return _phi_scaled_at(lam, l, m, [float(one_minus_r2)]).item()
