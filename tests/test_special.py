"""Special functions against independent oracles (scipy, mpmath, closed forms)."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as ss

from octoplane import special
from octoplane.errors import NumericsError
from octoplane.special import (
    RHO,
    KTypeIndex,
    gauss_2f1,
    hc_c_function,
    log_gamma,
    pochhammer,
    spherical_fn,
    spherical_fn_scaled,
)

mp.mp.dps = 40


class TestLogGamma:
    def test_classical_values(self):
        assert abs(log_gamma(1.0)) < 1e-14
        assert abs(log_gamma(2.0)) < 1e-14
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_recurrence(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z = complex(rng.uniform(-5, 8), rng.uniform(-8, 8))
            if abs(z.imag) < 1e-2 and abs(z.real - round(z.real)) < 1e-2:
                continue
            g1, g0 = cmath.exp(log_gamma(z + 1)), cmath.exp(log_gamma(z))
            assert abs(g1 - z * g0) / abs(g1) < 1e-12

    def test_imaginary_axis_reflection_oracle(self):
        # |Gamma(i t)|^2 = pi / (t sinh(pi t))
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            lhs = abs(cmath.exp(log_gamma(1j * t))) ** 2
            rhs = math.pi / (t * math.sinh(math.pi * t))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        zs = [complex(rng.uniform(0.5, 20), rng.uniform(-15, 15)) for _ in range(200)]
        # Re z < 0.5 takes the reflection branch; stay away from the poles
        zs += [z for z in (complex(rng.uniform(-5, 0.5), rng.uniform(-15, 15))
                           for _ in range(200))
               if abs(z - round(z.real)) > 0.05]
        for z in zs:
            mine = cmath.exp(log_gamma(z))
            ref = cmath.exp(complex(ss.loggamma(z)))
            assert abs(mine - ref) / abs(ref) < 1e-12, z

    def test_pole_rejected(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError, match="pole"):
                log_gamma(z)


class TestPochhammer:
    def test_basics(self):
        assert pochhammer(3.7 + 2j, 0) == 1.0
        assert pochhammer(8.0, 3) == pytest.approx(720.0, rel=1e-15)

    def test_gamma_ratio_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = complex(rng.uniform(0.3, 8), rng.uniform(-5, 5))
            k = int(rng.integers(0, 21))
            ref = complex(mp.gamma(mp.mpc(a) + k) / mp.gamma(mp.mpc(a)))
            assert abs(pochhammer(a, k) - ref) / max(abs(ref), 1e-300) < 1e-12

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)

    def test_overflow_raises(self):
        # (8)_165 ~ 4.2e307 is the last finite one; (8)_166 overflows
        assert cmath.isfinite(pochhammer(8.0, 165))
        with pytest.raises(NumericsError, match=r"a = \(8\+0j\), k = 166"):
            pochhammer(8.0, 166)
        # the Phi prefactor divides by (8)_l, so large l raises instead of NaN
        with pytest.raises(NumericsError, match="pochhammer overflows"):
            spherical_fn_scaled(0.5, 170, 0, one_minus_r2=0.75)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(1.5 + 2j, 0.3, 4.0, 0.0) == 1.0 + 0j

    def test_binomial_identity(self):
        # 2F1(a, b; b; z) = (1-z)^{-a}
        assert gauss_2f1(11.0, 8.0, 8.0, 0.5) == pytest.approx(2048.0, rel=1e-13)
        v = gauss_2f1(2.5 + 1j, 9.0, 9.0, 0.9)
        ref = cmath.exp(-(2.5 + 1j) * math.log(0.1))
        assert abs(v - ref) / abs(ref) < 1e-13

    def test_real_parameters_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            a = rng.uniform(0.1, 5)
            b = rng.uniform(0.1, 5)
            c = rng.uniform(5.2, 9)  # keep c - a - b off integers
            z = rng.uniform(0, 0.97)
            if abs((c - a - b) - round(c - a - b)) < 1e-3:
                continue
            mine = gauss_2f1(a, b, c, z)
            ref = ss.hyp2f1(a, b, c, z)
            assert abs(mine - ref) / abs(ref) < 1e-11

    def test_complex_parameters_against_mpmath(self):
        for lam in (0.3, 1.0, 3.0):
            s = (1j * lam + RHO) / 2
            for (l, m) in ((0, 0), (4, 2), (9, 3), (10, 10)):
                a, b, c = s + (l + m) / 2, s + (l - m) / 2 - 3, l + 8.0
                for z in (0.2, 0.74, 0.76, 0.95, 0.999):
                    mine = gauss_2f1(a, b, c, z)
                    ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(z)))
                    assert abs(mine - ref) / abs(ref) < 1e-10, (lam, l, m, z)

    def test_seam_consistency(self):
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            s = (1j * lam + RHO) / 2
            for l in range(0, 11):
                for m in range(l % 2, l + 1, 2):
                    a, b, c = s + (l + m) / 2, s + (l - m) / 2 - 3, l + 8.0
                    for z in (0.75 - 1e-6, 0.75 + 1e-6):
                        via_series = gauss_2f1(a, b, c, z, z_switch=0.9)
                        via_conn = gauss_2f1(a, b, c, z, z_switch=0.5)
                        worst = max(worst, abs(via_series - via_conn) / abs(via_series))
        assert worst < 1e-9

    def test_ode_residual(self):
        h = 1e-4
        for lam in (0.5, 2.0):
            s = (1j * lam + RHO) / 2
            a, b, c = s + 1, s - 2, 10.0
            for z in (0.25, 0.6, 0.85):
                w0 = gauss_2f1(a, b, c, z)
                wp = gauss_2f1(a, b, c, z + h)
                wm = gauss_2f1(a, b, c, z - h)
                res = (
                    z * (1 - z) * (wp - 2 * w0 + wm) / h**2
                    + (c - (a + b + 1) * z) * (wp - wm) / (2 * h)
                    - a * b * w0
                )
                assert abs(res) / max(abs(a * b * w0), 1.0) < 1e-5

    def test_degenerate_and_pole_errors(self):
        with pytest.raises(ValueError, match="pole"):
            gauss_2f1(1.0, 2.0, -3.0, 0.5)
        with pytest.raises(ValueError, match="degenerate"):
            gauss_2f1(2.0, 3.0, 6.0, 0.9)  # c - a - b = 1, integer, a != c != b
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 2.0, 4.0, 1.5)

    def test_series_nonconvergence_diagnostics(self):
        with pytest.raises(NumericsError, match="terms"):
            gauss_2f1(1.0 + 1j, 2.0, 4.5, 0.999999, z_switch=1.0 - 1e-12)


class TestCFunction:
    def test_gamma_cancellation_value(self):
        # at lam = -11i the exponent collapses and the quotient is
        # Gamma(8) Gamma(11) / (Gamma(8) Gamma(11)) = 1
        assert hc_c_function(-11j) == pytest.approx(1.0, rel=1e-12)

    def test_even_modulus(self):
        for lam in (0.5, 1.0, 2.0):
            assert abs(hc_c_function(lam)) == pytest.approx(
                abs(hc_c_function(-lam)), rel=1e-12
            )

    def test_simple_pole_at_origin(self):
        v1 = abs(hc_c_function(1e-3)) * 1e-3
        v2 = abs(hc_c_function(1e-5)) * 1e-5
        assert v2 > 0
        assert v1 == pytest.approx(v2, rel=1e-2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hc_c_function(0.0)

    def test_against_mpmath(self):
        for lam in (0.25, 1.0, 4.0):
            s = mp.mpc(11, lam) / 2
            ref = complex(mp.gamma(8) * mp.gamma(mp.mpc(0, lam))
                          / (mp.gamma(s - 3) * mp.gamma(s)))
            assert abs(hc_c_function(lam) - ref) / abs(ref) < 1e-12


def _phi_oracle(lam, l, m, r):
    s = mp.mpc(11, lam) / 2 if not isinstance(lam, complex) else (mp.mpc(0, 1) * lam + 11) / 2
    a = s + mp.mpf(l + m) / 2
    b = s + mp.mpf(l - m) / 2 - 3
    c = mp.mpf(l + 8)
    pref = (mp.rf(s, (m + l) // 2) * mp.rf(s - 3, (l - m) // 2) / mp.rf(mp.mpf(8), l))
    val = pref * mp.mpf(r) ** l * (1 - mp.mpf(r) ** 2) ** s * mp.hyp2f1(a, b, c, mp.mpf(r) ** 2)
    return complex(val)


class TestSphericalFn:
    def test_index_validation(self):
        KTypeIndex(4, 2)
        with pytest.raises(ValueError):
            KTypeIndex(2, 3)
        with pytest.raises(ValueError):
            KTypeIndex(3, 2)  # l + m odd
        with pytest.raises(ValueError):
            spherical_fn(1.0, 2, 1, 0.5)

    def test_at_origin(self):
        for lam in (0.5, 1.0, 7.0):
            assert spherical_fn(lam, 0, 0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_harmonic_case_is_one(self):
        for r in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
            assert abs(spherical_fn(-1j * RHO, 0, 0, r) - 1.0) < 1e-10

    def test_against_mpmath_oracle(self):
        for lam in (0.5, 2.0):
            for (l, m) in ((0, 0), (2, 0), (2, 2), (6, 2)):
                for r in (1e-5, 0.3, 0.8, 0.99):
                    mine = spherical_fn(lam, l, m, r)
                    ref = _phi_oracle(lam, l, m, r)
                    assert abs(mine - ref) / max(abs(ref), 1e-300) < 1e-9

    def test_scaled_version_consistent(self):
        for lam in (0.5, 1.0):
            for r in (0.2, 0.9, 0.999):
                direct = spherical_fn(lam, 2, 0, r) * (1 - r * r) ** (-RHO / 2)
                scaled = spherical_fn_scaled(lam, 2, 0, one_minus_r2=1 - r * r)
                assert abs(direct - scaled) / abs(scaled) < 1e-9

    def test_scaled_bounded_to_the_boundary(self):
        # the scaled profile stays in range where Phi itself underflows
        for sgeo in (5.0, 20.0, 300.0):
            omr2 = 1.0 / math.cosh(sgeo) ** 2
            v = spherical_fn_scaled(1.0, 0, 0, one_minus_r2=omr2)
            assert np.isfinite(abs(v))
            assert abs(v) < 2.5 * abs(hc_c_function(1.0))

    def test_uniform_bound_grid_saturation(self):
        def grid_max(lam, l_cap):
            best = 0.0
            for l in range(0, l_cap + 1, 2):
                for m in range(0, l + 1, 2):
                    for r in (0.5, 0.9, 0.99, 0.999):
                        best = max(best, abs(spherical_fn_scaled(
                            lam, l, m, one_minus_r2=1 - r * r)))
            return best

        for lam in (0.5, 1.0, 2.0):
            m10, m20 = grid_max(lam, 10), grid_max(lam, 20)
            assert (m20 - m10) / m10 < 0.10

    def test_accurate_or_raises_against_mpmath(self):
        # the power series cancels for large lambda; the guard must raise
        # rather than return a value off by more than 1e-10
        raised = []
        for lam in (1e-4, 0.5, 2.0, 20.0, 60.0, 150.0):
            for (l, m) in ((0, 0), (10, 0), (20, 20)):
                for r in (0.3, 0.6, 0.8):
                    try:
                        mine = spherical_fn(lam, l, m, r)
                    except NumericsError:
                        raised.append((lam, l, m, r))
                        continue
                    ref = _phi_oracle(lam, l, m, r)
                    assert abs(mine - ref) / abs(ref) < 1e-10, (lam, l, m, r)
        assert (60.0, 0, 0, 0.6) in raised
        with pytest.raises(NumericsError, match="digits lost"):
            spherical_fn(60.0, 0, 0, 0.6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spherical_fn(1.0, 0, 0, 1.0)
        with pytest.raises(ValueError):
            spherical_fn(1.0, 0, 0, -0.1)

    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
    def test_array_range_error_names_the_element(self, bad):
        # one array test for the whole input; NaN fails every range
        with pytest.raises(ValueError, match=f"0 <= r < 1, got {bad}$"):
            spherical_fn(1.0, 2, 0, [[0.1, 0.5], [bad, 0.2]])
        with pytest.raises(ValueError, match=f"0 < 1-r\\^2 <= 1, got {bad}$"):
            spherical_fn_scaled(1.0, 2, 0, one_minus_r2=np.array([0.5, bad, 2.0]))
        with pytest.raises(ValueError, match=f"got {bad}$"):
            spherical_fn_scaled(1.0, 2, 0, one_minus_r2=bad)
        with pytest.raises(ValueError, match="got 0.0$"):
            spherical_fn_scaled(1.0, 2, 0, one_minus_r2=[0.5, 0.0])

    def test_float_input_returns_python_complex(self):
        assert type(spherical_fn(1.0, 2, 0, 0.5)) is complex
        assert type(spherical_fn(1.0, 2, 0, np.float64(0.5))) is complex
        assert type(spherical_fn_scaled(1.0, 2, 0, one_minus_r2=0.75)) is complex

    def test_array_input_keeps_its_shape(self):
        radii = np.array([[0.0, 0.3, 0.9], [0.5, 0.99, 0.3]])  # both 2F1 paths
        got = spherical_fn(1.0, 2, 0, radii)
        assert got.shape == (2, 3) and got.dtype == complex
        assert got.tolist() == [[spherical_fn(1.0, 2, 0, r) for r in row] for row in radii.tolist()]
        omz = 1.0 - radii * radii
        got = spherical_fn_scaled(1.0, 2, 0, one_minus_r2=omz)
        assert got.shape == (2, 3)
        assert got.tolist() == [[spherical_fn_scaled(1.0, 2, 0, one_minus_r2=y) for y in row]
                                for row in omz.tolist()]
        assert spherical_fn(1.0, 2, 0, np.empty((0, 4))).shape == (0, 4)


# spherical_fn_scaled(lam, l, m, one_minus_r2=omz) as (omz, real.hex(), imag.hex()),
# recorded from the per-node scalar implementation that preceded the array
# evaluator, which must reproduce them bit for bit; omz = 0.9, 0.5 and 0.26
# (r^2 <= 0.74) take the power series, omz = 0.24 and below (r^2 >= 0.76)
# the connection formula
_GOLDEN_SCALED = {
    (0.5, 0, 0): (
        (0.9, "0x1.32008326965afp+0", "0x0.0p+0"),
        (0.26, "0x1.d6adda980e286p+2", "-0x1.2000000000000p-48"),
        (0.24, "0x1.03d8e213a6a93p+3", "-0x1.0000000000000p-51"),
        (0.001, "0x1.85faef64a7e2dp+7", "0x1.0000000000000p-46"),
    ),
    (1.0, 2, 0): (
        (0.9, "0x1.8456215a29fe8p-6", "0x1.cc4027874e374p-8"),
        (0.26, "0x1.d7b8436d446f7p+0", "0x1.1789a33744ffcp-1"),
        (0.24, "0x1.12be01d11967bp+1", "0x1.459ed2beeeb3bp-1"),
        (0.1, "0x1.0abf8c5d131adp+3", "0x1.3c2563fc886bdp+1"),
    ),
    (2.0, 2, 2): (
        (0.5, "0x1.8073af72540f6p-1", "0x1.09854ecfe1a72p-2"),
        (0.26, "0x1.5833e7a9409e6p+1", "0x1.db720e4408391p-1"),
        (0.24, "0x1.84c08011e6506p+1", "0x1.0c7d953a67d06p+0"),
        (1e-09, "-0x1.29b623d26d04ap+3", "-0x1.9b3a352a06ef6p+1"),
    ),
    (1.0, 20, 0): (
        (0.9, "0x1.5012380cf8fe8p-57", "0x1.318ada775124ep-54"),
        (0.26, "0x1.70269a0835aa4p-18", "0x1.4eb538bd78ad8p-15"),
        (0.24, "0x1.5dbf793f693c0p-17", "0x1.3dfa363961eddp-14"),
        (0.001, "0x1.d87e961e594c2p+2", "0x1.ad92af3177644p+5"),
    ),
    (20.0, 0, 0): (
        (0.9, "0x1.169c39bc14433p-2", "0x1.0000000000000p-55"),
        (0.24, "-0x1.1a8710ce7898cp-13", "0x0.0p+0"),
        (0.1, "0x1.1c7d2e24868d8p-14", "0x1.b000000000000p-63"),
        (0.001, "-0x1.27af9bf1a3c77p-14", "-0x1.6700000000000p-63"),
    ),
    (20.0, 20, 0): (
        (0.5, "0x1.9f79b6b37d7e1p-16", "-0x1.1b512ab83b782p-15"),
        (0.26, "0x1.ff96a071837a8p-14", "-0x1.5cdb83ce2cf2bp-13"),
        (0.24, "0x1.faea6316b722cp-16", "-0x1.59abc958409a9p-15"),
        (0.1, "-0x1.0aa35ea5c0feap-14", "0x1.6ba58f05d9176p-14"),
    ),
}


def _f21_series(a, b, c, z, tol):
    """The scalar power series of 2F1 in Python complex arithmetic that the
    lanes replaced: the reference they must equal bit for bit."""
    total = term = peak = 1.0
    for k in range(10_000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total = total + term
        peak = max(peak, abs(term))
        if abs(term) < tol * abs(total):
            ratio = peak / abs(total)
            if tol * ratio > 1e-11:
                raise special._cancellation(a, b, c, z, ratio)
            return total
    raise special._no_convergence(a, b, c, z, term)


def _same_bits(x: complex, y: complex) -> bool:
    return all(u.hex() == v.hex() for u, v in ((x.real, y.real), (x.imag, y.imag)))


class TestOneSeries:
    # z = r^2 in [0, 0.75]: the lanes the series path takes
    ZS = [0.0, 1e-9, 0.123456789, 0.5 ** 0.5] + np.linspace(0.0, 0.75, 31)[1:].tolist()

    @pytest.mark.parametrize("lam", [1e-4, 0.5, 1.0, 2.0, 20.0])
    def test_complex_lanes_equal_the_scalar_series(self, lam):
        for l in range(21):
            for m in range(l % 2, l + 1, 2):
                a, b, c = special._phi_parameters(lam, l, m)
                good, want = [], []
                for z in self.ZS:
                    try:
                        want.append(_f21_series(a, b, c, z, 1e-16))
                        good.append(z)
                    except NumericsError as exc:
                        # the lanes raise where the reference raises
                        kind = str(exc).split(":")[0]
                        with pytest.raises(NumericsError, match=kind):
                            special._f21_lanes(a, b, c, np.array([z], dtype=complex), 1e-16)
                got = special._f21_lanes(a, b, c, np.array(good, dtype=complex), 1e-16)
                assert got.dtype == complex
                for z, g, w in zip(good, got.tolist(), want):
                    assert _same_bits(g, w), (lam, l, m, z)

    def test_many_lanes_take_blocks_of_two_terms(self):
        # above 1024 lanes a block holds two terms per lane; a one-term block
        # would multiply outside the accumulate's scalar loop
        a, b, c = special._phi_parameters(1.0, 20, 0)
        z = np.linspace(0.0, 0.75, 2500)
        got = special._f21_lanes(a, b, c, z.astype(complex), 1e-16).tolist()
        assert all(_same_bits(g, _f21_series(a, b, c, x, 1e-16)) for g, x in zip(got, z.tolist()))

    def test_first_lane_to_fail_in_term_order_is_named(self):
        # 2F1(-50.5, 1; 1; z) = (1-z)^50.5 cancels at both lanes; the smaller z
        # stops first, so it is named although it comes second
        a, b, c = -50.5 + 0j, 1.0 + 0j, 1.0 + 0j
        with pytest.raises(NumericsError, match=r"cancels: .*z=\(0\.9\+0j\)"):
            special._f21_lanes(a, b, c, np.array([0.95, 0.9], dtype=complex), 1e-16)

    def test_one_call_per_series_and_per_connection_term(self, monkeypatch):
        calls = []
        f21_lanes = special._f21_lanes

        def count(a, b, c, z, tol):
            calls.append((z.dtype, z.size, tol))
            return f21_lanes(a, b, c, z, tol)

        monkeypatch.setattr(special, "_f21_lanes", count)
        spherical_fn(1.0, 2, 0, [0.3, 0.95, 0.5, 0.99, 0.1])
        assert calls == [(np.dtype(complex), 3, 1e-16),
                         (np.dtype(np.clongdouble), 2, 1e-21),
                         (np.dtype(np.clongdouble), 2, 1e-21)]


class TestCoefficientPath:
    @pytest.mark.parametrize("lam,l,m", list(_GOLDEN_SCALED))
    def test_bitwise_golden_values(self, lam, l, m):
        points = _GOLDEN_SCALED[lam, l, m]
        golden = [complex(float.fromhex(re), float.fromhex(im)) for _, re, im in points]
        omz = [p[0] for p in points]
        assert [spherical_fn_scaled(lam, l, m, one_minus_r2=y) for y in omz] == golden
        assert spherical_fn_scaled(lam, l, m, one_minus_r2=np.array(omz)).tolist() == golden

    def test_lane_failure_names_its_z(self):
        # 2F1(-50.5, 1; 1; z) = (1-z)^50.5: at z = 0.9 the terms reach ~1e13
        # around a sum of ~1e-51, while the lanes at small z are well conditioned
        a, b, c = (np.clongdouble(x) for x in (-50.5, 1.0, 1.0))
        lanes = np.array([0.01, 0.9, 0.02], dtype=np.clongdouble)
        with pytest.raises(NumericsError, match=r"cancels: .*z=\(0\.9\+0j\)"):
            special._f21_lanes(a, b, c, lanes, 1e-21)
        good = special._f21_lanes(a, b, c, lanes[[0, 2]], 1e-21)
        assert np.allclose(good.astype(complex), [0.99 ** 50.5, 0.98 ** 50.5], rtol=1e-15)
        # the series at z close to 1 passes 10^4 terms
        a, b, c = np.clongdouble(1 + 1j), np.clongdouble(2.0), np.clongdouble(4.5)
        lanes = np.array([0.1, 0.999999, 0.2], dtype=np.clongdouble)
        with pytest.raises(NumericsError, match=r"did not converge: .*z=\(0\.999999\+0j\)"):
            special._f21_lanes(a, b, c, lanes, 1e-21)

    def test_lanes_equal_the_scalar_clongdouble_series(self):
        a, b, c = (np.clongdouble(x) for x in special._phi_parameters(0.5, 20, 0))
        lanes = np.array([0.25, 0.1, 1e-3, 1e-9], dtype=np.clongdouble)
        got = special._f21_lanes(a, b, 1.0 - (c - a - b), lanes, 1e-21)
        for z, v in zip(lanes, got):
            total = term = 1.0
            for k in range(10_000):
                term *= (a + k) * (b + k) / ((1.0 - (c - a - b) + k) * (k + 1)) * z
                total = total + term
                if abs(term) < 1e-21 * abs(total):
                    break
            assert v == total

    def test_log_gammas_per_call_not_per_lane(self, monkeypatch):
        # the connection formula's gamma factors are formed once per call,
        # however many lanes take that path
        counted = []
        log_gamma_ext = special._log_gamma_ext

        def count(z):
            counted.append(z)
            return log_gamma_ext(z)

        monkeypatch.setattr(special, "_log_gamma_ext", count)
        per_call = []
        for omz in ([0.1], np.linspace(0.001, 0.2, 100)):
            counted.clear()
            assert spherical_fn_scaled(1.0, 2, 0, one_minus_r2=omz).shape == (len(omz),)
            per_call.append(len(counted))
        assert per_call[0] == per_call[1] > 0

    def test_series_only_profile_takes_no_log_gamma(self, monkeypatch):
        def refuse(z):
            raise AssertionError(f"log-gamma evaluated at {z}")

        monkeypatch.setattr(special, "_log_gamma_ext", refuse)
        radii = [0.0, 0.3, 0.5, 0.8, 0.86]  # r^2 <= 0.75 throughout
        got = spherical_fn(1.0, 2, 0, radii).tolist()
        assert got == [spherical_fn(1.0, 2, 0, r) for r in radii]
        assert spherical_fn_scaled(1.0, 2, 0, one_minus_r2=[1.0, 0.5, 0.26]).tolist() == [
            spherical_fn_scaled(1.0, 2, 0, one_minus_r2=y) for y in (1.0, 0.5, 0.26)]

    def test_harmonic_profile_takes_no_log_gamma(self, monkeypatch):
        def refuse(z):
            raise AssertionError(f"log-gamma evaluated at {z}")

        monkeypatch.setattr(special, "_log_gamma_ext", refuse)
        radii = [0.0, 0.3, 0.5, 0.9, 0.99, 0.999]
        got = spherical_fn(-1j * RHO, 0, 0, radii).tolist()
        assert got == [spherical_fn(-1j * RHO, 0, 0, r) for r in radii]
        assert got[:2] == [1.0, 1.0]
        assert max(abs(v - 1.0) for v in got) < 1e-10


@pytest.mark.parametrize("lambdas, points", [((1.0,), 3), ((0.5, 1.0, 2.0), 6)])
def test_2f1_ode_record_counts_the_points_it_evaluates(lambdas, points):
    # three z points for each of the first two lambdas
    from octoplane.suites import SuiteConfig, run_suite

    report = run_suite(SuiteConfig(suite="special", lambdas=lambdas))
    checks = {c.check_id: c for c in report.checks}
    assert checks["sp-2f1-ode"].n_samples == points
