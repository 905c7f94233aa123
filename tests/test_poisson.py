"""Kernels, transforms, norms, inversion functional, CZ harness, molecules."""

import math

import numpy as np
import pytest

from octoplane import geometry, poisson, quadrature
from octoplane.errors import NumericsError
from octoplane.geometry import E1, dist_to_e1, ni_dist, psi_form
from octoplane.poisson import (
    BoundaryConstant,
    BoundaryZonal,
    EigenProfile,
    _geodesic_mean_sq,
    _szego_power,
    boundary_recover_gt,
    cz_suite,
    eta_j,
    hardy_norm,
    m2_norm,
    operator_norm_est,
    poisson_kernel,
    poisson_kernel_lambda,
    poisson_transform,
    szego_kernel,
    szego_matrix,
    weight_omega,
)
from octoplane.quadrature import (
    S15,
    QuadratureSpec,
    gauss_panels,
    sample_sphere,
    spawn_seeds,
    zonal_integrate,
)
from octoplane.special import RHO, hc_c_function, spherical_fn, spherical_fn_scaled
from octoplane.suites import SuiteConfig, run_suite

SPEC = QuadratureSpec(n_mc=200_000, n_gauss=200, seed=1)


def _per_node_ball_integral(integrand, t, spec):
    """Reference ball integral: integrand(x) on the full points x = r theta
    of one sphere sample at every node of the radial rule (16-point panels
    of [0, tanh t] split at 1 - 2^-k)."""
    pts = sample_sphere(min(spec.n_mc, 200_000), spec.seed)
    r_max = math.tanh(t)
    breaks = [1.0 - 2.0 ** (-k) for k in range(1, 60) if 1.0 - 2.0 ** (-k) < r_max]
    r, w = gauss_panels(0.0, r_max, breaks, order=16)
    weight = (1.0 - r * r) ** (-12.0) * r ** 15
    vals = np.array([np.mean(integrand(ri * pts)) for ri in r], dtype=complex)
    return complex(S15 * np.sum(w * weight * vals))


def _count_scaled_calls(monkeypatch) -> list:
    """Route poisson's spherical_fn_scaled through a recorder; returns the
    list that receives ((lam, l, m), values of 1-r^2) per call."""
    calls = []

    def scaled(lam, l, m, *, one_minus_r2):
        calls.append(((lam, l, m), list(one_minus_r2)))
        return spherical_fn_scaled(lam, l, m, one_minus_r2=one_minus_r2)

    monkeypatch.setattr(poisson, "spherical_fn_scaled", scaled)
    return calls


def _generic_callable(x):
    return np.cos(x[:, 0] + 2.0 * x[:, 9]) + 1j * x[:, 5] ** 2


def _generic_omega():
    """A unit boundary point with both slots nonzero, so Phi's cross term is too."""
    omega = np.linspace(1.0, 2.0, 16)
    return omega / np.linalg.norm(omega)


class TestKernels:
    def test_origin(self):
        om = sample_sphere(500, 0)
        assert np.max(np.abs(poisson_kernel(np.zeros(16), om) - 1.0)) < 1e-14

    def test_harmonic_normalization(self):
        val = poisson_transform(-1j * RHO, BoundaryConstant(1.0), 0.7 * E1, SPEC)
        assert abs(val - 1.0) < 1e-8

    def test_lambda_kernel_modulus(self):
        om = sample_sphere(2000, 1)
        x = 0.55 * om[7]
        for lam in (0.5, 2.0):
            lhs = np.abs(poisson_kernel_lambda(lam, x, om))
            rhs = poisson_kernel(x, om) ** 0.5
            assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12

    def test_harmonic_value_reduction(self):
        om = sample_sphere(2000, 2)
        x = 0.4 * om[0]
        lhs = poisson_kernel_lambda(-1j * RHO, x, om)
        rhs = poisson_kernel(x, om)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12

    def test_domain_guard(self):
        om = sample_sphere(4, 3)
        with pytest.raises(ValueError):
            poisson_kernel(1.0 * E1, om)

    def test_szego_power_is_minus_s(self):
        # against the exponent (-i lam - rho)/2 written out; for lam on the
        # negative imaginary axis the two differ only in the sign of a zero
        # imaginary part, which == does not see
        psi = np.array([0.25, 1.0, 3.5])
        for lam in (0.5, -2.0, 1.0 + 0.5j, -1j * RHO, 1j * RHO):
            old = np.exp(((-1j * complex(lam) - RHO) / 2.0) * np.log(psi))
            assert np.all(_szego_power(lam, psi) == old)
        assert np.allclose(_szego_power(-1j * RHO, psi), psi ** (-RHO))

    def test_szego_r_zero(self):
        th = sample_sphere(100, 4)
        assert np.max(np.abs(szego_kernel(1.0, 0.0, th, th[::-1]) - 1.0)) < 1e-14

    def test_szego_shift_inequality_sampled(self):
        th = sample_sphere(200_000, 5)
        om = sample_sphere(200_000, 6)
        psi1 = psi_form(th, om)
        for r in (0.3, 0.9, 0.999):
            psir = psi_form(r * th, om)
            assert np.count_nonzero(np.sqrt(psi1) > 2 * np.sqrt(psir) + 1e-12) == 0

    def test_szego_size_bound_sampled(self):
        # |Psi_r| d^{2 rho} <= 2^rho via the shift inequality
        th = sample_sphere(100_000, 7)
        om = sample_sphere(100_000, 8)
        d22 = ni_dist(th, om) ** (2 * RHO)
        for r in (0.5, 0.99):
            vals = np.abs(szego_kernel(1.0, r, th, om)) * d22
            assert np.max(vals) <= 2.0 ** RHO + 1e-6

    def test_szego_kernel_symmetry(self):
        th = sample_sphere(300, 9)
        om = sample_sphere(300, 10)
        for r in (0.2, 0.8):
            a = poisson_kernel_lambda(1.0, r * th, om)
            b = poisson_kernel_lambda(1.0, r * om, th)
            assert np.max(np.abs(a - b) / np.abs(a)) < 1e-10

    def test_szego_matrix_matches_rowwise(self):
        th = sample_sphere(40, 11)
        om = sample_sphere(50, 12)
        K = szego_matrix(1.5, 0.7, th, om)
        for i in (0, 13, 39):
            row = szego_kernel(1.5, 0.7, th[i][None, :], om)
            assert np.max(np.abs(K[i] - row)) < 1e-12


class TestTransform:
    def test_quadrature_vs_series(self):
        worst = 0.0
        for lam in (0.5, 1.0, 2.0):
            for r in np.arange(0.1, 0.95, 0.1):
                q = poisson_transform(lam, BoundaryConstant(1.0), r * E1, SPEC)
                s = spherical_fn(lam, 0, 0, float(r))
                worst = max(worst, abs(q - s) / (1 + abs(s)))
        assert worst < 1e-6

    def test_factorization(self):
        lam = 1.0
        s = (1j * lam + RHO) / 2
        for r in (0.25, 0.75):
            direct = poisson_transform(lam, BoundaryConstant(1.0), r * E1, SPEC)

            def g(u, v):
                return np.exp((-s) * np.log((1 - r * u) ** 2 + (r * v) ** 2))

            szego_int = zonal_integrate(g, SPEC)
            via = np.exp(s * math.log(1 - r * r)) * szego_int
            assert abs(direct - via) / abs(direct) < 1e-8

    def test_zonal_descriptor_aligned(self):
        lam = 1.0
        val = poisson_transform(lam, BoundaryZonal(lambda u, v: u * u + v * v),
                                0.0 * E1, SPEC)
        assert abs(val - 0.5) < 1e-8

    def test_zonal_descriptor_unaligned_falls_back_to_mc(self):
        lam = 1.0
        f = BoundaryZonal(lambda u, v: u)
        x = 0.3 * sample_sphere(1, 13)[0]
        spec = QuadratureSpec(n_mc=200_000, n_gauss=200, seed=2)
        val, se = poisson_transform(lam, f, x, spec, return_stderr=True)
        assert se > 0
        assert np.isfinite(abs(val))

    def test_linearity(self):
        f1 = lambda w: w[..., 0]
        f2 = lambda w: np.abs(w[..., 9]) + 0.5
        x = 0.5 * sample_sphere(1, 14)[0]
        spec = QuadratureSpec(n_mc=50_000, n_gauss=200, seed=3)
        lhs = poisson_transform(1.0, lambda w: 2 * f1(w) + 3 * f2(w), x, spec)
        rhs = (2 * poisson_transform(1.0, f1, x, spec)
               + 3 * poisson_transform(1.0, f2, x, spec))
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_r_cap_guard(self):
        with pytest.raises(ValueError, match="r_cap"):
            poisson_transform(1.0, BoundaryConstant(1.0), 0.9999 * E1, SPEC)


class TestEigenProfile:
    def test_pointwise_evaluation_matches_spherical_fn(self, monkeypatch):
        prof = EigenProfile(1.0)
        radii = np.array([[0.2, 0.5, 0.2], [0.7, 0.5, 0.2]])
        pts = np.zeros((2, 3, 16))
        for k, (i, j) in enumerate(np.ndindex(2, 3)):
            pts[i, j, k] = radii[i, j]  # a different axis per point, same |x|
        calls = []

        def counted(lam, l, m, r):
            calls.append(list(r))
            return spherical_fn(lam, l, m, r)

        monkeypatch.setattr(poisson, "spherical_fn", counted)
        out = prof(pts)
        assert out.shape == (2, 3)
        assert calls == [[0.2, 0.5, 0.7]]  # one call, each distinct radius once
        for i, j in np.ndindex(2, 3):
            assert out[i, j] == spherical_fn(1.0, 0, 0, radii[i, j])
        single = prof(pts[1, 0])
        assert np.shape(single) == ()
        assert single == spherical_fn(1.0, 0, 0, 0.7)

    def test_index_validated_at_construction(self):
        # the index is checked as spherical_fn checks it, not rounded
        with pytest.raises(ValueError, match="l and m must be integers"):
            EigenProfile(1.0, 2.5, 0.5)
        with pytest.raises(ValueError, match="must be even"):
            EigenProfile(1.0, 1, 0)
        with pytest.raises(ValueError, match="l >= m >= 0"):
            EigenProfile(1.0, 0, 2)
        prof = EigenProfile(1.0, 2.0, 0.0)
        assert (prof.l, prof.m) == (2, 0)
        assert spherical_fn(prof.lam, prof.l, prof.m, 0.5) == spherical_fn(1.0, 2, 0, 0.5)


class TestHardyNorm:
    def test_weight_cancel(self):
        grid = [0.0] + [1 - 2.0 ** (-k) for k in range(1, 9)]

        def F(x):
            r2 = np.sum(np.asarray(x) ** 2, axis=-1)
            return (1.0 - r2) ** (RHO / 2.0)

        res = hardy_norm(F, 2.0, grid, SPEC)
        assert abs(res.value - 1.0) < 1e-6
        assert res.per_r[0] == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound_by_c(self):
        grid = [0.0] + [1 - 2.0 ** (-k / 2) for k in range(1, 20)]
        for lam in (0.5, 1.0, 2.0):
            res = hardy_norm(EigenProfile(lam), 2.0, grid, SPEC)
            assert res.value >= abs(hc_c_function(lam)) * (1 - 1e-3)

    def test_profile_bounded_and_argmax(self):
        grid = [0.0, 0.5, 0.9, 0.99, 0.999]
        res = hardy_norm(EigenProfile(1.0), 2.0, grid, SPEC)
        assert res.value == max(res.per_r)
        assert res.argmax_r in grid
        assert all(np.isfinite(v) for v in res.per_r)

    def test_profile_grid_is_one_call_equal_to_scalar_values(self, monkeypatch):
        grid = [0.0, 0.5, 0.9, 0.99, 0.999]
        prof = EigenProfile(1.0, 2, 2)
        calls = _count_scaled_calls(monkeypatch)
        res = hardy_norm(prof, 2.0, grid, SPEC)
        assert calls == [((1.0, 2, 2), [1.0 - r * r for r in grid])]
        assert res.per_r == tuple(abs(spherical_fn_scaled(1.0, 2, 2, one_minus_r2=1.0 - r * r))
                                  for r in grid)

    def test_nonzero_type_needs_p_two(self):
        # the closed form |scaled Phi| is the L^p sphere mean of P_lam f for
        # every p only for (l, m) = (0, 0); otherwise it is the L^2 mean
        grid = [0.0, 0.5, 0.9]
        with pytest.raises(ValueError, match="L\\^2"):
            hardy_norm(EigenProfile(1.0, 2, 0), 3.0, grid, SPEC)
        assert hardy_norm(EigenProfile(1.0, 2, 2), 2.0, grid, SPEC).value > 0
        radial = EigenProfile(1.0)
        assert (hardy_norm(radial, 3.0, grid, SPEC).per_r
                == hardy_norm(radial, 2.0, grid, SPEC).per_r)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            hardy_norm(EigenProfile(1.0), 2.0, [0.5, 0.99995], SPEC)
        with pytest.raises(ValueError):
            hardy_norm(EigenProfile(1.0), 2.0, [], SPEC)
        with pytest.raises(ValueError):
            hardy_norm(EigenProfile(1.0), 0.5, [0.5], SPEC)
        for F in (EigenProfile(1.0), lambda x: np.ones(len(x))):
            for p in (1.0, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=r"p must lie in \(1, inf\)"):
                    hardy_norm(F, p, [0.5], SPEC)


class TestM2Norm:
    def test_zero_function(self):
        res = m2_norm(lambda x: np.zeros(len(x)), [2.0, 4.0], SPEC)
        assert res.value == 0.0

    def test_dominated_by_hardy(self):
        grid = [0.0] + [1 - 2.0 ** (-k / 2) for k in range(1, 20)]
        ratios = []
        for lam in (0.5, 1.0, 2.0):
            prof = EigenProfile(lam)
            m2 = m2_norm(prof, [4.0, 8.0, 16.0], SPEC)
            hn = hardy_norm(prof, 2.0, grid, SPEC)
            ratios.append(m2.value / hn.value)
        assert max(ratios) < 3.0  # one modest constant for all lambda

    def test_asymptotic_density_matches_c_function(self):
        # (1/t) int |Phi|^2 dmu approaches (pi^8/1260) |c|^2; at t = 64 the
        # normalized ratio should be within ~5% of that limit for all lambda
        target = math.pi ** 8 / 1260.0
        for lam in (0.5, 1.0, 2.0):
            v = m2_norm(EigenProfile(lam), [64.0], SPEC).value ** 2
            ratio = v / abs(hc_c_function(lam)) ** 2
            assert abs(ratio - target) / target < 0.05

    def test_profile_matches_generic_route(self):
        lam = 1.0
        prof = EigenProfile(lam)
        fast = m2_norm(prof, [3.0], SPEC).value
        slow = m2_norm(lambda x: prof(x), [3.0], SPEC).value
        assert abs(fast - slow) / fast < 1e-6

    def test_callable_route_matches_per_node_integrand(self):
        # the sphere means are the same arithmetic, so the values are equal
        spec = QuadratureSpec(n_mc=4000, n_gauss=200, seed=3)
        ts = (0.5, 1.0, 2.0)
        res = m2_norm(_generic_callable, ts, spec)
        ref = [math.sqrt(abs(_per_node_ball_integral(
            lambda x: np.abs(_generic_callable(x)) ** 2, t, spec)) / t) for t in ts]
        assert res.per_t == tuple(ref)


def _per_t_double_loop(F, t):
    """Reference: the rule before the shared lattice, 8-point Gauss-Legendre
    on max(4, ceil(8 t)) equal panels of [0, t], integrated from 0 per t."""
    n_pan = max(4, int(math.ceil(t * 8)))
    edges = np.linspace(0.0, t, n_pan + 1)
    xg, wg = np.polynomial.legendre.leggauss(8)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for xk, wk in zip(xg, wg):
            sgeo = mid + half * xk
            omr2 = 1.0 / math.cosh(sgeo) ** 2
            scaled = spherical_fn_scaled(F.lam, F.l, F.m, one_minus_r2=omr2)
            val = abs(scaled) ** 2 * math.tanh(sgeo) ** 15
            total += wk * half * val
    return S15 * total / t


class TestGeodesicRule:
    PROFILES = [(0.5, 0, 0), (1.0, 2, 0), (1.0, 2, 2)]

    @pytest.mark.parametrize("lam,l,m", PROFILES)
    def test_lattice_grid_matches_per_t_loop_bitwise(self, lam, l, m):
        ts = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 32.0, 64.0]
        prof = EigenProfile(lam, l, m)
        assert _geodesic_mean_sq(prof, ts) == [_per_t_double_loop(prof, t) for t in ts]

    @pytest.mark.parametrize("lam,l,m", PROFILES)
    def test_off_lattice_close_to_per_t_loop(self, lam, l, m):
        ts = [0.3, 1.05, 5.01]
        prof = EigenProfile(lam, l, m)
        ref = [_per_t_double_loop(prof, t) for t in ts]
        for got in (_geodesic_mean_sq(prof, ts), [_geodesic_mean_sq(prof, [t])[0] for t in ts]):
            assert max(abs(g - r) / r for g, r in zip(got, ref)) < 1e-13

    def test_evaluates_each_node_once(self, monkeypatch):
        prof = EigenProfile(1.0)
        calls = _count_scaled_calls(monkeypatch)
        _geodesic_mean_sq(prof, [12.0, 6.0, 8.0, 10.0])
        assert len(calls) == 1
        assert len(calls[0][1]) == len(set(calls[0][1])) == 12 * 8 * 8

    def test_m2_grid_equals_per_t_calls(self):
        invert_grid = (4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 32.0)
        for ts in ((6.0, 8.0, 10.0, 12.0), (4.0, 8.0, 16.0), invert_grid):
            prof = EigenProfile(0.5)
            grid = m2_norm(prof, ts, SPEC)
            assert grid.per_t == tuple(m2_norm(prof, [t], SPEC).value for t in ts)
            gt = boundary_recover_gt(0.5, prof, ts, SPEC)
            assert gt == [boundary_recover_gt(0.5, prof, [t], SPEC)[0] for t in ts]

    def test_grid_validation(self):
        prof = EigenProfile(1.0)
        for bad in ([], [0.0, 4.0], [-4.0, 8.0], [math.inf], [math.nan], [4.0, 400.0]):
            with pytest.raises(ValueError, match="t_grid"):
                m2_norm(prof, bad, SPEC)
            with pytest.raises(ValueError, match="t_grid"):
                boundary_recover_gt(1.0, prof, bad, SPEC)

    def test_largest_t_accepted(self):
        # cosh(t)^2 overflows above t ~ 355.6; up to 350 the rule's nodes stay finite
        prof = EigenProfile(1.0)
        assert math.isfinite(m2_norm(prof, [4.0, 350.0], SPEC).per_t[1])
        assert math.isfinite(boundary_recover_gt(1.0, prof, [4.0, 350.0], SPEC)[1].real)
        with pytest.raises(ValueError, match=r"t in \(0, 350\]"):
            m2_norm(prof, [350.5], SPEC)


class TestInversion:
    def test_radial_closed_form_and_normalization(self):
        kappa, = np.real(boundary_recover_gt(1.0, EigenProfile(1.0), [32.0], SPEC))
        assert kappa > 0
        # measured normalization reused: by construction the ratio is 1 here
        val, = np.real(boundary_recover_gt(1.0, EigenProfile(1.0), [32.0], SPEC))
        assert val / kappa == pytest.approx(1.0, abs=1e-12)

    def test_lambda_and_lm_independence(self):
        kappa, = np.real(boundary_recover_gt(1.0, EigenProfile(1.0), [32.0], SPEC))
        for lam in (0.5, 2.0):
            g, = np.real(boundary_recover_gt(lam, EigenProfile(lam), [32.0], SPEC))
            assert abs(g / kappa - 1.0) < 0.03
        for (l, m) in ((2, 0), (2, 2)):
            g, = np.real(boundary_recover_gt(1.0, EigenProfile(1.0, l, m), [32.0], SPEC))
            assert abs(g / kappa - 1.0) < 0.03

    def test_convergence_envelope(self):
        # |g_{2t} - g_t| decays like 1/t in envelope: compare geometric spans
        lam = 1.0
        g8, g16, g64, g128 = np.real(boundary_recover_gt(lam, EigenProfile(lam),
                                                         [8, 16, 64, 128], SPEC))
        assert abs(g128 - g64) < abs(g16 - g8)

    def test_pole_at_zero_before_any_profile_value(self):
        # c-a-b = 0 at lambda = 0, so the connection coefficients are degenerate;
        # the profile builds them only when first evaluated, after c(lambda)
        with pytest.raises(ValueError, match="pole"):
            boundary_recover_gt(0.0, EigenProfile(0.0), [4.0], SPEC)

    def test_radial_route_ignores_omega(self):
        prof = EigenProfile(1.0)
        a = boundary_recover_gt(1.0, prof, [6.0], SPEC, omega=E1)
        b = boundary_recover_gt(1.0, prof, [6.0], SPEC, omega=-E1)
        assert a == b

    def test_invert_suite_integrates_each_profile_once(self, monkeypatch):
        calls = []

        def mean_sq(F, ts):
            calls.append((F.lam.real, F.l, F.m))
            return [1.0] * len(ts)

        monkeypatch.setattr(poisson, "_geodesic_mean_sq", mean_sq)
        rep = run_suite(SuiteConfig(suite="invert", n_mc=2000, n_gauss=40))
        assert sorted(calls) == [(0.5, 0, 0), (1.0, 0, 0), (1.0, 2, 0), (1.0, 2, 2), (2.0, 0, 0)]
        assert [c.status for c in rep.checks].count("error") == 0

    def test_invert_suite_evaluates_each_profile_in_one_call(self, monkeypatch):
        # the benchmark's special-layer metrics see the inversion work
        # through this one route
        calls = _count_scaled_calls(monkeypatch)
        rep = run_suite(SuiteConfig(suite="invert"))
        profiles = sorted((lam.real, l, m) for (lam, l, m), _ in calls)
        assert profiles == [(0.5, 0, 0), (1.0, 0, 0), (1.0, 2, 0), (1.0, 2, 2), (2.0, 0, 0)]
        assert [c.status for c in rep.checks].count("error") == 0

    def test_mc_route_agrees_with_closed_form(self):
        # plain sphere sampling resolves the kernel only while tanh(t) keeps
        # the radii below ~0.8; beyond that the boundary spike carries the
        # mass on a set Monte Carlo never hits
        lam = 1.0
        prof = EigenProfile(lam)
        spec = QuadratureSpec(n_mc=100_000, n_gauss=200, seed=9)
        closed, = boundary_recover_gt(lam, prof, [1.0], spec)
        mc, = boundary_recover_gt(lam, lambda x: prof(x), [1.0], spec, omega=E1)
        assert abs(mc - closed) / abs(closed) < 0.05

    def test_profile_lambda_must_match(self):
        with pytest.raises(ValueError, match="lambda"):
            boundary_recover_gt(1.0, EigenProfile(2.0), [4.0], SPEC)
        with pytest.raises(ValueError, match="pole"):
            boundary_recover_gt(0.0, EigenProfile(0.0), [4.0], SPEC)

    def test_requires_omega_for_generic(self):
        with pytest.raises(ValueError, match="omega"):
            boundary_recover_gt(1.0, lambda x: np.ones(len(x)), [4.0], SPEC)

    def test_mc_route_requires_unit_omega(self):
        ones = lambda x: np.ones(len(x))
        for bad in (0.5 * E1, 2.0 * E1, np.zeros(16), E1[:8], E1[None, :], np.full(16, np.nan)):
            with pytest.raises(ValueError, match="omega"):
                boundary_recover_gt(1.0, ones, [1.0], SPEC, omega=bad)

    def test_mc_route_matches_per_node_kernel(self):
        # reference: P_{-lam}(x, omega) F(x) assembled from the full points
        # x = r theta at each radial node; the route forms <theta, omega>,
        # Phi(theta, omega) and |theta|^2 once, which moves only rounding
        spec = QuadratureSpec(n_mc=4000, n_gauss=200, seed=3)
        lam, ts = 1.0, (0.5, 1.0, 2.0)
        c2 = abs(hc_c_function(lam)) ** 2
        for omega in (E1, -E1, _generic_omega()):
            got = boundary_recover_gt(lam, _generic_callable, ts, spec, omega=omega)
            for t, g in zip(ts, got):
                ref = _per_node_ball_integral(
                    lambda x: poisson_kernel_lambda(-lam, x, omega) * _generic_callable(x),
                    t, spec) / (t * c2)
                assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_mc_route_forms_sphere_invariants_once(self, monkeypatch):
        phi_rows, samples = [], []
        phi_form, sample_sphere_fn = geometry.phi_form, quadrature.sample_sphere

        def counted_phi(x, y):
            phi_rows.append(np.shape(x)[:-1])
            return phi_form(x, y)

        def counted_sample(n, seed):
            samples.append(n)
            return sample_sphere_fn(n, seed)

        for mod in (geometry, poisson):
            monkeypatch.setattr(mod, "phi_form", counted_phi)
        for mod in (quadrature, poisson):
            monkeypatch.setattr(mod, "sample_sphere", counted_sample)
        spec = QuadratureSpec(n_mc=2000, n_gauss=200, seed=0)
        boundary_recover_gt(1.0, _generic_callable, [0.5, 1.0], spec, omega=_generic_omega())
        assert phi_rows == [(2000,)]
        assert samples == [2000]

    @pytest.mark.xfail(
        strict=True,
        reason="successive differences of g_t are phase-modulated by the oscillating "
        "1/t tail: measured |g32-g16| > |g16-g8| at lambda = 1 (0.55 vs 0.34 in "
        "|c|^2 units) although the envelope does decay",
    )
    def test_cauchy_differences_monotone(self):
        lam = 1.0
        prof = EigenProfile(lam)
        g8, g16, g32 = np.real(boundary_recover_gt(lam, prof, [8, 16, 32], SPEC))
        assert abs(g32 - g16) < abs(g16 - g8)


class TestOperatorNorm:
    def test_rank_one_at_r_zero(self):
        res = operator_norm_est(1.0, 0.0, 128, 0)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.residual < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            operator_norm_est(1.0, 0.5, 8, 0)
        with pytest.raises(ValueError):
            operator_norm_est(1.0, 0.9999, 64, 0)

    def test_moderate_r_stays_near_profile_value(self):
        # at r = 0.5 the kernel is smooth and the sampled norm approximates
        # the largest K-type eigenvalue magnitude (the scaled profile sup)
        res = operator_norm_est(1.0, 0.5, 1500, 3)
        assert 1.0 <= res.value < 10.0

    def test_near_pair_spike_dominates_boundary_r(self):
        # documented estimator behavior: at r close to 1 the closest sampled
        # pair dominates (sigma ~ max |K|/n), far above the true norm scale
        res = operator_norm_est(1.0, 0.99, 1500, 4)
        assert res.value > 50.0


# float.hex values of cz_suite called with one lambda at a time (n_mc =
# 20,000, n_gauss = 200, default r grid), which one call over the whole
# lambda grid must reproduce bitwise.  Both violation counts are 0 at both
# seeds; the size ratios contain no lambda.
_CZ_GOLDEN = {
    5: {
        "size": ("0x1.41d0e648c7c82p+4", "0x1.bdaaa795a22b0p+0", "0x1.0e543992ca1c2p+0"),
        (0.5, "smooth"): ("0x1.9449b40afbf2cp+5", "0x1.0da99181c7d49p+5", "0x1.b9f2158441aa0p+4"),
        (0.5, "truncated"): ("0x1.87a298de3b5c0p-2", "0x1.c1fb5a10b919fp+1", "0x1.72ec811cd2055p+4"),
        (0.5, "hormander"): ("0x1.2b1bac425f794p-1", "0x1.15636f0bca10cp+3", "0x1.2c193e29001a5p+5"),
        (1.0, "smooth"): ("0x1.300c40d709512p+5", "0x1.952b3e00c4722p+4", "0x1.4bfabaade4ae7p+4"),
        (1.0, "truncated"): ("0x1.24a21c7653163p-1", "0x1.3f6ccbb156691p+2", "0x1.b39be2922d0edp+4"),
        (1.0, "hormander"): ("0x1.c1f21c18cf06fp-2", "0x1.a12e52bd9c798p+2", "0x1.c329f9a4ee9f7p+4"),
        (2.0, "smooth"): ("0x1.99c9ba98b15c5p+4", "0x1.0fded1e1ccc1bp+4", "0x1.bd5782a8c8c5dp+3"),
        (2.0, "truncated"): ("0x1.8065d27dc9844p-1", "0x1.53c98829a1810p+2", "0x1.2368fafa5c3e0p+4"),
        (2.0, "hormander"): ("0x1.2f5acda01bc13p-2", "0x1.19043672a8727p+2", "0x1.2f71a7926a7b3p+4"),
    },
    11: {
        "size": ("0x1.4313836eb161cp+4", "0x1.bbcfdf8807623p+0", "0x1.0e356d0d6c59dp+0"),
        (0.5, "smooth"): ("0x1.0a7e795a209f8p+7", "0x1.8149ddcad5bbcp+6", "0x1.5b7d02c6c2c2ep+6"),
        (0.5, "truncated"): ("0x1.87a298de3b5c0p-2", "0x1.c1fb5a10b919fp+1", "0x1.72ec811cd2055p+4"),
        (0.5, "hormander"): ("0x1.32b744bafb662p-1", "0x1.58f5c16e0667bp+2", "0x1.4268e1f7d3a6dp+3"),
        (1.0, "smooth"): ("0x1.9086fd912577dp+6", "0x1.214271e8b5892p+6", "0x1.04d7e60019cc2p+6"),
        (1.0, "truncated"): ("0x1.24a21c7653163p-1", "0x1.3f6ccbb156691p+2", "0x1.b39be2922d0edp+4"),
        (1.0, "hormander"): ("0x1.cd62eb04aae6dp-2", "0x1.032a40c49db2bp+2", "0x1.e43d233916acap+2"),
        (2.0, "smooth"): ("0x1.0d131afe264aep+6", "0x1.832e2761639a5p+5", "0x1.5cf28fa88cde5p+5"),
        (2.0, "truncated"): ("0x1.8065d27dc9844p-1", "0x1.53c98829a1810p+2", "0x1.2368fafa5c3e0p+4"),
        (2.0, "hormander"): ("0x1.370edf4b27001p-2", "0x1.5be0bf6660807p+1", "0x1.4471f758c7febp+2"),
    },
}


class TestCZSuite:
    @pytest.mark.parametrize("seed", list(_CZ_GOLDEN))
    def test_bitwise_golden_values(self, seed):
        rep = cz_suite((0.5, 1.0, 2.0), QuadratureSpec(n_mc=20_000, n_gauss=200, seed=seed))
        golden = {k: [float.fromhex(h) for h in v] for k, v in _CZ_GOLDEN[seed].items()}
        assert rep.lams == (0.5, 1.0, 2.0)
        assert (rep.violations_shift, rep.violations_difference) == (0, 0)
        assert list(rep.size_per_r.values()) == golden["size"]
        for lam in rep.lams:
            for kind, per_lam in (("smooth", rep.smooth_per_r), ("truncated", rep.truncated_per_r),
                                  ("hormander", rep.hormander_per_r)):
                assert list(per_lam[lam]) == list(rep.r_grid)
                assert list(per_lam[lam].values()) == golden[lam, kind], (lam, kind)

    def test_exact_checks_and_constants(self):
        spec = QuadratureSpec(n_mc=150_000, n_gauss=200, seed=5)
        rep = cz_suite((1.0,), spec)
        assert rep.violations_shift == 0
        assert rep.violations_difference == 0
        for per_r in (rep.size_per_r, rep.smooth_per_r[1.0], rep.truncated_per_r[1.0]):
            assert all(math.isfinite(v) for v in per_r.values())
        # size ratio can never exceed 2^rho by the shift inequality
        assert max(rep.size_per_r.values()) <= 2.0 ** RHO
        # smoothness constant stays within a factor 2 across the r grid
        vals = list(rep.smooth_per_r[1.0].values())
        assert max(vals) / min(vals) < 2.0

    def test_truncated_bound_absorbs_lambda(self):
        spec = QuadratureSpec(n_mc=10_000, n_gauss=200, seed=6)
        rep = cz_suite((0.5, 1.0, 2.0), spec)
        consts = [max(per_r.values()) for per_r in rep.truncated_per_r.values()]
        assert max(consts) / min(consts) < 2.0

    def test_empty_lambda_grid_rejected(self):
        with pytest.raises(ValueError, match="empty lambda grid"):
            cz_suite((), SPEC)

    def test_lambda_zero_rejected(self):
        for bad in ((0.0,), (1.0, 0.0), (-0.0, 2.0)):
            with pytest.raises(ValueError, match="lambda must be nonzero"):
                cz_suite(bad, SPEC)

    def test_r_grid_validation(self):
        with pytest.raises(ValueError, match="empty r_grid"):
            cz_suite((1.0,), SPEC, r_grid=())
        for bad in ((1.5,), (0.5, -0.5), (0.9995,), (math.nan,)):
            with pytest.raises(ValueError, match=r"r_grid must lie in \[0, r_cap = 0.999\]"):
                cz_suite((1.0,), SPEC, r_grid=bad)

    def test_forms_each_sample_set_once(self, monkeypatch):
        # theta, omega and theta' are formed once each (Phi and Psi reuse
        # them), plus the Hormander sample and its single probe points
        rows = []
        forms = geometry._forms

        def counted(x):
            rows.append(np.shape(x)[:-1])
            return forms(x)

        for mod in (geometry, poisson):
            monkeypatch.setattr(mod, "_forms", counted)
        cz_suite((1.0,), QuadratureSpec(n_mc=2_000, n_gauss=200, seed=7))
        assert [r for r in rows if r != (1,)] == [(2_000,)] * 4

    def test_hormander_tail_matches_per_kernel_reference(self):
        # reference: one szego_kernel call per (r, probe point, e1), on the
        # sample cz_suite draws for the tail
        spec = QuadratureSpec(n_mc=2_000, n_gauss=200, seed=7)
        lam = 1.0
        rep = cz_suite((lam,), spec)
        om = sample_sphere(2_000, spawn_seeds(spec.seed, 4)[3] + 1)
        d_om = dist_to_e1(om)
        ref = {}
        for r in rep.r_grid:
            worst = 0.0
            for k in range(4):
                th = E1 + 2.0 ** (-k) * np.concatenate([np.zeros(8), np.ones(8) / math.sqrt(8.0)])
                th = th / np.linalg.norm(th)
                mask = d_om > 2.0 * float(dist_to_e1(th[None, :])[0])
                if not mask.any():
                    continue
                vals = np.abs(szego_kernel(lam, r, om, th[None, :])
                              - szego_kernel(lam, r, om, E1[None, :]))
                worst = max(worst, float(np.mean(vals * mask)) / (1.0 + abs(lam)))
            ref[r] = worst
        assert rep.hormander_per_r == {lam: ref}


class TestMolecules:
    def test_eta_values(self):
        assert eta_j(0) == 0.0
        assert eta_j(1) == pytest.approx(0.8, abs=1e-15)
        prev = 0.0
        for j in range(1, 20):
            cur = eta_j(j)
            assert prev < cur < 1.0
            prev = cur
        assert eta_j(40) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            eta_j(-1)

    def test_omega_weight_diagonal(self):
        th = sample_sphere(10, 7)
        w = weight_omega(0.25, 1.0, th, th)
        assert np.max(np.abs(w - 0.25 ** (-2 * RHO))) < 1e-6
        with pytest.raises(ValueError):
            weight_omega(0.0, 1.0, th, th)
        with pytest.raises(ValueError):
            weight_omega(0.5, 1.5, th, th)

    def test_delta_j_cancellation(self):
        spec = QuadratureSpec(n_mc=1000, n_gauss=200, seed=8)
        for j in range(0, 7):
            rj, rj1 = eta_j(j), eta_j(j + 1)

            def g(u, v):
                q1 = ((1 - rj1 ** 2) / ((1 - rj1 * u) ** 2 + (rj1 * v) ** 2)) ** RHO
                q0 = ((1 - rj ** 2) / ((1 - rj * u) ** 2 + (rj * v) ** 2)) ** RHO
                return q1 - q0

            assert abs(zonal_integrate(g, spec)) < 1e-8
