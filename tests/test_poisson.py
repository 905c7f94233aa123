"""Kernels, transforms, norms, inversion functional, CZ harness, molecules."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from octoplane import geometry, octonion, poisson, quadrature, special
from octoplane.errors import NumericsError
from octoplane.geometry import E1, dist_to_e1, ni_dist, psi_form
from octoplane.poisson import (
    BoundaryConstant,
    EigenProfile,
    _geodesic_mean_sq,
    _szego_power,
    boundary_recover_gt,
    cz_suite,
    hardy_norm,
    m2_norm,
    operator_norm_est,
    poisson_kernel,
    poisson_kernel_lambda,
    poisson_transform,
    szego_kernel,
    szego_matrix,
)
from octoplane.quadrature import (
    S15,
    QuadratureSpec,
    gauss_panels,
    sample_sphere,
    spawn_seeds,
    sphere_average,
    zonal_integrate,
)
from octoplane.special import RHO, hc_c_function, spherical_fn, spherical_fn_scaled
from octoplane.suites import SuiteConfig, _check_seed, run_suite

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


def _serial_sphere(n, seed):
    """The whole-array construction of sample_sphere: one (n, 16) Gaussian
    draw divided by the norms of its rows."""
    x = np.random.default_rng(seed).standard_normal((n, 16))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


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


def _whole_szego_matrix(lam, r, thetas, omegas):
    """szego_matrix's formula on the whole point sets, in one pass."""
    ft, fo = (geometry._forms(np.ascontiguousarray(x.T)) for x in (thetas, omegas))
    return _szego_power(lam, geometry._psi_r(r, thetas @ omegas.T, geometry._phi_gram(ft, fo)))


def _szego_blocks_match_whole(ns, m) -> bool:
    """szego_matrix equals _whole_szego_matrix bit for bit for every n in ns,
    at m omegas and three (lambda, r)."""
    om = sample_sphere(m, 22)
    for n in ns:
        th = sample_sphere(n, 21)
        for lam, r in ((1.0, 0.9), (0.5, 0.99), (2.0, 0.0)):
            got, want = szego_matrix(lam, r, th, om), _whole_szego_matrix(lam, r, th, om)
            if (got.dtype, got.shape, got.tobytes()) != (want.dtype, want.shape, want.tobytes()):
                return False
    return True


_B = poisson._SZEGO_ROWS


class TestSzegoMatrix:
    @pytest.mark.parametrize("n", [1, 2, 7, _B - 1, _B, _B + 1, 2 * _B + 1, 2_000])
    def test_blocks_equal_the_whole_matrix(self, n):
        # _B + 1 and 2 _B + 1 would end in a one-row block, which joins the
        # block before it.  m = 1,000 is a multiple of 8, where BLAS computes
        # each entry of a block as it does in the whole product for any
        # number of BLAS threads
        assert _szego_blocks_match_whole([n], 1_000)

    def test_blocks_equal_the_whole_matrix_on_one_blas_thread(self):
        # at m = 1,999 and 333 the last columns take BLAS's edge kernels,
        # which group rows by 12 on the measured host; blocks that start at
        # multiples of 12 rows keep those groups on one BLAS thread, as
        # perfbench runs it.  BLAS reads its thread count at import, so the
        # check runs in its own interpreter
        src = os.path.dirname(os.path.dirname(poisson.__file__))
        tests = os.path.dirname(__file__)
        path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
        code = ("from test_poisson import _B, _szego_blocks_match_whole as ok; "
                "print(ok([7, _B + 1, 2 * _B + 1, 5 * _B + 13], 1_999) and ok([2 * _B + 1], 333))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["True"]

    def test_one_row_blocks_never_form(self, monkeypatch):
        rows = []
        forms_of = poisson._forms
        monkeypatch.setattr(poisson, "_forms", lambda x: rows.append(x.shape[1]) or forms_of(x))
        for n in (1, 2, _B + 1, 3 * _B + 1, 3 * _B + 2):
            rows.clear()
            szego_matrix(1.0, 0.5, sample_sphere(n, 1), sample_sphere(9, 2))
            assert sum(rows[1:]) == n and all(k >= min(n, 2) for k in rows[1:]), (n, rows)
        assert rows[1:] == [_B] * 3 + [2]

    def test_refuses_a_single_point(self):
        with pytest.raises(ValueError, match="shape"):
            szego_matrix(1.0, 0.5, sample_sphere(1, 1)[0], sample_sphere(9, 2))

    def test_tracemalloc_peak(self):
        # K takes 61.0 MiB and one block of _B rows ~12 MiB more (73.0 MiB
        # measured); the whole-matrix assembly peaked at 122.5
        th, om = sample_sphere(2_000, 1), sample_sphere(2_000, 2)
        tracemalloc.start()
        try:
            szego_matrix(0.5, 0.9, th, om)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 78 * 2 ** 20


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

    def test_zonal_descriptor_unaligned_falls_back_to_mc(self):
        # zonal data as a plain callable at a point off the e1 axis: the
        # value is the sphere_average mean of the kernel times f, bit for bit
        lam = 1.0
        f = lambda w: w[..., 0]
        x = 0.3 * sample_sphere(1, 13)[0]
        spec = QuadratureSpec(n_mc=200_000, n_gauss=200, seed=2)
        val = poisson_transform(lam, f, x, spec)
        drawn = []

        def integrand(w):
            drawn.append(poisson_kernel_lambda(complex(lam), x, w) * f(w))
            return drawn[-1]

        assert val == sphere_average(integrand, spec)
        # the standard error of the drawn values, formed here
        assert np.std(np.concatenate(drawn)) / math.sqrt(spec.n_mc) > 0

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

    @pytest.mark.parametrize("shape", [(16,), (10_001, 16), (3, 7, 16)])
    def test_blocked_norms_match_whole_array_radii(self, shape):
        # |x|^2 is formed in row blocks (10,001 rows is not a multiple of
        # the block); the radii, and so the values, are bitwise those of one
        # whole-array reduction, with repeated radii and x = 0 included
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.24, 0.24, size=shape)
        rows = x.reshape(-1, 16)
        rows[::3] = rows[0]
        rows[1::5] = 0.0
        radii = np.sqrt(np.sum(x * x, -1))
        out = EigenProfile(1.0)(x)
        assert np.shape(out) == shape[:-1]
        assert np.array_equal(out, spherical_fn(1.0, 0, 0, radii))
        assert EigenProfile(1.0)(np.zeros(shape)).tolist() == np.ones(shape[:-1]).tolist()

    def test_inverse_map_matches_sorted_lookup(self, monkeypatch):
        # reference: the distinct radii, each point's found by searchsorted
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.24, 0.24, size=(3, 5, 16))
        x[1] = x[0]
        x[2, ::2] = 0.0
        radii = np.sqrt(octonion._row_dot(x, x))
        distinct = np.unique(radii)
        want = spherical_fn(1.0, 0, 0, distinct)[np.searchsorted(distinct, radii)]
        got = EigenProfile(1.0)(x)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        # NaN radii (three here) reach the radial function as one, as np.unique
        # collapses them; spherical_fn refuses a NaN radius, so a stand-in
        # records the distinct radii and returns them
        x[:2, 3, 5] = x[2, 1, 0] = np.nan
        radii = np.sqrt(octonion._row_dot(x, x))
        distinct = np.unique(radii)
        assert np.count_nonzero(np.isnan(distinct)) == 1
        seen = []
        monkeypatch.setattr(poisson, "spherical_fn",
                            lambda lam, l, m, r: seen.append(r) or r + 0.5j)
        got = EigenProfile(1.0)(x)
        assert [a.tobytes() for a in seen] == [distinct.tobytes()]
        want = (distinct + 0.5j)[np.searchsorted(distinct, radii)]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

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

    def test_nan_ratio_fails_the_independence_record(self, monkeypatch):
        # a NaN g_t at the last lambda: Python's max(0.5's, 1.0's, nan)
        # returned a finite ratio spread, and the record passed
        recover = poisson.boundary_recover_gt

        def poisoned(lam, F, t_grid, spec, **kwargs):
            gs = recover(lam, F, t_grid, spec, **kwargs)
            return [complex(math.nan)] * len(gs) if lam == 2.0 else gs

        monkeypatch.setattr(poisson, "boundary_recover_gt", poisoned)
        by_id = {c.check_id: c for c in run_suite(SuiteConfig(suite="invert")).checks}
        record = by_id["inv-lambda-independence"]
        assert record.status == "fail"
        assert math.isnan(record.measured["defect"]) and math.isnan(record.measured["ratio_2.0"])
        assert all(type(v) is float for v in record.measured.values())
        assert by_id["inv-lm-independence"].status == "pass"
        assert math.isnan(by_id["inv-mean-square-drift"].measured["drift_2.0"])

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

    def test_stacked_route_matches_per_omega_calls(self):
        spec = QuadratureSpec(n_mc=4000, n_gauss=200, seed=3)
        ts = (0.5, 1.0, 2.0)
        omegas = np.stack([E1, -E1, _generic_omega()])
        got = poisson._mc_recover_gt(1.0, _generic_callable, ts, spec, omegas)
        assert got == [boundary_recover_gt(1.0, _generic_callable, ts, spec, omega=omega)
                       for omega in omegas]

    def test_stacked_route_evaluates_F_once_per_node(self):
        radii = []

        def counted(x):
            radii.append(float(np.linalg.norm(x[0])))
            return _generic_callable(x)

        spec = QuadratureSpec(n_mc=2000, n_gauss=200, seed=0)
        ts = (0.5, 1.0)
        gts = poisson._mc_recover_gt(1.0, counted, ts, spec, np.stack([E1, -E1]))
        assert [len(g) for g in gts] == [2, 2]
        nodes = np.concatenate([quadrature._radial_rule(t)[0] for t in ts])
        assert len(radii) == len(nodes)
        assert np.allclose(radii, nodes, rtol=1e-14, atol=0.0)

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


# float.hex of every measured value of SuiteConfig(suite="invert", seed=0),
# recorded before the Monte Carlo g_t route took a stack of boundary points
_INVERT_GOLDEN = {
    "inv-normalization": ("measured", {"kappa": "0x1.c7389e313f3c9p+2"}),
    "inv-gt-profile-0.5": ("measured", {"g_t4.0": "0x1.81d8d36192085p+0",
                                        "g_t8.0": "0x1.81916192c19e2p+2",
                                        "g_t16.0": "0x1.856d3961351b9p+2",
                                        "g_t32.0": "0x1.cfe052976eb41p+2",
                                        "diff0": "0x1.211b2cba5d1c1p+2",
                                        "diff1": "0x1.edebe739beb80p-5",
                                        "diff2": "0x1.29cc64d8e6620p+0"}),
    "inv-gt-profile-1.0": ("measured", {"g_t4.0": "0x1.2b258345e7a76p+2",
                                        "g_t8.0": "0x1.8e6c0452cd8bep+2",
                                        "g_t16.0": "0x1.a43196db0960dp+2",
                                        "g_t32.0": "0x1.c7389e313f3c9p+2",
                                        "diff0": "0x1.8d1a043397920p+0",
                                        "diff1": "0x1.5c592883bd4f0p-2",
                                        "diff2": "0x1.18383ab1aede0p-1"}),
    "inv-gt-profile-2.0": ("measured", {"g_t4.0": "0x1.3ee230b163026p+2",
                                        "g_t8.0": "0x1.9f11b8f536aaap+2",
                                        "g_t16.0": "0x1.bc3002197ca13p+2",
                                        "g_t32.0": "0x1.cc32ea9b447c4p+2",
                                        "diff0": "0x1.80be210f4ea10p+0",
                                        "diff1": "0x1.d1e492445f690p-2",
                                        "diff2": "0x1.002e881c7db10p-2"}),
    "inv-lambda-independence": ("pass", {"defect": "0x1.378215b75db00p-6",
                                         "ratio_0.5": "0x1.04de0856dd76cp+0",
                                         "ratio_1.0": "0x1.0000000000000p+0",
                                         "ratio_2.0": "0x1.02cc9e9ef1376p+0"}),
    "inv-lm-independence": ("pass", {"defect": "0x1.3225b5a245ac0p-6",
                                     "ratio_00": "0x1.0000000000000p+0",
                                     "ratio_20": "0x1.f69bbf31666fap-1",
                                     "ratio_22": "0x1.fa6574ab1af9bp-1"}),
    "inv-omega-mc-noise": ("measured", {"gap": "0x1.53c8440c94d9dp-5"}),
    "inv-mean-square-drift": ("measured", {"drift_0.5": "0x1.cd484ebdac3b0p-3",
                                           "drift_1.0": "0x1.50119c9a997b0p-2",
                                           "drift_2.0": "0x1.9b3377a416840p-5"}),
}


def test_invert_suite_bitwise_golden_values():
    report = run_suite(SuiteConfig(suite="invert", seed=0))
    assert [c.check_id for c in report.checks] == list(_INVERT_GOLDEN)
    for c in report.checks:
        status, values = _INVERT_GOLDEN[c.check_id]
        assert c.status == status, c.check_id
        assert {k: float(v).hex() for k, v in c.measured.items()} == values, c.check_id


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
        for lam in (math.nan, complex(1.0, math.inf)):
            with pytest.raises(ValueError, match="lam must be finite"):
                operator_norm_est(lam, 0.5, 64, 0)

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

    @pytest.mark.parametrize("r,seed", [(0.5, 0), (0.9, 1), (0.99, 2)])
    def test_matches_dense_svd(self, r, seed):
        n = 300
        s_theta, s_omega, _ = spawn_seeds(seed, 3)
        K = szego_matrix(1.0, r, sample_sphere(n, s_theta), sample_sphere(n, s_omega))
        ref = np.linalg.svd(K, compute_uv=False)[0] / n
        assert operator_norm_est(1.0, r, n, seed).value == pytest.approx(ref, rel=1e-12)

    def test_seed_19_close_top_pair(self):
        # the top two squared singular values lie 4.8e-3 apart (relative);
        # the reference is the dense SVD of the same K
        res = operator_norm_est(0.5, 0.9, 2000, _check_seed(SuiteConfig(seed=19), "po-op-0.9"))
        assert res.value == pytest.approx(247.50447251279064, rel=1e-12)
        assert res.iterations <= 100

    def test_poisson_suite_passes_at_seed_19(self):
        report = run_suite(SuiteConfig(suite="poisson", seed=19))
        assert "poisson-error" not in [c.check_id for c in report.checks]
        assert report.overall_status == "pass"


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 2_047, 2_048, 2_049, 4_097,
                               20_000, 99_999, 100_000])
def test_pairwise_total_matches_numpy_sum(n):
    # the Hormander tail's means rest on this mirror of numpy's pairwise
    # summation; rows: magnitudes 1e-8 to 1e8 of both signs, with -0.0 at
    # random places, all -0.0, a NaN, +inf, and +inf beside -inf
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    rows = np.repeat(x[None, :], 6, axis=0)
    rows[1, rng.random(n) < 0.3] = -0.0
    rows[2] = -0.0
    rows[3, rng.integers(n)] = np.nan
    rows[4, rng.integers(n)] = np.inf
    rows[5, rng.integers(n)], rows[5, rng.integers(n)] = np.inf, -np.inf
    leaves = poisson._pairwise_leaves(n)
    assert sum(leaves) == n and all(1 <= size <= 128 for size in leaves)
    edges = np.cumsum([0, *leaves])
    with np.errstate(invalid="ignore"):
        leaf_sums = np.array([[np.add.reduce(row[lo:hi]) for lo, hi in zip(edges, edges[1:])]
                              for row in rows])
        total = poisson._pairwise_total(leaf_sums, n)
        want_sum = np.array([np.add.reduce(row) for row in rows])
        want_mean = np.array([np.mean(row) for row in rows])
    assert total.tobytes() == want_sum.tobytes()
    assert (total / n).tobytes() == want_mean.tobytes()


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

    def test_fewer_than_two_pairs_rejected(self):
        # half the pairs take independent partners, half perturbed ones
        with pytest.raises(ValueError, match="n_mc"):
            cz_suite((1.0,), QuadratureSpec(n_mc=1, n_gauss=200, seed=0))
        rep = cz_suite((1.0,), QuadratureSpec(n_mc=2, n_gauss=200, seed=0))
        assert rep.n_samples == 2

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
            rows.append(np.shape(x)[1:])
            return forms(x)

        for mod in (geometry, poisson):
            monkeypatch.setattr(mod, "_forms", counted)
        cz_suite((1.0,), QuadratureSpec(n_mc=2_000, n_gauss=200, seed=7))
        assert [r for r in rows if r != (1,)] == [(2_000,)] * 4

    @pytest.mark.parametrize("n", sorted({2, 3, 2_001, 8_191, 8_192, 8_193, 16_389,
                                          poisson._PASS_ROWS - 1, poisson._PASS_ROWS,
                                          poisson._PASS_ROWS + 1, 2 * poisson._PASS_ROWS + 5}))
    def test_sample_set_matches_serial_construction(self, n):
        seeds = spawn_seeds(9, 4)
        s1, s2, s3, s4 = seeds
        # reference: the whole-array serial draws, with sample_sphere's
        # whole-array normalization; n // 2 falls inside a block at
        # _PASS_ROWS + 1 and 2 _PASS_ROWS + 5; the fixed sizes 8,191 to
        # 16,389 span several blocks and end in blocks of every kind
        theta, omega = _serial_sphere(n, s1), _serial_sphere(n, s2)
        theta_p = theta.copy()
        half = n // 2
        theta_p[:half] = _serial_sphere(half, s4)
        rng = np.random.default_rng(s3)
        eps = 10.0 ** rng.uniform(-3.0, 0.3, size=n - half)
        tp = theta[half:] + eps[:, None] * rng.standard_normal((n - half, 16))
        theta_p[half:] = tp / np.linalg.norm(tp, axis=1, keepdims=True)
        blocks = list(poisson._cz_pairs(n, seeds))
        assert all(b.shape[0] == 16 for block in blocks for b in block)
        assert [b[0].shape[1] for b in blocks[:-1]] == [poisson._PASS_ROWS] * (len(blocks) - 1)
        assert 1 <= blocks[-1][0].shape[1] <= poisson._PASS_ROWS
        for parts, want in zip(zip(*blocks), (theta, omega, theta_p)):
            got = np.concatenate(parts, axis=1)
            assert np.array_equal(got.view(np.uint64), want.T.view(np.uint64))

    @staticmethod
    def _report_bits(rep):
        """Every field of a CZReport, floats as their hex strings."""
        def bits(v):
            if isinstance(v, dict):
                return [(k, bits(x)) for k, x in v.items()]
            return v.hex() if isinstance(v, float) else v

        return [(f.name, bits(getattr(rep, f.name))) for f in dataclasses.fields(rep)]

    def test_block_size_does_not_change_the_report(self, monkeypatch):
        spec = QuadratureSpec(n_mc=2_001, n_gauss=200, seed=4)
        reports = []
        for rows in (7, 1_000, 2_001):
            monkeypatch.setattr(poisson, "_PASS_ROWS", rows)
            reports.append(self._report_bits(cz_suite((0.5, 2.0), spec)))
        assert all(bits == reports[0] for bits in reports[1:])

    def test_running_maxima_keep_nan_from_a_later_block(self, monkeypatch):
        # theta row 30 -> NaN makes every size ratio NaN; omega row 40 scaled
        # by 1e30 makes an admissible (ii) quotient 0 * inf at r = 0.9, 0.99
        pairs = poisson._cz_pairs

        def poisoned(n, seeds):
            lo = 0
            for theta, omega, theta_p in pairs(n, seeds):
                for row, arr, factor in ((30, theta, np.nan), (40, omega, 1e30)):
                    if lo <= row < lo + theta.shape[1]:
                        arr[:, row - lo] *= factor
                lo += theta.shape[1]
                yield theta, omega, theta_p

        monkeypatch.setattr(poisson, "_cz_pairs", poisoned)
        spec = QuadratureSpec(n_mc=50, n_gauss=200, seed=7)
        reports = []
        with np.errstate(all="ignore"):
            for rows in (7, 50):
                monkeypatch.setattr(poisson, "_PASS_ROWS", rows)
                reports.append(cz_suite((1.0,), spec))
        assert self._report_bits(reports[0]) == self._report_bits(reports[1])
        assert all(math.isnan(v) for v in reports[0].size_per_r.values())
        assert [math.isnan(v) for v in reports[0].smooth_per_r[1.0].values()] == [False, True, True]

    @pytest.mark.parametrize("m, rows", [(7, None), (poisson._PASS_ROWS, None),
                                         (poisson._PASS_ROWS + 1, None), (8_192, None),
                                         (8_193, None), (7, 3), (2_001, 500)])
    def test_hormander_probes_match_whole_array_construction(self, monkeypatch, m, rows):
        # reference: the whole sample from sample_sphere, formed at once, and
        # the tail's means as np.mean over its whole masked differences
        if rows is not None:
            monkeypatch.setattr(poisson, "_PASS_ROWS", rows)
        om = sample_sphere(m, 13)
        f_om, d_om = geometry._forms(np.ascontiguousarray(om.T)), dist_to_e1(om)
        masks, dots, phis = [], [], []
        for k in range(4):
            th = E1 + 2.0 ** (-k) * np.concatenate([np.zeros(8), np.ones(8) / math.sqrt(8.0)])
            th = th[None, :] / np.linalg.norm(th)
            masks.append(d_om > 2.0 * float(dist_to_e1(th)[0]))
            dots.append(octonion._row_dot(om, th))
            phis.append(geometry._phi(f_om, geometry._forms(th.T)))
        e1 = E1[None, :]
        dots.append(octonion._row_dot(om, e1))
        phis.append(geometry._phi(f_om, geometry._forms(e1.T)))
        blocks = list(poisson._hormander_blocks(m, 13))

        def bits(a):
            return a.dtype, a.shape, a.tobytes()

        # blocks are greedy runs of whole leaves of at most _PASS_ROWS rows,
        # or a single leaf
        leaves = [block[0] for block in blocks]
        assert [n for run in leaves for n in run] == poisson._pairwise_leaves(m)
        assert all(len(run) == 1 or sum(run) <= poisson._PASS_ROWS for run in leaves)
        assert all(sum(run) + nxt[0] > poisson._PASS_ROWS for run, nxt in zip(leaves, leaves[1:]))
        for got, want in zip(list(zip(*blocks))[1:], (masks, dots, phis)):
            assert [len(a[0]) for a in got] == [sum(run) for run in leaves]
            assert bits(np.concatenate(got, axis=1)) == bits(np.array(want))
        lams, rs = (0.5, 2.0), (0.5, 0.99)
        ref = {lam: {} for lam in lams}
        for lam in lams:
            for r in rs:
                k_e1 = _szego_power(lam, geometry._psi_r(r, dots[4], phis[4]))
                means = [float(np.mean(np.abs(_szego_power(lam, geometry._psi_r(r, dot, phi))
                                              - k_e1) * mask)) / (1.0 + abs(lam))
                         for mask, dot, phi in zip(masks, dots, phis) if mask.any()]
                ref[lam][r] = float(np.max([0.0, *means]))
        assert poisson._hormander_tail(lams, rs, m, 13) == ref

    @pytest.mark.parametrize("n", sorted({4_097, 2 * poisson._PASS_ROWS + 1}))
    def test_block_size_does_not_change_the_tail(self, monkeypatch, n):
        # reference: the tail over one block of the whole probe sample; at
        # n = 4,097, 1,000 rows leave a last block of 97 rows and 2,048 and
        # 4,096 rows one of a single row
        spec = QuadratureSpec(n_mc=n, n_gauss=200, seed=3)
        tails = {}
        for rows in sorted({n, 7, 1_000, 2_048, 4_096, poisson._PASS_ROWS, n - 1}):
            monkeypatch.setattr(poisson, "_PASS_ROWS", rows)
            tails[rows] = self._report_bits(cz_suite((0.5, 2.0), spec))[-1]
        assert tails[n][0] == "hormander_per_r"
        assert all(bits == tails[n] for bits in tails.values())

    def test_tail_keeps_a_nan_mean(self, monkeypatch):
        # phi -> NaN at row 5 of the second probe makes its mean NaN at
        # every r, which the maximum over the probes must keep
        blocks = poisson._hormander_blocks

        def poisoned(m, seed):
            lo = 0
            for leaves, masks, dots, phis in blocks(m, seed):
                if lo <= 5 < lo + sum(leaves):
                    phis[1, 5 - lo] = np.nan
                lo += sum(leaves)
                yield leaves, masks, dots, phis

        monkeypatch.setattr(poisson, "_hormander_blocks", poisoned)
        spec = QuadratureSpec(n_mc=2_000, n_gauss=200, seed=7)
        reports = []
        for rows in (7, 2_000):
            monkeypatch.setattr(poisson, "_PASS_ROWS", rows)
            reports.append(cz_suite((1.0,), spec))
        assert self._report_bits(reports[0]) == self._report_bits(reports[1])
        assert all(math.isnan(v) for v in reports[0].hormander_per_r[1.0].values())

    def test_tail_forms_each_kernel_once_per_block(self, monkeypatch):
        # per block and (lam, r), e1's kernel once beside the four probes':
        # 5 _szego_power calls where forming it beside each probe took 8,
        # each over the whole block
        power, calls = poisson._szego_power, []

        def counted(lam, psi):
            calls.append(len(psi))
            return power(lam, psi)

        monkeypatch.setattr(poisson, "_szego_power", counted)
        monkeypatch.setattr(poisson, "_PASS_ROWS", 1_000)
        lams, rs = (0.5, 2.0), (0.5, 0.9, 0.99)
        poisson._hormander_tail(lams, rs, 4_097, 3)
        rows = [sum(block[0]) for block in poisson._hormander_blocks(4_097, 3)]
        assert len(rows) == 5
        assert calls == [n for n in rows for _ in range(5 * len(lams) * len(rs))]

    @pytest.mark.parametrize("r", [0.9, 0.99])
    def test_nan_at_a_later_radius_fails_the_record(self, monkeypatch, r):
        cz = poisson.cz_suite

        def poisoned(*args, **kwargs):
            rep = cz(*args, **kwargs)
            rep.size_per_r[r] = math.nan
            rep.truncated_per_r[1.0][r] = math.nan
            return rep

        monkeypatch.setattr(poisson, "cz_suite", poisoned)
        checks = run_suite(SuiteConfig(suite="cz", lambdas=(1.0,), n_mc=2_000, seed=7)).checks
        by_id = {c.check_id: c for c in checks}
        for check_id in ("cz-size", "cz-truncated-1.0"):
            measured = by_id[check_id].measured
            assert by_id[check_id].status == "fail"
            assert math.isnan(measured["fitted_constant"]) and math.isnan(measured["r_spread"])
            # Python floats, so the CSV cells keep repr(float)
            assert all(type(v) is float for v in measured.values())
        assert by_id["cz-smooth-1.0"].status == "pass"

    def test_cz_suite_tracemalloc_peak(self):
        # one block of pairs at a time, then one block of the Hormander
        # probe sample with its leaf sums; 5.4 MiB on a cold call, 4.5 warm,
        # set by the pairs' pass and the zonal means (the tail alone 2.2;
        # 11.4 with the probe forms held whole beside one tail buffer of the
        # sample's length, 33.2 with the probe sample and its forms whole)
        tracemalloc.start()
        try:
            cz_suite((1.0,), QuadratureSpec(n_mc=200_000, n_gauss=200, seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2 ** 20

    def test_leaves_no_thread_running(self):
        before = threading.enumerate()
        cz_suite((1.0,), QuadratureSpec(n_mc=2_000, n_gauss=200, seed=7))
        assert threading.enumerate() == before

    def test_draw_error_becomes_a_cz_error_record(self, monkeypatch):
        # the first draw raises; any thread left running past the suite
        # shows in threading.enumerate()
        sphere_cols, calls = poisson._sphere_cols, []

        def first_fails(rng, m):
            calls.append(m)
            if len(calls) == 1:
                raise NumericsError("draw failed")
            return sphere_cols(rng, m)

        monkeypatch.setattr(poisson, "_sphere_cols", first_fails)
        before = threading.enumerate()
        checks = run_suite(SuiteConfig(suite="cz", n_mc=2_000, seed=7)).checks
        assert [(c.check_id, c.status, c.anchor) for c in checks] == [
            ("cz-error", "error", "draw failed")]
        assert threading.enumerate() == before

    def test_public_functions_run_on_the_main_thread(self, monkeypatch):
        # perfbench's tracer keeps one span stack, so every public function
        # of the layers must run on the main thread: each asserts it, through
        # every module attribute that refers to it
        calls = []

        def on_main_thread(name, fn):
            def checked(*args, **kwargs):
                assert threading.current_thread() is threading.main_thread(), name
                calls.append(name)
                return fn(*args, **kwargs)
            return checked

        wrapped = {}
        for mod in (octonion, geometry, special, quadrature, poisson):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = on_main_thread(f"{mod.__name__}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "octoplane" or mod_name.startswith("octoplane."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrapped:
                        monkeypatch.setattr(mod, attr, wrapped[id(val)])
        before = threading.enumerate()
        rep = poisson.cz_suite((1.0,), QuadratureSpec(n_mc=2_000, n_gauss=200, seed=7))
        assert threading.enumerate() == before
        assert rep.n_admissible > 0
        # the pass reaches geometry through its column cores, which are not
        # public; the quadrature layer shows the wrappers took effect below
        assert {"octoplane.poisson.cz_suite", "octoplane.quadrature.spawn_seeds",
                "octoplane.quadrature.zonal_integrate"} <= set(calls)

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
    def test_delta_j_cancellation(self):
        # the dyadic radii 2a / (2^{-2j} + 2a), a = 1 - 2^{-j}: 0, 4/5, ... -> 1
        def eta(j):
            a = 1.0 - 2.0 ** (-j)
            return 2.0 * a / (2.0 ** (-2 * j) + 2.0 * a)

        spec = QuadratureSpec(n_mc=1000, n_gauss=200, seed=8)
        for j in range(0, 7):
            rj, rj1 = eta(j), eta(j + 1)

            def g(u, v):
                q1 = ((1 - rj1 ** 2) / ((1 - rj1 * u) ** 2 + (rj1 * v) ** 2)) ** RHO
                q0 = ((1 - rj ** 2) / ((1 - rj * u) ** 2 + (rj * v) ** 2)) ** RHO
                return q1 - q0

            assert abs(zonal_integrate(g, spec)) < 1e-8
