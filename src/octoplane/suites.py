"""Verification suites behind the batch CLI.

Each suite records named checks at desk-scale budgets through a per-suite
recorder.  A record's wall time is the time since the previous record of its
suite, so the first record also carries the suite's set-up.  Random draws
take their seed deterministically from the configured seed and a suite or
check id, so reruns are reproducible.  Tolerances can be overridden per
check id through SuiteConfig.tolerances.  A suite that raises NumericsError
keeps the records it made and ends with a '<suite>-error' record; the other
suites still run.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import time
import zlib
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import __version__
from . import geometry as geo
from . import poisson as po
from .errors import NumericsError
from .octonion import _PASS_ROWS, _dot_cols, basis, oct_conj, oct_inv, oct_mul, oct_norm
from .quadrature import QuadratureSpec, _sphere_cols, sample_sphere, spawn_seeds, zonal_integrate
from .report import CheckResult, VerificationReport
from .special import (
    RHO,
    _phi_parameters,
    _spectral_s,
    gauss_2f1,
    hc_c_function,
    log_gamma,
    pochhammer,
    spherical_fn,
    spherical_fn_scaled,
)

__all__ = ["SuiteConfig", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("algebra", "geometry", "special", "poisson", "cz", "invert", "all")


@dataclass
class SuiteConfig:
    suite: str = "all"
    lambdas: tuple = (0.5, 1.0, 2.0)
    l_max: int = 10
    r_grid: tuple = (0.5, 0.9, 0.99)
    t_grid: tuple = (4.0, 8.0, 16.0, 32.0)
    n_mc: int = 200_000
    n_gauss: int = 200
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITE_NAMES}")
        if not self.lambdas or not self.r_grid or not self.t_grid:
            raise ValueError("lambda, r and t grids must be nonempty")
        # the t and budget checks of the layers these settings reach
        po._t_list(self.t_grid)
        if not all(0.0 <= r <= po._R_CAP for r in self.r_grid):
            raise ValueError(f"r grid must lie in [0, r_cap = {po._R_CAP}]")
        if not all(math.isfinite(l) for l in self.lambdas):
            raise ValueError("lambda values must be finite")
        # a repeated lambda would write its check ids twice
        if len(set(self.lambdas)) != len(self.lambdas):
            raise ValueError(f"lambda values must be distinct, got {self.lambdas}")
        if self.l_max < 0:
            raise ValueError("l_max must be >= 0")
        QuadratureSpec(n_mc=self.n_mc, n_gauss=self.n_gauss)
        if self.suite in ("cz", "all") and self.n_mc < 2:
            raise ValueError("the cz suite splits its n_mc sample pairs in half: n_mc must be >= 2")
        if self.suite in ("special", "poisson", "cz", "invert", "all"):
            if any(l == 0 for l in self.lambdas):
                raise ValueError("spectral suites need nonzero lambda values")
        # nan would fail every check and inf pass every one
        if not all(math.isfinite(t) and t > 0 for t in self.tolerances.values()):
            raise ValueError("tolerance overrides must be finite and positive")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.fmt!r}")


def _check_seed(config: SuiteConfig, check_id: str) -> int:
    return (config.seed * 1_000_003 + zlib.crc32(check_id.encode())) % 2**31


def _spec(config: SuiteConfig, check_id: str, n_mc: int | None = None) -> QuadratureSpec:
    return QuadratureSpec(
        n_mc=n_mc if n_mc is not None else config.n_mc,
        n_gauss=config.n_gauss,
        seed=_check_seed(config, check_id),
    )


class _Recorder:
    """The check records of one suite.  A record's seed is the suite seed unless
    the check passes its own; its wall time is the time since the previous
    record, or since the recorder was made."""

    def __init__(self, config: SuiteConfig, suite: str):
        self.config = config
        self.seed = _check_seed(config, suite)
        self.checks: list[CheckResult] = []
        self._last = time.perf_counter()

    def add(self, check_id, anchor, status, measured, tolerance=None, n=0, seed=None):
        now = time.perf_counter()
        self.checks.append(CheckResult(check_id, anchor, status, measured, tolerance, n,
                                       self.seed if seed is None else seed,
                                       round(now - self._last, 6)))
        self._last = now

    def tol(self, check_id, anchor, defect, default_tol, n, seed=None, **extra):
        tol = float(self.config.tolerances.get(check_id, default_tol))
        self.add(check_id, anchor, "pass" if defect <= tol else "fail",
                 {"defect": float(defect), **extra}, tol, n, seed)

    def exact(self, check_id, anchor, violations, n, seed=None, **extra):
        self.add(check_id, anchor, "pass" if violations == 0 else "fail",
                 {"violations": float(violations), **extra}, None, n, seed)

    def measured(self, check_id, anchor, n, seed=None, **values):
        self.add(check_id, anchor, "measured", {k: float(v) for k, v in values.items()},
                 None, n, seed)


def _max(*values) -> float:
    """The largest entry of values, numbers or arrays, as a Python float (a
    CSV cell prints its repr); an empty array counts as -inf.  A NaN entry
    anywhere makes it NaN, where Python's max keeps its first argument
    beside a later NaN, so a NaN defect fails its record.  Every record of
    the suites folds its maxima through it."""
    return float(np.max([np.max(v, initial=-np.inf) for v in values]))


def _fold_max(acc: dict, key: str, values) -> None:
    """Raise acc[key] to _max(acc[key], values), so a running maximum equals
    one _max over every folded value for any split into blocks."""
    acc[key] = _max(acc[key], values)


def _streams(seed: int, k: int) -> list[np.random.Generator]:
    """k generators of their own, seeded by spawn_seeds(seed, k)."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, k)]


# --------------------------------------------------------------------------
# algebra
# --------------------------------------------------------------------------

def _suite_algebra(config: SuiteConfig, rec: _Recorder) -> None:
    """The product identities on a, b and c, n rows of 8 normals each from
    generators of their own (_streams of the suite seed, in that order), in
    one pass over blocks of _PASS_ROWS rows.  A check of two defects folds
    both into one running maximum, which keeps a NaN from either.
    alg-identity carries the pass's wall time."""
    n = min(config.n_mc, 100_000)
    streams = _streams(rec.seed, 3)
    e = np.eye(8)
    one = e[0][None, :]
    acc = dict.fromkeys(("norm-mult", "max-ab", "conj-antihom", "alternative", "moufang",
                         "artin", "inverse"), -np.inf)
    identity = 0
    fold = functools.partial(_fold_max, acc)
    for lo in range(0, n, _PASS_ROWS):
        a, b, c = (g.standard_normal((min(_PASS_ROWS, n - lo), 8)) for g in streams)
        identity += (int(np.count_nonzero(oct_mul(one, a) != a))
                     + int(np.count_nonzero(oct_mul(a, one) != a)))

        norm_a, norm_b = oct_norm(a), oct_norm(b)
        ab = oct_mul(a, b)
        norm_ab = oct_norm(ab)
        na = norm_a * norm_b
        fold("norm-mult", np.abs(norm_ab - na) / na)
        fold("max-ab", na)
        fold("conj-antihom", np.abs(oct_mul(oct_conj(a), oct_conj(b)) - oct_conj(oct_mul(b, a))))

        s = np.maximum(norm_a ** 2 * norm_b, 1e-300)
        fold("alternative", oct_norm(oct_mul(a, ab) - oct_mul(oct_mul(a, a), b)) / s)
        fold("alternative", oct_norm(oct_mul(ab, b) - oct_mul(a, oct_mul(b, b)))
             / np.maximum(norm_a * norm_b ** 2, 1e-300))

        sm = np.maximum(norm_a ** 2 * norm_b * oct_norm(c), 1e-300)
        fold("moufang", oct_norm(oct_mul(ab, oct_mul(c, a))
                                 - oct_mul(a, oct_mul(oct_mul(b, c), a))) / sm)

        fold("artin", oct_norm(oct_mul(ab, ab) - oct_mul(a, oct_mul(b, ab)))
             / np.maximum(na * norm_ab, 1e-300))
        apb = a + b
        fold("artin", oct_norm(oct_mul(ab, apb) - oct_mul(a, oct_mul(b, apb)))
             / np.maximum(na * oct_norm(apb), 1e-300))

        inv = oct_inv(a)
        fold("inverse", oct_norm(oct_mul(a, inv) - one))
        fold("inverse", oct_norm(oct_mul(inv, a) - one))

    rec.exact("alg-identity", "e0 x = x = x e0", identity, n)

    table = oct_mul(e[1:, None], e[None, 1:])  # table[i-1, j-1] = e_i e_j
    sq_viol = sum(int(np.any(table[m, m] != -e[0])) for m in range(7))
    rec.exact("alg-squares", "e_m^2 = -1 for m = 1..7", sq_viol, 7)

    ac_viol = sum(1 for i in range(7) for j in range(7)
                  if i != j and np.any(table[i, j] != -table[j, i]))
    rec.exact("alg-anticommute", "e_i e_j = -e_j e_i (i != j)", ac_viol, 42)

    rec.tol("alg-norm-mult", "|ab| = |a| |b|", acc["norm-mult"], 1e-13, n)
    rec.tol("alg-conj-antihom", "conj(ab) = conj(b) conj(a)",
            acc["conj-antihom"] / acc["max-ab"], 1e-13, n)
    rec.tol("alg-alternative", "a(ab) = (aa)b and (ab)b = a(bb)", acc["alternative"], 1e-12, n)
    rec.tol("alg-moufang", "(ab)(ca) = a((bc)a)", acc["moufang"], 1e-12, n)
    rec.tol("alg-artin", "(ab)c = a(bc) for c in alg(a, b)", acc["artin"], 1e-12, n)
    rec.tol("alg-inverse", "a a^{-1} = a^{-1} a = 1 (a != 0)", acc["inverse"], 1e-12, n)

    i, j, k = np.array([(1, 2, 4), (1, 4, 2), (2, 3, 4)]).T
    lhs = oct_mul(oct_mul(e[i], e[j]), e[k])
    rhs = oct_mul(e[i], oct_mul(e[j], e[k]))
    witness = int(np.count_nonzero(np.max(np.abs(lhs - rhs), axis=-1) > 0.5))
    rec.exact("alg-nonassoc-witness", "exists basis triple with (e_i e_j) e_k != e_i (e_j e_k)",
              0 if witness > 0 else 1, 3, witnesses=witness)


# --------------------------------------------------------------------------
# geometry
# --------------------------------------------------------------------------

def _random_ball_points(n: int, rng: np.random.Generator,
                        radius_rng: np.random.Generator) -> np.ndarray:
    """n points of the unit ball, uniform for Lebesgue measure, as a (16, n)
    block: directions from n rows of rng's normals, radii from n of
    radius_rng's uniforms."""
    x = _sphere_cols(rng, n)
    x *= radius_rng.uniform(0.0, 1.0, size=n) ** (1.0 / 16.0)
    return x


def _norm_cols(a: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the columns of a block: oct_norm and
    np.linalg.norm(axis=-1) of its rows, bit for bit."""
    return np.sqrt(_dot_cols(a, a))


# _geometry_form_checks' records in order: (id, anchor, tolerance or None for a count).
_GEO_FORM_CHECKS = (
    ("geo-phi-product-form", "Phi(x,y) = |(conj(x1) y2)(y2^{-1} y1) + x2 conj(y2)|^2", 1e-12),
    ("geo-psi-two-forms", "1 - 2<x,y> + Phi(x,y) = |1 - [x,y]|^2", 1e-12),
    ("geo-bracket-bound", "|[x,y]| <= |x| |y|", None),
    ("geo-bracket-scaling", "[r e1, omega] = r omega_1", 1e-12),
    ("geo-bracket-diagonal", "[a, a] = 1 for |a| = 1", 1e-12),
    ("geo-metric-identity", "d(a, a) = 0 on the sphere", 1e-8),
    ("geo-metric-symmetry", "d(a, b) = d(b, a)", 1e-14),
    ("geo-triangle", "d(a,c) <= d(a,b) + d(b,c) on the closed ball", None),
    ("geo-difference-ineq", "|[th - th', om]| <= d(th,th') (d(th,th') + 2 d(th,om))", None),
    ("geo-invariance", "d((u x1, x2 u), (u y1, y2 u)) = d(x, y) for |u| = 1", 1e-12),
)


def _geometry_form_checks(rec: _Recorder) -> np.random.Generator:
    """The form, bracket and metric checks, in one pass over blocks of
    _PASS_ROWS rows.  Each sample set has a generator of its own, from
    _streams(rec.seed, 11) in this order: x's normals and radii, y's, r,
    z's normals and radii, the sphere sets om, th and th', and last the
    rotation u.  Each block takes its rows of every set in stream order as
    coordinate-major (16, m) blocks and forms its invariants, brackets and
    distances once for every check; its arrays are freed before the next
    block is drawn.  The running maxima fold with _fold_max, so each equals
    one _max over all rows, NaN included, for any block size.  The records
    follow the pass, so geo-phi-product-form carries the pass's wall time.
    Returns u's generator, which draws the Jordan points next."""
    n = min(rec.config.n_mc, 100_000)
    gx, gxr, gy, gyr, gr, gz, gzr, *sphere_rngs, gu = _streams(rec.seed, 11)
    u = gu.standard_normal(8)
    u = (u / np.linalg.norm(u))[:, None]
    acc = {check_id: (0 if tol is None else -np.inf) for check_id, _, tol in _GEO_FORM_CHECKS}
    fold = functools.partial(_fold_max, acc)

    def count(check_id, violated):
        acc[check_id] += int(np.count_nonzero(violated))

    def check_block(lo: int, m: int) -> int:
        """The checks on rows lo..lo+m-1; returns the rows of
        geo-phi-product-form."""
        # x first: test_geometry_running_maxima_keep_nan_from_a_later_block counts on it
        xb, yb = _random_ball_points(m, gx, gxr), _random_ball_points(m, gy, gyr)
        r = gr.uniform(0, 1, size=m)
        zb = _random_ball_points(m, gz, gzr)
        om, th, thp = (_sphere_cols(g, m) for g in sphere_rngs)
        fx, fy, fz, fth = geo._forms(xb), geo._forms(yb), geo._forms(zb), geo._forms(th)

        # one bracket [x, y] for the product form of Phi, the two forms of Psi and the bound
        b = geo._bracket_cols(xb, yb)
        mask = fy.n2 > 1e-8
        phi, b_phi = geo._phi(fx, fy)[mask], b[:, mask]
        fold("geo-phi-product-form",
             np.abs(phi - _dot_cols(b_phi, b_phi)) / np.maximum(phi, 1e-12))
        psi = geo._psi(fx, fy)
        fold("geo-psi-two-forms", np.abs(psi - geo._abs_one_minus_sq(b)) / np.maximum(psi, 1e-12))
        count("geo-bracket-bound", _norm_cols(b) > _norm_cols(xb) * _norm_cols(yb) + 1e-12)

        r_e1 = np.zeros((16, m))      # r e1: r * 0.0 is +0.0 for r >= 0
        r_e1[0] = r
        fold("geo-bracket-scaling", _norm_cols(geo._bracket_cols(r_e1, om) - r * om[:8]))
        fold("geo-bracket-diagonal", _norm_cols(geo._bracket_cols(th, th) - basis(0)[:, None]))
        if lo < 10_000:
            first = fth.take(slice(10_000 - lo))
            fold("geo-metric-identity", geo._dist(first, first))

        dxy = geo._dist(fx, fy, psi)
        fold("geo-metric-symmetry", np.abs(dxy - geo._dist(fy, fx)))
        count("geo-triangle", geo._dist(fx, fz) > dxy + geo._dist(fy, fz) + 1e-12)
        dtt = geo._dist(fth, geo._forms(thp))
        dto = geo._dist(fth, geo._forms(om))
        count("geo-difference-ineq",
              _norm_cols(geo._bracket_cols(th - thp, om)) > dtt * (dtt + 2.0 * dto) + 1e-12)
        fx_u, fy_u = geo._forms(geo._rotate_cols(u, xb)), geo._forms(geo._rotate_cols(u, yb))
        fold("geo-invariance", np.abs(geo._dist(fx_u, fy_u) - dxy))
        return int(mask.sum())

    n_phi = sum(check_block(lo, min(_PASS_ROWS, n - lo)) for lo in range(0, n, _PASS_ROWS))
    sizes = {"geo-phi-product-form": n_phi, "geo-metric-identity": min(n, 10_000)}
    for check_id, anchor, tol in _GEO_FORM_CHECKS:
        if tol is None:
            rec.exact(check_id, anchor, acc[check_id], n)
        else:
            rec.tol(check_id, anchor, acc[check_id], tol, sizes.get(check_id, n))
    return gu


def _jordan_checks(rec: _Recorder, pts: np.ndarray) -> None:
    """The Jordan records on the images of 16 ball points.  The entries of X
    grow like s = 1/(1-|x|^2) and those of X o X like s^2, so the trace and
    hermitian defects are divided by s and the idempotent defect by s^2."""
    mats = [geo.jordan_embed(p) for p in pts]
    squares = [geo.jordan_product(X, X) for X in mats]
    idem = trace_dev = herm = comm = jid = 0.0
    for p, X, XX in zip(pts, mats, squares):
        s = 1.0 / (1.0 - float(np.sum(p * p)))
        idem = _max(idem, XX.max_abs_diff(X) / (s * s))
        trace_dev = _max(trace_dev, abs(X.trace() - 1.0) / s)
        herm = _max(herm, X.hermitian_defect() / s)
    for A, B, A2 in zip(mats[:8], mats[8:], squares):
        AB = geo.jordan_product(A, B)
        comm = _max(comm, AB.max_abs_diff(geo.jordan_product(B, A)))
        lhs = geo.jordan_product(A2, AB)
        rhs = geo.jordan_product(geo.jordan_product(A2, B), A)
        jid = _max(jid, lhs.max_abs_diff(rhs) / _max(1.0, np.abs(lhs.plain), np.abs(lhs.imag)))
    rec.tol("geo-jordan-idempotent", "X o X = X on the ball image", idem, 1e-10, 16)
    rec.tol("geo-jordan-trace", "tr X = 1", trace_dev, 1e-12, 16)
    rec.tol("geo-jordan-hermitian", "entry (c,r) = conj(entry (r,c))", herm, 1e-12, 16)
    rec.tol("geo-jordan-commute", "A o B = B o A", comm, 1e-12, 8)
    rec.tol("geo-jordan-identity", "(A^2 o (A o B)) = ((A^2 o B) o A)", jid, 1e-10, 8)


def _suite_geometry(config: SuiteConfig, rec: _Recorder) -> None:
    rng = _geometry_form_checks(rec)
    _jordan_checks(rec, _random_ball_points(16, rng, rng).T)

    F21 = geo.JordanMatrix.corner_unit()
    yb = geo.boundary_embed(basis(0), np.zeros(8))
    d = yb.max_abs_diff(F21) + abs(yb.trace())
    rec.tol("geo-boundary-embed", "Y(1, 0) = corner unit, tr Y = 0", d, 1e-15, 1)

    sat_seed = _check_seed(config, "geo-volume-sat")
    est, = geo.ball_volume_est([1.5], 10_000, sat_seed)
    rec.tol("geo-volume-saturation", "measure{d(theta, e1) < delta} = 1 for delta >= sqrt(2)",
            abs(est.value - 1.0), 1e-15, est.n_samples, sat_seed)

    volume = functools.cache(lambda delta: geo.ball_volume_quadrature(delta, config.n_gauss))
    deltas = [0.05, 0.1, 0.15]
    slope_asym = float(np.polyfit(np.log(deltas), np.log([volume(d) for d in deltas]), 1)[0])
    rec.tol("geo-volume-asymptotic-slope", "measure(B(e1, delta)) ~ delta^22 as delta -> 0",
            abs(slope_asym - 2 * RHO), 0.2, 3, slope=slope_asym)

    window = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    wvols = [volume(d) for d in window]
    slope_win = float(np.polyfit(np.log(window), np.log(wvols), 1)[0])
    rec.measured("geo-volume-window-slope",
                 "log-log slope of the ball measure over delta in [0.4, 0.9]",
                 len(window), slope=slope_win, v04=wvols[0], v09=wvols[-1])

    mc_seed = _check_seed(config, "geo-volume-mc")
    mc_deltas = (0.7, 0.9, 1.1)
    worst = 0.0
    n_vol = max(config.n_mc, 100_000)
    for dta, est in zip(mc_deltas, geo.ball_volume_est(mc_deltas, n_vol, mc_seed)):
        worst = _max(worst, abs(est.value - volume(dta)) / max(est.stderr, 1e-12))
    rec.tol("geo-volume-mc-consistency", "rejection MC matches the zonal quadrature measure (4 SE)",
            worst, 4.0, n_vol, mc_seed)


# --------------------------------------------------------------------------
# special functions
# --------------------------------------------------------------------------

def _suite_special(config: SuiteConfig, rec: _Recorder) -> None:
    rng = np.random.default_rng(rec.seed)

    d = _max(abs(log_gamma(1.0)), abs(log_gamma(0.5) - 0.5 * math.log(math.pi)))
    rec.tol("sp-loggamma-values", "log Gamma(1) = 0, log Gamma(1/2) = log sqrt(pi)", d, 1e-14, 2)

    zs = rng.uniform(-4, 6, size=200) + 1j * rng.uniform(-6, 6, size=200)
    zs = zs[np.abs(zs.imag) + np.abs(zs.real - np.round(zs.real)) > 1e-3]
    worst = 0.0
    for z in zs:
        g1 = np.exp(log_gamma(z + 1.0))
        g0 = np.exp(log_gamma(z))
        worst = _max(worst, abs(g1 - z * g0) / max(abs(g1), 1e-300))
    rec.tol("sp-loggamma-recurrence", "Gamma(z+1) = z Gamma(z)", worst, 1e-12, len(zs))

    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0):
        lhs = abs(np.exp(log_gamma(1j * lam))) ** 2
        rhs = math.pi / (lam * math.sinh(math.pi * lam))
        worst = _max(worst, abs(lhs - rhs) / rhs)
    rec.tol("sp-loggamma-reflection", "|Gamma(i t)|^2 = pi / (t sinh(pi t))", worst, 1e-12, 4)

    rec.tol("sp-pochhammer-720", "(8)_3 = 720", abs(pochhammer(8.0, 3) - 720.0), 1e-12, 1)

    worst = 0.0
    for _ in range(100):
        a = complex(rng.uniform(0.2, 6), rng.uniform(-4, 4))
        k = int(rng.integers(0, 21))
        ref = np.exp(log_gamma(a + k) - log_gamma(a))
        worst = _max(worst, abs(pochhammer(a, k) - ref) / max(abs(ref), 1e-300))
    rec.tol("sp-pochhammer-gamma-ratio", "(a)_k = Gamma(a+k)/Gamma(a)", worst, 1e-12, 100)

    d = abs(gauss_2f1(1.3 + 0.7j, 2.1, 3.4, 0.0) - 1.0)
    rec.tol("sp-2f1-at-zero", "2F1(a,b;c;0) = 1", d, 1e-15, 1)

    d = abs(gauss_2f1(11.0, 8.0, 8.0, 0.5) - 2048.0) / 2048.0
    rec.tol("sp-2f1-binomial", "2F1(a,b;b;z) = (1-z)^{-a}", d, 1e-13, 1)

    worst = 0.0
    count = 0
    for lam in config.lambdas:
        for l in range(0, min(config.l_max, 10) + 1):
            for m in range(l % 2, l + 1, 2):
                a, b, c = _phi_parameters(lam, l, m)
                for z in (0.75 - 1e-6, 0.75 + 1e-6):
                    via_series = gauss_2f1(a, b, c, z, z_switch=0.9)
                    via_connection = gauss_2f1(a, b, c, z, z_switch=0.5)
                    worst = _max(worst, abs(via_series - via_connection) / abs(via_series))
                    count += 1
    rec.tol("sp-2f1-seam", "series and connection evaluations agree at z_switch +- 1e-6",
            worst, 1e-9, count)

    h = 1e-4
    worst = 0.0
    for lam in config.lambdas[:2]:
        a, b, c = _phi_parameters(lam, 2, 0)
        for z in (0.3, 0.6, 0.85):
            w0 = gauss_2f1(a, b, c, z)
            wp = gauss_2f1(a, b, c, z + h)
            wm = gauss_2f1(a, b, c, z - h)
            w1 = (wp - wm) / (2 * h)
            w2 = (wp - 2 * w0 + wm) / (h * h)
            res = z * (1 - z) * w2 + (c - (a + b + 1) * z) * w1 - a * b * w0
            scale = max(abs(a * b * w0), 1.0)
            worst = _max(worst, abs(res) / scale)
    rec.tol("sp-2f1-ode", "z(1-z) w'' + (c - (a+b+1) z) w' - a b w = 0", worst, 1e-5,
            3 * len(config.lambdas[:2]))

    worst = 0.0
    for lam in config.lambdas:
        c_lam = abs(hc_c_function(lam))
        worst = _max(worst, abs(c_lam - abs(hc_c_function(-lam))) / c_lam)
    rec.tol("sp-c-symmetry", "|c(lambda)| = |c(-lambda)|", worst, 1e-12, len(config.lambdas))

    v1 = abs(hc_c_function(1e-3)) * 1e-3
    v2 = abs(hc_c_function(1e-4)) * 1e-4
    rec.tol("sp-c-pole", "lambda |c(lambda)| tends to a finite nonzero limit",
            abs(v1 - v2) / v1, 1e-2, 2, limit=v2)

    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999]
    worst = _max([abs(v - 1.0) for v in spherical_fn(-1j * RHO, 0, 0, grid).tolist()])
    rec.tol("sp-harmonic-unity", "Phi_{-i rho, 00}(r) = 1", worst, 1e-10, len(grid))

    d = abs(spherical_fn(config.lambdas[0], 0, 0, 0.0) - 1.0)
    rec.tol("sp-spherical-at-zero", "Phi_{lambda,00}(0) = 1", d, 1e-14, 1)

    def scaled_max(lam: float, ls: range, best: float = 0.0) -> float:
        omz = [1 - r * r for r in (0.5, 0.9, 0.99, 0.999)]
        for l in ls:
            for m in range(0, l + 1, 2):
                best = _max(best, [abs(v) for v in
                                   spherical_fn_scaled(lam, l, m, one_minus_r2=omz).tolist()])
        return best

    worst_growth = 0.0
    sup_ratio = 0.0
    for lam in config.lambdas:
        m10 = scaled_max(lam, range(0, 11, 2))
        m20 = scaled_max(lam, range(12, 21, 2), m10)
        worst_growth = _max(worst_growth, (m20 - m10) / m10)
        sup_ratio = _max(sup_ratio, m20 / (1 + abs(lam) + 1 / abs(lam)))
    rec.tol("sp-uniform-bound-saturation",
            "sup over (l,m) of the scaled profile saturates in l "
            "(l <= 20 exceeds l <= 10 by < 10%)",
            worst_growth, 0.10, len(config.lambdas), fitted_constant=sup_ratio)


# --------------------------------------------------------------------------
# poisson
# --------------------------------------------------------------------------

def _suite_poisson(config: SuiteConfig, rec: _Recorder) -> None:
    seed = rec.seed
    spec = _spec(config, "poisson")
    om = sample_sphere(1000, seed)

    d = np.max(np.abs(po.poisson_kernel(np.zeros(16)[None, :], om) - 1.0))
    rec.tol("po-kernel-origin", "P(0, omega) = 1", d, 1e-14, 1000)

    worst = 0.0
    for r in (0.3, 0.7, 0.95):
        val = po.poisson_transform(-1j * RHO, po.BoundaryConstant(1.0), r * geo.E1, spec)
        worst = _max(worst, abs(val - 1.0))
    rec.tol("po-kernel-normalized", "int P(x, omega) domega = 1", worst, 1e-8, 3)

    lam0 = config.lambdas[0]
    x = 0.6 * om[0]
    lhs = np.abs(po.poisson_kernel_lambda(lam0, x[None, :], om))
    rhs = po.poisson_kernel(x[None, :], om) ** 0.5
    d = np.max(np.abs(lhs - rhs) / rhs)
    rec.tol("po-kernel-modulus", "|P_lambda(x, omega)| = P(x, omega)^{1/2} for real lambda",
            d, 1e-12, 1000)

    d = np.max(np.abs(po.szego_kernel(lam0, 0.0, om, om[::-1]) - 1.0))
    rec.tol("po-szego-r-zero", "Psi_0(lambda, ., .) = 1", d, 1e-14, 1000)

    k1 = np.abs(po.szego_kernel(config.lambdas[0], 0.9, om, om[::-1]))
    k2 = np.abs(po.szego_kernel(config.lambdas[-1], 0.9, om, om[::-1]))
    d = np.max(np.abs(k1 - k2) / k1)
    rec.tol("po-szego-modulus-lambda-free", "|Psi_r(lambda, ., .)| does not depend on real lambda",
            d, 1e-12, 1000)

    th = sample_sphere(200, seed + 1)
    ws = sample_sphere(200, seed + 2)
    worst = 0.0
    for r in (0.3, 0.8):
        a = po.poisson_kernel_lambda(lam0, r * th, ws)
        b = po.poisson_kernel_lambda(lam0, r * ws, th)
        worst = _max(worst, np.abs(a - b) / np.abs(a))
    rec.tol("po-kernel-symmetric", "P_lambda(r theta, omega) = P_lambda(r omega, theta)",
            worst, 1e-10, 400)

    worst = 0.0
    s = _spectral_s(lam0)
    for r in (0.2, 0.5, 0.8):
        direct = po.poisson_transform(lam0, po.BoundaryConstant(1.0), r * geo.E1, spec)

        def g(u, v):
            return po._szego_power(lam0, geo._zonal_psi(r, u, v))

        via_szego = np.exp(s * np.log(1.0 - r * r)) * zonal_integrate(g, spec)
        worst = _max(worst, abs(direct - via_szego) / abs(direct))
    rec.tol("po-factorization", "P_lambda f(r theta) = (1-r^2)^s Psi_r(lambda) f(theta)",
            worst, 1e-8, 3)

    worst = 0.0
    radii = np.arange(0.1, 0.95, 0.1)
    for lam in config.lambdas:
        for r, sref in zip(radii, spherical_fn(lam, 0, 0, radii).tolist()):
            q = po.poisson_transform(lam, po.BoundaryConstant(1.0), r * geo.E1, spec)
            worst = _max(worst, abs(q - sref) / (1 + abs(sref)))
    rec.tol("po-quadrature-vs-series", "P_lambda 1(r e1) = Phi_{lambda,00}(r)",
            worst, 1e-6, len(config.lambdas) * 9)

    f1 = lambda w: w[..., 0] + 0.3 * w[..., 8]
    f2 = lambda w: np.abs(w[..., 1]) + 1.0
    xpt = 0.5 * om[3]
    spec_lin = _spec(config, "po-linearity", n_mc=min(config.n_mc, 50_000))
    va = po.poisson_transform(lam0, lambda w: 2.0 * f1(w) + 3.0 * f2(w), xpt, spec_lin)
    vb = (2.0 * po.poisson_transform(lam0, f1, xpt, spec_lin)
          + 3.0 * po.poisson_transform(lam0, f2, xpt, spec_lin))
    rec.tol("po-transform-linearity", "P_lambda(2f + 3g) = 2 P_lambda f + 3 P_lambda g",
            abs(va - vb) / abs(va), 1e-10, spec_lin.n_mc)

    r_grid = [0.0] + [1 - 2.0 ** (-k) for k in range(1, 10)]

    def weight(pts):
        return (1.0 - np.sum(np.asarray(pts) ** 2, axis=-1)) ** (RHO / 2.0)

    # every sample reads 1, so 2,000 points (the first rows of spec's sample) do
    hn = po.hardy_norm(weight, 2.0, r_grid, _spec(config, "poisson", n_mc=min(config.n_mc, 2_000)))
    rec.tol("po-hardy-weight-cancel", "hardy norm of (1-r^2)^{rho/2} equals 1",
            abs(hn.value - 1.0), 1e-6, len(r_grid))

    dense = [0.0] + [1 - 2.0 ** (-k / 2.0) for k in range(1, 20)]

    @functools.cache
    def hardy(lam):
        """Hardy norm of P_lam 1 on the dense r grid."""
        return po.hardy_norm(po.EigenProfile(lam), 2.0, dense, spec).value

    worst = 0.0
    for lam in config.lambdas:
        cval = abs(hc_c_function(lam))
        worst = _max(worst, (cval * (1 - 1e-3) - hardy(lam)) / cval)
    rec.tol("po-hardy-lower", "|c(lambda)| ||f||_2 <= hardy norm of P_lambda f",
            worst, 1e-12, len(dense))

    fine = [0.0] + [1 - 2.0 ** (-k / 4.0) for k in range(1, 40)]
    fit_c, fit_f = 0.0, 0.0
    for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
        bound = 1 + lam + 1 / lam
        hf_ = po.hardy_norm(po.EigenProfile(lam), 2.0, fine, spec).value
        fit_c = _max(fit_c, hardy(lam) / bound)
        fit_f = _max(fit_f, hf_ / bound)
    drift = abs(fit_f - fit_c) / fit_c
    rec.tol("po-hardy-upper-fitted",
            "hardy norm of P_lambda 1 <= C (1 + |lambda| + 1/|lambda|), "
            "C stable under grid refinement",
            drift, 0.10, len(fine), fitted_constant=fit_f)

    m2_grid = [t for t in config.t_grid if t <= 16] or [min(config.t_grid)]
    worst_ratio = 0.0
    for lam in config.lambdas:
        m2 = po.m2_norm(po.EigenProfile(lam), m2_grid, spec)
        worst_ratio = _max(worst_ratio, m2.value / hardy(lam))
    rec.measured("po-m2-vs-hardy", "M_2(F) <= c * hardy norm of F (fitted c)",
                 len(config.lambdas), fitted_constant=worst_ratio)

    seed_r0 = _check_seed(config, "po-op-r0")
    res = po.operator_norm_est(lam0, 0.0, 256, seed_r0)
    rec.tol("po-operator-r-zero", "sampled operator norm at r = 0 equals 1",
            abs(res.value - 1.0), 1e-9, 256, seed_r0)

    n_op = 2000
    vals = {}
    for r in config.r_grid:
        est = po.operator_norm_est(lam0, r, n_op, _check_seed(config, f"po-op-{r}"))
        vals[f"sigma_r{r}"] = est.value
    rec.measured("po-operator-profile",
                 "sampled operator norm of Psi_r(lambda) across the r grid "
                 "(near-pair spike dominates as r -> 1)",
                 n_op, **vals)


# --------------------------------------------------------------------------
# cz / invert
# --------------------------------------------------------------------------

def _suite_cz(config: SuiteConfig, rec: _Recorder) -> None:
    spec = _spec(config, "cz")
    rep = po.cz_suite(config.lambdas, spec, r_grid=config.r_grid)
    n, seed = rep.n_samples, spec.seed

    def per_r_record(check_id, anchor, per_r, measured_ok=True, **extra):
        # _max and np.min keep a NaN at any radius
        vals = list(per_r.values())
        constant = _max(vals)
        rec.add(check_id, anchor, "pass" if measured_ok and math.isfinite(constant) else "fail",
                {"fitted_constant": constant,
                 "r_spread": constant / max(float(np.min(vals)), 1e-300),
                 **{f"c_r{r}": v for r, v in per_r.items()}, **extra},
                None, n, seed)

    rec.exact("cz-shift-exact", "|1 - b| <= 2 |1 - r b| for b = [theta, omega]",
              rep.violations_shift, n, seed)
    rec.exact("cz-difference-exact", "|[th - th', om]| <= d(th,th') (d(th,th') + 2 d(th,om))",
              rep.violations_difference, n, seed)
    per_r_record("cz-size", "sup_r |Psi_r| d(theta,omega)^{2 rho} finite", rep.size_per_r)
    for lam in config.lambdas:
        # with no admissible triple the constant reads 0 with nothing measured
        per_r_record(f"cz-smooth-{lam}",
                     "kernel increments bounded by c (1+|lambda|) d(th,th') / d(th,om)^{2 rho + 1} "
                     f"on d(th,om) >= 2 d(th,th') (lambda={lam})", rep.smooth_per_r[lam],
                     measured_ok=rep.n_admissible > 0, n_admissible=float(rep.n_admissible))
        per_r_record(f"cz-truncated-{lam}",
                     f"sup_r |int_{{d <= delta}} Psi_r domega| <= c (1 + 1/|lambda|) (lambda={lam})",
                     rep.truncated_per_r[lam])
        rec.measured(f"cz-hormander-{lam}",
                     "int_{d(om,e1) > 2 d(th,e1)} |Psi_r(om,th) - Psi_r(om,e1)| domega "
                     f"<= c (1 + |lambda|) (lambda={lam})",
                     n, seed, **{f"c_r{r}": v for r, v in rep.hormander_per_r[lam].items()})


def _suite_invert(config: SuiteConfig, rec: _Recorder) -> None:
    spec = _spec(config, "invert")
    tols = sorted(config.t_grid)
    # one grid per (lam, l, m) profile, integrated on first use: the configured
    # t, the drift steps 6..12 and the normalization radius 32
    grid = sorted({*config.t_grid, 6.0, 8.0, 10.0, 12.0, 32.0})

    @functools.cache
    def g_t(lam, l, m) -> dict:
        gs = po.boundary_recover_gt(lam, po.EigenProfile(lam, l, m), grid, spec)
        return {t: g.real for t, g in zip(grid, gs)}

    kappa_star = g_t(1.0, 0, 0)[32.0]
    rec.measured("inv-normalization",
                 "measure normalization of the inversion limit (lambda = 1, f = 1, t = 32)",
                 0, kappa=kappa_star)

    for lam in config.lambdas:
        gvals = {t: g_t(lam, 0, 0)[t] for t in tols}
        diffs = [abs(gvals[b] - gvals[a]) for a, b in zip(tols[:-1], tols[1:])]
        vals = {f"g_t{t}": v for t, v in gvals.items()}
        vals.update({f"diff{i}": d for i, d in enumerate(diffs)})
        rec.measured(f"inv-gt-profile-{lam}",
                     "g_t = |c|^{-2} (1/t) int_{B(0,t)} P_{-lambda}(x, .) F dmu "
                     f"along the t grid (lambda={lam})",
                     0, **vals)

    def spread(ratios: dict) -> float:
        # _max keeps a NaN ratio, so the quotient is NaN too
        return _max(list(ratios.values())) / min(ratios.values()) - 1.0

    ratios = {lam: g_t(lam, 0, 0)[max(tols)] / kappa_star for lam in config.lambdas}
    rec.tol("inv-lambda-independence", "normalized inversion limit independent of lambda",
            spread(ratios), 0.03, len(ratios), **{f"ratio_{k}": v for k, v in ratios.items()})

    ratios = {(l, m): g_t(1.0, l, m)[max(tols)] / kappa_star for l, m in ((0, 0), (2, 0), (2, 2))}
    rec.tol("inv-lm-independence",
            "normalized inversion limit independent of the boundary type (l, m)",
            spread(ratios), 0.03, len(ratios),
            **{f"ratio_{l}{m}": v for (l, m), v in ratios.items()})

    spec_small = _spec(config, "inv-omega", n_mc=20_000)
    lam0 = config.lambdas[0]
    (g_a,), (g_b,) = po._mc_recover_gt(lam0, po.EigenProfile(lam0), [1.0], spec_small,
                                       np.stack([geo.E1, -geo.E1]))
    rec.measured("inv-omega-mc-noise",
                 "antipodal-omega gap of the Monte Carlo g_t route "
                 "(sampling noise, not a property violation)",
                 spec_small.n_mc, gap=abs(g_a - g_b) / max(abs(g_a), 1e-12))

    drifts = {}
    for lam in config.lambdas:
        sq = [g_t(lam, 0, 0)[t] for t in (6.0, 8.0, 10.0, 12.0)]
        drifts[f"drift_{lam}"] = _max([abs(b / a - 1.0) for a, b in zip(sq[:-1], sq[1:])])
    rec.measured("inv-mean-square-drift",
                 "per-step drift of (1/t) int_{B(0,t)} |Phi_{lambda,00}|^2 dmu "
                 "over t in {6,8,10,12} (oscillating 1/t tail)",
                 4, **drifts)


_SUITES: dict[str, Callable[[SuiteConfig, _Recorder], None]] = {
    "algebra": _suite_algebra,
    "geometry": _suite_geometry,
    "special": _suite_special,
    "poisson": _suite_poisson,
    "cz": _suite_cz,
    "invert": _suite_invert,
}


def _simd_targets() -> list[str]:
    """numpy's SIMD dispatch targets enabled on this host, in numpy's order;
    the bitwise goldens hold only for one such set."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _provenance() -> dict:
    """The package, numpy and Python versions, numpy's enabled SIMD dispatch
    targets and the host the report was made on.  platform.platform() is
    avoided: it reads the interpreter binary (~10 ms)."""
    return {
        "octoplane": __version__,
        "numpy": np.__version__,
        "simd": _simd_targets(),
        "python": platform.python_version(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the configured suite and assemble the report.

    A suite that raises NumericsError keeps its earlier records and ends
    with a '<suite>-error' record (status 'error', the message as anchor).
    """
    names = list(_SUITES) if config.suite == "all" else [config.suite]
    checks: list[CheckResult] = []
    total0 = time.perf_counter()
    for name in names:
        rec = _Recorder(config, name)
        try:
            _SUITES[name](config, rec)
        except NumericsError as exc:
            rec.add(f"{name}-error", str(exc), "error", {})
        checks.extend(rec.checks)
    meta = {f.name: getattr(config, f.name) for f in fields(config)
            if f.name not in ("tolerances", "out", "fmt")}
    meta.update(format_version=3, total_wall_time=round(time.perf_counter() - total0, 6),
                provenance=_provenance())
    return VerificationReport(meta=meta, checks=checks)
