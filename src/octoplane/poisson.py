"""Poisson/Szego kernels and the estimates built on them.

Kernels (rho = 11, s = (i lam + rho)/2):

* ``P(x, omega) = ((1-|x|^2)/Psi(x, omega))^rho`` - the harmonic kernel,
* ``P_lam(x, omega) = P(x, omega)^{s/rho}``,
* ``Psi_r(lam, theta, omega) = Psi(r theta, omega)^{-s conj} =
  |1 - r[theta, omega]|^{-i lam - rho}`` - the boundary family whose
  uniform L^2 bounds drive everything else.

All complex powers have positive real bases, so exp/log with the real
logarithm is used throughout and there is no branch ambiguity.

The module also provides the Poisson transform against boundary data, the
Hardy-type norm, the L^2-weighted ball norm, the inversion functional g_t,
a sampled-operator norm estimator and the Calderon-Zygmund estimate harness.
The harness streams its sample pairs and its Hormander tail in
coordinate-major (16, m) blocks of at most octonion._PASS_ROWS points, the
package's one row-block size, so its working set is bounded by a block; no
value depends on the block size.
szego_matrix alone takes its own, smaller blocks (_SZEGO_ROWS), which
BLAS's row groups set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .geometry import (E1, _bracket_cols, _dist_to_e1_cols, _forms, _phi, _phi_gram, _psi,
                       _psi_r, _zonal_psi, phi_form, psi_form)
from .octonion import _PASS_ROWS, _dot_cols, _row_dot
from .quadrature import (
    S15,
    QuadratureSpec,
    _sphere_cols,
    _unit_cols,
    _zonal_nodes,
    ball_integrate,
    gauss_panels,
    sample_sphere,
    spawn_seeds,
    sphere_average,
    zonal_integrate,
)
from .special import (
    RHO,
    KTypeIndex,
    _spectral_s,
    hc_c_function,
    spherical_fn,
    spherical_fn_scaled,
)

__all__ = [
    "poisson_kernel",
    "poisson_kernel_lambda",
    "szego_kernel",
    "szego_matrix",
    "BoundaryConstant",
    "EigenProfile",
    "poisson_transform",
    "HardyNormResult",
    "hardy_norm",
    "M2Result",
    "m2_norm",
    "boundary_recover_gt",
    "OperatorNormResult",
    "operator_norm_est",
    "CZReport",
    "cz_suite",
]

# Largest radius at which the transform, the Hardy grid and the sampled
# operator are evaluated: beyond it the kernel peak outruns the quadrature.
_R_CAP = 0.999

# Rows of thetas per block of szego_matrix; at m = 2,000 omegas a block's
# float temporaries take 3 MB each and its complex values 6 MB.  On the
# measured host (OpenBLAS 0.3.31, AVX-512) BLAS computes the last m mod 8
# columns of a product with kernels that take its rows in groups of 12.
# Blocks that start at multiples of 12 keep those groups, so with BLAS on
# one thread K has the bits of the whole product for every m.  With more
# threads BLAS also splits the rows among them, and K keeps those bits for
# m a multiple of 8; for other m the whole product's own bits change with
# the thread count.
_SZEGO_ROWS = 192


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------

def _inside(x: np.ndarray, name: str) -> np.ndarray:
    """1 - |x|^2 for the points x of the ball; a point with |x| >= 1 raises
    ValueError "<name> requires |x| < 1"."""
    n2 = _row_dot(x, x)
    if np.any(n2 >= 1.0):
        raise ValueError(f"{name} requires |x| < 1")
    return 1.0 - n2


def poisson_kernel(x, omega) -> np.ndarray:
    """Harmonic Poisson kernel ((1-|x|^2)/Psi(x,omega))^rho for |x| < 1."""
    x = np.asarray(x, dtype=float)
    return (_inside(x, "poisson_kernel") / psi_form(x, omega)) ** RHO


def poisson_kernel_lambda(lam, x, omega) -> np.ndarray:
    """P_lam(x, omega) = exp(s log((1-|x|^2)/Psi(x,omega))), s = (i lam + rho)/2."""
    x = np.asarray(x, dtype=float)
    return _poisson_power(lam, _inside(x, "poisson_kernel_lambda"), psi_form(x, omega))


def _poisson_power(lam, omr2, psi) -> np.ndarray:
    """(omr2/psi)^s, s = (i lam + rho)/2: the kernel P_lam(x, omega) at
    1 - |x|^2 = omr2 and Psi(x, omega) = psi."""
    z = _spectral_s(lam) * np.log(omr2 / psi)
    return np.exp(z, out=z if z.ndim else None)   # in place, unless a single point gave a scalar


def _szego_power(lam, psi) -> np.ndarray:
    """psi^{(-i lam - rho)/2}: the Szego kernel value at Psi(r theta, omega) = psi."""
    z = -_spectral_s(lam) * np.log(psi)
    return np.exp(z, out=z if z.ndim else None)


def szego_kernel(lam, r, theta, omega) -> np.ndarray:
    """Psi_r(lam, theta, omega) = |1 - r[theta,omega]|^{-i lam - rho}."""
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    psi = _psi_r(r, _row_dot(theta, omega), phi_form(theta, omega))
    return _szego_power(lam, psi)


def szego_matrix(lam, r, thetas: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Pairwise kernel values Psi_r(lam, theta_i, omega_j), shape (n, m).

    Psi(r theta, omega) expands into Gram products of the 16-vectors and of
    the per-point slot products x1 x2 (``geometry._phi_gram`` on the
    invariants of ``geometry._forms``), so a block of rows assembles from
    two matrix multiplications.  The omegas are formed once; the thetas are
    formed and assembled in blocks of _SZEGO_ROWS rows, each written into
    its rows of one complex K, so the temporaries are bounded by a block,
    not by K.  A last block of one row joins the block before it: a one-row
    product takes BLAS's matrix-vector path, whose bits can differ from the
    same row of a matrix product.
    """
    thetas = np.asarray(thetas, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError(f"thetas must have shape (n, 16), got {thetas.shape}")
    fo = _forms(np.ascontiguousarray(omegas.T))
    n = len(thetas)
    K = np.empty((n, len(omegas)), dtype=complex)
    edges = [*range(0, n, _SZEGO_ROWS), n]
    if n > 1 and n % _SZEGO_ROWS == 1:
        del edges[-2]
    for lo, hi in zip(edges, edges[1:]):
        ft = _forms(np.ascontiguousarray(thetas[lo:hi].T))
        K[lo:hi] = _szego_power(lam, _psi_r(r, thetas[lo:hi] @ omegas.T, _phi_gram(ft, fo)))
    return K


# --------------------------------------------------------------------------
# Boundary data and eigenfunctions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryConstant:
    """Constant boundary function."""

    value: complex = 1.0


class EigenProfile:
    """The eigenfunction P_lam f for f in the (l, m) boundary type, through
    its radial factor Phi_{lam,lm}.

    The profile holds only (lam, l, m).  The norm and inversion integrals
    evaluate it on whole grids with one call to spherical_fn_scaled, whose
    (1-r^2)^{-rho/2} Phi(r) stays finite arbitrarily close to the boundary.

    For (l, m) = (0, 0) this is P_lam 1 itself and evaluation at ball points
    is supported: one spherical_fn call on the distinct radii (sorted, NaN
    collapsed to one, as np.unique makes them), read back through
    np.searchsorted.  |x|^2 comes
    from the row-blocked octonion._row_dot, so a large point set needs no
    temporary of its own size.
    """

    def __init__(self, lam, l: int = 0, m: int = 0):
        KTypeIndex(l, m)
        self.lam = complex(lam)
        self.l = int(l)
        self.m = int(m)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if (self.l, self.m) != (0, 0):
            raise ValueError(
                "pointwise evaluation needs the explicit boundary harmonic; "
                "only (l, m) = (0, 0) is supported"
            )
        pts = np.asarray(pts, dtype=float)
        radii = np.sqrt(_row_dot(pts, pts))
        distinct = np.sort(radii, axis=None)
        keep = np.ones(distinct.shape, dtype=bool)
        np.not_equal(distinct[1:], distinct[:-1], out=keep[1:])
        keep[np.searchsorted(distinct, np.nan) + 1:] = False     # NaN sorts last
        distinct = distinct[keep]
        return spherical_fn(self.lam, self.l, self.m, distinct)[np.searchsorted(distinct, radii)]


# --------------------------------------------------------------------------
# Poisson transform
# --------------------------------------------------------------------------

def poisson_transform(lam, f, x, spec: QuadratureSpec):
    """P_lam f(x) = int P_lam(x, omega) f(omega) domega.

    Constant data reduces to |x| e1 by invariance and integrates with the
    zonal rule.  Any other f is a callable on boundary points, and the
    value is sphere_average of P_lam(x, .) f.
    Refuses |x| > r_cap = 0.999, where the kernel peak outruns the quadrature.
    """
    x = np.asarray(x, dtype=float)
    radius = float(np.linalg.norm(x))
    if radius > _R_CAP:
        raise ValueError(f"|x| = {radius} exceeds r_cap = {_R_CAP} accuracy guard")

    if isinstance(f, BoundaryConstant):
        omr2 = 1.0 - radius * radius

        def g(u, v):
            return _poisson_power(lam, omr2, _zonal_psi(radius, u, v))

        return f.value * zonal_integrate(g, spec)

    def integrand(omega):
        return poisson_kernel_lambda(lam, x, omega) * np.asarray(f(omega))

    return sphere_average(integrand, spec)


# --------------------------------------------------------------------------
# Norms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HardyNormResult:
    value: float
    argmax_r: float
    per_r: tuple


def _checked_r_grid(r_grid: Sequence[float]) -> list[float]:
    """The radii of r_grid as floats; refuses an empty grid or a radius
    outside [0, r_cap]."""
    rs = [float(r) for r in r_grid]
    if not rs:
        raise ValueError("empty r_grid")
    if any(not (0.0 <= r <= _R_CAP) for r in rs):
        raise ValueError(f"r_grid must lie in [0, r_cap = {_R_CAP}]")
    return rs


def _sphere_sample(spec: QuadratureSpec) -> np.ndarray:
    """The sphere sample that the Monte Carlo routes of hardy_norm, m2_norm
    and boundary_recover_gt reuse at every radius."""
    return sample_sphere(min(spec.n_mc, 200_000), spec.seed)


def hardy_norm(F, p: float, r_grid: Sequence[float],
               spec: QuadratureSpec) -> HardyNormResult:
    """Grid version of sup_r (1-r^2)^{-rho/2} (int |F(r theta)|^p dtheta)^{1/p}.

    A lower bound of the true sup.  EigenProfile inputs use the exact
    radial factor, which is the L^p sphere mean for every p only for
    (l, m) = (0, 0) and the L^2 mean otherwise; callables use sphere Monte
    Carlo (one sample set shared across the grid).
    """
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    rs = _checked_r_grid(r_grid)
    if isinstance(F, EigenProfile):
        if (F.l, F.m) != (0, 0) and p != 2:
            raise ValueError(f"the radial factor of the ({F.l}, {F.m}) type is its "
                             f"L^2 sphere mean, not the L^{p} one")
        scaled = spherical_fn_scaled(F.lam, F.l, F.m, one_minus_r2=[1.0 - r * r for r in rs])
        per = [abs(v) for v in scaled.tolist()]
    else:
        pts = _sphere_sample(spec)
        per = [float(np.mean(np.abs(np.asarray(F(r * pts))) ** p)) ** (1.0 / p)
               * (1.0 - r * r) ** (-RHO / 2.0) for r in rs]
    i = int(np.argmax(per))
    return HardyNormResult(float(per[i]), rs[i], tuple(per))


def _geodesic_mean_sq(F: EigenProfile, ts: Sequence[float]) -> list[float]:
    """(S15/t) * int_0^t |scaled(sech^2 s)|^2 tanh(s)^15 ds for each t of ts -
    equals (1/t) int_{B(0,t)} |Phi(|x|)|^2 dmu(x) after r = tanh(s).

    The rule is 8-point Gauss-Legendre on the lattice panels [k/8, (k+1)/8]
    up to max(ts), split at every t of ts and, for t < 1/2, at t/4, t/2 and
    3t/4 (the integrand rises like s^(15 + 2l) from 0, so a whole first
    panel would cost a t < 1/2 about 1e-13 relative).  The profile is
    evaluated once, on the array of all nodes; the weighted values are
    summed in one cumulative pass, and each t reads the prefix of the nodes
    below it.
    """
    top = max(ts)
    lattice = {k / 8 for k in range(1, math.ceil(8 * top))}
    quarters = {t * k / 4 for t in ts if t < 0.5 for k in (1, 2, 3)}
    nodes, weights = gauss_panels(0.0, top, lattice.union(quarters, ts), order=8)
    scaled = spherical_fn_scaled(F.lam, F.l, F.m,
                                 one_minus_r2=[1.0 / math.cosh(s) ** 2 for s in nodes]).tolist()
    vals = [abs(v) ** 2 * math.tanh(s) ** 15 for v, s in zip(scaled, nodes)]
    prefix = np.cumsum(weights * np.array(vals))
    return [S15 * float(prefix[np.searchsorted(nodes, t) - 1]) / t for t in ts]


@dataclass(frozen=True)
class M2Result:
    value: float
    per_t: tuple


def _t_list(t_grid: Sequence[float]) -> list[float]:
    """The geodesic radii of a t grid as floats, each in (0, 350]: cosh(t)^2
    overflows a double above t ~ 355.6, and up to 350 sech^2(t) stays normal."""
    ts = [float(t) for t in t_grid]
    if not ts or not all(0.0 < t <= 350.0 for t in ts):
        raise ValueError("t_grid must be nonempty with every t in (0, 350]")
    return ts


def m2_norm(F, t_grid: Sequence[float], spec: QuadratureSpec) -> M2Result:
    """max over the t-grid of ((1/t) int_{B(0,t)} |F|^2 dmu)^{1/2}."""
    ts = _t_list(t_grid)
    if isinstance(F, EigenProfile):
        per = [math.sqrt(v) for v in _geodesic_mean_sq(F, ts)]
    else:
        pts = _sphere_sample(spec)

        def mean_sq(r):
            return np.mean(np.abs(np.asarray(F(r * pts))) ** 2)
        per = [math.sqrt(abs(ball_integrate(mean_sq, t)) / t) for t in ts]
    i = int(np.argmax(per))
    return M2Result(float(per[i]), tuple(per))


def boundary_recover_gt(lam, F, t_grid: Sequence[float], spec: QuadratureSpec, *,
                        omega=None) -> list[complex]:
    """Inversion functional g_t = |c(lam)|^{-2} (1/t) int_{B(0,t)}
    P_{-lam}(x, omega) F(x) dmu(x), one value per t of t_grid.

    EigenProfile inputs use the radial closed form (the boundary integral
    collapses to |Phi_{lam,lm}(r)|^2), which is independent of omega and
    needs the profile's own lam; the whole grid is one cumulative geodesic
    integral up to max(t_grid).  Other inputs need an explicit unit omega of
    shape (16,) and take the Monte Carlo route of ``_mc_recover_gt`` with
    the one boundary point omega.  As t grows, g_t tends to the boundary
    value of F times a fixed measure normalization, which this package
    measures rather than assumes (every limit constant is reported).
    """
    ts = _t_list(t_grid)
    lv = complex(lam)
    if isinstance(F, EigenProfile):
        if F.lam != lv:
            raise ValueError(f"the profile has lambda = {F.lam}, not {lv}")
        c2 = abs(hc_c_function(lv)) ** 2
        return [complex(v / c2) for v in _geodesic_mean_sq(F, ts)]
    if omega is None:
        raise ValueError("general inputs need an explicit boundary point omega")
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (16,) or not abs(float(np.linalg.norm(omega)) - 1.0) <= 1e-12:
        raise ValueError(f"omega must be a unit vector of shape (16,), got {omega!r}")
    return _mc_recover_gt(lv, F, ts, spec, omega[None])[0]


def _mc_recover_gt(lam, F, ts: Sequence[float], spec: QuadratureSpec,
                   omegas: np.ndarray) -> list[list[complex]]:
    """g_t of a general input F at each boundary point of omegas (shape
    (k, 16), unit rows), one list over ts per point: radial quadrature of
    sphere Monte Carlo means.

    One sphere sample serves every t and every point; |theta|^2 is formed
    once on it, and <theta, omega_j> and Phi(theta, omega_j) once per
    point.  Each radial node evaluates F once on r theta, and each point's
    kernel P_{-lam}(r theta, omega_j) is assembled elementwise from the
    invariants.
    """
    c2 = abs(hc_c_function(lam)) ** 2
    pts = _sphere_sample(spec)
    n2 = _row_dot(pts, pts)
    forms = [(_row_dot(pts, omega), phi_form(pts, omega)) for omega in omegas]

    def mean_at(r):
        vals = np.asarray(F(r * pts))
        omr2 = 1.0 - (r * r) * n2
        return [np.mean(_poisson_power(-lam, omr2, _psi_r(r, dot, phi)) * vals)
                for dot, phi in forms]

    per_t = [ball_integrate(mean_at, t) for t in ts]
    return [[complex(g / (t * c2)) for t, g in zip(ts, gs)] for gs in zip(*per_t)]


# --------------------------------------------------------------------------
# Sampled operator norm
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorNormResult:
    value: float
    residual: float
    iterations: int


def operator_norm_est(lam, r: float, n: int, seed: int) -> OperatorNormResult:
    """Largest singular value of K/n, K = [Psi_r(lam, theta_i, omega_j)], on
    independent uniform samples theta, omega; as r -> 1 the closest pair
    dominates K, so large-r values measure that spike, not the operator.

    Lanczos on K^H K with full reorthogonalization (Golub & Kahan 1965): from
    a seeded v_1, step j takes the top singular value sigma of
    [K v_1 ... K v_j] and orthogonalizes w = K^H K v_j twice against v_1..v_j
    into v_{j+1} = w/|w|.  It stops when sigma changes by <= 1e-12 relative
    or |w| <= 1e-13 sigma^2 (an invariant subspace: at r = 0, K has rank
    one), and raises NumericsError with the last Ritz values after 100
    steps.  K^H is never formed.  With x the unit K^H K image of the top
    Ritz vector, ``value`` is sqrt(x^H K^H K x)/n, ``residual`` is
    |K^H K x - sigma^2 x|/sigma^2 and ``iterations`` counts Lanczos steps.
    """
    if n < 16:
        raise ValueError("n must be >= 16")
    if not (0.0 <= r <= _R_CAP):
        raise ValueError(f"r must lie in [0, r_cap = {_R_CAP}]")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    s_theta, s_omega, s_start = spawn_seeds(seed, 3)
    K = szego_matrix(lam, r, sample_sphere(n, s_theta), sample_sphere(n, s_omega))
    v = np.random.default_rng(s_start).standard_normal(n).astype(complex)
    V, KV, tops = (v / np.linalg.norm(v))[None], [], [0.0]
    for it in range(1, 101):
        KV.append(K @ V[-1])
        y, s, _ = np.linalg.svd(np.array(KV), full_matrices=False)
        tops.append(float(s[0]))
        w = (KV[-1].conj() @ K).conj()
        for _ in range(2):
            w -= (V.conj() @ w) @ V
        nw = np.linalg.norm(w)
        if abs(tops[-1] - tops[-2]) <= 1e-12 * tops[-1] or nw <= 1e-13 * tops[-1] ** 2:
            break
        V = np.vstack([V, w / nw])
    else:
        raise NumericsError(f"Lanczos did not converge in 100 steps (lam={complex(lam)}, r={r}, "
                            f"n={n}); last top Ritz values {tops[-3:]}")
    x = (np.conj(K @ (y[:, 0].conj() @ V)) @ K).conj()   # K^H K times the top Ritz vector
    x /= np.linalg.norm(x)
    u = (np.conj(K @ x) @ K).conj()
    sigma_sq = float(np.real(np.vdot(x, u)))
    return OperatorNormResult(
        value=math.sqrt(max(sigma_sq, 0.0)) / n,
        residual=float(np.linalg.norm(u - sigma_sq * x) / max(sigma_sq, 1e-300)),
        iterations=it,
    )


# --------------------------------------------------------------------------
# Calderon-Zygmund estimate harness
# --------------------------------------------------------------------------

@dataclass
class CZReport:
    """Sampled maxima and exact-inequality violation counts for the kernel
    family on one sample set.  The size ratios and the violation counts
    contain no lambda; the other estimates are keyed {lam: {r: value}}."""

    lams: tuple
    r_grid: tuple
    n_samples: int
    size_per_r: dict = field(default_factory=dict)          # (i)
    smooth_per_r: dict = field(default_factory=dict)        # (ii)
    truncated_per_r: dict = field(default_factory=dict)     # (iii)
    violations_shift: int = 0        # |1 - r b|^{-1} <= 2 |1 - b|^{-1}
    violations_difference: int = 0   # |[th - th', om]| <= d'(d' + 2d)
    n_admissible: int = 0            # triples of (ii): d(th,om) >= 2 d(th,th') > 0
    hormander_per_r: dict = field(default_factory=dict)     # measured only


def _cz_pairs(n: int, seeds: Sequence[int]):
    """cz_suite's n sample rows (theta, omega, theta') from seeds
    = (s1, s2, s3, s4), yielded as coordinate-major (16, m) blocks of at
    most _PASS_ROWS points each.

    theta and omega are uniform on the sphere from s1 and s2.  The first
    n // 2 partners are uniform from s4; the others are theta perturbed by
    10^U(-3, 0.3) times a Gaussian from s3 and normalized, so they cover
    separations from O(1) down to ~1e-3.  All n - n // 2 factors come from
    s3 before its Gaussians, and every generator draws its rows in stream
    order, so the stacked blocks equal sample_sphere(n, s1).T,
    sample_sphere(n, s2).T and the whole-array partners' transpose bit for
    bit, for any block size.  Each block is drawn when the caller asks for
    it, and no reference to it is kept here after it is yielded.
    """
    rng1, rng2, rng3, rng4 = (np.random.default_rng(s) for s in seeds)
    half = n // 2
    eps = 10.0 ** rng3.uniform(-3.0, 0.3, size=n - half)

    def block(lo, hi):
        theta, omega = _sphere_cols(rng1, hi - lo), _sphere_cols(rng2, hi - lo)
        cut = min(max(half, lo), hi) - lo   # columns from here take perturbed partners
        theta_p = np.empty((hi - lo, 16))
        rng4.standard_normal(out=theta_p[:cut])
        rng3.standard_normal(out=theta_p[cut:])
        theta_p = theta_p.T.copy()
        theta_p[:, cut:] *= eps[lo + cut - half:hi - half]
        theta_p[:, cut:] += theta[:, cut:]
        return theta, omega, _unit_cols(theta_p)

    for lo in range(0, n, _PASS_ROWS):
        yield block(lo, min(n, lo + _PASS_ROWS))


def _cz_pass(rep: CZReport, seeds: Sequence[int]) -> None:
    """Fill rep's size ratios (i), smoothness maxima (ii), violation counts
    and admissible count in one pass over _cz_pairs(rep.n_samples, seeds).

    Each block's forms, distances, bracket and admissible triples are
    formed once for every lambda, and (ii) is evaluated on the admissible
    rows alone: its quotients are >= 0 or NaN, and a NaN row is never
    admissible, so np.max(..., initial=0.0) over them equals the maximum
    over all rows with 0 elsewhere.  The maxima fold with np.maximum from
    -inf, so each equals one np.max over all rows, NaN included, whatever
    the block size.  Each block's arrays are freed before the next block
    is drawn.
    """
    size = dict.fromkeys(rep.r_grid, -np.inf)
    smooth = {lam: dict.fromkeys(rep.r_grid, -np.inf) for lam in rep.lams}

    def pass_block(theta, omega, theta_p):
        f_t, f_o, f_p = _forms(theta), _forms(omega), _forms(theta_p)
        dot_to, dot_po = _dot_cols(theta, omega), _dot_cols(theta_p, omega)
        phi_to, phi_po = _phi(f_t, f_o), _phi(f_p, f_o)
        psi1 = _psi_r(1.0, dot_to, phi_to)
        sqrt_psi1 = np.sqrt(psi1)
        d_to = np.maximum(psi1, 0.0) ** 0.25
        d_tt = np.maximum(_psi(f_t, f_p), 0.0) ** 0.25
        # the bracket-difference inequality and the admissible triples of (ii)
        b = _bracket_cols(theta - theta_p, omega)
        rep.violations_difference += int(
            np.count_nonzero(np.sqrt(_dot_cols(b, b)) > d_tt * (d_tt + 2.0 * d_to) + 1e-12))
        nz = (d_to >= 2.0 * d_tt) & (d_tt > 0)
        rep.n_admissible += int(np.count_nonzero(nz))
        dot_to_a, phi_to_a, dot_po_a, phi_po_a = dot_to[nz], phi_to[nz], dot_po[nz], phi_po[nz]
        d_tt_a, pow_to_a = d_tt[nz], d_to[nz] ** (2 * RHO + 1)
        for r in rep.r_grid:
            # (i) as (Psi_1/Psi_r)^{rho/2} = |Psi_r| d^{2 rho}, and the shift inequality
            psir = _psi_r(r, dot_to, phi_to)
            size[r] = np.maximum(size[r], np.max((psi1 / psir) ** (RHO / 2.0)))
            rep.violations_shift += int(
                np.count_nonzero(sqrt_psi1 > 2.0 * np.sqrt(psir) + 1e-12))
            # (ii) on the admissible pairs
            psir_a, psir_pa = _psi_r(r, dot_to_a, phi_to_a), _psi_r(r, dot_po_a, phi_po_a)
            for lam in rep.lams:
                num = np.abs(_szego_power(lam, psir_a) - _szego_power(lam, psir_pa)) * pow_to_a
                smooth[lam][r] = np.maximum(
                    smooth[lam][r], np.max(num / (d_tt_a * (1.0 + abs(lam))), initial=0.0))

    for block in _cz_pairs(rep.n_samples, seeds):
        pass_block(*block)
        del block
    rep.size_per_r = {r: float(v) for r, v in size.items()}
    rep.smooth_per_r = {lam: {r: float(v) for r, v in per.items()} for lam, per in smooth.items()}


# Leaf size of numpy's pairwise summation (pairwise_sum in numpy/_core/src/
# umath/loops_utils.h.src), which np.add.reduce and np.mean run over a
# contiguous float64 array.
_PAIRWISE_LEAF = 128


def _pairwise_leaves(n: int) -> list[int]:
    """The lengths, in order, of the leaves of numpy's pairwise sum over n
    elements: a run of at most _PAIRWISE_LEAF elements is one leaf (summed
    by 8 interleaved accumulators); a longer one splits in two at half its
    length rounded down to a multiple of 8."""
    if n <= _PAIRWISE_LEAF:
        return [n]
    half = n // 2 - n // 2 % 8
    return _pairwise_leaves(half) + _pairwise_leaves(n - half)


def _pairwise_total(leaf_sums: np.ndarray, n: int) -> np.ndarray:
    """np.add.reduce over n elements from the np.add.reduce of each of its
    leaves (last axis of leaf_sums, in the order of _pairwise_leaves(n)),
    added in numpy's tree, so it equals np.add.reduce of the whole run bit
    for bit, NaN, infinities and signed zeros included.  This mirrors
    numpy's pairwise summation (leaf size 128, 8-way unroll); a numpy that
    sums otherwise fails the test that pins it."""
    sums = iter(np.moveaxis(leaf_sums, -1, 0))

    def total(k):
        if k <= _PAIRWISE_LEAF:
            return next(sums)
        half = k // 2 - k // 2 % 8
        left = total(half)
        return left + total(k - half)

    return total(n)


def _hormander_blocks(m: int, seed: int):
    """The Hormander tail's sample om = sample_sphere(m, seed) and its forms,
    yielded as (leaves, masks, dots, phis) per block of points.

    A block is a run of whole leaves of numpy's pairwise sum over m
    (_pairwise_leaves) of at most _PASS_ROWS points, but at least one leaf;
    ``leaves`` are their lengths.  For the four points th at dyadic
    distances from e1, row k of masks is d(om, e1) > 2 d(th, e1), and rows
    k of dots and phis are <om, th> and Phi(om, th); row 4 of dots and phis
    is e1's.  om is drawn in stream order as coordinate-major blocks, as
    geometry.ball_volume_est draws its sample, so the stacked blocks equal
    the whole-array construction bit for bit.  Each block is drawn when the
    caller asks for it, and no reference to its sample is kept here."""
    shift = np.concatenate([np.zeros(8), np.ones(8) / math.sqrt(8.0)])
    ths = [E1 + 2.0 ** (-k) * shift for k in range(0, 4)]
    points = [(th / np.linalg.norm(th))[:, None] for th in ths] + [E1[:, None]]
    f_points = [_forms(x) for x in points]
    cuts = np.array([2.0 * _dist_to_e1_cols(th) for th in points[:4]])
    rng = np.random.default_rng(seed)

    def block(rows):
        om = _sphere_cols(rng, rows)
        f_om = _forms(om)
        return (_dist_to_e1_cols(om) > cuts, np.array([_dot_cols(om, x) for x in points]),
                np.array([_phi(f_om, f_x) for f_x in f_points]))

    leaves = _pairwise_leaves(m)
    first = 0
    while first < len(leaves):
        last, rows = first + 1, leaves[first]
        while last < len(leaves) and rows + leaves[last] <= _PASS_ROWS:
            rows += leaves[last]
            last += 1
        yield (leaves[first:last], *block(rows))
        first = last


def _hormander_tail(lams, rs, n: int, seed: int) -> dict:
    """cz_suite's Hormander tail, keyed {lam: {r: value}}: the maximum over 0
    and the probes th of mean(|Psi_r(lam, th, om) - Psi_r(lam, e1, om)| 1{d(om,
    e1) > 2 d(th, e1)}) / (1 + |lam|) on the blocks of _hormander_blocks(
    min(n, 100_000), seed).  A probe whose mask never holds is left out.

    Per block and (lam, r), e1's kernel is formed once and each probe's
    masked differences beside it; each leaf of the block is reduced with
    np.add.reduce (one 2-D reduce per run of equal leaves), and after the
    pass _pairwise_total adds the leaf sums in numpy's tree.  So every mean
    equals np.mean over the whole sample bit for bit, NaN included, for any
    block size, and one block's arrays are freed before the next is drawn."""
    m = min(n, 100_000)
    sums = np.empty((len(lams), len(rs), 4, len(_pairwise_leaves(m))))
    hit = np.zeros(4, dtype=bool)
    done = 0
    for leaves, masks, dots, phis in _hormander_blocks(m, seed):
        hit |= masks.any(axis=1)
        vals = np.empty(sums.shape[:-1] + (len(dots[0]),))
        for a, lam in enumerate(lams):
            for b, r in enumerate(rs):
                k_e1 = _szego_power(lam, _psi_r(r, dots[4], phis[4]))
                for k in range(4):
                    vals[a, b, k] = np.abs(_szego_power(lam, _psi_r(r, dots[k], phis[k])) - k_e1)
        vals *= masks
        lo = 0
        for size, run in itertools.groupby(leaves):
            count = len(list(run))
            run_vals = vals[..., lo:lo + count * size].reshape(sums.shape[:-1] + (count, size))
            sums[..., done:done + count] = np.add.reduce(run_vals, axis=-1)
            lo, done = lo + count * size, done + count
        del masks, dots, phis, vals, run_vals
    means = _pairwise_total(sums, m) / m
    return {lam: {r: float(np.max(means[a, b, hit] / (1.0 + abs(lam)), initial=0.0))
                  for b, r in enumerate(rs)}
            for a, lam in enumerate(lams)}


def _truncated_means(lams, rs, spec: QuadratureSpec) -> dict:
    """cz_suite's (iii), keyed {lam: {r: value}}, through the zonal rule.  The
    three delta masks are formed once and the kernel once per (lam, r); none
    of them outlives the call, so none is held beside the Hormander probes."""
    U, V = _zonal_nodes(spec.n_gauss)
    cuts = [_zonal_psi(1.0, U, V) <= dta ** 4 for dta in (0.2, 0.5, 1.0)]

    def best(lam, r):
        kern = _szego_power(lam, _zonal_psi(r, U, V))
        return max(abs(zonal_integrate(lambda u, v: kern * cut, spec)) for cut in cuts)

    return {lam: {r: best(lam, r) / (1.0 + 1.0 / abs(lam)) for r in rs} for lam in lams}


def cz_suite(lams: Sequence[float], spec: QuadratureSpec, *,
             r_grid: Sequence[float] = (0.5, 0.9, 0.99)) -> CZReport:
    """Evaluate the kernel-family estimates on spec.n_mc sample pairs:

    (i)   |Psi_r| d(theta,omega)^{2 rho}                      (sampled max)
    (ii)  |Psi_r(th,om) - Psi_r(th',om)| d(th,om)^{2 rho + 1}
          / (d(th,th') (1 + |lam|)) on d(th,om) >= 2 d(th,th')
    (iii) |int_{d <= delta} Psi_r domega| / (1 + 1/|lam|)     (zonal rule,
          maximum over delta in {0.2, 0.5, 1})

    plus exact checks with violation counts (slack 1e-12):

          |1 - b| <= 2 |1 - r b|          for b = [theta, omega]
          |[th - th', om]| <= d(th,th') (d(th,th') + 2 d(th,om))

    and a measured Hormander-type tail integral.  Half of the (ii) triples
    place theta' at log-spaced distances from theta so the sup is probed
    across separation scales, not just at typical ones.

    Everything runs on the caller's thread.  The sample rows stream once
    through _cz_pass in blocks drawn by _cz_pairs; (i), (ii) and the counts
    are running maxima and sums over the blocks.  After the pass, (iii) is
    evaluated on the zonal rule by _truncated_means, and the tail by
    _hormander_tail in one more pass over the probe sample (seed s4 + 1),
    in blocks of whole leaves of numpy's pairwise sum; no array is held
    whole, and each mean equals np.mean over the whole sample bit for bit,
    so every value is independent of the block size.  The maximum over the
    probes keeps a NaN mean.
    Estimates other than (i) and the counts are keyed {lam: {r: value}}.
    """
    lams = tuple(float(lam) for lam in lams)
    if not lams:
        raise ValueError("empty lambda grid")
    if 0.0 in lams:
        raise ValueError("lambda must be nonzero")
    n = spec.n_mc
    if n < 2:
        raise ValueError(f"n_mc must be >= 2 to split the sample pairs in half, got {n}")
    rs = tuple(_checked_r_grid(r_grid))
    rep = CZReport(lams=lams, r_grid=rs, n_samples=n)

    seeds = spawn_seeds(spec.seed, 4)
    _cz_pass(rep, seeds)
    rep.truncated_per_r = _truncated_means(lams, rs, spec)
    rep.hormander_per_r = _hormander_tail(lams, rs, n, seeds[3] + 1)
    return rep
