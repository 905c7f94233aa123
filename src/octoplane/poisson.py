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
a sampled-operator norm estimator, the Calderon-Zygmund estimate harness,
and the molecule weight Omega with its dyadic radii eta_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError
from .geometry import (E1, _forms, _phi, _phi_gram, _psi, _psi_r, _zonal_psi, bracket,
                       dist_to_e1, ni_dist, phi_form, psi_form)
from .octonion import _row_dot, oct_norm
from .quadrature import (
    S15,
    QuadratureSpec,
    _Fill,
    _to_sphere,
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
    "BoundaryZonal",
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
    "eta_j",
    "weight_omega",
]

# Largest radius at which the transform, the Hardy grid and the sampled
# operator are evaluated: beyond it the kernel peak outruns the quadrature.
_R_CAP = 0.999


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
    return np.exp(_spectral_s(lam) * np.log(omr2 / psi))


def _szego_power(lam, psi) -> np.ndarray:
    """psi^{(-i lam - rho)/2}: the Szego kernel value at Psi(r theta, omega) = psi."""
    return np.exp(-_spectral_s(lam) * np.log(psi))


def szego_kernel(lam, r, theta, omega) -> np.ndarray:
    """Psi_r(lam, theta, omega) = |1 - r[theta,omega]|^{-i lam - rho}."""
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    psi = _psi_r(r, _row_dot(theta, omega), phi_form(theta, omega))
    return _szego_power(complex(lam), psi)


def szego_matrix(lam, r, thetas: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Pairwise kernel values Psi_r(lam, theta_i, omega_j), shape (n, m).

    Psi(r theta, omega) expands into Gram products of the 16-vectors and of
    the per-point slot products x1 x2 (``geometry._phi_gram`` on the
    invariants of ``geometry._forms``), so the whole matrix assembles from
    two matrix multiplications.
    """
    ft, fo = _forms(thetas), _forms(omegas)
    return _szego_power(complex(lam), _psi_r(r, ft.x @ fo.x.T, _phi_gram(ft, fo)))


# --------------------------------------------------------------------------
# Boundary data and eigenfunctions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryConstant:
    """Constant boundary function."""

    value: complex = 1.0


@dataclass(frozen=True)
class BoundaryZonal:
    """Boundary function of the first slot only: f(omega) = g(Re w1, |Im w1|)."""

    g: Callable

    def __call__(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        u = omega[..., 0]
        v = np.sqrt(np.sum(omega[..., 1:8] ** 2, axis=-1))
        return self.g(u, v)


class EigenProfile:
    """The eigenfunction P_lam f for f in the (l, m) boundary type, through
    its radial factor Phi_{lam,lm}.

    The profile holds only (lam, l, m).  The norm and inversion integrals
    evaluate it on whole grids with one call to spherical_fn_scaled, whose
    (1-r^2)^{-rho/2} Phi(r) stays finite arbitrarily close to the boundary.

    For (l, m) = (0, 0) this is P_lam 1 itself and evaluation at ball points
    is supported: one spherical_fn call on the distinct radii.  |x|^2 comes
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
        distinct = np.unique(radii)
        return spherical_fn(self.lam, self.l, self.m, distinct)[np.searchsorted(distinct, radii)]


# --------------------------------------------------------------------------
# Poisson transform
# --------------------------------------------------------------------------

def _radius_aligned(x: np.ndarray) -> float | None:
    """|x| if x is a nonnegative multiple of (1,0), else None."""
    if abs(float(np.max(np.abs(x[1:])))) < 1e-14 and x[0] >= 0.0:
        return float(x[0])
    return None


def poisson_transform(lam, f, x, spec: QuadratureSpec, *,
                      return_stderr: bool = False):
    """P_lam f(x) = int P_lam(x, omega) f(omega) domega.

    Constant data reduces to |x| e1 by invariance and integrates with the
    zonal rule; zonal data does so when x is aligned with e1; anything else
    uses sphere Monte Carlo (optionally returning the standard error).
    Refuses |x| > r_cap = 0.999, where the kernel peak outruns the quadrature.
    """
    lv = complex(lam)
    x = np.asarray(x, dtype=float)
    radius = float(np.linalg.norm(x))
    if radius > _R_CAP:
        raise ValueError(f"|x| = {radius} exceeds r_cap = {_R_CAP} accuracy guard")

    r = None
    if isinstance(f, BoundaryConstant):
        r = radius
    elif isinstance(f, BoundaryZonal):
        r = _radius_aligned(x)
    if r is not None:
        omr2 = 1.0 - r * r

        def g(u, v):
            kern = _poisson_power(lv, omr2, _zonal_psi(r, u, v))
            return kern * f.g(u, v) if isinstance(f, BoundaryZonal) else kern

        val = zonal_integrate(g, spec)
        if isinstance(f, BoundaryConstant):
            val = f.value * val
        return (val, 0.0) if return_stderr else val

    def integrand(omega):
        return poisson_kernel_lambda(lv, x, omega) * np.asarray(f(omega))

    val, se = sphere_average(integrand, spec)
    return (val, se) if return_stderr else val


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
    lv = complex(lam)
    c2 = abs(hc_c_function(lv)) ** 2
    pts = _sphere_sample(spec)
    n2 = _row_dot(pts, pts)
    forms = [(_row_dot(pts, omega), phi_form(pts, omega)) for omega in omegas]

    def mean_at(r):
        vals = np.asarray(F(r * pts))
        omr2 = 1.0 - (r * r) * n2
        return [np.mean(_poisson_power(-lv, omr2, _psi_r(r, dot, phi)) * vals)
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
    """Largest singular value of the sampled kernel matrix
    [Psi_r(lam, theta_i, omega_j)/n] by power iteration on the Gram operator
    (at most 500 steps, stopped at a relative change of 1e-10).

    theta and omega are independent uniform sample sets.  The kernel has an
    integrable singularity at theta = omega as r -> 1; the closest sampled
    pair then dominates the matrix, so estimates at large r measure that
    spike rather than the integral operator.
    """
    if n < 16:
        raise ValueError("n must be >= 16")
    if not (0.0 <= r <= _R_CAP):
        raise ValueError(f"r must lie in [0, r_cap = {_R_CAP}]")
    lv = complex(lam)
    s_theta, s_omega, s_start = spawn_seeds(seed, 3)
    thetas = sample_sphere(n, s_theta)
    omegas = sample_sphere(n, s_omega)
    K = szego_matrix(lv, r, thetas, omegas)
    KH = K.conj().T
    v = np.random.default_rng(s_start).standard_normal(n).astype(complex)
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for it in range(1, 501):
        w = K @ v
        u = KH @ w
        nu = np.linalg.norm(u)
        sigma = math.sqrt(np.linalg.norm(w) ** 2)  # = ||K v||, v unit
        if nu == 0.0:
            break
        v = u / nu
        if abs(sigma - sigma_prev) <= 1e-10 * max(sigma, 1e-300):
            break
        sigma_prev = sigma
    else:
        raise NumericsError(
            f"power iteration did not converge in 500 steps "
            f"(lam={lv}, r={r}, n={n})"
        )
    w = K @ v
    u = KH @ w
    sigma_sq = float(np.real(np.vdot(v, u)))
    residual = float(np.linalg.norm(u - sigma_sq * v) / max(sigma_sq, 1e-300))
    return OperatorNormResult(
        value=math.sqrt(max(sigma_sq, 0.0)) / n,
        residual=residual,
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


def _cz_samples(n: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta, omega and the partners theta' of cz_suite's n sample pairs,
    from seeds = (s1, s2, s3, s4).

    theta and omega are uniform on the sphere from s1 and s2.  The first
    n // 2 partners are uniform from s4; the others are theta perturbed by
    10^U(-3, 0.3) times a Gaussian from s3 and normalized, so they cover
    separations from O(1) down to ~1e-3.  The four Gaussian fills run on
    helper threads (``quadrature._Fill``), theta's and omega's first, while
    this thread normalizes the rows that have arrived.  Each generator is
    used by one thread at a time and in the serial order, so the bits equal
    those of sample_sphere(n, s1), sample_sphere(n, s2),
    sample_sphere(n // 2, s4) and the serial draw of the perturbed partners.
    """
    s1, s2, s3, s4 = seeds
    half = n // 2
    theta, omega, theta_p = (np.empty((n, 16)) for _ in range(3))
    rng3 = np.random.default_rng(s3)
    with (_Fill(np.random.default_rng(s1), theta) as theta_fill,
          _Fill(np.random.default_rng(s2), omega) as omega_fill):
        eps = 10.0 ** rng3.uniform(-3.0, 0.3, size=n - half)
        theta_fill.result()
        # the partner fills start only now, so that they do not slow theta's
        with (_Fill(np.random.default_rng(s4), theta_p[:half]) as independent_fill,
              _Fill(rng3, theta_p[half:]) as perturbation_fill):
            _to_sphere(theta)
            _to_sphere(omega_fill.result())
            partners = perturbation_fill.result()
            partners *= eps[:, None]
            partners += theta[half:]
            independent_fill.result()
    return theta, omega, _to_sphere(theta_p)


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

    One sample set serves every lambda of lams.  Everything but the Szego
    powers is lambda-free and formed once: the samples, <theta, omega>,
    Phi, the distances, the bracket, the admissible pairs of (ii), the
    Hormander probe forms, the size ratios (i) (|Psi_r| d^{2 rho} =
    (Psi_1/Psi_r)^{rho/2}) and both violation counts.  Only (ii), (iii)
    and the tail are evaluated per lambda, keyed {lam: {r: value}}.

    The five Gaussian fills of the samples (theta, omega, both halves of
    theta' in ``_cz_samples``, and the Hormander sample) run on helper
    threads, each joined just before its array is first read, so the
    draws overlap this thread's normalizing and form work.  A helper only
    fills an array allocated here, with a generator nothing else touches
    until the join, so the values do not depend on thread timing; an
    exception on a helper re-raises here, and every helper is joined
    before cz_suite returns or raises.
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
    theta, omega, theta_p = _cz_samples(n, seeds)
    # (i) and the shift inequality, pairwise by rows; each set is formed once,
    # and <theta,omega> and Phi(theta,omega) are hoisted out of the r loop
    f_t, f_o = _forms(theta), _forms(omega)
    dot_to = _row_dot(theta, omega)
    phi_to = _phi(f_t, f_o)
    psi1 = _psi_r(1.0, dot_to, phi_to)
    for r in rs:
        psir = _psi_r(r, dot_to, phi_to)
        rep.size_per_r[r] = float(np.max((psi1 / psir) ** (RHO / 2.0)))
        rep.violations_shift += int(
            np.count_nonzero(np.sqrt(psi1) > 2.0 * np.sqrt(psir) + 1e-12)
        )

    # (ii) the pair forms (dropped once read) and the bracket-difference
    # inequality
    f_p = _forms(theta_p)
    d_tt = np.maximum(_psi(f_t, f_p), 0.0) ** 0.25
    phi_po = _phi(f_p, f_o)
    del f_t, f_o, f_p
    # the Hormander sample fills while the bracket is formed
    m = min(n, 100_000)
    with _Fill(np.random.default_rng(seeds[3] + 1), np.empty((m, 16))) as hormander_fill:
        d_to = np.maximum(psi1, 0.0) ** 0.25
        rhs47 = d_tt * (d_tt + 2.0 * d_to)
        lhs47 = oct_norm(bracket(theta - theta_p, omega))
        rep.violations_difference = int(np.count_nonzero(lhs47 > rhs47 + 1e-12))
        nz = (d_to >= 2.0 * d_tt) & (d_tt > 0)
        rep.n_admissible = int(np.count_nonzero(nz))
        dot_po = _row_dot(theta_p, omega)
        pow_to = d_to ** (2 * RHO + 1)
        om_h = _to_sphere(hormander_fill.result())
    # dead from here; kept, they would set the memory peak in the lambda loop
    del theta, omega, theta_p, psi1, d_to, rhs47, lhs47

    # Hormander tail probes: theta at dyadic distances from e1; the
    # r-independent <om, th> and Phi(om, th) are formed once per probe point,
    # Phi from the invariants of om_h, formed once for all probes
    f_h = _forms(om_h)
    d_om = dist_to_e1(om_h)
    probes = []
    for k in range(0, 4):
        th = E1 + 2.0 ** (-k) * np.concatenate([np.zeros(8), np.ones(8) / math.sqrt(8.0)])
        th = th[None, :] / np.linalg.norm(th)
        mask = d_om > 2.0 * float(dist_to_e1(th)[0])
        if mask.any():
            probes.append((mask, _row_dot(om_h, th), _phi(f_h, _forms(th))))
    dot_e1 = _row_dot(om_h, E1[None, :])
    phi_e1 = _phi(f_h, _forms(E1[None, :]))

    for lam in lams:
        la = abs(lam)
        smooth, truncated, tail = {}, {}, {}
        for r in rs:
            # (ii) on the admissible pairs
            k1 = _szego_power(lam, _psi_r(r, dot_to, phi_to))
            k2 = _szego_power(lam, _psi_r(r, dot_po, phi_po))
            num = np.abs(k1 - k2) * pow_to
            den = d_tt * (1.0 + la)
            smooth[r] = float(np.max(np.where(nz, num / np.where(nz, den, 1.0), 0.0)))

            # (iii) truncated means through the zonal rule
            best = 0.0
            for dta in (0.2, 0.5, 1.0):
                def g(u, v):
                    return _szego_power(lam, _zonal_psi(r, u, v)) * (_zonal_psi(1.0, u, v) <= dta ** 4)

                best = max(best, abs(zonal_integrate(g, spec)) / (1.0 + 1.0 / la))
            truncated[r] = best

            # the Hormander tail
            k_e1 = _szego_power(lam, _psi_r(r, dot_e1, phi_e1))
            worst = 0.0
            for mask, dot, phi in probes:
                vals = np.abs(_szego_power(lam, _psi_r(r, dot, phi)) - k_e1)
                worst = max(worst, float(np.mean(vals * mask)) / (1.0 + la))
            tail[r] = worst
        rep.smooth_per_r[lam] = smooth
        rep.truncated_per_r[lam] = truncated
        rep.hormander_per_r[lam] = tail
    return rep


# --------------------------------------------------------------------------
# Molecules
# --------------------------------------------------------------------------

def eta_j(j: int) -> float:
    """Dyadic radii 2(1 - 2^{-j}) / (2^{-2j} + 2(1 - 2^{-j})): 0, 4/5, ... -> 1."""
    if j < 0 or j != int(j):
        raise ValueError("j must be a nonnegative integer")
    a = 1.0 - 2.0 ** (-j)
    return 2.0 * a / (2.0 ** (-2 * j) + 2.0 * a)


def weight_omega(eta: float, delta: float, theta, omega) -> np.ndarray:
    """Molecule weight eta^delta (eta + d(theta, omega))^{-delta - 2 rho}."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    d = ni_dist(theta, omega)
    return eta ** delta * (eta + d) ** (-delta - 2.0 * RHO)
