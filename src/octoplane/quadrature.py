"""Sampling and integration on the boundary sphere and the ball.

The boundary sphere S^15 carries the normalized (probability) measure
``domega``.  A function depending only on the first octonion slot through
``(u, v) = (Re w1, |Im w1|)`` reduces to a weighted integral over the half
disk:

    int f domega = C_ZONAL * int_{u^2+v^2<1, v>0} g(u,v) (1-u^2-v^2)^3 v^6 du dv

where C_ZONAL = 896/pi.  Derivation of the constants: the marginal density
of the first slot on the unit 8-ball is (840/pi^4)(1-|x|^2)^3 (a beta
integral: Vol(S^7) * int_0^1 (1-r^2)^3 r^7 dr = pi^4/840), and collapsing
the 7-sphere of Im w1 directions contributes Vol(S^6) v^6 = (16 pi^3/15) v^6;
840/pi^4 * 16 pi^3/15 = 896/pi.  Both constants are implementation-derived
and double-checked against Monte Carlo in the tests.

The invariant measure of the ball is dmu = (1-|x|^2)^{-rho-1} dm with dm
Lebesgue on R^16; in polar form dm = S15 r^15 dr domega with
S15 = 2 pi^8 / 7! the area of S^15.  Geodesic balls of radius t are
Euclidean balls of radius tanh(t).

Sphere samples are one seeded Gaussian draw per call, its rows normalized
in place (``_to_sphere``).  The streamed passes draw theirs block by block
as coordinate-major (16, m) blocks of unit columns (``_sphere_cols``), with
the same bits.  Every routine here runs on its caller's thread.

The zonal rule uses tensor Gauss-Legendre panels on polar coordinates of
the half disk, graded geometrically toward the corner (u,v) = (1,0) where
every kernel in this package concentrates; n_gauss controls the roughly
total node count per axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError
from .octonion import _dot_cols, _row_dot

__all__ = [
    "C_ZONAL",
    "S15",
    "QuadratureSpec",
    "sample_sphere",
    "spawn_seeds",
    "zonal_grid",
    "zonal_integrate",
    "sphere_average",
    "gauss_panels",
    "ball_integrate",
]

C_ZONAL = 896.0 / math.pi
S15 = 2.0 * math.pi ** 8 / math.factorial(7)


@dataclass(frozen=True)
class QuadratureSpec:
    """Budget and determinism knobs shared by the integration routines."""

    n_mc: int = 200_000
    n_gauss: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if self.n_gauss < 2:
            raise ValueError("n_gauss must be >= 2")


def sample_sphere(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points of S^15, shape (n, 16): the rows of
    default_rng(seed).standard_normal((n, 16)), normalized in place."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _to_sphere(np.random.default_rng(seed).standard_normal((n, 16)))


def _to_sphere(x: np.ndarray) -> np.ndarray:
    """Each row of the (n, 16) array x scaled in place to unit length, with
    the bits of x / np.linalg.norm(x, axis=1, keepdims=True)."""
    x /= np.sqrt(_row_dot(x, x))[:, None]
    return x


def _unit_cols(t: np.ndarray) -> np.ndarray:
    """Each column of the (16, m) block t scaled in place to unit length, with
    the bits of _to_sphere on the rows of t.T."""
    t /= np.sqrt(_dot_cols(t, t))
    return t


def _sphere_cols(rng: np.random.Generator, m: int) -> np.ndarray:
    """m uniform points of the sphere as a (16, m) block: the next m rows of
    rng's normals, transposed, with unit columns; the bits of
    _to_sphere(rng.standard_normal((m, 16))).T."""
    return _unit_cols(rng.standard_normal((m, 16)).T.copy())


def spawn_seeds(seed: int, k: int) -> list[int]:
    """k independent child seeds; partial results merged across substreams
    stay deterministic under any scheduling."""
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(k)]


def _graded_edges_toward_one(n_levels: int) -> np.ndarray:
    # 0, 1/2, 3/4, ..., 1-2^-n, 1
    ks = np.arange(1, n_levels + 1)
    return np.concatenate([[0.0], 1.0 - 2.0 ** (-ks), [1.0]])


@functools.cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    on first use; read-only, since every caller shares them."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.setflags(write=False)
    wg.setflags(write=False)
    return xg, wg


def _panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of the given order on every panel
    [edges[k], edges[k+1]], nodes in increasing order."""
    xg, wg = _legendre_rule(order)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * xg).ravel(), (half * wg).ravel()


@functools.cache
def _zonal_rule(n_gauss: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """R, cos phi, sin phi and the weights W of zonal_grid(n_gauss), computed
    once per n_gauss and read-only, since every caller shares them; only W
    has the grid's size, so the shared rule holds a third of its memory."""
    levels = 20
    order = max(4, int(round(n_gauss / (levels + 1))))
    r_edges = _graded_edges_toward_one(levels)
    R, wR = _panel_rule(r_edges, order)
    # phi/pi graded toward 0 via mirrored dyadic edges
    p_edges = 1.0 - _graded_edges_toward_one(levels)[::-1]
    P, wP = _panel_rule(p_edges, order)
    P *= math.pi
    wP *= math.pi
    Rg, Pg = np.meshgrid(R, P, indexing="ij")
    V = Rg * np.sin(Pg)
    W = np.outer(wR, wP) * (1.0 - Rg ** 2) ** 3 * V ** 6 * Rg * C_ZONAL
    rule = (R, np.cos(P), np.sin(P), W)
    for a in rule:
        a.setflags(write=False)
    return rule


def zonal_grid(n_gauss: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (U, V) and weights W with  int f domega = sum W * g(U, V).

    Polar coordinates (R, phi) on the half disk, u = R cos phi,
    v = R sin phi; R panels graded toward R = 1 (20 dyadic levels) and phi
    panels graded toward phi = 0, resolving corner scales down to ~2^-40
    in 1 - u.  Weight (1-R^2)^3 (R sin phi)^6 R >= 0 everywhere.  Each call
    returns fresh arrays from the rule shared per n_gauss (_zonal_rule).
    """
    return (*_zonal_nodes(n_gauss), _zonal_rule(n_gauss)[3].copy())


def _zonal_nodes(n_gauss: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh nodes (U, V) of zonal_grid(n_gauss), without its weights."""
    R, cos_phi, sin_phi, _ = _zonal_rule(n_gauss)
    return np.multiply.outer(R, cos_phi), np.multiply.outer(R, sin_phi)


def zonal_integrate(g: Callable, spec: QuadratureSpec) -> complex:
    """Integral over the boundary sphere of the zonal function
    f(omega) = g(Re omega_1, |Im omega_1|), by the half-disk rule.  W is
    read from the shared rule, not copied: nothing here writes it."""
    U, V = _zonal_nodes(spec.n_gauss)
    W = _zonal_rule(spec.n_gauss)[3]
    vals = np.asarray(g(U, V))
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericsError(
            f"non-finite zonal integrand at (u, v) = ({U[i, j]!r}, {V[i, j]!r})"
        )
    return complex(np.sum(W * vals))


def sphere_average(f: Callable, spec: QuadratureSpec) -> complex:
    """Monte Carlo mean of f over the boundary sphere.

    Splits spec.n_mc into batches of 500,000 points drawn from seeded
    substreams (spawn_seeds) and sums the values batch by batch.
    """
    n_total = spec.n_mc
    batch = 500_000
    n_batches = (n_total + batch - 1) // batch
    seeds = spawn_seeds(spec.seed, n_batches)
    acc = 0.0 + 0.0j
    done = 0
    for s in seeds:
        k = min(batch, n_total - done)
        pts = sample_sphere(k, s)
        vals = np.asarray(f(pts))
        if not np.all(np.isfinite(vals)):
            raise NumericsError("non-finite sample in sphere Monte Carlo")
        acc += np.sum(vals)
        done += k
    return complex(acc / n_total)


def gauss_panels(a: float, b: float, breakpoints: Sequence[float],
                 order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [a, b] split at the given interior
    breakpoints."""
    pts = [a] + [x for x in sorted(breakpoints) if a < x < b] + [b]
    return _panel_rule(np.asarray(pts, dtype=float), order)


def _radial_rule(t: float) -> tuple[np.ndarray, np.ndarray]:
    # r in [0, tanh t], split at 1 - 2^-k to resolve the (1-r^2)^{-rho-1} blowup
    r_max = math.tanh(t)
    breaks = [1.0 - 2.0 ** (-k) for k in range(1, 60) if 1.0 - 2.0 ** (-k) < r_max]
    return gauss_panels(0.0, r_max, breaks)


def ball_integrate(mean_at: Callable, t: float):
    """Integral over the geodesic ball of radius t against the invariant
    measure, from the sphere means of the integrand:

        S15 * int_0^tanh(t) mean_at(r) (1-r^2)^{-rho-1} r^15 dr

    where mean_at(r) is the normalized sphere mean <F(r theta)>_theta of
    the integrand F at radius r, called once per node of the radial rule (a
    caller samples the sphere once and reuses the sample at every node).
    mean_at may instead return a sequence of k means, one per integrand;
    all k then share the radial rule, and the result is the list of their k
    integrals, each summed as the one-integrand case sums it.

    The weight (1-r^2)^{-12} is infinite for t beyond ~19, where radial
    nodes round to r = 1, so such t raise NumericsError; eigenfunction
    integrands should be passed to ``poisson.m2_norm`` or
    ``poisson.boundary_recover_gt`` as an ``EigenProfile``, whose route
    integrates the scaled profile in the geodesic radius instead.
    """
    if not (0.0 < t < math.inf):
        raise ValueError(f"t must be finite and positive, got {t}")
    r, w = _radial_rule(t)
    omr2 = 1.0 - r * r
    if not np.all(omr2 > 0.0):
        raise NumericsError(f"radial weight overflow at t = {t}; reduce t")
    weight = omr2 ** (-12.0) * r ** 15
    vals = np.array([mean_at(ri) for ri in r], dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise NumericsError("non-finite integrand sample in ball_integrate")
    if vals.ndim == 1:
        return complex(S15 * np.sum(w * weight * vals))
    return [complex(S15 * np.sum(w * weight * col)) for col in vals.T]
