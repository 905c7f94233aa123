"""Geometry of the unit ball of O^2 and its 15-sphere boundary.

Points of O^2 are stored as flat 16-vectors: coordinates 0..7 are the first
octonion slot, 8..15 the second.  The module implements

* the fundamental form ``Phi(x,y)`` and its product expression,
* the bracket ``[x,y]`` (the octonionic analogue of ``sum a_j conj(b_j)``),
* ``Psi(x,y) = 1 - 2<x,y> + Phi(x,y) = |1 - [x,y]|^2``,
* the non-isotropic metric ``d(a,b) = |1 - [a,b]|^{1/2}`` on the closed
  ball, whose boundary balls have measure growing like ``delta^22``,
* the embedding of ball and boundary into the exceptional Jordan algebra
  of Hermitian 3x3 matrices with octonion entries (certain entries carry
  a commuting imaginary unit, tracked as a separate component),
* Monte Carlo and quadrature probes of the metric ball volume.

All form/metric functions are vectorized over leading axes.  Phi, Psi and
the metric are evaluated in one place, from per-point invariants of
coordinate-major blocks (one point per column, as in ``octonion``):
``_forms(x)`` holds a (16, m) block x with |x1|^2, |x2|^2 and the slot
product x1 x2 (8, m), and ``_phi``, ``_psi``, ``_dist`` (column by column,
a one-column block broadcasting) and ``_phi_gram`` (all pairs of two
blocks) read them; ``_bracket_cols`` is the bracket of two blocks.  The
streamed passes (the geometry suite's form checks, ``ball_volume_est``
and the cz suite) draw each sample set row by row, transpose it once and
normalize its columns, so every later form reads the block as drawn.

The public functions take row-major ``(..., 16)`` points and go through
the same cores, driven by ``octonion._rowwise``: one pass over blocks of
``octonion._PASS_ROWS`` (2,048) rows, each transposed once, so their
scratch memory is bounded by the block, not by the input, and a single
point stays one broadcast column.  Their values equal those of
whole-array ``oct_norm_sq``/``oct_mul`` calls on the row-major points bit
for bit.  ``poisson.szego_matrix`` calls ``_phi_gram`` on one block of
rows at a time, so its temporaries are bounded by the block.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .octonion import (_PASS_ROWS, _dot_cols, _mul_cols, _rowwise, basis, oct_conj, oct_mul,
                       oct_norm, oct_norm_sq)
from .quadrature import C_ZONAL, _sphere_cols, gauss_panels

__all__ = [
    "pair",
    "E1",
    "phi_form",
    "bracket",
    "psi_form",
    "ni_dist",
    "dist_to_e1",
    "unit_rotation",
    "JordanMatrix",
    "jordan_product",
    "jordan_embed",
    "boundary_embed",
    "VolumeEstimate",
    "ball_volume_est",
    "ball_volume_quadrature",
]


def pair(x1, x2) -> np.ndarray:
    """Assemble a point of O^2 from two octonion slots."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return np.concatenate([x1, x2], axis=-1)


E1 = pair(basis(0), np.zeros(8))   # (1, 0)

# conj as a column factor on coordinate-major (8, m) blocks
_CONJ = np.array([1.0] + [-1.0] * 7)[:, None]


class _Forms(NamedTuple):
    """A (16, m) block of points x with the per-point invariants Phi reads:
    |x1|^2 and |x2|^2, shape (m,), and the slot product x1 x2, (8, m)."""

    x: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    prod: np.ndarray

    def take(self, idx) -> "_Forms":
        """The invariants of the points x[:, idx]."""
        return _Forms(*(a[..., idx] for a in self))


def _as_points(*points) -> list[np.ndarray]:
    out = [np.asarray(x, dtype=float) for x in points]
    for x in out:
        if x.shape[-1:] != (16,):
            raise ValueError(f"points of O^2 need last axis 16, got shape {x.shape}")
    return out


def _forms(x: np.ndarray) -> _Forms:
    """The invariants of the points of a (16, m) block."""
    if len(x) != 16:
        raise ValueError(f"points of O^2 need 16 coordinates per column, got a block "
                         f"of shape {x.shape}")
    x1, x2 = x[:8], x[8:]
    return _Forms(x, _dot_cols(x1, x1), _dot_cols(x2, x2), _mul_cols(x1, x2))


def _phi(fx: _Forms, fy: _Forms) -> np.ndarray:
    """Phi from formed invariants, column by column."""
    return fx.n1 * fy.n1 + fx.n2 * fy.n2 + 2.0 * _dot_cols(fx.prod, fy.prod)


def _phi_gram(fx: _Forms, fy: _Forms) -> np.ndarray:
    """Phi(x_i, y_j) for every pair of the n and m points of two blocks,
    shape (n, m): outer products of the norms and one Gram product.  The
    product takes the slot products row-major, (n, 8) times the transpose
    of (m, 8), the layout for which BLAS gives a block of rows the bits of
    the same rows of the whole product (see poisson._SZEGO_ROWS)."""
    gram = np.ascontiguousarray(fx.prod.T) @ np.ascontiguousarray(fy.prod.T).T
    return np.outer(fx.n1, fy.n1) + np.outer(fx.n2, fy.n2) + 2.0 * gram


def _psi_r(r, dot, phi):
    """Psi(r theta, omega) = 1 - 2 r <theta, omega> + r^2 Phi(theta, omega),
    from the r-independent dot product and Phi; r = 1 gives Psi(theta, omega)."""
    return 1.0 - 2.0 * r * dot + (r * r) * phi


def _psi(fx: _Forms, fy: _Forms) -> np.ndarray:
    """Psi(x, y) from formed invariants."""
    return _psi_r(1.0, _dot_cols(fx.x, fy.x), _phi(fx, fy))


def _dist(fx: _Forms, fy: _Forms, psi=None) -> np.ndarray:
    """d(x, y) = Psi(x, y)^{1/4} from formed invariants, or from the Psi(x, y)
    already formed (see ni_dist)."""
    d = np.maximum(_psi(fx, fy) if psi is None else psi, 0.0) ** 0.25
    return np.where(np.all(fx.x == fy.x, axis=0), 0.0, d)


def _bracket_cols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The brackets [x, y] of the columns of two (16, m) blocks (see
    bracket), an (8, m) block; a one-column block broadcasts."""
    x, y = np.broadcast_arrays(x, y)
    x1c, y2c = _CONJ * x[:8], _CONJ * y[8:]
    n2 = _dot_cols(y[8:], y[8:])
    degenerate = n2 == 0.0
    y2inv = y2c / np.where(degenerate, 1.0, n2)
    b = _mul_cols(_mul_cols(x1c, y[8:]), _mul_cols(y2inv, y[:8]))
    b += _mul_cols(x[8:], y2c)
    if np.any(degenerate):
        b[:, degenerate] = _mul_cols(x1c[:, degenerate], y[:8, degenerate])
    return b


def _abs_one_minus_sq(b: np.ndarray) -> np.ndarray:
    """|1 - b|^2 for the columns of an (8, m) block of octonions, e.g.
    brackets already formed."""
    one_minus = -b
    one_minus[0] += 1.0
    return _dot_cols(one_minus, one_minus)


def _dist_to_e1_cols(theta: np.ndarray) -> np.ndarray:
    """d(theta, (1, 0)) for the columns of a (16, m) block (see dist_to_e1);
    |Im theta_1|^2 is summed in ascending order, as np.sum does over seven."""
    v2 = theta[1] * theta[1]
    for k in range(2, 8):
        v2 += theta[k] * theta[k]
    return ((1.0 - theta[0]) ** 2 + v2) ** 0.25


def _rotate_cols(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(u x1, x2 u) for the columns of a (16, m) block x and an (8, 1) column u."""
    return np.concatenate([_mul_cols(u, x[:8]), _mul_cols(x[8:], u)])


def phi_form(x, y) -> np.ndarray:
    """Phi(x,y) = sum_j |x_j|^2 |y_j|^2 + 2 Re((x1 x2) conj(y1 y2)).

    Re(a conj(b)) is the Euclidean inner product of a and b, so the cross
    term is a dot product of the slot products (exactly symmetric in x, y).
    Callers that pair one point set with several others form its invariants
    once with ``_forms`` and call ``_phi``.
    """
    return _rowwise(lambda xt, yt: _phi(_forms(xt), _forms(yt)), (), *_as_points(x, y))


def bracket(x, y) -> np.ndarray:
    """The bracket [x,y], an octonion:

        (conj(x1) y2)(y2^{-1} y1) + x2 conj(y2)   if y2 != 0
        conj(x1) y1                               if y2 == 0

    Linear in x for fixed y; |[x,y]| <= |x||y|.  Evaluated in one pass over
    blocks of rows (``_bracket_cols``), so the scratch memory is bounded by
    the block, not the input.
    """
    return _rowwise(_bracket_cols, (8,), *_as_points(x, y))


def _zonal_psi(r, u, v):
    """Psi(r e1, omega) = |1 - r omega_1|^2 for omega_1 = u + v i, i.e.
    (u, v) = (Re omega_1, |Im omega_1|) as in the zonal rule."""
    return (1.0 - r * u) ** 2 + (r * v) ** 2


def psi_form(x, y) -> np.ndarray:
    """Psi(x,y) = 1 - 2<x,y>_R + Phi(x,y); strictly positive when one
    argument is in the open ball and the other in the closed ball."""
    return _rowwise(lambda xt, yt: _psi(_forms(xt), _forms(yt)), (), *_as_points(x, y))


def ni_dist(a, b) -> np.ndarray:
    """Non-isotropic metric d(a,b) = |1 - [a,b]|^{1/2} = Psi(a,b)^{1/4}.

    Defined on the closed ball; a metric when restricted to the sphere,
    and the triangle inequality holds on the closed ball.  Computed
    through Psi from the invariants of ``_forms`` (``_dist``), which is
    exactly symmetric.  Psi suffers full cancellation at coincident sphere
    arguments (eps^{1/4} is 1e-4), so identical inputs short-circuit to
    exact zero and the result is clipped at zero against sub-ulp negatives.
    """
    return _rowwise(lambda at, bt: _dist(_forms(at), _forms(bt)), (), *_as_points(a, b))


def dist_to_e1(theta) -> np.ndarray:
    """d(theta, (1,0)) = |1 - conj(theta_1)|^{1/2}, cheap special case."""
    return _rowwise(_dist_to_e1_cols, (), *_as_points(theta))


def unit_rotation(u) -> Callable[[np.ndarray], np.ndarray]:
    """The map (x1, x2) -> (u x1, x2 u) for a unit octonion u.

    Preserves Phi, Psi and the metric: |u x1| = |x1|, |x2 u| = |x2|, and
    the middle Moufang identity gives (u x1)(x2 u) = u((x1 x2) u), whose
    inner product with (u y1)(y2 u) equals <x1 x2, y1 y2>.
    """
    u = np.asarray(u, dtype=float)
    n = oct_norm(u)
    if not abs(n - 1.0) <= 1e-12:
        raise ValueError("rotation parameter must be a unit octonion")
    u = u.reshape(8, 1)

    def act(x: np.ndarray) -> np.ndarray:
        return _rowwise(lambda xt: _rotate_cols(u, xt), (16,), *_as_points(x))

    return act


# --------------------------------------------------------------------------
# Exceptional Jordan algebra fragment
# --------------------------------------------------------------------------

class JordanMatrix:
    """Hermitian 3x3 matrix with entries p + i q, p and q octonions and i a
    commuting square root of -1.

    The two components are stored as (3,3,8) arrays ``plain`` (p) and
    ``imag`` (q); the ball embedding puts its imaginary factors in the
    (0,1),(1,0),(0,2),(2,0) slots and the boundary embedding uses none.
    Hermitian means entry (c,r) is the octonion conjugate of entry (r,c)
    with the imaginary flag kept.
    """

    __slots__ = ("plain", "imag")

    def __init__(self, plain, imag=None):
        plain = np.asarray(plain, dtype=float)
        if plain.shape != (3, 3, 8):
            raise ValueError(f"expected (3,3,8) entries, got {plain.shape}")
        if imag is None:
            imag = np.zeros((3, 3, 8))
        imag = np.asarray(imag, dtype=float)
        if imag.shape != (3, 3, 8):
            raise ValueError(f"expected (3,3,8) entries, got {imag.shape}")
        self.plain = plain
        self.imag = imag

    @classmethod
    def corner_unit(cls) -> "JordanMatrix":
        """The rank-two corner matrix with ones at (0,2) and (2,0)."""
        p = np.zeros((3, 3, 8))
        p[0, 2, 0] = 1.0
        p[2, 0, 0] = 1.0
        return cls(p)

    def mat_mul(self, other: "JordanMatrix") -> "JordanMatrix":
        """Associative 3x3 matrix product with (p + iq)(p' + iq') entries."""
        return _mat_muls([(self, other)])[0]

    def trace(self) -> float:
        return float(self.plain[0, 0, 0] + self.plain[1, 1, 0] + self.plain[2, 2, 0])

    def hermitian_defect(self) -> float:
        """Max deviation of entry (c,r) from oct-conj of entry (r,c)."""
        return self.max_abs_diff(JordanMatrix(oct_conj(self.plain).swapaxes(0, 1),
                                              oct_conj(self.imag).swapaxes(0, 1)))

    def max_abs_diff(self, other: "JordanMatrix") -> float:
        # np.maximum keeps a NaN of either part, where Python's max drops a later one
        return float(np.maximum(np.max(np.abs(self.plain - other.plain)),
                                np.max(np.abs(self.imag - other.imag))))


def _mat_muls(pairs) -> list[JordanMatrix]:
    """The matrix products A B of the pairs (A, B).  The entry products of
    all of them, p p', q q', p q' and q p' for (p + iq)(p' + iq'), are one
    broadcast oct_mul, indexed [pair, part, r, k, c]; the sum over k runs
    0, 1, 2 from +0.0."""
    left = np.array([(a.plain, a.imag, a.plain, a.imag) for a, _ in pairs])
    right = np.array([(b.plain, b.imag, b.imag, b.plain) for _, b in pairs])
    t = oct_mul(left[:, :, :, :, None], right[:, :, None])
    terms = np.stack([t[:, 0] - t[:, 1], t[:, 2] + t[:, 3]], axis=1)
    sums = np.zeros(terms.shape[:3] + (3, 8))
    for k in range(3):
        sums += terms[:, :, :, k]
    return [JordanMatrix(p, q) for p, q in sums]


def jordan_product(a: JordanMatrix, b: JordanMatrix) -> JordanMatrix:
    """A o B = (AB + BA)/2; commutative, E1 o E1 = E1.  AB and BA come from
    one oct_mul (_mat_muls)."""
    ab, ba = _mat_muls([(a, b), (b, a)])
    return JordanMatrix(0.5 * (ab.plain + ba.plain), 0.5 * (ab.imag + ba.imag))


def jordan_embed(x) -> JordanMatrix:
    """Idempotent trace-one image of an interior point x = (x1, x2):

        1/(1-|x|^2) * [[1,          conj(x2) i, conj(x1) i],
                       [x2 i,       -|x2|^2,    -x2 conj(x1)],
                       [x1 i,       -x1 conj(x2), -|x1|^2]]

    Satisfies X o X = X, tr X = 1 and tr(X o E1) = 1/(1-|x|^2) >= 1.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (16,):
        raise ValueError(f"expected one point of O^2, got shape {x.shape}")
    n2 = float(np.sum(x * x))
    if not n2 < 1.0:
        raise ValueError(f"interior point required: |x|^2 = {n2!r} >= 1")
    x1, x2 = x[:8], x[8:]
    s = 1.0 / (1.0 - n2)
    p = np.zeros((3, 3, 8))
    q = np.zeros((3, 3, 8))
    p[0, 0, 0] = 1.0
    p[1, 1, 0] = -float(oct_norm_sq(x2))
    p[2, 2, 0] = -float(oct_norm_sq(x1))
    p[1, 2] = -oct_mul(x2, oct_conj(x1))
    p[2, 1] = -oct_mul(x1, oct_conj(x2))
    q[0, 1] = oct_conj(x2)
    q[1, 0] = x2
    q[0, 2] = oct_conj(x1)
    q[2, 0] = x1
    return JordanMatrix(s * p, s * q)


def boundary_embed(u, v) -> JordanMatrix:
    """Trace-zero boundary matrix [[0, v, conj(u)], [conj(v), 0, 0], [u, 0, 0]]
    for |u|^2 + |v|^2 = 1.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (8,) or v.shape != (8,):
        raise ValueError("u and v must be single octonions")
    n = float(oct_norm_sq(u) + oct_norm_sq(v))
    if not abs(n - 1.0) <= 1e-12:
        raise ValueError(f"|u|^2 + |v|^2 = {n!r}, expected 1")
    p = np.zeros((3, 3, 8))
    p[0, 1] = v
    p[1, 0] = oct_conj(v)
    p[0, 2] = oct_conj(u)
    p[2, 0] = u
    return JordanMatrix(p)


# --------------------------------------------------------------------------
# Metric ball volume
# --------------------------------------------------------------------------

class VolumeEstimate(NamedTuple):
    value: float
    stderr: float
    n_samples: int
    hits: int


def ball_volume_est(deltas: Sequence[float], n_samples: int, seed: int) -> list[VolumeEstimate]:
    """Plain rejection Monte Carlo estimates of the normalized boundary
    measure of {theta : d(theta, (1,0)) < delta}, one per delta of the grid.

    Uniform sphere points come from normalized 16-dim Gaussians, drawn in
    one pass over blocks of _PASS_ROWS rows from one generator and
    transposed to coordinate-major blocks (quadrature._sphere_cols); hits are
    integer counts per point, so the estimates do not depend on the block
    size.  Every delta counts its hits on the same points, so each
    estimate equals that of a one-delta grid with the same seed.
    Deterministic for fixed seed.  The measure saturates at 1 for
    delta >= sqrt(2) (the diameter) and decays like delta^22 as
    delta -> 0, which puts small radii far below Monte Carlo reach.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("empty delta grid")
    if not all(d > 0 for d in deltas):
        raise ValueError("delta must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    hits = [0] * len(deltas)
    for lo in range(0, n_samples, _PASS_ROWS):
        d = _dist_to_e1_cols(_sphere_cols(rng, min(_PASS_ROWS, n_samples - lo)))
        hits = [h + int(np.count_nonzero(d < delta)) for h, delta in zip(hits, deltas)]
    out = []
    for h in hits:
        p = h / n_samples
        se = float(np.sqrt(max(p * (1.0 - p), 0.0) / n_samples))
        out.append(VolumeEstimate(p, se, n_samples, h))
    return out


def ball_volume_quadrature(delta: float, n_gauss: int = 200) -> float:
    """Deterministic reference value of the same measure (no Monte Carlo
    error; resolves radii far below sampling reach).

    Uses polar coordinates around the pole 1 - x = t e^{i alpha}: the ball
    {|1 - x| < delta^2} maps to t < min(delta^2, 2 cos(alpha)) exactly, so
    unlike an indicator under the generic zonal rule the integrand is
    smooth on every panel,

        V = C_ZONAL int t^10 (2 cos a - t)^3 sin^6(a) dt da.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    d2 = min(delta * delta, 2.0)
    alpha_star = math.acos(d2 / 2.0)
    order = max(8, n_gauss // 12)
    alphas, wa = gauss_panels(0.0, math.pi / 2.0, [alpha_star], order)
    total = 0.0
    for al, w in zip(alphas, wa):
        tmax = min(d2, 2.0 * math.cos(al))
        if tmax <= 0.0:
            continue
        breaks = [tmax * 2.0 ** (-k) for k in range(1, 30)]
        t, wt = gauss_panels(0.0, tmax, breaks, order)
        f = t ** 10 * (2.0 * math.cos(al) - t) ** 3 * math.sin(al) ** 6
        total += w * float(np.sum(wt * f))
    return C_ZONAL * total
