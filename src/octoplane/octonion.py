"""Octonion (Cayley number) arithmetic.

Octonions are represented by their 8 real coordinates in the basis
``e0, e1, ..., e7`` with ``e0`` the unit element, ``e_m^2 = -1`` and
``e_i e_j = -e_j e_i`` for distinct ``i, j >= 1``.  These relations do not
pin down a unique basis-product table; we freeze the standard one obtained
by Cayley-Dickson doubling of the quaternions (``(a,b)(c,d) =
(ac - conj(d) b, da + b conj(c))`` with ``e4`` the doubling unit).  The
resulting oriented Fano triples are

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

meaning ``e1 e2 = e3`` etc., cyclically.  Any admissible table is isomorphic
to this one and every derived quantity in this package (forms, kernels,
metric) is table-independent; the test suite gates the table behind the
norm-multiplicativity / alternativity / Moufang oracles rather than trusting
the construction.

The array functions below are vectorized over leading axes: arguments are
array-likes of shape ``(..., 8)``.  They are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STRUCTURE",
    "MUL_INDEX",
    "MUL_SIGN",
    "FANO_TRIPLES",
    "oct_mul",
    "oct_conj",
    "oct_re",
    "oct_norm",
    "oct_norm_sq",
    "oct_inv",
    "basis",
]


def _quaternion_products() -> dict[tuple[int, int], tuple[int, int]]:
    """Quaternion basis products 1,i,j,k -> (index, sign)."""
    mul = {(0, 0): (0, 1)}
    for a in range(1, 4):
        mul[(0, a)] = (a, 1)
        mul[(a, 0)] = (a, 1)
        mul[(a, a)] = (0, -1)
    for i, j, k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        mul[(i, j)] = (k, 1)
        mul[(j, i)] = (k, -1)
    return mul


def _cayley_dickson_structure() -> np.ndarray:
    """Structure tensor T with (e_i e_j) = sum_k T[i,j,k] e_k."""
    q = _quaternion_products()
    T = np.zeros((8, 8, 8))
    for i in range(8):
        pi, hi = i % 4, i // 4
        for j in range(8):
            pj, hj = j % 4, j // 4
            # conj(q_p) = q_p for p=0, -q_p otherwise
            cj = 1 if pj == 0 else -1
            if hi == 0 and hj == 0:      # (a,0)(c,0) = (ac, 0)
                k, s = q[pi, pj]
                T[i, j, k] += s
            elif hi == 0 and hj == 1:    # (a,0)(0,d) = (0, da)
                k, s = q[pj, pi]
                T[i, j, k + 4] += s
            elif hi == 1 and hj == 0:    # (0,b)(c,0) = (0, b conj(c))
                k, s = q[pi, pj]
                T[i, j, k + 4] += s * cj
            else:                        # (0,b)(0,d) = (-conj(d) b, 0)
                k, s = q[pj, pi]
                T[i, j, k] += -s * cj
    return T


STRUCTURE = _cayley_dickson_structure()
STRUCTURE.setflags(write=False)

# (i,j) -> index of e_i e_j and its sign; convenient for table inspection.
MUL_INDEX = np.argmax(np.abs(STRUCTURE), axis=2)
MUL_SIGN = np.take_along_axis(STRUCTURE, MUL_INDEX[..., None], axis=2)[..., 0].astype(int)
MUL_INDEX.setflags(write=False)
MUL_SIGN.setflags(write=False)

def _oriented_fano_triples() -> tuple[tuple[int, int, int], ...]:
    lines = {frozenset((i, j, int(MUL_INDEX[i, j])))
             for i in range(1, 8) for j in range(1, 8) if i != j}
    triples = []
    for line in lines:
        a = min(line)
        b = next(x for x in sorted(line - {a}) if MUL_SIGN[a, x] > 0)
        triples.append((a, b, int(MUL_INDEX[a, b])))
    return tuple(sorted(triples))


FANO_TRIPLES = _oriented_fano_triples()


def _as_coeffs(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 8:
        raise ValueError(f"octonion coordinate arrays need last axis 8, got shape {a.shape}")
    return a


def oct_mul(a, b) -> np.ndarray:
    """Octonion product, bilinear in both arguments, |ab| = |a||b|."""
    a = _as_coeffs(a)
    b = _as_coeffs(b)
    return np.einsum("...i,...j,ijk->...k", a, b, STRUCTURE)


def oct_conj(a) -> np.ndarray:
    """Standard involution: negate the e1..e7 coordinates."""
    a = _as_coeffs(a)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def oct_re(a) -> np.ndarray:
    """Real part (the e0 coordinate)."""
    return _as_coeffs(a)[..., 0]


def oct_norm_sq(a) -> np.ndarray:
    """|a|^2 = sum of squared coordinates."""
    a = _as_coeffs(a)
    return np.sum(a * a, axis=-1)


def oct_norm(a) -> np.ndarray:
    """Euclidean norm of the coordinate vector."""
    return np.sqrt(oct_norm_sq(a))


def oct_inv(a) -> np.ndarray:
    """Inverse conj(a)/|a|^2.  Raises ValueError on any zero input."""
    a = _as_coeffs(a)
    n2 = oct_norm_sq(a)
    if np.any(n2 == 0.0):
        raise ValueError("non-invertible: zero octonion has no inverse")
    return oct_conj(a) / n2[..., None]


def basis(k: int) -> np.ndarray:
    """Basis element e_k as a coordinate vector."""
    if not 0 <= k <= 7:
        raise ValueError(f"basis index must be in 0..7, got {k}")
    e = np.zeros(8)
    e[k] = 1.0
    return e
