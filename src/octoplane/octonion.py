"""Octonion (Cayley number) arithmetic.

Octonions are represented by their 8 real coordinates in the basis
``e0, e1, ..., e7`` with ``e0`` the unit element, ``e_m^2 = -1`` and
``e_i e_j = -e_j e_i`` for distinct ``i, j >= 1``.  These relations do not
pin down a unique basis-product table; the rest of it is declared by the
seven oriented lines of the Fano plane, ``FANO_TRIPLES``:

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

meaning ``e_a e_b = e_c = -e_b e_a`` along each triple and its cyclic
shifts (``e1 e2 = e3``, ``e2 e3 = e1``, ``e3 e1 = e2`` etc.).  This is the
standard table of Cayley-Dickson doubling of the quaternions e0..e3,
``(a,b)(c,d) = (ac - conj(d) b, da + b conj(c))`` with ``e4`` the doubling
unit; the test suite checks that doubling on the product.  Any admissible
table is isomorphic to this one and every derived quantity in this package
(forms, kernels, metric) is table-independent; the test suite gates the
table behind the norm-multiplicativity / alternativity / Moufang oracles
rather than trusting the declaration.

The array functions below are vectorized over leading axes: arguments are
array-likes of shape ``(..., 8)``.  They are pure and thread-safe.

The product does not contract the dense 8x8x8 tensor, whose 512 entries are
zero but for 64.  Each output coordinate k is the sum of 8 signed terms
``+-a_i b_j`` with ``j = j(i, k)``, tabulated once at import.  The kernel
``_mul_cols`` multiplies coordinate-major (8, m) blocks, so every term is
one vectorized multiply-add.  Each output is accumulated from +0.0 over i
in ascending order, the order in which
``np.einsum("...i,...j,ijk->...k", a, b, STRUCTURE)`` sums, so on finite
input the two agree bit for bit (down to the sign of zero).  ``oct_mul``
transposes blocks of ``_BLOCK`` rows into and out of it, so the scratch
memory is bounded by the block, not by the input; ``geometry.bracket`` and
``geometry._forms`` call it on blocks they have transposed once, together
with ``_norm_sq_cols``, which sums |a|^2 in the order of ``oct_norm_sq``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "STRUCTURE",
    "MUL_INDEX",
    "MUL_SIGN",
    "FANO_TRIPLES",
    "oct_mul",
    "oct_conj",
    "oct_norm",
    "oct_norm_sq",
    "oct_inv",
    "basis",
]


# The seven oriented Fano triples: the whole multiplication table.
FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _basis_products() -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with e_i e_j = sign[i, j] e_index[i, j]."""
    index = np.zeros((8, 8), dtype=np.intp)
    sign = np.ones((8, 8), dtype=int)
    index[0] = index[:, 0] = np.arange(8)     # e0 is the unit
    sign[range(1, 8), range(1, 8)] = -1       # e_m^2 = -1 (index 0)
    for a, b, c in FANO_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            index[x, y] = index[y, x] = z     # e_x e_y = e_z = -e_y e_x
            sign[y, x] = -1
    return index, sign


# (i,j) -> index of e_i e_j and its sign; convenient for table inspection.
MUL_INDEX, MUL_SIGN = _basis_products()

# Structure tensor T with (e_i e_j) = sum_k T[i,j,k] e_k.
STRUCTURE = np.zeros((8, 8, 8))
STRUCTURE[(*np.indices((8, 8)), MUL_INDEX)] = MUL_SIGN
MUL_INDEX.setflags(write=False)
MUL_SIGN.setflags(write=False)
STRUCTURE.setflags(write=False)


def _term_rows() -> np.ndarray:
    """R with term i of output k equal to a_i times row R[i, k] of the
    stacked (b, -b): MUL_SIGN[i, j] * b_j for the j with MUL_INDEX[i, j] = k."""
    rows = np.empty((8, 8), dtype=np.intp)
    i, j = np.indices((8, 8))
    rows[i, MUL_INDEX] = j + 8 * (MUL_SIGN < 0)
    return rows


_TERM_ROWS = _term_rows()
_TERM_ROWS.setflags(write=False)

# Rows per block of oct_mul, _row_dot, geometry.bracket and geometry._forms; oct_mul's
# scratch is 88 * _BLOCK doubles (0.7 MB).
_BLOCK = 1024


def _as_coeffs(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 8:
        raise ValueError(f"octonion coordinate arrays need last axis 8, got shape {a.shape}")
    return a


def _row_blocks(x: np.ndarray, shape: tuple[int, ...]):
    """Consecutive blocks of at most _BLOCK rows of x broadcast to
    ``shape + x.shape[-1:]``, each of shape (rows, x.shape[-1]).  A broadcast
    operand is gathered one block at a time, never expanded to full size; a
    single row is repeated by a read-only view."""
    n, w = math.prod(shape), x.shape[-1]
    if x.shape[:-1] == shape:
        rows = x.reshape(n, w)
        for r0 in range(0, n, _BLOCK):
            yield rows[r0:r0 + _BLOCK]
    elif x.size == w:
        row = x.reshape(1, w)
        for r0 in range(0, n, _BLOCK):
            yield np.broadcast_to(row, (min(_BLOCK, n - r0), w))
    else:
        xb = np.broadcast_to(x, shape + (w,))
        for r0 in range(0, n, _BLOCK):
            yield xb[np.unravel_index(np.arange(r0, min(r0 + _BLOCK, n)), shape)]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum(a * b, axis=-1) over the broadcast leading axes of a and b,
    bit for bit (a numpy scalar for single rows), with the product formed
    one block of rows at a time."""
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.empty(shape)
    flat = out.reshape(-1)
    r0 = 0
    for a_blk, b_blk in zip(_row_blocks(a, shape), _row_blocks(b, shape)):
        r1 = r0 + len(a_blk)
        flat[r0:r1] = np.sum(a_blk * b_blk, axis=-1)
        r0 = r1
    return out if out.ndim else out[()]


def _mul_cols(a_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Product of coordinate-major (8, m) blocks: column c of the result is
    the octonion product of columns c of a_t and b_t."""
    b_pm = np.empty((16, b_t.shape[1]))
    b_pm[:8] = b_t
    np.negative(b_pm[:8], out=b_pm[8:])
    terms = b_pm[_TERM_ROWS]                  # terms[i, k] = +-b_j, shape (8, 8, m)
    terms *= a_t[:, None, :]
    acc = terms[0]
    acc += 0.0                                # +0.0 first: a sum of -0.0 terms is +0.0
    for i in range(1, 8):
        acc += terms[i]
    return acc


def _norm_sq_cols(a_t: np.ndarray) -> np.ndarray:
    """|a|^2 of each column of an (8, m) block, summed by the tree
    ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)): the order np.sum takes over a
    contiguous last axis of 8, so it equals oct_norm_sq of the row-major
    rows bit for bit."""
    s = a_t * a_t
    s[0::2] += s[1::2]
    s[0::4] += s[2::4]
    s[0] += s[4]
    return s[0]


def oct_mul(a, b) -> np.ndarray:
    """Octonion product, bilinear in both arguments, |ab| = |a||b|."""
    a = _as_coeffs(a)
    b = _as_coeffs(b)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.empty(shape + (8,))
    rows = out.reshape(-1, 8)
    r0 = 0
    for a_blk, b_blk in zip(_row_blocks(a, shape), _row_blocks(b, shape)):
        m = len(a_blk)
        rows[r0:r0 + m] = _mul_cols(np.ascontiguousarray(a_blk.T), b_blk.T).T
        r0 += m
    return out


def oct_conj(a) -> np.ndarray:
    """Standard involution: negate the e1..e7 coordinates."""
    a = _as_coeffs(a)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def oct_norm_sq(a) -> np.ndarray:
    """|a|^2 = sum of squared coordinates."""
    a = _as_coeffs(a)
    return _row_dot(a, a)


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
