"""Unit and property tests for the octonion core.

The multiplication table is generated by Cayley-Dickson doubling; the
property suite here (norm multiplicativity, anti-commutation, alternativity,
Moufang, two-generator associativity) is the gate that any admissible table
must pass, so the frozen table is acceptable iff this module is green.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octoplane.octonion import (
    _BLOCK,
    FANO_TRIPLES,
    MUL_INDEX,
    MUL_SIGN,
    STRUCTURE,
    basis,
    oct_conj,
    oct_inv,
    oct_mul,
    oct_norm,
    oct_norm_sq,
)

E = np.eye(8)


def rand(n, seed):
    return np.random.default_rng(seed).standard_normal((n, 8))


def dense_mul(a, b):
    """The dense contraction over the 8x8x8 structure tensor."""
    return np.einsum("...i,...j,ijk->...k", a, b, STRUCTURE)


def assert_bitwise_dense(a, b):
    got, want = oct_mul(a, b), dense_mul(a, b)
    assert got.shape == want.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTableGate:
    def test_identity_element(self):
        assert np.array_equal(oct_mul(E[0], E[5]), E[5])
        for k in range(8):
            assert np.array_equal(oct_mul(E[0], E[k]), E[k])
            assert np.array_equal(oct_mul(E[k], E[0]), E[k])

    def test_imaginary_squares(self):
        for m in range(1, 8):
            assert np.array_equal(oct_mul(E[m], E[m]), -E[0])

    def test_anticommutation_exact(self):
        for i in range(1, 8):
            for j in range(1, 8):
                if i != j:
                    assert np.array_equal(oct_mul(E[i], E[j]), -oct_mul(E[j], E[i]))

    def test_basis_products_unimodular(self):
        # every basis product is +- another basis element
        for i in range(8):
            for j in range(8):
                p = oct_mul(E[i], E[j])
                assert np.count_nonzero(p) == 1
                assert abs(p[MUL_INDEX[i, j]]) == 1.0
                assert p[MUL_INDEX[i, j]] == MUL_SIGN[i, j]

    def test_frozen_fano_orientation(self):
        assert FANO_TRIPLES == (
            (1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6),
            (2, 5, 7), (3, 4, 7), (3, 6, 5),
        )
        assert np.array_equal(oct_mul(E[1], E[2]), E[3])
        assert np.array_equal(oct_mul(E[2], E[1]), -E[3])

    def test_nonassociativity_witness(self):
        lhs = oct_mul(oct_mul(E[1], E[2]), E[4])
        rhs = oct_mul(E[1], oct_mul(E[2], E[4]))
        assert np.max(np.abs(lhs - rhs)) > 1.0  # (e1 e2) e4 = e7, e1 (e2 e4) = -e7


class TestProperties:
    N = 100_000

    def test_norm_multiplicativity(self):
        a, b = rand(self.N, 1), rand(self.N, 2)
        lhs = oct_norm(oct_mul(a, b))
        rhs = oct_norm(a) * oct_norm(b)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-13

    def test_a_times_conj_is_norm_squared(self):
        a = rand(self.N, 3)
        p = oct_mul(a, oct_conj(a))
        target = np.zeros_like(a)
        target[:, 0] = oct_norm_sq(a)
        assert np.max(np.abs(p - target) / oct_norm_sq(a)[:, None]) < 1e-13

    def test_alternativity(self):
        a, b = rand(self.N, 4), rand(self.N, 5)
        scale = np.maximum(oct_norm(a) ** 2 * oct_norm(b), 1e-300)
        d1 = oct_norm(oct_mul(a, oct_mul(a, b)) - oct_mul(oct_mul(a, a), b)) / scale
        d2 = oct_norm(oct_mul(oct_mul(a, b), b) - oct_mul(a, oct_mul(b, b))) / (
            np.maximum(oct_norm(a) * oct_norm(b) ** 2, 1e-300)
        )
        assert max(np.max(d1), np.max(d2)) < 1e-12

    def test_moufang(self):
        a, b, c = rand(20_000, 6), rand(20_000, 7), rand(20_000, 8)
        lhs = oct_mul(oct_mul(a, b), oct_mul(c, a))
        rhs = oct_mul(a, oct_mul(oct_mul(b, c), a))
        scale = np.maximum(oct_norm(a) ** 2 * oct_norm(b) * oct_norm(c), 1e-300)
        assert np.max(oct_norm(lhs - rhs) / scale) < 1e-12

    def test_two_generator_associativity(self):
        a, b = rand(self.N, 9), rand(self.N, 10)
        for c in (oct_mul(a, b), a + b):
            lhs = oct_mul(oct_mul(a, b), c)
            rhs = oct_mul(a, oct_mul(b, c))
            scale = np.maximum(oct_norm(a) * oct_norm(b) * oct_norm(c), 1e-300)
            assert np.max(oct_norm(lhs - rhs) / scale) < 1e-12

    def test_conjugation(self):
        a, b = rand(1000, 11), rand(1000, 12)
        assert np.array_equal(oct_conj(oct_conj(a)), a)
        d = oct_norm(oct_mul(oct_conj(b), oct_conj(a)) - oct_conj(oct_mul(a, b)))
        assert np.max(d / (oct_norm(a) * oct_norm(b))) < 1e-13


def wide_rand(shape, seed):
    """Normal draws scaled by 10^-8..10^8 per coordinate: sums that cancel
    are rounded differently by any other summation order."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


class TestSparseKernel:
    """oct_mul equals the dense einsum bit for bit on finite input; NaN and
    infinity are out of contract (the two spread them differently)."""

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_contiguous(self, n):
        assert_bitwise_dense(wide_rand((n, 8), 1), wide_rand((n, 8), 2))

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_strided_slices(self, n):
        x = wide_rand((n, 16), 3)
        assert_bitwise_dense(x[:, :8], x[:, 8:])
        assert_bitwise_dense(x[:, 8:], x[:, :8])

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_single_against_many(self, n):
        a, b = wide_rand(8, 4), wide_rand((n, 8), 5)
        assert_bitwise_dense(a, b)
        assert_bitwise_dense(b, a)

    def test_broadcast_grid(self):
        assert_bitwise_dense(wide_rand((3, 1, 8), 6), wide_rand((1, 3, 8), 7))
        assert_bitwise_dense(wide_rand((2, 1, 3, 8), 8), wide_rand((1, _BLOCK + 1, 1, 8), 9))
        assert_bitwise_dense(wide_rand(8, 10), wide_rand(8, 11))

    def test_signed_zeros_of_basis_products(self):
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                for i in range(8):
                    for j in range(8):
                        a, b = sa * E[i], sb * E[j]
                        assert np.array_equal(np.signbit(oct_mul(a, b)), np.signbit(dense_mul(a, b)))
        # all 8 terms of output k are -0.0; the dense sum starts from +0.0
        for k in range(8):
            b = np.zeros(8)
            for i in range(8):
                j = int(np.flatnonzero(MUL_INDEX[i] == k)[0])
                b[j] = -0.0 if MUL_SIGN[i, j] > 0 else 0.0
            assert not np.any(np.signbit(dense_mul(np.zeros(8), b)))
            assert not np.any(np.signbit(oct_mul(np.zeros(8), b)))

    def test_no_dense_contraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oct_mul called np.einsum")
        monkeypatch.setattr(np, "einsum", refuse)
        oct_mul(rand(3, 14), rand(3, 15))


def octonion_pairs():
    """Pairs of octonion arrays with mutually broadcastable leading shapes.

    Coordinates are +-0.0 or of magnitude 1e-6..1e6, so no squared norm
    underflows and the relative tolerances below are meaningful."""
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(
        lambda v: math.copysign(0.0, v) if abs(v) < 1e-6 else v)
    shapes = hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4)
    return shapes.flatmap(lambda bs: st.tuples(
        *(hnp.arrays(np.float64, s + (8,), elements=coord) for s in bs.input_shapes)))


class TestHypothesisProperties:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(octonion_pairs())
    def test_equals_dense_contraction(self, ab):
        assert_bitwise_dense(*ab)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(octonion_pairs())
    def test_norm_multiplicative(self, ab):
        a, b = ab
        scale = oct_norm(a) * oct_norm(b)
        assert np.all(np.abs(oct_norm(oct_mul(a, b)) - scale) <= 1e-14 * scale)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(octonion_pairs())
    def test_alternative(self, ab):
        a, b = ab
        scale = oct_norm_sq(a) * oct_norm(b)
        d = oct_norm(oct_mul(a, oct_mul(a, b)) - oct_mul(oct_mul(a, a), b))
        assert np.all(d <= 1e-13 * scale)


class TestScalarOps:
    def test_conj_examples(self):
        assert np.array_equal(oct_conj(E[0]), E[0])
        assert np.array_equal(oct_conj(E[4]), -E[4])
        one_plus_e1 = E[0] + E[1]
        assert np.array_equal(oct_conj(one_plus_e1), E[0] - E[1])

    def test_norm_examples(self):
        assert oct_norm(E[0] + E[1]) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert oct_norm(np.full(8, 1.0) / np.sqrt(8.0)) == pytest.approx(1.0, rel=1e-15)

    def test_inverse_examples(self):
        assert np.allclose(oct_inv(2.0 * E[0]), 0.5 * E[0])
        assert np.allclose(oct_inv(E[1]), -E[1])
        a = rand(100, 13)
        assert np.max(oct_norm(oct_mul(a, oct_inv(a)) - E[0])) < 1e-12
        with pytest.raises(ValueError, match="non-invertible"):
            oct_inv(np.zeros(8))

    def test_basis_range(self):
        with pytest.raises(ValueError):
            basis(8)
