"""Unit and property tests for the octonion core.

The multiplication table is declared by its seven oriented Fano triples;
TestTableGate checks that it is the Cayley-Dickson doubling of the
quaternions and that its tables are read-only.  The property suite here
(norm multiplicativity, anti-commutation, alternativity, Moufang,
two-generator associativity) is the gate that any admissible table must
pass, so the frozen table is acceptable iff this module is green.
TestAlgebraSuite pins the algebra suite's records bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octoplane import suites
from octoplane.octonion import (
    _PASS_ROWS,
    _TERM_ROWS,
    _dot_cols,
    _mul_cols,
    _row_dot,
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

    def test_cayley_dickson_doubling(self):
        # (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)) on quaternion pairs,
        # with e4 the doubling unit; integer coordinates make every product exact
        a, b, c, d = np.random.default_rng(0).integers(-3, 4, size=(4, 1000, 4)).astype(float)
        q_conj = np.array([1.0, -1.0, -1.0, -1.0])

        def q_mul(p, q):
            zero = np.zeros_like(p)
            out = oct_mul(np.concatenate([p, zero], axis=-1), np.concatenate([q, zero], axis=-1))
            assert not np.any(out[:, 4:])
            return out[:, :4]

        want = np.concatenate([q_mul(a, c) - q_mul(d * q_conj, b),
                               q_mul(d, a) + q_mul(b, c * q_conj)], axis=-1)
        got = oct_mul(np.concatenate([a, b], axis=-1), np.concatenate([c, d], axis=-1))
        assert np.array_equal(got, want)

    def test_tables_are_read_only(self):
        for table in (STRUCTURE, MUL_INDEX, MUL_SIGN, _TERM_ROWS):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0

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


# Row counts at the edges of the row blocks: those of _PASS_ROWS, and those of
# the 1,024-row block the octonion kernels took before they shared it.
EDGES = sorted({0, 1, 1_023, 1_024, 1_025, _PASS_ROWS - 1, _PASS_ROWS, _PASS_ROWS + 1})
SPANS = sorted({0, 1, 1_023, 1_024, 2_053, _PASS_ROWS - 1, _PASS_ROWS, 2 * _PASS_ROWS + 5})


def wide_rand(shape, seed):
    """Normal draws scaled by 10^-8..10^8 per coordinate: sums that cancel
    are rounded differently by any other summation order."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


class TestSparseKernel:
    """oct_mul equals the dense einsum bit for bit on finite input; NaN and
    infinity are out of contract (the two spread them differently)."""

    @pytest.mark.parametrize("n", EDGES)
    def test_contiguous(self, n):
        assert_bitwise_dense(wide_rand((n, 8), 1), wide_rand((n, 8), 2))

    @pytest.mark.parametrize("n", EDGES)
    def test_strided_slices(self, n):
        x = wide_rand((n, 16), 3)
        assert_bitwise_dense(x[:, :8], x[:, 8:])
        assert_bitwise_dense(x[:, 8:], x[:, :8])

    @pytest.mark.parametrize("n", EDGES)
    def test_single_against_many(self, n):
        a, b = wide_rand(8, 4), wide_rand((n, 8), 5)
        assert_bitwise_dense(a, b)
        assert_bitwise_dense(b, a)

    def test_broadcast_grid(self):
        assert_bitwise_dense(wide_rand((3, 1, 8), 6), wide_rand((1, 3, 8), 7))
        for n in (1_025, _PASS_ROWS + 1):
            assert_bitwise_dense(wide_rand((2, 1, 3, 8), 8), wide_rand((1, n, 1, 8), 9))
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

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 1024])
    def test_column_norm_tree_is_np_sum_order(self, m):
        """_dot_cols(a, a) sums by the pairwise tree that np.sum takes over a
        contiguous last axis of 8; a numpy that changes that order fails here."""
        rng = np.random.default_rng(m)
        a_t = rng.standard_normal((8, m)) * 10.0 ** rng.uniform(-30, 30, (8, m))
        want = oct_norm_sq(np.ascontiguousarray(a_t.T))
        assert np.array_equal(_dot_cols(a_t, a_t).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("m", [1, 1_024, _PASS_ROWS])
    def test_column_product_owns_its_memory(self, m):
        """_mul_cols returns a fresh (8, m) array, not a view that keeps a
        larger scratch buffer alive in the caller."""
        a, b = wide_rand((m, 8), 17), wide_rand((m, 8), 18)
        got = _mul_cols(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
        assert got.base is None and got.shape == (8, m)
        assert np.array_equal(got.T.view(np.uint64), dense_mul(a, b).view(np.uint64))

    @pytest.mark.parametrize("m", [1, 7, 1_024])
    def test_column_product_broadcasts_one_column(self, m):
        """An (8, 1) operand on either side equals its m-fold copy."""
        a, u = wide_rand((8, m), 19), wide_rand((8, 1), 20)
        for got, want in ((_mul_cols(u, a), _mul_cols(np.repeat(u, m, axis=1), a)),
                          (_mul_cols(a, u), _mul_cols(a, np.repeat(u, m, axis=1)))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_no_dense_contraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oct_mul called np.einsum")
        monkeypatch.setattr(np, "einsum", refuse)
        oct_mul(rand(3, 14), rand(3, 15))



class TestRowDot:
    """_row_dot equals np.sum(a * b, axis=-1) bit for bit, on row blocks."""

    @staticmethod
    def assert_bitwise_sum(a, b):
        got, want = _row_dot(a, b), np.sum(a * b, axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", SPANS)
    def test_contiguous(self, n):
        self.assert_bitwise_sum(wide_rand((n, 16), 21), wide_rand((n, 16), 22))

    @pytest.mark.parametrize("n", SPANS)
    def test_single_row_against_many(self, n):
        a, b = wide_rand(16, 23), wide_rand((n, 16), 24)
        self.assert_bitwise_sum(a, b)
        self.assert_bitwise_sum(b, a)
        self.assert_bitwise_sum(a[None, :], b)

    @pytest.mark.parametrize("n", SPANS)
    def test_broadcast_grid(self, n):
        a, b = wide_rand((3, 1, 16), 25), wide_rand((1, n, 16), 26)
        self.assert_bitwise_sum(a, b)
        self.assert_bitwise_sum(b, a)

    def test_strided_and_other_widths(self):
        for n in (1_028, _PASS_ROWS + 4):
            x = wide_rand((n, 32), 27)
            self.assert_bitwise_sum(x[:, :16], x[:, 16:])
            self.assert_bitwise_sum(x[::2, :8], x[1::2, 8:16])


# coordinates whose products include +-0.0, +-inf, NaN, overflow and underflow
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 3.5, -2.25, np.inf, -np.inf, np.nan,
                    1e300, -1e300, 1e-300, -1e-200])


def special_rows(shape, seed):
    """Rows drawn from SPECIAL; every third row is wide and finite, and of
    the others one in two has no infinity or NaN and one in four is +-0.0."""
    rng = np.random.default_rng(seed)
    rows = SPECIAL[rng.integers(0, len(SPECIAL), shape)]
    rows[1::3] = SPECIAL[rng.integers(0, 6, rows[1::3].shape)]
    rows[1::6] = SPECIAL[rng.integers(0, 2, rows[1::6].shape)]
    rows[::3] = wide_rand(rows[::3].shape, seed + 1)
    return rows


def same_bits_or_both_nan(got, want):
    """Equal bits, but any NaN only against a NaN: numpy does not fix which
    of two NaN operands' sign and payload an addition passes on (one np.add
    over two NaN arrays passes on either, depending on the position)."""
    both_nan = np.isnan(got) & np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want))
            and np.array_equal(got[~both_nan].view(np.uint64), want[~both_nan].view(np.uint64)))


class TestDotCols:
    """_dot_cols on (8, m) and (16, m) blocks equals np.sum(a * b, axis=-1) on
    the row-major points bit for bit."""

    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("m", [1, 7, 8, 1_024, _PASS_ROWS + 3])
    def test_special_values(self, width, m):
        a, b = special_rows((m, width), 31), special_rows((m, width), 33)
        with np.errstate(all="ignore"):
            want = np.sum(a * b, axis=-1)
            got = _dot_cols(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
        assert same_bits_or_both_nan(got, want)
        if m >= 1_024:
            assert np.isnan(want).any() and np.isinf(want).any() and (want == 0.0).any()

    @pytest.mark.parametrize("width", [8, 16])
    def test_negative_zero_terms_sum_to_positive_zero(self, width):
        # without the final += 0.0 a row of -0.0 products would keep its sign
        a = np.where(np.arange(width) % 2 == 0, -0.0, 0.0)[:, None] * np.ones((1, 5))
        b = np.where(np.arange(width) % 2 == 0, 1.0, -1.0)[:, None] * np.ones((1, 5))
        got = _dot_cols(a, b)
        assert np.array_equal(got.view(np.uint64), np.sum(a.T * b.T, axis=-1).view(np.uint64))
        assert not np.any(np.signbit(got))

    @pytest.mark.parametrize("width", [8, 16])
    def test_wide_values_and_one_broadcast_column(self, width):
        a, u = wide_rand((2_053, width), 35), wide_rand((1, width), 36)
        want = np.sum(a * u, axis=-1)
        for got in (_dot_cols(np.ascontiguousarray(a.T), u.T), _dot_cols(u.T, a.T.copy())):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


# float.hex of every measured value of SuiteConfig(suite="algebra", seed=0),
# re-pinned when a, b and c got generators of their own
_ALGEBRA_GOLDEN = {
    "alg-identity": ("pass", {"violations": "0x0.0p+0"}),
    "alg-squares": ("pass", {"violations": "0x0.0p+0"}),
    "alg-anticommute": ("pass", {"violations": "0x0.0p+0"}),
    "alg-norm-mult": ("pass", {"defect": "0x1.49d2fe357fb0cp-51"}),
    "alg-conj-antihom": ("pass", {"defect": "0x1.e325d9ea4e6eap-53"}),
    "alg-alternative": ("pass", {"defect": "0x1.a0bd48be1dcd5p-51"}),
    "alg-moufang": ("pass", {"defect": "0x1.8a13936287856p-51"}),
    "alg-artin": ("pass", {"defect": "0x1.acd7d43b82ebfp-51"}),
    "alg-inverse": ("pass", {"defect": "0x1.45a96f02759bdp-51"}),
    "alg-nonassoc-witness": ("pass", {"violations": "0x0.0p+0",
                                      "witnesses": "0x1.8000000000000p+1"}),
}


def algebra_records(n_mc=200_000, seed=0):
    config = suites.SuiteConfig(suite="algebra", n_mc=n_mc, seed=seed)
    rec = suites._Recorder(config, "algebra")
    suites._suite_algebra(config, rec)
    return rec.checks


def record_bits(checks):
    """Every field of the check records but the wall time, floats as hex."""
    return [(c.check_id, c.anchor, c.status, c.tolerance, c.n_samples, c.seed,
             {k: float(v).hex() for k, v in c.measured.items()}) for c in checks]


class TestAlgebraSuite:
    def test_bitwise_golden_values(self):
        checks = algebra_records()
        assert [c.check_id for c in checks] == list(_ALGEBRA_GOLDEN)
        for c in checks:
            status, values = _ALGEBRA_GOLDEN[c.check_id]
            assert c.status == status, c.check_id
            assert {k: float(v).hex() for k, v in c.measured.items()} == values, c.check_id
        assert [c.n_samples for c in checks] == [100_000, 7, 42] + [100_000] * 6 + [3]

    def test_block_size_does_not_change_the_records(self, monkeypatch):
        # 12,345 rows: one block, the whole-array draws; 7 and 1,000 do not divide it
        reports = []
        for rows in (7, 1_000, 12_345):
            monkeypatch.setattr(suites, "_PASS_ROWS", rows)
            reports.append(record_bits(algebra_records(12_345, seed=5)))
        assert all(bits == reports[0] for bits in reports[1:])
        assert len(reports[0]) == 10

    def test_tracemalloc_peak(self):
        # a, b and c and every product of them live one block of _PASS_ROWS
        # rows at a time (2.0 MiB at 2,048 rows, 5.6 at 8,192; 54.2 with a,
        # b and c drawn whole)
        tracemalloc.start()
        try:
            algebra_records()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_nan_in_either_defect_fails_the_record(self, monkeypatch):
        # one row of b at norm 1e160: (ab)b and a(bb) overflow, so the second
        # alternative defect is inf - inf = NaN while the first stays finite
        streams = suites._streams

        class ScaledB:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                rows = self.rng.standard_normal(size)
                rows[3] *= 1e160 / np.linalg.norm(rows[3])
                return rows

        def scaled(seed, k):
            a, b, c = streams(seed, k)
            return [a, ScaledB(b), c]

        monkeypatch.setattr(suites, "_streams", scaled)
        with np.errstate(all="ignore"):
            checks = {c.check_id: c for c in algebra_records(100)}
        alternative = checks["alg-alternative"]
        assert math.isnan(alternative.measured["defect"])
        assert alternative.status == "fail"
