"""Boundary geometry: forms, bracket, metric, Jordan embeddings, volumes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octoplane import geometry, octonion, suites
from octoplane.geometry import (
    E1,
    JordanMatrix,
    ball_volume_est,
    ball_volume_quadrature,
    boundary_embed,
    bracket,
    dist_to_e1,
    jordan_embed,
    jordan_product,
    ni_dist,
    pair,
    phi_form,
    psi_form,
    unit_rotation,
)
from octoplane.octonion import _PASS_ROWS
from octoplane.octonion import basis, oct_conj, oct_mul, oct_norm, oct_norm_sq
from octoplane.quadrature import sample_sphere
from octoplane.suites import SuiteConfig, _check_seed, run_suite


E2 = pair(np.zeros(8), basis(0))   # (0, 1)


def diag_unit():
    """E_1 = diag(1, 0, 0) as a Jordan matrix."""
    p = np.zeros((3, 3, 8))
    p[0, 0, 0] = 1.0
    return JordanMatrix(p)


def ball_points(n, seed, rmax=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 16))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * (rmax * rng.uniform(0, 1, n) ** (1 / 16.0))[:, None]


class TestForms:
    def test_phi_single_slot(self):
        assert phi_form(E1, E1) == pytest.approx(1.0, abs=1e-15)
        assert phi_form(E2, E1) == pytest.approx(0.0, abs=1e-15)

    def test_phi_equals_bracket_square(self):
        x = ball_points(50_000, 1)
        y = ball_points(50_000, 2)
        keep = oct_norm_sq(y[:, 8:]) > 1e-6
        x, y = x[keep], y[keep]
        lhs = phi_form(x, y)
        rhs = oct_norm_sq(bracket(x, y))
        assert np.max(np.abs(lhs - rhs) / np.maximum(lhs, 1e-12)) < 1e-12

    def test_psi_at_origin(self):
        y = ball_points(100, 3)
        assert np.max(np.abs(psi_form(np.zeros(16), y) - 1.0)) < 1e-15

    def test_psi_radial_slot(self):
        for r in (0.0, 0.3, 0.9):
            assert psi_form(r * E1, E1) == pytest.approx((1 - r) ** 2, abs=1e-14)

    def test_psi_two_forms_agree(self):
        x = ball_points(50_000, 4)
        y = ball_points(50_000, 5)
        a, b = psi_form(x, y), oct_norm_sq(basis(0) - bracket(x, y))
        assert np.max(np.abs(a - b) / np.maximum(a, 1e-12)) < 1e-12

    def test_psi_positive(self):
        x = sample_sphere(50_000, 6)
        y = ball_points(50_000, 7, rmax=0.9999)
        assert np.min(psi_form(x, y)) > 0.0


def reference_phi(x, y):
    """Phi as phi_form computed it before the per-point invariants: both slot
    products formed per call."""
    x1, x2, y1, y2 = x[..., :8], x[..., 8:], y[..., :8], y[..., 8:]
    cross = np.sum(oct_mul(x1, x2) * oct_mul(y1, y2), axis=-1)
    return oct_norm_sq(x1) * oct_norm_sq(y1) + oct_norm_sq(x2) * oct_norm_sq(y2) + 2.0 * cross


def cols(x):
    """Row-major points or octonions as one coordinate-major block."""
    x = np.asarray(x, dtype=float)
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)


def col_forms(x):
    """geometry._forms of row-major points, one block of all their rows."""
    return geometry._forms(cols(x))


class TestFormInvariants:
    """The private helpers on invariants formed once equal the public forms
    on raw points bit for bit."""

    @staticmethod
    def point_sets():
        x = ball_points(5_000, 40)
        y = np.concatenate([sample_sphere(2_500, 41), ball_points(2_500, 42)])
        y[:50, 8:] = 0.0      # second slot zero: a degenerate bracket row
        y[50:60] = x[50:60]   # coincident points
        return x, y

    def test_pairwise(self):
        x, y = self.point_sets()
        fx, fy = col_forms(x), col_forms(y)
        assert np.array_equal(phi_form(x, y), reference_phi(x, y))
        assert np.array_equal(geometry._phi(fx, fy), phi_form(x, y))
        assert np.array_equal(geometry._psi(fx, fy), psi_form(x, y))
        assert np.array_equal(geometry._dist(fx, fy), ni_dist(x, y))
        assert np.array_equal(geometry._dist(fx, fy, geometry._psi(fx, fy)), ni_dist(x, y))
        assert np.all(geometry._dist(fx, fy)[50:60] == 0.0)

    def test_swapped_arguments(self):
        x, y = self.point_sets()
        fx, fy = col_forms(x), col_forms(y)
        assert np.array_equal(geometry._phi(fy, fx), phi_form(x, y))
        assert np.array_equal(geometry._psi(fy, fx), psi_form(y, x))
        assert np.array_equal(geometry._dist(fy, fx), ni_dist(x, y))

    def test_single_point_against_many(self):
        x, _ = self.point_sets()
        fx = col_forms(x)
        for p in (E1, E2, x[7], E1[None, :]):
            fp = col_forms(p)
            assert fp.x.shape == (16, 1)
            assert np.array_equal(geometry._phi(fx, fp), reference_phi(x, p))
            assert np.array_equal(geometry._phi(fp, fx), phi_form(p, x))
            assert np.array_equal(geometry._psi(fx, fp), psi_form(x, p))
            assert np.array_equal(geometry._dist(fp, fx), ni_dist(p, x))

    def test_masked_subsets(self):
        x, y = self.point_sets()
        fx, fy = col_forms(x), col_forms(y)
        mask = fy.n2 > 1e-8
        fxm, fym = fx.take(mask), fy.take(mask)
        assert np.array_equal(fxm.x, cols(x[mask]))
        assert np.array_equal(geometry._phi(fxm, fym), phi_form(x[mask], y[mask]))
        assert np.array_equal(geometry._phi(fx, fy)[mask], phi_form(x[mask], y[mask]))
        head = fx.take(slice(1_000))
        assert np.array_equal(geometry._dist(head, fy.take(slice(1_000))),
                              ni_dist(x[:1_000], y[:1_000]))

    def test_bracket_form_of_psi(self):
        x, y = self.point_sets()
        b = bracket(x, y)
        assert np.array_equal(geometry._abs_one_minus_sq(cols(b)), oct_norm_sq(basis(0) - b))


def closed_ball_points():
    """Points of the closed unit ball of R^16.

    Coordinates are +-0.0 or of magnitude 1e-6..1 before a point outside the
    ball is scaled onto the sphere, so no squared slot norm underflows."""
    coord = st.floats(-1.0, 1.0).map(lambda v: math.copysign(0.0, v) if abs(v) < 1e-6 else v)
    return hnp.arrays(np.float64, (16,), elements=coord).map(
        lambda x: x / max(1.0, float(np.linalg.norm(x))))


class TestFormProperties:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(closed_ball_points(), closed_ball_points())
    def test_phi_is_bracket_square(self, x, y):
        assume(np.any(y[8:] != 0.0))
        phi = phi_form(x, y)
        assert abs(phi - oct_norm_sq(bracket(x, y))) <= 1e-12 * max(phi, 1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="1 - 2<x,y> + Phi(x,y) cancels fully at coincident sphere points: at "
        "x = y = (0.5 e0 + 0.5 e4, e0 + e1)/|.| psi_form gives 2.2e-16 and the bracket "
        "form 0, a defect of 2.2e-4 against the 1e-12 relative tolerance",
    )
    # every phase but explain, which re-runs the shrunk failure to find its
    # free arguments and tripled this expected failure's run time
    @settings(derandomize=True, max_examples=100, deadline=None,
              phases=[p for p in Phase if p is not Phase.explain])
    @given(closed_ball_points(), closed_ball_points())
    def test_psi_is_bracket_form(self, x, y):
        psi = psi_form(x, y)
        assert abs(psi - oct_norm_sq(basis(0) - bracket(x, y))) <= 1e-12 * max(psi, 1e-12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(closed_ball_points(), closed_ball_points())
    def test_distance_symmetric(self, x, y):
        assert ni_dist(x, y) == ni_dist(y, x)


class TestBracket:
    def test_second_slot_zero_branch(self):
        x = ball_points(1000, 8)
        y1 = np.random.default_rng(9).standard_normal((1000, 8))
        y = pair(y1, np.zeros((1000, 8)))
        assert np.max(oct_norm(bracket(x, y) - oct_mul(oct_conj(x[:, :8]), y1))) == 0.0

    def test_mixed_batch_matches_single_points(self):
        # the y2 == 0 rows take the fallback, the others the main formula
        x, y = ball_points(60, 12), ball_points(60, 13)
        y[::3, 8:] = 0.0
        b = bracket(x, y)
        assert bitwise_equal(b[::3], oct_mul(oct_conj(x[::3, :8]), y[::3, :8]))
        for i in range(0, 60, 4):
            assert bitwise_equal(bracket(x[i], y[i]), b[i])

    def test_scaled_first_coordinate(self):
        om = sample_sphere(10_000, 10)
        r = np.random.default_rng(11).uniform(0, 1, 10_000)
        b = bracket(r[:, None] * E1[None, :], om)
        assert np.max(oct_norm(b - r[:, None] * om[:, :8])) < 1e-12

    def test_diagonal_is_one(self):
        a = sample_sphere(100_000, 12)
        b = bracket(a, a)
        unit = basis(0)
        assert np.max(oct_norm(b - unit[None, :])) < 1e-12

    def test_norm_bound(self):
        x = ball_points(100_000, 13)
        y = ball_points(100_000, 14)
        lhs = oct_norm(bracket(x, y))
        rhs = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        assert np.max(lhs - rhs) < 1e-12


class TestColumnCores:
    """The public bracket, phi_form, psi_form and ni_dist loop over blocks of
    rows and call the column cores; they equal the cores on one block of all
    the broadcast rows bit for bit."""

    @staticmethod
    def core_values(x, y):
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        shape = xb.shape[:-1]
        fx, fy = col_forms(xb), col_forms(yb)
        return {bracket: geometry._bracket_cols(cols(xb), cols(yb)).T.reshape(shape + (8,)),
                phi_form: geometry._phi(fx, fy).reshape(shape),
                psi_form: geometry._psi(fx, fy).reshape(shape),
                ni_dist: geometry._dist(fx, fy).reshape(shape)}

    @pytest.mark.parametrize("n", [1, _PASS_ROWS - 1, _PASS_ROWS, _PASS_ROWS + 1,
                                   2 * _PASS_ROWS + 1])
    def test_public_equals_core(self, n):
        x, y = ball_points(n, 50), sample_sphere(n, 51)
        y[::5, 8:] = 0.0      # degenerate bracket rows
        y[1::7] = x[1::7]     # coincident points
        p, q = ball_points(1, 52)[0], sample_sphere(3, 53)[:, None, :]
        for a, b in ((x, y), (y, x), (p, y), (x, p), (p[None, :], y), (p, p),
                     (q, x[None, :min(n, 100)]), (x[None, :min(n, 100)], q)):
            for fn, want in self.core_values(a, b).items():
                got = fn(a, b)
                assert bitwise_equal(np.asarray(got), want), (fn.__name__, np.shape(a))

    def test_single_rows_give_scalars(self):
        p, q = ball_points(2, 54)
        for fn in (phi_form, psi_form, ni_dist, lambda a, b: dist_to_e1(a)):
            assert np.ndim(fn(p, q)) == 0 and np.shape(fn(p[None], q)) == (1,)
        assert bracket(p, q).shape == (8,)

    def test_form_pass_makes_28_column_products_per_block(self, monkeypatch):
        # per block: 8 forms, 4 brackets of 4 products each, and the rotation
        # of x and y; no y2 of a drawn ball point is exactly 0
        calls = []

        def counted(a_t, b_t):
            calls.append(max(a_t.shape[1], b_t.shape[1]))
            return mul_cols(a_t, b_t)

        mul_cols = geometry._mul_cols
        monkeypatch.setattr(geometry, "_mul_cols", counted)
        n = 2 * _PASS_ROWS + 5
        _form_checks(n)
        assert len(calls) == 3 * 28
        assert sorted(set(calls)) == [5, _PASS_ROWS]


def reference_bracket(x, y):
    """The bracket as four full-size oct_mul products, with the y2 = 0 rows
    overwritten (the formula before the one-pass block kernel)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    x1, x2, y1, y2 = x[..., :8], x[..., 8:], y[..., :8], y[..., 8:]
    n2 = oct_norm_sq(y2)
    degenerate = n2 == 0.0
    y2inv = oct_conj(y2) / np.where(degenerate[..., None], 1.0, n2[..., None])
    out = oct_mul(oct_mul(oct_conj(x1), y2), oct_mul(y2inv, y1)) + oct_mul(x2, oct_conj(y2))
    if np.any(degenerate):
        out[degenerate] = oct_mul(oct_conj(x1[degenerate]), y1[degenerate])
    return out


def reference_forms(x):
    """|x1|^2, |x2|^2 and x1 x2 as three whole-array calls."""
    x = np.asarray(x, dtype=float)
    return oct_norm_sq(x[..., :8]), oct_norm_sq(x[..., 8:]), oct_mul(x[..., :8], x[..., 8:])


def wide_points(shape, seed):
    """Points whose coordinates spread over 1e-8..1e8, so any change of the
    summation order shows in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


def assert_blocked_equals_reference(x, y):
    got = bracket(x, y)
    assert got.flags.c_contiguous
    assert bitwise_equal(got, reference_bracket(x, y))
    for p in (x, y):
        n1, n2, prod = reference_forms(p)
        for a, b in zip(col_forms(p)[1:], (np.reshape(n1, -1), np.reshape(n2, -1), cols(prod))):
            assert bitwise_equal(a, b)


# Row counts at the edges of the row blocks: those of _PASS_ROWS, and those of
# the 1,024-row block the octonion kernels took before they shared it.
BLOCKS = (1_024, _PASS_ROWS)
SPANS = sorted({0, 1, 1_023, 1_024, 2_053, _PASS_ROWS - 1, _PASS_ROWS, 2 * _PASS_ROWS + 5})


class TestBlockedKernels:
    """bracket and _forms run one pass per block of rows; they equal the
    whole-array references bit for bit."""

    @pytest.mark.parametrize("n", SPANS)
    def test_contiguous(self, n):
        assert_blocked_equals_reference(wide_points((n, 16), 1), wide_points((n, 16), 2))
        assert_blocked_equals_reference(ball_points(n, 3), sample_sphere(n + 1, 4)[:n])

    @pytest.mark.parametrize("n", SPANS)
    def test_broadcast_single_point(self, n):
        p, q = wide_points(16, 5), wide_points((n, 16), 6)
        assert_blocked_equals_reference(p, q)
        assert_blocked_equals_reference(q, p)

    @pytest.mark.parametrize("n", SPANS)
    def test_broadcast_grid(self, n):
        assert_blocked_equals_reference(wide_points((3, 1, 16), 7), wide_points((1, n, 16), 8))
        assert_blocked_equals_reference(wide_points((1, n, 16), 9), wide_points((3, 1, 16), 10))

    @pytest.mark.parametrize("n", SPANS)
    def test_step_sliced(self, n):
        big = wide_points((3 * n, 16), 11)
        assert_blocked_equals_reference(big[::3], big[1::3])
        assert_blocked_equals_reference(big[::-3], big[2::3])

    def test_degenerate_rows(self):
        for block in BLOCKS:
            x, y = wide_points((2 * block + 5, 16), 12), wide_points((2 * block + 5, 16), 13)
            y[:block, 8:] = 0.0          # the first block rows take the y2 = 0 branch
            y[block::3, 8:] = -0.0       # mixed rows after them
            assert_blocked_equals_reference(x, y)
            assert bitwise_equal(bracket(x, y)[:block],
                                 oct_mul(oct_conj(x[:block, :8]), y[:block, :8]))

    def test_signed_zeros(self):
        rng = np.random.default_rng(14)
        vals = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
        for block in BLOCKS:
            x = vals[rng.integers(0, 6, (block + 7, 16))]
            y = vals[rng.integers(0, 6, (block + 7, 16))]
            assert_blocked_equals_reference(x, y)
        assert_blocked_equals_reference(np.zeros(16), -0.0 * y)
        zeros = -np.zeros((2, 16))
        assert_blocked_equals_reference(zeros, zeros)

    def test_layout_independent(self):
        for block in BLOCKS:
            x, y = wide_points((block + 3, 16), 15), wide_points((block + 3, 16), 16)
            xf, yf = np.asfortranarray(x), np.asfortranarray(y)
            assert bitwise_equal(bracket(xf, yf), bracket(x, y))
            # a strided block (x.T of a C-ordered x) forms as its contiguous copy
            for a, b in zip(geometry._forms(x.T)[1:], col_forms(x)[1:]):
                assert bitwise_equal(a, b)

    @pytest.mark.parametrize("width", [8, 15, 17, 32])
    def test_shape_errors_name_o2(self, width):
        bad, good = np.ones((5, width)), np.ones((5, 16))
        for call in (lambda: bracket(bad, good), lambda: bracket(good, bad),
                     lambda: phi_form(bad, good), lambda: unit_rotation(basis(0))(bad),
                     lambda: psi_form(good, bad), lambda: ni_dist(bad, good),
                     lambda: dist_to_e1(bad)):
            with pytest.raises(ValueError, match=rf"points of O\^2 need last axis 16, "
                                                 rf"got shape \(5, {width}\)"):
                call()
        with pytest.raises(ValueError, match=rf"points of O\^2 need 16 coordinates per "
                                             rf"column, got a block of shape \({width}, 5\)"):
            geometry._forms(bad.T)


def _driver_cases():
    """(name, function, operand width, number of operands) of every
    row-major function that goes through octonion._rowwise."""
    act = unit_rotation((basis(3) + 0.5 * basis(6)) / math.sqrt(1.25))
    return [("oct_mul", oct_mul, 8, 2), ("_row_dot", octonion._row_dot, 16, 2),
            ("phi_form", phi_form, 16, 2), ("psi_form", psi_form, 16, 2),
            ("bracket", bracket, 16, 2), ("ni_dist", ni_dist, 16, 2),
            ("dist_to_e1", dist_to_e1, 16, 1), ("unit_rotation act", act, 16, 1)]


class TestOneDriver:
    """octonion._rowwise is the one driver from row-major rows to column
    blocks: every row-major function cuts its blocks at octonion._PASS_ROWS
    rows alone, and no value depends on the block size."""

    N = 2_053

    def operands(self, width, count):
        """Operands of the same shape, one broadcast single row, a broadcast
        grid and one array passed twice; one-operand functions take the
        larger operand."""
        x, y = wide_points((self.N, width), 60), wide_points((self.N, width), 61)
        y[::5, 8:] = 0.0      # degenerate bracket rows
        y[1::7] = x[1::7]     # coincident points
        kinds = [(x, y), (x[3], y), (wide_points((3, 1, width), 62), y[None]), (y, y)]
        return [(b,) if count == 1 else (a, b) for a, b in kinds]

    def test_block_size_is_read_from_octonion_alone(self, monkeypatch):
        assert geometry._rowwise is octonion._rowwise
        driver, blocks = octonion._rowwise, []

        def spy(core, width, *rows):
            def counted(*cols):
                blocks.append(max(c.shape[1] for c in cols))
                return core(*cols)
            return driver(counted, width, *rows)

        for name, fn, width, count in _driver_cases():
            for args in self.operands(width, count):
                want = np.asarray(fn(*args))
                n = math.prod(np.broadcast_shapes(*(a.shape[:-1] for a in args)))
                for rows in (7, 1_000):
                    monkeypatch.setattr(octonion, "_PASS_ROWS", rows)
                    monkeypatch.setattr(octonion, "_rowwise", spy)
                    monkeypatch.setattr(geometry, "_rowwise", spy)
                    blocks.clear()
                    got = np.asarray(fn(*args))
                    monkeypatch.undo()
                    assert bitwise_equal(got, want), (name, rows, np.shape(args[0]))
                    k = -(-n // rows)
                    assert blocks == [rows] * (k - 1) + [n - rows * (k - 1)], (name, rows)


class TestMetric:
    def test_identity_and_examples(self):
        th = sample_sphere(10_000, 15)
        assert np.max(ni_dist(th, th)) == 0.0
        assert ni_dist(E1, -E1) == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert ni_dist(E1, E2) == pytest.approx(1.0, rel=1e-14)

    def test_symmetry(self):
        x = ball_points(50_000, 16)
        y = ball_points(50_000, 17)
        assert np.max(np.abs(ni_dist(x, y) - ni_dist(y, x))) < 1e-14

    def test_triangle_inequality(self):
        a = ball_points(200_000, 18)
        b = ball_points(200_000, 19)
        c = ball_points(200_000, 20)
        viol = np.count_nonzero(ni_dist(a, c) > ni_dist(a, b) + ni_dist(b, c) + 1e-12)
        assert viol == 0

    def test_difference_bracket_inequality(self):
        th = sample_sphere(200_000, 21)
        tp = sample_sphere(200_000, 22)
        om = sample_sphere(200_000, 23)
        lhs = oct_norm(bracket(th - tp, om))
        dtt, dto = ni_dist(th, tp), ni_dist(th, om)
        assert np.count_nonzero(lhs > dtt * (dtt + 2 * dto) + 1e-12) == 0

    def test_unit_rotation_invariance(self):
        rng = np.random.default_rng(24)
        x = ball_points(20_000, 25)
        y = ball_points(20_000, 26)
        for _ in range(3):
            u = rng.standard_normal(8)
            u /= np.linalg.norm(u)
            act = unit_rotation(u)
            assert np.max(np.abs(psi_form(act(x), act(y)) - psi_form(x, y))) < 1e-12
            assert np.max(np.abs(ni_dist(act(x), act(y)) - ni_dist(x, y))) < 1e-12

    def test_dist_to_e1_fast_path(self):
        th = sample_sphere(10_000, 27)
        assert np.max(np.abs(dist_to_e1(th) - ni_dist(th, E1))) < 1e-12

    def test_rotation_requires_unit(self):
        with pytest.raises(ValueError):
            unit_rotation(2.0 * basis(0))


def entry_loop_mat_mul(a, b):
    """The 27-entry loop of single-octonion products that JordanMatrix.mat_mul
    replaced, kept as its reference."""
    rp = np.zeros((3, 3, 8))
    rq = np.zeros((3, 3, 8))
    for r in range(3):
        for c in range(3):
            for k in range(3):
                ap, aq = a.plain[r, k], a.imag[r, k]
                bp, bq = b.plain[k, c], b.imag[k, c]
                rp[r, c] += oct_mul(ap, bp) - oct_mul(aq, bq)
                rq[r, c] += oct_mul(ap, bq) + oct_mul(aq, bp)
    return rp, rq


def entry_loop_hermitian_defect(a):
    """The per-entry loop that JordanMatrix.hermitian_defect replaced, kept as
    its reference."""
    d = 0.0
    for r in range(3):
        for c in range(3):
            d = max(d, float(np.max(np.abs(a.plain[c, r] - oct_conj(a.plain[r, c])))))
            d = max(d, float(np.max(np.abs(a.imag[c, r] - oct_conj(a.imag[r, c])))))
    return d


def bitwise_equal(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestJordan:
    def test_mat_mul_equals_entry_loop(self, monkeypatch):
        interior = [jordan_embed(p) for p in ball_points(6, 30, rmax=0.9)]
        boundary = [boundary_embed(w[:8], w[8:]) for w in sample_sphere(6, 31)]
        assert all(np.any(X.imag != 0.0) for X in interior)
        mats = interior + boundary + [diag_unit(), JordanMatrix.corner_unit()]
        for A in mats:
            for B in mats:
                rp, rq = entry_loop_mat_mul(A, B)
                AB = A.mat_mul(B)
                assert bitwise_equal(AB.plain, rp) and bitwise_equal(AB.imag, rq)

        calls = []

        def counted(a, b):
            calls.append(1)
            return oct_mul(a, b)

        monkeypatch.setattr(geometry, "oct_mul", counted)
        interior[0].mat_mul(interior[1])
        assert len(calls) <= 4

    def test_jordan_product_is_one_oct_mul(self, monkeypatch):
        # AB and BA from one oct_mul over the stacked entry pairs, with the
        # bits of two mat_mul calls
        mats = [jordan_embed(p) for p in ball_points(8, 34, rmax=0.9)]
        mats += [boundary_embed(w[:8], w[8:]) for w in sample_sphere(2, 35)]
        pairs = list(zip(mats[:5], mats[5:]))
        want = []
        for A, B in pairs:
            (abp, abq), (bap, baq) = entry_loop_mat_mul(A, B), entry_loop_mat_mul(B, A)
            want.append((0.5 * (abp + bap), 0.5 * (abq + baq)))
        calls = []
        monkeypatch.setattr(geometry, "oct_mul", lambda a, b: calls.append(1) or oct_mul(a, b))
        for (A, B), (p, q) in zip(pairs, want):
            calls.clear()
            AB = jordan_product(A, B)
            assert len(calls) == 1
            assert bitwise_equal(AB.plain, p) and bitwise_equal(AB.imag, q)

    def test_hermitian_defect_equals_entry_loop(self):
        mats = [jordan_embed(p) for p in ball_points(10, 32, rmax=0.99)]
        mats += [jordan_product(A, B) for A, B in zip(mats[:5], mats[5:])]
        rng = np.random.default_rng(33)
        mats += [JordanMatrix(rng.standard_normal((3, 3, 8)), rng.standard_normal((3, 3, 8)))
                 for _ in range(5)]
        for X in mats:
            assert X.hermitian_defect() == entry_loop_hermitian_defect(X)

    def test_e1_idempotent(self):
        e1m = diag_unit()
        assert jordan_product(e1m, e1m).max_abs_diff(e1m) == 0.0

    def test_embed_origin_is_diag_unit(self):
        X = jordan_embed(np.zeros(16))
        assert X.max_abs_diff(diag_unit()) == 0.0

    def test_embed_invariants(self):
        pts = ball_points(32, 28, rmax=0.95)
        e1m = diag_unit()
        for p in pts:
            X = jordan_embed(p)
            assert abs(X.trace() - 1.0) < 1e-12
            assert jordan_product(X, X).max_abs_diff(X) < 1e-10
            assert X.hermitian_defect() < 1e-12
            # tr(X o E1) = 1/(1 - |x|^2) >= 1
            t = jordan_product(X, e1m).trace()
            assert t >= 1.0
            assert t == pytest.approx(1.0 / (1.0 - np.sum(p * p)), rel=1e-12)

    def test_embed_rejects_exterior(self):
        with pytest.raises(ValueError, match="interior"):
            jordan_embed(1.2 * E1)

    def test_product_commutative_and_jordan_identity(self):
        pts = ball_points(16, 29, rmax=0.6)
        mats = [jordan_embed(p) for p in pts]
        for A, B in zip(mats[:8], mats[8:]):
            AB, BA = jordan_product(A, B), jordan_product(B, A)
            assert AB.max_abs_diff(BA) < 1e-12
            A2 = jordan_product(A, A)
            lhs = jordan_product(A2, jordan_product(A, B))
            rhs = jordan_product(jordan_product(A2, B), A)
            scale = max(1.0, np.max(np.abs(lhs.plain)), np.max(np.abs(lhs.imag)))
            assert lhs.max_abs_diff(rhs) / scale < 1e-10

    def test_suite_idempotent_check_scales_with_the_point(self):
        # entries of X o X grow like s^2, s = 1/(1-|x|^2); the records at
        # s = 1e5 are tested on chosen points below
        config = SuiteConfig(suite="geometry", seed=0)
        report = run_suite(config)
        assert [c.check_id for c in report.checks if c.status == "fail"] == []
        # the saturation record reports the seed it sampled with
        byid = {c.check_id: c for c in report.checks}
        assert byid["geo-volume-saturation"].seed == _check_seed(config, "geo-volume-sat")

    def test_max_abs_diff_keeps_nan_in_either_part(self):
        X = jordan_embed(np.zeros(16))
        for part in ("plain", "imag"):
            Y = jordan_embed(np.zeros(16))
            getattr(Y, part)[1, 2, 3] = np.nan
            assert math.isnan(X.max_abs_diff(Y)), part

    @staticmethod
    def jordan_records(pts):
        rec = suites._Recorder(SuiteConfig(suite="geometry"), "geometry")
        suites._jordan_checks(rec, pts)
        return {c.check_id: c for c in rec.checks}

    def test_suite_checks_scale_with_the_point(self):
        # at |x|^2 = 1 - 1e-5 the entries of X reach s = 1e5, and tr X = 1
        # cancels them: the absolute defects read rounding times s
        pts = sample_sphere(16, 0) * math.sqrt(1.0 - 1e-5)
        mats = [jordan_embed(p) for p in pts]
        assert max(abs(X.trace() - 1.0) for X in mats) > 1e-12
        assert max(X.hermitian_defect() for X in mats) > 1e-12
        records = self.jordan_records(pts)
        for check_id in ("geo-jordan-idempotent", "geo-jordan-trace", "geo-jordan-hermitian"):
            assert records[check_id].status == "pass", records[check_id].measured

    def test_suite_trace_check_catches_a_scaled_diagonal(self, monkeypatch):
        embed = geometry.jordan_embed

        def mutant(x):
            X = embed(x)
            X.plain[0, 0, 0] *= 1.0 + 1e-9
            return X

        monkeypatch.setattr(geometry, "jordan_embed", mutant)
        pts = sample_sphere(16, 0) * math.sqrt(1.0 - 1e-5)
        assert self.jordan_records(pts)["geo-jordan-trace"].status == "fail"

    def test_boundary_embed(self):
        Y = boundary_embed(basis(0), np.zeros(8))
        assert Y.max_abs_diff(JordanMatrix.corner_unit()) == 0.0
        assert Y.trace() == 0.0
        u = np.zeros(8)
        v = basis(0)
        Y2 = boundary_embed(u, v)
        assert Y2.plain[0, 1, 0] == 1.0
        assert np.all(Y2.plain[0, 2] == 0.0) and np.all(Y2.plain[2, 0] == 0.0)
        with pytest.raises(ValueError):
            boundary_embed(basis(0), basis(0))  # |u|^2 + |v|^2 = 2


class TestVolume:
    def test_whole_sphere(self):
        est, = ball_volume_est([1.5], 10_000, 0)
        assert est.value == 1.0

    def test_small_delta_vanishes(self):
        est, = ball_volume_est([0.2], 100_000, 1)
        assert est.value < 1e-4

    def test_determinism(self):
        a = ball_volume_est([0.9], 50_000, 7)
        b = ball_volume_est([0.9], 50_000, 7)
        assert a == b

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ball_volume_est([0.5], 0, 0)
        with pytest.raises(ValueError):
            ball_volume_est([-1.0], 10, 0)
        with pytest.raises(ValueError):
            ball_volume_est([0.5, 0.0], 10, 0)
        with pytest.raises(ValueError, match="empty"):
            ball_volume_est([], 10, 0)

    def test_mc_matches_quadrature(self):
        deltas = (0.7, 0.9, 1.1)
        for delta, est in zip(deltas, ball_volume_est(deltas, 400_000, 11)):
            ref = ball_volume_quadrature(delta)
            assert abs(est.value - ref) < 4.0 * max(est.stderr, 1e-12)

    @pytest.mark.parametrize("n", [200_000, 1_500_000])
    def test_grid_equals_one_call_per_delta(self, n):
        # one stream serves the grid; 1.5M samples take 733 blocks of 2,048 rows
        deltas = (0.7, 0.9, 1.1, 1.5)
        grid = ball_volume_est(deltas, n, 123)
        assert grid == [ball_volume_est([d], n, 123)[0] for d in deltas]
        if n == 200_000:
            assert [e.hits for e in grid[:3]] == [108, 8390, 99576]

    def test_hits_do_not_depend_on_the_block_size(self, monkeypatch):
        deltas = (0.7, 0.9, 1.1, 1.5)
        hits = []
        for rows in (7, 1_000, geometry._PASS_ROWS, 20_001):
            monkeypatch.setattr(geometry, "_PASS_ROWS", rows)
            hits.append([e.hits for e in ball_volume_est(deltas, 20_001, 5)])
        assert all(h == hits[0] for h in hits[1:])
        assert hits[0][-1] == 20_001

    def test_tracemalloc_peak(self):
        # one block of sphere points at a time (0.55 MiB at 2,048 rows, 2.3
        # at 8,192); batches of 1M rows peaked at 183.8 MiB
        tracemalloc.start()
        try:
            ball_volume_est((0.7, 0.9, 1.1), 1_500_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_asymptotic_exponent(self):
        # the delta^22 law emerges only for small delta, far below MC reach
        deltas = (0.05, 0.1, 0.15)
        vols = [ball_volume_quadrature(d) for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(vols), 1)[0]
        assert abs(slope - 22.0) < 0.2

    def test_window_slope_value(self):
        # over the [0.4, 0.9] window the measure is far from its asymptotic
        # regime: the fitted exponent is ~19.3, not 22
        deltas = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        vols = [ball_volume_quadrature(d) for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(vols), 1)[0]
        assert 19.0 < slope < 19.6


# float.hex of every measured value of SuiteConfig(suite="geometry", n_mc=20_000, seed=0),
# re-pinned when each sample set of the form and Jordan checks got a generator
# of its own (the volume and boundary records kept their bits), 16 Jordan points
# were drawn in place of 64 and the trace and hermitian defects were divided by s
_GEOMETRY_GOLDEN = {
    "geo-phi-product-form": ("pass", {"defect": "0x1.1fea42794800dp-49"}),
    "geo-psi-two-forms": ("pass", {"defect": "0x1.2a3085461e985p-49"}),
    "geo-bracket-bound": ("pass", {"violations": "0x0.0p+0"}),
    "geo-bracket-scaling": ("pass", {"defect": "0x1.97a6830c830c0p-52"}),
    "geo-bracket-diagonal": ("pass", {"defect": "0x1.876d8bd35b8bcp-51"}),
    "geo-metric-identity": ("pass", {"defect": "0x0.0p+0"}),
    "geo-metric-symmetry": ("pass", {"defect": "0x0.0p+0"}),
    "geo-triangle": ("pass", {"violations": "0x0.0p+0"}),
    "geo-difference-ineq": ("pass", {"violations": "0x0.0p+0"}),
    "geo-invariance": ("pass", {"defect": "0x1.8000000000000p-52"}),
    "geo-jordan-idempotent": ("pass", {"defect": "0x1.8e81b6f8af662p-52"}),
    "geo-jordan-trace": ("pass", {"defect": "0x1.4ca931aacca00p-53"}),
    "geo-jordan-hermitian": ("pass", {"defect": "0x1.5a88393dc6eecp-54"}),
    "geo-jordan-commute": ("pass", {"defect": "0x0.0p+0"}),
    "geo-jordan-identity": ("pass", {"defect": "0x1.a507acdd6ce1ap-49"}),
    "geo-boundary-embed": ("pass", {"defect": "0x0.0p+0"}),
    "geo-volume-saturation": ("pass", {"defect": "0x0.0p+0"}),
    "geo-volume-asymptotic-slope": ("pass", {"defect": "0x1.7d5f1b5963200p-5",
                                             "slope": "0x1.5f415072534e7p+4"}),
    "geo-volume-window-slope": ("measured", {"slope": "0x1.34711b352aa45p+4",
                                             "v04": "0x1.fefe257319ed3p-28",
                                             "v09": "0x1.5cb0b062ade04p-5"}),
    "geo-volume-mc-consistency": ("pass", {"defect": "0x1.f80ffb42e3800p-1"}),
}


def test_geometry_suite_bitwise_golden_values():
    report = run_suite(SuiteConfig(suite="geometry", n_mc=20_000, seed=0))
    assert [c.check_id for c in report.checks] == list(_GEOMETRY_GOLDEN)
    for c in report.checks:
        status, values = _GEOMETRY_GOLDEN[c.check_id]
        assert c.status == status, c.check_id
        assert {k: float(v).hex() for k, v in c.measured.items()} == values, c.check_id


def _record_bits(checks):
    """Every field of the check records but the wall time, floats as hex."""
    return [(c.check_id, c.anchor, c.status, c.tolerance, c.n_samples, c.seed,
             {k: float(v).hex() for k, v in c.measured.items()}) for c in checks]


def _form_checks(n_mc, seed=0):
    rec = suites._Recorder(SuiteConfig(suite="geometry", n_mc=n_mc, seed=seed), "geometry")
    suites._geometry_form_checks(rec)
    return rec.checks


@pytest.mark.parametrize("n_mc, points", [(500, 500), (12_345, 10_000)])
def test_metric_identity_counts_the_points_it_reads(n_mc, points):
    # d(a, a) = 0 is checked on the first min(n_mc, 10,000) sphere points
    checks = {c.check_id: c for c in _form_checks(n_mc)}
    assert checks["geo-metric-identity"].n_samples == points


def test_geometry_block_size_does_not_change_the_report(monkeypatch):
    # 12,345 rows: geo-metric-identity's first 10,000 end inside a block
    reports = []
    for rows in (7, 1_000, 12_345):
        monkeypatch.setattr(suites, "_PASS_ROWS", rows)
        reports.append(_record_bits(_form_checks(12_345, seed=5)))
    assert all(bits == reports[0] for bits in reports[1:])
    assert len(reports[0]) == 10


def test_geometry_running_maxima_keep_nan_from_a_later_block(monkeypatch):
    # x row 30 -> NaN makes the Phi, Psi, symmetry and invariance defects
    # NaN, which must reach their records from the fifth block of 7 rows
    ball_points_of = suites._random_ball_points
    calls = []

    def poisoned(n, rng, radius_rng):
        # each block draws x, y and z in this order, so x is every third call
        pts = ball_points_of(n, rng, radius_rng)
        if len(calls) % 3 == 0:
            lo = sum(calls[0::3])
            if lo <= 30 < lo + n:
                pts[:, 30 - lo] = np.nan
        calls.append(n)
        return pts

    monkeypatch.setattr(suites, "_random_ball_points", poisoned)
    reports = []
    with np.errstate(all="ignore"):
        for rows in (7, 50):
            monkeypatch.setattr(suites, "_PASS_ROWS", rows)
            calls.clear()
            reports.append(_form_checks(50))
    assert _record_bits(reports[0]) == _record_bits(reports[1])
    nan_ids = {c.check_id for c in reports[0] if math.isnan(next(iter(c.measured.values())))}
    assert nan_ids == {"geo-phi-product-form", "geo-psi-two-forms", "geo-metric-symmetry",
                       "geo-invariance"}
    assert all(c.status == "fail" for c in reports[0] if c.check_id in nan_ids)


def test_geometry_form_checks_tracemalloc_peak():
    # x, y, z and r are drawn one block of _PASS_ROWS rows at a time from
    # generators of their own, and every form, bracket and distance lives
    # one block at a time too (6.0 MiB at 2,048 rows, 18.3 at 8,192; 50.4
    # with x, y and z drawn whole, 97.8 with whole-array forms as well)
    tracemalloc.start()
    try:
        _form_checks(SuiteConfig().n_mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
