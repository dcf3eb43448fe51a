"""Truncated vector-valued polydisc Hardy space: indexing, shifts,
kernels, evaluation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmodel.hardy import (
    PointOutsidePolydisc,
    TruncatedHardySpace,
    apply_coshift,
    apply_shift,
    kernel_vector,
    szego_kernel,
)
from dcmodel.matrixcore import operator_norm
import oracles
from oracles import (
    coshift_matrix,
    constants_projection_check,
    enumerate_multi_indices,
    index_pos,
    indices,
    point_evaluation,
    shift_matrix,
)


class TestIndexing:
    def test_graded_order_n2_d1(self):
        assert enumerate_multi_indices(2, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_graded_order_n2_d2_prefix(self):
        idx = enumerate_multi_indices(2, 2)
        assert idx[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_count(self):
        assert len(enumerate_multi_indices(3, 2)) == 27

    def test_invalid(self):
        with pytest.raises(ValueError):
            enumerate_multi_indices(0, 2)

    def test_dims(self):
        sp = TruncatedHardySpace(2, 3, 2)
        assert sp.num_indices == 16
        assert sp.total_dim == 32

    def test_flat_is_c_order_tensor(self):
        sp = TruncatedHardySpace(2, 2, 3)
        assert sp.shape == (3, 3, 3)
        v = np.arange(sp.total_dim)
        t = v.reshape(sp.shape)
        for k, p in index_pos(sp).items():
            for c in range(sp.coeff_dim):
                assert t[k + (c,)] == v[p * sp.coeff_dim + c]

    @pytest.mark.parametrize("n,d,r", [(1, 4, 2), (2, 3, 1), (3, 2, 2)])
    def test_index_pos_is_ravel_multi_index(self, n, d, r):
        sp = TruncatedHardySpace(n, d, r)
        assert len(index_pos(sp)) == sp.num_indices
        for k, p in index_pos(sp).items():
            assert p == np.ravel_multi_index(k, (d + 1,) * n)

    @pytest.mark.parametrize("n,d,r", [(1, 4, 2), (2, 3, 1), (3, 2, 2)])
    def test_indices_product_order(self, n, d, r):
        sp = TruncatedHardySpace(n, d, r)
        assert indices(sp) == list(itertools.product(range(d + 1), repeat=n))

    @pytest.mark.parametrize("n,d,r", [(1, 4, 2), (2, 3, 1), (3, 2, 2)])
    def test_shifts_match_oracle(self, n, d, r):
        sp = TruncatedHardySpace(n, d, r)
        rng = np.random.default_rng(n * 100 + d * 10 + r)
        V = rng.standard_normal((sp.total_dim, 2)) + 1j * rng.standard_normal((sp.total_dim, 2))
        for i in range(n):
            S = shift_matrix(sp, i)
            assert np.array_equal(apply_shift(sp, V, i), S @ V)
            assert np.array_equal(apply_coshift(sp, V, i), S.conj().T @ V)
            assert np.array_equal(apply_shift(sp, V[:, 0], i), S @ V[:, 0])

    @pytest.mark.parametrize("n,d,r", [(1, 4, 2), (2, 3, 1), (3, 2, 2)])
    def test_margin_mask_matches_loop(self, n, d, r):
        sp = TruncatedHardySpace(n, d, r)
        for margin in range(d + 1):
            assert np.array_equal(sp.margin_mask(margin), oracles.margin_mask(sp, margin))

    def test_margin_mask(self):
        sp = TruncatedHardySpace(2, 2, 1)
        mask = sp.margin_mask(1)
        kept = [k for k, m in zip(indices(sp), mask) if m]
        assert kept == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestShifts:
    def test_apply_matches_matrix(self):
        sp = TruncatedHardySpace(2, 2, 2)
        rng = np.random.default_rng(0)
        V = rng.standard_normal((sp.total_dim, 3)) + 1j * rng.standard_normal((sp.total_dim, 3))
        for i in range(2):
            S = shift_matrix(sp, i)
            assert np.allclose(apply_shift(sp, V, i), S @ V, atol=1e-13)
            assert np.allclose(apply_coshift(sp, V, i), S.conj().T @ V, atol=1e-13)

    def test_coshift_is_adjoint(self):
        sp = TruncatedHardySpace(2, 3, 1)
        assert np.allclose(coshift_matrix(sp, 1), shift_matrix(sp, 1).conj().T)

    def test_shift_moves_constants(self):
        sp = TruncatedHardySpace(2, 2, 1)
        e0 = np.zeros(sp.total_dim, dtype=complex)
        e0[index_pos(sp)[(0, 0)]] = 1.0
        out = apply_shift(sp, e0, 0)
        assert out[index_pos(sp)[(1, 0)]] == 1.0
        assert np.sum(np.abs(out)) == 1.0

    def test_shift_kills_top_layer(self):
        sp = TruncatedHardySpace(1, 2, 1)
        top = np.zeros(sp.total_dim, dtype=complex)
        top[index_pos(sp)[(2,)]] = 1.0
        assert np.allclose(apply_shift(sp, top, 0), 0.0)

    def test_partial_isometry(self):
        sp = TruncatedHardySpace(2, 2, 2)
        S = shift_matrix(sp, 0)
        G = S.conj().T @ S
        # S^H S is the projection onto the non-top layers
        assert operator_norm(G @ G - G) <= 1e-13

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_shifts_commute(self, seed):
        sp = TruncatedHardySpace(2, 2, 1)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(sp.total_dim)
        a = apply_shift(sp, apply_shift(sp, v, 0), 1)
        b = apply_shift(sp, apply_shift(sp, v, 1), 0)
        assert np.allclose(a, b, atol=1e-13)


class TestKernels:
    def test_szego_at_zero(self):
        assert szego_kernel([0, 0], [0, 0]) == pytest.approx(1.0)

    def test_szego_product_form(self):
        z, w = [0.5, 0.25j], [0.5, -0.5j]
        want = 1.0 / ((1 - 0.5 * 0.5) * (1 - 0.25j * np.conj(-0.5j)))
        assert szego_kernel(z, w) == pytest.approx(want, abs=1e-14)

    def test_szego_rejects_boundary(self):
        with pytest.raises(PointOutsidePolydisc):
            szego_kernel([1.0], [0.0])

    def test_kernel_vector_reproduces_polynomials(self):
        sp = TruncatedHardySpace(2, 3, 2)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(sp.total_dim) + 1j * rng.standard_normal(sp.total_dim)
        w = np.array([0.4, -0.3j])
        eta = np.array([1.0, -2.0j])
        kv = kernel_vector(sp, w, eta)
        # <f, k_w eta> = <f(w), eta> exactly for truncated polynomials
        lhs = np.vdot(kv, f)
        rhs = np.vdot(eta, point_evaluation(sp, f, w))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_kernel_vector_matches_loop(self):
        sp = TruncatedHardySpace(3, 4, 2)
        w, eta = np.array([0.4 + 0.1j, -0.3j, 0.7]), np.array([1.0, -2.0j])
        got, want = kernel_vector(sp, w, eta), oracles.kernel_vector(sp, w, eta)
        # powers are formed in a different order: allow a few rounding units
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_kernel_gram_matches_truncated_szego(self):
        sp = TruncatedHardySpace(1, 200, 1)
        z, w = 0.3, 0.45
        kz = kernel_vector(sp, [z], [1.0])
        kw = kernel_vector(sp, [w], [1.0])
        assert np.vdot(kz, kw) == pytest.approx(szego_kernel([z], [w]), abs=1e-12)

    def test_point_evaluation_oracle(self):
        sp = TruncatedHardySpace(2, 1, 1)
        f = np.zeros(sp.total_dim, dtype=complex)
        f[index_pos(sp)[(0, 0)]] = 2.0
        f[index_pos(sp)[(1, 1)]] = 3.0
        val = point_evaluation(sp, f, [0.5, 0.25])
        assert val[0] == pytest.approx(2.0 + 3.0 * 0.5 * 0.25, abs=1e-14)


class TestConstantsProjection:
    @pytest.mark.parametrize("n,d,r", [(1, 3, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1)])
    def test_inclusion_exclusion_exact(self, n, d, r):
        sp = TruncatedHardySpace(n, d, r)
        assert constants_projection_check(sp) <= 1e-12
