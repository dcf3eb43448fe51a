"""Characteristic functions, multipliers, kernel identities, Gramians,
commuting projections and the model-space split."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmodel.dilation import DegreeCapExceeded, box_factors, build_dilation
from dcmodel.matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    operator_norm,
    orthonormal_range_basis,
    subspace_distance,
)
from dcmodel.model import (
    _FRAME_MAX,
    _STOP_CHUNK,
    FrameTooLarge,
    NotProjection,
    ProjectionDriftExceedsTolerance,
    ResolventSingular,
    _embedding,
    _frame_commutator,
    _functional_model_factor,
    _model_symbol,
    axis_frames,
    box_distance,
    box_drift,
    charfn_eval,
    charfn_taylor,
    charfns_for_tuple,
    inner_boundary_check,
    model_space,
    polydisc_kernel_checks,
    taylor_tail_estimate,
    toeplitz_drift,
)
from dcmodel import hardy
from dcmodel.hardy import PointOutsidePolydisc, TruncatedHardySpace, box_rows
from dcmodel.tuples import (
    ContractionTuple,
    defect_operators,
    make_random_pure_contraction,
    make_tensor_tuple,
)

import oracles


def _moebius_coeffs(lam, m_max):
    out = [-lam]
    for m in range(1, m_max + 1):
        out.append((1 - lam ** 2) * lam ** (m - 1))
    return out


class TestCharFn:
    def test_scalar_taylor_oracle(self):
        cf = charfn_taylor(np.array([[0.5]]))
        got = [t[0, 0] for t in cf.taylor[:3]]
        assert np.allclose(got, [-0.5, 0.75, 0.375], atol=1e-13)

    def test_scalar_taylor_matches_moebius(self):
        for lam in (0.3, 0.6, 0.85):
            cf = charfn_taylor(np.array([[lam]]))
            want = _moebius_coeffs(lam, len(cf.taylor) - 1)
            got = [t[0, 0] for t in cf.taylor]
            assert np.allclose(got, want, atol=1e-12)

    def test_eval_is_moebius(self):
        lam, z = 0.5, 0.3 + 0.2j
        th = charfn_eval(np.array([[lam]]), z)[0, 0]
        assert th == pytest.approx((z - lam) / (1 - lam * z), abs=1e-13)

    def test_eval_at_own_parameter_vanishes(self):
        assert abs(charfn_eval(np.array([[0.5]]), 0.5)[0, 0]) <= 1e-14

    def test_zero_matrix_gives_z_identity(self):
        th = charfn_eval(np.zeros((3, 3)), 0.4j)
        assert np.allclose(th, 0.4j * np.eye(3), atol=1e-14)

    def test_jordan_block_is_z_squared(self):
        # interior Taylor coefficients vanish; the symbol is a monomial
        J = np.array([[0, 0], [1, 0]], dtype=complex)
        cf = charfn_taylor(J)
        got = [t[0, 0] for t in cf.taylor]
        assert np.allclose(got, [0.0, 0.0, 1.0], atol=1e-14)

    def test_horner_matches_eval(self):
        M = make_random_pure_contraction(3, 0.5, 3)
        cf = charfn_taylor(M)
        z = 0.3 - 0.4j
        direct = charfn_eval(M, z, cf.pair)
        horner = oracles.charfn_point_from_taylor(cf, z)
        assert operator_norm(direct - horner) <= 1e-10

    def test_resolvent_singular(self):
        with pytest.raises(ResolventSingular):
            charfn_eval(np.array([[0.5]]), 2.0)

    def test_stacked_eval_matches_points(self):
        M = make_random_pure_contraction(3, 0.5, 3)
        pair = charfn_taylor(M).pair
        z = np.array([0.3 - 0.4j, 0.0, -0.6j, 0.9])
        stacked = charfn_eval(M, z, pair)
        assert stacked.shape == (len(z),) + charfn_eval(M, z[0], pair).shape
        for k, zk in enumerate(z):
            assert np.array_equal(stacked[k], charfn_eval(M, zk, pair))
        assert charfn_eval(M, np.asarray(z[0]), pair).ndim == 2

    def test_stacked_eval_names_singular_point(self):
        # I - z T^H is singular at z = 2 alone
        with pytest.raises(ResolventSingular, match=r"z=\(2\+0j\)"):
            charfn_eval(np.array([[0.5]]), np.array([0.1, -0.3j, 2.0, 0.5]))

    def test_stored_norms(self):
        cf = charfn_taylor(make_random_pure_contraction(3, 0.7, 5))
        assert cf.norms == tuple(operator_norm(t) for t in cf.taylor)

    def test_tail_estimate_moebius(self):
        # sum_{m > k} (1 - lam^2) lam^(m-1) = (1 + lam) lam^k
        lam = 0.7
        cf = charfn_taylor(np.array([[lam]]))
        for k in (0, 5, 15):
            assert taylor_tail_estimate(cf, k) == pytest.approx((1 + lam) * lam ** k, rel=1e-8)

    def test_tail_estimate_decreases(self):
        cf = charfn_taylor(np.array([[0.7]]))
        assert taylor_tail_estimate(cf, 5) > taylor_tail_estimate(cf, 15) >= 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_boundary_inner(self, seed):
        M = make_random_pure_contraction(3, 0.8, seed)
        cf = charfn_taylor(M)
        assert inner_boundary_check(cf, samples=32) <= 1e-9


def _stops_at(steps):
    """A normal 3 x 3 contraction whose running factor ``||T^{H m} D B||``,
    the largest of ``|lam|^m sqrt(1 - |lam|^2)`` over its eigenvalues,
    first drops below ``rank_tol`` at Taylor step ``steps``."""
    lam = 0.5
    for _ in range(50):  # lam^(steps - 1/2) sqrt(1 - lam^2) = rank_tol
        lam = (DEFAULT_TOL.rank_tol / np.sqrt(1 - lam ** 2)) ** (1 / (steps - 0.5))
    U = np.linalg.qr(np.random.default_rng(steps).standard_normal((3, 3)) + 0j)[0]
    return (U * [lam, 0.5j * lam, -0.3 * lam]) @ U.conj().T


class TestCharFnStop:
    """The stop test from one stacked SVD per chunk of Taylor steps
    against one ``operator_norm`` per step (``oracles.charfn_taylor_loop``)."""

    @staticmethod
    def _same(got, want):
        assert len(got.taylor) == len(want.taylor)
        assert all(np.array_equal(a, b) for a, b in zip(got.taylor, want.taylor))
        assert (got.norms, got.decay_rate) == (want.norms, want.decay_rate)

    @pytest.mark.parametrize("steps", [1, _STOP_CHUNK - 1, _STOP_CHUNK, _STOP_CHUNK + 1, 2 * _STOP_CHUNK])
    def test_stop_step(self, steps):
        T = _stops_at(steps)
        want = oracles.charfn_taylor_loop(T)
        assert len(want.taylor) == steps + 1
        self._same(charfn_taylor(T), want)

    @pytest.mark.parametrize("m_max", [_STOP_CHUNK + 13, 3 * _STOP_CHUNK + 1])
    def test_cap_not_a_multiple_of_the_chunk(self, m_max):
        # a stop inside the last, partial chunk; a cap with a small tail; a stop at the cap
        for steps in (m_max - 2, m_max + 5, m_max):
            T = _stops_at(steps)
            self._same(charfn_taylor(T, m_max=m_max, cfg=ToleranceConfig(tail_tol=1e-3)),
                       oracles.charfn_taylor_loop(T, m_max=m_max, cfg=ToleranceConfig(tail_tol=1e-3)))

    def test_nilpotent_interior_zeros(self):
        # the 4 x 4 shift: theta(z) = z^4, so theta_0 .. theta_3 vanish
        J = np.diag([1.0, 1.0, 1.0], k=-1)
        got = charfn_taylor(J)
        self._same(got, oracles.charfn_taylor_loop(J))
        assert [v > 0 for v in got.norms] == [False, False, False, False, True]

    def test_cap_raises_the_same_defect(self):
        T = np.diag([0.99, 0.4])
        with pytest.raises(DegreeCapExceeded) as got:
            charfn_taylor(T, m_max=50)
        with pytest.raises(DegreeCapExceeded) as want:
            oracles.charfn_taylor_loop(T, m_max=50)
        assert got.value.achieved_defect == want.value.achieved_defect
        assert str(got.value) == str(want.value)


class TestMultipliers:
    def test_one_var_toeplitz_structure(self):
        cf = charfn_taylor(np.array([[0.5]]))
        M = oracles.one_var_toeplitz(cf.taylor, 2)
        assert np.allclose(M, [[-0.5, 0, 0], [0.75, -0.5, 0], [0.375, 0.75, -0.5]], atol=1e-13)

    def test_full_matrix_oracle_n1(self):
        cf = charfn_taylor(np.array([[0.5]]))
        sp = TruncatedHardySpace(1, 1, 1)
        mult = oracles.multiplier_matrix(cf, sp)
        assert np.allclose(mult.full_matrix(), [[-0.5, 0], [0.75, -0.5]], atol=1e-13)

    def test_full_matrix_identity_in_other_variable(self):
        T = make_tensor_tuple([[[0.5]], [[0.4]]])
        cfs = charfns_for_tuple(T)
        sp = TruncatedHardySpace(2, 2, 1)
        mult = oracles.multiplier_matrix(cfs[0], sp)
        M = mult.full_matrix()
        # entries only connect indices with equal second component
        for p, k in enumerate(oracles.indices(sp)):
            for q, l in enumerate(oracles.indices(sp)):
                if k[1] != l[1]:
                    assert M[q, p] == 0.0
        # on the scalar space the multiplier is I (x) Toeplitz in variable 0
        assert np.array_equal(oracles.one_var_factor_matrix(sp, mult.one_var, 0), M)

    def test_project_axis_matches_dense(self):
        # B need not be orthonormal or square: the Gramian applies F F^H
        # for the block-Toeplitz F of a symbol with other column counts
        rng = np.random.default_rng(9)
        for n, d, r in [(2, 2, 2), (1, 4, 2), (2, 3, 1), (3, 2, 2)]:
            sp = TruncatedHardySpace(n, d, r)
            m = (d + 1) * r
            V = rng.standard_normal((sp.total_dim, 4)) + 1j * rng.standard_normal((sp.total_dim, 4))
            t = V.reshape(sp.shape + (4,))
            for i in range(n):
                for cols in (1, m, m + 3):
                    B = rng.standard_normal((m, cols)) + 1j * rng.standard_normal((m, cols))
                    want = oracles.one_var_factor_matrix(sp, B @ B.conj().T, i) @ V
                    got = oracles._project_axis(sp, B, i, t).reshape(V.shape)
                    assert np.allclose(got, want, atol=1e-12)
                    got = oracles._project_axis(sp, B, i, t[..., 0]).reshape(-1)
                    assert np.allclose(got, want[:, 0], atol=1e-12)

    def test_apply_one_var_projections_matches_factors(self):
        sp = TruncatedHardySpace(3, 2, 2)
        rng = np.random.default_rng(10)
        bases = [np.linalg.qr(rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k)))[0]
                 for k in (1, 3, 6)]
        V = rng.standard_normal((sp.total_dim, 2)) + 1j * rng.standard_normal((sp.total_dim, 2))
        want = V
        for i, B in enumerate(bases):
            want = oracles.one_var_factor_matrix(sp, B @ B.conj().T, i) @ want
        assert np.allclose(oracles.apply_axis_projections(sp, bases, V), want, atol=1e-13)
        assert np.allclose(oracles.apply_axis_projections(sp, bases, V[:, 0]), want[:, 0], atol=1e-13)


def _dense_drift(taylor, d, layers, side, K=None) -> float:
    """``||I - A - K K^H||_F`` with ``A`` the leading block of the dense
    ``F^H F`` or ``F F^H`` (:func:`oracles.toeplitz_gram`)."""
    A = oracles.toeplitz_gram(taylor, d, layers, side)
    X = np.eye(len(A)) - A
    return float(np.linalg.norm(X if K is None else X - K @ K.conj().T))


def _symbol(rng, r_out, r_in, length):
    return [rng.standard_normal((r_out, r_in)) + 1j * rng.standard_normal((r_out, r_in)) for _ in range(length)]


class TestToeplitzGram:
    """The walked drift ``||I - A - K K^H||_F`` of the leading blocks ``A``
    of ``F^H F`` and ``F F^H`` against the dense products of the
    one-block-at-a-time Toeplitz matrix, with and without ``K``."""

    @pytest.mark.parametrize("r_out,r_in", [(1, 1), (3, 2), (2, 4)])
    @pytest.mark.parametrize("length", [1, 4, 7, 12])  # d + 1 = 7
    def test_matches_dense(self, r_out, r_in, length):
        rng = np.random.default_rng(100 * r_out + 10 * r_in + length)
        taylor = _symbol(rng, r_out, r_in, length)
        d = 6
        for side, r in (("in", r_in), ("out", r_out)):
            for layers in (1, 3, d + 1):
                K = rng.standard_normal((layers * r, 2)) + 1j * rng.standard_normal((layers * r, 2))
                for k in (None, K):
                    want = _dense_drift(taylor, d, layers, side, k)
                    assert toeplitz_drift(taylor, d, layers, side, k) == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("r_out,r_in", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("d", [64, 200])
    def test_vanishing_at_zero(self, r_out, r_in, d):
        # theta_0 = 0, as for an inner function that vanishes at the origin;
        # at these sizes the walk takes many steps
        rng = np.random.default_rng(d + 10 * r_out)
        taylor = [np.zeros((r_out, r_in))] + _symbol(rng, r_out, r_in, d)
        for side in ("in", "out"):
            for layers in (d // 2 + 1, d + 1):
                want = _dense_drift(taylor, d, layers, side)
                assert toeplitz_drift(taylor, d, layers, side) == pytest.approx(want, rel=1e-13)

    def test_degree_zero(self):
        theta = np.array([[0.5, 1j]])
        I1, I2 = np.eye(1), np.eye(2)
        assert toeplitz_drift([theta], 0, 1, "out") == pytest.approx(np.linalg.norm(I1 - theta @ theta.conj().T))
        assert toeplitz_drift([theta], 0, 1, "in") == pytest.approx(np.linalg.norm(I2 - theta.conj().T @ theta))

    def test_rejects_bad_arguments(self):
        taylor = [np.eye(2)]
        with pytest.raises(ValueError):
            toeplitz_drift(taylor, 3, 5, "out")
        with pytest.raises(ValueError):
            toeplitz_drift(taylor, 3, 0, "in")
        with pytest.raises(ValueError):
            toeplitz_drift(taylor, 3, 2, "left")

    @pytest.mark.parametrize("length", [3, 9])  # d + 1 = 6: a shorter and a longer symbol
    @pytest.mark.parametrize("side", ["in", "out"])
    def test_walk(self, side, length):
        # the column walk against the dense product on one layer and on all
        # of them, with no K and with K of no column, of one and of more
        # columns than a layer has rows
        rng = np.random.default_rng(length)
        d = 5
        taylor = _symbol(rng, 3, 2, length)
        r = 2 if side == "in" else 3
        for layers in (1, d + 1):
            Ks = [rng.standard_normal((layers * r, k)) + 1j * rng.standard_normal((layers * r, k)) for k in (0, 1, 5)]
            for k in [None] + Ks:
                want = _dense_drift(taylor, d, layers, side, k)
                assert toeplitz_drift(taylor, d, layers, side, k) == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("block_bytes", [1 << 30, 1, 1 << 13])
    @pytest.mark.parametrize("r_out,r_in", [(2, 2), (3, 1), (1, 4)])
    def test_chunks(self, monkeypatch, block_bytes, r_out, r_in):
        # the walk reads no row-block size: any _BLOCK_BYTES gives the dense
        # value
        monkeypatch.setattr(hardy, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(7 * r_out + r_in)
        d = 12
        taylor = _symbol(rng, r_out, r_in, 9)
        for side, r in (("in", r_in), ("out", r_out)):
            for layers in (1, 5, d + 1):
                K = rng.standard_normal((layers * r, 3)) + 1j * rng.standard_normal((layers * r, 3))
                for k in (None, K):
                    want = _dense_drift(taylor, d, layers, side, k)
                    assert toeplitz_drift(taylor, d, layers, side, k) == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("block_bytes", [1 << 30, 1])
    def test_zero_and_nilpotent_symbols(self, monkeypatch, block_bytes):
        # the zero symbol (A = 0), a zero-width one, and a series that stops
        # long before d (a nilpotent operator's), at any row-block size
        monkeypatch.setattr(hardy, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(3)
        d = 9
        K = rng.standard_normal((4 * (d + 1), 2)) + 1j * rng.standard_normal((4 * (d + 1), 2))
        for side in ("in", "out"):
            assert toeplitz_drift([np.zeros((4, 4))], d, d + 1, side) == pytest.approx(np.sqrt(4 * (d + 1)))
            want = np.linalg.norm(np.eye(len(K)) - K @ K.conj().T)
            assert toeplitz_drift([np.zeros((4, 4))] * 3, d, d + 1, side, K) == pytest.approx(want, rel=1e-13)
        assert toeplitz_drift([np.zeros((4, 0))], d, d + 1, "out", K) == pytest.approx(want, rel=1e-13)
        assert box_drift(K, (), d) == pytest.approx(want, rel=1e-13)
        jordan = [np.zeros((4, 4)), np.eye(4, k=1), np.eye(4, k=2)]
        for side in ("in", "out"):
            for layers in (1, d + 1):
                want = _dense_drift(jordan, d, layers, side, K[:4 * layers])
                assert toeplitz_drift(jordan, d, layers, side, K[:4 * layers]) == pytest.approx(want, rel=1e-13)

    def test_allocates_a_chunk_not_the_block(self):
        # d = 256, r = 4: the 129-layer block is 516-square (4.3 MB); the
        # walk holds one block column and the stacked Z, and allocates less
        # than an eighth of it, with K and on both sides
        rng = np.random.default_rng(5)
        taylor = _symbol(rng, 4, 4, 257)
        K = rng.standard_normal((516, 4)) + 1j * rng.standard_normal((516, 4))
        bound = 516 ** 2 * 16 // 8
        assert oracles.traced_peak(lambda: toeplitz_drift(taylor, 256, 129, "out", K)) < bound
        assert oracles.traced_peak(lambda: toeplitz_drift(taylor, 256, 129, "in")) < bound
        assert oracles.traced_peak(lambda: box_drift(K, taylor, 256)) < bound


class TestLoopOracles:
    """Block-Toeplitz symbols, the one-variable factors ``F F^H``, the
    model fibers and the dilation matrix against their one-block-at-a-time,
    kron and dense-eigensolver versions."""

    CASES = {
        # the Taylor series is longer than d + 1
        "one-variable": (lambda: [make_random_pure_contraction(3, 0.5, 9)], 10),
        "tensor-2x2": (lambda: [make_random_pure_contraction(2, 0.4, 11),
                                make_random_pure_contraction(2, 0.4, 12)], 6),
        # E is 2 x 1 and 3 x 1; the nilpotent symbols stop before degree d
        "jordan-3x2": (lambda: [np.eye(3, k=1), np.eye(2, k=1)], 8),
        "three-variables": (lambda: [make_random_pure_contraction(2, 0.3, 7),
                                     [[0.2]], [[0.15]]], 4),
    }

    @pytest.fixture(params=sorted(CASES))
    def case(self, request):
        factors, d = self.CASES[request.param]
        T = make_tensor_tuple(factors())
        L = build_dilation(T, d=d, adaptive=False)
        return request.param, T, L, charfns_for_tuple(T, L.defects)

    def test_toeplitz(self, case):
        # box_drift against the dense Toeplitz matrix of the model symbol on
        # the box rows of the model fiber, and with no symbol (A = 0)
        _, _, L, cfs = case
        d = L.degree
        ms = model_space(L.tuple, L, cfs)
        rows = len(ms.box_fibers[0])
        for i, (cf, K) in enumerate(zip(cfs, ms.box_fibers)):
            blocks = _model_symbol(L.defects, cf, i, d)
            F = oracles.one_var_toeplitz(blocks, d)[:rows]
            X = np.eye(rows) - K @ K.conj().T
            assert box_drift(K, blocks, d) == ms.margin_drifts[i]
            assert box_drift(K, blocks, d) == pytest.approx(np.linalg.norm(X - F @ F.conj().T), abs=1e-14)
            assert box_drift(K, (), d) == pytest.approx(np.linalg.norm(X), rel=1e-13)

    def test_raw_factors(self, case):
        label, _, L, cfs = case
        if label == "jordan-3x2":
            assert [_embedding(L.defects, i).shape for i in range(2)] == [(2, 1), (3, 1)]
            assert all(len(cf.taylor) < L.degree + 1 for cf in cfs)
        want = oracles.one_var_raw_factors(L.defects, cfs, L.degree)
        fibers = model_space(L.tuple, L, cfs).fibers
        for i, (cf, A, K) in enumerate(zip(cfs, want, fibers)):
            w, V = oracles.toeplitz_gram_eigh(_model_symbol(L.defects, cf, i, L.degree),
                                              L.degree)
            assert np.max(np.abs((V * w) @ V.conj().T - A)) <= 1e-14
            # the functional-model split I - F F^H = G G^H, and the fiber
            # from the thin SVD of G against the dense eigensolve of F F^H
            G = _functional_model_factor(L, i)
            assert np.max(np.abs(np.eye(len(A)) - G @ G.conj().T - A)) <= 1e-14
            assert K.shape[1] == np.sum(w < 0.5)
            assert subspace_distance(K, V[:, w < 0.5]) <= 1e-13

    def test_dilation_matrix(self, case):
        _, T, L, _ = case
        want = oracles.dilation_matrix(L)
        # with square frames the frame coordinates are the rows themselves and
        # W_perp is zero; powers are multiplied in another order: allow a few
        # rounding units
        w, R = box_factors(L, [np.eye(L.degree + 1)] * T.n)
        assert R is None
        assert np.max(np.abs(w.reshape(-1, T.dim) - want)) <= 1e-15


class TestKernelIdentities:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_one_var_kernel_identity(self, seed):
        T = ContractionTuple((make_random_pure_contraction(3, 0.7, seed),))
        rng = np.random.default_rng(seed)
        pairs = [
            (0.7 * rng.random(1) * np.exp(2j * np.pi * rng.random(1)),
             0.7 * rng.random(1) * np.exp(2j * np.pi * rng.random(1)))
            for _ in range(10)
        ]
        assert polydisc_kernel_checks(T, defect_operators(T), pairs)[0] <= 1e-10

    def test_defect_invariance_and_product_identity(self):
        T = make_tensor_tuple([
            make_random_pure_contraction(2, 0.5, 1),
            make_random_pure_contraction(3, 0.5, 2),
        ])
        rng = np.random.default_rng(3)
        pairs = [
            (0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)),
             0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)))
            for _ in range(15)
        ]
        _, invariance, product, _ = polydisc_kernel_checks(T, defect_operators(T), pairs)
        assert invariance <= 1e-10
        assert product <= 1e-10


@pytest.fixture(scope="module")
def tensor_model():
    T = make_tensor_tuple([
        make_random_pure_contraction(2, 0.4, 11),
        make_random_pure_contraction(2, 0.4, 12),
    ])
    L = build_dilation(T, d=8, adaptive=True)
    cfs = charfns_for_tuple(T, L.defects)
    return T, L, cfs


def test_checks_reject_points_outside_polydisc(tensor_model):
    T, L, cfs = tensor_model
    pairs = [(np.array([0.2, 1.0]), np.array([0.1, 0.3j]))]
    with pytest.raises(PointOutsidePolydisc):
        polydisc_kernel_checks(T, L.defects, pairs)
    T1 = ContractionTuple(T.matrices[:1])
    with pytest.raises(PointOutsidePolydisc):
        polydisc_kernel_checks(T1, defect_operators(T1), [(np.array([0.2]), np.array([-1.0]))])


def test_empty_sample_lists_give_zero(tensor_model):
    T, L, cfs = tensor_model
    assert inner_boundary_check(cfs[0], samples=0) == 0.0
    assert polydisc_kernel_checks(T, L.defects, []) == (0.0, 0.0, 0.0, 0.0)
    assert [oracles.kernel_identity_loop(Ti, [], pair)
            for Ti, pair in zip(T.matrices, L.defects.per_op)] == [0.0, 0.0]


@pytest.mark.parametrize("factors", [
    lambda: [make_random_pure_contraction(2, 0.5, 1), make_random_pure_contraction(3, 0.5, 2)],
    lambda: [np.eye(3, k=1), np.eye(2, k=1)],
], ids=["tensor", "jordan"])
def test_sample_checks_match_point_loops(factors):
    # the stacked checks run the per-point arithmetic, so they agree bit for bit
    T = make_tensor_tuple(factors())
    defects = defect_operators(T)
    rng = np.random.default_rng(6)

    def point():
        return 0.7 * rng.random(T.n) * np.exp(2j * np.pi * rng.random(T.n))

    pairs = [(point(), point()) for _ in range(12)]
    for cf in charfns_for_tuple(T, defects):
        assert inner_boundary_check(cf, 48) == oracles.inner_boundary_loop(cf, 48)
    one_variable, *rest = polydisc_kernel_checks(T, defects, pairs)
    per_variable = []
    for i, (Ti, pair) in enumerate(zip(T.matrices, defects.per_op)):
        # the pair of a variable depends on its operator alone
        Ti_alone = ContractionTuple((Ti,))
        alone = polydisc_kernel_checks(Ti_alone, defect_operators(Ti_alone),
                                       [(z[i:i + 1], w[i:i + 1]) for z, w in pairs])[0]
        per_variable.append(oracles.kernel_identity_loop(Ti, [(z[i], w[i]) for z, w in pairs], pair))
        assert alone == per_variable[-1]
    assert one_variable == max(per_variable)
    assert tuple(rest) == oracles.polydisc_kernel_loop(T, defects, pairs)


def test_each_kernel_residual_reads_its_own_identity(tensor_model):
    # perturb one ingredient at a time: each breaks some identities and not
    # others, so a residual returned in the wrong place shows
    T, L, cfs = tensor_model
    D = L.defects
    rng = np.random.default_rng(5)
    pairs = [(0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)),
              0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)))
             for _ in range(5)]
    B = D.big_defect_basis.copy()
    B[:, 0] = B[:, 0] + 0.5 * np.roll(B[:, 0], 1)
    B[:, 0] /= np.linalg.norm(B[:, 0])
    star = dataclasses.replace(D.per_op[0], defect_star=1.2 * D.per_op[0].defect_star)
    cases = [
        (D, ()),
        # enters the Gramian's left side only
        (dataclasses.replace(D, big_defect=1.5 * D.big_defect), (3,)),
        # rescales the resolvent kernels and changes Theta_0, which breaks
        # the one-variable factor, but neither leaks out of the joint defect space
        (dataclasses.replace(D, per_op=(star,) + tuple(D.per_op[1:])), (0, 2, 3)),
        # the identities hold on the whole space here; only P = B B^H breaks
        (dataclasses.replace(D, big_defect_basis=B), (1,)),
    ]
    for defects, moved in cases:
        res = polydisc_kernel_checks(T, defects, pairs)
        for k, value in enumerate(res):
            if k in moved:
                assert value > 0.05, (moved, res)
            else:
                assert value <= 1e-12, (moved, res)


class TestGramian:
    def test_kernel_mode(self, tensor_model):
        T, L, cfs = tensor_model
        rng = np.random.default_rng(4)
        pairs = [
            (0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)),
             0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)))
            for _ in range(15)
        ]
        assert polydisc_kernel_checks(T, L.defects, pairs)[3] <= 1e-10

    def test_operator_mode(self, tensor_model):
        # model_space measures the truncated operator form
        T, L, cfs = tensor_model
        assert model_space(T, L, cfs).gramian_residual <= 1e-8

    @pytest.mark.parametrize("factors,d,margin", [
        (lambda: [make_random_pure_contraction(2, 0.5, 3), [[0.4]]], 5, 2),
        (lambda: [make_random_pure_contraction(2, 0.6, 4),
                  make_random_pure_contraction(2, 0.6, 5)], 4, 1),
        (lambda: [make_random_pure_contraction(2, 0.3, 7), [[0.2]], [[0.15]]], 3, 1),
    ])
    def test_box_operator_matches_dense(self, factors, d, margin):
        # the Gramian on the box of the given margin against the dense masked
        # N x N operator P (M M^H - prod(I - F_i F_i^H)) P, every F_i built in
        # full.  For the dilation matrix L the operator vanishes on the box,
        # so M is L times a perturbed identity.  The split part
        # ||P (M M^H - prod I (x) K_i K_i^H (x) I) P|| is exact, read from the
        # box rows of M through a strided view, and adding the Frobenius
        # margin drifts bounds the operator from above (telescoped)
        T = make_tensor_tuple(factors())
        L = build_dilation(T, d=d, adaptive=False)
        cfs = charfns_for_tuple(T, L.defects)
        fibers = model_space(T, L, cfs).fibers
        sp, N = L.space, L.space.total_dim
        rng = np.random.default_rng(d)
        M = oracles.dilation_matrix(L) @ (np.eye(T.dim) + 0.05 * (rng.standard_normal((T.dim, T.dim))
                                                + 1j * rng.standard_normal((T.dim, T.dim))))
        box = sp.margin_box(margin)
        rows = (box.degree + 1) * sp.coeff_dim
        sel = np.nonzero(oracles.margin_mask(sp, margin))[0]
        MMh = M @ M.conj().T
        prod, drifts = np.eye(N), 0.0
        for i, (cf, K) in enumerate(zip(cfs, fibers)):
            F = oracles.one_var_toeplitz(_model_symbol(L.defects, cf, i, d), d)
            FFh = F @ F.conj().T
            prod = (np.eye(N) - oracles.one_var_factor_matrix(sp, FFh, i)) @ prod
            drifts += np.linalg.norm(np.eye(rows) - K[:rows] @ K[:rows].conj().T - FFh[:rows, :rows])
        split = (MMh - oracles.dense_axis_projections(sp, fibers))[np.ix_(sel, sel)]
        Mb = M.reshape(sp.shape + (T.dim,))[(slice(box.degree + 1),) * T.n]
        exact = box_distance(box, axis_frames(box, [K[:rows] for K in fibers]), Mb)
        assert exact == pytest.approx(operator_norm(split), rel=1e-10)
        want = operator_norm((MMh - prod)[np.ix_(sel, sel)])
        assert want > 0.01
        assert exact + drifts >= want * (1 - 1e-8)


class TestProjections:
    def test_clip_exact_projection(self):
        P = np.diag([1.0, 1.0, 0.0])
        Q, drift = oracles.clip_to_projection(P)
        assert drift <= 1e-14
        assert np.allclose(P, Q, atol=1e-14)

    def test_clip_rounds_near_projection(self):
        Q, drift = oracles.clip_to_projection(np.diag([0.999, 0.001]))
        assert np.allclose(Q, np.diag([1.0, 0.0]), atol=1e-13)
        assert drift == pytest.approx(0.001, abs=1e-12)

    @pytest.mark.parametrize("eigs", [[1.0 - 1e-3, 1.0 + 2e-4, 1e-3, -5e-4, 0.0, 1.0],
                                      [1.0, 0.7, 0.3, 2e-9, 1.0 - 3e-9, 0.0]])
    def test_clip_drift_from_eigenvalues(self, eigs):
        rng = np.random.default_rng(23)
        U = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        A = U @ np.diag(eigs) @ U.conj().T
        A = 0.5 * (A + A.conj().T)
        P, drift = oracles.clip_to_projection(A)
        assert operator_norm(P @ P - P) <= 1e-14
        assert drift == pytest.approx(operator_norm(P - A), abs=1e-14)

    def test_clip_drift_bounds_non_hermitian(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            A = np.diag([1.0, 1.0, 0.0, 0.0]) + 1e-3 * (rng.standard_normal((4, 4))
                                                       + 1j * rng.standard_normal((4, 4)))
            P, drift = oracles.clip_to_projection(A)
            assert drift >= operator_norm(P - A)

    @pytest.mark.parametrize("n,d,r,margin", [(2, 2, 2, 0), (2, 3, 2, 1), (3, 2, 2, 1)])
    def test_fiber_commutator_matches_dense(self, n, d, r, margin):
        # random one-variable fibers sharing a coefficient axis of size
        # r > 1: the projections do not commute
        sp = TruncatedHardySpace(n, d, r)
        rng = np.random.default_rng(n + d + r)
        m = (d + 1) * r
        fibers = [np.linalg.qr(rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))[0]
                  for _ in range(n)]
        P = [oracles.one_var_factor_matrix(sp, np.eye(m) - K @ K.conj().T, i)
             for i, K in enumerate(fibers)]
        sel = np.nonzero(oracles.margin_mask(sp, margin))[0]
        box = sp.margin_box(margin)
        frames = axis_frames(box, [K[:(box.degree + 1) * r] for K in fibers])
        for a in range(n):
            for b in range(a + 1, n):
                want = operator_norm((P[a] @ P[b] - P[b] @ P[a])[np.ix_(sel, sel)])
                got = _frame_commutator(frames, a, b)
                assert want > 0.05
                assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n,d,r,margin", [(2, 3, 2, 1), (3, 2, 2, 1)])
    def test_box_restriction_matches_dense(self, n, d, r, margin):
        # P (prod I (x) K_i K_i^H (x) I - Q Q^H) P, the form of the subspace
        # split and of the recovered-sum distance, from thin bases cut to
        # their box rows against the dense masked N x N operator.  The
        # fibers K_i = U_i (x) w share one coefficient direction w, so their
        # projections commute and the operator is Hermitian
        sp = TruncatedHardySpace(n, d, r)
        rng = np.random.default_rng(10 * n + d)
        w = rng.standard_normal((r, 1)) + 1j * rng.standard_normal((r, 1))
        w /= np.linalg.norm(w)
        fibers = [np.kron(np.linalg.qr(rng.standard_normal((d + 1, 2))
                                       + 1j * rng.standard_normal((d + 1, 2)))[0], w)
                  for _ in range(n)]
        Q = np.linalg.qr(rng.standard_normal((sp.total_dim, 4))
                         + 1j * rng.standard_normal((sp.total_dim, 4)))[0]
        dense = -Q @ Q.conj().T
        prod = np.eye(sp.total_dim)
        for i, K in enumerate(fibers):
            prod = oracles.one_var_factor_matrix(sp, K @ K.conj().T, i) @ prod
        sel = np.nonzero(oracles.margin_mask(sp, margin))[0]
        X = (prod + dense)[np.ix_(sel, sel)]

        box = sp.margin_box(margin)
        frames = axis_frames(box, [K[:(box.degree + 1) * r] for K in fibers])
        want = operator_norm(X)
        assert want > 0.1
        got = box_distance(box, frames, box_rows(sp, Q, box))
        assert got == pytest.approx(want, rel=1e-10)
        # a tensor view of the box rows reads the same
        view = Q.reshape(sp.shape + (4,))[(slice(box.degree + 1),) * n]
        assert box_distance(box, frames, view) == got

    def test_sum_projection_oracle(self):
        # simultaneously diagonal 0/1 patterns conjugated by a random unitary
        rng = np.random.default_rng(21)
        dim, n = 8, 3
        U = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))[0]
        pats = (rng.random((n, dim)) < 0.5).astype(float)
        projs = [U @ np.diag(p) @ U.conj().T for p in pats]
        got = oracles.sum_projection(projs)
        union = np.concatenate([U[:, p > 0.5] for p in pats], axis=1)
        B = orthonormal_range_basis(union)
        assert operator_norm(got - B @ B.conj().T) <= 1e-12

    def test_sum_projection_rejects_non_idempotent(self):
        with pytest.raises(NotProjection):
            oracles.sum_projection([np.diag([0.5, 0.5])])

    def test_sum_projection_rejects_noncommuting(self):
        P1 = np.diag([1.0, 0.0])
        v = np.array([[1.0], [1.0]]) / np.sqrt(2)
        P2 = v @ v.conj().T
        with pytest.raises(oracles.NotCommuting):
            oracles.sum_projection([P1, P2])


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))[0]


class TestBoxNorms:
    """The exact box norms in per-axis frames against dense ``N x N``
    operators: ``box_distance`` for ``prod_i P_i - W W^H`` and the
    commutators ``[P_a, P_b]``, ``P_i = I (x) B_i B_i^H (x) I``."""

    # (n, d, r, margin, columns): the first three frames shrink (r c < b + 1),
    # the last three do not
    CASES = [(1, 6, 2, 2, 1), (2, 8, 1, 2, 2), (3, 5, 1, 1, 2),
             (1, 3, 2, 0, 3), (2, 2, 2, 0, 3), (3, 2, 2, 0, 2)]

    @staticmethod
    def _fibers(rng, sp, cols, deficient):
        m = (sp.degree + 1) * sp.coeff_dim
        fibers = [_orthonormal(rng, m, cols) for _ in range(sp.n)]
        if deficient:
            # a repeated column, and one that vanishes on the box rows
            top = np.zeros((m, 1), dtype=complex)
            top[-1] = 1.0
            fibers = [np.hstack([K, K[:, :1], top]) for K in fibers]
        return fibers

    @pytest.mark.parametrize("deficient", [False, True], ids=["full-rank", "rank-deficient"])
    @pytest.mark.parametrize("n,d,r,margin,cols", CASES)
    def test_exact_against_dense(self, n, d, r, margin, cols, deficient):
        rng = np.random.default_rng(100 * n + 10 * d + r)
        sp = TruncatedHardySpace(n, d, r)
        box = sp.margin_box(margin)
        rows = (box.degree + 1) * r
        bases = [K[:rows] for K in self._fibers(rng, sp, cols, deficient)]
        frames = axis_frames(box, bases)
        assert [U.shape[1] for U, _, _ in frames] == [min(box.degree + 1, r * B.shape[1]) for B in bases]
        prod = oracles.dense_axis_projections(box, bases)
        # W random, and W near the range of the product (a small residual)
        near = np.linalg.eigh(prod @ prod.conj().T)[1][:, -3:]
        for W in (box_rows(sp, _orthonormal(rng, sp.total_dim, 3), box),
                  near + 1e-6 * _orthonormal(rng, box.total_dim, 3)):
            want = operator_norm(prod - W @ W.conj().T)
            assert box_distance(box, frames, W) == pytest.approx(want, rel=1e-10, abs=1e-14)
        for a in range(n):
            for b in range(a + 1, n):
                Pa = oracles.dense_axis_projections(box, [B if i == a else np.eye(rows) for i, B in enumerate(bases)])
                Pb = oracles.dense_axis_projections(box, [B if i == b else np.eye(rows) for i, B in enumerate(bases)])
                want = operator_norm(Pa @ Pb - Pb @ Pa)
                assert (want > 0.05) == (r > 1)  # with r = 1 the axes share nothing
                assert _frame_commutator(frames, a, b) == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_non_hermitian_split_operator(self):
        # q q^H - prod(I (x) K_i K_i^H (x) I), the form of the subspace split,
        # with fibers sharing a coefficient axis: the projections do not
        # commute, so the operator is not Hermitian (a Lanczos estimate that
        # assumed it was read 1.0449 against a norm of 1.0845)
        rng = np.random.default_rng(0)
        sp = TruncatedHardySpace(2, 2, 2)
        fibers = [_orthonormal(rng, 3 * 2, 3) for _ in range(2)]
        q = _orthonormal(rng, sp.total_dim, 5)
        X = q @ q.conj().T - oracles.dense_axis_projections(sp, fibers)
        assert operator_norm(X - X.conj().T) > 0.1
        got = box_distance(sp, axis_frames(sp, fibers), q)
        assert got >= operator_norm(X) * (1 - 1e-8)
        assert got == pytest.approx(operator_norm(X), rel=1e-10)

    def test_tiny_operator_is_bounded(self):
        # the constants e_0 (x) e_0 against W = e_0 (x) e_0 + 1e-12 u, u a
        # unit vector orthogonal to it: a box operator of norm about 1e-12 on
        # 961 rows, formed without rounding in the dense reference (a single
        # random probe read about 1e-12 / sqrt(N) of such an operator)
        rng = np.random.default_rng(0)
        sp = TruncatedHardySpace(2, 30, 1)
        e0 = np.zeros((31, 1), dtype=complex)
        e0[0] = 1.0
        u = rng.standard_normal(sp.total_dim) + 1j * rng.standard_normal(sp.total_dim)
        u[0] = 0.0
        W = (1e-12 * u / np.linalg.norm(u))[:, None]
        W[0] = 1.0
        want = operator_norm(oracles.dense_axis_projections(sp, [e0, e0]) - W @ W.conj().T)
        assert want == pytest.approx(1e-12, rel=1e-6)
        got = box_distance(sp, axis_frames(sp, [e0, e0]), W)
        assert got >= want * (1 - 1e-8)

    def test_frame_limit(self, monkeypatch):
        # above _FRAME_MAX rows a box norm raises, naming its size, and
        # returns no estimate
        import dcmodel.model as model_mod

        sp = TruncatedHardySpace(2, 3, 2)
        rng = np.random.default_rng(1)
        frames = axis_frames(sp, [_orthonormal(rng, 8, 2) for _ in range(2)])
        W = _orthonormal(rng, sp.total_dim, 2)
        assert _FRAME_MAX >= 1024
        monkeypatch.setattr(model_mod, "_FRAME_MAX", 7)
        with pytest.raises(FrameTooLarge, match="m = 8 "):  # k_0 s_1 = 2 x 4
            box_distance(sp, frames, W)
        with pytest.raises(FrameTooLarge, match="m = 32 "):  # s_0 s_1 r = 4 x 4 x 2
            _frame_commutator(frames, 0, 1)
        monkeypatch.setattr(model_mod, "_FRAME_MAX", 8)
        assert box_distance(sp, frames, W) > 0.0


class TestModelSpace:
    def test_residuals_small(self, tensor_model):
        T, L, cfs = tensor_model
        ms = model_space(T, L, cfs)
        assert max(ms.margin_drifts) <= 1e-6
        assert max(ms.commutator_residuals.values(), default=0.0) <= 1e-8
        assert ms.s_residual <= 1e-8

    def test_margin_drift_matches_dense(self):
        # || (P_i - A_i) || on the one-variable layers k_i <= d - margin; at
        # d = 6 the drift is truncation-sized, so it grows with each layer
        T = make_tensor_tuple([make_random_pure_contraction(2, 0.6, 11),
                               make_random_pure_contraction(2, 0.6, 12)])
        L = build_dilation(T, d=6, adaptive=False)
        cfs = charfns_for_tuple(T, L.defects)
        ms = model_space(T, L, cfs)
        assert min(ms.margin_drifts) > 1e-6
        d, r = L.degree, L.space.coeff_dim
        rows = np.repeat(np.arange(d + 1) <= ms.box.degree, r)
        raw = oracles.one_var_raw_factors(L.defects, cfs, d)
        for K, A, md in zip(ms.fibers, raw, ms.margin_drifts):
            P = np.eye(A.shape[0]) - K @ K.conj().T
            X = (P - A)[np.ix_(rows, rows)]
            # the Frobenius norm, an upper bound on the spectral one
            assert md == pytest.approx(np.linalg.norm(X), rel=1e-9)
            assert md >= operator_norm(X) * (1 - 1e-8)

    @pytest.mark.parametrize("radius,d", [(0.4, 8), (0.6, 6)])
    def test_fibers_match_dense_clip(self, radius, d):
        # the fiber from the thin SVD of the functional-model factor against
        # the dense clip of the kron-assembled factor K^H M M^H K
        T = make_tensor_tuple([make_random_pure_contraction(2, radius, 11),
                               make_random_pure_contraction(2, radius, 12)])
        L = build_dilation(T, d=d, adaptive=False)
        cfs = charfns_for_tuple(T, L.defects)
        ms = model_space(T, L, cfs)
        for K, A in zip(ms.fibers, oracles.one_var_raw_factors(L.defects, cfs, d)):
            P, _ = oracles.clip_to_projection(A)
            assert operator_norm(np.eye(len(K)) - K @ K.conj().T - P) <= 1e-13

    def test_conjugated_symbol_fails_drift(self, monkeypatch):
        # the margin drift and the operator-form Gramian bound both read the
        # symbol F, the fibers come from G: a symbol with conjugated Taylor
        # blocks (a wrong F with the right fibers) must fail the drift and,
        # once the drift bound is lifted, move the Gramian off rounding level
        import dcmodel.model as model_mod

        T = make_tensor_tuple([make_random_pure_contraction(2, 0.5, 11),
                               make_random_pure_contraction(2, 0.5, 12)])
        L = build_dilation(T, d=8, adaptive=True)
        cfs = charfns_for_tuple(T, L.defects)
        ms = model_space(T, L, cfs)
        assert max(ms.margin_drifts) <= 1e-6
        assert ms.gramian_residual <= 1e-12
        symbol = model_mod._model_symbol
        monkeypatch.setattr(model_mod, "_model_symbol",
                            lambda *args: [theta.conj() for theta in symbol(*args)])
        with pytest.raises(ProjectionDriftExceedsTolerance):
            model_space(T, L, cfs)
        ms = model_space(T, L, cfs, ToleranceConfig(tail_tol=10.0))
        assert min(ms.margin_drifts) > 1e-3
        assert ms.gramian_residual > 1e-3

    def test_zero_tuple_exact(self):
        T = make_tensor_tuple([np.zeros((1, 1)), np.zeros((1, 1))])
        L = build_dilation(T, d=4, adaptive=False)
        cfs = charfns_for_tuple(T, L.defects)
        ms = model_space(T, L, cfs)
        assert max(ms.margin_drifts) <= 1e-13
        assert ms.s_residual <= 1e-13
