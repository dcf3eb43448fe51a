"""Characteristic functions, multipliers, kernel identities, Gramians,
commuting projections and the model-space split."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmodel.dilation import build_dilation
from dcmodel.matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    operator_norm,
    orthonormal_range_basis,
    subspace_distance,
)
from dcmodel.model import (
    NotProjection,
    ProjectionDriftExceedsTolerance,
    ResolventSingular,
    _embedding,
    _fiber_commutator,
    _functional_model_factor,
    _gramian_box_operator,
    _model_symbol,
    _opnorm_hermitian,
    _project_axis,
    apply_axis_projections,
    charfn_eval,
    charfn_taylor,
    charfns_for_tuple,
    inner_boundary_check,
    kernel_identity_check,
    model_space,
    one_var_toeplitz,
    polydisc_kernel_checks,
    taylor_tail_estimate,
    toeplitz_gram,
)
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


class TestMultipliers:
    def test_one_var_toeplitz_structure(self):
        cf = charfn_taylor(np.array([[0.5]]))
        M = one_var_toeplitz(cf.taylor, 2)
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
                    got = _project_axis(sp, B, i, t).reshape(V.shape)
                    assert np.allclose(got, want, atol=1e-12)
                    got = _project_axis(sp, B, i, t[..., 0]).reshape(-1)
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
        assert np.allclose(apply_axis_projections(sp, bases, V), want, atol=1e-13)
        assert np.allclose(apply_axis_projections(sp, bases, V[:, 0]), want[:, 0], atol=1e-13)


class TestToeplitzGram:
    """Leading blocks of ``F^H F`` and ``F F^H`` from lag sums against the
    dense products of the one-block-at-a-time Toeplitz matrix."""

    @pytest.mark.parametrize("r_out,r_in", [(1, 1), (3, 2), (2, 4)])
    @pytest.mark.parametrize("length", [1, 4, 7, 12])  # d + 1 = 7
    def test_matches_dense(self, r_out, r_in, length):
        rng = np.random.default_rng(100 * r_out + 10 * r_in + length)
        taylor = [rng.standard_normal((r_out, r_in)) + 1j * rng.standard_normal((r_out, r_in))
                  for _ in range(length)]
        d = 6
        F = oracles.one_var_toeplitz(taylor[:d + 1], d)
        for side, dense, r in (("in", F.conj().T @ F, r_in), ("out", F @ F.conj().T, r_out)):
            for layers in (1, 3, d + 1):
                got = toeplitz_gram(taylor, d, layers, side)
                assert got.shape == (layers * r, layers * r)
                assert np.array_equal(got, got.conj().T)
                assert np.max(np.abs(got - dense[:layers * r, :layers * r])) <= 1e-13

    def test_degree_zero(self):
        theta = np.array([[0.5, 1j]])
        assert np.allclose(toeplitz_gram([theta], 0, 1, "out"), theta @ theta.conj().T)
        assert np.allclose(toeplitz_gram([theta], 0, 1, "in"), theta.conj().T @ theta)

    def test_rejects_bad_arguments(self):
        taylor = [np.eye(2)]
        with pytest.raises(ValueError):
            toeplitz_gram(taylor, 3, 5, "out")
        with pytest.raises(ValueError):
            toeplitz_gram(taylor, 3, 0, "in")
        with pytest.raises(ValueError):
            toeplitz_gram(taylor, 3, 2, "left")


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
        _, _, L, cfs = case
        for cf in cfs:
            for d in (0, L.degree):
                assert np.array_equal(one_var_toeplitz(cf.taylor, d),
                                      oracles.one_var_toeplitz(cf.taylor, d))

    def test_raw_factors(self, case):
        label, _, L, cfs = case
        if label == "jordan-3x2":
            assert [_embedding(L.defects, i, DEFAULT_TOL).shape for i in range(2)] == [(2, 1), (3, 1)]
            assert all(len(cf.taylor) < L.degree + 1 for cf in cfs)
        want = oracles.one_var_raw_factors(L.defects, cfs, L.degree)
        fibers = model_space(L.tuple, L, cfs).fibers
        for i, (cf, A, K) in enumerate(zip(cfs, want, fibers)):
            w, V = oracles.toeplitz_gram_eigh(_model_symbol(L.defects, cf, i, L.degree, DEFAULT_TOL),
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
        want = oracles.dilation_matrix(T, L.defects, L.degree)
        # powers are multiplied in another order: allow a few rounding units
        assert np.max(np.abs(L.matrix - want)) <= 1e-15


class TestKernelIdentities:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_one_var_kernel_identity(self, seed):
        M = make_random_pure_contraction(3, 0.7, seed)
        rng = np.random.default_rng(seed)
        pairs = [
            (0.7 * rng.random() * np.exp(2j * np.pi * rng.random()),
             0.7 * rng.random() * np.exp(2j * np.pi * rng.random()))
            for _ in range(10)
        ]
        assert kernel_identity_check(M, pairs) <= 1e-10

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
        invariance, product, _ = polydisc_kernel_checks(T, defect_operators(T), pairs)
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
        kernel_identity_check(T.matrices[0], [(0.2, -1.0)], pair=L.defects.per_op[0])
    with pytest.raises(PointOutsidePolydisc):
        polydisc_kernel_checks(T, L.defects, pairs)


def test_empty_sample_lists_give_zero(tensor_model):
    T, L, cfs = tensor_model
    assert inner_boundary_check(cfs[0], samples=0) == 0.0
    assert kernel_identity_check(T.matrices[0], [], pair=L.defects.per_op[0]) == 0.0
    assert polydisc_kernel_checks(T, L.defects, []) == (0.0, 0.0, 0.0)


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
    scalar_pairs = [(z[0], w[0]) for z, w in pairs]
    for cf in charfns_for_tuple(T, defects):
        assert inner_boundary_check(cf, 48) == oracles.inner_boundary_loop(cf, 48)
        Ti, pair = T.matrices[cf.op_index], defects.per_op[cf.op_index]
        assert (kernel_identity_check(Ti, scalar_pairs, pair=pair)
                == oracles.kernel_identity_loop(Ti, scalar_pairs, pair))
    assert polydisc_kernel_checks(T, defects, pairs) == oracles.polydisc_kernel_loop(T, defects, pairs)


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
        (dataclasses.replace(D, big_defect=1.5 * D.big_defect), (2,)),
        # rescales the resolvent kernels and changes Theta_0, but neither
        # leaks out of the joint defect space
        (dataclasses.replace(D, per_op=(star,) + tuple(D.per_op[1:])), (1, 2)),
        # the identities hold on the whole space here; only P = B B^H breaks
        (dataclasses.replace(D, big_defect_basis=B), (0,)),
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
        assert polydisc_kernel_checks(T, L.defects, pairs)[2] <= 1e-10

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
        # the box matvec against the dense masked N x N operator
        # P (L L^H - prod(I - F_i F_i^H)) P, with every F_i built in full.
        # For the true symbols the operator vanishes on the box, so the
        # symbols here are random blocks of their shapes, longer than d + 1.
        # Their factors share the coefficient axis and need not commute: the
        # product applies variable 0 first
        T = make_tensor_tuple(factors())
        L = build_dilation(T, d=d, adaptive=False)
        cfs = charfns_for_tuple(T, L.defects)
        sp, N = L.space, L.space.total_dim
        layers = d - margin + 1
        rng = np.random.default_rng(d)
        shapes = [_model_symbol(L.defects, cf, i, d, DEFAULT_TOL)[0].shape
                  for i, cf in enumerate(cfs)]
        syms = [[0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 for _ in range(d + 3)] for shape in shapes]
        dense = L.matrix @ L.matrix.conj().T
        prod = np.eye(N)
        for i, sym in enumerate(syms):
            F = oracles.one_var_toeplitz(sym[:d + 1], d)
            prod = (np.eye(N) - oracles.one_var_factor_matrix(sp, F @ F.conj().T, i)) @ prod
        sel = np.nonzero(oracles.margin_mask(sp, margin))[0]
        X = (dense - prod)[np.ix_(sel, sel)]
        apply_X, size = _gramian_box_operator(
            L, [toeplitz_gram(sym, d, layers, "out") for sym in syms])
        assert size == len(sel) == layers ** T.n * sp.coeff_dim
        V = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
        for v in V.T:
            assert np.max(np.abs(apply_X(v) - X @ v)) <= 1e-13
        assert operator_norm(X) > 0.1


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
        box_fibers = [K[:(box.degree + 1) * r] for K in fibers]
        for a in range(n):
            for b in range(a + 1, n):
                want = operator_norm((P[a] @ P[b] - P[b] @ P[a])[np.ix_(sel, sel)])
                got = _fiber_commutator(box, box_fibers, a, b)
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
        box_fibers = [K[:(box.degree + 1) * r] for K in fibers]
        Qb = box_rows(sp, Q, box)

        def apply_X(v):
            return apply_axis_projections(box, box_fibers, v) - Qb @ (Qb.conj().T @ v)

        V = rng.standard_normal((len(sel), 3)) + 1j * rng.standard_normal((len(sel), 3))
        for v in V.T:
            assert np.max(np.abs(apply_X(v) - X @ v)) <= 1e-13
        want = operator_norm(X)
        assert want > 0.1
        assert _opnorm_hermitian(apply_X, box.total_dim) == pytest.approx(want, rel=1e-8)

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
        rows = np.repeat(np.arange(d + 1) <= d - ms.margin, r)
        raw = oracles.one_var_raw_factors(L.defects, cfs, d)
        for K, A, md in zip(ms.fibers, raw, ms.margin_drifts):
            P = np.eye(A.shape[0]) - K @ K.conj().T
            assert md == pytest.approx(operator_norm((P - A)[np.ix_(rows, rows)]), rel=1e-9)

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
        # the margin drift and the operator-form Gramian both read the
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
