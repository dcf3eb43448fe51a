"""Truncated dilation isometry and its checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcmodel.dilation as dilation
import dcmodel.hardy as hardy
from dcmodel.dilation import (
    DegreeCapExceeded,
    _box_gram_defect,
    _box_sum,
    _kernel_adjoints,
    _top_layer_tail,
    adjoint_on_kernels_check,
    build_dilation,
    compressed_tuple_residual,
    generate_rows,
    intertwining_residual,
    isometry_defect,
    minimality_check,
    range_factor,
)
from dcmodel.matrixcore import operator_norm, orthonormal_range_basis, subspace_distance
from dcmodel.model import axis_frames, box_distance, charfns_for_tuple, model_space
from dcmodel.tuples import ContractionTuple, make_random_pure_contraction, make_tensor_tuple

import oracles


def _scalar(v):
    return ContractionTuple((np.array([[v]], dtype=complex),))


class TestBuildOracles:
    def test_scalar_06_coefficients(self):
        # coefficients at degree d=2 for h=1: 0.8 * 0.6^k
        L = build_dilation(_scalar(0.6), d=2, adaptive=False)
        v = oracles.dilation_matrix(L)[:, 0]
        assert np.allclose(v, [0.8, 0.48, 0.288], atol=1e-13)

    def test_scalar_06_isometry_defect(self):
        L = build_dilation(_scalar(0.6), d=2, adaptive=False)
        # 1 - 0.64 (1 + 0.36 + 0.1296) = 0.36^3
        assert isometry_defect(L) == pytest.approx(0.046656, abs=1e-12)

    def test_scalar_06_intertwining(self):
        L = build_dilation(_scalar(0.6), d=2, adaptive=False)
        # sole surviving term at k = d: 0.8 * 0.6^3
        assert intertwining_residual(L, 0) == pytest.approx(0.1728, abs=1e-12)

    def test_zero_tuple_exact(self):
        T = make_tensor_tuple([np.zeros((1, 1)), np.zeros((1, 1))])
        L = build_dilation(T, d=3, adaptive=False)
        assert isometry_defect(L) == 0.0
        assert intertwining_residual(L, 0) == 0.0
        assert intertwining_residual(L, 1) == 0.0
        # L h = h at index (0,0), all else 0
        p0 = oracles.index_pos(L.space)[(0, 0)]
        v = oracles.dilation_matrix(L)[:, 0]
        assert v[p0] == pytest.approx(1.0, abs=1e-14)
        assert np.sum(np.abs(v)) == pytest.approx(1.0, abs=1e-14)

    def test_tensor_pair_coefficients(self):
        # factors ([0.5], nilpotent 0.6); coefficients vanish for k2 > 1 and
        # carry 0.8 sqrt(0.75) 0.5^k1 resp. 0.6 sqrt(0.75) 0.5^k1
        T = make_tensor_tuple([[[0.5]], np.array([[0, 0.6], [0, 0]])])
        L = build_dilation(T, d=4, adaptive=False)
        r = L.defects.rank
        assert r == 2
        v = oracles.dilation_matrix(L) @ np.array([1.0, 0.0])
        for k1 in range(3):
            a = v[oracles.index_pos(L.space)[(k1, 0)] * r:][:r]
            b = v[oracles.index_pos(L.space)[(k1, 1)] * r:][:r]
            assert np.linalg.norm(a) == pytest.approx(0.8 * np.sqrt(0.75) * 0.5 ** k1, abs=1e-12)
            assert np.linalg.norm(b) == pytest.approx(0.6 * np.sqrt(0.75) * 0.5 ** k1, abs=1e-12)
        for k2 in (2, 3, 4):
            blk = v[oracles.index_pos(L.space)[(0, k2)] * r:][:r]
            assert np.linalg.norm(blk) <= 1e-14


class TestAdaptive:
    def test_tensor_pair_adaptive_degree(self):
        T = make_tensor_tuple([[[0.5]], np.array([[0, 0.6], [0, 0]])])
        L = build_dilation(T, d=8, adaptive=True)
        assert L.degree == 32
        assert isometry_defect(L) <= 1e-6
        assert max(intertwining_residual(L, i) for i in range(2)) <= 1e-6

    def test_monotone_defect(self):
        T = _scalar(0.7)
        d1 = isometry_defect(build_dilation(T, d=2, adaptive=False))
        d2 = isometry_defect(build_dilation(T, d=4, adaptive=False))
        d3 = isometry_defect(build_dilation(T, d=8, adaptive=False))
        assert d1 >= d2 >= d3

    @pytest.mark.parametrize("d", [2, 5])
    def test_measured_tails_match_built_matrix(self, d):
        # the adaptive search measures both residuals without building L, from
        # D^2, against the loop-built matrix
        T = make_tensor_tuple([make_random_pure_contraction(2, 0.6, 3),
                               make_random_pure_contraction(3, 0.6, 4)])
        L = build_dilation(T, d=d, adaptive=False)
        D2 = L.defects.big_defect @ L.defects.big_defect
        assert _box_gram_defect(T, D2, d) == pytest.approx(oracles.isometry_defect(L), rel=1e-12)
        for i in range(T.n):
            assert _top_layer_tail(T, D2, d, i) == pytest.approx(oracles.intertwining_residual(L, i), rel=1e-12)

    def test_cap_exceeded(self):
        with pytest.raises(DegreeCapExceeded) as e:
            build_dilation(_scalar(0.9999), d=8, adaptive=True, degree_cap=32)
        assert e.value.achieved_defect > 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_contractive_columns(self, seed):
        # ||L h|| <= ||h|| at every truncation
        M = make_random_pure_contraction(3, 0.8, seed)
        L = build_dilation(ContractionTuple((M,)), d=4, adaptive=False)
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.linalg.norm(oracles.dilation_matrix(L) @ h) <= np.linalg.norm(h) * (1 + 1e-12)


class TestBoxSum:
    """The doubling sum against the term-by-term loop (``oracles.box_sum_loop``)."""

    @staticmethod
    def _operands(seed):
        M = make_random_pure_contraction(3, 0.93, seed)
        D = make_random_pure_contraction(3, 0.8, seed + 1)
        return D @ D.conj().T, M

    @pytest.mark.parametrize("d", [*range(41), 256])
    def test_matches_loop(self, d):
        G, M = self._operands(d)
        want = oracles.box_sum_loop(G, M, d)
        assert operator_norm(_box_sum(G, M, d) - want) <= 1e-14 * operator_norm(want)

    @pytest.mark.parametrize("factors", [
        ([[0.5]], [[0, 0.6], [0, 0]]),
        ([[0.93]], [[0.5j]]),
        (make_random_pure_contraction(2, 0.8, 5), make_random_pure_contraction(2, 0.6, 6)),
        (make_random_pure_contraction(3, 0.9, 7),),
    ])
    def test_adaptive_degree_as_with_the_loop(self, factors, monkeypatch):
        T = make_tensor_tuple([np.asarray(F, dtype=complex) for F in factors])
        got = build_dilation(T, d=2, adaptive=True).degree
        monkeypatch.setattr(dilation, "_box_sum", oracles.box_sum_loop)
        assert build_dilation(T, d=2, adaptive=True).degree == got


def _non_commuting_pair():
    # diagonal defects, so the joint defect is formed, and T_1 T_2 != T_2 T_1
    rng = np.random.default_rng(1)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return ContractionTuple((np.diag([0.5, -0.3j, 0.6]), np.diag([0.6, 0.5, 0.7]) @ U))


@pytest.fixture(scope="module")
def pair():
    T = make_tensor_tuple([[[0.5]], np.array([[0, 0.6], [0, 0]])])
    return T, build_dilation(T, d=8, adaptive=True)


class TestChecks:
    def test_adjoint_on_kernels(self, pair):
        T, L = pair
        rng = np.random.default_rng(5)
        samples = []
        for _ in range(20):
            w = 0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2))
            eta = rng.standard_normal(L.defects.rank)
            samples.append((w, eta / np.linalg.norm(eta)))
        assert adjoint_on_kernels_check(L, samples) <= 1e-6

    @pytest.mark.parametrize("factors,d", [
        (lambda: [[[0.5]], np.array([[0, 0.6], [0, 0]])], 3),
        (lambda: [make_random_pure_contraction(2, 0.7, 2), [[0.6]], [[-0.5j]]], 2),
    ])
    def test_adjoint_on_kernels_matches_loop_kernels(self, factors, d, monkeypatch):
        # at a low degree the truncation residual is far above rounding, so
        # L^H k with the loop-built kernel vector must give the same value
        T = make_tensor_tuple(factors())
        L = build_dilation(T, d=d, adaptive=False)
        rng = np.random.default_rng(d)
        samples = [(0.9 * np.exp(2j * np.pi * rng.random(T.n)),
                    rng.standard_normal(L.defects.rank) + 1j * rng.standard_normal(L.defects.rank))
                   for _ in range(3)]
        got = [adjoint_on_kernels_check(L, [s]) for s in samples]
        monkeypatch.setattr(dilation, "kernel_vector", oracles.kernel_vector)
        want = [adjoint_on_kernels_check(L, [s]) for s in samples]
        assert min(want) > 1e-3
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-14

    @pytest.mark.parametrize("factors", [
        lambda: [[[0.5]], np.array([[0, 0.6], [0, 0]])],
        lambda: [np.eye(3, k=1), np.eye(2, k=1)],
    ], ids=["tensor", "jordan"])
    def test_adjoint_on_kernels_matches_point_loop(self, factors):
        # one stacked resolvent chain per variable runs the per-sample
        # arithmetic; the left-hand side sums the N products of the loop's
        # full-length kernel vectors in another order, so the two agree to
        # rounding (1e-14 on residuals of norm below 1)
        T = make_tensor_tuple(factors())
        L = build_dilation(T, d=4, adaptive=False)
        rng = np.random.default_rng(7)
        samples = [(0.6 * rng.random(T.n) * np.exp(2j * np.pi * rng.random(T.n)),
                    rng.standard_normal(L.defects.rank) + 1j * rng.standard_normal(L.defects.rank))
                   for _ in range(6)]
        assert abs(adjoint_on_kernels_check(L, samples) - oracles.adjoint_on_kernels_loop(L, samples)) <= 1e-14
        assert adjoint_on_kernels_check(L, []) == 0.0

    @pytest.mark.parametrize("tup,d,k", [
        (lambda: make_tensor_tuple([make_random_pure_contraction(3, 0.6, 1)]), 5, 5),  # n = 1
        (lambda: make_tensor_tuple([[[0.5]], np.array([[0, 0.6], [0, 0]])]), 20, 5),
        (lambda: make_tensor_tuple([make_random_pure_contraction(2, 0.7, 3), [[0, 0.5], [0, 0]]]), 6, 4),
        (lambda: make_tensor_tuple([make_random_pure_contraction(2, 0.7, 2), [[0.6]], [[-0.5j]]]), 3, 5),  # n = 3
        (lambda: make_tensor_tuple([make_random_pure_contraction(2, 0.7, 3), [[0.6]]]), 0, 3),
        (_non_commuting_pair, 4, 4),
    ], ids=["n1-chunked", "n2-one-chunk", "n2-chunked", "n3-chunked", "d0", "non-commuting"])
    def test_kernel_adjoints_match_full_kernel_vectors(self, tup, d, k, monkeypatch):
        # the first variable's stacked rows against its kernel vectors, then
        # the later variables' geometric sums, against L^H of the N-length
        # kernel vectors, to rounding (1e-14 on vectors of norm below 3), with
        # one kernel_vector call per sample; on the non-commuting pair only the
        # row order C0 T_1^{*k_1} T_2^{*k_2} of L gives the dense value
        T = tup()
        L = build_dilation(T, d=d, adaptive=False)
        rng = np.random.default_rng(d + k)
        w = 0.9 * rng.random((k, T.n)) * np.exp(2j * np.pi * rng.random((k, T.n)))
        eta = rng.standard_normal((k, L.defects.rank)) + 1j * rng.standard_normal((k, L.defects.rank))
        want = np.array([(hardy.kernel_vector(L.space, wj, ej).conj() @ oracles.dilation_matrix(L)).conj()
                         for wj, ej in zip(w, eta)])
        calls = []
        monkeypatch.setattr(dilation, "kernel_vector",
                            lambda *a: calls.append(a) or hardy.kernel_vector(*a))
        got = _kernel_adjoints(L, w, eta)
        assert [c[0] for c in calls] == [hardy.TruncatedHardySpace(1, d, L.defects.rank)] * k
        assert np.array_equal([c[1] for c in calls], w[:, :1])  # the first variable's point
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_adjoint_check_generates_no_rows(self, pair, monkeypatch):
        # L^H k is read from C0 and the power stacks alone
        T, L = pair
        rng = np.random.default_rng(3)
        samples = [(0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)), np.array([0.6, 0.8]))
                   for _ in range(20)]

        def no_rows(*args, **kwargs):
            raise AssertionError("generate_rows called")

        monkeypatch.setattr(dilation, "generate_rows", no_rows)
        assert adjoint_on_kernels_check(L, samples) <= 1e-6

    def test_dilation_checks_generate_no_rows(self, pair, monkeypatch):
        # all five checks and the range factor read dim x dim closed forms
        T, L = pair
        samples = [(np.array([0.3, -0.2j]), np.array([0.6, 0.8]))]

        def no_rows(*args, **kwargs):
            raise AssertionError("generate_rows called")

        monkeypatch.setattr(dilation, "generate_rows", no_rows)
        assert isometry_defect(L) <= 1e-6
        assert max(intertwining_residual(L, i) for i in range(T.n)) <= 1e-6
        assert adjoint_on_kernels_check(L, samples) <= 1e-6
        assert minimality_check(L) <= 1e-12
        assert max(compressed_tuple_residual(L)) <= 1e-6
        assert range_factor(L).shape == (T.dim, T.dim)

    def test_adjoint_at_origin_exact(self, pair):
        T, L = pair
        eta = np.array([1.0, 0.0])
        assert adjoint_on_kernels_check(L, [(np.zeros(2), eta)]) <= 1e-12

    def test_minimality(self, pair):
        _, L = pair
        assert minimality_check(L) <= 1e-12

    def test_compression(self, pair):
        _, L = pair
        assert max(compressed_tuple_residual(L)) <= 1e-6

    def test_scalar_d40_compression(self):
        L = build_dilation(_scalar(0.6), d=40, adaptive=False)
        assert max(compressed_tuple_residual(L)) <= 1e-6

    def test_nilpotent_exact_regime(self):
        # all checks exact once d >= nilpotency order
        J = np.array([[0, 0.6, 0], [0, 0, 0.7], [0, 0, 0]], dtype=complex)
        T = ContractionTuple((J,))
        L = build_dilation(T, d=4, adaptive=False)
        assert isometry_defect(L) <= 1e-14
        assert intertwining_residual(L, 0) <= 1e-14
        assert minimality_check(L) <= 1e-12
        assert max(compressed_tuple_residual(L)) <= 1e-13


def _shift_conjugate():
    # T = U J U^H, J the 4 x 4 shift: a rank-one defect, and a dilation
    # matrix that is rank-deficient below d = 3
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return ContractionTuple((U @ np.eye(4, k=1) @ U.conj().T,))


class TestRowBlocks:
    """The box passes of ``model_space`` run over generated row blocks of
    whole first-variable layers; with the block size patched to two layers,
    several blocks and their seams are exercised.  The dilation checks and
    the range factor read no rows, and must give the unblocked values too."""

    CASES = {
        "n1": (lambda: [make_random_pure_contraction(3, 0.7, 1)], 9),
        "n2": (lambda: [make_random_pure_contraction(2, 0.7, 2), np.array([[0, 0.6], [0, 0]])], 5),
        "n3": (lambda: [make_random_pure_contraction(2, 0.6, 3), [[0.5]], [[-0.4j]]], 3),
    }

    @pytest.fixture(params=sorted(CASES))
    def blocked(self, request, monkeypatch):
        factors, d = self.CASES[request.param]
        T = make_tensor_tuple(factors())
        L = build_dilation(T, d=d, adaptive=False)
        monkeypatch.setattr(hardy, "_BLOCK_BYTES", 2 * 16 * L.space.total_dim * T.dim // (d + 1))
        assert [b - a for a, b, _ in generate_rows(L)][:-1] == [2] * (d // 2)
        return T, L

    def test_build_matches_index_loop(self, blocked):
        # every block against the rows of the loop-built matrix, at the full
        # degree and at every lower one, whose rows are the box rows of L
        T, L = blocked
        d = L.degree
        want = oracles.dilation_matrix(L).reshape(L.space.shape + (T.dim,))
        for b_deg in range(d + 1):
            box = L.space.margin_box(d - b_deg)
            rows = want[(slice(None),) + (slice(b_deg + 1),) * (T.n - 1)]
            seen = []
            for a, b, X in generate_rows(L, b_deg):
                assert X.shape == (b - a,) + box.shape[1:] + (T.dim,)
                assert np.max(np.abs(X - rows[a:b])) <= 1e-15
                seen.append((a, b))
            assert seen == list(hardy.row_blocks(box, T.dim))
            assert seen[0][0] == 0 and seen[-1][1] == b_deg + 1

    def test_checks_match_unblocked(self, blocked):
        # at these low degrees every residual is far above rounding
        T, L = blocked
        assert isometry_defect(L) == pytest.approx(oracles.isometry_defect(L), abs=1e-14)
        for i in range(T.n):
            assert intertwining_residual(L, i) == pytest.approx(
                oracles.intertwining_residual(L, i), rel=1e-12, abs=1e-14)
        assert np.allclose(compressed_tuple_residual(L), oracles.compressed_tuple_residual(L),
                           rtol=1e-12, atol=1e-14)
        assert oracles.isometry_defect(L) > 1e-6

    def test_split_matches_svd_range_basis(self, blocked):
        # the split, read from the box coordinates of L with the range factor
        # applied, against box_distance of the box rows of an SVD range basis
        T, L = blocked
        ms = model_space(T, L, charfns_for_tuple(T, L.defects))
        want = box_distance(ms.box, axis_frames(ms.box, ms.box_fibers), oracles.range_box_basis(L, ms.box))
        assert ms.s_residual == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_rank_deficient_range(self, d):
        # T = U J U^H, J the 4 x 4 shift: below d = 3 the dilation matrix
        # is rank-deficient. C0 has exactly r = 1 row, so the kept singular
        # values of the doubled factor R are all 1 and the rest are rounding;
        # the cut on them keeps the SVD's rank, and the range split matches
        # the SVD basis's to rounding (at most 9e-16 here). A cut on the
        # eigenvalues of L^H L, whose rounding noise is about 1e-16, read
        # 0.854, 0.775 and 0.314 here against 1.000, 1.000 and 0.757 at
        # d = 0, 1, 2
        T = _shift_conjugate()
        L = build_dilation(T, d=d, adaptive=False)
        ms = model_space(T, L, charfns_for_tuple(T, L.defects))
        want = oracles.range_box_basis(L, ms.box)
        assert range_factor(L).shape[1] == want.shape[1]
        split = box_distance(ms.box, axis_frames(ms.box, ms.box_fibers), want)
        assert ms.s_residual == pytest.approx(split, abs=1e-10)


class TestClosedForms:
    """The checks and the range factor from the powers of the tuple, against
    the loop-built dilation matrix (:func:`oracles.dilation_matrix`)."""

    CASES = {
        **{k: (lambda f=f: make_tensor_tuple(f()), d) for k, (f, d) in TestRowBlocks.CASES.items()},
        "n2-d0": (lambda: make_tensor_tuple([make_random_pure_contraction(2, 0.7, 3), [[0.6]]]), 0),
        **{f"shift-d{d}": (_shift_conjugate, d) for d in range(4)},
    }

    @pytest.fixture(params=list(CASES))
    def case(self, request):
        tup, d = self.CASES[request.param]
        T = tup()
        return T, build_dilation(T, d=d, adaptive=False)

    def test_residuals_match_dense(self, case):
        T, L = case
        assert isometry_defect(L) == pytest.approx(oracles.isometry_defect(L), abs=1e-14)
        for i in range(T.n):
            assert intertwining_residual(L, i) == pytest.approx(
                oracles.intertwining_residual(L, i), rel=1e-12, abs=1e-14)
        assert np.allclose(compressed_tuple_residual(L), oracles.compressed_tuple_residual(L),
                           rtol=1e-12, atol=1e-14)

    def test_factor_gram_matches_dense(self, case):
        # the square-root doubling from C0 gives R with R^H R = L^H L
        T, L = case
        M = oracles.dilation_matrix(L)
        R = dilation._box(L.C0, T, [L.degree] * T.n, dilation._stack)
        assert R.shape[0] <= T.dim
        assert operator_norm(R.conj().T @ R - M.conj().T @ M) <= 1e-14

    def test_range_factor_matches_svd_basis(self, case):
        # L W is orthonormal and spans the range of the SVD basis
        _, L = case
        M = oracles.dilation_matrix(L)
        Q, want = M @ range_factor(L), orthonormal_range_basis(M)
        assert Q.shape == want.shape
        assert operator_norm(Q.conj().T @ Q - np.eye(Q.shape[1])) <= 1e-14
        assert subspace_distance(Q, want) <= 1e-14

    def test_d0_compression_is_the_tuple_norm(self):
        # at d = 0 no row lies below a top layer, so L^H shift_i L = 0
        T = make_tensor_tuple([make_random_pure_contraction(2, 0.7, 3), [[0.6]], [[-0.5j]]])
        L = build_dilation(T, d=0, adaptive=False)
        assert compressed_tuple_residual(L) == pytest.approx([operator_norm(M) for M in T.matrices],
                                                             rel=1e-14)
        assert compressed_tuple_residual(L) == pytest.approx(oracles.compressed_tuple_residual(L),
                                                             rel=1e-14)

    def test_empty_box_sum_is_zero(self):
        G, M = TestBoxSum._operands(0)
        assert np.array_equal(_box_sum(G, M, -1), np.zeros_like(G))


def test_tall_products_allocate_blocks_not_copies(monkeypatch):
    # n = 2, d = 64: with blocks of 1/32 of the dilation matrix, neither the
    # build, nor the checks, nor the range factor allocates a quarter of it;
    # the checks and the factor read dim x dim closed forms, and a stored
    # matrix, a conjugated, shifted or coshifted copy, or a thin SVD would
    # each take all of it
    T = make_tensor_tuple([make_random_pure_contraction(2, 0.9, 4),
                           make_random_pure_contraction(2, 0.9, 5)])
    L = build_dilation(T, d=64, adaptive=False)
    nbytes = 16 * L.space.total_dim * T.dim
    monkeypatch.setattr(hardy, "_BLOCK_BYTES", nbytes // 32)
    bound = nbytes // 4
    assert oracles.traced_peak(lambda: build_dilation(T, d=64, adaptive=False)) < bound
    assert oracles.traced_peak(lambda: isometry_defect(L)) < bound
    for i in range(T.n):
        assert oracles.traced_peak(lambda: intertwining_residual(L, i)) < bound
    assert oracles.traced_peak(lambda: compressed_tuple_residual(L)) < bound
    assert oracles.traced_peak(lambda: range_factor(L)) < bound


def _n3_d32():
    T = make_tensor_tuple([make_random_pure_contraction(2, 0.9, 6), [[0.8]], [[-0.7j]]])
    return T, build_dilation(T, d=32, adaptive=False)


def test_model_space_forms_no_box_row_basis(monkeypatch):
    # n = 3, d = 32: the margin box holds (17/33)^3 = 0.137 of the rows. The
    # split and the Gramian read one set of box coordinates of L, row block
    # by row block, so model_space allocates less than the box rows of the
    # range basis alone would take (314 KB here)
    T, L = _n3_d32()
    box = L.space.margin_box(L.degree // 2)
    charfns = charfns_for_tuple(T, L.defects)
    monkeypatch.setattr(hardy, "_BLOCK_BYTES", oracles.dilation_matrix(L).nbytes // 32)
    box_basis_bytes = box.total_dim * range_factor(L).shape[1] * 16
    assert oracles.traced_peak(lambda: model_space(T, L, charfns)) < box_basis_bytes


def test_suite_stages_hold_no_dilation_matrix(monkeypatch):
    # the same tuple, N = 71,874: the build, the five dilation checks and
    # model_space together allocate less than the N x dim dilation matrix
    # (2.3 MB): the checks read no rows, and model_space's box passes generate
    # them block by block
    T, L = _n3_d32()
    charfns = charfns_for_tuple(T, L.defects)
    nbytes = 16 * L.space.total_dim * T.dim
    rng = np.random.default_rng(0)
    samples = [(0.6 * rng.random(T.n) * np.exp(2j * np.pi * rng.random(T.n)),
                rng.standard_normal(L.defects.rank) + 1j * rng.standard_normal(L.defects.rank))
               for _ in range(20)]
    monkeypatch.setattr(hardy, "_BLOCK_BYTES", nbytes // 32)

    def stages():
        L = build_dilation(T, d=32, adaptive=False)
        isometry_defect(L)
        [intertwining_residual(L, i) for i in range(T.n)]
        adjoint_on_kernels_check(L, samples)
        minimality_check(L)
        compressed_tuple_residual(L)
        model_space(T, L, charfns)

    assert oracles.traced_peak(stages) < nbytes
