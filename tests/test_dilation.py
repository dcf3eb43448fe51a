"""Truncated dilation isometry and its checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcmodel.dilation as dilation
import dcmodel.hardy as hardy
from dcmodel.dilation import (
    DegreeCapExceeded,
    _box_gram_defect,
    _top_layer_tail,
    adjoint_on_kernels_check,
    build_dilation,
    compressed_tuple_residual,
    intertwining_residual,
    isometry_defect,
    minimality_check,
    range_box_basis,
    range_factor,
)
from dcmodel.hardy import row_blocks
from dcmodel.model import box_distance, charfns_for_tuple, model_space
from dcmodel.tuples import ContractionTuple, make_random_pure_contraction, make_tensor_tuple

import oracles


def _scalar(v):
    return ContractionTuple((np.array([[v]], dtype=complex),))


class TestBuildOracles:
    def test_scalar_06_coefficients(self):
        # coefficients at degree d=2 for h=1: 0.8 * 0.6^k
        L = build_dilation(_scalar(0.6), d=2, adaptive=False)
        v = L.matrix[:, 0]
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
        v = L.matrix[:, 0]
        assert v[p0] == pytest.approx(1.0, abs=1e-14)
        assert np.sum(np.abs(v)) == pytest.approx(1.0, abs=1e-14)

    def test_tensor_pair_coefficients(self):
        # factors ([0.5], nilpotent 0.6); coefficients vanish for k2 > 1 and
        # carry 0.8 sqrt(0.75) 0.5^k1 resp. 0.6 sqrt(0.75) 0.5^k1
        T = make_tensor_tuple([[[0.5]], np.array([[0, 0.6], [0, 0]])])
        L = build_dilation(T, d=4, adaptive=False)
        r = L.defects.rank
        assert r == 2
        v = L.matrix @ np.array([1.0, 0.0])
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
        # the adaptive search measures both residuals without building L
        T = make_tensor_tuple([make_random_pure_contraction(2, 0.6, 3),
                               make_random_pure_contraction(3, 0.6, 4)])
        L = build_dilation(T, d=d, adaptive=False)
        D2 = L.defects.big_defect @ L.defects.big_defect
        assert _box_gram_defect(T, D2, d) == pytest.approx(isometry_defect(L), rel=1e-12)
        assert _top_layer_tail(T, D2, d) == pytest.approx(
            max(intertwining_residual(L, i) for i in range(T.n)), rel=1e-12)

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
        assert np.linalg.norm(L.matrix @ h) <= np.linalg.norm(h) * (1 + 1e-12)


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
        # one stacked resolvent chain per variable runs the per-sample arithmetic
        T = make_tensor_tuple(factors())
        L = build_dilation(T, d=4, adaptive=False)
        rng = np.random.default_rng(7)
        samples = [(0.6 * rng.random(T.n) * np.exp(2j * np.pi * rng.random(T.n)),
                    rng.standard_normal(L.defects.rank) + 1j * rng.standard_normal(L.defects.rank))
                   for _ in range(6)]
        assert adjoint_on_kernels_check(L, samples) == oracles.adjoint_on_kernels_loop(L, samples)
        assert adjoint_on_kernels_check(L, []) == 0.0

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


def _projection_gap(A, B) -> float:
    return float(np.linalg.norm(A @ A.conj().T - B @ B.conj().T, 2))


class TestRowBlocks:
    """The dilation build, its checks and the range basis run over row
    blocks of whole first-variable layers; with the block size patched to
    two layers, several blocks and their seams are exercised."""

    CASES = {
        "n1": (lambda: [make_random_pure_contraction(3, 0.7, 1)], 9),
        "n2": (lambda: [make_random_pure_contraction(2, 0.7, 2), np.array([[0, 0.6], [0, 0]])], 5),
        "n3": (lambda: [make_random_pure_contraction(2, 0.6, 3), [[0.5]], [[-0.4j]]], 3),
    }

    @pytest.fixture(params=sorted(CASES))
    def blocked(self, request, monkeypatch):
        factors, d = self.CASES[request.param]
        T = make_tensor_tuple(factors())
        full = build_dilation(T, d=d, adaptive=False)
        monkeypatch.setattr(hardy, "_BLOCK_BYTES", 2 * full.matrix.nbytes // (d + 1))
        L = build_dilation(T, d=d, adaptive=False)
        assert [b - a for a, b in row_blocks(L.space, L.matrix)][:-1] == [2] * (d // 2)
        return T, L

    def test_build_matches_index_loop(self, blocked):
        T, L = blocked
        want = oracles.dilation_matrix(T, L.defects, L.degree)
        assert np.max(np.abs(L.matrix - want)) <= 1e-14

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

    def test_range_box_basis_matches_svd(self, blocked):
        _, L = blocked
        box = L.space.margin_box(L.degree // 2)
        q_box = range_box_basis(L, box)
        want = oracles.range_box_basis(L, box)
        assert q_box.shape == want.shape
        assert _projection_gap(q_box, want) <= 1e-13

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_rank_deficient_range(self, d):
        # T = U J U^H, J the 4 x 4 shift: below d = 3 the dilation matrix
        # is rank-deficient, with singular values near 1e-8 besides those
        # near 1. The cut on the singular values of the blocked R keeps the
        # SVD's rank, and the range split matches the SVD basis's to
        # rounding (at most 9e-16 here); without the Gram pass that rescales
        # W it was off by 2.5e-8 at d = 1, the rounding of R over the
        # smallest kept singular value. A cut
        # on the eigenvalues of L^H L, whose rounding noise is about 1e-16,
        # read 0.854, 0.775 and 0.314 here against 1.000, 1.000 and 0.757
        # at d = 0, 1, 2
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        T = ContractionTuple((U @ np.eye(4, k=1) @ U.conj().T,))
        L = build_dilation(T, d=d, adaptive=False)
        ms = model_space(T, L, charfns_for_tuple(T, L.defects))
        want = oracles.range_box_basis(L, ms.box)
        assert range_factor(L).shape[1] == want.shape[1]
        split = box_distance(ms.box, ms.box_fibers, lambda v: want @ (want.conj().T @ v))
        assert ms.s_residual == pytest.approx(split, abs=1e-10)


def _traced_peak(f) -> int:
    """Bytes allocated by ``f()`` at its peak, above what was live at the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_tall_products_allocate_blocks_not_copies(monkeypatch):
    # n = 2, d = 64: with blocks of 1/32 of the dilation matrix, none of the
    # checks or the range factor allocates a quarter of it; a conjugated
    # copy, a coshifted copy or a thin SVD would each take all of it
    T = make_tensor_tuple([make_random_pure_contraction(2, 0.9, 4),
                           make_random_pure_contraction(2, 0.9, 5)])
    L = build_dilation(T, d=64, adaptive=False)
    monkeypatch.setattr(hardy, "_BLOCK_BYTES", L.matrix.nbytes // 32)
    bound = L.matrix.nbytes // 4
    assert _traced_peak(lambda: isometry_defect(L)) < bound
    for i in range(T.n):
        assert _traced_peak(lambda: intertwining_residual(L, i)) < bound
    assert _traced_peak(lambda: compressed_tuple_residual(L)) < bound
    assert _traced_peak(lambda: range_factor(L)) < bound
    # the build holds its output and, per variable after the first, one block
    assert _traced_peak(lambda: build_dilation(T, d=64, adaptive=False)) < L.matrix.nbytes + bound


def test_range_box_basis_allocates_its_output_only(monkeypatch):
    # n = 3, d = 32: the margin box holds (17/33)^3 = 0.137 of the rows, so
    # the box rows of the range basis stay under a quarter of the dilation
    # matrix; a full N-row basis, or a copy of the box rows of L next to
    # the product, would not
    T = make_tensor_tuple([make_random_pure_contraction(2, 0.9, 6), [[0.8]], [[-0.7j]]])
    L = build_dilation(T, d=32, adaptive=False)
    box = L.space.margin_box(L.degree // 2)
    monkeypatch.setattr(hardy, "_BLOCK_BYTES", L.matrix.nbytes // 32)
    assert _traced_peak(lambda: range_box_basis(L, box)) < L.matrix.nbytes // 4
