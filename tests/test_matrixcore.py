"""Foundations: norms, PSD square roots, range bases, subspace gaps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmodel import matrixcore, model
from dcmodel.matrixcore import (
    _EXACT_ROWS,
    _PIVOT_FLOOR,
    DEFAULT_TOL,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    ToleranceConfig,
    as_matrix,
    hermitian_norm,
    hermitian_psd_sqrt,
    operator_norm,
    orthonormal_range_basis,
    phase_normalize_columns,
    spectral_radius,
    subspace_distance,
    unit_probe,
)
from dcmodel.model import _opnorm_hermitian


def _random_matrix(seed, n, m=None):
    rng = np.random.default_rng(seed)
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestToleranceConfig:
    def test_defaults(self):
        assert DEFAULT_TOL.rank_tol == 1e-10
        assert DEFAULT_TOL.check_tol == 1e-9
        assert DEFAULT_TOL.tail_tol == 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_tol=0.0)


class TestOperatorNorm:
    def test_column_vector_norm(self):
        assert operator_norm([[3.0], [4.0]]) == pytest.approx(5.0, abs=1e-14)

    def test_unitary_is_one(self):
        U = np.linalg.qr(_random_matrix(1, 5))[0]
        assert operator_norm(U) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            operator_norm([[np.nan]])

    def test_stack_gives_largest_norm(self):
        stack = np.array([_random_matrix(seed, 3, 4) for seed in range(5)])
        assert operator_norm(stack) == max(operator_norm(M) for M in stack)

    def test_stack_rejects_nan(self):
        stack = np.array([_random_matrix(seed, 3) for seed in range(3)])
        stack[1, 2, 0] = np.nan
        with pytest.raises(ValueError):
            operator_norm(stack)

    def test_empty_stack_is_zero(self):
        assert operator_norm(np.zeros((0, 3, 3))) == 0.0

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatch):
            as_matrix([1.0, 2.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_submultiplicative_and_nonnegative(self, seed):
        A = _random_matrix(seed, 4)
        B = _random_matrix(seed + 1, 4)
        na, nb, nab = operator_norm(A), operator_norm(B), operator_norm(A @ B)
        assert nab <= na * nb * (1 + 1e-12)
        assert na >= 0.0


class TestHermitianNorm:
    @pytest.mark.parametrize("shift", [-3.0, 0.0, 3.0])
    def test_matches_operator_norm(self, shift):
        # the largest modulus may sit at either end of the spectrum
        A = _random_matrix(7, 6)
        H = A + A.conj().T + shift * np.eye(6)
        assert hermitian_norm(H) == pytest.approx(operator_norm(H), rel=1e-13)

    def test_empty_is_zero(self):
        assert hermitian_norm(np.zeros((0, 0))) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            hermitian_norm(np.array([[np.nan]]))

    @pytest.mark.parametrize("shape", [(3, 4), (_EXACT_ROWS + 1, _EXACT_ROWS + 2)])
    def test_rejects_non_square(self, shape):
        # on the eigvalsh path and on the Krylov path
        with pytest.raises(DimensionMismatch):
            hermitian_norm(np.ones(shape))

    @pytest.mark.parametrize("size", [3, _EXACT_ROWS + 1])
    def test_zero_is_zero(self, size):
        assert hermitian_norm(np.zeros((size, size))) == 0.0

    def test_at_cutoff_is_eigvalsh(self):
        A = _random_matrix(3, _EXACT_ROWS)
        H = A + A.conj().T
        w = np.linalg.eigvalsh(H)
        assert hermitian_norm(H) == float(max(-w[0], w[-1]))

    @pytest.mark.parametrize("size", [_EXACT_ROWS + 1, 516])
    @pytest.mark.parametrize("spectrum", ["noise", "rank_two", "negative_top", "clustered_top"])
    def test_krylov_path_matches_eigvalsh(self, size, spectrum):
        H = _spectrum(spectrum, size)
        w = np.linalg.eigvalsh(H)
        assert hermitian_norm(H) == pytest.approx(max(-w[0], w[-1]), rel=1e-10)

    @pytest.mark.parametrize("size", [_EXACT_ROWS + 1, 516])
    def test_wide_cluster_within_its_width(self, size):
        # five top eigenvalues 1e-9 apart, wider than the Krylov tolerance: a
        # restart that gains less than 1e-10 ends the run inside the cluster
        # (0.9999999974 at 516 rows), a lower bound off by at most its width
        eigs = np.concatenate([1.0 - 1e-9 * np.arange(5), np.linspace(-0.5, 0.9, size - 5)])
        got = hermitian_norm(_unitary_conjugate(eigs))
        assert 1.0 - 4e-9 <= got <= 1.0 + 1e-15


def _spectrum(kind, size):
    """A ``size``-square Hermitian matrix of the named spectral shape."""
    rng = np.random.default_rng(size)
    A = _random_matrix(size + 1, size)
    noise = 1e-15 * (A + A.conj().T) / np.sqrt(size)  # a drift at rounding level
    if kind == "noise":
        return noise
    if kind == "rank_two":
        # the shape of the recovered isometry drift: a rank-2 part above noise
        B = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
        return 1e-8 * (B @ B.conj().T) / size + noise
    if kind == "negative_top":
        eigs = np.concatenate([[-2.0], np.linspace(-1.5, 1.9, size - 1)])
    else:  # clustered_top, five eigenvalues closer than the Krylov tolerance
        eigs = np.concatenate([1.0 - 1e-12 * np.arange(5), np.linspace(-0.5, 0.9, size - 5)])
    return _unitary_conjugate(eigs)


def _unitary_conjugate(eigs):
    """``U diag(eigs) U^H`` for a seeded random unitary ``U``."""
    U = np.linalg.qr(_random_matrix(len(eigs) + 2, len(eigs)))[0]
    return (U * eigs) @ U.conj().T


def _fresh_probe(size):
    """The Krylov start vector as drawn afresh for every norm."""
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


class TestUnitProbe:
    def test_drawn_once_per_size(self):
        v = unit_probe(66)
        assert unit_probe(66) is v
        assert np.array_equal(v, _fresh_probe(66))

    def test_read_only(self):
        v = unit_probe(5)
        with pytest.raises(ValueError):
            v[0] = 0.0
        with pytest.raises(ValueError):
            v *= 2.0
        assert np.array_equal(v, _fresh_probe(5))

    def test_norms_read_as_with_a_fresh_draw(self, monkeypatch):
        H = _spectrum("rank_two", 516)
        X = _unitary_conjugate(np.linspace(-0.3, 0.8, 300))

        def norms():
            return hermitian_norm(H), _opnorm_hermitian(lambda v: X @ v, len(X))

        cached = norms()
        assert norms() == cached
        monkeypatch.setattr(matrixcore, "unit_probe", _fresh_probe)
        monkeypatch.setattr(model, "unit_probe", _fresh_probe)
        assert norms() == cached


class TestSpectralRadius:
    def test_nilpotent_is_zero(self):
        assert spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, -0.9j])) == pytest.approx(0.9, abs=1e-13)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_at_most_operator_norm(self, seed):
        A = _random_matrix(seed, 5)
        assert spectral_radius(A) <= operator_norm(A) + 1e-10


class TestHermitianPsdSqrt:
    def test_diagonal_exact(self):
        S = hermitian_psd_sqrt(np.diag([4.0, 9.0, 0.0]))
        assert np.allclose(S, np.diag([2.0, 3.0, 0.0]), atol=1e-13)

    def test_square_recovers(self):
        A = _random_matrix(3, 5)
        H = A @ A.conj().T
        S = hermitian_psd_sqrt(H)
        assert operator_norm(S @ S - H) <= 1e-10 * operator_norm(H)
        assert operator_norm(S - S.conj().T) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_psd_sqrt([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            hermitian_psd_sqrt(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        H = np.diag([1.0, -1e-14])
        S = hermitian_psd_sqrt(H)
        assert np.allclose(S, np.diag([1.0, 0.0]), atol=1e-7)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_square_root(self, seed):
        A = _random_matrix(seed, 4)
        H = A @ A.conj().T
        S = hermitian_psd_sqrt(H)
        assert operator_norm(S @ S - H) <= 1e-9 * max(1.0, operator_norm(H))


class TestRangeBasis:
    def test_orthonormal_columns(self):
        B = orthonormal_range_basis(_random_matrix(7, 6, 3))
        assert B.shape == (6, 3)
        assert operator_norm(B.conj().T @ B - np.eye(3)) <= 1e-12

    def test_rank_deficient(self):
        v = np.array([[1.0], [2.0]])
        M = v @ np.array([[1.0, 5.0, -2.0]])
        B = orthonormal_range_basis(M)
        assert B.shape == (2, 1)

    def test_zero_matrix_empty(self):
        B = orthonormal_range_basis(np.zeros((4, 4)))
        assert B.shape == (4, 0)

    def test_phase_normalized(self):
        B = orthonormal_range_basis(_random_matrix(11, 5, 5))
        for j in range(B.shape[1]):
            lead = np.argmax(np.abs(B[:, j]) > _PIVOT_FLOOR * np.abs(B[:, j]).max())
            assert B[lead, j].imag == pytest.approx(0.0, abs=1e-13)
            assert B[lead, j].real > 0

    def test_pivot_floor(self):
        # the leading entry below the floor is skipped, the one above it is the pivot
        V = np.array([[0.5 * _PIVOT_FLOOR * 1j, 2.0 * _PIVOT_FLOOR * 1j],
                      [2.0j, 2.0j],
                      [1.0, 1.0]])
        W = phase_normalize_columns(V)
        assert W[1, 0] == pytest.approx(2.0, abs=1e-15)
        assert W[0, 1] == pytest.approx(2.0 * _PIVOT_FLOOR, abs=1e-22)

    def test_phase_normalize_preserves_span(self):
        V = _random_matrix(13, 5, 2)
        W = phase_normalize_columns(V)
        assert subspace_distance(
            orthonormal_range_basis(V), orthonormal_range_basis(W)
        ) <= 1e-12


class TestSubspaceDistance:
    def test_same_span_zero(self):
        B = orthonormal_range_basis(_random_matrix(17, 6, 3))
        assert subspace_distance(B, B[:, ::-1]) <= 1e-12

    def test_45_degrees(self):
        # span{e1} vs span{(e1+e2)/sqrt(2)}: gap is sin(45 deg)
        A = np.array([[1.0], [0.0]])
        B = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert subspace_distance(A, B) == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_orthogonal_spans(self):
        A = np.eye(4)[:, :2]
        B = np.eye(4)[:, 2:]
        assert subspace_distance(A, B) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_distance(np.eye(3), np.eye(4))
