"""Tuple validation, defect operators, and constructive generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmodel.matrixcore import operator_norm
from dcmodel.tuples import (
    ContractionTuple,
    FactorNotPure,
    defect_commutation_check,
    defect_operators,
    make_random_pure_contraction,
    make_tensor_tuple,
    validate_tuple,
)


def _random_tensor_tuple(seed, n=2, radius=0.5, max_dim=3):
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n)]
    return make_tensor_tuple(
        [make_random_pure_contraction(d, radius, seed + 31 * i) for i, d in enumerate(dims)]
    )


class TestContractionTuple:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            ContractionTuple((np.eye(2), np.eye(3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ContractionTuple(())

    def test_n_and_dim(self):
        T = ContractionTuple((np.zeros((3, 3)), 0.5 * np.eye(3)))
        assert T.n == 2 and T.dim == 3


class TestValidateTuple:
    def test_zero_tuple_passes(self):
        T = ContractionTuple((np.zeros((2, 2)), np.zeros((2, 2))))
        assert validate_tuple(T).passed

    def test_identity_fails_purity_only(self):
        v = validate_tuple(ContractionTuple((np.eye(2),)))
        assert all(v.contractive) and v.commuting and v.doubly_commuting
        assert not any(v.pure)
        assert not v.passed

    def test_noncommuting_detected(self):
        A = np.array([[0, 0.5], [0, 0]])
        T = ContractionTuple((A, A.conj().T))
        v = validate_tuple(T)
        assert not v.commuting
        assert v.commuting_residual[(0, 1)] == pytest.approx(0.25, abs=1e-12)

    def test_expansive_detected(self):
        v = validate_tuple(ContractionTuple((2.0 * np.eye(2),)))
        assert not all(v.contractive)
        assert v.contractive_residual[0] == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_tensor_tuples_always_pass(self, seed):
        assert validate_tuple(_random_tensor_tuple(seed)).passed


class TestDefects:
    def test_scalar_defect(self):
        T = ContractionTuple((np.array([[0.6]]),))
        d = defect_operators(T)
        assert d.big_defect[0, 0] == pytest.approx(0.8, abs=1e-12)
        assert d.rank == 1
        assert d.per_op[0].defect[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_unitary_factor_kills_joint_defect(self):
        # tensor with a unitary-like scalar of modulus near 1 keeps rank small
        T = make_tensor_tuple([np.array([[0.0]]), np.array([[0.5]])])
        d = defect_operators(T)
        # joint defect = (1)(1 - 0.25) on a 1-dim space
        assert d.big_defect[0, 0] == pytest.approx(np.sqrt(0.75), abs=1e-12)
        assert d.rank == 1

    def test_zero_tuple_defect_identity(self):
        T = ContractionTuple((np.zeros((3, 3)), np.zeros((3, 3))))
        d = defect_operators(T)
        assert np.allclose(d.big_defect, np.eye(3), atol=1e-13)
        assert d.rank == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounding_is_not_rank(self, seed):
        # T = U J U^H, J the 4x4 shift: I - T T^H, I - T^H T and the joint
        # defect have rank 1, and their zero eigenvalues carry rounding of
        # about 1e-16, which the square root would lift to about 1e-8
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        d = defect_operators(ContractionTuple((U @ np.eye(4, k=1) @ U.conj().T,)))
        assert d.rank == d.per_op[0].basis.shape[1] == d.per_op[0].basis_star.shape[1] == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_defect_commutation_for_tensor_tuples(self, seed):
        T = _random_tensor_tuple(seed)
        assert defect_commutation_check(T) <= 1e-9

    def test_star_defects_only(self, monkeypatch):
        # the residual is the one the star defects of defect_operators give,
        # bit for bit, and is taken without the joint defect
        T = _random_tensor_tuple(3)
        stars = [p.defect_star for p in defect_operators(T).per_op]
        (A, B), (Da, Db) = T.matrices, stars
        want = max(operator_norm(X @ Y - Y @ X) for X, Y in [(A, Db), (B, Da), (Da, Db)])
        monkeypatch.setattr("dcmodel.tuples.defect_operators", None)
        assert defect_commutation_check(T) == want

    def test_single_operator_trivial(self):
        T = ContractionTuple((np.array([[0.3]]),))
        assert defect_commutation_check(T) == 0.0


class TestGenerators:
    def test_tensor_kron_layout(self):
        A1 = np.array([[0.5]])
        A2 = np.array([[0.0, 0.6], [0.0, 0.0]])
        T = make_tensor_tuple([A1, A2])
        assert T.dim == 2
        assert np.allclose(T.matrices[0], 0.5 * np.eye(2))
        assert np.allclose(T.matrices[1], A2)

    def test_tensor_factor_order(self):
        A = np.diag([0.1, 0.2])
        B = np.diag([0.3, 0.4, 0.5])
        T = make_tensor_tuple([A, B])
        # factor 1 slowest-varying
        assert np.allclose(T.matrices[0], np.kron(A, np.eye(3)))
        assert np.allclose(T.matrices[1], np.kron(np.eye(2), B))

    def test_impure_factor_rejected(self):
        with pytest.raises(FactorNotPure):
            make_tensor_tuple([np.eye(2)])

    def test_random_contraction_norm_and_determinism(self):
        M1 = make_random_pure_contraction(4, 0.7, 42)
        M2 = make_random_pure_contraction(4, 0.7, 42)
        assert np.array_equal(M1, M2)
        assert operator_norm(M1) == pytest.approx(0.7, abs=1e-12)

    def test_random_contraction_bad_radius(self):
        with pytest.raises(ValueError):
            make_random_pure_contraction(3, 1.0, 0)
