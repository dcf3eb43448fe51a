"""One-variable invariant-subspace structure: fibers, wandering
subspaces, inner recovery, reconstruction, and the rank-one round trip."""

import numpy as np
import pytest

from dcmodel.blh import (
    NotCoinvariant,
    _loose_cut,
    inner_from_wandering,
    model_inner_functions,
    rankone_corollary_check,
    reconstruct_S_check,
    wandering_basis,
)
from dcmodel.dilation import build_dilation
from dcmodel.hardy import TruncatedHardySpace
from dcmodel.matrixcore import DEFAULT_TOL, operator_norm, subspace_distance
from dcmodel.model import charfns_for_tuple, model_space
from dcmodel.tuples import make_random_pure_contraction, make_tensor_tuple

import oracles


def _model_for(factors, d, adaptive=False):
    T = make_tensor_tuple(factors)
    L = build_dilation(T, d=d, adaptive=adaptive)
    cfs = charfns_for_tuple(T, L.defects)
    return model_space(T, L, cfs)


def _scalar_series(inner):
    return np.array([inner.columns[m][0, 0] for m in range(len(inner.columns))])


def _moebius_series(lam, d):
    out = np.zeros(d + 1, dtype=complex)
    out[0] = -lam
    for m in range(1, d + 1):
        out[m] = (1 - lam ** 2) * lam ** (m - 1)
    return out


def _phase_aligned_error(got, want):
    j = int(np.argmax(np.abs(want)))
    phase = got[j] / want[j]
    phase /= abs(phase)
    return float(np.max(np.abs(got / phase - want[: len(got)])))


class TestWandering:
    # each subspace is given by an orthonormal basis of its complement
    def test_monomial_subspace(self):
        # S = span{z, ..., z^d}, complement {1}: wandering part is exactly {z}
        d = 5
        W = wandering_basis(np.eye(d + 1, dtype=complex)[:, :1], d, 1)
        assert W.shape == (d + 1, 1)
        assert abs(W[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_full_space_wanders_at_constants(self):
        d = 4
        W = wandering_basis(np.zeros((d + 1, 0), dtype=complex), d, 1)
        assert W.shape == (d + 1, 1)
        assert abs(W[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_subspace(self):
        assert wandering_basis(np.eye(4, dtype=complex), 3, 1).shape == (4, 0)

    def test_inner_from_wandering_empty(self):
        inn = inner_from_wandering(np.zeros((4, 0)), 1)
        assert inn.inner_dim == 0 and inn.columns == ()


class TestModelInnerFunctions:
    def test_zero_tuple_recovers_coordinates(self):
        ms = _model_for([np.zeros((1, 1)), np.zeros((1, 1))], d=4)
        inners = model_inner_functions(ms)
        for i, inn in enumerate(inners):
            assert inn.inner_dim == 1
            s = _scalar_series(inn)
            want = np.zeros(5, dtype=complex)
            want[1] = 1.0
            assert _phase_aligned_error(s, want) <= 1e-12
        assert reconstruct_S_check(inners, ms) <= 1e-12

    def test_moebius_pair_recovery(self):
        lams = [0.5, 0.6]
        ms = _model_for([[[lam]] for lam in lams], d=20)
        inners = model_inner_functions(ms)
        for lam, inn in zip(lams, inners):
            assert inn.inner_dim == 1
            err = _phase_aligned_error(_scalar_series(inn), _moebius_series(lam, 20))
            assert err <= 1e-6
        assert reconstruct_S_check(inners, ms) <= 1e-5

    def test_nilpotent_exact(self):
        ms = _model_for([[[0.0]], np.array([[0, 0.6], [0, 0]])], d=6)
        inners = model_inner_functions(ms)
        assert reconstruct_S_check(inners, ms) <= 1e-9

    # the raw model factors (and T T^H of the recovered symbols) have
    # eigenvalues only near 0 and 1. On the first three inputs the MRRR
    # subset eigensolver fails with "Internal Error"; on the two seeded
    # random-3x1 inputs the expert one ("evx") returns model-fiber vectors
    # that are orthogonal only to 5e-2 and 4e-3.
    CLUSTERED = {
        "random-3x1": [np.diag([0.03134608984832728 - 0.005300186625672597j,
                                0.0038535050073783736 + 0.009927844772496832j,
                                -0.0034963792357965142 + 0.05569184066638125j]),
                       np.diag([0.0011279753116889605 - 0.009695126985033055j])],
        "random-2x2": [np.diag([-0.035587607654129036 - 0.010148839538177704j,
                                0.019377136001865466 - 0.11475973208156146j]),
                       np.diag([0.10600801922899869 + 0.14465316320079682j,
                                0.11544479323544982 + 0.13861673164946384j])],
        "tensor-3": [np.array([
            [0.13152189292504912 - 0.05173640168751536j, -0.09168652436311273 - 0.1976013759296691j,
             -0.14505600580601333 - 0.009159835385347016j],
            [0.21105945225242367 - 0.0893186760020633j, 0.11317984693550867 + 0.01682562330206968j,
             0.2714303004992361 + 0.03277809507760742j],
            [0.06037031324270788 - 0.027003496938985946j, -0.05666022853294215 + 0.021121299387599483j,
             -0.11518626744216934 - 0.020339776300673705j]])],
        "random-3x1-seed15": [np.diag([0.12940077115237072 + 0.06929347831685723j,
                                       -0.04685227617715249 - 0.05460815733533849j,
                                       0.10823190646223904 - 0.13007721105088424j]),
                              np.diag([0.10635964505987956 + 0.11449175554361843j])],
        "random-3x1-seed33": [np.diag([0.1670829969330054 + 0.02072213834524543j,
                                       0.0022847462368007962 + 0.01460649034542962j,
                                       0.021928035018817887 + 0.01166820312989349j]),
                              np.diag([-0.09857797561160914 + 0.021975181894898527j])],
    }

    @pytest.mark.parametrize("case", sorted(CLUSTERED))
    def test_clustered_toeplitz_spectrum(self, case):
        ms = _model_for(self.CLUSTERED[case], d=8, adaptive=True)
        inners = model_inner_functions(ms)
        for B in ms.fibers:
            assert np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1]))) <= 1e-12
        assert reconstruct_S_check(inners, ms) <= 1e-9


class TestDenseOracle:
    """The one-variable BLH path against the dense ``N x N`` oracle, and
    the recovered-range complements against the dense eigensolver."""

    CASES = {
        "tensor-2x2": (lambda: [make_random_pure_contraction(2, 0.4, 11),
                                make_random_pure_contraction(2, 0.4, 12)], 8),
        "moebius-pair": (lambda: [[[0.5]], [[0.6]]], 20),
        "nilpotent": (lambda: [[[0.0]], np.array([[0, 0.6], [0, 0]])], 6),
        "one-variable": (lambda: [make_random_pure_contraction(3, 0.5, 9)], 10),
        "three-variables": (lambda: [make_random_pure_contraction(2, 0.3, 7),
                                     [[0.2]], [[0.15]]], 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_dense(self, case):
        factors, d = self.CASES[case]
        ms = _model_for(factors(), d=d)
        got, want = model_inner_functions(ms), oracles.inner_functions(ms)
        assert [inn.variable for inn in got] == list(range(ms.space.n))
        for a, b in zip(got, want):
            assert a.inner_dim == b.inner_dim > 0
            # inner functions are unique up to a constant unitary: compare spans
            assert subspace_distance(np.vstack(a.columns), np.vstack(b.columns)) <= 1e-12
        tol = np.sqrt(DEFAULT_TOL.tail_tol)
        drift = max(inn.isometry_drift for inn in got)
        assert (drift <= tol) == (max(inn.isometry_drift for inn in want) <= tol)
        rec, rec_dense = reconstruct_S_check(got, ms), oracles.reconstruct_distance(want, ms)
        assert (rec <= tol) == (rec_dense <= tol)
        # the telescoped sum bounds the dense distance from above
        assert rec >= rec_dense * (1 - 1e-8) - 1e-14

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bounds_read_at_least_dense(self, case):
        # the Frobenius isometry drifts against the spectral norm of the same
        # blocks, and the telescoped reconstruction sum against the dense norm
        # of the box operator it bounds, prod(I (x) (I - A_i) (x) I) -
        # prod(I (x) K_i K_i^H (x) I), with A_i the box block of T_i T_i^H for
        # the dense Toeplitz matrix T_i of the recovered columns
        factors, d = self.CASES[case]
        ms = _model_for(factors(), d=d)
        inners = model_inner_functions(ms)
        # 1e-14: both drifts are rounding (about 1e-16) on an exact inner function
        for inner in inners:
            assert inner.isometry_drift >= oracles.isometry_drift(inner, d) * (1 - 1e-8) - 1e-14
        rows = (ms.box.degree + 1) * ms.box.coeff_dim
        comps = []
        for inner in inners:
            T = oracles.one_var_toeplitz(inner.columns, d)[:rows]
            comps.append(np.eye(rows) - T @ T.conj().T)
        X = oracles.dense_axis_operators(ms.box, comps) - oracles.dense_axis_projections(ms.box, ms.box_fibers)
        rec = reconstruct_S_check(inners, ms)
        # 1e-14: the rounding of the dense difference of unit-norm products
        assert rec >= operator_norm(X) * (1 - 1e-8) - 1e-14
        assert rec >= oracles.reconstruct_distance(inners, ms) * (1 - 1e-8) - 1e-14

    @pytest.mark.parametrize("case", sorted(CASES) + sorted(TestModelInnerFunctions.CLUSTERED))
    def test_range_complements_match_eigh(self, case):
        # the box block I - A of the recovered complement projection, A from
        # the Toeplitz Gram, against the box rows of the eigenvectors of T T^H
        # below the cut: the two differ by the distance of the spectrum of
        # T T^H from {0, 1}, which bounds the norm of any compression
        if case in self.CASES:
            factors, d = self.CASES[case]
            ms = _model_for(factors(), d=d)
        else:
            ms = _model_for(TestModelInnerFunctions.CLUSTERED[case], d=8, adaptive=True)
        d, layers = ms.space.degree, ms.box.degree + 1
        for inner in model_inner_functions(ms):
            rows = layers * inner.coeff_dim
            A = oracles.toeplitz_gram(inner.columns, d, layers, "out")
            lam, V = oracles.toeplitz_gram_eigh(inner.columns, d)
            assert np.max(np.abs(A - (V * lam)[:rows] @ V[:rows].conj().T)) <= 1e-14
            W = V[:rows, lam <= _loose_cut(DEFAULT_TOL) ** 2 * lam[-1]]
            gap = np.max(np.minimum(np.abs(lam), np.abs(1.0 - lam)))
            assert gap <= np.sqrt(DEFAULT_TOL.tail_tol)
            assert operator_norm(np.eye(rows) - A - W @ W.conj().T) <= gap + 1e-14


@pytest.fixture(scope="module")
def space():
    return TruncatedHardySpace(2, 6, 1)


class TestRankOne:
    def _basis(self, space, monomials):
        Q = np.zeros((space.total_dim, len(monomials)), dtype=complex)
        for j, k in enumerate(monomials):
            Q[oracles.index_pos(space)[k], j] = 1.0
        return Q

    def test_constants_subspace(self, space):
        v = rankone_corollary_check(self._basis(space, [(0, 0)]), space)
        assert v.doubly_commuting and v.pure
        assert v.defect_rank == 1
        assert v.constants_compression_rank == 1
        assert v.complement_distance <= 1e-10
        # recovered symbols are the coordinate monomials
        for inn in v.recovered_inners:
            s = np.array([inn.columns[m][0, 0] for m in range(len(inn.columns))])
            assert abs(abs(s[1]) - 1.0) <= 1e-12

    def test_monomial_model_subspace(self, space):
        # span{1, z1} is the model of symbols z1^2 and z2
        v = rankone_corollary_check(self._basis(space, [(0, 0), (1, 0)]), space)
        assert v.doubly_commuting and v.pure
        assert v.defect_rank == 1
        assert v.complement_distance <= 1e-10
        degs = sorted(
            int(np.argmax([abs(inn.columns[m][0, 0]) for m in range(len(inn.columns))]))
            for inn in v.recovered_inners
        )
        assert degs == [1, 2]

    def test_negative_case_residual_half(self, space):
        Q = np.zeros((space.total_dim, 2), dtype=complex)
        Q[oracles.index_pos(space)[(0, 0)], 0] = 1.0
        Q[oracles.index_pos(space)[(1, 0)], 1] = 1 / np.sqrt(2)
        Q[oracles.index_pos(space)[(0, 1)], 1] = 1 / np.sqrt(2)
        v = rankone_corollary_check(Q, space)
        assert not v.doubly_commuting
        assert v.max_commutation_residual == pytest.approx(0.5, abs=1e-12)
        assert v.violating_pair in ((0, 1), (1, 0))
        assert v.recovered_inners == ()

    def test_rejects_zero_subspace(self, space):
        with pytest.raises(NotCoinvariant):
            rankone_corollary_check(np.zeros((space.total_dim, 0)), space)

    def test_rejects_non_orthonormal(self, space):
        Q = 2.0 * self._basis(space, [(0, 0)])
        with pytest.raises(NotCoinvariant):
            rankone_corollary_check(Q, space)

    def test_rejects_non_coinvariant(self, space):
        # span{z1} is not invariant under the adjoint shift
        with pytest.raises(NotCoinvariant):
            rankone_corollary_check(self._basis(space, [(1, 0)]), space)

    def test_rejects_vector_coefficients(self):
        sp = TruncatedHardySpace(2, 2, 2)
        with pytest.raises(ValueError):
            rankone_corollary_check(np.zeros((sp.total_dim, 1)), sp)
