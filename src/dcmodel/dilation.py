"""Truncated isometric dilation of a doubly commuting pure tuple into
the joint-defect-valued truncated Hardy space, plus its checks:
isometry, intertwining, adjoint on kernel vectors, minimality and
compression back to the input tuple."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import TruncatedHardySpace, _axis_view, apply_shift, kernel_vector
from .matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    operator_norm,
    orthonormal_range_basis,
    subspace_distance,
)
from .tuples import ContractionTuple, DefectData, defect_operators


class DegreeCapExceeded(RuntimeError):
    """Truncation tails did not decay below tolerance before the cap."""

    def __init__(self, msg: str, achieved_defect: float):
        super().__init__(msg)
        self.achieved_defect = achieved_defect


# Hard bound on entries of the dilation matrix; guards against runaway
# adaptive degrees on slow-decay inputs.
_MAX_MATRIX_ENTRIES = 60_000_000


@dataclass(frozen=True)
class DilationMap:
    """Truncated matrix of the dilation isometry from the input space
    into the truncated Hardy space with joint-defect coefficients."""

    tuple: ContractionTuple
    defects: DefectData
    space: TruncatedHardySpace
    matrix: np.ndarray  # (space.total_dim, dim)
    degree: int


def _box_sum(G: np.ndarray, M: np.ndarray, d: int) -> np.ndarray:
    """``sum_{k=0}^{d} M^k G M^{*k}``."""
    acc = np.zeros_like(G)
    P = np.eye(M.shape[0], dtype=complex)
    for _ in range(d + 1):
        acc = acc + P @ G @ P.conj().T
        P = M @ P
    return acc


def _box_gram_defect(T: ContractionTuple, big_defect_sq: np.ndarray, d: int) -> float:
    """``||I - sum_{k in box} T^k D^2 T^{*k}||`` without building the
    dilation matrix (the box is per-variable degree <= d)."""
    G = big_defect_sq
    for M in T.matrices:
        G = _box_sum(G, M, d)
    return operator_norm(np.eye(T.dim) - G)


def _top_layer_tail(T: ContractionTuple, big_defect_sq: np.ndarray, d: int) -> float:
    """Exact norm of the intertwining defect at degree ``d``: for each
    variable the truncated relation fails only on the layer k_i = d, and
    the squared residual there is
    ``||T_i^{d+1} (sum_{box, j != i} T^k D^2 T^{*k}) T_i^{*(d+1)}||``."""
    worst = 0.0
    for i, M in enumerate(T.matrices):
        G = big_defect_sq
        for j, Mj in enumerate(T.matrices):
            if j != i:
                G = _box_sum(G, Mj, d)
        Pi = np.linalg.matrix_power(M, d + 1)
        worst = max(worst, float(np.sqrt(operator_norm(Pi @ G @ Pi.conj().T))))
    return worst


def adjoint_powers(M: np.ndarray, d: int) -> np.ndarray:
    """``M^{*k}`` for ``k = 0..d``, stacked along the first axis."""
    powers = [np.eye(M.shape[0], dtype=complex)]
    for _ in range(d):
        powers.append(powers[-1] @ M.conj().T)
    return np.array(powers)


def _build_matrix(T: ContractionTuple, defects: DefectData, d: int) -> tuple:
    space = TruncatedHardySpace(T.n, d, defects.rank)
    if space.total_dim * T.dim > _MAX_MATRIX_ENTRIES:
        raise DegreeCapExceeded(
            f"dilation matrix at degree {d} would exceed the memory guard",
            achieved_defect=float("nan"),
        )
    B = defects.big_defect_basis
    X = B.conj().T @ defects.big_defect  # C0, (rank, dim)
    # rows C0 T_1^{*k_1} ... T_n^{*k_n}, one axis at a time
    for M in T.matrices:
        X = np.einsum("...ra,kab->...krb", X, adjoint_powers(M, d), optimize=True)
    return space, X.reshape(space.total_dim, T.dim)


def build_dilation(
    T: ContractionTuple,
    d: int = 8,
    cfg: ToleranceConfig = DEFAULT_TOL,
    adaptive: bool = True,
    degree_cap: int = 4096,
) -> DilationMap:
    """Build the truncated dilation at degree ``d``; when ``adaptive``,
    double the degree until both the isometry defect and the top-layer
    (intertwining) tail drop below ``tail_tol``, or the cap is hit (then
    :class:`DegreeCapExceeded`).

    Controlling the top-layer tail as well is deliberate: the isometry
    defect is quadratic in the dropped coefficients while the
    intertwining residual is linear in them, so stopping on the defect
    alone would leave intertwining residuals near ``sqrt(tail_tol)``."""
    defects = defect_operators(T, cfg)
    D2 = defects.big_defect @ defects.big_defect
    cur = d

    def measure(dd: int) -> float:
        return max(_box_gram_defect(T, D2, dd), _top_layer_tail(T, D2, dd))

    if adaptive:
        defect = measure(cur)
        while defect > cfg.tail_tol:
            if cur * 2 > degree_cap:
                raise DegreeCapExceeded(
                    f"truncation tail {defect:.3e} still above tail_tol at degree {cur}",
                    achieved_defect=defect,
                )
            cur *= 2
            defect = measure(cur)
    space, L = _build_matrix(T, defects, cur)
    return DilationMap(tuple=T, defects=defects, space=space, matrix=L, degree=cur)


def isometry_defect(L: DilationMap) -> float:
    """``||I - L^H L||`` on the input space."""
    G = L.matrix.conj().T @ L.matrix
    return operator_norm(np.eye(L.tuple.dim) - G)


def intertwining_residual(L: DilationMap, i: int) -> float:
    """``||L T_i^H - coshift_i L||``; supported on the top coefficient
    layer only, hence bounded by the truncation tail.

    The difference is formed over every layer (one ``N x dim`` array,
    the coshift subtracted in place), and its norm is the square root of
    the largest eigenvalue of its ``dim x dim`` Gram matrix."""
    X = L.matrix @ L.tuple.matrices[i].conj().T
    _axis_view(L.space, X, i)[:-1] -= _axis_view(L.space, L.matrix, i)[1:]
    return float(np.sqrt(max(np.linalg.eigvalsh(X.conj().T @ X)[-1], 0.0)))


def adjoint_on_kernels_check(L: DilationMap, samples, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Compare ``L^H`` applied to truncated kernel vectors against the
    closed-form resolvent product.  ``samples`` is a sequence of pairs
    ``(w, eta)`` with ``w`` in the polydisc and ``eta`` in joint-defect
    coordinates."""
    B = L.defects.big_defect_basis
    D = L.defects.big_defect
    I = np.eye(L.tuple.dim, dtype=complex)
    worst = 0.0
    for w, eta in samples:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        kv = kernel_vector(L.space, w, eta)
        lhs = (kv.conj() @ L.matrix).conj()  # L^H kv without copying L
        v = D @ (B @ np.asarray(eta, dtype=complex).reshape(-1))
        for i, M in enumerate(L.tuple.matrices):
            v = np.linalg.solve(I - np.conj(w[i]) * M, v)
        worst = max(worst, float(np.linalg.norm(lhs - v)))
    return worst


def minimality_check(L: DilationMap, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Distance between the range of the degree-zero block of the
    dilation and the full joint-defect coordinate space.  Zero means the
    dilation is minimal (constants are hit exactly by the defect)."""
    r = L.defects.rank
    got = orthonormal_range_basis(L.matrix[:r], cfg)  # k = 0 is row block 0 in lexicographic order
    want = np.eye(r, dtype=complex)
    return subspace_distance(got, want)


def compressed_tuple_residual(L: DilationMap) -> list:
    """Per-variable residual ``||L^H shift_i L - T_i||`` certifying that
    compressing the shifts to the dilation range recovers the tuple."""
    out = []
    for i, M in enumerate(L.tuple.matrices):
        comp = L.matrix.conj().T @ apply_shift(L.space, L.matrix, i)
        out.append(operator_norm(comp - M))
    return out
