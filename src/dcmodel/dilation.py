"""Truncated isometric dilation of a doubly commuting pure tuple into
the joint-defect-valued truncated Hardy space, plus its checks:
isometry, intertwining, adjoint on kernel vectors, minimality and
compression back to the input tuple."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hardy import TruncatedHardySpace, _check_polydisc, kernel_vector, row_blocks
from .matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    operator_norm,
    orthonormal_range_basis,
    subspace_distance,
    tsqr,
)
from .tuples import ContractionTuple, DefectData, defect_operators


class DegreeCapExceeded(RuntimeError):
    """Truncation tails did not decay below tolerance before the cap."""

    def __init__(self, msg: str, achieved_defect: float):
        super().__init__(msg)
        self.achieved_defect = achieved_defect


# Hard bound on the entries N dim of the dilation that one row pass
# generates; stops a runaway degree before a pass streams hours of rows.
_MAX_MATRIX_ENTRIES = 60_000_000


@dataclass(frozen=True)
class DilationMap:
    """The truncated dilation isometry ``L`` into the truncated Hardy space
    with joint-defect coefficients, held by the factors of its rows (no
    ``N``-row array; :func:`generate_rows`): row ``k`` is ``C0 T^{*k}``, the
    paper's map ``h -> sum_k D T^{*k} h z^k`` in the joint defect basis ``B``."""

    tuple: ContractionTuple
    defects: DefectData
    space: TruncatedHardySpace
    degree: int
    C0: np.ndarray  # B^H D, (rank, dim)
    powers: tuple   # powers[i][k] = T_i^{*k}, k = 0..degree

    @cached_property
    def row_pass(self) -> tuple:  # what the checks and range_factor read, from one pass
        return _row_pass(self)


def _box_sum(G: np.ndarray, M: np.ndarray, d: int) -> np.ndarray:
    """``sum_{k=0}^{d} M^k G M^{*k}`` by doubling: with ``S_n`` the first ``n``
    terms, ``S_{2n} = S_n + M^n S_n M^{*n}`` and ``S_{n+1} = G + M S_n M^*``."""
    S, P = G, M  # S_n and M^n for n = 1
    for bit in bin(d + 1)[3:]:
        S = S + P @ S @ P.conj().T
        P = P @ P
        if bit == "1":
            S = G + M @ S @ M.conj().T
            P = M @ P
    return S


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


def generate_rows(L: DilationMap, degree: int = None, overlap: bool = False):
    """The rows of ``L`` with every ``k_i <= degree`` (default ``L.degree``),
    which are the rows of the dilation at that degree, one block of whole
    first-variable layers at a time (:func:`hardy.row_blocks`): yields
    ``(a, b, X)``, ``X`` the layers ``a <= k_1 < b`` as a tensor of shape
    ``(b - a,) + shape[1:] + (dim,)``, ``shape`` that of the space at ``degree``.
    With ``overlap`` the block also holds layer ``b`` when ``b <= degree``,
    where a shift in the first variable reads.  The powers of ``T_1`` give
    the first axis; each later variable is one GEMM with all its powers side
    by side.  Each block overwrites the one before: read it before the next."""
    d = L.degree if degree is None else degree
    r, dim = L.defects.rank, L.tuple.dim
    later = [P[:d + 1].transpose(1, 0, 2).reshape(dim, -1) for P in L.powers[1:]]  # [T^{*0} ... T^{*d}]
    buf = None
    for a, b in row_blocks(TruncatedHardySpace(L.tuple.n, d, r), dim):
        X = L.powers[0][a:min(b + overlap, d + 1)]
        if buf is None:  # sized by the first, largest block: fresh block-sized arrays page-fault anew
            buf = [np.empty(len(X) * r * dim * (d + 1) ** m, dtype=complex) for m in range(L.tuple.n)]
        X = np.matmul(L.C0, X, out=buf[0][:X.size * r // dim].reshape(len(X), r, dim))
        for m, P in enumerate(later, start=1):
            Y = X.reshape(-1, dim) @ P
            X = buf[m][:Y.size].reshape(X.shape[:-2] + (d + 1, r, dim))
            X[...] = np.moveaxis(Y.reshape(X.shape[:-3] + (r, d + 1, dim)), -2, -3)
            del Y
        yield a, b, X


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
    space = TruncatedHardySpace(T.n, cur, defects.rank)
    if space.total_dim * T.dim > _MAX_MATRIX_ENTRIES:
        raise DegreeCapExceeded(f"dilation at degree {cur} would generate more rows per pass than the "
                                "work guard allows", achieved_defect=float("nan"))
    return DilationMap(tuple=T, defects=defects, space=space, degree=cur,
                       C0=defects.big_defect_basis.conj().T @ defects.big_defect,
                       powers=tuple(adjoint_powers(M, cur) for M in T.matrices))


def _gram(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``sum_p A_p^H B_p`` for stacks ``(P, ..., dim)`` of rows that flatten to a
    view, read from the real Gram of the real views (no conjugated copy)."""
    a, b = (np.reshape(Z, (len(Z), -1, Z.shape[-1])).view(np.float64) for Z in (A, B))
    S = np.matmul(a.transpose(0, 2, 1), b).sum(axis=0)
    return S[0::2, 0::2] + S[1::2, 1::2] + 1j * (S[0::2, 1::2] - S[1::2, 0::2])


def _row_pass(L: DilationMap) -> tuple:
    """``([Gram of L T_i^H - coshift_i L], [L^H shift_i L], R)`` from one
    pass over blocks of rows overlapping by one first-variable layer, ``R``
    the triangular factor of ``L = Q R`` by TSQR over the blocks
    (:func:`matrixcore.tsqr`).  With the block viewed as ``(P, K, Q, dim)``,
    the axis of variable ``i`` second (and the overlap layer for ``i == 0``),
    the rows ``L[k]`` below its top layer and their coshifts ``L[k + e_i]``
    are the slices ``[:, :-1]`` and ``[:, 1:]``."""
    dim = L.tuple.dim
    intw, comp = [0] * L.tuple.n, [0] * L.tuple.n
    R = buf = None
    for a, b, X in generate_rows(L, overlap=True):
        t, rows = X[:b - a], (b - a) * X[0].size // dim
        buf = np.empty((rows, dim), dtype=complex) if buf is None else buf
        for i, M in enumerate(L.tuple.matrices):
            v = X if i == 0 else t
            P, K = int(np.prod(v.shape[:i])), v.shape[i]
            v = v.reshape(P, K, -1, dim)
            comp[i] += _gram(v[:, 1:], v[:, :-1])
            Y = np.matmul(t.reshape(rows, dim), M.conj().T, out=buf[:rows])
            Y.reshape(P, -1, v.shape[2], dim)[:, :K - 1] -= v[:, 1:]
            intw[i] += _gram(Y[None], Y[None])
        R = tsqr(t.reshape(rows, dim), R)
    return intw, comp, R


def range_factor(L: DilationMap, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The ``dim x k`` matrix ``W`` for which ``L W`` is an orthonormal
    basis of the numerical range of the dilation matrix, without an SVD of
    the tall matrix: ``R = U diag(s) V^H`` for the triangular factor of
    ``L = Q R`` (:func:`_row_pass`) gives the singular values and right singular
    vectors of ``L``, and ``s > rank_tol s_0`` are kept, the cut of
    :func:`matrixcore.orthonormal_range_basis`.

    In ``W_0 = V_keep diag(1/s_keep)`` the small ``s`` carry a relative
    error of rounding times ``s_0 / s_min``, about 1e-8 on a rank-deficient
    ``L``; one more pass over the blocks takes the ``k x k`` Gram ``G`` of
    ``L W_0`` and returns ``W = W_0 G^{-1/2}`` (the second step of
    CholeskyQR2), which removes that error.  What stays is the rounding of
    the product ``L W`` itself, rounding times ``||L|| ||W|| = s_0 / s_min``:
    the columns of ``L W`` are orthonormal to rounding for the near-isometry
    of an adaptive run, whose ``s`` all lie near 1.

    Cutting the eigenvalues of ``L^H L`` instead would square the singular
    values: on a rank-deficient ``L`` the Gram's rounding noise (about
    1e-16) sits above ``rank_tol^2``."""
    _, s, Vh = np.linalg.svd(L.row_pass[2], full_matrices=False)
    keep = s > cfg.rank_tol * s.max(initial=0.0)
    W = Vh[keep].conj().T / s[keep]
    G = np.zeros((W.shape[1], W.shape[1]), dtype=complex)
    for _, _, X in generate_rows(L):
        Q = X.reshape(-1, L.tuple.dim) @ W
        G += _gram(Q[None], Q[None])
    e, V = np.linalg.eigh(G)
    return W @ ((V / np.sqrt(e)) @ V.conj().T)


def isometry_defect(L: DilationMap) -> float:
    """``||I - L^H L||`` on the input space, with ``L^H L = R^H R`` for the
    TSQR factor ``R`` of the row pass (:func:`_row_pass`)."""
    R = L.row_pass[2]
    return operator_norm(np.eye(L.tuple.dim) - R.conj().T @ R)


def intertwining_residual(L: DilationMap, i: int) -> float:
    """``||L T_i^H - coshift_i L||``, supported on the top coefficient layer only,
    hence bounded by the truncation tail: the square root of the largest
    eigenvalue of the difference's Gram, summed over row blocks (:func:`_row_pass`)."""
    return float(np.sqrt(max(np.linalg.eigvalsh(L.row_pass[0][i])[-1], 0.0)))


def _kernel_adjoints(L: DilationMap, w: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """``L^H k_j`` for the kernel vectors ``k_j = conj(w_j)^k eta_j`` of ``(k, n)``
    points ``w``, from the factors of the rows ``C0 T_1^{*k_1} ... T_n^{*k_n}``:
    the stacked first-variable rows ``C0 T_1^{*k}`` against the one-variable
    kernel vectors, ``(d+1) r`` long, then ``S_i = sum_k conj(w_i)^k T_i^k`` of
    each later variable in turn, so no commutation of the ``T_i`` is used."""
    k, d, r = len(w), L.degree, L.defects.rank
    _check_polydisc(w)
    kv = np.array([kernel_vector(TruncatedHardySpace(1, d, r), w[j, :1], eta[j]) for j in range(k)])
    out = kv.reshape(k, (d + 1) * r) @ np.matmul(L.C0, L.powers[0]).reshape((d + 1) * r, -1).conj()
    for i in range(1, L.tuple.n):
        S = np.tensordot(w[:, i, None] ** np.arange(d + 1), L.powers[i], axes=1)  # sum_k w^k T_i^{*k} = S_i^H
        out = np.einsum("jba,jb->ja", S.conj(), out)
    return out


def adjoint_on_kernels_check(L: DilationMap, samples) -> float:
    """Compare ``L^H`` applied to truncated kernel vectors against the
    closed-form resolvent product.  ``samples`` is a sequence of pairs
    ``(w, eta)`` with ``w`` in the polydisc and ``eta`` in joint-defect
    coordinates."""
    I = np.eye(L.tuple.dim, dtype=complex)
    k = len(samples)
    w = np.asarray([w for w, _ in samples], dtype=complex).reshape(k, L.tuple.n)
    eta = np.asarray([eta for _, eta in samples], dtype=complex).reshape(k, L.defects.rank, 1)
    lhs = _kernel_adjoints(L, w, eta[..., 0])
    v = L.defects.big_defect @ (L.defects.big_defect_basis @ eta)
    for i, M in enumerate(L.tuple.matrices):
        v = np.linalg.solve(I - np.conj(w[:, i, None, None]) * M, v)
    return max((float(np.linalg.norm(x)) for x in lhs - v[..., 0]), default=0.0)


def minimality_check(L: DilationMap, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Distance between the range of the degree-zero block of the
    dilation and the full joint-defect coordinate space.  Zero means the
    dilation is minimal (constants are hit exactly by the defect)."""
    got = orthonormal_range_basis(L.C0, cfg)  # the rows at k = 0
    want = np.eye(L.defects.rank, dtype=complex)
    return subspace_distance(got, want)


def compressed_tuple_residual(L: DilationMap) -> list:
    """Per-variable residual ``||L^H shift_i L - T_i||`` certifying that
    compressing the shifts to the dilation range recovers the tuple.
    ``L^H shift_i L`` is the sum of ``L[k + e_i]^H L[k]`` over the
    multi-indices ``k`` below the top layer in variable ``i``, taken over
    the generated row blocks (:func:`_row_pass`)."""
    return [operator_norm(comp - M) for comp, M in zip(L.row_pass[1], L.tuple.matrices)]
