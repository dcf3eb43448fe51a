"""Truncated isometric dilation of a doubly commuting pure tuple into
the joint-defect-valued truncated Hardy space, plus its checks:
isometry, intertwining, adjoint on kernel vectors, minimality and
compression back to the input tuple."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import TruncatedHardySpace, _check_polydisc, kernel_vector, next_layers, row_blocks
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


def _build_matrix(T: ContractionTuple, defects: DefectData, d: int) -> tuple:
    space = TruncatedHardySpace(T.n, d, defects.rank)
    if space.total_dim * T.dim > _MAX_MATRIX_ENTRIES:
        raise DegreeCapExceeded(
            f"dilation matrix at degree {d} would exceed the memory guard",
            achieved_defect=float("nan"),
        )
    B = defects.big_defect_basis
    C0 = B.conj().T @ defects.big_defect  # (rank, dim)
    # rows C0 T_1^{*k_1} ... T_n^{*k_n}, one axis at a time: the powers of
    # T_1 directly, then for each later variable one GEMM with all its
    # powers side by side per row block, written into the output (no
    # temporary of the output's size)
    X = np.matmul(C0, adjoint_powers(T.matrices[0], d))
    for m, M in enumerate(T.matrices[1:], start=2):
        P = adjoint_powers(M, d).transpose(1, 0, 2).reshape(T.dim, -1)  # [T^{*0} ... T^{*d}]
        sub = TruncatedHardySpace(m, d, defects.rank)  # the first m variables
        out = np.empty(sub.shape + (T.dim,), dtype=complex)
        for a, b in row_blocks(sub, out):
            Xb = X[a:b]
            Y = (Xb.reshape(-1, T.dim) @ P).reshape(Xb.shape[:-1] + (d + 1, T.dim))
            out[a:b] = np.moveaxis(Y, -2, -3)  # the new axis before the coefficient axis
        X = out
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


def _tensor(L: DilationMap) -> np.ndarray:
    """The dilation matrix as a tensor view of shape ``space.shape + (dim,)``."""
    return L.matrix.reshape(L.space.shape + (L.tuple.dim,))


def _gram(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A^H B`` for two arrays of flat rows with a trailing column axis."""
    A, B = A.reshape(-1, A.shape[-1]), B.reshape(-1, B.shape[-1])
    return A.conj().T @ B


def range_factor(L: DilationMap, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The ``dim x k`` matrix ``W`` for which ``L W`` is an orthonormal
    basis of the numerical range of the dilation matrix, without an SVD of
    the tall matrix.  The triangular factor ``R`` of ``L = Q R`` comes from
    QR factorizations over row blocks (:func:`hardy.row_blocks`; TSQR,
    Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34, 2012), so
    ``R = U diag(s) V^H`` gives the singular values ``s`` and right singular
    vectors ``V`` of ``L``.  The values ``s > rank_tol s_0`` are kept, the
    cut of :func:`matrixcore.orthonormal_range_basis`.

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
    t = _tensor(L)
    R = np.zeros((0, L.tuple.dim), dtype=complex)
    for a, b in row_blocks(L.space, L.matrix):
        R = np.linalg.qr(np.concatenate([R, t[a:b].reshape(-1, L.tuple.dim)]), mode="r")
    _, s, Vh = np.linalg.svd(R, full_matrices=False)
    keep = s > cfg.rank_tol * s.max(initial=0.0)
    W = Vh[keep].conj().T / s[keep]
    G = np.zeros((W.shape[1], W.shape[1]), dtype=complex)
    for a, b in row_blocks(L.space, L.matrix):
        Q = t[a:b].reshape(-1, L.tuple.dim) @ W
        G += Q.conj().T @ Q
    e, V = np.linalg.eigh(G)
    return W @ ((V / np.sqrt(e)) @ V.conj().T)


def isometry_defect(L: DilationMap) -> float:
    """``||I - L^H L||`` on the input space, the Gram summed over row
    blocks (:func:`hardy.row_blocks`)."""
    t = _tensor(L)
    G = np.zeros((L.tuple.dim, L.tuple.dim), dtype=complex)
    for a, b in row_blocks(L.space, L.matrix):
        G += _gram(t[a:b], t[a:b])
    return operator_norm(np.eye(L.tuple.dim) - G)


def intertwining_residual(L: DilationMap, i: int) -> float:
    """``||L T_i^H - coshift_i L||``; supported on the top coefficient
    layer only, hence bounded by the truncation tail.

    The difference is formed one row block at a time (:func:`hardy.row_blocks`;
    the coshift in the first variable reads across the seam into the next
    block), and its norm is the square root of the largest eigenvalue of
    its ``dim x dim`` Gram matrix, summed over the blocks."""
    t = _tensor(L)
    Mh = L.tuple.matrices[i].conj().T
    G = np.zeros((L.tuple.dim, L.tuple.dim), dtype=complex)
    for a, b in row_blocks(L.space, L.matrix):
        X = (t[a:b].reshape(-1, L.tuple.dim) @ Mh).reshape(t[a:b].shape)
        nxt = next_layers(t, a, b, i)
        np.moveaxis(X, i, 0)[:len(nxt)] -= nxt
        G += _gram(X, X)
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def _kernel_adjoints(L: DilationMap, w: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """``L^H k_j`` for the kernel vectors ``k_j = conj(w_j)^k eta_j`` of ``(k, n)``
    points ``w``: its conjugate contracts the tensor view of ``L`` with the
    powers ``w_ji^k`` of the first ``n - 1`` variables (a GEMM, then an einsum
    per axis) and the conjugate last-variable kernel vector, ``(d+1) r`` long.
    In chunks of ``(d+1) // dim`` samples no product holds over ``N`` entries."""
    k, d, r = len(w), L.degree, L.defects.rank
    _check_polydisc(w)
    kv = np.array([kernel_vector(TruncatedHardySpace(1, d, r), w[j, -1:], eta[j]) for j in range(k)])
    factors = [w[:, i, None] ** np.arange(d + 1) for i in range(L.tuple.n - 1)]
    factors.append(kv.conj().reshape(k, (d + 1) * r))
    step, out = max(1, (d + 1) // L.tuple.dim), np.empty((k, L.tuple.dim), dtype=complex)
    for a in range(0, k, step):
        F = [f[a:a + step] for f in factors]
        X = F[0] @ L.matrix.reshape(F[0].shape[1], -1)
        for f in F[1:]:
            X = np.einsum("ja,jax->jx", f, X.reshape(len(f), f.shape[1], -1))
        out[a:a + step] = X.conj()
    return out


def adjoint_on_kernels_check(L: DilationMap, samples, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
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
    r = L.defects.rank
    got = orthonormal_range_basis(L.matrix[:r], cfg)  # k = 0 is row block 0 in lexicographic order
    want = np.eye(r, dtype=complex)
    return subspace_distance(got, want)


def compressed_tuple_residual(L: DilationMap) -> list:
    """Per-variable residual ``||L^H shift_i L - T_i||`` certifying that
    compressing the shifts to the dilation range recovers the tuple.
    ``L^H shift_i L`` is the sum of ``L[k + e_i]^H L[k]`` over the
    multi-indices ``k`` below the top layer in variable ``i``, taken one
    row block at a time (:func:`hardy.next_layers`)."""
    t = _tensor(L)
    out = []
    for i, M in enumerate(L.tuple.matrices):
        comp = np.zeros_like(M)
        for a, b in row_blocks(L.space, L.matrix):
            nxt = next_layers(t, a, b, i)
            comp += _gram(nxt, np.moveaxis(t[a:b], i, 0)[:len(nxt)])
        out.append(operator_norm(comp - M))
    return out
