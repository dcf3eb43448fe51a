"""Truncated isometric dilation of a doubly commuting pure tuple into
the joint-defect-valued truncated Hardy space, plus its checks:
isometry, intertwining, adjoint on kernel vectors, minimality and
compression back to the input tuple."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import TruncatedHardySpace, _check_polydisc, _powers, kernel_vector, row_blocks
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


# Hard bound on the entries N dim of the dilation; the box passes of
# model.model_space generate its rows at the margin box degree, and this stops
# a runaway degree before they stream hours of rows.
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

    @property
    def gram0(self) -> np.ndarray:
        """``C0^H C0`` (``D^2`` on the kept defect range), the Gram of the rows at k = 0."""
        return self.C0.conj().T @ self.C0


def _add(A: np.ndarray, B: np.ndarray, P: np.ndarray) -> np.ndarray:
    return A + P @ B @ P.conj().T


def _stack(A: np.ndarray, B: np.ndarray, P: np.ndarray) -> np.ndarray:
    """A triangular factor of ``A^H A + P B^H B P^H``, from the factors ``A`` and ``B``."""
    return np.linalg.qr(np.concatenate([A, B @ P.conj().T]), mode="r")


def _box_sum(G: np.ndarray, M: np.ndarray, d: int, join=_add) -> np.ndarray:
    """``sum_{k=0}^{d} M^k G M^{*k}`` by doubling (zero when ``d < 0``): with
    ``S_n`` the first ``n`` terms, ``S_{2n} = S_n + M^n S_n M^{*n}`` and
    ``S_{n+1} = G + M S_n M^*``.  With ``join=_stack``, ``G`` and the result
    are factors ``R`` of the sums ``R^H R``, and each step is a QR of stacked
    factors, never a Gram: Smith's doubling (SIAM J. Appl. Math. 16, 1968) in
    the square-root form of Hammarling (IMA J. Numer. Anal. 2, 1982)."""
    if d < 0:
        return np.zeros_like(G)
    S, P = G, M  # S_n and M^n for n = 1
    for bit in bin(d + 1)[3:]:
        S = join(S, S, P)
        P = P @ P
        if bit == "1":
            S = join(G, S, M)
            P = M @ P
    return S


def _box(G: np.ndarray, T: ContractionTuple, degrees, join=_add) -> np.ndarray:
    """``sum_k T^k G T^{*k}`` over the box ``k_i <= degrees[i]``, variable 1
    innermost, as in the Gram of the rows ``C0 T_1^{*k_1} ... T_n^{*k_n}``
    (:func:`_box_sum`; degree 0 leaves ``G`` as it is)."""
    for M, d in zip(T.matrices, degrees):
        G = _box_sum(G, M, d, join)
    return G


def _box_gram_defect(T: ContractionTuple, big_defect_sq: np.ndarray, d: int) -> float:
    """``||I - sum_{k in box} T^k D^2 T^{*k}||`` without building the
    dilation matrix (the box is per-variable degree <= d)."""
    return operator_norm(np.eye(T.dim) - _box(big_defect_sq, T, [d] * T.n))


def _top_layer_tail(T: ContractionTuple, big_defect_sq: np.ndarray, d: int, i: int) -> float:
    """Exact norm of the intertwining defect of variable ``i`` at degree ``d``:
    the truncated relation fails only on the layer k_i = d, and the squared
    residual there is
    ``||T_i^{d+1} (sum_{box, j != i} T^k D^2 T^{*k}) T_i^{*(d+1)}||``."""
    G = _box(big_defect_sq, T, [0 if j == i else d for j in range(T.n)])
    Pi = np.linalg.matrix_power(T.matrices[i], d + 1)
    return float(np.sqrt(operator_norm(Pi @ G @ Pi.conj().T)))


def adjoint_powers(M: np.ndarray, d: int) -> np.ndarray:
    """``M^{*k}`` for ``k = 0..d``, stacked along the first axis."""
    powers = [np.eye(M.shape[0], dtype=complex)]
    for _ in range(d):
        powers.append(powers[-1] @ M.conj().T)
    return np.array(powers)


def generate_rows(L: DilationMap, degree: int = None):
    """The rows of ``L`` with every ``k_i <= degree`` (default ``L.degree``),
    which are the rows of the dilation at that degree, one block of whole
    first-variable layers at a time (:func:`hardy.row_blocks`): yields
    ``(a, b, X)``, ``X`` the layers ``a <= k_1 < b`` as a tensor of shape
    ``(b - a,) + shape[1:] + (dim,)``, ``shape`` that of the space at ``degree``.
    The powers of ``T_1`` give the first axis; each later variable is one GEMM
    with all its powers side by side.  Each block overwrites the one before:
    read it before the next."""
    d = L.degree if degree is None else degree
    r, dim = L.defects.rank, L.tuple.dim
    later = [P[:d + 1].transpose(1, 0, 2).reshape(dim, -1) for P in L.powers[1:]]  # [T^{*0} ... T^{*d}]
    buf = None
    for a, b in row_blocks(TruncatedHardySpace(L.tuple.n, d, r), dim):
        X = L.powers[0][a:b]
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
        return max(_box_gram_defect(T, D2, dd), *(_top_layer_tail(T, D2, dd, i) for i in range(T.n)))

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


def range_factor(L: DilationMap, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The ``dim x k`` matrix ``W`` for which ``L W`` is an orthonormal
    basis of the numerical range of the dilation matrix, with no row of ``L``
    read: a triangular ``R`` with ``R^H R = L^H L`` comes from the doubling of
    the Gram ``sum_k T^k C0^H C0 T^{*k}`` in square-root form (:func:`_box_sum`
    with :func:`_stack`, from ``C0``), so ``L = Q R`` with ``Q`` orthonormal, and
    ``R = U diag(s) V^H`` gives the singular values and right singular vectors
    of ``L``.  The ``s > rank_tol s_0`` are kept, the cut of
    :func:`matrixcore.orthonormal_range_basis`, and ``W = V_keep diag(1/s_keep)``,
    so ``L W = Q U_keep``.

    Cutting the eigenvalues of ``L^H L`` instead would square the singular
    values: on a rank-deficient ``L`` the Gram's rounding noise (about
    1e-16) sits above ``rank_tol^2``."""
    _, s, Vh = np.linalg.svd(_box(L.C0, L.tuple, [L.degree] * L.tuple.n, _stack), full_matrices=False)
    keep = s > cfg.rank_tol * s.max(initial=0.0)
    return Vh[keep].conj().T / s[keep]


def isometry_defect(L: DilationMap) -> float:
    """``||I - L^H L||`` on the input space, with ``L^H L`` the box sum of the
    Gram of the rows at k = 0 (:func:`_box_gram_defect`)."""
    return _box_gram_defect(L.tuple, L.gram0, L.degree)


def intertwining_residual(L: DilationMap, i: int) -> float:
    """``||L T_i^H - coshift_i L||``, supported on the top coefficient layer
    of variable ``i`` only, hence bounded by the truncation tail; read in closed
    form, the degree search's own measure (:func:`_top_layer_tail`), which uses
    ``T_i^* T_j^* = T_j^* T_i^*``."""
    return _top_layer_tail(L.tuple, L.gram0, L.degree, i)


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
        S = np.tensordot(_powers(w[:, i], d), L.powers[i], axes=1)  # sum_k w^k T_i^{*k} = S_i^H
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
    ``L^H shift_i L`` sums ``L[k + e_i]^H L[k] = T_i T^k C0^H C0 T^{*k}`` over
    the multi-indices ``k`` below the top layer in variable ``i``, so the
    residual is ``||T_i (G_i - I)||``, ``G_i`` the box sum with variable ``i``
    summed to ``d - 1`` (none at ``d = 0``) and every other to ``d``.  Writing
    ``L[k + e_i]`` as ``L[k] T_i^*`` uses ``T_i^* T_j^* = T_j^* T_i^*``, which
    the suite certifies first (``validate.commuting``)."""
    n = L.tuple.n
    return [operator_norm(M @ _box(L.gram0, L.tuple, [L.degree - (j == i) for j in range(n)]) - M)
            for i, M in enumerate(L.tuple.matrices)]
