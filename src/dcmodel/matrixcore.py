"""Dense complex-matrix foundations: PSD square roots, range bases,
norms, spectral radii and subspace comparison.

Everything here works on plain ``numpy`` arrays with complex entries.
All functions are pure; tolerance policy lives in :class:`ToleranceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalFailure(Exception):
    """An underlying eigen/singular-value computation failed."""


class NotHermitian(NumericalFailure):
    """Input matrix is asymmetric beyond the accepted tolerance."""


class NotPSD(NumericalFailure):
    """Input matrix has an eigenvalue below the accepted negative slack."""


class DimensionMismatch(ValueError):
    """Operands live in incompatible ambient dimensions."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical acceptance thresholds shared across the toolkit.

    rank_tol   -- relative singular-value cutoff for numerical rank
    check_tol  -- residual bound for identities that hold exactly
    tail_tol   -- residual bound for identities limited by truncation tails
    """

    rank_tol: float = 1e-10
    check_tol: float = 1e-9
    tail_tol: float = 1e-6

    def __post_init__(self):
        if not (self.rank_tol > 0 and self.check_tol > 0 and self.tail_tol > 0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = ToleranceConfig()

# entries of a column below this share of its largest modulus are taken as
# rounding noise by phase_normalize_columns: it bounds how small an entry
# may be and still be the pivot whose phase fixes the column's phase
_PIVOT_FLOOR = 1e-8


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains NaN or Inf entries")
    return A


def operator_norm(M) -> float:
    """Largest singular value; of a ``(k, m, n)`` stack of matrices, the
    largest over the stack, from one stacked SVD."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 3:
        A = as_matrix(A)
    elif not np.all(np.isfinite(A)):
        raise ValueError("matrix contains NaN or Inf entries")
    if A.size == 0:
        return 0.0
    try:
        return float(np.linalg.svd(A, compute_uv=False)[..., 0].max())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure("SVD failed") from exc


def hermitian_norm(H) -> float:
    """Spectral norm of a Hermitian matrix: its largest eigenvalue modulus,
    from ``eigvalsh`` (which reads the lower triangle only), at about half
    the flops of the bidiagonal SVD behind :func:`operator_norm`."""
    A = as_matrix(H)
    if A.size == 0:
        return 0.0
    try:
        w = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure("eigvalsh failed") from exc
    return float(max(-w[0], w[-1]))


def spectral_radius(M) -> float:
    """Maximum eigenvalue modulus of a square matrix."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("spectral radius needs a square matrix")
    if A.size == 0:
        return 0.0
    try:
        return float(np.max(np.abs(np.linalg.eigvals(A))))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure("eigensolver failed") from exc


def hermitian_psd_sqrt(M, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues within ``-rank_tol`` (relative) of zero are clamped to 0;
    anything more negative raises :class:`NotPSD`.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("square matrix required")
    scale = max(1.0, operator_norm(A))
    if operator_norm(A - A.conj().T) > cfg.check_tol * scale:
        raise NotHermitian("matrix is not Hermitian within check_tol")
    H = 0.5 * (A + A.conj().T)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure("eigh failed") from exc
    if np.min(w) < -cfg.rank_tol * scale:
        raise NotPSD(f"eigenvalue {np.min(w):.3e} below -rank_tol")
    w = np.clip(w.real, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def phase_normalize_columns(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significantly-nonzero entry is
    real positive.  Makes basis output reproducible byte-for-byte."""
    V = np.array(V, dtype=complex, copy=True)
    for j in range(V.shape[1]):
        col = V[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > _PIVOT_FLOOR * top))
        pivot = col[lead]
        V[:, j] = col * (np.conj(pivot) / abs(pivot))
    return V


def orthonormal_range_basis(M, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical range of ``M``.

    Columns are ordered by descending singular value and phase normalized.
    The zero matrix yields an ``(rows, 0)`` array.
    """
    A = as_matrix(M)
    if A.size == 0 or A.shape[1] == 0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    try:
        U, s, _ = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure("SVD failed") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > cfg.rank_tol * s[0]))
    return phase_normalize_columns(U[:, :rank])


def subspace_distance(A, B) -> float:
    """Gap ``||P_A - P_B||`` between the spans of two orthonormal families.

    ``A`` and ``B`` are arrays whose columns are orthonormal vectors in a
    common ambient space; an empty family is a ``(ambient, 0)`` array.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[0] != B.shape[0]:
        raise DimensionMismatch("bases live in different ambient dimensions")
    PA = A @ A.conj().T
    PB = B @ B.conj().T
    return operator_norm(PA - PB)
