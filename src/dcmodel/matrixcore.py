"""Dense complex-matrix foundations: PSD square roots, range bases,
norms (exact, and the one Krylov estimator for Hermitian matvecs),
spectral radii and subspace comparison.

Everything here works on plain ``numpy`` arrays with complex entries.
All functions are pure; tolerance policy lives in :class:`ToleranceConfig`.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2.x loads it lazily: load it with the package, not in a suite call


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

# relative Ritz residual (or gain of a restart) at which a krylov_norm run stops
_KRYLOV_TOL = 1e-10
# most vectors its Lanczos basis holds, its memory (ARPACK's default ncv)
_KRYLOV_BASIS = 20
# rows above which hermitian_norm returns krylov_norm's top Ritz value, not
# the exact eigvalsh norm: from 256 rows up Lanczos measured no slower than
# eigvalsh on noise-like spectra and far faster on low-rank ones
_EXACT_ROWS = 256


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
    """Spectral norm of a Hermitian matrix, its largest eigenvalue modulus.

    - up to ``_EXACT_ROWS`` rows: the exact norm, from ``eigvalsh`` (which
      reads the lower triangle only), at about half the flops of the
      bidiagonal SVD behind :func:`operator_norm`;
    - above: the top Ritz value of :func:`krylov_norm` with ``H @ v`` from
      :func:`unit_probe`, a lower bound on the norm.  It is within
      ``_KRYLOV_TOL`` relative of the norm unless several top eigenvalues
      lie further apart than that, where the run can end inside their
      cluster.  There is no probe floor: a drift at rounding level gets
      its Ritz value too.

    Non-square input raises :class:`DimensionMismatch` on both paths.
    """
    A = as_matrix(H)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("hermitian norm needs a square matrix")
    if A.size == 0:
        return 0.0
    if len(A) > _EXACT_ROWS:
        return krylov_norm(lambda v: A @ v, unit_probe(len(A)))
    try:
        w = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure("eigvalsh failed") from exc
    return float(max(-w[0], w[-1]))


@functools.lru_cache(maxsize=2)
def unit_probe(size: int) -> np.ndarray:
    """The seeded random complex unit vector of ``C^size`` that every
    Krylov norm starts from, so that a run repeats bit for bit.  Drawn once
    per size and read-only, as callers share it; it lives in its own memory
    map, as a kept 1 MB probe inside the malloc heap splits a freed region
    that later large temporaries reuse (slow-decay peak RSS 79 -> 90 MB)."""
    rng = np.random.default_rng(1234)
    v = np.frombuffer(mmap.mmap(-1, 16 * size + 1), dtype=complex, count=size)  # no empty maps
    v[:] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


def krylov_norm(apply_X, v: np.ndarray) -> float:
    """Spectral norm of a Hermitian ``X`` on ``C^len(v)`` given as a matvec
    callable: the largest-magnitude Ritz value of a Lanczos run from the
    unit vector ``v`` (full reorthogonalisation applied twice, at most
    ``_KRYLOV_BASIS`` vectors, restarts from the top Ritz vector).

    It stops once the Ritz residual is below ``_KRYLOV_TOL`` of the value
    (breakdown included), once the basis spans ``C^len(v)`` (then the
    value is exact), or once a whole restart raises the value by no more
    than ``_KRYLOV_TOL`` of it (the rounding floor).  A Ritz value never
    exceeds the norm."""
    size = len(v)
    m = min(size, _KRYLOV_BASIS)
    V = np.empty((m, size), dtype=complex)
    V[0], theta = v, 0.0
    while True:
        T, best = np.zeros((m, m)), theta  # the tridiagonal projection of X
        for j in range(m):
            w = apply_X(V[j])
            for _ in range(2):  # full reorthogonalisation, applied twice
                h = V[:j + 1].conj() @ w
                w = w - h @ V[:j + 1]
                T[j, j] += h[j].real
            beta = np.linalg.norm(w)
            ritz, S = np.linalg.eigh(T[:j + 1, :j + 1])  # eigh reads the lower triangle
            top = np.argmax(np.abs(ritz))
            theta = float(abs(ritz[top]))
            # a converged Ritz pair (breakdown, beta = 0, included) or a basis spanning C^size
            if beta * abs(S[-1, top]) <= _KRYLOV_TOL * theta or j + 1 == size:
                return theta
            if j + 1 < m:
                T[j + 1, j], V[j + 1] = beta, w / beta
        if theta - best <= _KRYLOV_TOL * theta:  # a restart gained nothing: the rounding floor
            return theta
        V[0] = S[:, top] @ V


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
