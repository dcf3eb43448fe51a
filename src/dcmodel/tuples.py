"""Doubly commuting pure tuples of contractions: validation, defect
operators and spaces, and constructive generators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrixcore import (
    DEFAULT_TOL,
    DimensionMismatch,
    ToleranceConfig,
    as_matrix,
    hermitian_psd_sqrt,
    operator_norm,
    orthonormal_range_basis,
    spectral_radius,
)


class FactorNotPure(ValueError):
    """A tensor factor has spectral radius >= 1."""


class FactorNotContractive(ValueError):
    """A tensor factor has operator norm > 1."""


@dataclass(frozen=True)
class ContractionTuple:
    """A tuple of n square complex matrices on a common space."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(as_matrix(M) for M in self.matrices)
        if not mats:
            raise ValueError("tuple must contain at least one matrix")
        dim = mats[0].shape[0]
        for M in mats:
            if M.shape != (dim, dim):
                raise DimensionMismatch("all matrices must be square of equal size")
        object.__setattr__(self, "matrices", mats)

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class DefectPair:
    """Defect operators and range bases of a single contraction."""

    defect: np.ndarray        # (I - T^H T)^{1/2}
    defect_star: np.ndarray   # (I - T T^H)^{1/2}
    basis: np.ndarray         # orthonormal basis of ran defect
    basis_star: np.ndarray    # orthonormal basis of ran defect_star


@dataclass(frozen=True)
class DefectData:
    """Joint defect operator of a tuple plus its per-operator pieces."""

    big_defect: np.ndarray
    big_defect_basis: np.ndarray
    per_op: tuple

    @property
    def rank(self) -> int:
        return self.big_defect_basis.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of every hypothesis a tuple is expected to satisfy."""

    contractive_residual: tuple      # max(0, ||T_i|| - 1) per operator
    commuting_residual: dict         # (i, j) -> ||T_i T_j - T_j T_i||
    doubly_commuting_residual: dict  # (i, j) -> ||T_i T_j^H - T_j^H T_i||
    spectral_radii: tuple
    cfg: ToleranceConfig = field(default=DEFAULT_TOL)

    @property
    def contractive(self) -> tuple:
        return tuple(r <= self.cfg.check_tol for r in self.contractive_residual)

    @property
    def commuting(self) -> bool:
        return all(r <= self.cfg.check_tol for r in self.commuting_residual.values())

    @property
    def doubly_commuting(self) -> bool:
        return all(r <= self.cfg.check_tol for r in self.doubly_commuting_residual.values())

    @property
    def pure(self) -> tuple:
        return tuple(r < 1.0 - self.cfg.rank_tol for r in self.spectral_radii)

    @property
    def passed(self) -> bool:
        return all(self.contractive) and self.commuting and self.doubly_commuting and all(self.pure)


def validate_tuple(T: ContractionTuple, cfg: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check contractivity, commutation, double commutation and purity
    on the copies ``T_i / s_i``, ``s_i`` the largest of 1 and every
    ``|Re|``, ``|Im|`` of an entry of ``T_i`` (norms and radii scaled
    back): huge finite entries do not overflow, contractions are as given."""
    scales = [max(1.0, float(np.max(np.abs(M.real))), float(np.max(np.abs(M.imag))))
              for M in T.matrices]
    mats = [M / s for M, s in zip(T.matrices, scales)]
    contr = tuple(max(0.0, s * operator_norm(M) - 1.0) for M, s in zip(mats, scales))
    comm = {}
    dcomm = {}
    for i in range(T.n):
        for j in range(i + 1, T.n):
            A, B = mats[i], mats[j]
            comm[(i, j)] = operator_norm(A @ B - B @ A)
            dcomm[(i, j)] = operator_norm(A @ B.conj().T - B.conj().T @ A)
    radii = tuple(s * spectral_radius(M) for M, s in zip(mats, scales))
    return ValidationReport(contr, comm, dcomm, radii, cfg)


def _root_and_range(X: np.ndarray, cfg: ToleranceConfig) -> tuple:
    """The PSD root ``D`` of ``X`` and as many leading left singular vectors of ``D``
    as ``X`` has eigenvalues above ``rank_tol`` times the largest: cut after the
    root, rounding in ``X`` (1e-16 of its norm) would count, lifted to 1e-8."""
    D = hermitian_psd_sqrt(X, cfg)
    lam = np.linalg.eigvalsh(0.5 * (X + X.conj().T))
    return D, orthonormal_range_basis(D, cfg)[:, :int(np.sum(lam > cfg.rank_tol * max(lam[-1], 0.0)))]


def defect_operators(T: ContractionTuple, cfg: ToleranceConfig = DEFAULT_TOL) -> DefectData:
    """Per-operator defects plus the joint defect of the tuple.

    The joint defect is the PSD square root of the product of the
    commuting factors ``I - T_i T_i^H``.
    """
    I = np.eye(T.dim, dtype=complex)
    pairs = []
    for M in T.matrices:
        D, B = _root_and_range(I - M.conj().T @ M, cfg)
        Ds, Bs = _root_and_range(I - M @ M.conj().T, cfg)
        pairs.append(DefectPair(defect=D, defect_star=Ds, basis=B, basis_star=Bs))
    prod = I.copy()
    for M in T.matrices:
        prod = prod @ (I - M @ M.conj().T)
    big, basis = _root_and_range(prod, cfg)
    return DefectData(big_defect=big, big_defect_basis=basis, per_op=tuple(pairs))


def defect_commutation_check(T: ContractionTuple, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest residual of the defect commutation identities for a doubly
    commuting tuple, ``T_i D_j^* = D_j^* T_i`` (i != j) and
    ``D_i^* D_j^* = D_j^* D_i^*``; 0.0 for a single-operator tuple.  Only the
    star defects are formed, as :func:`defect_operators` forms them."""
    I = np.eye(T.dim, dtype=complex)
    stars = [hermitian_psd_sqrt(I - M @ M.conj().T, cfg) for M in T.matrices]
    worst = 0.0
    for i, (Ti, Di) in enumerate(zip(T.matrices, stars)):
        for j, Dj in enumerate(stars):
            if j != i:
                worst = max(worst, operator_norm(Ti @ Dj - Dj @ Ti))
            if j > i:
                worst = max(worst, operator_norm(Di @ Dj - Dj @ Di))
    return worst


def make_tensor_tuple(factors) -> ContractionTuple:
    """Tuple ``T_i = I (x) ... (x) A_i (x) ... (x) I`` on the tensor
    product of the factor spaces (factor 1 slowest-varying).

    Doubly commuting by construction; each factor must be a contraction
    with spectral radius < 1.
    """
    mats = [as_matrix(A) for A in factors]
    for A in mats:
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch("factors must be square")
        if operator_norm(A) > 1.0 + DEFAULT_TOL.check_tol:
            raise FactorNotContractive(f"factor norm {operator_norm(A):.4f} > 1")
        if spectral_radius(A) >= 1.0 - DEFAULT_TOL.rank_tol:
            raise FactorNotPure(f"factor spectral radius {spectral_radius(A):.4f} >= 1")
    dims = [A.shape[0] for A in mats]
    ops = []
    for i, A in enumerate(mats):
        M = np.eye(1, dtype=complex)
        for j, d in enumerate(dims):
            M = np.kron(M, A if j == i else np.eye(d, dtype=complex))
        ops.append(M)
    return ContractionTuple(tuple(ops))


def make_random_pure_contraction(dim: int, radius: float, seed: int) -> np.ndarray:
    """Random complex matrix scaled so its operator norm equals ``radius``.

    Deterministic per seed; spectral radius <= radius < 1.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    M = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    nrm = operator_norm(M)
    if nrm == 0.0:  # pragma: no cover - probability zero
        M = np.eye(dim, dtype=complex)
        nrm = 1.0
    return M * (radius / nrm)
