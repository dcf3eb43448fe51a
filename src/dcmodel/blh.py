"""One-variable structure of the model's shift-invariant space:
wandering subspaces of the model fibers, recovery of the one-variable
inner columns, reconstruction of the sum space, and the rank-one defect
round-trip for co-invariant subspaces of the scalar Hardy space.

Each multiplier projection acts as ``I (x) P_i (x) I`` with ``P_i`` a
matrix on the one-variable space of ``(d+1) r`` coefficients, so every
step here works in that space: the fiber of variable ``i`` is
``range(P_i)``, held by an orthonormal basis of its complement (the model
fiber, a few columns), and the wandering subspace is found in a space of
at most ``2 r`` plus that many dimensions (Halmos, "Shifts on Hilbert
spaces", J. reine angew. Math. 208, 1961).  The complement of each recovered
Toeplitz range is read from the recovered symbol's Toeplitz Gram: on the
truncated space ``T T^H`` is the compressed range projection of the multiplier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import build_dilation
from .hardy import TruncatedHardySpace, apply_coshift, apply_shift, box_rows
from .matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    operator_norm,
    orthonormal_range_basis,
    phase_normalize_columns,
)
from .model import (
    ModelSpaces,
    axis_frames,
    box_distance,
    box_drift,
    charfns_for_tuple,
    model_space,
    toeplitz_drift,
)
from .tuples import ContractionTuple, validate_tuple


class NotCoinvariant(ValueError):
    """The given subspace is not invariant under every adjoint shift."""


@dataclass(frozen=True)
class InnerColumnSet:
    """Taylor columns (in one variable) of the recovered inner function
    for one variable, with the measured truncation drift."""

    variable: int
    inner_dim: int
    columns: tuple        # columns[m]: (coeff_dim, inner_dim) coefficient block
    coeff_dim: int
    isometry_drift: float


def _loose_cut(cfg: ToleranceConfig) -> float:
    """Relative singular-value cutoff below which directions of truncated
    objects count as tail noise."""
    return max(cfg.rank_tol, np.sqrt(cfg.tail_tol))


def _loose_rank(M: np.ndarray, cfg: ToleranceConfig) -> int:
    """Number of singular values of ``M`` above the loose cut of the largest."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > _loose_cut(cfg) * s[0]))


def wandering_basis(K: np.ndarray, degree: int, coeff_dim: int,
                    cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the wandering part ``M - Z`` of the
    shift-invariant subspace ``M`` of the one-variable truncated space of
    the given degree and coefficient dimension, with ``Z = z (M ∩ ker top)``.
    ``M`` is given by ``K``, an orthonormal basis of its complement (the
    model fiber).

    Only the part of the subspace with vanishing top-degree coefficient
    is shifted: on the truncated space the shift annihilates the top
    layer, and shifting full-tail vectors would smear their dropped
    coefficients across the whole space.

    With ``K`` the complement basis, ``(M ∩ ker top)^perp`` is
    ``span(K, E_top)``; its shift (the truncated shift drops the top
    layer) together with the constants ``E_0`` spans ``Z^perp``.  In an
    orthonormal basis ``Y`` of ``Z^perp``, ``(I - P_Z) P_M`` has the Gram
    matrix ``I - (Y^H K)(Y^H K)^H``, whose eigenvalues are the squared
    singular values of the projected subspace.  Those below
    ``sqrt(tail_tol)`` (relative) are treated as truncation noise."""
    d, r = degree, coeff_dim
    size = (d + 1) * r
    top = np.eye(size, r, k=-d * r, dtype=complex)
    Q = orthonormal_range_basis(np.hstack([K, top]), cfg)
    shifted = apply_shift(TruncatedHardySpace(1, d, r), Q, 0)
    Y = orthonormal_range_basis(np.hstack([np.eye(size, r, dtype=complex), shifted]), cfg)
    G = Y.conj().T @ K
    lam, V = np.linalg.eigh(np.eye(Y.shape[1]) - G @ G.conj().T)
    lam, V = lam[::-1], V[:, ::-1]
    # the eigenvalues lie in [0, 1]; a largest one at rounding level means M is empty
    if lam.size == 0 or lam[0] <= cfg.rank_tol:
        return np.zeros((size, 0), dtype=complex)
    keep = lam > _loose_cut(cfg) ** 2 * lam[0]
    return phase_normalize_columns(Y @ V[:, keep])


def inner_from_wandering(
    W: np.ndarray,
    coeff_dim: int,
    cfg: ToleranceConfig = DEFAULT_TOL,
    variable: int = 0,
) -> InnerColumnSet:
    """Read wandering vectors (columns in the one-variable layout with
    the given coefficient dimension) as the Taylor columns of a
    one-variable inner function, and measure the isometry drift of its
    truncated Toeplitz matrix on the lower half of the layers (the
    Frobenius norm, an upper bound on the spectral one)."""
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[1] == 0:
        return InnerColumnSet(variable, 0, (), coeff_dim, 0.0)
    rows, m = W.shape
    d = rows // coeff_dim - 1
    cols = tuple(W[k * coeff_dim:(k + 1) * coeff_dim, :].copy() for k in range(d + 1))
    # Only input layers whose shifted columns still fit under the degree
    # cap are meaningful: shifting a column of numerical degree ``deg``
    # by more than d - deg drops genuine coefficients off the top, which
    # would register as spurious drift.
    norms = np.array([np.linalg.norm(c) for c in cols])
    sig = np.flatnonzero(norms > _loose_cut(cfg) * norms.max())  # none for the zero columns
    deg = int(sig[-1]) if sig.size else 0
    top_layer = max(0, min(d // 2, d - deg))
    drift = toeplitz_drift(cols, d, top_layer + 1, "in")
    return InnerColumnSet(variable, m, cols, coeff_dim, drift)


def model_inner_functions(model: ModelSpaces, cfg: ToleranceConfig = DEFAULT_TOL) -> list:
    """Full per-variable pipeline: model fiber, wandering subspace,
    inner Taylor columns."""
    d, r = model.space.degree, model.space.coeff_dim
    return [
        inner_from_wandering(wandering_basis(K, d, r, cfg), r, cfg, variable=i)
        for i, K in enumerate(model.fibers)
    ]


def reconstruct_S_check(inners, model: ModelSpaces) -> float:
    """Upper bound on the distance (on the margin box) between the sum of
    the recovered inner-multiplier ranges and the model's sum space, the
    norm of ``prod_i (I - A_i) - prod_i K_i K_i^H`` (``K_i`` the box rows of
    the model fibers).

    ``M_Θ`` is lower triangular, so ``P_d M_Θ P_d = P_d M_Θ`` and the
    truncated Toeplitz matrix ``T = P_d M_Θ P_d`` of an inner ``Θ`` has
    ``T T^H = P_d P_{ran M_Θ} P_d``: the box block of the recovered complement
    projection is ``I - A_i``, ``A_i`` that block of ``T T^H``.  While every
    factor has norm at most one (``K_i K_i^H`` always, ``I - A_i`` while
    ``||T_b||^2 <= 2``, ``T_b`` the box rows of ``T``), telescoping bounds the
    norm by ``sum_i ||I - A_i - K_i K_i^H||``, each term :func:`box_drift`."""
    d = model.space.degree
    return sum(box_drift(K, inner.columns, d) for K, inner in zip(model.box_fibers, inners))


@dataclass(frozen=True)
class RankOneVerdict:
    """Outcome of the co-invariant-subspace round trip."""

    doubly_commuting: bool
    max_commutation_residual: float
    violating_pair: tuple = ()  # () when doubly commuting
    pure: bool = False
    defect_rank: int = -1
    constants_compression_rank: int = -1
    recovered_inners: tuple = ()
    complement_distance: float = float("nan")


def rankone_corollary_check(
    Q: np.ndarray,
    space: TruncatedHardySpace,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> RankOneVerdict:
    """Given an orthonormal basis of a co-invariant subspace of the
    scalar truncated polydisc space, compress the shifts, test double
    commutativity, and - in the doubly commuting pure case - verify the
    rank-one joint defect and recover one-variable inner functions whose
    multiplier sum matches the orthogonal complement of the subspace."""
    if space.coeff_dim != 1:
        raise ValueError("rank-one round trip runs on the scalar space")
    Q = np.asarray(Q, dtype=complex)
    q = Q.shape[1]
    if q == 0:
        raise NotCoinvariant("the zero subspace is not a valid co-invariant input")
    if operator_norm(Q.conj().T @ Q - np.eye(q)) > cfg.check_tol:
        raise NotCoinvariant("basis is not orthonormal")
    for i in range(space.n):
        co = apply_coshift(space, Q, i)
        if operator_norm(co - Q @ (Q.conj().T @ co)) > cfg.check_tol:
            raise NotCoinvariant(f"not invariant under adjoint shift {i}")
    comps = [Q.conj().T @ apply_shift(space, Q, i) for i in range(space.n)]
    tupleC = ContractionTuple(tuple(comps))
    report = validate_tuple(tupleC, cfg)
    # the largest commutation residual of each pair i < j, plain or with an adjoint
    pairs = {p: max(r, report.doubly_commuting_residual[p]) for p, r in report.commuting_residual.items()}
    violator = max(pairs, key=pairs.get, default=())
    worst = pairs.get(violator, 0.0)
    if worst > cfg.check_tol:
        return RankOneVerdict(False, worst, violating_pair=violator)
    pure = all(report.pure)
    # rank of the joint defect square and of the constants compression
    D2 = np.eye(q, dtype=complex)
    for C in comps:
        D2 = D2 @ (np.eye(q) - C @ C.conj().T)
    defect_rank = _loose_rank(D2, cfg)
    q0 = Q[0]  # the constants are row 0 in storage order
    const_rank = _loose_rank(np.outer(q0.conj(), q0), cfg)
    if not pure:
        return RankOneVerdict(True, worst, defect_rank=defect_rank,
                              constants_compression_rank=const_rank)
    L = build_dilation(tupleC, d=space.degree, cfg=cfg, adaptive=False)
    cfs = charfns_for_tuple(tupleC, L.defects, cfg)
    ms = model_space(tupleC, L, cfs, cfg)
    inners = model_inner_functions(ms, cfg)
    # sum of recovered multiplier ranges against the complement of the
    # input subspace, via the complements of both: the exact distance of
    # prod(K_i K_i^H) from the projection onto the subspace, plus the
    # telescoped distance of prod(I - A_i) from prod(K_i K_i^H)
    dist = (box_distance(ms.box, axis_frames(ms.box, ms.box_fibers), box_rows(space, Q, ms.box))
            + reconstruct_S_check(inners, ms))
    return RankOneVerdict(True, worst, pure=True, defect_rank=defect_rank,
                          constants_compression_rank=const_rank,
                          recovered_inners=tuple(inners), complement_distance=float(dist))
