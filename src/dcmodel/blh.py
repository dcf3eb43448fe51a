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
spaces", J. reine angew. Math. 208, 1961).  The complement of each
recovered Toeplitz range comes from randomized subspace iteration on
``I - T T^H``, certified complete by a probe bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import build_dilation
from .hardy import TruncatedHardySpace, apply_coshift, apply_shift, box_rows
from .matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_norm,
    operator_norm,
    orthonormal_range_basis,
    phase_normalize_columns,
)
from .model import (
    ModelSpaces,
    _opnorm_hermitian,
    apply_axis_projections,
    charfns_for_tuple,
    model_space,
    one_var_toeplitz,
    toeplitz_gram,
)
from .tuples import ContractionTuple, validate_tuple


class NotCoinvariant(ValueError):
    """The given subspace is not invariant under every adjoint shift."""


@dataclass(frozen=True)
class OneVarSubspace:
    """A shift-invariant subspace of the one-variable truncated space,
    given by an orthonormal basis of its orthogonal complement."""

    degree: int
    coeff_dim: int
    complement: np.ndarray  # ((degree+1) * coeff_dim, k) orthonormal columns


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


def wandering_basis(S_tilde: OneVarSubspace, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the wandering part ``M - Z`` of the subspace
    ``M``, with ``Z = z (M ∩ ker top)``.

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
    K = S_tilde.complement
    d, r = S_tilde.degree, S_tilde.coeff_dim
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
    truncated Toeplitz matrix on the lower half of the layers."""
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
    peak = norms.max()
    if peak > 0.0:
        sig = norms > _loose_cut(cfg) * peak
        deg = int(np.max(np.nonzero(sig)[0])) if sig.any() else 0
    else:
        deg = 0
    top_layer = max(0, min(d // 2, d - deg))
    gram = toeplitz_gram(cols, d, top_layer + 1, "in")
    drift = hermitian_norm(gram - np.eye(len(gram)))
    return InnerColumnSet(variable, m, cols, coeff_dim, float(drift))


def inner_from_fiber(S_tilde: OneVarSubspace, cfg: ToleranceConfig = DEFAULT_TOL, variable: int = 0) -> InnerColumnSet:
    """Wandering-subspace extraction plus Taylor-column packaging."""
    W = wandering_basis(S_tilde, cfg)
    return inner_from_wandering(W, S_tilde.coeff_dim, cfg, variable=variable)


def model_inner_functions(model: ModelSpaces, cfg: ToleranceConfig = DEFAULT_TOL) -> list:
    """Full per-variable pipeline: model fiber, wandering subspace,
    inner Taylor columns."""
    d, r = model.space.degree, model.space.coeff_dim
    return [
        inner_from_fiber(OneVarSubspace(d, r, K), cfg, variable=i)
        for i, K in enumerate(model.fibers)
    ]


# Gaussian probes behind the completeness bound of the recovered-range
# complement: a missed direction escapes them with probability 10^-10
_PROBES = 10


def _inner_range_complement(inner: InnerColumnSet, degree: int, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the complement of the range of the truncated
    Toeplitz matrix ``T`` of a recovered inner function: the eigenvectors
    of ``T T^H`` with eigenvalues at most ``sqrt(tail_tol)^2 ||T||^2``,
    that is of ``A = I - T T^H`` with eigenvalues at least ``tau``.

    ``T T^H`` is close to a projection, so a few eigenvalues of ``A`` lie
    near 1 and the rest near 0.  Blocked randomized subspace iteration
    finds them (Halko, Martinsson, Tropp, SIAM Rev. 53 (2011), Alg. 4.4):
    a fixed-seed Gaussian block of 8, two power steps, a Rayleigh-Ritz
    step.  The block doubles until a Ritz value falls below ``tau`` and
    the bound of their Sec. 4.3 on ten probes, ``e >= ||(I - Q Q^H) A||``,
    rules out a missed direction: no eigenvalue of ``A`` past the kept
    Ritz values exceeds ``max(next Ritz value, e) + e < tau``.  A block as
    large as the space is the space, and its Rayleigh-Ritz step exact."""
    size = (degree + 1) * inner.coeff_dim
    if inner.inner_dim == 0:
        return np.eye(size, dtype=complex)
    T = one_var_toeplitz(inner.columns, degree)
    rng = np.random.default_rng(0)

    def apply_Th(X):  # T^H X, without a conjugated copy of T
        return (X.conj().T @ T).conj().T

    def apply_A(X):
        return X - T @ apply_Th(X)

    def gauss(b):
        return (rng.standard_normal((size, b)) + 1j * rng.standard_normal((size, b))) / np.sqrt(2)

    # ||T||^2 from two power steps: the top cluster of T T^H is tight
    v = gauss(1)
    for _ in range(2):
        v = T @ apply_Th(v)
        v /= np.linalg.norm(v)
    tau = 1.0 - _loose_cut(cfg) ** 2 * np.linalg.norm(apply_Th(v)) ** 2
    b = 8
    while True:
        if b < size:
            Q = gauss(b)
            for _ in range(3):  # the range finder, then two power steps
                Q = np.linalg.qr(apply_A(Q))[0]
        else:
            Q = np.eye(size, dtype=complex)
        k = Q.shape[1]
        Z = apply_A(np.hstack([Q, gauss(_PROBES if b < size else 0)]))
        R = Z[:, k:] - Q @ (Q.conj().T @ Z[:, k:])
        e = 10.0 * np.sqrt(2.0 / np.pi) * np.max(np.linalg.norm(R, axis=0), initial=0.0)
        w, V = np.linalg.eigh(Q.conj().T @ Z[:, :k])
        keep = w >= tau
        if b >= size or (not keep.all() and max(w[~keep].max(), e) + e < tau):
            return Q @ V[:, keep]
        b *= 2


def _recovered_complement_distance(inners, space: TruncatedHardySpace, box: TruncatedHardySpace,
                                   apply_other, cfg) -> float:
    """Norm of ``prod(I - Q_i) - X`` on the margin ``box`` of ``space``,
    where ``Q_i`` projects onto the multiplier range of ``inners[i]``
    (variable ``i``) and ``apply_other`` applies the Hermitian ``X`` to
    flat vectors of the box.  Each complement is cut to its box rows,
    which is exact (:func:`dcmodel.model._gramian_box_operator`)."""
    rows = (box.degree + 1) * box.coeff_dim
    complements = [_inner_range_complement(inner, space.degree, cfg)[:rows] for inner in inners]

    def apply_X(v):
        return apply_axis_projections(box, complements, v) - apply_other(v)

    return _opnorm_hermitian(apply_X, box.total_dim)


def reconstruct_S_check(inners, model: ModelSpaces, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Distance (on the margin box) between the sum of the recovered
    inner-multiplier ranges and the model's sum space, as the norm of the
    difference of their complements ``prod(I - Q_i)`` and
    ``prod(I - P_i)``."""
    return _recovered_complement_distance(inners, model.space, model.box,
                                          model.apply_s_complement, cfg)


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
    worst = 0.0
    violator = ()
    for i in range(space.n):
        for j in range(space.n):
            if i == j:
                continue
            r1 = operator_norm(comps[i] @ comps[j] - comps[j] @ comps[i])
            r2 = operator_norm(comps[i] @ comps[j].conj().T - comps[j].conj().T @ comps[i])
            r = max(r1, r2)
            if r > worst:
                worst = r
                violator = (i, j)
    if worst > cfg.check_tol:
        return RankOneVerdict(False, worst, violating_pair=violator)
    tupleC = ContractionTuple(tuple(comps))
    report = validate_tuple(tupleC, cfg)
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
    # input subspace inside the ambient scalar space, via the complements
    # of both: prod(I - Q_i) against the projection onto the subspace
    box = space.margin_box(ms.margin)
    Qb = box_rows(space, Q, box)
    dist = _recovered_complement_distance(inners, space, box,
                                          lambda v: Qb @ (Qb.conj().T @ v), cfg)
    return RankOneVerdict(True, worst, pure=True, defect_rank=defect_rank,
                          constants_compression_rank=const_rank,
                          recovered_inners=tuple(inners), complement_distance=float(dist))
