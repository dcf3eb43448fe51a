"""Characteristic functions of the coordinate contractions, their
one-variable multipliers on the truncated polydisc Hardy space, the
closed-form kernel identities, the Gramian identity for the dilation,
commuting-projection algebra, and the model space construction (model
fibers from a thin SVD of the functional-model factor ``G_i``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .dilation import DegreeCapExceeded, DilationMap, adjoint_powers
from .hardy import TruncatedHardySpace, _check_polydisc, szego_kernel
from .matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    operator_norm,
    orthonormal_range_basis,
)
from .tuples import ContractionTuple, DefectData, DefectPair, defect_operators


class ResolventSingular(RuntimeError):
    """The resolvent solve at the requested point is singular."""


class NotProjection(ValueError):
    """A matrix expected to be an orthogonal projection is not."""


class ProjectionDriftExceedsTolerance(RuntimeError):
    """Truncated multiplier projection drifts beyond the certified bound."""


@dataclass(frozen=True)
class CharFn:
    """Taylor-coefficient realization of the characteristic function of
    one contraction, as maps between its defect coordinate spaces."""

    op_index: int
    operator: np.ndarray
    pair: DefectPair
    taylor: tuple          # theta_0 = -T compressed, theta_m = D* T^{H(m-1)} D
    norms: tuple           # operator norm of each Taylor coefficient
    decay_rate: float

    @property
    def dim_in(self) -> int:
        return self.pair.basis.shape[1]

    @property
    def dim_out(self) -> int:
        return self.pair.basis_star.shape[1]


def _single_defect_pair(Ti: np.ndarray, cfg: ToleranceConfig) -> DefectPair:
    return defect_operators(ContractionTuple((Ti,)), cfg).per_op[0]


def charfn_eval(Ti, z: complex, pair: DefectPair = None, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Point value of the characteristic function in defect coordinates,
    via a direct resolvent solve: ``-T + D*(I - z T^H)^{-1} z D``."""
    Ti = np.asarray(Ti, dtype=complex)
    if pair is None:
        pair = _single_defect_pair(Ti, cfg)
    I = np.eye(Ti.shape[0], dtype=complex)
    A = I - z * Ti.conj().T
    try:
        if np.linalg.cond(A) > 1e13:
            raise ResolventSingular(f"resolvent ill-conditioned at z={z}")
        mid = np.linalg.solve(A, z * pair.defect)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingular(f"resolvent singular at z={z}") from exc
    ambient = -Ti + pair.defect_star @ mid
    return pair.basis_star.conj().T @ ambient @ pair.basis


def charfn_taylor(
    Ti,
    m_max: int = 512,
    cfg: ToleranceConfig = DEFAULT_TOL,
    pair: DefectPair = None,
    op_index: int = 0,
) -> CharFn:
    """Taylor coefficients of the characteristic function, stopping once
    the norm of the running factor bounds the whole remaining tail below
    ``rank_tol`` (a single small coefficient is not enough: nilpotent
    blocks have interior zero coefficients)."""
    Ti = np.asarray(Ti, dtype=complex)
    if pair is None:
        pair = _single_defect_pair(Ti, cfg)
    Bin, Bout = pair.basis, pair.basis_star
    coeffs = [-(Bout.conj().T @ Ti @ Bin)]
    core = Bout.conj().T @ pair.defect_star  # (r_out, dim)
    P = pair.defect @ Bin                    # (dim, r_in), running T^{H(m-1)} D B
    norms = []
    for _ in range(1, m_max + 1):
        theta = core @ P
        coeffs.append(theta)
        norms.append(operator_norm(theta))
        P = Ti.conj().T @ P
        # every later coefficient factors through P, so ||P|| bounds them all
        if operator_norm(P) <= cfg.rank_tol:
            break
    else:
        # estimate the dropped tail from the measured decay
        if len(norms) >= 2 and norms[-2] > 0 and norms[-1] / norms[-2] < 1.0:
            rho = norms[-1] / norms[-2]
            tail = norms[-1] * rho / (1.0 - rho)
        else:
            tail = float("inf")
        if tail > cfg.tail_tol:
            raise DegreeCapExceeded(
                f"characteristic-function coefficients not decayed at m={m_max}",
                achieved_defect=tail,
            )
    positive = [v for v in norms if v > 0]
    if len(positive) >= 2:
        rate = (positive[-1] / positive[0]) ** (1.0 / max(1, len(positive) - 1))
    else:
        rate = 0.0
    return CharFn(
        op_index=op_index,
        operator=Ti,
        pair=pair,
        taylor=tuple(coeffs),
        norms=(operator_norm(coeffs[0]), *norms),
        decay_rate=float(rate),
    )


def taylor_tail_estimate(cf: CharFn, degree: int) -> float:
    """Estimated ``sum_{m > degree} ||theta_m||`` from the stored
    coefficients plus geometric extrapolation of the measured decay."""
    norms = cf.norms
    stored = sum(v for m, v in enumerate(norms) if m > degree)
    last = len(norms) - 1
    rho = cf.decay_rate
    if rho <= 0.0 or rho >= 1.0:
        return stored
    extrapolated = norms[-1] * rho ** (max(0, degree - last) + 1) / (1.0 - rho)
    return stored + extrapolated


def charfns_for_tuple(T: ContractionTuple, defects: DefectData = None, cfg: ToleranceConfig = DEFAULT_TOL) -> list:
    if defects is None:
        defects = defect_operators(T, cfg)
    return [
        charfn_taylor(T.matrices[i], cfg=cfg, pair=defects.per_op[i], op_index=i)
        for i in range(T.n)
    ]


def inner_boundary_check(cf: CharFn, samples: int = 64, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Max norm of ``theta(z)^H theta(z) - I`` over equispaced boundary
    points; the characteristic function of a pure contraction is inner,
    so this vanishes up to numerical error."""
    worst = 0.0
    I = np.eye(cf.dim_in, dtype=complex)
    for t in range(samples):
        z = np.exp(2j * np.pi * t / samples)
        th = charfn_eval(cf.operator, z, cf.pair, cfg)
        worst = max(worst, operator_norm(th.conj().T @ th - I))
    return worst


def one_var_toeplitz(taylor, d: int) -> np.ndarray:
    """Lower-triangular block-Toeplitz matrix of a one-variable symbol
    truncated at degree ``d`` (degree-graded block order)."""
    r_out, r_in = taylor[0].shape
    M = np.zeros((d + 1, r_out, d + 1, r_in), dtype=complex)
    k = np.arange(d + 1)
    for m, theta in enumerate(taylor[:d + 1]):
        M[k[m:], :, k[m:] - m, :] = theta  # block diagonal m
    return M.reshape((d + 1) * r_out, (d + 1) * r_in)


def kernel_identity_check(Ti, samples, cfg: ToleranceConfig = DEFAULT_TOL, pair: DefectPair = None) -> float:
    """Closed-form residual of the one-variable kernel identity

        S(z, w) (I - theta(z) theta(w)^H)
            = D*(I - z T^H)^{-1} (I - conj(w) T)^{-1} D*

    as maps on the star-defect coordinates.  ``samples`` is a sequence
    of scalar pairs (z, w) in the unit disc."""
    Ti = np.asarray(Ti, dtype=complex)
    if pair is None:
        pair = _single_defect_pair(Ti, cfg)
    Bout = pair.basis_star
    I = np.eye(Ti.shape[0], dtype=complex)
    Ir = np.eye(Bout.shape[1], dtype=complex)
    worst = 0.0
    for z, w in samples:
        _check_polydisc(z, w)
        th_z = charfn_eval(Ti, z, pair, cfg)
        th_w = charfn_eval(Ti, w, pair, cfg)
        lhs = szego_kernel([z], [w]) * (Ir - th_z @ th_w.conj().T)
        amb = np.linalg.solve(
            I - z * Ti.conj().T, np.linalg.solve(I - np.conj(w) * Ti, pair.defect_star)
        )
        rhs = Bout.conj().T @ pair.defect_star @ amb @ Bout
        worst = max(worst, operator_norm(lhs - rhs))
    return worst


def _resolvent_product_ambient(Ti, pair: DefectPair, z: complex, w: complex) -> np.ndarray:
    """``D*(I - z T^H)^{-1} (I - conj(w) T)^{-1} D*`` as an ambient matrix."""
    I = np.eye(Ti.shape[0], dtype=complex)
    mid = np.linalg.solve(I - z * Ti.conj().T, np.linalg.solve(I - np.conj(w) * Ti, pair.defect_star))
    return pair.defect_star @ mid


def _theta_product_ambient(Ti, pair: DefectPair, z: complex, w: complex, cfg) -> np.ndarray:
    """``Theta(z) Theta(w)^H`` embedded back into the ambient space."""
    th_z = charfn_eval(Ti, z, pair, cfg)
    th_w = charfn_eval(Ti, w, pair, cfg)
    Bout = pair.basis_star
    return Bout @ th_z @ th_w.conj().T @ Bout.conj().T


def defect_invariance_check(T: ContractionTuple, samples, cfg: ToleranceConfig = DEFAULT_TOL, defects: DefectData = None) -> float:
    """Max leakage out of the joint defect space under the bracketed
    kernel operators and under ``Theta(z) Theta(w)^H``, over samples of
    polydisc point pairs."""
    if defects is None:
        defects = defect_operators(T, cfg)
    B = defects.big_defect_basis
    P = B @ B.conj().T
    I = np.eye(T.dim, dtype=complex)
    worst = 0.0
    for z, w in samples:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        _check_polydisc(z, w)
        for i in range(T.n):
            X1 = _resolvent_product_ambient(T.matrices[i], defects.per_op[i], z[i], w[i])
            X2 = _theta_product_ambient(T.matrices[i], defects.per_op[i], z[i], w[i], cfg)
            for X in (X1, X2):
                worst = max(worst, operator_norm((I - P) @ X @ P))
    return worst


def product_kernel_identity_check(T: ContractionTuple, samples, cfg: ToleranceConfig = DEFAULT_TOL, defects: DefectData = None) -> float:
    """Residual of the product kernel identity restricted to the joint
    defect space: the product of the per-variable resolvent kernels
    equals the polydisc kernel times the product of
    ``I - Theta_i(z) Theta_i(w)^H``."""
    if defects is None:
        defects = defect_operators(T, cfg)
    B = defects.big_defect_basis
    I = np.eye(T.dim, dtype=complex)
    worst = 0.0
    for z, w in samples:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        _check_polydisc(z, w)
        lhs_amb = I.copy()
        rhs_amb = I.copy()
        for i in range(T.n):
            lhs_amb = _resolvent_product_ambient(T.matrices[i], defects.per_op[i], z[i], w[i]) @ lhs_amb
            rhs_amb = (I - _theta_product_ambient(T.matrices[i], defects.per_op[i], z[i], w[i], cfg)) @ rhs_amb
        lhs = B.conj().T @ lhs_amb @ B
        rhs = szego_kernel(z, w) * (B.conj().T @ rhs_amb @ B)
        worst = max(worst, operator_norm(lhs - rhs))
    return worst


def _embedding(defects: DefectData, i: int, cfg: ToleranceConfig) -> np.ndarray:
    """Coordinates of the joint defect basis inside the i-th star-defect
    basis (the joint defect space is contained in each star defect)."""
    Bout = defects.per_op[i].basis_star
    B = defects.big_defect_basis
    E = Bout.conj().T @ B
    leak = operator_norm(B - Bout @ E)
    if leak > 1e-6:
        raise NotProjection(
            f"joint defect space leaks out of star defect {i} by {leak:.2e}"
        )
    return E


def _model_symbol(defects: DefectData, cf: CharFn, i: int, d: int, cfg: ToleranceConfig) -> list:
    """Taylor blocks, up to degree ``d``, of the symbol ``E^H theta`` of
    variable ``i``.  Its block-Toeplitz matrix ``F`` is ``K^H M_theta``
    with ``K = I_{d+1} (x) E``, so ``F F^H`` is the one-variable
    compression of the truncated multiplier projection."""
    E = _embedding(defects, i, cfg)
    return [E.conj().T @ theta for theta in cf.taylor[:d + 1]]


def _project_axis(space: TruncatedHardySpace, B: np.ndarray, i: int, t: np.ndarray) -> np.ndarray:
    """Apply ``I (x) B B^H (x) I`` to ``t`` of shape ``space.shape + (...)``,
    ``B`` (any ``(d+1) r``-row matrix) acting on the axis of variable
    ``i`` and the coefficient axis."""
    n = space.n
    B3 = B.reshape(space.degree + 1, space.coeff_dim, B.shape[1])
    coef = np.tensordot(B3.conj(), t, axes=([0, 1], [i, n]))
    # axes (k_i', coeff', other k's..., columns) -> storage order
    return np.moveaxis(np.tensordot(B3, coef, axes=([2], [0])), [0, 1], [i, n])


def apply_axis_projections(space: TruncatedHardySpace, bases, V: np.ndarray) -> np.ndarray:
    """Apply ``prod_i (I (x) B_i B_i^H (x) I)`` to flat columns, where
    ``bases[i]`` has orthonormal columns in the one-variable space of
    variable ``i`` (usually a few, so nothing ``(d+1) r``-square is formed)."""
    V = np.asarray(V, dtype=complex)
    t = V.reshape(space.shape + V.shape[1:])
    for i, B in enumerate(bases):
        t = _project_axis(space, B, i, t)
    return t.reshape(V.shape)


def _masked_opnorm_hermitian(apply_X, mask: np.ndarray, N: int) -> float:
    """Spectral norm of ``P_mask X P_mask`` for Hermitian ``X`` given as
    a matvec callable.

    What it returns depends on the branch taken:

    - an empty mask: exactly 0;
    - at most two active rows: the exact norm of the dense mini-block;
    - ``||X v||`` below 1e-13 for one random unit probe ``v``: that
      value, an estimate from a single probe and not a bound (it can
      undershoot ``||X||`` by about ``sqrt(N)``);
    - otherwise: the largest-magnitude eigenvalue from ``eigsh``
      (Lanczos, relative tolerance 1e-10), or, if ARPACK fails, the
      growth factor after 200 power-iteration steps, a lower bound."""
    active = int(mask.sum())
    if active == 0:
        return 0.0

    def mv(v):
        v = np.asarray(v, dtype=complex).reshape(N)
        return mask * apply_X(mask * v)

    if active <= 2:
        # eigsh needs k < n; fall back to a dense mini-block
        idx = np.nonzero(mask)[0]
        cols = []
        for j in idx:
            e = np.zeros(N, dtype=complex)
            e[j] = 1.0
            cols.append(mv(e)[idx])
        return operator_norm(np.array(cols).T)
    rng = np.random.default_rng(1234)
    v0 = mask * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    v0 /= np.linalg.norm(v0)
    probe = float(np.linalg.norm(mv(v0)))
    if probe < 1e-13:
        return probe
    op = spla.LinearOperator((N, N), matvec=mv, dtype=complex)
    try:
        vals = spla.eigsh(
            op, k=1, which="LM", return_eigenvectors=False, tol=1e-10, v0=v0.real + 0.0
        )
        return float(abs(vals[0]))
    except spla.ArpackError:
        # plain power iteration fallback
        v = v0
        lam = probe
        for _ in range(200):
            w = mv(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            lam = nw
            v = w / nw
        return float(lam)


def gramian_identity_check(L: DilationMap, samples, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Residual of the Gramian identity relating the dilation to the
    one-variable multiplier projections, from exact closed forms at
    sample point pairs (no truncation).  :func:`model_space` measures
    its truncated operator form."""
    T = L.tuple
    defects = L.defects
    B = defects.big_defect_basis
    I = np.eye(T.dim, dtype=complex)
    worst = 0.0
    for z, w in samples:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        _check_polydisc(z, w)
        Vw = defects.big_defect @ B
        Vz = defects.big_defect @ B
        for i in range(T.n):
            Vw = np.linalg.solve(I - np.conj(w[i]) * T.matrices[i], Vw)
            Vz = np.linalg.solve(I - np.conj(z[i]) * T.matrices[i], Vz)
        lhs = Vz.conj().T @ Vw
        amb = I.copy()
        for i in range(T.n):
            amb = (
                I - _theta_product_ambient(T.matrices[i], defects.per_op[i], z[i], w[i], cfg)
            ) @ amb
        rhs = szego_kernel(z, w) * (B.conj().T @ amb @ B)
        worst = max(worst, operator_norm(lhs - rhs))
    return worst


def _fiber_commutator(space: TruncatedHardySpace, fibers, a: int, b: int, mask: np.ndarray) -> float:
    """Masked norm of the commutator of the clipped projections of
    variables ``a`` and ``b``, from their model fibers:
    ``[I - K_a K_a^H, I - K_b K_b^H] = [K_a K_a^H, K_b K_b^H]``."""
    def apply_comm(v):
        t = v.reshape(space.shape)
        Pa = lambda x: _project_axis(space, fibers[a], a, x)
        Pb = lambda x: _project_axis(space, fibers[b], b, x)
        return 1j * (Pa(Pb(t)) - Pb(Pa(t))).reshape(-1)

    return _masked_opnorm_hermitian(apply_comm, mask, space.total_dim)


def _gramian_operator_residual(L: DilationMap, symbols, mask: np.ndarray) -> float:
    """Masked norm of ``L L^H - prod(I - F_i F_i^H)``, ``F_i`` the
    block-Toeplitz matrix of variable ``i``'s symbol (:func:`_model_symbol`)."""
    space = L.space
    Fs = [one_var_toeplitz(sym, space.degree) for sym in symbols]

    def apply_X(v):
        rhs = v.reshape(space.shape)
        for i, F in enumerate(Fs):
            rhs = rhs - _project_axis(space, F, i, rhs)
        return L.matrix @ (L.matrix.conj().T @ v) - rhs.reshape(-1)

    return _masked_opnorm_hermitian(apply_X, mask, space.total_dim)


def _functional_model_factor(L: DilationMap, i: int) -> np.ndarray:
    """The ``(d+1) r x dim`` matrix ``G_i`` with row blocks
    ``B^H D_{T_i*} T_i^{*k}``, ``k = 0..d``, ``B`` the joint defect basis:
    the compression ``K^H V_i`` of the Sz.-Nagy-Foias dilation of ``T_i``.
    As ``V_i V_i^H + M_theta M_theta^H = I`` for a pure contraction, and
    both sides are exact on the leading ``d+1`` layers (``M_theta`` is
    lower triangular), ``I - F_i F_i^H = G_i G_i^H`` (:func:`_model_symbol`)."""
    B = L.defects.big_defect_basis
    C = B.conj().T @ L.defects.per_op[i].defect_star
    G = np.einsum("ra,kab->krb", C, adjoint_powers(L.tuple.matrices[i], L.degree))
    return G.reshape(-1, L.tuple.dim)


@dataclass
class ModelSpaces:
    """Model-space data: per-variable clipped multiplier projections, held
    as the orthonormal bases of their complements (the model fibers), and
    the residuals tying them to the dilation."""

    space: TruncatedHardySpace
    fibers: list
    margin_drifts: list
    commutator_residuals: dict
    s_residual: float
    gramian_residual: float
    margin: int

    def apply_s_complement(self, V: np.ndarray) -> np.ndarray:
        """Apply ``prod(I - P_i)`` (clipped projections) to flat columns;
        ``I - P_i`` projects onto the model fiber ``fibers[i]``."""
        return apply_axis_projections(self.space, self.fibers, V)


def model_space(
    T: ContractionTuple,
    L: DilationMap,
    charfns,
    cfg: ToleranceConfig = DEFAULT_TOL,
    margin: int = None,
) -> ModelSpaces:
    """Assemble the model space from the dilation and the per-variable
    characteristic functions (:class:`CharFn`).

    The model fiber ``K_i``, an orthonormal basis of the complement of
    the clipped projection ``P_i``, holds the left singular vectors of
    ``G_i`` (:func:`_functional_model_factor`) with ``s^2 > 1/2``.  The
    margin drift ``||I - K_i K_i^H - F_i F_i^H||`` is measured from the
    symbol ``F_i``, the one check tying the fibers to it, and certified
    against the symbol tail.  Also records, on the margin-restricted
    layers, the residual between the dilation range and the complement of
    the multiplier sum space and the operator-form Gramian residual."""
    d = L.degree
    if margin is None:
        margin = max(1, d // 2)
    if margin >= d and d > 0:
        margin = d - 1
    if d == 0:
        margin = 0
    space = L.space
    symbols = [_model_symbol(L.defects, cf, i, d, cfg) for i, cf in enumerate(charfns)]
    fibers, margin_drifts = [], []
    r = space.coeff_dim
    keep = (d - margin + 1) * r  # rows of the layers k_i <= d - margin
    for i, sym in enumerate(symbols):
        U, sv, _ = np.linalg.svd(_functional_model_factor(L, i), full_matrices=False)
        K = U[:, sv ** 2 > 0.5]
        fibers.append(K)
        # F is block lower-triangular, so its leading block alone gives
        # the leading block of F F^H
        Fk = one_var_toeplitz(sym, d - margin)
        Kk = K[:keep]
        md = operator_norm(np.eye(keep) - Kk @ Kk.conj().T - Fk @ Fk.conj().T)
        margin_drifts.append(md)
        bound = max(cfg.tail_tol, 10.0 * taylor_tail_estimate(charfns[i], d - margin))
        if md > bound:
            raise ProjectionDriftExceedsTolerance(
                f"variable {i}: clipped-projection drift {md:.3e} exceeds bound {bound:.3e}"
            )
    N = space.total_dim
    mask = space.margin_mask(margin).astype(float)
    comms = {(a, b): _fiber_commutator(space, fibers, a, b, mask)
             for a in range(T.n) for b in range(a + 1, T.n)}
    q_basis = orthonormal_range_basis(L.matrix, cfg)

    def apply_X(v):
        return q_basis @ (q_basis.conj().T @ v) - apply_axis_projections(space, fibers, v)

    s_residual = _masked_opnorm_hermitian(apply_X, mask, N)
    gramian_residual = _gramian_operator_residual(L, symbols, mask)
    return ModelSpaces(
        space=space,
        fibers=fibers,
        margin_drifts=margin_drifts,
        commutator_residuals=comms,
        s_residual=float(s_residual),
        gramian_residual=float(gramian_residual),
        margin=margin,
    )
