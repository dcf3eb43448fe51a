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
    hermitian_norm,
    operator_norm,
    orthonormal_range_basis,
)
from .tuples import ContractionTuple, DefectData, DefectPair, defect_operators


# condition number of ``I - z T^H`` above which charfn_eval refuses the
# resolvent solve; at 1e13 the solution keeps about three correct digits
_RESOLVENT_COND_MAX = 1e13

# largest norm of the part of the joint defect basis outside a star-defect
# space that _embedding accepts as rounding
_EMBEDDING_LEAK = 1e-6

# squared singular value of G_i splitting the model fiber (near 1) from the
# multiplier range (near 0): the eigenvalues of I - F F^H cluster at 0 and 1
_FIBER_SPLIT = 0.5


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
        if np.linalg.cond(A) > _RESOLVENT_COND_MAX:
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


def toeplitz_gram(taylor, d: int, layers: int, side: str) -> np.ndarray:
    """Leading ``layers``-layer block of ``F^H F`` (``side="in"``) or of
    ``F F^H`` (``side="out"``), ``F = one_var_toeplitz(taylor, d)``, without
    forming ``F``.

    With ``c_m`` the Taylor blocks (zero past the series and past ``d``),
    the blocks at lag ``s >= 0`` are partial sums of lag products:

        (F F^H)_{l+s, l} = sum_{p <= l} c_{p+s} c_p^H
        (F^H F)_{l+s, l} = sum_{p <= d-l-s} c_p^H c_{p+s}

    so one einsum and one cumulative sum per lag give all of them, in
    ``O(layers d r^3)`` flops rather than a ``(d+1) r``-cubed product.  The
    blocks above the diagonal are the conjugate transposes of those below,
    so the result is exactly Hermitian."""
    if side not in ("in", "out"):
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    if not 1 <= layers <= d + 1:
        raise ValueError(f"layers must lie in 1..{d + 1}, got {layers}")
    c = np.zeros((d + 1,) + np.shape(taylor[0]), dtype=complex)
    c[:min(len(taylor), d + 1)] = np.array(taylor[:d + 1])
    if side == "in":
        c = c.conj().transpose(0, 2, 1)  # c_p^H c_{p+s}, as a lag product of c^H
    r = c.shape[1]
    G = np.zeros((layers, r, layers, r), dtype=complex)
    for s in range(layers):
        l = np.arange(layers - s)
        if side == "out":
            blocks = np.cumsum(np.einsum("pab,pcb->pac", c[s:layers], c[:layers - s].conj()), axis=0)
        else:
            # sum over p <= d - l - s: the cumulative sums at d - s down to d - layers + 1
            lag = np.cumsum(np.einsum("pab,pcb->pac", c[:d + 1 - s], c[s:].conj()), axis=0)
            blocks = lag[d - s - l]
        G[l + s, :, l, :] = blocks
        if s:
            G[l, :, l + s, :] = blocks.conj().transpose(0, 2, 1)
    return G.reshape(layers * r, layers * r)


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
    if leak > _EMBEDDING_LEAK:
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


def _apply_axis(A: np.ndarray, i: int, t: np.ndarray) -> np.ndarray:
    """Apply ``I (x) A (x) I`` to the tensor ``t`` of shape
    ``(k,)*n + (r,)``, the ``k r``-square ``A`` acting on the axis of
    variable ``i`` and the coefficient axis (the last)."""
    k, r, n = t.shape[i], t.shape[-1], t.ndim - 1
    out = np.tensordot(A.reshape(k, r, k, r), t, axes=([2, 3], [i, n]))
    return np.moveaxis(out, [0, 1], [i, n])


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


def _gramian_box_operator(L: DilationMap, grams) -> tuple:
    """Matvec of ``P (L L^H - prod(I - F_i F_i^H)) P`` on the margin box
    and the box size, ``F_i`` the block-Toeplitz matrix of variable
    ``i``'s symbol (:func:`_model_symbol`) and ``P`` the projection onto
    the box, the layers ``k_i < m`` in every variable.

    ``grams[i]`` is the leading ``m``-layer block ``A_i`` of ``F_i F_i^H``.
    Restricting to the box is exact: ``P`` is the product of per-axis
    projections ``P_i``, and ``P_j`` commutes with ``I (x) F_i F_i^H (x) I``
    for ``j != i``, so ``P prod(I - F_i F_i^H) P = prod P_i (I - F_i F_i^H) P_i``,
    which is ``prod(I - A_i)`` on the box.  The matvec takes and returns
    flat vectors of the box tensor ``(m,)*n + (r,)`` in C order."""
    space = L.space
    r = space.coeff_dim
    box = (len(grams[0]) // r,) * space.n + (r,)
    Lb = L.matrix.reshape(space.shape + (-1,))[tuple(slice(m) for m in box[:-1])]
    Lb = Lb.reshape(-1, L.tuple.dim)
    Lbh = Lb.conj().T

    def apply_X(v):
        rhs = v.reshape(box)
        for i, A in enumerate(grams):
            rhs = rhs - _apply_axis(A, i, rhs)
        return Lb @ (Lbh @ v) - rhs.reshape(-1)

    return apply_X, Lb.shape[0]


def _gramian_operator_residual(L: DilationMap, grams) -> float:
    """Norm of the operator-form Gramian residual on the margin box
    (:func:`_gramian_box_operator`)."""
    apply_X, size = _gramian_box_operator(L, grams)
    return _masked_opnorm_hermitian(apply_X, np.ones(size), size)


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
    margin drift ``||I - K_i K_i^H - F_i F_i^H||`` on the layers
    ``k_i <= d - margin`` is measured from the symbol ``F_i``, the one
    check tying the fibers to it, and certified against the symbol tail.
    Its ``F_i F_i^H`` block ``A_i`` comes from lag sums
    (:func:`toeplitz_gram`) and also serves the operator-form Gramian
    residual on the margin box.  Also records, on the margin-restricted
    layers, the residual between the dilation range and the complement of
    the multiplier sum space."""
    d = L.degree
    if margin is None:
        margin = max(1, d // 2)
    if margin >= d and d > 0:
        margin = d - 1
    if d == 0:
        margin = 0
    space = L.space
    fibers, margin_drifts, grams = [], [], []
    r = space.coeff_dim
    layers = d - margin + 1  # the layers k_i <= d - margin
    for i, cf in enumerate(charfns):
        U, sv, _ = np.linalg.svd(_functional_model_factor(L, i), full_matrices=False)
        K = U[:, sv ** 2 > _FIBER_SPLIT]
        fibers.append(K)
        A = toeplitz_gram(_model_symbol(L.defects, cf, i, d, cfg), d, layers, "out")
        grams.append(A)
        Kk = K[:layers * r]
        md = hermitian_norm(np.eye(len(A)) - Kk @ Kk.conj().T - A)
        margin_drifts.append(md)
        bound = max(cfg.tail_tol, 10.0 * taylor_tail_estimate(cf, d - margin))
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
    gramian_residual = _gramian_operator_residual(L, grams)
    return ModelSpaces(
        space=space,
        fibers=fibers,
        margin_drifts=margin_drifts,
        commutator_residuals=comms,
        s_residual=float(s_residual),
        gramian_residual=float(gramian_residual),
        margin=margin,
    )
