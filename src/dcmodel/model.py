"""Characteristic functions of the coordinate contractions, their
one-variable multipliers on the truncated polydisc Hardy space, the
closed-form kernel identities, the Gramian identity for the dilation,
commuting-projection algebra, and the model space construction (model
fibers from a thin SVD of the functional-model factor ``G_i``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import DegreeCapExceeded, DilationMap, adjoint_powers, range_box_basis
from .hardy import TruncatedHardySpace, _check_polydisc, box_rows, szego_kernel
from .matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_norm,
    krylov_norm,
    operator_norm,
    unit_probe,
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

# ||X v|| of the probe below which _opnorm_hermitian returns it: X is 0 to rounding
_PROBE_FLOOR = 1e-13

# Taylor steps of charfn_taylor whose stop tests share one stacked SVD
_STOP_CHUNK = 32


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


def charfn_eval(Ti, z, pair: DefectPair = None, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Point value of the characteristic function in defect coordinates,
    via a direct resolvent solve: ``-T + D*(I - z T^H)^{-1} z D``.  For a
    1-D array ``z`` the values are stacked along a leading axis, from one
    stacked condition-number gate and one stacked solve."""
    Ti = np.asarray(Ti, dtype=complex)
    if pair is None:
        pair = _single_defect_pair(Ti, cfg)
    z = np.asarray(z, dtype=complex)
    zk = z.reshape(-1, 1, 1)
    A = np.eye(Ti.shape[0], dtype=complex) - zk * Ti.conj().T
    try:
        bad = np.flatnonzero(np.linalg.cond(A) > _RESOLVENT_COND_MAX)
        if bad.size:
            raise ResolventSingular(f"resolvent ill-conditioned at z={z.reshape(-1)[bad[0]]}")
        mid = np.linalg.solve(A, zk * pair.defect)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingular(f"resolvent singular at z={z}") from exc
    ambient = -Ti + pair.defect_star @ mid
    theta = pair.basis_star.conj().T @ ambient @ pair.basis
    return theta[0] if z.ndim == 0 else theta


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
    capped = True
    while capped and len(coeffs) <= m_max:
        chunk = []
        for _ in range(min(_STOP_CHUNK, m_max + 1 - len(coeffs))):
            coeffs.append(core @ P)
            P = Ti.conj().T @ P
            chunk.append(P)
        # every later coefficient factors through P, so ||P|| bounds them all:
        # the series ends at the first step with ||P|| <= rank_tol, which only
        # steps with ||P||_F <= 2 sqrt(r) rank_tol can reach; they take the SVD
        chunk = np.array(chunk)
        near = np.flatnonzero(np.linalg.norm(chunk, axis=(1, 2)) <= 2 * np.sqrt(chunk.shape[2]) * cfg.rank_tol)
        passed = near[np.linalg.svd(chunk[near], compute_uv=False).max(axis=1, initial=0.0) <= cfg.rank_tol]
        if passed.size:
            del coeffs[len(coeffs) - len(chunk) + passed[0] + 1:]
            capped = False
    # the norm of every coefficient from one stacked SVD (0.0 for an empty one)
    sv = np.linalg.svd(np.array(coeffs), compute_uv=False)
    norms = tuple(float(v) for v in sv.max(axis=1, initial=0.0))
    if capped:
        # estimate the dropped tail from the measured decay of theta_1, theta_2, ...
        if len(norms) >= 3 and norms[-2] > 0 and norms[-1] / norms[-2] < 1.0:
            rho = norms[-1] / norms[-2]
            tail = norms[-1] * rho / (1.0 - rho)
        else:
            tail = float("inf")
        if tail > cfg.tail_tol:
            raise DegreeCapExceeded(
                f"characteristic-function coefficients not decayed at m={m_max}",
                achieved_defect=tail,
            )
    positive = [v for v in norms[1:] if v > 0]
    if len(positive) >= 2:
        rate = (positive[-1] / positive[0]) ** (1.0 / max(1, len(positive) - 1))
    else:
        rate = 0.0
    return CharFn(
        op_index=op_index,
        operator=Ti,
        pair=pair,
        taylor=tuple(coeffs),
        norms=norms,
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
    z = np.exp(1j * (2 * np.pi * np.arange(samples) / samples))
    th = charfn_eval(cf.operator, z, cf.pair, cfg)
    return operator_norm(th.conj().transpose(0, 2, 1) @ th - np.eye(cf.dim_in, dtype=complex))


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
    consecutive blocks along a block diagonal differ by one product:

        (F F^H)_{i, j} = (F F^H)_{i-1, j-1} + c_i c_j^H
        (F^H F)_{i, j} = (F^H F)_{i-1, j-1} - c_{d+1-i}^H c_{d+1-j}

    One GEMM ``X X^H`` of the stacked blocks gives every product, and one
    slice operation per layer sums them down the diagonals from column 0:
    ``c_i c_0^H`` for ``"out"``, the full lag sums ``sum_p c_p^H c_{p+s}`` for
    ``"in"``.  No ``(d+1) r``-cubed product is formed.  The blocks above the
    diagonal are the conjugate transposes of those below and the diagonal
    blocks are symmetrised, so the result is exactly Hermitian."""
    if side not in ("in", "out"):
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    if not 1 <= layers <= d + 1:
        raise ValueError(f"layers must lie in 1..{d + 1}, got {layers}")
    c = np.zeros((d + 2,) + np.shape(taylor[0]), dtype=complex)  # c_{d+1} = 0 pads the "in" steps
    c[:min(len(taylor), d + 1)] = np.array(taylor[:d + 1])
    if side == "out":
        X, op = c[:layers], np.add
    else:
        X, op = c.conj().transpose(0, 2, 1)[d + 1:d + 1 - layers:-1], np.subtract
    r = X.shape[1]
    X = X.reshape(layers * r, X.shape[2])
    G = (X @ X.conj().T).reshape(layers, r, layers, r)  # block (i, j) is X_i X_j^H
    if side == "in":
        C = c.reshape(-1, r)  # the rows of c_0, ..., c_{d+1}
        Ch, m = C.conj().T, c.shape[1]
        G[:, :, 0] = [Ch[:, :(d + 1 - s) * m] @ C[s * m:(d + 1) * m] for s in range(layers)]
    for i in range(1, layers):  # block row i from row i - 1, then mirrored above the diagonal
        op(G[i - 1, :, :i], G[i, :, 1:i + 1], out=G[i, :, 1:i + 1])
        G[:i, :, i] = G[i, :, :i].conj().transpose(1, 2, 0)
    k = np.arange(layers)
    D = G[k, :, k]
    G[k, :, k] = (D + D.conj().transpose(0, 2, 1)) / 2
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
    z, w = np.asarray(samples, dtype=complex).reshape(len(samples), 2).T
    _check_polydisc(z, w)
    Bout = pair.basis_star
    th_z, th_w = np.split(charfn_eval(Ti, np.concatenate([z, w]), pair, cfg), 2)
    lhs = szego_kernel(z[:, None], w[:, None])[:, None, None] * (
        np.eye(Bout.shape[1], dtype=complex) - th_z @ th_w.conj().transpose(0, 2, 1))
    rhs = Bout.conj().T @ _resolvent_product_ambient(Ti, pair, z, w) @ Bout
    return operator_norm(lhs - rhs)


def _resolvent_product_ambient(Ti, pair: DefectPair, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``D*(I - z T^H)^{-1} (I - conj(w) T)^{-1} D*`` as ambient matrices,
    one per entry of the 1-D arrays ``z`` and ``w``, stacked."""
    I = np.eye(Ti.shape[0], dtype=complex)
    z, w = z.reshape(-1, 1, 1), w.reshape(-1, 1, 1)
    mid = np.linalg.solve(I - z * Ti.conj().T, np.linalg.solve(I - np.conj(w) * Ti, pair.defect_star))
    return pair.defect_star @ mid


def _theta_product_ambient(Ti, pair: DefectPair, z: np.ndarray, w: np.ndarray, cfg) -> np.ndarray:
    """``Theta(z) Theta(w)^H`` embedded back into the ambient space, one
    per entry of the 1-D arrays ``z`` and ``w``, stacked."""
    th_z, th_w = np.split(charfn_eval(Ti, np.concatenate([z, w]), pair, cfg), 2)
    Bout = pair.basis_star
    return Bout @ th_z @ th_w.conj().transpose(0, 2, 1) @ Bout.conj().T


def polydisc_kernel_checks(T: ContractionTuple, defects: DefectData, samples,
                           cfg: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """Residuals of the polydisc kernel factorization on the joint defect
    space, from exact closed forms (no truncation) at sample pairs
    ``(z, w)`` of polydisc points, as ``(invariance, product, gramian)``.

    Each variable needs two factors, evaluated once per pair and stacked
    over the pairs: the resolvent product
    ``R_i = D*(I - z_i T_i^H)^{-1} (I - conj(w_i) T_i)^{-1} D*``
    and ``X_i = Theta_i(z_i) Theta_i(w_i)^H``.  With ``B`` the joint
    defect basis, ``P = B B^H`` and ``S`` the polydisc kernel:

    - invariance: the largest leakage ``||(I - P) R_i P||`` and
      ``||(I - P) X_i P||`` out of the joint defect space;
    - product: ``B^H (prod R_i) B`` against ``S(z, w) B^H prod(I - X_i) B``;
    - gramian: the dilation Gramian ``B^H D prod(I - z_i T_i^H)^{-1}
      prod(I - conj(w_i) T_i)^{-1} D B``, ``D`` the joint defect, against
      the same right-hand side."""
    B = defects.big_defect_basis
    Bh = B.conj().T
    P = B @ Bh
    I = np.eye(T.dim, dtype=complex)
    zw = np.asarray(samples, dtype=complex).reshape(len(samples), 2, T.n)
    z, w = zw[:, 0], zw[:, 1]
    _check_polydisc(z, w)
    invariance = 0.0
    resolvents = complements = I
    Vz = Vw = defects.big_defect @ B
    for i, (Ti, pair) in enumerate(zip(T.matrices, defects.per_op)):
        R = _resolvent_product_ambient(Ti, pair, z[:, i], w[:, i])
        X = _theta_product_ambient(Ti, pair, z[:, i], w[:, i], cfg)
        invariance = max(invariance, operator_norm((I - P) @ R @ P), operator_norm((I - P) @ X @ P))
        resolvents = R @ resolvents
        complements = (I - X) @ complements
        Vw = np.linalg.solve(I - np.conj(w[:, i, None, None]) * Ti, Vw)
        Vz = np.linalg.solve(I - np.conj(z[:, i, None, None]) * Ti, Vz)
    rhs = szego_kernel(z, w)[:, None, None] * (Bh @ complements @ B)
    product = operator_norm(Bh @ resolvents @ B - rhs)
    gramian = operator_norm(Vz.conj().transpose(0, 2, 1) @ Vw - rhs)
    return invariance, product, gramian


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


def _opnorm_hermitian(apply_X, size: int) -> float:
    """Spectral norm of a Hermitian ``X`` on ``C^size`` given as a matvec
    callable, from the seeded random complex unit probe ``v``
    (:func:`~dcmodel.matrixcore.unit_probe`):

    - ``||X v||`` below ``_PROBE_FLOOR``: that value, a single-probe
      estimate and not a bound (it can undershoot by about ``sqrt(size)``);
    - otherwise: the top Ritz value of a Lanczos run from ``v``
      (:func:`~dcmodel.matrixcore.krylov_norm`); exact once the basis
      spans ``C^size``."""
    v = unit_probe(size)
    probe = float(np.linalg.norm(apply_X(v)))
    if probe < _PROBE_FLOOR:
        return probe
    return krylov_norm(apply_X, v)


def _fiber_commutator(box: TruncatedHardySpace, fibers, a: int, b: int) -> float:
    """Norm of the commutator of the clipped projections of variables
    ``a`` and ``b`` on the margin ``box``, from their model fibers cut to
    the box rows: ``[I - K_a K_a^H, I - K_b K_b^H] = [K_a K_a^H, K_b K_b^H]``."""
    def apply_comm(v):
        t = v.reshape(box.shape)
        Pa = lambda x: _project_axis(box, fibers[a], a, x)
        Pb = lambda x: _project_axis(box, fibers[b], b, x)
        return 1j * (Pa(Pb(t)) - Pb(Pa(t))).reshape(-1)

    return _opnorm_hermitian(apply_comm, box.total_dim)


def _gramian_box_operator(L: DilationMap, box: TruncatedHardySpace, grams):
    """Matvec of ``P (L L^H - prod(I - F_i F_i^H)) P`` on the margin ``box``,
    ``F_i`` the block-Toeplitz matrix of variable ``i``'s symbol
    (:func:`_model_symbol`) and ``P`` the projection onto the box, the
    layers ``k_i <= box.degree`` in every variable.

    ``grams[i]`` is the leading box block ``A_i`` of ``F_i F_i^H``.
    Restricting to the box is exact: ``P`` is the product of per-axis
    projections ``P_i``, and ``P_j`` commutes with ``I (x) F_i F_i^H (x) I``
    for ``j != i``, so ``P prod(I - F_i F_i^H) P = prod P_i (I - F_i F_i^H) P_i``,
    which is ``prod(I - A_i)`` on the box.  The matvec takes and returns
    flat vectors of the box tensor in C order."""
    Lb = box_rows(L.space, L.matrix, box)

    def apply_X(v):
        rhs = v.reshape(box.shape)
        for i, A in enumerate(grams):
            rhs = rhs - _apply_axis(A, i, rhs)
        # Lb^H v = conj(conj(v) @ Lb), with no conjugated copy of Lb
        return Lb @ np.conj(np.conj(v) @ Lb) - rhs.reshape(-1)

    return apply_X


def box_distance(box: TruncatedHardySpace, bases, apply_other) -> float:
    """Norm of ``prod_i (I (x) B_i B_i^H (x) I) - X`` on the margin ``box``:
    ``bases[i]`` holds the box rows of an orthonormal basis in the
    one-variable space of variable ``i``, and ``apply_other`` applies the
    Hermitian ``X`` to flat vectors of the box.  Cutting each basis to its
    box rows is exact, as :func:`_gramian_box_operator` explains."""
    def apply_X(v):
        return apply_axis_projections(box, bases, v) - apply_other(v)

    return _opnorm_hermitian(apply_X, box.total_dim)


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
    as the orthonormal bases of their complements (the model fibers), the
    margin box every box norm runs on with the fibers cut to its rows, and
    the residuals tying them to the dilation."""

    space: TruncatedHardySpace
    fibers: list
    box: TruncatedHardySpace
    box_fibers: list
    margin_drifts: list
    commutator_residuals: dict
    s_residual: float
    gramian_residual: float


def model_space(
    T: ContractionTuple,
    L: DilationMap,
    charfns,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> ModelSpaces:
    """Assemble the model space from the dilation and the per-variable
    characteristic functions (:class:`CharFn`).

    The model fiber ``K_i``, an orthonormal basis of the complement of
    the clipped projection ``P_i``, holds the left singular vectors of
    ``G_i`` (:func:`_functional_model_factor`) with ``s^2 > 1/2``.  The
    margin box holds the layers ``k_i <= d - d // 2`` in every variable.
    The margin drift ``||I - K_i K_i^H - F_i F_i^H||`` on its layers is
    measured from the symbol ``F_i``, the one check tying the fibers to
    it, and certified against the symbol tail.  Its ``F_i F_i^H`` block
    ``A_i`` comes from :func:`toeplitz_gram` and also serves the
    operator-form Gramian residual on the box.  Also records the residual
    between the dilation range and the complement of the multiplier sum
    space.  The commutators, that split and the Gramian are norms on the
    box, with every factor cut to its box rows; this is exact, as
    :func:`_gramian_box_operator` explains."""
    d = L.degree
    space = L.space
    box = space.margin_box(d // 2)
    rows = (box.degree + 1) * space.coeff_dim
    fibers, box_fibers, margin_drifts, grams = [], [], [], []
    for i, cf in enumerate(charfns):
        U, sv, _ = np.linalg.svd(_functional_model_factor(L, i), full_matrices=False)
        K = U[:, sv ** 2 > _FIBER_SPLIT]
        fibers.append(K)
        Kk = K[:rows]
        box_fibers.append(Kk)
        A = toeplitz_gram(_model_symbol(L.defects, cf, i, d, cfg), d, box.degree + 1, "out")
        grams.append(A)
        md = hermitian_norm(np.eye(len(A)) - Kk @ Kk.conj().T - A)
        margin_drifts.append(md)
        bound = max(cfg.tail_tol, 10.0 * taylor_tail_estimate(cf, box.degree))
        if md > bound:
            raise ProjectionDriftExceedsTolerance(
                f"variable {i}: clipped-projection drift {md:.3e} exceeds bound {bound:.3e}"
            )
    comms = {(a, b): _fiber_commutator(box, box_fibers, a, b)
             for a in range(T.n) for b in range(a + 1, T.n)}
    q_box = range_box_basis(L, box, cfg)
    s_residual = box_distance(box, box_fibers, lambda v: q_box @ (q_box.conj().T @ v))
    gramian_residual = _opnorm_hermitian(_gramian_box_operator(L, box, grams), box.total_dim)
    return ModelSpaces(
        space=space,
        fibers=fibers,
        box=box,
        box_fibers=box_fibers,
        margin_drifts=margin_drifts,
        commutator_residuals=comms,
        s_residual=float(s_residual),
        gramian_residual=float(gramian_residual),
    )
