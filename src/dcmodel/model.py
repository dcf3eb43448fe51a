"""Characteristic functions of the coordinate contractions, their
one-variable multipliers on the truncated polydisc Hardy space, the
closed-form kernel identities, the Gramian identity for the dilation,
commuting-projection algebra, and the model space construction (model
fibers from a thin SVD of the functional-model factor ``G_i``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import DegreeCapExceeded, DilationMap, box_factors, range_factor
from .hardy import TruncatedHardySpace, _check_polydisc, row_blocks, szego_kernel
from .matrixcore import DEFAULT_TOL, NumericalFailure, ToleranceConfig, operator_norm, tsqr
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

# most rows of a frame-coordinate matrix of a box norm (box_distance's m, a
# commutator's two-axis space); at n >= 3, m grows as c (b+1)^(n-1) once the
# frames stop shrinking (r c_i >= b + 1), and a larger one skips the checks
_FRAME_MAX = 2048

# Taylor steps of charfn_taylor whose stop tests share one stacked SVD
_STOP_CHUNK = 32


class ResolventSingular(RuntimeError):
    """The resolvent solve at the requested point is singular."""


class NotProjection(ValueError):
    """A matrix expected to be an orthogonal projection is not."""


class ProjectionDriftExceedsTolerance(RuntimeError):
    """Truncated multiplier projection drifts beyond the certified bound."""


class FrameTooLarge(NumericalFailure):
    """A box norm would form a frame-coordinate matrix above ``_FRAME_MAX`` rows."""


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
    return CharFn(op_index=op_index, operator=Ti, pair=pair, taylor=tuple(coeffs), norms=norms,
                  decay_rate=float(rate))


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
    return [charfn_taylor(T.matrices[i], cfg=cfg, pair=defects.per_op[i], op_index=i) for i in range(T.n)]


def inner_boundary_check(cf: CharFn, samples: int = 64, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Max norm of ``theta(z)^H theta(z) - I`` over equispaced boundary
    points; the characteristic function of a pure contraction is inner,
    so this vanishes up to numerical error."""
    z = np.exp(1j * (2 * np.pi * np.arange(samples) / samples))
    th = charfn_eval(cf.operator, z, cf.pair, cfg)
    return operator_norm(th.conj().transpose(0, 2, 1) @ th - np.eye(cf.dim_in, dtype=complex))


def toeplitz_drift(taylor, d: int, layers: int, side: str, K: np.ndarray = None) -> float:
    """``||I - A - K K^H||_F`` for the leading ``layers``-layer block ``A`` of
    ``F F^H`` (``side="out"``) or of ``F^H F`` (``side="in"``), ``F`` the
    lower-triangular block-Toeplitz matrix of the one-variable symbol
    ``taylor`` truncated at degree ``d`` (block ``(k, j)`` is ``taylor[k - j]``),
    and ``K`` flat columns on those layers (default none), forming neither.
    With ``c_m`` the Taylor blocks (zero past the series and past ``d``),
    ``M = I - A - K K^H`` has the displacement

        M_{i, j} - M_{i-1, j-1} = -Z_i Z~_j^H,
        Z_i = [X_i, K_i, K_{i-1}],  Z~_j = [+-X_j, K_j, -K_{j-1}],

    ``X_i = c_i`` and ``+`` for ``F F^H``, ``X_i = c_{d+1-i}^H`` and ``-`` for
    ``F^H F``.  The walk keeps the lower part of one block column, ``S[s] =
    M_{t+s, t}``, from column 0 (``I - c_s c_0^H - K_s K_0^H``, or
    ``I - lags - K_s K_0^H`` with the lag sums ``sum_p c_p^H c_{p+s}``), and
    steps to column ``t + 1`` by one GEMM and one in-place subtraction; the
    blocks below the diagonal count twice, once for their mirrors."""
    if side not in ("in", "out"):
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    if not 1 <= layers <= d + 1:
        raise ValueError(f"layers must lie in 1..{d + 1}, got {layers}")
    c = np.zeros((d + 2,) + np.shape(taylor[0]), dtype=complex)  # c_{d+1} = 0 pads the "in" steps
    c[:min(len(taylor), d + 1)] = np.array(taylor[:d + 1])
    if side == "out":
        X, sign = c[:layers], 1.0
        A0 = (X @ X[0].conj().T).reshape(-1, X.shape[1])  # column 0 of A: c_s c_0^H
    else:
        X, sign = c[d + 1:d + 1 - layers:-1].conj().transpose(0, 2, 1), -1.0
        C = c.reshape(-1, c.shape[2])  # the rows of c_0, ..., c_{d+1}
        Ch, m = C.conj().T, c.shape[1]
        A0 = np.concatenate([Ch[:, :(d + 1 - s) * m] @ C[s * m:(d + 1) * m] for s in range(layers)])
    r = X.shape[1]
    K = np.zeros((layers * r, 0)) if K is None else K
    Kp = np.concatenate([np.zeros((r, K.shape[1])), K[:-r]])  # K_{i-1}, K_{-1} = 0
    Z = np.concatenate([X.reshape(layers * r, X.shape[2]), K, Kp], axis=1)
    Zt = Z.conj() * np.repeat([sign, 1.0, -1.0], [X.shape[2], K.shape[1], K.shape[1]])  # conj(Z~)
    S = -A0 - K @ K[:r].conj().T  # column 0 of M
    S[:r] += np.eye(r)
    total = 0.0
    for t in range(layers):
        if t:
            S[:(layers - t) * r] -= Z[t * r:] @ Zt[t * r:(t + 1) * r].T
        v = S[:(layers - t) * r].view(np.float64).ravel()
        total += 2.0 * float(v @ v) - float(v[:2 * r * r] @ v[:2 * r * r])
    return float(np.sqrt(total))


def box_drift(K: np.ndarray, blocks, d: int) -> float:
    """Frobenius norm (an upper bound on the spectral one) of ``I - K K^H - A``
    on the rows of ``K``, whole layers of a one-variable space, ``A`` that block
    of ``F F^H`` for the symbol ``blocks`` at degree ``d`` (:func:`toeplitz_drift`);
    ``A = 0`` for the zero symbol (no blocks, the rows read as one-row layers)."""
    if not len(blocks):
        blocks, d = [np.zeros((1, 0))], len(K) - 1
    return toeplitz_drift(blocks, d, len(K) // len(blocks[0]), "out", K)


def polydisc_kernel_checks(T: ContractionTuple, defects: DefectData, samples,
                           cfg: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """Residuals of the polydisc kernel factorization, from exact closed
    forms (no truncation) at sample pairs ``(z, w)`` of polydisc points, as
    ``(one_variable, invariance, product, gramian)``.

    Each variable needs two factors, evaluated once per pair and stacked
    over the pairs: the resolvent product
    ``R_i = D*(I - z_i T_i^H)^{-1} (I - conj(w_i) T_i)^{-1} D*``
    and ``Theta_i(z_i) Theta_i(w_i)^H``, ``X_i`` once embedded by the
    star-defect basis ``B*_i``.  With ``B`` the joint defect basis,
    ``P = B B^H`` and ``S`` the polydisc kernel:

    - one_variable: the Sz.-Nagy-Foias factor of each variable, the largest
      ``||S(z_i, w_i)(I - Theta_i(z_i) Theta_i(w_i)^H) - B*_i^H R_i B*_i||``;
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
    one_variable = invariance = 0.0
    resolvents = complements = I
    Vz = Vw = defects.big_defect @ B
    for i, (Ti, pair) in enumerate(zip(T.matrices, defects.per_op)):
        zi, wi = z[:, i, None, None], w[:, i, None, None]
        Bout = pair.basis_star
        R = pair.defect_star @ np.linalg.solve(I - zi * Ti.conj().T,
                                               np.linalg.solve(I - np.conj(wi) * Ti, pair.defect_star))
        th_z, th_w = np.split(charfn_eval(Ti, np.concatenate([z[:, i], w[:, i]]), pair, cfg), 2)
        th_wh = th_w.conj().transpose(0, 2, 1)
        X = Bout @ th_z @ th_wh @ Bout.conj().T
        lhs = szego_kernel(z[:, i, None], w[:, i, None])[:, None, None] * (
            np.eye(Bout.shape[1], dtype=complex) - th_z @ th_wh)
        one_variable = max(one_variable, operator_norm(lhs - Bout.conj().T @ R @ Bout))
        invariance = max(invariance, operator_norm((I - P) @ R @ P), operator_norm((I - P) @ X @ P))
        resolvents = R @ resolvents
        complements = (I - X) @ complements
        Vw = np.linalg.solve(I - np.conj(wi) * Ti, Vw)
        Vz = np.linalg.solve(I - np.conj(zi) * Ti, Vz)
    rhs = szego_kernel(z, w)[:, None, None] * (Bh @ complements @ B)
    product = operator_norm(Bh @ resolvents @ B - rhs)
    gramian = operator_norm(Vz.conj().transpose(0, 2, 1) @ Vw - rhs)
    return one_variable, invariance, product, gramian


def _embedding(defects: DefectData, i: int) -> np.ndarray:
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


def _model_symbol(defects: DefectData, cf: CharFn, i: int, d: int) -> list:
    """Taylor blocks, up to degree ``d``, of the symbol ``E^H theta`` of
    variable ``i``.  Its block-Toeplitz matrix ``F`` is ``K^H M_theta``
    with ``K = I_{d+1} (x) E``, so ``F F^H`` is the one-variable
    compression of the truncated multiplier projection."""
    E = _embedding(defects, i)
    return [E.conj().T @ theta for theta in cf.taylor[:d + 1]]


def _along(A: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """``t`` with the matrix ``A`` applied along its axis ``k``."""
    return np.moveaxis(np.tensordot(A, t, axes=(1, k)), 0, k)


def axis_frames(box: TruncatedHardySpace, bases) -> list:
    """Exact per-axis frames ``(U_i, Q_i, D_i)`` of ``bases[i]``, the box
    rows ``B_i`` (``c_i`` columns, orthonormal or not) of a family in the
    one-variable space of variable ``i``: ``U_i`` is a plain QR basis of the
    ``(b+1) x r c_i`` matrix of its layer slices (``s_i = min(b+1, r c_i)``
    columns), ``(U_i^H (x) I_r) B_i = Q_i R_i`` with ``Q_i`` held as an
    ``(s_i, r, k_i)`` tensor, and ``D_i = R_i R_i^H``.  No cut, no tolerance.

    With ``U~ = U_0 (x) ... (x) U_{n-1} (x) I_r`` and ``E_i`` for ``Q_i`` on
    axis ``i`` and the coefficient axis (orthonormal columns), the projection
    ``P_i = I (x) B_i B_i^H (x) I`` maps into the range of ``U~`` on axis ``i``
    and is the identity on the others, so a product containing every ``P_i``
    is ``U~ (...) U~^H`` with each ``P_i`` replaced by ``E_i D_i E_i^H``."""
    r = box.coeff_dim
    frames = []
    for B in bases:
        layers = B.reshape(box.degree + 1, r * B.shape[1])
        U = np.linalg.qr(layers)[0]
        Q, R = np.linalg.qr((U.conj().T @ layers).reshape(U.shape[1] * r, B.shape[1]))
        frames.append((U, Q.reshape(U.shape[1], r, Q.shape[1]), R @ R.conj().T))
    return frames


def _chain(frames) -> np.ndarray:
    """``C = D_{n-1} E_{n-1}^H E_{n-2} D_{n-2} ... D_1 E_1^H E_0 D_0`` as an
    ``m_{n-1} x m_0`` matrix, rows ``(s_0, ..., s_{n-2}, k_{n-1})`` and columns
    ``(k_0, s_1, ..., s_{n-1})``.  ``E_i^H E_{i-1}`` acts on axes ``i-1`` and
    ``i`` alone, so each step contracts one axis of the running product with
    ``D_i Z``, ``Z[p, J, j, q] = sum_x conj(Q_i[q, x, J]) Q_{i-1}[p, x, j]``."""
    C = frames[0][2][None]  # (rows so far, column axis of E_i, columns so far)
    for (_, Qp, _), (_, Q, D) in zip(frames, frames[1:]):
        F = np.einsum("JK,pKjq->pJjq", D, np.einsum("qxK,pxj->pKjq", Q.conj(), Qp))
        C = np.tensordot(C, F, axes=(1, 2)).transpose(0, 2, 3, 1, 4)
        rows, p, k, cols, q = C.shape
        C = C.reshape(rows * p, k, cols * q)
    return C.reshape(C.shape[0] * C.shape[1], C.shape[2])


def box_coordinates(box: TruncatedHardySpace, frames, w, R) -> tuple:
    """The coordinates ``(C, S_L, S_R)`` of ``prod_i P_i - W W^H`` on the
    margin ``box`` (variable 0 applied first; ``frames`` from
    :func:`axis_frames`), for a thin ``W`` given by the split
    ``W = U~ w + W_perp``: ``w = U~^H W`` as a tensor of shape
    ``(s_0, ..., s_{n-1}, r, cols)`` and a triangular factor ``R`` of ``W_perp``,
    ``None`` when it is zero, as it is when every ``U_i`` is square (for the box
    rows of ``L``, :func:`dilation.box_factors`).  Cutting one-variable bases to
    their box rows is exact, as the box projection commutes with every factor
    acting on another axis.

    The product is ``U~ E_{n-1} C E_0^H U~^H`` (:func:`_chain`).
    ``W - U~ E E^H w`` is orthogonal to ``U~ E`` for
    ``E = E_{n-1}`` and for ``E = E_0``, with triangular factors ``R_L`` and
    ``R_R`` of ``[(I - E E^H) w; W_perp]``, so in orthonormal frames the
    operator is ``K = diag(C, 0) - S_L S_R^H``, ``S_L = [E_{n-1}^H w; R_L]``,
    ``S_R = [E_0^H w; R_R]``, of ``m_{n-1} + w`` by ``m_0 + w``, ``m_i = k_i
    prod_{j != i} s_j``; for ``W X`` they are ``(C, S_L X, S_R X)`` in the same
    frames.  Raises :class:`FrameTooLarge` above ``_FRAME_MAX``."""
    n = box.n
    s = [U.shape[1] for U, _, _ in frames]
    m = max(Q.shape[2] * int(np.prod(s[:i] + s[i + 1:])) for i, (_, Q, _) in enumerate(frames))
    if m > _FRAME_MAX:
        raise FrameTooLarge(f"the box norm needs an m = {m} row coordinate matrix, above {_FRAME_MAX}")
    cols = w.shape[-1]
    sides = []
    for i in (n - 1, 0):  # E_i^H w (the column axis in place of axis i), then the residual
        Q = frames[i][1]
        y = np.moveaxis(np.tensordot(Q.conj(), w, axes=([0, 1], [i, n])), 0, i)
        rest = w - np.moveaxis(np.tensordot(Q, y, axes=(2, i)), [0, 1], [i, n])
        sides.append(np.concatenate([y.reshape(-1, cols), tsqr(rest.reshape(-1, cols), R)]))
    return _chain(frames), sides[0], sides[1]


def _coordinate_norm(C, SL, SR) -> float:
    """Norm of ``K = diag(C, 0) - S_L S_R^H`` (:func:`box_coordinates`) from
    the largest eigenvalue of its Gram matrix, whether or not the ``P_i`` commute."""
    K = -SL @ SR.conj().T
    K[:C.shape[0], :C.shape[1]] += C
    G = K.conj().T @ K if K.shape[0] >= K.shape[1] else K @ K.conj().T
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def box_distance(box: TruncatedHardySpace, frames, W) -> float:
    """Exact norm of ``prod_i P_i - W W^H`` on the margin ``box`` for flat columns
    ``W`` of the box, from its coordinates (:func:`box_coordinates`, which
    raises :class:`FrameTooLarge`), with ``w = U~^H W`` and the TSQR factor of
    ``W - U~ w`` formed from ``W`` itself."""
    t = W.reshape(box.shape + W.shape[-1:])
    w = t
    for j, (U, _, _) in enumerate(frames):
        w = _along(U.conj().T, w, j)
    u = w
    for j, (U, _, _) in enumerate(frames):
        u = _along(U, u, j)
    square = all(U.shape[1] > box.degree for U, _, _ in frames)  # then W_perp is zero
    R = None if square else tsqr((t - u).reshape(-1, W.shape[-1]))
    return _coordinate_norm(*box_coordinates(box, frames, w, R))


def _frame_commutator(frames, a: int, b: int) -> float:
    """Exact norm of the commutator ``[P_a, P_b]`` of two box projections
    (:func:`axis_frames`).  It is the identity on the other axes, so it is
    ``X - X^H``, ``X = E_a N E_b^H``, ``N = D_a Z D_b``, ``Z = E_a^H E_b``, on the
    two-axis frame space of ``s_a s_b r`` rows.  With ``R_Y`` the triangular
    factor of ``E_b - E_a Z``, by TSQR over its slabs of fixed ``p`` (its Gram
    ``I - Z^H Z`` would lose small angles to cancellation), the commutator is the anti-Hermitian
    ``[[N Z^H - Z N^H, N R_Y^H], [-R_Y N^H, 0]]`` in an orthonormal frame; its
    norm is the largest eigenvalue modulus of ``i`` times it.  Raises
    :class:`FrameTooLarge` when the two-axis space exceeds ``_FRAME_MAX`` rows."""
    (_, Qa, Da), (_, Qb, Db) = frames[a], frames[b]
    sa, r, ka = Qa.shape
    sb, kb = Qb.shape[0], Qb.shape[2]
    if sa * sb * r > _FRAME_MAX:
        raise FrameTooLarge(f"a commutator needs an m = {sa * sb * r} row frame space, above {_FRAME_MAX}")
    if not sa * sb:  # an empty fiber: P_a or P_b is zero
        return 0.0
    # E_a has columns (j, q) and E_b columns (p, J), both rows (p, q, x)
    Z = np.einsum("pxj,qxJ->jqpJ", Qa.conj(), Qb)
    RY = None
    for p0, p1 in row_blocks(TruncatedHardySpace(1, sa - 1, sb * r), sa * kb):  # a row block of slabs
        Y = -np.tensordot(Qa[p0:p1], Z, axes=(2, 0)).transpose(0, 2, 1, 3, 4)  # -E_a Z, (p, q, x, p', J)
        Y[np.arange(p1 - p0), :, :, np.arange(p0, p1)] += Qb  # + E_b, the identity on p
        RY = tsqr(Y.reshape((p1 - p0) * sb * r, sa * kb), RY)
    N = np.einsum("jk,kqpK,KJ->jqpJ", Da, Z, Db).reshape(ka * sb, sa * kb)  # D_a Z D_b
    Z = Z.reshape(ka * sb, sa * kb)
    X = np.concatenate([N @ Z.conj().T, N @ RY.conj().T], axis=1)
    iM = np.zeros((X.shape[1], X.shape[1]), dtype=complex)
    iM[:len(X)] = 1j * X
    iM[:, :len(X)] -= 1j * X.conj().T
    return float(np.max(np.abs(np.linalg.eigvalsh(iM)), initial=0.0))


def _functional_model_factor(L: DilationMap, i: int) -> np.ndarray:
    """The ``(d+1) r x dim`` matrix ``G_i`` with row blocks
    ``B^H D_{T_i*} T_i^{*k}``, ``k = 0..d``, ``B`` the joint defect basis:
    the compression ``K^H V_i`` of the Sz.-Nagy-Foias dilation of ``T_i``.
    As ``V_i V_i^H + M_theta M_theta^H = I`` for a pure contraction, and
    both sides are exact on the leading ``d+1`` layers (``M_theta`` is
    lower triangular), ``I - F_i F_i^H = G_i G_i^H`` (:func:`_model_symbol`)."""
    B = L.defects.big_defect_basis
    C = B.conj().T @ L.defects.per_op[i].defect_star
    G = np.einsum("ra,kab->krb", C, L.powers[i])
    return G.reshape(-1, L.tuple.dim)


@dataclass
class ModelSpaces:
    """Model-space data: per-variable clipped multiplier projections, held
    as the orthonormal bases of their complements (the model fibers), the
    margin box every box norm runs on with the fibers cut to its rows, and
    the residuals tying them to the dilation (the three box norms ``None``
    when ``frame_error`` says their frames exceed ``_FRAME_MAX``)."""

    space: TruncatedHardySpace
    fibers: list
    box: TruncatedHardySpace
    box_fibers: list
    margin_drifts: list
    commutator_residuals: dict | None
    s_residual: float | None
    gramian_residual: float | None
    frame_error: FrameTooLarge | None = None


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
    it, and certified against the symbol tail (:func:`box_drift`, whose
    ``F_i F_i^H`` block is ``A_i``).

    The commutators and the two norms below are exact on the box, from one
    set of frames (:func:`axis_frames`) and one set of box coordinates
    ``(C, S_L, S_R)`` of the box rows ``L_b`` of ``L`` (:func:`box_coordinates`),
    whose frame coordinates and ``W_perp`` factor come from ``C0`` and the
    powers (:func:`dilation.box_factors`).
    The operator-form Gramian ``||L_b L_b^H - prod_i (I - A_i)||`` is bounded
    by telescoping, as every ``I - A_i`` and ``B_i B_i^H`` has norm at most
    one: by the exact ``||L_b L_b^H - prod_i B_i B_i^H||`` plus the sum of
    the margin drifts.  The split between the dilation range and the
    complement of the multiplier sum space is the same norm for ``L_b W``, the
    box rows of the range basis ``L W``, of coordinates ``(C, S_L W, S_R W)``:
    the ``dim x k`` factor ``W`` comes from the tuple's powers too
    (:func:`dilation.range_factor`), so no row of ``L`` is formed."""
    d = L.degree
    space = L.space
    box = space.margin_box(d // 2)
    rows = (box.degree + 1) * space.coeff_dim
    fibers, box_fibers, margin_drifts = [], [], []
    for i, cf in enumerate(charfns):
        U, sv, _ = np.linalg.svd(_functional_model_factor(L, i), full_matrices=False)
        K = U[:, sv ** 2 > _FIBER_SPLIT]
        fibers.append(K)
        Kk = K[:rows]
        box_fibers.append(Kk)
        md = box_drift(Kk, _model_symbol(L.defects, cf, i, d), d)
        margin_drifts.append(md)
        bound = max(cfg.tail_tol, 10.0 * taylor_tail_estimate(cf, box.degree))
        if md > bound:
            raise ProjectionDriftExceedsTolerance(
                f"variable {i}: clipped-projection drift {md:.3e} exceeds bound {bound:.3e}"
            )
    frames = axis_frames(box, box_fibers)
    try:
        comms = {(a, b): _frame_commutator(frames, a, b)
                 for a in range(T.n) for b in range(a + 1, T.n)}
        C, SL, SR = box_coordinates(box, frames, *box_factors(L, [U for U, _, _ in frames]))
    except FrameTooLarge as e:
        return ModelSpaces(space, fibers, box, box_fibers, margin_drifts, None, None, None, e)
    W = range_factor(L, cfg)
    return ModelSpaces(space, fibers, box, box_fibers, margin_drifts, comms,
                       _coordinate_norm(C, SL @ W, SR @ W), _coordinate_norm(C, SL, SR) + sum(margin_drifts))
