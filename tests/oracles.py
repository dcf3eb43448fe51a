"""Reference implementations used only as test oracles.

Most build explicit ``N x N`` matrices on the truncated polydisc space,
``N = (d+1)^n r``, so they are meant for small spaces; the package
computes the same objects in the one-variable space of each variable.
The others walk the multi-indices, or the sample points, one at a time,
where the package uses whole-array operations."""

import itertools
from dataclasses import dataclass

import numpy as np

from dcmodel import hardy
from dcmodel.blh import inner_from_wandering
from dcmodel.hardy import (
    TruncatedHardySpace,
    _check_polydisc,
    _monomials,
    apply_coshift,
    apply_shift,
    box_rows,
    szego_kernel,
)
from dcmodel.matrixcore import (
    DEFAULT_TOL,
    operator_norm,
    orthonormal_range_basis,
    phase_normalize_columns,
)
from dcmodel.model import CharFn, NotProjection, _embedding, _project_axis, charfn_eval


class NotCommuting(ValueError):
    """Projections expected to commute do not."""


def indices(space: TruncatedHardySpace) -> list:
    """Multi-indices in storage (lexicographic) order."""
    return list(itertools.product(range(space.degree + 1), repeat=space.n))


def index_pos(space: TruncatedHardySpace) -> dict:
    """Storage position of each multi-index, ``np.ravel_multi_index(k, (d+1,)*n)``."""
    return {k: p for p, k in enumerate(indices(space))}


def enumerate_multi_indices(n: int, d: int) -> list:
    """All multi-indices with components in 0..d, graded order."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return sorted(itertools.product(range(d + 1), repeat=n), key=lambda k: (sum(k), k))


def point_evaluation(space: TruncatedHardySpace, flat: np.ndarray, z) -> np.ndarray:
    """Evaluate the stored polynomial at a point of the polydisc."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    flat = np.asarray(flat, dtype=complex)
    return _monomials(space, z) @ flat.reshape(space.num_indices, space.coeff_dim)


def shift_matrix(space: TruncatedHardySpace, i: int) -> np.ndarray:
    """Dense matrix of multiplication by z_i on the truncated space
    (top-layer coefficients are annihilated)."""
    N, r = space.total_dim, space.coeff_dim
    S = np.zeros((N, N), dtype=complex)
    up = shift_up_map(space, i)
    for p in range(space.num_indices):
        q = up[p]
        if q >= 0:
            S[q * r:(q + 1) * r, p * r:(p + 1) * r] = np.eye(r)
    return S


def coshift_matrix(space: TruncatedHardySpace, i: int) -> np.ndarray:
    """Adjoint of :func:`shift_matrix`."""
    return shift_matrix(space, i).conj().T


def constants_projection_check(space: TruncatedHardySpace) -> float:
    """Residual of the inclusion-exclusion identity

        sum_{S subset of variables} (-1)^|S| (prod shift_S)(prod coshift_S)
            = projection onto the degree-zero coefficients,

    which holds exactly on the truncated space."""
    N = space.total_dim
    acc = np.zeros((N, N), dtype=complex)
    shifts = [shift_matrix(space, i) for i in range(space.n)]
    for sel in itertools.product((0, 1), repeat=space.n):
        chosen = [i for i, s in enumerate(sel) if s]
        M = np.eye(N, dtype=complex)
        for i in chosen:
            M = shifts[i] @ M
        for i in chosen:
            M = M @ shifts[i].conj().T
        acc += ((-1) ** len(chosen)) * M
    P0 = np.zeros((N, N), dtype=complex)
    p0 = index_pos(space)[(0,) * space.n]
    r = space.coeff_dim
    P0[p0 * r:(p0 + 1) * r, p0 * r:(p0 + 1) * r] = np.eye(r)
    return operator_norm(acc - P0)


def kernel_vector(space: TruncatedHardySpace, w, eta) -> np.ndarray:
    """Truncated kernel vector ``conj(w)^k eta``, one index at a time."""
    r = space.coeff_dim
    out = np.zeros(space.total_dim, dtype=complex)
    for p, k in enumerate(indices(space)):
        scale = 1.0 + 0.0j
        for ki, wi in zip(k, np.conj(w)):
            scale *= wi ** ki
        out[p * r:(p + 1) * r] = scale * np.asarray(eta, dtype=complex)
    return out


def shift_up_map(space: TruncatedHardySpace, i: int) -> np.ndarray:
    """Position of k + e_i for each index position (or -1 past the cap),
    one index at a time."""
    up = np.full(space.num_indices, -1, dtype=np.intp)
    pos = index_pos(space)
    for k, p in pos.items():
        if k[i] < space.degree:
            kk = list(k)
            kk[i] += 1
            up[p] = pos[tuple(kk)]
    return up


def margin_mask(space: TruncatedHardySpace, margin: int) -> np.ndarray:
    """Row mask of the indices with every component <= degree - margin,
    one index at a time."""
    cap = space.degree - margin
    keep = np.array([all(ki <= cap for ki in k) for k in indices(space)])
    return np.repeat(keep, space.coeff_dim)


def one_var_factor_matrix(space: TruncatedHardySpace, A: np.ndarray, i: int) -> np.ndarray:
    """Dense ``I (x) A (x) I`` for a ``(d+1) r``-square ``A`` acting on
    ``(k_i, coefficient)``, one pair of multi-indices at a time."""
    r = space.coeff_dim
    M = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    pos = index_pos(space)
    for k, p in pos.items():
        for l, q in pos.items():
            if all(a == b for j, (a, b) in enumerate(zip(k, l)) if j != i):
                M[p * r:(p + 1) * r, q * r:(q + 1) * r] = \
                    A[k[i] * r:(k[i] + 1) * r, l[i] * r:(l[i] + 1) * r]
    return M


def charfn_point_from_taylor(cf: CharFn, z: complex) -> np.ndarray:
    """Horner evaluation of the stored Taylor series."""
    acc = np.zeros((cf.dim_out, cf.dim_in), dtype=complex)
    for theta in reversed(cf.taylor):
        acc = z * acc + theta
    return acc


@dataclass(frozen=True)
class OneVarMultiplier:
    """Truncated multiplier by a one-variable symbol acting in variable
    ``char_fn.op_index`` and as the identity in the others."""

    char_fn: CharFn
    domain_space: TruncatedHardySpace
    codomain_space: TruncatedHardySpace
    one_var: np.ndarray  # (d+1) r_out x (d+1) r_in block-Toeplitz

    def full_matrix(self) -> np.ndarray:
        """Dense matrix on the n-variable truncated spaces."""
        dom, cod = self.domain_space, self.codomain_space
        r_in, r_out = dom.coeff_dim, cod.coeff_dim
        i = self.char_fn.op_index
        M = np.zeros((cod.total_dim, dom.total_dim), dtype=complex)
        pos = index_pos(cod)
        for p, k in enumerate(indices(dom)):
            # input coefficient at k feeds output coefficients at k + m e_i
            for m, theta in enumerate(self.char_fn.taylor):
                if k[i] + m > dom.degree:
                    break
                kk = list(k)
                kk[i] = k[i] + m
                q = pos[tuple(kk)]
                M[q * r_out:(q + 1) * r_out, p * r_in:(p + 1) * r_in] = theta
        return M


def multiplier_matrix(cf: CharFn, space: TruncatedHardySpace) -> OneVarMultiplier:
    """The truncated multiplier of ``cf`` on a polydisc space with the
    same variable count and degree cap as ``space``."""
    n, d = space.n, space.degree
    return OneVarMultiplier(
        char_fn=cf,
        domain_space=TruncatedHardySpace(n, d, cf.dim_in),
        codomain_space=TruncatedHardySpace(n, d, cf.dim_out),
        one_var=one_var_toeplitz(cf.taylor, d),
    )


def one_var_toeplitz(taylor, d: int) -> np.ndarray:
    """Lower-triangular block-Toeplitz matrix, one block at a time."""
    r_out, r_in = taylor[0].shape
    M = np.zeros(((d + 1) * r_out, (d + 1) * r_in), dtype=complex)
    for k in range(d + 1):
        for m, theta in enumerate(taylor):
            if m > k:
                break
            M[k * r_out:(k + 1) * r_out, (k - m) * r_in:(k - m + 1) * r_in] = theta
    return M


def one_var_raw_factors(defects, charfns, d: int, cfg=DEFAULT_TOL) -> list:
    """``K^H M_theta M_theta^H K`` with the explicit ``K = I_{d+1} (x) E``."""
    out = []
    for i, cf in enumerate(charfns):
        E = _embedding(defects, i, cfg)
        M1 = one_var_toeplitz(cf.taylor, d)
        K = np.kron(np.eye(d + 1, dtype=complex), E)
        A = K.conj().T @ (M1 @ (M1.conj().T @ K))
        out.append(0.5 * (A + A.conj().T))
    return out


def toeplitz_gram_eigh(blocks, d: int) -> tuple:
    """Eigenvalues (ascending) and orthonormal eigenvectors of ``F F^H``,
    ``F = one_var_toeplitz(blocks, d)``, from the dense divide-and-conquer
    solver (subset eigensolvers can fail on its two tight clusters)."""
    F = one_var_toeplitz(blocks, d)
    return np.linalg.eigh(F @ F.conj().T)


def clip_to_projection(A: np.ndarray) -> tuple:
    """Round a nearly-idempotent matrix to the nearest orthogonal projection
    (eigenvalues of its Hermitian part snapped to 0/1 at 1/2); returns the
    projection and a bound on the drift ``||P - A||``, exact for Hermitian A."""
    H = 0.5 * (A + A.conj().T)
    w, V = np.linalg.eigh(H)
    P = (V * (w >= 0.5)) @ V.conj().T
    # P - H = V diag(snap(w) - w) V^H; the anti-Hermitian part adds at most its norm
    drift = np.max(np.abs((w >= 0.5) - w), initial=0.0) + np.linalg.norm(A - H)
    return P, float(drift)


def sum_projection(projections, cfg=DEFAULT_TOL) -> np.ndarray:
    """Projection onto the (closed) sum of the ranges of a commuting
    family of orthogonal projections: ``I - prod(I - P_i)``."""
    mats = [np.asarray(P, dtype=complex) for P in projections]
    if not mats:
        raise ValueError("need at least one projection")
    N = mats[0].shape[0]
    for P in mats:
        if P.shape != (N, N):
            raise NotProjection("projections must be square and equal-sized")
        if operator_norm(P - P.conj().T) > cfg.check_tol:
            raise NotProjection("matrix is not Hermitian")
        if operator_norm(P @ P - P) > cfg.check_tol:
            raise NotProjection("matrix is not idempotent")
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if operator_norm(mats[a] @ mats[b] - mats[b] @ mats[a]) > cfg.check_tol:
                raise NotCommuting(f"projections {a} and {b} do not commute")
    acc = np.eye(N, dtype=complex)
    for P in mats:
        acc = acc @ (np.eye(N, dtype=complex) - P)
    return np.eye(N, dtype=complex) - acc


def dilation_matrix(T, defects, d: int) -> np.ndarray:
    """Rows ``C0 T^{*k}`` of the truncated dilation in storage order, from
    ``T^{*k} = T_i^* T^{*(k - e_i)}`` memoised over the multi-indices."""
    space = TruncatedHardySpace(T.n, d, defects.rank)
    C0 = defects.big_defect_basis.conj().T @ defects.big_defect
    powers = {(0,) * T.n: np.eye(T.dim, dtype=complex)}
    r = defects.rank
    L = np.zeros((space.total_dim, T.dim), dtype=complex)
    for p, k in enumerate(indices(space)):
        if k not in powers:
            i = next(a for a, ka in enumerate(k) if ka > 0)
            prev = list(k)
            prev[i] -= 1
            powers[k] = T.matrices[i].conj().T @ powers[tuple(prev)]
        L[p * r:(p + 1) * r, :] = C0 @ powers[k]
    return L


def projection_matrix(model, i: int) -> np.ndarray:
    """Dense ``I (x) P_i (x) I`` for the clipped projection
    ``P_i = I - K_i K_i^H`` of variable i, ``K_i`` its model fiber."""
    N = model.space.total_dim
    I = np.eye(N, dtype=complex)
    KKh = _project_axis(model.space, model.fibers[i], i, I.reshape(model.space.shape + (N,)))
    return I - KKh.reshape(N, N)


def s_projection(model) -> np.ndarray:
    """Dense projection onto the model's sum space ``I - prod(I - P_i)``."""
    I = np.eye(model.space.total_dim, dtype=complex)
    C = I
    for i in range(model.space.n):
        C = C @ (I - projection_matrix(model, i))
    return I - C


def _loose_basis(M: np.ndarray, cfg) -> np.ndarray:
    """Orthonormal range basis, singular values below ``sqrt(tail_tol)``
    of the largest dropped."""
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    cut = max(cfg.rank_tol, np.sqrt(cfg.tail_tol)) * s[0]
    return phase_normalize_columns(U[:, : int(np.sum(s > cut))])


def fiber_basis(model, i: int, cfg=DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the one-variable fiber of ``range(I (x) P_i (x) I)``:
    the layers whose other variables all have degree zero."""
    space = model.space
    d, r = space.degree, space.coeff_dim
    basis = orthonormal_range_basis(projection_matrix(model, i), cfg)
    rows = []
    pos = index_pos(space)
    for m in range(d + 1):
        k = [0] * space.n
        k[i] = m
        p = pos[tuple(k)]
        rows.extend(range(p * r, (p + 1) * r))
    return _loose_basis(basis[np.array(rows, dtype=np.intp)], cfg)


def wandering_from_basis(B: np.ndarray, d: int, r: int, cfg=DEFAULT_TOL) -> np.ndarray:
    """Wandering part ``M - S(M ∩ ker top)`` of the one-variable subspace
    ``M`` spanned by the orthonormal columns of ``B``."""
    if B.shape[1] == 0:
        return np.zeros((B.shape[0], 0), dtype=complex)
    one_var = TruncatedHardySpace(1, d, r)
    top = B[d * r:(d + 1) * r, :]
    _, s, Vh = np.linalg.svd(top, full_matrices=True)
    rank_top = int(np.sum(s > cfg.rank_tol * s[0])) if s.size and s[0] > 0 else 0
    low = B @ Vh.conj().T[:, rank_top:]
    Z = orthonormal_range_basis(apply_shift(one_var, low, 0), cfg)
    return _loose_basis(B - Z @ (Z.conj().T @ B), cfg)


def inner_functions(model, cfg=DEFAULT_TOL) -> list:
    """Dense BLH pipeline: projection range, fiber, wandering subspace,
    inner Taylor columns."""
    d, r = model.space.degree, model.space.coeff_dim
    return [
        inner_from_wandering(wandering_from_basis(fiber_basis(model, i, cfg), d, r, cfg),
                             r, cfg, variable=i)
        for i in range(model.space.n)
    ]


def multiplier_columns(inner, space: TruncatedHardySpace) -> np.ndarray:
    """Images of the truncated domain under the multiplier by a recovered
    inner function, as columns in ``space``."""
    i, r, e, d = inner.variable, space.coeff_dim, inner.inner_dim, space.degree
    if e == 0:
        return np.zeros((space.total_dim, 0), dtype=complex)
    dom = TruncatedHardySpace(space.n, d, e)
    out = np.zeros((space.total_dim, dom.total_dim), dtype=complex)
    pos = index_pos(space)
    for p, k in enumerate(indices(dom)):
        for m, block in enumerate(inner.columns):
            if k[i] + m > d:
                break
            kk = list(k)
            kk[i] = k[i] + m
            q = pos[tuple(kk)]
            out[q * r:(q + 1) * r, p * e:(p + 1) * e] = block
    return out


def reconstruct_distance(inners, model, cfg=DEFAULT_TOL) -> float:
    """Margin-restricted distance between the sum of the recovered
    multiplier ranges and the model's sum space."""
    space = model.space
    blocks = [multiplier_columns(inner, space) for inner in inners]
    U = _loose_basis(np.concatenate([np.zeros((space.total_dim, 0))] + blocks, axis=1), cfg)
    sel = np.nonzero(margin_mask(space, space.degree - model.box.degree))[0]
    return operator_norm((s_projection(model) - U @ U.conj().T)[np.ix_(sel, sel)])


def inner_boundary_loop(cf: CharFn, samples: int, cfg=DEFAULT_TOL) -> float:
    """``inner_boundary_check`` one boundary point at a time."""
    worst = 0.0
    I = np.eye(cf.dim_in, dtype=complex)
    for t in range(samples):
        z = np.exp(2j * np.pi * t / samples)
        th = charfn_eval(cf.operator, z, cf.pair, cfg)
        worst = max(worst, operator_norm(th.conj().T @ th - I))
    return worst


def _resolvent_product(Ti, pair, z: complex, w: complex) -> np.ndarray:
    """``D*(I - z T^H)^{-1} (I - conj(w) T)^{-1} D*`` at one pair of points."""
    I = np.eye(Ti.shape[0], dtype=complex)
    mid = np.linalg.solve(I - z * Ti.conj().T, np.linalg.solve(I - np.conj(w) * Ti, pair.defect_star))
    return pair.defect_star @ mid


def kernel_identity_loop(Ti, samples, pair, cfg=DEFAULT_TOL) -> float:
    """``kernel_identity_check`` one scalar pair ``(z, w)`` at a time."""
    Bout = pair.basis_star
    Ir = np.eye(Bout.shape[1], dtype=complex)
    worst = 0.0
    for z, w in samples:
        _check_polydisc(z, w)
        th_z = charfn_eval(Ti, z, pair, cfg)
        th_w = charfn_eval(Ti, w, pair, cfg)
        lhs = szego_kernel([z], [w]) * (Ir - th_z @ th_w.conj().T)
        rhs = Bout.conj().T @ _resolvent_product(Ti, pair, z, w) @ Bout
        worst = max(worst, operator_norm(lhs - rhs))
    return worst


def polydisc_kernel_loop(T, defects, samples, cfg=DEFAULT_TOL) -> tuple:
    """``polydisc_kernel_checks`` one pair of polydisc points at a time."""
    B = defects.big_defect_basis
    Bh = B.conj().T
    P = B @ Bh
    I = np.eye(T.dim, dtype=complex)
    invariance = product = gramian = 0.0
    for z, w in samples:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        _check_polydisc(z, w)
        resolvents = I.copy()
        complements = I.copy()
        Vz = Vw = defects.big_defect @ B
        for i, (Ti, pair) in enumerate(zip(T.matrices, defects.per_op)):
            Bout = pair.basis_star
            R = _resolvent_product(Ti, pair, z[i], w[i])
            th_z = charfn_eval(Ti, z[i], pair, cfg)
            th_w = charfn_eval(Ti, w[i], pair, cfg)
            X = Bout @ th_z @ th_w.conj().T @ Bout.conj().T
            invariance = max(invariance, operator_norm((I - P) @ R @ P), operator_norm((I - P) @ X @ P))
            resolvents = R @ resolvents
            complements = (I - X) @ complements
            Vw = np.linalg.solve(I - np.conj(w[i]) * Ti, Vw)
            Vz = np.linalg.solve(I - np.conj(z[i]) * Ti, Vz)
        rhs = szego_kernel(z, w) * (Bh @ complements @ B)
        product = max(product, operator_norm(Bh @ resolvents @ B - rhs))
        gramian = max(gramian, operator_norm(Vz.conj().T @ Vw - rhs))
    return invariance, product, gramian


def adjoint_on_kernels_loop(L, samples) -> float:
    """``adjoint_on_kernels_check`` with one resolvent chain per sample (and
    the package's kernel vectors, so that only the chains differ)."""
    B = L.defects.big_defect_basis
    D = L.defects.big_defect
    I = np.eye(L.tuple.dim, dtype=complex)
    worst = 0.0
    for w, eta in samples:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        lhs = (hardy.kernel_vector(L.space, w, eta).conj() @ L.matrix).conj()
        v = D @ (B @ np.asarray(eta, dtype=complex).reshape(-1))
        for i, M in enumerate(L.tuple.matrices):
            v = np.linalg.solve(I - np.conj(w[i]) * M, v)
        worst = max(worst, float(np.linalg.norm(lhs - v)))
    return worst


def isometry_defect(L) -> float:
    """``||I - L^H L||`` from the Gram of the whole dilation matrix at once."""
    return operator_norm(np.eye(L.tuple.dim) - L.matrix.conj().T @ L.matrix)


def intertwining_residual(L, i: int) -> float:
    """``||L T_i^H - coshift_i L||`` from an SVD of the whole ``N x dim``
    difference."""
    X = L.matrix @ L.tuple.matrices[i].conj().T - apply_coshift(L.space, L.matrix, i)
    return operator_norm(X)


def compressed_tuple_residual(L) -> list:
    """``||L^H shift_i L - T_i||`` per variable, the shift applied to the
    whole dilation matrix."""
    return [operator_norm(L.matrix.conj().T @ apply_shift(L.space, L.matrix, i) - M)
            for i, M in enumerate(L.tuple.matrices)]


def range_box_basis(L, box, cfg=DEFAULT_TOL) -> np.ndarray:
    """Box rows of the dilation range basis from a thin SVD of the whole
    dilation matrix."""
    return box_rows(L.space, orthonormal_range_basis(L.matrix, cfg), box)
