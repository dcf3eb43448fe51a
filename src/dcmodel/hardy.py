"""Truncated model of the vector-valued Hardy space over the polydisc.

A function with coefficient space of dimension ``r`` and per-variable
degree cap ``d`` is stored as a flat vector of length ``(d+1)^n * r``:
the C-order layout of the tensor of shape ``(d+1,)*n + (r,)``
(:attr:`TruncatedHardySpace.shape`).  Multi-indices run
lexicographically with ``k_1`` slowest, and the coefficient-space basis
varies fastest, so ``k = 0`` is row block 0 and an operator in one
variable acts on one tensor axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


# bytes of one row block: a product over the rows of flat columns, such
# as the Gram of the N-row dilation matrix, is accumulated block by block
# (row_blocks), so no second N-row array is formed
_BLOCK_BYTES = 1 << 20


class PointOutsidePolydisc(ValueError):
    """A sample point left the open unit polydisc."""


@dataclass(frozen=True)
class TruncatedHardySpace:
    """Descriptor of the truncated space: n variables, degree cap d,
    coefficient dimension ``coeff_dim``."""

    n: int
    degree: int
    coeff_dim: int

    def __post_init__(self):
        if self.n < 1 or self.degree < 0 or self.coeff_dim < 0:
            raise ValueError("invalid space parameters")

    @property
    def shape(self) -> tuple:
        """Tensor shape of the flat storage: one axis per variable, then
        the coefficient axis."""
        return (self.degree + 1,) * self.n + (self.coeff_dim,)

    @property
    def num_indices(self) -> int:
        return (self.degree + 1) ** self.n

    @property
    def total_dim(self) -> int:
        return self.num_indices * self.coeff_dim

    def margin_box(self, margin: int) -> "TruncatedHardySpace":
        """The indices with every component at most ``degree - margin``, as
        a space of their own (:func:`box_rows` restricts flat columns to it)."""
        return TruncatedHardySpace(self.n, self.degree - margin, self.coeff_dim)


def box_rows(space: TruncatedHardySpace, M: np.ndarray, box: TruncatedHardySpace) -> np.ndarray:
    """The rows of flat columns ``M`` of ``space`` at the indices with every
    component at most ``box.degree``, as flat columns of ``box`` (a space
    with the same ``n`` and coefficient dimension and a lower degree)."""
    t = M.reshape(space.shape + M.shape[1:])[(slice(box.degree + 1),) * space.n]
    return t.reshape((box.total_dim,) + M.shape[1:])


def row_blocks(space: TruncatedHardySpace, arr: np.ndarray):
    """Split flat columns ``arr`` of ``space`` into row blocks of whole
    layers of the first variable, about ``_BLOCK_BYTES`` each and at least
    one layer: yields ``(a, b)``, the block being the layers
    ``a <= k_1 < b`` of the tensor view ``arr.reshape(space.shape + ...)``.
    A shift in any variable but the first stays inside a block; one in the
    first crosses into the next layer, ``b``."""
    layers = space.degree + 1
    step = max(1, _BLOCK_BYTES * layers // max(1, arr.nbytes))
    for a in range(0, layers, step):
        yield a, min(a + step, layers)


def next_layers(t: np.ndarray, a: int, b: int, i: int) -> np.ndarray:
    """The coshift in variable ``i`` of the block ``t[a:b]`` of a tensor
    ``t`` of flat columns (:func:`row_blocks`), as a view with the axis of
    variable ``i`` first: entry ``k`` is ``t[k + e_i]``, for the block
    indices ``k`` with ``k_i`` below the top layer, which are the leading
    ``len`` entries of the block along that axis.  For ``i == 0`` it is the
    layers ``a + 1 .. b``, across the seam into the next block."""
    if i == 0:
        return t[a + 1:b + 1]
    return np.moveaxis(t[a:b], i, 0)[1:]


def _axis_view(space: TruncatedHardySpace, arr: np.ndarray, i: int) -> np.ndarray:
    """Flat columns viewed as tensors with the axis of variable ``i`` first
    (a view, so writable, only when ``arr`` is C-contiguous)."""
    return np.moveaxis(arr.reshape(space.shape + arr.shape[1:]), i, 0)


def apply_shift(space: TruncatedHardySpace, arr: np.ndarray, i: int) -> np.ndarray:
    """Apply multiplication by z_i to columns stored as flat vectors,
    without materializing the shift matrix."""
    arr = np.asarray(arr, dtype=complex)
    out = np.zeros(arr.shape, dtype=complex)
    _axis_view(space, out, i)[1:] = _axis_view(space, arr, i)[:-1]
    return out


def apply_coshift(space: TruncatedHardySpace, arr: np.ndarray, i: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=complex)
    out = np.zeros(arr.shape, dtype=complex)
    _axis_view(space, out, i)[:-1] = _axis_view(space, arr, i)[1:]
    return out


def _check_polydisc(*points):
    """Raise unless every coordinate of every point, or of every row of a
    stack of points, lies in the open unit disc."""
    for z in points:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(np.abs(z) >= 1.0):
            raise PointOutsidePolydisc(f"point {z} not in the open polydisc")


def szego_kernel(z, w):
    """Product kernel of the polydisc: prod_i 1 / (1 - z_i conj(w_i)); for
    ``(k, n)`` stacks of points, the ``k`` values as an array."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if z.shape != w.shape:
        raise ValueError("points must have equal length")
    _check_polydisc(z, w)
    value = np.prod(1.0 / (1.0 - z * np.conj(w)), axis=-1)
    return complex(value) if z.ndim == 1 else value


def _monomials(space: TruncatedHardySpace, z: np.ndarray) -> np.ndarray:
    """``z^k = prod_i z_i^{k_i}`` for every multi-index: the outer
    product of the per-variable power vectors."""
    powers = [zi ** np.arange(space.degree + 1) for zi in z]
    return reduce(np.multiply.outer, powers).reshape(-1)


def kernel_vector(space: TruncatedHardySpace, w, eta) -> np.ndarray:
    """Truncated reproducing-kernel vector: coefficient at k is
    ``conj(w)^k eta``."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape[0] != space.n:
        raise ValueError("point dimension mismatch")
    _check_polydisc(w)
    eta = np.asarray(eta, dtype=complex).reshape(space.coeff_dim)
    return np.outer(_monomials(space, np.conj(w)), eta).reshape(-1)
