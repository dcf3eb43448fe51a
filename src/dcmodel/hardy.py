"""Truncated model of the vector-valued Hardy space over the polydisc.

A function with coefficient space of dimension ``r`` and per-variable
degree cap ``d`` is stored as a flat vector of length ``(d+1)^n * r``.
Basis order is graded on multi-indices (ascending total degree, ties
lexicographic), with the coefficient-space basis fastest-varying.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce

import numpy as np


class PointOutsidePolydisc(ValueError):
    """A sample point left the open unit polydisc."""


def enumerate_multi_indices(n: int, d: int) -> list:
    """All multi-indices with components in 0..d, graded order."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    idx = list(itertools.product(range(d + 1), repeat=n))
    idx.sort(key=lambda k: (sum(k), k))
    return idx


@dataclass(frozen=True, eq=True)
class TruncatedHardySpace:
    """Descriptor of the truncated space: n variables, degree cap d,
    coefficient dimension ``coeff_dim``."""

    n: int
    degree: int
    coeff_dim: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.degree < 0 or self.coeff_dim < 0:
            raise ValueError("invalid space parameters")

    @property
    def indices(self) -> list:
        if "indices" not in self._cache:
            self._cache["indices"] = enumerate_multi_indices(self.n, self.degree)
        return self._cache["indices"]

    @property
    def index_pos(self) -> dict:
        if "pos" not in self._cache:
            self._cache["pos"] = {k: p for p, k in enumerate(self.indices)}
        return self._cache["pos"]

    @property
    def num_indices(self) -> int:
        return (self.degree + 1) ** self.n

    @property
    def total_dim(self) -> int:
        return self.num_indices * self.coeff_dim

    def _index_perm(self) -> np.ndarray:
        # perm[p] = position in lexicographic tensor layout of graded index p:
        # a stable sort of the lexicographic positions by total degree
        if "iperm" not in self._cache:
            lex = np.indices((self.degree + 1,) * self.n).reshape(self.n, -1)
            self._cache["iperm"] = np.argsort(lex.sum(axis=0), kind="stable")
        return self._cache["iperm"]

    def _tensor_perm(self) -> np.ndarray:
        # perm[j] = row in lexicographic tensor layout of graded row j
        if "perm" not in self._cache:
            r = self.coeff_dim
            self._cache["perm"] = (self._index_perm()[:, None] * r + np.arange(r)).ravel()
        return self._cache["perm"]

    def to_tensor(self, arr: np.ndarray) -> np.ndarray:
        """Reorder rows from graded layout to lexicographic tensor layout."""
        out = np.empty_like(np.asarray(arr, dtype=complex))
        out[self._tensor_perm()] = arr
        return out

    def from_tensor(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(arr, dtype=complex)[self._tensor_perm()]

    def _index_digits(self) -> np.ndarray:
        # row i = component k_i of each graded index
        return np.array(np.unravel_index(self._index_perm(), (self.degree + 1,) * self.n))

    def shift_up_map(self, i: int) -> np.ndarray:
        """Position of k + e_i for each index position (or -1 past the cap)."""
        key = ("up", i)
        if key not in self._cache:
            lex = self._index_perm()
            graded = np.empty_like(lex)
            graded[lex] = np.arange(lex.size)
            up = np.full(self.num_indices, -1, dtype=np.intp)
            below = self._index_digits()[i] < self.degree
            # k + e_i sits (d+1)^(n-1-i) further on in lexicographic order
            up[below] = graded[lex[below] + (self.degree + 1) ** (self.n - 1 - i)]
            self._cache[key] = up
        return self._cache[key]

    def margin_mask(self, margin: int) -> np.ndarray:
        """Boolean row mask keeping indices with every component
        <= degree - margin."""
        keep = np.all(self._index_digits() <= self.degree - margin, axis=0)
        return np.repeat(keep, self.coeff_dim)


def _shift_rows(space: TruncatedHardySpace, i: int) -> list:
    """Flat rows of each k with k_i < d and of its image k + e_i."""
    r, up = space.coeff_dim, space.shift_up_map(i)
    src = np.nonzero(up >= 0)[0]
    return [(p[:, None] * r + np.arange(r)).ravel() for p in (src, up[src])]


def apply_shift(space: TruncatedHardySpace, arr: np.ndarray, i: int) -> np.ndarray:
    """Apply multiplication by z_i to columns stored as flat vectors,
    without materializing the shift matrix."""
    arr = np.asarray(arr, dtype=complex)
    out = np.zeros_like(arr)
    src, dst = _shift_rows(space, i)
    out[dst] = arr[src]
    return out


def apply_coshift(space: TruncatedHardySpace, arr: np.ndarray, i: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=complex)
    out = np.zeros_like(arr)
    src, dst = _shift_rows(space, i)
    out[src] = arr[dst]
    return out


def _check_polydisc(*points):
    for z in points:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(np.abs(z) >= 1.0):
            raise PointOutsidePolydisc(f"point {z} not in the open polydisc")


def szego_kernel(z, w) -> complex:
    """Product kernel of the polydisc: prod_i 1 / (1 - z_i conj(w_i))."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if z.shape != w.shape:
        raise ValueError("points must have equal length")
    _check_polydisc(z, w)
    return complex(reduce(lambda a, b: a * b, 1.0 / (1.0 - z * np.conj(w)), 1.0))


def _monomials(space: TruncatedHardySpace, z: np.ndarray) -> np.ndarray:
    """``z^k = prod_i z_i^{k_i}`` for every multi-index, in graded order:
    the outer product of the per-variable power vectors."""
    powers = [zi ** np.arange(space.degree + 1) for zi in z]
    return reduce(np.multiply.outer, powers).reshape(-1)[space._index_perm()]


def kernel_vector(space: TruncatedHardySpace, w, eta) -> np.ndarray:
    """Truncated reproducing-kernel vector: coefficient at k is
    ``conj(w)^k eta``."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape[0] != space.n:
        raise ValueError("point dimension mismatch")
    _check_polydisc(w)
    eta = np.asarray(eta, dtype=complex).reshape(space.coeff_dim)
    return np.outer(_monomials(space, np.conj(w)), eta).reshape(-1)


def point_evaluation(space: TruncatedHardySpace, flat: np.ndarray, z) -> np.ndarray:
    """Evaluate the stored polynomial at a point of the polydisc."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    flat = np.asarray(flat, dtype=complex)
    return _monomials(space, z) @ flat.reshape(space.num_indices, space.coeff_dim)
