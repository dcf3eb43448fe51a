"""Seeded input generators for the benchmark workloads.

Every generator is plain NumPy, so the inputs do not depend on the code
under test.  Each member of a workload carries its declared sizes
``(n, dim, r, d, N)``; the generator checks ``n``, ``dim`` and ``r`` on
the matrices it made, and the runner checks ``d`` (and, when traced,
``r`` and ``N`` as the program computed them) against the same
declaration.  The constructions pin these sizes for every seed, not
just for the seeds that were tried:

* a factor with operator norm 0.4 and spectral radius at least 0.3 has
  truncation tails above ``tail_tol`` at degree 8 and below it at
  degree 16, so the adaptive search stops at 16;
* a factor with every eigenvalue inside radius 0.2, or a nilpotent
  factor of size at most 9, stops at the starting degree 8;
* a normal factor with eigenvalue moduli 0.93 and 0.5 has
  ``||A^k|| = 0.93^k`` exactly, which stops the search at 256;
* every factor is a strict contraction, so the joint defect has full
  rank ``r = dim``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# the suite's default rank cutoff (ToleranceConfig.rank_tol)
RANK_TOL = 1e-10


class SizeMismatch(RuntimeError):
    """A generated input does not have the sizes its workload declares."""


@dataclass(frozen=True)
class Member:
    """One tuple of a workload with its declared sizes."""

    label: str
    factors: tuple      # per-variable square factors, tensored together
    sample_seed: int    # the tuple file's metadata seed (suite sampling)
    dim: int
    rank: int
    degree: int
    skips: tuple = ()   # checks the suite skips on this input at the reference commit

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def space_dim(self) -> int:
        return (self.degree + 1) ** self.n * self.rank

    def sizes(self) -> dict:
        return {"n": self.n, "dim": self.dim, "r": self.rank,
                "d": self.degree, "N": self.space_dim}


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _ginibre(rng, m: int) -> np.ndarray:
    return (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)


def _spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def tensor_factor(rng, m: int, radius: float = 0.4, min_rho: float = 0.3) -> np.ndarray:
    """Random complex matrix scaled to operator norm ``radius`` (the
    ``demo tensor`` construction), redrawn until its spectral radius is
    at least ``min_rho`` so that the adaptive degree is fixed."""
    for _ in range(1000):
        A = _ginibre(rng, m)
        A *= radius / np.linalg.norm(A, 2)
        if _spectral_radius(A) >= min_rho:
            return A
    raise SizeMismatch(f"no {m}x{m} factor with spectral radius >= {min_rho}")


def random_diag_factor(rng, m: int, radius: float = 0.2) -> np.ndarray:
    """The ``demo random`` construction: diagonal, moduli below ``radius``."""
    return np.diag(radius * rng.random(m) * np.exp(2j * np.pi * rng.random(m)))


def jordan_factor(m: int, radius: float = 0.5) -> np.ndarray:
    """The ``demo jordan`` construction: ``radius`` on the superdiagonal."""
    return radius * np.eye(m, k=1, dtype=complex)


def slow_normal_factor(rng, moduli=(0.93, 0.5)) -> np.ndarray:
    """Seeded unitary conjugating ``diag(moduli * exp(i theta))``."""
    Q, R = np.linalg.qr(_ginibre(rng, len(moduli)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    lam = np.asarray(moduli) * np.exp(2j * np.pi * rng.random(len(moduli)))
    return (U * lam) @ U.conj().T


def tensor_tuple(factors) -> list:
    """``T_i = I (x) ... (x) A_i (x) ... (x) I``, factor 0 slowest."""
    dims = [A.shape[0] for A in factors]
    ops = []
    for i, A in enumerate(factors):
        M = np.eye(1, dtype=complex)
        for j, m in enumerate(dims):
            M = np.kron(M, A if j == i else np.eye(m, dtype=complex))
        ops.append(M)
    return ops


def joint_defect_rank(ops) -> int:
    """Numerical rank of ``prod_i (I - T_i T_i^H)``."""
    dim = ops[0].shape[0]
    prod = np.eye(dim, dtype=complex)
    for M in ops:
        prod = prod @ (np.eye(dim) - M @ M.conj().T)
    s = np.linalg.svd(prod, compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0


def dense_blh(seed: int) -> list:
    rng = _rng(seed, 1)
    factors = (tensor_factor(rng, 2), tensor_factor(rng, 2))
    return [Member("tensor-2x2", factors, seed, dim=4, rank=4, degree=16)]


def slow_decay(seed: int) -> list:
    rng = _rng(seed, 2)
    factors = (slow_normal_factor(rng), slow_normal_factor(rng))
    # N is above the suite's dense limit, so both BLH checks are skipped
    return [Member("normal-2x2", factors, seed, dim=4, rank=4, degree=256,
                   skips=("blh.inner_recovery", "blh.reconstruct_sum"))]


def small_sweep(seed: int) -> list:
    rng = _rng(seed, 3)
    t, rd, j = tensor_factor, random_diag_factor, jordan_factor
    specs = [
        # label, factors, dim, degree
        ("tensor-3", (t(rng, 3),), 3, 16),
        ("random-4", (rd(rng, 4),), 4, 8),
        ("jordan-4", (j(4),), 4, 8),
        ("tensor-1x1", (t(rng, 1), t(rng, 1)), 1, 16),
        ("random-2x2", (rd(rng, 2), rd(rng, 2)), 4, 8),
        ("random-3x1", (rd(rng, 3), rd(rng, 1)), 3, 8),
        ("jordan-2x2", (j(2), j(2)), 4, 8),
        ("jordan-3x2", (j(3), j(2)), 6, 8),
        ("random-1x1x1", (rd(rng, 1), rd(rng, 1), rd(rng, 1)), 1, 8),
    ]
    return [Member(label, f, seed * 100 + k, dim=dim, rank=dim, degree=deg)
            for k, (label, f, dim, deg) in enumerate(specs)]


WORKLOADS = {
    "dense-blh": dense_blh,
    "slow-decay": slow_decay,
    "small-sweep": small_sweep,
}


def generate(workload: str, seed: int) -> list:
    """The workload's members for ``seed``, with ``n``, ``dim`` and ``r``
    checked against their declaration."""
    members = WORKLOADS[workload](seed)
    for m in members:
        ops = tensor_tuple(m.factors)
        got = (len(ops), ops[0].shape[0], joint_defect_rank(ops))
        if got != (m.n, m.dim, m.rank):
            raise SizeMismatch(f"{workload}/{m.label} at seed {seed}: (n, dim, r) = {got}, "
                               f"declared {(m.n, m.dim, m.rank)}")
    return members


def write_tuple_file(path: str, m: Member) -> None:
    """Write ``m`` in the CLI's tuple-file format."""
    ops = tensor_tuple(m.factors)
    doc = {
        "n": m.n,
        "dim": m.dim,
        "matrices": [[[[float(v.real), float(v.imag)] for v in row] for row in M] for M in ops],
        "metadata": {"name": m.label, "seed": m.sample_seed},
    }
    with open(path, "w") as f:
        json.dump(doc, f)
